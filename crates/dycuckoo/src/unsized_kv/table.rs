//! The unsized table: two-subtable cuckoo hashing over `(KeyRepr, ValRepr)`
//! slot words, with all spilled bytes in the [`ByteArena`].
//!
//! Structure mirrors the fixed-width [`crate::DyCuckoo`] at `d = 2`: every
//! key has exactly one candidate bucket in each of two subtables (the
//! two-lookup bound), inserts evict on full buckets with a bounded chain,
//! and insertion failure triggers growing the fuller subtable — either
//! stop-the-world (`migration_quantum = usize::MAX`) or incrementally, a
//! bounded chunk of buckets per pump, with foreground operations routed
//! around the drain cursor exactly like the fixed tier's
//! [`crate::table::migration`].
//!
//! What is new relative to the fixed tier:
//!
//! * Probes compare **slot words**, not raw keys. Inline keys (≤ 12 bytes)
//!   are compared by word equality — zero arena traffic. Spilled keys are
//!   pre-filtered by the word's 16-bit fingerprint and length; only a slot
//!   that passes the filter pays `ceil(len/128)` arena read lines for the
//!   byte comparison, so a probe is still one bucket line in the common
//!   case (the two-lookup bound survives).
//! * Eviction chains never touch the arena: the displaced slot words carry
//!   their handles with them, and a spilled word's embedded `h48` re-routes
//!   it without dereferencing its bytes.
//! * The migration drain re-homes each moved entry's spilled blobs, so
//!   arena pages empty out **incrementally alongside buckets** and fully
//!   dead pages are released mid-migration.
//!
//! All line charges flow through the configured [`LayoutConfig`] (default
//! SoA with 8 × 16-byte key words — exactly one key line per probe, the
//! same as the u32 tier) plus the arena's explicit blob-line charges.

use gpu_sim::ChargeKind;
use gpu_sim::{
    ballot, run_rounds_quantum, run_rounds_with, BucketStore, LayoutConfig, RoundCtx, RoundKernel,
    SchedulePolicy, SimContext, StepOutcome, WARP_SIZE,
};

use crate::error::{Error, Result};
use crate::hashfn::splitmix64;
use crate::ops::{nth_active_lane, pack_warps};
use crate::rmw::MergeRule;

use super::arena::{charge_blob_read, charge_blob_write, ByteArena, PAGE_BYTES};
use super::encoding::{
    decode_key, decode_val, encode_inline_key, encode_inline_val, encode_spill_key,
    encode_spill_val, fingerprint, h48, hash_bytes, KeyRepr, SpillRef, ValRepr, INLINE_KEY_MAX,
    INLINE_VAL_MAX, MAX_BLOB_LEN, SPILL_TAG,
};

/// A subtable of the unsized tier: 16-byte key words, 8-byte value words.
pub type UnsizedStore = BucketStore<u128, u64>;

/// Number of subtables (fixed: one candidate bucket in each).
const SUBTABLES: usize = 2;
/// Lock address space of a growing subtable's fresh side.
const FRESH_SPACE_BASE: u32 = SUBTABLES as u32;
/// Upsizings a single batch may trigger before reporting `InsertStuck`.
const MAX_RESIZES_PER_BATCH: u64 = 8;

/// Configuration of an [`UnsizedTable`].
#[derive(Debug, Clone, Copy)]
pub struct UnsizedConfig {
    /// Initial buckets per subtable.
    pub n_buckets: usize,
    /// Seed for hash salts and eviction coin flips.
    pub seed: u64,
    /// Warp schedule for every kernel launch.
    pub schedule: SchedulePolicy,
    /// Bucket layout; `key_bytes` must be 16 and `val_bytes` 8.
    pub layout: LayoutConfig,
    /// Eviction-chain length that triggers an upsize.
    pub eviction_limit: u32,
    /// Filled factor above which the fuller subtable grows proactively.
    pub max_load: f64,
    /// Source buckets drained per migration pump (`usize::MAX` =
    /// stop-the-world).
    pub migration_quantum: usize,
    /// Arena page payload bytes.
    pub page_bytes: u32,
}

impl Default for UnsizedConfig {
    fn default() -> Self {
        Self {
            n_buckets: 8,
            seed: 0xD1C2_B3A4,
            schedule: SchedulePolicy::FixedOrder,
            layout: LayoutConfig::soa(8, 16, 8),
            eviction_limit: 16,
            max_load: 0.85,
            migration_quantum: usize::MAX,
            page_bytes: PAGE_BYTES,
        }
    }
}

impl UnsizedConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        self.layout.validate().map_err(Error::InvalidConfig)?;
        if self.layout.key_bytes != 16 || self.layout.val_bytes != 8 {
            return Err(Error::InvalidConfig(format!(
                "unsized tier needs 16-byte key and 8-byte value words, got {}/{}",
                self.layout.key_bytes, self.layout.val_bytes
            )));
        }
        if self.n_buckets == 0 {
            return Err(Error::InvalidConfig("n_buckets must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.max_load) || self.max_load == 0.0 {
            return Err(Error::InvalidConfig(format!(
                "max_load must be in (0, 1], got {}",
                self.max_load
            )));
        }
        if self.eviction_limit == 0 {
            return Err(Error::InvalidConfig("eviction_limit must be ≥ 1".into()));
        }
        if self.page_bytes < 8 || !self.page_bytes.is_multiple_of(8) || self.page_bytes > 1 << 16 {
            return Err(Error::InvalidConfig(format!(
                "page_bytes must be a multiple of 8 in [8, 65536], got {}",
                self.page_bytes
            )));
        }
        Ok(())
    }
}

/// Counters of one batched call (and the maintenance it triggered).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UnsizedReport {
    /// Entries placed into empty slots.
    pub inserted: u64,
    /// Entries whose value was replaced in place.
    pub updated: u64,
    /// Entries removed.
    pub deleted: u64,
    /// Operations re-run after an upsize.
    pub retries: u64,
    /// Upsizings started by this batch.
    pub resizes: u64,
    /// Source buckets drained by migration pumps inside this call.
    pub migrated_buckets: u64,
    /// Entries rehashed by migration pumps inside this call.
    pub migrated_kvs: u64,
    /// Spilled bytes re-homed by migration pumps inside this call.
    pub migrated_blob_bytes: u64,
}

impl UnsizedReport {
    /// Fold another report into this one.
    pub fn merge(&mut self, o: &UnsizedReport) {
        self.inserted += o.inserted;
        self.updated += o.updated;
        self.deleted += o.deleted;
        self.retries += o.retries;
        self.resizes += o.resizes;
        self.migrated_buckets += o.migrated_buckets;
        self.migrated_kvs += o.migrated_kvs;
        self.migrated_blob_bytes += o.migrated_blob_bytes;
    }
}

/// Point-in-time observability snapshot (feeds the `arena_*` gauges).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnsizedStats {
    /// Live entries.
    pub entries: u64,
    /// Total slots across both subtables (and the fresh side, mid-drain).
    pub capacity_slots: u64,
    /// Overall filled factor.
    pub fill_factor: f64,
    /// Arena pages currently allocated.
    pub arena_pages: u64,
    /// Arena bytes referenced by live handles.
    pub arena_live_bytes: u64,
    /// Arena bytes freed but not yet reused (fragmentation).
    pub arena_frag_bytes: u64,
    /// Device bytes held (buckets + locks + arena).
    pub device_bytes: u64,
    /// Source buckets not yet drained (0 when no migration is in flight).
    pub migration_backlog: u64,
}

/// In-flight incremental upsize of one subtable.
#[derive(Debug)]
struct Drain {
    table: usize,
    fresh: UnsizedStore,
    cursor: usize,
    span: usize,
}

/// Routing snapshot of the drain, consulted by every kernel.
#[derive(Debug, Clone, Copy)]
struct UView {
    table: usize,
    cursor: usize,
    old_n: usize,
    new_n: usize,
}

impl Drain {
    fn view(&self) -> UView {
        UView {
            table: self.table,
            cursor: self.cursor,
            old_n: self.span,
            new_n: self.fresh.n_buckets(),
        }
    }
}

/// Host-precomputed per-key probe state (in registers on a real GPU).
#[derive(Debug, Clone, Copy)]
struct Query {
    h48: u64,
    fp: u16,
    /// The whole key as one slot word, when it fits inline.
    inline: Option<u128>,
}

fn query(key: &[u8]) -> Query {
    let h = hash_bytes(key);
    Query {
        h48: h48(h),
        fp: fingerprint(h),
        inline: (key.len() <= INLINE_KEY_MAX).then(|| encode_inline_key(key)),
    }
}

#[inline]
fn raw_of(salt: u64, h48: u64) -> u64 {
    splitmix64(h48 ^ salt)
}

#[inline]
fn bucket_of(salt: u64, h48: u64, n: usize) -> usize {
    (raw_of(salt, h48) % n as u64) as usize
}

/// The `h48` a stored key word re-routes by: read from a spill word, or
/// recomputed from the inline bytes (register arithmetic, never memory).
fn word_h48(w: u128) -> u64 {
    match decode_key(w) {
        KeyRepr::Inline { len, bytes } => h48(hash_bytes(&bytes[..len as usize])),
        KeyRepr::Spill { h48, .. } => h48,
    }
}

/// Fingerprint-lane hash of a stored key word. Must be stable for a given
/// *logical* key: inline words are the key itself, but spill handles are
/// re-homed (page/off change) by migration drains, so a spill word hashes
/// its full 64-bit stable hash `(fp16 << 48) | h48` and never its handle
/// bits. Installed into every [`UnsizedStore`] via `set_fp_fn`.
fn word_fp_hash(w: u128) -> u64 {
    match decode_key(w) {
        KeyRepr::Inline { .. } => splitmix64((w ^ (w >> 64)) as u64),
        KeyRepr::Spill { fp, h48, .. } => ((fp as u64) << 48) | h48,
    }
}

/// The query-side mirror of [`word_fp_hash`]: what the stored word's lane
/// hash will be, computed without knowing the arena handle.
fn query_fp_hash(q: &Query) -> u64 {
    match q.inline {
        Some(w) => splitmix64((w ^ (w >> 64)) as u64),
        None => ((q.fp as u64) << 48) | q.h48,
    }
}

/// Fingerprint-gated probe wrapper around [`match_slot`], charged like
/// [`BucketStore::probe_find`]: a gate rejection reads only the
/// fingerprint line; a pass pays the key lines and scans as before.
fn probe_match(
    store: &UnsizedStore,
    arena: &ByteArena,
    layout: &LayoutConfig,
    b: usize,
    q: &Query,
    key: &[u8],
    ctx: &mut RoundCtx,
) -> Option<usize> {
    if !store.fp_active() {
        layout.charge_probe(ctx);
        return match_slot(store, arena, b, q, key, ctx);
    }
    layout.charge_fp_probe(ctx);
    let fp = store.fp_of_hash(query_fp_hash(q));
    if !store.bucket_fps(b).contains(&fp) {
        debug_assert!(
            match_slot_uncharged(store, arena, b, q, key).is_none(),
            "fingerprint false negative"
        );
        return None;
    }
    layout.charge_fp_confirm(ctx);
    match_slot(store, arena, b, q, key, ctx)
}

/// [`match_slot`] without line charges (debug assertions only).
fn match_slot_uncharged(
    store: &UnsizedStore,
    arena: &ByteArena,
    b: usize,
    q: &Query,
    key: &[u8],
) -> Option<usize> {
    let mut m = gpu_sim::Metrics::default();
    let mut ctx = RoundCtx::new(&mut m);
    let r = match_slot(store, arena, b, q, key, &mut ctx);
    ctx.finish();
    r
}

/// Where a key of subtable `t` lives: `(bucket, lock_space, in_fresh)`.
fn locate(
    salts: &[u64; SUBTABLES],
    tables: &[UnsizedStore; SUBTABLES],
    view: Option<UView>,
    t: usize,
    h48: u64,
) -> (usize, u32, bool) {
    if let Some(v) = view {
        if v.table == t {
            let b_old = bucket_of(salts[t], h48, v.old_n);
            return if b_old < v.cursor {
                (
                    bucket_of(salts[t], h48, v.new_n),
                    FRESH_SPACE_BASE + t as u32,
                    true,
                )
            } else {
                (b_old, t as u32, false)
            };
        }
    }
    (
        bucket_of(salts[t], h48, tables[t].n_buckets()),
        t as u32,
        false,
    )
}

/// Scan bucket `b` for the query key. Inline queries compare words; spill
/// queries fingerprint-filter first and charge an arena read only for
/// slots that pass — the second "lookup" of the two-lookup bound.
fn match_slot(
    store: &UnsizedStore,
    arena: &ByteArena,
    b: usize,
    q: &Query,
    key: &[u8],
    ctx: &mut RoundCtx,
) -> Option<usize> {
    if let Some(w) = q.inline {
        return store.find_slot(b, w);
    }
    for (s, &w) in store.bucket_keys(b).iter().enumerate() {
        if (w & 0xFF) as u8 != SPILL_TAG {
            continue;
        }
        if let KeyRepr::Spill { fp, blob, .. } = decode_key(w) {
            if fp == q.fp && blob.len as usize == key.len() {
                charge_blob_read(ctx, blob.len);
                if arena.bytes_eq(blob, key) {
                    return Some(s);
                }
            }
        }
    }
    None
}

/// Encode `(key, val)` into slot words, spilling long payloads into the
/// arena (charged as blob writes).
fn encode_entry(
    arena: &mut ByteArena,
    q: &Query,
    key: &[u8],
    val: &[u8],
    ctx: &mut RoundCtx,
) -> (u128, u64) {
    let kw = match q.inline {
        Some(w) => w,
        None => {
            charge_blob_write(ctx, key.len() as u32);
            encode_spill_key(q.fp, arena.alloc(key), q.h48)
        }
    };
    (kw, encode_value(arena, val, ctx))
}

fn encode_value(arena: &mut ByteArena, val: &[u8], ctx: &mut RoundCtx) -> u64 {
    if val.len() <= INLINE_VAL_MAX {
        encode_inline_val(val)
    } else {
        charge_blob_write(ctx, val.len() as u32);
        encode_spill_val(arena.alloc(val))
    }
}

/// Free whatever arena bytes a slot's words reference.
fn free_entry(arena: &mut ByteArena, kw: u128, vw: u64) {
    if let Some(blob) = decode_key(kw).spill() {
        arena.free(blob);
    }
    if let Some(blob) = decode_val(vw).spill() {
        arena.free(blob);
    }
}

// ---------------------------------------------------------------------------
// Find kernel (warp-centric, lock-free — mirrors `ops::find`).
// ---------------------------------------------------------------------------

struct FindWarp {
    idxs: Vec<usize>,
    cur: usize,
    cand: usize,
}

struct FindKernel<'a> {
    tables: &'a [UnsizedStore; SUBTABLES],
    arena: &'a ByteArena,
    salts: &'a [u64; SUBTABLES],
    layout: LayoutConfig,
    migration: Option<(UView, &'a UnsizedStore)>,
    keys: &'a [&'a [u8]],
    queries: &'a [Query],
    results: &'a mut [Option<Vec<u8>>],
}

impl RoundKernel<FindWarp> for FindKernel<'_> {
    fn step(&mut self, warp: &mut FindWarp, ctx: &mut RoundCtx) -> StepOutcome {
        let Some(&idx) = warp.idxs.get(warp.cur) else {
            return StepOutcome::Done;
        };
        let (q, key) = (&self.queries[idx], self.keys[idx]);
        let t = warp.cand;
        let (b, _, in_fresh) = locate(
            self.salts,
            self.tables,
            self.migration.map(|(v, _)| v),
            t,
            q.h48,
        );
        let store = if in_fresh {
            self.migration.as_ref().expect("fresh without migration").1
        } else {
            &self.tables[t]
        };
        if let Some(slot) = probe_match(store, self.arena, &self.layout, b, q, key, ctx) {
            self.layout.charge_value_read(ctx);
            let vw = store.bucket_vals(b)[slot];
            let bytes = match decode_val(vw) {
                ValRepr::Inline { len, bytes } => bytes[..len as usize].to_vec(),
                ValRepr::Spill(blob) => {
                    charge_blob_read(ctx, blob.len);
                    self.arena.read(blob)
                }
            };
            self.results[idx] = Some(bytes);
            if obs::is_enabled() {
                obs::emit(obs::Event::OpRetired {
                    kind: obs::OpKind::Find,
                    op: idx as u64,
                    key: q.h48,
                    outcome: obs::OpOutcome::Hit,
                    probes: warp.cand as u32 + 1,
                    evict_depth: 0,
                    lock_waits: 0,
                });
            }
            warp.cur += 1;
            warp.cand = 0;
        } else {
            warp.cand += 1;
            if warp.cand == SUBTABLES {
                if obs::is_enabled() {
                    obs::emit(obs::Event::OpRetired {
                        kind: obs::OpKind::Find,
                        op: idx as u64,
                        key: q.h48,
                        outcome: obs::OpOutcome::Miss,
                        probes: SUBTABLES as u32,
                        evict_depth: 0,
                        lock_waits: 0,
                    });
                }
                warp.cur += 1;
                warp.cand = 0;
            }
        }
        if warp.cur == warp.idxs.len() {
            StepOutcome::Done
        } else {
            StepOutcome::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Insert kernel (leader-vote, one bucket lock per step — mirrors
// `ops::insert` with d = 2 and word-carried eviction chains).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum InsPhase {
    /// Probe subtable `t` for an existing key (fresh ops only).
    Lookup(usize),
    /// Place into (or evict from) subtable `t`.
    Place(usize),
}

#[derive(Debug, Clone, Copy)]
struct InsOp {
    /// Batch index (drives result routing and the eviction coin flips).
    idx: usize,
    salt: u64,
    phase: InsPhase,
    /// Once evicting (or on a retry), the op carries slot words instead of
    /// batch bytes: `(key_word, val_word, h48)`.
    carried: Option<(u128, u64, u64)>,
    evictions: u32,
}

struct InsWarp {
    ops: Vec<InsOp>,
    active: u32,
    rr: usize,
}

impl InsWarp {
    fn new(ops: Vec<InsOp>) -> Self {
        debug_assert!(ops.len() <= WARP_SIZE);
        let active = if ops.len() == 32 {
            u32::MAX
        } else {
            (1u32 << ops.len()) - 1
        };
        Self { ops, active, rr: 0 }
    }
}

#[derive(Default)]
struct InsOut {
    inserted: u64,
    updated: u64,
    /// Eviction chains that exceeded the limit: carried words the caller
    /// re-runs after growing (their arena blobs stay allocated and valid).
    failed: Vec<(u128, u64, u64)>,
}

struct InsertKernel<'a> {
    tables: &'a mut [UnsizedStore; SUBTABLES],
    arena: &'a mut ByteArena,
    salts: &'a [u64; SUBTABLES],
    layout: LayoutConfig,
    eviction_limit: u32,
    seed: u64,
    migration: Option<(UView, &'a mut UnsizedStore)>,
    pairs: &'a [(&'a [u8], &'a [u8])],
    queries: &'a [Query],
    /// Merge applied to fresh ops: absent keys store `rule.initial_bytes`,
    /// present keys `rule.merge_bytes` under the bucket lock. Carried
    /// (evicted) words pass through literally — they were materialized when
    /// first placed, so eviction chains never re-apply the merge.
    rule: MergeRule,
    kind: obs::OpKind,
    out: InsOut,
}

impl InsertKernel<'_> {
    fn view(&self) -> Option<UView> {
        self.migration.as_ref().map(|(v, _)| *v)
    }

    fn store(&mut self, t: usize, in_fresh: bool) -> &mut UnsizedStore {
        if in_fresh {
            self.migration.as_mut().expect("fresh without migration").1
        } else {
            &mut self.tables[t]
        }
    }

    fn store_ro(&self, t: usize, in_fresh: bool) -> &UnsizedStore {
        if in_fresh {
            self.migration.as_ref().expect("fresh without migration").1
        } else {
            &self.tables[t]
        }
    }

    /// The op's routing hash: from its query (fresh) or carried word.
    fn op_h48(&self, op: &InsOp) -> u64 {
        match op.carried {
            Some((_, _, h)) => h,
            None => self.queries[op.idx].h48,
        }
    }

    /// Materialize the op's slot words (encoding fresh bytes on first
    /// placement; carried words pass through).
    fn words_of(&mut self, op: &InsOp, ctx: &mut RoundCtx) -> (u128, u64) {
        match op.carried {
            Some((kw, vw, _)) => (kw, vw),
            None => {
                let (key, val) = self.pairs[op.idx];
                let stored = self.rule.initial_bytes(val);
                encode_entry(self.arena, &self.queries[op.idx], key, &stored, ctx)
            }
        }
    }

    fn retire(&self, op: &InsOp, outcome: obs::OpOutcome) {
        if obs::is_enabled() {
            obs::emit(obs::Event::OpRetired {
                kind: self.kind,
                op: op.salt,
                key: self.op_h48(op),
                outcome,
                probes: 0,
                evict_depth: op.evictions,
                lock_waits: 0,
            });
        }
    }
}

impl RoundKernel<InsWarp> for InsertKernel<'_> {
    fn step(&mut self, warp: &mut InsWarp, ctx: &mut RoundCtx) -> StepOutcome {
        let mask = ballot(|l| warp.active & (1 << l) != 0);
        if mask == 0 {
            return StepOutcome::Done;
        }
        let leader = nth_active_lane(mask, warp.rr);
        let op = warp.ops[leader];
        let h = self.op_h48(&op);

        match op.phase {
            InsPhase::Lookup(t) => {
                let (b, space, in_fresh) = locate(self.salts, self.tables, self.view(), t, h);
                if !ctx.atomic_cas_lock(&mut self.store(t, in_fresh).locks, space, b) {
                    warp.rr += 1; // revote
                    return StepOutcome::Pending;
                }
                let (key, val) = self.pairs[op.idx];
                let q = self.queries[op.idx];
                let found = probe_match(
                    self.store_ro(t, in_fresh),
                    self.arena,
                    &self.layout,
                    b,
                    &q,
                    key,
                    ctx,
                );
                if let Some(slot) = found {
                    // Present: merge (reading the old bytes when the rule
                    // needs them), free the old value's bytes, store the new.
                    let old_vw = self.store_ro(t, in_fresh).bucket_vals(b)[slot];
                    let merged;
                    let stored: &[u8] = if self.rule.reads_old() {
                        self.layout.charge_value_read(ctx);
                        let old = match decode_val(old_vw) {
                            ValRepr::Inline { len, bytes } => bytes[..len as usize].to_vec(),
                            ValRepr::Spill(blob) => {
                                charge_blob_read(ctx, blob.len);
                                self.arena.read(blob)
                            }
                        };
                        merged = self.rule.merge_bytes(&old, val);
                        &merged
                    } else {
                        val
                    };
                    if let Some(blob) = decode_val(old_vw).spill() {
                        self.arena.free(blob);
                    }
                    let vw = encode_value(self.arena, stored, ctx);
                    self.store(t, in_fresh).update_val(b, slot, vw);
                    self.layout.charge_value_write(ctx);
                    self.out.updated += 1;
                    self.retire(&op, obs::OpOutcome::Updated);
                    warp.active &= !(1 << leader);
                } else if t + 1 < SUBTABLES {
                    warp.ops[leader].phase = InsPhase::Lookup(t + 1);
                } else {
                    // Not present: place into the emptier candidate bucket.
                    let fill = |k: &Self, ti: usize| {
                        let (bi, _, fi) = locate(k.salts, k.tables, k.view(), ti, h);
                        k.store_ro(ti, fi)
                            .bucket_keys(bi)
                            .iter()
                            .filter(|&&w| w != 0)
                            .count()
                    };
                    let target = if fill(self, 1) < fill(self, 0) { 1 } else { 0 };
                    warp.ops[leader].phase = InsPhase::Place(target);
                }
                ctx.atomic_exch_unlock(&mut self.store(t, in_fresh).locks, space, b);
                StepOutcome::Pending
            }

            InsPhase::Place(t) => {
                let (b, space, in_fresh) = locate(self.salts, self.tables, self.view(), t, h);
                if !ctx.atomic_cas_lock(&mut self.store(t, in_fresh).locks, space, b) {
                    warp.rr += 1; // revote
                    return StepOutcome::Pending;
                }
                // An empty slot is answerable from the fingerprint lane
                // alone (fps[s] == 0 ⟺ empty), so the gated layout reads
                // one fingerprint line here instead of the key lines.
                let empty = if self.store_ro(t, in_fresh).fp_active() {
                    self.layout.charge_fp_probe(ctx);
                    let store = self.store_ro(t, in_fresh);
                    let e = store.bucket_fps(b).iter().position(|&f| f == 0);
                    debug_assert_eq!(e, store.find_empty(b));
                    e
                } else {
                    self.layout.charge_probe(ctx);
                    self.store_ro(t, in_fresh).find_empty(b)
                };
                if let Some(slot) = empty {
                    let (kw, vw) = self.words_of(&op, ctx);
                    self.store(t, in_fresh).write_new(b, slot, kw, vw);
                    self.layout.charge_kv_write(ctx);
                    self.out.inserted += 1;
                    self.retire(&op, obs::OpOutcome::Inserted);
                    warp.active &= !(1 << leader);
                } else {
                    // Full bucket: evict a deterministic victim and carry
                    // its words to its other candidate subtable.
                    let slots = self.layout.slots;
                    let victim = (splitmix64(self.seed ^ op.salt ^ ((op.evictions as u64) << 32))
                        % slots as u64) as usize;
                    let (kw, vw) = self.words_of(&op, ctx);
                    let (ek, ev) = self.store(t, in_fresh).swap(b, victim, kw, vw);
                    self.layout.charge_kv_write(ctx);
                    ctx.metrics.charge(ChargeKind::Evictions, 1);
                    let lane = &mut warp.ops[leader];
                    lane.carried = Some((ek, ev, word_h48(ek)));
                    lane.evictions = op.evictions + 1;
                    lane.phase = InsPhase::Place(1 - t);
                    if lane.evictions >= self.eviction_limit {
                        let failed = *lane;
                        self.retire(&failed, obs::OpOutcome::Failed);
                        self.out
                            .failed
                            .push(failed.carried.expect("failed op carries words"));
                        warp.active &= !(1 << leader);
                    }
                }
                ctx.atomic_exch_unlock(&mut self.store(t, in_fresh).locks, space, b);
                StepOutcome::Pending
            }
        }
    }

    fn end_round(&mut self) {
        for t in self.tables.iter_mut() {
            t.locks.end_round();
        }
        if let Some((_, fresh)) = self.migration.as_mut() {
            fresh.locks.end_round();
        }
    }
}

// ---------------------------------------------------------------------------
// Delete kernel (leader-vote, one bucket lock per step).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct DelOp {
    idx: usize,
    t: usize,
}

struct DelWarp {
    ops: Vec<DelOp>,
    active: u32,
    rr: usize,
}

impl DelWarp {
    fn new(ops: Vec<DelOp>) -> Self {
        debug_assert!(ops.len() <= WARP_SIZE);
        let active = if ops.len() == 32 {
            u32::MAX
        } else {
            (1u32 << ops.len()) - 1
        };
        Self { ops, active, rr: 0 }
    }
}

struct DeleteKernel<'a> {
    tables: &'a mut [UnsizedStore; SUBTABLES],
    arena: &'a mut ByteArena,
    salts: &'a [u64; SUBTABLES],
    layout: LayoutConfig,
    migration: Option<(UView, &'a mut UnsizedStore)>,
    keys: &'a [&'a [u8]],
    queries: &'a [Query],
    removed: &'a mut [bool],
}

impl DeleteKernel<'_> {
    fn view(&self) -> Option<UView> {
        self.migration.as_ref().map(|(v, _)| *v)
    }

    fn store(&mut self, t: usize, in_fresh: bool) -> &mut UnsizedStore {
        if in_fresh {
            self.migration.as_mut().expect("fresh without migration").1
        } else {
            &mut self.tables[t]
        }
    }

    fn store_ro(&self, t: usize, in_fresh: bool) -> &UnsizedStore {
        if in_fresh {
            self.migration.as_ref().expect("fresh without migration").1
        } else {
            &self.tables[t]
        }
    }
}

impl RoundKernel<DelWarp> for DeleteKernel<'_> {
    fn step(&mut self, warp: &mut DelWarp, ctx: &mut RoundCtx) -> StepOutcome {
        let mask = ballot(|l| warp.active & (1 << l) != 0);
        if mask == 0 {
            return StepOutcome::Done;
        }
        let leader = nth_active_lane(mask, warp.rr);
        let op = warp.ops[leader];
        let q = self.queries[op.idx];
        let (b, space, in_fresh) = locate(self.salts, self.tables, self.view(), op.t, q.h48);
        if !ctx.atomic_cas_lock(&mut self.store(op.t, in_fresh).locks, space, b) {
            warp.rr += 1; // revote
            return StepOutcome::Pending;
        }
        let found = probe_match(
            self.store_ro(op.t, in_fresh),
            self.arena,
            &self.layout,
            b,
            &q,
            self.keys[op.idx],
            ctx,
        );
        if let Some(slot) = found {
            let (kw, vw) = self.store_ro(op.t, in_fresh).slot(b, slot);
            free_entry(self.arena, kw, vw);
            self.store(op.t, in_fresh).erase(b, slot);
            self.layout.charge_key_write(ctx);
            self.removed[op.idx] = true;
            if obs::is_enabled() {
                obs::emit(obs::Event::OpRetired {
                    kind: obs::OpKind::Delete,
                    op: op.idx as u64,
                    key: q.h48,
                    outcome: obs::OpOutcome::Deleted,
                    probes: op.t as u32 + 1,
                    evict_depth: 0,
                    lock_waits: 0,
                });
            }
            warp.active &= !(1 << leader);
        } else if op.t + 1 < SUBTABLES {
            warp.ops[leader].t += 1;
        } else {
            if obs::is_enabled() {
                obs::emit(obs::Event::OpRetired {
                    kind: obs::OpKind::Delete,
                    op: op.idx as u64,
                    key: q.h48,
                    outcome: obs::OpOutcome::Miss,
                    probes: SUBTABLES as u32,
                    evict_depth: 0,
                    lock_waits: 0,
                });
            }
            warp.active &= !(1 << leader);
        }
        ctx.atomic_exch_unlock(&mut self.store(op.t, in_fresh).locks, space, b);
        StepOutcome::Pending
    }

    fn end_round(&mut self) {
        for t in self.tables.iter_mut() {
            t.locks.end_round();
        }
        if let Some((_, fresh)) = self.migration.as_mut() {
            fresh.locks.end_round();
        }
    }
}

// ---------------------------------------------------------------------------
// Migration drain kernel: one warp per source bucket, re-homing blobs.
// ---------------------------------------------------------------------------

struct DrainWarp {
    src: usize,
}

struct DrainKernel<'a> {
    old: &'a mut UnsizedStore,
    fresh: &'a mut UnsizedStore,
    arena: &'a mut ByteArena,
    salt: u64,
    old_space: u32,
    fresh_space: u32,
    moved: u64,
    blob_bytes: u64,
}

impl DrainKernel<'_> {
    /// Move a blob to a fresh arena block: the "drain" of arena pages.
    /// Reading and rewriting the bytes is charged; the old block's page is
    /// released once its last blob moves out.
    fn rehome(&mut self, blob: SpillRef, ctx: &mut RoundCtx) -> SpillRef {
        charge_blob_read(ctx, blob.len);
        let bytes = self.arena.read(blob);
        self.arena.free(blob);
        charge_blob_write(ctx, blob.len);
        self.blob_bytes += blob.len as u64;
        self.arena.alloc(&bytes)
    }

    fn drain_bucket(&mut self, b: usize, ctx: &mut RoundCtx) {
        let drain = self.old.layout().drain_lines();
        let old_n = self.old.n_buckets();
        let new_n = self.fresh.n_buckets();
        for _ in 0..drain {
            ctx.read_line();
        }
        let (mut wrote_lo, mut wrote_hi, mut cleared) = (false, false, false);
        for s in 0..self.old.slots_per_bucket() {
            let (kw, vw) = self.old.slot(b, s);
            if kw == 0 {
                continue;
            }
            let h = word_h48(kw);
            let nb = bucket_of(self.salt, h, new_n);
            debug_assert!(
                nb == b || nb == b + old_n,
                "upsize moved key across buckets"
            );
            // Re-home spilled bytes so arena pages drain with the buckets.
            let kw = match decode_key(kw) {
                KeyRepr::Spill { fp, blob, h48 } => {
                    encode_spill_key(fp, self.rehome(blob, ctx), h48)
                }
                KeyRepr::Inline { .. } => kw,
            };
            let vw = match decode_val(vw) {
                ValRepr::Spill(blob) => encode_spill_val(self.rehome(blob, ctx)),
                ValRepr::Inline { .. } => vw,
            };
            let slot = self
                .fresh
                .find_empty(nb)
                .expect("doubled bucket cannot overflow");
            self.fresh.write_new(nb, slot, kw, vw);
            self.old.erase(b, s);
            self.moved += 1;
            cleared = true;
            if nb == b {
                wrote_lo = true;
            } else {
                wrote_hi = true;
            }
        }
        for _ in 0..drain * (wrote_lo as u64 + wrote_hi as u64) {
            ctx.write_line();
        }
        if cleared {
            ctx.write_line();
        }
    }
}

impl RoundKernel<DrainWarp> for DrainKernel<'_> {
    fn step(&mut self, w: &mut DrainWarp, ctx: &mut RoundCtx) -> StepOutcome {
        let b = w.src;
        let hi = b + self.old.n_buckets();
        if !ctx.atomic_cas_lock(&mut self.old.locks, self.old_space, b) {
            return StepOutcome::Pending;
        }
        if !ctx.atomic_cas_lock(&mut self.fresh.locks, self.fresh_space, b) {
            ctx.atomic_exch_unlock(&mut self.old.locks, self.old_space, b);
            return StepOutcome::Pending;
        }
        if !ctx.atomic_cas_lock(&mut self.fresh.locks, self.fresh_space, hi) {
            ctx.atomic_exch_unlock(&mut self.old.locks, self.old_space, b);
            ctx.atomic_exch_unlock(&mut self.fresh.locks, self.fresh_space, b);
            return StepOutcome::Pending;
        }
        self.drain_bucket(b, ctx);
        ctx.atomic_exch_unlock(&mut self.old.locks, self.old_space, b);
        ctx.atomic_exch_unlock(&mut self.fresh.locks, self.fresh_space, b);
        ctx.atomic_exch_unlock(&mut self.fresh.locks, self.fresh_space, hi);
        StepOutcome::Done
    }

    fn end_round(&mut self) {
        self.old.locks.end_round();
        self.fresh.locks.end_round();
    }
}

// ---------------------------------------------------------------------------
// The table.
// ---------------------------------------------------------------------------

/// A byte-string KV table over the unsized tier's slot encoding.
#[derive(Debug)]
pub struct UnsizedTable {
    cfg: UnsizedConfig,
    salts: [u64; SUBTABLES],
    tables: [UnsizedStore; SUBTABLES],
    arena: ByteArena,
    drain: Option<Drain>,
    /// Device bytes held, mirrored against `sim.device` at batch
    /// boundaries (see [`UnsizedTable::verify_integrity`]).
    ledger_bytes: u64,
    len: u64,
    op_counter: u64,
}

impl UnsizedTable {
    /// Create an empty table, allocating its subtables on the device.
    pub fn new(cfg: UnsizedConfig, sim: &mut SimContext) -> Result<Self> {
        cfg.validate()?;
        let mut tables = [
            UnsizedStore::new(cfg.n_buckets, cfg.layout),
            UnsizedStore::new(cfg.n_buckets, cfg.layout),
        ];
        for t in tables.iter_mut() {
            t.set_fp_fn(word_fp_hash);
        }
        let mut ledger_bytes = 0;
        for t in &tables {
            sim.device.alloc(t.device_bytes())?;
            ledger_bytes += t.device_bytes();
        }
        Ok(Self {
            salts: [
                splitmix64(cfg.seed),
                splitmix64(cfg.seed ^ 0x5EED_CAFE_F00D_D00D),
            ],
            tables,
            arena: ByteArena::new(cfg.page_bytes),
            drain: None,
            ledger_bytes,
            len: 0,
            op_counter: 0,
            cfg,
        })
    }

    /// The configuration the table was built with.
    pub fn config(&self) -> &UnsizedConfig {
        &self.cfg
    }

    /// Live entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots, counting the fresh side of an in-flight drain.
    pub fn capacity_slots(&self) -> u64 {
        self.tables.iter().map(|t| t.capacity_slots()).sum::<u64>()
            + self.drain.as_ref().map_or(0, |d| d.fresh.capacity_slots())
    }

    /// Overall filled factor.
    pub fn fill_factor(&self) -> f64 {
        self.len as f64 / self.capacity_slots() as f64
    }

    /// Device bytes held (buckets + locks + arena).
    pub fn device_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.device_bytes()).sum::<u64>()
            + self.drain.as_ref().map_or(0, |d| d.fresh.device_bytes())
            + self.arena.device_bytes()
    }

    /// Source buckets not yet drained (0 when idle).
    pub fn migration_backlog(&self) -> u64 {
        self.drain
            .as_ref()
            .map_or(0, |d| (d.span - d.cursor) as u64 + 1)
    }

    /// Whether an incremental migration is in flight.
    pub fn migration_in_flight(&self) -> bool {
        self.drain.is_some()
    }

    /// Observability snapshot.
    pub fn stats(&self) -> UnsizedStats {
        UnsizedStats {
            entries: self.len,
            capacity_slots: self.capacity_slots(),
            fill_factor: self.fill_factor(),
            arena_pages: self.arena.pages(),
            arena_live_bytes: self.arena.live_bytes(),
            arena_frag_bytes: self.arena.frag_bytes(),
            device_bytes: self.device_bytes(),
            migration_backlog: self.migration_backlog(),
        }
    }

    /// Free every device allocation this table holds.
    pub fn release(self, sim: &mut SimContext) -> Result<()> {
        sim.device.free(self.ledger_bytes)?;
        Ok(())
    }

    fn check_blobs<'k>(items: impl Iterator<Item = &'k [u8]>) -> Result<()> {
        for bytes in items {
            if bytes.len() > MAX_BLOB_LEN {
                return Err(Error::InvalidConfig(format!(
                    "byte string of {} bytes exceeds the {MAX_BLOB_LEN}-byte handle bound",
                    bytes.len()
                )));
            }
        }
        Ok(())
    }

    /// Reconcile the device allocation with the table's current footprint.
    /// Called at batch boundaries (arena churn happens inside kernels,
    /// where the device allocator is not reachable).
    fn sync_device(&mut self, sim: &mut SimContext) -> Result<()> {
        let target = self.device_bytes();
        if target > self.ledger_bytes {
            sim.device.alloc(target - self.ledger_bytes)?;
        } else if target < self.ledger_bytes {
            sim.device.free(self.ledger_bytes - target)?;
        }
        self.ledger_bytes = target;
        Ok(())
    }

    /// Give up on eviction chains that still carry words after the last
    /// allowed grow: free the arena bytes they reference, then recount
    /// `len` from the slots (a chain may carry a key placed earlier in the
    /// batch, or one that predates it, so the batch's own counters cannot
    /// say what the table holds) and sync the device ledger. The table
    /// stays consistent; the carried pairs are lost.
    fn abandon_failed(&mut self, sim: &mut SimContext, failed: &[(u128, u64, u64)]) -> Error {
        for &(kw, vw, _) in failed {
            free_entry(&mut self.arena, kw, vw);
        }
        self.len = self.tables.iter().map(|t| t.occupied()).sum::<u64>()
            + self.drain.as_ref().map_or(0, |d| d.fresh.occupied());
        if let Err(e) = self.sync_device(sim) {
            return e;
        }
        self.debug_verify("abandoned insert batch");
        Error::InsertStuck {
            failed_ops: failed.len(),
        }
    }

    /// Begin growing the fuller subtable (no-op if a drain is in flight).
    fn start_grow(&mut self, report: &mut UnsizedReport) {
        if self.drain.is_some() {
            return;
        }
        let t = if self.tables[1].occupied() > self.tables[0].occupied() {
            1
        } else {
            0
        };
        let old_n = self.tables[t].n_buckets();
        let mut fresh = UnsizedStore::new(old_n * 2, self.cfg.layout);
        fresh.set_fp_fn(word_fp_hash);
        self.drain = Some(Drain {
            table: t,
            fresh,
            cursor: 0,
            span: old_n,
        });
        report.resizes += 1;
    }

    /// Drain up to one quantum of source buckets; finalize when done.
    fn pump_quantum(&mut self, sim: &mut SimContext, report: &mut UnsizedReport) {
        let Some(drain) = self.drain.as_mut() else {
            return;
        };
        let quantum = self.cfg.migration_quantum.max(1);
        let end = drain.cursor.saturating_add(quantum).min(drain.span);
        let _attr = obs::attr::scope("maintenance/migrate");
        let recording = obs::is_enabled();
        if end > drain.cursor {
            if recording {
                obs::span_begin(obs::Event::MigrateChunkBegin {
                    grow: true,
                    table: drain.table as u8,
                    cursor: drain.cursor as u64,
                    chunk: (end - drain.cursor) as u64,
                });
            }
            let t = drain.table;
            let mut warps: Vec<DrainWarp> =
                (drain.cursor..end).map(|src| DrainWarp { src }).collect();
            let mut kernel = DrainKernel {
                old: &mut self.tables[t],
                fresh: &mut drain.fresh,
                arena: &mut self.arena,
                salt: self.salts[t],
                old_space: t as u32,
                fresh_space: FRESH_SPACE_BASE + t as u32,
                moved: 0,
                blob_bytes: 0,
            };
            while !warps.is_empty() {
                run_rounds_quantum(
                    &mut kernel,
                    &mut warps,
                    &mut sim.metrics,
                    self.cfg.schedule,
                    quantum.min(1 << 20) as u64,
                );
            }
            let moved = kernel.moved;
            report.migrated_kvs += moved;
            report.migrated_blob_bytes += kernel.blob_bytes;
            report.migrated_buckets += (end - drain.cursor) as u64;
            drain.cursor = end;
            let backlog = (drain.span - end) as u64;
            if recording {
                obs::span_end(obs::Event::MigrateChunkEnd {
                    moved,
                    residuals: 0,
                    backlog,
                });
            }
        }
        if self.drain.as_ref().is_some_and(|d| d.cursor == d.span) {
            let d = self.drain.take().expect("drain present");
            debug_assert_eq!(self.tables[d.table].occupied(), 0);
            self.tables[d.table] = d.fresh;
        }
    }

    /// Advance an in-flight migration by one quantum (the service tier's
    /// per-tick pump). No-op when idle.
    pub fn pump_migration(&mut self, sim: &mut SimContext) -> Result<UnsizedReport> {
        let mut report = UnsizedReport::default();
        self.pump_quantum(sim, &mut report);
        self.sync_device(sim)?;
        self.debug_verify("pump_migration");
        Ok(report)
    }

    fn run_insert_kernel(
        &mut self,
        sim: &mut SimContext,
        pairs: &[(&[u8], &[u8])],
        queries: &[Query],
        ops: Vec<InsOp>,
        rule: MergeRule,
        kind: obs::OpKind,
    ) -> InsOut {
        let mut warps: Vec<InsWarp> = pack_warps(ops).into_iter().map(InsWarp::new).collect();
        let migration = self.drain.as_mut().map(|d| (d.view(), &mut d.fresh));
        let mut kernel = InsertKernel {
            tables: &mut self.tables,
            arena: &mut self.arena,
            salts: &self.salts,
            layout: self.cfg.layout,
            eviction_limit: self.cfg.eviction_limit,
            seed: self.cfg.seed,
            migration,
            pairs,
            queries,
            rule,
            kind,
            out: InsOut::default(),
        };
        let recording = obs::is_enabled();
        let rounds_before = sim.metrics.rounds;
        if recording {
            obs::span_begin(obs::Event::LaunchBegin {
                kind,
                warps: warps.len() as u32,
            });
        }
        run_rounds_with(&mut kernel, &mut warps, &mut sim.metrics, self.cfg.schedule);
        if recording {
            obs::span_end(obs::Event::LaunchEnd {
                rounds: sim.metrics.rounds - rounds_before,
            });
        }
        kernel.out
    }

    /// Upsert a batch of byte-string pairs. Keys must be unique within the
    /// batch (the same contract the fixed tier's batches have).
    pub fn insert_batch(
        &mut self,
        sim: &mut SimContext,
        pairs: &[(&[u8], &[u8])],
    ) -> Result<UnsizedReport> {
        let _attr = obs::attr::scope("unsized/insert");
        self.rmw_batch(sim, pairs, MergeRule::LastWrite, obs::OpKind::Insert)
    }

    /// Read-modify-write a batch of byte-string `(key, arg)` pairs under
    /// `rule`: absent keys store `rule.initial_bytes(arg)`, present keys
    /// `rule.merge_bytes(old, arg)` inside the insert kernel's bucket-lock
    /// critical section. `Add`/`Count` treat values as 8-byte little-endian
    /// counters; `Max`/`Min` compare lexicographically.
    ///
    /// Unlike [`UnsizedTable::insert_batch`], duplicate keys within the
    /// batch are allowed: they are pre-coalesced in submission order into
    /// one kernel op per unique key (`Count` occurrences normalize to one
    /// `Add` of the occurrence count).
    pub fn upsert_batch(
        &mut self,
        sim: &mut SimContext,
        pairs: &[(&[u8], &[u8])],
        rule: MergeRule,
    ) -> Result<UnsizedReport> {
        let _attr = obs::attr::scope("unsized/upsert");
        let one = 1u64.to_le_bytes();
        let eff = match rule {
            MergeRule::Count => MergeRule::Add,
            r => r,
        };
        // Coalesce duplicates: fold each key's occurrences into one arg via
        // the rule's own merge (exact for every stock rule — see
        // `MergeRule::fold_args` for the u32 statement of the law).
        let mut entries: Vec<(&[u8], Vec<u8>)> = Vec::new();
        let mut index: std::collections::HashMap<&[u8], usize> = std::collections::HashMap::new();
        for &(k, v) in pairs {
            let arg: &[u8] = if rule == MergeRule::Count { &one } else { v };
            match index.entry(k) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let slot = &mut entries[*e.get()].1;
                    *slot = eff.merge_bytes(slot, arg);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(entries.len());
                    entries.push((k, arg.to_vec()));
                }
            }
        }
        let coalesced: Vec<(&[u8], &[u8])> =
            entries.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        self.rmw_batch(sim, &coalesced, eff, obs::OpKind::Upsert)
    }

    /// Counting-table special case: bump each key's 8-byte little-endian
    /// counter by its number of occurrences in the batch.
    pub fn increment_batch(
        &mut self,
        sim: &mut SimContext,
        keys: &[&[u8]],
    ) -> Result<UnsizedReport> {
        let pairs: Vec<(&[u8], &[u8])> = keys.iter().map(|&k| (k, &[][..])).collect();
        self.upsert_batch(sim, &pairs, MergeRule::Count)
    }

    fn rmw_batch(
        &mut self,
        sim: &mut SimContext,
        pairs: &[(&[u8], &[u8])],
        rule: MergeRule,
        kind: obs::OpKind,
    ) -> Result<UnsizedReport> {
        Self::check_blobs(pairs.iter().flat_map(|(k, v)| [*k, *v].into_iter()))?;
        sim.metrics.charge(ChargeKind::Ops, pairs.len() as u64);
        let queries: Vec<Query> = pairs.iter().map(|(k, _)| query(k)).collect();
        let base = self.op_counter;
        self.op_counter += pairs.len() as u64;
        let ops: Vec<InsOp> = (0..pairs.len())
            .map(|idx| InsOp {
                idx,
                salt: splitmix64(base + idx as u64),
                phase: InsPhase::Lookup(0),
                carried: None,
                evictions: 0,
            })
            .collect();
        let mut report = UnsizedReport::default();
        let mut out = self.run_insert_kernel(sim, pairs, &queries, ops, rule, kind);
        report.inserted += out.inserted;
        report.updated += out.updated;
        // Insertion failure triggers upsizing; retries ride the drain as it
        // advances (stop-the-world with the default infinite quantum).
        while !out.failed.is_empty() {
            if self.drain.is_none() {
                if report.resizes >= MAX_RESIZES_PER_BATCH {
                    return Err(self.abandon_failed(sim, &out.failed));
                }
                self.start_grow(&mut report);
            }
            self.pump_quantum(sim, &mut report);
            report.retries += out.failed.len() as u64;
            let retry_ops: Vec<InsOp> = out
                .failed
                .iter()
                .enumerate()
                .map(|(i, &(kw, vw, h))| InsOp {
                    idx: 0,
                    salt: splitmix64(self.op_counter + i as u64) ^ 0x5245_5452_59A5_A5A5,
                    phase: InsPhase::Place(0),
                    carried: Some((kw, vw, h)),
                    evictions: 0,
                })
                .collect();
            self.op_counter += out.failed.len() as u64;
            out = self.run_insert_kernel(sim, pairs, &queries, retry_ops, rule, kind);
            report.inserted += out.inserted;
            report.updated += out.updated;
        }
        self.len += report.inserted;
        // Proactive growth keeps the filled factor under the bound; an
        // already-running drain advances one quantum per batch instead.
        if self.drain.is_none() {
            if self.fill_factor() > self.cfg.max_load {
                self.start_grow(&mut report);
                self.pump_quantum(sim, &mut report);
            }
        } else {
            self.pump_quantum(sim, &mut report);
        }
        self.sync_device(sim)?;
        self.debug_verify("rmw_batch");
        Ok(report)
    }

    /// Look up a batch of keys, returning each value's bytes if present.
    pub fn find_batch(
        &mut self,
        sim: &mut SimContext,
        keys: &[&[u8]],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        Self::check_blobs(keys.iter().copied())?;
        let _attr = obs::attr::scope("unsized/find");
        sim.metrics.charge(ChargeKind::Ops, keys.len() as u64);
        let queries: Vec<Query> = keys.iter().map(|k| query(k)).collect();
        let mut results: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        let mut warps: Vec<FindWarp> = (0..keys.len())
            .collect::<Vec<_>>()
            .chunks(WARP_SIZE)
            .map(|chunk| FindWarp {
                idxs: chunk.to_vec(),
                cur: 0,
                cand: 0,
            })
            .collect();
        let migration = self.drain.as_ref().map(|d| (d.view(), &d.fresh));
        let mut kernel = FindKernel {
            tables: &self.tables,
            arena: &self.arena,
            salts: &self.salts,
            layout: self.cfg.layout,
            migration,
            keys,
            queries: &queries,
            results: &mut results,
        };
        let recording = obs::is_enabled();
        let rounds_before = sim.metrics.rounds;
        if recording {
            obs::span_begin(obs::Event::LaunchBegin {
                kind: obs::OpKind::Find,
                warps: warps.len() as u32,
            });
        }
        run_rounds_with(&mut kernel, &mut warps, &mut sim.metrics, self.cfg.schedule);
        if recording {
            obs::span_end(obs::Event::LaunchEnd {
                rounds: sim.metrics.rounds - rounds_before,
            });
        }
        Ok(results)
    }

    /// Delete a batch of keys. Returns which were present, plus the batch
    /// report.
    pub fn delete_batch(
        &mut self,
        sim: &mut SimContext,
        keys: &[&[u8]],
    ) -> Result<(Vec<bool>, UnsizedReport)> {
        Self::check_blobs(keys.iter().copied())?;
        let _attr = obs::attr::scope("unsized/delete");
        sim.metrics.charge(ChargeKind::Ops, keys.len() as u64);
        let queries: Vec<Query> = keys.iter().map(|k| query(k)).collect();
        let mut removed = vec![false; keys.len()];
        let ops: Vec<DelOp> = (0..keys.len()).map(|idx| DelOp { idx, t: 0 }).collect();
        let mut warps: Vec<DelWarp> = pack_warps(ops).into_iter().map(DelWarp::new).collect();
        let migration = self.drain.as_mut().map(|d| (d.view(), &mut d.fresh));
        let mut kernel = DeleteKernel {
            tables: &mut self.tables,
            arena: &mut self.arena,
            salts: &self.salts,
            layout: self.cfg.layout,
            migration,
            keys,
            queries: &queries,
            removed: &mut removed,
        };
        let recording = obs::is_enabled();
        let rounds_before = sim.metrics.rounds;
        if recording {
            obs::span_begin(obs::Event::LaunchBegin {
                kind: obs::OpKind::Delete,
                warps: warps.len() as u32,
            });
        }
        run_rounds_with(&mut kernel, &mut warps, &mut sim.metrics, self.cfg.schedule);
        if recording {
            obs::span_end(obs::Event::LaunchEnd {
                rounds: sim.metrics.rounds - rounds_before,
            });
        }
        let mut report = UnsizedReport {
            deleted: removed.iter().filter(|&&r| r).count() as u64,
            ..UnsizedReport::default()
        };
        self.len -= report.deleted;
        if self.drain.is_some() {
            self.pump_quantum(sim, &mut report);
        }
        self.sync_device(sim)?;
        self.debug_verify("delete_batch");
        Ok((removed, report))
    }

    /// Single-pair upsert convenience.
    pub fn put(&mut self, sim: &mut SimContext, key: &[u8], val: &[u8]) -> Result<UnsizedReport> {
        self.insert_batch(sim, &[(key, val)])
    }

    /// Single-key lookup convenience.
    pub fn get(&mut self, sim: &mut SimContext, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.find_batch(sim, &[key])?.pop().expect("one result"))
    }

    /// Single-key delete convenience.
    pub fn delete(&mut self, sim: &mut SimContext, key: &[u8]) -> Result<bool> {
        let (removed, _) = self.delete_batch(sim, &[key])?;
        Ok(removed[0])
    }

    /// Verify every structural invariant: ledger vs layout-derived bytes,
    /// occupancy counts, word well-formedness, arena accounting against
    /// the live handle set, and candidate-bucket residency (honouring the
    /// drain cursor).
    pub fn verify_integrity(&self) -> std::result::Result<(), String> {
        if self.ledger_bytes != self.device_bytes() {
            return Err(format!(
                "ledger {} != layout-derived device bytes {}",
                self.ledger_bytes,
                self.device_bytes()
            ));
        }
        let view = self.drain.as_ref().map(|d| d.view());
        let mut live = 0u64;
        let mut refs: Vec<SpillRef> = Vec::new();
        let mut check_store =
            |store: &UnsizedStore, t: usize, in_fresh: bool| -> std::result::Result<u64, String> {
                if store.occupied() != store.recount() {
                    return Err(format!(
                        "occupancy drift in subtable {t} (fresh={in_fresh})"
                    ));
                }
                for b in 0..store.n_buckets() {
                    for (s, &kw) in store.bucket_keys(b).iter().enumerate() {
                        if kw == 0 {
                            continue;
                        }
                        let tag = (kw & 0xFF) as u8;
                        if tag != SPILL_TAG && tag as usize > INLINE_KEY_MAX + 1 {
                            return Err(format!("malformed key tag {tag:#x} at t{t} b{b} s{s}"));
                        }
                        let vw = store.bucket_vals(b)[s];
                        let vtag = (vw & 0xFF) as u8;
                        if vtag == 0 || (vtag != SPILL_TAG && vtag as usize > INLINE_VAL_MAX + 1) {
                            return Err(format!("malformed value tag {vtag:#x} at t{t} b{b} s{s}"));
                        }
                        if let Some(blob) = decode_key(kw).spill() {
                            refs.push(blob);
                        }
                        if let Some(blob) = decode_val(vw).spill() {
                            refs.push(blob);
                        }
                        // Residency: the slot word must map to this bucket.
                        let h = word_h48(kw);
                        let (eb, _, ef) = locate(&self.salts, &self.tables, view, t, h);
                        if eb != b || ef != in_fresh {
                            return Err(format!(
                                "key at t{t} b{b} s{s} routed to b{eb} (fresh={ef})"
                            ));
                        }
                    }
                }
                Ok(store.occupied())
            };
        for (t, store) in self.tables.iter().enumerate() {
            live += check_store(store, t, false)?;
        }
        if let Some(d) = &self.drain {
            live += check_store(&d.fresh, d.table, true)?;
            // Drained source buckets must be empty.
            for b in 0..d.cursor {
                if self.tables[d.table].bucket_keys(b).iter().any(|&w| w != 0) {
                    return Err(format!(
                        "drained bucket {b} of subtable {} not empty",
                        d.table
                    ));
                }
            }
        }
        if live != self.len {
            return Err(format!("len {} != live slots {live}", self.len));
        }
        self.arena.verify(&refs)
    }

    /// Panic (debug builds only) if any invariant broke after a batch.
    fn debug_verify(&self, when: &str) {
        if cfg!(debug_assertions) {
            if let Err(e) = self.verify_integrity() {
                panic!("integrity violation after {when}: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(tag: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (splitmix64(tag.wrapping_mul(0x9E37) ^ i as u64) & 0xFF) as u8)
            .collect()
    }

    fn as_refs(pairs: &[(Vec<u8>, Vec<u8>)]) -> Vec<(&[u8], &[u8])> {
        pairs
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect()
    }

    #[test]
    fn round_trips_inline_and_spilled_pairs() {
        let mut sim = SimContext::new();
        let mut t = UnsizedTable::new(UnsizedConfig::default(), &mut sim).unwrap();
        // Key lengths straddle the inline bound (12) on both sides; value
        // lengths straddle theirs (7). One empty key and empty values too.
        let key_lens = [0usize, 1, 7, 11, 12, 13, 20, 64, 200, 1000];
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = key_lens
            .iter()
            .enumerate()
            .map(|(i, &kl)| (blob(i as u64 + 1, kl), blob(i as u64 + 100, (kl * 3) % 37)))
            .collect();
        let refs = as_refs(&pairs);
        let rep = t.insert_batch(&mut sim, &refs).unwrap();
        assert_eq!(rep.inserted, pairs.len() as u64);
        assert_eq!(t.len(), pairs.len() as u64);

        let keys: Vec<&[u8]> = pairs.iter().map(|(k, _)| k.as_slice()).collect();
        let found = t.find_batch(&mut sim, &keys).unwrap();
        for ((k, v), got) in pairs.iter().zip(found.iter()) {
            assert_eq!(got.as_deref(), Some(v.as_slice()), "key len {}", k.len());
        }
        assert_eq!(t.get(&mut sim, b"not present").unwrap(), None);
        t.verify_integrity().unwrap();
        assert_eq!(sim.device.allocated_bytes(), t.device_bytes());
        t.release(&mut sim).unwrap();
        assert_eq!(sim.device.allocated_bytes(), 0);
    }

    #[test]
    fn upsert_transitions_between_inline_and_spilled_values() {
        let mut sim = SimContext::new();
        let mut t = UnsizedTable::new(UnsizedConfig::default(), &mut sim).unwrap();
        let key = blob(7, 40); // spilled key: its bytes stay put across upserts
        let big = blob(8, 300);
        let small = b"tiny".to_vec();

        t.put(&mut sim, &key, &big).unwrap();
        let spilled = t.stats().arena_live_bytes;
        assert_eq!(spilled, (key.len() + big.len()) as u64);

        let rep = t.put(&mut sim, &key, &small).unwrap();
        assert_eq!((rep.inserted, rep.updated), (0, 1));
        assert_eq!(t.get(&mut sim, &key).unwrap().as_deref(), Some(&small[..]));
        // The old value's 300 bytes were freed; the new one is inline.
        assert_eq!(t.stats().arena_live_bytes, key.len() as u64);
        assert_eq!(t.len(), 1);

        t.put(&mut sim, &key, &big).unwrap();
        assert_eq!(t.get(&mut sim, &key).unwrap().as_deref(), Some(&big[..]));
        t.verify_integrity().unwrap();
    }

    #[test]
    fn delete_returns_presence_and_releases_arena_bytes() {
        let mut sim = SimContext::new();
        let mut t = UnsizedTable::new(UnsizedConfig::default(), &mut sim).unwrap();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..40u64)
            .map(|i| (blob(i + 1, 30), blob(i + 500, 90)))
            .collect();
        let refs = as_refs(&pairs);
        t.insert_batch(&mut sim, &refs).unwrap();
        assert!(t.stats().arena_live_bytes > 0);

        let keys: Vec<&[u8]> = pairs.iter().map(|(k, _)| k.as_slice()).collect();
        let (removed, rep) = t.delete_batch(&mut sim, &keys).unwrap();
        assert!(removed.iter().all(|&r| r));
        assert_eq!(rep.deleted, 40);
        assert_eq!(t.len(), 0);
        assert_eq!(t.stats().arena_live_bytes, 0);
        assert!(
            !t.delete(&mut sim, &pairs[0].0).unwrap(),
            "double delete misses"
        );
        t.verify_integrity().unwrap();
        assert_eq!(sim.device.allocated_bytes(), t.device_bytes());
    }

    #[test]
    fn insert_pressure_grows_the_table() {
        let mut sim = SimContext::new();
        let cfg = UnsizedConfig {
            n_buckets: 2,
            ..UnsizedConfig::default()
        };
        let mut t = UnsizedTable::new(cfg, &mut sim).unwrap();
        let start_slots = t.capacity_slots();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..300u64)
            .map(|i| (blob(i + 1, 5 + (i as usize % 25)), blob(i + 900, 10)))
            .collect();
        let mut resizes = 0;
        for chunk in pairs.chunks(32) {
            let refs = as_refs(chunk);
            resizes += t.insert_batch(&mut sim, &refs).unwrap().resizes;
        }
        assert!(resizes >= 1, "300 keys into 32 slots must upsize");
        assert!(t.capacity_slots() > start_slots);
        assert!(t.fill_factor() <= t.config().max_load + 1e-9);
        let keys: Vec<&[u8]> = pairs.iter().map(|(k, _)| k.as_slice()).collect();
        for (got, (_, v)) in t
            .find_batch(&mut sim, &keys)
            .unwrap()
            .iter()
            .zip(pairs.iter())
        {
            assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        t.verify_integrity().unwrap();
    }

    #[test]
    fn incremental_migration_serves_operations_mid_drain() {
        let mut sim = SimContext::new();
        let cfg = UnsizedConfig {
            n_buckets: 8,
            migration_quantum: 1,
            max_load: 0.5,
            ..UnsizedConfig::default()
        };
        let mut t = UnsizedTable::new(cfg, &mut sim).unwrap();
        // All keys/values spill, so migration must re-home arena bytes.
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..160u64)
            .map(|i| (blob(i + 1, 24), blob(i + 700, 40)))
            .collect();
        let refs = as_refs(&pairs);
        let mut rep = t.insert_batch(&mut sim, &refs).unwrap();
        assert!(
            t.migration_in_flight(),
            "load factor 0.5 with quantum 1 leaves a drain running"
        );

        // Mid-drain: lookups, upserts and deletes all route around the cursor
        // (debug_verify checks residency after every batch).
        let mut checked_mid_drain = false;
        let mut i = 0usize;
        while t.migration_in_flight() {
            let (k, v) = &pairs[i % pairs.len()];
            match i % 3 {
                0 => assert_eq!(t.get(&mut sim, k).unwrap().as_deref(), Some(v.as_slice())),
                1 => {
                    rep.merge(&t.put(&mut sim, k, b"replacement-value-bytes").unwrap());
                    rep.merge(&t.put(&mut sim, k, v).unwrap());
                }
                _ => {
                    assert!(t.delete(&mut sim, k).unwrap());
                    rep.merge(&t.put(&mut sim, k, v).unwrap());
                }
            }
            checked_mid_drain = true;
            i += 1;
            rep.merge(&t.pump_migration(&mut sim).unwrap());
        }
        assert!(checked_mid_drain);
        assert!(rep.migrated_kvs > 0);
        assert!(
            rep.migrated_blob_bytes > 0,
            "spilled bytes must be re-homed by the drain"
        );
        assert_eq!(t.migration_backlog(), 0);
        let keys: Vec<&[u8]> = pairs.iter().map(|(k, _)| k.as_slice()).collect();
        for (got, (_, v)) in t
            .find_batch(&mut sim, &keys)
            .unwrap()
            .iter()
            .zip(pairs.iter())
        {
            assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        t.verify_integrity().unwrap();
        assert_eq!(sim.device.allocated_bytes(), t.device_bytes());
    }

    #[test]
    fn oversized_blobs_are_rejected_without_side_effects() {
        let mut sim = SimContext::new();
        let mut t = UnsizedTable::new(UnsizedConfig::default(), &mut sim).unwrap();
        let huge = vec![0u8; MAX_BLOB_LEN + 1];
        assert!(t.put(&mut sim, &huge, b"v").is_err());
        assert!(t.put(&mut sim, b"k", &huge).is_err());
        assert_eq!(t.len(), 0);
        t.verify_integrity().unwrap();
    }

    /// Insert `n` distinct 12-byte keys in one batch that must give up
    /// with `InsertStuck`, then check that `len`, the arena and the device
    /// ledger agree with what the table holds.
    fn check_stuck_batch(cfg: UnsizedConfig, n: usize, spill: bool) {
        let keys: Vec<Vec<u8>> = (0..n).map(|i| format!("k{i:011}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        // Spilled values (the key bytes) make abandoned chains carry arena
        // blobs too.
        let pairs: Vec<(&[u8], &[u8])> = refs
            .iter()
            .map(|&k| (k, if spill { k } else { &b"v"[..] }))
            .collect();
        let mut sim = SimContext::new();
        let mut t = UnsizedTable::new(cfg, &mut sim).unwrap();
        let err = t.insert_batch(&mut sim, &pairs).unwrap_err();
        assert!(matches!(err, Error::InsertStuck { .. }), "{err}");
        let found = t.find_batch(&mut sim, &refs).unwrap();
        let held = found.iter().filter(|f| f.is_some()).count() as u64;
        assert!(held > 0);
        assert_eq!(t.len(), held, "len must count what the table holds");
        t.verify_integrity().unwrap();
        assert_eq!(sim.device.allocated_bytes(), t.device_bytes());
    }

    #[test]
    fn stuck_insert_batch_leaves_counters_consistent() {
        // 10,000 keys into a default table: 159 chains are abandoned.
        check_stuck_batch(UnsizedConfig::default(), 10_000, false);
        let small = UnsizedConfig {
            n_buckets: 1,
            eviction_limit: 1,
            ..UnsizedConfig::default()
        };
        check_stuck_batch(small, 1_000, true);
    }

    #[test]
    fn config_validation_rejects_bad_geometry() {
        let sim = &mut SimContext::new();
        let bad_layout = UnsizedConfig {
            layout: LayoutConfig::soa(8, 4, 4),
            ..UnsizedConfig::default()
        };
        assert!(UnsizedTable::new(bad_layout, sim).is_err());
        let bad_page = UnsizedConfig {
            page_bytes: 12,
            ..UnsizedConfig::default()
        };
        assert!(UnsizedTable::new(bad_page, sim).is_err());
        assert_eq!(sim.device.allocated_bytes(), 0);
    }

    #[test]
    fn probe_cost_matches_the_fixed_tier_for_inline_keys() {
        // The whole point of the 16-byte slot word: 8 slots × 16 B = one
        // 128-byte key line, so an all-inline probe costs exactly what the
        // u32 tier's probe does.
        let mut sim = SimContext::new();
        let mut t = UnsizedTable::new(UnsizedConfig::default(), &mut sim).unwrap();
        t.put(&mut sim, b"inline-key", b"val").unwrap();
        sim.take_metrics();
        t.get(&mut sim, b"absent-key!").unwrap();
        let m = sim.take_metrics();
        // One probe per candidate subtable, one line each, no arena traffic.
        assert_eq!(m.read_transactions, SUBTABLES as u64);
        assert_eq!(m.lookups, SUBTABLES as u64);
        assert_eq!(m.random_read_transactions, 0);
    }
}
