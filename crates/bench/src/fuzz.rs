//! Schedule-exploration fuzzing: differential oracle, shrinker and repro
//! artifacts over every scheme in the repository.
//!
//! The exploration stack has three pieces:
//!
//! 1. **Workload generator** ([`gen_ops`]) — a deterministic stream of
//!    single-key operations drawn from a small hot key range (contention)
//!    plus periodic wide-range insert bursts and delete bursts (upsize /
//!    downsize pressure, so schedules interleave with resizing).
//! 2. **Differential oracle** ([`run_case`]) — executes a [`Case`] (target
//!    scheme, schedule policy, op sequence) and checks every batch against
//!    a reference `HashMap`: finds must return exactly the reference value,
//!    deletes must erase exactly the reference count, and after the final
//!    batch the whole table contents and length must match. Because every
//!    scheme upserts and the generator never puts two copies of one key in
//!    a single insert batch, the reference semantics are exact under *any*
//!    schedule — a mismatch is a real linearizability violation, not an
//!    artifact of reordering.
//! 3. **Shrinker + repro** ([`shrink_case`], [`Repro`]) — on a violation,
//!    ddmin ([`gpu_sim::shrink_ops`]) minimizes the op sequence while the
//!    oracle keeps failing (policy and seeds held fixed), and the result is
//!    serialized as a `repro-*.ron` artifact that `schedule_fuzz --replay`
//!    (and [`Repro::from_ron`]) can re-execute bit-identically.
//!
//! Everything here is deterministic: a (workload seed, schedule policy)
//! pair always produces the same ops, the same interleavings and the same
//! verdict, so a discovered failure is a committable regression test.

use std::collections::{HashMap, HashSet};
use std::fmt;

use baselines::{
    Cudpp, DyCuckooTable, GpuHashTable, LinearProbing, MegaKv, ResizeBounds, SlabHash,
};
use dycuckoo::{
    Config, DupPolicy, MergeRule, ParTable, UnsizedConfig, UnsizedTable, WideDyCuckoo, Word,
};
use gpu_sim::explore::mix64;
use gpu_sim::{LayoutConfig, SchedulePolicy, SimContext};
use kv_service::{Backend, KvService, Op, Reply, ServiceConfig, Tier};
use workloads::LengthDist;

/// Which implementation a fuzz case drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// The DyCuckoo core behind the baseline adapter.
    DyCuckoo,
    /// The 64-bit wide-entry variant.
    WideDyCuckoo,
    /// MegaKV bucketized cuckoo baseline.
    MegaKv,
    /// SlabHash chaining baseline.
    SlabHash,
    /// Linear-probing baseline.
    LinearProbing,
    /// CUDPP cuckoo baseline (no deletes — the oracle skips them).
    Cudpp,
    /// The sharded batching service layer over DyCuckoo.
    KvService,
}

impl Target {
    /// Every fuzzable target, in the order the driver sweeps them.
    pub const ALL: [Target; 7] = [
        Target::DyCuckoo,
        Target::WideDyCuckoo,
        Target::MegaKv,
        Target::SlabHash,
        Target::LinearProbing,
        Target::Cudpp,
        Target::KvService,
    ];

    /// CLI / artifact name.
    pub fn name(self) -> &'static str {
        match self {
            Target::DyCuckoo => "dycuckoo",
            Target::WideDyCuckoo => "wide",
            Target::MegaKv => "megakv",
            Target::SlabHash => "slab",
            Target::LinearProbing => "linear",
            Target::Cudpp => "cudpp",
            Target::KvService => "service",
        }
    }

    /// Inverse of [`Target::name`].
    pub fn from_name(name: &str) -> Option<Target> {
        Target::ALL.into_iter().find(|t| t.name() == name)
    }
}

/// One single-key operation of a fuzz workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzOp {
    /// Upsert `key -> val`.
    Insert(u32, u32),
    /// Look `key` up.
    Find(u32),
    /// Erase `key`.
    Delete(u32),
    /// Read-modify-write `key` with `arg` under a merge rule. Only the
    /// RMW-armed generator ([`gen_ops_rmw`]) emits these, so the historical
    /// seed sweep — and its pinned digests — never sees them.
    Upsert(u32, u32, MergeRule),
    /// Counting-table increment (`Upsert` under [`MergeRule::Count`]),
    /// driven through the dedicated `increment_batch` entry points.
    Increment(u32),
}

/// A replayable fuzz case: everything needed to re-run one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// The scheme under test.
    pub target: Target,
    /// Warp / shard scheduling policy for the whole execution.
    pub policy: SchedulePolicy,
    /// Seed the workload (and table hash seeds) derive from.
    pub workload_seed: u64,
    /// Enable the planted lock-elision bug (DyCuckoo targets only).
    pub inject_lock_elision: bool,
    /// Bucket layout for the targets that support sweeping it (DyCuckoo,
    /// MegaKV, the service's shard tables; the wide table maps the same
    /// scheme × width onto its 8-byte words). The word sizes in this field
    /// are 4/4 — per-target runners substitute their own.
    pub layout: LayoutConfig,
    /// Source buckets a structural resize may drain per migration quantum.
    /// `usize::MAX` (the default sweep) keeps stop-the-world resizes; a
    /// finite value engages the incremental migration machine on the
    /// DyCuckoo, wide and service targets — so the oracle checks every
    /// operation *mid-migration*.
    pub migration_quantum: usize,
    /// Which table tier the case drives. [`Tier::Fixed`] (the default and
    /// the historical shape) runs the per-target u32 oracles above;
    /// [`Tier::Unsized`] widens the same op stream into byte-string
    /// keys/values and drives a [`dycuckoo::UnsizedTable`] against a
    /// `HashMap<Vec<u8>, Vec<u8>>` reference (the `target` field is
    /// recorded in the artifact but does not select a runner).
    pub tier: Tier,
    /// Key-length distribution used to widen u32 keys into byte strings
    /// when `tier` is unsized (ignored by the fixed tier). Repro artifacts
    /// carry the stock distribution names.
    pub key_dist: LengthDist,
    /// Fingerprint-lane width forced onto the DyCuckoo-family layouts
    /// (core, wide, unsized, and the service's shard tables): 0 — the
    /// default and the historical shape — leaves `layout` untouched, 8/16
    /// overrides its `fp_bits` so every probe is fingerprint-gated. The
    /// oracle is gate-blind: results must stay reference-identical, and
    /// (because a gate charges lines, never lookups or rounds) digests
    /// must match the ungated run bit-for-bit.
    pub fingerprint: u8,
    /// Arm the service target's per-shard cuckoo-filter miss shield
    /// (8-bit tags). Shed gets must still produce reference-exact
    /// replies; non-service targets ignore the flag.
    pub miss_filter: bool,
    /// Run the host-par differential alongside the sim execution with this
    /// many OS threads. `0` — the default and the historical shape —
    /// disables it and leaves every digest untouched. Nonzero on a
    /// fixed-tier table target mirrors every batch into a
    /// [`dycuckoo::ParTable`] and requires the final logical map to match
    /// the reference exactly (the sim run already matched it, so this is a
    /// sim-vs-host-par differential by transitivity); on the service
    /// target the whole case re-runs under `Backend::HostPar` and its
    /// digest must equal the `Backend::Sim` digest bit-for-bit. The
    /// returned digest is always the sim execution's, so pinned values
    /// never move.
    pub host_par_threads: usize,
    /// The operation sequence.
    pub ops: Vec<FuzzOp>,
}

/// An oracle mismatch: what diverged from the reference model, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl Violation {
    fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Deterministic fingerprint of a passing execution: folds the schedule-
/// sensitive metrics (rounds, lock failures) with the final table length,
/// so two runs of one case agree on the digest iff the executions were
/// bit-identical.
pub type Digest = u64;

fn fold(digest: Digest, x: u64) -> Digest {
    mix64(digest ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

/// Keys the hot range draws from (small: forces bucket contention).
const HOT_KEYS: u64 = 192;
/// Keys the burst range draws from (wide: forces upsizes).
const WIDE_KEYS: u64 = 4096;

struct Rng {
    s: u64,
}

impl Rng {
    fn new(seed: u64) -> Self {
        Self {
            s: mix64(seed ^ 0x5EED_F00D),
        }
    }

    fn next(&mut self) -> u64 {
        self.s = self.s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.s)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A deterministic op sequence for `seed`: mostly hot-range single ops with
/// occasional wide-range insert bursts (resize-overlap pressure) and delete
/// bursts (downsize pressure).
pub fn gen_ops(seed: u64, n: usize) -> Vec<FuzzOp> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::with_capacity(n);
    let any_key = |rng: &mut Rng| -> u32 {
        let wide = rng.below(4) == 0;
        let range = if wide { WIDE_KEYS } else { HOT_KEYS };
        1 + rng.below(range) as u32
    };
    while ops.len() < n {
        let val = |rng: &mut Rng| ((rng.next() as u32) & 0x00FF_FFFF) | 1;
        match rng.below(100) {
            // Upsize burst: a run of wide-range inserts in one window.
            0..=7 => {
                for _ in 0..(n - ops.len()).min(24) {
                    let k = 1 + rng.below(WIDE_KEYS) as u32;
                    let v = val(&mut rng);
                    ops.push(FuzzOp::Insert(k, v));
                }
            }
            // Downsize burst: a run of deletes.
            8..=13 => {
                for _ in 0..(n - ops.len()).min(16) {
                    let k = any_key(&mut rng);
                    ops.push(FuzzOp::Delete(k));
                }
            }
            14..=58 => {
                let k = 1 + rng.below(HOT_KEYS) as u32;
                let v = val(&mut rng);
                ops.push(FuzzOp::Insert(k, v));
            }
            59..=83 => ops.push(FuzzOp::Find(any_key(&mut rng))),
            _ => ops.push(FuzzOp::Delete(any_key(&mut rng))),
        }
    }
    ops.truncate(n);
    ops
}

/// The RMW-armed generator: the same deterministic stream shape as
/// [`gen_ops`] plus upserts (rules cycling through [`MergeRule::ALL`]) and
/// increments on the hot range — merge chains build up on contended keys,
/// which is exactly where voter-claim and eviction races would surface.
/// A separate function (rather than a flag on `gen_ops`) so the historical
/// sweep's op streams, and therefore its pinned digests, stay bit-identical.
pub fn gen_ops_rmw(seed: u64, n: usize) -> Vec<FuzzOp> {
    let mut rng = Rng::new(seed ^ 0x52_4D57);
    let mut ops = Vec::with_capacity(n);
    let any_key = |rng: &mut Rng| -> u32 {
        let wide = rng.below(4) == 0;
        let range = if wide { WIDE_KEYS } else { HOT_KEYS };
        1 + rng.below(range) as u32
    };
    while ops.len() < n {
        let val = |rng: &mut Rng| ((rng.next() as u32) & 0x00FF_FFFF) | 1;
        match rng.below(100) {
            0..=5 => {
                for _ in 0..(n - ops.len()).min(24) {
                    let k = 1 + rng.below(WIDE_KEYS) as u32;
                    let v = val(&mut rng);
                    ops.push(FuzzOp::Insert(k, v));
                }
            }
            6..=10 => {
                for _ in 0..(n - ops.len()).min(16) {
                    let k = any_key(&mut rng);
                    ops.push(FuzzOp::Delete(k));
                }
            }
            11..=35 => {
                let k = 1 + rng.below(HOT_KEYS) as u32;
                let v = val(&mut rng);
                ops.push(FuzzOp::Insert(k, v));
            }
            // Upsert burst on the hot range: one rule per burst, so the
            // batcher folds consecutive ops into a single RMW kernel with
            // plenty of intra-batch duplicate keys to pre-coalesce.
            36..=50 => {
                let rule = MergeRule::ALL[rng.below(MergeRule::ALL.len() as u64) as usize];
                for _ in 0..(n - ops.len()).min(12) {
                    let k = 1 + rng.below(HOT_KEYS) as u32;
                    ops.push(FuzzOp::Upsert(k, val(&mut rng), rule));
                }
            }
            51..=62 => ops.push(FuzzOp::Increment(1 + rng.below(HOT_KEYS) as u32)),
            63..=85 => ops.push(FuzzOp::Find(any_key(&mut rng))),
            _ => ops.push(FuzzOp::Delete(any_key(&mut rng))),
        }
    }
    ops.truncate(n);
    ops
}

// ---------------------------------------------------------------------------
// Batching
// ---------------------------------------------------------------------------

/// Consecutive same-kind ops execute as one kernel batch (capped), which is
/// how the batched APIs are actually driven. An insert batch is cut before
/// a duplicate key would enter it: duplicate keys *within* one batch race
/// for last-write-wins under reordering, which would make the reference
/// model schedule-dependent and the oracle vacuous. Upsert batches have no
/// such cut — the engines pre-coalesce duplicate keys in submission order
/// before the kernel launches, so the reference (apply ops in submission
/// order) is exact under any schedule, and letting duplicates through is
/// precisely what exercises that pre-coalescing path.
enum Batch {
    Insert(Vec<(u32, u32)>),
    Find(Vec<u32>),
    Delete(Vec<u32>),
    Upsert(Vec<(u32, u32)>, MergeRule),
    Increment(Vec<u32>),
}

const MAX_KERNEL_BATCH: usize = 48;

fn batches(ops: &[FuzzOp]) -> Vec<Batch> {
    let mut out: Vec<Batch> = Vec::new();
    let mut in_batch: HashSet<u32> = HashSet::new();
    for &op in ops {
        let fits = match (&op, out.last_mut()) {
            (FuzzOp::Insert(k, _), Some(Batch::Insert(kvs))) => {
                kvs.len() < MAX_KERNEL_BATCH && !in_batch.contains(k)
            }
            (FuzzOp::Find(_), Some(Batch::Find(ks))) => ks.len() < MAX_KERNEL_BATCH,
            (FuzzOp::Delete(_), Some(Batch::Delete(ks))) => ks.len() < MAX_KERNEL_BATCH,
            (FuzzOp::Upsert(_, _, r), Some(Batch::Upsert(kvs, rule))) => {
                kvs.len() < MAX_KERNEL_BATCH && r == rule
            }
            (FuzzOp::Increment(_), Some(Batch::Increment(ks))) => ks.len() < MAX_KERNEL_BATCH,
            _ => false,
        };
        match (op, fits) {
            (FuzzOp::Insert(k, v), true) => {
                if let Some(Batch::Insert(kvs)) = out.last_mut() {
                    kvs.push((k, v));
                    in_batch.insert(k);
                }
            }
            (FuzzOp::Insert(k, v), false) => {
                in_batch.clear();
                in_batch.insert(k);
                out.push(Batch::Insert(vec![(k, v)]));
            }
            (FuzzOp::Find(k), true) => {
                if let Some(Batch::Find(ks)) = out.last_mut() {
                    ks.push(k);
                }
            }
            (FuzzOp::Find(k), false) => out.push(Batch::Find(vec![k])),
            (FuzzOp::Delete(k), true) => {
                if let Some(Batch::Delete(ks)) = out.last_mut() {
                    ks.push(k);
                }
            }
            (FuzzOp::Delete(k), false) => out.push(Batch::Delete(vec![k])),
            (FuzzOp::Upsert(k, v, _), true) => {
                if let Some(Batch::Upsert(kvs, _)) = out.last_mut() {
                    kvs.push((k, v));
                }
            }
            (FuzzOp::Upsert(k, v, r), false) => out.push(Batch::Upsert(vec![(k, v)], r)),
            (FuzzOp::Increment(k), true) => {
                if let Some(Batch::Increment(ks)) = out.last_mut() {
                    ks.push(k);
                }
            }
            (FuzzOp::Increment(k), false) => out.push(Batch::Increment(vec![k])),
        }
    }
    out
}

/// Apply one RMW to the fixed-tier reference model.
fn model_upsert<K: Word, V: Word>(model: &mut HashMap<K, V>, k: K, arg: V, rule: MergeRule) {
    let next = match model.get(&k) {
        Some(&old) => rule.merge(old, arg),
        None => rule.initial(arg),
    };
    model.insert(k, next);
}

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

/// Execute one case and check it against the reference model. `Ok` carries
/// a deterministic execution digest; `Err` is an oracle violation.
pub fn run_case(case: &Case) -> Result<Digest, Violation> {
    if case.tier == Tier::Unsized {
        return run_unsized_case(case);
    }
    match case.target {
        Target::KvService => run_service_case(case),
        Target::WideDyCuckoo => run_wide_case(case),
        _ => run_table_case(case),
    }
}

fn table_seed(case: &Case) -> u64 {
    mix64(case.workload_seed ^ 0xC0FF_EE00)
}

/// The case's layout with its fingerprint override applied. Only the
/// DyCuckoo-family runners use this — the baselines keep the raw layout,
/// since the fingerprint lane is a DyCuckoo engine feature.
fn fp_layout(case: &Case) -> LayoutConfig {
    if case.fingerprint > 0 {
        case.layout.with_fp(case.fingerprint)
    } else {
        case.layout
    }
}

fn setup_err(e: impl fmt::Display) -> Violation {
    Violation::new(format!("table construction failed: {e}"))
}

fn build_table(case: &Case, sim: &mut SimContext) -> Result<Box<dyn GpuHashTable>, Violation> {
    let seed = table_seed(case);
    let mut table: Box<dyn GpuHashTable> = match case.target {
        Target::DyCuckoo => Box::new(
            DyCuckooTable::new(
                Config {
                    initial_buckets: 4,
                    seed,
                    dup_policy: DupPolicy::Upsert,
                    schedule: case.policy,
                    inject_lock_elision: case.inject_lock_elision,
                    layout: fp_layout(case),
                    migration_quantum: case.migration_quantum,
                    ..Config::default()
                },
                sim,
            )
            .map_err(setup_err)?,
        ),
        Target::MegaKv => Box::new(
            MegaKv::with_layout(
                8,
                Some(ResizeBounds {
                    alpha: 0.3,
                    beta: 0.85,
                }),
                seed,
                case.layout,
                sim,
            )
            .map_err(setup_err)?,
        ),
        Target::SlabHash => Box::new(SlabHash::new(16, seed, sim).map_err(setup_err)?),
        Target::LinearProbing => {
            Box::new(LinearProbing::new(16 * 1024, seed, sim).map_err(setup_err)?)
        }
        Target::Cudpp => {
            Box::new(Cudpp::with_capacity(8 * 1024, 0.4, seed, sim).map_err(setup_err)?)
        }
        Target::WideDyCuckoo | Target::KvService => unreachable!("handled by dedicated runners"),
    };
    table.set_schedule(case.policy);
    Ok(table)
}

/// Check a slice of lookups against the reference.
fn check_finds<K: Word + fmt::Display, V: Word>(
    when: &str,
    keys: &[K],
    got: &[Option<V>],
    model: &HashMap<K, V>,
) -> Result<(), Violation> {
    for (&k, g) in keys.iter().zip(got) {
        let want = model.get(&k).copied();
        if *g != want {
            return Err(Violation::new(format!(
                "{when}: find({k}) = {g:?}, reference says {want:?}"
            )));
        }
    }
    Ok(())
}

fn run_table_case(case: &Case) -> Result<Digest, Violation> {
    let mut sim = SimContext::new();
    let mut table = build_table(case, &mut sim)?;
    let mut model: HashMap<u32, u32> = HashMap::new();
    for (i, batch) in batches(&case.ops).into_iter().enumerate() {
        match batch {
            Batch::Insert(kvs) => {
                table
                    .insert_batch(&mut sim, &kvs)
                    .map_err(|e| Violation::new(format!("insert batch {i} failed: {e}")))?;
                for &(k, v) in &kvs {
                    model.insert(k, v);
                }
                let keys: Vec<u32> = kvs.iter().map(|&(k, _)| k).collect();
                let got = table.find_batch(&mut sim, &keys);
                check_finds(&format!("after insert batch {i}"), &keys, &got, &model)?;
            }
            Batch::Find(keys) => {
                let got = table.find_batch(&mut sim, &keys);
                check_finds(&format!("find batch {i}"), &keys, &got, &model)?;
            }
            Batch::Delete(keys) => {
                if !table.supports_delete() {
                    continue;
                }
                let mut want = 0u64;
                for &k in &keys {
                    if model.remove(&k).is_some() {
                        want += 1;
                    }
                }
                let got = table
                    .delete_batch(&mut sim, &keys)
                    .map_err(|e| Violation::new(format!("delete batch {i} failed: {e}")))?;
                if got != want {
                    return Err(Violation::new(format!(
                        "delete batch {i}: erased {got} keys, reference says {want}"
                    )));
                }
            }
            Batch::Upsert(kvs, rule) => {
                if !table.supports_upsert() {
                    continue;
                }
                table
                    .upsert_batch(&mut sim, &kvs, rule)
                    .map_err(|e| Violation::new(format!("upsert batch {i} failed: {e}")))?;
                for &(k, v) in &kvs {
                    model_upsert(&mut model, k, v, rule);
                }
                let keys: Vec<u32> = kvs.iter().map(|&(k, _)| k).collect();
                let got = table.find_batch(&mut sim, &keys);
                check_finds(&format!("after upsert batch {i}"), &keys, &got, &model)?;
            }
            Batch::Increment(keys) => {
                if !table.supports_upsert() {
                    continue;
                }
                let kvs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, 0)).collect();
                table
                    .upsert_batch(&mut sim, &kvs, MergeRule::Count)
                    .map_err(|e| Violation::new(format!("increment batch {i} failed: {e}")))?;
                for &k in &keys {
                    model_upsert(&mut model, k, 0, MergeRule::Count);
                }
                let got = table.find_batch(&mut sim, &keys);
                check_finds(&format!("after increment batch {i}"), &keys, &got, &model)?;
            }
        }
    }
    // Full final sweep: every reference key must be present with the right
    // value, a few never-inserted keys must miss, and the length must agree.
    let mut keys: Vec<u32> = model.keys().copied().collect();
    keys.sort_unstable();
    keys.extend((1..=4u32).map(|i| 0xFFF0_0000 + i));
    let got = table.find_batch(&mut sim, &keys);
    check_finds("final sweep", &keys, &got, &model)?;
    if table.len() != model.len() as u64 {
        return Err(Violation::new(format!(
            "final sweep: table.len() = {}, reference holds {} keys",
            table.len(),
            model.len()
        )));
    }
    let mut d = fold(0, sim.metrics.rounds);
    d = fold(d, sim.metrics.lock_failures);
    d = fold(d, table.len());
    if case.host_par_threads > 0 {
        run_host_par_table_diff(case)?;
    }
    Ok(d)
}

/// The host-par differential: replay the case's batches through a
/// [`ParTable`] on `host_par_threads` real OS threads and check every
/// batch — and the final logical map — against a reference `HashMap`.
///
/// The reference model is maintained independently of the sim runner's
/// (baselines like CUDPP skip deletes, which would skew a shared model),
/// so the check composes with every fixed-tier target: the sim execution
/// proved `sim == reference`, this proves `host-par == reference`, hence
/// `host-par == sim` on the final logical map. Physical placement and
/// grow counts are schedule-dependent by design and stay outside the
/// comparison — and outside the digest, which this function never touches.
fn run_host_par_table_diff(case: &Case) -> Result<(), Violation> {
    let cfg = Config {
        initial_buckets: 4,
        seed: table_seed(case),
        layout: fp_layout(case),
        ..Config::default()
    };
    let mut par = ParTable::new(cfg, case.host_par_threads)
        .map_err(|e| Violation::new(format!("host-par table construction failed: {e}")))?;
    let mut model: HashMap<u32, u32> = HashMap::new();
    for (i, batch) in batches(&case.ops).into_iter().enumerate() {
        match batch {
            Batch::Insert(kvs) => {
                par.insert_batch(&kvs)
                    .map_err(|e| Violation::new(format!("host-par insert batch {i}: {e}")))?;
                for &(k, v) in &kvs {
                    model.insert(k, v);
                }
                let keys: Vec<u32> = kvs.iter().map(|&(k, _)| k).collect();
                let got = par.find_batch(&keys);
                check_finds(
                    &format!("host-par after insert batch {i}"),
                    &keys,
                    &got,
                    &model,
                )?;
            }
            Batch::Find(keys) => {
                let got = par.find_batch(&keys);
                check_finds(&format!("host-par find batch {i}"), &keys, &got, &model)?;
            }
            Batch::Delete(keys) => {
                let mut want = 0u64;
                for &k in &keys {
                    if model.remove(&k).is_some() {
                        want += 1;
                    }
                }
                let got = par.delete_batch(&keys);
                if got != want {
                    return Err(Violation::new(format!(
                        "host-par delete batch {i}: erased {got} keys, reference says {want}"
                    )));
                }
            }
            Batch::Upsert(kvs, rule) => {
                par.upsert_batch(&kvs, rule)
                    .map_err(|e| Violation::new(format!("host-par upsert batch {i}: {e}")))?;
                for &(k, v) in &kvs {
                    model_upsert(&mut model, k, v, rule);
                }
                let keys: Vec<u32> = kvs.iter().map(|&(k, _)| k).collect();
                let got = par.find_batch(&keys);
                check_finds(
                    &format!("host-par after upsert batch {i}"),
                    &keys,
                    &got,
                    &model,
                )?;
            }
            Batch::Increment(keys) => {
                par.increment_batch(&keys)
                    .map_err(|e| Violation::new(format!("host-par increment batch {i}: {e}")))?;
                for &k in &keys {
                    model_upsert(&mut model, k, 0, MergeRule::Count);
                }
                let got = par.find_batch(&keys);
                check_finds(
                    &format!("host-par after increment batch {i}"),
                    &keys,
                    &got,
                    &model,
                )?;
            }
        }
    }
    // Final logical map, exactly: sorted live pairs against the reference.
    let mut live = par.live_pairs();
    live.sort_unstable();
    let mut want: Vec<(u32, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    want.sort_unstable();
    if live != want {
        let diff = live
            .iter()
            .filter(|p| !want.contains(p))
            .chain(want.iter().filter(|p| !live.contains(p)))
            .take(4)
            .collect::<Vec<_>>();
        return Err(Violation::new(format!(
            "host-par final map diverged from the reference ({} vs {} pairs; first diffs {diff:?})",
            live.len(),
            want.len()
        )));
    }
    par.verify()
        .map_err(|e| Violation::new(format!("host-par structural verify failed: {e}")))?;
    Ok(())
}

/// The wide oracle: the same op stream over 64-bit keys (spread across the
/// whole word, so the 32-bit route fold matters) and tagged 64-bit values,
/// driven through [`WideDyCuckoo`] — the core table at 8-byte words — with
/// the case's scheme, slot count, fingerprint lane and migration quantum.
/// Ends with the structural `verify_integrity` sweep, like the byte tier.
fn run_wide_case(case: &Case) -> Result<Digest, Violation> {
    let mut sim = SimContext::new();
    let cfg = Config {
        initial_buckets: 4,
        seed: table_seed(case),
        schedule: case.policy,
        layout: LayoutConfig {
            key_bytes: 8,
            val_bytes: 8,
            ..fp_layout(case)
        },
        migration_quantum: case.migration_quantum,
        ..Config::default()
    };
    let mut table = WideDyCuckoo::new(cfg, &mut sim).map_err(setup_err)?;
    let mut model: HashMap<u64, u64> = HashMap::new();
    // Exercise the 64-bit key space: spread the 32-bit fuzz keys across the
    // wide domain deterministically (same key always maps the same way).
    let widen = |k: u32| (k as u64) | (mix64(k as u64) & 0xFFFF_0000_0000_0000);
    for (i, batch) in batches(&case.ops).into_iter().enumerate() {
        match batch {
            Batch::Insert(kvs) => {
                let kvs: Vec<(u64, u64)> = kvs
                    .iter()
                    .map(|&(k, v)| (widen(k), v as u64 | (k as u64) << 32))
                    .collect();
                table
                    .insert_batch(&mut sim, &kvs)
                    .map_err(|e| Violation::new(format!("insert batch {i} failed: {e}")))?;
                for &(k, v) in &kvs {
                    model.insert(k, v);
                }
                let keys: Vec<u64> = kvs.iter().map(|&(k, _)| k).collect();
                let got = table.find_batch(&mut sim, &keys);
                check_finds(&format!("after insert batch {i}"), &keys, &got, &model)?;
            }
            Batch::Find(keys) => {
                let keys: Vec<u64> = keys.iter().map(|&k| widen(k)).collect();
                let got = table.find_batch(&mut sim, &keys);
                check_finds(&format!("find batch {i}"), &keys, &got, &model)?;
            }
            Batch::Delete(keys) => {
                let keys: Vec<u64> = keys.iter().map(|&k| widen(k)).collect();
                let mut want = 0u64;
                for &k in &keys {
                    if model.remove(&k).is_some() {
                        want += 1;
                    }
                }
                let got = table
                    .delete_batch(&mut sim, &keys)
                    .map_err(|e| Violation::new(format!("delete batch {i} failed: {e}")))?
                    .deleted;
                if got != want {
                    return Err(Violation::new(format!(
                        "delete batch {i}: erased {got} keys, reference says {want}"
                    )));
                }
            }
            Batch::Upsert(kvs, rule) => {
                // The arg stays the raw u32 (no key tag in the high half):
                // merge algebra over tagged values would be meaningless.
                let kvs: Vec<(u64, u64)> = kvs.iter().map(|&(k, v)| (widen(k), v as u64)).collect();
                table
                    .upsert_batch(&mut sim, &kvs, rule)
                    .map_err(|e| Violation::new(format!("upsert batch {i} failed: {e}")))?;
                for &(k, v) in &kvs {
                    model_upsert(&mut model, k, v, rule);
                }
                let keys: Vec<u64> = kvs.iter().map(|&(k, _)| k).collect();
                let got = table.find_batch(&mut sim, &keys);
                check_finds(&format!("after upsert batch {i}"), &keys, &got, &model)?;
            }
            Batch::Increment(keys) => {
                let keys: Vec<u64> = keys.iter().map(|&k| widen(k)).collect();
                table
                    .increment_batch(&mut sim, &keys)
                    .map_err(|e| Violation::new(format!("increment batch {i} failed: {e}")))?;
                for &k in &keys {
                    model_upsert(&mut model, k, 0, MergeRule::Count);
                }
                let got = table.find_batch(&mut sim, &keys);
                check_finds(&format!("after increment batch {i}"), &keys, &got, &model)?;
            }
        }
    }
    if table.len() != model.len() as u64 {
        return Err(Violation::new(format!(
            "final sweep: table.len() = {}, reference holds {} keys",
            table.len(),
            model.len()
        )));
    }
    table
        .verify_integrity()
        .map_err(|e| Violation::new(format!("final integrity sweep: {e}")))?;
    let mut d = fold(1, sim.metrics.rounds);
    d = fold(d, sim.metrics.lock_failures);
    d = fold(d, table.len());
    Ok(d)
}

/// Widen a u32 fuzz key into a byte-string key. Injective: every key embeds
/// its 8-hex-digit u32 as a prefix, so distinct fuzz keys can never collide
/// whatever the random tail. The length follows the case's distribution
/// keyed on the fuzz key itself, so the same key always widens identically.
fn byte_key(case: &Case, k: u32) -> Vec<u8> {
    let len = case.key_dist.key_len(case.workload_seed, k as u64);
    let mut key = Vec::with_capacity(len);
    for shift in (0..8).rev() {
        key.push(b"0123456789abcdef"[((k >> (shift * 4)) & 0xF) as usize]);
    }
    let mut i = 0u64;
    while key.len() < len {
        let r = mix64(case.workload_seed ^ ((k as u64) << 8) ^ 0xF022_B17E ^ i);
        for b in r.to_le_bytes() {
            if key.len() == len {
                break;
            }
            key.push(b'!' + (b % 94));
        }
        i += 1;
    }
    key
}

/// Widen a u32 fuzz value into a byte payload of 0..=23 bytes — straddling
/// the 7-byte inline bound, so both value representations stay under test.
/// A pure function of `(workload_seed, v)`, so the reference map can store
/// and compare exact bytes.
fn byte_val(case: &Case, v: u32) -> Vec<u8> {
    let r = mix64(case.workload_seed ^ 0x5641_4C00 ^ v as u64);
    let len = (r % 24) as usize;
    let mut val = Vec::with_capacity(len);
    let mut i = 0u64;
    while val.len() < len {
        let r = mix64(case.workload_seed ^ ((v as u64) << 8) ^ 0xDA7A_B17E ^ i);
        for b in r.to_le_bytes() {
            if val.len() == len {
                break;
            }
            val.push(b);
        }
        i += 1;
    }
    val
}

/// The byte-KV oracle: widens the u32 op stream into byte-string keys and
/// values and drives an [`UnsizedTable`] against a byte-exact reference
/// map. Same batch discipline as the fixed oracles (insert batches never
/// contain duplicate keys), same mid-migration interleaving (a finite
/// quantum keeps a drain in flight across batches and the runner pumps it
/// between batches), plus a structural `verify_integrity` sweep at the end
/// so arena leaks or dangling spill handles fail the case even when every
/// lookup agreed.
fn run_unsized_case(case: &Case) -> Result<Digest, Violation> {
    let mut sim = SimContext::new();
    let cfg = UnsizedConfig {
        n_buckets: 4,
        seed: table_seed(case),
        schedule: case.policy,
        // Scheme and slot count sweep with the case; the word sizes are
        // the tier's own (16-byte key word, 8-byte value word).
        layout: LayoutConfig {
            key_bytes: 16,
            val_bytes: 8,
            ..fp_layout(case)
        },
        max_load: 0.8,
        migration_quantum: case.migration_quantum,
        ..UnsizedConfig::default()
    };
    let mut table = UnsizedTable::new(cfg, &mut sim).map_err(setup_err)?;
    let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    let check = |when: &str,
                 keys: &[Vec<u8>],
                 got: &[Option<Vec<u8>>],
                 model: &HashMap<Vec<u8>, Vec<u8>>|
     -> Result<(), Violation> {
        for (k, g) in keys.iter().zip(got) {
            let want = model.get(k);
            if g.as_ref() != want {
                return Err(Violation::new(format!(
                    "{when}: find({:?}) = {g:?}, reference says {want:?}",
                    String::from_utf8_lossy(k)
                )));
            }
        }
        Ok(())
    };
    for (i, batch) in batches(&case.ops).into_iter().enumerate() {
        match batch {
            Batch::Insert(kvs) => {
                let pairs: Vec<(Vec<u8>, Vec<u8>)> = kvs
                    .iter()
                    .map(|&(k, v)| (byte_key(case, k), byte_val(case, v)))
                    .collect();
                let refs: Vec<(&[u8], &[u8])> = pairs
                    .iter()
                    .map(|(k, v)| (k.as_slice(), v.as_slice()))
                    .collect();
                table
                    .insert_batch(&mut sim, &refs)
                    .map_err(|e| Violation::new(format!("insert batch {i} failed: {e}")))?;
                for (k, v) in &pairs {
                    model.insert(k.clone(), v.clone());
                }
                let keys: Vec<Vec<u8>> = pairs.into_iter().map(|(k, _)| k).collect();
                let krefs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                let got = table
                    .find_batch(&mut sim, &krefs)
                    .map_err(|e| Violation::new(format!("readback after batch {i}: {e}")))?;
                check(&format!("after insert batch {i}"), &keys, &got, &model)?;
            }
            Batch::Find(keys) => {
                let keys: Vec<Vec<u8>> = keys.iter().map(|&k| byte_key(case, k)).collect();
                let krefs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                let got = table
                    .find_batch(&mut sim, &krefs)
                    .map_err(|e| Violation::new(format!("find batch {i} failed: {e}")))?;
                check(&format!("find batch {i}"), &keys, &got, &model)?;
            }
            Batch::Delete(keys) => {
                let keys: Vec<Vec<u8>> = keys.iter().map(|&k| byte_key(case, k)).collect();
                let krefs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                let mut want = 0u64;
                for k in &keys {
                    if model.remove(k).is_some() {
                        want += 1;
                    }
                }
                let (removed, _) = table
                    .delete_batch(&mut sim, &krefs)
                    .map_err(|e| Violation::new(format!("delete batch {i} failed: {e}")))?;
                let got = removed.iter().filter(|&&r| r).count() as u64;
                if got != want {
                    return Err(Violation::new(format!(
                        "delete batch {i}: erased {got} keys, reference says {want}"
                    )));
                }
            }
            Batch::Upsert(kvs, rule) => {
                // The reference applies the same pure byte-merge functions
                // the engine uses, so the check is exact for every rule
                // (counter rules read the first 8 bytes little-endian).
                let pairs: Vec<(Vec<u8>, Vec<u8>)> = kvs
                    .iter()
                    .map(|&(k, v)| (byte_key(case, k), byte_val(case, v)))
                    .collect();
                let refs: Vec<(&[u8], &[u8])> = pairs
                    .iter()
                    .map(|(k, v)| (k.as_slice(), v.as_slice()))
                    .collect();
                table
                    .upsert_batch(&mut sim, &refs, rule)
                    .map_err(|e| Violation::new(format!("upsert batch {i} failed: {e}")))?;
                for (k, v) in &pairs {
                    let next = match model.get(k) {
                        Some(old) => rule.merge_bytes(old, v),
                        None => rule.initial_bytes(v),
                    };
                    model.insert(k.clone(), next);
                }
                let keys: Vec<Vec<u8>> = pairs.into_iter().map(|(k, _)| k).collect();
                let krefs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                let got = table
                    .find_batch(&mut sim, &krefs)
                    .map_err(|e| Violation::new(format!("readback after batch {i}: {e}")))?;
                check(&format!("after upsert batch {i}"), &keys, &got, &model)?;
            }
            Batch::Increment(keys) => {
                let keys: Vec<Vec<u8>> = keys.iter().map(|&k| byte_key(case, k)).collect();
                let krefs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                table
                    .increment_batch(&mut sim, &krefs)
                    .map_err(|e| Violation::new(format!("increment batch {i} failed: {e}")))?;
                for k in &keys {
                    let next = match model.get(k) {
                        Some(old) => MergeRule::Count.merge_bytes(old, &[]),
                        None => MergeRule::Count.initial_bytes(&[]),
                    };
                    model.insert(k.clone(), next);
                }
                let got = table
                    .find_batch(&mut sim, &krefs)
                    .map_err(|e| Violation::new(format!("readback after batch {i}: {e}")))?;
                check(&format!("after increment batch {i}"), &keys, &got, &model)?;
            }
        }
        // Find-only stretches would otherwise stall a drain forever under a
        // finite quantum; pump like the service layer's idle ticks do.
        if table.migration_in_flight() {
            table
                .pump_migration(&mut sim)
                .map_err(|e| Violation::new(format!("migration pump after batch {i}: {e}")))?;
        }
    }
    while table.migration_in_flight() {
        table
            .pump_migration(&mut sim)
            .map_err(|e| Violation::new(format!("final migration drain: {e}")))?;
    }
    // Full final sweep in sorted key order (deterministic), plus a few
    // never-inserted keys that must miss.
    let mut keys: Vec<Vec<u8>> = model.keys().cloned().collect();
    keys.sort_unstable();
    keys.extend((1..=4u32).map(|i| byte_key(case, 0xFFF0_0000 + i)));
    let krefs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let got = table
        .find_batch(&mut sim, &krefs)
        .map_err(|e| Violation::new(format!("final sweep failed: {e}")))?;
    check("final sweep", &keys, &got, &model)?;
    if table.len() != model.len() as u64 {
        return Err(Violation::new(format!(
            "final sweep: table.len() = {}, reference holds {} keys",
            table.len(),
            model.len()
        )));
    }
    table
        .verify_integrity()
        .map_err(|e| Violation::new(format!("structural integrity after final sweep: {e}")))?;
    let mut d = fold(3, sim.metrics.rounds);
    d = fold(d, sim.metrics.lock_failures);
    d = fold(d, table.len());
    Ok(d)
}

/// The service oracle, with the host-par differential layered on top: the
/// case always runs under `Backend::Sim` (whose digest is returned, so
/// pinned values never move), and with `host_par_threads > 0` it runs a
/// second time under `Backend::HostPar` — same workload, same reference
/// checks — and the two digests must agree bit-for-bit. The digest folds
/// every completion tick and the final key count, so agreement means the
/// threaded backend produced the same completions on the same simulated
/// ticks with the same final table sizes.
fn run_service_case(case: &Case) -> Result<Digest, Violation> {
    let d = run_service_backend(case, Backend::Sim)?;
    if case.host_par_threads > 0 {
        let threads = case.host_par_threads;
        let dp = run_service_backend(case, Backend::HostPar { threads })?;
        if dp != d {
            return Err(Violation::new(format!(
                "host-par({threads} threads) service digest {dp:#018x} \
                 diverged from sim digest {d:#018x}"
            )));
        }
    }
    Ok(d)
}

fn run_service_backend(case: &Case, backend: Backend) -> Result<Digest, Violation> {
    let mut sim = SimContext::new();
    let seed = table_seed(case);
    let cfg = ServiceConfig {
        shards: 4,
        table: Config {
            initial_buckets: 4,
            seed,
            dup_policy: DupPolicy::Upsert,
            schedule: case.policy,
            inject_lock_elision: case.inject_lock_elision,
            layout: fp_layout(case),
            ..Config::default()
        },
        max_batch: 16,
        max_delay_ticks: 2,
        queue_capacity: 1 << 14,
        shed_watermark: 1 << 14,
        seed: mix64(seed ^ 0x0A11),
        migration_quantum: case.migration_quantum,
        flush_order: case.policy,
        miss_filter_bits: if case.miss_filter { 8 } else { 0 },
        backend,
        ..ServiceConfig::default()
    };
    let mut svc = KvService::new(cfg, &mut sim).map_err(setup_err)?;
    // Reference replies are fixed at submission time: a key always routes
    // to one shard, shard queues are FIFO, and the flush planner provides
    // read-your-writes within a window — so per-key submission order IS the
    // linearization order, whatever the shard visit order.
    let mut model: HashMap<u32, u32> = HashMap::new();
    let mut expected: HashMap<u64, Reply> = HashMap::new();
    for (i, &op) in case.ops.iter().enumerate() {
        let op = match op {
            FuzzOp::Insert(k, v) => Op::Put(k, v),
            FuzzOp::Find(k) => Op::Get(k),
            FuzzOp::Delete(k) => Op::Delete(k),
            FuzzOp::Upsert(k, v, rule) => Op::Upsert(k, v, rule),
            FuzzOp::Increment(k) => Op::Increment(k),
        };
        let want = match op {
            Op::Get(k) => Reply::Value(model.get(&k).copied()),
            Op::Put(k, v) => {
                model.insert(k, v);
                Reply::Stored
            }
            Op::Delete(k) => {
                model.remove(&k);
                Reply::Deleted
            }
            Op::Upsert(k, v, rule) => {
                model_upsert(&mut model, k, v, rule);
                Reply::Merged
            }
            Op::Increment(k) => {
                model_upsert(&mut model, k, 0, MergeRule::Count);
                Reply::Merged
            }
        };
        match svc.submit((i % 7) as u32, op) {
            Ok(id) => {
                expected.insert(id, want);
            }
            Err(e) => {
                return Err(Violation::new(format!(
                    "op {i} refused by admission control under a roomy config: {e:?}"
                )));
            }
        }
        if i % 8 == 7 {
            svc.tick(&mut sim)
                .map_err(|e| Violation::new(format!("tick after op {i} failed: {e}")))?;
        }
    }
    svc.flush_all(&mut sim)
        .map_err(|e| Violation::new(format!("final drain failed: {e}")))?;
    let mut d = fold(2, sim.metrics.rounds);
    for c in svc.drain_completions() {
        let Some(want) = expected.remove(&c.id) else {
            return Err(Violation::new(format!(
                "request {} completed twice (or was never submitted)",
                c.id
            )));
        };
        if c.reply != want {
            return Err(Violation::new(format!(
                "request {} (key {}): reply {:?}, reference says {:?}",
                c.id, c.key, c.reply, want
            )));
        }
        d = fold(d, c.completed_tick);
    }
    if !expected.is_empty() {
        let mut ids: Vec<u64> = expected.keys().copied().collect();
        ids.sort_unstable();
        return Err(Violation::new(format!(
            "{} requests never completed after the final drain (first id {})",
            ids.len(),
            ids[0]
        )));
    }
    d = fold(d, svc.total_keys());
    Ok(d)
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// Minimize a failing case with ddmin: the op list shrinks while the oracle
/// keeps failing; target, policy and seeds are held fixed so the artifact
/// replays the same interleaving family. Returns the minimized case and the
/// violation it still produces.
pub fn shrink_case(case: &Case) -> (Case, Violation) {
    debug_assert!(run_case(case).is_err(), "shrink_case needs a failing case");
    let ops = gpu_sim::shrink_ops(&case.ops, |sub| {
        let candidate = Case {
            ops: sub.to_vec(),
            ..case.clone()
        };
        run_case(&candidate).is_err()
    });
    let min = Case {
        ops,
        ..case.clone()
    };
    let violation = run_case(&min).expect_err("shrunk case must still fail");
    (min, violation)
}

// ---------------------------------------------------------------------------
// Repro artifacts (hand-rolled RON; the repo takes no serde dependency)
// ---------------------------------------------------------------------------

/// A serialized failing case: the [`Case`] plus the violation message it
/// produced when it was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// The minimized failing case.
    pub case: Case,
    /// The oracle's message at discovery time (informational).
    pub violation: String,
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Repro {
    /// Render as a RON document (fields in fixed order; see
    /// [`Repro::from_ron`]).
    pub fn to_ron(&self) -> String {
        let mut out = String::new();
        out.push_str("// schedule_fuzz repro artifact. Replay with:\n");
        out.push_str("//   cargo run --release -p bench --bin schedule_fuzz -- --replay <file>\n");
        out.push_str("(\n");
        out.push_str(&format!("    target: \"{}\",\n", self.case.target.name()));
        out.push_str(&format!("    policy: \"{}\",\n", self.case.policy.spec()));
        out.push_str(&format!(
            "    workload_seed: {},\n",
            self.case.workload_seed
        ));
        out.push_str(&format!(
            "    inject_lock_elision: {},\n",
            self.case.inject_lock_elision
        ));
        out.push_str(&format!("    layout: \"{}\",\n", self.case.layout.spec()));
        out.push_str(&format!(
            "    migration_quantum: {},\n",
            self.case.migration_quantum
        ));
        out.push_str(&format!("    tier: \"{}\",\n", self.case.tier.name()));
        out.push_str(&format!(
            "    key_dist: \"{}\",\n",
            self.case.key_dist.name()
        ));
        out.push_str(&format!("    fingerprint: {},\n", self.case.fingerprint));
        out.push_str(&format!("    miss_filter: {},\n", self.case.miss_filter));
        // Emitted only when armed, so artifacts from the historical sweep
        // shape stay byte-identical.
        if self.case.host_par_threads > 0 {
            out.push_str(&format!(
                "    host_par_threads: {},\n",
                self.case.host_par_threads
            ));
        }
        out.push_str(&format!(
            "    violation: \"{}\",\n",
            escape(&self.violation)
        ));
        out.push_str("    ops: [\n");
        for op in &self.case.ops {
            match *op {
                FuzzOp::Insert(k, v) => out.push_str(&format!("        Insert({k}, {v}),\n")),
                FuzzOp::Find(k) => out.push_str(&format!("        Find({k}),\n")),
                FuzzOp::Delete(k) => out.push_str(&format!("        Delete({k}),\n")),
                FuzzOp::Upsert(k, v, rule) => {
                    out.push_str(&format!("        Upsert({k}, {v}, \"{}\"),\n", rule.name()))
                }
                FuzzOp::Increment(k) => out.push_str(&format!("        Increment({k}),\n")),
            }
        }
        out.push_str("    ],\n");
        out.push_str(")\n");
        out
    }

    /// Parse a document produced by [`Repro::to_ron`]. The parser accepts
    /// exactly the writer's shape (fixed field order, `//` comments,
    /// arbitrary whitespace) — it is a repro loader, not a general RON
    /// implementation.
    pub fn from_ron(text: &str) -> Result<Repro, String> {
        let mut c = Cursor::new(text);
        c.expect('(')?;
        c.field("target")?;
        let target_name = c.string()?;
        let target = Target::from_name(&target_name)
            .ok_or_else(|| format!("unknown target {target_name:?}"))?;
        c.expect(',')?;
        c.field("policy")?;
        let policy_spec = c.string()?;
        let policy = SchedulePolicy::from_spec(&policy_spec)
            .ok_or_else(|| format!("unknown policy spec {policy_spec:?}"))?;
        c.expect(',')?;
        c.field("workload_seed")?;
        let workload_seed = c.number()?;
        c.expect(',')?;
        c.field("inject_lock_elision")?;
        let inject_lock_elision = c.boolean()?;
        c.expect(',')?;
        c.field("layout")?;
        let layout_spec = c.string()?;
        let layout = LayoutConfig::parse(&layout_spec, 4, 4)
            .ok_or_else(|| format!("unknown layout spec {layout_spec:?}"))?;
        c.expect(',')?;
        // Optional (absent in artifacts predating incremental migration);
        // absent means stop-the-world.
        let mark = c.pos;
        let migration_quantum = match c.ident() {
            Ok(name) if name == "migration_quantum" => {
                c.expect(':')?;
                let q = c.number()? as usize;
                c.expect(',')?;
                q
            }
            _ => {
                c.pos = mark;
                usize::MAX
            }
        };
        // Optional (absent in artifacts predating the unsized tier);
        // absent means the fixed tier.
        let mark = c.pos;
        let tier = match c.ident() {
            Ok(name) if name == "tier" => {
                c.expect(':')?;
                let tier_name = c.string()?;
                c.expect(',')?;
                Tier::from_name(&tier_name).ok_or_else(|| format!("unknown tier {tier_name:?}"))?
            }
            _ => {
                c.pos = mark;
                Tier::Fixed
            }
        };
        let mark = c.pos;
        let key_dist = match c.ident() {
            Ok(name) if name == "key_dist" => {
                c.expect(':')?;
                let dist_name = c.string()?;
                c.expect(',')?;
                LengthDist::parse(&dist_name)
                    .ok_or_else(|| format!("unknown key_dist {dist_name:?}"))?
            }
            _ => {
                c.pos = mark;
                LengthDist::Mixed
            }
        };
        // Optional (absent in artifacts predating fingerprint gating);
        // absent means no fingerprint lane.
        let mark = c.pos;
        let fingerprint = match c.ident() {
            Ok(name) if name == "fingerprint" => {
                c.expect(':')?;
                let bits = c.number()? as u8;
                c.expect(',')?;
                if !matches!(bits, 0 | 8 | 16) {
                    return Err(format!("bad fingerprint width {bits}"));
                }
                bits
            }
            _ => {
                c.pos = mark;
                0
            }
        };
        // Optional (absent in artifacts predating the miss shield);
        // absent means no filter.
        let mark = c.pos;
        let miss_filter = match c.ident() {
            Ok(name) if name == "miss_filter" => {
                c.expect(':')?;
                let b = c.boolean()?;
                c.expect(',')?;
                b
            }
            _ => {
                c.pos = mark;
                false
            }
        };
        // Optional (absent in artifacts predating the host-par backend, and
        // in any artifact that did not arm the differential); absent means
        // sim-only.
        let mark = c.pos;
        let host_par_threads = match c.ident() {
            Ok(name) if name == "host_par_threads" => {
                c.expect(':')?;
                let n = c.number()? as usize;
                c.expect(',')?;
                if n == 0 {
                    return Err("host_par_threads must be positive when present".to_string());
                }
                n
            }
            _ => {
                c.pos = mark;
                0
            }
        };
        c.field("violation")?;
        let violation = c.string()?;
        c.expect(',')?;
        c.field("ops")?;
        c.expect('[')?;
        let mut ops = Vec::new();
        loop {
            c.skip();
            if c.peek() == Some(']') {
                c.expect(']')?;
                break;
            }
            let kind = c.ident()?;
            c.expect('(')?;
            let op = match kind.as_str() {
                "Insert" => {
                    let k = c.number()? as u32;
                    c.expect(',')?;
                    let v = c.number()? as u32;
                    FuzzOp::Insert(k, v)
                }
                "Find" => FuzzOp::Find(c.number()? as u32),
                "Delete" => FuzzOp::Delete(c.number()? as u32),
                "Upsert" => {
                    let k = c.number()? as u32;
                    c.expect(',')?;
                    let v = c.number()? as u32;
                    c.expect(',')?;
                    let rule_name = c.string()?;
                    let rule = MergeRule::parse(&rule_name)
                        .ok_or_else(|| format!("unknown merge rule {rule_name:?}"))?;
                    FuzzOp::Upsert(k, v, rule)
                }
                "Increment" => FuzzOp::Increment(c.number()? as u32),
                other => return Err(format!("unknown op {other:?}")),
            };
            c.expect(')')?;
            c.expect(',')?;
            ops.push(op);
        }
        c.expect(',')?;
        c.expect(')')?;
        Ok(Repro {
            case: Case {
                target,
                policy,
                workload_seed,
                inject_lock_elision,
                layout,
                migration_quantum,
                tier,
                key_dist,
                fingerprint,
                miss_filter,
                host_par_threads,
                ops,
            },
            violation,
        })
    }
}

/// Minimal cursor over the repro text.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip(&mut self) {
        loop {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.bytes[self.pos..].starts_with(b"//") {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn peek(&self) -> Option<char> {
        self.bytes.get(self.pos).map(|&b| b as char)
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {c:?} at byte {} (found {:?})",
                self.pos,
                self.peek()
            ))
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        self.skip();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected identifier at byte {start}"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn field(&mut self, name: &str) -> Result<(), String> {
        let got = self.ident()?;
        if got != name {
            return Err(format!("expected field {name:?}, found {got:?}"));
        }
        self.expect(':')
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        match self.ident()?.as_str() {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("expected bool, found {other:?}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| format!("bad utf-8: {e}"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'"') => out.push(b'"'),
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_ops_is_deterministic_and_sized() {
        let a = gen_ops(7, 100);
        let b = gen_ops(7, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert_ne!(a, gen_ops(8, 100));
        // All three op kinds appear in a non-trivial stream.
        assert!(a.iter().any(|o| matches!(o, FuzzOp::Insert(..))));
        assert!(a.iter().any(|o| matches!(o, FuzzOp::Find(_))));
        assert!(a.iter().any(|o| matches!(o, FuzzOp::Delete(_))));
    }

    #[test]
    fn insert_batches_never_contain_duplicate_keys() {
        for seed in 0..8 {
            for b in batches(&gen_ops(seed, 200)) {
                if let Batch::Insert(kvs) = b {
                    let mut keys: Vec<u32> = kvs.iter().map(|&(k, _)| k).collect();
                    keys.sort_unstable();
                    keys.dedup();
                    assert_eq!(keys.len(), kvs.len());
                }
            }
        }
    }

    #[test]
    fn oracle_passes_on_dycuckoo_fixed_order() {
        let case = Case {
            target: Target::DyCuckoo,
            policy: SchedulePolicy::FixedOrder,
            workload_seed: 1,
            inject_lock_elision: false,
            layout: LayoutConfig::default(),
            migration_quantum: usize::MAX,
            tier: Tier::Fixed,
            key_dist: LengthDist::Mixed,
            fingerprint: 0,
            miss_filter: false,
            host_par_threads: 0,
            ops: gen_ops(1, 96),
        };
        let a = run_case(&case).expect("no violation");
        let b = run_case(&case).expect("no violation");
        assert_eq!(a, b, "same case must produce the same digest");
    }

    /// A finite quantum keeps migrations in flight across batches on every
    /// target that supports them; the oracle must still pass, and the
    /// digest must stay deterministic.
    #[test]
    fn oracle_passes_mid_migration() {
        for target in [Target::DyCuckoo, Target::WideDyCuckoo, Target::KvService] {
            for quantum in [2usize, 16] {
                let case = Case {
                    target,
                    policy: SchedulePolicy::FixedOrder,
                    workload_seed: 5,
                    inject_lock_elision: false,
                    layout: LayoutConfig::default(),
                    migration_quantum: quantum,
                    tier: Tier::Fixed,
                    key_dist: LengthDist::Mixed,
                    fingerprint: 0,
                    miss_filter: false,
                    host_par_threads: 0,
                    ops: gen_ops(5, 160),
                };
                let a = run_case(&case)
                    .unwrap_or_else(|v| panic!("{} quantum={quantum}: {v}", target.name()));
                let b = run_case(&case).expect("second run");
                assert_eq!(a, b, "{} quantum={quantum}", target.name());
            }
        }
    }

    #[test]
    fn different_policies_change_the_digest_but_not_the_verdict() {
        let base = Case {
            target: Target::DyCuckoo,
            policy: SchedulePolicy::FixedOrder,
            workload_seed: 3,
            inject_lock_elision: false,
            layout: LayoutConfig::default(),
            migration_quantum: usize::MAX,
            tier: Tier::Fixed,
            key_dist: LengthDist::Mixed,
            fingerprint: 0,
            miss_filter: false,
            host_par_threads: 0,
            ops: gen_ops(3, 96),
        };
        let rev = Case {
            policy: SchedulePolicy::Reversed,
            ..base.clone()
        };
        let a = run_case(&base).expect("fixed order passes");
        let b = run_case(&rev).expect("reversed passes");
        // Not asserted unequal in general, but these workloads contend.
        let _ = (a, b);
    }

    #[test]
    fn ron_roundtrips() {
        let repro = Repro {
            case: Case {
                target: Target::WideDyCuckoo,
                policy: SchedulePolicy::Shuffled { seed: 42 },
                workload_seed: 9,
                inject_lock_elision: true,
                layout: LayoutConfig::default(),
                migration_quantum: 64,
                tier: Tier::Fixed,
                key_dist: LengthDist::Mixed,
                fingerprint: 0,
                miss_filter: false,
                host_par_threads: 0,
                ops: vec![FuzzOp::Insert(1, 2), FuzzOp::Find(1), FuzzOp::Delete(1)],
            },
            violation: "find(1) = None, reference says Some(2) — a \"lost\" key\\".to_string(),
        };
        let text = repro.to_ron();
        let back = Repro::from_ron(&text).expect("parse");
        assert_eq!(back, repro);
    }

    /// Artifacts written before the `migration_quantum` field existed still
    /// parse (the field defaults to stop-the-world).
    #[test]
    fn ron_accepts_legacy_artifacts_without_migration_quantum() {
        let repro = Repro {
            case: Case {
                target: Target::DyCuckoo,
                policy: SchedulePolicy::FixedOrder,
                workload_seed: 2,
                inject_lock_elision: false,
                layout: LayoutConfig::default(),
                migration_quantum: usize::MAX,
                tier: Tier::Fixed,
                key_dist: LengthDist::Mixed,
                fingerprint: 0,
                miss_filter: false,
                host_par_threads: 0,
                ops: vec![FuzzOp::Insert(3, 4)],
            },
            violation: "x".to_string(),
        };
        let text: String = repro
            .to_ron()
            .lines()
            .filter(|l| !l.contains("migration_quantum"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(!text.contains("migration_quantum"));
        let back = Repro::from_ron(&text).expect("legacy artifact must parse");
        assert_eq!(back, repro);
    }

    #[test]
    fn ron_rejects_garbage() {
        assert!(Repro::from_ron("(target: 3)").is_err());
        assert!(Repro::from_ron("").is_err());
        let good = Repro {
            case: Case {
                target: Target::DyCuckoo,
                policy: SchedulePolicy::FixedOrder,
                workload_seed: 0,
                inject_lock_elision: false,
                layout: LayoutConfig::default(),
                migration_quantum: usize::MAX,
                tier: Tier::Fixed,
                key_dist: LengthDist::Mixed,
                fingerprint: 0,
                miss_filter: false,
                host_par_threads: 0,
                ops: vec![],
            },
            violation: String::new(),
        };
        let bad = good.to_ron().replace("\"dycuckoo\"", "\"nope\"");
        assert!(Repro::from_ron(&bad).is_err());
    }

    #[test]
    fn target_names_roundtrip() {
        for t in Target::ALL {
            assert_eq!(Target::from_name(t.name()), Some(t));
        }
        assert_eq!(Target::from_name("bogus"), None);
    }

    fn unsized_case(dist: LengthDist, quantum: usize, n: usize) -> Case {
        Case {
            target: Target::DyCuckoo,
            policy: SchedulePolicy::FixedOrder,
            workload_seed: 11,
            inject_lock_elision: false,
            layout: LayoutConfig::default(),
            migration_quantum: quantum,
            tier: Tier::Unsized,
            key_dist: dist,
            fingerprint: 0,
            miss_filter: false,
            host_par_threads: 0,
            ops: gen_ops(11, n),
        }
    }

    /// The byte-KV oracle passes under every stock length distribution and
    /// produces a stable digest.
    #[test]
    fn unsized_oracle_passes_on_every_stock_distribution() {
        for dist in LengthDist::STOCK {
            let case = unsized_case(dist, usize::MAX, 128);
            let a = run_case(&case).unwrap_or_else(|v| panic!("{}: {v}", dist.name()));
            let b = run_case(&case).expect("second run");
            assert_eq!(a, b, "{}", dist.name());
        }
    }

    /// A finite quantum keeps an arena-backed drain in flight across
    /// batches; every lookup is still byte-exact mid-migration.
    #[test]
    fn unsized_oracle_passes_mid_migration() {
        for quantum in [1usize, 4] {
            let case = unsized_case(LengthDist::Mixed, quantum, 192);
            let a = run_case(&case).unwrap_or_else(|v| panic!("quantum={quantum}: {v}"));
            let b = run_case(&case).expect("second run");
            assert_eq!(a, b, "quantum={quantum}");
        }
    }

    /// Widened keys must stay injective: the oracle's reference map keys on
    /// exact bytes, so a collision would silently weaken every check.
    #[test]
    fn byte_widening_is_injective_and_distribution_shaped() {
        let case = unsized_case(LengthDist::Mixed, usize::MAX, 0);
        let mut seen = HashSet::new();
        for k in 1..=4096u32 {
            assert!(seen.insert(byte_key(&case, k)), "key {k} collided");
        }
        assert!(seen.iter().any(|k| k.len() <= 12), "no inline keys");
        assert!(seen.iter().any(|k| k.len() > 12), "no spilled keys");
        let vals: HashSet<usize> = (1..=512u32).map(|v| byte_val(&case, v).len()).collect();
        assert!(vals.iter().any(|&l| l <= 7), "no inline values");
        assert!(vals.iter().any(|&l| l > 7), "no spilled values");
    }

    #[test]
    fn ron_roundtrips_unsized_tier() {
        let repro = Repro {
            case: Case {
                target: Target::DyCuckoo,
                policy: SchedulePolicy::Reversed,
                workload_seed: 17,
                inject_lock_elision: false,
                layout: LayoutConfig::default(),
                migration_quantum: 8,
                tier: Tier::Unsized,
                key_dist: LengthDist::AllSpill,
                fingerprint: 0,
                miss_filter: false,
                host_par_threads: 0,
                ops: vec![FuzzOp::Insert(9, 9), FuzzOp::Delete(9)],
            },
            violation: "arena leak".to_string(),
        };
        let text = repro.to_ron();
        assert!(text.contains("tier: \"unsized\""));
        assert!(text.contains("key_dist: \"all_spill\""));
        let back = Repro::from_ron(&text).expect("parse");
        assert_eq!(back, repro);
    }

    /// Artifacts written before the unsized tier existed still parse (the
    /// tier defaults to fixed, the distribution to mixed).
    #[test]
    fn ron_accepts_legacy_artifacts_without_tier_fields() {
        let repro = Repro {
            case: Case {
                target: Target::KvService,
                policy: SchedulePolicy::FixedOrder,
                workload_seed: 6,
                inject_lock_elision: false,
                layout: LayoutConfig::default(),
                migration_quantum: 32,
                tier: Tier::Fixed,
                key_dist: LengthDist::Mixed,
                fingerprint: 0,
                miss_filter: false,
                host_par_threads: 0,
                ops: vec![FuzzOp::Find(7)],
            },
            violation: "y".to_string(),
        };
        let text: String = repro
            .to_ron()
            .lines()
            .filter(|l| !l.contains("tier:") && !l.contains("key_dist:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(!text.contains("tier"));
        let back = Repro::from_ron(&text).expect("legacy artifact must parse");
        assert_eq!(back, repro);
    }

    #[test]
    fn ron_roundtrips_fingerprint_and_miss_filter() {
        let repro = Repro {
            case: Case {
                target: Target::KvService,
                policy: SchedulePolicy::Shuffled { seed: 3 },
                workload_seed: 21,
                inject_lock_elision: false,
                layout: LayoutConfig::parse("aos32", 4, 4).unwrap(),
                migration_quantum: usize::MAX,
                tier: Tier::Fixed,
                key_dist: LengthDist::Mixed,
                fingerprint: 16,
                miss_filter: true,
                host_par_threads: 0,
                ops: vec![FuzzOp::Insert(5, 6), FuzzOp::Find(5), FuzzOp::Find(99)],
            },
            violation: "shed get answered Some".to_string(),
        };
        let text = repro.to_ron();
        assert!(text.contains("fingerprint: 16"));
        assert!(text.contains("miss_filter: true"));
        let back = Repro::from_ron(&text).expect("parse");
        assert_eq!(back, repro);
    }

    /// Artifacts written before the fingerprint lane and the miss shield
    /// existed still parse: the width defaults to 0 and the shield to off,
    /// recovering the historical case shape exactly.
    #[test]
    fn ron_accepts_legacy_artifacts_without_fingerprint_fields() {
        let repro = Repro {
            case: Case {
                target: Target::DyCuckoo,
                policy: SchedulePolicy::FixedOrder,
                workload_seed: 4,
                inject_lock_elision: false,
                layout: LayoutConfig::default(),
                migration_quantum: usize::MAX,
                tier: Tier::Fixed,
                key_dist: LengthDist::Mixed,
                fingerprint: 0,
                miss_filter: false,
                host_par_threads: 0,
                ops: vec![FuzzOp::Insert(1, 1)],
            },
            violation: "z".to_string(),
        };
        let text: String = repro
            .to_ron()
            .lines()
            .filter(|l| !l.contains("fingerprint:") && !l.contains("miss_filter:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(!text.contains("fingerprint"));
        let back = Repro::from_ron(&text).expect("legacy artifact must parse");
        assert_eq!(back, repro);
    }

    #[test]
    fn ron_rejects_bad_fingerprint_width() {
        let good = Repro {
            case: Case {
                target: Target::DyCuckoo,
                policy: SchedulePolicy::FixedOrder,
                workload_seed: 0,
                inject_lock_elision: false,
                layout: LayoutConfig::default(),
                migration_quantum: usize::MAX,
                tier: Tier::Fixed,
                key_dist: LengthDist::Mixed,
                fingerprint: 8,
                miss_filter: false,
                host_par_threads: 0,
                ops: vec![],
            },
            violation: String::new(),
        };
        let bad = good.to_ron().replace("fingerprint: 8", "fingerprint: 7");
        assert!(Repro::from_ron(&bad).is_err());
    }

    /// A fingerprint gate charges memory lines, never lookups or rounds —
    /// so a gated run must not only pass the oracle on every gated tier
    /// but produce the *same digest* as the bare run, case for case.
    #[test]
    fn fingerprint_gate_leaves_every_digest_unchanged() {
        for (target, tier) in [
            (Target::DyCuckoo, Tier::Fixed),
            (Target::WideDyCuckoo, Tier::Fixed),
            (Target::KvService, Tier::Fixed),
            (Target::DyCuckoo, Tier::Unsized),
        ] {
            for quantum in [usize::MAX, 8] {
                let base = Case {
                    target,
                    policy: SchedulePolicy::Shuffled { seed: 13 },
                    workload_seed: 13,
                    inject_lock_elision: false,
                    layout: LayoutConfig::parse("aos32", 4, 4).unwrap(),
                    migration_quantum: quantum,
                    tier,
                    key_dist: LengthDist::Mixed,
                    fingerprint: 0,
                    miss_filter: false,
                    host_par_threads: 0,
                    ops: gen_ops(13, 160),
                };
                let bare = run_case(&base)
                    .unwrap_or_else(|v| panic!("{} bare q={quantum}: {v}", target.name()));
                for fp in [8u8, 16] {
                    let gated = Case {
                        fingerprint: fp,
                        ..base.clone()
                    };
                    let d = run_case(&gated)
                        .unwrap_or_else(|v| panic!("{} fp{fp} q={quantum}: {v}", target.name()));
                    assert_eq!(
                        d,
                        bare,
                        "{} fp{fp} q={quantum}: gate changed the digest",
                        target.name()
                    );
                }
            }
        }
    }

    /// The miss shield sheds provably-absent gets at submission time; the
    /// service oracle must stay reference-exact under every policy it
    /// sweeps, with and without in-flight migration.
    #[test]
    fn service_oracle_passes_with_miss_filter() {
        for seed in [0u64, 7, 19] {
            for quantum in [usize::MAX, 8] {
                let case = Case {
                    target: Target::KvService,
                    policy: SchedulePolicy::from_seed(seed),
                    workload_seed: seed,
                    inject_lock_elision: false,
                    layout: LayoutConfig::default(),
                    migration_quantum: quantum,
                    tier: Tier::Fixed,
                    key_dist: LengthDist::Mixed,
                    fingerprint: 0,
                    miss_filter: true,
                    host_par_threads: 0,
                    ops: gen_ops(seed, 160),
                };
                let a = run_case(&case).unwrap_or_else(|v| panic!("seed={seed} q={quantum}: {v}"));
                let b = run_case(&case).expect("second run");
                assert_eq!(a, b, "seed={seed} q={quantum}: digest unstable");
            }
        }
    }

    /// The host-par differential passes on the table and service targets
    /// at 1, 2 and 8 threads — and, because the returned digest is always
    /// the sim execution's, arming it must leave every digest untouched.
    #[test]
    fn host_par_diff_passes_and_leaves_the_digest_unchanged() {
        for target in [Target::DyCuckoo, Target::KvService] {
            for seed in [0u64, 9] {
                let base = Case {
                    target,
                    policy: SchedulePolicy::from_seed(seed),
                    workload_seed: seed,
                    inject_lock_elision: false,
                    layout: LayoutConfig::default(),
                    migration_quantum: usize::MAX,
                    tier: Tier::Fixed,
                    key_dist: LengthDist::Mixed,
                    fingerprint: 0,
                    miss_filter: false,
                    host_par_threads: 0,
                    ops: gen_ops(seed, 160),
                };
                let bare = run_case(&base)
                    .unwrap_or_else(|v| panic!("{} seed={seed} bare: {v}", target.name()));
                for threads in [1usize, 2, 8] {
                    let par = Case {
                        host_par_threads: threads,
                        ..base.clone()
                    };
                    let d = run_case(&par).unwrap_or_else(|v| {
                        panic!("{} seed={seed} threads={threads}: {v}", target.name())
                    });
                    assert_eq!(
                        d,
                        bare,
                        "{} seed={seed} threads={threads}: differential moved the digest",
                        target.name()
                    );
                }
            }
        }
    }

    /// The differential also holds mid-migration and with the miss shield
    /// armed on the service target — the threaded backend must track the
    /// sim through incremental drains and shed gets alike.
    #[test]
    fn host_par_diff_passes_mid_migration_and_with_miss_filter() {
        let case = Case {
            target: Target::KvService,
            policy: SchedulePolicy::Shuffled { seed: 23 },
            workload_seed: 23,
            inject_lock_elision: false,
            layout: LayoutConfig::default(),
            migration_quantum: 8,
            tier: Tier::Fixed,
            key_dist: LengthDist::Mixed,
            fingerprint: 0,
            miss_filter: true,
            host_par_threads: 4,
            ops: gen_ops(23, 160),
        };
        let a = run_case(&case).unwrap_or_else(|v| panic!("{v}"));
        let b = run_case(&case).expect("second run");
        assert_eq!(a, b, "digest unstable");
    }

    #[test]
    fn ron_roundtrips_host_par_threads() {
        let repro = Repro {
            case: Case {
                target: Target::KvService,
                policy: SchedulePolicy::FixedOrder,
                workload_seed: 31,
                inject_lock_elision: false,
                layout: LayoutConfig::default(),
                migration_quantum: usize::MAX,
                tier: Tier::Fixed,
                key_dist: LengthDist::Mixed,
                fingerprint: 0,
                miss_filter: false,
                host_par_threads: 8,
                ops: vec![FuzzOp::Insert(2, 3), FuzzOp::Find(2)],
            },
            violation: "host-par digest diverged".to_string(),
        };
        let text = repro.to_ron();
        assert!(text.contains("host_par_threads: 8"));
        let back = Repro::from_ron(&text).expect("parse");
        assert_eq!(back, repro);
        // A sim-only case emits no field at all, keeping the historical
        // artifact shape byte-identical.
        let sim_only = Repro {
            case: Case {
                host_par_threads: 0,
                ..repro.case.clone()
            },
            violation: String::new(),
        };
        assert!(!sim_only.to_ron().contains("host_par_threads"));
        let back = Repro::from_ron(&sim_only.to_ron()).expect("parse sim-only");
        assert_eq!(back, sim_only);
    }

    #[test]
    fn gen_ops_rmw_is_deterministic_and_emits_every_verb() {
        let a = gen_ops_rmw(7, 300);
        assert_eq!(a, gen_ops_rmw(7, 300));
        assert_eq!(a.len(), 300);
        assert!(a.iter().any(|o| matches!(o, FuzzOp::Insert(..))));
        assert!(a.iter().any(|o| matches!(o, FuzzOp::Find(_))));
        assert!(a.iter().any(|o| matches!(o, FuzzOp::Delete(_))));
        assert!(a.iter().any(|o| matches!(o, FuzzOp::Upsert(..))));
        assert!(a.iter().any(|o| matches!(o, FuzzOp::Increment(_))));
        // Duplicate keys inside one upsert batch must survive batching —
        // they are what exercises the engines' pre-coalescing.
        let mut saw_dup = false;
        for seed in 0..8 {
            for b in batches(&gen_ops_rmw(seed, 300)) {
                if let Batch::Upsert(kvs, _) = b {
                    let mut keys: Vec<u32> = kvs.iter().map(|&(k, _)| k).collect();
                    keys.sort_unstable();
                    let n = keys.len();
                    keys.dedup();
                    saw_dup |= keys.len() < n;
                }
            }
        }
        assert!(saw_dup, "no upsert batch ever held a duplicate key");
    }

    /// Eight concrete schedule policies — every variant, two parameter
    /// draws for the seeded ones. The RMW oracle must be reference-exact
    /// and digest-stable under each, on the core table and the service.
    #[test]
    fn rmw_oracle_passes_under_every_policy() {
        let policies = [
            SchedulePolicy::FixedOrder,
            SchedulePolicy::Reversed,
            SchedulePolicy::Rotating { stride: 1 },
            SchedulePolicy::Rotating { stride: 3 },
            SchedulePolicy::Shuffled { seed: 7 },
            SchedulePolicy::Shuffled { seed: 29 },
            SchedulePolicy::ContendedFirst { seed: 5 },
            SchedulePolicy::ContendedFirst { seed: 31 },
        ];
        for target in [Target::DyCuckoo, Target::KvService] {
            for policy in policies {
                let case = Case {
                    target,
                    policy,
                    workload_seed: 41,
                    inject_lock_elision: false,
                    layout: LayoutConfig::default(),
                    migration_quantum: usize::MAX,
                    tier: Tier::Fixed,
                    key_dist: LengthDist::Mixed,
                    fingerprint: 0,
                    miss_filter: false,
                    host_par_threads: 0,
                    ops: gen_ops_rmw(41, 200),
                };
                let a =
                    run_case(&case).unwrap_or_else(|v| panic!("{} {policy:?}: {v}", target.name()));
                let b = run_case(&case).expect("second run");
                assert_eq!(a, b, "{} {policy:?}: digest unstable", target.name());
            }
        }
    }

    /// RMW ops stay reference-exact while an incremental migration is in
    /// flight, on every tier that migrates: merge state must never be
    /// duplicated or dropped across the old/new table routing.
    #[test]
    fn rmw_oracle_passes_mid_migration_on_every_tier() {
        for (target, tier) in [
            (Target::DyCuckoo, Tier::Fixed),
            (Target::WideDyCuckoo, Tier::Fixed),
            (Target::KvService, Tier::Fixed),
            (Target::DyCuckoo, Tier::Unsized),
        ] {
            for quantum in [2usize, 8] {
                let case = Case {
                    target,
                    policy: SchedulePolicy::Shuffled { seed: 43 },
                    workload_seed: 43,
                    inject_lock_elision: false,
                    layout: LayoutConfig::default(),
                    migration_quantum: quantum,
                    tier,
                    key_dist: LengthDist::Mixed,
                    fingerprint: 0,
                    miss_filter: false,
                    host_par_threads: 0,
                    ops: gen_ops_rmw(43, 200),
                };
                let a = run_case(&case)
                    .unwrap_or_else(|v| panic!("{} {:?} q={quantum}: {v}", target.name(), tier));
                let b = run_case(&case).expect("second run");
                assert_eq!(a, b, "{} {tier:?} q={quantum}", target.name());
            }
        }
    }

    /// The host-par differential holds for RMW workloads at 1, 2 and 8
    /// threads on both the raw table and the service — the stripe-lock
    /// merge path must produce the same final logical map as the sim.
    #[test]
    fn rmw_host_par_diff_passes_at_every_thread_count() {
        for target in [Target::DyCuckoo, Target::KvService] {
            for threads in [1usize, 2, 8] {
                let case = Case {
                    target,
                    policy: SchedulePolicy::ContendedFirst { seed: 47 },
                    workload_seed: 47,
                    inject_lock_elision: false,
                    layout: LayoutConfig::default(),
                    migration_quantum: usize::MAX,
                    tier: Tier::Fixed,
                    key_dist: LengthDist::Mixed,
                    fingerprint: 0,
                    miss_filter: false,
                    host_par_threads: threads,
                    ops: gen_ops_rmw(47, 200),
                };
                run_case(&case)
                    .unwrap_or_else(|v| panic!("{} threads={threads}: {v}", target.name()));
            }
        }
    }

    /// The unsized-tier RMW oracle passes on every stock key-length
    /// distribution (inline and spilled values both hit the byte-merge
    /// path in the found-arm).
    #[test]
    fn rmw_unsized_oracle_passes_on_every_stock_distribution() {
        for dist in LengthDist::STOCK {
            let case = Case {
                ops: gen_ops_rmw(11, 160),
                ..unsized_case(dist, usize::MAX, 0)
            };
            let a = run_case(&case).unwrap_or_else(|v| panic!("{}: {v}", dist.name()));
            let b = run_case(&case).expect("second run");
            assert_eq!(a, b, "{}", dist.name());
        }
    }

    #[test]
    fn ron_roundtrips_rmw_ops() {
        let repro = Repro {
            case: Case {
                target: Target::DyCuckoo,
                policy: SchedulePolicy::FixedOrder,
                workload_seed: 51,
                inject_lock_elision: false,
                layout: LayoutConfig::default(),
                migration_quantum: usize::MAX,
                tier: Tier::Fixed,
                key_dist: LengthDist::Mixed,
                fingerprint: 0,
                miss_filter: false,
                host_par_threads: 0,
                ops: vec![
                    FuzzOp::Upsert(3, 9, MergeRule::Add),
                    FuzzOp::Upsert(3, 1, MergeRule::LastWrite),
                    FuzzOp::Increment(3),
                    FuzzOp::Find(3),
                ],
            },
            violation: "merge applied twice".to_string(),
        };
        let text = repro.to_ron();
        assert!(text.contains("Upsert(3, 9, \"add\")"));
        assert!(text.contains("Increment(3)"));
        let back = Repro::from_ron(&text).expect("parse");
        assert_eq!(back, repro);
        let bad = text.replace("\"add\"", "\"bogus\"");
        assert!(Repro::from_ron(&bad).is_err());
    }
}
