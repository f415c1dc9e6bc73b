//! `host-par`: the dynamic cuckoo table on real OS threads.
//!
//! [`ParTable`] is the second execution backend of this crate. It shares
//! the sim backend's decision core — [`crate::table`]'s `TableShape`
//! (hash parameters, candidate routing, eviction destinations) and
//! [`crate::distribute`]'s Theorem-1 steering — but executes against the
//! engine's thread-safe store ([`StripedStore`]: flat atomic lanes, one
//! lock per bucket) with `std::thread::scope` workers instead of
//! simulated warps, so throughput is bounded by the host machine, not by
//! the model.
//!
//! ## Concurrency protocol
//!
//! * **Insert (concurrent phase).** Each worker owns a contiguous chunk
//!   of the batch. Per key it locks *every* candidate bucket, in
//!   canonical ascending `(table, bucket)` order (deadlock-free;
//!   `vendor/interleave` pins the protocol), then — with all candidates
//!   visible and claimed — upserts a duplicate in place or writes the
//!   first empty slot of the steered candidate. Because no key is ever
//!   invisible (moves happen only in the sequential phase) and the whole
//!   candidate set is held, the duplicate check is sound and concurrent
//!   inserts of distinct keys commute.
//! * **Insert (sequential overflow drain).** Keys whose candidate buckets
//!   were all full are collected per worker and drained by the calling
//!   thread after the join: classic cuckoo eviction chains, with a
//!   conflict-free subtable doubling when a chain exhausts
//!   `eviction_limit` — the quiesce-point analogue of the sim backend's
//!   upsize-and-retry.
//! * **Find.** Lock-free, like the paper's find kernel: `find_batch`
//!   takes `&mut self`, so no insert or delete can overlap it, and it
//!   probes through each store's [`StripedRead`] view without touching a
//!   lock or charging a lock failure.
//! * **Delete.** Per-key, single-bucket critical sections: a delete's
//!   probe-and-erase happens under one guard, so double deletes of the
//!   same key serialize and erase exactly once.
//!
//! Every batch verb splits its batch into at most `threads` chunks, spawns
//! a worker for each chunk but the last, and runs the last on the calling
//! thread: a scoped spawn and join costs tens of microseconds, more than
//! a small chunk's work.
//!
//! ## Determinism boundary
//!
//! The **logical** outcome — the final key→value map, `len()`, reply
//! values for find/delete batches whose inputs don't race — is
//! schedule-independent: insert batches of distinct keys commute, and the
//! fuzz oracle's differential gate holds `ParTable` to byte-equality with
//! the `gpu-sim` reference map on every seed × policy sweep. The
//! **physical** outcome — which slot a key lands in, which keys overflow,
//! how many grows trigger, contention counters — depends on the OS
//! schedule and is deliberately excluded from the oracle's digest.
//!
//! Metrics and attribution are per-thread (worker-local [`Metrics`],
//! thread-local [`obs::attr`] state) and merged at quiesce points in
//! chunk order; merging is associative and commutative, so the totals
//! are schedule-independent even though per-thread splits are not.

use gpu_sim::engine::striped::{StripeGuard, StripedRead, StripedStore};
use gpu_sim::engine::SlotWord;
use gpu_sim::{ChargeKind, Metrics};
use obs::attr::{self, Attribution};

use crate::config::Config;
use crate::distribute;
use crate::error::{Error, Result};
use crate::hashfn::splitmix64;
use crate::rmw::MergeRule;
use crate::table::{TableShape, MAX_INSERT_RETRIES, MAX_TABLES};

/// What one batch did, from the caller's point of view.
///
/// `inserted` and `updated` are logical counts and schedule-independent;
/// `overflowed` (keys that took the sequential drain) and `grows` are
/// physical counts that may vary run to run under contention.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParReport {
    /// Fresh keys placed (concurrent phase or drain).
    pub inserted: u64,
    /// Existing keys whose value was overwritten in place.
    pub updated: u64,
    /// Keys that fell through to the sequential overflow drain.
    pub overflowed: u64,
    /// Subtable doublings performed by the drain.
    pub grows: u64,
}

/// The host-parallel dynamic cuckoo table. See the module docs for the
/// locking protocol and the determinism boundary.
pub struct ParTable {
    shape: TableShape,
    tables: Vec<StripedStore<u32, u32>>,
    threads: usize,
    metrics: Metrics,
    attribution: Attribution,
    profile: bool,
    grows: u64,
}

/// Outcome of the concurrent-phase placement attempt for one key.
enum Placed {
    Updated,
    Inserted,
    Overflow,
}

/// What one chunk's run hands back at the join: its result plus its
/// private metrics and attribution windows for the quiesce-point merge.
struct Window<R> {
    out: R,
    metrics: Metrics,
    attr: Option<Attribution>,
}

/// One insert chunk's result: its overflow keys (in chunk order) and its
/// inserted/updated counts.
#[derive(Default)]
struct InsertChunk {
    overflow: Vec<(u32, u32)>,
    inserted: u64,
    updated: u64,
}

/// Run `work` over at most `threads` contiguous chunks of `items`: every
/// chunk but the last on a scoped worker, the last on the calling thread.
/// Each chunk runs against private [`Metrics`] and, when `profile` is on,
/// a fresh `obs::attr` session on its thread. Windows come back in chunk
/// order.
fn run_chunks<T: Sync, R: Send>(
    threads: usize,
    profile: bool,
    items: &[T],
    work: impl Fn(&[T], &mut Metrics) -> R + Sync,
) -> Vec<Window<R>> {
    let run = |chunk: &[T]| {
        if profile {
            attr::start();
        }
        let mut metrics = Metrics::default();
        let out = work(chunk, &mut metrics);
        Window {
            out,
            metrics,
            attr: profile.then(attr::stop),
        }
    };
    let run = &run;
    let mut chunks = items.chunks(items.len().div_ceil(threads).max(1));
    let last = chunks.next_back().expect("batch is non-empty");
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks.map(|c| scope.spawn(move || run(c))).collect();
        let tail = run(last);
        let mut windows: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("host-par worker panicked"))
            .collect();
        windows.push(tail);
        windows
    })
}

/// Voter-style acquire of bucket `b`: a failed `try_lock` is charged as a
/// lock failure, then the worker blocks on the same bucket.
fn lock_counted<'a>(
    store: &'a StripedStore<u32, u32>,
    b: usize,
    m: &mut Metrics,
) -> StripeGuard<'a, u32, u32> {
    store.try_lock_stripe(b).unwrap_or_else(|| {
        m.charge(ChargeKind::LockFailures, 1);
        store.lock_stripe(b)
    })
}

/// The guards of a key's candidate buckets; `guards[i]` holds candidate
/// `i`'s bucket.
struct CandGuards<'a> {
    guards: [Option<StripeGuard<'a, u32, u32>>; MAX_TABLES],
}

impl<'a> CandGuards<'a> {
    /// Lock every candidate `(table, bucket)` of `locs`, in canonical
    /// ascending order, each voter-style ([`lock_counted`]: order is
    /// preserved, so the protocol stays deadlock-free). Candidate tables
    /// are distinct, so no bucket is listed twice.
    fn acquire(
        tables: &'a [StripedStore<u32, u32>],
        locs: &[(usize, usize)],
        m: &mut Metrics,
    ) -> Self {
        let mut order: [usize; MAX_TABLES] = std::array::from_fn(|i| i);
        let order = &mut order[..locs.len()];
        order.sort_unstable_by_key(|&i| locs[i]);
        debug_assert!(
            order.windows(2).all(|w| locs[w[0]] < locs[w[1]]),
            "a candidate bucket is listed twice"
        );
        let mut guards: [Option<StripeGuard<'a, u32, u32>>; MAX_TABLES] = Default::default();
        for &i in order.iter() {
            let (t, b) = locs[i];
            guards[i] = Some(lock_counted(&tables[t], b, m));
        }
        Self { guards }
    }

    fn get(&mut self, i: usize) -> &mut StripeGuard<'a, u32, u32> {
        self.guards[i].as_mut().expect("candidate bucket locked")
    }
}

/// Concurrent-phase placement of one key: all candidate buckets held,
/// merge a duplicate in place (inside the probe-duplicate-then-claim
/// critical section — the guards cover every candidate, so the duplicate
/// check and the merge are one atomic step) or claim an empty slot; full
/// candidates overflow to the drain.
fn par_insert_one(
    shape: &TableShape,
    tables: &[StripedStore<u32, u32>],
    key: u32,
    val: u32,
    rule: MergeRule,
    m: &mut Metrics,
) -> Placed {
    let cands = shape.candidates(key);
    let mut locs = [(0usize, 0usize); MAX_TABLES];
    for (loc, t) in locs.iter_mut().zip(cands.iter()) {
        *loc = (t, shape.hashes[t].bucket(key, tables[t].n_buckets()));
    }
    let locs = &locs[..cands.len()];
    let mut held = CandGuards::acquire(tables, locs, m);
    // Upsert: with every candidate bucket claimed, a duplicate anywhere
    // is visible — the check is sound under concurrency.
    for (i, &(_, b)) in locs.iter().enumerate() {
        m.charge(ChargeKind::Lookups, 1);
        let g = held.get(i);
        if let Some(slot) = g.find_slot(b, key) {
            let new = if rule.reads_old() {
                rule.merge(g.slot(b, slot).1, val)
            } else {
                val
            };
            g.update_val(b, slot, new);
            m.charge(ChargeKind::Ops, 1);
            return Placed::Updated;
        }
    }
    // Fresh insert: steered candidate first, then any other with room.
    let steered = distribute::choose_among_by(
        shape.cfg.distribution,
        |c| distribute::weight_of(tables[c].capacity_slots(), tables[c].occupied()),
        &cands.to_array()[..cands.len()],
        shape.cfg.seed,
        key,
        0,
    );
    let is_steered = |i: &usize| locs[*i].0 == steered;
    let order = (0..locs.len())
        .filter(is_steered)
        .chain((0..locs.len()).filter(|i| !is_steered(i)));
    for i in order {
        let b = locs[i].1;
        let g = held.get(i);
        if let Some(slot) = g.find_empty(b) {
            g.write_new(b, slot, key, rule.initial(val));
            m.charge(ChargeKind::Ops, 1);
            return Placed::Inserted;
        }
    }
    Placed::Overflow
}

/// Lock-free lookup of one key through the subtables' read views.
fn find_one(
    shape: &TableShape,
    views: &[StripedRead<'_, u32, u32>],
    key: u32,
    m: &mut Metrics,
) -> Option<u32> {
    if key == 0 {
        return None;
    }
    let mut hit = None;
    for t in shape.candidates(key).iter() {
        let view = views[t];
        m.charge(ChargeKind::Lookups, 1);
        hit = view.get(shape.hashes[t].bucket(key, view.n_buckets()), key);
        if hit.is_some() {
            break;
        }
    }
    m.charge(ChargeKind::Ops, 1);
    hit
}

/// Fold a batch's duplicate keys into one `(key, arg)` per unique key in
/// first-touch order, returning the effective rule (`Count` occurrences
/// normalize to one `Add` of the occurrence count). With unique keys, the
/// concurrent phase applies at most one merge per key against the
/// pre-batch value, so the final map is schedule-independent.
fn coalesce_rmw(kvs: &[(u32, u32)], rule: MergeRule) -> (MergeRule, Vec<(u32, u32)>) {
    let eff = match rule {
        MergeRule::Count => MergeRule::Add,
        r => r,
    };
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(kvs.len());
    let mut index: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for &(k, arg) in kvs {
        let a = if rule == MergeRule::Count { 1 } else { arg };
        match index.entry(k) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let i = *e.get();
                out[i].1 = eff.fold_args(out[i].1, a).expect("Count normalized to Add");
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(out.len());
                out.push((k, a));
            }
        }
    }
    (eff, out)
}

impl ParTable {
    /// Create a table with one lock per bucket (the closest analogue of
    /// the sim backend's per-bucket `atomicCAS` locks).
    pub fn new(cfg: Config, threads: usize) -> Result<Self> {
        cfg.validate()?;
        cfg.check_words::<u32, u32>()?;
        if threads == 0 {
            return Err(Error::InvalidConfig(
                "host-par needs at least one worker thread".to_string(),
            ));
        }
        let shape = TableShape::from_config(cfg);
        let tables = (0..cfg.num_tables)
            .map(|_| StripedStore::new(cfg.initial_buckets, cfg.layout))
            .collect();
        Ok(Self {
            shape,
            tables,
            threads,
            metrics: Metrics::default(),
            attribution: Attribution::default(),
            profile: false,
            grows: 0,
        })
    }

    /// The table's configuration.
    pub fn config(&self) -> &Config {
        &self.shape.cfg
    }

    /// Worker threads used per batch (the calling thread counts as one).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Change the worker-thread count (takes effect on the next batch).
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "host-par needs at least one worker thread");
        self.threads = threads;
    }

    /// Live KV pairs.
    pub fn len(&self) -> u64 {
        self.tables.iter().map(|t| t.occupied()).sum()
    }

    /// Whether the table holds no KV pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total key slots across all subtables.
    pub fn capacity_slots(&self) -> u64 {
        self.tables.iter().map(|t| t.capacity_slots()).sum()
    }

    /// Subtable doublings performed so far.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Metrics merged from every worker so far (chunk-order merge;
    /// totals are schedule-independent).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Reset the metrics window, returning what was accumulated.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.metrics)
    }

    /// Enable/disable per-thread cost attribution. While enabled, a batch
    /// call owns the **calling thread's** thread-local `obs::attr` state
    /// for the whole call — the calling thread runs the batch's last
    /// chunk and the sequential drain under sessions of its own, so an
    /// active caller profiler would be clobbered — and every chunk's
    /// attribution window is merged into [`ParTable::take_attribution`].
    pub fn set_profiling(&mut self, on: bool) {
        self.profile = on;
    }

    /// Drain the merged per-thread attribution accumulated while
    /// profiling was enabled.
    pub fn take_attribution(&mut self) -> Attribution {
        std::mem::take(&mut self.attribution)
    }

    fn bucket_of(&self, t: usize, key: u32) -> usize {
        self.shape.hashes[t].bucket(key, self.tables[t].n_buckets())
    }

    /// Quiesce point: merge the chunks' windows in chunk order, returning
    /// their results in the same order.
    fn merge_windows<R>(&mut self, windows: Vec<Window<R>>) -> Vec<R> {
        windows
            .into_iter()
            .map(|w| {
                self.metrics.merge(&w.metrics);
                if let Some(a) = &w.attr {
                    self.attribution.merge(a);
                }
                w.out
            })
            .collect()
    }

    /// Insert (upsert) a batch. Concurrent phase on scoped worker
    /// threads, then the sequential overflow drain; returns the batch
    /// report. Key 0 is reserved and rejected, as in the sim backend.
    pub fn insert_batch(&mut self, kvs: &[(u32, u32)]) -> Result<ParReport> {
        if kvs.iter().any(|&(k, _)| k == 0) {
            return Err(Error::ZeroKey);
        }
        self.batch_impl(kvs, MergeRule::LastWrite)
    }

    /// Read-modify-write a batch under `rule` (host-par analogue of
    /// [`crate::DyCuckoo::upsert_batch`]): absent keys insert
    /// `rule.initial(arg)`, present keys merge inside the candidate-guard
    /// critical section. Duplicate keys are pre-coalesced in submission
    /// order, so the final logical map matches the sim backend at any
    /// thread count.
    pub fn upsert_batch(&mut self, kvs: &[(u32, u32)], rule: MergeRule) -> Result<ParReport> {
        if kvs.iter().any(|&(k, _)| k == 0) {
            return Err(Error::ZeroKey);
        }
        let (eff, entries) = coalesce_rmw(kvs, rule);
        self.batch_impl(&entries, eff)
    }

    /// Counting-table special case: bump each key's counter by its number
    /// of occurrences in the batch, inserting absent keys at their count.
    pub fn increment_batch(&mut self, keys: &[u32]) -> Result<ParReport> {
        let kvs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, 0)).collect();
        self.upsert_batch(&kvs, MergeRule::Count)
    }

    fn batch_impl(&mut self, kvs: &[(u32, u32)], rule: MergeRule) -> Result<ParReport> {
        let mut report = ParReport::default();
        if kvs.is_empty() {
            return Ok(report);
        }
        let grows_before = self.grows;
        let (shape, tables) = (&self.shape, &self.tables);
        let windows = run_chunks(self.threads, self.profile, kvs, |chunk, m| {
            let mut out = InsertChunk::default();
            for &(k, v) in chunk {
                match par_insert_one(shape, tables, k, v, rule, m) {
                    Placed::Updated => out.updated += 1,
                    Placed::Inserted => out.inserted += 1,
                    Placed::Overflow => out.overflow.push((k, v)),
                }
            }
            out
        });
        // Collect the overflow in chunk order.
        let mut overflow = Vec::new();
        for chunk in self.merge_windows(windows) {
            report.inserted += chunk.inserted;
            report.updated += chunk.updated;
            overflow.extend(chunk.overflow);
        }
        // Sequential drain: eviction chains and grows, one thread, locks
        // uncontended.
        report.overflowed = overflow.len() as u64;
        if self.profile {
            attr::start();
        }
        let mut drain_result = Ok(());
        for (k, v) in overflow {
            // An overflowed key is absent (batch keys are unique after
            // coalescing and the dup scan held every candidate), so the
            // drain inserts the materialized initial value.
            if let Err(e) = self.seq_insert(k, rule.initial(v)) {
                drain_result = Err(e);
                break;
            }
            report.inserted += 1;
        }
        if self.profile {
            let a = attr::stop();
            self.attribution.merge(&a);
        }
        drain_result?;
        report.grows = self.grows - grows_before;
        Ok(report)
    }

    /// Place one key sequentially, doubling a subtable and retrying with
    /// the homeless pair whenever an eviction chain exhausts the limit.
    fn seq_insert(&mut self, key: u32, val: u32) -> Result<()> {
        let (mut k, mut v) = (key, val);
        for _ in 0..MAX_INSERT_RETRIES {
            match self.seq_try_place(k, v) {
                None => return Ok(()),
                Some((hk, hv)) => {
                    self.grow_smallest();
                    (k, v) = (hk, hv);
                }
            }
        }
        Err(Error::InsertStuck { failed_ops: 1 })
    }

    /// One sequential placement attempt. `None` on success; on eviction
    /// failure, the pair left holding no slot (for retry after a grow).
    fn seq_try_place(&mut self, key: u32, val: u32) -> Option<(u32, u32)> {
        let cands = self.shape.candidates(key);
        // Upsert check across all candidates.
        for t in cands.iter() {
            let b = self.bucket_of(t, key);
            self.metrics.charge(ChargeKind::Lookups, 1);
            let mut g = self.tables[t].lock_stripe(b);
            if let Some(s) = g.find_slot(b, key) {
                g.update_val(b, s, val);
                self.metrics.charge(ChargeKind::Ops, 1);
                return None;
            }
        }
        let steered = distribute::choose_among_by(
            self.shape.cfg.distribution,
            |c| distribute::weight_of(self.tables[c].capacity_slots(), self.tables[c].occupied()),
            &cands.to_array()[..cands.len()],
            self.shape.cfg.seed,
            key,
            0,
        );
        // Room in any candidate, steered first?
        for t in std::iter::once(steered).chain(cands.iter().filter(|&t| t != steered)) {
            let b = self.bucket_of(t, key);
            let mut g = self.tables[t].lock_stripe(b);
            if let Some(s) = g.find_empty(b) {
                g.write_new(b, s, key, val);
                self.metrics.charge(ChargeKind::Ops, 1);
                return None;
            }
        }
        // Eviction chain from the steered bucket.
        let (mut k, mut v, mut t) = (key, val, steered);
        for depth in 0..self.shape.cfg.eviction_limit as u64 {
            let b = self.bucket_of(t, k);
            let store = &self.tables[t];
            let mut g = store.lock_stripe(b);
            if let Some(s) = g.find_empty(b) {
                g.write_new(b, s, k, v);
                self.metrics.charge(ChargeKind::Ops, 1);
                return None;
            }
            // Uniform deterministic victim (randomized so chains don't
            // cycle; physical placement is outside the oracle's digest).
            let slots = store.slots_per_bucket() as u64;
            let slot =
                (splitmix64(self.shape.cfg.seed ^ ((k as u64) << 20) ^ depth) % slots) as usize;
            let (vk, vv) = g.swap(b, slot, k, v);
            drop(g);
            self.metrics.charge(ChargeKind::Evictions, 1);
            let mut viable = [0usize; MAX_TABLES];
            let mut n_viable = 0;
            for c in self.shape.candidates(vk).iter().filter(|&c| c != t) {
                viable[n_viable] = c;
                n_viable += 1;
            }
            debug_assert!(n_viable > 0, "victim with no alternate subtable");
            let dest = distribute::choose_among_by(
                self.shape.cfg.distribution,
                |c| {
                    distribute::weight_of(
                        self.tables[c].capacity_slots(),
                        self.tables[c].occupied(),
                    )
                },
                &viable[..n_viable],
                self.shape.cfg.seed,
                vk,
                depth + 1,
            );
            (k, v, t) = (vk, vv, dest);
        }
        Some((k, v))
    }

    /// Double the smallest subtable, rehashing its pairs. Conflict-free:
    /// under doubling, a key's bucket either stays or moves up by the old
    /// count, so no destination bucket can overfill.
    fn grow_smallest(&mut self) {
        let t = (0..self.tables.len())
            .min_by_key(|&i| (self.tables[i].capacity_slots(), i))
            .expect("at least two subtables");
        let n_new = self.tables[t].n_buckets() * 2;
        let mut old = std::mem::replace(
            &mut self.tables[t],
            StripedStore::new(n_new, self.shape.cfg.layout),
        );
        for (k, v) in old.live_pairs() {
            let b = self.shape.hashes[t].bucket(k, n_new);
            let mut g = self.tables[t].lock_stripe(b);
            let s = g
                .find_empty(b)
                .expect("conflict-free doubling cannot overfill a bucket");
            g.write_new(b, s, k, v);
        }
        self.grows += 1;
    }

    /// Look up a batch of keys, results aligned with `keys`. Lock-free:
    /// `&mut self` excludes every writer for the whole call, so the
    /// workers read through shared [`StripedRead`] views. Key 0 (the
    /// empty sentinel) always misses.
    pub fn find_batch(&mut self, keys: &[u32]) -> Vec<Option<u32>> {
        if keys.is_empty() {
            return Vec::new();
        }
        let shape = &self.shape;
        let views: Vec<StripedRead<'_, u32, u32>> = self
            .tables
            .iter_mut()
            .map(StripedStore::read_view)
            .collect();
        let windows = run_chunks(self.threads, self.profile, keys, |chunk, m| {
            chunk
                .iter()
                .map(|&key| find_one(shape, &views, key, m))
                .collect::<Vec<_>>()
        });
        let mut out = Vec::with_capacity(keys.len());
        for chunk in self.merge_windows(windows) {
            out.extend(chunk);
        }
        out
    }

    /// Delete a batch of keys on the worker threads, returning how many
    /// live keys were erased. Probe-and-erase is a single critical
    /// section per bucket, so duplicate keys in one batch erase once.
    pub fn delete_batch(&mut self, keys: &[u32]) -> u64 {
        if keys.is_empty() {
            return 0;
        }
        let (shape, tables) = (&self.shape, &self.tables);
        let windows = run_chunks(self.threads, self.profile, keys, |chunk, m| {
            let mut erased = 0u64;
            for &key in chunk {
                if key == 0 {
                    continue;
                }
                for t in shape.candidates(key).iter() {
                    let b = shape.hashes[t].bucket(key, tables[t].n_buckets());
                    m.charge(ChargeKind::Lookups, 1);
                    let mut g = lock_counted(&tables[t], b, m);
                    if let Some(s) = g.find_slot(b, key) {
                        g.erase(b, s);
                        erased += 1;
                        break;
                    }
                }
                m.charge(ChargeKind::Ops, 1);
            }
            erased
        });
        self.merge_windows(windows).into_iter().sum()
    }

    /// All live `(key, value)` pairs (unordered across subtables;
    /// oracle-side comparisons sort or build a map). `&mut self` proves
    /// quiescence.
    pub fn live_pairs(&mut self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for t in &mut self.tables {
            out.extend(t.live_pairs());
        }
        out
    }

    /// Structural integrity sweep over the stores' own lanes: occupancy
    /// counters match the key lanes, every live key sits in its hash
    /// bucket of a candidate subtable, no key is stored twice, and — under
    /// a fingerprint layout — every live slot's tag is
    /// `fp_hash(key) % fp_max + 1` and every empty slot's tag is 0.
    /// Test/debug helper.
    pub fn verify(&mut self) -> std::result::Result<(), String> {
        let layout = self.shape.cfg.layout;
        let mut seen = std::collections::HashMap::new();
        for (t, store) in self.tables.iter_mut().enumerate() {
            let occ = store.occupied();
            let rec = store.recount();
            if occ != rec {
                return Err(format!("table {t}: occupied() = {occ}, recount = {rec}"));
            }
            let view = store.read_view();
            for b in 0..view.n_buckets() {
                for s in 0..layout.slots {
                    let k = view.key(b, s);
                    if layout.has_fp() {
                        let tag = view
                            .fp(b, s)
                            .ok_or_else(|| format!("table {t}: fingerprint lane missing"))?;
                        let want = if k == 0 {
                            0
                        } else {
                            (k.fp_hash() % layout.fp_max() + 1) as u16
                        };
                        if tag != want {
                            return Err(format!(
                                "table {t}: bucket {b} slot {s} (key {k}) has tag {tag}, want {want}"
                            ));
                        }
                    }
                    if k == 0 {
                        continue;
                    }
                    let want = self.shape.hashes[t].bucket(k, view.n_buckets());
                    if want != b {
                        return Err(format!(
                            "table {t}: key {k} in bucket {b}, hashes to {want}"
                        ));
                    }
                    if !self.shape.candidates(k).contains(t) {
                        return Err(format!("key {k} stored outside its candidate set"));
                    }
                    *seen.entry(k).or_insert(0u32) += 1;
                }
            }
        }
        if let Some((k, n)) = seen.iter().find(|&(_, &n)| n > 1) {
            return Err(format!("key {k} stored {n} times"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn cfg() -> Config {
        Config {
            initial_buckets: 4,
            ..Config::default()
        }
    }

    #[test]
    fn insert_find_delete_roundtrip() {
        let mut t = ParTable::new(cfg(), 4).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=500u32).map(|k| (k, k * 7)).collect();
        let r = t.insert_batch(&kvs).unwrap();
        assert_eq!(r.inserted, 500);
        assert_eq!(r.updated, 0);
        assert_eq!(t.len(), 500);
        t.verify().unwrap();
        let keys: Vec<u32> = kvs.iter().map(|&(k, _)| k).collect();
        let got = t.find_batch(&keys);
        for (&(k, v), g) in kvs.iter().zip(&got) {
            assert_eq!(*g, Some(v), "key {k}");
        }
        assert_eq!(t.find_batch(&[0, 100_000]), vec![None, None]);
        let erased = t.delete_batch(&keys[..100]);
        assert_eq!(erased, 100);
        assert_eq!(t.len(), 400);
        t.verify().unwrap();
    }

    #[test]
    fn upsert_overwrites_in_place() {
        let mut t = ParTable::new(cfg(), 2).unwrap();
        t.insert_batch(&[(7, 1), (8, 2)]).unwrap();
        let r = t.insert_batch(&[(7, 9)]).unwrap();
        assert_eq!(r.updated, 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.find_batch(&[7]), vec![Some(9)]);
    }

    #[test]
    fn final_map_is_schedule_independent() {
        // Same batches under 1 and 8 threads: identical logical content,
        // whatever the interleaving did to physical placement.
        let mut reference: HashMap<u32, u32> = HashMap::new();
        let mut maps = Vec::new();
        for threads in [1usize, 8] {
            let mut t = ParTable::new(cfg(), threads).unwrap();
            for round in 0..6u32 {
                let kvs: Vec<(u32, u32)> = (1..=400u32)
                    .map(|k| (k + (round % 3) * 100, k * 31 + round))
                    .collect();
                t.insert_batch(&kvs).unwrap();
                if threads == 1 {
                    for &(k, v) in &kvs {
                        reference.insert(k, v);
                    }
                }
                let dels: Vec<u32> = (1..=40u32).map(|k| k * 7 + round).collect();
                t.delete_batch(&dels);
                if threads == 1 {
                    for k in &dels {
                        reference.remove(k);
                    }
                }
            }
            t.verify().unwrap();
            let mut pairs = t.live_pairs();
            pairs.sort_unstable();
            maps.push(pairs);
        }
        assert_eq!(maps[0], maps[1]);
        let as_map: HashMap<u32, u32> = maps[0].iter().copied().collect();
        assert_eq!(as_map, reference);
    }

    #[test]
    fn grows_absorb_overfull_batches() {
        // 4 subtables × 4 buckets × 32 slots = 512 slots; 2000 distinct
        // keys force repeated doublings through the overflow drain.
        let mut t = ParTable::new(cfg(), 4).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=2000u32).map(|k| (k, k)).collect();
        let r = t.insert_batch(&kvs).unwrap();
        assert_eq!(r.inserted, 2000);
        assert!(t.grows() > 0, "2000 keys into 512 slots must grow");
        assert_eq!(t.len(), 2000);
        t.verify().unwrap();
        let got = t.find_batch(&kvs.iter().map(|&(k, _)| k).collect::<Vec<_>>());
        assert!(got.iter().all(|g| g.is_some()));
    }

    #[test]
    fn zero_key_is_rejected() {
        let mut t = ParTable::new(cfg(), 2).unwrap();
        assert!(matches!(t.insert_batch(&[(0, 1)]), Err(Error::ZeroKey)));
    }

    #[test]
    fn metrics_accumulate_and_conserve_into_attribution() {
        let mut t = ParTable::new(cfg(), 4).unwrap();
        t.set_profiling(true);
        let kvs: Vec<(u32, u32)> = (1..=600u32).map(|k| (k, k)).collect();
        t.insert_batch(&kvs).unwrap();
        t.find_batch(&[1, 2, 3, 700]);
        t.delete_batch(&[1, 2]);
        let m = t.take_metrics();
        assert_eq!(m.ops, 600 + 4 + 2);
        assert!(m.lookups >= m.ops);
        let a = t.take_attribution();
        for kind in ChargeKind::ALL {
            assert_eq!(a.total(kind), m.get(kind), "{kind:?}");
        }
    }

    #[test]
    fn verify_checks_the_fingerprint_lane_through_every_step() {
        // soa32+fp8, run through insert, upsert, delete and a forced grow;
        // the integrity sweep reads the stores' own fingerprint lanes.
        let cfg = Config {
            layout: gpu_sim::LayoutConfig::default().with_fp(8),
            ..cfg()
        };
        assert!(cfg.layout.has_fp());
        let mut t = ParTable::new(cfg, 4).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=300u32).map(|k| (k, k)).collect();
        t.insert_batch(&kvs).unwrap();
        t.verify().unwrap();
        let adds: Vec<(u32, u32)> = (250..=350u32).map(|k| (k, 5)).collect();
        let r = t.upsert_batch(&adds, MergeRule::Add).unwrap();
        assert_eq!((r.updated, r.inserted), (51, 50));
        t.verify().unwrap();
        let dels: Vec<u32> = (1..=120u32).collect();
        assert_eq!(t.delete_batch(&dels), 120);
        t.verify().unwrap();
        let grow_before = t.grows();
        let more: Vec<(u32, u32)> = (1000..3000u32).map(|k| (k, k)).collect();
        t.insert_batch(&more).unwrap();
        assert!(t.grows() > grow_before, "2,000 more keys must grow");
        t.verify().unwrap();
        assert_eq!(t.len(), 230 + 2000);
        assert_eq!(
            t.find_batch(&[300, 350, 120]),
            vec![Some(305), Some(5), None]
        );
    }
}
