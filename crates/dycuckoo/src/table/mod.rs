//! The public DyCuckoo table: batched operations, resize triggering, and
//! accounting.
//!
//! The implementation is split by concern, mirroring the engine layering:
//!
//! * `storage` — construction, capacity/device-byte accounting (with a
//!   ledger mirroring every gpu-sim allocation) and integrity checks;
//! * `probe` — the batched insert/find/delete entry points that drive the
//!   warp kernels in [`crate::ops`];
//! * `maintenance` — resize triggering, failed-insert retry and the
//!   structural rehash paths.
//!
//! This file holds what all three share: the immutable [`TableShape`], the
//! candidate-set machinery, batch reports and the [`CuckooTable`] struct
//! itself, with its two instantiations: [`DyCuckoo`] over 4-byte words
//! and [`WideDyCuckoo`] over 8-byte words.

mod maintenance;
pub(crate) mod migration;
mod probe;
mod storage;

use crate::config::{Config, BUCKET_SLOTS};
use crate::hashfn::UniversalHash;
use crate::resize::ResizeOp;
use crate::stash::Stash;
use crate::subtable::{SubTable, Word};
use crate::two_layer::PairHash;

/// Operations processed between filled-factor checks within one batch.
/// Keeps θ from badly overshooting β in huge batches while preserving the
/// paper's batch-granular resize semantics at typical batch sizes.
const RESIZE_CHECK_INTERVAL: usize = 1 << 16;

/// Cap on consecutive resize operations while rebalancing; validated
/// configurations converge in a handful.
const MAX_RESIZE_ITERS: u32 = 64;

/// Cap on upsize-and-retry cycles for failed inserts (shared with the
/// host-par backend, whose sequential overflow drain retries the same way).
pub(crate) const MAX_INSERT_RETRIES: u32 = 40;

/// Immutable shape shared by all kernels: configuration and hash functions.
/// Hash functions are fixed at construction and survive every resize — the
/// bucket index is just the raw hash reduced to the current table size.
pub(crate) struct TableShape {
    pub cfg: Config,
    pub pair: PairHash,
    pub hashes: Vec<UniversalHash>,
}

/// The candidate subtables a key may reside in (a tiny fixed-capacity set:
/// 2 for the pair-based layerings, `d` for plain d-ary cuckoo).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidates {
    tables: [u8; MAX_TABLES],
    len: u8,
}

/// Upper bound on `d` (keeps the candidate set a small copyable array).
pub const MAX_TABLES: usize = 16;

impl Candidates {
    fn pair(i: usize, j: usize) -> Self {
        let mut tables = [0u8; MAX_TABLES];
        tables[0] = i as u8;
        tables[1] = j as u8;
        Self { tables, len: 2 }
    }

    fn all(d: usize) -> Self {
        let mut tables = [0u8; MAX_TABLES];
        for (t, slot) in tables.iter_mut().enumerate().take(d) {
            *slot = t as u8;
        }
        Self {
            tables,
            len: d as u8,
        }
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn get(&self, i: usize) -> usize {
        debug_assert!(i < self.len());
        self.tables[i] as usize
    }

    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.tables[..self.len()].iter().map(|&t| t as usize)
    }

    pub fn contains(&self, t: usize) -> bool {
        self.iter().any(|c| c == t)
    }

    /// Position of table `t` within the candidate list.
    pub fn position(&self, t: usize) -> Option<usize> {
        self.iter().position(|c| c == t)
    }

    pub fn as_slice_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// The candidate list widened to `usize`, on the stack:
    /// `&c.to_array()[..c.len()]` is [`Self::as_slice_vec`] without a
    /// heap allocation.
    pub fn to_array(self) -> [usize; MAX_TABLES] {
        self.tables.map(usize::from)
    }
}

impl TableShape {
    /// Derive the shape — hash-function parameters and the config they
    /// came from — every backend shares. The sim backend
    /// ([`DyCuckoo::new`]) and the host-par backend
    /// ([`crate::host_par::ParTable`]) both construct their shape here,
    /// which is what makes their key→candidate-bucket routing identical.
    pub fn from_config(cfg: Config) -> Self {
        let pair = PairHash::new(cfg.seed ^ 0x9E37_79B9, cfg.num_tables);
        let hashes = (0..cfg.num_tables)
            .map(|i| {
                UniversalHash::from_seed(
                    cfg.seed
                        .wrapping_add(0x517C_C1B7_2722_0A95u64.wrapping_mul(i as u64 + 1)),
                )
            })
            .collect();
        Self { cfg, pair, hashes }
    }

    /// The subtables that may hold a key with route value `key`
    /// ([`Word::route`]), per the configured layering.
    pub fn candidates(&self, key: u32) -> Candidates {
        match self.cfg.layering {
            crate::config::Layering::TwoLayer => {
                let (i, j) = self.pair.pair_of(key);
                Candidates::pair(i, j)
            }
            crate::config::Layering::DisjointPairs => {
                let half = self.cfg.num_tables / 2;
                let p = (self.pair.raw(key) % half as u64) as usize;
                Candidates::pair(2 * p, 2 * p + 1)
            }
            crate::config::Layering::PlainD => Candidates::all(self.cfg.num_tables),
        }
    }

    /// Where a key evicted from subtable `t` goes next. For the pair-based
    /// layerings this is the pair's other member; for plain d-ary cuckoo it
    /// is a steered choice among the other subtables. `excluded` (a
    /// subtable mid-downsize) is avoided where legal; `None` means the key
    /// has no admissible destination.
    pub fn evict_destination<K: Word, V: Word>(
        &self,
        tables: &[SubTable<K, V>],
        key: u32,
        t: usize,
        excluded: Option<usize>,
        salt: u64,
    ) -> Option<usize> {
        let cands = self.candidates(key);
        debug_assert!(cands.contains(t), "key {key} not homed in table {t}");
        let viable: Vec<usize> = cands
            .iter()
            .filter(|&c| c != t && Some(c) != excluded)
            .collect();
        match viable.len() {
            0 => None,
            1 => Some(viable[0]),
            _ => Some(crate::distribute::choose_among(
                self.cfg.distribution,
                tables,
                &viable,
                self.cfg.seed,
                key,
                salt,
            )),
        }
    }
}

/// One structural resize performed while processing a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ResizeEvent {
    /// What was resized.
    pub op: ResizeOp,
    /// Bucket count before.
    pub old_buckets: usize,
    /// Bucket count after.
    pub new_buckets: usize,
    /// KVs rehashed within the resized subtable.
    pub moved: u64,
    /// KVs pushed out to partner subtables (downsizing only).
    pub residuals: u64,
}

/// Outcome of one batched operation, including any resizes it triggered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Operations submitted.
    pub attempted: usize,
    /// KVs newly inserted.
    pub inserted: u64,
    /// KVs that updated an existing key.
    pub updated: u64,
    /// Keys erased (delete batches).
    pub deleted: u64,
    /// Upsize-and-retry cycles needed for failed inserts.
    pub retries: u32,
    /// Resizes performed during/after the batch. On the incremental path
    /// (finite [`crate::Config::migration_quantum`]) a resize appears here
    /// only in the batch whose quantum finalized it, carrying the totals
    /// across all its chunks.
    pub resizes: Vec<ResizeEvent>,
    /// Source buckets drained by incremental migration chunks during this
    /// batch — bounded by `migration_quantum` per batch. Always 0 on the
    /// stop-the-world path.
    pub migrated_buckets: u64,
    /// KVs rehashed by those migration chunks (counted per batch; the
    /// finalizing [`ResizeEvent`] reports the same work again as a total,
    /// so sum one or the other, not both).
    pub migrated_kvs: u64,
}

impl BatchReport {
    /// Whether this batch stalled on structural work (a resize ran, an
    /// insert needed upsize-and-retry cycles, or a migration chunk was
    /// pumped). Service layers use this to count resize stalls per shard.
    pub fn resize_stall(&self) -> bool {
        !self.resizes.is_empty() || self.retries > 0 || self.migrated_buckets > 0
    }

    /// Total KVs moved by resizes during the batch (rehashed plus pushed
    /// to partner subtables) — the structural-work volume the batch paid
    /// for beyond its own operations.
    pub fn total_moved(&self) -> u64 {
        self.resizes.iter().map(|e| e.moved + e.residuals).sum()
    }
}

/// Outcome of a batched read-modify-write ([`CuckooTable::upsert_batch`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpsertReport {
    /// The underlying batch outcome (insert/update/resize accounting).
    pub batch: BatchReport,
    /// One flag per input position: `true` iff the op placed its key
    /// fresh (the key was absent immediately before the op applied).
    /// Later occurrences of a duplicated key within the batch are never
    /// fresh — frontier-dedup workloads keep exactly the `true` positions.
    pub fresh: Vec<bool>,
}

impl UpsertReport {
    /// Number of input positions that placed a fresh key.
    pub fn fresh_count(&self) -> usize {
        self.fresh.iter().filter(|&&f| f).count()
    }
}

/// The dynamic two-layer cuckoo hash table of the paper, generic over its
/// key and value [`Word`]s.
///
/// All operations are batched and charged to a [`gpu_sim::SimContext`],
/// whose metrics and cost model yield the simulated throughput. Key `0` is
/// reserved as the empty sentinel. Every hash, pair choice and steering coin reads the
/// key's 32-bit route value ([`Word::route`]); slots store and compare the
/// full key word. Use the [`DyCuckoo`] (4-byte) or [`WideDyCuckoo`]
/// (8-byte) instantiation; the table's [`Config::layout`] must declare the
/// matching word widths.
pub struct CuckooTable<K: Word, V: Word> {
    shape: TableShape,
    tables: Vec<SubTable<K, V>>,
    /// Optional overflow stash (the paper's future-work mitigation for
    /// upsize cascades); `None` when `stash_capacity == 0`.
    stash: Option<Stash<K, V>>,
    /// The incremental-migration state machine (always `Idle` under the
    /// default stop-the-world `migration_quantum = usize::MAX`).
    migration: migration::MigrationMachine<K, V>,
    /// Resize hysteresis ([`crate::resize::Decision`]): suppresses
    /// direction flips within `Config::resize_cooldown` batches.
    decision: crate::resize::Decision,
    op_counter: u64,
    /// Mirror of every device byte this table has allocated minus freed on
    /// the gpu-sim ledger, updated at each alloc/free site. Layout-derived
    /// [`CuckooTable::device_bytes`] must agree with it at every batch
    /// boundary — [`CuckooTable::verify_integrity`] asserts the two stay in
    /// lock step, so a resize path that forgets either side is caught.
    ledger_bytes: u64,
}

/// The paper's table: 4-byte keys and values, 32 slots per 128-byte
/// bucket line under the default layout.
///
/// ```
/// use gpu_sim::SimContext;
/// use dycuckoo::{Config, DyCuckoo};
///
/// let mut sim = SimContext::new();
/// let mut table = DyCuckoo::new(Config::default(), &mut sim).unwrap();
/// table.insert_batch(&mut sim, &[(1, 10), (2, 20)]).unwrap();
/// let found = table.find_batch(&mut sim, &[1, 2, 3]);
/// assert_eq!(found, vec![Some(10), Some(20), None]);
/// ```
pub type DyCuckoo = CuckooTable<u32, u32>;

/// The paper's "KV sizes beyond 64 bits" design point: 8-byte keys and
/// values. Prior GPU cuckoo tables move a KV pair with one 64-bit
/// `atomicExch`, capping key plus value at 8 bytes; DyCuckoo locks the
/// whole bucket instead, so "suppose the keys are 8 bytes, a bucket can
/// then accommodate 16 KV pairs". The same kernels, resizing and
/// integrity check as [`DyCuckoo`]; only the words and the layout differ.
///
/// ```
/// use gpu_sim::{LayoutConfig, SimContext};
/// use dycuckoo::{Config, WideDyCuckoo, WIDE_BUCKET_SLOTS};
///
/// let mut sim = SimContext::new();
/// let cfg = Config {
///     layout: LayoutConfig::soa(WIDE_BUCKET_SLOTS, 8, 8),
///     ..Config::default()
/// };
/// let mut table = WideDyCuckoo::new(cfg, &mut sim).unwrap();
/// table.insert_batch(&mut sim, &[(1 << 40, 1 << 33)]).unwrap();
/// assert_eq!(table.get(&mut sim, 1 << 40), Some(1 << 33));
/// ```
pub type WideDyCuckoo = CuckooTable<u64, u64>;

/// Smallest power-of-two bucket count per subtable such that `items` keys
/// fill `d` such subtables to at most `target_fill` (uniform sizing; see
/// [`mixed_bucket_sizes`] for the finer-grained allocation
/// [`CuckooTable::with_capacity`] uses). Delegates to the engine's shared
/// sizing with this crate's default bucket width.
pub fn buckets_for_load(items: usize, d: usize, target_fill: f64) -> usize {
    gpu_sim::engine::buckets_for_load(items, d, target_fill, BUCKET_SLOTS)
}

/// Per-subtable bucket counts whose total capacity covers
/// `items / target_fill` slots as tightly as possible: an equal split,
/// rounded up to even counts so every subtable can later halve cleanly.
pub fn mixed_bucket_sizes(items: usize, d: usize, target_fill: f64) -> Vec<usize> {
    gpu_sim::engine::mixed_bucket_sizes(items, d, target_fill, BUCKET_SLOTS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use gpu_sim::SimContext;

    fn small_cfg() -> Config {
        Config {
            initial_buckets: 4,
            ..Config::default()
        }
    }

    #[test]
    fn insert_find_roundtrip() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=500u32).map(|k| (k, k * 3)).collect();
        let rep = t.insert_batch(&mut sim, &kvs).unwrap();
        assert_eq!(rep.inserted, 500);
        assert_eq!(t.len(), 500);
        let keys: Vec<u32> = (1..=500).collect();
        let found = t.find_batch(&mut sim, &keys);
        for (k, v) in keys.iter().zip(found) {
            assert_eq!(v, Some(k * 3));
        }
        t.verify_integrity().unwrap();
    }

    #[test]
    fn missing_keys_return_none() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        t.insert_batch(&mut sim, &[(7, 70)]).unwrap();
        assert_eq!(t.find_batch(&mut sim, &[8, 9]), vec![None, None]);
    }

    #[test]
    fn zero_key_rejected() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        assert_eq!(t.insert_batch(&mut sim, &[(0, 1)]), Err(Error::ZeroKey));
    }

    #[test]
    fn upsert_updates_in_place() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        t.insert_batch(&mut sim, &[(5, 1)]).unwrap();
        let rep = t.insert_batch(&mut sim, &[(5, 2)]).unwrap();
        assert_eq!(rep.updated, 1);
        assert_eq!(rep.inserted, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&mut sim, 5), Some(2));
    }

    #[test]
    fn delete_removes_keys_and_reports_count() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=100u32).map(|k| (k, k)).collect();
        t.insert_batch(&mut sim, &kvs).unwrap();
        let rep = t.delete_batch(&mut sim, &[1, 2, 3, 999]).unwrap();
        assert_eq!(rep.deleted, 3);
        assert_eq!(t.len(), 97);
        assert_eq!(t.get(&mut sim, 1), None);
        assert_eq!(t.get(&mut sim, 4), Some(4));
        t.verify_integrity().unwrap();
    }

    #[test]
    fn growth_keeps_fill_in_bounds_and_ratio_invariant() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        for round in 0..20u32 {
            let kvs: Vec<(u32, u32)> = (0..200u32).map(|i| (round * 200 + i + 1, i)).collect();
            t.insert_batch(&mut sim, &kvs).unwrap();
            assert!(t.size_ratio_ok(), "size ratio violated at round {round}");
            assert!(
                t.fill_factor() <= t.config().beta + 1e-9,
                "θ = {} exceeds β after rebalance",
                t.fill_factor()
            );
        }
        assert_eq!(t.len(), 4000);
        t.verify_integrity().unwrap();
        // Everything findable after many resizes.
        let keys: Vec<u32> = (1..=4000).collect();
        let found = t.find_batch(&mut sim, &keys);
        assert!(found.iter().all(|f| f.is_some()));
    }

    #[test]
    fn shrink_after_mass_delete() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=2000u32).map(|k| (k, k)).collect();
        t.insert_batch(&mut sim, &kvs).unwrap();
        let bytes_before = t.device_bytes();
        let dels: Vec<u32> = (1..=1900).collect();
        let rep = t.delete_batch(&mut sim, &dels).unwrap();
        assert_eq!(rep.deleted, 1900);
        assert!(
            !rep.resizes.is_empty(),
            "mass deletion should trigger downsizing"
        );
        assert!(t.device_bytes() < bytes_before);
        assert!(t.fill_factor() >= t.config().alpha - 1e-9);
        // Survivors still present.
        let keys: Vec<u32> = (1901..=2000).collect();
        assert!(t.find_batch(&mut sim, &keys).iter().all(|f| f.is_some()));
        t.verify_integrity().unwrap();
    }

    #[test]
    fn with_capacity_hits_target_fill() {
        for d in [2usize, 3, 4, 5, 6] {
            let mut sim = SimContext::new();
            let cfg = Config {
                num_tables: d,
                ..Config::default()
            };
            let t = DyCuckoo::with_capacity(cfg, 100_000, 0.85, &mut sim).unwrap();
            let slots: u64 = t.stats().capacity_slots;
            let fill = 100_000.0 / slots as f64;
            assert!(fill <= 0.85 + 1e-9, "d={d}: fill {fill}");
            // Equal even-count sizing tracks the budget within a whisker.
            assert!(fill > 0.85 * 0.98, "d={d}: fill only {fill}");
            assert!(t.size_ratio_ok(), "d={d}");
        }
    }

    #[test]
    fn with_capacity_sizes_by_layout_width() {
        // A 16-slot layout needs twice the buckets for the same capacity.
        let mut sim = SimContext::new();
        let cfg = Config {
            layout: gpu_sim::LayoutConfig::aos(16, 4, 4),
            ..Config::default()
        };
        let t = DyCuckoo::with_capacity(cfg, 50_000, 0.85, &mut sim).unwrap();
        let fill = 50_000.0 / t.capacity_slots() as f64;
        assert!(fill <= 0.85 + 1e-9 && fill > 0.85 * 0.98, "fill {fill}");
        t.verify_integrity().unwrap();
    }

    #[test]
    fn buckets_for_load_is_minimal_power_of_two() {
        assert_eq!(buckets_for_load(1, 4, 1.0), 1);
        // 10_000 items at θ=0.85 over 4 tables: 11765 slots → 92 buckets/table → 128.
        assert_eq!(buckets_for_load(10_000, 4, 0.85), 128);
    }

    #[test]
    fn mixed_bucket_sizes_cover_budget_tightly() {
        for d in [2usize, 3, 4, 5, 7] {
            for items in [100usize, 5_000, 77_777, 1_000_000] {
                let sizes = mixed_bucket_sizes(items, d, 0.85);
                assert_eq!(sizes.len(), d);
                assert!(sizes.iter().all(|&s| s % 2 == 0), "{sizes:?}");
                let total_slots: usize = sizes.iter().sum::<usize>() * BUCKET_SLOTS;
                let needed = (items as f64 / 0.85).ceil() as usize;
                assert!(total_slots >= needed, "d={d} items={items}: {sizes:?}");
                // Within one even bucket per table of the requirement.
                assert!(
                    total_slots <= needed + 3 * d * BUCKET_SLOTS,
                    "d={d} items={items}: over-provisioned {sizes:?}"
                );
            }
        }
    }

    #[test]
    fn find_is_at_most_two_lookups_per_key() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=1000u32).map(|k| (k, k)).collect();
        t.insert_batch(&mut sim, &kvs).unwrap();
        sim.take_metrics();
        let keys: Vec<u32> = (1..=1000).collect();
        t.find_batch(&mut sim, &keys);
        let m = sim.take_metrics();
        assert!(
            m.lookups <= 2 * 1000,
            "find used {} lookups for 1000 keys",
            m.lookups
        );
    }

    #[test]
    fn force_upsize_then_downsize_roundtrip() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=300u32).map(|k| (k, k + 1)).collect();
        t.insert_batch(&mut sim, &kvs).unwrap();
        let ev = t.force_resize(&mut sim, ResizeOp::Upsize(0)).unwrap();
        assert_eq!(ev.new_buckets, ev.old_buckets * 2);
        t.verify_integrity().unwrap();
        let ev = t.force_resize(&mut sim, ResizeOp::Downsize(0)).unwrap();
        assert_eq!(ev.new_buckets, ev.old_buckets / 2);
        t.verify_integrity().unwrap();
        let keys: Vec<u32> = (1..=300).collect();
        let found = t.find_batch(&mut sim, &keys);
        for (i, f) in found.iter().enumerate() {
            assert_eq!(*f, Some(i as u32 + 2), "key {} lost in resize", i + 1);
        }
    }

    #[test]
    fn paper_insert_policy_still_finds_keys() {
        let mut sim = SimContext::new();
        let cfg = Config {
            dup_policy: crate::config::DupPolicy::PaperInsert,
            initial_buckets: 8,
            ..Config::default()
        };
        let mut t = DyCuckoo::new(cfg, &mut sim).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=800u32).map(|k| (k, k)).collect();
        t.insert_batch(&mut sim, &kvs).unwrap();
        let keys: Vec<u32> = (1..=800).collect();
        assert!(t.find_batch(&mut sim, &keys).iter().all(|f| f.is_some()));
    }

    #[test]
    fn naive_rehash_preserves_all_keys() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=600u32).map(|k| (k, k + 9)).collect();
        t.insert_batch(&mut sim, &kvs).unwrap();
        let moved = t.rehash_subtable_naive(&mut sim, 1, true).unwrap();
        assert!(moved > 0, "subtable 1 should have held entries");
        t.verify_integrity().unwrap();
        let keys: Vec<u32> = (1..=600).collect();
        let found = t.find_batch(&mut sim, &keys);
        for (i, f) in found.iter().enumerate() {
            assert_eq!(*f, Some(i as u32 + 10), "key {} lost", i + 1);
        }
        // Shrink direction too.
        let moved = t.rehash_subtable_naive(&mut sim, 1, false).unwrap();
        assert!(moved > 0);
        t.verify_integrity().unwrap();
        let found = t.find_batch(&mut sim, &keys);
        assert!(found.iter().all(|f| f.is_some()));
    }

    #[test]
    fn plain_d_layering_roundtrip() {
        let mut sim = SimContext::new();
        let cfg = Config {
            layering: crate::config::Layering::PlainD,
            initial_buckets: 4,
            ..Config::default()
        };
        let mut t = DyCuckoo::new(cfg, &mut sim).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=800u32).map(|k| (k, k + 3)).collect();
        t.insert_batch(&mut sim, &kvs).unwrap();
        t.verify_integrity().unwrap();
        let keys: Vec<u32> = (1..=800).collect();
        let found = t.find_batch(&mut sim, &keys);
        for (i, f) in found.iter().enumerate() {
            assert_eq!(*f, Some(i as u32 + 4));
        }
        t.delete_batch(&mut sim, &keys).unwrap();
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn disjoint_pairs_layering_roundtrip() {
        let mut sim = SimContext::new();
        let cfg = Config {
            layering: crate::config::Layering::DisjointPairs,
            initial_buckets: 4,
            ..Config::default()
        };
        let mut t = DyCuckoo::new(cfg, &mut sim).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=800u32).map(|k| (k, k)).collect();
        t.insert_batch(&mut sim, &kvs).unwrap();
        t.verify_integrity().unwrap();
        let keys: Vec<u32> = (1..=800).collect();
        assert!(t.find_batch(&mut sim, &keys).iter().all(|f| f.is_some()));
    }

    #[test]
    fn plain_d_find_probes_up_to_d_buckets() {
        let mut sim = SimContext::new();
        let cfg = Config {
            layering: crate::config::Layering::PlainD,
            initial_buckets: 4,
            ..Config::default()
        };
        let mut t = DyCuckoo::new(cfg, &mut sim).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=500u32).map(|k| (k, k)).collect();
        t.insert_batch(&mut sim, &kvs).unwrap();
        // Misses must probe all d=4 candidate buckets, vs 2 for two-layer.
        sim.take_metrics();
        let misses: Vec<u32> = (1_000_001..1_001_001).collect();
        t.find_batch(&mut sim, &misses);
        let m = sim.take_metrics();
        assert_eq!(m.lookups, 4 * 1000, "plain-d misses probe d buckets");
    }

    #[test]
    fn voter_finishes_contended_batches_in_fewer_rounds() {
        // The voter's value is not fewer failed CAS attempts but not
        // *wasting* warp time while blocked: a spinning warp burns a whole
        // round per failure, a voting warp completes another lane's op.
        let run = |coordination| {
            let mut sim = SimContext::new();
            let cfg = Config {
                coordination,
                initial_buckets: 2,
                ..Config::default()
            };
            let mut t = DyCuckoo::new(cfg, &mut sim).unwrap();
            // The paper's celebrity scenario: each warp carries one op on a
            // hot key plus 31 ordinary ops. A spinning warp blocks its
            // ordinary ops behind the contended one.
            let kvs: Vec<(u32, u32)> = (0..4096u32)
                .map(|i| if i % 32 == 0 { (7, i) } else { (i + 100, i) })
                .collect();
            t.insert_batch(&mut sim, &kvs).unwrap();
            sim.take_metrics().rounds
        };
        let spin = run(crate::config::Coordination::Spin);
        let voter = run(crate::config::Coordination::Voter);
        assert!(
            spin > voter,
            "spinning should waste rounds (spin {spin} vs voter {voter})"
        );
    }

    fn stash_cfg() -> Config {
        Config {
            initial_buckets: 2,
            stash_capacity: 64,
            // A tiny eviction limit makes chains fail early so the stash
            // actually gets exercised.
            eviction_limit: 2,
            alpha: 0.0,
            beta: 1.0,
            ..Config::default()
        }
    }

    #[test]
    fn stash_absorbs_failed_chains_without_resizing() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(stash_cfg(), &mut sim).unwrap();
        // 2 buckets × 4 tables × 32 slots = 256 slots; pushing well past
        // capacity with resizing disabled (β = 1.0 means θ can reach 1.0)
        // must park the overflow in the stash instead of erroring.
        let kvs: Vec<(u32, u32)> = (1..=280u32).map(|k| (k, k)).collect();
        let rep = t.insert_batch(&mut sim, &kvs).unwrap();
        assert_eq!(rep.inserted + rep.updated, 280);
        assert!(t.stashed() > 0, "overflow should be stashed");
        assert!(rep.resizes.is_empty(), "no resizes while β = 1.0");
        let keys: Vec<u32> = (1..=280).collect();
        let found = t.find_batch(&mut sim, &keys);
        for (k, f) in keys.iter().zip(found) {
            assert_eq!(f, Some(*k), "key {k} lost");
        }
        t.verify_integrity().unwrap();
    }

    #[test]
    fn stash_supports_update_and_delete() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(stash_cfg(), &mut sim).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=280u32).map(|k| (k, k)).collect();
        t.insert_batch(&mut sim, &kvs).unwrap();
        assert!(t.stashed() > 0);
        // Update every key; stashed ones must update in place.
        let kvs2: Vec<(u32, u32)> = (1..=280u32).map(|k| (k, k + 1)).collect();
        let rep = t.insert_batch(&mut sim, &kvs2).unwrap();
        assert_eq!(rep.updated, 280);
        assert_eq!(t.len(), 280);
        let keys: Vec<u32> = (1..=280).collect();
        let found = t.find_batch(&mut sim, &keys);
        for (k, f) in keys.iter().zip(found) {
            assert_eq!(f, Some(k + 1));
        }
        // Delete everything, stash included.
        let rep = t.delete_batch(&mut sim, &keys).unwrap();
        assert_eq!(rep.deleted, 280);
        assert_eq!(t.len(), 0);
        assert_eq!(t.stashed(), 0);
    }

    #[test]
    fn stash_drains_after_resize() {
        let mut sim = SimContext::new();
        let cfg = Config {
            stash_capacity: 64,
            eviction_limit: 2,
            initial_buckets: 2,
            ..Config::default() // real bounds: resizing enabled
        };
        let mut t = DyCuckoo::new(cfg, &mut sim).unwrap();
        let kvs: Vec<(u32, u32)> = (1..=2000u32).map(|k| (k, k)).collect();
        t.insert_batch(&mut sim, &kvs).unwrap();
        // With resizing enabled, the table grows and the stash drains back;
        // at most a handful of keys may be parked transiently.
        assert!(
            t.stashed() < 32,
            "stash should drain after resizes, {} still parked",
            t.stashed()
        );
        let keys: Vec<u32> = (1..=2000).collect();
        assert!(t.find_batch(&mut sim, &keys).iter().all(|f| f.is_some()));
        t.verify_integrity().unwrap();
    }

    #[test]
    fn headroom_and_stall_hooks_track_batches() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        let beta = t.config().beta;
        let before = t.headroom_slots();
        assert_eq!(before, (beta * t.capacity_slots() as f64) as i64);
        let kvs: Vec<(u32, u32)> = (1..=2000u32).map(|k| (k, k)).collect();
        let rep = t.insert_batch(&mut sim, &kvs).unwrap();
        // Growth to 2000 keys from 4-bucket subtables must have resized.
        assert!(rep.resize_stall());
        assert!(rep.total_moved() > 0);
        assert!(t.headroom_slots() >= 0, "rebalance restores headroom");
        assert_eq!(
            t.headroom_slots(),
            (beta * t.capacity_slots() as f64) as i64 - 2000
        );
        // A pure-read window causes no stall.
        let rep = t.delete_batch(&mut sim, &[]).unwrap();
        assert!(!rep.resize_stall());
        assert_eq!(rep.total_moved(), 0);
    }

    #[test]
    fn release_returns_device_memory() {
        let mut sim = SimContext::new();
        let t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        let held = sim.device.allocated_bytes();
        assert!(held > 0);
        t.release(&mut sim).unwrap();
        assert_eq!(sim.device.allocated_bytes(), 0);
    }

    #[test]
    fn ledger_mirrors_device_allocations_through_resizes() {
        let mut sim = SimContext::new();
        let mut t = DyCuckoo::new(small_cfg(), &mut sim).unwrap();
        assert_eq!(t.device_bytes(), sim.device.allocated_bytes());
        let kvs: Vec<(u32, u32)> = (1..=3000u32).map(|k| (k, k)).collect();
        t.insert_batch(&mut sim, &kvs).unwrap(); // many upsizes
        assert_eq!(t.device_bytes(), sim.device.allocated_bytes());
        let dels: Vec<u32> = (1..=2800).collect();
        t.delete_batch(&mut sim, &dels).unwrap(); // downsizes
        assert_eq!(t.device_bytes(), sim.device.allocated_bytes());
        t.verify_integrity().unwrap();
    }
}
