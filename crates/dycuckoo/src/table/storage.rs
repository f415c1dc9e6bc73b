//! Storage side of the table: construction, capacity accounting, the
//! device-byte ledger and the integrity sweep.
//!
//! Every `sim.device.alloc`/`free` the table performs is mirrored into
//! [`CuckooTable`]'s `ledger_bytes`, and [`CuckooTable::verify_integrity`]
//! asserts the mirror equals the layout-derived [`CuckooTable::device_bytes`]
//! — so layout geometry, the gpu-sim allocation ledger and the resize
//! paths can never silently drift apart.

use gpu_sim::SimContext;

use crate::config::Config;
use crate::error::Result;
use crate::resize;
use crate::stash::Stash;
use crate::stats::{SubTableStats, TableStats};
use crate::subtable::{SubTable, Word};

use super::{CuckooTable, TableShape};

impl<K: Word, V: Word> CuckooTable<K, V> {
    /// Create a table with `cfg.initial_buckets` buckets per subtable.
    /// The layout must declare this table's word widths
    /// ([`Config::check_words`]).
    pub fn new(cfg: Config, sim: &mut SimContext) -> Result<Self> {
        cfg.validate()?;
        cfg.check_words::<K, V>()?;
        let shape = TableShape::from_config(cfg);
        let tables: Vec<SubTable<K, V>> = (0..cfg.num_tables)
            .map(|_| SubTable::new(cfg.initial_buckets, cfg.layout))
            .collect();
        let mut ledger_bytes = 0u64;
        for t in &tables {
            sim.device.alloc(t.device_bytes())?;
            ledger_bytes += t.device_bytes();
        }
        let stash = if cfg.stash_capacity > 0 {
            let s = Stash::new(cfg.stash_capacity, cfg.layout.keys_per_line());
            sim.device.alloc(s.device_bytes())?;
            ledger_bytes += s.device_bytes();
            Some(s)
        } else {
            None
        };
        Ok(Self {
            shape,
            tables,
            stash,
            migration: super::migration::MigrationMachine::Idle,
            decision: resize::Decision::new(cfg.resize_cooldown),
            op_counter: 0,
            ledger_bytes,
        })
    }

    /// Create a table pre-sized so that `items` keys load it to roughly
    /// `target_fill` (used by the static experiments, which fix the memory
    /// budget up front).
    ///
    /// Because the hash reduces modulo the bucket count, sizes are not
    /// restricted to powers of two: an equal even split tracks the budget
    /// almost exactly, making filled-factor sweeps comparable across `d`.
    /// Sizing accounts for the configured layout's bucket width, so a
    /// narrower layout gets proportionally more buckets.
    pub fn with_capacity(
        mut cfg: Config,
        items: usize,
        target_fill: f64,
        sim: &mut SimContext,
    ) -> Result<Self> {
        let sizes = gpu_sim::engine::mixed_bucket_sizes(
            items,
            cfg.num_tables,
            target_fill,
            cfg.layout.slots,
        );
        cfg.initial_buckets = sizes[0];
        let mut table = Self::new(cfg, sim)?;
        for (i, &sz) in sizes.iter().enumerate() {
            if sz != table.tables[i].n_buckets() {
                let old_bytes = table.tables[i].device_bytes();
                sim.device.free(old_bytes)?;
                table.ledger_bytes -= old_bytes;
                let new_bytes = cfg.layout.device_bytes_for(sz);
                sim.device.alloc(new_bytes)?;
                table.ledger_bytes += new_bytes;
                table.tables[i] = SubTable::new(sz, cfg.layout);
            }
        }
        Ok(table)
    }

    /// The table's configuration.
    pub fn config(&self) -> &Config {
        &self.shape.cfg
    }

    /// Set the within-round warp ordering for all subsequent kernel
    /// launches. Purely an interleaving choice: contents and final state
    /// stay semantically equivalent, only contention patterns (and thus
    /// metrics) may differ. Used by the schedule-exploration harness.
    pub fn set_schedule(&mut self, policy: gpu_sim::SchedulePolicy) {
        self.shape.cfg.schedule = policy;
    }

    /// Number of live KV pairs (including any stashed overflow and, while
    /// a migration is in flight, keys already moved to the fresh subtable).
    pub fn len(&self) -> u64 {
        self.tables.iter().map(|t| t.occupied()).sum::<u64>()
            + self.migration.state().map_or(0, |d| d.fresh.occupied())
            + self.stash.as_ref().map_or(0, |s| s.len() as u64)
    }

    /// KV pairs currently parked in the overflow stash (0 without a stash).
    pub fn stashed(&self) -> usize {
        self.stash.as_ref().map_or(0, |s| s.len())
    }

    /// Whether the table holds no KV pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overall filled factor `θ`.
    pub fn fill_factor(&self) -> f64 {
        resize::overall_fill(&self.subtable_stats())
    }

    /// Per-subtable statistics: the numbers the resize policy reads.
    pub(super) fn subtable_stats(&self) -> Vec<SubTableStats> {
        self.tables.iter().map(SubTableStats::of).collect()
    }

    /// Total key slots across all subtables.
    pub fn capacity_slots(&self) -> u64 {
        self.tables.iter().map(|t| t.capacity_slots()).sum()
    }

    /// Slots that can still be filled before θ crosses β (negative when
    /// already above it). A batching front-end can cap insert batches to
    /// this headroom so one flush does not force multiple resizes.
    pub fn headroom_slots(&self) -> i64 {
        (self.shape.cfg.beta * self.capacity_slots() as f64) as i64 - self.len() as i64
    }

    /// Device bytes currently held, derived from each subtable's layout
    /// (padded bucket strides plus lock words; see
    /// [`gpu_sim::engine::layout`]). While a migration is in flight, the
    /// draining subtable's old and fresh allocations both count — exactly
    /// the transient footprint the paper's single-subtable resize bounds.
    pub fn device_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.device_bytes()).sum::<u64>()
            + self.migration.state().map_or(0, |d| d.fresh.device_bytes())
            + self.stash.as_ref().map_or(0, |s| s.device_bytes())
    }

    /// Snapshot of per-subtable statistics.
    pub fn stats(&self) -> TableStats {
        let per_table = self.subtable_stats();
        TableStats {
            num_tables: self.tables.len(),
            occupied: self.len(),
            capacity_slots: self.capacity_slots(),
            fill: self.fill_factor(),
            device_bytes: self.device_bytes(),
            per_table,
        }
    }

    /// Release the table's device memory. (The simulator cannot hook `Drop`
    /// because freeing needs the [`SimContext`].)
    pub fn release(self, sim: &mut SimContext) -> Result<()> {
        for t in &self.tables {
            sim.device.free(t.device_bytes())?;
        }
        if let Some(d) = self.migration.state() {
            sim.device.free(d.fresh.device_bytes())?;
        }
        if let Some(s) = &self.stash {
            sim.device.free(s.device_bytes())?;
        }
        Ok(())
    }

    /// Raw subtables, for experiments that need structural detail (e.g. the
    /// resize-throughput comparison reads exact per-subtable sizes).
    pub fn subtables(&self) -> &[SubTable<K, V>] {
        &self.tables
    }

    /// Verify internal accounting (occupancy counters vs. actual slots, the
    /// device-byte ledger vs. layout-derived footprint, and the two-layer
    /// residency invariant). Test/debug helper; O(capacity).
    pub fn verify_integrity(&self) -> std::result::Result<(), String> {
        if self.ledger_bytes != self.device_bytes() {
            return Err(format!(
                "allocation ledger holds {} bytes but layout accounting says {}",
                self.ledger_bytes,
                self.device_bytes()
            ));
        }
        if let Some(stash) = &self.stash {
            // No key may live in both the stash and a subtable (nor the
            // fresh side of an in-flight migration).
            let mut probe = gpu_sim::Metrics::default();
            let mut ctx = gpu_sim::RoundCtx::new(&mut probe);
            let stores = self
                .tables
                .iter()
                .chain(self.migration.state().map(|d| &d.fresh));
            for t in stores {
                for (k, _) in t.iter_live() {
                    if stash.find(k, &mut ctx).is_some() {
                        return Err(format!("key {k:?} resides in a subtable AND the stash"));
                    }
                }
            }
            ctx.finish();
        }
        let drain = self.migration.state();
        let view = drain.map(|d| d.view());
        for (i, t) in self.tables.iter().enumerate() {
            if t.occupied() != t.recount() {
                return Err(format!(
                    "subtable {i}: occupancy counter {} but {} live slots",
                    t.occupied(),
                    t.recount()
                ));
            }
            for b in 0..t.n_buckets() {
                for (s, &k) in t.bucket_keys(b).iter().enumerate() {
                    if k == K::EMPTY {
                        continue;
                    }
                    let cands = self.shape.candidates(k.route());
                    if !cands.contains(i) {
                        return Err(format!(
                            "key {k:?} in subtable {i} bucket {b} slot {s}, outside its candidate set {:?}",
                            cands.as_slice_vec()
                        ));
                    }
                    // Mid-migration, a key of the draining subtable must sit
                    // exactly where the routing view says (old side, in the
                    // undrained source region); otherwise at its raw bucket.
                    match view {
                        Some(v) if v.table == i => {
                            use super::migration::Route;
                            match v.route(&self.shape.hashes[i], k.route()) {
                                Route::Old(expect) if expect == b => {}
                                route => {
                                    return Err(format!(
                                        "key {k:?} in draining subtable {i} bucket {b}, \
                                         but the migration view routes it to {route:?}"
                                    ));
                                }
                            }
                        }
                        _ => {
                            let expect = self.shape.hashes[i].bucket(k.route(), t.n_buckets());
                            if expect != b {
                                return Err(format!(
                                    "key {k:?} in subtable {i} bucket {b}, expected bucket {expect}"
                                ));
                            }
                        }
                    }
                }
            }
        }
        if let Some(d) = drain {
            let v = d.view();
            let t = &d.fresh;
            if t.occupied() != t.recount() {
                return Err(format!(
                    "fresh subtable {}: occupancy counter {} but {} live slots",
                    d.table,
                    t.occupied(),
                    t.recount()
                ));
            }
            for b in 0..t.n_buckets() {
                for &k in t.bucket_keys(b) {
                    if k == K::EMPTY {
                        continue;
                    }
                    use super::migration::Route;
                    match v.route(&self.shape.hashes[d.table], k.route()) {
                        Route::Fresh(expect) if expect == b => {}
                        route => {
                            return Err(format!(
                                "key {k:?} in fresh subtable {} bucket {b}, \
                                 but the migration view routes it to {route:?}",
                                d.table
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Debug-build invariant sweep after every mutating batch operation, so
    /// every existing test doubles as an integrity check and corruption is
    /// caught at the batch boundary where it is still attributable. Skipped
    /// under deliberate fault injection — a lost update is a *semantic*
    /// defect for the oracle, not a structural one for this sweep.
    #[inline]
    pub(super) fn debug_verify(&self, when: &str) {
        if cfg!(debug_assertions) && !self.shape.cfg.inject_lock_elision {
            if let Err(e) = self.verify_integrity() {
                panic!("integrity violated after {when}: {e}");
            }
        }
    }
}
