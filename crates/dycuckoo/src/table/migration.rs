//! Incremental migration: the resumable state machine that rehashes one
//! subtable in bounded chunks while foreground traffic keeps serving.
//!
//! With the default `Config::migration_quantum = usize::MAX` a structural
//! resize runs as one stop-the-world pass inside the triggering batch (the
//! historical `rehash` kernels, preserved bit-for-bit). Any finite quantum
//! instead routes the resize through a [`MigrationMachine`]:
//!
//! * **Idle** — no structural work in flight.
//! * **Draining** — a fresh subtable of the target size is allocated and a
//!   cursor sweeps the *source* bucket space, rehashing at most
//!   `migration_quantum` buckets per pump. Each pump is a real scheduled
//!   kernel launch ([`gpu_sim::run_rounds_quantum`]) whose warps take the
//!   same bucket locks foreground operations do.
//! * **Finalizing** — every source bucket is drained; the next pump swaps
//!   the fresh subtable in, frees the old one, re-homes the overflow stash
//!   and retires the migration as a [`super::ResizeEvent`].
//!
//! While a migration is in flight, every foreground operation consults the
//! [`MigrationView`]: for the draining subtable the cursor says — per key,
//! from the raw hash alone — whether the key's bucket has already been
//! drained. A key therefore has exactly **one** valid bucket in the
//! draining subtable (old or fresh, never both), so the paper's two-lookup
//! bound survives mid-migration: the two-layer pairing still yields two
//! candidate subtables, and each contributes a single bucket probe.
//!
//! The routing rule mirrors the conflict-free rehash geometry:
//!
//! * **Upsizing** (`old_n → 2·old_n`): the cursor walks old buckets. A key
//!   whose old bucket `b < cursor` has moved to `hash mod 2·old_n`
//!   (which is `b` or `b + old_n`); otherwise it is still at `b`.
//! * **Downsizing** (`old_n → old_n/2`): the cursor walks *merged* new
//!   buckets. A key whose new bucket `b' < cursor` lives at `b'` in the
//!   fresh subtable (or was pushed to its partner subtable as a residual);
//!   otherwise it is still at `hash mod old_n`.

use gpu_sim::{run_rounds_quantum, RoundCtx, RoundKernel, StepOutcome};

use crate::hashfn::UniversalHash;
use crate::subtable::{SubTable, Word};

use super::MAX_TABLES;

/// Where a key of the draining subtable currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Still in the old (draining) subtable, at this bucket.
    Old(usize),
    /// Already moved to the fresh subtable, at this bucket.
    Fresh(usize),
}

/// A coherent snapshot of the draining subtable's old/new split, consulted
/// by the find/insert/delete kernels while a migration is in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MigrationView {
    /// The subtable being migrated.
    pub table: usize,
    /// Growing (`true`) or shrinking (`false`).
    pub grow: bool,
    /// Source buckets drained so far (old buckets when growing, merged new
    /// buckets when shrinking).
    pub cursor: usize,
    /// Bucket count of the old (draining) subtable.
    pub old_n: usize,
    /// Bucket count of the fresh (replacement) subtable.
    pub new_n: usize,
}

impl MigrationView {
    /// The single bucket (old or fresh) where a key with route value
    /// `key` ([`Word::route`]) may reside in the draining subtable. Exactly
    /// one probe — the two-lookup bound holds.
    pub fn route(&self, hash: &UniversalHash, key: u32) -> Route {
        if self.grow {
            let b_old = hash.bucket(key, self.old_n);
            if b_old < self.cursor {
                Route::Fresh(hash.bucket(key, self.new_n))
            } else {
                Route::Old(b_old)
            }
        } else {
            let b_new = hash.bucket(key, self.new_n);
            if b_new < self.cursor {
                Route::Fresh(b_new)
            } else {
                Route::Old(hash.bucket(key, self.old_n))
            }
        }
    }

    /// Lock address space of the fresh subtable's bucket locks. The old
    /// subtable keeps its usual space (= its table index); the fresh table
    /// gets a disjoint space so conflict grouping distinguishes the two.
    pub fn fresh_space(&self) -> u32 {
        (self.table + MAX_TABLES) as u32
    }
}

/// In-flight migration bookkeeping (the Draining/Finalizing payload).
#[derive(Debug)]
pub(crate) struct DrainState<K: Word, V: Word> {
    /// Index of the subtable being migrated.
    pub table: usize,
    /// Growing or shrinking.
    pub grow: bool,
    /// The replacement subtable being filled.
    pub fresh: SubTable<K, V>,
    /// Source buckets drained so far.
    pub cursor: usize,
    /// Total source buckets to drain (old count when growing, new count
    /// when shrinking).
    pub span: usize,
    /// Bucket count of the old subtable when the migration started.
    pub old_buckets: usize,
    /// KVs rehashed into the fresh subtable so far.
    pub moved: u64,
    /// KVs pushed to partner subtables so far (shrinking only).
    pub residuals: u64,
}

impl<K: Word, V: Word> DrainState<K, V> {
    /// The foreground routing view of this state.
    pub fn view(&self) -> MigrationView {
        MigrationView {
            table: self.table,
            grow: self.grow,
            cursor: self.cursor,
            old_n: self.old_buckets,
            new_n: self.fresh.n_buckets(),
        }
    }
}

/// The migration state machine. Owned by [`super::DyCuckoo`]; transitions
/// are driven by the maintenance path (`table/maintenance.rs`).
#[derive(Debug, Default)]
pub(crate) enum MigrationMachine<K: Word, V: Word> {
    /// No structural work in flight.
    #[default]
    Idle,
    /// A bounded chunk of source buckets is rehashed per pump.
    Draining(DrainState<K, V>),
    /// All source buckets drained; the next pump swaps the fresh subtable
    /// in and retires the migration.
    Finalizing(DrainState<K, V>),
}

impl<K: Word, V: Word> MigrationMachine<K, V> {
    /// Whether a migration is in flight (draining or awaiting finalize).
    pub fn in_flight(&self) -> bool {
        !matches!(self, MigrationMachine::Idle)
    }

    /// Source buckets not yet drained, plus one pump for the finalize step.
    /// 0 when idle — the `migration_backlog` gauge.
    pub fn backlog(&self) -> u64 {
        match self {
            MigrationMachine::Idle => 0,
            MigrationMachine::Draining(d) => (d.span - d.cursor) as u64 + 1,
            MigrationMachine::Finalizing(_) => 1,
        }
    }

    /// The in-flight drain state, if any.
    pub fn state(&self) -> Option<&DrainState<K, V>> {
        match self {
            MigrationMachine::Idle => None,
            MigrationMachine::Draining(d) | MigrationMachine::Finalizing(d) => Some(d),
        }
    }

    /// Kernel-facing context for mutating ops: the routing view plus the
    /// fresh store it routes into.
    pub fn kernel_ctx(&mut self) -> Option<(MigrationView, &mut SubTable<K, V>)> {
        match self {
            MigrationMachine::Idle => None,
            MigrationMachine::Draining(d) | MigrationMachine::Finalizing(d) => {
                Some((d.view(), &mut d.fresh))
            }
        }
    }

    /// Kernel-facing context for read-only ops (find).
    pub fn kernel_ctx_ro(&self) -> Option<(MigrationView, &SubTable<K, V>)> {
        self.state().map(|d| (d.view(), &d.fresh))
    }
}

/// One warp of the migrate kernel: drains one source bucket.
struct MigrateWarp {
    src: usize,
}

/// The chunked rehash kernel: one warp per source bucket, taking the same
/// per-bucket locks foreground kernels use (old side in the subtable's own
/// lock space, fresh side in [`MigrationView::fresh_space`]), so migration
/// launches are charged for their atomics like any other kernel.
struct MigrateKernel<'a, K: Word, V: Word> {
    old: &'a mut SubTable<K, V>,
    fresh: &'a mut SubTable<K, V>,
    hash: &'a UniversalHash,
    grow: bool,
    old_space: u32,
    fresh_space: u32,
    moved: u64,
    residuals: Vec<(K, V)>,
}

impl<K: Word, V: Word> MigrateKernel<'_, K, V> {
    /// Drain old bucket `b` into fresh buckets `b` / `b + old_n` (upsize
    /// geometry: conflict-free, both destinations belong to this warp).
    fn drain_grow(&mut self, b: usize, ctx: &mut RoundCtx) {
        let drain = self.old.layout().drain_lines();
        let old_n = self.old.n_buckets();
        let new_n = self.fresh.n_buckets();
        // One warp reads the source bucket's key and value lines in full.
        for _ in 0..drain {
            ctx.read_line();
        }
        let mut wrote_lo = false;
        let mut wrote_hi = false;
        let mut cleared = false;
        for s in 0..self.old.slots_per_bucket() {
            let (k, v) = self.old.slot(b, s);
            if k == K::EMPTY {
                continue;
            }
            let nb = self.hash.bucket(k.route(), new_n);
            debug_assert!(
                nb == b || nb == b + old_n,
                "upsize moved key across buckets"
            );
            let slot = self
                .fresh
                .find_empty(nb)
                .expect("doubled bucket cannot overflow");
            self.fresh.write_new(nb, slot, k, v);
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
            // Marking the source bucket drained: one coalesced key-line
            // clear (the bucket's lines are already in registers).
            ctx.write_line();
        }
    }

    /// Merge old buckets `nb` and `nb + new_n` into fresh bucket `nb`
    /// (downsize geometry); overflow becomes residuals for the caller to
    /// re-insert into partner subtables.
    fn drain_shrink(&mut self, nb: usize, ctx: &mut RoundCtx) {
        let drain = self.old.layout().drain_lines();
        let new_n = self.fresh.n_buckets();
        // One warp reads both source buckets in full.
        for _ in 0..2 * drain {
            ctx.read_line();
        }
        let mut wrote = false;
        for ob in [nb, nb + new_n] {
            let mut cleared = false;
            for s in 0..self.old.slots_per_bucket() {
                let (k, v) = self.old.slot(ob, s);
                if k == K::EMPTY {
                    continue;
                }
                if let Some(slot) = self.fresh.find_empty(nb) {
                    self.fresh.write_new(nb, slot, k, v);
                    self.moved += 1;
                    wrote = true;
                } else {
                    self.residuals.push((k, v));
                }
                self.old.erase(ob, s);
                cleared = true;
            }
            if cleared {
                ctx.write_line();
            }
        }
        if wrote {
            for _ in 0..drain {
                ctx.write_line();
            }
        }
    }
}

impl<K: Word, V: Word> RoundKernel<MigrateWarp> for MigrateKernel<'_, K, V> {
    fn step(&mut self, w: &mut MigrateWarp, ctx: &mut RoundCtx) -> StepOutcome {
        if self.grow {
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
            self.drain_grow(b, ctx);
            ctx.atomic_exch_unlock(&mut self.old.locks, self.old_space, b);
            ctx.atomic_exch_unlock(&mut self.fresh.locks, self.fresh_space, b);
            ctx.atomic_exch_unlock(&mut self.fresh.locks, self.fresh_space, hi);
        } else {
            let nb = w.src;
            let hi = nb + self.fresh.n_buckets();
            if !ctx.atomic_cas_lock(&mut self.old.locks, self.old_space, nb) {
                return StepOutcome::Pending;
            }
            if !ctx.atomic_cas_lock(&mut self.old.locks, self.old_space, hi) {
                ctx.atomic_exch_unlock(&mut self.old.locks, self.old_space, nb);
                return StepOutcome::Pending;
            }
            if !ctx.atomic_cas_lock(&mut self.fresh.locks, self.fresh_space, nb) {
                ctx.atomic_exch_unlock(&mut self.old.locks, self.old_space, nb);
                ctx.atomic_exch_unlock(&mut self.old.locks, self.old_space, hi);
                return StepOutcome::Pending;
            }
            self.drain_shrink(nb, ctx);
            ctx.atomic_exch_unlock(&mut self.old.locks, self.old_space, nb);
            ctx.atomic_exch_unlock(&mut self.old.locks, self.old_space, hi);
            ctx.atomic_exch_unlock(&mut self.fresh.locks, self.fresh_space, nb);
        }
        StepOutcome::Done
    }

    fn end_round(&mut self) {
        self.old.locks.end_round();
        self.fresh.locks.end_round();
    }
}

/// Outcome of one drained chunk.
pub(crate) struct ChunkOutcome<K, V> {
    /// KVs rehashed into the fresh subtable by this chunk.
    pub moved: u64,
    /// Overflow KVs (shrinking only) the caller must re-insert into
    /// partner subtables with the draining table excluded.
    pub residuals: Vec<(K, V)>,
}

/// Drain the next `chunk` source buckets of `state` as one scheduled
/// launch. Advances `state.cursor` / `state.moved` but does **not** count
/// `state.residuals` — the caller does after placing them.
pub(crate) fn drain_chunk<K: Word, V: Word>(
    state: &mut DrainState<K, V>,
    old: &mut SubTable<K, V>,
    hash: &UniversalHash,
    chunk: usize,
    schedule: gpu_sim::SchedulePolicy,
    metrics: &mut gpu_sim::Metrics,
) -> ChunkOutcome<K, V> {
    let end = (state.cursor + chunk).min(state.span);
    let mut warps: Vec<MigrateWarp> = (state.cursor..end).map(|src| MigrateWarp { src }).collect();
    let mut kernel = MigrateKernel {
        old,
        fresh: &mut state.fresh,
        hash,
        grow: state.grow,
        old_space: state.table as u32,
        fresh_space: (state.table + MAX_TABLES) as u32,
        moved: 0,
        residuals: Vec::new(),
    };
    // Bounded launch through the quantum-scheduling hook; warps that lose a
    // lock race resume in follow-up launches of the same pump.
    while !warps.is_empty() {
        run_rounds_quantum(
            &mut kernel,
            &mut warps,
            metrics,
            schedule,
            chunk.max(1) as u64,
        );
    }
    state.cursor = end;
    state.moved += kernel.moved;
    ChunkOutcome {
        moved: kernel.moved,
        residuals: kernel.residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::LayoutConfig;

    fn hash() -> UniversalHash {
        UniversalHash::from_seed(0xD1C2_B3A4)
    }

    fn filled(n_buckets: usize, keys: std::ops::Range<u32>, h: &UniversalHash) -> SubTable {
        let mut t = SubTable::new(n_buckets, LayoutConfig::default());
        for k in keys {
            let b = h.bucket(k, n_buckets);
            if let Some(s) = t.find_empty(b) {
                t.write_new(b, s, k, k + 1);
            }
        }
        t
    }

    #[test]
    fn grow_routing_splits_on_cursor() {
        let h = hash();
        let view = MigrationView {
            table: 0,
            grow: true,
            cursor: 2,
            old_n: 4,
            new_n: 8,
        };
        for k in 1..200u32 {
            let b_old = h.bucket(k, 4);
            match view.route(&h, k) {
                Route::Fresh(nb) => {
                    assert!(b_old < 2, "key {k} routed fresh from undrained bucket");
                    assert_eq!(nb, h.bucket(k, 8));
                    assert!(nb == b_old || nb == b_old + 4);
                }
                Route::Old(b) => {
                    assert!(b_old >= 2);
                    assert_eq!(b, b_old);
                }
            }
        }
    }

    #[test]
    fn shrink_routing_splits_on_merged_cursor() {
        let h = hash();
        let view = MigrationView {
            table: 1,
            grow: false,
            cursor: 1,
            old_n: 4,
            new_n: 2,
        };
        for k in 1..200u32 {
            let b_new = h.bucket(k, 2);
            match view.route(&h, k) {
                Route::Fresh(nb) => {
                    assert!(b_new < 1);
                    assert_eq!(nb, b_new);
                }
                Route::Old(b) => {
                    assert!(b_new >= 1);
                    assert_eq!(b, h.bucket(k, 4));
                }
            }
        }
    }

    #[test]
    fn drain_chunk_moves_and_clears_grow() {
        let h = hash();
        let mut old = filled(4, 1..100, &h);
        let before = old.occupied();
        let mut state = DrainState {
            table: 0,
            grow: true,
            fresh: SubTable::new(8, LayoutConfig::default()),
            cursor: 0,
            span: 4,
            old_buckets: 4,
            moved: 0,
            residuals: 0,
        };
        let mut m = gpu_sim::Metrics::default();
        let out = drain_chunk(
            &mut state,
            &mut old,
            &h,
            2,
            gpu_sim::SchedulePolicy::FixedOrder,
            &mut m,
        );
        assert!(out.residuals.is_empty(), "upsizing never overflows");
        assert_eq!(state.cursor, 2);
        assert_eq!(old.occupied() + state.fresh.occupied(), before);
        // Drained source buckets are empty; every moved key is at its
        // routed fresh bucket.
        for b in 0..2 {
            assert!(old.bucket_keys(b).iter().all(|&k| k == 0));
        }
        let view = state.view();
        for nb in 0..8 {
            for &k in state.fresh.bucket_keys(nb) {
                if k == 0 {
                    continue;
                }
                assert_eq!(view.route(&h, k), Route::Fresh(nb));
            }
        }
        // Second pump finishes the drain.
        drain_chunk(
            &mut state,
            &mut old,
            &h,
            2,
            gpu_sim::SchedulePolicy::FixedOrder,
            &mut m,
        );
        assert_eq!(state.cursor, 4);
        assert_eq!(old.occupied(), 0);
        assert_eq!(state.fresh.occupied(), before);
        assert!(old.locks.all_free() && state.fresh.locks.all_free());
        assert!(m.atomic_ops > 0, "migration launches charge their atomics");
    }

    #[test]
    fn drain_chunk_collects_shrink_residuals() {
        let h = hash();
        // Overfill 2 old buckets' worth of keys into a 2-bucket table so
        // merging into 1 bucket must overflow.
        let mut old = SubTable::new(2, LayoutConfig::default());
        let mut stored = 0u64;
        for k in 1..2000u32 {
            let b = h.bucket(k, 2);
            if let Some(s) = old.find_empty(b) {
                old.write_new(b, s, k, k);
                stored += 1;
            }
        }
        assert_eq!(stored, 64, "both buckets full");
        let mut state = DrainState {
            table: 0,
            grow: false,
            fresh: SubTable::new(1, LayoutConfig::default()),
            cursor: 0,
            span: 1,
            old_buckets: 2,
            moved: 0,
            residuals: 0,
        };
        let mut m = gpu_sim::Metrics::default();
        let out = drain_chunk(
            &mut state,
            &mut old,
            &h,
            1,
            gpu_sim::SchedulePolicy::FixedOrder,
            &mut m,
        );
        assert_eq!(out.moved, 32);
        assert_eq!(out.residuals.len(), 32);
        assert_eq!(old.occupied(), 0);
        assert_eq!(state.fresh.occupied(), 32);
    }

    #[test]
    fn machine_backlog_counts_down_to_idle() {
        let mut machine: MigrationMachine<u32, u32> = MigrationMachine::Idle;
        assert!(!machine.in_flight());
        assert_eq!(machine.backlog(), 0);
        machine = MigrationMachine::Draining(DrainState {
            table: 0,
            grow: true,
            fresh: SubTable::new(8, LayoutConfig::default()),
            cursor: 1,
            span: 4,
            old_buckets: 4,
            moved: 0,
            residuals: 0,
        });
        assert!(machine.in_flight());
        assert_eq!(machine.backlog(), 4); // 3 buckets + finalize
        if let MigrationMachine::Draining(d) = &mut machine {
            d.cursor = 4;
        }
        assert_eq!(machine.backlog(), 1);
    }
}
