//! Maintenance side of the table: resize triggering, failed-insert retry
//! and the structural rehash paths (including the naive strategy the
//! paper's resize experiment compares against).
//!
//! Structural resizes run in one of two modes, selected by
//! [`crate::Config::migration_quantum`]:
//!
//! * `usize::MAX` (default) — **stop-the-world**: the historical
//!   conflict-free rehash kernels in [`crate::rehash`] run to completion
//!   inside the batch that triggered them. This path is byte-for-byte the
//!   pre-machine behaviour.
//! * finite — **incremental**: the resize becomes a
//!   [`super::migration::MigrationMachine`] pass; each batch (or explicit
//!   [`CuckooTable::migrate_quantum`] call) drains at most one quantum of
//!   source buckets, so no single batch pays for a whole-subtable rehash.

use gpu_sim::ChargeKind;
use gpu_sim::SimContext;

use crate::config::Config;
use crate::error::{Error, Result};
use crate::ops::insert::{insert_batch as run_insert, InsertOp, InsertOutcome};
use crate::rehash;
use crate::resize::{self, ResizeOp};
use crate::subtable::{SubTable, Word};

use super::migration::{drain_chunk, DrainState, MigrationMachine};
use super::{
    BatchReport, CuckooTable, ResizeEvent, TableShape, MAX_INSERT_RETRIES, MAX_RESIZE_ITERS,
};

impl<K: Word, V: Word> CuckooTable<K, V> {
    /// Upsize-and-retry loop for operations that exceeded the eviction
    /// limit — the paper's "insertion failure triggers resizing".
    pub(super) fn retry_failed(
        &mut self,
        sim: &mut SimContext,
        mut out: InsertOutcome<K, V>,
        report: &mut BatchReport,
    ) -> Result<()> {
        while !out.failed.is_empty() {
            // Stash first: a handful of unplaceable keys should not force a
            // structural resize (the future-work mitigation).
            if let Some(stash) = self.stash.as_mut() {
                let mut ctx = gpu_sim::RoundCtx::new(&mut sim.metrics);
                out.failed.retain(|op| {
                    let stashed = stash.push(op.key, op.val, &mut ctx);
                    if stashed {
                        report.inserted += 1;
                    }
                    !stashed
                });
                ctx.finish();
                if out.failed.is_empty() {
                    return Ok(());
                }
            }
            if self.migration.in_flight() {
                // A stuck insert needs capacity *now*: completing the
                // in-flight migration is the correctness escape hatch, and
                // often frees enough room that no forced upsize is needed.
                self.finish_migration(sim, report)?;
            } else {
                report.retries += 1;
                if report.retries > MAX_INSERT_RETRIES {
                    return Err(Error::InsertStuck {
                        failed_ops: out.failed.len(),
                    });
                }
                let event = self.apply_resize(
                    ResizeOp::Upsize(resize::upsize_candidate(&self.subtable_stats())),
                    sim,
                )?;
                report.resizes.push(event);
            }
            // Restart each failed op fresh: it carries whatever KV its
            // eviction chain held, which re-routes through the two-layer
            // pair of that key.
            let retry_ops: Vec<InsertOp<K, V>> = out
                .failed
                .iter()
                .map(|op| {
                    self.op_counter += 1;
                    InsertOp::reinsert(op.key, op.val, self.op_counter)
                })
                .collect();
            out = run_insert(
                &mut self.tables,
                &self.shape,
                retry_ops,
                None,
                None,
                &mut sim.metrics,
            );
            report.inserted += out.inserted;
            report.updated += out.updated;
        }
        Ok(())
    }

    /// Resize until θ returns to `[α, β]` (insert batches grow only; see
    /// [`resize::Direction`]).
    ///
    /// Stop-the-world mode loops whole resizes; incremental mode pumps at
    /// most one migration quantum per call (starting a migration first if θ
    /// is out of bounds), so the structural work any batch pays is bounded.
    pub(super) fn rebalance(
        &mut self,
        sim: &mut SimContext,
        dir: resize::Direction,
        report: &mut BatchReport,
    ) -> Result<()> {
        let (alpha, beta) = (self.shape.cfg.alpha, self.shape.cfg.beta);
        if self.migration.in_flight() {
            self.migrate_quantum_into(sim, report)?;
            if self.migration.in_flight() {
                return Ok(());
            }
        }
        for _ in 0..MAX_RESIZE_ITERS {
            match self
                .decision
                .decide(&self.subtable_stats(), alpha, beta, dir)
            {
                None => return Ok(()),
                Some(op) if self.shape.cfg.migration_quantum == usize::MAX => {
                    report.resizes.push(self.apply_resize(op, sim)?)
                }
                Some(op) => {
                    self.start_migration(op, sim)?;
                    self.migrate_quantum_into(sim, report)?;
                    return Ok(());
                }
            }
        }
        Err(Error::ResizeDiverged {
            iterations: MAX_RESIZE_ITERS,
        })
    }

    /// Perform one resize operation, including residual placement for
    /// downsizing, then drain the overflow stash back into the subtables
    /// (a resize has just changed where keys belong or made room).
    fn apply_resize(&mut self, op: ResizeOp, sim: &mut SimContext) -> Result<ResizeEvent> {
        debug_assert!(
            !self.migration.in_flight(),
            "stop-the-world resize with a migration in flight"
        );
        self.decision.record(matches!(op, ResizeOp::Upsize(_)));
        let _attr = obs::attr::scope("maintenance/resize");
        let recording = obs::is_enabled();
        if recording {
            let (grow, i) = match op {
                ResizeOp::Upsize(i) => (true, i),
                ResizeOp::Downsize(i) => (false, i),
            };
            obs::span_begin(obs::Event::ResizeBegin {
                grow,
                table: i as u8,
                old_buckets: self.tables[i].n_buckets() as u64,
            });
        }
        let result = self.apply_resize_and_drain(op, sim);
        if recording {
            // Close the span even on error so the span stack stays balanced.
            let (new_buckets, moved, residuals) = match &result {
                Ok(e) => (e.new_buckets as u64, e.moved, e.residuals),
                Err(_) => (0, 0, 0),
            };
            obs::span_end(obs::Event::ResizeEnd {
                new_buckets,
                moved,
                residuals,
            });
        }
        result
    }

    /// The resize itself plus the post-resize stash drain (the span-free
    /// body of [`Self::apply_resize`]).
    fn apply_resize_and_drain(
        &mut self,
        op: ResizeOp,
        sim: &mut SimContext,
    ) -> Result<ResizeEvent> {
        let event = self.apply_resize_inner(op, sim)?;
        self.drain_stash_reinsert(sim)?;
        Ok(event)
    }

    /// Drain the overflow stash back into the subtables — called after any
    /// completed resize (a resize has just changed where keys belong or
    /// made room). Shared by the stop-the-world path and the migration
    /// finalize step.
    fn drain_stash_reinsert(&mut self, sim: &mut SimContext) -> Result<()> {
        if self.stash.as_ref().is_some_and(|s| !s.is_empty()) {
            let stash = self.stash.as_mut().expect("checked above");
            let mut ctx = gpu_sim::RoundCtx::new(&mut sim.metrics);
            let drained = stash.drain(&mut ctx);
            ctx.finish();
            let ops: Vec<InsertOp<K, V>> = drained
                .into_iter()
                .map(|(k, v)| {
                    self.op_counter += 1;
                    InsertOp::reinsert(k, v, self.op_counter)
                })
                .collect();
            let out = run_insert(
                &mut self.tables,
                &self.shape,
                ops,
                None,
                None,
                &mut sim.metrics,
            );
            // Whatever still fails goes straight back to the stash (room is
            // guaranteed: we just drained it).
            if !out.failed.is_empty() {
                let stash = self.stash.as_mut().expect("still present");
                let mut ctx = gpu_sim::RoundCtx::new(&mut sim.metrics);
                for op in &out.failed {
                    let ok = stash.push(op.key, op.val, &mut ctx);
                    debug_assert!(ok, "stash was just drained");
                }
                ctx.finish();
            }
        }
        Ok(())
    }

    fn apply_resize_inner(&mut self, op: ResizeOp, sim: &mut SimContext) -> Result<ResizeEvent> {
        match op {
            ResizeOp::Upsize(i) => {
                let old = self.tables[i].n_buckets();
                let rep = rehash::upsize(
                    &mut self.tables,
                    i,
                    &self.shape,
                    sim,
                    &mut self.ledger_bytes,
                )?;
                Ok(ResizeEvent {
                    op,
                    old_buckets: old,
                    new_buckets: old * 2,
                    moved: rep.moved,
                    residuals: 0,
                })
            }
            ResizeOp::Downsize(i) => {
                let old = self.tables[i].n_buckets();
                let (rep, residuals) =
                    rehash::downsize_collect(&mut self.tables, i, sim, &mut self.ledger_bytes)?;
                let n_res = residuals.len() as u64;
                if !residuals.is_empty() {
                    // Residuals go to their partner subtables; the
                    // downsizing table is excluded within this "kernel".
                    let out = run_insert(
                        &mut self.tables,
                        &self.shape,
                        residuals,
                        Some(i),
                        None,
                        &mut sim.metrics,
                    );
                    // Leftovers (pathological) are retried without the
                    // exclusion — the downsize itself has completed.
                    let mut leftovers = out.failed;
                    let mut guard = 0;
                    while !leftovers.is_empty() {
                        guard += 1;
                        if guard > MAX_INSERT_RETRIES {
                            return Err(Error::InsertStuck {
                                failed_ops: leftovers.len(),
                            });
                        }
                        let target = resize::upsize_candidate(&self.subtable_stats());
                        rehash::upsize(
                            &mut self.tables,
                            target,
                            &self.shape,
                            sim,
                            &mut self.ledger_bytes,
                        )?;
                        let retry: Vec<InsertOp<K, V>> = leftovers
                            .iter()
                            .map(|f| {
                                self.op_counter += 1;
                                InsertOp::reinsert(f.key, f.val, self.op_counter)
                            })
                            .collect();
                        leftovers = run_insert(
                            &mut self.tables,
                            &self.shape,
                            retry,
                            None,
                            None,
                            &mut sim.metrics,
                        )
                        .failed;
                    }
                }
                Ok(ResizeEvent {
                    op,
                    old_buckets: old,
                    new_buckets: old / 2,
                    moved: rep.moved,
                    residuals: n_res,
                })
            }
        }
    }

    /// Force one resize operation regardless of θ (used by the F7 resize
    /// experiment, which measures a single upsize/downsize in isolation).
    /// Always stop-the-world; any in-flight migration is completed first
    /// (its finalizing [`ResizeEvent`] is not reported here).
    pub fn force_resize(&mut self, sim: &mut SimContext, op: ResizeOp) -> Result<ResizeEvent> {
        let mut scratch = BatchReport::default();
        self.finish_migration(sim, &mut scratch)?;
        let event = self.apply_resize(op, sim);
        self.debug_verify("force_resize");
        event
    }

    /// The *naive* alternative the paper's resize experiment compares
    /// against: resize subtable `idx` by draining all its entries and
    /// re-inserting them one by one through the normal insert kernel
    /// (Algorithm 1), instead of the conflict-free rehash. Returns the
    /// number of KVs moved.
    pub fn rehash_subtable_naive(
        &mut self,
        sim: &mut SimContext,
        idx: usize,
        grow: bool,
    ) -> Result<u64> {
        let mut scratch = BatchReport::default();
        self.finish_migration(sim, &mut scratch)?;
        let _attr = obs::attr::scope("maintenance/rehash");
        let layout = self.shape.cfg.layout;
        let old = &self.tables[idx];
        let old_buckets = old.n_buckets();
        let new_buckets = if grow {
            old_buckets * 2
        } else {
            (old_buckets / 2).max(1)
        };
        // Drain: read every key and value line of the subtable.
        sim.metrics.charge(
            ChargeKind::ReadTx,
            layout.drain_lines() * old_buckets as u64,
        );
        let drained: Vec<(K, V)> = old.iter_live().collect();
        let old_bytes = old.device_bytes();
        let new_bytes = layout.device_bytes_for(new_buckets);
        sim.device.alloc(new_bytes)?;
        self.ledger_bytes += new_bytes;
        self.tables[idx] = SubTable::new(new_buckets, layout);
        sim.device.free(old_bytes)?;
        self.ledger_bytes -= old_bytes;
        // Re-insert through the ordinary voter kernel: each key routes
        // through its two-layer pair (which contains `idx`), competing with
        // whatever is already in the partner subtables. The naive strategy
        // has no Theorem-1 steering (that is part of what it lacks), so
        // half the reinserts land in the other, possibly nearly full,
        // subtable — which is exactly why the paper finds naive upsizing
        // "severely limited".
        let naive_shape = TableShape {
            cfg: Config {
                distribution: crate::config::Distribution::Uniform,
                ..self.shape.cfg
            },
            pair: self.shape.pair,
            hashes: self.shape.hashes.clone(),
        };
        let moved = drained.len() as u64;
        let ops: Vec<InsertOp<K, V>> = drained
            .into_iter()
            .map(|(k, v)| {
                self.op_counter += 1;
                InsertOp::fresh(k, v, self.op_counter)
            })
            .collect();
        let out = run_insert(
            &mut self.tables,
            &naive_shape,
            ops,
            None,
            None,
            &mut sim.metrics,
        );
        let mut report = BatchReport::default();
        self.retry_failed(sim, out, &mut report)?;
        Ok(moved)
    }

    /// The policy invariant: no subtable more than twice any other.
    pub fn size_ratio_ok(&self) -> bool {
        resize::size_ratio_invariant(&self.subtable_stats())
    }

    // ------------------------------------------------------------------
    // Incremental migration (finite `Config::migration_quantum`).
    // ------------------------------------------------------------------

    /// Whether a migration is in flight (draining or awaiting finalize).
    pub fn migration_in_flight(&self) -> bool {
        self.migration.in_flight()
    }

    /// Source buckets not yet drained plus the pending finalize step; 0
    /// when idle. Exported by the service layer as the `migration_backlog`
    /// gauge.
    pub fn migration_backlog(&self) -> u64 {
        self.migration.backlog()
    }

    /// Pump one migration quantum: drain up to `migration_quantum` source
    /// buckets, or perform the finalize swap if draining is complete. A
    /// no-op when no migration is in flight. The service layer calls this
    /// between flush windows to interleave structural work with traffic.
    pub fn migrate_quantum(
        &mut self,
        sim: &mut SimContext,
        report: &mut BatchReport,
    ) -> Result<()> {
        self.migrate_quantum_into(sim, report)?;
        self.debug_verify("migrate_quantum");
        Ok(())
    }

    /// [`Self::migrate_quantum`] without the batch-boundary verify (used
    /// inside batches, which verify at their own boundary).
    fn migrate_quantum_into(
        &mut self,
        sim: &mut SimContext,
        report: &mut BatchReport,
    ) -> Result<()> {
        match &self.migration {
            MigrationMachine::Idle => Ok(()),
            MigrationMachine::Draining(_) => {
                let quantum = self.shape.cfg.migration_quantum;
                let leftovers = self.migrate_chunk(sim, quantum, report)?;
                self.park_or_escalate(sim, leftovers, report)
            }
            MigrationMachine::Finalizing(_) => {
                let event = self.finalize_migration(sim)?;
                report.resizes.push(event);
                Ok(())
            }
        }
    }

    /// Run an in-flight migration to completion (drain + finalize). The
    /// correctness escape hatch for paths that need the table quiescent:
    /// stuck-insert recovery, [`Self::force_resize`] and the naive-rehash
    /// experiment.
    pub(super) fn finish_migration(
        &mut self,
        sim: &mut SimContext,
        report: &mut BatchReport,
    ) -> Result<()> {
        let mut pending = Vec::new();
        while let MigrationMachine::Draining(state) = &self.migration {
            let rest = state.span - state.cursor;
            pending.extend(self.migrate_chunk(sim, rest, report)?);
        }
        if matches!(self.migration, MigrationMachine::Finalizing(_)) {
            let event = self.finalize_migration(sim)?;
            report.resizes.push(event);
        }
        self.park_or_escalate(sim, pending, report)
    }

    /// Allocate the fresh subtable and enter the Draining state. The old
    /// subtable stays in place (and keeps serving routed operations) until
    /// the finalize swap.
    fn start_migration(&mut self, op: ResizeOp, sim: &mut SimContext) -> Result<()> {
        debug_assert!(
            !self.migration.in_flight(),
            "at most one migration in flight"
        );
        let (grow, idx) = match op {
            ResizeOp::Upsize(i) => (true, i),
            ResizeOp::Downsize(i) => (false, i),
        };
        let layout = self.shape.cfg.layout;
        let old_n = self.tables[idx].n_buckets();
        let new_n = if grow {
            old_n * 2
        } else {
            debug_assert!(
                old_n > 1 && old_n.is_multiple_of(2),
                "downsize needs an even size"
            );
            old_n / 2
        };
        let new_bytes = layout.device_bytes_for(new_n);
        sim.device.alloc(new_bytes)?;
        self.ledger_bytes += new_bytes;
        self.decision.record(grow);
        self.migration = MigrationMachine::Draining(DrainState {
            table: idx,
            grow,
            fresh: SubTable::new(new_n, layout),
            cursor: 0,
            // The cursor sweeps old buckets when growing, merged new
            // buckets when shrinking (each covering two old buckets).
            span: if grow { old_n } else { new_n },
            old_buckets: old_n,
            moved: 0,
            residuals: 0,
        });
        Ok(())
    }

    /// Drain one chunk of up to `budget` source buckets as a scheduled
    /// launch, place its residuals into partner subtables, and transition
    /// to Finalizing when the drain completes. Returns residual ops that
    /// fit neither the partners nor the stash (pathological; the caller
    /// escalates).
    fn migrate_chunk(
        &mut self,
        sim: &mut SimContext,
        budget: usize,
        report: &mut BatchReport,
    ) -> Result<Vec<InsertOp<K, V>>> {
        let MigrationMachine::Draining(state) = &mut self.migration else {
            return Ok(Vec::new());
        };
        let idx = state.table;
        let rest = state.span - state.cursor;
        debug_assert!(rest > 0, "Draining implies undrained source buckets");
        let budget = budget.max(1).min(rest);
        let _attr = obs::attr::scope("maintenance/migrate");
        let recording = obs::is_enabled();
        if recording {
            obs::span_begin(obs::Event::MigrateChunkBegin {
                grow: state.grow,
                table: idx as u8,
                cursor: state.cursor as u64,
                chunk: budget as u64,
            });
        }
        let outcome = drain_chunk(
            state,
            &mut self.tables[idx],
            &self.shape.hashes[idx],
            budget,
            self.shape.cfg.schedule,
            &mut sim.metrics,
        );
        report.migrated_buckets += budget as u64;
        report.migrated_kvs += outcome.moved;
        let done = state.cursor == state.span;

        // Residuals (shrinking only) go to their partner subtables — the
        // draining table is excluded, exactly like the stop-the-world
        // downsize — while probing coherently through the migration view.
        let mut leftovers = Vec::new();
        if !outcome.residuals.is_empty() {
            let ops: Vec<InsertOp<K, V>> = outcome
                .residuals
                .iter()
                .map(|&(k, v)| {
                    self.op_counter += 1;
                    InsertOp::reinsert(k, v, self.op_counter)
                })
                .collect();
            let MigrationMachine::Draining(state) = &mut self.migration else {
                unreachable!("checked above");
            };
            state.residuals += outcome.residuals.len() as u64;
            let view = state.view();
            let out = run_insert(
                &mut self.tables,
                &self.shape,
                ops,
                Some(idx),
                Some((view, &mut state.fresh)),
                &mut sim.metrics,
            );
            leftovers = out.failed;
        }
        let state = self.migration.state().expect("still in flight");
        if recording {
            obs::span_end(obs::Event::MigrateChunkEnd {
                moved: outcome.moved,
                residuals: outcome.residuals.len() as u64,
                backlog: (state.span - state.cursor) as u64 + 1,
            });
        }
        if done {
            let MigrationMachine::Draining(state) = std::mem::take(&mut self.migration) else {
                unreachable!("checked above");
            };
            self.migration = MigrationMachine::Finalizing(state);
        }
        Ok(leftovers)
    }

    /// Finalize: swap the fresh subtable in, free the old one, update the
    /// ledger and re-home the overflow stash. Returns the retired event.
    fn finalize_migration(&mut self, sim: &mut SimContext) -> Result<ResizeEvent> {
        let MigrationMachine::Finalizing(state) = std::mem::take(&mut self.migration) else {
            unreachable!("finalize called outside Finalizing");
        };
        let idx = state.table;
        debug_assert_eq!(
            self.tables[idx].occupied(),
            0,
            "old subtable fully drained before finalize"
        );
        let old_bytes = self.tables[idx].device_bytes();
        let new_buckets = state.fresh.n_buckets();
        self.tables[idx] = state.fresh;
        sim.device.free(old_bytes)?;
        self.ledger_bytes -= old_bytes;
        let event = ResizeEvent {
            op: if state.grow {
                ResizeOp::Upsize(idx)
            } else {
                ResizeOp::Downsize(idx)
            },
            old_buckets: state.old_buckets,
            new_buckets,
            moved: state.moved,
            residuals: state.residuals,
        };
        self.drain_stash_reinsert(sim)?;
        Ok(event)
    }

    /// Park chunk leftovers in the stash; if any remain, abandon
    /// incrementality (finish the migration) and run the same
    /// upsize-elsewhere-and-retry loop the stop-the-world downsize uses.
    fn park_or_escalate(
        &mut self,
        sim: &mut SimContext,
        mut leftovers: Vec<InsertOp<K, V>>,
        report: &mut BatchReport,
    ) -> Result<()> {
        if leftovers.is_empty() {
            return Ok(());
        }
        if let Some(stash) = self.stash.as_mut() {
            let mut ctx = gpu_sim::RoundCtx::new(&mut sim.metrics);
            leftovers.retain(|op| !stash.push(op.key, op.val, &mut ctx));
            ctx.finish();
        }
        if leftovers.is_empty() {
            return Ok(());
        }
        self.finish_migration(sim, report)?;
        let mut guard = 0;
        while !leftovers.is_empty() {
            guard += 1;
            if guard > MAX_INSERT_RETRIES {
                return Err(Error::InsertStuck {
                    failed_ops: leftovers.len(),
                });
            }
            let target = resize::upsize_candidate(&self.subtable_stats());
            rehash::upsize(
                &mut self.tables,
                target,
                &self.shape,
                sim,
                &mut self.ledger_bytes,
            )?;
            let retry: Vec<InsertOp<K, V>> = leftovers
                .iter()
                .map(|f| {
                    self.op_counter += 1;
                    InsertOp::reinsert(f.key, f.val, self.op_counter)
                })
                .collect();
            leftovers = run_insert(
                &mut self.tables,
                &self.shape,
                retry,
                None,
                None,
                &mut sim.metrics,
            )
            .failed;
        }
        Ok(())
    }
}
