//! Warp-centric `delete`: no locking.
//!
//! As in the paper, deletion inspects the candidate buckets that could hold
//! the key (two under the two-layer scheme) and erases the key slot on a
//! match. Because each lane inspects a distinct slot and erasure only
//! writes the key line, no lock is required. Under
//! [`crate::DupPolicy::Upsert`] a key is unique, so the probe stops at the
//! first hit; under [`crate::DupPolicy::PaperInsert`] every candidate is
//! scanned so stray duplicates are cleaned up too.

use gpu_sim::{run_rounds_with, Metrics, RoundCtx, RoundKernel, StepOutcome};

use crate::config::DupPolicy;
use crate::subtable::{SubTable, Word};
use crate::table::migration::{MigrationView, Route};
use crate::table::TableShape;

pub(crate) struct DeleteWarp<K> {
    keys: Vec<K>,
    cur: usize,
    cand_idx: usize,
    /// Whether the current key has erased at least one slot so far
    /// (flight-recorder outcome accounting only).
    erased_cur: bool,
}

struct DeleteKernel<'a, K: Word, V: Word> {
    tables: &'a mut [SubTable<K, V>],
    shape: &'a TableShape,
    /// In-flight incremental migration: probes of the draining subtable are
    /// routed per key to its old or fresh bucket — still exactly one probe
    /// per candidate subtable, so the two-lookup bound holds mid-migration.
    migration: Option<(MigrationView, &'a mut SubTable<K, V>)>,
    deleted: u64,
}

impl<K: Word, V: Word> RoundKernel<DeleteWarp<K>> for DeleteKernel<'_, K, V> {
    fn step(&mut self, warp: &mut DeleteWarp<K>, ctx: &mut RoundCtx) -> StepOutcome {
        let Some(&key) = warp.keys.get(warp.cur) else {
            return StepOutcome::Done;
        };
        let cands = self.shape.candidates(key.route());
        let t = cands.get(warp.cand_idx);
        let hash = &self.shape.hashes[t];
        let (table, bucket): (&mut SubTable<K, V>, usize) = match self.migration.as_mut() {
            Some((view, fresh)) if view.table == t => match view.route(hash, key.route()) {
                Route::Old(b) => (&mut self.tables[t], b),
                Route::Fresh(b) => (&mut **fresh, b),
            },
            _ => {
                let n = self.tables[t].n_buckets();
                (&mut self.tables[t], hash.bucket(key.route(), n))
            }
        };
        let mut finished = false;
        if let Some(slot) = table.probe_find(bucket, key, ctx) {
            table.erase(bucket, slot);
            self.shape.cfg.layout.charge_key_write(ctx);
            self.deleted += 1;
            warp.erased_cur = true;
            // Keys are unique under Upsert: done with this op. Under
            // PaperInsert, keep scanning the remaining candidates to clean
            // up potential duplicates.
            if self.shape.cfg.dup_policy == DupPolicy::Upsert {
                finished = true;
            }
        }
        warp.cand_idx += 1;
        if finished || warp.cand_idx == cands.len() {
            if obs::is_enabled() {
                obs::emit(obs::Event::OpRetired {
                    kind: obs::OpKind::Delete,
                    op: 0,
                    key: key.into(),
                    outcome: if warp.erased_cur {
                        obs::OpOutcome::Deleted
                    } else {
                        obs::OpOutcome::Miss
                    },
                    probes: warp.cand_idx as u32,
                    evict_depth: 0,
                    lock_waits: 0,
                });
            }
            warp.erased_cur = false;
            warp.cur += 1;
            warp.cand_idx = 0;
        }
        if warp.cur == warp.keys.len() {
            StepOutcome::Done
        } else {
            StepOutcome::Pending
        }
    }
}

/// Execute a batched delete. Returns the number of erased slots.
pub(crate) fn delete_batch<'a, K: Word, V: Word>(
    tables: &'a mut [SubTable<K, V>],
    shape: &'a TableShape,
    keys: &[K],
    migration: Option<(MigrationView, &'a mut SubTable<K, V>)>,
    metrics: &mut Metrics,
) -> u64 {
    let mut warps: Vec<DeleteWarp<K>> = keys
        .chunks(gpu_sim::WARP_SIZE)
        .map(|chunk| DeleteWarp {
            keys: chunk.to_vec(),
            cur: 0,
            cand_idx: 0,
            erased_cur: false,
        })
        .collect();
    let mut kernel = DeleteKernel {
        tables,
        shape,
        migration,
        deleted: 0,
    };
    let recording = obs::is_enabled();
    let rounds_before = metrics.rounds;
    if recording {
        obs::span_begin(obs::Event::LaunchBegin {
            kind: obs::OpKind::Delete,
            warps: warps.len() as u32,
        });
    }
    run_rounds_with(&mut kernel, &mut warps, metrics, shape.cfg.schedule);
    if recording {
        obs::span_end(obs::Event::LaunchEnd {
            rounds: metrics.rounds - rounds_before,
        });
    }
    kernel.deleted
}
