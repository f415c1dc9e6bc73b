//! Warp-centric `find`.
//!
//! The key's candidate subtables come from the configured
//! [`crate::Layering`]: at most **two** probes under the two-layer scheme
//! (the paper's guarantee), up to `d` under plain d-ary cuckoo (the
//! alternative the ablation compares against). Each probe is one coalesced
//! read transaction in which every lane of the warp compares one slot,
//! followed by a ballot. A hit additionally reads one value line (keys and
//! values are stored separately, so misses never pay for value traffic).
//! No locks are taken.

use gpu_sim::{run_rounds_with, Metrics, RoundCtx, RoundKernel, StepOutcome};

use crate::subtable::{SubTable, Word};
use crate::table::migration::{MigrationView, Route};
use crate::table::TableShape;

/// Per-warp state: a slice of keys processed one at a time (warp-centric).
pub(crate) struct FindWarp<K> {
    keys: Vec<K>,
    /// Index of this warp's first result in the output vector.
    out_base: usize,
    cur: usize,
    /// Which candidate subtable the current op probes next.
    cand_idx: usize,
}

struct FindKernel<'a, K: Word, V: Word> {
    tables: &'a [SubTable<K, V>],
    shape: &'a TableShape,
    /// In-flight incremental migration: probes of the draining subtable are
    /// routed per key to its old or fresh bucket — still exactly one probe
    /// per candidate subtable, so the two-lookup bound holds mid-migration.
    migration: Option<(MigrationView, &'a SubTable<K, V>)>,
    results: &'a mut [Option<V>],
}

impl<K: Word, V: Word> RoundKernel<FindWarp<K>> for FindKernel<'_, K, V> {
    fn step(&mut self, warp: &mut FindWarp<K>, ctx: &mut RoundCtx) -> StepOutcome {
        let Some(&key) = warp.keys.get(warp.cur) else {
            return StepOutcome::Done;
        };
        let cands = self.shape.candidates(key.route());
        let t = cands.get(warp.cand_idx);
        let (table, bucket) = match self.migration {
            Some((view, fresh)) if view.table == t => {
                match view.route(&self.shape.hashes[t], key.route()) {
                    Route::Old(b) => (&self.tables[t], b),
                    Route::Fresh(b) => (fresh, b),
                }
            }
            _ => {
                let table = &self.tables[t];
                (
                    table,
                    self.shape.hashes[t].bucket(key.route(), table.n_buckets()),
                )
            }
        };
        if let Some(slot) = table.probe_find(bucket, key, ctx) {
            // Hit: fetch the value (free under AoS — it came with the probe).
            self.shape.cfg.layout.charge_value_read(ctx);
            self.results[warp.out_base + warp.cur] = Some(table.bucket_vals(bucket)[slot]);
            if obs::is_enabled() {
                obs::emit(obs::Event::OpRetired {
                    kind: obs::OpKind::Find,
                    op: 0,
                    key: key.into(),
                    outcome: obs::OpOutcome::Hit,
                    probes: warp.cand_idx as u32 + 1,
                    evict_depth: 0,
                    lock_waits: 0,
                });
            }
            warp.cur += 1;
            warp.cand_idx = 0;
        } else {
            warp.cand_idx += 1;
            if warp.cand_idx == cands.len() {
                self.results[warp.out_base + warp.cur] = None;
                if obs::is_enabled() {
                    obs::emit(obs::Event::OpRetired {
                        kind: obs::OpKind::Find,
                        op: 0,
                        key: key.into(),
                        outcome: obs::OpOutcome::Miss,
                        probes: warp.cand_idx as u32,
                        evict_depth: 0,
                        lock_waits: 0,
                    });
                }
                warp.cur += 1;
                warp.cand_idx = 0;
            }
        }
        if warp.cur == warp.keys.len() {
            StepOutcome::Done
        } else {
            StepOutcome::Pending
        }
    }
}

/// Execute a batched find. Returns one `Option<value>` per key, in order.
pub(crate) fn find_batch<'a, K: Word, V: Word>(
    tables: &'a [SubTable<K, V>],
    shape: &'a TableShape,
    keys: &[K],
    migration: Option<(MigrationView, &'a SubTable<K, V>)>,
    metrics: &mut Metrics,
) -> Vec<Option<V>> {
    let mut results = vec![None; keys.len()];
    let mut warps: Vec<FindWarp<K>> = Vec::with_capacity(keys.len() / 32 + 1);
    let mut base = 0;
    for chunk in keys.chunks(gpu_sim::WARP_SIZE) {
        warps.push(FindWarp {
            keys: chunk.to_vec(),
            out_base: base,
            cur: 0,
            cand_idx: 0,
        });
        base += chunk.len();
    }
    let mut kernel = FindKernel {
        tables,
        shape,
        migration,
        results: &mut results,
    };
    let recording = obs::is_enabled();
    let rounds_before = metrics.rounds;
    if recording {
        obs::span_begin(obs::Event::LaunchBegin {
            kind: obs::OpKind::Find,
            warps: warps.len() as u32,
        });
    }
    run_rounds_with(&mut kernel, &mut warps, metrics, shape.cfg.schedule);
    if recording {
        obs::span_end(obs::Event::LaunchEnd {
            rounds: metrics.rounds - rounds_before,
        });
    }
    results
}
