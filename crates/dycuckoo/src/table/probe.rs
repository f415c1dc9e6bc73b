//! Probe side of the table: the batched insert/find/delete entry points
//! that pack user operations into warps and drive the kernels in
//! [`crate::ops`], plus the stash fast paths wrapped around them.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use gpu_sim::ChargeKind;
use gpu_sim::SimContext;

use crate::error::{Error, Result};
use crate::ops::insert::{insert_batch as run_insert, InsertOp};
use crate::ops::{delete::delete_batch as run_delete, find::find_batch as run_find};
use crate::resize;
use crate::rmw::MergeRule;
use crate::subtable::Word;

use super::{BatchReport, CuckooTable, UpsertReport, RESIZE_CHECK_INTERVAL};

impl<K: Word, V: Word> CuckooTable<K, V> {
    /// Insert a batch of KV pairs. Duplicate handling follows
    /// [`crate::DupPolicy`]; resizes triggered by the batch are reported.
    pub fn insert_batch(&mut self, sim: &mut SimContext, kvs: &[(K, V)]) -> Result<BatchReport> {
        if kvs.iter().any(|&(k, _)| k == K::EMPTY) {
            return Err(Error::ZeroKey);
        }
        let mut report = BatchReport {
            attempted: kvs.len(),
            ..BatchReport::default()
        };
        let _attr = obs::attr::scope("dycuckoo/insert");
        sim.metrics.charge(ChargeKind::Ops, kvs.len() as u64);
        self.decision.note_batch();
        // Stashed keys are updated in place so a key never lives in both
        // the stash and a subtable.
        let filtered: Vec<(K, V)>;
        let mut rest: &[(K, V)] = kvs;
        if self.stash.as_ref().is_some_and(|s| !s.is_empty()) {
            let stash = self.stash.as_mut().expect("checked above");
            let _stash_attr = obs::attr::scope("stash");
            let mut ctx = gpu_sim::RoundCtx::new(&mut sim.metrics);
            filtered = kvs
                .iter()
                .copied()
                .filter(|&(k, v)| {
                    let in_stash = stash.update(k, v, &mut ctx);
                    if in_stash {
                        report.updated += 1;
                    }
                    !in_stash
                })
                .collect();
            ctx.finish();
            rest = &filtered;
        }
        while !rest.is_empty() {
            // Adaptive chunking: insert only up to the headroom below β
            // before re-checking the filled factor, so a huge batch cannot
            // drive the table far past its bound (where every bucket is
            // full and eviction chains explode) between checks.
            let step = (self.headroom_slots().max(512) as usize)
                .min(RESIZE_CHECK_INTERVAL)
                .min(rest.len());
            let (chunk, tail) = rest.split_at(step);
            rest = tail;
            let ops: Vec<InsertOp<K, V>> = chunk
                .iter()
                .map(|&(k, v)| {
                    self.op_counter += 1;
                    InsertOp::fresh(k, v, self.op_counter)
                })
                .collect();
            let out = run_insert(
                &mut self.tables,
                &self.shape,
                ops,
                None,
                self.migration.kernel_ctx(),
                &mut sim.metrics,
            );
            report.inserted += out.inserted;
            report.updated += out.updated;
            self.retry_failed(sim, out, &mut report)?;
            self.rebalance(sim, resize::Direction::GrowOnly, &mut report)?;
        }
        self.debug_verify("insert_batch");
        Ok(report)
    }

    /// Read-modify-write a batch of `(key, arg)` pairs under `rule`:
    /// absent keys are inserted as `rule.initial(arg)`, present keys
    /// become `rule.merge(old, arg)` inside the insert kernel's claim
    /// critical section (exactly-once, even across eviction chains and
    /// upsize-and-retry cycles — unapplied merges are materialized before
    /// any retry re-inserts them).
    ///
    /// Duplicate keys within the batch are pre-coalesced in submission
    /// order into one kernel op per unique key carrying the batch's
    /// combined effect (`Count` occurrences normalize to one `Add`), since
    /// two lanes carrying the same absent key could otherwise steer to
    /// different candidate subtables and double-place it.
    pub fn upsert_batch(
        &mut self,
        sim: &mut SimContext,
        kvs: &[(K, V)],
        rule: MergeRule,
    ) -> Result<UpsertReport> {
        if kvs.iter().any(|&(k, _)| k == K::EMPTY) {
            return Err(Error::ZeroKey);
        }
        let mut report = BatchReport {
            attempted: kvs.len(),
            ..BatchReport::default()
        };
        let _attr = obs::attr::scope("dycuckoo/upsert");
        sim.metrics.charge(ChargeKind::Ops, kvs.len() as u64);
        self.decision.note_batch();
        // Pre-coalesce: fold each key's occurrences into one (rule, arg),
        // keeping first-touch order. Only a key's first occurrence can be
        // fresh.
        let mut fresh = vec![false; kvs.len()];
        let mut entries: Vec<(K, MergeRule, V, usize)> = Vec::new();
        let mut index: HashMap<K, usize> = HashMap::new();
        for (pos, &(k, arg)) in kvs.iter().enumerate() {
            let (r, a) = match rule {
                MergeRule::Count => (MergeRule::Add, V::ONE),
                r => (r, arg),
            };
            match index.entry(k) {
                Entry::Occupied(e) => {
                    let u = &mut entries[*e.get()];
                    u.2 = u.1.fold_args(u.2, a).expect("Count normalized to Add");
                }
                Entry::Vacant(e) => {
                    e.insert(entries.len());
                    entries.push((k, r, a, pos));
                }
            }
        }
        // Stashed keys merge in place so a key never lives in both the
        // stash and a subtable.
        if self.stash.as_ref().is_some_and(|s| !s.is_empty()) {
            let stash = self.stash.as_mut().expect("checked above");
            let _stash_attr = obs::attr::scope("stash");
            let mut ctx = gpu_sim::RoundCtx::new(&mut sim.metrics);
            entries.retain(|&(k, r, a, _)| {
                let merged = stash.update_with(k, |old| r.merge(old, a), &mut ctx);
                if merged {
                    report.updated += 1;
                }
                !merged
            });
            ctx.finish();
        }
        for &(_, _, _, pos) in &entries {
            fresh[pos] = true;
        }
        let mut rest: &[(K, MergeRule, V, usize)] = &entries;
        let mut base = 0usize;
        while !rest.is_empty() {
            let step = (self.headroom_slots().max(512) as usize)
                .min(RESIZE_CHECK_INTERVAL)
                .min(rest.len());
            let (chunk, tail) = rest.split_at(step);
            rest = tail;
            let ops: Vec<InsertOp<K, V>> = chunk
                .iter()
                .enumerate()
                .map(|(i, &(k, r, a, _))| {
                    self.op_counter += 1;
                    InsertOp::upsert(k, a, self.op_counter, r, (base + i) as u32)
                })
                .collect();
            let mut out = run_insert(
                &mut self.tables,
                &self.shape,
                ops,
                None,
                self.migration.kernel_ctx(),
                &mut sim.metrics,
            );
            for idx in std::mem::take(&mut out.merged) {
                fresh[entries[idx as usize].3] = false;
            }
            report.inserted += out.inserted;
            report.updated += out.updated;
            self.retry_failed(sim, out, &mut report)?;
            self.rebalance(sim, resize::Direction::GrowOnly, &mut report)?;
            base += step;
        }
        self.debug_verify("upsert_batch");
        Ok(UpsertReport {
            batch: report,
            fresh,
        })
    }

    /// Counting-table special case: bump each key's counter by its number
    /// of occurrences in the batch, inserting absent keys at their count.
    pub fn increment_batch(&mut self, sim: &mut SimContext, keys: &[K]) -> Result<UpsertReport> {
        // `Count` ignores its argument.
        let kvs: Vec<(K, V)> = keys.iter().map(|&k| (k, V::EMPTY)).collect();
        self.upsert_batch(sim, &kvs, MergeRule::Count)
    }

    /// Look up a batch of keys; returns one `Option<value>` per key.
    pub fn find_batch(&self, sim: &mut SimContext, keys: &[K]) -> Vec<Option<V>> {
        let _attr = obs::attr::scope("dycuckoo/find");
        sim.metrics.charge(ChargeKind::Ops, keys.len() as u64);
        let mut results = run_find(
            &self.tables,
            &self.shape,
            keys,
            self.migration.kernel_ctx_ro(),
            &mut sim.metrics,
        );
        if let Some(stash) = self.stash.as_ref().filter(|s| !s.is_empty()) {
            let _stash_attr = obs::attr::scope("stash");
            let mut ctx = gpu_sim::RoundCtx::new(&mut sim.metrics);
            for (key, r) in keys.iter().zip(results.iter_mut()) {
                if r.is_none() {
                    *r = stash.find(*key, &mut ctx);
                }
            }
            ctx.finish();
        }
        results
    }

    /// Delete a batch of keys, reporting erased count and any downsizes.
    pub fn delete_batch(&mut self, sim: &mut SimContext, keys: &[K]) -> Result<BatchReport> {
        let mut report = BatchReport {
            attempted: keys.len(),
            ..BatchReport::default()
        };
        let _attr = obs::attr::scope("dycuckoo/delete");
        sim.metrics.charge(ChargeKind::Ops, keys.len() as u64);
        self.decision.note_batch();
        report.deleted = run_delete(
            &mut self.tables,
            &self.shape,
            keys,
            self.migration.kernel_ctx(),
            &mut sim.metrics,
        );
        if self.stash.as_ref().is_some_and(|s| !s.is_empty()) {
            let stash = self.stash.as_mut().expect("checked above");
            let _stash_attr = obs::attr::scope("stash");
            let mut ctx = gpu_sim::RoundCtx::new(&mut sim.metrics);
            for &key in keys {
                if stash.erase(key, &mut ctx) {
                    report.deleted += 1;
                }
                if stash.is_empty() {
                    break;
                }
            }
            ctx.finish();
        }
        self.rebalance(sim, resize::Direction::Both, &mut report)?;
        self.debug_verify("delete_batch");
        Ok(report)
    }

    /// Convenience single-key lookup (one-op batch).
    pub fn get(&self, sim: &mut SimContext, key: K) -> Option<V> {
        self.find_batch(sim, &[key])[0]
    }
}
