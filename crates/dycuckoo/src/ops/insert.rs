//! The voter-coordination insert kernel (Algorithm 1 of the paper).
//!
//! One *thread* owns each insert operation; the *warp* cooperates on
//! whichever operation wins the vote:
//!
//! 1. `ballot` over the still-active lanes elects a leader `l'`.
//! 2. The leader broadcasts its KV and target subtable, then tries to lock
//!    the destination bucket with `atomicCAS`.
//! 3. On failure the warp **re-votes another leader** instead of spinning —
//!    the core idea of the voter scheme (`nth_active_lane`). The
//!    [`crate::Coordination::Spin`] ablation disables the re-vote.
//! 4. On success the warp inspects the bucket with one coalesced read and a
//!    ballot: a matching key is updated, an empty slot is filled, a full
//!    bucket first re-routes a fresh KV to its remaining candidate
//!    subtables, and only then evicts a victim whose KV the leader
//!    re-targets at the victim's own destination (two-layer invariant),
//!    steered by Theorem 1.
//!
//! Operations whose eviction chain exceeds the configured limit are reported
//! as failed; the table layer responds by upsizing and retrying them, which
//! is exactly the paper's "insertion failure triggers resizing" rule.

use std::collections::HashMap;

use gpu_sim::ChargeKind;
use gpu_sim::{ballot, run_rounds_with, Metrics, RoundCtx, RoundKernel, StepOutcome, WARP_SIZE};

use crate::config::{Coordination, Distribution, DupPolicy, Layering};
use crate::distribute::{choose_among, choose_victim};
use crate::rmw::MergeRule;
use crate::subtable::{SubTable, Word};
use crate::table::migration::{MigrationView, Route};
use crate::table::{TableShape, MAX_TABLES};

/// Where an insert operation is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Fresh operation: not yet routed to a subtable.
    Init,
    /// The key was observed in subtable `t`; update it under lock.
    Update { t: usize },
    /// Insert (or continue an eviction chain) into subtable `target`.
    /// `reroutes_left` counts how many *other* candidate buckets a fresh op
    /// may still try on a full bucket before resorting to eviction
    /// (try-all-before-evicting, standard for bucketized cuckoo). Keys in
    /// an eviction chain have a fixed destination, so they evict
    /// immediately.
    Probe { target: usize, reroutes_left: u8 },
}

/// One insert operation, owned by one lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InsertOp<K, V> {
    pub key: K,
    pub val: V,
    /// Deterministic per-op randomness source (global op index). Constant
    /// across the op's whole eviction chain, so it doubles as the chain id
    /// in flight-recorder events.
    pub salt: u64,
    evictions: u32,
    phase: Phase,
    /// Internal re-inserts (resize residuals, failure retries) are known
    /// unique: skip the Upsert duplicate pre-probe.
    skip_dup_check: bool,
    /// Buckets this op has probed (flight-recorder accounting only; never
    /// feeds [`Metrics`], so recording cannot drift the cost model).
    probes: u32,
    /// Failed bucket-lock acquisitions this op has suffered.
    lock_waits: u32,
    /// Merge rule applied when the key is found present. `val` holds the
    /// raw *argument* while the rule is armed; every write site goes
    /// through `rule.initial`/`rule.merge`, and any path that materializes
    /// the KV (eviction swap, failure retry) resets the rule to
    /// `LastWrite` so downstream re-insert machinery stays verbatim.
    rule: MergeRule,
    /// Caller-side index for freshness tracking (`u32::MAX` = untracked):
    /// pushed to [`InsertOutcome::merged`] when the op merges into an
    /// existing key instead of placing a fresh one.
    out_idx: u32,
}

/// Emit the op's flight-recorder retirement event. Call at every point
/// that clears the op's active bit (or pushes it to `failed`).
#[inline]
fn retire<K: Word, V: Word>(op: &InsertOp<K, V>, outcome: obs::OpOutcome) {
    if obs::is_enabled() {
        // Tracked RMW ops retire as `Upsert`; eviction carries and plain
        // inserts (out_idx cleared / never set) as `Insert`.
        let kind = if op.out_idx != u32::MAX {
            obs::OpKind::Upsert
        } else {
            obs::OpKind::Insert
        };
        obs::emit(obs::Event::OpRetired {
            kind,
            op: op.salt,
            key: op.key.into(),
            outcome,
            probes: op.probes,
            evict_depth: op.evictions,
            lock_waits: op.lock_waits,
        });
    }
}

impl<K: Word, V: Word> InsertOp<K, V> {
    /// A fresh insert of `(key, val)`.
    pub fn fresh(key: K, val: V, salt: u64) -> Self {
        Self::upsert(key, val, salt, MergeRule::LastWrite, u32::MAX)
    }

    /// A fresh read-modify-write op: insert `rule.initial(arg)` if `key` is
    /// absent, merge `rule.merge(old, arg)` under the claim lock if present.
    /// `out_idx` tags the op in [`InsertOutcome::merged`] (`u32::MAX` to
    /// opt out of tracking).
    pub fn upsert(key: K, arg: V, salt: u64, rule: MergeRule, out_idx: u32) -> Self {
        Self {
            key,
            val: arg,
            salt,
            evictions: 0,
            phase: Phase::Init,
            skip_dup_check: false,
            probes: 0,
            lock_waits: 0,
            rule,
            out_idx,
        }
    }

    /// A re-insert of a key known not to reside in the table (resize
    /// residuals, failed-op retries): routed normally but without the
    /// Upsert duplicate pre-probe.
    pub fn reinsert(key: K, val: V, salt: u64) -> Self {
        Self {
            skip_dup_check: true,
            ..Self::fresh(key, val, salt)
        }
    }
}

/// Per-warp state: up to 32 lane-owned operations plus the voter cursor.
pub(crate) struct InsertWarp<K, V> {
    ops: Vec<InsertOp<K, V>>,
    active: u32,
    /// Re-vote rotation: advanced whenever a leader fails its lock, so the
    /// next vote elects a different lane (Algorithm 1, line "revote").
    rr: usize,
}

impl<K, V> InsertWarp<K, V> {
    fn new(ops: Vec<InsertOp<K, V>>) -> Self {
        debug_assert!(ops.len() <= WARP_SIZE);
        let active = if ops.len() == 32 {
            u32::MAX
        } else {
            (1u32 << ops.len()) - 1
        };
        Self { ops, active, rr: 0 }
    }
}

/// Outputs of one insert kernel execution.
#[derive(Debug, Default)]
pub(crate) struct InsertOutcome<K, V> {
    /// KVs placed into previously empty slots.
    pub inserted: u64,
    /// KVs that updated an existing key in place.
    pub updated: u64,
    /// Operations that exceeded the eviction limit (carrying whatever KV
    /// the chain was holding when it gave up). The caller upsizes and
    /// retries these. Unapplied merges are materialized at the failure
    /// site (`val = rule.initial(arg)`, rule reset to `LastWrite`), so
    /// retry paths may re-insert the KV verbatim.
    pub failed: Vec<InsertOp<K, V>>,
    /// `out_idx` tags of tracked ops that merged into an existing key
    /// (the key was already present). Tracked ops absent from this list
    /// placed a fresh key — the signal frontier-dedup workloads consume.
    pub merged: Vec<u32>,
}

struct InsertKernel<'a, K: Word, V: Word> {
    tables: &'a mut [SubTable<K, V>],
    shape: &'a TableShape,
    /// Subtable excluded from targeting and victim selection (set while it
    /// is being downsized).
    excluded: Option<usize>,
    /// In-flight incremental migration: probes of the draining subtable are
    /// routed per key to its old or fresh bucket (see
    /// [`crate::table::migration`]). The two-lookup bound is preserved —
    /// each candidate subtable still costs exactly one bucket probe.
    migration: Option<(MigrationView, &'a mut SubTable<K, V>)>,
    out: InsertOutcome<K, V>,
    /// Fault injection (see [`crate::Config::inject_lock_elision`]): probe
    /// steps skip bucket locks and read these stale bucket snapshots
    /// (captured on first touch, held for the whole kernel launch) while
    /// their writes land in the live table — the lost-update race a missing
    /// lock produces on real hardware, where a thread keeps acting on the
    /// bucket image it cached without the lock's acquire to refresh it.
    stale_buckets: Option<HashMap<(usize, usize), Vec<K>>>,
}

impl<K: Word, V: Word> InsertKernel<'_, K, V> {
    /// The bucket's keys as of the first time any op touched it this kernel
    /// launch (first touch snapshots the live bucket). Fresh-side buckets
    /// are keyed under `t + MAX_TABLES` so they never alias old-side snaps.
    fn stale_keys(&mut self, t: usize, b: usize, in_fresh: bool) -> &[K] {
        let tables = &*self.tables;
        let migration = &self.migration;
        let snaps = self.stale_buckets.as_mut().expect("injection enabled");
        let key = if in_fresh { t + MAX_TABLES } else { t };
        snaps.entry((key, b)).or_insert_with(|| {
            if in_fresh {
                &*migration.as_ref().expect("fresh without migration").1
            } else {
                &tables[t]
            }
            .bucket_keys(b)
            .to_vec()
        })
    }

    /// Resolve the bucket, lock space and side for `key` in subtable `t`,
    /// honouring an in-flight migration of that subtable.
    fn locate(&self, t: usize, key: K) -> (usize, u32, bool) {
        if let Some((view, _)) = &self.migration {
            if view.table == t {
                return match view.route(&self.shape.hashes[t], key.route()) {
                    Route::Old(b) => (b, t as u32, false),
                    Route::Fresh(b) => (b, view.fresh_space(), true),
                };
            }
        }
        let b = self.shape.hashes[t].bucket(key.route(), self.tables[t].n_buckets());
        (b, t as u32, false)
    }

    /// The store a located bucket lives in.
    fn store(&mut self, t: usize, in_fresh: bool) -> &mut SubTable<K, V> {
        if in_fresh {
            self.migration.as_mut().expect("fresh without migration").1
        } else {
            &mut self.tables[t]
        }
    }

    /// Read-only view of a located bucket's store.
    fn store_ro(&self, t: usize, in_fresh: bool) -> &SubTable<K, V> {
        if in_fresh {
            self.migration.as_ref().expect("fresh without migration").1
        } else {
            &self.tables[t]
        }
    }

    /// Apply the op's merge into an existing slot under the held lock:
    /// read the old value when the rule needs it (one value-read line;
    /// `LastWrite` blind-writes and charges nothing extra), write the
    /// merged value, and record the op as non-fresh.
    fn merge_in_place(
        &mut self,
        op: &InsertOp<K, V>,
        t: usize,
        b: usize,
        slot: usize,
        in_fresh: bool,
        ctx: &mut RoundCtx,
    ) {
        let new = if op.rule.reads_old() {
            let old = self.store_ro(t, in_fresh).slot(b, slot).1;
            self.shape.cfg.layout.charge_value_read(ctx);
            op.rule.merge(old, op.val)
        } else {
            op.val
        };
        self.store(t, in_fresh).update_val(b, slot, new);
        self.shape.cfg.layout.charge_value_write(ctx);
        self.out.updated += 1;
        if op.out_idx != u32::MAX {
            self.out.merged.push(op.out_idx);
        }
    }

    /// Fail the op: materialize an unapplied merge first (the key is
    /// absent, so the retry must insert `rule.initial(arg)` — ops already
    /// in an eviction chain carry a victim's literal KV and are left
    /// alone), then retire and push to `failed`.
    fn fail(&mut self, warp: &mut InsertWarp<K, V>, leader: usize, mut op: InsertOp<K, V>) {
        if op.evictions == 0 {
            op.val = op.rule.initial(op.val);
            op.rule = MergeRule::LastWrite;
        }
        retire(&op, obs::OpOutcome::Failed);
        self.out.failed.push(op);
        warp.active &= !(1 << leader);
    }

    /// Pick the initial second-layer target for a fresh op, honouring the
    /// exclusion.
    fn route(&self, op: &InsertOp<K, V>) -> usize {
        let cands = self.shape.candidates(op.key.route());
        let viable: Vec<usize> = cands.iter().filter(|&c| Some(c) != self.excluded).collect();
        debug_assert!(!viable.is_empty(), "all candidates excluded");
        choose_among(
            self.shape.cfg.distribution,
            self.tables,
            &viable,
            self.shape.cfg.seed,
            op.key.route(),
            op.salt,
        )
    }

    /// The next candidate bucket for a fresh op re-routing off a full
    /// bucket: the candidate after `t`, cyclically, skipping the exclusion.
    fn next_candidate(&self, key: K, t: usize) -> Option<usize> {
        let cands = self.shape.candidates(key.route());
        let pos = cands.position(t)?;
        for off in 1..cands.len() {
            let c = cands.get((pos + off) % cands.len());
            if Some(c) != self.excluded {
                return Some(c);
            }
        }
        None
    }

    /// Full bucket, no re-routes left: evict a victim, steered by Theorem 1.
    #[allow(clippy::too_many_arguments)]
    fn evict(
        &mut self,
        warp: &mut InsertWarp<K, V>,
        leader: usize,
        op: InsertOp<K, V>,
        t: usize,
        b: usize,
        in_fresh: bool,
        ctx: &mut RoundCtx,
    ) {
        let shape = self.shape;
        let excluded = self.excluded;
        let salt = op.salt ^ (op.evictions as u64) << 32;
        let victim = match shape.cfg.layering {
            // Pair layerings: a victim's destination is its pair's other
            // member; prefer victims whose destination has the most room.
            Layering::TwoLayer | Layering::DisjointPairs => {
                let tables_ro: &[SubTable<K, V>] = self.tables;
                let store_ro: &SubTable<K, V> = if in_fresh {
                    self.migration.as_ref().expect("fresh without migration").1
                } else {
                    &tables_ro[t]
                };
                choose_victim(
                    shape.cfg.distribution,
                    tables_ro,
                    |s| {
                        let (k, _) = store_ro.slot(b, s);
                        shape.evict_destination(tables_ro, k.route(), t, excluded, salt)
                    },
                    shape.cfg.layout.slots,
                    shape.cfg.seed,
                    salt,
                )
            }
            // Plain d-ary cuckoo: any slot works (its destination is chosen
            // afterwards among the d−1 other subtables).
            Layering::PlainD => choose_victim(
                Distribution::Uniform,
                self.tables,
                |_| Some(0),
                shape.cfg.layout.slots,
                shape.cfg.seed,
                salt,
            ),
        };
        match victim {
            None => {
                // Every victim would land in the excluded subtable
                // (vanishingly rare): give up, let the caller retry after
                // the resize completes.
                self.fail(warp, leader, op);
            }
            Some(slot) => {
                let victim_key = self.store_ro(t, in_fresh).slot(b, slot).0;
                let Some(next) = self.shape.evict_destination(
                    self.tables,
                    victim_key.route(),
                    t,
                    excluded,
                    salt,
                ) else {
                    self.fail(warp, leader, op);
                    return;
                };
                let _attr = obs::attr::scope("evict-chain");
                // The swap places the op's key as a *fresh* entry (the dup
                // scan above found no duplicate), so an armed merge rule
                // materializes here; the carried victim is a literal KV.
                let (ek, ev) =
                    self.store(t, in_fresh)
                        .swap(b, slot, op.key, op.rule.initial(op.val));
                self.shape.cfg.layout.charge_kv_write(ctx);
                ctx.metrics.charge(ChargeKind::Evictions, 1);
                if obs::is_enabled() {
                    obs::emit(obs::Event::EvictStep {
                        op: op.salt,
                        placed_key: op.key.into(),
                        carried_key: ek.into(),
                        from_table: t as u8,
                        to_table: next as u8,
                        depth: op.evictions + 1,
                    });
                }
                let lane_op = &mut warp.ops[leader];
                lane_op.key = ek;
                lane_op.val = ev;
                lane_op.evictions = op.evictions + 1;
                lane_op.rule = MergeRule::LastWrite;
                lane_op.out_idx = u32::MAX;
                lane_op.phase = Phase::Probe {
                    target: next,
                    reroutes_left: 0,
                };
                if lane_op.evictions >= self.shape.cfg.eviction_limit {
                    retire(lane_op, obs::OpOutcome::Failed);
                    self.out.failed.push(*lane_op);
                    warp.active &= !(1 << leader);
                }
            }
        }
    }
}

impl<K: Word, V: Word> RoundKernel<InsertWarp<K, V>> for InsertKernel<'_, K, V> {
    fn step(&mut self, warp: &mut InsertWarp<K, V>, ctx: &mut RoundCtx) -> StepOutcome {
        let mask = ballot(|l| warp.active & (1 << l) != 0);
        if mask == 0 {
            return StepOutcome::Done;
        }
        let leader = super::nth_active_lane(mask, warp.rr);
        let op = warp.ops[leader];

        match op.phase {
            Phase::Init => {
                let reroutes = if self.shape.cfg.reroute_before_evict {
                    self.shape.candidates(op.key.route()).len() as u8 - 1
                } else {
                    0
                };
                if self.shape.cfg.dup_policy == DupPolicy::Upsert && !op.skip_dup_check {
                    // Optimistic duplicate probe of every candidate bucket.
                    let mut found = None;
                    for t in self.shape.candidates(op.key.route()).iter() {
                        let (b, _, in_fresh) = self.locate(t, op.key);
                        warp.ops[leader].probes += 1;
                        if self
                            .store_ro(t, in_fresh)
                            .probe_find(b, op.key, ctx)
                            .is_some()
                        {
                            found = Some(t);
                            break;
                        }
                    }
                    warp.ops[leader].phase = match found {
                        Some(t) => Phase::Update { t },
                        None => Phase::Probe {
                            target: self.route(&op),
                            reroutes_left: reroutes,
                        },
                    };
                } else {
                    warp.ops[leader].phase = Phase::Probe {
                        target: self.route(&op),
                        reroutes_left: reroutes,
                    };
                }
                StepOutcome::Pending
            }

            Phase::Update { t } => {
                let (b, space, in_fresh) = self.locate(t, op.key);
                if !ctx.atomic_cas_lock(&mut self.store(t, in_fresh).locks, space, b) {
                    warp.ops[leader].lock_waits += 1;
                    if self.shape.cfg.coordination == Coordination::Voter {
                        warp.rr += 1; // revote
                    }
                    return StepOutcome::Pending;
                }
                // Re-verify under the lock: the key may have been evicted to
                // another candidate bucket since the optimistic probe.
                warp.ops[leader].probes += 1;
                if let Some(slot) = self.store_ro(t, in_fresh).probe_find(b, op.key, ctx) {
                    self.merge_in_place(&op, t, b, slot, in_fresh, ctx);
                    retire(&warp.ops[leader], obs::OpOutcome::Updated);
                    warp.active &= !(1 << leader);
                } else {
                    let reroutes = if self.shape.cfg.reroute_before_evict {
                        self.shape.candidates(op.key.route()).len() as u8 - 1
                    } else {
                        0
                    };
                    warp.ops[leader].phase = Phase::Probe {
                        target: self.route(&op),
                        reroutes_left: reroutes,
                    };
                }
                ctx.atomic_exch_unlock(&mut self.store(t, in_fresh).locks, space, b);
                StepOutcome::Pending
            }

            Phase::Probe {
                target,
                reroutes_left,
            } => {
                let t = target;
                let (b, space, in_fresh) = self.locate(t, op.key);
                if self.stale_buckets.is_some() {
                    // Injected bug: no lock, and the probe reads the bucket
                    // as it was when the kernel first touched it. Two ops
                    // racing for one bucket both see the same "empty" slot;
                    // the later write clobbers the earlier key.
                    self.shape.cfg.layout.charge_probe(ctx);
                    warp.ops[leader].probes += 1;
                    let op = warp.ops[leader];
                    let snap = self.stale_keys(t, b, in_fresh);
                    let dup = snap.iter().position(|&k| k == op.key);
                    let empty = snap.iter().position(|&k| k == K::EMPTY);
                    if let Some(slot) = dup {
                        self.merge_in_place(&op, t, b, slot, in_fresh, ctx);
                        retire(&op, obs::OpOutcome::Updated);
                        warp.active &= !(1 << leader);
                    } else if let Some(slot) = empty {
                        let stored = op.rule.initial(op.val);
                        if self.store_ro(t, in_fresh).slot(b, slot).0 == K::EMPTY {
                            self.store(t, in_fresh).write_new(b, slot, op.key, stored);
                        } else {
                            // The slot was claimed earlier this round: the
                            // lost update the elided lock would have caused.
                            self.store(t, in_fresh).swap(b, slot, op.key, stored);
                        }
                        self.shape.cfg.layout.charge_kv_write(ctx);
                        self.out.inserted += 1;
                        retire(&op, obs::OpOutcome::Inserted);
                        warp.active &= !(1 << leader);
                    } else if reroutes_left > 0 {
                        warp.ops[leader].phase = match self.next_candidate(op.key, t) {
                            Some(next) => Phase::Probe {
                                target: next,
                                reroutes_left: reroutes_left - 1,
                            },
                            None => Phase::Probe {
                                target: t,
                                reroutes_left: 0,
                            },
                        };
                    } else {
                        self.evict(warp, leader, op, t, b, in_fresh, ctx);
                    }
                    return StepOutcome::Pending;
                }
                if !ctx.atomic_cas_lock(&mut self.store(t, in_fresh).locks, space, b) {
                    warp.ops[leader].lock_waits += 1;
                    if self.shape.cfg.coordination == Coordination::Voter {
                        warp.rr += 1; // revote
                    }
                    return StepOutcome::Pending;
                }
                warp.ops[leader].probes += 1;
                let op = warp.ops[leader];
                let (dup, empty) = self.store_ro(t, in_fresh).probe_for_insert(b, op.key, ctx);
                if let Some(slot) = dup {
                    // Same-bucket duplicate: merge in place (Algorithm 1's
                    // "loc[l].key == k'" arm, generalized over the rule).
                    self.merge_in_place(&op, t, b, slot, in_fresh, ctx);
                    retire(&op, obs::OpOutcome::Updated);
                    warp.active &= !(1 << leader);
                } else if let Some(slot) = empty {
                    self.store(t, in_fresh)
                        .write_new(b, slot, op.key, op.rule.initial(op.val));
                    self.shape.cfg.layout.charge_kv_write(ctx);
                    self.out.inserted += 1;
                    retire(&op, obs::OpOutcome::Inserted);
                    warp.active &= !(1 << leader);
                } else if reroutes_left > 0 {
                    // Fresh op, full bucket: try another candidate bucket
                    // before resorting to eviction.
                    warp.ops[leader].phase = match self.next_candidate(op.key, t) {
                        Some(next) => Phase::Probe {
                            target: next,
                            reroutes_left: reroutes_left - 1,
                        },
                        None => Phase::Probe {
                            target: t,
                            reroutes_left: 0,
                        },
                    };
                } else {
                    self.evict(warp, leader, op, t, b, in_fresh, ctx);
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
        // Note: `stale_buckets` is deliberately NOT cleared here — the
        // injected bug models a thread that cached the bucket without the
        // lock acquire that would force a re-read, so the staleness
        // persists across rounds within one kernel launch.
    }
}

/// Execute a batched insert of pre-built operations. Does *not* bump
/// `metrics.ops` — the public API counts each user operation exactly once,
/// so internal reuse (resize residuals, failure retries) stays out of the
/// throughput denominator.
pub(crate) fn insert_batch<'a, K: Word, V: Word>(
    tables: &'a mut [SubTable<K, V>],
    shape: &'a TableShape,
    ops: Vec<InsertOp<K, V>>,
    excluded: Option<usize>,
    migration: Option<(MigrationView, &'a mut SubTable<K, V>)>,
    metrics: &mut Metrics,
) -> InsertOutcome<K, V> {
    let mut warps: Vec<InsertWarp<K, V>> = super::pack_warps(ops)
        .into_iter()
        .map(InsertWarp::new)
        .collect();
    let mut kernel = InsertKernel {
        tables,
        shape,
        excluded,
        migration,
        out: InsertOutcome::default(),
        stale_buckets: shape.cfg.inject_lock_elision.then(HashMap::new),
    };
    let recording = obs::is_enabled();
    let rounds_before = metrics.rounds;
    if recording {
        obs::span_begin(obs::Event::LaunchBegin {
            kind: obs::OpKind::Insert,
            warps: warps.len() as u32,
        });
    }
    run_rounds_with(&mut kernel, &mut warps, metrics, shape.cfg.schedule);
    if recording {
        obs::span_end(obs::Event::LaunchEnd {
            rounds: metrics.rounds - rounds_before,
        });
    }
    kernel.out
}
