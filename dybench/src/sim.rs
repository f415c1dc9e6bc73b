//! `sim-dynamic`: the paper's dynamic protocol (TW dataset, batch = 10 %
//! of the dataset, r = 0.2, grow phase then shrink phase) on `DyCuckoo`
//! over the simulator, beside byte-string pairs on `UnsizedTable`.
//!
//! The whole sequence is fixed work on fresh tables, repeated: its wall
//! clock is the simulator cost every figure binary pays, and its
//! simulated counters are deterministic, so every repetition must report
//! the same transactions, the same filled factors and the same replies.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bench::measure;
use dycuckoo::{Config, DyCuckoo, UnsizedConfig, UnsizedTable};
use gpu_sim::{Metrics, SimContext};
use workloads::{dataset_by_name, mix64, DynamicWorkload, LengthDist, StrDatasetSpec};

use crate::metrics::{Out, Tally};
use crate::stats::{quiet, Calls, Lat, Samples, Window};
use crate::trace::Tracer;
use crate::{secs, sys, Ctx, Outcome};

const BATCH_FRAC: f64 = 0.1;
const DELETE_RATIO: f64 = 0.2;
const STR_BATCH: usize = 512;
/// The tail reported for this workload: a sequence makes 20 find calls,
/// so a p99 would need the quietest 50 sequences; p90 needs 5.
const TAIL_Q: f64 = 0.9;
const SPAN_CAPACITY: usize = 1 << 14;

/// The `obs::attr` paths whose self transactions the traced run reports.
const ATTR_PATHS: &[(&str, &str)] = &[
    ("dycuckoo/insert", "attr.dycuckoo.insert.tx"),
    (
        "dycuckoo/insert/evict-chain",
        "attr.dycuckoo.insert.evict-chain.tx",
    ),
    (
        "dycuckoo/insert/maintenance/resize",
        "attr.dycuckoo.insert.maintenance.resize.tx",
    ),
    ("dycuckoo/find", "attr.dycuckoo.find.tx"),
    ("dycuckoo/delete", "attr.dycuckoo.delete.tx"),
    ("unsized/insert", "attr.unsized.insert.tx"),
    ("unsized/find", "attr.unsized.find.tx"),
    (
        "unsized/insert/maintenance/migrate/arena-deref",
        "attr.unsized.insert.maintenance.migrate.arena-deref.tx",
    ),
];

#[derive(Clone, Copy)]
pub struct SimSize {
    /// TW dataset scale relative to the paper.
    pub scale: f64,
    pub strings: usize,
}

impl SimSize {
    pub const FULL: Self = Self {
        scale: 0.02,
        strings: 50_000,
    };
    pub const TINY: Self = Self {
        scale: 0.0002,
        strings: 1000,
    };
}

struct SimInputs {
    workload: DynamicWorkload,
    strings: Vec<(Vec<u8>, Vec<u8>)>,
}

fn gen(seed: u64, size: SimSize) -> SimInputs {
    let ds = dataset_by_name("TW")
        .expect("TW is a paper dataset")
        .scaled(size.scale)
        .generate(seed);
    let batch = ((ds.len() as f64 * BATCH_FRAC).round() as usize).max(1);
    SimInputs {
        workload: DynamicWorkload::build(&ds, batch, DELETE_RATIO, seed),
        strings: StrDatasetSpec {
            pairs: size.strings,
            key_dist: LengthDist::Mixed,
            val_len: (0, 24),
            seed,
        }
        .generate(),
    }
}

/// The reference map, and what a find may return besides its value.
///
/// The simulated kernels claim slots with an optimistic duplicate probe,
/// as on a real GPU. A key written while already present — twice in one
/// batch, or while an eviction chain carries its old copy — can end up
/// stored twice; a later update or delete then reaches only one copy. So
/// a find of such a key may return the value of a surviving stale copy,
/// even after a delete. It may never return a value that was not written,
/// or miss a key the map holds.
#[derive(Default)]
struct Reference {
    map: HashMap<u32, u32>,
    /// Values a stale copy may hold, for keys written while present.
    stale: HashMap<u32, Vec<u32>>,
}

/// How a find reply compares with the reference.
#[derive(Debug, PartialEq)]
enum Verdict {
    Exact,
    /// The value of a possibly surviving stale copy.
    Stale,
    Wrong,
}

impl Reference {
    fn insert_batch(&mut self, kvs: &[(u32, u32)]) {
        for &(k, v) in kvs {
            let old = self.map.insert(k, v);
            if let Some(vals) = self.stale.get_mut(&k) {
                vals.extend(old);
                vals.push(v);
            } else if let Some(old) = old {
                self.stale.insert(k, vec![old, v]);
            }
        }
    }

    /// Delete `k`; true when the map held it.
    fn remove(&mut self, k: u32) -> bool {
        self.map.remove(&k).is_some()
    }

    fn may_be_doubled(&self, k: u32) -> bool {
        self.stale.contains_key(&k)
    }

    fn judge(&self, k: u32, got: Option<u32>) -> Verdict {
        let want = self.map.get(&k).copied();
        match got {
            _ if got == want => Verdict::Exact,
            Some(v) if self.stale.get(&k).is_some_and(|vals| vals.contains(&v)) => Verdict::Stale,
            _ => Verdict::Wrong,
        }
    }
}

/// What one sequence computed on the simulator: identical in every
/// repetition.
#[derive(Debug, Default, Clone, PartialEq)]
struct SimResult {
    metrics: Metrics,
    sim_ns: f64,
    fills: Vec<f64>,
    resizes: u64,
    retries: u64,
    str_metrics: Metrics,
    /// Fold of every reply, in order.
    digest: u64,
    /// Finds that returned a stale copy's value (counted only in the
    /// sequence held to the reference map; 0 in the others).
    stale_finds: u64,
}

/// Wall-clock readings, accumulated over sequences.
#[derive(Default)]
struct SimStats {
    setup_s: Samples,
    /// One window per sequence: its calls' keys and time, and the
    /// durations of its dynamic find calls.
    windows: Vec<Window>,
    insert: Calls,
    find: Calls,
    delete: Calls,
    str_insert: Calls,
    str_find: Calls,
    sequences: u64,
}

impl SimStats {
    fn ops(&self) -> u64 {
        self.insert.keys + self.find.keys + self.delete.keys + self.str_find.keys
    }

    fn ns(&self) -> f64 {
        self.insert.ns + self.find.ns + self.delete.ns + self.str_find.ns
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.ns() * 1e9
    }
}

fn fold(digest: u64, v: Option<u32>) -> u64 {
    mix64(digest ^ v.map_or(0, |v| v as u64 + 1))
}

/// One sequence on fresh tables. The setup is building both tables and
/// loading the string pairs; `reference` holds the find replies to the
/// admissible values (later sequences are held to the first instead).
fn sequence(
    inp: &SimInputs,
    tracer: &mut Tracer,
    st: &mut SimStats,
    reference: Option<&mut Reference>,
) -> Result<SimResult, String> {
    let fail = |e: String| format!("sim-dynamic: {e}");
    let seq = tracer.begin("loadgen", "sequence");
    let t0 = Instant::now();
    let mut sim = SimContext::new();
    let mut dy = DyCuckoo::new(Config::default(), &mut sim).map_err(|e| fail(e.to_string()))?;
    let mut un =
        UnsizedTable::new(UnsizedConfig::default(), &mut sim).map_err(|e| fail(e.to_string()))?;
    let mut res = SimResult::default();
    let (loaded, m) = measure(&mut sim, |sim| -> Result<(), String> {
        for chunk in inp.strings.chunks(STR_BATCH) {
            let refs: Vec<(&[u8], &[u8])> = chunk
                .iter()
                .map(|(k, v)| (k.as_slice(), v.as_slice()))
                .collect();
            let (r, dt) = tracer.timed("unsized_kv", "UnsizedTable::insert_batch", || {
                un.insert_batch(sim, &refs)
            });
            let r = r.map_err(|e| e.to_string())?;
            st.str_insert.record(chunk.len(), dt);
            if r.inserted != chunk.len() as u64 {
                return Err(format!(
                    "string batch placed {} of {}",
                    r.inserted,
                    chunk.len()
                ));
            }
        }
        Ok(())
    });
    loaded.map_err(fail)?;
    res.str_metrics.merge(&m.metrics);
    st.setup_s.push(t0.elapsed().as_secs_f64());

    let (ops0, ns0, finds0) = (st.ops(), st.ns(), st.find.us.len());
    let mut reference = reference;
    for (i, b) in inp.workload.batches.iter().enumerate() {
        let bspan = tracer.begin("loadgen", "batch");
        let ((ins, found, del), m) = measure(&mut sim, |sim| {
            let ins = (!b.inserts.is_empty()).then(|| {
                tracer.timed("dycuckoo", "DyCuckoo::insert_batch", || {
                    dy.insert_batch(sim, &b.inserts)
                })
            });
            let found = tracer.timed("dycuckoo", "DyCuckoo::find_batch", || {
                dy.find_batch(sim, &b.finds)
            });
            let del = (!b.deletes.is_empty()).then(|| {
                tracer.timed("dycuckoo", "DyCuckoo::delete_batch", || {
                    dy.delete_batch(sim, &b.deletes)
                })
            });
            (ins, found, del)
        });
        tracer.end(bspan);
        res.metrics.merge(&m.metrics);
        res.sim_ns += m.ns;
        res.fills.push(dy.fill_factor());

        if let Some((r, dt)) = ins {
            let r = r.map_err(|e| fail(format!("batch {i} insert: {e}")))?;
            st.insert.record(b.inserts.len(), dt);
            res.resizes += r.resizes.len() as u64;
            res.retries += r.retries as u64;
        }
        let (got, dt) = found;
        st.find.record(b.finds.len(), dt);
        let mut deleted = 0;
        if let Some((r, dt)) = del {
            let r = r.map_err(|e| fail(format!("batch {i} delete: {e}")))?;
            st.delete.record(b.deletes.len(), dt);
            res.resizes += r.resizes.len() as u64;
            deleted = r.deleted;
        }
        for &v in &got {
            res.digest = fold(res.digest, v);
        }
        res.digest = fold(res.digest, Some(deleted as u32));
        if let Some(reference) = reference.as_deref_mut() {
            reference.insert_batch(&b.inserts);
            for (&k, &g) in b.finds.iter().zip(&got) {
                match reference.judge(k, g) {
                    Verdict::Exact => {}
                    Verdict::Stale => res.stale_finds += 1,
                    Verdict::Wrong => {
                        return Err(fail(format!(
                            "batch {i}: find({k}) = {g:?}, reference {:?}",
                            reference.map.get(&k)
                        )))
                    }
                }
            }
            // Each delete erases one copy: at least every key the map
            // holds, at most one more per key that may be stored twice.
            let doubled = b
                .deletes
                .iter()
                .filter(|&&k| reference.may_be_doubled(k))
                .count();
            let expected = b.deletes.iter().filter(|&&k| reference.remove(k)).count() as u64;
            if deleted < expected || deleted > expected + doubled as u64 {
                return Err(fail(format!(
                    "batch {i}: erased {deleted} keys, expected {expected} (+{doubled} possibly doubled)"
                )));
            }
        }
    }

    let keys: Vec<Vec<&[u8]>> = inp
        .strings
        .chunks(STR_BATCH)
        .map(|c| c.iter().map(|(k, _)| k.as_slice()).collect())
        .collect();
    let (found, m) = measure(
        &mut sim,
        |sim| -> Result<Vec<Vec<Option<Vec<u8>>>>, String> {
            let mut all = Vec::with_capacity(keys.len());
            for ks in &keys {
                let (got, dt) = tracer.timed("unsized_kv", "UnsizedTable::find_batch", || {
                    un.find_batch(sim, ks)
                });
                all.push(got.map_err(|e| e.to_string())?);
                st.str_find.record(ks.len(), dt);
            }
            Ok(all)
        },
    );
    res.str_metrics.merge(&m.metrics);
    let found = found.map_err(fail)?;
    for (got, (k, v)) in found.iter().flatten().zip(&inp.strings) {
        if got.as_deref() != Some(v.as_slice()) {
            return Err(fail(format!(
                "string find({}) = {got:?}, expected {v:?}",
                String::from_utf8_lossy(k)
            )));
        }
    }
    st.windows.push(Window {
        ops: st.ops() - ops0,
        ns: st.ns() - ns0,
        lat: Lat {
            us: st.find.us.since(finds0),
            refused: 0,
        },
    });
    dy.verify_integrity().map_err(fail)?;
    un.verify_integrity().map_err(fail)?;
    st.sequences += 1;
    tracer.end(seq);
    Ok(res)
}

/// Hold a repetition to the first sequence: same counters, same replies.
fn same_as(got: &SimResult, first: &SimResult) -> Result<(), String> {
    let first = SimResult {
        stale_finds: 0,
        ..first.clone()
    };
    if *got == first {
        Ok(())
    } else {
        Err(
            "sim-dynamic: a repetition's simulated counters or replies differ from the first"
                .into(),
        )
    }
}

/// Whole sequences into `st` until `dur` has passed (at least one), each
/// held to `first` (or becoming it, checked against the reference map).
fn phase(
    inp: &SimInputs,
    dur: Duration,
    tracer: &mut Tracer,
    first: &mut Option<SimResult>,
    st: &mut SimStats,
) -> Result<(), String> {
    let start = Instant::now();
    loop {
        match first {
            None => {
                let mut reference = Reference::default();
                *first = Some(sequence(inp, tracer, st, Some(&mut reference))?);
            }
            Some(want) => same_as(&sequence(inp, tracer, st, None)?, want)?,
        }
        if start.elapsed() >= dur {
            return Ok(());
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let size = if ctx.tiny {
        SimSize::TINY
    } else {
        SimSize::FULL
    };
    let mut out = Out::default();
    let g0 = Instant::now();
    let inp = gen(ctx.seed, size);
    out.set("loadgen.gen_s", g0.elapsed().as_secs_f64(), 1);
    let s = ctx.seconds;
    let mut tracer = Tracer::off();
    let mut first = None;
    let mut tally = Tally::default();

    if !ctx.traced {
        let mut st = SimStats::default();
        phase(&inp, secs(s), &mut tracer, &mut first, &mut st)?;
        let q = quiet(&st.windows, TAIL_Q);
        out.set("setup_s", st.setup_s.median(), st.setup_s.len() as u64);
        out.set("ops_per_s", q.ops_per_s, q.windows);
        out.set("lat_p50_us", q.p50_us, q.samples);
        out.set("lat_tail_us", q.tail_us, q.samples);
        out.set("peak_rss_mb", sys::peak_rss_mib(), 1);
        tally.attempted = st.ops() + st.str_insert.keys;
        return Ok(Outcome { out, tally, tracer });
    }

    let mut plain = SimStats::default();
    phase(&inp, secs(s / 2.0), &mut tracer, &mut first, &mut plain)?;
    let r = first.expect("a sequence ran");
    // The traced half: spans throughout, attribution over its first
    // sequence, which must not change what the simulator computes.
    tracer = Tracer::on(SPAN_CAPACITY);
    let mut st = SimStats::default();
    obs::attr::start();
    let attributed = sequence(&inp, &mut tracer, &mut st, None);
    let attribution = obs::attr::stop();
    same_as(&attributed?, &r)?;
    phase(
        &inp,
        secs(s / 2.0),
        &mut tracer,
        &mut Some(r.clone()),
        &mut st,
    )?;
    tracer.set_on(false);
    let m = &r.metrics;
    let ops = m.ops.max(1) as f64;
    let seqs = st.sequences;
    for (path, name) in ATTR_PATHS {
        let tx = attribution.get(path).map_or(0, |c| c.transactions());
        out.set(name, tx as f64, 1);
    }
    out.set("sim_mops", m.ops as f64 / r.sim_ns * 1e3, m.ops);
    out.set("sim_tx_per_op", m.transactions() as f64 / ops, m.ops);
    out.set(
        "sim_fill_mean",
        r.fills.iter().sum::<f64>() / r.fills.len() as f64,
        r.fills.len() as u64,
    );
    out.set(
        "unsized_kv.tx_per_op",
        r.str_metrics.transactions() as f64 / r.str_metrics.ops.max(1) as f64,
        r.str_metrics.ops,
    );
    out.set(
        "gpu_sim.read_tx_per_op",
        m.read_transactions as f64 / ops,
        m.ops,
    );
    out.set(
        "gpu_sim.write_tx_per_op",
        m.write_transactions as f64 / ops,
        m.ops,
    );
    out.set("gpu_sim.lookups_per_op", m.lookups as f64 / ops, m.ops);
    let inserts: u64 = inp
        .workload
        .batches
        .iter()
        .map(|b| b.inserts.len() as u64)
        .sum();
    out.set(
        "gpu_sim.evictions_per_insert",
        m.evictions as f64 / inserts.max(1) as f64,
        inserts,
    );
    out.set("gpu_sim.rounds", m.rounds as f64, 1);
    out.set(
        "gpu_sim.lock_failures_per_op",
        m.lock_failures as f64 / ops,
        m.ops,
    );
    out.set("gpu_sim.kernel_ms", r.sim_ns / 1e6, 1);
    out.set("dycuckoo.resizes", r.resizes as f64, 1);
    out.set("dycuckoo.retries", r.retries as f64, 1);
    out.set("dycuckoo.stale_finds", r.stale_finds as f64, m.ops);
    out.set("dycuckoo.insert_ns_per_key", st.insert.ns_per_key(), seqs);
    out.set("dycuckoo.find_ns_per_key", st.find.ns_per_key(), seqs);
    out.set("dycuckoo.delete_ns_per_key", st.delete.ns_per_key(), seqs);
    out.set(
        "unsized_kv.insert_ns_per_key",
        st.str_insert.ns_per_key(),
        seqs,
    );
    out.set("unsized_kv.find_ns_per_key", st.str_find.ns_per_key(), seqs);
    out.set(
        "trace.overhead_frac",
        plain.ops_per_s() / st.ops_per_s() - 1.0,
        st.sequences,
    );
    let (own, n) = crate::trace::self_share(tracer.spans(), "sequence");
    out.set("loadgen.self_frac", own, n);
    out.set("proc.cpu_s", sys::cpu_seconds(), 1);
    tally.attempted = plain.ops() + st.ops();
    Ok(Outcome { out, tally, tracer })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_judges_stale_copies() {
        let mut r = Reference::default();
        r.insert_batch(&[(1, 10), (2, 20), (2, 21)]);
        assert_eq!(r.judge(1, Some(10)), Verdict::Exact);
        assert_eq!(r.judge(1, Some(11)), Verdict::Wrong);
        assert_eq!(r.judge(1, None), Verdict::Wrong);
        assert_eq!(r.judge(3, None), Verdict::Exact);
        assert_eq!(r.judge(3, Some(1)), Verdict::Wrong);
        // Key 2 was written while present: its first copy may survive.
        assert_eq!(r.judge(2, Some(21)), Verdict::Exact);
        assert_eq!(r.judge(2, Some(20)), Verdict::Stale);
        assert!(r.may_be_doubled(2) && !r.may_be_doubled(1));
        // Even a delete may leave it behind, but never a miss of a held key.
        assert!(r.remove(2) && !r.remove(2));
        assert_eq!(r.judge(2, None), Verdict::Exact);
        assert_eq!(r.judge(2, Some(21)), Verdict::Stale);
        r.insert_batch(&[(2, 23)]);
        assert_eq!(r.judge(2, None), Verdict::Wrong);
        assert_eq!(r.judge(2, Some(99)), Verdict::Wrong);
    }
}
