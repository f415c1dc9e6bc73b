//! The two `ParTable` workloads: `par-read-zipf` (reads only, table in L2)
//! and `par-write-grow` (writes beside reads, table far beyond L2).

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use dycuckoo::{Config, MergeRule, ParReport, ParTable};
use gpu_sim::Metrics;
use workloads::zipf::Zipf;

use crate::gen::{value_of, KeySpace, Rng};
use crate::metrics::{Out, Tally};
use crate::stats::{quiet, Calls, Lat, Samples, Window};
use crate::trace::Tracer;
use crate::{secs, sys, Ctx, Outcome};

const ZIPF_THETA: f64 = 0.99;
/// Share of generated lookups that target live keys; the rest are absent.
const HIT_FRAC: f64 = 0.9;
/// Spans a traced par run can hold (a few thousand batch calls).
const SPAN_CAPACITY: usize = 1 << 16;
/// Width of a measurement window of `par-read-zipf`.
const WINDOW: Duration = Duration::from_secs(1);

fn new_table(threads: usize) -> Result<ParTable, String> {
    ParTable::new(Config::default(), threads).map_err(|e| format!("ParTable::new: {e}"))
}

/// Lookups of `n` keys: live keys picked by `pick`, absent ones uniformly.
fn lookups(
    rng: &mut Rng,
    n: usize,
    absent: &[u32],
    mut pick: impl FnMut(&mut Rng) -> u32,
) -> Vec<u32> {
    (0..n)
        .map(|_| {
            if rng.unit() < HIT_FRAC {
                pick(rng)
            } else {
                absent[rng.below(absent.len())]
            }
        })
        .collect()
}

/// Host-par counters and process readings of one measured phase.
struct PhaseProbe {
    wall: Instant,
    cpu_s: f64,
    switches: u64,
}

impl PhaseProbe {
    fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu_s: sys::cpu_seconds(),
            switches: sys::voluntary_switches(),
        }
    }

    /// Record CPU use, context switches and the table counters `m`.
    fn finish(self, out: &mut Out, m: &Metrics, ops: u64) {
        let wall = self.wall.elapsed().as_secs_f64();
        out.set(
            "host_par.cpu_util",
            (sys::cpu_seconds() - self.cpu_s) / wall,
            1,
        );
        let switches = sys::voluntary_switches().saturating_sub(self.switches);
        out.set(
            "proc.vol_ctx_switches_per_kop",
            switches as f64 * 1000.0 / ops.max(1) as f64,
            switches,
        );
        out.set(
            "host_par.lookups_per_op",
            m.lookups as f64 / m.ops.max(1) as f64,
            m.ops,
        );
        out.set(
            "host_par.lock_fail_per_lookup",
            m.lock_failures as f64 / m.lookups.max(1) as f64,
            m.lookups,
        );
    }
}

// ---------------------------------------------------------------- read --

#[derive(Clone, Copy)]
pub struct ReadSize {
    pub preload: usize,
    pub batch: usize,
    /// Distinct query batches, replayed cyclically.
    pub pool_batches: usize,
    /// Table builds per run (setup time is their median).
    pub setups: usize,
}

impl ReadSize {
    pub const FULL: Self = Self {
        preload: 65_536,
        batch: 4096,
        pool_batches: 64,
        setups: 11,
    };
    pub const TINY: Self = Self {
        preload: 2048,
        batch: 256,
        pool_batches: 4,
        setups: 2,
    };
}

struct ReadInputs {
    preload: Vec<(u32, u32)>,
    batches: Vec<Vec<u32>>,
    /// The generator's ground truth, parallel to `batches`.
    expected: Vec<Vec<Option<u32>>>,
}

fn gen_read(seed: u64, size: ReadSize) -> ReadInputs {
    let mut keys = KeySpace::new(seed);
    let live = keys.take(size.preload);
    let absent = keys.take(size.preload / 4);
    let preload: Vec<(u32, u32)> = live.iter().map(|&k| (k, value_of(seed, k, 0))).collect();
    let value: HashMap<u32, u32> = preload.iter().copied().collect();
    let zipf = Zipf::new(live.len() as u64, ZIPF_THETA);
    let mut rng = Rng::new(seed, 1);
    let batches: Vec<Vec<u32>> = (0..size.pool_batches)
        .map(|_| {
            lookups(&mut rng, size.batch, &absent, |r| {
                live[zipf.sample(r.next_u64()) as usize - 1]
            })
        })
        .collect();
    let expected = batches
        .iter()
        .map(|b| b.iter().map(|k| value.get(k).copied()).collect())
        .collect();
    ReadInputs {
        preload,
        batches,
        expected,
    }
}

fn preload_read(inp: &ReadInputs, size: ReadSize, threads: usize) -> Result<ParTable, String> {
    let mut t = new_table(threads)?;
    for chunk in inp.preload.chunks(size.batch) {
        t.insert_batch(chunk)
            .map_err(|e| format!("par-read-zipf preload: {e}"))?;
    }
    if t.len() != inp.preload.len() as u64 {
        return Err(format!(
            "par-read-zipf preload: table holds {} keys, expected {}",
            t.len(),
            inp.preload.len()
        ));
    }
    Ok(t)
}

/// Cycle through the query pool for `dur`, checking every reply against
/// the ground truth outside the timed call. Returns the calls, and the
/// same calls cut into [`WINDOW`]s.
fn find_phase(
    t: &mut ParTable,
    inp: &ReadInputs,
    dur: Duration,
    tracer: &mut Tracer,
    next: &mut usize,
) -> Result<(Calls, Vec<Window>), String> {
    let (mut calls, mut windows) = (Calls::default(), Vec::new());
    let start = Instant::now();
    let (mut w, mut w_start) = (Window::default(), start);
    while start.elapsed() < dur {
        let b = *next % inp.batches.len();
        *next += 1;
        let step = tracer.begin("loadgen", "step");
        let (got, dt) = tracer.timed("host_par", "ParTable::find_batch", || {
            t.find_batch(&inp.batches[b])
        });
        calls.record(got.len(), dt);
        w.ops += got.len() as u64;
        w.ns += dt.as_nanos() as f64;
        w.lat.us.push(dt.as_secs_f64() * 1e6);
        if got != inp.expected[b] {
            let wrong = got
                .iter()
                .zip(&inp.expected[b])
                .filter(|(g, e)| g != e)
                .count();
            return Err(format!(
                "par-read-zipf: {wrong} of {} replies in query batch {b} disagree with the ground truth",
                got.len()
            ));
        }
        tracer.end(step);
        if w_start.elapsed() >= WINDOW {
            windows.push(std::mem::take(&mut w));
            w_start = Instant::now();
        }
    }
    if windows.is_empty() {
        // A phase shorter than a window is one window.
        windows.push(w);
    }
    Ok((calls, windows))
}

pub fn run_read(ctx: &Ctx) -> Result<Outcome, String> {
    let size = if ctx.tiny {
        ReadSize::TINY
    } else {
        ReadSize::FULL
    };
    let mut out = Out::default();
    let g0 = Instant::now();
    let inp = gen_read(ctx.seed, size);
    out.set("loadgen.gen_s", g0.elapsed().as_secs_f64(), 1);
    let s = ctx.seconds;
    let mut tracer = Tracer::off();
    let mut next = 0usize;
    let mut tally = Tally::default();

    if !ctx.traced {
        let (mut table, setup) =
            crate::setups(size.setups, || preload_read(&inp, size, ctx.threads))?;
        find_phase(&mut table, &inp, secs(0.1 * s), &mut tracer, &mut next)?;
        let (calls, windows) = find_phase(&mut table, &inp, secs(s), &mut tracer, &mut next)?;
        let q = quiet(&windows, 0.99);
        out.set("setup_s", setup.median(), setup.len() as u64);
        out.set("ops_per_s", q.ops_per_s, q.windows);
        out.set("lat_p50_us", q.p50_us, q.samples);
        out.set("lat_tail_us", q.tail_us, q.samples);
        out.set("peak_rss_mb", sys::peak_rss_mib(), 1);
        tally.attempted = calls.keys;
        return Ok(Outcome { out, tally, tracer });
    }

    // Traced run: untraced 2-thread, traced 2-thread, untraced 1-thread.
    let mut table = preload_read(&inp, size, ctx.threads)?;
    find_phase(&mut table, &inp, secs(0.1 * s), &mut tracer, &mut next)?;
    let (plain, _) = find_phase(&mut table, &inp, secs(0.3 * s), &mut tracer, &mut next)?;

    table.take_metrics();
    tracer = Tracer::on(SPAN_CAPACITY);
    let probe = PhaseProbe::start();
    let (traced, _) = find_phase(&mut table, &inp, secs(0.3 * s), &mut tracer, &mut next)?;
    let m = table.take_metrics();
    probe.finish(&mut out, &m, traced.keys);
    tracer.set_on(false);

    table.set_threads(1);
    let (one, _) = find_phase(&mut table, &inp, secs(0.3 * s), &mut tracer, &mut next)?;

    let n = traced.us.len() as u64;
    out.set("host_par.find_ns_per_key", traced.ns_per_key(), n);
    out.set("host_par.find_call_us_p99", traced.us.quantile(0.99), n);
    out.set(
        "host_par.fill",
        table.len() as f64 / table.capacity_slots() as f64,
        1,
    );
    out.set(
        "host_par.speedup_2t",
        plain.keys_per_s() / one.keys_per_s(),
        one.us.len() as u64,
    );
    out.set(
        "trace.overhead_frac",
        plain.keys_per_s() / traced.keys_per_s() - 1.0,
        n,
    );
    let (own, steps) = crate::trace::self_share(tracer.spans(), "step");
    out.set("loadgen.self_frac", own, steps);
    out.set("proc.cpu_s", sys::cpu_seconds(), 1);
    tally.attempted = plain.keys + traced.keys + one.keys;
    Ok(Outcome { out, tally, tracer })
}

// ---------------------------------------------------------------- grow --

#[derive(Clone, Copy)]
pub struct GrowSize {
    pub preload: usize,
    pub batch: usize,
    /// Insert batches (each followed by a find batch) of the grow phase.
    pub grow_batches: usize,
    /// Rounds of delete / insert / upsert / find in the churn phase.
    pub churn_rounds: usize,
}

impl GrowSize {
    pub const FULL: Self = Self {
        preload: 262_144,
        batch: 4096,
        grow_batches: 192,
        churn_rounds: 64,
    };
    pub const TINY: Self = Self {
        preload: 2048,
        batch: 256,
        grow_batches: 6,
        churn_rounds: 4,
    };
}

enum Step {
    Insert(Vec<(u32, u32)>),
    Find(Vec<u32>, Vec<Option<u32>>),
    Delete(Vec<u32>),
    /// `Add` merges on live keys, with duplicates; the second field is the
    /// number of distinct keys.
    Upsert(Vec<(u32, u32)>, u64),
}

/// One episode's inputs. Every episode replays them on a fresh table.
struct GrowInputs {
    preload: Vec<(u32, u32)>,
    steps: Vec<Step>,
    /// The reference map after the last step, sorted.
    final_pairs: Vec<(u32, u32)>,
}

fn gen_grow(seed: u64, size: GrowSize) -> GrowInputs {
    let mut keys = KeySpace::new(seed);
    let absent = keys.take(size.batch * 4);
    let mut rng = Rng::new(seed, 2);
    let mut reference: HashMap<u32, u32> = HashMap::new();
    // Live keys, oldest first.
    let mut live: VecDeque<u32> = VecDeque::new();
    let fresh = |keys: &mut KeySpace, n: usize, salt: u64| -> Vec<(u32, u32)> {
        keys.take(n)
            .into_iter()
            .map(|k| (k, value_of(seed, k, salt)))
            .collect()
    };
    let preload = fresh(&mut keys, size.preload, 0);
    let admit =
        |kvs: &[(u32, u32)], reference: &mut HashMap<u32, u32>, live: &mut VecDeque<u32>| {
            for &(k, v) in kvs {
                reference.insert(k, v);
                live.push_back(k);
            }
        };
    admit(&preload, &mut reference, &mut live);
    let find = |rng: &mut Rng, live: &VecDeque<u32>, reference: &HashMap<u32, u32>| {
        let ks = lookups(rng, size.batch, &absent, |r| live[r.below(live.len())]);
        let exp = ks.iter().map(|k| reference.get(k).copied()).collect();
        Step::Find(ks, exp)
    };

    let mut steps = Vec::new();
    for g in 0..size.grow_batches {
        let ins = fresh(&mut keys, size.batch, 1 + g as u64);
        admit(&ins, &mut reference, &mut live);
        steps.push(Step::Insert(ins));
        steps.push(find(&mut rng, &live, &reference));
    }
    // The live set keeps its size through the churn phase.
    let zipf = Zipf::new(live.len() as u64, ZIPF_THETA);
    for r in 0..size.churn_rounds {
        let dels: Vec<u32> = (0..size.batch)
            .map(|_| live.pop_front().expect("churn deletes live keys"))
            .collect();
        for k in &dels {
            reference.remove(k);
        }
        steps.push(Step::Delete(dels));
        let ins = fresh(&mut keys, size.batch, 1_000_000 + r as u64);
        admit(&ins, &mut reference, &mut live);
        steps.push(Step::Insert(ins));
        // Hot keys are the newest ones.
        let ups: Vec<(u32, u32)> = (0..size.batch)
            .map(|_| {
                let rank = zipf.sample(rng.next_u64()) as usize;
                (live[live.len() - rank], 1 + rng.below(16) as u32)
            })
            .collect();
        for &(k, a) in &ups {
            let v = reference.get_mut(&k).expect("upserts target live keys");
            *v = v.wrapping_add(a);
        }
        let distinct = ups.iter().map(|&(k, _)| k).collect::<HashSet<_>>().len() as u64;
        steps.push(Step::Upsert(ups, distinct));
        steps.push(find(&mut rng, &live, &reference));
    }
    let mut final_pairs: Vec<(u32, u32)> = reference.into_iter().collect();
    final_pairs.sort_unstable();
    GrowInputs {
        preload,
        steps,
        final_pairs,
    }
}

#[derive(Default)]
struct GrowStats {
    setup_s: Samples,
    find: Calls,
    insert: Calls,
    upsert: Calls,
    delete: Calls,
    /// One window per episode: every call's keys and time, and the
    /// durations of its insert calls.
    windows: Vec<Window>,
    /// Insert calls that grew a subtable, µs.
    grow_us: Samples,
    episodes: u64,
    grows: u64,
    overflowed: u64,
    placed: u64,
    fill: f64,
    metrics: Metrics,
}

impl GrowStats {
    fn ops(&self) -> u64 {
        self.find.keys + self.insert.keys + self.upsert.keys + self.delete.keys
    }

    fn ns(&self) -> f64 {
        self.find.ns + self.insert.ns + self.upsert.ns + self.delete.ns
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.ns() * 1e9
    }

    fn note(&mut self, r: &ParReport, dt: Duration) {
        self.overflowed += r.overflowed;
        self.placed += r.inserted + r.updated;
        self.grows += r.grows;
        if r.grows > 0 {
            self.grow_us.push(dt.as_secs_f64() * 1e6);
        }
    }
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("par-write-grow: {}", what()))
    }
}

/// One episode: build and preload a fresh table (the setup), run every
/// step with its checks outside the timed calls, then hold the final
/// table to the reference map and the structural sweep.
fn episode(
    inp: &GrowInputs,
    size: GrowSize,
    threads: usize,
    tracer: &mut Tracer,
    st: &mut GrowStats,
) -> Result<(), String> {
    let ep = tracer.begin("loadgen", "episode");
    let t0 = Instant::now();
    let mut t = new_table(threads)?;
    for chunk in inp.preload.chunks(size.batch) {
        let (r, _) = tracer.timed("host_par", "ParTable::insert_batch", || {
            t.insert_batch(chunk)
        });
        r.map_err(|e| format!("par-write-grow preload: {e}"))?;
    }
    st.setup_s.push(t0.elapsed().as_secs_f64());
    t.take_metrics();
    let (ops0, ns0, inserts0) = (st.ops(), st.ns(), st.insert.us.len());

    for (i, step) in inp.steps.iter().enumerate() {
        let stepspan = tracer.begin("loadgen", "step");
        match step {
            Step::Insert(kvs) => {
                let (r, dt) =
                    tracer.timed("host_par", "ParTable::insert_batch", || t.insert_batch(kvs));
                let r = r.map_err(|e| format!("par-write-grow step {i}: {e}"))?;
                st.insert.record(kvs.len(), dt);
                st.note(&r, dt);
                check(r.inserted == kvs.len() as u64 && r.updated == 0, || {
                    format!(
                        "step {i} inserted {} fresh keys of {}",
                        r.inserted,
                        kvs.len()
                    )
                })?;
            }
            Step::Find(keys, expected) => {
                let (got, dt) =
                    tracer.timed("host_par", "ParTable::find_batch", || t.find_batch(keys));
                st.find.record(keys.len(), dt);
                check(&got == expected, || {
                    format!("step {i} find replies disagree with the reference map")
                })?;
            }
            Step::Delete(keys) => {
                let (erased, dt) = tracer.timed("host_par", "ParTable::delete_batch", || {
                    t.delete_batch(keys)
                });
                st.delete.record(keys.len(), dt);
                check(erased == keys.len() as u64, || {
                    format!("step {i} erased {erased} of {} live keys", keys.len())
                })?;
            }
            Step::Upsert(kvs, distinct) => {
                let (r, dt) = tracer.timed("host_par", "ParTable::upsert_batch", || {
                    t.upsert_batch(kvs, MergeRule::Add)
                });
                let r = r.map_err(|e| format!("par-write-grow step {i}: {e}"))?;
                st.upsert.record(kvs.len(), dt);
                st.note(&r, dt);
                check(r.inserted == 0 && r.updated == *distinct, || {
                    format!(
                        "step {i} upsert merged {} and inserted {} (expected {distinct} merges)",
                        r.updated, r.inserted
                    )
                })?;
            }
        }
        tracer.end(stepspan);
    }
    st.metrics.merge(&t.take_metrics());
    st.fill = t.len() as f64 / t.capacity_slots() as f64;
    st.episodes += 1;
    st.windows.push(Window {
        ops: st.ops() - ops0,
        ns: st.ns() - ns0,
        lat: Lat {
            us: st.insert.us.since(inserts0),
            refused: 0,
        },
    });
    tracer.end(ep);

    let mut pairs = t.live_pairs();
    pairs.sort_unstable();
    check(pairs == inp.final_pairs, || {
        format!(
            "live_pairs() ({} pairs) differs from the reference map ({} pairs)",
            pairs.len(),
            inp.final_pairs.len()
        )
    })?;
    t.verify()
        .map_err(|e| format!("par-write-grow verify: {e}"))
}

/// Whole episodes until `dur` has passed (at least one).
fn grow_phase(
    inp: &GrowInputs,
    size: GrowSize,
    threads: usize,
    dur: Duration,
    tracer: &mut Tracer,
) -> Result<GrowStats, String> {
    let mut st = GrowStats::default();
    let start = Instant::now();
    loop {
        episode(inp, size, threads, tracer, &mut st)?;
        if start.elapsed() >= dur {
            return Ok(st);
        }
    }
}

pub fn run_grow(ctx: &Ctx) -> Result<Outcome, String> {
    let size = if ctx.tiny {
        GrowSize::TINY
    } else {
        GrowSize::FULL
    };
    let mut out = Out::default();
    let g0 = Instant::now();
    let inp = gen_grow(ctx.seed, size);
    out.set("loadgen.gen_s", g0.elapsed().as_secs_f64(), 1);
    let s = ctx.seconds;
    let mut tracer = Tracer::off();
    let mut tally = Tally::default();

    if !ctx.traced {
        grow_phase(&inp, size, ctx.threads, secs(0.1 * s), &mut tracer)?;
        let st = grow_phase(&inp, size, ctx.threads, secs(s), &mut tracer)?;
        let q = quiet(&st.windows, 0.99);
        out.set("setup_s", st.setup_s.median(), st.setup_s.len() as u64);
        out.set("ops_per_s", q.ops_per_s, q.windows);
        out.set("lat_p50_us", q.p50_us, q.samples);
        out.set("lat_tail_us", q.tail_us, q.samples);
        out.set("peak_rss_mb", sys::peak_rss_mib(), 1);
        tally.attempted = st.ops();
        return Ok(Outcome { out, tally, tracer });
    }

    let plain = grow_phase(&inp, size, ctx.threads, secs(s / 3.0), &mut tracer)?;
    tracer = Tracer::on(SPAN_CAPACITY);
    let probe = PhaseProbe::start();
    let st = grow_phase(&inp, size, ctx.threads, secs(s / 3.0), &mut tracer)?;
    probe.finish(&mut out, &st.metrics, st.ops());
    tracer.set_on(false);
    let one = grow_phase(&inp, size, 1, secs(s / 3.0), &mut tracer)?;

    let n = st.insert.us.len() as u64;
    out.set("host_par.find_ns_per_key", st.find.ns_per_key(), n);
    out.set("host_par.insert_ns_per_key", st.insert.ns_per_key(), n);
    out.set("host_par.upsert_ns_per_key", st.upsert.ns_per_key(), n);
    out.set("host_par.delete_ns_per_key", st.delete.ns_per_key(), n);
    out.set(
        "host_par.find_call_us_p99",
        st.find.us.quantile(0.99),
        st.find.us.len() as u64,
    );
    out.set(
        "host_par.overflow_frac",
        st.overflowed as f64 / st.placed.max(1) as f64,
        st.placed,
    );
    out.set(
        "host_par.evictions_per_insert",
        st.metrics.evictions as f64 / st.insert.keys.max(1) as f64,
        st.insert.keys,
    );
    out.set(
        "host_par.grows",
        st.grows as f64 / st.episodes as f64,
        st.episodes,
    );
    out.set(
        "host_par.grow_batch_us_p50",
        st.grow_us.median(),
        st.grow_us.len() as u64,
    );
    out.set("host_par.fill", st.fill, st.episodes);
    out.set(
        "host_par.speedup_2t",
        plain.ops_per_s() / one.ops_per_s(),
        one.episodes,
    );
    out.set(
        "trace.overhead_frac",
        plain.ops_per_s() / st.ops_per_s() - 1.0,
        n,
    );
    let (own, steps) = crate::trace::self_share(tracer.spans(), "step");
    out.set("loadgen.self_frac", own, steps);
    out.set("proc.cpu_s", sys::cpu_seconds(), 1);
    tally.attempted = plain.ops() + st.ops() + one.ops();
    Ok(Outcome { out, tally, tracer })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_inputs_are_deterministic_and_consistent() {
        let a = gen_grow(9, GrowSize::TINY);
        let b = gen_grow(9, GrowSize::TINY);
        assert_eq!(a.final_pairs, b.final_pairs);
        // Preload + grow inserts, and the churn keeps the live count.
        let size = GrowSize::TINY;
        assert_eq!(
            a.final_pairs.len(),
            size.preload + size.grow_batches * size.batch
        );
        let hits: usize = a
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Find(_, e) => Some(e.iter().filter(|v| v.is_some()).count()),
                _ => None,
            })
            .sum();
        let finds = (size.grow_batches + size.churn_rounds) * size.batch;
        let frac = hits as f64 / finds as f64;
        assert!((0.85..0.95).contains(&frac), "hit share {frac}");
    }
}
