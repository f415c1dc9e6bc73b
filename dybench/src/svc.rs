//! `svc-open`: `KvService` on the host-par backend under an open loop of
//! Poisson arrivals — the only workload that goes through the router,
//! admission, batcher and flush.
//!
//! One generator thread submits every due request, calls `tick()` once
//! and drains completions, round after round. A request's latency runs
//! from the time it was *due* to the drain that returned it, so a stall
//! also delays every request that falls due behind it.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dycuckoo::{buckets_for_load, Config, MergeRule};
use gpu_sim::SimContext;
use kv_service::{Backend, Completion, KvService, Op, Reply, ServiceConfig, ShardMetrics};
use workloads::zipf::Zipf;

use crate::gen::{value_of, KeySpace, Poisson, Rng};
use crate::metrics::{Out, Tally};
use crate::stats::{quiet, Lat, Samples, Window};
use crate::trace::Tracer;
use crate::{secs, sys, Ctx, Outcome};

/// A rate step passes when its p99 latency, refusals counted as over the
/// limit, is within this bound ...
const SLO_P99_US: f64 = 2000.0;
/// ... at most this share of its requests is refused ...
const SLO_REFUSED: f64 = 0.01;
// ... and the generator itself ran no later than the latency bound at p99.

/// Spans a traced svc run can hold.
const SPAN_CAPACITY: usize = 1 << 18;
/// Free spans below which a traced phase stops offering load (more than
/// one round of submits, a tick, a drain and the final settling need).
const SPAN_RESERVE: usize = 1 << 14;
/// Width of a measurement window, of due times in the open loop and of
/// wall time in the closed loop.
const WINDOW: Duration = Duration::from_millis(500);
/// Queue pressure at which the closed loop and the preload stop offering
/// a shard more work (half the queue bound, well below the read-shed
/// watermark).
const BACKOFF_PRESSURE: f64 = 0.5;

#[derive(Clone, Copy)]
pub struct SvcSize {
    pub preload: usize,
    /// The max-rate ladder in requests per second, ascending; the first
    /// step is the reference rate of the end-to-end latency.
    pub steps: &'static [f64],
    pub setups: usize,
    /// Requests of the closed loop per second of `--seconds` (a fixed
    /// count keeps the op log, and so peak memory, the same run to run;
    /// a slow host stops it at 45 % of `--seconds` instead).
    pub closed_per_s: f64,
}

impl SvcSize {
    /// The reference rate sits well below the open-loop capacity (the
    /// highest passing step was 250 k or 500 k req/s on a 2-vCPU host),
    /// where latency reflects the service's per-flush costs rather than a
    /// queue on the edge of overflow, and repeats run to run.
    pub const FULL: Self = Self {
        preload: 524_288,
        steps: &[100e3, 250e3, 500e3, 1e6, 2e6, 3e6],
        setups: 5,
        closed_per_s: 400_000.0,
    };
    pub const TINY: Self = Self {
        preload: 4096,
        steps: &[20e3, 40e3],
        setups: 1,
        closed_per_s: 200_000.0,
    };
}

/// The request mix: 75 % Get of Zipf-hot live keys, 5 % Get of absent
/// keys, 6 % Put overwriting a live key, 6 % Put of a fresh key, 5 %
/// Delete of a live key, 3 % Increment of a Zipf-hot live key. It never
/// looks at replies, so replaying it from the seed reproduces the stream.
struct OpGen {
    seed: u64,
    rng: Rng,
    zipf: Zipf,
    live: Vec<u32>,
    absent: Vec<u32>,
    keys: KeySpace,
    generated: u64,
}

impl OpGen {
    /// The generator over `preload` live keys (see [`OpGen::preload_pairs`]).
    fn with_preload(seed: u64, preload: usize) -> Self {
        let mut keys = KeySpace::new(seed);
        let live = keys.take(preload);
        let absent = keys.take((preload / 8).max(1));
        Self {
            seed,
            rng: Rng::new(seed, 3),
            zipf: Zipf::new(live.len().max(1) as u64, 0.99),
            live,
            absent,
            keys,
            generated: 0,
        }
    }

    fn preload_pairs(&self) -> Vec<(u32, u32)> {
        self.live
            .iter()
            .map(|&k| (k, value_of(self.seed, k, 0)))
            .collect()
    }

    fn hot(&mut self) -> u32 {
        let rank = self.zipf.sample(self.rng.next_u64()) as usize;
        self.live[(rank - 1).min(self.live.len() - 1)]
    }

    /// The next op and its generation index.
    fn next(&mut self) -> (u64, Op) {
        let gi = self.generated;
        self.generated += 1;
        let op = match self.rng.below(100) {
            0..=74 => Op::Get(self.hot()),
            75..=79 => Op::Get(self.absent[self.rng.below(self.absent.len())]),
            80..=85 => {
                let k = self.live[self.rng.below(self.live.len())];
                Op::Put(k, value_of(self.seed, k, gi + 1))
            }
            86..=91 => {
                let k = self.keys.next_key();
                self.live.push(k);
                Op::Put(k, value_of(self.seed, k, gi + 1))
            }
            92..=96 => {
                let i = self.rng.below(self.live.len());
                Op::Delete(self.live.swap_remove(i))
            }
            _ => Op::Increment(self.hot()),
        };
        (gi, op)
    }
}

// Reply codes in the log. Generated values fit in 31 bits and increments
// cannot carry them anywhere near these.
const NONE: u32 = u32::MAX;
const STORED: u32 = u32::MAX - 1;
const DELETED: u32 = u32::MAX - 2;
const MERGED: u32 = u32::MAX - 3;
const UNSET: u32 = u32::MAX - 4;

fn code(r: Reply) -> u32 {
    match r {
        Reply::Value(Some(v)) => v,
        Reply::Value(None) => NONE,
        Reply::Stored => STORED,
        Reply::Deleted => DELETED,
        Reply::Merged => MERGED,
    }
}

/// The in-memory op log: one reply code per admitted request (ids are
/// dense, in admission order) and the generation indices that were never
/// admitted. The ops themselves are regenerated from the seed.
struct Log {
    first_id: u64,
    replies: Vec<u32>,
    skipped: Vec<u64>,
}

impl Log {
    fn admit(&mut self, id: u64) -> Result<usize, String> {
        let k = self.replies.len();
        if id != self.first_id + k as u64 {
            return Err(format!(
                "svc-open: admitted id {id}, expected {}",
                self.first_id + k as u64
            ));
        }
        self.replies.push(UNSET);
        Ok(k)
    }

    fn complete(&mut self, c: &Completion) -> Result<usize, String> {
        let k =
            c.id.checked_sub(self.first_id)
                .map(|k| k as usize)
                .filter(|&k| k < self.replies.len())
                .ok_or_else(|| format!("svc-open: completion for unknown id {}", c.id))?;
        if self.replies[k] != UNSET {
            return Err(format!("svc-open: request {} completed twice", c.id));
        }
        self.replies[k] = code(c.reply);
        Ok(k)
    }

    /// Replay the generator from the seed against a reference map, in
    /// submission order (the order the service applies ops on any one
    /// key), and hold every logged reply to it.
    fn replay(&self, seed: u64, preload: usize, generated: u64) -> Result<(), String> {
        let mut gen = OpGen::with_preload(seed, preload);
        let mut model: HashMap<u32, u32> = gen.preload_pairs().into_iter().collect();
        let mut skipped = self.skipped.iter().copied().peekable();
        let mut k = 0usize;
        for _ in 0..generated {
            let (gi, op) = gen.next();
            if skipped.peek() == Some(&gi) {
                skipped.next();
                continue;
            }
            let want = match op {
                Op::Get(key) => model.get(&key).copied().unwrap_or(NONE),
                Op::Put(key, v) => {
                    model.insert(key, v);
                    STORED
                }
                Op::Delete(key) => {
                    model.remove(&key);
                    DELETED
                }
                Op::Increment(key) => {
                    let rule = MergeRule::Count;
                    let v = model
                        .get(&key)
                        .map_or(rule.initial(0), |&old| rule.merge(old, 0));
                    model.insert(key, v);
                    MERGED
                }
                Op::Upsert(..) => unreachable!("the generator issues no upserts"),
            };
            let got = *self
                .replies
                .get(k)
                .ok_or_else(|| format!("svc-open: op {gi} admitted but missing from the log"))?;
            if got == UNSET {
                return Err(format!(
                    "svc-open: request {} ({op:?}) never completed",
                    self.first_id + k as u64
                ));
            }
            if got != want {
                return Err(format!(
                    "svc-open: request {} ({op:?}) replied {got:#x}, reference says {want:#x}",
                    self.first_id + k as u64
                ));
            }
            k += 1;
        }
        if k != self.replies.len() {
            return Err(format!(
                "svc-open: {} requests logged, {k} replayed",
                self.replies.len()
            ));
        }
        Ok(())
    }
}

/// What one open-loop step saw, per [`WINDOW`] of due times. Lags are
/// in µs.
#[derive(Default)]
struct Step {
    rate: f64,
    windows: Vec<Window>,
    lag_us: Samples,
    offered: u64,
}

impl Step {
    /// Record the outcome of a request due `due_ns` into the measured
    /// part of the step: its latency, or `None` for a refusal.
    fn record(&mut self, due_ns: u64, lat_us: Option<f64>) {
        let w = (due_ns / WINDOW.as_nanos() as u64) as usize;
        if self.windows.len() <= w {
            self.windows.resize_with(w + 1, Window::default);
        }
        let l = &mut self.windows[w].lat;
        match lat_us {
            Some(v) => l.us.push(v),
            None => l.refused += 1,
        }
    }

    /// Every window's latencies together.
    fn all(&self) -> Lat {
        let mut all = Lat::default();
        for w in &self.windows {
            all.absorb(&w.lat);
        }
        all
    }

    fn refused(&self) -> u64 {
        self.windows.iter().map(|w| w.lat.refused).sum()
    }

    fn refused_frac(&self) -> f64 {
        self.refused() as f64 / self.offered.max(1) as f64
    }

    /// The step's verdict against the latency limit.
    fn passes(&self) -> bool {
        self.all().quantile(0.99) <= SLO_P99_US
            && self.refused_frac() <= SLO_REFUSED
            && self.lag_us.quantile(0.99) <= SLO_P99_US
    }
}

/// The highest rate of an ascending ladder whose steps all passed up to
/// it (0 when the first fails).
fn max_rate(steps: &[Step]) -> f64 {
    steps
        .iter()
        .take_while(|s| s.passes())
        .last()
        .map_or(0.0, |s| s.rate)
}

/// Per-call readings of the traced phase.
#[derive(Default)]
struct Probe {
    submit_ns: Samples,
    tick_flush_us: Samples,
    tick_idle_ns: Samples,
    drain_ns: Samples,
    queue_wait_us: Samples,
    busy_ns: f64,
    depth_max: usize,
    /// Submit time of each admitted request of the phase, by log index.
    submitted_ns: HashMap<usize, u64>,
}

struct Driver {
    seed: u64,
    svc: KvService,
    sim: SimContext,
    gen: OpGen,
    log: Log,
    tracer: Tracer,
    /// Phases run so far (each draws its own arrival stream).
    phases: u64,
}

impl Driver {
    fn tick_and_drain(&mut self) -> Result<(usize, Vec<Completion>, u64, u64), String> {
        let (done, tick) = self.tracer.timed("kv_service", "KvService::tick", || {
            self.svc.tick(&mut self.sim)
        });
        let done = done.map_err(|e| format!("svc-open tick: {e}"))?;
        let (cs, drain) = self
            .tracer
            .timed("kv_service", "KvService::drain_completions", || {
                self.svc.drain_completions()
            });
        Ok((done, cs, tick.as_nanos() as u64, drain.as_nanos() as u64))
    }

    /// Tick until every queue is empty, logging what completes.
    fn settle(&mut self, mut on_done: impl FnMut(usize)) -> Result<(), String> {
        while self.svc.queue_depths().iter().any(|&d| d > 0) {
            let (_, cs, _, _) = self.tick_and_drain()?;
            for c in &cs {
                on_done(self.log.complete(c)?);
            }
        }
        Ok(())
    }

    /// Offer Poisson arrivals at `rate` for `dur`. Requests due before
    /// `measure_from` (`None`: all of them) are warm-up: they run and are
    /// checked, but not measured.
    fn open_loop(
        &mut self,
        rate: f64,
        dur: Duration,
        measure_from: Option<Duration>,
        mut probe: Option<&mut Probe>,
    ) -> Result<Step, String> {
        self.phases += 1;
        let mut sched = Poisson::new(self.seed, 100 + self.phases, rate);
        let end_ns = dur.as_nanos() as u64;
        let from_ns = measure_from.map_or(u64::MAX, |d| d.as_nanos() as u64);
        // Room for every arrival up front: large buffers that double while
        // the phase runs would make peak memory depend on timing.
        let expected = (rate * dur.as_secs_f64() * 1.1) as usize + 1024;
        let mut step = Step {
            rate,
            lag_us: Samples::with_capacity(expected),
            ..Step::default()
        };
        // Due time of each admitted request that is measured, by log
        // index from `base`. Every completion during the phase is of a
        // request it admitted: the previous phase settled before it began.
        let base = self.log.replies.len();
        let mut due: Vec<Option<u64>> = Vec::with_capacity(expected);
        let completed = |step: &mut Step, due: &[Option<u64>], k: usize, at_ns: u64| {
            if let Some(d) = due[k - base] {
                step.record(d - from_ns, Some((at_ns - d) as f64 / 1e3));
            }
        };
        let t0 = Instant::now();
        let mut next_due = sched.next_due_ns();
        loop {
            let now = t0.elapsed().as_nanos() as u64;
            if now >= end_ns || (self.tracer.is_on() && self.tracer.room() < SPAN_RESERVE) {
                break;
            }
            let iter = self.tracer.begin("loadgen", "iteration");
            while next_due <= now {
                let (gi, op) = self.gen.next();
                let measured = next_due >= from_ns;
                if measured {
                    step.offered += 1;
                    step.lag_us.push((now - next_due) as f64 / 1e3);
                }
                let span = self.tracer.begin("kv_service", "KvService::submit");
                let ts = probe.as_ref().map(|_| t0.elapsed().as_nanos() as u64);
                let res = self.svc.submit(0, op);
                if let (Some(p), Some(ts)) = (probe.as_deref_mut(), ts) {
                    p.submit_ns
                        .push((t0.elapsed().as_nanos() as u64 - ts) as f64);
                }
                match res {
                    Ok(id) => {
                        self.tracer.set_req(&span, id);
                        let k = self.log.admit(id)?;
                        due.push(measured.then_some(next_due));
                        if let (Some(p), Some(ts)) = (probe.as_deref_mut(), ts) {
                            p.submitted_ns.insert(k, ts);
                        }
                    }
                    Err(_) => {
                        self.log.skipped.push(gi);
                        if measured {
                            step.record(next_due - from_ns, None);
                        }
                    }
                }
                self.tracer.end(span);
                next_due = sched.next_due_ns();
            }
            if let Some(p) = probe.as_deref_mut() {
                let depth = self.svc.queue_depths().into_iter().max().unwrap_or(0);
                p.depth_max = p.depth_max.max(depth);
            }
            let tick_start = t0.elapsed().as_nanos() as u64;
            let (done, cs, tick_ns, drain_ns) = self.tick_and_drain()?;
            let t_drain = t0.elapsed().as_nanos() as u64;
            if let Some(p) = probe.as_deref_mut() {
                if done > 0 {
                    p.tick_flush_us.push(tick_ns as f64 / 1e3);
                    p.busy_ns += tick_ns as f64;
                } else {
                    p.tick_idle_ns.push(tick_ns as f64);
                }
                p.drain_ns.push(drain_ns as f64);
            }
            for c in &cs {
                let k = self.log.complete(c)?;
                completed(&mut step, &due, k, t_drain);
                if let Some(p) = probe.as_deref_mut() {
                    if let Some(ts) = p.submitted_ns.remove(&k) {
                        p.queue_wait_us
                            .push(tick_start.saturating_sub(ts) as f64 / 1e3);
                    }
                }
            }
            self.tracer.end(iter);
        }
        // Requests still queued at the end complete in the final drains.
        self.settle(|k| completed(&mut step, &due, k, t0.elapsed().as_nanos() as u64))?;
        Ok(step)
    }

    /// Offer `requests` requests as fast as the service takes them (or
    /// as many as fit in `cap`), keeping every shard's queue fed but
    /// backing off at half its bound. Returns the completions of each
    /// [`WINDOW`], and the completed and refused counts.
    fn closed_loop(
        &mut self,
        requests: u64,
        cap: Duration,
    ) -> Result<(Vec<Window>, u64, u64), String> {
        let burst = self.svc.config().shards * self.svc.config().max_batch;
        let mut windows = Vec::new();
        let (mut completed, mut refused, mut offered) = (0u64, 0u64, 0u64);
        let mut held: Option<(u64, Op)> = None;
        let start = Instant::now();
        let mut w = (start, 0u64);
        let close = |w: &mut (Instant, u64), windows: &mut Vec<Window>| {
            windows.push(Window {
                ops: w.1,
                ns: w.0.elapsed().as_nanos() as f64,
                lat: Lat::default(),
            });
            *w = (Instant::now(), 0);
        };
        while offered < requests && start.elapsed() < cap {
            for _ in 0..burst.min((requests - offered) as usize) {
                let (gi, op) = held.take().unwrap_or_else(|| self.gen.next());
                if self.svc.pressure_for(op.key()) >= BACKOFF_PRESSURE {
                    held = Some((gi, op));
                    break;
                }
                offered += 1;
                match self.svc.submit(0, op) {
                    Ok(id) => {
                        self.log.admit(id)?;
                    }
                    Err(_) => {
                        self.log.skipped.push(gi);
                        refused += 1;
                    }
                }
            }
            let (_, cs, _, _) = self.tick_and_drain()?;
            for c in &cs {
                self.log.complete(c)?;
            }
            completed += cs.len() as u64;
            w.1 += cs.len() as u64;
            if w.0.elapsed() >= WINDOW {
                close(&mut w, &mut windows);
            }
        }
        if let Some((gi, _)) = held {
            // Generated but never offered.
            self.log.skipped.push(gi);
        }
        let mut tail = 0u64;
        self.settle(|_| tail += 1)?;
        (completed, w.1) = (completed + tail, w.1 + tail);
        if windows.is_empty() {
            close(&mut w, &mut windows);
        }
        Ok((windows, completed, refused))
    }
}

fn config(size: SvcSize, threads: usize) -> ServiceConfig {
    let base = ServiceConfig::default();
    ServiceConfig {
        backend: Backend::HostPar { threads },
        table: Config {
            initial_buckets: buckets_for_load(size.preload / base.shards, 4, 0.7),
            ..Config::default()
        },
        ..base
    }
}

/// Build the service and load the preload through `submit`/`tick`.
fn build(cfg: &ServiceConfig, preload: &[(u32, u32)]) -> Result<(KvService, SimContext), String> {
    let mut sim = SimContext::new();
    let mut svc =
        KvService::new(cfg.clone(), &mut sim).map_err(|e| format!("KvService::new: {e}"))?;
    let mut stored = 0usize;
    let mut i = 0;
    while i < preload.len() || svc.queue_depths().iter().any(|&d| d > 0) {
        while i < preload.len() && svc.pressure_for(preload[i].0) < BACKOFF_PRESSURE {
            let (k, v) = preload[i];
            svc.submit(0, Op::Put(k, v))
                .map_err(|e| format!("svc-open preload refused: {e}"))?;
            i += 1;
        }
        svc.tick(&mut sim)
            .map_err(|e| format!("svc-open preload tick: {e}"))?;
        for c in svc.drain_completions() {
            if c.reply != Reply::Stored {
                return Err(format!("svc-open preload: {:?} for key {}", c.reply, c.key));
            }
            stored += 1;
        }
    }
    if stored != preload.len() {
        return Err(format!(
            "svc-open preload: {stored} of {} puts completed",
            preload.len()
        ));
    }
    Ok((svc, sim))
}

fn total(svc: &KvService) -> ShardMetrics {
    svc.snapshot().total.m
}

/// A latency for the output: an infinite one (refusals past the
/// percentile) is reported as the largest finite number.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let size = if ctx.tiny {
        SvcSize::TINY
    } else {
        SvcSize::FULL
    };
    let mut out = Out::default();
    let g0 = Instant::now();
    let gen = OpGen::with_preload(ctx.seed, size.preload);
    let preload = gen.preload_pairs();
    out.set("loadgen.gen_s", g0.elapsed().as_secs_f64(), 1);
    let cfg = config(size, ctx.threads);
    let s = ctx.seconds;
    let mut tally = Tally::default();

    let setups = if ctx.traced { 1 } else { size.setups };
    let ((svc, sim), setup) = crate::setups(setups, || build(&cfg, &preload))?;
    let reference_rate = size.steps[0];
    let closed = (size.closed_per_s * s) as u64;
    let mut d = Driver {
        seed: ctx.seed,
        svc,
        sim,
        gen,
        log: Log {
            first_id: preload.len() as u64,
            // Room for the whole run up front, so the log grows without
            // reallocating and peak memory does not depend on timing.
            replies: Vec::with_capacity((reference_rate * s) as usize + closed as usize),
            skipped: Vec::new(),
        },
        tracer: Tracer::off(),
        phases: 0,
    };

    if !ctx.traced {
        d.open_loop(reference_rate, secs(0.1 * s), None, None)?;
        let reference = d.open_loop(reference_rate, secs(0.45 * s), Some(Duration::ZERO), None)?;
        let (windows, completed, refused) = d.closed_loop(closed, secs(0.45 * s))?;
        d.log.replay(ctx.seed, size.preload, d.gen.generated)?;
        let rate = quiet(&windows, 0.99);
        let lat = quiet(&reference.windows, 0.99);
        out.set("setup_s", setup.median(), setup.len() as u64);
        out.set("ops_per_s", rate.ops_per_s, rate.windows);
        out.set("lat_p50_us", finite(lat.p50_us), lat.samples);
        out.set("lat_tail_us", finite(lat.tail_us), lat.samples);
        out.set("peak_rss_mb", sys::peak_rss_mib(), 1);
        tally.attempted = reference.offered + completed + refused;
        tally.failed = reference.refused() + refused;
        return Ok(Outcome {
            out,
            tally,
            tracer: d.tracer,
        });
    }

    d.open_loop(reference_rate, secs(0.1 * s), None, None)?;
    let plain = d.open_loop(reference_rate, secs(0.2 * s), Some(Duration::ZERO), None)?;

    let before = total(&d.svc);
    let mut probe = Probe::default();
    d.tracer = Tracer::on(SPAN_CAPACITY);
    let (wall0, switches0) = (Instant::now(), sys::voluntary_switches());
    // Every request leaves a span: the phase ends early when the buffer
    // is nearly full.
    let traced = d.open_loop(
        reference_rate,
        secs(0.2 * s),
        Some(Duration::ZERO),
        Some(&mut probe),
    )?;
    let wall = wall0.elapsed().as_nanos() as f64;
    let switches = sys::voluntary_switches().saturating_sub(switches0);
    d.tracer.set_on(false);
    let after = total(&d.svc);

    let step_dur = 0.5 * s / size.steps.len() as f64;
    let mut ladder = Vec::new();
    for &rate in size.steps {
        let step = d.open_loop(rate, secs(step_dur), Some(secs(0.2 * step_dur)), None)?;
        let passed = step.passes();
        eprintln!(
            "dybench: svc-open step {rate} req/s: p99 {:.0} us, {:.3} % refused, generator p99 {:.0} us late: {}",
            step.all().quantile(0.99),
            step.refused_frac() * 100.0,
            step.lag_us.quantile(0.99),
            if passed { "pass" } else { "fail" }
        );
        ladder.push(step);
        if !passed {
            break;
        }
    }
    d.log.replay(ctx.seed, size.preload, d.gen.generated)?;

    let batches = (after.batches - before.batches).max(1) as f64;
    let requests = (after.batched_requests - before.batched_requests).max(1) as f64;
    let coalesced = (after.coalesced_local + after.dedup_saved + after.writes_coalesced)
        - (before.coalesced_local + before.dedup_saved + before.writes_coalesced);
    let max_batch = d.svc.config().max_batch as f64;
    let nb = batches as u64;
    let n = |s: &Samples| s.len() as u64;
    out.set(
        "kv_service.submit_ns_p50",
        probe.submit_ns.median(),
        n(&probe.submit_ns),
    );
    out.set(
        "kv_service.submit_ns_p99",
        probe.submit_ns.quantile(0.99),
        n(&probe.submit_ns),
    );
    let nf = n(&probe.tick_flush_us);
    out.set(
        "kv_service.tick_flush_us_p50",
        probe.tick_flush_us.median(),
        nf,
    );
    out.set(
        "kv_service.tick_flush_us_p99",
        probe.tick_flush_us.quantile(0.99),
        nf,
    );
    out.set(
        "kv_service.tick_idle_ns_p50",
        probe.tick_idle_ns.median(),
        n(&probe.tick_idle_ns),
    );
    out.set(
        "kv_service.drain_ns_p50",
        probe.drain_ns.median(),
        n(&probe.drain_ns),
    );
    out.set("kv_service.busy_frac", probe.busy_ns / wall, nf);
    out.set("kv_service.batch_fill", requests / batches / max_batch, nb);
    out.set(
        "kv_service.flush_by_size_frac",
        (after.flush_by_size - before.flush_by_size) as f64 / batches,
        nb,
    );
    out.set(
        "kv_service.coalesced_frac",
        coalesced as f64 / requests,
        requests as u64,
    );
    let nq = n(&probe.queue_wait_us);
    out.set(
        "kv_service.queue_wait_us_p50",
        probe.queue_wait_us.median(),
        nq,
    );
    out.set(
        "kv_service.queue_wait_us_p99",
        probe.queue_wait_us.quantile(0.99),
        nq,
    );
    out.set("kv_service.queue_depth_max", probe.depth_max as f64, nf);
    out.set(
        "kv_service.resize_stall_batches",
        (after.resize_stall_batches - before.resize_stall_batches) as f64,
        nb,
    );
    out.set(
        "kv_service.refused_frac",
        plain.refused_frac(),
        plain.offered,
    );
    let last = ladder.last().expect("the ladder ran its first step");
    out.set(
        "kv_service.refused_frac_at_limit",
        last.refused_frac(),
        last.offered,
    );
    out.set(
        "kv_service.max_rate_rps",
        max_rate(&ladder),
        ladder.len() as u64,
    );
    out.set(
        "loadgen.lag_p99_us",
        plain.lag_us.quantile(0.99),
        plain.offered,
    );
    let (own, iters) = crate::trace::self_share(d.tracer.spans(), "iteration");
    out.set("loadgen.self_frac", own, iters);
    out.set(
        "trace.overhead_frac",
        finite(traced.all().quantile(0.5)) / finite(plain.all().quantile(0.5)) - 1.0,
        traced.offered,
    );
    out.set("proc.cpu_s", sys::cpu_seconds(), 1);
    out.set(
        "proc.vol_ctx_switches_per_kop",
        switches as f64 * 1000.0 / traced.offered.max(1) as f64,
        switches,
    );
    tally.attempted = plain.offered + traced.offered;
    tally.failed = plain.refused() + traced.refused();
    Ok(Outcome {
        out,
        tally,
        tracer: d.tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A step whose requests are due one per millisecond: `lat_us` lists
    /// (latency, count) of completed ones, then `refused` refusals.
    fn step(lat_us: &[(f64, usize)], lag_us: f64, refused: u64) -> Step {
        let mut s = Step {
            rate: 1.0,
            ..Step::default()
        };
        let mut due = 0u64;
        for &(v, n) in lat_us {
            for _ in 0..n {
                s.record(due, Some(v));
                s.lag_us.push(lag_us);
                due += 1_000_000;
            }
        }
        for _ in 0..refused {
            s.record(due, None);
            due += 1_000_000;
        }
        s.offered = due / 1_000_000;
        s
    }

    #[test]
    fn refusals_count_as_over_the_limit() {
        // Without its 6 refusals this step's p99 is fast; counted as over
        // the limit they push p99 into the slow tail, though only 0.6 % of
        // requests were refused.
        let fast_p99 = step(&[(100.0, 995), (3000.0, 5)], 10.0, 0);
        assert!(fast_p99.passes());
        let refused = step(&[(100.0, 995), (3000.0, 5)], 10.0, 6);
        assert!(refused.refused_frac() < SLO_REFUSED);
        assert_eq!(refused.all().quantile(0.99), 3000.0);
        assert!(!refused.passes());
        // More refusals than the tail holds make the percentile infinite.
        let flooded = step(&[(100.0, 100)], 10.0, 50);
        assert_eq!(flooded.all().quantile(0.99), f64::INFINITY);
        // A late generator fails a step on its own.
        assert!(!step(&[(100.0, 1000)], 2500.0, 0).passes());
    }

    #[test]
    fn ladder_stops_at_the_first_failing_step() {
        let mut ok = step(&[(100.0, 1000)], 10.0, 0);
        let mut slow = step(&[(5000.0, 1000)], 10.0, 0);
        let mut ok_again = step(&[(100.0, 1000)], 10.0, 0);
        (ok.rate, slow.rate, ok_again.rate) = (1e5, 2e5, 3e5);
        assert_eq!(max_rate(&[ok, slow, ok_again]), 1e5);
        assert_eq!(max_rate(&[]), 0.0);
    }

    #[test]
    fn op_stream_replays_from_the_seed() {
        let mut a = OpGen::with_preload(4, 1000);
        let mut b = OpGen::with_preload(4, 1000);
        let ops: Vec<Op> = (0..5000).map(|_| a.next().1).collect();
        assert!(ops
            .iter()
            .zip((0..5000).map(|_| b.next().1))
            .all(|(x, y)| *x == y));
        let gets = ops.iter().filter(|o| matches!(o, Op::Get(_))).count();
        assert!((3750..4250).contains(&gets), "{gets} gets of 5000");
    }
}
