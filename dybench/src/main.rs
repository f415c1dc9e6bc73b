//! # dybench — the end-to-end benchmark of the DyCuckoo reproduction
//!
//! One binary, one workload per process. It times calls into the public
//! functions of each layer from outside — `ParTable::*_batch`,
//! `KvService::{submit, tick, drain_completions}`, `DyCuckoo::*_batch`
//! and `UnsizedTable::*_batch` on a `SimContext` — and reads each layer's
//! public counters (`ParTable::metrics`, `ParReport`,
//! `KvService::snapshot`, `BatchReport`, `SimContext` metrics through
//! `bench::measure`). Memory and CPU come from `/proc/self`. The program
//! itself carries no instrumentation.
//!
//! ## Running
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path dybench/Cargo.toml -- \
//!     --workload par-read-zipf --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `--workload` — `par-read-zipf`, `par-write-grow`, `svc-open` or
//!   `sim-dynamic` (see below).
//! * `--seed` — every input is generated from it; input generation is not
//!   part of any timed section.
//! * `--seconds` (default 20) — how long the measured phases run.
//! * `--trace 0|1` (default 0) — `0` measures the end-to-end metrics with
//!   tracing off; `1` is the separate traced run that prints the
//!   per-layer metrics and writes `target/dybench/<workload>-seed<N>.json`.
//! * `--threads` (default `min(2, nproc)`) — host-par worker threads;
//!   more than `nproc` is refused.
//!
//! The load fits a 2-core machine: one single-threaded load generator
//! plus at most `--threads` workers. A debug build exits with status 2
//! without measuring; a failed correctness check exits with status 1.
//!
//! Output: `#` header lines (the run and the machine: nproc, CPU model,
//! L2/L3 size, rustc, profile, seed), then one JSON line per metric —
//! `{workload, metric, value, unit, kind, samples}` — and last one JSON
//! object `{correct, attempted, failed, metrics}` with the same values.
//!
//! `dybench compare A.jsonl B.jsonl` sets two collections of such output
//! side by side against the bounds in `BENCHMARK.json` (see `compare.rs`).
//!
//! ## Reading a trace
//!
//! Open the JSON file at <https://ui.perfetto.dev> (or `chrome://tracing`).
//! Each span is one call from the benchmark into a layer (category =
//! layer), nested under the generator's own step spans; its arguments
//! carry the span id, the parent id, the service request id where there is
//! one, and the self time — its duration minus the time its children
//! cover. The spans live in a preallocated buffer and are written once,
//! at exit.
//!
//! ## Workloads
//!
//! | workload | what it runs | working set vs the 2 MiB L2 |
//! |---|---|---|
//! | `par-read-zipf` | `ParTable`, 2 threads: preload 65,536 keys, then `find_batch` calls of 4,096 keys, 90 % Zipf(0.99) hits and 10 % absent keys | ~0.6 MB of slots: fits in L2 |
//! | `par-write-grow` | `ParTable`, 2 threads, episodes on fresh tables: preload 262,144 keys; grow with 192 insert batches of 4,096 fresh keys, each followed by a find batch; then 64 churn rounds of delete-oldest, insert-fresh, `upsert_batch(Add)` on Zipf-hot keys, find | ~1 M keys, ~10 MB of slots: far beyond L2, inside the 300 MiB L3 |
//! | `svc-open` | `KvService` on `Backend::HostPar{threads: 2}`, default `ServiceConfig`: preload 524,288 keys through `submit`/`tick`; open-loop Poisson arrivals at 100 k req/s (75 % Zipf Get, 5 % absent Get, 12 % Put, 5 % Delete, 3 % Increment), then a closed loop of 400 k requests per second of `--seconds` that keeps every shard fed | 4 shards × ~2 MB of buckets: beyond L2 |
//! | `sim-dynamic` | the paper's dynamic protocol on `DyCuckoo` over `SimContext` (TW at scale 0.02, ~1 M pairs, batch 10 %, r = 0.2, grow then shrink), plus 50 k mixed-length string pairs on `UnsizedTable`, repeated on fresh tables | ~1 M keys, ~12 MB of buckets: beyond L2 |
//!
//! Why each: `par-read-zipf` is reads only, dominated by stripe locks and
//! per-batch thread spawns (insert, evict and grow code barely runs), so a
//! lock-free read path or a worker pool shows there. `par-write-grow`
//! puts writes beside reads — concurrent claims, the overflow drain,
//! grows, deletes and in-lock merges — so a read-side gain that costs
//! writers shows there. `svc-open` is the only workload through router,
//! admission, batcher, flush and the host-par flush waves, whose fixed
//! per-flush costs dominate at ≤ 256 ops per shard window. `sim-dynamic`
//! is the paper's workload on the cost model: deterministic, so a change
//! to any charge path shows exactly, and untouched by threads, locks or
//! the service, so a `host_par` or `kv_service` change predicts no change
//! there.
//!
//! ## End-to-end metrics (untraced run)
//!
//! * `setup_s` — median time from table/service construction to the end
//!   of the preload, over several builds per run (`sim-dynamic`: building
//!   both tables and loading the string pairs).
//! * `ops_per_s` — completed operations per second of wall clock inside
//!   the timed calls (`svc-open`: completed requests per second of the
//!   closed loop, the service's saturated throughput).
//! * `lat_p50_us`, `lat_tail_us` — median and tail latency of one unit of
//!   work: a `find_batch` call (`par-read-zipf`), an `insert_batch` call
//!   (`par-write-grow`), a request from its due time to the drain that
//!   returned it, refusals counted as over any limit (`svc-open`), the
//!   `find_batch` call of each dynamic batch (`sim-dynamic`). The tail is
//!   p99, except p90 on `sim-dynamic`, whose 20 finds per repetition leave
//!   p90 the highest percentile with ten samples beyond it.
//! * `peak_rss_mb` — `VmHWM`.
//!
//! A run splits its measured phase into windows — one second of calls
//! (`par-read-zipf`), one episode (`par-write-grow`), half a second of due
//! times or of the closed loop (`svc-open`), one repetition
//! (`sim-dynamic`) — and reports `ops_per_s`, `lat_p50_us` and
//! `lat_tail_us` over its quietest windows: the fastest quarter, and more
//! until the tail has ten samples beyond it (`stats::quiet`). The shared
//! 2-vCPU hosts this runs on slow a run down by 10-30 % for seconds to
//! minutes at a time, and interference only ever slows a window, so the
//! quietest windows measure the program and repeat from run to run where
//! means and medians follow the neighbours.
//!
//! Failures (Err results, admission refusals) are counted in the result
//! object's `failed`, not as a metric.
//!
//! ## Per-layer metrics (traced run) and what they should move
//!
//! * `host_par.find_ns_per_key`, `.lock_fail_per_lookup`,
//!   `.lookups_per_op`, `.speedup_2t` (the traced run repeats the workload
//!   at 1 thread) → `ops_per_s` on `par-read-zipf`; no change predicted on
//!   `sim-dynamic`. `.find_call_us_p99` → `lat_tail_us` on
//!   `par-read-zipf`.
//! * `host_par.insert_ns_per_key`, `.upsert_ns_per_key`,
//!   `.delete_ns_per_key`, `.overflow_frac` (keys drained sequentially /
//!   keys placed: the wasted-attempt ratio), `.evictions_per_insert` →
//!   `ops_per_s` on `par-write-grow`; `.grows` (per episode) and
//!   `.grow_batch_us_p50` (insert calls that grew) → `lat_tail_us` there;
//!   `.fill` → `peak_rss_mb`; `.cpu_util` → `ops_per_s` on both.
//! * `kv_service.submit_ns_p50/_p99` → `lat_p50_us` and `max_rate_rps`;
//!   `.tick_flush_us_p50/_p99` → `lat_tail_us` and `max_rate_rps`;
//!   `.tick_idle_ns_p50`, `.drain_ns_p50` → `lat_p50_us`; `.busy_frac`,
//!   `.batch_fill`, `.flush_by_size_frac`, `.coalesced_frac` →
//!   `max_rate_rps` and `ops_per_s`; `.queue_wait_us_p50/_p99` (submit to
//!   the start of the completing tick), `.queue_depth_max`,
//!   `.resize_stall_batches` → `lat_tail_us`; `.refused_frac` (reference
//!   step) and `.refused_frac_at_limit` (first failing ladder step) →
//!   `failed` and `max_rate_rps`; `.max_rate_rps`, the highest step of
//!   100 k / 250 k / 500 k / 1 M / 2 M / 3 M req/s whose p99 (refusals
//!   over the limit) is ≤ 2 ms with ≤ 1 % refused and the generator no
//!   more than 2 ms late at p99. All on `svc-open`; no change predicted on
//!   the `par-*` workloads. (The highest passing step jumps between
//!   neighbours from run to run, so it is a per-layer reading, not an
//!   end-to-end metric with a bound.)
//! * `dycuckoo.{insert,find,delete}_ns_per_key`,
//!   `unsized_kv.{insert,find}_ns_per_key` → `ops_per_s` on
//!   `sim-dynamic`; `dycuckoo.resizes`, `.retries` → `sim_mops` and
//!   `sim_fill_mean`; `unsized_kv.tx_per_op` → `sim_tx_per_op`;
//!   `dycuckoo.stale_finds` counts finds that returned the value of a
//!   stale second copy of a key (see `sim.rs`), which a fix of the
//!   duplicate probe should bring to 0.
//! * `sim_mops`, `sim_tx_per_op`, `sim_fill_mean` — the paper's own
//!   metrics (cost-model Mops, transactions per op, mean filled factor
//!   after each batch) on `sim-dynamic`. They repeat exactly. They are
//!   per-layer rather than end-to-end because every end-to-end metric must
//!   be measured, and non-zero, on every workload.
//! * `gpu_sim.*` (cost-model charges per sequence) → `sim_tx_per_op` and
//!   `sim_mops`; `attr.<path>.tx` (self transactions of fixed
//!   `obs::attr` paths over one sequence) say which charge path moved
//!   `sim_tx_per_op`.
//! * `loadgen.gen_s` (input generation), `.lag_p99_us` (how late the open
//!   loop ran), `.self_frac` (generator time outside the calls, from span
//!   self time), `trace.overhead_frac` (traced against untraced
//!   throughput, or p50 latency on `svc-open`), `proc.cpu_s`,
//!   `proc.vol_ctx_switches_per_kop` (generator-thread switches, mostly
//!   thread spawn and join) → `max_rate_rps` on `svc-open`.
//!
//! A per-layer metric of a layer the workload does not run prints as 0.

mod compare;
mod gen;
mod json;
mod metrics;
mod par;
mod sim;
mod stats;
mod svc;
mod sys;
mod trace;

use std::process::exit;
use std::time::Duration;

const USAGE: &str = "usage: dybench --workload <par-read-zipf|par-write-grow|svc-open|sim-dynamic> \
--seed <u64> [--seconds <s>] [--trace <0|1>] [--threads <n>]\n       dybench compare A.jsonl B.jsonl [--bench BENCHMARK.json]";

/// One run's settings, as the workloads see them.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured phases.
    pub seconds: f64,
    pub traced: bool,
    pub threads: usize,
    /// Tiny inputs for the unit tests.
    pub tiny: bool,
}

/// What a workload hands back: its metrics, op counts and spans.
pub struct Outcome {
    pub out: metrics::Out,
    pub tally: metrics::Tally,
    pub tracer: trace::Tracer,
}

pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Build `n` times (at least once), timing each build; keep the last.
pub fn setups<T>(
    n: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, stats::Samples), String> {
    let mut times = stats::Samples::default();
    let mut built = None;
    for _ in 0..n.max(1) {
        drop(built.take());
        let t0 = std::time::Instant::now();
        built = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((built.expect("built at least once"), times))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ParReadZipf,
    ParWriteGrow,
    SvcOpen,
    SimDynamic,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ParReadZipf,
        Workload::ParWriteGrow,
        Workload::SvcOpen,
        Workload::SimDynamic,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ParReadZipf => "par-read-zipf",
            Workload::ParWriteGrow => "par-write-grow",
            Workload::SvcOpen => "svc-open",
            Workload::SimDynamic => "sim-dynamic",
        }
    }

    fn run(self, ctx: &Ctx) -> Result<Outcome, String> {
        match self {
            Workload::ParReadZipf => par::run_read(ctx),
            Workload::ParWriteGrow => par::run_grow(ctx),
            Workload::SvcOpen => svc::run(ctx),
            Workload::SimDynamic => sim::run(ctx),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed) = (None, None);
    let (mut seconds, mut traced, mut threads) = (20.0, false, sys::nproc().min(2));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--threads" => {
                threads = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&t| t >= 1)
                    .ok_or_else(bad)?;
                if threads > sys::nproc() {
                    return Err(format!(
                        "--threads {threads} exceeds the {} hardware threads available",
                        sys::nproc()
                    ));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        threads,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        exit(compare::main(&args[1..]));
    }
    if cfg!(debug_assertions) {
        eprintln!("dybench: refusing to measure a debug build; build with --release");
        exit(2);
    }
    let a = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("dybench: {e}\n{USAGE}");
        exit(2)
    });
    let name = a.workload.name();
    println!(
        "# dybench workload={name} seed={} seconds={} trace={} threads={}",
        a.seed,
        a.seconds,
        u8::from(a.traced),
        a.threads
    );
    let machine: Vec<String> = sys::machine()
        .into_iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    println!("# machine {}", machine.join(" "));
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
        threads: a.threads,
        tiny: false,
    };
    let o = a.workload.run(&ctx).unwrap_or_else(|e| {
        eprintln!("dybench: check failed: {e}");
        exit(1)
    });
    if ctx.traced {
        let path = std::path::PathBuf::from(format!("target/dybench/{name}-seed{}.json", a.seed));
        if let Err(e) = o.tracer.write_chrome(&path) {
            eprintln!("dybench: writing {}: {e}", path.display());
            exit(1);
        }
        println!(
            "# trace {} ({} spans, {} dropped)",
            path.display(),
            o.tracer.spans().len(),
            o.tracer.dropped()
        );
    }
    for line in metrics::render(name, &o.out, ctx.traced, o.tally, true) {
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&strings(&[
            "--workload",
            "svc-open",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::SvcOpen);
        assert_eq!((a.seed, a.seconds, a.traced), (7, 3.0, true));
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "svc-open"],
            &["--workload", "svc-open", "--seed", "1", "--trace", "yes"],
            &["--workload", "svc-open", "--seed", "1", "--seconds", "0"],
            &[
                "--workload",
                "svc-open",
                "--seed",
                "1",
                "--threads",
                "100000",
            ],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// Every workload, untraced and traced, at a tiny size with every
    /// correctness check on.
    #[test]
    fn every_workload_runs_tiny_with_checks() {
        for w in Workload::ALL {
            for traced in [false, true] {
                let ctx = Ctx {
                    seed: 3,
                    seconds: 0.05,
                    traced,
                    threads: 2,
                    tiny: true,
                };
                let o = w
                    .run(&ctx)
                    .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", w.name()));
                assert!(o.tally.attempted > 0, "{}", w.name());
                assert_eq!(o.tally.failed, 0, "{}", w.name());
                let lines = metrics::render(w.name(), &o.out, traced, o.tally, true);
                assert!(json::parse(lines.last().unwrap()).is_ok());
                if traced {
                    assert!(!o.tracer.spans().is_empty(), "{} traced", w.name());
                } else {
                    for (name, _, _) in metrics::END_TO_END {
                        let v = o.out.get(name).unwrap();
                        assert!(v > 0.0, "{} {name} = {v}", w.name());
                    }
                }
            }
        }
    }
}
