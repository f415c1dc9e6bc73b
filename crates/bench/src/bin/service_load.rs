//! **service_load** — deterministic closed-loop load generator for the
//! `kv-service` layer.
//!
//! Replays the paper's dynamic workload (inserts + finds + r·deletes per
//! batch, growth phase then shrink phase) through a sharded, batching
//! [`kv_service::KvService`] as an open-loop arrival stream at a
//! configurable offered load, then reports throughput, latency quantiles,
//! and shed behaviour.
//!
//! Three runs are performed:
//!
//! 1. **nominal** offered load (80% of service capacity) — twice, and the
//!    final metrics CSVs are compared byte-for-byte (the determinism
//!    check);
//! 2. **overload** at `SERVICE_OVERLOAD` × capacity (default 2×) — demand
//!    beyond capacity must surface as typed `Overloaded`/`Shed` refusals
//!    while every queue stays inside its bound.
//!
//! Environment knobs (all deterministic):
//!
//! * `REPRO_SCALE` / `REPRO_SEED` — the workspace-wide dataset controls;
//! * `SERVICE_SHARDS` — shard count (default 4, power of two);
//! * `SERVICE_RATE` — nominal offered load as a fraction of service
//!   capacity (default 0.8);
//! * `SERVICE_OVERLOAD` — overload multiplier vs capacity (default 2.0);
//! * `SERVICE_CSV=1` — dump the full per-shard CSV snapshots.
//!
//! With `--threads N` (or `SERVICE_THREADS=N`), a host-par differential
//! follows: the nominal run repeats under `Backend::HostPar` at 1, 2, 4, …
//! N threads, and each run's metrics CSV must match the sim run
//! byte-for-byte (exit 1 otherwise). Its 256-request windows make ticks
//! where worker groups and the calling thread's group both run kernels.
//! It reports no wall-clock time (dybench's `svc-open` workload measures
//! that) and registers nothing, so the pinned telemetry snapshot stays
//! byte-identical.

use bench::telemetry::Telemetry;
use bench::{scale, seed};
use dycuckoo::Config;
use gpu_sim::SimContext;
use kv_service::{AdmitError, Backend, KvService, Op, ServiceConfig, Snapshot};
use workloads::stream::{RequestStream, StreamOp};
use workloads::{DatasetSpec, DynamicWorkload};

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&v| v > 0.0)
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Outcome of one load run.
struct RunResult {
    csv: String,
    snapshot: Snapshot,
    ticks: u64,
    offered: u64,
    completed: u64,
    shed_overloaded: u64,
    shed_reads: u64,
    zero_key: u64,
    max_depth: usize,
    p50: u64,
    p99: u64,
    mops: f64,
}

fn run(stream: &RequestStream, svc_cfg: &ServiceConfig, rate: f64, dump_csv: bool) -> RunResult {
    let mut sim = SimContext::new();
    let mut svc = match KvService::new(svc_cfg.clone(), &mut sim) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("service_load: {e}");
            std::process::exit(2);
        }
    };
    let mut offered = 0u64;
    let mut shed_overloaded = 0u64;
    let mut shed_reads = 0u64;
    let mut zero_key = 0u64;

    for slice in stream.paced(rate) {
        for req in slice {
            offered += 1;
            let op = match req.op {
                StreamOp::Insert(k, v) => Op::Put(k, v),
                StreamOp::Find(k) => Op::Get(k),
                StreamOp::Delete(k) => Op::Delete(k),
            };
            match svc.submit(req.client, op) {
                Ok(_) => {}
                Err(AdmitError::Overloaded { .. }) => shed_overloaded += 1,
                Err(AdmitError::Shed { .. }) => shed_reads += 1,
                Err(AdmitError::ZeroKey) => zero_key += 1,
            }
        }
        svc.tick(&mut sim).expect("tick");
    }
    // Drain: keep ticking until every queue is empty (deadline flushes).
    while svc.queue_depths().iter().any(|&d| d > 0) {
        svc.tick(&mut sim).expect("drain tick");
    }

    let snapshot = svc.snapshot();
    let total = snapshot.total.m.clone();
    if dump_csv {
        println!("{}", snapshot.to_csv());
    }
    RunResult {
        csv: snapshot.to_csv(),
        snapshot,
        ticks: svc.clock(),
        offered,
        completed: total.completed,
        shed_overloaded,
        shed_reads,
        zero_key,
        max_depth: total.max_queue_depth,
        p50: total.latency.quantile(0.5),
        p99: total.latency.quantile(0.99),
        mops: total.mops(),
    }
}

fn report(label: &str, r: &RunResult) {
    let shed_total = r.shed_overloaded + r.shed_reads;
    let shed_rate = shed_total as f64 / r.offered.max(1) as f64;
    println!("--- {label} ---");
    println!(
        "  offered        {:>10} requests over {} ticks",
        r.offered, r.ticks
    );
    println!("  completed      {:>10}", r.completed);
    println!(
        "  shed           {:>10}  ({:.2}% of offered: {} overloaded, {} reads shed)",
        shed_total,
        shed_rate * 100.0,
        r.shed_overloaded,
        r.shed_reads
    );
    if r.zero_key > 0 {
        println!("  zero-key       {:>10}", r.zero_key);
    }
    println!("  max queue      {:>10}", r.max_depth);
    println!("  latency ticks        p50 {:>5}   p99 {:>5}", r.p50, r.p99);
    println!(
        "  table throughput {:>10.2} Mops (simulated kernel time)",
        r.mops
    );
}

/// Register one run's per-shard and total counters into the unified
/// registry under `run=<label>` / `shard=<row>` labels.
fn register_run(reg: &mut obs::Registry, run: &str, snap: &Snapshot) {
    for row in snap.shards.iter().chain(std::iter::once(&snap.total)) {
        let shard = row.label.replace(' ', "_");
        row.m.register_into(
            reg,
            &[("figure", "service_load"), ("run", run), ("shard", &shard)],
        );
    }
}

/// `--threads N` from argv, falling back to `SERVICE_THREADS`; 0 means
/// the host-par differential is off (the default).
fn threads_arg() -> usize {
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--threads" {
            match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => return n,
                _ => {
                    eprintln!("service_load: --threads wants a positive count");
                    std::process::exit(2);
                }
            }
        }
    }
    env_usize("SERVICE_THREADS", 0)
}

fn main() {
    let mut tel = Telemetry::from_env();
    let scale = scale();
    let seed = seed();
    let shards = env_usize("SERVICE_SHARDS", 4);
    let threads = threads_arg();
    let nominal_frac = env_f64("SERVICE_RATE", 0.8);
    let overload_mult = env_f64("SERVICE_OVERLOAD", 2.0);
    let dump_csv = std::env::var("SERVICE_CSV").is_ok_and(|v| v == "1");

    // The paper's RAND-like dataset, scaled like every other experiment.
    let spec = DatasetSpec {
        name: "RAND",
        total_pairs: (10_000_000.0 * scale).round() as usize,
        unique_keys: (10_000_000.0 * scale).round() as usize,
        zipf_s: 0.0,
        max_dup: 1,
    };
    let ds = spec.generate(seed);
    let batch = (ds.len() / 10).max(500);
    let workload = DynamicWorkload::build(&ds, batch, 0.2, seed);
    let stream = RequestStream::from_workload(&workload, 64);

    let svc_cfg = ServiceConfig {
        shards,
        table: Config {
            initial_buckets: ((ds.len() / (shards * 4 * 32 * 4)).max(8)) & !1,
            ..Config::default()
        },
        max_batch: 256,
        max_delay_ticks: 4,
        queue_capacity: 1024,
        shed_watermark: 768,
        seed: seed ^ 0x5E44_1CE0,
        ..ServiceConfig::default()
    };
    // Service capacity: one batch per shard per tick.
    let capacity = (shards * svc_cfg.max_batch) as f64;
    let nominal_rate = capacity * nominal_frac;
    let overload_rate = capacity * overload_mult;

    println!(
        "service_load: {} requests, {} shards, capacity {:.0} req/tick (scale={scale}, seed={seed})",
        stream.len(),
        shards,
        capacity
    );

    // Nominal run, twice — determinism check on the rendered metrics.
    let a = run(&stream, &svc_cfg, nominal_rate, dump_csv);
    let b = run(&stream, &svc_cfg, nominal_rate, false);
    report(&format!("nominal ({nominal_frac:.2}x capacity)"), &a);
    if a.csv == b.csv {
        println!("  determinism          PASS (two runs, bit-identical metrics CSV)");
    } else {
        println!("  determinism          FAIL: metrics differ between identical runs");
        std::process::exit(1);
    }

    // Overload run: typed shedding, bounded queues.
    let o = run(&stream, &svc_cfg, overload_rate, dump_csv);
    report(&format!("overload ({overload_mult:.2}x capacity)"), &o);
    register_run(tel.registry(), "nominal", &a.snapshot);
    register_run(tel.registry(), "overload", &o.snapshot);
    tel.finish();
    let bounded = o.max_depth <= svc_cfg.queue_capacity;
    let shed = o.shed_overloaded + o.shed_reads > 0;
    println!(
        "  backpressure         {} (queues {} bound of {}, {} typed refusals)",
        if bounded && shed { "PASS" } else { "FAIL" },
        if bounded { "within" } else { "EXCEEDED" },
        svc_cfg.queue_capacity,
        o.shed_overloaded + o.shed_reads
    );
    if !(bounded && shed) {
        std::process::exit(1);
    }

    // Host-par differential: every thread count must render the sim
    // run's metrics CSV byte-for-byte. Nothing here is registered.
    if threads > 0 {
        println!("--- host-par differential (1..{threads} threads) ---");
        let mut t = 1;
        loop {
            let cfg = ServiceConfig {
                backend: Backend::HostPar { threads: t },
                ..svc_cfg.clone()
            };
            if run(&stream, &cfg, nominal_rate, false).csv != a.csv {
                println!("  threads={t:>2}  FAIL: host-par metrics CSV diverged from the sim run");
                std::process::exit(1);
            }
            println!("  threads={t:>2}  PASS (metrics CSV matches sim)");
            if t >= threads {
                break;
            }
            t = (t * 2).min(threads);
        }
    }
}
