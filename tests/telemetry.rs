//! Tier-1 gates for the observability layer (`crates/obs`).
//!
//! The flight recorder must be a pure observer: arming it may not change
//! a single counter, digest, or rendered metric of any execution
//! (zero-drift), and what it records must agree exactly with the metrics
//! the simulator already keeps (the eviction-chain accounting test).

use bench::fuzz::{gen_ops, run_case, Case, Target};
use dycuckoo::{Config, DyCuckoo};
use gpu_sim::{LayoutConfig, SchedulePolicy, SimContext};
use kv_service::{Backend, KvService, Op, ServiceConfig};
use obs::{Event, OpKind};

fn fuzz_case(target: Target, seed: u64) -> Case {
    Case {
        target,
        policy: SchedulePolicy::from_seed(seed),
        workload_seed: seed,
        inject_lock_elision: false,
        layout: LayoutConfig::default(),
        migration_quantum: usize::MAX,
        tier: kv_service::Tier::Fixed,
        key_dist: workloads::LengthDist::Mixed,
        fingerprint: 0,
        miss_filter: false,
        host_par_threads: 0,
        ops: gen_ops(seed, 96),
    }
}

/// Recording on and recording off must produce bit-identical executions:
/// the digest folds the schedule-sensitive metrics, so any counter the
/// recorder perturbed would change it.
#[test]
fn recording_causes_zero_metric_drift() {
    for target in [Target::DyCuckoo, Target::KvService] {
        for seed in [1u64, 5] {
            let case = fuzz_case(target, seed);
            assert!(!obs::is_enabled());
            let off = run_case(&case).expect("oracle passes with recording off");
            obs::start(1 << 18);
            let on = run_case(&case).expect("oracle passes with recording on");
            let trace = obs::stop();
            assert_eq!(
                off,
                on,
                "recording changed the execution digest for {} seed {seed}",
                case.target.name()
            );
            assert!(
                !trace.events.is_empty(),
                "recording was armed but captured nothing for {}",
                case.target.name()
            );
            assert_eq!(trace.dropped, 0, "ring wrapped during a tiny case");
        }
    }
}

/// The recorded eviction chains must agree exactly with the metrics the
/// simulator keeps: per insert batch, the number of `EvictStep` events and
/// the sum of retired `evict_depth`s both equal the `Metrics::evictions`
/// delta — across eight different schedule policies, with the table forced
/// through heavy eviction/resize traffic from a tiny initial size.
#[test]
fn evict_chain_depth_matches_metrics_across_schedules() {
    for seed in 0..8u64 {
        let schedule = SchedulePolicy::from_seed(seed);
        let mut sim = SimContext::new();
        let mut table = DyCuckoo::new(
            Config {
                initial_buckets: 2,
                seed: 0xDEC0 + seed,
                schedule,
                ..Config::default()
            },
            &mut sim,
        )
        .expect("table");
        let keys: Vec<u32> = (1..=1200u32).collect();
        for chunk in keys.chunks(100) {
            let kvs: Vec<(u32, u32)> = chunk.iter().map(|&k| (k, k ^ 0xABCD)).collect();
            let before = sim.metrics.evictions;
            obs::start(1 << 16);
            table.insert_batch(&mut sim, &kvs).expect("insert");
            let trace = obs::stop();
            let delta = sim.metrics.evictions - before;
            assert_eq!(trace.dropped, 0, "ring wrapped; the counts below would lie");
            let steps = trace
                .events
                .iter()
                .filter(|te| matches!(te.event, Event::EvictStep { .. }))
                .count() as u64;
            let retired_depth: u64 = trace
                .events
                .iter()
                .filter_map(|te| match te.event {
                    Event::OpRetired {
                        kind: OpKind::Insert,
                        evict_depth,
                        ..
                    } => Some(evict_depth as u64),
                    _ => None,
                })
                .sum();
            assert_eq!(
                steps,
                delta,
                "policy {}: EvictStep events disagree with Metrics::evictions",
                schedule.spec()
            );
            assert_eq!(
                retired_depth,
                delta,
                "policy {}: retired chain depths disagree with Metrics::evictions",
                schedule.spec()
            );
        }
        assert_eq!(table.len(), 1200);
    }
}

fn service_csv(backend: Backend, record: bool) -> String {
    let mut sim = SimContext::new();
    let cfg = ServiceConfig {
        shards: 2,
        table: Config {
            initial_buckets: 4,
            seed: 0x5EED,
            ..Config::default()
        },
        max_batch: 8,
        max_delay_ticks: 2,
        queue_capacity: 64,
        shed_watermark: 48,
        seed: 0xCAFE,
        backend,
        ..ServiceConfig::default()
    };
    let mut svc = KvService::new(cfg, &mut sim).expect("service");
    if record {
        obs::start(1 << 16);
    }
    for i in 0..400u32 {
        let op = match i % 3 {
            0 => Op::Put(1 + i % 97, i + 1),
            1 => Op::Get(1 + i % 97),
            _ => Op::Delete(1 + i % 191),
        };
        // Admission may shed under pressure; both runs see identical refusals.
        let _ = svc.submit(i % 5, op);
        if i % 7 == 6 {
            svc.tick(&mut sim).expect("tick");
        }
    }
    svc.flush_all(&mut sim).expect("drain");
    let snapshot = svc.snapshot();
    if record {
        let trace = obs::stop();
        assert_eq!(
            trace.dropped, 0,
            "ring wrapped; the span count below would lie"
        );
        // Every flushed window records exactly one `BatchFlush` span, closed
        // by its own `BatchEnd` — whether the calling thread ran it (span
        // around the kernels) or a worker did (span emitted at apply).
        let span_ids = |opens: bool| {
            let mut ids: Vec<u32> = trace
                .events
                .iter()
                .filter(|te| match te.event {
                    Event::BatchFlush { .. } => opens,
                    Event::BatchEnd { .. } => !opens,
                    _ => false,
                })
                .map(|te| te.span)
                .collect();
            ids.sort_unstable();
            ids
        };
        assert!(snapshot.total.m.batches > 0, "the service flushed nothing");
        let (flushes, ends) = (span_ids(true), span_ids(false));
        assert_eq!(flushes, ends, "{backend:?}: unbalanced flush spans");
        assert_eq!(
            flushes.len() as u64,
            snapshot.total.m.batches,
            "{backend:?}: one flush span per window"
        );
    }
    snapshot.to_csv()
}

/// The service's rendered metrics CSV — the artifact `service_load` pins in
/// CI — must be byte-identical with the recorder armed and disarmed, under
/// either backend, and equal across backends.
#[test]
fn service_metrics_csv_identical_with_recording_on_and_off() {
    let sim_csv = service_csv(Backend::Sim, false);
    for backend in [
        Backend::Sim,
        Backend::HostPar { threads: 1 },
        Backend::HostPar { threads: 2 },
    ] {
        let off = service_csv(backend, false);
        let on = service_csv(backend, true);
        assert_eq!(off, on, "{backend:?}: recording changed the CSV");
        assert_eq!(off, sim_csv, "{backend:?}: CSV differs from Sim's");
    }
}

/// Structural sanity of a real recorded stream: every retired op is
/// attributed to a kernel-launch span whose begin/end events bracket it,
/// and the Chrome export of that stream is balanced.
#[test]
fn spans_bracket_retires_and_chrome_export_balances() {
    let case = fuzz_case(Target::KvService, 3);
    obs::start(1 << 18);
    run_case(&case).expect("oracle passes");
    let trace = obs::stop();

    let mut begins = 0usize;
    let mut ends = 0usize;
    for te in &trace.events {
        if te.event.opens_span() {
            begins += 1;
        }
        if te.event.closes_span() {
            ends += 1;
        }
        if let Event::OpRetired { .. } = te.event {
            let opener = trace
                .events
                .iter()
                .find(|o| o.span == te.span && o.event.opens_span())
                .unwrap_or_else(|| panic!("retire in span {} has no opener", te.span));
            assert!(
                matches!(opener.event, Event::LaunchBegin { .. }),
                "retire attributed to a non-launch span"
            );
            assert!(opener.seq < te.seq, "opener must precede the retire");
        }
    }
    assert_eq!(begins, ends, "span begins and ends must pair off");

    let json = obs::export::chrome_trace(&trace.events);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with('}'));
    let count = |pat: &str| json.matches(pat).count();
    assert_eq!(
        count("\"ph\":\"B\""),
        count("\"ph\":\"E\""),
        "chrome B/E phases must balance"
    );
    assert!(count("\"ph\":\"B\"") >= begins, "every span begin exports");
}

/// One registry unifies both metric families: `gpu_sim::Metrics` and
/// `kv_service::ShardMetrics` land in a single snapshot with one format.
#[test]
fn registry_unifies_sim_and_service_metrics() {
    let case = fuzz_case(Target::DyCuckoo, 2);
    let mut sim = SimContext::new();
    {
        // Any real execution to fill the counters.
        let mut table = DyCuckoo::new(
            Config {
                initial_buckets: 4,
                seed: 7,
                ..Config::default()
            },
            &mut sim,
        )
        .expect("table");
        let kvs: Vec<(u32, u32)> = (1..=300u32).map(|k| (k, k)).collect();
        table.insert_batch(&mut sim, &kvs).expect("insert");
        drop(case);
    }
    let mut reg = obs::Registry::new();
    sim.metrics.register_into(&mut reg, &[("layer", "sim")]);
    let mut shard = kv_service::ShardMetrics {
        submitted: 10,
        completed: 9,
        ..Default::default()
    };
    shard.latency.record(4);
    shard.register_into(&mut reg, &[("layer", "service")]);

    assert_eq!(reg.get_counter("sim_ops", &[("layer", "sim")]), Some(300));
    assert_eq!(
        reg.get_counter("service_submitted", &[("layer", "service")]),
        Some(10)
    );
    let text = reg.to_text();
    assert!(text.contains("sim_evictions{layer=sim}"));
    assert!(text.contains("service_latency_ticks_p50{layer=service}"));
    // One deterministic rendering: text and CSV agree on the entry count.
    let csv = reg.to_csv();
    assert_eq!(text.lines().count(), csv.lines().count() - 1); // CSV has a header
}
