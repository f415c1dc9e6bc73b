//! The metric catalog and the output format.
//!
//! Every metric has one name, unit and better direction here;
//! `BENCHMARK.json` lists the same (a unit test holds the two together),
//! adding the bounds of the end-to-end metrics. An untraced run prints
//! every end-to-end metric, a traced run every per-layer metric; a
//! per-layer metric of a layer the workload does not run prints as 0 with
//! 0 samples.

use std::collections::BTreeMap;

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("lat_p50_us", "us", "lower"),
    ("lat_tail_us", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Metrics of single layers, from the traced run.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("host_par.find_ns_per_key", "ns", "lower"),
    ("host_par.insert_ns_per_key", "ns", "lower"),
    ("host_par.upsert_ns_per_key", "ns", "lower"),
    ("host_par.delete_ns_per_key", "ns", "lower"),
    ("host_par.find_call_us_p99", "us", "lower"),
    ("host_par.lookups_per_op", "ratio", "lower"),
    ("host_par.lock_fail_per_lookup", "ratio", "lower"),
    ("host_par.overflow_frac", "ratio", "lower"),
    ("host_par.evictions_per_insert", "ratio", "lower"),
    ("host_par.grows", "count", "lower"),
    ("host_par.grow_batch_us_p50", "us", "lower"),
    ("host_par.fill", "ratio", "higher"),
    ("host_par.cpu_util", "cores", "higher"),
    ("host_par.speedup_2t", "x", "higher"),
    ("kv_service.submit_ns_p50", "ns", "lower"),
    ("kv_service.submit_ns_p99", "ns", "lower"),
    ("kv_service.tick_flush_us_p50", "us", "lower"),
    ("kv_service.tick_flush_us_p99", "us", "lower"),
    ("kv_service.tick_idle_ns_p50", "ns", "lower"),
    ("kv_service.drain_ns_p50", "ns", "lower"),
    ("kv_service.busy_frac", "ratio", "lower"),
    ("kv_service.batch_fill", "ratio", "higher"),
    ("kv_service.flush_by_size_frac", "ratio", "higher"),
    ("kv_service.coalesced_frac", "ratio", "higher"),
    ("kv_service.queue_wait_us_p50", "us", "lower"),
    ("kv_service.queue_wait_us_p99", "us", "lower"),
    ("kv_service.queue_depth_max", "count", "lower"),
    ("kv_service.resize_stall_batches", "count", "lower"),
    ("kv_service.refused_frac", "ratio", "lower"),
    ("kv_service.refused_frac_at_limit", "ratio", "lower"),
    ("kv_service.max_rate_rps", "1/s", "higher"),
    ("dycuckoo.insert_ns_per_key", "ns", "lower"),
    ("dycuckoo.find_ns_per_key", "ns", "lower"),
    ("dycuckoo.delete_ns_per_key", "ns", "lower"),
    ("dycuckoo.resizes", "count", "lower"),
    ("dycuckoo.retries", "count", "lower"),
    ("dycuckoo.stale_finds", "count", "lower"),
    ("unsized_kv.insert_ns_per_key", "ns", "lower"),
    ("unsized_kv.find_ns_per_key", "ns", "lower"),
    ("unsized_kv.tx_per_op", "tx/op", "lower"),
    ("sim_mops", "Mops", "higher"),
    ("sim_tx_per_op", "tx/op", "lower"),
    ("sim_fill_mean", "ratio", "higher"),
    ("gpu_sim.read_tx_per_op", "tx/op", "lower"),
    ("gpu_sim.write_tx_per_op", "tx/op", "lower"),
    ("gpu_sim.lookups_per_op", "ratio", "lower"),
    ("gpu_sim.evictions_per_insert", "ratio", "lower"),
    ("gpu_sim.rounds", "count", "lower"),
    ("gpu_sim.lock_failures_per_op", "ratio", "lower"),
    ("gpu_sim.kernel_ms", "ms", "lower"),
    ("attr.dycuckoo.insert.tx", "tx", "lower"),
    ("attr.dycuckoo.insert.evict-chain.tx", "tx", "lower"),
    ("attr.dycuckoo.insert.maintenance.resize.tx", "tx", "lower"),
    ("attr.dycuckoo.find.tx", "tx", "lower"),
    ("attr.dycuckoo.delete.tx", "tx", "lower"),
    ("attr.unsized.insert.tx", "tx", "lower"),
    ("attr.unsized.find.tx", "tx", "lower"),
    (
        "attr.unsized.insert.maintenance.migrate.arena-deref.tx",
        "tx",
        "lower",
    ),
    ("loadgen.gen_s", "s", "lower"),
    ("loadgen.lag_p99_us", "us", "lower"),
    ("loadgen.self_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.vol_ctx_switches_per_kop", "count", "lower"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
}

/// Values a workload measured, by catalog name: `(value, samples)`.
#[derive(Debug, Default)]
pub struct Out {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Out {
    /// Record one metric. Names outside the catalog are a bug.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalog"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }
}

/// The run's verdict on correctness and its op counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations the measured phases issued.
    pub attempted: u64,
    /// Of those, Err results and admission refusals.
    pub failed: u64,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The metric lines and the closing result object of one run. Untraced
/// runs report the end-to-end catalog (all of it must be set); traced
/// runs the per-layer catalog.
pub fn render(workload: &str, out: &Out, traced: bool, tally: Tally, correct: bool) -> Vec<String> {
    let (catalog, kind) = if traced {
        (PER_LAYER, "per_layer")
    } else {
        (END_TO_END, "end_to_end")
    };
    let mut lines = Vec::with_capacity(catalog.len() + 1);
    let mut fields = Vec::with_capacity(catalog.len());
    for &(name, unit, _) in catalog {
        let (value, samples) = match out.values.get(name) {
            Some(&v) => v,
            None if traced => (0.0, 0),
            None => panic!("end-to-end metric {name} was not measured"),
        };
        lines.push(format!(
            "{{\"workload\":{},\"metric\":{},\"value\":{value},\"unit\":{},\"kind\":\"{kind}\",\"samples\":{samples}}}",
            json_str(workload),
            json_str(name),
            json_str(unit),
        ));
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    lines.push(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(",")
    ));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(["lower", "higher"].contains(better));
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` at the repository root must describe exactly this
    /// catalog, units and directions included.
    #[test]
    fn benchmark_json_matches_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).unwrap();
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let want: Vec<(String, String, String)> = catalog
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect();
            assert_eq!(listed, want, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    fn render_closes_with_the_result_object() {
        let mut out = Out::default();
        for (name, _, _) in END_TO_END {
            out.set(name, 1.5, 3);
        }
        let tally = Tally {
            attempted: 10,
            failed: 0,
        };
        let lines = render("w", &out, false, tally, true);
        assert_eq!(lines.len(), END_TO_END.len() + 1);
        let last = json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
        let m = last.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.5));
        let first = json::parse(&lines[0]).unwrap();
        assert_eq!(
            first.get("kind").and_then(Value::as_str),
            Some("end_to_end")
        );
        // Traced runs fill per-layer metrics the workload does not touch.
        let traced = render("w", &Out::default(), true, tally, true);
        assert_eq!(traced.len(), PER_LAYER.len() + 1);
    }
}
