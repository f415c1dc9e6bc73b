//! `dybench compare A.jsonl B.jsonl`: two sets of runs, side by side.
//!
//! Each file is the concatenated output of several runs; every metric
//! line (`{"workload":…,"metric":…,"value":…}`) is one sample and other
//! lines are ignored. For each (workload, metric) pair the tool prints
//! both sets' medians and quartiles and a verdict against the bound
//! `BENCHMARK.json` fixes for the metric:
//!
//! * `unresolved` — either set's quartile spread, as a share of its
//!   median, is wider than the bound, so agreement cannot be shown;
//! * `worse` / `better` — B's median is off A's by more than the bound;
//! * `unchanged` — the medians agree within the bound.
//!
//! Per-layer metrics have no bound and are printed without a verdict. The
//! exit status is 1 when any bounded pair is not `unchanged`.

use std::collections::{BTreeMap, HashMap};

use crate::json::{self, Value};
use crate::stats::{median, quartiles};

const USAGE: &str = "usage: dybench compare A.jsonl B.jsonl [--bench BENCHMARK.json]";

type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text.lines().map(str::trim).filter(|l| l.starts_with('{')) {
        let v = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let field = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        if let (Some(w), Some(m), Some(x)) = (
            field("workload"),
            field("metric"),
            v.get("value").and_then(Value::as_f64),
        ) {
            runs.entry((w, m)).or_default().push(x);
        }
    }
    Ok(runs)
}

/// `(better, bound)` per metric name; per-layer metrics have no bound.
fn bounds(path: &str) -> Result<HashMap<String, (String, Option<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = HashMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Value::as_array).unwrap_or(&[]) {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            if let (Some(name), Some(better)) = (name, better) {
                let bound = m.get("bound").and_then(Value::as_f64);
                out.insert(name.to_string(), (better.to_string(), bound));
            }
        }
    }
    Ok(out)
}

/// Median and the quartile spread as a share of it.
fn summary(v: &[f64]) -> (f64, f64, f64, f64) {
    let med = median(v);
    let (q1, q3) = quartiles(v);
    let spread = if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    };
    (med, q1, q3, spread)
}

/// The verdict for one bounded pair. `worse` is B's change against A in
/// the metric's bad direction, as a share of A's median.
pub fn verdict(worse: f64, spread: f64, bound: f64) -> &'static str {
    if spread > bound {
        "unresolved"
    } else if worse > bound {
        "worse"
    } else if -worse > bound {
        "better"
    } else {
        "unchanged"
    }
}

pub fn main(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => match it.next() {
                Some(p) => bench = p.clone(),
                None => {
                    eprintln!("{USAGE}");
                    return 2;
                }
            },
            _ => files.push(a.clone()),
        }
    }
    let [a, b] = files.as_slice() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let (a_runs, b_runs, bounds) = match (load(a), load(b), bounds(&bench)) {
        (Ok(x), Ok(y), Ok(z)) => (x, y, z),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("dybench compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<15} {:<30} {:>34} {:>34} {:>9} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut status = 0;
    let keys: std::collections::BTreeSet<_> = a_runs.keys().chain(b_runs.keys()).collect();
    for key in keys {
        let (workload, metric) = key;
        let (Some(av), Some(bv)) = (a_runs.get(key), b_runs.get(key)) else {
            println!("{workload:<15} {metric:<30} present in only one set");
            status = status.max(u8::from(bounds.get(metric).is_some_and(|b| b.1.is_some())));
            continue;
        };
        if av.len() < 2 || bv.len() < 2 {
            println!("{workload:<15} {metric:<30} fewer than two runs in a set");
            continue;
        }
        let (am, aq1, aq3, aspread) = summary(av);
        let (bm, bq1, bq3, bspread) = summary(bv);
        let change = if am == 0.0 { 0.0 } else { (bm - am) / am.abs() };
        let (better, bound) = bounds
            .get(metric)
            .cloned()
            .unwrap_or_else(|| ("lower".to_string(), None));
        let worse = if better == "higher" { -change } else { change };
        let (bound_text, v) = match bound {
            Some(bound) => {
                let v = verdict(worse, aspread.max(bspread), bound);
                if v != "unchanged" {
                    status = 1;
                }
                (format!("{bound}"), v)
            }
            None => ("-".to_string(), "-"),
        };
        let cell = |m: f64, q1: f64, q3: f64| format!("{m:.6e} [{q1:.4e}, {q3:.4e}]");
        println!(
            "{workload:<15} {metric:<30} {:>34} {:>34} {:>+8.2}% {bound_text:>6}  {v}",
            cell(am, aq1, aq3),
            cell(bm, bq1, bq3),
            change * 100.0,
        );
    }
    i32::from(status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.02, 0.01, 0.1), "unchanged");
        assert_eq!(verdict(0.02, 0.2, 0.1), "unresolved");
        assert_eq!(verdict(0.15, 0.01, 0.1), "worse");
        assert_eq!(verdict(-0.15, 0.01, 0.1), "better");
    }

    #[test]
    fn summary_reports_spread_as_a_share_of_the_median() {
        let (m, q1, q3, spread) = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((m, q1, q3), (3.0, 1.5, 4.5));
        assert_eq!(spread, 1.0);
        assert_eq!(summary(&[0.0, 0.0]).3, 0.0);
    }
}
