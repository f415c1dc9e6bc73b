//! Order statistics: the percentile rule for reported timings, and the
//! median/quartile summary that `compare` applies across runs.

/// A reported tail needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (1-based) of the `q` percentile of `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q` percentile of an ascending-sorted sample: the
/// smallest value with at least a `q` share of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie beyond the `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest of `candidates` (tried in order) that still has
/// [`MIN_BEYOND`] samples beyond it among `n`, or `None` when even the
/// last has fewer.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// The percentile to report as the tail of `n` samples: `q` when it has
/// ten samples beyond it, else the highest of p90/p75/p50 that has (a
/// short run reports a lower tail rather than an unsupported one).
pub fn tail_q(n: usize, q: f64) -> f64 {
    let used = highest_supported(n, &[q, 0.9, 0.75, 0.5]).unwrap_or(0.5);
    if used != q {
        eprintln!(
            "dybench: {n} samples cannot support p{}; reporting p{}",
            q * 100.0,
            used * 100.0
        );
    }
    used
}

/// A set of timing samples (any unit), summarized on demand.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            values: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// Nearest-rank `q` percentile (0 for an empty set).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        percentile(&self.sorted(), q)
    }

    /// The `rank`-th smallest sample (1-based, `1..=len`).
    pub fn nth_smallest(&self, rank: usize) -> f64 {
        self.sorted()[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The samples pushed from index `from` on.
    pub fn since(&self, from: usize) -> Samples {
        Samples {
            values: self.values[from..].to_vec(),
        }
    }
}

/// Timed calls of one kind: their durations, keys and total time.
#[derive(Default)]
pub struct Calls {
    /// Duration of each call, µs.
    pub us: Samples,
    pub keys: u64,
    pub ns: f64,
}

impl Calls {
    pub fn record(&mut self, keys: usize, dt: std::time::Duration) {
        self.us.push(dt.as_secs_f64() * 1e6);
        self.keys += keys as u64;
        self.ns += dt.as_nanos() as f64;
    }

    pub fn keys_per_s(&self) -> f64 {
        self.keys as f64 / self.ns * 1e9
    }

    pub fn ns_per_key(&self) -> f64 {
        self.ns / self.keys.max(1) as f64
    }
}

/// Latencies (µs) of units of work, and how many units were refused. A
/// refused unit counts as slower than any completed one.
#[derive(Default)]
pub struct Lat {
    pub us: Samples,
    pub refused: u64,
}

impl Lat {
    pub fn len(&self) -> usize {
        self.us.len() + self.refused as usize
    }

    /// The `q` percentile, infinite when it lands on a refusal (0 when
    /// there are no samples).
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let r = rank(n, q);
        if r > self.us.len() {
            return f64::INFINITY;
        }
        self.us.nth_smallest(r)
    }

    pub fn absorb(&mut self, other: &Lat) {
        self.us.values.extend_from_slice(&other.us.values);
        self.refused += other.refused;
    }
}

/// One stretch of a measured phase — a second of it, or one repetition
/// of fixed work: the operations its timed calls completed, their time,
/// and the latencies of its units of work.
#[derive(Default)]
pub struct Window {
    pub ops: u64,
    pub ns: f64,
    pub lat: Lat,
}

impl Window {
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.ns * 1e9
    }
}

/// End-to-end readings over the quietest windows of a phase.
///
/// The 2-vCPU hosts this benchmark runs on are shared: other tenants slow
/// it by 10-30 % for seconds to minutes at a time, and such interference
/// only ever makes a window slower. So a run ranks its windows — by
/// throughput, or, where the load is fixed, by the latency percentile
/// being reported — and reports over the fastest: a quarter of them, and
/// more until the pooled samples give the tail percentile ten samples
/// beyond it. What it reports is the program's speed with the least
/// interference the run saw, which repeats far better than the mean.
pub struct Quiet {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    /// Windows used, of the phase's.
    pub windows: u64,
    /// Latency samples pooled from them.
    pub samples: u64,
}

pub fn quiet(windows: &[Window], tail: f64) -> Quiet {
    assert!(
        !windows.is_empty(),
        "a measured phase has at least one window"
    );
    if windows.iter().all(|w| w.ns > 0.0) {
        let (n, ops, ns, lat) = best(windows, tail, |w| -w.rate());
        return Quiet {
            ops_per_s: ops as f64 / ns * 1e9,
            p50_us: lat.quantile(0.5),
            tail_us: lat.quantile(tail_q(lat.len(), tail)),
            windows: n,
            samples: lat.len() as u64,
        };
    }
    // Under a fixed load each latency reading comes from the windows where
    // it was least disturbed.
    let (_, _, _, p50) = best(windows, 0.5, |w| w.lat.quantile(0.5));
    let (n, _, _, lat) = best(windows, tail, |w| w.lat.quantile(tail));
    Quiet {
        ops_per_s: 0.0,
        p50_us: p50.quantile(0.5),
        tail_us: lat.quantile(tail_q(lat.len(), tail)),
        windows: n,
        samples: lat.len() as u64,
    }
}

/// Pool windows in increasing `key` order until a quarter of them are in
/// and the pooled latencies give the `tail` percentile ten samples
/// beyond it (or hold every sample). Returns the windows pooled, their
/// operations, time and latencies.
fn best(windows: &[Window], tail: f64, key: impl Fn(&Window) -> f64) -> (u64, u64, f64, Lat) {
    let mut order: Vec<&Window> = windows.iter().collect();
    order.sort_by(|a, b| key(a).total_cmp(&key(b)));
    let samples: usize = windows.iter().map(|w| w.lat.len()).sum();
    let (mut used, mut ops, mut ns, mut lat) = (0u64, 0u64, 0.0, Lat::default());
    for w in order {
        used += 1;
        ops += w.ops;
        ns += w.ns;
        lat.absorb(&w.lat);
        let tail_ok = beyond(lat.len(), tail) >= MIN_BEYOND || lat.len() == samples;
        if 4 * used as usize >= windows.len() && tail_ok {
            break;
        }
    }
    (used, ops, ns, lat)
}

/// Median as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method), so that spreads
/// printed by `compare` match the acceptance arithmetic exactly. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        (v[(j - 1) as usize] * (4 - delta) as f64 + v[j as usize] * delta as f64) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(
            highest_supported(1000, &[0.999, 0.99, 0.9, 0.5]),
            Some(0.99)
        );
        assert_eq!(highest_supported(999, &[0.999, 0.99, 0.9, 0.5]), Some(0.9));
        assert_eq!(highest_supported(100, &[0.99, 0.9]), Some(0.9));
        assert_eq!(highest_supported(15, &[0.99, 0.9]), None);
        assert_eq!(highest_supported(0, &[0.5]), None);
        assert_eq!(tail_q(1000, 0.99), 0.99);
        assert_eq!(tail_q(200, 0.99), 0.9);
        assert_eq!(tail_q(5, 0.99), 0.5);
    }

    fn window(ops: u64, ns: f64, lat_us: &[f64]) -> Window {
        let mut w = Window {
            ops,
            ns,
            ..Window::default()
        };
        for &v in lat_us {
            w.lat.us.push(v);
        }
        w
    }

    #[test]
    fn quiet_reports_over_the_fastest_quarter_with_enough_tail() {
        // Eight windows; the fastest two (a quarter) hold 20 samples, so a
        // p50 tail is supported by them alone.
        let lat = |v: f64| vec![v; 10];
        let ws: Vec<Window> = (1..=8u64)
            .map(|i| window(i * 100, 1e9, &lat(1000.0 / i as f64)))
            .collect();
        let q = quiet(&ws, 0.5);
        assert_eq!((q.windows, q.samples), (2, 20));
        assert_eq!(q.ops_per_s, 750.0);
        assert_eq!(q.p50_us, 1000.0 / 8.0);
        // A p90 needs 100 samples: it pools all eight windows' 80 and
        // falls back to the highest tail they support.
        let q = quiet(&ws, 0.9);
        assert_eq!((q.windows, q.samples), (8, 80));
        // Windows without a rate rank by tail latency; refusals count as
        // over any limit.
        let mut fixed: Vec<Window> = (1..=4u64).map(|i| window(0, 0.0, &lat(i as f64))).collect();
        fixed[0].lat.refused = 20;
        let q = quiet(&fixed, 0.5);
        assert_eq!((q.windows, q.p50_us), (2, 2.0));
        assert_eq!(q.ops_per_s, 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        let mut s = Samples::default();
        for v in [5.0, 1.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(Samples::default().quantile(0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
