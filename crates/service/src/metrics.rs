//! Service-level observability: per-shard counters, latency histograms,
//! and deterministic text/CSV snapshots.
//!
//! Everything here is integer counters plus sums of deterministic `f64`
//! kernel times, accumulated in a fixed order — so two identical runs
//! produce **bit-identical** snapshots, which the load generator uses as
//! its determinism check.

/// Latency histogram over simulated ticks (linear buckets, clamped tail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// `buckets[t]` counts completions with latency `t` ticks
    /// (latencies ≥ the bucket count land in the last bucket).
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

/// Tracked latency resolution: latencies beyond this clamp into the last
/// bucket (quantiles saturate there; `max` stays exact).
const TRACKED_TICKS: usize = 1024;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; TRACKED_TICKS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Record one completion latency.
    pub fn record(&mut self, ticks: u64) {
        let idx = (ticks as usize).min(TRACKED_TICKS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += ticks;
        self.max = self.max.max(ticks);
    }

    /// Number of recorded completions.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in ticks (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded latency.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (e.g. 0.5, 0.99) in ticks.
    ///
    /// Edge cases are pinned down explicitly:
    /// * empty histogram → 0 for every `q`;
    /// * `q >= 1.0` → the exact maximum (tracked even beyond the bucket
    ///   range);
    /// * `q <= 0.0` (and NaN) → the smallest recorded latency (rank 1);
    /// * a rank landing in the clamped tail bucket reports the exact
    ///   maximum — the only honest statistic available there — rather
    ///   than the bucket's lower bound.
    ///
    /// Every case depends only on `(buckets, count, max)`, all of which
    /// [`LatencyHistogram::merge`] combines losslessly, so quantiles of a
    /// merged histogram equal quantiles of recording into one histogram
    /// (the property test below pins this).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let q = if q.is_finite() && q > 0.0 { q } else { 0.0 };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (t, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if t == TRACKED_TICKS - 1 {
                    self.max
                } else {
                    t as u64
                };
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Counters for one shard (or, merged, for the whole service).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardMetrics {
    /// Requests offered to this shard (admitted + refused).
    pub submitted: u64,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests refused at the hard queue cap.
    pub shed_overloaded: u64,
    /// Reads refused above the shed watermark.
    pub shed_reads: u64,
    /// Requests completed (replied to).
    pub completed: u64,
    /// Flush windows executed.
    pub batches: u64,
    /// Flushes triggered by reaching the batch size.
    pub flush_by_size: u64,
    /// Flushes triggered by the deadline.
    pub flush_by_deadline: u64,
    /// Requests carried by those flushes (occupancy numerator).
    pub batched_requests: u64,
    /// Keys actually probed by find kernels.
    pub table_probes: u64,
    /// KVs actually written by insert kernels.
    pub table_puts: u64,
    /// Keys actually passed to delete kernels.
    pub table_deletes: u64,
    /// Gets answered locally from the coalescing window.
    pub coalesced_local: u64,
    /// Duplicate Gets that shared an already-planned probe.
    pub dedup_saved: u64,
    /// Writes superseded within their window (never reached a kernel).
    pub writes_coalesced: u64,
    /// Structural resizes performed under this shard's batches.
    pub resize_events: u64,
    /// Batches that stalled on structural work (resize or insert retry).
    pub resize_stall_batches: u64,
    /// Upsize-and-retry cycles inside insert kernels.
    pub insert_retries: u64,
    /// Incremental-migration quanta pumped (flush-driven or between flush
    /// windows). Always 0 in the default stop-the-world configuration.
    pub migration_chunks: u64,
    /// KV pairs moved by those quanta.
    pub migration_moved: u64,
    /// Source buckets still to drain (plus pending finalize) at the last
    /// observation, fixed and byte tier combined — a gauge, not a
    /// counter; summed across shards in totals.
    pub migration_backlog: u64,
    /// Byte-tier (unsized) flush windows executed. Always 0 with
    /// `Tier::Fixed` — this is what gates the arena gauges' registration.
    pub byte_batches: u64,
    /// Arena slab pages held by the shard's unsized table at the last
    /// observation (gauge; totals sum to the service-wide footprint).
    pub arena_pages: u64,
    /// Arena bytes referenced by live spill handles (gauge).
    pub arena_live_bytes: u64,
    /// Arena bytes freed but not yet reused — fragmentation (gauge).
    pub arena_frag_bytes: u64,
    /// Gets answered `Value(None)` at submission by the cuckoo-filter
    /// miss shield (never entered the batcher). Always 0 with
    /// `miss_filter_bits: 0` — this gates the filter metrics'
    /// registration.
    pub filter_shed: u64,
    /// Gets the filter let through that the table then missed — filter
    /// false positives (they still received the correct `Value(None)`).
    pub filter_false_pos: u64,
    /// Live keys tracked by the shard's filter at the last flush (gauge;
    /// totals sum across shards).
    pub filter_keys: u64,
    /// Times the shard's filter overflowed and was rebuilt larger.
    pub filter_rebuilds: u64,
    /// Deepest queue observed.
    pub max_queue_depth: usize,
    /// Simulated nanoseconds spent executing this shard's kernels
    /// (batches run back-to-back, so these sum).
    pub service_ns: f64,
    /// Completion latency distribution (ticks).
    pub latency: LatencyHistogram,
}

impl ShardMetrics {
    /// Fold another shard's counters into this one (for service totals).
    pub fn merge(&mut self, other: &ShardMetrics) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.shed_overloaded += other.shed_overloaded;
        self.shed_reads += other.shed_reads;
        self.completed += other.completed;
        self.batches += other.batches;
        self.flush_by_size += other.flush_by_size;
        self.flush_by_deadline += other.flush_by_deadline;
        self.batched_requests += other.batched_requests;
        self.table_probes += other.table_probes;
        self.table_puts += other.table_puts;
        self.table_deletes += other.table_deletes;
        self.coalesced_local += other.coalesced_local;
        self.dedup_saved += other.dedup_saved;
        self.writes_coalesced += other.writes_coalesced;
        self.resize_events += other.resize_events;
        self.resize_stall_batches += other.resize_stall_batches;
        self.insert_retries += other.insert_retries;
        self.migration_chunks += other.migration_chunks;
        self.migration_moved += other.migration_moved;
        self.migration_backlog += other.migration_backlog;
        self.byte_batches += other.byte_batches;
        self.arena_pages += other.arena_pages;
        self.arena_live_bytes += other.arena_live_bytes;
        self.arena_frag_bytes += other.arena_frag_bytes;
        self.filter_shed += other.filter_shed;
        self.filter_false_pos += other.filter_false_pos;
        self.filter_keys += other.filter_keys;
        self.filter_rebuilds += other.filter_rebuilds;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.service_ns += other.service_ns;
        self.latency.merge(&other.latency);
    }

    /// Requests refused for any reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_overloaded + self.shed_reads
    }

    /// Fraction of offered requests refused (0 when nothing offered).
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed_total() as f64 / self.submitted as f64
        }
    }

    /// Mean flush occupancy in requests per batch.
    pub fn avg_batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Completed operations per second of simulated kernel time
    /// (0 when no kernel time has accrued).
    pub fn mops(&self) -> f64 {
        if self.service_ns == 0.0 {
            0.0
        } else {
            self.completed as f64 / self.service_ns * 1e3
        }
    }

    /// Copy every counter (plus the latency histogram's summary stats)
    /// into a unified [`obs::Registry`] under the `service_` namespace
    /// with the given labels. Counters add; the gauges (`max_queue_depth`,
    /// `service_ns`, latency stats) overwrite.
    pub fn register_into(&self, reg: &mut obs::Registry, labels: &[(&str, &str)]) {
        reg.counter("service_submitted", labels, self.submitted);
        reg.counter("service_admitted", labels, self.admitted);
        reg.counter("service_shed_overloaded", labels, self.shed_overloaded);
        reg.counter("service_shed_reads", labels, self.shed_reads);
        reg.counter("service_completed", labels, self.completed);
        reg.counter("service_batches", labels, self.batches);
        reg.counter("service_flush_by_size", labels, self.flush_by_size);
        reg.counter("service_flush_by_deadline", labels, self.flush_by_deadline);
        reg.counter("service_batched_requests", labels, self.batched_requests);
        reg.counter("service_table_probes", labels, self.table_probes);
        reg.counter("service_table_puts", labels, self.table_puts);
        reg.counter("service_table_deletes", labels, self.table_deletes);
        reg.counter("service_coalesced_local", labels, self.coalesced_local);
        reg.counter("service_dedup_saved", labels, self.dedup_saved);
        reg.counter("service_writes_coalesced", labels, self.writes_coalesced);
        reg.counter("service_resize_events", labels, self.resize_events);
        reg.counter(
            "service_resize_stall_batches",
            labels,
            self.resize_stall_batches,
        );
        reg.counter("service_insert_retries", labels, self.insert_retries);
        // Migration metrics appear only once incremental migration has
        // actually run, so registries (and their pinned snapshots) from
        // the default stop-the-world configuration are untouched.
        if self.migration_chunks > 0 || self.migration_backlog > 0 {
            reg.counter("service_migration_chunks", labels, self.migration_chunks);
            reg.counter("service_migration_moved", labels, self.migration_moved);
            reg.gauge(
                "service_migration_backlog",
                labels,
                self.migration_backlog as f64,
            );
        }
        // Likewise, the unsized tier's arena gauges appear only once the
        // byte-op path has flushed a batch, so fixed-tier registries (and
        // every pinned telemetry snapshot) keep their exact historical
        // shape.
        if self.byte_batches > 0 {
            reg.counter("service_byte_batches", labels, self.byte_batches);
            reg.gauge("service_arena_pages", labels, self.arena_pages as f64);
            reg.gauge(
                "service_arena_live_bytes",
                labels,
                self.arena_live_bytes as f64,
            );
            reg.gauge(
                "service_arena_frag_bytes",
                labels,
                self.arena_frag_bytes as f64,
            );
        }
        // Filter metrics appear only once a miss shield has actually done
        // something (shed, passed a false positive, or tracked a key), so
        // filter-off registries keep their exact historical shape.
        if self.filter_shed > 0 || self.filter_false_pos > 0 || self.filter_keys > 0 {
            reg.counter("service_filter_shed", labels, self.filter_shed);
            reg.counter("service_filter_false_pos", labels, self.filter_false_pos);
            reg.counter("service_filter_rebuilds", labels, self.filter_rebuilds);
            reg.gauge("service_filter_keys", labels, self.filter_keys as f64);
        }
        reg.gauge(
            "service_max_queue_depth",
            labels,
            self.max_queue_depth as f64,
        );
        reg.gauge("service_ns", labels, self.service_ns);
        reg.histogram(
            "service_latency_ticks",
            labels,
            obs::HistStats {
                count: self.latency.count(),
                mean: self.latency.mean(),
                p50: self.latency.quantile(0.5),
                p99: self.latency.quantile(0.99),
                max: self.latency.max(),
            },
        );
    }
}

/// Per-shard counters for a whole service.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// One entry per shard.
    pub per_shard: Vec<ShardMetrics>,
}

impl ServiceMetrics {
    /// Create metrics for `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self {
            per_shard: vec![ShardMetrics::default(); shards],
        }
    }

    /// All shards merged.
    pub fn total(&self) -> ShardMetrics {
        let mut t = ShardMetrics::default();
        for s in &self.per_shard {
            t.merge(s);
        }
        t
    }
}

/// One row of a rendered snapshot (a shard, or the service total).
#[derive(Debug, Clone)]
pub struct SnapshotRow {
    /// Row label (`shard N` or `total`).
    pub label: String,
    /// Live keys in the shard's table(s).
    pub keys: u64,
    /// Filled factor θ of the shard's table (total: mean).
    pub fill: f64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// The counters.
    pub m: ShardMetrics,
}

/// A point-in-time rendering of service state, in deterministic text/CSV.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Per-shard rows.
    pub shards: Vec<SnapshotRow>,
    /// Merged totals row.
    pub total: SnapshotRow,
    /// Service clock at snapshot time.
    pub clock: u64,
}

impl Snapshot {
    /// CSV columns shared by [`Snapshot::to_csv`].
    pub const CSV_HEADER: &'static str =
        "shard,keys,fill,queue_depth,max_queue_depth,submitted,admitted,completed,\
         shed_overloaded,shed_reads,batches,flush_by_size,flush_by_deadline,avg_batch_occupancy,\
         table_probes,table_puts,table_deletes,coalesced_local,dedup_saved,writes_coalesced,\
         resize_events,resize_stall_batches,insert_retries,latency_p50,latency_p99,latency_max,\
         latency_mean,service_ns,mops";

    fn csv_row(row: &SnapshotRow) -> String {
        let m = &row.m;
        format!(
            "{},{},{:.6},{},{},{},{},{},{},{},{},{},{},{:.3},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.4}",
            row.label.replace(' ', "_"),
            row.keys,
            row.fill,
            row.queue_depth,
            m.max_queue_depth,
            m.submitted,
            m.admitted,
            m.completed,
            m.shed_overloaded,
            m.shed_reads,
            m.batches,
            m.flush_by_size,
            m.flush_by_deadline,
            m.avg_batch_occupancy(),
            m.table_probes,
            m.table_puts,
            m.table_deletes,
            m.coalesced_local,
            m.dedup_saved,
            m.writes_coalesced,
            m.resize_events,
            m.resize_stall_batches,
            m.insert_retries,
            m.latency.quantile(0.5),
            m.latency.quantile(0.99),
            m.latency.max(),
            m.latency.mean(),
            m.service_ns,
            m.mops(),
        )
    }

    /// Render as CSV (header + one row per shard + a total row).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        out.push('\n');
        for row in &self.shards {
            out.push_str(&Self::csv_row(row));
            out.push('\n');
        }
        out.push_str(&Self::csv_row(&self.total));
        out.push('\n');
        out
    }

    /// Render as an aligned human-readable table.
    pub fn to_text(&self) -> String {
        let header = [
            "shard",
            "keys",
            "fill",
            "queue",
            "submitted",
            "completed",
            "shed",
            "batches",
            "occ",
            "coalesced",
            "resizes",
            "p50",
            "p99",
            "mops",
        ];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for row in self.shards.iter().chain(std::iter::once(&self.total)) {
            let m = &row.m;
            rows.push(vec![
                row.label.clone(),
                row.keys.to_string(),
                format!("{:.3}", row.fill),
                row.queue_depth.to_string(),
                m.submitted.to_string(),
                m.completed.to_string(),
                m.shed_total().to_string(),
                m.batches.to_string(),
                format!("{:.1}", m.avg_batch_occupancy()),
                (m.coalesced_local + m.dedup_saved + m.writes_coalesced).to_string(),
                m.resize_events.to_string(),
                m.latency.quantile(0.5).to_string(),
                m.latency.quantile(0.99).to_string(),
                format!("{:.2}", m.mops()),
            ]);
        }
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for r in &rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("service snapshot @ tick {}\n", self.clock);
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    if i == 0 {
                        format!("{c:<w$}", w = widths[i])
                    } else {
                        format!("{c:>w$}", w = widths[i])
                    }
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        out.push_str(&fmt_row(&header_cells));
        out.push('\n');
        for r in &rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_and_mean() {
        let mut h = LatencyHistogram::default();
        for t in [1u64, 1, 2, 2, 2, 3, 10, 10, 10, 100] {
            h.record(t);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 14.1).abs() < 1e-9);
    }

    #[test]
    fn histogram_clamps_but_keeps_exact_max() {
        let mut h = LatencyHistogram::default();
        h.record(5000);
        assert_eq!(h.max(), 5000);
        // Single clamped sample: the tail bucket reports the exact max
        // for any quantile, not the bucket's lower bound.
        assert_eq!(h.quantile(0.5), 5000);
        assert_eq!(h.quantile(1.0), 5000);
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        // Empty: every quantile is 0.
        let empty = LatencyHistogram::default();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(empty.quantile(q), 0);
        }
        let mut h = LatencyHistogram::default();
        for t in [3u64, 5, 9] {
            h.record(t);
        }
        // q <= 0 (and NaN) degenerate to the minimum recorded latency.
        assert_eq!(h.quantile(0.0), 3);
        assert_eq!(h.quantile(-0.5), 3);
        assert_eq!(h.quantile(f64::NAN), 3);
        // q >= 1 is the exact maximum.
        assert_eq!(h.quantile(1.0), 9);
        assert_eq!(h.quantile(1.5), 9);
        // Single-bucket histogram: every quantile is that bucket.
        let mut single = LatencyHistogram::default();
        for _ in 0..4 {
            single.record(7);
        }
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile(q), 7);
        }
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(1);
        b.record(3);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.quantile(1.0), 3);
    }

    #[test]
    fn register_into_unifies_counters_and_latency() {
        let mut m = ShardMetrics {
            submitted: 10,
            admitted: 8,
            completed: 8,
            max_queue_depth: 5,
            service_ns: 123.5,
            ..ShardMetrics::default()
        };
        m.latency.record(2);
        m.latency.record(4);
        let mut reg = obs::Registry::new();
        let labels = [("shard", "0")];
        m.register_into(&mut reg, &labels);
        // 18 counters + 2 gauges + 5 histogram stats. (The migration
        // metrics only register once incremental migration has run.)
        assert_eq!(reg.len(), 25);
        assert_eq!(reg.get_counter("service_submitted", &labels), Some(10));
        assert_eq!(reg.get_gauge("service_max_queue_depth", &labels), Some(5.0));
        assert_eq!(
            reg.get_counter("service_latency_ticks_count", &labels),
            Some(2)
        );
        assert_eq!(
            reg.get_gauge("service_latency_ticks_max", &labels),
            Some(4.0)
        );
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// `merge` commutes, and quantiles of a merged histogram equal
            /// quantiles of recording every sample into one histogram —
            /// including samples beyond the tracked range (clamped tail).
            #[test]
            fn merge_and_quantile_commute(
                xs in vec(0u64..2048, 0..64),
                ys in vec(0u64..2048, 0..64),
            ) {
                let mut a = LatencyHistogram::default();
                let mut b = LatencyHistogram::default();
                let mut all = LatencyHistogram::default();
                for &x in &xs {
                    a.record(x);
                    all.record(x);
                }
                for &y in &ys {
                    b.record(y);
                    all.record(y);
                }
                let mut ab = a.clone();
                ab.merge(&b);
                let mut ba = b.clone();
                ba.merge(&a);
                prop_assert_eq!(&ab, &ba);
                for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                    prop_assert_eq!(ab.quantile(q), all.quantile(q));
                    prop_assert_eq!(ba.quantile(q), all.quantile(q));
                }
                prop_assert_eq!(ab.count(), all.count());
                prop_assert_eq!(ab.max(), all.max());
                prop_assert_eq!(ab.mean().to_bits(), all.mean().to_bits());
            }
        }
    }

    #[test]
    fn migration_metrics_register_only_when_active() {
        let labels = [("shard", "0")];
        // Idle shard: the registry shape is exactly the pinned 25 entries.
        let idle = ShardMetrics::default();
        let mut reg = obs::Registry::new();
        idle.register_into(&mut reg, &labels);
        assert_eq!(reg.len(), 25);
        assert_eq!(reg.get_counter("service_migration_chunks", &labels), None);
        // A shard that pumped migration quanta grows the registry by 3.
        let active = ShardMetrics {
            migration_chunks: 4,
            migration_moved: 130,
            migration_backlog: 7,
            ..ShardMetrics::default()
        };
        let mut reg = obs::Registry::new();
        active.register_into(&mut reg, &labels);
        assert_eq!(reg.len(), 28);
        assert_eq!(
            reg.get_counter("service_migration_chunks", &labels),
            Some(4)
        );
        assert_eq!(
            reg.get_counter("service_migration_moved", &labels),
            Some(130)
        );
        assert_eq!(
            reg.get_gauge("service_migration_backlog", &labels),
            Some(7.0)
        );
    }

    #[test]
    fn arena_gauges_register_only_when_byte_tier_active() {
        let labels = [("shard", "0")];
        // Fixed tier (no byte batches): exactly the pinned 25 entries.
        let idle = ShardMetrics::default();
        let mut reg = obs::Registry::new();
        idle.register_into(&mut reg, &labels);
        assert_eq!(reg.len(), 25);
        assert_eq!(reg.get_counter("service_byte_batches", &labels), None);
        assert_eq!(reg.get_gauge("service_arena_pages", &labels), None);
        // A shard that flushed byte batches grows the registry by 4.
        let active = ShardMetrics {
            byte_batches: 2,
            arena_pages: 3,
            arena_live_bytes: 900,
            arena_frag_bytes: 60,
            ..ShardMetrics::default()
        };
        let mut reg = obs::Registry::new();
        active.register_into(&mut reg, &labels);
        assert_eq!(reg.len(), 29);
        assert_eq!(reg.get_counter("service_byte_batches", &labels), Some(2));
        assert_eq!(reg.get_gauge("service_arena_pages", &labels), Some(3.0));
        assert_eq!(
            reg.get_gauge("service_arena_live_bytes", &labels),
            Some(900.0)
        );
        assert_eq!(
            reg.get_gauge("service_arena_frag_bytes", &labels),
            Some(60.0)
        );
    }

    #[test]
    fn shard_metrics_rates() {
        let m = ShardMetrics {
            submitted: 100,
            admitted: 80,
            shed_overloaded: 15,
            shed_reads: 5,
            completed: 80,
            batches: 4,
            batched_requests: 80,
            service_ns: 8_000.0,
            ..ShardMetrics::default()
        };
        assert_eq!(m.shed_total(), 20);
        assert!((m.shed_rate() - 0.2).abs() < 1e-12);
        assert!((m.avg_batch_occupancy() - 20.0).abs() < 1e-12);
        assert!((m.mops() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_rendering_is_deterministic() {
        let mut metrics = ServiceMetrics::new(2);
        metrics.per_shard[0].submitted = 10;
        metrics.per_shard[0].completed = 9;
        metrics.per_shard[0].latency.record(2);
        metrics.per_shard[1].submitted = 5;
        let make = || {
            let rows: Vec<SnapshotRow> = metrics
                .per_shard
                .iter()
                .enumerate()
                .map(|(i, m)| SnapshotRow {
                    label: format!("shard {i}"),
                    keys: 7,
                    fill: 0.5,
                    queue_depth: 1,
                    m: m.clone(),
                })
                .collect();
            let total = SnapshotRow {
                label: "total".to_string(),
                keys: 14,
                fill: 0.5,
                queue_depth: 2,
                m: metrics.total(),
            };
            Snapshot {
                shards: rows,
                total,
                clock: 3,
            }
        };
        assert_eq!(make().to_csv(), make().to_csv());
        assert_eq!(make().to_text(), make().to_text());
        let csv = make().to_csv();
        assert_eq!(csv.lines().count(), 4, "header + 2 shards + total");
        assert!(csv.starts_with("shard,keys"));
    }
}
