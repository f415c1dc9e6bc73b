//! The service proper: N sharded [`dycuckoo::DyCuckoo`] instances behind a
//! router, per-shard batching queues, and a simulated-clock tick loop.
//!
//! The lifecycle of a request:
//!
//! 1. [`KvService::submit`] routes the key to a shard and runs admission
//!    control against that shard's queue. Refusals return a typed
//!    [`AdmitError`]; admitted requests enter the shard's FIFO.
//! 2. [`KvService::tick`] advances the simulated clock one step. Each shard
//!    flushes while its queue holds a full batch (`max_batch`), or when its
//!    oldest request has waited `max_delay_ticks` — size-or-deadline
//!    batching on the deterministic clock.
//! 3. A flush compiles its window with [`crate::batcher::plan_flush`],
//!    runs the plan's kernels against the shard's table — a find, an
//!    insert, one upsert wave per position of the longest read-modify-write
//!    chain, then a delete, each only when the plan has keys for it — and
//!    emits [`Completion`]s in submission order.
//! 4. [`KvService::drain_completions`] hands finished requests back.
//!
//! Kernel time is charged per flush in an **isolated metrics window** (the
//! roofline cost model is non-linear, so per-flush ns must be computed on
//! per-flush counters and then summed), after which the window is merged
//! back into the caller's running totals.

use std::collections::{HashMap, VecDeque};

use dycuckoo::hashfn::splitmix64;
use dycuckoo::unsized_kv::MAX_BLOB_LEN;
use dycuckoo::{
    Config, DyCuckoo, MergeRule, UnsizedConfig, UnsizedReport, UnsizedTable, UpsertReport,
};
use gpu_sim::{CostModel, SchedulePolicy, SimContext};

use crate::admission::{AdmissionPolicy, AdmitError};
use crate::batcher::{plan_flush, FlushPlan, PlannedReply};
use crate::filter::MissFilter;
use crate::metrics::{ServiceMetrics, Snapshot, SnapshotRow};
use crate::request::{
    ByteCompletion, ByteOp, BytePending, ByteReply, Completion, Op, Pending, Reply,
};
use crate::router::ShardRouter;

/// Which key/value shape the service's byte-op API serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `u32 → u32` only (the historical shape): byte operations are
    /// refused with [`ServiceError::TierDisabled`] and no unsized state
    /// is allocated, so every fixed-tier code path and snapshot is
    /// byte-identical to a service built before this tier existed.
    Fixed,
    /// Byte-string keys and values via one [`UnsizedTable`] per shard,
    /// alongside (not replacing) the fixed-tier tables.
    Unsized,
}

impl Tier {
    /// CLI / artifact name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Fixed => "fixed",
            Tier::Unsized => "unsized",
        }
    }

    /// Inverse of [`Tier::name`].
    pub fn from_name(name: &str) -> Option<Tier> {
        match name {
            "fixed" => Some(Tier::Fixed),
            "unsized" => Some(Tier::Unsized),
            _ => None,
        }
    }
}

/// Which execution backend runs the shard kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic SIMT simulation: every kernel runs inline on the
    /// calling thread against the caller's [`SimContext`]. The historical
    /// (and default) mode — all pinned snapshots are produced here.
    Sim,
    /// Real OS threads: a flush splits its due shards into contiguous
    /// groups of the visit order, one per full window of work
    /// (`max_batch` requests across the due windows), at most `threads`
    /// and at least one. Every group but the last runs on a scoped worker
    /// thread; the calling thread runs the last group itself, so a tick
    /// with less than two windows' worth of requests spawns nothing. Every
    /// shard's kernels run against a per-shard persistent [`SimContext`]
    /// owned by the service. Replies, completions, service metrics, and
    /// the caller's metric totals are identical to [`Backend::Sim`] by
    /// construction — shards are fully independent and results are applied
    /// in shard-visit order at the join. Device-byte accounting lives in
    /// the per-shard contexts instead of the caller's.
    HostPar {
        /// Threads a flush may run kernels on, the calling thread
        /// included (≥ 1; 1 never spawns).
        threads: usize,
    },
}

impl Backend {
    /// CLI / artifact name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::HostPar { .. } => "host-par",
        }
    }
}

/// Configuration of a [`KvService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards (power of two). Each owns one DyCuckoo instance.
    pub shards: usize,
    /// Per-shard table configuration. Each shard derives its own hash seed
    /// from `table.seed` and its shard index, so shards never share hash
    /// parameters with each other or with the router.
    pub table: Config,
    /// Flush a shard as soon as its queue reaches this many requests.
    pub max_batch: usize,
    /// Flush a shard once its oldest request has waited this many ticks.
    pub max_delay_ticks: u64,
    /// Hard bound on queued requests per shard.
    pub queue_capacity: usize,
    /// Queue depth above which reads are shed.
    pub shed_watermark: usize,
    /// Router seed (independent of the table seeds).
    pub seed: u64,
    /// Source buckets a structural resize may drain per migration quantum
    /// (overrides the embedded table config's `migration_quantum` for
    /// every shard). `usize::MAX` — the default — keeps the historical
    /// stop-the-world resizes; a finite value turns each resize into an
    /// incremental migration pumped once per flush and once per tick, so
    /// no flush window stalls on a whole-subtable rehash.
    pub migration_quantum: usize,
    /// Order in which shards are visited on each tick / drain pass.
    /// Shards are fully independent (disjoint tables, disjoint queues), so
    /// any order must produce identical replies — the exploration harness
    /// sweeps non-fixed orders to prove exactly that. Benchmarks keep the
    /// default fixed order.
    pub flush_order: SchedulePolicy,
    /// Which tier the byte-op API serves. The default [`Tier::Fixed`]
    /// allocates no unsized state and leaves the `u32` pipeline untouched.
    pub tier: Tier,
    /// Per-shard unsized-table configuration (used only when `tier` is
    /// [`Tier::Unsized`]). Each shard derives its own seed from this one,
    /// and [`ServiceConfig::migration_quantum`] overrides the embedded
    /// quantum exactly as it does for the fixed tables.
    pub unsized_table: UnsizedConfig,
    /// Fingerprint width of the per-shard cuckoo-filter miss shield: 0
    /// (the default) allocates no filter and leaves every submit/flush
    /// path byte-identical to a service built before the shield existed;
    /// 8 or 16 sheds provably-absent `Get`s at submission time (see
    /// [`crate::filter::MissFilter`]).
    pub miss_filter_bits: u8,
    /// Which execution backend runs the shard kernels. The default
    /// [`Backend::Sim`] keeps every code path (and pinned snapshot)
    /// byte-identical to a service built before the host-par backend
    /// existed.
    pub backend: Backend,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            table: Config::default(),
            max_batch: 256,
            max_delay_ticks: 4,
            queue_capacity: 1024,
            shed_watermark: 768,
            seed: 0x5E1C_E000,
            migration_quantum: usize::MAX,
            flush_order: SchedulePolicy::FixedOrder,
            tier: Tier::Fixed,
            unsized_table: UnsizedConfig::default(),
            miss_filter_bits: 0,
            backend: Backend::Sim,
        }
    }
}

impl ServiceConfig {
    /// Validate the composite configuration.
    pub fn validate(&self) -> Result<(), ServiceError> {
        self.table.validate().map_err(ServiceError::Table)?;
        if self.tier == Tier::Unsized {
            self.unsized_table.validate()?;
        }
        if self.max_batch == 0 {
            return Err(ServiceError::InvalidConfig(
                "max_batch must be positive".to_string(),
            ));
        }
        if self.max_batch > self.queue_capacity {
            return Err(ServiceError::InvalidConfig(format!(
                "max_batch ({}) cannot exceed queue_capacity ({})",
                self.max_batch, self.queue_capacity
            )));
        }
        if matches!(self.backend, Backend::HostPar { threads: 0 }) {
            return Err(ServiceError::InvalidConfig(
                "Backend::HostPar needs at least one worker thread".to_string(),
            ));
        }
        if !matches!(self.miss_filter_bits, 0 | 8 | 16) {
            return Err(ServiceError::InvalidConfig(format!(
                "miss_filter_bits must be 0, 8, or 16 (got {})",
                self.miss_filter_bits
            )));
        }
        self.admission()
            .validate()
            .map_err(ServiceError::InvalidConfig)?;
        // Shard-count validation happens in ShardRouter::new.
        ShardRouter::new(self.shards, self.seed).map_err(ServiceError::InvalidConfig)?;
        Ok(())
    }

    fn admission(&self) -> AdmissionPolicy {
        AdmissionPolicy {
            queue_capacity: self.queue_capacity,
            shed_watermark: self.shed_watermark,
        }
    }
}

/// Service-level failures (admission refusals are [`AdmitError`] instead).
#[derive(Debug)]
pub enum ServiceError {
    /// The configuration cannot work.
    InvalidConfig(String),
    /// An underlying table operation failed.
    Table(dycuckoo::Error),
    /// A byte-tier admission refusal (the fixed-tier [`KvService::submit`]
    /// returns the inner [`AdmitError`] directly).
    Admit(AdmitError),
    /// A byte operation reached a service built with [`Tier::Fixed`].
    TierDisabled,
    /// A submitted key or value exceeds the unsized tier's blob bound
    /// (checked at submission so a flush can never fail on user data).
    OversizedBlob {
        /// The offending blob's length.
        len: usize,
        /// The bound it exceeded.
        max: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidConfig(msg) => write!(f, "invalid service config: {msg}"),
            ServiceError::Table(e) => write!(f, "table error: {e}"),
            ServiceError::Admit(e) => write!(f, "byte-tier admission refused: {e}"),
            ServiceError::TierDisabled => {
                write!(
                    f,
                    "byte operations require ServiceConfig::tier = Tier::Unsized"
                )
            }
            ServiceError::OversizedBlob { len, max } => {
                write!(
                    f,
                    "blob of {len} bytes exceeds the unsized tier's bound of {max}"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<dycuckoo::Error> for ServiceError {
    fn from(e: dycuckoo::Error) -> Self {
        ServiceError::Table(e)
    }
}

/// One shard: an independent table plus its request queue (and, when the
/// unsized tier is enabled, an independent byte-string table and queue).
struct Shard {
    table: DyCuckoo,
    queue: VecDeque<Pending>,
    /// Byte-tier table — `None` unless `tier: Tier::Unsized`.
    unsized_table: Option<UnsizedTable>,
    /// Byte-tier queue, flushed by the same size-or-deadline rule.
    byte_queue: VecDeque<BytePending>,
    /// Cuckoo-filter miss shield — `None` unless `miss_filter_bits > 0`.
    filter: Option<MissFilter>,
}

/// A sharded, batching KV service over DyCuckoo tables.
pub struct KvService {
    cfg: ServiceConfig,
    router: ShardRouter,
    admission: AdmissionPolicy,
    shards: Vec<Shard>,
    /// Per-shard kernel contexts — empty under [`Backend::Sim`] (the
    /// caller's context runs everything), one per shard under
    /// [`Backend::HostPar`] so workers execute kernels without sharing
    /// the caller's `SimContext` (the calling thread uses them too).
    /// Device-byte accounting for the shard's tables lives here in
    /// host-par mode.
    shard_sims: Vec<SimContext>,
    completions: VecDeque<Completion>,
    byte_completions: VecDeque<ByteCompletion>,
    metrics: ServiceMetrics,
    clock: u64,
    next_id: u64,
}

impl KvService {
    /// Build the service: one DyCuckoo instance per shard, each with a
    /// distinct hash seed derived from the table seed and shard index.
    pub fn new(cfg: ServiceConfig, sim: &mut SimContext) -> Result<Self, ServiceError> {
        cfg.validate()?;
        let router = ShardRouter::new(cfg.shards, cfg.seed).map_err(ServiceError::InvalidConfig)?;
        // Host-par shards allocate on their own persistent contexts (same
        // device model as the caller's) so worker threads never touch the
        // caller's SimContext.
        let mut shard_sims: Vec<SimContext> = match cfg.backend {
            Backend::Sim => Vec::new(),
            Backend::HostPar { .. } => (0..cfg.shards)
                .map(|_| SimContext::with_config(*sim.device.config()))
                .collect(),
        };
        let mut shards = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let build_sim = kernel_sim(&mut shard_sims, i, sim);
            let table_cfg = Config {
                seed: splitmix64(cfg.table.seed.wrapping_add(i as u64)),
                migration_quantum: cfg.migration_quantum,
                ..cfg.table
            };
            let unsized_table = match cfg.tier {
                Tier::Fixed => None,
                Tier::Unsized => {
                    let ucfg = UnsizedConfig {
                        seed: splitmix64(cfg.unsized_table.seed ^ (0x5B17_E000 + i as u64)),
                        migration_quantum: cfg.migration_quantum,
                        ..cfg.unsized_table
                    };
                    Some(UnsizedTable::new(ucfg, build_sim)?)
                }
            };
            let filter = (cfg.miss_filter_bits > 0).then(|| {
                MissFilter::new(
                    cfg.miss_filter_bits,
                    splitmix64(cfg.seed ^ (0xF117_E000 + i as u64)),
                )
            });
            shards.push(Shard {
                table: DyCuckoo::new(table_cfg, build_sim)?,
                queue: VecDeque::new(),
                unsized_table,
                byte_queue: VecDeque::new(),
                filter,
            });
        }
        let metrics = ServiceMetrics::new(cfg.shards);
        let admission = cfg.admission();
        Ok(Self {
            cfg,
            router,
            admission,
            shards,
            shard_sims,
            completions: VecDeque::new(),
            byte_completions: VecDeque::new(),
            metrics,
            clock: 0,
            next_id: 0,
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The key router (exposed so tests and load generators can place keys).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Current simulated tick.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Submit one operation on behalf of `client`. Returns the request id,
    /// or a typed admission refusal (the queue is never grown past its
    /// bound). Refusals are counted per shard.
    pub fn submit(&mut self, client: u32, op: Op) -> Result<u64, AdmitError> {
        let shard = self.router.shard_of(op.key());
        let depth = self.shards[shard].queue.len();
        let id = self.admit_request(shard, depth, self.admission.admit(shard, depth, &op))?;
        let m = &mut self.metrics.per_shard[shard];
        // Miss shield: a Get whose key the filter provably excludes — and
        // for which no write is queued in this shard's window (those are
        // the coalescer's to answer) — completes right now with
        // `Value(None)`, never entering the batcher. A filter *hit* proves
        // nothing and flows through to the table unchanged.
        if let (&Op::Get(key), Some(filter)) = (&op, self.shards[shard].filter.as_ref()) {
            let write_pending = self.shards[shard]
                .queue
                .iter()
                .any(|p| p.op.key() == key && !p.op.is_read());
            if !write_pending && !filter.may_contain(key) {
                m.completed += 1;
                m.filter_shed += 1;
                m.latency.record(0);
                if obs::is_enabled() {
                    obs::emit(obs::Event::FilterShed {
                        shard: shard as u32,
                        key,
                    });
                }
                self.completions.push_back(Completion {
                    id,
                    client,
                    key,
                    reply: Reply::Value(None),
                    submitted_tick: self.clock,
                    completed_tick: self.clock,
                    coalesced: false,
                });
                return Ok(id);
            }
        }
        self.shards[shard].queue.push_back(Pending {
            id,
            client,
            op,
            submitted_tick: self.clock,
        });
        m.max_queue_depth = m.max_queue_depth.max(depth + 1);
        Ok(id)
    }

    /// Submit one byte-string operation on behalf of `client`. Requires
    /// `tier: Tier::Unsized`. Blob lengths are validated here so a flush
    /// can never fail on user data; admission runs against the shard's
    /// byte queue with the same bounds as the fixed path, and refusals
    /// are counted into the same shed metrics.
    pub fn submit_bytes(&mut self, client: u32, op: ByteOp) -> Result<u64, ServiceError> {
        if self.cfg.tier != Tier::Unsized {
            return Err(ServiceError::TierDisabled);
        }
        let longest = match &op {
            ByteOp::Put(k, v) => k.len().max(v.len()),
            ByteOp::Get(k) | ByteOp::Delete(k) => k.len(),
        };
        if longest > MAX_BLOB_LEN {
            return Err(ServiceError::OversizedBlob {
                len: longest,
                max: MAX_BLOB_LEN,
            });
        }
        let shard = self.router.shard_of_bytes(op.key());
        let depth = self.shards[shard].byte_queue.len();
        let admitted = self.admission.admit_depth(shard, depth, op.is_read());
        let id = self
            .admit_request(shard, depth, admitted)
            .map_err(ServiceError::Admit)?;
        self.shards[shard].byte_queue.push_back(BytePending {
            id,
            client,
            op,
            submitted_tick: self.clock,
        });
        let m = &mut self.metrics.per_shard[shard];
        m.max_queue_depth = m.max_queue_depth.max(depth + 1);
        Ok(id)
    }

    /// Count one submission to `shard` (queue depth `depth`) with its
    /// admission verdict: an admitted request takes the next request id; a
    /// refusal counts the shed that caused it (a zero key is refused
    /// without counting as shed).
    fn admit_request(
        &mut self,
        shard: usize,
        depth: usize,
        admitted: Result<(), AdmitError>,
    ) -> Result<u64, AdmitError> {
        let m = &mut self.metrics.per_shard[shard];
        m.submitted += 1;
        let Err(e) = admitted else {
            m.admitted += 1;
            self.next_id += 1;
            return Ok(self.next_id - 1);
        };
        match e {
            AdmitError::Overloaded { .. } => m.shed_overloaded += 1,
            AdmitError::Shed { .. } => m.shed_reads += 1,
            AdmitError::ZeroKey => return Err(e),
        }
        if obs::is_enabled() {
            obs::emit(obs::Event::Shed {
                shard: shard as u32,
                depth: depth as u32,
                hard: matches!(e, AdmitError::Overloaded { .. }),
            });
        }
        Err(e)
    }

    /// Backpressure signal in `[0, 1]` for the shard owning `key`.
    pub fn pressure_for(&self, key: u32) -> f64 {
        let shard = self.router.shard_of(key);
        self.admission.pressure(self.shards[shard].queue.len())
    }

    /// Current queue depth of every shard.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.queue.len()).collect()
    }

    /// Current byte-queue depth of every shard (all zero with `Tier::Fixed`).
    pub fn byte_queue_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.byte_queue.len()).collect()
    }

    /// Advance the simulated clock one tick, flushing **at most one batch
    /// per shard and tier**: a shard flushes when its queue holds a full
    /// batch or its oldest request hit the deadline. One-batch-per-tick is
    /// the service's capacity model — sustained offered load beyond
    /// `shards × max_batch` requests per tick builds queues until
    /// admission control sheds, instead of being absorbed instantly.
    /// Returns the number of requests completed this tick.
    pub fn tick(&mut self, sim: &mut SimContext) -> Result<usize, ServiceError> {
        self.clock += 1;
        obs::set_clock(self.clock);
        // Queues cannot change mid-tick, so the due sets are fixed up front.
        let due = self.due_shards(false);
        let mut completed = self.flush_windows(&due, false, sim)?;
        for shard in self.due_shards(true) {
            completed += self.flush_bytes(shard, sim)?;
        }
        self.pump_migrations(sim)?;
        Ok(completed)
    }

    /// The shards whose fixed-tier (or, with `bytes`, byte-tier) queue is
    /// due this tick, in visit order, each counted as one batch flushed by
    /// size or by deadline.
    fn due_shards(&mut self, bytes: bool) -> Vec<usize> {
        if bytes && self.cfg.tier != Tier::Unsized {
            return Vec::new();
        }
        let mut due = Vec::new();
        for shard in self.shard_visit_order() {
            let s = &self.shards[shard];
            let (len, oldest) = if bytes {
                let front = s.byte_queue.front().map(|p| p.submitted_tick);
                (s.byte_queue.len(), front)
            } else {
                (s.queue.len(), s.queue.front().map(|p| p.submitted_tick))
            };
            let by_size = len >= self.cfg.max_batch;
            if by_size || oldest.is_some_and(|t| self.clock - t >= self.cfg.max_delay_ticks) {
                self.count_batches(shard, 1, by_size, bytes);
                due.push(shard);
            }
        }
        due
    }

    /// Count `n` flush windows of one tier on `shard`.
    fn count_batches(&mut self, shard: usize, n: u64, by_size: bool, bytes: bool) {
        let m = &mut self.metrics.per_shard[shard];
        m.batches += n;
        if bytes {
            m.byte_batches += n;
        }
        if by_size {
            m.flush_by_size += n;
        } else {
            m.flush_by_deadline += n;
        }
    }

    /// Pump one migration quantum per tier on every shard with a resize
    /// in flight, so backlogs drain even on shards whose queues have gone
    /// idle. Each pump is charged on an isolated metrics window like a
    /// flush. A no-op in stop-the-world mode (nothing is ever left in
    /// flight).
    fn pump_migrations(&mut self, sim: &mut SimContext) -> Result<(), ServiceError> {
        for shard in 0..self.shards.len() {
            for bytes in [false, true] {
                let s = &self.shards[shard];
                let in_flight = if bytes {
                    s.unsized_table
                        .as_ref()
                        .is_some_and(UnsizedTable::migration_in_flight)
                } else {
                    s.table.migration_in_flight()
                };
                if !in_flight {
                    continue;
                }
                // Returns (entries moved, resize events retired).
                let pump = |s: &mut Shard, ksim: &mut SimContext| -> Result<_, ServiceError> {
                    match s.unsized_table.as_mut() {
                        Some(t) if bytes => Ok((t.pump_migration(ksim)?.migrated_kvs, 0)),
                        _ => {
                            let mut report = dycuckoo::BatchReport::default();
                            s.table.migrate_quantum(ksim, &mut report)?;
                            Ok((report.migrated_kvs, report.resizes.len() as u64))
                        }
                    }
                };
                let (outcome, pump_ns) = self.run_isolated(shard, sim, pump);
                let (moved, resizes) = outcome?;
                let m = &mut self.metrics.per_shard[shard];
                m.service_ns += pump_ns;
                m.migration_chunks += 1;
                m.migration_moved += moved;
                m.resize_events += resizes;
                self.refresh_gauges(shard, bytes);
            }
        }
        Ok(())
    }

    /// Flush every shard's remaining queues regardless of size or deadline
    /// (end-of-run drain), each window counted as a deadline flush.
    /// Advances the clock one tick.
    pub fn flush_all(&mut self, sim: &mut SimContext) -> Result<usize, ServiceError> {
        self.clock += 1;
        obs::set_clock(self.clock);
        let order = self.shard_visit_order();
        let mut due = Vec::new();
        for &shard in &order {
            let windows = self.shards[shard].queue.len().div_ceil(self.cfg.max_batch);
            if windows > 0 {
                self.count_batches(shard, windows as u64, false, false);
                due.push(shard);
            }
        }
        let mut completed = self.flush_windows(&due, true, sim)?;
        for shard in order {
            while !self.shards[shard].byte_queue.is_empty() {
                self.count_batches(shard, 1, false, true);
                completed += self.flush_bytes(shard, sim)?;
            }
        }
        Ok(completed)
    }

    /// The shard visitation order for this tick, per the configured
    /// [`ServiceConfig::flush_order`] (salted with the clock so successive
    /// ticks explore different permutations).
    fn shard_visit_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.shards.len()).collect();
        self.cfg
            .flush_order
            .order_round(self.clock, &mut order, &[]);
        order
    }

    /// The fixed-tier flush executor, shared by every backend, in three
    /// steps:
    ///
    /// 1. **prepare** — drain and compile one window per due shard (with
    ///    `drain_all`, every window until the queue is empty);
    /// 2. **run** — execute each window's kernels through
    ///    [`KvService::run_flush_groups`]: the due shards split into
    ///    [`flush_groups`] contiguous groups, every group but the last on a
    ///    scoped worker thread, the last inline on the calling thread
    ///    inside each window's attribution scope and span (under
    ///    [`Backend::Sim`] that is every window);
    /// 3. **apply** — fold each result in through
    ///    [`KvService::apply_flush`], in visit order.
    ///
    /// Replies, completions, per-shard metrics, spans, attribution and the
    /// caller's metric totals are therefore identical whichever backend
    /// and thread ran the kernels.
    fn flush_windows(
        &mut self,
        due: &[usize],
        drain_all: bool,
        sim: &mut SimContext,
    ) -> Result<usize, ServiceError> {
        if due.is_empty() {
            return Ok(0);
        }
        let mut prepped: Vec<(usize, Vec<PreparedWindow>)> = Vec::with_capacity(due.len());
        for &shard in due {
            let queue = &mut self.shards[shard].queue;
            let mut windows = Vec::new();
            loop {
                let window_len = queue.len().min(self.cfg.max_batch);
                let window: Vec<Pending> = queue.drain(..window_len).collect();
                let plan = plan_flush(&window);
                windows.push(PreparedWindow { window, plan });
                if !drain_all || queue.is_empty() {
                    break;
                }
            }
            prepped.push((shard, windows));
        }
        let results = self.run_flush_groups(&prepped, sim);
        let mut completed = 0;
        for ((shard, windows), shard_results) in prepped.into_iter().zip(results) {
            for (w, r) in windows.into_iter().zip(shard_results) {
                completed += self.apply_flush(shard, w, r, sim)?;
            }
        }
        Ok(completed)
    }

    /// The run step of [`KvService::flush_windows`], one for both
    /// backends: every due shard's windows run in order, the shards split
    /// into [`flush_groups`] contiguous groups of the visit order. Every
    /// group but the last runs on a scoped worker thread against its
    /// shards' own contexts, collecting attribution with `profile`; the
    /// calling thread runs the last group the way [`Backend::Sim`] runs
    /// every window (see [`run_in_place`]). Results come back in visit
    /// order.
    fn run_flush_groups(
        &mut self,
        prepped: &[(usize, Vec<PreparedWindow>)],
        sim: &mut SimContext,
    ) -> Vec<Vec<FlushKernelResult>> {
        let requests = prepped
            .iter()
            .flat_map(|(_, windows)| windows)
            .map(|w| w.window.len())
            .sum();
        let n_groups = flush_groups(self.cfg.backend, requests, self.cfg.max_batch);
        let mut groups = prepped.chunks(prepped.len().div_ceil(n_groups).max(1));
        let caller_group = groups.next_back().unwrap_or_default();
        let profile = obs::attr::is_enabled();
        // Hand out exclusive &mut access to each shard's table and own
        // context; `take` makes aliasing impossible by construction.
        let mut tables: Vec<Option<&mut DyCuckoo>> =
            self.shards.iter_mut().map(|s| Some(&mut s.table)).collect();
        let mut ksims: Vec<Option<&mut SimContext>> =
            self.shard_sims.iter_mut().map(Some).collect();
        let mut take = |shard: usize| {
            let table = tables[shard].take().expect("duplicate shard in flush");
            (table, ksims.get_mut(shard).and_then(Option::take))
        };
        std::thread::scope(|scope| {
            let workers: Vec<_> = groups
                .map(|group| {
                    let work: Vec<_> = group
                        .iter()
                        .map(|(shard, windows)| {
                            let (table, ksim) = take(*shard);
                            let ksim = ksim.expect("worker groups only run under HostPar");
                            (table, ksim, windows)
                        })
                        .collect();
                    scope.spawn(move || {
                        work.into_iter()
                            .map(|(table, ksim, windows)| {
                                let run = |w| run_on_worker(table, ksim, w, profile);
                                windows.iter().map(run).collect::<Vec<_>>()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let inline: Vec<Vec<FlushKernelResult>> = caller_group
                .iter()
                .map(|(shard, windows)| {
                    let (table, ksim) = take(*shard);
                    // As in `kernel_sim`: Sim shards have no context of
                    // their own and run on the caller's.
                    let ksim = ksim.unwrap_or(&mut *sim);
                    windows
                        .iter()
                        .map(|w| run_in_place(*shard, table, ksim, w))
                        .collect()
                })
                .collect();
            let mut results: Vec<Vec<FlushKernelResult>> = workers
                .into_iter()
                .flat_map(|h| h.join().expect("host-par flush worker panicked"))
                .collect();
            results.extend(inline);
            results
        })
    }

    /// The apply step of [`KvService::flush_windows`] for one window, on
    /// the coordinator in visit order: metric merge, attribution, span,
    /// per-shard metrics, completions and filter replay. Every fixed-tier
    /// window ends here.
    fn apply_flush(
        &mut self,
        shard: usize,
        w: PreparedWindow,
        r: FlushKernelResult,
        sim: &mut SimContext,
    ) -> Result<usize, ServiceError> {
        // The caller's running totals receive the window's isolated
        // counters.
        sim.metrics.merge(&r.window_metrics);
        let _attr = flush_scope(shard);
        // An inline run already charged its scope and recorded its span in
        // place; a worker's window owes both here.
        if let Some(attr) = &r.worker_attr {
            // Worker-side kernel charges re-root under this flush's scope,
            // so attribution paths match an inline run's.
            obs::attr::absorb(attr);
            // Workers cannot reach the thread-local recorder, so the span
            // is emitted here; begin and end are adjacent because the
            // kernel time already passed.
            w.span_begin(shard);
            span_end(w.window.len(), r.outcome.is_ok());
        }
        let (found, ins, ups, del) = r.outcome?;
        let PreparedWindow { window, plan } = w;

        let m = &mut self.metrics.per_shard[shard];
        m.batched_requests += window.len() as u64;
        m.table_probes += plan.probes.len() as u64;
        // RMW keys are table writes too: fold them into the put count so
        // the existing CSV/report schema covers aggregation workloads.
        m.table_puts += (plan.puts.len() + plan.rmws.len()) as u64;
        m.table_deletes += plan.deletes.len() as u64;
        m.coalesced_local += plan.coalesced_local;
        m.dedup_saved += plan.dedup_saved;
        m.writes_coalesced += plan.writes_coalesced;
        m.service_ns += r.flush_ns;
        for report in [&ins, &del]
            .into_iter()
            .flatten()
            .chain(ups.iter().map(|u| &u.batch))
        {
            m.resize_events += report.resizes.len() as u64;
            m.insert_retries += report.retries as u64;
            if report.resize_stall() {
                m.resize_stall_batches += 1;
            }
            m.migration_moved += report.migrated_kvs;
            if report.migrated_buckets > 0 {
                m.migration_chunks += 1;
            }
        }

        let filter_on = self.shards[shard].filter.is_some();
        let completed_tick = self.clock;
        for (req, planned) in window.iter().zip(&plan.replies) {
            let (reply, coalesced) = match planned {
                PlannedReply::FromTable(idx) => {
                    // A Get only reaches the find kernel past the shield,
                    // so a table miss here is a filter false positive.
                    if filter_on && found[*idx].is_none() {
                        m.filter_false_pos += 1;
                    }
                    (Reply::Value(found[*idx]), false)
                }
                PlannedReply::FromTableRmw(idx, chain) => {
                    // Probe saw the pre-window value; the pending merges
                    // land after it in kernel order, so apply them here.
                    // (Not a false-positive site: pending writes forced
                    // this key past the shield legitimately.)
                    (
                        Reply::Value(MergeRule::apply_chain(chain, found[*idx])),
                        false,
                    )
                }
                PlannedReply::Local(v) => (Reply::Value(*v), true),
                PlannedReply::Stored => (Reply::Stored, false),
                PlannedReply::Deleted => (Reply::Deleted, false),
                PlannedReply::Merged => (Reply::Merged, false),
            };
            m.completed += 1;
            m.latency.record(completed_tick - req.submitted_tick);
            self.completions.push_back(Completion {
                id: req.id,
                client: req.client,
                key: req.op.key(),
                reply,
                submitted_tick: req.submitted_tick,
                completed_tick,
                coalesced,
            });
        }
        if let Some(filter) = self.shards[shard].filter.as_mut() {
            // The kernels have committed this window. Replay its writes in
            // submission order (last write wins, matching the planner's
            // coalescing) so the shield tracks the table's live-key set.
            for req in &window {
                match req.op {
                    Op::Put(k, _) => filter.insert(k),
                    Op::Delete(k) => filter.remove(k),
                    // An upsert guarantees the key exists afterwards
                    // (absent keys materialize the rule's initial value).
                    Op::Upsert(k, _, _) | Op::Increment(k) => filter.insert(k),
                    Op::Get(_) => {}
                }
            }
            m.filter_keys = filter.keys();
            m.filter_rebuilds = filter.rebuilds();
        }
        self.refresh_gauges(shard, false);
        Ok(window.len())
    }

    /// Execute one byte-tier flush window for `shard`: compile it with
    /// [`plan_byte_window`], run the plan's kernels on the shard's kernel
    /// context (the coordinator's thread under either backend), and emit
    /// completions in submission order.
    fn flush_bytes(&mut self, shard: usize, sim: &mut SimContext) -> Result<usize, ServiceError> {
        let window_len = self.shards[shard].byte_queue.len().min(self.cfg.max_batch);
        let window: Vec<BytePending> = self.shards[shard].byte_queue.drain(..window_len).collect();
        let plan = plan_byte_window(&window);
        let _attr = flush_scope(shard);
        span_begin(
            shard,
            window_len,
            plan.probes,
            plan.puts,
            plan.deletes,
            plan.coalesced,
        );
        let (outcome, flush_ns) = self.run_isolated(shard, sim, |s, ksim| {
            let table = s
                .unsized_table
                .as_mut()
                .expect("byte flush requires the unsized tier");
            run_byte_plan(table, ksim, &plan)
        });
        span_end(window_len, outcome.is_ok());
        let (replies, report) = outcome?;

        let m = &mut self.metrics.per_shard[shard];
        m.batched_requests += window_len as u64;
        m.table_probes += plan.probes as u64;
        m.table_puts += plan.puts as u64;
        m.table_deletes += plan.deletes as u64;
        m.writes_coalesced += plan.coalesced;
        m.service_ns += flush_ns;
        m.resize_events += report.resizes;
        m.insert_retries += report.retries;
        m.migration_moved += report.migrated_kvs;
        if report.migrated_buckets > 0 {
            m.migration_chunks += 1;
        }
        let completed_tick = self.clock;
        for (req, reply) in window.into_iter().zip(replies) {
            m.completed += 1;
            m.latency.record(completed_tick - req.submitted_tick);
            let key = match req.op {
                ByteOp::Put(k, _) | ByteOp::Get(k) | ByteOp::Delete(k) => k,
            };
            self.byte_completions.push_back(ByteCompletion {
                id: req.id,
                client: req.client,
                key,
                reply,
                submitted_tick: req.submitted_tick,
                completed_tick,
            });
        }
        self.refresh_gauges(shard, true);
        Ok(window_len)
    }

    /// Run `f` on `shard` against the shard's kernel context in an
    /// isolated metrics window, fold the window into the caller's running
    /// totals, and return `f`'s result with the window's kernel time.
    fn run_isolated<T>(
        &mut self,
        shard: usize,
        sim: &mut SimContext,
        f: impl FnOnce(&mut Shard, &mut SimContext) -> T,
    ) -> (T, f64) {
        let ksim = kernel_sim(&mut self.shard_sims, shard, sim);
        let (out, window) = isolated(ksim, |ksim| f(&mut self.shards[shard], ksim));
        let ns = CostModel::new(sim.device.config()).kernel_time_ns(&window);
        sim.metrics.merge(&window);
        (out, ns)
    }

    /// Re-read `shard`'s table gauges after a flush or pump. Every write
    /// of `migration_backlog` goes through here, so the gauge always holds
    /// the combined fixed + byte backlog; `arena` also refreshes the byte
    /// tier's arena gauges.
    fn refresh_gauges(&mut self, shard: usize, arena: bool) {
        let s = &self.shards[shard];
        let m = &mut self.metrics.per_shard[shard];
        m.migration_backlog = s.table.migration_backlog();
        if let Some(t) = &s.unsized_table {
            m.migration_backlog += t.migration_backlog();
            if arena {
                let stats = t.stats();
                m.arena_pages = stats.arena_pages;
                m.arena_live_bytes = stats.arena_live_bytes;
                m.arena_frag_bytes = stats.arena_frag_bytes;
            }
        }
    }

    /// Take every completion produced so far, in completion order
    /// (per shard: submission order).
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        self.completions.drain(..).collect()
    }

    /// Take every byte-tier completion produced so far, in completion
    /// order (per shard: submission order).
    pub fn drain_byte_completions(&mut self) -> Vec<ByteCompletion> {
        self.byte_completions.drain(..).collect()
    }

    /// Total live keys across all shards (both tiers).
    pub fn total_keys(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.table.len() + s.unsized_table.as_ref().map_or(0, |t| t.len()))
            .sum()
    }

    /// The accumulated service metrics.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Snapshot current state (counters + table stats + queue depths) for
    /// text/CSV rendering.
    pub fn snapshot(&self) -> Snapshot {
        let rows: Vec<SnapshotRow> = self
            .shards
            .iter()
            .zip(&self.metrics.per_shard)
            .enumerate()
            .map(|(i, (s, m))| {
                let stats = s.table.stats();
                let byte_keys = s.unsized_table.as_ref().map_or(0, |t| t.len());
                SnapshotRow {
                    label: format!("shard {i}"),
                    keys: stats.occupied + byte_keys,
                    fill: stats.fill,
                    queue_depth: s.queue.len() + s.byte_queue.len(),
                    m: m.clone(),
                }
            })
            .collect();
        let total_keys = rows.iter().map(|r| r.keys).sum();
        let mean_fill = if rows.is_empty() {
            0.0
        } else {
            rows.iter().map(|r| r.fill).sum::<f64>() / rows.len() as f64
        };
        let total = SnapshotRow {
            label: "total".to_string(),
            keys: total_keys,
            fill: mean_fill,
            queue_depth: rows.iter().map(|r| r.queue_depth).sum(),
            m: self.metrics.total(),
        };
        Snapshot {
            shards: rows,
            total,
            clock: self.clock,
        }
    }

    /// Tear down, returning every shard's device memory to the simulator.
    pub fn release(self, sim: &mut SimContext) -> Result<(), ServiceError> {
        // Host-par shards allocated on their own contexts, so their bytes
        // return there; Sim shards return to the caller's.
        let mut shard_sims = self.shard_sims;
        for (i, shard) in self.shards.into_iter().enumerate() {
            let ksim = kernel_sim(&mut shard_sims, i, sim);
            shard.table.release(ksim)?;
            if let Some(t) = shard.unsized_table {
                t.release(ksim)?;
            }
        }
        Ok(())
    }
}

/// One flush window, compiled by the coordinator and ready for kernels.
struct PreparedWindow {
    window: Vec<Pending>,
    plan: FlushPlan,
}

impl PreparedWindow {
    /// Open this window's `BatchFlush` span.
    fn span_begin(&self, shard: usize) {
        let p = &self.plan;
        span_begin(
            shard,
            self.window.len(),
            p.probes.len(),
            p.puts.len() + p.rmws.len(),
            p.deletes.len(),
            p.coalesced_local + p.dedup_saved + p.writes_coalesced,
        );
    }
}

/// Open a flush window's `BatchFlush` span (a no-op unless recording).
fn span_begin(
    shard: usize,
    window: usize,
    probes: usize,
    puts: usize,
    deletes: usize,
    coalesced: u64,
) {
    if obs::is_enabled() {
        obs::span_begin(obs::Event::BatchFlush {
            shard: shard as u32,
            window: window as u32,
            probes: probes as u32,
            puts: puts as u32,
            deletes: deletes as u32,
            coalesced: coalesced as u32,
        });
    }
}

/// Close a flush window's span: the whole window completed, or none of
/// it on a kernel error (closed before the error propagates, so the span
/// balances).
fn span_end(window: usize, ok: bool) {
    if obs::is_enabled() {
        obs::span_end(obs::Event::BatchEnd {
            completed: if ok { window as u32 } else { 0 },
        });
    }
}

/// The attribution scope every flush of `shard` charges under.
fn flush_scope(shard: usize) -> obs::attr::Scope {
    obs::attr::scope_with(|| format!("service/flush/shard{shard}"))
}

/// The context `shard`'s kernels run on and its device bytes live in:
/// the shard's own under [`Backend::HostPar`], the caller's under
/// [`Backend::Sim`] (where `shard_sims` is empty).
fn kernel_sim<'a>(
    shard_sims: &'a mut [SimContext],
    shard: usize,
    sim: &'a mut SimContext,
) -> &'a mut SimContext {
    match shard_sims.get_mut(shard) {
        Some(s) => s,
        None => sim,
    }
}

/// Run `f` on `ksim` in an isolated metrics window — the roofline is
/// non-linear, so a window's ns must be computed on its own counters.
/// `ksim.metrics` is restored afterwards; the window is returned.
fn isolated<T>(
    ksim: &mut SimContext,
    f: impl FnOnce(&mut SimContext) -> T,
) -> (T, gpu_sim::Metrics) {
    let saved = ksim.take_metrics();
    let out = f(ksim);
    let window = std::mem::replace(&mut ksim.metrics, saved);
    (out, window)
}

/// The kernels of one fixed-tier flush window: find results, then the
/// insert report, the upsert-wave reports, and the delete report.
type FlushKernels = (
    Vec<Option<u32>>,
    Option<dycuckoo::BatchReport>,
    Vec<UpsertReport>,
    Option<dycuckoo::BatchReport>,
);

/// Flush a plan's RMW chains. Wave `i` holds position `i` of every key's
/// chain, grouped by rule (stable [`MergeRule::ALL`] order) into one upsert
/// kernel per group. Waves run in order, so a key with a mixed-rule chain
/// sees its merges applied in submission order; keys never collide inside
/// a wave because each contributes at most one entry per position.
fn run_rmw_waves(
    table: &mut DyCuckoo,
    sim: &mut SimContext,
    rmws: &[(u32, Vec<(MergeRule, u32)>)],
) -> dycuckoo::Result<Vec<UpsertReport>> {
    let depth = rmws.iter().map(|(_, chain)| chain.len()).max().unwrap_or(0);
    let mut reports = Vec::new();
    for wave in 0..depth {
        for rule in MergeRule::ALL {
            let batch: Vec<(u32, u32)> = rmws
                .iter()
                .filter_map(|(k, chain)| {
                    chain
                        .get(wave)
                        .filter(|&&(r, _)| r == rule)
                        .map(|&(_, arg)| (*k, arg))
                })
                .collect();
            if !batch.is_empty() {
                reports.push(table.upsert_batch(sim, &batch, rule)?);
            }
        }
    }
    Ok(reports)
}

/// How many groups [`KvService::run_flush_groups`] splits a flush's due
/// shards into, given the `requests` in their due windows: one under
/// [`Backend::Sim`]; under [`Backend::HostPar`], one per `max_batch`
/// requests (the size at which a window flushes without waiting), at most
/// `threads` and at least one. Every group but the last costs a thread
/// spawn, and only a full window's kernels outweigh one.
fn flush_groups(backend: Backend, requests: usize, max_batch: usize) -> usize {
    match backend {
        Backend::Sim => 1,
        Backend::HostPar { threads } => threads.min(requests.div_ceil(max_batch)).max(1),
    }
}

/// What one window's kernels produced.
struct FlushKernelResult {
    outcome: dycuckoo::Result<FlushKernels>,
    /// The isolated metrics window the kernels charged.
    window_metrics: gpu_sim::Metrics,
    /// Roofline kernel time of that window.
    flush_ns: f64,
    /// `Some` when a worker thread ran the window: the attribution it
    /// collected with `profile` (empty otherwise), which the apply step
    /// absorbs before emitting the window's span. `None` when the calling
    /// thread ran it with both already in place.
    worker_attr: Option<obs::attr::Attribution>,
}

/// Run one compiled window's kernels against `table` on `ksim`, charging
/// an isolated metrics window (`ksim.metrics` is untouched) and the
/// running thread's attribution session, if any. Thread-safe given
/// exclusive access to both.
fn run_flush_kernels(
    table: &mut DyCuckoo,
    ksim: &mut SimContext,
    plan: &FlushPlan,
) -> FlushKernelResult {
    let (outcome, window_metrics) = isolated(ksim, |sim| {
        let found = if plan.probes.is_empty() {
            Vec::new()
        } else {
            table.find_batch(sim, &plan.probes)
        };
        let ins = if plan.puts.is_empty() {
            None
        } else {
            Some(table.insert_batch(sim, &plan.puts)?)
        };
        let ups = run_rmw_waves(table, sim, &plan.rmws)?;
        let del = if plan.deletes.is_empty() {
            None
        } else {
            Some(table.delete_batch(sim, &plan.deletes)?)
        };
        Ok((found, ins, ups, del))
    });
    let flush_ns = CostModel::new(ksim.device.config()).kernel_time_ns(&window_metrics);
    FlushKernelResult {
        outcome,
        window_metrics,
        flush_ns,
        worker_attr: None,
    }
}

/// Run window `w` on a worker thread. With `profile`, the kernels charge
/// a fresh attribution session of the worker's own (attribution is
/// thread-local), handed back for the apply step to absorb.
fn run_on_worker(
    table: &mut DyCuckoo,
    ksim: &mut SimContext,
    w: &PreparedWindow,
    profile: bool,
) -> FlushKernelResult {
    if profile {
        obs::attr::start();
    }
    let r = run_flush_kernels(table, ksim, &w.plan);
    let attr = if profile {
        obs::attr::stop()
    } else {
        obs::attr::Attribution::default()
    };
    FlushKernelResult {
        worker_attr: Some(attr),
        ..r
    }
}

/// Run `shard`'s window `w` on the calling thread, inside the window's
/// attribution scope and `BatchFlush` span, so the kernels' charges and
/// recorder events land in place. The caller's attribution session is
/// charged, never restarted ([`obs::attr::start`] would discard it).
fn run_in_place(
    shard: usize,
    table: &mut DyCuckoo,
    ksim: &mut SimContext,
    w: &PreparedWindow,
) -> FlushKernelResult {
    let _attr = flush_scope(shard);
    w.span_begin(shard);
    let r = run_flush_kernels(table, ksim, &w.plan);
    span_end(w.window.len(), r.outcome.is_ok());
    r
}

/// A byte-tier window compiled into kernel batches: maximal runs of one
/// op kind, executed in submission order (so a read after a write of the
/// same key observes it). Duplicate keys inside a put run collapse to the
/// last write (every such put still answers `Stored` — upsert semantics
/// make the outcomes identical); duplicate gets and deletes need no
/// dedup, the kernels serialize them.
#[derive(Default)]
struct BytePlan<'w> {
    runs: Vec<ByteRun<'w>>,
    /// Keys handed to find kernels.
    probes: usize,
    /// Pairs handed to insert kernels (after put-run coalescing).
    puts: usize,
    /// Keys handed to delete kernels.
    deletes: usize,
    /// Puts superseded inside their run (never reach a kernel).
    coalesced: u64,
}

/// One same-kind run of a byte window, as its kernel receives it.
enum ByteRun<'w> {
    /// The run's coalesced pairs, answering `requests` puts.
    Put {
        pairs: Vec<(&'w [u8], &'w [u8])>,
        requests: usize,
    },
    Get(Vec<&'w [u8]>),
    Delete(Vec<&'w [u8]>),
}

/// Compile a byte-tier window into its [`BytePlan`].
fn plan_byte_window(window: &[BytePending]) -> BytePlan<'_> {
    let mut plan = BytePlan::default();
    // Pair index of each key in the current put run.
    let mut slot_of: HashMap<&[u8], usize> = HashMap::new();
    for p in window {
        match (&p.op, plan.runs.last_mut()) {
            (ByteOp::Put(key, val), Some(ByteRun::Put { pairs, requests })) => {
                *requests += 1;
                match slot_of.get(key.as_slice()) {
                    Some(&s) => {
                        pairs[s].1 = val;
                        plan.coalesced += 1;
                    }
                    None => {
                        slot_of.insert(key, pairs.len());
                        pairs.push((key, val));
                        plan.puts += 1;
                    }
                }
            }
            (ByteOp::Put(key, val), _) => {
                slot_of.clear();
                slot_of.insert(key, 0);
                let pairs = vec![(key.as_slice(), val.as_slice())];
                plan.runs.push(ByteRun::Put { pairs, requests: 1 });
                plan.puts += 1;
            }
            (ByteOp::Get(key), run) => {
                plan.probes += 1;
                match run {
                    Some(ByteRun::Get(keys)) => keys.push(key),
                    _ => plan.runs.push(ByteRun::Get(vec![key])),
                }
            }
            (ByteOp::Delete(key), run) => {
                plan.deletes += 1;
                match run {
                    Some(ByteRun::Delete(keys)) => keys.push(key),
                    _ => plan.runs.push(ByteRun::Delete(vec![key])),
                }
            }
        }
    }
    plan
}

/// Execute a compiled byte window's runs against `table`, in order: one
/// reply per window request, plus the merged kernel reports.
fn run_byte_plan(
    table: &mut UnsizedTable,
    sim: &mut SimContext,
    plan: &BytePlan,
) -> dycuckoo::Result<(Vec<ByteReply>, UnsizedReport)> {
    let mut replies = Vec::new();
    let mut report = UnsizedReport::default();
    for run in &plan.runs {
        match run {
            ByteRun::Put { pairs, requests } => {
                report.merge(&table.insert_batch(sim, pairs)?);
                replies.extend(std::iter::repeat_n(ByteReply::Stored, *requests));
            }
            ByteRun::Get(keys) => {
                replies.extend(
                    table
                        .find_batch(sim, keys)?
                        .into_iter()
                        .map(ByteReply::Value),
                );
            }
            ByteRun::Delete(keys) => {
                let (removed, r) = table.delete_batch(sim, keys)?;
                report.merge(&r);
                replies.extend(removed.into_iter().map(ByteReply::Deleted));
            }
        }
    }
    Ok((replies, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(shards: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            table: Config {
                initial_buckets: 8,
                ..Config::default()
            },
            max_batch: 8,
            max_delay_ticks: 2,
            queue_capacity: 64,
            shed_watermark: 48,
            seed: 11,
            migration_quantum: usize::MAX,
            flush_order: SchedulePolicy::FixedOrder,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn put_then_get_round_trips_across_shards() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(small_cfg(4), &mut sim).unwrap();
        for k in 1..=200u32 {
            svc.submit(0, Op::Put(k, k * 3)).unwrap();
        }
        while svc.queue_depths().iter().any(|&d| d > 0) {
            svc.tick(&mut sim).unwrap();
        }
        svc.drain_completions();
        for k in 1..=200u32 {
            svc.submit(0, Op::Get(k)).unwrap();
            if k % 16 == 0 {
                svc.tick(&mut sim).unwrap();
            }
        }
        svc.flush_all(&mut sim).unwrap();
        let got = svc.drain_completions();
        assert_eq!(got.len(), 200);
        for c in got {
            assert_eq!(c.reply, Reply::Value(Some(c.key * 3)), "key {}", c.key);
        }
    }

    #[test]
    fn deadline_flushes_partial_batches() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(small_cfg(1), &mut sim).unwrap();
        svc.submit(0, Op::Put(1, 1)).unwrap();
        assert_eq!(
            svc.tick(&mut sim).unwrap(),
            0,
            "one tick: still inside delay"
        );
        assert_eq!(svc.tick(&mut sim).unwrap(), 1, "deadline reached");
        let m = svc.metrics().total();
        assert_eq!(m.flush_by_deadline, 1);
        assert_eq!(m.flush_by_size, 0);
    }

    #[test]
    fn size_flush_fires_without_waiting() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(small_cfg(1), &mut sim).unwrap();
        for k in 1..=8u32 {
            svc.submit(0, Op::Put(k, k)).unwrap();
        }
        assert_eq!(svc.tick(&mut sim).unwrap(), 8);
        assert_eq!(svc.metrics().total().flush_by_size, 1);
    }

    #[test]
    fn overload_returns_typed_errors_and_bounds_queue() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(small_cfg(1), &mut sim).unwrap();
        let mut overloaded = 0;
        let mut shed = 0;
        for k in 1..=200u32 {
            match svc.submit(0, Op::Put(k, 1)) {
                Ok(_) => {}
                Err(AdmitError::Overloaded { .. }) => overloaded += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
            match svc.submit(0, Op::Get(k)) {
                Ok(_) => {}
                Err(AdmitError::Shed { .. }) => shed += 1,
                Err(AdmitError::Overloaded { .. }) => overloaded += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(overloaded > 0, "hard cap never hit");
        assert!(shed > 0, "watermark never shed a read");
        assert!(svc.queue_depths()[0] <= 64, "queue exceeded its bound");
        let m = svc.metrics().total();
        assert_eq!(m.shed_overloaded + m.shed_reads, overloaded + shed);
    }

    #[test]
    fn kernel_time_accrues_per_flush() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(small_cfg(2), &mut sim).unwrap();
        for k in 1..=64u32 {
            svc.submit(0, Op::Put(k, k)).unwrap();
        }
        svc.flush_all(&mut sim).unwrap();
        let m = svc.metrics().total();
        assert!(m.service_ns > 0.0);
        assert!(m.batches >= 2, "two shards must each have flushed");
        // The caller's running metrics still saw the kernels.
        assert!(sim.metrics.ops >= 64);
    }

    #[test]
    fn service_is_deterministic() {
        let run = || {
            let mut sim = SimContext::new();
            let mut svc = KvService::new(small_cfg(4), &mut sim).unwrap();
            for k in 1..=300u32 {
                let _ = svc.submit(k % 7, Op::Put(k, k ^ 0xABCD));
                if k % 3 == 0 {
                    let _ = svc.submit(k % 7, Op::Get(k / 3));
                }
                if k % 10 == 0 {
                    svc.tick(&mut sim).unwrap();
                }
            }
            svc.flush_all(&mut sim).unwrap();
            (svc.snapshot().to_csv(), svc.drain_completions())
        };
        let (csv_a, comp_a) = run();
        let (csv_b, comp_b) = run();
        assert_eq!(csv_a, csv_b);
        assert_eq!(comp_a, comp_b);
    }

    #[test]
    fn zero_key_is_rejected_without_counting_as_shed() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(small_cfg(1), &mut sim).unwrap();
        assert_eq!(svc.submit(0, Op::Get(0)), Err(AdmitError::ZeroKey));
        let m = svc.metrics().total();
        assert_eq!(m.shed_total(), 0);
        assert_eq!(m.admitted, 0);
    }

    #[test]
    fn validate_rejects_incoherent_configs() {
        let sim = &mut SimContext::new();
        let bad_batch = ServiceConfig {
            max_batch: 0,
            ..ServiceConfig::default()
        };
        assert!(KvService::new(bad_batch, sim).is_err());
        let batch_over_cap = ServiceConfig {
            max_batch: 2048,
            queue_capacity: 1024,
            ..ServiceConfig::default()
        };
        assert!(KvService::new(batch_over_cap, sim).is_err());
        let bad_shards = ServiceConfig {
            shards: 3,
            ..ServiceConfig::default()
        };
        assert!(KvService::new(bad_shards, sim).is_err());
    }

    #[test]
    fn resizes_stay_local_to_their_shard() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(small_cfg(4), &mut sim).unwrap();
        // Load enough keys that at least one shard resizes (8 buckets ×
        // 32 slots × 4 tables × β ≈ 870 slots per shard).
        for k in 1..=4000u32 {
            let _ = svc.submit(0, Op::Put(k, 1));
            svc.tick(&mut sim).unwrap();
        }
        svc.flush_all(&mut sim).unwrap();
        let resized: Vec<usize> = svc
            .metrics()
            .per_shard
            .iter()
            .enumerate()
            .filter(|(_, m)| m.resize_events > 0)
            .map(|(i, _)| i)
            .collect();
        assert!(!resized.is_empty(), "no shard ever resized");
        // The structural invariant: each shard's table grew independently —
        // shard tables are distinct instances, so a resize in one cannot
        // have touched another. Spot-check via per-shard stats.
        let snapshot = svc.snapshot();
        for row in &snapshot.shards {
            assert!(row.m.resize_events == 0 || row.keys > 0);
        }
    }

    #[test]
    fn non_default_layout_serves_identically() {
        // The bucket layout threads through ServiceConfig via the embedded
        // table Config. An interleaved layout must change only what the
        // memory system sees — every reply stays identical.
        let run = |layout: gpu_sim::LayoutConfig| {
            let mut cfg = small_cfg(4);
            cfg.table.layout = layout;
            let mut sim = SimContext::new();
            let mut svc = KvService::new(cfg, &mut sim).unwrap();
            for k in 1..=300u32 {
                let _ = svc.submit(0, Op::Put(k, k ^ 0xABCD));
                if k % 7 == 0 {
                    let _ = svc.submit(0, Op::Get(k / 2));
                }
                if k % 13 == 0 {
                    let _ = svc.submit(0, Op::Delete(k / 3));
                }
                svc.tick(&mut sim).unwrap();
            }
            svc.flush_all(&mut sim).unwrap();
            let replies: Vec<(u32, Reply)> = svc
                .drain_completions()
                .into_iter()
                .map(|c| (c.key, c.reply))
                .collect();
            (replies, sim.metrics.read_transactions)
        };
        let (soa_replies, soa_reads) = run(gpu_sim::LayoutConfig::default());
        let (aos_replies, aos_reads) = run(gpu_sim::LayoutConfig::aos(16, 4, 4));
        assert_eq!(soa_replies, aos_replies);
        // The layout did take effect: interleaved 16-slot buckets cost a
        // different number of coalesced reads for the same execution.
        assert_ne!(soa_reads, aos_reads);
    }

    /// With a finite quantum, a migration started by a flush keeps
    /// draining on idle ticks (no queued requests) until the backlog hits
    /// zero, and the pumps are accounted to the owning shard.
    #[test]
    fn tick_pumps_migrations_to_completion_on_idle_shards() {
        let mut sim = SimContext::new();
        let mut cfg = small_cfg(1);
        cfg.migration_quantum = 2;
        cfg.queue_capacity = 4096;
        cfg.shed_watermark = 4096;
        let mut svc = KvService::new(cfg, &mut sim).unwrap();
        let mut k = 1u32;
        while !svc.shards[0].table.migration_in_flight() {
            for _ in 0..8 {
                svc.submit(0, Op::Put(k, k ^ 5)).unwrap();
                k += 1;
            }
            svc.tick(&mut sim).unwrap();
            assert!(k < 1 << 20, "no migration ever started");
        }
        // Stop submitting: idle ticks alone must finish the drain.
        let mut idle_ticks = 0u32;
        while svc.shards[0].table.migration_in_flight() {
            svc.tick(&mut sim).unwrap();
            idle_ticks += 1;
            assert!(idle_ticks < 10_000, "migration never finished");
        }
        assert!(idle_ticks >= 1, "drain finished without an idle pump");
        let m = &svc.metrics().per_shard[0];
        assert!(m.migration_chunks > 0, "pumps were not accounted");
        assert!(m.migration_moved > 0);
        assert_eq!(m.migration_backlog, 0, "gauge must settle at zero");
        assert!(m.resize_events >= 1, "the finalize never retired an event");
        // The table stayed coherent through the incremental drain.
        svc.drain_completions();
        for key in 1..k {
            svc.submit(0, Op::Get(key)).unwrap();
        }
        svc.flush_all(&mut sim).unwrap();
        for c in svc.drain_completions() {
            assert_eq!(c.reply, Reply::Value(Some(c.key ^ 5)), "key {}", c.key);
        }
    }

    /// Two shards whose flushes both resize **in the same flush window**
    /// each account their own `resize_stall_batches` — stalls are charged
    /// to the shard that paid them, and the totals are the sum.
    #[test]
    fn resize_stalls_account_per_shard_within_one_window() {
        let mut sim = SimContext::new();
        let mut cfg = small_cfg(2);
        cfg.max_batch = 64;
        cfg.queue_capacity = 4096;
        cfg.shed_watermark = 4096;
        let router = ShardRouter::new(cfg.shards, cfg.seed).unwrap();
        let mut svc = KvService::new(cfg, &mut sim).unwrap();
        // Partition keys by shard so each shard's load is explicit.
        let mut per_shard: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        let mut k = 1u32;
        while per_shard.iter().any(|v| v.len() < 70) {
            let s = router.shard_of(k);
            if per_shard[s].len() < 70 {
                per_shard[s].push(k);
            }
            k += 1;
        }
        for keys in &per_shard {
            for &key in keys {
                svc.submit(0, Op::Put(key, 9)).unwrap();
            }
        }
        while svc.queue_depths().iter().any(|&d| d > 0) {
            svc.tick(&mut sim).unwrap();
        }
        let before: Vec<u64> = svc
            .metrics()
            .per_shard
            .iter()
            .map(|m| m.resize_stall_batches)
            .collect();
        // One full delete batch per shard, erasing nearly all of its keys:
        // both flushes leave their tables far under the downsize bound, so
        // both resize inside the same tick's flush window.
        for keys in &per_shard {
            for &key in keys.iter().take(64) {
                svc.submit(0, Op::Delete(key)).unwrap();
            }
        }
        svc.tick(&mut sim).unwrap();
        let m = svc.metrics();
        for (shard, &prior) in before.iter().enumerate() {
            assert_eq!(
                m.per_shard[shard].resize_stall_batches,
                prior + 1,
                "shard {shard} must charge exactly its own stalled flush"
            );
        }
        assert_eq!(
            m.total().resize_stall_batches,
            m.per_shard
                .iter()
                .map(|s| s.resize_stall_batches)
                .sum::<u64>(),
            "totals must be the per-shard sum"
        );
    }

    fn unsized_cfg(shards: usize) -> ServiceConfig {
        ServiceConfig {
            tier: Tier::Unsized,
            unsized_table: UnsizedConfig {
                n_buckets: 8,
                ..UnsizedConfig::default()
            },
            queue_capacity: 4096,
            shed_watermark: 4096,
            ..small_cfg(shards)
        }
    }

    /// Deterministic test key: inline (≤ 12 bytes) for even `i`, spilled
    /// for odd — the byte path exercises both representations.
    fn bkey(i: u32) -> Vec<u8> {
        if i.is_multiple_of(2) {
            format!("k-{i:06}").into_bytes()
        } else {
            format!("key-{i:08}-padded-well-past-inline").into_bytes()
        }
    }

    #[test]
    fn byte_put_get_delete_round_trips_across_shards() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(unsized_cfg(4), &mut sim).unwrap();
        for i in 1..=150u32 {
            let val = format!("value-{i}-{}", "x".repeat((i % 17) as usize));
            svc.submit_bytes(0, ByteOp::Put(bkey(i), val.into_bytes()))
                .unwrap();
        }
        while svc.byte_queue_depths().iter().any(|&d| d > 0) {
            svc.tick(&mut sim).unwrap();
        }
        svc.drain_byte_completions();
        for i in 1..=150u32 {
            svc.submit_bytes(0, ByteOp::Get(bkey(i))).unwrap();
        }
        svc.flush_all(&mut sim).unwrap();
        let got = svc.drain_byte_completions();
        assert_eq!(got.len(), 150);
        for c in &got {
            let i: u32 = std::str::from_utf8(&c.key)
                .unwrap()
                .trim_start_matches(|ch: char| !ch.is_ascii_digit())
                .split('-')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            let want = format!("value-{i}-{}", "x".repeat((i % 17) as usize));
            assert_eq!(
                c.reply,
                ByteReply::Value(Some(want.into_bytes())),
                "key {:?}",
                String::from_utf8_lossy(&c.key)
            );
        }
        // Deletes report presence; a second delete of the same key misses.
        svc.submit_bytes(0, ByteOp::Delete(bkey(2))).unwrap();
        svc.flush_all(&mut sim).unwrap();
        svc.submit_bytes(0, ByteOp::Delete(bkey(2))).unwrap();
        svc.flush_all(&mut sim).unwrap();
        let dels = svc.drain_byte_completions();
        assert_eq!(dels.len(), 2);
        assert_eq!(dels[0].reply, ByteReply::Deleted(true));
        assert_eq!(dels[1].reply, ByteReply::Deleted(false));
        svc.release(&mut sim).unwrap();
    }

    #[test]
    fn byte_window_preserves_write_then_read_order() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(unsized_cfg(1), &mut sim).unwrap();
        // Same window: put, read-your-write, overwrite, read again. The
        // run-splitting flush must serve both gets from the preceding put.
        svc.submit_bytes(7, ByteOp::Put(b"alpha".to_vec(), b"one".to_vec()))
            .unwrap();
        svc.submit_bytes(7, ByteOp::Get(b"alpha".to_vec())).unwrap();
        svc.submit_bytes(7, ByteOp::Put(b"alpha".to_vec(), b"two".to_vec()))
            .unwrap();
        svc.submit_bytes(7, ByteOp::Get(b"alpha".to_vec())).unwrap();
        svc.flush_all(&mut sim).unwrap();
        let replies: Vec<ByteReply> = svc
            .drain_byte_completions()
            .into_iter()
            .map(|c| c.reply)
            .collect();
        assert_eq!(
            replies,
            vec![
                ByteReply::Stored,
                ByteReply::Value(Some(b"one".to_vec())),
                ByteReply::Stored,
                ByteReply::Value(Some(b"two".to_vec())),
            ]
        );
    }

    #[test]
    fn byte_puts_coalesce_within_a_run() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(unsized_cfg(1), &mut sim).unwrap();
        for v in [b"a".to_vec(), b"b".to_vec(), b"c".to_vec()] {
            svc.submit_bytes(0, ByteOp::Put(b"dup".to_vec(), v))
                .unwrap();
        }
        svc.flush_all(&mut sim).unwrap();
        let m = svc.metrics().total();
        assert_eq!(m.table_puts, 1, "three puts of one key → one kernel pair");
        assert_eq!(m.writes_coalesced, 2);
        assert_eq!(m.byte_batches, 1);
        svc.submit_bytes(0, ByteOp::Get(b"dup".to_vec())).unwrap();
        svc.flush_all(&mut sim).unwrap();
        let last = svc.drain_byte_completions().pop().unwrap();
        assert_eq!(last.reply, ByteReply::Value(Some(b"c".to_vec())));
    }

    #[test]
    fn byte_ops_rejected_on_fixed_tier_and_oversized_blobs() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(small_cfg(1), &mut sim).unwrap();
        assert!(matches!(
            svc.submit_bytes(0, ByteOp::Get(b"k".to_vec())),
            Err(ServiceError::TierDisabled)
        ));
        let mut svc = KvService::new(unsized_cfg(1), &mut sim).unwrap();
        let huge = vec![0u8; MAX_BLOB_LEN + 1];
        assert!(matches!(
            svc.submit_bytes(0, ByteOp::Put(b"k".to_vec(), huge)),
            Err(ServiceError::OversizedBlob { .. })
        ));
        // Nothing was queued or admitted by the refusals.
        assert_eq!(svc.metrics().total().admitted, 0);
        assert_eq!(svc.byte_queue_depths(), vec![0]);
        // Empty keys are legal in the byte tier (no zero-key sentinel).
        svc.submit_bytes(0, ByteOp::Put(Vec::new(), b"empty-key".to_vec()))
            .unwrap();
        svc.flush_all(&mut sim).unwrap();
        svc.submit_bytes(0, ByteOp::Get(Vec::new())).unwrap();
        svc.flush_all(&mut sim).unwrap();
        let got = svc.drain_byte_completions();
        assert_eq!(
            got.last().unwrap().reply,
            ByteReply::Value(Some(b"empty-key".to_vec()))
        );
    }

    #[test]
    fn byte_admission_sheds_against_byte_queue_depth() {
        let mut sim = SimContext::new();
        let mut cfg = unsized_cfg(1);
        cfg.queue_capacity = 16;
        cfg.shed_watermark = 8;
        let mut svc = KvService::new(cfg, &mut sim).unwrap();
        let mut shed = 0;
        let mut overloaded = 0;
        for i in 0..40u32 {
            match svc.submit_bytes(0, ByteOp::Put(bkey(i), b"v".to_vec())) {
                Ok(_) => {}
                Err(ServiceError::Admit(AdmitError::Overloaded { .. })) => overloaded += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
            match svc.submit_bytes(0, ByteOp::Get(bkey(i))) {
                Ok(_) => {}
                Err(ServiceError::Admit(AdmitError::Shed { .. })) => shed += 1,
                Err(ServiceError::Admit(AdmitError::Overloaded { .. })) => overloaded += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(overloaded > 0, "hard cap never hit");
        assert!(shed > 0, "watermark never shed a read");
        assert!(svc.byte_queue_depths()[0] <= 16);
        let m = svc.metrics().total();
        assert_eq!(m.shed_total(), overloaded + shed);
    }

    #[test]
    fn byte_flushes_populate_arena_gauges_and_both_tiers_coexist() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(unsized_cfg(2), &mut sim).unwrap();
        // Interleave fixed-tier and byte-tier traffic.
        for i in 1..=120u32 {
            svc.submit(0, Op::Put(i, i * 7)).unwrap();
            // Odd bkeys spill, so the arena must hold live bytes.
            svc.submit_bytes(0, ByteOp::Put(bkey(i), vec![b'v'; 24]))
                .unwrap();
        }
        svc.flush_all(&mut sim).unwrap();
        let m = svc.metrics().total();
        assert!(m.byte_batches > 0);
        assert!(m.arena_pages > 0, "spilled keys must allocate arena pages");
        assert!(m.arena_live_bytes > 0);
        // Both tiers answer correctly side by side.
        svc.drain_completions();
        svc.drain_byte_completions();
        for i in 1..=120u32 {
            svc.submit(0, Op::Get(i)).unwrap();
            svc.submit_bytes(0, ByteOp::Get(bkey(i))).unwrap();
        }
        svc.flush_all(&mut sim).unwrap();
        for c in svc.drain_completions() {
            assert_eq!(c.reply, Reply::Value(Some(c.key * 7)));
        }
        for c in svc.drain_byte_completions() {
            assert_eq!(c.reply, ByteReply::Value(Some(vec![b'v'; 24])));
        }
        assert_eq!(svc.total_keys(), 240);
        // The registry gains exactly the gated byte-tier entries.
        let mut reg = obs::Registry::new();
        m.register_into(&mut reg, &[("scope", "total")]);
        assert!(reg
            .get_gauge("service_arena_live_bytes", &[("scope", "total")])
            .is_some());
        svc.release(&mut sim).unwrap();
    }

    #[test]
    fn byte_service_is_deterministic_and_pumps_migrations() {
        let run = || {
            let mut sim = SimContext::new();
            let mut cfg = unsized_cfg(2);
            cfg.unsized_table.n_buckets = 4;
            cfg.unsized_table.max_load = 0.5;
            cfg.migration_quantum = 2;
            let mut svc = KvService::new(cfg, &mut sim).unwrap();
            for i in 1..=400u32 {
                let _ = svc.submit_bytes(i % 5, ByteOp::Put(bkey(i), bkey(i ^ 3)));
                if i % 3 == 0 {
                    let _ = svc.submit_bytes(i % 5, ByteOp::Get(bkey(i / 3)));
                }
                if i % 11 == 0 {
                    let _ = svc.submit_bytes(i % 5, ByteOp::Delete(bkey(i / 11)));
                }
                if i % 7 == 0 {
                    svc.tick(&mut sim).unwrap();
                }
            }
            svc.flush_all(&mut sim).unwrap();
            // Idle ticks drain any still-running migration.
            let mut guard = 0;
            while svc.metrics().total().migration_backlog > 0 {
                svc.tick(&mut sim).unwrap();
                guard += 1;
                assert!(guard < 10_000, "migration never settled");
            }
            (svc.snapshot().to_csv(), svc.drain_byte_completions())
        };
        let (csv_a, comp_a) = run();
        let (csv_b, comp_b) = run();
        assert_eq!(csv_a, csv_b);
        assert_eq!(comp_a, comp_b);
        assert!(!comp_a.is_empty());
    }

    /// Everything observable about one [`backend_probe`] run.
    struct ProbeRun {
        completions: Vec<Completion>,
        byte_completions: Vec<ByteCompletion>,
        /// The snapshot CSV (folds in per-shard metrics and kernel ns).
        csv: String,
        keys: u64,
        /// The caller's attribution tree over the whole run.
        attr: obs::attr::Attribution,
        /// The caller's running metric totals.
        caller_metrics: String,
    }

    /// Drive an identical workload through a configurable backend, with
    /// attribution on, and return everything observable.
    fn backend_probe(backend: Backend) -> ProbeRun {
        let mut sim = SimContext::new();
        obs::attr::start();
        let mut cfg = unsized_cfg(4);
        cfg.backend = backend;
        cfg.miss_filter_bits = 8;
        cfg.migration_quantum = 4;
        let max_batch = cfg.max_batch;
        let mut svc = KvService::new(cfg, &mut sim).unwrap();
        // One tick where every shard holds at least two full windows: the
        // host-par run step splits the due shards into groups, so a worker
        // and the calling thread both run kernels in the same tick.
        for k in 1..=160u32 {
            svc.submit(k % 5, Op::Put(0x10_0000 + k, k)).unwrap();
        }
        assert!(
            svc.queue_depths().iter().all(|&d| d >= 2 * max_batch),
            "every shard needs two full windows: {:?}",
            svc.queue_depths()
        );
        svc.tick(&mut sim).unwrap();
        for i in 1..=600u32 {
            let _ = svc.submit(i % 5, Op::Put(i, i ^ 0x00C0_FFEE));
            if i % 3 == 0 {
                let _ = svc.submit(i % 5, Op::Get(i / 3));
            }
            if i % 4 == 0 {
                let _ = svc.submit(i % 5, Op::Upsert(i % 50 + 1, i, MergeRule::Add));
            }
            if i % 6 == 0 {
                let _ = svc.submit(i % 5, Op::Increment(i % 30 + 1));
            }
            if i % 11 == 0 {
                let _ = svc.submit(i % 5, Op::Delete(i / 11));
            }
            if i % 9 == 0 {
                let _ = svc.submit_bytes(i % 5, ByteOp::Put(bkey(i), bkey(i ^ 7)));
            }
            if i % 8 == 0 {
                svc.tick(&mut sim).unwrap();
            }
        }
        svc.flush_all(&mut sim).unwrap();
        let mut guard = 0;
        while svc.metrics().total().migration_backlog > 0 {
            svc.tick(&mut sim).unwrap();
            guard += 1;
            assert!(guard < 10_000, "migration never settled");
        }
        let run = ProbeRun {
            completions: svc.drain_completions(),
            byte_completions: svc.drain_byte_completions(),
            csv: svc.snapshot().to_csv(),
            keys: svc.total_keys(),
            attr: obs::attr::stop(),
            caller_metrics: format!("{:?}", sim.metrics),
        };
        svc.release(&mut sim).unwrap();
        run
    }

    #[test]
    fn flush_groups_spawn_only_for_full_windows_of_work() {
        let par = |threads| Backend::HostPar { threads };
        assert_eq!(flush_groups(Backend::Sim, 4 * 256, 256), 1, "Sim");
        // 10 requests spread over 4 due shards: not one window's worth.
        assert_eq!(flush_groups(par(8), 10, 256), 1);
        // 4 full windows: one group per window, up to `threads`.
        assert_eq!(flush_groups(par(2), 4 * 256, 256), 2);
        assert_eq!(flush_groups(par(8), 4 * 256, 256), 4);
        // A partial window past the last full one still counts as work.
        assert_eq!(flush_groups(par(8), 256 + 1, 256), 2);
        for requests in [0, 1, 256, 4 * 256, 1 << 20] {
            assert_eq!(flush_groups(par(1), requests, 256), 1, "{requests}");
        }
    }

    #[test]
    fn host_par_backend_matches_sim_exactly() {
        let sim_run = backend_probe(Backend::Sim);
        for threads in [1usize, 2, 8] {
            let par_run = backend_probe(Backend::HostPar { threads });
            let t = format!("{threads} threads");
            assert_eq!(par_run.completions, sim_run.completions, "{t}: completions");
            assert_eq!(
                par_run.byte_completions, sim_run.byte_completions,
                "{t}: byte completions"
            );
            assert_eq!(par_run.csv, sim_run.csv, "{t}: snapshot CSV");
            assert_eq!(par_run.keys, sim_run.keys, "{t}: total keys");
            // Worker charges re-root at the same paths the inline run
            // charges, and the caller's totals see the same windows.
            assert_eq!(par_run.attr, sim_run.attr, "{t}: attribution tree");
            assert_eq!(
                par_run.caller_metrics, sim_run.caller_metrics,
                "{t}: caller metrics"
            );
        }
    }

    /// The backlog gauge holds the combined fixed + byte backlog whichever
    /// tier flushed last: a fixed-tier flush must not hide a byte-tier
    /// migration still in flight.
    #[test]
    fn backlog_gauge_keeps_byte_migration_across_fixed_flush() {
        let mut sim = SimContext::new();
        let mut cfg = unsized_cfg(1);
        cfg.unsized_table.n_buckets = 4;
        cfg.unsized_table.max_load = 0.5;
        cfg.migration_quantum = 1;
        let mut svc = KvService::new(cfg, &mut sim).unwrap();
        let mut i = 1u32;
        while svc.metrics().per_shard[0].migration_backlog == 0 {
            // Odd keys spill into the arena.
            svc.submit_bytes(0, ByteOp::Put(bkey(2 * i + 1), b"v".to_vec()))
                .unwrap();
            svc.flush_all(&mut sim).unwrap();
            i += 1;
            assert!(i < 10_000, "no byte-tier migration ever started");
        }
        svc.submit(0, Op::Put(1, 1)).unwrap();
        svc.flush_all(&mut sim).unwrap();
        let shard = &svc.shards[0];
        let byte_backlog = shard.unsized_table.as_ref().unwrap().migration_backlog();
        assert!(
            byte_backlog > 0,
            "the byte-tier migration is still in flight"
        );
        assert_eq!(
            svc.metrics().per_shard[0].migration_backlog,
            shard.table.migration_backlog() + byte_backlog
        );
        // The next idle tick pumps that backlog.
        let chunks = svc.metrics().per_shard[0].migration_chunks;
        svc.tick(&mut sim).unwrap();
        assert_eq!(svc.metrics().per_shard[0].migration_chunks, chunks + 1);
    }

    #[test]
    fn upsert_and_increment_round_trip_against_reference() {
        use std::collections::HashMap;
        let mut sim = SimContext::new();
        let mut svc = KvService::new(small_cfg(2), &mut sim).unwrap();
        let mut model: HashMap<u32, u32> = HashMap::new();
        let rules = [
            MergeRule::LastWrite,
            MergeRule::Add,
            MergeRule::Max,
            MergeRule::Min,
            MergeRule::Count,
        ];
        let upsert = |model: &mut HashMap<u32, u32>, k: u32, v: u32, rule: MergeRule| {
            let next = match model.get(&k) {
                Some(&old) => rule.merge(old, v),
                None => rule.initial(v),
            };
            model.insert(k, next);
        };
        for i in 0..400u32 {
            let k = i % 37 + 1;
            let arg = i.wrapping_mul(2654435761) >> 20;
            match i % 7 {
                0 => {
                    svc.submit(0, Op::Put(k, arg)).unwrap();
                    model.insert(k, arg);
                }
                1 => {
                    svc.submit(0, Op::Delete(k)).unwrap();
                    model.remove(&k);
                }
                2 => {
                    svc.submit(0, Op::Increment(k)).unwrap();
                    let n = model.get(&k).map_or(1, |&old| old + 1);
                    model.insert(k, n);
                }
                _ => {
                    let rule = rules[(i % 5) as usize];
                    svc.submit(0, Op::Upsert(k, arg, rule)).unwrap();
                    upsert(&mut model, k, arg, rule);
                }
            }
            if i % 6 == 5 {
                svc.tick(&mut sim).unwrap();
            }
        }
        svc.flush_all(&mut sim).unwrap();
        for c in svc.drain_completions() {
            assert!(
                matches!(c.reply, Reply::Stored | Reply::Deleted | Reply::Merged),
                "write ack for key {}: {:?}",
                c.key,
                c.reply
            );
        }
        for k in 1..=37u32 {
            svc.submit(0, Op::Get(k)).unwrap();
            svc.flush_all(&mut sim).unwrap();
            let got = svc.drain_completions();
            assert_eq!(
                got[0].reply,
                Reply::Value(model.get(&k).copied()),
                "key {k}"
            );
        }
    }

    #[test]
    fn rmw_window_composes_and_reads_through() {
        let mut sim = SimContext::new();
        let mut svc = KvService::new(small_cfg(1), &mut sim).unwrap();
        // Seed a base value in an earlier window.
        svc.submit(0, Op::Put(5, 100)).unwrap();
        svc.flush_all(&mut sim).unwrap();
        svc.drain_completions();
        // One window: two increments and a get. The probe sees the
        // pre-window value; the reply must still fold the pending merges.
        svc.submit(0, Op::Increment(5)).unwrap();
        svc.submit(0, Op::Increment(5)).unwrap();
        svc.submit(0, Op::Get(5)).unwrap();
        svc.flush_all(&mut sim).unwrap();
        let got = svc.drain_completions();
        assert_eq!(got[0].reply, Reply::Merged);
        assert_eq!(got[1].reply, Reply::Merged);
        assert_eq!(got[2].reply, Reply::Value(Some(102)));
        assert!(!got[2].coalesced, "read-through still probes the table");
        // The table agrees once the window has committed.
        svc.submit(0, Op::Get(5)).unwrap();
        svc.flush_all(&mut sim).unwrap();
        assert_eq!(svc.drain_completions()[0].reply, Reply::Value(Some(102)));
    }

    #[test]
    fn upserted_keys_enter_the_miss_filter() {
        let mut sim = SimContext::new();
        let mut cfg = small_cfg(1);
        cfg.miss_filter_bits = 8;
        let mut svc = KvService::new(cfg, &mut sim).unwrap();
        svc.submit(0, Op::Increment(9)).unwrap();
        svc.flush_all(&mut sim).unwrap();
        svc.drain_completions();
        // Known-absent key: the shield answers without a probe.
        svc.submit(0, Op::Get(1234)).unwrap();
        // Upserted key: it entered the filter at flush, so this probes.
        svc.submit(0, Op::Get(9)).unwrap();
        svc.flush_all(&mut sim).unwrap();
        let got = svc.drain_completions();
        assert_eq!(got[0].reply, Reply::Value(None), "shielded miss");
        assert_eq!(got[1].reply, Reply::Value(Some(1)));
        assert_eq!(svc.metrics().total().filter_shed, 1);
        // A queued upsert counts as a pending write: a get behind it must
        // not be shielded even though the key is not in the filter yet.
        svc.submit(0, Op::Increment(77)).unwrap();
        svc.submit(0, Op::Get(77)).unwrap();
        svc.flush_all(&mut sim).unwrap();
        let got = svc.drain_completions();
        assert_eq!(got[1].reply, Reply::Value(Some(1)));
        assert_eq!(svc.metrics().total().filter_shed, 1, "no new shield hit");
    }

    #[test]
    fn host_par_rejects_zero_threads() {
        let mut sim = SimContext::new();
        let cfg = ServiceConfig {
            backend: Backend::HostPar { threads: 0 },
            ..ServiceConfig::default()
        };
        assert!(matches!(
            KvService::new(cfg, &mut sim),
            Err(ServiceError::InvalidConfig(_))
        ));
    }

    #[test]
    fn host_par_attribution_conserves_into_caller_metrics() {
        let mut sim = SimContext::new();
        let mut cfg = small_cfg(2);
        cfg.backend = Backend::HostPar { threads: 2 };
        let mut svc = KvService::new(cfg, &mut sim).unwrap();
        obs::attr::start();
        let before = sim.metrics.clone();
        for k in 1..=120u32 {
            svc.submit(0, Op::Put(k, k)).unwrap();
        }
        svc.flush_all(&mut sim).unwrap();
        let attr = obs::attr::stop();
        // Worker-side kernel charges were absorbed under the flush scopes,
        // so the conservation law holds against the caller's metric delta.
        for kind in gpu_sim::ChargeKind::ALL {
            assert_eq!(
                attr.total(kind),
                sim.metrics.get(kind) - before.get(kind),
                "{kind:?}"
            );
        }
        assert!(attr
            .iter()
            .any(|(p, _)| p.starts_with("service/flush/shard")));
    }

    #[test]
    fn invalid_unsized_config_is_rejected_at_construction() {
        let mut cfg = unsized_cfg(1);
        cfg.unsized_table.n_buckets = 0;
        let mut sim = SimContext::new();
        assert!(KvService::new(cfg, &mut sim).is_err());
        // The same bad embedded config is ignored under Tier::Fixed.
        let mut cfg = unsized_cfg(1);
        cfg.unsized_table.n_buckets = 0;
        cfg.tier = Tier::Fixed;
        assert!(KvService::new(cfg, &mut sim).is_ok());
    }

    #[test]
    fn invalid_layout_is_rejected_at_service_construction() {
        let mut cfg = small_cfg(2);
        cfg.table.layout = gpu_sim::LayoutConfig::soa(12, 4, 4); // unsupported width
        let mut sim = SimContext::new();
        let err = match KvService::new(cfg, &mut sim) {
            Ok(_) => panic!("expected layout rejection"),
            Err(e) => e,
        };
        assert!(matches!(err, ServiceError::Table(_)), "unexpected: {err}");
    }
}
