//! # gpu-sim — a deterministic SIMT execution model
//!
//! This crate is the hardware substrate for the DyCuckoo reproduction. The
//! paper's kernels are written against NVIDIA's CUDA execution model: threads
//! grouped into **warps** of 32 lanes executing in lockstep, cooperating via
//! `__ballot`/`__shfl`, reading device memory in 128-byte **transactions**,
//! and resolving write conflicts with `atomicCAS`/`atomicExch`.
//!
//! Since warp-level CUDA kernels cannot be expressed portably in stable Rust
//! (and this reproduction targets machines without a GPU), we model the GPU
//! deterministically instead of emulating it cycle-accurately:
//!
//! * [`warp`] provides lane masks, `ballot`, and broadcast — the exact
//!   primitives Algorithm 1 of the paper is written in.
//! * [`scheduler`] interleaves many in-flight warps **round by round**, so
//!   that locks held by one warp are observed by every other warp in the same
//!   round: cross-warp contention genuinely occurs and is counted, exactly
//!   like concurrent blocks on a real device.
//! * [`atomic`] implements bucket locks with the paper's
//!   `atomicCAS(&lock,0,1)` / `atomicExch(&lock,0)` semantics, and groups
//!   conflicting atomics to the same address within a round so their
//!   serialization can be charged (the effect profiled in the paper's
//!   "atomic operations vs. conflicts" figure).
//! * [`engine`] provides the shared probe/storage machinery every
//!   bucketized table is built on: typed device buffers with pluggable
//!   bucket layouts (AoS/SoA, swept widths) and layout-aware transaction
//!   accounting.
//! * [`metrics`] counts what the paper's evaluation actually measures:
//!   coalesced read/write transactions, bucket lookups, evictions, lock
//!   failures, and rounds.
//! * [`cost`] converts those counts into simulated nanoseconds with a
//!   roofline model over GTX 1080 constants, yielding the Mops numbers
//!   reported by the experiment harness.
//!
//! The model is **deterministic**: the same inputs produce the same metrics
//! and the same simulated time on every run, which makes the experiment
//! harness reproducible bit-for-bit.

pub mod atomic;
pub mod cost;
pub mod device;
pub mod engine;
pub mod explore;
pub mod metrics;
pub mod scheduler;
pub mod warp;

pub use atomic::{Locks, RoundCtx};
pub use cost::CostModel;
pub use device::{Device, DeviceConfig};
pub use engine::{
    BucketStore, LayoutConfig, LayoutScheme, SlotStore, StripeGuard, StripedRead, StripedStore,
};
pub use explore::{shrink_ops, SchedulePolicy};
pub use metrics::{ChargeKind, Metrics};
pub use scheduler::{
    run_rounds, run_rounds_quantum, run_rounds_with, QuantumOutcome, RoundKernel, StepOutcome,
};
pub use warp::{ballot, broadcast, first_set_lane, lanes, LaneMask, WARP_SIZE};

/// A simulation context bundling the device with the metrics of the kernel
/// currently executing. Hash-table operations take `&mut SimContext` so all
/// cost accounting flows through one place.
#[derive(Debug)]
pub struct SimContext {
    /// The simulated device (configuration + memory accounting).
    pub device: Device,
    /// Running totals for the current measurement window.
    pub metrics: Metrics,
}

impl SimContext {
    /// Create a context for the default device (GTX 1080 constants).
    pub fn new() -> Self {
        Self::with_config(DeviceConfig::default())
    }

    /// Create a context for a custom device configuration.
    pub fn with_config(config: DeviceConfig) -> Self {
        Self {
            device: Device::new(config),
            metrics: Metrics::default(),
        }
    }

    /// Reset the measurement window, returning the metrics accumulated so far.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.metrics)
    }

    /// Simulated wall time of the metrics accumulated so far, in nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        CostModel::new(self.device.config()).kernel_time_ns(&self.metrics)
    }

    /// Throughput in million operations per second for `ops` operations
    /// executed during the current measurement window.
    pub fn mops(&self, ops: u64) -> f64 {
        CostModel::new(self.device.config()).mops(ops, &self.metrics)
    }
}

impl Default for SimContext {
    fn default() -> Self {
        Self::new()
    }
}
