//! # engine — the shared probe/storage engine
//!
//! Every bucketized hash table in the workspace is the same machine wearing
//! different policy: bucketed key/value arrays probed warp-cooperatively,
//! guarded by per-bucket locks, charged by the 128-byte line. This module
//! is that machine, factored out once:
//!
//! * [`layout`] — pluggable bucket layouts ([`LayoutConfig`]): interleaved
//!   AoS vs split-array SoA, bucket widths of 8/16/32 slots, and the
//!   transaction-accounting rules each combination implies.
//! * [`store`] — typed device buffers: the bucketized [`BucketStore`] and
//!   the flat [`SlotStore`] used by per-slot baselines.
//! * [`probe`] — warp packing, voter rotation after failed lock
//!   acquisitions, and the randomized index selection behind
//!   eviction-destination steering.
//! * [`sizing`] — capacity sizing (buckets for a target filled factor)
//!   shared by all schemes and bucket widths.
//! * [`striped`] — the thread-safe access mode of the bucketized store
//!   (flat atomic lanes, one lock per bucket, lock-free read views) that
//!   the `host-par` backend runs real OS threads against (the sim path
//!   keeps the round scheduler's atomic locks).
//!
//! The default layout reproduces the pre-engine accounting exactly, so the
//! schedule-fuzz digests and telemetry snapshots pin the refactor as
//! behaviour-preserving; non-default layouts turn memory layout into a
//! benchmarkable axis (`bench --bin layout_sweep`).

pub mod layout;
pub mod probe;
pub mod sizing;
pub mod store;
pub mod striped;

pub use layout::{Aos, BucketLayout, LayoutConfig, LayoutScheme, Soa, LINE_BYTES, LOCK_BYTES};
pub use probe::{nth_active_lane, pack_warps, rotated_index, weighted_index};
pub use sizing::{buckets_for_load, mixed_bucket_sizes};
pub use store::{BucketStore, SlotStore, SlotWord};
pub use striped::{AtomicSlot, StripeGuard, StripedRead, StripedStore};
