//! # DyCuckoo — dynamic two-layer cuckoo hashing (ICDE 2021), on a SIMT model
//!
//! This crate implements the primary contribution of *DyCuckoo: Dynamic Hash
//! Tables on GPUs* (Li, Zhu, Lyu, Huang, Sun — ICDE 2021) on top of the
//! [`gpu_sim`] execution model:
//!
//! * **`d` cuckoo subtables** with universal hash functions and 32-slot
//!   buckets matching the 128-byte GPU cache line ([`subtable`], [`hashfn`]).
//! * **Two-layer hashing**: the first layer maps every key to one of the
//!   `C(d,2)` subtable *pairs*; the second stores it in one member of the
//!   pair, so find and delete probe at most two buckets regardless of `d`
//!   ([`two_layer`]).
//! * **Voter-coordinated insertion** (Algorithm 1): warps elect a leader
//!   per round, re-vote instead of spinning on contended bucket locks, and
//!   cooperatively probe buckets with single coalesced transactions
//!   ([`ops::insert`]).
//! * **Single-subtable resizing**: when the filled factor leaves `[α, β]`,
//!   the smallest subtable doubles (conflict-free rehash) or the largest
//!   halves (merge + residual re-insertion), keeping every other subtable
//!   online and the size ratio within 2× ([`resize`], [`rehash`]).
//! * **Theorem-1 load balancing**: inserts and evictions are steered with
//!   probability proportional to `n_i / C(m_i,2)` ([`distribute`]).
//! * **Wide KV pairs**: because a warp locks a whole bucket, the same
//!   algorithm serves 8-byte keys and values, 16 per 128-byte line. The
//!   table ([`CuckooTable`]) is generic over its key and value [`Word`]s;
//!   [`DyCuckoo`] and [`WideDyCuckoo`] are its 4- and 8-byte instances.
//!
//! See the repository's `DESIGN.md` for how each paper section maps to a
//! module, and `EXPERIMENTS.md` for the reproduced evaluation.

pub mod config;
pub mod distribute;
pub mod error;
pub mod hashfn;
pub mod host_par;
pub mod ops;
pub mod rehash;
pub mod resize;
pub mod rmw;
pub mod stash;
pub mod stats;
pub mod subtable;
pub mod table;
pub mod two_layer;
pub mod unsized_kv;

pub use config::{
    Config, Coordination, Distribution, DupPolicy, Layering, BUCKET_SLOTS, WIDE_BUCKET_SLOTS,
};
pub use error::{Error, Result};
pub use host_par::{ParReport, ParTable};
pub use resize::ResizeOp;
pub use rmw::MergeRule;
pub use stats::{SubTableStats, TableStats};
pub use subtable::Word;
pub use table::{
    buckets_for_load, mixed_bucket_sizes, BatchReport, CuckooTable, DyCuckoo, ResizeEvent,
    UpsertReport, WideDyCuckoo,
};
pub use unsized_kv::{UnsizedConfig, UnsizedReport, UnsizedStats, UnsizedTable};

/// Width-specific tests of the 64-bit instantiation, [`WideDyCuckoo`]:
/// what the 32-bit tests cannot reach.
#[cfg(test)]
mod wide {
    mod tests;
}
