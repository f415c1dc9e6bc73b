//! Snapshot statistics of a table, used by the experiment harness to track
//! filled factors and memory footprints over dynamic workloads, and the
//! per-subtable numbers the resize policy ([`crate::resize`]) reads.

use gpu_sim::engine::SlotWord;
use gpu_sim::BucketStore;

/// Statistics of one subtable.
#[derive(Debug, Clone, PartialEq)]
pub struct SubTableStats {
    /// Number of buckets.
    pub n_buckets: usize,
    /// Occupied slots (`m_i`).
    pub occupied: u64,
    /// Capacity in slots (`n_i`).
    pub capacity_slots: u64,
    /// Filled factor `θ_i`.
    pub fill: f64,
}

impl SubTableStats {
    /// The statistics of one subtable store.
    pub fn of<K: SlotWord, V: SlotWord>(t: &BucketStore<K, V>) -> Self {
        Self {
            n_buckets: t.n_buckets(),
            occupied: t.occupied(),
            capacity_slots: t.capacity_slots(),
            fill: t.fill_factor(),
        }
    }
}

/// Statistics of the whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Number of subtables `d`.
    pub num_tables: usize,
    /// Total occupied slots.
    pub occupied: u64,
    /// Total capacity in slots.
    pub capacity_slots: u64,
    /// Overall filled factor `θ`.
    pub fill: f64,
    /// Device bytes held by the table.
    pub device_bytes: u64,
    /// Per-subtable breakdown.
    pub per_table: Vec<SubTableStats>,
}
