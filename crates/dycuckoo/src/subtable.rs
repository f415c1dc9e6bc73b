//! One cuckoo subtable `h^i`: bucketed key and value arrays plus per-bucket
//! locks, and the [`Word`] trait the table is generic over.
//!
//! Storage and transaction accounting live in the shared probe/storage
//! engine ([`gpu_sim::engine`]); a subtable is the engine's
//! [`BucketStore`] instantiated for the table's key and value words.
//! Under the default layout (the paper's Figure "hash table structure"):
//!
//! * keys of one bucket are stored consecutively — 32 four-byte keys fill
//!   exactly one 128-byte line, so one warp probes a bucket with a single
//!   coalesced transaction (16 eight-byte keys under the wide layout);
//! * values live in a **separate** array so operations that do not need
//!   them (missed finds, deletes) touch no value lines;
//! * each bucket has a lock flag driven by `atomicCAS`/`atomicExch`.
//!
//! Key 0 is the empty-slot sentinel. Non-default layouts (AoS,
//! 8/16-slot buckets) change the geometry and the per-operation line
//! counts, not the placement logic.

use gpu_sim::engine::SlotWord;
use gpu_sim::BucketStore;

use crate::hashfn::splitmix64;

/// A key or value word of a [`crate::CuckooTable`]. The engine's
/// [`SlotWord`] supplies the empty sentinel and the byte width; this trait
/// adds only what the 32- and 64-bit instantiations differ in.
pub trait Word: SlotWord + Default + Ord + std::hash::Hash + Into<u64> {
    /// The unit the `Count` merge rule adds.
    const ONE: Self;

    /// The 32-bit route value every hash function, the first-layer pair
    /// hash, the migration view and the Theorem-1 coin flips consume.
    fn route(self) -> u32;

    /// Wrapping addition (the `Add` and `Count` merge rules).
    fn wrapping_add(self, other: Self) -> Self;
}

impl Word for u32 {
    const ONE: Self = 1;

    /// The paper's keys are their own route value.
    #[inline]
    fn route(self) -> u32 {
        self
    }

    #[inline]
    fn wrapping_add(self, other: Self) -> Self {
        u32::wrapping_add(self, other)
    }
}

impl Word for u64 {
    const ONE: Self = 1;

    /// A full-avalanche fold, so both halves of the key contribute.
    #[inline]
    fn route(self) -> u32 {
        (splitmix64(self) >> 16) as u32
    }

    #[inline]
    fn wrapping_add(self, other: Self) -> Self {
        u64::wrapping_add(self, other)
    }
}

/// A single subtable: the engine's bucket store over the table's words
/// (4-byte keys and values unless stated otherwise).
pub type SubTable<K = u32, V = u32> = BucketStore<K, V>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BUCKET_SLOTS;
    use gpu_sim::LayoutConfig;

    fn sub(n_buckets: usize) -> SubTable {
        SubTable::new(n_buckets, LayoutConfig::default())
    }

    #[test]
    fn new_table_is_empty() {
        let t = sub(8);
        assert_eq!(t.n_buckets(), 8);
        assert_eq!(t.capacity_slots(), 8 * 32);
        assert_eq!(t.occupied(), 0);
        assert_eq!(t.fill_factor(), 0.0);
        assert!(t.find_empty(0).is_some());
        assert!(t.find_slot(0, 42).is_none());
    }

    #[test]
    fn write_find_erase_roundtrip() {
        let mut t = sub(4);
        let s = t.find_empty(2).unwrap();
        t.write_new(2, s, 99, 7);
        assert_eq!(t.occupied(), 1);
        let found = t.find_slot(2, 99).unwrap();
        assert_eq!(t.slot(2, found), (99, 7));
        t.erase(2, found);
        assert_eq!(t.occupied(), 0);
        assert!(t.find_slot(2, 99).is_none());
    }

    #[test]
    fn swap_returns_old_pair_and_keeps_occupancy() {
        let mut t = sub(2);
        t.write_new(1, 0, 5, 50);
        let old = t.swap(1, 0, 6, 60);
        assert_eq!(old, (5, 50));
        assert_eq!(t.slot(1, 0), (6, 60));
        assert_eq!(t.occupied(), 1);
    }

    #[test]
    fn update_val_changes_value_only() {
        let mut t = sub(2);
        t.write_new(0, 3, 11, 1);
        t.update_val(0, 3, 2);
        assert_eq!(t.slot(0, 3), (11, 2));
        assert_eq!(t.occupied(), 1);
    }

    #[test]
    fn fill_factor_and_recount_agree() {
        let mut t = sub(2);
        for i in 0..10u32 {
            let b = (i % 2) as usize;
            let s = t.find_empty(b).unwrap();
            t.write_new(b, s, i + 1, i);
        }
        assert_eq!(t.occupied(), 10);
        assert_eq!(t.recount(), 10);
        assert!((t.fill_factor() - 10.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn full_bucket_has_no_empty_slot() {
        let mut t = sub(1);
        for i in 0..BUCKET_SLOTS as u32 {
            let s = t.find_empty(0).unwrap();
            t.write_new(0, s, i + 1, 0);
        }
        assert!(t.find_empty(0).is_none());
    }

    #[test]
    fn iter_live_yields_all_pairs() {
        let mut t = sub(2);
        t.write_new(0, 0, 1, 10);
        t.write_new(1, 5, 2, 20);
        let mut live: Vec<_> = t.iter_live().collect();
        live.sort_unstable();
        assert_eq!(live, vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn device_bytes_counts_keys_values_locks() {
        let t = sub(4);
        assert_eq!(t.device_bytes(), (4 * 32 * 8 + 4 * 4) as u64);
        assert_eq!(
            LayoutConfig::default().device_bytes_for(4),
            t.device_bytes()
        );
    }

    #[test]
    fn narrow_layouts_shrink_the_footprint() {
        let aos16: SubTable = SubTable::new(8, LayoutConfig::aos(16, 4, 4));
        let soa32 = sub(8);
        assert_eq!(aos16.capacity_slots(), 8 * 16);
        assert!(aos16.device_bytes() < soa32.device_bytes());
    }
}
