//! Thread-safe access mode for the bucketized store: flat atomic lanes
//! with one lock per bucket.
//!
//! [`StripedStore`] holds the same logical content as a [`BucketStore`] —
//! bucketed key/value arrays with an optional fingerprint lane, laid out
//! bucket-major with one allocation per lane — but keeps every word in an
//! atomic cell and guards each bucket with its own mutex, so real OS
//! threads can operate on different buckets concurrently. A *stripe* is
//! one bucket: stripe `b` is bucket `b`. This is the storage half of the
//! `host-par` backend: the simulated path keeps using [`BucketStore`]
//! under the round scheduler's `atomicCAS` bucket locks, while the
//! host-parallel path locks a bucket and performs the identical slot
//! transitions under it.
//!
//! ## Locking protocol
//!
//! * Every slot access that can overlap a writer goes through the bucket's
//!   guard ([`StripedStore::lock_stripe`]); writes happen only under it.
//! * Operations that touch several buckets (cuckoo inserts probe every
//!   candidate bucket of a key) must acquire them in **canonical order** —
//!   ascending `(table index, bucket index)` — and never acquire a
//!   lower-ordered bucket while holding a higher one. Callers own this
//!   ordering; `vendor/interleave`'s exhaustive schedule explorer pins the
//!   protocol (canonical order is deadlock-free, the reversed order
//!   deadlocks) and the claim semantics (a slot is claimed only while its
//!   bucket is held, so concurrent inserts cannot lose updates the way the
//!   `inject_lock_elision` fault does).
//! * [`StripedStore::try_lock_stripe`] is the voter-style non-blocking
//!   acquire: `None` when another thread holds the bucket (the host-par
//!   analogue of a failed `atomicCAS` re-vote); the caller counts it and
//!   may go do other work.
//! * Lock-free reads go through a [`StripedRead`], which only
//!   [`StripedStore::read_view`] hands out, and only from `&mut self`:
//!   while a view exists no guard can exist, so no slot can change under
//!   it. This is the paper's find-kernel rule — a find never overlaps an
//!   insert — enforced by the borrow checker instead of a seqlock.
//!
//! ## Memory ordering
//!
//! Every word access — keys, values, fingerprints and the occupancy
//! counter — is `Relaxed`. Writers are ordered by the bucket mutex: its
//! release/acquire pair makes one holder's slot writes visible to the
//! next holder of the same bucket. Phases are ordered by
//! `std::thread::scope` joins plus `&mut self` on every batch call: a
//! spawn happens-after everything its parent did before it, a join
//! happens-after everything the worker did, and `&mut self` means no
//! other batch (and hence no other thread) touches the store meanwhile —
//! so a lock-free read never races a write. The occupancy counter is read
//! mid-phase only to steer placement (Theorem-1 weights bias where a key
//! goes, never whether it is found); its exact value is inspected at
//! those quiesce points.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

use super::layout::LayoutConfig;
use super::store::{BucketStore, SlotWord};

/// A [`SlotWord`] with a same-width atomic cell, so a [`StripedStore`]
/// can share flat lanes between threads without `unsafe`. Every access
/// is `Relaxed`; see the module docs for what orders them.
pub trait AtomicSlot: SlotWord + Send + Sync {
    /// The atomic holding one word.
    type Atomic: Send + Sync + Debug;

    /// A cell holding `self`.
    fn cell(self) -> Self::Atomic;

    /// `Relaxed` load.
    fn load(cell: &Self::Atomic) -> Self;

    /// `Relaxed` store.
    fn store(cell: &Self::Atomic, word: Self);
}

impl AtomicSlot for u32 {
    type Atomic = AtomicU32;

    #[inline]
    fn cell(self) -> AtomicU32 {
        AtomicU32::new(self)
    }

    #[inline]
    fn load(cell: &AtomicU32) -> u32 {
        cell.load(Ordering::Relaxed)
    }

    #[inline]
    fn store(cell: &AtomicU32, word: u32) {
        cell.store(word, Ordering::Relaxed)
    }
}

impl AtomicSlot for u64 {
    type Atomic = AtomicU64;

    #[inline]
    fn cell(self) -> AtomicU64 {
        AtomicU64::new(self)
    }

    #[inline]
    fn load(cell: &AtomicU64) -> u64 {
        cell.load(Ordering::Relaxed)
    }

    #[inline]
    fn store(cell: &AtomicU64, word: u64) {
        cell.store(word, Ordering::Relaxed)
    }
}

/// A bucketized key/value store over flat atomic lanes, one mutex per
/// bucket. Logical slot transitions (`write_new`, `update_val`, `swap`,
/// `erase`) are exactly [`BucketStore`]'s, so a store converted in either
/// direction holds the identical content.
#[derive(Debug)]
pub struct StripedStore<K: AtomicSlot, V: AtomicSlot> {
    /// Bucket-major key lane: slot `s` of bucket `b` is `b * slots + s`.
    keys: Vec<K::Atomic>,
    /// Value lane, indexed like `keys`.
    vals: Vec<V::Atomic>,
    /// Fingerprint lane, indexed like `keys`; empty when the layout
    /// carries none. Invariant (mirrors [`BucketStore`]): a tag of 0 ⟺
    /// an empty slot.
    fps: Vec<AtomicU16>,
    /// Bucket `b`'s lock (stripe `b`).
    locks: Vec<Mutex<()>>,
    layout: LayoutConfig,
    fp_fn: fn(K) -> u64,
    /// Live slots across all buckets.
    occupied: AtomicU64,
}

impl<K: AtomicSlot, V: AtomicSlot> StripedStore<K, V> {
    /// Create an empty store of `n_buckets` buckets under `layout`.
    pub fn new(n_buckets: usize, layout: LayoutConfig) -> Self {
        assert!(n_buckets >= 1, "bucket count must be positive");
        let n = n_buckets * layout.slots;
        let n_fps = if layout.has_fp() { n } else { 0 };
        Self {
            keys: std::iter::repeat_with(|| K::EMPTY.cell()).take(n).collect(),
            vals: std::iter::repeat_with(|| V::EMPTY.cell()).take(n).collect(),
            fps: std::iter::repeat_with(|| AtomicU16::new(0))
                .take(n_fps)
                .collect(),
            locks: std::iter::repeat_with(|| Mutex::new(()))
                .take(n_buckets)
                .collect(),
            layout,
            fp_fn: K::fp_hash,
            occupied: AtomicU64::new(0),
        }
    }

    /// Install a custom fingerprint hash. Must be called before any key
    /// is stored — the lane is not recomputed retroactively.
    pub fn set_fp_fn(&mut self, f: fn(K) -> u64) {
        debug_assert_eq!(self.occupied(), 0, "set_fp_fn on a populated store");
        self.fp_fn = f;
    }

    /// Number of buckets (and of stripes).
    #[inline]
    pub fn n_buckets(&self) -> usize {
        self.locks.len()
    }

    /// The layout this store was created under.
    #[inline]
    pub fn layout(&self) -> &LayoutConfig {
        &self.layout
    }

    /// Slots per bucket.
    #[inline]
    pub fn slots_per_bucket(&self) -> usize {
        self.layout.slots
    }

    /// Total key slots.
    #[inline]
    pub fn capacity_slots(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Live slots. Exact only at quiesce points (no bucket held for
    /// writing elsewhere).
    #[inline]
    pub fn occupied(&self) -> u64 {
        self.occupied.load(Ordering::Relaxed)
    }

    /// Filled factor `θ_i`. Exact only at quiesce points.
    #[inline]
    pub fn fill_factor(&self) -> f64 {
        self.occupied() as f64 / self.capacity_slots() as f64
    }

    /// Device bytes under the layout (same accounting as the bucket
    /// store: padded bucket strides plus one lock word per bucket).
    pub fn device_bytes(&self) -> u64 {
        self.layout.device_bytes_for(self.n_buckets())
    }

    /// Block until bucket `b` is held. Callers locking several buckets
    /// must acquire them in ascending `(table, bucket)` order.
    pub fn lock_stripe(&self, b: usize) -> StripeGuard<'_, K, V> {
        StripeGuard {
            store: self,
            bucket: b,
            _held: self.locks[b].lock().expect("stripe lock poisoned"),
        }
    }

    /// Voter-style non-blocking acquire: `None` when another thread
    /// holds bucket `b`.
    pub fn try_lock_stripe(&self, b: usize) -> Option<StripeGuard<'_, K, V>> {
        match self.locks[b].try_lock() {
            Ok(held) => Some(StripeGuard {
                store: self,
                bucket: b,
                _held: held,
            }),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(_)) => panic!("stripe lock poisoned"),
        }
    }

    /// A lock-free read view. `&mut self` proves no writer exists, and
    /// the view's borrow keeps it that way for as long as the view lives.
    pub fn read_view(&mut self) -> StripedRead<'_, K, V> {
        StripedRead { store: self }
    }

    /// All live `(key, value)` pairs, in bucket-then-slot order.
    /// `&mut self` proves quiescence, so no lock is taken.
    pub fn live_pairs(&mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.occupied() as usize);
        out.extend(self.live_slots().map(|(_, kv)| kv));
        out
    }

    /// Recount occupancy from the key lane (accounting-drift checks).
    pub fn recount(&mut self) -> u64 {
        self.keys
            .iter()
            .filter(|&k| !K::load(k).is_empty_word())
            .count() as u64
    }

    /// Copy this store's content into a fresh [`BucketStore`] (same
    /// layout, same bucket/slot placement). `&mut self` proves quiescence.
    pub fn to_bucket_store(&mut self) -> BucketStore<K, V> {
        let mut out = BucketStore::new(self.n_buckets(), self.layout);
        out.set_fp_fn(self.fp_fn);
        let slots = self.layout.slots;
        for (i, (k, v)) in self.live_slots() {
            out.write_new(i / slots, i % slots, k, v);
        }
        out
    }

    /// Flat index and content of every live slot.
    fn live_slots(&self) -> impl Iterator<Item = (usize, (K, V))> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .enumerate()
            .filter_map(|(i, (k, v))| {
                let k = K::load(k);
                (!k.is_empty_word()).then(|| (i, (k, V::load(v))))
            })
    }

    /// The key lane of bucket `b`.
    #[inline]
    fn bucket_keys(&self, b: usize) -> &[K::Atomic] {
        let lo = b * self.layout.slots;
        &self.keys[lo..lo + self.layout.slots]
    }

    /// The slot in bucket `b` holding `key`, if any.
    #[inline]
    fn find_in(&self, b: usize, key: K) -> Option<usize> {
        self.bucket_keys(b).iter().position(|k| K::load(k) == key)
    }

    /// The lane tag for `key`: the fingerprint hash folded into
    /// `1..=fp_max` (0 marks an empty slot).
    #[inline]
    fn fp_of(&self, key: K) -> u16 {
        ((self.fp_fn)(key) % self.layout.fp_max() + 1) as u16
    }
}

impl<K: AtomicSlot, V: AtomicSlot> BucketStore<K, V> {
    /// Copy this store's content into a thread-safe twin (same layout,
    /// same bucket/slot placement, same fingerprint hash).
    pub fn to_striped(&self) -> StripedStore<K, V> {
        let mut out = StripedStore::new(self.n_buckets(), *self.layout());
        out.set_fp_fn(self.fp_fn());
        for b in 0..self.n_buckets() {
            let mut g = out.lock_stripe(b);
            for (s, &k) in self.bucket_keys(b).iter().enumerate() {
                if !k.is_empty_word() {
                    g.write_new(b, s, k, self.bucket_vals(b)[s]);
                }
            }
        }
        out
    }
}

/// A lock-free read view of a [`StripedStore`]. Only
/// [`StripedStore::read_view`] creates one, from `&mut self`, so holding
/// a view proves no writer exists; it is `Copy`, so every reader thread
/// of a batch can share it.
#[derive(Debug)]
pub struct StripedRead<'a, K: AtomicSlot, V: AtomicSlot> {
    store: &'a StripedStore<K, V>,
}

impl<K: AtomicSlot, V: AtomicSlot> Clone for StripedRead<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K: AtomicSlot, V: AtomicSlot> Copy for StripedRead<'_, K, V> {}

impl<K: AtomicSlot, V: AtomicSlot> StripedRead<'_, K, V> {
    /// Number of buckets.
    #[inline]
    pub fn n_buckets(&self) -> usize {
        self.store.n_buckets()
    }

    /// The value stored under `key` in bucket `b`, if any.
    #[inline]
    pub fn get(&self, b: usize, key: K) -> Option<V> {
        let s = self.store.find_in(b, key)?;
        Some(V::load(&self.store.vals[b * self.store.layout.slots + s]))
    }

    /// The key word at `(b, s)` (the empty sentinel for an empty slot).
    #[inline]
    pub fn key(&self, b: usize, s: usize) -> K {
        K::load(&self.store.keys[b * self.store.layout.slots + s])
    }

    /// The fingerprint tag stored at `(b, s)` as the lane holds it, or
    /// `None` when the layout carries no lane.
    #[inline]
    pub fn fp(&self, b: usize, s: usize) -> Option<u16> {
        let idx = b * self.store.layout.slots + s;
        self.store.fps.get(idx).map(|f| f.load(Ordering::Relaxed))
    }
}

/// Exclusive access to one bucket. All slot writes of the bucket go
/// through this guard; releasing it publishes the writes to the next
/// holder.
#[derive(Debug)]
pub struct StripeGuard<'a, K: AtomicSlot, V: AtomicSlot> {
    store: &'a StripedStore<K, V>,
    bucket: usize,
    _held: MutexGuard<'a, ()>,
}

impl<K: AtomicSlot, V: AtomicSlot> StripeGuard<'_, K, V> {
    /// Flat lane index of `(b, s)`; `b` must be the held bucket.
    #[inline]
    fn idx(&self, b: usize, s: usize) -> usize {
        debug_assert_eq!(b, self.bucket, "bucket not held by this guard");
        debug_assert!(s < self.store.layout.slots);
        b * self.store.layout.slots + s
    }

    /// The slot in bucket `b` holding `key`, if any.
    #[inline]
    pub fn find_slot(&self, b: usize, key: K) -> Option<usize> {
        debug_assert_eq!(b, self.bucket, "bucket not held by this guard");
        self.store.find_in(b, key)
    }

    /// An empty slot in bucket `b`, if any.
    #[inline]
    pub fn find_empty(&self, b: usize) -> Option<usize> {
        self.find_slot(b, K::EMPTY)
    }

    /// Read the KV pair at `(bucket, slot)`.
    #[inline]
    pub fn slot(&self, b: usize, s: usize) -> (K, V) {
        let idx = self.idx(b, s);
        (
            K::load(&self.store.keys[idx]),
            V::load(&self.store.vals[idx]),
        )
    }

    /// Write a KV pair into an **empty** slot, growing the occupancy
    /// count and maintaining the fingerprint lane.
    pub fn write_new(&mut self, b: usize, s: usize, key: K, val: V) {
        let idx = self.idx(b, s);
        let st = self.store;
        debug_assert!(
            K::load(&st.keys[idx]).is_empty_word(),
            "write_new over a live slot"
        );
        debug_assert!(!key.is_empty_word());
        if let Some(fp) = st.fps.get(idx) {
            fp.store(st.fp_of(key), Ordering::Relaxed);
        }
        K::store(&st.keys[idx], key);
        V::store(&st.vals[idx], val);
        st.occupied.fetch_add(1, Ordering::Relaxed);
    }

    /// Overwrite the value of a live slot (in-place update).
    pub fn update_val(&mut self, b: usize, s: usize, val: V) {
        let idx = self.idx(b, s);
        debug_assert!(!K::load(&self.store.keys[idx]).is_empty_word());
        V::store(&self.store.vals[idx], val);
    }

    /// Swap the KV at `(b, s)` with the given pair, returning the evicted
    /// occupant. Occupancy is unchanged; the fingerprint lane follows.
    pub fn swap(&mut self, b: usize, s: usize, key: K, val: V) -> (K, V) {
        let idx = self.idx(b, s);
        let st = self.store;
        let old = (K::load(&st.keys[idx]), V::load(&st.vals[idx]));
        debug_assert!(!old.0.is_empty_word(), "swap with an empty slot");
        if let Some(fp) = st.fps.get(idx) {
            fp.store(st.fp_of(key), Ordering::Relaxed);
        }
        K::store(&st.keys[idx], key);
        V::store(&st.vals[idx], val);
        old
    }

    /// Erase the key at `(b, s)`, shrinking the occupancy count. The
    /// value is deliberately untouched (SoA deletion pays no value
    /// traffic), matching [`BucketStore::erase`].
    pub fn erase(&mut self, b: usize, s: usize) {
        let idx = self.idx(b, s);
        let st = self.store;
        debug_assert!(
            !K::load(&st.keys[idx]).is_empty_word(),
            "erasing an empty slot"
        );
        if let Some(fp) = st.fps.get(idx) {
            fp.store(0, Ordering::Relaxed);
        }
        K::store(&st.keys[idx], K::EMPTY);
        st.occupied.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn store(n_buckets: usize) -> StripedStore<u32, u32> {
        StripedStore::new(n_buckets, LayoutConfig::default())
    }

    #[test]
    fn roundtrip_matches_bucket_store_semantics() {
        let mut t = store(8);
        {
            let mut g = t.lock_stripe(5);
            let s = g.find_empty(5).unwrap();
            g.write_new(5, s, 99, 7);
            assert_eq!(g.find_slot(5, 99), Some(s));
            assert_eq!(g.slot(5, s), (99, 7));
            g.update_val(5, s, 8);
            assert_eq!(g.slot(5, s), (99, 8));
            let old = g.swap(5, s, 100, 9);
            assert_eq!(old, (99, 8));
        }
        assert_eq!(t.occupied(), 1);
        assert_eq!(t.read_view().get(5, 100), Some(9));
        assert_eq!(t.read_view().get(5, 99), None);
        {
            let mut g = t.lock_stripe(5);
            let s = g.find_slot(5, 100).unwrap();
            g.erase(5, s);
        }
        assert_eq!(t.occupied(), 0);
        assert_eq!(t.recount(), 0);
    }

    #[test]
    fn stripe_mapping_partitions_buckets() {
        // One stripe per bucket: holding a bucket blocks only that bucket,
        // and the last bucket is addressable like any other.
        let t = store(7);
        assert_eq!(t.n_buckets(), 7);
        let _g0 = t.lock_stripe(0);
        assert!(t.try_lock_stripe(0).is_none());
        let mut g6 = t.lock_stripe(6);
        g6.write_new(6, 0, 42, 1);
        assert_eq!(g6.find_slot(6, 42), Some(0));
        assert_eq!(g6.slot(6, 0), (42, 1));
    }

    #[test]
    fn fp_lane_tracks_mutations() {
        let mut t: StripedStore<u32, u32> =
            StripedStore::new(4, LayoutConfig::default().with_fp(8));
        let reference: BucketStore<u32, u32> =
            BucketStore::new(4, LayoutConfig::default().with_fp(8));
        {
            let mut g = t.lock_stripe(1);
            g.write_new(1, 3, 42, 7);
            let old = g.swap(1, 3, 99, 8);
            assert_eq!(old, (42, 7));
        }
        // Same tag as the bucket store computes for the key, read straight
        // off the store's own lane.
        assert_eq!(t.read_view().fp(1, 3), Some(reference.fp_of(99)));
        t.lock_stripe(1).erase(1, 3);
        assert_eq!(t.read_view().fp(1, 3), Some(0));
        t.lock_stripe(1).write_new(1, 3, 42, 7);
        assert_eq!(t.read_view().fp(1, 3), Some(reference.fp_of(42)));
        let bs = t.to_bucket_store();
        assert_eq!(bs.bucket_fps(1)[3], reference.fp_of(42));
        // A layout without a lane reports no tags.
        assert_eq!(store(4).read_view().fp(1, 3), None);
    }

    #[test]
    fn conversions_preserve_placement_and_content() {
        let mut bs: BucketStore<u32, u32> = BucketStore::new(6, LayoutConfig::default());
        for k in 1..=50u32 {
            let b = (k % 6) as usize;
            if let Some(s) = bs.find_empty(b) {
                bs.write_new(b, s, k, k * 3);
            }
        }
        let mut striped = bs.to_striped();
        assert_eq!(striped.occupied(), bs.occupied());
        let back = striped.to_bucket_store();
        assert_eq!(back.occupied(), bs.occupied());
        for b in 0..6 {
            assert_eq!(back.bucket_keys(b), bs.bucket_keys(b), "bucket {b}");
            assert_eq!(back.bucket_vals(b), bs.bucket_vals(b), "bucket {b}");
        }
    }

    #[test]
    fn try_lock_fails_only_on_a_held_stripe() {
        let t = store(4);
        let g = t.lock_stripe(0);
        assert!(t.try_lock_stripe(0).is_none());
        assert!(t.try_lock_stripe(1).is_some());
        drop(g);
        assert!(t.try_lock_stripe(0).is_some());
    }

    #[test]
    fn threads_on_disjoint_stripes_do_not_lose_updates() {
        let t = store(8);
        std::thread::scope(|scope| {
            for thread in 0..4usize {
                let t = &t;
                scope.spawn(move || {
                    // Each thread owns buckets {2·thread, 2·thread + 1}.
                    for i in 0..40u32 {
                        let b = thread * 2 + (i % 2) as usize;
                        let key = 1 + thread as u32 * 1000 + i;
                        let mut g = t.lock_stripe(b);
                        if let Some(s) = g.find_empty(b) {
                            g.write_new(b, s, key, i);
                        }
                    }
                });
            }
        });
        let mut t = t;
        assert_eq!(t.occupied(), 4 * 40);
        assert_eq!(t.recount(), 4 * 40);
        assert_eq!(t.live_pairs().len(), 4 * 40);
    }

    #[test]
    fn contending_threads_on_one_stripe_serialize() {
        let t = store(2);
        std::thread::scope(|scope| {
            for thread in 0..4u32 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..8u32 {
                        // Every thread writes bucket 0: each write contends.
                        let key = 1 + thread * 100 + i;
                        loop {
                            // Voter-style: retry on a contended bucket.
                            let Some(mut g) = t.try_lock_stripe(0) else {
                                std::hint::spin_loop();
                                continue;
                            };
                            if let Some(s) = g.find_empty(0) {
                                g.write_new(0, s, key, i);
                            }
                            break;
                        }
                    }
                });
            }
        });
        let mut t = t;
        // 32 slots in bucket 0; all 32 distinct keys must have landed.
        assert_eq!(t.recount(), 32);
        assert_eq!(t.occupied(), 32);
        assert_eq!(t.read_view().get(0, 1 + 3 * 100 + 7), Some(7));
    }

    #[test]
    fn readers_sharing_one_view_see_exactly_the_written_map() {
        let mut t = store(16);
        let mut want: HashMap<u32, u32> = HashMap::new();
        std::thread::scope(|scope| {
            for thread in 0..4u32 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..60u32 {
                        let key = 1 + thread * 1000 + i;
                        let b = (key as usize * 7) % 16;
                        let mut g = t.lock_stripe(b);
                        let s = g.find_empty(b).expect("16 × 32 slots hold 240 keys");
                        g.write_new(b, s, key, key ^ 0xABCD);
                    }
                });
            }
        });
        for thread in 0..4u32 {
            for i in 0..60u32 {
                let key = 1 + thread * 1000 + i;
                want.insert(key, key ^ 0xABCD);
            }
        }
        let view = t.read_view();
        let seen: Vec<HashMap<u32, u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut got = HashMap::new();
                        for b in 0..view.n_buckets() {
                            for s in 0..LayoutConfig::default().slots {
                                let k = view.key(b, s);
                                if k != 0 {
                                    got.insert(k, view.get(b, k).expect("a listed key reads"));
                                }
                            }
                        }
                        // Absent keys miss.
                        assert_eq!(view.get(0, 999_999), None);
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader panicked"))
                .collect()
        });
        for got in seen {
            assert_eq!(got, want);
        }
    }
}
