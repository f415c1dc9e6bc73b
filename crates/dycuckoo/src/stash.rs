//! Overflow stash — an implementation of the paper's future-work item.
//!
//! The paper observes (Section "Performance stability") that on several
//! datasets the filled factor drops sharply because "even after one time of
//! upsizing, the insertions fail due to too many evictions and it triggers
//! another round of upsizing. We leave it as a future work."
//!
//! The classic remedy for rare unplaceable keys in cuckoo hashing is a
//! small **stash**: a cache-line-sized side buffer that absorbs operations
//! whose eviction chains exceed the limit, instead of doubling a subtable
//! for the sake of a handful of keys. Find and delete check the stash only
//! when it is non-empty (one extra coalesced read); the table drains the
//! stash back into the subtables after every structural resize, so stash
//! residence is transient.
//!
//! Enabled with [`crate::Config::stash_capacity`] > 0; the default (0)
//! keeps the paper's exact behaviour.

use gpu_sim::RoundCtx;

use crate::subtable::Word;

/// A small side buffer for keys whose eviction chains hit the limit.
#[derive(Debug, Clone)]
pub struct Stash<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
    live: usize,
    /// Keys scanned per coalesced line — comes from the table's
    /// [`gpu_sim::LayoutConfig`], so stash probes are costed under the same
    /// layout as bucket probes.
    keys_per_line: usize,
}

impl<K: Word, V: Word> Stash<K, V> {
    /// Create a stash with room for `capacity` KV pairs, probed
    /// `keys_per_line` keys per read transaction.
    pub fn new(capacity: usize, keys_per_line: usize) -> Self {
        debug_assert!(keys_per_line > 0);
        Self {
            keys: vec![K::EMPTY; capacity],
            vals: vec![V::EMPTY; capacity],
            live: 0,
            keys_per_line,
        }
    }

    /// Capacity in KV pairs.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Live KV pairs currently stashed.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the stash holds no pairs (find/delete skip it entirely).
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of key lines the stash spans (cost of one stash probe).
    fn lines(&self) -> u64 {
        (self.keys.len() as u64)
            .div_ceil(self.keys_per_line as u64)
            .max(1)
    }

    /// Charge a stash probe: the whole stash is a few consecutive lines.
    fn charge_probe(&self, ctx: &mut RoundCtx) {
        for _ in 0..self.lines() {
            ctx.read_bucket();
        }
    }

    /// Try to stash a KV pair. Returns `false` when full.
    pub fn push(&mut self, key: K, val: V, ctx: &mut RoundCtx) -> bool {
        debug_assert_ne!(key, K::EMPTY);
        self.charge_probe(ctx);
        // Update in place if present.
        if let Some(i) = self.keys.iter().position(|&k| k == key) {
            self.vals[i] = val;
            ctx.write_line();
            return true;
        }
        match self.keys.iter().position(|&k| k == K::EMPTY) {
            Some(i) => {
                self.keys[i] = key;
                self.vals[i] = val;
                self.live += 1;
                ctx.write_line();
                true
            }
            None => false,
        }
    }

    /// Look a key up in the stash.
    pub fn find(&self, key: K, ctx: &mut RoundCtx) -> Option<V> {
        if self.is_empty() {
            return None;
        }
        self.charge_probe(ctx);
        self.keys
            .iter()
            .position(|&k| k == key)
            .map(|i| self.vals[i])
    }

    /// Erase a key from the stash; returns whether it was present.
    pub fn erase(&mut self, key: K, ctx: &mut RoundCtx) -> bool {
        if self.is_empty() {
            return false;
        }
        self.charge_probe(ctx);
        match self.keys.iter().position(|&k| k == key) {
            Some(i) => {
                self.keys[i] = K::EMPTY;
                self.live -= 1;
                ctx.write_line();
                true
            }
            None => false,
        }
    }

    /// Update the value of a stashed key; returns whether it was present.
    pub fn update(&mut self, key: K, val: V, ctx: &mut RoundCtx) -> bool {
        if self.is_empty() {
            return false;
        }
        self.charge_probe(ctx);
        match self.keys.iter().position(|&k| k == key) {
            Some(i) => {
                self.vals[i] = val;
                ctx.write_line();
                true
            }
            None => false,
        }
    }

    /// Read-modify-write a stashed key's value; returns whether it was
    /// present. Costs one probe, one value-read line and one write — the
    /// stash analogue of the insert kernel's duplicate-merge path.
    pub fn update_with(&mut self, key: K, f: impl FnOnce(V) -> V, ctx: &mut RoundCtx) -> bool {
        if self.is_empty() {
            return false;
        }
        self.charge_probe(ctx);
        match self.keys.iter().position(|&k| k == key) {
            Some(i) => {
                ctx.read_line();
                self.vals[i] = f(self.vals[i]);
                ctx.write_line();
                true
            }
            None => false,
        }
    }

    /// Drain every stashed pair (after a resize has made room in the
    /// subtables proper).
    pub fn drain(&mut self, ctx: &mut RoundCtx) -> Vec<(K, V)> {
        if self.is_empty() {
            return Vec::new();
        }
        self.charge_probe(ctx);
        let mut out = Vec::with_capacity(self.live);
        for i in 0..self.keys.len() {
            if self.keys[i] != K::EMPTY {
                out.push((self.keys[i], self.vals[i]));
                self.keys[i] = K::EMPTY;
            }
        }
        ctx.write_line();
        self.live = 0;
        out
    }

    /// Device bytes occupied (keys + values).
    pub fn device_bytes(&self) -> u64 {
        self.keys.len() as u64 * (K::BYTES + V::BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Metrics;

    type Stash32 = Stash<u32, u32>;

    fn with_ctx<R>(f: impl FnOnce(&mut RoundCtx) -> R) -> (R, Metrics) {
        let mut m = Metrics::default();
        let ctx = &mut RoundCtx::new(&mut m);
        let r = f(ctx);
        (r, m)
    }

    #[test]
    fn push_find_erase_roundtrip() {
        let mut s = Stash32::new(8, 32);
        let ((), _) = with_ctx(|ctx| {
            assert!(s.push(5, 50, ctx));
            assert_eq!(s.find(5, ctx), Some(50));
            assert_eq!(s.find(6, ctx), None);
            assert!(s.erase(5, ctx));
            assert!(!s.erase(5, ctx));
            assert!(s.is_empty());
        });
    }

    #[test]
    fn push_updates_in_place() {
        let mut s = Stash32::new(4, 32);
        with_ctx(|ctx| {
            assert!(s.push(9, 1, ctx));
            assert!(s.push(9, 2, ctx));
            assert_eq!(s.len(), 1);
            assert_eq!(s.find(9, ctx), Some(2));
        });
    }

    #[test]
    fn full_stash_rejects() {
        let mut s = Stash32::new(2, 32);
        with_ctx(|ctx| {
            assert!(s.push(1, 1, ctx));
            assert!(s.push(2, 2, ctx));
            assert!(!s.push(3, 3, ctx));
            assert_eq!(s.len(), 2);
        });
    }

    #[test]
    fn drain_empties_and_returns_all() {
        let mut s = Stash32::new(8, 32);
        with_ctx(|ctx| {
            for k in 1..=5u32 {
                s.push(k, k * 10, ctx);
            }
            let mut drained = s.drain(ctx);
            drained.sort_unstable();
            assert_eq!(drained, vec![(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]);
            assert!(s.is_empty());
            assert!(s.drain(ctx).is_empty());
        });
    }

    #[test]
    fn empty_stash_probes_are_free() {
        let s = Stash32::new(64, 32);
        let (_, m) = with_ctx(|ctx| s.find(1, ctx));
        assert_eq!(m.read_transactions, 0, "empty stash must cost nothing");
    }

    #[test]
    fn probe_cost_scales_with_capacity() {
        let mut s = Stash32::new(64, 32); // 2 lines
        let (_, m) = with_ctx(|ctx| {
            s.push(1, 1, ctx);
            s.find(1, ctx)
        });
        // push: 2-line probe + 1 write; find: 2-line probe.
        assert_eq!(m.read_transactions, 4);
    }
}
