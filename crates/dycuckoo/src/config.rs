//! Configuration of a [`crate::DyCuckoo`] table.

use gpu_sim::engine::SlotWord;
use gpu_sim::{LayoutConfig, SchedulePolicy};

use crate::error::Error;

/// Number of key slots per bucket under the default layout. The paper
/// sizes buckets so that 32 four-byte keys fill one 128-byte cache line,
/// letting one warp probe a whole bucket with a single coalesced
/// transaction. Non-default [`Config::layout`] values sweep other widths.
pub const BUCKET_SLOTS: usize = 32;

/// Key slots per bucket under the wide table's layout: "suppose the keys
/// are 8 bytes, a bucket can then accommodate 16 KV pairs" — 16 eight-byte
/// keys fill one 128-byte line.
pub const WIDE_BUCKET_SLOTS: usize = 16;

/// How duplicate keys are handled by `insert`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DupPolicy {
    /// Library semantics: a fresh insert first probes both buckets of the
    /// key's first-layer pair; if the key exists anywhere, its value is
    /// updated in place. Guarantees each key resides in at most one slot.
    Upsert,
    /// Paper semantics (Algorithm 1): only the single bucket being inserted
    /// into is inspected for a match. A key already stored in the *other*
    /// subtable of its pair is not detected, which mirrors the original
    /// kernels' cost profile exactly. Used by the experiment harness.
    PaperInsert,
}

/// How keys are mapped to candidate subtables — the paper's two-layer
/// scheme and the two alternatives it argues against (Section "The
/// Two-layer Approach"), kept for ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layering {
    /// The paper's scheme: a first-layer hash picks one of the `C(d,2)`
    /// subtable pairs; the key lives in one member. ≤ 2 lookups, and any
    /// subtable can absorb skew.
    TwoLayer,
    /// Partition-into-pairs: the first layer picks one of `d/2` *disjoint*
    /// pairs. Still ≤ 2 lookups, but a partition's load cannot spill into
    /// other subtables — the skew problem the paper calls out. Requires an
    /// even `d`.
    DisjointPairs,
    /// Plain d-ary cuckoo: a key may live in any subtable, so find and
    /// delete probe up to `d` buckets.
    PlainD,
}

/// How a warp reacts to a failed bucket-lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coordination {
    /// The paper's voter scheme: re-vote a different leader and come back
    /// to the contended bucket later.
    Voter,
    /// Spin on the same bucket until the lock is acquired (the direct
    /// warp-centric approach the paper argues against).
    Spin,
}

/// How an insert choosing between the two subtables of a pair (and an
/// eviction choosing its victim) is steered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Theorem 1 of the paper: pick subtable `i` with probability
    /// proportional to `n_i / C(m_i, 2)`, equalizing expected conflicts.
    Balanced,
    /// Uniform random choice (ablation baseline).
    Uniform,
}

/// Tunable parameters of a DyCuckoo table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Number of subtables `d` (the paper's default for the evaluation is 4).
    pub num_tables: usize,
    /// Initial number of buckets per subtable. Even counts are
    /// recommended: a subtable with an odd bucket count cannot be halved
    /// cleanly, so it stops downsizing at that size.
    pub initial_buckets: usize,
    /// Lower bound `α` on the overall filled factor; falling below triggers
    /// a downsize of the largest subtable.
    pub alpha: f64,
    /// Upper bound `β` on the overall filled factor; exceeding it triggers
    /// an upsize of the smallest subtable.
    pub beta: f64,
    /// Maximum cuckoo evictions per insert before the operation is declared
    /// failed (which triggers an upsize and a retry).
    pub eviction_limit: u32,
    /// Seed for hash-function parameters and distribution coin flips.
    pub seed: u64,
    /// Duplicate-key handling.
    pub dup_policy: DupPolicy,
    /// Insert/eviction steering strategy.
    pub distribution: Distribution,
    /// Key-to-subtable mapping scheme.
    pub layering: Layering,
    /// Lock-contention reaction.
    pub coordination: Coordination,
    /// Whether a fresh insert may try its remaining candidate buckets
    /// before evicting (standard bucketized-cuckoo practice; default).
    /// `false` reproduces Algorithm 1 literally: the chosen bucket is
    /// inspected once and a full bucket evicts immediately.
    pub reroute_before_evict: bool,
    /// Capacity of the overflow stash (see [`crate::stash`]) that absorbs
    /// failed eviction chains instead of cascading upsizes — this crate's
    /// implementation of the paper's future-work item. 0 (the default)
    /// disables it, reproducing the paper's exact behaviour.
    pub stash_capacity: usize,
    /// Within-round warp ordering for every kernel launch this table
    /// performs. The default fixed order is what the experiment harness
    /// measures; the exploration harness sweeps the other policies.
    pub schedule: SchedulePolicy,
    /// Bucket memory layout (scheme × width) for every subtable. The
    /// default — split arrays, 32 four-byte slots — is the paper's layout
    /// and charges exactly the transaction sequence the original kernels
    /// did; other layouts re-cost the same logical execution (see
    /// `gpu_sim::engine::layout`).
    pub layout: LayoutConfig,
    /// Fault injection for the exploration harness: when set, the insert
    /// kernel skips bucket locking and operates on stale bucket snapshots
    /// (held for a whole kernel launch), recreating the classic "two
    /// threads claim the same empty slot" lost-update race. Exists so the
    /// oracle + shrinker can be
    /// demonstrated against a real bug; never enable outside tests.
    pub inject_lock_elision: bool,
    /// Maximum buckets rehashed per migration quantum. The default,
    /// `usize::MAX`, performs each structural resize as one stop-the-world
    /// pass inside the triggering batch — the paper's behaviour, preserved
    /// bit-for-bit. Any finite value turns resizes into an incremental
    /// migration: the [`crate::table::MigrationMachine`] drains at most
    /// this many buckets per quantum while foreground operations keep
    /// serving from a coherent old/new view (see `table/migration.rs`).
    pub migration_quantum: usize,
    /// Resize hysteresis: after a resize in one direction, a resize in the
    /// *opposite* direction is suppressed until this many batches have
    /// completed. 0 (the default) disables hysteresis, reproducing the
    /// historical decide-every-batch behaviour. Same-direction resizes are
    /// never suppressed — convergence under sustained growth or shrinkage
    /// is unaffected.
    pub resize_cooldown: u32,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            num_tables: 4,
            initial_buckets: 64,
            alpha: 0.30,
            beta: 0.85,
            eviction_limit: 64,
            seed: 0xDC0C_2021,
            dup_policy: DupPolicy::Upsert,
            distribution: Distribution::Balanced,
            layering: Layering::TwoLayer,
            coordination: Coordination::Voter,
            reroute_before_evict: true,
            stash_capacity: 0,
            schedule: SchedulePolicy::FixedOrder,
            layout: LayoutConfig::soa(BUCKET_SLOTS, 4, 4),
            inject_lock_elision: false,
            migration_quantum: usize::MAX,
            resize_cooldown: 0,
        }
    }
}

impl Config {
    /// Validate the configuration, returning a descriptive error for any
    /// parameter combination that cannot work.
    pub fn validate(&self) -> Result<(), Error> {
        if self.num_tables < 2 || self.num_tables > 16 {
            return Err(Error::InvalidConfig(format!(
                "num_tables must be in 2..=16, got {}",
                self.num_tables
            )));
        }
        if self.initial_buckets == 0 {
            return Err(Error::InvalidConfig(
                "initial_buckets must be positive".to_string(),
            ));
        }
        if !(0.0..1.0).contains(&self.alpha) || !(0.0..=1.0).contains(&self.beta) {
            return Err(Error::InvalidConfig(format!(
                "filled-factor bounds must lie in [0,1): alpha={}, beta={}",
                self.alpha, self.beta
            )));
        }
        // Resizing must converge: one upsize from θ slightly above β lands at
        // θ·(d+d')/(d+d'+1) ≥ β·d/(d+1), which must still exceed α, and the
        // mirror condition holds for downsizing. Both reduce to the bound
        // below (Section "Filled factor analysis" of the paper).
        let d = self.num_tables as f64;
        if self.alpha >= self.beta * d / (d + 1.0) {
            return Err(Error::InvalidConfig(format!(
                "alpha ({}) must be below beta·d/(d+1) = {:.3} for resizing to converge",
                self.alpha,
                self.beta * d / (d + 1.0)
            )));
        }
        if self.layering == Layering::DisjointPairs && !self.num_tables.is_multiple_of(2) {
            return Err(Error::InvalidConfig(format!(
                "DisjointPairs layering needs an even number of subtables, got {}",
                self.num_tables
            )));
        }
        if self.eviction_limit == 0 {
            return Err(Error::InvalidConfig(
                "eviction_limit must be positive".to_string(),
            ));
        }
        if let Err(e) = self.layout.validate() {
            return Err(Error::InvalidConfig(e));
        }
        if self.migration_quantum == 0 {
            return Err(Error::InvalidConfig(
                "migration_quantum must be positive (usize::MAX = stop-the-world)".to_string(),
            ));
        }
        if self.stash_capacity > 4096 {
            return Err(Error::InvalidConfig(format!(
                "stash_capacity {} is unreasonably large (max 4096); a stash                  is a cache-line-scale overflow buffer",
                self.stash_capacity
            )));
        }
        Ok(())
    }

    /// Check the layout's word widths against a table's key and value
    /// words — the one width check every table constructor runs after
    /// [`Self::validate`], so a 4-byte layout cannot build a wide table
    /// and vice versa.
    pub fn check_words<K: SlotWord, V: SlotWord>(&self) -> Result<(), Error> {
        if self.layout.key_bytes != K::BYTES || self.layout.val_bytes != V::BYTES {
            return Err(Error::InvalidConfig(format!(
                "this table stores {}-byte keys and {}-byte values; layout declares {}/{}",
                K::BYTES,
                V::BYTES,
                self.layout.key_bytes,
                self.layout.val_bytes
            )));
        }
        Ok(())
    }

    /// Number of first-layer pairs, `C(d, 2)`.
    pub fn num_pairs(&self) -> usize {
        self.num_tables * (self.num_tables - 1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        Config::default().validate().unwrap();
    }

    #[test]
    fn rejects_single_table() {
        let cfg = Config {
            num_tables: 1,
            ..Config::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_buckets() {
        let cfg = Config {
            initial_buckets: 0,
            ..Config::default()
        };
        assert!(cfg.validate().is_err());
        // Non-power-of-two counts are fine: the hash reduces modulo n.
        let cfg = Config {
            initial_buckets: 48,
            ..Config::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn rejects_overlapping_bounds() {
        // α too close to β for d = 2: one upsize would immediately allow a
        // downsize, ping-ponging forever.
        let cfg = Config {
            num_tables: 2,
            alpha: 0.60,
            beta: 0.85,
            ..Config::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn paper_default_parameters_are_valid() {
        // Table "Parameters": α = 30%, β = 85%, d = 4.
        let cfg = Config {
            num_tables: 4,
            alpha: 0.30,
            beta: 0.85,
            ..Config::default()
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.num_pairs(), 6);
    }

    #[test]
    fn disjoint_pairs_needs_even_d() {
        let cfg = Config {
            num_tables: 5,
            layering: Layering::DisjointPairs,
            ..Config::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = Config {
            num_tables: 6,
            layering: Layering::DisjointPairs,
            ..Config::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn rejects_bad_layouts() {
        let cfg = Config {
            layout: LayoutConfig::soa(12, 4, 4),
            ..Config::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = Config {
            layout: LayoutConfig::aos(16, 8, 8),
            ..Config::default()
        };
        cfg.validate().unwrap();
        assert!(
            cfg.check_words::<u32, u32>().is_err(),
            "8-byte words are the wide table's"
        );
        cfg.check_words::<u64, u64>().unwrap();
        let cfg = Config {
            layout: LayoutConfig::aos(16, 4, 4),
            ..Config::default()
        };
        cfg.validate().unwrap();
        cfg.check_words::<u32, u32>().unwrap();
        assert!(cfg.check_words::<u64, u64>().is_err());
    }

    #[test]
    fn num_pairs_matches_binomial() {
        for d in 2..8 {
            let cfg = Config {
                num_tables: d,
                ..Config::default()
            };
            assert_eq!(cfg.num_pairs(), d * (d - 1) / 2);
        }
    }
}
