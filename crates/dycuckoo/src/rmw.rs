//! Read-modify-write merge rules for the unified batch-op pipeline.
//!
//! An `upsert_with` batch op generalizes insert: if the key is absent the
//! table stores `rule.initial(arg)`; if the key is present the table stores
//! `rule.merge(old, arg)` *inside the same claim critical section* the
//! insert kernel already holds (bucket lock on the sim tier, stripe guards
//! on the host-par tier). Every rule is a pure function of `(old, arg)`, so
//! the op stays deterministic, serializable into RON fuzz repros, and
//! replayable by the differential oracle's `BTreeMap` reference model.
//!
//! The rules are generic over the table's value [`Word`], so the 32- and
//! 64-bit tables share one algebra (the unsized tier's byte strings have
//! their own `*_bytes` forms).
//!
//! `LastWrite` is the degenerate rule under which `upsert_with` is exactly
//! the existing insert (`DupPolicy::Upsert`) — the plain insert path is the
//! `LastWrite` instance of this pipeline and charges identically.

use crate::subtable::Word;

/// A deterministic merge rule applied when an upsert finds its key present.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MergeRule {
    /// `merge(old, arg) = arg`: plain insert-or-overwrite. The identity
    /// rule — an upsert with `LastWrite` is bit-identical to an insert.
    #[default]
    LastWrite,
    /// `merge(old, arg) = old + arg` (wrapping): per-key accumulator.
    Add,
    /// `merge(old, arg) = max(old, arg)`.
    Max,
    /// `merge(old, arg) = min(old, arg)`.
    Min,
    /// Counting-table rule: the argument is ignored; an absent key starts
    /// at 1 and every further upsert adds 1. `increment(key)` is
    /// `upsert_with(key, _, Count)`.
    Count,
}

impl MergeRule {
    /// The value stored when the key is absent.
    #[inline]
    pub fn initial<W: Word>(self, arg: W) -> W {
        match self {
            MergeRule::LastWrite | MergeRule::Add | MergeRule::Max | MergeRule::Min => arg,
            MergeRule::Count => W::ONE,
        }
    }

    /// The value stored when the key is present with value `old`.
    #[inline]
    pub fn merge<W: Word>(self, old: W, arg: W) -> W {
        match self {
            MergeRule::LastWrite => arg,
            MergeRule::Add => old.wrapping_add(arg),
            MergeRule::Max => old.max(arg),
            MergeRule::Min => old.min(arg),
            MergeRule::Count => old.wrapping_add(W::ONE),
        }
    }

    /// Byte-string analogue of [`MergeRule::initial`] for the unsized
    /// tier: `Add`/`Count` normalize the value to an 8-byte little-endian
    /// counter; the other rules store the argument bytes as-is.
    pub fn initial_bytes(self, arg: &[u8]) -> Vec<u8> {
        match self {
            MergeRule::LastWrite | MergeRule::Max | MergeRule::Min => arg.to_vec(),
            MergeRule::Add => counter_of(arg).to_le_bytes().to_vec(),
            MergeRule::Count => 1u64.to_le_bytes().to_vec(),
        }
    }

    /// Byte-string analogue of [`MergeRule::merge`]: `LastWrite` replaces,
    /// `Add`/`Count` add little-endian u64 counters, `Max`/`Min` keep the
    /// lexicographically larger/smaller byte string.
    pub fn merge_bytes(self, old: &[u8], arg: &[u8]) -> Vec<u8> {
        match self {
            MergeRule::LastWrite => arg.to_vec(),
            MergeRule::Add => counter_of(old)
                .wrapping_add(counter_of(arg))
                .to_le_bytes()
                .to_vec(),
            MergeRule::Max => std::cmp::max(old, arg).to_vec(),
            MergeRule::Min => std::cmp::min(old, arg).to_vec(),
            MergeRule::Count => counter_of(old).wrapping_add(1).to_le_bytes().to_vec(),
        }
    }

    /// Whether the merge must *read* the old value. `LastWrite` blind-writes
    /// (the existing insert's charge profile); every other rule costs one
    /// value read on the duplicate path.
    #[inline]
    pub fn reads_old(self) -> bool {
        !matches!(self, MergeRule::LastWrite)
    }

    /// Whether a batch of upserts under this rule commutes: any submission
    /// order yields the same final map. (`LastWrite` depends on order.)
    #[inline]
    pub fn is_commutative(self) -> bool {
        !matches!(self, MergeRule::LastWrite)
    }

    /// Stable lowercase name (RON repros, trace exporters, snapshots).
    pub fn name(self) -> &'static str {
        match self {
            MergeRule::LastWrite => "last_write",
            MergeRule::Add => "add",
            MergeRule::Max => "max",
            MergeRule::Min => "min",
            MergeRule::Count => "count",
        }
    }

    /// Parse a [`MergeRule::name`] back; `None` for unknown strings.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "last_write" => MergeRule::LastWrite,
            "add" => MergeRule::Add,
            "max" => MergeRule::Max,
            "min" => MergeRule::Min,
            "count" => MergeRule::Count,
            _ => return None,
        })
    }

    /// Every rule, in a stable order (sweep drivers, fuzz generators).
    pub const ALL: [MergeRule; 5] = [
        MergeRule::LastWrite,
        MergeRule::Add,
        MergeRule::Max,
        MergeRule::Min,
        MergeRule::Count,
    ];

    /// Fold two *pending* upserts of the same rule into one, where the
    /// algebra allows it: `merge(merge(v, a), b) = merge(v, fold(a, b))`.
    /// Returns `None` when the pair cannot be folded into a single op of
    /// the same rule (never happens for the stock rules, but the batcher
    /// treats `None` as "keep both").
    pub fn fold_args<W: Word>(self, first: W, second: W) -> Option<W> {
        Some(match self {
            MergeRule::LastWrite => second,
            MergeRule::Add => first.wrapping_add(second),
            MergeRule::Max => first.max(second),
            MergeRule::Min => first.min(second),
            // Count ignores its argument; two counts are two increments,
            // which the batcher represents by re-expressing the pair as a
            // single Count whose *effect* is +2 only via the chain — so a
            // bare fold is not possible. (See `service::batcher`.)
            MergeRule::Count => return None,
        })
    }

    /// Apply a whole pending chain of `(rule, arg)` upserts to an optional
    /// current value, in order. `None` means the key is absent.
    pub fn apply_chain<W: Word>(chain: &[(MergeRule, W)], mut cur: Option<W>) -> Option<W> {
        for &(rule, arg) in chain {
            cur = Some(match cur {
                None => rule.initial(arg),
                Some(old) => rule.merge(old, arg),
            });
        }
        cur
    }
}

/// A byte value viewed as a little-endian u64 counter (zero-padded;
/// bytes past the eighth are ignored).
fn counter_of(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    for (i, &b) in bytes.iter().take(8).enumerate() {
        w[i] = b;
    }
    u64::from_le_bytes(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_counters_add_and_compare() {
        let one = MergeRule::Count.initial_bytes(b"ignored");
        assert_eq!(one, 1u64.to_le_bytes().to_vec());
        let two = MergeRule::Count.merge_bytes(&one, b"x");
        assert_eq!(two, 2u64.to_le_bytes().to_vec());
        let sum = MergeRule::Add.merge_bytes(&5u64.to_le_bytes(), &7u64.to_le_bytes());
        assert_eq!(sum, 12u64.to_le_bytes().to_vec());
        assert_eq!(MergeRule::Max.merge_bytes(b"abc", b"abd"), b"abd".to_vec());
        assert_eq!(MergeRule::Min.merge_bytes(b"abc", b""), Vec::<u8>::new());
    }

    #[test]
    fn last_write_is_identity_insert() {
        assert_eq!(MergeRule::LastWrite.initial(7u32), 7);
        assert_eq!(MergeRule::LastWrite.merge(3u32, 7), 7);
        assert!(!MergeRule::LastWrite.reads_old());
    }

    #[test]
    fn count_ignores_argument() {
        assert_eq!(MergeRule::Count.initial(99u32), 1);
        assert_eq!(MergeRule::Count.merge(4u32, 99), 5);
        assert_eq!(MergeRule::Count.initial(99u64), 1);
        assert_eq!(MergeRule::Count.merge(u64::from(u32::MAX), 99), 1 << 32);
    }

    #[test]
    fn add_wraps() {
        assert_eq!(MergeRule::Add.merge(u32::MAX, 2), 1);
        assert_eq!(MergeRule::Add.merge(u64::MAX, 2), 1);
    }

    #[test]
    fn names_round_trip() {
        for r in MergeRule::ALL {
            assert_eq!(MergeRule::parse(r.name()), Some(r));
        }
        assert_eq!(MergeRule::parse("bogus"), None);
    }

    #[test]
    fn fold_matches_sequential_merge() {
        for r in [
            MergeRule::LastWrite,
            MergeRule::Add,
            MergeRule::Max,
            MergeRule::Min,
        ] {
            for v in [0u32, 5, 1000] {
                for (a, b) in [(3u32, 9u32), (9, 3), (0, u32::MAX)] {
                    let folded = r.fold_args(a, b).unwrap();
                    assert_eq!(r.merge(r.merge(v, a), b), r.merge(v, folded));
                }
            }
        }
        assert_eq!(MergeRule::Count.fold_args(1u32, 2), None);
    }

    #[test]
    fn apply_chain_walks_absent_then_present() {
        let chain = [
            (MergeRule::Count, 0u32),
            (MergeRule::Count, 0),
            (MergeRule::Add, 10),
        ];
        assert_eq!(MergeRule::apply_chain(&chain, None), Some(12));
        assert_eq!(MergeRule::apply_chain(&chain, Some(100)), Some(112));
        assert_eq!(MergeRule::apply_chain(&[], Some(5u32)), Some(5));
        assert_eq!(MergeRule::apply_chain::<u32>(&[], None), None);
    }
}
