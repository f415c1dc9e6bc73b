//! KV distribution (Theorem 1): steer inserts and evictions toward the
//! subtable that minimizes expected conflicts.
//!
//! The paper shows amortized insertion conflicts are minimized when
//! `C(m_i,2)/n_i` is equal across subtables, and realizes this with a
//! randomized assignment: a KV is sent to subtable `i` with probability
//! proportional to `n_i / C(m_i, 2)`. After an upsize doubles `n_i`, the
//! same rule automatically doubles table `i`'s share of subsequent inserts,
//! pulling the system back toward balance.

use gpu_sim::engine::{rotated_index, weighted_index};

use crate::config::Distribution;
use crate::hashfn::splitmix64;
use crate::subtable::{SubTable, Word};
use crate::table::MAX_TABLES;

/// Theorem-1 weight from raw capacity/occupancy numbers: `n_i / C(m_i,
/// 2)`, with `C(m,2) < 1` clamped so empty tables get a very large (but
/// finite) weight. Backend-generic: the sim backend reads a
/// [`SubTable`], the host-par backend reads its striped store's relaxed
/// occupancy counter — both feed this one formula.
#[inline]
pub fn weight_of(capacity_slots: u64, occupied: u64) -> f64 {
    let m = occupied as f64;
    let pairs = (m * (m - 1.0) / 2.0).max(1.0);
    capacity_slots as f64 / pairs
}

/// Theorem-1 weight of a subtable: `n_i / C(m_i, 2)`.
#[inline]
pub fn weight<K: Word, V: Word>(table: &SubTable<K, V>) -> f64 {
    weight_of(table.capacity_slots(), table.occupied())
}

/// Backend-generic candidate choice: like [`choose_among`] but reading
/// subtable weights through a closure, so callers that do not hold
/// `&[SubTable]` (the host-par backend's striped stores) steer with the
/// identical coin and sampling rule. Deterministic given
/// `(seed, key, salt)` and the weights, where `key` is the key's 32-bit
/// route value ([`Word::route`]). Allocation-free: the weights of
/// at most [`MAX_TABLES`] candidates live on the stack.
pub fn choose_among_by(
    dist: Distribution,
    weight_at: impl Fn(usize) -> f64,
    candidates: &[usize],
    seed: u64,
    key: u32,
    salt: u64,
) -> usize {
    debug_assert!(!candidates.is_empty() && candidates.len() <= MAX_TABLES);
    let coin = splitmix64(seed ^ ((key as u64) << 17) ^ salt);
    match dist {
        Distribution::Uniform => candidates[(coin % candidates.len() as u64) as usize],
        Distribution::Balanced => {
            let mut weights = [0.0f64; MAX_TABLES];
            for (w, &c) in weights.iter_mut().zip(candidates) {
                *w = weight_at(c);
            }
            let i = weighted_index(&weights[..candidates.len()], coin)
                .expect("Theorem-1 weights are positive");
            candidates[i]
        }
    }
}

/// Choose among candidate subtables for a fresh insert. Deterministic
/// given `(seed, key, salt)`, so batches replay identically.
pub fn choose_among<K: Word, V: Word>(
    dist: Distribution,
    tables: &[SubTable<K, V>],
    candidates: &[usize],
    seed: u64,
    key: u32,
    salt: u64,
) -> usize {
    choose_among_by(dist, |c| weight(&tables[c]), candidates, seed, key, salt)
}

/// Choose an eviction victim among the slots of a full bucket.
///
/// `partner_of(slot)` yields the subtable the slot's occupant would move to
/// (the other member of the occupant's pair), or `None` if that slot must
/// not be chosen (its partner is excluded, e.g. a subtable being downsized).
/// Under [`Distribution::Balanced`] a victim is sampled with probability
/// proportional to its destination's Theorem-1 weight — *randomized*
/// steering, because a deterministic argmax revisits the same slots and
/// lets eviction chains cycle. Under [`Distribution::Uniform`] a
/// deterministic pseudo-random admissible slot is picked.
pub fn choose_victim<K: Word, V: Word>(
    dist: Distribution,
    tables: &[SubTable<K, V>],
    partner_of: impl Fn(usize) -> Option<usize>,
    n_slots: usize,
    seed: u64,
    salt: u64,
) -> Option<usize> {
    let coin = splitmix64(seed ^ salt.rotate_left(17) ^ 0xB10C_B10C);
    match dist {
        Distribution::Balanced => {
            // Weight the admissible slots by their destination's Theorem-1
            // weight, then sample via the engine's shared selector
            // (inadmissible slots carry zero weight).
            let mut weights = [0.0f64; 64];
            for (s, slot_weight) in weights.iter_mut().enumerate().take(n_slots.min(64)) {
                if let Some(p) = partner_of(s) {
                    *slot_weight = weight(&tables[p]);
                }
            }
            weighted_index(&weights[..n_slots.min(64)], coin)
        }
        Distribution::Uniform => rotated_index(n_slots, |s| partner_of(s).is_some(), coin),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BUCKET_SLOTS;

    fn table_with(n_buckets: usize, filled: u64) -> SubTable {
        let mut t = SubTable::new(n_buckets, gpu_sim::LayoutConfig::default());
        let mut written = 0;
        'outer: for b in 0..n_buckets {
            for _ in 0..BUCKET_SLOTS {
                if written == filled {
                    break 'outer;
                }
                let s = t.find_empty(b).unwrap();
                t.write_new(b, s, written as u32 + 1, 0);
                written += 1;
            }
        }
        t
    }

    #[test]
    fn weight_prefers_emptier_tables_of_equal_size() {
        let nearly_empty = table_with(4, 2);
        let fuller = table_with(4, 100);
        assert!(weight(&nearly_empty) > weight(&fuller));
    }

    #[test]
    fn weight_prefers_larger_table_at_equal_occupancy() {
        let small = table_with(2, 50);
        let large = table_with(4, 50);
        assert!(weight(&large) > weight(&small));
    }

    #[test]
    fn balanced_choice_strongly_favors_empty_table() {
        let tables = vec![table_with(4, 120), table_with(4, 0)];
        let mut picked_empty = 0;
        for k in 1..=1000u32 {
            let c = choose_among(Distribution::Balanced, &tables, &[0, 1], 42, k, 0);
            if c == 1 {
                picked_empty += 1;
            }
        }
        assert!(
            picked_empty > 990,
            "only {picked_empty}/1000 picks went to the empty table"
        );
    }

    #[test]
    fn uniform_choice_is_roughly_even() {
        let tables = vec![table_with(4, 120), table_with(4, 0)];
        let ones: usize = (1..=2000u32)
            .filter(|&k| choose_among(Distribution::Uniform, &tables, &[0, 1], 1, k, 0) == 1)
            .count();
        assert!((800..1200).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn choice_is_deterministic() {
        let tables = vec![table_with(4, 10), table_with(4, 20)];
        for k in 1..50u32 {
            let a = choose_among(Distribution::Balanced, &tables, &[0, 1], 9, k, 3);
            let b = choose_among(Distribution::Balanced, &tables, &[0, 1], 9, k, 3);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn victim_respects_exclusions() {
        let tables = vec![table_with(2, 0), table_with(2, 0), table_with(2, 0)];
        // Slots 0..16 have partner 1 (excluded), the rest partner 2.
        let picked = choose_victim(
            Distribution::Balanced,
            &tables,
            |s| if s < 16 { None } else { Some(2) },
            32,
            0,
            0,
        )
        .unwrap();
        assert!(picked >= 16);
    }

    #[test]
    fn victim_none_when_all_excluded() {
        let tables = vec![table_with(2, 0)];
        let picked = choose_victim(Distribution::Uniform, &tables, |_| None, 32, 0, 0);
        assert_eq!(picked, None);
    }

    #[test]
    fn balanced_victim_prefers_emptiest_destination() {
        let tables = vec![table_with(4, 120), table_with(4, 3), table_with(4, 60)];
        // Even slots go to table 1 (almost empty), odd to table 2 (half
        // full): sampling ∝ weight must overwhelmingly pick even slots.
        let even = (0..500u64)
            .filter(|&salt| {
                let picked = choose_victim(
                    Distribution::Balanced,
                    &tables,
                    |s| Some(if s % 2 == 0 { 1 } else { 2 }),
                    32,
                    0,
                    salt,
                )
                .unwrap();
                picked % 2 == 0
            })
            .count();
        assert!(even > 450, "only {even}/500 picks went to the light table");
    }

    #[test]
    fn balanced_victim_varies_with_salt() {
        // The randomized steering must not fixate on one slot (that is what
        // caused eviction ping-pong cycles with an argmax rule).
        let tables = vec![table_with(4, 10), table_with(4, 10)];
        let picks: std::collections::HashSet<usize> = (0..100u64)
            .map(|salt| {
                choose_victim(Distribution::Balanced, &tables, |_| Some(1), 32, 0, salt).unwrap()
            })
            .collect();
        assert!(picks.len() > 10, "only {} distinct victims", picks.len());
    }
}
