//! Resize policy (Section "Structure Resizing").
//!
//! When the overall filled factor θ leaves `[α, β]`, exactly **one**
//! subtable is resized: the smallest is doubled for upsizing, the largest is
//! halved for downsizing. Only that subtable is locked; the others keep
//! serving operations. The policy maintains the invariant that no subtable
//! is more than twice the size of any other.
//!
//! The policy reads only each subtable's bucket count, capacity and
//! occupancy ([`SubTableStats`]), so any backend that can report those
//! numbers can run it.

use crate::stats::SubTableStats;

/// A single resize decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeOp {
    /// Double the subtable at this index.
    Upsize(usize),
    /// Halve the subtable at this index.
    Downsize(usize),
}

/// Overall filled factor `θ = Σm_i / Σn_i`.
pub fn overall_fill(tables: &[SubTableStats]) -> f64 {
    let m: u64 = tables.iter().map(|t| t.occupied).sum();
    let n: u64 = tables.iter().map(|t| t.capacity_slots).sum();
    if n == 0 {
        0.0
    } else {
        m as f64 / n as f64
    }
}

/// Index of the subtable to upsize: the smallest, breaking ties toward the
/// fullest (it benefits most) and then the lowest index (determinism).
pub fn upsize_candidate(tables: &[SubTableStats]) -> usize {
    (0..tables.len())
        .min_by_key(|&i| (tables[i].n_buckets, u64::MAX - tables[i].occupied, i))
        .expect("at least one subtable")
}

/// Index of the subtable to downsize: the largest whose bucket count can be
/// halved cleanly (even, > 1), breaking ties toward the emptiest (cheapest
/// merge, fewest residuals) and then the lowest index. `None` when no
/// subtable can shrink further.
pub fn downsize_candidate(tables: &[SubTableStats]) -> Option<usize> {
    (0..tables.len())
        .filter(|&i| tables[i].n_buckets > 1 && tables[i].n_buckets.is_multiple_of(2))
        .max_by_key(|&i| {
            (
                tables[i].n_buckets,
                u64::MAX - tables[i].occupied,
                usize::MAX - i,
            )
        })
}

/// Which resize directions a rebalancing pass may take. Insert batches
/// only grow (θ is rising; shrinking mid-load would churn), delete batches
/// may do both (residual re-insertion during downsizing can push θ up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Only upsizes (the insert path).
    GrowOnly,
    /// Upsizes and downsizes (the delete path).
    Both,
}

/// Decide whether a resize is needed to bring θ back inside `[alpha, beta]`.
///
/// Downsizing stops at single-bucket subtables; an empty table simply stays
/// at its minimum footprint.
pub fn decide(tables: &[SubTableStats], alpha: f64, beta: f64, dir: Direction) -> Option<ResizeOp> {
    let theta = overall_fill(tables);
    if theta > beta {
        return Some(ResizeOp::Upsize(upsize_candidate(tables)));
    }
    if dir == Direction::Both && theta < alpha {
        if let Some(cand) = downsize_candidate(tables) {
            return Some(ResizeOp::Downsize(cand));
        }
    }
    None
}

/// Stateful resize hysteresis: suppresses a resize whose direction is
/// opposite to the most recent one until `cooldown` batches have passed.
///
/// When θ oscillates around α or β (a workload alternating inserts and
/// deletes right at a bound), the memoryless [`decide`] would upsize and
/// downsize the same subtable back and forth, paying a full rehash each
/// time. The cooldown breaks that thrash: after an upsize, downsizes are
/// ignored for `cooldown` batches (and vice versa), letting θ drift with
/// the workload instead of chasing it. Same-direction resizes are never
/// suppressed — a genuinely filling table must still grow immediately.
///
/// `cooldown = 0` (the [`crate::Config`] default) reproduces the
/// memoryless policy exactly.
#[derive(Debug, Clone)]
pub struct Decision {
    cooldown: u32,
    /// Direction of the last applied resize and the number of batches
    /// completed since, saturating. `None` until the first resize.
    last: Option<(bool, u32)>,
}

impl Decision {
    /// A hysteresis state with the given cooldown (in batches).
    pub fn new(cooldown: u32) -> Self {
        Self {
            cooldown,
            last: None,
        }
    }

    /// Advance the batch clock; call once per public batch operation.
    pub fn note_batch(&mut self) {
        if let Some((_, since)) = &mut self.last {
            *since = since.saturating_add(1);
        }
    }

    /// Record an applied resize (including forced ones) so opposite-direction
    /// decisions start their cooldown from it.
    pub fn record(&mut self, grow: bool) {
        self.last = Some((grow, 0));
    }

    /// Whether a resize in direction `grow` is currently admissible.
    pub fn allows(&self, grow: bool) -> bool {
        match self.last {
            Some((last_grow, since)) if last_grow != grow => since >= self.cooldown,
            _ => true,
        }
    }

    /// [`decide`] filtered through the hysteresis: a direction flip within
    /// the cooldown yields `None` (no resize) instead of thrash.
    pub fn decide(
        &self,
        tables: &[SubTableStats],
        alpha: f64,
        beta: f64,
        dir: Direction,
    ) -> Option<ResizeOp> {
        let op = decide(tables, alpha, beta, dir)?;
        let grow = matches!(op, ResizeOp::Upsize(_));
        self.allows(grow).then_some(op)
    }
}

/// The structural invariant of the policy: max subtable size ≤ 2 × min.
pub fn size_ratio_invariant(tables: &[SubTableStats]) -> bool {
    let min = tables.iter().map(|t| t.n_buckets).min().unwrap_or(1);
    let max = tables.iter().map(|t| t.n_buckets).max().unwrap_or(1);
    max <= 2 * min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BUCKET_SLOTS;

    fn table(n_buckets: usize, filled: u64) -> SubTableStats {
        let capacity_slots = (n_buckets * BUCKET_SLOTS) as u64;
        assert!(filled <= capacity_slots);
        SubTableStats {
            n_buckets,
            occupied: filled,
            capacity_slots,
            fill: filled as f64 / capacity_slots as f64,
        }
    }

    #[test]
    fn overall_fill_weights_by_capacity() {
        let tables = vec![table(2, 32), table(2, 0)];
        assert!((overall_fill(&tables) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn decide_upsizes_smallest_when_over_beta() {
        let tables = vec![table(4, 120), table(2, 60), table(4, 120)];
        // θ = 300/320 ≈ 0.94 > 0.85.
        assert_eq!(
            decide(&tables, 0.3, 0.85, Direction::Both),
            Some(ResizeOp::Upsize(1))
        );
        // Growing is allowed in both directions' modes.
        assert_eq!(
            decide(&tables, 0.3, 0.85, Direction::GrowOnly),
            Some(ResizeOp::Upsize(1))
        );
    }

    #[test]
    fn decide_downsizes_largest_when_under_alpha() {
        let tables = vec![table(4, 10), table(2, 10), table(2, 10)];
        // θ = 30/256 ≈ 0.12 < 0.3.
        assert_eq!(
            decide(&tables, 0.3, 0.85, Direction::Both),
            Some(ResizeOp::Downsize(0))
        );
        // The insert path never shrinks mid-batch.
        assert_eq!(decide(&tables, 0.3, 0.85, Direction::GrowOnly), None);
    }

    #[test]
    fn decide_none_in_range() {
        let tables = vec![table(2, 40), table(2, 40)];
        // θ = 80/128 = 0.625.
        assert_eq!(decide(&tables, 0.3, 0.85, Direction::Both), None);
    }

    #[test]
    fn no_downsize_below_one_bucket() {
        let tables = vec![table(1, 0), table(1, 0)];
        assert_eq!(decide(&tables, 0.3, 0.85, Direction::Both), None);
    }

    #[test]
    fn upsize_tie_break_prefers_fullest() {
        let tables = vec![table(2, 10), table(2, 60), table(2, 30)];
        assert_eq!(upsize_candidate(&tables), 1);
    }

    #[test]
    fn downsize_tie_break_prefers_emptiest() {
        let tables = vec![table(4, 100), table(4, 5), table(2, 0)];
        assert_eq!(downsize_candidate(&tables), Some(1));
    }

    #[test]
    fn downsize_skips_odd_sized_tables() {
        let tables = vec![table(5, 0), table(4, 0)];
        assert_eq!(downsize_candidate(&tables), Some(1));
        let tables = vec![table(1, 0), table(1, 0)];
        assert_eq!(downsize_candidate(&tables), None);
    }

    #[test]
    fn size_ratio_invariant_detects_violations() {
        assert!(size_ratio_invariant(&[table(2, 0), table(4, 0)]));
        assert!(!size_ratio_invariant(&[table(2, 0), table(8, 0)]));
    }

    #[test]
    fn zero_cooldown_reproduces_memoryless_policy() {
        let mut d = Decision::new(0);
        let over = vec![table(4, 120), table(2, 60), table(4, 120)];
        let under = vec![table(4, 10), table(2, 10), table(2, 10)];
        for _ in 0..3 {
            assert_eq!(
                d.decide(&over, 0.3, 0.85, Direction::Both),
                decide(&over, 0.3, 0.85, Direction::Both)
            );
            d.record(true);
            assert_eq!(
                d.decide(&under, 0.3, 0.85, Direction::Both),
                decide(&under, 0.3, 0.85, Direction::Both)
            );
            d.record(false);
            d.note_batch();
        }
    }

    /// Pins the hysteresis sequence for θ oscillating around the bounds:
    /// one upsize, then the opposite-direction downsize is suppressed for
    /// exactly `cooldown` batches, then admitted; same-direction resizes
    /// are never suppressed.
    #[test]
    fn cooldown_suppresses_direction_thrash() {
        let over = vec![table(4, 120), table(2, 60), table(4, 120)]; // θ > β
        let under = vec![table(4, 10), table(2, 10), table(2, 10)]; // θ < α
        let mut d = Decision::new(3);

        // Batch 0: θ > β → upsize fires and is recorded.
        assert_eq!(
            d.decide(&over, 0.3, 0.85, Direction::Both),
            Some(ResizeOp::Upsize(1))
        );
        d.record(true);

        // Batches 1..=3: θ < α, but the downsize is inside the cooldown.
        let mut observed = Vec::new();
        for _ in 0..4 {
            d.note_batch();
            observed.push(d.decide(&under, 0.3, 0.85, Direction::Both));
        }
        assert_eq!(
            observed,
            vec![
                None,
                None,
                Some(ResizeOp::Downsize(0)),
                Some(ResizeOp::Downsize(0))
            ],
            "downsize admitted only once cooldown batches have passed"
        );

        // Same-direction pressure is never suppressed, even inside a fresh
        // cooldown window.
        d.record(false);
        assert_eq!(
            d.decide(&under, 0.3, 0.85, Direction::Both),
            Some(ResizeOp::Downsize(0))
        );
        // And the flip back up is again suppressed until its own cooldown.
        assert_eq!(d.decide(&over, 0.3, 0.85, Direction::Both), None);
        for _ in 0..3 {
            d.note_batch();
        }
        assert_eq!(
            d.decide(&over, 0.3, 0.85, Direction::Both),
            Some(ResizeOp::Upsize(1))
        );
    }
}
