//! Rehashing kernels: conflict-free upsize and merging downsize.
//!
//! **Upsize** doubles one subtable. Because the raw hash value is stable, a
//! KV in old bucket `loc` lands in new bucket `loc` or `loc + n` — two
//! distinct old buckets can never collide in the new table, so one warp per
//! old bucket rehashes with **no locks at all** and the kernel runs at full
//! memory bandwidth (a single scheduler round).
//!
//! **Downsize** halves one subtable: old buckets `loc` and `loc + n/2`
//! merge into new bucket `loc`. The merge itself is equally conflict-free,
//! but the merged population can exceed one bucket's slots; the excess
//! (*residuals*) is re-inserted into the **other** subtables via the voter
//! insert kernel with the downsizing subtable excluded — by the two-layer
//! invariant every residual's only legal destination is its partner table.
//!
//! Per-bucket drain traffic is layout-dependent: the configured
//! [`gpu_sim::LayoutConfig`] says how many lines one whole bucket spans
//! (key + value lines under SoA, interleaved bucket lines under AoS).
//! Every alloc/free here also updates the caller's device-byte ledger so
//! [`crate::DyCuckoo::verify_integrity`] can cross-check the footprint.

use gpu_sim::ChargeKind;
use gpu_sim::SimContext;

use crate::error::Result;
use crate::ops::insert::InsertOp;
use crate::subtable::{SubTable, Word};
use crate::table::TableShape;

/// Statistics of one resize kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RehashReport {
    /// KVs rehashed within the resized subtable.
    pub moved: u64,
    /// KVs that did not fit the downsized table and were re-inserted into
    /// partner subtables (always 0 for upsizing).
    pub residuals: u64,
}

/// Double subtable `idx` in place. Conflict-free: no locks, one round.
pub(crate) fn upsize<K: Word, V: Word>(
    tables: &mut [SubTable<K, V>],
    idx: usize,
    shape: &TableShape,
    sim: &mut SimContext,
    ledger: &mut u64,
) -> Result<RehashReport> {
    let layout = shape.cfg.layout;
    let drain = layout.drain_lines();
    let old_n = tables[idx].n_buckets();
    let new_n = old_n * 2;
    let new_bytes = layout.device_bytes_for(new_n);
    sim.device.alloc(new_bytes)?;
    *ledger += new_bytes;

    let hash = &shape.hashes[idx];
    let mut fresh = SubTable::<K, V>::new(new_n, layout);
    let m = &mut sim.metrics;
    m.charge(ChargeKind::Rounds, 1); // every old bucket is handled by an independent warp
    let old = &tables[idx];
    let mut moved = 0u64;
    for b in 0..old_n {
        // One warp: read the old bucket's lines (keys + values).
        m.charge(ChargeKind::ReadTx, drain);
        let mut wrote_lo = false;
        let mut wrote_hi = false;
        for s in 0..old.slots_per_bucket() {
            let (k, v) = old.slot(b, s);
            if k == K::EMPTY {
                continue;
            }
            let nb = hash.bucket(k.route(), new_n);
            debug_assert!(
                nb == b || nb == b + old_n,
                "upsize moved key across buckets"
            );
            let slot = fresh
                .find_empty(nb)
                .expect("doubled bucket cannot overflow");
            fresh.write_new(nb, slot, k, v);
            moved += 1;
            if nb == b {
                wrote_lo = true;
            } else {
                wrote_hi = true;
            }
        }
        // The full bucket lines per destination bucket actually written.
        m.charge(
            ChargeKind::WriteTx,
            drain * (wrote_lo as u64 + wrote_hi as u64),
        );
    }
    let old_bytes = tables[idx].device_bytes();
    tables[idx] = fresh;
    sim.device.free(old_bytes)?;
    *ledger -= old_bytes;
    Ok(RehashReport {
        moved,
        residuals: 0,
    })
}

/// Halve subtable `idx`. Residual KVs that overflow the merged buckets are
/// returned as re-insert operations targeted at their partner subtables;
/// the caller runs them through the insert kernel with `idx` excluded.
pub(crate) fn downsize_collect<K: Word, V: Word>(
    tables: &mut [SubTable<K, V>],
    idx: usize,
    sim: &mut SimContext,
    ledger: &mut u64,
) -> Result<(RehashReport, Vec<InsertOp<K, V>>)> {
    let layout = *tables[idx].layout();
    let drain = layout.drain_lines();
    let old_n = tables[idx].n_buckets();
    assert!(
        old_n >= 2 && old_n.is_multiple_of(2),
        "downsizing requires an even bucket count (subtable {idx} has {old_n});          the resize policy only selects even-sized tables"
    );
    let new_n = old_n / 2;
    let new_bytes = layout.device_bytes_for(new_n);
    sim.device.alloc(new_bytes)?;
    *ledger += new_bytes;

    let mut fresh = SubTable::<K, V>::new(new_n, layout);
    let mut residuals: Vec<InsertOp<K, V>> = Vec::new();
    let m = &mut sim.metrics;
    m.charge(ChargeKind::Rounds, 1);
    let old = &tables[idx];
    let mut moved = 0u64;
    for nb in 0..new_n {
        // One warp reads both source buckets in full.
        m.charge(ChargeKind::ReadTx, 2 * drain);
        let mut wrote = false;
        for ob in [nb, nb + new_n] {
            for s in 0..old.slots_per_bucket() {
                let (k, v) = old.slot(ob, s);
                if k == K::EMPTY {
                    continue;
                }
                if let Some(slot) = fresh.find_empty(nb) {
                    fresh.write_new(nb, slot, k, v);
                    moved += 1;
                    wrote = true;
                } else {
                    let salt = (nb as u64) << 8 | residuals.len() as u64;
                    residuals.push(InsertOp::reinsert(k, v, salt));
                }
            }
        }
        if wrote {
            m.charge(ChargeKind::WriteTx, drain);
        }
    }
    let old_bytes = tables[idx].device_bytes();
    tables[idx] = fresh;
    sim.device.free(old_bytes)?;
    *ledger -= old_bytes;
    let report = RehashReport {
        moved,
        residuals: residuals.len() as u64,
    };
    Ok((report, residuals))
}
