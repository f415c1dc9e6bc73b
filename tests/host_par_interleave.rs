//! Exhaustive interleaving tests for the host-par bucket-lock protocol
//! (one lock per bucket: a "stripe" is a bucket).
//!
//! `dycuckoo::host_par` keeps its concurrent insert path correct with two
//! rules (see `CandGuards::acquire` and `par_insert_one`):
//!
//! 1. **Canonical lock order** — a worker locks *all* of a key's candidate
//!    buckets in ascending `(table, bucket)` order before touching any of
//!    them. Consistent global ordering is the classical deadlock-freedom
//!    argument.
//! 2. **Claims happen under the locks** — the probe-for-duplicate and the
//!    claim-an-empty-slot are one critical section, so two workers
//!    inserting the same key can never both claim a slot (the voter-insert
//!    semantics of the sim kernel, `ops::insert`).
//!
//! Its batch finds take no lock at all (`find_batch` probes through
//! `StripedRead` views), which rests on a third rule:
//!
//! 3. **Finds never overlap writers** — `find_batch` takes `&mut self`,
//!    so every writer of the previous batch has joined before a find
//!    starts, exactly as the paper's find kernel never overlaps an insert
//!    kernel.
//!
//! Real mutexes cannot be exhaustively schedule-explored, so these tests
//! model the protocol on the vendored [`interleave`] explorer: locks are
//! boolean flags, buckets are one-slot `Option`s, and every interleaving
//! of every step is enumerated. Each rule is pinned twice — the protocol
//! as written passes on *every* schedule, and the tempting simplification
//! (unsorted acquisition; claim outside the lock; a lock-free find beside
//! a writer, i.e. `find_batch(&self)`) is shown to fail on *some*
//! schedule, proving the explorer has teeth and the rule is load-bearing.

use interleave::{explore, Step, ThreadFn};

/// The modeled table: one flag lock and one key/value slot per stripe,
/// plus claim counters (mirroring `ParReport`).
#[derive(Debug, Clone, Default)]
struct Model {
    locks: Vec<bool>,
    slots: Vec<Option<(u32, u32)>>,
    inserted: u32,
    updated: u32,
    /// Every candidate slot was full — the real `par_insert_one` reports
    /// `Placed::Overflow` here and the key falls back to the sequential
    /// eviction-chain drain.
    overflowed: u32,
    /// The modeled cuckoo move has finished (its thread "joined").
    moved: bool,
    /// A lock-free find's answer, once it has one.
    found: Option<Option<u32>>,
}

impl Model {
    fn new(stripes: usize) -> Self {
        Self {
            locks: vec![false; stripes],
            slots: vec![None; stripes],
            ..Self::default()
        }
    }
}

/// One modeled worker inserting `key -> val` whose candidate buckets live
/// on `cands`: lock every candidate stripe one step at a time (blocking,
/// without side effects, when a flag is held), then upsert-or-claim in a
/// single step under the locks, then release. With `canonical`, the
/// acquisition order is sorted (and deduped, which `CandGuards::acquire`
/// only asserts: its candidate tables are distinct); without it, the
/// given order is used as-is.
fn insert_worker(mut cands: Vec<usize>, key: u32, val: u32, canonical: bool) -> ThreadFn<Model> {
    if canonical {
        cands.sort_unstable();
        cands.dedup();
    }
    let k = cands.len();
    let mut pc = 0usize;
    Box::new(move |t: &mut Model| {
        if pc < k {
            // Acquire phase, one stripe per step.
            let c = cands[pc];
            if t.locks[c] {
                return Step::Blocked;
            }
            t.locks[c] = true;
            pc += 1;
            Step::Ready
        } else if pc == k {
            // Critical section: probe every candidate for the key, else
            // claim the first empty slot. All stripes are held.
            if let Some(&c) = cands
                .iter()
                .find(|&&c| t.slots[c].is_some_and(|(sk, _)| sk == key))
            {
                t.slots[c] = Some((key, val));
                t.updated += 1;
            } else if let Some(&c) = cands.iter().find(|&&c| t.slots[c].is_none()) {
                t.slots[c] = Some((key, val));
                t.inserted += 1;
            } else {
                t.overflowed += 1;
            }
            pc += 1;
            Step::Ready
        } else {
            // Release phase, reverse order, one stripe per step.
            let i = pc - k - 1;
            t.locks[cands[k - 1 - i]] = false;
            pc += 1;
            if pc == 2 * k + 1 {
                Step::Done
            } else {
                Step::Ready
            }
        }
    })
}

/// The protocol as written: canonical ascending acquisition over
/// pairwise-overlapping candidate sets (the dining-philosophers shape that
/// breaks naive per-thread orderings) completes on every schedule.
#[test]
fn canonical_stripe_order_never_deadlocks() {
    let report = explore(
        || {
            (
                Model::new(3),
                vec![
                    insert_worker(vec![0, 1], 10, 1, true),
                    insert_worker(vec![1, 2], 20, 2, true),
                    insert_worker(vec![2, 0], 30, 3, true),
                ],
            )
        },
        |t, schedule| {
            assert_eq!(t.locks, vec![false; 3], "a lock leaked: {schedule:?}");
            // Which keys land where is schedule-dependent (so is whether a
            // late worker finds both its candidates full and overflows to
            // the sequential drain) — but every key is accounted for, and
            // occupancy matches the successful claims exactly.
            assert_eq!(t.inserted + t.overflowed, 3, "a key vanished: {schedule:?}");
            assert_eq!(t.updated, 0);
            let live = t.slots.iter().flatten().count() as u32;
            assert_eq!(live, t.inserted, "claim/occupancy mismatch: {schedule:?}");
        },
    );
    assert!(report.completed > 0);
    assert_eq!(
        report.deadlocks, 0,
        "canonical order deadlocked: {:?}",
        report.first_deadlock
    );
    assert!(!report.truncated);
}

/// The counter-example that makes rule 1 load-bearing: identical workers,
/// identical stripes, but one acquires in descending order — the explorer
/// must find the AB/BA deadlock (and also schedules that complete, since
/// deadlock depends on the interleaving).
#[test]
fn unsorted_acquisition_deadlocks_on_some_schedule() {
    let report = explore(
        || {
            (
                Model::new(2),
                vec![
                    insert_worker(vec![0, 1], 10, 1, false),
                    insert_worker(vec![1, 0], 20, 2, false),
                ],
            )
        },
        |_, _| {},
    );
    assert!(
        report.deadlocks > 0,
        "opposite acquisition orders must deadlock somewhere"
    );
    assert!(report.completed > 0, "and still complete elsewhere");
    assert!(report.first_deadlock.is_some());
}

/// Rule 2 as written: two workers race the *same* key into the same
/// candidate set. Under the locked claim, every schedule ends with exactly
/// one slot claimed and the loser observing the winner's claim as a
/// duplicate — one insert, one update, no double-claim, whichever worker
/// wins the race.
#[test]
fn same_key_race_claims_exactly_once_under_the_lock() {
    let report = explore(
        || {
            (
                Model::new(2),
                vec![
                    insert_worker(vec![0, 1], 42, 1, true),
                    insert_worker(vec![0, 1], 42, 2, true),
                ],
            )
        },
        |t, schedule| {
            assert_eq!(t.inserted, 1, "double claim: {schedule:?}");
            assert_eq!(t.updated, 1, "lost duplicate: {schedule:?}");
            let live: Vec<_> = t.slots.iter().flatten().collect();
            assert_eq!(live.len(), 1, "one key must occupy one slot: {schedule:?}");
            assert_eq!(live[0].0, 42);
        },
    );
    assert!(report.completed > 0);
    assert_eq!(report.deadlocks, 0);
}

/// The counter-example that makes rule 2 load-bearing: elide the lock and
/// split probe and claim into separate steps (the planted
/// `inject_lock_elision` bug of the sim kernel, transplanted to the host
/// model). The explorer must find a schedule where both workers read the
/// slot as empty and both claim it — two "successful" inserts for one
/// surviving slot, i.e. a lost update.
#[test]
fn elided_lock_double_claims_on_some_schedule() {
    fn elided_worker(key: u32, val: u32) -> ThreadFn<Model> {
        let mut pc = 0usize;
        let mut saw_empty = false;
        Box::new(move |t: &mut Model| {
            if pc == 0 {
                saw_empty = t.slots[0].is_none();
                pc = 1;
                Step::Ready
            } else {
                if saw_empty {
                    t.slots[0] = Some((key, val));
                    t.inserted += 1;
                } else {
                    t.slots[0] = Some((key, val));
                    t.updated += 1;
                }
                Step::Done
            }
        })
    }
    let mut double_claims = 0u32;
    let mut clean = 0u32;
    let report = explore(
        || {
            (
                Model::new(1),
                vec![elided_worker(42, 1), elided_worker(42, 2)],
            )
        },
        |t, _| {
            if t.inserted == 2 {
                double_claims += 1;
            } else if t.inserted == 1 && t.updated == 1 {
                clean += 1;
            }
        },
    );
    assert_eq!(report.deadlocks, 0);
    assert!(
        double_claims > 0,
        "the explorer must expose the elided-lock double claim"
    );
    assert!(clean > 0, "serial schedules still behave");
}

/// One modeled cuckoo move, as an eviction chain makes it: lock both
/// buckets in canonical order, take the key out of bucket `from`, then
/// write it into bucket `to` — two steps, with the key in flight (in no
/// slot) between them — then release.
fn mover(from: usize, to: usize) -> ThreadFn<Model> {
    let mut order = [from, to];
    order.sort_unstable();
    let mut pc = 0usize;
    let mut carried = None;
    Box::new(move |t: &mut Model| {
        match pc {
            0 | 1 => {
                if t.locks[order[pc]] {
                    return Step::Blocked;
                }
                t.locks[order[pc]] = true;
            }
            2 => carried = t.slots[from].take(),
            3 => t.slots[to] = carried,
            4 => t.locks[order[1]] = false,
            _ => {
                t.locks[order[0]] = false;
                t.moved = true;
                return Step::Done;
            }
        }
        pc += 1;
        Step::Ready
    })
}

/// One modeled lock-free find of `key` over the candidate buckets
/// `cands`, one probe per step, taking no lock — the `StripedRead` path of
/// `find_batch`. With `after_join`, it cannot start before the mover has
/// finished: the `thread::scope` join plus `&mut self` that separate a
/// find batch from every writer.
fn lock_free_finder(cands: Vec<usize>, key: u32, after_join: bool) -> ThreadFn<Model> {
    let mut pc = 0usize;
    Box::new(move |t: &mut Model| {
        if after_join && !t.moved {
            return Step::Blocked;
        }
        if let Some((k, v)) = t.slots[cands[pc]] {
            if k == key {
                t.found = Some(Some(v));
                return Step::Done;
            }
        }
        pc += 1;
        if pc == cands.len() {
            t.found = Some(None);
            Step::Done
        } else {
            Step::Ready
        }
    })
}

/// Key 42 lives in bucket 0 and is about to move to bucket 1, its other
/// candidate; a find of 42 probes bucket 0, then bucket 1.
fn move_and_find(after_join: bool) -> (Model, Vec<ThreadFn<Model>>) {
    let mut model = Model::new(2);
    model.slots[0] = Some((42, 7));
    (
        model,
        vec![mover(0, 1), lock_free_finder(vec![0, 1], 42, after_join)],
    )
}

/// Rule 3 as written: a lock-free find that starts only after the writer
/// has joined — what `&mut self` on `find_batch` guarantees — finds the
/// moved key on every schedule.
#[test]
fn lock_free_find_after_the_writer_joins_never_misses() {
    let report = explore(
        || move_and_find(true),
        |t, schedule| {
            assert_eq!(
                t.found,
                Some(Some(7)),
                "find missed a present key: {schedule:?}"
            );
            assert_eq!(t.slots, vec![None, Some((42, 7))]);
        },
    );
    assert!(report.completed > 0);
    assert_eq!(report.deadlocks, 0);
    assert!(!report.truncated);
}

/// The counter-example that makes rule 3 load-bearing: let the same
/// lock-free find overlap the move (`find_batch(&self)`), and the
/// explorer must find a schedule where it misses a key that is present
/// before and after the move — it probes bucket 0 after the key left and
/// bucket 1 before the key arrived.
#[test]
fn lock_free_find_racing_a_move_misses_on_some_schedule() {
    let (mut misses, mut hits) = (0u32, 0u32);
    let report = explore(
        || move_and_find(false),
        |t, schedule| {
            match t.found {
                Some(Some(7)) => hits += 1,
                Some(None) => misses += 1,
                other => panic!("find answered {other:?}: {schedule:?}"),
            }
            assert_eq!(
                t.slots,
                vec![None, Some((42, 7))],
                "the move itself is sound"
            );
        },
    );
    assert_eq!(report.deadlocks, 0);
    assert!(
        misses > 0,
        "the explorer must expose a find missing an in-flight key"
    );
    assert!(hits > 0, "serial schedules still find the key");
}
