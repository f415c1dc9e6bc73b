use std::collections::HashMap;

use gpu_sim::{LayoutConfig, SimContext};

use crate::{
    BatchReport, Config, DyCuckoo, Error, MergeRule, WideDyCuckoo, Word, BUCKET_SLOTS,
    WIDE_BUCKET_SLOTS,
};

/// The paper's wide layout: split arrays, 16 eight-byte slots.
fn wide_layout() -> LayoutConfig {
    LayoutConfig::soa(WIDE_BUCKET_SLOTS, 8, 8)
}

fn wide_cfg(num_tables: usize, initial_buckets: usize) -> Config {
    Config {
        num_tables,
        initial_buckets,
        seed: 7,
        layout: wide_layout(),
        ..Config::default()
    }
}

fn wide_keys(n: usize) -> Vec<(u64, u64)> {
    // 64-bit keys well above the 32-bit range, so folding matters.
    (0..n as u64)
        .map(|i| ((i + 1) << 33 | 0x5, i.wrapping_mul(0x1234_5678_9ABC)))
        .collect()
}

fn keys_of(kvs: &[(u64, u64)]) -> Vec<u64> {
    kvs.iter().map(|&(k, _)| k).collect()
}

#[test]
fn bucket_geometry_matches_paper() {
    // 8-byte keys halve the bucket arity: 16 keys per 128-byte line.
    assert_eq!(WIDE_BUCKET_SLOTS, BUCKET_SLOTS / 2);
    assert_eq!(WIDE_BUCKET_SLOTS * 8, 128);
    let layout = wide_layout();
    assert_eq!(layout.keys_per_line(), WIDE_BUCKET_SLOTS);
    assert_eq!(layout.probe_lines(), 1, "one coalesced line per probe");
}

#[test]
fn insert_find_roundtrip() {
    let mut sim = SimContext::new();
    let mut t = WideDyCuckoo::new(wide_cfg(4, 2), &mut sim).unwrap();
    let kvs = wide_keys(500);
    t.insert_batch(&mut sim, &kvs).unwrap();
    assert_eq!(t.len(), 500);
    let found = t.find_batch(&mut sim, &keys_of(&kvs));
    for ((k, v), f) in kvs.iter().zip(found) {
        assert_eq!(f, Some(*v), "key {k:#x}");
    }
    assert_eq!(t.find_batch(&mut sim, &[0xDEAD_BEEF_0000]), vec![None]);
    t.verify_integrity().unwrap();
}

#[test]
fn grows_on_overflow() {
    let mut sim = SimContext::new();
    let mut t = WideDyCuckoo::new(wide_cfg(2, 1), &mut sim).unwrap();
    // 2 tables × 1 bucket × 16 slots = 32 slots; 300 keys force growth,
    // one subtable at a time, keeping θ at or below β.
    let kvs = wide_keys(300);
    let before = t.device_bytes();
    let rep = t.insert_batch(&mut sim, &kvs).unwrap();
    assert_eq!(t.len(), 300);
    assert!(!rep.resizes.is_empty());
    assert!(t.device_bytes() > before);
    assert!(t.fill_factor() <= t.config().beta + 1e-9);
    assert!(t.size_ratio_ok());
    assert!(t
        .find_batch(&mut sim, &keys_of(&kvs))
        .iter()
        .all(|f| f.is_some()));
    t.verify_integrity().unwrap();
}

#[test]
fn delete_and_update() {
    let mut sim = SimContext::new();
    let mut t = WideDyCuckoo::new(wide_cfg(4, 2), &mut sim).unwrap();
    let kvs = wide_keys(100);
    t.insert_batch(&mut sim, &kvs).unwrap();
    // Update in place.
    let updates: Vec<(u64, u64)> = kvs.iter().map(|&(k, _)| (k, 42)).collect();
    let rep = t.insert_batch(&mut sim, &updates).unwrap();
    assert_eq!(rep.updated, 100);
    assert_eq!(t.len(), 100);
    let keys = keys_of(&kvs);
    assert!(t.find_batch(&mut sim, &keys).iter().all(|f| *f == Some(42)));
    assert_eq!(t.delete_batch(&mut sim, &keys).unwrap().deleted, 100);
    assert!(t.is_empty());
}

#[test]
fn find_probes_at_most_two_buckets() {
    let mut sim = SimContext::new();
    let mut t = WideDyCuckoo::new(wide_cfg(6, 4), &mut sim).unwrap();
    let kvs = wide_keys(800);
    t.insert_batch(&mut sim, &kvs).unwrap();
    sim.take_metrics();
    t.find_batch(&mut sim, &keys_of(&kvs));
    let m = sim.take_metrics();
    assert!(m.lookups <= 2 * 800, "two-layer guarantee for wide keys");
}

#[test]
fn rejects_zero_key() {
    let mut sim = SimContext::new();
    let mut t = WideDyCuckoo::new(wide_cfg(2, 2), &mut sim).unwrap();
    assert!(matches!(
        t.insert_batch(&mut sim, &[(0, 1)]),
        Err(Error::ZeroKey)
    ));
}

#[test]
fn aos_layout_places_keys_identically_to_soa() {
    let mut sim_a = SimContext::new();
    let mut sim_b = SimContext::new();
    let mut soa = WideDyCuckoo::new(wide_cfg(4, 2), &mut sim_a).unwrap();
    let aos_cfg = Config {
        layout: LayoutConfig::aos(WIDE_BUCKET_SLOTS, 8, 8),
        ..wide_cfg(4, 2)
    };
    let mut aos = WideDyCuckoo::new(aos_cfg, &mut sim_b).unwrap();
    let kvs = wide_keys(400);
    soa.insert_batch(&mut sim_a, &kvs).unwrap();
    aos.insert_batch(&mut sim_b, &kvs).unwrap();
    assert_eq!(soa.len(), aos.len());
    let keys = keys_of(&kvs);
    assert_eq!(
        soa.find_batch(&mut sim_a, &keys),
        aos.find_batch(&mut sim_b, &keys)
    );
    // Equal slot counts, different cost model: lookups agree while the
    // transaction counts diverge (AoS-16 over 8-byte pairs spans two
    // lines per probe).
    let (ma, mb) = (sim_a.take_metrics(), sim_b.take_metrics());
    assert_eq!(ma.lookups, mb.lookups);
    assert_ne!(ma.read_transactions, mb.read_transactions);
}

#[test]
fn incremental_upsize_stays_coherent_and_matches_legacy() {
    // A finite quantum turns each resize into a migration; at every batch
    // boundary the table must answer exactly as the stop-the-world one.
    let mut sim_a = SimContext::new();
    let mut sim_b = SimContext::new();
    let mut legacy = WideDyCuckoo::new(wide_cfg(4, 4), &mut sim_a).unwrap();
    let cfg = Config {
        migration_quantum: 1,
        ..wide_cfg(4, 4)
    };
    let mut t = WideDyCuckoo::new(cfg, &mut sim_b).unwrap();
    let kvs = wide_keys(600);
    let keys = keys_of(&kvs);
    let mut in_flight_batches = 0;
    for chunk in kvs.chunks(25) {
        legacy.insert_batch(&mut sim_a, chunk).unwrap();
        t.insert_batch(&mut sim_b, chunk).unwrap();
        if t.migration_in_flight() {
            in_flight_batches += 1;
        }
        // Mid-migration, every op must behave as if quiescent.
        assert_eq!(
            t.find_batch(&mut sim_b, &keys),
            legacy.find_batch(&mut sim_a, &keys)
        );
        t.verify_integrity().unwrap();
    }
    assert!(in_flight_batches > 2, "quantum 1 must span several batches");
    let before = t.find_batch(&mut sim_b, &keys);
    let mut backlog = t.migration_backlog();
    let mut pumps = 0u64;
    while t.migration_in_flight() {
        let extra = 0xF000_0000_0000 + pumps;
        t.insert_batch(&mut sim_b, &[(extra, pumps)]).unwrap();
        assert_eq!(t.find_batch(&mut sim_b, &[extra]), vec![Some(pumps)]);
        assert_eq!(t.delete_batch(&mut sim_b, &[extra]).unwrap().deleted, 1);
        t.migrate_quantum(&mut sim_b, &mut BatchReport::default())
            .unwrap();
        let now = t.migration_backlog();
        assert!(now < backlog, "backlog strictly decreases per pump");
        backlog = now;
        pumps += 1;
    }
    assert_eq!(t.len(), 600);
    assert_eq!(t.find_batch(&mut sim_b, &keys), before);
    assert_eq!(legacy.len(), 600);
    t.verify_integrity().unwrap();
}

#[test]
fn rejects_narrow_layout() {
    let mut sim = SimContext::new();
    let narrow = Config {
        layout: LayoutConfig::soa(BUCKET_SLOTS, 4, 4),
        ..wide_cfg(4, 2)
    };
    assert!(matches!(
        WideDyCuckoo::new(narrow, &mut sim),
        Err(Error::InvalidConfig(_))
    ));
    // And the reverse: 8-byte words cannot build the 4-byte table.
    assert!(matches!(
        DyCuckoo::new(wide_cfg(4, 2), &mut sim),
        Err(Error::InvalidConfig(_))
    ));
    assert_eq!(sim.device.allocated_bytes(), 0, "nothing allocated");
}

/// Two distinct 64-bit keys with one 32-bit route value, found by a
/// deterministic birthday search (about 2^16–2^17 candidates).
fn route_twins() -> (u64, u64) {
    let mut seen: HashMap<u32, u64> = HashMap::new();
    for i in 0u64.. {
        let k = (1 << 40) | i;
        if let Some(&twin) = seen.get(&k.route()) {
            return (twin, k);
        }
        seen.insert(k.route(), k);
    }
    unreachable!("the search space is 2^64")
}

/// The one path `u32` never takes: one route value, two stored words.
/// Both keys hash to the same pair and the same bucket of each member,
/// so every probe must compare the full key word.
#[test]
fn keys_sharing_a_route_value_stay_distinct() {
    let (a, b) = route_twins();
    assert_ne!(a, b);
    assert_eq!(a.route(), b.route());
    for layout in [
        LayoutConfig::soa(WIDE_BUCKET_SLOTS, 8, 8),
        LayoutConfig::aos(WIDE_BUCKET_SLOTS, 8, 8),
        LayoutConfig::soa(WIDE_BUCKET_SLOTS, 8, 8).with_fp(8),
        LayoutConfig::aos(WIDE_BUCKET_SLOTS, 8, 8).with_fp(8),
    ] {
        let mut sim = SimContext::new();
        let cfg = Config {
            layout,
            ..wide_cfg(4, 2)
        };
        let mut t = WideDyCuckoo::new(cfg, &mut sim).unwrap();
        t.insert_batch(&mut sim, &[(a, 1), (b, 2)]).unwrap();
        assert_eq!(t.len(), 2, "{layout:?}");
        assert_eq!(t.find_batch(&mut sim, &[a, b]), vec![Some(1), Some(2)]);
        // Updating one twin leaves the other alone.
        let rep = t.insert_batch(&mut sim, &[(a, 10)]).unwrap();
        assert_eq!((rep.inserted, rep.updated), (0, 1));
        t.upsert_batch(&mut sim, &[(b, 5)], MergeRule::Add).unwrap();
        assert_eq!(t.find_batch(&mut sim, &[a, b]), vec![Some(10), Some(7)]);
        // Deleting one twin leaves the other findable.
        assert_eq!(t.delete_batch(&mut sim, &[a]).unwrap().deleted, 1);
        assert_eq!(t.find_batch(&mut sim, &[a, b]), vec![None, Some(7)]);
        t.verify_integrity().unwrap();
        assert_eq!(t.delete_batch(&mut sim, &[b, a]).unwrap().deleted, 1);
        assert!(t.is_empty());
    }
}
