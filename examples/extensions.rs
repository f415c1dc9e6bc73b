//! Extensions beyond the paper: the overflow stash (the paper's
//! future-work item for upsize cascades) and wide 64-bit keys (the paper's
//! ">64-bit KV" design point).
//!
//! Run with: `cargo run --release --example extensions`

use dycuckoo::{Config, DyCuckoo, WideDyCuckoo, WIDE_BUCKET_SLOTS};
use gpu_sim::{LayoutConfig, SimContext};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Part 1: the overflow stash ----------------------------------
    // With a tight eviction limit and resizing enabled, compare growth
    // behaviour with and without a stash on the same hostile workload.
    println!("Part 1: overflow stash vs upsize cascades");
    for stash_capacity in [0usize, 64] {
        let mut sim = SimContext::new();
        let cfg = Config {
            stash_capacity,
            eviction_limit: 1, // hostile: chains give up immediately
            beta: 0.92,        // run hot, where failures actually happen
            initial_buckets: 2,
            ..Config::default()
        };
        let mut table = DyCuckoo::new(cfg, &mut sim)?;
        let mut resizes = 0;
        for wave in 0..20u32 {
            let kvs: Vec<(u32, u32)> = (0..5_000u32).map(|i| (wave * 5_000 + i + 1, i)).collect();
            resizes += table.insert_batch(&mut sim, &kvs)?.resizes.len();
        }
        println!(
            "  stash={stash_capacity:>3}: {} keys, {resizes} resizes, θ = {:.1}%, {} stashed, {} KiB",
            table.len(),
            table.fill_factor() * 100.0,
            table.stashed(),
            table.device_bytes() / 1024
        );
    }

    // ---- Part 2: wide 64-bit keys -------------------------------------
    // Session IDs, composite join keys and pointers don't fit in 32 bits.
    // The wide table is the same table at 8-byte words: it keeps the
    // two-layer ≤2-lookup guarantee and the [α, β] resizing with 16-slot
    // buckets (8-byte keys fill the same 128-byte line).
    println!("\nPart 2: 64-bit keys (16-slot buckets)");
    let mut sim = SimContext::new();
    let cfg = Config {
        seed: 11,
        layout: LayoutConfig::soa(WIDE_BUCKET_SLOTS, 8, 8),
        ..Config::default()
    };
    let mut wide = WideDyCuckoo::new(cfg, &mut sim)?;
    let sessions: Vec<(u64, u64)> = (0..100_000u64)
        .map(|i| ((i + 1) << 20 | 0xBEEF, i * 31))
        .collect();
    let resizes = wide.insert_batch(&mut sim, &sessions)?.resizes.len();
    println!(
        "  inserted {} wide keys, {resizes} resizes, θ = {:.1}%, {} KiB",
        wide.len(),
        wide.fill_factor() * 100.0,
        wide.device_bytes() / 1024
    );
    sim.take_metrics();
    let keys: Vec<u64> = sessions.iter().map(|&(k, _)| k).collect();
    let found = wide.find_batch(&mut sim, &keys);
    let m = sim.take_metrics();
    assert!(found.iter().all(|f| f.is_some()));
    println!(
        "  probed {:.2} buckets per find (guarantee: ≤ 2), {:.0} Mops simulated",
        m.lookups as f64 / keys.len() as f64,
        gpu_sim::CostModel::new(sim.device.config()).mops(m.ops, &m)
    );
    Ok(())
}
