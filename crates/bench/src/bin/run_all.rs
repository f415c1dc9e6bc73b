//! Run the complete experiment suite — every table, figure and ablation —
//! in order. Equivalent to invoking each binary by hand; used to populate
//! `EXPERIMENTS.md` and `bench_figures.txt`.
//!
//! `REPRO_SCALE` (default 0.02) and `REPRO_SEED` apply to every experiment.

use std::process::Command;

const BINARIES: &[&str] = &[
    "table2_datasets",
    "fig5_atomics",
    "fig6_vary_tables",
    "fig7_resize",
    "fig8_static",
    "fig9_filled_factor",
    "fig10_vary_r",
    "fig11_stability",
    "fig12_batch_size",
    "fig13_vary_alpha",
    "fig14_vary_beta",
    "appendix_static",
    "profiling",
    "ablation_voter",
    "ablation_two_layer",
    "ablation_distribution",
    "layout_sweep",
    "maintenance_sweep",
    "strkey_sweep",
    "negative_sweep",
    "agg_sweep",
    "perf_ledger",
];

fn main() {
    let exe_dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    for bin in BINARIES {
        println!("\n################ {bin} ################");
        let status = Command::new(exe_dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} exited with {status}");
    }
    println!("\nAll experiments completed.");
}
