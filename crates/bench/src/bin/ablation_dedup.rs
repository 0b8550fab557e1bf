//! Ablation: duplicate-removal table choice inside the full simulation
//! (paper Section 3.2 / Figure 8).
//!
//! This harness measures the modeled end-to-end difference: the direct
//! address table trades O(m) memory for cheaper per-access cost, which
//! shows up in the scatter phase's compute time but leaves the
//! communication volume identical (dedup semantics are equal).

use pic_bench::{iters_from_args, paper_cfg, write_csv};
use pic_core::{DedupKind, ParallelPicSim};
use pic_index::IndexScheme;
use pic_particles::ParticleDistribution;
use pic_partition::PolicyKind;

fn main() {
    let iters = iters_from_args(100);
    println!("Dedup ablation: hash vs direct address table, {iters} iterations\n");
    println!(
        "{:<10} {:>14} {:>14} {:>16}",
        "table", "scatter (s)", "total (s)", "scatter bytes"
    );
    let mut rows = Vec::new();
    for dedup in [DedupKind::Hash, DedupKind::Direct] {
        let mut cfg = paper_cfg(
            128,
            64,
            32_768,
            32,
            ParticleDistribution::IrregularCenter,
            IndexScheme::Hilbert,
            PolicyKind::Static,
        );
        cfg.dedup = dedup;
        let mut sim = ParallelPicSim::new(cfg);
        let report = sim.run(iters);
        let scatter_bytes: u64 = report
            .iterations
            .iter()
            .map(|r| r.scatter_max_bytes_sent)
            .sum();
        let total = report.total_s;
        let scatter_s = report.breakdown.scatter_s;
        let label = match dedup {
            DedupKind::Hash => "hash",
            DedupKind::Direct => "direct",
        };
        println!(
            "{:<10} {:>14.3} {:>14.3} {:>16}",
            label, scatter_s, total, scatter_bytes
        );
        rows.push(format!("{label},{scatter_s:.5},{total:.5},{scatter_bytes}"));
    }
    write_csv(
        "ablation_dedup.csv",
        "table,scatter_s,total_s,scatter_bytes_sum",
        &rows,
    );
    println!("\n(identical bytes — same dedup semantics; direct table cheaper in compute)");
}
