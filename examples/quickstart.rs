//! Quickstart: run the paper's headline configuration for 100 iterations
//! and print what the dynamic alignment machinery is doing.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pic1996::machine::SpmdEngine;
use pic1996::prelude::*;

fn main() {
    // The setup behind the paper's Figures 17-19: a 128x64 mesh, 32768
    // particles concentrated in the domain centre, 32 processors,
    // Hilbert indexing and the dynamic (Stop-At-Rise) policy.
    let cfg = SimConfig::paper_default();
    println!(
        "mesh {}x{}, {} particles ({}), {} ranks, {} indexing, policy {}",
        cfg.nx,
        cfg.ny,
        cfg.particles,
        cfg.distribution,
        cfg.machine.ranks,
        cfg.scheme,
        cfg.policy.label(),
    );

    let mut sim = ParallelPicSim::new(cfg);
    println!(
        "initial distribution done; per-rank particle counts: {:?} (min..max)",
        {
            let c = sim.particle_counts();
            (c.iter().min().copied(), c.iter().max().copied())
        }
    );

    println!(
        "\n{:>5} {:>12} {:>14} {:>14} {:>8}",
        "iter", "time (ms)", "scatter B sent", "scatter msgs", "redist"
    );
    let mut report_rows = Vec::new();
    for _ in 0..100 {
        let rec = sim.step();
        report_rows.push(rec);
        if rec.iter.is_multiple_of(10) || rec.redistributed {
            println!(
                "{:>5} {:>12.3} {:>14} {:>14} {:>8}",
                rec.iter,
                rec.time_s * 1e3,
                rec.scatter_max_bytes_sent,
                rec.scatter_max_msgs_sent,
                if rec.redistributed { "yes" } else { "" }
            );
        }
    }

    let total: f64 = report_rows
        .iter()
        .map(|r| r.time_s + r.redistribute_s)
        .sum();
    let redists = report_rows.iter().filter(|r| r.redistributed).count();
    let energy = sim.energy();
    println!("\nmodeled total: {total:.2} s on the CM-5 cost model");
    println!("redistributions: {redists}");
    println!(
        "energy: kinetic {:.3}, field {:.5}, particles {}",
        energy.kinetic,
        energy.field,
        sim.total_particles()
    );

    // alignment quality: how much of each rank's particle subdomain
    // overlaps its own mesh block
    let overlap: f64 = sim
        .alignment()
        .iter()
        .map(|r| r.overlap_fraction)
        .sum::<f64>()
        / sim.machine().num_ranks() as f64;
    println!("mean particle/mesh overlap after 100 iterations: {overlap:.2}");
}
