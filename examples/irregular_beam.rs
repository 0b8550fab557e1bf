//! Irregular beam: the paper's hard case, comparing redistribution
//! policies head to head.
//!
//! Particles start concentrated in the domain centre (paper Figure 15)
//! and expand thermally.  Under the direct Lagrangian method each rank's
//! particle subdomain smears across the mesh, so scatter/gather
//! communication keeps rising unless the particles are redistributed.
//! This example runs the same 200-iteration simulation under static,
//! periodic and dynamic policies and prints the trade-off table.
//!
//! ```text
//! cargo run --release --example irregular_beam
//! ```

use pic1996::machine::SpmdEngine;
use pic1996::prelude::*;
use pic_particles::ParticleDistribution;

fn main() {
    let base = SimConfig {
        nx: 64,
        ny: 64,
        particles: 16_384,
        distribution: ParticleDistribution::IrregularCenter,
        machine: MachineConfig::cm5(16),
        thermal_u: 0.7,
        ..SimConfig::paper_default()
    };
    println!(
        "irregular beam: {} particles, {}x{} mesh, {} ranks, 200 iterations\n",
        base.particles, base.nx, base.ny, base.machine.ranks
    );

    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>8} {:>12}",
        "policy", "total (s)", "exec (s)", "redist (s)", "#redist", "final align"
    );

    let policies = [
        PolicyKind::Static,
        PolicyKind::Periodic(50),
        PolicyKind::Periodic(25),
        PolicyKind::Periodic(10),
        PolicyKind::Periodic(5),
        PolicyKind::DynamicSar,
    ];
    let mut best: Option<(String, f64)> = None;
    for policy in policies {
        let mut cfg = base.clone();
        cfg.policy = policy;
        let mut sim = ParallelPicSim::new(cfg);
        let report = sim.run(200);
        let align = sim
            .alignment()
            .iter()
            .map(|r| r.overlap_fraction)
            .sum::<f64>()
            / sim.machine().num_ranks() as f64;
        println!(
            "{:<16} {:>10.2} {:>10.2} {:>10.2} {:>8} {:>12.2}",
            policy.label(),
            report.total_s,
            report.total_s - report.redistribute_total_s,
            report.redistribute_total_s,
            report.redistributions,
            align
        );
        let better = match &best {
            Some((_, t)) => report.total_s < *t,
            None => true,
        };
        if better {
            best = Some((policy.label(), report.total_s));
        }
    }
    let (name, t) = best.unwrap();
    println!("\nwinner: {name} at {t:.2} modeled seconds");
    println!("(the paper's point: dynamic needs no tuning yet lands near the best period)");
}
