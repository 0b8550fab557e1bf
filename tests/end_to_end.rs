//! Workspace-level integration: the umbrella crate's public API drives a
//! full simulation and the cross-crate data flows hold together.

use pic1996::machine::SpmdEngine;
use pic1996::prelude::*;
use pic1996::{core::ideal_bounds, index::neighbor_jump_stats};
use pic_particles::ParticleDistribution;

#[test]
fn prelude_supports_the_quickstart_flow() {
    let mut cfg = SimConfig::small_test();
    cfg.policy = PolicyKind::DynamicSar;
    let mut sim = ParallelPicSim::new(cfg);
    let report = sim.run(10);
    assert_eq!(report.iterations.len(), 10);
    assert_eq!(sim.total_particles(), 512);
    assert!(sim.energy().kinetic > 0.0);
}

#[test]
fn indexer_layout_and_sim_agree_on_geometry() {
    let cfg = SimConfig::small_test();
    let sim = ParallelPicSim::new(cfg.clone());
    let layout = sim.layout();
    assert_eq!(layout.nx(), cfg.nx);
    assert_eq!(layout.num_ranks(), cfg.machine.ranks);
    // every rank's block matches its state's rect
    for (r, st) in sim.machine().ranks().iter().enumerate() {
        assert_eq!(st.rect, layout.local_rect(r));
    }
}

#[test]
fn analytic_bounds_are_positive_for_paper_configs() {
    for p in [32, 64, 128] {
        let b = ideal_bounds(&MachineConfig::cm5(p), 32_768, 128 * 64, 28);
        assert!(b.scatter_s > 0.0 && b.total_s() > b.push_s);
    }
}

#[test]
fn hilbert_beats_snake_on_curve_locality_for_paper_meshes() {
    for (nx, ny) in [(128, 64), (256, 128), (512, 256)] {
        let h = neighbor_jump_stats(&HilbertIndexer::new(nx, ny));
        let s = neighbor_jump_stats(&SnakeIndexer::new(nx, ny));
        assert!(h.mean < s.mean, "{nx}x{ny}");
    }
}

#[test]
fn sequential_reference_agrees_with_machine_on_tiny_case() {
    let cfg = SimConfig::small_test();
    let mut seq = SequentialPicSim::new(cfg.clone());
    let mut par = ParallelPicSim::new(cfg);
    seq.run(3);
    par.run(3);
    let ek_seq = seq.energy().kinetic;
    let ek_par = par.energy().kinetic;
    assert!((ek_seq - ek_par).abs() < 1e-6 * ek_seq);
}

#[test]
fn all_distributions_run_end_to_end() {
    for dist in [
        ParticleDistribution::Uniform,
        ParticleDistribution::IrregularCenter,
        ParticleDistribution::TwoStream,
        ParticleDistribution::Ring,
    ] {
        let mut cfg = SimConfig::small_test();
        cfg.distribution = dist;
        let mut sim = ParallelPicSim::new(cfg);
        let report = sim.run(3);
        assert_eq!(report.iterations.len(), 3, "{dist}");
        assert_eq!(sim.total_particles(), 512, "{dist}");
    }
}

#[test]
fn modeled_time_is_reproducible_across_runs() {
    let run = || {
        let mut sim = ParallelPicSim::new(SimConfig::small_test());
        sim.run(5).total_s
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "modeled time must be bit-for-bit deterministic");
}
