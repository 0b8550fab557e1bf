//! Cross-validation: the parallel machine must compute the same physics
//! as the sequential reference code, and produce identical results across
//! host execution modes, rank counts, indexing schemes and dedup tables.

use pic_core::{DedupKind, ParallelPicSim, SequentialPicSim, SimConfig};
use pic_index::IndexScheme;
use pic_machine::{MachineConfig, SpmdEngine};
use pic_partition::PolicyKind;

fn sorted_positions(xs: &[f64], ys: &[f64]) -> Vec<(i64, i64)> {
    // quantize to 1e-9 cells so float-summation-order noise is ignored
    let mut v: Vec<(i64, i64)> = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| ((x * 1e9).round() as i64, (y * 1e9).round() as i64))
        .collect();
    v.sort_unstable();
    v
}

fn parallel_positions(sim: &ParallelPicSim) -> Vec<(i64, i64)> {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for st in sim.machine().ranks() {
        xs.extend_from_slice(&st.particles.x);
        ys.extend_from_slice(&st.particles.y);
    }
    sorted_positions(&xs, &ys)
}

#[test]
fn parallel_matches_sequential_physics() {
    let cfg = SimConfig::small_test();
    let mut seq = SequentialPicSim::new(cfg.clone());
    let mut par = ParallelPicSim::new(cfg);
    for _ in 0..5 {
        seq.step();
    }
    par.run(5);

    let seq_pos = sorted_positions(&seq.particles().x, &seq.particles().y);
    let par_pos = parallel_positions(&par);
    assert_eq!(seq_pos.len(), par_pos.len());
    let mismatches = seq_pos
        .iter()
        .zip(&par_pos)
        .filter(|(a, b)| {
            let dx = (a.0 - b.0).abs();
            let dy = (a.1 - b.1).abs();
            dx > 1000 || dy > 1000 // > 1e-6 cells apart
        })
        .count();
    assert_eq!(mismatches, 0, "{mismatches} particles diverged");

    let es = seq.energy();
    let ep = par.energy();
    assert!(
        (es.kinetic - ep.kinetic).abs() < 1e-6 * es.kinetic.max(1.0),
        "kinetic {} vs {}",
        es.kinetic,
        ep.kinetic
    );
    assert!(
        (es.field - ep.field).abs() < 1e-6 * es.field.max(1e-12),
        "field {} vs {}",
        es.field,
        ep.field
    );
}

#[test]
fn rank_count_does_not_change_physics() {
    let energy_with = |ranks: usize| {
        let mut cfg = SimConfig::small_test();
        cfg.machine = MachineConfig::cm5(ranks);
        let mut sim = ParallelPicSim::new(cfg);
        sim.run(4);
        (sim.energy(), parallel_positions(&sim))
    };
    let (e1, p1) = energy_with(1);
    let (e4, p4) = energy_with(4);
    let (e8, p8) = energy_with(8);
    assert!((e1.kinetic - e4.kinetic).abs() < 1e-6 * e1.kinetic);
    assert!((e1.kinetic - e8.kinetic).abs() < 1e-6 * e1.kinetic);
    assert_eq!(p1.len(), p4.len());
    assert_eq!(p1, p4);
    assert_eq!(p1, p8);
}

#[test]
fn indexing_scheme_does_not_change_physics() {
    let run = |scheme| {
        let mut cfg = SimConfig::small_test();
        cfg.scheme = scheme;
        cfg.policy = PolicyKind::Periodic(2);
        let mut sim = ParallelPicSim::new(cfg);
        sim.run(6);
        parallel_positions(&sim)
    };
    let hilbert = run(IndexScheme::Hilbert);
    let snake = run(IndexScheme::Snake);
    assert_eq!(hilbert, snake);
}

#[test]
fn dedup_table_does_not_change_physics() {
    let run = |dedup| {
        let mut cfg = SimConfig::small_test();
        cfg.dedup = dedup;
        let mut sim = ParallelPicSim::new(cfg);
        sim.run(4);
        (parallel_positions(&sim), sim.energy())
    };
    let (ph, eh) = run(DedupKind::Hash);
    let (pd, ed) = run(DedupKind::Direct);
    assert_eq!(ph, pd);
    assert!((eh.kinetic - ed.kinetic).abs() < 1e-9 * eh.kinetic.max(1.0));
}

#[test]
fn redistribution_preserves_physics_and_counts() {
    let mut with_redist = SimConfig::small_test();
    with_redist.policy = PolicyKind::Periodic(1); // every iteration
    let mut without = SimConfig::small_test();
    without.policy = PolicyKind::Static;

    let mut a = ParallelPicSim::new(with_redist);
    let mut b = ParallelPicSim::new(without);
    a.run(5);
    b.run(5);
    assert_eq!(a.total_particles(), 512);
    assert_eq!(b.total_particles(), 512);
    assert_eq!(parallel_positions(&a), parallel_positions(&b));
}

#[test]
fn eulerian_movement_matches_lagrangian_physics() {
    let mut eul = SimConfig::small_test();
    eul.movement = pic_core::MovementMethod::Eulerian;
    let lag = SimConfig::small_test();

    let mut a = ParallelPicSim::new(eul);
    let mut b = ParallelPicSim::new(lag);
    a.run(5);
    b.run(5);
    assert_eq!(a.total_particles(), b.total_particles());
    assert_eq!(parallel_positions(&a), parallel_positions(&b));
}

#[test]
fn lagrangian_counts_stay_fixed_between_redistributions() {
    let mut cfg = SimConfig::small_test();
    cfg.policy = PolicyKind::Static;
    let mut sim = ParallelPicSim::new(cfg);
    let counts0 = sim.particle_counts();
    sim.run(8);
    assert_eq!(
        sim.particle_counts(),
        counts0,
        "particles migrated under Lagrangian"
    );
    // and the initial distribution balanced them
    let max = counts0.iter().max().unwrap();
    let min = counts0.iter().min().unwrap();
    assert!(
        max - min <= 1,
        "unbalanced initial distribution: {counts0:?}"
    );
}

#[test]
fn eulerian_counts_drift_with_particle_motion() {
    // with an irregular distribution, Eulerian ownership follows the
    // particles; counts become unbalanced exactly as Table 1 predicts
    let mut cfg = SimConfig::small_test();
    cfg.movement = pic_core::MovementMethod::Eulerian;
    let mut sim = ParallelPicSim::new(cfg);
    sim.run(3);
    let counts = sim.particle_counts();
    let max = counts.iter().max().unwrap();
    let min = counts.iter().min().unwrap();
    assert!(max - min > 1, "expected Eulerian imbalance, got {counts:?}");
}
