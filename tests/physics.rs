//! Physics oracles: the simulated plasma against analytic theory, not
//! one executor against another.

use pic_core::electrostatic::period_from_kinetic_minima;
use pic_core::ElectrostaticPicSim;

/// A cold plasma displaced by one sinusoidal mode rings at the plasma
/// frequency: the measured Langmuir period must be within 2% of
/// `2π / ω_p`.  Same setup as `examples/plasma_oscillation.rs`.
#[test]
fn langmuir_period_matches_plasma_frequency() {
    let cfg = ElectrostaticPicSim::langmuir_config(64, 8);
    let dt = cfg.dt;
    let mut sim = ElectrostaticPicSim::new(cfg);
    sim.quiet_start(0.02);
    let theory = std::f64::consts::TAU / sim.plasma_frequency();
    // two periods: four kinetic minima
    let steps = (2.0 * theory / dt) as usize;
    let kinetic: Vec<f64> = (0..steps)
        .map(|_| {
            sim.step();
            sim.energy().kinetic
        })
        .collect();
    let measured = period_from_kinetic_minima(&kinetic, dt).expect("no oscillation");
    let error = measured / theory - 1.0;
    assert!(
        error.abs() < 0.02,
        "Langmuir period {measured:.3} vs 2π/ω_p = {theory:.3} ({:+.2}%)",
        100.0 * error
    );
}
