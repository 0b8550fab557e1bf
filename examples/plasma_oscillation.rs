//! Langmuir (plasma) oscillation under the electrostatic PIC variant —
//! a quantitative physics validation of the whole deposit/solve/push
//! chain: a cold electron plasma displaced sinusoidally must ring at the
//! plasma frequency `omega_p = sqrt(n0 q^2 / m)`.  The test
//! `langmuir_period_matches_plasma_frequency` asserts the same setup
//! within 2%.
//!
//! ```text
//! cargo run --release --example plasma_oscillation
//! ```

use pic_core::electrostatic::period_from_kinetic_minima;
use pic_core::ElectrostaticPicSim;

fn main() {
    let cfg = ElectrostaticPicSim::langmuir_config(64, 8);
    let dt = cfg.dt;
    let mut sim = ElectrostaticPicSim::new(cfg);
    // quiet start: lattice positions, sinusoidal velocity perturbation
    sim.quiet_start(0.02);

    let omega_p = sim.plasma_frequency();
    let period = std::f64::consts::TAU / omega_p;
    println!("plasma frequency omega_p = {omega_p:.4}  (period {period:.1} time units)");
    println!("\n{:>8} {:>14} {:>14}", "t", "kinetic", "field");

    let steps = (2.0 * period / dt) as usize;
    let mut kinetic = Vec::with_capacity(steps);
    for s in 0..steps {
        sim.step();
        let e = sim.energy();
        kinetic.push(e.kinetic);
        if s % (steps / 16).max(1) == 0 {
            println!(
                "{:>8.2} {:>14.6e} {:>14.6e}",
                (s + 1) as f64 * dt,
                e.kinetic,
                e.field
            );
        }
    }

    // K ~ cos^2(omega_p t): kinetic-energy minima every half period
    match period_from_kinetic_minima(&kinetic, dt) {
        Some(measured) => println!(
            "\nmeasured period {measured:.2} vs theory {period:.2} ({:+.2}% error)",
            100.0 * (measured / period - 1.0)
        ),
        None => println!("\nno oscillation detected — check the perturbation amplitude"),
    }
}
