//! Electrostatic PIC variant (extension).
//!
//! The paper's lineage starts from electrostatic codes (Lubeck & Faber's
//! 2-D electrostatic problem, Section 3).  This module provides the
//! electrostatic field solve — charge deposit, periodic Poisson solve,
//! `E = -grad(phi)` — behind the same particle machinery, both as a
//! sequential reference and for physics validation: a cold plasma with a
//! sinusoidal velocity perturbation must ring at the plasma frequency,
//! exchanging kinetic and field energy.  Its gather reads only the two
//! in-plane E components; the particle step is the shared
//! [`pic_particles::advance`] with B = 0.

use pic_field::poisson::{efield_from_phi, solve_poisson_periodic};
use pic_field::Grid2;
use pic_machine::MachineConfig;
use pic_particles::push::{advance, BorisStep};
use pic_particles::{Cic, ParticleDistribution, Particles};
use pic_partition::PolicyKind;

use crate::config::SimConfig;
use crate::diagnostics::EnergyReport;

/// Sequential electrostatic PIC on a periodic 2-D grid.
pub struct ElectrostaticPicSim {
    cfg: SimConfig,
    /// Charge density (deposited each step).
    pub rho: Grid2<f64>,
    /// Electrostatic potential.
    pub phi: Grid2<f64>,
    /// Electric field x component.
    pub ex: Grid2<f64>,
    /// Electric field y component.
    pub ey: Grid2<f64>,
    particles: Particles,
    /// Jacobi sweeps allowed per field solve.
    pub max_sweeps: usize,
    /// Convergence tolerance for the Poisson solve.
    pub tol: f64,
    /// Neutralizing background charge density (immobile ions), set so the
    /// plasma is globally neutral.
    background: f64,
}

impl ElectrostaticPicSim {
    /// Build from the shared configuration (the EM-specific fields are
    /// ignored).
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate();
        let particles = cfg.load_particles();
        let cell = cfg.dx * cfg.dy;
        let background =
            -particles.charge * cfg.particles as f64 / (cfg.grid_points() as f64 * cell);
        Self {
            rho: Grid2::zeros(cfg.nx, cfg.ny),
            phi: Grid2::zeros(cfg.nx, cfg.ny),
            ex: Grid2::zeros(cfg.nx, cfg.ny),
            ey: Grid2::zeros(cfg.nx, cfg.ny),
            particles,
            max_sweeps: 400,
            tol: 1e-10,
            background,
            cfg,
        }
    }

    /// The Langmuir-oscillation configuration: a cold plasma of
    /// `nx × ny` unit cells on one rank, 16 particles per cell, charge
    /// 0.05 and `dt` = 0.25 (about 126 steps per plasma period).  Pair
    /// it with [`ElectrostaticPicSim::quiet_start`].
    pub fn langmuir_config(nx: usize, ny: usize) -> SimConfig {
        SimConfig {
            nx,
            ny,
            particles: nx * ny * 16,
            distribution: ParticleDistribution::Uniform,
            machine: MachineConfig::cm5(1),
            policy: PolicyKind::Static,
            thermal_u: 0.0,
            particle_charge: 0.05,
            dt: 0.25,
            ..SimConfig::paper_default()
        }
    }

    /// Replace the random load with a quiet start: 4 × 4 particles per
    /// cell on a regular lattice, so the deposited density is exactly
    /// uniform, moving with the x velocity `v0 · sin(2π x / lx)` — one
    /// Langmuir mode (`v0 = 0` leaves the plasma at rest).
    ///
    /// # Panics
    /// Panics unless the configuration loads 16 particles per cell, the
    /// count the background charge and [`Self::plasma_frequency`] assume.
    pub fn quiet_start(&mut self, v0: f64) {
        let (nx_p, ny_p) = (4 * self.cfg.nx, 4 * self.cfg.ny);
        assert_eq!(
            nx_p * ny_p,
            self.cfg.particles,
            "quiet start needs 16 particles per cell"
        );
        let (lx, ly) = (self.cfg.lx(), self.cfg.ly());
        let p = &mut self.particles;
        p.x.clear();
        p.y.clear();
        p.ux.clear();
        p.uy.clear();
        p.uz.clear();
        for j in 0..ny_p {
            for i in 0..nx_p {
                let x = (i as f64 + 0.5) * lx / nx_p as f64;
                let y = (j as f64 + 0.5) * ly / ny_p as f64;
                p.push(x, y, v0 * (std::f64::consts::TAU * x / lx).sin(), 0.0, 0.0);
            }
        }
    }

    /// The particle array.
    pub fn particles(&self) -> &Particles {
        &self.particles
    }

    /// Plasma frequency of the loaded population in normalized units:
    /// `omega_p^2 = n0 q^2 / m` with `n0` the mean number density.
    pub fn plasma_frequency(&self) -> f64 {
        let n0 = self.cfg.particles as f64 / (self.cfg.lx() * self.cfg.ly());
        (n0 * self.cfg.particle_charge.powi(2) / self.particles.mass).sqrt()
    }

    /// Run one electrostatic iteration: deposit rho, solve Poisson,
    /// gather E, push (B = 0).
    pub fn step(&mut self) {
        let (nx, ny) = (self.cfg.nx, self.cfg.ny);
        let (dx, dy) = (self.cfg.dx, self.cfg.dy);
        let cell = dx * dy;
        let n = self.particles.len();

        // scatter: charge deposit plus neutralizing background
        self.rho.fill(self.background);
        let q = self.particles.charge;
        for i in 0..n {
            let cic = Cic::new(self.particles.x[i], self.particles.y[i], dx, dy, nx, ny);
            for (k, (cx, cy)) in cic.corners(nx, ny).into_iter().enumerate() {
                self.rho[(cx, cy)] += q * cic.w[k] / cell;
            }
        }

        // field solve: warm-started Poisson + gradient
        solve_poisson_periodic(&mut self.phi, &self.rho, dx, dy, self.max_sweeps, self.tol);
        let (ex, ey) = efield_from_phi(&self.phi, dx, dy);
        self.ex = ex;
        self.ey = ey;

        // gather + push
        let qm = self.particles.qm();
        let dt = self.cfg.dt;
        let (lx, ly) = (self.cfg.lx(), self.cfg.ly());
        for i in 0..n {
            let cic = Cic::new(self.particles.x[i], self.particles.y[i], dx, dy, nx, ny);
            let mut e = [0.0f64; 3];
            for (k, (cx, cy)) in cic.corners(nx, ny).into_iter().enumerate() {
                e[0] += cic.w[k] * self.ex[(cx, cy)];
                e[1] += cic.w[k] * self.ey[(cx, cy)];
            }
            let fields = BorisStep { e, b: [0.0; 3] };
            advance(&mut self.particles, i, &fields, qm, dt, lx, ly);
        }
    }

    /// Run `iterations` steps.
    pub fn run(&mut self, iterations: usize) {
        for _ in 0..iterations {
            self.step();
        }
    }

    /// Energy diagnostics: kinetic plus electrostatic field energy.
    pub fn energy(&self) -> EnergyReport {
        let cell = self.cfg.dx * self.cfg.dy;
        let field = self
            .ex
            .as_slice()
            .iter()
            .zip(self.ey.as_slice())
            .map(|(&ex, &ey)| 0.5 * (ex * ex + ey * ey) * cell)
            .sum();
        EnergyReport {
            kinetic: self.particles.kinetic_energy(),
            field,
        }
    }
}

/// The period of a Langmuir oscillation from its kinetic energy series
/// (`kinetic[i]` after step `i + 1` of length `dt`).  The energy goes as
/// `cos²(ω_p t)`, so its minima fall every half period; each minimum is
/// located between samples by the parabola through it and its two
/// neighbours, and the period is twice their mean spacing.  `None` when
/// the series holds fewer than two minima.
pub fn period_from_kinetic_minima(kinetic: &[f64], dt: f64) -> Option<f64> {
    let minima: Vec<f64> = (1..kinetic.len().saturating_sub(1))
        .filter(|&i| kinetic[i] < kinetic[i - 1] && kinetic[i] <= kinetic[i + 1])
        .map(|i| {
            let (a, b, c) = (kinetic[i - 1], kinetic[i], kinetic[i + 1]);
            let curvature = a - 2.0 * b + c;
            let shift = if curvature > 0.0 {
                0.5 * (a - c) / curvature
            } else {
                0.0
            };
            (i as f64 + 1.0 + shift) * dt
        })
        .collect();
    match minima.as_slice() {
        [first, .., last] => Some(2.0 * (last - first) / (minima.len() - 1) as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn es_cfg() -> SimConfig {
        SimConfig {
            seed: 11,
            ..ElectrostaticPicSim::langmuir_config(32, 8)
        }
    }

    #[test]
    fn neutral_cold_plasma_is_quiescent() {
        let mut sim = ElectrostaticPicSim::new(es_cfg());
        sim.quiet_start(0.0);
        sim.run(5);
        let e = sim.energy();
        // lattice load + background: fields stay at roundoff level
        assert!(e.field < 1e-9, "field energy {}", e.field);
        assert!(e.kinetic < 1e-12, "plasma heated itself: {}", e.kinetic);
    }

    #[test]
    fn charge_deposit_is_neutral_overall() {
        let mut sim = ElectrostaticPicSim::new(es_cfg());
        sim.step();
        let total: f64 = sim.rho.as_slice().iter().sum();
        assert!(total.abs() < 1e-9, "net charge {total}");
    }

    #[test]
    fn perturbed_plasma_oscillates_at_plasma_frequency() {
        // classic Langmuir oscillation from a quiet start: give the
        // lattice electrons a sinusoidal x velocity; kinetic energy
        // K ~ cos^2(omega_p t) first vanishes at a quarter period
        let mut sim = ElectrostaticPicSim::new(es_cfg());
        sim.quiet_start(0.02);
        let omega_p = sim.plasma_frequency();
        let dt = 0.25;
        // search inside the first 60% of one plasma period so the global
        // minimum is the *first* kinetic minimum
        let steps = ((0.6 * std::f64::consts::TAU / omega_p) / dt) as usize;
        let mut kinetic = Vec::with_capacity(steps);
        for _ in 0..steps {
            sim.step();
            kinetic.push(sim.energy().kinetic);
        }
        let min_idx = kinetic
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let t_quarter = (min_idx + 1) as f64 * dt;
        let expect = 0.5 * std::f64::consts::PI / omega_p;
        let ratio = t_quarter / expect;
        assert!(
            (0.7..1.4).contains(&ratio),
            "first kinetic minimum at t = {t_quarter:.2}, expected ~{expect:.2} (ratio {ratio:.2})"
        );
        // and the energy must actually have dipped substantially
        assert!(
            kinetic[min_idx] < 0.2 * kinetic[0],
            "no oscillation: K0 = {}, Kmin = {}",
            kinetic[0],
            kinetic[min_idx]
        );
    }

    #[test]
    fn momentum_is_conserved_without_external_fields() {
        let mut cfg = es_cfg();
        cfg.thermal_u = 0.1;
        let mut sim = ElectrostaticPicSim::new(cfg);
        let px0: f64 = sim.particles().ux.iter().sum();
        sim.run(10);
        let px1: f64 = sim.particles().ux.iter().sum();
        // self-consistent internal forces nearly cancel (exact
        // conservation does not hold for CIC+grid forces, but drift must
        // be small relative to thermal momentum content)
        let scale: f64 = sim.particles().ux.iter().map(|u| u.abs()).sum();
        assert!(
            (px1 - px0).abs() < 1e-2 * scale.max(1.0),
            "momentum drift {px0} -> {px1}"
        );
    }
}
