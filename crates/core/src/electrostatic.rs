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
use pic_particles::push::{advance, BorisStep};
use pic_particles::{Cic, Particles};

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

    /// The particle array.
    pub fn particles(&self) -> &Particles {
        &self.particles
    }

    /// Mutable particle access (tests perturb velocities).
    pub fn particles_mut(&mut self) -> &mut Particles {
        &mut self.particles
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

#[cfg(test)]
mod tests {
    use super::*;
    use pic_machine::MachineConfig;
    use pic_particles::ParticleDistribution;
    use pic_partition::PolicyKind;

    fn es_cfg() -> SimConfig {
        SimConfig {
            nx: 32,
            ny: 8,
            particles: 32 * 8 * 16, // 16 per cell for a quiet start
            distribution: ParticleDistribution::Uniform,
            machine: MachineConfig::cm5(1),
            policy: PolicyKind::Static,
            thermal_u: 0.0,
            particle_charge: 0.05,
            dt: 0.25,
            seed: 11,
            ..SimConfig::paper_default()
        }
    }

    /// Replace the random load with a quiet start: particles on a regular
    /// lattice, so the deposited density is exactly uniform and the only
    /// dynamics are the ones we inject.
    fn quiet_start(sim: &mut ElectrostaticPicSim, nx_p: usize, ny_p: usize) {
        let (lx, ly) = (32.0, 8.0);
        let p = sim.particles_mut();
        p.x.clear();
        p.y.clear();
        p.ux.clear();
        p.uy.clear();
        p.uz.clear();
        for j in 0..ny_p {
            for i in 0..nx_p {
                p.push(
                    (i as f64 + 0.5) * lx / nx_p as f64,
                    (j as f64 + 0.5) * ly / ny_p as f64,
                    0.0,
                    0.0,
                    0.0,
                );
            }
        }
    }

    #[test]
    fn neutral_cold_plasma_is_quiescent() {
        let mut sim = ElectrostaticPicSim::new(es_cfg());
        quiet_start(&mut sim, 128, 32); // 4096 particles, 16 per cell
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
        quiet_start(&mut sim, 128, 32);
        let lx = 32.0;
        let v0 = 0.02;
        for i in 0..sim.particles().len() {
            let x = sim.particles().x[i];
            sim.particles_mut().ux[i] = v0 * (std::f64::consts::TAU * x / lx).sin();
        }
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
