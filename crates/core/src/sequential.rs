//! Sequential reference PIC.
//!
//! A single-address-space implementation of the same physics — the role
//! David Walker's sequential code played for the paper.  It validates the
//! parallel code (same seed must give the same physics up to
//! floating-point summation order) and provides `T_sequential` for the
//! Table 3 efficiency computation.
//!
//! The full-mesh kernels live here: `deposit_full_mesh` and
//! `gather_push_full_mesh` run on one whole periodic mesh, so the
//! replicated-grid baseline calls them on each rank's replica.  The
//! particle step itself is [`pic_particles::advance`], shared with every
//! driver.  The distributed phases keep their own deposit and
//! interpolation (ghost tables, block-local offsets), so comparing them
//! with this code checks two independent implementations.

use pic_field::{field_energy, CurrentSet, FieldSet, MaxwellSolver};
use pic_particles::push::{advance, gamma_of, BorisStep};
use pic_particles::{Cic, Particles};

use crate::config::SimConfig;
use crate::costs;
use crate::diagnostics::EnergyReport;

/// The sequential PIC simulation.
pub struct SequentialPicSim {
    cfg: SimConfig,
    fields: FieldSet,
    currents: CurrentSet,
    particles: Particles,
    solver: MaxwellSolver,
    /// Accumulated op units, for the modeled sequential time.
    ops: f64,
}

impl SequentialPicSim {
    /// Build from the same configuration as the parallel code (machine
    /// parameters are ignored except `delta` for the modeled time).
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate();
        let particles = cfg.load_particles();
        Self {
            fields: FieldSet::zeros(cfg.nx, cfg.ny),
            currents: CurrentSet::zeros(cfg.nx, cfg.ny),
            solver: MaxwellSolver::new(cfg.dt, cfg.dx, cfg.dy),
            particles,
            cfg,
            ops: 0.0,
        }
    }

    /// Run one iteration of the four phases.
    pub fn step(&mut self) {
        let (nx, ny) = (self.cfg.nx, self.cfg.ny);
        let n = self.particles.len() as f64;

        deposit_full_mesh(&self.particles, &mut self.currents, &self.cfg);
        self.ops += n * 4.0 * costs::SCATTER_VERTEX;

        self.solver.step_periodic(&mut self.fields, &self.currents);
        self.ops += (nx * ny) as f64 * (costs::FIELD_POINT_B + costs::FIELD_POINT_E);

        gather_push_full_mesh(&mut self.particles, &self.fields, &self.cfg);
        self.ops += n * (4.0 * costs::GATHER_VERTEX + costs::PUSH_PARTICLE);
    }

    /// Run `iterations` steps.
    pub fn run(&mut self, iterations: usize) {
        for _ in 0..iterations {
            self.step();
        }
    }

    /// Modeled sequential execution time: accumulated op units at the
    /// machine's `delta` (one processor, no communication).
    pub fn modeled_time_s(&self) -> f64 {
        self.ops * self.cfg.machine.delta
    }

    /// The particle array (for validation against the parallel run).
    pub fn particles(&self) -> &Particles {
        &self.particles
    }

    /// The field set.
    pub fn fields(&self) -> &FieldSet {
        &self.fields
    }

    /// Energy diagnostics.
    pub fn energy(&self) -> EnergyReport {
        EnergyReport {
            kinetic: self.particles.kinetic_energy(),
            field: field_energy(&self.fields, self.cfg.dx, self.cfg.dy),
        }
    }
}

/// Scatter phase on a whole periodic mesh: clear `currents`, then deposit
/// every particle's current `q v` onto the four vertices of its cell with
/// its CIC weights.
pub(crate) fn deposit_full_mesh(p: &Particles, currents: &mut CurrentSet, cfg: &SimConfig) {
    let (nx, ny) = (cfg.nx, cfg.ny);
    let (dx, dy) = (cfg.dx, cfg.dy);
    let q = p.charge;
    currents.clear();
    for i in 0..p.len() {
        let u = [p.ux[i], p.uy[i], p.uz[i]];
        let gamma = gamma_of(u);
        let v = [u[0] / gamma, u[1] / gamma, u[2] / gamma];
        let cic = Cic::new(p.x[i], p.y[i], dx, dy, nx, ny);
        for (k, (cx, cy)) in cic.corners(nx, ny).into_iter().enumerate() {
            let w = cic.w[k];
            currents.jx[(cx, cy)] += q * v[0] * w;
            currents.jy[(cx, cy)] += q * v[1] * w;
            currents.jz[(cx, cy)] += q * v[2] * w;
        }
    }
}

/// Gather and push phases on a whole periodic mesh: interpolate E and B
/// at every particle in corner order, then [`advance`] it by `cfg.dt`.
pub(crate) fn gather_push_full_mesh(p: &mut Particles, fields: &FieldSet, cfg: &SimConfig) {
    let (nx, ny) = (cfg.nx, cfg.ny);
    let (dx, dy) = (cfg.dx, cfg.dy);
    let (qm, dt) = (p.qm(), cfg.dt);
    let (lx, ly) = (cfg.lx(), cfg.ly());
    for i in 0..p.len() {
        let cic = Cic::new(p.x[i], p.y[i], dx, dy, nx, ny);
        let mut e = [0.0f64; 3];
        let mut b = [0.0f64; 3];
        for (k, (cx, cy)) in cic.corners(nx, ny).into_iter().enumerate() {
            let w = cic.w[k];
            let vals = fields.at(cx, cy);
            for c in 0..3 {
                e[c] += w * vals[c];
                b[c] += w * vals[3 + c];
            }
        }
        advance(p, i, &BorisStep { e, b }, qm, dt, lx, ly);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particles_stay_in_domain() {
        let mut sim = SequentialPicSim::new(SimConfig::small_test());
        sim.run(20);
        let p = sim.particles();
        assert!(p.x.iter().all(|&x| (0.0..16.0).contains(&x)));
        assert!(p.y.iter().all(|&y| (0.0..16.0).contains(&y)));
    }

    #[test]
    fn particle_count_is_conserved() {
        let mut sim = SequentialPicSim::new(SimConfig::small_test());
        let n0 = sim.particles().len();
        sim.run(10);
        assert_eq!(sim.particles().len(), n0);
    }

    #[test]
    fn modeled_time_grows_linearly_with_iterations() {
        let mut sim = SequentialPicSim::new(SimConfig::small_test());
        sim.run(5);
        let t5 = sim.modeled_time_s();
        sim.run(5);
        let t10 = sim.modeled_time_s();
        assert!((t10 / t5 - 2.0).abs() < 1e-9);
        assert!(t5 > 0.0);
    }

    #[test]
    fn cold_plasma_stays_cold_without_fields() {
        // zero thermal spread, zero charge -> nothing moves
        let mut cfg = SimConfig::small_test();
        cfg.thermal_u = 0.0;
        cfg.particle_charge = 0.0;
        let mut sim = SequentialPicSim::new(cfg);
        let x0 = sim.particles().x.clone();
        sim.run(10);
        assert_eq!(sim.particles().x, x0);
        assert_eq!(sim.energy().kinetic, 0.0);
        assert_eq!(sim.energy().field, 0.0);
    }

    #[test]
    fn self_fields_grow_from_moving_charge() {
        // charged, warm plasma deposits current and builds fields
        let mut sim = SequentialPicSim::new(SimConfig::small_test());
        sim.run(5);
        assert!(sim.energy().field > 0.0);
    }
}
