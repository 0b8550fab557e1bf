//! The replicated-grid baseline (Lubeck & Faber, paper Section 3).
//!
//! "Lubeck and Faber chose to replicate the mesh grid array so that each
//! processor contains all the mesh grid data. [...] In the scatter phase,
//! the contributions of particles to the grid points are directly summed
//! into the mesh grid array in each processor and then the mesh grid
//! array is element-wise summed over all processors. [...] After the
//! field solve phase, a global concatenation operation is necessary to
//! broadcast the results of field values over all processors.  The
//! results [...] show that the direct Lagrangian method is an efficient
//! algorithm for small hypercubes.  However, for large hypercubes the
//! communication due to global operations on mesh grid array dominates
//! the run time."
//!
//! This module implements exactly that scheme on the virtual machine so
//! the motivating claim can be measured against the paper's distributed
//! approach: per-iteration communication is `O(m)` regardless of how well
//! particles are placed, so it cannot scale.

use pic_field::{CurrentSet, FieldSet, MaxwellSolver};
use pic_machine::{Machine, PhaseKind};
use pic_particles::push::{boris_push, gamma_of, BorisStep};
use pic_particles::{wrap_periodic, Cic, Particles};

use crate::config::SimConfig;
use crate::costs;
use crate::diagnostics::EnergyReport;

/// Rank state of the replicated-grid scheme: the *whole* mesh plus a
/// fixed particle subset.
pub struct ReplicatedState {
    /// Full-mesh fields (identical on every rank after each iteration).
    pub fields: FieldSet,
    /// Full-mesh current densities (local partial sums before the global
    /// sum, global sums after).
    pub currents: CurrentSet,
    /// The rank's fixed particle subset (direct Lagrangian).
    pub particles: Particles,
}

/// The replicated-grid parallel PIC simulation.
pub struct ReplicatedGridPicSim {
    cfg: SimConfig,
    machine: Machine<ReplicatedState>,
    solver: MaxwellSolver,
    iter: usize,
}

impl ReplicatedGridPicSim {
    /// Build the simulation; particles are split contiguously over ranks
    /// and never migrate.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate();
        let p = cfg.machine.ranks;
        let global =
            cfg.distribution
                .load(cfg.particles, cfg.lx(), cfg.ly(), cfg.thermal_u, cfg.seed);
        let states: Vec<ReplicatedState> = (0..p)
            .map(|r| {
                let mut particles = Particles::new(-cfg.particle_charge, 1.0);
                let lo = r * cfg.particles / p;
                let hi = (r + 1) * cfg.particles / p;
                for i in lo..hi {
                    let c = global.get(i);
                    particles.push(c[0], c[1], c[2], c[3], c[4]);
                }
                ReplicatedState {
                    fields: FieldSet::zeros(cfg.nx, cfg.ny),
                    currents: CurrentSet::zeros(cfg.nx, cfg.ny),
                    particles,
                }
            })
            .collect();
        let machine = Machine::new(cfg.machine, states);
        let solver = MaxwellSolver::new(cfg.dt, cfg.dx, cfg.dy);
        Self {
            cfg,
            machine,
            solver,
            iter: 0,
        }
    }

    /// Run one iteration of the Lubeck & Faber scheme.
    pub fn step(&mut self) {
        self.iter += 1;
        let (nx, ny) = (self.cfg.nx, self.cfg.ny);
        let (dx, dy) = (self.cfg.dx, self.cfg.dy);
        let m = nx * ny;
        let p = self.machine.num_ranks();

        // --- scatter: local deposit into the replicated grid ----------------
        self.machine
            .local_step(PhaseKind::Scatter, move |_r, st, ctx| {
                st.currents.clear();
                let q = st.particles.charge;
                for i in 0..st.particles.len() {
                    let u = [st.particles.ux[i], st.particles.uy[i], st.particles.uz[i]];
                    let gamma = gamma_of(u);
                    let v = [u[0] / gamma, u[1] / gamma, u[2] / gamma];
                    let cic = Cic::new(st.particles.x[i], st.particles.y[i], dx, dy, nx, ny);
                    for (k, (cx, cy)) in cic.corners(nx, ny).into_iter().enumerate() {
                        let w = cic.w[k];
                        st.currents.jx[(cx, cy)] += q * v[0] * w;
                        st.currents.jy[(cx, cy)] += q * v[1] * w;
                        st.currents.jz[(cx, cy)] += q * v[2] * w;
                    }
                }
                ctx.charge_ops(st.particles.len() as f64 * 4.0 * costs::SCATTER_VERTEX);
            });

        // --- global element-wise sum of the current arrays ------------------
        // three components, m doubles each: the O(m) global operation that
        // dominates at scale
        self.machine.allreduce_elementwise(
            PhaseKind::Scatter,
            3 * m * 8,
            |_r, st: &ReplicatedState| {
                let mut v = Vec::with_capacity(3 * m);
                v.extend_from_slice(st.currents.jx.as_slice());
                v.extend_from_slice(st.currents.jy.as_slice());
                v.extend_from_slice(st.currents.jz.as_slice());
                v
            },
            |a, b| a + b,
            |_r, st, sum: &[f64]| {
                st.currents.jx.as_mut_slice().copy_from_slice(&sum[..m]);
                st.currents
                    .jy
                    .as_mut_slice()
                    .copy_from_slice(&sum[m..2 * m]);
                st.currents.jz.as_mut_slice().copy_from_slice(&sum[2 * m..]);
            },
        );

        // --- field solve: strip-distributed, then concatenated --------------
        let strip = move |r: usize| -> (usize, usize) { (r * ny / p, (r + 1) * ny / p) };
        let solver = self.solver;
        self.machine
            .local_step(PhaseKind::FieldSolve, move |r, st, ctx| {
                let (y0, y1) = strip(r);
                solver.update_b_periodic_rows(&mut st.fields, y0, y1);
                ctx.charge_ops(((y1 - y0) * nx) as f64 * costs::FIELD_POINT_B);
            });
        self.concat_strips(strip, Which::B);
        self.machine
            .local_step(PhaseKind::FieldSolve, move |r, st, ctx| {
                let (y0, y1) = strip(r);
                let currents = st.currents.clone();
                solver.update_e_periodic_rows(&mut st.fields, &currents, y0, y1);
                ctx.charge_ops(((y1 - y0) * nx) as f64 * costs::FIELD_POINT_E);
            });
        self.concat_strips(strip, Which::E);

        // --- gather + push: fully local on the replicated mesh --------------
        let dt = self.cfg.dt;
        let (lx, ly) = (self.cfg.lx(), self.cfg.ly());
        self.machine
            .local_step(PhaseKind::Push, move |_r, st, ctx| {
                let qm = st.particles.qm();
                let n = st.particles.len();
                for i in 0..n {
                    let cic = Cic::new(st.particles.x[i], st.particles.y[i], dx, dy, nx, ny);
                    let mut e = [0.0f64; 3];
                    let mut b = [0.0f64; 3];
                    for (k, (cx, cy)) in cic.corners(nx, ny).into_iter().enumerate() {
                        let w = cic.w[k];
                        let vals = st.fields.at(cx, cy);
                        for c in 0..3 {
                            e[c] += w * vals[c];
                            b[c] += w * vals[3 + c];
                        }
                    }
                    let u = [st.particles.ux[i], st.particles.uy[i], st.particles.uz[i]];
                    let u2 = boris_push(u, &BorisStep { e, b }, qm, dt);
                    let gamma = gamma_of(u2);
                    st.particles.ux[i] = u2[0];
                    st.particles.uy[i] = u2[1];
                    st.particles.uz[i] = u2[2];
                    st.particles.x[i] = wrap_periodic(st.particles.x[i] + u2[0] / gamma * dt, lx);
                    st.particles.y[i] = wrap_periodic(st.particles.y[i] + u2[1] / gamma * dt, ly);
                }
                ctx.charge_ops(n as f64 * (4.0 * costs::GATHER_VERTEX + costs::PUSH_PARTICLE));
            });
    }

    /// Allgather the just-updated field strips so every rank holds the
    /// full, consistent mesh again (the paper's "global concatenation").
    fn concat_strips(&mut self, strip: impl Fn(usize) -> (usize, usize) + Copy, which: Which) {
        let nx = self.cfg.nx;
        let p = self.machine.num_ranks();
        self.machine.allgatherv(
            PhaseKind::FieldSolve,
            8,
            |r, st: &ReplicatedState| {
                let (y0, y1) = strip(r);
                let mut v = Vec::with_capacity((y1 - y0) * nx * 3);
                let grids = which.grids(&st.fields);
                for g in grids {
                    for y in y0..y1 {
                        for x in 0..nx {
                            v.push(g[(x, y)]);
                        }
                    }
                }
                v
            },
            move |_r, st, concat: &[f64]| {
                // concatenation is in rank order; walk it back into rows
                let mut off = 0;
                for src in 0..p {
                    let (y0, y1) = strip(src);
                    let rows = y1 - y0;
                    let mut grids = which.grids_mut(&mut st.fields);
                    for g in grids.iter_mut() {
                        for y in y0..y1 {
                            for x in 0..nx {
                                g[(x, y)] = concat[off];
                                off += 1;
                            }
                        }
                    }
                    let _ = rows;
                }
            },
        );
    }

    /// Iterations run so far.
    pub fn iterations_done(&self) -> usize {
        self.iter
    }

    /// Total modeled time.
    pub fn elapsed_s(&self) -> f64 {
        self.machine.elapsed_s()
    }

    /// Modeled computation time.
    pub fn compute_s(&self) -> f64 {
        self.machine.compute_s()
    }

    /// Run `iterations` steps; returns (total, compute) modeled seconds.
    pub fn run(&mut self, iterations: usize) -> (f64, f64) {
        for _ in 0..iterations {
            self.step();
        }
        (self.elapsed_s(), self.compute_s())
    }

    /// The virtual machine (diagnostics).
    pub fn machine(&self) -> &Machine<ReplicatedState> {
        &self.machine
    }

    /// Energy diagnostics (fields counted once — they are replicated).
    pub fn energy(&self) -> EnergyReport {
        let kinetic: f64 = self
            .machine
            .ranks()
            .iter()
            .map(|st| st.particles.kinetic_energy())
            .sum();
        let field =
            pic_field::field_energy(&self.machine.ranks()[0].fields, self.cfg.dx, self.cfg.dy);
        EnergyReport { kinetic, field }
    }

    /// Total particles across ranks.
    pub fn total_particles(&self) -> usize {
        self.machine
            .ranks()
            .iter()
            .map(|st| st.particles.len())
            .sum()
    }
}

/// Which field triple a strip concat moves.
#[derive(Clone, Copy)]
enum Which {
    E,
    B,
}

impl Which {
    fn grids<'a>(&self, f: &'a FieldSet) -> [&'a pic_field::Grid2<f64>; 3] {
        match self {
            Which::E => [&f.ex, &f.ey, &f.ez],
            Which::B => [&f.bx, &f.by, &f.bz],
        }
    }

    fn grids_mut<'a>(&self, f: &'a mut FieldSet) -> [&'a mut pic_field::Grid2<f64>; 3] {
        match self {
            Which::E => [&mut f.ex, &mut f.ey, &mut f.ez],
            Which::B => [&mut f.bx, &mut f.by, &mut f.bz],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_matches_sequential_physics() {
        let cfg = SimConfig::small_test();
        let mut rep = ReplicatedGridPicSim::new(cfg.clone());
        let mut seq = crate::sequential::SequentialPicSim::new(cfg);
        for _ in 0..5 {
            rep.step();
            seq.step();
        }
        let er = rep.energy();
        let es = seq.energy();
        assert!(
            (er.kinetic - es.kinetic).abs() < 1e-6 * es.kinetic.max(1.0),
            "kinetic {} vs {}",
            er.kinetic,
            es.kinetic
        );
        assert!(
            (er.field - es.field).abs() < 1e-6 * es.field.max(1e-12),
            "field {} vs {}",
            er.field,
            es.field
        );
        assert_eq!(rep.total_particles(), 512);
    }

    #[test]
    fn all_ranks_hold_identical_fields_after_a_step() {
        let cfg = SimConfig::small_test();
        let mut rep = ReplicatedGridPicSim::new(cfg);
        rep.step();
        let first = &rep.machine().ranks()[0].fields;
        for st in &rep.machine().ranks()[1..] {
            assert_eq!(&st.fields, first, "replicas diverged");
        }
    }

    #[test]
    fn communication_is_o_m_not_o_overlap() {
        // the replicated scheme's scatter traffic is the full mesh,
        // regardless of where particles sit
        let cfg = SimConfig::small_test();
        let m = cfg.grid_points();
        let mut rep = ReplicatedGridPicSim::new(cfg);
        rep.step();
        let scatter_bytes: u64 = rep
            .machine()
            .stats()
            .phase(pic_machine::PhaseKind::Scatter)
            .map(|r| r.max_bytes_sent)
            .sum();
        assert!(
            scatter_bytes >= (3 * m * 8) as u64,
            "expected O(m) traffic, got {scatter_bytes}"
        );
    }
}
