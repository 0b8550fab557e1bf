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
//!
//! Each rank runs the sequential reference's full-mesh kernels
//! (`deposit_full_mesh`, `gather_push_full_mesh`) on its replica; only
//! the global sum, the strip-split field solve and the concatenation are
//! this module's own.

use pic_field::{CurrentSet, FieldSet, Grid2, MaxwellSolver};
use pic_machine::{Machine, PhaseKind, SpmdEngine};
use pic_particles::Particles;

use crate::config::SimConfig;
use crate::costs;
use crate::diagnostics::EnergyReport;
use crate::sequential::{deposit_full_mesh, gather_push_full_mesh};

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
        let global = cfg.load_particles();
        let states: Vec<ReplicatedState> = (0..cfg.machine.ranks)
            .map(|r| ReplicatedState {
                particles: cfg.rank_chunk(&global, r),
                fields: FieldSet::zeros(cfg.nx, cfg.ny),
                currents: CurrentSet::zeros(cfg.nx, cfg.ny),
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
        let cfg = &self.cfg;
        let (nx, ny) = (cfg.nx, cfg.ny);
        let m = nx * ny;
        let p = self.machine.num_ranks();

        // --- scatter: local deposit into the replicated grid ----------------
        self.machine
            .local_step(PhaseKind::Scatter, move |_r, st, ctx| {
                deposit_full_mesh(&st.particles, &mut st.currents, cfg);
                ctx.charge_ops(st.particles.len() as f64 * 4.0 * costs::SCATTER_VERTEX);
            })
            .expect("replicated scatter");

        // --- global element-wise sum of the current arrays ------------------
        // three components, m doubles each: the O(m) global operation that
        // dominates at scale
        self.machine
            .allreduce_elementwise(
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
            )
            .expect("replicated current sum");

        // --- field solve: strip-distributed, then concatenated --------------
        let strip = move |r: usize| -> (usize, usize) { (r * ny / p, (r + 1) * ny / p) };
        let solver = self.solver;
        self.machine
            .local_step(PhaseKind::FieldSolve, move |r, st, ctx| {
                let (y0, y1) = strip(r);
                solver.update_b_periodic_rows(&mut st.fields, y0, y1);
                ctx.charge_ops(((y1 - y0) * nx) as f64 * costs::FIELD_POINT_B);
            })
            .expect("replicated B update");
        Self::concat_strips(&mut self.machine, nx, strip, FieldSet::b, FieldSet::b_mut);
        self.machine
            .local_step(PhaseKind::FieldSolve, move |r, st, ctx| {
                let (y0, y1) = strip(r);
                solver.update_e_periodic_rows(&mut st.fields, &st.currents, y0, y1);
                ctx.charge_ops(((y1 - y0) * nx) as f64 * costs::FIELD_POINT_E);
            })
            .expect("replicated E update");
        Self::concat_strips(&mut self.machine, nx, strip, FieldSet::e, FieldSet::e_mut);

        // --- gather + push: fully local on the replicated mesh --------------
        self.machine
            .local_step(PhaseKind::Push, move |_r, st, ctx| {
                gather_push_full_mesh(&mut st.particles, &st.fields, cfg);
                let n = st.particles.len();
                ctx.charge_ops(n as f64 * (4.0 * costs::GATHER_VERTEX + costs::PUSH_PARTICLE));
            })
            .expect("replicated gather and push");
    }

    /// Allgather the just-updated field strips so every rank holds the
    /// full, consistent mesh again (the paper's "global concatenation").
    fn concat_strips(
        machine: &mut Machine<ReplicatedState>,
        nx: usize,
        strip: impl Fn(usize) -> (usize, usize) + Copy + Sync,
        triple: fn(&FieldSet) -> [&Grid2<f64>; 3],
        triple_mut: fn(&mut FieldSet) -> [&mut Grid2<f64>; 3],
    ) {
        let p = machine.num_ranks();
        machine
            .allgatherv(
                PhaseKind::FieldSolve,
                8,
                |r, st: &ReplicatedState| {
                    let (y0, y1) = strip(r);
                    let mut v = Vec::with_capacity((y1 - y0) * nx * 3);
                    for g in triple(&st.fields) {
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
                        for g in triple_mut(&mut st.fields) {
                            for y in y0..y1 {
                                for x in 0..nx {
                                    g[(x, y)] = concat[off];
                                    off += 1;
                                }
                            }
                        }
                    }
                },
            )
            .expect("replicated strip concatenation");
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
            .records()
            .iter()
            .filter(|r| r.phase == pic_machine::PhaseKind::Scatter)
            .map(|r| r.max_bytes_sent)
            .sum();
        assert!(
            scatter_bytes >= (3 * m * 8) as u64,
            "expected O(m) traffic, got {scatter_bytes}"
        );
    }
}
