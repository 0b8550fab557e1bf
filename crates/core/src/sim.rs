//! The parallel PIC simulation driver.

use pic_field::{HaloPlan, MaxwellSolver};
use pic_index::CellIndexer;
use pic_machine::{
    FailureCause, FaultEvent, Instruments, IterationEvent, Machine, PhaseKind, PolicyDecisionEvent,
    RankLoadEvent, RedistributionEvent, RedistributionTrigger, SharedMetrics, SpmdEngine,
    SpmdError, StatsLog, SuperstepStats, ThreadedMachine, TraceEvent,
};
use pic_partition::{sfc_block_layout, PolicyDecision, RedistributionPolicy};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{Checkpoint, RankSnapshot};
use crate::config::{MovementMethod, SimConfig};
use crate::diagnostics::EnergyReport;
use crate::phases::{self, PhaseEnv};
use crate::state::RankState;

/// Modeled time spent per phase, accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Scatter phase seconds.
    pub scatter_s: f64,
    /// Field solve seconds.
    pub field_solve_s: f64,
    /// Gather phase seconds.
    pub gather_s: f64,
    /// Push phase seconds (includes Eulerian migration when enabled).
    pub push_s: f64,
    /// Redistribution seconds (including the initial distribution).
    pub redistribute_s: f64,
}

impl PhaseBreakdown {
    /// Component-wise difference (`self - earlier`), used to report
    /// per-run deltas from cumulative counters.
    fn since(&self, earlier: &PhaseBreakdown) -> PhaseBreakdown {
        PhaseBreakdown {
            scatter_s: self.scatter_s - earlier.scatter_s,
            field_solve_s: self.field_solve_s - earlier.field_solve_s,
            gather_s: self.gather_s - earlier.gather_s,
            push_s: self.push_s - earlier.push_s,
            redistribute_s: self.redistribute_s - earlier.redistribute_s,
        }
    }

    fn absorb(&mut self, records: &[SuperstepStats]) {
        for r in records {
            let slot = match r.phase {
                PhaseKind::Scatter => &mut self.scatter_s,
                PhaseKind::FieldSolve => &mut self.field_solve_s,
                PhaseKind::Gather => &mut self.gather_s,
                PhaseKind::Push => &mut self.push_s,
                PhaseKind::Redistribute | PhaseKind::Setup => &mut self.redistribute_s,
                PhaseKind::Other => continue,
            };
            *slot += r.elapsed_s;
        }
    }
}

/// One iteration's measurements — the rows behind Figures 17, 18 and 19.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration number (1-based).
    pub iter: usize,
    /// Modeled execution time of the four phases (excludes any
    /// redistribution this iteration triggered).
    pub time_s: f64,
    /// Modeled computation component (max over ranks, summed per phase).
    pub compute_s: f64,
    /// Modeled communication + idle component.
    pub comm_s: f64,
    /// Maximum bytes any rank sent in the scatter phase (Figure 18).
    pub scatter_max_bytes_sent: u64,
    /// Maximum bytes any rank received in the scatter phase.
    pub scatter_max_bytes_recv: u64,
    /// Maximum messages any rank sent in the scatter phase (Figure 19).
    pub scatter_max_msgs_sent: u64,
    /// Maximum messages any rank received in the scatter phase.
    pub scatter_max_msgs_recv: u64,
    /// Whether a redistribution ran after this iteration.
    pub redistributed: bool,
    /// Modeled cost of that redistribution (0 when none ran).
    pub redistribute_s: f64,
    /// Largest per-rank particle count at the end of the iteration.
    pub max_particles: usize,
    /// Smallest per-rank particle count.
    pub min_particles: usize,
}

/// Summary of a full run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Per-iteration records.
    pub iterations: Vec<IterationRecord>,
    /// Total modeled time including redistributions and setup.
    pub total_s: f64,
    /// Total modeled computation time.
    pub compute_s: f64,
    /// `total - compute`: the "overhead" of paper Figures 21/22
    /// (communication in scatter/solve/gather plus redistribution).
    pub overhead_s: f64,
    /// Number of redistributions performed (excluding the initial
    /// distribution).
    pub redistributions: usize,
    /// Total modeled redistribution time (excluding setup).
    pub redistribute_total_s: f64,
    /// Modeled cost of the initial distribution.
    pub setup_s: f64,
    /// Per-phase time split.
    pub breakdown: PhaseBreakdown,
}

/// The parallel PIC simulation on the modeled BSP machine (the default
/// executor: deterministic, reports modeled seconds).
pub type ParallelPicSim = GenericPicSim<Machine<RankState>>;

/// The same simulation on the real-threads executor: one OS thread per
/// rank with genuine message passing; reports wall-clock seconds.  Rank
/// states (particles, keys, bounds) are bit-identical to
/// [`ParallelPicSim`] under any measurement-independent redistribution
/// policy (e.g. `PolicyKind::Periodic`); time-based policies such as
/// `DynamicSar` read the executor's own clock and may redistribute at
/// different iterations.
pub type ThreadedPicSim = GenericPicSim<ThreadedMachine<RankState>>;

/// The parallel PIC simulation, generic over the SPMD executor.
pub struct GenericPicSim<E: SpmdEngine<RankState>> {
    cfg: SimConfig,
    machine: E,
    layout: pic_field::BlockLayout,
    halo: HaloPlan,
    indexer: Box<dyn CellIndexer>,
    solver: MaxwellSolver,
    policy: Box<dyn RedistributionPolicy>,
    iter: usize,
    setup_s: f64,
    redistributions: usize,
    redistribute_total_s: f64,
    breakdown: PhaseBreakdown,
    // snapshots of the cumulative counters at the end of the previous
    // `run()` call, so each report covers exactly one call
    consumed_s: f64,
    breakdown_consumed: PhaseBreakdown,
    redistributions_consumed: usize,
    redistribute_s_consumed: f64,
}

impl<E: SpmdEngine<RankState>> GenericPicSim<E> {
    /// Build every substrate (layout, halo plan, indexer, solver, policy,
    /// executor) without running any SPMD operation.  When
    /// `load_particles` is set, the global population is loaded and
    /// handed to ranks in contiguous chunks; a resume overwrites the
    /// rank states wholesale, so it skips the load.
    fn construct(cfg: SimConfig, load_particles: bool) -> Self {
        cfg.validate();
        let p = cfg.machine.ranks;
        let layout = sfc_block_layout(cfg.nx, cfg.ny, p, cfg.scheme);
        let halo = HaloPlan::build(&layout);
        let indexer = cfg.scheme.build(cfg.nx, cfg.ny);
        let solver = MaxwellSolver::new(cfg.dt, cfg.dx, cfg.dy);
        let policy = cfg.policy.build();

        // load the global particle population deterministically, then
        // hand contiguous chunks to ranks (as if read from a shared file)
        let states: Vec<RankState> = if load_particles {
            let global =
                cfg.distribution
                    .load(cfg.particles, cfg.lx(), cfg.ly(), cfg.thermal_u, cfg.seed);
            (0..p)
                .map(|r| {
                    let mut st = RankState::new(r, layout.local_rect(r), &cfg);
                    let lo = r * cfg.particles / p;
                    let hi = (r + 1) * cfg.particles / p;
                    st.particles.reserve(hi - lo);
                    for i in lo..hi {
                        let c = global.get(i);
                        st.particles.push(c[0], c[1], c[2], c[3], c[4]);
                    }
                    st
                })
                .collect()
        } else {
            (0..p)
                .map(|r| RankState::new(r, layout.local_rect(r), &cfg))
                .collect()
        };

        let machine = E::build(cfg.machine, states);
        Self {
            cfg,
            machine,
            layout,
            halo,
            indexer,
            solver,
            policy,
            iter: 0,
            setup_s: 0.0,
            redistributions: 0,
            redistribute_total_s: 0.0,
            breakdown: PhaseBreakdown::default(),
            consumed_s: 0.0,
            breakdown_consumed: PhaseBreakdown::default(),
            redistributions_consumed: 0,
            redistribute_s_consumed: 0.0,
        }
    }

    /// Build the simulation: decompose the mesh, load and distribute the
    /// particles, and seed the redistribution policy with the initial
    /// distribution's cost.
    ///
    /// # Errors
    /// Returns the [`SpmdError`] when the initial distribution fails
    /// (a fault plan can target it as epoch 0).
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn try_new(cfg: SimConfig) -> Result<Self, SpmdError> {
        Self::try_new_instrumented(cfg, Instruments::default())
    }

    /// [`GenericPicSim::try_new`] with `instruments` installed on the
    /// executor *before* the initial distribution: fault plan entries
    /// against epoch 0 can target set-up itself, the set-up collectives
    /// and the set-up [`RedistributionEvent`] land in the recorder, and
    /// the set-up collectives count toward the metrics registry's
    /// communication matrix, whose structure gauges (alignment, curve
    /// locality) are sampled at startup.
    ///
    /// # Errors
    /// Returns the [`SpmdError`] when the initial distribution fails.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn try_new_instrumented(
        cfg: SimConfig,
        instruments: Instruments,
    ) -> Result<Self, SpmdError> {
        let mut sim = Self::construct(cfg, true);
        *sim.machine.instruments_mut() = instruments;
        sim.machine.set_fault_epoch(0);
        // initial distribution (also under Eulerian: a one-time spatial
        // assignment so particles start on their owning ranks)
        let env = PhaseEnv {
            cfg: &sim.cfg,
            layout: &sim.layout,
            halo: &sim.halo,
            indexer: sim.indexer.as_ref(),
            solver: &sim.solver,
        };
        let cost = phases::redistribute::run(&mut sim.machine, &env, true)?;
        sim.setup_s = cost;
        sim.policy.notify_redistributed(0, cost);
        sim.breakdown.absorb(&sim.machine.stats_mut().drain());
        sim.emit(TraceEvent::Redistribution(RedistributionEvent {
            iter: 0,
            trigger: RedistributionTrigger::Setup,
            cost_s: cost,
        }));
        sim.sample_structure_gauges();
        Ok(sim)
    }

    /// Forward one driver-level event to the executor's recorder, if any.
    fn emit(&mut self, event: TraceEvent) {
        if let Some(rec) = &mut self.machine.instruments_mut().recorder {
            rec.record(&event);
        }
    }

    /// A handle to the installed metrics registry, if any.
    fn metrics(&self) -> Option<SharedMetrics> {
        self.machine.instruments().metrics.clone()
    }

    /// Sample the *structure* gauges — curve-locality statistics
    /// ([`pic_index::locality`]) and particle/block alignment
    /// ([`pic_partition::alignment_report`]) — into the metrics
    /// registry, if one is installed.  These cost `O(mesh)` and
    /// `O(particles)` to compute, so they are sampled only at setup and
    /// after each redistribution (when they actually change), never per
    /// iteration; see DESIGN.md §10 for the overhead policy.
    fn sample_structure_gauges(&mut self) {
        let Some(metrics) = self.metrics() else {
            return;
        };
        let jumps = pic_index::locality::neighbor_jump_stats(self.indexer.as_ref());
        let parts = self.machine.num_ranks().min(self.indexer.len());
        let ranges = pic_index::locality::range_bbox_stats(self.indexer.as_ref(), parts);
        let reports = self.alignment();
        metrics.with(|reg| {
            reg.set_gauge("pic_curve_jump_mean", jumps.mean);
            reg.set_gauge("pic_curve_unit_fraction", jumps.unit_fraction);
            reg.set_gauge("pic_range_mean_aspect", ranges.mean_aspect);
            reg.set_gauge("pic_range_mean_fill", ranges.mean_fill);
            for (rank, rep) in reports.iter().enumerate() {
                reg.set_rank_gauge("pic_rank_overlap_fraction", rank, rep.overlap_fraction);
                reg.set_rank_gauge("pic_rank_ghost_cells", rank, rep.ghost_cells as f64);
            }
        });
    }

    /// Per-iteration load observation: a [`RankLoadEvent`] for the trace
    /// (per-rank particle counts, the input to the dashboard's
    /// imbalance-over-time chart and Perfetto's load counters) plus the
    /// cheap `O(p)` gauges and counters for the registry.
    fn observe_iteration(&mut self, counts: &[usize], redistributed: bool) {
        let now_s = self.machine.elapsed_s();
        if self.machine.instruments().recorder.is_some() {
            self.emit(TraceEvent::RankLoad(RankLoadEvent {
                iter: self.iter as u64,
                time_s: now_s,
                counts: counts.iter().map(|&c| c as u64).collect(),
            }));
        }
        let Some(metrics) = self.metrics() else {
            return;
        };
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        let total: usize = counts.iter().sum();
        let mean = total as f64 / counts.len().max(1) as f64;
        let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
        let scratch: Vec<f64> = self
            .machine
            .ranks()
            .iter()
            .map(|st| st.scratch.high_water_bytes() as f64)
            .collect();
        metrics.with(|reg| {
            reg.inc("pic_iterations_total", 1);
            if redistributed {
                reg.inc("pic_redistributions_total", 1);
            }
            reg.set_gauge("pic_imbalance_factor", imbalance);
            for (rank, &c) in counts.iter().enumerate() {
                reg.set_rank_gauge("pic_rank_particles", rank, c as f64);
                reg.set_rank_gauge("pic_rank_scratch_high_water_bytes", rank, scratch[rank]);
            }
        });
    }

    /// The executor's installed fault plan, recorder and metrics
    /// registry, to install, replace or take any of them between
    /// iterations.  The driver stamps every iteration's number into the
    /// executor as the *fault epoch*, so plan entries written against
    /// iteration numbers fire in the right place; the recorder also
    /// receives the driver's iteration, redistribution, policy and fault
    /// events, and the registry its counters and load gauges.  To also
    /// observe set-up, use [`GenericPicSim::try_new_instrumented`].
    pub fn instruments_mut(&mut self) -> &mut Instruments {
        self.machine.instruments_mut()
    }

    /// [`GenericPicSim::try_new`], panicking on failure (the historical
    /// API; fault-free programs cannot fail here).
    ///
    /// # Panics
    /// Panics on an invalid configuration or a failed initial
    /// distribution.
    pub fn new(cfg: SimConfig) -> Self {
        Self::try_new(cfg).expect("initial distribution failed")
    }

    /// Rebuild a simulation from a [`Checkpoint`] taken by
    /// [`GenericPicSim::checkpoint`] under the same configuration.  The
    /// restored simulation continues bit-identically to the run the
    /// snapshot was taken from (under any measurement-independent
    /// redistribution policy).
    ///
    /// # Panics
    /// Panics when the checkpoint does not match `cfg` (rank count,
    /// particle total, or field block dimensions differ).
    pub fn resume_from(cfg: SimConfig, ck: &Checkpoint) -> Self {
        let mut sim = Self::construct(cfg, false);
        assert_eq!(
            ck.ranks.len(),
            sim.machine.num_ranks(),
            "checkpoint was taken with a different rank count"
        );
        assert_eq!(
            ck.total_particles(),
            sim.cfg.particles,
            "checkpoint was taken with a different particle total"
        );
        for (st, snap) in sim.machine.ranks_mut().iter_mut().zip(&ck.ranks) {
            snap.restore_into(st);
        }
        sim.iter = ck.iter as usize;
        sim.setup_s = ck.setup_s;
        sim.redistributions = ck.redistributions as usize;
        sim.redistribute_total_s = ck.redistribute_total_s;
        sim.breakdown = ck.breakdown;
        sim.policy.restore_state(&ck.policy);
        sim.machine.set_fault_epoch(ck.iter);
        sim
    }

    /// Snapshot the persistent simulation state at the current iteration
    /// boundary (see [`Checkpoint`] for what is and is not captured).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            iter: self.iter as u64,
            setup_s: self.setup_s,
            redistributions: self.redistributions as u64,
            redistribute_total_s: self.redistribute_total_s,
            breakdown: self.breakdown,
            policy: self.policy.snapshot_state(),
            ranks: self
                .machine
                .ranks()
                .iter()
                .map(RankSnapshot::capture)
                .collect(),
        }
    }

    /// Run one iteration (scatter → field solve → gather → push, then the
    /// redistribution policy), reporting failures as typed errors.
    ///
    /// # Errors
    /// Returns the [`SpmdError`] when a phase fails (rank panic, injected
    /// kill, timeout) or an invariant guard trips.  The simulation must
    /// then be considered lost: resume from a checkpoint.
    pub fn try_step(&mut self) -> Result<IterationRecord, SpmdError> {
        match self.try_step_inner() {
            Ok(rec) => {
                self.emit(TraceEvent::Iteration(IterationEvent {
                    iter: rec.iter as u64,
                    time_s: rec.time_s,
                    compute_s: rec.compute_s,
                    comm_s: rec.comm_s,
                    max_particles: rec.max_particles as u64,
                    min_particles: rec.min_particles as u64,
                }));
                Ok(rec)
            }
            Err(err) => {
                self.emit(TraceEvent::Fault(FaultEvent {
                    rank: err.rank,
                    phase: err.phase,
                    superstep: err.superstep,
                    epoch: err.epoch,
                    cause: err.cause.to_string(),
                }));
                if let Some(metrics) = self.metrics() {
                    metrics.with(|reg| reg.inc("pic_faults_total", 1));
                }
                Err(err)
            }
        }
    }

    /// The body of [`GenericPicSim::try_step`]; split out so the wrapper
    /// can emit the trace outcome (iteration or fault) in one place.
    fn try_step_inner(&mut self) -> Result<IterationRecord, SpmdError> {
        self.iter += 1;
        self.machine.set_fault_epoch(self.iter as u64);
        // conservation reference: what the iteration starts with (tests
        // and experiment setups may legitimately hand-edit rank states
        // between iterations, so the config's totals are not the baseline)
        let (total_before, charge_before) = if self.cfg.check_invariants {
            self.census()
        } else {
            (0, 0.0)
        };
        {
            let env = PhaseEnv {
                cfg: &self.cfg,
                layout: &self.layout,
                halo: &self.halo,
                indexer: self.indexer.as_ref(),
                solver: &self.solver,
            };
            phases::scatter::run(&mut self.machine, &env)?;
            phases::field_solve::run(&mut self.machine, &env)?;
            phases::gather::run(&mut self.machine, &env)?;
            phases::push::run(&mut self.machine, &env)?;
        }
        if self.cfg.check_invariants {
            self.check_invariants(total_before, charge_before)?;
        }
        let records = self.machine.stats_mut().drain();
        self.breakdown.absorb(&records);
        let time_s: f64 = records.iter().map(|r| r.elapsed_s).sum();
        let compute_s: f64 = records.iter().map(|r| r.max_compute_s).sum();
        let scatter = records
            .iter()
            .find(|r| r.phase == PhaseKind::Scatter)
            .copied()
            .unwrap_or_else(|| SuperstepStats::empty(PhaseKind::Scatter));

        // redistribution decision (Lagrangian only)
        let mut redistributed = false;
        let mut redistribute_s = 0.0;
        if self.cfg.movement == MovementMethod::Lagrangian {
            let fire = self.policy.should_redistribute(self.iter, time_s);
            // audit trail: every decision — fired or held — becomes a
            // trace event, built from the policy's own record when it
            // keeps one (Stop-At-Rise) and synthesized minimally for
            // time-blind policies (static, periodic)
            let decision = self.policy.last_decision().unwrap_or(PolicyDecision {
                iter: self.iter,
                observed_s: time_s,
                baseline_s: f64::NAN,
                projected_loss_s: f64::NAN,
                threshold_s: f64::NAN,
                fired: fire,
            });
            let now_s = self.machine.elapsed_s();
            self.emit(TraceEvent::PolicyDecision(PolicyDecisionEvent {
                iter: self.iter as u64,
                time_s: now_s,
                observed_s: decision.observed_s,
                baseline_s: decision.baseline_s,
                projected_loss_s: decision.projected_loss_s,
                threshold_s: decision.threshold_s,
                fired: fire,
            }));
            if let Some(metrics) = self.metrics() {
                metrics.with(|reg| {
                    reg.inc("pic_policy_decisions_total", 1);
                    if fire {
                        reg.inc("pic_policy_fired_total", 1);
                    }
                });
            }
            if fire {
                let env = PhaseEnv {
                    cfg: &self.cfg,
                    layout: &self.layout,
                    halo: &self.halo,
                    indexer: self.indexer.as_ref(),
                    solver: &self.solver,
                };
                redistribute_s = phases::redistribute::run(&mut self.machine, &env, false)?;
                self.policy.notify_redistributed(self.iter, redistribute_s);
                self.redistributions += 1;
                self.redistribute_total_s += redistribute_s;
                redistributed = true;
                self.breakdown.absorb(&self.machine.stats_mut().drain());
                self.emit(TraceEvent::Redistribution(RedistributionEvent {
                    iter: self.iter as u64,
                    trigger: RedistributionTrigger::Policy,
                    cost_s: redistribute_s,
                }));
                self.sample_structure_gauges();
            }
        }

        let counts: Vec<usize> = self.machine.ranks().iter().map(RankState::len).collect();
        self.observe_iteration(&counts, redistributed);
        Ok(IterationRecord {
            iter: self.iter,
            time_s,
            compute_s,
            comm_s: time_s - compute_s,
            scatter_max_bytes_sent: scatter.max_bytes_sent,
            scatter_max_bytes_recv: scatter.max_bytes_recv,
            scatter_max_msgs_sent: scatter.max_msgs_sent,
            scatter_max_msgs_recv: scatter.max_msgs_recv,
            redistributed,
            redistribute_s,
            max_particles: counts.iter().copied().max().unwrap_or(0),
            min_particles: counts.iter().copied().min().unwrap_or(0),
        })
    }

    /// [`GenericPicSim::try_step`], panicking on failure (the historical
    /// API; fault-free programs cannot fail here).
    ///
    /// # Panics
    /// Panics when the iteration fails.
    pub fn step(&mut self) -> IterationRecord {
        self.try_step().expect("iteration failed")
    }

    /// Global particle count and total charge across all ranks.
    fn census(&self) -> (usize, f64) {
        let mut total = 0usize;
        let mut charge = 0.0f64;
        for st in self.machine.ranks() {
            total += st.len();
            charge += st.particles.charge * st.len() as f64;
        }
        (total, charge)
    }

    /// Physics/structure invariants checked after the four phases:
    /// global particle conservation (exact), key/particle array sync,
    /// total charge conservation, and field/current finiteness.
    fn check_invariants(
        &mut self,
        total_before: usize,
        charge_before: f64,
    ) -> Result<(), SpmdError> {
        let mut total = 0usize;
        let mut total_charge = 0.0f64;
        for st in self.machine.ranks() {
            if st.keys.len() != st.len() {
                return Err(self.invariant_violation(
                    Some(st.rank),
                    format!(
                        "keys ({}) and particles ({}) desynchronized",
                        st.keys.len(),
                        st.len()
                    ),
                ));
            }
            total += st.len();
            total_charge += st.particles.charge * st.len() as f64;
            let fields_finite = [
                &st.fields.ex,
                &st.fields.ey,
                &st.fields.ez,
                &st.fields.bx,
                &st.fields.by,
                &st.fields.bz,
            ]
            .iter()
            .all(|g| g.as_slice().iter().all(|v| v.is_finite()));
            if !fields_finite {
                return Err(self.invariant_violation(
                    Some(st.rank),
                    "non-finite field value on the local block".to_string(),
                ));
            }
            let currents_finite = [&st.currents.jx, &st.currents.jy, &st.currents.jz]
                .iter()
                .all(|g| g.as_slice().iter().all(|v| v.is_finite()));
            if !currents_finite {
                return Err(self.invariant_violation(
                    Some(st.rank),
                    "non-finite deposited current".to_string(),
                ));
            }
        }
        if total != total_before {
            return Err(self.invariant_violation(
                None,
                format!(
                    "particle count changed across the iteration: {total} held, {total_before} at entry"
                ),
            ));
        }
        let tol = 1e-12 * charge_before.abs().max(1e-300);
        if (total_charge - charge_before).abs() > tol {
            return Err(self.invariant_violation(
                None,
                format!("total charge drifted: {total_charge} vs {charge_before}"),
            ));
        }
        Ok(())
    }

    fn invariant_violation(&self, rank: Option<usize>, msg: String) -> SpmdError {
        let mut err = SpmdError::new(FailureCause::InvariantViolation(msg));
        err.rank = rank;
        err.epoch = Some(self.iter as u64);
        err
    }

    /// Run `iterations` steps and summarize **this call**: totals,
    /// breakdown and redistribution counts cover only the iterations run
    /// here (plus, on the first call, the initial distribution), so
    /// repeated `run()` calls each return a self-consistent report.
    ///
    /// # Errors
    /// Returns the first failing iteration's [`SpmdError`]; iterations
    /// completed before it are lost from the report (resume from a
    /// checkpoint to recover them).
    pub fn try_run(&mut self, iterations: usize) -> Result<SimReport, SpmdError> {
        let elapsed_before = self.consumed_s;
        let breakdown_before = self.breakdown_consumed;
        let redists_before = self.redistributions_consumed;
        let redist_s_before = self.redistribute_s_consumed;

        let mut records = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            records.push(self.try_step()?);
        }

        let compute_s: f64 = records.iter().map(|r| r.compute_s).sum();
        let end = self.machine.elapsed_s();
        let total_s = end - elapsed_before;
        self.consumed_s = end;
        self.breakdown_consumed = self.breakdown;
        self.redistributions_consumed = self.redistributions;
        self.redistribute_s_consumed = self.redistribute_total_s;
        Ok(SimReport {
            total_s,
            compute_s,
            overhead_s: total_s - compute_s,
            redistributions: self.redistributions - redists_before,
            redistribute_total_s: self.redistribute_total_s - redist_s_before,
            setup_s: self.setup_s,
            breakdown: self.breakdown.since(&breakdown_before),
            iterations: records,
        })
    }

    /// [`GenericPicSim::try_run`], panicking on failure (the historical
    /// API; fault-free programs cannot fail here).
    ///
    /// # Panics
    /// Panics when an iteration fails.
    pub fn run(&mut self, iterations: usize) -> SimReport {
        self.try_run(iterations).expect("run failed")
    }

    /// Force a redistribution now, regardless of policy.  Returns its
    /// modeled cost.
    ///
    /// # Errors
    /// Returns the [`SpmdError`] when the redistribution fails.
    pub fn try_redistribute_now(&mut self) -> Result<f64, SpmdError> {
        let env = PhaseEnv {
            cfg: &self.cfg,
            layout: &self.layout,
            halo: &self.halo,
            indexer: self.indexer.as_ref(),
            solver: &self.solver,
        };
        let cost = phases::redistribute::run(&mut self.machine, &env, false)?;
        self.policy.notify_redistributed(self.iter, cost);
        self.redistributions += 1;
        self.redistribute_total_s += cost;
        self.breakdown.absorb(&self.machine.stats_mut().drain());
        self.emit(TraceEvent::Redistribution(RedistributionEvent {
            iter: self.iter as u64,
            trigger: RedistributionTrigger::Forced,
            cost_s: cost,
        }));
        Ok(cost)
    }

    /// [`GenericPicSim::try_redistribute_now`], panicking on failure.
    ///
    /// # Panics
    /// Panics when the redistribution fails.
    pub fn redistribute_now(&mut self) -> f64 {
        self.try_redistribute_now().expect("redistribution failed")
    }

    /// The run configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The underlying executor (read access for diagnostics).
    pub fn machine(&self) -> &E {
        &self.machine
    }

    /// Consume the simulation, returning the executor (and with it the
    /// final rank states via [`SpmdEngine::into_ranks`]).
    pub fn into_machine(self) -> E {
        self.machine
    }

    /// Mutable access to the rank states, for tests and experiment setups
    /// that hand-place particles or pre-set fields.  Mutations here are
    /// not charged to any clock.
    pub fn ranks_mut(&mut self) -> &mut [RankState] {
        self.machine.ranks_mut()
    }

    /// The mesh layout.
    pub fn layout(&self) -> &pic_field::BlockLayout {
        &self.layout
    }

    /// Iterations executed so far.
    pub fn iterations_done(&self) -> usize {
        self.iter
    }

    /// Per-rank particle counts.
    pub fn particle_counts(&self) -> Vec<usize> {
        self.machine.ranks().iter().map(RankState::len).collect()
    }

    /// Total particles across ranks (must stay constant).
    pub fn total_particles(&self) -> usize {
        self.particle_counts().iter().sum()
    }

    /// Energy diagnostics over all ranks.
    pub fn energy(&self) -> EnergyReport {
        crate::diagnostics::energy_of(self.machine.ranks(), self.cfg.dx, self.cfg.dy)
    }

    /// Per-rank alignment diagnostics (particle subdomain vs mesh block).
    pub fn alignment(&self) -> Vec<pic_partition::AlignmentReport> {
        self.machine
            .ranks()
            .iter()
            .map(|st| {
                pic_partition::alignment_report(
                    &st.particles.x,
                    &st.particles.y,
                    self.cfg.dx,
                    self.cfg.dy,
                    self.cfg.nx,
                    self.cfg.ny,
                    &st.rect,
                )
            })
            .collect()
    }

    /// Drained access to machine statistics (advanced use).
    pub fn stats_mut(&mut self) -> &mut StatsLog {
        self.machine.stats_mut()
    }
}
