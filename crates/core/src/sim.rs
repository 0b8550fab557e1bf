//! The parallel PIC simulation driver.

use pic_field::{HaloPlan, MaxwellSolver};
use pic_index::CellIndexer;
use pic_machine::{
    FailureCause, FaultEvent, Instruments, IterationRecord, Machine, PhaseKind,
    PolicyDecisionEvent, RankLoadEvent, RedistributionEvent, RedistributionTrigger, SharedMetrics,
    SpmdEngine, SpmdError, StatsLog, SuperstepStats, ThreadedMachine, TraceEvent,
};
use pic_partition::{sfc_block_layout, Policy};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{Checkpoint, CheckpointError, RankSnapshot};
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

/// Summary of a full run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    policy: Policy,
    iter: usize,
    setup_s: f64,
    redistributions: usize,
    redistribute_total_s: f64,
    breakdown: PhaseBreakdown,
    /// The cumulative counters when the previous `run()` call ended (or
    /// the simulation was resumed), so each report covers exactly one
    /// call.
    reported: Totals,
}

/// A snapshot of a simulation's cumulative counters.
#[derive(Clone, Copy, Default)]
struct Totals {
    elapsed_s: f64,
    redistributions: usize,
    redistribute_s: f64,
    breakdown: PhaseBreakdown,
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

        let global = load_particles.then(|| cfg.load_particles());
        let states: Vec<RankState> = (0..p)
            .map(|r| {
                let mut st = RankState::new(r, layout.local_rect(r), &cfg);
                if let Some(global) = &global {
                    st.particles = cfg.rank_chunk(global, r);
                }
                st
            })
            .collect();

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
            reported: Totals::default(),
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
        sim.redistribute(RedistributionTrigger::Setup)?;
        Ok(sim)
    }

    /// Run the redistribution phase and account for it: seed the policy
    /// with its cost, update the run counters and the phase breakdown,
    /// emit the [`RedistributionEvent`] and resample the structure
    /// gauges.  Set-up, policy-fired and forced redistributions all come
    /// through here.  Returns the modeled cost.
    fn redistribute(&mut self, trigger: RedistributionTrigger) -> Result<f64, SpmdError> {
        let setup = trigger == RedistributionTrigger::Setup;
        let env = PhaseEnv {
            cfg: &self.cfg,
            layout: &self.layout,
            halo: &self.halo,
            indexer: self.indexer.as_ref(),
            solver: &self.solver,
        };
        let cost = phases::redistribute::run(&mut self.machine, &env, setup)?;
        self.policy.notify_redistributed(self.iter, cost);
        if setup {
            self.setup_s = cost;
        } else {
            self.redistributions += 1;
            self.redistribute_total_s += cost;
        }
        self.breakdown.absorb(&self.machine.stats_mut().drain());
        self.emit(TraceEvent::Redistribution(RedistributionEvent {
            iter: self.iter as u64,
            trigger,
            cost_s: cost,
        }));
        self.sample_structure_gauges();
        Ok(cost)
    }

    /// Forward one driver-level event to the executor's recorder and
    /// count it in the metrics registry, if either is installed.  The
    /// driver counters are derived here, from the events, and nowhere
    /// else.
    fn emit(&mut self, event: TraceEvent) {
        let instruments = self.machine.instruments_mut();
        if let Some(metrics) = &instruments.metrics {
            let counters: &[&str] = match &event {
                TraceEvent::Iteration(_) => &["pic_iterations_total"],
                TraceEvent::PolicyDecision(d) if d.fired => {
                    &["pic_policy_decisions_total", "pic_policy_fired_total"]
                }
                TraceEvent::PolicyDecision(_) => &["pic_policy_decisions_total"],
                TraceEvent::Redistribution(r) if r.trigger != RedistributionTrigger::Setup => {
                    &["pic_redistributions_total"]
                }
                TraceEvent::Fault(_) => &["pic_faults_total"],
                _ => &[],
            };
            if !counters.is_empty() {
                metrics.with(|reg| counters.iter().for_each(|name| reg.inc(name, 1)));
            }
        }
        if let Some(rec) = &mut instruments.recorder {
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
    /// after each redistribution, never per iteration; see DESIGN.md §10
    /// for the overhead policy.  The curve and range statistics depend
    /// only on the indexer and the rank count, so they are written once,
    /// when the registry does not hold them yet; the alignment is
    /// resampled every time.
    fn sample_structure_gauges(&mut self) {
        let Some(metrics) = self.metrics() else {
            return;
        };
        let known = metrics.with(|reg| reg.gauge("pic_range_mean_fill").is_some());
        let structure = (!known).then(|| {
            let parts = self.machine.num_ranks().min(self.indexer.len());
            (
                pic_index::locality::neighbor_jump_stats(self.indexer.as_ref()),
                pic_index::locality::range_bbox_stats(self.indexer.as_ref(), parts),
            )
        });
        let reports = self.alignment();
        metrics.with(|reg| {
            if let Some((jumps, ranges)) = structure {
                reg.set_gauge("pic_curve_jump_mean", jumps.mean);
                reg.set_gauge("pic_curve_unit_fraction", jumps.unit_fraction);
                reg.set_gauge("pic_range_mean_aspect", ranges.mean_aspect);
                reg.set_gauge("pic_range_mean_fill", ranges.mean_fill);
            }
            for (rank, rep) in reports.iter().enumerate() {
                reg.set_rank_gauge("pic_rank_overlap_fraction", rank, rep.overlap_fraction);
                reg.set_rank_gauge("pic_rank_ghost_cells", rank, rep.ghost_cells as f64);
            }
        });
    }

    /// Per-iteration load observation: a [`RankLoadEvent`] for the trace
    /// (per-rank particle counts, the input to the dashboard's
    /// imbalance-over-time chart and Perfetto's load counters) plus the
    /// cheap `O(p)` gauges for the registry.
    fn observe_iteration(&mut self, counts: &[usize]) {
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
    /// # Errors
    /// [`CheckpointError::Mismatch`] when the checkpoint does not match
    /// `cfg`: the rank count, particle total, redistribution policy, or a
    /// rank's field block dimensions differ.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn resume_from(cfg: SimConfig, ck: &Checkpoint) -> Result<Self, CheckpointError> {
        if ck.ranks.len() != cfg.machine.ranks {
            return Err(CheckpointError::Mismatch("rank count"));
        }
        if ck.total_particles() != cfg.particles {
            return Err(CheckpointError::Mismatch("particle total"));
        }
        if ck.policy.kind != cfg.policy {
            return Err(CheckpointError::Mismatch("redistribution policy"));
        }
        let mut sim = Self::construct(cfg, false);
        for (st, snap) in sim.machine.ranks_mut().iter_mut().zip(&ck.ranks) {
            snap.restore_into(st)?;
        }
        sim.iter = ck.iter as usize;
        sim.setup_s = ck.setup_s;
        sim.redistributions = ck.redistributions as usize;
        sim.redistribute_total_s = ck.redistribute_total_s;
        sim.breakdown = ck.breakdown;
        sim.policy = ck.policy;
        sim.machine.set_fault_epoch(ck.iter);
        // the work before the checkpoint was reported by the run it was
        // taken from
        sim.reported = sim.totals();
        Ok(sim)
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
            policy: self.policy,
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
                self.emit(TraceEvent::Iteration(rec));
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
            // audit trail: every decision — fired or held — becomes a
            // trace event
            let decision = self.policy.decide(self.iter, time_s);
            let now_s = self.machine.elapsed_s();
            self.emit(TraceEvent::PolicyDecision(PolicyDecisionEvent {
                iter: self.iter as u64,
                time_s: now_s,
                observed_s: decision.observed_s,
                baseline_s: decision.baseline_s,
                projected_loss_s: decision.projected_loss_s,
                threshold_s: decision.threshold_s,
                fired: decision.fired,
            }));
            if decision.fired {
                redistribute_s = self.redistribute(RedistributionTrigger::Policy)?;
                redistributed = true;
            }
        }

        let counts: Vec<usize> = self.machine.ranks().iter().map(RankState::len).collect();
        self.observe_iteration(&counts);
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

    /// Physics/structure invariants checked after the four phases.  Each
    /// rank's structural verdict ([`rank_verdict`]) is computed on the
    /// worker that owns the rank, and the lowest failing rank is
    /// reported; global particle conservation (exact) and total charge
    /// conservation are then checked on the driver.
    fn check_invariants(
        &mut self,
        total_before: usize,
        charge_before: f64,
    ) -> Result<(), SpmdError> {
        let verdicts = self.machine.inspect(|_, st| rank_verdict(st));
        if let Some((rank, msg)) = verdicts
            .into_iter()
            .enumerate()
            .find_map(|(r, v)| v.map(|msg| (r, msg)))
        {
            return Err(self.invariant_violation(Some(rank), msg));
        }
        let (total, total_charge) = self.census();
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
    /// here (plus, on the first call after set-up, the initial
    /// distribution), so repeated `run()` calls each return a
    /// self-consistent report, and a resumed simulation's first call
    /// reports what the next call of the run it was taken from would.
    ///
    /// # Errors
    /// Returns the first failing iteration's [`SpmdError`]; iterations
    /// completed before it are lost from the report (resume from a
    /// checkpoint to recover them).
    pub fn try_run(&mut self, iterations: usize) -> Result<SimReport, SpmdError> {
        let mut records = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            records.push(self.try_step()?);
        }

        let (before, now) = (self.reported, self.totals());
        self.reported = now;
        let compute_s: f64 = records.iter().map(|r| r.compute_s).sum();
        let total_s = now.elapsed_s - before.elapsed_s;
        Ok(SimReport {
            total_s,
            compute_s,
            overhead_s: total_s - compute_s,
            redistributions: now.redistributions - before.redistributions,
            redistribute_total_s: now.redistribute_s - before.redistribute_s,
            setup_s: self.setup_s,
            breakdown: now.breakdown.since(&before.breakdown),
            iterations: records,
        })
    }

    /// The cumulative counters now.
    fn totals(&self) -> Totals {
        Totals {
            elapsed_s: self.machine.elapsed_s(),
            redistributions: self.redistributions,
            redistribute_s: self.redistribute_total_s,
            breakdown: self.breakdown,
        }
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
        self.redistribute(RedistributionTrigger::Forced)
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

/// One rank's invariant verdict: `None` when its state is sound, else
/// the first violation in this order: key/particle sync, the six field
/// planes, the three current planes.
fn rank_verdict(st: &RankState) -> Option<String> {
    if st.keys.len() != st.len() {
        return Some(format!(
            "keys ({}) and particles ({}) desynchronized",
            st.keys.len(),
            st.len()
        ));
    }
    let f = &st.fields;
    if ![&f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz]
        .iter()
        .all(|g| all_finite(g.as_slice()))
    {
        return Some("non-finite field value on the local block".to_string());
    }
    let j = &st.currents;
    if ![&j.jx, &j.jy, &j.jz]
        .iter()
        .all(|g| all_finite(g.as_slice()))
    {
        return Some("non-finite deposited current".to_string());
    }
    None
}

/// Lanes per branch-free block of [`all_finite`].
const FINITE_LANES: usize = 16;

/// `values.iter().all(|v| v.is_finite())`, branch-free within blocks of
/// [`FINITE_LANES`] values so that it vectorizes; only block boundaries
/// short-circuit.
fn all_finite(values: &[f64]) -> bool {
    let mut blocks = values.chunks_exact(FINITE_LANES);
    blocks.all(|b| b.iter().fold(true, |ok, v| ok & v.is_finite()))
        && blocks.remainder().iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_field::Rect;

    fn sound_state() -> RankState {
        let rect = Rect {
            x0: 0,
            y0: 0,
            w: 8,
            h: 6,
        };
        let mut st = RankState::new(0, rect, &SimConfig::small_test());
        for i in 0..4 {
            st.particles.push(i as f64, 1.0, 0.0, 0.0, 0.0);
            st.keys.push(i as u64);
        }
        st
    }

    #[test]
    fn a_sound_rank_has_no_verdict() {
        assert_eq!(rank_verdict(&sound_state()), None);
    }

    #[test]
    fn desynchronized_keys_are_reported() {
        let mut st = sound_state();
        st.keys.pop();
        assert_eq!(
            rank_verdict(&st).as_deref(),
            Some("keys (3) and particles (4) desynchronized")
        );
    }

    #[test]
    fn every_non_finite_field_plane_is_reported() {
        for plane in 0..6 {
            let mut st = sound_state();
            let f = &mut st.fields;
            let g = [
                &mut f.ex, &mut f.ey, &mut f.ez, &mut f.bx, &mut f.by, &mut f.bz,
            ];
            let g = g.into_iter().nth(plane).expect("six planes");
            let last = g.as_slice().len() - 1;
            g.as_mut_slice()[last] = f64::NEG_INFINITY;
            assert_eq!(
                rank_verdict(&st).as_deref(),
                Some("non-finite field value on the local block"),
                "plane {plane}"
            );
        }
    }

    /// `update_e_padded` folds every current cell into E, so inside an
    /// iteration a bad current is caught as a bad field first; only a
    /// direct check reaches this branch.
    #[test]
    fn every_non_finite_current_plane_is_reported() {
        for plane in 0..3 {
            let mut st = sound_state();
            let j = &mut st.currents;
            let g = [&mut j.jx, &mut j.jy, &mut j.jz];
            let g = g.into_iter().nth(plane).expect("three planes");
            g.as_mut_slice()[5] = f64::NAN;
            assert_eq!(
                rank_verdict(&st).as_deref(),
                Some("non-finite deposited current"),
                "plane {plane}"
            );
        }
    }

    #[test]
    fn the_checks_run_in_order() {
        let mut st = sound_state();
        st.currents.jz.as_mut_slice()[0] = f64::NAN;
        st.fields.bz.as_mut_slice()[0] = f64::NAN;
        assert_eq!(
            rank_verdict(&st).as_deref(),
            Some("non-finite field value on the local block")
        );
        st.keys.clear();
        assert_eq!(
            rank_verdict(&st).as_deref(),
            Some("keys (0) and particles (4) desynchronized")
        );
    }

    /// The block remainder is where a chunked scan breaks: plant every
    /// non-finite value at every position of every length across three
    /// blocks.
    #[test]
    fn all_finite_agrees_with_the_scalar_scan() {
        for len in 0..=40 {
            let clean: Vec<f64> = (0..len).map(|i| i as f64 - 7.5).collect();
            assert!(all_finite(&clean), "len {len}");
            for pos in 0..len {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut v = clean.clone();
                    v[pos] = bad;
                    assert_eq!(
                        all_finite(&v),
                        v.iter().all(|x| x.is_finite()),
                        "len {len}, {bad} at {pos}"
                    );
                    assert!(!all_finite(&v));
                }
            }
        }
    }

    #[test]
    fn extreme_finite_values_count_as_finite() {
        let edge = [
            f64::MAX,
            -f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -0.0,
        ];
        for len in 0..=40 {
            let v: Vec<f64> = edge.iter().copied().cycle().take(len).collect();
            assert!(all_finite(&v), "len {len}");
        }
    }
}
