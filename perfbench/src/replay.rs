//! The traced run: `GenericPicSim::try_step`'s sequence replayed through
//! the public phase entry points (`pic_core::phases::*::run`) on the
//! simulation's own engine, with a span around every call.
//!
//! The replay starts from a simulation built by `try_new` (so set-up is
//! `GenericPicSim`'s own) and then takes over its engine.  Everything
//! `try_step` does between phase calls that can change rank state — the
//! fault epoch, the stats drain that feeds the policy, the policy's
//! decision and the redistribution it fires — is repeated here in the
//! same order; the invariant guards, census and trace/metrics
//! bookkeeping only read state and are left out.  The final rank state
//! must therefore be bit-identical to an untraced run, which the
//! benchmark checks on every invocation.

use std::time::Instant;

use pic_core::phases::{self, PhaseEnv};
use pic_core::{GenericPicSim, MovementMethod, RankState, SimConfig};
use pic_field::{HaloPlan, MaxwellSolver};
use pic_machine::{SpmdEngine, SpmdError, SuperstepStats};
use pic_partition::sfc_block_layout;

/// The phases a span can cover, in pipeline order; the constants below
/// index it.
pub const PHASES: [&str; 5] = ["scatter", "field_solve", "gather", "push", "redistribute"];
pub const SCATTER: usize = 0;
pub const FIELD_SOLVE: usize = 1;
pub const GATHER: usize = 2;
pub const PUSH: usize = 3;
pub const REDISTRIBUTE: usize = 4;

/// One recorded span: a phase call, or (with `phase == None`) the whole
/// iteration that is the parent of that iteration's phase spans.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`PHASES`], or `None` for the iteration span.
    pub phase: Option<usize>,
    /// Iteration number (1-based) the span belongs to.
    pub iter: usize,
    /// Start, in nanoseconds since the replay began.
    pub start_ns: u64,
    /// End, in nanoseconds since the replay began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// What one traced episode recorded.
pub struct Trace {
    /// Every span, in the order the calls ended.
    pub spans: Vec<Span>,
    /// Every `StatsLog` record the engine produced during the loop.
    pub stats: Vec<SuperstepStats>,
    /// Iterations replayed.
    pub iters: usize,
}

impl Trace {
    /// Summed span seconds of `phase`.
    pub fn phase_s(&self, phase: usize) -> f64 {
        self.of(Some(phase)).fold(0.0, |acc, s| acc + s.secs())
    }

    /// Number of spans of `phase`.
    pub fn calls(&self, phase: usize) -> usize {
        self.of(Some(phase)).count()
    }

    /// Summed iteration-span seconds: the traced loop's wall time.
    pub fn loop_s(&self) -> f64 {
        self.of(None).map(Span::secs).sum()
    }

    fn of(&self, phase: Option<usize>) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.phase == phase)
    }
}

/// Build `cfg`'s simulation on engine `E`, replay `iters` iterations of
/// `try_step` with spans, and return the trace and the engine (its rank
/// state is the replay's final state).
pub fn run<E: SpmdEngine<RankState>>(
    cfg: &SimConfig,
    iters: usize,
) -> Result<(Trace, E), SpmdError> {
    let sim = GenericPicSim::<E>::try_new(cfg.clone())?;
    let setup_cost_s = sim.checkpoint().setup_s;
    let mut machine = sim.into_machine();

    let layout = sfc_block_layout(cfg.nx, cfg.ny, cfg.machine.ranks, cfg.scheme);
    let halo = HaloPlan::build(&layout);
    let indexer = cfg.scheme.build(cfg.nx, cfg.ny);
    let solver = MaxwellSolver::new(cfg.dt, cfg.dx, cfg.dy);
    let mut policy = cfg.policy.build();
    policy.notify_redistributed(0, setup_cost_s);
    let env = PhaseEnv {
        cfg,
        layout: &layout,
        halo: &halo,
        indexer: indexer.as_ref(),
        solver: &solver,
    };

    let origin = Instant::now();
    let mut spans = Vec::with_capacity(iters * 6);
    let mut stats = Vec::new();
    for iter in 1..=iters {
        let iter_start = nanos_since(origin);
        machine.set_fault_epoch(iter as u64);
        let m = &mut machine;
        timed(&mut spans, origin, SCATTER, iter, || {
            phases::scatter::run(m, &env)
        })?;
        timed(&mut spans, origin, FIELD_SOLVE, iter, || {
            phases::field_solve::run(m, &env)
        })?;
        timed(&mut spans, origin, GATHER, iter, || {
            phases::gather::run(m, &env)
        })?;
        timed(&mut spans, origin, PUSH, iter, || {
            phases::push::run(m, &env)
        })?;
        let records = machine.stats_mut().drain();
        let time_s: f64 = records.iter().map(|r| r.elapsed_s).sum();
        stats.extend(records);
        if cfg.movement == MovementMethod::Lagrangian && policy.should_redistribute(iter, time_s) {
            let m = &mut machine;
            let cost_s = timed(&mut spans, origin, REDISTRIBUTE, iter, || {
                phases::redistribute::run(m, &env, false)
            })?;
            policy.notify_redistributed(iter, cost_s);
            stats.extend(machine.stats_mut().drain());
        }
        spans.push(Span {
            phase: None,
            iter,
            start_ns: iter_start,
            end_ns: nanos_since(origin),
        });
    }
    Ok((
        Trace {
            spans,
            stats,
            iters,
        },
        machine,
    ))
}

fn nanos_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Run `call` inside a span of `phase`; the span is recorded only when
/// the call succeeds.
fn timed<T>(
    spans: &mut Vec<Span>,
    origin: Instant,
    phase: usize,
    iter: usize,
    call: impl FnOnce() -> Result<T, SpmdError>,
) -> Result<T, SpmdError> {
    let start_ns = nanos_since(origin);
    let out = call()?;
    spans.push(Span {
        phase: Some(phase),
        iter,
        start_ns,
        end_ns: nanos_since(origin),
    });
    Ok(out)
}
