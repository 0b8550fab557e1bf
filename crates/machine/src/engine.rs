//! The executor abstraction: one SPMD phase program, two machines.
//!
//! Every PIC phase is written as a sequence of *supersteps* and
//! *collectives* against this trait, so the identical program runs on
//!
//! * the modeled BSP [`Machine`](crate::Machine) — deterministic,
//!   charges the paper's two-level (τ/μ/δ) cost model, reports **modeled
//!   seconds**; and
//! * the real-threads [`ThreadedMachine`](crate::ThreadedMachine) — one OS
//!   thread per virtual rank, genuine message passing over mailboxes,
//!   reports **wall-clock seconds**.
//!
//! Cross-validation tests assert that both executors produce bit-identical
//! rank states for full multi-iteration simulations; the dashboard's
//! `model_error.csv` quantifies how far the cost model drifts from real
//! execution.
//!
//! The trait carries exactly the operations the phase programs use: the
//! paper's two kinds of communication — the all-to-many exchange
//! ([`SpmdEngine::superstep`], with the communication-free
//! [`SpmdEngine::local_step`]) and global concatenation
//! ([`SpmdEngine::allgatherv`], which a one-value-per-rank gather calls
//! with one-element vectors).  Each executor implements each of them
//! once, in its trait impl.  A fourth method, [`SpmdEngine::inspect`],
//! is not communication: a read-only, unaccounted map that lets the
//! driver check every rank's state on the worker that owns it.
//!
//! ## Failure reporting
//!
//! Every communication operation returns `Result<(), SpmdError>` so a
//! rank failure — panic, receive timeout, injected kill, poisoned
//! mailbox — surfaces as a typed value carrying the failing rank, the
//! phase, the engine's superstep index, and the driver's fault epoch.
//! Fault schedules are installed as the `fault_plan` of
//! [`SpmdEngine::instruments_mut`] and scoped in time by
//! [`SpmdEngine::set_fault_epoch`] (the PIC driver sets
//! the epoch to the iteration number every iteration).  The modeled
//! machine honors only kill faults — it has no real wires for benign
//! delay/reorder/drop faults to act on; the threaded machine honors all
//! of them at the mailbox layer.

use crate::config::MachineConfig;
use crate::error::SpmdError;
use crate::machine::{Outbox, PhaseCtx};
use crate::payload::Payload;
use crate::record::Instruments;
use crate::stats::{PhaseKind, StatsLog};

/// A machine that can run SPMD phase programs over rank states of type `S`.
///
/// The closure bounds mirror the strictest executor (the threaded one,
/// which shares the closures across rank threads); the modeled machine
/// simply ignores the extra `Sync` requirement.
pub trait SpmdEngine<S: Send>: Sized {
    /// Build an engine whose rank `r` starts with `states[r]`.
    ///
    /// # Panics
    /// Panics if `states.len() != cfg.ranks`.
    fn build(cfg: MachineConfig, states: Vec<S>) -> Self;

    /// Number of virtual ranks.
    fn num_ranks(&self) -> usize;

    /// Immutable view of rank states.
    fn ranks(&self) -> &[S];

    /// Mutable view of rank states (setup only; not charged to clocks).
    fn ranks_mut(&mut self) -> &mut [S];

    /// Consume the engine, returning final rank states.
    fn into_ranks(self) -> Vec<S>;

    /// Elapsed seconds so far: modeled time on the BSP machine,
    /// accumulated wall-clock time on the threaded one.
    fn elapsed_s(&self) -> f64;

    /// Computation component of [`Self::elapsed_s`] (max over ranks).
    fn compute_s(&self) -> f64;

    /// Superstep statistics log.
    fn stats(&self) -> &StatsLog;

    /// Mutable statistics log (drained per iteration by the PIC driver).
    fn stats_mut(&mut self) -> &mut StatsLog;

    /// Set the fault epoch faults are matched against (drivers use their
    /// iteration counter, so plans can say "kill rank 2 at iteration 25").
    fn set_fault_epoch(&mut self, epoch: u64);

    /// The installed fault schedule, recorder and metrics registry.
    fn instruments(&self) -> &Instruments;

    /// Mutable access to the installed [`Instruments`]: install, replace
    /// or take any of them between operations.  Every subsequent
    /// superstep and collective emits per-rank
    /// [`SpanEvent`](crate::trace::SpanEvent)s and one
    /// [`SuperstepEvent`](crate::trace::SuperstepEvent) to the recorder —
    /// modeled seconds on the BSP machine, wall-clock seconds on the
    /// threaded one (see [`crate::trace`]) — and feeds the registry's
    /// phase family and communication matrix (see [`crate::metrics`]).
    /// Drivers append their own events to the same recorder.
    fn instruments_mut(&mut self) -> &mut Instruments;

    /// Run one superstep: `compute` on every rank (may send messages),
    /// then `deliver` on every rank with its inbox sorted by sender rank
    /// (order within one sender preserved).
    fn superstep<M, F, G>(
        &mut self,
        phase: PhaseKind,
        compute: F,
        deliver: G,
    ) -> Result<(), SpmdError>
    where
        M: Payload,
        F: Fn(usize, &mut S, &mut PhaseCtx, &mut Outbox<M>) + Sync,
        G: Fn(usize, &mut S, &mut PhaseCtx, Vec<(usize, M)>) + Sync;

    /// A communication-free superstep: `compute` on every rank, no
    /// exchange.
    fn local_step<F>(&mut self, phase: PhaseKind, compute: F) -> Result<(), SpmdError>
    where
        F: Fn(usize, &mut S, &mut PhaseCtx) + Sync;

    /// Global concatenation of vectors, in rank order: every rank
    /// contributes a vector, every rank receives the concatenation of
    /// all of them.  Charged as recursive doubling of the largest
    /// contribution (`bytes_per_item` per item).
    fn allgatherv<T, F, G>(
        &mut self,
        phase: PhaseKind,
        bytes_per_item: usize,
        extract: F,
        apply: G,
    ) -> Result<(), SpmdError>
    where
        T: Clone + Send,
        F: Fn(usize, &S) -> Vec<T> + Sync,
        G: Fn(usize, &mut S, &[T]) + Sync;

    /// Read-only map over the ranks, run on the workers that run the
    /// ranks' supersteps: `f` on every rank, outputs in rank order.  It
    /// is not an operation of the program: it records no superstep,
    /// charges no time, emits no event and arms no fault.  A panic in
    /// `f` is re-raised with its payload.
    ///
    /// Takes `&mut self` because rank states need only be `Send`: each
    /// worker is handed its ranks exclusively.
    fn inspect<T, F>(&mut self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &S) -> T + Sync;
}
