//! The executor abstraction: one SPMD phase program, two machines.
//!
//! Every PIC phase is written as a sequence of *supersteps* and
//! *collectives* against this trait, so the identical program runs on
//!
//! * the modeled BSP [`Machine`] — deterministic,
//!   charges the paper's two-level (τ/μ/δ) cost model, reports **modeled
//!   seconds**; and
//! * the real-threads [`ThreadedMachine`](crate::ThreadedMachine) — one OS
//!   thread per virtual rank, genuine message passing over mailboxes,
//!   reports **wall-clock seconds**.
//!
//! Cross-validation tests assert that both executors produce bit-identical
//! rank states for full multi-iteration simulations; the bench binary
//! `threaded_vs_modeled` quantifies how far the cost model drifts from
//! real execution.
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

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::config::MachineConfig;
use crate::error::{FailureCause, SpmdError};
use crate::machine::{Machine, Outbox, PhaseCtx};
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

    /// The machine parameters the engine was built with.
    fn machine_config(&self) -> &MachineConfig;

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

    /// The current fault epoch.
    fn fault_epoch(&self) -> u64;

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

    /// A communication-free superstep.
    fn local_step<F>(&mut self, phase: PhaseKind, compute: F) -> Result<(), SpmdError>
    where
        F: Fn(usize, &mut S, &mut PhaseCtx) + Sync,
    {
        self.superstep::<(), _, _>(
            phase,
            move |r, s, ctx, _outbox| compute(r, s, ctx),
            |_, _, _, _| {},
        )
    }

    /// Global concatenation: every rank contributes one value, every rank
    /// receives the full rank-indexed vector.
    fn allgather<T, F, G>(
        &mut self,
        phase: PhaseKind,
        bytes_per_item: usize,
        extract: F,
        apply: G,
    ) -> Result<(), SpmdError>
    where
        T: Clone + Send,
        F: Fn(usize, &S) -> T + Sync,
        G: Fn(usize, &mut S, &[T]) + Sync;

    /// Global concatenation of vectors, in rank order.
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

    /// All-reduce with a caller-supplied fold.  The fold is applied in
    /// rank order on every executor so floating-point results are
    /// bit-identical across them.
    fn allreduce<T, F, R, G>(
        &mut self,
        phase: PhaseKind,
        extract: F,
        reduce: R,
        apply: G,
    ) -> Result<(), SpmdError>
    where
        T: Clone + Send,
        F: Fn(usize, &S) -> T + Sync,
        R: Fn(T, T) -> T + Sync,
        G: Fn(usize, &mut S, &T) + Sync;

    /// Element-wise all-reduce of per-rank arrays (rank-ordered fold).
    /// Fails with a panic cause if ranks contribute arrays of different
    /// lengths.
    fn allreduce_elementwise<T, F, R, G>(
        &mut self,
        phase: PhaseKind,
        share_bytes: usize,
        extract: F,
        reduce: R,
        apply: G,
    ) -> Result<(), SpmdError>
    where
        T: Clone + Send,
        F: Fn(usize, &S) -> Vec<T> + Sync,
        R: Fn(&T, &T) -> T + Sync,
        G: Fn(usize, &mut S, &[T]) + Sync;

    /// Synchronize all ranks.
    fn barrier(&mut self) -> Result<(), SpmdError>;
}

impl<S: Send> SpmdEngine<S> for Machine<S> {
    fn build(cfg: MachineConfig, states: Vec<S>) -> Self {
        Machine::new(cfg, states)
    }

    fn num_ranks(&self) -> usize {
        Machine::num_ranks(self)
    }

    fn machine_config(&self) -> &MachineConfig {
        self.config()
    }

    fn ranks(&self) -> &[S] {
        Machine::ranks(self)
    }

    fn ranks_mut(&mut self) -> &mut [S] {
        Machine::ranks_mut(self)
    }

    fn into_ranks(self) -> Vec<S> {
        Machine::into_ranks(self)
    }

    fn elapsed_s(&self) -> f64 {
        Machine::elapsed_s(self)
    }

    fn compute_s(&self) -> f64 {
        Machine::compute_s(self)
    }

    fn stats(&self) -> &StatsLog {
        Machine::stats(self)
    }

    fn stats_mut(&mut self) -> &mut StatsLog {
        Machine::stats_mut(self)
    }

    fn set_fault_epoch(&mut self, epoch: u64) {
        Machine::set_fault_epoch(self, epoch);
    }

    fn fault_epoch(&self) -> u64 {
        Machine::fault_epoch(self)
    }

    fn instruments(&self) -> &Instruments {
        &self.acct.instruments
    }

    fn instruments_mut(&mut self) -> &mut Instruments {
        &mut self.acct.instruments
    }

    fn superstep<M, F, G>(
        &mut self,
        phase: PhaseKind,
        compute: F,
        deliver: G,
    ) -> Result<(), SpmdError>
    where
        M: Payload,
        F: Fn(usize, &mut S, &mut PhaseCtx, &mut Outbox<M>) + Sync,
        G: Fn(usize, &mut S, &mut PhaseCtx, Vec<(usize, M)>) + Sync,
    {
        self.guarded(phase, |m| m.superstep(phase, compute, deliver))
    }

    fn local_step<F>(&mut self, phase: PhaseKind, compute: F) -> Result<(), SpmdError>
    where
        F: Fn(usize, &mut S, &mut PhaseCtx) + Sync,
    {
        self.guarded(phase, |m| Machine::local_step(m, phase, compute))
    }

    fn allgather<T, F, G>(
        &mut self,
        phase: PhaseKind,
        bytes_per_item: usize,
        extract: F,
        apply: G,
    ) -> Result<(), SpmdError>
    where
        T: Clone + Send,
        F: Fn(usize, &S) -> T + Sync,
        G: Fn(usize, &mut S, &[T]) + Sync,
    {
        self.guarded(phase, |m| {
            m.allgather(phase, bytes_per_item, extract, apply)
        })
    }

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
        G: Fn(usize, &mut S, &[T]) + Sync,
    {
        self.guarded(phase, |m| {
            m.allgatherv(phase, bytes_per_item, extract, apply)
        })
    }

    fn allreduce<T, F, R, G>(
        &mut self,
        phase: PhaseKind,
        extract: F,
        reduce: R,
        apply: G,
    ) -> Result<(), SpmdError>
    where
        T: Clone + Send,
        F: Fn(usize, &S) -> T + Sync,
        R: Fn(T, T) -> T + Sync,
        G: Fn(usize, &mut S, &T) + Sync,
    {
        self.guarded(phase, |m| m.allreduce(phase, extract, reduce, apply))
    }

    fn allreduce_elementwise<T, F, R, G>(
        &mut self,
        phase: PhaseKind,
        share_bytes: usize,
        extract: F,
        reduce: R,
        apply: G,
    ) -> Result<(), SpmdError>
    where
        T: Clone + Send,
        F: Fn(usize, &S) -> Vec<T> + Sync,
        R: Fn(&T, &T) -> T + Sync,
        G: Fn(usize, &mut S, &[T]) + Sync,
    {
        self.guarded(phase, |m| {
            m.allreduce_elementwise(phase, share_bytes, extract, reduce, apply)
        })
    }

    fn barrier(&mut self) -> Result<(), SpmdError> {
        self.guarded(PhaseKind::Other, Machine::barrier)
    }
}

impl<S: Send> Machine<S> {
    /// Run one engine-trait operation: bump the superstep counter, fail
    /// first if a kill fault strikes any rank now, and turn a panic
    /// inside `op` into a typed error carrying the phase, superstep index
    /// and fault epoch.
    fn guarded(&mut self, phase: PhaseKind, op: impl FnOnce(&mut Self)) -> Result<(), SpmdError> {
        let step = self.supersteps;
        self.supersteps += 1;
        let epoch = self.fault_epoch();
        if let Some(plan) = &self.acct.instruments.fault_plan {
            if let Some(r) = (0..self.num_ranks()).find(|&r| plan.consume_kill(r, epoch, phase)) {
                let cause = FailureCause::Killed { epoch };
                return Err(SpmdError::on_rank(r, cause).in_phase(phase, step, epoch));
            }
        }
        catch_unwind(AssertUnwindSafe(|| op(self)))
            .map_err(|p| SpmdError::from_panic_payload(p).in_phase(phase, step, epoch))
    }
}
