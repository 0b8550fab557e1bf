//! [`ThreadedMachine`]: the real-threads implementation of [`SpmdEngine`].
//!
//! Every virtual rank owns one **persistent** OS thread for the lifetime
//! of the machine: the crate's worker pool at one worker per rank, where
//! rank 0 runs on the driving thread and every other rank on a parked
//! worker of its own.  Each superstep or collective dispatches one job
//! per rank to its thread instead of spawning fresh threads, which
//! removes ~100–200 µs of spawn/join overhead per operation from the hot
//! path.  Ranks communicate through mailboxes of rank-to-rank channels,
//! created fresh for every operation, so the communication the
//! modeled [`Machine`](crate::Machine) *charges* is here actually
//! *performed*.  Where the modeled machine reports τ/μ/δ seconds, this
//! engine reports wall-clock seconds; the statistics log carries the same
//! off-rank message/byte counts (they are a property of the program, not
//! the executor), which is what makes the two logs directly comparable
//! (the dashboard's per-phase model-error report sets them side by side).
//!
//! Rank results are bit-identical to the modeled machine by construction:
//!
//! * the exchange delivers inboxes sorted by sender rank with per-sender
//!   order preserved — the modeled router's order;
//! * the concatenation ([`SpmdEngine::allgatherv`]) is one such exchange,
//!   every rank sending its contribution to every rank, so it arrives
//!   in rank order;
//! * ranks share no mutable state between synchronization points.
//!
//! Failure semantics come from the mailbox layer: a failing rank poisons
//! its peers and every entry point returns the *root* failure as a typed
//! [`SpmdError`] within bounded time.  An
//! installed [`FaultPlan`](crate::FaultPlan) is threaded into every
//! rank's mailbox as a per-(rank, epoch)
//! [`FaultSession`](crate::fault::FaultSession), so this engine honors
//! benign wire faults *and* kills.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::config::MachineConfig;
use crate::engine::SpmdEngine;
use crate::error::SpmdError;
use crate::machine::{Outbox, PhaseCtx};
use crate::payload::Payload;
use crate::pool::WorkerPool;
use crate::record::{Accounting, CollectiveShape, Instruments, RankEntry};
use crate::stats::{PhaseKind, StatsLog};
use crate::threaded::{
    make_mailboxes, poison_all, resolve_rank_results, Mailbox, DEFAULT_RECV_TIMEOUT,
};

/// Per-rank accounting returned from a superstep's rank thread.
struct RankReport {
    /// Compute seconds and off-rank traffic; `comm_s` is filled in once
    /// the operation's wall time is known.
    entry: RankEntry,
    /// `(to, bytes)` of every off-rank message, recorded on the send
    /// side of the mailbox exchange; populated only when metrics are
    /// enabled.
    sent_pairs: Vec<(usize, u64)>,
    /// `(from, bytes)` of every off-rank message, recorded
    /// independently on the receive side; populated only when metrics
    /// are enabled.  Keeping the two sides separate is what lets the
    /// comm-matrix conservation test (`sent(i→j) == recv(j←i)`) verify
    /// the transport end to end.
    recv_pairs: Vec<(usize, u64)>,
}

/// An [`SpmdEngine`] that executes every virtual rank on its own OS
/// thread with real message passing.  See the module docs.
pub struct ThreadedMachine<S> {
    cfg: MachineConfig,
    states: Vec<S>,
    /// Statistics log, installed instruments and the operation record.
    /// Records are committed from the driving thread after the rank
    /// threads join, so recorders need `Send` but never see concurrent
    /// calls.
    acct: Accounting,
    /// Accumulated wall-clock seconds across operations.
    elapsed_wall_s: f64,
    timeout: Duration,
    /// One worker per rank (rank 0 on the driving thread), created on the
    /// first operation and joined on drop.
    pool: Option<WorkerPool>,
}

impl<S: Send> ThreadedMachine<S> {
    /// Build a threaded machine whose rank `r` starts with `states[r]`.
    ///
    /// # Panics
    /// Panics if `cfg.ranks == 0` or `states.len() != cfg.ranks`.
    pub fn new(cfg: MachineConfig, states: Vec<S>) -> Self {
        assert!(cfg.ranks > 0, "machine needs at least one rank");
        assert_eq!(
            states.len(),
            cfg.ranks,
            "state count {} != configured ranks {}",
            states.len(),
            cfg.ranks
        );
        Self {
            cfg,
            states,
            acct: Accounting::new(true),
            elapsed_wall_s: 0.0,
            timeout: DEFAULT_RECV_TIMEOUT,
            pool: None,
        }
    }

    /// Use a custom per-receive deadline (tests use short ones to assert
    /// bounded-time failure).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Run `f` on every rank — each on its own persistent thread —
    /// connected by a fresh set of mailboxes carrying this engine's
    /// fault sessions.  Returns per-rank results in rank order plus the
    /// operation's wall time, or the root failure with phase/superstep
    /// context attached (peers are poisoned so the call never hangs).
    pub(crate) fn run_ranks<M, R, F>(
        &mut self,
        phase: PhaseKind,
        f: F,
    ) -> Result<(Vec<R>, Duration), SpmdError>
    where
        M: Send,
        R: Send,
        F: Fn(usize, &mut S, Mailbox<M>) -> R + Sync,
    {
        let (step, epoch) = (self.acct.superstep, self.acct.epoch);
        let start = Instant::now();
        let p = self.cfg.ranks;
        let mut mailboxes = make_mailboxes::<M>(p, self.timeout);
        if let Some(plan) = &self.acct.instruments.fault_plan {
            for (rank, mb) in mailboxes.iter_mut().enumerate() {
                mb.set_fault(Some(plan.session(rank, epoch, phase)));
            }
        }
        let pool = self.pool.get_or_insert_with(|| WorkerPool::new(p, "rank"));
        let items: Vec<(&mut S, Mailbox<M>)> = self.states.iter_mut().zip(mailboxes).collect();
        let outcomes = pool.map(items, &|r, (s, mb): (&mut S, Mailbox<M>)| {
            let senders = mb.sender_clones();
            let out = catch_unwind(AssertUnwindSafe(|| f(r, s, mb)));
            if out.is_err() {
                // fail peers blocked on this rank now, not at their deadline
                poison_all(r, &senders);
            }
            out
        });
        let outcomes = outcomes
            .into_iter()
            .map(|o| o.and_then(|out| out))
            .collect();
        match resolve_rank_results(outcomes) {
            Ok(results) => Ok((results, start.elapsed())),
            Err(err) => Err(err.in_phase(phase, step, epoch)),
        }
    }

    /// Account a recursive-doubling collective: the message and byte
    /// counts the modeled machine charges (they describe the algorithm,
    /// not the executor) over the measured wall time.
    fn account_collective(&mut self, phase: PhaseKind, share_bytes: usize, wall: Duration) {
        let wall_s = wall.as_secs_f64();
        let start = self.elapsed_wall_s;
        self.elapsed_wall_s += wall_s;
        self.acct.begin(phase, start).set_collective(
            &self.cfg,
            CollectiveShape::Doubling,
            share_bytes,
            wall_s,
        );
        self.acct.commit();
    }

    /// Account one (possibly communication-free) superstep from its
    /// per-rank reports and wall time — shared by
    /// [`SpmdEngine::superstep`] and the specialized
    /// [`SpmdEngine::local_step`].  A rank is busy for the operation's
    /// full wall time (the driving thread waits for every rank), so
    /// whatever it did not spend computing is its communication + idle.
    fn account_superstep(&mut self, phase: PhaseKind, reports: &[RankReport], wall: Duration) {
        let wall_s = wall.as_secs_f64();
        let start = self.elapsed_wall_s;
        self.elapsed_wall_s += wall_s;
        let rec = self.acct.begin(phase, start);
        rec.elapsed_s = wall_s;
        for (rank, rep) in reports.iter().enumerate() {
            let sent = rep.sent_pairs.iter().map(|&(to, bytes)| (rank, to, bytes));
            rec.sent_pairs.extend(sent);
            let recv = rep
                .recv_pairs
                .iter()
                .map(|&(from, bytes)| (from, rank, bytes));
            rec.recv_pairs.extend(recv);
            rec.ranks.push(RankEntry {
                comm_s: (wall_s - rep.entry.compute_s).max(0.0),
                ..rep.entry
            });
        }
        self.acct.commit();
    }
}

impl<S: Send> SpmdEngine<S> for ThreadedMachine<S> {
    fn build(cfg: MachineConfig, states: Vec<S>) -> Self {
        ThreadedMachine::new(cfg, states)
    }

    fn num_ranks(&self) -> usize {
        self.cfg.ranks
    }

    fn ranks(&self) -> &[S] {
        &self.states
    }

    fn ranks_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    fn into_ranks(self) -> Vec<S> {
        self.states
    }

    fn elapsed_s(&self) -> f64 {
        self.elapsed_wall_s
    }

    fn stats(&self) -> &StatsLog {
        &self.acct.stats
    }

    fn stats_mut(&mut self) -> &mut StatsLog {
        &mut self.acct.stats
    }

    fn set_fault_epoch(&mut self, epoch: u64) {
        self.acct.epoch = epoch;
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
        let p = self.cfg.ranks;
        let track_pairs = self.acct.instruments.metrics.is_some();
        let compute = &compute;
        let deliver = &deliver;
        let (reports, wall) = self.run_ranks::<M, RankReport, _>(phase, move |r, s, mut mb| {
            let t0 = Instant::now();
            let mut ctx = PhaseCtx::default();
            let mut outbox = Outbox::new(p);
            compute(r, s, &mut ctx, &mut outbox);
            let outgoing = outbox.into_msgs();
            let compute_half = t0.elapsed();

            let mut rep = RankReport {
                entry: RankEntry::default(),
                sent_pairs: Vec::new(),
                recv_pairs: Vec::new(),
            };
            for (to, msg) in &outgoing {
                if *to != r {
                    let bytes = msg.size_bytes() as u64;
                    rep.entry.msgs_sent += 1;
                    rep.entry.bytes_sent += bytes;
                    if track_pairs {
                        rep.sent_pairs.push((*to, bytes));
                    }
                }
            }
            let inbox = mb.exchange(outgoing);
            for (from, msg) in &inbox {
                if *from != r {
                    let bytes = msg.size_bytes() as u64;
                    rep.entry.msgs_recv += 1;
                    rep.entry.bytes_recv += bytes;
                    if track_pairs {
                        rep.recv_pairs.push((*from, bytes));
                    }
                }
            }

            let t1 = Instant::now();
            let mut ctx = PhaseCtx::default();
            deliver(r, s, &mut ctx, inbox);
            rep.entry.compute_s = (compute_half + t1.elapsed()).as_secs_f64();
            // No trailing barrier: mailboxes are fresh per operation (no
            // traffic can leak into the next superstep) and the pool's
            // completion wait already synchronizes all ranks before the
            // driving thread proceeds.
            rep
        })?;
        self.account_superstep(phase, &reports, wall);
        Ok(())
    }

    fn local_step<F>(&mut self, phase: PhaseKind, compute: F) -> Result<(), SpmdError>
    where
        F: Fn(usize, &mut S, &mut PhaseCtx) + Sync,
    {
        // Specialized over the trait default (which routes through
        // `superstep` with an empty outbox): a communication-free step
        // needs no exchange at all, and on hosts with fewer cores than
        // ranks the empty all-to-all handshake is pure scheduling churn.
        // Kill faults are still honored via the mailbox's armed session;
        // the pool's completion wait provides the step-boundary sync.
        let compute = &compute;
        let (reports, wall) = self.run_ranks::<(), RankReport, _>(phase, move |r, s, mb| {
            mb.check_kill();
            let t0 = Instant::now();
            let mut ctx = PhaseCtx::default();
            compute(r, s, &mut ctx);
            RankReport {
                entry: RankEntry {
                    compute_s: t0.elapsed().as_secs_f64(),
                    ..RankEntry::default()
                },
                sent_pairs: Vec::new(),
                recv_pairs: Vec::new(),
            }
        })?;
        self.account_superstep(phase, &reports, wall);
        Ok(())
    }

    /// One exchange in which every rank sends its contribution to every
    /// rank, itself included: the inbox comes back sorted by sender, so
    /// it is the rank-order concatenation.
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
        let p = self.cfg.ranks;
        let extract = &extract;
        let apply = &apply;
        let (lens, wall) = self.run_ranks::<T, usize, _>(phase, move |r, s, mut mb| {
            let part = extract(r, s);
            let share = part.len();
            let outgoing = (0..p)
                .flat_map(|to| part.iter().map(move |v| (to, v.clone())))
                .collect();
            let concat: Vec<T> = mb.exchange(outgoing).into_iter().map(|(_, v)| v).collect();
            apply(r, s, &concat);
            share
        })?;
        let max_share = lens.into_iter().max().unwrap_or(0);
        self.account_collective(phase, max_share * bytes_per_item, wall);
        Ok(())
    }

    /// Rank `r` is read on worker `r`, the thread that runs its
    /// supersteps.  No mailboxes are made, so no fault session is armed.
    fn inspect<T, F>(&mut self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &S) -> T + Sync,
    {
        let p = self.cfg.ranks;
        let pool = self.pool.get_or_insert_with(|| WorkerPool::new(p, "rank"));
        let items: Vec<&mut S> = self.states.iter_mut().collect();
        pool.map(items, &|r, s: &mut S| f(r, s))
            .into_iter()
            .map(|out| out.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use std::sync::Arc;
    use std::thread;

    fn tiny(p: usize) -> MachineConfig {
        MachineConfig {
            ranks: p,
            tau: 1.0,
            mu: 0.1,
            delta: 0.01,
        }
    }

    #[test]
    fn superstep_matches_modeled_machine() {
        let run_modeled = || {
            let mut m = crate::Machine::new(tiny(8), vec![0u64; 8]);
            drive(&mut m);
            m.into_ranks()
        };
        let run_threaded = || {
            let mut m = ThreadedMachine::new(tiny(8), vec![0u64; 8]);
            drive(&mut m);
            m.into_ranks()
        };
        fn drive<E: SpmdEngine<u64>>(m: &mut E) {
            for step in 0..4u64 {
                m.superstep(
                    PhaseKind::Other,
                    move |r, s, _ctx, ob: &mut Outbox<Vec<u64>>| {
                        ob.send((r + 1) % 8, vec![*s + step]);
                        ob.send((r + 3) % 8, vec![*s * 2 + step]);
                    },
                    |_r, s, _ctx, inbox| {
                        for (from, msg) in inbox {
                            *s = s.wrapping_add(msg[0]).wrapping_mul(from as u64 | 1);
                        }
                    },
                )
                .expect("fault-free superstep");
            }
        }
        assert_eq!(run_modeled(), run_threaded());
    }

    #[test]
    #[should_panic(expected = "machine needs at least one rank")]
    fn zero_ranks_rejected() {
        let _ = ThreadedMachine::<()>::new(tiny(0), Vec::new());
    }

    #[test]
    fn superstep_counts_off_rank_traffic_like_modeled() {
        let mut modeled = crate::Machine::new(tiny(4), vec![(); 4]);
        let mut threaded = ThreadedMachine::new(tiny(4), vec![(); 4]);
        fn program<E: SpmdEngine<()>>(m: &mut E) {
            m.superstep(
                PhaseKind::Scatter,
                |r, _s, _ctx, ob: &mut Outbox<Vec<f64>>| {
                    ob.send((r + 1) % 4, vec![r as f64; r + 1]);
                    ob.send(r, vec![9.0]); // self-message: free
                },
                |_, _, _, _| {},
            )
            .expect("fault-free superstep");
        }
        program(&mut modeled);
        program(&mut threaded);
        let m = modeled.stats().records()[0];
        let t = threaded.stats().records()[0];
        assert_eq!(m.max_msgs_sent, t.max_msgs_sent);
        assert_eq!(m.max_msgs_recv, t.max_msgs_recv);
        assert_eq!(m.max_bytes_sent, t.max_bytes_sent);
        assert_eq!(m.max_bytes_recv, t.max_bytes_recv);
        assert_eq!(m.total_msgs, t.total_msgs);
        assert_eq!(m.total_bytes, t.total_bytes);
    }

    #[test]
    fn collectives_match_modeled_machine() {
        fn drive<E: SpmdEngine<(f64, Vec<f64>)>>(m: &mut E) -> Vec<(f64, Vec<f64>)> {
            m.allgatherv(
                PhaseKind::Setup,
                8,
                |r, _s| vec![r as f64 * 0.1],
                |_r, s, all: &[f64]| s.1 = all.to_vec(),
            )
            .expect("one-value allgatherv");
            m.allgatherv(
                PhaseKind::Setup,
                8,
                |r, s| vec![s.0 + r as f64; r],
                |_r, s, concat: &[f64]| s.1.extend_from_slice(concat),
            )
            .expect("allgatherv");
            m.ranks().to_vec()
        }
        let states = |p: usize| (0..p).map(|r| (r as f64 * 0.31, Vec::new())).collect();
        let mut modeled = crate::Machine::new(tiny(6), states(6));
        let mut threaded = ThreadedMachine::new(tiny(6), states(6));
        let a = drive(&mut modeled);
        let b = drive(&mut threaded);
        // bit-identical, floats included
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0.to_bits(), y.0.to_bits());
            assert_eq!(x.1.len(), y.1.len());
            for (u, v) in x.1.iter().zip(&y.1) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn rank_threads_persist_across_operations() {
        // every operation must land on the same per-rank worker thread —
        // the pool dispatches, it never respawns
        let mut m = ThreadedMachine::new(tiny(4), vec![Vec::<thread::ThreadId>::new(); 4]);
        for _ in 0..3 {
            m.local_step(PhaseKind::Other, |_r, s, _ctx| {
                s.push(thread::current().id());
            })
            .expect("fault-free step");
        }
        let ids: Vec<thread::ThreadId> = m.ranks().iter().map(|s| s[0]).collect();
        for (r, s) in m.ranks().iter().enumerate() {
            assert_eq!(s.len(), 3);
            assert!(
                s.iter().all(|id| *id == ids[r]),
                "rank {r} migrated between threads"
            );
        }
        // distinct ranks on distinct threads
        for r in 1..ids.len() {
            assert_ne!(ids[0], ids[r], "ranks share a worker thread");
        }
    }

    #[test]
    fn pool_survives_a_failed_operation() {
        let mut m =
            ThreadedMachine::new(tiny(4), vec![0u64; 4]).with_timeout(Duration::from_secs(10));
        let err = m
            .superstep(
                PhaseKind::Push,
                |r, _s, _ctx, _ob: &mut Outbox<Vec<u64>>| {
                    if r == 1 {
                        panic!("transient failure");
                    }
                },
                |_, _, _, _| {},
            )
            .expect_err("rank 1 must fail the superstep");
        assert_eq!(err.superstep, Some(0));
        // the persistent workers must still serve subsequent operations
        m.superstep(
            PhaseKind::Push,
            |r, s, _ctx, ob: &mut Outbox<Vec<u64>>| {
                ob.send((r + 1) % 4, vec![r as u64]);
                *s += 1;
            },
            |_r, s, _ctx, inbox| {
                for (_, msg) in inbox {
                    *s += msg[0];
                }
            },
        )
        .expect("pool must recover after a failed operation");
        assert_eq!(m.ranks(), &[4, 1, 2, 3]);
    }

    #[test]
    fn panic_in_compute_half_becomes_typed_error() {
        let mut m =
            ThreadedMachine::new(tiny(4), vec![0u64; 4]).with_timeout(Duration::from_secs(10));
        let err = m
            .superstep(
                PhaseKind::Push,
                |r, _s, _ctx, _ob: &mut Outbox<Vec<u64>>| {
                    if r == 2 {
                        panic!("compute exploded on rank 2");
                    }
                },
                |_, _, _, _| {},
            )
            .expect_err("panicking rank must fail the superstep");
        assert_eq!(err.phase, Some(PhaseKind::Push));
        assert_eq!(err.superstep, Some(0));
        match &err.cause {
            crate::error::FailureCause::Panic(msg) => {
                assert!(msg.contains("compute exploded"), "got {msg:?}")
            }
            other => panic!("expected Panic cause, got {other:?}"),
        }
    }

    #[test]
    fn injected_kill_carries_phase_and_epoch() {
        let mut m =
            ThreadedMachine::new(tiny(4), vec![0u64; 4]).with_timeout(Duration::from_secs(10));
        m.instruments_mut().fault_plan = Some(Arc::new(FaultPlan::new(1).kill(1, 7)));
        let step =
            |m: &mut ThreadedMachine<u64>| m.local_step(PhaseKind::Gather, |_r, _s, _ctx| {});
        m.set_fault_epoch(6);
        step(&mut m).expect("epoch 6: no fault armed");
        m.set_fault_epoch(7);
        let err = step(&mut m).expect_err("epoch 7: rank 1 must die");
        assert!(err.is_injected_kill());
        assert_eq!(err.rank, Some(1));
        assert_eq!(err.phase, Some(PhaseKind::Gather));
        assert_eq!(err.epoch, Some(7));
        // the kill is one-shot: a restarted epoch runs clean
        step(&mut m).expect("kill must not re-fire");
    }

    #[test]
    fn modeled_machine_honors_kill_faults_identically() {
        let mut m = crate::Machine::new(tiny(4), vec![0u64; 4]);
        m.instruments_mut().fault_plan = Some(Arc::new(FaultPlan::new(1).kill(2, 3)));
        m.set_fault_epoch(3);
        let err = m
            .local_step(PhaseKind::Push, |_r, _s, _ctx| {})
            .expect_err("kill must fire on the modeled machine too");
        assert!(err.is_injected_kill());
        assert_eq!(err.rank, Some(2));
        assert_eq!(err.phase, Some(PhaseKind::Push));
        m.local_step(PhaseKind::Push, |_r, _s, _ctx| {})
            .expect("one-shot: second attempt runs clean");
    }

    #[test]
    fn out_of_range_destination_fails_alike_on_both_executors() {
        fn program<E: SpmdEngine<()>>(m: &mut E) -> SpmdError {
            m.local_step(PhaseKind::Setup, |_r, _s, _ctx| {})
                .expect("fault-free step");
            m.superstep(
                PhaseKind::Scatter,
                |_r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| ob.send(7, vec![]),
                |_, _, _, _| {},
            )
            .expect_err("rank 7 does not exist on a 2-rank machine")
        }
        let modeled = program(&mut crate::Machine::new(tiny(2), vec![(); 2]));
        let threaded = program(
            &mut ThreadedMachine::new(tiny(2), vec![(); 2]).with_timeout(Duration::from_secs(10)),
        );
        for err in [&modeled, &threaded] {
            assert_eq!(err.phase, Some(PhaseKind::Scatter));
            assert_eq!(err.superstep, Some(1));
            match &err.cause {
                crate::error::FailureCause::Panic(msg) => {
                    assert!(msg.contains("out of range"), "got {msg:?}")
                }
                other => panic!("expected Panic cause, got {other:?}"),
            }
        }
        assert_eq!(modeled.cause, threaded.cause);
    }

    #[test]
    fn panic_in_allgatherv_fails_alike_on_both_executors() {
        fn program<E: SpmdEngine<u64>>(m: &mut E) -> SpmdError {
            m.local_step(PhaseKind::Setup, |_r, _s, _ctx| {})
                .expect("fault-free step");
            m.allgatherv(
                PhaseKind::Redistribute,
                8,
                |r, s| {
                    if r == 2 {
                        panic!("extract exploded on rank {r}");
                    }
                    vec![*s]
                },
                |_r, _s, _all: &[u64]| {},
            )
            .expect_err("rank 2 must fail the concatenation")
        }
        let modeled = program(&mut crate::Machine::new(tiny(4), vec![0; 4]));
        // peers waiting in the exchange must unwind through poison, long
        // before the receive deadline
        let start = Instant::now();
        let threaded = program(
            &mut ThreadedMachine::new(tiny(4), vec![0; 4]).with_timeout(Duration::from_secs(20)),
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "failure must propagate promptly, took {:?}",
            start.elapsed()
        );
        for err in [&modeled, &threaded] {
            assert_eq!(err.phase, Some(PhaseKind::Redistribute));
            assert_eq!(err.superstep, Some(1));
            match &err.cause {
                crate::error::FailureCause::Panic(msg) => {
                    assert_eq!(msg, "extract exploded on rank 2")
                }
                other => panic!("expected Panic cause, got {other:?}"),
            }
        }
    }
}
