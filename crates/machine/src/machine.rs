//! The BSP engine: supersteps and collectives over rank-local states.
//!
//! A superstep is `compute -> route -> deliver -> barrier`:
//!
//! 1. every rank runs the *compute* closure against its own state,
//!    charging abstract op units and enqueueing typed messages;
//! 2. the router groups messages by destination (sender order preserved,
//!    so results never depend on execution order);
//! 3. every rank runs the *deliver* closure over its inbox;
//! 4. clocks synchronize to the slowest rank — idle time is charged to
//!    the communication component, which is exactly how load imbalance
//!    shows up as "overhead" in the paper's Figures 21/22.
//!
//! Self-messages are delivered but cost nothing, matching the paper's
//! machine model where only *off-processor* accesses pay τ/μ.
//!
//! Collectives compute their result directly over the state vector and
//! charge the modeled cost.  The paper's algorithms need global
//! concatenation (line 1 of `Bucket_incremental_sorting`, to gather all
//! ranks' bucket boundaries); under the two-level model a
//! recursive-doubling implementation costs each rank
//! `stages * tau + (p - 1) * share_bytes * mu`, with `stages = ⌈log2 p⌉`.
//!
//! Ranks run on a persistent pool of `min(ranks, PIC_HOST_THREADS)` host
//! workers, the calling thread among them, each owning a fixed contiguous
//! chunk of ranks; outputs are reassembled in rank order, so the pool
//! width never changes results.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::clock::Clock;
use crate::config::MachineConfig;
use crate::engine::SpmdEngine;
use crate::error::{FailureCause, SpmdError};
use crate::payload::Payload;
use crate::pool::{host_width, WorkerPool};
use crate::record::{Accounting, CollectiveShape, Instruments, RankEntry, SuperstepRecord};
use crate::stats::{PhaseKind, StatsLog};

/// Per-rank, per-superstep accounting handed to the phase closures.
#[derive(Debug, Default)]
pub struct PhaseCtx {
    ops: f64,
}

impl PhaseCtx {
    /// Charge `units` abstract op units of local computation (converted to
    /// seconds via the machine's δ).
    #[inline]
    pub fn charge_ops(&mut self, units: f64) {
        debug_assert!(units >= 0.0, "negative op charge {units}");
        self.ops += units;
    }

    /// Units charged so far this superstep.
    #[inline]
    pub fn ops(&self) -> f64 {
        self.ops
    }
}

/// Message staging area for one rank during the compute half-step.
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<(usize, M)>,
    ranks: usize,
}

impl<M: Payload> Outbox<M> {
    pub(crate) fn new(ranks: usize) -> Self {
        Self {
            msgs: Vec::new(),
            ranks,
        }
    }

    /// Consume the outbox, returning the staged `(to, msg)` pairs in send
    /// order (crate-internal: executors drain it after the compute half).
    pub(crate) fn into_msgs(self) -> Vec<(usize, M)> {
        self.msgs
    }

    /// Queue `msg` for delivery to rank `to` at the end of the superstep.
    ///
    /// # Panics
    /// Panics if `to` is not a valid rank.
    #[inline]
    pub fn send(&mut self, to: usize, msg: M) {
        assert!(to < self.ranks, "destination rank {to} out of range");
        self.msgs.push((to, msg));
    }

    /// Number of messages queued so far.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// The virtual machine: configuration, rank states, clocks and statistics.
///
/// Its operations are those of [`SpmdEngine`], plus the modeled-only
/// [`Self::allreduce_elementwise`] of the replicated-grid baseline.
pub struct Machine<S> {
    cfg: MachineConfig,
    states: Vec<S>,
    clocks: Vec<Clock>,
    /// Statistics log, installed instruments, operation index, fault
    /// epoch and the operation record.  The modeled machine has no real
    /// wires: of an installed fault plan, only the kill faults apply.
    acct: Accounting,
    /// Most host workers to run ranks on.
    width: usize,
    /// One worker per chunk of ranks, started on first use.
    pool: Option<WorkerPool>,
    /// The router's per-destination message counts, reused across
    /// supersteps.
    inbox_sizes: Vec<usize>,
}

impl<S: Send> Machine<S> {
    /// Build a machine whose rank `r` starts with `states[r]`.  Its rank
    /// closures run on `min(ranks, PIC_HOST_THREADS)` host workers (the
    /// visible core count when the variable is unset).
    ///
    /// # Panics
    /// Panics if `cfg.ranks == 0` or `states.len() != cfg.ranks`.
    pub fn new(cfg: MachineConfig, states: Vec<S>) -> Self {
        Self::with_width(cfg, states, host_width())
    }

    /// [`Self::new`] on a pool of at most `width` host workers.
    pub(crate) fn with_width(cfg: MachineConfig, states: Vec<S>, width: usize) -> Self {
        assert!(cfg.ranks > 0, "machine needs at least one rank");
        assert_eq!(
            states.len(),
            cfg.ranks,
            "state count {} != configured ranks {}",
            states.len(),
            cfg.ranks
        );
        let clocks = vec![Clock::default(); cfg.ranks];
        Self {
            cfg,
            states,
            clocks,
            acct: Accounting::new(false),
            width,
            pool: None,
            inbox_sizes: Vec::new(),
        }
    }

    /// Per-rank clocks (all equal after every operation).
    pub fn clocks(&self) -> &[Clock] {
        &self.clocks
    }

    /// Computation component of [`SpmdEngine::elapsed_s`]: the largest
    /// rank's modeled compute seconds.
    pub fn compute_s(&self) -> f64 {
        self.clocks.iter().map(|c| c.compute_s).fold(0.0, f64::max)
    }

    /// Element-wise all-reduce of a per-rank array (the replicated
    /// mesh's current grids in the Lubeck & Faber baseline): every rank
    /// contributes a vector, all receive the element-wise fold, applied
    /// in rank order.  Each rank is charged
    /// `stages * (tau + share_bytes * mu)` — a pipelined tree reduction
    /// over the whole array, the dominant cost of the replicated-grid
    /// method at scale.
    ///
    /// Fails like the [`SpmdEngine`] operations; ranks contributing
    /// arrays of different lengths fail it with a panic cause.
    pub fn allreduce_elementwise<T, F, R, G>(
        &mut self,
        phase: PhaseKind,
        share_bytes: usize,
        extract: F,
        reduce: R,
        apply: G,
    ) -> Result<(), SpmdError>
    where
        F: Fn(usize, &S) -> Vec<T>,
        R: Fn(&T, &T) -> T,
        G: Fn(usize, &mut S, &[T]),
    {
        self.guarded(phase, |m| {
            let mut it = m.states.iter().enumerate().map(|(r, s)| extract(r, s));
            let mut acc = it.next().expect("machine has at least one rank");
            for v in it {
                assert_eq!(v.len(), acc.len(), "ragged allreduce contributions");
                for (a, b) in acc.iter_mut().zip(&v) {
                    *a = reduce(a, b);
                }
            }
            for (r, s) in m.states.iter_mut().enumerate() {
                apply(r, s, &acc);
            }
            m.charge_collective(phase, CollectiveShape::Pipelined, share_bytes);
        })
    }

    /// Run one operation: fail first if a kill fault strikes any rank
    /// now, and turn a panic inside `op` into a typed error carrying the
    /// phase, operation index and fault epoch.
    fn guarded(&mut self, phase: PhaseKind, op: impl FnOnce(&mut Self)) -> Result<(), SpmdError> {
        let (step, epoch) = (self.acct.superstep, self.acct.epoch);
        if let Some(plan) = &self.acct.instruments.fault_plan {
            if let Some(r) = (0..self.cfg.ranks).find(|&r| plan.consume_kill(r, epoch, phase)) {
                let cause = FailureCause::Killed { epoch };
                return Err(SpmdError::on_rank(r, cause).in_phase(phase, step, epoch));
            }
        }
        catch_unwind(AssertUnwindSafe(|| op(self)))
            .map_err(|p| SpmdError::from_panic_payload(p).in_phase(phase, step, epoch))
    }

    /// Charge every rank for a collective moving `share_bytes` per rank
    /// in `shape`, synchronize the clocks and account the operation.
    fn charge_collective(&mut self, phase: PhaseKind, shape: CollectiveShape, share_bytes: usize) {
        let cfg = self.cfg;
        let p = cfg.ranks;
        let stages = cfg.collective_stages() as f64;
        let comm = match shape {
            _ if p == 1 => 0.0,
            CollectiveShape::Doubling => stages * cfg.tau + ((p - 1) * share_bytes) as f64 * cfg.mu,
            CollectiveShape::Pipelined => cfg.collective_cost(share_bytes),
        };
        let start = self.elapsed_s();
        for c in &mut self.clocks {
            c.advance_comm(comm);
        }
        self.acct
            .begin(phase, start)
            .set_collective(&cfg, shape, share_bytes, comm);
        self.acct.commit();
    }
}

impl<S: Send> SpmdEngine<S> for Machine<S> {
    fn build(cfg: MachineConfig, states: Vec<S>) -> Self {
        Machine::new(cfg, states)
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

    /// Modeled elapsed time: the slowest rank's total.
    fn elapsed_s(&self) -> f64 {
        self.clocks.iter().map(Clock::total_s).fold(0.0, f64::max)
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
        self.guarded(phase, |m| {
            let (p, width) = (m.cfg.ranks, m.width);
            let pool = m.pool.get_or_insert_with(|| WorkerPool::chunked(p, width));

            // --- compute half-step ---------------------------------------------
            let outputs: Vec<(Vec<(usize, M)>, f64)> =
                pool.map_chunks(&mut m.states, vec![(); p], &|r, s, ()| {
                    let mut ctx = PhaseCtx::default();
                    let mut outbox = Outbox::new(p);
                    compute(r, s, &mut ctx, &mut outbox);
                    (outbox.msgs, ctx.ops)
                });

            // --- route ---------------------------------------------------------
            // Per-pair tallies for the metrics comm matrix are only collected
            // when a registry is installed.  The router sees both ends of
            // every transfer, so it logs the sender and the receiver side.
            let log_pairs = m.acct.instruments.metrics.is_some();
            let start = m.clocks.first().map_or(0.0, Clock::total_s);
            let rec = m.acct.begin(phase, start);
            rec.ranks.resize(p, RankEntry::default());
            // each inbox is allocated once, at its final size
            m.inbox_sizes.clear();
            m.inbox_sizes.resize(p, 0);
            for (to, _) in outputs.iter().flat_map(|(msgs, _)| msgs) {
                m.inbox_sizes[*to] += 1;
            }
            let mut inboxes: Vec<Vec<(usize, M)>> = m
                .inbox_sizes
                .iter()
                .map(|&n| Vec::with_capacity(n))
                .collect();
            for (from, (msgs, ops)) in outputs.into_iter().enumerate() {
                // op units until `settle` charges them
                rec.ranks[from].compute_s = ops;
                for (to, msg) in msgs {
                    if to != from {
                        let bytes = msg.size_bytes() as u64;
                        rec.ranks[from].msgs_sent += 1;
                        rec.ranks[from].bytes_sent += bytes;
                        rec.ranks[to].msgs_recv += 1;
                        rec.ranks[to].bytes_recv += bytes;
                        if log_pairs {
                            rec.sent_pairs.push((from, to, bytes));
                            rec.recv_pairs.push((from, to, bytes));
                        }
                    }
                    inboxes[to].push((from, msg));
                }
            }

            // --- deliver half-step ---------------------------------------------
            let deliver_ops = pool.map_chunks(&mut m.states, inboxes, &|r, s, inbox| {
                let mut ctx = PhaseCtx::default();
                deliver(r, s, &mut ctx, inbox);
                ctx.ops
            });
            for (e, ops) in rec.ranks.iter_mut().zip(deliver_ops) {
                e.compute_s += ops;
            }
            settle(&m.cfg, &mut m.clocks, rec, start);
            m.acct.commit();
        })
    }

    /// Accounted exactly like a [`Self::superstep`] that sends nothing,
    /// without dispatching an empty deliver half.
    fn local_step<F>(&mut self, phase: PhaseKind, compute: F) -> Result<(), SpmdError>
    where
        F: Fn(usize, &mut S, &mut PhaseCtx) + Sync,
    {
        self.guarded(phase, |m| {
            let (p, width) = (m.cfg.ranks, m.width);
            let pool = m.pool.get_or_insert_with(|| WorkerPool::chunked(p, width));
            let ops = pool.map_chunks(&mut m.states, vec![(); p], &|r, s, ()| {
                let mut ctx = PhaseCtx::default();
                compute(r, s, &mut ctx);
                ctx.ops
            });
            let start = m.clocks.first().map_or(0.0, Clock::total_s);
            let rec = m.acct.begin(phase, start);
            rec.ranks.extend(ops.into_iter().map(|ops| RankEntry {
                compute_s: ops,
                ..RankEntry::default()
            }));
            settle(&m.cfg, &mut m.clocks, rec, start);
            m.acct.commit();
        })
    }

    /// The modeled share is the largest contribution: recursive doubling
    /// is bottlenecked by it.
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
            let parts: Vec<Vec<T>> = m
                .states
                .iter()
                .enumerate()
                .map(|(r, s)| extract(r, s))
                .collect();
            let max_share = parts.iter().map(Vec::len).max().unwrap_or(0);
            let concat: Vec<T> = parts.into_iter().flatten().collect();
            for (r, s) in m.states.iter_mut().enumerate() {
                apply(r, s, &concat);
            }
            m.charge_collective(phase, CollectiveShape::Doubling, max_share * bytes_per_item);
        })
    }

    fn inspect<T, F>(&mut self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &S) -> T + Sync,
    {
        let (p, width) = (self.cfg.ranks, self.width);
        let pool = self
            .pool
            .get_or_insert_with(|| WorkerPool::chunked(p, width));
        pool.map_chunks(&mut self.states, vec![(); p], &|r, s, ()| f(r, s))
    }
}

/// Charge a superstep: convert every rank's op units (held in
/// `compute_s` on entry) and its off-rank traffic into seconds, advance
/// the clocks, and synchronize them to the slowest rank at the barrier.
fn settle(cfg: &MachineConfig, clocks: &mut [Clock], rec: &mut SuperstepRecord, start: f64) {
    for (e, clock) in rec.ranks.iter_mut().zip(clocks.iter_mut()) {
        e.compute_s = cfg.compute_cost(e.compute_s);
        e.comm_s = e.msgs_sent as f64 * cfg.tau
            + e.bytes_sent as f64 * cfg.mu
            + e.msgs_recv as f64 * cfg.tau
            + e.bytes_recv as f64 * cfg.mu;
        clock.advance_compute(e.compute_s);
        clock.advance_comm(e.comm_s);
    }
    rec.elapsed_s = clocks.iter().map(Clock::total_s).fold(0.0, f64::max) - start;
    let barrier = start + rec.elapsed_s;
    for c in clocks {
        c.sync_to(barrier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(p: usize) -> MachineConfig {
        MachineConfig {
            ranks: p,
            tau: 1.0,
            mu: 0.1,
            delta: 0.01,
        }
    }

    #[test]
    #[should_panic(expected = "machine needs at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Machine::<()>::new(tiny(0), Vec::new());
    }

    #[test]
    fn ring_exchange_delivers_in_sender_order() {
        let mut m = Machine::new(tiny(4), vec![Vec::<usize>::new(); 4]);
        m.superstep(
            PhaseKind::Other,
            |r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| {
                // everyone sends to rank 0
                ob.send(0, vec![r as u64]);
            },
            |_r, s, _ctx, inbox| {
                for (from, _msg) in inbox {
                    s.push(from);
                }
            },
        )
        .expect("superstep");
        assert_eq!(m.ranks()[0], vec![0, 1, 2, 3]);
        assert!(m.ranks()[1].is_empty());
    }

    #[test]
    fn self_messages_are_free() {
        let mut m = Machine::new(tiny(2), vec![0u64; 2]);
        m.superstep(
            PhaseKind::Other,
            |r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| ob.send(r, vec![1, 2, 3]),
            |_r, s, _ctx, inbox| *s += inbox.len() as u64,
        )
        .expect("superstep");
        let rec = m.stats().records()[0];
        assert_eq!(rec.total_msgs, 0);
        assert_eq!(rec.total_bytes, 0);
        assert_eq!(rec.elapsed_s, 0.0);
        assert_eq!(m.ranks(), &[1, 1]);
    }

    #[test]
    fn off_rank_message_costs_tau_plus_mu() {
        let mut m = Machine::new(tiny(2), vec![(); 2]);
        m.superstep(
            PhaseKind::Scatter,
            |r, _s, _ctx, ob: &mut Outbox<Vec<f64>>| {
                if r == 0 {
                    ob.send(1, vec![0.0; 10]); // 80 bytes
                }
            },
            |_, _, _, _| {},
        )
        .expect("superstep");
        let rec = m.stats().records()[0];
        assert_eq!(rec.max_bytes_sent, 80);
        assert_eq!(rec.max_msgs_sent, 1);
        assert_eq!(rec.max_msgs_recv, 1);
        // sender pays tau + 80 mu = 1 + 8; receiver the same; elapsed is
        // the max single-rank cost, i.e. 9.
        assert!((rec.elapsed_s - 9.0).abs() < 1e-12, "{}", rec.elapsed_s);
        // both clocks synced to the barrier
        assert!((m.clocks()[0].total_s() - 9.0).abs() < 1e-12);
        assert!((m.clocks()[1].total_s() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn compute_ops_charged_via_delta() {
        let mut m = Machine::new(tiny(2), vec![(); 2]);
        m.local_step(PhaseKind::Push, |r, _s, ctx| {
            ctx.charge_ops(if r == 0 { 100.0 } else { 300.0 });
        })
        .expect("local step");
        // slowest rank: 300 * 0.01 = 3.0
        assert!((m.elapsed_s() - 3.0).abs() < 1e-12);
        let rec = m.stats().records()[0];
        assert!((rec.max_compute_s - 3.0).abs() < 1e-12);
        // rank 0 idled 2.0s, charged to comm by the barrier
        assert!((m.clocks()[0].comm_s - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "state count")]
    fn state_count_mismatch_panics() {
        let _ = Machine::new(tiny(3), vec![(); 2]);
    }

    #[test]
    fn stats_track_max_over_ranks() {
        let mut m = Machine::new(tiny(3), vec![(); 3]);
        m.superstep(
            PhaseKind::Scatter,
            |r, _s, _ctx, ob: &mut Outbox<Vec<u8>>| {
                // rank 2 sends the most
                for _ in 0..=r {
                    ob.send((r + 1) % 3, vec![0u8; 4]);
                }
            },
            |_, _, _, _| {},
        )
        .expect("superstep");
        let rec = m.stats().records()[0];
        assert_eq!(rec.max_msgs_sent, 3);
        assert_eq!(rec.max_bytes_sent, 12);
        assert_eq!(rec.total_msgs, 6);
        assert_eq!(rec.total_bytes, 24);
    }

    #[test]
    fn allgather_distributes_all_values() {
        let mut m = Machine::new(tiny(4), vec![(0u64, Vec::new()); 4]);
        m.allgatherv(
            PhaseKind::Setup,
            8,
            |r, _s| vec![r as u64 * 10],
            |_r, s, all: &[u64]| s.1 = all.to_vec(),
        )
        .expect("allgatherv");
        for (_v, all) in m.ranks() {
            assert_eq!(all, &[0, 10, 20, 30]);
        }
        // log2(4)=2 stages * tau + 3 ranks * 8B * mu = 2 + 2.4
        assert!((m.elapsed_s() - 4.4).abs() < 1e-12, "{}", m.elapsed_s());
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order() {
        let mut m = Machine::new(tiny(3), vec![Vec::<u32>::new(); 3]);
        m.allgatherv(
            PhaseKind::Setup,
            4,
            |r, _s| vec![r as u32; r + 1],
            |_r, s, concat: &[u32]| *s = concat.to_vec(),
        )
        .expect("allgatherv");
        assert_eq!(m.ranks()[0], vec![0, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn allreduce_elementwise_folds_over_all_ranks() {
        let mut m = Machine::new(tiny(4), vec![0.0f64; 4]);
        for (r, s) in m.ranks_mut().iter_mut().enumerate() {
            *s = r as f64 + 1.0;
        }
        m.allreduce_elementwise(
            PhaseKind::Other,
            8,
            |_r, s| vec![*s],
            |a, b| a.max(*b),
            |_r, s, max| *s = max[0],
        )
        .expect("allreduce_elementwise");
        assert!(m.ranks().iter().all(|&v| v == 4.0));
        // ragged contributions fail the operation instead of the caller
        let err = m
            .allreduce_elementwise(
                PhaseKind::Scatter,
                8,
                |r, s| vec![*s; r],
                |a, b| a + b,
                |_r, _s, _acc| {},
            )
            .expect_err("ragged contributions must fail");
        assert_eq!(
            (err.phase, err.superstep),
            (Some(PhaseKind::Scatter), Some(1))
        );
        assert!(matches!(&err.cause, FailureCause::Panic(msg) if msg.contains("ragged")));
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let mut m = Machine::new(tiny(1), vec![0u64]);
        m.allgatherv(
            PhaseKind::Setup,
            8,
            |_r, s| vec![*s],
            |_r, _s, _all: &[u64]| {},
        )
        .expect("allgatherv");
        assert_eq!(m.elapsed_s(), 0.0);
    }

    /// Rank states, clocks and `StatsLog` rows, every float as its bits.
    type Observed = (Vec<(u64, u64)>, Vec<u64>, Vec<[u64; 10]>);

    /// A phase program touching every operation: uneven fan-out with
    /// self-messages, charged ops in both halves, a local step, a
    /// one-value and a ragged concatenation and the element-wise
    /// all-reduce.  Returns everything an observer can see.
    fn mixed_program(m: &mut Machine<(u64, f64)>) -> Observed {
        let p = m.num_ranks();
        for step in 0..3u64 {
            m.superstep(
                PhaseKind::Scatter,
                |r, s, ctx, ob: &mut Outbox<Vec<u64>>| {
                    ctx.charge_ops((r % 7) as f64 * 1.5 + step as f64);
                    for k in 0..(r * 5 + step as usize) % 4 {
                        ob.send((r * r + k * 11 + step as usize) % p, vec![s.0; k + 1]);
                    }
                    ob.send(r, vec![s.0, step]);
                },
                |_r, s, ctx, inbox| {
                    ctx.charge_ops(inbox.len() as f64 * 0.25);
                    for (from, msg) in inbox {
                        s.0 = s.0.wrapping_mul(31).wrapping_add(from as u64 ^ msg[0]);
                        s.1 += msg.len() as f64 / (from as f64 + 1.0);
                    }
                },
            )
            .expect("superstep");
            m.local_step(PhaseKind::Push, |r, s, ctx| {
                ctx.charge_ops(s.1.fract() * 100.0 + r as f64);
                s.1 = s.1.sqrt() + 0.1;
            })
            .expect("local step");
            m.allgatherv(
                PhaseKind::Setup,
                8,
                |_r, s| vec![s.0],
                |r, s, all: &[u64]| s.0 ^= all[(r + 1) % all.len()],
            )
            .expect("allgatherv");
            m.allgatherv(
                PhaseKind::Setup,
                8,
                |r, s| vec![s.1; r % 3],
                |_r, s, concat: &[f64]| s.1 += concat.iter().sum::<f64>() * 1e-3,
            )
            .expect("allgatherv");
            m.allreduce_elementwise(
                PhaseKind::FieldSolve,
                16,
                |r, s| vec![s.1, r as f64],
                |a, b| a + b,
                |_r, s, acc| s.1 += acc[0] * 1e-9,
            )
            .expect("allreduce_elementwise");
        }
        let states = m.ranks().iter().map(|s| (s.0, s.1.to_bits())).collect();
        let clocks = m
            .clocks()
            .iter()
            .flat_map(|c| [c.compute_s.to_bits(), c.comm_s.to_bits()])
            .collect();
        let rows = m
            .stats()
            .records()
            .iter()
            .map(|r| {
                [
                    r.phase as u64,
                    r.max_msgs_sent,
                    r.max_msgs_recv,
                    r.max_bytes_sent,
                    r.max_bytes_recv,
                    r.total_msgs,
                    r.total_bytes,
                    r.max_compute_s.to_bits(),
                    r.max_comm_s.to_bits(),
                    r.elapsed_s.to_bits(),
                ]
            })
            .collect();
        (states, clocks, rows)
    }

    #[test]
    fn pool_width_never_changes_results() {
        let run = |width| {
            let states = (0..32u64).map(|r| (r * 7 + 1, r as f64 * 0.37)).collect();
            mixed_program(&mut Machine::with_width(tiny(32), states, width))
        };
        let sequential = run(1);
        // 3 and 5 do not divide 32: the last chunk is short
        for width in [2, 3, 5, 32] {
            assert!(run(width) == sequential, "width {width} diverged");
        }
    }

    proptest::proptest! {
        /// Any pool width agrees bit-for-bit with the one-worker pool on
        /// arbitrary communication patterns.
        #[test]
        fn pool_widths_agree_on_any_pattern(
            p in 1usize..12,
            width in 2usize..12,
            pattern in proptest::prop::collection::vec(0u8..6, 1..12),
        ) {
            let mut pattern = pattern;
            pattern.resize(p, 1);
            let run = |width| {
                let mut m = Machine::with_width(tiny(p), vec![0u64; p], width);
                m.superstep(
                    PhaseKind::Other,
                    |r, _s, ctx, ob: &mut Outbox<Vec<u64>>| {
                        ctx.charge_ops(r as f64);
                        for k in 0..pattern[r] {
                            ob.send((r + 1 + k as usize * 7) % p, vec![r as u64, k as u64]);
                        }
                    },
                    |_r, s, _ctx, inbox| {
                        for (from, msg) in inbox {
                            *s = s.wrapping_mul(31).wrapping_add(from as u64).wrapping_add(msg[1]);
                        }
                    },
                )
                .expect("superstep");
                (m.ranks().to_vec(), m.elapsed_s().to_bits())
            };
            proptest::prop_assert_eq!(run(1), run(width));
        }
    }

    #[test]
    fn pool_survives_a_failed_operation() {
        // four chunks of eight ranks; rank 27 sits in the last one
        let mut m = Machine::with_width(tiny(32), vec![0u64; 32], 4);
        m.local_step(PhaseKind::Other, |_r, s, _ctx| *s += 1)
            .expect("fault-free step");
        let err = m
            .superstep(
                PhaseKind::Gather,
                |r, _s, _ctx, _ob: &mut Outbox<Vec<u64>>| {
                    if r == 27 {
                        panic!("transient failure on rank {r}");
                    }
                },
                |_, _, _, _| {},
            )
            .expect_err("rank 27 must fail the superstep");
        assert_eq!(err.phase, Some(PhaseKind::Gather));
        assert_eq!(err.superstep, Some(1));
        match &err.cause {
            FailureCause::Panic(msg) => assert_eq!(msg, "transient failure on rank 27"),
            other => panic!("expected Panic cause, got {other:?}"),
        }
        // the persistent workers must still serve subsequent operations
        m.superstep(
            PhaseKind::Gather,
            |r, s, _ctx, ob: &mut Outbox<Vec<u64>>| {
                ob.send((r + 1) % 32, vec![r as u64]);
                *s += 1;
            },
            |_r, s, _ctx, inbox| {
                for (_, msg) in inbox {
                    *s += msg[0];
                }
            },
        )
        .expect("pool must recover after a failed operation");
        let expect: Vec<u64> = (0..32).map(|r| 2 + (r + 31) % 32).collect();
        assert_eq!(m.ranks(), &expect[..]);
    }

    #[test]
    fn rank_chunks_persist_across_operations() {
        use std::thread::{self, ThreadId};
        // 10 ranks on width 4: chunks of 3, 3, 3 and 1
        let mut m = Machine::with_width(tiny(10), vec![Vec::<ThreadId>::new(); 10], 4);
        for _ in 0..3 {
            m.local_step(PhaseKind::Other, |_r, s, _ctx| {
                s.push(thread::current().id())
            })
            .expect("local step");
            m.superstep(
                PhaseKind::Other,
                |_r, s, _ctx, _ob: &mut Outbox<Vec<u8>>| s.push(thread::current().id()),
                |_r, s, _ctx, _inbox| s.push(thread::current().id()),
            )
            .expect("superstep");
        }
        let ids: Vec<ThreadId> = m.ranks().iter().map(|s| s[0]).collect();
        for (r, s) in m.ranks().iter().enumerate() {
            assert_eq!(s.len(), 9);
            assert!(s.iter().all(|id| *id == ids[r]), "rank {r} migrated");
            // the first chunk runs on the calling thread
            assert_eq!(ids[r] == thread::current().id(), r < 3, "rank {r}");
        }
        assert!(ids[3] != ids[6] && ids[6] != ids[9] && ids[3] != ids[9]);
    }

    #[test]
    fn machines_join_their_workers_on_drop() {
        for _ in 0..100 {
            let mut m = Machine::with_width(tiny(8), vec![0u64; 8], 4);
            m.local_step(PhaseKind::Other, |r, s, _ctx| *s = r as u64)
                .expect("local step");
            let workers = m.pool.as_ref().expect("pool started").liveness();
            drop(m);
            assert!(workers.upgrade().is_none(), "a worker outlived its machine");
        }
    }
}
