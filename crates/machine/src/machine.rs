//! The BSP engine: supersteps over rank-local states.
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

use crate::clock::Clock;
use crate::config::MachineConfig;
use crate::host_par;
use crate::payload::Payload;
use crate::record::{Accounting, RankEntry};
use crate::stats::{PhaseKind, StatsLog};

/// How virtual ranks are executed on the host.
///
/// Both modes produce bit-identical simulation results; `Rayon` simply
/// spreads rank loops over host cores for wall-clock speed on the big
/// parameter sweeps.  (The name is historic: the host-parallel mode now
/// runs on `std` scoped threads — see `host_par` — so the
/// workspace builds with no external dependencies.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run ranks one after another on the calling thread.
    Sequential,
    /// Run ranks across host threads, one contiguous chunk per core.
    Rayon,
}

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
pub struct Machine<S> {
    cfg: MachineConfig,
    mode: ExecMode,
    states: Vec<S>,
    pub(crate) clocks: Vec<Clock>,
    /// Statistics log, installed instruments and the operation record.
    /// The modeled machine has no real wires: of an installed fault
    /// plan, only the kill faults apply.
    pub(crate) acct: Accounting,
    /// Driver-set fault epoch (the PIC driver uses the iteration number).
    fault_epoch: u64,
    /// Operations issued through the engine trait (superstep index in
    /// error context).
    pub(crate) supersteps: u64,
}

impl<S: Send> Machine<S> {
    /// Build a machine whose rank `r` starts with `states[r]`.
    ///
    /// # Panics
    /// Panics if `states.len() != cfg.ranks`.
    pub fn new(cfg: MachineConfig, mode: ExecMode, states: Vec<S>) -> Self {
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
            mode,
            states,
            clocks,
            acct: Accounting::new(false),
            fault_epoch: 0,
            supersteps: 0,
        }
    }

    /// Advance the fault epoch (the PIC driver sets it to the iteration
    /// number so fault specs can say "at iteration 25").
    pub fn set_fault_epoch(&mut self, epoch: u64) {
        self.fault_epoch = epoch;
    }

    /// The current fault epoch.
    pub fn fault_epoch(&self) -> u64 {
        self.fault_epoch
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of virtual ranks.
    pub fn num_ranks(&self) -> usize {
        self.cfg.ranks
    }

    /// Immutable view of rank states.
    pub fn ranks(&self) -> &[S] {
        &self.states
    }

    /// Mutable view of rank states (setup only; mutation outside
    /// supersteps is not charged to any clock).
    pub fn ranks_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// Per-rank clocks (all equal after a barrier).
    pub fn clocks(&self) -> &[Clock] {
        &self.clocks
    }

    /// Modeled elapsed time: the slowest rank's total.
    pub fn elapsed_s(&self) -> f64 {
        self.clocks.iter().map(Clock::total_s).fold(0.0, f64::max)
    }

    /// Maximum compute seconds over ranks.
    pub fn compute_s(&self) -> f64 {
        self.clocks.iter().map(|c| c.compute_s).fold(0.0, f64::max)
    }

    /// Superstep statistics log.
    pub fn stats(&self) -> &StatsLog {
        &self.acct.stats
    }

    /// Mutable statistics log (the PIC driver drains it per iteration).
    pub fn stats_mut(&mut self) -> &mut StatsLog {
        &mut self.acct.stats
    }

    /// Run one superstep of `phase`.
    ///
    /// `compute` runs first on every rank and may send messages; `deliver`
    /// then runs on every rank with its inbox, sorted by sender rank.
    /// Both closures may charge op units.
    pub fn superstep<M, F, G>(&mut self, phase: PhaseKind, compute: F, deliver: G)
    where
        M: Payload,
        F: Fn(usize, &mut S, &mut PhaseCtx, &mut Outbox<M>) + Sync,
        G: Fn(usize, &mut S, &mut PhaseCtx, Vec<(usize, M)>) + Sync,
    {
        let p = self.cfg.ranks;

        // --- compute half-step -------------------------------------------------
        let run_compute = |r: usize, s: &mut S, (): ()| {
            let mut ctx = PhaseCtx::default();
            let mut outbox = Outbox::new(p);
            compute(r, s, &mut ctx, &mut outbox);
            (outbox.msgs, ctx.ops)
        };
        let outputs: Vec<(Vec<(usize, M)>, f64)> = match self.mode {
            ExecMode::Sequential => self
                .states
                .iter_mut()
                .enumerate()
                .map(|(r, s)| run_compute(r, s, ()))
                .collect(),
            ExecMode::Rayon => host_par::par_map(&mut self.states, vec![(); p], &run_compute),
        };

        // --- route -------------------------------------------------------------
        // Per-pair tallies for the metrics comm matrix are only collected
        // when a registry is installed.  The router sees both ends of
        // every transfer, so it logs the sender and the receiver side.
        let log_pairs = self.acct.instruments.metrics.is_some();
        let start = self.clocks.first().map_or(0.0, Clock::total_s);
        let rec = self.acct.begin(phase, self.fault_epoch, start);
        rec.ranks.resize(p, RankEntry::default());
        let mut inboxes: Vec<Vec<(usize, M)>> = (0..p).map(|_| Vec::new()).collect();
        for (from, (msgs, ops)) in outputs.into_iter().enumerate() {
            // op units until the clocks are charged below
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

        // --- deliver half-step -------------------------------------------------
        let deliver_ops: Vec<f64> = {
            let run_deliver = |r: usize, s: &mut S, inbox: Vec<(usize, M)>| {
                let mut ctx = PhaseCtx::default();
                deliver(r, s, &mut ctx, inbox);
                ctx.ops
            };
            match self.mode {
                ExecMode::Sequential => self
                    .states
                    .iter_mut()
                    .enumerate()
                    .zip(inboxes)
                    .map(|((r, s), inbox)| run_deliver(r, s, inbox))
                    .collect(),
                ExecMode::Rayon => host_par::par_map(&mut self.states, inboxes, &run_deliver),
            }
        };

        // --- charge clocks and barrier -----------------------------------------
        let cfg = &self.cfg;
        for ((e, clock), ops) in rec.ranks.iter_mut().zip(&mut self.clocks).zip(deliver_ops) {
            e.compute_s = cfg.compute_cost(e.compute_s + ops);
            e.comm_s = e.msgs_sent as f64 * cfg.tau
                + e.bytes_sent as f64 * cfg.mu
                + e.msgs_recv as f64 * cfg.tau
                + e.bytes_recv as f64 * cfg.mu;
            clock.advance_compute(e.compute_s);
            clock.advance_comm(e.comm_s);
        }
        rec.elapsed_s = self.clocks.iter().map(Clock::total_s).fold(0.0, f64::max) - start;
        let barrier = start + rec.elapsed_s;
        for c in &mut self.clocks {
            c.sync_to(barrier);
        }
        self.acct.commit();
    }

    /// A communication-free superstep: every rank runs `compute` locally.
    pub fn local_step<F>(&mut self, phase: PhaseKind, compute: F)
    where
        F: Fn(usize, &mut S, &mut PhaseCtx) + Sync,
    {
        self.superstep::<(), _, _>(
            phase,
            |r, s, ctx, _outbox| compute(r, s, ctx),
            |_, _, _, _| {},
        );
    }

    /// Consume the machine, returning the final rank states.
    pub fn into_ranks(self) -> Vec<S> {
        self.states
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
            topology: crate::Topology::FullyConnected,
        }
    }

    #[test]
    fn ring_exchange_delivers_in_sender_order() {
        let mut m = Machine::new(tiny(4), ExecMode::Sequential, vec![Vec::<usize>::new(); 4]);
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
        );
        assert_eq!(m.ranks()[0], vec![0, 1, 2, 3]);
        assert!(m.ranks()[1].is_empty());
    }

    #[test]
    fn self_messages_are_free() {
        let mut m = Machine::new(tiny(2), ExecMode::Sequential, vec![0u64; 2]);
        m.superstep(
            PhaseKind::Other,
            |r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| ob.send(r, vec![1, 2, 3]),
            |_r, s, _ctx, inbox| *s += inbox.len() as u64,
        );
        let rec = m.stats().records()[0];
        assert_eq!(rec.total_msgs, 0);
        assert_eq!(rec.total_bytes, 0);
        assert_eq!(rec.elapsed_s, 0.0);
        assert_eq!(m.ranks(), &[1, 1]);
    }

    #[test]
    fn off_rank_message_costs_tau_plus_mu() {
        let mut m = Machine::new(tiny(2), ExecMode::Sequential, vec![(); 2]);
        m.superstep(
            PhaseKind::Scatter,
            |r, _s, _ctx, ob: &mut Outbox<Vec<f64>>| {
                if r == 0 {
                    ob.send(1, vec![0.0; 10]); // 80 bytes
                }
            },
            |_, _, _, _| {},
        );
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
        let mut m = Machine::new(tiny(2), ExecMode::Sequential, vec![(); 2]);
        m.local_step(PhaseKind::Push, |r, _s, ctx| {
            ctx.charge_ops(if r == 0 { 100.0 } else { 300.0 });
        });
        // slowest rank: 300 * 0.01 = 3.0
        assert!((m.elapsed_s() - 3.0).abs() < 1e-12);
        let rec = m.stats().records()[0];
        assert!((rec.max_compute_s - 3.0).abs() < 1e-12);
        // rank 0 idled 2.0s, charged to comm by the barrier
        assert!((m.clocks()[0].comm_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_and_rayon_agree() {
        let run = |mode| {
            let mut m = Machine::new(tiny(8), mode, (0..8u64).collect::<Vec<_>>());
            for _ in 0..5 {
                m.superstep(
                    PhaseKind::Other,
                    |r, s, ctx, ob: &mut Outbox<Vec<u64>>| {
                        ctx.charge_ops(*s as f64);
                        ob.send((r + 3) % 8, vec![*s]);
                        ob.send((r + 5) % 8, vec![*s * 2]);
                    },
                    |_r, s, _ctx, inbox| {
                        for (from, msg) in inbox {
                            *s = s.wrapping_add(msg[0]).wrapping_mul(from as u64 | 1);
                        }
                    },
                );
            }
            (m.ranks().to_vec(), m.elapsed_s())
        };
        let (seq_states, seq_t) = run(ExecMode::Sequential);
        let (par_states, par_t) = run(ExecMode::Rayon);
        assert_eq!(seq_states, par_states);
        assert!((seq_t - par_t).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sending_to_invalid_rank_panics() {
        let mut m = Machine::new(tiny(2), ExecMode::Sequential, vec![(); 2]);
        m.superstep(
            PhaseKind::Other,
            |_r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| ob.send(7, vec![]),
            |_, _, _, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "state count")]
    fn state_count_mismatch_panics() {
        let _ = Machine::new(tiny(3), ExecMode::Sequential, vec![(); 2]);
    }

    #[test]
    fn stats_track_max_over_ranks() {
        let mut m = Machine::new(tiny(3), ExecMode::Sequential, vec![(); 3]);
        m.superstep(
            PhaseKind::Scatter,
            |r, _s, _ctx, ob: &mut Outbox<Vec<u8>>| {
                // rank 2 sends the most
                for _ in 0..=r {
                    ob.send((r + 1) % 3, vec![0u8; 4]);
                }
            },
            |_, _, _, _| {},
        );
        let rec = m.stats().records()[0];
        assert_eq!(rec.max_msgs_sent, 3);
        assert_eq!(rec.max_bytes_sent, 12);
        assert_eq!(rec.total_msgs, 6);
        assert_eq!(rec.total_bytes, 24);
    }
}
