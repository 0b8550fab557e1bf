//! Rank-to-rank channels for the real-threads executor.
//!
//! The BSP [`crate::Machine`] *models* communication; this module
//! *performs* it for [`crate::ThreadedMachine`]: every operation hands
//! each rank a [`Mailbox`] of channels to every peer, demonstrating that
//! the superstep protocol maps one-to-one onto genuine message passing
//! (the role MPI played for the paper).
//!
//! ## One wire protocol
//!
//! [`Mailbox`] has one communication operation, the all-to-many
//! [`Mailbox::exchange`]: every rank sends every rank, itself included,
//! one batch wire — possibly empty, which doubles as the "nothing from
//! me" handshake.  It carries both of the paper's kinds of
//! communication: the engine's global concatenation is an exchange in
//! which every rank sends its contribution to every rank.  Mailboxes are
//! fresh for every operation and an operation runs at most one exchange,
//! so every batch a rank receives belongs to its current exchange.  No
//! barrier is needed: the worker pool's completion wait already
//! synchronizes all ranks after every operation.
//!
//! ## Failure semantics
//!
//! A failing rank must not leave peers blocked in a receive forever
//! (every mailbox holds a clone of every sender — including its own — so
//! channels never close on their own).  Three mechanisms bound every run:
//!
//! * **poison propagation** — each rank thread runs its program under
//!   `catch_unwind`; on failure it broadcasts a poison message to every
//!   rank before exiting, and any rank that receives poison unwinds in
//!   turn, so the whole operation collapses promptly and the engine
//!   returns the *root* cause as a typed [`SpmdError`];
//! * **retry with exponential backoff** — a blocking receive waits in
//!   slices starting at [`RETRY_INITIAL_BACKOFF`] and doubling up to
//!   [`RETRY_MAX_BACKOFF`]; each expired slice retransmits any messages
//!   this rank still owes its peers (see fault injection below), so
//!   transiently lost messages recover without aborting the run;
//! * **receive deadline** — when the cumulative wait exceeds the engine's
//!   timeout (default [`DEFAULT_RECV_TIMEOUT`]), the rank fails with a
//!   structured [`TimeoutDetail`] carrying expected vs received wire
//!   counts and per-rank in-flight counts, instead of hanging the
//!   process.
//!
//! ## Fault injection
//!
//! A [`Mailbox`] optionally carries a [`FaultSession`] (one rank's view of
//! a seeded [`crate::FaultPlan`]).  Benign faults act at
//! the wire level — a delayed send sleeps, a reordered exchange visits
//! destinations in a scrambled order, a dropped message is parked in a
//! per-destination *lost queue* (everything later addressed to the same
//! destination queues behind it, preserving per-destination FIFO) and
//! retransmitted by the backoff loop or at operation exit.  Kill faults
//! abort the rank at its next mailbox operation with a typed
//! `Killed` failure.  Correct runs produce bit-identical results under
//! any benign plan; the chaos suite asserts this.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::panic_any;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::Duration;

use crate::error::{FailureCause, RankFailure, SpmdError, TimeoutDetail};
use crate::fault::{FaultSession, SendFault};

/// Default cumulative per-receive deadline before a run is declared
/// deadlocked.
pub(crate) const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// First wait slice of the receive retry loop; each expiry retransmits
/// this rank's lost-queue contents and doubles the slice.
pub(crate) const RETRY_INITIAL_BACKOFF: Duration = Duration::from_millis(2);

/// Upper bound of the exponential backoff between retransmissions.
pub(crate) const RETRY_MAX_BACKOFF: Duration = Duration::from_millis(256);

/// Panic payload used when a rank aborts because a *peer* failed.  The
/// engine filters these out so the root cause is what callers see.
pub(crate) struct PoisonedBy(pub(crate) usize);

/// What travels on the wire between rank threads.
pub(crate) enum Wire<M> {
    /// Everything one rank sends this destination in the exchange, in
    /// send order (possibly empty — the empty batch doubles as the
    /// "nothing from me" handshake).  One wire per rank pair keeps the
    /// wakeup count of an exchange at `p` per rank, where a
    /// count-then-stream protocol would wake a blocked receiver once per
    /// message — painful when ranks outnumber host cores.
    Batch(Vec<M>),
    /// The sending rank failed; receivers must unwind.
    Poison,
}

/// Handle to the channels of one rank inside one engine operation.
pub(crate) struct Mailbox<M> {
    rank: usize,
    senders: Vec<Sender<(usize, Wire<M>)>>,
    receiver: Receiver<(usize, Wire<M>)>,
    /// Per-destination queues of wires withheld by an injected drop
    /// fault.  Everything later addressed to a stalled destination queues
    /// behind the dropped wire so per-destination FIFO survives the
    /// retransmission.
    lost: Vec<VecDeque<Wire<M>>>,
    timeout: Duration,
    fault: Option<FaultSession>,
}

/// Build the `p` connected mailboxes of one operation.
pub(crate) fn make_mailboxes<M>(p: usize, timeout: Duration) -> Vec<Mailbox<M>> {
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| Mailbox {
            rank,
            senders: senders.clone(),
            receiver,
            lost: (0..p).map(|_| VecDeque::new()).collect(),
            timeout,
            fault: None,
        })
        .collect()
}

impl<M> Mailbox<M> {
    /// Retransmit every wire withheld by a drop fault, in per-destination
    /// FIFO order.  Retransmission bypasses fault injection — a retried
    /// message is never dropped again, so delivery is guaranteed.
    fn flush_lost(&mut self) {
        for (to, queue) in self.lost.iter_mut().enumerate() {
            while let Some(wire) = queue.pop_front() {
                let _ = self.senders[to].send((self.rank, wire));
            }
        }
    }
}

impl<M> Drop for Mailbox<M> {
    fn drop(&mut self) {
        // A program may end right after a send that a fault withheld;
        // peers are still waiting on it, so the last flush happens here.
        self.flush_lost();
    }
}

impl<M: Send> Mailbox<M> {
    /// Total number of ranks.
    pub(crate) fn num_ranks(&self) -> usize {
        self.senders.len()
    }

    /// Clones of every rank's sender (for poison broadcasting by the
    /// thread wrapper, which outlives the mailbox itself).
    pub(crate) fn sender_clones(&self) -> Vec<Sender<(usize, Wire<M>)>> {
        self.senders.clone()
    }

    /// Attach one rank's fault-plan session for this operation.
    pub(crate) fn set_fault(&mut self, session: Option<FaultSession>) {
        self.fault = session;
    }

    /// Abort the rank if a kill fault is armed for it right now.
    /// `pub(crate)` so the engine's communication-free `local_step` can
    /// honor kill faults without paying for an (empty) exchange.
    pub(crate) fn check_kill(&self) {
        if let Some(fault) = &self.fault {
            if fault.should_kill() {
                panic_any(RankFailure::Killed {
                    rank: self.rank,
                    epoch: fault.epoch(),
                });
            }
        }
    }

    fn push_wire(&mut self, to: usize, wire: Wire<M>) {
        assert!(
            to < self.senders.len(),
            "destination rank {to} out of range"
        );
        if !self.lost[to].is_empty() {
            // A drop fault already stalled this destination; queue behind
            // it so per-destination FIFO survives the retransmission.
            self.lost[to].push_back(wire);
            return;
        }
        let verdict = match self.fault.as_mut() {
            Some(f) => f.on_send(),
            None => SendFault::Deliver,
        };
        match verdict {
            SendFault::Deliver => {}
            SendFault::Delay(d) => thread::sleep(d),
            SendFault::Drop => {
                self.lost[to].push_back(wire);
                return;
            }
        }
        // A closed channel means the receiving thread is gone, which only
        // happens when the run is already unwinding; drop silently so the
        // first failure stays the root cause.
        let _ = self.senders[to].send((self.rank, wire));
    }

    /// Next batch wire from any rank.  `got` holds the batches this
    /// exchange has received so far, by sender.
    ///
    /// Waits in exponentially growing slices; each expired slice
    /// retransmits this rank's lost queue (a peer may be blocked on a
    /// dropped wire of ours).  Once the cumulative wait exceeds the
    /// engine timeout, aborts the rank with a typed timeout whose
    /// [`TimeoutDetail`] counts the batches still missing in `got`.
    fn recv_batch(&mut self, got: &[Option<Vec<M>>]) -> (usize, Vec<M>) {
        let mut waited = Duration::ZERO;
        let mut backoff = RETRY_INITIAL_BACKOFF;
        loop {
            let slice = backoff.min(self.timeout.saturating_sub(waited));
            if slice.is_zero() {
                panic_any(RankFailure::Timeout {
                    rank: self.rank,
                    detail: TimeoutDetail {
                        expected: got.len(),
                        received: got.iter().filter(|g| g.is_some()).count(),
                        in_flight: got.iter().map(|g| usize::from(g.is_none())).collect(),
                        waited,
                    },
                });
            }
            match self.receiver.recv_timeout(slice) {
                Ok((from, Wire::Batch(msgs))) => return (from, msgs),
                Ok((from, Wire::Poison)) => panic_any(PoisonedBy(from)),
                Err(RecvTimeoutError::Timeout) => {
                    waited += slice;
                    self.flush_lost();
                    backoff = (backoff * 2).min(RETRY_MAX_BACKOFF);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic_any(RankFailure::Disconnected { rank: self.rank })
                }
            }
        }
    }

    /// All-to-many exchange: every rank sends every peer (including
    /// itself, round-tripping through its own channel) exactly one batch
    /// wire carrying all its messages for that destination — an empty
    /// batch doubles as the "nothing from me" handshake.  Returns the
    /// inbox sorted by sender rank with per-sender order preserved —
    /// exactly the modeled machine's delivery order (an injected reorder
    /// fault only scrambles which *destination* is served first;
    /// per-destination order is kept, so results never change).
    pub(crate) fn exchange(&mut self, outgoing: Vec<(usize, M)>) -> Vec<(usize, M)> {
        self.check_kill();
        let p = self.num_ranks();
        let mut groups: Vec<Vec<M>> = (0..p).map(|_| Vec::new()).collect();
        for (to, msg) in outgoing {
            assert!(to < p, "destination rank {to} out of range");
            groups[to].push(msg);
        }
        let order: Vec<usize> = match self.fault.as_mut() {
            Some(f) => {
                if f.reorder_exchange() {
                    f.destination_permutation(p)
                } else {
                    (0..p).collect()
                }
            }
            None => (0..p).collect(),
        };
        for &to in &order {
            let batch = std::mem::take(&mut groups[to]);
            self.push_wire(to, Wire::Batch(batch));
        }
        // collect until every peer's batch (possibly empty) has arrived
        let mut got: Vec<Option<Vec<M>>> = (0..p).map(|_| None).collect();
        while got.iter().any(Option::is_none) {
            let (from, msgs) = self.recv_batch(&got);
            assert!(
                got[from].is_none(),
                "rank {from} sent two batches in one exchange"
            );
            got[from] = Some(msgs);
        }
        self.flush_lost();
        got.into_iter()
            .enumerate()
            .flat_map(|(from, msgs)| {
                msgs.expect("all filled")
                    .into_iter()
                    .map(move |m| (from, m))
            })
            .collect()
    }
}

/// Broadcast poison to every rank (used by the engine's rank jobs on
/// failure).
pub(crate) fn poison_all<M: Send>(rank: usize, senders: &[Sender<(usize, Wire<M>)>]) {
    for tx in senders {
        let _ = tx.send((rank, Wire::Poison));
    }
}

/// Split per-rank outcomes into results or the error to surface.
///
/// When several ranks failed, the *root cause* wins: a [`PoisonedBy`]
/// payload means the rank only unwound because a peer died, so any
/// non-poison payload takes precedence regardless of rank order.  A run
/// that only saw poison (root thread died without unwinding through
/// `catch_unwind`, e.g. via abort-on-double-panic) still names the rank
/// whose poison was received.
pub(crate) fn resolve_rank_results<R>(
    outcomes: Vec<Result<R, Box<dyn Any + Send>>>,
) -> Result<Vec<R>, SpmdError> {
    let mut results = Vec::with_capacity(outcomes.len());
    let mut root: Option<Box<dyn Any + Send>> = None;
    let mut poisoned_by: Option<usize> = None;
    for outcome in outcomes {
        match outcome {
            Ok(r) => results.push(r),
            Err(e) => match e.downcast::<PoisonedBy>() {
                Ok(p) => {
                    poisoned_by.get_or_insert(p.0);
                }
                Err(e) => {
                    root.get_or_insert(e);
                }
            },
        }
    }
    match (root, poisoned_by) {
        (Some(payload), _) => Err(SpmdError::from_panic_payload(payload)),
        (None, Some(by)) => Err(SpmdError::on_rank(by, FailureCause::Poisoned { by })),
        (None, None) => Ok(results),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultNoise, FaultPlan};
    use crate::{MachineConfig, Outbox, PhaseKind, SpmdEngine, ThreadedMachine};
    use std::sync::Arc;
    use std::time::Instant;

    /// Run `program` as one operation of a `p`-rank [`ThreadedMachine`]
    /// with the given receive deadline and, optionally, a fault plan
    /// applied at fault epoch 0.
    fn run<M: Send, R: Send>(
        p: usize,
        timeout: Duration,
        plan: Option<Arc<FaultPlan>>,
        program: impl Fn(usize, Mailbox<M>) -> R + Sync,
    ) -> Result<Vec<R>, SpmdError> {
        let mut m = ThreadedMachine::new(MachineConfig::cm5(p), vec![(); p]).with_timeout(timeout);
        m.instruments_mut().fault_plan = plan;
        m.run_ranks(PhaseKind::Other, |r, _s, mb| program(r, mb))
            .map(|(results, _wall)| results)
    }

    fn run_clean<M: Send, R: Send>(
        p: usize,
        program: impl Fn(usize, Mailbox<M>) -> R + Sync,
    ) -> Vec<R> {
        run(p, DEFAULT_RECV_TIMEOUT, None, program).expect("fault-free run")
    }

    #[test]
    fn exchange_handshake_round_trips() {
        let results = run_clean::<(u64, u64), _>(6, |r, mut mb| {
            // rank r sends k = r messages, spread over peers (r+1)..(r+1+r)
            let outgoing: Vec<(usize, (u64, u64))> = (0..r)
                .map(|k| (((r + 1 + k) % mb.num_ranks()), (r as u64, k as u64)))
                .collect();
            mb.exchange(outgoing)
        });
        let total: usize = results.iter().map(Vec::len).sum();
        assert_eq!(total, (0..6).sum::<usize>());
        for inbox in &results {
            // sorted by sender, per-sender send order preserved
            assert!(inbox.windows(2).all(|w| w[0].0 <= w[1].0));
            for w in inbox.windows(2) {
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 .1 < w[1].1 .1);
                }
            }
        }
    }

    #[test]
    fn collectives_agree_with_direct_computation() {
        // each concatenation is one operation on its own mailboxes
        let mut m = ThreadedMachine::new(MachineConfig::cm5(5), vec![(vec![], vec![]); 5]);
        m.allgatherv(
            PhaseKind::Other,
            8,
            |r, _s| vec![r as u64 * 7],
            |_r, s: &mut (Vec<u64>, Vec<u64>), all| s.0 = all.to_vec(),
        )
        .expect("fault-free one-value gather");
        m.allgatherv(
            PhaseKind::Other,
            8,
            |r, _s| vec![r as u64; r],
            |_r, s, concat| s.1 = concat.to_vec(),
        )
        .expect("fault-free concatenation");
        let expect_concat: Vec<u64> = (0..5u64).flat_map(|r| vec![r; r as usize]).collect();
        for (gathered, concat) in m.ranks() {
            assert_eq!(gathered, &vec![0, 7, 14, 21, 28]);
            assert_eq!(concat, &expect_concat);
        }
    }

    #[test]
    fn panicking_rank_fails_the_run_promptly() {
        for p in [1usize, 2, 4, 8] {
            let start = Instant::now();
            let err = run::<(), ()>(p, Duration::from_secs(20), None, move |r, mut mb| {
                if r == p / 2 {
                    panic!("injected failure on rank {}", p / 2);
                }
                // everyone else waits in an exchange the failed rank never enters
                mb.exchange(Vec::new());
            })
            .expect_err("run must fail");
            match &err.cause {
                FailureCause::Panic(msg) => {
                    assert!(msg.contains("injected failure"), "p={p}: got {msg:?}")
                }
                other => panic!("p={p}: expected Panic cause, got {other:?}"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(15),
                "p={p}: failure must propagate promptly, took {:?}",
                start.elapsed()
            );
        }
    }

    #[test]
    fn deadlock_times_out_with_structured_detail() {
        let start = Instant::now();
        let err = run::<(), ()>(2, Duration::from_millis(200), None, |r, mut mb| {
            // rank 0 enters an exchange that rank 1 skips
            if r == 0 {
                mb.exchange(Vec::new());
            }
        })
        .expect_err("deadlock must fail");
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(err.is_timeout(), "got {err:?}");
        assert_eq!(err.rank, Some(0));
        let FailureCause::Timeout(detail) = &err.cause else {
            panic!("expected timeout cause");
        };
        // rank 0's own (empty) batch arrived; rank 1's never will
        assert_eq!(detail.expected, 2);
        assert_eq!(detail.received, 1);
        assert!(detail.waited >= Duration::from_millis(200));
    }

    #[test]
    fn injected_kill_names_the_rank() {
        let plan = Arc::new(FaultPlan::new(3).kill(2, 0));
        let start = Instant::now();
        let err = run::<(), ()>(8, Duration::from_secs(20), Some(plan), |_r, mut mb| {
            mb.exchange(Vec::new());
        })
        .expect_err("killed run must fail");
        assert!(err.is_injected_kill(), "got {err:?}");
        assert_eq!(err.rank, Some(2));
        assert_eq!(err.epoch, Some(0));
        assert!(start.elapsed() < Duration::from_secs(15));
    }

    #[test]
    fn dropped_messages_are_retransmitted() {
        // Every send from every rank is dropped on first attempt; the
        // backoff loop retransmits and the exchange still completes with
        // the fault-free result.
        let noisy = Arc::new(FaultPlan::new(11).with_noise(FaultNoise {
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            reorder_prob: 0.0,
            drop_prob: 1.0,
        }));
        let program = |r: usize, mut mb: Mailbox<u64>| {
            let p = mb.num_ranks();
            let outgoing: Vec<(usize, u64)> =
                (0..p).map(|to| (to, (r * 100 + to) as u64)).collect();
            mb.exchange(outgoing)
        };
        let clean = run_clean(4, program);
        let faulty = run(4, Duration::from_secs(20), Some(noisy), program)
            .expect("drops must recover via retransmission");
        assert_eq!(clean, faulty);
    }

    #[test]
    fn benign_noise_preserves_results() {
        // an exchange, then a gather of every rank's inbox sum: two
        // operations, each on its own mailboxes
        let program = |plan: Option<Arc<FaultPlan>>| {
            let states = vec![(Vec::<(usize, u64)>::new(), Vec::<u64>::new()); 6];
            let mut m = ThreadedMachine::new(MachineConfig::cm5(6), states)
                .with_timeout(Duration::from_secs(30));
            m.instruments_mut().fault_plan = plan;
            m.superstep(
                PhaseKind::Other,
                |r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| {
                    for to in 0..6 {
                        for k in 0..3 {
                            ob.send(to, vec![r as u64 * 1000 + k]);
                        }
                    }
                },
                |_r, s, _ctx, inbox| s.0 = inbox.into_iter().map(|(f, v)| (f, v[0])).collect(),
            )?;
            m.allgatherv(
                PhaseKind::Other,
                8,
                |_r, s| vec![s.0.iter().map(|(_, v)| v).sum::<u64>()],
                |_r, s, all| s.1 = all.to_vec(),
            )?;
            Ok::<_, SpmdError>(m.into_ranks())
        };
        let clean = program(None).expect("fault-free run");
        for seed in [1u64, 2, 3] {
            let noisy = program(Some(Arc::new(FaultPlan::benign(seed))))
                .expect("benign plan must not fail the run");
            assert_eq!(clean, noisy, "seed {seed} changed results");
        }
    }
}
