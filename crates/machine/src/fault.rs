//! Deterministic, seeded fault injection for the SPMD executors.
//!
//! A [`FaultPlan`] describes which faults strike which rank and when.
//! Faults come in two flavours:
//!
//! * **benign** — [`FaultKind::Delay`], [`FaultKind::Reorder`] and
//!   [`FaultKind::DropRetry`] perturb *timing and wire order* only: a
//!   delayed message arrives late, a reordered exchange visits peers in a
//!   scrambled order (per-destination FIFO is preserved — the delivery
//!   contract every collective is built on), and a dropped message is
//!   retransmitted by the sender's retry/backoff loop.  A correct runtime
//!   produces **bit-identical results** under any benign plan; the chaos
//!   suite asserts exactly that.
//! * **fatal** — [`FaultKind::Kill`] aborts the rank at the start of its
//!   next mailbox operation, modeling a node death mid-superstep.  Kills
//!   are **one-shot**: after firing once they disarm, so a driver that
//!   restarts from a checkpoint does not die again at the same spot.
//!
//! When a fault fires is keyed on the **fault epoch**, an opaque counter
//! the driver advances via
//! [`SpmdEngine::set_fault_epoch`](crate::SpmdEngine::set_fault_epoch)
//! (the PIC driver sets it to the iteration number, so "kill rank 2 at
//! iteration 25" is `FaultPlan::new(seed).kill(2, 25)`).  Background
//! *noise* ([`FaultNoise`]) draws per-send faults from an RNG seeded by
//! `(plan seed, rank, epoch)` — deterministic for a given plan, varied
//! across ranks and epochs.
//!
//! The modeled BSP [`Machine`](crate::Machine) honors kills (it returns
//! the same typed error the threaded executor produces) and ignores
//! benign faults: wire timing is not part of its model.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::PhaseKind;

/// What a fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep this long before the send goes out.
    Delay(Duration),
    /// Scramble the destination visit order of the next exchange
    /// (per-destination message order is preserved).
    Reorder,
    /// Drop the message on first send; the sender's retry/backoff loop
    /// retransmits it.
    DropRetry,
    /// Abort the rank at its next mailbox operation (one-shot).
    Kill,
}

/// One scheduled fault: `kind` strikes `rank` when the current fault
/// epoch (and optionally phase) matches.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Victim rank.
    pub rank: usize,
    /// Epoch the fault is armed in; `None` = every epoch.
    pub epoch: Option<u64>,
    /// Phase the fault is armed in; `None` = every phase.
    pub phase: Option<PhaseKind>,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultSpec {
    fn matches(&self, rank: usize, epoch: u64, phase: PhaseKind) -> bool {
        self.rank == rank
            && self.epoch.map(|e| e == epoch).unwrap_or(true)
            && self.phase.map(|p| p == phase).unwrap_or(true)
    }
}

/// Background noise: per-send fault probabilities, drawn from the plan's
/// seeded RNG.  All three faults are benign; results must not change.
#[derive(Debug, Clone, Copy)]
pub struct FaultNoise {
    /// Probability a send is delayed by up to `max_delay`.
    pub delay_prob: f64,
    /// Upper bound of an injected delay.
    pub max_delay: Duration,
    /// Probability an exchange scrambles its destination visit order.
    pub reorder_prob: f64,
    /// Probability a send is dropped and left to retransmission.
    pub drop_prob: f64,
}

impl FaultNoise {
    /// Mild noise: frequent small delays, occasional reorders and drops.
    pub fn mild() -> Self {
        Self {
            delay_prob: 0.05,
            max_delay: Duration::from_micros(200),
            reorder_prob: 0.25,
            drop_prob: 0.02,
        }
    }

    /// Aggressive noise for chaos tests: most exchanges are scrambled,
    /// drops are common enough that every retry path executes.
    pub fn aggressive() -> Self {
        Self {
            delay_prob: 0.15,
            max_delay: Duration::from_micros(500),
            reorder_prob: 0.75,
            drop_prob: 0.10,
        }
    }
}

/// A deterministic, seeded fault schedule shared by every rank of a run.
///
/// Cheap to share via [`Arc`]; the kill arming state is interior so the
/// same plan object can span a checkpoint/restart cycle without
/// re-killing (see the module docs).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
    /// `fired[i]` is set once spec `i` (a kill) has struck.
    fired: Vec<AtomicBool>,
    noise: Option<FaultNoise>,
}

impl FaultPlan {
    /// An empty plan with the given noise seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            specs: Vec::new(),
            fired: Vec::new(),
            noise: None,
        }
    }

    /// Builder: add an explicit fault spec.
    #[must_use]
    pub fn with_spec(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self.fired.push(AtomicBool::new(false));
        self
    }

    /// Builder: kill `rank` at `epoch` (any phase, one-shot).
    #[must_use]
    pub fn kill(self, rank: usize, epoch: u64) -> Self {
        self.with_spec(FaultSpec {
            rank,
            epoch: Some(epoch),
            phase: None,
            kind: FaultKind::Kill,
        })
    }

    /// Builder: kill `rank` at `epoch`, but only in `phase`.
    #[must_use]
    pub fn kill_in_phase(self, rank: usize, epoch: u64, phase: PhaseKind) -> Self {
        self.with_spec(FaultSpec {
            rank,
            epoch: Some(epoch),
            phase: Some(phase),
            kind: FaultKind::Kill,
        })
    }

    /// Builder: delay every send of `rank` during `epoch` by `by`.
    #[must_use]
    pub fn delay(self, rank: usize, epoch: u64, by: Duration) -> Self {
        self.with_spec(FaultSpec {
            rank,
            epoch: Some(epoch),
            phase: None,
            kind: FaultKind::Delay(by),
        })
    }

    /// Builder: enable background noise.
    #[must_use]
    pub fn with_noise(mut self, noise: FaultNoise) -> Self {
        self.noise = Some(noise);
        self
    }

    /// A noise-only benign plan (no kills): the chaos suite's workhorse.
    pub fn benign(seed: u64) -> Self {
        Self::new(seed).with_noise(FaultNoise::aggressive())
    }

    /// Re-arm all one-shot kills (tests that reuse a plan).
    pub fn rearm(&self) {
        for f in &self.fired {
            f.store(false, Ordering::SeqCst);
        }
    }

    /// Does a kill spec strike `rank` in (`epoch`, `phase`)?  Firing
    /// consumes the spec (one-shot).
    pub fn consume_kill(&self, rank: usize, epoch: u64, phase: PhaseKind) -> bool {
        for (spec, fired) in self.specs.iter().zip(&self.fired) {
            if spec.kind == FaultKind::Kill
                && spec.matches(rank, epoch, phase)
                && !fired.swap(true, Ordering::SeqCst)
            {
                return true;
            }
        }
        false
    }

    /// The per-rank, per-epoch view a mailbox consults on every send.
    pub fn session(self: &Arc<Self>, rank: usize, epoch: u64, phase: PhaseKind) -> FaultSession {
        // SplitMix64-style mix so (seed, rank, epoch) streams are
        // uncorrelated; the phase is deliberately excluded so a phase
        // running twice in one epoch still sees fresh draws via the RNG
        // state advancing within the session.
        let mut mixed = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(rank as u64 + 1))
            .wrapping_add(0xbf58_476d_1ce4_e5b9u64.wrapping_mul(epoch + 1));
        mixed ^= mixed >> 30;
        let forced: Vec<FaultKind> = self
            .specs
            .iter()
            .filter(|s| s.kind != FaultKind::Kill && s.matches(rank, epoch, phase))
            .map(|s| s.kind)
            .collect();
        FaultSession {
            plan: Arc::clone(self),
            rank,
            epoch,
            phase,
            rng: StdRng::seed_from_u64(mixed),
            forced,
        }
    }
}

/// What the fault layer decided about one outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFault {
    /// Send normally.
    Deliver,
    /// Sleep, then send.
    Delay(Duration),
    /// Don't send; queue for retransmission.
    Drop,
}

/// One rank's live view of a [`FaultPlan`] for one fault epoch.
///
/// Created per rank and operation by the engines; holds the rank's
/// RNG stream so noise decisions are deterministic and independent of
/// thread scheduling.
#[derive(Debug)]
pub struct FaultSession {
    plan: Arc<FaultPlan>,
    rank: usize,
    epoch: u64,
    phase: PhaseKind,
    rng: StdRng,
    /// Benign specs matching this (rank, epoch, phase).
    forced: Vec<FaultKind>,
}

impl FaultSession {
    /// Decide the fate of the next outgoing message.
    pub fn on_send(&mut self) -> SendFault {
        for kind in &self.forced {
            match *kind {
                FaultKind::Delay(d) => return SendFault::Delay(d),
                FaultKind::DropRetry => return SendFault::Drop,
                _ => {}
            }
        }
        if let Some(noise) = self.plan.noise {
            // Fixed draw order keeps the stream stable regardless of
            // which probabilities are zero.
            let (d, r): (f64, f64) = (self.rng.random(), self.rng.random());
            if d < noise.drop_prob {
                return SendFault::Drop;
            }
            if r < noise.delay_prob {
                let micros = noise.max_delay.as_micros() as u64;
                let jitter = if micros > 0 {
                    self.rng.random_range(0..micros.saturating_add(1))
                } else {
                    0
                };
                return SendFault::Delay(Duration::from_micros(jitter));
            }
        }
        SendFault::Deliver
    }

    /// Should the next exchange scramble its destination visit order?
    pub fn reorder_exchange(&mut self) -> bool {
        if self.forced.contains(&FaultKind::Reorder) {
            return true;
        }
        match self.plan.noise {
            Some(noise) => self.rng.random::<f64>() < noise.reorder_prob,
            None => false,
        }
    }

    /// A destination visit permutation for `p` ranks (Fisher–Yates from
    /// the session RNG).
    pub fn destination_permutation(&mut self, p: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..p).collect();
        for i in (1..p).rev() {
            let j = self.rng.random_range(0..(i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
    }

    /// Does a kill strike now?  Consumes the one-shot spec.
    pub fn should_kill(&self) -> bool {
        self.plan.consume_kill(self.rank, self.epoch, self.phase)
    }

    /// The rank this session belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The fault epoch this session was built for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(plan: FaultPlan) -> Arc<FaultPlan> {
        Arc::new(plan)
    }

    #[test]
    fn kills_are_one_shot() {
        let plan = arc(FaultPlan::new(1).kill(2, 25));
        let s = plan.session(2, 25, PhaseKind::Scatter);
        assert!(s.should_kill());
        assert!(!s.should_kill(), "kill must disarm after firing");
        // a fresh session (the restarted run) must not die again
        let s2 = plan.session(2, 25, PhaseKind::Scatter);
        assert!(!s2.should_kill());
        plan.rearm();
        assert!(plan.session(2, 25, PhaseKind::Push).should_kill());
    }

    #[test]
    fn kill_only_strikes_matching_rank_and_epoch() {
        let plan = arc(FaultPlan::new(7).kill(3, 10));
        assert!(!plan.session(3, 9, PhaseKind::Other).should_kill());
        assert!(!plan.session(2, 10, PhaseKind::Other).should_kill());
        assert!(plan.session(3, 10, PhaseKind::Other).should_kill());
    }

    #[test]
    fn phase_scoped_kill_waits_for_its_phase() {
        let plan = arc(FaultPlan::new(7).kill_in_phase(1, 4, PhaseKind::Gather));
        assert!(!plan.session(1, 4, PhaseKind::Scatter).should_kill());
        assert!(plan.session(1, 4, PhaseKind::Gather).should_kill());
    }

    #[test]
    fn noise_is_deterministic_per_rank_and_epoch() {
        let draw = |seed| {
            let plan = arc(FaultPlan::benign(seed));
            let mut s = plan.session(3, 7, PhaseKind::Scatter);
            (0..64).map(|_| s.on_send()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43), "different seeds should differ");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let plan = arc(FaultPlan::benign(5));
        let mut s = plan.session(0, 0, PhaseKind::Other);
        let mut perm = s.destination_permutation(17);
        perm.sort_unstable();
        assert_eq!(perm, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn forced_delay_applies_to_every_send() {
        let plan = arc(FaultPlan::new(0).delay(1, 3, Duration::from_millis(2)));
        let mut s = plan.session(1, 3, PhaseKind::Other);
        assert_eq!(s.on_send(), SendFault::Delay(Duration::from_millis(2)));
        let mut other_epoch = plan.session(1, 4, PhaseKind::Other);
        assert_eq!(other_epoch.on_send(), SendFault::Deliver);
    }
}
