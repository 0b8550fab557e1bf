//! Typed failure reporting for SPMD runs.
//!
//! An engine method that fails returns an [`SpmdError`]: a structured
//! value carrying *where* the run died (rank, phase, superstep, fault
//! epoch) and *why* ([`FailureCause`]): a rank panic, a receive timeout
//! with per-rank in-flight message counts, mailbox poisoning by a dead
//! peer, an injected kill from a
//! [`FaultPlan`](crate::fault::FaultPlan), or a physics invariant
//! violation detected by the simulation driver.
//!
//! The mailbox layer still *transports* failures as panics internally
//! (any rank failure must abort every peer's superstep, and unwinding is
//! the only channel that crosses the user program's stack), but the
//! payloads are typed (`RankFailure`) and the engines catch them and
//! return `Result<_, SpmdError>` instead of re-raising.

use std::any::Any;
use std::fmt;
use std::time::Duration;

use crate::stats::PhaseKind;

/// Everything known about an exchange receive that gave up waiting (the
/// error's phase and superstep name the operation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeoutDetail {
    /// Wires the exchange needed in total: one batch from every rank.
    pub expected: usize,
    /// Wires already received when the deadline passed.
    pub received: usize,
    /// Per-sender in-flight bookkeeping at the moment of the timeout:
    /// `in_flight[r]` is how many wires from rank `r` (the waiting rank
    /// included) were still outstanding.
    pub in_flight: Vec<usize>,
    /// The deadline that expired.
    pub waited: Duration,
}

impl fmt::Display for TimeoutDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "received {}/{} messages within {:?}",
            self.received, self.expected, self.waited
        )?;
        let missing: Vec<String> = self
            .in_flight
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(r, &n)| format!("rank {r}: {n}"))
            .collect();
        if !missing.is_empty() {
            write!(f, " (still in flight — {})", missing.join(", "))?;
        }
        Ok(())
    }
}

/// Why an SPMD run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCause {
    /// A rank's program panicked; the payload rendered to a string.
    Panic(String),
    /// A blocking receive exceeded its deadline (protocol deadlock, or a
    /// dropped message that exhausted its retransmission budget).
    /// Boxed to keep `SpmdError` small on the `Result` hot path.
    Timeout(Box<TimeoutDetail>),
    /// The rank unwound because a *peer* died first; `by` is the peer.
    /// Surfaced only when the root cause itself never reached a runner
    /// (e.g. double-panic abort); normally the root cause wins.
    Poisoned {
        /// Rank whose poison message was received.
        by: usize,
    },
    /// A [`FaultPlan`](crate::fault::FaultPlan) killed the rank.
    Killed {
        /// Fault epoch (driver iteration) the kill fired in.
        epoch: u64,
    },
    /// Every peer channel closed before the expected message arrived.
    Disconnected,
    /// The simulation driver detected state corruption (particle loss,
    /// charge non-conservation, non-finite fields).
    InvariantViolation(String),
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Panic(msg) => write!(f, "panic: {msg}"),
            FailureCause::Timeout(d) => write!(f, "timeout: {d}"),
            FailureCause::Poisoned { by } => write!(f, "poisoned by rank {by}"),
            FailureCause::Killed { epoch } => {
                write!(f, "killed by fault injection at epoch {epoch}")
            }
            FailureCause::Disconnected => write!(f, "all peers disconnected"),
            FailureCause::InvariantViolation(msg) => write!(f, "invariant violated: {msg}"),
        }
    }
}

/// A failed SPMD run: which rank died, where in the program, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmdError {
    /// The failing rank, when attributable to one.
    pub rank: Option<usize>,
    /// Phase the failing operation belonged to (engine-level context).
    pub phase: Option<PhaseKind>,
    /// Engine operation index of the failing operation: the index the
    /// engine's next statistics row gets, since a failed operation
    /// commits none.
    pub superstep: Option<u64>,
    /// Fault epoch (the driver's iteration counter) if one was set.
    pub epoch: Option<u64>,
    /// Root cause.
    pub cause: FailureCause,
}

impl SpmdError {
    /// An error with only a cause; context is attached by the layers
    /// that know it (see [`SpmdError::in_phase`]).
    pub fn new(cause: FailureCause) -> Self {
        Self {
            rank: None,
            phase: None,
            superstep: None,
            epoch: None,
            cause,
        }
    }

    /// Same, attributed to `rank`.
    pub fn on_rank(rank: usize, cause: FailureCause) -> Self {
        Self {
            rank: Some(rank),
            ..Self::new(cause)
        }
    }

    /// Attach engine context (phase, superstep counter, fault epoch).
    /// Existing context is kept — the innermost layer knows best.
    #[must_use]
    pub fn in_phase(mut self, phase: PhaseKind, superstep: u64, epoch: u64) -> Self {
        self.phase.get_or_insert(phase);
        self.superstep.get_or_insert(superstep);
        self.epoch.get_or_insert(epoch);
        self
    }

    /// Build from a caught panic payload: typed `RankFailure` payloads
    /// become their structured causes, strings become
    /// [`FailureCause::Panic`].
    pub fn from_panic_payload(payload: Box<dyn Any + Send>) -> Self {
        match payload.downcast::<RankFailure>() {
            Ok(failure) => (*failure).into_error(),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                SpmdError::new(FailureCause::Panic(msg))
            }
        }
    }

    /// True when the cause is an injected rank kill.
    pub fn is_injected_kill(&self) -> bool {
        matches!(self.cause, FailureCause::Killed { .. })
    }

    /// True when the cause is a receive timeout.
    pub fn is_timeout(&self) -> bool {
        matches!(self.cause, FailureCause::Timeout(_))
    }
}

impl fmt::Display for SpmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rank {
            Some(r) => write!(f, "SPMD run failed on rank {r}")?,
            None => write!(f, "SPMD run failed")?,
        }
        if let Some(phase) = self.phase {
            write!(f, " during {}", phase.label())?;
        }
        if let Some(step) = self.superstep {
            write!(f, " (superstep {step}")?;
            if let Some(epoch) = self.epoch {
                write!(f, ", epoch {epoch}")?;
            }
            write!(f, ")")?;
        }
        write!(f, ": {}", self.cause)
    }
}

impl std::error::Error for SpmdError {}

/// Typed panic payload used *inside* rank threads: the mailbox layer
/// aborts a rank by `panic_any(RankFailure::...)`, the thread wrapper
/// poisons peers, and the runner converts the payload into the
/// [`SpmdError`] the caller sees.
#[derive(Debug, Clone)]
pub(crate) enum RankFailure {
    /// A receive deadline expired on `rank`.
    Timeout { rank: usize, detail: TimeoutDetail },
    /// Every peer channel closed under `rank`.
    Disconnected { rank: usize },
    /// A fault plan killed `rank` at `epoch`.
    Killed { rank: usize, epoch: u64 },
}

impl RankFailure {
    pub(crate) fn into_error(self) -> SpmdError {
        match self {
            RankFailure::Timeout { rank, detail } => {
                SpmdError::on_rank(rank, FailureCause::Timeout(Box::new(detail)))
            }
            RankFailure::Disconnected { rank } => {
                SpmdError::on_rank(rank, FailureCause::Disconnected)
            }
            RankFailure::Killed { rank, epoch } => {
                let mut err = SpmdError::on_rank(rank, FailureCause::Killed { epoch });
                err.epoch = Some(epoch);
                err
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_full_context() {
        let detail = TimeoutDetail {
            expected: 7,
            received: 3,
            in_flight: vec![0, 4, 0],
            waited: Duration::from_secs(2),
        };
        let err = SpmdError::on_rank(2, FailureCause::Timeout(Box::new(detail))).in_phase(
            PhaseKind::Scatter,
            41,
            25,
        );
        let text = err.to_string();
        assert!(text.contains("rank 2"), "{text}");
        assert!(text.contains("scatter"), "{text}");
        assert!(text.contains("superstep 41"), "{text}");
        assert!(text.contains("epoch 25"), "{text}");
        assert!(text.contains("3/7"), "{text}");
        assert!(text.contains("rank 1: 4"), "{text}");
    }

    #[test]
    fn panic_payload_conversion_prefers_typed_failures() {
        let typed: Box<dyn Any + Send> = Box::new(RankFailure::Killed { rank: 5, epoch: 9 });
        let err = SpmdError::from_panic_payload(typed);
        assert_eq!(err.rank, Some(5));
        assert!(err.is_injected_kill());

        let stringy: Box<dyn Any + Send> = Box::new("boom".to_string());
        let err = SpmdError::from_panic_payload(stringy);
        assert_eq!(err.cause, FailureCause::Panic("boom".to_string()));
    }

    #[test]
    fn context_attachment_keeps_innermost_values() {
        let err = SpmdError::on_rank(1, FailureCause::Disconnected)
            .in_phase(PhaseKind::Gather, 3, 1)
            .in_phase(PhaseKind::Push, 99, 50);
        assert_eq!(err.phase, Some(PhaseKind::Gather));
        assert_eq!(err.superstep, Some(3));
        assert_eq!(err.epoch, Some(1));
    }
}
