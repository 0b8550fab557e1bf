//! Per-superstep communication and timing statistics.
//!
//! These records are the raw material for every reproduced figure:
//! Figure 17 plots per-iteration modeled time, Figures 18/19 the maximum
//! scatter-phase data volume and message count over ranks, Figures 21/22
//! the communication-plus-idle overhead.  The same row is the trace's
//! superstep event ([`TraceEvent::Superstep`](crate::TraceEvent::Superstep)).

use serde::{Deserialize, Serialize};

use crate::record::SuperstepRecord;

/// Which PIC phase a superstep belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Particle contributions to current-density grid points.
    Scatter,
    /// Maxwell solve on the mesh.
    FieldSolve,
    /// Field values back to particles.
    Gather,
    /// Particle position/velocity update (no communication under the
    /// direct Lagrangian method).
    Push,
    /// Particle redistribution (indexing + incremental sort + balance).
    Redistribute,
    /// Initial distribution / setup collectives.
    Setup,
    /// Anything else (tests, examples).
    Other,
}

impl PhaseKind {
    /// Every phase, in canonical (pipeline) order.  Aggregators iterate
    /// this instead of hand-listing variants so a new phase cannot be
    /// silently dropped from a report (the metrics registry additionally
    /// carries an exhaustive match that fails to compile on a new
    /// variant; see `metrics::phase_slot`).
    pub const ALL: [PhaseKind; 7] = [
        PhaseKind::Scatter,
        PhaseKind::FieldSolve,
        PhaseKind::Gather,
        PhaseKind::Push,
        PhaseKind::Redistribute,
        PhaseKind::Setup,
        PhaseKind::Other,
    ];

    /// Stable label for CSV output.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Scatter => "scatter",
            PhaseKind::FieldSolve => "field_solve",
            PhaseKind::Gather => "gather",
            PhaseKind::Push => "push",
            PhaseKind::Redistribute => "redistribute",
            PhaseKind::Setup => "setup",
            PhaseKind::Other => "other",
        }
    }
}

/// Aggregated statistics of one superstep or collective: the
/// [`StatsLog`] row and, unchanged, the trace's superstep event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuperstepStats {
    /// Phase this superstep implements.
    pub phase: PhaseKind,
    /// Engine-wide operation index: the number of operations the engine
    /// committed before this one.  Spans and errors carry the same index.
    pub superstep: u64,
    /// Driver fault epoch during the operation (the PIC driver stamps
    /// its iteration number).
    pub epoch: u64,
    /// Engine elapsed seconds when the operation began.
    pub start_s: f64,
    /// Maximum off-rank messages sent by any rank.
    pub max_msgs_sent: u64,
    /// Maximum off-rank messages received by any rank.
    pub max_msgs_recv: u64,
    /// Maximum off-rank bytes sent by any rank.
    pub max_bytes_sent: u64,
    /// Maximum off-rank bytes received by any rank.
    pub max_bytes_recv: u64,
    /// Total off-rank messages across ranks.
    pub total_msgs: u64,
    /// Total off-rank bytes across ranks.
    pub total_bytes: u64,
    /// Maximum modeled compute seconds over ranks.
    pub max_compute_s: f64,
    /// Maximum modeled communication seconds over ranks.
    pub max_comm_s: f64,
    /// Superstep duration: maximum over ranks of compute + comm.
    pub elapsed_s: f64,
    /// True when the operation was a collective (`allgatherv`, or the
    /// modeled machine's element-wise allreduce) rather than an exchange
    /// superstep, also on the threaded machine, whose `allgatherv` runs
    /// over an exchange but is accounted as the collective it is.
    pub collective: bool,
}

impl SuperstepStats {
    /// An empty record for `phase`.
    pub fn empty(phase: PhaseKind) -> Self {
        Self {
            phase,
            superstep: 0,
            epoch: 0,
            start_s: 0.0,
            max_msgs_sent: 0,
            max_msgs_recv: 0,
            max_bytes_sent: 0,
            max_bytes_recv: 0,
            total_msgs: 0,
            total_bytes: 0,
            max_compute_s: 0.0,
            max_comm_s: 0.0,
            elapsed_s: 0.0,
            collective: false,
        }
    }

    /// The row an engine logs for one operation's record, the
    /// `superstep`-th it commits, run in fault epoch `epoch`.
    pub(crate) fn from_record(rec: &SuperstepRecord, superstep: u64, epoch: u64) -> Self {
        Self {
            phase: rec.phase,
            superstep,
            epoch,
            start_s: rec.start_s,
            max_msgs_sent: rec.max_of(|e| e.msgs_sent),
            max_msgs_recv: rec.max_of(|e| e.msgs_recv),
            max_bytes_sent: rec.max_of(|e| e.bytes_sent),
            max_bytes_recv: rec.max_of(|e| e.bytes_recv),
            total_msgs: rec.total_msgs(),
            total_bytes: rec.total_bytes(),
            max_compute_s: rec.max_compute_s(),
            max_comm_s: rec.max_comm_s(),
            elapsed_s: rec.elapsed_s,
            collective: rec.collective_share.is_some(),
        }
    }
}

/// Append-only log of superstep statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatsLog {
    records: Vec<SuperstepStats>,
}

impl StatsLog {
    /// Create an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one superstep.
    pub fn push(&mut self, s: SuperstepStats) {
        self.records.push(s);
    }

    /// All records in execution order.
    pub fn records(&self) -> &[SuperstepStats] {
        &self.records
    }

    /// Drain the log, returning the records accumulated so far.  The PIC
    /// driver drains once per iteration to build per-iteration summaries.
    pub fn drain(&mut self) -> Vec<SuperstepStats> {
        std::mem::take(&mut self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_empties_the_log() {
        let mut log = StatsLog::new();
        log.push(SuperstepStats::empty(PhaseKind::Other));
        let drained = log.drain();
        assert_eq!(drained.len(), 1);
        assert!(log.records().is_empty());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PhaseKind::Scatter.label(), "scatter");
        assert_eq!(PhaseKind::FieldSolve.label(), "field_solve");
        assert_eq!(PhaseKind::Redistribute.label(), "redistribute");
    }
}
