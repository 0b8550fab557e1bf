//! One accounting record per operation, and the sinks it feeds.
//!
//! Every superstep and collective an engine runs is described by exactly
//! one [`SuperstepRecord`]: its phase, start and duration, one
//! [`RankEntry`] per rank, and — only while a metrics registry is
//! installed — the rank-pair tallies behind the communication matrix.
//! The engine hands the finished record to [`Accounting::commit`], the
//! single fan-out that derives everything observers see from it:
//!
//! * one [`SuperstepStats`] row, appended to the [`StatsLog`] and sent,
//!   the same value, to the recorder as its `Superstep` event;
//! * the per-rank `Span` events for the recorder (see [`crate::trace`]);
//! * the phase family and communication-matrix update of the metrics
//!   registry.
//!
//! [`Accounting`] also owns the operation index and the fault epoch, so
//! rows, spans and errors number operations alike.  What can be
//! installed on an engine — a fault schedule, a recorder, a metrics
//! registry — is one plain [`Instruments`] bundle.

use std::sync::Arc;

use crate::config::MachineConfig;
use crate::fault::FaultPlan;
use crate::metrics::SharedMetrics;
use crate::stats::{PhaseKind, StatsLog, SuperstepStats};
use crate::trace::{self, Recorder};

/// The optional fault schedule and observers installed on an engine.
///
/// Every field defaults to `None`; an engine with nothing installed pays
/// one branch per sink per operation.  Install with
/// [`SpmdEngine::instruments_mut`](crate::SpmdEngine::instruments_mut),
/// or hand a bundle to the simulation driver before set-up so the
/// initial distribution is observed too.
#[derive(Default)]
pub struct Instruments {
    /// Fault schedule consulted by every operation.  The modeled machine
    /// honors only its kill faults; the threaded machine honors all of
    /// them at the mailbox layer (see [`crate::fault`]).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Event sink: every superstep and collective emits one span per
    /// rank and one superstep event to it, and drivers append their own
    /// events to the same stream (see [`crate::trace`]).
    pub recorder: Option<Box<dyn Recorder>>,
    /// Metrics registry fed the phase families and the rank-pair
    /// communication matrix, locked once per operation (see
    /// [`crate::metrics`]).
    pub metrics: Option<SharedMetrics>,
}

/// One rank's share of an operation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RankEntry {
    /// Computation seconds.
    pub compute_s: f64,
    /// Communication seconds: the charged τ/μ on the modeled machine,
    /// the wall time not spent computing (so idle included) on the
    /// threaded one.
    pub comm_s: f64,
    /// Off-rank messages sent.
    pub msgs_sent: u64,
    /// Off-rank messages received.
    pub msgs_recv: u64,
    /// Off-rank bytes sent.
    pub bytes_sent: u64,
    /// Off-rank bytes received.
    pub bytes_recv: u64,
}

/// How a collective moves its per-rank share.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CollectiveShape {
    /// Recursive doubling: every rank ends up with all `p - 1` other
    /// shares (`allgatherv`).
    Doubling,
    /// A pipelined tree over the whole array: one share per stage
    /// (the modeled machine's element-wise allreduce).
    Pipelined,
}

/// Everything known about one superstep or collective.
#[derive(Debug)]
pub(crate) struct SuperstepRecord {
    /// Phase the operation implements.
    pub phase: PhaseKind,
    /// Engine elapsed seconds when the operation began.
    pub start_s: f64,
    /// Operation duration, barrier to barrier.
    pub elapsed_s: f64,
    /// For a collective, the bytes every ordered rank pair is attributed
    /// in the communication matrix; `None` for a point-to-point
    /// superstep.
    pub collective_share: Option<u64>,
    /// True when `comm_s` is measured as the wall time a rank did not
    /// spend computing, so it already contains that rank's idle time.
    pub idle_in_comm: bool,
    /// One entry per rank, in rank order.
    pub ranks: Vec<RankEntry>,
    /// `(from, to, bytes)` of every off-rank message, as its sender saw
    /// it; filled only while a metrics registry is installed.
    pub sent_pairs: Vec<(usize, usize, u64)>,
    /// `(from, to, bytes)` of every off-rank message, as its receiver
    /// saw it; filled only while a metrics registry is installed.
    pub recv_pairs: Vec<(usize, usize, u64)>,
}

impl SuperstepRecord {
    /// Describe a collective that moved `share_bytes` per rank and took
    /// `elapsed_s`.  This is the one place a collective's message and
    /// byte counts are computed; both executors report the counts the
    /// algorithm implies (they describe the program, not the executor),
    /// and every rank is charged the whole operation as communication.
    pub fn set_collective(
        &mut self,
        cfg: &MachineConfig,
        shape: CollectiveShape,
        share_bytes: usize,
        elapsed_s: f64,
    ) {
        let p = cfg.ranks;
        let stages = u64::from(cfg.collective_stages());
        let bytes = match shape {
            CollectiveShape::Doubling => (p - 1) as u64,
            CollectiveShape::Pipelined => stages,
        } * share_bytes as u64;
        let msgs = if p > 1 { stages } else { 0 };
        let entry = RankEntry {
            compute_s: 0.0,
            comm_s: elapsed_s,
            msgs_sent: msgs,
            msgs_recv: msgs,
            bytes_sent: bytes,
            bytes_recv: bytes,
        };
        self.elapsed_s = elapsed_s;
        self.collective_share = Some(share_bytes as u64);
        self.ranks.clear();
        self.ranks.resize(p, entry);
    }

    /// Largest computation seconds over ranks.
    pub fn max_compute_s(&self) -> f64 {
        self.ranks.iter().map(|e| e.compute_s).fold(0.0, f64::max)
    }

    /// Critical-path communication seconds: the largest charged comm
    /// time on the modeled machine; on the threaded one, the part of
    /// the wall time the slowest-computing rank spent outside compute.
    pub fn max_comm_s(&self) -> f64 {
        if self.idle_in_comm {
            (self.elapsed_s - self.max_compute_s()).max(0.0)
        } else {
            self.ranks.iter().map(|e| e.comm_s).fold(0.0, f64::max)
        }
    }

    /// Largest value of `field` over ranks.
    pub fn max_of(&self, field: fn(&RankEntry) -> u64) -> u64 {
        self.ranks.iter().map(field).max().unwrap_or(0)
    }

    /// Off-rank messages summed over ranks.
    pub fn total_msgs(&self) -> u64 {
        self.ranks.iter().map(|e| e.msgs_sent).sum()
    }

    /// Off-rank bytes summed over ranks.
    pub fn total_bytes(&self) -> u64 {
        self.ranks.iter().map(|e| e.bytes_sent).sum()
    }
}

/// An engine's accounting state: the statistics log, the installed
/// instruments, the operation index and fault epoch, and the record of
/// the operation in progress (reused, so building it allocates nothing
/// in steady state).
pub(crate) struct Accounting {
    pub stats: StatsLog,
    pub instruments: Instruments,
    /// Index of the operation in progress: the number of operations
    /// committed so far.  A failed operation commits nothing, so its
    /// error carries the index the next committed row gets.
    pub superstep: u64,
    /// Driver-set fault epoch (the PIC driver uses the iteration number).
    pub epoch: u64,
    record: SuperstepRecord,
}

impl Accounting {
    /// Fresh accounting; `idle_in_comm` says how the engine measures
    /// communication (see [`SuperstepRecord::idle_in_comm`]).
    pub fn new(idle_in_comm: bool) -> Self {
        Self {
            stats: StatsLog::new(),
            instruments: Instruments::default(),
            superstep: 0,
            epoch: 0,
            record: SuperstepRecord {
                phase: PhaseKind::Other,
                start_s: 0.0,
                elapsed_s: 0.0,
                collective_share: None,
                idle_in_comm,
                ranks: Vec::new(),
                sent_pairs: Vec::new(),
                recv_pairs: Vec::new(),
            },
        }
    }

    /// Start the record of a new operation and hand it out to be filled.
    pub fn begin(&mut self, phase: PhaseKind, start_s: f64) -> &mut SuperstepRecord {
        let rec = &mut self.record;
        rec.phase = phase;
        rec.start_s = start_s;
        rec.elapsed_s = 0.0;
        rec.collective_share = None;
        rec.ranks.clear();
        rec.sent_pairs.clear();
        rec.recv_pairs.clear();
        rec
    }

    /// Build the finished record's row and fan it out to every sink: the
    /// statistics log always, the registry and the recorder when
    /// installed.  Advances the operation index.
    pub fn commit(&mut self) {
        let rec = &self.record;
        let row = SuperstepStats::from_record(rec, self.superstep, self.epoch);
        self.superstep += 1;
        self.stats.push(row);
        if let Some(metrics) = &self.instruments.metrics {
            metrics.with(|reg| reg.observe(rec));
        }
        if let Some(recorder) = &mut self.instruments.recorder {
            trace::record_superstep(recorder.as_mut(), rec, row);
        }
    }
}
