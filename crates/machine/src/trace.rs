//! Structured tracing: span events, pluggable recorders, exporters.
//!
//! The paper's entire evaluation is a story about *where time goes* —
//! scatter volume, redistribution overhead, idle time.  [`StatsLog`](crate::StatsLog)
//! (one aggregated row per superstep) is the raw material for the
//! reproduced figures; this module adds a stream of **structured
//! events** emitted by both executors and the simulation driver,
//! consumed through a pluggable [`Recorder`].  The stream carries the
//! log's rows themselves, plus the per-rank spans underneath them.
//!
//! ## Event model
//!
//! | event | emitted by | one per |
//! |---|---|---|
//! | [`SpanEvent`] | both executors | (rank, superstep/collective) |
//! | [`SuperstepStats`] | both executors | superstep or collective (the `StatsLog` row) |
//! | [`IterationRecord`] | the PIC driver | completed iteration (the record `step` returns) |
//! | [`RedistributionEvent`] | the PIC driver | redistribution (incl. setup) |
//! | [`FaultEvent`] | driver + recovery | surfaced [`SpmdError`](crate::SpmdError) |
//! | [`CheckpointEvent`] | the recovery loop | snapshot saved / restored |
//! | [`PolicyDecisionEvent`] | the PIC driver | redistribution-policy evaluation |
//! | [`RankLoadEvent`] | the PIC driver | completed iteration (per-rank counts) |
//!
//! On the modeled [`Machine`](crate::Machine) span times are **modeled
//! seconds** under the τ/μ/δ cost model (a span's `compute_s` is
//! `δ · ops`, its `comm_s` is `Σ (τ + bytes·μ)` over its off-rank
//! messages); on the [`ThreadedMachine`](crate::ThreadedMachine) they
//! are measured wall-clock seconds.  Message and byte counts are exact
//! on both — they are a property of the program, not the executor.
//!
//! ## Recorders
//!
//! A [`Recorder`] is installed on an engine as the `recorder` of its
//! [`Instruments`](crate::Instruments) and receives every event as it
//! happens:
//!
//! * [`MemoryRecorder`] — unbounded in-memory vector (exporter input);
//! * [`JsonLinesRecorder`] — one JSON object per line to any writer;
//! * [`MultiRecorder`] — fan-out to several sinks;
//! * [`SharedRecorder`] — clonable handle so the caller can keep access
//!   to a sink after handing the engine its `Box<dyn Recorder>`.
//!
//! ## Exporters
//!
//! * [`chrome_trace`] — Chrome `trace_event` JSON for `chrome://tracing`
//!   / Perfetto (one track per rank);
//! * [`MetricsReport`] — per-phase p50/p95/max aggregation.
//!
//! ```
//! use pic_machine::trace::{MemoryRecorder, MetricsReport, SharedRecorder};
//! use pic_machine::{Machine, MachineConfig, PhaseKind, SpmdEngine};
//!
//! let rec = SharedRecorder::new(MemoryRecorder::new());
//! let mut m = Machine::new(MachineConfig::cm5(4), vec![0u64; 4]);
//! m.instruments_mut().recorder = Some(Box::new(rec.clone()));
//! m.local_step(PhaseKind::Push, |_r, s, ctx| {
//!     *s += 1;
//!     ctx.charge_ops(10.0);
//! })
//! .unwrap();
//! let events = rec.with(|r| r.events().to_vec());
//! assert_eq!(events.iter().filter(|e| e.span().is_some()).count(), 4); // one per rank
//! let report = MetricsReport::from_events(&events);
//! assert_eq!(report.phases()[0].phase, PhaseKind::Push);
//! ```

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::record::SuperstepRecord;
use crate::stats::{PhaseKind, SuperstepStats};

/// One rank's slice of one superstep or collective.
///
/// Times are modeled seconds on the modeled machine and wall-clock
/// seconds on the threaded one; counts are exact on both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// The rank this span belongs to.
    pub rank: usize,
    /// Phase the enclosing superstep implements.
    pub phase: PhaseKind,
    /// Engine-wide operation index, as in the superstep's row.
    pub superstep: u64,
    /// Driver fault epoch (the PIC driver stamps its iteration number).
    pub epoch: u64,
    /// Engine elapsed seconds when the superstep began.
    pub start_s: f64,
    /// Computation seconds this rank spent in the superstep.
    pub compute_s: f64,
    /// Communication (and, after the barrier, idle) seconds.
    pub comm_s: f64,
    /// Engine elapsed seconds when this rank's work ended
    /// (`start_s + compute_s + comm_s`; the barrier may extend the
    /// superstep beyond it for other ranks).
    pub end_s: f64,
    /// Off-rank messages this rank sent.
    pub msgs_sent: u64,
    /// Off-rank messages this rank received.
    pub msgs_recv: u64,
    /// Off-rank bytes this rank sent.
    pub bytes_sent: u64,
    /// Off-rank bytes this rank received.
    pub bytes_recv: u64,
}

/// One iteration's measurements — the rows behind Figures 17, 18 and
/// 19.  Times are engine seconds: modeled on the BSP machine, wall-clock
/// on the threaded one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration number (1-based).
    pub iter: usize,
    /// Execution time of the four phases (excludes any redistribution
    /// this iteration triggered).
    pub time_s: f64,
    /// Computation component (max over ranks, summed per superstep).
    pub compute_s: f64,
    /// Communication + idle component.
    pub comm_s: f64,
    /// Maximum bytes any rank sent in the scatter phase (Figure 18).
    pub scatter_max_bytes_sent: u64,
    /// Maximum bytes any rank received in the scatter phase.
    pub scatter_max_bytes_recv: u64,
    /// Maximum messages any rank sent in the scatter phase (Figure 19).
    pub scatter_max_msgs_sent: u64,
    /// Maximum messages any rank received in the scatter phase.
    pub scatter_max_msgs_recv: u64,
    /// Whether a redistribution ran after this iteration.
    pub redistributed: bool,
    /// Cost of that redistribution (0 when none ran).
    pub redistribute_s: f64,
    /// Largest per-rank particle count at the end of the iteration.
    pub max_particles: usize,
    /// Smallest per-rank particle count.
    pub min_particles: usize,
}

/// Why a redistribution ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedistributionTrigger {
    /// The initial distribution during setup.
    Setup,
    /// The installed redistribution policy fired.
    Policy,
    /// The caller forced it (`redistribute_now`).
    Forced,
}

impl RedistributionTrigger {
    /// Stable label for serialized output.
    pub fn label(self) -> &'static str {
        match self {
            RedistributionTrigger::Setup => "setup",
            RedistributionTrigger::Policy => "policy",
            RedistributionTrigger::Forced => "forced",
        }
    }
}

/// One redistribution decision and its cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedistributionEvent {
    /// Driver iteration the redistribution ran after (0 for setup).
    pub iter: u64,
    /// What triggered it.
    pub trigger: RedistributionTrigger,
    /// Its cost in engine seconds (modeled or wall).
    pub cost_s: f64,
}

/// A failure surfaced as a typed [`SpmdError`](crate::SpmdError).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Failing rank, when attributable.
    pub rank: Option<usize>,
    /// Phase the failure occurred in, when known.
    pub phase: Option<PhaseKind>,
    /// Engine superstep index, when known.
    pub superstep: Option<u64>,
    /// Driver fault epoch, when known.
    pub epoch: Option<u64>,
    /// Rendered failure cause.
    pub cause: String,
}

/// What a checkpoint event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointAction {
    /// A snapshot was encoded and kept.
    Saved,
    /// A snapshot was decoded and the simulation rebuilt from it.
    Restored,
}

impl CheckpointAction {
    /// Stable label for serialized output.
    pub fn label(self) -> &'static str {
        match self {
            CheckpointAction::Saved => "saved",
            CheckpointAction::Restored => "restored",
        }
    }
}

/// A checkpoint being saved or restored by the recovery loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointEvent {
    /// Iteration boundary the snapshot sits on.
    pub iter: u64,
    /// Encoded snapshot size in bytes.
    pub bytes: u64,
    /// Saved or restored.
    pub action: CheckpointAction,
}

/// One evaluation of the redistribution policy, in the terms of the
/// paper's Stop-At-Rise criterion (Eq. 1): redistribute when the
/// projected loss `(t1 - t0) · (i1 - i0)` reaches the redistribution
/// cost `T_redist`.  Emitted by the driver after every policy query so
/// each redistribution — and each decision *not* to redistribute — is
/// auditable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyDecisionEvent {
    /// Driver iteration the decision was made after (`i1`).
    pub iter: u64,
    /// Engine elapsed seconds at decision time.
    pub time_s: f64,
    /// Observed iteration phase time (`t1`).
    pub observed_s: f64,
    /// Baseline iteration time right after the last redistribution
    /// (`t0`; equals `observed_s` on the seeding evaluation).
    pub baseline_s: f64,
    /// Projected cumulative loss `(t1 - t0) · (i1 - i0)`.
    pub projected_loss_s: f64,
    /// The policy's threshold (the SAR policy's `redist_cost`).
    pub threshold_s: f64,
    /// Verdict: `true` when the policy asked for a redistribution.
    pub fired: bool,
}

/// Per-rank particle counts at the end of one driver iteration — the
/// raw series behind load-imbalance curves (dashboard and Perfetto
/// counter tracks).  [`IterationRecord`] only carries the min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct RankLoadEvent {
    /// Iteration number (1-based).
    pub iter: u64,
    /// Engine elapsed seconds at emission time.
    pub time_s: f64,
    /// Particle count of each rank, indexed by rank.
    pub counts: Vec<u64>,
}

/// One structured observability event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Per-rank slice of a superstep.
    Span(SpanEvent),
    /// Aggregated superstep / collective row, as logged in the
    /// [`StatsLog`](crate::StatsLog).
    Superstep(SuperstepStats),
    /// Completed driver iteration.
    Iteration(IterationRecord),
    /// Redistribution decision.
    Redistribution(RedistributionEvent),
    /// Surfaced failure.
    Fault(FaultEvent),
    /// Checkpoint saved/restored.
    Checkpoint(CheckpointEvent),
    /// Redistribution-policy evaluation (SAR audit record).
    PolicyDecision(PolicyDecisionEvent),
    /// Per-rank particle counts after an iteration.
    RankLoad(RankLoadEvent),
}

impl TraceEvent {
    /// Stable event-kind label (`"span"`, `"superstep"`, ...).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Span(_) => "span",
            TraceEvent::Superstep(_) => "superstep",
            TraceEvent::Iteration(_) => "iteration",
            TraceEvent::Redistribution(_) => "redistribution",
            TraceEvent::Fault(_) => "fault",
            TraceEvent::Checkpoint(_) => "checkpoint",
            TraceEvent::PolicyDecision(_) => "policy_decision",
            TraceEvent::RankLoad(_) => "rank_load",
        }
    }

    /// The span payload, when this is a span event.
    pub fn span(&self) -> Option<&SpanEvent> {
        match self {
            TraceEvent::Span(s) => Some(s),
            _ => None,
        }
    }

    /// The superstep payload, when this is a superstep event.
    pub fn superstep(&self) -> Option<&SuperstepStats> {
        match self {
            TraceEvent::Superstep(s) => Some(s),
            _ => None,
        }
    }

    /// The policy-decision payload, when this is a policy decision.
    pub fn policy_decision(&self) -> Option<&PolicyDecisionEvent> {
        match self {
            TraceEvent::PolicyDecision(d) => Some(d),
            _ => None,
        }
    }

    /// The rank-load payload, when this is a rank-load event.
    pub fn rank_load(&self) -> Option<&RankLoadEvent> {
        match self {
            TraceEvent::RankLoad(l) => Some(l),
            _ => None,
        }
    }

    /// Serialize to one JSON object (no trailing newline).  Hand-written
    /// because the vendored `serde` is a marker-trait stand-in.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push('{');
        let _ = write!(s, "\"event\":\"{}\"", self.kind());
        match self {
            TraceEvent::Span(e) => {
                let _ = write!(
                    s,
                    ",\"rank\":{},\"phase\":\"{}\",\"superstep\":{},\"epoch\":{},\
                     \"start_s\":{},\"compute_s\":{},\"comm_s\":{},\"end_s\":{},\
                     \"msgs_sent\":{},\"msgs_recv\":{},\"bytes_sent\":{},\"bytes_recv\":{}",
                    e.rank,
                    e.phase.label(),
                    e.superstep,
                    e.epoch,
                    json_f64(e.start_s),
                    json_f64(e.compute_s),
                    json_f64(e.comm_s),
                    json_f64(e.end_s),
                    e.msgs_sent,
                    e.msgs_recv,
                    e.bytes_sent,
                    e.bytes_recv
                );
            }
            TraceEvent::Superstep(e) => {
                let _ = write!(
                    s,
                    ",\"phase\":\"{}\",\"superstep\":{},\"epoch\":{},\"start_s\":{},\
                     \"elapsed_s\":{},\"max_compute_s\":{},\"max_comm_s\":{},\
                     \"max_msgs_sent\":{},\"max_msgs_recv\":{},\"max_bytes_sent\":{},\
                     \"max_bytes_recv\":{},\"total_msgs\":{},\"total_bytes\":{},\"collective\":{}",
                    e.phase.label(),
                    e.superstep,
                    e.epoch,
                    json_f64(e.start_s),
                    json_f64(e.elapsed_s),
                    json_f64(e.max_compute_s),
                    json_f64(e.max_comm_s),
                    e.max_msgs_sent,
                    e.max_msgs_recv,
                    e.max_bytes_sent,
                    e.max_bytes_recv,
                    e.total_msgs,
                    e.total_bytes,
                    e.collective
                );
            }
            TraceEvent::Iteration(e) => {
                let _ = write!(
                    s,
                    ",\"iter\":{},\"time_s\":{},\"compute_s\":{},\"comm_s\":{},\
                     \"scatter_max_bytes_sent\":{},\"scatter_max_bytes_recv\":{},\
                     \"scatter_max_msgs_sent\":{},\"scatter_max_msgs_recv\":{},\
                     \"redistributed\":{},\"redistribute_s\":{},\
                     \"max_particles\":{},\"min_particles\":{}",
                    e.iter,
                    json_f64(e.time_s),
                    json_f64(e.compute_s),
                    json_f64(e.comm_s),
                    e.scatter_max_bytes_sent,
                    e.scatter_max_bytes_recv,
                    e.scatter_max_msgs_sent,
                    e.scatter_max_msgs_recv,
                    e.redistributed,
                    json_f64(e.redistribute_s),
                    e.max_particles,
                    e.min_particles
                );
            }
            TraceEvent::Redistribution(e) => {
                let _ = write!(
                    s,
                    ",\"iter\":{},\"trigger\":\"{}\",\"cost_s\":{}",
                    e.iter,
                    e.trigger.label(),
                    json_f64(e.cost_s)
                );
            }
            TraceEvent::Fault(e) => {
                let _ = write!(
                    s,
                    ",\"rank\":{},\"phase\":{},\"superstep\":{},\"epoch\":{},\"cause\":\"{}\"",
                    json_opt_usize(e.rank),
                    e.phase
                        .map(|p| format!("\"{}\"", p.label()))
                        .unwrap_or_else(|| "null".into()),
                    json_opt_u64(e.superstep),
                    json_opt_u64(e.epoch),
                    json_escape(&e.cause)
                );
            }
            TraceEvent::Checkpoint(e) => {
                let _ = write!(
                    s,
                    ",\"iter\":{},\"bytes\":{},\"action\":\"{}\"",
                    e.iter,
                    e.bytes,
                    e.action.label()
                );
            }
            TraceEvent::PolicyDecision(e) => {
                let _ = write!(
                    s,
                    ",\"iter\":{},\"time_s\":{},\"observed_s\":{},\"baseline_s\":{},\
                     \"projected_loss_s\":{},\"threshold_s\":{},\"fired\":{}",
                    e.iter,
                    json_f64(e.time_s),
                    json_f64(e.observed_s),
                    json_f64(e.baseline_s),
                    json_f64(e.projected_loss_s),
                    json_f64(e.threshold_s),
                    e.fired
                );
            }
            TraceEvent::RankLoad(e) => {
                let _ = write!(
                    s,
                    ",\"iter\":{},\"time_s\":{},\"counts\":[",
                    e.iter,
                    json_f64(e.time_s)
                );
                for (i, c) in e.counts.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{c}");
                }
                s.push(']');
            }
        }
        s.push('}');
        s
    }
}

/// Render an `f64` for JSON (finite guaranteed by construction, but be
/// safe: non-finite values become `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_opt_usize(v: Option<usize>) -> String {
    v.map(|v| v.to_string()).unwrap_or_else(|| "null".into())
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map(|v| v.to_string()).unwrap_or_else(|| "null".into())
}

/// Escape a string for embedding inside JSON double quotes.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A sink for [`TraceEvent`]s.
///
/// Recorders are installed on an engine through its
/// [`Instruments`](crate::Instruments) and
/// invoked from the engine's driving thread — never from rank threads —
/// so implementations need `Send` but not `Sync`.
pub trait Recorder: Send {
    /// Consume one event.
    fn record(&mut self, event: &TraceEvent);

    /// Flush any buffered output (a no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// Unbounded in-memory recorder; the usual exporter input.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Vec<TraceEvent>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events recorded so far, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drain the recorded events.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl Recorder for MemoryRecorder {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Streams one JSON object per line (JSON-lines / `ndjson`) to a writer.
pub struct JsonLinesRecorder<W: Write + Send> {
    w: W,
    written: u64,
}

impl JsonLinesRecorder<BufWriter<File>> {
    /// Create (truncating) `path` and stream JSON lines into it.
    ///
    /// # Errors
    /// Returns the I/O error when the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonLinesRecorder<W> {
    /// Stream JSON lines into `w`.
    pub fn new(w: W) -> Self {
        Self { w, written: 0 }
    }

    /// Number of events written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.w.flush();
        self.w
    }
}

impl<W: Write + Send> Recorder for JsonLinesRecorder<W> {
    fn record(&mut self, event: &TraceEvent) {
        // Harness policy: observability must never kill the run; a full
        // disk degrades to a truncated trace.
        if writeln!(self.w, "{}", event.to_json()).is_ok() {
            self.written += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

/// Fans every event out to several sinks (e.g. a JSON-lines file *and*
/// an in-memory buffer for post-run export).
#[derive(Default)]
pub struct MultiRecorder {
    sinks: Vec<Box<dyn Recorder>>,
}

impl MultiRecorder {
    /// An empty fan-out.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sink (builder style).
    #[must_use]
    pub fn with(mut self, sink: Box<dyn Recorder>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl Recorder for MultiRecorder {
    fn record(&mut self, event: &TraceEvent) {
        for s in &mut self.sinks {
            s.record(event);
        }
    }

    fn flush(&mut self) {
        for s in &mut self.sinks {
            s.flush();
        }
    }
}

/// Clonable, thread-safe handle around any recorder: install one clone
/// on the engine, keep another to read the sink back after the run.
pub struct SharedRecorder<R: Recorder>(Arc<Mutex<R>>);

impl<R: Recorder> SharedRecorder<R> {
    /// Wrap `inner` in a shared handle.
    pub fn new(inner: R) -> Self {
        Self(Arc::new(Mutex::new(inner)))
    }

    /// Run `f` against the wrapped recorder.
    ///
    /// # Panics
    /// Panics if a previous user of the lock panicked while holding it.
    pub fn with<T>(&self, f: impl FnOnce(&mut R) -> T) -> T {
        f(&mut self.0.lock().expect("recorder lock poisoned"))
    }
}

impl<R: Recorder> Clone for SharedRecorder<R> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<R: Recorder> Recorder for SharedRecorder<R> {
    fn record(&mut self, event: &TraceEvent) {
        self.with(|r| r.record(event));
    }

    fn flush(&mut self) {
        self.with(Recorder::flush);
    }
}

/// Emit one operation's events: a span per rank, then its row as the
/// superstep event; every span carries the row's index and epoch.
pub(crate) fn record_superstep(
    recorder: &mut dyn Recorder,
    rec: &SuperstepRecord,
    row: SuperstepStats,
) {
    for (rank, e) in rec.ranks.iter().enumerate() {
        recorder.record(&TraceEvent::Span(SpanEvent {
            rank,
            phase: row.phase,
            superstep: row.superstep,
            epoch: row.epoch,
            start_s: row.start_s,
            compute_s: e.compute_s,
            comm_s: e.comm_s,
            end_s: row.start_s + e.compute_s + e.comm_s,
            msgs_sent: e.msgs_sent,
            msgs_recv: e.msgs_recv,
            bytes_sent: e.bytes_sent,
            bytes_recv: e.bytes_recv,
        }));
    }
    recorder.record(&TraceEvent::Superstep(row));
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Export span events as Chrome `trace_event` JSON (the object format:
/// `{"traceEvents": [...], ...}`), loadable in `chrome://tracing` and
/// Perfetto.  Each rank becomes one thread track (`tid` = rank); spans
/// become complete (`"ph":"X"`) events with microsecond timestamps;
/// iteration/redistribution/fault/checkpoint/policy events become
/// instant (`"ph":"i"`) markers on a separate driver track.  Two
/// counter (`"ph":"C"`) tracks render load curves alongside the spans:
/// `exchange bytes` (per-rank bytes sent, one sample per superstep with
/// traffic) and `particles` (per-rank particle counts from
/// [`RankLoadEvent`]s).
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    /// Track id for driver-level (non-rank) events.
    const DRIVER_TID: u64 = 1_000_000;
    let mut out = String::with_capacity(events.len() * 120 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    // Per-rank bytes sent in the superstep currently being scanned; the
    // engines emit a superstep's rank spans immediately before its
    // aggregate superstep row, so flushing on the aggregate turns the
    // contiguous span run into one counter sample.
    let mut step_bytes: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    for ev in events {
        match ev {
            TraceEvent::Span(e) => {
                *step_bytes.entry(e.rank).or_insert(0) += e.bytes_sent;
                // Idle time (barrier wait) is inside comm_s; the span is
                // rendered busy for its full extent, which matches how
                // the cost model charges it.
                let ts = e.start_s * 1e6;
                let dur = (e.end_s - e.start_s).max(0.0) * 1e6;
                push(
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":0,\
                         \"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\
                         \"superstep\":{},\"epoch\":{},\"compute_s\":{},\"comm_s\":{},\
                         \"msgs_sent\":{},\"msgs_recv\":{},\"bytes_sent\":{},\"bytes_recv\":{}}}}}",
                        e.phase.label(),
                        e.rank,
                        ts,
                        dur,
                        e.superstep,
                        e.epoch,
                        json_f64(e.compute_s),
                        json_f64(e.comm_s),
                        e.msgs_sent,
                        e.msgs_recv,
                        e.bytes_sent,
                        e.bytes_recv
                    ),
                    &mut first,
                );
            }
            TraceEvent::Iteration(e) => {
                push(
                    format!(
                        "{{\"name\":\"iteration {}\",\"cat\":\"driver\",\"ph\":\"i\",\"s\":\"g\",\
                         \"pid\":0,\"tid\":{},\"ts\":{:.3},\"args\":{{\"time_s\":{}}}}}",
                        e.iter,
                        DRIVER_TID,
                        e.time_s * 1e6,
                        json_f64(e.time_s)
                    ),
                    &mut first,
                );
            }
            TraceEvent::Redistribution(e) => {
                push(
                    format!(
                        "{{\"name\":\"redistribution ({})\",\"cat\":\"driver\",\"ph\":\"i\",\
                         \"s\":\"g\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\
                         \"args\":{{\"iter\":{},\"cost_s\":{}}}}}",
                        e.trigger.label(),
                        DRIVER_TID,
                        e.cost_s * 1e6,
                        e.iter,
                        json_f64(e.cost_s)
                    ),
                    &mut first,
                );
            }
            TraceEvent::Fault(e) => {
                push(
                    format!(
                        "{{\"name\":\"fault: {}\",\"cat\":\"driver\",\"ph\":\"i\",\"s\":\"g\",\
                         \"pid\":0,\"tid\":{},\"ts\":0,\"args\":{{\"rank\":{}}}}}",
                        json_escape(&e.cause),
                        DRIVER_TID,
                        json_opt_usize(e.rank)
                    ),
                    &mut first,
                );
            }
            TraceEvent::Checkpoint(e) => {
                push(
                    format!(
                        "{{\"name\":\"checkpoint {} (iter {})\",\"cat\":\"driver\",\"ph\":\"i\",\
                         \"s\":\"g\",\"pid\":0,\"tid\":{},\"ts\":0,\"args\":{{\"bytes\":{}}}}}",
                        e.action.label(),
                        e.iter,
                        DRIVER_TID,
                        e.bytes
                    ),
                    &mut first,
                );
            }
            TraceEvent::PolicyDecision(e) => {
                push(
                    format!(
                        "{{\"name\":\"policy {}\",\"cat\":\"driver\",\"ph\":\"i\",\"s\":\"g\",\
                         \"pid\":0,\"tid\":{},\"ts\":{:.3},\"args\":{{\"iter\":{},\
                         \"projected_loss_s\":{},\"threshold_s\":{},\"fired\":{}}}}}",
                        if e.fired { "fired" } else { "held" },
                        DRIVER_TID,
                        e.time_s * 1e6,
                        e.iter,
                        json_f64(e.projected_loss_s),
                        json_f64(e.threshold_s),
                        e.fired
                    ),
                    &mut first,
                );
            }
            TraceEvent::RankLoad(e) => {
                let mut args = String::new();
                for (rank, c) in e.counts.iter().enumerate() {
                    if rank > 0 {
                        args.push(',');
                    }
                    let _ = write!(args, "\"rank {rank}\":{c}");
                }
                push(
                    format!(
                        "{{\"name\":\"particles\",\"cat\":\"load\",\"ph\":\"C\",\"pid\":0,\
                         \"ts\":{:.3},\"args\":{{{args}}}}}",
                        e.time_s * 1e6
                    ),
                    &mut first,
                );
            }
            // Rank spans already cover the aggregate; use it as the
            // flush point for the per-superstep exchange-bytes counter.
            TraceEvent::Superstep(e) => {
                if step_bytes.values().any(|&b| b > 0) {
                    let mut args = String::new();
                    for (i, (rank, bytes)) in step_bytes.iter().enumerate() {
                        if i > 0 {
                            args.push(',');
                        }
                        let _ = write!(args, "\"rank {rank}\":{bytes}");
                    }
                    push(
                        format!(
                            "{{\"name\":\"exchange bytes\",\"cat\":\"load\",\"ph\":\"C\",\
                             \"pid\":0,\"ts\":{:.3},\"args\":{{{args}}}}}",
                            e.start_s * 1e6
                        ),
                        &mut first,
                    );
                }
                step_bytes.clear();
            }
        }
    }
    out.push_str("]}");
    out
}

/// Linear-interpolated percentile of an **unsorted** sample
/// (`q` in `[0, 1]`; `q = 0.5` is the median).  Returns 0 for an empty
/// sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Aggregated distribution of one phase's superstep durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseMetrics {
    /// The phase.
    pub phase: PhaseKind,
    /// Number of supersteps/collectives of this phase.
    pub count: u64,
    /// Summed duration over them.
    pub total_s: f64,
    /// Median superstep duration.
    pub p50_s: f64,
    /// 95th-percentile superstep duration.
    pub p95_s: f64,
    /// Longest superstep duration.
    pub max_s: f64,
    /// Summed off-rank messages.
    pub total_msgs: u64,
    /// Summed off-rank bytes.
    pub total_bytes: u64,
}

/// Per-phase p50/p95/max aggregation over a recorded event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    phases: Vec<PhaseMetrics>,
}

impl MetricsReport {
    /// Aggregate the superstep rows in `events` by phase (ordered
    /// by descending total time).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut phases = Vec::new();
        for phase in PhaseKind::ALL {
            let durations: Vec<f64> = events
                .iter()
                .filter_map(TraceEvent::superstep)
                .filter(|e| e.phase == phase)
                .map(|e| e.elapsed_s)
                .collect();
            if durations.is_empty() {
                continue;
            }
            let (msgs, bytes) = events
                .iter()
                .filter_map(TraceEvent::superstep)
                .filter(|e| e.phase == phase)
                .fold((0u64, 0u64), |(m, b), e| {
                    (m + e.total_msgs, b + e.total_bytes)
                });
            phases.push(PhaseMetrics {
                phase,
                count: durations.len() as u64,
                total_s: durations.iter().sum(),
                p50_s: percentile(&durations, 0.50),
                p95_s: percentile(&durations, 0.95),
                max_s: durations.iter().copied().fold(0.0, f64::max),
                total_msgs: msgs,
                total_bytes: bytes,
            });
        }
        phases.sort_by(|a, b| b.total_s.partial_cmp(&a.total_s).expect("finite totals"));
        Self { phases }
    }

    /// The per-phase rows, ordered by descending total time.
    pub fn phases(&self) -> &[PhaseMetrics] {
        &self.phases
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>12}",
            "phase", "steps", "total_s", "p50_s", "p95_s", "max_s", "msgs", "bytes"
        );
        for m in &self.phases {
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>12.6} {:>12.9} {:>12.9} {:>12.9} {:>10} {:>12}",
                m.phase.label(),
                m.count,
                m.total_s,
                m.p50_s,
                m.p95_s,
                m.max_s,
                m.total_msgs,
                m.total_bytes
            );
        }
        out
    }

    /// CSV header matching [`MetricsReport::csv_rows`].
    pub const CSV_HEADER: &'static str = "phase,steps,total_s,p50_s,p95_s,max_s,msgs,bytes";

    /// The rows as CSV (one per phase).
    pub fn csv_rows(&self) -> Vec<String> {
        self.phases
            .iter()
            .map(|m| {
                format!(
                    "{},{},{:.9},{:.9},{:.9},{:.9},{},{}",
                    m.phase.label(),
                    m.count,
                    m.total_s,
                    m.p50_s,
                    m.p95_s,
                    m.max_s,
                    m.total_msgs,
                    m.total_bytes
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: usize, phase: PhaseKind, elapsed: f64) -> TraceEvent {
        TraceEvent::Span(SpanEvent {
            rank,
            phase,
            superstep: 0,
            epoch: 0,
            start_s: 0.0,
            compute_s: elapsed / 2.0,
            comm_s: elapsed / 2.0,
            end_s: elapsed,
            msgs_sent: 1,
            msgs_recv: 1,
            bytes_sent: 8,
            bytes_recv: 8,
        })
    }

    fn step(phase: PhaseKind, elapsed: f64) -> TraceEvent {
        TraceEvent::Superstep(SuperstepStats {
            elapsed_s: elapsed,
            max_compute_s: elapsed,
            total_msgs: 2,
            total_bytes: 16,
            ..SuperstepStats::empty(phase)
        })
    }

    #[test]
    fn json_lines_one_object_per_line() {
        let mut rec = JsonLinesRecorder::new(Vec::new());
        rec.record(&span(0, PhaseKind::Scatter, 1.0));
        rec.record(&step(PhaseKind::Scatter, 1.0));
        rec.record(&TraceEvent::Fault(FaultEvent {
            rank: Some(2),
            phase: None,
            superstep: None,
            epoch: Some(7),
            cause: "panic: \"quoted\"\nwith newline".into(),
        }));
        assert_eq!(rec.written(), 3);
        let text = String::from_utf8(rec.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"event\":\"span\""));
        assert!(lines[2].contains("\\\"quoted\\\""));
        assert!(lines[2].contains("\\n"));
    }

    #[test]
    fn every_event_kind_serializes_to_one_json_object() {
        let events = [
            span(0, PhaseKind::Push, 1.0),
            step(PhaseKind::Push, 1.0),
            TraceEvent::Iteration(IterationRecord {
                iter: 1,
                time_s: 1.0,
                compute_s: 0.5,
                comm_s: 0.5,
                scatter_max_bytes_sent: 64,
                scatter_max_bytes_recv: 64,
                scatter_max_msgs_sent: 2,
                scatter_max_msgs_recv: 2,
                redistributed: false,
                redistribute_s: 0.0,
                max_particles: 10,
                min_particles: 10,
            }),
            TraceEvent::Redistribution(RedistributionEvent {
                iter: 1,
                trigger: RedistributionTrigger::Policy,
                cost_s: 0.1,
            }),
            TraceEvent::Fault(FaultEvent {
                rank: None,
                phase: Some(PhaseKind::Scatter),
                superstep: Some(3),
                epoch: None,
                cause: "a, b\nsecond line".into(),
            }),
            TraceEvent::Checkpoint(CheckpointEvent {
                iter: 5,
                bytes: 1234,
                action: CheckpointAction::Saved,
            }),
            TraceEvent::PolicyDecision(PolicyDecisionEvent {
                iter: 7,
                time_s: 1.25,
                observed_s: 0.2,
                baseline_s: 0.1,
                projected_loss_s: 0.5,
                threshold_s: 0.4,
                fired: true,
            }),
            TraceEvent::RankLoad(RankLoadEvent {
                iter: 7,
                time_s: 1.25,
                counts: vec![10, 20, 30],
            }),
        ];
        for ev in &events {
            let json = ev.to_json();
            let kind = ev.kind();
            assert!(
                json.starts_with(&format!("{{\"event\":\"{kind}\"")),
                "{json}"
            );
            assert_eq!(
                json.matches('{').count(),
                json.matches('}').count(),
                "{json}"
            );
            assert_eq!(
                json.matches('[').count(),
                json.matches(']').count(),
                "{json}"
            );
            assert!(!json.contains('\n'), "{json}");
        }
    }

    #[test]
    fn policy_and_rank_load_events_serialize() {
        let d = TraceEvent::PolicyDecision(PolicyDecisionEvent {
            iter: 11,
            time_s: 2.0,
            observed_s: 0.3,
            baseline_s: 0.1,
            projected_loss_s: 0.8,
            threshold_s: 0.75,
            fired: true,
        });
        let json = d.to_json();
        assert!(json.contains("\"event\":\"policy_decision\""));
        assert!(json.contains("\"fired\":true"));
        assert!(json.contains("\"threshold_s\":0.75"));
        assert!(d.policy_decision().is_some());
        let l = TraceEvent::RankLoad(RankLoadEvent {
            iter: 11,
            time_s: 2.0,
            counts: vec![5, 6],
        });
        let json = l.to_json();
        assert!(json.contains("\"event\":\"rank_load\""));
        assert!(json.contains("\"counts\":[5,6]"));
        assert_eq!(l.rank_load().unwrap().counts, vec![5, 6]);
    }

    #[test]
    fn multi_recorder_fans_out() {
        let a = SharedRecorder::new(MemoryRecorder::new());
        let b = SharedRecorder::new(MemoryRecorder::new());
        let mut multi = MultiRecorder::new()
            .with(Box::new(a.clone()))
            .with(Box::new(b.clone()));
        multi.record(&step(PhaseKind::Other, 1.0));
        assert_eq!(a.with(|r| r.events().len()), 1);
        assert_eq!(b.with(|r| r.events().len()), 1);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((percentile(&v, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_aggregate_by_phase() {
        let mut events = Vec::new();
        for i in 0..10 {
            events.push(step(PhaseKind::Scatter, 1.0 + i as f64));
        }
        events.push(step(PhaseKind::Push, 0.5));
        let report = MetricsReport::from_events(&events);
        assert_eq!(report.phases().len(), 2);
        let scatter = report.phases()[0];
        assert_eq!(scatter.phase, PhaseKind::Scatter);
        assert_eq!(scatter.count, 10);
        assert_eq!(scatter.max_s, 10.0);
        assert!((scatter.p50_s - 5.5).abs() < 1e-12);
        assert!((scatter.total_s - 55.0).abs() < 1e-12);
        assert_eq!(scatter.total_msgs, 20);
        let rendered = report.render();
        assert!(rendered.contains("scatter"));
        assert!(rendered.contains("push"));
        assert_eq!(report.csv_rows().len(), 2);
    }

    #[test]
    fn chrome_trace_is_wellformed_and_tracks_ranks() {
        let events = [
            span(0, PhaseKind::Scatter, 1.0),
            span(1, PhaseKind::Scatter, 1.5),
            step(PhaseKind::Scatter, 1.5),
            TraceEvent::Redistribution(RedistributionEvent {
                iter: 3,
                trigger: RedistributionTrigger::Setup,
                cost_s: 0.25,
            }),
        ];
        let json = chrome_trace(&events);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"tid\":0"));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        // superstep events are not duplicated into the trace
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        // ...but flush the per-superstep exchange-bytes counter sample
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 1);
        assert!(json.contains("\"name\":\"exchange bytes\""));
        assert!(json.contains("\"rank 0\":8,\"rank 1\":8"));
        // balanced braces/brackets (cheap well-formedness check)
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_emits_particle_counters_and_policy_instants() {
        let events = [
            TraceEvent::RankLoad(RankLoadEvent {
                iter: 1,
                time_s: 0.5,
                counts: vec![100, 50],
            }),
            TraceEvent::PolicyDecision(PolicyDecisionEvent {
                iter: 1,
                time_s: 0.5,
                observed_s: 0.2,
                baseline_s: 0.1,
                projected_loss_s: 0.1,
                threshold_s: 0.4,
                fired: false,
            }),
        ];
        let json = chrome_trace(&events);
        assert!(json.contains("\"name\":\"particles\""));
        assert!(json.contains("\"rank 0\":100,\"rank 1\":50"));
        assert!(json.contains("\"name\":\"policy held\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
