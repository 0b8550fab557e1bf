//! Zero-dependency metrics registry: counters, gauges, fixed-bucket
//! histograms, and a rank-pair communication matrix.
//!
//! The trace layer ([`crate::trace`]) answers *"what happened, in
//! order?"* — an event stream.  This module answers *"how much, in
//! total?"* — cheap aggregates a long-running service can expose on a
//! scrape endpoint.  The two are fed from the same per-operation record
//! in the engines, and both are strictly pay-when-enabled: a
//! machine with no [`SharedMetrics`] installed takes a single
//! `Option::is_some` branch per superstep and allocates nothing (the
//! `alloc_free` oracle test runs without metrics and still asserts zero
//! steady-state allocations).
//!
//! ## Structure
//!
//! * [`MetricsRegistry`] — the store.  Per-phase families (superstep
//!   counts, seconds, message/byte totals, a duration histogram per
//!   [`PhaseKind`]), named global counters/gauges, named per-rank
//!   gauges, and a [`CommMatrix`].
//! * [`CommMatrix`] — dense `p × p` send *and* receive tallies.  Sender
//!   and receiver sides are recorded independently (on the threaded
//!   engine, literally from the two ends of the mailbox exchange), so
//!   the conservation check `sent(i→j) == recv(j←i)` is a genuine
//!   end-to-end invariant rather than a tautology.
//! * [`Histogram`] — fixed log-spaced buckets; no allocation after
//!   construction.
//! * [`SharedMetrics`] — `Arc<Mutex<MetricsRegistry>>` handle cloned
//!   into engines (through their [`Instruments`](crate::Instruments))
//!   and the driver.  Engines lock it **once per superstep**, never per
//!   message.
//! * [`MetricsRegistry::prometheus_text`] — Prometheus text-format
//!   snapshot writer (the first of the two exporters; the second is the
//!   HTML/SVG dashboard in `pic-bench`).
//!
//! Collective supersteps have no literal point-to-point messages in the
//! modeled engine and butterfly-stage messages in the threaded one; both
//! engines attribute them to the matrix uniformly as one logical message
//! of the per-pair share to every ordered pair `(i, j), i != j`, so the
//! matrices of a cross-validated modeled/threaded pair of runs are
//! comparable entry for entry.

use crate::record::SuperstepRecord;
use crate::stats::PhaseKind;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Dense slot index of a phase inside the registry's per-phase arrays.
///
/// Deliberately an exhaustive match with **no wildcard arm**: adding a
/// `PhaseKind` variant fails compilation here until the new phase gets a
/// metric family, which is the "every phase has a registered family"
/// lint the CI test suite relies on.
pub fn phase_slot(phase: PhaseKind) -> usize {
    match phase {
        PhaseKind::Scatter => 0,
        PhaseKind::FieldSolve => 1,
        PhaseKind::Gather => 2,
        PhaseKind::Push => 3,
        PhaseKind::Redistribute => 4,
        PhaseKind::Setup => 5,
        PhaseKind::Other => 6,
    }
}

/// Upper bounds (seconds) of the fixed histogram buckets; a final
/// implicit `+Inf` bucket catches the rest.  Log-spaced so the same
/// bounds resolve both modeled CM-5 superstep times (~1e-3 s) and
/// wall-clock threaded times (~1e-5 s).
pub const DURATION_BUCKETS_S: [f64; 10] =
    [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0];

/// Fixed-bucket histogram of `f64` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Cumulative-style raw counts per bucket; `counts[i]` holds
    /// observations `<= DURATION_BUCKETS_S[i]` and not in an earlier
    /// bucket, and the final entry is the `+Inf` overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// An empty histogram over [`DURATION_BUCKETS_S`].
    pub fn new() -> Self {
        Self {
            counts: vec![0; DURATION_BUCKETS_S.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        let slot = DURATION_BUCKETS_S
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(DURATION_BUCKETS_S.len());
        self.counts[slot] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Cumulative count of observations `<=` bucket `i` of
    /// [`DURATION_BUCKETS_S`]; `i == DURATION_BUCKETS_S.len()` is `+Inf`
    /// and equals [`Histogram::count`].
    pub fn cumulative(&self, i: usize) -> u64 {
        self.counts[..=i].iter().sum()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Dense rank-pair communication tallies (row = source, column =
/// destination), with send and receive sides recorded independently.
#[derive(Debug, Clone, PartialEq)]
pub struct CommMatrix {
    ranks: usize,
    sent_msgs: Vec<u64>,
    sent_bytes: Vec<u64>,
    recv_msgs: Vec<u64>,
    recv_bytes: Vec<u64>,
}

impl CommMatrix {
    /// An all-zero `ranks × ranks` matrix.
    pub fn new(ranks: usize) -> Self {
        let n = ranks * ranks;
        Self {
            ranks,
            sent_msgs: vec![0; n],
            sent_bytes: vec![0; n],
            recv_msgs: vec![0; n],
            recv_bytes: vec![0; n],
        }
    }

    /// Number of ranks (matrix side length).
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    fn idx(&self, from: usize, to: usize) -> usize {
        from * self.ranks + to
    }

    /// Record, on the **sender** side, `msgs` messages totalling `bytes`
    /// going from `from` to `to`.
    pub fn record_send(&mut self, from: usize, to: usize, msgs: u64, bytes: u64) {
        let i = self.idx(from, to);
        self.sent_msgs[i] += msgs;
        self.sent_bytes[i] += bytes;
    }

    /// Record, on the **receiver** side, `msgs` messages totalling
    /// `bytes` arriving at `to` from `from`.
    pub fn record_recv(&mut self, to: usize, from: usize, msgs: u64, bytes: u64) {
        let i = self.idx(from, to);
        self.recv_msgs[i] += msgs;
        self.recv_bytes[i] += bytes;
    }

    /// Sender-side tallies for the ordered pair: `(msgs, bytes)`.
    pub fn sent(&self, from: usize, to: usize) -> (u64, u64) {
        let i = self.idx(from, to);
        (self.sent_msgs[i], self.sent_bytes[i])
    }

    /// Receiver-side tallies for the ordered pair: `(msgs, bytes)`.
    pub fn received(&self, from: usize, to: usize) -> (u64, u64) {
        let i = self.idx(from, to);
        (self.recv_msgs[i], self.recv_bytes[i])
    }

    /// Total bytes recorded on the sender side.
    pub fn total_sent_bytes(&self) -> u64 {
        self.sent_bytes.iter().sum()
    }

    /// Largest sender-side byte tally over all ordered pairs.
    pub fn max_pair_bytes(&self) -> u64 {
        self.sent_bytes.iter().copied().max().unwrap_or(0)
    }

    /// `true` iff for every ordered pair the sender-side tallies equal
    /// the receiver-side tallies — every message sent was received,
    /// byte for byte.
    pub fn is_conserved(&self) -> bool {
        self.sent_msgs == self.recv_msgs && self.sent_bytes == self.recv_bytes
    }

    /// CSV header matching [`CommMatrix::csv_rows`].
    pub const CSV_HEADER: &'static str = "src,dst,sent_msgs,sent_bytes,recv_msgs,recv_bytes";

    /// One CSV row per ordered pair with nonzero traffic.
    pub fn csv_rows(&self) -> Vec<String> {
        let mut rows = Vec::new();
        for from in 0..self.ranks {
            for to in 0..self.ranks {
                let i = self.idx(from, to);
                if self.sent_msgs[i] == 0 && self.recv_msgs[i] == 0 {
                    continue;
                }
                rows.push(format!(
                    "{},{},{},{},{},{}",
                    from,
                    to,
                    self.sent_msgs[i],
                    self.sent_bytes[i],
                    self.recv_msgs[i],
                    self.recv_bytes[i]
                ));
            }
        }
        rows
    }
}

/// Per-[`PhaseKind`] metric family: superstep counts, time, traffic, and
/// a duration histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseFamily {
    /// Supersteps recorded for this phase.
    pub supersteps: u64,
    /// Summed superstep elapsed seconds.
    pub seconds: f64,
    /// Summed off-rank messages across ranks and supersteps.
    pub msgs: u64,
    /// Summed off-rank bytes across ranks and supersteps.
    pub bytes: u64,
    /// Distribution of superstep durations.
    pub duration: Histogram,
}

/// The metrics store: phase families, named counters/gauges (global and
/// per-rank), and the communication matrix.
///
/// Not thread-safe by itself; share through [`SharedMetrics`].  Named
/// series use `BTreeMap` so [`MetricsRegistry::prometheus_text`] output
/// is deterministic.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    ranks: usize,
    phases: Vec<PhaseFamily>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    rank_gauges: BTreeMap<String, Vec<f64>>,
    comm: CommMatrix,
}

impl MetricsRegistry {
    /// A fresh registry for a `ranks`-rank machine with one family per
    /// [`PhaseKind`] pre-registered.
    pub fn new(ranks: usize) -> Self {
        Self {
            ranks,
            phases: vec![PhaseFamily::default(); PhaseKind::ALL.len()],
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            rank_gauges: BTreeMap::new(),
            comm: CommMatrix::new(ranks),
        }
    }

    /// Number of ranks this registry was built for.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The metric family of `phase`.
    pub fn phase(&self, phase: PhaseKind) -> &PhaseFamily {
        &self.phases[phase_slot(phase)]
    }

    /// The communication matrix.
    pub fn comm(&self) -> &CommMatrix {
        &self.comm
    }

    /// Mutable communication matrix.
    pub fn comm_mut(&mut self) -> &mut CommMatrix {
        &mut self.comm
    }

    /// Record one operation: its phase family entry plus its
    /// communication-matrix tallies.  A point-to-point superstep adds
    /// the sender- and receiver-side pair tallies its engine logged; a
    /// collective is attributed uniformly (every ordered pair `i != j`
    /// exchanges one logical message of the collective's share).
    pub(crate) fn observe(&mut self, rec: &SuperstepRecord) {
        let (msgs, bytes) = (rec.total_msgs(), rec.total_bytes());
        if let Some(share) = rec.collective_share {
            self.observe_collective(rec.phase, rec.elapsed_s, share, msgs, bytes);
            return;
        }
        for &(from, to, bytes) in &rec.sent_pairs {
            self.comm.record_send(from, to, 1, bytes);
        }
        for &(from, to, bytes) in &rec.recv_pairs {
            self.comm.record_recv(to, from, 1, bytes);
        }
        self.observe_superstep(rec.phase, rec.elapsed_s, msgs, bytes);
    }

    /// Record one superstep into `phase`'s family.
    fn observe_superstep(&mut self, phase: PhaseKind, elapsed_s: f64, msgs: u64, bytes: u64) {
        let fam = &mut self.phases[phase_slot(phase)];
        fam.supersteps += 1;
        fam.seconds += elapsed_s;
        fam.msgs += msgs;
        fam.bytes += bytes;
        fam.duration.observe(elapsed_s);
    }

    /// Record a collective superstep: the phase family entry plus the
    /// uniform pair attribution of `share_bytes`.
    fn observe_collective(
        &mut self,
        phase: PhaseKind,
        elapsed_s: f64,
        share_bytes: u64,
        msgs: u64,
        bytes: u64,
    ) {
        self.observe_superstep(phase, elapsed_s, msgs, bytes);
        for from in 0..self.ranks {
            for to in 0..self.ranks {
                if from != to {
                    self.comm.record_send(from, to, 1, share_bytes);
                    self.comm.record_recv(to, from, 1, share_bytes);
                }
            }
        }
    }

    /// Add `delta` to the named global counter, creating it at zero.
    pub fn inc(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of a named global counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set the named global gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of a named global gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Set one rank's slot of a named per-rank gauge vector.
    pub fn set_rank_gauge(&mut self, name: &str, rank: usize, value: f64) {
        let ranks = self.ranks;
        let v = self
            .rank_gauges
            .entry(name.to_string())
            .or_insert_with(|| vec![0.0; ranks]);
        v[rank] = value;
    }

    /// The per-rank values of a named gauge, if ever set.
    pub fn rank_gauge(&self, name: &str) -> Option<&[f64]> {
        self.rank_gauges.get(name).map(|v| v.as_slice())
    }

    /// Render the registry as a Prometheus text-format snapshot.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();

        out.push_str("# HELP pic_phase_supersteps_total Supersteps recorded per phase.\n");
        out.push_str("# TYPE pic_phase_supersteps_total counter\n");
        for &p in &PhaseKind::ALL {
            let fam = self.phase(p);
            out.push_str(&format!(
                "pic_phase_supersteps_total{{phase=\"{}\"}} {}\n",
                p.label(),
                fam.supersteps
            ));
        }

        out.push_str("# HELP pic_phase_msgs_total Off-rank messages per phase.\n");
        out.push_str("# TYPE pic_phase_msgs_total counter\n");
        for &p in &PhaseKind::ALL {
            out.push_str(&format!(
                "pic_phase_msgs_total{{phase=\"{}\"}} {}\n",
                p.label(),
                self.phase(p).msgs
            ));
        }

        out.push_str("# HELP pic_phase_bytes_total Off-rank bytes per phase.\n");
        out.push_str("# TYPE pic_phase_bytes_total counter\n");
        for &p in &PhaseKind::ALL {
            out.push_str(&format!(
                "pic_phase_bytes_total{{phase=\"{}\"}} {}\n",
                p.label(),
                self.phase(p).bytes
            ));
        }

        out.push_str("# HELP pic_phase_seconds Superstep duration per phase.\n");
        out.push_str("# TYPE pic_phase_seconds histogram\n");
        for &p in &PhaseKind::ALL {
            let fam = self.phase(p);
            for (i, b) in DURATION_BUCKETS_S.iter().enumerate() {
                out.push_str(&format!(
                    "pic_phase_seconds_bucket{{phase=\"{}\",le=\"{}\"}} {}\n",
                    p.label(),
                    b,
                    fam.duration.cumulative(i)
                ));
            }
            out.push_str(&format!(
                "pic_phase_seconds_bucket{{phase=\"{}\",le=\"+Inf\"}} {}\n",
                p.label(),
                fam.duration.count()
            ));
            out.push_str(&format!(
                "pic_phase_seconds_sum{{phase=\"{}\"}} {}\n",
                p.label(),
                fam.duration.sum()
            ));
            out.push_str(&format!(
                "pic_phase_seconds_count{{phase=\"{}\"}} {}\n",
                p.label(),
                fam.duration.count()
            ));
        }

        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, vals) in &self.rank_gauges {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            for (rank, v) in vals.iter().enumerate() {
                out.push_str(&format!("{name}{{rank=\"{rank}\"}} {v}\n"));
            }
        }

        out.push_str("# HELP pic_comm_sent_bytes_total Sender-side bytes per rank pair.\n");
        out.push_str("# TYPE pic_comm_sent_bytes_total counter\n");
        for from in 0..self.ranks {
            for to in 0..self.ranks {
                let (msgs, bytes) = self.comm.sent(from, to);
                if msgs > 0 {
                    out.push_str(&format!(
                        "pic_comm_sent_bytes_total{{src=\"{from}\",dst=\"{to}\"}} {bytes}\n"
                    ));
                }
            }
        }
        out
    }
}

/// Cloneable handle to a [`MetricsRegistry`] shared between the driving
/// thread, the engines, and exporters.
#[derive(Debug, Clone)]
pub struct SharedMetrics {
    inner: Arc<Mutex<MetricsRegistry>>,
}

impl SharedMetrics {
    /// A fresh shared registry for `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(MetricsRegistry::new(ranks))),
        }
    }

    /// Run `f` with the registry locked.
    pub fn with<T>(&self, f: impl FnOnce(&mut MetricsRegistry) -> T) -> T {
        let mut guard = self.inner.lock().expect("metrics mutex poisoned");
        f(&mut guard)
    }

    /// Clone out a point-in-time snapshot of the registry.
    pub fn snapshot(&self) -> MetricsRegistry {
        self.with(|r| r.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_phase_kind_has_a_registered_family() {
        // The CI lint: `phase_slot` is an exhaustive match (no wildcard),
        // so this test plus the match itself guarantee a new PhaseKind
        // cannot ship without a metric family.  Slots must be unique and
        // cover the registry's family vector exactly.
        let reg = MetricsRegistry::new(4);
        let mut seen = vec![false; PhaseKind::ALL.len()];
        for &p in &PhaseKind::ALL {
            let slot = phase_slot(p);
            assert!(!seen[slot], "duplicate slot for {:?}", p);
            seen[slot] = true;
            // Family is addressable and starts empty.
            assert_eq!(reg.phase(p).supersteps, 0);
        }
        assert!(seen.iter().all(|&s| s), "every slot covered");
        // And the Prometheus snapshot names every phase.
        let text = reg.prometheus_text();
        for &p in &PhaseKind::ALL {
            assert!(
                text.contains(&format!("phase=\"{}\"", p.label())),
                "missing {} in snapshot",
                p.label()
            );
        }
    }

    #[test]
    fn histogram_buckets_and_sums() {
        let mut h = Histogram::new();
        h.observe(5e-7); // first bucket
        h.observe(5e-4); // <= 1e-3
        h.observe(2e3); // overflow
        assert_eq!(h.count(), 3);
        assert!((h.sum() - (5e-7 + 5e-4 + 2e3)).abs() < 1e-9);
        assert_eq!(h.cumulative(0), 1); // <= 1e-6
        assert_eq!(h.cumulative(3), 2); // <= 1e-3
        assert_eq!(h.cumulative(DURATION_BUCKETS_S.len()), 3); // +Inf
    }

    #[test]
    fn comm_matrix_conservation_detects_mismatch() {
        let mut m = CommMatrix::new(3);
        m.record_send(0, 1, 2, 100);
        m.record_recv(1, 0, 2, 100);
        assert!(m.is_conserved());
        assert_eq!(m.sent(0, 1), (2, 100));
        assert_eq!(m.received(0, 1), (2, 100));
        m.record_send(2, 0, 1, 7);
        assert!(!m.is_conserved(), "unreceived send must break conservation");
        m.record_recv(0, 2, 1, 7);
        assert!(m.is_conserved());
        assert_eq!(m.total_sent_bytes(), 107);
        assert_eq!(m.max_pair_bytes(), 100);
        assert_eq!(m.csv_rows().len(), 2);
    }

    #[test]
    fn collective_attribution_is_uniform_and_conserved() {
        let mut reg = MetricsRegistry::new(4);
        reg.observe_collective(PhaseKind::FieldSolve, 1e-3, 64, 8, 512);
        assert!(reg.comm().is_conserved());
        for i in 0..4 {
            for j in 0..4 {
                let (msgs, bytes) = reg.comm().sent(i, j);
                if i == j {
                    assert_eq!((msgs, bytes), (0, 0));
                } else {
                    assert_eq!((msgs, bytes), (1, 64));
                }
            }
        }
        assert_eq!(reg.phase(PhaseKind::FieldSolve).supersteps, 1);
        assert_eq!(reg.phase(PhaseKind::FieldSolve).bytes, 512);
    }

    #[test]
    fn counters_gauges_and_rank_gauges_round_trip() {
        let mut reg = MetricsRegistry::new(2);
        reg.inc("pic_faults_total", 1);
        reg.inc("pic_faults_total", 2);
        assert_eq!(reg.counter("pic_faults_total"), 3);
        assert_eq!(reg.counter("never_touched"), 0);
        reg.set_gauge("pic_imbalance_factor", 1.25);
        assert_eq!(reg.gauge("pic_imbalance_factor"), Some(1.25));
        reg.set_rank_gauge("pic_rank_particles", 1, 42.0);
        assert_eq!(reg.rank_gauge("pic_rank_particles"), Some(&[0.0, 42.0][..]));
        let text = reg.prometheus_text();
        assert!(text.contains("pic_faults_total 3"));
        assert!(text.contains("pic_imbalance_factor 1.25"));
        assert!(text.contains("pic_rank_particles{rank=\"1\"} 42"));
    }

    #[test]
    fn shared_metrics_snapshot_is_point_in_time() {
        let shared = SharedMetrics::new(2);
        shared.with(|r| r.inc("c", 1));
        let snap = shared.snapshot();
        shared.with(|r| r.inc("c", 1));
        assert_eq!(snap.counter("c"), 1);
        assert_eq!(shared.snapshot().counter("c"), 2);
    }
}
