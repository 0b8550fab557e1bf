//! Observability artifact generator: one 8-rank run, every exporter.
//!
//! Three seeded runs of the same irregular 8-rank workload produce the
//! committed `results/` artifacts of the metrics subsystem:
//!
//! * **Run A** — modeled machine under the paper's stop-at-rise
//!   (`DynamicSar`) policy, recorder + metrics registry installed:
//!   - `sar_audit.csv` — every [`pic_machine::trace::PolicyDecisionEvent`],
//!     one row per iteration: the full Eq. 1 audit trail;
//!   - `comm_matrix.csv` — rank-pair messages/bytes, sender and
//!     receiver tallies side by side;
//!   - `metrics_snapshot.prom` — the Prometheus text exposition of the
//!     final registry state;
//! * **Runs B/C** — the same phase program (measurement-independent
//!   `Periodic` policy) on the modeled and the real-threads executor:
//!   - `model_error.csv` — the measured-vs-modeled per-phase report
//!     (paper Section 4, Figures 17–19);
//! * `dashboard.html` — the self-contained HTML/SVG dashboard over Run
//!   A's trace plus the model-error table.
//!
//! Usage: `observability_dashboard [--iters N | --quick]`

use std::path::Path;

use pic_bench::{render_dashboard, write_csv};
use pic_core::{model_error_report, ModelErrorReport, SimConfig};
use pic_index::IndexScheme;
use pic_machine::{
    Instruments, MachineConfig, MemoryRecorder, SharedMetrics, SharedRecorder, TraceEvent,
};
use pic_particles::ParticleDistribution;
use pic_partition::PolicyKind;

const RANKS: usize = 8;

fn cfg(policy: PolicyKind) -> SimConfig {
    SimConfig {
        nx: 64,
        ny: 32,
        particles: 8192,
        machine: MachineConfig::cm5(RANKS),
        distribution: ParticleDistribution::IrregularCenter,
        scheme: IndexScheme::Hilbert,
        policy,
        seed: 7,
        ..SimConfig::small_test()
    }
}

/// Run `iters` observed iterations; return the trace and the registry.
fn observed_run<E: pic_machine::SpmdEngine<pic_core::RankState>>(
    cfg: SimConfig,
    iters: usize,
) -> (Vec<TraceEvent>, SharedMetrics) {
    let recorder = SharedRecorder::new(MemoryRecorder::new());
    let metrics = SharedMetrics::new(cfg.machine.ranks);
    let instruments = Instruments {
        fault_plan: None,
        recorder: Some(Box::new(recorder.clone())),
        metrics: Some(metrics.clone()),
    };
    let mut sim = pic_core::GenericPicSim::<E>::try_new_instrumented(cfg, instruments)
        .expect("fault-free setup");
    for _ in 0..iters {
        sim.try_step().expect("fault-free iteration");
    }
    (recorder.with(|r| r.events().to_vec()), metrics)
}

fn sar_audit_rows(events: &[TraceEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(TraceEvent::policy_decision)
        .map(|d| {
            format!(
                "{},{:.9},{:.9},{:.9},{:.9},{:.9},{}",
                d.iter,
                d.time_s,
                d.observed_s,
                d.baseline_s,
                d.projected_loss_s,
                d.threshold_s,
                d.fired
            )
        })
        .collect()
}

fn model_validation(iters: usize) -> ModelErrorReport {
    // same measurement-independent phase program on both executors,
    // so the traces pair superstep for superstep
    let periodic = cfg(PolicyKind::Periodic(10));
    let (modeled, _) =
        observed_run::<pic_machine::Machine<pic_core::RankState>>(periodic.clone(), iters);
    let (measured, _) =
        observed_run::<pic_machine::ThreadedMachine<pic_core::RankState>>(periodic, iters);
    model_error_report(&modeled, &measured)
}

fn main() {
    let iters = pic_bench::iters_from_args(60);
    println!("Observability dashboard: {RANKS}-rank irregular workload, {iters} iterations\n");

    // Run A: the audited stop-at-rise run
    let (events, metrics) = observed_run::<pic_machine::Machine<pic_core::RankState>>(
        cfg(PolicyKind::DynamicSar),
        iters,
    );
    let reg = metrics.snapshot();
    write_csv(
        Path::new("results"),
        "sar_audit.csv",
        "iter,time_s,observed_s,baseline_s,projected_loss_s,threshold_s,fired",
        &sar_audit_rows(&events),
    );
    write_csv(
        Path::new("results"),
        "comm_matrix.csv",
        pic_machine::CommMatrix::CSV_HEADER,
        &reg.comm().csv_rows(),
    );
    std::fs::write("results/metrics_snapshot.prom", reg.prometheus_text())
        .expect("write results/metrics_snapshot.prom");
    eprintln!("wrote results/metrics_snapshot.prom");
    let fired = reg.counter("pic_policy_fired_total");
    println!(
        "stop-at-rise fired {fired} time(s) over {iters} iterations; \
         comm matrix carries {} B total",
        reg.comm().total_sent_bytes()
    );
    assert!(
        reg.comm().is_conserved(),
        "sender/receiver tallies disagree"
    );

    // Runs B/C: model validation across executors
    let report = model_validation(iters);
    println!("\n{}", report.render());
    write_csv(
        Path::new("results"),
        "model_error.csv",
        ModelErrorReport::CSV_HEADER,
        &report.csv_rows(),
    );

    // the one-file dashboard over everything above
    let html = render_dashboard(
        &format!("PIC observability — {RANKS} ranks, {iters} iterations, stop-at-rise"),
        &events,
        &reg,
        Some(&report),
    );
    std::fs::write("results/dashboard.html", html).expect("write results/dashboard.html");
    eprintln!("wrote results/dashboard.html");
}
