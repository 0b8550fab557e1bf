//! End-to-end checks of the metrics subsystem against the simulation:
//! comm-matrix conservation on the real-threads executor, modeled vs
//! threaded matrix agreement, and the SAR audit log matching the
//! redistributions that actually ran.

use pic_core::{GenericPicSim, SimConfig};
use pic_index::IndexScheme;
use pic_machine::{
    Instruments, Machine, MachineConfig, MemoryRecorder, SharedMetrics, SharedRecorder, SpmdEngine,
    ThreadedMachine, TraceEvent,
};
use pic_particles::ParticleDistribution;
use pic_partition::PolicyKind;

fn cfg_8rank(policy: PolicyKind) -> SimConfig {
    SimConfig {
        nx: 64,
        ny: 32,
        particles: 4096,
        machine: MachineConfig::cm5(8),
        distribution: ParticleDistribution::IrregularCenter,
        scheme: IndexScheme::Hilbert,
        policy,
        seed: 7,
        ..SimConfig::small_test()
    }
}

/// Drive `iters` iterations on the given executor with a recorder and a
/// metrics registry installed from construction; returns (events,
/// metrics).
fn observed_run<E: SpmdEngine<pic_core::RankState>>(
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
    let mut sim = GenericPicSim::<E>::try_new_instrumented(cfg, instruments).expect("setup");
    for _ in 0..iters {
        sim.try_step().expect("iteration");
    }
    let events = recorder.with(|r| r.events().to_vec());
    (events, metrics)
}

#[test]
fn threaded_comm_matrix_is_conserved_pairwise() {
    let (_, metrics) = observed_run::<ThreadedMachine<pic_core::RankState>>(
        cfg_8rank(PolicyKind::Periodic(5)),
        12,
    );
    let reg = metrics.snapshot();
    let comm = reg.comm();
    assert!(comm.total_sent_bytes() > 0, "run must communicate");
    // global invariant plus the per-pair statement: bytes rank i sent to
    // rank j (sender-side tally) equal bytes rank j received from rank i
    // (receiver-side tally of the same ordered pair), and messages too
    assert!(comm.is_conserved(), "sent != received somewhere");
    for i in 0..8 {
        for j in 0..8 {
            let (smsgs, sbytes) = comm.sent(i, j);
            let (rmsgs, rbytes) = comm.received(i, j);
            assert_eq!(smsgs, rmsgs, "msgs {i}->{j}");
            assert_eq!(sbytes, rbytes, "bytes {i}->{j}");
        }
    }
}

#[test]
fn modeled_and_threaded_comm_matrices_agree() {
    // Periodic policy: redistribution iterations are measurement-
    // independent, so both executors run the identical phase program and
    // must tally the identical rank-pair traffic.
    let cfg = cfg_8rank(PolicyKind::Periodic(4));
    let (_, modeled) = observed_run::<Machine<pic_core::RankState>>(cfg.clone(), 10);
    let (_, threaded) = observed_run::<ThreadedMachine<pic_core::RankState>>(cfg, 10);
    let m = modeled.snapshot();
    let t = threaded.snapshot();
    assert_eq!(
        m.comm().csv_rows(),
        t.comm().csv_rows(),
        "executors disagree on the communication matrix"
    );
}

#[test]
fn sar_audit_log_matches_actual_redistributions() {
    let (events, metrics) =
        observed_run::<Machine<pic_core::RankState>>(cfg_8rank(PolicyKind::DynamicSar), 30);
    // iterations where the audit log says the policy fired
    let fired: Vec<u64> = events
        .iter()
        .filter_map(TraceEvent::policy_decision)
        .filter(|d| d.fired)
        .map(|d| d.iter)
        .collect();
    // iterations where a policy-triggered redistribution actually ran
    let ran: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Redistribution(r)
                if r.trigger == pic_machine::trace::RedistributionTrigger::Policy =>
            {
                Some(r.iter)
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        fired, ran,
        "audit log disagrees with executed redistributions"
    );
    // every iteration produced exactly one decision record
    let decisions = events
        .iter()
        .filter(|e| e.policy_decision().is_some())
        .count();
    assert_eq!(decisions, 30);
    // and the counters agree with the trace
    let reg = metrics.snapshot();
    assert_eq!(reg.counter("pic_policy_decisions_total"), 30);
    assert_eq!(reg.counter("pic_policy_fired_total"), fired.len() as u64);
    assert_eq!(reg.counter("pic_redistributions_total"), ran.len() as u64);
    assert_eq!(reg.counter("pic_iterations_total"), 30);
}

#[test]
fn rank_load_events_and_gauges_track_particles() {
    let cfg = cfg_8rank(PolicyKind::Static);
    let total = cfg.particles as u64;
    let (events, metrics) = observed_run::<Machine<pic_core::RankState>>(cfg, 5);
    let loads: Vec<_> = events.iter().filter_map(TraceEvent::rank_load).collect();
    assert_eq!(loads.len(), 5, "one rank-load event per iteration");
    for load in &loads {
        assert_eq!(load.counts.len(), 8);
        assert_eq!(load.counts.iter().sum::<u64>(), total, "conservation");
    }
    let reg = metrics.snapshot();
    let last = loads.last().unwrap();
    let gauge = reg
        .rank_gauge("pic_rank_particles")
        .expect("per-rank particle gauge registered");
    let expect: Vec<f64> = last.counts.iter().map(|&c| c as f64).collect();
    assert_eq!(gauge, expect.as_slice(), "gauge lags the trace");
    assert!(reg.gauge("pic_imbalance_factor").unwrap() >= 1.0);
    assert!(reg.gauge("pic_curve_unit_fraction").is_some());
    let prom = reg.prometheus_text();
    assert!(prom.contains("pic_rank_particles"));
    assert!(prom.contains("pic_comm_sent_bytes_total"));
}

#[test]
fn forced_redistribution_resamples_the_structure_gauges() {
    let cfg = cfg_8rank(PolicyKind::Static);
    let metrics = SharedMetrics::new(cfg.machine.ranks);
    let instruments = Instruments {
        metrics: Some(metrics.clone()),
        ..Instruments::default()
    };
    let mut sim =
        GenericPicSim::<Machine<pic_core::RankState>>::try_new_instrumented(cfg, instruments)
            .expect("setup");
    for _ in 0..6 {
        sim.step();
    }
    sim.redistribute_now();
    let overlap: Vec<f64> = sim.alignment().iter().map(|a| a.overlap_fraction).collect();
    let reg = metrics.snapshot();
    assert_eq!(
        reg.rank_gauge("pic_rank_overlap_fraction"),
        Some(overlap.as_slice())
    );
}

/// The curve and range gauges depend only on the mesh and the rank
/// count: a registry keeps what set-up wrote (a sentinel planted in it
/// survives a later redistribution), and a resumed run with a fresh
/// registry gets the same values at its first redistribution.
#[test]
fn structure_gauges_are_written_once_per_registry() {
    const STRUCTURE: [&str; 4] = [
        "pic_curve_jump_mean",
        "pic_curve_unit_fraction",
        "pic_range_mean_aspect",
        "pic_range_mean_fill",
    ];
    let read = |m: &SharedMetrics| -> Vec<Option<f64>> {
        let reg = m.snapshot();
        STRUCTURE.iter().map(|g| reg.gauge(g)).collect()
    };
    let metrics = SharedMetrics::new(8);
    let instruments = Instruments {
        metrics: Some(metrics.clone()),
        ..Instruments::default()
    };
    let mut sim = GenericPicSim::<Machine<pic_core::RankState>>::try_new_instrumented(
        cfg_8rank(PolicyKind::Static),
        instruments,
    )
    .expect("setup");
    let at_setup = read(&metrics);
    assert!(at_setup.iter().all(Option::is_some), "{at_setup:?}");
    sim.step();
    metrics.with(|reg| reg.set_gauge("pic_curve_jump_mean", -1.0));
    sim.redistribute_now();
    assert_eq!(metrics.snapshot().gauge("pic_curve_jump_mean"), Some(-1.0));

    let mut resumed = GenericPicSim::<Machine<pic_core::RankState>>::resume_from(
        cfg_8rank(PolicyKind::Static),
        &sim.checkpoint(),
    )
    .expect("resume");
    let fresh = SharedMetrics::new(8);
    resumed.instruments_mut().metrics = Some(fresh.clone());
    resumed.redistribute_now();
    assert_eq!(read(&fresh), at_setup);
}

#[test]
fn chrome_trace_from_sim_run_includes_counter_events() {
    let (events, _) =
        observed_run::<Machine<pic_core::RankState>>(cfg_8rank(PolicyKind::Periodic(3)), 6);
    let json = pic_machine::trace::chrome_trace(&events);
    assert!(json.contains("\"ph\":\"C\""), "no counter events in export");
    assert!(json.contains("\"name\":\"particles\""));
    assert!(json.contains("\"name\":\"exchange bytes\""));
}
