//! Driver-level observability: a traced simulation run emits the full
//! event story — setup redistribution, per-phase spans, per-iteration
//! summaries, policy/forced redistributions — and a traced recovery run
//! adds fault and checkpoint events, all into one recorder stream that
//! survives restarts.

use std::sync::Arc;

use pic_core::state::RankState;
use pic_core::{run_with_recovery, ParallelPicSim, SimConfig};
use pic_machine::{
    CheckpointAction, FaultPlan, Instruments, MachineConfig, MemoryRecorder, PhaseKind,
    SharedMetrics, SharedRecorder, TraceEvent,
};
use pic_partition::PolicyKind;

fn traced_cfg(ranks: usize, policy: PolicyKind) -> SimConfig {
    SimConfig {
        machine: MachineConfig::cm5(ranks),
        policy,
        ..SimConfig::small_test()
    }
}

#[test]
fn traced_run_emits_full_event_story() {
    let shared = SharedRecorder::new(MemoryRecorder::new());
    let metrics = SharedMetrics::new(4);
    let mut sim = ParallelPicSim::try_new_instrumented(
        traced_cfg(4, PolicyKind::Periodic(2)),
        Instruments {
            fault_plan: None,
            recorder: Some(Box::new(shared.clone())),
            metrics: Some(metrics.clone()),
        },
    )
    .expect("fault-free construction");
    let records: Vec<_> = (0..5)
        .map(|_| sim.try_step().expect("fault-free iteration"))
        .collect();
    let forced_cost = sim.try_redistribute_now().expect("fault-free forced");
    let events = shared.with(|rec| rec.take());

    // one iteration event per step, numbered 1..=5, with the paper's
    // split into compute and comm components: the record `try_step`
    // returned, itself
    let iters: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Iteration(i) => Some(*i),
            _ => None,
        })
        .collect();
    assert_eq!(iters, records);
    for (k, it) in iters.iter().enumerate() {
        assert_eq!(it.iter, k + 1);
        assert!(it.time_s > 0.0);
        assert!((it.compute_s + it.comm_s - it.time_s).abs() <= 1e-9 * it.time_s.max(1.0));
        assert!(it.max_particles >= it.min_particles);
    }

    // the setup redistribution, the periodic (policy) ones, and the
    // forced one are all tagged with their trigger
    let redists: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Redistribution(r) => Some(r),
            _ => None,
        })
        .collect();
    assert_eq!(redists[0].iter, 0);
    assert_eq!(redists[0].trigger.label(), "setup");
    let policy_count = redists
        .iter()
        .filter(|r| r.trigger.label() == "policy")
        .count();
    assert_eq!(
        policy_count, 2,
        "Periodic(2) fires after iterations 2 and 4"
    );
    let forced = redists.last().expect("at least the setup redistribution");
    assert_eq!(forced.trigger.label(), "forced");
    assert_eq!(forced.iter, 5);
    assert!((forced.cost_s - forced_cost).abs() < 1e-12);
    // the registry counts every non-setup redistribution, forced included
    assert_eq!(
        metrics.snapshot().counter("pic_redistributions_total"),
        redists
            .iter()
            .filter(|r| r.trigger.label() != "setup")
            .count() as u64
    );

    // every PIC phase shows up as spans (setup work is charged under
    // Redistribute: the initial distribution *is* a redistribution)
    for phase in [
        PhaseKind::Scatter,
        PhaseKind::FieldSolve,
        PhaseKind::Gather,
        PhaseKind::Push,
        PhaseKind::Redistribute,
    ] {
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::Span(s) if s.phase == phase
            )),
            "no span recorded for phase {}",
            phase.label()
        );
    }

    // no fault or checkpoint events in a clean un-protected run
    assert!(!events
        .iter()
        .any(|e| matches!(e, TraceEvent::Fault(_) | TraceEvent::Checkpoint(_))));
}

#[test]
fn traced_recovery_emits_fault_and_checkpoint_events() {
    let shared = SharedRecorder::new(MemoryRecorder::new());
    let plan = Arc::new(FaultPlan::new(7).kill(1, 4));
    let metrics = SharedMetrics::new(4);
    let instruments = Instruments {
        fault_plan: Some(plan),
        recorder: Some(Box::new(shared.clone())),
        metrics: Some(metrics.clone()),
    };
    let outcome = run_with_recovery::<pic_machine::Machine<RankState>>(
        traced_cfg(4, PolicyKind::Periodic(3)),
        8,
        2,
        instruments,
        2,
    )
    .expect("recovery must absorb the injected kill");
    assert_eq!(outcome.restarts, 1);

    let events = shared.with(|rec| rec.take());
    let faults: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Fault(f) => Some(f),
            _ => None,
        })
        .collect();
    assert_eq!(faults.len(), 1, "one injected kill, one fault event");
    assert_eq!(faults[0].rank, Some(1));
    assert_eq!(faults[0].epoch, Some(4));
    assert!(!faults[0].cause.is_empty());
    // the registry rides through the restart with the recorder
    assert_eq!(metrics.snapshot().counter("pic_faults_total"), 1);

    let saved: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Checkpoint(c) if c.action == CheckpointAction::Saved => Some(c),
            _ => None,
        })
        .collect();
    // post-setup snapshot at iter 0 plus every 2nd completed iteration
    assert_eq!(saved.first().map(|c| c.iter), Some(0));
    assert!(saved.len() >= 5);
    assert!(saved.iter().all(|c| c.bytes > 0));

    let restored: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Checkpoint(c) if c.action == CheckpointAction::Restored => Some(c),
            _ => None,
        })
        .collect();
    assert_eq!(restored.len(), 1, "one restart, one restore event");
    // the kill fires in iteration 4 (fault epochs are 1-based iteration
    // numbers); the restore rewinds to the iteration-2 snapshot
    assert_eq!(restored[0].iter, 2);

    // the stream keeps flowing after the restart: the re-executed
    // iteration 3 is recorded twice in event order, and the killed
    // iteration 4 succeeds on re-execution (injected kills are one-shot)
    let iter_ids: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Iteration(i) => Some(i.iter),
            _ => None,
        })
        .collect();
    assert_eq!(iter_ids.iter().filter(|&&i| i == 3).count(), 2);
    assert_eq!(iter_ids.iter().filter(|&&i| i == 4).count(), 1);
    assert_eq!(iter_ids.last(), Some(&8));
}
