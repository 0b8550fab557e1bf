//! Property tests: the trace event stream, the superstep statistics and
//! the metrics registry agree.
//!
//! All three are derived from one per-operation record, so they agree by
//! construction; these tests keep that a checked fact.  The per-rank
//! spans are folded here (max/sum over ranks) and compared with the
//! [`StatsLog`](pic_machine::StatsLog) row, and the three sinks are
//! compared phase by phase on both executors.  Any disagreement means a
//! derivation dropped a rank, double-charged a collective, or mixed up
//! supersteps.

use pic_machine::{
    Machine, MachineConfig, MemoryRecorder, Outbox, PhaseKind, SharedMetrics, SharedRecorder,
    SpmdEngine, StatsLog, ThreadedMachine, Topology, TraceEvent,
};
use proptest::prelude::*;

fn cfg(p: usize) -> MachineConfig {
    MachineConfig {
        ranks: p,
        tau: 1.0,
        mu: 0.01,
        delta: 0.001,
        topology: Topology::FullyConnected,
    }
}

/// Group span events by superstep id, in emission order.
fn spans_by_step(events: &[TraceEvent]) -> Vec<(u64, Vec<&pic_machine::SpanEvent>)> {
    let mut out: Vec<(u64, Vec<&pic_machine::SpanEvent>)> = Vec::new();
    for ev in events {
        if let TraceEvent::Span(s) = ev {
            match out.last_mut() {
                Some((step, group)) if *step == s.superstep => group.push(s),
                _ => out.push((s.superstep, vec![s])),
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every modeled superstep: the per-rank spans reproduce the
    /// `SuperstepStats` record bit-for-bit — max compute, max comm,
    /// total messages and total bytes over ranks, and the superstep
    /// event's elapsed time.
    #[test]
    fn modeled_span_totals_equal_superstep_stats(
        p in 1usize..9,
        steps in 1usize..5,
        fanout in 0usize..4,
        ops in 0u64..500,
        salt in 0u64..1000,
    ) {
        let shared = SharedRecorder::new(MemoryRecorder::new());
        let mut m = Machine::new(cfg(p), vec![0u64; p]);
        m.instruments_mut().recorder = Some(Box::new(shared.clone()));
        for step in 0..steps {
            m.superstep(
                PhaseKind::Scatter,
                |r, s, ctx, out: &mut Outbox<Vec<u64>>| {
                    ctx.charge_ops((ops as f64) * (r as f64 + 1.0));
                    for k in 0..fanout {
                        let to = (r + k + step) % p;
                        out.send(to, vec![salt + r as u64; (r + k) % 3 + 1]);
                    }
                    *s += 1;
                },
                |_r, s, _ctx, inbox| {
                    *s += inbox.len() as u64;
                },
            );
        }

        let events = shared.with(|rec| rec.take());
        let grouped = spans_by_step(&events);
        let records = m.stats().records().to_vec();
        prop_assert_eq!(grouped.len(), records.len());
        prop_assert_eq!(grouped.len(), steps);

        let superstep_events: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Superstep(s) => Some(s),
                _ => None,
            })
            .collect();
        prop_assert_eq!(superstep_events.len(), records.len());

        for (((_, spans), rec), agg) in
            grouped.iter().zip(&records).zip(&superstep_events)
        {
            prop_assert_eq!(spans.len(), p);
            let max_compute = spans.iter().map(|s| s.compute_s).fold(0.0, f64::max);
            let max_comm = spans.iter().map(|s| s.comm_s).fold(0.0, f64::max);
            let total_msgs: u64 = spans.iter().map(|s| s.msgs_sent).sum();
            let total_bytes: u64 = spans.iter().map(|s| s.bytes_sent).sum();
            let recv_msgs: u64 = spans.iter().map(|s| s.msgs_recv).sum();
            let recv_bytes: u64 = spans.iter().map(|s| s.bytes_recv).sum();
            prop_assert_eq!(max_compute, rec.max_compute_s);
            prop_assert_eq!(max_comm, rec.max_comm_s);
            prop_assert_eq!(total_msgs, rec.total_msgs);
            prop_assert_eq!(total_bytes, rec.total_bytes);
            // every off-rank send is received exactly once
            prop_assert_eq!(recv_msgs, rec.total_msgs);
            prop_assert_eq!(recv_bytes, rec.total_bytes);
            prop_assert_eq!(agg.max_compute_s, rec.max_compute_s);
            prop_assert_eq!(agg.max_comm_s, rec.max_comm_s);
            prop_assert_eq!(agg.elapsed_s, rec.elapsed_s);
            prop_assert_eq!(agg.total_msgs, rec.total_msgs);
            prop_assert_eq!(agg.total_bytes, rec.total_bytes);
            prop_assert!(!agg.collective);
            // spans fit inside the superstep window
            for s in spans {
                prop_assert_eq!(s.start_s, agg.start_s);
                prop_assert!(s.end_s <= agg.start_s + agg.elapsed_s + 1e-12);
            }
        }
    }

    /// Modeled collectives emit one span per rank with uniform comm
    /// charges matching the stats record, flagged as collectives.
    #[test]
    fn modeled_collective_spans_match_stats(
        p in 1usize..9,
        salt in 0u64..1000,
    ) {
        let shared = SharedRecorder::new(MemoryRecorder::new());
        let states: Vec<(u64, u64)> = (0..p).map(|r| (salt + r as u64, 0)).collect();
        let mut m = Machine::new(cfg(p), states);
        m.instruments_mut().recorder = Some(Box::new(shared.clone()));
        m.allgather(
            PhaseKind::Setup,
            8,
            |_r, s: &(u64, u64)| s.0,
            |_r, s, all: &[u64]| s.1 = all.iter().sum(),
        );

        let events = shared.with(|rec| rec.take());
        let spans: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        prop_assert_eq!(spans.len(), p);
        let rec = m.stats().records()[0];
        for s in &spans {
            // the model charges every rank identically in a collective
            prop_assert_eq!(s.comm_s, rec.max_comm_s);
            prop_assert_eq!(s.compute_s, 0.0);
        }
        let agg = events.iter().find_map(|e| match e {
            TraceEvent::Superstep(s) => Some(s),
            _ => None,
        });
        let agg = agg.expect("collective superstep event");
        prop_assert!(agg.collective);
        prop_assert_eq!(agg.total_msgs, rec.total_msgs);
        prop_assert_eq!(agg.total_bytes, rec.total_bytes);
    }
}

/// The threaded executor emits the same event shapes: one span per rank
/// per superstep (wall-clock times), plus superstep and collective
/// aggregates consistent with its stats log.
#[test]
fn threaded_recorder_captures_spans_and_collectives() {
    let p = 4;
    let shared = SharedRecorder::new(MemoryRecorder::new());
    let mut m = ThreadedMachine::new(cfg(p), vec![0u64; p]);
    m.instruments_mut().recorder = Some(Box::new(shared.clone()));

    SpmdEngine::superstep(
        &mut m,
        PhaseKind::Push,
        |r, s: &mut u64, _ctx, out: &mut Outbox<Vec<u64>>| {
            out.send((r + 1) % 4, vec![r as u64]);
            *s += 1;
        },
        |_r, s, _ctx, inbox: Vec<(usize, Vec<u64>)>| {
            *s += inbox.len() as u64;
        },
    )
    .expect("fault-free superstep");
    m.allreduce(
        PhaseKind::FieldSolve,
        |_r, s: &u64| *s,
        |a, b| a + b,
        |_r, s, sum: &u64| *s = *sum,
    )
    .expect("fault-free allreduce");

    let events = shared.with(|rec| rec.take());
    let spans: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span(s) => Some(s),
            _ => None,
        })
        .collect();
    // one span per rank for the superstep, one per rank for the collective
    assert_eq!(spans.len(), 2 * p);
    for s in &spans {
        assert!(s.end_s >= s.start_s);
        assert!(s.compute_s >= 0.0 && s.comm_s >= 0.0);
    }
    let aggs: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Superstep(s) => Some(s),
            _ => None,
        })
        .collect();
    assert_eq!(aggs.len(), 2);
    assert!(!aggs[0].collective);
    assert!(aggs[1].collective);
    let stats = m.stats().records().to_vec();
    assert_eq!(aggs[0].total_msgs, stats[0].total_msgs);
    assert_eq!(aggs[0].total_bytes, stats[0].total_bytes);
    // supersteps are numbered consecutively within one executor
    assert_eq!(aggs[0].superstep + 1, aggs[1].superstep);
}

/// Taking the recorder out of the instruments hands the live sink back
/// and leaves the machine silent; re-installing resumes the stream.
#[test]
fn take_and_reinstall_recorder_round_trips() {
    fn drive<E: SpmdEngine<u64>>(m: &mut E) {
        m.allreduce(
            PhaseKind::Other,
            |_r, s: &u64| *s,
            |a, b| a + b,
            |_r, s, sum: &u64| *s = *sum,
        )
        .expect("fault-free allreduce");
    }

    let shared = SharedRecorder::new(MemoryRecorder::new());
    let mut m = ThreadedMachine::new(cfg(3), vec![1u64; 3]);
    m.instruments_mut().recorder = Some(Box::new(shared.clone()));
    drive(&mut m);
    let n_traced = shared.with(|rec| rec.events().len());
    assert!(n_traced > 0);

    let taken = m.instruments_mut().recorder.take();
    assert!(taken.is_some());
    assert!(m.instruments().recorder.is_none());
    drive(&mut m); // silent: no recorder installed
    assert_eq!(shared.with(|rec| rec.events().len()), n_traced);

    m.instruments_mut().recorder = taken;
    drive(&mut m);
    assert!(shared.with(|rec| rec.events().len()) > n_traced);
}

/// One program touching every engine operation: a point-to-point
/// superstep, a local step, the four collectives and a barrier.  Two
/// phases mix a superstep with a collective.
fn mixed_program<E: SpmdEngine<(u64, Vec<f64>)>>(m: &mut E) {
    let p = m.num_ranks();
    for step in 0..2u64 {
        m.superstep(
            PhaseKind::Scatter,
            move |r, s, ctx, out: &mut Outbox<Vec<u64>>| {
                ctx.charge_ops(r as f64 + 1.0);
                out.send((r + 1) % p, vec![s.0 + step; r + 1]);
                out.send((r + 2) % p, vec![s.0; 2]);
                out.send(r, vec![7]); // self-message: never counted
            },
            |_r, s, _ctx, inbox| {
                for (from, msg) in inbox {
                    s.0 = s.0.wrapping_add(msg[0]).wrapping_mul(from as u64 | 1);
                }
            },
        )
        .expect("superstep");
        m.local_step(PhaseKind::Push, |r, s, ctx| {
            ctx.charge_ops(r as f64);
            s.0 += 1;
        })
        .expect("local_step");
        m.allgather(
            PhaseKind::Setup,
            8,
            |_r, s| s.0,
            |_r, s, all: &[u64]| s.1.push(all.len() as f64),
        )
        .expect("allgather");
        m.allgatherv(
            PhaseKind::Redistribute,
            12,
            |r, _s| vec![r as u64; r % 3],
            |_r, s, all: &[u64]| s.1.push(all.len() as f64),
        )
        .expect("allgatherv");
        m.allreduce(
            PhaseKind::FieldSolve,
            |_r, s| s.0 as f64,
            |a, b| a + b,
            |_r, s, v: &f64| s.1.push(*v),
        )
        .expect("allreduce");
        m.allreduce_elementwise(
            PhaseKind::Scatter,
            24,
            |r, _s| vec![r as f64, 0.5, 2.0],
            |a, b| a + b,
            |_r, s, acc: &[f64]| s.1.extend_from_slice(acc),
        )
        .expect("allreduce_elementwise");
        m.superstep(
            PhaseKind::Setup,
            move |r, _s, _ctx, out: &mut Outbox<Vec<u8>>| out.send((r + p - 1) % p, vec![0; r]),
            |_r, _s, _ctx, _inbox| {},
        )
        .expect("superstep");
        m.barrier().expect("barrier");
    }
}

/// Run the mixed program with a recorder and a registry installed and
/// return what the three sinks saw.
fn observed<E: SpmdEngine<(u64, Vec<f64>)>>(
    mut m: E,
) -> (StatsLog, Vec<TraceEvent>, SharedMetrics) {
    let recorder = SharedRecorder::new(MemoryRecorder::new());
    let metrics = SharedMetrics::new(m.num_ranks());
    m.instruments_mut().recorder = Some(Box::new(recorder.clone()));
    m.instruments_mut().metrics = Some(metrics.clone());
    mixed_program(&mut m);
    let events = recorder.with(|r| r.take());
    (m.stats().clone(), events, metrics)
}

/// The stats log, the trace and the registry agree phase by phase on
/// both executors — supersteps, collectives (element-wise all-reduce
/// included) and barriers — and the two executors log identical
/// message and byte counts record by record.
#[test]
fn every_sink_agrees_on_both_executors() {
    for p in [1usize, 4, 6] {
        let states = || {
            (0..p)
                .map(|r| (r as u64 * 3, Vec::new()))
                .collect::<Vec<_>>()
        };
        let modeled = observed(Machine::new(cfg(p), states()));
        let threaded = observed(ThreadedMachine::new(cfg(p), states()));
        for (name, (stats, events, metrics)) in [("modeled", &modeled), ("threaded", &threaded)] {
            let reg = metrics.snapshot();
            // 7 accounted operations per round (the barrier emits none)
            assert_eq!(stats.records().len(), 14, "{name} p={p}");
            for phase in PhaseKind::ALL {
                let rows: Vec<_> = stats.phase(phase).collect();
                let steps: Vec<_> = events
                    .iter()
                    .filter_map(TraceEvent::superstep)
                    .filter(|e| e.phase == phase)
                    .collect();
                let spans: Vec<_> = events
                    .iter()
                    .filter_map(TraceEvent::span)
                    .filter(|e| e.phase == phase)
                    .collect();
                let fam = reg.phase(phase);
                let ctx = format!("{name} p={p} {}", phase.label());
                assert_eq!(steps.len(), rows.len(), "{ctx}");
                assert_eq!(fam.supersteps, rows.len() as u64, "{ctx}");
                assert_eq!(spans.len(), rows.len() * p, "{ctx}");
                let msgs: u64 = rows.iter().map(|r| r.total_msgs).sum();
                let bytes: u64 = rows.iter().map(|r| r.total_bytes).sum();
                assert_eq!(
                    steps.iter().map(|e| e.total_msgs).sum::<u64>(),
                    msgs,
                    "{ctx}"
                );
                assert_eq!(
                    steps.iter().map(|e| e.total_bytes).sum::<u64>(),
                    bytes,
                    "{ctx}"
                );
                assert_eq!(
                    spans.iter().map(|e| e.msgs_sent).sum::<u64>(),
                    msgs,
                    "{ctx}"
                );
                assert_eq!(
                    spans.iter().map(|e| e.bytes_sent).sum::<u64>(),
                    bytes,
                    "{ctx}"
                );
                assert_eq!((fam.msgs, fam.bytes), (msgs, bytes), "{ctx}");
            }
            assert!(reg.comm().is_conserved(), "{name} p={p}");
        }
        let counts = |log: &StatsLog| -> Vec<_> {
            log.records()
                .iter()
                .map(|r| {
                    let sent = (r.max_msgs_sent, r.max_bytes_sent, r.total_msgs);
                    (
                        r.phase,
                        sent,
                        r.max_msgs_recv,
                        r.max_bytes_recv,
                        r.total_bytes,
                    )
                })
                .collect()
        };
        assert_eq!(counts(&modeled.0), counts(&threaded.0), "p={p}");
        // the matrices compare entry for entry, too
        let matrix = |m: &SharedMetrics| m.snapshot().comm().csv_rows();
        assert_eq!(matrix(&modeled.2), matrix(&threaded.2), "p={p}");
    }
}
