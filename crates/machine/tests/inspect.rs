//! `SpmdEngine::inspect` is a read-only map over the ranks, not an
//! operation of the program: on both executors it returns one output per
//! rank in rank order, and it records no superstep, charges no time,
//! emits no trace event and leaves an armed kill fault for the next real
//! operation.  Five ranks split unevenly into the modeled machine's
//! chunks at `PIC_HOST_THREADS=3`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pic_machine::{
    FaultPlan, Machine, MachineConfig, MemoryRecorder, PhaseKind, SharedRecorder, SpmdEngine,
    ThreadedMachine,
};

const RANKS: usize = 5;

fn cfg() -> MachineConfig {
    MachineConfig {
        ranks: RANKS,
        tau: 1.0,
        mu: 0.01,
        delta: 0.001,
    }
}

fn inspect_is_unaccounted<E: SpmdEngine<u64>>() {
    let mut m = E::build(cfg(), (0..RANKS as u64).map(|r| 10 * r).collect());
    m.local_step(PhaseKind::Scatter, |_, s, ctx| {
        *s += 1;
        ctx.charge_ops(100.0);
    })
    .expect("fault-free step");
    let shared = SharedRecorder::new(MemoryRecorder::new());
    m.instruments_mut().recorder = Some(Box::new(shared.clone()));
    m.set_fault_epoch(7);
    m.instruments_mut().fault_plan = Some(Arc::new(FaultPlan::new(1).kill(2, 7)));
    let rows = m.stats().records().to_vec();
    let elapsed = m.elapsed_s();

    let out = m.inspect(|r, s| (r, *s));
    let expected: Vec<(usize, u64)> = (0..RANKS).map(|r| (r, 10 * r as u64 + 1)).collect();
    assert_eq!(out, expected);
    assert_eq!(m.stats().records(), &rows[..]);
    assert_eq!(m.elapsed_s().to_bits(), elapsed.to_bits());
    assert!(shared.with(|rec| rec.take()).is_empty());

    // the kill armed for this epoch is left for the next real operation
    let err = m
        .local_step(PhaseKind::Gather, |_, _, _| {})
        .expect_err("the armed kill fires on the next operation");
    assert!(err.is_injected_kill(), "{err}");
    assert_eq!(err.rank, Some(2));

    let payload = catch_unwind(AssertUnwindSafe(|| {
        m.inspect(|r, _| {
            if r == 3 {
                panic!("rank {r} refused inspection");
            }
        })
    }))
    .expect_err("a panic in the closure is re-raised");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("rank 3 refused inspection")
    );
    assert_eq!(m.inspect(|r, _| r), (0..RANKS).collect::<Vec<_>>());
}

#[test]
fn modeled_inspect_is_unaccounted() {
    inspect_is_unaccounted::<Machine<u64>>();
}

#[test]
fn threaded_inspect_is_unaccounted() {
    inspect_is_unaccounted::<ThreadedMachine<u64>>();
}
