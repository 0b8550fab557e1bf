//! Property tests: the threaded executor's collectives agree with the
//! modeled machine's collectives for random rank counts and payloads.
//!
//! The modeled `Machine` computes collectives directly over its state
//! vector (no real communication), so it is the oracle: any disagreement
//! means the mailbox protocol reordered, dropped or duplicated data.

use std::sync::Arc;

use pic_machine::{
    FaultPlan, Machine, MachineConfig, Outbox, PhaseKind, SpmdEngine, SuperstepStats,
    ThreadedMachine,
};
use proptest::prelude::*;

fn cfg(p: usize) -> MachineConfig {
    MachineConfig {
        ranks: p,
        tau: 1.0,
        mu: 0.01,
        delta: 0.001,
    }
}

/// The executor-independent part of a stats row: everything but the
/// communication seconds (modeled τ/μ on one machine, wall time on the
/// other).
fn counts(rec: &SuperstepStats) -> (PhaseKind, [u64; 6], u64) {
    let c = [
        rec.max_msgs_sent,
        rec.max_msgs_recv,
        rec.max_bytes_sent,
        rec.max_bytes_recv,
        rec.total_msgs,
        rec.total_bytes,
    ];
    (rec.phase, c, rec.max_compute_s.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// allgatherv concatenates every rank's (random-length) vector in
    /// rank order, identically on both executors, and logs the same
    /// stats row — also when the threaded side runs under a benign fault
    /// plan that reorders, delays and drops its exchange wires.
    #[test]
    fn allgatherv_agrees(
        p in 1usize..9,
        lens in prop::collection::vec(0usize..7, 1..9),
        salt in 0u64..1000,
    ) {
        fn drive<E: SpmdEngine<(Vec<u64>, Vec<u64>)>>(m: &mut E) {
            m.allgatherv(
                PhaseKind::Setup,
                8,
                |_r, s| s.0.clone(),
                |_r, s, concat: &[u64]| s.1 = concat.to_vec(),
            )
            .expect("fault-free allgatherv");
        }
        let states: Vec<(Vec<u64>, Vec<u64>)> = (0..p)
            .map(|r| {
                let n = lens[r % lens.len()];
                ((0..n as u64).map(|k| salt + r as u64 * 31 + k).collect(), Vec::new())
            })
            .collect();
        let mut modeled = Machine::new(cfg(p), states.clone());
        let mut threaded = ThreadedMachine::new(cfg(p), states.clone());
        let mut noisy = ThreadedMachine::new(cfg(p), states);
        noisy.instruments_mut().fault_plan = Some(Arc::new(FaultPlan::benign(salt)));
        drive(&mut modeled);
        drive(&mut threaded);
        drive(&mut noisy);
        let row = counts(&modeled.stats().records()[0]);
        for m in [&threaded, &noisy] {
            prop_assert_eq!(modeled.ranks(), m.ranks());
            prop_assert_eq!(m.stats().records().len(), 1);
            prop_assert_eq!(counts(&m.stats().records()[0]), row);
        }
    }

    /// Random all-to-all superstep traffic: inbox ordering and stats
    /// totals agree between executors.
    #[test]
    fn superstep_traffic_agrees(
        p in 1usize..8,
        sends in prop::collection::vec((0usize..8, 0usize..8, 0usize..6), 0..30),
    ) {
        fn drive<E: SpmdEngine<Vec<u64>>>(m: &mut E, sends: &[(usize, usize, usize)], p: usize) {
            let sends = sends.to_vec();
            m.superstep(
                PhaseKind::Scatter,
                move |r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| {
                    for &(from, to, len) in &sends {
                        if from % p == r {
                            ob.send(to % p, vec![(from + to + len) as u64; len]);
                        }
                    }
                },
                |_r, s, _ctx, inbox| {
                    for (from, msg) in inbox {
                        s.push(from as u64);
                        s.extend_from_slice(&msg);
                    }
                },
            )
            .expect("fault-free superstep");
        }
        let states = vec![Vec::<u64>::new(); p];
        let mut modeled = Machine::new(cfg(p), states.clone());
        let mut threaded = ThreadedMachine::new(cfg(p), states);
        drive(&mut modeled, &sends, p);
        drive(&mut threaded, &sends, p);
        prop_assert_eq!(modeled.ranks(), threaded.ranks());
        let mrec = modeled.stats().records()[0];
        let trec = threaded.stats().records()[0];
        prop_assert_eq!(mrec.total_msgs, trec.total_msgs);
        prop_assert_eq!(mrec.total_bytes, trec.total_bytes);
        prop_assert_eq!(mrec.max_msgs_sent, trec.max_msgs_sent);
        prop_assert_eq!(mrec.max_bytes_recv, trec.max_bytes_recv);
    }
}
