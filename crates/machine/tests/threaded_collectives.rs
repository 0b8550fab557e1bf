//! Property tests: the threaded executor's collectives agree with the
//! modeled machine's collectives for random rank counts and payloads.
//!
//! The modeled `Machine` computes collectives directly over its state
//! vector (no real communication), so it is the oracle: any disagreement
//! means the mailbox protocol reordered, dropped or duplicated data, or
//! associated a floating-point fold differently.

use pic_machine::{
    Machine, MachineConfig, Outbox, PhaseKind, SpmdEngine, ThreadedMachine, Topology,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// allgatherv concatenates every rank's (random-length) vector in
    /// rank order, identically on both executors.
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
        let mut threaded = ThreadedMachine::new(cfg(p), states);
        drive(&mut modeled);
        drive(&mut threaded);
        prop_assert_eq!(Machine::ranks(&modeled), SpmdEngine::ranks(&threaded));
    }

    /// allreduce of f64 sums is bit-identical (rank-order fold on both).
    #[test]
    fn allreduce_float_fold_is_bit_identical(
        p in 1usize..9,
        vals in prop::collection::vec(-1.0e6f64..1.0e6, 1..9),
    ) {
        fn drive<E: SpmdEngine<(f64, f64)>>(m: &mut E) {
            m.allreduce(
                PhaseKind::Other,
                |_r, s| s.0,
                |a, b| a + b * 1.000000119,
                |_r, s, &v| s.1 = v,
            )
            .expect("fault-free allreduce");
        }
        let states: Vec<(f64, f64)> =
            (0..p).map(|r| (vals[r % vals.len()] + r as f64 * 0.37, 0.0)).collect();
        let mut modeled = Machine::new(cfg(p), states.clone());
        let mut threaded = ThreadedMachine::new(cfg(p), states);
        drive(&mut modeled);
        drive(&mut threaded);
        for (a, b) in Machine::ranks(&modeled).iter().zip(SpmdEngine::ranks(&threaded)) {
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    /// Element-wise allreduce over random-width arrays agrees bitwise.
    #[test]
    fn allreduce_elementwise_agrees(
        p in 1usize..8,
        width in 1usize..20,
        seed in 0u64..1000,
    ) {
        fn drive<E: SpmdEngine<Vec<f64>>>(m: &mut E, width: usize) {
            m.allreduce_elementwise(
                PhaseKind::Other,
                width * 8,
                |_r, s| s.clone(),
                |a, b| a + b,
                |_r, s, acc| {
                    let n = s.len();
                    s.clone_from_slice(&acc[..n]);
                },
            )
            .expect("fault-free allreduce_elementwise");
        }
        let states: Vec<Vec<f64>> = (0..p)
            .map(|r| {
                (0..width)
                    .map(|i| ((seed + r as u64 * 17 + i as u64) as f64).sin())
                    .collect()
            })
            .collect();
        let mut modeled = Machine::new(cfg(p), states.clone());
        let mut threaded = ThreadedMachine::new(cfg(p), states);
        drive(&mut modeled, width);
        drive(&mut threaded, width);
        for (a, b) in Machine::ranks(&modeled).iter().zip(SpmdEngine::ranks(&threaded)) {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
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
        prop_assert_eq!(Machine::ranks(&modeled), SpmdEngine::ranks(&threaded));
        let mrec = Machine::stats(&modeled).records()[0];
        let trec = SpmdEngine::stats(&threaded).records()[0];
        prop_assert_eq!(mrec.total_msgs, trec.total_msgs);
        prop_assert_eq!(mrec.total_bytes, trec.total_bytes);
        prop_assert_eq!(mrec.max_msgs_sent, trec.max_msgs_sent);
        prop_assert_eq!(mrec.max_bytes_recv, trec.max_bytes_recv);
    }
}
