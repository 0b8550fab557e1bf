//! Property tests for the virtual machine: conservation of messages and
//! cost-model sanity under arbitrary communication patterns.  (That the
//! host pool width never changes results is a unit test of the crate:
//! the width is not a public knob.)

use pic_machine::{Machine, MachineConfig, Outbox, PhaseKind, SpmdEngine};
use proptest::prelude::*;

fn cfg(p: usize) -> MachineConfig {
    MachineConfig {
        ranks: p,
        tau: 2.0,
        mu: 0.25,
        delta: 0.125,
    }
}

proptest! {
    /// Message and byte totals recorded by stats equal what was sent.
    #[test]
    fn stats_conserve_traffic(
        p in 2usize..10,
        sends in prop::collection::vec((0usize..10, 0usize..10, 0usize..50), 0..40),
    ) {
        let sends2 = sends.clone();
        let mut m = Machine::new(cfg(p), vec![(); p]);
        m.superstep(
            PhaseKind::Scatter,
            move |r, _s, _ctx, ob: &mut Outbox<Vec<u8>>| {
                for &(from, to, len) in &sends2 {
                    if from % p == r {
                        ob.send(to % p, vec![0u8; len]);
                    }
                }
            },
            |_, _, _, _| {},
        )
        .expect("fault-free superstep");
        let rec = m.stats().records()[0];
        let expect_msgs: u64 = sends
            .iter()
            .filter(|&&(f, t, _)| f % p != t % p)
            .count() as u64;
        let expect_bytes: u64 = sends
            .iter()
            .filter(|&&(f, t, _)| f % p != t % p)
            .map(|&(_, _, l)| l as u64)
            .sum();
        prop_assert_eq!(rec.total_msgs, expect_msgs);
        prop_assert_eq!(rec.total_bytes, expect_bytes);
        prop_assert!(rec.max_msgs_sent <= expect_msgs);
        prop_assert!(rec.max_bytes_recv <= expect_bytes);
    }

    /// Elapsed time never decreases over supersteps, and clocks agree
    /// after every barrier.
    #[test]
    fn clocks_are_monotone_and_synced(
        p in 1usize..8,
        steps in prop::collection::vec(prop::collection::vec(0.0f64..50.0, 1..8), 1..6),
    ) {
        let mut m = Machine::new(cfg(p), vec![(); p]);
        let mut last = 0.0;
        for ops in steps {
            let ops2 = ops.clone();
            m.local_step(PhaseKind::Push, move |r, _s, ctx| {
                ctx.charge_ops(ops2[r % ops2.len()]);
            })
            .expect("fault-free local step");
            let now = m.elapsed_s();
            prop_assert!(now >= last);
            last = now;
            for c in m.clocks() {
                prop_assert!((c.total_s() - now).abs() < 1e-9);
            }
        }
    }

    /// Collective cost grows with the share size and never with fewer
    /// stages than log2(p).
    #[test]
    fn allgather_cost_scales_with_share(p in 2usize..64, small in 1usize..100) {
        let big = small * 10;
        let mut m1 = Machine::new(cfg(p), vec![0u64; p]);
        m1.allgatherv(PhaseKind::Setup, small, |r, _s| vec![r as u64], |_r, _s, _a: &[u64]| {})
            .expect("fault-free allgatherv");
        let mut m2 = Machine::new(cfg(p), vec![0u64; p]);
        m2.allgatherv(PhaseKind::Setup, big, |r, _s| vec![r as u64], |_r, _s, _a: &[u64]| {})
            .expect("fault-free allgatherv");
        prop_assert!(m2.elapsed_s() > m1.elapsed_s());
        let tau = 2.0;
        let min_cost = (p as f64).log2().floor() * tau;
        prop_assert!(m1.elapsed_s() >= min_cost * 0.99);
    }
}
