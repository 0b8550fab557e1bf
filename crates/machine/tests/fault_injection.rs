//! Chaos tests for the fault-injection harness.
//!
//! Two properties anchor the failure model:
//!
//! 1. **Benign faults are invisible.**  Delay, reorder and drop-retry
//!    faults exercise timing, queueing and retransmission, but the
//!    protocol (per-sender FIFO + sender-sorted delivery + count
//!    handshakes) must absorb them: results are bit-identical to a
//!    fault-free run for *any* seed.
//! 2. **Kills are loud and attributed.**  A killed rank must surface as
//!    a typed error naming the rank and epoch, promptly (poison
//!    propagation, not timeout expiry), on every seed.
//!
//! Seeds are fixed for reproducibility; set `CHAOS_SEED=<n>` to probe an
//! extra seed locally or in the CI chaos job.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pic_machine::{
    FaultNoise, FaultPlan, Machine, MachineConfig, Outbox, PhaseKind, SpmdEngine, SpmdError,
    ThreadedMachine,
};

const FIXED_SEEDS: [u64; 3] = [0xC0FFEE, 0xBADF00D, 0x5EED];

/// The fixed seeds plus an optional `CHAOS_SEED` from the environment.
fn chaos_seeds() -> Vec<u64> {
    let mut seeds = FIXED_SEEDS.to_vec();
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        seeds.push(s.parse().expect("CHAOS_SEED must be an integer"));
    }
    seeds
}

/// A protocol-heavy SPMD program: a ring superstep, an irregular
/// superstep and an allgatherv, folded into one digest per rank (each
/// rank's state starts as its rank id).
fn protocol_mix<E: SpmdEngine<u64>>(m: &mut E) -> Result<Vec<u64>, SpmdError> {
    let p = m.num_ranks();
    let fold = |mul: u64| {
        move |_r: usize, digest: &mut u64, _ctx: &mut _, inbox: Vec<(usize, Vec<u64>)>| {
            for (from, v) in inbox {
                *digest = digest.wrapping_mul(mul).wrapping_add(from as u64 ^ v[0]);
            }
        }
    };
    // ring rotation
    m.superstep(
        PhaseKind::Other,
        move |r, _d, _ctx, ob: &mut Outbox<Vec<u64>>| ob.send((r + 1) % p, vec![r as u64 * 17 + 1]),
        fold(31),
    )?;
    // irregular exchange: rank r sends r%3 messages to each smaller rank
    m.superstep(
        PhaseKind::Other,
        |r, _d, _ctx, ob: &mut Outbox<Vec<u64>>| {
            for to in 0..r {
                for k in 0..r % 3 {
                    ob.send(to, vec![(r * 100 + to * 10 + k) as u64]);
                }
            }
        },
        fold(37),
    )?;
    // allgatherv folds in rank order on every rank
    m.allgatherv(
        PhaseKind::Other,
        8,
        |_r, d| vec![*d, *d ^ 0xA5A5],
        |_r, d, all: &[u64]| {
            for v in all {
                *d = d.wrapping_mul(41).wrapping_add(*v);
            }
        },
    )?;
    Ok(m.ranks().to_vec())
}

/// [`protocol_mix`] on a `p`-rank [`ThreadedMachine`] under `plan`.
fn protocol_mix_threaded(p: usize, plan: Option<Arc<FaultPlan>>) -> Result<Vec<u64>, SpmdError> {
    let states = (0..p as u64).collect();
    let mut m =
        ThreadedMachine::new(MachineConfig::cm5(p), states).with_timeout(Duration::from_secs(30));
    m.instruments_mut().fault_plan = plan;
    protocol_mix(&mut m)
}

#[test]
fn threaded_digests_match_the_modeled_machine() {
    for p in [2usize, 5, 8] {
        let mut modeled = Machine::new(MachineConfig::cm5(p), (0..p as u64).collect());
        let expect = protocol_mix(&mut modeled).expect("modeled run");
        assert_eq!(
            protocol_mix_threaded(p, None).expect("clean run"),
            expect,
            "{p} ranks"
        );
    }
}

#[test]
fn benign_chaos_is_bit_identical_across_seeds() {
    for p in [2usize, 5, 8] {
        let clean = protocol_mix_threaded(p, None).expect("clean run");
        for seed in chaos_seeds() {
            let plan = Arc::new(FaultPlan::benign(seed));
            let noisy = protocol_mix_threaded(p, Some(plan))
                .unwrap_or_else(|e| panic!("benign plan seed {seed} failed: {e}"));
            assert_eq!(noisy, clean, "seed {seed} at {p} ranks changed results");
        }
    }
}

#[test]
fn heavy_drop_noise_exhausts_the_retry_path_without_changing_results() {
    let noise = FaultNoise {
        drop_prob: 0.9,
        ..FaultNoise::aggressive()
    };
    let p = 4;
    let clean = protocol_mix_threaded(p, None).expect("clean run");
    for seed in chaos_seeds() {
        let plan = Arc::new(FaultPlan::new(seed).with_noise(noise));
        let noisy = protocol_mix_threaded(p, Some(plan)).expect("drops must be retransmitted");
        assert_eq!(noisy, clean, "seed {seed} changed results");
    }
}

#[test]
fn kill_plans_name_the_rank_promptly_on_every_seed() {
    let p = 6;
    for seed in chaos_seeds() {
        let victim = (seed % p as u64) as usize;
        let plan = Arc::new(
            FaultPlan::new(seed)
                .kill(victim, 0)
                .with_noise(FaultNoise::mild()),
        );
        let started = Instant::now();
        let err = protocol_mix_threaded(p, Some(plan)).expect_err("the kill must fail the run");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "kill detection leaned on the receive timeout"
        );
        assert!(err.is_injected_kill(), "seed {seed}: {err}");
        assert_eq!(err.rank, Some(victim), "seed {seed}: {err}");
        assert_eq!(err.epoch, Some(0), "seed {seed}: {err}");
    }
}

#[test]
fn killed_plans_rearm_for_repeated_injection() {
    let p = 3;
    let plan = Arc::new(FaultPlan::new(7).kill(1, 0));
    let err = protocol_mix_threaded(p, Some(Arc::clone(&plan))).expect_err("armed kill");
    assert_eq!(err.rank, Some(1));
    // consumed: the same plan no longer fires
    protocol_mix_threaded(p, Some(Arc::clone(&plan))).expect("consumed kill must not re-fire");
    plan.rearm();
    let err = protocol_mix_threaded(p, Some(plan)).expect_err("re-armed kill");
    assert_eq!(err.rank, Some(1));
}

#[test]
fn forced_delays_and_reorders_compose_with_kills() {
    // a plan can mix benign specs with a kill: the kill still wins, the
    // benign specs still never corrupt the surviving protocol rounds
    let p = 4;
    let plan = Arc::new(
        FaultPlan::new(11)
            .delay(0, 0, Duration::from_millis(2))
            .kill(3, 0),
    );
    let err = protocol_mix_threaded(p, Some(plan)).expect_err("kill fires");
    assert!(err.is_injected_kill());
    assert_eq!(err.rank, Some(3));
}
