//! Cross-validation: the modeled BSP machine and the real-threads
//! executor must produce **bit-identical** simulation state.
//!
//! The phase programs are written once against `SpmdEngine`, so any
//! divergence here means an executor reorders messages, associates a
//! floating-point reduction differently, or leaks scheduling into
//! results.  The redistribution policy is `Periodic` in these tests:
//! policy *decisions* feed on measured time, which legitimately differs
//! between modeled and wall-clock executors (that is the one sanctioned
//! difference; `DynamicSar` cross-runs may redistribute at different
//! iterations and are exercised separately for plain liveness).

use pic_core::state::RankState;
use pic_core::{GenericPicSim, ParallelPicSim, SimConfig, ThreadedPicSim};
use pic_field::FieldSet;
use pic_machine::{FailureCause, MachineConfig, SpmdEngine};
use pic_partition::PolicyKind;

/// Bitwise equality of two f64 slices (NaN-safe, -0.0 ≠ 0.0).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Assert full bitwise equality of two per-rank state vectors.
fn assert_states_identical(modeled: &[RankState], threaded: &[RankState]) {
    assert_eq!(modeled.len(), threaded.len(), "rank count differs");
    for (r, (m, t)) in modeled.iter().zip(threaded).enumerate() {
        assert_eq!(m.len(), t.len(), "rank {r}: particle count differs");
        assert!(
            bits_eq(&m.particles.x, &t.particles.x),
            "rank {r}: x differs"
        );
        assert!(
            bits_eq(&m.particles.y, &t.particles.y),
            "rank {r}: y differs"
        );
        assert!(
            bits_eq(&m.particles.ux, &t.particles.ux),
            "rank {r}: ux differs"
        );
        assert!(
            bits_eq(&m.particles.uy, &t.particles.uy),
            "rank {r}: uy differs"
        );
        assert!(
            bits_eq(&m.particles.uz, &t.particles.uz),
            "rank {r}: uz differs"
        );
        assert_eq!(m.keys, t.keys, "rank {r}: sort keys differ");
        assert_eq!(m.bounds, t.bounds, "rank {r}: bucket bounds differ");
        assert_eq!(m.rect, t.rect, "rank {r}: mesh rect differs");
        assert!(
            bits_eq(m.fields.ex.as_slice(), t.fields.ex.as_slice())
                && bits_eq(m.fields.ey.as_slice(), t.fields.ey.as_slice())
                && bits_eq(m.fields.ez.as_slice(), t.fields.ez.as_slice())
                && bits_eq(m.fields.bx.as_slice(), t.fields.bx.as_slice())
                && bits_eq(m.fields.by.as_slice(), t.fields.by.as_slice())
                && bits_eq(m.fields.bz.as_slice(), t.fields.bz.as_slice()),
            "rank {r}: fields differ"
        );
    }
}

fn cross_cfg(ranks: usize, particles: usize, redistribute_every: usize) -> SimConfig {
    SimConfig {
        machine: MachineConfig::cm5(ranks),
        particles,
        policy: PolicyKind::Periodic(redistribute_every),
        ..SimConfig::small_test()
    }
}

/// Run `iters` steps on executor `E`, returning the final rank states.
fn run_sim<E: SpmdEngine<RankState>>(cfg: SimConfig, iters: usize) -> Vec<RankState> {
    let mut sim: GenericPicSim<E> = GenericPicSim::new(cfg);
    sim.run(iters);
    let counts = sim.particle_counts();
    assert_eq!(counts.iter().sum::<usize>(), sim.config().particles);
    sim.into_machine().into_ranks()
}

/// The acceptance-criteria run: a full simulation at 8 ranks for 50
/// iterations with redistribution enabled (period 10 → 5 redistributions)
/// must be bit-identical between the modeled and threaded executors —
/// particle arrays, sort keys, bucket bounds, rects and fields.
#[test]
fn full_sim_bit_identical_8_ranks_50_iters() {
    let cfg = cross_cfg(8, 1024, 10);
    let modeled = run_sim::<pic_machine::Machine<RankState>>(cfg.clone(), 50);
    let threaded = run_sim::<pic_machine::ThreadedMachine<RankState>>(cfg, 50);
    assert_states_identical(&modeled, &threaded);
}

/// Same property across a spread of rank counts, including non-powers of
/// two (ragged collective shares, uneven block layouts).
#[test]
fn cross_validation_over_rank_counts() {
    for ranks in [1usize, 2, 3, 4, 6] {
        let cfg = cross_cfg(ranks, 512, 5);
        let modeled = run_sim::<pic_machine::Machine<RankState>>(cfg.clone(), 12);
        let threaded = run_sim::<pic_machine::ThreadedMachine<RankState>>(cfg, 12);
        assert_states_identical(&modeled, &threaded);
    }
}

/// The Eulerian movement method migrates particles after every push —
/// the heaviest point-to-point traffic the driver generates.
#[test]
fn cross_validation_eulerian_migration() {
    let mut cfg = cross_cfg(4, 512, 5);
    cfg.movement = pic_core::MovementMethod::Eulerian;
    let modeled = run_sim::<pic_machine::Machine<RankState>>(cfg.clone(), 10);
    let threaded = run_sim::<pic_machine::ThreadedMachine<RankState>>(cfg, 10);
    assert_states_identical(&modeled, &threaded);
}

/// The threaded sim stays live (and conserves particles) under the
/// measurement-driven policy too — results may diverge in *when* they
/// redistribute, never in physics conservation.
#[test]
fn threaded_dynamic_policy_runs_and_conserves() {
    let mut cfg = cross_cfg(4, 512, 1);
    cfg.policy = PolicyKind::DynamicSar;
    let mut sim = ThreadedPicSim::new(cfg);
    let report = sim.run(10);
    assert_eq!(report.iterations.len(), 10);
    assert_eq!(sim.total_particles(), 512);
    let mut modeled = ParallelPicSim::new(sim.config().clone());
    modeled.run(10);
    assert_eq!(modeled.total_particles(), 512);
}

/// Write `v` into the centre of `rank`'s padded `plane`.  The block must
/// leave at least three cells on every side of the centre: one
/// iteration's B→E stencil and halo exchange then cannot carry the value
/// into a neighbour's ghost ring before the guards run.
fn poison(ranks: &mut [RankState], rank: usize, plane: fn(&mut FieldSet) -> &mut [f64], v: f64) {
    let st = &mut ranks[rank];
    let (w, h) = (st.rect.w, st.rect.h);
    assert!(w >= 7 && h >= 7, "rank {rank}'s block {w}x{h} is too small");
    plane(&mut st.fields)[(h / 2 + 1) * (w + 2) + w / 2 + 1] = v;
}

/// A hand-made corruption of a fresh simulation's rank states.
type Corruption = fn(&mut [RankState]);

/// Corrupt a fresh simulation on executor `E`, step once and return the
/// guard's verdict: the failing rank and the violation message.
fn guard_verdict<E: SpmdEngine<RankState>>(corrupt: Corruption) -> (Option<usize>, String) {
    let cfg = SimConfig {
        nx: 64,
        ny: 64,
        ..cross_cfg(5, 1024, 5)
    };
    let mut sim: GenericPicSim<E> = GenericPicSim::new(cfg);
    corrupt(sim.ranks_mut());
    let err = sim
        .try_step()
        .expect_err("the corruption must trip a guard");
    match err.cause {
        FailureCause::InvariantViolation(msg) => (err.rank, msg),
        other => panic!("unexpected cause: {other}"),
    }
}

/// Both executors compute each rank's invariant verdict on their own
/// workers — the modeled machine in contiguous chunks (5 ranks split
/// unevenly at `PIC_HOST_THREADS=3`), the threaded one a rank per worker
/// — and must report the same lowest failing rank with the same message.
#[test]
fn invariant_guards_agree_across_executors() {
    let cases: [(Corruption, usize, &str); 3] = [
        (
            |ranks| {
                poison(ranks, 1, |f| f.ex.as_mut_slice(), f64::NAN);
                poison(ranks, 3, |f| f.bz.as_mut_slice(), f64::INFINITY);
            },
            1,
            "non-finite field value on the local block",
        ),
        (
            |ranks| {
                assert!(ranks[4].keys.pop().is_some());
                poison(ranks, 2, |f| f.ey.as_mut_slice(), f64::NAN);
            },
            2,
            "non-finite field value on the local block",
        ),
        (
            |ranks| {
                assert!(ranks[0].keys.pop().is_some());
                poison(ranks, 0, |f| f.by.as_mut_slice(), f64::NAN);
            },
            0,
            "desynchronized",
        ),
    ];
    for (corrupt, rank, msg) in cases {
        let modeled = guard_verdict::<pic_machine::Machine<RankState>>(corrupt);
        let threaded = guard_verdict::<pic_machine::ThreadedMachine<RankState>>(corrupt);
        assert_eq!(modeled, threaded);
        assert_eq!(modeled.0, Some(rank), "{}", modeled.1);
        assert!(modeled.1.contains(msg), "rank {rank}: {}", modeled.1);
    }
}
