//! Fault injection and checkpoint/restart at the simulation level.
//!
//! The acceptance scenario: kill rank 2 at iteration 25 of a
//! 50-iteration, 8-rank threaded run, restart from the last periodic
//! checkpoint, and end **bit-identical** to an uninterrupted run.  The
//! redistribution policy is `Periodic` here for the same reason as in
//! `cross_validation.rs`: decision inputs must not depend on measured
//! wall-clock time.

use std::sync::Arc;

use pic_core::state::RankState;
use pic_core::{
    run_with_recovery, Checkpoint, CheckpointError, GenericPicSim, IterationRecord, ParallelPicSim,
    PhaseBreakdown, SimConfig, SimReport,
};
use pic_machine::{
    FailureCause, FaultPlan, Instruments, MachineConfig, SpmdEngine, ThreadedMachine,
};
use pic_partition::PolicyKind;

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_states_identical(expected: &[RankState], actual: &[RankState]) {
    assert_eq!(expected.len(), actual.len(), "rank count differs");
    for (r, (m, t)) in expected.iter().zip(actual).enumerate() {
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

fn with_plan(plan: Arc<FaultPlan>) -> Instruments {
    Instruments {
        fault_plan: Some(plan),
        ..Instruments::default()
    }
}

fn recovery_cfg(ranks: usize, particles: usize, redistribute_every: usize) -> SimConfig {
    SimConfig {
        machine: MachineConfig::cm5(ranks),
        particles,
        policy: PolicyKind::Periodic(redistribute_every),
        ..SimConfig::small_test()
    }
}

/// The acceptance demo: rank 2 is killed at iteration 25 of a
/// 50-iteration 8-rank threaded run; the driver restarts from the last
/// checkpoint (every 10 iterations) and the final state is bit-identical
/// to an uninterrupted run.
#[test]
fn killed_rank_recovers_from_checkpoint_bit_identical() {
    let cfg = recovery_cfg(8, 1024, 10);

    let mut clean = GenericPicSim::<ThreadedMachine<RankState>>::new(cfg.clone());
    clean.run(50);
    let clean_ranks = clean.into_machine().into_ranks();

    let plan = Arc::new(FaultPlan::new(42).kill(2, 25));
    let outcome = run_with_recovery::<ThreadedMachine<RankState>>(cfg, 50, 10, with_plan(plan), 3)
        .expect("recovery must absorb the injected kill");

    assert_eq!(outcome.restarts, 1, "exactly one restart");
    let failure = &outcome.failures[0];
    assert!(failure.is_injected_kill(), "unexpected failure: {failure}");
    assert_eq!(failure.rank, Some(2), "wrong rank blamed: {failure}");
    assert_eq!(failure.epoch, Some(25), "wrong epoch: {failure}");

    assert_eq!(outcome.records.len(), 50);
    for (i, rec) in outcome.records.iter().enumerate() {
        assert_eq!(rec.iter, i + 1, "records must cover 1..=50 exactly once");
    }
    assert_eq!(outcome.sim.total_particles(), 1024);
    let recovered_ranks = outcome.sim.into_machine().into_ranks();
    assert_states_identical(&clean_ranks, &recovered_ranks);
}

/// Delay/reorder/drop-retry noise across the whole run never changes
/// simulation results — on any seed.
#[test]
fn benign_noise_never_changes_simulation_results() {
    let cfg = recovery_cfg(4, 512, 5);
    let mut clean = GenericPicSim::<ThreadedMachine<RankState>>::new(cfg.clone());
    clean.run(12);
    let clean_ranks = clean.into_machine().into_ranks();

    for seed in [1u64, 2, 3] {
        let mut noisy = GenericPicSim::<ThreadedMachine<RankState>>::new(cfg.clone());
        noisy.instruments_mut().fault_plan = Some(Arc::new(FaultPlan::benign(seed)));
        noisy.run(12);
        let noisy_ranks = noisy.into_machine().into_ranks();
        assert_states_identical(&clean_ranks, &noisy_ranks);
    }
}

/// A kill scheduled for the *initial distribution* (epoch 0) fails
/// `try_new` with full attribution — there is no checkpoint to hide
/// behind.
#[test]
fn kill_during_setup_fails_construction() {
    let cfg = recovery_cfg(4, 512, 10);
    let instruments = with_plan(Arc::new(FaultPlan::new(3).kill(0, 0)));
    let err =
        match GenericPicSim::<ThreadedMachine<RankState>>::try_new_instrumented(cfg, instruments) {
            Ok(_) => panic!("a kill at epoch 0 must fail the initial distribution"),
            Err(err) => err,
        };
    assert!(err.is_injected_kill(), "unexpected error: {err}");
    assert_eq!(err.rank, Some(0));
    assert_eq!(err.epoch, Some(0));
}

/// Checkpoint → encode → decode → resume is bit-identical at arbitrary
/// iteration boundaries, and the resumed simulation *continues*
/// identically (modeled executor: fully deterministic, fast).
#[test]
fn checkpoint_roundtrip_at_arbitrary_boundaries() {
    for (ranks, particles, stop_at) in [
        (1usize, 64usize, 0usize),
        (2, 128, 1),
        (4, 512, 7),
        (4, 512, 10), // exactly on a redistribution boundary
        (3, 256, 13),
    ] {
        let cfg = recovery_cfg(ranks, particles, 5);
        let mut original = ParallelPicSim::new(cfg.clone());
        for _ in 0..stop_at {
            original.step();
        }

        let bytes = original.checkpoint().encode();
        let decoded = Checkpoint::decode(&bytes).expect("decode");
        assert_eq!(decoded.iter, stop_at as u64);
        assert_eq!(decoded.total_particles(), particles);
        let mut resumed = ParallelPicSim::resume_from(cfg, &decoded).expect("resume");

        // the restored state matches the live state bit-for-bit...
        assert_states_identical(original.machine().ranks(), resumed.machine().ranks());

        // ...and both trajectories stay identical for 6 more iterations
        // (crossing the next redistribution)
        for _ in 0..6 {
            original.step();
            resumed.step();
        }
        assert_states_identical(original.machine().ranks(), resumed.machine().ranks());
        assert_eq!(original.iterations_done(), resumed.iterations_done());
    }
}

/// A resumed simulation's first `run(k)` reports what the original's
/// next `run(k)` does: the work before the checkpoint (redistributions,
/// their cost, the phase breakdown) was reported by the original run and
/// is not counted again.  Every count matches exactly; every seconds
/// figure to 1e-9 relative, because an operation's modeled duration is
/// a difference of clock readings, which the resumed engine starts
/// again from zero.
#[test]
fn resumed_run_reports_like_the_original() {
    let cfg = SimConfig {
        policy: PolicyKind::Periodic(3),
        ..SimConfig::small_test()
    };
    let mut original = ParallelPicSim::new(cfg.clone());
    original.run(7);
    let mut resumed = ParallelPicSim::resume_from(cfg, &original.checkpoint()).expect("resume");
    let (want, got) = (original.run(5), resumed.run(5));
    assert_eq!(
        got.redistributions, 2,
        "Periodic(3) fires after iterations 9 and 12"
    );

    let counts = |r: &SimReport| SimReport {
        iterations: r
            .iterations
            .iter()
            .map(|i| IterationRecord {
                time_s: 0.0,
                compute_s: 0.0,
                comm_s: 0.0,
                redistribute_s: 0.0,
                ..*i
            })
            .collect(),
        total_s: 0.0,
        compute_s: 0.0,
        overhead_s: 0.0,
        redistribute_total_s: 0.0,
        setup_s: 0.0,
        breakdown: PhaseBreakdown::default(),
        ..r.clone()
    };
    assert_eq!(counts(&got), counts(&want));
    let seconds = |r: &SimReport| {
        let b = r.breakdown;
        let mut s = vec![
            r.total_s,
            r.compute_s,
            r.overhead_s,
            r.redistribute_total_s,
            r.setup_s,
        ];
        s.extend([
            b.scatter_s,
            b.field_solve_s,
            b.gather_s,
            b.push_s,
            b.redistribute_s,
        ]);
        for i in &r.iterations {
            s.extend([i.time_s, i.compute_s, i.comm_s, i.redistribute_s]);
        }
        s
    };
    for (k, (g, w)) in seconds(&got).into_iter().zip(seconds(&want)).enumerate() {
        assert!(
            (g - w).abs() <= 1e-9 * w.abs(),
            "seconds figure {k}: {g} vs {w}"
        );
    }
}

/// Resuming a checkpoint under a configuration it was not taken with
/// returns a typed error naming what differs.  The policy case matters
/// most: resumed under another kind, the checkpoint would silently
/// restart that kind's decision state from scratch.
#[test]
fn resume_rejects_a_checkpoint_of_another_configuration() {
    let cfg = recovery_cfg(2, 128, 5);
    let mut sim = ParallelPicSim::new(cfg.clone());
    sim.step();
    let ck = sim.checkpoint();
    let mismatches = [
        (
            SimConfig {
                machine: MachineConfig::cm5(4),
                ..cfg.clone()
            },
            "rank count",
        ),
        (
            SimConfig {
                particles: 256,
                ..cfg.clone()
            },
            "particle total",
        ),
        (
            SimConfig {
                policy: PolicyKind::DynamicSar,
                ..cfg.clone()
            },
            "redistribution policy",
        ),
        (
            SimConfig {
                nx: 2 * cfg.nx,
                ..cfg.clone()
            },
            "field block dimensions",
        ),
    ];
    for (other, what) in mismatches {
        match ParallelPicSim::resume_from(other, &ck) {
            Err(e) => assert_eq!(e, CheckpointError::Mismatch(what)),
            Ok(_) => panic!("a checkpoint with a different {what} was resumed"),
        }
    }
    assert!(ParallelPicSim::resume_from(cfg, &ck).is_ok());
}

/// The invariant guards catch state corruption and report it as a typed
/// error instead of letting the run limp on.
#[test]
fn invariant_guards_catch_corruption() {
    // non-finite field: poison an *interior* cell (the ghost ring is
    // legitimately rewritten by the halo exchange every solve)
    let mut sim = ParallelPicSim::new(recovery_cfg(2, 64, 10));
    {
        let ex = &mut sim.ranks_mut()[1].fields.ex;
        let w = ex.width();
        ex.as_mut_slice()[2 * w + 2] = f64::NAN;
    }
    let err = sim.try_step().expect_err("NaN field must trip the guard");
    assert!(
        matches!(err.cause, FailureCause::InvariantViolation(_)),
        "unexpected cause: {err}"
    );
    assert_eq!(err.rank, Some(1));

    // key/particle desynchronization
    let mut sim = ParallelPicSim::new(recovery_cfg(2, 64, 10));
    sim.ranks_mut()[0].keys.pop();
    let err = sim.try_step().expect_err("desync must trip the guard");
    assert!(matches!(err.cause, FailureCause::InvariantViolation(_)));
    assert_eq!(err.rank, Some(0));

    // guards off: the same corruption passes through silently
    let mut cfg = recovery_cfg(2, 64, 10);
    cfg.check_invariants = false;
    let mut sim = ParallelPicSim::new(cfg);
    {
        let ex = &mut sim.ranks_mut()[1].fields.ex;
        let w = ex.width();
        ex.as_mut_slice()[2 * w + 2] = f64::NAN;
    }
    sim.try_step().expect("guards disabled");
}

/// Exhausted restart budget: the driver returns the error instead of
/// looping forever on a repeatedly-rearmed fault.
#[test]
fn restart_budget_is_respected() {
    let cfg = recovery_cfg(4, 512, 5);
    // two kills at different epochs, budget of one restart: the second
    // kill surfaces to the caller
    let plan = Arc::new(FaultPlan::new(9).kill(1, 3).kill(3, 6));
    let err = match run_with_recovery::<ThreadedMachine<RankState>>(cfg, 10, 2, with_plan(plan), 1)
    {
        Ok(_) => panic!("the second kill must exhaust the restart budget"),
        Err(err) => err,
    };
    assert!(err.is_injected_kill());
    assert_eq!(err.rank, Some(3));
    assert_eq!(err.epoch, Some(6));
}

/// Recovery also handles a kill *inside a specific phase* — attribution
/// carries the phase and the re-executed iteration completes it.
#[test]
fn phase_scoped_kill_recovers() {
    use pic_machine::PhaseKind;
    let cfg = recovery_cfg(4, 512, 10);
    let plan = Arc::new(FaultPlan::new(5).kill_in_phase(1, 4, PhaseKind::Scatter));
    let outcome =
        run_with_recovery::<ThreadedMachine<RankState>>(cfg.clone(), 8, 2, with_plan(plan), 2)
            .expect("recovers");
    assert_eq!(outcome.restarts, 1);
    assert_eq!(outcome.failures[0].phase, Some(PhaseKind::Scatter));
    assert_eq!(outcome.failures[0].rank, Some(1));

    let mut clean = GenericPicSim::<ThreadedMachine<RankState>>::new(cfg);
    clean.run(8);
    assert_states_identical(
        &clean.into_machine().into_ranks(),
        &outcome.sim.into_machine().into_ranks(),
    );
}
