//! Checkpoint-based failure recovery for the simulation driver.
//!
//! [`run_with_recovery`] wraps the iterate/checkpoint/restart loop: run
//! the simulation, snapshot its state every `checkpoint_every`
//! iterations, and when an iteration fails (a rank killed by fault
//! injection, a timeout, a tripped invariant) rebuild the simulation
//! from the last snapshot and re-execute forward.  Because checkpoints
//! are taken at iteration boundaries and capture the full persistent
//! state, and because injected kills are one-shot (a consumed
//! [`FaultSpec`](pic_machine::FaultSpec) does not re-fire on the
//! re-executed iteration), the recovered run's final state is
//! bit-identical to an uninterrupted run under any
//! measurement-independent redistribution policy.
//!
//! Checkpoints are held as *encoded bytes* and decoded on restart, so
//! recovery exercises the full serialize → checksum → deserialize path
//! rather than cloning live state.

use pic_machine::{
    CheckpointAction, CheckpointEvent, Instruments, IterationRecord, SpmdEngine, SpmdError,
    TraceEvent,
};

use crate::checkpoint::Checkpoint;
use crate::config::SimConfig;
use crate::sim::GenericPicSim;
use crate::state::RankState;

/// What [`run_with_recovery`] produced.
pub struct RecoveryOutcome<E: SpmdEngine<RankState>> {
    /// The simulation after the final iteration.
    pub sim: GenericPicSim<E>,
    /// One record per iteration `1..=iterations`.  Iterations that were
    /// re-executed after a restart appear once, with the measurements of
    /// the successful execution.
    pub records: Vec<IterationRecord>,
    /// How many times the run restarted from a checkpoint.
    pub restarts: usize,
    /// The error behind each restart, in order.
    pub failures: Vec<SpmdError>,
}

/// Run `iterations` steps with checkpoint/restart recovery, with
/// `instruments` (fault plan, recorder, metrics registry) installed for
/// the whole protected run.
///
/// A checkpoint is taken after the initial distribution and then after
/// every `checkpoint_every`-th completed iteration (`0` disables
/// periodic snapshots, leaving only the post-setup one).  On an
/// iteration failure the driver decodes the latest snapshot, rebuilds
/// the simulation, carries the instruments from the dead simulation
/// into the resumed one, and continues; after `max_restarts` restarts
/// the next failure is returned to the caller.  A recorder sees the
/// whole protected run as one event stream, including a
/// [`CheckpointEvent`] for every snapshot saved and restored (fault
/// events are emitted by the driver at the failing iteration).
///
/// # Errors
/// Returns the error of the failure that exhausted `max_restarts`, or
/// of a failed initial distribution (nothing to restart from).
pub fn run_with_recovery<E: SpmdEngine<RankState>>(
    cfg: SimConfig,
    iterations: usize,
    checkpoint_every: usize,
    instruments: Instruments,
    max_restarts: usize,
) -> Result<RecoveryOutcome<E>, SpmdError> {
    let mut sim = GenericPicSim::<E>::try_new_instrumented(cfg.clone(), instruments)?;
    let mut latest = sim.checkpoint().encode();
    emit_checkpoint(&mut sim, 0, latest.len(), CheckpointAction::Saved);
    let mut records: Vec<IterationRecord> = Vec::with_capacity(iterations);
    let mut restarts = 0;
    let mut failures = Vec::new();

    while sim.iterations_done() < iterations {
        match sim.try_step() {
            Ok(rec) => {
                records.push(rec);
                let done = sim.iterations_done();
                if checkpoint_every > 0 && done.is_multiple_of(checkpoint_every) {
                    latest = sim.checkpoint().encode();
                    emit_checkpoint(&mut sim, done as u64, latest.len(), CheckpointAction::Saved);
                }
            }
            Err(err) => {
                if restarts >= max_restarts {
                    return Err(err);
                }
                restarts += 1;
                failures.push(err);
                let ck =
                    Checkpoint::decode(&latest).expect("in-memory checkpoint failed its checksum");
                // drop the records of iterations past the snapshot;
                // they will be re-executed
                records.truncate(ck.iter as usize);
                let mut fresh = GenericPicSim::<E>::resume_from(cfg.clone(), &ck)
                    .expect("a run's own checkpoint matches its configuration");
                // carry the fault plan, the event stream and the
                // registry into the resumed simulation
                *fresh.instruments_mut() = std::mem::take(sim.instruments_mut());
                sim = fresh;
                emit_checkpoint(&mut sim, ck.iter, latest.len(), CheckpointAction::Restored);
            }
        }
    }

    Ok(RecoveryOutcome {
        sim,
        records,
        restarts,
        failures,
    })
}

/// Emit one checkpoint event to the simulation's recorder, if any.
fn emit_checkpoint<E: SpmdEngine<RankState>>(
    sim: &mut GenericPicSim<E>,
    iter: u64,
    bytes: usize,
    action: CheckpointAction,
) {
    if let Some(rec) = &mut sim.instruments_mut().recorder {
        rec.record(&TraceEvent::Checkpoint(CheckpointEvent {
            iter,
            bytes: bytes as u64,
            action,
        }));
    }
}
