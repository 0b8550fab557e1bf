//! # pic-machine — a virtual distributed-memory machine
//!
//! The IPPS'96 paper evaluates on a 32–128 node CM-5.  This crate replaces
//! that hardware with a deterministic **BSP-style virtual machine**: `p`
//! virtual ranks hold rank-local state, execute compute *supersteps*, and
//! exchange typed, byte-counted messages through a router.  Time is
//! *modeled* with the paper's own two-level machine model (Section 4):
//!
//! * a unit of local computation costs `delta` seconds,
//! * every message carries a startup cost `tau`,
//! * every byte transferred costs `mu` seconds,
//!
//! independent of distance between ranks — exactly the assumptions under
//! which the paper analyses scatter/field-solve/gather/push.  Because all
//! communication is counted exactly (messages and bytes, per phase, per
//! rank), the reproduced figures report the same quantities the paper
//! measured: modeled execution time, maximum data sent/received by any
//! processor, and maximum message counts.
//!
//! Virtual ranks run on a persistent pool of host threads, one fixed,
//! contiguous chunk of ranks per worker (`PIC_HOST_THREADS` caps the
//! width; one worker is the sequential mode).  Every width produces
//! bit-identical results because ranks only interact through the router
//! at superstep boundaries.
//!
//! Beyond the modeled machine, the crate ships a second executor: the
//! real-threads [`ThreadedMachine`] runs every virtual rank on its own OS
//! thread with genuine message passing over rank-to-rank channels.  Both
//! executors implement [`SpmdEngine`], so the same phase program runs —
//! and produces bit-identical rank states — on either.
//!
//! ```
//! use pic_machine::{Machine, MachineConfig, PhaseKind, SpmdEngine};
//!
//! // Each rank holds a counter; one superstep sends it to the next rank.
//! let cfg = MachineConfig::cm5(4);
//! let mut m = Machine::new(cfg, vec![0u64; 4]);
//! m.superstep(
//!     PhaseKind::Other,
//!     |rank, _state, ctx, outbox| {
//!         ctx.charge_ops(1.0);
//!         outbox.send((rank + 1) % 4, vec![rank as u64]);
//!     },
//!     |_rank, state, _ctx, inbox| {
//!         for (_, msg) in inbox {
//!             *state += msg[0];
//!         }
//!     },
//! )
//! .expect("no rank fails");
//! assert_eq!(m.ranks()[1], 0); // rank 1 received rank 0's value 0
//! assert_eq!(m.ranks()[0], 3); // rank 0 received rank 3's value 3
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod config;
pub mod engine;
pub mod error;
pub mod fault;
pub mod machine;
pub mod metrics;
pub mod payload;
mod pool;
mod record;
pub mod stats;
mod threaded;
pub mod threaded_engine;
pub mod trace;

pub use clock::Clock;
pub use config::MachineConfig;
pub use engine::SpmdEngine;
pub use error::{FailureCause, SpmdError, TimeoutDetail};
pub use fault::{FaultKind, FaultNoise, FaultPlan, FaultSession, FaultSpec, SendFault};
pub use machine::{Machine, Outbox, PhaseCtx};
pub use metrics::{CommMatrix, Histogram, MetricsRegistry, PhaseFamily, SharedMetrics};
pub use payload::Payload;
pub use record::Instruments;
pub use stats::{PhaseKind, StatsLog, SuperstepStats};
pub use threaded_engine::ThreadedMachine;
pub use trace::{
    CheckpointAction, CheckpointEvent, FaultEvent, IterationRecord, JsonLinesRecorder,
    MemoryRecorder, MetricsReport, MultiRecorder, PhaseMetrics, PolicyDecisionEvent, RankLoadEvent,
    Recorder, RedistributionEvent, RedistributionTrigger, SharedRecorder, SpanEvent, TraceEvent,
};
