//! # pic-core — the parallel particle-in-cell driver
//!
//! Ties every substrate together into the system the paper evaluates: a
//! 2½-D relativistic electromagnetic PIC code running on a virtual
//! distributed-memory machine under the **direct Lagrangian** particle
//! movement method with **independent partitioning** — the combination
//! Section 3.1 argues is the only scalable one — plus Hilbert index-based
//! dynamic particle alignment/redistribution.
//!
//! Every iteration runs the paper's four phases as BSP supersteps:
//!
//! 1. **Scatter** — particles deposit current onto the four vertex grid
//!    points of their cell; off-block contributions go through a
//!    duplicate-removing ghost table and are coalesced into one message
//!    per destination rank;
//! 2. **Field solve** — two halo exchanges + the B/E finite-difference
//!    updates on each rank's mesh block;
//! 3. **Gather** — owners push field values of the ghost points recorded
//!    during scatter back to the requesting ranks ("the communication
//!    behavior is just the inverse of the scatter phase"), then every
//!    particle interpolates E and B;
//! 4. **Push** — the relativistic Boris update; no communication, because
//!    particles never migrate between redistributions.
//!
//! Between iterations a [`pic_partition::Policy`] decides
//! whether to run the Hilbert index-based redistribution (bucket
//! incremental sort + order-maintaining balance).
//!
//! ```
//! use pic_core::{ParallelPicSim, SimConfig};
//!
//! let cfg = SimConfig::small_test();
//! let mut sim = ParallelPicSim::new(cfg);
//! let report = sim.run(5);
//! assert_eq!(report.iterations.len(), 5);
//! assert!(report.total_s > 0.0);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod checkpoint;
pub mod config;
pub mod costs;
pub mod diagnostics;
pub mod electrostatic;
pub mod ghost;
pub mod messages;
pub mod phases;
pub mod recovery;
pub mod replicated;
pub mod scratch;
pub mod sequential;
pub mod sim;
pub mod state;
pub mod validation;

pub use analysis::{ideal_bounds, PhaseBounds};
pub use checkpoint::{Checkpoint, CheckpointError, RankSnapshot};
pub use config::{DedupKind, MovementMethod, SimConfig};
pub use diagnostics::EnergyReport;
pub use electrostatic::ElectrostaticPicSim;
pub use ghost::{DirectTableAccumulator, GhostAccumulator, HashTableAccumulator};
pub use pic_machine::IterationRecord;
pub use recovery::{run_with_recovery, RecoveryOutcome};
pub use replicated::ReplicatedGridPicSim;
pub use scratch::ScratchArena;
pub use sequential::SequentialPicSim;
pub use sim::{GenericPicSim, ParallelPicSim, PhaseBreakdown, SimReport, ThreadedPicSim};
pub use state::RankState;
pub use validation::{model_error_report, ModelErrorReport, ModelErrorRow};
