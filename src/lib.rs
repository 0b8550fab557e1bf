//! # pic1996 — umbrella crate
//!
//! Re-exports the whole reproduction stack of Liao, Ou & Ranka,
//! *Dynamic Alignment and Distribution of Irregularly Coupled Data Arrays
//! for Scalable Parallelization of Particle-in-Cell Problems* (IPPS 1996),
//! so that examples and downstream users can depend on a single crate.
//!
//! See the individual crates for the substance:
//!
//! * [`index`] — space-filling-curve cell indexing (Hilbert vs snakelike);
//! * [`machine`] — the virtual distributed-memory machine and cost model;
//! * [`field`] — mesh grids, BLOCK layouts, halo exchange, Maxwell solver;
//! * [`particles`] — SoA particles, loading, interpolation, Boris push;
//! * [`partition`] — particle distribution/redistribution and policies;
//! * [`core`] — the parallel PIC driver tying everything together.

#![warn(missing_docs)]

pub use pic_core as core;
pub use pic_field as field;
pub use pic_index as index;
pub use pic_machine as machine;
pub use pic_particles as particles;
pub use pic_partition as partition;

/// Compiles and runs every Rust snippet in the README as a doctest, so
/// the documented examples cannot drift from the real API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

/// Convenient glob-import of the most used types across the stack.
pub mod prelude {
    pub use pic_core::{ParallelPicSim, PhaseBreakdown, SequentialPicSim, SimConfig, SimReport};
    pub use pic_field::{BlockLayout, Grid2};
    pub use pic_index::{CellIndexer, HilbertIndexer, IndexScheme, SnakeIndexer};
    pub use pic_machine::MachineConfig;
    pub use pic_particles::{ParticleDistribution, Particles};
    pub use pic_partition::{Policy, PolicyKind};
}
