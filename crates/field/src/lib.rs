//! # pic-field — mesh grid arrays and the field solve substrate
//!
//! The PIC mesh side of the paper: dense 2-D grids ([`Grid2`]), BLOCK
//! distributions of the mesh over processors ([`BlockLayout`]), halo
//! (ghost-ring) exchange plans for the finite-difference stencil
//! ([`HaloPlan`]), and a 2½-D electromagnetic field solver
//! ([`maxwell`]) with periodic boundaries.
//!
//! The paper assumes "the mesh grid is distributed along one or more
//! dimensions using BLOCK distribution" (Section 1) — [`BlockLayout`]
//! implements both the 1-D and 2-D variants, with an optional block→rank
//! permutation so the partition crate can arrange blocks along a Hilbert
//! curve of processor addresses (paper Figure 10).
//!
//! ```
//! use pic_field::{BlockLayout, Grid2};
//!
//! let layout = BlockLayout::new_2d(128, 64, 8, 4); // 32 ranks
//! assert_eq!(layout.num_ranks(), 32);
//! let rect = layout.local_rect(5);
//! assert_eq!(rect.area(), 128 * 64 / 32);
//! assert_eq!(layout.owner_of(rect.x0, rect.y0), 5);
//!
//! let mut g = Grid2::zeros(16, 8);
//! g[(3, 2)] = 1.5;
//! assert_eq!(g[(3, 2)], 1.5);
//! ```

#![warn(missing_docs)]

pub mod energy;
pub mod grid2;
pub mod halo;
pub mod layout;
pub mod maxwell;
pub mod poisson;

pub use energy::field_energy;
pub use grid2::Grid2;
pub use halo::{CellSlot, HaloMsg, HaloPlan};
pub use layout::{block_grid, factor_near_square, BlockLayout, Rect};
pub use maxwell::{CurrentSet, FieldSet, MaxwellSolver};
pub use poisson::{efield_from_phi, solve_poisson_periodic};
