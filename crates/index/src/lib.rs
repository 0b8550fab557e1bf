//! # pic-index — space-filling-curve cell indexing
//!
//! The IPPS'96 paper distributes particles over processors by (1) indexing
//! every cell of the computational mesh along a space-filling curve, (2)
//! assigning each particle the index of the cell that encloses it, and (3)
//! sorting the global particle array by that index and splitting it into
//! equal-size contiguous chunks.  The quality of the resulting partition —
//! how spatially compact each processor's particle subdomain is, and hence
//! how much off-processor communication the scatter/gather phases generate —
//! is entirely determined by the *locality* of the indexing scheme.
//!
//! This crate provides the paper's two contenders plus two extra baselines
//! used by the locality ablation:
//!
//! * [`HilbertIndexer`] — the 2-D Hilbert curve (the paper's proposal);
//! * [`SnakeIndexer`] — snakelike (boustrophedon) row ordering (the paper's
//!   comparison baseline);
//! * [`RowMajorIndexer`] — plain row-major ordering;
//! * [`MortonIndexer`] — Z-order / Morton curve;
//!
//! and [`locality`] metrics that quantify why Hilbert wins (smaller index
//! jumps between spatial neighbours, lower perimeter-to-area ratios of
//! contiguous index ranges).
//!
//! All indexers are exact bijections between cell coordinates and
//! `0..width*height` and are validated by property tests.
//!
//! ```
//! use pic_index::{CellIndexer, HilbertIndexer};
//!
//! // an 8x8 mesh indexed along the Hilbert curve
//! let h = HilbertIndexer::new(8, 8);
//! let idx = h.index(3, 5);
//! assert_eq!(h.coords(idx), (3, 5));
//! ```

#![warn(missing_docs)]

pub mod curve;
pub mod hilbert2d;
pub mod locality;
pub mod morton;
pub mod rowmajor;
pub mod snake;

pub use curve::{CellIndexer, IndexScheme};
pub use hilbert2d::HilbertIndexer;
pub use locality::{neighbor_jump_stats, range_bbox_stats, JumpStats, RangeStats};
pub use morton::MortonIndexer;
pub use rowmajor::RowMajorIndexer;
pub use snake::SnakeIndexer;
