//! # pic-partition — dynamic alignment and distribution of the two arrays
//!
//! The paper's core contribution: keep the particle array and the mesh
//! grid array *independently* load balanced while keeping each rank's
//! particle subdomain spatially compact and aligned with its mesh block.
//!
//! * [`block`] — Hilbert-ordered BLOCK decomposition of the mesh over
//!   processor addresses (paper Figure 10);
//! * [`key`] — particle indexing: each particle inherits the
//!   space-filling-curve index of its cell (paper Section 5.1);
//! * [`sample_sort`] — splitter selection and destination classification
//!   for the initial sample-sort-based distribution;
//! * [`bucket`] — bucket incremental sorting for cheap *re*distribution
//!   (paper Figure 12);
//! * [`balance`] — the order-maintaining load balance that equalizes
//!   particle counts without perturbing the global sorted order;
//! * [`policy`] — when to redistribute: static, periodic(k), or the
//!   dynamic Stop-At-Rise criterion `(t1-t0)*(i1-i0) >= T_redist`
//!   (paper Eq. 1);
//! * [`metrics`] — alignment/overlap diagnostics between particle
//!   subdomains and mesh blocks.
//!
//! Everything here is pure rank-local logic over plain data; the
//! `pic-core` driver wires these pieces into machine supersteps.

#![warn(missing_docs)]

pub mod balance;
pub mod block;
pub mod bucket;
pub mod key;
pub mod metrics;
pub mod policy;
pub mod radix;
pub mod sample_sort;

pub use balance::{balance_targets, order_maintaining_balance, BalancePlan};
pub use block::sfc_block_layout;
pub use bucket::{sorted_order_comparison, BucketIncrementalSorter};
pub use key::{assign_keys_into, cell_of, particle_key};
pub use metrics::{alignment_report, AlignmentReport};
pub use policy::{Policy, PolicyDecision, PolicyKind};
pub use radix::{radix_sort_indices, radix_sorted_order_into, RadixScratch};
pub use sample_sort::{
    classify_by_bounds_into, rank_bounds_from_sorted, regular_sample, select_splitters,
};
