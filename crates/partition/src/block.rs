//! SFC-ordered BLOCK decomposition of the mesh.
//!
//! Paper Figure 10: "Hilbert indexing scheme is applied on 16 processor
//! addresses and 64 cells in a mesh where each sub-block contains 4 cells
//! and is corresponding to a processor."  Ranks are laid along the same
//! curve as cells, so the `r`-th contiguous chunk of the sorted particle
//! array is spatially close to rank `r`'s mesh block — this is the
//! *alignment* half of the paper's contribution.

use pic_field::{block_grid, BlockLayout};
use pic_index::IndexScheme;

/// Build the BLOCK layout of an `nx x ny` mesh over `p` ranks, with the
/// block→rank mapping ordered along `scheme` over the block grid.
///
/// Rank `r` owns the `r`-th block along the curve; consecutive ranks own
/// spatially adjacent blocks (exactly adjacent for Hilbert/snake).
///
/// # Panics
/// Panics if `p` does not tile the mesh (more blocks than cells along a
/// dimension of the [`block_grid`]).
pub fn sfc_block_layout(nx: usize, ny: usize, p: usize, scheme: IndexScheme) -> BlockLayout {
    let (pr, pc) = block_grid(nx, ny, p);
    let layout = BlockLayout::new_2d(nx, ny, pr, pc);
    // index the pr x pc block grid along the curve; block (bi, bj) gets
    // rank = its curve position
    let block_indexer = scheme.build(pr, pc);
    let mut block_to_rank = vec![0usize; p];
    for bj in 0..pc {
        for bi in 0..pr {
            block_to_rank[bj * pr + bi] = block_indexer.index(bi, bj) as usize;
        }
    }
    layout.with_block_to_rank(block_to_rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_layout_makes_consecutive_ranks_adjacent() {
        let layout = sfc_block_layout(64, 64, 16, IndexScheme::Hilbert);
        for r in 0..15 {
            let a = layout.local_rect(r);
            let b = layout.local_rect(r + 1);
            // adjacent blocks share an edge: their rectangles, grown by one
            // cell, overlap
            let grown = pic_field::Rect {
                x0: a.x0.saturating_sub(1),
                y0: a.y0.saturating_sub(1),
                w: a.w + 2,
                h: a.h + 2,
            };
            assert!(
                grown.intersect(&b).is_some(),
                "ranks {r} and {} not adjacent: {a:?} vs {b:?}",
                r + 1
            );
        }
    }

    #[test]
    fn every_scheme_produces_a_valid_layout() {
        for scheme in IndexScheme::ALL {
            let layout = sfc_block_layout(128, 64, 32, scheme);
            assert_eq!(layout.num_ranks(), 32, "{scheme}");
            // ownership is a bijection over blocks
            let mut seen = [false; 32];
            for (r, seen_r) in seen.iter_mut().enumerate() {
                let rect = layout.local_rect(r);
                assert_eq!(layout.owner_of(rect.x0, rect.y0), r, "{scheme}");
                assert!(!*seen_r);
                *seen_r = true;
            }
        }
    }

    #[test]
    fn rectangular_mesh_orients_block_grid() {
        let layout = sfc_block_layout(128, 64, 32, IndexScheme::Hilbert);
        assert_eq!((layout.pr(), layout.pc()), (8, 4));
        // paper meshes divide evenly: every block is 16x16
        for r in 0..32 {
            let rect = layout.local_rect(r);
            assert_eq!((rect.w, rect.h), (16, 16));
        }
    }

    #[test]
    fn rank_zero_starts_at_curve_origin() {
        let layout = sfc_block_layout(64, 64, 16, IndexScheme::Hilbert);
        // Hilbert curve starts at block (0,0)
        let rect = layout.local_rect(0);
        assert_eq!((rect.x0, rect.y0), (0, 0));
    }
}
