//! Particle indexing: a particle inherits its cell's curve index.
//!
//! "Each particle is assigned an index of its global cell number, which is
//! arranged using a Hilbert index-based order" (paper Section 5.1).  The
//! index is the sort key for both the initial distribution and every
//! redistribution; because cells and processor blocks are indexed along
//! the same curve, sorting particles by key simultaneously load balances
//! and aligns them with the mesh.

use pic_index::CellIndexer;
use pic_particles::Particles;

/// The cell rule lives next to [`pic_particles::Cic`], which deposits and
/// gathers through the same cell a particle's key names.
pub use pic_particles::cell_of;

/// Curve index of the particle at `(x, y)`.
#[inline]
pub fn particle_key(indexer: &dyn CellIndexer, x: f64, y: f64, dx: f64, dy: f64) -> u64 {
    let (cx, cy) = cell_of(x, y, dx, dy, indexer.width(), indexer.height());
    indexer.index(cx, cy)
}

/// Keys for a whole particle array (the per-iteration indexing pass of
/// `Particle_Redistribution`, paper Figure 12 line 1), written into a
/// caller-owned buffer: the hot path reuses one key vector per rank
/// instead of reallocating.
pub fn assign_keys_into(
    p: &Particles,
    indexer: &dyn CellIndexer,
    dx: f64,
    dy: f64,
    keys: &mut Vec<u64>,
) {
    keys.clear();
    keys.reserve(p.len());
    for i in 0..p.len() {
        keys.push(particle_key(indexer, p.x[i], p.y[i], dx, dy));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_index::{HilbertIndexer, IndexScheme};

    #[test]
    fn cell_of_basic_geometry() {
        assert_eq!(cell_of(0.0, 0.0, 1.0, 1.0, 8, 8), (0, 0));
        assert_eq!(cell_of(3.7, 2.1, 1.0, 1.0, 8, 8), (3, 2));
        assert_eq!(cell_of(7.999, 7.999, 1.0, 1.0, 8, 8), (7, 7));
        // non-unit cells
        assert_eq!(cell_of(1.0, 1.5, 0.5, 0.5, 8, 8), (2, 3));
    }

    #[test]
    fn particles_in_same_cell_share_a_key() {
        let ix = HilbertIndexer::new(8, 8);
        let a = particle_key(&ix, 3.2, 2.9, 1.0, 1.0);
        let b = particle_key(&ix, 3.9, 2.1, 1.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn keys_follow_the_chosen_curve() {
        for scheme in IndexScheme::ALL {
            let ix = scheme.build(8, 4);
            let mut p = Particles::electrons();
            p.push(0.5, 0.5, 0.0, 0.0, 0.0); // cell (0,0)
            p.push(5.5, 3.5, 0.0, 0.0, 0.0); // cell (5,3)
            let mut keys = Vec::new();
            assign_keys_into(&p, ix.as_ref(), 1.0, 1.0, &mut keys);
            assert_eq!(keys[0], ix.index(0, 0), "{scheme}");
            assert_eq!(keys[1], ix.index(5, 3), "{scheme}");
        }
    }

    #[test]
    fn edge_positions_clamp_into_mesh() {
        let ix = HilbertIndexer::new(4, 4);
        // position numerically at the domain edge still keys validly
        let k = particle_key(&ix, 4.0f64.next_down(), 0.0, 1.0, 1.0);
        assert_eq!(k, ix.index(3, 0));
    }
}
