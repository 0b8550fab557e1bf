//! Morton (Z-order) indexing — an extra locality baseline for ablations.
//!
//! Morton order maintains proximity along both dimensions like Hilbert, but
//! has long diagonal jumps at block boundaries; the `indexing_ablation`
//! example quantifies how much that costs relative to Hilbert.
//!
//! Like [`crate::HilbertIndexer`], the raw curve lives on an enclosing
//! power-of-two square and is compacted to a bijection on the mesh.

use crate::curve::CellIndexer;
use crate::hilbert2d::enclosing_order;

/// Interleave the low 32 bits of `v` with zeros (bit i -> bit 2i).
#[inline]
fn part1by1(v: u64) -> u64 {
    let mut v = v & 0xffff_ffff;
    v = (v | (v << 16)) & 0x0000_ffff_0000_ffff;
    v = (v | (v << 8)) & 0x00ff_00ff_00ff_00ff;
    v = (v | (v << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

/// Inverse of [`part1by1`]: collect every other bit.
#[inline]
fn compact1by1(v: u64) -> u64 {
    let mut v = v & 0x5555_5555_5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
    v = (v | (v >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    v = (v | (v >> 4)) & 0x00ff_00ff_00ff_00ff;
    v = (v | (v >> 8)) & 0x0000_ffff_0000_ffff;
    v = (v | (v >> 16)) & 0x0000_0000_ffff_ffff;
    v
}

/// Morton code of `(x, y)`.
#[inline]
pub fn morton_encode(x: u64, y: u64) -> u64 {
    part1by1(x) | (part1by1(y) << 1)
}

/// Coordinates of a Morton code.
#[inline]
pub fn morton_decode(code: u64) -> (u64, u64) {
    (compact1by1(code), compact1by1(code >> 1))
}

/// Morton-order indexer for an arbitrary `width x height` mesh.
#[derive(Debug, Clone)]
pub struct MortonIndexer {
    width: usize,
    height: usize,
    cell_to_index: Vec<u64>,
    index_to_cell: Vec<(u32, u32)>,
}

impl MortonIndexer {
    /// Build the indexer.
    ///
    /// # Panics
    /// Panics if either dimension is zero or exceeds `u32::MAX`.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be nonzero");
        assert!(width <= u32::MAX as usize && height <= u32::MAX as usize);
        // `enclosing_order` isn't needed for correctness of Morton codes,
        // but asserting the mesh fits keeps behaviour aligned with Hilbert.
        let _ = enclosing_order(width, height);
        let mut ranked: Vec<(u64, u32, u32)> = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                ranked.push((morton_encode(x as u64, y as u64), x as u32, y as u32));
            }
        }
        ranked.sort_unstable_by_key(|&(raw, _, _)| raw);
        let mut cell_to_index = vec![0u64; width * height];
        let mut index_to_cell = Vec::with_capacity(width * height);
        for (compact, &(_, x, y)) in ranked.iter().enumerate() {
            cell_to_index[y as usize * width + x as usize] = compact as u64;
            index_to_cell.push((x, y));
        }
        Self {
            width,
            height,
            cell_to_index,
            index_to_cell,
        }
    }
}

impl CellIndexer for MortonIndexer {
    fn width(&self) -> usize {
        self.width
    }

    fn height(&self) -> usize {
        self.height
    }

    #[inline]
    fn index(&self, x: usize, y: usize) -> u64 {
        assert!(
            x < self.width && y < self.height,
            "cell ({x},{y}) outside mesh"
        );
        self.cell_to_index[y * self.width + x]
    }

    #[inline]
    fn coords(&self, idx: u64) -> (usize, usize) {
        let (x, y) = self.index_to_cell[idx as usize];
        (x as usize, y as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_matches_bit_interleave() {
        assert_eq!(morton_encode(0, 0), 0);
        assert_eq!(morton_encode(1, 0), 1);
        assert_eq!(morton_encode(0, 1), 2);
        assert_eq!(morton_encode(1, 1), 3);
        assert_eq!(morton_encode(2, 0), 4);
        // x = 101, y = 011 -> bits interleave to y2 x2 y1 x1 y0 x0 = 011011
        assert_eq!(morton_encode(0b101, 0b011), 0b011011);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for x in 0..64u64 {
            for y in 0..64u64 {
                assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
            }
        }
    }

    #[test]
    fn large_coordinates_roundtrip() {
        for &(x, y) in &[
            (u32::MAX as u64, 0),
            (0, u32::MAX as u64),
            (123_456_789, 987_654_321),
        ] {
            assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
        }
    }

    #[test]
    fn indexer_is_a_bijection() {
        let ix = MortonIndexer::new(12, 10);
        let mut seen = vec![false; ix.len()];
        for y in 0..10 {
            for x in 0..12 {
                let i = ix.index(x, y) as usize;
                assert!(!seen[i]);
                seen[i] = true;
                assert_eq!(ix.coords(i as u64), (x, y));
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn square_mesh_matches_raw_codes_in_order() {
        // On a full power-of-two square, compaction is the identity ranking.
        let ix = MortonIndexer::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(ix.index(x, y), morton_encode(x as u64, y as u64));
            }
        }
    }
}
