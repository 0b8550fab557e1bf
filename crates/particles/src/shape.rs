//! Cloud-in-cell (bilinear) interpolation weights.
//!
//! Paper Figure 3: "Using a linear interpolation scheme each particle
//! scatters its contributions to the current mesh grid points at the
//! vertices of the cell in which it lies", and the gather phase uses the
//! same four weights in reverse.  [`Cic`] computes the cell and the four
//! vertex weights once per particle per phase.  The cell comes from
//! [`cell_of`], the same rule that gives a particle its curve key, so a
//! particle's key cell and its deposit cell cannot disagree.

/// The cell containing position `(x, y)` on a mesh of `nx x ny` cells of
/// size `dx x dy`.  Positions must be wrapped into the domain; the clamp
/// guards the `x / dx == nx` edge case from floating-point roundoff.
#[inline]
pub fn cell_of(x: f64, y: f64, dx: f64, dy: f64, nx: usize, ny: usize) -> (usize, usize) {
    debug_assert!(x >= 0.0 && y >= 0.0, "position must be wrapped first");
    let cx = ((x / dx) as usize).min(nx - 1);
    let cy = ((y / dy) as usize).min(ny - 1);
    (cx, cy)
}

/// The cell containing a particle and its four vertex weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cic {
    /// Cell x index (lower-left vertex x).
    pub ix: usize,
    /// Cell y index (lower-left vertex y).
    pub iy: usize,
    /// Weights for vertices in order (ix,iy), (ix+1,iy), (ix,iy+1),
    /// (ix+1,iy+1).  Non-negative, sum to 1.
    pub w: [f64; 4],
}

impl Cic {
    /// Compute the cell and weights of a particle at `(x, y)` on a mesh of
    /// `nx x ny` cells of size `dx x dy` with periodic vertices.
    ///
    /// Positions must already be wrapped into `[0, nx*dx) x [0, ny*dy)`.
    ///
    /// # Panics
    /// Panics in debug builds if the position is outside the domain.
    #[inline]
    pub fn new(x: f64, y: f64, dx: f64, dy: f64, nx: usize, ny: usize) -> Self {
        debug_assert!(
            (0.0..nx as f64 * dx).contains(&x) && (0.0..ny as f64 * dy).contains(&y),
            "position ({x},{y}) outside domain"
        );
        let (ix, iy) = cell_of(x, y, dx, dy, nx, ny);
        let ax = x / dx - ix as f64;
        let ay = y / dy - iy as f64;
        Self {
            ix,
            iy,
            w: [
                (1.0 - ax) * (1.0 - ay),
                ax * (1.0 - ay),
                (1.0 - ax) * ay,
                ax * ay,
            ],
        }
    }

    /// The four vertex grid points, wrapped periodically onto an
    /// `nx x ny` vertex grid.
    #[inline]
    pub fn corners(&self, nx: usize, ny: usize) -> [(usize, usize); 4] {
        // ix < nx and iy < ny, so the upper neighbour wraps only from the
        // last cell: a compare replaces the integer division of `%`.
        let xp = if self.ix + 1 == nx { 0 } else { self.ix + 1 };
        let yp = if self.iy + 1 == ny { 0 } else { self.iy + 1 };
        [(self.ix, self.iy), (xp, self.iy), (self.ix, yp), (xp, yp)]
    }

    /// Flat offsets of the four vertices, in corner order, in a row-major
    /// array of row stride `stride` whose element `(pad, pad)` holds mesh
    /// vertex `(x0, y0)` — `pad` is 0 for an unpadded `w x h` block and 1
    /// for a block with a one-cell ghost ring.
    ///
    /// Returns `Some` only when all four vertices lie inside the `w x h`
    /// block at `(x0, y0)`.  A stencil that reaches past the block's last
    /// column or row, wraps around the periodic mesh, or starts outside
    /// the block gives `None`; those go through [`Self::corners`].
    #[inline]
    pub fn interior_offsets(
        &self,
        x0: usize,
        y0: usize,
        w: usize,
        h: usize,
        stride: usize,
        pad: usize,
    ) -> Option<[usize; 4]> {
        // a cell left of / below the block wraps to a huge local index
        let lx = self.ix.wrapping_sub(x0);
        let ly = self.iy.wrapping_sub(y0);
        if lx < w.saturating_sub(1) && ly < h.saturating_sub(1) {
            let base = (ly + pad) * stride + lx + pad;
            Some([base, base + 1, base + stride, base + stride + 1])
        } else {
            None
        }
    }

    /// Interpolate a per-vertex quantity to the particle: dot product of
    /// the weights with the four vertex values (in corner order).
    #[inline]
    pub fn interpolate(&self, v: [f64; 4]) -> f64 {
        self.w[0] * v[0] + self.w[1] * v[1] + self.w[2] * v[2] + self.w[3] * v[3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one_and_are_nonnegative() {
        for &(x, y) in &[(0.0, 0.0), (3.7, 2.2), (7.999, 3.999), (0.5, 3.5)] {
            let c = Cic::new(x, y, 1.0, 1.0, 8, 4);
            let sum: f64 = c.w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "({x},{y})");
            assert!(c.w.iter().all(|&w| w >= 0.0));
        }
    }

    #[test]
    fn particle_at_vertex_gives_unit_weight() {
        let c = Cic::new(3.0, 2.0, 1.0, 1.0, 8, 8);
        assert_eq!(c.ix, 3);
        assert_eq!(c.iy, 2);
        assert_eq!(c.w, [1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn particle_at_cell_center_gives_quarter_weights() {
        let c = Cic::new(3.5, 2.5, 1.0, 1.0, 8, 8);
        for &w in &c.w {
            assert!((w - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn corners_wrap_periodically() {
        let c = Cic::new(7.5, 3.5, 1.0, 1.0, 8, 4);
        assert_eq!(c.corners(8, 4), [(7, 3), (0, 3), (7, 0), (0, 0)]);
        let c = Cic::new(2.5, 1.5, 1.0, 1.0, 8, 4);
        assert_eq!(c.corners(8, 4), [(2, 1), (3, 1), (2, 2), (3, 2)]);
        // a one-cell-wide (or -tall) mesh wraps every upper neighbour
        // back onto the cell itself
        let c = Cic::new(0.5, 2.5, 1.0, 1.0, 1, 4);
        assert_eq!(c.corners(1, 4), [(0, 2), (0, 2), (0, 3), (0, 3)]);
        let c = Cic::new(5.5, 0.5, 1.0, 1.0, 8, 1);
        assert_eq!(c.corners(8, 1), [(5, 0), (6, 0), (5, 0), (6, 0)]);
        let c = Cic::new(0.25, 0.75, 1.0, 1.0, 1, 1);
        assert_eq!(c.corners(1, 1), [(0, 0); 4]);
    }

    #[test]
    fn interior_offsets_cover_exactly_the_in_block_stencils() {
        // every cell of an 8x6 mesh against the 4x3 block at (2, 2), both
        // unpadded (stride 4) and with a ghost ring (stride 6)
        let (nx, ny) = (8, 6);
        let (x0, y0, w, h) = (2, 2, 4, 3);
        for iy in 0..ny {
            for ix in 0..nx {
                let c = Cic::new(ix as f64 + 0.5, iy as f64 + 0.5, 1.0, 1.0, nx, ny);
                let inside = c
                    .corners(nx, ny)
                    .iter()
                    .all(|&(cx, cy)| (x0..x0 + w).contains(&cx) && (y0..y0 + h).contains(&cy));
                for (stride, pad) in [(w, 0), (w + 2, 1)] {
                    let got = c.interior_offsets(x0, y0, w, h, stride, pad);
                    let want = inside.then(|| {
                        c.corners(nx, ny)
                            .map(|(cx, cy)| (cy - y0 + pad) * stride + (cx - x0 + pad))
                    });
                    assert_eq!(got, want, "cell ({ix},{iy}) stride {stride}");
                }
            }
        }
        // a block spanning the whole mesh still rejects the wrapped
        // stencil of its last column and row
        let c = Cic::new(7.5, 1.5, 1.0, 1.0, 8, 6);
        assert_eq!(c.interior_offsets(0, 0, 8, 6, 8, 0), None);
        let c = Cic::new(1.5, 5.5, 1.0, 1.0, 8, 6);
        assert_eq!(c.interior_offsets(0, 0, 8, 6, 8, 0), None);
        // a one-cell-wide block has no interior stencil at all
        let c = Cic::new(3.5, 1.5, 1.0, 1.0, 8, 6);
        assert_eq!(c.interior_offsets(3, 0, 1, 6, 1, 0), None);
    }

    #[test]
    fn interpolation_reconstructs_linear_fields() {
        // A field linear in x must interpolate exactly.
        let field = |x: f64| 2.0 * x + 1.0;
        let c = Cic::new(2.3, 1.0, 1.0, 1.0, 8, 8);
        let vals = [
            field(c.ix as f64),
            field(c.ix as f64 + 1.0),
            field(c.ix as f64),
            field(c.ix as f64 + 1.0),
        ];
        assert!((c.interpolate(vals) - field(2.3)).abs() < 1e-12);
    }

    #[test]
    fn nonunit_cell_sizes() {
        let c = Cic::new(1.25, 0.75, 0.5, 0.25, 8, 8);
        assert_eq!(c.ix, 2);
        assert_eq!(c.iy, 3);
        assert!((c.w[0] - 0.5).abs() < 1e-12); // ax=0.5, ay=0 -> w0=0.5
    }

    #[test]
    fn roundoff_at_domain_edge_is_clamped() {
        // The largest representable position below the domain edge must
        // land in the last cell even if x/dx rounds up to exactly nx.
        let x = 8.0f64.next_down();
        let c = Cic::new(x, 0.0, 1.0, 1.0, 8, 8);
        assert_eq!(c.ix, 7);
        // and with a cell size whose division is inexact
        let x = (49.0f64 * 0.2).next_down();
        let c = Cic::new(x, 0.0, 0.2, 0.2, 49, 49);
        assert_eq!(c.ix, 48);
    }
}
