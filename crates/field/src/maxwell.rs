//! 2½-D electromagnetic field solver.
//!
//! The paper's application is a "relativistic electromagnetic PIC plasma
//! simulation code": Maxwell's equations are advanced on the mesh by
//! finite differences, each grid point reading its four neighbours.  We
//! implement the standard 2½-D reduction (all quantities depend on `x, y`
//! only; vectors keep all three components) with central differences on a
//! collocated grid, normalized units (`c = 1`, `eps0 = 1`):
//!
//! ```text
//! dBx/dt = -dEz/dy            dEx/dt =  dBz/dy - Jx
//! dBy/dt =  dEz/dx            dEy/dt = -dBz/dx - Jy
//! dBz/dt =  dEx/dy - dEy/dx   dEz/dt =  dBy/dx - dBx/dy - Jz
//! ```
//!
//! The update is split B-then-E, so a distributed implementation needs two
//! ghost-ring exchanges per field solve — this is the neighbour
//! communication the paper's field-solve cost formula charges (`4 * tau`
//! per exchange on a 2-D block).
//!
//! Two entry points cover both deployment styles:
//! * [`MaxwellSolver::step_periodic`] — a single global grid with periodic
//!   wrap (the sequential reference code);
//! * [`MaxwellSolver::update_b_padded`] / [`MaxwellSolver::update_e_padded`]
//!   — a rank-local block with a one-cell ghost ring filled by halo
//!   exchange before each half (the parallel code).
//!
//! Each half needs the other half's triple from the neighbours:
//! [`FieldSet::e`] and [`FieldSet::b`] (and their `_mut` forms) name that
//! triple, so the parallel code's one halo superstep and the replicated
//! baseline's strip concatenation move E or B with the same code.

use serde::{Deserialize, Serialize};

use crate::grid2::Grid2;

/// The six field components on one grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldSet {
    /// Electric field x-component.
    pub ex: Grid2<f64>,
    /// Electric field y-component.
    pub ey: Grid2<f64>,
    /// Electric field z-component.
    pub ez: Grid2<f64>,
    /// Magnetic field x-component.
    pub bx: Grid2<f64>,
    /// Magnetic field y-component.
    pub by: Grid2<f64>,
    /// Magnetic field z-component.
    pub bz: Grid2<f64>,
}

impl FieldSet {
    /// All-zero fields on a `width x height` grid.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self {
            ex: Grid2::zeros(width, height),
            ey: Grid2::zeros(width, height),
            ez: Grid2::zeros(width, height),
            bx: Grid2::zeros(width, height),
            by: Grid2::zeros(width, height),
            bz: Grid2::zeros(width, height),
        }
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.ex.width()
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.ex.height()
    }

    /// The electric triple `[Ex, Ey, Ez]`.
    #[inline]
    pub fn e(&self) -> [&Grid2<f64>; 3] {
        [&self.ex, &self.ey, &self.ez]
    }

    /// The electric triple `[Ex, Ey, Ez]`, mutably.
    #[inline]
    pub fn e_mut(&mut self) -> [&mut Grid2<f64>; 3] {
        [&mut self.ex, &mut self.ey, &mut self.ez]
    }

    /// The magnetic triple `[Bx, By, Bz]`.
    #[inline]
    pub fn b(&self) -> [&Grid2<f64>; 3] {
        [&self.bx, &self.by, &self.bz]
    }

    /// The magnetic triple `[Bx, By, Bz]`, mutably.
    #[inline]
    pub fn b_mut(&mut self) -> [&mut Grid2<f64>; 3] {
        [&mut self.bx, &mut self.by, &mut self.bz]
    }

    /// The six components at `(x, y)` as `[Ex, Ey, Ez, Bx, By, Bz]`.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> [f64; 6] {
        [
            self.ex[(x, y)],
            self.ey[(x, y)],
            self.ez[(x, y)],
            self.bx[(x, y)],
            self.by[(x, y)],
            self.bz[(x, y)],
        ]
    }
}

/// Current density components deposited by the scatter phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurrentSet {
    /// Current density x-component.
    pub jx: Grid2<f64>,
    /// Current density y-component.
    pub jy: Grid2<f64>,
    /// Current density z-component.
    pub jz: Grid2<f64>,
}

impl CurrentSet {
    /// All-zero currents on a `width x height` grid.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self {
            jx: Grid2::zeros(width, height),
            jy: Grid2::zeros(width, height),
            jz: Grid2::zeros(width, height),
        }
    }

    /// Reset all components to zero (start of every scatter phase).
    pub fn clear(&mut self) {
        self.jx.fill(0.0);
        self.jy.fill(0.0);
        self.jz.fill(0.0);
    }
}

/// Finite-difference Maxwell stepper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaxwellSolver {
    /// Time step.
    pub dt: f64,
    /// Cell size along x.
    pub dx: f64,
    /// Cell size along y.
    pub dy: f64,
}

/// `i - 1` wrapped into `0..n`.
#[inline]
fn wrap_dec(i: usize, n: usize) -> usize {
    if i == 0 {
        n - 1
    } else {
        i - 1
    }
}

/// `i + 1` wrapped into `0..n`.
#[inline]
fn wrap_inc(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

// Every update below reads only the three components it does not write
// (plus each written cell's own old value), so it runs in place over
// disjoint borrows of the `FieldSet`, one row at a time.  Each derivative
// is `(g[east] - g[west]) / (2 dx)` or `(g[north] - g[south]) / (2 dy)`,
// evaluated in the same order in every kernel, so the periodic and the
// padded kernels produce bit-identical cells.
impl MaxwellSolver {
    /// Create a solver, checking the CFL-like stability bound
    /// `dt <= 0.5 * min(dx, dy)` for the collocated central scheme.
    ///
    /// # Panics
    /// Panics on non-positive steps or a CFL violation.
    pub fn new(dt: f64, dx: f64, dy: f64) -> Self {
        assert!(dt > 0.0 && dx > 0.0 && dy > 0.0, "steps must be positive");
        assert!(
            dt <= 0.5 * dx.min(dy) + 1e-12,
            "dt {dt} violates CFL bound {}",
            0.5 * dx.min(dy)
        );
        Self { dt, dx, dy }
    }

    /// Advance B then E on a global periodic grid.
    pub fn step_periodic(&self, f: &mut FieldSet, j: &CurrentSet) {
        self.update_b_periodic(f);
        self.update_e_periodic(f, j);
    }

    /// B update (`dB/dt = -curl E`) on a global periodic grid.
    pub fn update_b_periodic(&self, f: &mut FieldSet) {
        let h = f.height();
        self.update_b_periodic_rows(f, 0, h);
    }

    /// B update restricted to rows `y0..y1` of a global periodic grid —
    /// the strip a rank owns under the replicated-grid baseline's
    /// distributed field solve.
    pub fn update_b_periodic_rows(&self, f: &mut FieldSet, y0: usize, y1: usize) {
        let (w, h) = (f.width(), f.height());
        assert!(y0 <= y1 && y1 <= h, "rows {y0}..{y1} outside height {h}");
        let (dt, dx2, dy2) = (self.dt, 2.0 * self.dx, 2.0 * self.dy);
        let FieldSet {
            ex,
            ey,
            ez,
            bx,
            by,
            bz,
        } = f;
        for y in y0..y1 {
            let (s, n) = (wrap_dec(y, h), wrap_inc(y, h));
            let (ez_s, ez_c, ez_n) = (ez.row(s), ez.row(y), ez.row(n));
            let (ex_s, ex_n, ey_c) = (ex.row(s), ex.row(n), ey.row(y));
            let (bx, by, bz) = (bx.row_mut(y), by.row_mut(y), bz.row_mut(y));
            for x in 0..w {
                let (west, east) = (wrap_dec(x, w), wrap_inc(x, w));
                let dez_dx = (ez_c[east] - ez_c[west]) / dx2;
                let dez_dy = (ez_n[x] - ez_s[x]) / dy2;
                let dex_dy = (ex_n[x] - ex_s[x]) / dy2;
                let dey_dx = (ey_c[east] - ey_c[west]) / dx2;
                bx[x] -= dt * dez_dy;
                by[x] += dt * dez_dx;
                bz[x] += dt * (dex_dy - dey_dx);
            }
        }
    }

    /// E update (`dE/dt = curl B - J`) on a global periodic grid.
    pub fn update_e_periodic(&self, f: &mut FieldSet, j: &CurrentSet) {
        let h = f.height();
        self.update_e_periodic_rows(f, j, 0, h);
    }

    /// E update restricted to rows `y0..y1` of a global periodic grid.
    pub fn update_e_periodic_rows(&self, f: &mut FieldSet, j: &CurrentSet, y0: usize, y1: usize) {
        let (w, h) = (f.width(), f.height());
        assert!(y0 <= y1 && y1 <= h, "rows {y0}..{y1} outside height {h}");
        assert!(
            j.jx.width() == w && j.jx.height() == h,
            "current grid must match the field grid"
        );
        let (dt, dx2, dy2) = (self.dt, 2.0 * self.dx, 2.0 * self.dy);
        let FieldSet {
            ex,
            ey,
            ez,
            bx,
            by,
            bz,
        } = f;
        for y in y0..y1 {
            let (s, n) = (wrap_dec(y, h), wrap_inc(y, h));
            let (bz_s, bz_c, bz_n) = (bz.row(s), bz.row(y), bz.row(n));
            let (bx_s, bx_n, by_c) = (bx.row(s), bx.row(n), by.row(y));
            let (jx, jy, jz) = (j.jx.row(y), j.jy.row(y), j.jz.row(y));
            let (ex, ey, ez) = (ex.row_mut(y), ey.row_mut(y), ez.row_mut(y));
            for x in 0..w {
                let (west, east) = (wrap_dec(x, w), wrap_inc(x, w));
                let dbz_dx = (bz_c[east] - bz_c[west]) / dx2;
                let dbz_dy = (bz_n[x] - bz_s[x]) / dy2;
                let dby_dx = (by_c[east] - by_c[west]) / dx2;
                let dbx_dy = (bx_n[x] - bx_s[x]) / dy2;
                ex[x] += dt * (dbz_dy - jx[x]);
                ey[x] += dt * (-dbz_dx - jy[x]);
                ez[x] += dt * (dby_dx - dbx_dy - jz[x]);
            }
        }
    }

    /// B update on a padded rank-local block.
    ///
    /// Field grids must be `(w+2) x (h+2)` with the E ghost ring filled by
    /// halo exchange; only interior cells `1..=w, 1..=h` are written.  In
    /// the `w`-long written row, cell `x` has its west, centre and east
    /// neighbours at `x`, `x + 1` and `x + 2` of the padded rows.
    pub fn update_b_padded(&self, f: &mut FieldSet) {
        let (pw, ph) = (f.width(), f.height());
        assert!(pw > 2 && ph > 2, "padded grid too small");
        let w = pw - 2;
        let (dt, dx2, dy2) = (self.dt, 2.0 * self.dx, 2.0 * self.dy);
        let FieldSet {
            ex,
            ey,
            ez,
            bx,
            by,
            bz,
        } = f;
        for y in 1..ph - 1 {
            let (ez_s, ez_c, ez_n) = (ez.row(y - 1), ez.row(y), ez.row(y + 1));
            let (ex_s, ex_n, ey_c) = (ex.row(y - 1), ex.row(y + 1), ey.row(y));
            let bx = &mut bx.row_mut(y)[1..=w];
            let by = &mut by.row_mut(y)[1..=w];
            let bz = &mut bz.row_mut(y)[1..=w];
            for x in 0..w {
                let dez_dx = (ez_c[x + 2] - ez_c[x]) / dx2;
                let dez_dy = (ez_n[x + 1] - ez_s[x + 1]) / dy2;
                let dex_dy = (ex_n[x + 1] - ex_s[x + 1]) / dy2;
                let dey_dx = (ey_c[x + 2] - ey_c[x]) / dx2;
                bx[x] -= dt * dez_dy;
                by[x] += dt * dez_dx;
                bz[x] += dt * (dex_dy - dey_dx);
            }
        }
    }

    /// E update on a padded rank-local block.
    ///
    /// Field grids must be `(w+2) x (h+2)` with the B ghost ring filled;
    /// the current grids are unpadded `w x h` (currents are purely local
    /// after the scatter phase resolves ghost contributions).  Rows are
    /// walked as in [`MaxwellSolver::update_b_padded`].
    pub fn update_e_padded(&self, f: &mut FieldSet, j: &CurrentSet) {
        let (pw, ph) = (f.width(), f.height());
        assert!(pw > 2 && ph > 2, "padded grid too small");
        assert_eq!(j.jx.width(), pw - 2, "current grid must be unpadded");
        assert_eq!(j.jx.height(), ph - 2, "current grid must be unpadded");
        let w = pw - 2;
        let (dt, dx2, dy2) = (self.dt, 2.0 * self.dx, 2.0 * self.dy);
        let FieldSet {
            ex,
            ey,
            ez,
            bx,
            by,
            bz,
        } = f;
        for y in 1..ph - 1 {
            let (bz_s, bz_c, bz_n) = (bz.row(y - 1), bz.row(y), bz.row(y + 1));
            let (bx_s, bx_n, by_c) = (bx.row(y - 1), bx.row(y + 1), by.row(y));
            let (jx, jy, jz) = (j.jx.row(y - 1), j.jy.row(y - 1), j.jz.row(y - 1));
            let ex = &mut ex.row_mut(y)[1..=w];
            let ey = &mut ey.row_mut(y)[1..=w];
            let ez = &mut ez.row_mut(y)[1..=w];
            for x in 0..w {
                let dbz_dx = (bz_c[x + 2] - bz_c[x]) / dx2;
                let dbz_dy = (bz_n[x + 1] - bz_s[x + 1]) / dy2;
                let dby_dx = (by_c[x + 2] - by_c[x]) / dx2;
                let dbx_dy = (bx_n[x + 1] - bx_s[x + 1]) / dy2;
                ex[x] += dt * (dbz_dy - jx[x]);
                ey[x] += dt * (-dbz_dx - jy[x]);
                ez[x] += dt * (dby_dx - dbx_dy - jz[x]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::field_energy;

    /// The kernels as they were before the in-place rewrite: every call
    /// clones the three written planes, reads through the bounds-checked
    /// `(x, y)` index and writes the clones back.  Kept only so the
    /// bit-identity tests can hold the current kernels to them.
    mod reference {
        use crate::grid2::Grid2;
        use crate::maxwell::{CurrentSet, FieldSet, MaxwellSolver};

        fn grad_periodic(g: &Grid2<f64>, x: usize, y: usize, dx: f64, dy: f64) -> (f64, f64) {
            let (xi, yi) = (x as isize, y as isize);
            let ddx = (g.get_periodic(xi + 1, yi) - g.get_periodic(xi - 1, yi)) / (2.0 * dx);
            let ddy = (g.get_periodic(xi, yi + 1) - g.get_periodic(xi, yi - 1)) / (2.0 * dy);
            (ddx, ddy)
        }

        fn grad_padded(g: &Grid2<f64>, x: usize, y: usize, dx: f64, dy: f64) -> (f64, f64) {
            let ddx = (g[(x + 1, y)] - g[(x - 1, y)]) / (2.0 * dx);
            let ddy = (g[(x, y + 1)] - g[(x, y - 1)]) / (2.0 * dy);
            (ddx, ddy)
        }

        pub fn update_b_periodic_rows(s: &MaxwellSolver, f: &mut FieldSet, y0: usize, y1: usize) {
            let w = f.width();
            let (dt, dx, dy) = (s.dt, s.dx, s.dy);
            let mut bx = f.bx.clone();
            let mut by = f.by.clone();
            let mut bz = f.bz.clone();
            for y in y0..y1 {
                for x in 0..w {
                    let (_, dez_dy) = grad_periodic(&f.ez, x, y, dx, dy);
                    let (dez_dx, _) = grad_periodic(&f.ez, x, y, dx, dy);
                    let (_, dex_dy) = grad_periodic(&f.ex, x, y, dx, dy);
                    let (dey_dx, _) = grad_periodic(&f.ey, x, y, dx, dy);
                    bx[(x, y)] -= dt * dez_dy;
                    by[(x, y)] += dt * dez_dx;
                    bz[(x, y)] += dt * (dex_dy - dey_dx);
                }
            }
            f.bx = bx;
            f.by = by;
            f.bz = bz;
        }

        pub fn update_e_periodic_rows(
            s: &MaxwellSolver,
            f: &mut FieldSet,
            j: &CurrentSet,
            y0: usize,
            y1: usize,
        ) {
            let w = f.width();
            let (dt, dx, dy) = (s.dt, s.dx, s.dy);
            let mut ex = f.ex.clone();
            let mut ey = f.ey.clone();
            let mut ez = f.ez.clone();
            for y in y0..y1 {
                for x in 0..w {
                    let (dbz_dx, dbz_dy) = grad_periodic(&f.bz, x, y, dx, dy);
                    let (dby_dx, _) = grad_periodic(&f.by, x, y, dx, dy);
                    let (_, dbx_dy) = grad_periodic(&f.bx, x, y, dx, dy);
                    ex[(x, y)] += dt * (dbz_dy - j.jx[(x, y)]);
                    ey[(x, y)] += dt * (-dbz_dx - j.jy[(x, y)]);
                    ez[(x, y)] += dt * (dby_dx - dbx_dy - j.jz[(x, y)]);
                }
            }
            f.ex = ex;
            f.ey = ey;
            f.ez = ez;
        }

        pub fn update_b_padded(s: &MaxwellSolver, f: &mut FieldSet) {
            let (pw, ph) = (f.width(), f.height());
            let (dt, dx, dy) = (s.dt, s.dx, s.dy);
            let mut bx = f.bx.clone();
            let mut by = f.by.clone();
            let mut bz = f.bz.clone();
            for y in 1..ph - 1 {
                for x in 1..pw - 1 {
                    let (dez_dx, dez_dy) = grad_padded(&f.ez, x, y, dx, dy);
                    let (_, dex_dy) = grad_padded(&f.ex, x, y, dx, dy);
                    let (dey_dx, _) = grad_padded(&f.ey, x, y, dx, dy);
                    bx[(x, y)] -= dt * dez_dy;
                    by[(x, y)] += dt * dez_dx;
                    bz[(x, y)] += dt * (dex_dy - dey_dx);
                }
            }
            f.bx = bx;
            f.by = by;
            f.bz = bz;
        }

        pub fn update_e_padded(s: &MaxwellSolver, f: &mut FieldSet, j: &CurrentSet) {
            let (pw, ph) = (f.width(), f.height());
            let (dt, dx, dy) = (s.dt, s.dx, s.dy);
            let mut ex = f.ex.clone();
            let mut ey = f.ey.clone();
            let mut ez = f.ez.clone();
            for y in 1..ph - 1 {
                for x in 1..pw - 1 {
                    let (dbz_dx, dbz_dy) = grad_padded(&f.bz, x, y, dx, dy);
                    let (dby_dx, _) = grad_padded(&f.by, x, y, dx, dy);
                    let (_, dbx_dy) = grad_padded(&f.bx, x, y, dx, dy);
                    let (jx, jy, jz) = (
                        j.jx[(x - 1, y - 1)],
                        j.jy[(x - 1, y - 1)],
                        j.jz[(x - 1, y - 1)],
                    );
                    ex[(x, y)] += dt * (dbz_dy - jx);
                    ey[(x, y)] += dt * (-dbz_dx - jy);
                    ez[(x, y)] += dt * (dby_dx - dbx_dy - jz);
                }
            }
            f.ex = ex;
            f.ey = ey;
            f.ez = ez;
        }
    }

    fn planes(f: &FieldSet) -> [&Grid2<f64>; 6] {
        [&f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz]
    }

    /// Every component of `a` and `b` equal bit for bit (so `-0.0` and
    /// `0.0` differ).
    fn assert_bitwise_eq(a: &FieldSet, b: &FieldSet, what: &str) {
        for (c, (p, q)) in planes(a).into_iter().zip(planes(b)).enumerate() {
            for (i, (u, v)) in p.as_slice().iter().zip(q.as_slice()).enumerate() {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{what}: component {c} differs at flat offset {i}: {u:e} vs {v:e}"
                );
            }
        }
    }

    /// Deterministic hostile values: signed zeros, subnormals of both
    /// signs, and normals whose magnitudes span 2^-400 .. 2^400.
    struct Hostile(u64);

    impl Hostile {
        fn next(&mut self) -> f64 {
            // splitmix64
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let r = z ^ (z >> 31);
            let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
            let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
            match (r >> 1) % 8 {
                0 => -0.0,
                1 => 0.0,
                2 => sign * f64::from_bits(r >> 12), // subnormal
                3 => sign * 2f64.powi(((r >> 20) % 801) as i32 - 400),
                _ => sign * (1.0 + unit),
            }
        }

        fn grid(&mut self, w: usize, h: usize) -> Grid2<f64> {
            let mut g = Grid2::zeros(w, h);
            g.as_mut_slice().iter_mut().for_each(|v| *v = self.next());
            g
        }

        fn fields(&mut self, w: usize, h: usize) -> FieldSet {
            FieldSet {
                ex: self.grid(w, h),
                ey: self.grid(w, h),
                ez: self.grid(w, h),
                bx: self.grid(w, h),
                by: self.grid(w, h),
                bz: self.grid(w, h),
            }
        }

        fn currents(&mut self, w: usize, h: usize) -> CurrentSet {
            CurrentSet {
                jx: self.grid(w, h),
                jy: self.grid(w, h),
                jz: self.grid(w, h),
            }
        }
    }

    /// Interior shapes `w x h` that stress the row walk: a single cell,
    /// one-cell strips both ways, and odd rectangles longer than any
    /// vector width.
    const HOSTILE_SHAPES: [(usize, usize); 6] = [(1, 1), (1, 9), (9, 1), (2, 3), (17, 6), (33, 5)];

    /// The unit-cell solver and one with `dx != dy`.
    fn hostile_solvers() -> [MaxwellSolver; 2] {
        [solver(), MaxwellSolver::new(0.3, 0.7, 1.3)]
    }

    #[test]
    fn padded_kernels_match_reference_bitwise() {
        for (w, h) in HOSTILE_SHAPES {
            for (k, s) in hostile_solvers().into_iter().enumerate() {
                let mut rng = Hostile((w * 1000 + h * 10 + k) as u64);
                let mut fast = rng.fields(w + 2, h + 2);
                let mut old = fast.clone();
                for step in 0..4 {
                    let what = format!("{w}x{h} solver {k} step {step}");
                    s.update_b_padded(&mut fast);
                    reference::update_b_padded(&s, &mut old);
                    assert_bitwise_eq(&fast, &old, &format!("{what} B"));
                    let j = rng.currents(w, h);
                    s.update_e_padded(&mut fast, &j);
                    reference::update_e_padded(&s, &mut old, &j);
                    assert_bitwise_eq(&fast, &old, &format!("{what} E"));
                }
            }
        }
    }

    #[test]
    fn periodic_kernels_match_reference_bitwise() {
        for (w, h) in HOSTILE_SHAPES {
            // the whole grid, its first and last row, an empty range and,
            // when there is one, a strict interior sub-strip
            let mut ranges = vec![(0, h), (0, 1), (h - 1, h), (h / 2, h / 2)];
            if h > 2 {
                ranges.push((1, h - 1));
            }
            for (k, s) in hostile_solvers().into_iter().enumerate() {
                for &(y0, y1) in &ranges {
                    let mut rng = Hostile((w * 1000 + h * 10 + k + y0 * 7 + y1 * 13) as u64);
                    let mut fast = rng.fields(w, h);
                    let mut old = fast.clone();
                    for step in 0..4 {
                        let what = format!("{w}x{h} rows {y0}..{y1} solver {k} step {step}");
                        s.update_b_periodic_rows(&mut fast, y0, y1);
                        reference::update_b_periodic_rows(&s, &mut old, y0, y1);
                        assert_bitwise_eq(&fast, &old, &format!("{what} B"));
                        let j = rng.currents(w, h);
                        s.update_e_periodic_rows(&mut fast, &j, y0, y1);
                        reference::update_e_periodic_rows(&s, &mut old, &j, y0, y1);
                        assert_bitwise_eq(&fast, &old, &format!("{what} E"));
                    }
                }
            }
        }
    }

    fn solver() -> MaxwellSolver {
        MaxwellSolver::new(0.25, 1.0, 1.0)
    }

    #[test]
    fn vacuum_stays_vacuum() {
        let mut f = FieldSet::zeros(8, 8);
        let j = CurrentSet::zeros(8, 8);
        for _ in 0..10 {
            solver().step_periodic(&mut f, &j);
        }
        assert!(f.ez.as_slice().iter().all(|&v| v == 0.0));
        assert!(f.bz.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn uniform_fields_are_stationary() {
        // Spatially uniform fields have zero curl everywhere (periodic),
        // so nothing changes without currents.
        let mut f = FieldSet::zeros(8, 8);
        f.ez.fill(2.0);
        f.bx.fill(-1.0);
        let j = CurrentSet::zeros(8, 8);
        let before = f.clone();
        solver().step_periodic(&mut f, &j);
        assert_eq!(f, before);
    }

    #[test]
    fn current_drives_electric_field() {
        let mut f = FieldSet::zeros(8, 8);
        let mut j = CurrentSet::zeros(8, 8);
        j.jz.fill(1.0);
        solver().step_periodic(&mut f, &j);
        // dEz/dt = -Jz -> Ez = -dt after one step
        assert!(f.ez.as_slice().iter().all(|&v| (v + 0.25).abs() < 1e-12));
    }

    #[test]
    fn pulse_propagates_outward() {
        let n = 32;
        let mut f = FieldSet::zeros(n, n);
        // Gaussian Ez pulse in the centre
        for y in 0..n {
            for x in 0..n {
                let dx = x as f64 - n as f64 / 2.0;
                let dy = y as f64 - n as f64 / 2.0;
                f.ez[(x, y)] = (-(dx * dx + dy * dy) / 8.0).exp();
            }
        }
        let j = CurrentSet::zeros(n, n);
        let s = solver();
        let probe_before = f.ez[(2, n / 2)].abs();
        for _ in 0..40 {
            s.step_periodic(&mut f, &j);
        }
        let probe_after = f.ez[(2, n / 2)].abs() + f.bx[(2, n / 2)].abs() + f.by[(2, n / 2)].abs();
        assert!(
            probe_after > probe_before + 1e-6,
            "wave did not reach distant probe: {probe_after}"
        );
    }

    #[test]
    fn energy_is_approximately_conserved_in_vacuum() {
        let n = 32;
        let mut f = FieldSet::zeros(n, n);
        for y in 0..n {
            for x in 0..n {
                let dx = x as f64 - n as f64 / 2.0;
                let dy = y as f64 - n as f64 / 2.0;
                f.ez[(x, y)] = (-(dx * dx + dy * dy) / 8.0).exp();
            }
        }
        let j = CurrentSet::zeros(n, n);
        let s = solver();
        let e0 = field_energy(&f, 1.0, 1.0);
        for _ in 0..100 {
            s.step_periodic(&mut f, &j);
        }
        let e1 = field_energy(&f, 1.0, 1.0);
        let drift = (e1 - e0).abs() / e0;
        assert!(drift < 0.05, "energy drift {drift}");
    }

    #[test]
    fn padded_matches_periodic_on_interior() {
        // Single "rank" owning the whole mesh, ghost ring filled by
        // periodic wrap, must agree bit for bit with the periodic stepper.
        let n = 8;
        let mut fp = FieldSet::zeros(n, n);
        let mut j = CurrentSet::zeros(n, n);
        for y in 0..n {
            for x in 0..n {
                fp.ex[(x, y)] = (x * 5 + y * 11) as f64 * 0.03;
                fp.ey[(x, y)] = (x * 13 + y) as f64 * -0.07;
                fp.ez[(x, y)] = (x * 31 + y * 7) as f64 * 0.01;
                fp.bx[(x, y)] = (x * y) as f64 * 0.05;
                fp.by[(x, y)] = (3 * x + 17 * y) as f64 * 0.011;
                fp.bz[(x, y)] = (x + 2 * y) as f64 * 0.02;
                j.jx[(x, y)] = (x ^ y) as f64 * 0.001;
                j.jy[(x, y)] = (x + y) as f64 * -0.002;
                j.jz[(x, y)] = (x * 7 + y * 3) as f64 * 0.003;
            }
        }

        let mut reference = fp.clone();
        solver().step_periodic(&mut reference, &j);

        // build padded copy
        let fill = |src: &Grid2<f64>| {
            let mut dst = Grid2::<f64>::zeros(n + 2, n + 2);
            for y in 0..n + 2 {
                for x in 0..n + 2 {
                    dst[(x, y)] = *src.get_periodic(x as isize - 1, y as isize - 1);
                }
            }
            dst
        };
        let mut padded = FieldSet {
            ex: fill(&fp.ex),
            ey: fill(&fp.ey),
            ez: fill(&fp.ez),
            bx: fill(&fp.bx),
            by: fill(&fp.by),
            bz: fill(&fp.bz),
        };
        solver().update_b_padded(&mut padded);
        // refresh B ghosts from the updated interior before the E half
        for g in [&mut padded.bx, &mut padded.by, &mut padded.bz] {
            let interior = g.clone();
            for y in 0..n + 2 {
                for x in 0..n + 2 {
                    if x == 0 || y == 0 || x == n + 1 || y == n + 1 {
                        let sx = ((x as isize - 1).rem_euclid(n as isize) + 1) as usize;
                        let sy = ((y as isize - 1).rem_euclid(n as isize) + 1) as usize;
                        g[(x, y)] = interior[(sx, sy)];
                    }
                }
            }
        }
        solver().update_e_padded(&mut padded, &j);

        for (c, (p, r)) in planes(&padded)
            .into_iter()
            .zip(planes(&reference))
            .enumerate()
        {
            for y in 0..n {
                for x in 0..n {
                    assert_eq!(
                        p[(x + 1, y + 1)].to_bits(),
                        r[(x, y)].to_bits(),
                        "component {c} mismatch at ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "CFL")]
    fn cfl_violation_rejected() {
        MaxwellSolver::new(1.0, 1.0, 1.0);
    }
}
