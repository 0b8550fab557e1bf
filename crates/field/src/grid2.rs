//! Dense 2-D arrays with row-major storage and periodic helpers.

use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// A dense `width x height` array stored row-major.
///
/// Indexing is `(x, y)` with `x` the fast dimension, matching the mesh
/// convention used throughout the reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid2<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: Clone + Default> Grid2<T> {
    /// A grid filled with `T::default()`.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self::filled(width, height, T::default())
    }
}

impl<T: Clone> Grid2<T> {
    /// A grid filled with copies of `value`.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn filled(width: usize, height: usize, value: T) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be nonzero");
        Self {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Overwrite every element with `value`.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }
}

impl<T> Grid2<T> {
    /// Grid width (x extent).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (y extent).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the grid is empty (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major flat offset of `(x, y)`.
    #[inline]
    pub fn offset(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height, "({x},{y}) out of bounds");
        y * self.width + x
    }

    /// Element at periodic coordinates: `x`/`y` may be any integer and are
    /// wrapped into the grid.
    #[inline]
    pub fn get_periodic(&self, x: isize, y: isize) -> &T {
        let xw = x.rem_euclid(self.width as isize) as usize;
        let yw = y.rem_euclid(self.height as isize) as usize;
        &self.data[yw * self.width + xw]
    }

    /// Flat view of the storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat view of the storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row `y` as a slice of `width` elements.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Row `y` as a mutable slice of `width` elements.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        &mut self.data[y * self.width..(y + 1) * self.width]
    }
}

impl<T> Index<(usize, usize)> for Grid2<T> {
    type Output = T;

    #[inline]
    fn index(&self, (x, y): (usize, usize)) -> &T {
        assert!(x < self.width && y < self.height, "({x},{y}) out of bounds");
        &self.data[y * self.width + x]
    }
}

impl<T> IndexMut<(usize, usize)> for Grid2<T> {
    #[inline]
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut T {
        assert!(x < self.width && y < self.height, "({x},{y}) out of bounds");
        &mut self.data[y * self.width + x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_is_row_major() {
        let mut g = Grid2::<u32>::zeros(4, 3);
        g[(1, 0)] = 1;
        g[(0, 1)] = 2;
        assert_eq!(g.as_slice()[1], 1);
        assert_eq!(g.as_slice()[4], 2);
        assert_eq!(g.offset(3, 2), 11);
        assert_eq!(g.row(1), &[2, 0, 0, 0]);
        g.row_mut(2)[3] = 5;
        assert_eq!(g[(3, 2)], 5);
    }

    #[test]
    fn periodic_access_wraps_both_ways() {
        let mut g = Grid2::<f64>::zeros(4, 4);
        g[(0, 0)] = 7.0;
        assert_eq!(*g.get_periodic(4, 0), 7.0);
        assert_eq!(*g.get_periodic(-4, -4), 7.0);
        assert_eq!(*g.get_periodic(8, 4), 7.0);
        g[(3, 2)] = 9.0;
        assert_eq!(*g.get_periodic(-1, 2), 9.0);
        assert_eq!(*g.get_periodic(-1, -6), 9.0);
    }

    #[test]
    fn fill_overwrites_all() {
        let mut g = Grid2::filled(3, 3, 1.0f64);
        g.fill(2.0);
        assert!(g.as_slice().iter().all(|&v| v == 2.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let g = Grid2::<u8>::zeros(2, 2);
        let _ = g[(2, 0)];
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        Grid2::<u8>::zeros(0, 5);
    }
}
