//! Structure-of-arrays particle storage.
//!
//! The paper's particle array holds positions and (relativistic) momenta;
//! we store them as parallel `Vec<f64>`s, which is both the
//! cache-friendly layout for the per-phase loops and the natural shape
//! for the sorting/permutation machinery of the redistribution algorithms
//! (sorting permutes indices once, then gathers each attribute array).

use serde::{Deserialize, Serialize};

/// Wire size of one particle: x, y, ux, uy, uz as packed doubles.
/// Redistribution messages are charged this many bytes per particle.
pub const PARTICLE_WIRE_BYTES: usize = 5 * 8;

/// A set of particles of one species (uniform charge and mass).
///
/// `ux, uy, uz` are the relativistic momentum components divided by `m c`
/// (so the Lorentz factor is `sqrt(1 + u^2)`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Particles {
    /// x positions.
    pub x: Vec<f64>,
    /// y positions.
    pub y: Vec<f64>,
    /// Normalized momentum, x component.
    pub ux: Vec<f64>,
    /// Normalized momentum, y component.
    pub uy: Vec<f64>,
    /// Normalized momentum, z component.
    pub uz: Vec<f64>,
    /// Species charge (same for all particles in the array).
    pub charge: f64,
    /// Species mass.
    pub mass: f64,
}

impl Particles {
    /// An empty array for a species with `charge` and `mass`.
    ///
    /// # Panics
    /// Panics if `mass` is not positive.
    pub fn new(charge: f64, mass: f64) -> Self {
        assert!(mass > 0.0, "mass must be positive");
        Self {
            charge,
            mass,
            ..Self::default()
        }
    }

    /// An empty electron-like species (charge -1, mass 1, normalized).
    pub fn electrons() -> Self {
        Self::new(-1.0, 1.0)
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when no particles are stored.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Charge-to-mass ratio.
    pub fn qm(&self) -> f64 {
        self.charge / self.mass
    }

    /// Append one particle.
    pub fn push(&mut self, x: f64, y: f64, ux: f64, uy: f64, uz: f64) {
        self.x.push(x);
        self.y.push(y);
        self.ux.push(ux);
        self.uy.push(uy);
        self.uz.push(uz);
    }

    /// Keep only the first `len` particles (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.x.truncate(len);
        self.y.truncate(len);
        self.ux.truncate(len);
        self.uy.truncate(len);
        self.uz.truncate(len);
    }

    /// Reserve capacity for `additional` more particles.
    pub fn reserve(&mut self, additional: usize) {
        self.x.reserve(additional);
        self.y.reserve(additional);
        self.ux.reserve(additional);
        self.uy.reserve(additional);
        self.uz.reserve(additional);
    }

    /// The five phase-space coordinates of particle `i`.
    #[inline]
    pub fn get(&self, i: usize) -> [f64; 5] {
        [self.x[i], self.y[i], self.ux[i], self.uy[i], self.uz[i]]
    }

    /// Append all particles of `other` (must be the same species).
    ///
    /// # Panics
    /// Panics if species parameters differ.
    pub fn append(&mut self, other: &mut Particles) {
        assert_eq!(self.charge, other.charge, "species charge mismatch");
        assert_eq!(self.mass, other.mass, "species mass mismatch");
        self.x.append(&mut other.x);
        self.y.append(&mut other.y);
        self.ux.append(&mut other.ux);
        self.uy.append(&mut other.uy);
        self.uz.append(&mut other.uz);
    }

    /// Remove the particles at `indices` (strictly increasing) and return
    /// them as a new array, preserving the order of survivors and of the
    /// extracted particles.
    ///
    /// # Panics
    /// Panics if `indices` is not strictly increasing or out of range.
    pub fn extract(&mut self, indices: &[usize]) -> Particles {
        let mut out = Particles::new(self.charge, self.mass);
        if indices.is_empty() {
            return out;
        }
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly increasing");
        }
        assert!(*indices.last().unwrap() < self.len(), "index out of range");
        out.reserve(indices.len());
        let mut take = vec![false; self.len()];
        for &i in indices {
            take[i] = true;
            out.push(self.x[i], self.y[i], self.ux[i], self.uy[i], self.uz[i]);
        }
        let keep = |v: &mut Vec<f64>| {
            let mut k = 0;
            v.retain(|_| {
                let t = !take[k];
                k += 1;
                t
            });
        };
        keep(&mut self.x);
        keep(&mut self.y);
        keep(&mut self.ux);
        keep(&mut self.uy);
        keep(&mut self.uz);
        out
    }

    /// Reorder the array in place so element `i` of the result is the old
    /// element `order[i]`, using a caller-owned `visited` buffer:
    /// applies the permutation by cycle decomposition, moving all five
    /// attribute arrays along each cycle hop — one permutation
    /// application instead of five independent gathers, and zero heap
    /// allocations once `visited` has grown to the particle count.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..len`.
    pub fn apply_order_in_place(&mut self, order: &[usize], visited: &mut Vec<bool>) {
        assert_eq!(order.len(), self.len(), "order length mismatch");
        let n = order.len();
        visited.clear();
        visited.resize(n, false);
        for &i in order {
            assert!(i < n && !visited[i], "order is not a permutation");
            visited[i] = true;
        }
        for v in visited.iter_mut() {
            *v = false;
        }
        for start in 0..n {
            if visited[start] || order[start] == start {
                visited[start] = true;
                continue;
            }
            // walk the cycle: each position takes the old value of the
            // next position in the chain, the last takes the saved start
            let saved = self.get(start);
            let mut i = start;
            loop {
                visited[i] = true;
                let src = order[i];
                if src == start {
                    self.x[i] = saved[0];
                    self.y[i] = saved[1];
                    self.ux[i] = saved[2];
                    self.uy[i] = saved[3];
                    self.uz[i] = saved[4];
                    break;
                }
                self.x[i] = self.x[src];
                self.y[i] = self.y[src];
                self.ux[i] = self.ux[src];
                self.uy[i] = self.uy[src];
                self.uz[i] = self.uz[src];
                i = src;
            }
        }
    }

    /// Total kinetic energy `sum m (gamma - 1)` in normalized units.
    pub fn kinetic_energy(&self) -> f64 {
        (0..self.len())
            .map(|i| {
                let u2 = self.ux[i].powi(2) + self.uy[i].powi(2) + self.uz[i].powi(2);
                self.mass * ((1.0 + u2).sqrt() - 1.0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Particles {
        let mut p = Particles::electrons();
        for i in 0..5 {
            let f = i as f64;
            p.push(f, f * 10.0, f * 0.25, -f * 0.25, 0.0);
        }
        p
    }

    #[test]
    fn push_and_get() {
        let p = sample();
        assert_eq!(p.len(), 5);
        assert_eq!(p.get(3), [3.0, 30.0, 0.75, -0.75, 0.0]);
        assert_eq!(p.qm(), -1.0);
    }

    #[test]
    fn extract_preserves_both_orders() {
        let mut p = sample();
        let out = p.extract(&[1, 3]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.x, vec![1.0, 3.0]);
        assert_eq!(p.x, vec![0.0, 2.0, 4.0]);
        assert_eq!(p.y, vec![0.0, 20.0, 40.0]);
    }

    #[test]
    fn extract_empty_is_noop() {
        let mut p = sample();
        let out = p.extract(&[]);
        assert!(out.is_empty());
        assert_eq!(p.len(), 5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn extract_unsorted_panics() {
        sample().extract(&[3, 1]);
    }

    #[test]
    fn append_moves_particles() {
        let mut a = sample();
        let mut b = sample();
        a.append(&mut b);
        assert_eq!(a.len(), 10);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "species charge mismatch")]
    fn append_wrong_species_panics() {
        let mut a = Particles::electrons();
        let mut b = Particles::new(1.0, 1836.0);
        a.append(&mut b);
    }

    #[test]
    fn apply_order_permutes_all_attributes() {
        let mut p = sample();
        p.apply_order_in_place(&[4, 3, 2, 1, 0], &mut Vec::new());
        assert_eq!(p.x, vec![4.0, 3.0, 2.0, 1.0, 0.0]);
        assert_eq!(p.uy, vec![-1.0, -0.75, -0.5, -0.25, -0.0]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn apply_bad_order_panics() {
        sample().apply_order_in_place(&[0, 0, 1, 2, 3], &mut Vec::new());
    }

    #[test]
    fn cycle_application_matches_gather_oracle() {
        // pseudo-random permutations with fixed points and long cycles
        for seed in [1u64, 7, 42, 1996] {
            let n = 64;
            let mut p = Particles::electrons();
            for i in 0..n {
                let f = i as f64;
                p.push(f, f * 2.0, f * 3.0, f * 4.0, f * 5.0);
            }
            let mut order: Vec<usize> = (0..n).collect();
            let mut s = seed;
            for i in (1..n).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (s % (i as u64 + 1)) as usize);
            }
            let expect: Vec<f64> = order.iter().map(|&i| p.x[i]).collect();
            let mut visited = Vec::new();
            p.apply_order_in_place(&order, &mut visited);
            assert_eq!(p.x, expect, "seed {seed}");
            // every attribute rode the same permutation
            for i in 0..n {
                assert_eq!(p.y[i], p.x[i] * 2.0);
                assert_eq!(p.uz[i], p.x[i] * 5.0);
            }
        }
    }

    #[test]
    fn identity_order_is_untouched() {
        let mut p = sample();
        let before = p.clone();
        let mut visited = Vec::new();
        p.apply_order_in_place(&[0, 1, 2, 3, 4], &mut visited);
        assert_eq!(p, before);
    }

    #[test]
    fn kinetic_energy_zero_at_rest() {
        let mut p = Particles::electrons();
        p.push(1.0, 1.0, 0.0, 0.0, 0.0);
        assert_eq!(p.kinetic_energy(), 0.0);
        p.push(1.0, 1.0, 3.0, 0.0, 4.0); // |u| = 5, gamma = sqrt(26)
        let expect = 26f64.sqrt() - 1.0;
        assert!((p.kinetic_energy() - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mass must be positive")]
    fn zero_mass_rejected() {
        Particles::new(1.0, 0.0);
    }
}
