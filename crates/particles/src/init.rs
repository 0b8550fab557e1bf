//! Particle loading distributions.
//!
//! The paper evaluates two cases (Section 6): "uniformly distributed
//! particles on a two-dimensional problem domain" and "irregularly
//! distributed particles that are concentrated in the center of the
//! domain" (Figure 15), chosen "highly irregular in order to study the
//! effect of such distribution", with real applications expected to be
//! intermediate.  Two extra loaders (two-stream and ring) drive the
//! physics examples.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::soa::Particles;
use crate::wrap::wrap_periodic;

/// Initial spatial distribution of the particles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParticleDistribution {
    /// Uniform over the whole domain (paper case 1).
    Uniform,
    /// Gaussian blob concentrated at the domain centre (paper case 2,
    /// Figure 15), standard deviation `L / 12` per dimension.
    IrregularCenter,
    /// Two counter-streaming uniform populations (drift ±0.2 c added to
    /// the thermal momentum) — the classic two-stream instability setup.
    TwoStream,
    /// A thin ring of radius `L / 4` around the centre.
    Ring,
}

impl ParticleDistribution {
    /// Short label for experiment rows.
    pub fn label(self) -> &'static str {
        match self {
            ParticleDistribution::Uniform => "uniform",
            ParticleDistribution::IrregularCenter => "irregular",
            ParticleDistribution::TwoStream => "two_stream",
            ParticleDistribution::Ring => "ring",
        }
    }

    /// Load `n` electrons over the domain `[0, lx) x [0, ly)` with Maxwellian
    /// thermal momentum spread `thermal_u` (normalized `u = p / m c`),
    /// deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `n == 0` or the domain is degenerate.
    pub fn load(self, n: usize, lx: f64, ly: f64, thermal_u: f64, seed: u64) -> Particles {
        assert!(n > 0, "need at least one particle");
        assert!(lx > 0.0 && ly > 0.0, "domain must be nonzero");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Particles::electrons();
        p.reserve(n);
        for i in 0..n {
            let (x, y) = match self {
                ParticleDistribution::Uniform => {
                    (rng.random_range(0.0..lx), rng.random_range(0.0..ly))
                }
                ParticleDistribution::IrregularCenter => {
                    let sx = lx / 12.0;
                    let sy = ly / 12.0;
                    let x = lx / 2.0 + gaussian(&mut rng) * sx;
                    let y = ly / 2.0 + gaussian(&mut rng) * sy;
                    (wrap_periodic(x, lx), wrap_periodic(y, ly))
                }
                ParticleDistribution::TwoStream => {
                    (rng.random_range(0.0..lx), rng.random_range(0.0..ly))
                }
                ParticleDistribution::Ring => {
                    let theta = rng.random_range(0.0..std::f64::consts::TAU);
                    let r = lx.min(ly) / 4.0 + gaussian(&mut rng) * lx.min(ly) / 64.0;
                    let x = lx / 2.0 + r * theta.cos();
                    let y = ly / 2.0 + r * theta.sin();
                    (wrap_periodic(x, lx), wrap_periodic(y, ly))
                }
            };
            let mut ux = gaussian(&mut rng) * thermal_u;
            let uy = gaussian(&mut rng) * thermal_u;
            let uz = gaussian(&mut rng) * thermal_u;
            if self == ParticleDistribution::TwoStream {
                ux += if i % 2 == 0 { 0.2 } else { -0.2 };
            }
            p.push(x, y, ux, uy, uz);
        }
        p
    }
}

impl std::fmt::Display for ParticleDistribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Standard normal sample via Box–Muller (keeps us independent of
/// distribution crates).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_exactly_n_in_domain() {
        for dist in [
            ParticleDistribution::Uniform,
            ParticleDistribution::IrregularCenter,
            ParticleDistribution::TwoStream,
            ParticleDistribution::Ring,
        ] {
            let p = dist.load(500, 64.0, 32.0, 0.1, 7);
            assert_eq!(p.len(), 500, "{dist}");
            assert!(p.x.iter().all(|&x| (0.0..64.0).contains(&x)), "{dist}");
            assert!(p.y.iter().all(|&y| (0.0..32.0).contains(&y)), "{dist}");
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let a = ParticleDistribution::Uniform.load(100, 10.0, 10.0, 0.1, 42);
        let b = ParticleDistribution::Uniform.load(100, 10.0, 10.0, 0.1, 42);
        assert_eq!(a, b);
        let c = ParticleDistribution::Uniform.load(100, 10.0, 10.0, 0.1, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn irregular_is_concentrated_at_center() {
        let p = ParticleDistribution::IrregularCenter.load(4000, 64.0, 64.0, 0.1, 1);
        let near =
            p.x.iter()
                .zip(&p.y)
                .filter(|&(&x, &y)| (x - 32.0).abs() < 16.0 && (y - 32.0).abs() < 16.0)
                .count();
        // with sigma = 64/12 ~ 5.3, essentially everything is within 3 sigma
        assert!(near > 3900, "only {near} of 4000 near centre");
    }

    #[test]
    fn uniform_spreads_over_quadrants() {
        let p = ParticleDistribution::Uniform.load(4000, 64.0, 64.0, 0.1, 1);
        let q1 =
            p.x.iter()
                .zip(&p.y)
                .filter(|&(&x, &y)| x < 32.0 && y < 32.0)
                .count();
        assert!((800..1200).contains(&q1), "quadrant count {q1}");
    }

    #[test]
    fn two_stream_has_two_drift_populations() {
        let p = ParticleDistribution::TwoStream.load(1000, 32.0, 32.0, 0.01, 3);
        let fast = p.ux.iter().filter(|&&u| u > 0.1).count();
        let slow = p.ux.iter().filter(|&&u| u < -0.1).count();
        assert!(fast > 400 && slow > 400, "fast {fast}, slow {slow}");
    }

    #[test]
    fn thermal_spread_scales() {
        let cold = ParticleDistribution::Uniform.load(2000, 10.0, 10.0, 0.001, 9);
        let hot = ParticleDistribution::Uniform.load(2000, 10.0, 10.0, 0.1, 9);
        let rms =
            |v: &[f64]| -> f64 { (v.iter().map(|u| u * u).sum::<f64>() / v.len() as f64).sqrt() };
        assert!(rms(&hot.uy) > 50.0 * rms(&cold.uy));
    }

    #[test]
    #[should_panic(expected = "at least one particle")]
    fn zero_particles_rejected() {
        ParticleDistribution::Uniform.load(0, 1.0, 1.0, 0.1, 0);
    }
}
