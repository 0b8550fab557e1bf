//! The push phase: the relativistic Boris pusher.
//!
//! "The force obtained from the gather phase moves particles to their new
//! positions" (paper Section 2).  The de-facto standard integrator for
//! relativistic electromagnetic PIC is the Boris scheme: a half electric
//! kick, a magnetic rotation, and a second half kick, followed by the
//! position update with the relativistic velocity `u / gamma`.
//!
//! [`advance`] is the whole per-particle step — kick, rotation, drift and
//! periodic wrap — and every driver calls it: the distributed push phase,
//! the sequential reference, the replicated-grid baseline and the
//! electrostatic variant.

use crate::soa::Particles;
use crate::wrap::wrap_periodic;

/// Fields acting on one particle for one time step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BorisStep {
    /// Electric field at the particle.
    pub e: [f64; 3],
    /// Magnetic field at the particle.
    pub b: [f64; 3],
}

/// Advance one particle's normalized momentum `u = p / (m c)` by `dt`
/// under `fields`, with charge-to-mass ratio `qm` (normalized units,
/// `c = 1`).  Returns the new momentum; the caller updates positions with
/// `x += u / gamma * dt`.
#[inline]
pub fn boris_push(u: [f64; 3], fields: &BorisStep, qm: f64, dt: f64) -> [f64; 3] {
    let half = 0.5 * qm * dt;
    // half electric kick
    let um = [
        u[0] + half * fields.e[0],
        u[1] + half * fields.e[1],
        u[2] + half * fields.e[2],
    ];
    // magnetic rotation at the mid-step Lorentz factor
    let gamma_m = (1.0 + um[0] * um[0] + um[1] * um[1] + um[2] * um[2]).sqrt();
    let t = [
        half * fields.b[0] / gamma_m,
        half * fields.b[1] / gamma_m,
        half * fields.b[2] / gamma_m,
    ];
    let t2 = t[0] * t[0] + t[1] * t[1] + t[2] * t[2];
    let s = [
        2.0 * t[0] / (1.0 + t2),
        2.0 * t[1] / (1.0 + t2),
        2.0 * t[2] / (1.0 + t2),
    ];
    let uprime = [
        um[0] + um[1] * t[2] - um[2] * t[1],
        um[1] + um[2] * t[0] - um[0] * t[2],
        um[2] + um[0] * t[1] - um[1] * t[0],
    ];
    let up = [
        um[0] + uprime[1] * s[2] - uprime[2] * s[1],
        um[1] + uprime[2] * s[0] - uprime[0] * s[2],
        um[2] + uprime[0] * s[1] - uprime[1] * s[0],
    ];
    // second half electric kick
    [
        up[0] + half * fields.e[0],
        up[1] + half * fields.e[1],
        up[2] + half * fields.e[2],
    ]
}

/// Advance particle `i` of `p` by one time step under `fields`: the
/// Boris momentum update, then the drift `x += u / gamma * dt` with the
/// new momentum, wrapped back into the periodic domain `[0, lx) x [0, ly)`.
#[inline]
pub fn advance(
    p: &mut Particles,
    i: usize,
    fields: &BorisStep,
    qm: f64,
    dt: f64,
    lx: f64,
    ly: f64,
) {
    let u = boris_push([p.ux[i], p.uy[i], p.uz[i]], fields, qm, dt);
    let gamma = gamma_of(u);
    p.ux[i] = u[0];
    p.uy[i] = u[1];
    p.uz[i] = u[2];
    p.x[i] = wrap_periodic(p.x[i] + u[0] / gamma * dt, lx);
    p.y[i] = wrap_periodic(p.y[i] + u[1] / gamma * dt, ly);
}

/// Lorentz factor of a normalized momentum.
#[inline]
pub fn gamma_of(u: [f64; 3]) -> f64 {
    (1.0 + u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_particle_keeps_momentum() {
        let u = [0.3, -0.2, 0.1];
        let got = boris_push(u, &BorisStep::default(), -1.0, 0.1);
        assert_eq!(got, u);
    }

    #[test]
    fn electric_field_accelerates_linearly() {
        // dU/dt = qm * E exactly under Boris with B = 0
        let fields = BorisStep {
            e: [1.0, 0.0, 0.0],
            b: [0.0; 3],
        };
        let u = boris_push([0.0; 3], &fields, -1.0, 0.01);
        assert!((u[0] + 0.01).abs() < 1e-15, "{u:?}");
        assert_eq!(u[1], 0.0);
    }

    #[test]
    fn magnetic_field_preserves_speed() {
        // pure magnetic rotation is norm-preserving to machine precision
        let fields = BorisStep {
            e: [0.0; 3],
            b: [0.0, 0.0, 2.0],
        };
        let mut u: [f64; 3] = [0.4, 0.0, 0.0];
        let norm0 = (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt();
        for _ in 0..1000 {
            u = boris_push(u, &fields, -1.0, 0.05);
        }
        let norm1 = (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt();
        assert!(
            (norm0 - norm1).abs() < 1e-12,
            "|u| drifted {norm0} -> {norm1}"
        );
    }

    #[test]
    fn magnetic_rotation_is_circular() {
        // in-plane momentum rotates; z stays zero for Bz-only field
        let fields = BorisStep {
            e: [0.0; 3],
            b: [0.0, 0.0, 1.0],
        };
        let mut u = [0.1, 0.0, 0.0];
        let mut seen_negative_x = false;
        for _ in 0..200 {
            u = boris_push(u, &fields, -1.0, 0.1);
            assert_eq!(u[2], 0.0);
            if u[0] < -0.05 {
                seen_negative_x = true;
            }
        }
        assert!(seen_negative_x, "momentum never rotated");
    }

    #[test]
    fn gamma_matches_definition() {
        assert_eq!(gamma_of([0.0; 3]), 1.0);
        assert!((gamma_of([3.0, 0.0, 4.0]) - 26f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn relativistic_speed_saturates_below_c() {
        // enormous kick; velocity u/gamma must stay < 1 (= c)
        let fields = BorisStep {
            e: [1e6, 0.0, 0.0],
            b: [0.0; 3],
        };
        let u = boris_push([0.0; 3], &fields, -1.0, 1.0);
        let v = u[0].abs() / gamma_of(u);
        assert!(v < 1.0, "superluminal v = {v}");
        assert!(v > 0.999, "relativistic limit not reached: {v}");
    }

    #[test]
    fn free_particle_drifts_across_both_periodic_boundaries() {
        // no fields: u is kept, the position moves by u / gamma * dt and
        // wraps in x (past the upper edge) and in y (past the lower edge)
        let (lx, ly, dt) = (8.0, 4.0, 0.5);
        let u = [1.2, -0.9, 0.3];
        let mut p = Particles::electrons();
        p.push(7.9, 0.1, u[0], u[1], u[2]);
        advance(&mut p, 0, &BorisStep::default(), -1.0, dt, lx, ly);
        let gamma = gamma_of(u);
        let x = 7.9 + u[0] / gamma * dt - lx;
        let y = 0.1 + u[1] / gamma * dt + ly;
        assert!((p.x[0] - x).abs() < 1e-12, "x = {} vs {x}", p.x[0]);
        assert!((p.y[0] - y).abs() < 1e-12, "y = {} vs {y}", p.y[0]);
        assert!((0.0..lx).contains(&p.x[0]) && (0.0..ly).contains(&p.y[0]));
        assert_eq!([p.ux[0], p.uy[0], p.uz[0]], u);
    }

    #[test]
    fn advance_matches_push_drift_wrap_bitwise() {
        // the open-coded sequence every driver ran before `advance`
        fn reference(p: &mut Particles, i: usize, f: &BorisStep, qm: f64, dt: f64, l: [f64; 2]) {
            let u = [p.ux[i], p.uy[i], p.uz[i]];
            let u2 = boris_push(u, f, qm, dt);
            let gamma = gamma_of(u2);
            p.ux[i] = u2[0];
            p.uy[i] = u2[1];
            p.uz[i] = u2[2];
            p.x[i] = wrap_periodic(p.x[i] + u2[0] / gamma * dt, l[0]);
            p.y[i] = wrap_periodic(p.y[i] + u2[1] / gamma * dt, l[1]);
        }
        // a 64-bit LCG mapped to [-1, 1)
        let mut s = 1996u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let (lx, ly) = (16.0, 8.0);
        for case in 0..400 {
            let mut p = Particles::new(-1.0, 1.0 + case as f64 * 0.01);
            p.push(
                (next() + 1.0) * 0.5 * lx,
                (next() + 1.0) * 0.5 * ly,
                3.0 * next(),
                3.0 * next(),
                3.0 * next(),
            );
            let f = BorisStep {
                e: [next(), next(), next()],
                b: [2.0 * next(), 2.0 * next(), 2.0 * next()],
            };
            let dt = 0.5 * (next() + 1.0);
            let qm = p.qm();
            let mut want = p.clone();
            reference(&mut want, 0, &f, qm, dt, [lx, ly]);
            advance(&mut p, 0, &f, qm, dt, lx, ly);
            for (got, want) in p.get(0).iter().zip(want.get(0)) {
                assert_eq!(got.to_bits(), want.to_bits(), "case {case}");
            }
        }
    }

    #[test]
    fn e_cross_b_drift_direction() {
        // E x B drift: E along y, B along z -> drift along x for any charge
        let fields = BorisStep {
            e: [0.0, 0.1, 0.0],
            b: [0.0, 0.0, 1.0],
        };
        let mut u = [0.0; 3];
        let mut x_displacement = 0.0;
        for _ in 0..2000 {
            u = boris_push(u, &fields, -1.0, 0.05);
            x_displacement += u[0] / gamma_of(u) * 0.05;
        }
        // drift velocity E x B / B^2 = (0.1, 0, 0) -> displacement ~ 10
        assert!(
            (x_displacement - 10.0).abs() < 1.0,
            "drift displacement {x_displacement}"
        );
    }
}
