//! # pic-particles — the particle array substrate
//!
//! The particle side of the paper's two irregularly coupled data arrays:
//! structure-of-arrays storage ([`Particles`]), the loading distributions
//! the evaluation uses (uniform and the irregular centre-concentrated
//! case, [`ParticleDistribution`]), cloud-in-cell interpolation weights
//! ([`shape::Cic`], paper Figure 3, over the one cell rule
//! [`shape::cell_of`] that particle keys use too), and the relativistic
//! Boris pusher ([`push`]) whose [`push::advance`] is the one particle
//! step that closes the scatter → solve → gather → **push** loop.
//!
//! ```
//! use pic_particles::{ParticleDistribution, Particles};
//!
//! let p = ParticleDistribution::Uniform.load(1000, 64.0, 32.0, 0.05, 42);
//! assert_eq!(p.len(), 1000);
//! assert!(p.x.iter().all(|&x| (0.0..64.0).contains(&x)));
//! ```

#![warn(missing_docs)]

pub mod init;
pub mod push;
pub mod shape;
pub mod soa;
pub mod wrap;

pub use init::ParticleDistribution;
pub use push::{advance, boris_push, BorisStep};
pub use shape::{cell_of, Cic};
pub use soa::Particles;
pub use wrap::wrap_periodic;
