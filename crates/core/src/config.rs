//! Simulation configuration.

use pic_index::IndexScheme;
use pic_machine::MachineConfig;
use pic_particles::{ParticleDistribution, Particles};
use pic_partition::PolicyKind;
use serde::{Deserialize, Serialize};

/// How duplicate off-processor accesses are removed in the scatter phase
/// (paper Section 3.2, Figure 8).  Both kinds index the same dense entry
/// list and share one drain, so they put the same bits on the wire; they
/// differ in memory and in the modeled cost per access
/// ([`crate::costs::GHOST_ADD_HASH`] against
/// [`crate::costs::GHOST_ADD_DIRECT`]).  The gather phase finds the
/// owners' field replies through the same table, so the kind sets the
/// memory of both phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DedupKind {
    /// Hash table (open addressing, linear probing): memory proportional
    /// to the ghost set, a probe sequence per access.
    Hash,
    /// Direct address table: memory proportional to the number of mesh
    /// grid points, one indexed access.
    Direct,
}

/// Particle movement method (paper Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MovementMethod {
    /// Direct Lagrangian: the particle→rank assignment is fixed between
    /// redistributions (the paper's choice for scalability).
    Lagrangian,
    /// Direct Eulerian: particles migrate to the rank owning their cell
    /// after every push (grid partitioning baseline from Table 1).  The
    /// redistribution policy is ignored in this mode.
    Eulerian,
}

/// Full configuration of a parallel PIC run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Mesh cells along x (also the vertex grid width, periodic).
    pub nx: usize,
    /// Mesh cells along y.
    pub ny: usize,
    /// Total number of particles.
    pub particles: usize,
    /// Initial particle distribution.
    pub distribution: ParticleDistribution,
    /// Indexing scheme for cells, processor blocks and particles.
    pub scheme: IndexScheme,
    /// Redistribution decision policy.
    pub policy: PolicyKind,
    /// Virtual machine parameters (ranks, tau, mu, delta).
    pub machine: MachineConfig,
    /// Particle movement method.
    pub movement: MovementMethod,
    /// Ghost-table duplicate removal implementation.
    pub dedup: DedupKind,
    /// Buckets per rank for the incremental sorter (paper's `L`).
    pub buckets_per_rank: usize,
    /// Time step (must satisfy the field solver's CFL bound).
    pub dt: f64,
    /// Cell size along x.
    pub dx: f64,
    /// Cell size along y.
    pub dy: f64,
    /// Thermal momentum spread of the loaded particles.
    pub thermal_u: f64,
    /// Per-particle charge magnitude (scaled small so self-fields stay
    /// gentle; the communication behaviour is driven by thermal motion).
    pub particle_charge: f64,
    /// RNG seed for the particle loader.
    pub seed: u64,
    /// Run the per-iteration invariant guards: key/particle sync and
    /// field and current finiteness, checked for every rank in parallel
    /// on the executor's own workers (the lowest failing rank is
    /// reported), then global particle and charge conservation on the
    /// driver.  Violations surface as `SpmdError` with an
    /// `InvariantViolation` cause from
    /// [`GenericPicSim::try_step`](crate::GenericPicSim::try_step).
    pub check_invariants: bool,
}

impl SimConfig {
    /// The paper's headline configuration: irregular distribution,
    /// 128x64 mesh, 32768 particles on 32 processors (Figures 17–19),
    /// Hilbert indexing, CM-5 machine constants.
    pub fn paper_default() -> Self {
        Self {
            nx: 128,
            ny: 64,
            particles: 32_768,
            distribution: ParticleDistribution::IrregularCenter,
            scheme: IndexScheme::Hilbert,
            policy: PolicyKind::DynamicSar,
            machine: MachineConfig::cm5(32),
            movement: MovementMethod::Lagrangian,
            dedup: DedupKind::Hash,
            buckets_per_rank: 16,
            dt: 0.4,
            dx: 1.0,
            dy: 1.0,
            thermal_u: 0.5,
            particle_charge: 0.01,
            seed: 1996,
            check_invariants: true,
        }
    }

    /// A tiny configuration for unit/integration tests: 16x16 mesh,
    /// 512 particles, 4 ranks.
    pub fn small_test() -> Self {
        Self {
            nx: 16,
            ny: 16,
            particles: 512,
            machine: MachineConfig::cm5(4),
            ..Self::paper_default()
        }
    }

    /// Domain length along x.
    pub fn lx(&self) -> f64 {
        self.nx as f64 * self.dx
    }

    /// Domain length along y.
    pub fn ly(&self) -> f64 {
        self.ny as f64 * self.dy
    }

    /// Total mesh grid points `m`.
    pub fn grid_points(&self) -> usize {
        self.nx * self.ny
    }

    /// The whole particle population: `particles` loaded from
    /// `distribution` with the configured seed and thermal spread, each
    /// carrying charge `-particle_charge`.
    pub fn load_particles(&self) -> Particles {
        let mut particles = self.distribution.load(
            self.particles,
            self.lx(),
            self.ly(),
            self.thermal_u,
            self.seed,
        );
        particles.charge = -self.particle_charge;
        particles
    }

    /// Rank `r`'s contiguous chunk of the population `global` from
    /// [`Self::load_particles`] (as if read from a shared file).
    pub fn rank_chunk(&self, global: &Particles, r: usize) -> Particles {
        let (n, p) = (self.particles, self.machine.ranks);
        global.slice(r * n / p..(r + 1) * n / p)
    }

    /// Validate invariants the driver depends on.
    ///
    /// # Panics
    /// Panics on an unusable configuration.
    pub fn validate(&self) {
        assert!(self.nx >= 2 && self.ny >= 2, "mesh too small");
        assert!(self.particles > 0, "no particles");
        assert!(self.machine.ranks >= 1, "no ranks");
        assert!(
            self.particles >= self.machine.ranks,
            "fewer particles than ranks"
        );
        assert!(self.buckets_per_rank >= 1, "need at least one bucket");
        assert!(self.dt > 0.0 && self.dx > 0.0 && self.dy > 0.0);
        let p = self.machine.ranks;
        let (pr, pc) = pic_field::block_grid(self.nx, self.ny, p);
        assert!(
            pr <= self.nx && pc <= self.ny,
            "{p} ranks cannot tile a {}x{} mesh",
            self.nx,
            self.ny
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        SimConfig::paper_default().validate();
        SimConfig::small_test().validate();
    }

    #[test]
    fn paper_default_matches_figure_17_setup() {
        let c = SimConfig::paper_default();
        assert_eq!((c.nx, c.ny), (128, 64));
        assert_eq!(c.particles, 32_768);
        assert_eq!(c.machine.ranks, 32);
        // avg 4 particles per cell, as the paper states
        assert_eq!(c.particles / (c.nx * c.ny), 4);
    }

    #[test]
    #[should_panic(expected = "fewer particles than ranks")]
    fn too_few_particles_rejected() {
        let mut c = SimConfig::small_test();
        c.particles = 2;
        c.validate();
    }

    #[test]
    fn domain_lengths_follow_cell_sizes() {
        let mut c = SimConfig::small_test();
        c.dx = 0.5;
        c.dy = 2.0;
        assert_eq!(c.lx(), 8.0);
        assert_eq!(c.ly(), 32.0);
        assert_eq!(c.grid_points(), 256);
    }
}
