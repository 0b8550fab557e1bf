//! The benchmark's workloads: one `SimConfig` each, plus the executor it
//! runs on and the length of one episode (set-up + a fixed number of
//! iterations, repeated until the run's time is used up).

use pic_core::SimConfig;
use pic_index::IndexScheme;
use pic_machine::MachineConfig;
use pic_particles::ParticleDistribution;
use pic_partition::PolicyKind;

/// Which `SpmdEngine` the workload's simulation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `ThreadedPicSim`: one OS thread per rank, wall-clock stats.
    Threaded,
    /// `ParallelPicSim`: the modeled BSP machine, τ/μ/δ stats.
    Modeled,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The simulation configuration (seed included).
    pub cfg: SimConfig,
    /// The executor every timed run uses.
    pub executor: Executor,
    /// Iterations per episode.  Fixed, so every episode does the same
    /// work and redistributes at the same iterations.
    pub episode_iters: usize,
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["uniform-dense", "beam-sar", "field-sparse"];

/// The default workload seed (`SimConfig::paper_default().seed`).
pub const DEFAULT_SEED: u64 = 1996;

/// The workload called `name`, seeded with `seed`.
pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
    let paper = SimConfig {
        seed,
        ..SimConfig::paper_default()
    };
    let threaded = |nx, ny, particles, policy| SimConfig {
        nx,
        ny,
        particles,
        distribution: ParticleDistribution::Uniform,
        scheme: IndexScheme::Hilbert,
        policy,
        machine: MachineConfig::cm5(2),
        ..paper.clone()
    };
    let wl = match name {
        // particle kernels dominate; one iteration in ten redistributes
        "uniform-dense" => Workload {
            name: "uniform-dense",
            cfg: threaded(256, 128, 131_072, PolicyKind::Periodic(10)),
            executor: Executor::Threaded,
            episode_iters: 100,
        },
        // the paper's headline case: 32 modeled ranks, SAR decides from
        // modeled time, so redistributions repeat exactly
        "beam-sar" => Workload {
            name: "beam-sar",
            cfg: paper.clone(),
            executor: Executor::Modeled,
            episode_iters: 300,
        },
        // few particles on a large mesh: the field solve dominates and
        // redistribution never runs after set-up
        "field-sparse" => Workload {
            name: "field-sparse",
            cfg: threaded(512, 256, 16_384, PolicyKind::Static),
            executor: Executor::Threaded,
            episode_iters: 100,
        },
        _ => return None,
    };
    Some(wl)
}

/// A tiny workload on `executor` for the self-test: same code paths,
/// a fraction of a second per run.
#[cfg(test)]
pub fn tiny(executor: Executor) -> Workload {
    let ranks = match executor {
        Executor::Threaded => 2,
        Executor::Modeled => 4,
    };
    Workload {
        name: "tiny",
        cfg: SimConfig {
            nx: 16,
            ny: 16,
            particles: 1024,
            policy: PolicyKind::Periodic(3),
            machine: MachineConfig::cm5(ranks),
            ..SimConfig::paper_default()
        },
        executor,
        episode_iters: 7,
    }
}
