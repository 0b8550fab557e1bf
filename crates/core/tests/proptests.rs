//! Property tests of the full simulation over random small
//! configurations: conservation laws and determinism must hold for any
//! valid setup, not just the paper's grids.

use pic_core::{DedupKind, MovementMethod, ParallelPicSim, SimConfig};
use pic_index::IndexScheme;
use pic_machine::{MachineConfig, SpmdEngine};
use pic_particles::ParticleDistribution;
use pic_partition::PolicyKind;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        8usize..24,   // nx
        8usize..24,   // ny
        64usize..512, // particles
        1usize..9,    // ranks
        prop::sample::select(vec![
            ParticleDistribution::Uniform,
            ParticleDistribution::IrregularCenter,
            ParticleDistribution::Ring,
        ]),
        prop::sample::select(vec![
            IndexScheme::Hilbert,
            IndexScheme::Snake,
            IndexScheme::Morton,
        ]),
        prop::sample::select(vec![
            PolicyKind::Static,
            PolicyKind::Periodic(2),
            PolicyKind::DynamicSar,
        ]),
        prop::sample::select(vec![DedupKind::Hash, DedupKind::Direct]),
        any::<u64>(), // seed
    )
        .prop_map(
            |(nx, ny, particles, p, dist, scheme, policy, dedup, seed)| SimConfig {
                nx,
                ny,
                particles,
                distribution: dist,
                scheme,
                policy,
                dedup,
                machine: MachineConfig::cm5(p),
                seed,
                ..SimConfig::paper_default()
            },
        )
        .prop_filter("ranks must tile mesh", |cfg| {
            let (pr, pc) = pic_field::block_grid(cfg.nx, cfg.ny, cfg.machine.ranks);
            pr <= cfg.nx && pc <= cfg.ny && cfg.particles >= cfg.machine.ranks
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Particles are conserved, stay in the domain, and the modeled
    /// clock advances monotonically, for arbitrary configurations.
    #[test]
    fn simulation_invariants(cfg in arb_config()) {
        let n = cfg.particles;
        let (lx, ly) = (cfg.lx(), cfg.ly());
        let mut sim = ParallelPicSim::new(cfg);
        let mut last_total = 0.0;
        for _ in 0..4 {
            let rec = sim.step();
            prop_assert!(rec.time_s > 0.0);
            prop_assert!(rec.comm_s >= -1e-12);
            prop_assert_eq!(sim.total_particles(), n);
            let now = sim.machine().elapsed_s();
            prop_assert!(now > last_total);
            last_total = now;
        }
        for st in sim.machine().ranks() {
            for (&x, &y) in st.particles.x.iter().zip(&st.particles.y) {
                prop_assert!((0.0..lx).contains(&x));
                prop_assert!((0.0..ly).contains(&y));
            }
        }
    }

    /// Same config -> bit-identical report; different seed -> different
    /// trajectories (for warm plasmas).
    #[test]
    fn determinism(cfg in arb_config()) {
        let run = |cfg: SimConfig| {
            let mut sim = ParallelPicSim::new(cfg);
            let r = sim.run(3);
            (r.total_s.to_bits(), sim.energy().kinetic.to_bits())
        };
        let a = run(cfg.clone());
        let b = run(cfg.clone());
        prop_assert_eq!(a, b);
    }

    /// Redistribution leaves every rank's keys sorted and globally
    /// ordered across ranks.
    #[test]
    fn redistribution_global_order(cfg in arb_config()) {
        let mut sim = ParallelPicSim::new(cfg);
        sim.run(2);
        sim.redistribute_now();
        let mut prev = 0u64;
        let mut first = true;
        for st in sim.machine().ranks() {
            for &k in &st.keys {
                prop_assert!(first || k >= prev, "global key order broken");
                prev = k;
                first = false;
            }
        }
        // counts balanced
        let counts = sim.particle_counts();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        prop_assert!(max - min <= 1, "unbalanced after redistribution: {:?}", counts);
    }

    /// Eulerian migration places every particle on the rank owning its
    /// cell.
    #[test]
    fn eulerian_ownership(cfg in arb_config()) {
        let mut cfg = cfg;
        cfg.movement = MovementMethod::Eulerian;
        let mut sim = ParallelPicSim::new(cfg.clone());
        sim.run(3);
        for (r, st) in sim.machine().ranks().iter().enumerate() {
            for (&x, &y) in st.particles.x.iter().zip(&st.particles.y) {
                let (cx, cy) = pic_partition::cell_of(x, y, cfg.dx, cfg.dy, cfg.nx, cfg.ny);
                prop_assert_eq!(sim.layout().owner_of(cx, cy), r);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Checkpoint → encode → decode → resume reproduces the live rank
    /// state bit-for-bit at *any* iteration boundary of *any* valid
    /// configuration, and the resumed trajectory stays identical when
    /// both simulations continue (the modeled executor is fully
    /// deterministic, so any divergence is a checkpoint bug).
    #[test]
    fn checkpoint_roundtrip_at_any_boundary(
        cfg in arb_config(),
        stop_at in 0usize..8,
    ) {
        let mut original = ParallelPicSim::new(cfg.clone());
        for _ in 0..stop_at {
            original.step();
        }

        let bytes = original.checkpoint().encode();
        let ck = pic_core::Checkpoint::decode(&bytes).expect("decode");
        prop_assert_eq!(ck.iter, stop_at as u64);
        let mut resumed = ParallelPicSim::resume_from(cfg, &ck).expect("resume");

        for _ in 0..3 {
            original.step();
            resumed.step();
        }

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (m, t) in original
            .machine()
            .ranks()
            .iter()
            .zip(resumed.machine().ranks())
        {
            prop_assert_eq!(&m.keys, &t.keys);
            prop_assert_eq!(&m.bounds, &t.bounds);
            prop_assert_eq!(bits(&m.particles.x), bits(&t.particles.x));
            prop_assert_eq!(bits(&m.particles.y), bits(&t.particles.y));
            prop_assert_eq!(bits(&m.particles.ux), bits(&t.particles.ux));
            prop_assert_eq!(bits(&m.particles.uy), bits(&t.particles.uy));
            prop_assert_eq!(bits(&m.particles.uz), bits(&t.particles.uz));
            prop_assert_eq!(bits(m.fields.ex.as_slice()), bits(t.fields.ex.as_slice()));
            prop_assert_eq!(bits(m.fields.bz.as_slice()), bits(t.fields.bz.as_slice()));
        }
    }
}
