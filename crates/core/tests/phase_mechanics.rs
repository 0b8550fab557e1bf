//! Microscopic phase tests: hand-placed particles on tiny machines, with
//! the exact ghost messages, deposits and interpolations checked against
//! analytic values, and the scatter and gather kernels checked bit for
//! bit against a per-corner reference on hostile layouts.

use pic_core::messages::GhostCurrents;
use pic_core::phases::{self, PhaseEnv};
use pic_core::{GenericPicSim, ParallelPicSim, RankState, SimConfig};
use pic_machine::{MachineConfig, MemoryRecorder, SharedRecorder, SpmdEngine, TraceEvent};
use pic_particles::{Cic, ParticleDistribution};
use pic_partition::PolicyKind;

/// A 2-rank, 8x4 mesh configuration with few particles: rank blocks are
/// the left and right 4x4 halves.
fn two_rank_cfg() -> SimConfig {
    SimConfig {
        nx: 8,
        ny: 4,
        particles: 4,
        distribution: ParticleDistribution::Uniform,
        machine: MachineConfig::cm5(2),
        policy: PolicyKind::Static,
        thermal_u: 0.0,
        particle_charge: 1.0,
        seed: 7,
        ..SimConfig::paper_default()
    }
}

#[test]
fn interior_particle_generates_no_scatter_traffic() {
    // all particles rest in block interiors -> no ghost vertices at all
    let mut sim = ParallelPicSim::new(two_rank_cfg());
    // place particles well inside blocks (cells (1,1) and (5,1)), at rest
    for st in sim.ranks_mut() {
        let rect = st.rect;
        st.particles
            .x
            .iter_mut()
            .for_each(|x| *x = rect.x0 as f64 + 1.5);
        st.particles.y.iter_mut().for_each(|y| *y = 1.5);
        st.particles.ux.iter_mut().for_each(|u| *u = 0.0);
        st.particles.uy.iter_mut().for_each(|u| *u = 0.0);
        st.particles.uz.iter_mut().for_each(|u| *u = 0.0);
    }
    let rec = sim.step();
    assert_eq!(rec.scatter_max_msgs_sent, 0, "unexpected ghost messages");
    assert_eq!(rec.scatter_max_bytes_sent, 0);
}

#[test]
fn boundary_particle_scatters_across_the_block_edge() {
    let mut sim = ParallelPicSim::new(two_rank_cfg());
    // one moving particle in the cell just left of the rank boundary
    // (cell (3,1) has vertices at x=3 and x=4; x=4 belongs to rank 1)
    for (r, st) in sim.ranks_mut().iter_mut().enumerate() {
        st.particles.x.clear();
        st.particles.y.clear();
        st.particles.ux.clear();
        st.particles.uy.clear();
        st.particles.uz.clear();
        st.keys.clear();
        if r == 0 {
            st.particles.push(3.5, 1.5, 0.0, 0.0, 1.0);
            st.keys.push(0);
        }
    }
    let rec = sim.step();
    // rank 0 must send exactly one coalesced message (to rank 1) carrying
    // the two vertices at x=4 (y=1 and y=2)
    assert_eq!(rec.scatter_max_msgs_sent, 1);
    assert_eq!(
        rec.scatter_max_bytes_sent,
        2 * pic_core::costs::GHOST_CURRENT_BYTES as u64,
        "expected exactly two ghost vertices on the wire"
    );
}

#[test]
fn scatter_deposit_matches_cic_weights_globally() {
    // total deposited Jz must equal sum over particles of q * vz
    let cfg = SimConfig {
        particles: 64,
        thermal_u: 0.3,
        ..two_rank_cfg()
    };
    let mut sim = ParallelPicSim::new(cfg);
    // expectation from the *pre-step* velocities: scatter runs before push
    let mut expect = 0.0;
    for st in sim.machine().ranks() {
        for i in 0..st.particles.len() {
            let u = [st.particles.ux[i], st.particles.uy[i], st.particles.uz[i]];
            let gamma = pic_particles::push::gamma_of(u);
            expect += st.particles.charge * u[2] / gamma;
        }
    }
    sim.step();
    let mut total_jz = 0.0;
    for st in sim.machine().ranks() {
        total_jz += st.currents.jz.as_slice().iter().sum::<f64>();
    }
    assert!(
        (total_jz - expect).abs() < 1e-9 * expect.abs().max(1.0),
        "deposited {total_jz} vs expected {expect}"
    );
}

#[test]
fn gather_reproduces_uniform_fields_exactly() {
    // set Ez = 5 everywhere; every particle must gather exactly 5
    // particles are loaded at rest (thermal_u = 0) so J = 0 and a
    // spatially uniform Ez is a stationary solution: one full step leaves
    // the field at 5 and the gather must see exactly 5 at every particle.
    let mut sim = ParallelPicSim::new(two_rank_cfg());
    for st in sim.ranks_mut() {
        st.fields.ez.fill(5.0);
    }
    sim.step();
    for st in sim.machine().ranks() {
        for e in &st.e_at {
            assert!((e[2] - 5.0).abs() < 1e-12, "gathered {e:?}");
        }
    }
}

#[test]
fn field_solve_matches_sequential_reference_per_step() {
    // after one iteration with identical inputs, each rank's interior
    // fields must equal the sequential solver's on the same cells
    let cfg = SimConfig {
        particles: 32,
        thermal_u: 0.4,
        ..two_rank_cfg()
    };
    let mut par = ParallelPicSim::new(cfg.clone());
    let mut seq = pic_core::SequentialPicSim::new(cfg);
    par.step();
    seq.step();
    for st in par.machine().ranks() {
        for ly in 0..st.rect.h {
            for lx in 0..st.rect.w {
                let (gx, gy) = (st.rect.x0 + lx, st.rect.y0 + ly);
                let pv = st.fields.ez[(lx + 1, ly + 1)];
                let sv = seq.fields().ez[(gx, gy)];
                assert!(
                    (pv - sv).abs() < 1e-9,
                    "Ez mismatch at ({gx},{gy}): {pv} vs {sv}"
                );
            }
        }
    }
}

/// The per-corner scatter and gather kernels that every particle went
/// through before the interior-stencil path: `%`-wrapped corners, an
/// ownership test per corner, `Grid2` indexing, an interleaved
/// `[Ex,Ey,Ez,Bx,By,Bz]` copy of the padded field block, and ghost field
/// values looked up by vertex in an ordered map of the replies, not
/// through the ghost table.  The production kernels must reproduce them
/// bit for bit.
mod reference {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use pic_core::costs;
    use pic_core::messages::{GhostCurrents, GhostFields, Window};
    use pic_core::phases::PhaseEnv;
    use pic_core::RankState;
    use pic_machine::{Outbox, PhaseKind, SpmdEngine};
    use pic_particles::push::gamma_of;
    use pic_particles::Cic;

    fn corners(c: &Cic, nx: usize, ny: usize) -> [(usize, usize); 4] {
        let xp = (c.ix + 1) % nx;
        let yp = (c.iy + 1) % ny;
        [(c.ix, c.iy), (xp, c.iy), (c.ix, yp), (xp, yp)]
    }

    pub fn scatter<E: SpmdEngine<RankState>>(machine: &mut E, env: &PhaseEnv) {
        let (nx, ny) = (env.cfg.nx, env.cfg.ny);
        let (dx, dy) = (env.cfg.dx, env.cfg.dy);
        let layout = env.layout;
        machine
            .superstep(
                PhaseKind::Scatter,
                move |_r, st, ctx, ob: &mut Outbox<GhostCurrents>| {
                    st.currents.clear();
                    st.ghost_serving.clear();
                    st.ghost.clear();
                    let q = st.particles.charge;
                    let ghost_cost = st.ghost.add_cost();
                    for i in 0..st.particles.len() {
                        let u = [st.particles.ux[i], st.particles.uy[i], st.particles.uz[i]];
                        let gamma = gamma_of(u);
                        let v = [u[0] / gamma, u[1] / gamma, u[2] / gamma];
                        let cic = Cic::new(st.particles.x[i], st.particles.y[i], dx, dy, nx, ny);
                        ctx.charge_ops(4.0 * costs::SCATTER_VERTEX);
                        for (k, (cx, cy)) in corners(&cic, nx, ny).into_iter().enumerate() {
                            let w = cic.w[k];
                            let val = [q * v[0] * w, q * v[1] * w, q * v[2] * w];
                            if st.rect.contains(cx, cy) {
                                let (lx, ly) = (cx - st.rect.x0, cy - st.rect.y0);
                                st.currents.jx[(lx, ly)] += val[0];
                                st.currents.jy[(lx, ly)] += val[1];
                                st.currents.jz[(lx, ly)] += val[2];
                            } else {
                                st.ghost.add(cx as u32, cy as u32, val);
                                ctx.charge_ops(ghost_cost);
                            }
                        }
                    }
                    // a fresh buffer per superstep and one message per owner
                    let mut out = Vec::new();
                    let runs = st.ghost.drain_by_owner(layout, &mut out).to_vec();
                    let out = Arc::new(out);
                    let mut start = 0;
                    for (owner, len) in runs {
                        ctx.charge_ops(len as f64 * costs::GHOST_APPLY);
                        ob.send(owner, GhostCurrents(Window::new(&out, start..start + len)));
                        start += len;
                    }
                },
                move |_r, st, ctx, inbox| {
                    let nxu = nx as u32;
                    for (from, msg) in inbox {
                        ctx.charge_ops(msg.0.len() as f64 * costs::GHOST_APPLY);
                        for &(key, val) in msg.0.iter() {
                            let (gx, gy) = ((key % nxu) as usize, (key / nxu) as usize);
                            let (lx, ly) = (gx - st.rect.x0, gy - st.rect.y0);
                            st.currents.jx[(lx, ly)] += val[0];
                            st.currents.jy[(lx, ly)] += val[1];
                            st.currents.jz[(lx, ly)] += val[2];
                        }
                        st.ghost_serving.push((from, msg));
                    }
                },
            )
            .expect("reference scatter");
    }

    pub fn gather<E: SpmdEngine<RankState>>(machine: &mut E, env: &PhaseEnv) {
        let (nx, ny) = (env.cfg.nx, env.cfg.ny);
        let (dx, dy) = (env.cfg.dx, env.cfg.dy);
        machine
            .superstep(
                PhaseKind::Gather,
                move |_r, st, ctx, ob: &mut Outbox<GhostFields>| {
                    let nxu = nx as u32;
                    for (requester, msg) in std::mem::take(&mut st.ghost_serving) {
                        ctx.charge_ops(msg.0.len() as f64 * costs::GHOST_APPLY);
                        let entries: Vec<(u32, [f64; 6])> = msg
                            .0
                            .iter()
                            .map(|&(key, _)| {
                                let (gx, gy) = ((key % nxu) as usize, (key / nxu) as usize);
                                let (lx, ly) = (gx - st.rect.x0 + 1, gy - st.rect.y0 + 1);
                                (key, st.fields.at(lx, ly))
                            })
                            .collect();
                        ob.send(requester, GhostFields(entries.into()));
                    }
                },
                move |_r, st, ctx, inbox| {
                    let nxu = nx as u32;
                    let mut cache: BTreeMap<u32, [f64; 6]> = BTreeMap::new();
                    for (_, GhostFields(entries)) in inbox {
                        for &(k, v) in entries.iter() {
                            cache.insert(k, v);
                        }
                    }
                    let f = &st.fields;
                    let pw = f.width();
                    let aos: Vec<[f64; 6]> = (0..f.ex.len())
                        .map(|i| {
                            [&f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz].map(|g| g.as_slice()[i])
                        })
                        .collect();
                    st.e_at.clear();
                    st.b_at.clear();
                    for i in 0..st.particles.len() {
                        let cic = Cic::new(st.particles.x[i], st.particles.y[i], dx, dy, nx, ny);
                        ctx.charge_ops(4.0 * costs::GATHER_VERTEX);
                        let mut e = [0.0f64; 3];
                        let mut b = [0.0f64; 3];
                        for (k, (cx, cy)) in corners(&cic, nx, ny).into_iter().enumerate() {
                            let w = cic.w[k];
                            let vals = if st.rect.contains(cx, cy) {
                                let (lx, ly) = (cx - st.rect.x0 + 1, cy - st.rect.y0 + 1);
                                aos[ly * pw + lx]
                            } else {
                                cache[&(cy as u32 * nxu + cx as u32)]
                            };
                            for c in 0..3 {
                                e[c] += w * vals[c];
                                b[c] += w * vals[3 + c];
                            }
                        }
                        st.e_at.push(e);
                        st.b_at.push(b);
                    }
                },
            )
            .expect("reference gather");
    }
}

/// A tiny deterministic generator for test positions and field values.
struct Lcg(u64);

impl Lcg {
    /// Uniform in `[0, 1)`.
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Which kernels produced a rank state.
#[derive(Clone, Copy, Debug)]
enum Kernels {
    Production,
    Reference,
}

/// A hostile but valid layout: a config and where its particles sit.
struct Case {
    name: String,
    cfg: SimConfig,
    /// Global particle positions, dealt round-robin over the ranks.
    positions: Vec<(f64, f64)>,
}

/// Every hostile layout, once under each ghost table kind.
fn hostile_cases() -> Vec<Case> {
    let base = |nx, ny, ranks| SimConfig {
        nx,
        ny,
        particles: 64,
        distribution: ParticleDistribution::Uniform,
        machine: MachineConfig::cm5(ranks),
        policy: PolicyKind::Static,
        thermal_u: 0.5,
        seed: 11,
        ..SimConfig::paper_default()
    };
    let random = |cfg: &SimConfig, n: usize, seed: u64| {
        let mut g = Lcg(seed);
        (0..n)
            .map(|_| (g.next() * cfg.lx(), g.next() * cfg.ly()))
            .collect::<Vec<_>>()
    };
    // every block corner and edge midpoint, exactly on the edge, plus the
    // largest positions below the domain edges
    let edges = |cfg: &SimConfig| {
        let layout = pic_partition::sfc_block_layout(cfg.nx, cfg.ny, cfg.machine.ranks, cfg.scheme);
        let (lx, ly) = (cfg.lx(), cfg.ly());
        let mut pos = vec![
            (lx.next_down(), ly.next_down()),
            (lx.next_down(), 0.0),
            (0.0, ly.next_down()),
            (lx.next_down(), 0.5 * ly),
            (0.5 * lx, ly.next_down()),
        ];
        for r in 0..cfg.machine.ranks {
            let rect = layout.local_rect(r);
            let xs = [rect.x0, rect.x0 + rect.w / 2, rect.x0 + rect.w];
            let ys = [rect.y0, rect.y0 + rect.h / 2, rect.y0 + rect.h];
            for &x in &xs {
                for &y in &ys {
                    let (x, y) = (x as f64 * cfg.dx, y as f64 * cfg.dy);
                    for (px, py) in [(x, y), (x.next_down(), y), (x, y.next_down())] {
                        if (0.0..lx).contains(&px) && (0.0..ly).contains(&py) {
                            pos.push((px, py));
                        }
                    }
                }
            }
        }
        pos
    };

    let one_rank = base(8, 4, 1);
    let unit_blocks = base(4, 4, 16);
    let odd = SimConfig {
        dx: 0.7,
        dy: 0.3,
        dt: 0.1,
        ..base(50, 30, 7)
    };
    let two = base(8, 4, 2);
    let four = base(16, 16, 4);
    let mut g = Lcg(5);
    let layouts = vec![
        Case {
            name: "one rank".into(),
            positions: [random(&one_rank, 60, 1), edges(&one_rank)].concat(),
            cfg: one_rank,
        },
        Case {
            name: "1x1-cell blocks".into(),
            positions: [random(&unit_blocks, 60, 2), edges(&unit_blocks)].concat(),
            cfg: unit_blocks,
        },
        Case {
            name: "50x30 mesh on 7 ranks".into(),
            positions: [random(&odd, 1500, 3), edges(&odd)].concat(),
            cfg: odd,
        },
        Case {
            name: "block edges on 2 ranks".into(),
            positions: edges(&two),
            cfg: two,
        },
        Case {
            name: "all in one cell at a 4-block corner".into(),
            positions: (0..200).map(|_| (7.0 + g.next(), 7.0 + g.next())).collect(),
            cfg: four.clone(),
        },
        Case {
            name: "all in one block-interior cell".into(),
            positions: (0..200).map(|_| (2.0 + g.next(), 3.0 + g.next())).collect(),
            cfg: four,
        },
    ];
    let kinds = [pic_core::DedupKind::Hash, pic_core::DedupKind::Direct];
    layouts
        .into_iter()
        .flat_map(|case| {
            kinds.map(|dedup| Case {
                name: format!("{} ({dedup:?} table)", case.name),
                cfg: SimConfig {
                    dedup,
                    ..case.cfg.clone()
                },
                positions: case.positions.clone(),
            })
        })
        .collect()
}

/// The case's engine after two ordinary iterations, with the particles
/// replaced by the case's positions (dealt round-robin; `only` keeps just
/// one rank's share) and every field plane filled with distinct values —
/// `Ez` with `-0.0`, whose sign a sum must carry exactly as the reference
/// does.
fn prepared<E: SpmdEngine<RankState>>(case: &Case, only: Option<usize>) -> E {
    let mut sim = GenericPicSim::<E>::try_new(case.cfg.clone()).expect("build");
    sim.try_run(2).expect("warm-up iterations");
    let p = case.cfg.machine.ranks;
    let mut g = Lcg(99);
    for (r, st) in sim.ranks_mut().iter_mut().enumerate() {
        st.particles.truncate(0);
        for (i, &(x, y)) in case.positions.iter().enumerate() {
            let u = [g.next() - 0.5, g.next() - 0.5, g.next() - 0.5];
            if i % p == r && only.is_none_or(|o| o == r) {
                st.particles.push(x, y, u[0], u[1], u[2]);
            }
        }
        let f = &mut st.fields;
        for grid in [&mut f.ex, &mut f.ey, &mut f.bx, &mut f.by, &mut f.bz] {
            grid.as_mut_slice()
                .iter_mut()
                .for_each(|v| *v = g.next() - 0.5);
        }
        f.ez.fill(-0.0);
    }
    sim.into_machine()
}

/// Every rank's `ghost_serving` as `(sender, vertices)` lists.
type Serving = Vec<Vec<(usize, Vec<u32>)>>;

/// Run the scatter kernel, then the gather kernel if `gather`.  Returns
/// the ghost lists scatter left for gather, which gather consumes.
fn run_kernels<E: SpmdEngine<RankState>>(
    m: &mut E,
    cfg: &SimConfig,
    kernels: Kernels,
    gather: bool,
) -> Serving {
    let layout = pic_partition::sfc_block_layout(cfg.nx, cfg.ny, cfg.machine.ranks, cfg.scheme);
    let halo = pic_field::HaloPlan::build(&layout);
    let indexer = cfg.scheme.build(cfg.nx, cfg.ny);
    let solver = pic_field::MaxwellSolver::new(cfg.dt, cfg.dx, cfg.dy);
    let env = PhaseEnv {
        cfg,
        layout: &layout,
        halo: &halo,
        indexer: indexer.as_ref(),
        solver: &solver,
    };
    match kernels {
        Kernels::Production => phases::scatter::run(m, &env).expect("scatter"),
        Kernels::Reference => reference::scatter(m, &env),
    }
    let serving = m
        .ranks()
        .iter()
        .map(|st| {
            let keys = |msg: &GhostCurrents| msg.0.iter().map(|e| e.0).collect();
            st.ghost_serving
                .iter()
                .map(|(from, msg)| (*from, keys(msg)))
                .collect()
        })
        .collect();
    if gather {
        match kernels {
            Kernels::Production => phases::gather::run(m, &env).expect("gather"),
            Kernels::Reference => reference::gather(m, &env),
        }
        for st in m.ranks() {
            assert!(st.ghost_serving.is_empty(), "gather answers every list");
        }
    }
    serving
}

/// What one scatter + gather leaves on a rank, floats as bits.
struct RankOutcome {
    j: [Vec<u64>; 3],
    ghost_serving: Vec<(usize, Vec<u32>)>,
    e_at: Vec<[u64; 3]>,
    b_at: Vec<[u64; 3]>,
}

/// Every rank's outcome, plus the engine's elapsed seconds and the
/// kernels' trace: every operation's per-rank spans and its row.
fn outcome<E: SpmdEngine<RankState>>(
    case: &Case,
    kernels: Kernels,
) -> (Vec<RankOutcome>, (u64, Vec<TraceEvent>)) {
    let mut m: E = prepared(case, None);
    let trace = SharedRecorder::new(MemoryRecorder::new());
    m.instruments_mut().recorder = Some(Box::new(trace.clone()));
    let serving = run_kernels(&mut m, &case.cfg, kernels, true);
    let bits = |g: &pic_field::Grid2<f64>| g.as_slice().iter().map(|x| x.to_bits()).collect();
    let bits3 = |v: &[[f64; 3]]| v.iter().map(|a| a.map(f64::to_bits)).collect();
    let ranks = m
        .ranks()
        .iter()
        .zip(serving)
        .map(|(st, ghost_serving)| RankOutcome {
            j: [
                bits(&st.currents.jx),
                bits(&st.currents.jy),
                bits(&st.currents.jz),
            ],
            ghost_serving,
            e_at: bits3(&st.e_at),
            b_at: bits3(&st.b_at),
        })
        .collect();
    let events = trace.with(|t| t.take());
    (ranks, (m.elapsed_s().to_bits(), events))
}

/// One rank's message to another: `(sender, receiver, [(vertex,
/// [Jx,Jy,Jz] bits)])`.
type GhostMessage = (usize, usize, Vec<(u32, [u64; 3])>);

/// Each rank's outgoing ghost entries: the sender scatters alone, so what
/// each receiver applies is exactly what that sender put on the wire.
fn outgoing<E: SpmdEngine<RankState>>(case: &Case, kernels: Kernels) -> Vec<GhostMessage> {
    let nxu = case.cfg.nx as u32;
    let mut out = Vec::new();
    for s in 0..case.cfg.machine.ranks {
        let mut m: E = prepared(case, Some(s));
        let serving = run_kernels(&mut m, &case.cfg, kernels, false);
        for (r, (st, lists)) in m.ranks().iter().zip(serving).enumerate() {
            for (from, keys) in &lists {
                assert_eq!(*from, s, "{}: only rank {s} scattered", case.name);
                let entries = keys
                    .iter()
                    .map(|&key| {
                        let (gx, gy) = ((key % nxu) as usize, (key / nxu) as usize);
                        let (lx, ly) = (gx - st.rect.x0, gy - st.rect.y0);
                        let c = &st.currents;
                        (
                            key,
                            [c.jx[(lx, ly)], c.jy[(lx, ly)], c.jz[(lx, ly)]].map(f64::to_bits),
                        )
                    })
                    .collect();
                out.push((s, r, entries));
            }
        }
    }
    out
}

/// Equal slices, or a panic naming the first differing element.
fn assert_same<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!(
            "{what}: element {i} is {:?}, reference {:?}",
            got[i], want[i]
        );
    }
}

fn assert_kernels_match_reference<E: SpmdEngine<RankState>>(modeled: bool) {
    let (mut interior, mut general) = (0, 0);
    for case in hostile_cases() {
        let (got, got_s) = outcome::<E>(&case, Kernels::Production);
        let (want, want_s) = outcome::<E>(&case, Kernels::Reference);
        assert_eq!(got.len(), want.len());
        for (r, (g, w)) in got.iter().zip(&want).enumerate() {
            let what = |field| format!("{}: rank {r} {field}", case.name);
            for (c, name) in ["Jx", "Jy", "Jz"].into_iter().enumerate() {
                assert_same(&g.j[c], &w.j[c], &what(name));
            }
            assert_same(&g.ghost_serving, &w.ghost_serving, &what("ghost_serving"));
            assert_same(&g.e_at, &w.e_at, &what("e_at"));
            assert_same(&g.b_at, &w.b_at, &what("b_at"));
        }
        if modeled {
            // identical op charges give identical modeled time, rank by
            // rank and operation by operation
            assert_eq!(got_s, want_s, "{}: modeled elapsed and trace", case.name);
        }
        let sent = outgoing::<E>(&case, Kernels::Production);
        let want_sent = outgoing::<E>(&case, Kernels::Reference);
        assert_same(
            &sent,
            &want_sent,
            &format!("{}: outgoing ghost entries", case.name),
        );
        // a lone rank owns every vertex, wrapped ones included
        let lone = case.cfg.machine.ranks == 1;
        assert_eq!(sent.is_empty(), lone, "{}: ghost traffic", case.name);

        let m: E = prepared(&case, None);
        let (nx, ny) = (case.cfg.nx, case.cfg.ny);
        for st in m.ranks() {
            let rect = st.rect;
            for (&x, &y) in st.particles.x.iter().zip(&st.particles.y) {
                let cic = Cic::new(x, y, case.cfg.dx, case.cfg.dy, nx, ny);
                match cic.interior_offsets(rect.x0, rect.y0, rect.w, rect.h, rect.w, 0) {
                    Some(_) => interior += 1,
                    None => general += 1,
                }
            }
        }
    }
    assert!(
        interior > 0 && general > 0,
        "both stencil paths must be exercised"
    );
}

#[test]
fn deposit_and_interpolation_match_the_per_corner_reference_on_the_modeled_machine() {
    assert_kernels_match_reference::<pic_machine::Machine<RankState>>(true);
}

#[test]
fn deposit_and_interpolation_match_the_per_corner_reference_on_threads() {
    assert_kernels_match_reference::<pic_machine::ThreadedMachine<RankState>>(false);
}
