//! Kernel microbenches on a snapshot of live rank state: the rank
//! holding the most particles at the end of a traced episode (on the
//! workloads' BSP supersteps the slowest rank sets each phase's time).
//! Each kernel is timed through the crates' public functions on copies
//! of that rank's arrays, so the snapshot is never mutated.

use std::hint::black_box;
use std::time::Instant;

use pic_core::{RankState, SimConfig};
use pic_field::{CurrentSet, MaxwellSolver};
use pic_particles::push::{boris_push, BorisStep};
use pic_particles::Cic;
use pic_partition::RadixScratch;
use pic_partition::{assign_keys_into, classify_by_bounds_into, radix_sorted_order_into};

use crate::stats::median;

/// Minimum timed repetitions per kernel.
const MIN_REPS: usize = 5;
/// Maximum timed repetitions per kernel.
const MAX_REPS: usize = 200;
/// Stop repeating a kernel once its timed repetitions exceed this.
const BUDGET_S: f64 = 0.05;

/// Per-item kernel costs in nanoseconds.
pub struct KernelCosts {
    /// `assign_keys_into`, per particle.
    pub assign_keys: f64,
    /// `radix_sorted_order_into` on freshly assigned keys, per key.
    pub radix_sort: f64,
    /// `classify_by_bounds_into` against the global rank bounds, per particle.
    pub classify: f64,
    /// `boris_push` with the gathered E/B, per particle.
    pub boris_push: f64,
    /// `Cic::new` + `corners` + a periodic deposit, per particle.
    pub cic: f64,
    /// `MaxwellSolver::update_b_padded`, per owned cell.
    pub update_b: f64,
    /// `MaxwellSolver::update_e_padded`, per owned cell.
    pub update_e: f64,
}

/// Median nanoseconds per item of `f`, which processes `items` items.
fn ns_per_item(items: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and buffers
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < MIN_REPS
        || (samples.len() < MAX_REPS && started.elapsed().as_secs_f64() < BUDGET_S)
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e9 / items.max(1) as f64);
    }
    median(&samples)
}

/// Time every kernel on the largest rank of `ranks`.
pub fn measure(ranks: &[RankState], cfg: &SimConfig) -> KernelCosts {
    let st = ranks
        .iter()
        .max_by_key(|st| st.len())
        .expect("at least one rank");
    let p = &st.particles;
    let n = p.len();
    let (nx, ny, dx, dy) = (cfg.nx, cfg.ny, cfg.dx, cfg.dy);
    let indexer = cfg.scheme.build(nx, ny);

    let mut keys = Vec::new();
    let assign_keys = ns_per_item(n, || {
        assign_keys_into(black_box(p), indexer.as_ref(), dx, dy, &mut keys);
        black_box(&keys);
    });

    let mut order = Vec::new();
    let mut scratch = RadixScratch::default();
    let radix_sort = ns_per_item(n, || {
        radix_sorted_order_into(black_box(&keys), &mut order, &mut scratch);
        black_box(&order);
    });

    let mut dests = Vec::new();
    let classify = ns_per_item(n, || {
        classify_by_bounds_into(black_box(&keys), &st.bounds, &mut dests);
        black_box(&dests);
    });

    let qm = p.qm();
    let mut u_next = vec![[0.0f64; 3]; n];
    let boris = ns_per_item(n, || {
        for (i, out) in u_next.iter_mut().enumerate() {
            let fields = BorisStep {
                e: st.e_at[i],
                b: st.b_at[i],
            };
            *out = boris_push([p.ux[i], p.uy[i], p.uz[i]], &fields, qm, cfg.dt);
        }
        black_box(&u_next);
    });

    let mut grid = vec![0.0f64; nx * ny];
    let cic = ns_per_item(n, || {
        for i in 0..n {
            let c = Cic::new(p.x[i], p.y[i], dx, dy, nx, ny);
            for (k, (cx, cy)) in c.corners(nx, ny).into_iter().enumerate() {
                grid[cy * nx + cx] += c.w[k];
            }
        }
        black_box(&grid);
    });

    let solver = MaxwellSolver::new(cfg.dt, dx, dy);
    let cells = st.rect.area();
    let mut fields = st.fields.clone();
    let currents: CurrentSet = st.currents.clone();
    let update_b = ns_per_item(cells, || solver.update_b_padded(black_box(&mut fields)));
    let update_e = ns_per_item(cells, || {
        solver.update_e_padded(black_box(&mut fields), &currents)
    });

    KernelCosts {
        assign_keys,
        radix_sort,
        classify,
        boris_push: boris,
        cic,
        update_b,
        update_e,
    }
}
