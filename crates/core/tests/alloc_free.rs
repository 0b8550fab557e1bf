//! Allocation-count regression test for the hot-path kernels.
//!
//! The performance contract (DESIGN.md §9): once a rank's scratch arena
//! is warm, the per-iteration particle kernels — key refresh, bound
//! classification, pack/exchange, incremental radix sort, the
//! cycle-decomposition permutation and the order-maintaining balance
//! merge — the ghost path (table adds, the drain into the arena's ghost
//! pack buffer, one window per owner, the gather phase's reply copy and
//! lookups through the same table) and the Maxwell field update
//! (`update_b_padded` + `update_e_padded`, in place on the rank's padded
//! block) perform **zero** heap allocations.  Everything
//! lives in buffers owned by [`pic_core::ScratchArena`], the ghost table
//! and the rank's own arrays, whose capacity is retained across
//! iterations.  Message payloads are windows of the arena's pack
//! buffers, so sending one allocates nothing either.
//!
//! The boundary is deliberate: the *executors* still allocate per
//! superstep — each rank's outbox, the routed inboxes, the worker pool's
//! job and result vectors, the statistics rows — so the full simulation
//! is checked only for *bounded, non-growing* counts.
//!
//! Debug builds run the radix-vs-comparison oracle, which clones the
//! index buffer per sort; the strict zero assertion therefore applies to
//! release builds only (CI's `perf-smoke` job runs this test with
//! `--release`), while debug builds assert a small fixed bound so gross
//! regressions still fail fast everywhere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pic_core::messages::{GhostCurrents, ParticleBatch};
use pic_core::{ParallelPicSim, RankState, SimConfig};
use pic_field::{BlockLayout, MaxwellSolver, Rect};
use pic_index::{CellIndexer, HilbertIndexer};
use pic_partition::{assign_keys_into, classify_by_bounds_into};

/// Wraps the system allocator and counts every allocation
/// (`alloc`/`alloc_zeroed`/`realloc`); frees are not counted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// One steady-state kernel cycle: refresh keys, classify against global
/// bounds, pack movers into the arena's shared buffers, "receive" them
/// back, incrementally sort, then run the order-maintaining balance:
/// the lowest and highest quarters of the sorted particles leave for the
/// neighbouring ranks and come straight back as their batches, which the
/// merge appends and rotates into place.  Mirrors the redistribute
/// phase's use of the arena exactly, with the exchanges looped back
/// locally.  Then the ghost path of the scatter and gather phases: every
/// particle adds to the four corners of its cell, the table drains into
/// one ghost message per owner of `layout`, the replies are copied into
/// the arena's reply buffer, and every corner finds its reply through
/// the table's `position`.
fn kernel_cycle(
    st: &mut RankState,
    indexer: &dyn CellIndexer,
    (dx, dy): (f64, f64),
    bounds: &[u64],
    layout: &BlockLayout,
    stash: &mut Vec<(usize, ParticleBatch)>,
    ghosts: &mut Vec<(usize, GhostCurrents)>,
) {
    let mut keys = std::mem::take(&mut st.keys);
    assign_keys_into(&st.particles, indexer, dx, dy, &mut keys);
    st.keys = keys;

    let mut dests = std::mem::take(&mut st.scratch.dests);
    classify_by_bounds_into(&st.keys, bounds, &mut dests);
    st.scratch.dests = dests;
    st.take_outgoing_packed(|dest, batch| stash.push((dest, batch)));

    for (_, batch) in stash.iter() {
        st.append_batch(batch);
    }
    stash.clear(); // drop the views so the arena can reclaim the pack buffers

    st.sort_local();

    let (n, r) = (st.len(), st.rank);
    st.scratch.dests.clear();
    st.scratch.dests.resize(n, r);
    st.scratch.dests[..n / 4].fill(r - 1);
    st.scratch.dests[n - n / 4..].fill(r + 1);
    st.take_outgoing_packed(|dest, batch| stash.push((dest, batch)));
    st.merge_in_order(stash);
    stash.clear();

    st.rebuild_sorter();

    let (nx, ny) = (layout.nx() as u32, layout.ny() as u32);
    let corners = |st: &RankState, i: usize| {
        let (cx, cy) = (
            (st.particles.x[i] / dx) as u32,
            (st.particles.y[i] / dy) as u32,
        );
        [(cx, cy), (cx + 1, cy), (cx, cy + 1), (cx + 1, cy + 1)].map(|(gx, gy)| (gx % nx, gy % ny))
    };
    st.ghost.clear();
    for i in 0..st.len() {
        for (gx, gy) in corners(st, i) {
            st.ghost.add(gx, gy, [0.25, -0.5, 1.0]);
        }
    }
    st.drain_ghosts(layout, |owner, msg| ghosts.push((owner, msg)));
    assert!(ghosts.len() > 1, "the ghost entries span several owners");
    // the owners' replies as the gather phase receives them: one per
    // drained entry, in drain order
    let replies = &mut st.scratch.ghost_fields;
    replies.clear();
    for (_, msg) in ghosts.iter() {
        replies.extend(
            msg.0
                .iter()
                .map(|&(key, j)| (key, [j[0], j[1], j[2], 0.0, 0.0, 0.0])),
        );
    }
    ghosts.clear(); // delivered: drop the windows so the pack buffer is reused
    for i in 0..st.len() {
        for (gx, gy) in corners(st, i) {
            let at = st
                .ghost
                .position(gx, gy)
                .expect("every added vertex is drained");
            assert_eq!(st.scratch.ghost_fields[at].0, gy * nx + gx);
        }
    }
}

/// Upper bound for debug builds: the radix oracle clones the index
/// buffer and runs a (heap-allocating) stable comparison sort once per
/// bucket, ~2-4 allocations each across ≤16 buckets per cycle.
const DEBUG_ORACLE_SLACK: u64 = 256;

#[test]
fn steady_state_kernels_do_not_allocate() {
    // ---- Part 1: the kernels themselves are zero-alloc once warm ----
    let cfg = SimConfig::small_test();
    let rect = Rect {
        x0: 0,
        y0: 0,
        w: cfg.nx,
        h: cfg.ny,
    };
    let indexer = HilbertIndexer::new(cfg.nx, cfg.ny);
    let (dx, dy) = (cfg.dx, cfg.dy);
    // the middle of three ranks, so the balance merge sees a lower and a
    // higher neighbour
    let mut st = RankState::new(1, rect, &cfg);
    st.all_counts = vec![0, 0, 0];
    let n = 2048usize;
    for i in 0..n {
        // deterministic scatter over the whole mesh, no RNG needed
        let x = ((i * 37) % 997) as f64 / 997.0 * cfg.lx();
        let y = ((i * 61) % 991) as f64 / 991.0 * cfg.ly();
        st.particles.push(x, y, 0.01, -0.02, 0.0);
        st.keys.push(0);
    }
    // bounds splitting the key domain so a healthy fraction of the
    // particles "move" (to rank 0) and loop back every cycle
    let mid = indexer.index(cfg.nx / 2, cfg.ny / 2);
    let bounds = vec![mid, u64::MAX];
    let mut stash: Vec<(usize, ParticleBatch)> = Vec::new();
    // scatter targets: a 2x2 block grid, so every rank owns some corners
    let layout = BlockLayout::new_2d(cfg.nx, cfg.ny, 2, 2);
    let mut ghosts: Vec<(usize, GhostCurrents)> = Vec::new();

    // two warm-up cycles grow every buffer to its steady capacity
    for _ in 0..2 {
        kernel_cycle(
            &mut st,
            &indexer,
            (dx, dy),
            &bounds,
            &layout,
            &mut stash,
            &mut ghosts,
        );
    }
    let allocs = count_allocs(|| {
        for _ in 0..3 {
            kernel_cycle(
                &mut st,
                &indexer,
                (dx, dy),
                &bounds,
                &layout,
                &mut stash,
                &mut ghosts,
            );
        }
    });
    assert_eq!(st.len(), n, "loopback exchange must conserve particles");
    assert!(st.keys.windows(2).all(|w| w[0] <= w[1]), "keys sorted");
    if cfg!(debug_assertions) {
        assert!(
            allocs <= DEBUG_ORACLE_SLACK,
            "debug kernel cycles allocated {allocs} times \
             (> oracle slack {DEBUG_ORACLE_SLACK})"
        );
    } else {
        assert_eq!(
            allocs, 0,
            "steady-state kernel cycles must not allocate (got {allocs})"
        );
    }

    // The field update runs in place on the rank's padded block, so it
    // is allocation-free from its first call, in debug builds too.
    let solver = MaxwellSolver::new(cfg.dt, cfg.dx, cfg.dy);
    solver.update_b_padded(&mut st.fields);
    solver.update_e_padded(&mut st.fields, &st.currents);
    let field_allocs = count_allocs(|| {
        for _ in 0..3 {
            solver.update_b_padded(&mut st.fields);
            solver.update_e_padded(&mut st.fields, &st.currents);
        }
    });
    assert_eq!(
        field_allocs, 0,
        "warm field updates must not allocate (got {field_allocs})"
    );

    // ---- Part 2: the full modeled simulation stays bounded ----
    // The executors allocate per superstep, so a full iteration is
    // not zero-alloc; the regression gate is that steady-state
    // iterations do not allocate *more* over time (no per-iteration
    // leak/growth).  The modeled machine is deterministic and a periodic
    // policy makes both 5-step windows contain exactly one
    // redistribution, so the comparison is apples-to-apples.
    let mut sim_cfg = SimConfig::small_test();
    sim_cfg.policy = pic_partition::PolicyKind::Periodic(5);
    let mut sim = ParallelPicSim::new(sim_cfg);
    for _ in 0..5 {
        sim.step(); // warm-up: arenas, ghost tables, channel buffers
    }
    let early = count_allocs(|| {
        for _ in 0..5 {
            sim.step();
        }
    });
    let late = count_allocs(|| {
        for _ in 0..5 {
            sim.step();
        }
    });
    assert!(
        late <= early * 3 / 2 + 64,
        "per-iteration allocations grew: early={early} late={late}"
    );
}
