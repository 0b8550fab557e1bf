//! Property tests for grids, BLOCK layouts and halo plans on arbitrary
//! mesh/processor geometries.

use pic_field::{block_grid, factor_near_square, BlockLayout, Grid2, HaloPlan};
use proptest::prelude::*;

proptest! {
    /// Near-square factoring always multiplies back and is as square as
    /// any other factoring.
    #[test]
    fn factoring_is_optimal(p in 1usize..2000) {
        let (a, b) = factor_near_square(p);
        prop_assert_eq!(a * b, p);
        prop_assert!(a >= b);
        // no better factor pair exists
        for d in (b + 1)..=((p as f64).sqrt() as usize) {
            if p % d == 0 {
                prop_assert!(d <= b, "found squarer factoring {}x{}", p / d, d);
            }
        }
    }

    /// Blocks tile the mesh: every cell owned exactly once, owner lookup
    /// agrees with rect membership.
    #[test]
    fn layout_tiles_mesh(
        nx in 1usize..40,
        ny in 1usize..40,
        pr in 1usize..8,
        pc in 1usize..8,
    ) {
        prop_assume!(pr <= nx && pc <= ny);
        let l = BlockLayout::new_2d(nx, ny, pr, pc);
        let mut owned = vec![false; nx * ny];
        for rank in 0..l.num_ranks() {
            for (x, y) in l.local_rect(rank).cells() {
                prop_assert!(!owned[y * nx + x], "cell ({x},{y}) owned twice");
                owned[y * nx + x] = true;
                prop_assert_eq!(l.owner_of(x, y), rank);
            }
        }
        prop_assert!(owned.iter().all(|&b| b));
    }

    /// Block areas are balanced within the unavoidable rounding.
    #[test]
    fn layout_is_balanced(
        nx in 4usize..64,
        ny in 4usize..64,
        pr in 1usize..6,
        pc in 1usize..6,
    ) {
        prop_assume!(pr <= nx && pc <= ny);
        let l = BlockLayout::new_2d(nx, ny, pr, pc);
        let areas: Vec<usize> = (0..l.num_ranks()).map(|r| l.local_rect(r).area()).collect();
        let min = *areas.iter().min().unwrap();
        let max = *areas.iter().max().unwrap();
        // each dimension differs by at most one cell per block
        let bound = (nx / pr + 1) * (ny / pc + 1);
        prop_assert!(max <= bound);
        prop_assert!(min >= (nx / pr) * (ny / pc));
    }

    /// Halo plans are volume-symmetric and only send owned cells.
    #[test]
    fn halo_plan_invariants(
        nx in 2usize..24,
        ny in 2usize..24,
        pr in 1usize..5,
        pc in 1usize..5,
    ) {
        prop_assume!(pr <= nx && pc <= ny);
        let l = BlockLayout::new_2d(nx, ny, pr, pc);
        let plan = HaloPlan::build(&l);
        for rank in 0..l.num_ranks() {
            let rect = l.local_rect(rank);
            for msg in plan.sends(rank) {
                prop_assert!(msg.to != rank);
                for &((sx, sy), _) in &msg.cells {
                    prop_assert!(rect.contains(sx, sy));
                }
            }
            for &((sx, sy), _) in plan.self_copies(rank) {
                prop_assert!(rect.contains(sx, sy));
            }
            // each rank's ghost ring is fully covered: messages in +
            // self copies = ring size
            let incoming: usize = (0..l.num_ranks())
                .flat_map(|src| plan.sends(src))
                .filter(|m| m.to == rank)
                .map(|m| m.cells.len())
                .sum();
            let ring = 2 * (rect.w + 2) + 2 * rect.h;
            prop_assert_eq!(incoming + plan.self_copies(rank).len(), ring);
        }
    }

    /// Periodic grid access is the identity composed with wrapping.
    #[test]
    fn grid_periodic_access(
        w in 1usize..20,
        h in 1usize..20,
        x in -100isize..100,
        y in -100isize..100,
    ) {
        let mut g = Grid2::<f64>::zeros(w, h);
        let xw = x.rem_euclid(w as isize) as usize;
        let yw = y.rem_euclid(h as isize) as usize;
        g[(xw, yw)] = 42.0;
        prop_assert_eq!(*g.get_periodic(x, y), 42.0);
    }

    /// Local/global coordinate maps are inverse bijections.
    #[test]
    fn local_global_roundtrip(
        nx in 2usize..40,
        ny in 2usize..40,
        p in 1usize..16,
        seed in any::<u64>(),
    ) {
        let (pr, pc) = block_grid(nx, ny, p);
        prop_assume!(pr <= nx && pc <= ny);
        let l = BlockLayout::new_auto(nx, ny, p);
        let rank = (seed as usize) % l.num_ranks();
        let rect = l.local_rect(rank);
        let lx = (seed >> 8) as usize % rect.w;
        let ly = (seed >> 24) as usize % rect.h;
        let (gx, gy) = l.local_to_global(rank, lx, ly);
        prop_assert_eq!(l.global_to_local(rank, gx, gy), (lx, ly));
        prop_assert_eq!(l.owner_of(gx, gy), rank);
    }
}
