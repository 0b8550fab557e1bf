//! Property tests for the indexing schemes: bijectivity, inverse
//! consistency, and the curve-order invariants the partitioner relies on.

use pic_index::hilbert2d::{d2xy, xy2d};
use pic_index::IndexScheme;
use proptest::prelude::*;

proptest! {
    /// Raw 2-D Hilbert conversion is self-inverse on random squares.
    #[test]
    fn hilbert2d_raw_roundtrip(order in 1u32..12, seed in any::<u64>()) {
        let n = 1u64 << order;
        let x = seed % n;
        let y = (seed >> 32) % n;
        let d = xy2d(order, x, y);
        prop_assert!(d < n * n);
        prop_assert_eq!(d2xy(order, d), (x, y));
    }

    /// Consecutive raw Hilbert indices are always grid neighbours.
    #[test]
    fn hilbert2d_unit_steps(order in 1u32..10, seed in any::<u64>()) {
        let n = 1u64 << order;
        let d = seed % (n * n - 1);
        let a = d2xy(order, d);
        let b = d2xy(order, d + 1);
        prop_assert_eq!(a.0.abs_diff(b.0) + a.1.abs_diff(b.1), 1);
    }

    /// Every scheme round-trips on arbitrary rectangular meshes.
    #[test]
    fn schemes_roundtrip(
        w in 1usize..80,
        h in 1usize..80,
        seed in any::<u64>(),
    ) {
        for scheme in IndexScheme::ALL {
            let ix = scheme.build(w, h);
            let x = (seed as usize) % w;
            let y = ((seed >> 32) as usize) % h;
            let d = ix.index(x, y);
            prop_assert!(d < (w * h) as u64, "{}: index out of range", scheme);
            prop_assert_eq!(ix.coords(d), (x, y), "{}: roundtrip", scheme);
        }
    }

    /// Every scheme is injective: two distinct cells never share an index.
    #[test]
    fn schemes_injective(
        w in 1usize..40,
        h in 1usize..40,
        seed in any::<u64>(),
    ) {
        let (x1, y1) = ((seed as usize) % w, ((seed >> 16) as usize) % h);
        let (x2, y2) = (((seed >> 32) as usize) % w, ((seed >> 48) as usize) % h);
        prop_assume!((x1, y1) != (x2, y2));
        for scheme in IndexScheme::ALL {
            let ix = scheme.build(w, h);
            prop_assert_ne!(ix.index(x1, y1), ix.index(x2, y2), "{}", scheme);
        }
    }
}
