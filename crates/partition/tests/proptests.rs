//! Property tests for the distribution machinery: classification,
//! balancing and incremental sorting must hold for arbitrary inputs, not
//! just the shapes the paper's workloads produce.

use pic_partition::{
    balance_targets, classify_by_bounds_into, order_maintaining_balance, radix_sort_indices,
    radix_sorted_order_into, rank_bounds_from_sorted, regular_sample, select_splitters,
    sorted_order_comparison, BucketIncrementalSorter, RadixScratch,
};
use proptest::prelude::*;

/// The comparison-sort permutation the radix path must reproduce
/// bit-for-bit: stable order by key, ties by original index.
fn oracle_order(keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    order
}

/// The hot-path radix sort with a fresh scratch.
fn radix_order(keys: &[u64]) -> Vec<usize> {
    let mut order = Vec::new();
    radix_sorted_order_into(keys, &mut order, &mut RadixScratch::default());
    order
}

proptest! {
    /// Radix sort produces the exact permutation of the historical
    /// comparison sort for arbitrary keys — the property the bit-identical
    /// cross-validation suite rests on.
    #[test]
    fn radix_matches_comparison_oracle(
        keys in prop::collection::vec(any::<u64>(), 0..400),
    ) {
        let mut order: Vec<usize> = Vec::new();
        let mut scratch = RadixScratch::default();
        radix_sorted_order_into(&keys, &mut order, &mut scratch);
        prop_assert_eq!(&order, &oracle_order(&keys));
        prop_assert_eq!(order, sorted_order_comparison(&keys));
    }

    /// Narrow-domain keys (the bounded Hilbert-key case that takes the
    /// single-pass counting path) also match the oracle exactly.
    #[test]
    fn radix_matches_oracle_on_narrow_domain(
        keys in prop::collection::vec(0u64..8192, 0..400),
        base in any::<u64>(),
    ) {
        let shifted: Vec<u64> = keys
            .iter()
            .map(|&k| base.saturating_sub(8192).saturating_add(k))
            .collect();
        prop_assert_eq!(radix_order(&shifted), oracle_order(&shifted));
    }

    /// All-equal keys: the output must be the identity permutation
    /// (stability leaves ties in original index order).
    #[test]
    fn radix_is_identity_on_equal_keys(
        key in any::<u64>(),
        n in 0usize..300,
    ) {
        let keys = vec![key; n];
        let expect: Vec<usize> = (0..n).collect();
        prop_assert_eq!(radix_order(&keys), expect);
    }

    /// Already-sorted keys hit the early-exit path and still return the
    /// oracle permutation.
    #[test]
    fn radix_handles_presorted_keys(
        mut keys in prop::collection::vec(any::<u64>(), 0..400),
    ) {
        keys.sort_unstable();
        prop_assert_eq!(radix_order(&keys), oracle_order(&keys));
    }

    /// Sorting an index subset (the per-bucket call shape) is stable and
    /// agrees with the comparison sort restricted to those indices.
    #[test]
    fn radix_sorts_index_subsets(
        keys in prop::collection::vec(any::<u64>(), 1..200),
        picks in prop::collection::vec(any::<usize>(), 0..100),
    ) {
        let mut idx: Vec<usize> = picks.iter().map(|p| p % keys.len()).collect();
        let mut expect = idx.clone();
        expect.sort_by_key(|&i| keys[i]); // stable: preserves idx order on ties
        let mut scratch = RadixScratch::default();
        radix_sort_indices(&keys, &mut idx, &mut scratch);
        prop_assert_eq!(idx, expect);
    }

    /// Every key classifies into a rank whose bound range contains it.
    #[test]
    fn classification_is_consistent_with_bounds(
        keys in prop::collection::vec(any::<u64>(), 0..200),
        mut raw_bounds in prop::collection::vec(any::<u64>(), 1..16),
    ) {
        raw_bounds.sort_unstable();
        let last = raw_bounds.len() - 1;
        raw_bounds[last] = u64::MAX;
        let mut dests = Vec::new();
        classify_by_bounds_into(&keys, &raw_bounds, &mut dests);
        for (k, d) in keys.iter().zip(&dests) {
            prop_assert!(*d < raw_bounds.len());
            prop_assert!(*k < raw_bounds[*d] || *d == last);
            if *d > 0 {
                prop_assert!(*k >= raw_bounds[*d - 1]);
            }
        }
    }

    /// Targets always sum to the total and differ by at most one.
    #[test]
    fn balance_targets_invariants(counts in prop::collection::vec(0usize..5000, 1..64)) {
        let t = balance_targets(&counts);
        prop_assert_eq!(t.iter().sum::<usize>(), counts.iter().sum::<usize>());
        let min = *t.iter().min().unwrap();
        let max = *t.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// The balance plan moves exactly the surplus and its ranges are
    /// within each source's local array.
    #[test]
    fn balance_plan_is_well_formed(counts in prop::collection::vec(0usize..2000, 1..32)) {
        let plan = order_maintaining_balance(&counts);
        for (src, moves) in plan.moves.iter().enumerate() {
            let mut moved_here = 0;
            for (dest, range) in moves {
                prop_assert!(*dest != src);
                prop_assert!(range.end <= counts[src]);
                prop_assert!(range.start < range.end);
                moved_here += range.len();
            }
            // a source keeps at least max(0, target) of its own... the
            // amount moved never exceeds what it had
            prop_assert!(moved_here <= counts[src]);
        }
        // conservation: sum of incoming = sum of outgoing
        let outgoing: usize = plan.moved();
        let incoming: usize = plan
            .moves
            .iter()
            .flatten()
            .map(|(_, r)| r.len())
            .sum();
        prop_assert_eq!(outgoing, incoming);
    }

    /// Applying the balance plan to synthetic sorted rank arrays always
    /// yields the target counts with the global order intact.
    #[test]
    fn balance_plan_preserves_global_order(counts in prop::collection::vec(0usize..300, 1..16)) {
        // global array 0..total split by counts
        let total: usize = counts.iter().sum();
        let mut ranks: Vec<Vec<u64>> = Vec::new();
        let mut next = 0u64;
        for &c in &counts {
            ranks.push((next..next + c as u64).collect());
            next += c as u64;
        }
        let plan = order_maintaining_balance(&counts);
        // apply
        let p = counts.len();
        let mut incoming: Vec<Vec<(usize, Vec<u64>)>> = vec![Vec::new(); p];
        let mut kept: Vec<Vec<u64>> = Vec::new();
        for (src, local) in ranks.iter().enumerate() {
            let mut take = vec![false; local.len()];
            for (dest, range) in &plan.moves[src] {
                incoming[*dest].push((src, local[range.clone()].to_vec()));
                for i in range.clone() { take[i] = true; }
            }
            kept.push(local.iter().zip(&take).filter(|&(_, &t)| !t).map(|(&v, _)| v).collect());
        }
        let mut flat = Vec::with_capacity(total);
        for r in 0..p {
            incoming[r].sort_by_key(|&(s, _)| s);
            let mut v: Vec<u64> = Vec::new();
            for (s, chunk) in &incoming[r] { if *s < r { v.extend(chunk); } }
            v.extend(&kept[r]);
            for (s, chunk) in &incoming[r] { if *s > r { v.extend(chunk); } }
            prop_assert_eq!(v.len(), plan.targets[r], "rank {} count", r);
            flat.extend(v);
        }
        let expect: Vec<u64> = (0..total as u64).collect();
        prop_assert_eq!(flat, expect);
    }

    /// The incremental sorter sorts arbitrary keys under arbitrary
    /// (valid) boundary states, and its permutation is stable.
    #[test]
    fn incremental_sort_always_sorts(
        keys in prop::collection::vec(any::<u64>(), 0..300),
        prior in prop::collection::vec(any::<u64>(), 0..300),
        l in 1usize..32,
    ) {
        let mut sorter = BucketIncrementalSorter::new(l);
        let mut sorted_prior = prior.clone();
        sorted_prior.sort_unstable();
        sorter.rebuild(&sorted_prior);
        let (mut order, mut bucket_sizes) = (Vec::new(), Vec::new());
        sorter.sort_incremental_into(
            &keys,
            &mut order,
            &mut bucket_sizes,
            &mut RadixScratch::default(),
        );
        prop_assert_eq!(order.len(), keys.len());
        // sorted and stable: equal keys in original index order
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            prop_assert!(
                keys[a] < keys[b] || (keys[a] == keys[b] && a < b),
                "not stably sorted"
            );
        }
        // matches the reference stable sort
        prop_assert_eq!(order, radix_order(&keys));
    }

    /// Rank bounds from last keys are monotone and end at u64::MAX.
    #[test]
    fn rank_bounds_are_monotone(last_keys in prop::collection::vec(any::<u64>(), 1..64)) {
        let bounds = rank_bounds_from_sorted(&last_keys);
        prop_assert_eq!(bounds.len(), last_keys.len());
        prop_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*bounds.last().unwrap(), u64::MAX);
    }

    /// Splitters are non-decreasing and drawn from the sample.
    #[test]
    fn splitters_are_ordered_members(
        mut sample in prop::collection::vec(any::<u64>(), 1..500),
        p in 1usize..32,
    ) {
        let original = sample.clone();
        let splitters = select_splitters(&mut sample, p);
        prop_assert_eq!(splitters.len(), p - 1);
        prop_assert!(splitters.windows(2).all(|w| w[0] <= w[1]));
        for s in &splitters {
            prop_assert!(original.contains(s));
        }
    }

    /// Regular samples are sorted subsets of a sorted array.
    #[test]
    fn regular_sample_is_sorted_subset(
        mut keys in prop::collection::vec(any::<u64>(), 0..400),
        count in 0usize..64,
    ) {
        keys.sort_unstable();
        let sample = regular_sample(&keys, count);
        prop_assert!(sample.len() <= count.min(keys.len().max(1)));
        prop_assert!(sample.windows(2).all(|w| w[0] <= w[1]));
        for s in &sample {
            prop_assert!(keys.binary_search(s).is_ok());
        }
    }
}
