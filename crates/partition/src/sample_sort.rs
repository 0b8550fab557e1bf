//! Splitter selection and destination classification.
//!
//! The initial particle distribution is a sample sort (paper Section 5.1:
//! "A sample-based sorting scheme can be used efficiently to perform the
//! distribution"): every rank contributes a regular sample of its sorted
//! keys, splitters are chosen from the gathered sample, and particles are
//! routed to the rank owning their key range.  After the first sort, the
//! *actual* per-rank key bounds (`rank_bounds_from_sorted`) replace the
//! sampled splitters and drive the incremental redistributions.

/// Regular sample of `count` keys from a rank's sorted key array.
///
/// Returns fewer than `count` when the rank holds fewer keys.
pub fn regular_sample(sorted_keys: &[u64], count: usize) -> Vec<u64> {
    if sorted_keys.is_empty() || count == 0 {
        return Vec::new();
    }
    let n = sorted_keys.len();
    let take = count.min(n);
    (0..take).map(|i| sorted_keys[(i * n) / take]).collect()
}

/// Select `p - 1` splitters from the gathered global sample (sorted
/// in-place).  Splitter `i` is the upper key bound (exclusive) of rank `i`.
pub fn select_splitters(sample: &mut [u64], p: usize) -> Vec<u64> {
    assert!(p > 0, "need at least one rank");
    sample.sort_unstable();
    let mut splitters = Vec::with_capacity(p - 1);
    for i in 1..p {
        let pos = (i * sample.len()) / p;
        splitters.push(sample[pos.min(sample.len().saturating_sub(1))]);
    }
    splitters
}

/// Exclusive upper key bound of every rank from the concatenation of all
/// ranks' extreme keys: `last_keys[r]` is rank `r`'s largest key after the
/// previous sort (the paper's `globalBound`, gathered by global
/// concatenation).  The final rank's bound is `u64::MAX`.
pub fn rank_bounds_from_sorted(last_keys: &[u64]) -> Vec<u64> {
    let p = last_keys.len();
    let mut bounds: Vec<u64> = last_keys.iter().map(|&k| k.saturating_add(1)).collect();
    if p > 0 {
        bounds[p - 1] = u64::MAX;
    }
    // bounds must be non-decreasing even if some rank was empty or ranges
    // interleaved slightly; clamp up
    for i in 1..p {
        if bounds[i] < bounds[i - 1] {
            bounds[i] = bounds[i - 1];
        }
    }
    bounds
}

/// Destination rank of every key under exclusive upper `bounds`
/// (`bounds[r]` is the first key *not* owned by rank `r`), written into
/// a caller-owned buffer: the hot path reuses one destination vector per
/// rank.
///
/// # Panics
/// Panics if `bounds` is empty.
pub fn classify_by_bounds_into(keys: &[u64], bounds: &[u64], dests: &mut Vec<usize>) {
    assert!(!bounds.is_empty(), "no rank bounds");
    let last = bounds.len() - 1;
    dests.clear();
    dests.reserve(keys.len());
    for &k in keys {
        dests.push(bounds[..last].partition_point(|&b| b <= k).min(last));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitters_divide_a_uniform_sample() {
        let mut sample: Vec<u64> = (0..100).collect();
        let s = select_splitters(&mut sample, 4);
        assert_eq!(s, vec![25, 50, 75]);
    }

    #[test]
    fn splitters_for_single_rank_are_empty() {
        let mut sample = vec![5, 1, 9];
        assert!(select_splitters(&mut sample, 1).is_empty());
    }

    #[test]
    fn bounds_from_last_keys_are_exclusive() {
        // ranks ended the previous sort with max keys 9, 19, 40
        let bounds = rank_bounds_from_sorted(&[9, 19, 40]);
        assert_eq!(bounds, vec![10, 20, u64::MAX]);
    }

    #[test]
    fn bounds_are_monotone_even_with_odd_inputs() {
        let bounds = rank_bounds_from_sorted(&[30, 10, 40]);
        assert_eq!(bounds, vec![31, 31, u64::MAX]);
    }

    #[test]
    fn classification_respects_bounds() {
        let bounds = vec![10, 20, u64::MAX];
        let mut dests = Vec::new();
        classify_by_bounds_into(&[0, 9, 10, 15, 19, 20, 1000], &bounds, &mut dests);
        assert_eq!(dests, vec![0, 0, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn classification_covers_u64_max() {
        let bounds = vec![10, u64::MAX];
        let mut dests = Vec::new();
        classify_by_bounds_into(&[u64::MAX], &bounds, &mut dests);
        assert_eq!(dests, vec![1]);
    }

    #[test]
    fn regular_sample_spans_the_array() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 2).collect();
        let s = regular_sample(&keys, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 0);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.last().unwrap() >= 1600, "{s:?}");
    }

    #[test]
    fn regular_sample_handles_small_arrays() {
        assert_eq!(regular_sample(&[], 5), Vec::<u64>::new());
        assert_eq!(regular_sample(&[7], 5), vec![7]);
        let s = regular_sample(&[1, 2, 3], 5);
        assert_eq!(s, vec![1, 2, 3]);
    }

    #[test]
    fn roundtrip_sample_sort_reference() {
        // end-to-end sanity on one "machine": sample, split, classify;
        // every key must land on a rank whose bound range contains it.
        let keys: Vec<u64> = (0..500).map(|i| (i * 7919) % 1000).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut sample = regular_sample(&sorted, 32);
        let splitters = select_splitters(&mut sample, 4);
        let mut bounds = splitters.clone();
        bounds.push(u64::MAX);
        let mut dests = Vec::new();
        classify_by_bounds_into(&keys, &bounds, &mut dests);
        for (k, d) in keys.iter().zip(&dests) {
            if *d > 0 {
                assert!(*k >= bounds[d - 1], "key {k} below rank {d}");
            }
            assert!(*k < bounds[*d], "key {k} above rank {d}");
        }
    }
}
