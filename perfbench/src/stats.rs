//! Order statistics over samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between the two nearest ranks; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median over `series` at each index, up to the shortest series.
///
/// Repeats of a deterministic run do the same work at the same index,
/// so this keeps the run's own slow steps (a redistribution every k-th
/// iteration) and drops a slowdown that hits one repeat and not the
/// others, such as a burst of host interference.
pub fn median_per_index(series: &[&[f64]]) -> Vec<f64> {
    let len = series.iter().map(|s| s.len()).min().unwrap_or(0);
    let mut column = Vec::with_capacity(series.len());
    (0..len)
        .map(|i| {
            column.clear();
            column.extend(series.iter().map(|s| s[i]));
            median(&column)
        })
        .collect()
}

/// `num / den`, or 0 when `den` is 0 (a share of nothing).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn median_per_index_keeps_repeated_steps_and_drops_one_off_ones() {
        let runs: [&[f64]; 3] = [&[1.0, 5.0, 1.0, 9.0], &[1.0, 5.0, 7.0], &[1.0, 5.0, 1.0]];
        assert_eq!(median_per_index(&runs), vec![1.0, 5.0, 1.0]);
        assert!(median_per_index(&[]).is_empty());
    }
}
