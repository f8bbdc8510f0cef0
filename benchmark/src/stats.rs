//! Order statistics for the benchmark's reported figures.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between the two nearest ranks (rank `q · (n − 1)`, zero-based), as
/// numpy's default does. `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, q))
}

/// [`percentile`] over an already ascending, non-empty slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_computed_cases() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        // Even count: the median sits halfway between the middle pair.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // Odd count: the middle element.
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        // Extremes are the min and the max.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 1.0), Some(3.0));
        // 1..=100: rank 0.99 · 99 = 98.01 → 99 + 0.01 · (100 − 99).
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = percentile(&hundred, 0.99).expect("non-empty");
        assert!((p99 - 99.01).abs() < 1e-9, "{p99}");
        // Quartiles of 1..=5: ranks 1 and 3.
        let five = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&five, 0.25), Some(2.0));
        assert_eq!(percentile(&five, 0.75), Some(4.0));
        // Rank 0.9 · 3 = 2.7 between 30 and 40.
        let p90 = percentile(&[10.0, 20.0, 30.0, 40.0], 0.9).expect("non-empty");
        assert!((p90 - 37.0).abs() < 1e-9, "{p90}");
    }

    #[test]
    fn mean_of_known_values() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
