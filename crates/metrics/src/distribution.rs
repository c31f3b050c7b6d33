//! Distribution views: percentiles.
//!
//! The paper reports only extremes-over-mean (Eq. 13); percentiles
//! expose the tail of execution-time and turnaround distributions
//! (p95/p99).

/// Percentile of a sample using nearest-rank on a sorted copy.
///
/// `q` is in `[0, 1]`; returns `None` on an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn percentile_rejects_bad_q() {
        let _ = percentile(&[1.0], 1.5);
    }
}
