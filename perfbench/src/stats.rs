//! Order statistics and the tail-percentile rule.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median of the samples (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len().is_multiple_of(2) {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    }
}

/// The nearest-rank `q` quantile, or `None` unless at least
/// [`MIN_BEYOND`] samples lie strictly beyond it — a tail read from fewer
/// samples is mostly noise. `q = 0.99` therefore needs 1000 samples.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let idx = rank_index(n, q);
    if n - 1 - idx < MIN_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[idx])
}

/// The highest of `q`, p95, p90, p75 and p50 that [`tail`] can report
/// for these samples, with the quantile used; the plain median when even
/// p50 lacks [`MIN_BEYOND`] samples beyond it. For layer numbers on runs
/// too short for the tail they are named after.
pub fn best_tail(samples: &[f64], q: f64) -> (f64, f64) {
    [q, 0.95, 0.90, 0.75, 0.50]
        .into_iter()
        .filter(|&c| c <= q)
        .find_map(|c| tail(samples, c).map(|v| (v, c)))
        .unwrap_or_else(|| (median(samples), 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples needed for [`tail`] to report quantile `q`.
    fn samples_for_tail(q: f64) -> usize {
        (MIN_BEYOND..)
            .find(|&n| n - 1 - rank_index(n, q) >= MIN_BEYOND)
            .expect("some sample count satisfies the rule")
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(samples_for_tail(0.99), crate::serve::MIN_JOBS);
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), None, "999 samples leave only 9 beyond p99");
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = tail(&v, 0.99).expect("1000 samples leave 10 beyond");
        assert_eq!(p99, 989.0);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn p50_of_small_sets_and_median() {
        assert_eq!(tail(&[1.0; 5], 0.5), None);
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&v, 0.5), Some(11.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn best_tail_falls_back_to_the_highest_supported_quantile() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(best_tail(&v, 0.99), (989.0, 0.99));
        let v: Vec<f64> = (0..250).map(f64::from).collect();
        let (value, q) = best_tail(&v, 0.99);
        assert_eq!(q, 0.95);
        assert!(v.iter().filter(|&&x| x > value).count() >= MIN_BEYOND);
        assert_eq!(best_tail(&[2.0, 1.0, 3.0], 0.99), (2.0, 0.5));
    }
}
