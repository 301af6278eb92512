//! Exact order statistics over raw samples.
//!
//! Every quantile here is read from the sorted samples themselves, never
//! from a bucketed histogram, so p99 and max stay distinct numbers.

/// Sort a sample set ascending (NaN-free input assumed).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank `q`-quantile of sorted samples (0 for an empty set).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of sorted samples: the mean of the two middle values for an
/// even count.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A tail reading: the highest percentile, capped at 99, that still has
/// at least [`TAIL_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile actually read (99 when there are ≥ 1,100 samples).
    pub percentile: f64,
    /// Samples in the set.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of sorted samples under the ten-beyond rule. With too few
/// samples for the rule the maximum is returned, at percentile 100.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: sorted.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            samples: n,
        };
    }
    let p99_index = (0.99 * n as f64).ceil() as usize - 1;
    let index = p99_index.min(n - 1 - TAIL_BEYOND);
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        // ceil(0.99 * 1000) = 990 would leave exactly 10 above it.
        assert_eq!(t.value, 990.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 190.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(tail(&[1.0, 3.0]).value, 3.0);
    }

    #[test]
    fn quantiles_are_exact_ranks() {
        let v = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }
}
