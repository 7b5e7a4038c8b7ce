//! Order statistics over timing samples.

/// The percentile ladder a timing is reported on, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile of the ladder that has at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it, or `None` when even the
/// median lacks them.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) + 1e-9 >= TAIL_SAMPLES as f64)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps float error (99.9 / 100 * 1000 = 999.0000…1) from
    // bumping an exact rank up by one.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The samples sorted ascending (NaN-free input).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// Median of `samples` (the nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(9_999), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(100_000), Some(99.99));
        assert_eq!(supported_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 99.9), 999.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
