//! Exact order statistics over per-operation samples.
//!
//! Percentiles are nearest-rank over the sorted samples, never read off
//! a histogram: the `obs` pow2 histograms answer with bucket upper
//! bounds that can be up to 2x off.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, one outlier moves it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pct` in `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// Samples strictly above the nearest-rank percentile `pct` of `n`.
pub fn beyond(n: usize, pct: u32) -> usize {
    n - rank(n, pct).min(n)
}

/// Nearest-rank percentile `pct` (1..=100) of `samples`, which need not
/// be sorted. `None` when there are no samples.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// Nearest-rank median; `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50)
}

/// [`median`], or an error naming `what` had no samples.
pub fn median_of(samples: &[f64], what: &str) -> Result<f64, String> {
    median(samples).ok_or_else(|| format!("{what}: no samples"))
}

/// A tail percentile that refuses to answer from too few samples: the
/// error names the sample size, so a run fails loudly instead of
/// printing a number one outlier decides.
pub fn tail(samples: &[f64], pct: u32, what: &str) -> Result<f64, String> {
    let b = beyond(samples.len(), pct);
    if b < MIN_BEYOND {
        return Err(format!(
            "{what}: p{pct} of {} samples has {b} samples beyond it, fewer than {MIN_BEYOND}",
            samples.len()
        ));
    }
    percentile(samples, pct).ok_or_else(|| format!("{what}: no samples"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_counts() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 90), Some(90.0));
        assert_eq!(percentile(&v, 99), Some(99.0));
        assert_eq!(percentile(&v, 100), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(beyond(1000, 99), 10);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail(&v, 90, "x").is_ok());
        assert!(tail(&v[..99], 90, "x")
            .unwrap_err()
            .contains("fewer than 10"));
        assert!(tail(&v, 99, "x").is_err());
    }
}
