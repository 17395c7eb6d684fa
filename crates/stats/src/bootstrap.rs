//! Bootstrap confidence intervals.
//!
//! The paper reports point CTRs (0.217 % vs 0.168 %) and a t-test; a
//! percentile bootstrap over the per-user paired differences gives the
//! experiment E5 a confidence interval for the CTR *difference* —
//! a more informative summary of the same data.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A two-sided percentile confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Lower percentile bound.
    pub lo: f64,
    /// Point estimate (mean of the observed sample).
    pub point: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Confidence level used (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Whether the interval excludes zero (a significance-flavored read).
    pub fn excludes_zero(&self) -> bool {
        (self.lo > 0.0 && self.hi > 0.0) || (self.lo < 0.0 && self.hi < 0.0)
    }
}

/// Percentile bootstrap CI for the mean of `sample`.
///
/// Returns `None` on an empty sample.
///
/// # Panics
/// Panics unless `0 < level < 1` and `resamples > 0`.
fn bootstrap_mean_ci(
    sample: &[f64],
    level: f64,
    resamples: usize,
    seed: u64,
) -> Option<ConfidenceInterval> {
    assert!(level > 0.0 && level < 1.0, "level must be in (0, 1)");
    assert!(resamples > 0, "need at least one resample");
    if sample.is_empty() {
        return None;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = sample.len();
    let mut means: Vec<f64> = (0..resamples)
        .map(|_| {
            let mut acc = 0.0;
            for _ in 0..n {
                acc += sample[rng.gen_range(0..n)];
            }
            acc / n as f64
        })
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let tail = (1.0 - level) / 2.0;
    let lo_idx = ((resamples as f64) * tail).floor() as usize;
    let hi_idx = (((resamples as f64) * (1.0 - tail)).ceil() as usize).min(resamples - 1);
    Some(ConfidenceInterval {
        lo: means[lo_idx],
        point: sample.iter().sum::<f64>() / n as f64,
        hi: means[hi_idx],
        level,
    })
}

/// Bootstrap CI for the mean *paired difference* `a[i] − b[i]`.
///
/// # Panics
/// Panics when the samples have different lengths.
pub fn bootstrap_paired_diff_ci(
    a: &[f64],
    b: &[f64],
    level: f64,
    resamples: usize,
    seed: u64,
) -> Option<ConfidenceInterval> {
    assert_eq!(a.len(), b.len(), "paired bootstrap needs equal lengths");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    bootstrap_mean_ci(&diffs, level, resamples, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_brackets_the_point_estimate() {
        let sample: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let ci = bootstrap_mean_ci(&sample, 0.95, 2000, 1).unwrap();
        assert!(ci.lo <= ci.point && ci.point <= ci.hi);
        assert!((ci.point - 4.5).abs() < 1e-9);
        // With 200 fairly-uniform points the CI is tight around 4.5.
        assert!(ci.hi - ci.lo < 1.0, "width {}", ci.hi - ci.lo);
    }

    #[test]
    fn clear_shift_excludes_zero_and_noise_does_not() {
        let a: Vec<f64> = (0..100).map(|i| 5.0 + (i % 7) as f64 * 0.1).collect();
        let b: Vec<f64> = a.iter().map(|x| x - 1.0).collect();
        let shifted = bootstrap_paired_diff_ci(&a, &b, 0.95, 1000, 2).unwrap();
        assert!(shifted.excludes_zero());
        assert!(shifted.lo > 0.9 && shifted.hi < 1.1);

        // Alternating ±1 differences center on zero.
        let c: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let zeros = vec![0.0; 100];
        let noisy = bootstrap_paired_diff_ci(&c, &zeros, 0.95, 1000, 3).unwrap();
        assert!(!noisy.excludes_zero(), "{noisy:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let sample = [1.0, 2.0, 3.0, 4.0];
        let a = bootstrap_mean_ci(&sample, 0.9, 500, 7).unwrap();
        let b = bootstrap_mean_ci(&sample, 0.9, 500, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_sample_is_none() {
        assert!(bootstrap_mean_ci(&[], 0.95, 100, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "level")]
    fn invalid_level_panics() {
        let _ = bootstrap_mean_ci(&[1.0], 1.5, 100, 1);
    }
}
