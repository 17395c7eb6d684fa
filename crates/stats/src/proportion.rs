//! Two-proportion z-test.
//!
//! The paper compares CTRs with a paired t-test over per-user rates
//! (§6.4); a natural complementary check treats the two CTRs as pooled
//! binomial proportions (clicks out of impressions) and runs a
//! two-proportion z-test. Experiment E5 reports both.

use serde::{Deserialize, Serialize};

/// Result of a two-proportion z-test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PropTestResult {
    /// The z statistic.
    pub z: f64,
    /// Two-tailed p-value.
    pub p: f64,
    /// First sample's proportion.
    pub p1: f64,
    /// Second sample's proportion.
    pub p2: f64,
}

impl PropTestResult {
    /// Whether the difference is significant at level `alpha`.
    pub fn significant(&self, alpha: f64) -> bool {
        self.p < alpha
    }
}

/// The error function, Abramowitz & Stegun 7.1.26 (|ε| ≤ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Two-tailed two-proportion z-test: `successes1/trials1` vs
/// `successes2/trials2`. Returns `None` for empty samples or a degenerate
/// pooled proportion (0 or 1 — the statistic is undefined; the samples are
/// identical in rate anyway).
///
/// # Panics
/// Panics when successes exceed trials.
pub fn two_proportion_z_test(
    successes1: u64,
    trials1: u64,
    successes2: u64,
    trials2: u64,
) -> Option<PropTestResult> {
    assert!(successes1 <= trials1, "successes1 > trials1");
    assert!(successes2 <= trials2, "successes2 > trials2");
    if trials1 == 0 || trials2 == 0 {
        return None;
    }
    let p1 = successes1 as f64 / trials1 as f64;
    let p2 = successes2 as f64 / trials2 as f64;
    let pooled = (successes1 + successes2) as f64 / (trials1 + trials2) as f64;
    let var = pooled * (1.0 - pooled) * (1.0 / trials1 as f64 + 1.0 / trials2 as f64);
    if var <= 0.0 {
        return None;
    }
    let z = (p1 - p2) / var.sqrt();
    let p = 2.0 * (1.0 - normal_cdf(z.abs()));
    Some(PropTestResult {
        z,
        p: p.clamp(0.0, 1.0),
        p1,
        p2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_matches_reference_values() {
        // erf(0)=0, erf(1)≈0.8427, erf(2)≈0.99532, odd function.
        assert!(erf(0.0).abs() < 1e-8);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-5);
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-9);
    }

    #[test]
    fn normal_cdf_is_sane() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!(normal_cdf(-6.0) < 1e-8);
    }

    #[test]
    fn clear_difference_is_significant() {
        // 5% vs 1% over 10k trials each.
        let r = two_proportion_z_test(500, 10_000, 100, 10_000).unwrap();
        assert!(r.significant(0.01), "p = {}", r.p);
        assert!(r.z > 10.0);
    }

    #[test]
    fn similar_proportions_are_not_significant() {
        // The paper's scale: ~0.217% vs 0.168% on 41K vs 229K impressions.
        let r = two_proportion_z_test(89, 41_000, 385, 229_000).unwrap();
        assert!((r.p1 - 0.00217).abs() < 1e-4);
        assert!(!r.significant(0.01), "p = {}", r.p);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(two_proportion_z_test(0, 0, 1, 10).is_none());
        assert!(two_proportion_z_test(0, 10, 0, 10).is_none(), "pooled 0");
        assert!(two_proportion_z_test(10, 10, 10, 10).is_none(), "pooled 1");
    }

    #[test]
    #[should_panic(expected = "successes1 > trials1")]
    fn impossible_counts_panic() {
        let _ = two_proportion_z_test(11, 10, 0, 10);
    }

    #[test]
    fn symmetry_flips_the_sign_only() {
        let a = two_proportion_z_test(50, 1000, 30, 1000).unwrap();
        let b = two_proportion_z_test(30, 1000, 50, 1000).unwrap();
        assert!((a.z + b.z).abs() < 1e-12);
        assert!((a.p - b.p).abs() < 1e-12);
    }
}
