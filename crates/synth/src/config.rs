//! Generator configuration.
//!
//! Defaults are a laptop-scale model of the paper's deployment; the
//! `paper_scale` presets match the paper's headline counts (1329 users,
//! hundreds of thousands of hostnames) for the E7 extrapolation experiment.

use serde::{Deserialize, Serialize};

/// Configuration of the synthetic hostname universe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Topical content sites (the profiling signal).
    pub num_sites: usize,
    /// CDN hosts (unlabeled, co-requested with sites).
    pub num_cdns: usize,
    /// API endpoints (unlabeled, partially topic-affine — the
    /// `api.bkng.azure.com` phenomenon).
    pub num_apis: usize,
    /// Trackers / ad servers (no interest signal; blocklist fodder).
    pub num_trackers: usize,
    /// Zipf exponent of site popularity.
    pub popularity_exponent: f64,
    /// Target fraction of the hostname universe covered by the ontology
    /// (paper: Google Adwords covers 10.6 %). Only crawlable hosts (sites
    /// and core) can carry labels, so the effective coverage is capped at
    /// their share of the universe (~35 % under the default kind mix) —
    /// targets above that are silently clamped, mirroring how the paper's
    /// 67 % uncrawlable share bounded Adwords too.
    pub ontology_coverage: f64,
    /// Standard deviation of the multiplicative noise applied to ontology
    /// labels relative to ground truth.
    pub label_noise: f64,
    /// Fraction of sites that behave interactively (streaming/video):
    /// they are re-requested many times within one visit, exercising the
    /// profiler's first-visit-only deduplication.
    pub interactive_site_fraction: f64,
    /// RNG seed; every world with the same config is byte-identical.
    pub seed: u64,
}

impl Default for WorldConfig {
    /// Infrastructure (CDN/API/tracker) hostnames outnumber content sites
    /// roughly 2:1 so the uncrawlable share of the universe lands near the
    /// paper's 67 %.
    fn default() -> Self {
        Self {
            num_sites: 3000,
            num_cdns: 2200,
            num_apis: 3200,
            num_trackers: 700,
            popularity_exponent: 1.0,
            ontology_coverage: 0.106,
            label_noise: 0.10,
            interactive_site_fraction: 0.12,
            seed: 0x5eed_0001,
        }
    }
}

impl WorldConfig {
    /// A small world for unit tests: fast to generate, still has every
    /// host kind.
    pub fn tiny() -> Self {
        Self {
            num_sites: 200,
            num_cdns: 120,
            num_apis: 180,
            num_trackers: 40,
            ..Self::default()
        }
    }

    /// The million-user bench tier's universe: ~10⁵ hostnames (a large
    /// vocabulary, still trainable in one process). Used only by
    /// `--scale large`.
    pub fn large() -> Self {
        Self {
            num_sites: 40_000,
            num_cdns: 25_000,
            num_apis: 30_000,
            num_trackers: 8_000,
            ..Self::default()
        }
    }

    /// A world whose hostname count approaches the paper's 470 K unique
    /// hostnames. Heavy: only used by the E7 scale experiment.
    pub fn paper_scale() -> Self {
        Self {
            num_sites: 150_000,
            num_cdns: 120_000,
            num_apis: 170_000,
            num_trackers: 30_000,
            ..Self::default()
        }
    }

    /// Total number of hostnames this config will mint.
    pub fn total_hosts(&self) -> usize {
        self.num_sites
            + self.num_cdns
            + self.num_apis
            + self.num_trackers
            + crate::names::CORE_SITE_NAMES.len()
    }
}

/// Configuration of the synthetic user population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of users (paper: 1329 installs).
    pub num_users: usize,
    /// Minimum / maximum number of top-level interest topics per user.
    pub interests_min: usize,
    /// See [`PopulationConfig::interests_min`].
    pub interests_max: usize,
    /// Dirichlet concentration across a user's interest topics; lower
    /// values → more skewed interests.
    pub interest_alpha: f64,
    /// Median browsing sessions per day (log-normally distributed across
    /// users).
    pub sessions_per_day_median: f64,
    /// Log-space sigma of sessions-per-day.
    pub sessions_per_day_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            num_users: 400,
            interests_min: 3,
            interests_max: 8,
            interest_alpha: 0.8,
            sessions_per_day_median: 3.0,
            sessions_per_day_sigma: 0.6,
            seed: 0x5eed_0002,
        }
    }
}

impl PopulationConfig {
    /// A handful of users for unit tests.
    pub fn tiny() -> Self {
        Self {
            num_users: 20,
            ..Self::default()
        }
    }

    /// The paper's 1329 participants.
    pub fn paper_scale() -> Self {
        Self {
            num_users: 1329,
            ..Self::default()
        }
    }

    /// The million-user bench tier. Activity is dialed down (≈1 session
    /// per day) so total observations stay bounded by memory, the way an
    /// ISP's long-tail subscriber base mostly idles.
    pub fn large() -> Self {
        Self {
            num_users: 1_000_000,
            sessions_per_day_median: 1.0,
            ..Self::default()
        }
    }
}

/// Configuration of browsing-trace generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Number of simulated days.
    pub days: u32,
    /// Probability that a page visit goes to a core host instead of a
    /// topical site (the google/facebook background noise).
    pub core_visit_prob: f64,
    /// Probability of staying on the current interest topic for the next
    /// page (topical sessions are the signal SKIPGRAM learns from).
    pub topic_persistence: f64,
    /// Probability that each dependency (CDN/API/tracker) of a visited site
    /// actually fires a request.
    pub dependency_fire_prob: f64,
    /// Mean of log(pages per session); exp(2.3) ≈ 10 pages.
    pub pages_mu: f64,
    /// Sigma of log(pages per session).
    pub pages_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    /// The paper's one-month profiling phase.
    fn default() -> Self {
        Self {
            days: 30,
            core_visit_prob: 0.22,
            topic_persistence: 0.62,
            dependency_fire_prob: 0.8,
            pages_mu: 2.3,
            pages_sigma: 0.7,
            seed: 0x5eed_0003,
        }
    }
}

impl TraceConfig {
    /// A couple of days for unit tests.
    pub fn tiny() -> Self {
        Self {
            days: 2,
            ..Self::default()
        }
    }

    /// The million-user bench tier: two days (train on day 0, profile
    /// day 1) with shorter sessions. Two days also keeps every timestamp
    /// well inside the columnar store's u32-millisecond horizon.
    pub fn large() -> Self {
        Self {
            days: 2,
            pages_mu: 1.4, // exp(1.4) ≈ 4 pages per session
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let w = WorldConfig::default();
        assert!(w.ontology_coverage > 0.0 && w.ontology_coverage < 1.0);
        assert!(w.total_hosts() > w.num_sites);
        let p = PopulationConfig::default();
        assert!(p.interests_min <= p.interests_max);
        let t = TraceConfig::default();
        assert!(t.topic_persistence < 1.0);
    }

    #[test]
    fn paper_scale_matches_headline_counts() {
        assert_eq!(PopulationConfig::paper_scale().num_users, 1329);
        assert!(WorldConfig::paper_scale().total_hosts() >= 470_000);
    }
}
