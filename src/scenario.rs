//! Scenario bundles: world + population + trace + ad inventory.
//!
//! Every experiment, example and integration test needs the same setup
//! dance; [`Scenario`] packages it with one preset per `--scale` name
//! ([`ScenarioConfig::named`]) so the knobs that matter (scale, days,
//! seeds) live in one place.

use hostprof_ads::AdDatabase;
use hostprof_core::{Pipeline, PipelineConfig};
use hostprof_embed::SkipGramConfig;
use hostprof_synth::{
    HostId, Population, PopulationConfig, Trace, TraceConfig, UserId, World, WorldConfig,
};
use serde::{Deserialize, Serialize};

/// All generator knobs in one place.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Hostname-universe configuration.
    pub world: WorldConfig,
    /// Population configuration.
    pub population: PopulationConfig,
    /// Trace configuration.
    pub trace: TraceConfig,
    /// Ad inventory size (paper: ~12 K after filtering).
    pub num_ads: usize,
    /// Ad-generation seed.
    pub ads_seed: u64,
    /// Profiling back-end configuration.
    pub pipeline: PipelineConfig,
}

impl Default for ScenarioConfig {
    /// The laptop-scale model of the paper's deployment, a month long (the
    /// E4/E5 experiments): 3 K+ hostnames, 400 users, 30 days, 12 K ads.
    fn default() -> Self {
        Self {
            world: WorldConfig::default(),
            population: PopulationConfig::default(),
            trace: TraceConfig::default(),
            num_ads: 12_000,
            ads_seed: 0x5eed_0ad5,
            pipeline: PipelineConfig {
                // N = 1000 was calibrated to the paper's 470 K-host space;
                // scale it to our ~9 K-host default world like the other
                // presets (DESIGN.md §4.1).
                profiler: hostprof_core::ProfilerConfig {
                    n_neighbors: 300,
                    ..Default::default()
                },
                ..PipelineConfig::default()
            },
        }
    }
}

impl ScenarioConfig {
    /// The preset a scale name selects — the one parser behind every
    /// `--scale`.
    pub fn named(scale: &str) -> Result<Self, String> {
        match scale {
            "tiny" => Ok(Self::tiny()),
            "small" => Ok(Self::small()),
            "default" | "full" => Ok(Self::default()),
            "large" => Ok(Self::large()),
            other => Err(format!(
                "unknown scale '{other}' (tiny|small|default|full|large)"
            )),
        }
    }

    /// Miniature everything: fast enough for unit/integration tests.
    pub fn tiny() -> Self {
        Self {
            world: WorldConfig::tiny(),
            population: PopulationConfig::tiny(),
            trace: TraceConfig::tiny(),
            num_ads: 600,
            pipeline: PipelineConfig {
                skipgram: SkipGramConfig {
                    dim: 24,
                    epochs: 4,
                    subsample: 0.0,
                    ..SkipGramConfig::default()
                },
                // N = 1000 assumes the paper's 470 K-host space; scale it
                // to the tiny vocabulary (~0.5 K hosts).
                profiler: hostprof_core::ProfilerConfig {
                    n_neighbors: 50,
                    ..Default::default()
                },
                ..PipelineConfig::default()
            },
            ..Self::default()
        }
    }

    /// The evaluation scale the recorded EXPERIMENTS.md runs use: 200
    /// users, 12 days, ~3.7 K hostnames, 4 K ads, with the kNN size scaled
    /// to the vocabulary (DESIGN.md §4.1).
    pub fn small() -> Self {
        Self {
            world: WorldConfig {
                num_sites: 1200,
                num_cdns: 900,
                num_apis: 1300,
                num_trackers: 280,
                ..WorldConfig::default()
            },
            population: PopulationConfig {
                num_users: 200,
                ..PopulationConfig::default()
            },
            trace: TraceConfig {
                days: 12,
                ..TraceConfig::default()
            },
            num_ads: 4_000,
            pipeline: PipelineConfig {
                skipgram: SkipGramConfig {
                    dim: 64,
                    epochs: 4,
                    ..SkipGramConfig::default()
                },
                profiler: hostprof_core::ProfilerConfig {
                    n_neighbors: 300,
                    ..Default::default()
                },
                ..PipelineConfig::default()
            },
            ..Self::default()
        }
    }

    /// The million-user / 10⁵-vocabulary tier (DESIGN.md §13): two days,
    /// ~103 K hostnames, 10⁶ users. The benchmark harness feeds it to the
    /// columnar streaming path (`hostprof_synth::generate_columnar`, 12
    /// bytes per request). The CLI's `--scale large` does not: every
    /// command calls [`Scenario::generate`], which materializes each
    /// request as a 24-byte struct plus the per-user index — gigabytes
    /// and minutes at this tier.
    pub fn large() -> Self {
        Self {
            world: WorldConfig::large(),
            population: PopulationConfig::large(),
            trace: TraceConfig::large(),
            num_ads: 12_000,
            pipeline: PipelineConfig {
                skipgram: SkipGramConfig {
                    dim: 64,
                    epochs: 1,
                    ..SkipGramConfig::default()
                },
                // Paper N = 1000 was calibrated against 470 K hosts; the
                // 10⁵ vocabulary is the closest tier we model, so keep it.
                // Exact scan over 10⁵ × 64 per query is what the IVF index
                // exists for — default to it at this tier.
                profiler: hostprof_core::ProfilerConfig {
                    n_neighbors: 1000,
                    index: hostprof_embed::IndexConfig::ivf(16),
                    ..Default::default()
                },
                ..PipelineConfig::default()
            },
            ..Self::default()
        }
    }
}

/// A generated scenario.
#[derive(Debug)]
pub struct Scenario {
    /// The configuration it was generated from.
    pub config: ScenarioConfig,
    /// The hostname universe.
    pub world: World,
    /// The user population.
    pub population: Population,
    /// The browsing trace.
    pub trace: Trace,
    /// The ad inventory.
    pub ads: AdDatabase,
}

impl Scenario {
    /// Generate everything. Deterministic per config.
    pub fn generate(config: &ScenarioConfig) -> Self {
        let world = World::generate(&config.world);
        let population = Population::generate(&world, &config.population);
        let trace = Trace::generate(&world, &population, &config.trace);
        let ads = AdDatabase::generate(&world, config.num_ads, config.ads_seed);
        Self {
            config: config.clone(),
            world,
            population,
            trace,
            ads,
        }
    }

    /// The profiling back-end configured for this scenario.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(self.config.pipeline.clone(), self.world.blocklist().clone())
    }

    /// One day's per-user hostname sequences (the SKIPGRAM training
    /// corpus), as owned strings.
    pub fn daily_hostname_sequences(&self, day: u32) -> Vec<Vec<String>> {
        self.trace
            .daily_sequences(day)
            .into_iter()
            .map(|(_, seq)| {
                seq.into_iter()
                    .map(|h| self.world.hostname(h).to_string())
                    .collect()
            })
            .collect()
    }

    /// The per-user hostname sequences of days `0..days`, day after day —
    /// the multi-day training corpus.
    pub fn corpus(&self, days: u32) -> Vec<Vec<String>> {
        (0..days)
            .flat_map(|day| self.daily_hostname_sequences(day))
            .collect()
    }

    /// The hostnames a user requested in the configured session window
    /// ending at their last request of `day` (empty when the user was
    /// idle).
    pub fn session_hostnames(&self, user: UserId, day: u32) -> Vec<String> {
        let window = self.session_window(user, day, self.config.pipeline.session_window_ms());
        let names = window.into_iter().map(|h| self.world.hostname(h));
        names.map(str::to_string).collect()
    }

    /// The hosts a user requested in the `window_ms` window ending at
    /// their last request inside `day` (empty when the user was idle):
    /// the one ground-truth session anchor.
    pub(crate) fn session_window(&self, user: UserId, day: u32, window_ms: u64) -> Vec<HostId> {
        use hostprof_synth::trace::DAY_MS;
        let day = day as u64 * DAY_MS..(day as u64 + 1) * DAY_MS;
        let today = self
            .trace
            .user_requests(user)
            .filter(|r| day.contains(&r.t_ms));
        let end = today.last().map(|r| r.t_ms);
        end.map_or_else(Vec::new, |end| self.trace.window(user, end, window_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scenario_is_complete_and_deterministic() {
        let a = Scenario::generate(&ScenarioConfig::tiny());
        let b = Scenario::generate(&ScenarioConfig::tiny());
        assert!(a.world.num_hosts() > 0);
        assert!(!a.population.is_empty());
        assert!(!a.trace.requests().is_empty());
        assert!(!a.ads.is_empty());
        assert_eq!(a.trace.requests(), b.trace.requests());
    }

    #[test]
    fn daily_sequences_and_sessions_are_consistent() {
        let s = Scenario::generate(&ScenarioConfig::tiny());
        let seqs = s.daily_hostname_sequences(0);
        assert!(!seqs.is_empty());
        // Find a user with day-1 activity and check their session window.
        let mut found = false;
        for u in s.population.users() {
            let sess = s.session_hostnames(u.id, 1);
            if !sess.is_empty() {
                found = true;
                assert!(sess.len() <= 400, "a 20-minute window is bounded");
                break;
            }
        }
        assert!(found, "someone browsed on day 1");
    }
}
