//! # hostprof
//!
//! A full reproduction of *User Profiling by Network Observers*
//! (Gonzalez et al., CoNEXT 2021) as a Rust workspace, built on synthetic
//! substitutes for the paper's proprietary inputs (see `DESIGN.md`).
//!
//! The pipeline, end to end:
//!
//! ```text
//! synthetic web + users  ──►  browsing trace  ──►  wire packets (TLS/QUIC/DNS)
//!        (hostprof-synth)        (hostprof-synth)        (hostprof-net)
//!                                                            │ passive SNI observer
//!                                                            ▼
//!                       per-user hostname sequences ──► SKIPGRAM embeddings
//!                                                          (hostprof-embed)
//!                                                            │ Eq. 3–4
//!                                                            ▼
//!            ads + clicks + CTR  ◄──  session category profiles
//!              (hostprof-ads)             (hostprof-core)
//! ```
//!
//! This facade crate re-exports the sub-crates, bundles them into runnable
//! [`scenario::Scenario`]s, and provides the [`bridge`] that drives the
//! byte-level network observer from a synthetic trace.
//!
//! # Quickstart
//!
//! ```
//! use hostprof::scenario::{Scenario, ScenarioConfig};
//! use hostprof::profiling::Session;
//!
//! // A miniature world, population and 2-day trace.
//! let s = Scenario::generate(&ScenarioConfig::tiny());
//! // Train a model on day 0 and profile a session from day 1.
//! let pipeline = s.pipeline();
//! let embeddings = pipeline
//!     .train_model(&s.daily_hostname_sequences(0))
//!     .expect("day 0 has traffic");
//! let profiler = pipeline.profiler(&embeddings, s.world.ontology());
//! let user = s.population.users()[0].id;
//! let window = s.session_hostnames(user, 1);
//! let session = Session::from_window(
//!     window.iter().map(String::as_str),
//!     Some(pipeline.blocklist()),
//! );
//! if let Some(profile) = profiler.profile(&session) {
//!     assert!(!profile.categories.is_empty());
//! }
//! ```

pub use hostprof_ads as ads;
pub use hostprof_core as profiling;
pub use hostprof_defense as defense;
pub use hostprof_embed as embed;
pub use hostprof_net as net;
pub use hostprof_ontology as ontology;
pub use hostprof_stats as stats;
pub use hostprof_synth as synth;

pub mod bridge;
mod chart;
pub mod defend;
pub mod experiments;
pub mod replay;
pub mod scenario;
pub mod serving;
pub mod storage;

pub use bridge::{ObservedTrace, ObserverScenario};
pub use defend::{CurvePoint, DefenseCurve, DefenseEvaluator};
pub use replay::{ReplayOptions, ReplaySnapshot};
pub use scenario::{Scenario, ScenarioConfig};
pub use serving::{run_live, LiveRunConfig, LiveRunReport};
pub use storage::{load_model, save_model, StorageError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_values() {
        // One parser behind every `--scale`: the experiment table's context
        // takes the names `ScenarioConfig::named` does.
        let days = |name| ScenarioConfig::named(name).unwrap().trace.days;
        assert_eq!(days("tiny"), 2);
        assert_eq!(days("small"), 12);
        assert_eq!(days("default"), 30);
        assert!(experiments::Context::new("tiny").is_ok());
        assert!(experiments::Context::new("huge").is_err());
    }

    #[test]
    fn results_dir_is_stable() {
        // The runner writes under `--out` and nowhere else: not without
        // it, and never to the committed `results/<name>.json`.
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/results/coverage_stats.json");
        let before = std::fs::read(committed).unwrap();
        let out = std::env::temp_dir().join(format!("hostprof-out-{}", std::process::id()));
        let rows = experiments::select("E6").unwrap();
        experiments::run(&rows, "tiny", None).unwrap();
        assert!(!out.exists(), "nothing is written without --out");
        experiments::run(&rows, "tiny", Some(&out)).unwrap();
        let files = std::fs::read_dir(&out).unwrap();
        let written: Vec<_> = files.map(|f| f.unwrap().file_name()).collect();
        assert_eq!(written, ["coverage_stats.json"], "one row, one file");
        let json = std::fs::read(out.join("coverage_stats.json")).unwrap();
        assert!(json.starts_with(b"{\n  \"scale\": \"tiny\""));
        std::fs::remove_dir_all(&out).unwrap();
        assert_eq!(std::fs::read(committed).unwrap(), before);
    }
}
