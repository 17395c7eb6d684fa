//! # hostprof-bench
//!
//! The paper reproduction: one binary per paper figure / in-text result
//! (see `DESIGN.md` §4 for the experiment index). Speed is measured in
//! one place only, the harness under `benchmark/`.
//!
//! Every binary:
//!
//! * honors `HOSTPROF_SCALE` = `tiny` | `small` | `default` (default:
//!   `small`; the names are `ScenarioConfig::named`'s) so the same code
//!   runs in seconds for smoke tests and at full scale for the recorded
//!   results;
//! * prints a human-readable report that mirrors what the paper's figure
//!   or table shows;
//! * writes machine-readable JSON to `results/<experiment>.json` so
//!   `EXPERIMENTS.md` numbers are regenerable.

pub mod chart;

use hostprof::scenario::ScenarioConfig;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// A named scenario scale: `tiny` for seconds-fast smoke runs, `small`
/// for the recorded EXPERIMENTS.md runs, `default` for the full
/// laptop-scale model of the paper's deployment.
#[derive(Debug, Clone)]
pub struct Scale {
    name: String,
    config: ScenarioConfig,
}

impl Scale {
    /// The scale `ScenarioConfig::named` knows as `name`.
    pub fn named(name: &str) -> Result<Self, String> {
        Ok(Self {
            name: name.to_string(),
            config: ScenarioConfig::named(name)?,
        })
    }

    /// Read `HOSTPROF_SCALE`; unset or unknown means `small`.
    pub fn from_env() -> Self {
        std::env::var("HOSTPROF_SCALE")
            .ok()
            .and_then(|name| Self::named(&name).ok())
            .unwrap_or_else(|| Self::named("small").expect("small is a preset"))
    }

    /// The scenario configuration for this scale.
    pub fn scenario(&self) -> ScenarioConfig {
        self.config.clone()
    }

    /// Human label for reports.
    pub fn label(&self) -> &str {
        &self.name
    }
}

/// High-water mark of this process's resident set from the kernel's
/// accounting (`VmHWM`, kB); 0 where `/proc` is unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Write an experiment's JSON record to `results/<name>.json` (created
/// next to the workspace root; best effort — printing is the primary
/// output).
pub fn write_results<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    write_results_at(&dir.join(format!("{name}.json")), value);
}

/// [`write_results`] to an explicit path.
pub fn write_results_at<T: Serialize>(path: &Path, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("\n[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize results: {e}"),
    }
}

fn results_dir() -> PathBuf {
    // The workspace root is two levels up from this crate at build time,
    // but binaries run from arbitrary cwd; prefer CARGO_MANIFEST_DIR's
    // grandparent and fall back to ./results.
    let from_manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.join("results"));
    from_manifest.unwrap_or_else(|| PathBuf::from("results"))
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Print a `label: value` row with aligned columns.
pub fn row(label: &str, value: impl std::fmt::Display) {
    println!("  {label:<44} {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_values() {
        // from_env reads the process env; just check the mapping logic via
        // scenario shapes.
        let days = |name| Scale::named(name).unwrap().scenario().trace.days;
        assert_eq!(days("tiny"), 2);
        assert_eq!(days("small"), 12);
        assert_eq!(days("default"), 30);
        assert!(Scale::named("huge").is_err());
    }

    #[test]
    fn results_dir_is_stable() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }
}
