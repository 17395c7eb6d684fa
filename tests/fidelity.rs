//! Paper fidelity, tier-1: the experiment table of `hostprof::experiments`
//! is run, its claims are held to their recorded expectations, and the
//! committed `results/*.json` are held to the code that claims to have
//! produced them — so a generator change that moves a paper-facing number
//! fails the build that makes it.

use hostprof::experiments::{defense_report, select, Context, Experiment, EXPERIMENTS};
use hostprof::scenario::{Scenario, ScenarioConfig};
use serde_json::Value;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn committed(row: &Experiment) -> String {
    let path = results_dir().join(format!("{}.json", row.name));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every claim of `row` evaluates (a field it reads and the report lacks
/// panics) and none is off its expectation.
fn assert_claims_on_expectation(row: &Experiment, json: &Value) {
    for claim in row.claims {
        if let Err(off) = claim.check(json) {
            panic!("{} — {}: {off}", row.id, claim.text);
        }
    }
}

#[test]
fn every_row_runs_at_tiny_scale_with_every_claim_on_its_expectation() {
    let mut ctx = Context::new("tiny").unwrap();
    for row in EXPERIMENTS {
        let report = if row.id == "E9" {
            // One axis, no CTR stage: the six-axis sweep is CI's smoke step.
            let mut config = ScenarioConfig::tiny();
            config.trace.days = 3;
            defense_report(&ctx, &Scenario::generate(&config), false, &["ech"])
        } else {
            (row.run)(&mut ctx)
        };
        assert!(!report.console.is_empty(), "{} prints nothing", row.id);
        let json = report.json();
        assert_eq!(json.as_map().unwrap()[0].1.as_str(), Some("tiny"));
        assert_claims_on_expectation(row, &json);
    }
}

#[test]
fn fast_rows_reproduce_their_committed_small_scale_results_byte_for_byte() {
    let mut ctx = Context::new("small").unwrap();
    for row in select("E1,E2,E6").unwrap() {
        let fresh = serde_json::to_string_pretty(&(row.run)(&mut ctx).json()).unwrap();
        assert!(
            fresh == committed(row),
            "results/{}.json is not what {} produces today; re-record every file with \
             `hostprof experiment --id all --scale small --out results` and re-type \
             EXPERIMENTS.md from them",
            row.name,
            row.id
        );
    }
}

#[test]
fn every_committed_result_is_a_small_scale_run_of_a_row_with_its_claims_on_expectation() {
    for row in EXPERIMENTS {
        let json: Value = serde_json::from_str(&committed(row)).expect("valid JSON");
        let scale = json.as_map().unwrap()[0].1.as_str();
        assert_eq!(scale, Some("small"), "results/{}.json", row.name);
        assert_claims_on_expectation(row, &json);
    }
    let json_files = std::fs::read_dir(results_dir())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"));
    assert_eq!(
        json_files.count(),
        EXPERIMENTS.len(),
        "a result no row writes"
    );
}
