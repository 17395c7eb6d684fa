//! Schema validation for the committed E9 artifact,
//! `results/bench_defense.json`: a field rename or unit change cannot
//! silently rot the committed curves (or the README/EXPERIMENTS tables
//! derived from them). The degradation rules the curves obey — identity
//! points, monotone recovery, metric ranges — are E9's claims in
//! `hostprof::experiments`; `tests/fidelity.rs` holds this file to them.

use serde::Deserialize;

#[derive(Deserialize)]
struct DefenseBench {
    scale: String,
    users: usize,
    days: u32,
    plan_seed: u64,
    with_ctr: bool,
    curves: Vec<DefenseCurveRow>,
}

/// A point's ten fields are each read, by name and as a number or a flag,
/// by E9's claims.
#[derive(Deserialize)]
struct DefenseCurveRow {
    defense: String,
    points: Vec<serde_json::Value>,
}

#[test]
fn bench_defense_json_matches_schema() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/bench_defense.json");
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let b: DefenseBench = serde_json::from_str(&json).expect("schema drifted");
    // The committed artifact is a real run, not the CI smoke tier.
    assert_eq!(b.scale, "small");
    assert!(b.users > 0);
    assert!(b.days >= 3, "needs training days plus paired ad days");
    assert!(b.plan_seed > 0, "seeded run must record its plan seed");
    assert!(
        b.with_ctr,
        "committed curves must include the CTR experiment"
    );
    // All six defenses, once each, swept over at least 5 intensities.
    let swept: Vec<&str> = b.curves.iter().map(|c| c.defense.as_str()).collect();
    assert_eq!(swept, hostprof::defend::DEFENSE_NAMES);
    for c in &b.curves {
        assert!(
            c.points.len() >= 5,
            "{}: only {} sweep points",
            c.defense,
            c.points.len()
        );
    }
}
