//! Schema validation for the committed E9 artifact,
//! `results/bench_defense.json`. The binary serializes it by hand-rolled
//! struct; this test pins the contract so a field rename or unit change
//! can't silently rot the committed curves (or the README/EXPERIMENTS
//! tables derived from them).

use serde::Deserialize;

#[derive(Deserialize)]
struct DefenseBench {
    scale: String,
    smoke: bool,
    users: usize,
    days: u32,
    plan_seed: u64,
    with_ctr: bool,
    peak_rss_kb: u64,
    rss_gate_mb: Option<u64>,
    rss_gate_ok: bool,
    curves: Vec<DefenseCurveRow>,
}

#[derive(Deserialize)]
struct DefenseCurveRow {
    defense: String,
    points: Vec<DefensePointRow>,
}

#[derive(Deserialize)]
struct DefensePointRow {
    intensity: f64,
    recovery_pct: f64,
    purity: f64,
    divergence: f64,
    mean_accuracy: f64,
    sessions_profiled: usize,
    eaves_ctr: f64,
    orig_ctr: f64,
    ctr_gap: f64,
    identity_bit_equal: Option<bool>,
}

/// Deterministic flow-collision jitter: extra cover flows shift the
/// synthesizer's ephemeral-port stream, occasionally colliding two real
/// flows into one observation. Recovery can therefore dip ~0.01 pp at a
/// *milder* intensity than a harsher one; anything beyond this epsilon
/// is a real monotonicity break.
const RECOVERY_EPSILON_PP: f64 = 0.05;

#[test]
fn bench_defense_json_matches_schema() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/bench_defense.json");
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let b: DefenseBench = serde_json::from_str(&json).expect("schema drifted");
    assert!(!b.scale.is_empty());
    // The committed artifact is a real run, not the CI smoke tier.
    assert!(!b.smoke, "committed bench_defense must not be a smoke run");
    assert!(b.users > 0);
    assert!(b.days >= 3, "needs training days plus paired ad days");
    assert!(b.plan_seed > 0, "seeded run must record its plan seed");
    assert!(
        b.with_ctr,
        "committed curves must include the CTR experiment"
    );

    // The acceptance floor: at least 4 defenses, each swept over at
    // least 5 intensities (identity point first).
    assert!(
        b.curves.len() >= 4,
        "only {} defense curves committed",
        b.curves.len()
    );
    let known = ["ech", "dummy", "pad_constant", "pad_adaptive", "nat", "doh"];
    let mut seen: Vec<&str> = Vec::new();
    for c in &b.curves {
        assert!(
            known.contains(&c.defense.as_str()),
            "unknown defense {:?}",
            c.defense
        );
        assert!(
            !seen.contains(&c.defense.as_str()),
            "duplicate curve for {:?}",
            c.defense
        );
        seen.push(&c.defense);
        assert!(
            c.points.len() >= 5,
            "{}: only {} sweep points",
            c.defense,
            c.points.len()
        );

        // Identity point: first in the sweep, flagged, and bit-equal to
        // the undefended pipeline (the invariant the golden replays and
        // oracle proptests pin — here we pin that the committed numbers
        // actually carry it).
        let id = &c.points[0];
        assert_eq!(
            id.identity_bit_equal,
            Some(true),
            "{}: identity point diverged from the undefended baseline",
            c.defense
        );
        // The undefended baseline itself sits a hair under 100 %
        // (deterministic ephemeral-port collisions merge a few real
        // flows); the identity point must match it, not beat it.
        assert!(
            id.recovery_pct > 99.9,
            "{}: identity recovery {}",
            c.defense,
            id.recovery_pct
        );
        assert!(
            id.divergence < 1e-6,
            "{}: identity profile divergence {}",
            c.defense,
            id.divergence
        );
        assert!(
            id.sessions_profiled > 0,
            "{}: identity profiled nobody",
            c.defense
        );

        for (i, p) in c.points.iter().enumerate() {
            if i > 0 {
                assert!(
                    p.intensity > c.points[i - 1].intensity,
                    "{}: sweep must ascend",
                    c.defense
                );
                assert!(
                    p.identity_bit_equal.is_none(),
                    "{}: non-identity point {} carries an identity flag",
                    c.defense,
                    p.intensity
                );
                // The degradation contract: turning a defense up never
                // helps the eavesdropper recover more of the wire.
                assert!(
                    p.recovery_pct <= c.points[i - 1].recovery_pct + RECOVERY_EPSILON_PP,
                    "{}: recovery rose {} -> {} at intensity {}",
                    c.defense,
                    c.points[i - 1].recovery_pct,
                    p.recovery_pct,
                    p.intensity
                );
            }
            assert!(
                (0.0..=100.0).contains(&p.recovery_pct),
                "{}: recovery {} out of range",
                c.defense,
                p.recovery_pct
            );
            assert!((0.0..=1.0).contains(&p.purity));
            // 1 − cosine over non-negative Eq. 3/4 profiles.
            assert!((0.0..=1.0 + 1e-9).contains(&p.divergence));
            assert!((0.0..=1.0).contains(&p.mean_accuracy));
            assert!(
                (p.ctr_gap - (p.eaves_ctr - p.orig_ctr)).abs() < 1e-12,
                "{}: ctr_gap is not eaves − orig",
                c.defense
            );
        }
    }
    assert!(b.peak_rss_kb > 0, "VmHWM must be readable where this runs");
    if let Some(mb) = b.rss_gate_mb {
        assert_eq!(b.rss_gate_ok, b.peak_rss_kb <= mb * 1024);
    }
    assert!(b.rss_gate_ok, "committed run breached its own RSS gate");
}
