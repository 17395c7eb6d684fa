//! End-to-end replay conformance: the committed golden snapshots under
//! `tests/golden/` — one per `GoldenSchedule` (replay, update, defense)
//! per seed — must be reproduced **byte-identically** across the full
//! execution matrix: {1, 4} serving lanes × {1, 4} profiling threads.
//!
//! The determinism contract making this possible is spelled out in
//! `src/replay.rs` (and DESIGN.md §10): the replay pins skipgram to
//! `dim = 3, threads = 1`, where the one worker claims chunks in
//! sequential epoch order, while batch profiling consumes no randomness
//! so the thread count cannot reorder float accumulation. There is no
//! kernel axis (two test names still say `_and_kernels`): at `dim = 3` the
//! SIMD kernels take their scalar tail path from element 0, and `crates/
//! embed/tests/properties.rs` pins scalar-vs-SIMD agreement at `dim = 17`.
//!
//! Regenerate goldens after an *intentional* pipeline change with:
//! `cargo run --release --bin hostprof -- replay --golden tests/golden --seed S --bless`
//! (plus `--update` / `--defense` for those schedules).

use hostprof::replay::{
    DefenseSnapshot, GoldenSchedule, ReplayOptions, ReplaySnapshot, UpdateSnapshot,
};
use std::path::Path;

const SEEDS: [u64; 3] = [1, 2, 3];

/// The committed golden of schedule `S`: its bytes and its parsed form.
fn golden<S: GoldenSchedule>(seed: u64) -> (String, S) {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"));
    let path = S::golden_path(dir, seed);
    let bytes = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} — bless with `hostprof replay --golden tests/golden \
             --seed {seed} --bless` (plus --update / --defense for those schedules)",
            path.display()
        )
    });
    let parsed = S::from_golden_json(&bytes).expect("golden parses");
    (bytes, parsed)
}

/// Every knob that may not move a snapshot: {1, 4} serving lanes × {1, 4}
/// profile threads, on each committed seed. Lane count may not shift
/// window content (streaming-equivalence contract; decoys share their
/// client's IP and therefore its lane) and batch profiling consumes no
/// randomness.
fn matches_committed_goldens<S: GoldenSchedule>() {
    for seed in SEEDS {
        let (bytes, expected) = golden::<S>(seed);
        for lanes in [1usize, 4] {
            for profile_threads in [1usize, 4] {
                let opts = ReplayOptions {
                    seed,
                    profile_threads,
                    perturb_embedding: None,
                };
                let knobs = format!(
                    "{} seed {seed}, lanes {lanes}, threads {profile_threads}",
                    S::STEM
                );
                let snapshot = S::run(&opts, lanes).expect("schedule runs");
                let diffs = expected.diff(&snapshot);
                assert!(diffs.is_empty(), "{knobs} diverged:\n{}", diffs.join("\n"));
                // Byte-identity is stronger than structural equality:
                // the serialized form must match the committed file
                // exactly, proving float formatting is stable too.
                assert_eq!(
                    snapshot.to_golden_json().expect("serializes"),
                    bytes,
                    "{knobs}: snapshot JSON differs from committed golden bytes"
                );
            }
        }
    }
}

#[test]
fn replay_matches_committed_goldens_across_the_full_matrix() {
    matches_committed_goldens::<ReplaySnapshot>();
}

#[test]
fn update_schedule_matches_committed_goldens_across_lanes_and_kernels() {
    matches_committed_goldens::<UpdateSnapshot>();
}

#[test]
fn defense_schedule_matches_committed_goldens_across_lanes_and_kernels() {
    matches_committed_goldens::<DefenseSnapshot>();
}

#[test]
fn update_schedule_goldens_are_seed_sensitive_and_show_growth() {
    let g1 = golden::<UpdateSnapshot>(1).1;
    let g2 = golden::<UpdateSnapshot>(2).1;
    assert_ne!(g1.stages.base_model, g2.stages.base_model);
    assert_ne!(g1.stages.serve_post, g2.stages.serve_post);
    for g in [&g1, &g2] {
        assert!(
            g.appended_tokens > 0,
            "seed {}: day-1 harvest grew nothing — the schedule has no signal",
            g.seed
        );
        assert_eq!(g.grown_vocab, g.base_vocab + g.appended_tokens);
        assert_ne!(
            g.stages.base_model, g.stages.grown_model,
            "update left the model digest unchanged"
        );
    }
}

#[test]
fn defense_schedule_goldens_pin_identity_and_degradation() {
    for seed in SEEDS {
        let g = golden::<DefenseSnapshot>(seed).1;
        let baseline = &g.cases[0];
        assert_eq!(baseline.name, "baseline", "seed {seed}");
        let identity = &g.cases[1];
        assert_eq!(identity.name, "identity_ech0", "seed {seed}");
        // The committed bytes themselves must witness the identity
        // invariant: the defended path at ech@0 is the undefended
        // pipeline, digest for digest.
        assert_eq!(baseline.observed, identity.observed, "seed {seed}");
        assert_eq!(baseline.model, identity.model, "seed {seed}");
        assert_eq!(baseline.serve, identity.serve, "seed {seed}");
        // And every real defense must visibly move the observed stage.
        for case in &g.cases[2..] {
            assert_ne!(
                case.observed, baseline.observed,
                "seed {seed}: case {} is a silent no-op",
                case.name
            );
        }
    }
}

#[test]
fn defense_schedule_goldens_are_seed_sensitive() {
    let g1 = golden::<DefenseSnapshot>(1).1;
    let g2 = golden::<DefenseSnapshot>(2).1;
    for (c1, c2) in g1.cases.iter().zip(&g2.cases) {
        assert_eq!(c1.name, c2.name);
        assert_ne!(
            c1.observed, c2.observed,
            "case {}: seed did not move the observed digest",
            c1.name
        );
    }
}

#[test]
fn replay_snapshots_are_seed_sensitive() {
    let golden_1 = golden::<ReplaySnapshot>(1).1;
    let golden_2 = golden::<ReplaySnapshot>(2).1;
    assert_ne!(golden_1.stages.trace, golden_2.stages.trace);
    assert_ne!(golden_1.stages.model, golden_2.stages.model);
    assert_ne!(golden_1.stages.ctr, golden_2.stages.ctr);
}

#[test]
fn single_weight_perturbation_fails_with_model_stage_attribution() {
    // ISSUE acceptance: nudging one embedding weight by 1e-3 must fail
    // conformance, and the first reported diff must finger the model
    // stage (upstream digests stay clean).
    let expected = golden::<ReplaySnapshot>(1).1;
    let mut opts = ReplayOptions::for_seed(1);
    opts.perturb_embedding = Some((5, 1e-3));
    let snapshot = ReplaySnapshot::run(&opts, 1).expect("replay runs");
    let diffs = expected.diff(&snapshot);
    assert!(!diffs.is_empty(), "perturbation went undetected");
    assert!(
        diffs[0].starts_with("stage model:"),
        "first diff should attribute the model stage, got: {}",
        diffs[0]
    );
    assert_eq!(expected.stages.trace, snapshot.stages.trace);
    assert_eq!(expected.stages.observed, snapshot.stages.observed);
    assert_eq!(expected.stages.sessions, snapshot.stages.sessions);
    assert_ne!(expected.stages.model, snapshot.stages.model);
}
