//! End-to-end replay conformance: the committed golden snapshots under
//! `tests/golden/` must be reproduced **byte-identically** across the
//! full execution matrix — {1, 4} profiling threads × {scalar, simd}
//! kernels — on each seed.
//!
//! The determinism contract making this possible is spelled out in
//! `src/replay.rs` (and DESIGN.md §10): the replay pins skipgram to
//! `dim = 3, threads = 1`, where the SIMD kernels take their scalar
//! tail path from element 0 and the one worker claims chunks in
//! sequential epoch order, while batch profiling consumes no randomness
//! so the thread count cannot reorder float accumulation.
//!
//! Regenerate goldens after an *intentional* pipeline change with:
//! `cargo run --release --bin hostprof -- replay --golden tests/golden --seed S --bless`

use hostprof::embed::KernelChoice;
use hostprof::replay::{
    compare_defense_snapshots, compare_snapshots, compare_update_snapshots, defense_golden_path,
    from_defense_golden_json, from_golden_json, from_update_golden_json, golden_path,
    run_defense_replay, run_replay, run_update_replay, to_defense_golden_json, to_golden_json,
    to_update_golden_json, update_golden_path, ReplayOptions,
};
use std::path::Path;

const SEEDS: [u64; 3] = [1, 2, 3];

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

fn read_golden(seed: u64) -> String {
    let path = golden_path(golden_dir(), seed);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} — bless with `hostprof replay --golden tests/golden --seed {seed} --bless`",
            path.display()
        )
    })
}

#[test]
fn replay_matches_committed_goldens_across_the_full_matrix() {
    for seed in SEEDS {
        let golden = read_golden(seed);
        let expected = from_golden_json(&golden).expect("golden parses");
        for threads in [1usize, 4] {
            for kernel in [KernelChoice::Scalar, KernelChoice::Simd] {
                let opts = ReplayOptions {
                    seed,
                    profile_threads: threads,
                    kernel,
                    perturb_embedding: None,
                };
                let snapshot = run_replay(&opts).expect("replay runs");
                let diffs = compare_snapshots(&expected, &snapshot);
                assert!(
                    diffs.is_empty(),
                    "seed {seed}, threads {threads}, {kernel:?} diverged:\n{}",
                    diffs.join("\n")
                );
                // Byte-identity is stronger than structural equality:
                // the serialized form must match the committed file
                // exactly, proving float formatting is stable too.
                assert_eq!(
                    to_golden_json(&snapshot).expect("serializes"),
                    golden,
                    "seed {seed}, threads {threads}, {kernel:?}: \
                     snapshot JSON differs from committed golden bytes"
                );
            }
        }
    }
}

fn read_update_golden(seed: u64) -> String {
    let path = update_golden_path(golden_dir(), seed);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} — bless with `hostprof replay --golden tests/golden \
             --seed {seed} --update --bless`",
            path.display()
        )
    })
}

#[test]
fn update_schedule_matches_committed_goldens_across_lanes_and_kernels() {
    // ISSUE acceptance: the {train → serve → incremental-update → serve}
    // schedule replays byte-identically across {1, 4} serving lanes ×
    // {scalar, simd} kernels on each committed seed. Lane count may not
    // shift window content (streaming-equivalence contract) and the
    // kernels share the scalar tail path at the replay's dim = 3.
    for seed in SEEDS {
        let golden = read_update_golden(seed);
        let expected = from_update_golden_json(&golden).expect("update golden parses");
        for lanes in [1usize, 4] {
            for kernel in [KernelChoice::Scalar, KernelChoice::Simd] {
                let opts = ReplayOptions {
                    seed,
                    profile_threads: 1,
                    kernel,
                    perturb_embedding: None,
                };
                let snapshot = run_update_replay(&opts, lanes).expect("update replay runs");
                let diffs = compare_update_snapshots(&expected, &snapshot);
                assert!(
                    diffs.is_empty(),
                    "seed {seed}, lanes {lanes}, {kernel:?} diverged:\n{}",
                    diffs.join("\n")
                );
                assert_eq!(
                    to_update_golden_json(&snapshot).expect("serializes"),
                    golden,
                    "seed {seed}, lanes {lanes}, {kernel:?}: snapshot JSON differs \
                     from committed golden bytes"
                );
            }
        }
    }
}

#[test]
fn update_schedule_goldens_are_seed_sensitive_and_show_growth() {
    let g1 = from_update_golden_json(&read_update_golden(1)).expect("parses");
    let g2 = from_update_golden_json(&read_update_golden(2)).expect("parses");
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

fn read_defense_golden(seed: u64) -> String {
    let path = defense_golden_path(golden_dir(), seed);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} — bless with `hostprof replay --golden tests/golden \
             --seed {seed} --defense --bless`",
            path.display()
        )
    })
}

#[test]
fn defense_schedule_matches_committed_goldens_across_lanes_and_kernels() {
    // ISSUE acceptance: defended replay schedules are byte-identical
    // across {1, 4} serving lanes × {scalar, simd} kernels on each
    // committed seed. Decoy packets share their client's IP — and
    // therefore its lane — so lane count cannot reorder any per-client
    // window, defended or not.
    for seed in SEEDS {
        let golden = read_defense_golden(seed);
        let expected = from_defense_golden_json(&golden).expect("defense golden parses");
        for lanes in [1usize, 4] {
            for kernel in [KernelChoice::Scalar, KernelChoice::Simd] {
                let opts = ReplayOptions {
                    seed,
                    profile_threads: 1,
                    kernel,
                    perturb_embedding: None,
                };
                let snapshot = run_defense_replay(&opts, lanes).expect("defense replay runs");
                let diffs = compare_defense_snapshots(&expected, &snapshot);
                assert!(
                    diffs.is_empty(),
                    "seed {seed}, lanes {lanes}, {kernel:?} diverged:\n{}",
                    diffs.join("\n")
                );
                assert_eq!(
                    to_defense_golden_json(&snapshot).expect("serializes"),
                    golden,
                    "seed {seed}, lanes {lanes}, {kernel:?}: snapshot JSON differs \
                     from committed golden bytes"
                );
            }
        }
    }
}

#[test]
fn defense_schedule_goldens_pin_identity_and_degradation() {
    for seed in SEEDS {
        let g = from_defense_golden_json(&read_defense_golden(seed)).expect("parses");
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
    let g1 = from_defense_golden_json(&read_defense_golden(1)).expect("parses");
    let g2 = from_defense_golden_json(&read_defense_golden(2)).expect("parses");
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
    let golden_1 = from_golden_json(&read_golden(1)).expect("golden parses");
    let golden_2 = from_golden_json(&read_golden(2)).expect("golden parses");
    assert_ne!(golden_1.stages.trace, golden_2.stages.trace);
    assert_ne!(golden_1.stages.model, golden_2.stages.model);
    assert_ne!(golden_1.stages.ctr, golden_2.stages.ctr);
}

#[test]
fn single_weight_perturbation_fails_with_model_stage_attribution() {
    // ISSUE acceptance: nudging one embedding weight by 1e-3 must fail
    // conformance, and the first reported diff must finger the model
    // stage (upstream digests stay clean).
    let expected = from_golden_json(&read_golden(1)).expect("golden parses");
    let mut opts = ReplayOptions::for_seed(1);
    opts.perturb_embedding = Some((5, 1e-3));
    let snapshot = run_replay(&opts).expect("replay runs");
    let diffs = compare_snapshots(&expected, &snapshot);
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
