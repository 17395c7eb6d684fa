//! End-to-end tests of the `hostprof` CLI binary.
//!
//! Uses `CARGO_BIN_EXE_hostprof` (provided by Cargo for integration tests)
//! to drive the real executable through the train → query → profile →
//! observe → replay workflow.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hostprof(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hostprof"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hostprof-cli-{}-{name}", std::process::id()))
}

#[test]
fn help_and_unknown_commands() {
    let out = hostprof(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));

    let out = hostprof(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = hostprof(&[]);
    assert!(!out.status.success());
}

#[test]
fn train_similar_profile_workflow() {
    let model = temp("model.hpflat");
    let out = hostprof(&["train", "--scale", "tiny", "--out", model.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("trained"));
    assert!(model.exists());

    // Query similarity for a core host every trace contains.
    let out = hostprof(&[
        "similar",
        "--model",
        model.to_str().unwrap(),
        "--host",
        "socialbook.com",
        "--top",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.lines().count() >= 3, "{text}");

    // An unknown hostname is a clean error.
    let out = hostprof(&[
        "similar",
        "--model",
        model.to_str().unwrap(),
        "--host",
        "never-seen.example",
    ]);
    assert!(!out.status.success());

    // Profile a user from the same deterministic scenario.
    let out = hostprof(&[
        "profile",
        "--scale",
        "tiny",
        "--model",
        model.to_str().unwrap(),
        "--user",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("ground-truth cosine"));

    // Out-of-range user is a clean error.
    let out = hostprof(&[
        "profile",
        "--scale",
        "tiny",
        "--model",
        model.to_str().unwrap(),
        "--user",
        "99999",
    ]);
    assert!(!out.status.success());

    // The same profile through the IVF index: must run and say so.
    let out = hostprof(&[
        "profile",
        "--scale",
        "tiny",
        "--model",
        model.to_str().unwrap(),
        "--user",
        "0",
        "--index",
        "ivf",
        "--nprobe",
        "4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("(ivf knn)"), "{text}");
    assert!(text.contains("ground-truth cosine"), "{text}");

    // --nprobe without --index ivf, and a bogus index name, fail cleanly.
    let out = hostprof(&[
        "profile",
        "--scale",
        "tiny",
        "--model",
        model.to_str().unwrap(),
        "--user",
        "0",
        "--nprobe",
        "4",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--index ivf"));
    let out = hostprof(&[
        "profile",
        "--scale",
        "tiny",
        "--model",
        model.to_str().unwrap(),
        "--user",
        "0",
        "--index",
        "annoy",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown index"));

    // A cut model and a JSON model from an older build fail cleanly.
    let bytes = std::fs::read(&model).unwrap();
    let json = br#"{"dim":2,"vocab":{}}"#;
    for (contents, complaint) in [(&bytes[..40], "truncated"), (json, "bad magic")] {
        std::fs::write(&model, contents).unwrap();
        let path = model.to_str().unwrap();
        let out = hostprof(&["similar", "--model", path, "--host", "socialbook.com"]);
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(err.contains(complaint), "{err}");
    }

    let _ = std::fs::remove_file(model);
}

#[test]
fn observe_save_replay_roundtrip() {
    let cap = temp("capture.hpcap");
    let out = hostprof(&[
        "observe",
        "--scale",
        "tiny",
        "--days",
        "1",
        "--users",
        "5",
        "--save",
        cap.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let live = stdout(&out);
    assert!(live.contains("hostnames recovered   : 100.0%"), "{live}");
    assert!(cap.exists());

    let out = hostprof(&["replay", "--capture", cap.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replayed = stdout(&out);
    assert!(replayed.contains("clients seen"), "{replayed}");
    let _ = std::fs::remove_file(cap);
}

#[test]
fn unknown_options_fail_loudly() {
    let out = hostprof(&["train", "--scael", "tiny", "--out", "/tmp/never.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --scael"));

    // The chaos sweep once had a parser of its own, in which a typo'd flag
    // or count ran the default window and exited 0.
    for (args, complaint) in [
        (["chaos", "--sedes", "4"], "unknown option --sedes"),
        (["chaos", "--seeds", "abc"], "invalid value for --seeds"),
    ] {
        let out = hostprof(&args);
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!out.status.success(), "{args:?}");
        assert!(err.contains(complaint), "{args:?}: {err}");
    }
}

#[test]
fn chaos_sweeps_all_four_properties() {
    let out = hostprof(&["chaos", "--seeds", "4", "--seed-base", "7"]);
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("4 seeds from 7"), "{text}");
    for property in ["(a) ", "(b) ", "(c) ", "(d) "] {
        let line = text.lines().find(|l| l.trim_start().starts_with(property));
        let line = line.unwrap_or_else(|| panic!("no property {property}in:\n{text}"));
        assert!(line.contains("holds"), "{line}");
    }
}

#[test]
fn flags_are_held_to_their_arity() {
    // A boolean flag used to swallow a following bare token and then read
    // as unset: `observe --dns 1` harvested no DNS, and `replay --golden
    // DIR --update 1` checked (and with --bless rewrote) the wrong schedule.
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    for (args, flag) in [
        (&["observe", "--dns", "1"][..], "--dns"),
        (&["replay", "--golden", golden, "--update", "1"], "--update"),
        (
            &["replay", "--golden", golden, "--defense", "1"],
            "--defense",
        ),
        (&["replay", "--golden", golden, "--bless", "1"], "--bless"),
        (&["defend", "--no-ctr", "1"], "--no-ctr"),
        (&["chaos", "--gen-vectors", "3"], "--gen-vectors"),
    ] {
        let out = hostprof(args);
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!out.status.success(), "{args:?}");
        assert!(err.contains(&format!("{flag} takes no value")), "{err}");
    }
    // And a value flag followed by another flag still says what it lacks.
    let out = hostprof(&["serve", "--scale", "tiny", "--pps", "--lanes", "2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--pps requires a value"));
    let out = hostprof(&["chaos", "--seeds"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seeds requires a value"));
}

#[test]
fn help_lists_every_flag_each_command_accepts() {
    // Parser and `hostprof help` read one table; the unknown-option error
    // prints the row's flags, and each must appear in that command's help.
    let help = stdout(&hostprof(&["help"]));
    for mode in [
        &["train"][..],
        &["similar"],
        &["profile"],
        &["observe"],
        &["replay", "--capture", "x"],
        &["replay", "--golden", "x"],
        &["defend"],
        &["serve"],
        &["serve", "--golden", "x"],
        &["experiment"],
        &["chaos"],
        &["chaos", "--gen-vectors"],
    ] {
        // The command's USAGE entries: its `hostprof <cmd>` lines plus
        // their indented continuations.
        let mut usage = String::new();
        let mut mine = false;
        for line in help.lines() {
            if let Some(entry) = line.strip_prefix("  hostprof ") {
                mine = entry.split_whitespace().next() == Some(mode[0]);
            }
            if mine {
                usage.push_str(line);
                usage.push('\n');
            }
        }
        let out = hostprof(&[mode, &["--no-such-flag"]].concat());
        assert!(!out.status.success(), "{mode:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        let accepted = err
            .split_once("expected one of: ")
            .unwrap_or_else(|| panic!("{mode:?}: no flag list in: {err}"))
            .1;
        let accepted = accepted.split(')').next().unwrap();
        for flag in accepted.split(", ") {
            assert!(flag.starts_with("--"), "{mode:?}: odd flag '{flag}'");
            // Match `--flag` followed by a non-name character, so `--seed`
            // does not hide behind `--seed-base`-style neighbours.
            let listed = usage.match_indices(flag).any(|(i, _)| {
                !usage[i + flag.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '-')
            });
            assert!(
                listed,
                "{mode:?} accepts {flag} but USAGE omits it:\n{usage}"
            );
        }
    }
}

#[test]
fn experiment_runs_table_rows_checks_claims_and_gates_rss() {
    let out = temp("results");
    let run = hostprof(&[
        "experiment",
        "--id",
        "E6,E1",
        "--out",
        out.to_str().unwrap(),
    ]);
    let text = stdout(&run);
    assert!(run.status.success(), "{text}");
    for expected in [
        "=== E6 · §4 / §5.4",
        "CCDF — % of users",
        "— ok",
        "— known deviation (",
    ] {
        assert!(text.contains(expected), "no '{expected}' in:\n{text}");
    }
    // Peak RSS is a measurement: stderr, never stdout.
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("peak RSS: "), "{err}");
    assert!(!text.contains("peak RSS"), "{text}");
    assert!(out.join("fig2_user_diversity.json").is_file());
    let _ = std::fs::remove_dir_all(&out);

    let stderr = |args: &[&str]| {
        let out = hostprof(args);
        assert!(!out.status.success(), "{args:?}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let gated = stderr(&["experiment", "--id", "E6", "--max-rss-mb", "1"]);
    assert!(gated.contains("breached --max-rss-mb 1"), "{gated}");
    let unknown = stderr(&["experiment", "--id", "E0"]);
    assert!(unknown.contains("unknown experiment 'E0'"), "{unknown}");
}

#[test]
fn serve_live_smoke() {
    let out = hostprof(&[
        "serve",
        "--scale",
        "tiny",
        "--users",
        "8",
        "--pps",
        "300",
        "--duration",
        "1200",
        "--lanes",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("packets ingested"), "{text}");
    assert!(text.contains("report latency"), "{text}");
    assert!(text.contains("sustained ingest"), "{text}");

    // Flag errors are loud, not silent defaults.
    let out = hostprof(&["serve", "--scale", "tiny", "--bogus", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --bogus"));
    let out = hostprof(&["serve", "--scale", "tiny", "--pps", "not-a-number"]);
    assert!(!out.status.success());
}

#[test]
fn serve_golden_streaming_conformance() {
    // The streaming path must reproduce the batch-blessed goldens; 4
    // lanes exercises the sharded ingest merge.
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let out = hostprof(&["serve", "--golden", golden, "--seed", "1", "--lanes", "4"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("bit-identical"), "{}", stdout(&out));

    // A missing golden is a clean error pointing at the blessing flow.
    let out = hostprof(&["serve", "--golden", golden, "--seed", "424242"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bless"));
}

#[test]
fn observe_with_countermeasures() {
    let out = hostprof(&[
        "observe", "--scale", "tiny", "--days", "1", "--users", "5", "--ech", "1.0",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("hostnames recovered   : 0.0%"));

    let out = hostprof(&[
        "observe", "--scale", "tiny", "--days", "1", "--users", "6", "--nat", "3",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("client addresses seen : 2"));
}
