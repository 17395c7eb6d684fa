//! `bench all` and `bench aa`: every workload, each run in a child process
//! of its own so that `VmHWM` is per workload and per pass.

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::{out_dir, Args};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// What one child run printed.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: String,
    meta: Value,
    metrics: BTreeMap<String, f64>,
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Run one workload in a child and parse its two stdout lines. The child's
/// stderr (its own metric listing) is passed through.
fn child(workload: &str, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| -> Result<Value, String> {
        serde_json::from_str(line.unwrap_or("")).map_err(|e| {
            format!(
                "{workload} (exit {}): unreadable output: {e}",
                output.status
            )
        })
    };
    let result = parse(lines.next())?;
    let meta = parse(lines.next())?;
    let bad = || format!("{workload}: malformed result line");
    let metrics = field(&result, "metrics")
        .and_then(Value::as_map)
        .ok_or_else(bad)?
        .iter()
        .map(|(name, m)| Some((name.clone(), field(m, "value")?.as_f64()?)))
        .collect::<Option<BTreeMap<_, _>>>()
        .ok_or_else(bad)?;
    Ok(ChildRun {
        correct: field(&result, "correct") == Some(&Value::Bool(true)) && output.status.success(),
        attempted: field(&result, "attempted")
            .and_then(Value::as_u64)
            .ok_or_else(bad)?,
        failed: field(&result, "failed")
            .and_then(Value::as_u64)
            .ok_or_else(bad)?,
        digest: field(&meta, "meta")
            .and_then(|m| field(m, "digest"))
            .and_then(Value::as_str)
            .ok_or_else(bad)?
            .to_string(),
        meta,
        metrics,
    })
}

/// One line per metric, one column per workload.
fn print_table(title: &str, names: &[(&str, &str)], columns: &[(&str, BTreeMap<String, f64>)]) {
    println!("\n{title}");
    print!("{:<36} {:<6}", "metric", "unit");
    for (workload, _) in columns {
        print!(" {workload:>14}");
    }
    println!();
    for (name, unit) in names {
        print!("{name:<36} {unit:<6}");
        for (_, metrics) in columns {
            match metrics.get(*name) {
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// Untraced runs per workload in each of `aa`'s two sets.
const AA_RUNS: usize = 3;

/// Every workload, untraced then traced; prints every metric by name with
/// its unit and writes `out/results.json`. Failed operations are printed
/// beside the attempted ones and fail nothing here: how many there are is
/// a property of the workload and the seed (`batch-ctr` has reports with
/// no signal), and it is the comparison with another build that matters.
pub fn all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut e2e = Vec::new();
    let mut layers = Vec::new();
    let mut saved = Vec::new();
    for w in &WORKLOADS {
        eprintln!("== {}: {}", w.name, w.why);
        for trace in [false, true] {
            eprintln!("== {} (trace {})", w.name, trace as u8);
            let run = child(w.name, args, trace)?;
            ok &= run.correct;
            eprintln!(
                "== {}: correct={} failed={}/{}",
                w.name, run.correct, run.failed, run.attempted
            );
            saved.push(Value::Map(vec![
                ("run".into(), run.meta.clone()),
                ("attempted".into(), Value::U64(run.attempted)),
                ("failed".into(), Value::U64(run.failed)),
                (
                    "metrics".into(),
                    Value::Map(
                        run.metrics
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::F64(*v)))
                            .collect(),
                    ),
                ),
            ]));
            if trace { &mut layers } else { &mut e2e }.push((w.name, run.metrics));
        }
    }
    let names: Vec<(&str, &str)> = END_TO_END.iter().map(|(m, _)| (m.name, m.unit)).collect();
    print_table("end to end (tracing off)", &names, &e2e);
    let names: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    print_table("per layer (traced pass)", &names, &layers);

    let dir = out_dir();
    let path = dir.join("results.json");
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            let json = serde_json::to_string_pretty(&Value::Seq(saved)).expect("serializes");
            std::fs::write(&path, json)
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\n{}: {}", if ok { "ok" } else { "FAILED" }, path.display());
    Ok(ok)
}

/// Two sets of [`AA_RUNS`] untraced runs of this very build and seed: the
/// medians must agree within each end-to-end metric's bound, and every run
/// of a workload must produce the same digest and fail the same number of
/// operations.
pub fn aa(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut sets: [BTreeMap<(&str, &str), Vec<f64>>; 2] = Default::default();
    // Per workload, what each run produced: (digest, failed, attempted).
    let mut outputs: BTreeMap<&str, Vec<(String, u64, u64)>> = BTreeMap::new();
    for (s, set) in sets.iter_mut().enumerate() {
        for w in &WORKLOADS {
            for k in 0..AA_RUNS {
                eprintln!("== set {} {} run {}", ["A", "B"][s], w.name, k + 1);
                let run = child(w.name, args, false)?;
                ok &= run.correct;
                outputs
                    .entry(w.name)
                    .or_default()
                    .push((run.digest, run.failed, run.attempted));
                for (m, _) in &END_TO_END {
                    let value = *run
                        .metrics
                        .get(m.name)
                        .ok_or_else(|| format!("{}: {} missing", w.name, m.name))?;
                    set.entry((w.name, m.name)).or_default().push(value);
                }
            }
        }
    }
    // Spread: distance between the quartiles as a share of the median.
    let spread = |v: &[f64]| {
        if v.len() < 2 {
            return 0.0;
        }
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v)
    };
    println!(
        "\n{:<13} {:<14} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}",
        "workload", "metric", "median A", "median B", "B vs A", "bound", "spread A", "spread B"
    );
    for w in &WORKLOADS {
        for (m, bound) in &END_TO_END {
            let (runs_a, runs_b) = (&sets[0][&(w.name, m.name)], &sets[1][&(w.name, m.name)]);
            let (a, b) = (median(runs_a), median(runs_b));
            // Positive = B worse than A.
            let worse = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let within = worse.abs() <= *bound;
            ok &= within;
            println!(
                "{:<13} {:<14} {a:>14.4} {b:>14.4} {:>+8.2}% {:>6.0}% {:>8.2}% {:>8.2}%{}",
                w.name,
                m.name,
                worse * 100.0,
                bound * 100.0,
                spread(runs_a) * 100.0,
                spread(runs_b) * 100.0,
                if within { "" } else { "  OUT OF BOUND" }
            );
        }
        let o = &outputs[w.name];
        let same = o.iter().all(|x| x == &o[0]);
        ok &= same;
        println!(
            "{:<13} digest {} failed {}/{} {}",
            w.name,
            o[0].0,
            o[0].1,
            o[0].2,
            if same { "same in every run" } else { "DIFFERS" }
        );
    }
    println!("\n{}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}
