//! `bench`: the hostprof benchmark.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run
//! bench all [--seed N] [--seconds S] [--smoke]   every workload, both passes
//! bench aa  [--seed N] [--seconds S] [--smoke]   same build and seed twice
//! ```
//!
//! A single run prints what it measured to stderr and two JSON lines to
//! stdout: a `meta` line (hardware, load, digests) and, last, the result
//! line `{"correct", "attempted", "failed", "metrics"}`. README.md defines
//! every name.

mod batch;
mod digest;
mod metrics;
mod run;
mod serve;
mod spans;
mod stats;
mod suite;

use std::time::Instant;

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Profiler worker threads: the load is sized to this box's two cores.
fn threads() -> usize {
    nproc().min(2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Where trace files and suite results go: `out/` beside this package's
/// manifest, inside the checkout the binary was built in.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `run_seconds` of BENCHMARK.json: how long a run measures when
/// `--seconds` does not say.
pub const RUN_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
  bench all [--seed N] [--seconds S] [--smoke]
  bench aa  [--seed N] [--seconds S] [--smoke]
workloads: serve-wide serve-dense serve-update batch-large batch-ctr";

/// Flags shared by every mode.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut seconds = None;
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?.to_string()),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // A second of the tiny preset is already several rounds.
    if let Some(s) = seconds.or(args.smoke.then_some(1.0)) {
        args.seconds = s;
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, flags) = match argv.first().map(String::as_str) {
        Some("all") | Some("aa") => (argv[0].as_str(), &argv[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            return;
        }
        _ => ("run", &argv[..]),
    };
    let outcome = parse(flags).and_then(|args| match mode {
        "all" => suite::all(&args),
        "aa" => suite::aa(&args),
        _ => run::single(&args),
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
