//! One run of one workload: set up, measure for `--seconds`, check the
//! outputs, print the result line.

use crate::metrics::{Values, END_TO_END, PER_LAYER, WORKLOADS};
use crate::serve::{self, Fixture, Replay, Round};
use crate::spans::Recorder;
use crate::stats::{best_per_position, least, median, percentile, tail_percentile};
use crate::{batch, nproc, out_dir, secs, threads, Args};
use serde_json::Value;
use std::time::Instant;

/// What a run hands back for printing.
#[derive(Default)]
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(&'static str, bool)>,
    /// How much load the workload was, for the `meta` line.
    pub load: Vec<(&'static str, u64)>,
    /// Digest of the outputs; equal across runs of one build and seed.
    pub digest: String,
    pub rounds: usize,
    /// The percentile `core.tick_tail_ms` was read at, and over how many
    /// tick samples.
    pub tick_tail: Option<(f64, usize)>,
    pub spans: Option<Recorder>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }
}

/// Repeat `round` until `seconds` have been measured, to the nearest whole
/// round. The count follows from this run's own speed and from no table of
/// expected times; every round does the same work and must produce the
/// same digest, so how many there were changes no output, only how many
/// repetitions each timing is the best of.
pub fn measure_for<T>(
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(round(rounds.len())?);
        let spent = secs(start);
        if spent + spent / rounds.len() as f64 / 2.0 >= seconds {
            return Ok(rounds);
        }
    }
}

/// Build the fixture several times and keep the last: `setup_s` is the
/// fastest of the times. At least five set-ups and at least two seconds of
/// them, so that a millisecond-scale set-up is still a steady number; the
/// traced pass sets up once.
pub fn timed_setups<T>(
    traced: bool,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let built = build()?;
        times.push(secs(t));
        let total: f64 = times.iter().sum();
        if traced || (times.len() >= 5 && total >= 2.0) || times.len() >= 100 {
            return Ok((built, times));
        }
    }
}

fn serve_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let shape = serve::shape(name, args.smoke).ok_or("not a serving workload")?;
    let mut out = Outcome::default();

    let (mut fx, setup_s) = timed_setups(args.trace, || Fixture::build(shape, args.seed))?;

    let mut rec = args.trace.then(Recorder::new);
    let mut replays: Vec<Replay> = Vec::new();
    let rounds: Vec<Round> = measure_for(args.seconds, |i| {
        let round = serve::e2e_round(&mut fx)?;
        if let Some(rec) = rec.as_mut() {
            rec.set_round(i as u32);
            replays.push(serve::replay_round(&fx, &round, rec)?);
        }
        eprintln!(
            "round {i}: {:.0} packets/s, tick p50 {:.2} ms over {} ticks",
            round.measured_packets as f64 / (round.measured_engine_ns as f64 / 1e9),
            median(&round.tick_ms),
            round.tick_ms.len()
        );
        Ok(round)
    })?;

    let first = &rounds[0];
    let updating = shape.update_every.is_some();
    out.check(
        "wire_recovery",
        rounds.iter().all(|r| r.observations == r.requests),
    );
    out.check(
        "taxonomy",
        rounds
            .iter()
            .all(|r| r.observer.parse_errors == r.observer.taxonomy_total()),
    );
    // Which version a tick saw depends on when the builder thread finished,
    // so an updating run repeats only in what the windower decided.
    out.check(
        "rounds_agree",
        rounds.iter().all(|r| {
            r.digest.windows == first.digest.windows
                && (updating || r.digest.full == first.digest.full)
        }),
    );
    if updating {
        out.check(
            "every_update_published",
            rounds.iter().all(|r| r.publish_ms.len() == r.updates()),
        );
    }
    if args.trace {
        out.check(
            "replay_digest",
            rounds
                .iter()
                .zip(&replays)
                .all(|(r, p)| r.digest == p.digest && p.schedule_errors == 0),
        );
        out.check(
            "sequential_equals_batch",
            replays
                .iter()
                .all(|p| p.sequential_checked > 0 && p.sequential_mismatches == 0),
        );
    }
    out.attempted = first.attempted();
    out.failed = first.failed();
    out.digest = if updating {
        first.digest.windows.hex()
    } else {
        first.digest.full.hex()
    };
    out.rounds = rounds.len();
    out.load = vec![
        ("requests", first.requests),
        ("requests_withheld", first.withheld),
        ("packets", first.packets),
        ("ticks", first.ticks() as u64),
        ("sessions", first.sessions),
    ];

    let of = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let v = &mut out.values;
    v.set("setup_s", least(&setup_s));
    // Every round times the same ticks and the same tick-to-tick stretches,
    // so each is taken at the best any round measured it, and the metric is
    // the median over the positions: a burst of host noise moves the calls
    // it hits in one round, not the result.
    let stretches: Vec<Vec<f64>> = rounds.iter().map(|r| r.interval_pps.clone()).collect();
    v.set(
        "input_per_s",
        median(&best_per_position(&stretches, f64::max)),
    );
    let per_round: Vec<Vec<f64>> = rounds.iter().map(|r| r.tick_ms.clone()).collect();
    v.set(
        "step_p50_ms",
        median(&best_per_position(&per_round, f64::min)),
    );
    // The tail is what a caller met, noise included: every sample of every
    // round, at the highest percentile with ten samples beyond it.
    let mut ticks: Vec<f64> = per_round.concat();
    ticks.sort_by(f64::total_cmp);
    let tail = tail_percentile(ticks.len());
    v.set("core.tick_tail_ms", percentile(&ticks, tail));
    v.set("core.tick_max_ms", ticks.last().copied().unwrap_or(0.0));
    let tick_tail = Some((tail * 100.0, ticks.len()));
    v.set(
        "core.tick_share",
        of(&|r| r.measured_tick_ns as f64 / r.measured_engine_ns as f64),
    );
    v.set(
        "core.sessions_per_tick_mean",
        first.sessions as f64 / first.ticks().max(1) as f64,
    );
    v.set(
        "core.window_resident_events_peak",
        first.resident_peak as f64,
    );
    v.set("core.late_dropped", first.late_dropped as f64);
    let publish: Vec<f64> = rounds.iter().flat_map(|r| r.publish_ms.clone()).collect();
    v.set("core.publish_p50_ms", median(&publish));
    v.set("net.parse_errors", first.observer.parse_errors as f64);
    v.set(
        "net.obs_per_pkt",
        first.observations as f64 / first.packets.max(1) as f64,
    );
    v.set("embed.vocab", fx.vocab as f64);
    v.set(
        "embed.train_tokens_per_s",
        fx.train_tokens as f64 / fx.train_s,
    );
    v.set("embed.index_build_s", fx.index_build_s);
    v.set("synth.world_s", fx.world_s);

    if args.trace {
        let pairs: Vec<(&Round, &Replay)> = rounds.iter().zip(&replays).collect();
        let of = |f: &dyn Fn(&Round, &Replay) -> f64| {
            median(&pairs.iter().map(|(r, p)| f(r, p)).collect::<Vec<_>>())
        };
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        v.set(
            "net.observe_ns_per_pkt",
            of(&|r, p| per(p.observe_ns, r.packets)),
        );
        v.set(
            "net.slow_path_share",
            of(&|r, p| p.slow_path_packets as f64 / r.packets.max(1) as f64),
        );
        v.set(
            "net.synth_ns_per_pkt",
            of(&|r, p| per(p.synth_ns, r.packets)),
        );
        v.set(
            "synth.stream_ns_per_req",
            of(&|r, p| per(p.stream_ns, r.requests)),
        );
        v.set(
            "core.window_insert_ns_per_obs",
            of(&|_, p| per(p.insert_ns, p.observations)),
        );
        let ticks = |r: &Round| r.ticks() as u64;
        v.set(
            "core.window_close_ms_per_tick",
            of(&|r, p| per(p.close_ns, ticks(r)) / 1e6),
        );
        v.set(
            "core.session_build_us_per_session",
            of(&|r, p| per(p.session_ns, r.sessions) / 1e3),
        );
        v.set(
            "core.profile_us_per_session",
            of(&|r, p| per(p.profile_ns, r.sessions) / 1e3),
        );
        v.set(
            "core.profile_self_us_per_session",
            of(&|r, p| per(p.profile_ns.saturating_sub(p.knn_ns), r.sessions) / 1e3),
        );
        v.set(
            "core.report_us_per_session",
            of(&|r, p| per(p.report_ns, r.sessions) / 1e3),
        );
        v.set(
            "core.session_len_mean",
            of(&|r, p| p.window_events as f64 / r.sessions.max(1) as f64),
        );
        v.set(
            "embed.knn_us_per_query",
            of(&|_, p| per(p.knn_ns, p.knn_queries) / 1e3),
        );
        v.set(
            "embed.update_tokens_per_s",
            of(&|_, p| p.update_tokens as f64 / (p.update_ns.max(1) as f64 / 1e9)),
        );
        v.set(
            "core.version_build_ms",
            of(&|_, p| per(p.version_build_ns, p.versions) / 1e6),
        );
        v.set(
            "core.publish_us",
            of(&|_, p| per(p.publish_ns, p.versions) / 1e3),
        );
        v.set(
            "trace.coverage",
            of(&|r, p| {
                (p.observe_ns
                    + p.insert_ns
                    + p.close_ns
                    + p.session_ns
                    + p.profile_ns
                    + p.report_ns) as f64
                    / r.engine_ns as f64
            }),
        );
        v.set(
            "trace.overhead",
            of(&|r, p| p.traced_ns as f64 / r.engine_ns as f64),
        );
    }
    out.tick_tail = tick_tail;
    out.spans = rec;
    Ok(out)
}

/// `VmHWM` of this process in MB; 0 where `/proc` has none.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line a command prints, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Hardware and load of this run, so every number states both.
fn meta(workload: &str, args: &Args, out: &Outcome) -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    let mut load: Vec<(String, Value)> = out
        .load
        .iter()
        .map(|(k, n)| (k.to_string(), Value::U64(*n)))
        .collect();
    load.push(("rounds".into(), Value::U64(out.rounds as u64)));
    Value::Map(vec![(
        "meta".into(),
        Value::Map(vec![
            ("workload".into(), s(workload)),
            ("seed".into(), Value::U64(args.seed)),
            ("seconds".into(), Value::F64(args.seconds)),
            ("traced".into(), Value::Bool(args.trace)),
            ("smoke".into(), Value::Bool(args.smoke)),
            ("nproc".into(), Value::U64(nproc() as u64)),
            ("profiler_threads".into(), Value::U64(threads() as u64)),
            ("cpu".into(), s(&cpu_model())),
            ("rustc".into(), s(&first_line_of("rustc", &["--version"]))),
            (
                "git_commit".into(),
                s(&first_line_of("git", &["rev-parse", "HEAD"])),
            ),
            ("load".into(), Value::Map(load)),
            (
                "tick_tail".into(),
                out.tick_tail.map_or(Value::Null, |(percentile, samples)| {
                    Value::Map(vec![
                        ("percentile".into(), Value::F64(percentile)),
                        ("samples".into(), Value::U64(samples as u64)),
                    ])
                }),
            ),
            ("digest".into(), s(&out.digest)),
            (
                "checks".into(),
                Value::Map(
                    out.checks
                        .iter()
                        .map(|(k, ok)| (k.to_string(), Value::Bool(*ok)))
                        .collect(),
                ),
            ),
        ]),
    )])
}

/// The driver's contract: one workload, one result line.
pub fn single(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == name) {
        return Err(format!("unknown workload {name:?}"));
    }
    let mut out = match name {
        "batch-large" => batch::large(args)?,
        "batch-ctr" => batch::ctr(args)?,
        _ => serve_workload(name, args)?,
    };
    out.values.set("peak_rss_mb", peak_rss_mb());

    if let Some(rec) = &out.spans {
        let dir = out_dir();
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| {
                let json = serde_json::to_string(&rec.to_json(name)).expect("spans serialize");
                std::fs::write(&path, json)
            })
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("{} spans -> {}", rec.spans().len(), path.display());
    }

    let correct = out.checks.iter().all(|(_, ok)| *ok);
    for (check, ok) in &out.checks {
        eprintln!("check {check:<28} {}", if *ok { "ok" } else { "FAILED" });
    }
    if let Some((percentile, samples)) = out.tick_tail {
        eprintln!("core.tick_tail_ms is p{percentile} of {samples} tick samples");
    }
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|(m, _)| (m.name, m.unit)).collect()
    };
    for (metric, unit) in names {
        let value = out.values.get(metric).unwrap_or(0.0);
        eprintln!("{name:<13} {metric:<34} {value:>16.4} {unit}");
    }

    let metrics = out.values.to_json(args.trace)?;
    println!(
        "{}",
        serde_json::to_string(&meta(name, args, &out)).expect("meta serializes")
    );
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(out.attempted.max(1))),
        ("failed".into(), Value::U64(out.failed)),
        ("metrics".into(), metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    Ok(correct)
}
