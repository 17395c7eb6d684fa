//! The `hostprof` command-line tool.
//!
//! A thin operational wrapper over the library: generate a deterministic
//! scenario, train and persist a model, query the embedding space, profile
//! a user, run the observer under countermeasures, serve a live load,
//! check the golden schedules, or run the full CTR experiment — all
//! without writing Rust. [`USAGE`] (`hostprof help`) is the one list of
//! commands and flags.

use hostprof::ads::{CtrExperiment, ExperimentConfig};
use hostprof::bridge::{ObservedTrace, ObserverScenario};
use hostprof::embed::{IndexConfig, KernelChoice};
use hostprof::profiling::{profile_accuracy, Session};
use hostprof::replay::{
    DefenseSnapshot, GoldenSchedule, ReplayOptions, ReplaySnapshot, UpdateSnapshot,
};
use hostprof::scenario::{Scenario, ScenarioConfig};
use hostprof::stats::paired_t_test;
use hostprof::storage;
use hostprof::synth::UserId;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Minimal flag parser: `--key value` pairs plus boolean `--key`.
struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let key = raw[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{}'", raw[i]))?;
            if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                values.insert(key.to_string(), raw[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(Self { values, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        // `--top --dns` parses --top as a bare flag; surface that as the
        // missing-value error it really is instead of silently ignoring it.
        if self.flags.iter().any(|f| f == key) {
            return Err(format!("--{key} requires a value"));
        }
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{key}: '{v}'")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Whether `--key` was given at all, with or without a value —
    /// what selects a `replay` / `serve` mode.
    fn has(&self, key: &str) -> bool {
        self.get(key).is_some() || self.flag(key)
    }

    /// Reject unknown options so typos fail loudly instead of silently
    /// falling back to defaults.
    fn expect_keys(&self, allowed: &[&str]) -> Result<(), String> {
        for key in self.values.keys().chain(self.flags.iter()) {
            if !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "unknown option --{key} (expected one of: {})",
                    allowed
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        Ok(())
    }
}

fn scenario_config(args: &Args) -> Result<ScenarioConfig, String> {
    let mut cfg = match args.get("scale").unwrap_or("tiny") {
        "tiny" => ScenarioConfig::tiny(),
        "small" => ScenarioConfig::small(),
        "default" | "full" => ScenarioConfig::paper_month(),
        "large" => ScenarioConfig::large(),
        other => return Err(format!("unknown scale '{other}'")),
    };
    if let Some(days) = args.get_parsed::<u32>("days")? {
        cfg.trace.days = days;
    }
    if let Some(users) = args.get_parsed::<usize>("users")? {
        cfg.population.num_users = users;
    }
    Ok(cfg)
}

fn cmd_train(args: &Args) -> Result<(), String> {
    args.expect_keys(&["scale", "days", "users", "out", "threads", "kernel"])?;
    let out: PathBuf = args.get("out").ok_or("train requires --out <path>")?.into();
    let mut cfg = scenario_config(args)?;
    if let Some(threads) = args.get_parsed::<usize>("threads")? {
        cfg.pipeline.skipgram.threads = threads;
    }
    if let Some(kernel) = args.get_parsed::<KernelChoice>("kernel")? {
        cfg.pipeline.skipgram.kernel = kernel;
    }
    let s = Scenario::generate(&cfg);
    eprintln!(
        "generated scenario: {} hosts, {} users, {} days",
        s.world.num_hosts(),
        s.population.len(),
        s.trace.days()
    );
    let pipeline = s.pipeline();
    let mut corpus = Vec::new();
    for day in 0..s.trace.days() {
        corpus.extend(s.daily_hostname_sequences(day));
    }
    let (model, stats) = pipeline.train_model_with_stats(&corpus)?;
    storage::save_model(&out, &model).map_err(|e| e.to_string())?;
    println!(
        "trained {}-d embeddings for {} hostnames → {}",
        model.dim(),
        model.len(),
        out.display()
    );
    println!(
        "  {} tokens in {:.2}s on {} thread(s) ({} kernel) → {:.0} tokens/s, \
         LR schedule coverage {:.4}",
        stats.processed_tokens,
        stats.elapsed_secs,
        stats.threads,
        if stats.simd_accelerated {
            "simd"
        } else {
            "scalar"
        },
        stats.tokens_per_sec(),
        stats.lr_coverage(),
    );
    Ok(())
}

fn cmd_similar(args: &Args) -> Result<(), String> {
    args.expect_keys(&["model", "host", "top"])?;
    let model_path: PathBuf = args
        .get("model")
        .ok_or("similar requires --model <path>")?
        .into();
    let host = args.get("host").ok_or("similar requires --host <name>")?;
    let top = args.get_parsed::<usize>("top")?.unwrap_or(10);
    let model = storage::load_model(&model_path).map_err(|e| e.to_string())?;
    let sims = model.most_similar(host, top);
    if sims.is_empty() {
        return Err(format!("'{host}' is not in the model vocabulary"));
    }
    println!("{:<40} cosine", "hostname");
    for (name, sim) in sims {
        println!("{name:<40} {sim:.3}");
    }
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    args.expect_keys(&[
        "scale", "days", "users", "model", "user", "day", "index", "nprobe",
    ])?;
    let model_path: PathBuf = args
        .get("model")
        .ok_or("profile requires --model <path>")?
        .into();
    let user = UserId(
        args.get_parsed::<u32>("user")?
            .ok_or("profile requires --user <index>")?,
    );
    let mut cfg = scenario_config(args)?;
    let nprobe = args.get_parsed::<usize>("nprobe")?;
    match args.get("index").unwrap_or("exact") {
        "exact" => {
            if nprobe.is_some() {
                return Err("--nprobe only applies to --index ivf".into());
            }
        }
        "ivf" => {
            cfg.pipeline.profiler.index = IndexConfig::ivf(nprobe.unwrap_or(8).max(1));
        }
        other => return Err(format!("unknown index '{other}' (expected exact or ivf)")),
    }
    let s = Scenario::generate(&cfg);
    let day = args
        .get_parsed::<u32>("day")?
        .unwrap_or(s.trace.days().saturating_sub(1));
    if user.index() >= s.population.len() {
        return Err(format!(
            "user {} out of range (population {})",
            user.0,
            s.population.len()
        ));
    }
    let model = storage::load_model(&model_path).map_err(|e| e.to_string())?;
    let pipeline = s.pipeline();
    let profiler = pipeline.profiler(&model, s.world.ontology());
    let window = s.session_hostnames(user, day);
    if window.is_empty() {
        return Err(format!("user {} was idle on day {day}", user.0));
    }
    let session = Session::from_window(
        window.iter().map(String::as_str),
        Some(pipeline.blocklist()),
    );
    let profile = profiler
        .profile(&session)
        .ok_or("session carries no profiling signal")?;
    println!(
        "user {} day {day}: session of {} hostnames ({} knn)",
        user.0,
        session.len(),
        profiler.index().name()
    );
    let hierarchy = s.world.hierarchy();
    let mut pairs: Vec<_> = profile.categories.iter().collect();
    pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (cat, w) in pairs.into_iter().take(8) {
        println!("  {:<44} {w:.2}", hierarchy.category_name(cat));
    }
    let truth = &s.population.user(user).interests;
    println!(
        "ground-truth cosine: {:.3}",
        profile_accuracy(&profile.categories, truth)
    );
    Ok(())
}

/// One-line error-taxonomy breakdown shared by `observe` and `replay`.
fn print_taxonomy(st: &hostprof::net::ObserverStats) {
    println!(
        "error taxonomy        : {} truncated, {} bad-length, {} overflow, {} evicted, {} garbage (invariant breaches: {})",
        st.truncated_records,
        st.bad_lengths,
        st.reassembly_overflow,
        st.evicted_mid_handshake,
        st.garbage,
        st.reassembly_invariant,
    );
}

fn cmd_observe(args: &Args) -> Result<(), String> {
    args.expect_keys(&[
        "scale", "days", "users", "ech", "nat", "dns", "save", "chaos",
    ])?;
    let cfg = scenario_config(args)?;
    let s = Scenario::generate(&cfg);
    let mut scenario = match args.get_parsed::<u32>("nat")? {
        Some(n) => ObserverScenario::behind_nat(n),
        None => ObserverScenario::per_user(),
    };
    if let Some(frac) = args.get_parsed::<f64>("ech")? {
        scenario.synthesizer.ech_fraction = frac;
        scenario.synthesizer.quic_fraction = 0.0;
    }
    if args.flag("dns") {
        scenario.synthesizer.dns_fraction = 1.0;
        scenario.harvest_dns = true;
    }
    if let Some(seed) = args.get_parsed::<u64>("chaos")? {
        scenario.chaos = Some(hostprof::net::ChaosConfig::with_seed(seed));
    }
    // Optional capture recording: lower the whole trace to packets and
    // save them before analyzing.
    if let Some(path) = args.get("save").map(PathBuf::from) {
        let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
        let mut writer = hostprof::net::CaptureWriter::new(std::io::BufWriter::new(file))
            .map_err(|e| e.to_string())?;
        for (_, burst) in scenario.lower(&s.world, &s.trace, None) {
            for pkt in &burst {
                writer.write_packet(pkt).map_err(|e| e.to_string())?;
            }
        }
        let n = writer.packets();
        writer.finish().map_err(|e| e.to_string())?;
        println!("wrote {n} packets → {}", path.display());
    }
    let obs = ObservedTrace::capture(&s.world, &s.trace, &scenario, None);
    println!("ground-truth requests : {}", obs.ground_truth_requests);
    println!("hostnames recovered   : {:.1}%", obs.fidelity() * 100.0);
    println!("client addresses seen : {}", obs.sequences.len());
    let st = obs.observer_stats;
    println!(
        "sources               : {} TLS SNI, {} QUIC SNI, {} DNS",
        st.tls_sni, st.quic_sni, st.dns_names
    );
    println!(
        "hidden / errors       : {} / {} (reassembled: {})",
        st.hidden, st.parse_errors, st.reassembled
    );
    print_taxonomy(&st);
    println!(
        "flows                 : {} created, {} packets",
        obs.flow_stats.flows_created, obs.flow_stats.packets
    );
    if let Some(cs) = obs.chaos_stats {
        println!(
            "chaos                 : {} -> {} packets; {} clean / {} mutated / {} garbage flows",
            cs.packets_in, cs.packets_out, cs.clean_flows, cs.mutated_flows, cs.garbage_flows
        );
    }
    Ok(())
}

/// Run golden schedule `S` at `lanes` ingest lanes and either bless its
/// golden or compare against it — the one place a golden file is read
/// or written.
fn check_or_bless<S: GoldenSchedule>(
    label: &str,
    opts: &ReplayOptions,
    lanes: usize,
    golden_dir: &Path,
    bless: bool,
) -> Result<(), String> {
    let snapshot = S::run(opts, lanes)?;
    let path = S::golden_path(golden_dir, opts.seed);
    if bless {
        std::fs::create_dir_all(golden_dir).map_err(|e| e.to_string())?;
        std::fs::write(&path, snapshot.to_golden_json()?).map_err(|e| e.to_string())?;
        println!("blessed {}", path.display());
        return Ok(());
    }
    let contents = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "read golden {}: {e} (`hostprof replay --golden DIR --seed S --bless`, \
             plus --update or --defense for those schedules, creates it)",
            path.display()
        )
    })?;
    let diffs = S::from_golden_json(&contents)?.diff(&snapshot);
    if diffs.is_empty() {
        println!(
            "{label}: OK — {} schedule ({}) bit-identical to {}",
            S::STEM,
            snapshot.summary(),
            path.display()
        );
        Ok(())
    } else {
        for d in &diffs {
            eprintln!("  {d}");
        }
        Err(format!(
            "{label}: {} schedule has {} divergence(s) from {}",
            S::STEM,
            diffs.len(),
            path.display()
        ))
    }
}

/// The golden directory and run knobs `replay --golden` and `serve --golden`
/// share (`--kernel` is only ever allowed through by the former).
fn golden_opts(args: &Args) -> Result<(PathBuf, ReplayOptions), String> {
    let golden_dir = args
        .get("golden")
        .ok_or("--golden requires a directory (replay also takes --capture <path> instead)")?;
    let mut opts = ReplayOptions::for_seed(args.get_parsed::<u64>("seed")?.unwrap_or(1));
    if let Some(threads) = args.get_parsed::<usize>("threads")? {
        opts.profile_threads = threads;
    }
    if let Some(kernel) = args.get_parsed::<KernelChoice>("kernel")? {
        opts.kernel = kernel;
    }
    Ok((golden_dir.into(), opts))
}

/// Conformance for one golden schedule — the batch replay, `--update`
/// ({train → serve → incremental update → serve}) or `--defense` (§15:
/// every defense axis through capture → train → serve). This command owns
/// blessing: the canonical golden is the single-lane run, and
/// `serve --golden` must *reproduce* it at every lane count.
fn cmd_replay_golden(args: &Args) -> Result<(), String> {
    args.expect_keys(&[
        "seed", "golden", "bless", "threads", "kernel", "update", "defense",
    ])?;
    let (golden_dir, opts) = golden_opts(args)?;
    let label = format!("replay seed {}", opts.seed);
    let bless = args.flag("bless");
    if args.flag("update") {
        check_or_bless::<UpdateSnapshot>(&label, &opts, 1, &golden_dir, bless)
    } else if args.flag("defense") {
        check_or_bless::<DefenseSnapshot>(&label, &opts, 1, &golden_dir, bless)
    } else {
        check_or_bless::<ReplaySnapshot>(&label, &opts, 1, &golden_dir, bless)
    }
}

fn cmd_replay_capture(args: &Args) -> Result<(), String> {
    args.expect_keys(&["capture", "dns"])?;
    let path: PathBuf = args
        .get("capture")
        .ok_or("replay requires --capture <path>")?
        .into();
    let file = std::fs::File::open(&path).map_err(|e| e.to_string())?;
    let reader = hostprof::net::CaptureReader::new(std::io::BufReader::new(file))
        .map_err(|e| e.to_string())?;
    let mut observer = if args.flag("dns") {
        hostprof::net::SniObserver::new().with_dns_harvesting()
    } else {
        hostprof::net::SniObserver::new()
    };
    let packets = reader.read_all().map_err(|e| e.to_string())?;
    observer.process_stream(&packets);
    let st = observer.stats();
    println!("packets               : {}", st.packets);
    println!(
        "hostnames recovered   : {} TLS + {} QUIC + {} DNS",
        st.tls_sni, st.quic_sni, st.dns_names
    );
    println!(
        "hidden / errors       : {} / {} (reassembled: {})",
        st.hidden, st.parse_errors, st.reassembled
    );
    print_taxonomy(&st);
    println!(
        "clients seen          : {}",
        observer.per_client_sequences().len()
    );
    Ok(())
}

/// Streaming conformance: re-run all three golden schedules with every
/// served stage going through the `ServeEngine` (packets → lanes →
/// windower → watermark ticks) at this lane count, and require each
/// snapshot to match the committed golden byte for byte. There is
/// deliberately no `--bless` here — goldens are blessed by the canonical
/// single-lane `replay --golden` run; streaming knobs must reproduce,
/// never define.
fn cmd_serve_golden(args: &Args) -> Result<(), String> {
    args.expect_keys(&["golden", "seed", "lanes", "threads"])?;
    let (golden_dir, opts) = golden_opts(args)?;
    let lanes = args.get_parsed::<usize>("lanes")?.unwrap_or(1).max(1);
    let label = format!("serve --golden seed {} lanes {lanes}", opts.seed);
    check_or_bless::<ReplaySnapshot>(&label, &opts, lanes, &golden_dir, false)?;
    check_or_bless::<UpdateSnapshot>(&label, &opts, lanes, &golden_dir, false)?;
    check_or_bless::<DefenseSnapshot>(&label, &opts, lanes, &golden_dir, false)
}

/// Live mode: calibrated synthetic load through the serving loop, with a
/// latency/throughput summary at the end.
fn cmd_serve_live(args: &Args) -> Result<(), String> {
    args.expect_keys(&[
        "scale",
        "users",
        "pps",
        "duration",
        "lanes",
        "threads",
        "seed",
        "days",
        "update-every",
    ])?;
    let cfg = scenario_config(args)?;
    let run = hostprof::serving::LiveRunConfig {
        seed: args.get_parsed::<u64>("seed")?.unwrap_or(0x0005_e47e),
        target_pps: args.get_parsed::<f64>("pps")?.unwrap_or(500.0),
        duration_s: args.get_parsed::<u64>("duration")?.unwrap_or(1_800),
        lanes: args.get_parsed::<usize>("lanes")?.unwrap_or(2),
        threads: args.get_parsed::<usize>("threads")?.unwrap_or(1),
        update_every: args.get_parsed::<u64>("update-every")?,
    };
    let world = hostprof::synth::World::generate(&cfg.world);
    let population = hostprof::synth::Population::generate(&world, &cfg.population);
    eprintln!(
        "serving {} users over {} lanes at ~{:.0} pkt/s for {} simulated seconds",
        population.len(),
        run.lanes,
        run.target_pps,
        run.duration_s
    );
    let report = hostprof::serving::run_live(&world, &population, &cfg.pipeline, &run)?;
    let stats = report.stats;
    println!("packets ingested      : {}", stats.packets);
    println!("observations          : {}", stats.observations);
    println!(
        "report ticks          : {} fired, {} with profiles",
        stats.ticks,
        report.latencies_ms.len()
    );
    println!(
        "profiles              : {} emitted from {} sessions",
        stats.profiles_emitted, stats.sessions_profiled
    );
    println!(
        "report latency        : p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        report.latency_percentile_ms(0.50),
        report.latency_percentile_ms(0.95),
        report.latency_percentile_ms(0.99),
    );
    println!(
        "sustained ingest      : {:.0} pkt/s over {:.2}s wall",
        report.sustained_pps(),
        report.wall_seconds
    );
    println!(
        "late-dropped events   : {} (watermark bound)",
        report.late_dropped
    );
    if run.update_every.is_some() {
        println!(
            "online updates        : {} applied, vocab {} → {}",
            report.updates_applied, report.base_vocab, report.final_vocab
        );
        if let (Some(&max), Some(&p50)) = (
            report.publish_latencies_ms.last(),
            report
                .publish_latencies_ms
                .get(report.publish_latencies_ms.len() / 2),
        ) {
            println!(
                "version publish       : p50 {p50:.2} ms, max {max:.2} ms \
                 (off-thread; ingest never stalls)"
            );
        }
    }
    let st = report.observer;
    print_taxonomy(&st);
    if !report.taxonomy_invariant_ok() {
        return Err("merged lane taxonomy invariant violated".into());
    }
    Ok(())
}

/// Parse `lo:hi:step` (CLI units) into an inclusive sweep.
fn parse_sweep(spec: &str) -> Result<Vec<f64>, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [lo, hi, step] = parts.as_slice() else {
        return Err(format!("invalid sweep '{spec}' (expected lo:hi:step)"));
    };
    let lo: f64 = lo
        .parse()
        .map_err(|_| format!("invalid sweep start '{lo}'"))?;
    let hi: f64 = hi
        .parse()
        .map_err(|_| format!("invalid sweep end '{hi}'"))?;
    let step: f64 = step
        .parse()
        .map_err(|_| format!("invalid sweep step '{step}'"))?;
    if step <= 0.0 || hi < lo {
        return Err(format!(
            "invalid sweep '{spec}' (need step > 0 and hi >= lo)"
        ));
    }
    let mut out = Vec::new();
    let mut x = lo;
    while x <= hi + 1e-9 {
        out.push(x.min(hi));
        x += step;
    }
    Ok(out)
}

/// Degradation curves: run one defense axis (or all six) through the
/// full pipeline at swept intensities and print the curve table.
fn cmd_defend(args: &Args) -> Result<(), String> {
    args.expect_keys(&[
        "scale", "days", "users", "defense", "sweep", "seed", "threads", "no-ctr",
    ])?;
    let cfg = scenario_config(args)?;
    let which = args.get("defense").unwrap_or("all");
    let names: Vec<&str> = if which == "all" {
        hostprof::defend::DEFENSE_NAMES.to_vec()
    } else if hostprof::defend::DEFENSE_NAMES.contains(&which) {
        vec![which]
    } else {
        return Err(format!(
            "unknown defense '{which}' (expected all or one of: {})",
            hostprof::defend::DEFENSE_NAMES.join(", ")
        ));
    };
    let sweep_override = args.get("sweep").map(parse_sweep).transpose()?;
    let seed = args.get_parsed::<u64>("seed")?.unwrap_or(0x00de_f5ed);
    let s = Scenario::generate(&cfg);
    let mut ev = hostprof::DefenseEvaluator::new(&s, seed);
    ev.with_ctr = !args.flag("no-ctr");
    if let Some(threads) = args.get_parsed::<usize>("threads")? {
        ev.profile_threads = threads;
    }
    for name in names {
        let sweep = match &sweep_override {
            Some(v) => v.clone(),
            None => hostprof::defend::default_sweep(name).expect("known defense"),
        };
        let curve = ev
            .eval_curve(name, &sweep)
            .ok_or_else(|| format!("defense '{name}' rejected its sweep"))?;
        println!("defense {name}:");
        println!(
            "  {:>10} {:>10} {:>8} {:>10} {:>9} {:>9} {:>9}",
            "intensity", "recovery%", "purity", "divergence", "accuracy", "ctr_gap", "sessions"
        );
        for p in &curve.points {
            println!(
                "  {:>10.2} {:>10.2} {:>8.3} {:>10.3} {:>9.3} {:>+9.4} {:>9}{}",
                p.intensity,
                p.recovery_pct,
                p.purity,
                p.divergence,
                p.mean_accuracy,
                p.ctr_gap * 100.0,
                p.sessions_profiled,
                match p.identity_bit_equal {
                    Some(true) => "  [identity: bit-equal]",
                    Some(false) => "  [identity: DIVERGED]",
                    None => "",
                }
            );
        }
        if curve
            .points
            .iter()
            .any(|p| p.identity_bit_equal == Some(false))
        {
            return Err(format!(
                "defense '{name}': identity point diverged from the undefended baseline"
            ));
        }
    }
    Ok(())
}

fn cmd_experiment(args: &Args) -> Result<(), String> {
    args.expect_keys(&["scale", "days", "users"])?;
    let cfg = scenario_config(args)?;
    let s = Scenario::generate(&cfg);
    let result = CtrExperiment::new(
        &s.world,
        &s.population,
        &s.trace,
        &s.ads,
        ExperimentConfig {
            pipeline: cfg.pipeline.clone(),
            ..ExperimentConfig::default()
        },
    )
    .run();
    println!("impressions  : {}", result.impressions);
    println!(
        "replaced     : {} ({:.1}%)",
        result.replaced,
        result.replaced_fraction() * 100.0
    );
    println!("CTR eaves    : {:.3}%", result.eaves_ctr() * 100.0);
    println!("CTR original : {:.3}%", result.orig_ctr() * 100.0);
    let (a, b) = result.ctr_pairs();
    match paired_t_test(&a, &b) {
        Some(t) => println!("paired t-test: t = {:.3}, p = {:.4}", t.t, t.p),
        None => println!("paired t-test: undefined (too few clicks at this scale)"),
    }
    Ok(())
}

const USAGE: &str = "\
hostprof — user profiling by network observers (CoNEXT '21 reproduction)

USAGE:
  hostprof train      [--scale S] [--days N] [--users N] [--threads N]
                      [--kernel auto|scalar|simd] --out model.json
  hostprof similar    --model model.json --host <hostname> [--top N]
  hostprof profile    [--scale S] [--days N] [--users N] --model model.json
                      --user N [--day D] [--index exact|ivf] [--nprobe N]
  hostprof observe    [--scale S] [--days N] [--users N] [--ech FRACTION]
                      [--nat USERS_PER_IP] [--dns] [--chaos SEED]
                      [--save capture.hpcap]
  hostprof replay     --capture capture.hpcap [--dns]
  hostprof replay     --golden tests/golden [--seed S] [--bless] [--threads N]
                      [--kernel auto|scalar|simd] [--update | --defense]
  hostprof defend     [--scale S] [--days N] [--users N] [--defense NAME|all]
                      [--sweep LO:HI:STEP] [--seed S] [--threads N] [--no-ctr]
  hostprof serve      [--scale S] [--days N] [--users N] [--pps F]
                      [--duration SIM_SECONDS] [--lanes N] [--threads N]
                      [--seed S] [--update-every TICKS]
  hostprof serve      --golden tests/golden [--seed S] [--lanes N] [--threads N]
  hostprof experiment [--scale S] [--days N] [--users N]

--scale is tiny (default), small, default (alias full) or large and selects
the same deterministic scenarios the experiment binaries use (large is the
10^6-user columnar tier; expect minutes, not seconds).
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "train" => cmd_train(&args),
        "similar" => cmd_similar(&args),
        "profile" => cmd_profile(&args),
        "observe" => cmd_observe(&args),
        "replay" if args.has("capture") => cmd_replay_capture(&args),
        "replay" => cmd_replay_golden(&args),
        "defend" => cmd_defend(&args),
        "serve" if args.has("golden") => cmd_serve_golden(&args),
        "serve" => cmd_serve_live(&args),
        "experiment" => cmd_experiment(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
