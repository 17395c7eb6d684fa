//! The `hostprof` command-line tool.
//!
//! A thin operational wrapper over the library: generate a deterministic
//! scenario, train and persist a model, query the embedding space, profile
//! a user, run the observer under countermeasures, serve a live load,
//! check the golden schedules, reproduce the paper's experiments, or sweep
//! the observer's chaos properties — all without writing Rust. [`COMMANDS`]
//! is the one list of commands and flags: parsing, arity, dispatch and
//! `hostprof help` all read it.

use hostprof::bridge::{ObservedTrace, ObserverScenario};
use hostprof::embed::{IndexConfig, KernelChoice};
use hostprof::profiling::{profile_accuracy, Session};
use hostprof::replay::{
    DefenseSnapshot, GoldenSchedule, ReplayOptions, ReplaySnapshot, UpdateSnapshot,
};
use hostprof::scenario::{Scenario, ScenarioConfig};
use hostprof::storage;
use hostprof::synth::UserId;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One row of the CLI: a command, or one mode of a command that has
/// several.
struct Command {
    name: &'static str,
    /// The flag whose presence selects this row among the rows sharing
    /// `name`; the row without one is taken when none is present.
    mode: Option<&'static str>,
    /// The row's flags, spelled as `hostprof help` prints them:
    /// `--name VALUE` takes a value, a bare `--name` is boolean and takes
    /// none, and brackets make either optional.
    flags: &'static str,
    run: fn(&Args) -> Result<(), String>,
}

/// Everything a user can type, in `hostprof help` order.
static COMMANDS: &[Command] = &[
    Command {
        name: "train",
        mode: None,
        flags: "[--scale S] [--days N] [--users N] [--threads N] [--kernel auto|scalar] \
                --out model.hpflat",
        run: cmd_train,
    },
    Command {
        name: "similar",
        mode: None,
        flags: "--model model.hpflat --host <hostname> [--top N]",
        run: cmd_similar,
    },
    Command {
        name: "profile",
        mode: None,
        flags: "[--scale S] [--days N] [--users N] --model model.hpflat --user N [--day D] \
                [--index exact|ivf] [--nprobe N]",
        run: cmd_profile,
    },
    Command {
        name: "observe",
        mode: None,
        flags: "[--scale S] [--days N] [--users N] [--ech FRACTION] [--nat USERS_PER_IP] [--dns] \
                [--chaos SEED] [--save capture.hpcap]",
        run: cmd_observe,
    },
    Command {
        name: "replay",
        mode: Some("capture"),
        flags: "--capture capture.hpcap [--dns]",
        run: cmd_replay_capture,
    },
    Command {
        name: "replay",
        mode: Some("golden"),
        flags: "--golden tests/golden [--seed S] [--bless] [--threads N] [--update] [--defense]",
        run: cmd_replay_golden,
    },
    Command {
        name: "defend",
        mode: None,
        flags: "[--scale S] [--days N] [--users N] [--defense NAME|all] [--sweep LO:HI:STEP] \
                [--seed S] [--threads N] [--no-ctr]",
        run: cmd_defend,
    },
    Command {
        name: "serve",
        mode: None,
        flags: "[--scale S] [--days N] [--users N] [--pps F] [--duration SIM_SECONDS] [--lanes N] \
                [--threads N] [--seed S] [--update-every TICKS]",
        run: cmd_serve_live,
    },
    Command {
        name: "serve",
        mode: Some("golden"),
        flags: "--golden tests/golden [--seed S] [--lanes N] [--threads N]",
        run: cmd_serve_golden,
    },
    Command {
        name: "experiment",
        mode: None,
        flags: "[--id E1..E9|D1|all] [--scale S] [--out DIR] [--max-rss-mb N]",
        run: cmd_experiment,
    },
    Command {
        name: "chaos",
        mode: None,
        flags: "[--seeds N] [--seed-base S]",
        run: cmd_chaos,
    },
    Command {
        name: "chaos",
        mode: Some("gen-vectors"),
        flags: "--gen-vectors",
        run: cmd_chaos_vectors,
    },
];

/// One flag of a [`Command`] row.
struct Flag {
    name: &'static str,
    /// `None` for a boolean flag.
    value: Option<&'static str>,
    required: bool,
}

impl Flag {
    /// The flag as its row spells it.
    fn usage(&self) -> String {
        let value = self.value.map(|v| format!(" {v}")).unwrap_or_default();
        if self.required {
            format!("--{}{value}", self.name)
        } else {
            format!("[--{}{value}]", self.name)
        }
    }
}

impl Command {
    /// The row `cmd` and the flags present in `raw` select.
    fn select(cmd: &str, raw: &[String]) -> Result<&'static Command, String> {
        let rows = || COMMANDS.iter().filter(|c| c.name == cmd);
        if rows().next().is_none() {
            return Err(format!("unknown command '{cmd}'\n\n{}", usage()));
        }
        let given = |mode: &str| raw.iter().any(|a| a.strip_prefix("--") == Some(mode));
        rows()
            .find(|c| c.mode.is_some_and(given))
            .or_else(|| rows().find(|c| c.mode.is_none()))
            .ok_or_else(|| {
                let modes: Vec<String> = rows()
                    .flat_map(|c| c.mode)
                    .map(|m| format!("--{m}"))
                    .collect();
                format!("{cmd} requires one of: {}", modes.join(", "))
            })
    }

    /// The flags the row's spelling declares.
    fn flags(&self) -> Vec<Flag> {
        let mut words = self.flags.split_whitespace().peekable();
        let mut flags = Vec::new();
        while let Some(word) = words.next() {
            let name = word.trim_matches(['[', ']']).strip_prefix("--");
            let value = words.next_if(|w| !w.starts_with(['[', '-']));
            flags.push(Flag {
                name: name.expect("a COMMANDS row is flags and their values"),
                value: value.map(|v| v.trim_end_matches(']')),
                required: !word.starts_with('['),
            });
        }
        flags
    }
}

/// `hostprof help`: one entry per [`COMMANDS`] row, wrapped at 80 columns.
fn usage() -> String {
    let mut out = String::from(
        "hostprof — user profiling by network observers (CoNEXT '21 reproduction)\n\nUSAGE:\n",
    );
    for c in COMMANDS {
        let mut line = format!("  hostprof {:<10}", c.name);
        let indent = line.len();
        for item in c.flags().iter().map(Flag::usage) {
            if line.len() + 1 + item.len() > 80 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(indent);
            }
            line.push(' ');
            line.push_str(&item);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(
        "\n--scale is tiny (default), small, default (alias full) or large and selects\n\
         the same deterministic scenarios everywhere. Every scale is generated in\n\
         memory (`Scenario::generate`); large is 10^6 users, so expect gigabytes and\n\
         minutes, not seconds. `experiment` runs rows of the paper's result table (a\n\
         comma list of ids; all by default) and prints every claim's verdict; it\n\
         writes <DIR>/<name>.json only under --out, and fails when a claim is off its\n\
         recorded expectation or peak RSS exceeds --max-rss-mb. `chaos` holds the\n\
         observer to its four fault-injection properties over --seeds cases (200 by\n\
         default) and fails on the first violation; --gen-vectors prints the golden\n\
         SNI vectors instead.\n",
    );
    out
}

/// The flags one invocation gave, checked against its [`Command`] row.
struct Args {
    given: HashMap<&'static str, Option<String>>,
}

impl Args {
    /// Parse `raw` by the row's arity: a value flag consumes the next
    /// token, a boolean flag takes none, and a flag the row does not list
    /// or a required one left out is an error — typos fail loudly instead
    /// of silently falling back to defaults.
    fn parse(row: &Command, raw: &[String]) -> Result<Self, String> {
        let flags = row.flags();
        let mut given = HashMap::new();
        let mut tokens = raw.iter().peekable();
        while let Some(token) = tokens.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{token}'"))?;
            let flag = flags.iter().find(|f| f.name == key).ok_or_else(|| {
                let listed: Vec<String> = flags.iter().map(|f| format!("--{}", f.name)).collect();
                format!(
                    "unknown option --{key} (expected one of: {})",
                    listed.join(", ")
                )
            })?;
            let value = tokens.next_if(|next| !next.starts_with("--"));
            match (flag.value, value) {
                (Some(_), None) => return Err(format!("--{key} requires a value")),
                (None, Some(stray)) => {
                    return Err(format!("--{key} takes no value (got '{stray}')"))
                }
                _ => given.insert(flag.name, value.cloned()),
            };
        }
        match flags
            .iter()
            .find(|f| f.required && !given.contains_key(f.name))
        {
            Some(missing) => Err(format!("{} requires {}", row.name, missing.usage())),
            None => Ok(Self { given }),
        }
    }

    /// The value of a value flag, if it was given.
    fn get(&self, key: &str) -> Option<&str> {
        self.given.get(key)?.as_deref()
    }

    /// The value of a required flag ([`Args::parse`] checked it is there).
    fn required(&self, key: &str) -> &str {
        self.get(key).expect("parse checked required flags")
    }

    fn get_parsed<T>(&self, key: &str) -> Result<Option<T>, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("invalid value for --{key}: '{v}' ({e})"))
            })
            .transpose()
    }

    /// Whether a boolean flag was given.
    fn is_set(&self, key: &str) -> bool {
        self.given.contains_key(key)
    }
}

fn scenario_config(args: &Args) -> Result<ScenarioConfig, String> {
    let mut cfg = ScenarioConfig::named(args.get("scale").unwrap_or("tiny"))?;
    if let Some(days) = args.get_parsed::<u32>("days")? {
        cfg.trace.days = days;
    }
    if let Some(users) = args.get_parsed::<usize>("users")? {
        cfg.population.num_users = users;
    }
    Ok(cfg)
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let out = PathBuf::from(args.required("out"));
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
    let (model, stats) = pipeline.train_model_with_stats(&s.corpus(s.trace.days()))?;
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
    let host = args.required("host");
    let top = args.get_parsed::<usize>("top")?.unwrap_or(10);
    let model =
        storage::load_model(Path::new(args.required("model"))).map_err(|e| e.to_string())?;
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
    let user = UserId(
        args.get_parsed::<u32>("user")?
            .expect("parse checked required flags"),
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
    let model =
        storage::load_model(Path::new(args.required("model"))).map_err(|e| e.to_string())?;
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
        "error taxonomy        : {} truncated, {} bad-length, {} overflow, {} evicted, {} garbage",
        st.truncated_records,
        st.bad_lengths,
        st.reassembly_overflow,
        st.evicted_mid_handshake,
        st.garbage,
    );
}

fn cmd_observe(args: &Args) -> Result<(), String> {
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
    if args.is_set("dns") {
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
/// share.
fn golden_opts(args: &Args) -> Result<(PathBuf, ReplayOptions), String> {
    let mut opts = ReplayOptions::for_seed(args.get_parsed::<u64>("seed")?.unwrap_or(1));
    if let Some(threads) = args.get_parsed::<usize>("threads")? {
        opts.profile_threads = threads;
    }
    Ok((args.required("golden").into(), opts))
}

/// Conformance for one golden schedule — the batch replay, `--update`
/// ({train → serve → incremental update → serve}) or `--defense` (§15:
/// every defense axis through capture → train → serve). This command owns
/// blessing: the canonical golden is the single-lane run, and
/// `serve --golden` must *reproduce* it at every lane count.
fn cmd_replay_golden(args: &Args) -> Result<(), String> {
    let (golden_dir, opts) = golden_opts(args)?;
    let label = format!("replay seed {}", opts.seed);
    let bless = args.is_set("bless");
    if args.is_set("update") {
        check_or_bless::<UpdateSnapshot>(&label, &opts, 1, &golden_dir, bless)
    } else if args.is_set("defense") {
        check_or_bless::<DefenseSnapshot>(&label, &opts, 1, &golden_dir, bless)
    } else {
        check_or_bless::<ReplaySnapshot>(&label, &opts, 1, &golden_dir, bless)
    }
}

fn cmd_replay_capture(args: &Args) -> Result<(), String> {
    let file = std::fs::File::open(args.required("capture")).map_err(|e| e.to_string())?;
    let reader = hostprof::net::CaptureReader::new(std::io::BufReader::new(file))
        .map_err(|e| e.to_string())?;
    let mut observer = if args.is_set("dns") {
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
    let invalid = || format!("invalid sweep '{spec}' (expected lo:hi:step, step > 0, hi >= lo)");
    let parts: Result<Vec<f64>, _> = spec.split(':').map(str::parse).collect();
    let [lo, hi, step] = parts.map_err(|_| invalid())?[..] else {
        return Err(invalid());
    };
    if step <= 0.0 || hi < lo {
        return Err(invalid());
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
    let cfg = scenario_config(args)?;
    let names = match args.get("defense").unwrap_or("all") {
        "all" => hostprof::defend::DEFENSE_NAMES.to_vec(),
        one => vec![one],
    };
    let sweep = args.get("sweep").map(parse_sweep).transpose()?;
    let seed = args.get_parsed::<u64>("seed")?.unwrap_or(0x00de_f5ed);
    let s = Scenario::generate(&cfg);
    let mut ev = hostprof::DefenseEvaluator::new(&s, seed);
    ev.with_ctr = !args.is_set("no-ctr");
    if let Some(threads) = args.get_parsed::<usize>("threads")? {
        ev.profile_threads = threads;
    }
    // One axis at a time, so that each table prints as its sweep ends.
    for name in names {
        let curves = ev.eval_curves(&[name], sweep.as_deref())?;
        print!("{}", hostprof::experiments::curve_table(&curves));
        let diverged = |p: &hostprof::CurvePoint| p.identity_bit_equal == Some(false);
        if curves.iter().any(|c| c.points.iter().any(diverged)) {
            return Err(format!(
                "defense '{name}': identity point diverged from the undefended baseline"
            ));
        }
    }
    Ok(())
}

/// High-water mark of this process's resident set from the kernel's
/// accounting (`VmHWM`, kB); 0 where `/proc` is unavailable.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    hwm.and_then(|kb| kb.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Reproduce rows of the paper's result table (`hostprof::experiments`)
/// and hold every claim to its recorded expectation.
fn cmd_experiment(args: &Args) -> Result<(), String> {
    let max_rss_mb = args.get_parsed::<u64>("max-rss-mb")?;
    let rows = hostprof::experiments::select(args.get("id").unwrap_or("all"))?;
    let scale = args.get("scale").unwrap_or("tiny");
    hostprof::experiments::run(&rows, scale, args.get("out").map(Path::new))?;
    // A measurement, not a result: on stderr, so stdout is a function of
    // the code alone.
    let rss_kb = peak_rss_kb();
    eprintln!("peak RSS: {rss_kb} kB");
    match max_rss_mb {
        Some(mb) if rss_kb > mb * 1024 => Err(format!("peak RSS breached --max-rss-mb {mb}")),
        _ => Ok(()),
    }
}

/// The chaos conformance sweep (`net::conformance`): each of the four
/// properties over `--seeds` cases from `--seed-base`, under the chaos
/// profile that property is about, one tally line per property. Stops at
/// the first violating case; its seed replays it.
fn cmd_chaos(args: &Args) -> Result<(), String> {
    use hostprof::net::conformance::*;
    let caps = hostprof::net::ObserverConfig {
        max_pending_bytes: 2_048,
        max_pending_segments: 8,
        max_pending_flows: 8,
        max_total_pending_bytes: 8_192,
    };
    let seeds = args.get_parsed::<u64>("seeds")?.unwrap_or(200);
    let base = args.get_parsed::<u64>("seed-base")?.unwrap_or(0);
    println!("chaos conformance over {seeds} seeds from {base}");
    let sweep = |name: &str, property: &dyn Fn(u64) -> Result<CaseStats, String>| {
        let cases = (base..base + seeds).map(property);
        let t = cases.sum::<Result<CaseStats, String>>()?;
        println!(
            "  {name:<32} holds: {} -> {} packets; {} clean / {} mutated / {} garbage flows; \
             {} observations, {} classified parse errors",
            t.packets_in,
            t.packets_out,
            t.clean_flows,
            t.mutated_flows,
            t.garbage_flows,
            t.observations,
            t.parse_errors
        );
        Ok::<(), String>(())
    };
    sweep("(a) no panic, errors classified", &errors_are_classified)?;
    sweep(
        "(b) clean flows bit-identical",
        &clean_flows_survive_bit_identical,
    )?;
    sweep("(c) pending memory under caps", &|seed| {
        pending_memory_stays_under_caps(seed, caps)
    })?;
    sweep("(d) same seed, same replay", &same_seed_replays_identically)
}

/// Print the golden SNI vector corpus as the parsers stand.
fn cmd_chaos_vectors(_: &Args) -> Result<(), String> {
    print!("{}", hostprof::net::conformance::sni_vectors());
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.split_first() {
        None => {
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
        Some((cmd, _)) if ["help", "--help", "-h"].contains(&cmd.as_str()) => {
            print!("{}", usage());
            Ok(())
        }
        Some((cmd, rest)) => Command::select(cmd, rest)
            .and_then(|row| Args::parse(row, rest).and_then(|args| (row.run)(&args))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
