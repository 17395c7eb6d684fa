//! E9 — countermeasure degradation curves (DESIGN.md §15, replacing the
//! qualitative `countermeasures` table; paper §7.2 / §7.4).
//!
//! Every §15 defense axis — ECH adoption, dummy injection, constant and
//! adaptive padding, NAT pool mixing, DoH migration — runs through the
//! *full* pipeline at each sweep intensity: defended capture → skipgram
//! training on what survived → kNN Eq. 3/4 profiling of the final day →
//! the observed-view CTR experiment. The output is one degradation
//! curve per defense (recovery %, embedding purity, profile divergence
//! from the undefended baseline, eavesdropper-vs-ad-network CTR gap),
//! with the identity point of each sweep checked bit-equal to the
//! undefended pipeline — the same invariant the golden replays and
//! proptests pin.
//!
//! Writes `results/bench_defense.json` (override with `--out`). `--smoke`
//! drops to the tiny scenario for CI; pair it with `--max-rss-mb` to turn
//! the memory claim into a hard gate.

use hostprof::defend::{default_sweep, DefenseCurve, DefenseEvaluator, DEFENSE_NAMES};
use hostprof::scenario::Scenario;
use hostprof_bench::{header, peak_rss_kb, row, write_results, write_results_at, Scale};
use serde::Serialize;

#[derive(Serialize)]
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
    /// One degradation curve per defense, identity point first.
    curves: Vec<DefenseCurve>,
}

struct Args {
    scale: Scale,
    seed: u64,
    smoke: bool,
    no_ctr: bool,
    defense: Option<String>,
    max_rss_mb: Option<u64>,
    out: Option<String>,
}

const USAGE: &str = "usage: bench_defense [--scale tiny|small|default] [--seed N] \
[--defense NAME] [--no-ctr] [--smoke] [--max-rss-mb N] [--out PATH]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::from_env(),
        seed: 0x00de_f5ed,
        smoke: false,
        no_ctr: false,
        defense: None,
        max_rss_mb: None,
        out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                args.scale =
                    Scale::named(&value(&mut i, "--scale")?).map_err(|e| format!("{e}\n{USAGE}"))?
            }
            "--seed" => {
                args.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{USAGE}"))?
            }
            "--defense" => args.defense = Some(value(&mut i, "--defense")?),
            "--no-ctr" => args.no_ctr = true,
            "--smoke" => args.smoke = true,
            "--max-rss-mb" => {
                args.max_rss_mb = Some(
                    value(&mut i, "--max-rss-mb")?
                        .parse()
                        .map_err(|e| format!("--max-rss-mb: {e}\n{USAGE}"))?,
                )
            }
            "--out" => args.out = Some(value(&mut i, "--out")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_defense: {e}");
            std::process::exit(2);
        }
    };
    let scale = if args.smoke {
        Scale::named("tiny").expect("tiny is a preset")
    } else {
        args.scale
    };
    let mut cfg = scale.scenario();
    // The CTR stage re-runs the whole ad experiment per sweep point; a
    // 4-day trace (2 training + 2 ad days) keeps the full 6-axis sweep
    // in minutes while every curve metric stays populated.
    cfg.trace.days = cfg.trace.days.clamp(3, 4);
    let s = Scenario::generate(&cfg);

    let names: Vec<&str> = match &args.defense {
        None => DEFENSE_NAMES.to_vec(),
        Some(name) => match DEFENSE_NAMES.iter().find(|n| *n == name) {
            Some(n) => vec![*n],
            None => {
                eprintln!(
                    "bench_defense: unknown defense {name:?} (one of: {})",
                    DEFENSE_NAMES.join(", ")
                );
                std::process::exit(2);
            }
        },
    };

    header(&format!(
        "Defense degradation curves (scale: {}, {} users, {} days)",
        scale.label(),
        s.population.len(),
        s.trace.days()
    ));

    let mut ev = DefenseEvaluator::new(&s, args.seed);
    ev.with_ctr = !args.no_ctr;

    let mut curves: Vec<DefenseCurve> = Vec::new();
    let mut identity_ok = true;
    for name in &names {
        let sweep = default_sweep(name).expect("known defense");
        let curve = ev.eval_curve(name, &sweep).expect("known defense");
        println!("\n  defense {name}:");
        println!(
            "    {:>10} {:>10} {:>8} {:>10} {:>9} {:>9}",
            "intensity", "recovery%", "purity", "divergence", "accuracy", "ctr_gap"
        );
        for p in &curve.points {
            println!(
                "    {:>10.2} {:>10.2} {:>8.3} {:>10.3} {:>9.3} {:>+9.4}{}",
                p.intensity,
                p.recovery_pct,
                p.purity,
                p.divergence,
                p.mean_accuracy,
                p.ctr_gap * 100.0,
                match p.identity_bit_equal {
                    Some(true) => "  [identity: bit-equal]",
                    Some(false) => "  [identity: DIVERGED]",
                    None => "",
                }
            );
            if p.identity_bit_equal == Some(false) {
                identity_ok = false;
            }
        }
        curves.push(curve);
    }

    let rss_kb = peak_rss_kb();
    let rss_gate_ok = args.max_rss_mb.is_none_or(|mb| rss_kb <= mb * 1024);
    row("peak RSS", format!("{rss_kb} kB"));
    if let Some(mb) = args.max_rss_mb {
        row(
            "RSS gate",
            format!("{mb} MB: {}", if rss_gate_ok { "ok" } else { "BREACHED" }),
        );
    }

    let results = DefenseBench {
        scale: scale.label().to_string(),
        smoke: args.smoke,
        users: s.population.len(),
        days: s.trace.days(),
        plan_seed: args.seed,
        with_ctr: !args.no_ctr,
        peak_rss_kb: rss_kb,
        rss_gate_mb: args.max_rss_mb,
        rss_gate_ok,
        curves,
    };
    match &args.out {
        Some(path) => write_results_at(std::path::Path::new(path), &results),
        None => write_results("bench_defense", &results),
    }

    if !identity_ok {
        eprintln!("bench_defense: an identity point diverged from the undefended baseline");
        std::process::exit(1);
    }
    if !rss_gate_ok {
        eprintln!("bench_defense: peak RSS breached the --max-rss-mb gate");
        std::process::exit(1);
    }
}
