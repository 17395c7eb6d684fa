//! The paper's headline experiment, end to end: eavesdropper ads vs
//! ad-network ads, compared by click-through rate.
//!
//! Runs a shortened version of the Section 5/6 deployment — daily
//! retraining, 10-minute extension reports, 20-minute profiling windows,
//! size-matched ad replacement, ground-truth clicks — and prints the
//! Section 6.4 comparison with a paired t-test.
//!
//! ```text
//! cargo run --release --example ad_campaign
//! ```

use hostprof::ads::{CtrExperiment, ExperimentConfig};
use hostprof::scenario::{Scenario, ScenarioConfig};
use hostprof::stats::paired_t_test;
use hostprof::synth::{PopulationConfig, TraceConfig, WorldConfig};

fn main() {
    println!("hostprof ad_campaign — the CTR experiment (shortened)\n");

    // A week-long campaign with 100 users; the full-scale version is
    // `hostprof experiment --id E5 --scale default`.
    let cfg = ScenarioConfig {
        world: WorldConfig {
            num_sites: 800,
            num_cdns: 600,
            num_apis: 900,
            num_trackers: 180,
            ..WorldConfig::default()
        },
        population: PopulationConfig {
            num_users: 150,
            ..PopulationConfig::default()
        },
        trace: TraceConfig {
            days: 10,
            ..TraceConfig::default()
        },
        num_ads: 3000,
        ..ScenarioConfig::tiny()
    };
    let s = Scenario::generate(&cfg);
    println!(
        "setup: {} users, {} days, {} hostnames, {} ads in the database",
        s.population.len(),
        s.trace.days(),
        s.world.num_hosts(),
        s.ads.len()
    );

    let result = CtrExperiment::new(
        &s.world,
        &s.population,
        &s.trace,
        &s.ads,
        ExperimentConfig {
            pipeline: cfg.pipeline.clone(),
            // A short demo needs more eavesdropper impressions than the
            // paper's 15 % replacement rate yields, or the CTR estimate is
            // built from a handful of clicks; experiment E5 runs the full
            // rate.
            impression_prob: 0.6,
            replace_prob: 0.4,
            ..ExperimentConfig::default()
        },
    )
    .run();

    println!("\ncampaign totals:");
    println!("  impressions            {}", result.impressions);
    println!(
        "  replaced by extension  {} ({:.1}%)",
        result.replaced,
        result.replaced_fraction() * 100.0
    );
    println!(
        "  reports / profiles     {} / {}",
        result.reports, result.profiles
    );

    println!("\nclick-through rates:");
    println!(
        "  Eavesdropper ads       {:.3}%",
        result.eaves_ctr() * 100.0
    );
    println!("  Original ads           {:.3}%", result.orig_ctr() * 100.0);
    println!("  (paper: 0.217% vs 0.168%)");

    let (a, b) = result.ctr_pairs();
    match paired_t_test(&a, &b) {
        Some(t) => {
            println!("\npaired t-test over {} users:", a.len());
            println!("  t = {:.3}, p = {:.4} (two-tailed)", t.t, t.p);
            println!(
                "  → difference {} significant at p < .05 (paper: p = .11333, not significant)",
                if t.significant(0.05) { "IS" } else { "is NOT" }
            );
        }
        None => println!("\npaired t-test undefined on this short run (too few clicks)"),
    }
}
