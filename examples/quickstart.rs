//! Quickstart: profile a user from hostnames alone.
//!
//! Generates a miniature world, trains hostname embeddings on simulated
//! browsing, profiles one user's last session, and compares the inferred
//! interest categories against the synthetic ground truth the paper never
//! had access to.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hostprof::profiling::{profile_accuracy, Session};
use hostprof::scenario::{Scenario, ScenarioConfig};

fn main() {
    println!("hostprof quickstart — user profiling by a network observer\n");

    // 1. A miniature synthetic web + population + 6-day browsing trace.
    let mut cfg = ScenarioConfig::tiny();
    cfg.trace.days = 6;
    let scenario = Scenario::generate(&cfg);
    println!(
        "world: {} hostnames ({} labeled by the ontology), {} users, {} requests",
        scenario.world.num_hosts(),
        scenario.world.ontology().len(),
        scenario.population.len(),
        scenario.trace.requests().len()
    );

    // 2. Train SKIPGRAM embeddings on the first five days (the paper
    //    retrains daily on a configurable window of history).
    let pipeline = scenario.pipeline();
    let corpus = scenario.corpus(5);
    let embeddings = pipeline.train_model(&corpus).expect("trace has traffic");
    println!(
        "trained {}-d embeddings for {} hostnames\n",
        embeddings.dim(),
        embeddings.len()
    );

    // 3. Profile every user's last day-5 session and score against ground
    //    truth (the validation signal the paper had to proxy with CTR).
    let profiler = pipeline.profiler(&embeddings, scenario.world.ontology());
    let hierarchy = scenario.world.hierarchy();
    let mut scored: Vec<(f32, hostprof::synth::UserId, Session, _)> = Vec::new();
    for user in scenario.population.users() {
        let window = scenario.session_hostnames(user.id, 5);
        if window.is_empty() {
            continue;
        }
        let session = Session::from_window(
            window.iter().map(String::as_str),
            Some(pipeline.blocklist()),
        );
        let Some(profile) = profiler.profile(&session) else {
            continue;
        };
        let acc = profile_accuracy(&profile.categories, &user.interests);
        scored.push((acc, user.id, session, profile));
    }
    let mean = scored.iter().map(|(a, ..)| *a as f64).sum::<f64>() / scored.len() as f64;
    println!(
        "profiled {} users; mean profile ↔ truth cosine: {mean:.3}",
        scored.len()
    );

    // Show the sharpest profile in detail. Like the paper's Figure 3
    // observation, every profile also carries a shared background of
    // "core" categories (everyone visits the google/facebook analogues).
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let (acc, uid, session, profile) = &scored[0];
    let user = scenario.population.user(*uid);
    println!(
        "\nbest-profiled user {} — session of {} hostnames, e.g. {}",
        uid,
        session.len(),
        session.iter().take(4).collect::<Vec<_>>().join(", ")
    );
    let by_weight = |v: &hostprof::ontology::CategoryVector| {
        let mut pairs: Vec<_> = v.top_k(5).iter().collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        pairs
    };
    println!("  inferred top categories:");
    for (cat, w) in by_weight(&profile.categories) {
        println!("    {:<44} {w:.2}", hierarchy.category_name(cat));
    }
    println!("  ground-truth top interests:");
    for (cat, w) in by_weight(&user.interests) {
        println!("    {:<44} {w:.2}", hierarchy.category_name(cat));
    }
    println!("  profile ↔ truth cosine: {acc:.3}");

    println!("\ndone — see examples/ad_campaign.rs for the full CTR experiment");
}
