//! Finding mirror sites by embedding similarity.
//!
//! Section 6.2 of the paper observes that sports-streaming hostnames
//! (rojadirecta.me, arenavision2018.tk, …) cluster tightly in embedding
//! space even when they were never co-requested, and speculates the
//! technique "could be used to identify websites hosting illegal streaming
//! [...] as those services frequently move to new hostnames in order to
//! evade justice".
//!
//! This example plays that analyst workflow: start from ONE known
//! streaming site, query the embedding space, and measure how many of the
//! returned neighbors are other sites of the same ground-truth topic —
//! without using the ontology at all.
//!
//! ```text
//! cargo run --release --example streaming_hunter
//! ```

use hostprof::scenario::{Scenario, ScenarioConfig};
use hostprof::synth::{HostKind, TraceConfig};

fn main() {
    println!("hostprof streaming_hunter — embedding-space mirror discovery\n");

    // More days = better embeddings (see experiment D1's sweep).
    let cfg = ScenarioConfig {
        trace: TraceConfig {
            days: 8,
            ..TraceConfig::default()
        },
        ..ScenarioConfig::tiny()
    };
    let s = Scenario::generate(&cfg);
    let pipeline = s.pipeline();
    let corpus = s.corpus(s.trace.days());
    let embeddings = pipeline.train_model(&corpus).expect("trace has traffic");

    // The analyst's seed: the most popular Sports site (our stand-in for
    // rojadirecta-style streaming hosts).
    let hierarchy = s.world.hierarchy();
    let sports = hierarchy
        .top_ids()
        .find(|t| hierarchy.top_name(*t) == "Sports")
        .expect("Sports topic exists");
    let seed = s
        .world
        .hosts()
        .iter()
        .filter(|h| {
            h.kind == HostKind::Site
                && h.top_topic == Some(sports)
                && embeddings.vector(&h.name).is_some()
        })
        .max_by(|a, b| a.popularity.partial_cmp(&b.popularity).unwrap())
        .expect("a sports site was browsed");

    println!("seed hostname: {} (topic: Sports)\n", seed.name);
    println!("nearest neighbors in embedding space:");
    println!("  {:<36} {:>8}  ground-truth topic", "hostname", "cosine");

    let neighbors = embeddings.most_similar(&seed.name, 15);
    let mut same_topic = 0usize;
    let mut judged = 0usize;
    for (name, sim) in &neighbors {
        let topic = s
            .world
            .host_id_by_name(name)
            .map(|id| s.world.host(id))
            .and_then(|h| h.top_topic)
            .map(|t| hierarchy.top_name(t).to_string())
            .unwrap_or_else(|| "-".into());
        let mark = if topic == "Sports" {
            "◄ mirror candidate"
        } else {
            ""
        };
        if topic != "-" {
            judged += 1;
            if topic == "Sports" {
                same_topic += 1;
            }
        }
        println!("  {name:<36} {sim:>8.3}  {topic:<26} {mark}");
    }

    let sports_sites = s
        .world
        .hosts()
        .iter()
        .filter(|h| h.kind == HostKind::Site && h.top_topic == Some(sports))
        .count();
    let base_rate = sports_sites as f64 / s.world.config().num_sites as f64;
    println!(
        "\nhit rate: {same_topic}/{judged} same-topic (random baseline ≈ {:.0}%)",
        base_rate * 100.0
    );
    println!("the embedding finds topical siblings with no label, no URL, no page content —");
    println!("only co-request structure observed from encrypted traffic");
}
