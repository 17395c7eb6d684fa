//! End-to-end pipeline integration: world → trace → training → profiling,
//! validated against ground truth.

use hostprof::profiling::{profile_accuracy, Session};
use hostprof::scenario::{Scenario, ScenarioConfig};

fn scenario_with_days(days: u32) -> Scenario {
    let mut cfg = ScenarioConfig::tiny();
    cfg.trace.days = days;
    Scenario::generate(&cfg)
}

#[test]
fn profiles_beat_chance_and_cover_more_than_the_ontology_baseline() {
    let s = scenario_with_days(6);
    let pipeline = s.pipeline();
    let embeddings = pipeline
        .train_model(&s.corpus(5))
        .expect("corpus is non-empty");
    let profiler = pipeline.profiler(&embeddings, s.world.ontology());

    let mut emb_acc = Vec::new();
    let mut onto_acc = Vec::new();
    let mut emb_profiles = 0usize;
    let mut onto_profiles = 0usize;
    for user in s.population.users() {
        let window = s.session_hostnames(user.id, 5);
        if window.is_empty() {
            continue;
        }
        let session = Session::from_window(
            window.iter().map(String::as_str),
            Some(pipeline.blocklist()),
        );
        if let Some(p) = profiler.profile(&session) {
            emb_profiles += 1;
            emb_acc.push(profile_accuracy(&p.categories, &user.interests) as f64);
        }
        if let Some(p) = profiler.profile_ontology_only(&session) {
            onto_profiles += 1;
            onto_acc.push(profile_accuracy(&p.categories, &user.interests) as f64);
        }
    }
    assert!(
        emb_profiles >= 10,
        "most users get profiled ({emb_profiles})"
    );
    assert!(
        emb_profiles >= onto_profiles,
        "embedding propagation never covers fewer sessions"
    );
    let mean = emb_acc.iter().sum::<f64>() / emb_acc.len() as f64;
    // 328 categories; a random profile's cosine against sparse interests is
    // far below this.
    assert!(mean > 0.12, "mean accuracy {mean}");
}

#[test]
fn daily_retraining_changes_the_model_but_both_days_work() {
    let s = scenario_with_days(3);
    let pipeline = s.pipeline();
    let day0 = pipeline
        .train_model(&s.daily_hostname_sequences(0))
        .expect("day 0");
    let day1 = pipeline
        .train_model(&s.daily_hostname_sequences(1))
        .expect("day 1");
    // Both models embed the popular core hosts...
    let core = s.world.hostname(s.world.core_ids()[0]);
    assert!(day0.vector(core).is_some());
    assert!(day1.vector(core).is_some());
    // ...but are trained on different corpora.
    assert_ne!(
        day0.vector(core).map(<[f32]>::to_vec),
        day1.vector(core).map(<[f32]>::to_vec),
        "different days → different models"
    );
}

#[test]
fn tracker_hostnames_never_reach_profiles() {
    let s = scenario_with_days(2);
    let pipeline = s.pipeline();
    let embeddings = pipeline
        .train_model(&s.daily_hostname_sequences(0))
        .expect("day 0");
    // No blocklisted hostname may appear in the trained vocabulary.
    for h in s.world.hosts() {
        if s.world.blocklist().is_blocked(&h.name) {
            assert!(
                embeddings.vector(&h.name).is_none(),
                "blocked host {} leaked into the vocabulary",
                h.name
            );
        }
    }
}

#[test]
fn the_api_endpoint_phenomenon_reproduces() {
    // The paper's motivating example: an unlabeled API endpoint
    // (api.bkng.azure.com) must inherit the topic of the sites it is
    // co-requested with. We test the aggregate version: topic-affine API
    // hosts are, on average, closer to their own topic's sites than to
    // other sites.
    let s = scenario_with_days(6);
    let pipeline = s.pipeline();
    let embeddings = pipeline.train_model(&s.corpus(6)).expect("corpus");

    let mut same = Vec::new();
    let mut other = Vec::new();
    for api in s
        .world
        .hosts()
        .iter()
        .filter(|h| h.kind == hostprof::synth::HostKind::Api)
    {
        let Some(topic) = api.top_topic else { continue };
        if embeddings.vector(&api.name).is_none() {
            continue;
        }
        for site in s
            .world
            .hosts()
            .iter()
            .filter(|h| h.kind == hostprof::synth::HostKind::Site)
            .take(120)
        {
            let Some(cos) = embeddings.cosine(&api.name, &site.name) else {
                continue;
            };
            if site.top_topic == Some(topic) {
                same.push(cos as f64);
            } else {
                other.push(cos as f64);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(same.len() > 50 && other.len() > 50);
    assert!(
        mean(&same) > mean(&other) + 0.03,
        "API endpoints sit nearer their home topic: {} vs {}",
        mean(&same),
        mean(&other)
    );
}
