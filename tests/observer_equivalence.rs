//! The observer channel is faithful: profiling from wire-recovered
//! hostname sequences gives exactly the same result as profiling from the
//! ground-truth trace (when no countermeasure is active), and degrades in
//! the specific ways §7.2/§7.4 of the paper describe.

use hostprof::bridge::{ObservedTrace, ObserverScenario};
use hostprof::profiling::Session;
use hostprof::scenario::{Scenario, ScenarioConfig};

fn small_scenario() -> Scenario {
    let mut cfg = ScenarioConfig::tiny();
    cfg.trace.days = 2;
    cfg.population.num_users = 10;
    Scenario::generate(&cfg)
}

#[test]
fn observed_sessions_profile_identically_to_ground_truth_sessions() {
    let s = small_scenario();
    let scenario = ObserverScenario::per_user();
    let observed = ObservedTrace::capture(&s.world, &s.trace, &scenario, None);

    let pipeline = s.pipeline();
    let embeddings = pipeline
        .train_model(&s.daily_hostname_sequences(0))
        .expect("day 0");
    let profiler = pipeline.profiler(&embeddings, s.world.ontology());

    let mut compared = 0usize;
    for user in s.population.users() {
        // Ground-truth session: last 20 minutes of the user's activity.
        let window_truth = s.session_hostnames(user.id, 1);
        if window_truth.is_empty() {
            continue;
        }
        // Observer-side session: same window cut from the wire capture.
        let ip = ObservedTrace::address_of(&scenario, user.id);
        let Some(seq) = observed.sequences.get(&ip) else {
            continue;
        };
        let end = seq
            .iter()
            .map(|(t, _)| *t)
            .filter(|t| *t < 2 * hostprof::synth::trace::DAY_MS)
            .max()
            .unwrap_or(0);
        let start = end.saturating_sub(s.config.pipeline.session_window_ms());
        let window_wire: Vec<&str> = seq
            .iter()
            .filter(|(t, _)| *t > start && *t <= end)
            .map(|(_, h)| h.as_str())
            .collect();

        let sess_truth = Session::from_window(
            window_truth.iter().map(String::as_str),
            Some(pipeline.blocklist()),
        );
        let sess_wire =
            Session::from_window(window_wire.iter().copied(), Some(pipeline.blocklist()));
        assert_eq!(sess_truth, sess_wire, "user {}", user.id);

        let p_truth = profiler.profile(&sess_truth);
        let p_wire = profiler.profile(&sess_wire);
        match (p_truth, p_wire) {
            (Some(a), Some(b)) => {
                assert_eq!(a.categories, b.categories, "user {}", user.id);
                compared += 1;
            }
            (None, None) => {}
            _ => panic!("profile existence must agree for user {}", user.id),
        }
    }
    assert!(compared >= 5, "enough users compared ({compared})");
}

#[test]
fn a_model_trained_on_observed_data_is_usable() {
    let s = small_scenario();
    let observed = ObservedTrace::capture(&s.world, &s.trace, &ObserverScenario::per_user(), None);
    let pipeline = s.pipeline();
    let embeddings = pipeline
        .train_model(&observed.observed_sequences(u64::MAX))
        .expect("observed corpus trains");
    // The observed vocabulary covers the same non-blocked hostname set.
    let truth_model = pipeline
        .train_model(&s.corpus(2))
        .expect("truth corpus trains");
    assert_eq!(embeddings.len(), truth_model.len(), "same vocabulary size");
}

#[test]
fn nat_mixing_degrades_profile_specificity() {
    let s = small_scenario();
    let pipeline = s.pipeline();
    let embeddings = pipeline
        .train_model(&s.daily_hostname_sequences(0))
        .expect("day 0");
    let profiler = pipeline.profiler(&embeddings, s.world.ontology());

    let clean = ObserverScenario::per_user();
    let nat = ObserverScenario::behind_nat(5);
    let obs_clean = ObservedTrace::capture(&s.world, &s.trace, &clean, None);
    let obs_nat = ObservedTrace::capture(&s.world, &s.trace, &nat, None);

    // Compare the accuracy of user 0's profile when their traffic is
    // isolated vs mixed with 4 other users.
    let user = &s.population.users()[0];
    let profile_from = |seq: &[(u64, String)]| {
        let hosts: Vec<&str> = seq.iter().map(|(_, h)| h.as_str()).collect();
        let session = Session::from_window(hosts.iter().copied(), Some(pipeline.blocklist()));
        profiler.profile(&session).map(|p| p.categories)
    };
    let ip_clean = ObservedTrace::address_of(&clean, user.id);
    let ip_nat = ObservedTrace::address_of(&nat, user.id);
    let acc_clean = profile_from(&obs_clean.sequences[&ip_clean])
        .map(|c| c.cosine(&user.interests))
        .unwrap_or(0.0);
    let acc_nat = profile_from(&obs_nat.sequences[&ip_nat])
        .map(|c| c.cosine(&user.interests))
        .unwrap_or(0.0);
    // Mixing 5 users can only blur one user's signal (allow tiny slack for
    // coincidentally-aligned flatmates).
    assert!(
        acc_nat <= acc_clean + 0.05,
        "NAT profile ({acc_nat}) should not beat the isolated profile ({acc_clean})"
    );
}
