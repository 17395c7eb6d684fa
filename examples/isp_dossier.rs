//! The long game: an ISP's per-subscriber dossier.
//!
//! The paper profiles 20-minute sessions because its ad experiment needs
//! instantaneous interests, and §7.3 notes the darker endgame: "Profiles
//! could be sold to third parties". A network observer running for weeks
//! wouldn't keep throwing sessions away — it would fold them into a
//! standing per-user profile. This example does exactly that with
//! [`hostprof::profiling::ProfileAccumulator`]: profile every session of
//! one subscriber across days, fold them into an EWMA dossier, then apply
//! the analyst's trick the paper's Figure 3 motivates — subtract the
//! categories every subscriber shares (the crowd baseline) so the
//! individual's distinctive interests stand out.
//!
//! ```text
//! cargo run --release --example isp_dossier
//! ```

use hostprof::profiling::{profile_accuracy, ProfileAccumulator, Session};
use hostprof::scenario::{Scenario, ScenarioConfig};
use hostprof::synth::trace::DAY_MS;

fn main() {
    println!("hostprof isp_dossier — accumulating session profiles into a dossier\n");

    let mut cfg = ScenarioConfig::tiny();
    cfg.trace.days = 10;
    let s = Scenario::generate(&cfg);
    let pipeline = s.pipeline();

    // Train once on the first 5 days (a deployment would retrain daily;
    // one model keeps the example focused on accumulation).
    let embeddings = pipeline
        .train_model(&s.corpus(5))
        .expect("trace has traffic");
    let profiler = pipeline.profiler(&embeddings, s.world.ontology());

    // Pick the most active user so there are plenty of sessions.
    let user = s
        .population
        .users()
        .iter()
        .max_by(|a, b| a.sessions_per_day.partial_cmp(&b.sessions_per_day).unwrap())
        .expect("population is non-empty");
    println!(
        "subscriber {} — {:.1} sessions/day, {} ground-truth interest topics\n",
        user.id,
        user.sessions_per_day,
        user.topics.len()
    );

    // Walk days 5..10, profiling one session per report window and folding
    // it into the dossier.
    let mut dossier = ProfileAccumulator::new(0.25);
    let mut best_single = 0f32;
    println!(
        "{:<6} {:>10} {:>18} {:>18}",
        "day", "sessions", "session accuracy", "dossier accuracy"
    );
    for day in 5..s.trace.days() {
        let day_start = day as u64 * DAY_MS;
        let day_end = day_start + DAY_MS;
        // Report cadence: every 10 simulated minutes with activity.
        let mut last_report = 0u64;
        let mut day_sessions = 0usize;
        let mut day_acc = 0f64;
        let requests: Vec<_> = s
            .trace
            .user_requests(user.id)
            .filter(|r| r.t_ms >= day_start && r.t_ms < day_end)
            .cloned()
            .collect();
        for r in &requests {
            if r.t_ms < last_report + pipeline.config().report_interval_ms() {
                continue;
            }
            last_report = r.t_ms;
            let window = s
                .trace
                .window(user.id, r.t_ms, pipeline.config().session_window_ms());
            let hostnames: Vec<&str> = window.iter().map(|h| s.world.hostname(*h)).collect();
            let session =
                Session::from_window(hostnames.iter().copied(), Some(pipeline.blocklist()));
            let Some(profile) = profiler.profile(&session) else {
                continue;
            };
            let acc = profile_accuracy(&profile.categories, &user.interests);
            best_single = best_single.max(acc);
            day_acc += acc as f64;
            day_sessions += 1;
            dossier.observe(&profile.categories);
        }
        let dossier_acc = profile_accuracy(dossier.profile(), &user.interests);
        println!(
            "{:<6} {:>10} {:>18.3} {:>18.3}",
            day,
            day_sessions,
            if day_sessions > 0 {
                day_acc / day_sessions as f64
            } else {
                f64::NAN
            },
            dossier_acc
        );
    }

    let final_acc = profile_accuracy(dossier.profile(), &user.interests);
    println!(
        "\nafter {} sessions: dossier accuracy {:.3} vs best single session {:.3}",
        dossier.sessions(),
        final_acc,
        best_single
    );

    // Every profile carries the same background block (the Figure 3
    // categories shared by all users: everyone visits the core hosts).
    // An analyst removes it by subtracting the crowd baseline — profile
    // the same day for a sample of OTHER subscribers and average.
    let mut background = hostprof::ontology::CategoryVector::empty();
    let mut n_bg = 0usize;
    for other in s
        .population
        .users()
        .iter()
        .filter(|u| u.id != user.id)
        .take(15)
    {
        let window = s.session_hostnames(other.id, s.trace.days() - 1);
        if window.is_empty() {
            continue;
        }
        let session = Session::from_window(
            window.iter().map(String::as_str),
            Some(pipeline.blocklist()),
        );
        if let Some(p) = profiler.profile(&session) {
            background.add_scaled(&p.categories, 1.0);
            n_bg += 1;
        }
    }
    if n_bg > 0 {
        let mut crowd = hostprof::ontology::CategoryVector::empty();
        crowd.add_scaled(&background, 1.0 / n_bg as f32);
        let mut distinctive = dossier.profile().clone();
        distinctive.add_scaled(&crowd, -0.9); // subtract; negatives drop to 0
        let distinctive_acc = profile_accuracy(&distinctive, &user.interests);
        println!(
            "after subtracting the crowd baseline ({} subscribers): accuracy {:.3}",
            n_bg, distinctive_acc
        );
        let hierarchy = s.world.hierarchy();
        let mut pairs: Vec<_> = distinctive.iter().collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        println!(
            "distinctive interests: {}",
            pairs
                .into_iter()
                .take(4)
                .map(|(c, w)| format!("{} ({w:.2})", hierarchy.category_name(c)))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    let hierarchy = s.world.hierarchy();
    println!("\ndossier top categories vs ground truth:");
    let top = |v: &hostprof::ontology::CategoryVector| {
        let mut pairs: Vec<_> = v.iter().collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        pairs
            .into_iter()
            .take(4)
            .map(|(c, w)| format!("{} ({w:.2})", hierarchy.category_name(c)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("  dossier: {}", top(dossier.profile()));
    println!("  truth:   {}", top(&user.interests));
    println!("\nno cookie, no JavaScript, no URL was ever seen — only SNI hostnames.");
}
