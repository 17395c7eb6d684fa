//! The month-long CTR experiment (Sections 5 and 6 of the paper).
//!
//! The driver replays a synthetic browsing trace through the full loop:
//!
//! * **daily retraining** — each simulated day profiles with a fresh
//!   SKIPGRAM model trained on the previous days' per-user sequences
//!   (§5.4); the next day's SGD runs on a second thread beside this day's
//!   (see [`CtrExperiment::run`]);
//! * **10-minute reports** — browsing activity triggers extension reports;
//!   each report profiles the user's last 20 minutes and fetches a
//!   20-ad replacement list valid for the next 10 minutes (§5.2, §5.4);
//! * **impressions** — site page views show ads served by the ad-network
//!   mix; the extension replaces an ad only when the list holds a creative
//!   of the same pixel size (§5.3);
//! * **clicks** — sampled from the ground-truth click model, giving a
//!   per-user paired CTR sample: "Original" vs "Eavesdropper" ads (§6.4);
//! * **Figure 6 bookkeeping** — daily top-level-topic histograms of visited
//!   (labeled) hostnames, of ads served by the network, and of ads chosen
//!   by the eavesdropper.

use crate::ad::{AdDatabase, AdId};
use crate::click::ClickModel;
use crate::eavesdropper::{EavesdropperSelector, SelectorConfig};
use crate::network::{AdNetwork, AdNetworkConfig};
use hostprof_core::{Pipeline, PipelineConfig, Prepared, Session};
use hostprof_synth::trace::{span_range, TraceAccess, TraceColumns, DAY_MS};
use hostprof_synth::{HostId, HostKind, Population, Trace, World};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::thread::ScopedJoinHandle;

/// Experiment parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Profiling back-end parameters (T = 20 min, reports every 10 min,
    /// gensim-default SKIPGRAM, N = 1000).
    pub pipeline: PipelineConfig,
    /// Eavesdropper ad selection (20 hosts per profile).
    pub selector: SelectorConfig,
    /// Ad-network mix and visibility.
    pub network: AdNetworkConfig,
    /// Ground-truth click behaviour.
    pub click: ClickModel,
    /// Probability that a site page view creates an ad impression.
    pub impression_prob: f64,
    /// Probability that the extension *attempts* a replacement when it has
    /// a fresh list; the attempt succeeds only if the list holds a
    /// size-matched creative. Tuned so the overall replaced share lands
    /// near the paper's 41 K / 270 K ≈ 15 %.
    pub replace_prob: f64,
    /// How many previous days feed each day's model. The paper trains on
    /// one day of 1329 heavy users (§5.4) — orders of magnitude more
    /// tokens than one synthetic day — and notes that "the amount of data
    /// used for training is configurable". A multi-day window restores the
    /// paper's per-model token budget at our scale (see
    /// `hostprof experiment --id D1` for the sensitivity sweep).
    pub training_days: u32,
    /// Worker threads for the batched report-tick profiling. Profiling
    /// consumes no randomness, so the thread count never changes results.
    pub profile_threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            selector: SelectorConfig::default(),
            network: AdNetworkConfig::default(),
            click: ClickModel::default(),
            impression_prob: 0.3,
            replace_prob: 0.155,
            training_days: 7,
            profile_threads: 4,
            seed: 0x5eed_00ad,
        }
    }
}

/// Per-user paired CTR bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserCtr {
    /// Eavesdropper-ad impressions shown to this user.
    pub eaves_impressions: u64,
    /// Clicks on eavesdropper ads.
    pub eaves_clicks: u64,
    /// Original (ad-network) impressions.
    pub orig_impressions: u64,
    /// Clicks on original ads.
    pub orig_clicks: u64,
}

impl UserCtr {
    /// CTR of eavesdropper ads (None when no impressions).
    pub fn eaves_ctr(&self) -> Option<f64> {
        (self.eaves_impressions > 0)
            .then(|| self.eaves_clicks as f64 / self.eaves_impressions as f64)
    }

    /// CTR of original ads (None when no impressions).
    pub fn orig_ctr(&self) -> Option<f64> {
        (self.orig_impressions > 0).then(|| self.orig_clicks as f64 / self.orig_impressions as f64)
    }
}

/// Everything the evaluation section needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Per-user CTR pairs, indexed by `UserId`.
    pub per_user: Vec<UserCtr>,
    /// Ads replaced by the extension (the paper's 41 K).
    pub replaced: u64,
    /// Total ad impressions (the paper's 270 K).
    pub impressions: u64,
    /// Reports sent by extensions.
    pub reports: u64,
    /// Sessions successfully profiled.
    pub profiles: u64,
    /// Models trained (one per profiled day).
    pub models_trained: u64,
    /// Daily top-level-topic mass of visited labeled hostnames
    /// (`[day][topic]`, unnormalized) — Figure 6a.
    pub daily_topics_visits: Vec<Vec<f64>>,
    /// Same for ads served by the ad-network — Figure 6b.
    pub daily_topics_original: Vec<Vec<f64>>,
    /// Same for eavesdropper ads — Figure 6c.
    pub daily_topics_eaves: Vec<Vec<f64>>,
}

impl ExperimentResult {
    /// Aggregate eavesdropper CTR.
    pub fn eaves_ctr(&self) -> f64 {
        let (i, c) = self.per_user.iter().fold((0u64, 0u64), |(i, c), u| {
            (i + u.eaves_impressions, c + u.eaves_clicks)
        });
        if i == 0 {
            0.0
        } else {
            c as f64 / i as f64
        }
    }

    /// Aggregate original-ad CTR.
    pub fn orig_ctr(&self) -> f64 {
        let (i, c) = self.per_user.iter().fold((0u64, 0u64), |(i, c), u| {
            (i + u.orig_impressions, c + u.orig_clicks)
        });
        if i == 0 {
            0.0
        } else {
            c as f64 / i as f64
        }
    }

    /// Paired per-user CTR samples (users who saw both ad kinds), as
    /// `(eavesdropper, original)` — the input to the §6.4 paired t-test.
    pub fn ctr_pairs(&self) -> (Vec<f64>, Vec<f64>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for u in &self.per_user {
            if let (Some(e), Some(o)) = (u.eaves_ctr(), u.orig_ctr()) {
                a.push(e);
                b.push(o);
            }
        }
        (a, b)
    }

    /// Fraction of impressions the extension replaced.
    pub fn replaced_fraction(&self) -> f64 {
        if self.impressions == 0 {
            0.0
        } else {
            self.replaced as f64 / self.impressions as f64
        }
    }
}

/// What the eavesdropper actually saw on the wire: its timelines, one
/// row per client IP, and each user's row. When a [`CtrExperiment`] is
/// given a view, the eavesdropper side of the loop (model training and
/// report-window profiling) reads from it instead of ground truth, while
/// the ad network, report cadence, impressions and clicks stay ground
/// truth — exactly the asymmetry a deployed defense creates (DESIGN.md
/// §15). Under NAT several users share a row, so each profiles a blended
/// household.
#[derive(Debug, Clone)]
pub struct ObservedView<'a> {
    /// Observed `(t, host)` timelines, one row per client IP.
    pub columns: &'a TraceColumns,
    /// Row of each user (indexed by `UserId`); `None` when nothing from
    /// the user's address was observed.
    pub row_of_user: Vec<Option<u32>>,
}

/// Per-user extension state during the replay.
#[derive(Debug, Clone, Default)]
struct ExtensionState {
    /// When the user last reported, advanced by each day's pre-pass.
    last_report_ms: Option<u64>,
    /// Current replacement list and its expiry.
    list: Vec<AdId>,
    list_expiry_ms: u64,
}

/// The experiment driver.
pub struct CtrExperiment<'a> {
    world: &'a World,
    population: &'a Population,
    trace: &'a Trace,
    db: &'a AdDatabase,
    config: ExperimentConfig,
    view: Option<&'a ObservedView<'a>>,
}

impl<'a> CtrExperiment<'a> {
    /// Bind the experiment inputs.
    pub fn new(
        world: &'a World,
        population: &'a Population,
        trace: &'a Trace,
        db: &'a AdDatabase,
        config: ExperimentConfig,
    ) -> Self {
        Self {
            world,
            population,
            trace,
            db,
            config,
            view: None,
        }
    }

    /// Restrict the *eavesdropper's* inputs (training corpus + report
    /// profiling windows) to an observed view; ground truth keeps driving
    /// everything else. Profiling consumes no randomness, so the RNG
    /// stream — and with it every impression/click draw — is unchanged,
    /// which makes the CTR gap attributable to the defense alone.
    pub fn with_view(mut self, view: &'a ObservedView<'a>) -> Self {
        self.view = Some(view);
        self
    }

    /// Run the replay. Day 0 is warm-up (training data only); profiling
    /// and ad serving run on days `1 .. trace.days()`. Days go in pairs:
    /// the first day of a pair prepares both days' models, hands the
    /// second's SGD pass to a scoped worker, fits its own and replays; the
    /// second day joins the worker. Results are the same bits on any
    /// number of cores.
    pub fn run(&self) -> ExperimentResult {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let pipeline = Pipeline::new(self.config.pipeline.clone(), self.world.blocklist().clone());
        let selector =
            EavesdropperSelector::new(self.db, self.world.ontology(), self.config.selector.clone());
        let mut network = AdNetwork::new(self.config.network.clone());
        let hierarchy = self.world.hierarchy();
        let n_top = hierarchy.num_top();
        let days = self.trace.days();

        let mut result = ExperimentResult {
            per_user: vec![UserCtr::default(); self.population.len()],
            replaced: 0,
            impressions: 0,
            reports: 0,
            profiles: 0,
            models_trained: 0,
            daily_topics_visits: vec![vec![0.0; n_top]; days as usize],
            daily_topics_original: vec![vec![0.0; n_top]; days as usize],
            daily_topics_eaves: vec![vec![0.0; n_top]; days as usize],
        };
        let mut ext: Vec<ExtensionState> = vec![ExtensionState::default(); self.population.len()];
        // Figure 6a's row of each host: the top-topic projection of its
        // label, if any.
        let visit_topics: Vec<Option<Vec<f32>>> = self
            .world
            .hosts()
            .iter()
            .map(|h| {
                let cats = self.world.ontology().lookup(&h.name)?;
                Some(hierarchy.project_to_top(cats))
            })
            .collect();
        // Figures 6b/6c's row of each ad: the projection of its label, if
        // it has one.
        let ad_topics: Vec<Option<Vec<f32>>> = self
            .db
            .ads()
            .iter()
            .map(|ad| ad.labeled.then(|| hierarchy.project_to_top(&ad.categories)))
            .collect();

        // Day `day`'s model, prepared from the trailing window of previous
        // days (the paper's "previous day", widened to match its token
        // budget at our synthetic scale — see `training_days`). An idle
        // training window (e.g. no browsing yesterday) leaves the
        // eavesdropper without a model: ad-network ads still run, the
        // extension just has nothing to replace them with.
        let prepare = |day: u32| {
            let window = day.saturating_sub(self.config.training_days.max(1))..day;
            match self.view {
                // The eavesdropper trains on what it observed, not on
                // ground truth.
                Some(view) => {
                    let sequences = window
                        .flat_map(|d| view.columns.daily_sequences(d, DAY_MS))
                        .map(|(_, seq)| seq)
                        .collect();
                    pipeline
                        .prepare(sequences, |id| view.columns.host_name(id))
                        .ok()
                }
                None => {
                    let sequences = window
                        .flat_map(|d| self.trace.daily_sequences(d))
                        .map(|(_, seq)| seq.into_iter().map(|h| h.0).collect())
                        .collect();
                    pipeline
                        .prepare(sequences, |id| self.world.hostname(HostId(id)))
                        .ok()
                }
            }
        };

        let requests = self.trace.requests();
        // Each model is the same sequential SGD and the replay's RNG
        // never sees training, so the schedule changes no result. Every
        // large buffer is allocated (`prepare`) and freed (`into_model`,
        // `centered`) on this thread; the worker runs `sgd` alone
        // (DESIGN.md §9.3).
        std::thread::scope(|scope| {
            // `Some(None)`: the second day of the pair has no model.
            let mut tomorrow: Option<Option<ScopedJoinHandle<'_, Prepared>>> = None;
            for day in 1..days {
                let model = match tomorrow.take() {
                    Some(worker) => worker.map(|worker| {
                        worker
                            .join()
                            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                            .into_model()
                    }),
                    None => {
                        if day + 1 < days {
                            tomorrow = Some(prepare(day + 1).map(|mut next| {
                                scope.spawn(move || {
                                    next.sgd();
                                    next
                                })
                            }));
                        }
                        prepare(day).map(Prepared::fit)
                    }
                };
                let embeddings = model.map(|model| {
                    result.models_trained += 1;
                    model.into_embeddings().centered()
                });
                let batch_profiler = embeddings.as_ref().map(|e| {
                    pipeline.batch_profiler(e, self.world.ontology(), self.config.profile_threads)
                });

                // Replay the day's requests in time order.
                let start = day as u64 * DAY_MS;
                let end = start + DAY_MS;
                let today = &requests[span_range(requests, |r| r.t_ms, start, end)];

                // Pre-pass: the report cadence depends only on request times,
                // never on the RNG, so the day's reports are decided here, up
                // front, and each user's report clock advanced. With a model,
                // each report's session is resolved as it is found and all of
                // the day's sessions are profiled in one batched,
                // multi-threaded call — what `profile_sessions` does, without
                // holding a day of owned hostnames. The replay below consumes
                // the reports by position in `today`, their profiles in order.
                let interval = self.config.pipeline.report_interval_ms();
                let w = self.config.pipeline.session_window_ms();
                let (mut due, mut hosts, mut sessions) = (Vec::new(), Vec::new(), Vec::new());
                let mut ids = Vec::new();
                for (i, r) in today.iter().enumerate() {
                    let host = self.world.host(r.host);
                    if !matches!(host.kind, HostKind::Site | HostKind::Core) {
                        continue;
                    }
                    let clock = &mut ext[r.user.index()].last_report_ms;
                    if clock.is_some_and(|t| r.t_ms < t + interval) {
                        continue;
                    }
                    *clock = Some(r.t_ms);
                    due.push(i);
                    let Some(batch) = batch_profiler.as_ref() else {
                        continue;
                    };
                    let hostnames: Vec<&str> = match self.view {
                        // The report profiles the *observed* window — decoys
                        // included, hidden hostnames gone.
                        Some(view) => {
                            ids.clear();
                            if let Some(row) = view.row_of_user[r.user.index()] {
                                view.columns.window_hosts(row, r.t_ms, w, &mut ids);
                            }
                            ids.iter().map(|&h| view.columns.host_name(h)).collect()
                        }
                        None => {
                            // Borrow-friendly two-step: ids, then names.
                            let window = self.trace.window(r.user, r.t_ms, w);
                            window.iter().map(|h| self.world.hostname(*h)).collect()
                        }
                    };
                    let session =
                        Session::from_window(hostnames.iter().copied(), Some(pipeline.blocklist()));
                    let first = hosts.len();
                    hosts.extend(session.iter().map(|h| batch.profiler().resolve(h)));
                    sessions.push(first..hosts.len());
                }
                let mut profiles = batch_profiler
                    .as_ref()
                    .map(|batch| batch.profile_resolved(&hosts, &sessions))
                    .unwrap_or_default()
                    .into_iter();
                let mut due = due.into_iter().peekable();
                for (i, r) in today.iter().enumerate() {
                    let host = self.world.host(r.host);
                    let day_idx = day as usize;

                    // Figure 6a: labeled connections by top topic.
                    if let Some(row) = &visit_topics[r.host.index()] {
                        add_topics(&mut result.daily_topics_visits[day_idx], row);
                    }

                    let is_page_visit = matches!(host.kind, HostKind::Site | HostKind::Core);
                    if !is_page_visit {
                        continue;
                    }
                    // Ad-network's tracker sees the visit (cookie profile).
                    network.observe_visit(&mut rng, r.user, r.host);

                    // The extension reports where the pre-pass said it does.
                    if due.next_if_eq(&i).is_some() {
                        result.reports += 1;
                        if let Some(Some(profile)) = profiles.next() {
                            result.profiles += 1;
                            let list = selector.select(&profile.categories);
                            if !list.is_empty() {
                                let state = &mut ext[r.user.index()];
                                state.list = list;
                                state.list_expiry_ms = r.t_ms + interval;
                            }
                        }
                    }

                    // Impression?
                    if !rng.gen_bool(self.config.impression_prob) {
                        continue;
                    }
                    let Some((orig_id, _kind)) =
                        network.serve(&mut rng, self.world, self.db, r.user, r.host)
                    else {
                        continue;
                    };
                    result.impressions += 1;
                    let orig = self.db.ad(orig_id);

                    // Replacement decision: fresh list + size match.
                    let state = &mut ext[r.user.index()];
                    let fresh = !state.list.is_empty() && r.t_ms <= state.list_expiry_ms;
                    let replacement = if fresh && rng.gen_bool(self.config.replace_prob) {
                        state
                            .list
                            .iter()
                            .copied()
                            .find(|id| self.db.ad(*id).size == orig.size)
                    } else {
                        None
                    };

                    let user = self.population.user(r.user);
                    let ctr = &mut result.per_user[r.user.index()];
                    match replacement {
                        Some(eaves_id) => {
                            let ad = self.db.ad(eaves_id);
                            result.replaced += 1;
                            ctr.eaves_impressions += 1;
                            if self.config.click.clicks(&mut rng, user, ad) {
                                ctr.eaves_clicks += 1;
                            }
                            if let Some(row) = &ad_topics[eaves_id.index()] {
                                add_topics(&mut result.daily_topics_eaves[day_idx], row);
                            }
                        }
                        None => {
                            ctr.orig_impressions += 1;
                            if self.config.click.clicks(&mut rng, user, orig) {
                                ctr.orig_clicks += 1;
                            }
                            if let Some(row) = &ad_topics[orig_id.index()] {
                                add_topics(&mut result.daily_topics_original[day_idx], row);
                            }
                        }
                    }
                }
            }
        });
        result
    }
}

/// Add one top-topic row (`Hierarchy::project_to_top`) to a day's
/// histogram.
fn add_topics(acc: &mut [f64], row: &[f32]) {
    for (a, &w) in acc.iter_mut().zip(row) {
        *a += w as f64;
    }
}

/// Normalize a daily topic histogram to percentage shares (rows summing to
/// 100, all-zero rows left as zeros). Shared by the Figure 6 binaries.
pub fn to_percent_shares(daily: &[Vec<f64>]) -> Vec<Vec<f64>> {
    daily
        .iter()
        .map(|row| {
            let total: f64 = row.iter().sum();
            if total <= 0.0 {
                row.clone()
            } else {
                row.iter().map(|v| v / total * 100.0).collect()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostprof_embed::SkipGramConfig;
    use hostprof_synth::{PopulationConfig, TraceConfig, WorldConfig};

    fn tiny_experiment() -> ExperimentResult {
        tiny_experiment_at(ExperimentConfig::default().profile_threads)
    }

    fn tiny_experiment_at(profile_threads: usize) -> ExperimentResult {
        let world = World::generate(&WorldConfig::tiny());
        let pop = Population::generate(&world, &PopulationConfig::tiny());
        let trace = Trace::generate(
            &world,
            &pop,
            &TraceConfig {
                days: 3,
                ..TraceConfig::tiny()
            },
        );
        let db = AdDatabase::generate(&world, 600, 31);
        let config = ExperimentConfig {
            pipeline: PipelineConfig {
                skipgram: SkipGramConfig {
                    epochs: 3,
                    dim: 24,
                    subsample: 0.0,
                    ..SkipGramConfig::default()
                },
                ..PipelineConfig::default()
            },
            profile_threads,
            ..Default::default()
        };
        CtrExperiment::new(&world, &pop, &trace, &db, config).run()
    }

    /// FNV-1a over every field of a result, floats as bits.
    fn fingerprint(r: &ExperimentResult) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for u in &r.per_user {
            for v in [
                u.eaves_impressions,
                u.eaves_clicks,
                u.orig_impressions,
                u.orig_clicks,
            ] {
                eat(v);
            }
        }
        for v in [
            r.replaced,
            r.impressions,
            r.reports,
            r.profiles,
            r.models_trained,
        ] {
            eat(v);
        }
        for rows in [
            &r.daily_topics_visits,
            &r.daily_topics_original,
            &r.daily_topics_eaves,
        ] {
            for v in rows.iter().flatten() {
                eat(v.to_bits());
            }
        }
        h
    }

    /// Training a day ahead on a second thread changes no result: the
    /// fingerprints below were recorded with every day trained and then
    /// replayed in turn on one thread. Four trace days are a pair of days
    /// and a lone last day, five are two pairs.
    #[test]
    fn the_day_ahead_schedule_reproduces_training_in_turn() {
        let world = World::generate(&WorldConfig::tiny());
        let pop = Population::generate(&world, &PopulationConfig::tiny());
        let db = AdDatabase::generate(&world, 600, 31);
        for (days, models, want) in [(4, 3, 0x888b_5230_d0a8_be6c), (5, 4, 0x8e16_5c06_5932_bc90)] {
            let trace = Trace::generate(
                &world,
                &pop,
                &TraceConfig {
                    days,
                    ..TraceConfig::tiny()
                },
            );
            let config = ExperimentConfig {
                pipeline: PipelineConfig {
                    skipgram: SkipGramConfig {
                        epochs: 3,
                        dim: 24,
                        subsample: 0.0,
                        ..SkipGramConfig::default()
                    },
                    ..PipelineConfig::default()
                },
                training_days: 2,
                ..Default::default()
            };
            let r = CtrExperiment::new(&world, &pop, &trace, &db, config).run();
            assert_eq!(r.models_trained, models, "{days} days");
            assert_eq!(fingerprint(&r), want, "{days} days");
        }
    }

    #[test]
    fn experiment_produces_both_ad_populations() {
        let r = tiny_experiment();
        assert!(r.impressions > 100, "impressions {}", r.impressions);
        assert!(r.replaced > 0, "some ads replaced");
        assert!(r.replaced < r.impressions, "not everything replaced");
        assert!(r.reports > 0);
        assert!(r.profiles > 0);
        assert_eq!(r.models_trained, 2, "days 1 and 2 trained");
    }

    #[test]
    fn replacement_preserves_creative_size_by_construction() {
        // Structural property validated through counts: replaced ≤ eaves
        // impressions equality.
        let r = tiny_experiment();
        let eaves: u64 = r.per_user.iter().map(|u| u.eaves_impressions).sum();
        assert_eq!(eaves, r.replaced);
    }

    #[test]
    fn ctrs_are_probabilities_and_pairs_align() {
        let r = tiny_experiment();
        assert!((0.0..=1.0).contains(&r.eaves_ctr()));
        assert!((0.0..=1.0).contains(&r.orig_ctr()));
        let (a, b) = r.ctr_pairs();
        assert_eq!(a.len(), b.len());
        for v in a.iter().chain(&b) {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn topic_histograms_cover_profiled_days_only() {
        let r = tiny_experiment();
        assert!(
            r.daily_topics_visits[0].iter().all(|&v| v == 0.0),
            "day 0 is warm-up"
        );
        let day1: f64 = r.daily_topics_visits[1].iter().sum();
        assert!(day1 > 0.0, "labeled visits recorded on day 1");
        let shares = to_percent_shares(&r.daily_topics_visits);
        let s: f64 = shares[1].iter().sum();
        assert!((s - 100.0).abs() < 1e-6);
    }

    #[test]
    fn replaced_fraction_is_moderate() {
        let r = tiny_experiment();
        let f = r.replaced_fraction();
        assert!(f > 0.02 && f < 0.6, "replaced fraction {f}");
    }

    #[test]
    fn experiment_is_deterministic() {
        let a = tiny_experiment();
        let b = tiny_experiment();
        assert_eq!(a.per_user, b.per_user);
        assert_eq!(a.replaced, b.replaced);
    }

    /// `profile_threads` is documented not to change results: the whole
    /// result, histograms as bits, at 1, 2 and 4 threads.
    #[test]
    fn the_thread_count_never_changes_results() {
        fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
            rows.iter()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect()
        }
        let one = tiny_experiment_at(1);
        assert!(one.profiles > 0);
        for threads in [2, 4] {
            let r = tiny_experiment_at(threads);
            assert_eq!(r.per_user, one.per_user, "{threads} threads");
            assert_eq!(
                (
                    r.replaced,
                    r.impressions,
                    r.reports,
                    r.profiles,
                    r.models_trained
                ),
                (
                    one.replaced,
                    one.impressions,
                    one.reports,
                    one.profiles,
                    one.models_trained
                ),
                "{threads} threads"
            );
            assert_eq!(bits(&r.daily_topics_visits), bits(&one.daily_topics_visits));
            assert_eq!(
                bits(&r.daily_topics_original),
                bits(&one.daily_topics_original)
            );
            assert_eq!(bits(&r.daily_topics_eaves), bits(&one.daily_topics_eaves));
        }
    }

    #[test]
    fn ground_truth_view_reproduces_the_plain_experiment_bitwise() {
        let world = World::generate(&WorldConfig::tiny());
        let pop = Population::generate(&world, &PopulationConfig::tiny());
        let trace = Trace::generate(
            &world,
            &pop,
            &TraceConfig {
                days: 3,
                ..TraceConfig::tiny()
            },
        );
        let db = AdDatabase::generate(&world, 600, 31);
        let config = ExperimentConfig {
            pipeline: PipelineConfig {
                skipgram: SkipGramConfig {
                    epochs: 3,
                    dim: 24,
                    subsample: 0.0,
                    ..SkipGramConfig::default()
                },
                ..PipelineConfig::default()
            },
            ..Default::default()
        };
        // A view that mirrors ground truth exactly: one row per user,
        // every request visible.
        let columns = hostprof_synth::generate_columnar(
            &world,
            &pop,
            &TraceConfig {
                days: 3,
                ..TraceConfig::tiny()
            },
        );
        let view = ObservedView {
            columns: &columns,
            row_of_user: (0..pop.len() as u32).map(Some).collect(),
        };
        let plain = CtrExperiment::new(&world, &pop, &trace, &db, config.clone()).run();
        let viewed = CtrExperiment::new(&world, &pop, &trace, &db, config)
            .with_view(&view)
            .run();
        assert_eq!(plain.per_user, viewed.per_user);
        assert_eq!(plain.replaced, viewed.replaced);
        assert_eq!(plain.profiles, viewed.profiles);
        assert_eq!(plain.daily_topics_eaves, viewed.daily_topics_eaves);
    }
}
