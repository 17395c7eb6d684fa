//! Defense evaluation: degradation curves for the §15 countermeasures.
//!
//! One [`DefenseEvaluator`] owns a generated scenario plus the
//! undefended baseline artifacts; [`DefenseEvaluator::eval_point`] runs
//! a single `(defense, intensity)` through the full pipeline — defended
//! capture → skipgram training on what was observed → kNN profiling of
//! the final day → optional CTR experiment on the observed view — and
//! reports the four curve metrics:
//!
//! * **recovery %** — ground-truth requests whose `(client IP, time,
//!   hostname)` triple the observer recovered, multiset-matched so
//!   injected decoys can't stand in for real observations;
//! * **purity** — k-NN top-topic purity of the trained embedding over
//!   in-world labeled hostnames ([`embedding_quality`]);
//! * **divergence** — per-user `1 − cosine` between the defended
//!   profile and the undefended baseline profile (1.0 when the defense
//!   erases the user's profile entirely);
//! * **CTR gap** — eavesdropper-ad CTR minus ad-network CTR from a
//!   [`CtrExperiment`] whose eavesdropper side reads the observed view.
//!
//! Every identity point (`ech@0`, `dummy@0`, `nat@1`, …) reuses the
//! exact undefended packet stream, and `eval_point` records whether the
//! defended capture came out bit-equal to the baseline — the flag the
//! schema tests and golden replays pin.

use crate::bridge::{ObservedTrace, ObserverScenario};
use crate::scenario::Scenario;
use hostprof_ads::{CtrExperiment, ExperimentConfig, ObservedView};
use hostprof_defense::{Defense, DefensePlan, HostCatalog};
use hostprof_embed::EmbeddingSet;
use hostprof_ontology::CategoryVector;
use hostprof_stats::cluster_quality;
use hostprof_synth::trace::{TraceAccess, DAY_MS};
use hostprof_synth::World;
use serde::Serialize;
use std::collections::HashMap;

/// The six defense axes, in report order.
pub const DEFENSE_NAMES: [&str; 6] = ["ech", "dummy", "pad_constant", "pad_adaptive", "nat", "doh"];

/// A defense at a CLI-unit intensity: `ech`/`doh` take adoption in
/// percent (0–100), `dummy`/`pad_adaptive` a mean rate, `pad_constant`
/// a per-event count, `nat` a pool size.
pub fn defense_at(name: &str, value: f64) -> Option<Defense> {
    Some(match name {
        "ech" => Defense::Ech {
            adoption: value / 100.0,
        },
        "dummy" => Defense::Dummy { rate: value },
        "pad_constant" => Defense::PadConstant {
            pad_per_event: value.round().max(0.0) as u32,
        },
        "pad_adaptive" => Defense::PadAdaptive { intensity: value },
        "nat" => Defense::Nat {
            users_per_ip: value.round().max(1.0) as u32,
        },
        "doh" => Defense::Doh {
            adoption: value / 100.0,
        },
        _ => return None,
    })
}

/// The default sweep (CLI units) per defense — identity point first,
/// ≥ 5 points each.
pub fn default_sweep(name: &str) -> Option<Vec<f64>> {
    Some(match name {
        "ech" | "doh" => vec![0.0, 25.0, 50.0, 75.0, 100.0],
        "dummy" | "pad_adaptive" => vec![0.0, 0.5, 1.0, 2.0, 4.0],
        "pad_constant" => vec![0.0, 1.0, 2.0, 4.0, 8.0],
        "nat" => vec![1.0, 2.0, 4.0, 8.0, 16.0],
        _ => return None,
    })
}

/// Popularity catalog of every world hostname (rank 0 = most popular,
/// host-id tiebreak) — the shared ranking all defenses draw from.
pub fn catalog_for_world(world: &World) -> HostCatalog {
    HostCatalog::from_hosts(
        world
            .hosts()
            .iter()
            .map(|h| (h.id.0, h.name.clone(), h.popularity)),
    )
}

/// One point on a degradation curve.
#[derive(Debug, Clone, Serialize)]
pub struct CurvePoint {
    /// Sweep intensity in CLI units (percent for `ech`/`doh`).
    pub intensity: f64,
    /// Ground-truth requests recovered on the wire, percent (multiset
    /// `(ip, t, host)` matching — decoys can't inflate it).
    pub recovery_pct: f64,
    /// k-NN top-topic purity of the eavesdropper's embedding.
    pub purity: f64,
    /// Mean per-user `1 − cosine` between defended and baseline
    /// profiles (0 at identity, 1 when profiles are erased).
    pub divergence: f64,
    /// Mean profile accuracy vs ground-truth interests.
    pub mean_accuracy: f64,
    /// Final-day sessions scored (user-weighted, as in §7.2).
    pub sessions_profiled: usize,
    /// Eavesdropper-ad CTR (0 when the CTR stage is skipped).
    pub eaves_ctr: f64,
    /// Ad-network CTR on the same days.
    pub orig_ctr: f64,
    /// `eaves_ctr − orig_ctr`: the attacker's edge; shrinks as the
    /// defense bites.
    pub ctr_gap: f64,
    /// `Some(true)` when this is the defense's identity point and the
    /// defended capture came out bit-equal to the undefended baseline.
    pub identity_bit_equal: Option<bool>,
}

/// A whole swept axis.
#[derive(Debug, Clone, Serialize)]
pub struct DefenseCurve {
    /// Defense name (`ech`, `dummy`, …).
    pub defense: String,
    /// Points in sweep order, identity first.
    pub points: Vec<CurvePoint>,
}

/// Undefended artifacts every point is compared against.
struct Baseline {
    obs: ObservedTrace,
    /// Final-day session profile per row of `obs`.
    profiles: Vec<Option<CategoryVector>>,
}

/// Shared evaluation state: scenario, observer vantage, baseline.
pub struct DefenseEvaluator<'a> {
    s: &'a Scenario,
    observer: ObserverScenario,
    catalog: HostCatalog,
    plan_seed: u64,
    /// Run the CTR experiment per point (the expensive stage).
    pub with_ctr: bool,
    /// Worker threads for batched profiling inside the CTR stage.
    pub profile_threads: usize,
    baseline: Baseline,
}

impl<'a> DefenseEvaluator<'a> {
    /// Build the evaluator and its undefended baseline.
    pub fn new(s: &'a Scenario, plan_seed: u64) -> Self {
        let observer = ObserverScenario::per_user();
        let obs = ObservedTrace::capture(&s.world, &s.trace, &observer, None);
        let profiles = final_day_profiles(s, &obs, train_before_eval_day(s, &obs).as_ref());
        Self {
            s,
            observer,
            catalog: catalog_for_world(&s.world),
            plan_seed,
            with_ctr: true,
            profile_threads: 4,
            baseline: Baseline { obs, profiles },
        }
    }

    /// The plan for one `(defense name, CLI intensity)` point.
    pub fn plan(&self, name: &str, intensity: f64) -> Option<DefensePlan> {
        let defense = defense_at(name, intensity)?;
        Some(DefensePlan::new(
            defense,
            self.catalog.clone(),
            self.plan_seed,
        ))
    }

    /// Evaluate one sweep point end to end.
    pub fn eval_point(&self, name: &str, intensity: f64) -> Option<CurvePoint> {
        let plan = self.plan(name, intensity)?;
        let s = self.s;
        let obs = ObservedTrace::capture(&s.world, &s.trace, &self.observer, Some(&plan));

        // The flat encoding is byte-stable: equal bytes, equal stores.
        let identity_bit_equal = plan.defense().is_identity().then(|| {
            let base = &self.baseline.obs;
            obs.clients == base.clients
                && obs.columns.to_flat_bytes() == base.columns.to_flat_bytes()
                && obs.observer_stats == base.observer_stats
        });

        let recovery_pct = self.recovery_pct(&obs);

        let embeddings = train_before_eval_day(s, &obs);
        let top_topic = |host: &str| {
            let topic = s.world.host(s.world.host_id_by_name(host)?).top_topic?;
            Some(topic.index())
        };
        let purity = embeddings
            .as_ref()
            .map(|e| embedding_quality(e, top_topic).0)
            .unwrap_or(0.0);
        let defended_profiles = final_day_profiles(s, &obs, embeddings.as_ref());
        let (divergence, mean_accuracy, sessions_profiled) =
            self.score_profiles(&obs, &defended_profiles);

        let (eaves_ctr, orig_ctr) = if self.with_ctr {
            self.ctr_point(&obs)
        } else {
            (0.0, 0.0)
        };

        Some(CurvePoint {
            intensity,
            recovery_pct,
            purity,
            divergence,
            mean_accuracy,
            sessions_profiled,
            eaves_ctr,
            orig_ctr,
            ctr_gap: eaves_ctr - orig_ctr,
            identity_bit_equal,
        })
    }

    /// Sweep each of `names` over `sweep`, or over its [`default_sweep`]
    /// — the one sweep loop behind `hostprof defend` and experiment E9.
    pub fn eval_curves(
        &self,
        names: &[&str],
        sweep: Option<&[f64]>,
    ) -> Result<Vec<DefenseCurve>, String> {
        let curve = |name: &&str| {
            let default = default_sweep(name)?;
            let sweep = sweep.unwrap_or(&default).iter();
            let points: Option<Vec<CurvePoint>> =
                sweep.map(|&x| self.eval_point(name, x)).collect();
            let defense = name.to_string();
            points.map(|points| DefenseCurve { defense, points })
        };
        let known = DEFENSE_NAMES.join(", ");
        let unknown = |name| format!("unknown defense '{name}' (expected all or one of: {known})");
        let curves = names
            .iter()
            .map(|name| curve(name).ok_or_else(|| unknown(name)));
        curves.collect()
    }

    /// Multiset `(client IP, t_ms, host id)` recovery: each observation
    /// can redeem at most one ground-truth request with the same triple,
    /// so cover traffic never counts and hidden hostnames always cost.
    /// A world hostname's id is its `HostId` in both, so the triple
    /// compares ids.
    fn recovery_pct(&self, obs: &ObservedTrace) -> f64 {
        let s = self.s;
        let total = s.trace.requests().len();
        if total == 0 {
            return 0.0;
        }
        let mut gt: HashMap<(u32, u64, u32), u32> = HashMap::with_capacity(total);
        for r in s.trace.requests() {
            let ip = obs.addressing.client_ip(r.user.0);
            *gt.entry((ip, r.t_ms, r.host.0)).or_default() += 1;
        }
        let mut matched = 0usize;
        for (row, &ip) in obs.clients.iter().enumerate() {
            let row = row as u32;
            let (times, hosts) = (obs.columns.user_times(row), obs.columns.user_hosts(row));
            for (&t, &h) in times.iter().zip(hosts) {
                if let Some(c) = gt.get_mut(&(ip, t as u64, h)) {
                    if *c > 0 {
                        *c -= 1;
                        matched += 1;
                    }
                }
            }
        }
        matched as f64 / total as f64 * 100.0
    }

    /// Divergence vs baseline, accuracy vs ground truth, per user.
    fn score_profiles(
        &self,
        obs: &ObservedTrace,
        defended: &[Option<CategoryVector>],
    ) -> (f64, f64, usize) {
        let s = self.s;
        let mut div = 0f64;
        let mut div_n = 0usize;
        let mut acc = 0f64;
        let mut acc_n = 0usize;
        for u in s.population.users() {
            let (base, def) = (self.baseline.obs.row_of(u.id), obs.row_of(u.id));
            let b = base.and_then(|r| self.baseline.profiles[r as usize].as_ref());
            let d = def.and_then(|r| defended[r as usize].as_ref());
            match (b, d) {
                (Some(b), Some(d)) => {
                    div += (1.0 - b.cosine(d) as f64).max(0.0);
                    div_n += 1;
                    acc += hostprof_core::profile_accuracy(d, &u.interests) as f64;
                    acc_n += 1;
                }
                // The defense erased this user's final-day profile —
                // maximal divergence, no accuracy sample.
                (Some(_), None) => {
                    div += 1.0;
                    div_n += 1;
                }
                (None, _) => {}
            }
        }
        (
            if div_n > 0 { div / div_n as f64 } else { 0.0 },
            if acc_n > 0 { acc / acc_n as f64 } else { 0.0 },
            acc_n,
        )
    }

    /// CTR experiment over the observed view. The seed and every
    /// ground-truth draw are fixed across points, so the gap moves only
    /// with the eavesdropper's degraded inputs.
    fn ctr_point(&self, obs: &ObservedTrace) -> (f64, f64) {
        let s = self.s;
        let rows = s.population.users().iter().map(|u| obs.row_of(u.id));
        let view = ObservedView {
            columns: &obs.columns,
            row_of_user: rows.collect(),
        };
        let config = ExperimentConfig {
            pipeline: s.config.pipeline.clone(),
            training_days: 2,
            profile_threads: self.profile_threads,
            seed: self.plan_seed ^ 0x0c7_99a9,
            ..ExperimentConfig::default()
        };
        let r = CtrExperiment::new(&s.world, &s.population, &s.trace, &s.ads, config)
            .with_view(&view)
            .run();
        (r.eaves_ctr(), r.orig_ctr())
    }
}

/// The tokens of `emb` that `topic_of` labels, in vocabulary order:
/// row-major vectors, and a ground-truth topic and the token per point.
pub fn labeled_points(
    emb: &EmbeddingSet,
    topic_of: impl Fn(&str) -> Option<usize>,
) -> (Vec<f32>, Vec<usize>, Vec<&str>) {
    let (mut points, mut labels, mut names) = (Vec::new(), Vec::new(), Vec::new());
    for (idx, token) in emb.vocab().iter() {
        if let Some(topic) = topic_of(token) {
            points.extend_from_slice(emb.vector_by_index(idx));
            labels.push(topic);
            names.push(token);
        }
    }
    (points, labels, names)
}

/// `(purity, baseline, intra, inter)` of the [`labeled_points`]: same-topic
/// neighbor purity @10, its label-frequency baseline and the intra/inter
/// cosine gap — the one embedding-quality evaluation (experiments E3 and
/// D1, and every defense sweep point).
pub fn embedding_quality(
    emb: &EmbeddingSet,
    topic_of: impl Fn(&str) -> Option<usize>,
) -> (f64, f64, f64, f64) {
    let (points, labels, _) = labeled_points(emb, topic_of);
    cluster_quality(&points, emb.dim(), &labels, 10)
}

/// The eavesdropper's model: trained on everything it observed before
/// the final (evaluation) day; `None` when the defense starves training.
fn train_before_eval_day(s: &Scenario, obs: &ObservedTrace) -> Option<EmbeddingSet> {
    let eval_start = (s.trace.days() - 1) as u64 * DAY_MS;
    obs.train(&s.pipeline(), eval_start).ok()
}

/// Profile each row's last final-day session against `embeddings`
/// (shared by baseline and defended paths so the two sides differ only
/// in their inputs); all `None` when there is no model. The session
/// ends at the row's last observation if that falls at or after the
/// final day's start, with no upper bound: a request spilled past the
/// trace's end still anchors it (DESIGN.md §15.2).
fn final_day_profiles(
    s: &Scenario,
    obs: &ObservedTrace,
    embeddings: Option<&EmbeddingSet>,
) -> Vec<Option<CategoryVector>> {
    let rows = 0..obs.clients.len() as u32;
    let Some(embeddings) = embeddings else {
        return rows.map(|_| None).collect();
    };
    let pipeline = s.pipeline();
    let profiler = pipeline.profiler(embeddings, s.world.ontology());
    let eval_start = (s.trace.days() - 1) as u64 * DAY_MS;
    let window_ms = pipeline.config().session_window_ms();
    let mut window = Vec::new();
    let profile = |row| {
        let last = obs.columns.user_times(row).last().map(|&t| t as u64);
        let end = last.filter(|&t| t >= eval_start)?;
        window.clear();
        obs.columns.window_hosts(row, end, window_ms, &mut window);
        let window = window.iter().map(|&h| obs.columns.host_name(h));
        let session = hostprof_core::Session::from_window(window, Some(pipeline.blocklist()));
        Some(profiler.profile(&session)?.categories)
    };
    rows.map(profile).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use hostprof_synth::trace::TraceColumnsBuilder;
    use hostprof_synth::world_interner;

    fn tiny() -> Scenario {
        let mut cfg = ScenarioConfig::tiny();
        cfg.trace.days = 3;
        cfg.population.num_users = 10;
        Scenario::generate(&cfg)
    }

    #[test]
    fn identity_points_report_bit_equality_and_zero_divergence() {
        let s = tiny();
        let mut ev = DefenseEvaluator::new(&s, 42);
        ev.with_ctr = false;
        for name in DEFENSE_NAMES {
            let identity = default_sweep(name).unwrap()[0];
            let p = ev.eval_point(name, identity).unwrap();
            assert_eq!(p.identity_bit_equal, Some(true), "{name}");
            assert!(p.divergence < 1e-6, "{name}: divergence {}", p.divergence);
        }
    }

    #[test]
    fn ech_sweep_degrades_recovery_monotonically() {
        let s = tiny();
        let mut ev = DefenseEvaluator::new(&s, 42);
        ev.with_ctr = false;
        let curves = ev.eval_curves(&["ech"], Some(&[0.0, 50.0, 100.0])).unwrap();
        let r: Vec<f64> = curves[0].points.iter().map(|p| p.recovery_pct).collect();
        assert!(r[0] > 99.0, "baseline recovery {}", r[0]);
        assert!(r[1] < r[0] && r[2] <= r[1], "{r:?}");
        assert!(r[2] < 1.0, "full ECH blinds the observer: {}", r[2]);
        assert!(ev.eval_curves(&["vpn"], None).is_err(), "no such axis");
    }

    #[test]
    fn decoys_never_inflate_recovery() {
        let s = tiny();
        let mut ev = DefenseEvaluator::new(&s, 42);
        ev.with_ctr = false;
        let base = ev.eval_point("dummy", 0.0).unwrap().recovery_pct;
        let heavy = ev.eval_point("dummy", 4.0).unwrap().recovery_pct;
        assert!(
            heavy <= base + 1e-9,
            "decoys inflated recovery: {heavy} > {base}"
        );
    }

    #[test]
    fn final_day_window_keeps_an_observation_stamped_zero() {
        let mut cfg = ScenarioConfig::tiny();
        cfg.trace.days = 1;
        let s = Scenario::generate(&cfg);
        let embeddings = s
            .pipeline()
            .train_model(&s.daily_hostname_sequences(0))
            .unwrap();
        // One client whose session opens at `first_ms`; the window ends at
        // its last observation, well inside T of the epoch. Distinct
        // in-vocabulary hosts, so dropping the first one is visible.
        let mut hosts = s.session_hostnames(hostprof_synth::UserId(0), 0);
        hosts.retain(|h| embeddings.vector(h).is_some());
        hosts.sort();
        hosts.dedup();
        let profile_with_first_at = |first_ms: u64, skip: usize| {
            let mut columns = TraceColumnsBuilder::new(world_interner(&s.world), 1);
            for (i, h) in hosts.iter().enumerate().skip(skip) {
                let t = if i == 0 { first_ms } else { 1_000 + i as u64 };
                columns.push_named_event(0, t, h, 0);
            }
            let obs = ObservedTrace {
                columns: columns.finish(1),
                clients: vec![7],
                addressing: ObserverScenario::per_user().synthesizer.addressing,
                observer_stats: Default::default(),
                flow_stats: Default::default(),
                chaos_stats: None,
                ground_truth_requests: hosts.len(),
            };
            final_day_profiles(&s, &obs, Some(&embeddings)).remove(0)
        };
        let at_epoch = profile_with_first_at(0, 0).expect("session has signal");
        assert_eq!(Some(&at_epoch), profile_with_first_at(1, 0).as_ref());
        assert_ne!(Some(&at_epoch), profile_with_first_at(1, 1).as_ref());
    }

    #[test]
    fn unknown_defense_is_rejected() {
        assert!(defense_at("vpn", 1.0).is_none());
        assert!(default_sweep("vpn").is_none());
    }
}
