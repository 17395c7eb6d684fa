//! Deterministic end-to-end replay: one seed in, one byte-stable
//! snapshot out.
//!
//! `hostprof replay --seed S --golden tests/golden/` re-runs a pinned
//! miniature of the full paper pipeline — synthetic world → passive
//! observation → session windows → skipgram embeddings → Eq. 3/4
//! profiles → CTR experiment → paired t-test — and either compares the
//! resulting [`ReplaySnapshot`] against the committed golden JSON or
//! (with `--bless`) rewrites it. The online-update schedule
//! ([`UpdateSnapshot`]) and the defense schedule ([`DefenseSnapshot`])
//! are checked the same way: all three implement [`GoldenSchedule`], and
//! everything that reads, writes or compares a golden is generic over it.
//!
//! ## The determinism contract
//!
//! The snapshot must be **byte-identical** across every execution knob
//! that is not supposed to change observable results:
//!
//! * `{1, 4}` ingest lanes — window content is lane-invariant (the
//!   streaming-equivalence contract);
//! * `{1, 4}` profiling threads — profiling consumes no randomness and
//!   the batch profiler is pinned bit-equal to the sequential path.
//!
//! The skipgram kernel is not a knob: the replay trains at `dim = 3`,
//! where every SIMD kernel takes its scalar tail path from element 0, so
//! production kernel and scalar reference are the *same* sequence of f32
//! operations (where they differ, `crates/embed/tests/properties.rs` pins
//! their agreement at `dim = 17`). Nor are the knobs that legitimately
//! change results (dim ≥ 4 re-associates the portable dot product's
//! 4-accumulator reduction; `threads ≥ 2` makes Hogwild racy by design).
//! The conformance suite (`tests/replay_conformance.rs`) runs the full
//! 2×2 matrix over every schedule and asserts byte equality; per-stage
//! FNV digests give a stage-attributed diff the moment any future
//! optimization drifts.

use crate::bridge::{ObservedTrace, ObserverScenario};
use crate::scenario::{Scenario, ScenarioConfig};
use hostprof_ads::{CtrExperiment, ExperimentConfig, ExperimentResult};
use hostprof_core::{
    ModelVersion, Pipeline, ServeConfig, ServeEngine, Session, SessionProfile, TickReport,
    VersionedModel,
};
use hostprof_defense::{Defense, DefensePlan};
use hostprof_embed::{EmbeddingSet, SkipGram, SkipGramConfig};
use hostprof_stats::paired_t_test;
use hostprof_synth::trace::DAY_MS;
use hostprof_synth::UserId;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::ops::RangeBounds;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Execution knobs for one replay. Everything here is REQUIRED to leave
/// the snapshot byte-identical; the seed alone decides the output.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Master seed, mixed into every generator.
    pub seed: u64,
    /// Worker threads for batched profiling ({1, 4} in CI).
    pub profile_threads: usize,
    /// Test hook: add `delta` to flat embedding weight `index` after
    /// training, to prove the suite fails with a model-stage diff.
    pub perturb_embedding: Option<(usize, f32)>,
}

impl ReplayOptions {
    /// Default knobs for a seed: 1 profile thread.
    pub fn for_seed(seed: u64) -> Self {
        Self {
            seed,
            profile_threads: 1,
            perturb_embedding: None,
        }
    }
}

/// A pinned schedule whose snapshot is committed under `tests/golden/`.
/// The CLI (`replay --golden`, `serve --golden`), CI and the conformance
/// suite run, bless and compare every schedule through this one trait.
pub trait GoldenSchedule: Serialize + DeserializeOwned + Sized {
    /// File stem: the golden lives at `DIR/{STEM}_seed_{S}.json`.
    const STEM: &'static str;

    /// Run the schedule for `opts.seed`, serving through `lanes` ingest
    /// lanes. The canonical (blessed) run is single-lane; every other
    /// lane count must reproduce it.
    fn run(opts: &ReplayOptions, lanes: usize) -> Result<Self, String>;

    /// Stage-attributed differences from `self` (the expectation) to
    /// `actual`, in pipeline order. Empty means byte-equivalent content.
    fn diff(&self, actual: &Self) -> Vec<String>;

    /// One line describing a snapshot, for the CLI's OK message.
    fn summary(&self) -> String;

    /// `DIR/{STEM}_seed_{S}.json`.
    fn golden_path(dir: &Path, seed: u64) -> PathBuf {
        dir.join(format!("{}_seed_{seed}.json", Self::STEM))
    }

    /// The canonical golden JSON form (pretty, with a trailing newline —
    /// byte-stable for byte-stable content).
    fn to_golden_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self)
            .map(|s| s + "\n")
            .map_err(|e| format!("serialize {} snapshot: {e:?}", Self::STEM))
    }

    /// Parse a golden JSON file's contents.
    fn from_golden_json(contents: &str) -> Result<Self, String> {
        serde_json::from_str(contents).map_err(|e| format!("parse {} golden: {e:?}", Self::STEM))
    }
}

/// Append `"{what}: {e} vs {a}"` when the two differ.
fn diff_field<T: PartialEq + Display>(diffs: &mut Vec<String>, what: &str, e: T, a: T) {
    if e != a {
        diffs.push(format!("{what}: {e} vs {a}"));
    }
}

/// [`diff_field`] as `"{what} {name}"` over two equally ordered lists of
/// named fields.
fn diff_fields<T: PartialEq + Display>(
    diffs: &mut Vec<String>,
    what: &str,
    expected: &[(&str, T)],
    actual: &[(&str, T)],
) {
    for ((name, e), (_, a)) in expected.iter().zip(actual) {
        diff_field(diffs, &format!("{what} {name}"), e, a);
    }
}

/// One category weight of a final profile (id order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryWeight {
    pub id: u16,
    pub weight: f32,
}

/// Final-day profile of one user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserProfileSnapshot {
    pub user: u32,
    pub categories: Vec<CategoryWeight>,
    pub labeled_in_session: u64,
    pub labeled_neighbors: u64,
}

impl UserProfileSnapshot {
    fn new(user: u32, p: &SessionProfile) -> Self {
        Self {
            user,
            categories: p
                .categories
                .iter()
                .map(|(c, w)| CategoryWeight { id: c.0, weight: w })
                .collect(),
            labeled_in_session: p.labeled_in_session as u64,
            labeled_neighbors: p.labeled_neighbors as u64,
        }
    }
}

/// One row of the CTR table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserCtrSnapshot {
    pub user: u32,
    pub eaves_impressions: u64,
    pub eaves_clicks: u64,
    pub orig_impressions: u64,
    pub orig_clicks: u64,
}

/// Paired t-test over the per-user CTR pairs (`valid = false` when the
/// test is undefined, e.g. degenerate variance).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TTestSnapshot {
    pub valid: bool,
    pub t: f64,
    pub df: f64,
    pub p: f64,
    pub mean_diff: f64,
}

/// FNV-1a-64 digests of every intermediate stage, hex-encoded (JSON
/// numbers cannot carry u64 losslessly). Stage order is pipeline order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageDigests {
    /// Synthetic browsing trace (t_ms, user, host) stream.
    pub trace: String,
    /// Hostname sequences recovered by the passive observer.
    pub observed: String,
    /// Per-(user, day) session windows after dedup + blocklist.
    pub sessions: String,
    /// Trained embedding matrix (token order + weight bits).
    pub model: String,
    /// Final-day profiles (category ids + weight bits).
    pub profiles: String,
    /// CTR experiment outcome (impression/click table + totals).
    pub ctr: String,
}

impl StageDigests {
    fn named(&self) -> [(&'static str, &str); 6] {
        [
            ("trace", &self.trace),
            ("observed", &self.observed),
            ("sessions", &self.sessions),
            ("model", &self.model),
            ("profiles", &self.profiles),
            ("ctr", &self.ctr),
        ]
    }
}

/// The golden snapshot: everything `hostprof replay` promises to keep
/// byte-stable for a given seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplaySnapshot {
    pub seed: u64,
    pub users: u64,
    pub days: u64,
    pub hosts: u64,
    pub stages: StageDigests,
    pub profiles: Vec<UserProfileSnapshot>,
    pub ctr: Vec<UserCtrSnapshot>,
    pub ctr_test: TTestSnapshot,
}

/// Streaming FNV-1a 64-bit digest with length-prefixed framing.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_f32(&mut self, v: f32) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// A profile's category ids and weight bits, then its session vector.
    fn write_profile(&mut self, p: &SessionProfile) {
        self.write_u64(p.categories.len() as u64);
        for (c, w) in p.categories.iter() {
            self.write_u64(c.0 as u64);
            self.write_f32(w);
        }
        for &x in &p.session_vector {
            self.write_f32(x);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// An embedding set: dimensionality, vocabulary order, raw weight bits.
    fn of_embeddings(embeddings: &EmbeddingSet) -> String {
        let mut d = Self::new();
        d.write_u64(embeddings.dim() as u64);
        d.write_u64(embeddings.len() as u64);
        for idx in 0..embeddings.len() as u32 {
            d.write_str(embeddings.vocab().token(idx));
            for &x in embeddings.vector_by_index(idx) {
                d.write_f32(x);
            }
        }
        d.hex()
    }

    /// A tick stream: boundary, serving version, and every entry's
    /// profile bits. `compute_micros` is wall clock and deliberately
    /// absent.
    fn of_ticks(ticks: &[TickReport], base_ip: u32) -> String {
        let mut d = Self::new();
        for t in ticks {
            d.write_u64(t.boundary);
            d.write_u64(t.model_seq);
            d.write_u64(t.entries.len() as u64);
            for e in &t.entries {
                d.write_u64(e.user.wrapping_sub(base_ip) as u64);
                d.write_u64(e.anchor);
                match &e.profile {
                    None => d.write_u64(0),
                    Some(p) => {
                        d.write_u64(1);
                        d.write_profile(p);
                    }
                }
            }
        }
        d.hex()
    }
}

/// The pinned replay scenario: tiny world, 12 users, 3 days, `dim = 3`
/// single-thread training (see the determinism contract above).
pub fn replay_scenario_config(opts: &ReplayOptions) -> ScenarioConfig {
    let mix = |salt: u64| -> u64 {
        let mut x = opts
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        x ^= x >> 31;
        x
    };
    let mut cfg = ScenarioConfig::tiny();
    cfg.world.seed = mix(1);
    cfg.population.num_users = 12;
    cfg.population.seed = mix(2);
    cfg.trace.days = 3;
    cfg.trace.seed = mix(3);
    cfg.ads_seed = mix(4);
    cfg.pipeline.skipgram = SkipGramConfig {
        dim: 3,
        window: 2,
        negatives: 3,
        epochs: 2,
        learning_rate: 0.025,
        min_count: 1,
        subsample: 0.0,
        threads: 1,
        seed: mix(5),
        ..SkipGramConfig::default()
    };
    cfg.pipeline.profiler.n_neighbors = 20;
    cfg
}

/// One generated instance of the pinned scenario, seen from the clean
/// per-user vantage every schedule observes and serves through.
struct Pinned {
    s: Scenario,
    pipeline: Pipeline,
    wire: ObserverScenario,
    /// Wire address of trace user 0: `ip − base_ip` is the trace user id.
    base_ip: u32,
}

impl Pinned {
    fn generate(opts: &ReplayOptions) -> Self {
        let s = Scenario::generate(&replay_scenario_config(opts));
        let wire = ObserverScenario::per_user();
        Self {
            pipeline: s.pipeline(),
            base_ip: ObservedTrace::address_of(&wire, UserId(0)),
            s,
            wire,
        }
    }

    fn serve_config(&self, lanes: usize, collect_windows: bool) -> ServeConfig {
        ServeConfig {
            lanes,
            session_window_ms: self.pipeline.config().session_window_ms(),
            report_interval_ms: self.pipeline.config().report_interval_ms(),
            collect_windows,
            ..ServeConfig::default()
        }
    }

    /// The one replay driver: lower the ground-truth trace (through
    /// `plan`, if any) and push every packet of the events stamped inside
    /// `when` through `engine`, returning the ticks that fired.
    ///
    /// Packets are delivered event by event in trace order, so each
    /// user's observation order equals their trace order (TCP fragments
    /// of a request complete before the next request's packets arrive) —
    /// the precondition for bit-identical windows. Cross-request timestamp
    /// disorder is at most the 2 ms fragment spread, far inside the
    /// default lateness bound.
    fn drive(
        &self,
        engine: &mut ServeEngine<'_>,
        plan: Option<&DefensePlan>,
        when: impl RangeBounds<u64>,
    ) -> Vec<TickReport> {
        let mut ticks = Vec::new();
        let bursts = self.wire.lower(&self.s.world, &self.s.trace, plan);
        for (_, burst) in bursts.filter(|(t_ms, _)| when.contains(t_ms)) {
            for pkt in &burst {
                ticks.extend(engine.ingest_packet(pkt));
            }
        }
        ticks
    }

    /// Stream the whole (optionally defended) trace through an engine
    /// bound to one fixed model; every tick fired, flush included.
    fn serve_fixed(
        &self,
        embeddings: &EmbeddingSet,
        opts: &ReplayOptions,
        lanes: usize,
        plan: Option<&DefensePlan>,
    ) -> Vec<TickReport> {
        let ontology = self.s.world.ontology();
        let profiler = self
            .pipeline
            .batch_profiler(embeddings, ontology, opts.profile_threads);
        let blocklist = Some(self.pipeline.blocklist());
        let mut engine = ServeEngine::new(self.serve_config(lanes, false), profiler, blocklist);
        let mut ticks = self.drive(&mut engine, plan, ..);
        ticks.extend(engine.flush());
        ticks
    }
}

impl GoldenSchedule for ReplaySnapshot {
    const STEM: &'static str = "replay";

    /// Run the full pipeline for one seed and snapshot every stage. Stage
    /// 5 (final-day profiles) is computed twice — by the batch pipeline
    /// and by streaming the packets through a [`ServeEngine`] with `lanes`
    /// ingest lanes — and the run fails unless the two agree bit for bit:
    /// the serving loop is only correct if incremental windowing,
    /// watermark ticks and per-lane observers reproduce the batch path.
    fn run(opts: &ReplayOptions, lanes: usize) -> Result<Self, String> {
        let p = Pinned::generate(opts);
        let s = &p.s;

        // Stage 1: the ground-truth trace.
        let mut d = Digest::new();
        for r in s.trace.requests() {
            d.write_u64(r.t_ms);
            d.write_u64(r.user.0 as u64);
            d.write_u64(r.host.0 as u64);
        }
        let trace_digest = d.hex();

        // Stage 2: passive observation (per-user addressing, no chaos).
        let observed = ObservedTrace::capture(&s.world, &s.trace, &p.wire, None);
        let mut d = Digest::new();
        for seq in observed.sequences.values() {
            d.write_u64(seq.len() as u64);
            for (_, h) in seq {
                d.write_str(h);
            }
        }
        let observed_digest = d.hex();

        // Stage 3: per-(user, day) session windows.
        let mut sessions: Vec<(u32, u32, Session)> = Vec::new();
        let mut d = Digest::new();
        for u in 0..s.population.len() as u32 {
            for day in 0..s.trace.days() {
                let names = s.session_hostnames(UserId(u), day);
                if names.is_empty() {
                    continue;
                }
                let session = Session::from_window(
                    names.iter().map(|h| h.as_str()),
                    Some(p.pipeline.blocklist()),
                );
                d.write_u64(u as u64);
                d.write_u64(day as u64);
                d.write_u64(session.hostnames().len() as u64);
                for h in session.hostnames() {
                    d.write_str(h);
                }
                sessions.push((u, day, session));
            }
        }
        let sessions_digest = d.hex();

        // Stage 4: train the embedding space on the whole trace.
        let mut embeddings = p.pipeline.train_model(&s.corpus(s.trace.days()))?;
        if let Some((index, delta)) = opts.perturb_embedding {
            let dim = embeddings.dim();
            let mut flat = Vec::with_capacity(embeddings.len() * dim);
            for idx in 0..embeddings.len() as u32 {
                flat.extend_from_slice(embeddings.vector_by_index(idx));
            }
            if let Some(x) = flat.get_mut(index) {
                *x += delta;
            }
            embeddings = EmbeddingSet::new(dim, embeddings.vocab().clone(), flat);
        }
        let model_digest = Digest::of_embeddings(&embeddings);

        // Stage 5: profile the final day's sessions — batch, then streaming.
        let final_day = s.trace.days().saturating_sub(1);
        let profiler =
            p.pipeline
                .batch_profiler(&embeddings, s.world.ontology(), opts.profile_threads);
        let (day_users, day_sessions): (Vec<u32>, Vec<Session>) = sessions
            .into_iter()
            .filter(|&(_, day, _)| day == final_day)
            .map(|(u, _, session)| (u, session))
            .unzip();
        let batch = final_profiles(
            day_users
                .into_iter()
                .zip(profiler.profile_sessions(&day_sessions)),
        );

        let ticks = p.serve_fixed(&embeddings, opts, lanes, None);
        // Each user's final-day profile is the one attached to their *last*
        // tick anchor inside that day.
        let day_start = final_day as u64 * DAY_MS;
        let in_day = day_start..day_start + DAY_MS;
        let streamed = final_profiles(latest_profiles(ticks, p.base_ip, in_day));
        if streamed != batch {
            return Err(format!(
                "stage profiles: streaming ({lanes} lanes) diverged from batch: digest {} vs {}",
                streamed.1, batch.1
            ));
        }
        let (profiles, profiles_digest) = batch;

        // Stage 6: the CTR experiment + paired t-test.
        let experiment = CtrExperiment::new(
            &s.world,
            &s.population,
            &s.trace,
            &s.ads,
            ExperimentConfig {
                pipeline: s.config.pipeline.clone(),
                profile_threads: opts.profile_threads,
                seed: s.config.ads_seed ^ 0x00ad_5eed,
                ..ExperimentConfig::default()
            },
        );
        let result = experiment.run();
        let (ctr, ctr_test) = snapshot_ctr(&result);
        let mut d = Digest::new();
        for row in &ctr {
            d.write_u64(row.user as u64);
            d.write_u64(row.eaves_impressions);
            d.write_u64(row.eaves_clicks);
            d.write_u64(row.orig_impressions);
            d.write_u64(row.orig_clicks);
        }
        d.write_u64(result.replaced);
        d.write_u64(result.impressions);
        d.write_u64(result.reports);
        d.write_u64(result.profiles);
        d.write_u64(result.models_trained);
        d.write_f64(ctr_test.t);
        d.write_f64(ctr_test.p);
        let ctr_digest = d.hex();

        Ok(ReplaySnapshot {
            seed: opts.seed,
            users: s.population.len() as u64,
            days: s.trace.days() as u64,
            hosts: s.world.num_hosts() as u64,
            stages: StageDigests {
                trace: trace_digest,
                observed: observed_digest,
                sessions: sessions_digest,
                model: model_digest,
                profiles: profiles_digest,
                ctr: ctr_digest,
            },
            profiles,
            ctr,
            ctr_test,
        })
    }

    fn diff(&self, actual: &Self) -> Vec<String> {
        let mut diffs = Vec::new();
        diff_field(&mut diffs, "config seed", self.seed, actual.seed);
        diff_fields(
            &mut diffs,
            "stage",
            &self.stages.named(),
            &actual.stages.named(),
        );
        for (e, a) in self.profiles.iter().zip(&actual.profiles) {
            if e != a {
                diffs.push(format!("profiles: user{} differs", e.user));
            }
        }
        let users = (self.profiles.len(), actual.profiles.len());
        diff_field(&mut diffs, "profiles users", users.0, users.1);
        if self.ctr != actual.ctr {
            diffs.push("ctr: per-user table differs".into());
        }
        if self.ctr_test != actual.ctr_test {
            diffs.push("ctr: t-test differs".into());
        }
        diffs
    }

    fn summary(&self) -> String {
        format!(
            "{} profiles, {} CTR rows, streaming profiles equal to batch",
            self.profiles.len(),
            self.ctr.len()
        )
    }
}

/// Each user's last profile among the tick entries anchored inside `when`,
/// keyed by trace user id. Anchors only grow across ticks, so plain insert
/// keeps the latest.
fn latest_profiles(
    ticks: Vec<TickReport>,
    base_ip: u32,
    when: impl RangeBounds<u64>,
) -> BTreeMap<u32, Option<SessionProfile>> {
    let mut latest = BTreeMap::new();
    for e in ticks.into_iter().flat_map(|t| t.entries) {
        if when.contains(&e.anchor) {
            latest.insert(e.user.wrapping_sub(base_ip), e.profile);
        }
    }
    latest
}

/// Snapshot and digest the users that got a profile (user order).
fn final_profiles(
    per_user: impl IntoIterator<Item = (u32, Option<SessionProfile>)>,
) -> (Vec<UserProfileSnapshot>, String) {
    let mut profiles = Vec::new();
    let mut d = Digest::new();
    for (u, profile) in per_user {
        let Some(p) = profile else {
            continue;
        };
        d.write_u64(u as u64);
        d.write_profile(&p);
        profiles.push(UserProfileSnapshot::new(u, &p));
    }
    (profiles, d.hex())
}

fn snapshot_ctr(result: &ExperimentResult) -> (Vec<UserCtrSnapshot>, TTestSnapshot) {
    let ctr = result
        .per_user
        .iter()
        .enumerate()
        .map(|(u, c)| UserCtrSnapshot {
            user: u as u32,
            eaves_impressions: c.eaves_impressions,
            eaves_clicks: c.eaves_clicks,
            orig_impressions: c.orig_impressions,
            orig_clicks: c.orig_clicks,
        })
        .collect();
    let (a, b) = result.ctr_pairs();
    let test = paired_t_test(&a, &b)
        .map(|t| TTestSnapshot {
            valid: true,
            t: t.t,
            df: t.df,
            p: t.p,
            mean_diff: t.mean_diff,
        })
        .unwrap_or_default();
    (ctr, test)
}

// ---------------------------------------------------------------------------
// The update schedule: {train → serve → incremental update → serve}
// ---------------------------------------------------------------------------

/// FNV digests of every stage of the online-update schedule, pipeline
/// order (DESIGN.md §14).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateStageDigests {
    /// Model trained on day 0 only (token order + weight bits).
    pub base_model: String,
    /// Ticks served against version 1 while day 1 streamed.
    pub serve_pre: String,
    /// The harvested update corpus (closed windows, tick order).
    pub update_corpus: String,
    /// Model after the incremental update (grown vocab + resumed SGD).
    pub grown_model: String,
    /// Ticks served against version 2 from the swap to the flush.
    pub serve_post: String,
}

impl UpdateStageDigests {
    fn named(&self) -> [(&'static str, &str); 5] {
        [
            ("base_model", &self.base_model),
            ("serve_pre", &self.serve_pre),
            ("update_corpus", &self.update_corpus),
            ("grown_model", &self.grown_model),
            ("serve_post", &self.serve_post),
        ]
    }
}

/// The golden snapshot of one online-update schedule: day 0 trains the
/// base model, day 1 streams against version 1 while its closed windows
/// are harvested, the harvest drives one [`SkipGram::update`] whose
/// result publishes as version 2, and day 2 streams against it. Byte-
/// stable across lanes and profile threads — same contract as
/// [`ReplaySnapshot`], plus: every tick records which version served it,
/// so the swap point itself is pinned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateSnapshot {
    pub seed: u64,
    /// Vocabulary size of the day-0 model.
    pub base_vocab: u64,
    /// Vocabulary size after the incremental update.
    pub grown_vocab: u64,
    /// Hostnames appended by the update (ids of existing ones unmoved).
    pub appended_tokens: u64,
    /// Update-corpus sequences that reached SGD (≥ 2 in-vocab tokens).
    pub trained_sequences: u64,
    /// Whether the negative table was rebuilt by the update's policy.
    pub table_rebuilt: bool,
    /// Ticks fired while day 1 streamed (served by version 1).
    pub ticks_pre: u64,
    /// Ticks fired after the hot swap (served by version 2).
    pub ticks_post: u64,
    pub stages: UpdateStageDigests,
    /// Final post-swap profile per user (trace user ids).
    pub profiles: Vec<UserProfileSnapshot>,
}

impl GoldenSchedule for UpdateSnapshot {
    const STEM: &'static str = "update";

    /// Run the {train → serve → incremental-update → serve} schedule.
    ///
    /// Determinism leans on three already-pinned properties: window
    /// *content* is lane-invariant (the streaming-equivalence contract),
    /// the harvest order is tick order then user order (also lane-
    /// invariant), and the update trains with one Hogwild worker.
    fn run(opts: &ReplayOptions, lanes: usize) -> Result<Self, String> {
        let p = Pinned::generate(opts);
        let s = &p.s;
        if s.trace.days() < 3 {
            return Err("update schedule needs ≥ 3 trace days".into());
        }

        // Stage 1: base model, day 0 only — the update must have genuinely
        // unseen hostnames left to grow into on later days.
        let mut model =
            SkipGram::train(&s.daily_hostname_sequences(0), &s.config.pipeline.skipgram)?;
        let base_vocab = model.vocab().len() as u64;

        // Version 1 goes live. Each version's embeddings are copied out of
        // the model once: digested, then moved into the bundle.
        let ontology = Arc::new(s.world.ontology().clone());
        let version = |seq: u64, model: &SkipGram| {
            let embeddings = model.embeddings();
            let digest = Digest::of_embeddings(&embeddings);
            let profiler = s.config.pipeline.profiler.clone();
            let bundle = ModelVersion::build(seq, embeddings, Arc::clone(&ontology), profiler);
            (bundle, digest)
        };
        let (v1, base_model_digest) = version(1, &model);
        let versioned = VersionedModel::new(v1);
        let mut engine = ServeEngine::with_versioned(
            p.serve_config(lanes, true),
            &versioned,
            opts.profile_threads,
            Some(p.pipeline.blocklist()),
        );

        // Stage 2: stream day 1 against version 1.
        let swap_at = 2 * DAY_MS;
        let pre_ticks = p.drive(&mut engine, None, DAY_MS..swap_at);

        // Stage 3: harvest whatever windows the watermark has closed so
        // far — the online trainer's corpus. Lane-invariant by construction.
        let windows = engine.take_closed_windows();
        let mut d = Digest::new();
        d.write_u64(windows.len() as u64);
        for w in &windows {
            d.write_u64(w.user.wrapping_sub(p.base_ip) as u64);
            d.write_u64(w.anchor);
            d.write_u64(w.window.len() as u64);
            for h in &w.window {
                d.write_str(h);
            }
        }
        let update_corpus_digest = d.hex();
        let update_corpus: Vec<Vec<String>> = windows.into_iter().map(|w| w.window).collect();

        // Stage 4: the incremental update — vocab growth, stable remapping,
        // table policy, SGD resumed from the live weights.
        let report = model.update(&update_corpus);

        // The hot swap: build version 2 and publish. In the live path the
        // build runs off-thread; here build-then-publish between two ingest
        // calls is the same observable schedule (a tick is served entirely
        // by whichever version its fire time loaded).
        let (v2, grown_model_digest) = version(2, &model);
        versioned.publish(v2);

        // Stage 5: stream day 2 against version 2, then flush the tail.
        let mut post_ticks = p.drive(&mut engine, None, swap_at..);
        post_ticks.extend(engine.flush());

        // Every pre tick was served by version 1, every post tick by 2 —
        // the snapshot's own invariant, checked here rather than trusted.
        for (ticks, seq, side) in [(&pre_ticks, 1, "pre"), (&post_ticks, 2, "post")] {
            if let Some(t) = ticks.iter().find(|t| t.model_seq != seq) {
                return Err(format!(
                    "{side}-swap tick at {} served by version {}",
                    t.boundary, t.model_seq
                ));
            }
        }

        let ticks_post = post_ticks.len() as u64;
        let serve_post_digest = Digest::of_ticks(&post_ticks, p.base_ip);
        // Final profile per user across the post-swap ticks.
        let (profiles, _) = final_profiles(latest_profiles(post_ticks, p.base_ip, ..));

        Ok(UpdateSnapshot {
            seed: opts.seed,
            base_vocab,
            grown_vocab: model.vocab().len() as u64,
            appended_tokens: report.appended_tokens as u64,
            trained_sequences: report.trained_sequences as u64,
            table_rebuilt: report.table_rebuilt,
            ticks_pre: pre_ticks.len() as u64,
            ticks_post,
            stages: UpdateStageDigests {
                base_model: base_model_digest,
                serve_pre: Digest::of_ticks(&pre_ticks, p.base_ip),
                update_corpus: update_corpus_digest,
                grown_model: grown_model_digest,
                serve_post: serve_post_digest,
            },
            profiles,
        })
    }

    fn diff(&self, actual: &Self) -> Vec<String> {
        let counters = |s: &Self| {
            [
                ("base_vocab", s.base_vocab),
                ("grown_vocab", s.grown_vocab),
                ("appended_tokens", s.appended_tokens),
                ("trained_sequences", s.trained_sequences),
                ("ticks_pre", s.ticks_pre),
                ("ticks_post", s.ticks_post),
                ("table_rebuilt", s.table_rebuilt as u64),
            ]
        };
        let mut diffs = Vec::new();
        diff_field(&mut diffs, "config seed", self.seed, actual.seed);
        diff_fields(
            &mut diffs,
            "stage",
            &self.stages.named(),
            &actual.stages.named(),
        );
        diff_fields(&mut diffs, "counter", &counters(self), &counters(actual));
        if self.profiles != actual.profiles {
            diffs.push("profiles: final post-swap profiles differ".into());
        }
        diffs
    }

    fn summary(&self) -> String {
        format!(
            "vocab {} → {} (+{}), {} profiles",
            self.base_vocab,
            self.grown_vocab,
            self.appended_tokens,
            self.profiles.len()
        )
    }
}

// ---------------------------------------------------------------------------
// The defense schedule: every §15 defense through capture → train → serve
// ---------------------------------------------------------------------------

/// Digests of one defended pipeline case (DESIGN.md §15).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseCaseDigests {
    /// Case name (`baseline`, `identity_ech0`, `ech50`, …).
    pub name: String,
    /// Observations the eavesdropper recovered in this case.
    pub observations: u64,
    /// Per-client observed sequences after the defense.
    pub observed: String,
    /// Skipgram model trained on the defended observations (`none` when
    /// the defense starves training below viability).
    pub model: String,
    /// Tick stream of the defended packets through [`ServeEngine`].
    pub serve: String,
}

impl DefenseCaseDigests {
    fn named(&self) -> [(&'static str, &str); 3] {
        [
            ("observed", &self.observed),
            ("model", &self.model),
            ("serve", &self.serve),
        ]
    }
}

/// The golden snapshot of the defense schedule: the undefended baseline
/// plus one representative point per defense axis, each run capture →
/// train → streaming serve on the pinned replay scenario. Byte-stable
/// across {1, 4} lanes × {1, 4} profile threads — the
/// same contract as [`ReplaySnapshot`] — and the `identity_ech0` case is
/// checked *in-run* to be bit-equal to `baseline` (the defended code
/// path at an identity point must reproduce the undefended pipeline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseSnapshot {
    pub seed: u64,
    /// Cases in fixed schedule order.
    pub cases: Vec<DefenseCaseDigests>,
}

/// The fixed defense-schedule case list (`None` = undefended).
const DEFENSE_SCHEDULE: [(&str, Option<Defense>); 8] = [
    ("baseline", None),
    ("identity_ech0", Some(Defense::Ech { adoption: 0.0 })),
    ("ech50", Some(Defense::Ech { adoption: 0.5 })),
    ("dummy1", Some(Defense::Dummy { rate: 1.0 })),
    ("pad2", Some(Defense::PadConstant { pad_per_event: 2 })),
    ("adaptive1", Some(Defense::PadAdaptive { intensity: 1.0 })),
    ("nat4", Some(Defense::Nat { users_per_ip: 4 })),
    ("doh50", Some(Defense::Doh { adoption: 0.5 })),
];

impl GoldenSchedule for DefenseSnapshot {
    const STEM: &'static str = "defense";

    /// Run the defense schedule.
    ///
    /// Determinism: defended event streams are stable time sorts of a
    /// deterministic transform, training runs with one Hogwild worker,
    /// and serving inherits the lane-invariance contract — decoys share
    /// their client's IP, so they ride the same lane as the traffic they
    /// cover.
    fn run(opts: &ReplayOptions, lanes: usize) -> Result<Self, String> {
        let p = Pinned::generate(opts);
        let s = &p.s;
        let catalog = crate::defend::catalog_for_world(&s.world);

        let mut cases = Vec::new();
        for (name, defense) in DEFENSE_SCHEDULE {
            let plan =
                defense.map(|d| DefensePlan::new(d, catalog.clone(), opts.seed ^ 0x00de_f5ed));

            // Capture what survives the defense.
            let observed = ObservedTrace::capture(&s.world, &s.trace, &p.wire, plan.as_ref());
            let mut d = Digest::new();
            let mut observations = 0u64;
            for (ip, seq) in &observed.sequences {
                d.write_u64(*ip as u64);
                d.write_u64(seq.len() as u64);
                observations += seq.len() as u64;
                for (t, h) in seq {
                    d.write_u64(*t);
                    d.write_str(h);
                }
            }

            // Train on the defended observations, then stream the defended
            // packets through the serving engine.
            let embeddings = p
                .pipeline
                .train_model(&observed.observed_sequences(u64::MAX))
                .ok();
            let (model, serve) = match &embeddings {
                None => ("none".into(), "none".into()),
                Some(emb) => {
                    let ticks = p.serve_fixed(emb, opts, lanes, plan.as_ref());
                    (
                        Digest::of_embeddings(emb),
                        Digest::of_ticks(&ticks, p.base_ip),
                    )
                }
            };

            cases.push(DefenseCaseDigests {
                name: name.to_string(),
                observations,
                observed: d.hex(),
                model,
                serve,
            });
        }

        // The identity case must reproduce the baseline bit for bit — the
        // snapshot's own invariant, checked here rather than trusted.
        let (baseline, identity) = (&cases[0], &cases[1]);
        let drift = Self::diff_case(
            "identity point diverged from baseline at",
            baseline,
            identity,
        );
        if let Some(first) = drift.into_iter().next() {
            return Err(first);
        }

        Ok(DefenseSnapshot {
            seed: opts.seed,
            cases,
        })
    }

    fn diff(&self, actual: &Self) -> Vec<String> {
        let mut diffs = Vec::new();
        diff_field(&mut diffs, "config seed", self.seed, actual.seed);
        diff_field(&mut diffs, "cases", self.cases.len(), actual.cases.len());
        for (e, a) in self.cases.iter().zip(&actual.cases) {
            if e.name != a.name {
                diffs.push(format!("case order: {} vs {}", e.name, a.name));
                continue;
            }
            diffs.extend(Self::diff_case(&format!("case {}", e.name), e, a));
        }
        diffs
    }

    fn summary(&self) -> String {
        format!("{} cases, identity bit-equal to baseline", self.cases.len())
    }
}

impl DefenseSnapshot {
    /// Observation count and stage digests of one case against another.
    fn diff_case(what: &str, e: &DefenseCaseDigests, a: &DefenseCaseDigests) -> Vec<String> {
        let mut diffs = Vec::new();
        let observations = format!("{what} observations");
        diff_field(&mut diffs, &observations, e.observations, a.observations);
        diff_fields(&mut diffs, &format!("{what} stage"), &e.named(), &a.named());
        diffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run single-lane and check the snapshot survives its own golden form.
    fn run_and_roundtrip<S: GoldenSchedule + PartialEq + std::fmt::Debug>(seed: u64) -> S {
        let snap = S::run(&ReplayOptions::for_seed(seed), 1).expect("schedule runs");
        let json = snap.to_golden_json().expect("serialize");
        let back = S::from_golden_json(&json).expect("parse");
        assert_eq!(snap, back);
        assert!(snap.diff(&back).is_empty());
        snap
    }

    #[test]
    fn snapshot_roundtrips_through_golden_json() {
        run_and_roundtrip::<ReplaySnapshot>(7);
    }

    #[test]
    fn replay_has_signal_in_every_stage() {
        let snap = ReplaySnapshot::run(&ReplayOptions::for_seed(1), 1).expect("replay");
        assert!(snap.users > 0 && snap.days > 0 && snap.hosts > 0);
        assert!(!snap.profiles.is_empty(), "no user got a final profile");
        assert!(snap.ctr.iter().any(|c| c.orig_impressions > 0));
    }

    #[test]
    fn different_seeds_change_every_stage_digest() {
        let a = ReplaySnapshot::run(&ReplayOptions::for_seed(1), 1).expect("replay");
        let b = ReplaySnapshot::run(&ReplayOptions::for_seed(2), 1).expect("replay");
        assert_ne!(a.stages.trace, b.stages.trace);
        assert_ne!(a.stages.observed, b.stages.observed);
        assert_ne!(a.stages.sessions, b.stages.sessions);
        assert_ne!(a.stages.model, b.stages.model);
    }

    #[test]
    fn streaming_profile_path_matches_batch_bit_for_bit() {
        // `run` itself fails when the streamed stage 5 diverges from the
        // batch one, so succeeding at each lane count is the assertion.
        let opts = ReplayOptions::for_seed(1);
        let one = ReplaySnapshot::run(&opts, 1).expect("1 lane: streaming == batch");
        let four = ReplaySnapshot::run(&opts, 4).expect("4 lanes: streaming == batch");
        assert_eq!(one, four);
    }

    #[test]
    fn update_schedule_has_signal_and_roundtrips() {
        let snap = run_and_roundtrip::<UpdateSnapshot>(1);
        assert!(snap.base_vocab > 0);
        assert!(
            snap.appended_tokens > 0,
            "day 1 must surface unseen hostnames for the growth path to be exercised"
        );
        assert_eq!(
            snap.grown_vocab,
            snap.base_vocab + snap.appended_tokens,
            "growth appends, never reorders"
        );
        assert!(snap.table_rebuilt, "growth forces a table rebuild");
        assert!(snap.ticks_pre > 0 && snap.ticks_post > 0);
        assert!(!snap.profiles.is_empty(), "post-swap serving went dark");
        assert_ne!(
            snap.stages.base_model, snap.stages.grown_model,
            "the update must actually move weights"
        );
    }

    #[test]
    fn defense_schedule_has_signal_and_roundtrips() {
        let snap = run_and_roundtrip::<DefenseSnapshot>(1);
        assert_eq!(snap.cases.len(), 8, "fixed schedule: baseline + 7 defended");
        assert_eq!(snap.cases[0].name, "baseline");
        assert_eq!(snap.cases[1].name, "identity_ech0");
        // The in-run invariant already asserts identity == baseline; pin
        // it here too so golden diffs name the case.
        assert_eq!(snap.cases[0].observed, snap.cases[1].observed);
        assert_eq!(snap.cases[0].serve, snap.cases[1].serve);
        // Every non-identity defense must actually move the observations.
        for case in &snap.cases[2..] {
            assert_ne!(
                case.observed, snap.cases[0].observed,
                "case {} left the observed stage untouched",
                case.name
            );
        }
        assert!(snap.cases.iter().all(|c| c.observations > 0));
    }

    #[test]
    fn perturbation_is_attributed_to_the_model_stage() {
        let clean = ReplaySnapshot::run(&ReplayOptions::for_seed(1), 1).expect("replay");
        let mut opts = ReplayOptions::for_seed(1);
        opts.perturb_embedding = Some((5, 1e-3));
        let bad = ReplaySnapshot::run(&opts, 1).expect("replay");
        let diffs = clean.diff(&bad);
        assert!(!diffs.is_empty());
        // Upstream of the model: identical. The model stage itself: the
        // first reported diff.
        assert!(diffs[0].starts_with("stage model:"), "{diffs:?}");
        assert_eq!(clean.stages.trace, bad.stages.trace);
        assert_eq!(clean.stages.sessions, bad.stages.sessions);
    }
}
