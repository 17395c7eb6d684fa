//! Deterministic end-to-end replay: one seed in, one byte-stable
//! snapshot out.
//!
//! `hostprof replay --seed S --golden tests/golden/` re-runs a pinned
//! miniature of the full paper pipeline — synthetic world → passive
//! observation → session windows → skipgram embeddings → Eq. 3/4
//! profiles → CTR experiment → paired t-test — and either compares the
//! resulting [`ReplaySnapshot`] against the committed golden JSON or
//! (with `--bless`) rewrites it.
//!
//! ## The determinism contract
//!
//! The snapshot must be **byte-identical** across every execution knob
//! that is not supposed to change observable results:
//!
//! * `{1, 4}` profiling threads — profiling consumes no randomness and
//!   the batch profiler is pinned bit-equal to the sequential path;
//! * `{scalar, simd}` skipgram kernels — the replay trains at `dim = 3`,
//!   where every SIMD kernel takes its scalar tail path from element 0,
//!   making the two kernels the *same* sequence of f32 operations.
//!
//! The knobs deliberately *not* varied are the ones that legitimately
//! change results (dim ≥ 4 re-associates the portable dot product's
//! 4-accumulator reduction; `threads ≥ 2` makes Hogwild racy by design).
//! The conformance suite (`tests/replay_conformance.rs`) runs the full
//! 2×2 matrix and asserts byte equality; per-stage FNV digests give a
//! stage-attributed diff the moment any future optimization drifts.

use crate::bridge::{ObservedTrace, ObserverScenario};
use crate::scenario::{Scenario, ScenarioConfig};
use hostprof_ads::{CtrExperiment, ExperimentConfig, ExperimentResult};
use hostprof_core::{ServeConfig, ServeEngine, Session, SessionProfile};
use hostprof_embed::{KernelChoice, SkipGramConfig};
use hostprof_net::RequestEvent;
use hostprof_stats::paired_t_test;
use hostprof_synth::trace::DAY_MS;
use hostprof_synth::UserId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Execution knobs for one replay. Everything here is REQUIRED to leave
/// the snapshot byte-identical; the seed alone decides the output.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Master seed, mixed into every generator.
    pub seed: u64,
    /// Worker threads for batched profiling ({1, 4} in CI).
    pub profile_threads: usize,
    /// Skipgram kernel choice.
    pub kernel: KernelChoice,
    /// Test hook: add `delta` to flat embedding weight `index` after
    /// training, to prove the suite fails with a model-stage diff.
    pub perturb_embedding: Option<(usize, f32)>,
}

impl ReplayOptions {
    /// Default knobs for a seed: 1 thread, auto kernel (the production
    /// defaults).
    pub fn for_seed(seed: u64) -> Self {
        Self {
            seed,
            profile_threads: 1,
            kernel: KernelChoice::Auto,
            perturb_embedding: None,
        }
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

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
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
        kernel: opts.kernel,
    };
    cfg.pipeline.profiler.n_neighbors = 20;
    cfg
}

/// Which implementation computes the final-day profiles (stage 5).
///
/// Both paths are pinned to the SAME golden snapshots: the serving loop is
/// only correct if feeding the observed packet stream through
/// [`ServeEngine`] — incremental windowing, watermark ticks, per-lane
/// observers and all — reproduces the batch path's profiles bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfilePath {
    /// The batch pipeline: sort, window per (user, day), profile once.
    Batch,
    /// The streaming engine with this many ingest lanes.
    Streaming {
        /// Ingest lane count ({1, 4} in CI).
        lanes: usize,
    },
}

/// Run the full pipeline for one seed and snapshot every stage.
pub fn run_replay(opts: &ReplayOptions) -> Result<ReplaySnapshot, String> {
    run_replay_with(opts, ProfilePath::Batch)
}

/// [`run_replay`] with an explicit stage-5 implementation.
pub fn run_replay_with(opts: &ReplayOptions, path: ProfilePath) -> Result<ReplaySnapshot, String> {
    let cfg = replay_scenario_config(opts);
    let s = Scenario::generate(&cfg);

    // Stage 1: the ground-truth trace.
    let mut d = Digest::new();
    for r in s.trace.requests() {
        d.write_u64(r.t_ms);
        d.write_u64(r.user.0 as u64);
        d.write_u64(r.host.0 as u64);
    }
    let trace_digest = d.hex();

    // Stage 2: passive observation (per-user addressing, no chaos).
    let observed = ObservedTrace::capture(&s.world, &s.trace, &ObserverScenario::per_user());
    let mut d = Digest::new();
    for seq in observed.observed_sequences() {
        d.write_u64(seq.len() as u64);
        for h in &seq {
            d.write_str(h);
        }
    }
    let observed_digest = d.hex();

    // Stage 3: per-(user, day) session windows.
    let blocklist = s.world.blocklist();
    let mut sessions: Vec<(u32, u32, Session)> = Vec::new();
    let mut d = Digest::new();
    for u in 0..s.population.len() as u32 {
        for day in 0..s.trace.days() {
            let names = s.session_hostnames(UserId(u), day);
            if names.is_empty() {
                continue;
            }
            let session = Session::from_window(names.iter().map(|h| h.as_str()), Some(blocklist));
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
    let pipeline = s.pipeline();
    let corpus: Vec<Vec<String>> = (0..s.trace.days())
        .flat_map(|day| s.daily_hostname_sequences(day))
        .collect();
    let mut embeddings = pipeline.train_model(&corpus)?;
    if let Some((index, delta)) = opts.perturb_embedding {
        let dim = embeddings.dim();
        let mut flat = Vec::with_capacity(embeddings.len() * dim);
        for idx in 0..embeddings.len() as u32 {
            flat.extend_from_slice(embeddings.vector_by_index(idx));
        }
        if let Some(x) = flat.get_mut(index) {
            *x += delta;
        }
        embeddings = hostprof_embed::EmbeddingSet::new(dim, embeddings.vocab().clone(), flat);
    }
    let mut d = Digest::new();
    d.write_u64(embeddings.dim() as u64);
    d.write_u64(embeddings.len() as u64);
    for idx in 0..embeddings.len() as u32 {
        d.write_str(embeddings.vocab().token(idx));
        for &x in embeddings.vector_by_index(idx) {
            d.write_f32(x);
        }
    }
    let model_digest = d.hex();

    // Stage 5: profile the final day's sessions — batch or streaming.
    let final_day = s.trace.days().saturating_sub(1);
    let per_user: Vec<(u32, Option<SessionProfile>)> = match path {
        ProfilePath::Batch => {
            let day_sessions: Vec<(u32, &Session)> = sessions
                .iter()
                .filter(|&&(_, day, _)| day == final_day)
                .map(|(u, _, sess)| (*u, sess))
                .collect();
            let profiler =
                pipeline.batch_profiler(&embeddings, s.world.ontology(), opts.profile_threads);
            let session_refs: Vec<Session> =
                day_sessions.iter().map(|(_, s)| (*s).clone()).collect();
            let profiled = profiler.profile_sessions(&session_refs);
            day_sessions
                .iter()
                .zip(profiled)
                .map(|((u, _), p)| (*u, p))
                .collect()
        }
        ProfilePath::Streaming { lanes } => {
            stream_final_day_profiles(&s, &cfg, &pipeline, &embeddings, opts, lanes, final_day)
        }
    };

    let mut profiles = Vec::new();
    let mut d = Digest::new();
    for (u, profile) in &per_user {
        let Some(p) = profile else {
            continue;
        };
        let categories: Vec<CategoryWeight> = p
            .categories
            .iter()
            .map(|(c, w)| CategoryWeight { id: c.0, weight: w })
            .collect();
        d.write_u64(*u as u64);
        d.write_u64(categories.len() as u64);
        for cw in &categories {
            d.write_u64(cw.id as u64);
            d.write_f32(cw.weight);
        }
        for &x in &p.session_vector {
            d.write_f32(x);
        }
        profiles.push(UserProfileSnapshot {
            user: *u,
            categories,
            labeled_in_session: p.labeled_in_session as u64,
            labeled_neighbors: p.labeled_neighbors as u64,
        });
    }
    let profiles_digest = d.hex();

    // Stage 6: the CTR experiment + paired t-test.
    let experiment = CtrExperiment::new(
        &s.world,
        &s.population,
        &s.trace,
        &s.ads,
        ExperimentConfig {
            pipeline: cfg.pipeline.clone(),
            profile_threads: opts.profile_threads,
            seed: cfg.ads_seed ^ 0x00ad_5eed,
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

/// Stage 5, streaming flavor: lower the ground-truth trace to wire
/// packets (the same clean per-user vantage stage 2 observed) and push
/// every packet through a [`ServeEngine`]; each user's final-day profile
/// is the one attached to their *last* tick anchor inside that day.
///
/// Packets are delivered request by request in trace order, so each
/// user's observation order equals their trace order (TCP fragments of a
/// request complete before the next request's packets arrive) — the
/// precondition for bit-identical windows. Cross-request timestamp
/// disorder is at most the 2 ms fragment spread, far inside the default
/// lateness bound.
fn stream_final_day_profiles(
    s: &Scenario,
    cfg: &ScenarioConfig,
    pipeline: &hostprof_core::Pipeline,
    embeddings: &hostprof_embed::EmbeddingSet,
    opts: &ReplayOptions,
    lanes: usize,
    final_day: u32,
) -> Vec<(u32, Option<SessionProfile>)> {
    let scenario = ObserverScenario::per_user();
    let base_ip = match scenario.synthesizer.addressing {
        hostprof_net::Addressing::PerClient { base_ip } => base_ip,
        _ => unreachable!("per_user() is per-client addressed"),
    };
    let profiler = pipeline.batch_profiler(embeddings, s.world.ontology(), opts.profile_threads);
    let mut engine = ServeEngine::new(
        ServeConfig {
            lanes,
            session_window_ms: cfg.pipeline.session_window_ms(),
            report_interval_ms: cfg.pipeline.report_interval_ms(),
            ..ServeConfig::default()
        },
        profiler,
        Some(pipeline.blocklist()),
    );

    let day_start = final_day as u64 * DAY_MS;
    let day_end = day_start + DAY_MS;
    // Last final-day (anchor, profile) per user; anchors only grow across
    // ticks, so plain insert keeps the latest.
    let mut latest: BTreeMap<u32, Option<SessionProfile>> = BTreeMap::new();
    let collect = |ticks: Vec<hostprof_core::TickReport>,
                   latest: &mut BTreeMap<u32, Option<SessionProfile>>| {
        for tick in ticks {
            for e in tick.entries {
                if e.anchor >= day_start && e.anchor < day_end {
                    latest.insert(e.user.wrapping_sub(base_ip), e.profile);
                }
            }
        }
    };
    for r in s.trace.requests() {
        let ev = RequestEvent {
            t_ms: r.t_ms,
            client: r.user.0,
            hostname: s.world.hostname(r.host).to_string(),
        };
        for pkt in scenario.synthesizer.packets_for(&ev) {
            let ticks = engine.ingest_packet(&pkt);
            collect(ticks, &mut latest);
        }
    }
    let ticks = engine.flush();
    collect(ticks, &mut latest);
    latest.into_iter().collect()
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
    let test = if a.len() >= 2 {
        match paired_t_test(&a, &b) {
            Some(t) => TTestSnapshot {
                valid: true,
                t: t.t,
                df: t.df,
                p: t.p,
                mean_diff: t.mean_diff,
            },
            None => TTestSnapshot::default(),
        }
    } else {
        TTestSnapshot::default()
    };
    (ctr, test)
}

/// Stage-attributed differences between two snapshots, in pipeline
/// order. Empty means byte-equivalent content.
pub fn compare_snapshots(expected: &ReplaySnapshot, actual: &ReplaySnapshot) -> Vec<String> {
    let mut diffs = Vec::new();
    if expected.seed != actual.seed {
        diffs.push(format!("config: seed {} vs {}", expected.seed, actual.seed));
    }
    for (stage, e, a) in [
        ("trace", &expected.stages.trace, &actual.stages.trace),
        (
            "observed",
            &expected.stages.observed,
            &actual.stages.observed,
        ),
        (
            "sessions",
            &expected.stages.sessions,
            &actual.stages.sessions,
        ),
        ("model", &expected.stages.model, &actual.stages.model),
        (
            "profiles",
            &expected.stages.profiles,
            &actual.stages.profiles,
        ),
        ("ctr", &expected.stages.ctr, &actual.stages.ctr),
    ] {
        if e != a {
            diffs.push(format!("stage {stage}: digest {e} vs {a}"));
        }
    }
    if expected.profiles != actual.profiles {
        for (e, a) in expected.profiles.iter().zip(&actual.profiles) {
            if e != a {
                diffs.push(format!("profiles: user{} differs", e.user));
            }
        }
        if expected.profiles.len() != actual.profiles.len() {
            diffs.push(format!(
                "profiles: {} users vs {}",
                expected.profiles.len(),
                actual.profiles.len()
            ));
        }
    }
    if expected.ctr != actual.ctr {
        diffs.push("ctr: per-user table differs".into());
    }
    if expected.ctr_test != actual.ctr_test {
        diffs.push("ctr: t-test differs".into());
    }
    diffs
}

/// Serialize a snapshot to the canonical golden JSON form (pretty, with
/// a trailing newline — byte-stable for byte-stable content).
pub fn to_golden_json(snapshot: &ReplaySnapshot) -> Result<String, String> {
    serde_json::to_string_pretty(snapshot)
        .map(|s| s + "\n")
        .map_err(|e| format!("serialize snapshot: {e:?}"))
}

/// Parse a golden JSON file's contents.
pub fn from_golden_json(contents: &str) -> Result<ReplaySnapshot, String> {
    serde_json::from_str(contents).map_err(|e| format!("parse golden snapshot: {e:?}"))
}

/// `DIR/replay_seed_S.json`.
pub fn golden_path(dir: &std::path::Path, seed: u64) -> std::path::PathBuf {
    dir.join(format!("replay_seed_{seed}.json"))
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

/// The golden snapshot of one online-update schedule: day 0 trains the
/// base model, day 1 streams against version 1 while its closed windows
/// are harvested, the harvest drives one [`SkipGram::update`] whose
/// result publishes as version 2, and day 2 streams against it. Byte-
/// stable across lanes, profile threads, and kernels — same contract as
/// [`ReplaySnapshot`], plus: every tick records which version served it,
/// so the swap point itself is pinned.
///
/// [`SkipGram::update`]: hostprof_embed::SkipGram::update
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

/// Digest a tick stream: boundary, serving version, and every entry's
/// profile bits. `compute_micros` is wall clock and deliberately absent.
fn digest_ticks(d: &mut Digest, ticks: &[hostprof_core::TickReport], base_ip: u32) {
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
                    d.write_u64(p.categories.len() as u64);
                    for (c, w) in p.categories.iter() {
                        d.write_u64(c.0 as u64);
                        d.write_f32(w);
                    }
                    for &x in &p.session_vector {
                        d.write_f32(x);
                    }
                }
            }
        }
    }
}

/// Digest an embedding set the same way stage 4 of [`run_replay_with`]
/// does: dimensionality, vocabulary order, and raw weight bits.
fn digest_embeddings(embeddings: &hostprof_embed::EmbeddingSet) -> String {
    let mut d = Digest::new();
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

/// Run the {train → serve → incremental-update → serve} schedule for one
/// seed with `lanes` ingest lanes, snapshotting every stage.
///
/// Determinism leans on three already-pinned properties: window *content*
/// is lane-invariant (the streaming-equivalence contract), the harvest
/// order is tick order then user order (also lane-invariant), and the
/// update trains with one Hogwild worker at `dim = 3`, where scalar and
/// SIMD kernels execute the identical f32 sequence.
pub fn run_update_replay(opts: &ReplayOptions, lanes: usize) -> Result<UpdateSnapshot, String> {
    use hostprof_core::{ModelVersion, VersionedModel};
    use hostprof_embed::SkipGram;
    use std::sync::Arc;

    let cfg = replay_scenario_config(opts);
    let s = Scenario::generate(&cfg);
    if s.trace.days() < 3 {
        return Err("update schedule needs ≥ 3 trace days".into());
    }

    // Stage 1: base model, day 0 only — the update must have genuinely
    // unseen hostnames left to grow into on later days.
    let base_corpus = s.daily_hostname_sequences(0);
    let mut model = SkipGram::train(&base_corpus, &cfg.pipeline.skipgram)?;
    let base_vocab = model.vocab().len() as u64;
    let base_embeddings = model.embeddings();
    let base_model_digest = digest_embeddings(&base_embeddings);

    // Version 1 goes live.
    let ontology = Arc::new(s.world.ontology().clone());
    let versioned = VersionedModel::new(ModelVersion::build(
        1,
        base_embeddings,
        Arc::clone(&ontology),
        cfg.pipeline.profiler.clone(),
    ));
    let scenario = ObserverScenario::per_user();
    let base_ip = match scenario.synthesizer.addressing {
        hostprof_net::Addressing::PerClient { base_ip } => base_ip,
        _ => unreachable!("per_user() is per-client addressed"),
    };
    let blocklist = s.world.blocklist();
    let mut engine = ServeEngine::with_versioned(
        ServeConfig {
            lanes,
            session_window_ms: cfg.pipeline.session_window_ms(),
            report_interval_ms: cfg.pipeline.report_interval_ms(),
            collect_windows: true,
            ..ServeConfig::default()
        },
        &versioned,
        opts.profile_threads,
        Some(blocklist),
    );

    // Stage 2: stream day 1 against version 1.
    let mut pre_ticks: Vec<hostprof_core::TickReport> = Vec::new();
    let mut post_ticks: Vec<hostprof_core::TickReport> = Vec::new();
    let swap_at = 2 * DAY_MS;
    for r in s.trace.requests() {
        if r.t_ms < DAY_MS || r.t_ms >= swap_at {
            continue;
        }
        let ev = RequestEvent {
            t_ms: r.t_ms,
            client: r.user.0,
            hostname: s.world.hostname(r.host).to_string(),
        };
        for pkt in scenario.synthesizer.packets_for(&ev) {
            pre_ticks.extend(engine.ingest_packet(&pkt));
        }
    }
    let mut d = Digest::new();
    digest_ticks(&mut d, &pre_ticks, base_ip);
    let serve_pre_digest = d.hex();

    // Stage 3: harvest whatever windows the watermark has closed so far —
    // the online trainer's corpus. Lane-invariant by construction.
    let windows = engine.take_closed_windows();
    let mut d = Digest::new();
    d.write_u64(windows.len() as u64);
    for w in &windows {
        d.write_u64(w.user.wrapping_sub(base_ip) as u64);
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
    let grown_embeddings = model.embeddings();
    let grown_model_digest = digest_embeddings(&grown_embeddings);

    // The hot swap: build version 2 and publish. In the live path the
    // build runs off-thread; here build-then-publish between two ingest
    // calls is the same observable schedule (a tick is served entirely by
    // whichever version its fire time loaded).
    versioned.publish(ModelVersion::build(
        2,
        grown_embeddings,
        Arc::clone(&ontology),
        cfg.pipeline.profiler.clone(),
    ));

    // Stage 5: stream day 2 against version 2, then flush the tail.
    for r in s.trace.requests() {
        if r.t_ms < swap_at {
            continue;
        }
        let ev = RequestEvent {
            t_ms: r.t_ms,
            client: r.user.0,
            hostname: s.world.hostname(r.host).to_string(),
        };
        for pkt in scenario.synthesizer.packets_for(&ev) {
            post_ticks.extend(engine.ingest_packet(&pkt));
        }
    }
    post_ticks.extend(engine.flush());
    let mut d = Digest::new();
    digest_ticks(&mut d, &post_ticks, base_ip);
    let serve_post_digest = d.hex();

    // Every pre tick was served by version 1, every post tick by 2 —
    // the snapshot's own invariant, checked here rather than trusted.
    if let Some(t) = pre_ticks.iter().find(|t| t.model_seq != 1) {
        return Err(format!(
            "pre-swap tick at {} served by version {}",
            t.boundary, t.model_seq
        ));
    }
    if let Some(t) = post_ticks.iter().find(|t| t.model_seq != 2) {
        return Err(format!(
            "post-swap tick at {} served by version {}",
            t.boundary, t.model_seq
        ));
    }

    // Final profile per user across the post-swap ticks.
    let mut latest: BTreeMap<u32, Option<SessionProfile>> = BTreeMap::new();
    for t in &post_ticks {
        for e in &t.entries {
            latest.insert(e.user.wrapping_sub(base_ip), e.profile.clone());
        }
    }
    let profiles: Vec<UserProfileSnapshot> = latest
        .into_iter()
        .filter_map(|(u, p)| {
            let p = p?;
            Some(UserProfileSnapshot {
                user: u,
                categories: p
                    .categories
                    .iter()
                    .map(|(c, w)| CategoryWeight { id: c.0, weight: w })
                    .collect(),
                labeled_in_session: p.labeled_in_session as u64,
                labeled_neighbors: p.labeled_neighbors as u64,
            })
        })
        .collect();

    Ok(UpdateSnapshot {
        seed: opts.seed,
        base_vocab,
        grown_vocab: model.vocab().len() as u64,
        appended_tokens: report.appended_tokens as u64,
        trained_sequences: report.trained_sequences as u64,
        table_rebuilt: report.table_rebuilt,
        ticks_pre: pre_ticks.len() as u64,
        ticks_post: post_ticks.len() as u64,
        stages: UpdateStageDigests {
            base_model: base_model_digest,
            serve_pre: serve_pre_digest,
            update_corpus: update_corpus_digest,
            grown_model: grown_model_digest,
            serve_post: serve_post_digest,
        },
        profiles,
    })
}

/// Stage-attributed differences between two update snapshots, schedule
/// order. Empty means byte-equivalent content.
pub fn compare_update_snapshots(expected: &UpdateSnapshot, actual: &UpdateSnapshot) -> Vec<String> {
    let mut diffs = Vec::new();
    if expected.seed != actual.seed {
        diffs.push(format!("config: seed {} vs {}", expected.seed, actual.seed));
    }
    for (stage, e, a) in [
        (
            "base_model",
            &expected.stages.base_model,
            &actual.stages.base_model,
        ),
        (
            "serve_pre",
            &expected.stages.serve_pre,
            &actual.stages.serve_pre,
        ),
        (
            "update_corpus",
            &expected.stages.update_corpus,
            &actual.stages.update_corpus,
        ),
        (
            "grown_model",
            &expected.stages.grown_model,
            &actual.stages.grown_model,
        ),
        (
            "serve_post",
            &expected.stages.serve_post,
            &actual.stages.serve_post,
        ),
    ] {
        if e != a {
            diffs.push(format!("stage {stage}: digest {e} vs {a}"));
        }
    }
    for (name, e, a) in [
        ("base_vocab", expected.base_vocab, actual.base_vocab),
        ("grown_vocab", expected.grown_vocab, actual.grown_vocab),
        (
            "appended_tokens",
            expected.appended_tokens,
            actual.appended_tokens,
        ),
        (
            "trained_sequences",
            expected.trained_sequences,
            actual.trained_sequences,
        ),
        ("ticks_pre", expected.ticks_pre, actual.ticks_pre),
        ("ticks_post", expected.ticks_post, actual.ticks_post),
    ] {
        if e != a {
            diffs.push(format!("counter {name}: {e} vs {a}"));
        }
    }
    if expected.table_rebuilt != actual.table_rebuilt {
        diffs.push(format!(
            "counter table_rebuilt: {} vs {}",
            expected.table_rebuilt, actual.table_rebuilt
        ));
    }
    if expected.profiles != actual.profiles {
        diffs.push("profiles: final post-swap profiles differ".into());
    }
    diffs
}

/// Serialize an update snapshot to canonical golden JSON (pretty, with a
/// trailing newline).
pub fn to_update_golden_json(snapshot: &UpdateSnapshot) -> Result<String, String> {
    serde_json::to_string_pretty(snapshot)
        .map(|s| s + "\n")
        .map_err(|e| format!("serialize update snapshot: {e:?}"))
}

/// Parse an update-schedule golden JSON file's contents.
pub fn from_update_golden_json(contents: &str) -> Result<UpdateSnapshot, String> {
    serde_json::from_str(contents).map_err(|e| format!("parse update snapshot: {e:?}"))
}

/// `DIR/update_seed_S.json`.
pub fn update_golden_path(dir: &std::path::Path, seed: u64) -> std::path::PathBuf {
    dir.join(format!("update_seed_{seed}.json"))
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

/// The golden snapshot of the defense schedule: the undefended baseline
/// plus one representative point per defense axis, each run capture →
/// train → streaming serve on the pinned replay scenario. Byte-stable
/// across {1, 4} lanes × {scalar, simd} kernels × profile threads — the
/// same contract as [`ReplaySnapshot`] — and the `identity_ech0` case is
/// checked *in-run* to be bit-equal to `baseline` (the defended code
/// path at an identity point must reproduce the undefended pipeline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseSnapshot {
    pub seed: u64,
    /// Cases in fixed schedule order.
    pub cases: Vec<DefenseCaseDigests>,
}

/// The fixed defense-schedule case list: name + plan (None = plain
/// undefended capture).
fn defense_schedule(
    catalog: &hostprof_defense::HostCatalog,
    plan_seed: u64,
) -> Vec<(&'static str, Option<hostprof_defense::DefensePlan>)> {
    use hostprof_defense::{Defense, DefensePlan};
    let plan = |d: Defense| Some(DefensePlan::new(d, catalog.clone(), plan_seed));
    vec![
        ("baseline", None),
        ("identity_ech0", plan(Defense::Ech { adoption: 0.0 })),
        ("ech50", plan(Defense::Ech { adoption: 0.5 })),
        ("dummy1", plan(Defense::Dummy { rate: 1.0 })),
        ("pad2", plan(Defense::PadConstant { pad_per_event: 2 })),
        ("adaptive1", plan(Defense::PadAdaptive { intensity: 1.0 })),
        ("nat4", plan(Defense::Nat { users_per_ip: 4 })),
        ("doh50", plan(Defense::Doh { adoption: 0.5 })),
    ]
}

/// Run the defense schedule for one seed with `lanes` ingest lanes.
///
/// Determinism: defended event streams are stable time sorts of a
/// deterministic transform, training runs at `dim = 3` with one Hogwild
/// worker (kernel-invariant), and serving inherits the lane-invariance
/// contract — decoys share their client's IP, so they ride the same
/// lane as the traffic they cover.
pub fn run_defense_replay(opts: &ReplayOptions, lanes: usize) -> Result<DefenseSnapshot, String> {
    let cfg = replay_scenario_config(opts);
    let s = Scenario::generate(&cfg);
    let catalog = crate::defend::catalog_for_world(&s.world);
    let scenario = ObserverScenario::per_user();
    let base_ip = match scenario.synthesizer.addressing {
        hostprof_net::Addressing::PerClient { base_ip } => base_ip,
        _ => unreachable!("per_user() is per-client addressed"),
    };
    let pipeline = s.pipeline();

    let mut cases = Vec::new();
    for (name, plan) in defense_schedule(&catalog, opts.seed ^ 0x00de_f5ed) {
        // Capture what survives the defense.
        let observed = match &plan {
            None => ObservedTrace::capture(&s.world, &s.trace, &scenario),
            Some(p) => ObservedTrace::capture_defended(&s.world, &s.trace, &scenario, p),
        };
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
        let observed_digest = d.hex();

        // Train on the defended observations.
        let training: Vec<Vec<String>> = observed
            .sequences
            .values()
            .map(|seq| seq.iter().map(|(_, h)| h.clone()).collect::<Vec<String>>())
            .filter(|sq: &Vec<String>| sq.len() >= 2)
            .collect();
        let embeddings = pipeline.train_model(&training).ok();
        let model_digest = embeddings
            .as_ref()
            .map(digest_embeddings)
            .unwrap_or_else(|| "none".to_string());

        // Stream the defended packets through the serving engine.
        let serve_digest = match &embeddings {
            None => "none".to_string(),
            Some(emb) => {
                let profiler =
                    pipeline.batch_profiler(emb, s.world.ontology(), opts.profile_threads);
                let mut engine = ServeEngine::new(
                    ServeConfig {
                        lanes,
                        session_window_ms: cfg.pipeline.session_window_ms(),
                        report_interval_ms: cfg.pipeline.report_interval_ms(),
                        ..ServeConfig::default()
                    },
                    profiler,
                    Some(pipeline.blocklist()),
                );
                let base_events: Vec<RequestEvent> = s
                    .trace
                    .requests()
                    .iter()
                    .map(|r| RequestEvent {
                        t_ms: r.t_ms,
                        client: r.user.0,
                        hostname: s.world.hostname(r.host).to_string(),
                    })
                    .collect();
                let (events, synth) = match &plan {
                    None => (base_events, scenario.synthesizer.clone()),
                    Some(p) => (
                        p.transform(&base_events),
                        p.synthesizer(&scenario.synthesizer),
                    ),
                };
                let mut ticks: Vec<hostprof_core::TickReport> = Vec::new();
                for ev in &events {
                    let ov = match &plan {
                        None => hostprof_net::WireOverride::default(),
                        Some(p) => p.wire_override(ev.client, &ev.hostname),
                    };
                    for pkt in synth.packets_for_host_with(ev.t_ms, ev.client, &ev.hostname, ov) {
                        ticks.extend(engine.ingest_packet(&pkt));
                    }
                }
                ticks.extend(engine.flush());
                let mut d = Digest::new();
                digest_ticks(&mut d, &ticks, base_ip);
                d.hex()
            }
        };

        cases.push(DefenseCaseDigests {
            name: name.to_string(),
            observations,
            observed: observed_digest,
            model: model_digest,
            serve: serve_digest,
        });
    }

    // The identity case must reproduce the baseline bit for bit — the
    // snapshot's own invariant, checked here rather than trusted.
    let baseline = &cases[0];
    let identity = &cases[1];
    for (stage, b, i) in [
        ("observed", &baseline.observed, &identity.observed),
        ("model", &baseline.model, &identity.model),
        ("serve", &baseline.serve, &identity.serve),
    ] {
        if b != i {
            return Err(format!(
                "identity point diverged from baseline at stage {stage}: {b} vs {i}"
            ));
        }
    }

    Ok(DefenseSnapshot {
        seed: opts.seed,
        cases,
    })
}

/// Stage-attributed differences between two defense snapshots, schedule
/// order. Empty means byte-equivalent content.
pub fn compare_defense_snapshots(
    expected: &DefenseSnapshot,
    actual: &DefenseSnapshot,
) -> Vec<String> {
    let mut diffs = Vec::new();
    if expected.seed != actual.seed {
        diffs.push(format!("config: seed {} vs {}", expected.seed, actual.seed));
    }
    if expected.cases.len() != actual.cases.len() {
        diffs.push(format!(
            "cases: {} vs {}",
            expected.cases.len(),
            actual.cases.len()
        ));
        return diffs;
    }
    for (e, a) in expected.cases.iter().zip(&actual.cases) {
        if e.name != a.name {
            diffs.push(format!("case order: {} vs {}", e.name, a.name));
            continue;
        }
        if e.observations != a.observations {
            diffs.push(format!(
                "case {}: observations {} vs {}",
                e.name, e.observations, a.observations
            ));
        }
        for (stage, ed, ad) in [
            ("observed", &e.observed, &a.observed),
            ("model", &e.model, &a.model),
            ("serve", &e.serve, &a.serve),
        ] {
            if ed != ad {
                diffs.push(format!(
                    "case {} stage {stage}: digest {ed} vs {ad}",
                    e.name
                ));
            }
        }
    }
    diffs
}

/// Serialize a defense snapshot to canonical golden JSON (pretty, with a
/// trailing newline).
pub fn to_defense_golden_json(snapshot: &DefenseSnapshot) -> Result<String, String> {
    serde_json::to_string_pretty(snapshot)
        .map(|s| s + "\n")
        .map_err(|e| format!("serialize defense snapshot: {e:?}"))
}

/// Parse a defense-schedule golden JSON file's contents.
pub fn from_defense_golden_json(contents: &str) -> Result<DefenseSnapshot, String> {
    serde_json::from_str(contents).map_err(|e| format!("parse defense snapshot: {e:?}"))
}

/// `DIR/defense_seed_S.json`.
pub fn defense_golden_path(dir: &std::path::Path, seed: u64) -> std::path::PathBuf {
    dir.join(format!("defense_seed_{seed}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrips_through_golden_json() {
        let snap = run_replay(&ReplayOptions::for_seed(7)).expect("replay");
        let json = to_golden_json(&snap).expect("serialize");
        let back = from_golden_json(&json).expect("parse");
        assert_eq!(snap, back);
        assert!(compare_snapshots(&snap, &back).is_empty());
    }

    #[test]
    fn replay_has_signal_in_every_stage() {
        let snap = run_replay(&ReplayOptions::for_seed(1)).expect("replay");
        assert!(snap.users > 0 && snap.days > 0 && snap.hosts > 0);
        assert!(!snap.profiles.is_empty(), "no user got a final profile");
        assert!(snap.ctr.iter().any(|c| c.orig_impressions > 0));
    }

    #[test]
    fn different_seeds_change_every_stage_digest() {
        let a = run_replay(&ReplayOptions::for_seed(1)).expect("replay");
        let b = run_replay(&ReplayOptions::for_seed(2)).expect("replay");
        assert_ne!(a.stages.trace, b.stages.trace);
        assert_ne!(a.stages.observed, b.stages.observed);
        assert_ne!(a.stages.sessions, b.stages.sessions);
        assert_ne!(a.stages.model, b.stages.model);
    }

    #[test]
    fn streaming_profile_path_matches_batch_bit_for_bit() {
        let opts = ReplayOptions::for_seed(1);
        let batch = run_replay(&opts).expect("replay");
        for lanes in [1usize, 4] {
            let streamed =
                run_replay_with(&opts, ProfilePath::Streaming { lanes }).expect("replay");
            assert_eq!(
                batch.stages.profiles, streamed.stages.profiles,
                "lanes {lanes}: streaming profile digest diverged"
            );
            assert_eq!(batch.profiles, streamed.profiles, "lanes {lanes}");
            assert!(compare_snapshots(&batch, &streamed).is_empty());
        }
    }

    #[test]
    fn update_schedule_has_signal_and_roundtrips() {
        let snap = run_update_replay(&ReplayOptions::for_seed(1), 1).expect("update replay");
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
        let json = to_update_golden_json(&snap).expect("serialize");
        let back = from_update_golden_json(&json).expect("parse");
        assert_eq!(snap, back);
        assert!(compare_update_snapshots(&snap, &back).is_empty());
    }

    #[test]
    fn update_schedule_is_lane_and_thread_invariant() {
        let base = run_update_replay(&ReplayOptions::for_seed(2), 1).expect("update replay");
        let mut threaded = ReplayOptions::for_seed(2);
        threaded.profile_threads = 4;
        for (opts, lanes) in [
            (ReplayOptions::for_seed(2), 4),
            (threaded.clone(), 1),
            (threaded, 4),
        ] {
            let other = run_update_replay(&opts, lanes).expect("update replay");
            assert!(
                compare_update_snapshots(&base, &other).is_empty(),
                "lanes {lanes} threads {}: {:?}",
                opts.profile_threads,
                compare_update_snapshots(&base, &other)
            );
        }
    }

    #[test]
    fn defense_schedule_has_signal_and_roundtrips() {
        let snap = run_defense_replay(&ReplayOptions::for_seed(1), 1).expect("defense replay");
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
        let json = to_defense_golden_json(&snap).expect("serialize");
        let back = from_defense_golden_json(&json).expect("parse");
        assert_eq!(snap, back);
        assert!(compare_defense_snapshots(&snap, &back).is_empty());
    }

    #[test]
    fn defense_schedule_is_lane_and_thread_invariant() {
        let base = run_defense_replay(&ReplayOptions::for_seed(2), 1).expect("defense replay");
        let mut threaded = ReplayOptions::for_seed(2);
        threaded.profile_threads = 4;
        for (opts, lanes) in [
            (ReplayOptions::for_seed(2), 4),
            (threaded.clone(), 1),
            (threaded, 4),
        ] {
            let other = run_defense_replay(&opts, lanes).expect("defense replay");
            assert!(
                compare_defense_snapshots(&base, &other).is_empty(),
                "lanes {lanes} threads {}: {:?}",
                opts.profile_threads,
                compare_defense_snapshots(&base, &other)
            );
        }
    }

    #[test]
    fn perturbation_is_attributed_to_the_model_stage() {
        let clean = run_replay(&ReplayOptions::for_seed(1)).expect("replay");
        let mut opts = ReplayOptions::for_seed(1);
        opts.perturb_embedding = Some((5, 1e-3));
        let bad = run_replay(&opts).expect("replay");
        let diffs = compare_snapshots(&clean, &bad);
        assert!(!diffs.is_empty());
        // Upstream of the model: identical. The model stage itself: the
        // first reported diff.
        assert!(diffs[0].starts_with("stage model:"), "{diffs:?}");
        assert_eq!(clean.stages.trace, bad.stages.trace);
        assert_eq!(clean.stages.sessions, bad.stages.sessions);
    }
}
