//! The differential driver: replay one seeded synthetic world through
//! the oracle and the production pipeline, stage by stage, and report
//! every disagreement with a typed [`Mismatch`].
//!
//! Stage plan (pipeline order):
//!
//! 1. **sni** — encode TLS hellos for real world hostnames, run both
//!    parsers over intact, ECH'd, and truncated bytes; encode QUIC
//!    Initials for the same names and require exactly the name from the
//!    intact datagram and none from a cut (QUIC's exact twin is
//!    `hostprof-net`'s `tests/quic_walk.rs`).
//! 2. **window** — per (user, day) last-request session windows:
//!    `Trace::window` + `Session::from_window` vs the naive scan.
//! 3. **train** — full skipgram training at dim 3: oracle
//!    weights must equal production weights *bit for bit*, for both the
//!    scalar and the SIMD kernel (identical at dim 3 by construction).
//! 4. **knn** — session-vector queries through the tiled scan vs the
//!    naive O(V) sort, exact index and similarity-bit equality.
//! 5. **profile** — Eq. 3/4 profiles, ids exact, importances ≤ 1e-5
//!    (observed deltas are 0 ulp; the tolerance is the spec).
//! 6. **stats** — paired t-test over per-session profile statistics,
//!    Welford/Simpson vs two-pass/continued-fraction.
//!
//! The optional embedding perturbation exists so tests can prove the
//! driver *fails loudly*: nudging one weight must surface as knn/profile
//! mismatches, not silence.

use crate::{diff, knn, profile, sgd, sni, stats, window, DiffReport, Mismatch, Stage};
use hostprof_core::{Profiler, ProfilerConfig, Session};
use hostprof_embed::{EmbeddingSet, KernelChoice, SkipGram, SkipGramConfig};
use hostprof_net::quic::InitialPacket;
use hostprof_net::tls::ClientHello;
use hostprof_synth::{
    Population, PopulationConfig, Trace, TraceConfig, UserId, World, WorldConfig,
};

const DAY_MS: u64 = 86_400_000;
const SESSION_WINDOW_MS: u64 = 20 * 60_000; // the paper's T = 20 min

/// Differential run parameters.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Master seed; mixed into world/population/trace seeds.
    pub seed: u64,
    /// Optional sabotage: add `delta` to flat embedding element `index`
    /// on the *production* side after training. Used by tests to assert
    /// stage-attributed failure.
    pub perturb_embedding: Option<(usize, f32)>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            perturb_embedding: None,
        }
    }
}

/// Mix the run seed into a sub-generator seed without colliding streams.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 31;
    x
}

/// Run every differential stage on one seeded world.
pub fn differential_run(cfg: &DriverConfig) -> DiffReport {
    let mut report = DiffReport::default();

    // A tiny but fully-featured world: real ontology coverage, real
    // blocklist, two days of traffic from a dozen users.
    let mut wc = WorldConfig::tiny();
    wc.seed = mix(cfg.seed, 1);
    let mut pc = PopulationConfig::tiny();
    pc.num_users = 12;
    pc.seed = mix(cfg.seed, 2);
    let mut tc = TraceConfig::tiny();
    tc.days = 2;
    tc.seed = mix(cfg.seed, 3);

    let world = World::generate(&wc);
    let population = Population::generate(&world, &pc);
    let trace = Trace::generate(&world, &population, &tc);

    check_sni(&mut report, &world, &trace);
    let sessions = check_windows(&mut report, &world, &population, &trace);
    // From here on the oracle pipeline continues from the *oracle's*
    // trained weights and production from its own: bit-identical after a
    // clean train stage, divergent the moment production drifts (which
    // is exactly what the perturbation tests exercise).
    if let Some((embeddings, oracle_flat)) = check_training(&mut report, &world, &trace, cfg) {
        check_knn(&mut report, &embeddings, &oracle_flat, &sessions);
        let profiles = check_profiles(&mut report, &world, &embeddings, &oracle_flat, &sessions);
        check_stats(&mut report, &profiles);
    }
    report
}

/// Stage 1: SNI recovery from encoded, hidden, and truncated hellos.
fn check_sni(report: &mut DiffReport, world: &World, trace: &Trace) {
    // Hostnames actually observed in the trace, first-seen order.
    let mut names: Vec<&str> = Vec::new();
    for req in trace.requests() {
        let h = world.hostname(req.host);
        if !names.contains(&h) {
            names.push(h);
        }
        if names.len() >= 24 {
            break;
        }
    }

    for &name in &names {
        let record = ClientHello::for_hostname(name).encode();
        let prod = hostprof_net::tls::extract_sni(&record)
            .ok()
            .flatten()
            .map(str::to_string);
        let oracle = sni::tls_sni(&record);
        compare_names(report, format!("tls:{name}"), &prod, &oracle, Some(name));

        // Truncations must agree too — and never invent a name.
        for cut in [7usize, 13, record.len() / 2, record.len() - 1] {
            let cut = cut.min(record.len());
            let prod = hostprof_net::tls::extract_sni(&record[..cut])
                .ok()
                .flatten()
                .map(str::to_string);
            let oracle = sni::tls_sni(&record[..cut]);
            compare_names(report, format!("tls:{name}@{cut}"), &prod, &oracle, None);
        }

        let datagram = InitialPacket::for_hostname(name).encode();
        let quic = |bytes: &[u8]| {
            hostprof_net::quic::extract_sni_from_quic(bytes)
                .ok()
                .flatten()
        };
        expect_name(report, format!("quic:{name}"), quic(&datagram), Some(name));
        for cut in [9usize, 30, 45] {
            let cut = cut.min(datagram.len());
            let item = format!("quic:{name}@{cut}");
            expect_name(report, item, quic(&datagram[..cut]), None);
        }
    }

    // ECH hides the name from both parsers.
    let ech = ClientHello::with_ech(96).encode();
    let prod = hostprof_net::tls::extract_sni(&ech)
        .ok()
        .flatten()
        .map(str::to_string);
    let oracle = sni::tls_sni(&ech);
    compare_names(report, "tls:ech".into(), &prod, &oracle, None);
}

/// Record whether production recovered exactly `want` (`None`: no name).
fn expect_name(report: &mut DiffReport, item: String, prod: Option<String>, want: Option<&str>) {
    if prod.as_deref() == want {
        report.check_ok();
    } else {
        report.check_failed(Mismatch {
            stage: Stage::Sni,
            item,
            max_abs: 0.0,
            max_ulp: 0,
            detail: format!("production recovered {prod:?}, expected {want:?}"),
        });
    }
}

fn compare_names(
    report: &mut DiffReport,
    item: String,
    prod: &Option<String>,
    oracle: &Option<String>,
    expect: Option<&str>,
) {
    if prod != oracle {
        report.check_failed(Mismatch {
            stage: Stage::Sni,
            item,
            max_abs: 0.0,
            max_ulp: 0,
            detail: format!("production {prod:?} vs oracle {oracle:?}"),
        });
        return;
    }
    if let Some(want) = expect {
        if oracle.as_deref() != Some(want) {
            report.check_failed(Mismatch {
                stage: Stage::Sni,
                item,
                max_abs: 0.0,
                max_ulp: 0,
                detail: format!("both sides recovered {oracle:?}, expected {want:?}"),
            });
            return;
        }
    }
    report.check_ok();
}

/// Stage 2: per-(user, day) session windows. Returns the production
/// sessions for downstream stages.
fn check_windows(
    report: &mut DiffReport,
    world: &World,
    population: &Population,
    trace: &Trace,
) -> Vec<Session> {
    let blocklist = world.blocklist();
    let mut sessions = Vec::new();
    for u in 0..population.users().len() as u32 {
        let user = UserId(u);
        let timeline: Vec<(u64, String)> = trace
            .user_requests(user)
            .map(|r| (r.t_ms, world.hostname(r.host).to_string()))
            .collect();
        for day in 0..trace.days() {
            let lo = day as u64 * DAY_MS;
            let hi = lo + DAY_MS;
            let Some(&(end_ms, _)) = timeline.iter().rev().find(|&&(t, _)| t >= lo && t < hi)
            else {
                continue;
            };

            let ids = trace.window(user, end_ms, SESSION_WINDOW_MS);
            let names: Vec<&str> = ids.iter().map(|&id| world.hostname(id)).collect();
            let session = Session::from_window(names.iter().copied(), Some(blocklist));

            let oracle = window::session_window(&timeline, end_ms, SESSION_WINDOW_MS, &|h| {
                blocklist.is_blocked(h)
            });

            if session.hostnames() != oracle.as_slice() {
                report.check_failed(Mismatch {
                    stage: Stage::Window,
                    item: format!("user{u}/day{day}"),
                    max_abs: 0.0,
                    max_ulp: 0,
                    detail: format!(
                        "production {:?} vs oracle {:?}",
                        session.hostnames(),
                        oracle
                    ),
                });
            } else {
                report.check_ok();
            }
            sessions.push(session);
        }
    }
    sessions
}

/// The pinned trainer hyperparameters both sides run with.
fn train_config(seed: u64, kernel: KernelChoice) -> SkipGramConfig {
    SkipGramConfig {
        dim: 3,
        window: 2,
        negatives: 3,
        epochs: 2,
        learning_rate: 0.025,
        min_count: 1,
        subsample: 0.0,
        seed,
        kernel,
    }
}

/// Stage 3: full training trajectories, bit-for-bit, scalar and SIMD.
/// Returns the production embeddings plus the oracle's own flat weight
/// matrix for the downstream oracle stages.
fn check_training(
    report: &mut DiffReport,
    world: &World,
    trace: &Trace,
    cfg: &DriverConfig,
) -> Option<(EmbeddingSet, Vec<f32>)> {
    let mut corpus: Vec<Vec<String>> = Vec::new();
    for day in 0..trace.days() {
        for (_, hosts) in trace.daily_sequences(day) {
            corpus.push(
                hosts
                    .iter()
                    .map(|&h| world.hostname(h).to_string())
                    .collect(),
            );
        }
    }

    let train_seed = mix(cfg.seed, 4);
    let oracle_cfg = sgd::SgdConfig {
        dim: 3,
        window: 2,
        negatives: 3,
        epochs: 2,
        learning_rate: 0.025,
        min_count: 1,
        subsample: 0.0,
        seed: train_seed,
    };
    let oracle = sgd::train(&corpus, &oracle_cfg);

    let mut production = None;
    for kernel in [KernelChoice::Scalar, KernelChoice::Auto] {
        let label = if kernel == KernelChoice::Scalar {
            "scalar"
        } else {
            "simd"
        };
        let prod = SkipGram::train(&corpus, &train_config(train_seed, kernel)).ok();
        match (&oracle, &prod) {
            (None, None) => report.check_ok(),
            (Some(om), Some(pm)) => {
                compare_model(report, label, om, pm);
            }
            _ => report.check_failed(Mismatch {
                stage: Stage::Train,
                item: format!("{label}:trainability"),
                max_abs: 0.0,
                max_ulp: 0,
                detail: format!(
                    "oracle trained: {}, production trained: {}",
                    oracle.is_some(),
                    prod.is_some()
                ),
            }),
        }
        production = prod;
    }

    let model = production?;
    let oracle_flat = oracle.as_ref().map(|om| om.input.clone())?;
    let mut embeddings = model.into_embeddings();
    if let Some((index, delta)) = cfg.perturb_embedding {
        embeddings = perturb(embeddings, index, delta);
    }
    Some((embeddings, oracle_flat))
}

fn compare_model(report: &mut DiffReport, label: &str, oracle: &sgd::OracleModel, prod: &SkipGram) {
    if oracle.vocab.tokens.len() != prod.vocab().len() {
        report.check_failed(Mismatch {
            stage: Stage::Train,
            item: format!("{label}:vocab"),
            max_abs: 0.0,
            max_ulp: 0,
            detail: format!(
                "vocab size {} vs {}",
                prod.vocab().len(),
                oracle.vocab.tokens.len()
            ),
        });
        return;
    }
    for idx in 0..prod.vocab().len() as u32 {
        let token = prod.vocab().token(idx);
        if oracle.vocab.tokens[idx as usize] != token {
            report.check_failed(Mismatch {
                stage: Stage::Train,
                item: format!("{label}:vocab[{idx}]"),
                max_abs: 0.0,
                max_ulp: 0,
                detail: format!(
                    "token order: production {token:?} vs oracle {:?}",
                    oracle.vocab.tokens[idx as usize]
                ),
            });
            continue;
        }
        report.check_ok();
        for (matrix, prod_row, oracle_row) in [
            ("input", prod.vector(idx), oracle.input_row(idx)),
            ("context", prod.context_vector(idx), oracle.context_row(idx)),
        ] {
            let d = diff::compare_f32_slices(prod_row, oracle_row);
            if d.identical() {
                report.check_ok();
            } else {
                report.check_failed(Mismatch {
                    stage: Stage::Train,
                    item: format!("{label}:{matrix}[{token}]"),
                    max_abs: d.max_abs,
                    max_ulp: d.max_ulp,
                    detail: format!("weight row diverged at dim {}", d.worst_index),
                });
            }
        }
    }
}

/// Clone-and-modify one flat embedding element (production side only).
fn perturb(embeddings: EmbeddingSet, index: usize, delta: f32) -> EmbeddingSet {
    let dim = embeddings.dim();
    let mut flat = flatten(&embeddings);
    if let Some(x) = flat.get_mut(index) {
        *x += delta;
    }
    EmbeddingSet::new(dim, embeddings.vocab().clone(), flat)
}

/// Row-major copy of all raw embedding vectors.
fn flatten(embeddings: &EmbeddingSet) -> Vec<f32> {
    let mut flat = Vec::with_capacity(embeddings.len() * embeddings.dim());
    for idx in 0..embeddings.len() as u32 {
        flat.extend_from_slice(embeddings.vector_by_index(idx));
    }
    flat
}

const N_NEIGHBORS: usize = 10;

/// Stage 4: session-vector kNN queries, exact index + similarity bits.
/// Each side builds its query from its own weights.
fn check_knn(
    report: &mut DiffReport,
    embeddings: &EmbeddingSet,
    oracle_flat: &[f32],
    sessions: &[Session],
) {
    let dim = embeddings.dim();
    let prod_flat = flatten(embeddings);
    for (si, session) in sessions.iter().enumerate() {
        let hosts: Vec<profile::SessionHost> = session
            .hostnames()
            .iter()
            .map(|h| profile::SessionHost {
                vocab_idx: embeddings.vocab().get(h),
                categories: None,
            })
            .collect();
        let Some(oracle_query) = profile::mean_session_vector(&hosts, oracle_flat, dim) else {
            continue;
        };
        let prod_query = profile::mean_session_vector(&hosts, &prod_flat, dim)
            .unwrap_or_else(|| oracle_query.clone());
        let prod = embeddings.nearest_to_vector(&prod_query, N_NEIGHBORS);
        let oracle = knn::nearest(oracle_flat, dim, &oracle_query, N_NEIGHBORS);
        if prod.len() != oracle.len() {
            report.check_failed(Mismatch {
                stage: Stage::Knn,
                item: format!("session{si}"),
                max_abs: 0.0,
                max_ulp: 0,
                detail: format!("{} neighbors vs {}", prod.len(), oracle.len()),
            });
            continue;
        }
        let mut worst_abs = 0.0f64;
        let mut worst_ulp = 0u64;
        let mut bad = None;
        for (rank, (&(pi, ps), &(oi, os))) in prod.iter().zip(&oracle).enumerate() {
            if pi != oi {
                bad = Some(format!(
                    "rank {rank}: index {pi} (sim {ps}) vs {oi} (sim {os})"
                ));
                break;
            }
            worst_abs = worst_abs.max(((ps as f64) - (os as f64)).abs());
            worst_ulp = worst_ulp.max(diff::ulp_distance_f32(ps, os));
        }
        if bad.is_none() && worst_ulp > 0 {
            bad = Some("similarity bits diverged".into());
        }
        match bad {
            Some(detail) => report.check_failed(Mismatch {
                stage: Stage::Knn,
                item: format!("session{si}"),
                max_abs: worst_abs,
                max_ulp: worst_ulp,
                detail,
            }),
            None => report.check_ok(),
        }
    }
}

/// Eq. 4 importance tolerance from the issue spec.
const EQ4_TOLERANCE: f64 = 1e-5;

/// Stage 5: Eq. 3/4 session profiles. Returns production profiles for
/// the stats stage.
fn check_profiles(
    report: &mut DiffReport,
    world: &World,
    embeddings: &EmbeddingSet,
    oracle_flat: &[f32],
    sessions: &[Session],
) -> Vec<hostprof_core::SessionProfile> {
    let ontology = world.ontology();
    let profiler = Profiler::new(
        embeddings,
        ontology,
        ProfilerConfig {
            n_neighbors: N_NEIGHBORS,
            ..Default::default()
        },
    );

    // The oracle's labeled table: category vector per vocabulary row.
    let labeled: Vec<Option<Vec<(u16, f32)>>> = (0..embeddings.len() as u32)
        .map(|idx| {
            ontology
                .lookup(embeddings.vocab().token(idx))
                .map(|cats| cats.iter().map(|(c, w)| (c.0, w)).collect())
        })
        .collect();

    let mut profiles = Vec::new();
    for (si, session) in sessions.iter().enumerate() {
        let hosts: Vec<profile::SessionHost> = session
            .hostnames()
            .iter()
            .map(|h| profile::SessionHost {
                vocab_idx: embeddings.vocab().get(h),
                categories: ontology
                    .lookup(h)
                    .map(|cats| cats.iter().map(|(c, w)| (c.0, w)).collect()),
            })
            .collect();

        let prod = profiler.profile(session);
        let oracle = profile::profile(&hosts, oracle_flat, embeddings.dim(), &labeled, N_NEIGHBORS);
        match (&prod, &oracle) {
            (None, None) => report.check_ok(),
            (Some(p), Some(o)) => compare_profile(report, si, p, o),
            _ => report.check_failed(Mismatch {
                stage: Stage::Profile,
                item: format!("session{si}"),
                max_abs: 0.0,
                max_ulp: 0,
                detail: format!(
                    "profiled: production {}, oracle {}",
                    prod.is_some(),
                    oracle.is_some()
                ),
            }),
        }
        if let Some(p) = prod {
            profiles.push(p);
        }
    }
    profiles
}

fn compare_profile(
    report: &mut DiffReport,
    si: usize,
    prod: &hostprof_core::SessionProfile,
    oracle: &profile::OracleProfile,
) {
    let item = format!("session{si}");
    if prod.labeled_in_session != oracle.labeled_in_session
        || prod.labeled_neighbors != oracle.labeled_neighbors
    {
        report.check_failed(Mismatch {
            stage: Stage::Profile,
            item,
            max_abs: 0.0,
            max_ulp: 0,
            detail: format!(
                "contribution counts: production ({}, {}) vs oracle ({}, {})",
                prod.labeled_in_session,
                prod.labeled_neighbors,
                oracle.labeled_in_session,
                oracle.labeled_neighbors
            ),
        });
        return;
    }
    let sv = diff::compare_f32_slices(&prod.session_vector, &oracle.session_vector);
    if !sv.identical() {
        report.check_failed(Mismatch {
            stage: Stage::Profile,
            item,
            max_abs: sv.max_abs,
            max_ulp: sv.max_ulp,
            detail: "session vector diverged".into(),
        });
        return;
    }
    let prod_cats: Vec<(u16, f32)> = prod.categories.iter().map(|(c, w)| (c.0, w)).collect();
    let prod_ids: Vec<u16> = prod_cats.iter().map(|&(c, _)| c).collect();
    let oracle_ids: Vec<u16> = oracle.categories.iter().map(|&(c, _)| c).collect();
    if prod_ids != oracle_ids {
        report.check_failed(Mismatch {
            stage: Stage::Profile,
            item,
            max_abs: 0.0,
            max_ulp: 0,
            detail: format!("category ids: production {prod_ids:?} vs oracle {oracle_ids:?}"),
        });
        return;
    }
    let mut max_abs = 0.0f64;
    let mut max_ulp = 0u64;
    for (&(_, pw), &(_, ow)) in prod_cats.iter().zip(&oracle.categories) {
        max_abs = max_abs.max(((pw as f64) - (ow as f64)).abs());
        max_ulp = max_ulp.max(diff::ulp_distance_f32(pw, ow));
    }
    if max_abs > EQ4_TOLERANCE {
        report.check_failed(Mismatch {
            stage: Stage::Profile,
            item,
            max_abs,
            max_ulp,
            detail: format!("Eq. 4 importance beyond {EQ4_TOLERANCE:e}"),
        });
    } else {
        report.check_ok();
    }
}

/// Stage 6: paired t-test over per-session profile statistics.
fn check_stats(report: &mut DiffReport, profiles: &[hostprof_core::SessionProfile]) {
    // Paired per-session statistics with genuine spread: peak category
    // importance vs mean importance.
    let a: Vec<f64> = profiles
        .iter()
        .map(|p| {
            p.categories
                .iter()
                .map(|(_, w)| w as f64)
                .fold(0.0, f64::max)
        })
        .collect();
    let b: Vec<f64> = profiles
        .iter()
        .map(|p| {
            let (n, sum) = p
                .categories
                .iter()
                .fold((0usize, 0.0f64), |(n, s), (_, w)| (n + 1, s + w as f64));
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        })
        .collect();

    let prod = hostprof_stats::paired_t_test(&a, &b);
    let oracle = stats::paired_t_test(&a, &b);
    match (prod, oracle) {
        (None, None) => report.check_ok(),
        (Some(p), Some(o)) => {
            let t_err = (p.t - o.t).abs() / p.t.abs().max(1.0);
            let p_err = (p.p - o.p).abs();
            if t_err > 1e-12 || p_err > 1e-9 || p.df != o.df {
                report.check_failed(Mismatch {
                    stage: Stage::Stats,
                    item: "paired-t".into(),
                    max_abs: t_err.max(p_err),
                    max_ulp: diff::ulp_distance_f64(p.p, o.p),
                    detail: format!(
                        "t {} vs {}, p {} vs {}, df {} vs {}",
                        p.t, o.t, p.p, o.p, p.df, o.df
                    ),
                });
            } else {
                report.check_ok();
            }
        }
        (p, o) => report.check_failed(Mismatch {
            stage: Stage::Stats,
            item: "paired-t".into(),
            max_abs: 0.0,
            max_ulp: 0,
            detail: format!(
                "testability: production {}, oracle {}",
                p.is_some(),
                o.is_some()
            ),
        }),
    }

    // Welford moments vs the production two-pass descriptive stats.
    for (name, xs) in [("peak", &a), ("mean", &b)] {
        let mut w = stats::Welford::default();
        for &x in xs {
            w.push(x);
        }
        let mean_err = (w.mean() - hostprof_stats::descriptive::mean(xs)).abs();
        let var_err = (w.sample_variance() - hostprof_stats::descriptive::variance(xs)).abs();
        if mean_err > 1e-12 || var_err > 1e-12 {
            report.check_failed(Mismatch {
                stage: Stage::Stats,
                item: format!("welford:{name}"),
                max_abs: mean_err.max(var_err),
                max_ulp: 0,
                detail: "Welford moments diverged from two-pass".into(),
            });
        } else {
            report.check_ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_run_is_clean_on_a_seed() {
        let report = differential_run(&DriverConfig::default());
        assert!(
            report.items_checked > 100,
            "too few comparisons: {}",
            report.items_checked
        );
        assert!(report.is_clean(), "{}", report.summary());
    }

    #[test]
    fn perturbed_embedding_fails_with_stage_attribution() {
        let report = differential_run(&DriverConfig {
            seed: 1,
            perturb_embedding: Some((5, 1e-3)),
        });
        assert!(!report.is_clean(), "perturbation went unnoticed");
        // The sabotage is applied after training, so train must stay
        // clean and the damage must surface downstream.
        assert_eq!(report.mismatches_in(Stage::Train), 0);
        assert!(
            report.mismatches_in(Stage::Knn) + report.mismatches_in(Stage::Profile) > 0,
            "{}",
            report.summary()
        );
    }
}
