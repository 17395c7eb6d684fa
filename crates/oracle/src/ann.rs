//! Exact-vs-IVF differential mode: what does approximate nearest-neighbor
//! search *cost* the profiler?
//!
//! The IVF-flat index trades recall for throughput. Recall loss is not an
//! end in itself — what matters is how much the dropped neighbors perturb
//! the paper's downstream quantities. This module measures the full error
//! propagation chain on one seeded synthetic world, stage-attributed like
//! every other oracle report:
//!
//! * **knn** — recall@N of the IVF retrieval against the exact scan, per
//!   session (a session below the configured floor is a mismatch);
//! * **profile** — the induced divergence in the Eq. 3/4 category
//!   importances (max-abs and L1 across the category union);
//! * **ctr** — the end-to-end CTR gap between two complete ad-replacement
//!   experiments that differ *only* in the profiler's index.
//!
//! With `nprobe == nlists` (exhaustive probing) every stage must report
//! exactly zero divergence — IVF scans the same candidates with the same
//! kernel, so the whole chain is bit-identical. The conformance tests pin
//! both that and the loud-failure direction (a starved `nprobe` must
//! surface as attributed mismatches, not silence).

use crate::driver::mix;
use crate::{DiffReport, Mismatch, Stage};
use hostprof_ads::{AdDatabase, CtrExperiment, ExperimentConfig};
use hostprof_core::{PipelineConfig, Profiler, ProfilerConfig, Session};
use hostprof_embed::{
    EmbeddingSet, ExactScan, IndexConfig, KernelChoice, KnnScratch, SkipGram, SkipGramConfig,
};
use hostprof_synth::{
    Population, PopulationConfig, Trace, TraceConfig, UserId, World, WorldConfig,
};

const DAY_MS: u64 = 86_400_000;
const SESSION_WINDOW_MS: u64 = 20 * 60_000;

/// Parameters of one exact-vs-IVF differential run.
#[derive(Debug, Clone)]
pub struct AnnConfig {
    /// Master seed; mixed into world/population/trace/train/index seeds.
    pub seed: u64,
    /// IVF inverted-list count (0 = auto √rows).
    pub nlists: usize,
    /// IVF lists probed per query; `nprobe >= nlists` is exhaustive.
    pub nprobe: usize,
    /// `N`: neighbors retrieved per session query.
    pub n_neighbors: usize,
    /// Recall@N below this floor is a `knn` mismatch.
    pub recall_floor: f64,
    /// Eq. 4 importance max-abs divergence above this is a `profile`
    /// mismatch.
    pub importance_tolerance: f64,
    /// Absolute eavesdropper-CTR gap above this is a `ctr` mismatch.
    pub ctr_tolerance: f64,
    /// Run the (comparatively slow) paired CTR experiments. The recall and
    /// profile stages always run.
    pub with_ctr: bool,
}

impl Default for AnnConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            nlists: 8,
            nprobe: 2,
            n_neighbors: 10,
            recall_floor: 1.0,
            importance_tolerance: 0.0,
            ctr_tolerance: 0.0,
            with_ctr: false,
        }
    }
}

impl AnnConfig {
    /// Exhaustive-probing configuration: every divergence tolerance at
    /// zero, because none is possible.
    pub fn exhaustive(seed: u64, nlists: usize) -> Self {
        Self {
            seed,
            nlists,
            nprobe: nlists,
            ..Default::default()
        }
    }
}

/// Aggregated outcome of one differential run. `diff` carries the
/// stage-attributed mismatches; the numeric fields summarize the error
/// propagation chain even when everything stayed within tolerance.
#[derive(Debug, Clone)]
pub struct AnnReport {
    /// Stage-attributed comparisons and mismatches.
    pub diff: DiffReport,
    /// Sessions with a session vector (i.e. actually compared).
    pub sessions_compared: usize,
    /// Mean recall@N across compared sessions.
    pub mean_recall: f64,
    /// Worst per-session recall@N.
    pub min_recall: f64,
    /// Largest per-category importance delta across all sessions.
    pub max_importance_abs: f64,
    /// Mean L1 distance between exact and IVF category importances.
    pub mean_importance_l1: f64,
    /// `(eavesdropper CTR, original CTR)` of the exact-index experiment
    /// (zeros when `with_ctr` was off).
    pub exact_ctr: (f64, f64),
    /// Same for the IVF-index experiment.
    pub ivf_ctr: (f64, f64),
    /// `|exact eaves CTR − IVF eaves CTR|`.
    pub ctr_gap: f64,
}

impl AnnReport {
    /// Multi-line human-readable summary, propagation chain first.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "ann differential: {} sessions, recall@N mean {:.4} min {:.4}, \
             Eq.3/4 max-abs {:.3e} mean-L1 {:.3e}, ctr gap {:.3e}\n",
            self.sessions_compared,
            self.mean_recall,
            self.min_recall,
            self.max_importance_abs,
            self.mean_importance_l1,
            self.ctr_gap
        );
        out.push_str(&self.diff.summary());
        out
    }
}

/// Train production embeddings for the differential world. Unlike the
/// bit-exactness driver (dim 3), this uses a moderately wide model so the
/// coarse quantizer has geometry to work with.
fn train_embeddings(corpus: &[Vec<String>], seed: u64) -> Option<EmbeddingSet> {
    let cfg = SkipGramConfig {
        dim: 16,
        window: 2,
        negatives: 3,
        epochs: 2,
        learning_rate: 0.025,
        min_count: 1,
        subsample: 0.0,
        seed,
        kernel: KernelChoice::Auto,
    };
    SkipGram::train(corpus, &cfg)
        .ok()
        .map(SkipGram::into_embeddings)
}

/// Run the exact-vs-IVF differential on one seeded synthetic world.
pub fn ann_differential_run(cfg: &AnnConfig) -> AnnReport {
    let mut report = DiffReport::default();

    let mut wc = WorldConfig::tiny();
    wc.seed = mix(cfg.seed, 11);
    let mut pc = PopulationConfig::tiny();
    pc.num_users = 12;
    pc.seed = mix(cfg.seed, 12);
    let mut tc = TraceConfig::tiny();
    tc.days = 2;
    tc.seed = mix(cfg.seed, 13);

    let world = World::generate(&wc);
    let population = Population::generate(&world, &pc);
    let trace = Trace::generate(&world, &population, &tc);

    // Per-(user, day) last-request sessions, as in the bit-exactness
    // driver.
    let blocklist = world.blocklist();
    let mut sessions: Vec<Session> = Vec::new();
    for u in 0..population.users().len() as u32 {
        let user = UserId(u);
        for day in 0..trace.days() {
            let lo = day as u64 * DAY_MS;
            let hi = lo + DAY_MS;
            let Some(end_ms) = trace
                .user_requests(user)
                .map(|r| r.t_ms)
                .filter(|&t| t >= lo && t < hi)
                .last()
            else {
                continue;
            };
            let ids = trace.window(user, end_ms, SESSION_WINDOW_MS);
            let names: Vec<&str> = ids.iter().map(|&id| world.hostname(id)).collect();
            sessions.push(Session::from_window(names.iter().copied(), Some(blocklist)));
        }
    }

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

    let ivf_index = IndexConfig::Ivf {
        nlists: cfg.nlists,
        nprobe: cfg.nprobe,
        seed: mix(cfg.seed, 14),
    };
    let mut mean_recall = 0.0f64;
    let mut min_recall = 1.0f64;
    let mut compared = 0usize;
    let mut max_importance_abs = 0.0f64;
    let mut importance_l1_sum = 0.0f64;

    if let Some(embeddings) = train_embeddings(&corpus, mix(cfg.seed, 15)) {
        let ontology = world.ontology();
        let exact = Profiler::new(
            &embeddings,
            ontology,
            ProfilerConfig {
                n_neighbors: cfg.n_neighbors,
                ..Default::default()
            },
        );
        let ivf = Profiler::new(
            &embeddings,
            ontology,
            ProfilerConfig {
                n_neighbors: cfg.n_neighbors,
                index: ivf_index,
                ..Default::default()
            },
        );

        let mut scratch = KnnScratch::new();
        for (si, session) in sessions.iter().enumerate() {
            let Some(sv) = exact
                .profile(session)
                .map(|p| p.session_vector)
                .filter(|v| !v.is_empty())
            else {
                continue;
            };
            compared += 1;

            // Stage knn: recall@N of the IVF retrieval.
            let query = std::slice::from_ref(&sv);
            let truth = embeddings
                .nearest_to_vectors_with_index(query, cfg.n_neighbors, &ExactScan, &mut scratch)
                .remove(0);
            let approx = embeddings
                .nearest_to_vectors_with_index(query, cfg.n_neighbors, ivf.index(), &mut scratch)
                .remove(0);
            let mut truth_ids: Vec<u32> = truth.iter().map(|&(i, _)| i).collect();
            truth_ids.sort_unstable();
            let hits = approx
                .iter()
                .filter(|&&(i, _)| truth_ids.binary_search(&i).is_ok())
                .count();
            let recall = if truth.is_empty() {
                1.0
            } else {
                hits as f64 / truth.len() as f64
            };
            mean_recall += recall;
            min_recall = min_recall.min(recall);
            if recall + f64::EPSILON < cfg.recall_floor {
                report.check_failed(Mismatch {
                    stage: Stage::Knn,
                    item: format!("session{si}"),
                    max_abs: cfg.recall_floor - recall,
                    max_ulp: 0,
                    detail: format!(
                        "recall@{} = {recall:.4} below floor {:.4} ({hits}/{} neighbors kept)",
                        cfg.n_neighbors,
                        cfg.recall_floor,
                        truth.len()
                    ),
                });
            } else {
                report.check_ok();
            }

            // Stage profile: Eq. 3/4 importance divergence.
            let (abs, l1) = match (exact.profile(session), ivf.profile(session)) {
                (Some(pe), Some(pi)) => importance_divergence(&pe.categories, &pi.categories),
                (None, None) => (0.0, 0.0),
                (pe, pi) => {
                    report.check_failed(Mismatch {
                        stage: Stage::Profile,
                        item: format!("session{si}"),
                        max_abs: 1.0,
                        max_ulp: 0,
                        detail: format!("profiled: exact {}, ivf {}", pe.is_some(), pi.is_some()),
                    });
                    continue;
                }
            };
            max_importance_abs = max_importance_abs.max(abs);
            importance_l1_sum += l1;
            if abs > cfg.importance_tolerance {
                report.check_failed(Mismatch {
                    stage: Stage::Profile,
                    item: format!("session{si}"),
                    max_abs: abs,
                    max_ulp: 0,
                    detail: format!(
                        "Eq. 3/4 importance diverged by {abs:.3e} (L1 {l1:.3e}) under IVF \
                         nprobe={}/{}",
                        cfg.nprobe, cfg.nlists
                    ),
                });
            } else {
                report.check_ok();
            }
        }
    }

    // Stage ctr: two full experiments differing only in the index.
    let mut exact_ctr = (0.0, 0.0);
    let mut ivf_ctr = (0.0, 0.0);
    let mut ctr_gap = 0.0;
    if cfg.with_ctr {
        let mut ctr_tc = TraceConfig::tiny();
        ctr_tc.days = 3;
        ctr_tc.seed = mix(cfg.seed, 16);
        let ctr_trace = Trace::generate(&world, &population, &ctr_tc);
        let ads = AdDatabase::generate(&world, 600, mix(cfg.seed, 17));

        let experiment = |index: IndexConfig| {
            let mut pipeline = PipelineConfig {
                skipgram: SkipGramConfig {
                    epochs: 3,
                    dim: 24,
                    subsample: 0.0,
                    ..SkipGramConfig::default()
                },
                ..PipelineConfig::default()
            };
            pipeline.profiler.index = index;
            let config = ExperimentConfig {
                pipeline,
                profile_threads: 1,
                seed: mix(cfg.seed, 18),
                ..Default::default()
            };
            let result = CtrExperiment::new(&world, &population, &ctr_trace, &ads, config).run();
            (result.eaves_ctr(), result.orig_ctr())
        };
        exact_ctr = experiment(IndexConfig::Exact);
        ivf_ctr = experiment(ivf_index);
        ctr_gap = (exact_ctr.0 - ivf_ctr.0).abs();
        let orig_gap = (exact_ctr.1 - ivf_ctr.1).abs();
        if ctr_gap > cfg.ctr_tolerance || orig_gap > cfg.ctr_tolerance {
            report.check_failed(Mismatch {
                stage: Stage::Ctr,
                item: "experiment".into(),
                max_abs: ctr_gap.max(orig_gap),
                max_ulp: 0,
                detail: format!(
                    "eaves CTR {:.5} vs {:.5}, orig CTR {:.5} vs {:.5} under IVF nprobe={}/{}",
                    exact_ctr.0, ivf_ctr.0, exact_ctr.1, ivf_ctr.1, cfg.nprobe, cfg.nlists
                ),
            });
        } else {
            report.check_ok();
        }
    }

    AnnReport {
        diff: report,
        sessions_compared: compared,
        mean_recall: if compared == 0 {
            1.0
        } else {
            mean_recall / compared as f64
        },
        min_recall: if compared == 0 { 1.0 } else { min_recall },
        max_importance_abs,
        mean_importance_l1: if compared == 0 {
            0.0
        } else {
            importance_l1_sum / compared as f64
        },
        exact_ctr,
        ivf_ctr,
        ctr_gap,
    }
}

/// `(max-abs, L1)` distance between two category-importance vectors over
/// the union of their category ids.
fn importance_divergence(
    a: &hostprof_ontology::CategoryVector,
    b: &hostprof_ontology::CategoryVector,
) -> (f64, f64) {
    let mut ids: Vec<u16> = a.iter().map(|(c, _)| c.0).collect();
    ids.extend(b.iter().map(|(c, _)| c.0));
    ids.sort_unstable();
    ids.dedup();
    let mut max_abs = 0.0f64;
    let mut l1 = 0.0f64;
    for id in ids {
        let av = a.get(hostprof_ontology::CategoryId(id)) as f64;
        let bv = b.get(hostprof_ontology::CategoryId(id)) as f64;
        let d = (av - bv).abs();
        max_abs = max_abs.max(d);
        l1 += d;
    }
    (max_abs, l1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive probing is the zero of the whole propagation chain:
    /// recall 1.0 on every session, bit-identical profiles, bit-identical
    /// CTR — a clean report with zero tolerances.
    #[test]
    fn exhaustive_probing_reports_zero_divergence_end_to_end() {
        let report = ann_differential_run(&AnnConfig {
            with_ctr: true,
            ..AnnConfig::exhaustive(7, 6)
        });
        assert!(report.sessions_compared > 4, "{}", report.summary());
        assert_eq!(report.mean_recall, 1.0, "{}", report.summary());
        assert_eq!(report.min_recall, 1.0);
        assert_eq!(report.max_importance_abs, 0.0);
        assert_eq!(report.mean_importance_l1, 0.0);
        assert_eq!(report.ctr_gap, 0.0);
        assert_eq!(report.exact_ctr, report.ivf_ctr);
        assert!(report.diff.is_clean(), "{}", report.summary());
    }

    /// A starved probe budget must fail loudly with stage attribution —
    /// recall loss at knn, its propagation at profile.
    #[test]
    fn starved_nprobe_surfaces_stage_attributed_divergence() {
        let report = ann_differential_run(&AnnConfig {
            seed: 7,
            nlists: 16,
            nprobe: 1,
            ..Default::default()
        });
        assert!(report.sessions_compared > 4);
        assert!(
            report.min_recall < 1.0,
            "nprobe=1/16 kept full recall: {}",
            report.summary()
        );
        assert!(!report.diff.is_clean());
        assert!(
            report.diff.mismatches_in(Stage::Knn) > 0,
            "{}",
            report.summary()
        );
        // Recall loss that touches labeled neighbors must show up as
        // Eq. 3/4 divergence (tolerance 0 here).
        assert!(
            report.max_importance_abs > 0.0,
            "no importance divergence despite recall loss: {}",
            report.summary()
        );
        assert!(report.diff.mismatches_in(Stage::Profile) > 0);
    }

    /// The report's aggregates are internally consistent.
    #[test]
    fn report_aggregates_are_consistent() {
        let report = ann_differential_run(&AnnConfig {
            seed: 3,
            nlists: 8,
            nprobe: 4,
            recall_floor: 0.0,
            importance_tolerance: 1.0,
            ..Default::default()
        });
        assert!(report.mean_recall >= report.min_recall);
        assert!((0.0..=1.0).contains(&report.mean_recall));
        assert!(report.max_importance_abs >= 0.0);
        // With loose tolerances nothing fails, but everything is counted.
        assert!(report.diff.is_clean(), "{}", report.summary());
        assert_eq!(
            report.diff.items_checked,
            report.sessions_compared * 2,
            "one knn + one profile comparison per session"
        );
    }
}
