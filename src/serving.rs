//! Live serving-loop driver: calibrated synthetic load through the
//! [`ServeEngine`].
//!
//! The loop behind `hostprof serve` (live mode): draw requests from the
//! lazy [`TraceStream`], lower them to wire packets, push every packet
//! through the sharded ingest → window → profile loop, and record per-tick
//! compute latency. The request rate is *calibrated*, not assumed — a
//! warmup segment of the stream measures requests per simulated second and
//! packets per request, and the per-user think time is scaled to hit the
//! target packet rate. The warmup doubles as the SKIPGRAM training corpus
//! so the engine profiles against a model of the same traffic it serves.

use hostprof_core::{
    ModelVersion, Pipeline, PipelineConfig, ServeConfig, ServeEngine, VersionedModel,
};
use hostprof_embed::{CorpusBuffer, EmbeddingSet, SkipGram};
use hostprof_net::{ObserverStats, TrafficSynthesizer};
use hostprof_synth::{HostId, Population, StreamConfig, TraceStream, World};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Knobs of one live run.
#[derive(Debug, Clone, Copy)]
pub struct LiveRunConfig {
    /// Stream seed (per-user generators derive from it).
    pub seed: u64,
    /// Target packets per *simulated* second.
    pub target_pps: f64,
    /// Simulated horizon, seconds.
    pub duration_s: u64,
    /// Ingest lanes.
    pub lanes: usize,
    /// Profiler worker threads.
    pub threads: usize,
    /// `Some(n)`: retrain incrementally every `n` report ticks on the
    /// windows served since the last update, and hot-swap the new model
    /// in as a fresh version (the version bundle — unit-norm kNN copy
    /// included — builds on a dedicated thread; ingest never stalls).
    /// `None`: no update ever comes due; version 1 serves the whole run.
    pub update_every: Option<u64>,
}

/// What a live run measured.
#[derive(Debug, Clone)]
pub struct LiveRunReport {
    /// Engine counters.
    pub stats: hostprof_core::ServeStats,
    /// Observer counters merged across lanes.
    pub observer: ObserverStats,
    /// Events dropped beyond the lateness bound.
    pub late_dropped: u64,
    /// Per-report compute latency, milliseconds, ascending.
    pub latencies_ms: Vec<f64>,
    /// Wall-seconds inside `ingest_packet` + flush (tick compute runs
    /// inline on the ingest thread, so it is included).
    pub ingest_seconds: f64,
    /// Wall-seconds for the whole measured loop, generation included.
    pub wall_seconds: f64,
    /// Incremental updates applied (0 when `update_every` is `None`).
    pub updates_applied: u64,
    /// Vocabulary size of the initially trained model.
    pub base_vocab: usize,
    /// Vocabulary size after the last incremental update.
    pub final_vocab: usize,
    /// Per-swap build+publish latency (builder thread, build start to
    /// atomic store), milliseconds, ascending.
    pub publish_latencies_ms: Vec<f64>,
}

impl LiveRunReport {
    /// Sustained packets per wall-second through the engine.
    pub fn sustained_pps(&self) -> f64 {
        self.stats.packets as f64 / self.ingest_seconds.max(1e-9)
    }

    /// Latency percentile (nearest rank) in milliseconds; 0 when no
    /// report fired.
    pub fn latency_percentile_ms(&self, q: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let idx = ((self.latencies_ms.len() - 1) as f64 * q).round() as usize;
        self.latencies_ms[idx.min(self.latencies_ms.len() - 1)]
    }

    /// Whether the merged lane error taxonomy stayed exhaustive.
    pub fn taxonomy_invariant_ok(&self) -> bool {
        self.observer.parse_errors == self.observer.taxonomy_total()
    }
}

/// Retained sessions in the online trainer's reservoir.
const UPDATE_BUFFER_CAPACITY: usize = 4096;
/// Recency bias of the reservoir: < 1 tilts retention toward the recent
/// past, which is the point of updating at all.
const UPDATE_BUFFER_BIAS: f64 = 0.5;

/// Run a calibrated live load through the full serving loop
/// (DESIGN.md §14): the engine serves through a [`VersionedModel`]; every
/// `update_every` fired ticks the closed windows are harvested into a
/// decayed reservoir, the live [`SkipGram`] resumes SGD over the reservoir
/// (growing its vocabulary in place), and the new weights are shipped to a
/// dedicated builder thread that assembles the version bundle — labeled
/// tables, unit-norm kNN copy, any IVF — and publishes it with one atomic
/// store. Ingest never waits on a build; a tick fired mid-build simply
/// serves the previous version. With `update_every: None` no update ever
/// comes due and version 1 serves the whole run.
///
/// Deterministic in its simulated behavior per `(world, population,
/// config)`; only the wall-clock measurements vary run to run.
pub fn run_live(
    world: &World,
    population: &Population,
    pipeline_config: &PipelineConfig,
    run: &LiveRunConfig,
) -> Result<LiveRunReport, String> {
    if run.target_pps <= 0.0 || run.duration_s == 0 || run.lanes == 0 {
        return Err("target_pps, duration_s and lanes must be positive".into());
    }
    let synth = TrafficSynthesizer::default();

    // Warmup segment at a coarse gap: measures the request rate and the
    // packet multiplier, and collects per-user hostname sequences as the
    // training corpus.
    let gap0: u64 = 60_000;
    let warmup_requests = (population.len() * 60).max(4_000);
    let stream_cfg = StreamConfig {
        seed: run.seed,
        mean_gap_ms: gap0,
        ..StreamConfig::default()
    };
    let blocklist = world.blocklist();
    let mut corpus_by_user: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut warmup_span_ms = 0u64;
    let mut warmup_packets = 0usize;
    for r in TraceStream::new(world, population, stream_cfg).take(warmup_requests) {
        warmup_span_ms = warmup_span_ms.max(r.t_ms);
        let hostname = world.hostname(r.host);
        warmup_packets += synth.packets_for_host(r.t_ms, r.user.0, hostname).len();
        corpus_by_user.entry(r.user.0).or_default().push(r.host.0);
    }
    let packets_per_request = warmup_packets as f64 / warmup_requests.max(1) as f64;
    let req_per_simsec = warmup_requests as f64 / (warmup_span_ms.max(1) as f64 / 1000.0);
    // Rate scales as 1/gap; clamp so pathological targets stay sane.
    let mean_gap_ms = ((gap0 as f64 * req_per_simsec * packets_per_request / run.target_pps)
        as u64)
        .clamp(2, 3_600_000);

    let duration_ms = run.duration_s * 1000;
    let run_cfg = StreamConfig {
        mean_gap_ms,
        ..stream_cfg
    };
    let serve_config = ServeConfig {
        lanes: run.lanes,
        session_window_ms: pipeline_config.session_window_ms(),
        report_interval_ms: pipeline_config.report_interval_ms(),
        collect_windows: run.update_every.is_some(),
        ..ServeConfig::default()
    };
    // `None` is the same loop with an update that never comes due.
    let every = run.update_every.map_or(u64::MAX, |n| n.max(1));

    // The live `SkipGram` is kept (rather than just its embeddings) so
    // updates can resume SGD on it. It is the pipeline's model: tracker
    // hostnames never enter the vocabulary.
    let corpus = corpus_by_user.into_values().collect();
    let mut model = Pipeline::new(pipeline_config.clone(), blocklist.clone())
        .prepare(corpus, |id| world.hostname(HostId(id)))?
        .fit();
    let base_vocab = model.vocab().len();
    // Every version, base or updated, gets the pipeline's centering.
    let embeddings_of = |model: &SkipGram| model.embeddings().centered();
    let ontology = Arc::new(world.ontology().clone());
    let versioned = VersionedModel::new(ModelVersion::build(
        1,
        embeddings_of(&model),
        Arc::clone(&ontology),
        pipeline_config.profiler.clone(),
    ));
    let mut buffer = CorpusBuffer::new(
        UPDATE_BUFFER_CAPACITY,
        UPDATE_BUFFER_BIAS,
        run.seed ^ 0x00c0_4b05,
    );
    let mut updates_applied = 0u64;

    std::thread::scope(|scope| {
        // One builder thread serializes version builds, so publishes land
        // in seq order even when updates outpace builds. It returns its
        // per-swap build+publish latencies when the channel closes.
        let (tx, rx) = mpsc::channel::<(u64, EmbeddingSet)>();
        let builder = {
            let versioned = &versioned;
            let ontology = Arc::clone(&ontology);
            let profiler_config = pipeline_config.profiler.clone();
            scope.spawn(move || {
                let mut publish_ms = Vec::new();
                for (seq, embeddings) in rx {
                    let t = Instant::now();
                    versioned.publish(ModelVersion::build(
                        seq,
                        embeddings,
                        Arc::clone(&ontology),
                        profiler_config.clone(),
                    ));
                    publish_ms.push(t.elapsed().as_secs_f64() * 1000.0);
                }
                publish_ms
            })
        };

        let mut engine = ServeEngine::with_versioned(
            serve_config,
            &versioned,
            run.threads.max(1),
            Some(blocklist),
        );
        // The measured loop: a fresh stream at the calibrated gap until the
        // simulated horizon.
        let wall_started = Instant::now();
        let mut ingest_time = Duration::ZERO;
        let mut latencies_ms: Vec<f64> = Vec::new();
        let mut ticks_since_update = 0u64;
        let mut next_seq = 2u64;
        for r in TraceStream::new(world, population, run_cfg) {
            if r.t_ms > duration_ms {
                break;
            }
            // Borrowed hostname straight from the world table — the measured
            // loop allocates nothing per request beyond the packets themselves.
            let packets = synth.packets_for_host(r.t_ms, r.user.0, world.hostname(r.host));
            for pkt in &packets {
                let t = Instant::now();
                let ticks = engine.ingest_packet(pkt);
                ingest_time += t.elapsed();
                let mut due = false;
                for tick in ticks {
                    latencies_ms.push(tick.compute_micros as f64 / 1000.0);
                    ticks_since_update += 1;
                    if ticks_since_update >= every {
                        ticks_since_update = 0;
                        due = true;
                    }
                }
                if due {
                    for close in engine.take_closed_windows() {
                        buffer.push(close.window);
                    }
                    if !buffer.is_empty() {
                        // Resume SGD on the ingest thread (bounded by the
                        // reservoir), then hand the weights to the builder;
                        // serving continues on the old version meanwhile.
                        model.update(buffer.sessions());
                        updates_applied += 1;
                        tx.send((next_seq, embeddings_of(&model)))
                            .expect("builder thread alive");
                        next_seq += 1;
                    }
                }
            }
        }
        let t = Instant::now();
        for tick in engine.flush() {
            latencies_ms.push(tick.compute_micros as f64 / 1000.0);
        }
        ingest_time += t.elapsed();
        let wall_seconds = wall_started.elapsed().as_secs_f64();
        drop(tx); // the builder drains its queue and exits
        let mut publish_latencies_ms = builder
            .join()
            .map_err(|_| "version builder panicked".to_string())?;
        publish_latencies_ms.sort_by(|a, b| a.total_cmp(b));
        latencies_ms.sort_by(|a, b| a.total_cmp(b));

        Ok(LiveRunReport {
            stats: engine.stats(),
            observer: engine.observer_stats(),
            late_dropped: engine.windower().late_dropped(),
            latencies_ms,
            ingest_seconds: ingest_time.as_secs_f64(),
            wall_seconds,
            updates_applied,
            base_vocab,
            final_vocab: model.vocab().len(),
            publish_latencies_ms,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostprof_synth::{PopulationConfig, WorldConfig};

    /// One tiny live run: 12 users, 30 simulated minutes at ~200 pkt/s.
    fn tiny_run(update_every: Option<u64>) -> LiveRunReport {
        let world = World::generate(&WorldConfig::tiny());
        let population = Population::generate(
            &world,
            &PopulationConfig {
                num_users: 12,
                ..PopulationConfig::tiny()
            },
        );
        let run = LiveRunConfig {
            seed: 7,
            target_pps: 200.0,
            duration_s: 1_800,
            lanes: 2,
            threads: 1,
            update_every,
        };
        let cfg = crate::scenario::ScenarioConfig::tiny().pipeline;
        run_live(&world, &population, &cfg, &run).expect("live run")
    }

    #[test]
    fn live_run_profiles_users_and_keeps_the_taxonomy_invariant() {
        let report = tiny_run(None);
        assert!(report.stats.packets > 0);
        assert!(report.stats.observations > 0);
        assert!(report.stats.ticks > 0, "no report tick fired");
        assert!(report.stats.profiles_emitted > 0, "nobody got profiled");
        assert!(report.taxonomy_invariant_ok());
        assert!(!report.latencies_ms.is_empty());
        assert!(report.latency_percentile_ms(0.5) <= report.latency_percentile_ms(0.95));
        // The calibrated rate should land within 3x of the target — the
        // stream is stochastic, the calibration linear.
        let achieved = report.stats.packets as f64 / report.stats.ticks.max(1) as f64;
        assert!(achieved > 0.0);
    }

    #[test]
    fn updating_run_applies_updates_and_grows_the_vocab() {
        let report = tiny_run(Some(2));
        assert!(report.stats.ticks > 0, "no report tick fired");
        assert!(report.stats.profiles_emitted > 0, "nobody got profiled");
        assert!(
            report.updates_applied > 0,
            "expected at least one incremental update over {} ticks",
            report.stats.ticks
        );
        assert_eq!(
            report.updates_applied as usize,
            report.publish_latencies_ms.len(),
            "every update must publish exactly one version"
        );
        assert!(report.base_vocab > 0);
        assert!(
            report.final_vocab >= report.base_vocab,
            "vocab growth is append-only: {} -> {}",
            report.base_vocab,
            report.final_vocab
        );
        assert!(report
            .publish_latencies_ms
            .iter()
            .all(|ms| ms.is_finite() && *ms >= 0.0));
    }

    #[test]
    fn a_never_due_update_is_the_plain_run() {
        // One loop: `None` and an update interval that never elapses must
        // train the same base model (blocklist-filtered — the tiny world
        // has trackers in its traffic) and serve the same stream.
        let [plain, never] = [None, Some(u64::MAX)].map(tiny_run);
        assert_eq!(plain.base_vocab, never.base_vocab);
        assert_eq!(format!("{:?}", plain.stats), format!("{:?}", never.stats));
        assert_eq!(plain.late_dropped, never.late_dropped);
        assert_eq!(never.updates_applied, 0);
        assert_eq!(never.final_vocab, never.base_vocab);
    }

    #[test]
    fn rejects_degenerate_configs() {
        let world = World::generate(&WorldConfig::tiny());
        let population = Population::generate(&world, &PopulationConfig::tiny());
        let cfg = crate::scenario::ScenarioConfig::tiny().pipeline;
        let good = LiveRunConfig {
            seed: 1,
            target_pps: 100.0,
            duration_s: 10,
            lanes: 1,
            threads: 1,
            update_every: None,
        };
        for bad in [
            LiveRunConfig {
                target_pps: 0.0,
                ..good
            },
            LiveRunConfig {
                duration_s: 0,
                ..good
            },
            LiveRunConfig { lanes: 0, ..good },
        ] {
            assert!(run_live(&world, &population, &cfg, &bad).is_err());
        }
    }
}
