//! The two batch workloads: world in, profiles (`batch-large`) or a CTR
//! verdict (`batch-ctr`) out. Nothing here touches `net`.
//!
//! Every stage of `batch-large` is already a public call of its own, so
//! the end-to-end pass and the traced pass time the same calls; the traced
//! pass adds the measurements that are not on the path (the kNN pass alone,
//! the 1-vs-2-thread curve, the flat store round trip).

use crate::digest::Digest;
use crate::run::{measure_for, timed_setups, Outcome};
use crate::serve::{knn_alone, knn_queries_of};
use crate::spans::Recorder;
use crate::stats::{best_per_position, least, median};
use crate::{secs, threads, Args};
use hostprof::ads::{CtrExperiment, EavesdropperSelector, ExperimentConfig, ExperimentResult};
use hostprof::defend::catalog_for_world;
use hostprof::defense::{Defense, DefensePlan};
use hostprof::net::RequestEvent;
use hostprof::profiling::{Pipeline, Session, SessionProfile, SessionSource};
use hostprof::scenario::{Scenario, ScenarioConfig};
use hostprof::synth::trace::DAY_MS;
use hostprof::synth::{generate_columnar, Population, World};
use hostprof_store::TraceColumns;
use std::time::Instant;

/// Sessions re-profiled through the sequential profiler per round.
const SEQUENTIAL_SAMPLES: usize = 64;

fn large_config(seed: u64, smoke: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::large();
    cfg.population.num_users = if smoke { 1_000 } else { 10_000 };
    // World and population are the deployment; the seed draws the trace.
    cfg.trace.seed ^= seed;
    cfg
}

/// Sessions per `profile_sessions` call: profiles are digested and dropped
/// chunk by chunk, the way the serving tick emits them.
fn large_chunk(smoke: bool) -> usize {
    if smoke {
        64
    } else {
        512
    }
}

/// One pass of `batch-large`.
#[derive(Default)]
struct LargeRound {
    events: u64,
    sessions: u64,
    unprofiled: u64,
    /// Seconds of each stage before profiling, in call order.
    stage_s: Vec<f64>,
    /// Milliseconds of each `profile_sessions` call.
    chunk_ms: Vec<f64>,
    digest: Digest,
    sequential_mismatches: u64,
    layers: Vec<(&'static str, f64)>,
}

/// Run one stage and return its result and its seconds; with a recorder,
/// the stage is also a span.
fn stage<R>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    match rec {
        Some(rec) => {
            let (out, ns) = rec.time(name, None, f);
            (out, ns as f64 / 1e9)
        }
        None => {
            let t = Instant::now();
            let out = f();
            (out, secs(t))
        }
    }
}

fn large_round(
    cfg: &ScenarioConfig,
    world: &World,
    population: &Population,
    chunk: usize,
    mut rec: Option<&mut Recorder>,
) -> Result<LargeRound, String> {
    let mut round = LargeRound::default();
    let traced = rec.is_some();
    let pipeline = Pipeline::new(cfg.pipeline.clone(), world.blocklist().clone());

    let (columns, generate_s) = stage(&mut rec, "synth.generate", || {
        generate_columnar(world, population, &cfg.trace)
    });
    round.events = columns.num_events() as u64;
    let source = SessionSource::new(&columns, cfg.pipeline.session_window_ms(), DAY_MS);

    let (sequences, train_sequences_s) = stage(&mut rec, "core.train_sequences", || {
        source.train_sequences(0)
    });
    let (trained, train_s) = stage(&mut rec, "embed.train", || {
        pipeline.train_model_with_stats(&sequences)
    });
    let (embeddings, train_stats) = trained?;
    drop(sequences);

    let (profiler, index_build_s) = stage(&mut rec, "embed.index_build", || {
        pipeline.batch_profiler(&embeddings, world.ontology(), threads())
    });
    let (day, day_sessions_s) = stage(&mut rec, "core.day_sessions", || {
        source.day_sessions(1, Some(pipeline.blocklist()))
    });
    let (users, sessions): (Vec<u32>, Vec<Session>) = day.into_iter().unzip();
    round.sessions = sessions.len() as u64;

    let sample_stride = (sessions.len() / SEQUENTIAL_SAMPLES).max(1);
    let mut profile_s = 0.0;
    let mut knn_s = 0.0;
    let mut knn_queries = 0u64;
    for (c, batch) in sessions.chunks(chunk).enumerate() {
        let (profiles, dt) = stage(&mut rec, "core.profile", || {
            profiler.profile_sessions(batch)
        });
        profile_s += dt;
        round.chunk_ms.push(dt * 1e3);
        for (i, profile) in profiles.iter().enumerate() {
            let at = c * chunk + i;
            round.digest.u64(users[at] as u64);
            round.digest.profile(profile.as_ref());
            round.unprofiled += profile.is_none() as u64;
            if at.is_multiple_of(sample_stride)
                && profiler.profiler().profile(&batch[i]) != *profile
            {
                round.sequential_mismatches += 1;
            }
        }
        if traced {
            let queries = knn_queries_of(profiles.iter().flatten());
            knn_queries += queries.len() as u64;
            knn_s += stage(&mut rec, "embed.knn", || {
                knn_alone(profiler.profiler(), &queries)
            })
            .1;
        }
    }
    round.stage_s = vec![
        generate_s,
        train_sequences_s,
        train_s,
        index_build_s,
        day_sessions_s,
    ];

    let per_session = |s: f64| s * 1e6 / (round.sessions.max(1) as f64);
    round.layers = vec![
        (
            "synth.generate_events_per_s",
            round.events as f64 / generate_s,
        ),
        ("core.train_sequences_s", train_sequences_s),
        (
            "embed.train_tokens_per_s",
            train_stats.processed_tokens as f64 / train_s,
        ),
        ("embed.index_build_s", index_build_s),
        ("embed.vocab", embeddings.len() as f64),
        ("core.day_sessions_s", day_sessions_s),
        ("core.profile_us_per_session", per_session(profile_s)),
        (
            "store.bytes_per_event",
            columns.heap_bytes() as f64 / round.events.max(1) as f64,
        ),
    ];
    if traced {
        round.layers.extend([
            (
                "embed.knn_us_per_query",
                knn_s * 1e6 / knn_queries.max(1) as f64,
            ),
            (
                "core.profile_self_us_per_session",
                per_session((profile_s - knn_s).max(0.0)),
            ),
        ]);

        // The honest multi-core number: the same sample in the same chunks,
        // on one worker and on two.
        let sample = &sessions[..sessions.len().min(4096)];
        let mut curve = [0.0f64; 2];
        for (slot, workers) in curve.iter_mut().zip([1usize, 2]) {
            let p = pipeline.batch_profiler(&embeddings, world.ontology(), workers);
            *slot = stage(&mut rec, "core.profile_curve", || {
                for batch in sample.chunks(chunk) {
                    std::hint::black_box(p.profile_sessions(batch));
                }
            })
            .1;
        }
        round
            .layers
            .push(("core.profile_speedup_2t", curve[0] / curve[1]));

        let (flat, write_s) = stage(&mut rec, "store.flat_write", || columns.to_flat_bytes());
        let (back, read_s) = stage(&mut rec, "store.flat_read", || {
            TraceColumns::from_flat_bytes(&flat)
        });
        let back = back.map_err(|e| format!("flat decode: {e}"))?;
        if back.num_events() as u64 != round.events {
            return Err("flat round trip lost events".into());
        }
        let mb = flat.len() as f64 / 1e6;
        round.layers.extend([
            ("store.flat_write_mb_per_s", mb / write_s),
            ("store.flat_read_mb_per_s", mb / read_s),
        ]);
    }
    Ok(round)
}

pub fn large(args: &Args) -> Result<Outcome, String> {
    let cfg = large_config(args.seed, args.smoke);
    let chunk = large_chunk(args.smoke);
    let mut out = Outcome::default();

    let ((world, population, world_s), setup_s) = timed_setups(args.trace, || {
        let t = Instant::now();
        let world = World::generate(&cfg.world);
        let world_s = secs(t);
        let population = Population::generate(&world, &cfg.population);
        Ok((world, population, world_s))
    })?;

    let mut rec = args.trace.then(Recorder::new);
    let rounds: Vec<LargeRound> = measure_for(args.seconds, |i| {
        if let Some(rec) = rec.as_mut() {
            rec.set_round(i as u32);
        }
        large_round(&cfg, &world, &population, chunk, rec.as_mut())
    })?;

    let first = &rounds[0];
    out.check(
        "rounds_agree",
        rounds.iter().all(|r| r.digest == first.digest),
    );
    out.check(
        "sequential_equals_batch",
        rounds.iter().all(|r| r.sequential_mismatches == 0),
    );
    out.attempted = first.sessions;
    out.failed = first.unprofiled + first.sequential_mismatches;
    out.digest = first.digest.hex();
    out.rounds = rounds.len();
    out.load = vec![("events", first.events), ("sessions", first.sessions)];

    let of = |f: &dyn Fn(&LargeRound) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    out.values.set("setup_s", least(&setup_s));
    // Every round makes the same calls on the same input, so each stage and
    // each chunk is taken at the best any round measured it: wall time is
    // input in hand to last profile with the host's noise left out.
    let stages: Vec<Vec<f64>> = rounds.iter().map(|r| r.stage_s.clone()).collect();
    let chunks: Vec<Vec<f64>> = rounds.iter().map(|r| r.chunk_ms.clone()).collect();
    let chunks = best_per_position(&chunks, f64::min);
    let wall_s =
        best_per_position(&stages, f64::min).iter().sum::<f64>() + chunks.iter().sum::<f64>() / 1e3;
    out.values.set("input_per_s", first.events as f64 / wall_s);
    out.values.set("step_p50_ms", median(&chunks));
    out.values.set("synth.world_s", world_s);
    for (name, _) in &first.layers {
        let name: &'static str = name;
        out.values.set(
            name,
            of(&|r| {
                r.layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |l| l.1)
            }),
        );
    }
    out.spans = rec;
    Ok(out)
}

fn ctr_config(seed: u64, smoke: bool) -> ScenarioConfig {
    let mut cfg = if smoke {
        ScenarioConfig::tiny()
    } else {
        ScenarioConfig::small()
    };
    cfg.trace.days = 3;
    // World, population and ad inventory are the deployment; the seed draws
    // the trace and (below) the impression and click stream.
    cfg.trace.seed ^= seed;
    cfg
}

fn ctr_digest(r: &ExperimentResult) -> Digest {
    let mut d = Digest::default();
    for v in [
        r.impressions,
        r.replaced,
        r.reports,
        r.profiles,
        r.models_trained,
    ] {
        d.u64(v);
    }
    d.f64(r.eaves_ctr());
    d.f64(r.orig_ctr());
    d
}

pub fn ctr(args: &Args) -> Result<Outcome, String> {
    let cfg = ctr_config(args.seed, args.smoke);
    let mut out = Outcome::default();

    let (s, setup_s) = timed_setups(args.trace, || Ok(Scenario::generate(&cfg)))?;
    let experiment = CtrExperiment::new(
        &s.world,
        &s.population,
        &s.trace,
        &s.ads,
        ExperimentConfig {
            pipeline: cfg.pipeline.clone(),
            profile_threads: threads(),
            seed: ExperimentConfig::default().seed ^ args.seed,
            ..ExperimentConfig::default()
        },
    );

    let mut rec = args.trace.then(Recorder::new);
    let mut run_s = Vec::new();
    let results: Vec<ExperimentResult> = measure_for(args.seconds, |i| {
        if let Some(rec) = rec.as_mut() {
            rec.set_round(i as u32);
        }
        let (result, s) = stage(&mut rec.as_mut(), "ads.ctr_run", || experiment.run());
        run_s.push(s);
        Ok(result)
    })?;

    let first = &results[0];
    let digest = ctr_digest(first);
    out.check(
        "rounds_agree",
        results.iter().all(|r| ctr_digest(r) == digest),
    );
    // The paper replaced 41 K of 270 K ads; the smoke world is too small to
    // land in the band.
    let share = first.replaced_fraction();
    out.check(
        "replaced_share_in_band",
        args.smoke || (0.10..=0.20).contains(&share),
    );
    // A report that came back without a profile fetched no ads.
    out.attempted = first.reports;
    out.failed = first.reports - first.profiles;
    out.digest = digest.hex();
    out.rounds = results.len();
    let events = s.trace.requests().len() as u64;
    out.load = vec![
        ("events", events),
        ("reports", first.reports),
        ("impressions", first.impressions),
    ];

    // `CtrExperiment::run` is one call: the fastest of the runs.
    let wall = least(&run_s);
    out.values.set("setup_s", least(&setup_s));
    out.values.set("input_per_s", events as f64 / wall);
    out.values.set("step_p50_ms", wall * 1e3);
    out.values.set("ads.ctr_run_s", wall);
    out.values.set("synth.trace_generate_s", least(&setup_s));

    if let Some(rec) = rec.as_mut() {
        // Off the path: the selector over day-1 profiles, and a defense
        // transform over the same trace.
        let pipeline = s.pipeline();
        let embeddings = pipeline.train_model(&s.daily_hostname_sequences(0))?;
        let profiler = pipeline.batch_profiler(&embeddings, s.world.ontology(), threads());
        let sessions: Vec<Session> = s
            .population
            .users()
            .iter()
            .map(|u| {
                let window = s.session_hostnames(u.id, 1);
                Session::from_window(
                    window.iter().map(String::as_str),
                    Some(pipeline.blocklist()),
                )
            })
            .collect();
        let profiles: Vec<SessionProfile> = profiler
            .profile_sessions(&sessions)
            .into_iter()
            .flatten()
            .collect();
        let selector = EavesdropperSelector::new(&s.ads, s.world.ontology(), Default::default());
        let (_, ns) = rec.time("ads.select", None, || {
            for p in &profiles {
                std::hint::black_box(selector.select(&p.categories));
            }
        });
        out.values.set(
            "ads.select_us_per_profile",
            ns as f64 / 1e3 / profiles.len().max(1) as f64,
        );

        let trace_events: Vec<RequestEvent> = s
            .trace
            .requests()
            .iter()
            .map(|r| RequestEvent {
                t_ms: r.t_ms,
                client: r.user.0,
                hostname: s.world.hostname(r.host).to_string(),
            })
            .collect();
        let plan = DefensePlan::new(
            Defense::Ech { adoption: 0.25 },
            catalog_for_world(&s.world),
            args.seed,
        );
        let (defended, ns) = rec.time("defense.transform", None, || plan.transform(&trace_events));
        if defended.len() < trace_events.len() {
            return Err("a defense transform dropped events".into());
        }
        out.values.set(
            "defense.transform_events_per_s",
            trace_events.len() as f64 / (ns as f64 / 1e9),
        );
    }
    out.spans = rec;
    Ok(out)
}
