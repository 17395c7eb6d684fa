//! The three serving workloads: packets in, profiles out.
//!
//! Closed loop, one caller, no think time: [`ServeEngine`] ingests
//! synchronously and runs ticks inline, so what one thread can push through
//! it is the sustainable rate. Requests come from [`TraceStream`] and are
//! lowered to packets one chunk at a time outside the timed region; only
//! the engine calls on a finished chunk are timed.
//!
//! A run is a number of identical *rounds* over the same stream, each with
//! a fresh engine, so that every timing is the best of several repetitions
//! and every round must reproduce the first one's digest.
//!
//! The loop here is the harness's own and not `hostprof::serving::run_live`
//! (the loop behind `hostprof serve`), for what that function does not give
//! a caller: it fixes the wire mix to `TrafficSynthesizer::default()`, so
//! `serve-dense`'s NAT, fragmentation and DNS cannot be asked for; it
//! generates packets between engine calls and reports one wall time, so
//! generator and engine cannot be told apart; and it keeps its engine, so
//! neither the tick schedule the traced pass replays nor a per-tick digest
//! can be read. The updating round below follows `run_live_updating` step
//! for step (collect windows, update on the ingest thread, build and
//! publish on one builder thread); a change to that product loop has to be
//! mirrored here to be measured.
//!
//! The traced pass ([`replay_round`]) drives each layer alone on the inputs
//! the engine saw: the observer per chunk, the windower per tick interval,
//! `close_tick` at the boundaries and packet positions the engine fired at,
//! session building, the batch profiler, and a standalone kNN pass over the
//! session vectors. It replays the recorded schedule instead of deriving
//! one, so none of the engine's scheduling logic is rebuilt here.

use crate::digest::TickDigest;
use crate::spans::Recorder;
use crate::{secs, threads};
use hostprof::embed::{CorpusBuffer, EmbeddingSet, KnnScratch, NnIndex, SkipGram};
use hostprof::net::{Addressing, FlowKey, ObserverStats, Packet, SniObserver, TrafficSynthesizer};
use hostprof::profiling::serve::{TickEntry, WindowClose};
use hostprof::profiling::{
    BatchProfiler, IncrementalWindower, ModelVersion, Pipeline, Profiler, ServeConfig, ServeEngine,
    Session, SessionProfile, TickReport, VersionedModel,
};
use hostprof::scenario::ScenarioConfig;
use hostprof::synth::{Population, Request, StreamConfig, TraceStream, World};
use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Requests lowered per chunk; bounds the packets resident at once.
const CHUNK_REQUESTS: usize = 16_384;
/// Share of the simulated horizon ingested before measurement starts
/// (SIMD dispatch, allocator growth, first windows).
const WARMUP_SHARE: f64 = 0.05;
/// Sessions re-profiled through the sequential [`Profiler`] per replay.
const SEQUENTIAL_SAMPLES: u64 = 64;

/// What distinguishes the serving workloads.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub users: usize,
    pub sim_hours: u64,
    pub think_ms: u64,
    /// Users sharing one source IP; `None` gives every user an IP.
    pub nat_clients_per_ip: Option<u32>,
    pub tcp_fragment_fraction: f64,
    pub dns_fraction: f64,
    /// Retrain and publish every this many ticks.
    pub update_every: Option<u64>,
    /// Requests per user drawn for the initial training corpus.
    pub corpus_requests_per_user: usize,
}

pub fn shape(workload: &str, smoke: bool) -> Option<Shape> {
    let wire = TrafficSynthesizer::default();
    let wide = Shape {
        users: if smoke { 60 } else { 600 },
        sim_hours: if smoke { 2 } else { 6 },
        think_ms: 120_000,
        nat_clients_per_ip: None,
        tcp_fragment_fraction: wire.tcp_fragment_fraction,
        dns_fraction: wire.dns_fraction,
        update_every: None,
        corpus_requests_per_user: if smoke { 100 } else { 400 },
    };
    match workload {
        "serve-wide" => Some(wide),
        "serve-dense" => Some(Shape {
            nat_clients_per_ip: Some(40),
            tcp_fragment_fraction: 0.6,
            dns_fraction: 0.3,
            ..wide
        }),
        "serve-update" => Some(Shape {
            update_every: Some(4),
            ..wide
        }),
        _ => None,
    }
}

/// Retained sessions and recency bias of the online trainer's reservoir:
/// `hostprof serve --update-every`'s bias and a quarter of its capacity
/// (4096 there), because a round here is a sixth of the issue's sketch and
/// has to fit nine updates.
const UPDATE_BUFFER: (usize, f64) = (1024, 0.5);

/// Everything built before the first timed call.
pub struct Fixture {
    shape: Shape,
    world: World,
    population: Population,
    pipeline: Pipeline,
    corpus: Vec<Vec<String>>,
    synth: TrafficSynthesizer,
    stream: StreamConfig,
    serve: ServeConfig,
    seed: u64,
    /// The fixed model (`update_every == None`).
    embeddings: Option<EmbeddingSet>,
    /// The initially trained online model, for the first round to take.
    online: Option<SkipGram>,
    pub world_s: f64,
    pub train_s: f64,
    pub train_tokens: u64,
    pub index_build_s: f64,
    pub vocab: usize,
}

impl Fixture {
    /// World, population, warm-up corpus, initial training and one
    /// profiler/version build; `seed` draws the corpus and the stream.
    pub fn build(shape: Shape, seed: u64) -> Result<Self, String> {
        // The hostname universe and the subscriber base are the deployment;
        // the seed draws the traffic.
        let mut cfg = ScenarioConfig::small();
        cfg.population.num_users = shape.users;

        let t = Instant::now();
        let world = World::generate(&cfg.world);
        let world_s = secs(t);
        let population = Population::generate(&world, &cfg.population);

        let stream = StreamConfig {
            seed: StreamConfig::default().seed ^ seed,
            mean_gap_ms: shape.think_ms,
            ..StreamConfig::default()
        };
        // The corpus comes from a differently seeded stream over the same
        // users: the model knows the traffic's shape, not its future.
        let corpus_stream = StreamConfig {
            seed: stream.seed ^ 0x00c0_4b05,
            ..stream
        };
        let mut by_user: Vec<Vec<String>> = vec![Vec::new(); shape.users];
        for r in TraceStream::new(&world, &population, corpus_stream)
            .take(shape.users * shape.corpus_requests_per_user)
        {
            by_user[r.user.index()].push(world.hostname(r.host).to_string());
        }
        let corpus: Vec<Vec<String>> = by_user.into_iter().filter(|s| !s.is_empty()).collect();

        let pipeline = Pipeline::new(cfg.pipeline.clone(), world.blocklist().clone());
        let serve = ServeConfig {
            session_window_ms: pipeline.config().session_window_ms(),
            report_interval_ms: pipeline.config().report_interval_ms(),
            collect_windows: shape.update_every.is_some(),
            ..ServeConfig::default()
        };
        let base = TrafficSynthesizer::default();
        let base_ip = match base.addressing {
            Addressing::PerClient { base_ip } | Addressing::Nat { base_ip, .. } => base_ip,
        };
        let synth = TrafficSynthesizer {
            addressing: match shape.nat_clients_per_ip {
                Some(clients_per_ip) => Addressing::Nat {
                    base_ip,
                    clients_per_ip,
                },
                None => base.addressing,
            },
            tcp_fragment_fraction: shape.tcp_fragment_fraction,
            dns_fraction: shape.dns_fraction,
            ..base
        };

        let mut fx = Self {
            shape,
            world,
            population,
            pipeline,
            corpus,
            synth,
            stream,
            serve,
            seed,
            embeddings: None,
            online: None,
            world_s,
            train_s: 0.0,
            train_tokens: 0,
            index_build_s: 0.0,
            vocab: 0,
        };
        let t = Instant::now();
        if shape.update_every.is_some() {
            let model = fx.train_online()?;
            fx.train_s = secs(t);
            fx.train_tokens = model.train_stats().processed_tokens;
            fx.vocab = model.vocab().len();
            let t = Instant::now();
            drop(fx.first_version(&model));
            fx.index_build_s = secs(t);
            fx.online = Some(model);
        } else {
            let (embeddings, stats) = fx.pipeline.train_model_with_stats(&fx.corpus)?;
            fx.train_s = secs(t);
            fx.train_tokens = stats.processed_tokens;
            fx.vocab = embeddings.len();
            let t = Instant::now();
            drop(
                fx.pipeline
                    .batch_profiler(&embeddings, fx.world.ontology(), threads()),
            );
            fx.index_build_s = secs(t);
            fx.embeddings = Some(embeddings);
        }
        Ok(fx)
    }

    fn train_online(&self) -> Result<SkipGram, String> {
        SkipGram::train(&self.corpus, &self.pipeline.config().skipgram)
    }

    fn first_version(&self, model: &SkipGram) -> ModelVersion {
        ModelVersion::build(
            1,
            model.embeddings(),
            Arc::new(self.world.ontology().clone()),
            self.pipeline.config().profiler.clone(),
        )
    }

    fn horizon_ms(&self) -> u64 {
        self.shape.sim_hours * 3_600_000
    }

    fn update_buffer(&self) -> CorpusBuffer {
        CorpusBuffer::new(UPDATE_BUFFER.0, UPDATE_BUFFER.1, self.seed ^ 0x00c0_4b05)
    }
}

/// How long the load generator treats a 5-tuple as taken: twice the
/// observer's flow idle timeout, so a flow is always evicted before its
/// tuple comes back.
const TUPLE_HOLD_MS: u64 = 600_000;

/// Pulls the stream one chunk at a time and lowers it to packets.
///
/// A request whose 5-tuple was used within [`TUPLE_HOLD_MS`] is not sent,
/// as a client's TCP stack would not reuse that port yet; the observer
/// would take its packets for the tail of the finished flow and the
/// hostname would count as lost although nothing misbehaved.
struct ChunkSource<'a> {
    fx: &'a Fixture,
    stream: TraceStream<'a>,
    requests: Vec<Request>,
    packets: Vec<Packet>,
    /// Last use of each 5-tuple still held.
    tuples: HashMap<FlowKey, u64>,
    /// Requests sent so far, and requests withheld for a held tuple.
    sent: u64,
    withheld: u64,
    done: bool,
}

impl<'a> ChunkSource<'a> {
    fn new(fx: &'a Fixture) -> Self {
        Self {
            fx,
            stream: TraceStream::new(&fx.world, &fx.population, fx.stream),
            requests: Vec::new(),
            packets: Vec::new(),
            tuples: HashMap::new(),
            sent: 0,
            withheld: 0,
            done: false,
        }
    }

    /// Draw the next chunk of requests; `false` once the horizon is past.
    fn pull(&mut self) -> bool {
        self.requests.clear();
        while !self.done && self.requests.len() < CHUNK_REQUESTS {
            match self.stream.next() {
                Some(r) if r.t_ms <= self.fx.horizon_ms() => self.requests.push(r),
                _ => self.done = true,
            }
        }
        !self.requests.is_empty()
    }

    fn lower(&mut self) {
        self.packets.clear();
        let Some(first) = self.requests.first() else {
            return;
        };
        let stale = first.t_ms.saturating_sub(TUPLE_HOLD_MS);
        self.tuples.retain(|_, used| *used >= stale);
        for r in &self.requests {
            let lowered =
                self.fx
                    .synth
                    .packets_for_host(r.t_ms, r.user.0, self.fx.world.hostname(r.host));
            // The connection's own flow is the last packet's; a leading DNS
            // query is a flow the observer never inspects.
            let key = FlowKey::of(lowered.last().expect("a request is at least one packet"));
            match self.tuples.insert(key, r.t_ms) {
                Some(used) if r.t_ms - used <= TUPLE_HOLD_MS => self.withheld += 1,
                _ => {
                    self.sent += 1;
                    self.packets.extend(lowered);
                }
            }
        }
    }
}

/// One tick the engine fired: enough to fire it again at the same place.
#[derive(Debug, Clone, Copy)]
struct TickMark {
    boundary: u64,
    /// Index of the packet whose ingest call returned the tick; the packet
    /// count for the ticks `flush` returned.
    after_packet: u64,
    model_seq: u64,
}

/// What one pass of the stream through the engine produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Requests sent, each one hostname; requests withheld for port reuse.
    pub requests: u64,
    pub withheld: u64,
    pub packets: u64,
    pub measured_packets: u64,
    /// Time inside engine calls over the whole stream / past the warm-up.
    pub engine_ns: u64,
    pub measured_engine_ns: u64,
    /// Time inside the measured engine calls that returned a tick.
    pub measured_tick_ns: u64,
    pub tick_ms: Vec<f64>,
    /// Packets per second of engine time over each stretch from one
    /// measured tick to the next, the tick included.
    pub interval_pps: Vec<f64>,
    marks: Vec<TickMark>,
    /// Indices into `marks` after which an update was triggered.
    update_after: Vec<usize>,
    pub digest: TickDigest,
    pub sessions: u64,
    pub unprofiled: u64,
    pub observations: u64,
    pub observer: ObserverStats,
    pub late_dropped: u64,
    pub resident_peak: usize,
    pub publish_ms: Vec<f64>,
}

impl Round {
    pub fn ticks(&self) -> usize {
        self.marks.len()
    }

    pub fn updates(&self) -> usize {
        self.update_after.len()
    }

    fn note_tick(&mut self, tick: &TickReport, after_packet: u64) {
        self.marks.push(TickMark {
            boundary: tick.boundary,
            after_packet,
            model_seq: tick.model_seq,
        });
        self.digest.tick(tick);
        self.sessions += tick.entries.len() as u64;
        self.unprofiled += tick.entries.iter().filter(|e| e.profile.is_none()).count() as u64;
    }

    /// Hostnames lost on the wire, events dropped as late, and closed
    /// sessions that came back without a profile: whatever the reason, the
    /// observer has nothing to sell for that session.
    pub fn failed(&self) -> u64 {
        self.requests.abs_diff(self.observations) + self.late_dropped + self.unprofiled
    }

    pub fn attempted(&self) -> u64 {
        self.requests + self.sessions
    }
}

/// Push the whole stream through `engine`. `after_ticks(engine, round)` runs
/// after every engine call that returned ticks, outside the timed region.
fn engine_round(
    fx: &Fixture,
    engine: &mut ServeEngine<'_>,
    mut after_ticks: impl FnMut(&mut ServeEngine<'_>, &mut Round),
) -> Round {
    let mut round = Round::default();
    let warm_until = (fx.horizon_ms() as f64 * WARMUP_SHARE) as u64;
    let mut source = ChunkSource::new(fx);
    // Packets and engine time since the last measured tick.
    let mut interval = (0u64, 0u64);
    while source.pull() {
        source.lower();
        // One clock read per packet: a call's duration is the gap between
        // consecutive reads. The clock restarts after tick bookkeeping so
        // that digesting and updating stay outside the timed region.
        let mut last = Instant::now();
        for pkt in &source.packets {
            let ticks = engine.ingest_packet(pkt);
            let now = Instant::now();
            let dt = (now - last).as_nanos() as u64;
            last = now;
            let measured = pkt.t_ms >= warm_until;
            round.engine_ns += dt;
            if measured {
                round.measured_engine_ns += dt;
                round.measured_packets += 1;
                interval.0 += 1;
                interval.1 += dt;
            }
            if !ticks.is_empty() {
                if measured {
                    round.measured_tick_ns += dt;
                    round.tick_ms.push(dt as f64 / 1e6);
                    round
                        .interval_pps
                        .push(interval.0 as f64 / (interval.1 as f64 / 1e9));
                    interval = (0, 0);
                }
                for tick in &ticks {
                    round.note_tick(tick, round.packets);
                }
                drop(ticks);
                after_ticks(engine, &mut round);
                last = Instant::now();
            }
            round.packets += 1;
        }
    }
    round.requests = source.sent;
    round.withheld = source.withheld;
    let t = Instant::now();
    let ticks = engine.flush();
    let dt = t.elapsed().as_nanos() as u64;
    round.engine_ns += dt;
    round.measured_engine_ns += dt;
    if !ticks.is_empty() {
        round.measured_tick_ns += dt;
        round.tick_ms.push(dt as f64 / 1e6);
        interval.1 += dt;
        round
            .interval_pps
            .push(interval.0 as f64 / (interval.1 as f64 / 1e9));
    }
    for tick in &ticks {
        round.note_tick(tick, round.packets);
    }
    round.observations = engine.stats().observations;
    round.observer = engine.observer_stats();
    round.late_dropped = engine.windower().late_dropped();
    round.resident_peak = engine.windower().peak_resident_events();
    round
}

/// One end-to-end round with a fresh engine (and, when updating, a fresh
/// online model, reservoir, version handle and builder thread).
pub fn e2e_round(fx: &mut Fixture) -> Result<Round, String> {
    let Some(every) = fx.shape.update_every else {
        let embeddings = fx
            .embeddings
            .as_ref()
            .expect("fixed model trained in build");
        let profiler = fx
            .pipeline
            .batch_profiler(embeddings, fx.world.ontology(), threads());
        let mut engine = ServeEngine::new(fx.serve, profiler, Some(fx.pipeline.blocklist()));
        return Ok(engine_round(fx, &mut engine, |_, _| {}));
    };

    let mut model = match fx.online.take() {
        Some(m) => m,
        None => fx.train_online()?,
    };
    let fx = &*fx;
    let versioned = VersionedModel::new(fx.first_version(&model));
    let mut buffer = fx.update_buffer();
    let ontology = Arc::new(fx.world.ontology().clone());
    let publish_ms: Mutex<Vec<f64>> = Mutex::new(Vec::new());

    let mut round = std::thread::scope(|scope| {
        // One builder thread serializes version builds, so publishes land
        // in seq order; ingest never waits on a build.
        let (tx, rx) = mpsc::channel::<(u64, EmbeddingSet, Instant)>();
        let (versioned, ontology, publish_ms) = (&versioned, &ontology, &publish_ms);
        scope.spawn(move || {
            for (seq, embeddings, triggered) in rx {
                versioned.publish(ModelVersion::build(
                    seq,
                    embeddings,
                    Arc::clone(ontology),
                    fx.pipeline.config().profiler.clone(),
                ));
                publish_ms
                    .lock()
                    .expect("no holder of the latency lock panics")
                    .push(triggered.elapsed().as_secs_f64() * 1e3);
            }
        });
        let mut engine = ServeEngine::with_versioned(
            fx.serve,
            versioned,
            threads(),
            Some(fx.pipeline.blocklist()),
        );
        let mut ticks_seen = 0usize;
        let mut since_update = 0u64;
        let mut next_seq = 2u64;
        engine_round(fx, &mut engine, |engine, round| {
            since_update += (round.marks.len() - ticks_seen) as u64;
            ticks_seen = round.marks.len();
            if since_update < every {
                return;
            }
            since_update = 0;
            let triggered = Instant::now();
            for close in engine.take_closed_windows() {
                buffer.push(close.window);
            }
            if buffer.is_empty() {
                return;
            }
            round.update_after.push(round.marks.len() - 1);
            model.update(buffer.sessions());
            tx.send((next_seq, model.embeddings(), triggered))
                .expect("builder thread outlives the round");
            next_seq += 1;
        })
        // `tx` drops here: the builder drains its queue and the scope joins.
    });
    round.publish_ms = publish_ms
        .into_inner()
        .expect("no holder of the latency lock panics");
    Ok(round)
}

/// Per-round layer measurements of the traced pass.
#[derive(Debug, Default)]
pub struct Replay {
    pub digest: TickDigest,
    /// Wall time of the replay's engine-equivalent sections, span recording
    /// and the walk between layers included.
    pub traced_ns: u64,
    pub observe_ns: u64,
    pub insert_ns: u64,
    pub close_ns: u64,
    pub session_ns: u64,
    pub profile_ns: u64,
    pub report_ns: u64,
    pub knn_ns: u64,
    pub knn_queries: u64,
    pub stream_ns: u64,
    pub synth_ns: u64,
    pub update_ns: u64,
    pub update_tokens: u64,
    pub version_build_ns: u64,
    pub publish_ns: u64,
    pub versions: u64,
    pub slow_path_packets: u64,
    pub observations: u64,
    pub window_events: u64,
    pub sequential_checked: u64,
    pub sequential_mismatches: u64,
    /// Updates or publishes the recorded schedule asked for that the replay
    /// could not reproduce.
    pub schedule_errors: u64,
}

/// What the replay profiles a tick against. One lives on the stack per
/// replay, so the size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum ReplayModel<'a> {
    Fixed(BatchProfiler<'a>),
    Online {
        model: SkipGram,
        versioned: &'a VersionedModel,
        /// Built, not yet published.
        pending: VecDeque<ModelVersion>,
        buffer: CorpusBuffer,
        /// Windows closed since the last update, as the engine collects them.
        collected: Vec<WindowClose>,
        next_seq: u64,
    },
}

/// The session vectors a batch of profiles came from: the queries of its
/// kNN pass.
pub fn knn_queries_of<'a>(profiles: impl Iterator<Item = &'a SessionProfile>) -> Vec<Vec<f32>> {
    profiles
        .filter(|p| !p.session_vector.is_empty())
        .map(|p| p.session_vector.clone())
        .collect()
}

/// The kNN pass of `profile_sessions` alone: same index, same neighbor
/// count, same split over workers.
pub fn knn_alone(profiler: &Profiler<'_>, queries: &[Vec<f32>]) {
    if queries.is_empty() {
        return;
    }
    let (set, index, n): (&EmbeddingSet, &dyn NnIndex, usize) = (
        profiler.embeddings(),
        profiler.index(),
        profiler.config().n_neighbors,
    );
    let workers = threads().min(queries.len());
    let chunk = queries.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for qs in queries.chunks(chunk) {
            scope.spawn(move || {
                std::hint::black_box(set.nearest_to_vectors_with_index(
                    qs,
                    n,
                    index,
                    &mut KnnScratch::new(),
                ));
            });
        }
    });
}

/// Drive each layer alone over the stream, firing the ticks `e2e` recorded.
pub fn replay_round(fx: &Fixture, e2e: &Round, rec: &mut Recorder) -> Result<Replay, String> {
    let online = match fx.shape.update_every {
        Some(_) => Some(fx.train_online()?),
        None => None,
    };
    let versioned = online
        .as_ref()
        .map(|model| VersionedModel::new(fx.first_version(model)));
    let mut model = match (online, &versioned) {
        (Some(model), Some(versioned)) => ReplayModel::Online {
            model,
            versioned,
            pending: VecDeque::new(),
            buffer: fx.update_buffer(),
            collected: Vec::new(),
            next_seq: 2,
        },
        _ => ReplayModel::Fixed(
            fx.pipeline.batch_profiler(
                fx.embeddings
                    .as_ref()
                    .expect("fixed model trained in build"),
                fx.world.ontology(),
                threads(),
            ),
        ),
    };
    let ontology = Arc::new(fx.world.ontology().clone());
    let blocklist = Some(fx.pipeline.blocklist());
    let sample_stride = (e2e.sessions / SEQUENTIAL_SAMPLES).max(1);

    let mut out = Replay::default();
    let root = rec.enter("round", None);
    let mut observer = SniObserver::with_config(fx.serve.observer);
    let mut windower = IncrementalWindower::new(fx.serve.session_window_ms);
    let mut source = ChunkSource::new(fx);
    let mut packets_before = 0u64;
    let mut next_mark = 0usize;
    let mut sessions_seen = 0u64;
    // (packet index, observation) pairs of the current chunk.
    let mut observed = Vec::new();

    // Fire the recorded tick `mark_idx`.
    let mut fire = |mark_idx: usize,
                    windower: &mut IncrementalWindower,
                    model: &mut ReplayModel<'_>,
                    out: &mut Replay,
                    rec: &mut Recorder| {
        let mark = e2e.marks[mark_idx];
        let section = Instant::now();
        if let ReplayModel::Online {
            versioned, pending, ..
        } = model
        {
            while versioned.current_seq() < mark.model_seq {
                let Some(version) = pending.pop_front() else {
                    out.schedule_errors += 1;
                    break;
                };
                let (_, ns) = rec.time("core.publish", Some(root), || versioned.publish(version));
                out.publish_ns += ns;
            }
        }
        let tick = rec.enter("core.tick", Some(root));
        let (closes, ns) = rec.time("core.window_close", Some(tick), || {
            let closes = windower.close_tick(mark.boundary);
            if let ReplayModel::Online { collected, .. } = model {
                collected.extend(closes.iter().cloned());
            }
            closes
        });
        out.close_ns += ns;
        let (sessions, ns) = rec.time("core.session_build", Some(tick), || {
            closes
                .iter()
                .map(|c| Session::from_window(c.window.iter().map(String::as_str), blocklist))
                .collect::<Vec<Session>>()
        });
        out.session_ns += ns;
        let online_batch;
        let (batch, model_seq) = match model {
            ReplayModel::Fixed(batch) => (&*batch, 0),
            ReplayModel::Online { versioned, .. } => {
                let version = versioned.load();
                online_batch = BatchProfiler::new(version.profiler(), threads());
                (&online_batch, version.seq())
            }
        };
        let (profiles, ns) = rec.time("core.profile", Some(tick), || {
            batch.profile_sessions(&sessions)
        });
        out.profile_ns += ns;
        out.traced_ns += section.elapsed().as_nanos() as u64;

        for (session, profile) in sessions.iter().zip(&profiles) {
            if sessions_seen.is_multiple_of(sample_stride)
                && out.sequential_checked < SEQUENTIAL_SAMPLES
            {
                out.sequential_checked += 1;
                let sequential: Option<SessionProfile> = batch.profiler().profile(session);
                if sequential != *profile {
                    out.sequential_mismatches += 1;
                }
            }
            sessions_seen += 1;
        }
        out.window_events += closes.iter().map(|c| c.window.len() as u64).sum::<u64>();

        // What is left of the engine's tick: the report is assembled and
        // the tick's windows and sessions are freed.
        let section = Instant::now();
        let (report, ns) = rec.time("core.report", Some(tick), || {
            let entries = closes
                .into_iter()
                .zip(profiles)
                .map(|(c, profile)| TickEntry {
                    user: c.user,
                    anchor: c.anchor,
                    profile,
                })
                .collect();
            drop(sessions);
            TickReport {
                boundary: mark.boundary,
                entries,
                compute_micros: 0,
                model_seq,
            }
        });
        out.report_ns += ns;
        rec.exit(tick);
        out.traced_ns += section.elapsed().as_nanos() as u64;
        out.digest.tick(&report);

        let queries = knn_queries_of(report.entries.iter().filter_map(|e| e.profile.as_ref()));
        let (_, ns) = rec.time("embed.knn", Some(root), || {
            knn_alone(batch.profiler(), &queries)
        });
        out.knn_ns += ns;
        out.knn_queries += queries.len() as u64;

        if e2e.update_after.contains(&mark_idx) {
            let ReplayModel::Online {
                model,
                pending,
                buffer,
                collected,
                next_seq,
                ..
            } = model
            else {
                out.schedule_errors += 1;
                return;
            };
            for close in collected.drain(..) {
                buffer.push(close.window);
            }
            let (report, ns) = rec.time("embed.update", Some(root), || {
                model.update(buffer.sessions())
            });
            out.update_ns += ns;
            out.update_tokens += report.stats.processed_tokens;
            let (version, ns) = rec.time("core.version_build", Some(root), || {
                ModelVersion::build(
                    *next_seq,
                    model.embeddings(),
                    Arc::clone(&ontology),
                    fx.pipeline.config().profiler.clone(),
                )
            });
            out.version_build_ns += ns;
            out.versions += 1;
            pending.push_back(version);
            *next_seq += 1;
        }
    };

    loop {
        let (more, ns) = rec.time("synth.stream", Some(root), || source.pull());
        out.stream_ns += ns;
        if !more {
            break;
        }
        let (_, ns) = rec.time("net.synth", Some(root), || source.lower());
        out.synth_ns += ns;

        let section = Instant::now();
        let (_, ns) = rec.time("net.observe", Some(root), || {
            for (i, pkt) in source.packets.iter().enumerate() {
                observer.process(pkt);
                if observer.observations().is_empty() {
                    out.slow_path_packets += 1;
                } else {
                    for obs in observer.take_observations() {
                        observed.push((packets_before + i as u64, obs));
                    }
                }
            }
        });
        out.observe_ns += ns;
        out.observations += observed.len() as u64;
        out.traced_ns += section.elapsed().as_nanos() as u64;

        let chunk_end = packets_before + source.packets.len() as u64;
        let mut pending_obs = observed.drain(..).peekable();
        loop {
            let upto = e2e
                .marks
                .get(next_mark)
                .map(|m| m.after_packet)
                .filter(|&p| p < chunk_end);
            let section = Instant::now();
            let (_, ns) = rec.time("core.window_insert", Some(root), || {
                while let Some((_, obs)) =
                    pending_obs.next_if(|(at, _)| upto.is_none_or(|p| *at <= p))
                {
                    windower.insert(obs.client_ip, obs.t_ms, &obs.hostname);
                }
            });
            out.insert_ns += ns;
            out.traced_ns += section.elapsed().as_nanos() as u64;
            if upto.is_none() {
                break;
            }
            fire(next_mark, &mut windower, &mut model, &mut out, rec);
            next_mark += 1;
        }
        drop(pending_obs);
        packets_before = chunk_end;
    }
    // The ticks `flush` returned.
    while next_mark < e2e.marks.len() {
        fire(next_mark, &mut windower, &mut model, &mut out, rec);
        next_mark += 1;
    }
    rec.exit(root);
    Ok(out)
}
