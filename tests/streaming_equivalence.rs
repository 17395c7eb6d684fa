//! Streaming/batch equivalence properties: 500 seeded cases per
//! property (three properties, 1 500 cases), the [`ServeEngine`] vs a
//! naive batch recomputation.
//!
//! The serving loop's contract (DESIGN.md §12, `core::serve`) is that for
//! *any* packet-arrival interleaving across any lane count, the profiles
//! it emits are bit-identical to what the batch pipeline would compute at
//! every report boundary: per user, anchor the session at the last
//! request ≤ the boundary, window `(anchor - T, anchor]` over the user's
//! time-sorted timeline, dedup first-visit, profile. The reference here
//! rebuilds exactly that from a *single* observer fed the same delivered
//! packet stream, with the window semantics taken from the dev-only
//! oracle crate (`oracle::window::session_window`) and profiles from the
//! sequential `Profiler` — no serving-loop code on the reference side.
//!
//! Two delivery regimes over wire packets:
//!
//! * **Any interleaving, deferred ticks** — chaos-mutated and even fully
//!   shuffled streams (`net::chaos` reorderings plus a Fisher–Yates
//!   pass), with the lateness bound set effectively infinite so every
//!   tick fires at flush. Equivalence must hold no matter how packets
//!   were mangled, because both sides consume the *same* delivered
//!   stream.
//! * **Bounded-disorder interleaving, live ticks** — delivery order
//!   perturbed by a per-packet jitter strictly inside the default
//!   lateness bound, ticks firing live off the watermark. Nothing may be
//!   late-dropped and every tick must still match the batch reference.
//!
//! and a third property on the part of the tick the packet regimes never
//! reach — they feed lowercase names, no blocklist, and never collect
//! windows:
//!
//! * **Sessions from raw observations** — mixed-case hostnames through
//!   `ingest_observation`, a blocklist with exact and parent-domain
//!   rules, users whose windows empty out after filtering, duplicates,
//!   bounded disorder, `collect_windows` on. Profiles must equal oracle
//!   window → `Session::from_window` → sequential profile, and the
//!   collected windows must be the raw oracle windows, casing and
//!   duplicates intact.
//!
//! The vendored proptest crate has no failure persistence, so this suite
//! uses the same scheme as `differential_proptests.rs`: every case is a
//! printable 16-hex-digit seed, failures panic with that seed, and
//! `tests/regressions/streaming_equivalence.txt` holds previously
//! failing seeds (`cc <seed> # note` lines) replayed first on every run.

use hostprof::embed::{EmbeddingSet, Vocab};
use hostprof::net::chaos::{self, ChaosConfig};
use hostprof::net::{Packet, RequestEvent, SniObserver, TrafficSynthesizer};
use hostprof::ontology::{Blocklist, BlocklistProvider, CategoryId, CategoryVector, Ontology};
use hostprof::profiling::{
    BatchProfiler, Profiler, ProfilerConfig, ServeConfig, ServeEngine, Session, SessionProfile,
    TickReport,
};
use hostprof_oracle::window;
use std::collections::BTreeMap;

mod common;
use common::{schedule, splitmix};

// ---------------------------------------------------------------------
// Shared fixture: a tiny deterministic model over h0..h11.example plus
// labeled hosts it does not embed, and a random multi-user request
// workload lowered to wire packets.
// ---------------------------------------------------------------------

fn tiny_model() -> (EmbeddingSet, Ontology) {
    let hosts: Vec<String> = (0..12).map(|i| format!("h{i}.example")).collect();
    let vocab = Vocab::build(std::iter::once(hosts.iter().map(String::as_str)), 1, 0.0);
    let dim = 4usize;
    let mut state = 0x7e57_0e11u64;
    let vectors: Vec<f32> = (0..vocab.len() * dim)
        .map(|_| (splitmix(&mut state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect();
    let embeddings = EmbeddingSet::new(dim, vocab, vectors);
    // Half of the embedded hosts are labeled, and so are the `l*` hosts,
    // which have no embedding: `alpha = 1`, no vector.
    let mut ontology = Ontology::new();
    let labeled = (0..6).map(|i| format!("h{i}.example"));
    for (i, host) in labeled.chain((0..3).map(label_only_host)).enumerate() {
        let i = i as u16;
        ontology.insert(
            &host,
            CategoryVector::from_pairs(vec![
                (CategoryId(i % 4), 1.0),
                (CategoryId(4 + i % 3), 0.4),
            ]),
        );
    }
    (embeddings, ontology)
}

/// A host the ontology labels and the model does not embed.
fn label_only_host(i: u64) -> String {
    format!("l{i}.offvocab")
}

/// One case's workload: in-order requests for a few users over several
/// report intervals, lowered to packets (TCP with fragmentation, QUIC)
/// by the standard synthesizer. In half the cases the last user requests
/// only labeled hosts the model does not embed, so every one of its
/// windows profiles from labels alone.
fn workload(rng: &mut u64) -> Vec<Packet> {
    let synth = TrafficSynthesizer::default();
    let nusers = 2 + splitmix(rng) % 4;
    let nreqs = 30 + (splitmix(rng) % 90) as usize;
    let label_only_user = splitmix(rng).is_multiple_of(2).then_some(nusers - 1);
    let mut t = 0u64;
    let mut packets = Vec::new();
    for _ in 0..nreqs {
        t += splitmix(rng) % 60_000;
        let client = splitmix(rng) % nusers;
        // Mostly in-vocabulary hosts, the odd stranger the profiler has
        // never embedded, with or without a label.
        let hostname = if Some(client) == label_only_user || splitmix(rng).is_multiple_of(8) {
            label_only_host(splitmix(rng) % 3)
        } else if splitmix(rng).is_multiple_of(7) {
            format!("x{}.unknown", splitmix(rng) % 3)
        } else {
            format!("h{}.example", splitmix(rng) % 12)
        };
        packets.extend(synth.packets_for(&RequestEvent {
            t_ms: t,
            client: client as u32,
            hostname,
        }));
    }
    packets
}

/// Bit-exact profile fingerprint: embedding bits, (category, importance
/// bits), and the two evidence counters.
type Fp = (Vec<u32>, Vec<(u16, u32)>, usize, usize);

fn fingerprint(p: &SessionProfile) -> Fp {
    (
        p.session_vector.iter().map(|v| v.to_bits()).collect(),
        p.categories
            .iter()
            .map(|(c, w)| (c.0, w.to_bits()))
            .collect(),
        p.labeled_in_session,
        p.labeled_neighbors,
    )
}

/// One reported (boundary, user, anchor, profile) row.
type Row = (u64, u32, u64, Option<Fp>);

struct CaseParams {
    lanes: usize,
    threads: usize,
    session_window_ms: u64,
    report_interval_ms: u64,
    n_neighbors: usize,
}

impl CaseParams {
    fn draw(rng: &mut u64) -> Self {
        Self {
            lanes: [1, 2, 4][(splitmix(rng) % 3) as usize],
            threads: 1 + (splitmix(rng) % 2) as usize,
            session_window_ms: [150_000, 600_000, 1_200_000, 2_000_000]
                [(splitmix(rng) % 4) as usize],
            report_interval_ms: [180_000, 600_000][(splitmix(rng) % 2) as usize],
            n_neighbors: 1 + (splitmix(rng) % 6) as usize,
        }
    }
}

/// Reported ticks, flattened to one row per entry.
fn tick_rows(ticks: &[TickReport]) -> Vec<Row> {
    ticks
        .iter()
        .flat_map(|t| {
            t.entries.iter().map(move |e| {
                (
                    t.boundary,
                    e.user,
                    e.anchor,
                    e.profile.as_ref().map(fingerprint),
                )
            })
        })
        .collect()
}

/// Run the delivered stream through the serving engine and flatten the
/// reported ticks. Returns the rows plus the late-drop counter.
fn engine_rows(
    packets: &[Packet],
    params: &CaseParams,
    lateness_ms: u64,
    embeddings: &EmbeddingSet,
    ontology: &Ontology,
) -> (Vec<Row>, u64) {
    let profiler = Profiler::new(
        embeddings,
        ontology,
        ProfilerConfig {
            n_neighbors: params.n_neighbors,
            ..ProfilerConfig::default()
        },
    );
    let mut engine = ServeEngine::new(
        ServeConfig {
            lanes: params.lanes,
            session_window_ms: params.session_window_ms,
            report_interval_ms: params.report_interval_ms,
            lateness_ms,
            ..ServeConfig::default()
        },
        BatchProfiler::new(profiler, params.threads),
        None,
    );
    let mut ticks = Vec::new();
    for pkt in packets {
        ticks.extend(engine.ingest_packet(pkt));
    }
    ticks.extend(engine.flush());
    (tick_rows(&ticks), engine.windower().late_dropped())
}

/// The batch reference for a packet feed: a single observer consumes the
/// same delivered stream, and [`reference`] recomputes every boundary.
fn batch_rows(
    packets: &[Packet],
    params: &CaseParams,
    embeddings: &EmbeddingSet,
    ontology: &Ontology,
) -> Vec<Row> {
    let mut observer = SniObserver::new();
    for pkt in packets {
        observer.process(pkt);
    }
    let mut timelines: BTreeMap<u32, Vec<(u64, String)>> = BTreeMap::new();
    for obs in observer.take_observations() {
        timelines
            .entry(obs.client_ip)
            .or_default()
            .push((obs.t_ms, obs.hostname));
    }
    let Some(max_t) = packets.iter().map(|p| p.t_ms).max() else {
        return Vec::new();
    };
    reference(timelines, max_t, params, embeddings, ontology, None).0
}

/// One collected window: `(user, anchor, raw hostnames)`.
type RawWindow = (u32, u64, Vec<String>);

/// The naive recomputation both feeds share. Per-user observations in
/// delivery order are time-sorted (stable, so equal times keep delivery
/// order exactly as the windower does); every report boundary up to the
/// flush tick past `max_t` reports each user with a fresh anchor: oracle
/// window, string `Session`, sequential profile — plus the raw events of
/// the same window, which is what `collect_windows` must hand back.
fn reference(
    mut timelines: BTreeMap<u32, Vec<(u64, String)>>,
    max_t: u64,
    params: &CaseParams,
    embeddings: &EmbeddingSet,
    ontology: &Ontology,
    blocklist: Option<&Blocklist>,
) -> (Vec<Row>, Vec<RawWindow>) {
    for tl in timelines.values_mut() {
        tl.sort_by_key(|(t, _)| *t); // stable: ties keep delivery order
    }
    let profiler = Profiler::new(
        embeddings,
        ontology,
        ProfilerConfig {
            n_neighbors: params.n_neighbors,
            ..ProfilerConfig::default()
        },
    );
    let duration = params.session_window_ms;
    let interval = params.report_interval_ms;
    let mut rows = Vec::new();
    let mut windows = Vec::new();
    let mut prev: Option<u64> = None;
    let mut boundary = interval;
    loop {
        for (&user, tl) in &timelines {
            let upto = tl.partition_point(|(t, _)| *t <= boundary);
            if upto == 0 {
                continue;
            }
            let anchor = tl[upto - 1].0;
            if prev.is_some_and(|p| anchor <= p) {
                continue; // already reported at an earlier boundary
            }
            let names = window::session_window(tl, anchor, duration, &|h| {
                blocklist.is_some_and(|b| b.is_blocked(h))
            });
            let session = Session::from_window(names.iter().map(String::as_str), None);
            rows.push((
                boundary,
                user,
                anchor,
                profiler.profile(&session).map(|p| fingerprint(&p)),
            ));
            // The raw events of `(anchor - T, anchor]` by linear scan, with
            // the oracle's epoch rule: a window that reaches t = 0 keeps it.
            let raw = tl
                .iter()
                .filter(|(t, _)| {
                    let after_start = match anchor.checked_sub(duration) {
                        None | Some(0) => true,
                        Some(start) => *t > start,
                    };
                    after_start && *t <= anchor
                })
                .map(|(_, h)| h.clone())
                .collect();
            windows.push((user, anchor, raw));
        }
        prev = Some(boundary);
        if boundary > max_t {
            break; // this was the flush tick past the last event
        }
        boundary += interval;
    }
    (rows, windows)
}

fn assert_rows_match(got: &[Row], want: &[Row], seed: u64, what: &str) {
    assert_eq!(
        got.len(),
        want.len(),
        "{what}: {} streamed rows vs {} batch rows — add `cc {seed:016x}` to \
         tests/regressions/streaming_equivalence.txt",
        got.len(),
        want.len()
    );
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g, w,
            "{what}: row {i} diverged — add `cc {seed:016x}` to \
             tests/regressions/streaming_equivalence.txt"
        );
    }
}

// ---------------------------------------------------------------------
// Property 1: ANY delivery interleaving — chaos mutations, garbage
// flows, even a full shuffle — yields profiles bit-identical to the
// batch recomputation, for every lane count, when ticks defer to flush.
// Both sides see the same delivered stream, so no mangling excuses a
// divergence.
// ---------------------------------------------------------------------

#[test]
fn any_interleaving_matches_batch_on_500_seeded_cases() {
    let (embeddings, ontology) = tiny_model();
    // Far beyond any simulated timestamp: the watermark never advances,
    // so every tick fires at flush with the complete event set.
    let deferred = u64::MAX / 4;
    for seed in schedule("streaming_equivalence", 0x57e0_0001) {
        let mut rng = seed;
        let params = CaseParams::draw(&mut rng);
        let mut packets = workload(&mut rng);
        let chaos_cfg = match splitmix(&mut rng) % 3 {
            0 => {
                let mut c = ChaosConfig::quiescent(splitmix(&mut rng));
                c.interleave = true; // pure flow reordering, no mutation
                c
            }
            1 => ChaosConfig::with_seed(splitmix(&mut rng)),
            _ => ChaosConfig::aggressive(splitmix(&mut rng)),
        };
        packets = chaos::apply(&chaos_cfg, &packets).packets;
        if splitmix(&mut rng).is_multiple_of(4) {
            // Fisher–Yates: a completely arbitrary delivery order, far
            // beyond anything a real network would do.
            for i in (1..packets.len()).rev() {
                packets.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
            }
        }
        let (got, _) = engine_rows(&packets, &params, deferred, &embeddings, &ontology);
        let want = batch_rows(&packets, &params, &embeddings, &ontology);
        assert_rows_match(
            &got,
            &want,
            seed,
            &format!("deferred ticks, {} lanes", params.lanes),
        );
    }
}

// ---------------------------------------------------------------------
// Property 2: bounded-disorder delivery with LIVE ticks — per-packet
// jitter strictly inside the default lateness bound, ticks firing off
// the watermark as packets arrive. The watermark must hold every tick
// long enough that nothing is late-dropped, and every released tick
// must already match the batch reference.
// ---------------------------------------------------------------------

#[test]
fn bounded_disorder_live_ticks_match_batch_on_500_seeded_cases() {
    let (embeddings, ontology) = tiny_model();
    let lateness = ServeConfig::default().lateness_ms;
    for seed in schedule("streaming_equivalence", 0x57e0_0002) {
        let mut rng = seed;
        let params = CaseParams::draw(&mut rng);
        let packets = workload(&mut rng);
        // Stable sort by (t + jitter): each packet may be overtaken only
        // by packets at most `jitter_max` ahead of it in event time, so
        // every arrival stays inside the watermark's lateness margin.
        let jitter_max = lateness - 501; // fragment spread eats ≤ 2 ms
        let mut keyed: Vec<(u64, &Packet)> = packets
            .iter()
            .map(|p| (p.t_ms + splitmix(&mut rng) % jitter_max, p))
            .collect();
        keyed.sort_by_key(|(k, _)| *k);
        let delivered: Vec<Packet> = keyed.into_iter().map(|(_, p)| p.clone()).collect();
        let (got, late_dropped) =
            engine_rows(&delivered, &params, lateness, &embeddings, &ontology);
        assert_eq!(
            late_dropped, 0,
            "disorder within the lateness bound must never drop — add \
             `cc {seed:016x}` to tests/regressions/streaming_equivalence.txt"
        );
        let want = batch_rows(&delivered, &params, &embeddings, &ontology);
        assert_rows_match(
            &got,
            &want,
            seed,
            &format!("live ticks, {} lanes", params.lanes),
        );
    }
}

// ---------------------------------------------------------------------
// Property 3: raw observations — mixed case, blocklist, duplicates,
// collected windows — through the id-side tick. The reference never sees
// an interned id: naive window scan over the per-user timeline, the
// string `Session` constructor, the sequential profiler.
// ---------------------------------------------------------------------

/// One delivered observation: `(t_ms, client, hostname as sent)`.
type Obs = (u64, u32, String);

/// Exact rules (`tracker.net`, `metrics.h5.example`) that also block by
/// parent domain (`cdn.tracker.net`, `a.metrics.h5.example`).
fn tracker_blocklist() -> Blocklist {
    Blocklist::from_providers(vec![
        BlocklistProvider::new("exact", ["tracker.net"]),
        BlocklistProvider::new("nested", ["metrics.h5.example", "tracker.net"]),
    ])
}

/// `name` with each letter's case drawn at random — one host, many
/// spellings, all of which must land on one session entry.
fn scramble_case(name: &str, rng: &mut u64) -> String {
    match splitmix(rng) % 3 {
        0 => name.to_string(),
        1 => name.to_ascii_uppercase(),
        _ => name
            .chars()
            .map(|c| {
                if splitmix(rng).is_multiple_of(2) {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect(),
    }
}

/// In-order observations for a few users; the last user may be one whose
/// every request goes to a tracker, so all of its windows empty out, and
/// the first one whose every request goes to a labeled host without an
/// embedding.
fn observation_workload(rng: &mut u64) -> Vec<Obs> {
    const TRACKERS: [&str; 4] = [
        "tracker.net",
        "cdn.tracker.net",
        "metrics.h5.example",
        "a.metrics.h5.example",
    ];
    let nusers = 2 + splitmix(rng) % 4;
    let nreqs = 30 + (splitmix(rng) % 90) as usize;
    let tracker_only_user = splitmix(rng).is_multiple_of(2).then_some(nusers - 1);
    let label_only_user = splitmix(rng).is_multiple_of(2).then_some(0);
    let mut t = 0u64;
    let mut out = Vec::new();
    for _ in 0..nreqs {
        t += splitmix(rng) % 60_000;
        let client = splitmix(rng) % nusers;
        let name = if Some(client) == tracker_only_user || splitmix(rng).is_multiple_of(5) {
            TRACKERS[(splitmix(rng) % 4) as usize].to_string()
        } else if Some(client) == label_only_user || splitmix(rng).is_multiple_of(8) {
            label_only_host(splitmix(rng) % 3)
        } else if splitmix(rng).is_multiple_of(9) {
            format!("x{}.unknown", splitmix(rng) % 3)
        } else {
            // A small pool, so windows are full of repeats.
            format!("h{}.example", splitmix(rng) % 12)
        };
        // A burst of connections to the same host, respelled each time.
        for k in 0..1 + splitmix(rng) % 3 {
            out.push((t + k, client as u32, scramble_case(&name, rng)));
        }
        t += 2;
    }
    out
}

#[test]
fn observation_sessions_match_oracle_on_500_seeded_cases() {
    let (embeddings, ontology) = tiny_model();
    let blocklist = tracker_blocklist();
    let lateness = ServeConfig::default().lateness_ms;
    let mut emptied_out_total = 0usize;
    for seed in schedule("streaming_equivalence", 0x57e0_0003) {
        let mut rng = seed;
        let params = CaseParams::draw(&mut rng);
        let sent = observation_workload(&mut rng);
        let jitter_max = lateness - 1;
        let mut keyed: Vec<(u64, &Obs)> = sent
            .iter()
            .map(|o| (o.0 + splitmix(&mut rng) % jitter_max, o))
            .collect();
        keyed.sort_by_key(|(k, _)| *k);
        let delivered: Vec<&Obs> = keyed.into_iter().map(|(_, o)| o).collect();

        // Engine side.
        let mut engine = ServeEngine::new(
            ServeConfig {
                lanes: params.lanes,
                session_window_ms: params.session_window_ms,
                report_interval_ms: params.report_interval_ms,
                lateness_ms: lateness,
                collect_windows: true,
                ..ServeConfig::default()
            },
            BatchProfiler::new(
                Profiler::new(
                    &embeddings,
                    &ontology,
                    ProfilerConfig {
                        n_neighbors: params.n_neighbors,
                        ..ProfilerConfig::default()
                    },
                ),
                params.threads,
            ),
            Some(&blocklist),
        );
        let mut ticks = Vec::new();
        for (t, client, host) in delivered.iter().copied() {
            ticks.extend(engine.ingest_observation(*client, *t, host));
        }
        ticks.extend(engine.flush());
        assert_eq!(
            engine.windower().late_dropped(),
            0,
            "disorder within the lateness bound must never drop — add \
             `cc {seed:016x}` to tests/regressions/streaming_equivalence.txt"
        );
        let got = tick_rows(&ticks);
        let got_windows: Vec<RawWindow> = engine
            .take_closed_windows()
            .into_iter()
            .map(|c| (c.user, c.anchor, c.window))
            .collect();

        // Reference side.
        let mut timelines: BTreeMap<u32, Vec<(u64, String)>> = BTreeMap::new();
        for (t, client, host) in delivered.iter().copied() {
            timelines
                .entry(*client)
                .or_default()
                .push((*t, host.clone()));
        }
        let max_t = sent.iter().map(|o| o.0).max().expect("non-empty workload");
        let (want, want_windows) = reference(
            timelines,
            max_t,
            &params,
            &embeddings,
            &ontology,
            Some(&blocklist),
        );
        assert_rows_match(
            &got,
            &want,
            seed,
            &format!("observation feed, {} lanes", params.lanes),
        );
        assert_eq!(
            got_windows, want_windows,
            "collected windows diverged from the raw oracle windows — add \
             `cc {seed:016x}` to tests/regressions/streaming_equivalence.txt"
        );
        emptied_out_total += want_windows
            .iter()
            .filter(|(_, _, raw)| raw.iter().all(|h| blocklist.is_blocked(h)))
            .count();
    }
    assert!(
        emptied_out_total > 500,
        "the workload must keep producing all-tracker windows ({emptied_out_total})"
    );
}
