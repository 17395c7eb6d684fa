//! Hot-swap equivalence properties (DESIGN.md §14): 500 seeded cases
//! per property, the versioned [`ServeEngine`] vs quiesced single-version
//! runs.
//!
//! The versioned serving contract is that a tick profiled *concurrently*
//! with a hot swap is bit-identical to what a fully quiesced engine
//! pinned to whichever version won the race would have produced at that
//! boundary. Equivalently: one atomic load pins the whole
//! {weights, labeled tables, kNN index} bundle for the tick, so a reader
//! can never observe a torn triple — if it could, its profiles would
//! match *no* pure version, and these properties would catch it.
//!
//! * **Property 1 (deterministic swap point)** — publish version 2 after
//!   a seed-chosen packet; every tick must match, bit for bit, the
//!   same-boundary tick of a quiesced engine pinned to the version the
//!   tick reports serving (`TickReport::model_seq`).
//! * **Property 2 (truly concurrent swapper)** — a second thread
//!   publishes a chain of versions while the ingest thread streams, with
//!   no synchronization beyond the versioned handle itself. Ticks must
//!   report a monotonically non-decreasing `model_seq` within the
//!   published range, and every tick must still match its version's
//!   quiesced run. The ingest thread never blocks on the swapper
//!   (`VersionedModel::load` is one atomic read).
//!
//! Both properties sweep lanes {1, 2, 4} × profiling threads {1, 2}.
//! Failure persistence follows `differential_proptests.rs`: cases are
//! printable 16-hex-digit seeds, failures print the seed, and
//! `tests/regressions/swap_equivalence.txt` is replayed first.

use hostprof::embed::{EmbeddingSet, Vocab};
use hostprof::net::{Packet, RequestEvent, TrafficSynthesizer};
use hostprof::ontology::{CategoryId, CategoryVector, Ontology};
use hostprof::profiling::{
    BatchProfiler, ModelVersion, Profiler, ProfilerConfig, ServeConfig, ServeEngine,
    SessionProfile, TickReport, VersionedModel,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::{schedule, splitmix};

// ---------------------------------------------------------------------
// Fixture: a family of model versions, each with its own vocabulary — a
// salt-keyed three quarters of the twelve `h*` hosts, in a salt-keyed row
// order — and weights drawn from a salt-keyed stream, so any cross-version
// contamination in a profile (a weight, a row number, a host that has left
// the vocabulary) is a bit-level mismatch against every pure version.
// ---------------------------------------------------------------------

const DIM: usize = 4;

/// Labels for half of the `h*` hosts — each of which is out of vocabulary
/// in some version — and for the `l*` hosts, which no version embeds:
/// `alpha = 1`, no vector.
fn ontology() -> Ontology {
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
    ontology
}

/// A host the ontology labels and no version embeds.
fn label_only_host(i: u64) -> String {
    format!("l{i}.offvocab")
}

/// Version `salt`'s embeddings. Host `h{i}` is in the vocabulary unless
/// `(i + salt) % 4 == 0`, so every host leaves it at one version and is
/// back at the next; rows are ordered by a count drawn per (salt, host).
fn embeddings_for(salt: u64) -> EmbeddingSet {
    let mut state = 0x5a17_0000 ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let corpus: Vec<String> = (0..12u64)
        .filter(|i| !(i + salt).is_multiple_of(4))
        .flat_map(|i| {
            let count = 1 + splitmix(&mut state) % 40;
            std::iter::repeat_n(format!("h{i}.example"), count as usize)
        })
        .collect();
    let vocab = Vocab::build(std::iter::once(corpus.iter().map(String::as_str)), 1, 0.0);
    let vectors: Vec<f32> = (0..vocab.len() * DIM)
        .map(|_| (splitmix(&mut state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect();
    EmbeddingSet::new(DIM, vocab, vectors)
}

/// One case's workload: in-order requests over several report intervals.
/// Every eighth request goes to a labeled host no version embeds, and in
/// half the cases the last user requests nothing else, so all of its
/// windows profile from labels alone.
fn workload(rng: &mut u64) -> Vec<Packet> {
    let synth = TrafficSynthesizer::default();
    let nusers = 2 + splitmix(rng) % 4;
    let nreqs = 30 + (splitmix(rng) % 60) as usize;
    let label_only_user = splitmix(rng).is_multiple_of(2).then_some(nusers - 1);
    let mut t = 0u64;
    let mut packets = Vec::new();
    for _ in 0..nreqs {
        t += splitmix(rng) % 60_000;
        let client = splitmix(rng) % nusers;
        let hostname = if Some(client) == label_only_user || splitmix(rng).is_multiple_of(8) {
            label_only_host(splitmix(rng) % 3)
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

struct CaseParams {
    lanes: usize,
    threads: usize,
    n_neighbors: usize,
}

impl CaseParams {
    fn draw(rng: &mut u64) -> Self {
        Self {
            lanes: [1, 2, 4][(splitmix(rng) % 3) as usize],
            threads: 1 + (splitmix(rng) % 2) as usize,
            n_neighbors: 1 + (splitmix(rng) % 6) as usize,
        }
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            lanes: self.lanes,
            session_window_ms: 1_200_000,
            report_interval_ms: 300_000,
            ..ServeConfig::default()
        }
    }

    fn profiler_config(&self) -> ProfilerConfig {
        ProfilerConfig {
            n_neighbors: self.n_neighbors,
            ..ProfilerConfig::default()
        }
    }
}

/// Bit-exact fingerprint of one tick's payload (everything except
/// `compute_micros`, which is wall clock).
type TickFp = (u64, Vec<(u32, u64, Option<ProfileFp>)>);
type ProfileFp = (Vec<u32>, Vec<(u16, u32)>, usize, usize);

fn profile_fp(p: &SessionProfile) -> ProfileFp {
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

fn tick_fp(t: &TickReport) -> TickFp {
    (
        t.boundary,
        t.entries
            .iter()
            .map(|e| (e.user, e.anchor, e.profile.as_ref().map(profile_fp)))
            .collect(),
    )
}

/// Quiesced reference: the same stream through a fixed engine pinned to
/// one version's embeddings, keyed by tick boundary.
fn quiesced_ticks(
    packets: &[Packet],
    params: &CaseParams,
    embeddings: &EmbeddingSet,
    ontology: &Ontology,
) -> std::collections::BTreeMap<u64, TickFp> {
    let profiler = Profiler::new(embeddings, ontology, params.profiler_config());
    let mut engine = ServeEngine::new(
        params.serve_config(),
        BatchProfiler::new(profiler, params.threads),
        None,
    );
    let mut ticks = Vec::new();
    for pkt in packets {
        ticks.extend(engine.ingest_packet(pkt));
    }
    ticks.extend(engine.flush());
    ticks.iter().map(|t| (t.boundary, tick_fp(t))).collect()
}

/// Assert every versioned tick equals the same-boundary tick of the
/// quiesced run for the version it reports serving.
fn assert_ticks_match_quiesced(
    ticks: &[TickReport],
    references: &std::collections::BTreeMap<u64, std::collections::BTreeMap<u64, TickFp>>,
    seed: u64,
    what: &str,
) {
    for t in ticks {
        let quiesced = references.get(&t.model_seq).unwrap_or_else(|| {
            panic!(
                "{what}: tick at {} served unpublished version {} — add \
                 `cc {seed:016x}` to tests/regressions/swap_equivalence.txt",
                t.boundary, t.model_seq
            )
        });
        let want = quiesced.get(&t.boundary).unwrap_or_else(|| {
            panic!(
                "{what}: no quiesced tick at boundary {} — add `cc {seed:016x}` \
                 to tests/regressions/swap_equivalence.txt",
                t.boundary
            )
        });
        assert_eq!(
            &tick_fp(t),
            want,
            "{what}: tick at {} (version {}) diverged from the quiesced run — \
             possible torn weights/kNN bundle; add `cc {seed:016x}` to \
             tests/regressions/swap_equivalence.txt",
            t.boundary,
            t.model_seq
        );
    }
}

// ---------------------------------------------------------------------
// Property 1: a swap at a deterministic, seed-chosen packet index. Every
// tick must be bit-identical to the quiesced engine of whichever version
// it reports, and the version must flip from 1 to 2 exactly once.
// ---------------------------------------------------------------------

#[test]
fn deterministic_swap_matches_quiesced_runs_on_500_seeded_cases() {
    let ontology = ontology();
    let ont = Arc::new(ontology.clone());
    for seed in schedule("swap_equivalence", 0x5a17_0001) {
        let mut rng = seed;
        let params = CaseParams::draw(&mut rng);
        let packets = workload(&mut rng);
        let swap_at = (splitmix(&mut rng) as usize) % packets.len().max(1);

        let e1 = embeddings_for(1);
        let e2 = embeddings_for(2);
        let references: std::collections::BTreeMap<_, _> = [
            (1u64, quiesced_ticks(&packets, &params, &e1, &ontology)),
            (2u64, quiesced_ticks(&packets, &params, &e2, &ontology)),
        ]
        .into_iter()
        .collect();

        let model = VersionedModel::new(ModelVersion::build(
            1,
            e1.clone(),
            Arc::clone(&ont),
            params.profiler_config(),
        ));
        let mut engine =
            ServeEngine::with_versioned(params.serve_config(), &model, params.threads, None);
        let mut ticks = Vec::new();
        for (i, pkt) in packets.iter().enumerate() {
            if i == swap_at {
                model.publish(ModelVersion::build(
                    2,
                    e2.clone(),
                    Arc::clone(&ont),
                    params.profiler_config(),
                ));
            }
            ticks.extend(engine.ingest_packet(pkt));
        }
        ticks.extend(engine.flush());

        let seqs: Vec<u64> = ticks.iter().map(|t| t.model_seq).collect();
        assert!(
            seqs.windows(2).all(|w| w[0] <= w[1]),
            "version went backwards across ticks ({seqs:?}) — add \
             `cc {seed:016x}` to tests/regressions/swap_equivalence.txt"
        );
        assert_ticks_match_quiesced(
            &ticks,
            &references,
            seed,
            &format!("swap@{swap_at}, {} lanes", params.lanes),
        );
    }
}

// ---------------------------------------------------------------------
// Property 2: a swapper thread racing the ingest thread for real. The
// tick/publish interleaving is nondeterministic, but the contract must
// hold for every interleaving: monotone versions within the published
// range, each tick bit-identical to its version's quiesced run.
// ---------------------------------------------------------------------

#[test]
fn concurrent_swaps_match_quiesced_runs_on_500_seeded_cases() {
    let ontology = ontology();
    let ont = Arc::new(ontology.clone());
    for seed in schedule("swap_equivalence", 0x5a17_0002) {
        let mut rng = seed;
        let params = CaseParams::draw(&mut rng);
        let packets = workload(&mut rng);
        let n_versions = 2 + splitmix(&mut rng) % 3; // publish 2..=4 on top of v1

        let references: std::collections::BTreeMap<_, _> = (1..=n_versions)
            .map(|v| {
                (
                    v,
                    quiesced_ticks(&packets, &params, &embeddings_for(v), &ontology),
                )
            })
            .collect();

        let model = VersionedModel::new(ModelVersion::build(
            1,
            embeddings_for(1),
            Arc::clone(&ont),
            params.profiler_config(),
        ));
        let done = AtomicBool::new(false);
        let ticks = std::thread::scope(|scope| {
            let swapper = scope.spawn(|| {
                // Publish the chain as fast as the builder can, yielding
                // between versions so the race lands at different ticks on
                // different runs — the contract must hold for all of them.
                for v in 2..=n_versions {
                    model.publish(ModelVersion::build(
                        v,
                        embeddings_for(v),
                        Arc::clone(&ont),
                        params.profiler_config(),
                    ));
                    std::thread::yield_now();
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                }
            });
            let mut engine =
                ServeEngine::with_versioned(params.serve_config(), &model, params.threads, None);
            let mut ticks = Vec::new();
            for pkt in &packets {
                ticks.extend(engine.ingest_packet(pkt));
            }
            ticks.extend(engine.flush());
            done.store(true, Ordering::Release);
            swapper.join().expect("swapper panicked");
            ticks
        });

        let seqs: Vec<u64> = ticks.iter().map(|t| t.model_seq).collect();
        assert!(
            seqs.iter().all(|&s| s >= 1 && s <= n_versions),
            "tick served a version outside the published range ({seqs:?}) — \
             add `cc {seed:016x}` to tests/regressions/swap_equivalence.txt"
        );
        assert!(
            seqs.windows(2).all(|w| w[0] <= w[1]),
            "version went backwards across ticks ({seqs:?}) — add \
             `cc {seed:016x}` to tests/regressions/swap_equivalence.txt"
        );
        assert_ticks_match_quiesced(
            &ticks,
            &references,
            seed,
            &format!("concurrent swaps, {} lanes", params.lanes),
        );
    }
}
