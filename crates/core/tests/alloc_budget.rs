//! Allocation budget of a steady-state serving tick.
//!
//! The tick runs on interned host ids from the window close to Eq. 4
//! (DESIGN.md §12.1): a host's name is read when it is first interned and
//! once per model version after that, never per tick. This test states
//! that as a number a later change cannot quietly undo: with a counting
//! global allocator, the allocations inside an `ingest_observation` call
//! that fires a tick are bounded by the tick's *sessions*, and multiplying
//! every window's distinct-host count by 8 adds a handful of buffer
//! doublings — not one allocation per host, which is what a `String` (or
//! any owned value) per session host would cost.
//!
//! The same counter, reading bytes, holds the kNN to its two memory
//! promises (DESIGN.md §7), each as a *difference* between two streams that
//! are equal in everything else, so no other buffer of the tick has to be
//! modelled: asking for six times the neighbours may grow a tick's bytes
//! only by the *labeled* share of the extra places (Eq. 4 reads no other
//! neighbour, so no other is returned), and four times the vocabulary may
//! raise a tick's peak only by one sixteen-query block of key rows per
//! worker, however many sessions the tick profiles.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use counting_alloc::{ALLOCATIONS, BYTES, LIVE, PEAK};
use hostprof_core::{ModelVersion, ProfilerConfig, ServeConfig, ServeEngine, VersionedModel};
use hostprof_embed::{EmbeddingSet, Vocab};
use hostprof_ontology::{CategoryId, CategoryVector, Ontology};
use std::sync::atomic::Ordering;
use std::sync::Arc;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

const INTERVAL_MS: u64 = 600_000;
/// Sessions per tick: 40 per worker, so a key buffer per query and a
/// buffer per sixteen-query block are far apart.
const SESSIONS: u32 = 80;
const WORKERS: usize = 2;

/// What a stream is run against, and how wide its windows are.
#[derive(Clone, Copy)]
struct Shape {
    /// Embedded hosts; the stream also visits `off{i}.example`, which are
    /// labeled but have no row, and `unknown{i}.example`, which are neither.
    vocab: usize,
    /// `N` of Eq. 3.
    neighbours: usize,
    /// Distinct hosts every user visits (twice each) per report interval.
    distinct: usize,
}

const SPARSE: Shape = Shape {
    vocab: 512,
    neighbours: 50,
    distinct: 50,
};

fn host(i: usize, vocab: usize) -> String {
    match i % 16 {
        14 => format!("off{i}.example"),
        15 => format!("unknown{i}.example"),
        _ => format!("h{}.example", i % vocab),
    }
}

/// A model in which every fourth embedded host is labeled.
fn model(seq: u64, shape: Shape) -> ModelVersion {
    let hosts: Vec<String> = (0..shape.vocab).map(|i| format!("h{i}.example")).collect();
    let vocab = Vocab::build(std::iter::once(hosts.iter().map(String::as_str)), 1, 0.0);
    let dim = 8usize;
    let mut state = 0x00a1_10c8u64;
    let vectors: Vec<f32> = (0..vocab.len() * dim)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect();
    let mut ontology = Ontology::new();
    for i in 0..shape.vocab {
        let label = CategoryVector::from_pairs(vec![(CategoryId(i as u16 % 24), 1.0)]);
        if i % 4 == 0 {
            ontology.insert(&format!("h{i}.example"), label.clone());
        }
        ontology.insert(&format!("off{i}.example"), label);
    }
    ModelVersion::build(
        seq,
        EmbeddingSet::new(dim, vocab, vectors),
        Arc::new(ontology),
        ProfilerConfig {
            n_neighbors: shape.neighbours,
            ..ProfilerConfig::default()
        },
    )
}

/// What one tick-firing `ingest_observation` call took from the allocator.
#[derive(Debug, Clone, Copy)]
struct Spent {
    allocations: u64,
    bytes: u64,
    /// The most the call held at once, over what was held when it began.
    peak: u64,
}

/// [`Spent`] by each tick-firing `ingest_observation` call of a stream in
/// which every one of [`SESSIONS`] users visits the same `shape.distinct`
/// hosts (twice each) in every report interval, with a publish before tick
/// `publish_at`. Returns `(model_seq, spent)` per tick.
fn tick_allocations(shape: Shape, ticks: u64, publish_at: u64) -> Vec<(u64, Spent)> {
    let model = VersionedModel::new(model(1, shape));
    let config = ServeConfig {
        report_interval_ms: INTERVAL_MS,
        session_window_ms: 2 * INTERVAL_MS,
        lateness_ms: 0,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::with_versioned(config, &model, WORKERS, None);
    let mut out = Vec::new();
    for interval in 0..=ticks {
        if interval == publish_at {
            model.publish(self::model(2, shape));
        }
        let mut t = interval * INTERVAL_MS;
        for visit in 0..2 * shape.distinct {
            for user in 0..SESSIONS {
                t += 1;
                let name = host(user as usize * 7 + visit % shape.distinct, shape.vocab);
                let before = (
                    ALLOCATIONS.load(Ordering::Relaxed),
                    BYTES.load(Ordering::Relaxed),
                    LIVE.load(Ordering::Relaxed),
                );
                PEAK.store(before.2, Ordering::Relaxed);
                let fired = engine.ingest_observation(user, t, &name);
                let spent = Spent {
                    allocations: ALLOCATIONS.load(Ordering::Relaxed) - before.0,
                    bytes: BYTES.load(Ordering::Relaxed) - before.1,
                    peak: PEAK.load(Ordering::Relaxed) - before.2,
                };
                if let [tick] = fired.as_slice() {
                    assert_eq!(tick.entries.len(), SESSIONS as usize);
                    assert!(tick.entries.iter().all(|e| e.profile.is_some()));
                    out.push((tick.model_seq, spent));
                }
            }
        }
    }
    assert_eq!(out.len() as u64, ticks);
    out
}

/// The worst of each [`Spent`] field over the ticks that pay for no
/// growth: not the first two of the stream (windows reach their full two
/// intervals at the second) nor the first of each model version (the host
/// table is refilled).
fn steady(ticks: &[(u64, Spent)]) -> Spent {
    let steady: Vec<Spent> = ticks
        .iter()
        .enumerate()
        .filter(|&(i, &(seq, _))| i >= 2 && ticks[i - 1].0 == seq)
        .map(|(_, &(_, spent))| spent)
        .collect();
    assert_eq!(steady.len(), 5);
    let worst = |field: fn(&Spent) -> u64| steady.iter().map(field).max().unwrap_or(0);
    Spent {
        allocations: worst(|s| s.allocations),
        bytes: worst(|s| s.bytes),
        peak: worst(|s| s.peak),
    }
}

#[test]
fn a_steady_state_tick_allocates_per_session_not_per_host() {
    const DENSE: Shape = Shape {
        distinct: 400,
        ..SPARSE
    };
    const WIDE: Shape = Shape {
        neighbours: 300,
        ..SPARSE
    };
    const LARGE: Shape = Shape {
        vocab: 2048,
        ..SPARSE
    };
    let [sparse, dense, wide, large] = [SPARSE, DENSE, WIDE, LARGE].map(|shape| {
        let ticks = tick_allocations(shape, 8, 5);
        let seqs: Vec<u64> = ticks.iter().map(|t| t.0).collect();
        assert_eq!(
            seqs,
            [1, 1, 1, 1, 2, 2, 2, 2],
            "the publish lands before tick 5"
        );
        steady(&ticks)
    });
    eprintln!("steady-state tick, worst of five: sparse {sparse:?}, dense {dense:?}, wide {wide:?}, large {large:?}");

    // c · sessions + k: per session a query vector, its normalized copy's
    // slot, a neighbour list, the profile's category vector and its report
    // entry — no buffer of the kNN's is per session; per tick the close,
    // two scoped workers and their scratch.
    let budget = 5 * SESSIONS as u64 + 32;
    assert!(
        dense.allocations <= budget,
        "a tick of {SESSIONS} sessions allocated {} times (budget {budget})",
        dense.allocations
    );
    // 8× the hosts per window (≥ 28 000 more session hosts per tick) may
    // double a few per-tick buffers three more times each — the close's id
    // arena, each worker's in-session index — and nothing else.
    assert!(
        dense.allocations <= sparse.allocations + 24,
        "allocations grew with the hosts per window: {sparse:?} → {dense:?}"
    );

    // 250 more places in every session's top N: a quarter of the hosts are
    // labeled, so about 63 more `(row, cosine)` pairs come back per session
    // — half of the 250 is the bound, all of them is what a full ranked
    // list costs.
    let extra = wide.bytes.saturating_sub(sparse.bytes);
    let bound = SESSIONS as u64 * (WIDE.neighbours - SPARSE.neighbours) as u64 * 8 / 2;
    assert!(
        extra <= bound,
        "N {} → {} grew a tick by {extra} B (bound {bound}): unlabeled neighbours are being returned",
        SPARSE.neighbours,
        WIDE.neighbours
    );

    // 1 536 more rows: each worker's kNN scratch may grow by sixteen key
    // rows of at most 8 B a candidate, whatever the sessions per worker
    // (40 here — a buffer per query would grow by 40 × 8 B a row).
    let extra = large.peak.saturating_sub(sparse.peak);
    let bound = (WORKERS * 16 * (LARGE.vocab - SPARSE.vocab) * 8) as u64;
    assert!(
        extra <= bound,
        "vocabulary {} → {} raised a tick's peak by {extra} B (bound {bound}): kNN scratch grows with the sessions",
        SPARSE.vocab,
        LARGE.vocab
    );
}
