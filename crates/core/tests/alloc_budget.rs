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
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use hostprof_core::{ModelVersion, ProfilerConfig, ServeConfig, ServeEngine, VersionedModel};
use hostprof_embed::{EmbeddingSet, Vocab};
use hostprof_ontology::{CategoryId, CategoryVector, Ontology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every call that can hand out memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const INTERVAL_MS: u64 = 600_000;
const SESSIONS: u32 = 12;
/// Embedded hosts; the stream also visits `off{i}.example`, which are
/// labeled but have no row, and `unknown{i}.example`, which are neither.
const VOCAB: usize = 512;

fn host(i: usize) -> String {
    match i % 16 {
        14 => format!("off{i}.example"),
        15 => format!("unknown{i}.example"),
        _ => format!("h{}.example", i % VOCAB),
    }
}

fn model(seq: u64) -> ModelVersion {
    let hosts: Vec<String> = (0..VOCAB).map(|i| format!("h{i}.example")).collect();
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
    for i in 0..VOCAB {
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
            n_neighbors: 50,
            ..ProfilerConfig::default()
        },
    )
}

/// Allocations inside each tick-firing `ingest_observation` call of a
/// stream in which every one of [`SESSIONS`] users visits the same
/// `distinct` hosts (twice each) in every report interval, with a publish
/// before tick `publish_at`. Returns `(model_seq, allocations)` per tick.
fn tick_allocations(distinct: usize, ticks: u64, publish_at: u64) -> Vec<(u64, u64)> {
    let model = VersionedModel::new(model(1));
    let config = ServeConfig {
        report_interval_ms: INTERVAL_MS,
        session_window_ms: 2 * INTERVAL_MS,
        lateness_ms: 0,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::with_versioned(config, &model, 2, None);
    let mut out = Vec::new();
    for interval in 0..=ticks {
        if interval == publish_at {
            model.publish(self::model(2));
        }
        let mut t = interval * INTERVAL_MS;
        for visit in 0..2 * distinct {
            for user in 0..SESSIONS {
                t += 1;
                let name = host(user as usize * 7 + visit % distinct);
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                let fired = engine.ingest_observation(user, t, &name);
                let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
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

/// Ticks that may pay for growth: the first two of the stream (windows
/// reach their full two intervals at the second) and the first of each
/// model version (the host table is refilled).
fn steady(ticks: &[(u64, u64)]) -> Vec<u64> {
    ticks
        .iter()
        .enumerate()
        .filter(|&(i, &(seq, _))| i >= 2 && ticks[i - 1].0 == seq)
        .map(|(_, &(_, allocations))| allocations)
        .collect()
}

#[test]
fn a_steady_state_tick_allocates_per_session_not_per_host() {
    let sparse = tick_allocations(50, 8, 5);
    let dense = tick_allocations(400, 8, 5);
    for ticks in [&sparse, &dense] {
        let seqs: Vec<u64> = ticks.iter().map(|t| t.0).collect();
        assert_eq!(
            seqs,
            [1, 1, 1, 1, 2, 2, 2, 2],
            "the publish lands before tick 5"
        );
    }
    let (sparse, dense) = (steady(&sparse), steady(&dense));
    assert_eq!(sparse.len(), 5);
    assert_eq!(dense.len(), 5);
    eprintln!("steady-state tick allocations: sparse {sparse:?}, dense {dense:?}");

    // c · sessions + k: per session a query vector, a neighbour list, the
    // profile's category vector and its report entry; per tick the close,
    // two scoped workers and their scratch.
    let budget = 10 * SESSIONS as u64 + 96;
    let worst = |ticks: &[u64]| ticks.iter().copied().max().unwrap_or(0);
    assert!(
        worst(&dense) <= budget,
        "a tick of {SESSIONS} sessions allocated {} times (budget {budget})",
        worst(&dense)
    );
    // 8× the hosts per window (≥ 4 200 more session hosts per tick) may
    // double a few per-tick buffers three more times each — the close's id
    // arena, each worker's in-session index — and nothing else.
    assert!(
        worst(&dense) <= worst(&sparse) + 24,
        "allocations grew with the hosts per window: {sparse:?} → {dense:?}"
    );
}
