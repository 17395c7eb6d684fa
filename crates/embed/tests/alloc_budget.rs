//! Transient memory of an IVF build.
//!
//! `IvfFlat::build` assigns rows to centroids on every core, and each
//! worker writes its share of one pass's assignment into a buffer the
//! build holds anyway: nothing a worker keeps grows with the matrix, and
//! no pass's assignment outlives the pass. This test states that as a
//! number a later change cannot quietly undo. With a counting global
//! allocator (worker threads allocate through it too), the most the build
//! holds at once beyond what the returned index keeps is bounded by
//! 20 B per non-zero row (its id — up to 7 B with the collect's doubling —
//! its sample id and its list), three centroid matrices (the running sums
//! are one) and 64 KiB for spawning the workers and asking how many there
//! may be. On 20 000 × 16 rows, 1 176 of them zero (an index of
//! 1 289 352 B), the one-thread build before the fan-out held 292 080 B
//! and the fan-out on two cores 291 532 B, against a bound of 468 320 B; a
//! copy of the matrix per worker would add 1.2 MB, an assignment kept per
//! pass 0.7 MB.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use counting_alloc::{LIVE, PEAK};
use hostprof_embed::{EmbeddingSet, IvfFlat, IvfParams, Vocab};
use std::sync::atomic::Ordering;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

/// The index's size is computed from its own buffers; the live counter may
/// also hold what exiting workers have yet to free (+184 B, 1 run in 20).
const LINGER: u64 = 4 * 1024;

const ROWS: usize = 20_000;
const DIM: usize = 16;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded rows, every 17th zero (those are in no list).
fn matrix() -> EmbeddingSet {
    let mut rng = 0xa110_c8edu64;
    let vectors: Vec<f32> = (0..ROWS * DIM)
        .map(|i| match i / DIM % 17 {
            16 => 0.0,
            _ => (splitmix64(&mut rng) >> 40) as f32 / 16_777_216.0 - 0.5,
        })
        .collect();
    let names: Vec<String> = (0..ROWS).map(|i| format!("h{i}.example")).collect();
    let vocab = Vocab::build([names.iter().map(String::as_str)], 1, 0.0);
    EmbeddingSet::new(DIM, vocab, vectors)
}

#[test]
fn an_ivf_build_holds_ids_per_row_not_copies() {
    let set = matrix();
    let nonzero = (ROWS - ROWS / 17) as u64;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let ivf = IvfFlat::build(&set, IvfParams::default());
    let live = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;

    let centroids = (ivf.nlists() * DIM * 4) as u64;
    // The index: its centroids, offsets, row ids and copied rows.
    let held = centroids + (ivf.nlists() as u64 + 1) * 4 + nonzero * 4 + nonzero * DIM as u64 * 4;
    assert!(
        live.abs_diff(held) <= LINGER,
        "{live} B live after the build for an index of {held} B (slack {LINGER} B)"
    );
    let transient = peak.saturating_sub(held);
    let bound = 20 * nonzero + 3 * centroids + 64 * 1024;
    eprintln!(
        "IVF build of {ROWS} x {DIM} ({nonzero} non-zero, {} lists): index {held} B, transient peak {transient} B (bound {bound} B)",
        ivf.nlists()
    );
    assert!(
        transient <= bound,
        "the build held {transient} B beyond its index (bound {bound} B): a worker copies rows or a pass's assignment outlives it"
    );
}
