//! Tiled exact-kNN kernel over the prepared unit-norm matrix.
//!
//! [`crate::EmbeddingSet`] keeps a row-normalized copy of the embedding
//! matrix, so cosine similarity is a plain dot product. A query's top `k`
//! comes out of three steps (DESIGN.md §7), the same three for the exact
//! scan and for IVF's probed lists:
//!
//! 1. **Score.** The scan walks the vocabulary in cache-sized row tiles and
//!    scores a block of up to [`QUERY_BLOCK`] queries against a tile before
//!    moving on. A candidate leaves [`crate::simd::score_rows`] as an
//!    order-preserving `u32` key and a `u16` bucket in buffers every block
//!    reuses — 6 bytes per (query, candidate), whatever the batch size.
//! 2. **Select.** A histogram of the buckets finds the bucket holding the
//!    `k`-th best candidate; an exact select over that bucket's few packed
//!    `(key, !row)` words finds the `k`-th best itself — the cut.
//! 3. **Gather.** Candidates at or above the cut that pass the caller's
//!    [`RowFilter`] are packed, sorted and unpacked: membership is decided
//!    over all candidates, order only over the kept ones.
//!
//! Ordering is fully deterministic: similarities compare via
//! `f32::total_cmp` and exact ties break toward the *lower* vocabulary
//! index, at the cut and in the final sort. The single-query and batched
//! entry points in `embedding.rs` both route through [`tiled_scan`], and
//! the dot product is [`crate::simd::dot`]'s whatever the batch (one
//! process-wide dispatch, one summation order), so a batched result is
//! bit-for-bit the one-query-at-a-time result.

use crate::simd;

/// Tile footprint to aim for; 32 KiB of rows fits typical L1 caches.
const TILE_BYTES: usize = 32 * 1024;

/// Queries scored per pass over the matrix: enough to amortize a tile's
/// load, few enough that the key buffers stay a small multiple of the
/// vocabulary however many sessions a tick brings.
pub(crate) const QUERY_BLOCK: usize = 16;

/// Similarity buckets `1..=BUCKETS`; bucket 0 marks a row that is not a
/// candidate (zero norm).
const BUCKETS: usize = 1024;

/// The similarity's bits remapped so unsigned comparison matches
/// `f32::total_cmp`.
#[inline]
pub(crate) fn sim_key(sim: f32) -> u32 {
    let bits = sim.to_bits();
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits ^ 0x8000_0000
    }
}

/// Linear quantisation of the cosine into `1..=BUCKETS`, non-decreasing in
/// [`sim_key`] order over all of `f32`: the magnitude is clamped to 1 on
/// its bits (so ±∞ and ±NaN land on ±1 by their sign), `x·512 + 513` is
/// monotone on `[-1, 1]`, and truncation is monotone on non-negatives.
#[inline]
pub(crate) fn sim_bucket(sim: f32) -> u16 {
    let bits = sim.to_bits();
    let magnitude = (bits & 0x7fff_ffff).min(1f32.to_bits());
    let clamped = f32::from_bits(magnitude | (bits & 0x8000_0000));
    ((clamped * 512.0 + 513.0) as u16).min(BUCKETS as u16)
}

/// Pack `(key, idx)` into one `u64`: the key in the high word, `!idx` in
/// the low word so equal similarities rank the *lower* index higher. A
/// larger word is a strictly better candidate, and words are unique
/// (indices are), so selection is a total order with no float comparisons.
#[inline]
fn pack_key(key: u32, idx: u32) -> u64 {
    ((key as u64) << 32) | (!idx) as u64
}

/// [`pack_key`] of a similarity: ordered like `f32::total_cmp`, ties
/// toward the lower index.
#[inline]
pub(crate) fn pack(sim: f32, idx: u32) -> u64 {
    pack_key(sim_key(sim), idx)
}

/// Inverse of [`pack`]: `(idx, sim)`.
#[inline]
pub(crate) fn unpack(key: u64) -> (u32, f32) {
    let idx = !(key as u32);
    let ord = (key >> 32) as u32;
    let bits = if ord & 0x8000_0000 != 0 {
        ord ^ 0x8000_0000
    } else {
        !ord
    };
    (idx, f32::from_bits(bits))
}

/// The rows a search may return, in the two shapes the gather reads: kept
/// rows ascending (the exact scan walks them) and a per-row table (IVF
/// probes it per candidate). Both must describe one set over the matrix.
#[derive(Debug, Clone, Copy)]
pub struct RowFilter<'a> {
    /// Kept rows, ascending.
    pub rows: &'a [u32],
    /// `slots[row] != u32::MAX` exactly when `row` is kept.
    pub slots: &'a [u32],
}

/// Reusable per-caller scratch: the normalized-query buffer, one block's
/// key and bucket rows and the packed words of one query's select and
/// gather survive across calls, so steady-state scans allocate only their
/// result vectors.
#[derive(Default)]
pub struct KnnScratch {
    pub(crate) qhat: Vec<f32>,
    /// [`sim_key`] per (block query, candidate).
    pub(crate) keys: Vec<u32>,
    /// [`sim_bucket`] per (block query, candidate), 0 for a non-candidate.
    pub(crate) buckets: Vec<u16>,
    /// The boundary bucket's packed words, then the winners'.
    pub(crate) packed: Vec<u64>,
    /// Zero-norm rows of an exact scan; row id per candidate of an IVF one.
    pub(crate) rows: Vec<u32>,
    /// Packed centroid-score keys for IVF probe selection.
    pub(crate) probe_keys: Vec<u64>,
}

impl KnnScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the key and bucket buffers for `queries × candidates` pairs;
    /// the scorer overwrites every one before it is read.
    pub(crate) fn resize(&mut self, queries: usize, candidates: usize) {
        // Scratch is reused across scans of very different sizes; don't let
        // one huge scan pin its buffers forever. A full block over these
        // candidates is the most a scan like this one can need.
        if self.keys.capacity() > (QUERY_BLOCK * candidates).saturating_mul(4).max(4096) {
            self.keys = Vec::new();
            self.buckets = Vec::new();
        }
        self.keys.resize(queries * candidates, 0);
        self.buckets.resize(queries * candidates, 0);
    }
}

/// Scan `norms.len()` unit-norm rows against `q` normalized queries laid
/// out contiguously in `qhats` (`q * dim` floats), returning each query's
/// top `k` as `(index, cosine)` pairs, best first — of those, the rows
/// `filter` keeps. Zero-norm rows are skipped, matching the
/// pre-normalization scan's behaviour.
pub(crate) fn tiled_scan(
    unit: &[f32],
    norms: &[f32],
    dim: usize,
    qhats: &[f32],
    k: usize,
    filter: Option<RowFilter<'_>>,
    scratch: &mut KnnScratch,
) -> Vec<Vec<(u32, f32)>> {
    let rows = norms.len();
    let mut out = Vec::with_capacity(qhats.len().checked_div(dim).unwrap_or(0));
    let rows_per_tile = (TILE_BYTES / (dim.max(1) * std::mem::size_of::<f32>())).clamp(8, 512);
    // Zero-norm rows score like any other (their unit rows are zeros) and
    // are then struck from the candidates.
    scratch.rows.clear();
    scratch
        .rows
        .extend((0..rows as u32).filter(|&row| norms[row as usize] <= f32::EPSILON));
    for block in qhats.chunks((QUERY_BLOCK * dim).max(1)) {
        let queries = block.len().checked_div(dim).unwrap_or(0);
        scratch.resize(queries, rows);
        let mut start = 0;
        while start < rows {
            let end = (start + rows_per_tile).min(rows);
            for (qi, qhat) in block.chunks_exact(dim.max(1)).enumerate() {
                simd::score_rows(
                    qhat,
                    &unit[start * dim..end * dim],
                    &mut scratch.keys[qi * rows + start..qi * rows + end],
                    &mut scratch.buckets[qi * rows + start..qi * rows + end],
                );
            }
            start = end;
        }
        for bucket_row in scratch.buckets.chunks_exact_mut(rows.max(1)) {
            scratch
                .rows
                .iter()
                .for_each(|&row| bucket_row[row as usize] = 0);
        }
        for qi in 0..queries {
            out.push(top_k(
                &scratch.keys[qi * rows..(qi + 1) * rows],
                &scratch.buckets[qi * rows..(qi + 1) * rows],
                None,
                k,
                filter,
                &mut scratch.packed,
            ));
        }
    }
    out
}

/// Select and gather over one query's scored candidates: the top `k` of
/// all of them, of which the ones `filter` keeps come back as
/// `(row, cosine)`, best first, ties by ascending row. Candidate `p` is row
/// `rows[p]`, or row `p` itself when `rows` is `None`.
pub(crate) fn top_k(
    keys: &[u32],
    buckets: &[u16],
    rows: Option<&[u32]>,
    k: usize,
    filter: Option<RowFilter<'_>>,
    packed: &mut Vec<u64>,
) -> Vec<(u32, f32)> {
    if k == 0 {
        return Vec::new();
    }
    let row_of = |p: usize| rows.map_or(p as u32, |rows| rows[p]);
    let mut hist = [0u32; BUCKETS + 1];
    for &bucket in buckets {
        hist[bucket as usize] += 1;
    }
    // With no more candidates than `k` every one of them is a member.
    let (mut edge, mut cut) = (1u16, 0u64);
    if k < buckets.len() - hist[0] as usize {
        let mut above = 0;
        edge = BUCKETS as u16;
        while above + (hist[edge as usize] as usize) < k {
            above += hist[edge as usize] as usize;
            edge -= 1;
        }
        packed.clear();
        for (chunk, at) in buckets.chunks(16).zip((0..).step_by(16)) {
            // Few chunks hold an edge candidate, and sixteen buckets test
            // as one vector compare.
            if chunk.iter().fold(false, |hit, &b| hit | (b == edge)) {
                for (p, _) in (at..).zip(chunk).filter(|&(_, &b)| b == edge) {
                    packed.push(pack_key(keys[p], row_of(p)));
                }
            }
        }
        cut = *packed
            .select_nth_unstable_by(k - above - 1, |a, b| b.cmp(a))
            .1;
    }
    packed.clear();
    let mut take = |p: usize, row: u32| {
        let word = pack_key(keys[p], row);
        if buckets[p] > edge || (buckets[p] == edge && word >= cut) {
            packed.push(word);
        }
    };
    match (rows, filter) {
        (None, Some(filter)) => filter.rows.iter().for_each(|&row| take(row as usize, row)),
        (None, None) => (0..keys.len()).for_each(|p| take(p, p as u32)),
        (Some(rows), filter) => {
            for (p, &row) in rows.iter().enumerate() {
                // The bucket first: it is the next one in memory, the slot
                // table is a probe.
                if buckets[p] >= edge && filter.is_none_or(|f| f.slots[row as usize] != u32::MAX) {
                    take(p, row);
                }
            }
        }
    }
    packed.sort_unstable_by(|a, b| b.cmp(a));
    packed.iter().map(|&word| unpack(word)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_keys_roundtrip_and_order_like_total_cmp() {
        let sims = [
            -f32::NAN,
            f32::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f32::EPSILON,
            0.5,
            1.0,
            f32::INFINITY,
            f32::NAN,
        ];
        for (i, &a) in sims.iter().enumerate() {
            let (idx, back) = unpack(pack(a, i as u32));
            assert_eq!(idx, i as u32);
            assert_eq!(back.to_bits(), a.to_bits(), "roundtrip of {a}");
            for &b in &sims {
                assert_eq!(pack(a, 3).cmp(&pack(b, 3)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
        // Equal similarity: the lower index must win (rank higher).
        assert!(pack(0.5, 2) > pack(0.5, 7));
        // Buckets never decrease along the key order (the select relies
        // on it), stay in 1..=BUCKETS, and spread the cosine range.
        for pair in sims.windows(2) {
            assert!(sim_bucket(pair[0]) <= sim_bucket(pair[1]), "{pair:?}");
        }
        assert_eq!(sim_bucket(-f32::NAN), 1);
        assert_eq!(sim_bucket(f32::NAN), BUCKETS as u16);
        assert_eq!(sim_bucket(0.0), BUCKETS as u16 / 2 + 1);
        let mut last = 0;
        for i in 0..=20_000 {
            let bucket = sim_bucket(i as f32 / 10_000.0 - 1.0);
            assert!(bucket >= last && bucket >= 1, "sim {i}");
            last = bucket;
        }
        assert_eq!(last, BUCKETS as u16);
    }

    /// Key and bucket rows of `rows` candidate slots of which only `items`
    /// are candidates (the rest carry bucket 0, like zero-norm rows).
    fn scored(rows: usize, items: &[(u32, f32)]) -> (Vec<u32>, Vec<u16>) {
        let (mut keys, mut buckets) = (vec![0u32; rows], vec![0u16; rows]);
        for &(idx, sim) in items {
            keys[idx as usize] = sim_key(sim);
            buckets[idx as usize] = sim_bucket(sim);
        }
        (keys, buckets)
    }

    fn collect_topk(k: usize, rows: usize, items: &[(u32, f32)]) -> Vec<(u32, f32)> {
        let (keys, buckets) = scored(rows, items);
        top_k(&keys, &buckets, None, k, None, &mut Vec::new())
    }

    #[test]
    fn top_k_breaks_ties_by_ascending_index_in_both_modes() {
        // Three exact ties and one winner; the cut falls inside the tie.
        let items = [(7, 0.5), (2, 0.5), (9, 0.9), (4, 0.5)];
        for rows in [10, 1_000_000] {
            let out = collect_topk(3, rows, &items);
            assert_eq!(out.len(), 3, "rows={rows}");
            assert_eq!(out[0], (9, 0.9));
            // Ties keep the lowest indices, in ascending order.
            assert_eq!(out[1].0, 2);
            assert_eq!(out[2].0, 4);
        }
        // A filter is applied after membership: row 7 is kept by the
        // filter but lost the tie, so it must not come back.
        let mut slots = vec![u32::MAX; 10];
        (slots[7], slots[9]) = (0, 1);
        let filter = RowFilter {
            rows: &[7, 9],
            slots: &slots,
        };
        let (keys, buckets) = scored(10, &items);
        let kept = top_k(&keys, &buckets, None, 3, Some(filter), &mut Vec::new());
        assert_eq!(kept, vec![(9, 0.9)]);
    }

    #[test]
    fn top_k_is_nan_safe_and_deterministic_in_both_modes() {
        let items = [(0, f32::NAN), (1, 0.1), (2, 0.3), (3, -f32::NAN)];
        for rows in [4, 1_000_000] {
            let out = collect_topk(2, rows, &items);
            // total_cmp ranks positive NaN above every real and negative
            // NaN below; the buckets follow, so the select never panics
            // and never loses the order.
            assert_eq!(out.len(), 2, "rows={rows}");
            assert!(out[0].1.is_nan());
            assert_eq!(out[1], (2, 0.3));
            let all = collect_topk(4, rows, &items);
            assert_eq!(all[3].0, 3, "negative NaN ranks last");
        }
    }

    #[test]
    fn dense_and_heap_modes_agree_bit_for_bit() {
        // Pseudo-random similarities with duplicates. The two shapes a
        // scan hands the selector — candidates that *are* the rows (exact
        // scan) and candidates in some other order with a row map (IVF) —
        // must both equal the full sort, bit for bit.
        let items: Vec<(u32, f32)> = (0u32..500)
            .map(|i| (i, (i.wrapping_mul(2654435761) % 97) as f32 / 97.0 - 0.5))
            .collect();
        let mut sorted: Vec<u64> = items.iter().map(|&(i, sim)| pack(sim, i)).collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let order: Vec<u32> = (0u32..500).map(|p| p * 7 % 500).collect();
        let keys: Vec<u32> = order
            .iter()
            .map(|&r| sim_key(items[r as usize].1))
            .collect();
        let buckets: Vec<u16> = order
            .iter()
            .map(|&r| sim_bucket(items[r as usize].1))
            .collect();
        for k in [0, 1, 7, 100, 499, 500, 600] {
            let by_row = collect_topk(k, items.len(), &items);
            let mapped = top_k(&keys, &buckets, Some(&order), k, None, &mut Vec::new());
            let expected: Vec<(u32, f32)> = sorted.iter().take(k).map(|&w| unpack(w)).collect();
            assert_eq!(by_row.len(), expected.len(), "k={k}");
            for ((a, b), e) in by_row.iter().zip(&mapped).zip(&expected) {
                assert_eq!((a.0, a.1.to_bits()), (e.0, e.1.to_bits()), "k={k}");
                assert_eq!((b.0, b.1.to_bits()), (e.0, e.1.to_bits()), "k={k}");
            }
        }
    }

    #[test]
    fn top_k_zero_k_returns_empty() {
        assert!(collect_topk(0, 10, &[(0, 1.0), (1, 0.5)]).is_empty());
    }

    /// `rows × dim` unit-ish rows and `q` queries from a tiny LCG.
    fn lcg_floats(n: usize, mut state: u64) -> Vec<f32> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    #[test]
    fn dense_mode_is_capped_by_absolute_row_count() {
        // A batch of many queries is scored a block at a time: scratch
        // stays at one block of key rows, not one row per query — and the
        // block boundary never shows in the results.
        let (rows, dim, queries) = (300, 8, 3 * QUERY_BLOCK + 5);
        let unit = lcg_floats(rows * dim, 1);
        let norms = vec![1f32; rows];
        let qhats = lcg_floats(queries * dim, 2);
        let mut scratch = KnnScratch::new();
        let batched = tiled_scan(&unit, &norms, dim, &qhats, 20, None, &mut scratch);
        assert_eq!(batched.len(), queries);
        assert!(scratch.keys.capacity() <= QUERY_BLOCK * rows);
        assert!(scratch.buckets.capacity() <= QUERY_BLOCK * rows);
        for (qhat, batch_row) in qhats.chunks_exact(dim).zip(&batched) {
            let single = tiled_scan(&unit, &norms, dim, qhat, 20, None, &mut KnnScratch::new());
            assert_eq!(single.len(), 1);
            assert_eq!(single[0].len(), 20);
            for (s, b) in single[0].iter().zip(batch_row) {
                assert_eq!((s.0, s.1.to_bits()), (b.0, b.1.to_bits()));
            }
        }
    }

    #[test]
    fn reset_shrinks_oversized_buffers() {
        let mut scratch = KnnScratch::new();
        scratch.resize(QUERY_BLOCK, 1 << 16); // one huge scan
        assert!(scratch.keys.capacity() >= QUERY_BLOCK << 16);
        scratch.resize(1, 10); // then a tiny one
        assert!(
            scratch.keys.capacity() <= 4096 && scratch.buckets.capacity() <= 4096,
            "oversized buffers kept: capacity {}",
            scratch.keys.capacity()
        );
        // Shrinking never changes results.
        let unit = [1.0f32, 0.0, 0.6, 0.8, 0.0, 1.0];
        let got = tiled_scan(&unit, &[1.0; 3], 2, &[1.0, 0.0], 3, None, &mut scratch);
        assert_eq!(got, vec![vec![(0, 1.0), (1, 0.6), (2, 0.0)]]);
    }
}
