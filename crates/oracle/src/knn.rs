//! Naive exact cosine k-nearest-neighbor scan (§4.3).
//!
//! The production path pre-normalizes rows, runs a cache-tiled SIMD scan
//! and cuts the top `n` out with a bucket histogram. The oracle scores
//! every row with a sequential dot product and sorts the whole list —
//! O(V log V) per query, obviously exact. Tie-break matches production: equal
//! similarity → lower row index first.

/// Euclidean norm of `v`, accumulated left to right in f32.
pub fn norm(v: &[f32]) -> f32 {
    let mut s = 0.0f32;
    for &x in v {
        s += x * x;
    }
    s.sqrt()
}

/// The `n` rows most cosine-similar to `query`.
///
/// `rows` is a row-major `len × dim` matrix of *raw* (unnormalized)
/// vectors. Zero-norm rows can match nothing and are skipped; a
/// zero-norm query matches nothing at all. Returns `(row_index,
/// similarity)` sorted by similarity descending, ties by index
/// ascending.
pub fn nearest(rows: &[f32], dim: usize, query: &[f32], n: usize) -> Vec<(u32, f32)> {
    assert_eq!(query.len(), dim, "query dimensionality mismatch");
    assert_eq!(rows.len() % dim.max(1), 0, "ragged row matrix");
    let qn = norm(query);
    if qn <= f32::EPSILON || n == 0 {
        return Vec::new();
    }
    let qhat: Vec<f32> = query.iter().map(|&x| x / qn).collect();

    let mut scored: Vec<(u32, f32)> = Vec::new();
    for (i, row) in rows.chunks_exact(dim).enumerate() {
        let rn = norm(row);
        if rn <= f32::EPSILON {
            continue;
        }
        let mut sim = 0.0f32;
        for d in 0..dim {
            sim += qhat[d] * (row[d] / rn);
        }
        scored.push((i as u32, sim));
    }
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    scored.truncate(n);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_exact_neighbors_with_index_tiebreak() {
        // Four 2-d rows: two identical directions (indices 1 and 2).
        let rows = [1.0f32, 0.0, 0.0, 1.0, 0.0, 2.0, -1.0, 0.0];
        let got = nearest(&rows, 2, &[0.0, 1.0], 3);
        assert_eq!(got.len(), 3);
        // Both index 1 and 2 have cosine 1.0; the lower index wins.
        assert_eq!(got[0].0, 1);
        assert_eq!(got[1].0, 2);
        assert!((got[0].1 - 1.0).abs() < 1e-6);
        assert_eq!(got[2].0, 0); // orthogonal, cosine 0
    }

    #[test]
    fn zero_rows_and_zero_queries_match_nothing() {
        let rows = [0.0f32, 0.0, 1.0, 1.0];
        assert_eq!(nearest(&rows, 2, &[0.0, 0.0], 5), vec![]);
        let got = nearest(&rows, 2, &[1.0, 1.0], 5);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 1);
    }

    #[test]
    fn matches_production_knn_bit_for_bit_at_dim_3() {
        use hostprof_embed::{EmbeddingSet, Vocab};
        // Deterministic ragtag vectors via a tiny LCG.
        let dim = 3;
        let nrows = 40;
        let mut state = 0x00c0_ffeeu64;
        let mut rows = Vec::with_capacity(nrows * dim);
        for _ in 0..nrows * dim {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rows.push(((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5);
        }
        let seqs = [(0..nrows).map(|i| format!("h{i}")).collect::<Vec<_>>()];
        let vocab = Vocab::build(seqs.iter().map(|s| s.iter().map(|t| t.as_str())), 1, 0.0);
        let embeddings = EmbeddingSet::new(dim, vocab, rows.clone());
        let query = [0.3f32, -0.2, 0.7];
        let prod = embeddings.nearest_to_vector(&query, 7);
        let oracle = nearest(&rows, dim, &query, 7);
        assert_eq!(prod.len(), oracle.len());
        for (p, o) in prod.iter().zip(&oracle) {
            assert_eq!(p.0, o.0, "neighbor index diverged");
            assert_eq!(p.1.to_bits(), o.1.to_bits(), "similarity bits diverged");
        }
    }
}
