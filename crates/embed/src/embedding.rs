//! Trained embeddings and similarity queries.
//!
//! After training, the profiler aggregates a session's hostname vectors
//! ([`EmbeddingSet::vector`]) into a session vector and needs one query
//! (paper Section 4.1): the `N = 1000` hostnames most similar to it by
//! cosine ([`EmbeddingSet::nearest_to_vector`]), each with that cosine.

use crate::index::{ExactScan, NnIndex};
use crate::knn::{KnnScratch, RowFilter};
use crate::vocab::Vocab;

/// A frozen `|V| × d` embedding matrix with its vocabulary.
///
/// Alongside the raw matrix, construction prepares a row-normalized copy
/// (`unit`) so cosine kNN reduces to dot products against unit vectors —
/// see [`crate::knn`]. The prepared view is derived state: it is rebuilt
/// on load ([`crate::persist`]) rather than persisted.
#[derive(Debug, Clone)]
pub struct EmbeddingSet {
    dim: usize,
    vocab: Vocab,
    /// Row-major vectors.
    vectors: Vec<f32>,
    /// Precomputed L2 norms, row-aligned.
    norms: Vec<f32>,
    /// Unit-norm rows (zero rows stay zero), row-aligned with `vectors`.
    unit: Vec<f32>,
}

impl EmbeddingSet {
    /// Wrap a trained matrix. `vectors.len()` must equal
    /// `vocab.len() * dim`.
    pub fn new(dim: usize, vocab: Vocab, vectors: Vec<f32>) -> Self {
        assert_eq!(vectors.len(), vocab.len() * dim, "matrix shape mismatch");
        let mut set = Self {
            dim,
            norms: vec![0f32; vocab.len()],
            unit: vec![0f32; vectors.len()],
            vocab,
            vectors,
        };
        set.normalize();
        set
    }

    /// Recompute `norms` and `unit` from `vectors`, in place.
    fn normalize(&mut self) {
        let dim = self.dim;
        for (i, norm) in self.norms.iter_mut().enumerate() {
            let row = &self.vectors[i * dim..(i + 1) * dim];
            let unit = &mut self.unit[i * dim..(i + 1) * dim];
            *norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            if *norm > f32::EPSILON {
                for (u, v) in unit.iter_mut().zip(row) {
                    *u = v / *norm;
                }
            } else {
                unit.fill(0.0);
            }
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of embedded tokens.
    pub fn len(&self) -> usize {
        self.vocab.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.vocab.is_empty()
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Vector of a token, if in vocabulary.
    pub fn vector(&self, token: &str) -> Option<&[f32]> {
        self.vocab.get(token).map(|i| self.vector_by_index(i))
    }

    /// Vector by dense index.
    ///
    /// # Panics
    /// Panics when the index is out of range.
    pub fn vector_by_index(&self, idx: u32) -> &[f32] {
        &self.vectors[idx as usize * self.dim..(idx as usize + 1) * self.dim]
    }

    /// Cosine similarity between two tokens (None if either is unknown).
    pub fn cosine(&self, a: &str, b: &str) -> Option<f32> {
        let ia = self.vocab.get(a)?;
        let ib = self.vocab.get(b)?;
        Some(self.cosine_indices(ia, ib))
    }

    /// Cosine similarity between two indexed tokens.
    pub fn cosine_indices(&self, a: u32, b: u32) -> f32 {
        let va = self.vector_by_index(a);
        let vb = self.vector_by_index(b);
        let denom = self.norms[a as usize] * self.norms[b as usize];
        if denom <= f32::EPSILON {
            return 0.0;
        }
        dot(va, vb) / denom
    }

    /// Unit-norm row matrix (zero rows stay zero), for index kernels.
    pub(crate) fn unit_rows(&self) -> &[f32] {
        &self.unit
    }

    /// Precomputed L2 norms, row-aligned with the matrix.
    pub(crate) fn row_norms(&self) -> &[f32] {
        &self.norms
    }

    /// The `n` tokens most cosine-similar to `query`, descending (exact
    /// similarity ties break toward the lower index). Zero-norm rows are
    /// skipped. Always the exact brute-force scan — the honest baseline an
    /// approximate index is benchmarked against. A one-shot convenience:
    /// repeated or approximate searches go through
    /// [`Self::nearest_to_vectors_filtered`] with an [`NnIndex`] and
    /// reused scratch.
    pub fn nearest_to_vector(&self, query: &[f32], n: usize) -> Vec<(u32, f32)> {
        let mut results = self.nearest_to_vectors_filtered(
            &[query.to_vec()],
            n,
            &ExactScan,
            None,
            &mut KnnScratch::new(),
        );
        results.pop().unwrap_or_default()
    }

    /// [`Self::nearest_to_vectors_filtered`] keeping every row.
    pub fn nearest_to_vectors_with_index(
        &self,
        queries: &[Vec<f32>],
        n: usize,
        index: &dyn NnIndex,
        scratch: &mut KnnScratch,
    ) -> Vec<Vec<(u32, f32)>> {
        self.nearest_to_vectors_filtered(queries, n, index, None, scratch)
    }

    /// Batched search: each query's top `n` through `index`, of those
    /// only the rows `filter` keeps (see [`NnIndex::search`]). The exact
    /// scan scores all queries against each cache-sized tile of the
    /// vocabulary before moving to the next tile; a query's result never
    /// depends on the others in its batch. Zero-norm queries produce empty
    /// result rows, whatever the index.
    pub fn nearest_to_vectors_filtered(
        &self,
        queries: &[Vec<f32>],
        n: usize,
        index: &dyn NnIndex,
        filter: Option<RowFilter<'_>>,
        scratch: &mut KnnScratch,
    ) -> Vec<Vec<(u32, f32)>> {
        let mut qhat = std::mem::take(&mut scratch.qhat);
        qhat.clear();
        let mut slot_of: Vec<Option<usize>> = Vec::with_capacity(queries.len());
        let mut slots = 0usize;
        for query in queries {
            assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
            let qn = crate::simd::dot(query, query).sqrt();
            if qn <= f32::EPSILON || n == 0 {
                slot_of.push(None);
                continue;
            }
            qhat.extend(query.iter().map(|x| x / qn));
            slot_of.push(Some(slots));
            slots += 1;
        }
        let mut packed = index.search(self, &qhat, n, filter, scratch);
        scratch.qhat = qhat;
        slot_of
            .into_iter()
            .map(|slot| {
                slot.map(|i| std::mem::take(&mut packed[i]))
                    .unwrap_or_default()
            })
            .collect()
    }

    /// Subtract the mean embedding from every vector and recompute the
    /// norms and unit rows in their own buffers.
    ///
    /// Small corpora produce a strong common direction (hubness): every
    /// pair of hostnames ends up with a large positive cosine, which
    /// flattens the α-weights of the profiler's Eq. 3. Removing the mean —
    /// the first step of the standard "all-but-the-top" postprocessing —
    /// restores contrast. Embeddings trained at the paper's data scale do
    /// not need this, so it is opt-in via the pipeline config.
    pub fn centered(mut self) -> Self {
        if self.vocab.is_empty() {
            return self;
        }
        let n = self.vocab.len();
        let mut mean = vec![0f32; self.dim];
        for i in 0..n {
            for (m, v) in mean
                .iter_mut()
                .zip(&self.vectors[i * self.dim..(i + 1) * self.dim])
            {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f32;
        }
        for i in 0..n {
            for (d, m) in mean.iter().enumerate() {
                self.vectors[i * self.dim + d] -= m;
            }
        }
        self.normalize();
        self
    }

    /// The `n` tokens most similar to `token` (token itself excluded).
    pub fn most_similar(&self, token: &str, n: usize) -> Vec<(String, f32)> {
        let Some(idx) = self.vocab.get(token) else {
            return Vec::new();
        };
        self.nearest_to_vector(self.vector_by_index(idx), n + 1)
            .into_iter()
            .filter(|(i, _)| *i != idx)
            .take(n)
            .map(|(i, s)| (self.vocab.token(i).to_string(), s))
            .collect()
    }
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built 2-D embedding: two tight groups on orthogonal axes.
    fn toy() -> EmbeddingSet {
        let seqs = vec![vec!["a0", "a1", "a2", "b0", "b1", "zero"]];
        let vocab = Vocab::build(seqs, 1, 0.0);
        let mut vectors = vec![0f32; vocab.len() * 2];
        let mut set = |name: &str, v: [f32; 2]| {
            let i = vocab.get(name).unwrap() as usize;
            vectors[i * 2] = v[0];
            vectors[i * 2 + 1] = v[1];
        };
        set("a0", [1.0, 0.0]);
        set("a1", [0.9, 0.1]);
        set("a2", [1.0, 0.05]);
        set("b0", [0.0, 1.0]);
        set("b1", [0.1, 0.9]);
        set("zero", [0.0, 0.0]);
        EmbeddingSet::new(2, vocab, vectors)
    }

    /// `centered` recomputes norms and unit rows in the buffers it has;
    /// the result must be what `new` builds over the centered matrix, bit
    /// for bit — also for a row the centering zeroes (its unit row must be
    /// cleared) and a zero row the centering moves (its unit row filled).
    #[test]
    fn centered_is_new_over_the_centered_matrix_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Equal counts: rows in name order. The rows are dyadic with the
        // exact mean (0.5, 0.5, 0.5): r2 is that mean, r3 is zero.
        let names = ["r0", "r1", "r2", "r3", "r4", "r5", "r6"];
        let rows: [[f32; 3]; 7] = [
            [1.0, 0.5, 0.0],
            [0.0, 0.5, 1.0],
            [0.5, 0.5, 0.5],
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
            [0.25, 0.75, 0.125],
            [0.75, 0.25, 0.875],
        ];
        let hand = (3, Vocab::build([names], 1, 0.0), rows.concat());
        let mut state = 7u64;
        let random: Vec<f32> = (0..40 * 5)
            .map(|_| (crate::model::next_random(&mut state) >> 40) as f32 / 16_777_216.0 - 0.3)
            .collect();
        let random_names: Vec<String> = (0..40).map(|i| format!("h{i}")).collect();
        let random_vocab = Vocab::build([random_names.iter().map(String::as_str)], 1, 0.0);
        for (i, (dim, vocab, vectors)) in [hand, (5, random_vocab, random)].into_iter().enumerate()
        {
            let centered = EmbeddingSet::new(dim, vocab, vectors).centered();
            let fresh = EmbeddingSet::new(dim, centered.vocab.clone(), centered.vectors.clone());
            assert_eq!(bits(&centered.norms), bits(&fresh.norms), "dim {dim}");
            assert_eq!(bits(&centered.unit), bits(&fresh.unit), "dim {dim}");
            if i == 0 {
                assert_eq!(centered.norms[2], 0.0, "r2 is the mean");
                assert!(centered.unit[6..9].iter().all(|&u| u == 0.0));
                assert!(centered.unit[9..12].iter().all(|&u| u != 0.0), "r3 moved");
            }
        }
    }

    #[test]
    fn cosine_identifies_groups() {
        let e = toy();
        assert!(e.cosine("a0", "a1").unwrap() > 0.98);
        assert!(e.cosine("a0", "b0").unwrap() < 0.1);
        assert!(e.cosine("a0", "nope").is_none());
    }

    #[test]
    fn most_similar_excludes_self_and_ranks() {
        let e = toy();
        let sims = e.most_similar("a0", 2);
        assert_eq!(sims.len(), 2);
        assert!(sims[0].0.starts_with('a'));
        assert!(sims[1].0.starts_with('a'));
        assert!(sims[0].1 >= sims[1].1);
    }

    #[test]
    fn nearest_to_vector_skips_zero_rows_and_sorts() {
        let e = toy();
        let res = e.nearest_to_vector(&[1.0, 0.0], 10);
        assert_eq!(res.len(), 5, "zero-norm token skipped");
        for w in res.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(e.vocab().token(res[0].0).chars().next(), Some('a'));
    }

    #[test]
    fn nearest_with_zero_query_is_empty() {
        let e = toy();
        assert!(e.nearest_to_vector(&[0.0, 0.0], 3).is_empty());
        assert!(e.nearest_to_vector(&[1.0, 0.0], 0).is_empty());
    }

    #[test]
    fn top_n_truncation_keeps_the_best() {
        let e = toy();
        let all = e.nearest_to_vector(&[1.0, 0.0], 5);
        let top2 = e.nearest_to_vector(&[1.0, 0.0], 2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].0, all[0].0);
        assert_eq!(top2[1].0, all[1].0);
    }

    #[test]
    fn centering_removes_the_common_direction() {
        // All vectors share a large offset along x.
        let seqs = vec![vec!["p", "q", "r"]];
        let vocab = Vocab::build(seqs, 1, 0.0);
        let mut vectors = vec![0f32; 6];
        let mut set = |name: &str, v: [f32; 2]| {
            let i = vocab.get(name).unwrap() as usize;
            vectors[i * 2] = v[0];
            vectors[i * 2 + 1] = v[1];
        };
        set("p", [10.0, 1.0]);
        set("q", [10.0, -1.0]);
        set("r", [10.0, 0.0]);
        let raw = EmbeddingSet::new(2, vocab, vectors);
        assert!(
            raw.cosine("p", "q").unwrap() > 0.9,
            "hubness before centering"
        );
        let centered = raw.centered();
        assert!(
            centered.cosine("p", "q").unwrap() < -0.9,
            "opposed after removing the common direction"
        );
    }

    #[test]
    fn serde_roundtrip_preserves_queries() {
        let e = toy();
        let back = crate::persist::from_flat_bytes(&crate::persist::to_flat_bytes(&e)).unwrap();
        assert_eq!(back.len(), e.len());
        assert_eq!(back.cosine("a0", "a1"), e.cosine("a0", "a1"));
    }

    #[test]
    #[should_panic(expected = "matrix shape mismatch")]
    fn wrong_shape_panics() {
        let vocab = Vocab::build(vec![vec!["x"]], 1, 0.0);
        let _ = EmbeddingSet::new(3, vocab, vec![0.0; 2]);
    }

    /// Exact similarity ties (duplicate rows) must order by ascending
    /// vocabulary index, every run.
    #[test]
    fn knn_breaks_exact_ties_by_ascending_index() {
        let seqs = vec![vec!["t0", "t1", "t2", "t3", "other"]];
        let vocab = Vocab::build(seqs, 1, 0.0);
        let mut vectors = vec![0f32; vocab.len() * 2];
        for name in ["t0", "t1", "t2", "t3"] {
            let i = vocab.get(name).unwrap() as usize;
            vectors[i * 2] = 0.6;
            vectors[i * 2 + 1] = 0.8;
        }
        let other = vocab.get("other").unwrap() as usize;
        vectors[other * 2] = -1.0;
        let e = EmbeddingSet::new(2, vocab, vectors);
        let res = e.nearest_to_vector(&[0.6, 0.8], 3);
        assert_eq!(res.len(), 3);
        // All three results are duplicates with identical similarity…
        assert_eq!(res[0].1.to_bits(), res[1].1.to_bits());
        assert_eq!(res[1].1.to_bits(), res[2].1.to_bits());
        // …so they must come out in ascending index order.
        assert!(res[0].0 < res[1].0 && res[1].0 < res[2].0, "{res:?}");
    }

    /// A query's result must not depend on the batch around it: four
    /// queries scanned together agree with each one alone, bit for bit —
    /// same indices, same similarity bits.
    #[test]
    fn batched_knn_is_bit_identical_to_single_query() {
        let e = toy();
        let queries: Vec<Vec<f32>> = vec![
            vec![1.0, 0.0],
            vec![0.0, 0.0], // zero query: empty result row
            vec![0.3, 0.7],
            vec![-1.0, 0.2],
        ];
        for n in [0, 1, 2, 100] {
            let batched =
                e.nearest_to_vectors_with_index(&queries, n, &ExactScan, &mut KnnScratch::new());
            assert_eq!(batched.len(), queries.len());
            for (q, batch_row) in queries.iter().zip(&batched) {
                let single = e.nearest_to_vector(q, n);
                assert_eq!(single.len(), batch_row.len());
                for (s, b) in single.iter().zip(batch_row) {
                    assert_eq!(s.0, b.0);
                    assert_eq!(s.1.to_bits(), b.1.to_bits());
                }
            }
        }
    }

    /// Preparing the unit-norm view must not perturb the raw-vector
    /// cosine path: `cosine_indices` stays exactly (f32-bit) equal to the
    /// straightforward dot/(|a||b|) computation on the stored matrix.
    #[test]
    fn unit_norm_preparation_leaves_cosine_indices_unchanged() {
        let e = toy();
        for a in 0..e.len() as u32 {
            for b in 0..e.len() as u32 {
                let va = e.vector_by_index(a);
                let vb = e.vector_by_index(b);
                let na = va.iter().map(|x| x * x).sum::<f32>().sqrt();
                let nb = vb.iter().map(|x| x * x).sum::<f32>().sqrt();
                let expected = if na * nb <= f32::EPSILON {
                    0.0
                } else {
                    va.iter().zip(vb).map(|(x, y)| x * y).sum::<f32>() / (na * nb)
                };
                assert_eq!(e.cosine_indices(a, b).to_bits(), expected.to_bits());
            }
        }
        // And a flat round trip (which rebuilds the prepared view) keeps
        // the same bits too.
        let back = crate::persist::from_flat_bytes(&crate::persist::to_flat_bytes(&e)).unwrap();
        for a in 0..e.len() as u32 {
            for b in 0..e.len() as u32 {
                assert_eq!(
                    back.cosine_indices(a, b).to_bits(),
                    e.cosine_indices(a, b).to_bits()
                );
            }
        }
    }

    /// Scratch reuse must not change results.
    #[test]
    fn scratch_reuse_is_transparent() {
        let e = toy();
        let mut scratch = KnnScratch::new();
        let mut search = |q: Vec<f32>, n: usize| {
            e.nearest_to_vectors_with_index(&[q], n, &ExactScan, &mut scratch)
                .remove(0)
        };
        let first = search(vec![1.0, 0.0], 4);
        let _ = search(vec![0.2, 0.9], 2);
        let again = search(vec![1.0, 0.0], 4);
        assert_eq!(first, again);
        assert_eq!(first, e.nearest_to_vector(&[1.0, 0.0], 4));
    }
}
