//! Pluggable nearest-neighbor indexes over the prepared unit-norm matrix.
//!
//! The profiler's hot path is "top `N` cosine neighbors of a session
//! vector". [`ExactScan`] is the honest baseline: the tiled brute-force
//! kernel from [`crate::knn`], O(V·d) per query. [`IvfFlat`] is the
//! million-hostname answer: a k-means coarse quantizer partitions the
//! unit-norm rows into `nlists` inverted lists, and a query scans only the
//! `nprobe` lists whose centroids score highest — the classic IVF-flat
//! layout, reusing the same scoring kernel ([`crate::simd::score_rows`])
//! and the same select and gather ([`crate::knn::top_k`]) as the exact path.
//!
//! Determinism rules (relied on by the golden-replay suite and the
//! differential oracle):
//!
//! * `ExactScan` *is* `tiled_scan`.
//! * `IvfFlat` construction is a pure function of `(matrix, params)`:
//!   seeded splitmix64 initialization, Lloyd iterations with ties broken
//!   toward the lower centroid index, lists stored in ascending row order.
//!   Each pass assigns rows to centroids on every core, but each row is
//!   scored alone and the centroid sums are added in row order on the
//!   calling thread, so the core count never shows in the bits.
//! * Probe selection and candidate selection run on the packed-key total
//!   order, so equal scores break toward the lower list/row index and the
//!   scan order never changes results. With `nprobe == nlists` every
//!   non-zero row is scored exactly once by the same kernel as the exact
//!   scan, making exhaustive probing **bit-identical** to [`ExactScan`]
//!   (the property suite pins this).

use crate::embedding::EmbeddingSet;
use crate::knn::{self, KnnScratch, RowFilter};
use crate::model::run_shares;
use crate::simd;
use serde::{Deserialize, Serialize};

/// Which nearest-neighbor index the profiler queries. Serialized inside
/// `ProfilerConfig`; `Exact` is the default so existing configs and golden
/// replays are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum IndexConfig {
    /// Brute-force tiled scan — exact, the pre-index behaviour.
    #[default]
    Exact,
    /// IVF-flat approximate index.
    Ivf {
        /// Number of inverted lists (k-means centroids). 0 → auto:
        /// `√rows`, clamped to `[1, 4096]`.
        nlists: usize,
        /// Lists probed per query, clamped to `[1, nlists]`. Higher is
        /// slower and more accurate; `nprobe == nlists` is exhaustive and
        /// bit-identical to `Exact`.
        nprobe: usize,
        /// Seed for centroid initialization (k-means is deterministic
        /// given the matrix and this seed).
        seed: u64,
    },
}

impl IndexConfig {
    /// Default IVF parameters for a given vocabulary (auto `nlists`).
    pub fn ivf(nprobe: usize) -> Self {
        IndexConfig::Ivf {
            nlists: 0,
            nprobe,
            seed: DEFAULT_IVF_SEED,
        }
    }

    /// Short human label (`exact` / `ivf`).
    pub fn kind(&self) -> &'static str {
        match self {
            IndexConfig::Exact => "exact",
            IndexConfig::Ivf { .. } => "ivf",
        }
    }

    /// Build the configured index over `set`.
    pub fn build(&self, set: &EmbeddingSet) -> Box<dyn NnIndex> {
        match *self {
            IndexConfig::Exact => Box::new(ExactScan),
            IndexConfig::Ivf {
                nlists,
                nprobe,
                seed,
            } => Box::new(IvfFlat::build(
                set,
                IvfParams {
                    nlists,
                    nprobe,
                    seed,
                },
            )),
        }
    }
}

/// Seed used when the caller doesn't care (CLI default).
pub const DEFAULT_IVF_SEED: u64 = 0x1ff_5eed;

/// A nearest-neighbor search strategy over an [`EmbeddingSet`]'s prepared
/// unit-norm matrix. Implementations must be deterministic: the same
/// `(set, qhats, k)` always produces the same output, bit for bit.
pub trait NnIndex: Send + Sync {
    /// Short name for reports (`exact`, `ivf`).
    fn name(&self) -> &'static str;

    /// Top-`k` `(row, cosine)` per normalized query, best first, ties by
    /// ascending row index. `qhats` holds `q` unit-norm queries laid out
    /// contiguously (`q * set.dim()` floats). Zero-norm rows never match.
    ///
    /// A `filter` narrows what is *returned*, never what is *ranked*: the
    /// top `k` are taken over every candidate the index scores, and of
    /// those only the rows the filter keeps come back, in the order they
    /// hold in the full list. `search(.., Some(f), ..)` therefore equals
    /// `search(.., None, ..)` with the filtered-out rows deleted; a caller
    /// that would skip those rows anyway (Eq. 3 over unlabeled neighbors)
    /// saves their sort and their copy. The filter must be built over
    /// `set`'s rows.
    fn search(
        &self,
        set: &EmbeddingSet,
        qhats: &[f32],
        k: usize,
        filter: Option<RowFilter<'_>>,
        scratch: &mut KnnScratch,
    ) -> Vec<Vec<(u32, f32)>>;
}

/// The exact tiled brute-force scan — the default index.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactScan;

impl NnIndex for ExactScan {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn search(
        &self,
        set: &EmbeddingSet,
        qhats: &[f32],
        k: usize,
        filter: Option<RowFilter<'_>>,
        scratch: &mut KnnScratch,
    ) -> Vec<Vec<(u32, f32)>> {
        knn::tiled_scan(
            set.unit_rows(),
            set.row_norms(),
            set.dim(),
            qhats,
            k,
            filter,
            scratch,
        )
    }
}

/// Tuning knobs for [`IvfFlat::build`].
#[derive(Debug, Clone, Copy)]
pub struct IvfParams {
    /// Inverted-list count; 0 → `√rows` clamped to `[1, 4096]`.
    pub nlists: usize,
    /// Lists probed per query (clamped to `[1, nlists]` at build).
    pub nprobe: usize,
    /// Centroid-initialization seed.
    pub seed: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        Self {
            nlists: 0,
            nprobe: 8,
            seed: DEFAULT_IVF_SEED,
        }
    }
}

/// Lloyd iterations; fixed so builds are a pure function of (matrix, seed).
const KMEANS_ITERS: usize = 8;
/// k-means trains on at most this many rows (stride-sampled); the final
/// assignment pass still visits every row.
const KMEANS_TRAIN_CAP: usize = 131_072;

/// IVF-flat index: spherical k-means centroids over the non-zero unit-norm
/// rows, plus CSR inverted lists.
///
/// The lists store the unit-norm vectors themselves (`list_data`), not
/// just row ids: a probe then streams one contiguous slab per list
/// instead of gathering scattered matrix rows, which is where the "flat"
/// layout's speed actually comes from. The copies are bit-identical to
/// the matrix rows, so results are unaffected — the cost is one extra
/// copy of the non-zero rows held by the index.
pub struct IvfFlat {
    dim: usize,
    /// Total rows of the matrix this index was built for (validated at
    /// search time).
    rows: usize,
    nlists: usize,
    nprobe: usize,
    /// `nlists × dim` unit-norm centroids.
    centroids: Vec<f32>,
    /// CSR offsets into `list_rows` (and, `× dim`, into `list_data`);
    /// `nlists + 1` entries.
    list_offsets: Vec<u32>,
    /// Row ids grouped by list, ascending within each list.
    list_rows: Vec<u32>,
    /// Unit-norm rows copied in `list_rows` order, `dim` floats each.
    list_data: Vec<f32>,
}

/// splitmix64 — the same tiny seeded generator `net::chaos` uses.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl IvfFlat {
    /// Build over `set`'s unit-norm matrix. Degenerate inputs never fail:
    /// an empty (or all-zero) vocabulary produces an index that matches
    /// nothing, and `nlists` is clamped to the non-zero row count.
    ///
    /// Each k-means pass assigns its rows on every core the process may
    /// use; the index is the same bits for any core count.
    pub fn build(set: &EmbeddingSet, params: IvfParams) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        Self::build_with(set, params, KMEANS_TRAIN_CAP, workers)
    }

    /// [`Self::build`] with the k-means sample cap and the assignment's
    /// worker count given.
    fn build_with(set: &EmbeddingSet, params: IvfParams, train_cap: usize, workers: usize) -> Self {
        let dim = set.dim();
        let rows = set.len();
        let unit = set.unit_rows();
        let norms = set.row_norms();

        // Zero-norm rows can never match a query; keep them out of every
        // list so probed scans need no per-row norm check.
        let nonzero: Vec<u32> = (0..rows as u32)
            .filter(|&i| norms[i as usize] > f32::EPSILON)
            .collect();

        let auto = (nonzero.len() as f64).sqrt() as usize;
        let nlists = if params.nlists == 0 {
            auto.clamp(1, 4096)
        } else {
            params.nlists
        }
        .clamp(1, nonzero.len().max(1));
        let nprobe = params.nprobe.clamp(1, nlists);

        if nonzero.is_empty() {
            return Self {
                dim,
                rows,
                nlists,
                nprobe,
                centroids: vec![0.0; nlists * dim],
                list_offsets: vec![0; nlists + 1],
                list_rows: Vec::new(),
                list_data: Vec::new(),
            };
        }

        // --- Initialization: nlists distinct seeded picks. ---
        let mut rng = params.seed ^ 0x5eed_c01d_ca5c_ade1;
        let mut centroids = init_centroids(unit, dim, &nonzero, nlists, &mut rng);

        // --- Lloyd iterations on a stride sample (spherical k-means). ---
        let stride = nonzero.len().div_ceil(train_cap).max(1);
        let train: Vec<u32> = nonzero.iter().copied().step_by(stride).collect();
        // The list of each row of the pass; the sample's passes use a prefix.
        let mut lists = vec![0u32; nonzero.len()];
        let mut sums = vec![0f32; nlists * dim];
        let mut counts = vec![0u32; nlists];
        for _ in 0..KMEANS_ITERS {
            let train_lists = &mut lists[..train.len()];
            assign(unit, dim, &centroids, &train, train_lists, workers);
            sums.fill(0.0);
            counts.fill(0);
            // Summed in row order whatever the worker count, so every float
            // addition is the one-thread build's.
            for (&row, &list) in train.iter().zip(train_lists.iter()) {
                let (row, list) = (row as usize, list as usize);
                counts[list] += 1;
                let v = &unit[row * dim..(row + 1) * dim];
                for (s, x) in sums[list * dim..(list + 1) * dim].iter_mut().zip(v) {
                    *s += x;
                }
            }
            for list in 0..nlists {
                if counts[list] == 0 {
                    // Empty cluster: keep its previous centroid. Determinism
                    // beats cleverness here; stray centroids cost a probe of
                    // an empty list at worst.
                    continue;
                }
                let c = &mut centroids[list * dim..(list + 1) * dim];
                c.copy_from_slice(&sums[list * dim..(list + 1) * dim]);
                let n = simd::dot(c, c).sqrt();
                if n > f32::EPSILON {
                    for x in c.iter_mut() {
                        *x /= n;
                    }
                }
            }
        }

        // --- Final assignment of every non-zero row, CSR by counting. ---
        assign(unit, dim, &centroids, &nonzero, &mut lists, workers);
        counts.fill(0);
        for &list in &lists {
            counts[list as usize] += 1;
        }
        let mut list_offsets = vec![0u32; nlists + 1];
        for list in 0..nlists {
            list_offsets[list + 1] = list_offsets[list] + counts[list];
        }
        let mut cursor = list_offsets.clone();
        let mut list_rows = vec![0u32; nonzero.len()];
        // `nonzero` ascends, so each list's rows come out ascending too.
        for (&row, &list) in nonzero.iter().zip(&lists) {
            let list = list as usize;
            list_rows[cursor[list] as usize] = row;
            cursor[list] += 1;
        }
        let mut list_data = Vec::with_capacity(list_rows.len() * dim);
        for &row in &list_rows {
            list_data.extend_from_slice(&unit[row as usize * dim..(row as usize + 1) * dim]);
        }

        Self {
            dim,
            rows,
            nlists,
            nprobe,
            centroids,
            list_offsets,
            list_rows,
            list_data,
        }
    }

    /// Inverted-list count actually used (after clamping).
    pub fn nlists(&self) -> usize {
        self.nlists
    }

    /// Lists probed per query.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Copy of this index probing `nprobe` lists instead, so a sweep pays
    /// for one k-means build. It deep-copies the centroids, the lists and
    /// their rows (≈ 11 MB at `batch-large` scale).
    pub fn with_nprobe(&self, nprobe: usize) -> Self {
        Self {
            dim: self.dim,
            rows: self.rows,
            nlists: self.nlists,
            nprobe: nprobe.clamp(1, self.nlists),
            centroids: self.centroids.clone(),
            list_offsets: self.list_offsets.clone(),
            list_rows: self.list_rows.clone(),
            list_data: self.list_data.clone(),
        }
    }

    /// `probe_keys` ← every list's [`knn::pack`] of its centroid's score
    /// against `qhat`, in list order: one [`simd::dot_rows`] scan of the
    /// centroids into `sims`.
    fn rank_lists(&self, qhat: &[f32], sims: &mut Vec<f32>, probe_keys: &mut Vec<u64>) {
        sims.resize(self.nlists, 0.0);
        simd::dot_rows(qhat, &self.centroids, sims);
        probe_keys.clear();
        probe_keys.extend(
            (0..)
                .zip(sims.iter())
                .map(|(list, &sim)| knn::pack(sim, list)),
        );
    }
}

/// Seeded distinct-row centroid initialization (rows copied verbatim).
fn init_centroids(
    unit: &[f32],
    dim: usize,
    nonzero: &[u32],
    nlists: usize,
    rng: &mut u64,
) -> Vec<f32> {
    let mut picked = vec![false; nonzero.len()];
    let mut centroids = Vec::with_capacity(nlists * dim);
    let mut taken = 0usize;
    while taken < nlists {
        let slot = (splitmix64(rng) % nonzero.len() as u64) as usize;
        // Rejection loop terminates: nlists ≤ nonzero.len().
        if picked[slot] {
            continue;
        }
        picked[slot] = true;
        let row = nonzero[slot] as usize;
        centroids.extend_from_slice(&unit[row * dim..(row + 1) * dim]);
        taken += 1;
    }
    centroids
}

/// `lists[i]` ← the centroid with the largest dot product against row
/// `rows[i]`, on `workers` contiguous shares ([`run_shares`]): one
/// [`simd::dot_rows`] scan of the centroids per row, then [`first_max`].
/// Each row is scored alone, so `lists` does not depend on `workers`.
fn assign(
    unit: &[f32],
    dim: usize,
    centroids: &[f32],
    rows: &[u32],
    lists: &mut [u32],
    workers: usize,
) {
    let nlists = centroids.len() / dim;
    run_shares(workers, lists, |share, lists| {
        let mut sims = vec![0f32; nlists];
        for (list, &row) in lists.iter_mut().zip(&rows[share]) {
            let v = &unit[row as usize * dim..(row as usize + 1) * dim];
            simd::dot_rows(v, centroids, &mut sims);
            *list = first_max(&sims) as u32;
        }
    });
}

/// Index of the largest score; exact ties break toward the lower index
/// (strict `>` keeps the first max), and a NaN never wins, so a row that
/// scores NaN everywhere lands in list 0.
fn first_max(scores: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_score = f32::NEG_INFINITY;
    for (list, &score) in scores.iter().enumerate() {
        if score > best_score {
            best_score = score;
            best = list;
        }
    }
    best
}

/// Index of the centroid with the largest dot product against `v`, one
/// [`simd::dot`] per centroid; exact ties break toward the lower index
/// (strict `>` keeps the first max). [`assign`]'s reference in the serial
/// twin.
#[cfg(test)]
fn nearest_centroid(centroids: &[f32], dim: usize, v: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_score = f32::NEG_INFINITY;
    for (list, c) in centroids.chunks_exact(dim).enumerate() {
        let score = simd::dot(c, v);
        if score > best_score {
            best_score = score;
            best = list;
        }
    }
    best
}

impl NnIndex for IvfFlat {
    fn name(&self) -> &'static str {
        "ivf"
    }

    fn search(
        &self,
        set: &EmbeddingSet,
        qhats: &[f32],
        k: usize,
        filter: Option<RowFilter<'_>>,
        scratch: &mut KnnScratch,
    ) -> Vec<Vec<(u32, f32)>> {
        assert_eq!(self.dim, set.dim(), "index built for a different dim");
        assert_eq!(self.rows, set.len(), "index built for a different matrix");
        let dim = self.dim;
        let q = qhats.len().checked_div(dim).unwrap_or(0);
        let mut out = Vec::with_capacity(q);
        for qi in 0..q {
            let qhat = &qhats[qi * dim..(qi + 1) * dim];

            // Rank lists by centroid score on the packed-key total order:
            // ties toward the lower list index, never a float compare.
            self.rank_lists(qhat, &mut scratch.sims, &mut scratch.probe_keys);
            let nprobe = self.nprobe.min(scratch.probe_keys.len());
            if nprobe < scratch.probe_keys.len() {
                scratch
                    .probe_keys
                    .select_nth_unstable_by(nprobe - 1, |a, b| b.cmp(a));
                scratch.probe_keys.truncate(nprobe);
            }
            // Probe in ascending list order (cache-friendlier CSR walk;
            // result-invariant either way).
            scratch
                .probe_keys
                .sort_unstable_by_key(|&key| !(key as u32));

            // The probed lists' rows are the candidates, in probe order.
            let span = |key: u64| {
                let list = knn::unpack(key).0 as usize;
                self.list_offsets[list] as usize..self.list_offsets[list + 1] as usize
            };
            scratch.rows.clear();
            for &key in &scratch.probe_keys {
                scratch.rows.extend_from_slice(&self.list_rows[span(key)]);
            }
            scratch.resize(1, scratch.rows.len());
            let mut at = 0;
            for &key in &scratch.probe_keys {
                // Stream the list's contiguous slab (no list holds a
                // zero-norm row).
                let span = span(key);
                let next = at + span.len();
                simd::score_rows(
                    qhat,
                    &self.list_data[span.start * dim..span.end * dim],
                    &mut scratch.keys[at..next],
                    &mut scratch.buckets[at..next],
                );
                at = next;
            }
            out.push(knn::top_k(
                &scratch.keys,
                &scratch.buckets,
                Some(&scratch.rows),
                k,
                filter,
                &mut scratch.packed,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocab;

    /// Deterministic pseudo-random embedding set: `clusters` directions,
    /// rows jittered around them.
    fn clustered_set(rows: usize, dim: usize, clusters: usize, seed: u64) -> EmbeddingSet {
        let mut rng = seed;
        let mut centers = Vec::with_capacity(clusters * dim);
        for _ in 0..clusters * dim {
            centers.push((splitmix64(&mut rng) as f32 / u64::MAX as f32) - 0.5);
        }
        let mut vectors = Vec::with_capacity(rows * dim);
        for r in 0..rows {
            let c = r % clusters;
            for d in 0..dim {
                let noise = ((splitmix64(&mut rng) as f32 / u64::MAX as f32) - 0.5) * 0.1;
                vectors.push(centers[c * dim + d] + noise);
            }
        }
        let names: Vec<Vec<String>> = vec![(0..rows).map(|i| format!("h{i}.com")).collect()];
        let vocab = Vocab::build(names.iter().map(|s| s.iter().map(String::as_str)), 1, 0.0);
        EmbeddingSet::new(dim, vocab, vectors)
    }

    /// One query's top `k` through `index`.
    fn nearest(
        set: &EmbeddingSet,
        query: &[f32],
        k: usize,
        index: &dyn NnIndex,
        scratch: &mut KnnScratch,
    ) -> Vec<(u32, f32)> {
        set.nearest_to_vectors_with_index(&[query.to_vec()], k, index, scratch)
            .remove(0)
    }

    #[test]
    fn exhaustive_probe_is_bit_identical_to_exact() {
        let set = clustered_set(300, 8, 7, 42);
        let ivf = IvfFlat::build(
            &set,
            IvfParams {
                nlists: 9,
                nprobe: 9,
                seed: 7,
            },
        );
        let mut s1 = KnnScratch::new();
        let mut s2 = KnnScratch::new();
        let query = vec![0.3f32; 8];
        for k in [1usize, 10, 299, 300, 400] {
            let exact = nearest(&set, &query, k, &ExactScan, &mut s1);
            let approx = nearest(&set, &query, k, &ivf, &mut s2);
            assert_eq!(exact.len(), approx.len(), "k={k}");
            for (e, a) in exact.iter().zip(&approx) {
                assert_eq!(e.0, a.0, "k={k}");
                assert_eq!(e.1.to_bits(), a.1.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn partial_probe_returns_a_subset_with_exact_sims() {
        let set = clustered_set(400, 6, 10, 3);
        let ivf = IvfFlat::build(
            &set,
            IvfParams {
                nlists: 16,
                nprobe: 2,
                seed: 3,
            },
        );
        let mut scratch = KnnScratch::new();
        let query = vec![0.9f32, -0.1, 0.2, 0.0, 0.4, -0.3];
        let full = nearest(&set, &query, 400, &ExactScan, &mut scratch);
        let by_row: std::collections::HashMap<u32, u32> =
            full.iter().map(|&(i, s)| (i, s.to_bits())).collect();
        let approx = nearest(&set, &query, 25, &ivf, &mut scratch);
        assert!(!approx.is_empty());
        for w in approx.windows(2) {
            assert!(
                knn::pack(w[0].1, w[0].0) > knn::pack(w[1].1, w[1].0),
                "descending with index tie-break"
            );
        }
        for &(idx, sim) in &approx {
            assert_eq!(
                by_row[&idx],
                sim.to_bits(),
                "IVF sims are the exact kernel's bits"
            );
        }
    }

    #[test]
    fn zero_rows_are_never_indexed_and_empty_sets_build() {
        let names = [vec!["a.com".to_string(), "z.com".to_string()]];
        let vocab = Vocab::build(names.iter().map(|s| s.iter().map(String::as_str)), 1, 0.0);
        let vectors = vec![1.0f32, 0.5, 0.0, 0.0]; // z.com is the zero row
        let set = EmbeddingSet::new(2, vocab, vectors);
        let ivf = IvfFlat::build(&set, IvfParams::default());
        assert_eq!(ivf.list_rows.len(), 1);
        let mut scratch = KnnScratch::new();
        let got = nearest(&set, &[1.0, 0.0], 10, &ivf, &mut scratch);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, set.vocab().get("a.com").unwrap());
    }

    #[test]
    fn nlists_clamps_and_auto_sizes() {
        let set = clustered_set(100, 4, 5, 9);
        let auto = IvfFlat::build(
            &set,
            IvfParams {
                nlists: 0,
                nprobe: 3,
                seed: 1,
            },
        );
        assert_eq!(auto.nlists(), 10, "√100");
        let over = IvfFlat::build(
            &set,
            IvfParams {
                nlists: 1000,
                nprobe: 4000,
                seed: 1,
            },
        );
        assert_eq!(over.nlists(), 100, "clamped to non-zero rows");
        assert_eq!(over.nprobe(), 100);
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let set = clustered_set(200, 5, 6, 11);
        let a = IvfFlat::build(
            &set,
            IvfParams {
                nlists: 8,
                nprobe: 2,
                seed: 5,
            },
        );
        let b = IvfFlat::build(
            &set,
            IvfParams {
                nlists: 8,
                nprobe: 2,
                seed: 5,
            },
        );
        assert_eq!(a.list_rows, b.list_rows);
        assert_eq!(a.list_offsets, b.list_offsets);
        assert_eq!(
            a.centroids.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.centroids.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn with_nprobe_shares_the_partition() {
        let set = clustered_set(200, 5, 6, 11);
        let base = IvfFlat::build(
            &set,
            IvfParams {
                nlists: 8,
                nprobe: 1,
                seed: 5,
            },
        );
        let widened = base.with_nprobe(8);
        assert_eq!(widened.nprobe(), 8);
        assert_eq!(base.list_rows, widened.list_rows);
        let mut s1 = KnnScratch::new();
        let exact = nearest(&set, &[0.1, 0.2, 0.3, 0.4, 0.5], 9, &ExactScan, &mut s1);
        let exh = nearest(&set, &[0.1, 0.2, 0.3, 0.4, 0.5], 9, &widened, &mut s1);
        assert_eq!(exact, exh);
    }

    #[test]
    fn index_config_builds_and_labels() {
        let set = clustered_set(50, 4, 3, 2);
        let exact = IndexConfig::Exact.build(&set);
        assert_eq!(exact.name(), "exact");
        let ivf = IndexConfig::ivf(4).build(&set);
        assert_eq!(ivf.name(), "ivf");
        assert_eq!(IndexConfig::default(), IndexConfig::Exact);
        assert_eq!(IndexConfig::ivf(4).kind(), "ivf");
        assert_eq!(IndexConfig::Exact.kind(), "exact");
    }

    /// `search`'s centroid ranking is `pack(simd::dot(c, q), list)` per
    /// centroid, bits compared: list counts with and without an eight-row
    /// tail, dims on the vector kernel (16, 64, 128) and off it (13, 100),
    /// queries holding ±0.0, ±∞ and NaN against centroids holding NaN.
    #[test]
    fn centroid_ranking_is_pack_of_dot_per_centroid() {
        let mut rng = 0xc0ffeeu64;
        for dim in [13, 16, 64, 100, 128] {
            for nlists in [1, 7, 8, 9, 23] {
                let set = twin_set(200, dim, &mut rng);
                let ivf = IvfFlat::build(
                    &set,
                    IvfParams {
                        nlists,
                        nprobe: 1,
                        seed: splitmix64(&mut rng),
                    },
                );
                let mut queries: Vec<Vec<f32>> = (0..3)
                    .map(|_| {
                        (0..dim)
                            .map(|_| (splitmix64(&mut rng) >> 40) as f32 / 16_777_216.0 - 0.5)
                            .collect()
                    })
                    .collect();
                queries.push(vec![-0.0; dim]);
                queries[1][dim / 2] = f32::INFINITY;
                queries[2][0] = f32::NAN;
                let (mut sims, mut keys) = (Vec::new(), Vec::new());
                for q in &queries {
                    ivf.rank_lists(q, &mut sims, &mut keys);
                    let want: Vec<u64> = (0..)
                        .zip(ivf.centroids.chunks_exact(dim))
                        .map(|(list, c)| knn::pack(simd::dot(c, q), list))
                        .collect();
                    assert_eq!(keys, want, "dim {dim}, {} lists", ivf.nlists);
                }
            }
        }
    }

    /// The build before its assignment fanned out, verbatim but for the
    /// sample cap: one loop on the calling thread, [`nearest_centroid`] per
    /// row. The reference the fan-out is held to.
    fn build_serial(set: &EmbeddingSet, params: IvfParams, train_cap: usize) -> IvfFlat {
        let dim = set.dim();
        let rows = set.len();
        let unit = set.unit_rows();
        let norms = set.row_norms();

        let nonzero: Vec<u32> = (0..rows as u32)
            .filter(|&i| norms[i as usize] > f32::EPSILON)
            .collect();

        let auto = (nonzero.len() as f64).sqrt() as usize;
        let nlists = if params.nlists == 0 {
            auto.clamp(1, 4096)
        } else {
            params.nlists
        }
        .clamp(1, nonzero.len().max(1));
        let nprobe = params.nprobe.clamp(1, nlists);

        if nonzero.is_empty() {
            return IvfFlat {
                dim,
                rows,
                nlists,
                nprobe,
                centroids: vec![0.0; nlists * dim],
                list_offsets: vec![0; nlists + 1],
                list_rows: Vec::new(),
                list_data: Vec::new(),
            };
        }

        let mut rng = params.seed ^ 0x5eed_c01d_ca5c_ade1;
        let mut centroids = init_centroids(unit, dim, &nonzero, nlists, &mut rng);

        let stride = nonzero.len().div_ceil(train_cap).max(1);
        let train: Vec<u32> = nonzero.iter().copied().step_by(stride).collect();
        let mut sums = vec![0f32; nlists * dim];
        let mut counts = vec![0u32; nlists];
        for _ in 0..KMEANS_ITERS {
            sums.fill(0.0);
            counts.fill(0);
            for &row in &train {
                let v = &unit[row as usize * dim..(row as usize + 1) * dim];
                let list = nearest_centroid(&centroids, dim, v);
                counts[list] += 1;
                for (s, x) in sums[list * dim..(list + 1) * dim].iter_mut().zip(v) {
                    *s += x;
                }
            }
            for list in 0..nlists {
                if counts[list] == 0 {
                    continue;
                }
                let c = &mut centroids[list * dim..(list + 1) * dim];
                c.copy_from_slice(&sums[list * dim..(list + 1) * dim]);
                let n = simd::dot(c, c).sqrt();
                if n > f32::EPSILON {
                    for x in c.iter_mut() {
                        *x /= n;
                    }
                }
            }
        }

        let mut assignment = vec![0u32; nonzero.len()];
        let mut list_len = vec![0u32; nlists];
        for (slot, &row) in nonzero.iter().enumerate() {
            let v = &unit[row as usize * dim..(row as usize + 1) * dim];
            let list = nearest_centroid(&centroids, dim, v) as u32;
            assignment[slot] = list;
            list_len[list as usize] += 1;
        }
        let mut list_offsets = vec![0u32; nlists + 1];
        for list in 0..nlists {
            list_offsets[list + 1] = list_offsets[list] + list_len[list];
        }
        let mut cursor = list_offsets.clone();
        let mut list_rows = vec![0u32; nonzero.len()];
        for (slot, &row) in nonzero.iter().enumerate() {
            let list = assignment[slot] as usize;
            list_rows[cursor[list] as usize] = row;
            cursor[list] += 1;
        }
        let mut list_data = Vec::with_capacity(list_rows.len() * dim);
        for &row in &list_rows {
            list_data.extend_from_slice(&unit[row as usize * dim..(row as usize + 1) * dim]);
        }

        IvfFlat {
            dim,
            rows,
            nlists,
            nprobe,
            centroids,
            list_offsets,
            list_rows,
            list_data,
        }
    }

    /// A seeded matrix holding what an assignment can disagree on: every
    /// 17th row zero; every 5th a scaled basis vector, whose unit row and
    /// every mean of its copies are exact, and every 7th a copy of the row
    /// before it, so duplicate centroids tie exactly; every 23rd with a ±∞
    /// component, whose unit row holds a NaN and so scores NaN everywhere.
    fn twin_set(rows: usize, dim: usize, rng: &mut u64) -> EmbeddingSet {
        let mut vectors: Vec<f32> = Vec::with_capacity(rows * dim);
        for r in 0..rows {
            let start = vectors.len();
            if r % 17 == 16 {
                vectors.extend(std::iter::repeat_n(0.0, dim));
            } else if r % 7 == 3 {
                vectors.extend_from_within(start - dim..start);
            } else if r % 5 == 2 {
                vectors.extend((0..dim).map(|d| if d == r % dim { -3.0 } else { 0.0 }));
            } else {
                vectors
                    .extend((0..dim).map(|_| (splitmix64(rng) >> 40) as f32 / 16_777_216.0 - 0.5));
            }
            if r % 23 == 11 && r % 17 != 16 {
                vectors[start + r % dim] = if r % 2 == 0 {
                    f32::INFINITY
                } else {
                    f32::NEG_INFINITY
                };
            }
        }
        let names: Vec<String> = (0..rows).map(|i| format!("h{i}.com")).collect();
        let vocab = Vocab::build([names.iter().map(String::as_str)], 1, 0.0);
        EmbeddingSet::new(dim, vocab, vectors)
    }

    /// An index's four buffers, floats as bits.
    fn index_bits(ivf: &IvfFlat) -> [Vec<u32>; 4] {
        [
            ivf.centroids.iter().map(|x| x.to_bits()).collect(),
            ivf.list_offsets.clone(),
            ivf.list_rows.clone(),
            ivf.list_data.iter().map(|x| x.to_bits()).collect(),
        ]
    }

    /// The fanned-out build is its serial twin bit for bit on 1, 2, 3 and
    /// 7 workers: dims on the AVX2 `dot` (8, 64), on it plus its scalar
    /// tail (13, 100) and on the tail alone (1, 3); 1–600 rows; one list,
    /// a list per row and a seeded count; the whole sample and a stride of
    /// up to ten (a cap of 64 rows). Against the twin's centroids, a row
    /// whose best score ties across lists sits in the lower list and a row
    /// that scores NaN everywhere in list 0 — and both must occur.
    #[test]
    fn fanned_out_build_is_its_serial_twin_bit_for_bit() {
        let mut rng = 0x7e57_f00du64;
        let (mut ties, mut nan_rows) = (0usize, 0usize);
        for dim in [1, 3, 8, 13, 64, 100] {
            for case in 0..6u64 {
                // A list per row costs rows² dots a pass: keep those small.
                let rows = match case {
                    0 => 600,
                    1 | 4 => 1 + (splitmix64(&mut rng) % 200) as usize,
                    _ => 1 + (splitmix64(&mut rng) % 600) as usize,
                };
                let set = twin_set(rows, dim, &mut rng);
                let nonzero = set
                    .row_norms()
                    .iter()
                    .filter(|&&n| n > f32::EPSILON)
                    .count();
                let nlists = match case % 3 {
                    0 => 1,
                    1 => rows,
                    _ => 1 + (splitmix64(&mut rng) % nonzero as u64) as usize,
                };
                let train_cap = if case < 3 { 64 } else { KMEANS_TRAIN_CAP };
                let params = IvfParams {
                    nlists,
                    nprobe: 1,
                    seed: splitmix64(&mut rng),
                };
                let twin = build_serial(&set, params, train_cap);
                for workers in [1, 2, 3, 7] {
                    let fanned = IvfFlat::build_with(&set, params, train_cap, workers);
                    assert_eq!(
                        index_bits(&fanned),
                        index_bits(&twin),
                        "dim {dim}, {rows} rows, {nlists} lists, cap {train_cap}, {workers} workers"
                    );
                }

                let unit = set.unit_rows();
                for list in 0..twin.nlists {
                    let span =
                        twin.list_offsets[list] as usize..twin.list_offsets[list + 1] as usize;
                    for &row in &twin.list_rows[span] {
                        let v = &unit[row as usize * dim..(row as usize + 1) * dim];
                        let scores: Vec<f32> = twin
                            .centroids
                            .chunks_exact(dim)
                            .map(|c| simd::dot(c, v))
                            .collect();
                        let Some(best) = scores
                            .iter()
                            .copied()
                            .filter(|s| !s.is_nan())
                            .reduce(f32::max)
                        else {
                            nan_rows += 1;
                            assert_eq!(list, 0, "row {row} scores NaN everywhere");
                            continue;
                        };
                        let at_best = scores.iter().filter(|&&s| s == best).count();
                        ties += usize::from(at_best > 1);
                        let first = scores.iter().position(|&s| s == best);
                        assert_eq!(Some(list), first, "row {row}: ties go to the lower list");
                    }
                }
            }
        }
        eprintln!("twin: {ties} rows tied across lists, {nan_rows} rows scored NaN everywhere");
        assert!(ties > 0, "no cross-list tie was exercised");
        assert!(nan_rows > 0, "no NaN-scored row was exercised");
    }
}
