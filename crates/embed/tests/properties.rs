//! Property tests for the embedding engine's data structures, and for
//! the kNN selector against its sort-everything twin.

use hostprof_embed::{
    simd, EmbeddingSet, ExactScan, IvfFlat, IvfParams, KernelChoice, KnnScratch, NegativeTable,
    NnIndex, RowFilter, SkipGram, SkipGramConfig, Vocab,
};
use proptest::prelude::*;

/// Uniform in `0..n`.
fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.uniform_u64(0, n as u64 - 1) as usize
}

/// A matrix built to make the selector's hard cases common: every vector
/// appears about four times (so similarities tie exactly, and the `k`-th
/// place usually falls inside a tie), some rows are zero (never
/// candidates), and some carry ±∞ (their unit rows, and so their
/// similarities, are NaN) or NaN (a NaN norm: a candidate of the exact
/// scan with an all-zero unit row, no candidate of IVF).
struct Selector {
    dim: usize,
    set: EmbeddingSet,
    /// The unit-norm rows as `EmbeddingSet::new` derives them.
    unit: Vec<f32>,
    norms: Vec<f32>,
}

impl Selector {
    fn new(rows: usize, dim: usize, rng: &mut TestRng) -> Self {
        let distinct = 1 + rows / 4;
        let base: Vec<f32> = (0..distinct * dim)
            .map(|_| rng.uniform_f64(-1.0, 1.0) as f32)
            .collect();
        let mut vectors = Vec::with_capacity(rows * dim);
        for _ in 0..rows {
            let b = below(rng, distinct);
            vectors.extend_from_slice(&base[b * dim..(b + 1) * dim]);
            let row = vectors.len() - dim;
            match below(rng, 16) {
                0 => vectors[row..].fill(0.0),
                1 => vectors[row + b % dim] = f32::INFINITY,
                2 => vectors[row + b % dim] = f32::NEG_INFINITY,
                3 => vectors[row + b % dim] = f32::NAN,
                _ => {}
            }
        }
        let names: Vec<String> = (0..rows).map(|i| format!("h{i}.example")).collect();
        let vocab = Vocab::build([names.iter().map(String::as_str)], 1, 0.0);
        let norms: Vec<f32> = vectors
            .chunks_exact(dim)
            .map(|v| v.iter().map(|x| x * x).sum::<f32>().sqrt())
            .collect();
        let mut unit = vec![0f32; vectors.len()];
        for (r, &norm) in norms.iter().enumerate() {
            if norm > f32::EPSILON {
                for d in 0..dim {
                    unit[r * dim + d] = vectors[r * dim + d] / norm;
                }
            }
        }
        Self {
            dim,
            set: EmbeddingSet::new(dim, vocab, vectors),
            unit,
            norms,
        }
    }

    fn rows(&self) -> usize {
        self.norms.len()
    }

    /// `queries` finite query vectors, some long enough that a cosine
    /// leaves `[-1, 1]` (`search` takes them as they are).
    fn qhats(&self, queries: usize, rng: &mut TestRng) -> Vec<f32> {
        let mut qhats = Vec::with_capacity(queries * self.dim);
        for _ in 0..queries {
            let scale = [0.1, 1.0, 1.0, 30.0][below(rng, 4)];
            qhats.extend((0..self.dim).map(|_| rng.uniform_f64(-scale, scale) as f32));
        }
        qhats
    }

    /// The twin: score every candidate, sort the whole list by
    /// `total_cmp` then ascending row, keep the first `k`, *then* drop what
    /// the filter drops. Also reports what the case exercised.
    fn reference(
        &self,
        qhat: &[f32],
        k: usize,
        candidates: impl Iterator<Item = u32>,
        kept: Option<&[bool]>,
        seen: &mut Seen,
    ) -> Vec<(u32, u32)> {
        let mut scored: Vec<(f32, u32)> = candidates
            .map(|r| {
                let row = &self.unit[r as usize * self.dim..(r as usize + 1) * self.dim];
                (simd::dot(qhat, row), r)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        if scored.iter().any(|(sim, _)| !(-1.0..=1.0).contains(sim)) {
            seen.beyond_unit += 1; // NaN, ±∞ or a cosine past ±1
        }
        if k > 0 && k < scored.len() && scored[k - 1].0.to_bits() == scored[k].0.to_bits() {
            seen.ties += 1;
            let mut tied = scored
                .iter()
                .filter(|t| t.0.to_bits() == scored[k].0.to_bits())
                .map(|t| kept.is_none_or(|kept| kept[t.1 as usize]));
            let first = tied.next();
            if tied.any(|kept| Some(kept) != first) {
                seen.ties_across_filter += 1;
            }
        }
        scored.truncate(k);
        scored
            .into_iter()
            .filter(|&(_, r)| kept.is_none_or(|kept| kept[r as usize]))
            .map(|(sim, r)| (r, sim.to_bits()))
            .collect()
    }
}

/// What the generated cases reached, asserted at the end of each test.
#[derive(Debug, Default)]
struct Seen {
    comparisons: usize,
    ties: usize,
    ties_across_filter: usize,
    beyond_unit: usize,
}

/// The four filters: none, every row, no row, a random 12 %.
fn filters(rows: usize, rng: &mut TestRng) -> Vec<Option<Vec<bool>>> {
    vec![
        None,
        Some(vec![true; rows]),
        Some(vec![false; rows]),
        Some((0..rows).map(|_| below(rng, 100) < 12).collect()),
    ]
}

/// `search` through `index` for every `k` regime and filter, against the
/// twin over `candidates`.
fn check_against_reference(
    m: &Selector,
    index: &dyn NnIndex,
    candidates: impl Fn(&[f32]) -> Vec<u32>,
    queries: usize,
    rng: &mut TestRng,
    seen: &mut Seen,
) {
    let rows = m.rows();
    let qhats = m.qhats(queries, rng);
    let mut scratch = KnnScratch::new();
    for kept in filters(rows, rng) {
        let kept_rows: Vec<u32> = (0..rows as u32)
            .filter(|&r| kept.as_ref().is_some_and(|kept| kept[r as usize]))
            .collect();
        let mut slots = vec![u32::MAX; rows];
        for (slot, &r) in kept_rows.iter().enumerate() {
            slots[r as usize] = slot as u32;
        }
        let filter = kept.as_ref().map(|_| RowFilter {
            rows: &kept_rows,
            slots: &slots,
        });
        let random_k = below(rng, rows + 1);
        for k in [0, 1, rows.saturating_sub(1), rows, rows + 5, random_k] {
            let got = index.search(&m.set, &qhats, k, filter, &mut scratch);
            assert_eq!(got.len(), queries);
            for (qhat, got) in qhats.chunks_exact(m.dim).zip(got) {
                let want =
                    m.reference(qhat, k, candidates(qhat).into_iter(), kept.as_deref(), seen);
                let got: Vec<(u32, u32)> = got.iter().map(|&(r, sim)| (r, sim.to_bits())).collect();
                assert_eq!(got, want, "rows={rows} dim={} k={k}", m.dim);
                seen.comparisons += 1;
            }
        }
    }
}

/// The dims the selector cases cycle through: the vector kernel at chunk
/// counts 1, 2, 3, 5, 8, 12 and 16 (every `C mod 4`, the smallest and the
/// largest `C`) and the per-row fallback at 100.
const DIMS: [usize; 8] = [8, 16, 24, 40, 64, 96, 100, 128];

/// The exact scan's selector ≡ the twin, similarities compared as bits:
/// dims on the vector path, its row-count tail and the per-row fallback;
/// more queries than one block; ties at the `k`-th place inside and across
/// the filter; NaN, ±∞ and out-of-range cosines.
#[test]
fn filtered_search_is_the_sorted_list_cut_then_filtered() {
    let mut rng = TestRng::deterministic("filtered_search_is_the_sorted_list_cut_then_filtered");
    let mut seen = Seen::default();
    for case in 0..proptest::case_count() {
        let dim = DIMS[case as usize % DIMS.len()];
        let rows = 1 + below(&mut rng, 70);
        let m = Selector::new(rows, dim, &mut rng);
        let exact: Vec<u32> = (0..rows as u32)
            .filter(|&r| m.norms[r as usize] > f32::EPSILON || m.norms[r as usize].is_nan())
            .collect();
        check_against_reference(&m, &ExactScan, |_| exact.clone(), 19, &mut rng, &mut seen);
    }
    eprintln!("exact selector: {seen:?}");
    assert!(seen.ties * 8 > seen.comparisons, "{seen:?}");
    assert!(seen.ties_across_filter * 100 > seen.comparisons, "{seen:?}");
    assert!(seen.beyond_unit * 4 > seen.comparisons, "{seen:?}");
}

/// The same property through [`IvfFlat`]: probing every list is the twin
/// over every row IVF indexes (`norm > EPSILON`); probing some is the twin
/// over the rows of the probed lists — which an unfiltered search for
/// `rows` neighbors lists, since with no more candidates than `k` every
/// candidate is a member.
#[test]
fn ivf_filtered_search_is_the_sorted_list_over_the_probed_rows() {
    let mut rng =
        TestRng::deterministic("ivf_filtered_search_is_the_sorted_list_over_the_probed_rows");
    let mut seen = Seen::default();
    for case in 0..proptest::case_count() {
        let dim = DIMS[case as usize % DIMS.len()];
        let rows = 1 + below(&mut rng, 70);
        let m = Selector::new(rows, dim, &mut rng);
        let params = IvfParams {
            nlists: 1 + below(&mut rng, 8),
            nprobe: usize::MAX,
            seed: rng.next_u64(),
        };
        let exhaustive = IvfFlat::build(&m.set, params);
        let indexed: Vec<u32> = (0..rows as u32)
            .filter(|&r| m.norms[r as usize] > f32::EPSILON)
            .collect();
        check_against_reference(&m, &exhaustive, |_| indexed.clone(), 3, &mut rng, &mut seen);

        let partial = exhaustive.with_nprobe(1 + below(&mut rng, 3));
        let probed = |qhat: &[f32]| {
            let all = partial.search(&m.set, qhat, rows, None, &mut KnnScratch::new());
            all[0].iter().map(|&(r, _)| r).collect::<Vec<u32>>()
        };
        check_against_reference(&m, &partial, probed, 3, &mut rng, &mut seen);
    }
    eprintln!("ivf selector: {seen:?}");
    assert!(seen.ties * 8 > seen.comparisons, "{seen:?}");
    assert!(seen.ties_across_filter * 100 > seen.comparisons, "{seen:?}");
    assert!(seen.beyond_unit * 4 > seen.comparisons, "{seen:?}");
}

fn corpus_strategy() -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(
        proptest::collection::vec("[a-f]{1,3}", 1..12)
            .prop_map(|toks| toks.into_iter().map(|t| format!("{t}.com")).collect()),
        1..20,
    )
}

proptest! {
    #[test]
    fn vocab_counts_are_conserved(corpus in corpus_strategy()) {
        let vocab = Vocab::build(
            corpus.iter().map(|s| s.iter().map(String::as_str)),
            1,
            0.0,
        );
        // Total count equals corpus token count when min_count = 1.
        let tokens: u64 = corpus.iter().map(|s| s.len() as u64).sum();
        prop_assert_eq!(vocab.total_count(), tokens);
        // Every token resolves, and counts are ordered descending.
        for seq in &corpus {
            for t in seq {
                prop_assert!(vocab.get(t).is_some());
            }
        }
        for i in 1..vocab.len() as u32 {
            prop_assert!(vocab.count(i - 1) >= vocab.count(i));
        }
    }

    #[test]
    fn min_count_never_increases_vocab(corpus in corpus_strategy(), min_count in 1u64..5) {
        let all = Vocab::build(corpus.iter().map(|s| s.iter().map(String::as_str)), 1, 0.0);
        let filtered =
            Vocab::build(corpus.iter().map(|s| s.iter().map(String::as_str)), min_count, 0.0);
        prop_assert!(filtered.len() <= all.len());
        // Survivors keep their exact counts.
        for (idx, tok) in filtered.iter() {
            let all_idx = all.get(tok).expect("token survives in unfiltered vocab");
            prop_assert_eq!(filtered.count(idx), all.count(all_idx));
            prop_assert!(filtered.count(idx) >= min_count);
        }
    }

    #[test]
    fn negative_table_samples_stay_in_range(corpus in corpus_strategy(), draws in 0u64..500) {
        let vocab = Vocab::build(corpus.iter().map(|s| s.iter().map(String::as_str)), 1, 0.0);
        let table = NegativeTable::with_size(&vocab, 4096);
        for i in 0..draws {
            let idx = table.sample(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            prop_assert!((idx as usize) < vocab.len());
        }
    }

    #[test]
    fn keep_probabilities_are_valid(corpus in corpus_strategy(), sample in 0.0f64..0.1) {
        let vocab = Vocab::build(corpus.iter().map(|s| s.iter().map(String::as_str)), 1, sample);
        for (idx, _) in vocab.iter() {
            let p = vocab.keep_prob(idx);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn trained_vectors_are_finite_for_any_corpus(corpus in corpus_strategy()) {
        let cfg = SkipGramConfig {
            dim: 8,
            epochs: 2,
            subsample: 0.0,
            ..SkipGramConfig::default()
        };
        // Training may legitimately fail (too-small corpora); when it
        // succeeds, every vector must be finite.
        if let Ok(model) = SkipGram::train(&corpus, &cfg) {
            for i in 0..model.vocab().len() as u32 {
                for v in model.vector(i) {
                    prop_assert!(v.is_finite());
                }
            }
        }
    }

    /// The scalar reference loop and the fused SIMD kernels must land on
    /// the same weights. Both paths consume identical RNG streams (window
    /// draws, subsampling and negative sampling never depend on the
    /// kernel), so the only divergence is float summation order — bounded
    /// here to 1e-4 per weight, across *both* matrices. `dim = 17`
    /// deliberately exercises the 8-lane SIMD body plus a ragged tail.
    #[test]
    fn scalar_and_simd_kernels_agree_per_weight(
        corpus in proptest::collection::vec(
            proptest::collection::vec("[a-f]{1,3}", 2..16)
                .prop_map(|toks| toks.into_iter().map(|t| format!("{t}.com")).collect::<Vec<_>>()),
            1..8,
        ),
        seed in 1u64..1_000_000,
    ) {
        let cfg = |kernel| SkipGramConfig {
            dim: 17,
            epochs: 1,
            subsample: 0.0,
            seed,
            kernel,
            ..SkipGramConfig::default()
        };
        let scalar = SkipGram::train(&corpus, &cfg(KernelChoice::Scalar));
        let simd = SkipGram::train(&corpus, &cfg(KernelChoice::Auto));
        match (scalar, simd) {
            (Ok(s), Ok(v)) => {
                prop_assert_eq!(s.vocab().len(), v.vocab().len());
                for i in 0..s.vocab().len() as u32 {
                    for (a, b) in s.vector(i).iter().zip(v.vector(i)) {
                        prop_assert!((a - b).abs() < 1e-4, "input[{}]: {} vs {}", i, a, b);
                    }
                    for (a, b) in s.context_vector(i).iter().zip(v.context_vector(i)) {
                        prop_assert!((a - b).abs() < 1e-4, "context[{}]: {} vs {}", i, a, b);
                    }
                }
            }
            // Degenerate corpora fail identically regardless of kernel.
            (Err(_), Err(_)) => {}
            (s, v) => prop_assert!(false, "kernels disagree on trainability: {:?} vs {:?}",
                                   s.is_ok(), v.is_ok()),
        }
    }
}
