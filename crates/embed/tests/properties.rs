//! Property tests for the embedding engine's data structures.

use hostprof_embed::{KernelChoice, NegativeTable, SkipGram, SkipGramConfig, Vocab};
use proptest::prelude::*;

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
            threads: 1,
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
