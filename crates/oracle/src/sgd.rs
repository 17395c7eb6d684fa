//! Naive skipgram-with-negative-sampling trainer (§4.2).
//!
//! word2vec's update rule, transcribed for readability: plain `Vec`s,
//! sequential loops, one [`sgd_step`] per (center, target) pair. No
//! SIMD, no Hogwild threads, no sharding, no scratch reuse.
//!
//! The oracle follows the *same specified algorithm* as the production
//! trainer — identical RNG stream (xorshift64*), identical quantized
//! sigmoid table, identical unigram^0.75 negative table, identical
//! learning-rate schedule — because the differential driver pins the
//! production trainer to it bit-for-bit at one thread. Any deviation in
//! draw order or accumulation order shows up as a `train` mismatch.

/// The word2vec PRNG: xorshift64* (state must be odd-initialized by the
/// caller; the trainer uses `seed | 1`).
pub fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Map one PRNG draw to a uniform f64 in `[0, 1)` (53-bit mantissa).
pub fn unit_f64(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

/// Reference hyperparameters (mirrors `SkipGramConfig`, minus the
/// kernel/threading knobs the oracle refuses to have).
#[derive(Debug, Clone)]
pub struct SgdConfig {
    pub dim: usize,
    pub window: usize,
    pub negatives: usize,
    pub epochs: u32,
    pub learning_rate: f32,
    pub min_count: u64,
    pub subsample: f64,
    pub seed: u64,
}

/// Token table: count-descending, ties broken by token ascending.
#[derive(Debug, Clone)]
pub struct OracleVocab {
    pub tokens: Vec<String>,
    pub counts: Vec<u64>,
    /// Subsampling keep-probability per token (1.0 when disabled).
    pub keep: Vec<f64>,
    /// Sum of kept counts.
    pub total: u64,
}

impl OracleVocab {
    /// Index of `token`, by linear scan.
    pub fn index_of(&self, token: &str) -> Option<u32> {
        self.tokens
            .iter()
            .position(|t| t == token)
            .map(|i| i as u32)
    }
}

/// Count tokens, drop rare ones, order by (count desc, token asc).
pub fn build_vocab(sequences: &[Vec<String>], min_count: u64, subsample: f64) -> OracleVocab {
    let mut counts = std::collections::BTreeMap::<&str, u64>::new();
    for seq in sequences {
        for tok in seq {
            *counts.entry(tok).or_insert(0) += 1;
        }
    }
    let mut pairs: Vec<(&str, u64)> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_count.max(1))
        .collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let total: u64 = pairs.iter().map(|&(_, c)| c).sum();
    let keep = pairs
        .iter()
        .map(|&(_, c)| keep_probability(c, total, subsample))
        .collect();
    OracleVocab {
        tokens: pairs.iter().map(|&(t, _)| t.to_string()).collect(),
        counts: pairs.iter().map(|&(_, c)| c).collect(),
        keep,
        total,
    }
}

/// word2vec's subsampling keep-probability for a token of count `c`.
pub fn keep_probability(c: u64, total: u64, subsample: f64) -> f64 {
    if subsample <= 0.0 || total == 0 {
        return 1.0;
    }
    let f = c as f64 / total as f64;
    if f <= subsample {
        return 1.0;
    }
    ((subsample / f).sqrt() + subsample / f).min(1.0)
}

/// Build the unigram^0.75 negative-sampling table (same sizing rule as
/// the production `NegativeTable::from_vocab`).
pub fn unigram_table(counts: &[u64]) -> Vec<u32> {
    if counts.is_empty() {
        return Vec::new();
    }
    let size = (counts.len() * 128)
        .clamp(1 << 16, 1 << 20)
        .max(counts.len());
    let total: f64 = counts.iter().map(|&c| (c as f64).powf(0.75)).sum();
    let mut table = Vec::with_capacity(size);
    let mut idx = 0u32;
    let mut cum = (counts[0] as f64).powf(0.75) / total;
    for i in 0..size {
        table.push(idx);
        if (i + 1) as f64 / size as f64 > cum && (idx as usize) < counts.len() - 1 {
            idx += 1;
            cum += (counts[idx as usize] as f64).powf(0.75) / total;
        }
    }
    table
}

/// The quantized sigmoid: 1000 slots over `[-6, 6]`, saturating outside.
#[derive(Debug, Clone)]
pub struct SigmoidLookup {
    table: Vec<f32>,
}

impl Default for SigmoidLookup {
    fn default() -> Self {
        Self::new()
    }
}

impl SigmoidLookup {
    pub fn new() -> Self {
        let table = (0..1000)
            .map(|i| {
                let x = (i as f32 / 1000.0 * 2.0 - 1.0) * 6.0;
                let e = x.exp();
                e / (e + 1.0)
            })
            .collect();
        Self { table }
    }

    /// σ(x) from the lookup table, saturating to {0, 1} beyond ±6.
    pub fn value(&self, x: f32) -> f32 {
        if x >= 6.0 {
            1.0
        } else if x <= -6.0 {
            0.0
        } else {
            let i = ((x + 6.0) / 12.0 * 1000.0) as usize;
            self.table[i.min(999)]
        }
    }
}

/// One skipgram SGD step for a single (center, target) pair.
///
/// `h_c` is the center word's input row, `h_o` the target's context row.
/// The gradient for the center row is accumulated into `neu1e` and only
/// applied by the caller after all `negatives + 1` targets of this
/// context position have been processed — matching word2vec's (and the
/// production trainer's) update order exactly.
pub fn sgd_step(
    h_c: &[f32],
    h_o: &mut [f32],
    neu1e: &mut [f32],
    label: f32,
    lr: f32,
    sigmoid: &SigmoidLookup,
) {
    let mut f = 0.0f32;
    for d in 0..h_c.len() {
        f += h_c[d] * h_o[d];
    }
    let g = (label - sigmoid.value(f)) * lr;
    for d in 0..h_c.len() {
        neu1e[d] += g * h_o[d];
        h_o[d] += g * h_c[d];
    }
}

/// A trained reference model: both weight matrices, row-major.
#[derive(Debug, Clone)]
pub struct OracleModel {
    pub vocab: OracleVocab,
    pub dim: usize,
    /// Input (center-word) embeddings, `vocab.tokens.len() × dim`.
    pub input: Vec<f32>,
    /// Context (output-word) embeddings, same shape.
    pub context: Vec<f32>,
}

impl OracleModel {
    /// Input row of token index `idx`.
    pub fn input_row(&self, idx: u32) -> &[f32] {
        &self.input[idx as usize * self.dim..(idx as usize + 1) * self.dim]
    }

    /// Context row of token index `idx`.
    pub fn context_row(&self, idx: u32) -> &[f32] {
        &self.context[idx as usize * self.dim..(idx as usize + 1) * self.dim]
    }
}

/// Train a reference skipgram model. `None` mirrors the production
/// trainer's error cases: empty vocabulary after min-count filtering, or
/// no sequence with two in-vocabulary tokens.
pub fn train(sequences: &[Vec<String>], cfg: &SgdConfig) -> Option<OracleModel> {
    let vocab = build_vocab(sequences, cfg.min_count, cfg.subsample);
    if vocab.tokens.is_empty() {
        return None;
    }
    let index: std::collections::HashMap<&str, u32> = vocab
        .tokens
        .iter()
        .enumerate()
        .map(|(i, t)| (t.as_str(), i as u32))
        .collect();
    let encoded: Vec<Vec<u32>> = sequences
        .iter()
        .map(|s| {
            s.iter()
                .filter_map(|t| index.get(t.as_str()).copied())
                .collect()
        })
        .filter(|s: &Vec<u32>| s.len() >= 2)
        .collect();
    if encoded.is_empty() {
        return None;
    }

    let rows = vocab.tokens.len();
    let dim = cfg.dim;

    // Weight init: one xorshift64* stream seeded `seed | 1` fills the
    // input matrix with (u - 0.5) / dim; context starts at zero.
    let mut init_state = cfg.seed | 1;
    let mut input = Vec::with_capacity(rows * dim);
    for _ in 0..rows * dim {
        let u = unit_f64(xorshift64star(&mut init_state)) as f32;
        input.push((u - 0.5) / dim as f32);
    }
    let mut context = vec![0.0f32; rows * dim];

    let table = unigram_table(&vocab.counts);
    sgd_pass(&vocab, dim, &mut input, &mut context, &encoded, &table, cfg);

    Some(OracleModel {
        vocab,
        dim,
        input,
        context,
    })
}

/// One full SGD pass over pre-encoded sequences: worker 0's RNG stream,
/// the linear learning-rate decay updated every 10k scheduled tokens, the
/// randomly shrunken window, `negatives + 1` targets per context position
/// — exactly the production trainer's op sequence at one thread. Shared
/// by initial [`train`] and the online [`crate::update`] path, which
/// resumes from live weights with a (possibly stale) carried-over table.
pub fn sgd_pass(
    vocab: &OracleVocab,
    dim: usize,
    input: &mut [f32],
    context: &mut [f32],
    encoded: &[Vec<u32>],
    table: &[u32],
    cfg: &SgdConfig,
) {
    if table.is_empty() {
        return;
    }
    let sigmoid = SigmoidLookup::new();

    let total_tokens: u64 = encoded.iter().map(|s| s.len() as u64).sum();
    let planned = (total_tokens * cfg.epochs as u64).max(1);

    let mut rng = (cfg.seed ^ 0x9e37_79b9u64) | 1;
    let mut lr = cfg.learning_rate;
    let mut since_lr_update = 0u64;
    let mut processed = 0u64;

    for _epoch in 0..cfg.epochs {
        for seq in encoded {
            // Frequent-token subsampling (draws one uniform per token
            // whose keep-probability is below 1).
            let toks: Vec<u32> = if cfg.subsample > 0.0 {
                seq.iter()
                    .copied()
                    .filter(|&t| {
                        let p = vocab.keep[t as usize];
                        p >= 1.0 || unit_f64(xorshift64star(&mut rng)) < p
                    })
                    .collect()
            } else {
                seq.clone()
            };

            since_lr_update += seq.len() as u64;
            if since_lr_update >= 10_000 {
                processed += since_lr_update;
                since_lr_update = 0;
                let frac = processed as f32 / planned as f32;
                lr = (cfg.learning_rate * (1.0 - frac)).max(cfg.learning_rate * 1e-4);
            }

            if toks.len() < 2 {
                continue;
            }
            for c in 0..toks.len() {
                // Randomly shrunken window, as in word2vec.
                let b = (xorshift64star(&mut rng) % cfg.window as u64) as usize;
                let lo = c.saturating_sub(cfg.window - b);
                let hi = (c + cfg.window - b).min(toks.len() - 1);
                for j in lo..=hi {
                    if j == c {
                        continue;
                    }
                    let center = toks[c] as usize;
                    let ctx_word = toks[j];
                    let mut neu1e = vec![0.0f32; dim];
                    for k in 0..=cfg.negatives {
                        let (target, label) = if k == 0 {
                            (ctx_word as usize, 1.0f32)
                        } else {
                            match sample_excluding(table, &mut rng, ctx_word) {
                                Some(t) => (t as usize, 0.0f32),
                                None => continue,
                            }
                        };
                        sgd_step(
                            &input[center * dim..(center + 1) * dim],
                            &mut context[target * dim..(target + 1) * dim],
                            &mut neu1e,
                            label,
                            lr,
                            &sigmoid,
                        );
                    }
                    for d in 0..dim {
                        input[center * dim + d] += neu1e[d];
                    }
                }
            }
        }
    }
}

/// Draw a negative sample that is not `exclude`, giving up after 32
/// redraws (same bound as the production table).
fn sample_excluding(table: &[u32], rng: &mut u64, exclude: u32) -> Option<u32> {
    for _ in 0..32 {
        let idx = table[(xorshift64star(rng) % table.len() as u64) as usize];
        if idx != exclude {
            return Some(idx);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostprof_embed::{KernelChoice, SkipGram, SkipGramConfig};

    fn corpus() -> Vec<Vec<String>> {
        // Small, repetitive, with a rare token that min_count=2 drops.
        let mut seqs = Vec::new();
        for i in 0..12u32 {
            let mut s: Vec<String> = (0..10)
                .map(|j| format!("host{}.example", (i + j) % 7))
                .collect();
            if i == 5 {
                s.push("rare.example".into());
            }
            seqs.push(s);
        }
        seqs
    }

    #[test]
    fn vocab_matches_production_order_and_counts() {
        let seqs = corpus();
        let oracle = build_vocab(&seqs, 2, 0.0);
        let prod =
            hostprof_embed::Vocab::build(seqs.iter().map(|s| s.iter().map(|t| t.as_str())), 2, 0.0);
        assert_eq!(oracle.tokens.len(), prod.len());
        for i in 0..prod.len() {
            assert_eq!(oracle.tokens[i], prod.token(i as u32));
            assert_eq!(oracle.counts[i], prod.count(i as u32));
        }
        assert!(!oracle.tokens.iter().any(|t| t == "rare.example"));
    }

    #[test]
    fn sigmoid_midpoint_is_half() {
        let s = SigmoidLookup::new();
        assert!((s.value(0.0) - 0.5).abs() < 1e-2);
        assert_eq!(s.value(7.0), 1.0);
        assert_eq!(s.value(-7.0), 0.0);
    }

    #[test]
    fn oracle_trainer_is_bit_identical_to_single_thread_production() {
        let seqs = corpus();
        let cfg = SgdConfig {
            dim: 3,
            window: 2,
            negatives: 3,
            epochs: 2,
            learning_rate: 0.025,
            min_count: 1,
            subsample: 0.0,
            seed: 0x5eed_cafe,
        };
        let oracle = train(&seqs, &cfg).expect("oracle train");

        let prod_cfg = SkipGramConfig {
            dim: 3,
            window: 2,
            negatives: 3,
            epochs: 2,
            learning_rate: 0.025,
            min_count: 1,
            subsample: 0.0,
            threads: 1,
            seed: 0x5eed_cafe,
            kernel: KernelChoice::Scalar,
        };
        let prod = SkipGram::train(&seqs, &prod_cfg).expect("production train");

        assert_eq!(oracle.vocab.tokens.len(), prod.vocab().len());
        for idx in 0..prod.vocab().len() as u32 {
            assert_eq!(oracle.vocab.tokens[idx as usize], prod.vocab().token(idx));
            assert_eq!(
                oracle.input_row(idx),
                prod.vector(idx),
                "input row {idx} diverged"
            );
            assert_eq!(
                oracle.context_row(idx),
                prod.context_vector(idx),
                "context row {idx} diverged"
            );
        }
    }

    #[test]
    fn subsampling_path_is_also_bit_identical() {
        let seqs = corpus();
        let cfg = SgdConfig {
            dim: 3,
            window: 2,
            negatives: 2,
            epochs: 1,
            learning_rate: 0.025,
            min_count: 1,
            subsample: 0.05,
            seed: 0x1234,
        };
        let oracle = train(&seqs, &cfg).expect("oracle train");
        let prod_cfg = SkipGramConfig {
            dim: 3,
            window: 2,
            negatives: 2,
            epochs: 1,
            learning_rate: 0.025,
            min_count: 1,
            subsample: 0.05,
            threads: 1,
            seed: 0x1234,
            kernel: KernelChoice::Scalar,
        };
        let prod = SkipGram::train(&seqs, &prod_cfg).expect("production train");
        for idx in 0..prod.vocab().len() as u32 {
            assert_eq!(oracle.input_row(idx), prod.vector(idx));
        }
    }

    #[test]
    fn empty_and_degenerate_corpora_mirror_production_errors() {
        let cfg = SgdConfig {
            dim: 3,
            window: 2,
            negatives: 2,
            epochs: 1,
            learning_rate: 0.025,
            min_count: 2,
            subsample: 0.0,
            seed: 1,
        };
        // Every token unique → min_count=2 empties the vocabulary.
        let seqs: Vec<Vec<String>> = vec![(0..5).map(|i| format!("once{i}.example")).collect()];
        assert!(train(&seqs, &cfg).is_none());
        assert!(train(&[], &cfg).is_none());
    }
}
