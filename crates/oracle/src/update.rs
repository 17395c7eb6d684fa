//! Naive online-update reference (DESIGN.md §14).
//!
//! Mirrors the production `SkipGram::update` path step by step, in the
//! plainest possible Rust: linear-scan vocabulary growth, a sequential
//! weight-matrix extension, an explicitly tracked negative-table rebuild
//! policy, and a resumed [`crate::sgd::sgd_pass`] from the live weights.
//! At one production thread with the scalar kernel the two paths must be
//! bit-identical — any divergence in id assignment, init stream, rebuild
//! decision, or SGD op order is a [`Stage::Update`] mismatch.
//!
//! The invariants this module pins (and the proptests replay):
//!
//! * **Id stability** — a token id handed out once never moves; growth
//!   only appends, ordered (count desc, token asc) within the batch.
//! * **Replayable init** — appended input rows draw from a stream keyed
//!   by `(seed, old vocabulary length)`, so re-running the same update
//!   reproduces the same bits while successive growths never share a
//!   stream.
//! * **Lazy table rebuild** — the unigram^0.75 table is rebuilt only when
//!   the vocabulary length changed or the kept-token mass grew by more
//!   than 25%; in between, SGD keeps sampling from the stale table, and
//!   both implementations must go stale *together*.

use crate::sgd::{
    keep_probability, sgd_pass, train, unigram_table, unit_f64, xorshift64star, OracleModel,
    OracleVocab, SgdConfig,
};
use crate::{DiffReport, Mismatch, Stage};

/// Grow `vocab` in place from a batch of sequences: occurrences of known
/// tokens bump counts, fresh tokens meeting `min_count` append in
/// (count desc, token asc) order, and every keep-probability is
/// recomputed against the new total. Returns the number of appended
/// tokens. Existing indices are never reassigned.
pub fn grow_vocab(
    vocab: &mut OracleVocab,
    sequences: &[Vec<String>],
    min_count: u64,
    subsample: f64,
) -> usize {
    let mut fresh = std::collections::BTreeMap::<&str, u64>::new();
    for seq in sequences {
        for tok in seq {
            if let Some(i) = vocab.index_of(tok) {
                vocab.counts[i as usize] += 1;
                vocab.total += 1;
            } else {
                *fresh.entry(tok).or_insert(0) += 1;
            }
        }
    }
    let mut pairs: Vec<(&str, u64)> = fresh
        .into_iter()
        .filter(|&(_, c)| c >= min_count.max(1))
        .collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let appended = pairs.len();
    for (tok, c) in pairs {
        vocab.tokens.push(tok.to_string());
        vocab.counts.push(c);
        vocab.keep.push(1.0);
        vocab.total += c;
    }
    for i in 0..vocab.tokens.len() {
        vocab.keep[i] = keep_probability(vocab.counts[i], vocab.total, subsample);
    }
    appended
}

/// The negative table plus the vocabulary snapshot it was built against,
/// for the rebuild policy.
#[derive(Debug, Clone)]
struct OracleTable {
    slots: Vec<u32>,
    built_len: usize,
    built_total: u64,
}

impl OracleTable {
    fn build(vocab: &OracleVocab) -> Self {
        Self {
            slots: unigram_table(&vocab.counts),
            built_len: vocab.tokens.len(),
            built_total: vocab.total,
        }
    }

    /// Same policy as the production `NegativeTable::needs_rebuild`:
    /// stale once the vocabulary length changed or the total kept mass
    /// grew past 5/4 of what the table was built from.
    fn needs_rebuild(&self, vocab: &OracleVocab) -> bool {
        vocab.tokens.len() != self.built_len
            || vocab.total.saturating_mul(4) > self.built_total.saturating_mul(5)
    }
}

/// What one oracle update did (mirrors the production `UpdateReport`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleUpdateReport {
    pub appended_tokens: usize,
    pub trained_sequences: usize,
    pub table_rebuilt: bool,
}

/// A reference model that accepts online updates: the trained
/// [`OracleModel`] plus the carried-over negative table. Like the
/// production trainer, the table starts unbuilt after initial training,
/// so the first update always rebuilds it.
#[derive(Debug, Clone)]
pub struct OracleOnline {
    pub model: OracleModel,
    pub cfg: SgdConfig,
    table: Option<OracleTable>,
}

impl OracleOnline {
    /// Initial training; `None` mirrors the production error cases.
    pub fn train(sequences: &[Vec<String>], cfg: &SgdConfig) -> Option<Self> {
        Some(Self {
            model: train(sequences, cfg)?,
            cfg: cfg.clone(),
            table: None,
        })
    }

    /// One online update: grow the vocabulary, extend the weight
    /// matrices, rebuild the table if the policy demands it, resume SGD
    /// from the live weights.
    pub fn update(&mut self, sequences: &[Vec<String>]) -> OracleUpdateReport {
        let old_len = self.model.vocab.tokens.len();
        let appended = grow_vocab(
            &mut self.model.vocab,
            sequences,
            self.cfg.min_count,
            self.cfg.subsample,
        );
        if appended > 0 {
            let dim = self.cfg.dim;
            // The extension stream: keyed by (seed, old length) so each
            // growth draws fresh bits but the same growth replays them.
            let mut state =
                (self.cfg.seed ^ (old_len as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
            for _ in 0..appended * dim {
                let u = unit_f64(xorshift64star(&mut state)) as f32;
                self.model.input.push((u - 0.5) / dim as f32);
            }
            self.model.context.resize((old_len + appended) * dim, 0.0);
        }
        let table_rebuilt = self
            .table
            .as_ref()
            .is_none_or(|t| t.needs_rebuild(&self.model.vocab));
        if table_rebuilt {
            self.table = Some(OracleTable::build(&self.model.vocab));
        }
        let encoded: Vec<Vec<u32>> = sequences
            .iter()
            .map(|s| {
                s.iter()
                    .filter_map(|t| self.model.vocab.index_of(t))
                    .collect()
            })
            .filter(|s: &Vec<u32>| s.len() >= 2)
            .collect();
        let report = OracleUpdateReport {
            appended_tokens: appended,
            trained_sequences: encoded.len(),
            table_rebuilt,
        };
        if encoded.is_empty() {
            return report;
        }
        let table = self.table.as_ref().expect("table built above");
        sgd_pass(
            &self.model.vocab,
            self.cfg.dim,
            &mut self.model.input,
            &mut self.model.context,
            &encoded,
            &table.slots,
            &self.cfg,
        );
        report
    }
}

/// Run {initial train → update batches} through the oracle and the
/// production trainer (scalar kernel) side by side and diff
/// after every stage: vocabulary structure, both weight matrices bit for
/// bit, and the rebuild decision. Every mismatch is attributed to
/// [`Stage::Update`] with the batch index in the item, so a proptest
/// failure names the first diverging update. Returns an empty report when
/// the initial corpus is degenerate for both implementations.
pub fn diff_online(
    initial: &[Vec<String>],
    batches: &[Vec<Vec<String>>],
    cfg: &SgdConfig,
) -> DiffReport {
    use hostprof_embed::{KernelChoice, SkipGram, SkipGramConfig};

    let mut report = DiffReport::default();
    let prod_cfg = SkipGramConfig {
        dim: cfg.dim,
        window: cfg.window,
        negatives: cfg.negatives,
        epochs: cfg.epochs as usize,
        learning_rate: cfg.learning_rate,
        min_count: cfg.min_count,
        subsample: cfg.subsample,
        seed: cfg.seed,
        kernel: KernelChoice::Scalar,
    };
    let oracle = OracleOnline::train(initial, cfg);
    let prod = SkipGram::train(initial, &prod_cfg);
    let (mut oracle, mut prod) = match (oracle, prod) {
        (Some(o), Ok(p)) => (o, p),
        (o, p) => {
            if o.is_some() != p.is_ok() {
                report.check_failed(Mismatch {
                    stage: Stage::Update,
                    item: "initial".into(),
                    max_abs: 0.0,
                    max_ulp: 0,
                    detail: "one implementation rejected the initial corpus".into(),
                });
            } else {
                report.check_ok();
            }
            return report;
        }
    };

    diff_models(&mut report, "initial", &oracle.model, &prod);
    for (b, batch) in batches.iter().enumerate() {
        let item = format!("batch{b}");
        let o = oracle.update(batch);
        let p = prod.update(batch);
        if o.appended_tokens != p.appended_tokens
            || o.trained_sequences != p.trained_sequences
            || o.table_rebuilt != p.table_rebuilt
        {
            report.check_failed(Mismatch {
                stage: Stage::Update,
                item: item.clone(),
                max_abs: 0.0,
                max_ulp: 0,
                detail: format!(
                    "report diverged: oracle (+{} tokens, {} seqs, rebuilt={}) vs \
                     production (+{} tokens, {} seqs, rebuilt={})",
                    o.appended_tokens,
                    o.trained_sequences,
                    o.table_rebuilt,
                    p.appended_tokens,
                    p.trained_sequences,
                    p.table_rebuilt
                ),
            });
        } else {
            report.check_ok();
        }
        diff_models(&mut report, &item, &oracle.model, &prod);
    }
    report
}

/// Bit-compare vocabulary order/counts and both weight matrices.
fn diff_models(
    report: &mut DiffReport,
    item: &str,
    oracle: &OracleModel,
    prod: &hostprof_embed::SkipGram,
) {
    if oracle.vocab.tokens.len() != prod.vocab().len() {
        report.check_failed(Mismatch {
            stage: Stage::Update,
            item: format!("{item}/vocab"),
            max_abs: 0.0,
            max_ulp: 0,
            detail: format!(
                "vocabulary size {} vs {}",
                oracle.vocab.tokens.len(),
                prod.vocab().len()
            ),
        });
        return;
    }
    report.check_ok();
    for idx in 0..prod.vocab().len() as u32 {
        let tok = prod.vocab().token(idx);
        if oracle.vocab.tokens[idx as usize] != tok
            || oracle.vocab.counts[idx as usize] != prod.vocab().count(idx)
        {
            report.check_failed(Mismatch {
                stage: Stage::Update,
                item: format!("{item}/vocab[{idx}]"),
                max_abs: 0.0,
                max_ulp: 0,
                detail: format!(
                    "id {idx}: oracle {}×{} vs production {}×{}",
                    oracle.vocab.tokens[idx as usize],
                    oracle.vocab.counts[idx as usize],
                    tok,
                    prod.vocab().count(idx)
                ),
            });
            continue;
        }
        report.check_ok();
        for (name, ours, theirs) in [
            ("input", oracle.input_row(idx), prod.vector(idx)),
            ("context", oracle.context_row(idx), prod.context_vector(idx)),
        ] {
            let delta = crate::diff::compare_f32_slices(ours, theirs);
            if delta.identical() {
                report.check_ok();
            } else {
                report.check_failed(Mismatch {
                    stage: Stage::Update,
                    item: format!("{item}/{name}[{tok}]"),
                    max_abs: delta.max_abs,
                    max_ulp: delta.max_ulp,
                    detail: format!("weight row diverged at dim {}", delta.worst_index),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgd::build_vocab;
    use hostprof_embed::{KernelChoice, SkipGram, SkipGramConfig};

    fn cfg(seed: u64) -> SgdConfig {
        SgdConfig {
            dim: 3,
            window: 2,
            negatives: 3,
            epochs: 2,
            learning_rate: 0.025,
            min_count: 1,
            subsample: 0.0,
            seed,
        }
    }

    fn day(offset: u32, hosts: usize) -> Vec<Vec<String>> {
        (0..8u32)
            .map(|i| {
                (0..6)
                    .map(|j| format!("host{}.example", (offset + i + j) % hosts as u32))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn grow_matches_production_ids_counts_and_keep() {
        let base = day(0, 5);
        let batch = day(3, 9); // introduces host5..host8
        let mut oracle = build_vocab(&base, 1, 0.01);
        let mut prod = hostprof_embed::Vocab::build(
            base.iter().map(|s| s.iter().map(|t| t.as_str())),
            1,
            0.01,
        );
        let old: Vec<String> = oracle.tokens.clone();

        let oa = grow_vocab(&mut oracle, &batch, 1, 0.01);
        let pa = prod.grow(batch.iter().map(|s| s.iter().map(|t| t.as_str())), 1, 0.01);
        assert_eq!(oa, pa);
        assert!(oa > 0, "batch should introduce new hostnames");
        assert_eq!(oracle.tokens.len(), prod.len());
        assert_eq!(oracle.total, prod.total_count());
        for i in 0..prod.len() as u32 {
            assert_eq!(oracle.tokens[i as usize], prod.token(i));
            assert_eq!(oracle.counts[i as usize], prod.count(i));
            assert_eq!(oracle.keep[i as usize], prod.keep_prob(i));
        }
        // Id stability: every pre-growth token kept its index.
        for (i, tok) in old.iter().enumerate() {
            assert_eq!(&oracle.tokens[i], tok, "id {i} moved during growth");
        }
    }

    #[test]
    fn oracle_update_is_bit_identical_to_single_thread_production() {
        let cfg = cfg(0x5eed_071e);
        let mut oracle = OracleOnline::train(&day(0, 5), &cfg).expect("oracle train");
        let prod_cfg = SkipGramConfig {
            dim: cfg.dim,
            window: cfg.window,
            negatives: cfg.negatives,
            epochs: cfg.epochs as usize,
            learning_rate: cfg.learning_rate,
            min_count: cfg.min_count,
            subsample: cfg.subsample,
            seed: cfg.seed,
            kernel: KernelChoice::Scalar,
        };
        let mut prod = SkipGram::train(&day(0, 5), &prod_cfg).expect("production train");

        for (b, batch) in [day(2, 7), day(5, 11), day(1, 11)].iter().enumerate() {
            let o = oracle.update(batch);
            let p = prod.update(batch);
            assert_eq!(o.appended_tokens, p.appended_tokens, "batch {b}");
            assert_eq!(o.trained_sequences, p.trained_sequences, "batch {b}");
            assert_eq!(o.table_rebuilt, p.table_rebuilt, "batch {b}");
            for idx in 0..prod.vocab().len() as u32 {
                assert_eq!(
                    oracle.model.input_row(idx),
                    prod.vector(idx),
                    "batch {b}: input row {idx} diverged"
                );
                assert_eq!(
                    oracle.model.context_row(idx),
                    prod.context_vector(idx),
                    "batch {b}: context row {idx} diverged"
                );
            }
        }
    }

    #[test]
    fn rebuild_policy_goes_stale_together() {
        let cfg = cfg(99);
        let mut oracle = OracleOnline::train(&day(0, 6), &cfg).expect("oracle train");
        // First update: table was never built online, so it must rebuild
        // regardless of growth.
        let same_vocab = day(0, 6);
        let r1 = oracle.update(&same_vocab);
        assert!(r1.table_rebuilt, "first online update must build a table");
        assert_eq!(r1.appended_tokens, 0);
        // Tiny same-vocabulary batch: < 25% mass growth, no new ids → the
        // stale table is kept.
        let tiny: Vec<Vec<String>> = vec![day(0, 6)[0].clone()];
        let r2 = oracle.update(&tiny);
        assert!(!r2.table_rebuilt, "policy must keep the table");
        // Growth forces a rebuild.
        let r3 = oracle.update(&day(4, 9));
        assert!(r3.appended_tokens > 0);
        assert!(r3.table_rebuilt, "new ids must rebuild the table");
    }

    #[test]
    fn diff_online_is_clean_and_detects_planted_divergence() {
        let cfg = cfg(7);
        let batches = [day(2, 8), day(6, 10)];
        let report = diff_online(&day(0, 5), &batches, &cfg);
        assert!(report.is_clean(), "{}", report.summary());
        assert!(report.items_checked > 0);

        // Plant a seed mismatch: the diverging weights must be caught and
        // attributed to the update stage.
        let mut other = cfg.clone();
        other.seed ^= 1 << 20;
        let oracle = OracleOnline::train(&day(0, 5), &other).expect("train");
        let prod_cfg = SkipGramConfig {
            seed: cfg.seed,
            kernel: KernelChoice::Scalar,
            dim: cfg.dim,
            window: cfg.window,
            negatives: cfg.negatives,
            epochs: cfg.epochs as usize,
            learning_rate: cfg.learning_rate,
            min_count: cfg.min_count,
            subsample: cfg.subsample,
        };
        let prod = SkipGram::train(&day(0, 5), &prod_cfg).expect("train");
        let mut report = DiffReport::default();
        diff_models(&mut report, "planted", &oracle.model, &prod);
        assert!(!report.is_clean());
        assert!(report.mismatches_in(Stage::Update) > 0);
    }
}
