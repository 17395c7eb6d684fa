//! SKIPGRAM training (SGD with negative sampling, optional Hogwild).
//!
//! Implements the paper's Eq. 2: for each window position, maximize
//! `log σ(h_cᵀ h'_o)` for the observed (center, context) pair and
//! `log σ(−h_cᵀ h'_k)` for `K` negatives drawn from the powered unigram
//! distribution. All parameters are learned with SGD under a linearly
//! decaying learning rate, exactly as in word2vec/GENSIM.
//!
//! # Parallelism
//!
//! With `threads = 1` training is bit-deterministic. With more threads we
//! use **Hogwild** (Recht et al.): workers update the shared weight
//! matrices without locks. The data races are benign — each update touches
//! a handful of rows, and SGD tolerates the occasional lost write; this is
//! the same strategy as the reference word2vec and GENSIM C paths, and it
//! is what lets the paper claim line-rate scalability. The `unsafe` is
//! confined to the `SharedWeights` accessor.

use crate::config::KernelChoice;
use crate::config::SkipGramConfig;
use crate::embedding::EmbeddingSet;
use crate::sigmoid::SigmoidTable;
use crate::simd;
use crate::table::NegativeTable;
use crate::vocab::Vocab;
use serde::Serialize;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Throughput and schedule-coverage record of the last training run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TrainStats {
    /// Tokens the LR schedule was planned over (`corpus tokens × epochs`).
    pub planned_tokens: u64,
    /// Tokens actually flushed into the decay schedule. Equal to
    /// `planned_tokens` — the trainer flushes every worker's trailing
    /// remainder — and asserted so by the test-suite.
    pub processed_tokens: u64,
    /// Wall-clock training time.
    pub elapsed_secs: f64,
    /// Workers actually used.
    pub threads: usize,
    /// Whether the AVX2+FMA fused kernels ran (false: scalar or the
    /// portable SIMD fallback).
    pub simd_accelerated: bool,
}

impl TrainStats {
    /// Training throughput in tokens/second.
    pub fn tokens_per_sec(&self) -> f64 {
        self.processed_tokens as f64 / self.elapsed_secs.max(1e-12)
    }

    /// Fraction of planned tokens the LR decay schedule saw (1.0 when the
    /// trailing remainders were flushed correctly).
    pub fn lr_coverage(&self) -> f64 {
        self.processed_tokens as f64 / self.planned_tokens.max(1) as f64
    }
}

/// Contiguous, token-count-balanced chunk boundaries over per-sequence
/// token counts: greedy accumulation toward ~8 chunks per worker, so the
/// work-stealing cursor has enough granularity to absorb skewed sequence
/// lengths without the chunk-claim overhead dominating.
fn balanced_chunk_ranges<I>(token_counts: I, threads: usize) -> Vec<Range<usize>>
where
    I: ExactSizeIterator<Item = usize> + Clone,
{
    let n = token_counts.len();
    if n == 0 {
        return Vec::new();
    }
    let total: usize = token_counts.clone().sum();
    // Size chunks off the mass *excluding* the single largest sequence: a
    // dominant sequence gets a chunk of its own no matter what, and must
    // not inflate the target so far that the remaining sequences collapse
    // into too few chunks for stealing to balance.
    let largest = token_counts.clone().max().unwrap_or(0);
    let target = ((total - largest) / (threads.max(1) * 8)).max(1);
    let mut out = Vec::new();
    let mut start = 0;
    let mut acc = 0usize;
    for (i, t) in token_counts.enumerate() {
        acc += t;
        if acc >= target {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        out.push(start..n);
    }
    out
}

/// A trained (or in-training) skip-gram model.
#[derive(Debug)]
pub struct SkipGram {
    config: SkipGramConfig,
    vocab: Vocab,
    /// Input (center) matrix, row-major `|V| × d`.
    input: Vec<f32>,
    /// Context (output) matrix, row-major `|V| × d`.
    context: Vec<f32>,
    /// Stats of the most recent SGD pass.
    stats: TrainStats,
    /// Negative table carried across [`SkipGram::update`] calls so the
    /// rebuild policy ([`NegativeTable::needs_rebuild`]) has something to
    /// age. `None` until the first update.
    table: Option<NegativeTable>,
}

/// A model ready for its SGD pass ([`SkipGram::prepare`]): vocabulary,
/// initialized weights, the encoded corpus and its negative table, all
/// allocated on the thread that prepared it. [`Self::sgd`] allocates next
/// to nothing, so it can run on another thread while every large buffer
/// stays in the preparing thread's allocator arena (DESIGN.md §9.3).
#[derive(Debug)]
pub struct Prepared {
    model: SkipGram,
    sequences: Vec<Vec<u32>>,
    table: NegativeTable,
}

impl Prepared {
    /// Run the SGD pass over the prepared corpus, once: a second call
    /// would train a second pass on the same weights.
    pub fn sgd(&mut self) {
        self.model.stats = self.model.run_sgd_with(&self.sequences, &self.table);
    }

    /// The trained model; the corpus and the negative table are dropped
    /// (the first [`SkipGram::update`] builds its own table, as it always
    /// has).
    pub fn into_model(self) -> SkipGram {
        self.model
    }

    /// [`Self::sgd`], then [`Self::into_model`].
    pub fn fit(mut self) -> SkipGram {
        self.sgd();
        self.into_model()
    }
}

/// What one [`SkipGram::update`] call did.
#[derive(Debug, Clone, Copy)]
pub struct UpdateReport {
    /// Tokens appended to the vocabulary (old ids never moved).
    pub appended_tokens: usize,
    /// Sequences with ≥ 2 in-vocabulary tokens that SGD actually saw.
    pub trained_sequences: usize,
    /// Whether the negative table was rebuilt this call.
    pub table_rebuilt: bool,
    /// Stats of the incremental SGD pass (zeroed when nothing trained).
    pub stats: TrainStats,
}

/// Raw-pointer view of the two weight matrices for Hogwild workers.
///
/// Safety contract: rows are only accessed through [`SharedWeights::row`]
/// within the matrix bounds, and the underlying vectors outlive the worker
/// scope (guaranteed by `crossbeam::thread::scope`). Concurrent unsynchronized
/// writes are *intentional* (Hogwild).
struct SharedWeights {
    input: *mut f32,
    context: *mut f32,
    rows: usize,
    dim: usize,
}

unsafe impl Sync for SharedWeights {}

impl SharedWeights {
    #[inline]
    /// Mutable slice of one row of the input matrix.
    ///
    /// # Safety
    /// `idx < rows`; aliasing across threads is accepted per Hogwild —
    /// handing out `&mut` from `&self` is the whole point of the lock-free
    /// scheme, hence the lint opt-out.
    #[allow(clippy::mut_from_ref)]
    unsafe fn input_row(&self, idx: usize) -> &mut [f32] {
        debug_assert!(idx < self.rows);
        std::slice::from_raw_parts_mut(self.input.add(idx * self.dim), self.dim)
    }

    #[inline]
    /// Mutable slice of one row of the context matrix (same contract).
    #[allow(clippy::mut_from_ref)]
    unsafe fn context_row(&self, idx: usize) -> &mut [f32] {
        debug_assert!(idx < self.rows);
        std::slice::from_raw_parts_mut(self.context.add(idx * self.dim), self.dim)
    }
}

/// xorshift64* — the cheap per-worker RNG word2vec uses in its hot loop.
/// Crate-visible so the corpus reservoir draws from the same stream family.
#[inline]
pub(crate) fn next_random(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Run `work(range, out)` on `workers` contiguous shares of `out`, each
/// with the index range of its share: all but the last on scoped threads,
/// the last on the calling thread, which would otherwise only wait; a
/// worker's panic is re-raised with its own payload. The workspace's one
/// fan-out: training's workers, the IVF assignment and `BatchProfiler`.
pub fn run_shares<T, F>(workers: usize, out: &mut [T], work: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    let n = out.len();
    if n == 0 {
        return;
    }
    let share = n.div_ceil(workers.clamp(1, n));
    let last_start = (n - 1) / share * share;
    let (spawned, last) = out.split_at_mut(last_start);
    if let Err(payload) = crossbeam::thread::scope(|scope| {
        for (i, slots) in spawned.chunks_mut(share).enumerate() {
            let work = &work;
            scope.spawn(move |_| work(i * share..(i + 1) * share, slots));
        }
        work(last_start..n, last);
    }) {
        // Re-raise the worker's own panic payload rather than masking it
        // behind a generic message.
        std::panic::resume_unwind(payload);
    }
}

/// Run `worker(tid)` for every `tid < n_threads`, one share each (so one
/// thread runs inline: no spawn, deterministic).
fn run_workers<F: Fn(usize) + Sync>(n_threads: usize, worker: F) {
    run_shares(n_threads, &mut vec![(); n_threads], |tids, _| {
        worker(tids.start)
    });
}

/// Per-worker mutable training state: RNG stream, learning rate, the
/// un-flushed token count, and the reusable hot-loop buffers.
struct WorkerState {
    rng: u64,
    lr: f32,
    since_lr_update: u64,
    neu1e: Vec<f32>,
    kept: Vec<u32>,
    /// SIMD-path staging: (context-row pointer, label) for one pair's
    /// positive + negatives, handed to [`simd::train_pair`] as a batch.
    /// Raw pointers are safe to hold here because each `WorkerState` is
    /// built and dropped inside its own worker thread.
    samples: Vec<(*mut f32, f32)>,
}

impl WorkerState {
    fn new(config: &SkipGramConfig, tid: usize) -> Self {
        Self {
            rng: config.seed ^ (0x9e37_79b9u64.wrapping_mul(tid as u64 + 1)) | 1,
            lr: config.learning_rate,
            since_lr_update: 0,
            neu1e: vec![0f32; config.dim],
            kept: Vec::new(),
            samples: Vec::with_capacity(config.negatives + 1),
        }
    }
}

/// Everything the workers share read-only (plus the Hogwild weight view
/// and the atomic progress counter). One instance per `run_sgd_with` call.
struct TrainCtx<'a> {
    shared: SharedWeights,
    table: &'a NegativeTable,
    sigmoid: &'a SigmoidTable,
    keep_probs: &'a [f64],
    config: &'a SkipGramConfig,
    planned: u64,
    processed: AtomicU64,
}

impl TrainCtx<'_> {
    /// Train on one encoded sequence: subsample, walk the dynamic windows,
    /// and apply the positive + K-negative updates with the configured
    /// kernel.
    fn train_sequence(&self, st: &mut WorkerState, seq: &[u32]) {
        let config = self.config;
        let WorkerState {
            rng,
            lr,
            since_lr_update,
            neu1e,
            kept,
            samples,
        } = st;
        // Frequent-token subsampling (reusing one buffer keeps the hot
        // loop allocation-free). Disabled subsampling makes the filter the
        // identity — and draws no RNG — so the per-token copy is skipped
        // without perturbing the random stream.
        let toks: &[u32] = if config.subsample > 0.0 {
            kept.clear();
            kept.extend(seq.iter().copied().filter(|&w| {
                let p = self.keep_probs[w as usize];
                p >= 1.0 || {
                    let u = (next_random(rng) >> 11) as f64 / (1u64 << 53) as f64;
                    u < p
                }
            }));
            kept
        } else {
            seq
        };
        *since_lr_update += seq.len() as u64;
        if *since_lr_update >= 10_000 {
            let done = self
                .processed
                .fetch_add(*since_lr_update, Ordering::Relaxed)
                + *since_lr_update;
            *since_lr_update = 0;
            let frac = done as f32 / self.planned as f32;
            *lr = (config.learning_rate * (1.0 - frac)).max(config.learning_rate * 1e-4);
        }
        if toks.len() < 2 {
            return;
        }
        for c in 0..toks.len() {
            // Dynamic (reduced) window, as in word2vec.
            let b = (next_random(rng) % config.window as u64) as usize;
            let lo = c.saturating_sub(config.window - b);
            let hi = (c + config.window - b).min(toks.len() - 1);
            for j in lo..=hi {
                if j == c {
                    continue;
                }
                let center = toks[c] as usize;
                let ctx_word = toks[j];
                // SAFETY: indices come from the vocabulary; the matrices
                // outlive this scope; Hogwild races accepted.
                // Positive sample + K negatives (redrawn on collision with
                // the context word, never silently dropped). Both branches
                // draw targets in the same order, so the RNG stream — and
                // therefore the sample choice — is kernel-independent.
                //
                // SAFETY: indices come from the vocabulary; the matrices
                // outlive this scope; Hogwild races accepted.
                match self.config.kernel {
                    KernelChoice::Scalar => unsafe {
                        // Slicing to `dim` up front lets the compiler drop
                        // the per-element bounds checks; the loops below are
                        // the plain word2vec reference (the dot stays a
                        // strictly sequential reduction).
                        let dim = config.dim;
                        let h_c = &mut self.shared.input_row(center)[..dim];
                        let neu1e = &mut neu1e[..dim];
                        neu1e.iter_mut().for_each(|v| *v = 0.0);
                        for k in 0..=config.negatives {
                            let (target, label) = if k == 0 {
                                (ctx_word as usize, 1.0f32)
                            } else {
                                match self.table.sample_excluding(|| next_random(rng), ctx_word) {
                                    Some(neg) => (neg as usize, 0.0f32),
                                    None => continue,
                                }
                            };
                            let h_o = &mut self.shared.context_row(target)[..dim];
                            let mut f = 0f32;
                            for d in 0..dim {
                                f += h_c[d] * h_o[d];
                            }
                            let g = (label - self.sigmoid.get(f)) * *lr;
                            for d in 0..dim {
                                neu1e[d] += g * h_o[d];
                                h_o[d] += g * h_c[d];
                            }
                        }
                        for d in 0..dim {
                            h_c[d] += neu1e[d];
                        }
                    },
                    KernelChoice::Auto => unsafe {
                        // Stage the pair's row pointers, then hand the whole
                        // batch — dots, sigmoid lookups, fused updates and
                        // the `h_c += neu1e` flush — to one kernel call.
                        // `train_pair` initializes `neu1e` from the first
                        // sample, so the buffer is never zeroed here.
                        samples.clear();
                        for k in 0..=config.negatives {
                            let (target, label) = if k == 0 {
                                (ctx_word as usize, 1.0f32)
                            } else {
                                match self.table.sample_excluding(|| next_random(rng), ctx_word) {
                                    Some(neg) => (neg as usize, 0.0f32),
                                    None => continue,
                                }
                            };
                            samples.push((self.shared.context_row(target).as_mut_ptr(), label));
                        }
                        simd::train_pair(
                            self.shared.input_row(center).as_mut_ptr(),
                            samples,
                            neu1e,
                            *lr,
                            self.sigmoid,
                        );
                    },
                }
            }
        }
    }

    /// Flush the trailing `since_lr_update` remainder into the shared
    /// progress counter so the decay schedule accounts for every token
    /// (workers used to drop up to 10k tokens each here).
    fn flush_progress(&self, st: &mut WorkerState) {
        if st.since_lr_update > 0 {
            self.processed
                .fetch_add(st.since_lr_update, Ordering::Relaxed);
            st.since_lr_update = 0;
        }
    }
}

impl SkipGram {
    /// Build the vocabulary from `sequences` and train.
    ///
    /// Returns an error for invalid configs or an empty corpus.
    ///
    /// ```
    /// use hostprof_embed::{SkipGram, SkipGramConfig};
    /// let mut corpus: Vec<Vec<String>> = Vec::new();
    /// for i in 0..60 {
    ///     // Travel sessions co-request an opaque API endpoint…
    ///     corpus.push(vec![
    ///         format!("travel{}.com", i % 3),
    ///         "api.bkng.cloud".to_string(),
    ///         format!("travel{}.com", (i + 1) % 3),
    ///     ]);
    ///     // …sport sessions never do.
    ///     corpus.push(vec![
    ///         format!("sport{}.com", i % 3),
    ///         format!("sport{}.com", (i + 1) % 3),
    ///     ]);
    /// }
    /// let model = SkipGram::train(&corpus, &SkipGramConfig::tiny()).unwrap();
    /// let emb = model.into_embeddings();
    /// // The unlabeled API endpoint lands nearer the travel sites it is
    /// // co-requested with (the paper's api.bkng.azure.com example).
    /// let to_travel = emb.cosine("api.bkng.cloud", "travel0.com").unwrap();
    /// let to_sport = emb.cosine("api.bkng.cloud", "sport0.com").unwrap();
    /// assert!(to_travel > to_sport);
    /// ```
    pub fn train<S: AsRef<str>>(
        sequences: &[Vec<S>],
        config: &SkipGramConfig,
    ) -> Result<Self, String> {
        let vocab = Vocab::build(
            sequences.iter().map(|s| s.iter().map(|t| t.as_ref())),
            config.min_count,
            config.subsample,
        );
        let encoded: Vec<Vec<u32>> = sequences
            .iter()
            .map(|s| vocab.encode(s.iter().map(|t| t.as_ref())))
            .collect();
        Ok(Self::prepare(vocab, encoded, config)?.fit())
    }

    /// Everything one training run needs before its SGD pass: the
    /// initialized weights and the negative table of `vocab`, beside
    /// `sequences` encoded against it (those with fewer than 2 tokens are
    /// dropped here). The SGD pass itself is [`Prepared::sgd`].
    ///
    /// Returns an error for invalid configs, an empty vocabulary or a
    /// corpus with no sequence of 2 or more tokens.
    pub fn prepare(
        vocab: Vocab,
        mut sequences: Vec<Vec<u32>>,
        config: &SkipGramConfig,
    ) -> Result<Prepared, String> {
        config.validate()?;
        if vocab.is_empty() {
            return Err("empty corpus after min-count filtering".into());
        }
        sequences.retain(|s| s.len() >= 2);
        if sequences.is_empty() {
            return Err("no sequence has two or more in-vocabulary tokens".into());
        }
        let dim = config.dim;
        let rows = vocab.len();

        // word2vec initialization: input uniform in (-0.5/d, 0.5/d),
        // context all-zero.
        let mut init_state = config.seed | 1;
        let mut input = Vec::with_capacity(rows * dim);
        for _ in 0..rows * dim {
            let r = next_random(&mut init_state);
            let u = (r >> 11) as f32 / (1u64 << 53) as f32; // [0,1)
            input.push((u - 0.5) / dim as f32);
        }
        let context = vec![0f32; rows * dim];
        let table = NegativeTable::from_vocab(&vocab);
        let model = Self {
            config: config.clone(),
            vocab,
            input,
            context,
            stats: TrainStats {
                planned_tokens: 0,
                processed_tokens: 0,
                elapsed_secs: 0.0,
                threads: 0,
                simd_accelerated: false,
            },
            table: None,
        };
        Ok(Prepared {
            model,
            sequences,
            table,
        })
    }

    /// The SGD pass proper, against a caller-supplied negative table. The
    /// table's bits are a pure function of the vocabulary, so whether it
    /// was freshly built or carried over by the update path's rebuild
    /// policy never changes the op sequence — only whether the O(table)
    /// construction cost was paid. Beyond its inputs it allocates only the
    /// chunk list and each worker's hot-loop buffers.
    fn run_sgd_with(&mut self, sequences: &[Vec<u32>], table: &NegativeTable) -> TrainStats {
        let config = self.config.clone();
        let total_tokens: u64 = sequences.iter().map(|s| s.len() as u64).sum();
        let planned = (total_tokens * config.epochs as u64).max(1);
        let n_threads = config.threads.min(sequences.len()).max(1);
        let mut stats = TrainStats {
            planned_tokens: planned,
            processed_tokens: 0,
            elapsed_secs: 0.0,
            threads: n_threads,
            simd_accelerated: config.kernel == KernelChoice::Auto && simd::simd_accelerated(),
        };
        if table.is_empty() {
            return stats;
        }
        let sigmoid = SigmoidTable::new();
        let ctx = TrainCtx {
            shared: SharedWeights {
                input: self.input.as_mut_ptr(),
                context: self.context.as_mut_ptr(),
                rows: self.vocab.len(),
                dim: config.dim,
            },
            table,
            sigmoid: &sigmoid,
            keep_probs: self.vocab.keep_probs(),
            config: &config,
            planned,
            processed: AtomicU64::new(0),
        };

        let start = Instant::now();
        // Token-balanced chunks claimed through one atomic cursor: a
        // worker stuck on a giant sequence simply claims fewer chunks, so
        // skewed lengths do not idle the others. The cursor runs over
        // `epochs` laps of the chunk list — with one thread that is
        // exactly the sequential epoch order.
        let chunks = balanced_chunk_ranges(sequences.iter().map(Vec::len), n_threads);
        let n_chunks = chunks.len();
        let total_items = n_chunks * config.epochs;
        let cursor = AtomicUsize::new(0);
        run_workers(n_threads, |tid| {
            let mut st = WorkerState::new(&config, tid);
            loop {
                let item = cursor.fetch_add(1, Ordering::Relaxed);
                if item >= total_items {
                    break;
                }
                for seq in &sequences[chunks[item % n_chunks].clone()] {
                    ctx.train_sequence(&mut st, seq);
                }
            }
            ctx.flush_progress(&mut st);
        });
        stats.elapsed_secs = start.elapsed().as_secs_f64();
        stats.processed_tokens = ctx.processed.load(Ordering::Relaxed);
        stats
    }

    /// The online update entry point (DESIGN.md §14): fold a batch of
    /// fresh sessions into the **live** model without a from-scratch
    /// retrain. Three steps, each deterministic:
    ///
    /// 1. Grow the vocabulary ([`Vocab::grow`]) — occurrences of known
    ///    hostnames bump counts in place, new hostnames append; an id
    ///    handed out once never moves, so every serving-side structure
    ///    keyed by token index stays valid across versions.
    /// 2. Extend the weight matrices: appended input rows get the
    ///    word2vec `(u − 0.5)/d` init from a stream keyed by
    ///    `(seed, old vocab length)` — replaying the same update replays
    ///    the same bits, while successive growths never reuse a stream —
    ///    and appended context rows start at zero, as in initial training.
    /// 3. Rebuild the negative table only when the policy demands it
    ///    ([`NegativeTable::needs_rebuild`]), then resume SGD from the
    ///    live weights over the new sequences with the configured
    ///    epochs/LR schedule (a fresh linear decay over this batch).
    ///
    /// With `threads = 1` the whole call is bit-deterministic and matches
    /// the naive `oracle::update` reference exactly.
    pub fn update<S: AsRef<str>>(&mut self, sequences: &[Vec<S>]) -> UpdateReport {
        let old_len = self.vocab.len();
        let appended = self.vocab.grow(
            sequences.iter().map(|s| s.iter().map(|t| t.as_ref())),
            self.config.min_count,
            self.config.subsample,
        );
        if appended > 0 {
            let dim = self.config.dim;
            let mut init_state =
                (self.config.seed ^ (old_len as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
            self.input.reserve(appended * dim);
            for _ in 0..appended * dim {
                let r = next_random(&mut init_state);
                let u = (r >> 11) as f32 / (1u64 << 53) as f32;
                self.input.push((u - 0.5) / dim as f32);
            }
            self.context.resize((old_len + appended) * dim, 0f32);
        }
        let table_rebuilt = self
            .table
            .as_ref()
            .is_none_or(|t| t.needs_rebuild(&self.vocab));
        if table_rebuilt {
            self.table = Some(NegativeTable::from_vocab(&self.vocab));
        }
        let encoded: Vec<Vec<u32>> = sequences
            .iter()
            .map(|s| self.vocab.encode(s.iter().map(|t| t.as_ref())))
            .filter(|s| s.len() >= 2)
            .collect();
        let mut report = UpdateReport {
            appended_tokens: appended,
            trained_sequences: encoded.len(),
            table_rebuilt,
            stats: TrainStats {
                planned_tokens: 0,
                processed_tokens: 0,
                elapsed_secs: 0.0,
                threads: 0,
                simd_accelerated: false,
            },
        };
        if encoded.is_empty() {
            return report;
        }
        let table = self.table.take().expect("table built above");
        self.stats = self.run_sgd_with(&encoded, &table);
        self.table = Some(table);
        report.stats = self.stats;
        report
    }

    /// Throughput/coverage statistics of the most recent training pass
    /// (initial training or [`Self::update`]).
    pub fn train_stats(&self) -> &TrainStats {
        &self.stats
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Input vector of a token index.
    pub fn vector(&self, idx: u32) -> &[f32] {
        let d = self.config.dim;
        &self.input[idx as usize * d..(idx as usize + 1) * d]
    }

    /// Context (output-matrix) vector of a token index. The context matrix
    /// is discarded at serving time, but exposing it lets tests compare
    /// *every* weight the kernels touch, not just the input rows.
    pub fn context_vector(&self, idx: u32) -> &[f32] {
        let d = self.config.dim;
        &self.context[idx as usize * d..(idx as usize + 1) * d]
    }

    /// Extract the final embeddings (input matrix), consuming the model.
    /// The context matrix is freed before the unit-norm copy is allocated.
    pub fn into_embeddings(self) -> EmbeddingSet {
        let Self {
            config,
            vocab,
            input,
            context,
            ..
        } = self;
        drop(context);
        EmbeddingSet::new(config.dim, vocab, input)
    }

    /// Snapshot the current embeddings without consuming the model — the
    /// online path publishes one serving version per [`Self::update`]
    /// while the trainer keeps the live weights for the next round.
    pub fn embeddings(&self) -> EmbeddingSet {
        EmbeddingSet::new(self.config.dim, self.vocab.clone(), self.input.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Corpus with three topical clusters; sequences stay in-cluster.
    fn clustered_corpus(seqs_per_cluster: usize) -> Vec<Vec<String>> {
        let clusters: [&[&str]; 3] = [
            &["travel0", "travel1", "travel2", "travel3", "travel4"],
            &["sport0", "sport1", "sport2", "sport3", "sport4"],
            &["news0", "news1", "news2", "news3", "news4"],
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut out = Vec::new();
        for cluster in clusters {
            for _ in 0..seqs_per_cluster {
                let len = rng.gen_range(4..10);
                out.push(
                    (0..len)
                        .map(|_| cluster[rng.gen_range(0..cluster.len())].to_string())
                        .collect(),
                );
            }
        }
        out
    }

    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        dot / (na * nb).max(1e-12)
    }

    fn cluster_separation(model: &SkipGram) -> (f32, f32) {
        let groups = [
            ["travel0", "travel1", "travel2"],
            ["sport0", "sport1", "sport2"],
            ["news0", "news1", "news2"],
        ];
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for (gi, g) in groups.iter().enumerate() {
            for (gj, h) in groups.iter().enumerate() {
                for a in g {
                    for b in h {
                        if a == b {
                            continue;
                        }
                        let (Some(ia), Some(ib)) = (model.vocab().get(a), model.vocab().get(b))
                        else {
                            continue;
                        };
                        let c = cosine(model.vector(ia), model.vector(ib));
                        if gi == gj {
                            intra.push(c);
                        } else {
                            inter.push(c);
                        }
                    }
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        (mean(&intra), mean(&inter))
    }

    #[test]
    fn learns_cluster_structure() {
        let corpus = clustered_corpus(120);
        let model = SkipGram::train(&corpus, &SkipGramConfig::tiny()).unwrap();
        let (intra, inter) = cluster_separation(&model);
        assert!(
            intra > inter + 0.25,
            "intra {intra} should beat inter {inter}"
        );
    }

    #[test]
    fn single_thread_training_is_deterministic() {
        let corpus = clustered_corpus(30);
        // `threads = 1, kernel = Scalar` is the pinned bit-determinism
        // contract; Auto must also be run-to-run deterministic (the
        // dispatch is process-wide constant).
        for kernel in [KernelChoice::Scalar, KernelChoice::Auto] {
            let cfg = SkipGramConfig {
                kernel,
                ..SkipGramConfig::tiny()
            };
            let a = SkipGram::train(&corpus, &cfg).unwrap();
            let b = SkipGram::train(&corpus, &cfg).unwrap();
            for i in 0..a.vocab().len() as u32 {
                assert_eq!(a.vector(i), b.vector(i), "token {i} ({kernel:?})");
            }
        }
    }

    #[test]
    fn lr_schedule_sees_every_token() {
        let corpus = clustered_corpus(30);
        for threads in [1, 3, 4] {
            let cfg = SkipGramConfig {
                threads,
                ..SkipGramConfig::tiny()
            };
            let model = SkipGram::train(&corpus, &cfg).unwrap();
            let st = model.train_stats();
            // The trailing per-worker remainders must be flushed: the
            // decay schedule accounts for exactly the planned token count.
            assert_eq!(st.processed_tokens, st.planned_tokens, "threads={threads}");
            assert!((st.lr_coverage() - 1.0).abs() < 1e-12);
            assert!(st.tokens_per_sec() > 0.0);
        }
    }

    #[test]
    fn balanced_chunks_cover_all_sequences_exactly_once() {
        // Skewed lengths: one giant sequence among many small ones.
        let mut lens = vec![5usize; 100];
        lens[17] = 10_000;
        for threads in [1, 2, 4, 8] {
            let chunks = balanced_chunk_ranges(lens.iter().copied(), threads);
            let mut next = 0;
            for r in &chunks {
                assert_eq!(r.start, next, "chunks are contiguous and ordered");
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, lens.len(), "chunks cover every sequence");
            // The giant sequence cannot trap the small ones in its chunk:
            // enough chunks exist for stealing to balance the rest.
            assert!(chunks.len() > threads, "threads={threads}");
        }
        assert!(balanced_chunk_ranges(std::iter::empty(), 4).is_empty());
    }

    #[test]
    fn hogwild_learns() {
        let corpus = clustered_corpus(120);
        let cfg = SkipGramConfig {
            threads: 4,
            ..SkipGramConfig::tiny()
        };
        let model = SkipGram::train(&corpus, &cfg).unwrap();
        let (intra, inter) = cluster_separation(&model);
        assert!(intra > inter + 0.2, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn hogwild_training_still_learns() {
        let corpus = clustered_corpus(120);
        let cfg = SkipGramConfig {
            threads: 4,
            ..SkipGramConfig::tiny()
        };
        let model = SkipGram::train(&corpus, &cfg).unwrap();
        let (intra, inter) = cluster_separation(&model);
        assert!(
            intra > inter + 0.2,
            "hogwild: intra {intra} vs inter {inter}"
        );
    }

    #[test]
    fn worker_panics_propagate_with_their_payload() {
        // Regression: the scope result used to go through `.expect`, which
        // replaced the worker's panic message with a generic one. Worker 0
        // runs on a spawned thread, worker 1 on the calling one.
        for panicking in 0..2 {
            let result = std::panic::catch_unwind(|| {
                run_workers(2, |tid| {
                    if tid == panicking {
                        panic!("worker exploded: tid {tid}");
                    }
                });
            });
            let payload = result.expect_err("the worker panic must propagate");
            let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("worker exploded"), "payload lost: {msg:?}");
        }
    }

    #[test]
    fn empty_corpus_is_an_error() {
        let corpus: Vec<Vec<String>> = Vec::new();
        assert!(SkipGram::train(&corpus, &SkipGramConfig::tiny()).is_err());
    }

    #[test]
    fn min_count_can_empty_the_corpus() {
        let corpus = vec![vec!["a".to_string(), "b".to_string()]];
        let cfg = SkipGramConfig {
            min_count: 5,
            ..SkipGramConfig::tiny()
        };
        assert!(SkipGram::train(&corpus, &cfg).is_err());
    }

    #[test]
    fn vectors_are_finite() {
        let corpus = clustered_corpus(40);
        let model = SkipGram::train(&corpus, &SkipGramConfig::tiny()).unwrap();
        for i in 0..model.vocab().len() as u32 {
            for v in model.vector(i) {
                assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn update_grows_vocab_extends_matrices_and_trains() {
        let corpus = clustered_corpus(40);
        let mut model = SkipGram::train(&corpus, &SkipGramConfig::tiny()).unwrap();
        let before: Vec<(String, u32)> = model
            .vocab()
            .iter()
            .map(|(i, t)| (t.to_string(), i))
            .collect();
        let fresh = vec![
            vec![
                "travel0".to_string(),
                "newhost0.example".to_string(),
                "travel1".to_string(),
            ],
            vec![
                "newhost0.example".to_string(),
                "newhost1.example".to_string(),
            ],
        ];
        let report = model.update(&fresh);
        assert_eq!(report.appended_tokens, 2);
        assert_eq!(report.trained_sequences, 2);
        assert!(report.table_rebuilt, "first update always builds the table");
        assert_eq!(report.stats.processed_tokens, report.stats.planned_tokens);
        for (tok, idx) in &before {
            assert_eq!(model.vocab().get(tok), Some(*idx), "{tok} moved");
        }
        let new_id = model.vocab().get("newhost0.example").unwrap();
        assert_eq!(model.vector(new_id).len(), model.dim());
        assert!(model.vector(new_id).iter().all(|v| v.is_finite()));
        assert!(model.context_vector(new_id).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn update_is_bit_deterministic() {
        let corpus = clustered_corpus(30);
        let batch = vec![
            vec!["sport0".to_string(), "fresh.example".to_string()],
            vec![
                "fresh.example".to_string(),
                "news1".to_string(),
                "news0".to_string(),
            ],
        ];
        let mut a = SkipGram::train(&corpus, &SkipGramConfig::tiny()).unwrap();
        let mut b = SkipGram::train(&corpus, &SkipGramConfig::tiny()).unwrap();
        a.update(&batch);
        b.update(&batch);
        for i in 0..a.vocab().len() as u32 {
            assert_eq!(a.vector(i), b.vector(i), "input row {i}");
            assert_eq!(a.context_vector(i), b.context_vector(i), "context row {i}");
        }
    }

    #[test]
    fn update_reuses_the_table_until_the_policy_fires() {
        let corpus = clustered_corpus(40);
        let mut model = SkipGram::train(&corpus, &SkipGramConfig::tiny()).unwrap();
        let known = vec![vec!["travel0".to_string(), "travel1".to_string()]];
        assert!(model.update(&known).table_rebuilt, "no table yet");
        // Same known-token batch again: no growth, tiny drift → reuse.
        assert!(!model.update(&known).table_rebuilt);
        // A new hostname makes the current table unable to sample it.
        let novel = vec![vec!["travel0".to_string(), "unseen.example".to_string()]];
        assert!(model.update(&novel).table_rebuilt);
    }

    #[test]
    fn successive_updates_use_distinct_init_streams() {
        let corpus = clustered_corpus(30);
        let mut model = SkipGram::train(&corpus, &SkipGramConfig::tiny()).unwrap();
        // Two growth rounds appending one token each; an untrained row
        // keeps its init bits, so identical streams would be visible as
        // identical rows. Each batch has < 2 usable tokens, so SGD never
        // runs and the init survives untouched.
        model.update(&[vec!["solo-a.example".to_string()]]);
        model.update(&[vec!["solo-b.example".to_string()]]);
        let ia = model.vocab().get("solo-a.example").unwrap();
        let ib = model.vocab().get("solo-b.example").unwrap();
        assert_ne!(model.vector(ia), model.vector(ib));
    }

    #[test]
    fn different_seeds_give_different_embeddings() {
        let corpus = clustered_corpus(30);
        let a = SkipGram::train(&corpus, &SkipGramConfig::tiny()).unwrap();
        let cfg_b = SkipGramConfig {
            seed: 999,
            ..SkipGramConfig::tiny()
        };
        let b = SkipGram::train(&corpus, &cfg_b).unwrap();
        let ia = a.vocab().get("travel0").unwrap();
        let ib = b.vocab().get("travel0").unwrap();
        assert_ne!(a.vector(ia), b.vector(ib));
    }
}
