//! Memory the SGD step allocates.
//!
//! The CTR experiment runs a day's SGD pass ([`Prepared::sgd`]) on a worker
//! thread while the replay thread goes on, and every large buffer of a
//! training run — weights, negative table, encoded corpus, vocabulary — is
//! allocated by [`Pipeline::prepare`] on the replay thread beforehand. A
//! buffer that grows with the vocabulary or the corpus and is allocated
//! inside the SGD step would land in the worker's own allocator arena,
//! which keeps its high-water mark across the replay's days (DESIGN.md
//! §9.3). This test states the rule as a number: on a 20 000-token
//! vocabulary and 12 000 sequences, the SGD step holds at most 64 KiB
//! beyond its inputs at any moment (the chunk list, and a worker's buffers
//! of one row and of the longest sequence) and keeps nothing. A
//! per-vocabulary copy of the keep probabilities would add 160 000 B, a
//! per-sequence length list 96 000 B.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use counting_alloc::{LIVE, PEAK};
use hostprof_core::{Pipeline, PipelineConfig};
use hostprof_embed::SkipGramConfig;
use hostprof_ontology::Blocklist;
use std::sync::atomic::Ordering;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

const HOSTS: u32 = 20_000;
const SEQUENCES: usize = 12_000;
const BUDGET: u64 = 64 * 1024;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn the_sgd_step_allocates_nothing_that_grows_with_the_model() {
    let names: Vec<String> = (0..HOSTS).map(|i| format!("h{i}.example")).collect();
    // Every host appears (sequence k opens with hosts 2k and 2k + 1), so
    // the vocabulary is all 20 000; the rest of each sequence is skewed so
    // subsampling has frequent tokens to thin.
    let mut rng = 0x5eed_u64;
    let sequences: Vec<Vec<u32>> = (0..SEQUENCES as u32)
        .map(|k| {
            let skewed = (0..2 + splitmix64(&mut rng) % 13).map(|_| {
                let a = splitmix64(&mut rng) % u64::from(HOSTS);
                let b = splitmix64(&mut rng) % u64::from(HOSTS);
                a.min(b) as u32
            });
            [2 * k % HOSTS, (2 * k + 1) % HOSTS]
                .into_iter()
                .chain(skewed)
                .collect()
        })
        .collect();
    let pipeline = Pipeline::new(
        PipelineConfig {
            skipgram: SkipGramConfig {
                dim: 16,
                epochs: 1,
                ..SkipGramConfig::default()
            },
            ..PipelineConfig::default()
        },
        Blocklist::new(),
    );
    let mut prepared = pipeline
        .prepare(sequences, |id| &names[id as usize])
        .expect("a corpus");

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    prepared.sgd();
    let kept = LIVE.load(Ordering::Relaxed).abs_diff(before);
    let peak = PEAK.load(Ordering::Relaxed) - before;

    let model = prepared.into_model();
    assert_eq!(model.vocab().len(), HOSTS as usize);
    let stats = model.train_stats();
    assert_eq!(stats.processed_tokens, stats.planned_tokens);
    eprintln!(
        "SGD over {} tokens, vocabulary {HOSTS}: peak {peak} B beyond its inputs (budget {BUDGET} B), {kept} B kept",
        stats.planned_tokens
    );
    assert_eq!(kept, 0, "the SGD step kept {kept} B");
    assert!(
        peak <= BUDGET,
        "the SGD step held {peak} B beyond its inputs (budget {BUDGET} B): a buffer that grows with the vocabulary or the corpus is allocated inside it"
    );
}
