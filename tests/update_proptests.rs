//! Differential property tests for the online-update path (DESIGN.md
//! §14): 500 seeded cases per property, production `SkipGram::update`
//! vs the naive `oracle::update` reference. Same homemade persistence
//! scheme as `differential_proptests.rs`: every case derives from a
//! printable 16-hex-digit seed, failures panic with that seed, and
//! `tests/regressions/update_proptests.txt` holds previously failing
//! seeds (`cc <seed> # note` lines) replayed *first* on every run.
//!
//! Three properties, one per update invariant:
//!
//! 1. **Vocabulary growth** — counts, append order, keep-probabilities
//!    and the running total all match the naive reference, and an id
//!    handed out before the growth never moves.
//! 2. **Incremental SGD** — the full {train → update…} schedule is
//!    bit-identical to the oracle at one thread with the scalar kernel;
//!    any divergence comes back stage-attributed (`[update] batch2/...`).
//! 3. **Multi-round stability** — across several updates ids stay
//!    append-only, and replaying the identical schedule from scratch
//!    reproduces every weight bit (the extension-init stream is keyed,
//!    not global).

use hostprof::embed::{KernelChoice, SkipGram, SkipGramConfig, Vocab};
use hostprof_oracle::sgd::{build_vocab, SgdConfig};
use hostprof_oracle::update::{diff_online, grow_vocab};

mod common;
use common::{schedule, splitmix};

/// A random hostname corpus drawn from a host-id range: sequence count,
/// lengths, and the per-token host draw all come off the case stream.
/// Offsetting `host_range` between the base corpus and the update
/// batches is what makes growth happen (or not).
fn corpus(rng: &mut u64, nseqs: usize, host_lo: u64, host_hi: u64) -> Vec<Vec<String>> {
    (0..nseqs)
        .map(|_| {
            let len = 2 + (splitmix(rng) % 7) as usize;
            (0..len)
                .map(|_| {
                    let h = host_lo + splitmix(rng) % (host_hi - host_lo).max(1);
                    format!("host{h}.test")
                })
                .collect()
        })
        .collect()
}

fn sgd_config(rng: &mut u64, seed: u64) -> SgdConfig {
    SgdConfig {
        // dim ≤ 3 keeps the scalar kernel on its bit-pinned tail path.
        dim: 2 + (splitmix(rng) % 2) as usize,
        window: 1 + (splitmix(rng) % 3) as usize,
        negatives: 1 + (splitmix(rng) % 3) as usize,
        epochs: 1 + (splitmix(rng) % 2) as u32,
        learning_rate: 0.025,
        min_count: 1 + splitmix(rng) % 2,
        subsample: if splitmix(rng).is_multiple_of(3) {
            0.05
        } else {
            0.0
        },
        seed,
    }
}

fn production_config(cfg: &SgdConfig) -> SkipGramConfig {
    SkipGramConfig {
        dim: cfg.dim,
        window: cfg.window,
        negatives: cfg.negatives,
        epochs: cfg.epochs as usize,
        learning_rate: cfg.learning_rate,
        min_count: cfg.min_count,
        subsample: cfg.subsample,
        threads: 1,
        seed: cfg.seed,
        kernel: KernelChoice::Scalar,
    }
}

// ---------------------------------------------------------------------
// Property 1: vocabulary growth — production Vocab::grow vs the oracle's
// linear-scan reference, plus id stability of every pre-growth token.
// ---------------------------------------------------------------------

#[test]
fn vocab_growth_matches_oracle_on_500_seeded_cases() {
    for seed in schedule("update_proptests", 0x0bca_b670) {
        let mut rng = seed;
        let base_seqs = 3 + (splitmix(&mut rng) % 6) as usize;
        let base = corpus(&mut rng, base_seqs, 0, 12);
        // The batch overlaps the base range and reaches past it, so every
        // case exercises both count-bumping and appending; occasionally
        // it stays fully inside (no growth at all).
        let reach = if splitmix(&mut rng).is_multiple_of(4) {
            12
        } else {
            12 + splitmix(&mut rng) % 20
        };
        let batch_seqs = 2 + (splitmix(&mut rng) % 5) as usize;
        let batch = corpus(&mut rng, batch_seqs, 4, reach.max(5));
        let min_count = 1 + splitmix(&mut rng) % 2;
        let subsample = if splitmix(&mut rng).is_multiple_of(2) {
            0.01
        } else {
            0.0
        };

        let mut oracle = build_vocab(&base, min_count, subsample);
        let mut prod = Vocab::build(
            base.iter().map(|s| s.iter().map(|t| t.as_str())),
            min_count,
            subsample,
        );
        let before: Vec<String> = oracle.tokens.clone();
        let cc = format!("add `cc {seed:016x}` to tests/regressions/update_proptests.txt");

        let oa = grow_vocab(&mut oracle, &batch, min_count, subsample);
        let pa = prod.grow(
            batch.iter().map(|s| s.iter().map(|t| t.as_str())),
            min_count,
            subsample,
        );
        assert_eq!(oa, pa, "appended counts diverged — {cc}");
        assert_eq!(oracle.tokens.len(), prod.len(), "vocab size — {cc}");
        assert_eq!(oracle.total, prod.total_count(), "total count — {cc}");
        for i in 0..prod.len() as u32 {
            assert_eq!(
                oracle.tokens[i as usize],
                prod.token(i),
                "token at id {i} — {cc}"
            );
            assert_eq!(
                oracle.counts[i as usize],
                prod.count(i),
                "count at id {i} — {cc}"
            );
            assert_eq!(
                oracle.keep[i as usize].to_bits(),
                prod.keep_prob(i).to_bits(),
                "keep probability at id {i} — {cc}"
            );
        }
        for (i, tok) in before.iter().enumerate() {
            assert_eq!(
                prod.token(i as u32),
                tok.as_str(),
                "id {i} moved during growth — {cc}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Property 2: the full online schedule — {train → update → update…}
// bit-identical to the oracle, mismatches stage-attributed.
// ---------------------------------------------------------------------

#[test]
fn incremental_sgd_matches_oracle_on_500_seeded_cases() {
    for seed in schedule("update_proptests", 0x5d60_0bda) {
        let mut rng = seed;
        let cfg = sgd_config(&mut rng, seed);
        let initial_seqs = 4 + (splitmix(&mut rng) % 5) as usize;
        let initial = corpus(&mut rng, initial_seqs, 0, 10);
        let nbatches = 1 + (splitmix(&mut rng) % 2) as usize;
        let batches: Vec<Vec<Vec<String>>> = (0..nbatches)
            .map(|b| {
                let lo = 3 * b as u64;
                let hi = 10 + 6 * (b as u64 + 1);
                let nseqs = 2 + (splitmix(&mut rng) % 4) as usize;
                corpus(&mut rng, nseqs, lo, hi)
            })
            .collect();

        let report = diff_online(&initial, &batches, &cfg);
        assert!(
            report.is_clean(),
            "online schedule diverged — add `cc {seed:016x}` to \
             tests/regressions/update_proptests.txt\n{}",
            report.summary()
        );
        assert!(report.items_checked > 0, "nothing compared for {seed:016x}");
    }
}

// ---------------------------------------------------------------------
// Property 3: multi-round id stability and schedule replayability on
// the production trainer alone — ids append-only across rounds, and an
// identical from-scratch replay of the whole schedule lands on the same
// bits (keyed extension-init streams, not a shared global one).
// ---------------------------------------------------------------------

#[test]
fn multi_round_updates_keep_ids_stable_and_replay_bitwise_on_500_seeded_cases() {
    for seed in schedule("update_proptests", 0x1d57_ab1e) {
        let mut rng = seed;
        let cfg = sgd_config(&mut rng, seed);
        let prod_cfg = production_config(&cfg);
        let initial_seqs = 4 + (splitmix(&mut rng) % 4) as usize;
        let initial = corpus(&mut rng, initial_seqs, 0, 8);
        let rounds: Vec<Vec<Vec<String>>> = (0..3)
            .map(|b| {
                let hi = 8 + 5 * (b as u64 + 1);
                let nseqs = 2 + (splitmix(&mut rng) % 3) as usize;
                corpus(&mut rng, nseqs, 0, hi)
            })
            .collect();
        let cc = format!("add `cc {seed:016x}` to tests/regressions/update_proptests.txt");

        let Ok(mut model) = SkipGram::train(&initial, &prod_cfg) else {
            // Degenerate corpus for this seed; the schedule covers it via
            // property 2's rejection mirror.
            continue;
        };
        for (round, batch) in rounds.iter().enumerate() {
            let before: Vec<String> = (0..model.vocab().len() as u32)
                .map(|i| model.vocab().token(i).to_string())
                .collect();
            let report = model.update(batch);
            assert!(
                model.vocab().len() == before.len() + report.appended_tokens,
                "round {round}: growth is not append-only — {cc}"
            );
            for (i, tok) in before.iter().enumerate() {
                assert_eq!(
                    model.vocab().token(i as u32),
                    tok.as_str(),
                    "round {round}: id {i} moved — {cc}"
                );
            }
        }

        // From-scratch replay of the identical schedule.
        let mut replay = SkipGram::train(&initial, &prod_cfg).expect("replay train");
        for batch in &rounds {
            replay.update(batch);
        }
        assert_eq!(
            replay.vocab().len(),
            model.vocab().len(),
            "replay vocab — {cc}"
        );
        for i in 0..model.vocab().len() as u32 {
            assert_eq!(
                model.vector(i),
                replay.vector(i),
                "replayed input row {i} diverged — {cc}"
            );
            assert_eq!(
                model.context_vector(i),
                replay.context_vector(i),
                "replayed context row {i} diverged — {cc}"
            );
        }
    }
}
