//! The pipeline's training against the path it replaced.
//!
//! [`Pipeline::train_model`] interns names to ids and trains through
//! [`Pipeline::prepare`]: the blocklist is asked once per distinct id, the
//! ids are counted into a dense table and encoded in place. The twin here is
//! the older path, written out: drop blocked names from every sequence, drop
//! sequences left shorter than 2, train [`SkipGram::train`] on the strings
//! and center. Seeded corpora go through both doors — names, and ids
//! numbered in an order unrelated to the names — and the embeddings (the
//! vocabulary in order, every row as bits) and the [`TrainStats`] counters
//! must be the reference's, or both must fail with the same message. The
//! run counts the cases that make it bite and fails if any stayed at zero.

use hostprof_core::{Pipeline, PipelineConfig};
use hostprof_embed::{EmbeddingSet, KernelChoice, SkipGram, SkipGramConfig, TrainStats};
use hostprof_ontology::{Blocklist, BlocklistProvider};
use proptest::test_runner::TestRng;

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.uniform_u64(0, n - 1)
}

/// Names of the pool: sites, hosts under a listed parent domain, a listed
/// host itself, and names that only look like a listed one.
fn pool() -> Vec<String> {
    let mut names: Vec<String> = (0..14).map(|i| format!("site{i}.example")).collect();
    names.extend((0..4).map(|i| format!("px{i}.tracker.net")));
    names.extend([
        "tracker.net".to_string(),
        "ads.cdn.example".to_string(),
        "nottracker.net".to_string(),
        "tracker.net.example".to_string(),
        "Site0.example".to_string(),
    ]);
    names
}

fn blocklist() -> Blocklist {
    Blocklist::from_providers(vec![BlocklistProvider::new(
        "twin",
        ["tracker.net", "ads.cdn.example"],
    )])
}

/// What a run produced, comparable bit for bit.
#[derive(Debug, PartialEq)]
struct Fitted {
    tokens: Vec<(String, u64)>,
    rows: Vec<Vec<u32>>,
    planned: u64,
    processed: u64,
    threads: usize,
    simd: bool,
}

fn fitted(result: Result<(EmbeddingSet, TrainStats), String>) -> Result<Fitted, String> {
    let (emb, stats) = result?;
    Ok(Fitted {
        tokens: emb
            .vocab()
            .iter()
            .map(|(i, t)| (t.to_string(), emb.vocab().count(i)))
            .collect(),
        rows: (0..emb.len() as u32)
            .map(|i| emb.vector_by_index(i).iter().map(|v| v.to_bits()).collect())
            .collect(),
        planned: stats.planned_tokens,
        processed: stats.processed_tokens,
        threads: stats.threads,
        simd: stats.simd_accelerated,
    })
}

/// The path `Pipeline::train_model` took before it trained on ids.
fn reference(
    blocklist: &Blocklist,
    config: &SkipGramConfig,
    corpus: &[Vec<String>],
) -> Result<(EmbeddingSet, TrainStats), String> {
    let filtered: Vec<Vec<&str>> = corpus
        .iter()
        .map(|seq| {
            seq.iter()
                .map(String::as_str)
                .filter(|h| !blocklist.is_blocked(h))
                .collect()
        })
        .filter(|seq: &Vec<&str>| seq.len() >= 2)
        .collect();
    let model = SkipGram::train(&filtered, config)?;
    let stats = *model.train_stats();
    Ok((model.into_embeddings().centered(), stats))
}

/// How often each case the twin exists for came up.
#[derive(Debug, Default)]
struct Seen {
    trained: u64,
    blocked_parent_domain: u64,
    blocked_listed_host: u64,
    one_unblocked_name: u64,
    duplicate_tokens: u64,
    min_count: [u64; 3],
    subsampled: u64,
    not_subsampled: u64,
    empty_vocabulary: u64,
    no_long_sequence: u64,
}

fn run(rng: &mut TestRng, case: u32, seen: &mut Seen) {
    let names = pool();
    let blocklist = blocklist();
    // Ids numbered in a seeded order, so an id's rank says nothing of its
    // name's.
    let mut id_of: Vec<u32> = (0..names.len() as u32).collect();
    for i in (1..id_of.len()).rev() {
        id_of.swap(i, below(rng, i as u64 + 1) as usize);
    }
    let mut name_of = vec![""; names.len()];
    for (n, &id) in id_of.iter().enumerate() {
        name_of[id as usize] = &names[n];
    }

    // Skewed draws: low pool indices are frequent, so tokens repeat.
    let span = 3 + below(rng, names.len() as u64 - 2);
    let draw = |rng: &mut TestRng| {
        let a = below(rng, span);
        let b = below(rng, span);
        a.min(b) as usize
    };
    let (picks, min_count): (Vec<Vec<usize>>, u64) = match case % 16 {
        0 => (Vec::new(), 1 + below(rng, 3)),
        // Pairs sharing only their first name: at min_count 2 or 3 every
        // sequence keeps one in-vocabulary token.
        1 => (
            (0..3 + below(rng, 5) as usize)
                .map(|k| vec![0, 1 + k])
                .collect(),
            2 + below(rng, 2),
        ),
        _ => (
            (0..below(rng, 30))
                .map(|_| (0..below(rng, 9)).map(|_| draw(rng)).collect())
                .collect(),
            1 + below(rng, 3),
        ),
    };
    let corpus: Vec<Vec<String>> = picks
        .iter()
        .map(|seq| seq.iter().map(|&n| names[n].clone()).collect())
        .collect();
    let ids: Vec<Vec<u32>> = picks
        .iter()
        .map(|seq| seq.iter().map(|&n| id_of[n]).collect())
        .collect();

    let subsample = [0.0, 1e-3, 0.05][below(rng, 3) as usize];
    let skipgram = SkipGramConfig {
        dim: [4, 8, 17][below(rng, 3) as usize],
        epochs: 1 + below(rng, 3) as usize,
        min_count,
        subsample,
        seed: rng.next_u64(),
        kernel: if below(rng, 2) == 0 {
            KernelChoice::Auto
        } else {
            KernelChoice::Scalar
        },
        ..SkipGramConfig::tiny()
    };
    let pipeline = Pipeline::new(
        PipelineConfig {
            skipgram: skipgram.clone(),
            ..PipelineConfig::default()
        },
        blocklist.clone(),
    );

    let want = fitted(reference(&blocklist, &skipgram, &corpus));
    let by_name = fitted(pipeline.train_model_with_stats(&corpus));
    let by_id = fitted(
        pipeline
            .prepare(ids, |id| name_of[id as usize])
            .map(|prepared| {
                let model = prepared.fit();
                let stats = *model.train_stats();
                (model.into_embeddings().centered(), stats)
            }),
    );
    assert_eq!(by_name, want, "name door, case {case}");
    assert_eq!(by_id, want, "id door, case {case}");

    for seq in &corpus {
        let unblocked = seq.iter().filter(|h| !blocklist.is_blocked(h)).count();
        seen.one_unblocked_name += u64::from(unblocked == 1);
        seen.blocked_parent_domain += u64::from(seq.iter().any(|h| h.ends_with(".tracker.net")));
        seen.blocked_listed_host += u64::from(seq.iter().any(|h| h == "tracker.net"));
        let mut sorted = seq.clone();
        sorted.sort();
        sorted.dedup();
        seen.duplicate_tokens += u64::from(sorted.len() < seq.len());
    }
    match &want {
        Ok(_) => {
            seen.trained += 1;
            seen.min_count[min_count as usize - 1] += 1;
            if subsample > 0.0 {
                seen.subsampled += 1;
            } else {
                seen.not_subsampled += 1;
            }
        }
        Err(e) if e == "empty corpus after min-count filtering" => seen.empty_vocabulary += 1,
        Err(e) if e == "no sequence has two or more in-vocabulary tokens" => {
            seen.no_long_sequence += 1
        }
        Err(e) => panic!("unexpected error {e:?}, case {case}"),
    }
}

#[test]
fn training_on_ids_is_the_filtered_string_training_bit_for_bit() {
    let mut rng = TestRng::deterministic("training_on_ids_is_the_filtered_string_training");
    let mut seen = Seen::default();
    for case in 0..proptest::case_count() {
        run(&mut rng, case, &mut seen);
    }
    eprintln!("pipeline training ≡ filter + SkipGram::train: {seen:?}");
    let Seen {
        trained,
        blocked_parent_domain,
        blocked_listed_host,
        one_unblocked_name,
        duplicate_tokens,
        min_count,
        subsampled,
        not_subsampled,
        empty_vocabulary,
        no_long_sequence,
    } = seen;
    for (event, n) in [
        ("a trained model", trained),
        ("a name blocked by its parent domain", blocked_parent_domain),
        ("a listed name", blocked_listed_host),
        ("a sequence with one unblocked name", one_unblocked_name),
        ("a sequence repeating a token", duplicate_tokens),
        ("a model at min_count 1", min_count[0]),
        ("a model at min_count 2", min_count[1]),
        ("a model at min_count 3", min_count[2]),
        ("a subsampled model", subsampled),
        ("a model without subsampling", not_subsampled),
        ("an empty vocabulary", empty_vocabulary),
        ("no sequence of 2 in-vocabulary tokens", no_long_sequence),
    ] {
        assert!(n > 0, "no case had {event}");
    }
}
