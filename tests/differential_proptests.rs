//! Differential property tests: 500 seeded cases per property, oracle
//! vs production. The vendored proptest crate has no failure
//! persistence, so the seeded suites roll their own (`tests/common`):
//! every case is derived from a printable 16-hex-digit seed, failures
//! panic with that seed, and `tests/regressions/differential_proptests.txt`
//! holds previously failing seeds (`cc <seed> # note` lines) that are
//! replayed *first* on every run.

use hostprof::embed::{EmbeddingSet, Vocab};
use hostprof::ontology::{CategoryId, CategoryVector, Ontology};
use hostprof::profiling::{Profiler, ProfilerConfig, Session};
use hostprof::synth::{
    Population, PopulationConfig, Trace, TraceConfig, UserId, World, WorldConfig,
};
use hostprof_oracle::{knn, profile, window};

mod common;
use common::{schedule, splitmix};

const DAY_MS: u64 = 86_400_000;

fn unit_f32(draw: u64) -> f32 {
    (draw >> 40) as f32 / (1u64 << 24) as f32
}

// ---------------------------------------------------------------------
// Property 1: session windowing (T-window filter + lowercase +
// blocklist + first-visit dedup) — production Trace::window +
// Session::from_window vs the oracle's single naive scan.
// ---------------------------------------------------------------------

struct TraceBlock {
    world: World,
    trace: Trace,
    users: u32,
}

fn trace_block(block: u64) -> TraceBlock {
    let mut wc = WorldConfig::tiny();
    wc.seed = 0xb10c_0000 ^ block;
    let mut pc = PopulationConfig::tiny();
    pc.num_users = 10;
    pc.seed = 0xb10c_1000 ^ block;
    let mut tc = TraceConfig::tiny();
    tc.days = 2;
    tc.seed = 0xb10c_2000 ^ block;
    let world = World::generate(&wc);
    let population = Population::generate(&world, &pc);
    let trace = Trace::generate(&world, &population, &tc);
    TraceBlock {
        world,
        trace,
        users: population.len() as u32,
    }
}

#[test]
fn session_windowing_matches_oracle_on_500_seeded_cases() {
    const BLOCKS: u64 = 4;
    let blocks: Vec<TraceBlock> = (0..BLOCKS).map(trace_block).collect();

    for seed in schedule("differential_proptests", 0x5e55_1011) {
        let mut rng = seed;
        let block = &blocks[(splitmix(&mut rng) % BLOCKS) as usize];
        let user = UserId(splitmix(&mut rng) as u32 % block.users);
        let timeline: Vec<(u64, String)> = block
            .trace
            .user_requests(user)
            .map(|r| (r.t_ms, block.world.hostname(r.host).to_string()))
            .collect();

        // End anchored at a real request most of the time, raw otherwise;
        // durations sweep the degenerate edges and the paper's T.
        let end_ms = match (splitmix(&mut rng) % 4, timeline.as_slice()) {
            (0..=2, reqs) if !reqs.is_empty() => reqs[splitmix(&mut rng) as usize % reqs.len()].0,
            _ => splitmix(&mut rng) % (2 * DAY_MS),
        };
        let duration_ms = match splitmix(&mut rng) % 5 {
            0 => 0,
            1 => 1,
            2 => 20 * 60_000,
            3 => DAY_MS,
            _ => splitmix(&mut rng) % (45 * 60_000),
        };

        let blocklist = block.world.blocklist();
        let ids = block.trace.window(user, end_ms, duration_ms);
        let names: Vec<&str> = ids.iter().map(|&id| block.world.hostname(id)).collect();
        let session = Session::from_window(names.iter().copied(), Some(blocklist));
        let oracle =
            window::session_window(&timeline, end_ms, duration_ms, &|h| blocklist.is_blocked(h));
        assert_eq!(
            session.hostnames(),
            oracle.as_slice(),
            "windowing diverged — add `cc {seed:016x}` to \
             tests/regressions/differential_proptests.txt \
             (user {user:?}, end {end_ms}, duration {duration_ms})"
        );
    }
}

// ---------------------------------------------------------------------
// Property 2: kNN top-N — production tiled scan vs the oracle's full
// sort; exact index sequence (which encodes the similarity-then-index
// tie-break) and similarity bits, at the dims where the contract is
// bit-exact (scalar tail path: dim ≤ 3).
// ---------------------------------------------------------------------

#[test]
fn knn_top_n_matches_oracle_on_500_seeded_cases() {
    for seed in schedule("differential_proptests", 0x6e61) {
        let mut rng = seed;
        let dim = 2 + (splitmix(&mut rng) % 2) as usize; // 2 or 3
        let nrows = 4 + (splitmix(&mut rng) % 45) as usize;
        let mut rows = Vec::with_capacity(nrows * dim);
        for _ in 0..nrows * dim {
            rows.push(unit_f32(splitmix(&mut rng)) - 0.5);
        }
        // Occasionally zero out a row: zero-norm rows must be skipped
        // identically on both sides.
        if splitmix(&mut rng).is_multiple_of(3) {
            let r = splitmix(&mut rng) as usize % nrows;
            rows[r * dim..(r + 1) * dim].fill(0.0);
        }
        let query: Vec<f32> = (0..dim)
            .map(|_| unit_f32(splitmix(&mut rng)) - 0.5)
            .collect();
        let n = 1 + (splitmix(&mut rng) as usize % (nrows + 2));

        let seqs = [(0..nrows).map(|i| format!("h{i}")).collect::<Vec<_>>()];
        let vocab = Vocab::build(seqs.iter().map(|s| s.iter().map(|t| t.as_str())), 1, 0.0);
        let embeddings = EmbeddingSet::new(dim, vocab, rows.clone());

        let prod = embeddings.nearest_to_vector(&query, n);
        let oracle = knn::nearest(&rows, dim, &query, n);
        assert_eq!(
            prod.len(),
            oracle.len(),
            "kNN result sizes diverged — add `cc {seed:016x}` to \
             tests/regressions/differential_proptests.txt"
        );
        for (rank, (p, o)) in prod.iter().zip(&oracle).enumerate() {
            assert!(
                p.0 == o.0 && p.1.to_bits() == o.1.to_bits(),
                "kNN rank {rank}: production ({}, {}) vs oracle ({}, {}) — add \
                 `cc {seed:016x}` to tests/regressions/differential_proptests.txt",
                p.0,
                p.1,
                o.0,
                o.1
            );
        }
    }
}

// ---------------------------------------------------------------------
// Property 3: Eq. 3/4 profiles — production Profiler vs the oracle's
// first-touch accumulator. Category ids exact, importances within the
// issue's 1e-5 spec tolerance.
// ---------------------------------------------------------------------

#[test]
fn eq4_importances_match_oracle_on_500_seeded_cases() {
    for seed in schedule("differential_proptests", 0xe943) {
        let mut rng = seed;
        let dim = 3usize;
        let nrows = 6 + (splitmix(&mut rng) % 19) as usize;
        let tokens: Vec<String> = (0..nrows).map(|i| format!("site{i}.test")).collect();
        let seqs = [tokens.clone()];
        let vocab = Vocab::build(seqs.iter().map(|s| s.iter().map(|t| t.as_str())), 1, 0.0);
        let mut rows = Vec::with_capacity(nrows * dim);
        for _ in 0..nrows * dim {
            rows.push(unit_f32(splitmix(&mut rng)) - 0.5);
        }
        let embeddings = EmbeddingSet::new(dim, vocab, rows.clone());

        // Label roughly a third of the hosts with 1-3 random categories.
        let mut ontology = Ontology::default();
        for t in &tokens {
            if !splitmix(&mut rng).is_multiple_of(3) {
                continue;
            }
            let ncats = 1 + (splitmix(&mut rng) % 3) as usize;
            let pairs: Vec<(CategoryId, f32)> = (0..ncats)
                .map(|_| {
                    (
                        CategoryId((splitmix(&mut rng) % 12) as u16),
                        0.1 + 0.9 * unit_f32(splitmix(&mut rng)),
                    )
                })
                .collect();
            ontology.insert(t, CategoryVector::from_pairs(pairs));
        }

        // A session over mostly in-vocabulary hosts plus the odd stranger.
        let nvisits = 1 + (splitmix(&mut rng) % 6) as usize;
        let visits: Vec<String> = (0..nvisits)
            .map(|v| {
                if splitmix(&mut rng).is_multiple_of(5) {
                    format!("stranger{v}.test")
                } else {
                    tokens[splitmix(&mut rng) as usize % nrows].clone()
                }
            })
            .collect();
        let session = Session::from_window(visits.iter().map(|s| s.as_str()), None);
        let n_neighbors = 1 + (splitmix(&mut rng) % 8) as usize;

        let profiler = Profiler::new(
            &embeddings,
            &ontology,
            ProfilerConfig {
                n_neighbors,
                ..Default::default()
            },
        );
        let labeled: Vec<Option<Vec<(u16, f32)>>> = (0..embeddings.len() as u32)
            .map(|idx| {
                ontology
                    .lookup(embeddings.vocab().token(idx))
                    .map(|cats| cats.iter().map(|(c, w)| (c.0, w)).collect())
            })
            .collect();
        let hosts: Vec<profile::SessionHost> = session
            .hostnames()
            .iter()
            .map(|h| profile::SessionHost {
                vocab_idx: embeddings.vocab().get(h),
                categories: ontology
                    .lookup(h)
                    .map(|cats| cats.iter().map(|(c, w)| (c.0, w)).collect()),
            })
            .collect();

        let prod = profiler.profile(&session);
        let oracle = profile::profile(&hosts, &rows, dim, &labeled, n_neighbors);
        let cc = format!("add `cc {seed:016x}` to tests/regressions/differential_proptests.txt");
        match (&prod, &oracle) {
            (None, None) => {}
            (Some(p), Some(o)) => {
                assert_eq!(
                    p.labeled_in_session, o.labeled_in_session,
                    "in-session count — {cc}"
                );
                assert_eq!(
                    p.labeled_neighbors, o.labeled_neighbors,
                    "neighbor count — {cc}"
                );
                let prod_ids: Vec<u16> = p.categories.iter().map(|(c, _)| c.0).collect();
                let oracle_ids: Vec<u16> = o.categories.iter().map(|&(c, _)| c).collect();
                assert_eq!(prod_ids, oracle_ids, "category ids — {cc}");
                for ((_, pw), &(_, ow)) in p.categories.iter().zip(&o.categories) {
                    assert!(
                        ((pw as f64) - (ow as f64)).abs() <= 1e-5,
                        "Eq. 4 importance {pw} vs {ow} beyond 1e-5 — {cc}"
                    );
                }
            }
            _ => panic!(
                "profiled: production {}, oracle {} — {cc}",
                prod.is_some(),
                oracle.is_some()
            ),
        }
    }
}
