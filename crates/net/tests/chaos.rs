//! Differential conformance tests for the chaos fault-injection subsystem,
//! run as part of the `cargo test -p hostprof-net` CI chaos job.
//!
//! The four acceptance properties are `hostprof_net::conformance`'s, the
//! same functions the root-package suite (`tests/chaos_observer.rs`) runs at
//! 1000 cases each and `hostprof chaos` sweeps in CI. This crate-level
//! suite keeps a smaller default seed matrix (fast in debug builds), its
//! own caps for property (c), and two tests of its own: the exhaustive
//! boundary re-split and the pure-garbage flood. The seed window is
//! `conformance::seed_window`'s (the CI matrix shifts it; release jobs
//! raise the case count).

use hostprof_net::conformance::{self, seed_window, CaseStats};
use hostprof_net::observer::ObserverConfig;
use hostprof_net::packet::Transport;
use hostprof_net::{chaos, ChaosConfig, Packet, SniObserver};

/// A case's traffic follows from its seed alone, so this suite sweeps a
/// window this far above the one the root suite and CI's `hostprof chaos`
/// steps sweep (1000 seeds from each matrix base): the draws stay disjoint.
const WINDOW_OFFSET: u64 = 5_000;

/// One property over this suite's window (256 cases when the environment
/// names no count), failing on the first violating seed.
fn sweep(property: impl Fn(u64) -> Result<CaseStats, String>) -> CaseStats {
    let cases = seed_window(256).map(|seed| property(seed + WINDOW_OFFSET));
    cases
        .sum::<Result<CaseStats, String>>()
        .unwrap_or_else(|violation| panic!("{violation}"))
}

/// ISSUE property (a): no mutated stream may panic the observer, and the
/// error taxonomy must balance exactly on every one.
#[test]
fn aggressive_chaos_never_panics_and_taxonomy_balances() {
    let total = sweep(conformance::errors_are_classified);
    assert!(total.mutated_flows > 0, "aggressive chaos must mutate");
}

/// ISSUE property (b): flows the chaos pass certifies clean must yield
/// bit-identical observations with and without chaos.
#[test]
fn clean_flow_observations_are_bit_identical_under_chaos() {
    let total = sweep(conformance::clean_flows_survive_bit_identical);
    assert!(
        total.clean_observations > 0,
        "the clean population must not be empty"
    );
}

/// ISSUE property (c): `pending` reassembly memory stays under the
/// configured caps after every single packet, even under aggressive chaos
/// with caps tight enough that cap enforcement fires at test scale.
#[test]
fn pending_memory_stays_under_caps_per_packet() {
    let caps = ObserverConfig {
        max_pending_bytes: 2_048,
        max_pending_segments: 8,
        max_pending_flows: 8,
        max_total_pending_bytes: 8_192,
    };
    sweep(|seed| conformance::pending_memory_stays_under_caps(seed, caps));
}

/// ISSUE property (d): chaos is replayable — the same seed over the same
/// input yields identical mutated bytes, chaos stats and observer stats.
#[test]
fn same_seed_yields_identical_stats_and_stream() {
    sweep(conformance::same_seed_replays_identically);
}

/// Exhaustive re-split: a ClientHello delivered as `[..i]` + `[i..]` for
/// *every* interior boundary `i` must reassemble to the same hostname. This
/// is the deterministic backbone behind the randomized re-split mutation.
#[test]
fn tcp_resplit_at_every_boundary_recovers_the_hostname() {
    use bytes::Bytes;
    use hostprof_net::packet::Endpoint;

    let record = hostprof_net::tls::ClientHello::for_hostname("boundary.example.com").encode();
    for cut in 1..record.len() {
        let mk = |t: u64, chunk: &[u8]| Packet {
            t_ms: t,
            src: Endpoint::new(0x0a00_0001, 40_000 + (cut % 20_000) as u16),
            dst: Endpoint::new(0x0a00_0002, 443),
            transport: Transport::Tcp,
            payload: Bytes::from(chunk.to_vec()),
        };
        let mut obs = SniObserver::new();
        obs.process(&mk(0, &record[..cut]));
        obs.process(&mk(1, &record[cut..]));
        let hosts: Vec<&str> = obs
            .observations()
            .iter()
            .map(|o| o.hostname.as_str())
            .collect();
        assert_eq!(
            hosts,
            vec!["boundary.example.com"],
            "boundary {cut} of {} failed to reassemble",
            record.len()
        );
        assert_eq!(
            obs.pending_bytes(),
            0,
            "boundary {cut} leaked pending bytes"
        );
    }
}

/// Garbage-only input: every flavor of injected garbage must be absorbed
/// as a typed error or skip with balanced taxonomy, and the observer must
/// never *fabricate* a hostname. (Truncated-ClientHello garbage segments
/// can legitimately concatenate into a complete record — in that case the
/// only hostname recoverable is the `.invalid` one actually on the wire.)
#[test]
fn pure_garbage_floods_never_fabricate_hostnames() {
    for seed in seed_window(256).take(64) {
        let cfg = ChaosConfig {
            garbage_flows: 48,
            ..ChaosConfig::quiescent(seed)
        };
        let out = chaos::apply(&cfg, &[]);
        let mut obs = SniObserver::new().with_dns_harvesting();
        obs.process_stream(&out.packets);
        for o in obs.observations() {
            assert!(
                o.hostname.ends_with(".invalid"),
                "seed {seed}: fabricated hostname {:?}",
                o.hostname
            );
        }
        assert_eq!(
            obs.stats().parse_errors,
            obs.stats().taxonomy_total(),
            "seed {seed}"
        );
    }
}
