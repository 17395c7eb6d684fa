//! The chaos conformance harness: the four acceptance properties of the
//! fault-injection subsystem, each exercised over **1000+ seeded cases**.
//!
//! Each case derives a fresh traffic stream (shape varies with the seed),
//! mutates it with `net::chaos`, and checks one property:
//!
//! * **(a)** no mutated stream panics the observer, and the error-taxonomy
//!   counters account for every parse error exactly;
//! * **(b)** flows the chaos pass certifies *clean* yield bit-identical
//!   observations with and without chaos;
//! * **(c)** reassembly (`pending`) memory never exceeds the configured
//!   caps, after every single packet;
//! * **(d)** the same seed replays the same chaos: identical mutated
//!   bytes, identical chaos stats, identical observer stats.
//!
//! The properties themselves live in `net::conformance`, shared with the
//! net crate's own suite and `hostprof chaos`; this file owns the case
//! count, the caps of (c) and the non-vacuity floors. The vendored proptest
//! macro defaults to 64 cases, so the sweep is an explicit seed loop over
//! `conformance::seed_window` (default 1000 cases; the environment can
//! shift and resize it).

use hostprof::net::conformance::{self, seed_window, CaseStats};
use hostprof::net::observer::ObserverConfig;

/// One property over the window, failing on the first violating seed.
fn sweep(property: impl Fn(u64) -> Result<CaseStats, String>) -> CaseStats {
    let cases = seed_window(1000).map(property);
    cases
        .sum::<Result<CaseStats, String>>()
        .unwrap_or_else(|violation| panic!("{violation}"))
}

/// Property (a): 1000+ aggressively mutated streams, zero panics, and on
/// every one `parse_errors` decomposes exactly into the taxonomy buckets
/// while the impossible-state counter stays zero.
#[test]
fn prop_a_no_mutated_stream_panics_and_errors_are_classified() {
    let total = sweep(conformance::errors_are_classified);
    assert!(
        total.mutated_flows > 0,
        "aggressive chaos must actually mutate"
    );
}

/// Property (b): for every chaos-certified clean flow, a solo replay of
/// the flow's original packets yields observations that all appear
/// verbatim (bit-identical `Observation` values) in the chaotic run.
#[test]
fn prop_b_clean_flow_observations_survive_bit_identical() {
    let total = sweep(conformance::clean_flows_survive_bit_identical);
    assert!(
        total.clean_observations > 1000,
        "the clean population must be non-trivial ({})",
        total.clean_observations
    );
}

/// Property (c): with deliberately tiny caps and aggressive chaos, the
/// observer's pending-reassembly memory and flow count never exceed the
/// configured ceilings at any packet boundary.
#[test]
fn prop_c_pending_memory_never_exceeds_caps() {
    let caps = ObserverConfig {
        max_pending_bytes: 1_536,
        max_pending_segments: 8,
        max_pending_flows: 6,
        max_total_pending_bytes: 6_144,
    };
    sweep(|seed| conformance::pending_memory_stays_under_caps(seed, caps));
}

/// Property (d): equal seeds replay equal chaos — mutated packets, chaos
/// stats, observer stats and observations are all identical across runs.
#[test]
fn prop_d_same_seed_replays_identical_chaos_and_stats() {
    sweep(conformance::same_seed_replays_identically);
}
