//! Allocation budget of a tracked page visit.
//!
//! The CTR replay calls `AdNetwork::observe_visit` for every page visit
//! and reads the cookie profile for roughly one visit in ten (a targeted
//! impression). A visit therefore only moves the window — the site's host
//! id pushed, the oldest dropped — and the profile is folded from the
//! world's categories when an ad reads it. This test states that as a
//! number: with a counting global allocator, a visit into a full window
//! allocates nothing, whatever the window's length. Cloning the site's
//! category vector into the window costs one allocation per visit, and
//! rebuilding the profile inside `observe_visit` at least one per visit in
//! the window; either fails it.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use counting_alloc::ALLOCATIONS;
use hostprof_ads::{AdNetwork, AdNetworkConfig};
use hostprof_synth::{HostId, HostKind, UserId, World, WorldConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::Ordering;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

/// The most allocations any one of `window` visits makes once the user's
/// window has been full for `window` visits already.
fn worst_steady_visit(world: &World, pages: &[HostId], window: usize) -> u64 {
    let mut network = AdNetwork::new(AdNetworkConfig {
        profile_window: window,
        tracker_coverage: 1.0,
        ..AdNetworkConfig::default()
    });
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut visit = |i: usize| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        network.observe_visit(&mut rng, UserId(0), pages[i % pages.len()]);
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    (0..2 * window).for_each(|i| {
        visit(i);
    });
    let worst = (2 * window..3 * window).map(&mut visit).max();
    assert!(!network.cookie_profile(world, UserId(0)).is_empty());
    worst.expect("a window holds at least one visit")
}

#[test]
fn a_visit_into_a_full_window_allocates_a_constant() {
    let world = World::generate(&WorldConfig::tiny());
    let pages: Vec<HostId> = world
        .hosts()
        .iter()
        .filter(|h| matches!(h.kind, HostKind::Site | HostKind::Core))
        .map(|h| h.id)
        .collect();
    let (short, long) = (
        worst_steady_visit(&world, &pages, 8),
        worst_steady_visit(&world, &pages, 200),
    );
    eprintln!("steady-state visit allocations: window 8 → {short}, window 200 → {long}");
    assert!(
        long == 0,
        "a visit into a 200-visit window allocated {long} times"
    );
    assert_eq!(
        short, long,
        "allocations per visit depend on the window length"
    );
}
