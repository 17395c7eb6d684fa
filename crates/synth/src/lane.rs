//! Lane-by-lane columnar trace generation.
//!
//! [`Trace::generate`](crate::trace::Trace::generate) materializes every
//! request as a struct, globally sorts, and builds a per-user index — at
//! a million users that is several extra copies of the whole trace held
//! at once. This module generates the same trace **one user lane at a
//! time**: each user's requests are emitted into a small scratch buffer,
//! sorted, and appended to a [`TraceColumns`] store; only the columns
//! themselves (12 bytes per observation) are ever resident.
//!
//! Bit-identity with the materialized path is a theorem, not a hope:
//!
//! * `Trace::generate` consumes its single ChaCha8 RNG strictly per-user
//!   in user-id order, so running the shared per-user emitter
//!   ([`trace::emit_user_requests`](crate::trace)) against the same RNG
//!   yields the exact same draws;
//! * the global sort key is `(t_ms, user, host)` with a stable sort, so
//!   restricted to one user it degenerates to `(t_ms, host)` — sorting
//!   each lane locally reproduces `trace.user_requests(u)` exactly.
//!
//! `tests/columnar_equivalence.rs` pins both properties with proptest.

use crate::config::TraceConfig;
use crate::ids::UserId;
use crate::sampling::WeightedIndex;
use crate::trace::{emit_user_requests, DIURNAL};
use crate::user::Population;
use crate::world::World;
use hostprof_store::{HostInterner, TraceColumns, TraceColumnsBuilder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Approximate first-flight wire bytes of one request: a deterministic
/// function of the hostname so both generation paths agree — TLS record
/// framing plus the SNI extension carrying the name.
#[inline]
pub fn first_flight_bytes(hostname_len: usize) -> u32 {
    197 + hostname_len as u32
}

/// An interner pre-seeded with every world hostname in `HostId` order,
/// so interned ids coincide with world ids (`intern id == HostId.0`).
pub fn world_interner(world: &World) -> HostInterner {
    let mut interner = HostInterner::new();
    for host in world.hosts() {
        let id = interner.intern(&host.name);
        debug_assert_eq!(id, host.id.0);
    }
    interner
}

/// Stream the trace one user lane at a time: `f(user, lane)` receives
/// each user's `(t_ms, host)` requests in final (time, host) order, users
/// ascending. Nothing but the current lane is resident.
pub fn for_each_user_lane(
    world: &World,
    population: &Population,
    config: &TraceConfig,
    mut f: impl FnMut(UserId, &[(u64, u32)]),
) {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let hour_sampler = WeightedIndex::new(&DIURNAL).expect("diurnal weights positive");
    let mut lane: Vec<(u64, u32)> = Vec::new();
    for user in population.users() {
        lane.clear();
        emit_user_requests(world, user, config, &hour_sampler, &mut rng, |t, host| {
            lane.push((t, host.0));
        });
        // Stable, same key as the global (t, user, host) sort restricted
        // to this user.
        lane.sort_by_key(|&(t, h)| (t, h));
        f(user.id, &lane);
    }
}

/// Generate the trace directly in columnar form. Same seeds, same
/// observations, ~12 bytes per event resident instead of a materialized
/// `Vec<Request>` plus index.
pub fn generate_columnar(
    world: &World,
    population: &Population,
    config: &TraceConfig,
) -> TraceColumns {
    let mut builder = TraceColumnsBuilder::new(world_interner(world), config.days);
    for_each_user_lane(world, population, config, |user, lane| {
        for &(t, host) in lane {
            builder.push_event(
                user.0,
                t,
                host,
                first_flight_bytes(world.hostname(crate::ids::HostId(host)).len()),
            );
        }
    });
    builder.finish(population.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PopulationConfig, WorldConfig};
    use crate::trace::{Trace, DAY_MS};

    fn setup() -> (World, Population, Trace, TraceColumns) {
        let world = World::generate(&WorldConfig::tiny());
        let pop = Population::generate(&world, &PopulationConfig::tiny());
        let cfg = TraceConfig::tiny();
        let trace = Trace::generate(&world, &pop, &cfg);
        let cols = generate_columnar(&world, &pop, &cfg);
        (world, pop, trace, cols)
    }

    #[test]
    fn columnar_matches_materialized_per_user() {
        let (_, pop, trace, cols) = setup();
        assert_eq!(cols.num_users(), trace.num_users());
        assert_eq!(cols.num_events(), trace.requests().len());
        for u in 0..pop.len() as u32 {
            let legacy: Vec<(u64, u32)> = trace
                .user_requests(UserId(u))
                .map(|r| (r.t_ms, r.host.0))
                .collect();
            let columnar: Vec<(u64, u32)> = cols
                .user_times(u)
                .iter()
                .zip(cols.user_hosts(u))
                .map(|(&t, &h)| (t as u64, h))
                .collect();
            assert_eq!(columnar, legacy, "user {u}");
        }
    }

    #[test]
    fn interner_ids_equal_world_ids() {
        let (world, _, _, cols) = setup();
        for host in world.hosts() {
            assert_eq!(cols.interner().name(host.id.0), host.name);
        }
    }

    #[test]
    fn daily_sequences_match() {
        let (_, _, trace, cols) = setup();
        for day in 0..trace.days() {
            let legacy: Vec<(u32, Vec<u32>)> = trace
                .daily_sequences(day)
                .into_iter()
                .map(|(u, seq)| (u.0, seq.into_iter().map(|h| h.0).collect()))
                .collect();
            assert_eq!(cols.daily_sequences(day, DAY_MS), legacy, "day {day}");
        }
    }

    #[test]
    fn lanes_stream_in_user_order_without_global_state() {
        let world = World::generate(&WorldConfig::tiny());
        let pop = Population::generate(&world, &PopulationConfig::tiny());
        let cfg = TraceConfig::tiny();
        let mut last_user = None;
        let mut total = 0usize;
        for_each_user_lane(&world, &pop, &cfg, |user, lane| {
            assert!(last_user < Some(user.0), "ascending user order");
            last_user = Some(user.0);
            total += lane.len();
            for w in lane.windows(2) {
                assert!(w[0] <= w[1], "lanes are sorted");
            }
        });
        assert_eq!(total, Trace::generate(&world, &pop, &cfg).requests().len());
    }
}
