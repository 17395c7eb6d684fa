//! # hostprof-defense
//!
//! Seeded, replayable trace/wire-level defenses against the passive
//! network observer (DESIGN.md §15). Each [`Defense`] is a deterministic
//! transform applied *between* the synthetic world and observer capture:
//! the eavesdropper trains and profiles on exactly what survives the
//! defense, so degradation curves measure the real pipeline end to end.
//!
//! Determinism contract: every per-event decision (decoy counts, decoy
//! hostnames, padding offsets) is a pure function of
//! `(seed, t_ms, client, hostname)` via splitmix64 over an FNV-1a
//! hostname hash — the same stateless scheme `net::synthesize` uses for
//! wire randomness. No RNG state is threaded anywhere, so transforms
//! replay bitwise at any lane count and the naive `oracle::defense`
//! twin can reproduce them from the written spec alone.
//!
//! Identity invariants (property- and golden-enforced from the main
//! crate): `Ech { adoption: 0.0 }`, `Dummy { rate: 0.0 }`,
//! `PadConstant { pad_per_event: 0 }`, `PadAdaptive { intensity: 0.0 }`
//! and `Doh { adoption: 0.0 }` leave the event stream untouched, and
//! `Nat { users_per_ip: 1 }` maps every client to the same source IP as
//! per-client addressing — the defended pipeline at each identity point
//! is bit-equal to the undefended one.

use hostprof_net::synthesize::{Addressing, RequestEvent, TrafficSynthesizer, WireOverride};

/// Resolver hostname DoH-migrated clients leak instead of query names.
pub const DOH_RESOLVER: &str = "doh.defense.example";

/// How many of the catalog's most-popular hostnames constant-rate
/// padding rotates through.
pub const PAD_COVER_PREFIX: usize = 16;

/// Half-width of the popularity-rank neighborhood adaptive padding
/// draws its cover hostnames from.
pub const ADAPTIVE_NEIGHBORHOOD: usize = 8;

/// One trace/wire-level defense at a swept intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Defense {
    /// The `adoption` fraction of sites — most popular first — deploy
    /// ECH: their connections hide the hostname entirely. Site sets are
    /// nested along the sweep, so recovery is monotone by construction.
    Ech {
        /// Fraction of sites (by popularity rank) deploying ECH, 0–1.
        adoption: f64,
    },
    /// Clients inject decoy lookups of real (popularity-skewed) catalog
    /// hostnames at a mean of `rate` decoys per real request.
    Dummy {
        /// Mean decoys injected per real request.
        rate: f64,
    },
    /// Constant-rate padding: every real request is followed by exactly
    /// `pad_per_event` cover connections rotating through the catalog's
    /// most popular hostnames.
    PadConstant {
        /// Cover connections per real request.
        pad_per_event: u32,
    },
    /// Adaptive padding: a mean of `intensity` cover connections per
    /// real request, drawn from the visited host's popularity-rank
    /// neighborhood at exponentially spaced offsets — cover that mimics
    /// the session instead of the global head.
    PadAdaptive {
        /// Mean cover connections per real request.
        intensity: f64,
    },
    /// NAT pool mixing: `users_per_ip` clients collapse into one source
    /// address, blending their sequences at the observer.
    Nat {
        /// Clients per NAT address (1 = identity).
        users_per_ip: u32,
    },
    /// The `adoption` fraction of clients migrate to DoH + ECH: their
    /// lookups travel inside TLS to [`DOH_RESOLVER`] and their page
    /// connections hide the hostname. Client sets are nested along the
    /// sweep.
    Doh {
        /// Fraction of clients migrated, 0–1.
        adoption: f64,
    },
}

impl Defense {
    /// Short stable name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Defense::Ech { .. } => "ech",
            Defense::Dummy { .. } => "dummy",
            Defense::PadConstant { .. } => "pad_constant",
            Defense::PadAdaptive { .. } => "pad_adaptive",
            Defense::Nat { .. } => "nat",
            Defense::Doh { .. } => "doh",
        }
    }

    /// True at the sweep point where the defense is a no-op.
    pub fn is_identity(&self) -> bool {
        match *self {
            Defense::Ech { adoption } => adoption == 0.0,
            Defense::Dummy { rate } => rate == 0.0,
            Defense::PadConstant { pad_per_event } => pad_per_event == 0,
            Defense::PadAdaptive { intensity } => intensity == 0.0,
            Defense::Nat { users_per_ip } => users_per_ip <= 1,
            Defense::Doh { adoption } => adoption == 0.0,
        }
    }
}

/// The world's hostnames ranked by popularity (descending, host-id
/// ascending on ties) — the shared ranking every defense draws cover
/// names and ECH adoption prefixes from.
#[derive(Debug, Clone)]
pub struct HostCatalog {
    names: Vec<String>,
    /// name → rank, for neighborhood lookups.
    rank: std::collections::HashMap<String, usize>,
}

impl HostCatalog {
    /// Build from `(host_id, name, popularity)` rows in any order.
    pub fn from_hosts<I>(hosts: I) -> Self
    where
        I: IntoIterator<Item = (u32, String, f64)>,
    {
        let mut rows: Vec<(u32, String, f64)> = hosts.into_iter().collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        let names: Vec<String> = rows.into_iter().map(|(_, n, _)| n).collect();
        let rank = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        Self { names, rank }
    }

    /// Number of catalog hostnames.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the catalog holds no hostnames.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Hostname at popularity rank `i` (0 = most popular).
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Popularity rank of a hostname, if it is in the catalog.
    pub fn rank_of(&self, name: &str) -> Option<usize> {
        self.rank.get(name).copied()
    }
}

/// splitmix64 — the shared stateless mixing function.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a 64 over a hostname.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Map a hash to the unit interval, matching `net::synthesize`'s
/// threshold-draw convention (53 mantissa bits, always < 1.0).
pub fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`Defense`] bound to a catalog and seed: the deterministic
/// transform the bridge applies between trace and capture.
#[derive(Debug, Clone)]
pub struct DefensePlan {
    defense: Defense,
    catalog: HostCatalog,
    seed: u64,
    /// ECH adoption prefix length: catalog ranks `< ech_cut` are hidden.
    ech_cut: usize,
}

impl DefensePlan {
    /// Bind a defense to a catalog and seed.
    pub fn new(defense: Defense, catalog: HostCatalog, seed: u64) -> Self {
        let ech_cut = match defense {
            Defense::Ech { adoption } => {
                let n = catalog.len() as f64;
                (adoption.clamp(0.0, 1.0) * n).round() as usize
            }
            _ => 0,
        };
        Self {
            defense,
            catalog,
            seed,
            ech_cut,
        }
    }

    /// The bound defense.
    pub fn defense(&self) -> Defense {
        self.defense
    }

    /// The shared popularity catalog.
    pub fn catalog(&self) -> &HostCatalog {
        &self.catalog
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-event hash: the root of every decoy/padding draw. Keyed by
    /// the plan seed so different defense runs decorrelate, and by the
    /// same `(t, client, hostname)` fields the wire layer hashes so the
    /// oracle twin can recompute it from the event alone.
    fn event_hash(&self, t_ms: u64, client: u32, hostname: &str) -> u64 {
        splitmix64(
            fnv1a(hostname.as_bytes())
                ^ splitmix64(t_ms)
                ^ (client as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
                ^ splitmix64(self.seed ^ 0xdefe_45e0),
        )
    }

    /// Whether this hostname's site has deployed ECH under the plan.
    pub fn ech_hidden(&self, hostname: &str) -> bool {
        matches!(self.defense, Defense::Ech { .. })
            && self
                .catalog
                .rank_of(hostname)
                .is_some_and(|r| r < self.ech_cut)
    }

    /// Whether this client has migrated to DoH under the plan.
    pub fn doh_migrated(&self, client: u32) -> bool {
        let Defense::Doh { adoption } = self.defense else {
            return false;
        };
        let h =
            splitmix64(self.seed ^ 0xd0e0 ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        unit(h) < adoption
    }

    /// The synthesizer the defended capture runs with: NAT mixing swaps
    /// the addressing; every other defense leaves the base untouched.
    pub fn synthesizer(&self, base: &TrafficSynthesizer) -> TrafficSynthesizer {
        let mut s = base.clone();
        if let Defense::Nat { users_per_ip } = self.defense {
            let base_ip = match s.addressing {
                Addressing::PerClient { base_ip } => base_ip,
                Addressing::Nat { base_ip, .. } => base_ip,
            };
            s.addressing = Addressing::Nat {
                base_ip,
                clients_per_ip: users_per_ip.max(1),
            };
        }
        s
    }

    /// Per-event wire override: ECH sites hide their hostname; DoH
    /// clients tunnel lookups to the resolver and hide page hostnames.
    pub fn wire_override(&self, client: u32, hostname: &str) -> WireOverride<'_> {
        if self.ech_hidden(hostname) {
            WireOverride {
                force_ech: true,
                ..Default::default()
            }
        } else if self.doh_migrated(client) {
            WireOverride {
                force_ech: true,
                force_dns: true,
                doh_resolver: Some(DOH_RESOLVER),
            }
        } else {
            WireOverride::default()
        }
    }

    /// Append the decoy/cover events injected after one real event.
    /// Offsets are strictly forward in time so padding can never reorder
    /// or shadow the real observation it covers.
    fn injected_into(&self, t_ms: u64, client: u32, hostname: &str, out: &mut Vec<RequestEvent>) {
        let n = self.catalog.len();
        if n == 0 {
            return;
        }
        let eh = self.event_hash(t_ms, client, hostname);
        match self.defense {
            Defense::Dummy { rate } => {
                let rate = rate.max(0.0);
                let k = rate.floor() as usize
                    + usize::from(unit(splitmix64(eh ^ 0x00d0)) < rate.fract());
                for i in 0..k {
                    // Popularity-skewed draw: u² biases toward the head,
                    // like real cover extensions recommend.
                    let u = unit(splitmix64(eh ^ (0xd117 + i as u64)));
                    let idx = ((u * u * n as f64) as usize).min(n - 1);
                    out.push(RequestEvent {
                        t_ms: t_ms + 7 + 13 * i as u64,
                        client,
                        hostname: self.catalog.name(idx).to_string(),
                    });
                }
            }
            Defense::PadConstant { pad_per_event } => {
                let prefix = PAD_COVER_PREFIX.min(n);
                for i in 0..pad_per_event as usize {
                    let idx = ((eh as usize).wrapping_add(i)) % prefix;
                    out.push(RequestEvent {
                        t_ms: t_ms + 3 + 5 * i as u64,
                        client,
                        hostname: self.catalog.name(idx).to_string(),
                    });
                }
            }
            Defense::PadAdaptive { intensity } => {
                let intensity = intensity.max(0.0);
                let k = intensity.floor() as usize
                    + usize::from(unit(splitmix64(eh ^ 0x0ada)) < intensity.fract());
                let anchor = self.catalog.rank_of(hostname).unwrap_or_else(|| {
                    let u = unit(splitmix64(eh ^ 0x0a0c));
                    ((u * u * n as f64) as usize).min(n - 1)
                });
                let width = 2 * ADAPTIVE_NEIGHBORHOOD + 1;
                for i in 0..k {
                    let d = (splitmix64(eh ^ (0xada0 + i as u64)) % width as u64) as i64
                        - ADAPTIVE_NEIGHBORHOOD as i64;
                    let idx = (anchor as i64 + d).clamp(0, n as i64 - 1) as usize;
                    out.push(RequestEvent {
                        // Exponentially spaced cover, mimicking burst
                        // tails rather than a fixed cadence.
                        t_ms: t_ms + (1u64 << i.min(20)) * 250,
                        client,
                        hostname: self.catalog.name(idx).to_string(),
                    });
                }
            }
            Defense::Ech { .. } | Defense::Nat { .. } | Defense::Doh { .. } => {}
        }
    }

    /// Apply the trace-level half of the defense: the real events plus
    /// any injected cover, in global time order (stable sort, so
    /// same-millisecond events keep their trace order and identity
    /// points reproduce the input bit for bit).
    pub fn transform(&self, events: &[RequestEvent]) -> Vec<RequestEvent> {
        let mut out: Vec<RequestEvent> = Vec::with_capacity(events.len());
        for ev in events {
            out.push(ev.clone());
            self.injected_into(ev.t_ms, ev.client, &ev.hostname, &mut out);
        }
        out.sort_by_key(|e| e.t_ms);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(n: usize) -> HostCatalog {
        HostCatalog::from_hosts((0..n).map(|i| {
            (
                i as u32,
                format!("host{i}.test"),
                1.0 / (i as f64 + 1.0), // rank i = host i
            )
        }))
    }

    fn events() -> Vec<RequestEvent> {
        (0..50)
            .map(|i| RequestEvent {
                t_ms: i * 100,
                client: (i % 5) as u32,
                hostname: format!("host{}.test", i % 20),
            })
            .collect()
    }

    #[test]
    fn catalog_ranks_by_popularity_with_id_tiebreak() {
        let c = HostCatalog::from_hosts(vec![
            (2, "b.test".to_string(), 0.5),
            (1, "a.test".to_string(), 0.5),
            (0, "c.test".to_string(), 0.9),
        ]);
        assert_eq!(c.name(0), "c.test");
        assert_eq!(c.name(1), "a.test"); // id 1 before id 2 on the tie
        assert_eq!(c.name(2), "b.test");
        assert_eq!(c.rank_of("b.test"), Some(2));
    }

    #[test]
    fn identity_points_leave_events_untouched() {
        let evs = events();
        for d in [
            Defense::Ech { adoption: 0.0 },
            Defense::Dummy { rate: 0.0 },
            Defense::PadConstant { pad_per_event: 0 },
            Defense::PadAdaptive { intensity: 0.0 },
            Defense::Doh { adoption: 0.0 },
            Defense::Nat { users_per_ip: 1 },
        ] {
            assert!(d.is_identity(), "{d:?}");
            let plan = DefensePlan::new(d, catalog(20), 7);
            assert_eq!(plan.transform(&evs), evs, "{d:?}");
            for ev in &evs {
                assert_eq!(
                    plan.wire_override(ev.client, &ev.hostname),
                    WireOverride::default(),
                    "{d:?}"
                );
            }
        }
    }

    #[test]
    fn nat_pool_of_one_matches_per_client_addressing() {
        let base = TrafficSynthesizer::default();
        let plan = DefensePlan::new(Defense::Nat { users_per_ip: 1 }, catalog(4), 1);
        let defended = plan.synthesizer(&base);
        for c in 0..64 {
            assert_eq!(
                base.addressing.client_ip(c),
                defended.addressing.client_ip(c)
            );
        }
    }

    #[test]
    fn ech_adoption_sets_are_nested_and_cover_the_catalog_at_full() {
        let c = catalog(40);
        let mut prev: Vec<bool> = vec![false; 40];
        for step in 0..=10 {
            let plan = DefensePlan::new(
                Defense::Ech {
                    adoption: step as f64 / 10.0,
                },
                c.clone(),
                1,
            );
            let now: Vec<bool> = (0..40)
                .map(|i| plan.ech_hidden(&format!("host{i}.test")))
                .collect();
            for i in 0..40 {
                assert!(!prev[i] || now[i], "rank {i} left the set at {step}");
            }
            prev = now;
        }
        assert!(prev.iter().all(|&h| h), "full adoption hides every site");
    }

    #[test]
    fn doh_migration_sets_are_nested_in_adoption() {
        let c = catalog(8);
        let mut prev: Vec<bool> = vec![false; 100];
        for step in 0..=10 {
            let plan = DefensePlan::new(
                Defense::Doh {
                    adoption: step as f64 / 10.0,
                },
                c.clone(),
                3,
            );
            let now: Vec<bool> = (0..100).map(|cl| plan.doh_migrated(cl)).collect();
            for (i, (&p, &n)) in prev.iter().zip(&now).enumerate() {
                assert!(!p || n, "client {i} left the set at {step}");
            }
            prev = now;
        }
        assert!(prev.iter().all(|&m| m), "full adoption migrates everyone");
    }

    #[test]
    fn padding_keeps_every_real_event_as_a_subsequence() {
        let evs = events();
        for d in [
            Defense::Dummy { rate: 1.7 },
            Defense::PadConstant { pad_per_event: 3 },
            Defense::PadAdaptive { intensity: 2.3 },
        ] {
            let plan = DefensePlan::new(d, catalog(20), 11);
            let out = plan.transform(&evs);
            assert!(out.len() > evs.len(), "{d:?} injected nothing");
            // Real events survive, in order, as a subsequence.
            let mut it = out.iter();
            for ev in &evs {
                assert!(it.any(|o| o == ev), "{d:?} dropped {ev:?}");
            }
        }
    }

    #[test]
    fn transforms_are_deterministic_and_time_sorted() {
        let evs = events();
        let plan = DefensePlan::new(Defense::Dummy { rate: 2.0 }, catalog(20), 5);
        let a = plan.transform(&evs);
        let b = plan.transform(&evs);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].t_ms <= w[1].t_ms));
    }

    #[test]
    fn cover_hostnames_come_from_the_catalog() {
        let evs = events();
        let c = catalog(20);
        for d in [
            Defense::Dummy { rate: 2.0 },
            Defense::PadConstant { pad_per_event: 2 },
            Defense::PadAdaptive { intensity: 2.0 },
        ] {
            let plan = DefensePlan::new(d, c.clone(), 9);
            for ev in plan.transform(&evs) {
                assert!(
                    plan.catalog().rank_of(&ev.hostname).is_some(),
                    "{d:?} emitted out-of-world hostname {}",
                    ev.hostname
                );
            }
        }
    }
}
