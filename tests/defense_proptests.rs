//! Differential property tests for the defense transforms (DESIGN.md
//! §15): 500 seeded cases per property, production `DefensePlan` vs the
//! naive `oracle::defense` twin. Same homemade persistence scheme as
//! `differential_proptests.rs`: every case derives from a printable
//! 16-hex-digit seed, failures panic with that seed, and
//! `tests/regressions/defense_proptests.txt` holds previously failing
//! seeds (`cc <seed> # note` lines) replayed *first* on every run.
//!
//! Four properties, one per defense invariant:
//!
//! 1. **Differential** — the full trace transform and every per-event
//!    wire decision match the naive reference exactly (the transform is
//!    integer/string-valued; there is no tolerance).
//! 2. **Identity points** — `ech@0`, `dummy@0`, `pad@0`, `adaptive@0`,
//!    `doh@0` and `nat@1` are bit-level no-ops, down to the lowered
//!    packet bytes and the NAT source address.
//! 3. **Padding never drops** — every real event survives any defense,
//!    in trace order, and injected cover only ever uses catalog
//!    hostnames at strictly-later timestamps.
//! 4. **Nested sweeps** — ECH site sets and DoH client sets only grow
//!    along their adoption axes, so recovery is monotone by
//!    construction.

use hostprof::defense::{Defense, DefensePlan, HostCatalog};
use hostprof::net::{RequestEvent, TrafficSynthesizer, WireOverride};
use hostprof_oracle::defense::diff_transform;

mod common;
use common::{schedule, splitmix};

/// A random popularity catalog: `n` hosts with hash-drawn popularities
/// (ties happen — 1-in-8 rows copy the previous popularity, exercising
/// the host-id tiebreak).
fn catalog(rng: &mut u64, n: usize) -> HostCatalog {
    let mut pops = Vec::with_capacity(n);
    for i in 0..n {
        let p = if i > 0 && splitmix(rng).is_multiple_of(8) {
            pops[i - 1]
        } else {
            (splitmix(rng) >> 11) as f64 / (1u64 << 53) as f64
        };
        pops.push(p);
    }
    HostCatalog::from_hosts((0..n).map(|i| (i as u32, format!("host{i}.test"), pops[i])))
}

/// A random event stream over `n_hosts` hostnames and `n_clients`
/// clients. Roughly one event in six lands on an out-of-catalog
/// hostname (rank lookups must not assume membership), and bursts of
/// equal timestamps exercise sort stability.
fn events(rng: &mut u64, n_hosts: usize, n_clients: u32) -> Vec<RequestEvent> {
    let len = 5 + (splitmix(rng) % 60) as usize;
    let mut t = 0u64;
    (0..len)
        .map(|_| {
            if !splitmix(rng).is_multiple_of(3) {
                t += splitmix(rng) % 500;
            }
            let hostname = if splitmix(rng).is_multiple_of(6) {
                format!("offworld{}.test", splitmix(rng) % 9)
            } else {
                format!("host{}.test", splitmix(rng) % n_hosts.max(1) as u64)
            };
            RequestEvent {
                t_ms: t,
                client: (splitmix(rng) % n_clients.max(1) as u64) as u32,
                hostname,
            }
        })
        .collect()
}

/// A random defense at a random (non-identity-biased) intensity.
fn any_defense(rng: &mut u64) -> Defense {
    let u = (splitmix(rng) >> 11) as f64 / (1u64 << 53) as f64;
    match splitmix(rng) % 6 {
        0 => Defense::Ech { adoption: u },
        1 => Defense::Dummy { rate: u * 4.0 },
        2 => Defense::PadConstant {
            pad_per_event: (splitmix(rng) % 6) as u32,
        },
        3 => Defense::PadAdaptive { intensity: u * 4.0 },
        4 => Defense::Nat {
            users_per_ip: 1 + (splitmix(rng) % 8) as u32,
        },
        _ => Defense::Doh { adoption: u },
    }
}

// ---------------------------------------------------------------------
// Property 1: production transform + wire decisions vs the oracle twin.
// ---------------------------------------------------------------------

#[test]
fn defense_transform_matches_oracle_on_500_seeded_cases() {
    for seed in schedule("defense_proptests", 0x00de_f311) {
        let mut rng = seed;
        let n_hosts = 2 + (splitmix(&mut rng) % 40) as usize;
        let c = catalog(&mut rng, n_hosts);
        let n_clients = 1 + (splitmix(&mut rng) % 10) as u32;
        let evs = events(&mut rng, n_hosts, n_clients);
        let defense = any_defense(&mut rng);
        let plan = DefensePlan::new(defense, c, splitmix(&mut rng));

        let report = diff_transform(&plan, &evs);
        assert!(
            report.is_clean(),
            "{defense:?} diverged — add `cc {seed:016x}` to \
             tests/regressions/defense_proptests.txt\n{}",
            report.summary()
        );
        assert!(report.items_checked > 0, "nothing compared for {seed:016x}");
    }
}

// ---------------------------------------------------------------------
// Property 2: identity points are bit-level no-ops, down to the wire.
// ---------------------------------------------------------------------

#[test]
fn identity_points_are_packet_level_noops_on_500_seeded_cases() {
    let synth = TrafficSynthesizer::default();
    for seed in schedule("defense_proptests", 0x00de_f1de) {
        let mut rng = seed;
        let n_hosts = 2 + (splitmix(&mut rng) % 30) as usize;
        let c = catalog(&mut rng, n_hosts);
        let n_clients = 1 + (splitmix(&mut rng) % 8) as u32;
        let evs = events(&mut rng, n_hosts, n_clients);
        let plan_seed = splitmix(&mut rng);
        let cc = format!("add `cc {seed:016x}` to tests/regressions/defense_proptests.txt");
        for d in [
            Defense::Ech { adoption: 0.0 },
            Defense::Dummy { rate: 0.0 },
            Defense::PadConstant { pad_per_event: 0 },
            Defense::PadAdaptive { intensity: 0.0 },
            Defense::Doh { adoption: 0.0 },
            Defense::Nat { users_per_ip: 1 },
        ] {
            assert!(d.is_identity(), "{d:?}");
            let plan = DefensePlan::new(d, c.clone(), plan_seed);
            assert_eq!(plan.transform(&evs), evs, "{d:?} moved the trace — {cc}");
            let defended = plan.synthesizer(&synth);
            for ev in &evs {
                let ov = plan.wire_override(ev.client, &ev.hostname);
                assert_eq!(ov, WireOverride::default(), "{d:?} wire override — {cc}");
                assert_eq!(
                    synth.addressing.client_ip(ev.client),
                    defended.addressing.client_ip(ev.client),
                    "{d:?} moved client {} — {cc}",
                    ev.client
                );
                // Bit-level: the lowered packets are byte-identical to
                // the undefended path.
                assert_eq!(
                    defended.packets_for_host_with(ev.t_ms, ev.client, &ev.hostname, ov),
                    synth.packets_for_host(ev.t_ms, ev.client, &ev.hostname),
                    "{d:?} perturbed the wire bytes — {cc}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Property 3: padding injects, never drops — real events survive any
// defense as an in-order subsequence, cover stays in-catalog and
// strictly later than the event it covers.
// ---------------------------------------------------------------------

#[test]
fn defenses_never_drop_or_reorder_real_events_on_500_seeded_cases() {
    for seed in schedule("defense_proptests", 0x00de_fad5) {
        let mut rng = seed;
        let n_hosts = 2 + (splitmix(&mut rng) % 40) as usize;
        let c = catalog(&mut rng, n_hosts);
        let n_clients = 1 + (splitmix(&mut rng) % 10) as u32;
        let evs = events(&mut rng, n_hosts, n_clients);
        let defense = any_defense(&mut rng);
        let plan = DefensePlan::new(defense, c, splitmix(&mut rng));
        let cc = format!("add `cc {seed:016x}` to tests/regressions/defense_proptests.txt");

        let out = plan.transform(&evs);
        assert!(
            out.len() >= evs.len(),
            "{defense:?} shrank the trace — {cc}"
        );
        assert!(
            out.windows(2).all(|w| w[0].t_ms <= w[1].t_ms),
            "{defense:?} broke time order — {cc}"
        );
        // Real events survive, in order, as a subsequence.
        let mut it = out.iter();
        for ev in &evs {
            assert!(it.any(|o| o == ev), "{defense:?} dropped {ev:?} — {cc}");
        }
        // Injected cover: in-catalog hostnames, strictly after the
        // earliest real event (offsets are strictly forward in time).
        if out.len() > evs.len() {
            let mut real = std::collections::HashMap::<(u64, u32, &str), usize>::new();
            for ev in &evs {
                *real.entry((ev.t_ms, ev.client, &ev.hostname)).or_default() += 1;
            }
            let t0 = evs.iter().map(|e| e.t_ms).min().unwrap_or(0);
            for o in &out {
                match real.get_mut(&(o.t_ms, o.client, o.hostname.as_str())) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => {
                        assert!(
                            plan.catalog().rank_of(&o.hostname).is_some(),
                            "{defense:?} injected out-of-catalog {o:?} — {cc}"
                        );
                        assert!(
                            o.t_ms > t0,
                            "{defense:?} injected cover at/before the trace start — {cc}"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Property 4: ECH site sets and DoH client sets are nested along their
// adoption sweeps — no host or client ever leaves the set as adoption
// grows, and the endpoints cover nothing/everything.
// ---------------------------------------------------------------------

#[test]
fn adoption_sweeps_are_nested_on_500_seeded_cases() {
    for seed in schedule("defense_proptests", 0x00de_f5e7) {
        let mut rng = seed;
        let n_hosts = 2 + (splitmix(&mut rng) % 40) as usize;
        let c = catalog(&mut rng, n_hosts);
        let n_clients = 1 + (splitmix(&mut rng) % 40) as u32;
        let plan_seed = splitmix(&mut rng);
        let cc = format!("add `cc {seed:016x}` to tests/regressions/defense_proptests.txt");

        let mut prev_hidden = vec![false; n_hosts];
        let mut prev_doh = vec![false; n_clients as usize];
        for step in 0..=8 {
            let adoption = step as f64 / 8.0;
            let ech = DefensePlan::new(Defense::Ech { adoption }, c.clone(), plan_seed);
            let doh = DefensePlan::new(Defense::Doh { adoption }, c.clone(), plan_seed);
            for (i, prev) in prev_hidden.iter_mut().enumerate() {
                let hidden = ech.ech_hidden(&format!("host{i}.test"));
                assert!(
                    !*prev || hidden,
                    "host {i} left the ECH set at {adoption} — {cc}"
                );
                *prev = hidden;
            }
            for cl in 0..n_clients {
                let migrated = doh.doh_migrated(cl);
                assert!(
                    !prev_doh[cl as usize] || migrated,
                    "client {cl} left the DoH set at {adoption} — {cc}"
                );
                prev_doh[cl as usize] = migrated;
            }
        }
        assert!(
            prev_hidden.iter().all(|&h| h),
            "full ECH adoption missed a site — {cc}"
        );
        assert!(
            prev_doh.iter().all(|&m| m),
            "full DoH adoption missed a client — {cc}"
        );
    }
}
