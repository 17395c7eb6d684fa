//! Trace → wire → observer bridge.
//!
//! The synthetic trace knows the ground truth `(user, host)` of every
//! request; a real eavesdropper only gets packets. This module lowers a
//! trace onto the wire with [`hostprof_net::TrafficSynthesizer`] and runs
//! the passive [`hostprof_net::SniObserver`] over it, producing the
//! per-client hostname timelines the profiler consumes (a [`TraceColumns`]
//! like the ground truth's) — so experiments can run off *observed* data
//! and we can quantify the observer's fidelity (and how ECH or NAT degrade
//! it, §7.2/§7.4 of the paper).

use hostprof_core::Pipeline;
use hostprof_defense::DefensePlan;
use hostprof_embed::EmbeddingSet;
use hostprof_net::{
    chaos, Addressing, ChaosConfig, Packet, RequestEvent, SniObserver, TrafficSynthesizer,
};
use hostprof_synth::trace::{TraceAccess, TraceColumns, TraceColumnsBuilder};
use hostprof_synth::{world_interner, Trace, UserId, World};
use serde::{Deserialize, Serialize};

/// How the traffic is put on the wire for observation.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct ObserverScenario {
    /// Packet synthesis parameters (protocol mix, ECH, DNS, addressing).
    pub synthesizer: TrafficSynthesizer,
    /// Whether the observer also harvests plaintext DNS queries.
    pub harvest_dns: bool,
    /// Optional seeded fault injection applied to the wire traffic before
    /// the observer sees it — models a lossy/hostile tap instead of the
    /// synthesizer's pristine output.
    pub chaos: Option<ChaosConfig>,
}

impl ObserverScenario {
    /// A vantage point where every client has their own IP (WiFi / mobile
    /// provider, §7.2).
    pub fn per_user() -> Self {
        Self::default()
    }

    /// A landline-ISP vantage point with `n` users behind each NAT.
    pub fn behind_nat(n: u32) -> Self {
        Self {
            synthesizer: TrafficSynthesizer {
                addressing: Addressing::Nat {
                    base_ip: 0x0a00_0000,
                    clients_per_ip: n,
                },
                ..TrafficSynthesizer::default()
            },
            ..Self::default()
        }
    }

    /// A future where `fraction` of TLS connections use ECH (§7.4).
    pub fn with_ech(fraction: f64) -> Self {
        Self {
            synthesizer: TrafficSynthesizer {
                ech_fraction: fraction,
                quic_fraction: 0.0,
                ..TrafficSynthesizer::default()
            },
            ..Self::default()
        }
    }

    /// The same vantage point behind a faulty tap: seeded chaos mutates the
    /// packet stream before observation.
    pub fn with_chaos(mut self, cfg: ChaosConfig) -> Self {
        self.chaos = Some(cfg);
        self
    }
}

/// What the eavesdropper reconstructed from the wire.
#[derive(Debug, Clone)]
pub struct ObservedTrace {
    /// One row per client IP, ascending: its `(t, host)` observations in
    /// time order, ties in processing order, wire bytes 0. World hostnames
    /// keep their `HostId`; other names are interned after them.
    pub columns: TraceColumns,
    /// Client IP of each row.
    pub clients: Vec<u32>,
    /// The addressing users had on the wire (the plan's, under NAT).
    pub addressing: Addressing,
    /// Observer counters.
    pub observer_stats: hostprof_net::ObserverStats,
    /// Flow-table counters.
    pub flow_stats: hostprof_net::FlowStats,
    /// Mutation counters when the scenario injected chaos, `None` on a
    /// clean tap.
    pub chaos_stats: Option<hostprof_net::ChaosStats>,
    /// Ground-truth request count, for fidelity computation.
    pub ground_truth_requests: usize,
}

impl ObserverScenario {
    /// The one way onto the wire: every ground-truth request becomes a
    /// [`RequestEvent`], the optional [`DefensePlan`] rewrites the stream
    /// (decoys, padding; DESIGN.md §15), and each event is lowered to its
    /// packet burst with the plan's per-event wire override (forced ECH,
    /// DoH migration) under the plan's addressing (NAT mixing). Yields
    /// `(event t_ms, burst)` in delivery order. Without a plan events are
    /// lowered lazily, request by request; at a defense's identity point
    /// the bursts are bit-equal to the undefended ones. Chaos is the
    /// *tap's* business ([`ObservedTrace::capture`]), not the wire's.
    pub fn lower<'a>(
        &self,
        world: &'a World,
        trace: &'a Trace,
        plan: Option<&'a DefensePlan>,
    ) -> impl Iterator<Item = (u64, Vec<Packet>)> + 'a {
        let truth = trace.requests().iter().map(move |r| RequestEvent {
            t_ms: r.t_ms,
            client: r.user.0,
            hostname: world.hostname(r.host).to_string(),
        });
        let (events, synth): (Box<dyn Iterator<Item = RequestEvent> + 'a>, _) = match plan {
            None => (Box::new(truth), self.synthesizer.clone()),
            Some(p) => (
                Box::new(p.transform(&truth.collect::<Vec<_>>()).into_iter()),
                p.synthesizer(&self.synthesizer),
            ),
        };
        events.map(move |ev| {
            let ov = plan
                .map(|p| p.wire_override(ev.client, &ev.hostname))
                .unwrap_or_default();
            let burst = synth.packets_for_host_with(ev.t_ms, ev.client, &ev.hostname, ov);
            (ev.t_ms, burst)
        })
    }
}

impl ObservedTrace {
    /// Lower a trace onto the wire ([`ObserverScenario::lower`], with the
    /// optional defense `plan`) and run the observer over it. On a clean
    /// tap packets are consumed burst by burst; chaos injection needs the
    /// whole stream at once (mutations are per-flow), so that path buffers
    /// it. Names are interned as they leak, and the `(client, t, id)`
    /// triples stable-sorted into the columns. Panics on a time past the
    /// columns' `u32` milliseconds (≈ 49.7 days).
    pub fn capture(
        world: &World,
        trace: &Trace,
        scenario: &ObserverScenario,
        plan: Option<&DefensePlan>,
    ) -> Self {
        let mut observer = if scenario.harvest_dns {
            SniObserver::new().with_dns_harvesting()
        } else {
            SniObserver::new()
        };
        let synth = plan.map(|p| p.synthesizer(&scenario.synthesizer));
        let mut chaos_stats = None;
        let bursts = scenario.lower(world, trace, plan).map(|(_, burst)| burst);
        let wire: Box<dyn Iterator<Item = Vec<Packet>>> = match scenario.chaos {
            None => Box::new(bursts),
            Some(cfg) => {
                let mutated = chaos::apply(&cfg, &bursts.flatten().collect::<Vec<_>>());
                chaos_stats = Some(mutated.stats);
                Box::new(std::iter::once(mutated.packets))
            }
        };
        let (mut interner, mut seen) = (world_interner(world), Vec::new());
        for pkt in wire.flatten() {
            observer.process_with(&pkt, |ip, t, name| {
                seen.push((ip, t, interner.intern(name)))
            });
        }
        seen.sort_by_key(|&(ip, t, _)| (ip, t));
        let mut clients = Vec::new();
        let mut columns = TraceColumnsBuilder::new(interner, trace.days());
        columns.reserve(seen.len());
        for (ip, t, host) in seen {
            if clients.last() != Some(&ip) {
                clients.push(ip);
            }
            columns.push_event(clients.len() as u32 - 1, t, host, 0);
        }
        Self {
            columns: columns.finish(clients.len()),
            clients,
            addressing: synth.as_ref().unwrap_or(&scenario.synthesizer).addressing,
            observer_stats: observer.stats(),
            flow_stats: observer.flow_stats(),
            chaos_stats,
            ground_truth_requests: trace.requests().len(),
        }
    }

    /// Fraction of ground-truth requests whose hostname the observer
    /// recovered (1.0 without ECH; DNS harvesting can push it above 1).
    pub fn fidelity(&self) -> f64 {
        if self.ground_truth_requests == 0 {
            return 0.0;
        }
        self.columns.num_events() as f64 / self.ground_truth_requests as f64
    }

    /// The row holding `user`'s traffic under the capture's addressing;
    /// `None` when nothing from their address was recovered.
    pub fn row_of(&self, user: UserId) -> Option<u32> {
        let ip = self.addressing.client_ip(user.0);
        self.clients.binary_search(&ip).ok().map(|row| row as u32)
    }

    /// One row's hostnames, time order.
    pub fn hostnames(&self, row: u32) -> impl Iterator<Item = &str> {
        let hosts = self.columns.user_hosts(row).iter();
        hosts.map(|&h| self.columns.host_name(h))
    }

    /// Train `pipeline`'s model on one sequence per client IP of what was
    /// observed strictly before `before_ms` (`u64::MAX`: everything).
    pub fn train(&self, pipeline: &Pipeline, before_ms: u64) -> Result<EmbeddingSet, String> {
        let mut sequences = vec![Vec::new(); self.clients.len()];
        for (row, seq) in (0..).zip(&mut sequences) {
            self.columns.span_hosts(row, 0, before_ms, seq);
        }
        let prepared = pipeline.prepare(sequences, |h| self.columns.host_name(h))?;
        Ok(prepared.fit().into_embeddings().centered())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defend::catalog_for_world;
    use crate::scenario::{Scenario, ScenarioConfig};
    use hostprof_defense::Defense;
    use std::collections::BTreeMap;

    fn small_scenario() -> Scenario {
        let mut cfg = ScenarioConfig::tiny();
        cfg.trace.days = 1;
        cfg.population.num_users = 8;
        Scenario::generate(&cfg)
    }

    /// A capture's timelines keyed as `SniObserver::per_client_sequences`
    /// keys them: client IP → `(t, hostname)`, time order.
    fn timelines(obs: &ObservedTrace) -> BTreeMap<u32, Vec<(u64, String)>> {
        let rows = obs.clients.iter().enumerate().map(|(row, &ip)| {
            let times = obs.columns.user_times(row as u32).iter();
            let names = obs.hostnames(row as u32).map(str::to_string);
            (ip, times.map(|&t| t as u64).zip(names).collect())
        });
        rows.collect()
    }

    /// The columns hold what the observer's own per-client grouping of
    /// owned observations holds — clients, times and names, ties in
    /// processing order — on a clean tap, behind NAT, with DNS harvested,
    /// on a chaotic tap and at one non-identity point per defense.
    #[test]
    fn capture_is_the_per_client_sequences_as_columns() {
        let s = small_scenario();
        let catalog = catalog_for_world(&s.world);
        let mut dns = ObserverScenario::per_user();
        dns.synthesizer.dns_fraction = 1.0;
        dns.harvest_dns = true;
        let chaotic = ObserverScenario::per_user().with_chaos(ChaosConfig::with_seed(11));
        let mut cases: Vec<(ObserverScenario, Option<DefensePlan>)> = vec![
            (ObserverScenario::per_user(), None),
            (ObserverScenario::behind_nat(4), None),
            (dns, None),
            (chaotic, None),
        ];
        for d in [
            Defense::Ech { adoption: 0.5 },
            Defense::Dummy { rate: 1.0 },
            Defense::PadConstant { pad_per_event: 2 },
            Defense::PadAdaptive { intensity: 1.0 },
            Defense::Doh { adoption: 0.5 },
            Defense::Nat { users_per_ip: 4 },
        ] {
            let plan = DefensePlan::new(d, catalog.clone(), 42);
            cases.push((ObserverScenario::per_user(), Some(plan)));
        }
        for (scenario, plan) in &cases {
            let obs = ObservedTrace::capture(&s.world, &s.trace, scenario, plan.as_ref());
            let mut observer = SniObserver::new();
            if scenario.harvest_dns {
                observer = observer.with_dns_harvesting();
            }
            let wire: Vec<Packet> = scenario
                .lower(&s.world, &s.trace, plan.as_ref())
                .flat_map(|(_, burst)| burst)
                .collect();
            match scenario.chaos {
                None => observer.process_stream(&wire),
                Some(cfg) => observer.process_stream(&chaos::apply(&cfg, &wire).packets),
            }
            let want: BTreeMap<_, _> = observer.per_client_sequences().into_iter().collect();
            let what = format!(
                "{:?} {:?}",
                scenario.chaos,
                plan.as_ref().map(|p| p.defense())
            );
            assert!(!want.is_empty(), "{what}");
            assert_eq!(
                obs.clients,
                want.keys().copied().collect::<Vec<_>>(),
                "{what}"
            );
            assert_eq!(timelines(&obs), want, "{what}");
            assert_eq!(obs.observer_stats, observer.stats(), "{what}");
            for u in 0..s.population.len() as u32 {
                let ip = obs.addressing.client_ip(u);
                let row = obs.clients.binary_search(&ip).ok().map(|r| r as u32);
                assert_eq!(obs.row_of(UserId(u)), row, "{what}");
            }
        }
    }

    #[test]
    fn clean_capture_recovers_every_request() {
        let s = small_scenario();
        let obs = ObservedTrace::capture(&s.world, &s.trace, &ObserverScenario::per_user(), None);
        assert!(
            (obs.fidelity() - 1.0).abs() < 1e-9,
            "fidelity {}",
            obs.fidelity()
        );
        assert_eq!(obs.observer_stats.parse_errors, 0);
        // Per-user sequences match ground truth exactly.
        for u in 0..8u32 {
            let row = obs.row_of(UserId(u));
            let got: Vec<&str> = row.map(|r| obs.hostnames(r).collect()).unwrap_or_default();
            let want: Vec<&str> = s
                .trace
                .user_requests(UserId(u))
                .map(|r| s.world.hostname(r.host))
                .collect();
            assert_eq!(got, want, "user {u}");
        }
    }

    #[test]
    fn ech_blinds_the_observer() {
        let s = small_scenario();
        let obs =
            ObservedTrace::capture(&s.world, &s.trace, &ObserverScenario::with_ech(1.0), None);
        assert_eq!(obs.fidelity(), 0.0);
        assert_eq!(obs.observer_stats.hidden as usize, s.trace.requests().len());
    }

    #[test]
    fn chaotic_tap_degrades_gracefully_and_deterministically() {
        let s = small_scenario();
        let scenario = ObserverScenario::per_user().with_chaos(ChaosConfig::with_seed(11));
        let a = ObservedTrace::capture(&s.world, &s.trace, &scenario, None);
        let b = ObservedTrace::capture(&s.world, &s.trace, &scenario, None);
        // Same seed ⇒ the whole observed trace replays identically.
        assert_eq!(timelines(&a), timelines(&b));
        assert_eq!(a.observer_stats, b.observer_stats);
        assert_eq!(a.chaos_stats, b.chaos_stats);
        // Chaos may lose observations but never invents ground truth it
        // should not have, and every parse error lands in a taxonomy
        // bucket.
        let stats = a.observer_stats;
        assert!(a.fidelity() <= 1.0 + 1e-9);
        assert_eq!(stats.parse_errors, stats.taxonomy_total());
        let cs = a.chaos_stats.expect("chaos ran");
        assert!(cs.mutated_flows + cs.clean_flows == cs.flows_in);
        // A quiescent chaos config is a no-op on fidelity.
        let calm = ObserverScenario::per_user().with_chaos(ChaosConfig::quiescent(0));
        let c = ObservedTrace::capture(&s.world, &s.trace, &calm, None);
        let clean = ObservedTrace::capture(&s.world, &s.trace, &ObserverScenario::per_user(), None);
        assert!((c.fidelity() - clean.fidelity()).abs() < 1e-9);
    }

    #[test]
    fn defended_capture_at_identity_points_is_bit_equal_to_plain_capture() {
        let s = small_scenario();
        let catalog = catalog_for_world(&s.world);
        let scenario = ObserverScenario::per_user();
        let plain = ObservedTrace::capture(&s.world, &s.trace, &scenario, None);
        for d in [
            Defense::Ech { adoption: 0.0 },
            Defense::Dummy { rate: 0.0 },
            Defense::PadConstant { pad_per_event: 0 },
            Defense::PadAdaptive { intensity: 0.0 },
            Defense::Doh { adoption: 0.0 },
            Defense::Nat { users_per_ip: 1 },
        ] {
            let plan = DefensePlan::new(d, catalog.clone(), 42);
            let got = ObservedTrace::capture(&s.world, &s.trace, &scenario, Some(&plan));
            assert_eq!(timelines(&got), timelines(&plain), "{d:?}");
            assert_eq!(got.observer_stats, plain.observer_stats, "{d:?}");
        }
    }

    #[test]
    fn lowering_with_an_identity_plan_is_the_undefended_wire_packet_for_packet() {
        let s = small_scenario();
        let plan = DefensePlan::new(
            Defense::Ech { adoption: 0.0 },
            catalog_for_world(&s.world),
            42,
        );
        let clean = ObserverScenario::per_user();
        for scenario in [clean.clone(), clean.with_chaos(ChaosConfig::with_seed(11))] {
            let wire = |plan| -> Vec<Packet> {
                let packets: Vec<Packet> = scenario
                    .lower(&s.world, &s.trace, plan)
                    .flat_map(|(_, burst)| burst)
                    .collect();
                match scenario.chaos {
                    None => packets,
                    Some(cfg) => chaos::apply(&cfg, &packets).packets,
                }
            };
            let (plain, defended) = (wire(None), wire(Some(&plan)));
            assert!(plain.len() >= s.trace.requests().len());
            assert_eq!(plain, defended, "chaos: {:?}", scenario.chaos.is_some());
        }
    }

    #[test]
    fn defended_ech_sweep_hides_popular_sites_first() {
        let s = small_scenario();
        let catalog = catalog_for_world(&s.world);
        let scenario = ObserverScenario::per_user();
        let mut prev = f64::INFINITY;
        for step in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let plan = DefensePlan::new(Defense::Ech { adoption: step }, catalog.clone(), 42);
            let got = ObservedTrace::capture(&s.world, &s.trace, &scenario, Some(&plan));
            let f = got.fidelity();
            assert!(f <= prev + 1e-12, "fidelity rose at adoption {step}");
            prev = f;
        }
        assert_eq!(prev, 0.0, "full adoption blinds the observer");
    }

    #[test]
    fn nat_collapses_users_into_shared_sequences() {
        let s = small_scenario();
        let scenario = ObserverScenario::behind_nat(4);
        let obs = ObservedTrace::capture(&s.world, &s.trace, &scenario, None);
        // 8 users at 4 per IP → 2 client addresses.
        assert_eq!(obs.clients.len(), 2);
        assert!(
            (obs.fidelity() - 1.0).abs() < 1e-9,
            "NAT loses nothing, it only mixes"
        );
    }
}
