//! Trace → wire → observer bridge.
//!
//! The synthetic trace knows the ground truth `(user, host)` of every
//! request; a real eavesdropper only gets packets. This module lowers a
//! trace onto the wire with [`hostprof_net::TrafficSynthesizer`] and runs
//! the passive [`hostprof_net::SniObserver`] over it, producing the
//! per-client hostname sequences the profiler consumes — so experiments can
//! run off *observed* data and we can quantify the observer's fidelity
//! (and how ECH or NAT degrade it, §7.2/§7.4 of the paper).

use hostprof_defense::DefensePlan;
use hostprof_net::{
    chaos, Addressing, ChaosConfig, Packet, RequestEvent, SniObserver, TrafficSynthesizer,
};
use hostprof_synth::trace::span_range;
use hostprof_synth::{Trace, UserId, World};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
    /// Per-client-IP hostname sequences, time-sorted. Ordered by client
    /// address so any iteration (e.g. building a training corpus) is
    /// deterministic.
    pub sequences: BTreeMap<u32, Vec<(u64, String)>>,
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
    /// tap packets are consumed burst by burst, so an undefended capture's
    /// memory stays flat regardless of trace size; chaos injection needs
    /// the whole stream at once (mutations are per-flow), so that path
    /// buffers it.
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
        let mut chaos_stats = None;
        let bursts = scenario.lower(world, trace, plan);
        match scenario.chaos {
            None => {
                for (_, burst) in bursts {
                    for pkt in &burst {
                        observer.process(pkt);
                    }
                }
            }
            Some(cfg) => {
                let packets: Vec<_> = bursts.flat_map(|(_, burst)| burst).collect();
                let mutated = chaos::apply(&cfg, &packets);
                observer.process_stream(&mutated.packets);
                chaos_stats = Some(mutated.stats);
            }
        }
        let sequences: BTreeMap<u32, Vec<(u64, String)>> =
            observer.per_client_sequences().into_iter().collect();
        Self {
            sequences,
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
        let recovered: usize = self.sequences.values().map(Vec::len).sum();
        recovered as f64 / self.ground_truth_requests as f64
    }

    /// The hostname sequence of one client IP, hostnames only.
    pub fn client_hostnames(&self, client_ip: u32) -> Vec<&str> {
        self.sequences
            .get(&client_ip)
            .map(|seq| seq.iter().map(|(_, h)| h.as_str()).collect())
            .unwrap_or_default()
    }

    /// Map a ground-truth user to their wire address under the scenario's
    /// addressing scheme.
    pub fn address_of(scenario: &ObserverScenario, user: UserId) -> u32 {
        scenario.synthesizer.addressing.client_ip(user.0)
    }

    /// Training corpus from observed data: one hostname sequence per
    /// client IP (what a real eavesdropper would feed the SKIPGRAM model),
    /// restricted to observations strictly before `before_ms` — pass
    /// `u64::MAX` for everything, or the evaluation day's start to hold
    /// that day out.
    pub fn observed_sequences(&self, before_ms: u64) -> Vec<Vec<String>> {
        self.sequences
            .values()
            .map(|seq| {
                seq[span_range(seq, |&(t, _)| t, 0, before_ms)]
                    .iter()
                    .map(|(_, h)| h.clone())
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defend::catalog_for_world;
    use crate::scenario::{Scenario, ScenarioConfig};
    use hostprof_defense::Defense;

    fn small_scenario() -> Scenario {
        let mut cfg = ScenarioConfig::tiny();
        cfg.trace.days = 1;
        cfg.population.num_users = 8;
        Scenario::generate(&cfg)
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
        let scenario = ObserverScenario::per_user();
        for u in 0..8u32 {
            let ip = ObservedTrace::address_of(&scenario, UserId(u));
            let got = obs.client_hostnames(ip);
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
        assert_eq!(a.sequences, b.sequences);
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
            assert_eq!(got.sequences, plain.sequences, "{d:?}");
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
        assert_eq!(obs.sequences.len(), 2);
        assert!(
            (obs.fidelity() - 1.0).abs() < 1e-9,
            "NAT loses nothing, it only mixes"
        );
    }
}
