//! Deterministic fault injection for the ingest path.
//!
//! A production tap never sees the tidy streams the synthesizer emits: TCP
//! re-segments handshakes at arbitrary boundaries, captures truncate
//! mid-record, datagrams are duplicated, reordered and dropped, QUIC
//! coalesces packets into one datagram, and unrelated garbage shares the
//! link. This module mangles any packet stream with exactly those faults —
//! **deterministically**: the same [`ChaosConfig`] (seed included) over the
//! same input always produces the same mutated stream, so every failure is
//! replayable from its seed alone.
//!
//! Mutations come in two classes:
//!
//! * **observation-preserving** — TCP re-split (reassembly must recover the
//!   ClientHello), QUIC coalescing (trailing bytes after an Initial are
//!   legal), cross-flow interleaving and garbage-flow injection. Flows that
//!   receive only these stay in [`ChaosOutcome::clean_flows`]; the observer
//!   must recover **bit-identical observations** from them.
//! * **lossy** — truncation, bit-flips, drops, duplicates and intra-flow
//!   reordering. Affected flows land in [`ChaosOutcome::mutated_flows`];
//!   their observations may legitimately be lost or corrupted, but must
//!   never panic the observer or grow its memory without bound.
//!
//! The split is what makes the differential conformance harness
//! ([`crate::conformance`], run by both chaos test suites and
//! `hostprof chaos`) possible: it checks the chaos run against a clean run
//! flow-by-flow instead of giving up on asserting anything under fault
//! injection.

use crate::flow::FlowKey;
use crate::packet::{Endpoint, Packet, Transport};
use crate::quic;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Per-flow segment ceiling chaos respects when re-splitting, chosen to
/// stay strictly under the observer's default
/// [`crate::observer::ObserverConfig::max_pending_segments`] budget so a
/// re-split (preserving) flow can always still reassemble.
const RESPLIT_SEGMENT_CEILING: usize = 7;

/// Source-IP range for injected garbage flows: 198.18.0.0/15, the RFC 2544
/// benchmarking range, which no synthesized client ever occupies — so
/// garbage can never collide with a real flow's 5-tuple.
const GARBAGE_BASE_IP: u32 = 0xC612_0000;

/// Seeded fault-injection parameters. All probabilities are per flow and
/// in `[0, 1]`; a flow can receive several mutations in one pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Seed for every random decision; equal seeds replay equal chaos.
    pub seed: u64,
    /// Probability a TCP flow's payloads are re-split at random boundaries
    /// into 2–4 segments each (observation-preserving).
    pub resplit_prob: f64,
    /// Probability a QUIC datagram gets trailing coalesced bytes appended
    /// (observation-preserving; reverted if it would change the parse).
    pub coalesce_prob: f64,
    /// Probability one packet of a flow has its payload truncated (lossy).
    pub truncate_prob: f64,
    /// Probability one packet of a flow has a random bit flipped, header
    /// bytes included (lossy).
    pub bitflip_prob: f64,
    /// Probability one packet of a flow is dropped entirely (lossy).
    pub drop_prob: f64,
    /// Probability one packet of a flow is duplicated (lossy: a duplicate
    /// mid-reassembly corrupts the buffer).
    pub duplicate_prob: f64,
    /// Probability a flow's packets are shuffled intra-flow (lossy).
    pub shuffle_prob: f64,
    /// Number of injected garbage flows (1–3 packets each, always counted
    /// as mutated) interleaved with the real traffic.
    pub garbage_flows: u32,
    /// Interleave flows randomly instead of replaying in timestamp order.
    /// Either way every flow's own packets keep their relative order
    /// (unless that flow was shuffled).
    pub interleave: bool,
}

impl ChaosConfig {
    /// A balanced mutation mix: roughly half the flows touched, the rest
    /// left clean so the differential properties have both populations.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            resplit_prob: 0.35,
            coalesce_prob: 0.30,
            truncate_prob: 0.12,
            bitflip_prob: 0.12,
            drop_prob: 0.10,
            duplicate_prob: 0.10,
            shuffle_prob: 0.08,
            garbage_flows: 6,
            interleave: true,
        }
    }

    /// Every mutation cranked up plus a garbage flood — for memory-cap and
    /// no-panic stress, where nothing is expected to survive cleanly.
    pub fn aggressive(seed: u64) -> Self {
        Self {
            seed,
            resplit_prob: 0.8,
            coalesce_prob: 0.6,
            truncate_prob: 0.5,
            bitflip_prob: 0.5,
            drop_prob: 0.35,
            duplicate_prob: 0.35,
            shuffle_prob: 0.3,
            garbage_flows: 64,
            interleave: true,
        }
    }

    /// No mutations at all (identity modulo replay order) — for harness
    /// self-checks.
    pub fn quiescent(seed: u64) -> Self {
        Self {
            seed,
            resplit_prob: 0.0,
            coalesce_prob: 0.0,
            truncate_prob: 0.0,
            bitflip_prob: 0.0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            shuffle_prob: 0.0,
            garbage_flows: 0,
            interleave: false,
        }
    }
}

/// Counts of the mutations actually applied in one [`apply`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosStats {
    /// Packets in the input stream.
    pub packets_in: u64,
    /// Packets in the mutated stream.
    pub packets_out: u64,
    /// Distinct flows in the input.
    pub flows_in: u64,
    /// Flows untouched by any lossy mutation.
    pub clean_flows: u64,
    /// Flows that received at least one lossy mutation.
    pub mutated_flows: u64,
    /// Garbage flows injected.
    pub garbage_flows: u64,
    /// TCP payloads re-split (count of extra segments created).
    pub resplits: u64,
    /// QUIC datagrams with coalesced trailing bytes.
    pub coalesced: u64,
    /// Payload truncations.
    pub truncations: u64,
    /// Bit flips.
    pub bitflips: u64,
    /// Packets dropped.
    pub drops: u64,
    /// Packets duplicated.
    pub duplicates: u64,
    /// Flows shuffled intra-flow.
    pub shuffles: u64,
}

/// The mutated stream plus the bookkeeping the conformance harness needs.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The mutated packet stream.
    pub packets: Vec<Packet>,
    /// Flows whose observable behavior must be unchanged: the observer has
    /// to recover bit-identical observations from them.
    pub clean_flows: HashSet<FlowKey>,
    /// Flows that took a lossy mutation (injected garbage included):
    /// observations from these may be lost or corrupted.
    pub mutated_flows: HashSet<FlowKey>,
    /// What was done.
    pub stats: ChaosStats,
}

/// SplitMix64 stream — the crate's deterministic, dependency-free RNG.
#[derive(Debug, Clone)]
pub(crate) struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    pub(crate) fn new(seed: u64) -> Self {
        // Avoid the all-zero fixpoint-ish start and decorrelate seeds.
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli draw.
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// Stable 64-bit identity of a flow key, for per-flow RNG seeding that does
/// not depend on processing order.
fn flow_seed(seed: u64, key: &FlowKey) -> u64 {
    let mut bytes = [0u8; 13];
    bytes[..4].copy_from_slice(&key.src.ip.to_be_bytes());
    bytes[4..6].copy_from_slice(&key.src.port.to_be_bytes());
    bytes[6..10].copy_from_slice(&key.dst.ip.to_be_bytes());
    bytes[10..12].copy_from_slice(&key.dst.port.to_be_bytes());
    bytes[12] = match key.transport {
        Transport::Tcp => 0,
        Transport::Udp => 1,
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in &bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One flow's packets under mutation.
struct FlowLane {
    key: FlowKey,
    packets: Vec<Packet>,
    mutated: bool,
}

/// Apply seeded chaos to a packet stream.
///
/// Flows receiving only observation-preserving mutations land in
/// [`ChaosOutcome::clean_flows`]; everything else (including injected
/// garbage) lands in [`ChaosOutcome::mutated_flows`]. Equal configs over
/// equal inputs produce equal outcomes, byte for byte.
pub fn apply(cfg: &ChaosConfig, packets: &[Packet]) -> ChaosOutcome {
    let mut stats = ChaosStats {
        packets_in: packets.len() as u64,
        ..ChaosStats::default()
    };

    // Group into flows, preserving both intra-flow order and the order in
    // which flows first appear (so the pass is deterministic).
    let mut lanes: Vec<FlowLane> = Vec::new();
    let mut index: HashMap<FlowKey, usize> = HashMap::new();
    for pkt in packets {
        let key = FlowKey::of(pkt);
        let at = *index.entry(key).or_insert_with(|| {
            lanes.push(FlowLane {
                key,
                packets: Vec::new(),
                mutated: false,
            });
            lanes.len() - 1
        });
        lanes[at].packets.push(pkt.clone());
    }
    stats.flows_in = lanes.len() as u64;

    for lane in &mut lanes {
        let mut rng = ChaosRng::new(flow_seed(cfg.seed, &lane.key));
        mutate_flow(cfg, lane, &mut rng, &mut stats);
    }
    stats.clean_flows = lanes.iter().filter(|l| !l.mutated).count() as u64;
    stats.mutated_flows = lanes.iter().filter(|l| l.mutated).count() as u64;

    // Inject garbage flows on 5-tuples no real traffic can occupy.
    let (t_lo, t_hi) = packets.iter().fold((u64::MAX, 0u64), |(lo, hi), p| {
        (lo.min(p.t_ms), hi.max(p.t_ms))
    });
    let (t_lo, t_hi) = if t_lo > t_hi { (0, 0) } else { (t_lo, t_hi) };
    for g in 0..cfg.garbage_flows {
        let mut rng = ChaosRng::new(cfg.seed ^ (g as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        lanes.push(garbage_lane(g, t_lo, t_hi, &mut rng));
        stats.garbage_flows += 1;
    }

    // Weave the lanes back into one stream.
    let mut out: Vec<Packet> = Vec::with_capacity(packets.len() + 8);
    if cfg.interleave {
        let mut rng = ChaosRng::new(cfg.seed ^ 0x0001_971e_4a11);
        let mut cursors: Vec<(usize, usize)> = lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.packets.is_empty())
            .map(|(i, _)| (i, 0usize))
            .collect();
        while !cursors.is_empty() {
            let pick = rng.below(cursors.len());
            let (lane_idx, ref mut pos) = cursors[pick];
            out.push(lanes[lane_idx].packets[*pos].clone());
            *pos += 1;
            if *pos == lanes[lane_idx].packets.len() {
                cursors.swap_remove(pick);
            }
        }
    } else {
        for lane in &lanes {
            out.extend(lane.packets.iter().cloned());
        }
        out.sort_by_key(|p| p.t_ms);
    }
    stats.packets_out = out.len() as u64;

    let clean_flows = lanes.iter().filter(|l| !l.mutated).map(|l| l.key).collect();
    let mutated_flows = lanes.iter().filter(|l| l.mutated).map(|l| l.key).collect();
    ChaosOutcome {
        packets: out,
        clean_flows,
        mutated_flows,
        stats,
    }
}

/// Apply the configured mutations to one flow in place.
fn mutate_flow(cfg: &ChaosConfig, lane: &mut FlowLane, rng: &mut ChaosRng, stats: &mut ChaosStats) {
    // Preserving mutations first (they work on well-formed payloads).
    match lane.key.transport {
        Transport::Tcp => {
            if rng.chance(cfg.resplit_prob) {
                resplit_tcp(lane, rng, stats);
            }
        }
        Transport::Udp => {
            if lane.key.dst.port != 53 && rng.chance(cfg.coalesce_prob) {
                coalesce_quic(lane, rng, stats);
            }
        }
    }

    // Lossy mutations; any hit marks the flow mutated.
    if rng.chance(cfg.truncate_prob) && truncate_one(lane, rng) {
        stats.truncations += 1;
        lane.mutated = true;
    }
    if rng.chance(cfg.bitflip_prob) && bitflip_one(lane, rng) {
        stats.bitflips += 1;
        lane.mutated = true;
    }
    if rng.chance(cfg.drop_prob) && !lane.packets.is_empty() {
        let victim = rng.below(lane.packets.len());
        lane.packets.remove(victim);
        stats.drops += 1;
        lane.mutated = true;
    }
    if rng.chance(cfg.duplicate_prob) && !lane.packets.is_empty() {
        let victim = rng.below(lane.packets.len());
        let dup = lane.packets[victim].clone();
        lane.packets.insert(victim + 1, dup);
        stats.duplicates += 1;
        lane.mutated = true;
    }
    if rng.chance(cfg.shuffle_prob) && lane.packets.len() >= 2 {
        // Fisher–Yates with the flow's own stream.
        for i in (1..lane.packets.len()).rev() {
            let j = rng.below(i + 1);
            lane.packets.swap(i, j);
        }
        stats.shuffles += 1;
        lane.mutated = true;
    }
}

/// Re-split every sufficiently large TCP payload of the flow at random
/// interior boundaries, respecting the observer's segment budget so the
/// flow remains reassemblable (observation-preserving).
fn resplit_tcp(lane: &mut FlowLane, rng: &mut ChaosRng, stats: &mut ChaosStats) {
    let mut budget = RESPLIT_SEGMENT_CEILING.saturating_sub(lane.packets.len());
    if budget == 0 {
        return;
    }
    let mut out: Vec<Packet> = Vec::with_capacity(lane.packets.len() + budget);
    for pkt in lane.packets.drain(..) {
        let len = pkt.payload.len();
        if budget == 0 || len < 2 {
            out.push(pkt);
            continue;
        }
        // 1–3 extra cuts per payload, bounded by the remaining budget.
        let extra = 1 + rng.below(3.min(budget));
        let mut cuts: Vec<usize> = (0..extra).map(|_| 1 + rng.below(len - 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        budget -= cuts.len();
        stats.resplits += cuts.len() as u64;
        let mut prev = 0usize;
        for &cut in cuts.iter().chain(std::iter::once(&len)) {
            if cut > prev {
                out.push(Packet {
                    payload: pkt.payload.slice(prev..cut),
                    ..pkt.clone()
                });
                prev = cut;
            }
        }
    }
    lane.packets = out;
}

/// Append trailing bytes to QUIC datagrams — RFC 9000 coalescing, which an
/// Initial parser must skip. Reverted when it would change the parse (the
/// payload was not a well-formed Initial to begin with), so the mutation
/// stays observation-preserving on arbitrary input.
fn coalesce_quic(lane: &mut FlowLane, rng: &mut ChaosRng, stats: &mut ChaosStats) {
    for pkt in &mut lane.packets {
        if pkt.payload.is_empty() {
            continue;
        }
        let before = quic::extract_sni_from_quic(&pkt.payload);
        let mut grown = pkt.payload.to_vec();
        let tail = 1 + rng.below(200);
        for _ in 0..tail {
            grown.push(rng.next_u64() as u8);
        }
        if quic::extract_sni_from_quic(&grown) == before {
            pkt.payload = Bytes::from(grown);
            stats.coalesced += 1;
        }
    }
}

/// Truncate one random payload of the flow; returns whether anything
/// changed.
fn truncate_one(lane: &mut FlowLane, rng: &mut ChaosRng) -> bool {
    let candidates: Vec<usize> = lane
        .packets
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.payload.is_empty())
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return false;
    }
    let victim = candidates[rng.below(candidates.len())];
    let keep = rng.below(lane.packets[victim].payload.len());
    let pkt = &mut lane.packets[victim];
    pkt.payload = pkt.payload.slice(0..keep);
    true
}

/// Flip one random bit in one random payload; returns whether anything
/// changed.
fn bitflip_one(lane: &mut FlowLane, rng: &mut ChaosRng) -> bool {
    let candidates: Vec<usize> = lane
        .packets
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.payload.is_empty())
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return false;
    }
    let victim = candidates[rng.below(candidates.len())];
    let pkt = &mut lane.packets[victim];
    let mut bytes = pkt.payload.to_vec();
    let at = rng.below(bytes.len());
    bytes[at] ^= 1 << rng.below(8);
    pkt.payload = Bytes::from(bytes);
    true
}

/// Craft one garbage flow: 1–3 packets of adversarial bytes in several
/// flavors (pure noise, TLS-header-prefixed noise, truncated real
/// ClientHello, QUIC-long-header noise, empty).
fn garbage_lane(index: u32, t_lo: u64, t_hi: u64, rng: &mut ChaosRng) -> FlowLane {
    let src = Endpoint::new(
        GARBAGE_BASE_IP.wrapping_add(index),
        1024 + (index % 60_000) as u16,
    );
    let dst = Endpoint::new(0x5fee_d000 | (index & 0xfff), 443);
    let flavor = rng.below(5);
    let transport = if flavor == 3 {
        Transport::Udp
    } else {
        Transport::Tcp
    };
    let key_span = t_hi.saturating_sub(t_lo).max(1);
    let n = 1 + rng.below(3);
    let mut packets = Vec::with_capacity(n);
    for s in 0..n {
        let payload: Vec<u8> = match flavor {
            // Pure noise.
            0 => (0..1 + rng.below(300))
                .map(|_| rng.next_u64() as u8)
                .collect(),
            // A TLS handshake record header promising far more data than
            // will ever arrive — parks bytes in the reassembly buffer.
            1 => {
                let mut v = vec![22u8, 3, 1, 0x3f, 0xff, 1, 0x00, 0x3f, 0xf0];
                v.extend((0..rng.below(600)).map(|_| rng.next_u64() as u8));
                v
            }
            // A real ClientHello cut off mid-record: looks legitimate,
            // never completes.
            2 => {
                let full =
                    crate::tls::ClientHello::for_hostname(&format!("garbage-{index}.invalid"))
                        .encode();
                let keep = 1 + rng.below(full.len() - 1);
                full[..keep].to_vec()
            }
            // QUIC long-header noise.
            3 => {
                let mut v = vec![0b1100_0000u8, 0, 0, 0, 1];
                v.extend((0..rng.below(300)).map(|_| rng.next_u64() as u8));
                v
            }
            // Empty payloads (pure ACK-ish traffic).
            _ => Vec::new(),
        };
        packets.push(Packet {
            t_ms: t_lo + rng.next_u64() % key_span + s as u64,
            src,
            dst,
            transport,
            payload: Bytes::from(payload),
        });
    }
    FlowLane {
        key: FlowKey {
            src,
            dst,
            transport,
        },
        packets,
        mutated: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::SniObserver;
    use crate::synthesize::{RequestEvent, TrafficSynthesizer};

    fn sample_stream() -> Vec<Packet> {
        let synth = TrafficSynthesizer::default();
        let events: Vec<RequestEvent> = (0..40u32)
            .map(|i| RequestEvent {
                t_ms: 1_000 + i as u64 * 250,
                client: i % 8,
                hostname: format!("host{}.example.com", i % 13),
            })
            .collect();
        synth.synthesize(&events)
    }

    #[test]
    fn same_seed_same_chaos() {
        let stream = sample_stream();
        let cfg = ChaosConfig::with_seed(42);
        let a = apply(&cfg, &stream);
        let b = apply(&cfg, &stream);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.clean_flows, b.clean_flows);
    }

    #[test]
    fn different_seeds_differ() {
        let stream = sample_stream();
        let a = apply(&ChaosConfig::with_seed(1), &stream);
        let b = apply(&ChaosConfig::with_seed(2), &stream);
        assert_ne!(a.packets, b.packets);
    }

    #[test]
    fn quiescent_config_is_identity_modulo_time_order() {
        let stream = sample_stream();
        let out = apply(&ChaosConfig::quiescent(7), &stream);
        let mut expected = stream.clone();
        expected.sort_by_key(|p| p.t_ms);
        assert_eq!(out.packets, expected);
        assert_eq!(out.mutated_flows.len(), 0);
        assert_eq!(out.stats.clean_flows, out.stats.flows_in);
    }

    #[test]
    fn every_input_flow_is_classified_exactly_once() {
        let stream = sample_stream();
        let out = apply(&ChaosConfig::with_seed(99), &stream);
        let input_flows: HashSet<FlowKey> = stream.iter().map(FlowKey::of).collect();
        for key in &input_flows {
            let clean = out.clean_flows.contains(key);
            let mutated = out.mutated_flows.contains(key);
            assert!(clean ^ mutated, "flow classified exactly once");
        }
        assert!(
            out.clean_flows.iter().all(|k| input_flows.contains(k)),
            "clean set only holds real input flows"
        );
    }

    #[test]
    fn garbage_flows_use_the_reserved_range() {
        let stream = sample_stream();
        let cfg = ChaosConfig::with_seed(5);
        let out = apply(&cfg, &stream);
        let garbage: Vec<&Packet> = out
            .packets
            .iter()
            .filter(|p| p.src.ip & 0xfffe_0000 == GARBAGE_BASE_IP)
            .collect();
        assert!(!garbage.is_empty());
        for p in &garbage {
            assert!(out.mutated_flows.contains(&FlowKey::of(p)));
        }
    }

    #[test]
    fn clean_flow_packets_keep_intra_flow_order_and_bytes() {
        let stream = sample_stream();
        let out = apply(&ChaosConfig::with_seed(1234), &stream);
        for key in &out.clean_flows {
            let original: Vec<u8> = stream
                .iter()
                .filter(|p| FlowKey::of(p) == *key)
                .flat_map(|p| p.payload.iter().copied())
                .collect();
            let mutated: Vec<u8> = out
                .packets
                .iter()
                .filter(|p| FlowKey::of(p) == *key)
                .flat_map(|p| p.payload.iter().copied())
                .collect();
            match key.transport {
                // TCP re-split moves segment boundaries but never bytes.
                Transport::Tcp => assert_eq!(original, mutated, "flow {key:?}"),
                // QUIC coalescing appends trailing bytes; the original
                // datagram must remain a prefix.
                Transport::Udp => {
                    assert!(mutated.len() >= original.len());
                    assert_eq!(&mutated[..original.len()], &original[..], "flow {key:?}");
                }
            }
        }
    }

    #[test]
    fn observer_recovers_clean_flows_under_default_chaos() {
        let stream = sample_stream();
        let out = apply(&ChaosConfig::with_seed(2024), &stream);
        let mut chaotic = SniObserver::new();
        chaotic.process_stream(&out.packets);
        // Every clean flow's expected observation must survive verbatim.
        for key in &out.clean_flows {
            let flow_pkts: Vec<Packet> = stream
                .iter()
                .filter(|p| FlowKey::of(p) == *key)
                .cloned()
                .collect();
            let mut solo = SniObserver::new();
            solo.process_stream(&flow_pkts);
            for want in solo.observations() {
                assert!(
                    chaotic.observations().contains(want),
                    "lost clean observation {want:?}"
                );
            }
        }
    }
}
