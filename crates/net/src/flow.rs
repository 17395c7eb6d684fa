//! Passive flow tracking.
//!
//! An on-path observer must not re-parse every segment of a long-lived
//! connection: the hostname leaks exactly once, in the first client payload
//! (TLS ClientHello / QUIC Initial). [`FlowTable`] keys traffic by 5-tuple,
//! hands the *first* payload of each flow to the caller for inspection, and
//! swallows the rest — with idle-based eviction so memory stays bounded on
//! line-rate streams.

use crate::packet::{Endpoint, Packet, Transport};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Flow identity: directional 5-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowKey {
    /// Client endpoint.
    pub src: Endpoint,
    /// Server endpoint.
    pub dst: Endpoint,
    /// Transport protocol.
    pub transport: Transport,
}

impl FlowKey {
    /// Key of a packet.
    pub fn of(pkt: &Packet) -> Self {
        Self {
            src: pkt.src,
            dst: pkt.dst,
            transport: pkt.transport,
        }
    }
}

#[derive(Debug, Clone)]
struct FlowState {
    last_seen_ms: u64,
    packets: u64,
    bytes: u64,
    inspect: InspectState,
}

/// Where a flow stands in the inspection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InspectState {
    /// No payload seen yet (SYN/ACK-style empty segments).
    AwaitingFirst,
    /// Payload seen but the caller has not concluded inspection — a TLS
    /// ClientHello can span several TCP segments, so the observer keeps
    /// receiving payloads until it reassembles or gives up.
    Pending,
    /// Inspection concluded (hostname extracted, hidden, or unparseable).
    Done,
}

/// What the flow table tells the observer about a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowDecision {
    /// First payload of a newly tracked flow: inspect it, discarding any
    /// state a previous occupant of the same 5-tuple left behind
    /// (ephemeral-port reuse after eviction).
    InspectNew,
    /// Payload of a flow already under inspection: feed it to the parser.
    Inspect,
    /// Empty segment, or a flow whose inspection already concluded.
    Skip,
}

/// Aggregate flow-table counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Flows ever created.
    pub flows_created: u64,
    /// Flows evicted for idleness.
    pub flows_evicted: u64,
    /// Packets observed.
    pub packets: u64,
    /// Payload bytes observed.
    pub bytes: u64,
}

impl FlowStats {
    /// Fold per-lane tables' counters into one: all fields are plain sums,
    /// so N per-lane flow tables merge into one aggregate view (the serving
    /// loop's taxonomy report depends on this).
    pub fn merged(lanes: impl IntoIterator<Item = FlowStats>) -> FlowStats {
        let mut total = FlowStats::default();
        for s in lanes {
            total.flows_created += s.flows_created;
            total.flows_evicted += s.flows_evicted;
            total.packets += s.packets;
            total.bytes += s.bytes;
        }
        total
    }
}

/// The observer's flow table.
#[derive(Debug)]
pub struct FlowTable {
    flows: HashMap<FlowKey, FlowState>,
    idle_timeout_ms: u64,
    stats: FlowStats,
    /// Eviction is amortized: run at most once per `evict_every` packets.
    since_evict: u64,
    /// Keys evicted while still mid-inspection ([`InspectState::Pending`]),
    /// queued for the caller to reclaim any per-flow reassembly state it
    /// holds. Drained via [`FlowTable::take_evicted_pending`].
    evicted_pending: Vec<FlowKey>,
}

impl FlowTable {
    /// Create a table with the given idle timeout.
    pub fn new(idle_timeout_ms: u64) -> Self {
        Self {
            flows: HashMap::new(),
            idle_timeout_ms,
            stats: FlowStats::default(),
            since_evict: 0,
            evicted_pending: Vec::new(),
        }
    }

    /// Record a packet; returns whether its payload should be inspected.
    pub fn observe(&mut self, pkt: &Packet) -> FlowDecision {
        self.stats.packets += 1;
        self.stats.bytes += pkt.payload.len() as u64;
        self.since_evict += 1;
        if self.since_evict >= 1024 {
            self.evict_idle(pkt.t_ms);
            self.since_evict = 0;
        }
        let key = FlowKey::of(pkt);
        match self.flows.get_mut(&key) {
            Some(state) => {
                state.last_seen_ms = pkt.t_ms;
                state.packets += 1;
                state.bytes += pkt.payload.len() as u64;
                match state.inspect {
                    InspectState::Done => FlowDecision::Skip,
                    _ if pkt.payload.is_empty() => FlowDecision::Skip,
                    InspectState::AwaitingFirst => {
                        state.inspect = InspectState::Pending;
                        FlowDecision::InspectNew
                    }
                    InspectState::Pending => FlowDecision::Inspect,
                }
            }
            None => {
                self.stats.flows_created += 1;
                let inspect = if pkt.payload.is_empty() {
                    InspectState::AwaitingFirst
                } else {
                    InspectState::Pending
                };
                self.flows.insert(
                    key,
                    FlowState {
                        last_seen_ms: pkt.t_ms,
                        packets: 1,
                        bytes: pkt.payload.len() as u64,
                        inspect,
                    },
                );
                if inspect == InspectState::Pending {
                    FlowDecision::InspectNew
                } else {
                    FlowDecision::Skip
                }
            }
        }
    }

    /// Conclude inspection of a flow: later packets get [`FlowDecision::Skip`].
    pub fn finish(&mut self, key: &FlowKey) {
        if let Some(state) = self.flows.get_mut(key) {
            state.inspect = InspectState::Done;
        }
    }

    /// Drop flows idle since before `now_ms - idle_timeout_ms`.
    ///
    /// Flows evicted while a caller was still reassembling their first
    /// payload are recorded and surfaced by
    /// [`FlowTable::take_evicted_pending`], so the caller can release the
    /// matching reassembly buffers instead of leaking them.
    pub fn evict_idle(&mut self, now_ms: u64) {
        let cutoff = now_ms.saturating_sub(self.idle_timeout_ms);
        let before = self.flows.len();
        let evicted_pending = &mut self.evicted_pending;
        self.flows.retain(|key, s| {
            let keep = s.last_seen_ms >= cutoff;
            if !keep && s.inspect == InspectState::Pending {
                evicted_pending.push(*key);
            }
            keep
        });
        self.stats.flows_evicted += (before - self.flows.len()) as u64;
    }

    /// Whether any mid-inspection flows have been evicted since the last
    /// [`FlowTable::take_evicted_pending`] call. Cheap (a `Vec` emptiness
    /// check), so callers can poll it per packet.
    pub fn has_evicted_pending(&self) -> bool {
        !self.evicted_pending.is_empty()
    }

    /// Drain the keys of flows evicted mid-inspection.
    pub fn take_evicted_pending(&mut self) -> Vec<FlowKey> {
        std::mem::take(&mut self.evicted_pending)
    }

    /// Currently tracked flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> FlowStats {
        self.stats
    }
}

impl Default for FlowTable {
    /// A table with a 5-minute idle timeout (a common middlebox default).
    fn default() -> Self {
        Self::new(300_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn pkt(t: u64, sport: u16, payload: &'static [u8]) -> Packet {
        Packet {
            t_ms: t,
            src: Endpoint::new(0x0a00_0001, sport),
            dst: Endpoint::new(0x0a00_0002, 443),
            transport: Transport::Tcp,
            payload: Bytes::from_static(payload),
        }
    }

    #[test]
    fn payloads_are_fed_until_finished_then_skipped() {
        let mut t = FlowTable::default();
        let first = pkt(0, 5000, b"hel");
        assert_eq!(t.observe(&first), FlowDecision::InspectNew);
        // The caller has not concluded: keep feeding segments (TLS records
        // span TCP segments).
        assert_eq!(t.observe(&pkt(1, 5000, b"lo")), FlowDecision::Inspect);
        t.finish(&FlowKey::of(&first));
        assert_eq!(t.observe(&pkt(2, 5000, b"more")), FlowDecision::Skip);
        assert_eq!(t.active_flows(), 1);
        assert_eq!(t.stats().packets, 3);
        assert_eq!(t.stats().bytes, 9);
    }

    #[test]
    fn empty_segments_defer_inspection() {
        let mut t = FlowTable::default();
        assert_eq!(t.observe(&pkt(0, 5000, b"")), FlowDecision::Skip);
        assert_eq!(
            t.observe(&pkt(1, 5000, b"payload")),
            FlowDecision::InspectNew
        );
        // Empty mid-flow segments (pure ACKs) are skipped even while
        // inspection is pending.
        assert_eq!(t.observe(&pkt(2, 5000, b"")), FlowDecision::Skip);
    }

    #[test]
    fn different_five_tuples_are_different_flows() {
        let mut t = FlowTable::default();
        assert_eq!(t.observe(&pkt(0, 5000, b"a")), FlowDecision::InspectNew);
        assert_eq!(t.observe(&pkt(0, 5001, b"b")), FlowDecision::InspectNew);
        assert_eq!(t.active_flows(), 2);
        assert_eq!(t.stats().flows_created, 2);
    }

    #[test]
    fn finish_on_unknown_flow_is_a_noop() {
        let mut t = FlowTable::default();
        let ghost = pkt(0, 60_000, b"x");
        t.finish(&FlowKey::of(&ghost));
        assert_eq!(t.active_flows(), 0);
    }

    #[test]
    fn idle_flows_are_evicted_and_reinspected() {
        let mut t = FlowTable::new(1000);
        let p0 = pkt(0, 5000, b"a");
        assert_eq!(t.observe(&p0), FlowDecision::InspectNew);
        t.finish(&FlowKey::of(&p0));
        t.evict_idle(5000);
        assert_eq!(t.active_flows(), 0);
        assert_eq!(t.stats().flows_evicted, 1);
        // Same 5-tuple later is a fresh flow (port reuse).
        assert_eq!(t.observe(&pkt(6000, 5000, b"b")), FlowDecision::InspectNew);
    }

    #[test]
    fn mid_inspection_evictions_are_surfaced_for_cleanup() {
        let mut t = FlowTable::new(1000);
        // Flow A: inspection concluded before idling out → not surfaced.
        let done = pkt(0, 5000, b"a");
        t.observe(&done);
        t.finish(&FlowKey::of(&done));
        // Flow B: still mid-reassembly when it idles out → surfaced.
        let pending = pkt(0, 5001, b"partial");
        t.observe(&pending);
        // Flow C: never saw a payload (empty segments only) → not surfaced.
        t.observe(&pkt(0, 5002, b""));
        assert!(!t.has_evicted_pending());
        t.evict_idle(10_000);
        assert_eq!(t.active_flows(), 0);
        assert!(t.has_evicted_pending());
        assert_eq!(t.take_evicted_pending(), vec![FlowKey::of(&pending)]);
        assert!(!t.has_evicted_pending(), "drain empties the queue");
    }

    #[test]
    fn flow_stats_merge_sums_every_field() {
        let mut a = FlowTable::new(1000);
        a.observe(&pkt(0, 5000, b"abc"));
        a.observe(&pkt(1, 5001, b"de"));
        a.evict_idle(10_000);
        let mut b = FlowTable::default();
        b.observe(&pkt(0, 5002, b"fgh"));
        let merged = FlowStats::merged([a.stats(), b.stats()]);
        assert_eq!(merged.packets, 3);
        assert_eq!(merged.bytes, 8);
        assert_eq!(merged.flows_created, 3);
        assert_eq!(merged.flows_evicted, 2);
    }

    #[test]
    fn amortized_eviction_keeps_table_bounded() {
        let mut t = FlowTable::new(10);
        for i in 0..10_000u64 {
            // Every packet a new flow, each instantly idle.
            let p = Packet {
                t_ms: i * 100,
                src: Endpoint::new(1, (i % 60_000) as u16),
                dst: Endpoint::new(2, 443),
                transport: Transport::Udp,
                payload: Bytes::from_static(b"x"),
            };
            t.observe(&p);
        }
        assert!(
            t.active_flows() < 2048,
            "bounded by amortized eviction: {}",
            t.active_flows()
        );
    }
}
