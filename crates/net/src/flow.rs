//! Passive flow tracking.
//!
//! An on-path observer must not re-parse every segment of a long-lived
//! connection: the hostname leaks exactly once, in the first client payload
//! (TLS ClientHello / QUIC Initial). [`FlowTable`] keys traffic by 5-tuple,
//! hands the *first* payload of each flow to the caller for inspection, and
//! swallows the rest — with idle-based eviction so memory stays bounded on
//! line-rate streams.

use crate::hash::KeyedState;
use crate::packet::{Endpoint, Packet, Transport};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};

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

/// A TCP flow's first payload while it spans several segments: the
/// observer keeps appending until the ClientHello parses, proves hidden or
/// garbage, or outgrows its budget.
#[derive(Debug, Clone)]
pub struct Reassembly {
    /// The segments' payloads, back to back.
    pub bytes: Vec<u8>,
    /// Segments appended so far.
    pub segments: u32,
    /// Timestamp of the first segment: the flow's start, which stamps the
    /// eventual observation.
    pub first_t_ms: u64,
}

#[derive(Debug, Clone)]
struct FlowState {
    last_seen_ms: u64,
    inspect: InspectState,
    /// The partial first payload, while one is being reassembled. Boxed, so
    /// the many entries that never hold one stay three words.
    reassembly: Option<Box<Reassembly>>,
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
    /// First payload of a newly tracked flow: inspect it.
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

/// What the table holds in reassembly buffers, kept as they change.
#[derive(Debug, Clone, Copy, Default)]
struct Buffered {
    /// Flows holding a buffer.
    flows: usize,
    /// Bytes across those buffers.
    bytes: usize,
    /// Buffers dropped because idle eviction took their flow.
    evicted: u64,
}

/// The observer's flow table.
///
/// One hash probe per packet: [`FlowTable::observe`] finds or creates the
/// packet's entry and hands it back as a [`FlowEntry`], through which the
/// caller concludes the flow and grows its reassembly buffer. The buffer
/// lives in the entry, so a flow evicted mid-handshake takes its bytes
/// with it, counted at the eviction ([`FlowTable::evicted_mid_handshake`]).
#[derive(Debug)]
pub struct FlowTable {
    flows: HashMap<FlowKey, FlowState, KeyedState>,
    idle_timeout_ms: u64,
    stats: FlowStats,
    /// Eviction is amortized: run at most once per `evict_every` packets.
    since_evict: u64,
    buffered: Buffered,
}

/// A packet's flow, as [`FlowTable::observe`] found or created it.
#[derive(Debug)]
pub struct FlowEntry<'a> {
    flow: &'a mut FlowState,
    buffered: &'a mut Buffered,
}

impl FlowEntry<'_> {
    /// Open a reassembly buffer holding `payload`, the segment at `t_ms`.
    /// Replaces any buffer the flow already holds.
    pub fn start_reassembly(&mut self, payload: &[u8], t_ms: u64) {
        self.drop_reassembly();
        self.buffered.flows += 1;
        self.buffered.bytes += payload.len();
        self.flow.reassembly = Some(Box::new(Reassembly {
            bytes: payload.to_vec(),
            segments: 1,
            first_t_ms: t_ms,
        }));
    }

    /// Append a segment to the open reassembly buffer and return it;
    /// `None` when the flow holds no buffer.
    pub fn append(&mut self, payload: &[u8]) -> Option<&Reassembly> {
        let buf = self.flow.reassembly.as_deref_mut()?;
        buf.bytes.extend_from_slice(payload);
        buf.segments += 1;
        self.buffered.bytes += payload.len();
        Some(buf)
    }

    /// Conclude inspection: the flow's later packets get
    /// [`FlowDecision::Skip`], and its buffer, if any, is dropped.
    pub fn finish(mut self) {
        self.drop_reassembly();
        self.flow.inspect = InspectState::Done;
    }

    fn drop_reassembly(&mut self) {
        if let Some(buf) = self.flow.reassembly.take() {
            self.buffered.flows -= 1;
            self.buffered.bytes -= buf.bytes.len();
        }
    }
}

impl FlowTable {
    /// Create a table with the given idle timeout.
    pub fn new(idle_timeout_ms: u64) -> Self {
        Self {
            flows: HashMap::with_hasher(KeyedState::new()),
            idle_timeout_ms,
            stats: FlowStats::default(),
            since_evict: 0,
            buffered: Buffered::default(),
        }
    }

    /// Record a packet: whether its payload should be inspected, and its
    /// flow's entry.
    pub fn observe(&mut self, pkt: &Packet) -> (FlowDecision, FlowEntry<'_>) {
        self.stats.packets += 1;
        self.stats.bytes += pkt.payload.len() as u64;
        self.since_evict += 1;
        if self.since_evict >= 1024 {
            self.evict_idle(pkt.t_ms);
            self.since_evict = 0;
        }
        let empty = pkt.payload.is_empty();
        let (decision, flow) = match self.flows.entry(FlowKey::of(pkt)) {
            Entry::Occupied(slot) => {
                let state = slot.into_mut();
                state.last_seen_ms = pkt.t_ms;
                let decision = match state.inspect {
                    InspectState::Done => FlowDecision::Skip,
                    _ if empty => FlowDecision::Skip,
                    InspectState::AwaitingFirst => {
                        state.inspect = InspectState::Pending;
                        FlowDecision::InspectNew
                    }
                    InspectState::Pending => FlowDecision::Inspect,
                };
                (decision, state)
            }
            Entry::Vacant(slot) => {
                self.stats.flows_created += 1;
                let (inspect, decision) = if empty {
                    (InspectState::AwaitingFirst, FlowDecision::Skip)
                } else {
                    (InspectState::Pending, FlowDecision::InspectNew)
                };
                let state = slot.insert(FlowState {
                    last_seen_ms: pkt.t_ms,
                    inspect,
                    reassembly: None,
                });
                (decision, state)
            }
        };
        let entry = FlowEntry {
            flow,
            buffered: &mut self.buffered,
        };
        (decision, entry)
    }

    /// Conclude a mid-reassembly flow by key: drop its buffer and mark it
    /// done. A flow holding no buffer — unknown, awaiting its first
    /// payload, or already concluded — is left as it is. Returns whether a
    /// buffer was dropped.
    pub fn finish(&mut self, key: &FlowKey) -> bool {
        let Some(flow) = self.flows.get_mut(key) else {
            return false;
        };
        if flow.reassembly.is_none() {
            return false;
        }
        FlowEntry {
            flow,
            buffered: &mut self.buffered,
        }
        .finish();
        true
    }

    /// Whether the flow `key` holds a reassembly buffer.
    pub fn is_reassembling(&self, key: &FlowKey) -> bool {
        self.flows
            .get(key)
            .is_some_and(|flow| flow.reassembly.is_some())
    }

    /// Drop flows idle since before `now_ms - idle_timeout_ms`. A dropped
    /// flow's reassembly buffer goes with it and is counted in
    /// [`evicted_mid_handshake`](Self::evicted_mid_handshake).
    pub fn evict_idle(&mut self, now_ms: u64) {
        let cutoff = now_ms.saturating_sub(self.idle_timeout_ms);
        let before = self.flows.len();
        let buffered = &mut self.buffered;
        self.flows.retain(|_, s| {
            let keep = s.last_seen_ms >= cutoff;
            if let (false, Some(buf)) = (keep, &s.reassembly) {
                buffered.flows -= 1;
                buffered.bytes -= buf.bytes.len();
                buffered.evicted += 1;
            }
            keep
        });
        self.stats.flows_evicted += (before - self.flows.len()) as u64;
    }

    /// Reassembly buffers dropped with a flow idle eviction took.
    pub fn evicted_mid_handshake(&self) -> u64 {
        self.buffered.evicted
    }

    /// Flows currently holding a reassembly buffer.
    pub fn reassembling_flows(&self) -> usize {
        self.buffered.flows
    }

    /// Bytes currently held across all reassembly buffers.
    pub fn reassembly_bytes(&self) -> usize {
        self.buffered.bytes
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

    fn decide(t: &mut FlowTable, p: &Packet) -> FlowDecision {
        t.observe(p).0
    }

    #[test]
    fn payloads_are_fed_until_finished_then_skipped() {
        let mut t = FlowTable::default();
        assert_eq!(
            decide(&mut t, &pkt(0, 5000, b"hel")),
            FlowDecision::InspectNew
        );
        // The caller has not concluded: keep feeding segments (TLS records
        // span TCP segments).
        let (decision, entry) = t.observe(&pkt(1, 5000, b"lo"));
        assert_eq!(decision, FlowDecision::Inspect);
        entry.finish();
        assert_eq!(decide(&mut t, &pkt(2, 5000, b"more")), FlowDecision::Skip);
        assert_eq!(t.active_flows(), 1);
        assert_eq!(t.stats().packets, 3);
        assert_eq!(t.stats().bytes, 9);
    }

    #[test]
    fn empty_segments_defer_inspection() {
        let mut t = FlowTable::default();
        assert_eq!(decide(&mut t, &pkt(0, 5000, b"")), FlowDecision::Skip);
        assert_eq!(
            decide(&mut t, &pkt(1, 5000, b"payload")),
            FlowDecision::InspectNew
        );
        // Empty mid-flow segments (pure ACKs) are skipped even while
        // inspection is pending.
        assert_eq!(decide(&mut t, &pkt(2, 5000, b"")), FlowDecision::Skip);
    }

    #[test]
    fn different_five_tuples_are_different_flows() {
        let mut t = FlowTable::default();
        assert_eq!(
            decide(&mut t, &pkt(0, 5000, b"a")),
            FlowDecision::InspectNew
        );
        assert_eq!(
            decide(&mut t, &pkt(0, 5001, b"b")),
            FlowDecision::InspectNew
        );
        assert_eq!(t.active_flows(), 2);
        assert_eq!(t.stats().flows_created, 2);
    }

    /// Finishing by key concludes only a flow that is reassembling: an
    /// unknown key creates nothing, and a flow awaiting its first payload
    /// still gets it inspected.
    #[test]
    fn finish_on_unknown_flow_is_a_noop() {
        let mut t = FlowTable::default();
        let ghost = pkt(0, 60_000, b"x");
        assert!(!t.finish(&FlowKey::of(&ghost)));
        assert_eq!(t.active_flows(), 0);
        let syn = pkt(0, 60_001, b"");
        assert_eq!(decide(&mut t, &syn), FlowDecision::Skip);
        assert!(!t.finish(&FlowKey::of(&syn)));
        assert_eq!(
            decide(&mut t, &pkt(1, 60_001, b"hello")),
            FlowDecision::InspectNew
        );
    }

    #[test]
    fn idle_flows_are_evicted_and_reinspected() {
        let mut t = FlowTable::new(1000);
        let (decision, entry) = t.observe(&pkt(0, 5000, b"a"));
        assert_eq!(decision, FlowDecision::InspectNew);
        entry.finish();
        t.evict_idle(5000);
        assert_eq!(t.active_flows(), 0);
        assert_eq!(t.stats().flows_evicted, 1);
        // Same 5-tuple later is a fresh flow (port reuse).
        assert_eq!(
            decide(&mut t, &pkt(6000, 5000, b"b")),
            FlowDecision::InspectNew
        );
    }

    /// A flow evicted while it holds a reassembly buffer takes the buffer
    /// with it and is counted there; concluded flows and flows that never
    /// saw a payload are evicted uncounted.
    #[test]
    fn mid_inspection_evictions_are_surfaced_for_cleanup() {
        let mut t = FlowTable::new(1000);
        // Flow A: inspection concluded before idling out → not counted.
        t.observe(&pkt(0, 5000, b"a")).1.finish();
        // Flow B: still mid-reassembly when it idles out → counted.
        let pending = pkt(0, 5001, b"partial");
        let (_, mut entry) = t.observe(&pending);
        entry.start_reassembly(&pending.payload, pending.t_ms);
        let grown = entry.append(b"+more").expect("buffer is open");
        assert_eq!((grown.bytes.len(), grown.segments), (12, 2));
        // Flow C: never saw a payload (empty segments only) → not counted.
        t.observe(&pkt(0, 5002, b""));
        assert!(t.is_reassembling(&FlowKey::of(&pending)));
        assert_eq!((t.reassembling_flows(), t.reassembly_bytes()), (1, 12));
        assert_eq!(t.evicted_mid_handshake(), 0);
        t.evict_idle(10_000);
        assert_eq!(t.active_flows(), 0);
        assert_eq!(t.evicted_mid_handshake(), 1);
        assert_eq!((t.reassembling_flows(), t.reassembly_bytes()), (0, 0));
        assert!(!t.is_reassembling(&FlowKey::of(&pending)));
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
