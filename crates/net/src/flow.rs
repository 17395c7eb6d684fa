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
use std::collections::BTreeMap;

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
    /// When the buffer opened, as the table's running count of openings:
    /// its key in [`Open::order`].
    opened: u64,
}

#[derive(Debug, Clone)]
struct FlowState {
    last_seen_ms: u64,
    /// Inspection concluded (name extracted, hidden, unparseable or
    /// abandoned): the flow's later packets are skipped.
    done: bool,
    /// The partial first payload, while one is being reassembled. Boxed, so
    /// the many entries that never hold one stay three words.
    reassembly: Option<Box<Reassembly>>,
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

/// The table's open reassembly buffers, kept exact as they open and drop.
#[derive(Debug, Default)]
struct Open {
    /// The key of every flow holding a buffer, by opening number: oldest
    /// first. An entry goes wherever its buffer goes, so none is stale.
    order: BTreeMap<u64, FlowKey>,
    /// Openings so far: the next buffer's opening number.
    opened: u64,
    /// Bytes across the open buffers.
    bytes: usize,
    /// Buffers abandoned with their flow, by idle eviction or [`FlowTable::shed`].
    evicted: u64,
}

impl Open {
    fn close(&mut self, buf: &Reassembly) {
        self.order.remove(&buf.opened);
        self.bytes -= buf.bytes.len();
    }
}

/// The observer's flow table.
///
/// One hash probe per packet: [`FlowTable::observe`] finds or creates the
/// packet's entry and hands it back as a [`FlowEntry`], through which the
/// caller concludes the flow and grows its reassembly buffer. The buffer
/// lives in the entry, and the table alone keeps the order the buffers
/// opened in, their byte total and the count of those it abandoned
/// ([`FlowTable::evicted_mid_handshake`]), by idle eviction or by
/// [`FlowTable::shed`].
#[derive(Debug)]
pub struct FlowTable {
    flows: HashMap<FlowKey, FlowState, KeyedState>,
    idle_timeout_ms: u64,
    stats: FlowStats,
    /// Packets since the last idle eviction: one runs every 1 024 packets.
    since_evict: u64,
    open: Open,
}

/// A packet's flow, as [`FlowTable::observe`] found or created it.
#[derive(Debug)]
pub struct FlowEntry<'a> {
    key: FlowKey,
    flow: &'a mut FlowState,
    open: &'a mut Open,
}

impl FlowEntry<'_> {
    /// Open a reassembly buffer holding `payload`, the segment at `t_ms`,
    /// as the table's newest. Replaces any buffer the flow already holds.
    pub fn start_reassembly(&mut self, payload: &[u8], t_ms: u64) {
        self.drop_reassembly();
        let opened = self.open.opened;
        self.open.opened += 1;
        self.open.order.insert(opened, self.key);
        self.open.bytes += payload.len();
        self.flow.reassembly = Some(Box::new(Reassembly {
            bytes: payload.to_vec(),
            segments: 1,
            first_t_ms: t_ms,
            opened,
        }));
    }

    /// Append a segment to the open reassembly buffer and return it;
    /// `None` when the flow holds no buffer.
    pub fn append(&mut self, payload: &[u8]) -> Option<&Reassembly> {
        let buf = self.flow.reassembly.as_deref_mut()?;
        buf.bytes.extend_from_slice(payload);
        buf.segments += 1;
        self.open.bytes += payload.len();
        Some(buf)
    }

    /// Conclude inspection: [`FlowTable::observe`] skips the flow's later
    /// packets, and its buffer, if any, is dropped.
    pub fn finish(mut self) {
        self.drop_reassembly();
        self.flow.done = true;
    }

    fn drop_reassembly(&mut self) {
        if let Some(buf) = self.flow.reassembly.take() {
            self.open.close(&buf);
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
            open: Open::default(),
        }
    }

    /// Record a packet and return its flow's entry when the payload should
    /// be inspected: `None` for an empty segment or a concluded flow.
    pub fn observe(&mut self, pkt: &Packet) -> Option<FlowEntry<'_>> {
        self.stats.packets += 1;
        self.stats.bytes += pkt.payload.len() as u64;
        self.since_evict += 1;
        if self.since_evict >= 1024 {
            self.evict_idle(pkt.t_ms);
            self.since_evict = 0;
        }
        let key = FlowKey::of(pkt);
        let flow = match self.flows.entry(key) {
            Entry::Occupied(slot) => {
                let flow = slot.into_mut();
                flow.last_seen_ms = pkt.t_ms;
                flow
            }
            Entry::Vacant(slot) => {
                self.stats.flows_created += 1;
                slot.insert(FlowState {
                    last_seen_ms: pkt.t_ms,
                    done: false,
                    reassembly: None,
                })
            }
        };
        (!flow.done && !pkt.payload.is_empty()).then_some(FlowEntry {
            key,
            flow,
            open: &mut self.open,
        })
    }

    /// Abandon open reassembly buffers, oldest opened first and never
    /// `keep`'s, until at most `max_flows` stay open holding at most
    /// `max_bytes` between them, or `keep`'s is the only one left. Each
    /// abandoned flow is concluded and counted in
    /// [`evicted_mid_handshake`](Self::evicted_mid_handshake).
    pub fn shed(&mut self, keep: &FlowKey, max_flows: usize, max_bytes: usize) {
        let open = &mut self.open;
        while open.order.len() > max_flows || open.bytes > max_bytes {
            let Some((&opened, &old)) = open.order.iter().find(|(_, key)| *key != keep) else {
                break;
            };
            open.order.remove(&opened);
            open.evicted += 1;
            if let Some(flow) = self.flows.get_mut(&old) {
                flow.done = true;
                if let Some(buf) = flow.reassembly.take() {
                    open.bytes -= buf.bytes.len();
                }
            }
        }
    }

    /// Drop flows idle since before `now_ms - idle_timeout_ms`. A dropped
    /// flow's reassembly buffer goes with it and is counted in
    /// [`evicted_mid_handshake`](Self::evicted_mid_handshake).
    pub fn evict_idle(&mut self, now_ms: u64) {
        let cutoff = now_ms.saturating_sub(self.idle_timeout_ms);
        let before = self.flows.len();
        let open = &mut self.open;
        self.flows.retain(|_, s| {
            let keep = s.last_seen_ms >= cutoff;
            if let (false, Some(buf)) = (keep, &s.reassembly) {
                open.close(buf);
                open.evicted += 1;
            }
            keep
        });
        self.stats.flows_evicted += (before - self.flows.len()) as u64;
    }

    /// Reassembly buffers abandoned with their flow: by idle eviction or
    /// by [`shed`](Self::shed).
    pub fn evicted_mid_handshake(&self) -> u64 {
        self.open.evicted
    }

    /// Flows currently holding a reassembly buffer.
    pub fn reassembling_flows(&self) -> usize {
        self.open.order.len()
    }

    /// Keys of the flows holding a reassembly buffer, oldest opened first.
    pub fn reassembling(&self) -> impl Iterator<Item = &FlowKey> {
        self.open.order.values()
    }

    /// Bytes currently held across all reassembly buffers.
    pub fn reassembly_bytes(&self) -> usize {
        self.open.bytes
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

    fn inspects(t: &mut FlowTable, p: &Packet) -> bool {
        t.observe(p).is_some()
    }

    /// Open a reassembly buffer on `p`'s flow.
    fn open(t: &mut FlowTable, p: &Packet) {
        let mut entry = t.observe(p).expect("payload is inspected");
        entry.start_reassembly(&p.payload, p.t_ms);
    }

    #[test]
    fn payloads_are_fed_until_finished_then_skipped() {
        let mut t = FlowTable::default();
        assert!(inspects(&mut t, &pkt(0, 5000, b"hel")));
        // The caller has not concluded: keep feeding segments (TLS records
        // span TCP segments).
        t.observe(&pkt(1, 5000, b"lo"))
            .expect("still inspected")
            .finish();
        assert!(!inspects(&mut t, &pkt(2, 5000, b"more")));
        assert_eq!(t.active_flows(), 1);
        assert_eq!(t.stats().packets, 3);
        assert_eq!(t.stats().bytes, 9);
    }

    #[test]
    fn empty_segments_defer_inspection() {
        let mut t = FlowTable::default();
        assert!(!inspects(&mut t, &pkt(0, 5000, b"")));
        assert!(inspects(&mut t, &pkt(1, 5000, b"payload")));
        // Empty mid-flow segments (pure ACKs) are skipped even while
        // inspection is pending.
        assert!(!inspects(&mut t, &pkt(2, 5000, b"")));
    }

    #[test]
    fn different_five_tuples_are_different_flows() {
        let mut t = FlowTable::default();
        assert!(inspects(&mut t, &pkt(0, 5000, b"a")));
        assert!(inspects(&mut t, &pkt(0, 5001, b"b")));
        assert_eq!(t.active_flows(), 2);
        assert_eq!(t.stats().flows_created, 2);
    }

    /// Shedding touches only open buffers: a key the table never saw
    /// creates nothing, a flow awaiting its first payload still gets it
    /// inspected, and `keep`'s own buffer survives any cap.
    #[test]
    fn finish_on_unknown_flow_is_a_noop() {
        let mut t = FlowTable::default();
        let ghost = pkt(0, 60_000, b"x");
        t.shed(&FlowKey::of(&ghost), 0, 0);
        assert_eq!((t.active_flows(), t.evicted_mid_handshake()), (0, 0));
        let syn = pkt(0, 60_001, b"");
        assert!(!inspects(&mut t, &syn));
        t.shed(&FlowKey::of(&ghost), 0, 0);
        assert!(inspects(&mut t, &pkt(1, 60_001, b"hello")));
        let kept = pkt(2, 60_002, b"partial");
        open(&mut t, &kept);
        t.shed(&FlowKey::of(&kept), 0, 0);
        assert_eq!((t.reassembling_flows(), t.evicted_mid_handshake()), (1, 0));
    }

    #[test]
    fn idle_flows_are_evicted_and_reinspected() {
        let mut t = FlowTable::new(1000);
        t.observe(&pkt(0, 5000, b"a")).expect("inspected").finish();
        t.evict_idle(5000);
        assert_eq!(t.active_flows(), 0);
        assert_eq!(t.stats().flows_evicted, 1);
        // Same 5-tuple later is a fresh flow (port reuse).
        assert!(inspects(&mut t, &pkt(6000, 5000, b"b")));
    }

    /// A flow evicted while it holds a reassembly buffer takes the buffer
    /// with it and is counted there; concluded flows and flows that never
    /// saw a payload are evicted uncounted. A shed buffer is counted in
    /// the same place, oldest opened first, and its flow is concluded.
    #[test]
    fn mid_inspection_evictions_are_surfaced_for_cleanup() {
        let mut t = FlowTable::new(1000);
        // Flow A: inspection concluded before idling out → not counted.
        t.observe(&pkt(0, 5000, b"a")).expect("inspected").finish();
        // Flow B: still mid-reassembly when it idles out → counted.
        let pending = pkt(0, 5001, b"partial");
        open(&mut t, &pending);
        let mut entry = t.observe(&pkt(0, 5001, b"+more")).expect("pending");
        let grown = entry.append(b"+more").expect("buffer is open");
        assert_eq!((grown.bytes.len(), grown.segments), (12, 2));
        // Flow C: never saw a payload (empty segments only) → not counted.
        t.observe(&pkt(0, 5002, b""));
        assert_eq!((t.reassembling_flows(), t.reassembly_bytes()), (1, 12));
        assert_eq!(t.evicted_mid_handshake(), 0);
        t.evict_idle(10_000);
        assert_eq!(t.active_flows(), 0);
        assert_eq!(t.evicted_mid_handshake(), 1);
        assert_eq!((t.reassembling_flows(), t.reassembly_bytes()), (0, 0));

        // Flows D, E, F open in that order; the cap of two sheds D.
        for sport in [6000, 6001, 6002] {
            open(&mut t, &pkt(20_000, sport, b"xy"));
        }
        t.shed(&FlowKey::of(&pkt(0, 6002, b"")), 2, usize::MAX);
        assert_eq!(t.evicted_mid_handshake(), 2);
        assert_eq!((t.reassembling_flows(), t.reassembly_bytes()), (2, 4));
        assert!(!inspects(&mut t, &pkt(20_001, 6000, b"z")), "D concluded");
        assert!(inspects(&mut t, &pkt(20_001, 6001, b"z")), "E still open");
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
