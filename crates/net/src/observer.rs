//! The passive SNI observer.
//!
//! [`SniObserver`] is the paper's eavesdropper: it consumes a packet stream,
//! inspects exactly one payload per flow (via [`FlowTable`]), extracts
//! hostnames from TLS ClientHellos, QUIC Initials and DNS queries, and
//! assembles per-client hostname sequences — the input format of the
//! profiling algorithm (Section 4.1: "hostname request sequences across
//! users in the network").
//!
//! ## Adversarial ingest
//!
//! A production tap sees truncated records, re-segmented and duplicated TCP,
//! coalesced QUIC datagrams and outright garbage (DESIGN.md §8). The
//! observer is hardened so that *every* input degrades to a counted skip,
//! never a panic and never unbounded memory:
//!
//! * each failure mode lands in a dedicated [`ObserverStats`] taxonomy
//!   counter (`truncated_records`, `bad_lengths`, `reassembly_overflow`,
//!   `evicted_mid_handshake`, `garbage`, `reassembly_invariant`), with
//!   `parse_errors` kept as their running total;
//! * reassembly buffers are bounded per flow (bytes and segments), in
//!   count (concurrent flows) and in aggregate (total buffered bytes) by a
//!   tunable [`ObserverConfig`], with FIFO eviction at every cap;
//! * flows the [`FlowTable`] evicts mid-handshake surface through
//!   [`FlowTable::take_evicted_pending`] so their buffers are reclaimed
//!   immediately instead of leaking until 5-tuple reuse.
//!
//! The `net::chaos` fault-injection harness ([`crate::conformance`]: both
//! chaos test suites and `hostprof chaos`) property-tests these guarantees
//! against seeded mutation streams.

use crate::dns;
use crate::error::ParseError;
use crate::flow::{FlowDecision, FlowKey, FlowTable};
use crate::packet::{Packet, Transport};
use crate::quic;
use crate::tls;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Where a hostname was recovered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostnameSource {
    /// TLS ClientHello `server_name` over TCP.
    TlsSni,
    /// ClientHello inside a QUIC Initial.
    QuicSni,
    /// Plaintext DNS query name.
    DnsQuery,
}

/// One recovered `(time, client, hostname)` fact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Observation {
    /// Connection start time, milliseconds: the timestamp of the flow's
    /// *first* payload segment, not of the segment that completed parsing.
    /// A ClientHello reassembled from several TCP segments is stamped with
    /// the time the handshake began — the instant the ground-truth request
    /// happened — so downstream session windows see the same timeline an
    /// oracle with the original trace would.
    pub t_ms: u64,
    /// Client IPv4 address — the observer's only notion of "user".
    pub client_ip: u32,
    /// Recovered hostname (lowercase).
    pub hostname: String,
    /// Extraction path.
    pub source: HostnameSource,
}

/// Observer counters, reported by the E6-style experiments.
///
/// `parse_errors` is the aggregate failure count; the taxonomy fields below
/// it partition the same failures by cause, so
/// `parse_errors == truncated_records + bad_lengths + reassembly_overflow +
/// evicted_mid_handshake + garbage` always holds (asserted by the chaos
/// conformance suite). `reassembly_invariant` sits outside the sum: it
/// counts "impossible" internal states and stays zero in any healthy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserverStats {
    /// Packets consumed.
    pub packets: u64,
    /// Hostnames recovered from TCP TLS.
    pub tls_sni: u64,
    /// Hostnames recovered from QUIC Initials.
    pub quic_sni: u64,
    /// Hostnames recovered from DNS queries.
    pub dns_names: u64,
    /// Well-formed handshakes with no readable name (ECH).
    pub hidden: u64,
    /// Payloads that failed to parse as anything the observer knows —
    /// the sum of the taxonomy counters below.
    pub parse_errors: u64,
    /// ClientHellos recovered only after reassembling 2+ TCP segments.
    pub reassembled: u64,
    /// QUIC long/short-header packets that are legitimately not Initials
    /// (Handshake, 0-RTT, Retry, Version Negotiation, 1-RTT).
    pub skipped_non_initial: u64,
    /// Datagram payloads that ended before a declared length was satisfied
    /// (a truncated capture of a QUIC Initial or DNS query).
    pub truncated_records: u64,
    /// Payloads whose length fields contradict the enclosing structure.
    pub bad_lengths: u64,
    /// TCP reassemblies abandoned at the per-flow byte or segment budget.
    pub reassembly_overflow: u64,
    /// Reassemblies abandoned because the flow was evicted mid-handshake
    /// (idle timeout, concurrent-flow cap, or total buffered-bytes cap).
    pub evicted_mid_handshake: u64,
    /// Payloads that parse as none of the protocols the observer knows.
    pub garbage: u64,
    /// Internal reassembly bookkeeping contradicted itself ("impossible"
    /// states that previously aborted via `expect`; counted, never fatal).
    pub reassembly_invariant: u64,
}

/// Tunable limits of the ingest path: every reassembly buffer the observer
/// holds is bounded per flow, in flow count and in aggregate, so a hostile
/// or lossy packet stream cannot grow memory without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserverConfig {
    /// Per-flow reassembly byte budget: a ClientHello that hasn't completed
    /// within this many buffered bytes is abandoned as unparseable.
    pub max_pending_bytes: usize,
    /// Per-flow segment budget for the same buffer.
    pub max_pending_segments: u32,
    /// Cap on concurrently-reassembling flows; beyond it the oldest
    /// pending flow is abandoned so a flood of never-completing handshakes
    /// cannot grow memory without bound.
    pub max_pending_flows: usize,
    /// Aggregate cap across *all* reassembly buffers; beyond it the oldest
    /// pending flows are abandoned until the total fits again.
    pub max_total_pending_bytes: usize,
}

impl Default for ObserverConfig {
    fn default() -> Self {
        Self {
            max_pending_bytes: 8 * 1024,
            max_pending_segments: 8,
            max_pending_flows: 4096,
            max_total_pending_bytes: 2 * 1024 * 1024,
        }
    }
}

/// A passive network eavesdropper.
#[derive(Debug)]
pub struct SniObserver {
    flows: FlowTable,
    observations: Vec<Observation>,
    stats: ObserverStats,
    config: ObserverConfig,
    /// Partial ClientHello state per TCP flow, while a handshake spans
    /// several segments: accumulated bytes, segment count, and the
    /// timestamp of the first segment (the flow's start time, which stamps
    /// the eventual observation).
    pending: HashMap<FlowKey, (Vec<u8>, u32, u64)>,
    /// Insertion order of `pending` keys, for FIFO eviction at the caps.
    pending_order: std::collections::VecDeque<FlowKey>,
    /// Total bytes across all `pending` buffers (kept incrementally).
    pending_bytes: usize,
    /// Whether DNS queries are harvested too (off when modeling a pure
    /// TLS-only vantage point, on when modeling a DNS provider, §7.2).
    harvest_dns: bool,
}

/// Outcome of feeding one TCP segment to the TLS reassembler.
enum TlsOutcome {
    /// A hostname was recovered, stamped with the flow's first-segment
    /// timestamp.
    Hostname(String, u64),
    /// More segments are needed; the flow stays pending.
    Incomplete,
    /// Well-formed ClientHello with no readable name (ECH).
    Hidden,
    /// Not a parseable ClientHello.
    Garbage,
    /// The reassembly budget (bytes or segments) ran out.
    Overflow,
}

impl SniObserver {
    /// An observer with the default flow table and limits, ignoring DNS.
    pub fn new() -> Self {
        Self::with_config(ObserverConfig::default())
    }

    /// An observer with explicit ingest limits.
    pub fn with_config(config: ObserverConfig) -> Self {
        Self {
            flows: FlowTable::default(),
            observations: Vec::new(),
            stats: ObserverStats::default(),
            config,
            pending: HashMap::new(),
            pending_order: std::collections::VecDeque::new(),
            pending_bytes: 0,
            harvest_dns: false,
        }
    }

    /// Also record hostnames from plaintext DNS queries.
    pub fn with_dns_harvesting(mut self) -> Self {
        self.harvest_dns = true;
        self
    }

    /// The ingest limits in force.
    pub fn config(&self) -> ObserverConfig {
        self.config
    }

    /// Total bytes currently held in reassembly buffers. Bounded by
    /// [`ObserverConfig::max_total_pending_bytes`] plus one segment's
    /// worth of slack (the cap is enforced after each append).
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Number of flows currently mid-reassembly.
    pub fn pending_flows(&self) -> usize {
        self.pending.len()
    }

    /// Remove a pending entry, keeping the byte total consistent.
    fn pending_remove(&mut self, key: &FlowKey) -> Option<(Vec<u8>, u32, u64)> {
        let removed = self.pending.remove(key);
        if let Some((buf, _, _)) = &removed {
            self.pending_bytes = self.pending_bytes.saturating_sub(buf.len());
        }
        removed
    }

    /// Abandon the oldest pending flow (FIFO); returns whether one existed.
    /// Counted as an eviction mid-handshake.
    fn abandon_oldest_pending(&mut self) -> bool {
        while let Some(old) = self.pending_order.pop_front() {
            if self.pending_remove(&old).is_some() {
                self.stats.parse_errors += 1;
                self.stats.evicted_mid_handshake += 1;
                self.flows.finish(&old);
                return true;
            }
            // Stale order entry for a flow that already completed; skip.
        }
        false
    }

    /// Enforce the flow-count and total-bytes caps after an insert/append.
    fn enforce_pending_caps(&mut self, protect: &FlowKey) {
        while self.pending.len() > self.config.max_pending_flows
            || self.pending_bytes > self.config.max_total_pending_bytes
        {
            // Never evict the flow we are actively appending to: its own
            // growth is bounded by the per-flow budget.
            if self.pending.len() == 1 && self.pending.contains_key(protect) {
                break;
            }
            if let Some(front) = self.pending_order.front().copied() {
                if front == *protect && self.pending.contains_key(&front) {
                    self.pending_order.pop_front();
                    self.pending_order.push_back(front);
                    continue;
                }
            }
            if !self.abandon_oldest_pending() {
                break;
            }
        }
        // `pending_order` accumulates stale entries for flows that finished
        // reassembly; compact it before it dwarfs the live map.
        if self.pending_order.len() > 2 * self.config.max_pending_flows.max(16) {
            let live = &self.pending;
            self.pending_order.retain(|k| live.contains_key(k));
        }
    }

    /// Reclaim reassembly buffers of flows the flow table evicted while
    /// they were still mid-handshake.
    fn reap_evicted_flows(&mut self) {
        for key in self.flows.take_evicted_pending() {
            if self.pending_remove(&key).is_some() {
                self.stats.parse_errors += 1;
                self.stats.evicted_mid_handshake += 1;
            }
        }
    }

    /// Count one parse failure under its taxonomy bucket.
    fn count_parse_failure(&mut self, err: ParseError) {
        self.stats.parse_errors += 1;
        match err {
            ParseError::Truncated => self.stats.truncated_records += 1,
            ParseError::BadLength => self.stats.bad_lengths += 1,
            _ => self.stats.garbage += 1,
        }
    }

    /// Consume one packet; records an observation when a hostname leaks.
    pub fn process(&mut self, pkt: &Packet) {
        self.stats.packets += 1;
        let decision = self.flows.observe(pkt);
        if self.flows.has_evicted_pending() {
            self.reap_evicted_flows();
        }
        if decision == FlowDecision::Skip {
            return;
        }
        let key = FlowKey::of(pkt);
        if decision == FlowDecision::InspectNew {
            // A fresh flow on this 5-tuple: discard any reassembly state a
            // previous (evicted) occupant left behind, or its stale bytes
            // would corrupt this connection's ClientHello. Eviction reaping
            // should already have reclaimed it — reaching here with live
            // bytes means the bookkeeping disagreed with itself.
            if self.pending_remove(&key).is_some() {
                self.stats.reassembly_invariant += 1;
            }
        }
        let recovered: Option<(String, HostnameSource, u64)> = match pkt.transport {
            // TCP: the ClientHello may span several segments — reassemble
            // per flow until it parses, it is provably hidden/garbage, or
            // the buffer budget runs out.
            Transport::Tcp => match self.try_tls(&key, pkt) {
                TlsOutcome::Hostname(name, start_t) => {
                    Some((name, HostnameSource::TlsSni, start_t))
                }
                TlsOutcome::Incomplete => return, // flow stays pending
                TlsOutcome::Hidden => {
                    self.stats.hidden += 1;
                    self.flows.finish(&key);
                    None
                }
                TlsOutcome::Garbage => {
                    self.stats.parse_errors += 1;
                    self.stats.garbage += 1;
                    self.flows.finish(&key);
                    None
                }
                TlsOutcome::Overflow => {
                    self.stats.parse_errors += 1;
                    self.stats.reassembly_overflow += 1;
                    self.flows.finish(&key);
                    None
                }
            },
            // UDP is datagram-oriented: one shot, no reassembly.
            Transport::Udp if pkt.dst.port == 53 => {
                self.flows.finish(&key);
                if !self.harvest_dns {
                    return;
                }
                match dns::extract_qname(&pkt.payload) {
                    Ok(name) => Some((name, HostnameSource::DnsQuery, pkt.t_ms)),
                    Err(e) => {
                        self.count_parse_failure(e);
                        None
                    }
                }
            }
            Transport::Udp => {
                self.flows.finish(&key);
                match quic::classify(&pkt.payload) {
                    Ok(quic::QuicPacketKind::Initial) => {
                        match quic::extract_sni_from_quic(&pkt.payload) {
                            Ok(Some(name)) => Some((name, HostnameSource::QuicSni, pkt.t_ms)),
                            Ok(None) => {
                                self.stats.hidden += 1;
                                None
                            }
                            Err(e) => {
                                self.count_parse_failure(e);
                                None
                            }
                        }
                    }
                    // Mid-connection capture: Handshake/0-RTT/1-RTT/Retry
                    // packets carry no SNI by design — not an error.
                    Ok(_) => {
                        self.stats.skipped_non_initial += 1;
                        None
                    }
                    Err(e) => {
                        self.count_parse_failure(e);
                        None
                    }
                }
            }
        };
        if let Some((mut hostname, source, t_ms)) = recovered {
            // The extractors hand over an owned name: lowercase it where it
            // lies, so an observation costs the one allocation.
            hostname.make_ascii_lowercase();
            match source {
                HostnameSource::TlsSni => self.stats.tls_sni += 1,
                HostnameSource::QuicSni => self.stats.quic_sni += 1,
                HostnameSource::DnsQuery => self.stats.dns_names += 1,
            }
            self.observations.push(Observation {
                t_ms,
                client_ip: pkt.src.ip,
                hostname,
                source,
            });
        }
    }

    /// Feed one TCP segment into the per-flow reassembly state.
    fn try_tls(&mut self, key: &FlowKey, pkt: &Packet) -> TlsOutcome {
        enum Parsed {
            Name(String),
            Hidden,
            Truncated,
            Garbage,
        }
        let mut buffered = self.pending.contains_key(key);
        // Parse against either the lone segment (fast path) or the
        // accumulated flow buffer; the borrow ends before we mutate state.
        let mut appended = 0usize;
        // The observation timestamp: the flow's first segment, not the
        // segment that completes the parse.
        let mut start_t = pkt.t_ms;
        let parsed = {
            let attempt: &[u8] = if buffered {
                match self.pending.get_mut(key) {
                    Some((buf, segments, first_t)) => {
                        buf.extend_from_slice(&pkt.payload);
                        *segments += 1;
                        appended = pkt.payload.len();
                        start_t = *first_t;
                        buf
                    }
                    None => {
                        // `contains_key` just said yes: unreachable in any
                        // execution we know of, but a counted fallback to
                        // the lone-segment path beats aborting the tap.
                        self.stats.reassembly_invariant += 1;
                        buffered = false;
                        &pkt.payload
                    }
                }
            } else {
                &pkt.payload
            };
            match tls::extract_sni(attempt) {
                Ok(Some(name)) => Parsed::Name(name.to_string()),
                Ok(None) => Parsed::Hidden,
                Err(ParseError::Truncated) => Parsed::Truncated,
                Err(_) => Parsed::Garbage,
            }
        };
        self.pending_bytes += appended;
        match parsed {
            Parsed::Name(name) => {
                if buffered {
                    self.stats.reassembled += 1;
                    self.pending_remove(key);
                }
                self.flows.finish(key);
                TlsOutcome::Hostname(name, start_t)
            }
            Parsed::Hidden => {
                self.pending_remove(key);
                TlsOutcome::Hidden
            }
            Parsed::Truncated => {
                if buffered {
                    match self.pending.get(key) {
                        Some((buf, segments, _)) => {
                            if buf.len() > self.config.max_pending_bytes
                                || *segments >= self.config.max_pending_segments
                            {
                                self.pending_remove(key);
                                return TlsOutcome::Overflow;
                            }
                        }
                        None => {
                            // As above: the entry vanished between the
                            // append and the budget check. Count it and
                            // treat the flow as freshly abandoned.
                            self.stats.reassembly_invariant += 1;
                            return TlsOutcome::Overflow;
                        }
                    }
                    self.enforce_pending_caps(key);
                } else {
                    if pkt.payload.len() > self.config.max_pending_bytes {
                        return TlsOutcome::Overflow;
                    }
                    self.pending
                        .insert(*key, (pkt.payload.to_vec(), 1, pkt.t_ms));
                    self.pending_bytes += pkt.payload.len();
                    self.pending_order.push_back(*key);
                    self.enforce_pending_caps(key);
                }
                TlsOutcome::Incomplete
            }
            Parsed::Garbage => {
                self.pending_remove(key);
                TlsOutcome::Garbage
            }
        }
    }

    /// Consume a whole stream.
    pub fn process_stream<'a, I: IntoIterator<Item = &'a Packet>>(&mut self, packets: I) {
        for p in packets {
            self.process(p);
        }
    }

    /// Everything observed so far, in processing order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Drain the observations, leaving the observer running.
    pub fn take_observations(&mut self) -> Vec<Observation> {
        std::mem::take(&mut self.observations)
    }

    /// Drain the observations in place: like
    /// [`take_observations`](Self::take_observations), but the buffer keeps
    /// its capacity, so a per-packet caller does not re-allocate it on the
    /// next hostname.
    pub fn drain_observations(&mut self) -> std::vec::Drain<'_, Observation> {
        self.observations.drain(..)
    }

    /// Group observations into per-client `(time, hostname)` sequences —
    /// the profiling algorithm's input. Clients are keyed by IP: behind a
    /// NAT, several users collapse into one sequence, exactly the §7.2
    /// confusion this substrate lets us quantify.
    pub fn per_client_sequences(&self) -> HashMap<u32, Vec<(u64, String)>> {
        let mut map: HashMap<u32, Vec<(u64, String)>> = HashMap::new();
        for o in &self.observations {
            map.entry(o.client_ip)
                .or_default()
                .push((o.t_ms, o.hostname.clone()));
        }
        for seq in map.values_mut() {
            seq.sort_by_key(|(t, _)| *t);
        }
        map
    }

    /// Counters.
    pub fn stats(&self) -> ObserverStats {
        self.stats
    }

    /// Flow-table counters.
    pub fn flow_stats(&self) -> crate::flow::FlowStats {
        self.flows.stats()
    }
}

impl Default for SniObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl ObserverStats {
    /// Sum of the failure-taxonomy counters; equals `parse_errors` by
    /// construction (checked by the chaos conformance suite).
    pub fn taxonomy_total(&self) -> u64 {
        self.truncated_records
            + self.bad_lengths
            + self.reassembly_overflow
            + self.evicted_mid_handshake
            + self.garbage
    }

    /// Fold per-lane observers' counters into one. Every field is a plain
    /// sum, so merging preserves the taxonomy invariant: if `parse_errors
    /// == taxonomy_total()` holds for every input it holds for the merge.
    /// The serving loop uses this to report one aggregate taxonomy across N
    /// per-lane observers.
    pub fn merged(lanes: impl IntoIterator<Item = ObserverStats>) -> ObserverStats {
        let mut t = ObserverStats::default();
        for s in lanes {
            t.packets += s.packets;
            t.tls_sni += s.tls_sni;
            t.quic_sni += s.quic_sni;
            t.dns_names += s.dns_names;
            t.hidden += s.hidden;
            t.parse_errors += s.parse_errors;
            t.reassembled += s.reassembled;
            t.skipped_non_initial += s.skipped_non_initial;
            t.truncated_records += s.truncated_records;
            t.bad_lengths += s.bad_lengths;
            t.reassembly_overflow += s.reassembly_overflow;
            t.evicted_mid_handshake += s.evicted_mid_handshake;
            t.garbage += s.garbage;
            t.reassembly_invariant += s.reassembly_invariant;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Endpoint;
    use crate::tls::ClientHello;
    use bytes::Bytes;

    fn tls_packet(t: u64, client_ip: u32, sport: u16, host: &str) -> Packet {
        Packet {
            t_ms: t,
            src: Endpoint::new(client_ip, sport),
            dst: Endpoint::new(0x0808_0808, 443),
            transport: Transport::Tcp,
            payload: Bytes::from(ClientHello::for_hostname(host).encode()),
        }
    }

    #[test]
    fn tls_sni_is_observed_once_per_flow() {
        let mut obs = SniObserver::new();
        obs.process(&tls_packet(0, 1, 5000, "espn.com"));
        // Subsequent data on the same flow must not re-count.
        let mut follow = tls_packet(5, 1, 5000, "espn.com");
        follow.payload = Bytes::from_static(&[23, 3, 3, 0, 1, 0]);
        obs.process(&follow);
        assert_eq!(obs.observations().len(), 1);
        assert_eq!(obs.observations()[0].hostname, "espn.com");
        assert_eq!(obs.stats().tls_sni, 1);
    }

    #[test]
    fn quic_and_dns_paths_work() {
        let mut obs = SniObserver::new().with_dns_harvesting();
        let quic_pkt = Packet {
            t_ms: 1,
            src: Endpoint::new(7, 40000),
            dst: Endpoint::new(9, 443),
            transport: Transport::Udp,
            payload: Bytes::from(crate::quic::InitialPacket::for_hostname("quic.example").encode()),
        };
        obs.process(&quic_pkt);
        let dns_pkt = Packet {
            t_ms: 2,
            src: Endpoint::new(7, 40001),
            dst: Endpoint::new(9, 53),
            transport: Transport::Udp,
            payload: Bytes::from(crate::dns::DnsQuery::for_hostname("dns.example").encode()),
        };
        obs.process(&dns_pkt);
        assert_eq!(obs.stats().quic_sni, 1);
        assert_eq!(obs.stats().dns_names, 1);
        let seqs = obs.per_client_sequences();
        assert_eq!(seqs[&7].len(), 2);
        assert_eq!(seqs[&7][0].1, "quic.example");
    }

    #[test]
    fn dns_is_ignored_without_harvesting() {
        let mut obs = SniObserver::new();
        let dns_pkt = Packet {
            t_ms: 2,
            src: Endpoint::new(7, 40001),
            dst: Endpoint::new(9, 53),
            transport: Transport::Udp,
            payload: Bytes::from(crate::dns::DnsQuery::for_hostname("dns.example").encode()),
        };
        obs.process(&dns_pkt);
        assert!(obs.observations().is_empty());
    }

    #[test]
    fn ech_counts_as_hidden_not_error() {
        let mut obs = SniObserver::new();
        let pkt = Packet {
            t_ms: 0,
            src: Endpoint::new(1, 5000),
            dst: Endpoint::new(2, 443),
            transport: Transport::Tcp,
            payload: Bytes::from(ClientHello::with_ech(64).encode()),
        };
        obs.process(&pkt);
        assert_eq!(obs.stats().hidden, 1);
        assert_eq!(obs.stats().parse_errors, 0);
        assert!(obs.observations().is_empty());
    }

    /// The one place the two transports disagree (DESIGN.md §8.2): the TCP
    /// walk propagates a malformed `server_name` body's error, the QUIC
    /// path reads the extension through `ClientHello::sni`, which swallows
    /// it. Moving either would move chaos goldens between buckets.
    #[test]
    fn malformed_server_name_is_garbage_over_tcp_and_hidden_over_quic() {
        let over_both = |ch: &ClientHello| {
            let mut obs = SniObserver::new();
            let mut tcp = tls_packet(0, 1, 5000, "ignored");
            tcp.payload = Bytes::from(ch.encode());
            obs.process(&tcp);
            let mut initial = crate::quic::InitialPacket::for_hostname("ignored");
            initial.crypto = ch.encode_handshake();
            obs.process(&Packet {
                t_ms: 1,
                src: Endpoint::new(1, 40000),
                dst: Endpoint::new(9, 443),
                transport: Transport::Udp,
                payload: Bytes::from(initial.encode()),
            });
            assert!(obs.observations().is_empty());
            assert_eq!(obs.stats().taxonomy_total(), obs.stats().parse_errors);
            obs
        };

        let mut non_ascii = ClientHello::for_hostname("name.example");
        non_ascii.extensions[0].data[5] = 0xff;
        let obs = over_both(&non_ascii);
        assert_eq!((obs.stats().garbage, obs.stats().hidden), (1, 1));

        // A name list cut short is `Truncated` to the TCP walk, which waits
        // for a segment that will not come; over QUIC it is hidden again.
        let mut short_list = ClientHello::for_hostname("name.example");
        short_list.extensions[0].data.truncate(4);
        let obs = over_both(&short_list);
        assert_eq!((obs.stats().parse_errors, obs.stats().hidden), (0, 1));
        assert_eq!(obs.pending_flows(), 1);
    }

    #[test]
    fn garbage_counts_as_parse_error() {
        let mut obs = SniObserver::new();
        let pkt = Packet {
            t_ms: 0,
            src: Endpoint::new(1, 5001),
            dst: Endpoint::new(2, 443),
            transport: Transport::Tcp,
            payload: Bytes::from_static(b"GET / HTTP/1.1\r\n"),
        };
        obs.process(&pkt);
        assert_eq!(obs.stats().parse_errors, 1);
        assert_eq!(obs.stats().garbage, 1);
        assert_eq!(obs.stats().taxonomy_total(), obs.stats().parse_errors);
    }

    #[test]
    fn sequences_are_time_sorted_per_client() {
        let mut obs = SniObserver::new();
        obs.process(&tls_packet(100, 1, 5000, "b.com"));
        obs.process(&tls_packet(50, 1, 5001, "a.com"));
        obs.process(&tls_packet(70, 2, 5002, "c.com"));
        let seqs = obs.per_client_sequences();
        let names: Vec<&str> = seqs[&1].iter().map(|(_, h)| h.as_str()).collect();
        assert_eq!(names, vec!["a.com", "b.com"]);
        assert_eq!(seqs[&2].len(), 1);
    }

    #[test]
    fn segmented_client_hello_is_reassembled() {
        let mut obs = SniObserver::new();
        let record = ClientHello::for_hostname("segmented.example").encode();
        let cuts = [record.len() / 3, 2 * record.len() / 3, record.len()];
        let mut prev = 0usize;
        for (i, &cut) in cuts.iter().enumerate() {
            let mut pkt = tls_packet(i as u64, 9, 7000, "ignored");
            pkt.payload = Bytes::from(record[prev..cut].to_vec());
            obs.process(&pkt);
            prev = cut;
        }
        assert_eq!(obs.observations().len(), 1);
        assert_eq!(obs.observations()[0].hostname, "segmented.example");
        assert_eq!(obs.stats().reassembled, 1);
        assert_eq!(obs.stats().parse_errors, 0);
        assert_eq!(obs.pending_bytes(), 0, "buffer reclaimed on completion");
        // A later data segment on the same flow is skipped.
        let mut follow = tls_packet(10, 9, 7000, "ignored");
        follow.payload = Bytes::from_static(&[23, 3, 3, 0, 1, 0]);
        obs.process(&follow);
        assert_eq!(obs.observations().len(), 1);
    }

    #[test]
    fn reassembly_budget_is_bounded() {
        let mut obs = SniObserver::new();
        // An endless stream of truncated-looking bytes on one flow: a
        // record header promising far more data than ever arrives.
        let mut header = vec![22u8, 3, 1, 0xff, 0xff];
        header.extend_from_slice(&[1, 0xff, 0xff, 0xff]);
        for i in 0..40u64 {
            let mut pkt = tls_packet(i, 3, 7100, "ignored");
            pkt.payload = if i == 0 {
                Bytes::from(header.clone())
            } else {
                Bytes::from(vec![0u8; 1024])
            };
            obs.process(&pkt);
        }
        assert_eq!(obs.stats().parse_errors, 1, "abandoned exactly once");
        assert_eq!(obs.stats().reassembly_overflow, 1);
        assert_eq!(obs.pending_bytes(), 0, "abandoned buffer reclaimed");
        assert!(obs.observations().is_empty());
    }

    #[test]
    fn pending_flow_cap_evicts_oldest_first() {
        let mut obs = SniObserver::with_config(ObserverConfig {
            max_pending_flows: 4,
            ..ObserverConfig::default()
        });
        // Five flows, each stuck mid-reassembly (record promises more).
        let header: &[u8] = &[22, 3, 1, 0x0f, 0xff, 1, 0x00, 0x0f, 0xf0];
        for sport in 0..5u16 {
            let mut pkt = tls_packet(sport as u64, 8, 9000 + sport, "ignored");
            pkt.payload = Bytes::from(header.to_vec());
            obs.process(&pkt);
        }
        assert_eq!(obs.pending_flows(), 4);
        assert_eq!(obs.stats().evicted_mid_handshake, 1);
        assert_eq!(obs.stats().parse_errors, 1);
        assert_eq!(obs.stats().taxonomy_total(), obs.stats().parse_errors);
    }

    #[test]
    fn total_pending_bytes_cap_is_enforced() {
        let mut obs = SniObserver::with_config(ObserverConfig {
            max_pending_bytes: 4096,
            max_total_pending_bytes: 8192,
            ..ObserverConfig::default()
        });
        let mut header = vec![22u8, 3, 1, 0x0f, 0xff, 1, 0x00, 0x0f, 0xf0];
        header.extend_from_slice(&vec![0u8; 2000]);
        for sport in 0..10u16 {
            let mut pkt = tls_packet(sport as u64, 8, 9100 + sport, "ignored");
            pkt.payload = Bytes::from(header.clone());
            obs.process(&pkt);
            assert!(
                obs.pending_bytes() <= 8192,
                "cap respected: {}",
                obs.pending_bytes()
            );
        }
        assert!(obs.stats().evicted_mid_handshake > 0);
    }

    #[test]
    fn interleaved_flows_reassemble_independently() {
        let mut obs = SniObserver::new();
        let rec_a = ClientHello::for_hostname("alpha.example").encode();
        let rec_b = ClientHello::for_hostname("beta.example").encode();
        let mid_a = rec_a.len() / 2;
        let mid_b = rec_b.len() / 2;
        let mut send = |t: u64, sport: u16, bytes: Vec<u8>| {
            let mut pkt = tls_packet(t, 4, sport, "ignored");
            pkt.payload = Bytes::from(bytes);
            obs.process(&pkt);
        };
        send(0, 8000, rec_a[..mid_a].to_vec());
        send(1, 8001, rec_b[..mid_b].to_vec());
        send(2, 8000, rec_a[mid_a..].to_vec());
        send(3, 8001, rec_b[mid_b..].to_vec());
        let names: Vec<&str> = obs
            .observations()
            .iter()
            .map(|o| o.hostname.as_str())
            .collect();
        assert_eq!(names, vec!["alpha.example", "beta.example"]);
        assert_eq!(obs.stats().reassembled, 2);
    }

    #[test]
    fn non_initial_quic_packets_are_skipped_not_errors() {
        let mut obs = SniObserver::new();
        // A 1-RTT short-header datagram as the first packet of a flow
        // (mid-connection capture).
        let pkt = Packet {
            t_ms: 0,
            src: Endpoint::new(1, 6000),
            dst: Endpoint::new(2, 443),
            transport: Transport::Udp,
            payload: Bytes::from_static(&[0x41, 9, 9, 9, 9, 9]),
        };
        obs.process(&pkt);
        assert_eq!(obs.stats().skipped_non_initial, 1);
        assert_eq!(obs.stats().parse_errors, 0);
        // A Handshake long-header packet on another flow.
        let pkt2 = Packet {
            t_ms: 1,
            src: Endpoint::new(1, 6001),
            dst: Endpoint::new(2, 443),
            transport: Transport::Udp,
            payload: Bytes::from_static(&[0b1110_0000, 0, 0, 0, 1, 0, 0]),
        };
        obs.process(&pkt2);
        assert_eq!(obs.stats().skipped_non_initial, 2);
    }

    #[test]
    fn truncated_quic_initial_lands_in_truncated_bucket() {
        let mut obs = SniObserver::new();
        let full = crate::quic::InitialPacket::for_hostname("cutoff.example").encode();
        let pkt = Packet {
            t_ms: 0,
            src: Endpoint::new(1, 6100),
            dst: Endpoint::new(2, 443),
            transport: Transport::Udp,
            payload: Bytes::from(full[..full.len() / 2].to_vec()),
        };
        obs.process(&pkt);
        assert_eq!(obs.stats().parse_errors, 1);
        assert_eq!(obs.stats().truncated_records, 1);
        assert_eq!(obs.stats().taxonomy_total(), obs.stats().parse_errors);
    }

    #[test]
    fn idle_eviction_mid_handshake_reclaims_pending_bytes() {
        let mut obs = SniObserver::new();
        // One truncated segment, then the flow goes silent forever.
        let record = ClientHello::for_hostname("silent.example").encode();
        let mut stale = tls_packet(0, 5, 7300, "ignored");
        stale.payload = Bytes::from(record[..10].to_vec());
        obs.process(&stale);
        assert_eq!(obs.pending_bytes(), 10);
        // Push enough unrelated late traffic for amortized idle eviction
        // (every 1024 packets) to fire well past the 5-minute timeout.
        for i in 0..1100u64 {
            let mut tick = tls_packet(10_000_000 + i, 99, (1025 + (i % 20_000)) as u16, "x.com");
            tick.payload = Bytes::from_static(b"");
            obs.process(&tick);
        }
        assert_eq!(obs.pending_bytes(), 0, "evicted buffer reclaimed");
        assert_eq!(obs.stats().evicted_mid_handshake, 1);
        assert_eq!(obs.stats().taxonomy_total(), obs.stats().parse_errors);
    }

    #[test]
    fn port_reuse_does_not_inherit_stale_reassembly_bytes() {
        let mut obs = SniObserver::new();
        // First occupant of the 5-tuple: one truncated segment, then gone.
        let record = ClientHello::for_hostname("old-flow.example").encode();
        let mut stale = tls_packet(0, 5, 7200, "ignored");
        stale.payload = Bytes::from(record[..10].to_vec());
        obs.process(&stale);
        // The flow idles out of the table: amortized eviction runs every
        // 1024 packets, so push 1100 late, unrelated empty segments.
        for i in 0..1100u64 {
            let mut tick = tls_packet(10_000_000 + i, 99, (1025 + (i % 20_000)) as u16, "x.com");
            tick.payload = Bytes::from_static(b"");
            obs.process(&tick);
        }
        // …and a NEW connection reuses the same 5-tuple with a complete,
        // valid ClientHello. It must parse cleanly, not be appended to the
        // stale 10 bytes.
        let mut fresh = tls_packet(100_000_000, 5, 7200, "new-flow.example");
        fresh.payload = Bytes::from(ClientHello::for_hostname("new-flow.example").encode());
        obs.process(&fresh);
        assert!(
            obs.observations()
                .iter()
                .any(|o| o.hostname == "new-flow.example"),
            "fresh flow recovered: {:?}",
            obs.observations()
        );
        assert_eq!(obs.stats().reassembly_invariant, 0);
    }

    #[test]
    fn reassembled_observation_keeps_flow_start_time() {
        let mut obs = SniObserver::new();
        let record = ClientHello::for_hostname("slowstart.example").encode();
        let cuts = [record.len() / 3, 2 * record.len() / 3, record.len()];
        let mut prev = 0usize;
        // Segments at t = 100, 101, 102: the observation must be stamped
        // with the handshake's start (100), not its completion (102).
        for (i, &cut) in cuts.iter().enumerate() {
            let mut pkt = tls_packet(100 + i as u64, 9, 7400, "ignored");
            pkt.payload = Bytes::from(record[prev..cut].to_vec());
            obs.process(&pkt);
            prev = cut;
        }
        assert_eq!(obs.observations().len(), 1);
        assert_eq!(obs.observations()[0].t_ms, 100);
        assert_eq!(obs.observations()[0].hostname, "slowstart.example");
    }

    #[test]
    fn lane_stats_merge_preserves_taxonomy_invariant() {
        // Two observers accumulating *different* failure mixes, as two
        // ingest lanes of the serving loop would.
        let mut lane_a = SniObserver::new();
        let mut garbage = tls_packet(0, 1, 5100, "ignored");
        garbage.payload = Bytes::from_static(b"GET / HTTP/1.1\r\n");
        lane_a.process(&garbage);
        lane_a.process(&tls_packet(1, 1, 5101, "a.example"));

        let mut lane_b = SniObserver::new();
        let full = crate::quic::InitialPacket::for_hostname("cutoff.example").encode();
        let truncated = Packet {
            t_ms: 0,
            src: Endpoint::new(2, 6100),
            dst: Endpoint::new(9, 443),
            transport: Transport::Udp,
            payload: Bytes::from(full[..full.len() / 2].to_vec()),
        };
        lane_b.process(&truncated);

        for lane in [&lane_a, &lane_b] {
            assert_eq!(lane.stats().taxonomy_total(), lane.stats().parse_errors);
        }
        let merged = ObserverStats::merged([lane_a.stats(), lane_b.stats()]);
        assert_eq!(merged.parse_errors, 2);
        assert_eq!(merged.garbage, 1);
        assert_eq!(merged.truncated_records, 1);
        assert_eq!(
            merged.taxonomy_total(),
            merged.parse_errors,
            "invariant survives the lane merge"
        );
        assert_eq!(merged.packets, 3);
        assert_eq!(merged.tls_sni, 1);
    }

    #[test]
    fn take_observations_drains() {
        let mut obs = SniObserver::new();
        obs.process(&tls_packet(0, 1, 5000, "x.com"));
        assert_eq!(obs.take_observations().len(), 1);
        assert!(obs.observations().is_empty());
        assert_eq!(obs.stats().tls_sni, 1, "stats survive draining");
    }

    #[test]
    fn drain_observations_drains_and_keeps_the_buffer() {
        let mut obs = SniObserver::new();
        obs.process(&tls_packet(0, 1, 5000, "x.com"));
        let capacity = obs.observations.capacity();
        let drained: Vec<Observation> = obs.drain_observations().collect();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].hostname, "x.com");
        assert!(obs.observations().is_empty());
        assert_eq!(obs.observations.capacity(), capacity);
        assert_eq!(obs.stats().tls_sni, 1, "stats survive draining");
    }
}
