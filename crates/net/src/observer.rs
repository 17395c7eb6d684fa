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
//!   `evicted_mid_handshake`, `garbage`), with `parse_errors` kept as
//!   their running total;
//! * reassembly buffers are bounded per flow (bytes and segments), in
//!   count (concurrent flows) and in aggregate (total buffered bytes) by a
//!   tunable [`ObserverConfig`], with FIFO eviction by opening time at the
//!   two table-wide caps;
//! * a reassembly buffer lives in its flow's [`FlowTable`] entry, and the
//!   table alone keeps the buffers' opening order and counts what it
//!   abandons, at an idle eviction or at a cap — nothing waits for 5-tuple
//!   reuse.
//!
//! ## One probe, no allocation per name
//!
//! A packet costs one flow-table probe: [`FlowTable::observe`] hands back
//! the entry, and every later step (append, conclude) acts on it.
//! [`SniObserver::process_with`] hands a recovered name to a sink as a
//! `&str` borrowed from the packet, the flow's buffer or one reused
//! scratch string (DESIGN.md §8.4).
//!
//! The `net::chaos` fault-injection harness ([`crate::conformance`]: both
//! chaos test suites and `hostprof chaos`) property-tests these guarantees
//! against seeded mutation streams.

use crate::dns;
use crate::error::ParseError;
use crate::flow::{FlowKey, FlowTable};
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
/// conformance suite).
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
    /// Flows by 5-tuple, each holding its partial ClientHello while a
    /// handshake spans several segments.
    flows: FlowTable,
    observations: Vec<Observation>,
    stats: ObserverStats,
    config: ObserverConfig,
    /// Where a name that is not a lowercase slice of a packet or flow
    /// buffer — a DNS name, a QUIC name, any name with an uppercase
    /// letter — is put together before the sink borrows it.
    scratch: String,
    /// Whether DNS queries are harvested too (off when modeling a pure
    /// TLS-only vantage point, on when modeling a DNS provider, §7.2).
    harvest_dns: bool,
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
            scratch: String::new(),
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
        self.flows.reassembly_bytes()
    }

    /// Number of flows currently mid-reassembly.
    pub fn pending_flows(&self) -> usize {
        self.flows.reassembling_flows()
    }

    /// Consume one packet; records an observation when a hostname leaks.
    pub fn process(&mut self, pkt: &Packet) {
        let mut recovered = None;
        let source = self.process_with(pkt, |client_ip, t_ms, name| {
            recovered = Some((client_ip, t_ms, name.to_string()));
        });
        if let (Some((client_ip, t_ms, hostname)), Some(source)) = (recovered, source) {
            self.observations.push(Observation {
                t_ms,
                client_ip,
                hostname,
                source,
            });
        }
    }

    /// Consume one packet, handing a hostname it leaks to `sink` as
    /// `(client, connection start time, lowercase name)`; returns where
    /// that name came from, `None` when the packet leaked none.
    ///
    /// The name is borrowed: a TLS name straight from the packet or the
    /// flow's reassembly buffer, anything else — a DNS or QUIC name, or a
    /// name that needs lowercasing — from one buffer the observer reuses.
    /// So a name the sink only reads costs no allocation. [`process`]
    /// is this walk with a sink that keeps an owned [`Observation`].
    ///
    /// [`process`]: Self::process
    pub fn process_with(
        &mut self,
        pkt: &Packet,
        sink: impl FnOnce(u32, u64, &str),
    ) -> Option<HostnameSource> {
        self.stats.packets += 1;
        let mut flow = self.flows.observe(pkt)?;
        let (stats, scratch) = (&mut self.stats, &mut self.scratch);
        let client = pkt.src.ip;
        match pkt.transport {
            // TCP: the ClientHello may span several segments — reassemble
            // in the flow's entry until it parses, it is provably
            // hidden/garbage, or the buffer budget runs out.
            Transport::Tcp => {
                let (max_bytes, max_segments) = (
                    self.config.max_pending_bytes,
                    self.config.max_pending_segments,
                );
                let appended = flow.append(&pkt.payload);
                let buffered = appended.is_some();
                // Parse against the flow's buffer, or the lone segment (the
                // fast path); a name is stamped with the flow's first
                // segment, not the one that completed it.
                let (attempt, start_t, over_budget) = match appended {
                    Some(buf) => (
                        &buf.bytes[..],
                        buf.first_t_ms,
                        buf.bytes.len() > max_bytes || buf.segments >= max_segments,
                    ),
                    None => (&pkt.payload[..], pkt.t_ms, pkt.payload.len() > max_bytes),
                };
                match tls::extract_sni(attempt) {
                    Ok(Some(name)) => {
                        stats.tls_sni += 1;
                        if buffered {
                            stats.reassembled += 1;
                        }
                        sink(client, start_t, lowercase(name, scratch));
                        flow.finish();
                        Some(HostnameSource::TlsSni)
                    }
                    Ok(None) => {
                        stats.hidden += 1;
                        flow.finish();
                        None
                    }
                    Err(ParseError::Truncated) if over_budget => {
                        stats.parse_errors += 1;
                        stats.reassembly_overflow += 1;
                        flow.finish();
                        None
                    }
                    // More segments are needed; the flow stays pending, and
                    // the oldest other buffers go while the caps are broken.
                    Err(ParseError::Truncated) => {
                        if !buffered {
                            flow.start_reassembly(&pkt.payload, pkt.t_ms);
                        }
                        self.flows.shed(
                            &FlowKey::of(pkt),
                            self.config.max_pending_flows,
                            self.config.max_total_pending_bytes,
                        );
                        None
                    }
                    Err(_) => {
                        stats.parse_errors += 1;
                        stats.garbage += 1;
                        flow.finish();
                        None
                    }
                }
            }
            // UDP is datagram-oriented: one shot, no reassembly.
            Transport::Udp if pkt.dst.port == 53 => {
                flow.finish();
                if !self.harvest_dns {
                    return None;
                }
                match dns::qname_into(&pkt.payload, scratch) {
                    Ok(()) => {
                        stats.dns_names += 1;
                        scratch.make_ascii_lowercase();
                        sink(client, pkt.t_ms, scratch);
                        Some(HostnameSource::DnsQuery)
                    }
                    Err(e) => {
                        stats.count_parse_failure(e);
                        None
                    }
                }
            }
            Transport::Udp => {
                flow.finish();
                match quic::classify(&pkt.payload) {
                    Ok(quic::QuicPacketKind::Initial) => {
                        match quic::sni_from_quic_into(&pkt.payload, scratch) {
                            Ok(true) => {
                                stats.quic_sni += 1;
                                scratch.make_ascii_lowercase();
                                sink(client, pkt.t_ms, scratch);
                                Some(HostnameSource::QuicSni)
                            }
                            Ok(false) => {
                                stats.hidden += 1;
                                None
                            }
                            Err(e) => {
                                stats.count_parse_failure(e);
                                None
                            }
                        }
                    }
                    // Mid-connection capture: Handshake/0-RTT/1-RTT/Retry
                    // packets carry no SNI by design — not an error.
                    Ok(_) => {
                        stats.skipped_non_initial += 1;
                        None
                    }
                    Err(e) => {
                        stats.count_parse_failure(e);
                        None
                    }
                }
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

    /// Counters, with the reassemblies the flow table abandoned, at an
    /// idle eviction or at a cap.
    pub fn stats(&self) -> ObserverStats {
        let idle = self.flows.evicted_mid_handshake();
        ObserverStats {
            parse_errors: self.stats.parse_errors + idle,
            evicted_mid_handshake: self.stats.evicted_mid_handshake + idle,
            ..self.stats
        }
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

/// `name` itself when it is already lowercase, else its lowercase copy in
/// `scratch`.
fn lowercase<'a>(name: &'a str, scratch: &'a mut String) -> &'a str {
    if !name.bytes().any(|b| b.is_ascii_uppercase()) {
        return name;
    }
    scratch.clear();
    scratch.push_str(name);
    scratch.make_ascii_lowercase();
    scratch
}

impl ObserverStats {
    /// Count one parse failure under its taxonomy bucket.
    fn count_parse_failure(&mut self, err: ParseError) {
        self.parse_errors += 1;
        match err {
            ParseError::Truncated => self.truncated_records += 1,
            ParseError::BadLength => self.bad_lengths += 1,
            _ => self.garbage += 1,
        }
    }

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
    }

    /// The flow-count cap abandons the oldest *open* buffer. K opens and
    /// idles out; L opens, then a new K on the same 5-tuple, then M breaks
    /// the cap of two: L goes, not the younger K.
    #[test]
    fn cap_sheds_the_oldest_live_buffer_after_port_reuse() {
        let mut obs = SniObserver::with_config(ObserverConfig {
            max_pending_flows: 2,
            ..ObserverConfig::default()
        });
        let halves = |host: &str| {
            let record = ClientHello::for_hostname(host).encode();
            (record[..10].to_vec(), record[10..].to_vec())
        };
        let send = |obs: &mut SniObserver, t: u64, sport: u16, bytes: Vec<u8>| {
            let mut pkt = tls_packet(t, 5, sport, "ignored");
            pkt.payload = Bytes::from(bytes);
            obs.process(&pkt);
        };
        let (k, l, m) = (
            halves("k.example"),
            halves("l.example"),
            halves("m.example"),
        );
        send(&mut obs, 0, 7500, k.0.clone());
        for i in 0..1100u64 {
            let mut tick = tls_packet(10_000_000 + i, 99, (1025 + i) as u16, "x.com");
            tick.payload = Bytes::from_static(b"");
            obs.process(&tick);
        }
        assert_eq!(
            (obs.pending_flows(), obs.stats().evicted_mid_handshake),
            (0, 1)
        );
        send(&mut obs, 20_000_000, 7501, l.0);
        send(&mut obs, 20_000_001, 7500, k.0);
        send(&mut obs, 20_000_002, 7502, m.0);
        assert_eq!(
            (obs.pending_flows(), obs.stats().evicted_mid_handshake),
            (2, 2)
        );
        send(&mut obs, 20_000_003, 7500, k.1);
        send(&mut obs, 20_000_004, 7501, l.1);
        send(&mut obs, 20_000_005, 7502, m.1);
        let names: Vec<&str> = obs
            .observations()
            .iter()
            .map(|o| o.hostname.as_str())
            .collect();
        assert_eq!(names, ["k.example", "m.example"]);
        assert_eq!(obs.stats().taxonomy_total(), obs.stats().parse_errors);
        assert_eq!(obs.pending_bytes(), 0);
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
