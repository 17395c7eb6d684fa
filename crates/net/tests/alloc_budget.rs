//! Allocation budget of the packet path.
//!
//! Through `SniObserver::process` a hostname leaves the observer as one
//! owned `String` inside an [`Observation`](hostprof_net::Observation);
//! everything before that is a walk over the packet's own bytes (DESIGN.md
//! §8.4). On the engine's path (`process_with`) the name does not leave as
//! a `String` at all: the sink borrows it, and
//! `crates/core/tests/ingest_alloc_budget.rs` holds that path to the
//! doublings alone. This test states
//! that as a number a later change cannot quietly undo: with a counting
//! global allocator, N single-frame QUIC Initials through
//! `SniObserver::process` + `drain_observations` cost N allocations — one
//! per recovered name — plus the flow table's doublings, and so do N
//! single-segment TLS hellos; and the same N Initials padded to four times
//! the length cost not one allocation more.
//!
//! Before the QUIC path borrowed, this read 13 per Initial against 1 per
//! TLS hello (13 009 and 1 009 for N = 1 000; now 1 009 and 1 009):
//! connection ids, the segment list, a copy of the CRYPTO frame, the
//! joined stream, session id, cipher suites, compression methods, the
//! extension list and both bodies, the name, its lowercase copy.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use bytes::Bytes;
use counting_alloc::ALLOCATIONS;
use hostprof_net::quic::{decode_varint, encode_varint, InitialPacket};
use hostprof_net::tls::ClientHello;
use hostprof_net::{Endpoint, Packet, SniObserver, Transport};
use std::sync::atomic::Ordering;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

const N: usize = 1_000;
/// What the flow table may add: a doubling allocates once, and N flows
/// are at most log2(N) doublings — twice that, for slack in its policy.
const FLOW_TABLE_GROWTH: u64 = 2 * (usize::BITS - N.leading_zeros()) as u64;

/// `initial` with `extra` more PADDING bytes inside its payload.
fn padded(initial: &[u8], extra: usize) -> Vec<u8> {
    // first byte, version, two 8-byte connection ids with their lengths,
    // the empty token's length: `InitialPacket::encode`'s header.
    const LENGTH_AT: usize = 1 + 4 + 9 + 9 + 1;
    let (payload_len, width) = decode_varint(&initial[LENGTH_AT..]).expect("length field");
    let mut out = initial[..LENGTH_AT].to_vec();
    encode_varint(&mut out, payload_len + extra as u64);
    out.extend_from_slice(&initial[LENGTH_AT + width..]);
    out.extend(std::iter::repeat_n(0u8, extra));
    out
}

/// One packet per flow, `make_payload` of the flow's hostname in each.
fn flows(transport: Transport, make_payload: impl Fn(&str) -> Vec<u8>) -> Vec<Packet> {
    (0..=N)
        .map(|i| Packet {
            t_ms: 1_000,
            src: Endpoint::new(0x0a00_0001, 1_024 + i as u16),
            dst: Endpoint::new(0x0808_0808, 443),
            transport,
            payload: Bytes::from(make_payload(&format!("Host{i}.budget.example"))),
        })
        .collect()
}

/// Allocations of `packets[1..]` through a fresh observer that has seen
/// `packets[0]` (so its observation buffer exists), every name drained as
/// it is recovered.
fn allocations_observing(packets: &[Packet]) -> u64 {
    let mut obs = SniObserver::new();
    let mut names = 0usize;
    obs.process(&packets[0]);
    names += obs.drain_observations().count();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for pkt in &packets[1..] {
        obs.process(pkt);
        names += obs.drain_observations().count();
    }
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(names, packets.len(), "every packet leaks its name");
    assert_eq!(obs.stats().parse_errors, 0);
    spent
}

#[test]
fn a_recovered_name_is_the_packet_paths_one_allocation() {
    let quic = flows(Transport::Udp, |host| {
        InitialPacket::for_hostname(host).encode()
    });
    let quic_4x = flows(Transport::Udp, |host| {
        let initial = InitialPacket::for_hostname(host).encode();
        padded(&initial, 3 * initial.len())
    });
    let tls = flows(Transport::Tcp, |host| {
        ClientHello::for_hostname(host).encode()
    });
    assert!(quic_4x[0].payload.len() >= 4 * quic[0].payload.len());

    let (quic, quic_4x, tls) = (
        allocations_observing(&quic),
        allocations_observing(&quic_4x),
        allocations_observing(&tls),
    );
    eprintln!(
        "allocations for {N} names: quic {quic}, quic padded to 4x {quic_4x}, tls {tls} \
         (budget {N} + {FLOW_TABLE_GROWTH})"
    );
    let budget = N as u64 + FLOW_TABLE_GROWTH;
    assert!(quic <= budget, "QUIC Initial: {quic} > {budget}");
    assert!(tls <= budget, "TLS hello: {tls} > {budget}");
    assert!(
        quic_4x <= quic,
        "padding allocates: {quic_4x} at 4x the length, {quic} at 1x"
    );
}
