//! Allocation budget of the engine's packet path.
//!
//! A name crosses from a lane's observer to the windower as a `&str`
//! borrowed from the packet, the flow's reassembly buffer or the lane's
//! scratch string (DESIGN.md §8.4), and the windower interns it and files
//! its id under the client without a copy. This test states that as a
//! number a later change cannot quietly undo: with a counting global
//! allocator, once every client and every name has been seen, N further
//! names through `ServeEngine::ingest_packet` — TLS hellos with lowercase
//! and with mixed-case names, QUIC Initials and DNS queries, one new flow
//! each, no tick fired — cost at most 2⌈log₂ N⌉ allocations: the doublings
//! of the flow table and of the clients' event buffers, nothing per name.
//!
//! Before names were borrowed this read 2 009: the observation's `String`
//! for every name, and for a DNS name also one `String` per label, the
//! list that held them and their join.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use bytes::Bytes;
use counting_alloc::ALLOCATIONS;
use hostprof_core::{BatchProfiler, Profiler, ProfilerConfig, ServeConfig, ServeEngine};
use hostprof_embed::{EmbeddingSet, Vocab};
use hostprof_net::dns::DnsQuery;
use hostprof_net::quic::InitialPacket;
use hostprof_net::tls::ClientHello;
use hostprof_net::{Endpoint, Packet, Transport};
use hostprof_ontology::Ontology;
use std::sync::atomic::Ordering;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

const N: usize = 1_000;
const CLIENTS: u32 = 8;
const NAMES: usize = 100;
/// 2⌈log₂ N⌉: a doubling allocates once, and a buffer that grows to hold
/// N more entries doubles at most ⌈log₂ N⌉ times.
const BUDGET: u64 = 2 * (usize::BITS - (N - 1).leading_zeros()) as u64;

/// The `i`-th packet of the stream: its own flow (source port), a client
/// and a name by rotation, and by rotation a TLS hello with the name as
/// is, a TLS hello with it in mixed case, a QUIC Initial or a DNS query.
fn packet(i: usize) -> Packet {
    let name = format!("host{}.budget.example", i % NAMES);
    let (transport, dst_port, payload) = match i % 4 {
        0 => (
            Transport::Tcp,
            443,
            ClientHello::for_hostname(&name).encode(),
        ),
        1 => (
            Transport::Tcp,
            443,
            ClientHello::for_hostname(&name.replace("host", "Host")).encode(),
        ),
        2 => (
            Transport::Udp,
            443,
            InitialPacket::for_hostname(&name).encode(),
        ),
        _ => (Transport::Udp, 53, DnsQuery::for_hostname(&name).encode()),
    };
    Packet {
        t_ms: 1_000 + i as u64,
        src: Endpoint::new(0x0a00_0000 + i as u32 % CLIENTS, 1_024 + i as u16),
        dst: Endpoint::new(0x0808_0808, dst_port),
        transport,
        payload: Bytes::from(payload),
    }
}

#[test]
fn a_known_name_through_the_engine_costs_no_allocation() {
    let hosts = ["host0.budget.example"];
    let vocab = Vocab::build(std::iter::once(hosts.iter().copied()), 1, 0.0);
    let embeddings = EmbeddingSet::new(2, vocab, vec![1.0, 0.0]);
    let ontology = Ontology::new();
    let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
    let mut engine = ServeEngine::new(
        ServeConfig {
            harvest_dns: true,
            ..ServeConfig::default()
        },
        BatchProfiler::new(profiler, 1),
        None,
    );
    let (warm, measured): (Vec<Packet>, Vec<Packet>) = (
        (0..N).map(packet).collect(),
        (N..2 * N).map(packet).collect(),
    );

    for pkt in &warm {
        assert!(engine.ingest_packet(pkt).is_empty());
    }
    assert_eq!(
        engine.windower().interned_hosts(),
        NAMES,
        "names arrive lowercase"
    );
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for pkt in &measured {
        assert!(engine.ingest_packet(pkt).is_empty(), "no tick fires");
    }
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(
        engine.stats().observations,
        2 * N as u64,
        "every packet leaks its name"
    );
    assert_eq!(engine.windower().interned_hosts(), NAMES, "no new name");
    let stats = engine.observer_stats();
    assert_eq!(
        (stats.tls_sni, stats.quic_sni, stats.dns_names),
        (N as u64, N as u64 / 2, N as u64 / 2)
    );
    assert_eq!(stats.parse_errors, 0);
    eprintln!("allocations for {N} known names through the engine: {spent} (budget {BUDGET})");
    assert!(
        spent <= BUDGET,
        "{spent} allocations for {N} names > {BUDGET}"
    );
}
