//! `chaosprobe` — the chaos conformance harness as an operational tool.
//!
//! Runs the same four acceptance properties as `tests/chaos_observer.rs`
//! (no panic + classified errors, clean-flow bit-identity, pending-memory
//! caps, seed replayability) over a configurable seed matrix, and prints
//! an aggregate mutation/stats table. Exit code is nonzero as soon as any
//! property fails, so it slots into CI as a smoke gate:
//!
//! ```text
//! chaosprobe --smoke                   # 16 seeds, balanced + aggressive
//! chaosprobe --seeds 500 --seed-base 7000
//! chaosprobe --aggressive --seeds 200
//! chaosprobe --gen-vectors             # print the golden vector corpus
//! ```

use hostprof::net::observer::ObserverConfig;
use hostprof::net::{
    chaos, quic, tls, ChaosConfig, FlowKey, Packet, RequestEvent, SniObserver, TrafficSynthesizer,
};
use std::process::ExitCode;

/// splitmix64 used only to vary the shape of each case's traffic.
struct ShapeRng(u64);

impl ShapeRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn stream_for(seed: u64) -> Vec<Packet> {
    let mut rng = ShapeRng(seed.wrapping_mul(0x9e6c_63d0_876a_9a7d) ^ 0x0b5e_ed01);
    let events = 3 + rng.below(24);
    let clients = 1 + rng.below(5) as u32;
    let hosts = 1 + rng.below(8);
    let synth = TrafficSynthesizer {
        quic_fraction: rng.below(5) as f64 * 0.25,
        dns_fraction: rng.below(4) as f64 * 0.15,
        ech_fraction: rng.below(3) as f64 * 0.2,
        tcp_fragment_fraction: rng.below(5) as f64 * 0.25,
        ..TrafficSynthesizer::default()
    };
    let events: Vec<RequestEvent> = (0..events)
        .map(|i| RequestEvent {
            t_ms: 500 + i * (40 + rng.below(500)),
            client: (i as u32) % clients,
            hostname: format!("w{}.case{}.example.org", rng.below(hosts), seed % 89),
        })
        .collect();
    synth.synthesize(&events)
}

/// Aggregate counters across a probe run.
#[derive(Default)]
struct Tally {
    seeds: u64,
    packets_in: u64,
    packets_out: u64,
    clean_flows: u64,
    mutated_flows: u64,
    garbage_flows: u64,
    observations: u64,
    parse_errors: u64,
    failures: Vec<String>,
}

/// Run all four properties for one seed; record any violation.
fn probe_seed(seed: u64, aggressive: bool, tally: &mut Tally) {
    let stream = stream_for(seed);
    let cfg = if aggressive {
        ChaosConfig::aggressive(seed)
    } else {
        ChaosConfig::with_seed(seed)
    };
    let out = chaos::apply(&cfg, &stream);

    // (d) replayability first: a second pass must match bit for bit.
    let replay = chaos::apply(&cfg, &stream);
    if replay.packets != out.packets || replay.stats != out.stats {
        tally
            .failures
            .push(format!("seed {seed}: chaos replay diverged"));
    }

    // (a) + (c): run the observer (tight caps) over the mutated stream.
    let caps = ObserverConfig {
        max_pending_bytes: 2_048,
        max_pending_segments: 8,
        max_pending_flows: 8,
        max_total_pending_bytes: 8_192,
    };
    let mut obs = SniObserver::with_config(caps).with_dns_harvesting();
    for pkt in &out.packets {
        obs.process(pkt);
        if obs.pending_bytes() > caps.max_total_pending_bytes
            || obs.pending_flows() > caps.max_pending_flows
        {
            tally.failures.push(format!(
                "seed {seed}: pending over caps ({}B / {} flows)",
                obs.pending_bytes(),
                obs.pending_flows()
            ));
            break;
        }
    }
    let stats = obs.stats();
    if stats.parse_errors != stats.taxonomy_total() || stats.reassembly_invariant != 0 {
        tally
            .failures
            .push(format!("seed {seed}: taxonomy imbalance: {stats:?}"));
    }

    // (b) clean-flow bit-identity, via per-flow solo replay. Skipped under
    // --aggressive caps-stress: tiny caps may evict clean flows that share
    // the stream with a garbage flood, which is exactly what the balanced
    // profile exists to check.
    if !aggressive {
        let mut chaotic = SniObserver::new();
        chaotic.process_stream(&out.packets);
        for key in &out.clean_flows {
            let flow_pkts: Vec<Packet> = stream
                .iter()
                .filter(|p| FlowKey::of(p) == *key)
                .cloned()
                .collect();
            let mut solo = SniObserver::new();
            solo.process_stream(&flow_pkts);
            for want in solo.observations() {
                if !chaotic.observations().contains(want) {
                    tally.failures.push(format!(
                        "seed {seed}: clean flow {key:?} lost observation {want:?}"
                    ));
                }
            }
        }
    }

    tally.seeds += 1;
    tally.packets_in += out.stats.packets_in;
    tally.packets_out += out.stats.packets_out;
    tally.clean_flows += out.stats.clean_flows;
    tally.mutated_flows += out.stats.mutated_flows;
    tally.garbage_flows += out.stats.garbage_flows;
    tally.observations += obs.observations().len() as u64;
    tally.parse_errors += stats.parse_errors;
}

fn report(profile: &str, tally: &Tally) -> bool {
    println!("chaosprobe [{profile}] over {} seeds", tally.seeds);
    println!(
        "  packets      {} in -> {} out",
        tally.packets_in, tally.packets_out
    );
    println!(
        "  flows        {} clean / {} mutated / {} garbage",
        tally.clean_flows, tally.mutated_flows, tally.garbage_flows
    );
    println!(
        "  observer     {} observations, {} classified parse errors",
        tally.observations, tally.parse_errors
    );
    if tally.failures.is_empty() {
        println!("  properties   all hold (no-panic, clean-identity, caps, replay)");
        true
    } else {
        for f in tally.failures.iter().take(10) {
            eprintln!("  FAIL {f}");
        }
        eprintln!("  {} property violation(s)", tally.failures.len());
        false
    }
}

/// Emit the golden SNI vector corpus (`tests/vectors/sni_vectors.txt`):
/// one `kind<TAB>name<TAB>expect<TAB>hex` line per vector, where `expect`
/// is `ok:<host>`, `ok-none`, or `err:<ParseError variant>` as produced by
/// the current parsers. Regenerate with `chaosprobe --gen-vectors` after
/// an intentional parser change and review the diff.
fn gen_vectors() {
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
    fn tls_line(name: &str, bytes: &[u8]) {
        let expect = match tls::extract_sni(bytes) {
            Ok(Some(host)) => format!("ok:{host}"),
            Ok(None) => "ok-none".to_string(),
            Err(e) => format!("err:{e:?}"),
        };
        println!("tls\t{name}\t{expect}\t{}", hex(bytes));
    }
    fn quic_line(name: &str, bytes: &[u8]) {
        let expect = match quic::extract_sni_from_quic(bytes) {
            Ok(Some(host)) => format!("ok:{host}"),
            Ok(None) => "ok-none".to_string(),
            Err(e) => format!("err:{e:?}"),
        };
        println!("quic\t{name}\t{expect}\t{}", hex(bytes));
    }

    println!("# Golden SNI extraction vectors.");
    println!("# kind<TAB>name<TAB>expect<TAB>hex-encoded input");
    println!("# expect: ok:<host> | ok-none | err:<ParseError variant>");
    println!("# Regenerate: cargo run --bin chaosprobe -- --gen-vectors");

    let ch = tls::ClientHello::for_hostname("example.com").encode();
    tls_line("basic-sni", &ch);
    tls_line(
        "long-label-sni",
        &tls::ClientHello::for_hostname("very-long-subdomain-label-for-testing.cdn.example.com")
            .encode(),
    );
    tls_line("ech-hidden-sni", &tls::ClientHello::with_ech(64).encode());
    tls_line("empty-input", &[]);
    tls_line("record-header-only", &ch[..5]);
    tls_line("cut-mid-handshake", &ch[..20]);
    tls_line("cut-one-byte-short", &ch[..ch.len() - 1]);

    let mut wrong_type = ch.clone();
    wrong_type[0] = 0x17; // application_data, not handshake
    tls_line("wrong-content-type", &wrong_type);

    let mut bad_version = ch.clone();
    bad_version[1] = 0x02; // SSLv2-era record version
    tls_line("unsupported-record-version", &bad_version);

    let mut not_ch = ch.clone();
    not_ch[5] = 0x02; // handshake type: ServerHello
    tls_line("server-hello-not-client-hello", &not_ch);

    let mut short_record_len = ch.clone();
    let declared = u16::from_be_bytes([ch[3], ch[4]]).saturating_sub(4);
    short_record_len[3..5].copy_from_slice(&declared.to_be_bytes());
    tls_line("record-length-understates-body", &short_record_len);

    let mut overrun = ch.clone();
    overrun[3..5].copy_from_slice(&0x3fffu16.to_be_bytes());
    tls_line("record-length-overruns-buffer", &overrun);

    // Corrupt the hostname bytes in place: 'example.com' -> non-ASCII.
    let mut bad_host = ch.clone();
    if let Some(at) = bad_host.windows(11).position(|w| w == b"example.com") {
        bad_host[at] = 0xff;
    }
    tls_line("non-ascii-hostname", &bad_host);

    // session_id length > 32 violates RFC 8446 (offset: 5-byte record
    // header, 4-byte handshake header, 2-byte version, 32-byte random).
    let mut bad_sid = ch.clone();
    bad_sid[43] = 0xff;
    tls_line("session-id-length-over-32", &bad_sid);

    // Overstate the server_name_list length inside the SNI extension
    // (the list length lives 5 bytes before the hostname: list_len u16,
    // name_type u8, name_len u16, then the name itself).
    let mut bad_list = ch.clone();
    if let Some(at) = bad_list.windows(11).position(|w| w == b"example.com") {
        let list_len = u16::from_be_bytes([bad_list[at - 5], bad_list[at - 4]]);
        bad_list[at - 5..at - 3].copy_from_slice(&(list_len + 40).to_be_bytes());
    }
    tls_line("sni-list-length-overstated", &bad_list);

    let mut trailing = ch.clone();
    trailing.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
    tls_line("trailing-bytes-after-record", &trailing);

    let qi = quic::InitialPacket::for_hostname("quic.example.com").encode();
    quic_line("basic-initial", &qi);

    let mut coalesced = qi.clone();
    coalesced.extend((0u8..50).map(|i| i.wrapping_mul(37)));
    quic_line("coalesced-trailing-datagram", &coalesced);

    quic_line("empty-datagram", &[]);
    quic_line("short-header-byte", &[0x40, 1, 2, 3]);
    quic_line("cut-mid-crypto", &qi[..qi.len() / 2]);
    quic_line("first-byte-only", &qi[..1]);

    let mut bad_qver = qi.clone();
    bad_qver[1..5].copy_from_slice(&0xdead_beefu32.to_be_bytes());
    quic_line("unknown-quic-version", &bad_qver);

    let mut huge_dcid = qi.clone();
    huge_dcid[5] = 0xff; // DCID length far beyond the remaining buffer
    quic_line("dcid-length-overrun", &huge_dcid);

    // Hand-placed frames: an unpadded Initial around `payload`.
    fn initial_around(payload: &[u8]) -> Vec<u8> {
        let mut out = vec![0b1100_0000];
        out.extend_from_slice(&quic::QUIC_V1.to_be_bytes());
        out.extend_from_slice(&[4, 0xd1, 0xd2, 0xd3, 0xd4, 0]); // dcid, empty scid
        quic::encode_varint(&mut out, 0); // token length
        quic::encode_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(payload);
        out
    }
    fn crypto_frame(payload: &mut Vec<u8>, offset: usize, data: &[u8]) {
        quic::encode_varint(payload, 0x06);
        quic::encode_varint(payload, offset as u64);
        quic::encode_varint(payload, data.len() as u64);
        payload.extend_from_slice(data);
    }
    let hello = tls::ClientHello::for_hostname("quic.example.com");
    let hs = hello.encode_handshake();
    let (head, tail) = hs.split_at(hs.len() / 2);

    let mut in_order = Vec::new();
    crypto_frame(&mut in_order, 0, head);
    crypto_frame(&mut in_order, head.len(), tail);
    quic_line("two-crypto-frames-in-order", &initial_around(&in_order));

    let mut reversed = Vec::new();
    crypto_frame(&mut reversed, head.len(), tail);
    crypto_frame(&mut reversed, 0, head);
    quic_line("two-crypto-frames-reversed", &initial_around(&reversed));

    let mut gap = Vec::new();
    crypto_frame(&mut gap, 0, head);
    crypto_frame(&mut gap, head.len() + 1, tail);
    quic_line("gap-in-crypto-stream", &initial_around(&gap));

    // Two frames at one offset are contiguous only when the empty one is
    // read first: the sort by offset keeps wire order.
    let mut empty_then_stream = Vec::new();
    crypto_frame(&mut empty_then_stream, 0, &[]);
    crypto_frame(&mut empty_then_stream, 0, &hs);
    quic_line(
        "duplicate-offset-empty-frame-first",
        &initial_around(&empty_then_stream),
    );
    let mut stream_then_empty = Vec::new();
    crypto_frame(&mut stream_then_empty, 0, &hs);
    crypto_frame(&mut stream_then_empty, 0, &[]);
    quic_line(
        "duplicate-offset-empty-frame-last",
        &initial_around(&stream_then_empty),
    );

    // PING, then PADDING spelt in two bytes (`40 00`), between the frames.
    let mut ping_padding = Vec::new();
    crypto_frame(&mut ping_padding, 0, head);
    ping_padding.extend_from_slice(&[0x01, 0x40, 0x00, 0x00]);
    crypto_frame(&mut ping_padding, head.len(), tail);
    quic_line(
        "ping-and-two-byte-padding-between-frames",
        &initial_around(&ping_padding),
    );

    // An unknown frame type after a gap: every frame is read before the
    // stream is judged, so this is WrongType, not BadLength.
    let mut unknown_after_gap = gap.clone();
    unknown_after_gap.push(0x1c); // CONNECTION_CLOSE
    quic_line(
        "unknown-frame-after-gap",
        &initial_around(&unknown_after_gap),
    );

    let mut two_frames_coalesced = initial_around(&reversed);
    two_frames_coalesced.extend((0u8..50).map(|i| i.wrapping_mul(37)));
    quic_line("two-crypto-frames-coalesced-tail", &two_frames_coalesced);

    // A `server_name` body that is not a name reads as no name over QUIC;
    // over TCP the same hello is err:InvalidHostname (non-ascii-hostname).
    let mut bad_name = hello.clone();
    bad_name.extensions[0].data[5] = 0xff;
    let mut malformed = Vec::new();
    crypto_frame(&mut malformed, 0, &bad_name.encode_handshake());
    quic_line("malformed-server-name", &initial_around(&malformed));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };

    if flag("--gen-vectors") {
        gen_vectors();
        return ExitCode::SUCCESS;
    }

    let (seeds, base, profiles): (u64, u64, Vec<bool>) = if flag("--smoke") {
        (16, 0, vec![false, true])
    } else {
        (
            value("--seeds").unwrap_or(200),
            value("--seed-base").unwrap_or(0),
            vec![flag("--aggressive")],
        )
    };

    let mut ok = true;
    for aggressive in profiles {
        let mut tally = Tally::default();
        for seed in base..base + seeds {
            probe_seed(seed, aggressive, &mut tally);
        }
        let profile = if aggressive { "aggressive" } else { "balanced" };
        ok &= report(profile, &tally);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
