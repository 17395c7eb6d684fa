//! The conformance harness of the ingest path, written once: the seeded
//! case generator ([`stream_for`]), the four chaos properties, the seed
//! window they sweep and the golden SNI vector corpus. This crate's
//! `tests/chaos.rs`, the root package's `tests/chaos_observer.rs` and
//! `hostprof chaos` all call the functions here, so an assertion added to a
//! property holds in all three at once.
//!
//! A property takes a case seed, mutates that case's traffic with
//! [`crate::chaos`] under the profile the property is about, and returns
//! what the case saw or the first violation.

use crate::chaos::{self, ChaosConfig, ChaosOutcome, ChaosRng};
use crate::flow::FlowKey;
use crate::observer::{ObserverConfig, SniObserver};
use crate::packet::Packet;
use crate::synthesize::{RequestEvent, TrafficSynthesizer};
use crate::{quic, tls};
use std::fmt::Write;
use std::ops::Range;

/// A deterministic stream whose event count, client count, hostname pool
/// and TLS/QUIC/DNS/ECH mix all follow from the seed alone — drawn from a
/// stream of its own, apart from the per-flow ones `chaos::apply` derives
/// from the same case seed.
pub fn stream_for(seed: u64) -> Vec<Packet> {
    // The second constant has `ChaosRng::new`'s own folded in, so that each
    // seed stays the case CI's fixed windows have been passing.
    let mut rng = ChaosRng::new(seed.wrapping_mul(0x9e6c_63d0_876a_9a7d) ^ 0x9e37_79b9_7414_9114);
    let mut below = |n: usize| rng.below(n) as u64;
    let events = 3 + below(24);
    let clients = 1 + below(5) as u32;
    let hosts = 1 + below(8);
    let synth = TrafficSynthesizer {
        quic_fraction: below(5) as f64 * 0.25,
        dns_fraction: below(4) as f64 * 0.15,
        ech_fraction: below(3) as f64 * 0.2,
        tcp_fragment_fraction: below(5) as f64 * 0.25,
        ..TrafficSynthesizer::default()
    };
    let events: Vec<RequestEvent> = (0..events)
        .map(|i| RequestEvent {
            t_ms: 500 + i * (40 + below(500)),
            client: (i as u32) % clients,
            hostname: format!("w{}.case{}.example.org", below(hosts as usize), seed % 89),
        })
        .collect();
    synth.synthesize(&events)
}

/// The seeds a sweep covers: `CHAOS_CASES` of them (`default_cases` when
/// unset) starting at `CHAOS_SEED_BASE` (0 when unset).
///
/// # Panics
/// Panics when either variable is set to something that is not a `u64`: a
/// typo must not quietly sweep the default window and pass.
pub fn seed_window(default_cases: u64) -> Range<u64> {
    let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    let base = parse_var("CHAOS_SEED_BASE", var("CHAOS_SEED_BASE"), 0);
    base..base + parse_var("CHAOS_CASES", var("CHAOS_CASES"), default_cases)
}

fn parse_var(name: &str, value: Option<String>, default: u64) -> u64 {
    let parse = |v: String| v.parse().unwrap_or_else(|e| panic!("{name}={v:?}: {e}"));
    value.map_or(default, parse)
}

/// What one case saw. Summed over a sweep it is the tally `hostprof chaos`
/// prints and what the suites hold their non-vacuity floors against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseStats {
    /// Packets of the case's stream before and after the chaos pass.
    pub packets_in: u64,
    pub packets_out: u64,
    /// Flows by what the chaos pass did to them.
    pub clean_flows: u64,
    pub mutated_flows: u64,
    pub garbage_flows: u64,
    /// Hostnames the observer recovered from the mutated stream.
    pub observations: u64,
    /// Parse errors the observer classified on the mutated stream.
    pub parse_errors: u64,
    /// Observations of certified-clean flows found bit-identical in the
    /// chaotic run; only property (b) counts any.
    pub clean_observations: u64,
}

impl CaseStats {
    fn of(out: &ChaosOutcome, obs: &SniObserver) -> Self {
        Self {
            packets_in: out.stats.packets_in,
            packets_out: out.stats.packets_out,
            clean_flows: out.stats.clean_flows,
            mutated_flows: out.stats.mutated_flows,
            garbage_flows: out.stats.garbage_flows,
            observations: obs.observations().len() as u64,
            parse_errors: obs.stats().parse_errors,
            clean_observations: 0,
        }
    }
}

impl std::iter::Sum for CaseStats {
    fn sum<I: Iterator<Item = Self>>(cases: I) -> Self {
        cases.fold(Self::default(), |a, b| Self {
            packets_in: a.packets_in + b.packets_in,
            packets_out: a.packets_out + b.packets_out,
            clean_flows: a.clean_flows + b.clean_flows,
            mutated_flows: a.mutated_flows + b.mutated_flows,
            garbage_flows: a.garbage_flows + b.garbage_flows,
            observations: a.observations + b.observations,
            parse_errors: a.parse_errors + b.parse_errors,
            clean_observations: a.clean_observations + b.clean_observations,
        })
    }
}

/// `parse_errors` decomposes exactly into the taxonomy buckets.
fn taxonomy_balances(seed: u64, obs: &SniObserver) -> Result<(), String> {
    let stats = obs.stats();
    let balanced = stats.parse_errors == stats.taxonomy_total();
    let off_balance = || format!("seed {seed}: error taxonomy off balance: {stats:?}");
    balanced.then_some(()).ok_or_else(off_balance)
}

/// Property (a): no aggressively mutated stream panics the observer, and
/// every parse error lands in exactly one taxonomy bucket — property (c)'s
/// case under the caps an observer has by default.
pub fn errors_are_classified(seed: u64) -> Result<CaseStats, String> {
    pending_memory_stays_under_caps(seed, ObserverConfig::default())
}

/// Property (b): under the balanced profile, every observation a solo
/// replay of a certified-clean flow's original packets yields appears
/// verbatim in the chaotic run. Checked per flow because `Observation`
/// carries no flow attribution.
pub fn clean_flows_survive_bit_identical(seed: u64) -> Result<CaseStats, String> {
    let stream = stream_for(seed);
    let out = chaos::apply(&ChaosConfig::with_seed(seed), &stream);
    let mut chaotic = SniObserver::new();
    chaotic.process_stream(&out.packets);
    let mut case = CaseStats::of(&out, &chaotic);
    for key in &out.clean_flows {
        let mut solo = SniObserver::new();
        solo.process_stream(stream.iter().filter(|p| FlowKey::of(p) == *key));
        for want in solo.observations() {
            if !chaotic.observations().contains(want) {
                return Err(format!("seed {seed}: clean flow {key:?} lost {want:?}"));
            }
            case.clean_observations += 1;
        }
    }
    Ok(case)
}

/// Property (c): under aggressive chaos, with DNS harvesting on, pending
/// bytes and pending flows are within `caps` at every packet boundary
/// (callers pass caps tiny enough that eviction and overflow fire at test
/// scale), and the taxonomy still balances with the evictions in it.
pub fn pending_memory_stays_under_caps(
    seed: u64,
    caps: ObserverConfig,
) -> Result<CaseStats, String> {
    let out = chaos::apply(&ChaosConfig::aggressive(seed), &stream_for(seed));
    let mut obs = SniObserver::with_config(caps).with_dns_harvesting();
    for pkt in &out.packets {
        obs.process(pkt);
        let (bytes, flows) = (obs.pending_bytes(), obs.pending_flows());
        if bytes > caps.max_total_pending_bytes || flows > caps.max_pending_flows {
            return Err(format!(
                "seed {seed}: pending {bytes} B / {flows} flows over caps {} B / {}",
                caps.max_total_pending_bytes, caps.max_pending_flows
            ));
        }
    }
    taxonomy_balances(seed, &obs)?;
    Ok(CaseStats::of(&out, &obs))
}

/// Property (d): two passes of the balanced profile over one input agree
/// on the mutated bytes, the chaos stats, the clean-flow certificate and
/// everything the observer makes of them.
pub fn same_seed_replays_identically(seed: u64) -> Result<CaseStats, String> {
    let stream = stream_for(seed);
    let run = || {
        let out = chaos::apply(&ChaosConfig::with_seed(seed), &stream);
        let mut obs = SniObserver::new();
        obs.process_stream(&out.packets);
        (out, obs)
    };
    let ((a, oa), (b, ob)) = (run(), run());
    let compared = [
        ("mutated packets", a.packets == b.packets),
        ("chaos stats", a.stats == b.stats),
        ("clean flows", a.clean_flows == b.clean_flows),
        ("observer stats", oa.stats() == ob.stats()),
        ("observations", oa.observations() == ob.observations()),
    ];
    match compared.iter().find(|(_, same)| !same) {
        Some((what, _)) => Err(format!("seed {seed}: {what} differ between two runs")),
        None => Ok(CaseStats::of(&a, &oa)),
    }
}

/// The golden SNI vector corpus, `tests/vectors/sni_vectors.txt`: one
/// `kind<TAB>name<TAB>expect<TAB>hex` line per vector, `expect` being what
/// the current parsers make of the bytes. `tests/golden_vectors.rs` holds
/// the committed file to this text; after an intentional parser change,
/// regenerate it with the command in its header and review the diff.
pub fn sni_vectors() -> String {
    let mut out = String::from(
        "# Golden SNI extraction vectors.\n\
         # kind<TAB>name<TAB>expect<TAB>hex-encoded input\n\
         # expect: ok:<host> | ok-none | err:<ParseError variant>\n\
         # Regenerate: hostprof chaos --gen-vectors > tests/vectors/sni_vectors.txt\n",
    );
    let mut vectors: Vec<(&str, &str, Vec<u8>)> = Vec::new();
    let mut tls_line = |name, bytes: &[u8]| vectors.push(("tls", name, bytes.to_vec()));

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
    let name_at = ch.windows(11).position(|w| w == b"example.com");
    let name_at = name_at.expect("the hello carries its name");
    let mut bad_host = ch.clone();
    bad_host[name_at] = 0xff;
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
    let list_len = u16::from_be_bytes([ch[name_at - 5], ch[name_at - 4]]);
    bad_list[name_at - 5..name_at - 3].copy_from_slice(&(list_len + 40).to_be_bytes());
    tls_line("sni-list-length-overstated", &bad_list);

    let mut trailing = ch.clone();
    trailing.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
    tls_line("trailing-bytes-after-record", &trailing);

    let mut quic_line = |name, bytes: &[u8]| vectors.push(("quic", name, bytes.to_vec()));
    let qi = quic::InitialPacket::for_hostname("quic.example.com").encode();
    quic_line("basic-initial", &qi);

    let coalesced_tail = (0u8..50).map(|i| i.wrapping_mul(37));
    let mut coalesced = qi.clone();
    coalesced.extend(coalesced_tail.clone());
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
    two_frames_coalesced.extend(coalesced_tail);
    quic_line("two-crypto-frames-coalesced-tail", &two_frames_coalesced);

    // A `server_name` body that is not a name reads as no name over QUIC;
    // over TCP the same hello is err:InvalidHostname (non-ascii-hostname).
    let mut bad_name = hello.clone();
    bad_name.extensions[0].data[5] = 0xff;
    let mut malformed = Vec::new();
    crypto_frame(&mut malformed, 0, &bad_name.encode_handshake());
    quic_line("malformed-server-name", &initial_around(&malformed));

    for (kind, name, bytes) in vectors {
        let expect = match kind {
            "tls" => tls::extract_sni(&bytes).map(|name| name.map(str::to_string)),
            _ => quic::extract_sni_from_quic(&bytes),
        };
        let expect = match expect {
            Ok(Some(host)) => format!("ok:{host}"),
            Ok(None) => "ok-none".to_string(),
            Err(e) => format!("err:{e:?}"),
        };
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        writeln!(out, "{kind}\t{name}\t{expect}\t{hex}").expect("writing to a String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "CHAOS_SEED_BASE=\"1O000\"")]
    fn a_window_variable_is_the_default_when_unset_and_named_when_it_does_not_parse() {
        assert_eq!(parse_var("CHAOS_CASES", None, 256), 256);
        assert_eq!(parse_var("CHAOS_CASES", Some("40".into()), 256), 40);
        parse_var("CHAOS_SEED_BASE", Some("1O000".into()), 0);
    }
}
