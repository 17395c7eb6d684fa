//! The QUIC observer path against its owned twin, `Result` for `Result`.
//!
//! [`extract_sni_from_quic`] walks the datagram's own bytes: padding as a
//! run, the one-frame CRYPTO stream where it lies, a strict handshake walk
//! that copies nothing (DESIGN.md §8.4). Its twin here is the path as it
//! was when every field became a `Vec`: parse an owned Initial (a copy of
//! every CRYPTO frame, one varint read per padding byte, a sort by offset,
//! the contiguity rule), parse an owned ClientHello from the joined
//! stream, ask it for the first `server_name` — written against nothing
//! but a byte cursor, so no line of it is shared with the code it checks.
//! For every input the two must agree on the `Result`, down to the
//! `ParseError` variant: the observer's failure taxonomy, `net::chaos`'s
//! verify-or-revert coalescing and the golden vectors all read the variant.
//!
//! A random byte string almost never gets past the header, so the inputs
//! are built: an Initial described field by field and frame by frame, then
//! broken in the ways the random fuzz rarely reaches — CRYPTO frames
//! reordered, gapped, overlapping, at equal offsets in both wire orders
//! (an unstable sort would turn `Ok` into `BadLength`), empty, absent; an
//! unknown frame type *after* a gap (`WrongType`: all frames are read
//! before contiguity is judged); PING and the two-byte PADDING `40 00`
//! between frames; `payload_len` short and long; a token; a coalesced
//! tail; header bytes overwritten; every prefix. The test counts how many
//! cases ended in a name, in no name, and in each `ParseError` the path
//! can return, and fails if any class stayed empty.

use hostprof_net::quic::{encode_varint, extract_sni_from_quic, InitialPacket, QUIC_V1};
use hostprof_net::tls::{encode_sni_extension, ext, ClientHello, Extension};
use hostprof_net::ParseError;
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// The twin.
// ---------------------------------------------------------------------------

/// A bounds-checked cursor: a short read is `Truncated` and consumes
/// nothing.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        if self.0.len() < n {
            return Err(ParseError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn uint(&mut self, width: usize) -> Result<u64, ParseError> {
        Ok(self
            .take(width)?
            .iter()
            .fold(0, |v, &b| (v << 8) | b as u64))
    }

    fn varint(&mut self) -> Result<u64, ParseError> {
        let first = self.uint(1)?;
        let mut v = first & 0x3f;
        for _ in 1..(1usize << (first >> 6)) {
            v = (v << 8) | self.uint(1)?;
        }
        Ok(v)
    }
}

/// The CRYPTO stream of an Initial, every frame copied, PADDING read one
/// frame at a time.
fn reference_crypto_stream(bytes: &[u8]) -> Result<Vec<u8>, ParseError> {
    let mut r = Cursor(bytes);
    let first = r.uint(1)?;
    if first & 0b1000_0000 == 0 {
        return Err(ParseError::NotLongHeader);
    }
    if (first >> 4) & 0b11 != 0 {
        return Err(ParseError::WrongType);
    }
    if r.uint(4)? != QUIC_V1 as u64 {
        return Err(ParseError::UnsupportedVersion);
    }
    for _cid in ["dcid", "scid"] {
        let len = r.uint(1)? as usize;
        if len > 20 {
            return Err(ParseError::BadLength);
        }
        r.take(len)?;
    }
    let token_len = r.varint()? as usize;
    r.take(token_len)?;
    let payload_len = r.varint()? as usize;
    let mut p = Cursor(r.take(payload_len)?);

    let mut segments: Vec<(u64, Vec<u8>)> = Vec::new();
    while !p.0.is_empty() {
        match p.varint()? {
            0x00 | 0x01 => {}
            0x06 => {
                let offset = p.varint()?;
                let len = p.varint()? as usize;
                segments.push((offset, p.take(len)?.to_vec()));
            }
            _ => return Err(ParseError::WrongType),
        }
    }
    segments.sort_by_key(|(off, _)| *off);
    let mut crypto = Vec::new();
    for (off, seg) in segments {
        if off as usize != crypto.len() {
            return Err(ParseError::BadLength);
        }
        crypto.extend_from_slice(&seg);
    }
    Ok(crypto)
}

/// The extensions of a bare ClientHello handshake message, each copied,
/// after every strict check.
fn reference_extensions(handshake: &[u8]) -> Result<Vec<(u16, Vec<u8>)>, ParseError> {
    let mut r = Cursor(handshake);
    if r.uint(1)? != 1 {
        return Err(ParseError::NotClientHello);
    }
    let body_len = r.uint(3)? as usize;
    let mut b = Cursor(r.take(body_len)?);
    if b.uint(2)? >> 8 != 0x03 {
        return Err(ParseError::UnsupportedVersion);
    }
    b.take(32)?;
    let sid_len = b.uint(1)? as usize;
    if sid_len > 32 {
        return Err(ParseError::BadLength);
    }
    b.take(sid_len)?;
    let cs_len = b.uint(2)? as usize;
    if !cs_len.is_multiple_of(2) {
        return Err(ParseError::BadLength);
    }
    b.take(cs_len)?;
    let comp_len = b.uint(1)? as usize;
    b.take(comp_len)?;
    let mut extensions = Vec::new();
    if !b.0.is_empty() {
        let ext_total = b.uint(2)? as usize;
        let mut e = Cursor(b.take(ext_total)?);
        while !e.0.is_empty() {
            let ext_type = e.uint(2)? as u16;
            let len = e.uint(2)? as usize;
            extensions.push((ext_type, e.take(len)?.to_vec()));
        }
        if !b.0.is_empty() {
            return Err(ParseError::TrailingBytes);
        }
    }
    if !r.0.is_empty() {
        return Err(ParseError::TrailingBytes);
    }
    Ok(extensions)
}

/// The first `host_name` of a `server_name` extension body.
fn reference_server_name(data: &[u8]) -> Result<Option<String>, ParseError> {
    let mut r = Cursor(data);
    let list_len = r.uint(2)? as usize;
    let mut l = Cursor(r.take(list_len)?);
    while !l.0.is_empty() {
        let name_type = l.uint(1)?;
        let len = l.uint(2)? as usize;
        let name = l.take(len)?;
        if name_type == 0 {
            return match std::str::from_utf8(name) {
                Ok(s) if s.bytes().all(|b| b.is_ascii_graphic()) => Ok(Some(s.to_string())),
                _ => Err(ParseError::InvalidHostname),
            };
        }
    }
    Ok(None)
}

fn reference_sni(bytes: &[u8]) -> Result<Option<String>, ParseError> {
    let crypto = reference_crypto_stream(bytes)?;
    let extensions = reference_extensions(&crypto)?;
    Ok(extensions
        .iter()
        .find(|(ext_type, _)| *ext_type == ext::SERVER_NAME)
        // A malformed `server_name` reads as no name, not as an error.
        .and_then(|(_, data)| reference_server_name(data).ok().flatten()))
}

// ---------------------------------------------------------------------------
// Building Initials.
// ---------------------------------------------------------------------------

enum Frame {
    Crypto {
        offset: u64,
        data: Vec<u8>,
    },
    Padding(usize),
    /// `40 00`: the value 0 in two bytes, PADDING all the same.
    WidePadding,
    Ping,
    Unknown(u64),
}

struct Initial {
    first_byte: u8,
    version: u32,
    dcid: Vec<u8>,
    scid: Vec<u8>,
    token: Vec<u8>,
    frames: Vec<Frame>,
    /// Added to the true payload length in the header's length field.
    payload_len_skew: i64,
    /// Bytes after the packet, as a coalesced datagram carries.
    tail: Vec<u8>,
}

impl Initial {
    fn carrying(frames: Vec<Frame>) -> Self {
        Self {
            first_byte: 0b1100_0000,
            version: QUIC_V1,
            dcid: vec![0xd1; 8],
            scid: vec![0x5c; 8],
            token: Vec::new(),
            frames,
            payload_len_skew: 0,
            tail: Vec::new(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        for f in &self.frames {
            match f {
                Frame::Crypto { offset, data } => {
                    encode_varint(&mut payload, 0x06);
                    encode_varint(&mut payload, *offset);
                    encode_varint(&mut payload, data.len() as u64);
                    payload.extend_from_slice(data);
                }
                Frame::Padding(n) => payload.extend(std::iter::repeat_n(0u8, *n)),
                Frame::WidePadding => payload.extend_from_slice(&[0x40, 0x00]),
                Frame::Ping => payload.push(0x01),
                Frame::Unknown(t) => encode_varint(&mut payload, *t),
            }
        }
        let mut out = vec![self.first_byte];
        out.extend_from_slice(&self.version.to_be_bytes());
        out.push(self.dcid.len() as u8);
        out.extend_from_slice(&self.dcid);
        out.push(self.scid.len() as u8);
        out.extend_from_slice(&self.scid);
        encode_varint(&mut out, self.token.len() as u64);
        out.extend_from_slice(&self.token);
        let declared = (payload.len() as i64 + self.payload_len_skew).max(0) as u64;
        encode_varint(&mut out, declared);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&self.tail);
        out
    }
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.uniform_u64(0, n as u64 - 1) as usize
}

fn hostname(rng: &mut TestRng) -> String {
    // Mixed case: the walk returns the name as sent; lowercasing is the
    // observer's.
    "[a-zA-Z][a-z0-9-]{0,12}(\\.[a-z]{2,6}){1,2}".sample(rng)
}

/// A handshake message: most carry a name, some hide it, the rest break
/// one strict check each.
fn handshake(rng: &mut TestRng) -> Vec<u8> {
    let mut ch = ClientHello::for_hostname(&hostname(rng));
    let alpn = Extension {
        ext_type: ext::ALPN,
        data: vec![0, 3, 2, b'h', b'3'],
    };
    match below(rng, 24) {
        0 => ch = ClientHello::with_ech(64),
        // No `server_name` at all / no extension block at all.
        1 => ch.extensions.retain(|e| e.ext_type != ext::SERVER_NAME),
        2 => ch.extensions.clear(),
        // The name is not in the first extension; a second `server_name`
        // after the first is ignored.
        3 => ch.extensions.insert(0, alpn),
        4 => ch.extensions.push(Extension {
            ext_type: ext::SERVER_NAME,
            data: encode_sni_extension("second.example"),
        }),
        // Malformed `server_name` bodies: hidden, not an error.
        5 => ch.extensions[0].data[5] = 0xff,
        6 => ch.extensions[0].data.truncate(4),
        7 => ch.extensions[0].data[2] = 1, // name_type ≠ host_name
        _ => {}
    }
    let mut hs = ch.encode_handshake();
    // type(1) len(3) version(2) random(32) sid_len(1) sid(32) cs_len(2) …
    const SID_LEN: usize = 38;
    const CS_LEN: usize = SID_LEN + 1 + 32;
    match below(rng, 40) {
        0 | 9 | 10 => hs[0] = 2,            // ServerHello
        1 => hs[4] = 0x02,                  // body version 0x02xx
        2 => hs[SID_LEN] = 33,              // session id over 32 bytes
        3 => hs[CS_LEN + 1] |= 1,           // odd cipher-suite length
        4 => hs.push(0),                    // bytes after the message
        5 => hs[3] = hs[3].wrapping_sub(1), // body ends inside the extensions
        6 => {
            // One byte more inside the body, beyond the extension block.
            hs.push(0);
            hs[3] = hs[3].wrapping_add(1);
        }
        7 => {
            // The *last* extension overruns its block: the framing is
            // checked after the name has been seen.
            let n = hs.len();
            let last_len_at = n - ch.extensions.last().map_or(0, |e| e.data.len()) - 1;
            if !ch.extensions.is_empty() {
                hs[last_len_at] = hs[last_len_at].wrapping_add(1);
            }
        }
        8 => {
            let at = below(rng, hs.len());
            hs[at] ^= 1 << below(rng, 8);
        }
        _ => {}
    }
    hs
}

/// `stream` as 1–3 CRYPTO frames, and the ways of getting that wrong.
fn crypto_frames(rng: &mut TestRng, stream: &[u8]) -> Vec<Frame> {
    let n = 1 + below(rng, 3);
    let mut cuts: Vec<usize> = (1..n).map(|_| below(rng, stream.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.insert(0, 0);
    cuts.push(stream.len());
    let mut frames: Vec<Frame> = cuts
        .windows(2)
        .map(|w| Frame::Crypto {
            offset: w[0] as u64,
            data: stream[w[0]..w[1]].to_vec(),
        })
        .collect();
    let pick = below(rng, frames.len());
    match below(rng, 12) {
        0 | 1 => frames.reverse(),
        2 => {
            // A gap (or, for the first frame, a stream that starts late).
            if let Frame::Crypto { offset, .. } = &mut frames[pick] {
                *offset += 1 + below(rng, 4) as u64;
            }
        }
        3 => {
            // Overlap: a frame starts before its predecessor ended.
            if let Frame::Crypto { offset, .. } = &mut frames[pick] {
                *offset = offset.saturating_sub(1);
            }
        }
        4 | 5 => {
            // Two frames at one offset, the empty one first or second:
            // contiguous in exactly one of the two stable orders.
            let Frame::Crypto { offset, .. } = frames[pick] else {
                unreachable!("only CRYPTO frames so far")
            };
            let empty = Frame::Crypto {
                offset,
                data: Vec::new(),
            };
            frames.insert(pick + below(rng, 2), empty);
        }
        6 => frames.clear(),
        7 => {
            // The same frame twice.
            let Frame::Crypto { offset, data } = &frames[pick] else {
                unreachable!("only CRYPTO frames so far")
            };
            let copy = Frame::Crypto {
                offset: *offset,
                data: data.clone(),
            };
            frames.insert(pick, copy);
        }
        _ => {}
    }
    frames
}

/// Non-CRYPTO frames between, before and after the CRYPTO frames.
fn interleave(rng: &mut TestRng, frames: &mut Vec<Frame>) {
    for _ in 0..below(rng, 4) {
        let at = below(rng, frames.len() + 1);
        let extra = match below(rng, 12) {
            0..=2 => Frame::Ping,
            3..=5 => Frame::WidePadding,
            6..=10 => Frame::Padding(1 + below(rng, 20)),
            // Unknown types, one of them four bytes wide; wherever it
            // lands — also after a gap — the answer is `WrongType`.
            _ => Frame::Unknown([0x02, 0x07, 0x1c, 0x40_06][below(rng, 4)]),
        };
        frames.insert(at, extra);
    }
    if below(rng, 2) == 0 {
        // RFC 9000 §8.1: pad the datagram to 1 200 bytes.
        frames.push(Frame::Padding(900 + below(rng, 200)));
    }
}

fn initial(rng: &mut TestRng) -> Initial {
    let stream = handshake(rng);
    let mut frames = crypto_frames(rng, &stream);
    interleave(rng, &mut frames);
    let mut pkt = Initial::carrying(frames);
    match below(rng, 24) {
        0 => pkt.payload_len_skew = -(1 + below(rng, 40) as i64),
        1 => pkt.payload_len_skew = 1 + below(rng, 40) as i64,
        2 | 3 => {
            pkt.tail = (0..1 + below(rng, 60))
                .map(|_| rng.next_u64() as u8)
                .collect()
        }
        4 | 5 => pkt.token = vec![0x7e; 1 + below(rng, 70)],
        6 => pkt.first_byte = rng.next_u64() as u8,
        7 => pkt.version = [0, 2, 0xff00_001d][below(rng, 3)],
        8 => pkt.dcid = vec![0xd1; below(rng, 24)],
        9 => pkt.scid = vec![0x5c; below(rng, 24)],
        _ => {}
    }
    pkt
}

// ---------------------------------------------------------------------------
// The property.
// ---------------------------------------------------------------------------

/// How the cases ended, by class.
#[derive(Default)]
struct Seen(BTreeMap<String, u64>);

impl Seen {
    /// Hold the walk to the twin on `bytes`, and the owned parser — the
    /// same checks, `to_owned()` — to both.
    fn check(&mut self, bytes: &[u8]) {
        let want = reference_sni(bytes);
        assert_eq!(extract_sni_from_quic(bytes), want, "{bytes:02x?}");
        let owned = InitialPacket::parse(bytes)
            .and_then(|pkt| pkt.client_hello())
            .map(|ch| ch.sni().map(str::to_string));
        assert_eq!(owned, want, "owned parse of {bytes:02x?}");
        let class = match want {
            Ok(Some(_)) => "name".to_string(),
            Ok(None) => "hidden".to_string(),
            Err(e) => format!("{e:?}"),
        };
        *self.0.entry(class).or_default() += 1;
    }
}

#[test]
fn the_borrowed_walk_returns_what_the_owned_parse_returned() {
    let mut rng = TestRng::deterministic("the_borrowed_walk_returns_what_the_owned_parse_returned");
    let (mut built, mut damaged) = (Seen::default(), Seen::default());
    for case in 0..proptest::case_count() {
        let bytes = initial(&mut rng).encode();
        built.check(&bytes);
        // Bytes overwritten anywhere, most often in the header.
        let mut mutated = bytes.clone();
        for _ in 0..1 + below(&mut rng, 3) {
            let span = [32, mutated.len()][below(&mut rng, 2)];
            let at = below(&mut rng, span.min(mutated.len()));
            mutated[at] = rng.next_u64() as u8;
        }
        damaged.check(&mutated);
        // Every prefix of one case in eight (an Initial is 1 200 bytes), a
        // few cuts of the others.
        if case % 8 == 0 {
            for cut in 0..bytes.len() {
                damaged.check(&bytes[..cut]);
            }
        } else {
            for _ in 0..4 {
                damaged.check(&bytes[..below(&mut rng, bytes.len())]);
            }
        }
    }
    eprintln!("quic walk ≡ twin, as built: {:?}", built.0);
    eprintln!("quic walk ≡ twin, overwritten or cut: {:?}", damaged.0);
    for class in [
        "name",
        "hidden",
        "Truncated",
        "BadLength",
        "WrongType",
        "NotClientHello",
        "UnsupportedVersion",
        "NotLongHeader",
        "TrailingBytes",
    ] {
        assert!(
            built.0.contains_key(class) || damaged.0.contains_key(class),
            "no case ended in {class}"
        );
    }
}
