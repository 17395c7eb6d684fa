//! Simplified QUIC Initial packets.
//!
//! The paper (§7.2) notes that QUIC leaks the requested hostname exactly
//! like HTTPS: the ClientHello travels in the CRYPTO frames of the Initial
//! packet. Real Initial packets are "protected", but the keys are derived
//! from the *public* Destination Connection ID (RFC 9001 §5.2), so **any
//! on-path observer can decrypt them** — the protection exists only to stop
//! casual middlebox ossification, not eavesdroppers. We therefore model the
//! Initial payload in the clear; the observer-visible information is
//! identical, and we skip only the keying ceremony (documented substitution,
//! DESIGN.md §2).
//!
//! Layout implemented here (RFC 9000 subset):
//!
//! ```text
//! first byte   0b1100_0000 (long header, Initial)
//! version      u32
//! dcid         u8 length + bytes (≤ 20)
//! scid         u8 length + bytes (≤ 20)
//! token        varint length + bytes
//! length       varint (remaining payload bytes)
//! payload      frames: PADDING (0x00), PING (0x01), CRYPTO (0x06)
//! ```
//!
//! [`extract_sni_from_quic`] is the observer's path, and like
//! [`tls::extract_sni`](crate::tls::extract_sni) it reads the name where
//! it lies: the checks above run over a view that borrows from the
//! datagram, the ≈1 000 PADDING bytes that RFC 9000 §8.1 makes every
//! client Initial carry are skipped as one run, and a CRYPTO stream sent as
//! one frame — every Initial this workspace synthesizes — is walked in
//! place. Only a stream split over several frames is reassembled into a
//! buffer. [`InitialPacket::parse`] is the same view, copied out.

use crate::error::ParseError;
use crate::tls::{ClientHello, HelloView};
use crate::wire::{Reader, Writer};
use std::borrow::Cow;

/// QUIC v1 version number.
pub const QUIC_V1: u32 = 0x0000_0001;

/// Frame type codes handled by the observer.
mod frame {
    pub const PADDING: u64 = 0x00;
    pub const PING: u64 = 0x01;
    pub const CRYPTO: u64 = 0x06;
}

/// Encode a QUIC variable-length integer (RFC 9000 §16).
pub fn encode_varint(w: &mut Vec<u8>, v: u64) {
    match v {
        0..=0x3f => w.push(v as u8),
        0x40..=0x3fff => w.extend_from_slice(&(0x4000u16 | v as u16).to_be_bytes()),
        0x4000..=0x3fff_ffff => w.extend_from_slice(&(0x8000_0000u32 | v as u32).to_be_bytes()),
        _ => {
            assert!(v <= 0x3fff_ffff_ffff_ffff, "varint out of range");
            w.extend_from_slice(&(0xc000_0000_0000_0000u64 | v).to_be_bytes());
        }
    }
}

/// Decode a QUIC variable-length integer from the front of a buffer;
/// returns the value and the number of bytes consumed. Non-minimal
/// encodings are accepted, as RFC 9000 §16 requires of receivers.
pub fn decode_varint(bytes: &[u8]) -> Result<(u64, usize), ParseError> {
    let mut r = Reader::new(bytes);
    let v = read_varint(&mut r)?;
    Ok((v, bytes.len() - r.remaining()))
}

/// Decode a QUIC variable-length integer.
pub(crate) fn read_varint(r: &mut Reader<'_>) -> Result<u64, ParseError> {
    let first = r.u8()?;
    let prefix = first >> 6;
    let mut v = (first & 0x3f) as u64;
    let extra = match prefix {
        0 => 0,
        1 => 1,
        2 => 3,
        _ => 7,
    };
    for _ in 0..extra {
        v = (v << 8) | r.u8()? as u64;
    }
    Ok(v)
}

/// Coarse classification of a QUIC datagram's first packet — lets the
/// observer skip non-Initial long-header packets (Version Negotiation,
/// Retry, Handshake, 0-RTT) without flagging them as parse errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuicPacketKind {
    /// Client/server Initial — the only packet that can leak SNI.
    Initial,
    /// 0-RTT long-header packet.
    ZeroRtt,
    /// Handshake long-header packet.
    Handshake,
    /// Retry long-header packet.
    Retry,
    /// Version Negotiation (version field 0).
    VersionNegotiation,
    /// Short-header (1-RTT) packet.
    ShortHeader,
}

/// Classify a datagram's first byte(s) without a full parse.
pub fn classify(bytes: &[u8]) -> Result<QuicPacketKind, ParseError> {
    let mut r = Reader::new(bytes);
    let first = r.u8()?;
    if first & 0b1000_0000 == 0 {
        return Ok(QuicPacketKind::ShortHeader);
    }
    let version = r.u32()?;
    if version == 0 {
        return Ok(QuicPacketKind::VersionNegotiation);
    }
    Ok(match (first >> 4) & 0b11 {
        0b00 => QuicPacketKind::Initial,
        0b01 => QuicPacketKind::ZeroRtt,
        0b10 => QuicPacketKind::Handshake,
        _ => QuicPacketKind::Retry,
    })
}

/// A simplified Initial packet carrying a TLS handshake in CRYPTO frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialPacket {
    /// QUIC version (always [`QUIC_V1`] here).
    pub version: u32,
    /// Destination connection id.
    pub dcid: Vec<u8>,
    /// Source connection id.
    pub scid: Vec<u8>,
    /// Reassembled CRYPTO stream (the TLS handshake bytes).
    pub crypto: Vec<u8>,
}

impl InitialPacket {
    /// Build an Initial for a ClientHello to `server_name`, with
    /// deterministic connection ids derived from the name.
    pub fn for_hostname(server_name: &str) -> Self {
        let ch = ClientHello::for_hostname(server_name);
        let mut dcid = vec![0u8; 8];
        dcid.copy_from_slice(&ch.random[..8]);
        let mut scid = vec![0u8; 8];
        scid.copy_from_slice(&ch.random[8..16]);
        Self {
            version: QUIC_V1,
            dcid,
            scid,
            crypto: ch.encode_handshake(),
        }
    }

    /// Serialize to wire bytes. The CRYPTO stream is emitted as a single
    /// frame at offset 0, padded to at least 1200 bytes as RFC 9000 §8.1
    /// requires for client Initials.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(self.crypto.len() + 16);
        encode_varint(&mut payload, frame::CRYPTO);
        encode_varint(&mut payload, 0); // offset
        encode_varint(&mut payload, self.crypto.len() as u64);
        payload.extend_from_slice(&self.crypto);

        let mut w = Writer::new();
        w.put_u8(0b1100_0000);
        w.put_u32(self.version);
        w.put_u8(self.dcid.len() as u8);
        w.put_bytes(&self.dcid);
        w.put_u8(self.scid.len() as u8);
        w.put_bytes(&self.scid);
        let mut head = w.into_bytes();
        encode_varint(&mut head, 0); // token length

        // Pad the datagram to ≥ 1200 bytes with PADDING frames.
        let framed_so_far = head.len();
        let min_total = 1200usize;
        let mut pad = 0usize;
        // length field size depends on payload size; compute after padding
        // decision using the 2-byte varint form (always sufficient here).
        let base = framed_so_far + 2 + payload.len();
        if base < min_total {
            pad = min_total - base;
        }
        payload.extend(std::iter::repeat_n(0u8, pad));

        let mut out = head;
        encode_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out
    }

    /// Parse an Initial packet, reassembling CRYPTO frames (which may
    /// appear out of order at arbitrary offsets).
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        Ok(InitialView::parse(bytes)?.into_owned())
    }

    /// Parse the carried TLS handshake as a ClientHello.
    pub fn client_hello(&self) -> Result<ClientHello, ParseError> {
        ClientHello::parse_handshake(&self.crypto)
    }
}

/// A checked Initial whose fields borrow from the datagram: the one place
/// the header and frame checks live. [`InitialPacket::parse`] is its
/// [`into_owned`](Self::into_owned); [`extract_sni_from_quic`] reads the
/// CRYPTO stream where it lies.
struct InitialView<'a> {
    version: u32,
    dcid: &'a [u8],
    scid: &'a [u8],
    /// The CRYPTO stream: the frame's own bytes when one frame at offset 0
    /// carries all of it, a reassembled buffer otherwise.
    crypto: Cow<'a, [u8]>,
}

impl<'a> InitialView<'a> {
    fn parse(bytes: &'a [u8]) -> Result<Self, ParseError> {
        let mut r = Reader::new(bytes);
        let first = r.u8()?;
        if first & 0b1000_0000 == 0 {
            return Err(ParseError::NotLongHeader);
        }
        // Long-header packet type bits 00 = Initial; the observer only
        // inspects Initials.
        if (first >> 4) & 0b11 != 0 {
            return Err(ParseError::WrongType);
        }
        let version = r.u32()?;
        if version != QUIC_V1 {
            return Err(ParseError::UnsupportedVersion);
        }
        let dcid_len = r.u8()? as usize;
        if dcid_len > 20 {
            return Err(ParseError::BadLength);
        }
        let dcid = r.take(dcid_len)?;
        let scid_len = r.u8()? as usize;
        if scid_len > 20 {
            return Err(ParseError::BadLength);
        }
        let scid = r.take(scid_len)?;
        let token_len = read_varint(&mut r)? as usize;
        r.take(token_len)?;
        let payload_len = read_varint(&mut r)? as usize;
        let mut p = r.sub(payload_len)?;

        // Read every frame before judging the CRYPTO stream: an unknown
        // frame type is `WrongType` wherever it stands. Only frames after
        // the first CRYPTO frame go to the heap.
        let mut first_frame: Option<(u64, &[u8])> = None;
        let mut later_frames: Vec<(u64, &[u8])> = Vec::new();
        loop {
            // RFC 9000 §8.1 pads a client Initial to 1 200 bytes with
            // PADDING frames, each the single byte 0: skip them as a run.
            // A longer encoding of 0 (`40 00`) is PADDING through the
            // varint below.
            p.skip_zeros();
            if p.is_empty() {
                break;
            }
            match read_varint(&mut p)? {
                frame::PADDING | frame::PING => {}
                frame::CRYPTO => {
                    let offset = read_varint(&mut p)?;
                    let len = read_varint(&mut p)? as usize;
                    let segment = (offset, p.take(len)?);
                    match first_frame {
                        None => first_frame = Some(segment),
                        Some(_) => later_frames.push(segment),
                    }
                }
                _ => return Err(ParseError::WrongType),
            }
        }
        let crypto = match first_frame {
            None => Cow::Borrowed(&[][..]),
            Some((0, stream)) if later_frames.is_empty() => Cow::Borrowed(stream),
            Some(first_frame) => {
                let mut segments = later_frames;
                segments.insert(0, first_frame);
                // Stable: frames at equal offsets keep their wire order.
                segments.sort_by_key(|(off, _)| *off);
                let mut stream = Vec::new();
                for (off, seg) in segments {
                    if off as usize != stream.len() {
                        return Err(ParseError::BadLength);
                    }
                    stream.extend_from_slice(seg);
                }
                Cow::Owned(stream)
            }
        };
        Ok(Self {
            version,
            dcid,
            scid,
            crypto,
        })
    }

    fn into_owned(self) -> InitialPacket {
        InitialPacket {
            version: self.version,
            dcid: self.dcid.to_vec(),
            scid: self.scid.to_vec(),
            crypto: self.crypto.into_owned(),
        }
    }
}

/// The observer's path: the hostname a QUIC Initial datagram leaks.
///
/// One walk over the datagram's own bytes — header, frames (padding as a
/// run), the handshake's strict checks — that copies nothing until the
/// name it returns; only an Initial that splits its CRYPTO stream over
/// several frames reassembles into a buffer first. The `Result` is the one
/// [`InitialPacket::parse`] → [`InitialPacket::client_hello`] →
/// [`ClientHello::sni`] give, error variant included; unlike
/// [`tls::extract_sni`](crate::tls::extract_sni), a malformed
/// `server_name` extension reads as `Ok(None)`.
pub fn extract_sni_from_quic(bytes: &[u8]) -> Result<Option<String>, ParseError> {
    let mut name = String::new();
    Ok(sni_from_quic_into(bytes, &mut name)?.then_some(name))
}

/// [`extract_sni_from_quic`] into a caller's buffer: `out` is cleared, and
/// on `Ok(true)` holds the name, so a reused buffer recovers a name without
/// allocating. `Ok(false)` is the `Ok(None)` of [`extract_sni_from_quic`].
pub fn sni_from_quic_into(bytes: &[u8], out: &mut String) -> Result<bool, ParseError> {
    out.clear();
    let pkt = InitialView::parse(bytes)?;
    let hello = HelloView::parse_handshake(&pkt.crypto)?;
    let name = hello.sni();
    out.push_str(name.unwrap_or_default());
    Ok(name.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_all_widths() {
        for &v in &[
            0u64,
            0x3f,
            0x40,
            0x3fff,
            0x4000,
            0x3fff_ffff,
            0x4000_0000,
            0x3fff_ffff_ffff_ffff,
        ] {
            let mut buf = Vec::new();
            encode_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(read_varint(&mut r).unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn initial_roundtrips_and_carries_sni() {
        let pkt = InitialPacket::for_hostname("hotels.com");
        let bytes = pkt.encode();
        assert!(bytes.len() >= 1200, "client Initials are padded to 1200B");
        let back = InitialPacket::parse(&bytes).unwrap();
        assert_eq!(back.dcid, pkt.dcid);
        assert_eq!(back.crypto, pkt.crypto);
        assert_eq!(back.client_hello().unwrap().sni(), Some("hotels.com"));
        assert_eq!(
            extract_sni_from_quic(&bytes).unwrap().as_deref(),
            Some("hotels.com")
        );
    }

    #[test]
    fn classify_distinguishes_packet_kinds() {
        let initial = InitialPacket::for_hostname("x.com").encode();
        assert_eq!(classify(&initial), Ok(QuicPacketKind::Initial));
        assert_eq!(
            classify(&[0x40u8, 0, 0, 0, 0]),
            Ok(QuicPacketKind::ShortHeader)
        );
        // Version Negotiation: long header with version 0.
        assert_eq!(
            classify(&[0b1100_0000, 0, 0, 0, 0]),
            Ok(QuicPacketKind::VersionNegotiation)
        );
        // Handshake packet type bits 10.
        assert_eq!(
            classify(&[0b1110_0000, 0, 0, 0, 1]),
            Ok(QuicPacketKind::Handshake)
        );
        assert_eq!(
            classify(&[0b1111_0000, 0, 0, 0, 1]),
            Ok(QuicPacketKind::Retry)
        );
        assert_eq!(
            classify(&[0b1101_0000, 0, 0, 0, 1]),
            Ok(QuicPacketKind::ZeroRtt)
        );
        assert_eq!(classify(&[]), Err(ParseError::Truncated));
    }

    #[test]
    fn short_header_packets_are_rejected() {
        let bytes = [0x40u8; 64];
        assert_eq!(InitialPacket::parse(&bytes), Err(ParseError::NotLongHeader));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let pkt = InitialPacket::for_hostname("x.com");
        let mut bytes = pkt.encode();
        bytes[1..5].copy_from_slice(&0xdead_beefu32.to_be_bytes());
        assert_eq!(
            InitialPacket::parse(&bytes),
            Err(ParseError::UnsupportedVersion)
        );
    }

    #[test]
    fn oversized_cid_is_rejected() {
        let pkt = InitialPacket::for_hostname("x.com");
        let mut bytes = pkt.encode();
        bytes[5] = 21; // dcid length beyond RFC limit
        assert_eq!(InitialPacket::parse(&bytes), Err(ParseError::BadLength));
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = InitialPacket::for_hostname("truncate.example").encode();
        for cut in 0..bytes.len().min(200) {
            let _ = InitialPacket::parse(&bytes[..cut]);
        }
        // And the tail region around the crypto frame too.
        for cut in bytes.len() - 50..bytes.len() {
            let _ = InitialPacket::parse(&bytes[..cut]);
        }
    }

    #[test]
    fn out_of_order_crypto_segments_reassemble() {
        let ch_bytes = ClientHello::for_hostname("split.example").encode_handshake();
        let mid = ch_bytes.len() / 2;
        // Hand-build a payload with the second segment first.
        let mut payload = Vec::new();
        encode_varint(&mut payload, frame::CRYPTO);
        encode_varint(&mut payload, mid as u64);
        encode_varint(&mut payload, (ch_bytes.len() - mid) as u64);
        payload.extend_from_slice(&ch_bytes[mid..]);
        encode_varint(&mut payload, frame::CRYPTO);
        encode_varint(&mut payload, 0);
        encode_varint(&mut payload, mid as u64);
        payload.extend_from_slice(&ch_bytes[..mid]);

        let mut head = Vec::new();
        head.push(0b1100_0000);
        head.extend_from_slice(&QUIC_V1.to_be_bytes());
        head.push(4);
        head.extend_from_slice(&[1, 2, 3, 4]);
        head.push(0);
        encode_varint(&mut head, 0); // token len
        encode_varint(&mut head, payload.len() as u64);
        head.extend_from_slice(&payload);

        let pkt = InitialPacket::parse(&head).unwrap();
        assert_eq!(pkt.client_hello().unwrap().sni(), Some("split.example"));
    }

    #[test]
    fn gap_in_crypto_stream_is_an_error() {
        let mut payload = Vec::new();
        encode_varint(&mut payload, frame::CRYPTO);
        encode_varint(&mut payload, 10); // offset 10 with nothing before it
        encode_varint(&mut payload, 4);
        payload.extend_from_slice(&[0; 4]);
        let mut head = Vec::new();
        head.push(0b1100_0000);
        head.extend_from_slice(&QUIC_V1.to_be_bytes());
        head.push(0);
        head.push(0);
        encode_varint(&mut head, 0);
        encode_varint(&mut head, payload.len() as u64);
        head.extend_from_slice(&payload);
        assert_eq!(InitialPacket::parse(&head), Err(ParseError::BadLength));
    }
}
