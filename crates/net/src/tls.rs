//! TLS ClientHello codec.
//!
//! The observer's entire visibility into an HTTPS connection is the
//! ClientHello: the `server_name` (SNI) extension leaks the hostname even
//! though everything after the handshake is encrypted (paper §1, §7.2).
//! This module builds and parses ClientHello messages at the byte level:
//!
//! * [`ClientHello::encode`] produces a complete TLS record
//!   (record header → handshake header → body → extensions);
//! * [`ClientHello::parse`] inverts it, strictly and panic-free;
//! * [`extract_sni`] is the observer's zero-copy fast path: it walks the
//!   record and returns the server name as a borrowed `&str` without
//!   building the full structure — this is what makes line-rate profiling
//!   plausible (§4.1 "allowing traffic analysis at line rate").
//!
//! TLS 1.3's `encrypted_client_hello` (ECH) is modeled by the
//! [`ext::ENCRYPTED_CLIENT_HELLO`] extension: when a client sends ECH the
//! real name is hidden and [`extract_sni`] correctly reports nothing —
//! reproducing the paper's countermeasure discussion (§7.4).

use crate::error::ParseError;
use crate::wire::{Reader, Writer};

/// TLS extension type codes used here.
pub mod ext {
    /// `server_name` (RFC 6066).
    pub const SERVER_NAME: u16 = 0;
    /// `application_layer_protocol_negotiation` (RFC 7301).
    pub const ALPN: u16 = 16;
    /// `supported_versions` (RFC 8446).
    pub const SUPPORTED_VERSIONS: u16 = 43;
    /// `encrypted_client_hello` (draft-ietf-tls-esni).
    pub const ENCRYPTED_CLIENT_HELLO: u16 = 0xfe0d;
}

/// TLS record content type for handshake messages.
const CONTENT_HANDSHAKE: u8 = 22;
/// Handshake message type for ClientHello.
const HS_CLIENT_HELLO: u8 = 1;
/// The legacy record/body version fields (TLS 1.0 / TLS 1.2 as used on the
/// modern web).
const LEGACY_RECORD_VERSION: u16 = 0x0301;
const LEGACY_BODY_VERSION: u16 = 0x0303;

/// A raw extension: type code plus opaque body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extension {
    /// Extension type code (see [`ext`]).
    pub ext_type: u16,
    /// Opaque extension body.
    pub data: Vec<u8>,
}

/// A parsed / buildable ClientHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// `legacy_version` of the handshake body (0x0303 on the wire today).
    pub version: u16,
    /// The 32-byte client random.
    pub random: [u8; 32],
    /// Legacy session id (0–32 bytes).
    pub session_id: Vec<u8>,
    /// Offered cipher suites.
    pub cipher_suites: Vec<u16>,
    /// Legacy compression methods (always `[0]` in practice).
    pub compression: Vec<u8>,
    /// Extensions in wire order.
    pub extensions: Vec<Extension>,
}

impl ClientHello {
    /// A realistic ClientHello for `server_name`, with a deterministic
    /// random derived from the name (keeps traffic synthesis reproducible
    /// without threading an RNG through every packet).
    pub fn for_hostname(server_name: &str) -> Self {
        let mut random = [0u8; 32];
        let h = crate::wire::fnv1a(server_name.as_bytes());
        for (i, chunk) in random.chunks_mut(8).enumerate() {
            let v = h.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            chunk.copy_from_slice(&v.to_be_bytes());
        }
        let sni_body = encode_sni_extension(server_name);
        Self {
            version: LEGACY_BODY_VERSION,
            random,
            session_id: vec![0xab; 32],
            cipher_suites: vec![0x1301, 0x1302, 0x1303, 0xc02b, 0xc02f],
            compression: vec![0],
            extensions: vec![
                Extension {
                    ext_type: ext::SERVER_NAME,
                    data: sni_body,
                },
                Extension {
                    ext_type: ext::SUPPORTED_VERSIONS,
                    data: vec![0x02, 0x03, 0x04],
                },
            ],
        }
    }

    /// An ECH-protected ClientHello: the outer message carries only an
    /// `encrypted_client_hello` blob, no readable `server_name`.
    pub fn with_ech(payload_len: usize) -> Self {
        let mut ch = Self::for_hostname("ech.invalid");
        ch.extensions = vec![Extension {
            ext_type: ext::ENCRYPTED_CLIENT_HELLO,
            data: vec![0xec; payload_len.clamp(16, 512)],
        }];
        ch
    }

    /// The server name carried by the `server_name` extension, if any.
    pub fn sni(&self) -> Option<&str> {
        self.extensions
            .iter()
            .find(|e| e.ext_type == ext::SERVER_NAME)
            .and_then(|e| parse_sni_extension(&e.data).ok().flatten())
    }

    /// Serialize the *handshake message* (type + length + body), without
    /// the record layer. QUIC carries exactly this inside CRYPTO frames.
    ///
    /// # Panics
    /// Panics when a field exceeds its wire-format bound (session id over
    /// 32 bytes, an extension body over 65 535 bytes) — silently
    /// truncating a length field would emit a mis-framed record.
    pub fn encode_handshake(&self) -> Vec<u8> {
        assert!(
            self.session_id.len() <= 32,
            "session_id exceeds the 32-byte wire limit"
        );
        for e in &self.extensions {
            assert!(
                e.data.len() <= u16::MAX as usize,
                "extension {:#06x} body exceeds the u16 wire limit",
                e.ext_type
            );
        }
        let mut w = Writer::new();
        w.put_u8(HS_CLIENT_HELLO);
        let hs_len = w.reserve_len(3);
        w.put_u16(self.version);
        w.put_bytes(&self.random);
        w.put_u8(self.session_id.len() as u8);
        w.put_bytes(&self.session_id);
        w.put_u16((self.cipher_suites.len() * 2) as u16);
        for cs in &self.cipher_suites {
            w.put_u16(*cs);
        }
        w.put_u8(self.compression.len() as u8);
        w.put_bytes(&self.compression);
        let ext_len = w.reserve_len(2);
        for e in &self.extensions {
            w.put_u16(e.ext_type);
            w.put_u16(e.data.len() as u16);
            w.put_bytes(&e.data);
        }
        w.patch_len(ext_len);
        w.patch_len(hs_len);
        w.into_bytes()
    }

    /// Serialize as a complete TLS record — what a TCP observer sees as the
    /// first client payload of an HTTPS flow.
    ///
    /// # Panics
    /// As [`ClientHello::encode_handshake`], plus when the whole handshake
    /// exceeds the record layer's u16 length field.
    pub fn encode(&self) -> Vec<u8> {
        let hs = self.encode_handshake();
        assert!(
            hs.len() <= u16::MAX as usize,
            "handshake exceeds a single record's u16 length"
        );
        let mut w = Writer::new();
        w.put_u8(CONTENT_HANDSHAKE);
        w.put_u16(LEGACY_RECORD_VERSION);
        w.put_u16(hs.len() as u16);
        w.put_bytes(&hs);
        w.into_bytes()
    }

    /// Parse a complete TLS record containing a ClientHello.
    pub fn parse(record: &[u8]) -> Result<Self, ParseError> {
        let mut r = Reader::new(record);
        let content = r.u8()?;
        if content != CONTENT_HANDSHAKE {
            return Err(ParseError::WrongType);
        }
        let rec_version = r.u16()?;
        if rec_version >> 8 != 0x03 {
            return Err(ParseError::UnsupportedVersion);
        }
        let rec_len = r.u16()? as usize;
        Ok(HelloView::parse_handshake(r.take(rec_len)?)?.to_owned())
    }

    /// Parse a bare handshake message (as carried in QUIC CRYPTO frames).
    pub fn parse_handshake(bytes: &[u8]) -> Result<Self, ParseError> {
        Ok(HelloView::parse_handshake(bytes)?.to_owned())
    }
}

/// Read one `type, length, body` extension off the front of a block.
fn read_extension<'a>(e: &mut Reader<'a>) -> Result<(u16, &'a [u8]), ParseError> {
    let ext_type = e.u16()?;
    let len = e.u16()? as usize;
    Ok((ext_type, e.take(len)?))
}

/// A strictly checked ClientHello whose fields borrow from the handshake
/// bytes: the one place the strict checks live. [`ClientHello::parse`] and
/// [`ClientHello::parse_handshake`] are its [`to_owned`](Self::to_owned);
/// the QUIC observer path reads [`sni`](Self::sni) and copies nothing.
pub(crate) struct HelloView<'a> {
    version: u16,
    random: [u8; 32],
    session_id: &'a [u8],
    /// Big-endian `u16`s; the length is checked even.
    cipher_suites: &'a [u8],
    compression: &'a [u8],
    /// The extension block, every extension's framing checked.
    extensions: &'a [u8],
}

impl<'a> HelloView<'a> {
    /// Check a bare handshake message, all of `bytes`.
    pub(crate) fn parse_handshake(bytes: &'a [u8]) -> Result<Self, ParseError> {
        let mut r = Reader::new(bytes);
        let msg_type = r.u8()?;
        if msg_type != HS_CLIENT_HELLO {
            return Err(ParseError::NotClientHello);
        }
        let body_len = r.u24()? as usize;
        let mut b = r.sub(body_len)?;
        let version = b.u16()?;
        if version >> 8 != 0x03 {
            return Err(ParseError::UnsupportedVersion);
        }
        let mut random = [0u8; 32];
        random.copy_from_slice(b.take(32)?);
        let sid_len = b.u8()? as usize;
        if sid_len > 32 {
            return Err(ParseError::BadLength);
        }
        let session_id = b.take(sid_len)?;
        let cs_len = b.u16()? as usize;
        if !cs_len.is_multiple_of(2) {
            return Err(ParseError::BadLength);
        }
        let cipher_suites = b.take(cs_len)?;
        let comp_len = b.u8()? as usize;
        let compression = b.take(comp_len)?;
        let mut extensions: &[u8] = &[];
        if !b.is_empty() {
            let ext_total = b.u16()? as usize;
            extensions = b.take(ext_total)?;
            // Every extension is framed, also those after `server_name`.
            let mut e = Reader::new(extensions);
            while !e.is_empty() {
                read_extension(&mut e)?;
            }
            if !b.is_empty() {
                return Err(ParseError::TrailingBytes);
            }
        }
        if !r.is_empty() {
            return Err(ParseError::TrailingBytes);
        }
        Ok(Self {
            version,
            random,
            session_id,
            cipher_suites,
            compression,
            extensions,
        })
    }

    /// The extensions in wire order.
    fn extensions(&self) -> impl Iterator<Item = (u16, &'a [u8])> {
        let mut e = Reader::new(self.extensions);
        // The framing was checked, so the walk ends with the block.
        std::iter::from_fn(move || read_extension(&mut e).ok())
    }

    /// What [`ClientHello::sni`] answers: the first `server_name`
    /// extension's host name, `None` also when that extension is malformed.
    pub(crate) fn sni(&self) -> Option<&'a str> {
        self.extensions()
            .find(|(ext_type, _)| *ext_type == ext::SERVER_NAME)
            .and_then(|(_, data)| parse_sni_extension(data).ok().flatten())
    }

    fn to_owned(&self) -> ClientHello {
        ClientHello {
            version: self.version,
            random: self.random,
            session_id: self.session_id.to_vec(),
            cipher_suites: self
                .cipher_suites
                .chunks_exact(2)
                .map(|cs| u16::from_be_bytes([cs[0], cs[1]]))
                .collect(),
            compression: self.compression.to_vec(),
            extensions: self
                .extensions()
                .map(|(ext_type, data)| Extension {
                    ext_type,
                    data: data.to_vec(),
                })
                .collect(),
        }
    }
}

/// Encode the body of a `server_name` extension (RFC 6066 §3).
pub fn encode_sni_extension(server_name: &str) -> Vec<u8> {
    let mut w = Writer::new();
    let list_len = w.reserve_len(2);
    w.put_u8(0); // name_type = host_name
    w.put_u16(server_name.len() as u16);
    w.put_bytes(server_name.as_bytes());
    w.patch_len(list_len);
    w.into_bytes()
}

/// Parse the body of a `server_name` extension; returns the first
/// `host_name` entry.
pub fn parse_sni_extension(data: &[u8]) -> Result<Option<&str>, ParseError> {
    let mut r = Reader::new(data);
    let list_len = r.u16()? as usize;
    let mut l = r.sub(list_len)?;
    while !l.is_empty() {
        let name_type = l.u8()?;
        let len = l.u16()? as usize;
        let name = l.take(len)?;
        if name_type == 0 {
            let s = std::str::from_utf8(name).map_err(|_| ParseError::InvalidHostname)?;
            if !s.bytes().all(|b| b.is_ascii_graphic()) {
                return Err(ParseError::InvalidHostname);
            }
            return Ok(Some(s));
        }
    }
    Ok(None)
}

/// The observer's zero-copy fast path: walk a TLS record and return the SNI
/// hostname as a slice borrowed from the input buffer.
///
/// ```
/// use hostprof_net::tls::{ClientHello, extract_sni};
/// let record = ClientHello::for_hostname("booking.com").encode();
/// assert_eq!(extract_sni(&record).unwrap(), Some("booking.com"));
/// ```
///
/// Returns `Ok(None)` for well-formed ClientHellos without a readable
/// `server_name` (e.g. ECH), and an error for anything that is not a
/// ClientHello record.
pub fn extract_sni(record: &[u8]) -> Result<Option<&str>, ParseError> {
    let mut r = Reader::new(record);
    if r.u8()? != CONTENT_HANDSHAKE {
        return Err(ParseError::WrongType);
    }
    if r.u16()? >> 8 != 0x03 {
        return Err(ParseError::UnsupportedVersion);
    }
    let rec_len = r.u16()? as usize;
    let mut hs = r.sub(rec_len)?;
    if hs.u8()? != HS_CLIENT_HELLO {
        return Err(ParseError::NotClientHello);
    }
    let body_len = hs.u24()? as usize;
    let mut b = hs.sub(body_len)?;
    b.u16()?; // version
    b.take(32)?; // random
    let sid = b.u8()? as usize;
    b.take(sid)?;
    let cs = b.u16()? as usize;
    b.take(cs)?;
    let comp = b.u8()? as usize;
    b.take(comp)?;
    if b.is_empty() {
        return Ok(None);
    }
    let ext_total = b.u16()? as usize;
    let mut e = b.sub(ext_total)?;
    while !e.is_empty() {
        let (ext_type, data) = read_extension(&mut e)?;
        if ext_type == ext::SERVER_NAME {
            return parse_sni_extension(data);
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_everything() {
        let ch = ClientHello::for_hostname("booking.com");
        let bytes = ch.encode();
        let back = ClientHello::parse(&bytes).unwrap();
        assert_eq!(ch, back);
        assert_eq!(back.sni(), Some("booking.com"));
    }

    #[test]
    fn handshake_roundtrip_without_record_layer() {
        let ch = ClientHello::for_hostname("api.bkng.azureish.com");
        let hs = ch.encode_handshake();
        let back = ClientHello::parse_handshake(&hs).unwrap();
        assert_eq!(back.sni(), Some("api.bkng.azureish.com"));
    }

    #[test]
    fn extract_sni_matches_full_parse_and_borrows() {
        let ch = ClientHello::for_hostname("espn.com");
        let bytes = ch.encode();
        let sni = extract_sni(&bytes).unwrap().unwrap();
        assert_eq!(sni, "espn.com");
        // Borrowed from input: pointer lies inside `bytes`.
        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(range.contains(&(sni.as_ptr() as usize)));
    }

    #[test]
    fn ech_hides_the_hostname() {
        let ch = ClientHello::with_ech(64);
        assert_eq!(ch.sni(), None);
        let bytes = ch.encode();
        assert_eq!(extract_sni(&bytes).unwrap(), None);
    }

    #[test]
    fn non_handshake_records_are_rejected() {
        let ch = ClientHello::for_hostname("x.com");
        let mut bytes = ch.encode();
        bytes[0] = 23; // application_data
        assert_eq!(ClientHello::parse(&bytes), Err(ParseError::WrongType));
        assert_eq!(extract_sni(&bytes), Err(ParseError::WrongType));
    }

    #[test]
    fn truncation_never_panics_and_errors() {
        let ch = ClientHello::for_hostname("truncation-victim.example");
        let bytes = ch.encode();
        for cut in 0..bytes.len() {
            let r = ClientHello::parse(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
            let _ = extract_sni(&bytes[..cut]);
        }
    }

    #[test]
    fn server_hello_like_message_is_not_client_hello() {
        let ch = ClientHello::for_hostname("x.com");
        let mut bytes = ch.encode();
        bytes[5] = 2; // handshake type = ServerHello
        assert_eq!(ClientHello::parse(&bytes), Err(ParseError::NotClientHello));
    }

    #[test]
    fn deterministic_random_per_hostname() {
        let a = ClientHello::for_hostname("a.com");
        let b = ClientHello::for_hostname("a.com");
        let c = ClientHello::for_hostname("b.com");
        assert_eq!(a.random, b.random);
        assert_ne!(a.random, c.random);
    }

    #[test]
    fn sni_extension_with_non_ascii_is_invalid() {
        let mut body = encode_sni_extension("ok.com");
        let n = body.len();
        body[n - 1] = 0xff;
        assert_eq!(parse_sni_extension(&body), Err(ParseError::InvalidHostname));
    }

    #[test]
    #[should_panic(expected = "session_id exceeds")]
    fn oversized_session_id_panics_instead_of_misframing() {
        let mut ch = ClientHello::for_hostname("x.com");
        ch.session_id = vec![0; 300];
        let _ = ch.encode();
    }

    #[test]
    #[should_panic(expected = "u16 wire limit")]
    fn oversized_extension_panics_instead_of_misframing() {
        let mut ch = ClientHello::for_hostname("x.com");
        ch.extensions.push(Extension {
            ext_type: 0x1234,
            data: vec![0; 70_000],
        });
        let _ = ch.encode();
    }

    #[test]
    fn trailing_bytes_after_record_are_rejected() {
        let ch = ClientHello::for_hostname("x.com");
        let hs = ch.encode_handshake();
        let mut bytes = Vec::new();
        bytes.push(22);
        bytes.extend_from_slice(&0x0301u16.to_be_bytes());
        bytes.extend_from_slice(&((hs.len() + 1) as u16).to_be_bytes());
        bytes.extend_from_slice(&hs);
        bytes.push(0);
        assert_eq!(ClientHello::parse(&bytes), Err(ParseError::TrailingBytes));
    }
}
