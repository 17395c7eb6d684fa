//! DNS query codec.
//!
//! §7.2 of the paper: "A DNS provider may actually act as a profiler since
//! it learns the hostnames requested by a user via DNS requests." To model
//! that observer position, the traffic synthesizer can emit a plaintext DNS
//! query ahead of each connection, and [`extract_qname`] recovers the
//! hostname exactly as a resolver (or an on-path eavesdropper, absent
//! DoH/DoT) would.

use crate::error::ParseError;
use crate::wire::{Reader, Writer};

/// Query type codes.
pub mod qtype {
    /// IPv4 address record.
    pub const A: u16 = 1;
    /// IPv6 address record.
    pub const AAAA: u16 = 28;
    /// HTTPS service binding (increasingly sent alongside A/AAAA).
    pub const HTTPS: u16 = 65;
}

/// A DNS question-only message (standard query, one question).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuery {
    /// Transaction id.
    pub id: u16,
    /// Queried name, dotted form, no trailing dot.
    pub qname: String,
    /// Query type (see [`qtype`]).
    pub qtype: u16,
}

impl DnsQuery {
    /// An A query with a transaction id derived from the name (keeps
    /// synthesis deterministic).
    pub fn for_hostname(hostname: &str) -> Self {
        let mut id = 0x5a5au16;
        for b in hostname.bytes() {
            id = id.rotate_left(3) ^ b as u16;
        }
        Self {
            id,
            qname: hostname.to_ascii_lowercase(),
            qtype: qtype::A,
        }
    }

    /// Serialize to wire bytes (RFC 1035 §4).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u16(self.id);
        w.put_u16(0x0100); // flags: standard query, RD
        w.put_u16(1); // QDCOUNT
        w.put_u16(0); // ANCOUNT
        w.put_u16(0); // NSCOUNT
        w.put_u16(0); // ARCOUNT
        for label in self.qname.split('.') {
            debug_assert!(!label.is_empty() && label.len() < 64);
            w.put_u8(label.len() as u8);
            w.put_bytes(label.as_bytes());
        }
        w.put_u8(0); // root label
        w.put_u16(self.qtype);
        w.put_u16(1); // QCLASS = IN
        w.into_bytes()
    }

    /// Parse a query message.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        let mut qname = String::new();
        let (id, qtype) = walk(bytes, &mut qname)?;
        Ok(Self { id, qname, qtype })
    }
}

/// The one walk over a query message: checks the header, writes the
/// question's name into `qname` in dotted form (replacing what it held),
/// and returns the transaction id and query type.
fn walk(bytes: &[u8], qname: &mut String) -> Result<(u16, u16), ParseError> {
    qname.clear();
    let mut r = Reader::new(bytes);
    let id = r.u16()?;
    let flags = r.u16()?;
    if flags & 0x8000 != 0 {
        return Err(ParseError::NotAQuery); // QR bit set → response
    }
    if (flags >> 11) & 0xf != 0 {
        return Err(ParseError::NotAQuery); // opcode != QUERY
    }
    let qdcount = r.u16()?;
    if qdcount != 1 {
        return Err(ParseError::NotAQuery);
    }
    r.u16()?; // ANCOUNT
    r.u16()?; // NSCOUNT
    r.u16()?; // ARCOUNT
    let mut labels = 0usize;
    loop {
        let len = r.u8()? as usize;
        if len == 0 {
            break;
        }
        if len >= 64 {
            // Compression pointers never appear in the question section
            // of a freshly built query.
            return Err(ParseError::BadLength);
        }
        let raw = r.take(len)?;
        let s = std::str::from_utf8(raw).map_err(|_| ParseError::InvalidHostname)?;
        if !s.bytes().all(|b| b.is_ascii_graphic()) {
            return Err(ParseError::InvalidHostname);
        }
        if labels > 0 {
            qname.push('.');
        }
        qname.push_str(s);
        labels += 1;
    }
    if labels == 0 {
        return Err(ParseError::InvalidHostname);
    }
    let qtype = r.u16()?;
    let qclass = r.u16()?;
    if qclass != 1 {
        return Err(ParseError::NotAQuery);
    }
    Ok((id, qtype))
}

/// Observer fast path: the queried hostname of a DNS query datagram.
pub fn extract_qname(bytes: &[u8]) -> Result<String, ParseError> {
    let mut qname = String::new();
    qname_into(bytes, &mut qname)?;
    Ok(qname)
}

/// [`extract_qname`] into a caller's buffer: `out` is cleared and then
/// holds the name, so a reused buffer recovers a name without allocating.
/// On an error `out` holds whatever prefix of the name was read.
pub fn qname_into(bytes: &[u8], out: &mut String) -> Result<(), ParseError> {
    walk(bytes, out).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_query() {
        let q = DnsQuery::for_hostname("Mail.Google.COM");
        assert_eq!(q.qname, "mail.google.com");
        let bytes = q.encode();
        let back = DnsQuery::parse(&bytes).unwrap();
        assert_eq!(back, q);
        assert_eq!(extract_qname(&bytes).unwrap(), "mail.google.com");
    }

    #[test]
    fn responses_are_rejected() {
        let mut bytes = DnsQuery::for_hostname("a.com").encode();
        bytes[2] |= 0x80; // QR bit
        assert_eq!(DnsQuery::parse(&bytes), Err(ParseError::NotAQuery));
    }

    #[test]
    fn multi_question_messages_are_rejected() {
        let mut bytes = DnsQuery::for_hostname("a.com").encode();
        bytes[5] = 2; // QDCOUNT = 2
        assert_eq!(DnsQuery::parse(&bytes), Err(ParseError::NotAQuery));
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = DnsQuery::for_hostname("deep.sub.domain.example.org").encode();
        for cut in 0..bytes.len() {
            assert!(DnsQuery::parse(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn compression_pointer_in_question_is_rejected() {
        let mut bytes = DnsQuery::for_hostname("a.com").encode();
        bytes[12] = 0xc0; // pointer marker where a label length belongs
        assert_eq!(DnsQuery::parse(&bytes), Err(ParseError::BadLength));
    }

    #[test]
    fn transaction_ids_differ_across_names() {
        assert_ne!(
            DnsQuery::for_hostname("a.com").id,
            DnsQuery::for_hostname("b.com").id
        );
    }
}
