//! Naive SNI recovery from TLS ClientHello records (§4.1: the observer's
//! only hostname source).
//!
//! Deliberately simple byte walking with explicit offsets — no zero-copy
//! reader abstraction. Returns `Option<String>`: `None` means "no name
//! recoverable", collapsing absent (ECH, no extension), hidden, and
//! malformed/truncated inputs. The driver compares this against the
//! production parser with `Result::ok().flatten()` applied, i.e. the
//! property under test is *which hostname an observer writes down*, never
//! fabricating one from bytes the strict parser rejects.
//!
//! QUIC has no twin here: `hostprof-net`'s `tests/quic_walk.rs` holds
//! `extract_sni_from_quic` to an owned-parser twin down to the
//! `ParseError` variant, which is strictly stronger than a name-or-none
//! comparison. The tests below and [`crate::driver`]'s SNI stage check
//! only what the observer writes down from a QUIC Initial: the name, or
//! nothing from a cut.

/// Read a big-endian u16 at `at`, if in bounds.
fn be16(bytes: &[u8], at: usize) -> Option<usize> {
    let hi = *bytes.get(at)? as usize;
    let lo = *bytes.get(at + 1)? as usize;
    Some(hi << 8 | lo)
}

/// Extract the server name from one TLS record holding a ClientHello.
pub fn tls_sni(record: &[u8]) -> Option<String> {
    // Record header: type 22 (handshake), version major 0x03, length.
    if *record.first()? != 22 || *record.get(1)? != 0x03 {
        return None;
    }
    record.get(2)?; // version minor, any value
    let rec_len = be16(record, 3)?;
    let record = record.get(5..5 + rec_len)?;

    // Handshake header: type 1 (ClientHello), 24-bit body length.
    if *record.first()? != 1 {
        return None;
    }
    let body_len = (*record.get(1)? as usize) << 16
        | (*record.get(2)? as usize) << 8
        | *record.get(3)? as usize;
    let body = record.get(4..4 + body_len)?;

    // Fixed fields: version(2) random(32) session_id(1+n) suites(2+n)
    // compression(1+n).
    let mut at = 2 + 32;
    at += 1 + *body.get(at)? as usize;
    at += 2 + be16(body, at)?;
    at += 1 + *body.get(at)? as usize;

    // Extensions are optional: a body ending here simply has none.
    if at == body.len() {
        return None;
    }
    let ext_total = be16(body, at)?;
    let exts = body.get(at + 2..at + 2 + ext_total)?;
    sni_from_extensions(exts)
}

/// Walk a TLS extensions block for extension type 0 (server_name).
fn sni_from_extensions(exts: &[u8]) -> Option<String> {
    let mut at = 0;
    while at < exts.len() {
        let ext_type = be16(exts, at)?;
        let ext_len = be16(exts, at + 2)?;
        let data = exts.get(at + 4..at + 4 + ext_len)?;
        if ext_type == 0 {
            return sni_extension_name(data);
        }
        at += 4 + ext_len;
    }
    None
}

/// Decode the first DNS hostname entry of a server_name extension.
fn sni_extension_name(data: &[u8]) -> Option<String> {
    let list_len = be16(data, 0)?;
    let list = data.get(2..2 + list_len)?;
    let mut at = 0;
    while at < list.len() {
        let name_type = *list.get(at)?;
        let name_len = be16(list, at + 1)?;
        let name = list.get(at + 3..at + 3 + name_len)?;
        if name_type == 0 {
            let s = std::str::from_utf8(name).ok()?;
            if !s.bytes().all(|b| b.is_ascii_graphic()) {
                return None;
            }
            return Some(s.to_string());
        }
        at += 3 + name_len;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostprof_net::quic::{extract_sni_from_quic, InitialPacket};
    use hostprof_net::tls::ClientHello;

    #[test]
    fn recovers_name_from_encoded_hello() {
        let rec = ClientHello::for_hostname("shop.example.org").encode();
        assert_eq!(tls_sni(&rec).as_deref(), Some("shop.example.org"));
    }

    #[test]
    fn ech_hello_yields_no_name() {
        let rec = ClientHello::with_ech(128).encode();
        assert_eq!(tls_sni(&rec), None);
    }

    #[test]
    fn truncation_never_fabricates_a_name() {
        let rec = ClientHello::for_hostname("cdn.video.example").encode();
        for cut in 0..rec.len() {
            assert_eq!(tls_sni(&rec[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn recovers_name_from_quic_initial() {
        let pkt = InitialPacket::for_hostname("api.maps.example").encode();
        assert_eq!(
            extract_sni_from_quic(&pkt),
            Ok(Some("api.maps.example".into()))
        );
    }

    #[test]
    fn quic_truncation_never_fabricates() {
        let pkt = InitialPacket::for_hostname("api.maps.example").encode();
        // The packet is padded to 1200 bytes; any cut that drops CRYPTO
        // bytes (or splits the frame) must not produce a name. Cuts that
        // only strip trailing PADDING legitimately still parse.
        for cut in 0..60 {
            let got = extract_sni_from_quic(&pkt[..cut]).ok().flatten();
            assert_eq!(got, None, "cut at {cut}");
        }
    }
}
