//! Byte-cursor helpers shared by the codecs.
//!
//! [`Reader`] is a bounds-checked, panic-free cursor over a byte slice;
//! [`Writer`] wraps a `Vec<u8>` with big-endian put helpers and deferred
//! length back-patching. Both are internal to the crate.

use crate::error::ParseError;

/// FNV-1a over a byte string — the crate's deterministic, dependency-free
/// hash for deriving reproducible wire artifacts (client randoms, server
/// addresses) from hostnames.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A bounds-checked cursor over `&[u8]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        if self.remaining() < n {
            return Err(ParseError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ParseError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ParseError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub(crate) fn u24(&mut self) -> Result<u32, ParseError> {
        let b = self.take(3)?;
        Ok(u32::from_be_bytes([0, b[0], b[1], b[2]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ParseError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consume the run of zero bytes at the cursor (possibly none), a word
    /// at a time: the run is ≈1 000 bytes in every padded QUIC Initial.
    pub(crate) fn skip_zeros(&mut self) {
        let rest = &self.buf[self.pos..];
        let words = rest.chunks_exact(8).take_while(|w| **w == [0u8; 8]).count();
        let tail = &rest[words * 8..];
        self.pos += words * 8 + tail.iter().position(|&b| b != 0).unwrap_or(tail.len());
    }

    /// Split off a child reader over the next `n` bytes.
    pub(crate) fn sub(&mut self, n: usize) -> Result<Reader<'a>, ParseError> {
        Ok(Reader::new(self.take(n)?))
    }
}

/// A big-endian byte builder.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub(crate) fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Reserve a length field of `width` bytes (1, 2 or 3); returns a
    /// marker to pass to [`Writer::patch_len`].
    pub(crate) fn reserve_len(&mut self, width: usize) -> LenMarker {
        let at = self.buf.len();
        self.buf.extend(std::iter::repeat_n(0, width));
        LenMarker { at, width }
    }

    /// Back-patch a reserved length field with the number of bytes written
    /// since the reservation.
    pub(crate) fn patch_len(&mut self, m: LenMarker) {
        let len = self.buf.len() - m.at - m.width;
        match m.width {
            1 => {
                debug_assert!(len < 1 << 8);
                self.buf[m.at] = len as u8;
            }
            2 => {
                debug_assert!(len < 1 << 16);
                self.buf[m.at..m.at + 2].copy_from_slice(&(len as u16).to_be_bytes());
            }
            3 => {
                debug_assert!(len < 1 << 24);
                self.buf[m.at..m.at + 3].copy_from_slice(&(len as u32).to_be_bytes()[1..]);
            }
            _ => unreachable!("unsupported length width"),
        }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Kept for codec symmetry; encoders currently track lengths on the
    /// produced `Vec<u8>` instead.
    #[allow(dead_code)]
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }
}

/// Marker returned by [`Writer::reserve_len`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct LenMarker {
    at: usize,
    width: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_roundtrips_integers() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(0x0102);
        w.put_bytes(&[3, 4, 5]);
        w.put_u32(0x06070809);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x0102);
        assert_eq!(r.u24().unwrap(), 0x030405);
        assert_eq!(r.u32().unwrap(), 0x06070809);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_errors_instead_of_panicking() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(ParseError::Truncated));
        // Failed read consumes nothing.
        assert_eq!(r.u16().unwrap(), 0x0102);
    }

    #[test]
    fn sub_reader_is_bounded() {
        let buf = [1, 2, 3, 4];
        let mut r = Reader::new(&buf);
        let mut s = r.sub(2).unwrap();
        assert_eq!(s.u16().unwrap(), 0x0102);
        assert_eq!(s.u8(), Err(ParseError::Truncated));
        assert_eq!(r.u16().unwrap(), 0x0304);
    }

    #[test]
    fn skip_zeros_stops_at_the_first_nonzero_byte() {
        // Runs shorter and longer than a word, ending on and off a word
        // boundary, and the run that is the whole buffer.
        for zeros in [0, 1, 7, 8, 9, 16, 23, 1000] {
            let mut buf = vec![0u8; zeros];
            let mut all = Reader::new(&buf);
            all.skip_zeros();
            assert!(all.is_empty());
            buf.extend_from_slice(&[6, 0, 0]);
            let mut r = Reader::new(&buf);
            r.skip_zeros();
            assert_eq!(r.remaining(), 3, "after {zeros} zeros");
            assert_eq!(r.u8().unwrap(), 6);
        }
    }

    #[test]
    fn patch_len_backfills_all_widths() {
        let mut w = Writer::new();
        let m1 = w.reserve_len(1);
        w.put_bytes(b"abc");
        w.patch_len(m1);
        let m2 = w.reserve_len(2);
        w.put_bytes(b"de");
        w.patch_len(m2);
        let m3 = w.reserve_len(3);
        w.patch_len(m3);
        let b = w.into_bytes();
        assert_eq!(b[0], 3);
        assert_eq!(&b[1..4], b"abc");
        assert_eq!(u16::from_be_bytes([b[4], b[5]]), 2);
        assert_eq!(&b[6..8], b"de");
        assert_eq!(&b[8..11], &[0, 0, 0]);
    }
}
