//! The flat byte layout: aligned little-endian sections behind a small
//! table of contents.
//!
//! Both [`TraceColumns`](crate::TraceColumns) and the embedding store
//! persist through this container. The design goals are the ones that
//! matter for memory-mapped use:
//!
//! * every section payload starts at an 8-byte-aligned offset from the
//!   start of the buffer, so a future zero-copy reader can cast typed
//!   columns straight out of an mmap;
//! * fixed-width little-endian encoding, no varints, no compression —
//!   offsets are computable without touching payload bytes;
//! * a leading magic + section count, then `(tag, byte length)` headers,
//!   so unknown sections are skippable and truncation is detectable.
//!
//! Sections come in two shapes: a column of fixed-width values (`u32`,
//! `u64`, `f32`, `f64` through their `to_le_bytes` / `from_le_bytes`,
//! floats as exact bit patterns) and a string table — a UTF-8 arena
//! section plus a `u32` offsets section, `offsets[i]..offsets[i + 1]`
//! bounding string `i`.
//!
//! The safe reader here copies values out (`Vec<u32>` etc.) and checks
//! every offset it slices by, so a corrupt buffer is an error, never a
//! panic; the layout is what makes the zero-copy upgrade possible without
//! a format change.

/// Container magic: identifies the format and its version.
pub const MAGIC: [u8; 8] = *b"HPFLAT1\0";

/// Errors a [`FlatReader`] can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatError {
    /// Buffer does not start with [`MAGIC`].
    BadMagic,
    /// Buffer ends before a declared header or payload.
    Truncated,
    /// A section payload length is not a multiple of its element width.
    BadSectionLen {
        /// Section tag.
        tag: u32,
        /// Payload length found.
        len: usize,
        /// Element width expected to divide it.
        elem: usize,
    },
    /// A required section is absent.
    MissingSection(u32),
    /// A section's values contradict the rest of the container: an offset
    /// out of order or off a char boundary, an id past its table, a
    /// repeated name, a total that does not add up.
    Inconsistent(u32),
}

impl std::fmt::Display for FlatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlatError::BadMagic => write!(f, "not a flat container (bad magic)"),
            FlatError::Truncated => write!(f, "flat container truncated"),
            FlatError::BadSectionLen { tag, len, elem } => {
                write!(f, "section {tag:#x}: length {len} not a multiple of {elem}")
            }
            FlatError::MissingSection(tag) => write!(f, "section {tag:#x} missing"),
            FlatError::Inconsistent(tag) => {
                write!(f, "section {tag:#x} inconsistent with the container")
            }
        }
    }
}

impl std::error::Error for FlatError {}

fn pad8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// Serializes tagged sections into one aligned buffer.
#[derive(Debug, Default)]
pub struct FlatWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl FlatWriter {
    /// An empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a raw byte section.
    pub fn section(&mut self, tag: u32, bytes: Vec<u8>) -> &mut Self {
        self.sections.push((tag, bytes));
        self
    }

    /// Append a column of `N`-byte values, each encoded by `encode`
    /// (`u32::to_le_bytes`, …).
    pub fn column<T: Copy, const N: usize>(
        &mut self,
        tag: u32,
        values: &[T],
        encode: impl Fn(T) -> [u8; N],
    ) -> &mut Self {
        let mut b = Vec::with_capacity(values.len() * N);
        for &v in values {
            b.extend_from_slice(&encode(v));
        }
        self.section(tag, b)
    }

    /// Append a string table: the strings back to back under `arena`,
    /// their `len + 1` boundaries as a `u32` column under `offsets`.
    pub fn strings<'s>(
        &mut self,
        arena: u32,
        offsets: u32,
        strings: impl IntoIterator<Item = &'s str>,
    ) -> &mut Self {
        let mut bytes = Vec::new();
        let mut offs = vec![0u32];
        for s in strings {
            bytes.extend_from_slice(s.as_bytes());
            offs.push(bytes.len() as u32);
        }
        self.section(arena, bytes)
            .column(offsets, &offs, u32::to_le_bytes)
    }

    /// Encode: magic, section count, headers, 8-aligned payloads.
    pub fn finish(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // keep headers 8-aligned
        for (tag, bytes) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        }
        for (_, bytes) in &self.sections {
            out.extend_from_slice(bytes);
            out.resize(pad8(out.len()), 0);
        }
        out
    }
}

/// Reads sections back out of a flat container.
#[derive(Debug)]
pub struct FlatReader<'a> {
    /// `(tag, payload)` in container order.
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> FlatReader<'a> {
    /// Parse the table of contents; payloads are borrowed, not copied.
    pub fn new(buf: &'a [u8]) -> Result<Self, FlatError> {
        // Magic, section count, 4 reserved bytes.
        let Some(&[ref magic @ .., c0, c1, c2, c3, _, _, _, _]) = buf.first_chunk::<16>() else {
            return Err(FlatError::Truncated);
        };
        if *magic != MAGIC {
            return Err(FlatError::BadMagic);
        }
        let count = u32::from_le_bytes([c0, c1, c2, c3]) as usize;
        let headers_end = count
            .checked_mul(16)
            .and_then(|n| n.checked_add(16))
            .filter(|&end| end <= buf.len())
            .ok_or(FlatError::Truncated)?;
        let mut sections = Vec::with_capacity(count);
        let mut offset = headers_end;
        for header in buf[16..headers_end].as_chunks::<16>().0 {
            // Tag, 4 reserved bytes, payload length.
            let [t0, t1, t2, t3, _, _, _, _, ref len @ ..] = *header;
            let tag = u32::from_le_bytes([t0, t1, t2, t3]);
            let payload = usize::try_from(u64::from_le_bytes(*len))
                .ok()
                .and_then(|len| buf.get(offset..offset.checked_add(len)?))
                .ok_or(FlatError::Truncated)?;
            sections.push((tag, payload));
            offset = pad8(offset + payload.len());
        }
        Ok(Self { sections })
    }

    /// Raw payload of the first section with `tag`.
    pub fn section(&self, tag: u32) -> Result<&'a [u8], FlatError> {
        let found = self.sections.iter().find(|(t, _)| *t == tag);
        found.map(|(_, b)| *b).ok_or(FlatError::MissingSection(tag))
    }

    /// Decode a column of `N`-byte values, each by `decode`
    /// (`u32::from_le_bytes`, …).
    pub fn column<T, const N: usize>(
        &self,
        tag: u32,
        decode: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, FlatError> {
        let b = self.section(tag)?;
        let (values, rest) = b.as_chunks::<N>();
        if !rest.is_empty() {
            return Err(FlatError::BadSectionLen {
                tag,
                len: b.len(),
                elem: N,
            });
        }
        Ok(values.iter().map(|&v| decode(v)).collect())
    }

    /// Decode a string table written by [`FlatWriter::strings`]. The arena
    /// must be UTF-8, and the offsets must start at 0, never decrease, end
    /// at the arena's length and fall on char boundaries; otherwise the
    /// offending section is [`FlatError::Inconsistent`].
    pub fn strings(&self, arena: u32, offsets: u32) -> Result<Vec<&'a str>, FlatError> {
        let text = std::str::from_utf8(self.section(arena)?)
            .map_err(|_| FlatError::Inconsistent(arena))?;
        let offs = self.column(offsets, u32::from_le_bytes)?;
        if offs.first() != Some(&0) || offs.last().map(|&o| o as usize) != Some(text.len()) {
            return Err(FlatError::Inconsistent(offsets));
        }
        offs.windows(2)
            .map(|w| {
                text.get(w[0] as usize..w[1] as usize)
                    .ok_or(FlatError::Inconsistent(offsets))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_typed_sections() {
        let mut w = FlatWriter::new();
        w.column(1, &[7u32, 8, 9], u32::to_le_bytes)
            .column(2, &[u64::MAX, 0], u64::to_le_bytes)
            .column(3, &[1.5f32, -0.0, f32::NAN], f32::to_le_bytes)
            .strings(4, 5, ["hello.example", "", "é.example"]);
        let buf = w.finish();
        let r = FlatReader::new(&buf).unwrap();
        assert_eq!(r.column(1, u32::from_le_bytes).unwrap(), [7, 8, 9]);
        assert_eq!(r.column(2, u64::from_le_bytes).unwrap(), [u64::MAX, 0]);
        let f = r.column(3, f32::from_le_bytes).unwrap();
        assert_eq!(f[0].to_bits(), 1.5f32.to_bits());
        assert_eq!(f[1].to_bits(), (-0.0f32).to_bits());
        assert!(f[2].is_nan());
        assert_eq!(r.strings(4, 5).unwrap(), ["hello.example", "", "é.example"]);
        assert_eq!(r.section(99), Err(FlatError::MissingSection(99)));
    }

    #[test]
    fn payloads_are_eight_aligned() {
        let mut w = FlatWriter::new();
        w.section(1, b"abc".to_vec()) // 3 bytes: forces padding before next
            .column(2, &[42u64], u64::to_le_bytes);
        let buf = w.finish();
        // Find section 2's payload offset the way the reader does and
        // check alignment relative to the buffer start.
        let headers_end = 16 + 2 * 16;
        let s1_len = 3usize;
        let s2_off = (headers_end + s1_len).div_ceil(8) * 8;
        assert_eq!(s2_off % 8, 0);
        assert_eq!(&buf[s2_off..s2_off + 8], &42u64.to_le_bytes());
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert_eq!(FlatReader::new(b"short").unwrap_err(), FlatError::Truncated);
        let mut bad = FlatWriter::new()
            .column(1, &[1u32], u32::to_le_bytes)
            .finish();
        bad[0] = b'X';
        assert_eq!(FlatReader::new(&bad).unwrap_err(), FlatError::BadMagic);
        let good = FlatWriter::new()
            .column(1, &[1u32, 2, 3], u32::to_le_bytes)
            .finish();
        assert_eq!(
            FlatReader::new(&good[..good.len() - 8]).unwrap_err(),
            FlatError::Truncated
        );
    }

    #[test]
    fn wrong_element_width_is_detected() {
        let buf = FlatWriter::new().section(5, b"abc".to_vec()).finish();
        let r = FlatReader::new(&buf).unwrap();
        assert!(matches!(
            r.column(5, u32::from_le_bytes).unwrap_err(),
            FlatError::BadSectionLen {
                tag: 5,
                len: 3,
                elem: 4
            }
        ));
        assert!(matches!(
            r.column(5, u64::from_le_bytes).unwrap_err(),
            FlatError::BadSectionLen { .. }
        ));
    }

    #[test]
    fn missing_required_section_is_an_error() {
        let buf = FlatWriter::new()
            .column(1, &[1u32], u32::to_le_bytes)
            .finish();
        let r = FlatReader::new(&buf).unwrap();
        assert_eq!(
            r.column(2, u64::from_le_bytes).unwrap_err(),
            FlatError::MissingSection(2)
        );
    }

    /// The string table with arena `arena` (section 1) and offsets `offs`
    /// (section 2), decoded.
    fn table(arena: &[u8], offs: &[u32]) -> Result<Vec<String>, FlatError> {
        let buf = FlatWriter::new()
            .section(1, arena.to_vec())
            .column(2, offs, u32::to_le_bytes)
            .finish();
        let strings = FlatReader::new(&buf)?.strings(1, 2)?;
        Ok(strings.into_iter().map(String::from).collect())
    }

    #[test]
    fn string_table_offsets_are_checked() {
        assert_eq!(table(b"abcd", &[0, 1, 1, 4]).unwrap(), ["a", "", "bcd"]);
        assert_eq!(table("aéb".as_bytes(), &[0, 3, 4]).unwrap(), ["aé", "b"]);
        assert_eq!(table(b"", &[0]).unwrap(), Vec::<String>::new());
        for (arena, offs) in [
            ("abcd", &[0, 3, 1, 4][..]), // decreasing
            ("abcd", &[0, 9, 4]),        // past the arena
            ("abcd", &[0, 2]),           // short of the arena's end
            ("aéb", &[0, 2, 4]),         // inside the two bytes of "é"
            ("abcd", &[1, 4]),           // first offset not 0
            ("abcd", &[]),               // no first offset
        ] {
            let err = table(arena.as_bytes(), offs).unwrap_err();
            assert_eq!(err, FlatError::Inconsistent(2), "{arena:?} {offs:?}");
        }
        let err = table(&[0xff, 0xfe], &[0, 2]).unwrap_err();
        assert_eq!(err, FlatError::Inconsistent(1), "not UTF-8");
    }
}
