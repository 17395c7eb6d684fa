//! The one on-disk format of a trained model.
//!
//! An [`EmbeddingSet`] is written into the same mmap-friendly flat
//! container (`hostprof-store::flat`, `HPFLAT1\0`, DESIGN.md §13) the
//! columnar trace store uses: aligned little-endian sections, vectors as
//! raw f32 bit patterns, the vocabulary as one string table. Round-trips
//! are bit-identical — norms and the unit-norm view are derived state and
//! rebuilt on load.
//!
//! The decoder checks everything a caller indexes by: `vocab × dim` must
//! not overflow and must be the matrix's length, the string table's
//! offsets must be in order and on char boundaries, no token may repeat,
//! and the counts must sum to the stored total. A corrupt or truncated
//! buffer is a [`FlatError`], never a panic and never a model that panics
//! later.

use crate::embedding::EmbeddingSet;
use crate::vocab::Vocab;
use hostprof_store::{FlatError, FlatReader, FlatWriter};

mod tag {
    pub const META: u32 = 0x454d_4254; // dim, vocab len, total_count
    pub const TOKENS: u32 = 0x544f_4b53; // concatenated token arena
    pub const TOKEN_OFFS: u32 = 0x544f_4646; // arena offsets, len + 1
    pub const COUNTS: u32 = 0x434e_5453; // corpus counts, u64
    pub const KEEP: u32 = 0x4b45_4550; // keep probabilities, f64 bits
    pub const VECTORS: u32 = 0x5645_4354; // row-major matrix, f32 bits
}

/// Encode an embedding set into one flat buffer.
pub fn to_flat_bytes(set: &EmbeddingSet) -> Vec<u8> {
    let vocab = set.vocab();
    let vectors: Vec<f32> = (0..vocab.len() as u32)
        .flat_map(|i| set.vector_by_index(i).iter().copied())
        .collect();
    let mut w = FlatWriter::new();
    let meta = [set.dim() as u64, vocab.len() as u64, vocab.total_count()];
    w.column(tag::META, &meta, u64::to_le_bytes)
        .strings(tag::TOKENS, tag::TOKEN_OFFS, vocab.iter().map(|(_, t)| t))
        .column(tag::COUNTS, vocab.counts(), u64::to_le_bytes)
        .column(tag::KEEP, vocab.keep_probs(), f64::to_le_bytes)
        .column(tag::VECTORS, &vectors, f32::to_le_bytes);
    w.finish()
}

/// Decode a buffer produced by [`to_flat_bytes`].
pub fn from_flat_bytes(buf: &[u8]) -> Result<EmbeddingSet, FlatError> {
    let r = FlatReader::new(buf)?;
    let meta = r.column(tag::META, u64::from_le_bytes)?;
    let [dim, vlen, total_count] = meta[..] else {
        return Err(FlatError::BadSectionLen {
            tag: tag::META,
            len: meta.len(),
            elem: 3,
        });
    };
    let shape = |n: u64| usize::try_from(n).map_err(|_| FlatError::Inconsistent(tag::META));
    let (dim, vlen) = (shape(dim)?, shape(vlen)?);
    let floats = vlen
        .checked_mul(dim)
        .ok_or(FlatError::Inconsistent(tag::META))?;
    let tokens = r.strings(tag::TOKENS, tag::TOKEN_OFFS)?;
    let counts = r.column(tag::COUNTS, u64::from_le_bytes)?;
    let keep = r.column(tag::KEEP, f64::from_le_bytes)?;
    let vectors = r.column(tag::VECTORS, f32::from_le_bytes)?;
    if tokens.len() != vlen || counts.len() != vlen || keep.len() != vlen || vectors.len() != floats
    {
        return Err(FlatError::Truncated);
    }
    if counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c)) != Some(total_count) {
        return Err(FlatError::Inconsistent(tag::COUNTS));
    }
    let tokens = tokens.into_iter().map(String::from).collect();
    let vocab = Vocab::from_parts(tokens, counts, keep, total_count)
        .ok_or(FlatError::Inconsistent(tag::TOKENS))?;
    Ok(EmbeddingSet::new(dim, vocab, vectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkipGramConfig;
    use crate::model::SkipGram;

    fn trained() -> EmbeddingSet {
        let seqs: Vec<Vec<String>> = (0..30)
            .map(|i| {
                (0..8)
                    .map(|j| format!("h{}.example", (i * 3 + j) % 12))
                    .collect()
            })
            .collect();
        let cfg = SkipGramConfig {
            dim: 8,
            epochs: 2,
            ..SkipGramConfig::default()
        };
        SkipGram::train(&seqs, &cfg).unwrap().into_embeddings()
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let e = trained();
        let buf = to_flat_bytes(&e);
        let back = from_flat_bytes(&buf).unwrap();
        assert_eq!(back.dim(), e.dim());
        assert_eq!(back.len(), e.len());
        for i in 0..e.len() as u32 {
            assert_eq!(back.vocab().token(i), e.vocab().token(i));
            assert_eq!(back.vocab().count(i), e.vocab().count(i));
            assert_eq!(back.vocab().keep_prob(i), e.vocab().keep_prob(i));
            let (a, b) = (e.vector_by_index(i), back.vector_by_index(i));
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Query behavior identical: same kNN bits.
        let q = e.vector_by_index(0).to_vec();
        let ra = e.nearest_to_vector(&q, 5);
        let rb = back.nearest_to_vector(&q, 5);
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
        // Deterministic encoding.
        assert_eq!(to_flat_bytes(&back), buf);
    }

    /// Every prefix and every single-bit flip of a model decodes to an
    /// error or to a model whose accessors stay in range: every token maps
    /// back to its own row, and a search from row 0 runs.
    #[test]
    fn corrupt_buffers_error_cleanly() {
        let buf = to_flat_bytes(&trained());
        let walk = |bytes: &[u8]| -> bool {
            let Ok(e) = from_flat_bytes(bytes) else {
                return false;
            };
            for i in 0..e.len() as u32 {
                assert_eq!(e.vocab().get(e.vocab().token(i)), Some(i));
            }
            if !e.is_empty() {
                e.nearest_to_vector(e.vector_by_index(0), 5);
            }
            true
        };
        assert!(walk(&buf));
        for len in 0..buf.len() {
            assert!(!walk(&buf[..len]), "a {len}-byte prefix decoded");
        }
        let mut decoded = 0;
        for bit in 0..buf.len() * 8 {
            let mut flipped = buf.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            decoded += walk(&flipped) as usize;
        }
        // Flips in vectors, keep probabilities and padding decode.
        assert!(decoded > 0 && decoded < buf.len() * 8, "{decoded} decoded");
    }
}
