//! Order-sensitive FNV-1a digests of the system's outputs.
//!
//! Floats are hashed by their bit patterns, so two digests are equal only
//! when the outputs are bit-identical: the comparison the repo's goldens
//! use, applied here to what a benchmark run produced.

use hostprof::profiling::{SessionProfile, TickReport};

/// A running FNV-1a 64 hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Presence, both counters, every category weight and the whole
    /// session vector of one profile.
    pub fn profile(&mut self, profile: Option<&SessionProfile>) {
        let Some(p) = profile else {
            self.u64(0);
            return;
        };
        self.u64(1);
        self.u64(p.labeled_in_session as u64);
        self.u64(p.labeled_neighbors as u64);
        self.u64(p.categories.len() as u64);
        for (id, w) in p.categories.iter() {
            self.u64((id.0 as u64) << 32 | w.to_bits() as u64);
        }
        self.u64(p.session_vector.len() as u64);
        for x in &p.session_vector {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The two digests a serving run keeps.
///
/// `full` covers every profile and the model version each tick used; it
/// must match between the engine and the layer-by-layer replay of the same
/// process. `windows` covers only what the windower decided (boundary,
/// user, anchor): it does not depend on which model version a racing
/// publisher had made loadable, so it is the one compared across processes
/// on `serve-update`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickDigest {
    pub full: Digest,
    pub windows: Digest,
}

impl TickDigest {
    pub fn tick(&mut self, tick: &TickReport) {
        for d in [&mut self.full, &mut self.windows] {
            d.u64(tick.boundary);
            d.u64(tick.entries.len() as u64);
        }
        self.full.u64(tick.model_seq);
        for e in &tick.entries {
            for d in [&mut self.full, &mut self.windows] {
                d.u64(e.user as u64);
                d.u64(e.anchor);
            }
            self.full.profile(e.profile.as_ref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        let mut c = Digest::default();
        for v in [1u64, 2, 3] {
            a.u64(v);
            b.u64(v);
        }
        for v in [1u64, 3, 2] {
            c.u64(v);
        }
        assert_eq!(a, b);
        assert_eq!(a.hex(), b.hex());
        assert_ne!(a, c);
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn digest_sees_a_one_bit_float_change() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(1.0);
        b.f64(f64::from_bits(1.0f64.to_bits() + 1));
        assert_ne!(a, b);
    }
}
