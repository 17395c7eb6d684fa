//! The keyed fast hasher of the serve path's maps.
//!
//! std's `HashMap` hashes with SipHash-1-3: flood-resistant, and several
//! times the cost of the lookup itself for a 13-byte 5-tuple or a `u32`
//! client key. [`KeyedState`] replaces it on the two maps every packet
//! touches — the [`FlowTable`](crate::FlowTable)'s flows and the serving
//! windower's users — with one multiply-rotate round per word (the FxHash
//! round) started from a key drawn once per table from std's per-process
//! random source, exactly where `RandomState` draws its own.
//!
//! Two properties keep it safe to use on traffic an attacker shapes
//! (DESIGN.md §8.5):
//!
//! * **the key is secret and per process** — a chosen-5-tuple flood has to
//!   be computed against a key no packet reveals and no output depends on
//!   (no map this hasher keys is ever iterated into a result);
//! * **`finish` folds the high half into the low half** — a multiply
//!   carries a difference only upward, so without the fold keys that
//!   differ only in high bits (client IPs that differ only in their top
//!   16 bits) would share their low bits, which is what `hashbrown`
//!   indexes buckets by.

use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// FxHash's multiplier: odd, so every round is a bijection of the state.
const MUL: u64 = 0xf135_7aea_2e62_a9c5;

thread_local! {
    /// The key [`KeyedState::new`] hands out on this thread instead of a
    /// random one, inside [`with_fixed_key`].
    static FIXED_KEY: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Run `f` with every [`KeyedState`] created on this thread keyed by `key`.
///
/// For tests that hold output to being independent of the key, or that
/// need a reproducible bucket layout; serving never calls it.
pub fn with_fixed_key<R>(key: u64, f: impl FnOnce() -> R) -> R {
    let outer = FIXED_KEY.with(|k| k.replace(Some(key)));
    let out = f();
    FIXED_KEY.with(|k| k.set(outer));
    out
}

/// `BuildHasher` of the serve path's maps: a random key per table.
#[derive(Debug, Clone, Copy)]
pub struct KeyedState {
    key: u64,
}

impl KeyedState {
    /// A state with a fresh key from std's per-process random source (or
    /// the key of an enclosing [`with_fixed_key`]).
    pub fn new() -> Self {
        let key = FIXED_KEY
            .with(Cell::get)
            .unwrap_or_else(|| RandomState::new().hash_one(0x6b65_7965_6420_6878u64));
        Self { key }
    }
}

impl Default for KeyedState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    #[inline]
    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher { state: self.key }
    }
}

/// One FxHash round per word written, seeded with the table's key.
#[derive(Debug, Clone, Copy)]
pub struct KeyedHasher {
    state: u64,
}

impl KeyedHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for KeyedHasher {
    /// A byte per round: no key of the serve path hashes through here.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The state with its high half folded into its low half.
    #[inline]
    fn finish(&self) -> u64 {
        self.state ^ (self.state >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowKey;
    use crate::packet::{Endpoint, Transport};
    use std::hash::Hash;

    /// Buckets of a table with one bucket per flow, indexed by the low bits
    /// of the hash as `hashbrown` indexes them.
    const BUCKET_BITS: u32 = 16;

    fn key(src_ip: u32, sport: u16, dst_ip: u32) -> FlowKey {
        FlowKey {
            src: Endpoint::new(src_ip, sport),
            dst: Endpoint::new(dst_ip, 443),
            transport: Transport::Tcp,
        }
    }

    /// `(most keys in one bucket, share of buckets used)` for 2¹⁶ keys.
    fn spread<K: Hash>(state: &KeyedState, key_of: impl Fn(u32) -> K) -> (usize, f64) {
        let mut load = vec![0usize; 1 << BUCKET_BITS];
        for i in 0..1u32 << 16 {
            load[(state.hash_one(key_of(i)) & ((1 << BUCKET_BITS) - 1)) as usize] += 1;
        }
        let used = load.iter().filter(|&&n| n > 0).count();
        (
            load.iter().copied().max().unwrap_or(0),
            used as f64 / load.len() as f64,
        )
    }

    /// Structured flood families, 2¹⁶ keys each, into 2¹⁶ buckets: three
    /// of 5-tuples, and one of client keys as the windower's user map sees
    /// them. A random function gives a largest bucket of about 8 and uses
    /// 1 − 1/e ≈ 63 % of the buckets; the bound is a largest bucket of 16
    /// and 55 % of the buckets used. A client key is one word, one
    /// multiply, so without the fold in `finish` the high-IP clients would
    /// share their low 16 bits and all 2¹⁶ of them one bucket.
    #[test]
    fn structured_five_tuple_families_spread_across_buckets() {
        let bound = |what: &str, fixed: u64, (max_load, used): (usize, f64)| {
            assert!(
                max_load <= 16 && used >= 0.55,
                "key {fixed:#x}, {what}: largest bucket {max_load}, {:.1} % of buckets used",
                100.0 * used
            );
        };
        for fixed in [0u64, 0x0123_4567_89ab_cdef, u64::MAX] {
            let state = with_fixed_key(fixed, KeyedState::new);
            bound(
                "flows varying only the source port",
                fixed,
                spread(&state, |i| key(0x0a00_0001, i as u16, 0x0808_0808)),
            );
            bound(
                "flows varying only the high 16 bits of the source IP",
                fixed,
                spread(&state, |i| key((i << 16) | 0x0001, 40_000, 0x0808_0808)),
            );
            bound(
                "flows varying only the destination IP",
                fixed,
                spread(&state, |i| key(0x0a00_0001, 40_000, 0x0808_0000 | i)),
            );
            bound(
                "client keys varying only in their high 16 bits",
                fixed,
                spread(&state, |i| (i << 16) | 0x0001),
            );
        }
    }

    #[test]
    fn a_fixed_key_is_reproducible_and_restored() {
        let a = with_fixed_key(7, KeyedState::new);
        let b = with_fixed_key(7, KeyedState::new);
        assert_eq!(a.key, b.key);
        assert_eq!(a.hash_one(42u32), b.hash_one(42u32));
        assert_ne!(
            a.hash_one(42u32),
            with_fixed_key(8, KeyedState::new).hash_one(42u32)
        );
        assert!(FIXED_KEY.with(Cell::get).is_none());
    }
}
