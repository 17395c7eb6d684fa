//! The global hostname table: each distinct hostname stored once, in a
//! contiguous arena, addressed by a dense `u32` id.
//!
//! Ids are assigned in first-intern order, so a table built by replaying
//! the same stream is byte-identical — the property the differential
//! oracle pins. The hash index maps an FNV-1a-64 hash of the name to the
//! first id with that hash, and ids sharing a hash (almost never more than
//! one) are chained in first-seen order through a vector parallel to the
//! ids; membership is confirmed against the arena, so the strings are
//! never stored twice. The name is hashed once: the index is keyed by the
//! FNV value itself, which its map folds instead of hashing again.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit — the repo's standard content hash.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The index's hasher: its keys already are hashes, so `finish` only folds
/// the high half into the low half, where the map picks its bucket.
#[derive(Default)]
struct FnvKey(u64);

impl Hasher for FnvKey {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the interner's index is keyed by u64 hashes")
    }

    #[inline]
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// End of a hash chain in [`HostInterner::next`].
const NO_ID: u32 = u32::MAX;

/// Append-only string-to-`u32` interning table.
///
/// Memory layout: one `String` arena holding every distinct name
/// back-to-back, an offsets vector (`offsets[i]..offsets[i+1]` is name
/// `i`), and a hash index of ids. Resolving an id is two loads and a
/// slice; interning an already-known name allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct HostInterner {
    /// All names, concatenated.
    arena: String,
    /// `offsets[i]..offsets[i + 1]` bounds name `i`; always starts with 0.
    offsets: Vec<u32>,
    /// FNV-1a(name) → the first id with that hash.
    index: HashMap<u64, u32, BuildHasherDefault<FnvKey>>,
    /// `next[i]`: the next id after `i` whose name has the same hash, or
    /// [`NO_ID`].
    next: Vec<u32>,
}

impl HostInterner {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            arena: String::new(),
            offsets: vec![0],
            index: HashMap::default(),
            next: Vec::new(),
        }
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id of `name` among those hashing to `hash`, or else the last id
    /// of that hash's chain (`None` when no name has that hash).
    fn find(&self, hash: u64, name: &str) -> Result<u32, Option<u32>> {
        let Some(&first) = self.index.get(&hash) else {
            return Err(None);
        };
        let mut id = first;
        loop {
            if self.name(id) == name {
                return Ok(id);
            }
            match self.next[id as usize] {
                NO_ID => return Err(Some(id)),
                later => id = later,
            }
        }
    }

    /// Intern `name`, returning its id (existing id if already present).
    pub fn intern(&mut self, name: &str) -> u32 {
        self.intern_hashed(fnv1a(name.as_bytes()), name)
    }

    /// [`intern`](Self::intern) with the name's hash given.
    fn intern_hashed(&mut self, h: u64, name: &str) -> u32 {
        let last = match self.find(h, name) {
            Ok(id) => return id,
            Err(last) => last,
        };
        let id = self.len() as u32;
        assert!(
            self.arena.len() + name.len() <= u32::MAX as usize && id < NO_ID,
            "interner arena exceeds u32 addressing"
        );
        self.arena.push_str(name);
        self.offsets.push(self.arena.len() as u32);
        self.next.push(NO_ID);
        match last {
            Some(last) => self.next[last as usize] = id,
            None => {
                self.index.insert(h, id);
            }
        }
        id
    }

    /// Id of `name`, if interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.find(fnv1a(name.as_bytes()), name).ok()
    }

    /// The name behind `id`. Panics on an id this table never issued.
    #[inline]
    pub fn name(&self, id: u32) -> &str {
        let i = id as usize;
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// All names in id order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len() as u32).map(move |id| self.name(id))
    }

    /// Heap footprint of the table (arena + offsets + chain links + hash
    /// index), in bytes.
    pub fn heap_bytes(&self) -> usize {
        let index_bytes =
            self.index.capacity() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>());
        self.arena.capacity() + (self.offsets.capacity() + self.next.capacity()) * 4 + index_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_deduplicate_and_resolve() {
        let mut t = HostInterner::new();
        let a = t.intern("travel.example");
        let b = t.intern("sport.example");
        assert_ne!(a, b);
        assert_eq!(t.intern("travel.example"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(a), "travel.example");
        assert_eq!(t.name(b), "sport.example");
        assert_eq!(t.get("sport.example"), Some(b));
        assert_eq!(t.get("unknown.example"), None);
    }

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut t = HostInterner::new();
        for (i, name) in ["c", "a", "b", "a", "c", "d"].iter().enumerate() {
            let id = t.intern(name);
            // First occurrences get 0,1,2,3 in stream order.
            let expect = match i {
                0 => 0, // c
                1 => 1, // a
                2 => 2, // b
                3 => 1, // a again
                4 => 0, // c again
                _ => 3, // d
            };
            assert_eq!(id, expect, "name {name} at position {i}");
        }
        let names: Vec<&str> = t.iter().collect();
        assert_eq!(names, ["c", "a", "b", "d"]);
    }

    #[test]
    fn case_variants_are_distinct_entries() {
        // The table stores exactly what it is given — normalization is the
        // caller's policy (the windower round-trips raw observer output).
        let mut t = HostInterner::new();
        let lower = t.intern("host.example");
        let upper = t.intern("HOST.example");
        assert_ne!(lower, upper);
        assert_eq!(t.name(upper), "HOST.example");
    }

    /// Names whose hashes collide chain in first-seen order and stay
    /// distinct ids.
    #[test]
    fn hash_collisions_chain_in_first_seen_order() {
        let mut t = HostInterner::new();
        let names = ["a.example", "b.example", "c.example"];
        for (i, name) in names.iter().enumerate() {
            assert_eq!(t.intern_hashed(7, name), i as u32);
        }
        for (i, name) in names.iter().enumerate() {
            assert_eq!(t.intern_hashed(7, name), i as u32);
            assert_eq!(t.find(7, name), Ok(i as u32));
        }
        assert_eq!(t.find(7, "d.example"), Err(Some(2)));
        assert_eq!(t.find(8, "a.example"), Err(None));
        assert_eq!(t.next, [1, 2, NO_ID]);
        assert_eq!(t.index.len(), 1);
    }

    #[test]
    fn empty_name_is_a_valid_entry() {
        let mut t = HostInterner::new();
        let id = t.intern("");
        assert_eq!(t.name(id), "");
        assert_eq!(t.intern(""), id);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn heap_bytes_grows_with_content() {
        let mut t = HostInterner::new();
        let before = t.heap_bytes();
        for i in 0..100 {
            t.intern(&format!("host-{i}.example.com"));
        }
        assert!(t.heap_bytes() > before);
        assert!(t.heap_bytes() < 100 * 200, "no per-name String overhead");
    }
}
