//! Sparse `[0,1]`-weighted category vectors.
//!
//! The paper's per-hostname categorization `c^h` (Section 4.1) assigns each
//! category `i` an importance `c^h_i ∈ [0,1]`; the vector is *not* a
//! probability distribution (footnote 2). Hostnames typically carry only a
//! handful of categories out of 328, so a sorted sparse representation is
//! both compact and fast for the dot/cosine/Euclidean operations used by the
//! profiler (Eq. 3–4) and the ad selector (Section 5.4, Euclidean 20-NN).

use crate::category::CategoryId;
use serde::{Deserialize, Serialize};

/// A sparse category-importance vector: sorted `(CategoryId, weight)` pairs
/// with weights in `[0, 1]` and no duplicate ids.
///
/// ```
/// use hostprof_ontology::{CategoryId, CategoryVector};
/// let travel = CategoryVector::from_pairs(vec![
///     (CategoryId(13), 1.0),  // Travel
///     (CategoryId(40), 0.4),  // a second-level category
/// ]);
/// let sports = CategoryVector::singleton(CategoryId(12));
/// assert_eq!(travel.cosine(&sports), 0.0);
/// assert!(travel.cosine(&travel) > 0.999);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CategoryVector {
    entries: Vec<(CategoryId, f32)>,
}

impl CategoryVector {
    /// The empty vector (a hostname with no known categories).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from arbitrary pairs: duplicate ids are merged by `max`,
    /// weights are clamped to `[0, 1]`, zero weights are dropped, entries
    /// are sorted by id.
    pub fn from_pairs(pairs: Vec<(CategoryId, f32)>) -> Self {
        let mut entries = pairs;
        entries.sort_by_key(|(c, _)| *c);
        let mut merged: Vec<(CategoryId, f32)> = Vec::with_capacity(entries.len());
        for (c, w) in entries {
            let w = w.clamp(0.0, 1.0);
            if w <= 0.0 {
                continue;
            }
            match merged.last_mut() {
                Some((lc, lw)) if *lc == c => *lw = lw.max(w),
                _ => merged.push((c, w)),
            }
        }
        Self { entries: merged }
    }

    /// Build a single-category vector with weight 1.
    pub fn singleton(c: CategoryId) -> Self {
        Self {
            entries: vec![(c, 1.0)],
        }
    }

    /// Number of non-zero categories.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector has no categories at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(id, weight)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (CategoryId, f32)> + '_ {
        self.entries.iter().copied()
    }

    /// Weight of one category (0 if absent).
    pub fn get(&self, c: CategoryId) -> f32 {
        match self.entries.binary_search_by_key(&c, |(id, _)| *id) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Ids of the non-zero categories.
    pub fn ids(&self) -> impl Iterator<Item = CategoryId> + '_ {
        self.entries.iter().map(|(c, _)| *c)
    }

    /// Densify to a `num_categories`-length array.
    ///
    /// # Panics
    /// Panics if an entry's id is out of range — category vectors must be
    /// built against the hierarchy that sized `num_categories`.
    pub fn to_dense(&self, num_categories: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; num_categories];
        for (c, w) in self.iter() {
            out[c.index()] = w;
        }
        out
    }

    /// Sparse dot product.
    pub fn dot(&self, other: &Self) -> f32 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0f32;
        while i < self.entries.len() && j < other.entries.len() {
            let (ci, wi) = self.entries[i];
            let (cj, wj) = other.entries[j];
            match ci.cmp(&cj) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += wi * wj;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.entries.iter().map(|(_, w)| w * w).sum::<f32>().sqrt()
    }

    /// Cosine similarity; 0 when either vector is all-zero.
    pub fn cosine(&self, other: &Self) -> f32 {
        let denom = self.norm() * other.norm();
        if denom <= f32::EPSILON {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Euclidean distance treating missing ids as zeros — the metric the
    /// paper uses to pick the 20 nearest labeled hosts for ad selection.
    pub fn euclidean(&self, other: &Self) -> f32 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0f32;
        while i < self.entries.len() || j < other.entries.len() {
            let ci = self.entries.get(i).map(|(c, _)| *c);
            let cj = other.entries.get(j).map(|(c, _)| *c);
            match (ci, cj) {
                (Some(a), Some(b)) if a == b => {
                    let d = self.entries[i].1 - other.entries[j].1;
                    acc += d * d;
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a < b => {
                    acc += self.entries[i].1 * self.entries[i].1;
                    i += 1;
                }
                (Some(_), Some(_)) => {
                    acc += other.entries[j].1 * other.entries[j].1;
                    j += 1;
                }
                (Some(_), None) => {
                    acc += self.entries[i].1 * self.entries[i].1;
                    i += 1;
                }
                (None, Some(_)) => {
                    acc += other.entries[j].1 * other.entries[j].1;
                    j += 1;
                }
                (None, None) => unreachable!("loop condition guarantees progress"),
            }
        }
        acc.sqrt()
    }

    /// `self += scale * other`, clamping results into `[0, 1]`: entries
    /// that end at or below zero are dropped, so a negative `scale`
    /// subtracts.
    pub fn add_scaled(&mut self, other: &Self, scale: f32) {
        use std::cmp::Ordering;
        let (a, b) = (&self.entries, &other.entries);
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            let side = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x.0.cmp(&y.0),
                (Some(_), None) => Ordering::Less,
                (None, _) => Ordering::Greater,
            };
            // Every id sums from 0.0, `self`'s weight first: the order in
            // which a map keyed by id would accumulate the two lists.
            let c = if side.is_le() { a[i].0 } else { b[j].0 };
            let mut w = 0.0f32;
            if side.is_le() {
                w += a[i].1;
                i += 1;
            }
            if side.is_ge() {
                w += scale * b[j].1;
                j += 1;
            }
            if w > 0.0 {
                merged.push((c, w.min(1.0)));
            }
        }
        self.entries = merged;
    }

    /// Keep only the `k` highest-weight categories (ties broken by id).
    pub fn top_k(&self, k: usize) -> Self {
        let mut entries = self.entries.clone();
        entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        entries.truncate(k);
        entries.sort_by_key(|(c, _)| *c);
        Self { entries }
    }

    /// The single highest-weight category, if any.
    pub fn argmax(&self) -> Option<CategoryId> {
        self.entries
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| *c)
    }
}

impl FromIterator<(CategoryId, f32)> for CategoryVector {
    fn from_iter<T: IntoIterator<Item = (CategoryId, f32)>>(iter: T) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(pairs: &[(u16, f32)]) -> CategoryVector {
        CategoryVector::from_pairs(pairs.iter().map(|&(c, w)| (CategoryId(c), w)).collect())
    }

    #[test]
    fn from_pairs_sorts_dedups_and_clamps() {
        let x = v(&[(5, 0.4), (1, 2.0), (5, 0.9), (3, -0.1), (2, 0.0)]);
        let got: Vec<_> = x.iter().collect();
        assert_eq!(
            got,
            vec![(CategoryId(1), 1.0), (CategoryId(5), 0.9)],
            "clamped to 1.0, dup merged by max, zero/negative dropped"
        );
    }

    #[test]
    fn dot_matches_dense() {
        let a = v(&[(0, 0.5), (3, 1.0), (7, 0.25)]);
        let b = v(&[(3, 0.5), (7, 0.5), (9, 1.0)]);
        let dense_dot: f32 = a
            .to_dense(10)
            .iter()
            .zip(b.to_dense(10))
            .map(|(x, y)| x * y)
            .sum();
        assert!((a.dot(&b) - dense_dot).abs() < 1e-6);
    }

    #[test]
    fn euclidean_matches_dense() {
        let a = v(&[(0, 0.5), (3, 1.0)]);
        let b = v(&[(3, 0.5), (9, 1.0)]);
        let dense: f32 = a
            .to_dense(10)
            .iter()
            .zip(b.to_dense(10))
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt();
        assert!((a.euclidean(&b) - dense).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_identical_is_one_and_orthogonal_is_zero() {
        let a = v(&[(1, 0.3), (2, 0.7)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
        let b = v(&[(5, 1.0)]);
        assert_eq!(a.cosine(&b), 0.0);
        assert_eq!(a.cosine(&CategoryVector::empty()), 0.0);
    }

    #[test]
    fn get_and_argmax() {
        let a = v(&[(1, 0.3), (2, 0.7)]);
        assert_eq!(a.get(CategoryId(2)), 0.7);
        assert_eq!(a.get(CategoryId(9)), 0.0);
        assert_eq!(a.argmax(), Some(CategoryId(2)));
        assert_eq!(CategoryVector::empty().argmax(), None);
    }

    #[test]
    fn add_scaled_accumulates_and_clamps() {
        let mut a = v(&[(1, 0.8)]);
        a.add_scaled(&v(&[(1, 0.8), (2, 0.5)]), 0.5);
        assert!(
            (a.get(CategoryId(1)) - 1.0).abs() < 1e-6,
            "0.8 + 0.4 clamps to 1"
        );
        assert!((a.get(CategoryId(2)) - 0.25).abs() < 1e-6);
    }

    /// `add_scaled` as it was before it became a merge: every id summed
    /// into a `BTreeMap` entry that starts at 0.0, `self` first.
    fn add_scaled_reference(v: &mut CategoryVector, other: &CategoryVector, scale: f32) {
        let mut merged = std::collections::BTreeMap::new();
        for (c, w) in v.iter() {
            *merged.entry(c).or_insert(0.0f32) += w;
        }
        for (c, w) in other.iter() {
            *merged.entry(c).or_insert(0.0f32) += scale * w;
        }
        v.entries = merged
            .into_iter()
            .filter(|(_, w)| *w > 0.0)
            .map(|(c, w)| (c, w.min(1.0)))
            .collect();
    }

    fn bits(v: &CategoryVector) -> Vec<(CategoryId, u32)> {
        v.iter().map(|(c, w)| (c, w.to_bits())).collect()
    }

    /// Up to 12 entries over 40 ids, so two draws usually share some ids
    /// and not others; weights past 1.0 clamp to exactly 1.0.
    fn sparse() -> impl Strategy<Value = Vec<(u16, f32)>> {
        proptest::collection::vec((0u16..40, 0.001f32..1.3), 0..12)
    }

    /// `self` and `other` for one call: either side empty, disjoint id
    /// sets (even against odd), the same id set, or whatever was drawn.
    fn shaped(shape: u8, a: &[(u16, f32)], b: &[(u16, f32)]) -> (CategoryVector, CategoryVector) {
        let ids = |p: &[(u16, f32)], f: fn(u16) -> u16| -> Vec<(u16, f32)> {
            p.iter().map(|&(c, w)| (f(c), w)).collect()
        };
        match shape {
            0 => (CategoryVector::empty(), v(b)),
            1 => (v(a), CategoryVector::empty()),
            2 => (v(&ids(a, |c| 2 * c)), v(&ids(b, |c| 2 * c + 1))),
            3 => {
                let same: Vec<(u16, f32)> = a.iter().map(|&(c, w)| (c, 1.3 - w)).collect();
                (v(a), v(&same))
            }
            _ => (v(a), v(b)),
        }
    }

    /// −0.9 subtracts (`isp_dossier`), 0.0 and 1e-6 produce zeros and
    /// near-zeros to drop or keep, 1/n is the cookie fold, 1.0 and 3.0
    /// push sums past the clamp.
    fn scale(pick: u8, n: usize) -> f32 {
        [-0.9, 0.0, 1e-6, 1.0 / n as f32, 1.0, 3.0][pick as usize]
    }

    proptest! {
        #[test]
        fn add_scaled_equals_the_map_reference_bit_for_bit(
            a in sparse(),
            b in sparse(),
            shape in 0u8..5,
            pick in 0u8..6,
            n in 1usize..=200,
        ) {
            let (mut merged, other) = shaped(shape, &a, &b);
            let mut reference = merged.clone();
            let scale = scale(pick, n);
            merged.add_scaled(&other, scale);
            add_scaled_reference(&mut reference, &other, scale);
            prop_assert_eq!(bits(&merged), bits(&reference), "shape {} scale {}", shape, scale);
            prop_assert!(merged.iter().all(|(_, w)| w > 0.0 && w <= 1.0));
        }

        #[test]
        fn a_200_step_fold_from_empty_equals_the_reference_fold(
            window in proptest::collection::vec(sparse(), 200),
            pick in 0u8..6,
        ) {
            let scale = scale(pick, window.len());
            let (mut merged, mut reference) = (CategoryVector::empty(), CategoryVector::empty());
            for visit in &window {
                merged.add_scaled(&v(visit), scale);
                add_scaled_reference(&mut reference, &v(visit), scale);
            }
            prop_assert_eq!(bits(&merged), bits(&reference));
        }
    }

    #[test]
    fn top_k_keeps_heaviest() {
        let a = v(&[(1, 0.2), (2, 0.9), (3, 0.5)]);
        let t = a.top_k(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(CategoryId(2)), 0.9);
        assert_eq!(t.get(CategoryId(3)), 0.5);
        assert_eq!(t.get(CategoryId(1)), 0.0);
    }
}
