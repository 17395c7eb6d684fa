//! The partial hostname → category labeling (the paper's `H_L`).
//!
//! Google Adwords classified only **10.6 %** of the ~470 K hostnames the
//! paper's users visited (Section 4), and the authors obtained labels for
//! roughly 50 K hostnames overall (Section 5.4). [`Ontology`] models exactly
//! that artifact: a lookup from hostname to [`CategoryVector`] that covers
//! only a subset of the hostname universe, plus coverage accounting.

use crate::vector::CategoryVector;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A partial mapping from hostnames to category vectors.
///
/// Hostnames are stored lowercase; lookups are case-insensitive so the
/// observer-side pipeline never misses a label because of wire-format
/// casing.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ontology {
    labels: HashMap<String, CategoryVector>,
}

/// Coverage accounting for a hostname universe (reproduces the Section 4
/// "Google Adwords classifies only 10.6 % of the hostnames" measurement).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageStats {
    /// Number of hostnames in the queried universe.
    pub universe: usize,
    /// Number of those with a (non-empty) label.
    pub labeled: usize,
}

impl CoverageStats {
    /// Fraction of the universe that is labeled, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.universe == 0 {
            0.0
        } else {
            self.labeled as f64 / self.universe as f64
        }
    }
}

impl Ontology {
    /// An ontology with no labels.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) the label for `hostname`. Empty vectors are
    /// treated as "no label" and remove any existing entry, so that
    /// [`Ontology::is_labeled`] and coverage statistics stay meaningful.
    pub fn insert(&mut self, hostname: &str, categories: CategoryVector) {
        let key = hostname.to_ascii_lowercase();
        if categories.is_empty() {
            self.labels.remove(&key);
        } else {
            self.labels.insert(key, categories);
        }
    }

    /// Look up the label of a hostname.
    pub fn lookup(&self, hostname: &str) -> Option<&CategoryVector> {
        if hostname.chars().any(|c| c.is_ascii_uppercase()) {
            self.labels.get(&hostname.to_ascii_lowercase())
        } else {
            self.labels.get(hostname)
        }
    }

    /// Whether the hostname is in `H_L`.
    pub fn is_labeled(&self, hostname: &str) -> bool {
        self.lookup(hostname).is_some()
    }

    /// Number of labeled hostnames (`|H_L|`).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no hostname is labeled.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterate over `(hostname, categories)` pairs in ascending name order.
    ///
    /// The map is the lookup index and its order is std's per-process hash
    /// order, so the pairs are collected into a name-sorted `Vec` first:
    /// every consumer that keeps positions (the ad selector's tie-break
    /// among equally near hosts) sees the same order in every process. The
    /// callers walk the labels once per model version or selector, never
    /// per request, so the sort is off every hot path.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CategoryVector)> {
        let mut sorted: Vec<(&str, &CategoryVector)> =
            self.labels.iter().map(|(h, v)| (h.as_str(), v)).collect();
        sorted.sort_unstable_by_key(|&(h, _)| h);
        sorted.into_iter()
    }

    /// Coverage of a hostname universe: how many of `universe`'s hostnames
    /// this ontology labels. Duplicate hostnames in the input are counted
    /// once, mirroring how the paper counts unique hostnames.
    pub fn coverage<'a, I>(&self, universe: I) -> CoverageStats
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut seen = std::collections::HashSet::new();
        let mut labeled = 0usize;
        for h in universe {
            let key = h.to_ascii_lowercase();
            if seen.insert(key.clone()) && self.labels.contains_key(&key) {
                labeled += 1;
            }
        }
        CoverageStats {
            universe: seen.len(),
            labeled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::CategoryId;

    fn cv(id: u16) -> CategoryVector {
        CategoryVector::singleton(CategoryId(id))
    }

    #[test]
    fn insert_and_lookup_are_case_insensitive() {
        let mut o = Ontology::new();
        o.insert("Booking.COM", cv(1));
        assert!(o.is_labeled("booking.com"));
        assert!(o.is_labeled("BOOKING.com"));
        assert_eq!(o.lookup("booking.com").unwrap().get(CategoryId(1)), 1.0);
    }

    #[test]
    fn empty_vector_removes_label() {
        let mut o = Ontology::new();
        o.insert("a.com", cv(1));
        assert_eq!(o.len(), 1);
        o.insert("a.com", CategoryVector::empty());
        assert!(!o.is_labeled("a.com"));
        assert!(o.is_empty());
    }

    #[test]
    fn coverage_counts_unique_hostnames() {
        let mut o = Ontology::new();
        o.insert("a.com", cv(1));
        o.insert("b.com", cv(2));
        let stats = o.coverage(["a.com", "a.com", "c.com", "d.com", "B.COM"]);
        assert_eq!(stats.universe, 4);
        assert_eq!(stats.labeled, 2);
        assert!((stats.fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn iteration_is_in_name_order() {
        let mut o = Ontology::new();
        for (i, name) in ["m.com", "B.com", "z.com", "a.com", "k.com"]
            .iter()
            .enumerate()
        {
            o.insert(name, cv(i as u16 + 1));
        }
        let names: Vec<&str> = o.iter().map(|(h, _)| h).collect();
        assert_eq!(names, ["a.com", "b.com", "k.com", "m.com", "z.com"]);
    }

    #[test]
    fn coverage_of_empty_universe_is_zero() {
        let o = Ontology::new();
        let stats = o.coverage(std::iter::empty());
        assert_eq!(stats.universe, 0);
        assert_eq!(stats.fraction(), 0.0);
    }
}
