//! The deterministic, Adwords-like category hierarchy.
//!
//! The paper (Section 5.4) reports that Google Adwords returned **1397**
//! categories organized in a hierarchy whose depth varies per branch (e.g.
//! *Internet & Telecom* has only two subcategories while *Computers &
//! Electronics* has 123 spread over five levels). Harmonizing to the first
//! two levels leaves **328** categories; Figure 6 plots the **34** top-level
//! topics.
//!
//! We reproduce the shape constants the algorithm sees exactly: 34
//! top-level topics and 328 harmonized (level ≤ 2) categories; the
//! deeper, unharmonized nodes are not modelled. The harmonized
//! [`CategoryId`] space is laid out as:
//!
//! * ids `0 .. 34`  — the top-level categories themselves;
//! * ids `34 .. 328` — second-level categories, grouped contiguously by
//!   parent topic.

use crate::category::{CategoryId, TopCategoryId};
use crate::vector::CategoryVector;

/// Number of top-level topics (Figure 6 of the paper).
pub const TOP_CATEGORIES: usize = 34;
/// Number of harmonized level-≤2 categories (the set `C` of Section 4.1).
pub const HARMONIZED_CATEGORIES: usize = 328;

/// Top-level topic names (taken from Figure 6) and the number of
/// second-level children of each. Child counts sum to
/// `HARMONIZED_CATEGORIES - TOP_CATEGORIES = 294`.
///
/// Two anecdotes from the paper are honored: *Internet & Telecom* has just 2
/// subcategories, and *Computers & Electronics* is the bushiest branch.
const TOP_TOPICS: [(&str, u16); TOP_CATEGORIES] = [
    ("Online Communities", 8),
    ("Arts & Entertainment", 22),
    ("People & Society", 14),
    ("Jobs & Education", 10),
    ("Games", 12),
    ("Internet & Telecom", 2),
    ("Computers & Electronics", 24),
    ("Shopping", 18),
    ("News", 9),
    ("Business & Industrial", 16),
    ("Reference", 7),
    ("Books & Literature", 8),
    ("Sports", 15),
    ("Travel", 13),
    ("Finance", 12),
    ("Health", 14),
    ("Real Estate", 6),
    ("Beauty & Fitness", 9),
    ("Autos & Vehicles", 10),
    ("Science", 9),
    ("Hobbies & Leisure", 12),
    ("Food & Drink", 10),
    ("Law & Government", 8),
    ("Pets & Animals", 6),
    ("Home & Garden", 8),
    ("Sororities & Student Societies", 1),
    ("Crime & Mystery Films", 1),
    ("Awards & Prizes", 1),
    ("Reviews & Comparisons", 2),
    ("DIY & Expert Content", 2),
    ("Jellies & Preserves", 1),
    ("Cooktops & Ovens", 1),
    ("Clubs & Nightlife", 2),
    ("Copiers & Fax", 1),
];

/// Readable qualifiers used to mint second-level category names.
const SUBTOPIC_WORDS: [&str; 25] = [
    "General",
    "News & Media",
    "Communities",
    "Equipment",
    "Services",
    "Education",
    "Events",
    "Reviews",
    "Accessories",
    "Industry",
    "Culture",
    "Technology",
    "Marketplace",
    "Local",
    "International",
    "Beginners",
    "Professional",
    "Vintage",
    "Outdoor",
    "Indoor",
    "Digital",
    "Luxury",
    "Budget",
    "Kids",
    "Seasonal",
];

/// The harmonized two-level category hierarchy.
///
/// Construction is fully deterministic — every call to
/// [`Hierarchy::adwords_like`] yields the same hierarchy, which keeps every
/// experiment reproducible without shipping a data file.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// `category_parent[i]` = top-level topic of harmonized category `i`.
    category_parent: Vec<TopCategoryId>,
    /// Harmonized category names, indexed by [`CategoryId`].
    category_names: Vec<String>,
    /// Level-2 children of each top-level topic (excluding the topic's own
    /// harmonized id).
    children: Vec<Vec<CategoryId>>,
}

impl Hierarchy {
    /// Build the deterministic Adwords-like hierarchy described in the
    /// module docs.
    pub fn adwords_like() -> Self {
        let mut category_parent = Vec::with_capacity(HARMONIZED_CATEGORIES);
        let mut category_names = Vec::with_capacity(HARMONIZED_CATEGORIES);
        let mut children: Vec<Vec<CategoryId>> = vec![Vec::new(); TOP_CATEGORIES];

        // ids 0..34: the top-level categories themselves.
        for (t, (name, _)) in TOP_TOPICS.iter().enumerate() {
            category_parent.push(TopCategoryId(t as u8));
            category_names.push((*name).to_string());
        }
        // ids 34..328: second-level categories, contiguous per topic.
        for (t, (name, n_children)) in TOP_TOPICS.iter().enumerate() {
            for k in 0..*n_children {
                let id = CategoryId(category_parent.len() as u16);
                category_parent.push(TopCategoryId(t as u8));
                let word = SUBTOPIC_WORDS[(k as usize) % SUBTOPIC_WORDS.len()];
                let name = if (k as usize) < SUBTOPIC_WORDS.len() {
                    format!("{name} / {word}")
                } else {
                    format!("{name} / {word} {}", k as usize / SUBTOPIC_WORDS.len() + 1)
                };
                category_names.push(name);
                children[t].push(id);
            }
        }
        debug_assert_eq!(category_parent.len(), HARMONIZED_CATEGORIES);

        Self {
            category_parent,
            category_names,
            children,
        }
    }

    /// Number of harmonized categories (`|C|` = 328).
    #[inline]
    pub fn num_categories(&self) -> usize {
        self.category_parent.len()
    }

    /// Number of top-level topics (34).
    #[inline]
    pub fn num_top(&self) -> usize {
        self.children.len()
    }

    /// The top-level topic a harmonized category belongs to.
    #[inline]
    pub fn top_of(&self, c: CategoryId) -> TopCategoryId {
        self.category_parent[c.index()]
    }

    /// The harmonized id of a top-level topic itself (ids `0..34`).
    #[inline]
    pub fn top_level_category(&self, t: TopCategoryId) -> CategoryId {
        CategoryId(t.0 as u16)
    }

    /// Second-level children of a top-level topic.
    #[inline]
    pub fn children_of_top(&self, t: TopCategoryId) -> &[CategoryId] {
        &self.children[t.index()]
    }

    /// Name of a harmonized category.
    #[inline]
    pub fn category_name(&self, c: CategoryId) -> &str {
        &self.category_names[c.index()]
    }

    /// Name of a top-level topic.
    #[inline]
    pub fn top_name(&self, t: TopCategoryId) -> &str {
        &self.category_names[t.index()]
    }

    /// All top-level topic ids.
    pub fn top_ids(&self) -> impl Iterator<Item = TopCategoryId> + '_ {
        (0..self.num_top()).map(|t| TopCategoryId(t as u8))
    }

    /// Project a harmonized category vector onto the 34 top-level topics by
    /// summing the weight mass per topic. Used for the Figure 6 timelines.
    pub fn project_to_top(&self, v: &CategoryVector) -> Vec<f32> {
        let mut out = vec![0.0f32; self.num_top()];
        for (c, w) in v.iter() {
            out[self.top_of(c).index()] += w;
        }
        out
    }
}

impl Default for Hierarchy {
    fn default() -> Self {
        Self::adwords_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_constants_match_the_paper() {
        let h = Hierarchy::adwords_like();
        assert_eq!(h.num_top(), 34, "Figure 6 plots 34 top-level topics");
        assert_eq!(h.num_categories(), 328, "Section 5.4: 328 categories");
    }

    #[test]
    fn child_counts_sum_to_the_harmonized_size() {
        let total: usize = TOP_TOPICS.iter().map(|(_, c)| *c as usize).sum();
        assert_eq!(total, HARMONIZED_CATEGORIES - TOP_CATEGORIES);
    }

    #[test]
    fn internet_and_telecom_has_two_subcategories() {
        let h = Hierarchy::adwords_like();
        let telecom = h
            .top_ids()
            .find(|t| h.top_name(*t) == "Internet & Telecom")
            .expect("topic exists");
        assert_eq!(h.children_of_top(telecom).len(), 2);
    }

    #[test]
    fn category_names_are_unique() {
        let h = Hierarchy::adwords_like();
        let mut names = h.category_names.clone();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), h.num_categories());
    }

    #[test]
    fn parents_are_consistent_with_children_lists() {
        let h = Hierarchy::adwords_like();
        for t in h.top_ids() {
            for &c in h.children_of_top(t) {
                assert_eq!(h.top_of(c), t);
            }
            assert_eq!(h.top_of(h.top_level_category(t)), t);
        }
    }

    #[test]
    fn second_level_ids_are_contiguous_per_topic() {
        let h = Hierarchy::adwords_like();
        for t in h.top_ids() {
            let kids = h.children_of_top(t);
            for w in kids.windows(2) {
                assert_eq!(w[1].0, w[0].0 + 1);
            }
        }
    }

    #[test]
    fn projection_moves_all_mass_to_top_level() {
        let h = Hierarchy::adwords_like();
        let v = CategoryVector::from_pairs(vec![
            (CategoryId(0), 0.5),
            (CategoryId(40), 0.25),
            (CategoryId(327), 1.0),
        ]);
        let top = h.project_to_top(&v);
        let total: f32 = top.iter().sum();
        assert!((total - 1.75).abs() < 1e-6);
        assert_eq!(top.len(), 34);
    }

    #[test]
    fn construction_is_deterministic() {
        let a = Hierarchy::adwords_like();
        let b = Hierarchy::adwords_like();
        assert_eq!(a.category_names, b.category_names);
        assert_eq!(a.category_parent, b.category_parent);
    }
}
