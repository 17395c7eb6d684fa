//! # hostprof-ontology
//!
//! A synthetic stand-in for the Google Adwords Display Planner ontology used
//! by the paper *User Profiling by Network Observers* (CoNEXT '21).
//!
//! The paper queried the Display Planner for the topics of ~50 K hostnames and
//! obtained **1397** categories organized in a hierarchy of varying depth.
//! To harmonize the hierarchy, only categories up to the **second level** were
//! kept, yielding **328** categories (the set `C` of Section 4.1). Each
//! labeled hostname `h ∈ H_L` carries a category vector
//! `c^h = [c^h_1, …, c^h_C]` with `c^h_i ∈ [0, 1]` — explicitly *not* a
//! probability distribution (footnote 2 of the paper).
//!
//! This crate provides:
//!
//! * [`Hierarchy`] — a deterministic category hierarchy with 34 top-level
//!   topics (the ones visible in Figure 6) and exactly 328 level-≤2
//!   categories after harmonization;
//! * [`CategoryVector`] — sparse `[0,1]`-weighted category vectors with the
//!   similarity/distance operations the profiling pipeline needs;
//! * [`Ontology`] — the partial hostname → category-vector labeling
//!   (the paper's `H_L`, covering only ~10.6 % of hostnames);
//! * [`Blocklist`] — tracker/advertiser hostname lists modeled after the
//!   three lists the paper used (adaway.org, hosts-file.net, yoyo.org),
//!   used to filter profiling-noise hostnames (Section 5.4).

pub mod blocklist;
pub mod category;
pub mod hierarchy;
pub mod ontology;
pub mod vector;

pub use blocklist::{Blocklist, BlocklistProvider};
pub use category::{CategoryId, TopCategoryId};
pub use hierarchy::{Hierarchy, HARMONIZED_CATEGORIES, TOP_CATEGORIES};
pub use ontology::{CoverageStats, Ontology};
pub use vector::CategoryVector;
