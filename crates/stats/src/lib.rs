//! # hostprof-stats
//!
//! The statistics toolkit behind the paper's evaluation:
//!
//! * [`descriptive`] — means, variances, percentiles;
//! * [`ccdf`] — survival functions (Figures 2 and 3 plot CCDFs of per-user
//!   hostname / category counts);
//! * [`bootstrap`] — percentile bootstrap confidence intervals for the
//!   CTR difference;
//! * [`proportion`] — a two-proportion z-test as a complementary
//!   significance check on pooled CTRs;
//! * [`ttest`] — the paired two-tailed Student t-test of Section 6.4
//!   ("resulting p-value was .11333"), with the Student CDF computed from a
//!   from-scratch regularized incomplete beta function;
//! * [`bhtsne`] — Barnes–Hut t-SNE for the Figure 4 embedding
//!   visualization (the quadtree lives in [`quadtree`]);
//! * [`purity`] — quantitative cluster-quality metrics (neighbor purity,
//!   intra/inter similarity gap) that turn the paper's qualitative Figure 5
//!   discussion into testable numbers.

pub mod bhtsne;
pub mod bootstrap;
pub mod ccdf;
pub mod descriptive;
pub mod proportion;
pub mod purity;
pub mod quadtree;
pub mod ttest;

pub use bhtsne::{BhTsne, BhTsneConfig};
pub use bootstrap::{bootstrap_paired_diff_ci, ConfidenceInterval};
pub use ccdf::Ccdf;
pub use descriptive::Summary;
pub use proportion::{two_proportion_z_test, PropTestResult};
pub use purity::{cluster_quality, neighbor_purity, similarity_gap};
pub use ttest::{paired_t_test, TTestResult};
