//! # hostprof-core
//!
//! The paper's primary contribution (Section 4.1): profiling a user's
//! browsing session from nothing but the hostnames a network observer can
//! see, using hostname embeddings to propagate ontology labels to the ~90 %
//! of hostnames the ontology does not cover.
//!
//! The algorithm, end to end:
//!
//! 1. **Session extraction** ([`session`]) — the hosts a user requested in
//!    the last `T` minutes (paper: `T = 20`), keeping only the *first*
//!    visit to each host (interactive services open many connections) and
//!    dropping tracker/ad hostnames via blocklists (Section 5.4).
//! 2. **Aggregation** — the session vector `s_u^T = g({h})` is the mean of
//!    the member hostname embeddings.
//! 3. **Label propagation** ([`profiler`]) — retrieve the `N = 1000`
//!    hostnames most cosine-similar to the session vector; hosts with known
//!    ontology labels contribute their category vectors with weight
//!    `α_h = 1` when the host is *in* the session and
//!    `α_h = [cos(s, h)]₊` otherwise (Eq. 3); category importances are the
//!    α-weighted average (Eq. 4).
//! 4. **Daily retraining** ([`pipeline`]) — a fresh SKIPGRAM model is
//!    trained every simulated day on the previous day's sequences
//!    (Section 5.4, "We update our model every day").
//!
//! [`batch`] scales step 3 to deployment shape: one batched, multi-threaded
//! call profiles every session of a report tick, bit-identical to the
//! one-at-a-time path. [`cores`] implements the Figure 2/3 user-diversity
//! analysis (popularity
//! cores and per-user counts outside them), [`accumulator`] folds session
//! profiles into long-lived per-user profiles (the §7.3 "profiles could be
//! sold" artifact), and
//! [`profiler::profile_accuracy`] scores an inferred profile against the
//! synthetic ground truth no real deployment could observe.

pub mod accumulator;
pub mod batch;
pub mod columnar;
pub mod cores;
pub mod pipeline;
pub mod profiler;
pub mod serve;
pub mod session;
pub mod versioned;

pub use accumulator::ProfileAccumulator;
pub use batch::BatchProfiler;
pub use columnar::SessionSource;
pub use cores::{core_items, counts_outside_core};
pub use pipeline::{Pipeline, PipelineConfig, Prepared};
pub use profiler::{
    profile_accuracy, Aggregation, PreparedProfiler, ProfileScratch, Profiler, ProfilerConfig,
    ResolvedHost, SessionProfile,
};
pub use serve::{IncrementalWindower, ServeConfig, ServeEngine, ServeStats, TickReport};
pub use session::Session;
pub use versioned::{ModelVersion, VersionedModel};
