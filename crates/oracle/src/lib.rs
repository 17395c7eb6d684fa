//! Differential oracle for the hostprof pipeline.
//!
//! Every optimized layer in this workspace — the chaos-hardened observer
//! ingest, the SIMD/work-sharded skipgram trainer, the tiled batch kNN —
//! is verified here against a second, *independently written* and
//! deliberately naive implementation of the same algorithm. The oracle
//! code favors readability over speed: no SIMD, no batching, no
//! threading, no scratch reuse. Where the paper pins exact semantics
//! (T = 20 min windows with first-visit dedup, Eq. 3/4 aggregation),
//! the oracle is a line-by-line transcription of the math.
//!
//! Module map (one per pipeline stage):
//!
//! * [`defense`] — naive twin of every §15 defense transform: decoy
//!   injection, padding schedules, ECH/DoH wire decisions, NAT folding
//! * [`sni`] — TLS ClientHello SNI recovery (§4.1); QUIC's twin is the
//!   exact-`Result` one in `hostprof-net`'s `tests/quic_walk.rs`
//! * [`window`] — session windowing + dedup + blocklist filtering (§4.1)
//! * [`sgd`] — skipgram-with-negative-sampling reference trainer (§4.2)
//! * [`update`] — naive online-update reference: vocabulary growth with
//!   stable ids, replayable extension-row init, the negative-table
//!   rebuild policy, and resumed SGD (DESIGN.md §14)
//! * [`knn`] — exact O(V) cosine k-nearest-neighbor scan (§4.3)
//! * [`profile`] — Eq. 3/4 category aggregation (§4.3)
//! * [`stats`] — Welford moments and a paired t-test with an
//!   independently computed p-value (§5)
//! * [`driver`] — replays one seeded synthetic world through oracle and
//!   production paths and diffs them stage by stage
//! * [`ann`] — exact-vs-IVF differential: recall@N per session, the
//!   induced Eq. 3/4 importance divergence, and the end-to-end CTR gap
//! * [`intern`] — first-seen dense hostname interning by linear scan,
//!   diffed against the arena-backed `hostprof-store` interner
//! * [`diff`] — ulp/abs-delta helpers and the typed mismatch report
//!
//! The crate intentionally has no optimized dependencies of its own: it
//! links the production crates only to *call* them from the driver and
//! to share plain data types.

pub mod ann;
pub mod defense;
pub mod diff;
pub mod driver;
pub mod intern;
pub mod knn;
pub mod profile;
pub mod sgd;
pub mod sni;
pub mod stats;
pub mod update;
pub mod window;

use std::fmt;

/// Pipeline stage a mismatch is attributed to, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Trace/wire-level defense transform (decoys, padding, ECH/DoH
    /// decisions, NAT address folding) — upstream of capture.
    Defense,
    /// TLS/QUIC SNI extraction.
    Sni,
    /// Session windowing, dedup, blocklist filtering.
    Window,
    /// Skipgram training (vocabulary, init, SGD weight trajectories).
    Train,
    /// Online model update (vocabulary growth, id remapping stability,
    /// extension-row init, table rebuild policy, incremental SGD).
    Update,
    /// Cosine k-nearest-neighbor search.
    Knn,
    /// Eq. 3/4 category profile aggregation.
    Profile,
    /// Welford moments and paired t-test.
    Stats,
    /// End-to-end CTR of the ad-replacement experiment.
    Ctr,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::Defense => "defense",
            Stage::Sni => "sni",
            Stage::Window => "window",
            Stage::Train => "train",
            Stage::Update => "update",
            Stage::Knn => "knn",
            Stage::Profile => "profile",
            Stage::Stats => "stats",
            Stage::Ctr => "ctr",
        };
        f.write_str(name)
    }
}

/// One typed oracle-vs-production disagreement.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Stage the disagreement is attributed to.
    pub stage: Stage,
    /// Which item diverged (hostname, `user3/day1`, `input[token]`, ...).
    pub item: String,
    /// Largest absolute numeric delta observed for this item (0 for
    /// purely structural mismatches).
    pub max_abs: f64,
    /// Largest ulp distance observed for this item (`u64::MAX` when the
    /// values are not comparable, e.g. one NaN).
    pub max_ulp: u64,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {} (max_abs={:e}, max_ulp={})",
            self.stage, self.item, self.detail, self.max_abs, self.max_ulp
        )
    }
}

/// Outcome of a differential run: how much was compared, what diverged.
#[derive(Debug, Default, Clone)]
pub struct DiffReport {
    /// Number of individual oracle-vs-production comparisons performed.
    pub items_checked: usize,
    /// Every disagreement found, in discovery order.
    pub mismatches: Vec<Mismatch>,
}

impl DiffReport {
    /// True when production matched the oracle on every compared item.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Record one comparison that agreed.
    pub fn check_ok(&mut self) {
        self.items_checked += 1;
    }

    /// Record one comparison that disagreed.
    pub fn check_failed(&mut self, m: Mismatch) {
        self.items_checked += 1;
        self.mismatches.push(m);
    }

    /// Count of mismatches attributed to `stage`.
    pub fn mismatches_in(&self, stage: Stage) -> usize {
        self.mismatches.iter().filter(|m| m.stage == stage).count()
    }

    /// Multi-line human-readable summary (stage-attributed).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} comparisons, {} mismatches\n",
            self.items_checked,
            self.mismatches.len()
        );
        for m in &self.mismatches {
            out.push_str(&format!("  {m}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_bookkeeping() {
        let mut r = DiffReport::default();
        assert!(r.is_clean());
        r.check_ok();
        r.check_failed(Mismatch {
            stage: Stage::Knn,
            item: "query 3".into(),
            max_abs: 1e-3,
            max_ulp: 8192,
            detail: "neighbor 0 differs".into(),
        });
        assert_eq!(r.items_checked, 2);
        assert!(!r.is_clean());
        assert_eq!(r.mismatches_in(Stage::Knn), 1);
        assert_eq!(r.mismatches_in(Stage::Train), 0);
        assert!(r.summary().contains("[knn] query 3"));
    }
}
