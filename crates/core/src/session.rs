//! Session extraction.
//!
//! A session `s_u^T` is "the sequence of hosts visited by user u in the
//! last window of length T" (Section 4.1) with two paper-mandated
//! clean-ups:
//!
//! * **first-visit deduplication** — "if a host was visited more than one
//!   time during the last window, the algorithm only takes into account the
//!   first visit", neutralizing streaming services that open dozens of
//!   connections;
//! * **tracker filtering** (Section 5.4) — hostnames on the ad/tracker
//!   blocklists "add noise without providing any valuable information" and
//!   are removed before profiling.

use hostprof_ontology::Blocklist;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashSet;

/// `name` in ASCII lowercase, copied only when a byte actually changes.
pub(crate) fn ascii_lower(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// A cleaned browsing session: unique hostnames in first-visit order.
///
/// ```
/// use hostprof_core::Session;
/// // A streaming site opening three connections collapses to one visit.
/// let s = Session::from_window(
///     ["news.example", "video.example", "video.example", "video.example"],
///     None,
/// );
/// assert_eq!(s.hostnames(), &["news.example", "video.example"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Session {
    hostnames: Vec<String>,
}

impl Session {
    /// Build from a raw hostname window (duplicates allowed, time order),
    /// applying first-visit dedup and optional blocklist filtering.
    pub fn from_window<'a, I>(window: I, blocklist: Option<&Blocklist>) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        // Every host already decided, kept or blocked: a repeat costs one
        // hash and no blocklist probe.
        let mut seen: HashSet<Cow<'a, str>> = HashSet::new();
        let mut hostnames = Vec::new();
        for h in window {
            let lower = ascii_lower(h);
            if !seen.insert(lower.clone()) {
                continue;
            }
            if !blocklist.is_some_and(|b| b.is_blocked(&lower)) {
                hostnames.push(lower.into_owned());
            }
        }
        Self { hostnames }
    }

    /// Hostnames in first-visit order.
    pub fn hostnames(&self) -> &[String] {
        &self.hostnames
    }

    /// Iterate hostnames as `&str`.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.hostnames.iter().map(String::as_str)
    }

    /// Number of distinct hostnames.
    pub fn len(&self) -> usize {
        self.hostnames.len()
    }

    /// Whether the session is empty. The paper notes `s_u^T` "cannot be an
    /// empty set since the profiling algorithm is only executed for users
    /// that are currently browsing" — but a window made purely of tracker
    /// traffic *can* empty out after filtering, so callers must check.
    pub fn is_empty(&self) -> bool {
        self.hostnames.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostprof_ontology::BlocklistProvider;

    #[test]
    fn first_visit_order_is_kept_and_duplicates_dropped() {
        let s = Session::from_window(["b.com", "a.com", "b.com", "c.com", "a.com"], None);
        assert_eq!(s.hostnames(), &["b.com", "a.com", "c.com"]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn casing_is_normalized_before_dedup() {
        let s = Session::from_window(["A.com", "a.COM"], None);
        assert_eq!(s.hostnames(), &["a.com"]);
    }

    #[test]
    fn blocklisted_hosts_are_removed() {
        let b = Blocklist::from_providers(vec![BlocklistProvider::new("t", ["tracker.net"])]);
        let s = Session::from_window(
            ["site.com", "tracker.net", "px.tracker.net", "other.com"],
            Some(&b),
        );
        assert_eq!(s.hostnames(), &["site.com", "other.com"]);
    }

    #[test]
    fn all_tracker_window_empties_out() {
        let b = Blocklist::from_providers(vec![BlocklistProvider::new("t", ["tracker.net"])]);
        let s = Session::from_window(["tracker.net", "tracker.net"], Some(&b));
        assert!(s.is_empty());
    }

    #[test]
    fn empty_window_is_empty_session() {
        let s = Session::from_window(std::iter::empty(), None);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
