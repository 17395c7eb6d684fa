//! Tracker / advertiser hostname blocklists.
//!
//! Section 5.4 of the paper: roughly 50 of the top-100 hostnames belonged to
//! advertising or tracking companies; these were removed from profiling input
//! because they "add noise without providing any valuable information about
//! the interests of a user". The paper used three public lists —
//! adaway.org, hosts-file.net and yoyo.org — which matched ~3 K distinct
//! hostnames and ~8 % of all observed connections (6.1 M of 75 M).
//!
//! [`Blocklist`] is the union of several [`BlocklistProvider`]s with
//! suffix-aware matching: blocking `doubleclick.net` also blocks
//! `stats.g.doubleclick.net`, matching how hosts-file deployments behave for
//! tracker eTLD+1 entries in practice.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashSet;

/// One published blocklist (e.g. the adaway.org hosts file).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlocklistProvider {
    /// Human-readable provider name.
    pub name: String,
    hosts: HashSet<String>,
}

impl BlocklistProvider {
    /// Create a provider from an iterator of hostnames (lowercased on
    /// insert).
    pub fn new<I, S>(name: &str, hosts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self {
            name: name.to_string(),
            hosts: hosts
                .into_iter()
                .map(|h| h.as_ref().to_ascii_lowercase())
                .collect(),
        }
    }

    /// Number of hostnames on this list.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Exact-match membership (no suffix logic at the provider level).
    pub fn contains(&self, hostname: &str) -> bool {
        self.hosts.contains(&hostname.to_ascii_lowercase())
    }

    /// Iterate over the hostnames on this list.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.hosts.iter().map(String::as_str)
    }
}

/// The union of several providers, as the paper combined three lists.
///
/// ```
/// use hostprof_ontology::{Blocklist, BlocklistProvider};
/// let b = Blocklist::from_providers(vec![
///     BlocklistProvider::new("adaway-like", ["doubleclick.net"]),
/// ]);
/// assert!(b.is_blocked("stats.g.doubleclick.net"));
/// assert!(!b.is_blocked("espn.com"));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Blocklist {
    providers: Vec<BlocklistProvider>,
    /// Deduplicated union of every provider's hostnames.
    union: HashSet<String>,
}

impl Blocklist {
    /// An empty blocklist (blocks nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from providers, precomputing the union.
    pub fn from_providers(providers: Vec<BlocklistProvider>) -> Self {
        let mut union = HashSet::new();
        for p in &providers {
            union.extend(p.iter().map(str::to_string));
        }
        Self { providers, union }
    }

    /// Providers in this blocklist.
    pub fn providers(&self) -> &[BlocklistProvider] {
        &self.providers
    }

    /// Number of distinct blocked hostnames across all providers.
    pub fn len(&self) -> usize {
        self.union.len()
    }

    /// Whether the union is empty.
    pub fn is_empty(&self) -> bool {
        self.union.is_empty()
    }

    /// Whether `hostname` is blocked, either exactly or because a parent
    /// domain is listed (`ads.x.com` is blocked when `x.com` is listed).
    pub fn is_blocked(&self, hostname: &str) -> bool {
        // Callers on the profiling path hand in lowercase names already;
        // copy only when a byte has to change.
        let lower = if hostname.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(hostname.to_ascii_lowercase())
        } else {
            Cow::Borrowed(hostname)
        };
        let mut rest: &str = &lower;
        loop {
            if self.union.contains(rest) {
                return true;
            }
            match rest.find('.') {
                // Require at least one dot in the candidate suffix so a
                // listed "com" cannot block the entire universe.
                Some(i) if rest[i + 1..].contains('.') => rest = &rest[i + 1..],
                _ => return false,
            }
        }
    }

    /// Partition a connection stream: returns `(blocked, passed)` counts.
    /// This regenerates the paper's "6.1 M of 75 M connections (≈8 %)"
    /// measurement.
    pub fn filter_stats<'a, I>(&self, connections: I) -> FilterStats
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut stats = FilterStats::default();
        let mut blocked_hosts = HashSet::new();
        for h in connections {
            if self.is_blocked(h) {
                stats.blocked_connections += 1;
                blocked_hosts.insert(h.to_ascii_lowercase());
            } else {
                stats.passed_connections += 1;
            }
        }
        stats.blocked_hostnames = blocked_hosts.len();
        stats
    }
}

/// Result of running a connection stream through a [`Blocklist`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    /// Connections to blocked hostnames.
    pub blocked_connections: usize,
    /// Connections that passed the filter.
    pub passed_connections: usize,
    /// Distinct blocked hostnames seen in the stream.
    pub blocked_hostnames: usize,
}

impl FilterStats {
    /// Fraction of connections that were blocked.
    pub fn blocked_fraction(&self) -> f64 {
        let total = self.blocked_connections + self.passed_connections;
        if total == 0 {
            0.0
        } else {
            self.blocked_connections as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Blocklist {
        Blocklist::from_providers(vec![
            BlocklistProvider::new("adaway", ["doubleclick.net", "adnxs.com"]),
            BlocklistProvider::new("hphosts", ["adnxs.com", "tracker.example.org"]),
            BlocklistProvider::new("yoyo", ["scorecardresearch.com"]),
        ])
    }

    #[test]
    fn union_deduplicates_across_providers() {
        let b = sample();
        assert_eq!(b.len(), 4, "adnxs.com appears on two lists but counts once");
        assert_eq!(b.providers().len(), 3);
    }

    #[test]
    fn exact_and_subdomain_matches_block() {
        let b = sample();
        assert!(b.is_blocked("doubleclick.net"));
        assert!(b.is_blocked("stats.g.doubleclick.net"));
        assert!(b.is_blocked("Tracker.Example.ORG"));
        assert!(
            !b.is_blocked("example.org"),
            "parent of a listed host is not blocked"
        );
        assert!(!b.is_blocked("news.example.com"));
    }

    #[test]
    fn tld_entries_do_not_block_everything() {
        let b = Blocklist::from_providers(vec![BlocklistProvider::new("weird", ["net"])]);
        assert!(!b.is_blocked("example.net"));
        assert!(!b.is_blocked("a.b.net"));
    }

    #[test]
    fn filter_stats_counts_connections_and_hosts() {
        let b = sample();
        let stream = [
            "doubleclick.net",
            "ads.doubleclick.net",
            "news.site.com",
            "adnxs.com",
            "news.site.com",
        ];
        let s = b.filter_stats(stream.iter().copied());
        assert_eq!(s.blocked_connections, 3);
        assert_eq!(s.passed_connections, 2);
        assert_eq!(s.blocked_hostnames, 3);
        assert!((s.blocked_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_blocklist_blocks_nothing() {
        let b = Blocklist::new();
        assert!(!b.is_blocked("doubleclick.net"));
        assert_eq!(
            b.filter_stats(["a.com"].iter().copied())
                .blocked_connections,
            0
        );
    }
}
