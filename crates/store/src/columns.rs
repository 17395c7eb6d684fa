//! Structure-of-arrays observation storage with per-user offset ranges.
//!
//! Layout: user-major. All of user 0's observations (ascending in time),
//! then user 1's, and so on; `user_starts` is the CSR offset table
//! (`user_starts[u]..user_starts[u + 1]` is user `u`'s range). Within a
//! range, three parallel columns:
//!
//! | column       | type  | meaning                                   |
//! |--------------|-------|-------------------------------------------|
//! | `t_ms`       | `u32` | milliseconds since experiment start       |
//! | `host`       | `u32` | interned hostname id                      |
//! | `wire_bytes` | `u32` | first-flight wire bytes of the request    |
//!
//! One observation costs 12 bytes flat, no per-event allocation. The
//! conceptual user-id column is delta-encoded by the offset table. `u32`
//! timestamps bound the horizon at ~49.7 simulated days — checked at
//! build time; the paper's profiling phase is one month.

use crate::access::{span_range, window_range, TraceAccess};
use crate::flat::{FlatError, FlatReader, FlatWriter};
use crate::intern::HostInterner;

/// Section tags of the flat encoding.
mod tag {
    pub const META: u32 = 0x4d45_5441; // "META": [num_users, days, num_events]
    pub const USER_STARTS: u32 = 0x5553_5452; // "USTR"
    pub const T_MS: u32 = 0x544d_5330; // "TMS0"
    pub const HOST: u32 = 0x484f_5354; // "HOST"
    pub const WIRE: u32 = 0x5749_5245; // "WIRE"
    pub const NAMES: u32 = 0x4e41_4d45; // "NAME": interner arena
    pub const NAME_OFFS: u32 = 0x4e4f_4646; // "NOFF": interner offsets
}

/// The columnar trace store. Build with [`TraceColumnsBuilder`].
#[derive(Debug, Clone)]
pub struct TraceColumns {
    /// CSR offsets, length `num_users + 1`.
    user_starts: Vec<u64>,
    /// Timestamp column, ms since experiment start.
    t_ms: Vec<u32>,
    /// Interned host-id column.
    host: Vec<u32>,
    /// First-flight wire bytes per observation.
    wire_bytes: Vec<u32>,
    /// The hostname table the `host` column indexes into.
    interner: HostInterner,
    /// Simulated days.
    days: u32,
}

impl TraceColumns {
    /// Number of users (indexed population size).
    pub fn num_users(&self) -> usize {
        self.user_starts.len() - 1
    }

    /// Total observations.
    pub fn num_events(&self) -> usize {
        self.t_ms.len()
    }

    /// Simulated days.
    pub fn days(&self) -> u32 {
        self.days
    }

    /// The hostname table.
    pub fn interner(&self) -> &HostInterner {
        &self.interner
    }

    /// A user's observation range in the columns.
    #[inline]
    pub fn user_range(&self, user: u32) -> std::ops::Range<usize> {
        let u = user as usize;
        self.user_starts[u] as usize..self.user_starts[u + 1] as usize
    }

    /// A user's timestamps, ascending.
    pub fn user_times(&self, user: u32) -> &[u32] {
        &self.t_ms[self.user_range(user)]
    }

    /// A user's host ids, time order.
    pub fn user_hosts(&self, user: u32) -> &[u32] {
        &self.host[self.user_range(user)]
    }

    /// Per-user day sequences for one day: `(user, host ids)` for every
    /// user active in `[day·DAY, (day+1)·DAY)` — the SKIPGRAM training
    /// corpus, columnar edition.
    pub fn daily_sequences(&self, day: u32, day_ms: u64) -> Vec<(u32, Vec<u32>)> {
        let start = day as u64 * day_ms;
        let end = start + day_ms;
        let mut out = Vec::new();
        for user in 0..self.num_users() as u32 {
            let span = span_range(self.user_times(user), |&t| t as u64, start, end);
            if !span.is_empty() {
                out.push((user, self.user_hosts(user)[span].to_vec()));
            }
        }
        out
    }

    /// Heap footprint of the columns plus the interner, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.user_starts.capacity() * 8
            + self.t_ms.capacity() * 4
            + self.host.capacity() * 4
            + self.wire_bytes.capacity() * 4
            + self.interner.heap_bytes()
    }

    /// Serialize to the flat container layout (DESIGN.md §13).
    pub fn to_flat_bytes(&self) -> Vec<u8> {
        let mut w = FlatWriter::new();
        let meta = [self.num_users(), self.days as usize, self.num_events()].map(|n| n as u64);
        w.column(tag::META, &meta, u64::to_le_bytes)
            .column(tag::USER_STARTS, &self.user_starts, u64::to_le_bytes)
            .column(tag::T_MS, &self.t_ms, u32::to_le_bytes)
            .column(tag::HOST, &self.host, u32::to_le_bytes)
            .column(tag::WIRE, &self.wire_bytes, u32::to_le_bytes)
            .strings(tag::NAMES, tag::NAME_OFFS, self.interner.iter());
        w.finish()
    }

    /// Deserialize from [`Self::to_flat_bytes`] output. Round-trips
    /// bit-identically (ids, order and name spellings all preserved).
    ///
    /// Everything the accessors index by is checked — the CSR offsets
    /// start at 0, never decrease and end at the event count; each user's
    /// times ascend; host ids are below the name table's length; no name
    /// repeats; `days` fits a `u32` — so a corrupt buffer is a
    /// [`FlatError`], never a store that panics later.
    pub fn from_flat_bytes(buf: &[u8]) -> Result<Self, FlatError> {
        let r = FlatReader::new(buf)?;
        let meta = r.column(tag::META, u64::from_le_bytes)?;
        let [num_users, days, num_events] = meta[..] else {
            return Err(FlatError::BadSectionLen {
                tag: tag::META,
                len: meta.len(),
                elem: 3,
            });
        };
        let user_starts = r.column(tag::USER_STARTS, u64::from_le_bytes)?;
        let t_ms = r.column(tag::T_MS, u32::from_le_bytes)?;
        let host = r.column(tag::HOST, u32::from_le_bytes)?;
        let wire_bytes = r.column(tag::WIRE, u32::from_le_bytes)?;
        let names = r.strings(tag::NAMES, tag::NAME_OFFS)?;
        if (user_starts.len() as u64).checked_sub(1) != Some(num_users)
            || t_ms.len() as u64 != num_events
            || host.len() != t_ms.len()
            || wire_bytes.len() != t_ms.len()
        {
            return Err(FlatError::Truncated);
        }
        let days = u32::try_from(days).map_err(|_| FlatError::Inconsistent(tag::META))?;
        if user_starts.first() != Some(&0)
            || !user_starts.is_sorted()
            || user_starts.last() != Some(&num_events)
        {
            return Err(FlatError::Inconsistent(tag::USER_STARTS));
        }
        if user_starts
            .windows(2)
            .any(|w| !t_ms[w[0] as usize..w[1] as usize].is_sorted())
        {
            return Err(FlatError::Inconsistent(tag::T_MS));
        }
        let mut interner = HostInterner::new();
        for (id, name) in names.into_iter().enumerate() {
            if interner.intern(name) as usize != id {
                return Err(FlatError::Inconsistent(tag::NAMES));
            }
        }
        if host.iter().any(|&h| h as usize >= interner.len()) {
            return Err(FlatError::Inconsistent(tag::HOST));
        }
        Ok(Self {
            user_starts,
            t_ms,
            host,
            wire_bytes,
            interner,
            days,
        })
    }
}

impl TraceAccess for TraceColumns {
    fn num_users(&self) -> usize {
        TraceColumns::num_users(self)
    }

    fn num_events(&self) -> usize {
        TraceColumns::num_events(self)
    }

    fn days(&self) -> u32 {
        TraceColumns::days(self)
    }

    fn host_name(&self, host: u32) -> &str {
        self.interner.name(host)
    }

    fn window_hosts(&self, user: u32, end_ms: u64, duration_ms: u64, out: &mut Vec<u32>) {
        let window = window_range(self.user_times(user), |&t| t as u64, end_ms, duration_ms);
        out.extend_from_slice(&self.user_hosts(user)[window]);
    }

    fn span_hosts(&self, user: u32, start_ms: u64, end_ms: u64, out: &mut Vec<u32>) {
        let span = span_range(self.user_times(user), |&t| t as u64, start_ms, end_ms);
        out.extend_from_slice(&self.user_hosts(user)[span]);
    }

    fn last_time_in(&self, user: u32, start_ms: u64, end_ms: u64) -> Option<u64> {
        let times = self.user_times(user);
        let span = span_range(times, |&t| t as u64, start_ms, end_ms);
        times[span].last().map(|&t| t as u64)
    }
}

/// Streaming builder: feed users in ascending id order, each user's
/// events in ascending time order; only the columns themselves are ever
/// resident. The interner may be pre-seeded (the synthetic path interns
/// the world's hostnames in `HostId` order, so column host ids coincide
/// with world ids).
#[derive(Debug)]
pub struct TraceColumnsBuilder {
    user_starts: Vec<u64>,
    t_ms: Vec<u32>,
    host: Vec<u32>,
    wire_bytes: Vec<u32>,
    interner: HostInterner,
    /// User currently being appended (`user_starts.len() - 2` once any
    /// user is open).
    last_user: Option<u32>,
    last_t: u64,
    days: u32,
}

impl TraceColumnsBuilder {
    /// A builder with a pre-seeded hostname table (possibly empty).
    pub fn new(interner: HostInterner, days: u32) -> Self {
        Self {
            user_starts: vec![0],
            t_ms: Vec::new(),
            host: Vec::new(),
            wire_bytes: Vec::new(),
            interner,
            last_user: None,
            last_t: 0,
            days,
        }
    }

    /// Reserve column capacity for an expected event count.
    pub fn reserve(&mut self, events: usize) {
        self.t_ms.reserve(events);
        self.host.reserve(events);
        self.wire_bytes.reserve(events);
    }

    /// Close ranges up to and including `user` so the next event belongs
    /// to `user`. Intermediate users get empty ranges.
    fn open_user(&mut self, user: u32) {
        let opened = self.user_starts.len() as u64 - 1; // users closed so far
        assert!(
            self.last_user.is_none_or(|u| user >= u),
            "users must arrive in ascending order (got {user} after {:?})",
            self.last_user
        );
        if self.last_user != Some(user) {
            for _ in opened..=user as u64 {
                // Empty ranges for skipped users, then open `user`.
                self.user_starts.push(self.t_ms.len() as u64);
            }
            // The freshly pushed boundary for `user` itself is provisional;
            // pop it — it is re-pushed (final) when the next user opens or
            // at finish.
            self.user_starts.pop();
            self.last_user = Some(user);
            self.last_t = 0;
        }
    }

    /// Append one observation with an already-interned host id.
    pub fn push_event(&mut self, user: u32, t_ms: u64, host: u32, wire_bytes: u32) {
        self.open_user(user);
        assert!(
            t_ms >= self.last_t,
            "events within a user must be time-ascending ({t_ms} after {})",
            self.last_t
        );
        assert!(
            t_ms <= u32::MAX as u64,
            "timestamp {t_ms} exceeds the u32 horizon (~49.7 days)"
        );
        assert!(
            (host as usize) < self.interner.len(),
            "unknown host id {host}"
        );
        self.last_t = t_ms;
        self.t_ms.push(t_ms as u32);
        self.host.push(host);
        self.wire_bytes.push(wire_bytes);
    }

    /// Append one observation by hostname, interning it.
    pub fn push_named_event(&mut self, user: u32, t_ms: u64, hostname: &str, wire_bytes: u32) {
        let host = self.interner.intern(hostname);
        self.push_event(user, t_ms, host, wire_bytes);
    }

    /// Seal the store, padding the offset table to `num_users`.
    pub fn finish(mut self, num_users: usize) -> TraceColumns {
        assert!(
            self.last_user.is_none_or(|u| (u as usize) < num_users),
            "events recorded past num_users"
        );
        while self.user_starts.len() < num_users + 1 {
            self.user_starts.push(self.t_ms.len() as u64);
        }
        TraceColumns {
            user_starts: self.user_starts,
            t_ms: self.t_ms,
            host: self.host,
            wire_bytes: self.wire_bytes,
            interner: self.interner,
            days: self.days,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceColumns {
        let mut b = TraceColumnsBuilder::new(HostInterner::new(), 2);
        b.push_named_event(0, 100, "a.example", 220);
        b.push_named_event(0, 500, "b.example", 230);
        b.push_named_event(0, 500, "a.example", 220);
        // user 1 idle; user 2 active on day 2 (day_ms = 1000 for tests).
        b.push_named_event(2, 1200, "c.example", 240);
        b.push_named_event(2, 1300, "a.example", 220);
        b.finish(4)
    }

    #[test]
    fn ranges_and_columns_line_up() {
        let c = sample();
        assert_eq!(c.num_users(), 4);
        assert_eq!(c.num_events(), 5);
        assert_eq!(c.user_range(0), 0..3);
        assert_eq!(c.user_range(1), 3..3);
        assert_eq!(c.user_range(2), 3..5);
        assert_eq!(c.user_range(3), 5..5);
        assert_eq!(c.user_times(0), [100, 500, 500]);
        let names: Vec<&str> = c.user_hosts(2).iter().map(|&h| c.host_name(h)).collect();
        assert_eq!(names, ["c.example", "a.example"]);
        assert_eq!(c.wire_bytes, [220, 230, 220, 240, 220]);
    }

    #[test]
    fn window_semantics_match_the_materialized_trace() {
        let c = sample();
        let mut out = Vec::new();
        // (0, 500]: excludes t = 100? No — window (end−dur, end] with
        // end = 500, dur = 400 → (100, 500]: t=100 excluded, both t=500 in.
        c.window_hosts(0, 500, 400, &mut out);
        assert_eq!(out.len(), 2);
        // Epoch-touching: dur = 500 → start 0 → keep everything ≤ 500.
        out.clear();
        c.window_hosts(0, 500, 500, &mut out);
        assert_eq!(out.len(), 3);
        // dur > end: same.
        out.clear();
        c.window_hosts(0, 500, u64::MAX, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn spans_and_last_time_bucket_days() {
        let c = sample();
        let mut out = Vec::new();
        c.span_hosts(2, 1000, 2000, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(c.last_time_in(2, 1000, 2000), Some(1300));
        assert_eq!(c.last_time_in(2, 0, 1000), None);
        assert_eq!(c.last_time_in(1, 0, u64::MAX), None);
        let daily = c.daily_sequences(1, 1000);
        assert_eq!(daily.len(), 1);
        assert_eq!(daily[0].0, 2);
        assert_eq!(daily[0].1.len(), 2);
    }

    #[test]
    fn flat_roundtrip_is_bit_identical() {
        let c = sample();
        let buf = c.to_flat_bytes();
        let back = TraceColumns::from_flat_bytes(&buf).unwrap();
        assert_eq!(back.num_users(), c.num_users());
        assert_eq!(back.days(), c.days());
        assert_eq!(back.wire_bytes, c.wire_bytes);
        for u in 0..c.num_users() as u32 {
            assert_eq!(back.user_times(u), c.user_times(u));
            assert_eq!(back.user_hosts(u), c.user_hosts(u));
        }
        for id in 0..c.interner().len() as u32 {
            assert_eq!(back.interner().name(id), c.interner().name(id));
        }
        // Deterministic encoding: same store, same bytes.
        assert_eq!(back.to_flat_bytes(), buf);
    }

    /// Every prefix and every single-bit flip of a store's flat bytes
    /// decodes to an error or to a store every accessor can walk: each
    /// user's windows, spans and day sequences, and the name behind every
    /// host id the user visited.
    #[test]
    fn corrupt_flat_bytes_error_cleanly() {
        let buf = sample().to_flat_bytes();
        let walk = |bytes: &[u8]| -> bool {
            let Ok(c) = TraceColumns::from_flat_bytes(bytes) else {
                return false;
            };
            let mut out = Vec::new();
            let times = [0, 100, 500, 1_200, 1_300, u32::MAX as u64, u64::MAX];
            for user in 0..c.num_users() as u32 {
                for &h in c.user_hosts(user) {
                    c.host_name(h);
                }
                // `user_times` promises ascending times, as the windows need.
                assert!(c.user_times(user).is_sorted());
                for &end in &times {
                    for &other in &times {
                        c.window_hosts(user, end, other, &mut out);
                        let start = other.min(end);
                        c.span_hosts(user, start, end, &mut out);
                        c.last_time_in(user, start, end);
                    }
                }
            }
            c.daily_sequences(1, 1_000);
            true
        };
        assert!(walk(&buf));
        for len in 0..buf.len() {
            assert!(!walk(&buf[..len]), "a {len}-byte prefix decoded");
        }
        let mut decoded = 0;
        for bit in 0..buf.len() * 8 {
            let mut flipped = buf.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            decoded += walk(&flipped) as usize;
        }
        // Flips in times, wire bytes and padding decode; the rest do not.
        assert!(decoded > 0 && decoded < buf.len() * 8, "{decoded} decoded");
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn rejects_user_regression() {
        let mut b = TraceColumnsBuilder::new(HostInterner::new(), 1);
        b.push_named_event(3, 10, "a", 0);
        b.push_named_event(1, 20, "a", 0);
    }

    #[test]
    #[should_panic(expected = "time-ascending")]
    fn rejects_time_regression_within_user() {
        let mut b = TraceColumnsBuilder::new(HostInterner::new(), 1);
        b.push_named_event(0, 100, "a", 0);
        b.push_named_event(0, 99, "a", 0);
    }

    #[test]
    #[should_panic(expected = "u32 horizon")]
    fn rejects_timestamps_past_the_horizon() {
        let mut b = TraceColumnsBuilder::new(HostInterner::new(), 1);
        b.push_named_event(0, u32::MAX as u64 + 1, "a", 0);
    }

    #[test]
    fn preseeded_interner_keeps_world_ids() {
        let mut seed = HostInterner::new();
        for name in ["zero.example", "one.example", "two.example"] {
            seed.intern(name);
        }
        let mut b = TraceColumnsBuilder::new(seed, 1);
        b.push_event(0, 5, 2, 0);
        b.push_event(0, 6, 0, 0);
        let c = b.finish(1);
        assert_eq!(c.host_name(2), "two.example");
        assert_eq!(c.user_hosts(0), [2, 0]);
    }

    #[test]
    fn heap_bytes_is_twelve_per_event_plus_table() {
        let mut b = TraceColumnsBuilder::new(HostInterner::new(), 1);
        b.reserve(1000);
        for i in 0..1000u64 {
            b.push_named_event(0, i, "only.example", 200);
        }
        let c = b.finish(1);
        let per_event = (c.heap_bytes() - c.interner().heap_bytes()) as f64 / 1000.0;
        assert!(per_event < 16.0, "flat cost {per_event} B/event");
    }
}
