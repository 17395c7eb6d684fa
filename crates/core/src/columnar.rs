//! Batch profiling input from columnar storage.
//!
//! [`SessionSource`] derives day-end sessions and SKIPGRAM training
//! corpora from anything implementing [`TraceAccess`] — the columnar
//! store, or a test's fixed trace — resolving interned host ids
//! to `&str` only at the [`Session`] boundary. No intermediate
//! `Vec<String>` is ever built, which is what keeps the 10⁶-user batch
//! pass allocation-free up to the sessions themselves.

use crate::session::Session;
use hostprof_ontology::Blocklist;
use hostprof_store::TraceAccess;

/// Day-oriented session extraction over a [`TraceAccess`].
pub struct SessionSource<'a, T: TraceAccess> {
    trace: &'a T,
    /// Session window length `T` (paper: 20 minutes).
    session_window_ms: u64,
    /// Day length (the trace generator's `DAY_MS`; parameterized so tests
    /// can shrink it).
    day_ms: u64,
}

impl<'a, T: TraceAccess> SessionSource<'a, T> {
    /// A source reading `trace` with the given window and day lengths.
    pub fn new(trace: &'a T, session_window_ms: u64, day_ms: u64) -> Self {
        Self {
            trace,
            session_window_ms,
            day_ms,
        }
    }

    /// The session ending at `user`'s last request of `day` — the batch
    /// pipeline's anchor rule. `None` when the user was idle that day;
    /// `scratch` is caller-provided so a sweep over a million users
    /// reuses one buffer.
    pub fn day_session(
        &self,
        user: u32,
        day: u32,
        blocklist: Option<&Blocklist>,
        scratch: &mut Vec<u32>,
    ) -> Option<Session> {
        let start = day as u64 * self.day_ms;
        let anchor = self.trace.last_time_in(user, start, start + self.day_ms)?;
        scratch.clear();
        self.trace
            .window_hosts(user, anchor, self.session_window_ms, scratch);
        Some(Session::from_window(
            scratch.iter().map(|&h| self.trace.host_name(h)),
            blocklist,
        ))
    }

    /// Day-end sessions for every user active on `day`, ascending by
    /// user id, empty-after-filtering sessions included (the profiler
    /// skips them but the counts stay honest).
    pub fn day_sessions(&self, day: u32, blocklist: Option<&Blocklist>) -> Vec<(u32, Session)> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        for user in 0..self.trace.num_users() as u32 {
            if let Some(s) = self.day_session(user, day, blocklist, &mut scratch) {
                out.push((user, s));
            }
        }
        out
    }

    /// Per-user hostname sequences for `day` — the SKIPGRAM training
    /// corpus, borrowing names straight out of the trace's hostname
    /// table. Idle users are omitted.
    pub fn train_sequences(&self, day: u32) -> Vec<Vec<&'a str>> {
        let start = day as u64 * self.day_ms;
        let mut ids = Vec::new();
        let mut out = Vec::new();
        for user in 0..self.trace.num_users() as u32 {
            ids.clear();
            self.trace
                .span_hosts(user, start, start + self.day_ms, &mut ids);
            if !ids.is_empty() {
                out.push(ids.iter().map(|&h| self.trace.host_name(h)).collect());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostprof_store::{span_range, window_range};

    /// A hand-built TraceAccess: two users, fixed events.
    struct Fixed {
        names: Vec<&'static str>,
        events: Vec<Vec<(u64, u32)>>,
    }

    impl TraceAccess for Fixed {
        fn num_users(&self) -> usize {
            self.events.len()
        }
        fn num_events(&self) -> usize {
            self.events.iter().map(Vec::len).sum()
        }
        fn days(&self) -> u32 {
            2
        }
        fn host_name(&self, host: u32) -> &str {
            self.names[host as usize]
        }
        fn window_hosts(&self, user: u32, end_ms: u64, duration_ms: u64, out: &mut Vec<u32>) {
            let events = &self.events[user as usize];
            let window = window_range(events, |&(t, _)| t, end_ms, duration_ms);
            out.extend(events[window].iter().map(|&(_, h)| h));
        }
        fn span_hosts(&self, user: u32, start_ms: u64, end_ms: u64, out: &mut Vec<u32>) {
            let events = &self.events[user as usize];
            let span = span_range(events, |&(t, _)| t, start_ms, end_ms);
            out.extend(events[span].iter().map(|&(_, h)| h));
        }
        fn last_time_in(&self, user: u32, start_ms: u64, end_ms: u64) -> Option<u64> {
            self.events[user as usize]
                .iter()
                .filter(|(t, _)| *t >= start_ms && *t < end_ms)
                .map(|(t, _)| *t)
                .next_back()
        }
    }

    fn fixture() -> Fixed {
        Fixed {
            names: vec!["a.example", "b.example", "c.example"],
            // day_ms = 1000 in tests.
            events: vec![
                vec![(100, 0), (150, 1), (150, 0), (900, 2)],
                vec![(1100, 2), (1200, 2)],
            ],
        }
    }

    #[test]
    fn day_session_anchors_at_last_event_and_dedups() {
        let f = fixture();
        let src = SessionSource::new(&f, 850, 1000);
        let mut scratch = Vec::new();
        // User 0, day 0: anchor 900, window (50, 900] = all four events,
        // first-visit dedup keeps a, b, c.
        let s = src.day_session(0, 0, None, &mut scratch).unwrap();
        assert_eq!(s.hostnames(), &["a.example", "b.example", "c.example"]);
        // User 0 is idle on day 1.
        assert!(src.day_session(0, 1, None, &mut scratch).is_none());
        // User 1, day 1: anchor 1200, window (350, 1200].
        let s = src.day_session(1, 1, None, &mut scratch).unwrap();
        assert_eq!(s.hostnames(), &["c.example"]);
    }

    #[test]
    fn day_sessions_cover_active_users_in_order() {
        let f = fixture();
        let src = SessionSource::new(&f, 850, 1000);
        let day0 = src.day_sessions(0, None);
        assert_eq!(day0.len(), 1);
        assert_eq!(day0[0].0, 0);
        let day1 = src.day_sessions(1, None);
        assert_eq!(day1.len(), 1);
        assert_eq!(day1[0].0, 1);
    }

    #[test]
    fn train_sequences_keep_duplicates_and_borrow_names() {
        let f = fixture();
        let src = SessionSource::new(&f, 850, 1000);
        let seqs = src.train_sequences(0);
        assert_eq!(
            seqs,
            vec![vec!["a.example", "b.example", "a.example", "c.example"]]
        );
        let seqs = src.train_sequences(1);
        assert_eq!(seqs, vec![vec!["c.example", "c.example"]]);
    }
}
