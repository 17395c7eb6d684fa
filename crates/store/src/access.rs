//! The accessor trait through which the batch profiler and the serving
//! engine read a trace without knowing its representation.
//!
//! [`TraceColumns`](crate::TraceColumns) (the columnar form, in this
//! crate) is the one production implementation; the rest are test fakes.
//! Host ids are opaque `u32`s scoped to the implementation — consumers
//! resolve them through [`TraceAccess::host_name`] and never compare ids
//! across implementations.

use std::ops::Range;

/// Index range of the session window `(end_ms − duration_ms, end_ms]` in
/// `events`, which must ascend by `time_ms` — the paper's `T`-minute
/// window, and the one statement of its rule: a window whose start falls
/// at or before the epoch has no exclusive lower bound, so it keeps an
/// event stamped exactly 0.
pub fn window_range<T>(
    events: &[T],
    time_ms: impl Fn(&T) -> u64,
    end_ms: u64,
    duration_ms: u64,
) -> Range<usize> {
    let lo = match end_ms.checked_sub(duration_ms) {
        None => 0,
        Some(0) if duration_ms > 0 => 0,
        Some(start) => events.partition_point(|e| time_ms(e) <= start),
    };
    lo..events.partition_point(|e| time_ms(e) <= end_ms)
}

/// Index range of the span `[start_ms, end_ms)` in `events`, which must
/// ascend by `time_ms` — the daily-corpus bucketing.
pub fn span_range<T>(
    events: &[T],
    time_ms: impl Fn(&T) -> u64,
    start_ms: u64,
    end_ms: u64,
) -> Range<usize> {
    events.partition_point(|e| time_ms(e) < start_ms)
        ..events.partition_point(|e| time_ms(e) < end_ms)
}

/// Read-only trace access: per-user time-ordered host sequences.
///
/// Window semantics are [`window_range`]'s, span semantics
/// [`span_range`]'s.
pub trait TraceAccess {
    /// Number of users the trace covers (indexed population size).
    fn num_users(&self) -> usize;

    /// Total observations stored.
    fn num_events(&self) -> usize;

    /// Simulated days the trace spans.
    fn days(&self) -> u32;

    /// Resolve a host id to its hostname.
    fn host_name(&self, host: u32) -> &str;

    /// Append the hosts `user` contacted in `(end_ms − duration_ms,
    /// end_ms]` to `out`, time order, duplicates preserved.
    fn window_hosts(&self, user: u32, end_ms: u64, duration_ms: u64, out: &mut Vec<u32>);

    /// Append the hosts `user` contacted in `[start_ms, end_ms)` to
    /// `out`, time order, duplicates preserved.
    fn span_hosts(&self, user: u32, start_ms: u64, end_ms: u64, out: &mut Vec<u32>);

    /// The time of `user`'s last event in `[start_ms, end_ms)`, if any —
    /// the session anchor for a day-end profile.
    fn last_time_in(&self, user: u32, start_ms: u64, end_ms: u64) -> Option<u64>;
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMES: [u64; 6] = [0, 0, 5, 10, 10, 20];

    fn window(end_ms: u64, duration_ms: u64) -> Range<usize> {
        window_range(&TIMES, |&t| t, end_ms, duration_ms)
    }

    #[test]
    fn window_is_half_open_on_the_left_except_at_the_epoch() {
        assert_eq!(window(10, 5), 3..5, "(5, 10] drops t = 5");
        assert_eq!(window(20, 15), 3..6);
        // Start exactly at, or before, the epoch: t = 0 is kept.
        assert_eq!(window(10, 10), 0..5);
        assert_eq!(window(10, 1_000), 0..5);
        assert_eq!(window(0, 1), 0..2);
        // An empty window stays empty, at the epoch too.
        assert_eq!(window(0, 0), 2..2);
        assert_eq!(window(10, 0), 5..5);
        assert_eq!(window(u64::MAX, 1), 6..6);
    }

    #[test]
    fn span_is_half_open_on_the_right() {
        let span = |start, end| span_range(&TIMES, |&t| t, start, end);
        assert_eq!(span(0, 10), 0..3);
        assert_eq!(span(5, 11), 2..5);
        assert_eq!(span(21, 30), 6..6);
        assert_eq!(span(10, 10), 3..3);
    }
}
