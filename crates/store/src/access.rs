//! The accessor trait through which the batch profiler and the serving
//! engine read a trace without knowing its representation.
//!
//! [`TraceColumns`](crate::TraceColumns) (the columnar form, in this
//! crate) is the one production implementation; the rest are test fakes.
//! Host ids are opaque `u32`s scoped to the implementation — consumers
//! resolve them through [`TraceAccess::host_name`] and never compare ids
//! across implementations.

/// Read-only trace access: per-user time-ordered host sequences.
///
/// Window semantics are the paper's (and `Trace::window`'s): half-open
/// `(end − duration, end]`, except that a window whose start falls at or
/// before the epoch keeps the request stamped exactly 0. Span semantics
/// are half-open `[start, end)` — the daily-corpus bucketing.
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
