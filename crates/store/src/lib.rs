//! # hostprof-store
//!
//! Columnar, interned trace storage (DESIGN.md §13) — the memory-lean
//! representation that makes a 10⁶-user synthetic world tractable in one
//! process.
//!
//! The batch pipeline historically carried observations as per-event
//! `String` hostnames inside per-user `Vec`s of structs. At a few hundred
//! users that is fine; at a million users the allocator overhead and
//! pointer chasing dominate, and the "production-scale" claim stops being
//! credible. This crate replaces that shape with three pieces:
//!
//! * [`HostInterner`] — a global append-only hostname table. Every
//!   distinct hostname is stored **once** in a contiguous byte arena and
//!   addressed by a dense `u32` id; lookups go through a hash index that
//!   stores ids, not copies of the strings.
//! * [`TraceColumns`] — structure-of-arrays observation storage:
//!   parallel `timestamps` / `host id` / `wire-byte count` columns laid
//!   out user-major, with a CSR offset table giving each user's
//!   observation range. Timestamps are `u32` milliseconds (a ~49-day
//!   horizon, checked at build time), so one observation costs 12 bytes
//!   flat — no per-event allocation at all. The user-id column of the
//!   conceptual `(t, user, host, bytes)` quadruple is delta-encoded by
//!   the offset table rather than materialized.
//! * [`TraceAccess`] — the accessor trait through which batch consumers
//!   read a trace without knowing its representation; [`TraceColumns`]
//!   is its one implementation outside tests.
//!
//! [`flat`] provides the mmap-friendly on-disk layout (aligned
//! little-endian sections behind a table of contents: fixed-width
//! columns and string tables) — the one container for traces
//! ([`TraceColumns`]) and trained models (the embedding store).

pub mod access;
pub mod columns;
pub mod flat;
pub mod intern;

pub use access::{span_range, window_range, TraceAccess};
pub use columns::{TraceColumns, TraceColumnsBuilder};
pub use flat::{FlatError, FlatReader, FlatWriter};
pub use intern::HostInterner;
