//! The always-on serving loop: ingest → window → profile.
//!
//! The paper's deployment is a *service*, not a batch job: an on-path
//! observer watches traffic continuously and re-profiles every active user
//! on a 10-minute report cadence (Section 5.4). This module restructures
//! the batch pipeline into that shape (DESIGN.md §12):
//!
//! * **Sharded ingest lanes** — N independent [`SniObserver`]s, one per
//!   lane, with every packet routed by a hash of its client IP so all
//!   traffic of one client lands on the same lane. Per-client packet order
//!   is therefore preserved regardless of the lane count, which is what
//!   makes profiles bit-identical across `lanes ∈ {1, 4, …}`.
//! * **Incremental windowing** ([`IncrementalWindower`]) — per-user event
//!   timelines of `(time, interned host id)` kept sorted under
//!   out-of-order arrival, with eviction bounded to one session window
//!   behind the last closed tick.
//! * **Bounded-lateness watermarking** — the watermark trails the maximum
//!   packet timestamp by `lateness_ms`; a report tick at boundary `W`
//!   fires only once the watermark passes `W`, so any event with `t ≤ W`
//!   that arrives at most `lateness_ms` after the stream reached `W` still
//!   lands in the right window. Events arriving *beyond* the bound are
//!   dropped and counted ([`IncrementalWindower::late_dropped`]), never
//!   silently misfiled.
//! * **Tick scheduler** — boundaries at every multiple of
//!   `report_interval_ms`; each tick profiles exactly the users whose
//!   latest activity falls in `(W_prev, W]`, through the existing
//!   [`BatchProfiler`] (and therefore whatever [`NnIndex`] the profiler
//!   was configured with), so a tick's cost is one batched kNN pass.
//! * **Ticks run on host ids** — a tick closes into a [`TickClose`] (one
//!   arena of ids, one `(user, anchor, range)` per fresh user), and the
//!   engine lowercases, blocklist-filters and first-visit-dedups each
//!   window on ids alone: what a name *is* (blocked, a case variant of an
//!   earlier host) is decided once per distinct interned id for the life
//!   of the engine, what it *means* under the model (embedding row,
//!   ontology label) once per id per model version, and "seen in this
//!   window" is an epoch-stamped dense array. The surviving hosts go to
//!   [`BatchProfiler::profile_resolved`] as one arena of
//!   [`ResolvedHost`]s and one range per session, so a steady-state tick
//!   reads no hostname and allocates per *session*, not per host.
//!   [`IncrementalWindower::close_tick`] and [`Session::from_window`] are
//!   the string-typed views of the same two steps, for callers outside the
//!   tick and as the reference the id path is tested against.
//!
//! ## Equivalence contract
//!
//! Feeding a finite packet stream through [`ServeEngine`] and flushing
//! produces, for every user, the same sequence of `(anchor, profile)`
//! pairs a batch run would compute by anchoring a session at the user's
//! last request before each tick boundary — bit-identical, for any lane
//! count and any arrival interleaving whose disorder stays within the
//! lateness bound. `tests/streaming_equivalence.rs` proves this against
//! the batch pipeline with chaos-generated reorderings; golden replay
//! (`hostprof serve --golden`) pins the streaming path to the same
//! committed snapshots as the batch path.
//!
//! [`NnIndex`]: hostprof_embed::index::NnIndex
//! [`Session::from_window`]: crate::session::Session::from_window

use crate::batch::BatchProfiler;
use crate::profiler::{Profiler, ResolvedHost, SessionProfile};
use crate::session::ascii_lower;
use crate::versioned::{ModelVersion, VersionedModel};
use hostprof_net::hash::KeyedState;
use hostprof_net::{FlowStats, ObserverConfig, ObserverStats, Packet, SniObserver};
use hostprof_ontology::Blocklist;
use hostprof_store::HostInterner;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::time::Instant;

/// Knobs of the serving loop.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Ingest lanes (per-lane observers). Packets shard by client IP.
    pub lanes: usize,
    /// Session window length `T` (paper: 20 minutes).
    pub session_window_ms: u64,
    /// Report tick cadence (paper: 10 minutes).
    pub report_interval_ms: u64,
    /// Watermark lag: how far behind the newest packet timestamp the
    /// event-time clock runs. Out-of-order arrivals within this bound are
    /// windowed exactly; beyond it they are dropped and counted.
    pub lateness_ms: u64,
    /// Ingest limits for every lane observer.
    pub observer: ObserverConfig,
    /// Whether lane observers harvest plaintext DNS names too.
    pub harvest_dns: bool,
    /// Keep a copy of every closed window (pre-dedup, in tick order) so
    /// the online trainer can harvest them as an update corpus via
    /// [`ServeEngine::take_closed_windows`]. Off by default — serving
    /// alone should not accumulate unbounded window history.
    pub collect_windows: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            lanes: 1,
            session_window_ms: 20 * 60 * 1000,
            report_interval_ms: 10 * 60 * 1000,
            lateness_ms: 2000,
            observer: ObserverConfig::default(),
            harvest_dns: false,
            collect_windows: false,
        }
    }
}

/// One user's window close at a tick: the raw (pre-dedup) hostname window
/// behind the anchor, in event-time order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowClose {
    /// Client key (IP).
    pub user: u32,
    /// The user's last event time at or before the tick boundary; the
    /// session window is `(anchor - T, anchor]`.
    pub anchor: u64,
    /// Hostnames in the window, duplicates intact, time-ordered.
    pub window: Vec<String>,
}

/// One tick's window closes in id form: every fresh user's window as a
/// slice of one shared arena of interned host ids. This is what a tick
/// runs on — building it allocates twice per tick, not once per event,
/// and dropping it frees one buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickClose {
    /// Every closed window's host ids, back to back.
    ids: Vec<u32>,
    /// `(user, anchor, range into ids)`, ascending by user.
    windows: Vec<(u32, u64, Range<usize>)>,
}

impl TickClose {
    /// Whether no user had fresh activity.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The closed windows, ascending by user key.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = IdWindow<'_>> {
        self.windows.iter().map(|(user, anchor, range)| IdWindow {
            user: *user,
            anchor: *anchor,
            hosts: &self.ids[range.clone()],
        })
    }
}

/// One user's window inside a [`TickClose`] — [`WindowClose`] with host
/// ids in place of names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdWindow<'a> {
    /// Client key (IP).
    pub user: u32,
    /// The user's last event time at or before the tick boundary.
    pub anchor: u64,
    /// Interned host ids in the window, duplicates intact, time-ordered.
    pub hosts: &'a [u32],
}

impl IdWindow<'_> {
    /// The string form: one owned hostname per event, as inserted.
    fn materialize(&self, interner: &HostInterner) -> WindowClose {
        WindowClose {
            user: self.user,
            anchor: self.anchor,
            window: self
                .hosts
                .iter()
                .map(|h| interner.name(*h).to_string())
                .collect(),
        }
    }
}

/// Per-user incremental session windowing under out-of-order arrival.
///
/// Each user's events are kept time-sorted with *stable* insertion (an
/// event inserts after all existing events of equal time), so an in-order
/// feed reproduces arrival order exactly and a bounded-disorder feed
/// converges to the same timeline a global sort would produce. Closing a
/// tick at boundary `W` yields, for every user whose latest `t ≤ W` event
/// is newer than the previous boundary, the window `(anchor - T, anchor]`
/// — precisely the batch pipeline's session for that user at that tick.
///
/// Memory is bounded: closing a tick evicts every event that can no
/// longer appear in any future window (anything at or before
/// `(W + 1) - T`), so a user retains at most one window plus the events
/// that arrived past the last closed boundary.
#[derive(Debug)]
pub struct IncrementalWindower {
    window_ms: u64,
    /// Each user's buffered events, behind the serve path's keyed hasher:
    /// an insert is one probe. Never iterated, so its order reaches no
    /// output.
    users: HashMap<u32, UserEvents, KeyedState>,
    /// The hostname table the event ids index into. Append-only; ids are
    /// dense in first-seen order, so replaying the same stream rebuilds
    /// the same table (pinned by the oracle's interner differential).
    interner: HostInterner,
    /// Users with activity not yet covered by a closed tick, each pushed
    /// once, when its [`UserEvents::dirty`] flag flips. Sorted at every
    /// close, so every tick visits users in ascending key order —
    /// determinism across runs, lane counts and hash keys.
    dirty: Vec<u32>,
    /// Boundary of the last closed tick; events at or before it arrive
    /// too late to be windowed correctly and are dropped, counted.
    closed_through: Option<u64>,
    late_dropped: u64,
    resident_events: usize,
    peak_resident_events: usize,
}

/// One user's events in an [`IncrementalWindower`].
#[derive(Debug, Default)]
struct UserEvents {
    /// `(time, interned host id)`, time-sorted — 12 bytes of payload per
    /// event instead of an owned `String`, with every distinct hostname
    /// stored once in the interner.
    events: VecDeque<(u64, u32)>,
    /// Whether the user is on the windower's dirty list.
    dirty: bool,
}

impl IncrementalWindower {
    /// A windower for session length `window_ms`.
    pub fn new(window_ms: u64) -> Self {
        Self {
            window_ms,
            users: HashMap::with_hasher(KeyedState::new()),
            interner: HostInterner::new(),
            dirty: Vec::new(),
            closed_through: None,
            late_dropped: 0,
            resident_events: 0,
            peak_resident_events: 0,
        }
    }

    /// Insert one event. Returns `false` (and counts the drop) when the
    /// event lands at or before an already-closed tick boundary — the
    /// window it belonged to has been reported and cannot be reopened.
    pub fn insert(&mut self, user: u32, t: u64, hostname: &str) -> bool {
        if let Some(closed) = self.closed_through {
            if t <= closed {
                self.late_dropped += 1;
                return false;
            }
        }
        let host = self.interner.intern(hostname);
        let slot = self.users.entry(user).or_default();
        let events = &mut slot.events;
        // Stable sorted insert: after every existing event with time ≤ t.
        // An in-order event goes to the back without a search.
        if events.back().is_none_or(|&(last, _)| last <= t) {
            events.push_back((t, host));
        } else {
            let pos = events.partition_point(|(et, _)| *et <= t);
            events.insert(pos, (t, host));
        }
        if !slot.dirty {
            slot.dirty = true;
            self.dirty.push(user);
        }
        self.resident_events += 1;
        self.peak_resident_events = self.peak_resident_events.max(self.resident_events);
        true
    }

    /// Close the tick at boundary `w` (must be past any previously closed
    /// boundary): report a [`WindowClose`] for every user whose latest
    /// event at or before `w` is fresh (newer than the previous boundary),
    /// evict events no future window can contain, and advance the
    /// late-arrival floor to `w`. Users are reported in ascending key
    /// order.
    ///
    /// This is the string view of [`close_tick_ids`](Self::close_tick_ids):
    /// the same close with every host id mapped to its name, one `String`
    /// per event. The engine's tick stays on the id form.
    pub fn close_tick(&mut self, w: u64) -> Vec<WindowClose> {
        let close = self.close_tick_ids(w);
        close
            .iter()
            .map(|window| window.materialize(&self.interner))
            .collect()
    }

    /// [`close_tick`](Self::close_tick) in id form: every fresh user's
    /// window as a slice of interned host ids (resolve one with
    /// [`host_name`](Self::host_name)), all slices in one arena.
    pub fn close_tick_ids(&mut self, w: u64) -> TickClose {
        debug_assert!(self.closed_through.is_none_or(|p| w > p));
        let prev = self.closed_through;
        let mut close = TickClose::default();
        // Events at or before this can never appear in a future window:
        // every future anchor is > w, so every future window starts after
        // (w + 1) - T. A zero threshold means windows still reach the
        // epoch, where the boundary is inclusive — evict nothing.
        let evict_through = (w + 1).saturating_sub(self.window_ms);
        let (users, resident_events) = (&mut self.users, &mut self.resident_events);
        self.dirty.sort_unstable();
        // Keeps the users with activity past this boundary — the next tick
        // must look at them again — in ascending order.
        self.dirty.retain(|&user| {
            let Some(slot) = users.get_mut(&user) else {
                return false;
            };
            let events = &mut slot.events;
            let upto = events.partition_point(|(t, _)| *t <= w);
            if upto > 0 {
                let anchor = events[upto - 1].0;
                if prev.is_none_or(|p| anchor > p) {
                    let start_idx = match anchor.checked_sub(self.window_ms) {
                        // Window reaches (or starts exactly at) the epoch:
                        // inclusive from t = 0.
                        None | Some(0) => 0,
                        Some(start) => events.partition_point(|(t, _)| *t <= start),
                    };
                    // Ids only: hostnames are materialized downstream, and
                    // only the ones that survive dedup and filtering.
                    let start = close.ids.len();
                    close
                        .ids
                        .extend(events.range(start_idx..upto).map(|(_, h)| *h));
                    close.windows.push((user, anchor, start..close.ids.len()));
                }
            }
            if evict_through > 0 {
                while events.front().is_some_and(|(t, _)| *t <= evict_through) {
                    events.pop_front();
                    *resident_events -= 1;
                }
            }
            if events.is_empty() {
                users.remove(&user);
                return false;
            }
            slot.dirty = events.back().is_some_and(|(t, _)| *t > w);
            slot.dirty
        });
        self.closed_through = Some(w);
        close
    }

    /// The hostname behind an id from [`close_tick_ids`](Self::close_tick_ids),
    /// exactly as it was inserted. Panics on an id this windower never
    /// issued.
    pub fn host_name(&self, id: u32) -> &str {
        self.interner.name(id)
    }

    /// Events dropped for arriving beyond the lateness bound.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Distinct hostnames interned so far.
    pub fn interned_hosts(&self) -> usize {
        self.interner.len()
    }

    /// Events currently buffered across all users.
    pub fn resident_events(&self) -> usize {
        self.resident_events
    }

    /// High-water mark of [`resident_events`](Self::resident_events).
    pub fn peak_resident_events(&self) -> usize {
        self.peak_resident_events
    }

    /// Earliest event not yet covered by a closed tick, across all dirty
    /// users — the next tick boundary at or past it is the first boundary
    /// that can report anything. `None` when no such event exists, which
    /// lets the scheduler fast-forward across idle stretches.
    pub fn min_pending_event(&self) -> Option<u64> {
        self.dirty
            .iter()
            .filter_map(|u| {
                let events = &self.users.get(u)?.events;
                match self.closed_through {
                    None => events.front().map(|(t, _)| *t),
                    Some(floor) => {
                        let i = events.partition_point(|(t, _)| *t <= floor);
                        events.get(i).map(|(t, _)| *t)
                    }
                }
            })
            .min()
    }
}

/// Marks a blocklisted host in [`SessionBuilder::canon`]. Never a real id:
/// the interner's arena is `u32`-addressed, so it cannot hold `u32::MAX`
/// names.
const BLOCKED: u32 = u32::MAX;

/// Turns a tick's id windows into the sessions the profiling kernel reads
/// — lowercase, blocklist filter, first-visit dedup, resolve — without
/// touching a string per event, or in the steady state at all.
///
/// What a name *is* is decided once per distinct interned id, for the
/// life of the engine, in side tables parallel to the windower's interner;
/// those are append-only and never invalidated: the interner only ever
/// appends, and the blocklist is fixed at construction. What a name
/// *means* under the model is decided once per canonical id per model
/// version, on first use.
struct SessionBuilder<'a> {
    blocklist: Option<&'a Blocklist>,
    /// Interned id → [`BLOCKED`], or the canonical id of the host's
    /// lowercase form: the smallest id whose name lowercases to the same
    /// string (the id itself whenever no case variant was interned first).
    canon: Vec<u32>,
    /// Lowercase form → canonical id, only for forms reached from a name
    /// with an uppercase byte. Empty on observer-fed engines, whose lanes
    /// lowercase on the wire side.
    folded: HashMap<String, u32>,
    /// Per canonical id, the epoch of the last window that took the host:
    /// bumping `epoch` resets the whole array in O(1).
    seen: Vec<u32>,
    epoch: u32,
    /// Per canonical id, the host resolved against `resolved_for`; `None`
    /// until a window of that version first takes it.
    resolved: Vec<Option<ResolvedHost<'a>>>,
    /// The version `resolved` was filled against, compared by address (a
    /// version cannot be pruned, so its address cannot be reused, while
    /// the engine borrows the handle); `None` under a fixed profiler.
    resolved_for: Option<&'a ModelVersion>,
    /// The tick under construction: every session's hosts in first-visit
    /// order, back to back, and one range per session. Kept between ticks
    /// for their capacity.
    hosts: Vec<ResolvedHost<'a>>,
    sessions: Vec<Range<usize>>,
}

impl<'a> SessionBuilder<'a> {
    fn new(blocklist: Option<&'a Blocklist>) -> Self {
        Self {
            blocklist,
            canon: Vec::new(),
            folded: HashMap::new(),
            seen: Vec::new(),
            epoch: 0,
            resolved: Vec::new(),
            resolved_for: None,
            hosts: Vec::new(),
            sessions: Vec::new(),
        }
    }

    /// Start a tick profiled against `version` (`None`: the engine's fixed
    /// profiler). A version other than the last tick's drops every
    /// resolved host: a publish may move, add or remove any row.
    fn begin_tick(&mut self, version: Option<&'a ModelVersion>) {
        self.hosts.clear();
        self.sessions.clear();
        if version.map(std::ptr::from_ref) != self.resolved_for.map(std::ptr::from_ref) {
            self.resolved.fill(None);
            self.resolved_for = version;
        }
    }

    /// Append the session of one id window: exactly the hosts of
    /// `Session::from_window(names of window, blocklist)`, each resolved
    /// against `profiler` — which must be this tick's version's.
    fn push(&mut self, window: &[u32], interner: &HostInterner, profiler: &Profiler<'a>) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: old stamps could alias the new epoch.
            self.seen.fill(0);
            self.epoch = 1;
        }
        let start = self.hosts.len();
        for &id in window {
            if id as usize >= self.canon.len() {
                self.resolve_through(id, interner);
            }
            let canon = self.canon[id as usize];
            if canon == BLOCKED {
                continue;
            }
            let stamp = &mut self.seen[canon as usize];
            if *stamp != self.epoch {
                *stamp = self.epoch;
                let host = self.resolved[canon as usize]
                    .get_or_insert_with(|| profiler.resolve(&ascii_lower(interner.name(canon))));
                self.hosts.push(*host);
            }
        }
        self.sessions.push(start..self.hosts.len());
    }

    /// Grow the side table to cover `id`. Ids resolve in interner order,
    /// so a case variant always finds its earlier siblings resolved.
    fn resolve_through(&mut self, id: u32, interner: &HostInterner) {
        debug_assert!(
            (id as usize) < interner.len(),
            "host id {id} was not issued by this engine's interner"
        );
        for next in self.canon.len() as u32..=id {
            let name = interner.name(next);
            let lower = ascii_lower(name);
            let canon = if self.blocklist.is_some_and(|b| b.is_blocked(&lower)) {
                BLOCKED
            } else {
                match lower {
                    Cow::Borrowed(_) => self.folded.get(name).copied().unwrap_or(next),
                    Cow::Owned(lower) => match interner.get(&lower) {
                        Some(plain) if plain < next => self.canon[plain as usize],
                        _ => *self.folded.entry(lower).or_insert(next),
                    },
                }
            };
            self.canon.push(canon);
        }
        self.seen.resize(self.canon.len(), 0);
        self.resolved.resize(self.canon.len(), None);
    }
}

/// One profiled user at a tick.
#[derive(Debug, Clone)]
pub struct TickEntry {
    /// Client key (IP).
    pub user: u32,
    /// Session anchor: the user's last event at or before the boundary.
    pub anchor: u64,
    /// The profile, or `None` when the session emptied out (pure-tracker
    /// window) or carried no profilable signal.
    pub profile: Option<SessionProfile>,
}

/// A fired report tick.
#[derive(Debug, Clone)]
pub struct TickReport {
    /// The tick boundary (a multiple of `report_interval_ms`, except the
    /// final flush tick which is the first boundary past the stream end).
    pub boundary: u64,
    /// Profiled users, ascending by key.
    pub entries: Vec<TickEntry>,
    /// Wall-clock time spent closing windows and profiling this tick.
    pub compute_micros: u64,
    /// Sequence number of the model version this tick profiled against:
    /// the versioned handle's current `seq` at fire time, or 0 when the
    /// engine runs against a fixed (unversioned) profiler. A hot swap
    /// landing mid-stream shows up as this number changing between
    /// consecutive ticks — never within one.
    pub model_seq: u64,
}

/// Aggregate serving-loop counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Packets ingested.
    pub packets: u64,
    /// Observations recovered across all lanes.
    pub observations: u64,
    /// Ticks fired (including empty ones).
    pub ticks: u64,
    /// Sessions sent to the profiler.
    pub sessions_profiled: u64,
    /// Sessions that produced a profile.
    pub profiles_emitted: u64,
}

/// What a tick profiles against: a fixed profiler bound at engine
/// construction (the original serving shape), or a [`VersionedModel`]
/// handle re-read at every tick so hot swaps published between ticks
/// take effect without the engine noticing (DESIGN.md §14).
enum TickSource<'a> {
    Fixed(BatchProfiler<'a>),
    Versioned {
        model: &'a VersionedModel,
        /// Worker threads for the per-tick batch profile call.
        threads: usize,
    },
}

/// The serving loop: lanes of [`SniObserver`]s feeding an
/// [`IncrementalWindower`], with a watermark-driven tick scheduler
/// profiling through a [`BatchProfiler`].
pub struct ServeEngine<'a> {
    config: ServeConfig,
    lanes: Vec<SniObserver>,
    windower: IncrementalWindower,
    source: TickSource<'a>,
    sessions: SessionBuilder<'a>,
    /// Next tick boundary to fire.
    next_tick: u64,
    /// Maximum packet/event timestamp seen; the watermark trails it.
    max_t: u64,
    stats: ServeStats,
    /// Closed windows retained for the online trainer
    /// (`config.collect_windows`), in tick order then user order.
    closed_windows: Vec<WindowClose>,
}

/// splitmix64 — the repo's standard cheap seeded mix, used here to shard
/// clients over lanes.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<'a> ServeEngine<'a> {
    /// Build an engine. The profiler carries the embeddings/ontology
    /// borrows and the worker-thread count; `blocklist` filters tracker
    /// hostnames out of sessions exactly as the batch pipeline does.
    pub fn new(
        config: ServeConfig,
        profiler: BatchProfiler<'a>,
        blocklist: Option<&'a Blocklist>,
    ) -> Self {
        Self::with_source(config, TickSource::Fixed(profiler), blocklist)
    }

    /// Build an engine over a hot-swappable [`VersionedModel`]: each tick
    /// takes the handle's current version with one atomic load and
    /// profiles the whole tick against it, so a publish landing mid-tick
    /// takes effect at the next tick and no tick ever mixes versions.
    /// `threads` sizes the per-tick batch profile call.
    pub fn with_versioned(
        config: ServeConfig,
        model: &'a VersionedModel,
        threads: usize,
        blocklist: Option<&'a Blocklist>,
    ) -> Self {
        Self::with_source(config, TickSource::Versioned { model, threads }, blocklist)
    }

    fn with_source(
        config: ServeConfig,
        source: TickSource<'a>,
        blocklist: Option<&'a Blocklist>,
    ) -> Self {
        let lanes = (0..config.lanes.max(1))
            .map(|_| {
                let o = SniObserver::with_config(config.observer);
                if config.harvest_dns {
                    o.with_dns_harvesting()
                } else {
                    o
                }
            })
            .collect();
        Self {
            next_tick: config.report_interval_ms.max(1),
            windower: IncrementalWindower::new(config.session_window_ms),
            lanes,
            config,
            source,
            sessions: SessionBuilder::new(blocklist),
            max_t: 0,
            stats: ServeStats::default(),
            closed_windows: Vec::new(),
        }
    }

    /// Which lane a client's packets land on. Pure in the client IP, so
    /// one client's traffic is never split across lanes — the property
    /// that makes results independent of the lane count.
    pub fn lane_of(&self, client_ip: u32) -> usize {
        (splitmix64(client_ip as u64) % self.lanes.len() as u64) as usize
    }

    /// Ingest one packet; returns any ticks the watermark released.
    pub fn ingest_packet(&mut self, pkt: &Packet) -> Vec<TickReport> {
        self.stats.packets += 1;
        let lane = self.lane_of(pkt.src.ip);
        // The name is borrowed from the packet, the flow's buffer or the
        // lane's scratch string; the windower interns it without a copy.
        let (windower, stats) = (&mut self.windower, &mut self.stats);
        self.lanes[lane].process_with(pkt, |client, t_ms, name| {
            stats.observations += 1;
            windower.insert(client, t_ms, name);
        });
        self.advance(pkt.t_ms)
    }

    /// Ingest a pre-extracted observation (bypassing the observers) —
    /// the entry point for sources that already speak `(t, client, host)`.
    pub fn ingest_observation(
        &mut self,
        client: u32,
        t_ms: u64,
        hostname: &str,
    ) -> Vec<TickReport> {
        self.stats.observations += 1;
        self.windower.insert(client, t_ms, hostname);
        self.advance(t_ms)
    }

    /// Advance the event-time clock and fire every tick whose boundary
    /// the watermark has passed.
    fn advance(&mut self, t: u64) -> Vec<TickReport> {
        if t > self.max_t {
            self.max_t = t;
        }
        self.fire_due(self.max_t.saturating_sub(self.config.lateness_ms))
    }

    /// Fire every due tick with boundary ≤ `through`. Boundaries that
    /// cannot report anything (no uncovered event at or before them) are
    /// skipped in one step, so an idle gap in the stream costs O(1) ticks
    /// instead of one per elapsed interval.
    fn fire_due(&mut self, through: u64) -> Vec<TickReport> {
        let interval = self.config.report_interval_ms;
        let mut out = Vec::new();
        while self.next_tick <= through {
            let last_due = self.next_tick + ((through - self.next_tick) / interval) * interval;
            // The first boundary that can have a fresh anchor covers the
            // earliest not-yet-reported event.
            self.next_tick = match self.windower.min_pending_event() {
                Some(t) => (t.div_ceil(interval) * interval).clamp(self.next_tick, last_due),
                None => last_due,
            };
            if let Some(tick) = self.fire_tick() {
                out.push(tick);
            }
        }
        out
    }

    /// Fire the tick at `next_tick`; `None` when no user had fresh
    /// activity (the boundary still advances).
    fn fire_tick(&mut self) -> Option<TickReport> {
        let boundary = self.next_tick;
        self.next_tick += self.config.report_interval_ms;
        self.stats.ticks += 1;
        let started = Instant::now();
        let close = self.windower.close_tick_ids(boundary);
        if close.is_empty() {
            return None;
        }
        let interner = &self.windower.interner;
        if self.config.collect_windows {
            // The one consumer that wants every event as a string: each
            // window is materialized once, straight into the corpus feed.
            self.closed_windows
                .extend(close.iter().map(|w| w.materialize(interner)));
        }
        let bound;
        let (batch, version) = match &self.source {
            TickSource::Fixed(batch) => (batch, None),
            TickSource::Versioned { model, threads } => {
                // One atomic load pins the version for the whole tick: the
                // weights, the labeled tables, and the kNN index all come
                // from the same bundle, however many publishes race past.
                let version: &'a ModelVersion = model.load();
                bound = BatchProfiler::new(version.profiler(), *threads);
                (&bound, Some(version))
            }
        };
        // No string from here on: ids in, resolved hosts out.
        self.sessions.begin_tick(version);
        for w in close.iter() {
            self.sessions.push(w.hosts, interner, batch.profiler());
        }
        self.stats.sessions_profiled += close.windows.len() as u64;
        let profiles = batch.profile_resolved(&self.sessions.hosts, &self.sessions.sessions);
        let model_seq = version.map_or(0, ModelVersion::seq);
        let entries: Vec<TickEntry> = close
            .iter()
            .zip(profiles)
            .map(|(w, profile)| {
                if profile.is_some() {
                    self.stats.profiles_emitted += 1;
                }
                TickEntry {
                    user: w.user,
                    anchor: w.anchor,
                    profile,
                }
            })
            .collect();
        Some(TickReport {
            boundary,
            entries,
            compute_micros: started.elapsed().as_micros() as u64,
            model_seq,
        })
    }

    /// End of stream: fire every boundary the stream reached regardless
    /// of the lateness margin, then one closing tick past the last event
    /// so tail activity is profiled too.
    pub fn flush(&mut self) -> Vec<TickReport> {
        let mut out = self.fire_due(self.max_t);
        if let Some(tick) = self.fire_tick() {
            out.push(tick);
        }
        out
    }

    /// Serving-loop counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Drain the windows collected since the last call (requires
    /// `config.collect_windows`; always empty otherwise). Order is
    /// deterministic — tick order, then ascending user key within a tick —
    /// and independent of the lane count, because window content is lane-
    /// invariant (the streaming-equivalence contract above). This is the
    /// online trainer's corpus feed.
    pub fn take_closed_windows(&mut self) -> Vec<WindowClose> {
        std::mem::take(&mut self.closed_windows)
    }

    /// The windower, for inspection (late drops, resident events).
    pub fn windower(&self) -> &IncrementalWindower {
        &self.windower
    }

    /// Observer counters merged across every lane; the taxonomy invariant
    /// `parse_errors == taxonomy_total()` survives the merge.
    pub fn observer_stats(&self) -> ObserverStats {
        ObserverStats::merged(self.lanes.iter().map(SniObserver::stats))
    }

    /// Flow-table counters merged across every lane.
    pub fn flow_stats(&self) -> FlowStats {
        FlowStats::merged(self.lanes.iter().map(SniObserver::flow_stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Aggregation, ProfilerConfig};
    use crate::session::Session;
    use hostprof_embed::{EmbeddingSet, Vocab};
    use hostprof_net::observer::HostnameSource;
    use hostprof_net::tls::ClientHello;
    use hostprof_net::{Endpoint, Transport};
    use hostprof_ontology::{CategoryId, CategoryVector, Ontology};

    const MIN10: u64 = 600_000;

    fn windower() -> IncrementalWindower {
        IncrementalWindower::new(1_200_000) // T = 20 min
    }

    fn win(c: &WindowClose) -> Vec<&str> {
        c.window.iter().map(String::as_str).collect()
    }

    #[test]
    fn in_order_feed_windows_like_batch() {
        let mut w = windower();
        w.insert(1, 100, "a.com");
        w.insert(1, 200_000, "b.com");
        w.insert(2, 599_999, "c.com");
        let closes = w.close_tick(MIN10);
        assert_eq!(closes.len(), 2);
        assert_eq!(closes[0].user, 1);
        assert_eq!(closes[0].anchor, 200_000);
        assert_eq!(win(&closes[0]), ["a.com", "b.com"]);
        assert_eq!(closes[1].user, 2);
        assert_eq!(closes[1].anchor, 599_999);
    }

    #[test]
    fn out_of_order_within_bound_lands_in_the_right_window() {
        let mut sorted = windower();
        let mut shuffled = windower();
        let events: [(u64, &str); 5] = [
            (100, "a.com"),
            (5_000, "b.com"),
            (5_000, "c.com"),
            (9_000, "d.com"),
            (200_000, "e.com"),
        ];
        for (t, h) in events {
            sorted.insert(7, t, h);
        }
        // Deliver out of order (but no tick has closed, so all in bound).
        for i in [4usize, 1, 0, 2, 3] {
            let (t, h) = events[i];
            shuffled.insert(7, t, h);
        }
        let a = sorted.close_tick(MIN10);
        let b = shuffled.close_tick(MIN10);
        assert_eq!(a.len(), 1);
        assert_eq!(win(&a[0]), ["a.com", "b.com", "c.com", "d.com", "e.com"]);
        // Equal-time events keep arrival order *within* each feed; the two
        // feeds delivered b/c in the same relative order here, so the
        // timelines agree exactly.
        assert_eq!(a, b);
    }

    #[test]
    fn late_event_beyond_closed_boundary_is_dropped_and_counted() {
        let mut w = windower();
        w.insert(1, 100, "a.com");
        w.close_tick(MIN10);
        assert!(!w.insert(1, MIN10, "late.com"));
        assert!(!w.insert(1, 3, "very-late.com"));
        assert_eq!(w.late_dropped(), 2);
        // Just past the boundary is fine.
        assert!(w.insert(1, MIN10 + 1, "ok.com"));
    }

    #[test]
    fn tick_reports_only_fresh_anchors() {
        let mut w = windower();
        w.insert(1, 50_000, "a.com");
        assert_eq!(w.close_tick(MIN10).len(), 1);
        // No new activity: the next tick reports nothing for user 1.
        assert!(w.close_tick(2 * MIN10).is_empty());
        // Activity in the third interval reports again, window spanning
        // back over the quiet interval (T = 20 min > 2 intervals).
        w.insert(1, 2 * MIN10 + 5, "b.com");
        let closes = w.close_tick(3 * MIN10);
        assert_eq!(closes.len(), 1);
        assert_eq!(closes[0].anchor, 2 * MIN10 + 5);
        assert_eq!(win(&closes[0]), ["a.com", "b.com"]);
    }

    #[test]
    fn eviction_keeps_exactly_what_future_windows_can_contain() {
        let mut w = IncrementalWindower::new(1000);
        w.insert(1, 100, "a.com");
        w.insert(1, 600, "b.com");
        w.insert(1, 1500, "c.com");
        let closes = w.close_tick(600);
        assert_eq!(win(&closes[0]), ["a.com", "b.com"]);
        // Eviction threshold is (600 + 1) - 1000 < 0: nothing evicted yet.
        assert_eq!(w.resident_events(), 3);
        let closes = w.close_tick(1200);
        // Anchor 1500 is past the boundary; anchor ≤ 1200 is 600 = prev →
        // nothing fresh.
        assert!(closes.is_empty());
        // Threshold (1200 + 1) - 1000 = 201: "a.com"@100 can no longer
        // appear in any window (future anchors > 1200 ⇒ windows > 200).
        assert_eq!(w.resident_events(), 2);
        let closes = w.close_tick(1800);
        assert_eq!(closes[0].anchor, 1500);
        assert_eq!(win(&closes[0]), ["b.com", "c.com"]);
    }

    #[test]
    fn epoch_touching_windows_keep_t_zero() {
        let mut w = IncrementalWindower::new(1000);
        w.insert(1, 0, "zero.com");
        w.insert(1, 1000, "t.com");
        let closes = w.close_tick(1000);
        // Window (0, 1000] with an epoch-touching start keeps t = 0.
        assert_eq!(win(&closes[0]), ["zero.com", "t.com"]);
    }

    /// Differential test: for random event streams and every 10-minute
    /// boundary, the windower's raw window (passed through `Session`
    /// dedup) must equal the oracle's naive `session_window` over the
    /// user's sorted timeline — and the string close must be the id close
    /// of a twin windower with every id mapped to its name.
    #[test]
    fn windower_matches_oracle_naive_windowing_at_every_tick() {
        let t_window = 1_200_000u64;
        for seed in 0..20u64 {
            let mut state = splitmix64(seed.wrapping_add(0xfeed));
            let mut next = || {
                state = splitmix64(state);
                state
            };
            // Random in-order events for a handful of users over ~5 ticks.
            let mut events: Vec<(u64, u32, String)> = Vec::new();
            let mut t = 0u64;
            for _ in 0..200 {
                t += next() % 40_000;
                let user = (next() % 4) as u32;
                let host = format!("h{}.example", next() % 12);
                events.push((t, user, host));
            }
            let mut w = IncrementalWindower::new(t_window);
            let mut by_id = IncrementalWindower::new(t_window);
            let mut cursor = 0usize;
            let mut prev: Option<u64> = None;
            let last_t = events.last().unwrap().0;
            let mut boundary = MIN10;
            while boundary <= last_t + MIN10 {
                while cursor < events.len() && events[cursor].0 <= boundary {
                    let (t, u, ref h) = events[cursor];
                    w.insert(u, t, h);
                    by_id.insert(u, t, h);
                    cursor += 1;
                }
                let closes = w.close_tick(boundary);
                let id_close = by_id.close_tick_ids(boundary);
                let mapped: Vec<WindowClose> = id_close
                    .iter()
                    .map(|c| WindowClose {
                        user: c.user,
                        anchor: c.anchor,
                        window: c
                            .hosts
                            .iter()
                            .map(|h| by_id.host_name(*h).to_string())
                            .collect(),
                    })
                    .collect();
                assert_eq!(closes, mapped, "seed {seed} boundary {boundary}");
                assert_eq!(w.resident_events(), by_id.resident_events());
                for c in &closes {
                    // Oracle: the user's full sorted timeline, naively
                    // windowed at the same anchor.
                    let timeline: Vec<(u64, String)> = events
                        .iter()
                        .filter(|(_, u, _)| *u == c.user)
                        .map(|(t, _, h)| (*t, h.clone()))
                        .collect();
                    let expect = hostprof_oracle_window(&timeline, c.anchor, t_window);
                    let got = Session::from_window(c.window.iter().map(String::as_str), None);
                    assert_eq!(
                        got.hostnames(),
                        expect.as_slice(),
                        "seed {seed} boundary {boundary} user {} anchor {}",
                        c.user,
                        c.anchor
                    );
                    // Anchor freshness: within (prev, boundary].
                    assert!(c.anchor <= boundary);
                    if let Some(p) = prev {
                        assert!(c.anchor > p);
                    }
                }
                prev = Some(boundary);
                boundary += MIN10;
            }
        }
    }

    /// A local re-statement of `oracle::window::session_window` (the oracle
    /// crate is a dev-only sibling; depending on it here would be a cycle).
    /// The root-level `tests/streaming_equivalence.rs` suite runs the real
    /// oracle against the full engine.
    fn hostprof_oracle_window(requests: &[(u64, String)], end: u64, dur: u64) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for (t, h) in requests {
            let after_start = match end.checked_sub(dur) {
                None => true,
                Some(0) if dur > 0 => true,
                Some(start) => *t > start,
            };
            if after_start && *t <= end && !out.contains(h) {
                out.push(h.clone());
            }
        }
        out
    }

    // ---- id windows → resolved sessions ----

    /// A model over `hosts` (lowercase): one embedding row each, in the
    /// order of a `salt`-keyed count so that versions can disagree on it,
    /// with `labeled` carrying ontology labels whether or not they have a
    /// row.
    fn model_over(hosts: &[&str], labeled: &[&str], salt: u64) -> (EmbeddingSet, Ontology) {
        let corpus: Vec<&str> = hosts
            .iter()
            .enumerate()
            .flat_map(|(i, h)| {
                let count = 1 + splitmix64(salt ^ i as u64) % 97;
                std::iter::repeat_n(*h, count as usize)
            })
            .collect();
        let vocab = Vocab::build(std::iter::once(corpus), 1, 0.0);
        let dim = 4usize;
        let mut state = 42 ^ salt;
        let vectors: Vec<f32> = (0..vocab.len() * dim)
            .map(|_| {
                state = splitmix64(state);
                ((state >> 40) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0
            })
            .collect();
        let mut ontology = Ontology::new();
        for (i, h) in labeled.iter().enumerate() {
            ontology.insert(
                h,
                CategoryVector::from_pairs(vec![
                    (CategoryId(i as u16 % 4), 1.0),
                    (CategoryId(4 + i as u16 % 3), 0.4),
                ]),
            );
        }
        (EmbeddingSet::new(dim, vocab, vectors), ontology)
    }

    /// Every lowercase form [`POOL`] can produce, embedded — so a row names
    /// its host and [`names`] can read a built session back.
    const POOL_HOSTS: [&str; 10] = [
        "a.com",
        "b.org",
        "c.net",
        "tracker.net",
        "cdn.tracker.net",
        "px.ads.example",
        "ads.example",
        "deep.px.ads.example",
        "d.example",
        "e.example",
    ];

    /// Case variants in every interning order, exact and parent-domain
    /// blocklist hits.
    const POOL: [&str; 13] = [
        "a.com",
        "A.com",
        "a.COM",
        "B.org",
        "b.org",
        "c.net",
        "tracker.net",
        "CDN.Tracker.NET",
        "px.ads.example",
        "ads.example",
        "Deep.PX.ads.example",
        "d.example",
        "E.EXAMPLE",
    ];

    /// Intern `names` into a windower as one user's in-order events and
    /// close them as a single id window.
    fn id_window(w: &mut IncrementalWindower, t0: u64, names: &[&str]) -> TickClose {
        for (i, name) in names.iter().enumerate() {
            assert!(w.insert(1, t0 + i as u64, name));
        }
        w.close_tick_ids(t0 + names.len() as u64)
    }

    fn tracker_blocklist() -> Blocklist {
        use hostprof_ontology::BlocklistProvider;
        Blocklist::from_providers(vec![BlocklistProvider::new(
            "t",
            ["tracker.net", "px.ads.example"],
        )])
    }

    /// The builder's session for one id window, as a tick of its own.
    fn build<'a>(
        builder: &mut SessionBuilder<'a>,
        window: &[u32],
        interner: &HostInterner,
        profiler: &Profiler<'a>,
    ) -> Vec<ResolvedHost<'a>> {
        builder.begin_tick(None);
        builder.push(window, interner, profiler);
        assert_eq!(builder.sessions.len(), 1);
        assert_eq!(builder.sessions[0], 0..builder.hosts.len());
        builder.hosts.clone()
    }

    /// What the string path hands the kernel for the same session.
    fn resolved<'a>(profiler: &Profiler<'a>, session: &Session) -> Vec<ResolvedHost<'a>> {
        session.iter().map(|h| profiler.resolve(h)).collect()
    }

    /// A built session read back as hostnames (`?`: no embedding row).
    fn names<'e>(hosts: &[ResolvedHost<'_>], embeddings: &'e EmbeddingSet) -> Vec<&'e str> {
        hosts
            .iter()
            .map(|h| h.row.map_or("?", |r| embeddings.vocab().token(r)))
            .collect()
    }

    /// Everything a profile carries, floats as bits.
    type ProfileBits = (Vec<u32>, Vec<(u16, u32)>, usize, usize);

    fn bits(profile: &Option<SessionProfile>) -> Option<ProfileBits> {
        profile.as_ref().map(|p| {
            (
                p.session_vector.iter().map(|v| v.to_bits()).collect(),
                p.categories
                    .iter()
                    .map(|(c, w)| (c.0, w.to_bits()))
                    .collect(),
                p.labeled_in_session,
                p.labeled_neighbors,
            )
        })
    }

    /// The id-side builder against the string constructor it replaces in
    /// the tick: random windows over a pool with case variants (in every
    /// interning order), exact and parent-domain blocklist hits and
    /// duplicates, with the interner growing between builds.
    #[test]
    fn id_sessions_equal_string_sessions_on_random_windows() {
        let blocklist = tracker_blocklist();
        let (embeddings, ontology) = model_over(&POOL_HOSTS, &POOL_HOSTS[..5], 0);
        let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
        for seed in 0..200u64 {
            let mut state = splitmix64(seed ^ 0x1d5e_5510);
            let mut next = || {
                state = splitmix64(state);
                state
            };
            let mut w = IncrementalWindower::new(u64::MAX / 2);
            let with_list = next() % 4 != 0;
            let mut builder = SessionBuilder::new(with_list.then_some(&blocklist));
            let mut t0 = 1u64;
            for _ in 0..6 {
                let len = (next() % 40) as usize;
                let names: Vec<&str> = (0..len)
                    .map(|_| POOL[(next() % POOL.len() as u64) as usize])
                    .collect();
                // A window far longer than any horizon here: each close
                // reports everything the user has sent so far.
                let close = id_window(&mut w, t0, &names);
                t0 += 1_000;
                for c in close.iter() {
                    let strings: Vec<&str> = c.hosts.iter().map(|h| w.host_name(*h)).collect();
                    let want = Session::from_window(strings, with_list.then_some(&blocklist));
                    let got = build(&mut builder, c.hosts, &w.interner, &profiler);
                    assert_eq!(got, resolved(&profiler, &want), "seed {seed}");
                    assert_eq!(
                        self::names(&got, &embeddings),
                        want.hostnames(),
                        "seed {seed}"
                    );
                }
            }
        }
    }

    /// The whole id-fed tick — builder, arena, ranges, batch kernel —
    /// against `Profiler::profile` on the string session of every window,
    /// bit for bit: every aggregation, several users per tick, case
    /// variants in every interning order, blocked hosts, hosts the model
    /// has never seen, and labeled hosts without an embedding (`alpha = 1`,
    /// no vector).
    #[test]
    fn id_fed_kernel_equals_string_profiles_on_random_windows() {
        let pool: Vec<&str> = POOL
            .iter()
            .copied()
            .chain([
                "x1.unknown",
                "X2.Unknown",
                "fresh-labeled.example",
                "Fresh-Labeled.Example",
                "other-labeled.example",
            ])
            .collect();
        let labeled = [
            "a.com",
            "c.net",
            "tracker.net",
            "e.example",
            "fresh-labeled.example",
            "other-labeled.example",
        ];
        let (embeddings, ontology) = model_over(&POOL_HOSTS[..9], &labeled, 7);
        let blocklist = tracker_blocklist();
        let aggregations = [
            Aggregation::Mean,
            Aggregation::Recency { half_life: 3 },
            Aggregation::InverseFrequency,
        ];
        for seed in 0..200u64 {
            for aggregation in aggregations {
                let mut state = splitmix64(seed ^ 0x0e94_f00d);
                let mut next = || {
                    state = splitmix64(state);
                    state
                };
                let config = ProfilerConfig {
                    n_neighbors: 1 + (next() % 6) as usize,
                    aggregation,
                    ..Default::default()
                };
                let reference = Profiler::new(&embeddings, &ontology, config.clone());
                let batch = BatchProfiler::new(
                    Profiler::new(&embeddings, &ontology, config),
                    1 + (seed % 3) as usize,
                );
                let list = (next() % 4 != 0).then_some(&blocklist);
                let mut w = IncrementalWindower::new(u64::MAX / 2);
                let mut builder = SessionBuilder::new(list);
                let mut t = 0u64;
                for tick in 0..5 {
                    // Some windows of labeled off-vocabulary hosts only.
                    let from = if next() % 4 == 0 { POOL.len() + 2 } else { 0 };
                    for _ in 0..next() % 60 {
                        t += 1;
                        let name = pool[from + (next() % (pool.len() - from) as u64) as usize];
                        assert!(w.insert((next() % 4) as u32, t, name));
                    }
                    t += 1;
                    let close = w.close_tick_ids(t);
                    builder.begin_tick(None);
                    for c in close.iter() {
                        builder.push(c.hosts, &w.interner, batch.profiler());
                    }
                    let got = batch.profile_resolved(&builder.hosts, &builder.sessions);
                    assert_eq!(got.len(), close.iter().len());
                    for (c, got) in close.iter().zip(&got) {
                        let strings = c.hosts.iter().map(|h| w.host_name(*h));
                        let want = reference.profile(&Session::from_window(strings, list));
                        assert_eq!(
                            bits(got),
                            bits(&want),
                            "seed {seed} {aggregation:?} tick {tick} user {}",
                            c.user
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn case_variants_collapse_in_the_session_but_not_in_the_interner() {
        let (embeddings, ontology) = model_over(&["video.example", "b.com"], &[], 0);
        let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
        let mut w = windower();
        let close = id_window(
            &mut w,
            1,
            &["Video.Example", "video.example", "VIDEO.EXAMPLE", "b.com"],
        );
        let mut builder = SessionBuilder::new(None);
        let c = close.iter().next().unwrap();
        let session = build(&mut builder, c.hosts, &w.interner, &profiler);
        assert_eq!(names(&session, &embeddings), ["video.example", "b.com"]);
        // The interner counts what was inserted; the lowercase forms the
        // builder derived live in its own side table.
        assert_eq!(w.interned_hosts(), 4);
        assert_eq!(w.host_name(c.hosts[0]), "Video.Example");
    }

    #[test]
    fn seen_stamps_survive_the_epoch_wrap() {
        let (embeddings, ontology) = model_over(&["a.com", "b.com", "c.com"], &["b.com"], 0);
        let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
        let mut w = windower();
        let close = id_window(&mut w, 1, &["a.com", "b.com", "a.com", "c.com", "b.com"]);
        let hosts = close.iter().next().unwrap().hosts;
        let mut builder = SessionBuilder::new(None);
        let want = build(&mut builder, hosts, &w.interner, &profiler);
        assert_eq!(names(&want, &embeddings), ["a.com", "b.com", "c.com"]);
        // Park the counter so the next build wraps to epoch 1 — the very
        // stamp the first build left on every host. Uncleared, those stale
        // stamps would read as "already seen" and empty the session.
        assert_eq!(builder.epoch, 1);
        builder.epoch = u32::MAX;
        assert_eq!(build(&mut builder, hosts, &w.interner, &profiler), want);
        assert_eq!(builder.epoch, 1);
        assert_eq!(build(&mut builder, hosts, &w.interner, &profiler), want);
    }

    #[test]
    fn side_table_grows_with_the_interner() {
        let blocklist = tracker_blocklist();
        let (embeddings, ontology) = model_over(
            &["a.com", "never-windowed.example", "late.example"],
            &["late.example"],
            0,
        );
        let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
        let mut w = windower();
        let mut builder = SessionBuilder::new(Some(&blocklist));
        let first = id_window(&mut w, 1, &["a.com", "tracker.net"]);
        let hosts = first.iter().next().unwrap().hosts;
        let s = build(&mut builder, hosts, &w.interner, &profiler);
        assert_eq!(names(&s, &embeddings), ["a.com"]);
        assert_eq!(builder.canon.len(), 2);
        // Hosts interned after the tables were last grown — as when an
        // event past the boundary arrives before its tick fires — resolve
        // on first use, including ids the builder skipped over.
        w.insert(1, 5_000, "never-windowed.example");
        let second = id_window(&mut w, 6_000, &["late.example", "px.tracker.net", "A.com"]);
        let hosts = second.iter().next().unwrap().hosts;
        let s = build(&mut builder, hosts, &w.interner, &profiler);
        assert_eq!(
            names(&s, &embeddings),
            ["a.com", "never-windowed.example", "late.example"]
        );
        assert_eq!(s[2], profiler.resolve("late.example"));
        assert!(s[2].labels.is_some() && s[0].labels.is_none());
        assert_eq!(builder.canon.len(), w.interned_hosts());
        assert_eq!(builder.seen.len(), w.interned_hosts());
        assert_eq!(builder.resolved.len(), w.interned_hosts());
    }

    /// A host's row and label belong to one model version: the table is
    /// kept while ticks stay on a version and refilled when they move to
    /// one where the host has another row, has left the vocabulary or has
    /// entered it.
    #[test]
    fn host_table_is_refilled_when_the_version_changes() {
        use std::sync::Arc;
        let version = |seq: u64, hosts: &[&str]| {
            let (embeddings, ontology) = model_over(hosts, &["a.com", "gone.example"], 3 * seq);
            ModelVersion::build(
                seq,
                embeddings,
                Arc::new(ontology),
                ProfilerConfig::default(),
            )
        };
        let v1 = version(1, &["a.com", "b.com", "gone.example"]);
        let v2 = version(2, &["new.example", "b.com", "a.com", "pad.example"]);
        let window = ["a.com", "gone.example", "new.example", "B.com", "a.com"];
        let session = Session::from_window(window, None);
        let mut w = windower();
        let close = id_window(&mut w, 1, &window);
        let hosts = close.iter().next().unwrap().hosts;
        let mut builder = SessionBuilder::new(None);
        let mut last: Option<&ModelVersion> = None;
        for v in [&v1, &v1, &v2, &v2, &v1] {
            builder.begin_tick(Some(v));
            // Four distinct hosts in the window: still resolved on a second
            // tick of one version, all dropped on the first of another.
            let kept = builder.resolved.iter().flatten().count();
            let same = last.is_some_and(|l| std::ptr::eq(l, v));
            assert_eq!(kept, if same { 4 } else { 0 });
            builder.push(hosts, &w.interner, &v.profiler());
            let want = resolved(&v.profiler(), &session);
            assert_eq!(builder.hosts, want, "version {}", v.seq());
            assert_eq!(builder.resolved.iter().flatten().count(), 4);
            last = Some(v);
        }
        let (r1, r2) = (
            v1.profiler().resolve("a.com"),
            v2.profiler().resolve("a.com"),
        );
        assert_ne!(r1.row, r2.row, "the fixture must move a.com's row");
        assert!(v1.profiler().resolve("gone.example").row.is_some());
        assert_eq!(v2.profiler().resolve("gone.example").row, None);
        assert!(v2.profiler().resolve("gone.example").labels.is_some());
    }

    #[test]
    fn a_table_entry_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Option<ResolvedHost<'_>>>(), 16);
    }

    // ---- engine-level tests (tiny synthetic embeddings) ----

    fn tiny_model() -> (EmbeddingSet, Ontology) {
        let hosts: Vec<String> = (0..8).map(|i| format!("h{i}.example")).collect();
        let hosts: Vec<&str> = hosts.iter().map(String::as_str).collect();
        model_over(&hosts, &hosts[..4], 0)
    }

    fn tls_packet(t: u64, client_ip: u32, sport: u16, host: &str) -> Packet {
        Packet {
            t_ms: t,
            src: Endpoint::new(client_ip, sport),
            dst: Endpoint::new(0x0808_0808, 443),
            transport: Transport::Tcp,
            payload: bytes::Bytes::from(ClientHello::for_hostname(host).encode()),
        }
    }

    #[test]
    fn watermark_holds_ticks_until_lateness_passes() {
        let (embeddings, ontology) = tiny_model();
        let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
        let mut engine = ServeEngine::new(
            ServeConfig {
                lateness_ms: 5_000,
                ..ServeConfig::default()
            },
            BatchProfiler::new(profiler, 1),
            None,
        );
        let mut ticks = Vec::new();
        ticks.extend(engine.ingest_packet(&tls_packet(1_000, 1, 5000, "h1.example")));
        // The stream has reached the boundary but the watermark (t - 5s)
        // has not: the tick must hold.
        ticks.extend(engine.ingest_packet(&tls_packet(MIN10 + 100, 1, 5001, "h2.example")));
        assert!(ticks.is_empty(), "tick released before watermark passed");
        // An out-of-order arrival inside the margin still lands.
        ticks.extend(engine.ingest_packet(&tls_packet(MIN10 - 50, 1, 5002, "h3.example")));
        assert!(ticks.is_empty());
        // Watermark passes the boundary: the tick fires and contains the
        // late arrival.
        ticks.extend(engine.ingest_packet(&tls_packet(MIN10 + 5_001, 1, 5003, "h4.example")));
        assert_eq!(ticks.len(), 1);
        assert_eq!(ticks[0].boundary, MIN10);
        assert_eq!(ticks[0].entries.len(), 1);
        assert_eq!(ticks[0].entries[0].anchor, MIN10 - 50);
        assert!(ticks[0].entries[0].profile.is_some());
        // Flush covers the tail.
        let rest = engine.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].entries[0].anchor, MIN10 + 5_001);
    }

    #[test]
    fn lane_count_does_not_change_results() {
        let (embeddings, ontology) = tiny_model();
        let packets: Vec<Packet> = (0..300u64)
            .map(|i| {
                tls_packet(
                    i * 7_001,
                    1 + (i % 5) as u32,
                    (4000 + i) as u16,
                    &format!("h{}.example", i % 8),
                )
            })
            .collect();
        let run = |lanes: usize| {
            let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
            let mut engine = ServeEngine::new(
                ServeConfig {
                    lanes,
                    ..ServeConfig::default()
                },
                BatchProfiler::new(profiler, 1),
                None,
            );
            let mut ticks = Vec::new();
            for p in &packets {
                ticks.extend(engine.ingest_packet(p));
            }
            ticks.extend(engine.flush());
            ticks
                .iter()
                .flat_map(|t| {
                    t.entries.iter().map(move |e| {
                        let bits: Vec<Vec<u32>> = e
                            .profile
                            .as_ref()
                            .map(|p| vec![p.session_vector.iter().map(|v| v.to_bits()).collect()])
                            .unwrap_or_default();
                        (t.boundary, e.user, e.anchor, bits)
                    })
                })
                .collect::<Vec<_>>()
        };
        let one = run(1);
        assert!(!one.is_empty());
        assert_eq!(one, run(4));
        assert_eq!(one, run(3));
    }

    /// The serve path's maps are keyed per process (`net::hash`): two keys
    /// must give byte-identical observations, observer and flow counters
    /// and tick reports on one seeded stream — NAT'd clients, mixed-case
    /// names, fragmented TLS, QUIC, DNS and ECH, with caps small enough
    /// that reassemblies are abandoned and flows idle out; chaos-mutated
    /// too for the observer.
    #[test]
    fn hash_key_does_not_change_results() {
        use hostprof_net::chaos::{self, ChaosConfig};
        use hostprof_net::hash::with_fixed_key;
        use hostprof_net::{Addressing, RequestEvent, TrafficSynthesizer};

        let (embeddings, ontology) = tiny_model();
        let synth = TrafficSynthesizer {
            addressing: Addressing::Nat {
                base_ip: 0x0a00_0000,
                clients_per_ip: 4,
            },
            quic_fraction: 0.25,
            dns_fraction: 0.3,
            ech_fraction: 0.1,
            tcp_fragment_fraction: 0.4,
            doh_resolver: None,
        };
        let events: Vec<RequestEvent> = (0..3_000u64)
            .map(|i| RequestEvent {
                t_ms: i * 1_300,
                client: (i * 7 % 61) as u32,
                hostname: match i % 9 {
                    8 => format!("H{}.Example", i % 8),
                    _ => format!("h{}.example", i * 5 % 8),
                },
            })
            .collect();
        // The observer takes the stream chaos-mutated; the engine takes it
        // as sent, so that its ticks are not all late drops.
        let packets = synth.synthesize(&events);
        let mangled = chaos::apply(&ChaosConfig::aggressive(17), &packets).packets;
        let caps = ObserverConfig {
            max_pending_flows: 6,
            max_total_pending_bytes: 2_048,
            ..ObserverConfig::default()
        };

        let observe = |key: u64| {
            with_fixed_key(key, || {
                let mut obs = SniObserver::with_config(caps).with_dns_harvesting();
                obs.process_stream(&mangled);
                (obs.take_observations(), obs.stats(), obs.flow_stats())
            })
        };
        let serve = |key: u64| {
            with_fixed_key(key, || {
                let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
                let mut engine = ServeEngine::new(
                    ServeConfig {
                        lanes: 2,
                        observer: caps,
                        harvest_dns: true,
                        ..ServeConfig::default()
                    },
                    BatchProfiler::new(profiler, 1),
                    None,
                );
                let mut ticks = Vec::new();
                for p in &packets {
                    ticks.extend(engine.ingest_packet(p));
                }
                ticks.extend(engine.flush());
                let ticks: Vec<_> = ticks
                    .into_iter()
                    .flat_map(|t| {
                        let (boundary, seq) = (t.boundary, t.model_seq);
                        t.entries
                            .into_iter()
                            .map(move |e| (boundary, seq, e.user, e.anchor, e.profile))
                    })
                    .collect();
                let served = engine.stats();
                (
                    ticks,
                    engine.observer_stats(),
                    engine.flow_stats(),
                    (served.observations, served.ticks, served.profiles_emitted),
                )
            })
        };

        let (observations, stats, flows) = observe(1);
        assert!(observations.len() > 300, "{}", observations.len());
        assert!(observations
            .iter()
            .any(|o| o.source == HostnameSource::DnsQuery));
        assert!(
            stats.reassembled > 0 && stats.evicted_mid_handshake > 0,
            "{stats:?}"
        );
        assert!(flows.flows_evicted > 0, "{flows:?}");
        assert_eq!(stats.taxonomy_total(), stats.parse_errors);
        assert_eq!((observations, stats, flows), observe(0xfeed_f00d_dead_beef));

        let served = serve(1);
        assert!(served.0.len() > 50, "{} tick entries", served.0.len());
        assert!(served.0.iter().any(|entry| entry.4.is_some()));
        assert!(
            served.1.reassembled > 0 && served.1.dns_names > 0,
            "{:?}",
            served.1
        );
        assert_eq!(served, serve(u64::MAX));
    }

    #[test]
    fn merged_lane_taxonomy_invariant_holds_in_the_serving_loop() {
        let (embeddings, ontology) = tiny_model();
        let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
        let mut engine = ServeEngine::new(
            ServeConfig {
                lanes: 4,
                ..ServeConfig::default()
            },
            BatchProfiler::new(profiler, 1),
            None,
        );
        // Mix of valid handshakes and garbage across many clients, so
        // several lanes accumulate *different* error taxonomies.
        for i in 0..64u64 {
            let ip = 1 + (i % 16) as u32;
            if i % 3 == 0 {
                let mut pkt = tls_packet(i * 10, ip, (6000 + i) as u16, "ignored");
                pkt.payload = bytes::Bytes::from_static(b"GET / HTTP/1.1\r\n");
                engine.ingest_packet(&pkt);
            } else {
                engine.ingest_packet(&tls_packet(
                    i * 10,
                    ip,
                    (6000 + i) as u16,
                    &format!("h{}.example", i % 8),
                ));
            }
        }
        let merged = engine.observer_stats();
        assert!(merged.parse_errors > 0, "garbage must register");
        assert_eq!(
            merged.taxonomy_total(),
            merged.parse_errors,
            "taxonomy invariant must survive the per-lane merge"
        );
        assert_eq!(merged.packets, 64);
        assert_eq!(engine.flow_stats().packets, 64);
        // At least two lanes actually saw traffic (the merge is real).
        let active = (0..16u32)
            .map(|ip| engine.lane_of(1 + ip))
            .collect::<std::collections::HashSet<_>>();
        assert!(active.len() > 1);
    }

    #[test]
    fn versioned_engine_switches_models_between_ticks() {
        use crate::versioned::{ModelVersion, VersionedModel};
        use std::sync::Arc;

        let (embeddings, ontology) = tiny_model();
        let ontology = Arc::new(ontology);
        let model = VersionedModel::new(ModelVersion::build(
            1,
            embeddings.clone(),
            Arc::clone(&ontology),
            ProfilerConfig::default(),
        ));
        let mut engine = ServeEngine::with_versioned(ServeConfig::default(), &model, 1, None);
        engine.ingest_packet(&tls_packet(1_000, 1, 5000, "h1.example"));
        let first = engine.ingest_packet(&tls_packet(MIN10 + 3_000, 1, 5001, "h2.example"));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].model_seq, 1, "first tick serves version 1");

        // Hot swap between ticks: the next tick must profile against v2.
        model.publish(ModelVersion::build(
            2,
            embeddings.clone(),
            Arc::clone(&ontology),
            ProfilerConfig::default(),
        ));
        engine.ingest_packet(&tls_packet(2 * MIN10 + 100, 1, 5002, "h3.example"));
        let rest = engine.flush();
        assert!(!rest.is_empty());
        assert!(rest.iter().all(|t| t.model_seq == 2));
        assert!(rest
            .iter()
            .all(|t| t.entries.iter().any(|e| e.profile.is_some())));
    }

    #[test]
    fn versioned_engine_with_identical_model_matches_the_fixed_engine() {
        use crate::versioned::{ModelVersion, VersionedModel};
        use std::sync::Arc;

        let (embeddings, ontology) = tiny_model();
        let packets: Vec<Packet> = (0..120u64)
            .map(|i| {
                tls_packet(
                    i * 9_007,
                    1 + (i % 3) as u32,
                    (4000 + i) as u16,
                    &format!("h{}.example", i % 8),
                )
            })
            .collect();
        let fp = |ticks: &[TickReport]| {
            ticks
                .iter()
                .flat_map(|t| {
                    t.entries.iter().map(move |e| {
                        let bits: Vec<u32> = e
                            .profile
                            .as_ref()
                            .map(|p| p.session_vector.iter().map(|v| v.to_bits()).collect())
                            .unwrap_or_default();
                        (t.boundary, e.user, e.anchor, bits)
                    })
                })
                .collect::<Vec<_>>()
        };

        let fixed = {
            let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
            let mut engine = ServeEngine::new(
                ServeConfig::default(),
                BatchProfiler::new(profiler, 1),
                None,
            );
            let mut ticks = Vec::new();
            for p in &packets {
                ticks.extend(engine.ingest_packet(p));
            }
            ticks.extend(engine.flush());
            assert!(ticks.iter().all(|t| t.model_seq == 0));
            fp(&ticks)
        };
        let versioned = {
            let ont = Arc::new(ontology.clone());
            let model = VersionedModel::new(ModelVersion::build(
                7,
                embeddings.clone(),
                ont,
                ProfilerConfig::default(),
            ));
            let mut engine = ServeEngine::with_versioned(ServeConfig::default(), &model, 1, None);
            let mut ticks = Vec::new();
            for p in &packets {
                ticks.extend(engine.ingest_packet(p));
            }
            ticks.extend(engine.flush());
            assert!(ticks.iter().all(|t| t.model_seq == 7));
            fp(&ticks)
        };
        assert!(!fixed.is_empty());
        assert_eq!(fixed, versioned, "same weights, same profiles, bit for bit");
    }

    /// The engine keeps its host table across a flush and drops it at the
    /// publish in between: the second version reorders the vocabulary,
    /// loses one of the window's hosts and gains another.
    #[test]
    fn versioned_engine_re_resolves_its_hosts_after_a_publish_between_flushes() {
        use std::sync::Arc;
        let version = |seq: u64, hosts: &[&str]| {
            let (embeddings, ontology) = model_over(hosts, &["h1.example", "h9.example"], 3 * seq);
            ModelVersion::build(
                seq,
                embeddings,
                Arc::new(ontology),
                ProfilerConfig::default(),
            )
        };
        let model = VersionedModel::new(version(
            1,
            &["h1.example", "h2.example", "h3.example", "h9.example"],
        ));
        let mut engine = ServeEngine::with_versioned(ServeConfig::default(), &model, 2, None);
        let window = ["h1.example", "H2.example", "h9.example", "h4.example"];
        let profile_of = |names: &[&str]| {
            let session = Session::from_window(names.iter().copied(), None);
            bits(&model.load().profiler().profile(&session))
        };
        for (i, name) in window.iter().enumerate() {
            engine.ingest_observation(1, 100 + i as u64, name);
        }
        let ticks = engine.flush();
        assert_eq!(ticks.len(), 1);
        assert_eq!(ticks[0].model_seq, 1);
        assert_eq!(bits(&ticks[0].entries[0].profile), profile_of(&window));

        model.publish(version(
            2,
            &["h4.example", "h3.example", "h2.example", "h1.example"],
        ));
        engine.ingest_observation(1, MIN10 + 50, "h3.example");
        let ticks = engine.flush();
        assert_eq!(ticks.len(), 1);
        assert_eq!(ticks[0].model_seq, 2);
        let mut all = window.to_vec();
        all.push("h3.example");
        let want = profile_of(&all);
        assert!(want.is_some());
        assert_eq!(bits(&ticks[0].entries[0].profile), want);
    }

    #[test]
    fn collect_windows_harvests_the_update_corpus_in_tick_order() {
        let (embeddings, ontology) = tiny_model();
        let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
        let mut engine = ServeEngine::new(
            ServeConfig {
                collect_windows: true,
                ..ServeConfig::default()
            },
            BatchProfiler::new(profiler, 1),
            None,
        );
        engine.ingest_packet(&tls_packet(100, 2, 5000, "h0.example"));
        engine.ingest_packet(&tls_packet(200, 1, 5001, "h1.example"));
        engine.ingest_packet(&tls_packet(MIN10 + 500, 1, 5002, "h2.example"));
        engine.flush();
        let windows = engine.take_closed_windows();
        // Tick 1 reports users 1 and 2 (ascending), tick 2 reports user 1.
        assert_eq!(windows.len(), 3);
        assert_eq!((windows[0].user, windows[0].anchor), (1, 200));
        assert_eq!((windows[1].user, windows[1].anchor), (2, 100));
        assert_eq!(windows[2].user, 1);
        assert_eq!(
            windows[2].window,
            vec!["h1.example".to_string(), "h2.example".to_string()],
            "raw window keeps the pre-boundary event inside T"
        );
        // Drained: a second take is empty.
        assert!(engine.take_closed_windows().is_empty());
    }

    #[test]
    fn observation_fed_engine_folds_case_filters_and_survives_reuse_after_flush() {
        let (embeddings, ontology) = tiny_model();
        let blocklist = tracker_blocklist();
        let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
        let mut engine = ServeEngine::new(
            ServeConfig {
                collect_windows: true,
                ..ServeConfig::default()
            },
            BatchProfiler::new(profiler, 1),
            Some(&blocklist),
        );
        engine.ingest_observation(1, 100, "H1.Example");
        engine.ingest_observation(1, 200, "h1.example");
        engine.ingest_observation(1, 300, "CDN.Tracker.NET");
        engine.ingest_observation(2, 400, "tracker.net");
        let ticks = engine.flush();
        assert_eq!(ticks.len(), 1);
        let entries = &ticks[0].entries;
        assert_eq!((entries[0].user, entries[0].anchor), (1, 300));
        let reference = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
        let want = reference.profile(&Session::from_window(["h1.example"], None));
        assert!(want.is_some());
        assert_eq!(entries[0].profile, want);
        // User 2's window was all tracker: reported, nothing to profile.
        assert_eq!((entries[1].user, entries[1].anchor), (2, 400));
        assert!(entries[1].profile.is_none());
        // Four distinct spellings went in; the folded forms are not counted.
        assert_eq!(engine.windower().interned_hosts(), 4);
        let raw = engine.take_closed_windows();
        assert_eq!(
            raw[0].window,
            ["H1.Example", "h1.example", "CDN.Tracker.NET"]
        );
        assert_eq!(raw[1].window, ["tracker.net"]);

        // The engine keeps serving after a flush: hosts first interned now
        // extend the per-host table instead of indexing past it.
        engine.ingest_observation(1, MIN10 + 50, "H2.example");
        let ticks = engine.flush();
        assert_eq!(ticks.len(), 1);
        let want = reference.profile(&Session::from_window(["h1.example", "h2.example"], None));
        assert_eq!(ticks[0].entries[0].profile, want);
    }

    #[test]
    fn idle_gap_fast_forwards_the_scheduler() {
        let (embeddings, ontology) = tiny_model();
        let profiler = Profiler::new(&embeddings, &ontology, ProfilerConfig::default());
        let mut engine = ServeEngine::new(
            ServeConfig::default(),
            BatchProfiler::new(profiler, 1),
            None,
        );
        engine.ingest_packet(&tls_packet(100, 1, 5000, "h0.example"));
        // A huge time gap: the scheduler must not spin one tick at a time.
        let ticks = engine.ingest_packet(&tls_packet(3_000_000_000, 1, 5001, "h1.example"));
        // The first interval's activity is reported; the empty boundaries
        // in the gap are skipped.
        assert_eq!(ticks.len(), 1);
        assert_eq!(ticks[0].entries[0].anchor, 100);
        let stats = engine.stats();
        assert!(
            stats.ticks < 100,
            "scheduler fired {} ticks across the gap",
            stats.ticks
        );
    }
}
