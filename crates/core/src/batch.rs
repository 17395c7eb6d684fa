//! Batched, multi-threaded session profiling.
//!
//! The paper's deployment profiles every reporting extension on a
//! 10-minute cadence (Section 5.4) — at any tick the back-end holds a
//! *batch* of sessions, not one. [`BatchProfiler`] exploits that shape
//! twice over:
//!
//! * **within a worker**, all of its sessions' kNN queries run through one
//!   tiled scan of the vocabulary
//!   ([`EmbeddingSet::nearest_to_vectors_filtered`][nv]), sixteen at a
//!   time, so each cache-sized block of the unit-norm matrix is loaded
//!   once per sixteen session vectors and the worker's key buffers stay
//!   sixteen rows deep however many sessions the tick brings;
//! * **across workers**, sessions fan out in contiguous shares on embed's
//!   one scoped-thread fan-out ([`run_shares`], which training and the IVF
//!   build use too) with the caller working the last share itself, each
//!   worker owning one reusable [`ProfileScratch`] — no locks, no shared
//!   mutable state, results written straight into disjoint output slices.
//!
//! Results are **exactly** those of calling [`Profiler::profile`] per
//! session, in order: every entry point here and that one are the same
//! kernel (in [`crate::profiler`]) behind a resolver, so equality is
//! bit-for-bit, independent of the thread count. The property tests in
//! `tests/batch_equivalence.rs` pin this down.
//!
//! [nv]: hostprof_embed::EmbeddingSet::nearest_to_vectors_filtered

use crate::profiler::{ProfileScratch, Profiler, ResolvedHost, SessionProfile};
use crate::session::Session;
use hostprof_embed::model::run_shares;
use std::ops::Range;

/// Fans batches of sessions across worker threads, each running the
/// profiling kernel against a private scratch.
pub struct BatchProfiler<'a> {
    profiler: Profiler<'a>,
    threads: usize,
}

impl<'a> BatchProfiler<'a> {
    /// Wrap a profiler; `threads` is clamped to at least 1.
    pub fn new(profiler: Profiler<'a>, threads: usize) -> Self {
        Self {
            profiler,
            threads: threads.max(1),
        }
    }

    /// The wrapped single-session profiler.
    pub fn profiler(&self) -> &Profiler<'a> {
        &self.profiler
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Profile a batch. `out[i]` is exactly what
    /// `self.profiler().profile(&sessions[i])` returns, for every `i`.
    /// Each worker resolves its sessions' names once, then runs the kernel.
    pub fn profile_sessions(&self, sessions: &[Session]) -> Vec<Option<SessionProfile>> {
        self.fan_out(sessions.len(), |share, out, scratch| {
            let sessions = &sessions[share];
            let mut hosts = Vec::with_capacity(sessions.iter().map(Session::len).sum());
            let mut ranges = Vec::with_capacity(sessions.len());
            for session in sessions {
                let start = hosts.len();
                hosts.extend(session.iter().map(|h| self.profiler.resolve(h)));
                ranges.push(start..hosts.len());
            }
            self.profiler
                .profile_resolved(&hosts, &ranges, out, scratch);
        })
    }

    /// [`Self::profile_sessions`] for sessions that are already resolved
    /// against this profiler's model — each a range of `hosts` — which is
    /// how the serving tick arrives: no name is read.
    pub fn profile_resolved(
        &self,
        hosts: &[ResolvedHost<'_>],
        sessions: &[Range<usize>],
    ) -> Vec<Option<SessionProfile>> {
        self.fan_out(sessions.len(), |share, out, scratch| {
            self.profiler
                .profile_resolved(hosts, &sessions[share], out, scratch);
        })
    }

    /// Run `work` on each worker's contiguous share of `0..n` with its
    /// slice of the output and a fresh scratch, on embed's one fan-out
    /// ([`run_shares`]).
    fn fan_out<F>(&self, n: usize, work: F) -> Vec<Option<SessionProfile>>
    where
        F: Fn(Range<usize>, &mut [Option<SessionProfile>], &mut ProfileScratch) + Sync,
    {
        let mut out: Vec<Option<SessionProfile>> = Vec::new();
        out.resize_with(n, || None);
        run_shares(self.threads, &mut out, |share, out| {
            work(share, out, &mut ProfileScratch::new())
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfilerConfig;
    use hostprof_embed::{EmbeddingSet, Vocab};
    use hostprof_ontology::{CategoryId, CategoryVector, Ontology};

    fn setup() -> (EmbeddingSet, Ontology) {
        let seqs = vec![vec![
            "travel.com",
            "travel-api.net",
            "sport.com",
            "sport-cdn.net",
            "neutral.org",
        ]];
        let vocab = Vocab::build(seqs, 1, 0.0);
        let mut vectors = vec![0f32; vocab.len() * 2];
        let mut set = |name: &str, v: [f32; 2]| {
            let i = vocab.get(name).unwrap() as usize;
            vectors[i * 2] = v[0];
            vectors[i * 2 + 1] = v[1];
        };
        set("travel.com", [1.0, 0.0]);
        set("travel-api.net", [0.95, 0.05]);
        set("sport.com", [0.0, 1.0]);
        set("sport-cdn.net", [0.05, 0.95]);
        set("neutral.org", [0.5, 0.5]);
        let embeddings = EmbeddingSet::new(2, vocab, vectors);

        let mut ontology = Ontology::new();
        ontology.insert("travel.com", CategoryVector::singleton(CategoryId(10)));
        ontology.insert("sport.com", CategoryVector::singleton(CategoryId(20)));
        ontology.insert(
            "off-vocab.example",
            CategoryVector::singleton(CategoryId(7)),
        );
        (embeddings, ontology)
    }

    fn mixed_sessions() -> Vec<Session> {
        vec![
            Session::from_window(["travel.com"], None),
            Session::default(), // empty
            Session::from_window(["travel-api.net", "neutral.org"], None),
            Session::from_window(["never-seen.example"], None), // no signal
            Session::from_window(["off-vocab.example"], None),  // label, no vector
            Session::from_window(["sport.com", "sport-cdn.net"], None),
            Session::from_window(["travel.com", "sport.com"], None),
        ]
    }

    #[test]
    fn batch_matches_single_for_every_thread_count() {
        let (e, o) = setup();
        let sessions = mixed_sessions();
        let config = ProfilerConfig {
            n_neighbors: 5,
            ..Default::default()
        };
        let reference: Vec<Option<SessionProfile>> = {
            let p = Profiler::new(&e, &o, config.clone());
            sessions.iter().map(|s| p.profile(s)).collect()
        };
        for threads in [1, 2, 3, 8, 64] {
            let batch = BatchProfiler::new(Profiler::new(&e, &o, config.clone()), threads);
            assert_eq!(
                batch.profile_sessions(&sessions),
                reference,
                "threads={threads}"
            );
            // The same batch handed over already resolved, in one arena.
            let mut hosts = Vec::new();
            let mut ranges = Vec::new();
            for session in &sessions {
                let start = hosts.len();
                hosts.extend(session.iter().map(|h| batch.profiler().resolve(h)));
                ranges.push(start..hosts.len());
            }
            assert_eq!(
                batch.profile_resolved(&hosts, &ranges),
                reference,
                "threads={threads}, resolved"
            );
        }
    }

    #[test]
    fn interleaved_no_vector_sessions_keep_slots_aligned() {
        // Regression: the batch path used to pair queries with kNN
        // results through a shared iterator; a session with labels but no
        // session vector could desynchronize the stream. Alternate
        // no-vector, empty, and vector sessions aggressively.
        let (e, o) = setup();
        let mut sessions = Vec::new();
        for i in 0..12 {
            sessions.push(match i % 4 {
                0 => Session::from_window(["off-vocab.example"], None), // label, no vector
                1 => Session::from_window(["travel.com"], None),
                2 => Session::default(),
                _ => Session::from_window(["sport.com", "neutral.org"], None),
            });
        }
        let config = ProfilerConfig {
            n_neighbors: 5,
            ..Default::default()
        };
        let reference: Vec<Option<SessionProfile>> = {
            let p = Profiler::new(&e, &o, config.clone());
            sessions.iter().map(|s| p.profile(s)).collect()
        };
        for threads in [1, 2, 5] {
            let batch = BatchProfiler::new(Profiler::new(&e, &o, config.clone()), threads);
            assert_eq!(
                batch.profile_sessions(&sessions),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (e, o) = setup();
        let batch = BatchProfiler::new(Profiler::new(&e, &o, ProfilerConfig::default()), 4);
        assert!(batch.profile_sessions(&[]).is_empty());
    }

    #[test]
    fn thread_count_is_clamped() {
        let (e, o) = setup();
        let batch = BatchProfiler::new(Profiler::new(&e, &o, ProfilerConfig::default()), 0);
        assert_eq!(batch.threads(), 1);
    }
}
