//! The session profiler (Eq. 3–4 of the paper).
//!
//! Given trained hostname embeddings and the partial ontology `H_L`, a
//! [`Profiler`] turns a [`Session`] into a category-importance vector:
//!
//! * the session vector is the mean of its hostnames' embeddings
//!   (aggregation function `g`);
//! * the `N` most cosine-similar hostnames `H_{s}` are retrieved
//!   (paper: `N = 1000`);
//! * over `H_s ∪ L` (L = labeled hosts *in* the session), weights are
//!   `α_h = 1` for `h ∈ L` and `α_h = [cos(s, h)]₊` otherwise (Eq. 3);
//! * category importances are the α-weighted mean of the labeled hosts'
//!   category vectors (Eq. 4) — unlabeled neighbors drop out of the sum,
//!   which is exactly how the kNN propagates the sparse ontology to
//!   CDN/API-heavy sessions. They still compete for the `N` places (that
//!   is Eq. 3), so the kNN ranks every host and hands back the labeled
//!   members only ([`RowFilter`]).
//!
//! The hot path is allocation-light: the labeled-host index is a sorted
//! array probed by binary search, Eq. 4 accumulates into a dense
//! `f32` array indexed by [`CategoryId`] (no hashing), and every buffer
//! lives in a caller-reusable [`ProfileScratch`].
//!
//! There is one kernel (`Profiler::profile_resolved`, crate-private), and
//! it never sees a hostname: a session reaches it as a slice of
//! [`ResolvedHost`]s. The two resolvers are [`Profiler::resolve`] (by name
//! — what [`Profiler::profile`] and the batch engine in [`crate::batch`]
//! do, once per session host) and the serving tick's per-version table
//! over interned host ids ([`crate::serve`]).

use crate::session::Session;
use hostprof_embed::{EmbeddingSet, IndexConfig, KnnScratch, NnIndex, RowFilter};
use hostprof_ontology::{CategoryId, CategoryVector, Ontology};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Profiler knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfilerConfig {
    /// `N`: how many nearest hostnames to retrieve around the session
    /// vector (paper: 1000).
    pub n_neighbors: usize,
    /// The aggregation function `g` combining hostname vectors into the
    /// session vector. The paper only requires *an* aggregation and uses a
    /// simple one; these variants back the E8 ablations.
    pub aggregation: Aggregation,
    /// Which nearest-neighbor index answers the `H_s` retrieval. Defaults
    /// to the exact scan, so existing configs (and golden replays) are
    /// untouched; IVF trades bounded recall loss for throughput at large
    /// vocabularies.
    #[serde(default)]
    pub index: IndexConfig,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        Self {
            n_neighbors: 1000,
            aggregation: Aggregation::Mean,
            index: IndexConfig::Exact,
        }
    }
}

/// Variants of the aggregation function `g` (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Aggregation {
    /// Unweighted element-wise mean — the paper's implicit choice.
    Mean,
    /// Exponential recency weighting: the i-th most recent hostname gets
    /// weight `0.5^(i / half_life)`, so fresh interests dominate.
    Recency {
        /// Positions per weight halving.
        half_life: usize,
    },
    /// Inverse-frequency weighting: hostname `h` gets weight
    /// `1 / ln(e + count(h))`, discounting the google/facebook-style hosts
    /// that appear in every session.
    InverseFrequency,
}

/// The inferred profile of one session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionProfile {
    /// Category importances `c^{s_u^T}`, each in `[0, 1]` (Eq. 4).
    pub categories: CategoryVector,
    /// The aggregated session embedding `s_u^T` (empty when no session
    /// hostname was in vocabulary and the profile fell back to
    /// ontology-only labels).
    pub session_vector: Vec<f32>,
    /// How many session hostnames had ontology labels (`|L|`).
    pub labeled_in_session: usize,
    /// How many labeled neighbors contributed through the embedding.
    pub labeled_neighbors: usize,
}

/// One session host as the kernel sees it: everything a hostname means
/// under one model, with the name gone. A host with neither field still
/// occupies its place in the session — [`Aggregation::Recency`] reads the
/// session's length and each host's position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedHost<'a> {
    /// The host's embedding row, when it is in vocabulary.
    pub row: Option<u32>,
    /// The host's category vector, when it is in `H_L`.
    pub labels: Option<&'a CategoryVector>,
}

/// Reusable per-caller working memory for profiling.
///
/// Holds the kNN query/key scratch and the dense Eq. 4 accumulator.
/// The accumulator is epoch-stamped: `begin` bumps the epoch instead of
/// zeroing the whole array, so resetting between sessions is `O(1)` and
/// only the categories actually touched are read back out.
pub struct ProfileScratch {
    pub(crate) knn: KnnScratch,
    /// Dense Eq. 4 numerator, indexed by `CategoryId::index()`.
    acc: Vec<f32>,
    /// Epoch stamp per slot; a stale stamp means the slot is logically 0.
    stamp: Vec<u32>,
    epoch: u32,
    /// Categories touched this session, in first-touch order.
    touched: Vec<CategoryId>,
    /// Sorted vocab indices of the session's labeled hosts.
    in_session: Vec<u32>,
}

impl ProfileScratch {
    /// Fresh scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self {
            knn: KnnScratch::new(),
            acc: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            touched: Vec::new(),
            in_session: Vec::new(),
        }
    }

    /// Start a new accumulation over category ids `0..bound`.
    fn begin(&mut self, bound: usize) {
        if self.acc.len() < bound {
            self.acc.resize(bound, 0.0);
            self.stamp.resize(bound, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: old stamps could alias the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }

    /// Fold `alpha * cats` into the numerator.
    #[inline]
    fn add(&mut self, cats: &CategoryVector, alpha: f32) {
        for (c, w) in cats.iter() {
            let i = c.index();
            if i >= self.acc.len() {
                // A category beyond the bound declared to `begin` (e.g. a
                // scratch reused across profilers over different
                // ontologies) grows the accumulator instead of indexing
                // out of bounds.
                self.acc.resize(i + 1, 0.0);
                self.stamp.resize(i + 1, 0);
            }
            if self.stamp[i] != self.epoch {
                self.stamp[i] = self.epoch;
                self.acc[i] = 0.0;
                self.touched.push(c);
            }
            self.acc[i] += alpha * w;
        }
    }

    /// Read the accumulated categories back out, divided by `alpha_sum`.
    fn take(&mut self, alpha_sum: f32) -> CategoryVector {
        CategoryVector::from_pairs(
            self.touched
                .iter()
                .map(|&c| (c, self.acc[c.index()] / alpha_sum))
                .collect(),
        )
    }
}

impl Default for ProfileScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The vocabulary-dependent precomputed state of a profiler, detached
/// from the embeddings it was built against: the sorted labeled-host
/// index, the dense slot table, the Eq. 4 accumulator bound, and the
/// built kNN index. Owning this separately is what lets a versioned
/// model (DESIGN.md §14) publish `{embeddings, prepared}` as one
/// atomic bundle and bind a borrowing [`Profiler`] per serve tick for
/// the cost of three pointer copies — no per-tick rebuild, no
/// self-referential struct.
pub struct PreparedProfiler {
    config: ProfilerConfig,
    /// `(vocab index, categories)` for every labeled in-vocabulary host,
    /// sorted by index (replaces a per-profiler `HashMap`). Category
    /// vectors are cloned out of the ontology so the prepared state
    /// borrows nothing.
    labeled_by_idx: Vec<(u32, CategoryVector)>,
    /// Dense vocab-indexed table: `labeled_slot[idx]` is the position of
    /// `idx` in `labeled_by_idx`, or `u32::MAX`. Turns the per-neighbor
    /// lookup on the kNN result stream into one bounds-checked load.
    labeled_slot: Vec<u32>,
    /// The vocab indices of `labeled_by_idx` alone, ascending — with
    /// `labeled_slot`, the kNN's [`RowFilter`]: Eq. 4 reads labeled
    /// neighbors only, so only those are gathered.
    labeled_rows: Vec<u32>,
    /// One past the largest `CategoryId` any ontology entry carries —
    /// sizes the dense Eq. 4 accumulator.
    category_bound: usize,
    /// The kNN index answering `H_s` retrievals, built per
    /// `config.index` over the embeddings this state was prepared from.
    index: Box<dyn NnIndex>,
}

impl PreparedProfiler {
    /// Precompute the labeled-host tables and build the kNN index for
    /// `embeddings`. The resulting state is only meaningful when bound
    /// back to the same embeddings (and an ontology carrying the same
    /// labels) via [`Self::bind`].
    pub fn build(embeddings: &EmbeddingSet, ontology: &Ontology, config: ProfilerConfig) -> Self {
        let mut labeled_by_idx = Vec::new();
        let mut category_bound = 0usize;
        for (host, cats) in ontology.iter() {
            if let Some(idx) = embeddings.vocab().get(host) {
                labeled_by_idx.push((idx, cats.clone()));
            }
            for (c, _) in cats.iter() {
                category_bound = category_bound.max(c.index() + 1);
            }
        }
        // Ontology hosts are unique, so vocab indices are too.
        labeled_by_idx.sort_unstable_by_key(|&(idx, _)| idx);
        let mut labeled_slot = vec![u32::MAX; embeddings.len()];
        for (slot, &(idx, _)) in labeled_by_idx.iter().enumerate() {
            labeled_slot[idx as usize] = slot as u32;
        }
        let labeled_rows = labeled_by_idx.iter().map(|&(idx, _)| idx).collect();
        let index = config.index.build(embeddings);
        Self {
            config,
            labeled_by_idx,
            labeled_slot,
            labeled_rows,
            category_bound,
            index,
        }
    }

    /// Re-attach prepared state to the embeddings/ontology it was built
    /// from. Cheap (no allocation, no index rebuild): this is the serve
    /// tick's per-version entry point.
    pub fn bind<'a>(
        &'a self,
        embeddings: &'a EmbeddingSet,
        ontology: &'a Ontology,
    ) -> Profiler<'a> {
        Profiler {
            embeddings,
            ontology,
            prepared: PreparedRef::Shared(self),
        }
    }
}

/// Prepared state a [`Profiler`] runs against: its own, or a shared
/// borrow of a versioned bundle's.
enum PreparedRef<'a> {
    Owned(PreparedProfiler),
    Shared(&'a PreparedProfiler),
}

/// Profiles sessions against one day's embedding model.
pub struct Profiler<'a> {
    embeddings: &'a EmbeddingSet,
    ontology: &'a Ontology,
    prepared: PreparedRef<'a>,
}

impl<'a> Profiler<'a> {
    /// Bind embeddings + ontology. Precomputes the labeled-host index once
    /// so per-session profiling stays cheap.
    pub fn new(
        embeddings: &'a EmbeddingSet,
        ontology: &'a Ontology,
        config: ProfilerConfig,
    ) -> Self {
        Self {
            embeddings,
            ontology,
            prepared: PreparedRef::Owned(PreparedProfiler::build(embeddings, ontology, config)),
        }
    }

    /// The prepared state this profiler runs against.
    #[inline]
    fn prepared(&self) -> &PreparedProfiler {
        match &self.prepared {
            PreparedRef::Owned(p) => p,
            PreparedRef::Shared(p) => p,
        }
    }

    /// The embeddings this profiler queries.
    pub fn embeddings(&self) -> &EmbeddingSet {
        self.embeddings
    }

    /// The configuration this profiler runs with.
    pub fn config(&self) -> &ProfilerConfig {
        &self.prepared().config
    }

    /// The nearest-neighbor index answering this profiler's retrievals.
    pub fn index(&self) -> &dyn NnIndex {
        self.prepared().index.as_ref()
    }

    /// Category vector of the labeled host at vocab index `idx`.
    #[inline]
    fn labeled_for(&self, idx: u32) -> &CategoryVector {
        let prepared = self.prepared();
        let slot = prepared.labeled_slot[idx as usize];
        debug_assert_ne!(slot, u32::MAX, "the kNN filter keeps labeled rows only");
        &prepared.labeled_by_idx[slot as usize].1
    }

    /// Profile a session. Returns `None` only when the session is empty or
    /// carries no signal at all (no hostname in vocabulary *and* none with
    /// an ontology label).
    pub fn profile(&self, session: &Session) -> Option<SessionProfile> {
        self.profile_with_scratch(session, &mut ProfileScratch::new())
    }

    /// [`Self::profile`] with caller-owned scratch, so repeated profiling
    /// reuses the kNN buffers and the dense category accumulator. Output
    /// is identical to [`Self::profile`] — the scratch only recycles
    /// memory, never state.
    pub fn profile_with_scratch(
        &self,
        session: &Session,
        scratch: &mut ProfileScratch,
    ) -> Option<SessionProfile> {
        let hosts: Vec<ResolvedHost<'a>> = session.iter().map(|h| self.resolve(h)).collect();
        let mut profile = None;
        self.profile_resolved(
            &hosts,
            std::slice::from_ref(&(0..hosts.len())),
            std::slice::from_mut(&mut profile),
            scratch,
        );
        profile
    }

    /// The string resolver: what a (lowercase) hostname means under this
    /// model — its vocabulary row and its ontology label, one hash lookup
    /// each.
    pub fn resolve(&self, host: &str) -> ResolvedHost<'a> {
        ResolvedHost {
            row: self.embeddings.vocab().get(host),
            labels: self.ontology.lookup(host),
        }
    }

    /// The kernel: profile `sessions`, each a range of `hosts` in
    /// first-visit order, into `out` — stage every session's aggregation,
    /// resolve all kNN queries in a single tiled scan, then assemble the
    /// profiles. `out[i]` is `None` when session `i` is empty or carries no
    /// signal at all (no host in vocabulary *and* none labeled).
    pub(crate) fn profile_resolved(
        &self,
        hosts: &[ResolvedHost<'_>],
        sessions: &[Range<usize>],
        out: &mut [Option<SessionProfile>],
        scratch: &mut ProfileScratch,
    ) {
        debug_assert_eq!(sessions.len(), out.len());
        // One query per session with a vector; `slots[i]` indexes straight
        // into `queries`/`results`, so sessions without a vector can never
        // desynchronize the answer stream.
        let mut queries: Vec<Vec<f32>> = Vec::new();
        let slots: Vec<Option<usize>> = sessions
            .iter()
            .map(|range| {
                self.aggregate(&hosts[range.clone()]).map(|v| {
                    queries.push(v);
                    queries.len() - 1
                })
            })
            .collect();
        // H_s: the N nearest hostnames to each session vector — of which
        // the labeled ones come back, the only ones Eq. 4 reads.
        let prepared = self.prepared();
        let mut results = self.embeddings.nearest_to_vectors_filtered(
            &queries,
            prepared.config.n_neighbors,
            prepared.index.as_ref(),
            Some(RowFilter {
                rows: &prepared.labeled_rows,
                slots: &prepared.labeled_slot,
            }),
            &mut scratch.knn,
        );
        debug_assert_eq!(results.len(), queries.len(), "one kNN result per query");
        for ((profile, range), slot) in out.iter_mut().zip(sessions).zip(slots) {
            let (sv, neighbors) = match slot {
                Some(qi) => (
                    Some(std::mem::take(&mut queries[qi])),
                    std::mem::take(&mut results[qi]),
                ),
                None => (None, Vec::new()),
            };
            *profile = self.assemble(&hosts[range.clone()], sv, &neighbors, scratch);
        }
    }

    /// Eq. 3/4: fold the kNN neighbor stream and the in-session labels `L`
    /// (weight 1 regardless of cosine) into a profile. `neighbors` must be
    /// the labeled members of the kNN result for `session_vector`, in rank
    /// order (empty when the session has no vector).
    fn assemble(
        &self,
        session: &[ResolvedHost<'_>],
        session_vector: Option<Vec<f32>>,
        neighbors: &[(u32, f32)],
        scratch: &mut ProfileScratch,
    ) -> Option<SessionProfile> {
        scratch.in_session.clear();
        scratch
            .in_session
            .extend(session.iter().filter_map(|h| h.labels.and(h.row)));
        scratch.in_session.sort_unstable();

        scratch.begin(self.prepared().category_bound);
        let mut alpha_sum = 0f32;
        let mut labeled_neighbors = 0usize;
        for &(idx, sim) in neighbors {
            if scratch.in_session.binary_search(&idx).is_ok() {
                continue; // weighted 1 below, don't double-count
            }
            let alpha = sim.max(0.0); // [x]₊ of Eq. 3
            if alpha > 0.0 {
                alpha_sum += alpha;
                scratch.add(self.labeled_for(idx), alpha);
                labeled_neighbors += 1;
            }
        }
        let mut labeled_in_session = 0usize;
        for cats in session.iter().filter_map(|h| h.labels) {
            alpha_sum += 1.0;
            scratch.add(cats, 1.0);
            labeled_in_session += 1;
        }
        if labeled_neighbors + labeled_in_session == 0 {
            return None;
        }

        // Eq. 4: category importance = α-weighted mean.
        let categories = scratch.take(alpha_sum);
        Some(SessionProfile {
            categories,
            session_vector: session_vector.unwrap_or_default(),
            labeled_in_session,
            labeled_neighbors,
        })
    }

    /// The aggregation `g`: a weighted element-wise mean of the session
    /// hosts' vectors (weights per [`Aggregation`]). `None` when no session
    /// host is in vocabulary.
    fn aggregate(&self, session: &[ResolvedHost<'_>]) -> Option<Vec<f32>> {
        let dim = self.embeddings.dim();
        let mut acc = vec![0f32; dim];
        let mut weight_sum = 0f32;
        let n = session.len();
        for (pos, host) in session.iter().enumerate() {
            let Some(idx) = host.row else {
                continue;
            };
            let w = match self.prepared().config.aggregation {
                Aggregation::Mean => 1.0,
                Aggregation::Recency { half_life } => {
                    // Sessions are in first-visit order: the last entry is
                    // the most recent.
                    let age = (n - 1 - pos) as f32;
                    0.5f32.powf(age / half_life.max(1) as f32)
                }
                Aggregation::InverseFrequency => {
                    let count = self.embeddings.vocab().count(idx) as f32;
                    1.0 / (std::f32::consts::E + count).ln()
                }
            };
            for (a, v) in acc.iter_mut().zip(self.embeddings.vector_by_index(idx)) {
                *a += w * v;
            }
            weight_sum += w;
        }
        if weight_sum <= 0.0 {
            return None;
        }
        for a in &mut acc {
            *a /= weight_sum;
        }
        Some(acc)
    }

    /// Baseline: ontology-only profiling (no embeddings) — what previous
    /// work could do, limited by coverage. Used by the E8 ablations.
    pub fn profile_ontology_only(&self, session: &Session) -> Option<SessionProfile> {
        let labeled: Vec<&CategoryVector> = session
            .iter()
            .filter_map(|h| self.ontology.lookup(h))
            .collect();
        if labeled.is_empty() {
            return None;
        }
        let mut scratch = ProfileScratch::new();
        scratch.begin(self.prepared().category_bound);
        for cats in &labeled {
            scratch.add(cats, 1.0);
        }
        Some(SessionProfile {
            categories: scratch.take(labeled.len() as f32),
            session_vector: Vec::new(),
            labeled_in_session: labeled.len(),
            labeled_neighbors: 0,
        })
    }
}

/// Ground-truth validation: cosine between an inferred category profile and
/// the user's true interest vector. Only meaningful in the synthetic
/// setting — the paper had to proxy this with CTR.
pub fn profile_accuracy(profile: &CategoryVector, truth: &CategoryVector) -> f32 {
    profile.cosine(truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostprof_embed::Vocab;

    /// Hand-built world: 2-D embeddings with a "travel" axis and a "sport"
    /// axis. travel.com is labeled; travel-api.net is NOT labeled but sits
    /// on the travel axis; sport.com is labeled on the sport axis.
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
        (embeddings, ontology)
    }

    #[test]
    fn labeled_session_host_dominates() {
        let (e, o) = setup();
        let p = Profiler::new(
            &e,
            &o,
            ProfilerConfig {
                n_neighbors: 5,
                ..Default::default()
            },
        );
        let session = Session::from_window(["travel.com"], None);
        let prof = p.profile(&session).unwrap();
        assert!(prof.categories.get(CategoryId(10)) > prof.categories.get(CategoryId(20)));
        assert_eq!(prof.labeled_in_session, 1);
    }

    #[test]
    fn unlabeled_api_host_inherits_nearby_labels() {
        let (e, o) = setup();
        let p = Profiler::new(
            &e,
            &o,
            ProfilerConfig {
                n_neighbors: 5,
                ..Default::default()
            },
        );
        // Session contains ONLY the unlabeled API endpoint: the kNN must
        // propagate travel.com's label (the paper's api.bkng.azure.com
        // example).
        let session = Session::from_window(["travel-api.net"], None);
        let prof = p.profile(&session).unwrap();
        assert_eq!(prof.labeled_in_session, 0);
        assert!(prof.labeled_neighbors >= 1);
        assert!(
            prof.categories.get(CategoryId(10)) > prof.categories.get(CategoryId(20)),
            "travel label propagated: {:?}",
            prof.categories
        );
        // The ontology-only baseline fails on this exact session.
        assert!(p.profile_ontology_only(&session).is_none());
    }

    #[test]
    fn mixed_session_blends_categories() {
        let (e, o) = setup();
        let p = Profiler::new(
            &e,
            &o,
            ProfilerConfig {
                n_neighbors: 5,
                ..Default::default()
            },
        );
        let session = Session::from_window(["travel.com", "sport.com"], None);
        let prof = p.profile(&session).unwrap();
        let travel = prof.categories.get(CategoryId(10));
        let sport = prof.categories.get(CategoryId(20));
        assert!(travel > 0.0 && sport > 0.0);
        assert!(
            (travel - sport).abs() < 0.3,
            "roughly balanced: {travel} vs {sport}"
        );
    }

    #[test]
    fn importances_stay_in_unit_interval() {
        let (e, o) = setup();
        let p = Profiler::new(&e, &o, ProfilerConfig::default());
        let session = Session::from_window(["travel.com", "travel-api.net", "sport-cdn.net"], None);
        let prof = p.profile(&session).unwrap();
        for (_, w) in prof.categories.iter() {
            assert!((0.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn out_of_vocabulary_unlabeled_session_yields_none() {
        let (e, o) = setup();
        let p = Profiler::new(&e, &o, ProfilerConfig::default());
        let session = Session::from_window(["never-seen.example"], None);
        assert!(p.profile(&session).is_none());
        assert!(p.profile(&Session::default()).is_none());
    }

    #[test]
    fn out_of_vocabulary_but_labeled_host_still_profiles() {
        let (e, mut o) = setup();
        o.insert(
            "fresh-labeled.example",
            CategoryVector::singleton(CategoryId(7)),
        );
        let p = Profiler::new(&e, &o, ProfilerConfig::default());
        let session = Session::from_window(["fresh-labeled.example"], None);
        let prof = p.profile(&session).unwrap();
        assert!(prof.categories.get(CategoryId(7)) > 0.9);
        assert!(prof.session_vector.is_empty(), "no embedding available");
    }

    #[test]
    fn recency_aggregation_tilts_toward_recent_hosts() {
        let (e, o) = setup();
        let cfg_mean = ProfilerConfig {
            n_neighbors: 5,
            aggregation: Aggregation::Mean,
            ..Default::default()
        };
        let cfg_recent = ProfilerConfig {
            n_neighbors: 5,
            aggregation: Aggregation::Recency { half_life: 1 },
            ..Default::default()
        };
        // travel.com is visited FIRST, sport.com most recently.
        let session = Session::from_window(["travel.com", "sport.com"], None);
        let mean = Profiler::new(&e, &o, cfg_mean).profile(&session).unwrap();
        let recent = Profiler::new(&e, &o, cfg_recent).profile(&session).unwrap();
        // Recency weighting pushes the session vector toward the sport
        // axis (dimension 1 in the toy embedding).
        assert!(
            recent.session_vector[1] > mean.session_vector[1] + 0.1,
            "recency {:?} vs mean {:?}",
            recent.session_vector,
            mean.session_vector
        );
    }

    #[test]
    fn inverse_frequency_discounts_popular_hosts() {
        // Build a vocabulary where travel.com is 10× more frequent.
        let mut seq = vec!["travel.com"; 10];
        seq.push("sport.com");
        let vocab = hostprof_embed::Vocab::build(vec![seq], 1, 0.0);
        let mut vectors = vec![0f32; vocab.len() * 2];
        let ti = vocab.get("travel.com").unwrap() as usize;
        let si = vocab.get("sport.com").unwrap() as usize;
        vectors[ti * 2] = 1.0;
        vectors[si * 2 + 1] = 1.0;
        let e = EmbeddingSet::new(2, vocab, vectors);
        let mut o = Ontology::new();
        o.insert("travel.com", CategoryVector::singleton(CategoryId(10)));
        o.insert("sport.com", CategoryVector::singleton(CategoryId(20)));

        let session = Session::from_window(["travel.com", "sport.com"], None);
        let mean = Profiler::new(
            &e,
            &o,
            ProfilerConfig {
                n_neighbors: 5,
                aggregation: Aggregation::Mean,
                ..Default::default()
            },
        )
        .profile(&session)
        .unwrap();
        let idf = Profiler::new(
            &e,
            &o,
            ProfilerConfig {
                n_neighbors: 5,
                aggregation: Aggregation::InverseFrequency,
                ..Default::default()
            },
        )
        .profile(&session)
        .unwrap();
        // Under IDF the rare sport.com pulls harder than the frequent
        // travel.com.
        assert!(idf.session_vector[1] > idf.session_vector[0]);
        assert!(
            idf.session_vector[1] > mean.session_vector[1] + 0.05,
            "idf {:?} vs mean {:?}",
            idf.session_vector,
            mean.session_vector
        );
    }

    #[test]
    fn profile_accuracy_is_cosine() {
        let a = CategoryVector::singleton(CategoryId(1));
        let b = CategoryVector::singleton(CategoryId(1));
        let c = CategoryVector::singleton(CategoryId(2));
        assert!((profile_accuracy(&a, &b) - 1.0).abs() < 1e-6);
        assert_eq!(profile_accuracy(&a, &c), 0.0);
    }

    #[test]
    fn labeled_in_vocabulary_counts_intersection() {
        let (e, o) = setup();
        let p = Profiler::new(&e, &o, ProfilerConfig::default());
        assert_eq!(p.prepared().labeled_by_idx.len(), 2);
    }

    #[test]
    fn scratch_reuse_never_leaks_state_across_sessions() {
        let (e, o) = setup();
        let p = Profiler::new(
            &e,
            &o,
            ProfilerConfig {
                n_neighbors: 5,
                ..Default::default()
            },
        );
        let sessions = [
            Session::from_window(["travel.com"], None),
            Session::from_window(["sport.com", "sport-cdn.net"], None),
            Session::from_window(["never-seen.example"], None),
            Session::from_window(["travel-api.net", "neutral.org"], None),
        ];
        let mut scratch = ProfileScratch::new();
        for session in &sessions {
            let fresh = p.profile(session);
            let reused = p.profile_with_scratch(session, &mut scratch);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn scratch_add_grows_beyond_declared_bound() {
        // Regression: `add` used to index `stamp[i]` directly and panic
        // when a category id exceeded the bound handed to `begin`.
        let mut s = ProfileScratch::new();
        s.begin(2);
        s.add(&CategoryVector::singleton(CategoryId(500)), 1.0);
        let v = s.take(1.0);
        assert!(v.get(CategoryId(500)) > 0.99);
    }

    #[test]
    fn ivf_exhaustive_index_profiles_identically() {
        let (e, o) = setup();
        let base = ProfilerConfig {
            n_neighbors: 5,
            ..Default::default()
        };
        let exact = Profiler::new(&e, &o, base.clone());
        assert_eq!(exact.index().name(), "exact");
        let ivf = Profiler::new(
            &e,
            &o,
            ProfilerConfig {
                index: IndexConfig::Ivf {
                    nlists: 3,
                    nprobe: 3,
                    seed: 1,
                },
                ..base
            },
        );
        assert_eq!(ivf.index().name(), "ivf");
        let sessions = [
            Session::from_window(["travel.com"], None),
            Session::from_window(["travel-api.net", "neutral.org"], None),
            Session::from_window(["sport.com", "sport-cdn.net"], None),
            Session::from_window(["never-seen.example"], None),
        ];
        // Exhaustive probing scans every non-zero row with the same kernel
        // as the exact path, so the profiles must be equal — including
        // their float bits, via PartialEq on the category vectors.
        for session in &sessions {
            assert_eq!(exact.profile(session), ivf.profile(session));
        }
    }

    #[test]
    fn index_config_survives_profiler_config_serde() {
        let config = ProfilerConfig {
            n_neighbors: 7,
            index: IndexConfig::Ivf {
                nlists: 32,
                nprobe: 4,
                seed: 99,
            },
            ..Default::default()
        };
        let json = serde_json::to_string(&config).unwrap();
        let back: ProfilerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.index, config.index);
        // A config serialized before the field existed still deserializes,
        // defaulting to the exact scan.
        let legacy: ProfilerConfig =
            serde_json::from_str(r#"{"n_neighbors":3,"aggregation":"Mean"}"#).unwrap();
        assert_eq!(legacy.index, IndexConfig::Exact);
    }

    #[test]
    fn epoch_wraparound_clears_stale_stamps() {
        let (e, o) = setup();
        let p = Profiler::new(
            &e,
            &o,
            ProfilerConfig {
                n_neighbors: 5,
                ..Default::default()
            },
        );
        let session = Session::from_window(["travel.com", "sport.com"], None);
        let mut scratch = ProfileScratch::new();
        let baseline = p.profile(&session).unwrap();
        // Force the epoch to the wrap boundary mid-stream.
        let first = p.profile_with_scratch(&session, &mut scratch).unwrap();
        scratch.epoch = u32::MAX;
        let wrapped = p.profile_with_scratch(&session, &mut scratch).unwrap();
        assert_eq!(baseline, first);
        assert_eq!(baseline, wrapped);
    }
}
