//! # hostprof-embed
//!
//! A from-scratch SKIPGRAM-with-negative-sampling implementation — the
//! representation-learning engine of *User Profiling by Network Observers*
//! (CoNEXT '21, Section 4.1).
//!
//! The paper treats per-user hostname request sequences like sentences and
//! hostnames like words, learning an embedding `W ∈ ℝ^{|H|×d}` such that
//! co-requested hostnames land nearby. It uses the GENSIM defaults:
//! dimension `d = 100`, window `2m+1 = 5` (`m = 2`), `K = 5` negative
//! samples drawn from the empirical unigram distribution (raised to the
//! conventional 3/4 power), trained with SGD and a linearly decaying
//! learning rate. All of that is reproduced here, plus:
//!
//! * frequent-token subsampling (gensim `sample=1e-3`), which in this
//!   domain downweights the google/facebook-style core hosts;
//! * word2vec's *dynamic window* (the effective window for each center is
//!   uniform in `1..=m`), and its precomputed sigmoid table;
//! * optional lock-free **Hogwild** parallel training (the paper:
//!   "the algorithm is fully parallelizable and can be scaled up to
//!   requirements") — single-threaded runs are bit-deterministic, which the
//!   test-suite relies on;
//! * similarity queries over the trained vectors: cosine kNN
//!   ([`EmbeddingSet::most_similar`], [`EmbeddingSet::nearest_to_vector`])
//!   and the session aggregation the profiler needs.

pub mod config;
pub mod corpus;
pub mod embedding;
pub mod index;
pub mod knn;
pub mod model;
pub mod persist;
pub mod sigmoid;
pub mod simd;
pub mod table;
pub mod vocab;

pub use config::{KernelChoice, SkipGramConfig};
pub use corpus::CorpusBuffer;
pub use embedding::EmbeddingSet;
pub use hostprof_store::FlatError;
pub use index::{ExactScan, IndexConfig, IvfFlat, IvfParams, NnIndex, DEFAULT_IVF_SEED};
pub use knn::{KnnScratch, RowFilter};
pub use model::{Prepared, SkipGram, TrainStats, UpdateReport};
pub use persist::{from_flat_bytes, to_flat_bytes};
pub use table::NegativeTable;
pub use vocab::Vocab;
