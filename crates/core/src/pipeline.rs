//! The daily retraining pipeline.
//!
//! Section 5.4: "We update our model every day. … we obtain from our
//! database the sequence of hosts visited by all the users during the whole
//! previous day. We use all that sequences to train a new model that we
//! immediately start using to calculate profiles." The extension reports
//! every 10 minutes and each report triggers profiling of the last
//! `T = 20` minutes.
//!
//! [`Pipeline`] packages those operating parameters with the training step
//! (including the Section 5.4 blocklist filtering of tracker hostnames,
//! applied to the *training corpus* as well as to sessions). Training is two
//! steps: [`Pipeline::prepare`] filters, counts and encodes host ids and
//! allocates the model; [`Prepared::sgd`] is the SGD pass alone, which the
//! CTR experiment runs a day ahead on a second thread.

use crate::batch::BatchProfiler;
use crate::profiler::{Profiler, ProfilerConfig};
pub use hostprof_embed::Prepared;
use hostprof_embed::{EmbeddingSet, SkipGram, SkipGramConfig, TrainStats, Vocab};
use hostprof_ontology::{Blocklist, Ontology};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Operating parameters of the profiling deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// SKIPGRAM hyperparameters (paper: gensim defaults).
    pub skipgram: SkipGramConfig,
    /// Profiler knobs (paper: N = 1000).
    pub profiler: ProfilerConfig,
    /// Session window `T` in minutes (paper: 20).
    pub session_minutes: u64,
    /// Extension report interval in minutes (paper: 10).
    pub report_minutes: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            skipgram: SkipGramConfig::default(),
            profiler: ProfilerConfig::default(),
            session_minutes: 20,
            report_minutes: 10,
        }
    }
}

impl PipelineConfig {
    /// Session window in milliseconds.
    pub fn session_window_ms(&self) -> u64 {
        self.session_minutes * 60_000
    }

    /// Report interval in milliseconds.
    pub fn report_interval_ms(&self) -> u64 {
        self.report_minutes * 60_000
    }
}

/// The back-end: trains daily models and hands out profilers.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    blocklist: Blocklist,
}

impl Pipeline {
    /// Create with a blocklist (use `Blocklist::new()` to disable
    /// filtering).
    pub fn new(config: PipelineConfig, blocklist: Blocklist) -> Self {
        Self { config, blocklist }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The tracker blocklist.
    pub fn blocklist(&self) -> &Blocklist {
        &self.blocklist
    }

    /// Train one day's model from the previous day's per-user hostname
    /// sequences. Tracker hostnames are filtered out first, and the
    /// trained embeddings are mean-centered ("all-but-the-top" step 1):
    /// laptop-scale corpora develop a strong common direction that
    /// flattens Eq. 3's α-weights, and centering restores contrast.
    /// Corpora at the paper's scale don't need it, but it never hurts.
    pub fn train_model<S: AsRef<str>>(&self, sequences: &[Vec<S>]) -> Result<EmbeddingSet, String> {
        self.train_model_with_stats(sequences).map(|(emb, _)| emb)
    }

    /// Like [`Self::train_model`], but also returns the trainer's
    /// throughput/coverage stats for callers that report them (CLI,
    /// benches).
    pub fn train_model_with_stats<S: AsRef<str>>(
        &self,
        sequences: &[Vec<S>],
    ) -> Result<(EmbeddingSet, TrainStats), String> {
        let model = self.prepare_names(sequences)?.fit();
        let stats = *model.train_stats();
        Ok((model.into_embeddings().centered(), stats))
    }

    /// [`Self::prepare`] for hostname sequences: each name is interned to
    /// a dense id (one hash per token) and the ids are prepared.
    pub fn prepare_names<S: AsRef<str>>(&self, sequences: &[Vec<S>]) -> Result<Prepared, String> {
        let mut names: Vec<&str> = Vec::new();
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let sequences = sequences
            .iter()
            .map(|seq| {
                seq.iter()
                    .map(|h| {
                        *ids.entry(h.as_ref()).or_insert_with(|| {
                            names.push(h.as_ref());
                            names.len() as u32 - 1
                        })
                    })
                    .collect()
            })
            .collect();
        self.prepare(sequences, |id| names[id as usize])
    }

    /// Everything a training run needs before its SGD pass
    /// ([`Prepared::sgd`]), from per-sequence host ids and the name of each
    /// id (distinct ids must have distinct names). The blocklist is asked
    /// once per distinct id; its hosts leave every sequence, and a
    /// sequence left with fewer than 2 ids is dropped. The survivors are
    /// counted into a dense table, the vocabulary is built from the counts
    /// ([`Vocab::from_counts`]) and the sequences are encoded to vocabulary
    /// rows in place. The model is then what [`SkipGram::train`] would
    /// train on the filtered names, bit for bit.
    pub fn prepare<'n>(
        &self,
        mut sequences: Vec<Vec<u32>>,
        name: impl Fn(u32) -> &'n str,
    ) -> Result<Prepared, String> {
        let n = sequences
            .iter()
            .flatten()
            .max()
            .map_or(0, |&id| id as usize + 1);
        let mut kept: Vec<Option<bool>> = vec![None; n];
        for seq in &mut sequences {
            seq.retain(|&id| {
                *kept[id as usize].get_or_insert_with(|| !self.blocklist.is_blocked(name(id)))
            });
        }
        sequences.retain(|seq| seq.len() >= 2);
        let mut counts = vec![0u64; n];
        for &id in sequences.iter().flatten() {
            counts[id as usize] += 1;
        }
        let counted = || {
            (0..n as u32)
                .zip(&counts)
                .filter(|(_, &c)| c > 0)
                .map(|(id, &c)| (id, name(id), c))
        };
        let skipgram = &self.config.skipgram;
        let vocab = Vocab::from_counts(
            counted().map(|(_, name, c)| (name, c)),
            skipgram.min_count,
            skipgram.subsample,
        );
        // Vocabulary row of each id; `u32::MAX` for ids below `min_count`.
        let mut row = vec![u32::MAX; n];
        for (id, name, _) in counted() {
            row[id as usize] = vocab.get(name).unwrap_or(u32::MAX);
        }
        for seq in &mut sequences {
            seq.retain_mut(|id| {
                *id = row[*id as usize];
                *id != u32::MAX
            });
        }
        SkipGram::prepare(vocab, sequences, skipgram)
    }

    /// A profiler bound to a trained model and an ontology.
    pub fn profiler<'a>(
        &self,
        embeddings: &'a EmbeddingSet,
        ontology: &'a Ontology,
    ) -> Profiler<'a> {
        Profiler::new(embeddings, ontology, self.config.profiler.clone())
    }

    /// A batched profiler over `threads` workers — what the report tick
    /// uses to profile all active users in one call. Produces exactly the
    /// same profiles as [`Self::profiler`], session for session.
    pub fn batch_profiler<'a>(
        &self,
        embeddings: &'a EmbeddingSet,
        ontology: &'a Ontology,
        threads: usize,
    ) -> BatchProfiler<'a> {
        BatchProfiler::new(self.profiler(embeddings, ontology), threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use hostprof_ontology::{BlocklistProvider, CategoryId, CategoryVector};

    fn corpus() -> Vec<Vec<String>> {
        let mut out = Vec::new();
        for i in 0..80 {
            let t = format!("travel{}.com", i % 4);
            out.push(vec![
                t.clone(),
                "travel-api.net".into(),
                format!("travel{}.com", (i + 1) % 4),
                "pixel.tracker.net".into(),
            ]);
            out.push(vec![
                format!("sport{}.com", i % 4),
                "sport-cdn.net".into(),
                format!("sport{}.com", (i + 2) % 4),
            ]);
        }
        out
    }

    fn pipeline() -> Pipeline {
        let blocklist =
            Blocklist::from_providers(vec![BlocklistProvider::new("t", ["tracker.net"])]);
        let config = PipelineConfig {
            skipgram: SkipGramConfig::tiny(),
            ..Default::default()
        };
        Pipeline::new(config, blocklist)
    }

    #[test]
    fn training_filters_trackers_out_of_the_vocabulary() {
        let p = pipeline();
        let emb = p.train_model(&corpus()).unwrap();
        assert!(emb.vector("pixel.tracker.net").is_none());
        assert!(emb.vector("travel0.com").is_some());
    }

    #[test]
    fn trained_model_supports_end_to_end_profiling() {
        let p = pipeline();
        let emb = p.train_model(&corpus()).unwrap();
        let mut ontology = Ontology::new();
        for i in 0..4 {
            ontology.insert(
                &format!("travel{i}.com"),
                CategoryVector::singleton(CategoryId(10)),
            );
            ontology.insert(
                &format!("sport{i}.com"),
                CategoryVector::singleton(CategoryId(20)),
            );
        }
        let profiler = p.profiler(&emb, &ontology);
        // The unlabeled API endpoint must inherit the travel label.
        let session = Session::from_window(["travel-api.net"], Some(p.blocklist()));
        let prof = profiler.profile(&session).expect("profile exists");
        assert!(
            prof.categories.get(CategoryId(10)) > prof.categories.get(CategoryId(20)),
            "{:?}",
            prof.categories
        );
    }

    #[test]
    fn config_json_from_before_centering_became_unconditional_still_loads() {
        // `PipelineConfig::default()` as the last commit with the field
        // serialized it.
        let old = r#"{"skipgram":{"dim":100,"window":2,"negatives":5,"epochs":5,
            "learning_rate":0.02500000037252903,"min_count":1,"subsample":0.001,
            "threads":1,"seed":1592648894,"kernel":"auto"},
            "profiler":{"n_neighbors":1000,"aggregation":"Mean","index":"Exact"},
            "session_minutes":20,"report_minutes":10,"center_embeddings":true}"#;
        let c: PipelineConfig = serde_json::from_str(old).expect("stale field is ignored");
        assert_eq!((c.session_minutes, c.report_minutes), (20, 10));
        assert_eq!(c.profiler.n_neighbors, 1000);
    }

    #[test]
    fn window_arithmetic() {
        let c = PipelineConfig::default();
        assert_eq!(c.session_window_ms(), 20 * 60_000);
        assert_eq!(c.report_interval_ms(), 10 * 60_000);
    }

    #[test]
    fn empty_corpus_errors() {
        let p = pipeline();
        assert!(p.train_model(&Vec::<Vec<String>>::new()).is_err());
        // A corpus that is all trackers filters down to nothing.
        let all_blocked = vec![vec![
            "pixel.tracker.net".to_string(),
            "px2.tracker.net".to_string(),
        ]];
        assert!(p.train_model(&all_blocked).is_err());
    }

    #[test]
    fn training_is_deterministic() {
        let p = pipeline();
        let a = p.train_model(&corpus()).unwrap();
        let b = p.train_model(&corpus()).unwrap();
        assert_eq!(
            a.cosine("travel0.com", "travel1.com"),
            b.cosine("travel0.com", "travel1.com")
        );
    }
}
