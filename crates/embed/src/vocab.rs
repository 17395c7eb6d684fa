//! Token vocabulary with counts, min-count filtering and subsampling.

use std::collections::HashMap;

/// A frozen vocabulary: token ↔ dense index, plus corpus counts and the
/// per-token *keep probability* used for frequent-token subsampling.
#[derive(Debug, Clone)]
pub struct Vocab {
    tokens: Vec<String>,
    counts: Vec<u64>,
    index: HashMap<String, u32>,
    keep_prob: Vec<f64>,
    total_count: u64,
}

impl Vocab {
    /// Build from token sequences, dropping tokens seen fewer than
    /// `min_count` times and computing subsampling keep-probabilities with
    /// threshold `subsample` (0 disables subsampling: keep everything).
    ///
    /// Tokens are ordered by descending count (ties broken
    /// lexicographically) so index 0 is the most frequent token, as in
    /// word2vec.
    pub fn build<'a, I, S>(sequences: I, min_count: u64, subsample: f64) -> Self
    where
        I: IntoIterator<Item = S>,
        S: IntoIterator<Item = &'a str>,
    {
        let mut raw: HashMap<&str, u64> = HashMap::new();
        for seq in sequences {
            for tok in seq {
                *raw.entry(tok).or_insert(0) += 1;
            }
        }
        Self::from_counts(raw, min_count, subsample)
    }

    /// Build from `(token, count)` pairs, one per distinct token, in any
    /// order — what [`Self::build`] counts, for a caller that counted
    /// already (the pipeline counts dense host ids). Same filtering, order
    /// and keep-probabilities as [`Self::build`].
    ///
    /// # Panics
    /// Panics when a token repeats: its index would be ambiguous.
    pub fn from_counts<'a>(
        counts: impl IntoIterator<Item = (&'a str, u64)>,
        min_count: u64,
        subsample: f64,
    ) -> Self {
        let mut pairs: Vec<(&str, u64)> = counts
            .into_iter()
            .filter(|(_, c)| *c >= min_count.max(1))
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));

        let total_count: u64 = pairs.iter().map(|(_, c)| c).sum();
        let mut tokens = Vec::with_capacity(pairs.len());
        let mut counts = Vec::with_capacity(pairs.len());
        let mut index = HashMap::with_capacity(pairs.len());
        let mut keep_prob = Vec::with_capacity(pairs.len());
        for (i, (tok, c)) in pairs.into_iter().enumerate() {
            let repeated = index.insert(tok.to_string(), i as u32).is_some();
            assert!(!repeated, "token {tok:?} counted twice");
            tokens.push(tok.to_string());
            counts.push(c);
            keep_prob.push(keep_probability(c, total_count, subsample));
        }
        Self {
            tokens,
            counts,
            index,
            keep_prob,
            total_count,
        }
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Dense index of a token.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.index.get(token).copied()
    }

    /// Token at a dense index.
    ///
    /// # Panics
    /// Panics when the index is out of range.
    pub fn token(&self, idx: u32) -> &str {
        &self.tokens[idx as usize]
    }

    /// Corpus count of a token index.
    pub fn count(&self, idx: u32) -> u64 {
        self.counts[idx as usize]
    }

    /// Total corpus tokens (post min-count).
    pub fn total_count(&self) -> u64 {
        self.total_count
    }

    /// Probability of *keeping* an occurrence of token `idx` during
    /// training (1.0 when subsampling is off or the token is rare).
    pub fn keep_prob(&self, idx: u32) -> f64 {
        self.keep_prob[idx as usize]
    }

    /// All counts, index-aligned (used to build the negative table).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Iterate `(index, token)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, t.as_str()))
    }

    /// Map a raw sequence into dense indices, dropping unknown tokens.
    pub fn encode<'a, I: IntoIterator<Item = &'a str>>(&self, seq: I) -> Vec<u32> {
        seq.into_iter().filter_map(|t| self.get(t)).collect()
    }

    /// Fold a new batch of token sequences into the vocabulary **without
    /// moving any existing index** (DESIGN.md §14). Occurrences of known
    /// tokens bump their counts in place; unknown tokens seen at least
    /// `min_count` times in this batch are appended after the current end,
    /// ordered by descending batch count with lexicographic tie-break —
    /// the same deterministic order [`Vocab::build`] uses, restricted to
    /// the newcomers. Keep-probabilities are recomputed for *every* token
    /// (the totals shifted), but the token → index map only ever grows:
    /// an id handed out once is valid forever.
    ///
    /// Returns the number of appended tokens.
    pub fn grow<'a, I, S>(&mut self, sequences: I, min_count: u64, subsample: f64) -> usize
    where
        I: IntoIterator<Item = S>,
        S: IntoIterator<Item = &'a str>,
    {
        let mut fresh: HashMap<&str, u64> = HashMap::new();
        for seq in sequences {
            for tok in seq {
                if let Some(&i) = self.index.get(tok) {
                    self.counts[i as usize] += 1;
                    self.total_count += 1;
                } else {
                    *fresh.entry(tok).or_insert(0) += 1;
                }
            }
        }
        let mut pairs: Vec<(&str, u64)> = fresh
            .into_iter()
            .filter(|(_, c)| *c >= min_count.max(1))
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let appended = pairs.len();
        for (tok, c) in pairs {
            let i = self.tokens.len() as u32;
            self.index.insert(tok.to_string(), i);
            self.tokens.push(tok.to_string());
            self.counts.push(c);
            self.keep_prob.push(1.0);
            self.total_count += c;
        }
        for (p, &c) in self.keep_prob.iter_mut().zip(&self.counts) {
            *p = keep_probability(c, self.total_count, subsample);
        }
        appended
    }

    /// All keep probabilities, index-aligned (for persistence).
    pub(crate) fn keep_probs(&self) -> &[f64] {
        &self.keep_prob
    }

    /// Reassemble a vocabulary from persisted parts ([`crate::persist`]).
    /// Token order defines the dense indices, exactly as stored; `None`
    /// when a token repeats, since its index would be ambiguous.
    pub(crate) fn from_parts(
        tokens: Vec<String>,
        counts: Vec<u64>,
        keep_prob: Vec<f64>,
        total_count: u64,
    ) -> Option<Self> {
        assert_eq!(tokens.len(), counts.len());
        assert_eq!(tokens.len(), keep_prob.len());
        let index: HashMap<String, u32> = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as u32))
            .collect();
        (index.len() == tokens.len()).then_some(Self {
            tokens,
            counts,
            index,
            keep_prob,
            total_count,
        })
    }
}

/// word2vec subsampling keep probability:
/// `p = sqrt(t/f) + t/f` where `f` is the token's corpus frequency and `t`
/// the subsample threshold; clamped to `[0, 1]`.
fn keep_probability(count: u64, total: u64, subsample: f64) -> f64 {
    if subsample <= 0.0 || total == 0 {
        return 1.0;
    }
    let f = count as f64 / total as f64;
    if f <= subsample {
        return 1.0;
    }
    ((subsample / f).sqrt() + subsample / f).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Vec<&'static str>> {
        vec![
            vec!["a", "b", "a", "c"],
            vec!["a", "b", "d"],
            vec!["a", "e"],
        ]
    }

    #[test]
    fn build_orders_by_descending_count() {
        let v = Vocab::build(corpus(), 1, 0.0);
        assert_eq!(v.len(), 5);
        assert_eq!(v.token(0), "a");
        assert_eq!(v.count(0), 4);
        assert_eq!(v.token(1), "b");
        assert_eq!(v.get("e"), Some(4));
        assert_eq!(v.get("zzz"), None);
        assert_eq!(v.total_count(), 9);
    }

    #[test]
    fn min_count_drops_rare_tokens() {
        let v = Vocab::build(corpus(), 2, 0.0);
        assert_eq!(v.len(), 2); // only a (4) and b (2)
        assert!(v.get("c").is_none());
        assert_eq!(v.total_count(), 6);
    }

    #[test]
    fn subsampling_discounts_frequent_tokens_only() {
        // "a" is 4/9 of the corpus; with a small threshold it must be
        // kept with probability < 1 while singletons stay at 1.
        let v = Vocab::build(corpus(), 1, 0.05);
        let a = v.get("a").unwrap();
        let e = v.get("e").unwrap();
        assert!(v.keep_prob(a) < 1.0, "frequent token subsampled");
        assert_eq!(v.keep_prob(e), 1.0, "rare token always kept");
    }

    #[test]
    fn zero_subsample_keeps_everything() {
        let v = Vocab::build(corpus(), 1, 0.0);
        for (i, _) in v.iter() {
            assert_eq!(v.keep_prob(i), 1.0);
        }
    }

    #[test]
    fn encode_drops_unknown_tokens() {
        let v = Vocab::build(corpus(), 2, 0.0);
        let enc = v.encode(["a", "c", "b", "nope"]);
        assert_eq!(enc, vec![v.get("a").unwrap(), v.get("b").unwrap()]);
    }

    #[test]
    fn empty_corpus_builds_empty_vocab() {
        let v = Vocab::build(Vec::<Vec<&str>>::new(), 1, 1e-3);
        assert!(v.is_empty());
        assert_eq!(v.total_count(), 0);
    }

    #[test]
    fn tie_break_is_lexicographic_for_determinism() {
        let v = Vocab::build(vec![vec!["z", "y", "z", "y"]], 1, 0.0);
        assert_eq!(v.token(0), "y");
        assert_eq!(v.token(1), "z");
    }

    #[test]
    fn grow_appends_without_moving_existing_ids() {
        let mut v = Vocab::build(corpus(), 1, 0.0);
        let before: Vec<(String, u32)> = v.iter().map(|(i, t)| (t.to_string(), i)).collect();
        let appended = v.grow(vec![vec!["f", "a", "g", "f", "f"]], 1, 0.0);
        assert_eq!(appended, 2);
        for (tok, idx) in &before {
            assert_eq!(v.get(tok), Some(*idx), "{tok} moved");
        }
        // Newcomers append in batch-count-desc, lexicographic-tie order.
        assert_eq!(v.get("f"), Some(5));
        assert_eq!(v.get("g"), Some(6));
        assert_eq!(v.count(5), 3);
        assert_eq!(v.count(6), 1);
        // Known-token occurrences bump counts in place.
        assert_eq!(v.count(v.get("a").unwrap()), 5);
        assert_eq!(v.total_count(), 9 + 5);
    }

    #[test]
    fn grow_respects_min_count_for_new_tokens_only() {
        let mut v = Vocab::build(corpus(), 2, 0.0); // a, b
        let appended = v.grow(vec![vec!["x", "x", "y", "b"]], 2, 0.0);
        assert_eq!(appended, 1);
        assert_eq!(v.get("x"), Some(2));
        assert!(v.get("y").is_none(), "below min_count, dropped");
        // Existing token counted even though it appeared only once.
        assert_eq!(v.count(v.get("b").unwrap()), 3);
        assert_eq!(v.total_count(), 6 + 2 + 1);
    }

    #[test]
    fn grow_recomputes_keep_probs_against_the_new_total() {
        let mut v = Vocab::build(corpus(), 1, 0.05);
        let a = v.get("a").unwrap();
        let before = v.keep_prob(a);
        assert!(before < 1.0);
        // Flood with a new token: "a"'s relative frequency drops, so its
        // keep probability must rise.
        v.grow(vec![vec!["flood"; 40]], 1, 0.05);
        assert!(v.keep_prob(a) > before);
        assert!(v.keep_prob(v.get("flood").unwrap()) < 1.0);
    }

    #[test]
    fn repeated_grows_keep_every_id_stable() {
        let mut v = Vocab::build(corpus(), 1, 0.0);
        let mut pinned: Vec<(String, u32)> = v.iter().map(|(i, t)| (t.to_string(), i)).collect();
        for round in 0..4 {
            let name = format!("new{round}");
            v.grow(vec![vec![name.as_str(), "a"]], 1, 0.0);
            for (tok, idx) in &pinned {
                assert_eq!(v.get(tok), Some(*idx));
            }
            pinned.push((name.clone(), v.get(&name).unwrap()));
        }
        assert_eq!(v.len(), 9);
    }
}
