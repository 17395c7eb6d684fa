//! Training hyperparameters.

use serde::{DeError, Deserialize, Serialize, Value};

/// Which inner-loop kernel [`crate::SkipGram`] trains with: the
/// production path, or the reference the oracle compares it against.
///
/// `Auto` (the default) takes the fused SIMD path — AVX2+FMA when the CPU
/// has it, the portable unrolled fallback otherwise. `Scalar` forces the
/// reference loop with strict sequential float order, the one
/// `oracle::sgd` pins bit for bit. Training is deterministic under either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
#[serde(rename_all = "lowercase")]
pub enum KernelChoice {
    /// The fused SIMD kernels (portable fallback off AVX2 hardware).
    #[default]
    Auto,
    /// The reference scalar loop.
    Scalar,
}

impl std::str::FromStr for KernelChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(Self::Auto),
            "scalar" => Ok(Self::Scalar),
            other => Err(format!("unknown kernel '{other}' (auto|scalar)")),
        }
    }
}

/// Config files name the kernel the way `--kernel` does, and get the same
/// error for a name that is not one.
impl Deserialize for KernelChoice {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .ok_or_else(|| DeError::expected("a kernel name", "KernelChoice"))?
            .parse()
            .map_err(DeError::custom)
    }
}

/// SKIPGRAM hyperparameters. [`SkipGramConfig::default`] matches the
/// paper's Section 5.4 choice of "the default hyperparameter values of the
/// popular implementation GENSIM": `d = 100`, window `2m+1 = 5`, `K = 5`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkipGramConfig {
    /// Embedding dimensionality `d`.
    pub dim: usize,
    /// Half-window `m`; the full window is `2m + 1`.
    pub window: usize,
    /// Negative samples `K` per (center, context) pair.
    pub negatives: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to ~0 over training).
    pub learning_rate: f32,
    /// Tokens seen fewer times than this are dropped from the vocabulary.
    pub min_count: u64,
    /// Frequent-token subsampling threshold (gensim `sample`); 0 disables.
    pub subsample: f64,
    /// RNG seed (initialization and sampling).
    pub seed: u64,
    /// Inner-loop kernel (`auto` | `scalar`).
    #[serde(default)]
    pub kernel: KernelChoice,
}

impl Default for SkipGramConfig {
    fn default() -> Self {
        Self {
            dim: 100,
            window: 2,
            negatives: 5,
            epochs: 5,
            learning_rate: 0.025,
            min_count: 1,
            subsample: 1e-3,
            seed: 0x5eed_e4be,
            kernel: KernelChoice::Auto,
        }
    }
}

impl SkipGramConfig {
    /// A tiny configuration for fast unit tests.
    ///
    /// Subsampling is disabled: in a toy corpus every token exceeds the
    /// gensim `1e-3` frequency threshold, so the default would discard
    /// most of the training data.
    pub fn tiny() -> Self {
        Self {
            dim: 16,
            epochs: 25,
            subsample: 0.0,
            ..Self::default()
        }
    }

    /// Validate parameter sanity; called by the trainer.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be positive".into());
        }
        if self.window == 0 {
            return Err("window must be positive".into());
        }
        if self.epochs == 0 {
            return Err("epochs must be positive".into());
        }
        if self.learning_rate <= 0.0 || self.learning_rate.is_nan() {
            return Err("learning_rate must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = SkipGramConfig::default();
        assert_eq!(c.dim, 100);
        assert_eq!(c.window, 2, "2m+1 = 5 → m = 2");
        assert_eq!(c.negatives, 5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn kernel_parses_and_defaults() {
        assert_eq!("auto".parse::<KernelChoice>(), Ok(KernelChoice::Auto));
        assert_eq!("scalar".parse::<KernelChoice>(), Ok(KernelChoice::Scalar));
        assert!("avx512".parse::<KernelChoice>().is_err());
        let c = SkipGramConfig::default();
        assert_eq!(c.kernel, KernelChoice::Auto);
    }

    #[test]
    fn config_json_from_before_sharding_was_removed_still_loads() {
        // `sharding` and `threads` are both gone; a config naming either
        // still loads.
        let old = |kernel: &str| {
            format!(
                r#"{{"dim":64,"window":2,"negatives":5,"epochs":3,"learning_rate":0.025,
                "min_count":1,"subsample":0.001,"threads":2,"seed":7,
                "kernel":"{kernel}","sharding":"balanced"}}"#
            )
        };
        for (name, kernel) in [
            ("auto", KernelChoice::Auto),
            ("scalar", KernelChoice::Scalar),
        ] {
            let c: SkipGramConfig =
                serde_json::from_str(&old(name)).expect("stale fields are ignored");
            assert_eq!((c.dim, c.epochs, c.seed), (64, 3, 7));
            assert_eq!(c.kernel, kernel);
        }
        // `simd` was what `auto` resolves to; it is refused the way
        // `--kernel simd` is.
        let err = serde_json::from_str::<SkipGramConfig>(&old("simd")).unwrap_err();
        assert_eq!(err.to_string(), "unknown kernel 'simd' (auto|scalar)");
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        for bad in [
            SkipGramConfig {
                dim: 0,
                ..Default::default()
            },
            SkipGramConfig {
                window: 0,
                ..Default::default()
            },
            SkipGramConfig {
                epochs: 0,
                ..Default::default()
            },
            SkipGramConfig {
                learning_rate: 0.0,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }
}
