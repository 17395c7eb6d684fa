//! Model and artifact persistence.
//!
//! The paper's back-end retrains daily and "immediately starts using" the
//! new model (§5.4) — a real deployment persists each day's model so the
//! serving path can reload it. A trained [`EmbeddingSet`] has one on-disk
//! format, the flat container of `hostprof_embed::persist` (`HPFLAT1\0`
//! magic, DESIGN.md §13), written by [`save_model`] and checked section by
//! section by [`load_model`]; a JSON model written by an older build is
//! refused as a bad magic. Anything else serializable (the ontology,
//! experiment results) goes through [`save_json`] / [`load_json`].

use hostprof_embed::{EmbeddingSet, FlatError};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fs;
use std::io;
use std::path::Path;

/// Errors from persistence operations.
#[derive(Debug)]
pub enum StorageError {
    /// Filesystem failure.
    Io(io::Error),
    /// (De)serialization failure.
    Serde(serde_json::Error),
    /// A model file that is not a well-formed flat container.
    Flat(FlatError),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Serde(e) => write!(f, "storage serialization error: {e}"),
            StorageError::Flat(e) => write!(f, "model file rejected: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Serde(e) => Some(e),
            StorageError::Flat(e) => Some(e),
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<serde_json::Error> for StorageError {
    fn from(e: serde_json::Error) -> Self {
        StorageError::Serde(e)
    }
}

/// Write `contents` to `path`, creating parent directories as needed.
fn write_file(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), StorageError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, contents)?;
    Ok(())
}

/// Save any serializable artifact as JSON. Parent directories are created
/// as needed.
pub fn save_json<T: Serialize>(path: &Path, value: &T) -> Result<(), StorageError> {
    write_file(path, serde_json::to_string(value)?)
}

/// Load a JSON artifact saved by [`save_json`].
pub fn load_json<T: DeserializeOwned>(path: &Path) -> Result<T, StorageError> {
    let json = fs::read_to_string(path)?;
    Ok(serde_json::from_str(&json)?)
}

/// Save one day's trained model (the §5.4 daily artifact) as a flat
/// container. Parent directories are created as needed.
pub fn save_model(path: &Path, model: &EmbeddingSet) -> Result<(), StorageError> {
    write_file(path, hostprof_embed::to_flat_bytes(model))
}

/// Reload a day's model; a file that is not a well-formed flat container
/// is a [`StorageError::Flat`].
pub fn load_model(path: &Path) -> Result<EmbeddingSet, StorageError> {
    hostprof_embed::from_flat_bytes(&fs::read(path)?).map_err(StorageError::Flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostprof_core::{Pipeline, PipelineConfig};
    use hostprof_embed::SkipGramConfig;
    use hostprof_ontology::{Blocklist, CategoryId, CategoryVector, Ontology};

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hostprof-storage-{}-{name}", std::process::id()))
    }

    #[test]
    fn model_roundtrips_through_disk() {
        let corpus: Vec<Vec<String>> = (0..50)
            .map(|i| vec![format!("a{}.com", i % 5), format!("b{}.com", i % 7)])
            .collect();
        let pipeline = Pipeline::new(
            PipelineConfig {
                skipgram: SkipGramConfig::tiny(),
                ..Default::default()
            },
            Blocklist::new(),
        );
        let model = pipeline.train_model(&corpus).unwrap();
        let path = temp_path("model.hpflat");
        save_model(&path, &model).unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(b"HPFLAT1\0"));
        let back = load_model(&path).unwrap();
        assert_eq!(back.len(), model.len());
        assert_eq!(
            back.cosine("a0.com", "b0.com"),
            model.cosine("a0.com", "b0.com")
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn ontology_roundtrips_through_disk() {
        let mut o = Ontology::new();
        o.insert("espn.com", CategoryVector::singleton(CategoryId(13)));
        let path = temp_path("ontology.json");
        save_json(&path, &o).unwrap();
        let back: Ontology = load_json(&path).unwrap();
        assert!(back.is_labeled("espn.com"));
        assert_eq!(back.len(), 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_model(Path::new("/nonexistent/deeply/model.hpflat")).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }

    #[test]
    fn corrupt_file_is_a_serde_error() {
        let path = temp_path("corrupt.json");
        std::fs::write(&path, "{ not json").unwrap();
        let err = load_json::<Ontology>(&path).unwrap_err();
        assert!(matches!(err, StorageError::Serde(_)));
        let _ = std::fs::remove_file(path);
    }
}
