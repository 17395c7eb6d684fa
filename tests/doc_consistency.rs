//! Every `--bin <name>`, `results/<file>`, `experiment --id <row>` and
//! relative markdown link the user-facing documents name must exist in the
//! tree, so a doc rewrite or a deleted binary cannot leave a dangling
//! reference behind.

use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The run of `allowed` characters that follows each occurrence of
/// `marker` in `text`. Placeholders (`--bin <target>`,
/// `results/<experiment>.json`, `results/*.txt`) give an empty run and are
/// left out.
fn tokens_after<'a>(
    text: &'a str,
    marker: &'a str,
    allowed: fn(char) -> bool,
) -> impl Iterator<Item = &'a str> {
    text.match_indices(marker)
        .map(move |(at, _)| {
            let rest = &text[at + marker.len()..];
            &rest[..rest.find(|c| !allowed(c)).unwrap_or(rest.len())]
        })
        .filter(|token| !token.is_empty())
}

fn binary_dirs() -> Vec<PathBuf> {
    let mut dirs = vec![root().join("src/bin")];
    for entry in std::fs::read_dir(root().join("crates")).expect("crates/") {
        dirs.push(entry.expect("crate dir").path().join("src/bin"));
    }
    dirs
}

#[test]
fn every_binary_result_file_and_link_named_in_the_docs_exists() {
    let binary_dirs = binary_dirs();
    let mut missing: Vec<String> = Vec::new();
    for doc in DOCS {
        let path = root().join(doc);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{doc}: {e}"));

        for bin in tokens_after(&text, "--bin ", |c| c.is_ascii_alphanumeric() || c == '_') {
            let file = format!("{bin}.rs");
            if !binary_dirs.iter().any(|d| d.join(&file).is_file()) {
                missing.push(format!("{doc}: --bin {bin}"));
            }
        }

        for name in tokens_after(&text, "results/", |c| {
            c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')
        }) {
            let name = name.trim_end_matches('.');
            if !root().join("results").join(name).is_file() {
                missing.push(format!("{doc}: results/{name}"));
            }
        }

        for ids in tokens_after(&text, "experiment --id ", |c| {
            c.is_ascii_alphanumeric() || c == ','
        }) {
            if let Err(e) = hostprof::experiments::select(ids) {
                missing.push(format!("{doc}: experiment --id {ids}: {e}"));
            }
        }

        for target in tokens_after(&text, "](", |c| c != ')') {
            let file = target.split('#').next().unwrap_or("");
            if file.is_empty() || target.contains("://") || target.starts_with("mailto:") {
                continue;
            }
            let base = path.parent().expect("doc has a directory");
            if !base.join(file).exists() {
                missing.push(format!("{doc}: link ({target})"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "documents name things that do not exist:\n{}",
        missing.join("\n")
    );
}
