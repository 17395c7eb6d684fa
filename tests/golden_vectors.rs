//! Table-driven golden vectors for SNI extraction.
//!
//! `tests/vectors/sni_vectors.txt` holds hex-encoded ClientHello records
//! and QUIC Initial datagrams — valid, mutated and truncated — together
//! with the exact outcome each must produce: `ok:<host>`, `ok-none`, or
//! `err:<ParseError variant>`. Any parser change that shifts an error from
//! one taxonomy bucket to another fails here with the vector's name.
//!
//! The corpus is generated (`net::conformance::sni_vectors`), and the
//! committed file is held to the generator byte for byte. Regenerate after
//! an *intentional* parser change with
//! `hostprof chaos --gen-vectors > tests/vectors/sni_vectors.txt`
//! and review the diff vector by vector.

use hostprof::net::{conformance, quic, tls};

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Normalize an extractor result into the corpus' expect-token syntax.
fn outcome<E: std::fmt::Debug>(r: Result<Option<String>, E>) -> String {
    match r {
        Ok(Some(host)) => format!("ok:{host}"),
        Ok(None) => "ok-none".to_string(),
        Err(e) => format!("err:{e:?}"),
    }
}

#[test]
fn every_golden_vector_produces_its_exact_outcome() {
    let corpus = include_str!("vectors/sni_vectors.txt");
    let mut checked = 0usize;
    for (lineno, line) in corpus.lines().enumerate() {
        // Only strip line endings: an empty-input vector legitimately ends
        // with a tab and an empty hex field, which `trim` would destroy.
        let line = line.trim_end_matches('\r');
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(
            fields.len(),
            4,
            "line {}: expected kind\\tname\\texpect\\thex",
            lineno + 1
        );
        let (kind, name, expect, hex) = (fields[0], fields[1], fields[2], fields[3]);
        let bytes = unhex(hex);
        let got = match kind {
            "tls" => outcome(tls::extract_sni(&bytes).map(|o| o.map(str::to_string))),
            "quic" => outcome(quic::extract_sni_from_quic(&bytes)),
            other => panic!("line {}: unknown vector kind {other:?}", lineno + 1),
        };
        assert_eq!(got, expect, "vector {name:?} (line {})", lineno + 1);
        checked += 1;
    }
    assert!(checked >= 20, "corpus shrank to {checked} vectors");
}

/// A vector added to the generator and not committed is not checked by
/// anything; a committed line the generator no longer writes is checked
/// against bytes nobody can rebuild.
#[test]
fn the_committed_corpus_is_what_the_generator_writes() {
    assert!(
        conformance::sni_vectors() == include_str!("vectors/sni_vectors.txt"),
        "tests/vectors/sni_vectors.txt is not what the generator writes; review \
         `hostprof chaos --gen-vectors | diff - tests/vectors/sni_vectors.txt`, then \
         `hostprof chaos --gen-vectors > tests/vectors/sni_vectors.txt`"
    );
}

/// The corpus must exercise both success shapes and a spread of error
/// variants — a corpus of 20 `Truncated` vectors would satisfy the count
/// but not the taxonomy.
#[test]
fn corpus_covers_success_hidden_and_multiple_error_variants() {
    let corpus = include_str!("vectors/sni_vectors.txt");
    let expects: Vec<&str> = corpus
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split('\t').nth(2).expect("expect field"))
        .collect();
    assert!(expects.iter().any(|e| e.starts_with("ok:")));
    assert!(expects.contains(&"ok-none"));
    let variants: std::collections::HashSet<&str> = expects
        .iter()
        .filter(|e| e.starts_with("err:"))
        .copied()
        .collect();
    assert!(
        variants.len() >= 5,
        "only {} distinct error variants covered: {variants:?}",
        variants.len()
    );
}
