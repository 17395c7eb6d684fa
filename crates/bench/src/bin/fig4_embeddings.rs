//! E3 — Figures 4 and 5: the embedding space.
//!
//! The paper trains on one day of data, collapses hostnames to
//! second-level domains (470 K → <3 K points), projects the embeddings to
//! 2-D with t-SNE and argues qualitatively that topical clusters emerge
//! (porn, sports-streaming, travel). With ground truth available we also
//! quantify it: same-topic neighbor purity and the intra/inter cosine gap,
//! plus a dump of the tightest clusters (the Figure 5 rectangles).

use hostprof::scenario::Scenario;
use hostprof_bench::{header, row, write_results, Scale};
use hostprof_stats::{neighbor_purity, similarity_gap, BhTsne, BhTsneConfig};
use hostprof_synth::names::second_level_domain;
use serde::Serialize;
use std::collections::HashMap;

#[derive(Serialize)]
struct Fig4Results {
    scale: String,
    embedded_domains: usize,
    neighbor_purity_k10: f64,
    label_frequency_baseline: f64,
    intra_topic_cosine: f64,
    inter_topic_cosine: f64,
    example_clusters: Vec<(String, Vec<String>)>,
    tsne_sample: Vec<(String, f64, f64)>,
}

fn main() {
    let scale = Scale::from_env();
    let s = Scenario::generate(&scale.scenario());
    let pipeline = s.pipeline();

    // The paper trains this figure on a single day of 1329 real users —
    // far more tokens than one synthetic day produces. We keep the token
    // budget honest by using the whole trace (see the `embed_quality`
    // sweep for the sensitivity), collapsed to second-level domains
    // exactly as the paper does for readability.
    let mut sequences: Vec<Vec<String>> = Vec::new();
    for day in 0..s.trace.days() {
        sequences.extend(s.daily_hostname_sequences(day).into_iter().map(|seq| {
            seq.iter()
                .map(|h| second_level_domain(h).to_string())
                .collect::<Vec<String>>()
        }));
    }
    let embeddings = pipeline.train_model(&sequences).expect("day 0 has traffic");

    header(&format!(
        "Figure 4/5 — embedding space (scale: {})",
        scale.label()
    ));
    row("second-level domains embedded", embeddings.len());

    // Ground-truth topic per embedded domain: the dominant top-level topic
    // among hosts sharing that second-level domain.
    let hierarchy = s.world.hierarchy();
    let mut domain_topic: HashMap<&str, usize> = HashMap::new();
    for h in s.world.hosts() {
        if let Some(t) = h.top_topic {
            domain_topic
                .entry(second_level_domain(&h.name))
                .or_insert(t.index());
        }
    }

    let mut points: Vec<f32> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for (idx, token) in embeddings.vocab().iter() {
        if let Some(&topic) = domain_topic.get(token) {
            points.extend_from_slice(embeddings.vector_by_index(idx));
            labels.push(topic);
            names.push(token.to_string());
        }
    }
    let dim = embeddings.dim();
    let purity = neighbor_purity(&points, dim, &labels, 10);
    // Random-embedding baseline: expected same-label fraction.
    let mut counts: HashMap<usize, usize> = HashMap::new();
    for l in &labels {
        *counts.entry(*l).or_insert(0) += 1;
    }
    let baseline: f64 = counts
        .values()
        .map(|&c| (c as f64 / labels.len() as f64).powi(2))
        .sum();
    let (intra, inter) = similarity_gap(&points, dim, &labels);

    row("same-topic neighbor purity @10", format!("{purity:.3}"));
    row("label-frequency baseline", format!("{baseline:.3}"));
    row("intra-topic cosine", format!("{intra:.3}"));
    row("inter-topic cosine", format!("{inter:.3}"));

    // Figure 5 analogues: the three topics with the purest neighborhoods,
    // with a few member domains each.
    let mut per_topic_purity: HashMap<usize, (f64, usize)> = HashMap::new();
    for (i, &l) in labels.iter().enumerate() {
        let vi = &points[i * dim..(i + 1) * dim];
        let mut sims: Vec<(f64, usize)> = (0..labels.len())
            .filter(|&j| j != i)
            .map(|j| {
                let vj = &points[j * dim..(j + 1) * dim];
                let dot: f64 = vi
                    .iter()
                    .zip(vj)
                    .map(|(a, b)| (*a as f64) * (*b as f64))
                    .sum();
                (dot, j)
            })
            .collect();
        sims.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let same = sims[..5.min(sims.len())]
            .iter()
            .filter(|(_, j)| labels[*j] == l)
            .count();
        let e = per_topic_purity.entry(l).or_insert((0.0, 0));
        e.0 += same as f64 / 5.0;
        e.1 += 1;
    }
    let mut topic_scores: Vec<(usize, f64, usize)> = per_topic_purity
        .into_iter()
        .filter(|(_, (_, n))| *n >= 5)
        .map(|(t, (sum, n))| (t, sum / n as f64, n))
        .collect();
    topic_scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    println!("\n  tightest topical clusters (Figure 5 analogues):");
    let mut example_clusters = Vec::new();
    for (topic, score, n) in topic_scores.iter().take(3) {
        let topic_name = hierarchy.top_name(hostprof_ontology::TopCategoryId(*topic as u8));
        let members: Vec<String> = names
            .iter()
            .zip(&labels)
            .filter(|(_, l)| **l == *topic)
            .take(6)
            .map(|(n, _)| n.clone())
            .collect();
        println!(
            "    {:<28} purity {:.2} over {} domains: {}",
            topic_name,
            score,
            n,
            members.join(", ")
        );
        example_clusters.push((topic_name.to_string(), members));
    }

    // Barnes–Hut t-SNE over the FULL labeled domain set (O(n log n) per
    // iteration, so no subsampling needed).
    let y = BhTsne::new(BhTsneConfig {
        perplexity: 25.0,
        iterations: 350,
        ..BhTsneConfig::default()
    })
    .embed(&points, dim);
    let tsne_sample: Vec<(String, f64, f64)> = names
        .iter()
        .zip(&y)
        .map(|(n, (x, yy))| (n.clone(), *x, *yy))
        .step_by((y.len() / 80).max(1))
        .collect();
    row("t-SNE points computed (Barnes–Hut)", y.len());

    println!("\n  paper: qualitative clusters (porn / sport streaming / travel) in t-SNE space");
    println!("  shape check: purity ≫ label-frequency baseline and intra ≫ inter cosine");

    write_results(
        "fig4_embeddings",
        &Fig4Results {
            scale: scale.label().to_string(),
            embedded_domains: embeddings.len(),
            neighbor_purity_k10: purity,
            label_frequency_baseline: baseline,
            intra_topic_cosine: intra,
            inter_topic_cosine: inter,
            example_clusters,
            tsne_sample,
        },
    );
}
