//! Quantitative cluster-quality metrics.
//!
//! Figure 5 of the paper argues *qualitatively* that the embedding clusters
//! porn, sports-streaming and travel hostnames. With synthetic ground truth
//! we can make that claim testable: [`neighbor_purity`] measures how often
//! a point's nearest neighbors share its label, and [`similarity_gap`]
//! compares mean intra-label vs inter-label cosine similarity.

/// Cosine similarity of two equal-length vectors (0 when either is zero).
fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let mut dot = 0f64;
    let mut na = 0f64;
    let mut nb = 0f64;
    for (x, y) in a.iter().zip(b) {
        dot += (*x as f64) * (*y as f64);
        na += (*x as f64) * (*x as f64);
        nb += (*y as f64) * (*y as f64);
    }
    let denom = (na.sqrt()) * (nb.sqrt());
    if denom <= f64::EPSILON {
        0.0
    } else {
        dot / denom
    }
}

/// Mean fraction of each point's `k` nearest neighbors (cosine) that share
/// its label. 1.0 = perfectly pure neighborhoods; the label-frequency
/// baseline is what a random embedding would score.
///
/// # Panics
/// Panics when `points.len()` is not `labels.len() * dim` or `dim == 0`.
pub fn neighbor_purity(points: &[f32], dim: usize, labels: &[usize], k: usize) -> f64 {
    assert!(dim > 0, "dim must be positive");
    assert_eq!(points.len(), labels.len() * dim, "shape mismatch");
    let n = labels.len();
    if n < 2 || k == 0 {
        return 0.0;
    }
    let k = k.min(n - 1);
    let mut total = 0f64;
    for i in 0..n {
        let vi = &points[i * dim..(i + 1) * dim];
        let mut sims: Vec<(f64, usize)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| (cosine(vi, &points[j * dim..(j + 1) * dim]), j))
            .collect();
        sims.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let same = sims[..k]
            .iter()
            .filter(|(_, j)| labels[*j] == labels[i])
            .count();
        total += same as f64 / k as f64;
    }
    total / n as f64
}

/// Mean intra-label and inter-label cosine similarity: `(intra, inter)`.
/// A well-clustered embedding has `intra ≫ inter`.
///
/// # Panics
/// Panics on shape mismatch (see [`neighbor_purity`]).
pub fn similarity_gap(points: &[f32], dim: usize, labels: &[usize]) -> (f64, f64) {
    assert!(dim > 0, "dim must be positive");
    assert_eq!(points.len(), labels.len() * dim, "shape mismatch");
    let n = labels.len();
    let (mut intra, mut inter) = (0f64, 0f64);
    let (mut n_intra, mut n_inter) = (0usize, 0usize);
    for i in 0..n {
        for j in (i + 1)..n {
            let s = cosine(
                &points[i * dim..(i + 1) * dim],
                &points[j * dim..(j + 1) * dim],
            );
            if labels[i] == labels[j] {
                intra += s;
                n_intra += 1;
            } else {
                inter += s;
                n_inter += 1;
            }
        }
    }
    (
        if n_intra > 0 {
            intra / n_intra as f64
        } else {
            0.0
        },
        if n_inter > 0 {
            inter / n_inter as f64
        } else {
            0.0
        },
    )
}

/// The four numbers the embedding-space experiments report for one
/// labeled point set, `(purity, baseline, intra, inter)`:
/// [`neighbor_purity`] at `k`; what a random embedding would score, the
/// chance Σ (label share)² that two points share a label; and the mean
/// intra- and inter-label cosine of [`similarity_gap`]. All zero when the
/// set is empty.
///
/// # Panics
/// Panics on shape mismatch (see [`neighbor_purity`]).
pub fn cluster_quality(
    points: &[f32],
    dim: usize,
    labels: &[usize],
    k: usize,
) -> (f64, f64, f64, f64) {
    let mut counts = std::collections::BTreeMap::new();
    for label in labels {
        *counts.entry(label).or_insert(0usize) += 1;
    }
    let share = |count: &usize| *count as f64 / labels.len() as f64;
    let baseline = counts.values().map(|c| share(c).powi(2)).sum();
    let (intra, inter) = similarity_gap(points, dim, labels);
    (
        neighbor_purity(points, dim, labels, k),
        baseline,
        intra,
        inter,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two labels on orthogonal axes plus slight jitter.
    fn toy() -> (Vec<f32>, Vec<usize>) {
        let pts = vec![
            1.0, 0.0, //
            0.9, 0.1, //
            1.0, 0.05, //
            0.0, 1.0, //
            0.1, 0.9, //
            0.05, 1.0, //
        ];
        (pts, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn pure_clusters_score_high() {
        let (pts, labels) = toy();
        let p = neighbor_purity(&pts, 2, &labels, 2);
        assert!(p > 0.99, "purity {p}");
        let (intra, inter) = similarity_gap(&pts, 2, &labels);
        assert!(intra > 0.98);
        assert!(inter < 0.2);
    }

    #[test]
    fn shuffled_labels_score_near_baseline() {
        let (pts, _) = toy();
        let labels = vec![0, 1, 0, 1, 0, 1];
        let p = neighbor_purity(&pts, 2, &labels, 2);
        assert!(p < 0.6, "mixed labels can't be pure: {p}");
    }

    #[test]
    fn k_is_clamped_to_population() {
        let (pts, labels) = toy();
        let p = neighbor_purity(&pts, 2, &labels, 100);
        // With k = n-1 every point sees 2 same-label of 5 neighbors.
        assert!((p - 2.0 / 5.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(neighbor_purity(&[1.0, 0.0], 2, &[0], 3), 0.0);
        assert_eq!(neighbor_purity(&[], 2, &[], 3), 0.0);
        let (intra, inter) = similarity_gap(&[1.0, 0.0], 2, &[0]);
        assert_eq!((intra, inter), (0.0, 0.0));
    }

    #[test]
    fn cluster_quality_bundles_the_three_evaluators() {
        let (pts, labels) = toy();
        let (purity, baseline, intra, inter) = cluster_quality(&pts, 2, &labels, 2);
        assert_eq!(purity, neighbor_purity(&pts, 2, &labels, 2));
        assert_eq!((intra, inter), similarity_gap(&pts, 2, &labels));
        assert!(
            (baseline - 0.5).abs() < 1e-12,
            "two even labels: {baseline}"
        );
        assert_eq!(cluster_quality(&[], 2, &[], 10), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = neighbor_purity(&[1.0, 2.0, 3.0], 2, &[0, 1], 1);
    }
}
