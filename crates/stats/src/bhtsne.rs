//! Barnes–Hut t-SNE (van der Maaten, 2014).
//!
//! Exact t-SNE is O(n² · iterations) — prohibitive for the full
//! second-level domain set of Figure 4. This implementation brings the
//! per-iteration cost down to O(n log n):
//!
//! * **input affinities** are sparsified to each point's `3 × perplexity`
//!   nearest neighbors (as in the original BH-SNE paper), found by exact
//!   scan (O(n²) once, cheap relative to hundreds of gradient iterations);
//! * **repulsive forces** are approximated with a quadtree
//!   ([`crate::quadtree::QuadTree`]): any cell whose extent-over-distance
//!   ratio is below `theta` is treated as a single body at its center of
//!   mass;
//! * **attractive forces** only touch the sparse affinity entries.
//!
//! Optimizer details (early exaggeration, momentum switch, adaptive gains)
//! are the exact algorithm's.

use crate::quadtree::QuadTree;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Barnes–Hut t-SNE hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BhTsneConfig {
    /// Target perplexity of the input affinities.
    pub perplexity: f64,
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Early-exaggeration factor for the first quarter of the run.
    pub early_exaggeration: f64,
    /// Barnes–Hut accuracy knob: 0 = exact, larger = faster/coarser.
    pub theta: f64,
    /// RNG seed for the initial layout.
    pub seed: u64,
}

impl Default for BhTsneConfig {
    fn default() -> Self {
        Self {
            perplexity: 30.0,
            iterations: 500,
            learning_rate: 200.0,
            early_exaggeration: 12.0,
            theta: 0.5,
            seed: 0x7e5e_0002,
        }
    }
}

/// Sparse symmetric affinities: per-point neighbor lists.
struct SparseAffinities {
    /// `neighbors[i]` = (j, p_ij) entries, including the symmetrized mass.
    neighbors: Vec<Vec<(u32, f64)>>,
}

/// The Barnes–Hut reducer.
#[derive(Debug, Clone)]
pub struct BhTsne {
    config: BhTsneConfig,
}

impl BhTsne {
    /// Create with a config.
    pub fn new(config: BhTsneConfig) -> Self {
        Self { config }
    }

    /// Embed `n = points.len() / dim` row-major points into 2-D.
    ///
    /// # Panics
    /// Panics when `points.len()` is not a multiple of `dim` or `dim == 0`.
    pub fn embed(&self, points: &[f32], dim: usize) -> Vec<(f64, f64)> {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(points.len() % dim, 0, "points must be n × dim");
        let n = points.len() / dim;
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![(0.0, 0.0)];
        }
        let p = self.sparse_affinities(points, dim, n);
        self.gradient_descent(&p, n)
    }

    /// Sparse symmetrized affinities over each point's k nearest neighbors.
    fn sparse_affinities(&self, points: &[f32], dim: usize, n: usize) -> SparseAffinities {
        // `clamp(3, n-1)` would panic for n < 5 (min > max); bound by the
        // population first.
        let k = ((3.0 * self.config.perplexity) as usize)
            .max(3)
            .min(n - 1)
            .max(1);
        let target_entropy = self.config.perplexity.max(1.0).ln();

        // kNN by exact scan (one-off O(n²) — acceptable versus iterations).
        let mut cond: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
        let mut d2 = vec![0f64; n];
        for i in 0..n {
            for (j, slot) in d2.iter_mut().enumerate() {
                if i == j {
                    *slot = f64::INFINITY;
                    continue;
                }
                let mut s = 0f64;
                for t in 0..dim {
                    let diff = (points[i * dim + t] - points[j * dim + t]) as f64;
                    s += diff * diff;
                }
                *slot = s;
            }
            // k smallest distances.
            let mut idx: Vec<u32> = (0..n as u32).filter(|&j| j as usize != i).collect();
            idx.select_nth_unstable_by(k - 1, |&a, &b| {
                d2[a as usize]
                    .partial_cmp(&d2[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let knn = &idx[..k];

            // Bandwidth search over the kNN set only.
            let mut beta = 1.0f64;
            let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
            for _ in 0..50 {
                let mut sum = 0f64;
                let mut dsum = 0f64;
                for &j in knn {
                    let pj = (-d2[j as usize] * beta).exp();
                    sum += pj;
                    dsum += pj * d2[j as usize];
                }
                if sum <= 0.0 {
                    break;
                }
                let entropy = beta * dsum / sum + sum.ln();
                let diff = entropy - target_entropy;
                if diff.abs() < 1e-5 {
                    break;
                }
                if diff > 0.0 {
                    lo = beta;
                    beta = if hi.is_finite() {
                        (beta + hi) / 2.0
                    } else {
                        beta * 2.0
                    };
                } else {
                    hi = beta;
                    beta = if lo.is_finite() {
                        (beta + lo) / 2.0
                    } else {
                        beta / 2.0
                    };
                }
            }
            let mut sum = 0f64;
            let mut row: Vec<(u32, f64)> = knn
                .iter()
                .map(|&j| {
                    let pj = (-d2[j as usize] * beta).exp();
                    sum += pj;
                    (j, pj)
                })
                .collect();
            if sum > 0.0 {
                for (_, p) in &mut row {
                    *p /= sum;
                }
            }
            cond.push(row);
        }

        // Symmetrize: p_ij = (p_j|i + p_i|j) / 2n, stored on both rows.
        let mut neighbors: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        use std::collections::HashMap;
        let mut cond_maps: Vec<HashMap<u32, f64>> = Vec::with_capacity(n);
        for row in &cond {
            cond_maps.push(row.iter().copied().collect());
        }
        for i in 0..n {
            for &(j, pij) in &cond[i] {
                if (j as usize) < i && cond_maps[j as usize].contains_key(&(i as u32)) {
                    continue; // handled from j's side
                }
                let pji = cond_maps[j as usize]
                    .get(&(i as u32))
                    .copied()
                    .unwrap_or(0.0);
                let p = ((pij + pji) / (2.0 * n as f64)).max(1e-12);
                neighbors[i].push((j, p));
                neighbors[j as usize].push((i as u32, p));
            }
        }
        SparseAffinities { neighbors }
    }

    fn gradient_descent(&self, p: &SparseAffinities, n: usize) -> Vec<(f64, f64)> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut y: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let g = |rng: &mut ChaCha8Rng| {
                    let u1: f64 = 1.0 - rng.gen::<f64>();
                    let u2: f64 = rng.gen();
                    1e-4 * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                };
                (g(&mut rng), g(&mut rng))
            })
            .collect();
        let mut velocity = vec![(0f64, 0f64); n];
        let mut gains = vec![(1f64, 1f64); n];
        let exag_until = self.config.iterations / 4;

        for iter in 0..self.config.iterations {
            let exag = if iter < exag_until {
                self.config.early_exaggeration
            } else {
                1.0
            };
            let momentum = if iter < self.config.iterations / 2 {
                0.5
            } else {
                0.8
            };

            let tree = QuadTree::build(&y);

            // Repulsive forces + Z via Barnes–Hut.
            let mut rep = vec![(0f64, 0f64); n];
            let mut z = 0f64;
            for i in 0..n {
                let (xi, yi) = y[i];
                tree.for_each_body(xi, yi, self.config.theta, &mut |count, cx, cy| {
                    let dx = xi - cx;
                    let dy = yi - cy;
                    let q = 1.0 / (1.0 + dx * dx + dy * dy);
                    z += count as f64 * q;
                    rep[i].0 += count as f64 * q * q * dx;
                    rep[i].1 += count as f64 * q * q * dy;
                });
                // Remove the self-interaction (q = 1 at distance 0).
                z -= 1.0;
            }
            let z = z.max(1e-12);

            // Attractive forces over the sparse affinities.
            let mut attr = vec![(0f64, 0f64); n];
            for i in 0..n {
                let (xi, yi) = y[i];
                for &(j, pij) in &p.neighbors[i] {
                    let (xj, yj) = y[j as usize];
                    let dx = xi - xj;
                    let dy = yi - yj;
                    let q = 1.0 / (1.0 + dx * dx + dy * dy);
                    attr[i].0 += exag * pij * q * dx;
                    attr[i].1 += exag * pij * q * dy;
                }
            }

            // Combine, update with momentum + adaptive gains, re-center.
            let (mut cx, mut cy) = (0f64, 0f64);
            for i in 0..n {
                let grad = (
                    4.0 * (attr[i].0 - rep[i].0 / z),
                    4.0 * (attr[i].1 - rep[i].1 / z),
                );
                let update = |g: f64, v: &mut f64, gain: &mut f64| {
                    *gain = if g.signum() == v.signum() {
                        (*gain * 0.8).max(0.01)
                    } else {
                        *gain + 0.2
                    };
                    *v = momentum * *v - self.config.learning_rate * *gain * g;
                };
                update(grad.0, &mut velocity[i].0, &mut gains[i].0);
                update(grad.1, &mut velocity[i].1, &mut gains[i].1);
                y[i].0 += velocity[i].0;
                y[i].1 += velocity[i].1;
                cx += y[i].0;
                cy += y[i].1;
            }
            cx /= n as f64;
            cy /= n as f64;
            for pt in &mut y {
                pt.0 -= cx;
                pt.1 -= cy;
            }
        }
        y
    }
}

impl Default for BhTsne {
    fn default() -> Self {
        Self::new(BhTsneConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize, dim: usize, separation: f32) -> (Vec<f32>, usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut pts = Vec::with_capacity(2 * n_per * dim);
        for blob in 0..2 {
            for _ in 0..n_per {
                for _ in 0..dim {
                    let center = blob as f32 * separation;
                    pts.push(center + rng.gen::<f32>() - 0.5);
                }
            }
        }
        (pts, dim)
    }

    fn blob_separation(y: &[(f64, f64)], n_per: usize) -> (f64, f64) {
        let centroid = |r: std::ops::Range<usize>| {
            let n = r.len() as f64;
            let (mut cx, mut cy) = (0.0, 0.0);
            for i in r {
                cx += y[i].0;
                cy += y[i].1;
            }
            (cx / n, cy / n)
        };
        let (ax, ay) = centroid(0..n_per);
        let (bx, by) = centroid(n_per..2 * n_per);
        let between = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        let spread = (0..n_per)
            .map(|i| ((y[i].0 - ax).powi(2) + (y[i].1 - ay).powi(2)).sqrt())
            .sum::<f64>()
            / n_per as f64;
        (between, spread)
    }

    #[test]
    fn separated_blobs_stay_separated() {
        let (pts, dim) = blobs(40, 8, 8.0);
        let y = BhTsne::new(BhTsneConfig {
            perplexity: 10.0,
            iterations: 300,
            ..Default::default()
        })
        .embed(&pts, dim);
        assert_eq!(y.len(), 80);
        let (between, spread) = blob_separation(&y, 40);
        assert!(
            between > spread * 2.0,
            "between {between} vs spread {spread}"
        );
        for (a, b) in &y {
            assert!(a.is_finite() && b.is_finite());
        }
    }

    #[test]
    fn theta_zero_matches_spirit_of_exact() {
        // With theta = 0 the BH gradient is exact (modulo the sparse P);
        // the layout should separate blobs at least as well as coarse BH.
        let (pts, dim) = blobs(30, 6, 12.0);
        let run = |theta: f64| {
            BhTsne::new(BhTsneConfig {
                perplexity: 8.0,
                iterations: 300,
                theta,
                ..Default::default()
            })
            .embed(&pts, dim)
        };
        let exactish = run(0.0);
        let coarse = run(0.8);
        let (b_exact, s_exact) = blob_separation(&exactish, 30);
        let (b_coarse, s_coarse) = blob_separation(&coarse, 30);
        assert!(b_exact > s_exact * 1.2, "{b_exact} vs {s_exact}");
        assert!(
            b_coarse > s_coarse * 1.2,
            "even coarse theta separates: {b_coarse} vs {s_coarse}"
        );
    }

    #[test]
    fn trivial_inputs() {
        let t = BhTsne::default();
        assert!(t.embed(&[], 4).is_empty());
        assert_eq!(t.embed(&[1.0, 2.0], 2), vec![(0.0, 0.0)]);
        // 2–4 points used to panic in the kNN clamp.
        for n in 2..=4usize {
            let pts: Vec<f32> = (0..n * 2).map(|i| i as f32).collect();
            let cfg = BhTsneConfig {
                iterations: 10,
                ..Default::default()
            };
            assert_eq!(BhTsne::new(cfg).embed(&pts, 2).len(), n);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (pts, dim) = blobs(15, 4, 6.0);
        let cfg = BhTsneConfig {
            perplexity: 6.0,
            iterations: 60,
            ..Default::default()
        };
        assert_eq!(
            BhTsne::new(cfg.clone()).embed(&pts, dim),
            BhTsne::new(cfg).embed(&pts, dim)
        );
    }

    #[test]
    #[should_panic(expected = "n × dim")]
    fn shape_mismatch_panics() {
        let _ = BhTsne::default().embed(&[1.0, 2.0, 3.0], 2);
    }
}
