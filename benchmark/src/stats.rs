//! Medians, percentiles, the tail-percentile rule and best-of-repetitions.

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `values`; 0 when empty.
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Position by position, the best value any repetition measured there
/// (`better` picks one of two). Every round of a run makes the same calls
/// on the same inputs in the same order, so position `i` is the same work
/// in every row; what differs is how much of the host's noise (on this
/// box: stolen CPU time, in bursts of tens of milliseconds to seconds)
/// fell on it. Rows of unequal length are cut to the shortest.
pub fn best_per_position(rows: &[Vec<f64>], better: fn(f64, f64) -> f64) -> Vec<f64> {
    let len = rows.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| rows.iter().map(|r| r[i]).reduce(better).expect("a row"))
        .collect()
}

/// Nearest-rank percentile `q` in `[0, 1]` of an ascending slice; 0 when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The percentiles a tail may be reported at, highest first; the median
/// itself when there are too few samples for any tail.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.5];

/// The tail percentile to report beside the median: the highest rung with
/// at least ten samples beyond it.
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|q| samples as f64 * (1.0 - q) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them,
/// which is what the acceptance rule for the benchmark uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| -> f64 {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_of_repetitions_is_taken_per_position() {
        assert_eq!(least(&[]), 0.0);
        assert_eq!(least(&[3.0, 1.5, 2.0]), 1.5);
        let rows = [vec![5.0, 1.0, 9.0], vec![4.0, 2.0, 7.0, 0.5]];
        assert_eq!(best_per_position(&rows, f64::min), [4.0, 1.0, 7.0]);
        assert_eq!(best_per_position(&rows, f64::max), [5.0, 2.0, 9.0]);
        assert!(best_per_position(&[], f64::min).is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.9), 91.0);
        assert_eq!(percentile(&v, 1.0), 101.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 0.5);
        assert_eq!(tail_percentile(39), 0.5);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(99), 0.75);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(108), 0.90);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(10_000), 0.999);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }
}
