//! Runtime-dispatched SIMD kernels shared by the kNN scan and the
//! SKIPGRAM trainer.
//!
//! One process-wide feature probe (AVX2 + FMA on x86-64) selects between
//! the vector kernels and portable unrolled fallbacks; the choice is
//! constant for the life of the process, so every caller sees one
//! consistent floating-point summation order and repeated runs are
//! reproducible on the same machine.
//!
//! The training-side kernels are *fused* around the SGD sample shape
//! (word2vec's negative-sampling update): for each (center, target) pair
//! the trainer computes `f = h_c · h_o`, looks up `σ(f)`, and then applies
//! `neu1e += g·h_o; h_o += g·h_c` in a single pass over the rows (the
//! `fused_row_update_*` bodies) — both destination rows are loaded once
//! and written once, instead of the scalar path's two dependent sweeps.
//! Training reaches them only through [`train_pair`].

/// Whether the process-wide dispatch selected the AVX2+FMA kernels.
pub fn simd_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_fma_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_fma_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    })
}

/// Dot product: AVX2+FMA kernel when the CPU has it, the portable
/// unrolled version otherwise.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: the feature check above gates the target_feature fn.
        return unsafe { dot_avx2_fma(a, b) };
    }
    dot_portable(a, b)
}

/// Score one query against `keys.len()` contiguous rows for the kNN scan:
/// row `r`'s [`dot`] with `qhat`, bit for bit, leaves as `keys[r]` =
/// [`sim_key`](crate::knn::sim_key) and `buckets[r]` =
/// [`sim_bucket`](crate::knn::sim_bucket). The AVX2 path takes dims that
/// are a multiple of 8 eight rows at a time behind one dispatch boundary.
pub(crate) fn score_rows(qhat: &[f32], rows: &[f32], keys: &mut [u32], buckets: &mut [u16]) {
    let dim = qhat.len();
    assert_eq!(rows.len(), keys.len() * dim);
    assert_eq!(buckets.len(), keys.len());
    #[allow(unused_mut)]
    let mut scored = 0;
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() && dim > 0 && dim.is_multiple_of(8) {
        // SAFETY: the feature check gates the target_feature fn; the
        // asserts above are its length contract.
        scored = unsafe { score_rows_avx2_fma(qhat, rows, keys, buckets) };
    }
    for r in scored..keys.len() {
        let sim = dot(qhat, &rows[r * dim..(r + 1) * dim]);
        (keys[r], buckets[r]) = (crate::knn::sim_key(sim), crate::knn::sim_bucket(sim));
    }
}

/// One whole (center, context) training pair — the positive sample and
/// every negative, then the `h_c += neu1e` flush — behind a *single*
/// dispatch boundary. Each `samples` entry is a context-matrix row pointer
/// plus its label; for each one this computes `f = h_c·h_o`,
/// `g = (label − σ(f))·lr` and applies the fused row update (the first
/// sample *initializes* `neu1e`, so the buffer is never zeroed — see
/// `fused_row_update_init_portable`).
///
/// Why a batched entry point: `#[target_feature]` kernels cannot inline
/// into their callers, so with per-primitive dispatch a pair with K
/// negatives pays 2(K+1)+1 real calls. Folding the whole pair into one
/// call drops that to 1 and keeps `h_c` pinned in registers/L1 across all
/// samples.
///
/// # Safety
/// `h_c` and every row pointer in `samples` must be valid for
/// `neu1e.len()` reads and writes for the duration of the call, and must
/// not overlap `neu1e`. Row pointers may repeat and may be raced by other
/// Hogwild workers (the trainer's accepted data race).
#[inline]
pub unsafe fn train_pair(
    h_c: *mut f32,
    samples: &[(*mut f32, f32)],
    neu1e: &mut [f32],
    lr: f32,
    sigmoid: &crate::sigmoid::SigmoidTable,
) {
    if samples.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: feature-gated as above; pointer contract forwarded.
        return train_pair_avx2_fma(h_c, samples, neu1e, lr, sigmoid);
    }
    train_pair_body(h_c, samples, neu1e, lr, sigmoid);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn train_pair_avx2_fma(
    h_c: *mut f32,
    samples: &[(*mut f32, f32)],
    neu1e: &mut [f32],
    lr: f32,
    sigmoid: &crate::sigmoid::SigmoidTable,
) {
    // The *_avx2_fma helpers share this function's target features, so the
    // compiler inlines them here: one real call per pair, not per sample.
    let dim = neu1e.len();
    let hc = std::slice::from_raw_parts_mut(h_c, dim);
    for (i, &(row, label)) in samples.iter().enumerate() {
        let h_o = std::slice::from_raw_parts_mut(row, dim);
        let f = dot_avx2_fma(hc, h_o);
        let g = (label - sigmoid.get(f)) * lr;
        if i == 0 {
            fused_row_update_init_avx2_fma(h_o, hc, neu1e, g);
        } else {
            fused_row_update_avx2_fma(h_o, hc, neu1e, g);
        }
    }
    axpy_avx2_fma(hc, 1.0, neu1e);
}

/// Portable [`train_pair`] body (also the non-x86 path).
#[inline]
unsafe fn train_pair_body(
    h_c: *mut f32,
    samples: &[(*mut f32, f32)],
    neu1e: &mut [f32],
    lr: f32,
    sigmoid: &crate::sigmoid::SigmoidTable,
) {
    let dim = neu1e.len();
    let hc = std::slice::from_raw_parts_mut(h_c, dim);
    for (i, &(row, label)) in samples.iter().enumerate() {
        let h_o = std::slice::from_raw_parts_mut(row, dim);
        let f = dot_portable(hc, h_o);
        let g = (label - sigmoid.get(f)) * lr;
        if i == 0 {
            fused_row_update_init_portable(h_o, hc, neu1e, g);
        } else {
            fused_row_update_portable(h_o, hc, neu1e, g);
        }
    }
    axpy_portable(hc, 1.0, neu1e);
}

/// The eight lane sums of `R` FMA dots of `pa` against each of `pb`, over
/// the leading `n - n % 8` floats: per dot four independent vector
/// accumulators (32 floats in flight), added as `(acc0 + acc1) + (acc2 +
/// acc3)`; lane `j` holds the terms `i ≡ j mod 8`. Every `R` performs the
/// same operations per dot — more than one only shares the loads of `pa`.
///
/// # Safety
/// `pa` and every `pb` must be valid for `n` reads.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn dot_lanes_avx2_fma<const R: usize>(
    pa: *const f32,
    pb: [*const f32; R],
    n: usize,
) -> [std::arch::x86_64::__m256; R] {
    use std::arch::x86_64::*;
    // `acc[j][r]`: accumulator `j` of dot `r`.
    let mut acc = [[_mm256_setzero_ps(); R]; 4];
    let mut i = 0;
    while i + 32 <= n {
        for (j, accs) in acc.iter_mut().enumerate() {
            let a = _mm256_loadu_ps(pa.add(i + 8 * j));
            for (acc, pb) in accs.iter_mut().zip(pb) {
                *acc = _mm256_fmadd_ps(a, _mm256_loadu_ps(pb.add(i + 8 * j)), *acc);
            }
        }
        i += 32;
    }
    while i + 8 <= n {
        let a = _mm256_loadu_ps(pa.add(i));
        for (acc, pb) in acc[0].iter_mut().zip(pb) {
            *acc = _mm256_fmadd_ps(a, _mm256_loadu_ps(pb.add(i)), *acc);
        }
        i += 8;
    }
    let [acc0, acc1, acc2, acc3] = acc;
    let mut lanes = [_mm256_setzero_ps(); R];
    for (r, lanes) in lanes.iter_mut().enumerate() {
        *lanes = _mm256_add_ps(
            _mm256_add_ps(acc0[r], acc1[r]),
            _mm256_add_ps(acc2[r], acc3[r]),
        );
    }
    lanes
}

/// 8-lane FMA dot: [`dot_lanes_avx2_fma`] horizontal-summed in a fixed
/// order — `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))` — with the scalar
/// tail folded in last. The default x86-64 target is SSE2-only, so this has
/// to be an explicit `target_feature` kernel rather than autovectorization.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx2_fma(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let [acc] = dot_lanes_avx2_fma(a.as_ptr(), [b.as_ptr()], n);
    let quad = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
    let pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
    let single = _mm_add_ss(pair, _mm_shuffle_ps(pair, pair, 0b01));
    let mut out = _mm_cvtss_f32(single);
    for i in n - n % 8..n {
        out += a[i] * b[i];
    }
    out
}

/// `dot_avx2_fma`'s first step for two rows at once: with `a` and `b` the
/// lane sums of two rows, `[l0+l4, l1+l5, l2+l6, l3+l7]` of `a` in the low
/// half and of `b` in the high half.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn lane_pair_sums(
    a: std::arch::x86_64::__m256,
    b: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    _mm256_add_ps(
        _mm256_permute2f128_ps(a, b, 0x20),
        _mm256_permute2f128_ps(a, b, 0x31),
    )
}

/// [`score_rows`] over the leading multiple of eight rows, whose count it
/// returns: eight rows' lane sums are added in exactly [`dot_avx2_fma`]'s
/// tree, vertically, so the eight similarities, their keys and their
/// buckets each cost one vector operation instead of eight horizontal
/// reductions.
///
/// # Safety
/// Lengths as [`score_rows`] asserts them; `qhat.len() % 8 == 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn score_rows_avx2_fma(
    qhat: &[f32],
    rows: &[f32],
    keys: &mut [u32],
    buckets: &mut [u16],
) -> usize {
    use std::arch::x86_64::*;
    let dim = qhat.len();
    let q = qhat.as_ptr();
    let sign = _mm256_set1_epi32(i32::MIN);
    let mut r = 0;
    while r + 8 <= keys.len() {
        let p = rows.as_ptr().add(r * dim);
        let [a0, a1] = dot_lanes_avx2_fma(q, [p, p.add(dim)], dim);
        let [a2, a3] = dot_lanes_avx2_fma(q, [p.add(2 * dim), p.add(3 * dim)], dim);
        let [a4, a5] = dot_lanes_avx2_fma(q, [p.add(4 * dim), p.add(5 * dim)], dim);
        let [a6, a7] = dot_lanes_avx2_fma(q, [p.add(6 * dim), p.add(7 * dim)], dim);
        // Rows `i` and `i + 4` share a vector from here on, so after a
        // 4 × 4 transpose inside each half `s_j` holds `l_j + l_{j+4}` of
        // rows 0–3 | 4–7 and the rest of the tree is two vertical adds.
        let (q0, q1) = (lane_pair_sums(a0, a4), lane_pair_sums(a1, a5));
        let (q2, q3) = (lane_pair_sums(a2, a6), lane_pair_sums(a3, a7));
        let (t0, t1) = (_mm256_unpacklo_ps(q0, q1), _mm256_unpackhi_ps(q0, q1));
        let (t2, t3) = (_mm256_unpacklo_ps(q2, q3), _mm256_unpackhi_ps(q2, q3));
        let (s0, s1) = (
            _mm256_shuffle_ps(t0, t2, 0x44),
            _mm256_shuffle_ps(t0, t2, 0xee),
        );
        let (s2, s3) = (
            _mm256_shuffle_ps(t1, t3, 0x44),
            _mm256_shuffle_ps(t1, t3, 0xee),
        );
        let sims = _mm256_add_ps(_mm256_add_ps(s0, s2), _mm256_add_ps(s1, s3));
        let bits = _mm256_castps_si256(sims);
        // sim_key: negative → !bits, else bits ^ sign.
        let key = _mm256_xor_si256(bits, _mm256_or_si256(_mm256_srai_epi32(bits, 31), sign));
        _mm256_storeu_si256(keys.as_mut_ptr().add(r).cast(), key);
        // sim_bucket: clamp the magnitude's bits to 1.0, keep the sign,
        // quantise (the product is exact, so the fused add rounds once
        // like the scalar's).
        let one = _mm256_set1_epi32(1f32.to_bits() as i32);
        let magnitude = _mm256_min_epi32(_mm256_andnot_si256(sign, bits), one);
        let clamped = _mm256_castsi256_ps(_mm256_or_si256(magnitude, _mm256_and_si256(bits, sign)));
        let scaled = _mm256_fmadd_ps(clamped, _mm256_set1_ps(512.0), _mm256_set1_ps(513.0));
        let bucket = _mm256_min_epi32(_mm256_cvttps_epi32(scaled), _mm256_set1_epi32(1024));
        let narrow = _mm256_permute4x64_epi64(_mm256_packus_epi32(bucket, bucket), 0b1000);
        _mm_storeu_si128(
            buckets.as_mut_ptr().add(r).cast(),
            _mm256_castsi256_si128(narrow),
        );
        r += 8;
    }
    r
}

/// [`axpy_portable`] in 8-lane FMA steps.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_avx2_fma(y: &mut [f32], a: f32, x: &[f32]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(y.len(), x.len());
    let n = y.len();
    let py = y.as_mut_ptr();
    let px = x.as_ptr();
    let va = _mm256_set1_ps(a);
    let mut i = 0;
    while i + 8 <= n {
        let vy = _mm256_loadu_ps(py.add(i));
        let vx = _mm256_loadu_ps(px.add(i));
        _mm256_storeu_ps(py.add(i), _mm256_fmadd_ps(va, vx, vy));
        i += 8;
    }
    while i < n {
        y[i] += a * x[i];
        i += 1;
    }
}

/// [`fused_row_update_portable`] in one 8-lane pass: load `h_o` and `h_c`
/// once, produce both the `neu1e` accumulation and the in-place `h_o`
/// update from the same registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fused_row_update_avx2_fma(h_o: &mut [f32], h_c: &[f32], neu1e: &mut [f32], g: f32) {
    use std::arch::x86_64::*;
    debug_assert_eq!(h_o.len(), h_c.len());
    debug_assert_eq!(h_o.len(), neu1e.len());
    let n = h_o.len();
    let po = h_o.as_mut_ptr();
    let pc = h_c.as_ptr();
    let pe = neu1e.as_mut_ptr();
    let vg = _mm256_set1_ps(g);
    let mut i = 0;
    while i + 8 <= n {
        let vo = _mm256_loadu_ps(po.add(i));
        let vc = _mm256_loadu_ps(pc.add(i));
        let ve = _mm256_loadu_ps(pe.add(i));
        _mm256_storeu_ps(pe.add(i), _mm256_fmadd_ps(vg, vo, ve));
        _mm256_storeu_ps(po.add(i), _mm256_fmadd_ps(vg, vc, vo));
        i += 8;
    }
    while i < n {
        let o = h_o[i];
        neu1e[i] += g * o;
        h_o[i] = o + g * h_c[i];
        i += 1;
    }
}

/// [`fused_row_update_init_portable`]'s AVX2 body: identical to the
/// accumulating kernel except `neu1e` is written with a plain multiply (no
/// load).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fused_row_update_init_avx2_fma(h_o: &mut [f32], h_c: &[f32], neu1e: &mut [f32], g: f32) {
    use std::arch::x86_64::*;
    debug_assert_eq!(h_o.len(), h_c.len());
    debug_assert_eq!(h_o.len(), neu1e.len());
    let n = h_o.len();
    let po = h_o.as_mut_ptr();
    let pc = h_c.as_ptr();
    let pe = neu1e.as_mut_ptr();
    let vg = _mm256_set1_ps(g);
    let mut i = 0;
    while i + 8 <= n {
        let vo = _mm256_loadu_ps(po.add(i));
        let vc = _mm256_loadu_ps(pc.add(i));
        _mm256_storeu_ps(pe.add(i), _mm256_mul_ps(vg, vo));
        _mm256_storeu_ps(po.add(i), _mm256_fmadd_ps(vg, vc, vo));
        i += 8;
    }
    while i < n {
        let o = h_o[i];
        neu1e[i] = g * o;
        h_o[i] = o + g * h_c[i];
        i += 1;
    }
}

/// Unrolled dot product with four independent accumulators, giving the
/// compiler room to vectorize while keeping a fixed, deterministic
/// floating-point summation order.
#[inline]
fn dot_portable(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc0 = 0f32;
    let mut acc1 = 0f32;
    let mut acc2 = 0f32;
    let mut acc3 = 0f32;
    let chunks_a = a.chunks_exact(4);
    let chunks_b = b.chunks_exact(4);
    let mut tail = 0f32;
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += x * y;
    }
    for (x, y) in chunks_a.zip(chunks_b) {
        acc0 += x[0] * y[0];
        acc1 += x[1] * y[1];
        acc2 += x[2] * y[2];
        acc3 += x[3] * y[3];
    }
    ((acc0 + acc1) + (acc2 + acc3)) + tail
}

/// `y += a · x`.
#[inline]
fn axpy_portable(y: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    let n = y.len();
    let mut i = 0;
    while i + 4 <= n {
        y[i] += a * x[i];
        y[i + 1] += a * x[i + 1];
        y[i + 2] += a * x[i + 2];
        y[i + 3] += a * x[i + 3];
        i += 4;
    }
    while i < n {
        y[i] += a * x[i];
        i += 1;
    }
}

/// The fused negative-sampling row update: with `g` already computed from
/// the dot product and the sigmoid table,
///
/// ```text
/// neu1e += g · h_o      (gradient accumulated for the center row)
/// h_o   += g · h_c      (context row updated in place)
/// ```
///
/// Both updates read `h_o`'s *pre-update* value, exactly like the scalar
/// reference loop, and each row is loaded and stored once per sample.
#[inline]
fn fused_row_update_portable(h_o: &mut [f32], h_c: &[f32], neu1e: &mut [f32], g: f32) {
    debug_assert_eq!(h_o.len(), h_c.len());
    debug_assert_eq!(h_o.len(), neu1e.len());
    for i in 0..h_o.len() {
        let o = h_o[i];
        neu1e[i] += g * o;
        h_o[i] = o + g * h_c[i];
    }
}

/// [`fused_row_update_portable`] for the *first* sample of a pair: writes
/// `neu1e = g · h_o` instead of accumulating, so the caller never has to
/// zero the buffer — one full store sweep and one load sweep saved per
/// (center, context) pair. `0 + g·h_o` and a direct `g·h_o` store round
/// identically, so this matches the accumulate-into-zeros path bit for
/// bit.
#[inline]
fn fused_row_update_init_portable(h_o: &mut [f32], h_c: &[f32], neu1e: &mut [f32], g: f32) {
    debug_assert_eq!(h_o.len(), h_c.len());
    debug_assert_eq!(h_o.len(), neu1e.len());
    for i in 0..h_o.len() {
        let o = h_o[i];
        neu1e[i] = g * o;
        h_o[i] = o + g * h_c[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..n).map(|i| 1.0 - i as f32 * 0.013).collect();
        let e: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos() * 0.5).collect();
        (a, b, e)
    }

    #[test]
    fn dot_matches_naive_order_free_cases() {
        let a: Vec<f32> = (0..13).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..13).map(|i| 1.0 - i as f32 * 0.25).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let fast = dot(&a, &b);
        assert!((naive - fast).abs() < 1e-4, "{naive} vs {fast}");
        // Exactly deterministic: same inputs, same bits.
        assert_eq!(fast.to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn dot_handles_all_tail_lengths() {
        for n in 0..70 {
            let (a, b, _) = vecs(n);
            let naive: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            assert!((dot(&a, &b) as f64 - naive).abs() < 1e-3, "n={n}");
        }
    }

    /// The kNN scorer is `dot` per row, bit for bit, on the vector path
    /// (dims 8/24/64/96: accumulator shapes; row counts with and without
    /// an eight-row tail), on the per-row fallback (dims 13/100), and for
    /// rows that score zero, NaN or ±∞.
    #[test]
    fn score_rows_is_dot_per_row_bit_for_bit() {
        use crate::knn::{sim_bucket, sim_key};
        for dim in [8, 13, 24, 64, 96, 100] {
            for n in [0, 1, 7, 8, 9, 16, 29] {
                let (q, _, _) = vecs(dim);
                let mut rows: Vec<f32> = (0..n * dim)
                    .map(|i| ((i * 7 + dim) as f32 * 0.13).sin())
                    .collect();
                if n > 5 {
                    rows[dim..2 * dim].fill(-0.0);
                    rows[3 * dim] = f32::NAN;
                    rows[5 * dim + 1] = f32::INFINITY;
                }
                let (mut keys, mut buckets) = (vec![9u32; n], vec![9u16; n]);
                score_rows(&q, &rows, &mut keys, &mut buckets);
                for r in 0..n {
                    let sim = dot(&q, &rows[r * dim..(r + 1) * dim]);
                    let expected = (sim_key(sim), sim_bucket(sim));
                    assert_eq!((keys[r], buckets[r]), expected, "dim={dim} n={n} r={r}");
                }
            }
        }
    }

    type RowUpdate = unsafe fn(&mut [f32], &[f32], &mut [f32], f32);
    type Kernels = (unsafe fn(&mut [f32], f32, &[f32]), RowUpdate, RowUpdate);

    /// `(axpy, fused_row_update, fused_row_update_init)`: the portable
    /// bodies, and the AVX2 ones when this CPU has them.
    fn kernels() -> Vec<Kernels> {
        let portable: Kernels = (
            axpy_portable,
            fused_row_update_portable,
            fused_row_update_init_portable,
        );
        #[cfg(target_arch = "x86_64")]
        if avx2_fma_available() {
            let avx2: Kernels = (
                axpy_avx2_fma,
                fused_row_update_avx2_fma,
                fused_row_update_init_avx2_fma,
            );
            return vec![portable, avx2];
        }
        vec![portable]
    }

    #[test]
    fn axpy_matches_scalar_reference() {
        for (axpy, _, _) in kernels() {
            for n in [0, 1, 7, 8, 9, 31, 32, 100] {
                let (x, y0, _) = vecs(n);
                let mut fast = y0.clone();
                // SAFETY: `kernels` offers the AVX2 bodies only where the
                // CPU has the features; lengths match.
                unsafe { axpy(&mut fast, 0.3, &x) };
                let mut slow = y0.clone();
                for i in 0..n {
                    slow[i] += 0.3 * x[i];
                }
                for i in 0..n {
                    assert!((fast[i] - slow[i]).abs() < 1e-5, "n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn fused_row_update_matches_scalar_reference() {
        for (_, fused_row_update, _) in kernels() {
            for n in [0, 1, 5, 8, 16, 17, 100] {
                let (c, o0, e0) = vecs(n);
                let g = -0.125f32;
                let mut o_fast = o0.clone();
                let mut e_fast = e0.clone();
                // SAFETY: as in `axpy_matches_scalar_reference`.
                unsafe { fused_row_update(&mut o_fast, &c, &mut e_fast, g) };
                // Scalar reference: both updates read h_o's pre-update value.
                let mut o_slow = o0.clone();
                let mut e_slow = e0.clone();
                for i in 0..n {
                    let o = o_slow[i];
                    e_slow[i] += g * o;
                    o_slow[i] = o + g * c[i];
                }
                for i in 0..n {
                    assert!((o_fast[i] - o_slow[i]).abs() < 1e-5, "h_o n={n} i={i}");
                    assert!((e_fast[i] - e_slow[i]).abs() < 1e-5, "neu1e n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn fused_init_equals_accumulate_into_zeros() {
        for (_, fused_row_update, fused_row_update_init) in kernels() {
            for n in [0, 1, 5, 8, 16, 17, 100] {
                let (c, o0, _) = vecs(n);
                let g = 0.375f32;
                let mut o_init = o0.clone();
                let mut e_init = vec![f32::NAN; n]; // must be fully overwritten
                let mut o_acc = o0.clone();
                let mut e_acc = vec![0f32; n];
                // SAFETY: as in `axpy_matches_scalar_reference`.
                unsafe {
                    fused_row_update_init(&mut o_init, &c, &mut e_init, g);
                    fused_row_update(&mut o_acc, &c, &mut e_acc, g);
                }
                for i in 0..n {
                    assert_eq!(o_init[i].to_bits(), o_acc[i].to_bits(), "h_o n={n} i={i}");
                    assert_eq!(e_init[i].to_bits(), e_acc[i].to_bits(), "neu1e n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn kernel_resolution_honors_the_knob() {
        use crate::{KernelChoice, SkipGram, SkipGramConfig};
        let corpus = vec![vec!["a.com", "b.com", "c.com"]; 4];
        let accelerated = |kernel| {
            let cfg = SkipGramConfig {
                kernel,
                ..SkipGramConfig::tiny()
            };
            let model = SkipGram::train(&corpus, &cfg).unwrap();
            model.train_stats().simd_accelerated
        };
        assert!(!accelerated(KernelChoice::Scalar));
        assert_eq!(accelerated(KernelChoice::Auto), simd_accelerated());
    }
}
