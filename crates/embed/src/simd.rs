//! Runtime-dispatched SIMD kernels shared by the kNN scan and the
//! SKIPGRAM trainer.
//!
//! One process-wide feature probe (AVX2 + FMA on x86-64) selects between
//! the vector kernels and portable unrolled fallbacks; the choice is
//! constant for the life of the process, so every caller sees one
//! consistent floating-point summation order and repeated runs are
//! reproducible on the same machine.
//!
//! The scanning side is one kernel: every dot-product scan of a query
//! against contiguous rows — the kNN's tiled scan and IVF list scoring
//! ([`score_rows`], which converts the similarities to keys and buckets
//! afterwards), IVF centroid ranking and k-means assignment ([`dot_rows`])
//! — runs on `scan_rows_avx2_fma`, which keeps the query in registers and
//! scores eight rows per step, each similarity [`dot`]'s bit for bit (the
//! proof is on the kernel). Dims that are not a multiple of 8, or above
//! 128, and the portable path call [`dot`] per row.
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

/// The one NaN a scan's similarity can be: the negative quiet NaN x86
/// makes for an invalid operation, so a NaN similarity ranks below every
/// number. Which NaN an operation on NaNs returns follows operand order and
/// instruction selection, which Rust leaves unspecified; a scan that keeps
/// the query in registers and [`dot`] would otherwise disagree on it. With
/// one NaN, `dot(a, b)` and `dot(b, a)` are the same bits too.
pub const NAN_SIM: f32 = f32::from_bits(0xffc0_0000);

/// Dot product: AVX2+FMA kernel when the CPU has it, the portable
/// unrolled version otherwise; a NaN result is [`NAN_SIM`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: the feature check above gates the target_feature fn.
        return canonical(unsafe { dot_avx2_fma(a, b) });
    }
    canonical(dot_portable(a, b))
}

/// `x`, or [`NAN_SIM`] when `x` is a NaN.
#[inline]
fn canonical(x: f32) -> f32 {
    if x.is_nan() {
        NAN_SIM
    } else {
        x
    }
}

/// Score one query against `keys.len()` contiguous rows for the kNN scan:
/// row `r`'s [`dot`] with `qhat`, bit for bit, leaves as `keys[r]` =
/// [`sim_key`](crate::knn::sim_key) and `buckets[r]` =
/// [`sim_bucket`](crate::knn::sim_bucket). The similarities are
/// [`dot_rows`]' written into `keys`, then converted in place: a kernel
/// that also converted would keep the conversion's constants in the
/// registers that hold the query, and spill.
pub(crate) fn score_rows(qhat: &[f32], rows: &[f32], keys: &mut [u32], buckets: &mut [u16]) {
    assert_eq!(buckets.len(), keys.len());
    // SAFETY: `f32` and `u32` have one size and alignment, and every bit
    // pattern is a valid value of both.
    let sims = unsafe { std::slice::from_raw_parts_mut(keys.as_mut_ptr().cast(), keys.len()) };
    dot_rows(qhat, rows, sims);
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: the feature check gates the target_feature fn.
        unsafe { keys_and_buckets_avx2_fma(keys, buckets) };
        return;
    }
    for (key, bucket) in keys.iter_mut().zip(buckets) {
        let sim = f32::from_bits(*key);
        (*key, *bucket) = (crate::knn::sim_key(sim), crate::knn::sim_bucket(sim));
    }
}

/// `sims[r]` ← [`dot`]`(q, row r)`, bit for bit, over `sims.len()`
/// contiguous rows: [`scan_rows_avx2_fma`] when the CPU has AVX2 + FMA
/// and `q.len()` is a multiple of 8 up to 128, [`dot`] per row otherwise.
pub(crate) fn dot_rows(q: &[f32], rows: &[f32], sims: &mut [f32]) {
    let dim = q.len();
    assert_eq!(rows.len(), sims.len() * dim);
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() && dim.is_multiple_of(8) && (8..=128).contains(&dim) {
        let (q, rows, n, sims) = (q.as_ptr(), rows.as_ptr(), sims.len(), sims.as_mut_ptr());
        macro_rules! by_chunks {
            ($($c:literal)*) => {
                match dim / 8 {
                    // SAFETY: the feature check gates the target_feature
                    // fn; the assert above is its length contract.
                    $($c => unsafe { scan_rows_avx2_fma::<$c>(q, rows, n, sims) },)*
                    _ => unreachable!("8 ≤ dim ≤ 128"),
                }
            };
        }
        by_chunks!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
        return;
    }
    for (r, sim) in sims.iter_mut().enumerate() {
        *sim = dot(q, &rows[r * dim..(r + 1) * dim]);
    }
}

/// One whole (center, context) training pair — the positive sample and
/// every negative, then the `h_c += neu1e` flush — behind a *single*
/// dispatch boundary. Each `samples` entry is a context-matrix row index
/// plus its label; for each one, in order, this slices the row `h_o` from
/// `context` (rows of `neu1e.len()` floats), computes `f = h_c·h_o`,
/// `g = (label − σ(f))·lr` and applies the fused row update (the first
/// sample *initializes* `neu1e`, so the buffer is never zeroed — see
/// `fused_row_update_init_portable`). A row named twice sees its earlier
/// sample's write. An empty `samples` changes nothing.
///
/// Why a batched entry point: `#[target_feature]` kernels cannot inline
/// into their callers, so with per-primitive dispatch a pair with K
/// negatives pays 2(K+1)+1 real calls. Folding the whole pair into one
/// call drops that to 1 and keeps `h_c` pinned in registers/L1 across all
/// samples.
///
/// Panics if `h_c` and `neu1e` differ in length or a row index is out of
/// `context`.
#[inline]
pub fn train_pair(
    h_c: &mut [f32],
    context: &mut [f32],
    samples: &[(u32, f32)],
    neu1e: &mut [f32],
    lr: f32,
    sigmoid: &crate::sigmoid::SigmoidTable,
) {
    assert_eq!(h_c.len(), neu1e.len());
    if samples.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_fma_available() {
        // SAFETY: the feature check above gates the target_feature fn.
        return unsafe { train_pair_avx2_fma(h_c, context, samples, neu1e, lr, sigmoid) };
    }
    train_pair_portable(h_c, context, samples, neu1e, lr, sigmoid);
}

/// [`train_pair_portable`] on the AVX2+FMA kernels. Callers hold
/// `h_c.len() == neu1e.len()`; every row it slices is that long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn train_pair_avx2_fma(
    h_c: &mut [f32],
    context: &mut [f32],
    samples: &[(u32, f32)],
    neu1e: &mut [f32],
    lr: f32,
    sigmoid: &crate::sigmoid::SigmoidTable,
) {
    // The *_avx2_fma helpers share this function's target features, so the
    // compiler inlines them here: one real call per pair, not per sample.
    let dim = neu1e.len();
    for (i, &(row, label)) in samples.iter().enumerate() {
        let h_o = &mut context[row as usize * dim..][..dim];
        let f = dot_avx2_fma(h_c, h_o);
        let g = (label - sigmoid.get(f)) * lr;
        if i == 0 {
            fused_row_update_init_avx2_fma(h_o, h_c, neu1e, g);
        } else {
            fused_row_update_avx2_fma(h_o, h_c, neu1e, g);
        }
    }
    axpy_avx2_fma(h_c, 1.0, neu1e);
}

/// Portable [`train_pair`] body (also the non-x86 path).
#[inline]
fn train_pair_portable(
    h_c: &mut [f32],
    context: &mut [f32],
    samples: &[(u32, f32)],
    neu1e: &mut [f32],
    lr: f32,
    sigmoid: &crate::sigmoid::SigmoidTable,
) {
    let dim = neu1e.len();
    for (i, &(row, label)) in samples.iter().enumerate() {
        let h_o = &mut context[row as usize * dim..][..dim];
        let f = dot_portable(h_c, h_o);
        let g = (label - sigmoid.get(f)) * lr;
        if i == 0 {
            fused_row_update_init_portable(h_o, h_c, neu1e, g);
        } else {
            fused_row_update_portable(h_o, h_c, neu1e, g);
        }
    }
    axpy_portable(h_c, 1.0, neu1e);
}

/// 8-lane FMA dot. Four independent vector accumulators (32 floats in
/// flight): chunk `c` of eight floats feeds accumulator `c mod 4` while
/// whole groups of four chunks remain, and accumulator 0 after that; each
/// accumulator starts from zero. They are added as `(acc0 + acc1) + (acc2 +
/// acc3)`, lane `j` of the result holding the terms `i ≡ j mod 8`, and the
/// lanes are horizontal-summed in a fixed order — `((l0+l4) + (l2+l6)) +
/// ((l1+l5) + (l3+l7))` — with the scalar tail folded in last. The default
/// x86-64 target is SSE2-only, so this has to be an explicit
/// `target_feature` kernel rather than autovectorization.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx2_fma(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc = [_mm256_setzero_ps(); 4];
    let mut i = 0;
    while i + 32 <= n {
        for (j, acc) in acc.iter_mut().enumerate() {
            let x = _mm256_loadu_ps(pa.add(i + 8 * j));
            *acc = _mm256_fmadd_ps(x, _mm256_loadu_ps(pb.add(i + 8 * j)), *acc);
        }
        i += 32;
    }
    while i + 8 <= n {
        let x = _mm256_loadu_ps(pa.add(i));
        acc[0] = _mm256_fmadd_ps(x, _mm256_loadu_ps(pb.add(i)), acc[0]);
        i += 8;
    }
    let lanes = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
    let quad = _mm_add_ps(
        _mm256_castps256_ps128(lanes),
        _mm256_extractf128_ps(lanes, 1),
    );
    let pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
    let single = _mm_add_ss(pair, _mm_shuffle_ps(pair, pair, 0b01));
    let mut out = _mm_cvtss_f32(single);
    for i in n - n % 8..n {
        out += a[i] * b[i];
    }
    out
}

/// [`score_rows`]' conversion: `keys[r]`, a similarity's bits, becomes
/// its [`sim_key`](crate::knn::sim_key), and `buckets[r]` its
/// [`sim_bucket`](crate::knn::sim_bucket), eight at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn keys_and_buckets_avx2_fma(keys: &mut [u32], buckets: &mut [u16]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(keys.len(), buckets.len());
    let sign = _mm256_set1_epi32(i32::MIN);
    let one = _mm256_set1_epi32(1f32.to_bits() as i32);
    let mut r = 0;
    while r + 8 <= keys.len() {
        let bits = _mm256_loadu_si256(keys.as_ptr().add(r).cast());
        // sim_key: negative → !bits, else bits ^ sign.
        let key = _mm256_xor_si256(bits, _mm256_or_si256(_mm256_srai_epi32(bits, 31), sign));
        _mm256_storeu_si256(keys.as_mut_ptr().add(r).cast(), key);
        // sim_bucket: clamp the magnitude's bits to 1.0, keep the sign,
        // quantise (the product is exact, so the fused add rounds once
        // like the scalar's).
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
    for (key, bucket) in keys[r..].iter_mut().zip(&mut buckets[r..]) {
        let sim = f32::from_bits(*key);
        (*key, *bucket) = (crate::knn::sim_key(sim), crate::knn::sim_bucket(sim));
    }
}

/// One row's lane sums against the query chunks `q`, in exactly
/// [`dot_avx2_fma`]'s operations: see [`scan_rows_avx2_fma`].
///
/// # Safety
/// `row` must be valid for `8 * C` reads.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn row_lanes<const C: usize>(
    q: &[std::arch::x86_64::__m256; C],
    row: *const f32,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_ps(); 4];
    for (c, q) in q.iter().enumerate() {
        let j = if c < C / 4 * 4 { c % 4 } else { 0 };
        acc[j] = _mm256_fmadd_ps(*q, _mm256_loadu_ps(row.add(8 * c)), acc[j]);
    }
    _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]))
}

/// `dot_avx2_fma`'s first horizontal step for two rows at once: with `a`
/// and `b` the lane sums of two rows, `[l0+l4, l1+l5, l2+l6, l3+l7]` of `a`
/// in the low half and of `b` in the high half.
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

/// Eight rows' similarities, `rows(i)` giving row `i`'s lane sums: the
/// lanes reduced in exactly [`dot_avx2_fma`]'s horizontal tree, vertically,
/// so lane `i` of the result is row `i`'s similarity and the eight cost a
/// handful of vector operations instead of eight horizontal reductions.
/// Rows `i` and `i + 4` are paired as soon as both are scored, which keeps
/// four vectors live across the step instead of eight.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn sum_lanes8(
    mut rows: impl FnMut(usize) -> std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    // Rows `i` and `i + 4` share a vector from here on, so after a 4 × 4
    // transpose inside each half `s_j` holds `l_j + l_{j+4}` of rows 0–3 |
    // 4–7 and the rest of the tree is two vertical adds.
    let mut pairs = [_mm256_setzero_ps(); 4];
    for (i, pair) in pairs.iter_mut().enumerate() {
        *pair = lane_pair_sums(rows(i), rows(i + 4));
    }
    let [q0, q1, q2, q3] = pairs;
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
    _mm256_add_ps(_mm256_add_ps(s0, s2), _mm256_add_ps(s1, s3))
}

/// The one vector scoring kernel: `n` rows of `8 * C` floats (1 ≤ C ≤ 16)
/// against the query `q`, eight rows per step, the query loaded into
/// registers once for the whole scan. Each row's similarity is
/// [`dot_avx2_fma`]`(q, row)` bit for bit:
///
/// * **Products.** Chunk `c` (floats `8c..8c + 8`) is the same
///   `fmadd(q_c, row_c, acc)` in both, and FMA's product commutes, so
///   with one NaN (below) `dot(row, q)` is the same bits as well.
/// * **Accumulators.** `dot_avx2_fma` feeds chunk `c` to accumulator
///   `c mod 4` over whole 32-float groups, i.e. for the leading `4⌊C/4⌋`
///   chunks, and the remaining `C mod 4` chunks to accumulator 0. Each
///   accumulator starts from `+0.0` and takes its chunks in increasing `c`.
///   [`row_lanes`] makes the same map with `C` known at compile time, so
///   every accumulator sees the same FMAs in the same order.
/// * **Zero accumulators.** For `C < 4` some accumulators are never fed,
///   and `(acc0 + acc1) + (acc2 + acc3)` still adds them: a fed
///   accumulator holds `−0.0` where its products underflow to `−0.0`, and
///   `−0.0 + +0.0` is `+0.0`, so dropping an add of a zero accumulator
///   would change that lane's bits, and possibly the similarity's.
/// * **Horizontal sum.** `dot_avx2_fma` reduces the lanes as `((l0+l4) +
///   (l2+l6)) + ((l1+l5) + (l3+l7))`; [`sum_lanes8`] computes exactly those
///   adds for eight rows at once, one row per output lane. A dim that is a
///   multiple of 8 has no scalar tail to fold in.
///
/// A NaN similarity leaves as [`NAN_SIM`], as from [`dot`]. A last step of
/// fewer than eight rows fills the missing rows' lanes with zeros, which
/// only feed their own output lanes, and stores the rest.
///
/// # Safety
/// AVX2 and FMA must be present; `q` must be valid for `8 * C` reads,
/// `rows` for `n * 8 * C` and `sims` for `n` writes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn scan_rows_avx2_fma<const C: usize>(
    q: *const f32,
    rows: *const f32,
    n: usize,
    sims: *mut f32,
) {
    use std::arch::x86_64::*;
    let dim = 8 * C;
    let mut qv = [_mm256_setzero_ps(); C];
    for (c, qv) in qv.iter_mut().enumerate() {
        *qv = _mm256_loadu_ps(q.add(8 * c));
    }
    let nan = _mm256_set1_ps(NAN_SIM);
    let canonical = |sims| _mm256_blendv_ps(sims, nan, _mm256_cmp_ps::<_CMP_UNORD_Q>(sims, sims));
    let mut r = 0;
    while r + 8 <= n {
        let p = rows.add(r * dim);
        let eight = sum_lanes8(|i| row_lanes(&qv, p.add(i * dim)));
        _mm256_storeu_ps(sims.add(r), canonical(eight));
        r += 8;
    }
    if r < n {
        let (p, len) = (rows.add(r * dim), n - r);
        let eight = sum_lanes8(|i| {
            if i < len {
                row_lanes(&qv, p.add(i * dim))
            } else {
                _mm256_setzero_ps()
            }
        });
        let mut tail = [0f32; 8];
        _mm256_storeu_ps(tail.as_mut_ptr(), canonical(eight));
        std::ptr::copy_nonoverlapping(tail.as_ptr(), sims.add(r), len);
    }
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

    /// Every dim the vector kernel takes (8..=128: each chunk count `C`
    /// and each `C mod 4`) and two it leaves to the per-row fallback (13,
    /// 100).
    fn kernel_dims() -> Vec<usize> {
        (8..=128).step_by(8).chain([13, 100]).collect()
    }

    /// Queries and rows holding ±0.0, ±∞, NaN and subnormals: a plain
    /// query, an all −0.0 one, a subnormal one, one with a +∞, one with a
    /// NaN and an all +subnormal one; rows of −0.0, +0.0, subnormals, a
    /// NaN, +∞ alone, −∞ and +∞ together, all −subnormal, and plain ones.
    /// The last two meet in products that underflow to −0.0, which is how
    /// an accumulator holds −0.0: `dot` turns that lane into +0.0 only by
    /// adding the accumulators it never fed.
    fn special_cases(dim: usize, n: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let plain = vecs(dim).0;
        let tiny = f32::MIN_POSITIVE / 4.0;
        let mut queries = vec![
            plain.clone(),
            vec![-0.0; dim],
            plain.iter().map(|x| x * tiny).collect(),
            plain.clone(),
            plain,
            vec![tiny; dim],
        ];
        queries[3][dim / 2] = f32::INFINITY;
        queries[4][dim - 1] = f32::NAN;
        let mut rows: Vec<f32> = (0..n * dim)
            .map(|i| ((i * 7 + dim) as f32 * 0.13).sin())
            .collect();
        for (r, row) in rows.chunks_exact_mut(dim).enumerate() {
            match r % 8 {
                0 => {}
                1 => row.fill(-0.0),
                2 => row.fill(0.0),
                3 => row.iter_mut().for_each(|x| *x *= tiny),
                4 => row[r % dim] = f32::NAN,
                5 => row[1 % dim] = f32::INFINITY,
                6 => (row[0], row[dim - 1]) = (f32::NEG_INFINITY, f32::INFINITY),
                7 => row.fill(-tiny),
                _ => unreachable!(),
            }
        }
        (queries, rows)
    }

    /// Every `(query, rows)` case of the twins: [`special_cases`] for each
    /// of [`kernel_dims`] at row counts with and without an eight-row tail,
    /// then `PROPTEST_CASES` seeded ones — a random kernel dim and row
    /// count, every float a special value (±0.0, ±∞, NaN, ± a subnormal)
    /// with probability 1/8.
    fn twin_cases(name: &str, mut check: impl FnMut(&[f32], &[f32], &str)) {
        let dims = kernel_dims();
        for &dim in &dims {
            for n in [0, 1, 7, 8, 9, 15, 16, 29] {
                let (queries, rows) = special_cases(dim, n);
                for (qi, q) in queries.iter().enumerate() {
                    check(q, &rows, &format!("dim={dim} n={n} query {qi}"));
                }
            }
        }
        let tiny = f32::MIN_POSITIVE / 4.0;
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            tiny,
            -tiny,
        ];
        let mut rng = proptest::test_runner::TestRng::deterministic(name);
        for case in 0..proptest::case_count() {
            let dim = dims[rng.uniform_u64(0, dims.len() as u64 - 1) as usize];
            let n = rng.uniform_u64(0, 40) as usize;
            let mut draw = || {
                if rng.uniform_u64(0, 7) == 0 {
                    specials[rng.uniform_u64(0, specials.len() as u64 - 1) as usize]
                } else {
                    rng.uniform_f64(-1.0, 1.0) as f32
                }
            };
            let q: Vec<f32> = (0..dim).map(|_| draw()).collect();
            let rows: Vec<f32> = (0..n * dim).map(|_| draw()).collect();
            check(&q, &rows, &format!("seeded case {case}: dim={dim} n={n}"));
        }
    }

    /// The kNN scorer is `dot` per row, bit for bit, for every chunk count
    /// of the vector kernel, the per-row fallback, every eight-row tail and
    /// special values in both the rows and the query; it writes its `n`
    /// outputs and nothing past them.
    #[test]
    fn score_rows_is_dot_per_row_bit_for_bit() {
        use crate::knn::{sim_bucket, sim_key};
        twin_cases("score_rows_is_dot_per_row_bit_for_bit", |q, rows, case| {
            let (dim, n) = (q.len(), rows.len() / q.len());
            let (mut keys, mut buckets) = (vec![9u32; n + 3], vec![9u16; n + 3]);
            score_rows(q, rows, &mut keys[..n], &mut buckets[..n]);
            for r in 0..n {
                let sim = dot(q, &rows[r * dim..(r + 1) * dim]);
                let expected = (sim_key(sim), sim_bucket(sim));
                assert_eq!((keys[r], buckets[r]), expected, "{case} r={r}");
            }
            assert_eq!(
                (&keys[n..], &buckets[n..]),
                (&[9; 3][..], &[9; 3][..]),
                "{case}"
            );
        });
    }

    /// [`dot_rows`] is `dot` per row with the similarities compared as
    /// bits, over the same cases.
    #[test]
    fn dot_rows_is_dot_per_row_bit_for_bit() {
        twin_cases("dot_rows_is_dot_per_row_bit_for_bit", |q, rows, case| {
            let (dim, n) = (q.len(), rows.len() / q.len());
            let mut sims = vec![9f32; n + 3];
            dot_rows(q, rows, &mut sims[..n]);
            for r in 0..n {
                let sim = dot(q, &rows[r * dim..(r + 1) * dim]);
                assert_eq!(sims[r].to_bits(), sim.to_bits(), "{case} r={r}");
            }
            assert_eq!(&sims[n..], &[9f32; 3], "{case}");
        });
    }

    type RowUpdate = unsafe fn(&mut [f32], &[f32], &mut [f32], f32);
    type TrainPair = unsafe fn(
        &mut [f32],
        &mut [f32],
        &[(u32, f32)],
        &mut [f32],
        f32,
        &crate::sigmoid::SigmoidTable,
    );

    /// One body set of the training kernels.
    struct Kernels {
        dot: unsafe fn(&[f32], &[f32]) -> f32,
        axpy: unsafe fn(&mut [f32], f32, &[f32]),
        fused_row_update: RowUpdate,
        fused_row_update_init: RowUpdate,
        train_pair: TrainPair,
    }

    /// The portable bodies, and the AVX2 ones when this CPU has them (the
    /// last entry is the set [`train_pair`] dispatches to).
    fn kernels() -> Vec<Kernels> {
        let portable = Kernels {
            dot: dot_portable,
            axpy: axpy_portable,
            fused_row_update: fused_row_update_portable,
            fused_row_update_init: fused_row_update_init_portable,
            train_pair: train_pair_portable,
        };
        #[cfg(target_arch = "x86_64")]
        if avx2_fma_available() {
            let avx2 = Kernels {
                dot: dot_avx2_fma,
                axpy: axpy_avx2_fma,
                fused_row_update: fused_row_update_avx2_fma,
                fused_row_update_init: fused_row_update_init_avx2_fma,
                train_pair: train_pair_avx2_fma,
            };
            return vec![portable, avx2];
        }
        vec![portable]
    }

    #[test]
    fn axpy_matches_scalar_reference() {
        for k in kernels() {
            for n in [0, 1, 7, 8, 9, 31, 32, 100] {
                let (x, y0, _) = vecs(n);
                let mut fast = y0.clone();
                // SAFETY: `kernels` offers the AVX2 bodies only where the
                // CPU has the features; lengths match.
                unsafe { (k.axpy)(&mut fast, 0.3, &x) };
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
        for k in kernels() {
            for n in [0, 1, 5, 8, 16, 17, 100] {
                let (c, o0, e0) = vecs(n);
                let g = -0.125f32;
                let mut o_fast = o0.clone();
                let mut e_fast = e0.clone();
                // SAFETY: as in `axpy_matches_scalar_reference`.
                unsafe { (k.fused_row_update)(&mut o_fast, &c, &mut e_fast, g) };
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
        for k in kernels() {
            for n in [0, 1, 5, 8, 16, 17, 100] {
                let (c, o0, _) = vecs(n);
                let g = 0.375f32;
                let mut o_init = o0.clone();
                let mut e_init = vec![f32::NAN; n]; // must be fully overwritten
                let mut o_acc = o0.clone();
                let mut e_acc = vec![0f32; n];
                // SAFETY: as in `axpy_matches_scalar_reference`.
                unsafe {
                    (k.fused_row_update_init)(&mut o_init, &c, &mut e_init, g);
                    (k.fused_row_update)(&mut o_acc, &c, &mut e_acc, g);
                }
                for i in 0..n {
                    assert_eq!(o_init[i].to_bits(), o_acc[i].to_bits(), "h_o n={n} i={i}");
                    assert_eq!(e_init[i].to_bits(), e_acc[i].to_bits(), "neu1e n={n} i={i}");
                }
            }
        }
    }

    /// `train_pair` is, bit for bit, the per-sample loop of `dot` → fused
    /// row update → `h_c += neu1e` over the same context matrix, for both
    /// bodies — including a negative on the positive's row and a negative
    /// drawn twice, where a sample must see its predecessor's write to the
    /// row. An empty sample list changes nothing.
    #[test]
    fn train_pair_is_the_per_sample_loop_bit_for_bit() {
        let sigmoid = crate::sigmoid::SigmoidTable::new();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let kernels = kernels();
        for (ki, k) in kernels.iter().enumerate() {
            for dim in [1, 3, 8, 17, 64, 100] {
                let rows = 5;
                let h_c0: Vec<f32> = (0..dim).map(|i| 0.3 - i as f32 * 0.017).collect();
                let context0: Vec<f32> = (0..rows * dim)
                    .map(|i| ((i * 3 + dim) as f32 * 0.21).cos() * 0.4)
                    .collect();
                // The positive on row 2, a negative on that same row, row 4
                // drawn twice, then row 0.
                let samples = [(2, 1.0), (2, 0.0), (4, 0.0), (4, 0.0), (0, 0.0)];
                let lr = 0.3;
                let (mut h_c, mut context, mut neu1e) =
                    (h_c0.clone(), context0.clone(), vec![f32::NAN; dim]);
                // SAFETY: `kernels` offers the AVX2 bodies only where the
                // CPU has the features; `h_c` and `neu1e` are `dim` long.
                unsafe {
                    (k.train_pair)(&mut h_c, &mut context, &samples, &mut neu1e, lr, &sigmoid)
                };
                let (mut h_c_ref, mut context_ref, mut neu1e_ref) =
                    (h_c0.clone(), context0.clone(), vec![f32::NAN; dim]);
                for (i, &(row, label)) in samples.iter().enumerate() {
                    let h_o = &mut context_ref[row as usize * dim..][..dim];
                    // SAFETY: as above.
                    unsafe {
                        let g = (label - sigmoid.get((k.dot)(&h_c_ref, h_o))) * lr;
                        if i == 0 {
                            (k.fused_row_update_init)(h_o, &h_c_ref, &mut neu1e_ref, g);
                        } else {
                            (k.fused_row_update)(h_o, &h_c_ref, &mut neu1e_ref, g);
                        }
                    }
                }
                // SAFETY: as above.
                unsafe { (k.axpy)(&mut h_c_ref, 1.0, &neu1e_ref) };
                let case = format!("kernel {ki} dim={dim}");
                assert_eq!(bits(&h_c), bits(&h_c_ref), "h_c {case}");
                assert_eq!(bits(&context), bits(&context_ref), "context {case}");
                assert_eq!(bits(&neu1e), bits(&neu1e_ref), "neu1e {case}");
                assert_ne!(bits(&context), bits(&context0), "{case} trained nothing");

                if ki == kernels.len() - 1 {
                    let (mut h_c, mut context, mut neu1e) =
                        (h_c0.clone(), context0.clone(), vec![f32::NAN; dim]);
                    train_pair(&mut h_c, &mut context, &samples, &mut neu1e, lr, &sigmoid);
                    assert_eq!(bits(&h_c), bits(&h_c_ref), "dispatched h_c {case}");
                    assert_eq!(bits(&context), bits(&context_ref), "dispatched {case}");
                }
            }
        }
        let (mut h_c, mut context, mut neu1e) = (vec![0.5; 8], vec![0.25; 16], vec![7.0; 8]);
        train_pair(&mut h_c, &mut context, &[], &mut neu1e, 0.3, &sigmoid);
        assert_eq!(
            (h_c, context, neu1e),
            (vec![0.5; 8], vec![0.25; 16], vec![7.0; 8])
        );
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
