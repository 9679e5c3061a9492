//! XNOR-popcount GEMM (Rastegari et al. \[19\], Courbariaux et al. \[22\]) —
//! the `xnor` baseline of Table IV.
//!
//! Both operands are binarised. A dot product of two `{−1,+1}` vectors packed
//! LSB-first into words is
//!
//! ```text
//! dot = 2 · popcount(!(a ^ b) & mask) − valid_bits
//! ```
//!
//! because matching bits contribute `+1` and differing bits `−1`. Scales are
//! applied per weight row (`α_i`) and per input column (`γ_j`).
//!
//! Activation binarisation happens **on the fly** (dynamic quantization),
//! mirroring the real inference cost the paper attributes to
//! activation-quantizing schemes. Multi-bit weights/activations (`β_w`,
//! `β_a`) nest as in the paper's complexity expression
//! `O(β_w · β_a · m · n/32 · b)`.
//!
//! ## Kernel levels
//!
//! The word-wise XNOR + popcount reduction dispatches on the plan's
//! resolved [`ResolvedKernel`]: AVX2 and AVX-512 run a byte-shuffle
//! (Muła) popcount over 4 / 8 words per step; Scalar and NEON share the
//! portable `count_ones` body (LLVM lowers it to `popcnt` / `cnt`+`addv`
//! — an implementation choice for those levels, not a remap). The
//! reduction is pure integer arithmetic, so every level is exactly equal,
//! and the fp32 scale application is order-identical across levels.

#![deny(clippy::undocumented_unsafe_blocks)]

use biq_matrix::store::PodStore;
use biq_matrix::{ColMatrix, Matrix};
use biq_quant::packing::{pack_signs_u64, PackedRowsU64};
use biqgemm_core::{KernelLevel, ResolvedKernel};

/// XNOR-ready weights: one packed sign plane per weight bit, each with
/// per-row scales.
///
/// Scales and words live in shared-capable storage ([`PodStore`] /
/// [`PackedRowsU64::from_shared`]), so planes deserialized from a model
/// artifact borrow the artifact buffer instead of re-allocating.
#[derive(Clone, Debug)]
pub struct XnorWeights {
    planes: Vec<(PodStore<f32>, PackedRowsU64)>,
    rows: usize,
    cols: usize,
}

impl XnorWeights {
    /// Builds from `(per-row scales, packed signs)` planes.
    ///
    /// # Panics
    /// Panics if planes are empty or disagree in shape.
    pub fn new(planes: Vec<(Vec<f32>, PackedRowsU64)>) -> Self {
        Self::from_plane_stores(planes.into_iter().map(|(s, p)| (s.into(), p)).collect())
    }

    /// [`XnorWeights::new`] over shared-capable scale storage — the
    /// zero-copy artifact loading path.
    ///
    /// # Panics
    /// Panics if planes are empty or disagree in shape.
    pub fn from_plane_stores(planes: Vec<(PodStore<f32>, PackedRowsU64)>) -> Self {
        assert!(!planes.is_empty(), "at least one plane required");
        let rows = planes[0].1.rows();
        let cols = planes[0].1.cols();
        for (scales, p) in &planes {
            assert_eq!(p.rows(), rows, "plane row mismatch");
            assert_eq!(p.cols(), cols, "plane col mismatch");
            assert_eq!(scales.len(), rows, "scale length mismatch");
        }
        Self { planes, rows, cols }
    }

    /// From a multi-bit binary-coding quantized matrix.
    pub fn from_multibit(q: &biq_quant::MultiBitMatrix) -> Self {
        let planes =
            q.planes().iter().map(|p| (p.scales.clone(), PackedRowsU64::pack(&p.signs))).collect();
        Self::new(planes)
    }

    /// Number of weight bits `β_w`.
    pub fn bits(&self) -> usize {
        self.planes.len()
    }

    /// Output size `m`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input size `n`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `(per-row scales, packed signs)` planes — the payload a model
    /// artifact serializes.
    pub fn planes(&self) -> &[(PodStore<f32>, PackedRowsU64)] {
        &self.planes
    }
}

/// One binarised activation column: packed signs plus its scale `γ`.
struct BinColumn {
    words: Vec<u64>,
    gamma: f32,
}

/// Binarises every column of `x` with 1-bit greedy quantization
/// (`γ = mean |x|`, signs of `x`).
fn binarize_columns(x: &ColMatrix) -> Vec<BinColumn> {
    (0..x.cols())
        .map(|alpha| {
            let col = x.col(alpha);
            let gamma = col.iter().map(|v| v.abs()).sum::<f32>() / col.len() as f32;
            let signs: Vec<i8> = col.iter().map(|&v| if v >= 0.0 { 1 } else { -1 }).collect();
            BinColumn { words: pack_signs_u64(&signs), gamma }
        })
        .collect()
}

/// Packed ±1 dot product via XNOR + popcount, dispatched on the resolved
/// kernel level. The tail word is always counted scalar under `tail_mask`;
/// the full words ahead of it go through [`matched_full`].
#[inline]
fn xnor_dot(a: &[u64], b: &[u64], n: usize, tail_mask: u64, k: ResolvedKernel) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let last = a.len() - 1;
    let mut matched = matched_full(&a[..last], &b[..last], k);
    matched += (!(a[last] ^ b[last]) & tail_mask).count_ones();
    2 * matched as i32 - n as i32
}

/// `Σ_t popcount(!(a[t] ^ b[t]))` over full (untailed) words.
#[inline]
fn matched_full(a: &[u64], b: &[u64], k: ResolvedKernel) -> u32 {
    match k.level() {
        // Portable body for Scalar and NEON (see the module docs).
        KernelLevel::Scalar | KernelLevel::Neon => matched_full_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: resolved ⇒ the host has AVX2; both operands are packed from
        // the same `n` bits, so equal-length (`debug_assert`ed in `xnor_dot`).
        KernelLevel::Avx2 => unsafe { x86::matched_full_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: resolved ⇒ the host has AVX-512 F/BW; lengths as above.
        KernelLevel::Avx512 => unsafe { x86::matched_full_avx512(a, b) },
        #[allow(unreachable_patterns)]
        other => unreachable!("kernel level {other:?} resolved on a foreign architecture"),
    }
}

#[inline]
fn matched_full_scalar(a: &[u64], b: &[u64]) -> u32 {
    let mut matched = 0u32;
    for (&av, &bv) in a.iter().zip(b) {
        matched += (!(av ^ bv)).count_ones();
    }
    matched
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    const NIBBLE_POP: [i8; 16] = [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4];

    /// Muła byte-shuffle popcount of `!(a ^ b)`, 4 words per step.
    ///
    /// # Safety
    /// AVX2 must be available; `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matched_full_avx2(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut i = 0;
        let mut total: u64 = 0;
        // SAFETY: every load covers 4 in-bounds words; the lookup shuffle
        // indexes only the low nibble of each byte.
        unsafe {
            let lookup =
                _mm256_broadcastsi128_si256(_mm_loadu_si128(NIBBLE_POP.as_ptr() as *const __m128i));
            let low_mask = _mm256_set1_epi8(0x0f);
            let ones = _mm256_set1_epi8(-1);
            let mut acc = _mm256_setzero_si256();
            while i + 4 <= n {
                let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
                let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
                let same = _mm256_xor_si256(_mm256_xor_si256(va, vb), ones);
                let lo = _mm256_and_si256(same, low_mask);
                let hi = _mm256_and_si256(_mm256_srli_epi16(same, 4), low_mask);
                let cnt = _mm256_add_epi8(
                    _mm256_shuffle_epi8(lookup, lo),
                    _mm256_shuffle_epi8(lookup, hi),
                );
                acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
                i += 4;
            }
            let mut lanes = [0u64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
            total += lanes.iter().sum::<u64>();
        }
        let mut matched = total as u32;
        for t in i..n {
            matched += (!(a[t] ^ b[t])).count_ones();
        }
        matched
    }

    /// Muła byte-shuffle popcount of `!(a ^ b)`, 8 words per step
    /// (512-bit `vpshufb`/`vpsadbw`, AVX-512BW).
    ///
    /// # Safety
    /// AVX-512F/BW must be available; `a.len() == b.len()`.
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    pub unsafe fn matched_full_avx512(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut i = 0;
        let mut total: u64 = 0;
        // SAFETY: every load covers 8 in-bounds words.
        unsafe {
            let lookup =
                _mm512_broadcast_i32x4(_mm_loadu_si128(NIBBLE_POP.as_ptr() as *const __m128i));
            let low_mask = _mm512_set1_epi8(0x0f);
            let ones = _mm512_set1_epi8(-1);
            let mut acc = _mm512_setzero_si512();
            while i + 8 <= n {
                let va = _mm512_loadu_si512(a.as_ptr().add(i) as *const __m512i);
                let vb = _mm512_loadu_si512(b.as_ptr().add(i) as *const __m512i);
                let same = _mm512_xor_si512(_mm512_xor_si512(va, vb), ones);
                let lo = _mm512_and_si512(same, low_mask);
                let hi = _mm512_and_si512(_mm512_srli_epi16(same, 4), low_mask);
                let cnt = _mm512_add_epi8(
                    _mm512_shuffle_epi8(lookup, lo),
                    _mm512_shuffle_epi8(lookup, hi),
                );
                acc = _mm512_add_epi64(acc, _mm512_sad_epu8(cnt, _mm512_setzero_si512()));
                i += 8;
            }
            let mut lanes = [0u64; 8];
            _mm512_storeu_si512(lanes.as_mut_ptr() as *mut __m512i, acc);
            total += lanes.iter().sum::<u64>();
        }
        let mut matched = total as u32;
        for t in i..n {
            matched += (!(a[t] ^ b[t])).count_ones();
        }
        matched
    }

    /// Signed `i8 × i8 → i32` dot product: sign-extend to `i16`, `madd`
    /// pairs into `i32`, accumulate. 32 values per step.
    ///
    /// # Safety
    /// AVX2 must be available; `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut i = 0;
        let mut sum: i32 = 0;
        // SAFETY: every load covers 32 in-bounds bytes.
        unsafe {
            let mut acc = _mm256_setzero_si256();
            while i + 32 <= n {
                let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
                let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
                let a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
                let a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
                let b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
                let b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
                i += 32;
            }
            let mut lanes = [0i32; 8];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
            sum += lanes.iter().sum::<i32>();
        }
        for t in i..n {
            sum += a[t] as i32 * b[t] as i32;
        }
        sum
    }

    /// Signed `i8 × i8 → i32` dot product, 64 values per step (AVX-512BW
    /// `vpmaddwd`).
    ///
    /// # Safety
    /// AVX-512F/BW must be available; `a.len() == b.len()`.
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    pub unsafe fn dot_i8_avx512(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut i = 0;
        let mut sum: i32 = 0;
        // SAFETY: every load covers 64 in-bounds bytes.
        unsafe {
            let mut acc = _mm512_setzero_si512();
            while i + 64 <= n {
                let va = _mm512_loadu_si512(a.as_ptr().add(i) as *const __m512i);
                let vb = _mm512_loadu_si512(b.as_ptr().add(i) as *const __m512i);
                let a_lo = _mm512_cvtepi8_epi16(_mm512_castsi512_si256(va));
                let a_hi = _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64(va, 1));
                let b_lo = _mm512_cvtepi8_epi16(_mm512_castsi512_si256(vb));
                let b_hi = _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64(vb, 1));
                acc = _mm512_add_epi32(acc, _mm512_madd_epi16(a_lo, b_lo));
                acc = _mm512_add_epi32(acc, _mm512_madd_epi16(a_hi, b_hi));
                i += 64;
            }
            let mut lanes = [0i32; 16];
            _mm512_storeu_si512(lanes.as_mut_ptr() as *mut __m512i, acc);
            sum += lanes.iter().sum::<i32>();
        }
        for t in i..n {
            sum += a[t] as i32 * b[t] as i32;
        }
        sum
    }
}

/// Signed `i8 × i8 → i32` dot product at the resolved kernel level (used
/// by the int8 pipeline; integer arithmetic — every level is exactly
/// equal).
#[inline]
pub(crate) fn dot_i8(a: &[i8], b: &[i8], k: ResolvedKernel) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    match k.level() {
        // Portable body for Scalar and NEON (see the module docs).
        KernelLevel::Scalar | KernelLevel::Neon => {
            let mut s = 0i32;
            for (&av, &bv) in a.iter().zip(b) {
                s += av as i32 * bv as i32;
            }
            s
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: resolved ⇒ the host has AVX2; a weight row and an input
        // column of the same `n` (`debug_assert`ed above).
        KernelLevel::Avx2 => unsafe { x86::dot_i8_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: resolved ⇒ the host has AVX-512 F/BW; lengths as above.
        KernelLevel::Avx512 => unsafe { x86::dot_i8_avx512(a, b) },
        #[allow(unreachable_patterns)]
        other => unreachable!("kernel level {other:?} resolved on a foreign architecture"),
    }
}

/// Full XNOR GEMM: binarises activations (1 bit, dynamic) and multiplies
/// against multi-bit XNOR weights, the popcount reduction running at the
/// resolved kernel level `k` (pinned by the caller's plan).
///
/// # Panics
/// Panics if `x.rows() != w.cols()`.
pub fn xnor_gemm(w: &XnorWeights, x: &ColMatrix, k: ResolvedKernel) -> Matrix {
    assert_eq!(x.rows(), w.cols(), "inner dimension mismatch");
    let (m, b, n) = (w.rows, x.cols(), w.cols);
    let bin = binarize_columns(x);
    let mut y = Matrix::zeros(m, b);
    let tail = w.planes[0].1.tail_mask();
    for (scales, packed) in &w.planes {
        for (i, &alpha_i) in scales.iter().enumerate() {
            let wrow = packed.row(i);
            let yrow = y.row_mut(i);
            for (col, ya) in bin.iter().zip(yrow.iter_mut()) {
                let d = xnor_dot(wrow, &col.words, n, tail, k);
                *ya += alpha_i * col.gamma * d as f32;
            }
        }
    }
    y
}

/// XNOR GEMM against *pre-binarised* sign activations (no dynamic
/// quantization, exact when inputs are genuinely ±1) — used by tests and the
/// Table IV 1-bit/1-bit configuration.
pub fn xnor_gemm_presigned(w: &XnorWeights, x_signs: &biq_matrix::SignMatrix) -> Matrix {
    assert_eq!(x_signs.rows(), w.cols(), "inner dimension mismatch");
    let (m, b, n) = (w.rows, x_signs.cols(), w.cols);
    let cols: Vec<Vec<u64>> = (0..b)
        .map(|alpha| {
            let signs: Vec<i8> = (0..n).map(|k| x_signs.get(k, alpha)).collect();
            pack_signs_u64(&signs)
        })
        .collect();
    let tail = w.planes[0].1.tail_mask();
    let mut y = Matrix::zeros(m, b);
    let k = ResolvedKernel::scalar();
    for (scales, packed) in &w.planes {
        for (i, &alpha_i) in scales.iter().enumerate() {
            let wrow = packed.row(i);
            let yrow = y.row_mut(i);
            for (col, ya) in cols.iter().zip(yrow.iter_mut()) {
                *ya += alpha_i * xnor_dot(wrow, col, n, tail, k) as f32;
            }
        }
    }
    y
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-style loops read clearer in reference checks
mod tests {
    use super::*;
    use crate::naive::gemm_naive;
    use biq_matrix::MatrixRng;
    use biq_quant::greedy_quantize_matrix_rowwise;

    #[test]
    fn xnor_dot_matches_scalar_dot() {
        let mut g = MatrixRng::seed_from(100);
        for n in [1usize, 63, 64, 65, 200] {
            let a = g.signs(1, n);
            let b = g.signs(1, n);
            let pa = PackedRowsU64::pack(&a);
            let pb = PackedRowsU64::pack(&b);
            let expected: i32 = (0..n).map(|j| (a.get(0, j) as i32) * (b.get(0, j) as i32)).sum();
            for level in biqgemm_core::simd::supported_levels() {
                let k = biqgemm_core::KernelRequest::Exact(level).resolve().unwrap();
                let got = xnor_dot(pa.row(0), pb.row(0), n, pa.tail_mask(), k);
                assert_eq!(got, expected, "n = {n} level = {level}");
            }
        }
    }

    #[test]
    fn presigned_xnor_equals_float_gemm_on_signs() {
        let mut g = MatrixRng::seed_from(101);
        let wsigns = g.signs(13, 70);
        let xsigns = g.signs(70, 5);
        let w = XnorWeights::new(vec![(vec![1.0; 13], PackedRowsU64::pack(&wsigns))]);
        let y = xnor_gemm_presigned(&w, &xsigns);
        let y_ref = gemm_naive(&wsigns.to_f32(), &xsigns.to_f32().to_col_major());
        assert_eq!(y.as_slice(), y_ref.as_slice());
    }

    #[test]
    fn dynamic_binarization_matches_reference_quantized_product() {
        // y_xnor must equal (α ∘ B) · (γ ∘ s) computed densely.
        let mut g = MatrixRng::seed_from(102);
        let wsigns = g.signs(6, 40);
        let scales: Vec<f32> = (0..6).map(|i| 0.5 + i as f32 * 0.1).collect();
        let x = g.gaussian_col(40, 3, 0.0, 1.0);
        let w = XnorWeights::new(vec![(scales.clone(), PackedRowsU64::pack(&wsigns))]);
        let y = xnor_gemm(&w, &x, ResolvedKernel::scalar());
        // Dense reference of the same quantized computation.
        for alpha in 0..3 {
            let col = x.col(alpha);
            let gamma = col.iter().map(|v| v.abs()).sum::<f32>() / 40.0;
            for i in 0..6 {
                let mut d = 0i32;
                for k in 0..40 {
                    let s = if col[k] >= 0.0 { 1 } else { -1 };
                    d += (wsigns.get(i, k) as i32) * s;
                }
                let expected = scales[i] * gamma * d as f32;
                let got = y.get(i, alpha);
                assert!((got - expected).abs() < 1e-4, "({i},{alpha}): {got} vs {expected}");
            }
        }
    }

    #[test]
    fn multibit_weights_accumulate_planes() {
        let mut g = MatrixRng::seed_from(103);
        let wf = g.gaussian(5, 64, 0.0, 1.0);
        let q = greedy_quantize_matrix_rowwise(&wf, 2);
        let w = XnorWeights::from_multibit(&q);
        assert_eq!(w.bits(), 2);
        let xsigns = g.signs(64, 2);
        let y = xnor_gemm_presigned(&w, &xsigns);
        let y_ref = gemm_naive(&q.dequantize(), &xsigns.to_f32().to_col_major());
        biq_matrix::assert_allclose(&y, &y_ref, 1e-4, 1e-4);
    }
}
