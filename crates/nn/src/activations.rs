//! Element-wise activations and column softmax.
//!
//! The paper keeps activations in floating point throughout (weight-only
//! quantization), so these run on plain `f32` — and layer-norm/softmax are
//! precisely the operations it cites as demanding float math in INT8
//! pipelines.

use biq_matrix::ColMatrix;

/// ReLU.
#[inline]
pub fn relu(v: f32) -> f32 {
    v.max(0.0)
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(v: f32) -> f32 {
    if v >= 0.0 {
        1.0 / (1.0 + (-v).exp())
    } else {
        let e = v.exp();
        e / (1.0 + e)
    }
}

/// Hyperbolic tangent.
#[inline]
pub fn tanh(v: f32) -> f32 {
    v.tanh()
}

/// GELU, tanh approximation (the Transformer/BERT feed-forward activation):
/// `0.5·v·(1 + tanh(√(2/π)·(v + 0.044715·v³)))`.
///
/// The `tanh` is evaluated as `1 − 2/(e^{2u} + 1)` over a range-reduced
/// polynomial `exp`, not libm's `tanhf`: every step is a plain `f32` add,
/// multiply, divide or integer bit operation — no libm call, no `floor`,
/// no `mul_add` — so the body is branch-free, LLVM vectorises
/// [`map_inplace`] over it at the baseline target, and every host,
/// target-cpu and kernel level computes the same bits by construction
/// (IEEE-754 basic operations are exactly specified; libm is not).
/// Absolute error against the exact formula is below `1e-6` on `[−12, 12]`
/// (`gelu_dense_sweep_against_f64`), the limits are those of the libm form
/// (`gelu(+∞) = +∞`, `gelu(−100) = −0.0`), and NaN maps to NaN.
#[inline]
pub fn gelu(v: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    let u = C * (v + 0.044715 * v * v * v);
    let tanh_u = 1.0 - 2.0 / (exp_poly(2.0 * u) + 1.0);
    0.5 * v * (1.0 + tanh_u)
}

/// `e^z` for `z` clamped to `[−87, 88]` (the range whose results are normal
/// `f32`s; `tanh` saturates long before either end), to ≈ 2 ulp.
///
/// Cody–Waite range reduction `z = n·ln2 + r`, `|r| ≤ ln2/2`, with `n`
/// rounded by the add-a-magic-number trick (adding `1.5·2^23` leaves the
/// integer in the low mantissa bits — no `floor`, no float→int convert),
/// the Cephes degree-5 polynomial for `e^r`, and `2^n` built directly in
/// the exponent field. Multiplies and adds round separately throughout.
#[inline]
fn exp_poly(z: f32) -> f32 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    const MAGIC: f32 = 12_582_912.0; // 1.5 · 2^23
    const LN2_HI: f32 = 0.693_359_4; // 355/512: n·LN2_HI is exact for |n| ≤ 128
    const LN2_LO: f32 = -2.121_944_4e-4; // ln 2 − LN2_HI
    let z = z.clamp(-87.0, 88.0);
    let shifted = z * LOG2_E + MAGIC;
    let n = shifted - MAGIC;
    let r = (z - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 5.0e-1;
    let e_r = p * (r * r) + r + 1.0;
    // `shifted` holds `2^23 + 2^22 + n` exactly, so its low mantissa bits
    // are `n` in two's complement; `n + 127 ∈ [1, 254]` after the clamp,
    // and the shift drops everything above those nine bits.
    let two_n = f32::from_bits(shifted.to_bits().wrapping_add(127) << 23);
    e_r * two_n
}

/// Applies `f` to every element in place.
#[inline]
pub fn map_inplace(x: &mut [f32], f: impl Fn(f32) -> f32) {
    for v in x {
        *v = f(*v);
    }
}

/// Numerically-stable softmax over a slice, in place.
pub fn softmax_inplace(v: &mut [f32]) {
    if v.is_empty() {
        return;
    }
    let max = v.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let mut sum = 0.0f32;
    for x in v.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    for x in v.iter_mut() {
        *x *= inv;
    }
}

/// Softmax over each *column* of a column-major matrix (per-token
/// distribution over the feature axis).
pub fn softmax_columns(x: &mut ColMatrix) {
    for j in 0..x.cols() {
        softmax_inplace(x.col_mut(j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        for v in [-30.0f32, -2.0, 0.3, 10.0, 50.0] {
            let s = sigmoid(v);
            assert!((0.0..=1.0).contains(&s));
            assert!((sigmoid(-v) - (1.0 - s)).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!(sigmoid(-1e4).is_finite());
        assert!(sigmoid(1e4).is_finite());
        assert!(sigmoid(-1e4) < 1e-30);
        assert!((sigmoid(1e4) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!(gelu(-5.0).abs() < 1e-3);
        assert!((gelu(5.0) - 5.0).abs() < 1e-3);
    }

    /// The reference the sweep compares against: the same tanh-approximation
    /// formula in `f64` with exact constants.
    fn gelu_f64(x: f64) -> f64 {
        let c = (2.0 / std::f64::consts::PI).sqrt();
        0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
    }

    #[test]
    fn gelu_golden_bits() {
        // The body is IEEE-754 basic operations only, so these bits are the
        // same on every host, target-cpu and opt level; a changed bit means
        // the arithmetic changed (or something introduced an FMA).
        for (v, want) in [
            (0.0f32, 0x0000_0000u32),
            (1e-3, 0x3a03_2d34),
            (-1e-3, 0xba02_f7a9),
            (0.5, 0x3eb1_016e),
            (-0.5, 0xbe1d_fd26),
            (1.0, 0x3f57_585c),
            (-1.0, 0xbe22_9e90),
            (3.0, 0x403f_c468),
            (-3.0, 0xbb6e_5f00),
            (10.0, 0x4120_0000),
            (-10.0, 0x8000_0000),
            (100.0, 0x42c8_0000),
            (-100.0, 0x8000_0000),
            (f32::INFINITY, 0x7f80_0000),
        ] {
            let got = gelu(v).to_bits();
            assert_eq!(got, want, "gelu({v}) = {got:#010x}, pinned {want:#010x}");
        }
    }

    #[test]
    fn gelu_dense_sweep_against_f64() {
        let n = 480_000;
        let mut max_err = 0.0f64;
        for i in 0..=n {
            let v = -12.0 + 24.0 * (i as f32) / (n as f32);
            max_err = max_err.max((f64::from(gelu(v)) - gelu_f64(f64::from(v))).abs());
        }
        assert!(max_err <= 1e-6, "max abs error {max_err:e} over [-12, 12]");
    }

    #[test]
    fn gelu_propagates_nan() {
        assert!(gelu(f32::NAN).is_nan());
    }

    #[test]
    fn map_inplace_gelu_matches_elementwise_bits() {
        // The vectorised loop and the scalar call are the same arithmetic.
        let mut x = ColMatrix::from_fn(37, 3, |i, j| (i as f32 - 18.0) * 0.37 + j as f32 * 0.11);
        let want: Vec<u32> = x.as_slice().iter().map(|&v| gelu(v).to_bits()).collect();
        map_inplace(x.as_mut_slice(), gelu);
        let got: Vec<u32> = x.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let mut a = vec![1.0f32, 2.0, 3.0];
        let mut b = vec![101.0f32, 102.0, 103.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        assert!((a.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(a[2] > a[1] && a[1] > a[0]);
    }

    #[test]
    fn softmax_handles_large_inputs() {
        let mut v = vec![1000.0f32, 1000.0];
        softmax_inplace(&mut v);
        assert!((v[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut v: Vec<f32> = vec![];
        softmax_inplace(&mut v);
    }

    #[test]
    fn softmax_columns_normalises_each_column() {
        let mut x = ColMatrix::from_fn(3, 2, |i, j| (i + j) as f32);
        softmax_columns(&mut x);
        for j in 0..2 {
            let s: f32 = x.col(j).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn map_inplace_applies_everywhere() {
        let mut x = ColMatrix::from_fn(2, 2, |i, j| (i as f32) - (j as f32));
        map_inplace(x.as_mut_slice(), relu);
        assert!(x.as_slice().iter().all(|&v| v >= 0.0));
    }
}
