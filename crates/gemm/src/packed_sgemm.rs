//! The paper's `sGEMM` scenario: 1-bit quantized weights stored **one value
//! per 32-bit container** — i.e. a plain `f32` matrix of `±α` values.
//!
//! Because nothing is bit-packed, quantization brings **no** speed or
//! footprint benefit: the multiply runs at exactly fp32-GEMM speed. The paper
//! uses this as the honest "quantized weights on an unmodified GEMM" baseline
//! in Fig. 9/10 and Table IV (both `cublas` and `kGpu` are run this way).

use crate::naive::gemm_naive;
use biq_matrix::{ColMatrix, Matrix, SignMatrix};

/// A 1-bit quantized weight matrix stored densely (`scale · sign` per
/// element) — the `sGEMM` operand.
#[derive(Clone, Debug)]
pub struct DenseBinaryWeights {
    dense: Matrix,
}

impl DenseBinaryWeights {
    /// Expands `(per-row scales, signs)` into the dense form.
    ///
    /// # Panics
    /// Panics if `scales.len() != signs.rows()`.
    pub fn new(scales: &[f32], signs: &SignMatrix) -> Self {
        assert_eq!(scales.len(), signs.rows(), "scale length mismatch");
        let dense =
            Matrix::from_fn(signs.rows(), signs.cols(), |i, j| scales[i] * signs.get(i, j) as f32);
        Self { dense }
    }

    /// Expands signs with unit scales (raw `±1` matrix).
    pub fn unscaled(signs: &SignMatrix) -> Self {
        Self { dense: signs.to_f32() }
    }

    /// The dense matrix.
    pub fn dense(&self) -> &Matrix {
        &self.dense
    }

    /// `sGEMM` with the naive kernel.
    pub fn sgemm_naive(&self, x: &ColMatrix) -> Matrix {
        gemm_naive(&self.dense, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::gemm_blocked;
    use biq_matrix::MatrixRng;

    #[test]
    fn scaled_expansion_matches_manual() {
        let signs = SignMatrix::from_vec(2, 2, vec![1, -1, -1, 1]);
        let w = DenseBinaryWeights::new(&[2.0, 0.5], &signs);
        assert_eq!(w.dense().as_slice(), &[2.0, -2.0, -0.5, 0.5]);
    }

    #[test]
    fn sgemm_equals_reference_signmatrix_product() {
        let mut g = MatrixRng::seed_from(80);
        let signs = g.signs(9, 16);
        let x = g.small_int_col(16, 4, 3);
        let w = DenseBinaryWeights::unscaled(&signs);
        let y = w.sgemm_naive(&x);
        let y_ref = signs.matmul(&x);
        assert_eq!(y.as_slice(), y_ref.as_slice());
    }

    #[test]
    fn naive_and_blocked_agree_bit_exactly_on_ints() {
        let mut g = MatrixRng::seed_from(81);
        let signs = g.signs(30, 64);
        let scales = vec![1.0f32; 30];
        let x = g.small_int_col(64, 6, 2);
        let w = DenseBinaryWeights::new(&scales, &signs);
        assert_eq!(w.sgemm_naive(&x).as_slice(), gemm_blocked(w.dense(), &x).as_slice());
    }
}
