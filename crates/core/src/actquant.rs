//! Eq. 3 of the paper: BiQGEMM with *quantized activations*.
//!
//! When the input is also binary-coded — `x ≈ Σ_{j=1..β_a} γ_j s_j` with
//! `s_j ∈ {−1,+1}^n` — the product becomes
//!
//! ```text
//! y = Σ_i α_i ∘ (B_i · Σ_j γ_j s_j) = Σ_j γ_j · [Σ_i α_i ∘ (B_i · s_j)]
//! ```
//!
//! i.e. one BiQGEMM per activation plane, scaled by `γ_j` and summed. The
//! paper notes (Section II-B) that this *increases* computation relative to
//! fp32 activations — table counts are unchanged but both build and query
//! multiply by `β_a` — which is why BiQGEMM keeps activations in floating
//! point by default. This module implements the path anyway: it quantifies
//! that trade-off and completes Eq. 3.
//!
//! Activation quantization here is greedy per column (dynamic, at inference
//! time), exactly like the weight quantizer but transposed.

use crate::arena::BiqArena;
use crate::config::BiqConfig;
use crate::profile::PhaseProfile;
use crate::tiled::biqgemm_into;
use crate::weights::BiqWeights;
use biq_matrix::{ColMatrix, Matrix};
use biq_quant::greedy_quantize_vector;

/// A column-wise binary-coding quantization of an activation matrix:
/// `X ≈ Σ_j diag-free γ_j(col) · S_j` where plane `j` stores per-column
/// scales `γ_j ∈ R^b` and a sign matrix `S_j ∈ {−1,+1}^{n×b}`.
#[derive(Clone, Debug)]
pub struct QuantizedActivations {
    /// Per-plane `(per-column scales, signs-as-f32 column-major matrix)`.
    planes: Vec<(Vec<f32>, ColMatrix)>,
    rows: usize,
    cols: usize,
}

impl QuantizedActivations {
    /// Greedily quantizes every column of `x` into `bits` planes.
    ///
    /// # Panics
    /// Panics if `bits == 0` or `x` is empty.
    pub fn quantize(x: &ColMatrix, bits: usize) -> Self {
        assert!(bits >= 1, "need at least one activation bit");
        let (n, b) = x.shape();
        assert!(n > 0 && b > 0, "empty activation matrix");
        let mut planes: Vec<(Vec<f32>, ColMatrix)> =
            (0..bits).map(|_| (vec![0.0; b], ColMatrix::zeros(n, b))).collect();
        for alpha in 0..b {
            let (gammas, signs) = greedy_quantize_vector(x.col(alpha), bits);
            for (j, (g, s)) in gammas.iter().zip(&signs).enumerate() {
                planes[j].0[alpha] = *g;
                let dst = planes[j].1.col_mut(alpha);
                for (d, &sv) in dst.iter_mut().zip(s) {
                    *d = sv as f32;
                }
            }
        }
        Self { planes, rows: n, cols: b }
    }

    /// Number of activation bits `β_a`.
    pub fn bits(&self) -> usize {
        self.planes.len()
    }

    /// `(n, b)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Reconstructs the dequantized activations.
    pub fn dequantize(&self) -> ColMatrix {
        let mut out = ColMatrix::zeros(self.rows, self.cols);
        for (gammas, signs) in &self.planes {
            for (alpha, &g) in gammas.iter().enumerate() {
                let dst = out.col_mut(alpha);
                for (d, &s) in dst.iter_mut().zip(signs.col(alpha)) {
                    *d += g * s;
                }
            }
        }
        out
    }

    /// The planes.
    pub fn planes(&self) -> &[(Vec<f32>, ColMatrix)] {
        &self.planes
    }
}

/// Eq. 3: `y = Σ_j γ_j · BiQGEMM(W, s_j)` — BiQGEMM over quantized weights
/// *and* quantized activations.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn biqgemm_quantized_activations(
    w: &BiqWeights,
    xq: &QuantizedActivations,
    cfg: &BiqConfig,
) -> Matrix {
    assert_eq!(xq.shape().0, w.input_size(), "inner dimension mismatch");
    let (m, b) = (w.output_size(), xq.shape().1);
    let mut y = Matrix::zeros(m, b);
    let mut profile = PhaseProfile::new();
    // One arena and one partial-output buffer shared by all β_a planes, so
    // only the first plane pays any allocation.
    let mut arena = BiqArena::new();
    let mut partial = vec![0.0f32; m * b];
    // Plan-time resolution for this one-shot path (errors surface as the
    // kernel layer's message).
    let kernel = cfg.kernel.resolve().unwrap_or_else(|e| panic!("{e}"));
    for (gammas, signs) in xq.planes() {
        biqgemm_into(w, signs, cfg, kernel, None, &mut profile, &mut arena, &mut partial);
        for i in 0..m {
            let prow = &partial[i * b..(i + 1) * b];
            let yrow = y.row_mut(i);
            for ((yv, &pv), &g) in yrow.iter_mut().zip(prow).zip(gammas.iter()) {
                *yv += g * pv;
            }
        }
    }
    y
}

/// One-call convenience: dynamically quantizes `x` to `bits_a` planes and
/// runs Eq. 3 (the cost of quantization is part of the call, mirroring real
/// dynamic activation quantization).
pub fn biqgemm_dynamic_act_quant(
    w: &BiqWeights,
    x: &ColMatrix,
    bits_a: usize,
    cfg: &BiqConfig,
) -> Matrix {
    biqgemm_quantized_activations(w, &QuantizedActivations::quantize(x, bits_a), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_matrix::{assert_allclose, MatrixRng};
    use biq_quant::error_metrics::relative_l2;
    use biq_quant::greedy_quantize_matrix_rowwise;

    /// Reference one-shot serial run.
    fn biqgemm_tiled(
        w: &BiqWeights,
        x: &ColMatrix,
        cfg: &BiqConfig,
        profile: &mut PhaseProfile,
    ) -> Matrix {
        let mut y = Matrix::zeros(w.output_size(), x.cols());
        let mut arena = BiqArena::new();
        let kernel = cfg.kernel.resolve().unwrap();
        biqgemm_into(w, x, cfg, kernel, None, profile, &mut arena, y.as_mut_slice());
        y
    }

    #[test]
    fn activation_quantization_round_trip_improves_with_bits() {
        let mut g = MatrixRng::seed_from(400);
        let x = g.gaussian_col(64, 6, 0.0, 1.0);
        let mut prev = f64::INFINITY;
        for bits in 1..=5 {
            let q = QuantizedActivations::quantize(&x, bits);
            assert_eq!(q.bits(), bits);
            let err = relative_l2(q.dequantize().as_slice(), x.as_slice());
            assert!(err < prev, "error should fall with bits: {err} vs {prev}");
            prev = err;
        }
        // Greedy multi-bit converges slowly on Gaussians (the residual
        // distribution folds); ~0.18 relative error at 5 bits is nominal.
        assert!(prev < 0.25, "5-bit activation error {prev}");
    }

    #[test]
    fn sign_activations_are_exact_at_one_bit() {
        let mut g = MatrixRng::seed_from(401);
        let signs = g.signs(32, 3).to_f32().to_col_major();
        let q = QuantizedActivations::quantize(&signs, 1);
        assert_allclose(&q.dequantize().to_row_major(), &signs.to_row_major(), 1e-6, 1e-6);
    }

    #[test]
    fn eq3_equals_biqgemm_on_dequantized_activations() {
        // Exactness of the identity: Eq. 3 with the quantized planes must
        // equal plain BiQGEMM run on the *dequantized* activations.
        let mut g = MatrixRng::seed_from(402);
        let wf = g.gaussian(24, 40, 0.0, 1.0);
        let x = g.gaussian_col(40, 4, 0.0, 1.0);
        let q = greedy_quantize_matrix_rowwise(&wf, 2);
        let w = BiqWeights::from_multibit(&q, 8);
        let cfg = BiqConfig::default();
        let xq = QuantizedActivations::quantize(&x, 3);
        let y_eq3 = biqgemm_quantized_activations(&w, &xq, &cfg);
        let mut profile = PhaseProfile::new();
        let y_deq = biqgemm_tiled(&w, &xq.dequantize(), &cfg, &mut profile);
        assert_allclose(&y_eq3, &y_deq, 1e-3, 1e-3);
    }

    #[test]
    fn dynamic_act_quant_approaches_fp_activations() {
        let mut g = MatrixRng::seed_from(403);
        let wf = g.gaussian(32, 64, 0.0, 1.0);
        let x = g.gaussian_col(64, 3, 0.0, 1.0);
        let q = greedy_quantize_matrix_rowwise(&wf, 3);
        let w = BiqWeights::from_multibit(&q, 8);
        let cfg = BiqConfig::default();
        let mut profile = PhaseProfile::new();
        let y_fp_act = biqgemm_tiled(&w, &x, &cfg, &mut profile);
        let mut prev = f64::INFINITY;
        for bits_a in [1usize, 3, 6] {
            let y = biqgemm_dynamic_act_quant(&w, &x, bits_a, &cfg);
            let err = relative_l2(y.as_slice(), y_fp_act.as_slice());
            assert!(err <= prev + 1e-9, "act-bits {bits_a}: {err} vs {prev}");
            prev = err;
        }
        assert!(prev < 0.15, "6-bit activation error {prev}");
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn eq3_shape_mismatch_rejected() {
        let mut g = MatrixRng::seed_from(404);
        let w = BiqWeights::from_signs_unscaled(&g.signs(4, 8), 4);
        let x = g.gaussian_col(6, 2, 0.0, 1.0);
        let xq = QuantizedActivations::quantize(&x, 1);
        let _ = biqgemm_quantized_activations(&w, &xq, &BiqConfig::with_mu(4));
    }
}
