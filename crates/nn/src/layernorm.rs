//! Layer normalisation over the feature axis (per batch column).
//!
//! Kept in fp32 deliberately: the paper (Section II-A) points out that
//! Transformer layer-norm "demands floating-point computations" and that
//! INT8 pipelines pay 15–30% overhead converting around it — one of the
//! motivations for weight-only binary-coding quantization.

use biq_matrix::store::PodStore;
use biq_matrix::ColMatrix;

/// Learnable layer normalisation `y = γ ∘ (x − mean)/√(var + ε) + β`.
///
/// Parameters live in shared-capable storage ([`PodStore`]): a layer norm
/// restored from a model artifact borrows the artifact buffer; mutation
/// copies-on-write.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    gamma: PodStore<f32>,
    beta: PodStore<f32>,
    eps: f32,
}

impl LayerNorm {
    /// Identity-initialised (`γ = 1`, `β = 0`) norm over `dim` features.
    pub fn new(dim: usize) -> Self {
        Self { gamma: vec![1.0; dim].into(), beta: vec![0.0; dim].into(), eps: 1e-5 }
    }

    /// With explicit parameters.
    ///
    /// # Panics
    /// Panics if `gamma` and `beta` lengths differ.
    pub fn with_params(gamma: Vec<f32>, beta: Vec<f32>, eps: f32) -> Self {
        Self::with_param_stores(gamma.into(), beta.into(), eps)
    }

    /// [`LayerNorm::with_params`] over shared-capable storage (artifact
    /// restore path).
    ///
    /// # Panics
    /// Panics if `gamma` and `beta` lengths differ.
    pub fn with_param_stores(gamma: PodStore<f32>, beta: PodStore<f32>, eps: f32) -> Self {
        assert_eq!(gamma.len(), beta.len(), "gamma/beta length mismatch");
        Self { gamma, beta, eps }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// The scale parameters γ.
    pub fn gamma(&self) -> &[f32] {
        &self.gamma
    }

    /// The shift parameters β.
    pub fn beta(&self) -> &[f32] {
        &self.beta
    }

    /// The numerical-stability epsilon.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Mutable access to γ (for tests/toy training).
    pub fn gamma_mut(&mut self) -> &mut [f32] {
        self.gamma.as_mut_slice()
    }

    /// Mutable access to β.
    pub fn beta_mut(&mut self) -> &mut [f32] {
        self.beta.as_mut_slice()
    }

    /// Normalises every column of `x` in place.
    ///
    /// # Panics
    /// Panics if `x.rows() != self.dim()`.
    pub fn forward_inplace(&self, x: &mut ColMatrix) {
        assert_eq!(x.rows(), self.dim(), "feature dimension mismatch");
        self.normalize_columns(x.as_mut_slice());
    }

    /// Normalises each `dim()`-float column of a column-major block: the
    /// per-column body a layer runs over any split of its columns (inlined
    /// into the kernel-level body that calls it).
    #[inline]
    pub(crate) fn normalize_columns(&self, block: &mut [f32]) {
        let d = self.dim() as f32;
        // `max(1)`: a zero-width norm owns no floats, so there is no column.
        for col in block.chunks_exact_mut(self.dim().max(1)) {
            let mean = col.iter().sum::<f32>() / d;
            let var = col.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d;
            let inv = 1.0 / (var + self.eps).sqrt();
            for (v, (&g, &bt)) in col.iter_mut().zip(self.gamma.iter().zip(self.beta.iter())) {
                *v = g * (*v - mean) * inv + bt;
            }
        }
    }

    /// Out-of-place convenience.
    pub fn forward(&self, x: &ColMatrix) -> ColMatrix {
        let mut out = x.clone();
        self.forward_inplace(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_matrix::MatrixRng;

    #[test]
    fn output_has_zero_mean_unit_var_per_column() {
        let mut g = MatrixRng::seed_from(300);
        let x = g.gaussian_col(64, 5, 3.0, 2.0);
        let ln = LayerNorm::new(64);
        let y = ln.forward(&x);
        for j in 0..5 {
            let col = y.col(j);
            let mean: f32 = col.iter().sum::<f32>() / 64.0;
            let var: f32 = col.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn gamma_beta_scale_and_shift() {
        let x = ColMatrix::from_fn(4, 1, |i, _| i as f32);
        let ln = LayerNorm::with_params(vec![2.0; 4], vec![1.0; 4], 1e-5);
        let base = LayerNorm::new(4).forward(&x);
        let y = ln.forward(&x);
        for i in 0..4 {
            assert!((y.get(i, 0) - (2.0 * base.get(i, 0) + 1.0)).abs() < 1e-6);
        }
    }

    #[test]
    fn constant_column_is_stable() {
        let x = ColMatrix::from_fn(8, 1, |_, _| 5.0);
        let y = LayerNorm::new(8).forward(&x);
        assert!(y.as_slice().iter().all(|v| v.is_finite() && v.abs() < 1e-2));
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_dim_rejected() {
        let mut x = ColMatrix::zeros(4, 1);
        LayerNorm::new(8).forward_inplace(&mut x);
    }
}
