//! INT8 fixed-point GEMM — the commercial quantization scheme the paper
//! contrasts with in Section II-A.
//!
//! Uniform quantization runs the whole multiply in integers: weights are
//! quantized offline (symmetric per-row), activations **dynamically per
//! inference** (symmetric per-column), the kernel accumulates `i8×i8 → i32`,
//! and the result is rescaled back to fp32. The paper's two criticisms are
//! both measurable here:
//!
//! * dynamic activation quantization + format conversions add overhead the
//!   binary-coding path avoids ("15%∼30% computational overhead" around
//!   float-demanding ops); [`Int8Weights::forward`] exposes the conversion and
//!   kernel phases separately so the harness can report the split;
//! * accuracy at ≤4 bits collapses (Table I), while binary-coding degrades
//!   gracefully — see `biq-quant::uniform` and the Table I proxy.

use crate::xnor::dot_i8;
use biq_matrix::store::PodStore;
use biq_matrix::{ColMatrix, Matrix};
use biqgemm_core::ResolvedKernel;

/// Offline-quantized INT8 weights: row-major `i8` with one scale per row.
///
/// Both buffers live in shared-capable storage ([`PodStore`]), so weights
/// deserialized from a model artifact borrow the artifact buffer instead of
/// re-allocating.
#[derive(Clone, Debug)]
pub struct Int8Weights {
    data: PodStore<i8>,
    row_scales: PodStore<f32>,
    rows: usize,
    cols: usize,
}

impl Int8Weights {
    /// Symmetric per-row quantization of dense fp32 weights to 8 bits.
    pub fn quantize(w: &Matrix) -> Self {
        let (rows, cols) = w.shape();
        let mut data = Vec::with_capacity(rows * cols);
        let mut row_scales = Vec::with_capacity(rows);
        for i in 0..rows {
            let row = w.row(i);
            let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            row_scales.push(scale);
            for &v in row {
                data.push((v / scale).round().clamp(-127.0, 127.0) as i8);
            }
        }
        Self { data: data.into(), row_scales: row_scales.into(), rows, cols }
    }

    /// Reassembles weights from deserialized parts (pass shared stores for
    /// zero-copy artifact loading).
    ///
    /// # Panics
    /// Panics when buffer lengths disagree with the shape.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        data: PodStore<i8>,
        row_scales: PodStore<f32>,
    ) -> Self {
        assert_eq!(data.len(), rows * cols, "int8 buffer length mismatch");
        assert_eq!(row_scales.len(), rows, "row scale count mismatch");
        Self { data, row_scales, rows, cols }
    }

    /// Output size `m`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input size `n`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The row-major quantized values.
    pub fn as_slice(&self) -> &[i8] {
        self.data.as_slice()
    }

    /// The per-row dequantization scales.
    pub fn row_scales(&self) -> &[f32] {
        self.row_scales.as_slice()
    }

    /// Dequantizes back to fp32 (for error measurement).
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            self.data[i * self.cols + j] as f32 * self.row_scales[i]
        })
    }

    /// [`Int8Weights::forward_level`] at the scalar kernel level (ablation
    /// binaries and error-measurement paths; planned execution goes
    /// through the runtime, which pins the level).
    ///
    /// # Panics
    /// Panics if `x.rows() != self.cols()`.
    pub fn forward(&self, x: &ColMatrix, phases: &mut Int8Phases) -> Matrix {
        self.forward_level(x, phases, ResolvedKernel::scalar())
    }

    /// `Y ≈ W·X` through the fixed-point pipeline; phase timings are added
    /// to `phases`. The `i8×i8 → i32` reduction runs at the resolved
    /// kernel level `k` (integer arithmetic — every level is exactly
    /// equal).
    ///
    /// # Panics
    /// Panics if `x.rows() != self.cols()`.
    pub fn forward_level(
        &self,
        x: &ColMatrix,
        phases: &mut Int8Phases,
        k: ResolvedKernel,
    ) -> Matrix {
        assert_eq!(x.rows(), self.cols, "inner dimension mismatch");
        let (m, n, b) = (self.rows, self.cols, x.cols());
        // Phase 1 (conversion): dynamic symmetric per-column activation
        // quantization.
        let t0 = std::time::Instant::now();
        let mut xq = vec![0i8; n * b];
        let mut col_scales = vec![0.0f32; b];
        for alpha in 0..b {
            let col = x.col(alpha);
            let max_abs = col.iter().fold(0.0f32, |mm, &v| mm.max(v.abs()));
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            col_scales[alpha] = scale;
            let dst = &mut xq[alpha * n..(alpha + 1) * n];
            for (d, &v) in dst.iter_mut().zip(col) {
                *d = (v / scale).round().clamp(-127.0, 127.0) as i8;
            }
        }
        phases.conversion_s += t0.elapsed().as_secs_f64();
        // Phase 2 (kernel): i8×i8 → i32 accumulation.
        let t1 = std::time::Instant::now();
        let mut acc = vec![0i32; m * b];
        for i in 0..m {
            let wrow = self.row(i);
            for alpha in 0..b {
                let xcol = &xq[alpha * n..(alpha + 1) * n];
                acc[i * b + alpha] = dot_i8(wrow, xcol, k);
            }
        }
        phases.kernel_s += t1.elapsed().as_secs_f64();
        // Phase 1 again (conversion): rescale to fp32.
        let t2 = std::time::Instant::now();
        let mut y = Matrix::zeros(m, b);
        for i in 0..m {
            let ws = self.row_scales[i];
            let yrow = y.row_mut(i);
            for (alpha, yv) in yrow.iter_mut().enumerate() {
                *yv = acc[i * b + alpha] as f32 * ws * col_scales[alpha];
            }
        }
        phases.conversion_s += t2.elapsed().as_secs_f64();
        y
    }

    #[inline]
    fn row(&self, i: usize) -> &[i8] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

/// Phase timings of one INT8 forward pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Int8Phases {
    /// Dynamic activation quantization + output dequantization seconds.
    pub conversion_s: f64,
    /// Integer kernel seconds.
    pub kernel_s: f64,
}

impl Int8Phases {
    /// Conversion share of the total.
    pub fn conversion_fraction(&self) -> f64 {
        let t = self.conversion_s + self.kernel_s;
        if t == 0.0 {
            0.0
        } else {
            self.conversion_s / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::gemm_naive;
    use biq_matrix::MatrixRng;
    use biq_quant::error_metrics::relative_l2;

    #[test]
    fn int8_tracks_fp32_closely() {
        let mut g = MatrixRng::seed_from(900);
        let w = g.gaussian(48, 96, 0.0, 0.1);
        let x = g.gaussian_col(96, 5, 0.0, 1.0);
        let wq = Int8Weights::quantize(&w);
        let mut ph = Int8Phases::default();
        let y = wq.forward(&x, &mut ph);
        let y_ref = gemm_naive(&w, &x);
        let err = relative_l2(y.as_slice(), y_ref.as_slice());
        assert!(err < 0.02, "INT8 relative error {err}");
        assert!(ph.kernel_s > 0.0 && ph.conversion_s > 0.0);
    }

    #[test]
    fn weight_round_trip_error_bounded() {
        let mut g = MatrixRng::seed_from(901);
        let w = g.gaussian(16, 64, 0.0, 1.0);
        let q = Int8Weights::quantize(&w);
        let deq = q.dequantize();
        for i in 0..16 {
            let scale = w.row(i).iter().fold(0.0f32, |m, &v| m.max(v.abs())) / 127.0;
            for (a, b) in w.row(i).iter().zip(deq.row(i)) {
                assert!((a - b).abs() <= scale / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn exact_on_pre_quantized_values() {
        // Weights/activations already on the i8 grid -> exact product.
        let w = Matrix::from_vec(2, 2, vec![127.0, -127.0, 64.0, 1.0]);
        let x = ColMatrix::from_vec(2, 1, vec![127.0, 127.0]);
        let wq = Int8Weights::quantize(&w);
        let mut ph = Int8Phases::default();
        let y = wq.forward(&x, &mut ph);
        let y_ref = gemm_naive(&w, &x);
        for (a, b) in y.as_slice().iter().zip(y_ref.as_slice()) {
            assert!((a - b).abs() <= 1e-2 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn forward_levels_exactly_equal_scalar() {
        let mut g = MatrixRng::seed_from(902);
        for n in [1usize, 31, 32, 33, 64, 65, 130] {
            let w = g.gaussian(9, n, 0.0, 1.0);
            let x = g.gaussian_col(n, 3, 0.0, 1.0);
            let wq = Int8Weights::quantize(&w);
            let mut ph = Int8Phases::default();
            let want = wq.forward(&x, &mut ph);
            for level in biqgemm_core::simd::supported_levels() {
                let k = biqgemm_core::KernelRequest::Exact(level).resolve().unwrap();
                let got = wq.forward_level(&x, &mut ph, k);
                assert_eq!(want.as_slice(), got.as_slice(), "n={n} level={level}");
            }
        }
    }

    #[test]
    fn zero_weights_are_stable() {
        let w = Matrix::zeros(3, 4);
        let x = ColMatrix::from_vec(4, 2, vec![1.0; 8]);
        let mut ph = Int8Phases::default();
        let y = Int8Weights::quantize(&w).forward(&x, &mut ph);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn conversion_fraction_in_unit_range() {
        let ph = Int8Phases { conversion_s: 1.0, kernel_s: 3.0 };
        assert!((ph.conversion_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(Int8Phases::default().conversion_fraction(), 0.0);
    }
}
