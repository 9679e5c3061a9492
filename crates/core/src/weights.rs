//! BiQGEMM's weight-side operand: the key matrix plus per-row scales.
//!
//! Multi-bit binary-coding weights `W ≈ Σ_p α_p ∘ B_p` are handled exactly as
//! the paper describes (Fig. 2 + Section III-B): the sign planes are
//! **vertically concatenated** into one `(β·m) × n` matrix before key
//! packing. The number of lookup tables is unaffected — only query work grows
//! with β — and key row `r` contributes to output row `r mod m` with scale
//! `stacked_scales[r]`.

use biq_matrix::store::PodStore;
use biq_matrix::SignMatrix;
use biq_quant::packing::KeyMatrix;
use biq_quant::MultiBitMatrix;

/// Packed, scaled, multi-bit quantized weights ready for BiQGEMM.
///
/// Both components live in shared-capable storage: weights deserialized
/// from a model artifact borrow the artifact buffer (keys via
/// [`KeyMatrix::try_new`] over a view, scales via
/// [`BiqWeights::from_parts_store`]) instead of re-allocating. The keys are
/// stored once, `⌈µ/8⌉` bytes each; the query loops read them through
/// [`KeyMatrix::tile`] windows of that one buffer.
#[derive(Clone, Debug)]
pub struct BiqWeights {
    keys: KeyMatrix,
    /// Per-key-row scales, plane-major (`β · m` entries).
    scales: PodStore<f32>,
    /// Output size `m` of the logical weight matrix.
    m: usize,
    /// Input size `n`.
    n: usize,
    /// Quantization bits `β`.
    bits: usize,
}

impl BiqWeights {
    /// Packs a multi-bit quantized matrix with LUT-unit `mu`.
    pub fn from_multibit(q: &MultiBitMatrix, mu: usize) -> Self {
        let (m, n) = q.shape();
        let stacked = q.stacked_signs();
        let keys = KeyMatrix::pack(&stacked, mu);
        Self { keys, scales: q.stacked_scales().into(), m, n, bits: q.bits() }
    }

    /// Packs a single sign plane with per-row scales (1-bit weights).
    ///
    /// # Panics
    /// Panics if `scales.len() != signs.rows()`.
    pub fn from_signs(signs: &SignMatrix, scales: &[f32], mu: usize) -> Self {
        assert_eq!(scales.len(), signs.rows(), "scale length mismatch");
        let (m, n) = signs.shape();
        Self { keys: KeyMatrix::pack(signs, mu), scales: scales.to_vec().into(), m, n, bits: 1 }
    }

    /// Packs raw signs with unit scales — the pure binary `Y = B·X` setting
    /// used throughout the paper's runtime experiments.
    pub fn from_signs_unscaled(signs: &SignMatrix, mu: usize) -> Self {
        Self::from_signs(signs, &vec![1.0; signs.rows()], mu)
    }

    /// Reassembles weights from loaded parts over shared-capable scale
    /// storage — the zero-copy artifact loading path (pass a `PodView`
    /// converted into a [`PodStore`]).
    ///
    /// # Panics
    /// Panics when the parts are inconsistent (key rows ≠ `bits·m`, scale
    /// count ≠ key rows, or key width ≠ `n`).
    pub fn from_parts_store(
        keys: KeyMatrix,
        scales: PodStore<f32>,
        m: usize,
        n: usize,
        bits: usize,
    ) -> Self {
        assert_eq!(keys.rows(), bits * m, "key rows must equal bits·m");
        assert_eq!(keys.cols(), n, "key width must equal n");
        assert_eq!(scales.len(), bits * m, "scale count must equal bits·m");
        Self { keys, scales, m, n, bits }
    }

    /// Output size `m`.
    #[inline]
    pub fn output_size(&self) -> usize {
        self.m
    }

    /// Input size `n`.
    #[inline]
    pub fn input_size(&self) -> usize {
        self.n
    }

    /// Quantization bits `β`.
    #[inline]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// LUT-unit µ the keys were packed with.
    #[inline]
    pub fn mu(&self) -> usize {
        self.keys.mu()
    }

    /// Number of key-matrix rows (`β · m`).
    #[inline]
    pub fn key_rows(&self) -> usize {
        self.keys.rows()
    }

    /// Number of key-matrix columns (chunks, `⌈n/µ⌉`).
    #[inline]
    pub fn chunks(&self) -> usize {
        self.keys.chunks()
    }

    /// The key matrix.
    #[inline]
    pub fn keys(&self) -> &KeyMatrix {
        &self.keys
    }

    /// Scale of key row `r`.
    #[inline]
    pub fn scale(&self, key_row: usize) -> f32 {
        self.scales[key_row]
    }

    /// All stacked scales.
    #[inline]
    pub fn scales(&self) -> &[f32] {
        self.scales.as_slice()
    }

    /// Output row that key row `r` accumulates into (`r mod m`).
    #[inline]
    pub fn output_row(&self, key_row: usize) -> usize {
        key_row % self.m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_matrix::{Matrix, MatrixRng};
    use biq_quant::greedy_quantize_matrix_rowwise;

    #[test]
    fn from_signs_shapes() {
        let mut g = MatrixRng::seed_from(210);
        let s = g.signs(10, 24);
        let w = BiqWeights::from_signs_unscaled(&s, 8);
        assert_eq!(w.output_size(), 10);
        assert_eq!(w.input_size(), 24);
        assert_eq!(w.bits(), 1);
        assert_eq!(w.key_rows(), 10);
        assert_eq!(w.chunks(), 3);
        assert!(w.scales().iter().all(|&s| s == 1.0));
    }

    #[test]
    fn multibit_stacks_planes() {
        let mut g = MatrixRng::seed_from(211);
        let wf = g.gaussian(6, 16, 0.0, 1.0);
        let q = greedy_quantize_matrix_rowwise(&wf, 3);
        let w = BiqWeights::from_multibit(&q, 4);
        assert_eq!(w.bits(), 3);
        assert_eq!(w.key_rows(), 18);
        assert_eq!(w.output_row(0), 0);
        assert_eq!(w.output_row(6), 0); // plane 1, row 0
        assert_eq!(w.output_row(17), 5); // plane 2, row 5
        assert_eq!(w.scale(7), q.planes()[1].scales[1]);
    }

    #[test]
    fn keys_match_plane_signs() {
        let wf = Matrix::from_vec(1, 4, vec![0.9, -0.1, 0.2, -0.8]);
        let q = greedy_quantize_matrix_rowwise(&wf, 1);
        let w = BiqWeights::from_multibit(&q, 4);
        // signs = (+ − + −) -> 1010₂ = 10
        assert_eq!(w.keys().key(0, 0), 0b1010);
    }

    #[test]
    #[should_panic(expected = "scale length mismatch")]
    fn mismatched_scales_rejected() {
        let s = SignMatrix::ones(3, 4);
        let _ = BiqWeights::from_signs(&s, &[1.0; 2], 4);
    }
}
