//! Multi-head self-attention (Vaswani et al.) with backend-pluggable
//! projections.
//!
//! An encoder attention block is "four `(n × n)` weight matrices"
//! (paper Section II-C): `W_q, W_k, W_v, W_o`. Those four projections are
//! [`Linear`] layers and therefore quantizable; the score computation
//! (`QᵀK`, softmax, `V · A`) stays fp32 — the paper quantizes weights only,
//! and score matmuls have no fixed weight operand.
//!
//! Activations are column-major `d_model × seq`; each column is one token,
//! so sequence length is the GEMM batch for every projection. Under a
//! parallel plan the score / softmax / context loop runs split by query
//! column on the plan's workers (`Linear::for_each_col_block`), each column
//! computed exactly as on one thread.

use crate::activations::softmax_inplace;
use crate::linear::Linear;
use biq_matrix::ColMatrix;

/// Multi-head attention over equal-length query/key/value sequences.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
    d_head: usize,
}

impl MultiHeadAttention {
    /// Assembles an attention block from its four projections.
    ///
    /// # Panics
    /// Panics unless all four are `d_model × d_model` and
    /// `heads | d_model`.
    pub fn new(wq: Linear, wk: Linear, wv: Linear, wo: Linear, heads: usize) -> Self {
        let d_model = wq.out_features();
        for (name, l) in [("wq", &wq), ("wk", &wk), ("wv", &wv), ("wo", &wo)] {
            assert_eq!(l.out_features(), d_model, "{name} must be square d_model");
            assert_eq!(l.in_features(), d_model, "{name} must be square d_model");
        }
        assert!(heads > 0 && d_model.is_multiple_of(heads), "heads must divide d_model");
        Self { wq, wk, wv, wo, heads, d_model, d_head: d_model / heads }
    }

    /// Model width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// The query projection.
    pub fn wq(&self) -> &Linear {
        &self.wq
    }

    /// The key projection.
    pub fn wk(&self) -> &Linear {
        &self.wk
    }

    /// The value projection.
    pub fn wv(&self) -> &Linear {
        &self.wv
    }

    /// The output projection.
    pub fn wo(&self) -> &Linear {
        &self.wo
    }

    /// Self-attention: `attend(x, x)`.
    pub fn forward(&self, x: &ColMatrix) -> ColMatrix {
        self.attend(x, x)
    }

    /// Cross-attention: queries from `xq`, keys/values from `xkv`
    /// (decoder↔encoder). Sequences are the matrices' column counts.
    ///
    /// # Panics
    /// Panics if feature dimensions differ from `d_model`.
    pub fn attend(&self, xq: &ColMatrix, xkv: &ColMatrix) -> ColMatrix {
        assert_eq!(xq.rows(), self.d_model, "query feature mismatch");
        assert_eq!(xkv.rows(), self.d_model, "key/value feature mismatch");
        let (sq, skv) = (xq.cols(), xkv.cols());
        let q = self.wq.forward(xq); // d_model × sq
        let k = self.wk.forward(xkv); // d_model × skv
        let v = self.wv.forward(xkv); // d_model × skv
        let (d, dh) = (self.d_model, self.d_head);
        let scale = 1.0 / (dh as f32).sqrt();
        let mut ctx = ColMatrix::zeros(d, sq);
        // One region over query columns: each column's scores, softmax and
        // context depend on that column of `q` (and all of `k`, `v`) only.
        self.wo.for_each_col_block(ctx.as_mut_slice(), d, |t0, block| {
            let mut scores = vec![0.0f32; skv];
            // Head-major, as the serial loop always ran: one head's `k` and
            // `v` rows stay cache-hot across the block's columns.
            for r0 in (0..d).step_by(dh) {
                for (ti, ccol) in (t0..).zip(block.chunks_exact_mut(d)) {
                    let qcol = &q.col(ti)[r0..r0 + dh];
                    for (tj, s) in scores.iter_mut().enumerate() {
                        let kcol = &k.col(tj)[r0..r0 + dh];
                        let mut dot = 0.0f32;
                        for (a, b) in qcol.iter().zip(kcol) {
                            dot += a * b;
                        }
                        *s = dot * scale;
                    }
                    softmax_inplace(&mut scores);
                    let chead = &mut ccol[r0..r0 + dh];
                    for (tj, &w) in scores.iter().enumerate() {
                        let vcol = &v.col(tj)[r0..r0 + dh];
                        for (c, &vv) in chead.iter_mut().zip(vcol) {
                            *c += w * vv;
                        }
                    }
                }
            }
        });
        self.wo.forward(&ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_matrix::{Matrix, MatrixRng};
    use biq_quant::error_metrics::relative_l2;
    use biqgemm_core::BiqConfig;

    fn fp_attention(g: &mut MatrixRng, d: usize, heads: usize) -> MultiHeadAttention {
        let mk =
            |g: &mut MatrixRng| Linear::fp32(g.gaussian(d, d, 0.0, (d as f32).powf(-0.5)), None);
        MultiHeadAttention::new(mk(g), mk(g), mk(g), mk(g), heads)
    }

    #[test]
    fn output_shape_matches_input() {
        let mut g = MatrixRng::seed_from(320);
        let attn = fp_attention(&mut g, 32, 4);
        let x = g.gaussian_col(32, 7, 0.0, 1.0);
        let y = attn.forward(&x);
        assert_eq!(y.shape(), (32, 7));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn single_token_attention_is_value_projection_chain() {
        // With one token, softmax over one score is 1, so
        // out = Wo · Wv · x regardless of Wq/Wk.
        let mut g = MatrixRng::seed_from(321);
        let d = 16;
        let wv = g.gaussian(d, d, 0.0, 0.3);
        let wo = g.gaussian(d, d, 0.0, 0.3);
        let attn = MultiHeadAttention::new(
            Linear::fp32(g.gaussian(d, d, 0.0, 0.3), None),
            Linear::fp32(g.gaussian(d, d, 0.0, 0.3), None),
            Linear::fp32(wv.clone(), None),
            Linear::fp32(wo.clone(), None),
            4,
        );
        let x = g.gaussian_col(d, 1, 0.0, 1.0);
        let y = attn.forward(&x);
        let expected = Linear::fp32(wo, None).forward(&Linear::fp32(wv, None).forward(&x));
        for i in 0..d {
            assert!((y.get(i, 0) - expected.get(i, 0)).abs() < 1e-4);
        }
    }

    #[test]
    fn permutation_equivariance_of_self_attention() {
        // Self-attention commutes with permuting token order.
        let mut g = MatrixRng::seed_from(322);
        let attn = fp_attention(&mut g, 24, 3);
        let x = g.gaussian_col(24, 5, 0.0, 1.0);
        let perm = [3usize, 1, 4, 0, 2];
        let xp = ColMatrix::from_fn(24, 5, |i, j| x.get(i, perm[j]));
        let y = attn.forward(&x);
        let yp = attn.forward(&xp);
        for (j, &pj) in perm.iter().enumerate() {
            for i in 0..24 {
                assert!((yp.get(i, j) - y.get(i, pj)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn quantized_projections_track_fp32() {
        let mut g = MatrixRng::seed_from(323);
        let d = 64;
        let mats: Vec<Matrix> = (0..4).map(|_| g.gaussian(d, d, 0.0, 0.1)).collect();
        let fp = MultiHeadAttention::new(
            Linear::fp32(mats[0].clone(), None),
            Linear::fp32(mats[1].clone(), None),
            Linear::fp32(mats[2].clone(), None),
            Linear::fp32(mats[3].clone(), None),
            8,
        );
        let cfg = BiqConfig::default();
        let q = MultiHeadAttention::new(
            Linear::quantized(&mats[0], 3, crate::linear::QuantMethod::Greedy, cfg, None),
            Linear::quantized(&mats[1], 3, crate::linear::QuantMethod::Greedy, cfg, None),
            Linear::quantized(&mats[2], 3, crate::linear::QuantMethod::Greedy, cfg, None),
            Linear::quantized(&mats[3], 3, crate::linear::QuantMethod::Greedy, cfg, None),
            8,
        );
        let x = g.gaussian_col(d, 6, 0.0, 1.0);
        // Four quantized projections compound (softmax renormalises some of
        // it away); ≈0.4 relative error is the empirical 3-bit level here —
        // the assertion guards against regressions to 1-bit-like collapse.
        let err = relative_l2(q.forward(&x).as_slice(), fp.forward(&x).as_slice());
        assert!(err < 0.6, "3-bit attention relative error {err}");
    }

    #[test]
    fn cross_attention_supports_different_lengths() {
        let mut g = MatrixRng::seed_from(324);
        let attn = fp_attention(&mut g, 16, 2);
        let xq = g.gaussian_col(16, 3, 0.0, 1.0);
        let xkv = g.gaussian_col(16, 9, 0.0, 1.0);
        let y = attn.attend(&xq, &xkv);
        assert_eq!(y.shape(), (16, 3));
    }

    #[test]
    #[should_panic(expected = "heads must divide")]
    fn bad_head_count_rejected() {
        let mut g = MatrixRng::seed_from(325);
        let _ = fp_attention(&mut g, 30, 4);
    }
}
