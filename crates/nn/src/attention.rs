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
//! so sequence length is the GEMM batch for every projection.
//!
//! Q, K and V come out of **one** grouped executor run when they share
//! their input (self-attention; K and V alone for cross-attention), so a
//! BiQGEMM plan builds each lookup table once for all three. Q and K stay
//! in the executor's row-major layout, one feature per row, with their
//! biases added in place: a feature's row of K is a row of key lanes. Only
//! V is transposed, so each key's value vector is contiguous.
//!
//! The scores run with **keys in lanes** and the context with **head
//! features in lanes** (`Attend`): a register block of 4 queries × 16
//! lanes keeps its sums while the other axis streams past. Each sum starts
//! at `0.0` and adds its products in the plain loop's order — `q·k` in
//! ascending feature order, then times the scale; `p·v` in ascending key
//! order — so it is that loop's chain and gives the same bits. The softmax
//! keeps libm `exp`. The whole block runs at the kernel level the output
//! projection's plan resolved, as column regions on its workers
//! (`Linear::for_each_col_block`), each column computed exactly as on one
//! thread.

use crate::activations::softmax_inplace;
use crate::linear::Linear;
use biq_matrix::ColMatrix;
use biqgemm_core::simd::{run_at, LevelBody};

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
        let (d, dh) = (self.d_model, self.d_head);
        // Row-major `d × s` projections (no bias yet): one grouped run per
        // input.
        let (mut qkv, mut kv_own) = if std::ptr::eq(xq, xkv) {
            (Linear::run_group(&[&self.wq, &self.wk, &self.wv], xq), None)
        } else {
            let kv = Linear::run_group(&[&self.wk, &self.wv], xkv);
            (Linear::run_group(&[&self.wq], xq), Some(kv))
        };
        let (q, kv) = match kv_own.as_mut() {
            Some(kv) => (qkv.as_mut_slice(), kv.as_mut_slice()),
            None => qkv.as_mut_slice().split_at_mut(d * sq),
        };
        let (k, v) = kv.split_at_mut(d * skv);
        self.wq.add_bias_rows(q, sq);
        self.wk.add_bias_rows(k, skv);
        let v = self.wv.to_columns(v, skv);
        let (q, k, v) = (&*q, &*k, v.as_slice());
        let scale = 1.0 / (dh as f32).sqrt();
        let kernel = self.wo.plan().kernel;
        let mut ctx = ColMatrix::zeros(d, sq);
        // One region over query columns: each column's scores, softmax and
        // context depend on that column of `q` (and all of `k`, `v`) only.
        self.wo.for_each_col_block(ctx.as_mut_slice(), d, |t0, ctx| {
            run_at(kernel, Attend { q, k, v, d, sq, skv, dh, scale, t0, ctx });
        });
        self.wo.forward(&ctx)
    }
}

/// Scores, softmax and context of every head for the query columns
/// `t0..t0 + ctx.len() / d` — one column region's share of an attention
/// block, run at a kernel level.
struct Attend<'a> {
    /// Queries, row-major `d × sq`.
    q: &'a [f32],
    /// Keys, row-major `d × skv`: a head's feature `f` is one row of key
    /// lanes.
    k: &'a [f32],
    /// Values, column-major `d × skv`.
    v: &'a [f32],
    d: usize,
    sq: usize,
    skv: usize,
    dh: usize,
    scale: f32,
    t0: usize,
    /// The region's context columns, column-major `d × nq`, zeroed.
    ctx: &'a mut [f32],
}

/// Queries per register block.
const QB: usize = 4;
/// Lanes per register block (keys in the score loop, head features in the
/// context loop): one AVX-512 register, two AVX2 ones.
const KB: usize = 16;

/// `acc[l] += c · row[l]` across one block of lanes.
#[inline(always)]
fn axpy(acc: &mut [f32; KB], c: f32, row: &[f32; KB]) {
    for (a, &r) in acc.iter_mut().zip(row) {
        *a += c * r;
    }
}

/// One register block of `QB` queries × `KB` lanes:
/// `out[i][l] = Σ_t coef(t)[i] · row(t)[l]`, each sum starting at `0.0`
/// and adding its products in ascending `t` — the per-element chain of a
/// plain loop, so the same bits. The four accumulators are named, not an
/// array: LLVM keeps named ones in registers but spilled an array of them
/// to the stack and left the block scalar (≈ 10× slower).
#[inline(always)]
fn sum4<'a>(
    n: usize,
    row: impl Fn(usize) -> &'a [f32; KB],
    coef: impl Fn(usize) -> [f32; QB],
) -> [[f32; KB]; QB] {
    let [mut a0, mut a1, mut a2, mut a3] = [[0.0f32; KB]; QB];
    for t in 0..n {
        let (r, c) = (row(t), coef(t));
        axpy(&mut a0, c[0], r);
        axpy(&mut a1, c[1], r);
        axpy(&mut a2, c[2], r);
        axpy(&mut a3, c[3], r);
    }
    [a0, a1, a2, a3]
}

/// [`sum4`] for one query.
#[inline(always)]
fn sum1<'a>(
    n: usize,
    row: impl Fn(usize) -> &'a [f32; KB],
    coef: impl Fn(usize) -> f32,
) -> [f32; KB] {
    let mut acc = [0.0f32; KB];
    for t in 0..n {
        axpy(&mut acc, coef(t), row(t));
    }
    acc
}

impl<'a> Attend<'a> {
    /// Query `qi` of the region at feature `f`.
    #[inline(always)]
    fn q(&self, f: usize, qi: usize) -> f32 {
        self.q[f * self.sq + self.t0 + qi]
    }

    /// `p[qi·skv + j] = (Σ_f q[f][t0 + qi] · k[f][j]) · scale` over the head
    /// at feature rows `r0..r0 + dh`, for the region's `nq` queries, with
    /// keys in lanes: whole register blocks, then the keys past the last
    /// whole block one chain at a time.
    #[inline(always)]
    fn scores(&self, r0: usize, nq: usize, p: &mut [f32]) {
        let (k, skv, scale) = (self.k, self.skv, self.scale);
        let keys = |j0: usize| {
            move |t: usize| -> &'a [f32; KB] {
                k[(r0 + t) * skv + j0..][..KB].try_into().expect("a whole key block")
            }
        };
        let mut store = |qi: usize, j0: usize, acc: &[f32; KB]| {
            for (s, &a) in p[qi * skv + j0..][..KB].iter_mut().zip(acc) {
                *s = a * scale;
            }
        };
        let whole = skv - skv % KB;
        for j0 in (0..whole).step_by(KB) {
            let mut qi = 0;
            while qi + QB <= nq {
                let q = |t: usize| -> [f32; QB] { std::array::from_fn(|i| self.q(r0 + t, qi + i)) };
                for (i, acc) in sum4(self.dh, keys(j0), q).iter().enumerate() {
                    store(qi + i, j0, acc);
                }
                qi += QB;
            }
            for qi in qi..nq {
                store(qi, j0, &sum1(self.dh, keys(j0), |t| self.q(r0 + t, qi)));
            }
        }
        for qi in 0..nq {
            for j in whole..skv {
                let mut dot = 0.0f32;
                for f in r0..r0 + self.dh {
                    dot += self.q(f, qi) * k[f * skv + j];
                }
                p[qi * skv + j] = dot * scale;
            }
        }
    }

    /// The context of the head at feature rows `r0..r0 + dh`:
    /// `ctx[qi][r0 + c] = Σ_j p[qi·skv + j] · v[j][r0 + c]` from `0.0` in
    /// ascending key order, with head features in lanes: whole register
    /// blocks, then the features past the last whole block one chain at a
    /// time.
    #[inline(always)]
    fn context(&mut self, r0: usize, nq: usize, p: &[f32]) {
        let (v, d, skv, dh) = (self.v, self.d, self.skv, self.dh);
        let values = |c0: usize| {
            move |t: usize| -> &'a [f32; KB] {
                v[t * d + r0 + c0..][..KB].try_into().expect("a whole feature block")
            }
        };
        let ctx = &mut *self.ctx;
        let mut store = |qi: usize, c0: usize, acc: &[f32; KB]| {
            ctx[qi * d + r0 + c0..][..KB].copy_from_slice(acc);
        };
        let whole = dh - dh % KB;
        for c0 in (0..whole).step_by(KB) {
            let mut qi = 0;
            while qi + QB <= nq {
                let w = |t: usize| -> [f32; QB] { std::array::from_fn(|i| p[(qi + i) * skv + t]) };
                for (i, acc) in sum4(skv, values(c0), w).iter().enumerate() {
                    store(qi + i, c0, acc);
                }
                qi += QB;
            }
            for qi in qi..nq {
                store(qi, c0, &sum1(skv, values(c0), |t| p[qi * skv + t]));
            }
        }
        for qi in 0..nq {
            for c in r0 + whole..r0 + dh {
                let mut acc = 0.0f32;
                for (t, &w) in p[qi * skv..][..skv].iter().enumerate() {
                    acc += w * v[t * d + c];
                }
                ctx[qi * d + c] = acc;
            }
        }
    }
}

impl LevelBody for Attend<'_> {
    #[inline(always)]
    fn run(mut self) {
        let nq = self.ctx.len() / self.d;
        if self.skv == 0 {
            // No key to attend to: the context stays zero.
            return;
        }
        let mut p = vec![0.0f32; nq * self.skv];
        // Head-major: one head's `k` and `v` rows stay cache-hot across the
        // region's queries.
        for r0 in (0..self.d).step_by(self.dh) {
            self.scores(r0, nq, &mut p);
            for row in p.chunks_exact_mut(self.skv) {
                softmax_inplace(row);
            }
            self.context(r0, nq, &p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_matrix::{Matrix, MatrixRng};
    use biq_quant::error_metrics::relative_l2;
    use biq_runtime::{
        BackendSpec, KernelRequest, PlanBuilder, SharedExecutor, Threading, WeightSource,
    };
    use biqgemm_core::simd::{supported_levels, KernelLevel, ResolvedKernel};
    use biqgemm_core::BiqConfig;

    fn fp_attention(g: &mut MatrixRng, d: usize, heads: usize) -> MultiHeadAttention {
        let mk =
            |g: &mut MatrixRng| Linear::fp32(g.gaussian(d, d, 0.0, (d as f32).powf(-0.5)), None);
        MultiHeadAttention::new(mk(g), mk(g), mk(g), mk(g), heads)
    }

    /// The score loop before key lanes, kept as the oracle: per (head,
    /// query, key) one chain from `0.0` over the head's features in
    /// ascending order, times the scale; then the softmax and the context
    /// accumulation key by key.
    fn per_score_context(q: &ColMatrix, k: &ColMatrix, v: &ColMatrix, dh: usize) -> ColMatrix {
        let (d, sq) = q.shape();
        let scale = 1.0 / (dh as f32).sqrt();
        let mut ctx = ColMatrix::zeros(d, sq);
        let mut scores = vec![0.0f32; k.cols()];
        for r0 in (0..d).step_by(dh) {
            for ti in 0..sq {
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
                let chead = &mut ctx.col_mut(ti)[r0..r0 + dh];
                for (tj, &w) in scores.iter().enumerate() {
                    let vcol = &v.col(tj)[r0..r0 + dh];
                    for (c, &vv) in chead.iter_mut().zip(vcol) {
                        *c += w * vv;
                    }
                }
            }
        }
        ctx
    }

    /// The oracle end to end: each projection through `Linear::forward`,
    /// then [`per_score_context`] and the output projection.
    fn per_score_attend(attn: &MultiHeadAttention, xq: &ColMatrix, xkv: &ColMatrix) -> ColMatrix {
        let (q, k, v) = (attn.wq.forward(xq), attn.wk.forward(xkv), attn.wv.forward(xkv));
        attn.wo.forward(&per_score_context(&q, &k, &v, attn.d_head))
    }

    fn bits(y: &ColMatrix) -> Vec<u32> {
        y.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Sequence lengths around the key block of 16 and the query block of 4.
    const LENGTHS: [usize; 11] = [1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 33];
    /// (heads, d_head) pairs: every combination of {1, 2, 8} × {4, 8, 64}.
    const HEAD_SHAPES: [(usize, usize); 9] =
        [(1, 4), (1, 8), (1, 64), (2, 4), (2, 8), (2, 64), (8, 4), (8, 8), (8, 64)];

    /// Dense projections with biases, planned at `level`: the level the
    /// score, softmax and context loops run at (`wo`'s).
    fn attention_at(heads: usize, dh: usize, level: KernelLevel) -> MultiHeadAttention {
        let d = heads * dh;
        let mut g = MatrixRng::seed_from(0x5c0 + d as u64 + heads as u64);
        let mut proj = || {
            let w = g.gaussian(d, d, 0.0, (d as f32).powf(-0.5));
            let plan = PlanBuilder::new(d, d)
                .backend(BackendSpec::Fp32Blocked)
                .threading(Threading::Serial)
                .kernel(KernelRequest::Exact(level))
                .build();
            let bias = Some(g.gaussian_vec(d));
            Linear::from_plan(&plan, WeightSource::Dense(&w), bias, SharedExecutor::new())
        };
        MultiHeadAttention::new(proj(), proj(), proj(), proj(), heads)
    }

    #[test]
    fn key_lane_scores_equal_the_per_score_loop_at_every_level() {
        // The body alone over the full grid: sq = skv with q and k from one
        // source (self-attention's shape) and cross-attention at every
        // sq ≠ skv.
        for (heads, dh) in HEAD_SHAPES {
            let d = heads * dh;
            let mut g = MatrixRng::seed_from(0x5c1 + d as u64 + heads as u64);
            for sq in LENGTHS {
                for skv in LENGTHS {
                    let q = g.gaussian_col(d, sq, 0.0, 1.0);
                    let k = if sq == skv { q.clone() } else { g.gaussian_col(d, skv, 0.0, 1.0) };
                    let v = g.gaussian_col(d, skv, 0.0, 1.0);
                    let want = bits(&per_score_context(&q, &k, &v, dh));
                    // `Attend` reads q and k row-major, one feature per row.
                    let rows = |m: &ColMatrix| Matrix::from_fn(d, m.cols(), |i, j| m.get(i, j));
                    let (q_rows, k_rows) = (rows(&q), rows(&k));
                    let scale = 1.0 / (dh as f32).sqrt();
                    for level in supported_levels() {
                        let kernel = KernelRequest::Exact(level).resolve().expect("host level");
                        let mut ctx = ColMatrix::zeros(d, sq);
                        run_at(
                            kernel,
                            Attend {
                                q: q_rows.as_slice(),
                                k: k_rows.as_slice(),
                                v: v.as_slice(),
                                d,
                                sq,
                                skv,
                                dh,
                                scale,
                                t0: 0,
                                ctx: ctx.as_mut_slice(),
                            },
                        );
                        assert!(
                            bits(&ctx) == want,
                            "{level:?}, heads {heads}, d_head {dh}, sq {sq}, skv {skv}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn attend_equals_the_per_score_loop_at_every_level() {
        // End to end through the grouped Q/K/V run and the bias and
        // transpose paths: self-attention at every length, cross-attention
        // with a longer and a shorter memory. The 512-wide block (8 × 64)
        // is left to the body test above: its dense projections would take
        // most of a debug run here.
        for (heads, dh) in HEAD_SHAPES.into_iter().filter(|&(h, dh)| h * dh < 512) {
            let d = heads * dh;
            let mut g = MatrixRng::seed_from(0x5c2 + d as u64);
            let inputs: Vec<ColMatrix> =
                LENGTHS.iter().map(|&s| g.gaussian_col(d, s, 0.0, 1.0)).collect();
            let oracle = attention_at(heads, dh, KernelLevel::Scalar);
            let cross = |i: usize| (i, (i + 4) % LENGTHS.len());
            let want_self: Vec<Vec<u32>> =
                inputs.iter().map(|x| bits(&per_score_attend(&oracle, x, x))).collect();
            let want_cross: Vec<Vec<u32>> = (0..LENGTHS.len())
                .map(cross)
                .map(|(i, j)| bits(&per_score_attend(&oracle, &inputs[i], &inputs[j])))
                .collect();
            for level in supported_levels() {
                let attn = attention_at(heads, dh, level);
                for (x, want) in inputs.iter().zip(&want_self) {
                    let s = x.cols();
                    assert!(bits(&attn.forward(x)) == *want, "{level:?} {heads}×{dh} self {s}");
                }
                for ((i, j), want) in (0..LENGTHS.len()).map(cross).zip(&want_cross) {
                    let got = bits(&attn.attend(&inputs[i], &inputs[j]));
                    let (sq, skv) = (LENGTHS[i], LENGTHS[j]);
                    assert!(got == *want, "{level:?} {heads}×{dh} cross sq {sq} skv {skv}");
                }
            }
        }
    }

    #[test]
    fn no_keys_leave_a_zero_context() {
        // As in the per-score loop: an empty score row adds nothing.
        let q = MatrixRng::seed_from(0x5c3).gaussian(8, 3, 0.0, 1.0);
        let mut ctx = vec![0.0f32; 8 * 3];
        let (d, sq, skv, dh, scale, t0) = (8, 3, 0, 4, 0.5, 0);
        let body =
            Attend { q: q.as_slice(), k: &[], v: &[], d, sq, skv, dh, scale, t0, ctx: &mut ctx };
        run_at(ResolvedKernel::host_best(), body);
        assert_eq!(ctx, vec![0.0; 8 * 3]);
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
