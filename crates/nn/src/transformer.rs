//! Transformer encoder / decoder layers (Section II-C of the paper:
//! "an encoder layer includes one attention block structured as four (n × n)
//! weight matrices and a feed-forward block with (n × 4n) and (4n × n)
//! matrices").
//!
//! Post-norm residual arrangement as in the original Transformer:
//! `x ← LN(x + Attn(x))`, `x ← LN(x + FF(x))` with `FF = W₂·gelu(W₁·x)`.
//!
//! Under parallel plans the non-GEMM work runs on the same workers as the
//! linears: attention, GELU and both (decoder: all three) residual adds +
//! layer norms are column regions (`Linear::for_each_col_block`), each
//! column computed exactly as on one thread, so every worker count gives
//! the serial bits. Each region's loops run at the kernel level of the
//! plan that owns it (`biqgemm_core::simd::run_at`): plain `f32` Rust with
//! no FMA and no reassociation, so every level gives the same bits too.

use crate::activations::{gelu, map_inplace};
use crate::attention::MultiHeadAttention;
use crate::layernorm::LayerNorm;
use crate::linear::{Linear, QuantMethod};
use biq_matrix::{ColMatrix, Matrix, MatrixRng};
use biq_runtime::{BackendSpec, PlanBuilder, SharedExecutor, Threading, WeightSource};
use biqgemm_core::simd::{run_at, LevelBody};
use biqgemm_core::BiqConfig;

/// How the weight matrices of a generated layer are executed.
#[derive(Clone, Copy, Debug)]
pub enum LayerBackend {
    /// Dense fp32 (blocked GEMM); `parallel` picks a parallel plan.
    Fp32 {
        /// Use the multi-threaded kernel.
        parallel: bool,
    },
    /// BiQGEMM over `bits`-bit binary-coding quantized weights.
    Biq {
        /// Quantization bits β_w.
        bits: usize,
        /// Quantizer flavour.
        method: QuantMethod,
        /// Engine configuration.
        cfg: BiqConfig,
        /// Use the multi-threaded kernel.
        parallel: bool,
    },
    /// XNOR-popcount with `bits`-bit weights (activations binarised 1-bit).
    Xnor {
        /// Quantization bits β_w.
        bits: usize,
    },
    /// INT8 fixed-point pipeline (dynamic activation quantization).
    Int8,
}

impl LayerBackend {
    /// Builds a [`Linear`] for `weight` on this backend, routed through
    /// `exec` — the per-model plan-caching hook: every layer built with the
    /// same handle shares one executor, so LUT arenas and pack panels are
    /// reused across layers and (for recurrent models) time-steps.
    ///
    /// The plan is for 1-column steps (a decoder's or LSTM's), so `Auto`
    /// applies its width-1 kernel clamp; encoder layers plan at
    /// [`ENCODER_BATCH_HINT`] instead.
    pub fn linear_shared(
        &self,
        weight: Matrix,
        bias: Option<Vec<f32>>,
        exec: &SharedExecutor,
    ) -> Linear {
        self.linear_planned(weight, bias, exec, 1)
    }

    /// [`Self::linear_shared`] planned for batches of `batch_hint` columns.
    fn linear_planned(
        &self,
        weight: Matrix,
        bias: Option<Vec<f32>>,
        exec: &SharedExecutor,
        batch_hint: usize,
    ) -> Linear {
        let (m, n) = weight.shape();
        let threading = |parallel: bool| {
            if parallel {
                Threading::Parallel
            } else {
                Threading::Serial
            }
        };
        let builder = PlanBuilder::new(m, n).batch_hint(batch_hint);
        let plan = match *self {
            LayerBackend::Fp32 { parallel } => {
                builder.backend(BackendSpec::Fp32Blocked).threading(threading(parallel))
            }
            LayerBackend::Biq { bits, method, cfg, parallel } => builder
                .backend(BackendSpec::Biq { bits, method })
                .config(cfg)
                .threading(threading(parallel)),
            // Single-threaded kernels: serial whatever the batch hint.
            LayerBackend::Xnor { bits } => {
                builder.backend(BackendSpec::Xnor { bits }).threading(Threading::Serial)
            }
            LayerBackend::Int8 => builder.backend(BackendSpec::Int8).threading(Threading::Serial),
        }
        .build();
        Linear::from_plan(&plan, WeightSource::Dense(&weight), bias, exec.clone())
    }

    /// Builds a [`Linear`] on a private executor (no arena sharing).
    pub fn linear(&self, weight: Matrix, bias: Option<Vec<f32>>) -> Linear {
        self.linear_shared(weight, bias, &SharedExecutor::new())
    }
}

/// Batch hint of every linear an encoder-layer builder plans: an encoder's
/// batch is its sequence, so its linears run the batched query, never the
/// 1-column gather `Auto`'s width-1 kernel clamp is for. (Planning them at
/// the default hint of 1 pinned every encoder to AVX2 on AVX-512 hosts.)
pub const ENCODER_BATCH_HINT: usize = 32;

/// One Transformer encoder layer.
#[derive(Clone, Debug)]
pub struct EncoderLayer {
    attn: MultiHeadAttention,
    ff1: Linear,
    ff2: Linear,
    ln1: LayerNorm,
    ln2: LayerNorm,
}

impl EncoderLayer {
    /// Assembles a layer from parts.
    ///
    /// # Panics
    /// Panics on dimension mismatches between the blocks.
    pub fn new(
        attn: MultiHeadAttention,
        ff1: Linear,
        ff2: Linear,
        ln1: LayerNorm,
        ln2: LayerNorm,
    ) -> Self {
        let d = attn.d_model();
        assert_eq!(ff1.in_features(), d, "ff1 input must be d_model");
        assert_eq!(ff2.out_features(), d, "ff2 output must be d_model");
        assert_eq!(ff1.out_features(), ff2.in_features(), "ff inner dim mismatch");
        assert_eq!(ln1.dim(), d, "ln1 dim");
        assert_eq!(ln2.dim(), d, "ln2 dim");
        Self { attn, ff1, ff2, ln1, ln2 }
    }

    /// Randomly initialised layer (`d_model`, `d_ff`, `heads`) on the given
    /// backend — the harness's way of instantiating paper-sized workloads.
    /// The layer's six projections share one private executor.
    pub fn random(
        rng: &mut MatrixRng,
        d_model: usize,
        d_ff: usize,
        heads: usize,
        backend: LayerBackend,
    ) -> Self {
        Self::random_shared(rng, d_model, d_ff, heads, backend, &SharedExecutor::new())
    }

    /// [`Self::random`] with an explicit executor, so a whole model stack
    /// pools its arenas.
    pub fn random_shared(
        rng: &mut MatrixRng,
        d_model: usize,
        d_ff: usize,
        heads: usize,
        backend: LayerBackend,
        exec: &SharedExecutor,
    ) -> Self {
        let std_a = (d_model as f32).powf(-0.5);
        let std_f = (d_ff as f32).powf(-0.5);
        let linear = |w: Matrix, bias: Option<Vec<f32>>| {
            backend.linear_planned(w, bias, exec, ENCODER_BATCH_HINT)
        };
        let mut proj = || linear(rng.gaussian(d_model, d_model, 0.0, std_a), None);
        let attn = MultiHeadAttention::new(proj(), proj(), proj(), proj(), heads);
        let ff1 = linear(rng.gaussian(d_ff, d_model, 0.0, std_a), Some(vec![0.0; d_ff]));
        let ff2 = linear(rng.gaussian(d_model, d_ff, 0.0, std_f), Some(vec![0.0; d_model]));
        Self::new(attn, ff1, ff2, LayerNorm::new(d_model), LayerNorm::new(d_model))
    }

    /// Model width.
    pub fn d_model(&self) -> usize {
        self.attn.d_model()
    }

    /// The attention block.
    pub fn attn(&self) -> &MultiHeadAttention {
        &self.attn
    }

    /// The first feed-forward projection (`d_ff × d_model`).
    pub fn ff1(&self) -> &Linear {
        &self.ff1
    }

    /// The second feed-forward projection (`d_model × d_ff`).
    pub fn ff2(&self) -> &Linear {
        &self.ff2
    }

    /// The post-attention layer norm.
    pub fn ln1(&self) -> &LayerNorm {
        &self.ln1
    }

    /// The post-feed-forward layer norm.
    pub fn ln2(&self) -> &LayerNorm {
        &self.ln2
    }

    /// Forward over a `d_model × seq` activation matrix.
    pub fn forward(&self, x: &ColMatrix) -> ColMatrix {
        // x ← LN(x + Attn(x))
        let mut h = self.attn.forward(x);
        add_norm_on(self.attn.wo(), &self.ln1, &mut h, x);
        // x ← LN(x + FF(x))
        let mut f = self.ff1.forward(&h);
        gelu_on(&self.ff1, &mut f);
        let mut f = self.ff2.forward(&f);
        add_norm_on(&self.ff2, &self.ln2, &mut f, &h);
        f
    }
}

/// One Transformer decoder layer (self-attention + cross-attention + FF).
#[derive(Clone, Debug)]
pub struct DecoderLayer {
    self_attn: MultiHeadAttention,
    cross_attn: MultiHeadAttention,
    ff1: Linear,
    ff2: Linear,
    ln1: LayerNorm,
    ln2: LayerNorm,
    ln3: LayerNorm,
}

impl DecoderLayer {
    /// Assembles a decoder layer from parts.
    ///
    /// # Panics
    /// Panics on dimension mismatches between the blocks.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        self_attn: MultiHeadAttention,
        cross_attn: MultiHeadAttention,
        ff1: Linear,
        ff2: Linear,
        ln1: LayerNorm,
        ln2: LayerNorm,
        ln3: LayerNorm,
    ) -> Self {
        let d = self_attn.d_model();
        assert_eq!(cross_attn.d_model(), d, "cross-attention width mismatch");
        assert_eq!(ff1.in_features(), d, "ff1 input must be d_model");
        assert_eq!(ff2.out_features(), d, "ff2 output must be d_model");
        assert_eq!(ff1.out_features(), ff2.in_features(), "ff inner dim mismatch");
        assert_eq!(ln1.dim(), d, "ln1 dim");
        assert_eq!(ln2.dim(), d, "ln2 dim");
        assert_eq!(ln3.dim(), d, "ln3 dim");
        Self { self_attn, cross_attn, ff1, ff2, ln1, ln2, ln3 }
    }

    /// The self-attention block.
    pub fn self_attn(&self) -> &MultiHeadAttention {
        &self.self_attn
    }

    /// The cross-attention block.
    pub fn cross_attn(&self) -> &MultiHeadAttention {
        &self.cross_attn
    }

    /// The first feed-forward projection.
    pub fn ff1(&self) -> &Linear {
        &self.ff1
    }

    /// The second feed-forward projection.
    pub fn ff2(&self) -> &Linear {
        &self.ff2
    }

    /// The post-self-attention layer norm.
    pub fn ln1(&self) -> &LayerNorm {
        &self.ln1
    }

    /// The post-cross-attention layer norm.
    pub fn ln2(&self) -> &LayerNorm {
        &self.ln2
    }

    /// The post-feed-forward layer norm.
    pub fn ln3(&self) -> &LayerNorm {
        &self.ln3
    }

    /// Randomly initialised decoder layer (private executor).
    pub fn random(
        rng: &mut MatrixRng,
        d_model: usize,
        d_ff: usize,
        heads: usize,
        backend: LayerBackend,
    ) -> Self {
        Self::random_shared(rng, d_model, d_ff, heads, backend, &SharedExecutor::new())
    }

    /// [`Self::random`] with an explicit executor for model-level arena
    /// pooling.
    pub fn random_shared(
        rng: &mut MatrixRng,
        d_model: usize,
        d_ff: usize,
        heads: usize,
        backend: LayerBackend,
        exec: &SharedExecutor,
    ) -> Self {
        let std_a = (d_model as f32).powf(-0.5);
        let std_f = (d_ff as f32).powf(-0.5);
        let exec = exec.clone();
        let proj = |rng: &mut MatrixRng| {
            backend.linear_shared(rng.gaussian(d_model, d_model, 0.0, std_a), None, &exec)
        };
        let self_attn = MultiHeadAttention::new(proj(rng), proj(rng), proj(rng), proj(rng), heads);
        let cross_attn = MultiHeadAttention::new(proj(rng), proj(rng), proj(rng), proj(rng), heads);
        let ff1 = backend.linear_shared(
            rng.gaussian(d_ff, d_model, 0.0, std_a),
            Some(vec![0.0; d_ff]),
            &exec,
        );
        let ff2 = backend.linear_shared(
            rng.gaussian(d_model, d_ff, 0.0, std_f),
            Some(vec![0.0; d_model]),
            &exec,
        );
        Self {
            self_attn,
            cross_attn,
            ff1,
            ff2,
            ln1: LayerNorm::new(d_model),
            ln2: LayerNorm::new(d_model),
            ln3: LayerNorm::new(d_model),
        }
    }

    /// Forward: `x` is the decoder stream (`d × s_dec`), `memory` the encoder
    /// output (`d × s_enc`).
    pub fn forward(&self, x: &ColMatrix, memory: &ColMatrix) -> ColMatrix {
        let mut h = self.self_attn.forward(x);
        add_norm_on(self.self_attn.wo(), &self.ln1, &mut h, x);
        let mut c = self.cross_attn.attend(&h, memory);
        add_norm_on(self.cross_attn.wo(), &self.ln2, &mut c, &h);
        let mut f = self.ff1.forward(&c);
        gelu_on(&self.ff1, &mut f);
        let mut f = self.ff2.forward(&f);
        add_norm_on(&self.ff2, &self.ln3, &mut f, &c);
        f
    }
}

/// A stack of encoder layers.
#[derive(Clone, Debug)]
pub struct Encoder {
    layers: Vec<EncoderLayer>,
}

impl Encoder {
    /// Randomly initialised `num_layers`-deep encoder. One executor spans
    /// the whole stack: every layer's forward pass reuses the same LUT
    /// arenas (the per-model plan cache).
    pub fn random(
        rng: &mut MatrixRng,
        num_layers: usize,
        d_model: usize,
        d_ff: usize,
        heads: usize,
        backend: LayerBackend,
    ) -> Self {
        Self::random_shared(rng, num_layers, d_model, d_ff, heads, backend, &SharedExecutor::new())
    }

    /// [`Self::random`] on an explicit executor, so a larger model (e.g. a
    /// seq2seq with a decoder stack) can pool arenas across *all* its parts.
    pub fn random_shared(
        rng: &mut MatrixRng,
        num_layers: usize,
        d_model: usize,
        d_ff: usize,
        heads: usize,
        backend: LayerBackend,
        exec: &SharedExecutor,
    ) -> Self {
        Self {
            layers: (0..num_layers)
                .map(|_| EncoderLayer::random_shared(rng, d_model, d_ff, heads, backend, exec))
                .collect(),
        }
    }

    /// Wraps an existing layer stack.
    ///
    /// # Panics
    /// Panics when the stack is empty or widths disagree.
    pub fn from_layers(layers: Vec<EncoderLayer>) -> Self {
        assert!(!layers.is_empty(), "encoder needs at least one layer");
        let d = layers[0].d_model();
        assert!(layers.iter().all(|l| l.d_model() == d), "encoder width mismatch");
        Self { layers }
    }

    /// The layer stack.
    pub fn layers(&self) -> &[EncoderLayer] {
        &self.layers
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Runs all layers.
    pub fn forward(&self, x: &ColMatrix) -> ColMatrix {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward(&h);
        }
        h
    }
}

/// `x ← LN(x + residual)`, column by column on the workers of `lin`'s plan,
/// at its kernel level.
fn add_norm_on(lin: &Linear, ln: &LayerNorm, x: &mut ColMatrix, residual: &ColMatrix) {
    assert_eq!(x.shape(), residual.shape(), "residual shape mismatch");
    assert_eq!(x.rows(), ln.dim(), "feature dimension mismatch");
    let (d, kernel) = (ln.dim(), lin.plan().kernel);
    lin.for_each_col_block(x.as_mut_slice(), d, |j0, block| {
        let residual = &residual.as_slice()[j0 * d..j0 * d + block.len()];
        run_at(kernel, AddNorm { ln, block, residual });
    });
}

/// GELU over every element of `x`, on the workers of `lin`'s plan, at its
/// kernel level.
fn gelu_on(lin: &Linear, x: &mut ColMatrix) {
    let (rows, kernel) = (x.rows(), lin.plan().kernel);
    lin.for_each_col_block(x.as_mut_slice(), rows, |_, block| run_at(kernel, Gelu(block)));
}

/// The GELU map over a block, compiled at a kernel level: the body is
/// lane-independent `f32` arithmetic, so each level vectorises it at its
/// own width and computes the same bits.
struct Gelu<'a>(&'a mut [f32]);

impl LevelBody for Gelu<'_> {
    #[inline(always)]
    fn run(self) {
        map_inplace(self.0, gelu);
    }
}

/// `block ← LN(block + residual)` over whole columns, compiled at a kernel
/// level: the residual add and the norm's apply pass vectorise at the
/// level's width; the mean and variance stay one ascending sum per column.
struct AddNorm<'a> {
    ln: &'a LayerNorm,
    block: &'a mut [f32],
    residual: &'a [f32],
}

impl LevelBody for AddNorm<'_> {
    #[inline(always)]
    fn run(self) {
        for (v, r) in self.block.iter_mut().zip(self.residual) {
            *v += *r;
        }
        self.ln.normalize_columns(self.block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_quant::error_metrics::cosine_similarity;

    #[test]
    fn encoder_layer_preserves_shape_and_finiteness() {
        let mut g = MatrixRng::seed_from(330);
        let layer =
            EncoderLayer::random(&mut g, 32, 128, 4, LayerBackend::Fp32 { parallel: false });
        let x = g.gaussian_col(32, 6, 0.0, 1.0);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (32, 6));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn quantized_encoder_tracks_fp32_direction() {
        // Table I proxy at miniature scale: 3-bit quantized layer output
        // should stay directionally close to fp32.
        let mut g = MatrixRng::seed_from(331);
        let x = g.gaussian_col(32, 4, 0.0, 1.0);
        let mut g1 = MatrixRng::seed_from(777);
        let fp = EncoderLayer::random(&mut g1, 32, 64, 4, LayerBackend::Fp32 { parallel: false });
        let mut g2 = MatrixRng::seed_from(777);
        let q = EncoderLayer::random(
            &mut g2,
            32,
            64,
            4,
            LayerBackend::Biq {
                bits: 3,
                method: QuantMethod::Greedy,
                cfg: BiqConfig::default(),
                parallel: false,
            },
        );
        let cs = cosine_similarity(q.forward(&x).as_slice(), fp.forward(&x).as_slice());
        assert!(cs > 0.95, "cosine similarity {cs}");
    }

    #[test]
    fn encoder_stack_runs_depth() {
        let mut g = MatrixRng::seed_from(332);
        let enc = Encoder::random(&mut g, 3, 16, 32, 2, LayerBackend::Fp32 { parallel: false });
        assert_eq!(enc.depth(), 3);
        let x = g.gaussian_col(16, 5, 0.0, 1.0);
        assert_eq!(enc.forward(&x).shape(), (16, 5));
    }

    #[test]
    fn decoder_layer_consumes_memory() {
        let mut g = MatrixRng::seed_from(333);
        let dec = DecoderLayer::random(&mut g, 16, 32, 2, LayerBackend::Fp32 { parallel: false });
        let x = g.gaussian_col(16, 3, 0.0, 1.0);
        let mem = g.gaussian_col(16, 8, 0.0, 1.0);
        let y = dec.forward(&x, &mem);
        assert_eq!(y.shape(), (16, 3));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn encoder_layers_plan_wide_and_decoder_layers_keep_the_width1_clamp() {
        use biq_runtime::KernelRequest;
        use biqgemm_core::planner::auto_width1_clamp;
        use biqgemm_core::simd::env_override_active;
        let backend = LayerBackend::Biq {
            bits: 2,
            method: QuantMethod::Greedy,
            cfg: BiqConfig::default(),
            parallel: false,
        };
        let mut g = MatrixRng::seed_from(334);
        let enc = EncoderLayer::random(&mut g, 32, 64, 4, backend);
        let dec = DecoderLayer::random(&mut g, 32, 64, 4, backend);
        // Auto's pick before any shape-aware clamp: the host's best level,
        // or the level a BIQ_KERNEL override forces (which no clamp moves).
        let wide = KernelRequest::Auto.resolve().expect("auto resolves").level();
        let width1 = match auto_width1_clamp(1, wide) {
            Some((clamped, _)) if !env_override_active() => clamped,
            _ => wide,
        };
        let attn = enc.attn();
        for l in [attn.wq(), attn.wk(), attn.wv(), attn.wo(), enc.ff1(), enc.ff2()] {
            assert_eq!(l.plan().batch_hint, ENCODER_BATCH_HINT);
            assert_eq!(l.plan().kernel.level(), wide, "an encoder linear must not take the clamp");
        }
        let (sa, ca) = (dec.self_attn(), dec.cross_attn());
        for l in [sa.wq(), sa.wo(), ca.wk(), ca.wv(), dec.ff1(), dec.ff2()] {
            assert_eq!(l.plan().kernel.level(), width1, "decoder steps are 1-column");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let x = MatrixRng::seed_from(42).gaussian_col(16, 2, 0.0, 1.0);
        let mk = || {
            let mut g = MatrixRng::seed_from(9);
            EncoderLayer::random(&mut g, 16, 32, 2, LayerBackend::Fp32 { parallel: false })
        };
        assert_eq!(mk().forward(&x).as_slice(), mk().forward(&x).as_slice());
    }
}
