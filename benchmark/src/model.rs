//! Building what the workloads run: seeded weights, 2-bit greedy BiQ
//! quantization and packing, compiled ops of any backend at any kernel
//! level, the Transformer encoder and its BIQM artifact — each step timed
//! from outside for the set-up side of the ledger.

use crate::params::{BITS, D_FF, D_MODEL, ENC_LAYERS, HEADS, SEQ};
use biq_artifact::Artifact;
use biq_matrix::{ColMatrix, Matrix, MatrixRng};
use biq_nn::attention::MultiHeadAttention;
use biq_nn::layernorm::LayerNorm;
use biq_nn::transformer::{Encoder, EncoderLayer};
use biq_nn::{CompiledModel, Linear};
use biq_quant::error_metrics::relative_l2;
use biq_quant::{greedy_quantize_matrix_rowwise, MultiBitMatrix};
use biq_runtime::{
    compile, BackendSpec, CompiledOp, KernelLevel, KernelRequest, PlanBuilder, QuantMethod,
    SharedExecutor, Threading, WeightSource,
};
use biqgemm_core::{BiqConfig, BiqWeights};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The BiQ backend every workload measures: 2-bit greedy binary coding.
pub const BIQ: BackendSpec = BackendSpec::Biq { bits: BITS, method: QuantMethod::Greedy };

/// Stated tolerance of the "close to the dequantized reference" check:
/// relative L2 distance between a kernel output and `gemm_naive` on the
/// dequantized weights (they differ only in fp32 accumulation order).
pub const NAIVE_REL_TOL: f64 = 1e-4;

/// Set-up timings of one set-up, in seconds unless named otherwise.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub quantize_s: f64,
    pub pack_s: f64,
    /// Mean over the layers of ‖W − Ŵ‖₂ / ‖W‖₂; repeats exactly per seed.
    pub rel_err: f64,
    /// Mean `PlanBuilder::build` time per plan, µs.
    pub plan_us: f64,
    /// Total `compile` time of the measured BiQ ops from packed weights, ms.
    pub compile_ms: f64,
    pub artifact_write_s: f64,
    pub artifact_bytes: f64,
    pub artifact_open_s: f64,
    pub artifact_load_s: f64,
    /// The whole set-up, first weight to last warm-up op.
    pub total_s: f64,
}

/// One weight matrix in every form the workloads need.
pub struct Layer {
    pub name: String,
    pub m: usize,
    pub n: usize,
    pub dense: Matrix,
    pub quant: MultiBitMatrix,
    pub packed: BiqWeights,
    pub bias: Option<Vec<f32>>,
}

/// Generates, quantizes and packs `shapes` (`(name, m, n, has_bias)`),
/// charging quantize/pack time and the quantization error to `t`.
pub fn make_layers(
    rng: &mut MatrixRng,
    shapes: &[(String, usize, usize, bool)],
    t: &mut SetupTimes,
) -> Vec<Layer> {
    let mut err_sum = 0.0;
    let layers: Vec<Layer> = shapes
        .iter()
        .map(|(name, m, n, has_bias)| {
            let dense = rng.gaussian(*m, *n, 0.0, (*n as f32).powf(-0.5));
            let bias = has_bias.then(|| rng.gaussian_vec(*m).iter().map(|v| v * 0.01).collect());
            let t0 = Instant::now();
            let quant = greedy_quantize_matrix_rowwise(&dense, BITS);
            t.quantize_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let packed = BiqWeights::from_multibit(&quant, BiqConfig::default().mu);
            t.pack_s += t0.elapsed().as_secs_f64();
            err_sum += relative_l2(quant.dequantize().as_slice(), dense.as_slice());
            Layer { name: name.clone(), m: *m, n: *n, dense, quant, packed, bias }
        })
        .collect();
    t.rel_err = err_sum / layers.len().max(1) as f64;
    layers
}

/// Compiles `layer` for `spec` at batch hint `b`. BiQ plans use the shipped
/// `BiqConfig::default()` (µ = 8) and kernel `Auto` unless `level` pins one.
/// When `t` is given the plan and compile times are charged to it.
pub fn compile_op(
    layer: &Layer,
    spec: BackendSpec,
    b: usize,
    threading: Threading,
    level: Option<KernelLevel>,
    t: Option<&mut SetupTimes>,
) -> CompiledOp {
    let t0 = Instant::now();
    let mut builder = PlanBuilder::new(layer.m, layer.n)
        .batch_hint(b)
        .backend(spec)
        .config(BiqConfig::default())
        .threading(threading);
    if let Some(level) = level {
        builder = builder.kernel(KernelRequest::Exact(level));
    }
    let plan = builder.build();
    let plan_s = t0.elapsed().as_secs_f64();
    let source = match spec {
        BackendSpec::Biq { .. } => WeightSource::Packed(layer.packed.clone()),
        BackendSpec::Xnor { .. } => WeightSource::Quantized(&layer.quant),
        _ => WeightSource::Dense(&layer.dense),
    };
    let t0 = Instant::now();
    let op = compile(&plan, source);
    if let Some(t) = t {
        t.plan_us += plan_s * 1e6;
        t.compile_ms += t0.elapsed().as_secs_f64() * 1e3;
    }
    op
}

/// `(name, m, n, has_bias)` of every linear of the benchmark's encoder, in
/// the artifact's canonical order.
pub fn encoder_shapes() -> Vec<(String, usize, usize, bool)> {
    let mut out = Vec::new();
    for i in 0..ENC_LAYERS {
        for p in ["wq", "wk", "wv", "wo"] {
            out.push((format!("enc{i}.attn.{p}"), D_MODEL, D_MODEL, false));
        }
        out.push((format!("enc{i}.ff1"), D_FF, D_MODEL, true));
        out.push((format!("enc{i}.ff2"), D_MODEL, D_FF, true));
    }
    out
}

/// Assembles the encoder from [`encoder_shapes`]-ordered layers, every
/// linear compiled for `spec` at batch hint [`SEQ`] on one shared executor.
/// `order` maps encoder position to the index of the layer block it takes
/// its weights from (identity for the model itself; swapped for the second
/// artifact of the swap phase).
pub fn build_encoder(
    layers: &[Layer],
    order: &[usize],
    spec: BackendSpec,
    threading: Threading,
    level: Option<KernelLevel>,
    mut t: Option<&mut SetupTimes>,
) -> CompiledModel {
    let exec = SharedExecutor::new();
    let mut linear = |l: &Layer| {
        let op = compile_op(l, spec, SEQ, threading, level, t.as_deref_mut());
        Linear::from_compiled_op(Arc::new(op), l.bias.clone().map(Into::into), exec.clone())
    };
    let blocks = order
        .iter()
        .map(|&src| {
            let l = &layers[src * 6..src * 6 + 6];
            let attn = MultiHeadAttention::new(
                linear(&l[0]),
                linear(&l[1]),
                linear(&l[2]),
                linear(&l[3]),
                HEADS,
            );
            EncoderLayer::new(
                attn,
                linear(&l[4]),
                linear(&l[5]),
                LayerNorm::new(D_MODEL),
                LayerNorm::new(D_MODEL),
            )
        })
        .collect();
    CompiledModel::Transformer(Encoder::from_layers(blocks))
}

/// The encoder inside a [`CompiledModel::Transformer`].
pub fn encoder_of(model: &CompiledModel) -> &Encoder {
    match model {
        CompiledModel::Transformer(enc) => enc,
        other => panic!("benchmark model is a transformer, got {}", other.describe()),
    }
}

/// `CompiledModel::save` → `Artifact::open` → `from_artifact`, each timed.
pub fn artifact_round_trip(
    model: &CompiledModel,
    path: &Path,
    t: &mut SetupTimes,
) -> (Artifact, CompiledModel) {
    let t0 = Instant::now();
    model.save(path).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    t.artifact_write_s = t0.elapsed().as_secs_f64();
    t.artifact_bytes = std::fs::metadata(path).map_or(0.0, |m| m.len() as f64);
    let t0 = Instant::now();
    let artifact = Artifact::open(path).unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
    t.artifact_open_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let loaded =
        CompiledModel::from_artifact(&artifact).expect("artifact written a moment ago loads");
    t.artifact_load_s = t0.elapsed().as_secs_f64();
    (artifact, loaded)
}

/// Whether `y` (row-major `m × b`) is within [`NAIVE_REL_TOL`] of
/// `gemm_naive` on the layer's dequantized weights.
pub fn close_to_naive(layer: &Layer, x: &ColMatrix, y: &[f32]) -> bool {
    let reference = biq_gemm::gemm_naive(&layer.quant.dequantize(), x);
    relative_l2(y, reference.as_slice()) <= NAIVE_REL_TOL
}

/// Bit-for-bit equality of two fp32 buffers (NaN-safe, sign-of-zero-strict).
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The kernel level each op resolved to, `name=level` joined for the
/// provenance header (deduplicated when all agree).
pub fn kernel_levels<'a>(ops: impl Iterator<Item = (&'a str, &'a CompiledOp)>) -> String {
    let levels: Vec<(String, &'static str)> =
        ops.map(|(n, op)| (n.to_string(), op.plan().kernel.level().name())).collect();
    match levels.first() {
        Some((_, first)) if levels.iter().all(|(_, l)| l == first) => format!("all:{first}"),
        _ => levels.iter().map(|(n, l)| format!("{n}:{l}")).collect::<Vec<_>>().join(","),
    }
}
