//! Cross-crate integration tests: the full pipeline from fp32 weights
//! through quantization, packing, BiQGEMM and back, checked against the
//! dense baselines.

use biqgemm_repro::biq_gemm::unpack_gemm::gemm_with_unpack;
use biqgemm_repro::biq_gemm::xnor::{xnor_gemm_presigned, XnorWeights};
use biqgemm_repro::biq_gemm::{gemm_blocked, gemm_naive, par_gemm_blocked};
use biqgemm_repro::biq_matrix::{assert_allclose, ColMatrix, Matrix, MatrixRng, SignMatrix};
use biqgemm_repro::biq_quant::packing::{PackedRowsU32, PackedRowsU64};
use biqgemm_repro::biq_quant::{greedy_quantize_matrix_rowwise, MultiBitMatrix};
use biqgemm_repro::biq_runtime::{
    compile, BackendSpec, Executor, PlanBuilder, QuantMethod, Threading, WeightSource,
};
use biqgemm_repro::biqgemm_core::{BiqConfig, WorkerSet};

/// `W · x` by BiQGEMM through the plan/executor, under exactly `cfg`:
/// a serial plan when `workers` is `None`, a parallel one on that many
/// workers otherwise.
fn biq(
    weights: WeightSource<'_>,
    (m, n, bits): (usize, usize, usize),
    x: &ColMatrix,
    cfg: BiqConfig,
    workers: Option<usize>,
) -> Matrix {
    let builder = PlanBuilder::new(m, n)
        .batch_hint(x.cols())
        .backend(BackendSpec::Biq { bits, method: QuantMethod::Greedy })
        .config(cfg);
    let plan = match workers {
        None => builder.threading(Threading::Serial),
        Some(n) => builder.threads(n).threading(Threading::Parallel),
    }
    .build();
    Executor::new().run(&compile(&plan, weights), x)
}

fn biq_signs(signs: &SignMatrix, x: &ColMatrix, workers: Option<usize>) -> Matrix {
    let (m, n) = signs.shape();
    biq(WeightSource::Signs(signs), (m, n, 1), x, BiqConfig::default(), workers)
}

fn biq_quantized(q: &MultiBitMatrix, x: &ColMatrix) -> Matrix {
    let (m, n) = q.shape();
    biq(WeightSource::Quantized(q), (m, n, q.bits()), x, BiqConfig::default(), None)
}

/// Every kernel in the workspace computes the same quantized product.
#[test]
fn all_kernels_agree_on_one_bit_weights() {
    let mut g = MatrixRng::seed_from(0xe2e);
    let (m, n, b) = (96, 160, 12);
    let signs = g.signs(m, n);
    let x = g.small_int_col(n, b, 3);
    let dense = signs.to_f32();

    let y_naive = gemm_naive(&dense, &x);
    let y_blocked = gemm_blocked(&dense, &x);
    let y_par = par_gemm_blocked(&dense, &x, &WorkerSet::new(), 3);
    let y_unpack = gemm_with_unpack(&PackedRowsU32::pack(&signs), &x);
    let y_biq = biq_signs(&signs, &x, None);
    let y_biq_par = biq_signs(&signs, &x, Some(3));

    // Small-integer inputs make every accumulation order exact.
    assert_eq!(y_naive.as_slice(), y_blocked.as_slice());
    assert_eq!(y_naive.as_slice(), y_par.as_slice());
    assert_eq!(y_naive.as_slice(), y_unpack.as_slice());
    assert_eq!(y_naive.as_slice(), y_biq.as_slice());
    assert_eq!(y_naive.as_slice(), y_biq_par.as_slice());
}

/// XNOR with pre-signed activations joins the agreement set.
#[test]
fn xnor_agrees_when_activations_are_signs() {
    let mut g = MatrixRng::seed_from(0xe2f);
    let (m, n, b) = (50, 130, 7);
    let wsigns = g.signs(m, n);
    let xsigns = g.signs(n, b);
    let y_ref = gemm_naive(&wsigns.to_f32(), &xsigns.to_f32().to_col_major());
    let xw = XnorWeights::new(vec![(vec![1.0; m], PackedRowsU64::pack(&wsigns))]);
    let y_xnor = xnor_gemm_presigned(&xw, &xsigns);
    assert_eq!(y_ref.as_slice(), y_xnor.as_slice());
    let y_biq = biq_signs(&wsigns, &xsigns.to_f32().to_col_major(), None);
    assert_eq!(y_ref.as_slice(), y_biq.as_slice());
}

/// Multi-bit BiQGEMM equals dense GEMM on the dequantized weights for every
/// bit width, µ, batch tile (1–5 columns: column tables and KeyMajor) and
/// threading.
#[test]
fn multibit_full_config_matrix() {
    let mut g = MatrixRng::seed_from(0xe30);
    let (m, n, b) = (40, 72, 5);
    let wf = g.gaussian(m, n, 0.0, 1.0);
    let x = g.gaussian_col(n, b, 0.0, 1.0);
    for bits in 1..=3usize {
        let q = greedy_quantize_matrix_rowwise(&wf, bits);
        let y_ref = gemm_naive(&q.dequantize(), &x);
        for mu in [3usize, 8] {
            for tile_batch in 1..=5 {
                let cfg = BiqConfig {
                    mu,
                    tile_rows: 16,
                    tile_chunks: 4,
                    tile_batch,
                    ..BiqConfig::default()
                };
                for workers in [None, Some(1), Some(2), Some(3), Some(7)] {
                    let y = biq(WeightSource::Quantized(&q), (m, n, bits), &x, cfg, workers);
                    assert_allclose(&y, &y_ref, 1e-4, 1e-4);
                }
            }
        }
    }
}

/// Quantize → stack → pack → BiQGEMM equals per-plane accumulation done by
/// hand (Eq. 2 of the paper).
#[test]
fn equation_two_by_hand() {
    let mut g = MatrixRng::seed_from(0xe31);
    let (m, n, b) = (18, 36, 3);
    let wf = g.gaussian(m, n, 0.0, 1.0);
    let x = g.gaussian_col(n, b, 0.0, 1.0);
    let q = greedy_quantize_matrix_rowwise(&wf, 3);
    // Hand evaluation of Σ_i α_i ∘ (B_i · x).
    let mut y_hand = Matrix::zeros(m, b);
    for plane in q.planes() {
        let partial = plane.signs.matmul(&x);
        for i in 0..m {
            for a in 0..b {
                let v = y_hand.get(i, a) + plane.scales[i] * partial.get(i, a);
                y_hand.set(i, a, v);
            }
        }
    }
    assert_allclose(&biq_quantized(&q, &x), &y_hand, 1e-4, 1e-4);
}

/// Truncating planes of one quantization = re-quantizing at fewer bits
/// (greedy is a prefix procedure), and the engine respects it.
#[test]
fn plane_truncation_consistency() {
    let mut g = MatrixRng::seed_from(0xe32);
    let wf = g.gaussian(24, 48, 0.0, 1.0);
    let x = g.gaussian_col(48, 4, 0.0, 1.0);
    let q3 = greedy_quantize_matrix_rowwise(&wf, 3);
    let q1: MultiBitMatrix = q3.truncated(1);
    let direct = greedy_quantize_matrix_rowwise(&wf, 1);
    assert_eq!(biq_quantized(&q1, &x).as_slice(), biq_quantized(&direct, &x).as_slice());
}
