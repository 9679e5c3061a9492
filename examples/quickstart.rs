//! Quickstart: quantize a weight matrix with binary coding, multiply with
//! BiQGEMM, and compare against full-precision GEMM.
//!
//! Run with: `cargo run --release --example quickstart`

use biqgemm_repro::biq_gemm::gemm_blocked;
use biqgemm_repro::biq_matrix::{display::format_matrix, MatrixRng};
use biqgemm_repro::biq_quant::error_metrics::{relative_l2, sqnr_db};
use biqgemm_repro::biq_quant::greedy_quantize_matrix_rowwise;
use biqgemm_repro::biq_runtime::{
    compile, BackendSpec, Executor, PlanBuilder, QuantMethod, WeightSource,
};
use std::time::Instant;

fn main() {
    // A 1024×1024 layer at batch 8 — the few-batch regime the paper targets.
    let (m, n, b) = (1024, 1024, 8);
    let mut rng = MatrixRng::seed_from(7);
    let weights = rng.gaussian(m, n, 0.0, 0.05);
    let x = rng.gaussian_col(n, b, 0.0, 1.0);

    // Offline: plan for the shape, quantize to 3 binary-coding bits and pack
    // the key matrix.
    let quant = greedy_quantize_matrix_rowwise(&weights, 3);
    println!(
        "quantized {m}x{n} weights to {} bits; weight SQNR = {:.2} dB",
        quant.bits(),
        sqnr_db(weights.as_slice(), quant.dequantize().as_slice())
    );
    let plan = PlanBuilder::new(m, n)
        .batch_hint(b)
        .backend(BackendSpec::Biq { bits: 3, method: QuantMethod::Greedy })
        .build();
    let op = compile(&plan, WeightSource::Quantized(&quant));
    let mut exec = Executor::warmed_for(&op);

    // Online: BiQGEMM inference vs fp32 GEMM.
    let t0 = Instant::now();
    let y_biq = exec.run(&op, &x);
    let t_biq = t0.elapsed();

    let t0 = Instant::now();
    let y_fp = gemm_blocked(&weights, &x);
    let t_fp = t0.elapsed();

    println!("BiQGEMM (3-bit): {:>9.3} ms", t_biq.as_secs_f64() * 1e3);
    println!("fp32 GEMM:       {:>9.3} ms", t_fp.as_secs_f64() * 1e3);
    println!(
        "output relative L2 vs fp32 (quantization error, not kernel error): {:.4}",
        relative_l2(y_biq.as_slice(), y_fp.as_slice())
    );

    // The kernel itself is exact: multiplying the *dequantized* weights with
    // fp32 GEMM reproduces BiQGEMM's output to f32 rounding.
    let y_deq = gemm_blocked(&quant.dequantize(), &x);
    println!(
        "kernel error vs dequantized GEMM:                                   {:.2e}",
        relative_l2(y_biq.as_slice(), y_deq.as_slice())
    );
    println!("\nfirst rows of the BiQGEMM output:");
    println!("{}", format_matrix(&y_biq, 4, 6));
}
