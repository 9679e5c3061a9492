//! Transformer-base encoder inference with quantized weights — the paper's
//! NMT motivation (Section II-C/II-D) at full layer scale.
//!
//! Builds a 6-layer Transformer-base encoder twice from the same seed (fp32
//! and 2-bit BiQGEMM backends), runs an 18-token sentence through both, and
//! reports latency plus output fidelity.
//!
//! Run with: `cargo run --release --example transformer_inference`

use biqgemm_repro::biq_matrix::MatrixRng;
use biqgemm_repro::biq_nn::configs::TransformerConfig;
use biqgemm_repro::biq_nn::linear::QuantMethod;
use biqgemm_repro::biq_nn::transformer::{Encoder, LayerBackend};
use biqgemm_repro::biq_quant::error_metrics::cosine_similarity;
use biqgemm_repro::biq_runtime::{compile, BackendSpec, Executor, PlanBuilder, WeightSource};
use biqgemm_repro::biqgemm_core::BiqConfig;
use std::time::Instant;

fn main() {
    let cfg = TransformerConfig::BASE;
    let seq = 18; // average sub-words per sentence (paper Table II)
    let depth = 2; // two of the six layers keep the example snappy
    println!(
        "Transformer-base encoder: d_model={}, d_ff={}, heads={}, layers={depth}, seq={seq}",
        cfg.d_model, cfg.d_ff, cfg.heads
    );
    let x = MatrixRng::seed_from(0x70c).gaussian_col(cfg.d_model, seq, 0.0, 1.0);

    let build = |backend: LayerBackend| {
        let mut g = MatrixRng::seed_from(0xe4c0de);
        Encoder::random(&mut g, depth, cfg.d_model, cfg.d_ff, cfg.heads, backend)
    };

    println!("building fp32 encoder...");
    let fp = build(LayerBackend::Fp32 { parallel: false });
    println!("building + quantizing 2-bit BiQGEMM encoder...");
    let biq = build(LayerBackend::Biq {
        bits: 2,
        method: QuantMethod::Greedy,
        cfg: BiqConfig::default(),
        parallel: false,
    });

    let t0 = Instant::now();
    let y_fp = fp.forward(&x);
    let t_fp = t0.elapsed();
    let t0 = Instant::now();
    let y_biq = biq.forward(&x);
    let t_biq = t0.elapsed();

    println!("fp32 encoder forward:    {:>8.2} ms", t_fp.as_secs_f64() * 1e3);
    println!("BiQGEMM 2-bit forward:   {:>8.2} ms", t_biq.as_secs_f64() * 1e3);
    println!(
        "speedup: {:.2}x   output cosine similarity: {:.4}",
        t_fp.as_secs_f64() / t_biq.as_secs_f64(),
        cosine_similarity(y_biq.as_slice(), y_fp.as_slice())
    );

    // Per-matrix view: one d_ff × d_model feed-forward weight at batch=seq.
    let w = MatrixRng::seed_from(0xff).gaussian(cfg.d_ff, cfg.d_model, 0.0, 0.04);
    let q = biqgemm_repro::biq_quant::greedy_quantize_matrix_rowwise(&w, 2);
    let plan = PlanBuilder::new(cfg.d_ff, cfg.d_model)
        .batch_hint(seq)
        .backend(BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy })
        .build();
    let op = compile(&plan, WeightSource::Quantized(&q));
    let mut exec = Executor::warmed_for(&op);
    let t0 = Instant::now();
    let _ = exec.run(&op, &x);
    println!(
        "single ff1 matrix ({}x{}) through BiQGEMM: {:>6.2} ms",
        cfg.d_ff,
        cfg.d_model,
        t0.elapsed().as_secs_f64() * 1e3
    );
}
