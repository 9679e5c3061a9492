//! NMT-style greedy decoding with a quantized Transformer — the paper's
//! headline workload: a token-by-token decode loop whose cost is dominated
//! by few-batch multiplications against large fixed weights.
//!
//! Builds the same randomly initialised seq2seq model twice (fp32 and 2-bit
//! BiQGEMM), decodes the same source, and compares latency. Random weights
//! mean the "translation" is gibberish tokens — the *computation* is the
//! real decode loop (encoder stack, per-step decoder with cross-attention,
//! vocab projection).
//!
//! Run with: `cargo run --release --example nmt_decode`

use biqgemm_repro::biq_matrix::MatrixRng;
use biqgemm_repro::biq_nn::linear::QuantMethod;
use biqgemm_repro::biq_nn::seq2seq::Seq2Seq;
use biqgemm_repro::biq_nn::transformer::LayerBackend;
use biqgemm_repro::biq_runtime::{compile, BackendSpec, Executor, PlanBuilder, WeightSource};
use biqgemm_repro::biqgemm_core::BiqConfig;
use std::time::Instant;

fn main() {
    // Scaled-down Transformer-base: d=256, ff=1024, 4 heads, 2+2 layers,
    // 2048-token vocabulary (the vocab projection is the big GEMV here).
    let (vocab, d_model, d_ff, heads, enc_l, dec_l) = (2048, 256, 1024, 4, 2, 2);
    let src: Vec<usize> = vec![17, 250, 33, 801, 90, 1422, 7, 64, 5, 1999, 404, 12];
    let max_len = 16;
    println!(
        "seq2seq: vocab={vocab}, d_model={d_model}, d_ff={d_ff}, {enc_l}+{dec_l} layers, \
         src len {}, max decode {max_len}",
        src.len()
    );

    let build = |backend: LayerBackend| {
        let mut g = MatrixRng::seed_from(0x5e95);
        Seq2Seq::random(&mut g, vocab, d_model, d_ff, heads, enc_l, dec_l, backend)
    };

    println!("building fp32 model...");
    let fp = build(LayerBackend::Fp32 { parallel: false });
    println!("building 2-bit BiQGEMM model (quantizing every projection)...");
    let biq = build(LayerBackend::Biq {
        bits: 2,
        method: QuantMethod::Greedy,
        cfg: BiqConfig::default(),
        parallel: false,
    });

    let t0 = Instant::now();
    let out_fp = fp.greedy_decode(&src, max_len);
    let t_fp = t0.elapsed();
    let t0 = Instant::now();
    let out_biq = biq.greedy_decode(&src, max_len);
    let t_biq = t0.elapsed();

    println!(
        "fp32 decode:    {:>8.2} ms -> {} tokens {:?}",
        t_fp.as_secs_f64() * 1e3,
        out_fp.len(),
        &out_fp[..out_fp.len().min(8)]
    );
    println!(
        "BiQGEMM decode: {:>8.2} ms -> {} tokens {:?}",
        t_biq.as_secs_f64() * 1e3,
        out_biq.len(),
        &out_biq[..out_biq.len().min(8)]
    );
    println!("decode-loop speedup: {:.2}x", t_fp.as_secs_f64() / t_biq.as_secs_f64());

    // The vocab projection alone, at decode batch 1 — the paper's GEMV case.
    let w = MatrixRng::seed_from(9).gaussian(vocab, d_model, 0.0, 0.06);
    let q = biqgemm_repro::biq_quant::greedy_quantize_matrix_rowwise(&w, 2);
    let plan = PlanBuilder::new(vocab, d_model)
        .backend(BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy })
        .build();
    let op = compile(&plan, WeightSource::Quantized(&q));
    let mut exec = Executor::warmed_for(&op);
    let x = MatrixRng::seed_from(10).gaussian_col(d_model, 1, 0.0, 1.0);
    let mut logits = vec![0.0f32; vocab];
    let t0 = Instant::now();
    for _ in 0..100 {
        exec.run_into(&op, std::hint::black_box(&x), &mut logits);
    }
    println!(
        "vocab projection GEMV ({vocab}x{d_model}, 2-bit): {:.1} µs/step",
        t0.elapsed().as_secs_f64() * 1e4
    );
}
