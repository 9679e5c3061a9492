//! Table I reproduction (substituted): quantization quality vs bit width.
//!
//! The paper reports BLEU of a WMT-trained Transformer under uniform and
//! binary-coding quantization. Training data/GPUs are unavailable here, so
//! we keep the table's *structure* and substitute the quality metric:
//!
//! * weight-domain SQNR (dB) of each scheme on Transformer-base-shaped
//!   Gaussian weights, and
//! * end-to-end output fidelity (cosine similarity / relative L2) of one
//!   randomly initialised Transformer-base encoder layer run with quantized
//!   vs fp32 weights.
//!
//! The paper's qualitative shape should reproduce: binary-coding degrades
//! gracefully down to 2–3 bits and collapses at 1 bit; uniform 8-bit is
//! near-lossless while uniform 4-bit falls off sharply.

use biq_bench::args;
use biq_bench::table::{fmt_f, Table};
use biq_matrix::MatrixRng;
use biq_nn::linear::QuantMethod;
use biq_nn::transformer::{EncoderLayer, LayerBackend};
use biq_quant::alternating::alternating_quantize_matrix_rowwise;
use biq_quant::error_metrics::{matrix_sqnr_db, relative_l2};
use biq_quant::greedy_quantize_matrix_rowwise;
use biq_quant::uniform::fake_quantize_matrix_per_row;
use biqgemm_core::BiqConfig;

fn main() {
    let a = args::parse();
    println!("{}", biq_bench::provenance(&a));
    let d_model = if a.quick { 128 } else { 512 };
    let d_ff = 4 * d_model;
    let heads = 8;
    let seq = 18; // average sub-words per sentence, as in Table II
    println!("Table I (substituted): quantization quality on a Transformer-base encoder layer");
    println!("(d_model = {d_model}, d_ff = {d_ff}, heads = {heads}, seq = {seq}; BLEU substituted by SQNR / output fidelity)\n");

    // --- Part A: weight-domain SQNR on one attention matrix. ---
    let mut g = MatrixRng::seed_from(0xb1b0);
    let w = g.gaussian(d_model, d_model, 0.0, 0.05);
    let mut part_a = Table::new(&["scheme", "W bits", "weight SQNR (dB)"]);
    let mut uniform_db = Vec::new();
    for bits in [8u32, 6, 4] {
        let db = matrix_sqnr_db(&w, &fake_quantize_matrix_per_row(&w, bits));
        uniform_db.push(db);
        part_a.row(&["Uniform".into(), bits.to_string(), fmt_f(db, 2)]);
    }
    let mut greedy_db = Vec::new();
    for bits in [4usize, 3, 2, 1] {
        let db = matrix_sqnr_db(&w, &greedy_quantize_matrix_rowwise(&w, bits).dequantize());
        greedy_db.push(db);
        part_a.row(&["Binary-Coding (Greedy)".into(), bits.to_string(), fmt_f(db, 2)]);
    }
    for bits in [4usize, 3, 2, 1] {
        let q = alternating_quantize_matrix_rowwise(&w, bits, 10);
        part_a.row(&[
            "Binary-Coding (Alternating)".into(),
            bits.to_string(),
            fmt_f(matrix_sqnr_db(&w, &q.dequantize()), 2),
        ]);
    }
    println!("{}", if a.csv { part_a.render_csv() } else { part_a.render() });

    // --- Part B: end-to-end encoder-layer fidelity. ---
    let x = MatrixRng::seed_from(0xac7).gaussian_col(d_model, seq, 0.0, 1.0);
    let fp_layer = {
        let mut g = MatrixRng::seed_from(0x5eed);
        EncoderLayer::random(&mut g, d_model, d_ff, heads, LayerBackend::Fp32 { parallel: false })
    };
    let y_fp = fp_layer.forward(&x);
    let mut part_b = Table::new(&["scheme", "W bits", "cosine sim", "relative L2"]);
    part_b.row(&["Baseline fp32".into(), "32".into(), "1.0000".into(), "0.0000".into()]);
    let mut cosines = Vec::new();
    for bits in [4usize, 3, 2, 1] {
        let q_layer = {
            let mut g = MatrixRng::seed_from(0x5eed);
            EncoderLayer::random(
                &mut g,
                d_model,
                d_ff,
                heads,
                LayerBackend::Biq {
                    bits,
                    method: QuantMethod::Greedy,
                    cfg: BiqConfig::default(),
                    parallel: false,
                },
            )
        };
        let y_q = q_layer.forward(&x);
        let cs = biq_quant::error_metrics::cosine_similarity(y_q.as_slice(), y_fp.as_slice());
        let rl = relative_l2(y_q.as_slice(), y_fp.as_slice());
        cosines.push(cs);
        part_b.row(&[
            "Binary-Coding (Greedy)".into(),
            bits.to_string(),
            fmt_f(cs, 4),
            fmt_f(rl, 4),
        ]);
    }
    println!("{}", if a.csv { part_b.render_csv() } else { part_b.render() });
    // Both lists run 4 → 1 bits (uniform: 8 → 4), so "degrades" is "descends".
    let descends = |v: &[f64]| v.windows(2).all(|p| p[0] > p[1]);
    println!(
        "{}",
        biq_bench::claim(
            "quality falls with every bit removed (weight SQNR and end-to-end cosine), and \
             uniform 8-bit is closer to fp32 than any binary-coding width",
            descends(&uniform_db)
                && descends(&greedy_db)
                && descends(&cosines)
                && uniform_db[0] > greedy_db[0],
        )
    );
}
