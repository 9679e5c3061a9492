//! Integration tests spanning the NN substrate and the kernels: whole-model
//! shape checks on the paper's named configurations and fidelity of
//! quantized inference.

use biqgemm_repro::biq_matrix::MatrixRng;
use biqgemm_repro::biq_nn::configs::{TransformerConfig, ALBERT_XXLARGE_FF, LAS};
use biqgemm_repro::biq_nn::linear::{Linear, QuantMethod};
use biqgemm_repro::biq_nn::lstm::{Lstm, LstmState};
use biqgemm_repro::biq_nn::transformer::{DecoderLayer, EncoderLayer, LayerBackend};
use biqgemm_repro::biq_quant::error_metrics::cosine_similarity;
use biqgemm_repro::biqgemm_core::BiqConfig;

const FP: LayerBackend = LayerBackend::Fp32 { parallel: false };

#[test]
fn transformer_base_shapes_run_end_to_end() {
    // A miniature encoder+decoder pass with the base config's head count
    // (reduced width keeps the test fast; full-width runs live in benches).
    let cfg = TransformerConfig::BASE;
    assert_eq!(cfg.encoder_layer_matrices().len(), 6);
    let d = 64;
    let mut g = MatrixRng::seed_from(0x111);
    let enc = EncoderLayer::random(&mut g, d, 4 * d, 8, FP);
    let dec = DecoderLayer::random(&mut g, d, 4 * d, 8, FP);
    let src = g.gaussian_col(d, 9, 0.0, 1.0);
    let tgt = g.gaussian_col(d, 4, 0.0, 1.0);
    let memory = enc.forward(&src);
    let out = dec.forward(&tgt, &memory);
    assert_eq!(out.shape(), (d, 4));
    assert!(out.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn quantized_linear_on_albert_shaped_slice() {
    // A proportional slice of the ALBERT xx-large 4K×16K matrix (1/16 scale)
    // through the default config.
    let (rows, cols) = (ALBERT_XXLARGE_FF.0 / 16, ALBERT_XXLARGE_FF.1 / 16);
    let mut g = MatrixRng::seed_from(0x222);
    let w = g.gaussian(rows, cols, 0.0, 0.02);
    let x = g.gaussian_col(cols, 4, 0.0, 1.0);
    let fp = Linear::fp32(w.clone(), None).forward(&x);
    let q = Linear::quantized(&w, 3, QuantMethod::Greedy, BiqConfig::default(), None).forward(&x);
    let cs = cosine_similarity(q.as_slice(), fp.as_slice());
    assert!(cs > 0.95, "cosine similarity {cs}");
}

#[test]
fn las_shaped_lstm_step_batch_one() {
    // One real LAS-proportioned step at 1/8 scale: hidden 320 per direction,
    // batch 1 (streaming ASR), quantized weights.
    let hidden = LAS.encoder_matrix.0 / 8; // 320
    let input = hidden / 2;
    let mut g = MatrixRng::seed_from(0x333);
    let lstm = Lstm::random(
        &mut g,
        input,
        hidden,
        LayerBackend::Biq {
            bits: 2,
            method: QuantMethod::Greedy,
            cfg: BiqConfig::default(),
            parallel: false,
        },
    );
    let x = g.gaussian_col(input, 1, 0.0, 1.0);
    let s = lstm.cell().step(&x, &LstmState::zeros(hidden, 1));
    assert_eq!(s.h.shape(), (hidden, 1));
    assert!(s.h.as_slice().iter().all(|v| v.is_finite() && v.abs() <= 1.0 + 1e-6));
}

#[test]
fn backend_swap_preserves_shapes_everywhere() {
    // The same encoder built on all three backends accepts the same input
    // and emits the same shape — the drop-in-replacement contract.
    let x = MatrixRng::seed_from(0x444).gaussian_col(48, 6, 0.0, 1.0);
    for backend in [
        FP,
        LayerBackend::Biq {
            bits: 2,
            method: QuantMethod::Greedy,
            cfg: BiqConfig::default(),
            parallel: false,
        },
        LayerBackend::Xnor { bits: 1 },
    ] {
        let mut g = MatrixRng::seed_from(0x555);
        let layer = EncoderLayer::random(&mut g, 48, 96, 4, backend);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (48, 6));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn more_bits_higher_fidelity_through_a_whole_layer() {
    let x = MatrixRng::seed_from(0x666).gaussian_col(64, 5, 0.0, 1.0);
    let fp_layer = {
        let mut g = MatrixRng::seed_from(0x777);
        EncoderLayer::random(&mut g, 64, 128, 4, FP)
    };
    let y_fp = fp_layer.forward(&x);
    let mut prev_cs = -1.0f64;
    for bits in [1usize, 2, 4] {
        let layer = {
            let mut g = MatrixRng::seed_from(0x777);
            EncoderLayer::random(
                &mut g,
                64,
                128,
                4,
                LayerBackend::Biq {
                    bits,
                    method: QuantMethod::Greedy,
                    cfg: BiqConfig::default(),
                    parallel: false,
                },
            )
        };
        let cs = cosine_similarity(layer.forward(&x).as_slice(), y_fp.as_slice());
        assert!(cs >= prev_cs - 0.02, "fidelity regressed at {bits} bits: {cs} < {prev_cs}");
        prev_cs = cs;
    }
    assert!(prev_cs > 0.95, "4-bit cosine similarity {prev_cs}");
}
