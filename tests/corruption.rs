//! Failure-injection tests: every decoder in the workspace must return an
//! error — never panic, never over-allocate — when fed corrupted or
//! truncated artifacts. Byte flips and truncations are injected into valid
//! encodings at every position; decodes run inside `catch_unwind` so a panic
//! is reported as a test failure with the offending mutation.

use biqgemm_repro::biq_matrix::io::{decode_matrix, encode_matrix};
use biqgemm_repro::biq_matrix::MatrixRng;
use biqgemm_repro::biq_quant::greedy_quantize_matrix_rowwise;
use biqgemm_repro::biq_quant::serialize::{decode_multibit, encode_multibit};
use biqgemm_repro::biqgemm_core::serialize::{decode_weights, encode_weights};
use biqgemm_repro::biqgemm_core::BiqWeights;
use bytes::Bytes;

fn check_no_panic<T, E>(
    name: &str,
    decode: impl Fn(Vec<u8>) -> Result<T, E> + std::panic::RefUnwindSafe,
    valid: &[u8],
) {
    // Truncations at every prefix length.
    for cut in 0..valid.len() {
        let data = valid[..cut].to_vec();
        let r = std::panic::catch_unwind(|| decode(data));
        assert!(r.is_ok(), "{name}: panicked on truncation to {cut} bytes");
    }
    // Single-byte corruptions at every offset (xor a few patterns).
    for off in 0..valid.len() {
        for pattern in [0xFFu8, 0x01, 0x80] {
            let mut data = valid.to_vec();
            data[off] ^= pattern;
            let r = std::panic::catch_unwind(|| decode(data));
            assert!(r.is_ok(), "{name}: panicked on byte {off} ^ {pattern:#x}");
        }
    }
}

#[test]
fn matrix_decoder_never_panics() {
    let mut g = MatrixRng::seed_from(0xc0);
    let enc = encode_matrix(&g.gaussian(3, 5, 0.0, 1.0)).to_vec();
    check_no_panic("decode_matrix", |d| decode_matrix(Bytes::from(d)), &enc);
}

#[test]
fn multibit_decoder_never_panics() {
    let mut g = MatrixRng::seed_from(0xc2);
    let q = greedy_quantize_matrix_rowwise(&g.gaussian(3, 10, 0.0, 1.0), 2);
    let enc = encode_multibit(&q).to_vec();
    check_no_panic("decode_multibit", |d| decode_multibit(Bytes::from(d)), &enc);
}

#[test]
fn weights_decoder_never_panics() {
    let mut g = MatrixRng::seed_from(0xc4);
    let q = greedy_quantize_matrix_rowwise(&g.gaussian(4, 12, 0.0, 1.0), 2);
    let w = BiqWeights::from_multibit(&q, 4);
    let enc = encode_weights(&w).to_vec();
    check_no_panic("decode_weights", |d| decode_weights(Bytes::from(d)), &enc);
}

#[test]
fn random_garbage_is_rejected_not_crashed() {
    let mut g = MatrixRng::seed_from(0xc5);
    for len in [0usize, 3, 21, 64, 257] {
        let data: Vec<u8> =
            (0..len).map(|_| (g.uniform_f32(0.0, 256.0) as u32 & 0xff) as u8).collect();
        let r = std::panic::catch_unwind(|| {
            let _ = decode_matrix(Bytes::from(data.clone()));
            let _ = decode_multibit(Bytes::from(data.clone()));
            let _ = decode_weights(Bytes::from(data.clone()));
        });
        assert!(r.is_ok(), "panicked on {len} bytes of garbage");
    }
}
