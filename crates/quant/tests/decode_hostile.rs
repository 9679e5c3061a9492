//! Hostile-input hardening for the `BIQQ` binary decoder: any truncation
//! must return an error, and arbitrary bit flips must never panic or
//! over-read — a flipped byte either fails validation or decodes to a
//! different-but-well-formed value (this legacy per-matrix container
//! carries no checksum; the `BIQM` model container does). Packed keys have
//! the same suite over `BIQW` in `biqgemm_core`'s `decode_hostile.rs`.

use biq_matrix::MatrixRng;
use biq_quant::greedy_quantize_matrix_rowwise;
use biq_quant::serialize::{decode_multibit, encode_multibit};
use bytes::Bytes;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_multibit_always_errors(
        rows in 1usize..8,
        cols in 1usize..24,
        bits in 1usize..4,
        cut_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let mut g = MatrixRng::seed_from(seed);
        let q = greedy_quantize_matrix_rowwise(&g.gaussian(rows, cols, 0.0, 1.0), bits);
        let enc = encode_multibit(&q);
        let cut = ((enc.len() as f64 * cut_frac) as usize).min(enc.len() - 1);
        prop_assert!(decode_multibit(enc.slice(0..cut)).is_err(), "cut {} decoded", cut);
    }

    #[test]
    fn flipped_multibit_never_panics(
        rows in 1usize..8,
        cols in 1usize..24,
        bits in 1usize..4,
        flip_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
        seed in 0u64..1000,
    ) {
        let mut g = MatrixRng::seed_from(seed);
        let q = greedy_quantize_matrix_rowwise(&g.gaussian(rows, cols, 0.0, 1.0), bits);
        let mut raw = encode_multibit(&q).to_vec();
        let at = ((raw.len() as f64 * flip_frac) as usize).min(raw.len() - 1);
        raw[at] ^= 1 << flip_bit;
        // Must terminate with Ok or Err — never panic, never over-read.
        let _ = decode_multibit(Bytes::from(raw));
    }
}
