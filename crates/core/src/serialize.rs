//! Binary container for packed BiQGEMM weights — the artifact a deployment
//! ships (paper footnote 3: "matrix K instead of B can be loaded in advance
//! into the system, since the weight matrices are fixed during inference").
//!
//! ```text
//! BIQW: magic[4] mu:u8 bits:u8 m:u64 n:u64
//!       scales (bits·m × f32)
//!       keys   (bits·m · ⌈n/µ⌉ × ⌈µ/8⌉ bytes: u8 for µ ≤ 8, else u16)
//!       EOF
//! ```
//!
//! The format carries no version field; the key width follows from µ alone
//! ([`biq_quant::packing::key_bytes`]), and the payload must end with its
//! last key, so a file written with the old fixed `u16` width is refused
//! (trailing bytes) instead of being misread.

use crate::weights::BiqWeights;
use biq_quant::packing::{KeyError, KeyMatrix};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Magic for packed BiQGEMM weights.
pub const MAGIC_WEIGHTS: &[u8; 4] = b"BIQW";

/// Decoding failures.
#[derive(Debug)]
pub enum WeightsDecodeError {
    /// Wrong magic bytes.
    BadMagic([u8; 4]),
    /// Payload shorter than the header promises.
    Truncated,
    /// Header field out of range.
    BadHeader(String),
}

impl fmt::Display for WeightsDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightsDecodeError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            WeightsDecodeError::Truncated => write!(f, "truncated payload"),
            WeightsDecodeError::BadHeader(s) => write!(f, "bad header: {s}"),
        }
    }
}

impl std::error::Error for WeightsDecodeError {}

/// Encodes packed weights.
pub fn encode_weights(w: &BiqWeights) -> Bytes {
    let scale_count = w.scales().len();
    let mut buf = BytesMut::with_capacity(22 + scale_count * 4 + w.keys().storage_bytes());
    buf.put_slice(MAGIC_WEIGHTS);
    buf.put_u8(w.mu() as u8);
    buf.put_u8(w.bits() as u8);
    buf.put_u64_le(w.output_size() as u64);
    buf.put_u64_le(w.input_size() as u64);
    for &s in w.scales() {
        buf.put_f32_le(s);
    }
    w.keys().encode_le(&mut buf);
    buf.freeze()
}

/// Decodes packed weights, validating header fields and key ranges.
pub fn decode_weights(mut data: Bytes) -> Result<BiqWeights, WeightsDecodeError> {
    if data.remaining() < 22 {
        return Err(WeightsDecodeError::Truncated);
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC_WEIGHTS {
        return Err(WeightsDecodeError::BadMagic(magic));
    }
    let mu = data.get_u8() as usize;
    let bits = data.get_u8() as usize;
    let m = data.get_u64_le() as usize;
    let n = data.get_u64_le() as usize;
    if bits == 0 || bits > 32 {
        return Err(WeightsDecodeError::BadHeader(format!("bits = {bits}")));
    }
    if m == 0 || n == 0 {
        return Err(WeightsDecodeError::BadHeader(format!("shape {m}x{n}")));
    }
    // Checked sizes: corrupted headers must not overflow or over-allocate.
    let key_rows = bits.checked_mul(m).ok_or(WeightsDecodeError::Truncated)?;
    let scale_bytes = key_rows.checked_mul(4).ok_or(WeightsDecodeError::Truncated)?;
    if data.remaining() < scale_bytes {
        return Err(WeightsDecodeError::Truncated);
    }
    let mut scales = Vec::with_capacity(key_rows);
    for _ in 0..key_rows {
        scales.push(data.get_f32_le());
    }
    // µ, the key count against the remaining bytes, and every key's range
    // are checked where keys enter: the `KeyMatrix` constructor.
    let keys = KeyMatrix::decode_le(key_rows, n, mu, &mut data).map_err(|e| match e {
        KeyError::Truncated => WeightsDecodeError::Truncated,
        other => WeightsDecodeError::BadHeader(other.to_string()),
    })?;
    if data.remaining() > 0 {
        return Err(WeightsDecodeError::BadHeader(format!(
            "{} bytes after the last key",
            data.remaining()
        )));
    }
    Ok(BiqWeights::from_parts(keys, scales, m, n, bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{biqgemm_into, BiqArena, BiqConfig, PhaseProfile};
    use biq_matrix::{Matrix, MatrixRng};
    use biq_quant::greedy_quantize_matrix_rowwise;

    #[test]
    fn weights_round_trip_preserves_everything() {
        let mut g = MatrixRng::seed_from(700);
        let wf = g.gaussian(12, 30, 0.0, 1.0);
        let q = greedy_quantize_matrix_rowwise(&wf, 3);
        let w = BiqWeights::from_multibit(&q, 8);
        let rt = decode_weights(encode_weights(&w)).unwrap();
        assert_eq!(rt.mu(), w.mu());
        assert_eq!(rt.bits(), w.bits());
        assert_eq!(rt.output_size(), w.output_size());
        assert_eq!(rt.input_size(), w.input_size());
        assert_eq!(rt.scales(), w.scales());
        assert_eq!(rt.keys(), w.keys());
    }

    #[test]
    fn decoded_weights_compute_identically() {
        let mut g = MatrixRng::seed_from(701);
        let wf = g.gaussian(20, 40, 0.0, 1.0);
        let q = greedy_quantize_matrix_rowwise(&wf, 2);
        let w = BiqWeights::from_multibit(&q, 8);
        let x = g.gaussian_col(40, 3, 0.0, 1.0);
        let rt = decode_weights(encode_weights(&w)).unwrap();
        let run = |w: &BiqWeights| {
            let cfg = BiqConfig::default();
            let kernel = cfg.kernel.resolve().unwrap();
            let (mut p, mut arena) = (PhaseProfile::new(), BiqArena::new());
            let mut y = Matrix::zeros(20, 3);
            biqgemm_into(w, &x, &cfg, kernel, None, &mut p, &mut arena, y.as_mut_slice());
            y
        };
        assert_eq!(run(&w).as_slice(), run(&rt).as_slice());
    }

    #[test]
    fn bad_mu_rejected() {
        let mut g = MatrixRng::seed_from(702);
        let w = BiqWeights::from_signs_unscaled(&g.signs(2, 8), 4);
        let mut raw = encode_weights(&w).to_vec();
        raw[4] = 0; // µ = 0
        assert!(matches!(decode_weights(Bytes::from(raw)), Err(WeightsDecodeError::BadHeader(_))));
    }

    #[test]
    fn truncated_rejected() {
        let mut g = MatrixRng::seed_from(703);
        let w = BiqWeights::from_signs_unscaled(&g.signs(4, 16), 8);
        let enc = encode_weights(&w);
        assert!(matches!(
            decode_weights(enc.slice(0..enc.len() - 3)),
            Err(WeightsDecodeError::Truncated)
        ));
    }

    #[test]
    fn out_of_range_key_rejected() {
        let mut g = MatrixRng::seed_from(704);
        let w = BiqWeights::from_signs_unscaled(&g.signs(1, 6), 4); // chunks: 4b, 2b
        let mut raw = encode_weights(&w).to_vec();
        let off = raw.len() - 1; // last key (2-bit chunk)
        raw[off] = 9;
        assert!(matches!(decode_weights(Bytes::from(raw)), Err(WeightsDecodeError::BadHeader(_))));
    }
}
