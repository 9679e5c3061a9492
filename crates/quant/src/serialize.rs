//! Binary container for a quantized matrix — the intermediate artifact of
//! the `quantize → pack` pipeline (the dense fp32 weights never leave the
//! build host; packed keys ship as BIQW or inside a BIQM model artifact).
//!
//! Format (little-endian, magic-tagged like `biq-matrix::io`, no version
//! field):
//!
//! ```text
//! BIQQ: multi-bit quantized matrix
//!   magic[4] bits:u8 rows:u64 cols:u64
//!   per plane: scales (rows × f32) then signs bit-packed
//!              (rows × ⌈cols/8⌉ bytes, LSB-first, 1 = +1)
//! ```

use crate::binary_coding::{MultiBitMatrix, QuantPlane};
use biq_matrix::SignMatrix;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Magic for multi-bit quantized matrices.
pub const MAGIC_QUANT: &[u8; 4] = b"BIQQ";

/// Decoding failures.
#[derive(Debug)]
pub enum SerializeError {
    /// Wrong magic bytes.
    BadMagic([u8; 4]),
    /// Payload shorter than the header promises.
    Truncated,
    /// Header field out of range (bits zero or too large, empty shape).
    BadHeader(String),
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            SerializeError::Truncated => write!(f, "truncated payload"),
            SerializeError::BadHeader(s) => write!(f, "bad header: {s}"),
        }
    }
}

impl std::error::Error for SerializeError {}

/// Encodes a multi-bit quantized matrix (signs bit-packed 8-per-byte).
pub fn encode_multibit(q: &MultiBitMatrix) -> Bytes {
    let (rows, cols) = q.shape();
    let row_bytes = cols.div_ceil(8);
    let mut buf = BytesMut::with_capacity(21 + q.bits() * (rows * 4 + rows * row_bytes));
    buf.put_slice(MAGIC_QUANT);
    buf.put_u8(q.bits() as u8);
    buf.put_u64_le(rows as u64);
    buf.put_u64_le(cols as u64);
    for plane in q.planes() {
        for &s in &plane.scales {
            buf.put_f32_le(s);
        }
        for i in 0..rows {
            let row = plane.signs.row(i);
            for chunk in row.chunks(8) {
                let mut byte = 0u8;
                for (t, &s) in chunk.iter().enumerate() {
                    if s > 0 {
                        byte |= 1 << t;
                    }
                }
                buf.put_u8(byte);
            }
        }
    }
    buf.freeze()
}

/// Decodes a multi-bit quantized matrix.
pub fn decode_multibit(mut data: Bytes) -> Result<MultiBitMatrix, SerializeError> {
    if data.remaining() < 21 {
        return Err(SerializeError::Truncated);
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC_QUANT {
        return Err(SerializeError::BadMagic(magic));
    }
    let bits = data.get_u8() as usize;
    let rows = data.get_u64_le() as usize;
    let cols = data.get_u64_le() as usize;
    if bits == 0 || bits > 32 {
        return Err(SerializeError::BadHeader(format!("bits = {bits}")));
    }
    if rows == 0 || cols == 0 {
        return Err(SerializeError::BadHeader(format!("shape {rows}x{cols}")));
    }
    let row_bytes = cols.div_ceil(8);
    // Checked sizes: corrupted headers must not overflow or over-allocate.
    let scale_bytes = rows.checked_mul(4).ok_or(SerializeError::Truncated)?;
    let plane_bytes = rows.checked_mul(row_bytes).ok_or(SerializeError::Truncated)?;
    let elems = rows.checked_mul(cols).ok_or(SerializeError::Truncated)?;
    let mut planes = Vec::with_capacity(bits);
    for _ in 0..bits {
        if data.remaining() < scale_bytes {
            return Err(SerializeError::Truncated);
        }
        let mut scales = Vec::with_capacity(rows);
        for _ in 0..rows {
            scales.push(data.get_f32_le());
        }
        if data.remaining() < plane_bytes {
            return Err(SerializeError::Truncated);
        }
        let mut signs = Vec::with_capacity(elems);
        for _ in 0..rows {
            let mut produced = 0;
            for _ in 0..row_bytes {
                let byte = data.get_u8();
                for t in 0..8 {
                    if produced == cols {
                        break;
                    }
                    signs.push(if (byte >> t) & 1 == 1 { 1i8 } else { -1i8 });
                    produced += 1;
                }
            }
        }
        planes.push(QuantPlane { signs: SignMatrix::from_vec(rows, cols, signs), scales });
    }
    Ok(MultiBitMatrix::new(planes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary_coding::greedy_quantize_matrix_rowwise;
    use biq_matrix::MatrixRng;

    #[test]
    fn multibit_round_trip() {
        let mut g = MatrixRng::seed_from(600);
        for (rows, cols, bits) in [(5usize, 16usize, 1usize), (7, 13, 3), (1, 1, 2)] {
            let w = g.gaussian(rows, cols, 0.0, 1.0);
            let q = greedy_quantize_matrix_rowwise(&w, bits);
            let rt = decode_multibit(encode_multibit(&q)).unwrap();
            assert_eq!(rt.bits(), q.bits());
            assert_eq!(rt.shape(), q.shape());
            for (a, b) in rt.planes().iter().zip(q.planes()) {
                assert_eq!(a.scales, b.scales);
                assert_eq!(a.signs, b.signs);
            }
        }
    }

    #[test]
    fn multibit_bad_magic() {
        let mut g = MatrixRng::seed_from(602);
        let q = greedy_quantize_matrix_rowwise(&g.gaussian(2, 4, 0.0, 1.0), 1);
        let mut raw = encode_multibit(&q).to_vec();
        raw[1] = b'X';
        assert!(matches!(decode_multibit(Bytes::from(raw)), Err(SerializeError::BadMagic(_))));
    }

    #[test]
    fn truncation_detected() {
        let mut g = MatrixRng::seed_from(604);
        let q = greedy_quantize_matrix_rowwise(&g.gaussian(3, 9, 0.0, 1.0), 2);
        let enc = encode_multibit(&q);
        for cut in [5usize, 20, enc.len() - 1] {
            assert!(matches!(decode_multibit(enc.slice(0..cut)), Err(SerializeError::Truncated)));
        }
    }

    #[test]
    fn compression_ratio_is_real() {
        // 3-bit quantized 256x256: 3·(256·4 + 256·32) bytes ≈ 27.6 KB vs
        // 256 KB dense fp32.
        let mut g = MatrixRng::seed_from(605);
        let q = greedy_quantize_matrix_rowwise(&g.gaussian(256, 256, 0.0, 1.0), 3);
        let enc = encode_multibit(&q);
        assert!(enc.len() < 256 * 256 * 4 / 8, "encoded {} bytes", enc.len());
    }
}
