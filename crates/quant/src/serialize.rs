//! Binary containers for quantized artifacts — what actually ships in a
//! BiQGEMM deployment (the dense fp32 weights never leave the build host).
//!
//! Formats (little-endian, magic-tagged like `biq-matrix::io`):
//!
//! ```text
//! BIQQ: multi-bit quantized matrix
//!   magic[4] bits:u8 rows:u64 cols:u64
//!   per plane: scales (rows × f32) then signs bit-packed
//!              (rows × ⌈cols/8⌉ bytes, LSB-first, 1 = +1)
//! BIQK: key matrix
//!   magic[4] mu:u8 rows:u64 cols:u64
//!   keys (rows·⌈cols/µ⌉ × ⌈µ/8⌉ bytes: u8 for µ ≤ 8, else u16), then EOF
//! ```
//!
//! Neither format carries a version field; the key width is a function of
//! µ alone ([`crate::packing::key_bytes`]), and a BIQK payload must end
//! with its last key, so a file written with the old fixed `u16` width is
//! refused (trailing bytes) instead of being misread.

use crate::binary_coding::{MultiBitMatrix, QuantPlane};
use crate::packing::{KeyError, KeyMatrix};
use biq_matrix::SignMatrix;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Magic for multi-bit quantized matrices.
pub const MAGIC_QUANT: &[u8; 4] = b"BIQQ";
/// Magic for key matrices.
pub const MAGIC_KEYS: &[u8; 4] = b"BIQK";

/// Decoding failures.
#[derive(Debug)]
pub enum SerializeError {
    /// Wrong magic bytes.
    BadMagic([u8; 4]),
    /// Payload shorter than the header promises.
    Truncated,
    /// Header field out of range (bits/µ zero or too large).
    BadHeader(String),
    /// A key exceeds its chunk's bit width.
    BadKey {
        /// Offending key value.
        key: u16,
        /// Bits available in that chunk.
        bits: usize,
    },
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            SerializeError::Truncated => write!(f, "truncated payload"),
            SerializeError::BadHeader(s) => write!(f, "bad header: {s}"),
            SerializeError::BadKey { key, bits } => {
                write!(f, "key {key} does not fit in {bits} bits")
            }
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<KeyError> for SerializeError {
    fn from(e: KeyError) -> Self {
        match e {
            KeyError::Truncated => SerializeError::Truncated,
            KeyError::OutOfRange { key, bits, .. } => SerializeError::BadKey { key, bits },
            other => SerializeError::BadHeader(other.to_string()),
        }
    }
}

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

/// Encodes a key matrix.
pub fn encode_key_matrix(k: &KeyMatrix) -> Bytes {
    let mut buf = BytesMut::with_capacity(21 + k.storage_bytes());
    buf.put_slice(MAGIC_KEYS);
    buf.put_u8(k.mu() as u8);
    buf.put_u64_le(k.rows() as u64);
    buf.put_u64_le(k.cols() as u64);
    k.encode_le(&mut buf);
    buf.freeze()
}

/// Decodes a key matrix, validating every key against its chunk width.
pub fn decode_key_matrix(mut data: Bytes) -> Result<KeyMatrix, SerializeError> {
    if data.remaining() < 21 {
        return Err(SerializeError::Truncated);
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC_KEYS {
        return Err(SerializeError::BadMagic(magic));
    }
    let mu = data.get_u8() as usize;
    let rows = data.get_u64_le() as usize;
    let cols = data.get_u64_le() as usize;
    if rows == 0 || cols == 0 {
        return Err(SerializeError::BadHeader(format!("shape {rows}x{cols}")));
    }
    let keys = KeyMatrix::decode_le(rows, cols, mu, &mut data)?;
    if data.remaining() > 0 {
        return Err(SerializeError::BadHeader(format!(
            "{} bytes after the last key",
            data.remaining()
        )));
    }
    Ok(keys)
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
    fn key_matrix_round_trip() {
        let mut g = MatrixRng::seed_from(601);
        for (rows, cols, mu) in [(4usize, 24usize, 8usize), (3, 10, 4), (2, 5, 16)] {
            let k = KeyMatrix::pack(&g.signs(rows, cols), mu);
            let rt = decode_key_matrix(encode_key_matrix(&k)).unwrap();
            assert_eq!(rt, k);
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
    fn key_matrix_rejects_oversized_key() {
        let mut g = MatrixRng::seed_from(603);
        let k = KeyMatrix::pack(&g.signs(1, 6), 4); // chunks of 4 and 2 bits
        let mut raw = encode_key_matrix(&k).to_vec();
        // Overwrite the second (2-bit) chunk's key with 7 (needs 3 bits).
        let off = raw.len() - 1;
        raw[off] = 7;
        assert!(matches!(
            decode_key_matrix(Bytes::from(raw)),
            Err(SerializeError::BadKey { key: 7, bits: 2 })
        ));
    }

    #[test]
    fn key_matrix_rejects_bad_mu_and_the_old_u16_width() {
        let mut g = MatrixRng::seed_from(606);
        let k = KeyMatrix::pack(&g.signs(2, 16), 8);
        let mut raw = encode_key_matrix(&k).to_vec();
        raw[4] = 17;
        assert!(matches!(
            decode_key_matrix(Bytes::from(raw.clone())),
            Err(SerializeError::BadHeader(_))
        ));
        // The pre-byte-key layout: the same keys, two bytes each.
        raw[4] = 8;
        let old: Vec<u8> =
            raw[..21].iter().copied().chain(raw[21..].iter().flat_map(|&b| [b, 0])).collect();
        assert!(matches!(decode_key_matrix(Bytes::from(old)), Err(SerializeError::BadHeader(_))));
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
