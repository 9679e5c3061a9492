//! Binary (de)serialization of the dense matrix types.
//!
//! A deliberately simple, versioned, little-endian container format — the
//! deployment path where a quantized model is packed offline and the key
//! matrix (not the dense weights) ships to the device:
//!
//! ```text
//! magic   [4]  b"BIQ1"
//! kind    u8   0 = row-major f32, 1 = col-major f32
//! rows    u64
//! cols    u64
//! payload rows·cols elements (f32 LE)
//! ```
//!
//! All readers validate magic, kind and length before touching the payload
//! and fail with a descriptive [`IoFormatError`].

use crate::dense::{ColMatrix, Matrix};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::io::{Read, Write};

/// Container magic (version 1).
pub const MAGIC: &[u8; 4] = b"BIQ1";

/// Element/layout kind tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Row-major `f32` ([`Matrix`]).
    RowMajorF32 = 0,
    /// Column-major `f32` ([`ColMatrix`]).
    ColMajorF32 = 1,
}

impl Kind {
    fn from_u8(v: u8) -> Result<Self, IoFormatError> {
        match v {
            0 => Ok(Kind::RowMajorF32),
            1 => Ok(Kind::ColMajorF32),
            other => Err(IoFormatError::BadKind(other)),
        }
    }
}

/// Errors raised while decoding a container.
#[derive(Debug)]
pub enum IoFormatError {
    /// Wrong magic bytes.
    BadMagic([u8; 4]),
    /// Unknown kind tag.
    BadKind(u8),
    /// Kind in the file differs from the requested type.
    KindMismatch {
        /// Kind found in the header.
        found: Kind,
        /// Kind the caller asked to decode.
        expected: Kind,
    },
    /// Payload shorter than the header promises.
    Truncated,
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for IoFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoFormatError::BadMagic(m) => write!(f, "bad magic {m:?} (expected BIQ1)"),
            IoFormatError::BadKind(k) => write!(f, "unknown kind tag {k}"),
            IoFormatError::KindMismatch { found, expected } => {
                write!(f, "kind mismatch: file holds {found:?}, expected {expected:?}")
            }
            IoFormatError::Truncated => write!(f, "payload shorter than header promises"),
            IoFormatError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for IoFormatError {}

impl From<std::io::Error> for IoFormatError {
    fn from(e: std::io::Error) -> Self {
        IoFormatError::Io(e)
    }
}

fn put_header(buf: &mut BytesMut, kind: Kind, rows: usize, cols: usize) {
    buf.put_slice(MAGIC);
    buf.put_u8(kind as u8);
    buf.put_u64_le(rows as u64);
    buf.put_u64_le(cols as u64);
}

fn take_header(buf: &mut Bytes, expected: Kind) -> Result<(usize, usize), IoFormatError> {
    if buf.remaining() < 4 + 1 + 16 {
        return Err(IoFormatError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(IoFormatError::BadMagic(magic));
    }
    let kind = Kind::from_u8(buf.get_u8())?;
    if kind != expected {
        return Err(IoFormatError::KindMismatch { found: kind, expected });
    }
    let rows = buf.get_u64_le() as usize;
    let cols = buf.get_u64_le() as usize;
    Ok((rows, cols))
}

/// Encodes a row-major matrix.
pub fn encode_matrix(m: &Matrix) -> Bytes {
    let mut buf = BytesMut::with_capacity(21 + m.len() * 4);
    put_header(&mut buf, Kind::RowMajorF32, m.rows(), m.cols());
    for &v in m.as_slice() {
        buf.put_f32_le(v);
    }
    buf.freeze()
}

/// Decodes a row-major matrix.
pub fn decode_matrix(mut data: Bytes) -> Result<Matrix, IoFormatError> {
    let (rows, cols) = take_header(&mut data, Kind::RowMajorF32)?;
    decode_f32_payload(&mut data, rows, cols).map(|v| Matrix::from_vec(rows, cols, v))
}

/// Encodes a column-major matrix.
pub fn encode_col_matrix(m: &ColMatrix) -> Bytes {
    let mut buf = BytesMut::with_capacity(21 + m.as_slice().len() * 4);
    put_header(&mut buf, Kind::ColMajorF32, m.rows(), m.cols());
    for &v in m.as_slice() {
        buf.put_f32_le(v);
    }
    buf.freeze()
}

/// Decodes a column-major matrix.
pub fn decode_col_matrix(mut data: Bytes) -> Result<ColMatrix, IoFormatError> {
    let (rows, cols) = take_header(&mut data, Kind::ColMajorF32)?;
    decode_f32_payload(&mut data, rows, cols).map(|v| ColMatrix::from_vec(rows, cols, v))
}

/// Checked element count; corrupted headers promising more elements than any
/// real buffer could hold surface as `Truncated` rather than overflowing.
fn checked_count(rows: usize, cols: usize) -> Result<usize, IoFormatError> {
    rows.checked_mul(cols).ok_or(IoFormatError::Truncated)
}

fn decode_f32_payload(
    data: &mut Bytes,
    rows: usize,
    cols: usize,
) -> Result<Vec<f32>, IoFormatError> {
    let count = checked_count(rows, cols)?;
    if data.remaining() < count.checked_mul(4).ok_or(IoFormatError::Truncated)? {
        return Err(IoFormatError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(data.get_f32_le());
    }
    Ok(out)
}

/// Writes an encoded container to a writer.
pub fn write_to<W: Write>(mut w: W, data: &Bytes) -> Result<(), IoFormatError> {
    w.write_all(data)?;
    Ok(())
}

/// Reads a whole container from a reader.
pub fn read_from<R: Read>(mut r: R) -> Result<Bytes, IoFormatError> {
    let mut v = Vec::new();
    r.read_to_end(&mut v)?;
    Ok(Bytes::from(v))
}

/// Peeks at the kind tag of an encoded container.
pub fn peek_kind(data: &Bytes) -> Result<(Kind, usize, usize), IoFormatError> {
    let mut b = data.clone();
    if b.remaining() < 21 {
        return Err(IoFormatError::Truncated);
    }
    let mut magic = [0u8; 4];
    b.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(IoFormatError::BadMagic(magic));
    }
    let kind = Kind::from_u8(b.get_u8())?;
    Ok((kind, b.get_u64_le() as usize, b.get_u64_le() as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::MatrixRng;

    #[test]
    fn matrix_round_trip() {
        let mut g = MatrixRng::seed_from(500);
        let m = g.gaussian(7, 11, 0.0, 3.0);
        let decoded = decode_matrix(encode_matrix(&m)).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn col_matrix_round_trip() {
        let mut g = MatrixRng::seed_from(501);
        let m = g.gaussian_col(5, 4, -1.0, 2.0);
        let decoded = decode_col_matrix(encode_col_matrix(&m)).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn special_float_values_survive() {
        let m = Matrix::from_vec(1, 4, vec![f32::NAN, f32::INFINITY, -0.0, f32::MIN_POSITIVE]);
        let d = decode_matrix(encode_matrix(&m)).unwrap();
        assert!(d.get(0, 0).is_nan());
        assert_eq!(d.get(0, 1), f32::INFINITY);
        assert_eq!(d.get(0, 2).to_bits(), (-0.0f32).to_bits());
        assert_eq!(d.get(0, 3), f32::MIN_POSITIVE);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut g = MatrixRng::seed_from(503);
        let mut raw = encode_matrix(&g.gaussian(2, 2, 0.0, 1.0)).to_vec();
        raw[0] = b'X';
        assert!(matches!(decode_matrix(Bytes::from(raw)), Err(IoFormatError::BadMagic(_))));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut g = MatrixRng::seed_from(504);
        let enc = encode_matrix(&g.gaussian(2, 2, 0.0, 1.0));
        assert!(matches!(decode_col_matrix(enc), Err(IoFormatError::KindMismatch { .. })));
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut g = MatrixRng::seed_from(505);
        let enc = encode_matrix(&g.gaussian(4, 4, 0.0, 1.0));
        let cut = enc.slice(0..enc.len() - 5);
        assert!(matches!(decode_matrix(cut), Err(IoFormatError::Truncated)));
    }

    #[test]
    fn unknown_kind_tag_rejected() {
        // Tag 2 was the retired sign-matrix kind; like any unknown tag it
        // is a typed error from every reader.
        let mut g = MatrixRng::seed_from(502);
        let mut raw = encode_matrix(&g.gaussian(1, 2, 0.0, 1.0)).to_vec();
        raw[4] = 2;
        let raw = Bytes::from(raw);
        assert!(matches!(decode_matrix(raw.clone()), Err(IoFormatError::BadKind(2))));
        assert!(matches!(decode_col_matrix(raw.clone()), Err(IoFormatError::BadKind(2))));
        assert!(matches!(peek_kind(&raw), Err(IoFormatError::BadKind(2))));
    }

    #[test]
    fn peek_reports_kind_and_shape() {
        let mut g = MatrixRng::seed_from(506);
        let enc = encode_col_matrix(&g.gaussian_col(3, 8, 0.0, 1.0));
        let (kind, rows, cols) = peek_kind(&enc).unwrap();
        assert_eq!(kind, Kind::ColMajorF32);
        assert_eq!((rows, cols), (3, 8));
    }

    #[test]
    fn write_read_file_round_trip() {
        let mut g = MatrixRng::seed_from(507);
        let m = g.gaussian(6, 6, 0.0, 1.0);
        let path = std::env::temp_dir().join("biq_io_test.biqm");
        write_to(std::fs::File::create(&path).unwrap(), &encode_matrix(&m)).unwrap();
        let data = read_from(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(decode_matrix(data).unwrap(), m);
        let _ = std::fs::remove_file(path);
    }
}
