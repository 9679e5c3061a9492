//! Bit-packing of sign matrices.
//!
//! Three packed formats, one per consumer:
//!
//! * [`KeyMatrix`] — the paper's key matrix `K ∈ Z^{m×⌈n/µ⌉}` (Fig. 5): each
//!   run of µ consecutive signs *within a row* becomes one integer key,
//!   **MSB-first** with `+1 ↦ 1` (`{−1,+1,+1,−1} ↦ 0b0110 = 6`). Keys index
//!   directly into BiQGEMM's lookup tables. A ragged final chunk of length
//!   `L < µ` packs into the low `L` bits (its LUT has `2^L` entries). Keys
//!   are stored `⌈µ/8⌉` bytes wide ([`key_bytes`]) and reach the kernels
//!   only as range-checked [`KeyTile`] windows.
//! * [`PackedRowsU32`] / [`PackedRowsU64`] — 32/64 consecutive signs per row
//!   packed **LSB-first** (`bit i ↦ element 32·w + i`), matching the paper's
//!   Algorithm 3 unpack loop `w_i = (((x >> i) & 1) · 2) − 1`. Used by the
//!   unpack-GEMM baseline (Fig. 9) and the XNOR-popcount kernel (Table IV).
//!
//! All packers round-trip exactly against [`crate::unpack`]; property tests
//! cover ragged widths.

use biq_matrix::store::{PodStore, PodView};
use biq_matrix::SignMatrix;
use bytes::BufMut;
use std::fmt;
use std::ops::Range;

/// Stored bytes per key at LUT-unit `mu`: `⌈µ/8⌉` — one byte through µ = 8
/// (the shipped default), two for µ 9–16. This is the *only* place the
/// width rule lives; every container format and the kernels derive the
/// width from µ through it.
#[inline]
pub const fn key_bytes(mu: usize) -> usize {
    mu.div_ceil(8)
}

/// Key storage, one element per key at the width [`key_bytes`] gives.
/// Either representation is shared-capable, so a key matrix deserialized
/// from a model artifact borrows the artifact's byte buffer instead of
/// re-allocating.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyStore {
    /// One byte per key (µ ≤ 8).
    U8(PodStore<u8>),
    /// Two bytes per key (µ 9–16).
    U16(PodStore<u16>),
}

impl KeyStore {
    fn len(&self) -> usize {
        match self {
            KeyStore::U8(k) => k.len(),
            KeyStore::U16(k) => k.len(),
        }
    }

    fn elem_bytes(&self) -> usize {
        match self {
            KeyStore::U8(_) => 1,
            KeyStore::U16(_) => 2,
        }
    }
}

/// Why a key buffer is not a valid key matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyError {
    /// µ outside `1..=16`.
    BadMu(usize),
    /// The matrix has no columns.
    NoColumns,
    /// The element width disagrees with [`key_bytes`]`(µ)`.
    Width {
        /// LUT-unit of the matrix.
        mu: usize,
        /// Bytes per element of the offered buffer.
        elem_bytes: usize,
    },
    /// The buffer does not hold `rows · ⌈cols/µ⌉` keys.
    Length {
        /// Keys offered.
        keys: usize,
        /// Rows claimed.
        rows: usize,
        /// Chunks per row implied by `cols` and µ.
        chunks: usize,
    },
    /// A key does not fit its chunk's bit width.
    OutOfRange {
        /// Offending key value.
        key: u16,
        /// Chunk (key column) it sits in.
        chunk: usize,
        /// Bits available in that chunk.
        bits: usize,
    },
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::BadMu(mu) => write!(f, "LUT-unit µ must be in 1..=16, got {mu}"),
            KeyError::NoColumns => write!(f, "key matrix must have columns"),
            KeyError::Width { mu, elem_bytes } => write!(
                f,
                "µ = {mu} keys are {} byte(s) wide, buffer elements are {elem_bytes}",
                key_bytes(*mu)
            ),
            KeyError::Length { keys, rows, chunks } => {
                write!(
                    f,
                    "key buffer length mismatch: {keys} keys for {rows} rows x {chunks} chunks"
                )
            }
            KeyError::OutOfRange { key, chunk, bits } => {
                write!(f, "key {key} at chunk {chunk} exceeds {bits} bits")
            }
        }
    }
}

impl std::error::Error for KeyError {}

/// The paper's key matrix: µ-bit row chunks of a binary weight matrix,
/// stored once, [`key_bytes`]`(µ)` bytes per key.
///
/// **Range invariant:** every stored key is `< 2^L` for its chunk's length
/// `L ≤ µ` — hence `< 2^µ`, the stride of a lookup table. Every constructor
/// establishes it (packing by construction, [`KeyMatrix::try_new`] by a
/// load-time scan; byte keys at µ = 8 are in
/// range by type, so only a ragged last chunk is scanned), the storage is
/// never handed out mutably, and [`KeyTile`] — the only way the kernels see
/// keys — carries it to the gather loops, which therefore index tables
/// without re-checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyMatrix {
    rows: usize,
    /// Logical width of the source sign matrix (may be ragged w.r.t. µ).
    cols: usize,
    mu: usize,
    chunks: usize,
    keys: KeyStore,
}

/// First out-of-range key of a row-major `rows × chunks` buffer: full
/// chunks hold `mu` bits, the last chunk of each row `last_len`. Columns
/// whose bit width fills the element type are skipped — nothing to check.
fn find_out_of_range<T: Copy + Into<u16>>(
    ks: &[T],
    chunks: usize,
    mu: usize,
    last_len: usize,
) -> Option<KeyError> {
    let elem_bits = 8 * std::mem::size_of::<T>();
    if mu >= elem_bits && last_len >= elem_bits {
        return None; // every value of `T` is in range: no scan at all
    }
    let bad = |key: T, chunk: usize, bits: usize| {
        let key: u16 = key.into();
        (key >> bits != 0).then_some(KeyError::OutOfRange { key, chunk, bits })
    };
    for row in ks.chunks_exact(chunks) {
        if mu < elem_bits {
            let full = &row[..chunks - 1];
            if let Some(e) = full.iter().enumerate().find_map(|(c, &k)| bad(k, c, mu)) {
                return Some(e);
            }
        }
        if last_len < elem_bits {
            if let Some(e) = bad(row[chunks - 1], chunks - 1, last_len) {
                return Some(e);
            }
        }
    }
    None
}

/// Row-major keys of `signs`: each run of `mu` signs within a row, MSB-first
/// with `+1 ↦ 1`, narrowed to the stored element type.
fn pack_keys<T>(signs: &SignMatrix, mu: usize, narrow: impl Fn(u16) -> T) -> Vec<T> {
    let (rows, cols) = signs.shape();
    let mut keys = Vec::with_capacity(rows * cols.div_ceil(mu));
    for i in 0..rows {
        keys.extend(
            signs
                .row(i)
                .chunks(mu)
                .map(|c| narrow(c.iter().fold(0u16, |k, &s| (k << 1) | u16::from(s > 0)))),
        );
    }
    keys
}

impl KeyMatrix {
    /// Packs a `{−1,+1}` matrix into µ-bit keys.
    ///
    /// # Panics
    /// Panics unless `1 ≤ µ ≤ 16`.
    pub fn pack(signs: &SignMatrix, mu: usize) -> Self {
        assert!((1..=16).contains(&mu), "LUT-unit µ must be in 1..=16, got {mu}");
        let (rows, cols) = signs.shape();
        assert!(cols > 0, "cannot pack an empty matrix");
        let chunks = cols.div_ceil(mu);
        let keys = if key_bytes(mu) == 1 {
            // µ ≤ 8 shifts: the key fits a byte.
            KeyStore::U8(pack_keys(signs, mu, |k| k as u8).into())
        } else {
            KeyStore::U16(pack_keys(signs, mu, |k| k).into())
        };
        Self { rows, cols, mu, chunks, keys }
    }

    /// Builds a key matrix over an existing buffer — owned, or a zero-copy
    /// artifact view — after checking µ, the element width against
    /// [`key_bytes`], the length, and every key against its chunk's bit
    /// width. This is where untrusted keys enter; violations are errors,
    /// never panics.
    pub fn try_new(rows: usize, cols: usize, mu: usize, keys: KeyStore) -> Result<Self, KeyError> {
        if !(1..=16).contains(&mu) {
            return Err(KeyError::BadMu(mu));
        }
        if cols == 0 {
            return Err(KeyError::NoColumns);
        }
        if keys.elem_bytes() != key_bytes(mu) {
            return Err(KeyError::Width { mu, elem_bytes: keys.elem_bytes() });
        }
        let chunks = cols.div_ceil(mu);
        if rows.checked_mul(chunks) != Some(keys.len()) {
            return Err(KeyError::Length { keys: keys.len(), rows, chunks });
        }
        let last_len = cols - (chunks - 1) * mu;
        let bad = match &keys {
            KeyStore::U8(k) => find_out_of_range(k.as_slice(), chunks, mu, last_len),
            KeyStore::U16(k) => find_out_of_range(k.as_slice(), chunks, mu, last_len),
        };
        match bad {
            Some(e) => Err(e),
            None => Ok(Self { rows, cols, mu, chunks, keys }),
        }
    }

    /// Appends the keys little-endian, [`key_bytes`]`(µ)` bytes each
    /// ([`KeyMatrix::storage_bytes`] bytes) — the BIQM key-section form
    /// [`KeyMatrix::try_new`] validates on load.
    pub fn encode_le(&self, out: &mut impl BufMut) {
        match &self.keys {
            KeyStore::U8(k) => out.put_slice(k.as_slice()),
            KeyStore::U16(k) => k.iter().for_each(|&key| out.put_u16_le(key)),
        }
    }

    /// True when the keys are a borrowed artifact view.
    pub fn is_shared(&self) -> bool {
        match &self.keys {
            KeyStore::U8(k) => k.is_shared(),
            KeyStore::U16(k) => k.is_shared(),
        }
    }

    /// Number of key rows (`m`, or `β·m` for stacked multi-bit weights).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count `n` of the source sign matrix.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The LUT-unit µ this matrix was packed with.
    #[inline]
    pub fn mu(&self) -> usize {
        self.mu
    }

    /// Number of key columns `⌈n/µ⌉`.
    #[inline]
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Length (in signs) of chunk `beta` — `µ` except possibly the last.
    #[inline]
    pub fn chunk_len(&self, beta: usize) -> usize {
        debug_assert!(beta < self.chunks);
        self.mu.min(self.cols - beta * self.mu)
    }

    /// Key at `(row, chunk)`.
    #[inline]
    pub fn key(&self, row: usize, beta: usize) -> u16 {
        assert!(row < self.rows && beta < self.chunks, "key index out of range");
        let at = row * self.chunks + beta;
        match &self.keys {
            KeyStore::U8(k) => u16::from(k[at]),
            KeyStore::U16(k) => k[at],
        }
    }

    /// The kernels' view of key rows `rows` × key columns `c0 .. c0 + nc`:
    /// a window of the one stored buffer, carrying the range invariant.
    ///
    /// # Panics
    /// Panics when the window leaves the matrix.
    #[inline]
    pub fn tile(&self, rows: Range<usize>, c0: usize, nc: usize) -> KeyTile<'_> {
        assert!(rows.start <= rows.end && rows.end <= self.rows, "key tile rows out of range");
        assert!(c0 + nc <= self.chunks, "key tile columns out of range");
        let nr = rows.len();
        let span = if nr == 0 {
            0..0
        } else {
            rows.start * self.chunks + c0..(rows.end - 1) * self.chunks + c0 + nc
        };
        let keys = match &self.keys {
            KeyStore::U8(k) => Keys::U8(&k.as_slice()[span]),
            KeyStore::U16(k) => Keys::U16(&k.as_slice()[span]),
        };
        KeyTile { keys, stride: self.chunks, rows: nr, nc, mu: self.mu }
    }

    /// Unpacks back to a dense sign matrix (inverse of [`Self::pack`]).
    pub fn unpack(&self) -> SignMatrix {
        SignMatrix::from_fn(self.rows, self.cols, |i, j| {
            let beta = j / self.mu;
            let within = j % self.mu;
            let len = self.chunk_len(beta);
            let key = self.key(i, beta);
            (key >> (len - 1 - within)) & 1 == 1
        })
    }

    /// Bytes used by the key storage: [`key_bytes`]`(µ)` per key.
    pub fn storage_bytes(&self) -> usize {
        self.keys.len() * self.keys.elem_bytes()
    }
}

/// A borrowed run of keys at their stored width.
#[derive(Clone, Copy, Debug)]
pub enum Keys<'a> {
    /// One byte per key (µ ≤ 8).
    U8(&'a [u8]),
    /// Two bytes per key (µ 9–16).
    U16(&'a [u16]),
}

/// A window of a [`KeyMatrix`] — `rows()` key rows × `nc()` key columns —
/// as the query kernels consume it. Only [`KeyMatrix::tile`] (and
/// [`KeyTile::row`] on an existing tile) can produce one, so holding a
/// `KeyTile` proves its geometry is in bounds and **every key in it is
/// `< 2^µ`**: the matrix validated that at construction and never exposes
/// its storage mutably. The gather kernels rely on this instead of
/// re-scanning keys per call.
#[derive(Clone, Copy, Debug)]
pub struct KeyTile<'a> {
    /// Row `i` of the tile is `keys[i · stride ..][.. nc]`.
    keys: Keys<'a>,
    stride: usize,
    rows: usize,
    nc: usize,
    mu: usize,
}

impl<'a> KeyTile<'a> {
    /// The key slab: row `i` occupies `[i · stride() ..][.. nc()]`, and the
    /// slab ends with the last row's last key.
    #[inline]
    pub fn keys(&self) -> Keys<'a> {
        self.keys
    }

    /// Distance between consecutive rows in the slab (`≥ nc()`).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Key rows in the window.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Key columns (chunks) in the window.
    #[inline]
    pub fn nc(&self) -> usize {
        self.nc
    }

    /// The LUT-unit of the source matrix; every key is `< 2^µ`.
    #[inline]
    pub fn mu(&self) -> usize {
        self.mu
    }

    /// The one-row window of row `i`.
    ///
    /// # Panics
    /// Panics when `i ≥ rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> KeyTile<'a> {
        assert!(i < self.rows, "key tile row out of range");
        let span = i * self.stride..i * self.stride + self.nc;
        let keys = match self.keys {
            Keys::U8(k) => Keys::U8(&k[span]),
            Keys::U16(k) => Keys::U16(&k[span]),
        };
        KeyTile { keys, rows: 1, ..*self }
    }

    /// Key at `(row i, column c)` of the window, as a table index.
    #[inline]
    pub fn key(&self, i: usize, c: usize) -> usize {
        assert!(i < self.rows && c < self.nc, "key tile index out of range");
        match self.keys {
            Keys::U8(k) => usize::from(k[i * self.stride + c]),
            Keys::U16(k) => usize::from(k[i * self.stride + c]),
        }
    }
}

/// Macro-free generic row packer for LSB-first word packing.
macro_rules! packed_rows {
    ($name:ident, $word:ty, $bits:expr) => {
        /// Sign rows packed LSB-first into machine words (bit `i` of word `w`
        /// holds element `w·WORD_BITS + i`; `+1 ↦ 1`). Tail bits of the final
        /// word are zero.
        ///
        /// Word storage is a [`PodStore`], so planes deserialized from a
        /// model artifact borrow the artifact's buffer
        /// (`from_shared`) instead of re-allocating.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct $name {
            rows: usize,
            cols: usize,
            words_per_row: usize,
            words: PodStore<$word>,
        }

        impl $name {
            /// Number of bits per storage word.
            pub const WORD_BITS: usize = $bits;

            /// Packs a sign matrix row by row.
            pub fn pack(signs: &SignMatrix) -> Self {
                let (rows, cols) = signs.shape();
                let words_per_row = cols.div_ceil(Self::WORD_BITS);
                let mut words = vec![0 as $word; rows * words_per_row];
                for i in 0..rows {
                    let row = signs.row(i);
                    let dst = &mut words[i * words_per_row..(i + 1) * words_per_row];
                    for (j, &s) in row.iter().enumerate() {
                        if s > 0 {
                            dst[j / Self::WORD_BITS] |= (1 as $word) << (j % Self::WORD_BITS);
                        }
                    }
                }
                Self { rows, cols, words_per_row, words: words.into() }
            }

            /// Rebuilds packed rows from raw parts (deserialization path).
            ///
            /// # Panics
            /// Panics when the buffer length disagrees with
            /// `rows · ⌈cols/WORD_BITS⌉` or a final-word tail bit is set
            /// (tail bits must be zero so XNOR tail masks stay exact).
            pub fn from_raw(rows: usize, cols: usize, words: Vec<$word>) -> Self {
                Self::from_store(rows, cols, words.into())
            }

            /// Rebuilds packed rows over a zero-copy artifact view — same
            /// validation as `from_raw`, words stay borrowed.
            ///
            /// # Panics
            /// Panics under the same conditions as `from_raw`.
            pub fn from_shared(rows: usize, cols: usize, words: PodView<$word>) -> Self {
                Self::from_store(rows, cols, words.into())
            }

            /// Non-panicking `from_shared` for untrusted input (artifact
            /// loaders).
            pub fn try_from_shared(
                rows: usize,
                cols: usize,
                words: PodView<$word>,
            ) -> Result<Self, String> {
                Self::try_from_store(rows, cols, words.into())
            }

            fn from_store(rows: usize, cols: usize, words: PodStore<$word>) -> Self {
                Self::try_from_store(rows, cols, words).unwrap_or_else(|e| panic!("{e}"))
            }

            fn try_from_store(
                rows: usize,
                cols: usize,
                words: PodStore<$word>,
            ) -> Result<Self, String> {
                if cols == 0 {
                    return Err("packed rows must have columns".into());
                }
                let words_per_row = cols.div_ceil(Self::WORD_BITS);
                if words.len() != rows * words_per_row {
                    return Err(format!(
                        "word buffer length mismatch: {} words for {rows} rows",
                        words.len()
                    ));
                }
                let out = Self { rows, cols, words_per_row, words };
                let tail = out.tail_mask();
                for i in 0..rows {
                    let last = out.row(i)[words_per_row - 1];
                    if last & !tail != 0 {
                        return Err(format!("tail bits of row {i} must be zero"));
                    }
                }
                Ok(out)
            }

            /// The raw packed words (row-major, `words_per_row` per row).
            #[inline]
            pub fn as_words(&self) -> &[$word] {
                self.words.as_slice()
            }

            /// Number of rows.
            #[inline]
            pub fn rows(&self) -> usize {
                self.rows
            }

            /// Logical column count (signs per row).
            #[inline]
            pub fn cols(&self) -> usize {
                self.cols
            }

            /// Words per packed row.
            #[inline]
            pub fn words_per_row(&self) -> usize {
                self.words_per_row
            }

            /// The packed words of row `i`.
            #[inline]
            pub fn row(&self, i: usize) -> &[$word] {
                &self.words[i * self.words_per_row..(i + 1) * self.words_per_row]
            }

            /// Mask selecting the valid bits of the final word of a row
            /// (all-ones when the width divides the word size).
            #[inline]
            pub fn tail_mask(&self) -> $word {
                let rem = self.cols % Self::WORD_BITS;
                if rem == 0 {
                    <$word>::MAX
                } else {
                    ((1 as $word) << rem) - 1
                }
            }

            /// Sign at `(i, j)` recovered from the packed form.
            #[inline]
            pub fn get(&self, i: usize, j: usize) -> i8 {
                debug_assert!(i < self.rows && j < self.cols);
                let w = self.row(i)[j / Self::WORD_BITS];
                if (w >> (j % Self::WORD_BITS)) & 1 == 1 {
                    1
                } else {
                    -1
                }
            }

            /// Unpacks back to a dense sign matrix.
            pub fn unpack(&self) -> SignMatrix {
                SignMatrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j) == 1)
            }

            /// Bytes used by the packed storage.
            pub fn storage_bytes(&self) -> usize {
                self.words.len() * std::mem::size_of::<$word>()
            }
        }
    };
}

packed_rows!(PackedRowsU32, u32, 32);
packed_rows!(PackedRowsU64, u64, 64);

/// Packs a sign *vector* LSB-first into `u64` words (for XNOR activations).
pub fn pack_signs_u64(signs: &[i8]) -> Vec<u64> {
    let words = signs.len().div_ceil(64);
    let mut out = vec![0u64; words];
    for (j, &s) in signs.iter().enumerate() {
        debug_assert!(s == 1 || s == -1);
        if s > 0 {
            out[j / 64] |= 1u64 << (j % 64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_matrix::MatrixRng;

    #[test]
    fn key_matches_paper_example() {
        // Fig. 5: {−1, 1, 1, −1} -> 0110₂ = 6 with µ = 4.
        let s = SignMatrix::from_vec(1, 4, vec![-1, 1, 1, -1]);
        let k = KeyMatrix::pack(&s, 4);
        assert_eq!(k.key(0, 0), 6);
    }

    #[test]
    fn keys_are_msb_first() {
        // {+1, −1, −1, −1} -> 1000₂ = 8.
        let s = SignMatrix::from_vec(1, 4, vec![1, -1, -1, -1]);
        assert_eq!(KeyMatrix::pack(&s, 4).key(0, 0), 8);
        // {−1, −1, −1, +1} -> 0001₂ = 1.
        let s = SignMatrix::from_vec(1, 4, vec![-1, -1, -1, 1]);
        assert_eq!(KeyMatrix::pack(&s, 4).key(0, 0), 1);
    }

    #[test]
    fn key_pack_unpack_round_trip() {
        let mut g = MatrixRng::seed_from(31);
        for (rows, cols, mu) in [(3, 12, 4), (2, 10, 4), (5, 7, 3), (1, 16, 16), (4, 9, 8)] {
            let s = g.signs(rows, cols);
            let k = KeyMatrix::pack(&s, mu);
            assert_eq!(k.unpack(), s, "round trip failed rows={rows} cols={cols} mu={mu}");
        }
    }

    #[test]
    fn ragged_tail_chunk_lengths() {
        let mut g = MatrixRng::seed_from(32);
        let s = g.signs(2, 10);
        let k = KeyMatrix::pack(&s, 4);
        assert_eq!(k.chunks(), 3);
        assert_eq!(k.chunk_len(0), 4);
        assert_eq!(k.chunk_len(2), 2);
        // Ragged key fits in 2 bits.
        assert!(k.key(0, 2) < 4);
    }

    #[test]
    fn tile_windows_the_stored_keys() {
        let mut g = MatrixRng::seed_from(33);
        for mu in [4usize, 8, 12] {
            let k = KeyMatrix::pack(&g.signs(5, 6 * mu + 3), mu);
            let t = k.tile(1..4, 2, 3);
            assert_eq!((t.rows(), t.nc(), t.stride(), t.mu()), (3, 3, k.chunks(), mu));
            for i in 0..3 {
                for c in 0..3 {
                    assert_eq!(t.key(i, c), usize::from(k.key(1 + i, 2 + c)), "µ={mu}");
                    assert_eq!(t.row(i).key(0, c), t.key(i, c));
                }
            }
            assert_eq!(k.tile(2..2, 0, k.chunks()).rows(), 0);
        }
    }

    #[test]
    fn width_follows_mu_alone() {
        let mut g = MatrixRng::seed_from(37);
        for mu in 1..=16usize {
            let k = KeyMatrix::pack(&g.signs(3, 2 * mu + 1), mu);
            assert_eq!(k.storage_bytes(), 3 * 3 * key_bytes(mu), "µ={mu}");
            assert!(matches!(
                (mu <= 8, k.tile(0..3, 0, 3).keys()),
                (true, Keys::U8(_)) | (false, Keys::U16(_))
            ));
        }
    }

    #[test]
    fn try_new_rejects_wrong_width_length_and_range() {
        let u8s = |v: Vec<u8>| KeyStore::U8(v.into());
        let u16s = |v: Vec<u16>| KeyStore::U16(v.into());
        assert_eq!(
            KeyMatrix::try_new(1, 8, 8, u16s(vec![0])),
            Err(KeyError::Width { mu: 8, elem_bytes: 2 })
        );
        assert_eq!(
            KeyMatrix::try_new(1, 9, 9, u8s(vec![0])),
            Err(KeyError::Width { mu: 9, elem_bytes: 1 })
        );
        assert_eq!(
            KeyMatrix::try_new(2, 8, 4, u8s(vec![0; 3])),
            Err(KeyError::Length { keys: 3, rows: 2, chunks: 2 })
        );
        // Full 4-bit chunk holding 16; ragged 2-bit chunk holding 4.
        assert_eq!(
            KeyMatrix::try_new(1, 6, 4, u8s(vec![16, 0])),
            Err(KeyError::OutOfRange { key: 16, chunk: 0, bits: 4 })
        );
        assert_eq!(
            KeyMatrix::try_new(1, 6, 4, u8s(vec![15, 4])),
            Err(KeyError::OutOfRange { key: 4, chunk: 1, bits: 2 })
        );
        // µ = 8: full chunks are in range by type, a ragged tail is not.
        assert!(KeyMatrix::try_new(1, 16, 8, u8s(vec![255, 255])).is_ok());
        assert_eq!(
            KeyMatrix::try_new(1, 11, 8, u8s(vec![255, 8])),
            Err(KeyError::OutOfRange { key: 8, chunk: 1, bits: 3 })
        );
        assert_eq!(
            KeyMatrix::try_new(1, 12, 12, u16s(vec![1 << 12])),
            Err(KeyError::OutOfRange { key: 1 << 12, chunk: 0, bits: 12 })
        );
        assert_eq!(KeyMatrix::try_new(1, 4, 0, u8s(vec![0])), Err(KeyError::BadMu(0)));
        assert_eq!(KeyMatrix::try_new(1, 0, 4, u8s(vec![])), Err(KeyError::NoColumns));
    }

    #[test]
    #[should_panic(expected = "µ must be in 1..=16")]
    fn mu_over_16_rejected() {
        let s = SignMatrix::ones(1, 32);
        let _ = KeyMatrix::pack(&s, 17);
    }

    #[test]
    fn packed_u32_round_trip_with_ragged_width() {
        let mut g = MatrixRng::seed_from(34);
        for cols in [1usize, 31, 32, 33, 70] {
            let s = g.signs(3, cols);
            let p = PackedRowsU32::pack(&s);
            assert_eq!(p.unpack(), s, "u32 round trip failed cols={cols}");
            assert_eq!(p.words_per_row(), cols.div_ceil(32));
        }
    }

    #[test]
    fn packed_u64_round_trip() {
        let mut g = MatrixRng::seed_from(35);
        for cols in [1usize, 63, 64, 65, 130] {
            let s = g.signs(2, cols);
            let p = PackedRowsU64::pack(&s);
            assert_eq!(p.unpack(), s, "u64 round trip failed cols={cols}");
        }
    }

    #[test]
    fn packed_is_lsb_first() {
        // Element 0 = +1, rest −1 -> word 0 has only bit 0 set.
        let mut signs = vec![-1i8; 40];
        signs[0] = 1;
        signs[33] = 1;
        let s = SignMatrix::from_vec(1, 40, signs);
        let p = PackedRowsU32::pack(&s);
        assert_eq!(p.row(0)[0], 1);
        assert_eq!(p.row(0)[1], 1 << 1); // element 33 = word 1, bit 1
    }

    #[test]
    fn tail_mask_selects_valid_bits() {
        let s = SignMatrix::ones(1, 40);
        let p = PackedRowsU32::pack(&s);
        assert_eq!(p.tail_mask(), (1u32 << 8) - 1);
        let s = SignMatrix::ones(1, 64);
        let p = PackedRowsU64::pack(&s);
        assert_eq!(p.tail_mask(), u64::MAX);
    }

    #[test]
    fn pack_signs_u64_matches_matrix_packer() {
        let mut g = MatrixRng::seed_from(36);
        let s = g.signs(1, 100);
        let v = pack_signs_u64(s.row(0));
        let p = PackedRowsU64::pack(&s);
        assert_eq!(v, p.row(0));
    }

    #[test]
    fn storage_bytes_reflect_compression() {
        let s = SignMatrix::ones(128, 1024);
        let k = KeyMatrix::pack(&s, 8);
        // 128 rows * 128 chunks * 1 byte (µ = 8).
        assert_eq!(k.storage_bytes(), 128 * 128);
        assert_eq!(KeyMatrix::pack(&s, 16).storage_bytes(), 128 * 64 * 2);
        let p = PackedRowsU32::pack(&s);
        assert_eq!(p.storage_bytes(), 128 * 32 * 4);
    }
}
