//! Algorithm 3 of the paper: "Unpacking for GEMM".
//!
//! Conventional GEMM cannot consume bit-packed binary weights directly; it
//! must first expand each 32-bit container back into 32 `{−1,+1}` values:
//!
//! ```text
//! procedure unpacking(x):
//!     for i ← 0 to 31: w_i ← (((x >> i) & 1) · 2) − 1
//! ```
//!
//! This module implements that loop exactly as written; `biq-gemm`'s unpack-GEMM baseline calls it in its inner loop so
//! the Fig. 9 experiment measures the true decompression overhead.

/// Unpacks one 32-bit container into 32 signs (`bit i ↦ element i`,
/// `1 ↦ +1.0`, `0 ↦ −1.0`) — Algorithm 3 verbatim.
#[inline]
pub fn unpack_word_u32(x: u32) -> [f32; 32] {
    let mut w = [0.0f32; 32];
    for (i, wi) in w.iter_mut().enumerate() {
        *wi = (((x >> i) & 1) as i32 * 2 - 1) as f32;
    }
    w
}

/// Unpacks a packed row (`words`, LSB-first) into `out` (`out.len()` = the
/// logical width `n`; tail bits beyond `n` are ignored).
pub fn unpack_row_u32(words: &[u32], out: &mut [f32]) {
    let n = out.len();
    debug_assert!(words.len() * 32 >= n, "not enough packed words");
    let mut j = 0;
    for &word in words {
        if j >= n {
            break;
        }
        let take = 32.min(n - j);
        let expanded = unpack_word_u32(word);
        out[j..j + take].copy_from_slice(&expanded[..take]);
        j += take;
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-style loops read clearer in reference checks
mod tests {
    use super::*;
    use crate::packing::PackedRowsU32;
    use biq_matrix::MatrixRng;

    #[test]
    fn unpack_word_all_zeros_and_ones() {
        assert!(unpack_word_u32(0).iter().all(|&v| v == -1.0));
        assert!(unpack_word_u32(u32::MAX).iter().all(|&v| v == 1.0));
    }

    #[test]
    fn unpack_word_single_bits() {
        for i in 0..32 {
            let w = unpack_word_u32(1u32 << i);
            for (j, &v) in w.iter().enumerate() {
                assert_eq!(v, if j == i { 1.0 } else { -1.0 });
            }
        }
    }

    #[test]
    fn unpack_inverts_pack_u32() {
        let mut g = MatrixRng::seed_from(44);
        for cols in [5usize, 32, 45, 96] {
            let s = g.signs(3, cols);
            let p = PackedRowsU32::pack(&s);
            let mut out = vec![0.0f32; cols];
            for i in 0..3 {
                unpack_row_u32(p.row(i), &mut out);
                for (j, &v) in out.iter().enumerate() {
                    assert_eq!(v, s.get(i, j) as f32, "mismatch at ({i}, {j}), cols={cols}");
                }
            }
        }
    }
}
