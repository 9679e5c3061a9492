//! Cache-blocked, register-tiled fp32 GEMM — the workspace's stand-in for a
//! vendor-tuned library (the paper's `eigen` / `mkl` / `cublas` baselines).
//!
//! Strategy (classic three-level blocking):
//!
//! 1. the input `X` (column-major `n × b`) is packed once into row-major
//!    `n × b` so a whole batch row `X[k, :]` is contiguous;
//! 2. `k` is blocked (`KC`) to keep the packed panel hot in L2;
//! 3. rows are register-tiled `MR = 4` at a time: four output rows accumulate
//!    simultaneously against each shared `X` row, so each loaded `X[k, :]`
//!    vector is reused 4× from registers;
//! 4. the innermost loop runs over the contiguous batch dimension and
//!    autovectorises (the slice-of-known-length pattern recommended by the
//!    perf-book's bounds-check chapter).
//!
//! For `b == 1` the axpy formulation degenerates, so [`gemv_blocked`] runs a
//! row-interleaved dot-product kernel instead; [`gemm_blocked`] dispatches
//! automatically. The GEMV accumulates each output element in plain
//! ascending-`k` order — the exact per-element order of the batched kernel
//! (which adds into `y[i]` once per `k`, ascending, across `KC` blocks) —
//! so the fp32-blocked family is packing-invariant: batching a column with
//! others, or serving it alone, produces bit-identical results. ILP comes
//! from interleaving `MR` independent row sums, never from splitting one
//! row's sum across accumulators.

use biq_matrix::{ColMatrix, Matrix};

/// Rows per register tile.
const MR: usize = 4;
/// `k`-dimension block: `KC · b · 4` bytes of packed panel should stay in L2.
const KC: usize = 256;

/// Blocked `Y = W · X`. Dispatches to a GEMV kernel when `b == 1`.
///
/// # Panics
/// Panics if `x.rows() != w.cols()`.
pub fn gemm_blocked(w: &Matrix, x: &ColMatrix) -> Matrix {
    let mut y = Matrix::zeros(w.rows(), x.cols());
    let mut pack = Vec::new();
    gemm_blocked_into(w, x, &mut pack, y.as_mut_slice());
    y
}

/// Blocked GEMM into a caller-provided row-major `m × b` buffer
/// (overwritten), with the `X`-panel packed into reusable caller scratch —
/// the allocation-free form the runtime executor dispatches to.
///
/// # Panics
/// Panics if `x.rows() != w.cols()` or `y.len() != m·b`.
pub fn gemm_blocked_into(w: &Matrix, x: &ColMatrix, pack: &mut Vec<f32>, y: &mut [f32]) {
    assert_eq!(x.rows(), w.cols(), "gemm inner dimension mismatch");
    let (m, b) = (w.rows(), x.cols());
    assert_eq!(y.len(), m * b, "output buffer must hold m·b floats");
    if b == 1 {
        gemv_rows_into(w, x.col(0), 0, y);
        return;
    }
    pack_input_row_major_into(x, pack);
    y.fill(0.0);
    gemm_blocked_packed(w, pack, b, 0, y);
}

/// Packs a column-major `n × b` input into a row-major buffer (row `k`
/// contiguous over the batch). This is the `X`-panel packing a library GEMM
/// performs internally.
pub fn pack_input_row_major(x: &ColMatrix) -> Vec<f32> {
    let mut xr = Vec::new();
    pack_input_row_major_into(x, &mut xr);
    xr
}

/// [`pack_input_row_major`] into reusable caller scratch (grown as needed,
/// never shrunk).
pub fn pack_input_row_major_into(x: &ColMatrix, xr: &mut Vec<f32>) {
    let (n, b) = x.shape();
    if xr.len() < n * b {
        xr.resize(n * b, 0.0);
    }
    let xr = &mut xr[..n * b];
    for alpha in 0..b {
        let col = x.col(alpha);
        for (k, &v) in col.iter().enumerate() {
            xr[k * b + alpha] = v;
        }
    }
}

/// The blocked kernel over the row block of `W` that starts at `row0`,
/// accumulating into `y` — that block of the output, row-major
/// `rows × b` (the whole matrix for the serial driver, one thread's
/// disjoint rows for the parallel one). Inlined into each driver, so the
/// serial one keeps `row0 = 0` folded away.
#[inline(always)]
pub(crate) fn gemm_blocked_packed(w: &Matrix, xr: &[f32], b: usize, row0: usize, y: &mut [f32]) {
    let n = w.cols();
    let rows = y.len() / b;
    let mut k0 = 0;
    while k0 < n {
        let kc = KC.min(n - k0);
        let mut i = 0;
        // MR-row register tiles.
        while i + MR <= rows {
            // Split four disjoint output rows out of `y`.
            let (head, rest) = y[i * b..].split_at_mut(b);
            let (r1, rest) = rest.split_at_mut(b);
            let (r2, rest) = rest.split_at_mut(b);
            let r3 = &mut rest[..b];
            let w0 = &w.row(row0 + i)[k0..k0 + kc];
            let w1 = &w.row(row0 + i + 1)[k0..k0 + kc];
            let w2 = &w.row(row0 + i + 2)[k0..k0 + kc];
            let w3 = &w.row(row0 + i + 3)[k0..k0 + kc];
            for (t, (((&a0, &a1), &a2), &a3)) in w0.iter().zip(w1).zip(w2).zip(w3).enumerate() {
                let xrow = &xr[(k0 + t) * b..(k0 + t) * b + b];
                // Four axpys sharing one loaded X row; each loop
                // autovectorises over the contiguous batch dimension.
                for (y0, &xv) in head.iter_mut().zip(xrow) {
                    *y0 += a0 * xv;
                }
                for (y1, &xv) in r1.iter_mut().zip(xrow) {
                    *y1 += a1 * xv;
                }
                for (y2, &xv) in r2.iter_mut().zip(xrow) {
                    *y2 += a2 * xv;
                }
                for (y3, &xv) in r3.iter_mut().zip(xrow) {
                    *y3 += a3 * xv;
                }
            }
            i += MR;
        }
        // Remainder rows.
        while i < rows {
            let yrow = &mut y[i * b..i * b + b];
            let wrow = &w.row(row0 + i)[k0..k0 + kc];
            for (t, &a) in wrow.iter().enumerate() {
                let xrow = &xr[(k0 + t) * b..(k0 + t) * b + b];
                for (yv, &xv) in yrow.iter_mut().zip(xrow) {
                    *yv += a * xv;
                }
            }
            i += 1;
        }
        k0 += kc;
    }
}

/// Row-interleaved GEMV (`b == 1` fast path).
///
/// # Panics
/// Panics if `x.len() != w.cols()`.
pub fn gemv_blocked(w: &Matrix, x: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), w.cols(), "gemv dimension mismatch");
    let mut y = vec![0.0f32; w.rows()];
    gemv_rows_into(w, x, 0, &mut y);
    y
}

/// The width-1 kernel over rows `[row_start, row_start + y.len())` of `W`:
/// each output element is a plain ascending-`k` sequential sum — the exact
/// per-element accumulation order of [`gemm_blocked_packed`], which is what
/// makes the fp32-blocked family packing-invariant — with `MR` independent
/// row sums interleaved so the FP adds pipeline across rows instead of
/// within one (order-preserving ILP). Takes its row block like
/// [`gemm_blocked_packed`], for the same two drivers.
pub(crate) fn gemv_rows_into(w: &Matrix, x: &[f32], row_start: usize, y: &mut [f32]) {
    debug_assert_eq!(x.len(), w.cols());
    debug_assert!(row_start + y.len() <= w.rows());
    let rows = y.len();
    let mut i = 0;
    while i + MR <= rows {
        let w0 = w.row(row_start + i);
        let w1 = w.row(row_start + i + 1);
        let w2 = w.row(row_start + i + 2);
        let w3 = w.row(row_start + i + 3);
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for ((((&xv, &a0), &a1), &a2), &a3) in x.iter().zip(w0).zip(w1).zip(w2).zip(w3) {
            s0 += a0 * xv;
            s1 += a1 * xv;
            s2 += a2 * xv;
            s3 += a3 * xv;
        }
        y[i] = s0;
        y[i + 1] = s1;
        y[i + 2] = s2;
        y[i + 3] = s3;
        i += MR;
    }
    while i < rows {
        let mut s = 0.0f32;
        for (&a, &xv) in w.row(row_start + i).iter().zip(x) {
            s += a * xv;
        }
        y[i] = s;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{gemm_naive, gemv_naive};
    use biq_matrix::{assert_allclose, MatrixRng};

    #[test]
    fn matches_naive_on_random_shapes() {
        let mut g = MatrixRng::seed_from(60);
        for &(m, n, b) in
            &[(1usize, 1usize, 1usize), (5, 7, 3), (16, 32, 8), (33, 65, 17), (128, 100, 2)]
        {
            let w = g.gaussian(m, n, 0.0, 1.0);
            let x = g.gaussian_col(n, b, 0.0, 1.0);
            let y = gemm_blocked(&w, &x);
            let y_ref = gemm_naive(&w, &x);
            assert_allclose(&y, &y_ref, 1e-4, 1e-4);
        }
    }

    #[test]
    fn bit_exact_on_small_integers() {
        // Small-integer inputs make every accumulation order exact.
        let mut g = MatrixRng::seed_from(61);
        let w = g.small_int_matrix(37, 53, 3);
        let x = g.small_int_col(53, 9, 3);
        let y = gemm_blocked(&w, &x);
        let y_ref = gemm_naive(&w, &x);
        assert_eq!(y.as_slice(), y_ref.as_slice());
    }

    #[test]
    fn gemv_matches_naive() {
        let mut g = MatrixRng::seed_from(62);
        let w = g.small_int_matrix(21, 40, 4);
        let x: Vec<f32> = (0..40).map(|i| ((i % 7) as f32) - 3.0).collect();
        assert_eq!(gemv_blocked(&w, &x), gemv_naive(&w, &x));
    }

    #[test]
    fn batch_one_dispatch_consistent() {
        let mut g = MatrixRng::seed_from(63);
        let w = g.small_int_matrix(11, 24, 2);
        let x = g.small_int_col(24, 1, 2);
        let y = gemm_blocked(&w, &x);
        assert_eq!(y.col_to_vec(0), gemv_blocked(&w, x.col(0)));
    }

    #[test]
    fn crosses_kc_boundary() {
        // n > KC exercises the k-blocking loop.
        let mut g = MatrixRng::seed_from(64);
        let w = g.small_int_matrix(6, 1000, 1);
        let x = g.small_int_col(1000, 3, 1);
        let y = gemm_blocked(&w, &x);
        let y_ref = gemm_naive(&w, &x);
        assert_eq!(y.as_slice(), y_ref.as_slice());
    }

    #[test]
    fn pack_input_transposes_correctly() {
        let x = ColMatrix::from_fn(3, 2, |i, j| (i * 10 + j) as f32);
        let xr = pack_input_row_major(&x);
        // row k contiguous over batch
        assert_eq!(xr, vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
    }

    #[test]
    fn gemv_is_the_plain_sequential_dot_bit_for_bit() {
        // The width-1 contract: every output element is an ascending-k
        // sequential sum, exactly. Gaussian data so accumulation-order
        // differences would actually show up in the bits.
        let mut g = MatrixRng::seed_from(65);
        for &(m, n) in &[(1usize, 9usize), (3, 100), (6, 31), (11, 257)] {
            let w = g.gaussian(m, n, 0.0, 1.0);
            let x = g.gaussian_col(n, 1, 0.0, 1.0);
            let y = gemv_blocked(&w, x.col(0));
            for (i, yv) in y.iter().enumerate() {
                let mut s = 0.0f32;
                for (a, xv) in w.row(i).iter().zip(x.col(0)) {
                    s += a * xv;
                }
                assert_eq!(yv.to_bits(), s.to_bits(), "row {i} of {m}x{n}");
            }
        }
    }

    #[test]
    fn packing_a_column_never_changes_its_bits() {
        // The fp32-blocked family is packing-invariant on gaussian data:
        // column j of a batched run equals the column served alone,
        // bit-identically — the property the serve batcher relies on.
        let mut g = MatrixRng::seed_from(66);
        for &(m, n, b) in &[(5usize, 7usize, 3usize), (16, 300, 5), (33, 65, 12)] {
            let w = g.gaussian(m, n, 0.0, 1.0);
            let x = g.gaussian_col(n, b, 0.0, 1.0);
            let batched = gemm_blocked(&w, &x);
            for j in 0..b {
                let alone = ColMatrix::from_vec(n, 1, x.col(j).to_vec());
                let y = gemm_blocked(&w, &alone);
                for i in 0..m {
                    assert_eq!(
                        batched.row(i)[j].to_bits(),
                        y.row(i)[0].to_bits(),
                        "({m},{n},{b}) col {j} row {i}"
                    );
                }
            }
        }
    }
}
