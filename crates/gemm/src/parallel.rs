//! Parallel drivers for the baseline kernels.
//!
//! Output rows are disjoint across threads, so each worker writes its own
//! row-block of `Y` without synchronisation (`for_each_chunk_mut` hands
//! out non-overlapping `&mut` slices — data-race freedom is structural),
//! running the same kernels as the serial drivers on its block.
//!
//! Every driver takes the worker count as an argument (the runtime hands
//! down its plan's; benches pass `--threads`) and the persistent
//! [`WorkerSet`] to run on (the runtime's is its executor's); with
//! `workers ≤ 1` it runs inline on the calling thread. Results do not
//! depend on either.

use crate::blocked::{gemm_blocked_packed, gemv_rows_into, pack_input_row_major_into};
use biq_matrix::{ColMatrix, Matrix};
use biqgemm_core::WorkerSet;

/// Minimum rows per parallel task, to amortise scheduling overhead.
const MIN_ROWS_PER_TASK: usize = 16;

/// Parallel naive GEMM (`kGpu` analog: many simple workers, no blocking).
pub fn par_gemm_naive(w: &Matrix, x: &ColMatrix, pool: &WorkerSet, workers: usize) -> Matrix {
    assert_eq!(x.rows(), w.cols(), "gemm inner dimension mismatch");
    let (m, b) = (w.rows(), x.cols());
    let mut y = Matrix::zeros(m, b);
    let rows_per_task = rows_per_task(m, workers);
    pool.for_each_chunk_mut(y.as_mut_slice(), rows_per_task * b, workers, |t, yblock| {
        let row0 = t * rows_per_task;
        let rows = yblock.len() / b;
        for r in 0..rows {
            let wrow = w.row(row0 + r);
            let yrow = &mut yblock[r * b..(r + 1) * b];
            for (alpha, ya) in yrow.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (a, v) in wrow.iter().zip(x.col(alpha)) {
                    acc += a * v;
                }
                *ya = acc;
            }
        }
    });
    y
}

/// Parallel blocked GEMM (`cublas`/multi-thread `mkl` analog).
pub fn par_gemm_blocked(w: &Matrix, x: &ColMatrix, pool: &WorkerSet, workers: usize) -> Matrix {
    let mut y = Matrix::zeros(w.rows(), x.cols());
    let mut pack = Vec::new();
    par_gemm_blocked_into(w, x, pool, workers, &mut pack, y.as_mut_slice());
    y
}

/// Parallel blocked GEMM into a caller-provided row-major `m × b` buffer
/// (overwritten), packing the `X` panel into reusable caller scratch — the
/// form the runtime executor dispatches to. Once `pack` and `pool` have
/// warmed to the shape, a call allocates nothing.
///
/// # Panics
/// Panics if `x.rows() != w.cols()` or `y.len() != m·b`.
pub fn par_gemm_blocked_into(
    w: &Matrix,
    x: &ColMatrix,
    pool: &WorkerSet,
    workers: usize,
    pack: &mut Vec<f32>,
    y: &mut [f32],
) {
    assert_eq!(x.rows(), w.cols(), "gemm inner dimension mismatch");
    let (m, b) = (w.rows(), x.cols());
    assert_eq!(y.len(), m * b, "output buffer must hold m·b floats");
    let rows_per_task = rows_per_task(m, workers);
    if b == 1 {
        pool.for_each_chunk_mut(y, rows_per_task, workers, |t, yblock| {
            gemv_rows_into(w, x.col(0), t * rows_per_task, yblock);
        });
        return;
    }
    pack_input_row_major_into(x, pack);
    let xr = &pack[..x.rows() * b];
    y.fill(0.0);
    pool.for_each_chunk_mut(y, rows_per_task * b, workers, |t, yblock| {
        gemm_blocked_packed(w, xr, b, t * rows_per_task, yblock);
    });
}

#[inline]
fn rows_per_task(m: usize, workers: usize) -> usize {
    (m.div_ceil(workers.max(1) * 4)).max(MIN_ROWS_PER_TASK.min(m.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::gemm_blocked;
    use crate::naive::gemm_naive;
    use biq_matrix::MatrixRng;

    /// Inline, an even split, and a count that leaves a ragged last block.
    const WORKERS: [usize; 3] = [1, 2, 5];

    #[test]
    fn par_naive_matches_serial() {
        let (mut g, pool) = (MatrixRng::seed_from(70), WorkerSet::new());
        for &(m, n, b) in &[(3usize, 5usize, 2usize), (64, 48, 7), (130, 200, 33)] {
            let w = g.small_int_matrix(m, n, 3);
            let x = g.small_int_col(n, b, 3);
            for workers in WORKERS {
                assert_eq!(
                    par_gemm_naive(&w, &x, &pool, workers).as_slice(),
                    gemm_naive(&w, &x).as_slice()
                );
            }
        }
    }

    #[test]
    fn par_blocked_matches_serial_blocked() {
        let (mut g, pool) = (MatrixRng::seed_from(71), WorkerSet::new());
        for &(m, n, b) in &[(1usize, 4usize, 5usize), (65, 300, 8), (200, 64, 32)] {
            let w = g.small_int_matrix(m, n, 2);
            let x = g.small_int_col(n, b, 2);
            for workers in WORKERS {
                assert_eq!(
                    par_gemm_blocked(&w, &x, &pool, workers).as_slice(),
                    gemm_blocked(&w, &x).as_slice(),
                    "mismatch at ({m},{n},{b}) on {workers} workers"
                );
            }
        }
    }

    #[test]
    fn par_blocked_batch_one() {
        let (mut g, pool) = (MatrixRng::seed_from(72), WorkerSet::new());
        let w = g.small_int_matrix(100, 64, 3);
        let x = g.small_int_col(64, 1, 3);
        for workers in WORKERS {
            let y = par_gemm_blocked(&w, &x, &pool, workers);
            assert_eq!(y.as_slice(), gemm_naive(&w, &x).as_slice());
        }
    }
}
