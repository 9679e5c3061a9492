//! The paper's Definition 2 reshape and LUT-unit sub-vector accessors.
//!
//! Definition 2: given an `m × n` matrix `A`, `A^r_µ` is the `µ × (m·n/µ)`
//! matrix reshaped from `A` *while maintaining column-wise traversal*. For a
//! column-major input `X ∈ R^{n×b}` this means each batch column is cut into
//! `n/µ` consecutive sub-vectors of length `µ` (Definition 4:
//! `x^β_α = x_α[µβ .. µβ+µ−1]`, Eq. 4 of the paper). Because [`ColMatrix`]
//! stores columns contiguously, a sub-vector is a plain slice — no copy.
//!
//! When `µ` does not divide `n`, the final sub-vector of each column is
//! *ragged* (shorter than `µ`). All consumers in this workspace handle the
//! ragged tail explicitly; [`ChunkedInput::chunk`] exposes it as a short
//! slice.

use crate::dense::ColMatrix;

/// Number of LUT-unit chunks a length-`n` column splits into, including a
/// ragged tail when `µ ∤ n`.
#[inline]
pub fn num_chunks(n: usize, mu: usize) -> usize {
    assert!(mu > 0, "LUT-unit µ must be positive");
    n.div_ceil(mu)
}

/// Length of chunk `beta` of a length-`n` column under LUT-unit `mu`
/// (equal to `mu` except possibly for the last chunk).
#[inline]
pub fn chunk_len(n: usize, mu: usize, beta: usize) -> usize {
    let start = beta * mu;
    debug_assert!(start < n, "chunk index out of range");
    mu.min(n - start)
}

/// A view of a column-major input matrix as the 3-D tensor
/// `X̂ ∈ R^{(n/µ) × b × µ}` used by Algorithm 2 of the paper: indexing is
/// `(chunk β, batch α) ↦ x^β_α`.
#[derive(Clone, Copy, Debug)]
pub struct ChunkedInput<'a> {
    x: &'a ColMatrix,
    mu: usize,
}

impl<'a> ChunkedInput<'a> {
    /// Wraps `x` (shape `n × b`) with LUT-unit `mu`.
    ///
    /// # Panics
    /// Panics if `mu == 0` or `x` has zero rows.
    pub fn new(x: &'a ColMatrix, mu: usize) -> Self {
        assert!(mu > 0, "LUT-unit µ must be positive");
        assert!(x.rows() > 0, "input must have at least one row");
        Self { x, mu }
    }

    /// The LUT-unit.
    #[inline]
    pub fn mu(&self) -> usize {
        self.mu
    }

    /// Input size `n`.
    #[inline]
    pub fn input_size(&self) -> usize {
        self.x.rows()
    }

    /// Batch size `b`.
    #[inline]
    pub fn batch(&self) -> usize {
        self.x.cols()
    }

    /// Number of chunks per column (`⌈n/µ⌉`).
    #[inline]
    pub fn num_chunks(&self) -> usize {
        num_chunks(self.x.rows(), self.mu)
    }

    /// The sub-vector `x^β_α` (Definition 4). The returned slice has length
    /// `µ`, or less for the ragged final chunk.
    #[inline]
    pub fn chunk(&self, alpha: usize, beta: usize) -> &'a [f32] {
        self.chunk_span(alpha, beta..beta + 1)
    }

    /// The sub-vectors `x^β_α` for every `β` in `betas`, back to back: one
    /// contiguous slice of column `alpha` (only the final chunk of the
    /// column can be ragged).
    #[inline]
    pub fn chunk_span(&self, alpha: usize, betas: std::ops::Range<usize>) -> &'a [f32] {
        let n = self.x.rows();
        let start = betas.start * self.mu;
        let end = (betas.end * self.mu).min(n);
        &self.x.col(alpha)[start..end]
    }

    /// The underlying matrix.
    #[inline]
    pub fn matrix(&self) -> &'a ColMatrix {
        self.x
    }
}

/// Materialises the Definition 2 reshape `X ↦ X^r_µ` as a new column-major
/// `µ × (n·b/µ)` matrix (requires `µ | n`). Mostly useful for documentation
/// and tests — kernels use [`ChunkedInput`] which is zero-copy.
pub fn reshape_r_mu(x: &ColMatrix, mu: usize) -> ColMatrix {
    let (n, b) = x.shape();
    assert!(mu > 0 && n % mu == 0, "reshape_r_mu requires µ | n (n={n}, µ={mu})");
    let chunks_per_col = n / mu;
    let mut out = ColMatrix::zeros(mu, chunks_per_col * b);
    for alpha in 0..b {
        let col = x.col(alpha);
        for beta in 0..chunks_per_col {
            let dst = out.col_mut(alpha * chunks_per_col + beta);
            dst.copy_from_slice(&col[beta * mu..(beta + 1) * mu]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, b: usize) -> ColMatrix {
        ColMatrix::from_fn(n, b, |i, j| (j * 1000 + i) as f32)
    }

    #[test]
    fn num_chunks_rounds_up() {
        assert_eq!(num_chunks(12, 4), 3);
        assert_eq!(num_chunks(13, 4), 4);
        assert_eq!(num_chunks(1, 8), 1);
    }

    #[test]
    fn chunk_len_handles_ragged_tail() {
        assert_eq!(chunk_len(10, 4, 0), 4);
        assert_eq!(chunk_len(10, 4, 1), 4);
        assert_eq!(chunk_len(10, 4, 2), 2);
    }

    #[test]
    fn chunks_cover_column_exactly() {
        let x = sample(10, 2);
        let ci = ChunkedInput::new(&x, 4);
        assert_eq!(ci.num_chunks(), 3);
        let mut rebuilt = Vec::new();
        for beta in 0..ci.num_chunks() {
            rebuilt.extend_from_slice(ci.chunk(1, beta));
        }
        assert_eq!(rebuilt, x.col(1));
    }

    #[test]
    fn chunk_matches_definition_4() {
        let x = sample(12, 3);
        let ci = ChunkedInput::new(&x, 4);
        // x^1_2 = x_2[4..8]
        assert_eq!(ci.chunk(2, 1), &x.col(2)[4..8]);
        assert_eq!(ci.chunk(2, 1).len(), 4);
    }

    #[test]
    fn reshape_r_mu_matches_definition_2() {
        // Column-wise traversal: X^r_µ column (α * n/µ + β) equals x^β_α.
        let x = sample(8, 2);
        let r = reshape_r_mu(&x, 4);
        assert_eq!(r.shape(), (4, 4));
        let ci = ChunkedInput::new(&x, 4);
        for alpha in 0..2 {
            for beta in 0..2 {
                assert_eq!(r.col(alpha * 2 + beta), ci.chunk(alpha, beta));
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires µ | n")]
    fn reshape_rejects_ragged() {
        let x = sample(10, 1);
        let _ = reshape_r_mu(&x, 4);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_mu_rejected() {
        let x = sample(4, 1);
        let _ = ChunkedInput::new(&x, 0);
    }
}
