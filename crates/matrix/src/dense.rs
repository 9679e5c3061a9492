//! Row-major and column-major dense `f32` matrices.
//!
//! Both types are thin, allocation-owning wrappers around a `Vec<f32>`; they
//! deliberately expose their backing slice so kernels can work on raw data
//! without bounds checks in inner loops (see the Bounds Checks chapter of the
//! Rust Performance Book: hoist a slice, then iterate).

/// A dense row-major `rows × cols` matrix of `f32`.
///
/// Element `(i, j)` lives at `data[i * cols + j]`; row `i` is the contiguous
/// slice `data[i*cols .. (i+1)*cols]`. Used for weights (`m × n`) and outputs
/// (`m × b`).
///
/// Storage is a [`PodStore`](crate::store::PodStore): normally an owned
/// `Vec<f32>`, but a matrix
/// deserialized from a model artifact borrows the artifact's byte buffer
/// instead ([`Matrix::from_shared`]). Mutation copies-on-write, so the
/// read-only kernel paths never pay for the distinction.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: crate::store::PodStore<f32>,
}

impl Matrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols].into() }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols].into() }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data: data.into() }
    }

    /// Wraps a zero-copy view over a loaded artifact buffer — the
    /// deserialization path for dense fp32 payloads.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_shared(rows: usize, cols: usize, data: crate::store::PodView<f32>) -> Self {
        assert_eq!(
            data.as_slice().len(),
            rows * cols,
            "shared buffer length {} does not match {rows}x{cols}",
            data.as_slice().len()
        );
        Self { rows, cols, data: data.into() }
    }

    /// True when the backing storage is a shared artifact view (no owned
    /// allocation was made for the payload).
    pub fn is_shared(&self) -> bool {
        self.data.is_shared()
    }

    /// Builds a matrix by evaluating `f(i, j)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data: data.into() }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        let idx = i * self.cols + j;
        self.data.as_mut_slice()[idx] = v;
    }

    /// Contiguous row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable contiguous row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let range = i * self.cols..(i + 1) * self.cols;
        &mut self.data.as_mut_slice()[range]
    }

    /// The backing row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The backing row-major slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data.as_mut_slice()
    }

    /// Consumes the matrix and returns its buffer (copies only when the
    /// matrix was a shared artifact view).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Gathers column `j` into a fresh vector (strided read).
    pub fn col_to_vec(&self, j: usize) -> Vec<f32> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Returns the transpose as a new row-major matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Reinterprets the same data as a column-major matrix of the transposed
    /// shape without copying: a row-major `r × c` buffer is bit-identical to a
    /// column-major `c × r` buffer.
    pub fn into_col_major_transposed(self) -> ColMatrix {
        ColMatrix { rows: self.cols, cols: self.rows, data: self.data.into_vec() }
    }

    /// Copies this matrix into column-major layout (same logical shape).
    pub fn to_col_major(&self) -> ColMatrix {
        let mut out = ColMatrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            for i in 0..self.rows {
                out.set(i, j, self.get(i, j));
            }
        }
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in add_assign");
        for (a, b) in self.data.as_mut_slice().iter_mut().zip(rhs.data.iter()) {
            *a += *b;
        }
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f32) {
        for a in self.data.as_mut_slice() {
            *a *= s;
        }
    }
}

/// A dense column-major `rows × cols` matrix of `f32`.
///
/// Element `(i, j)` lives at `data[j * rows + i]`; column `j` is the
/// contiguous slice `data[j*rows .. (j+1)*rows]`. Used for inputs (`n × b`)
/// where lookup-table construction slices each batch column into LUT-unit
/// sub-vectors.
#[derive(Clone, Debug, PartialEq)]
pub struct ColMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl ColMatrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Wraps an existing column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// A single-column matrix (a vector).
    pub fn from_column(v: Vec<f32>) -> Self {
        let rows = v.len();
        Self { rows, cols: 1, data: v }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    /// Contiguous column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f32] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable contiguous column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f32] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// The backing column-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The backing column-major slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Copies into row-major layout (same logical shape).
    pub fn to_row_major(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }

    /// Consumes the matrix, returning the backing column-major buffer
    /// (batching layers reclaim pack buffers this way instead of
    /// reallocating per batch).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 5).is_empty());
    }

    #[test]
    fn row_major_indexing() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn col_major_indexing() {
        let m = ColMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // column-major: columns are [1,2], [3,4], [5,6]
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.col(2), &[5.0, 6.0]);
    }

    #[test]
    fn from_fn_matches_get() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as f32);
        let c = ColMatrix::from_fn(3, 5, |i, j| (i * 10 + j) as f32);
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(m.get(i, j), (i * 10 + j) as f32);
                assert_eq!(c.get(i, j), (i * 10 + j) as f32);
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(4, 7, |i, j| (i * 100 + j) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (7, 4));
        for i in 0..4 {
            for j in 0..7 {
                assert_eq!(t.get(j, i), m.get(i, j));
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn layout_conversions_agree() {
        let m = Matrix::from_fn(5, 3, |i, j| (i as f32) - (j as f32) * 0.5);
        let c = m.to_col_major();
        assert_eq!(c.to_row_major(), m);
        // zero-copy transposed reinterpretation
        let ct = m.clone().into_col_major_transposed();
        assert_eq!(ct.shape(), (3, 5));
        for i in 0..5 {
            for j in 0..3 {
                assert_eq!(ct.get(j, i), m.get(i, j));
            }
        }
    }

    #[test]
    fn identity_works() {
        let id = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(id.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.5);
        let b = Matrix::filled(2, 2, 0.5);
        a.add_assign(&b);
        assert!(a.as_slice().iter().all(|&v| v == 2.0));
        a.scale(2.0);
        assert!(a.as_slice().iter().all(|&v| v == 4.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_assign_shape_mismatch_panics() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        a.add_assign(&b);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 5]);
    }

    #[test]
    fn col_to_vec_gathers() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
        assert_eq!(m.col_to_vec(1), vec![1.0, 3.0, 5.0]);
    }
}
