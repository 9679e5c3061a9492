//! Property tests for the matrix substrate: layout conversions, reshape
//! coverage, and container round-trips over arbitrary data.

use biq_matrix::io::{decode_col_matrix, decode_matrix, encode_col_matrix, encode_matrix};
use biq_matrix::reshape::{chunk_len, num_chunks, ChunkedInput};
use biq_matrix::{ColMatrix, Matrix};
use proptest::prelude::*;

fn arb_matrix(max_r: usize, max_c: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_r, 1..=max_c).prop_flat_map(|(r, c)| {
        proptest::collection::vec(any::<f32>(), r * c).prop_map(move |v| Matrix::from_vec(r, c, v))
    })
}

fn arb_col_matrix(max_r: usize, max_c: usize) -> impl Strategy<Value = ColMatrix> {
    (1..=max_r, 1..=max_c).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-1e6f32..1e6, r * c)
            .prop_map(move |v| ColMatrix::from_vec(r, c, v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(m in arb_matrix(12, 12)) {
        // Skip NaN inequality noise by comparing bit patterns.
        let t2 = m.transpose().transpose();
        let bits = |x: &Matrix| -> Vec<u32> { x.as_slice().iter().map(|v| v.to_bits()).collect() };
        prop_assert_eq!(bits(&t2), bits(&m));
    }

    /// Row-major → col-major → row-major is the identity.
    #[test]
    fn layout_round_trip(m in arb_matrix(10, 14)) {
        let back = m.to_col_major().to_row_major();
        let bits = |x: &Matrix| -> Vec<u32> { x.as_slice().iter().map(|v| v.to_bits()).collect() };
        prop_assert_eq!(bits(&back), bits(&m));
    }

    /// Zero-copy transposed reinterpretation agrees with the copying
    /// transpose.
    #[test]
    fn zero_copy_transpose_agrees(m in arb_matrix(9, 9)) {
        let view = m.clone().into_col_major_transposed();
        let copy = m.transpose();
        for i in 0..copy.rows() {
            for j in 0..copy.cols() {
                prop_assert_eq!(view.get(i, j).to_bits(), copy.get(i, j).to_bits());
            }
        }
    }

    /// Chunks partition every column exactly, for every µ.
    #[test]
    fn chunks_partition_columns(x in arb_col_matrix(40, 4), mu in 1usize..=16) {
        let ci = ChunkedInput::new(&x, mu);
        let n = x.rows();
        prop_assert_eq!(ci.num_chunks(), num_chunks(n, mu));
        for alpha in 0..x.cols() {
            let mut total = 0;
            for beta in 0..ci.num_chunks() {
                let c = ci.chunk(alpha, beta);
                prop_assert_eq!(c.len(), chunk_len(n, mu, beta));
                prop_assert_eq!(c, &x.col(alpha)[total..total + c.len()]);
                total += c.len();
            }
            prop_assert_eq!(total, n);
        }
    }

    /// I/O containers round-trip bit-exactly (including NaN payloads).
    #[test]
    fn matrix_io_round_trip(m in arb_matrix(8, 8)) {
        let d = decode_matrix(encode_matrix(&m)).unwrap();
        let bits = |x: &Matrix| -> Vec<u32> { x.as_slice().iter().map(|v| v.to_bits()).collect() };
        prop_assert_eq!(bits(&d), bits(&m));
    }

    /// Column-major container round-trips.
    #[test]
    fn col_matrix_io_round_trip(m in arb_col_matrix(8, 8)) {
        let d = decode_col_matrix(encode_col_matrix(&m)).unwrap();
        prop_assert_eq!(d, m);
    }
}
