//! Property tests for the baseline kernels: all dense kernels agree
//! bit-exactly on integer data, and the quantized-path kernels agree with
//! their dense references.

use biq_gemm::packed_sgemm::DenseBinaryWeights;
use biq_gemm::unpack_gemm::{gemm_with_unpack, gemm_with_unpack_amortized};
use biq_gemm::xnor::{xnor_gemm_presigned, XnorWeights};
use biq_gemm::{
    gemm_blocked, gemm_naive, gemv_blocked, gemv_naive, par_gemm_blocked, par_gemm_naive,
};
use biq_matrix::{ColMatrix, Matrix, MatrixRng, SignMatrix};
use biq_quant::packing::{PackedRowsU32, PackedRowsU64};
use biqgemm_core::WorkerSet;
use proptest::prelude::*;

fn int_matrix(max_r: usize, max_c: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_r, 1..=max_c).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-4i32..=4, r * c)
            .prop_map(move |v| Matrix::from_vec(r, c, v.iter().map(|&x| x as f32).collect()))
    })
}

fn int_inputs(n: usize, max_b: usize, seed: u64) -> ColMatrix {
    MatrixRng::seed_from(seed).small_int_col(n, 1 + (seed as usize % max_b), 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// naive == blocked == parallel-naive == parallel-blocked, bit-exact on
    /// integer data for arbitrary shapes and worker counts.
    #[test]
    fn dense_kernels_agree(w in int_matrix(20, 40), seed in any::<u64>()) {
        let x = int_inputs(w.cols(), 6, seed);
        let y = gemm_naive(&w, &x);
        let blocked = gemm_blocked(&w, &x);
        let workers = 1 + (seed >> 8) as usize % 4;
        let pool = WorkerSet::new();
        let pn = par_gemm_naive(&w, &x, &pool, workers);
        let pb = par_gemm_blocked(&w, &x, &pool, workers);
        prop_assert_eq!(y.as_slice(), blocked.as_slice());
        prop_assert_eq!(y.as_slice(), pn.as_slice());
        prop_assert_eq!(y.as_slice(), pb.as_slice());
    }

    /// GEMV kernels agree with the GEMM kernels' first column.
    #[test]
    fn gemv_consistency(w in int_matrix(16, 30), seed in any::<u64>()) {
        let x = int_inputs(w.cols(), 1, seed);
        let y = gemm_naive(&w, &x);
        prop_assert_eq!(y.col_to_vec(0), gemv_naive(&w, x.col(0)));
        prop_assert_eq!(y.col_to_vec(0), gemv_blocked(&w, x.col(0)));
    }

    /// Unpack-GEMM (both variants) equals sGEMM on the same signs.
    #[test]
    fn unpack_gemm_correct(
        (rows, cols) in (1usize..=16, 1usize..=80),
        seed in any::<u64>(),
    ) {
        let signs = MatrixRng::seed_from(seed).signs(rows, cols);
        let x = int_inputs(cols, 4, seed ^ 0x9e37);
        let dense = DenseBinaryWeights::unscaled(&signs);
        let y_ref = dense.sgemm_naive(&x);
        let packed = PackedRowsU32::pack(&signs);
        let y_unpack = gemm_with_unpack(&packed, &x);
        let y_amortized = gemm_with_unpack_amortized(&packed, &x);
        prop_assert_eq!(y_ref.as_slice(), y_unpack.as_slice());
        prop_assert_eq!(y_ref.as_slice(), y_amortized.as_slice());
    }

    /// XNOR equals dense sign GEMM for arbitrary sign operands.
    #[test]
    fn xnor_correct(
        (m, n, b) in (1usize..=12, 1usize..=100, 1usize..=5),
        seed in any::<u64>(),
    ) {
        let mut g = MatrixRng::seed_from(seed);
        let wsigns = g.signs(m, n);
        let xsigns: SignMatrix = g.signs(n, b);
        let w = XnorWeights::new(vec![(vec![1.0; m], PackedRowsU64::pack(&wsigns))]);
        let y = xnor_gemm_presigned(&w, &xsigns);
        let y_ref = gemm_naive(&wsigns.to_f32(), &xsigns.to_f32().to_col_major());
        prop_assert_eq!(y.as_slice(), y_ref.as_slice());
    }
}
