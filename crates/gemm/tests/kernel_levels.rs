//! Per-level exactness of the baseline kernels: the XNOR popcount
//! reduction and the int8 dot product are integer arithmetic, so every
//! kernel level must equal the scalar level **exactly** (and the fp32
//! scale application is order-identical across levels) — over random
//! shapes and the ragged word/lane tails (`n % 64`, `n % 256`, `n % 32`,
//! `n % 64` for int8) where the vector kernels hand off to their scalar
//! remainders.

use biq_gemm::int8::{Int8Phases, Int8Weights};
use biq_gemm::xnor::{xnor_gemm, XnorWeights};
use biq_matrix::MatrixRng;
use biq_quant::greedy_quantize_matrix_rowwise;
use biqgemm_core::simd::supported_levels;
use biqgemm_core::{KernelRequest, ResolvedKernel};
use proptest::prelude::*;

fn exact(level: biqgemm_core::KernelLevel) -> ResolvedKernel {
    KernelRequest::Exact(level).resolve().expect("supported level must resolve")
}

#[test]
fn xnor_levels_exactly_equal_scalar_across_word_tails() {
    let mut g = MatrixRng::seed_from(8001);
    // n straddles the u64-word and the 4-/8-word vector-step boundaries.
    for &(m, n, b, bits) in &[
        (5usize, 1usize, 2usize, 1usize),
        (9, 63, 3, 1),
        (9, 64, 3, 2),
        (9, 65, 3, 1),
        (7, 255, 2, 2),
        (7, 256, 2, 1),
        (7, 257, 2, 1),
        (4, 511, 1, 3),
        (4, 513, 5, 1),
    ] {
        let wf = g.gaussian(m, n, 0.0, 1.0);
        let q = greedy_quantize_matrix_rowwise(&wf, bits);
        let w = XnorWeights::from_multibit(&q);
        let x = g.gaussian_col(n, b, 0.0, 1.0);
        let want = xnor_gemm(&w, &x, ResolvedKernel::scalar());
        for level in supported_levels() {
            let got = xnor_gemm(&w, &x, exact(level));
            assert_eq!(
                want.as_slice(),
                got.as_slice(),
                "(m,n,b,bits)=({m},{n},{b},{bits}) {level}"
            );
        }
    }
}

#[test]
fn int8_levels_exactly_equal_scalar_across_lane_tails() {
    let mut g = MatrixRng::seed_from(8002);
    // n straddles the 32-value (AVX2) and 64-value (AVX-512) step sizes.
    for &(m, n, b) in &[
        (6usize, 1usize, 1usize),
        (6, 31, 2),
        (6, 32, 2),
        (6, 33, 2),
        (5, 63, 3),
        (5, 64, 3),
        (5, 65, 3),
        (3, 130, 4),
        (3, 257, 1),
    ] {
        let w = g.gaussian(m, n, 0.0, 1.0);
        let x = g.gaussian_col(n, b, 0.0, 1.0);
        let wq = Int8Weights::quantize(&w);
        let mut ph = Int8Phases::default();
        let want = wq.forward(&x, &mut ph);
        for level in supported_levels() {
            let got = wq.forward_level(&x, &mut ph, exact(level));
            assert_eq!(want.as_slice(), got.as_slice(), "(m,n,b)=({m},{n},{b}) {level}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_xnor_and_int8_all_levels_exact(
        m in 1usize..12,
        n in 1usize..400,
        b in 1usize..6,
        bits in 1usize..=3,
        seed in 0u64..1_000_000,
    ) {
        let mut g = MatrixRng::seed_from(seed);
        let wf = g.gaussian(m, n, 0.0, 1.0);
        let x = g.gaussian_col(n, b, 0.0, 1.0);

        let q = greedy_quantize_matrix_rowwise(&wf, bits);
        let xw = XnorWeights::from_multibit(&q);
        let want_xnor = xnor_gemm(&xw, &x, ResolvedKernel::scalar());

        let i8e = Int8Weights::quantize(&wf);
        let mut ph = Int8Phases::default();
        let want_i8 = i8e.forward(&x, &mut ph);

        for level in supported_levels() {
            let k = exact(level);
            prop_assert_eq!(
                want_xnor.as_slice(),
                xnor_gemm(&xw, &x, k).as_slice(),
                "xnor level={}", level
            );
            prop_assert_eq!(
                want_i8.as_slice(),
                i8e.forward_level(&x, &mut ph, k).as_slice(),
                "int8 level={}", level
            );
        }
    }
}
