//! Workspace-level property-based tests (proptest): the algebraic invariants
//! that hold for *arbitrary* shapes, µ, and data — the strongest correctness
//! evidence short of a proof.

use biqgemm_repro::biq_gemm::gemm_naive;
use biqgemm_repro::biq_matrix::{ColMatrix, Matrix, SignMatrix};
use biqgemm_repro::biq_quant::greedy_quantize_vector;
use biqgemm_repro::biq_quant::packing::KeyMatrix;
use biqgemm_repro::biq_runtime::{
    compile, BackendSpec, Executor, PlanBuilder, QuantMethod, WeightSource,
};
use biqgemm_repro::biqgemm_core::lut::{build_lut_bruteforce, build_lut_dp};
use biqgemm_repro::biqgemm_core::BiqConfig;
use proptest::prelude::*;

/// `signs · x` by BiQGEMM through the plan/executor, under exactly `cfg`.
fn biq(signs: &SignMatrix, x: &ColMatrix, cfg: BiqConfig) -> Matrix {
    let plan = PlanBuilder::new(signs.rows(), signs.cols())
        .batch_hint(x.cols())
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
        .config(cfg)
        .build();
    Executor::new().run(&compile(&plan, WeightSource::Signs(signs)), x)
}

/// Strategy: a sign matrix of bounded shape.
fn sign_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = SignMatrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(prop_oneof![Just(1i8), Just(-1i8)], r * c)
            .prop_map(move |v| SignMatrix::from_vec(r, c, v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BiQGEMM == naive GEMM for arbitrary sign matrices, integer inputs,
    /// and every µ in range (bit-exact).
    #[test]
    fn biqgemm_equals_gemm(
        signs in sign_matrix(24, 40),
        mu in 1usize..=12,
        seed in 0u64..1000,
    ) {
        let n = signs.cols();
        let mut g = biqgemm_repro::biq_matrix::MatrixRng::seed_from(seed);
        let b = 1 + (seed as usize % 5);
        let x = g.small_int_col(n, b, 4);
        let cfg = BiqConfig { mu: mu.min(16), tile_rows: 5, tile_chunks: 3, tile_batch: 2, ..BiqConfig::default() };
        let y = biq(&signs, &x, cfg);
        let y_ref = gemm_naive(&signs.to_f32(), &x);
        prop_assert_eq!(y.as_slice(), y_ref.as_slice());
    }

    /// Key packing round-trips for any matrix and µ.
    #[test]
    fn key_pack_round_trip(signs in sign_matrix(16, 48), mu in 1usize..=16) {
        let k = KeyMatrix::pack(&signs, mu);
        prop_assert_eq!(k.unpack(), signs);
    }

    /// DP lookup tables equal brute force for arbitrary real sub-vectors.
    #[test]
    fn dp_lut_equals_bruteforce(
        x in proptest::collection::vec(-100.0f32..100.0, 1..=10),
    ) {
        let l = x.len();
        let mut dp = vec![0.0f32; 1 << l];
        let mut bf = vec![0.0f32; 1 << l];
        build_lut_dp(&x, &mut dp);
        build_lut_bruteforce(&x, &mut bf);
        for (k, (a, b)) in dp.iter().zip(&bf).enumerate() {
            prop_assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()), "key {}: {} vs {}", k, a, b);
        }
    }

    /// LUT mirror anti-symmetry: q[~k] == −q[k].
    #[test]
    fn lut_mirror_antisymmetry(
        x in proptest::collection::vec(-50.0f32..50.0, 1..=10),
    ) {
        let l = x.len();
        let mut q = vec![0.0f32; 1 << l];
        build_lut_dp(&x, &mut q);
        for k in 0..(1usize << l) {
            let comp = ((1usize << l) - 1) - k;
            prop_assert_eq!(q[k], -q[comp]);
        }
    }

    /// Greedy quantization: residual energy is non-increasing in bits, and
    /// scales are non-negative and non-increasing.
    #[test]
    fn greedy_residual_monotone(
        w in proptest::collection::vec(-10.0f32..10.0, 4..=64),
        bits in 1usize..=5,
    ) {
        let (alphas, planes) = greedy_quantize_vector(&w, bits);
        prop_assert!(alphas.iter().all(|&a| a >= 0.0));
        for pair in alphas.windows(2) {
            prop_assert!(pair[1] <= pair[0] + 1e-6);
        }
        // Reconstruction error shrinks (weakly) as planes accumulate.
        let mut prev = f64::INFINITY;
        for used in 1..=bits {
            let err: f64 = w
                .iter()
                .enumerate()
                .map(|(j, &wj)| {
                    let rec: f32 =
                        (0..used).map(|i| alphas[i] * planes[i][j] as f32).sum();
                    ((wj - rec) as f64).powi(2)
                })
                .sum();
            prop_assert!(err <= prev + 1e-6);
            prev = err;
        }
    }

    /// Linearity: BiQGEMM(x + y) == BiQGEMM(x) + BiQGEMM(y) on integer data.
    #[test]
    fn kernel_linearity(signs in sign_matrix(12, 24), seed in 0u64..500) {
        let n = signs.cols();
        let mut g = biqgemm_repro::biq_matrix::MatrixRng::seed_from(seed);
        let x1 = g.small_int_col(n, 2, 3);
        let x2 = g.small_int_col(n, 2, 3);
        let sum = ColMatrix::from_vec(
            n,
            2,
            x1.as_slice().iter().zip(x2.as_slice()).map(|(a, b)| a + b).collect(),
        );
        let cfg = BiqConfig::with_mu(4);
        let (y1, y2, ysum) = (biq(&signs, &x1, cfg), biq(&signs, &x2, cfg), biq(&signs, &sum, cfg));
        for ((a, b), s) in y1.as_slice().iter().zip(y2.as_slice()).zip(ysum.as_slice()) {
            prop_assert_eq!(a + b, *s);
        }
    }
}
