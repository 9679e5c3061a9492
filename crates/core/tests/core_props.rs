//! Property tests for the BiQGEMM engine beyond the workspace-level suite:
//! cost-model sanity and tiling invariance.

use biq_matrix::{ColMatrix, MatrixRng};
use biqgemm_core::complexity::{biqgemm_ops, eq9_factor, gemm_ops, optimal_mu};
use biqgemm_core::{biqgemm_into, BiqArena, BiqConfig, BiqWeights, PhaseProfile};
use proptest::prelude::*;

/// One-shot run of the engine (`workers` as for [`biqgemm_into`]).
fn run(w: &BiqWeights, x: &ColMatrix, cfg: &BiqConfig, workers: Option<usize>) -> Vec<f32> {
    let kernel = cfg.kernel.resolve().unwrap();
    let (mut p, mut arena) = (PhaseProfile::new(), BiqArena::new());
    let mut y = vec![0.0f32; w.output_size() * x.cols()];
    biqgemm_into(w, x, cfg, kernel, workers, &mut p, &mut arena, &mut y);
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cost model: BiQGEMM ops are always below GEMM ops at the model
    /// optimum µ (for m large enough that the optimum exists meaningfully),
    /// and Eq. 9's factor is what the totals realise.
    #[test]
    fn cost_model_consistent(
        m in 64usize..=8192,
        n in 64usize..=4096,
        b in 1usize..=256,
    ) {
        let mu = optimal_mu(m);
        let biq = biqgemm_ops(m, n, mu, b, 1);
        let gemm = gemm_ops(m, n, b, 1);
        prop_assert!(biq < gemm, "biq {} !< gemm {} at µ = {}", biq, gemm, mu);
        // Eq. 9 factor < 1 is precisely the win condition.
        prop_assert!(eq9_factor(m, mu) < 1.0);
    }

    /// Engine output is invariant to the tile/batch/chunk tiling and to
    /// running serial or row-parallel, bit-exactly, on integer data.
    #[test]
    fn tiling_invariance(
        (m, n, b) in (1usize..=24, 1usize..=48, 1usize..=6),
        (tr, tc, tb) in (1usize..=32, 1usize..=16, 1usize..=8),
        seed in any::<u64>(),
    ) {
        let mut g = MatrixRng::seed_from(seed);
        let w = BiqWeights::from_signs_unscaled(&g.signs(m, n), 4);
        let x = g.small_int_col(n, b, 3);
        let reference = run(&w, &x, &BiqConfig::with_mu(4), None);
        let cfg = BiqConfig {
            mu: 4,
            tile_rows: tr,
            tile_chunks: tc,
            tile_batch: tb,
            ..BiqConfig::default()
        };
        prop_assert_eq!(&run(&w, &x, &cfg, None), &reference);
        prop_assert_eq!(&run(&w, &x, &cfg, Some(2)), &reference);
    }
}
