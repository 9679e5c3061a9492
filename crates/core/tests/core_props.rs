//! Property tests for the BiQGEMM engine beyond the workspace-level suite:
//! Eq. 3 identities, planner feasibility, and cost-model sanity.

use biq_matrix::{ColMatrix, MatrixRng};
use biqgemm_core::actquant::{biqgemm_quantized_activations, QuantizedActivations};
use biqgemm_core::complexity::{biqgemm_ops, eq9_factor, gemm_ops, optimal_mu};
use biqgemm_core::planner::plan;
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

    /// Eq. 3 with pre-quantized activations equals plain BiQGEMM on the
    /// dequantized activations (the identity is exact; only f32 rounding
    /// from reordering differs).
    #[test]
    fn eq3_identity(
        (m, n, b) in (2usize..=16, 4usize..=32, 1usize..=4),
        bits_a in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let mut g = MatrixRng::seed_from(seed);
        let w = BiqWeights::from_signs_unscaled(&g.signs(m, n), 4);
        let x = g.gaussian_col(n, b, 0.0, 1.0);
        let xq = QuantizedActivations::quantize(&x, bits_a);
        let cfg = BiqConfig::with_mu(4);
        let y_eq3 = biqgemm_quantized_activations(&w, &xq, &cfg);
        let y_deq = run(&w, &xq.dequantize(), &cfg, None);
        for (a, bv) in y_eq3.as_slice().iter().zip(&y_deq) {
            prop_assert!((a - bv).abs() <= 1e-3 * (1.0 + bv.abs()), "{} vs {}", a, bv);
        }
    }

    /// The planner always returns a valid config whose LUT tile fits the
    /// budget and whose µ never exceeds the input size.
    #[test]
    fn planner_feasible(
        m in 1usize..=8192,
        n in 1usize..=8192,
        b in 0usize..=512,
        budget in 64usize..=4_000_000,
    ) {
        let cfg = plan(m, n, b, budget.max(8));
        cfg.validate();
        prop_assert!(cfg.mu <= 16);
        prop_assert!(cfg.mu <= n.max(1));
        // Either the tile fits, or µ bottomed out at 1 chunk × µ=1.
        prop_assert!(
            cfg.lut_tile_bytes() <= budget.max(8)
                || (cfg.mu == 1 && cfg.tile_chunks == 1),
            "tile {} bytes vs budget {}", cfg.lut_tile_bytes(), budget
        );
    }

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

    /// Engine output is invariant to the tile/batch/chunk tiling and the
    /// schedule, bit-exactly, on integer data.
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
