//! The unification property: every BiQGEMM plan — serial, and
//! row-parallel on 1 (inline), 2, 3 and 7 workers — run through one
//! executor produces outputs **bit-identical** to the naive dense
//! reference, for arbitrary shapes, µ, and batch sizes.
//!
//! Integer-valued inputs make every accumulation order exact, so agreement
//! must be `==` on the raw f32 bits, not approximate. Edge cases the
//! strategies force: `n` not divisible by µ (ragged tail chunk), `b = 1`
//! (GEMV fast path), `m = 1` (single output row, more workers than row
//! blocks), and µ larger than `n`.

use biq_matrix::{ColMatrix, MatrixRng, SignMatrix};
use biq_quant::greedy_quantize_matrix_rowwise;
use biq_runtime::{
    compile, BackendSpec, Executor, PlanBuilder, QuantMethod, Threading, WeightSource,
};
use biqgemm_core::BiqConfig;
use proptest::prelude::*;

fn sign_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = SignMatrix> {
    (1..=max_rows, 1..=max_cols, any::<u64>())
        .prop_map(|(r, c, seed)| MatrixRng::seed_from(seed).signs(r, c))
}

/// Runs `weights` against `x` under every threading of `cfg` — a serial
/// plan, then a parallel plan at each worker count — through one shared
/// executor (so arena reuse across plans and growing worker counts is
/// exercised too). Asserts every parallel plan reproduces the serial
/// plan's bits and returns them.
fn assert_all_plans_agree(
    (m, n, bits): (usize, usize, usize),
    weights: impl Fn() -> WeightSource<'static>,
    x: &ColMatrix,
    cfg: BiqConfig,
) -> Vec<f32> {
    let mut exec = Executor::new();
    let mut run = |cfg: BiqConfig, workers: Option<usize>| {
        let builder = PlanBuilder::new(m, n)
            .batch_hint(x.cols())
            .backend(BackendSpec::Biq { bits, method: QuantMethod::Greedy })
            .config(cfg);
        let plan = match workers {
            None => builder.threading(Threading::Serial),
            Some(n) => builder.threads(n).threading(Threading::Parallel),
        }
        .build();
        assert_eq!(plan.workers, workers);
        let op = compile(&plan, weights());
        let y = exec.run(&op, x).into_vec();
        // Repeat run through the warmed arena must not drift.
        assert_eq!(exec.run(&op, x).as_slice(), y, "rerun, {workers:?} workers");
        y
    };
    let serial = run(cfg, None);
    for workers in [1, 2, 3, 7] {
        assert_eq!(run(cfg, Some(workers)), serial, "{workers} workers");
    }
    serial
}

/// [`assert_all_plans_agree`] for 1-bit sign weights, pinned to the dense
/// naive GEMM on the ±1 matrix.
fn assert_all_paths_agree(signs: &SignMatrix, x: &ColMatrix, cfg: BiqConfig) {
    let (m, n) = signs.shape();
    // Pre-packed once; each plan gets its own copy of the same keys.
    let packed = biqgemm_core::BiqWeights::from_signs_unscaled(signs, cfg.mu);
    let y = assert_all_plans_agree((m, n, 1), || WeightSource::Packed(packed.clone()), x, cfg);
    assert_eq!(y, biq_gemm::gemm_naive(&signs.to_f32(), x).as_slice(), "serial plan");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes, µ, tile sizes and batches — batch tiles of 1–6
    /// columns, on both sides of the column-table bound.
    #[test]
    fn all_paths_bit_identical(
        signs in sign_matrix(33, 48),
        mu in 1usize..=12,
        (tr, tc, tb) in (1usize..=9, 1usize..=5, 1usize..=6),
        batch in 1usize..=7,
        seed in any::<u64>(),
    ) {
        let n = signs.cols();
        let x = MatrixRng::seed_from(seed).small_int_col(n, batch, 3);
        let cfg = BiqConfig {
            mu,
            tile_rows: tr,
            tile_chunks: tc,
            tile_batch: tb,
            ..BiqConfig::default()
        };
        assert_all_paths_agree(&signs, &x, cfg);
    }

    /// Ragged tail: µ chosen to *never* divide n.
    #[test]
    fn ragged_tail_chunks(
        (n_chunks, tail) in (1usize..=4, 1usize..=7),
        m in 1usize..=24,
        batch in 1usize..=5,
        seed in any::<u64>(),
    ) {
        let mu = 8usize;
        let n = n_chunks * mu + tail.min(mu - 1).max(1); // guaranteed µ ∤ n
        let mut g = MatrixRng::seed_from(seed);
        let signs = g.signs(m, n);
        let x = g.small_int_col(n, batch, 2);
        assert_all_paths_agree(&signs, &x, BiqConfig { mu, tile_rows: 3, tile_chunks: 2, tile_batch: 2, ..BiqConfig::default() });
    }
}

#[test]
fn gemv_single_batch_column() {
    let mut g = MatrixRng::seed_from(0xb1);
    let signs = g.signs(40, 70);
    let x = g.small_int_col(70, 1, 4);
    assert_all_paths_agree(&signs, &x, BiqConfig::default());
}

#[test]
fn single_output_row() {
    let mut g = MatrixRng::seed_from(0xb2);
    let signs = g.signs(1, 100);
    let x = g.small_int_col(100, 6, 3);
    assert_all_paths_agree(&signs, &x, BiqConfig::with_mu(8));
}

#[test]
fn mu_larger_than_input() {
    let mut g = MatrixRng::seed_from(0xb3);
    let signs = g.signs(9, 5); // single ragged chunk: µ = 8 > n = 5
    let x = g.small_int_col(5, 3, 3);
    assert_all_paths_agree(&signs, &x, BiqConfig::with_mu(8));
}

#[test]
fn multibit_weights_agree_across_paths() {
    // Multi-bit planes stress the key-row stacking (r mod m indexing);
    // m = 21 leaves a ragged last row block at every worker count. Batch
    // tiles of 1–5 columns straddle the column-table bound.
    let mut g = MatrixRng::seed_from(0xb4);
    let wf = g.small_int_matrix(21, 40, 2);
    let x = g.small_int_col(40, 5, 2);
    let q = greedy_quantize_matrix_rowwise(&wf, 3);
    let packed = biqgemm_core::BiqWeights::from_multibit(&q, 8);
    let ys: Vec<Vec<f32>> = (1..=5)
        .map(|tile_batch| {
            let cfg = BiqConfig {
                mu: 8,
                tile_rows: 5,
                tile_chunks: 2,
                tile_batch,
                ..BiqConfig::default()
            };
            assert_all_plans_agree((21, 40, 3), || WeightSource::Packed(packed.clone()), &x, cfg)
        })
        .collect();
    assert_eq!(ys[0].len(), 21 * 5);
    assert!(ys.iter().all(|y| *y == ys[0]), "batch tiles of 1–5 columns disagree");
}
