//! Batch-packing invariance: a query column's result must not depend on
//! which batch it was packed into — any slicing of a wide batch into
//! narrower runs (including width-1 tiles, which take the GEMV gather
//! path) reproduces the wide run bit for bit, on arbitrary real-valued
//! inputs and at every supported kernel level.
//!
//! This is the kernel-level contract the serving layer's batcher stands
//! on: `biq_serve` packs single-column requests into whatever width the
//! window yields, so a request's bits would otherwise depend on traffic
//! timing. The invariant holds **by construction**: every accumulation
//! that crosses chunk boundaries realises the one canonical order — the
//! fixed 8-partial tree specified in `core::simd` (`partials[ci % 8]`,
//! pairwise fold) — whether it runs as the lanes of `lut_gather_rows`'
//! width-1 chain (each batch column of a narrow tile's column tables),
//! `lut_query_fused_rows`' register columns (wider KeyMajor tiles),
//! at any kernel level (scalar runs the same bodies over an `[f32; 8]`),
//! or on the row-parallel driver.

use biq_matrix::{ColMatrix, MatrixRng};
use biq_quant::greedy_quantize_matrix_rowwise;
use biqgemm_core::simd::supported_levels;
use biqgemm_core::{biqgemm_into, BiqArena, BiqConfig, BiqWeights, KernelRequest, PhaseProfile};

/// Slices `x` into contiguous runs of every width in `1..=min(b, 10)`.
fn check_widths(m: usize, n: usize, b: usize, bits: usize, cfg: &BiqConfig) {
    check_given_widths(m, n, b, bits, cfg, 1..=b.min(10));
}

/// Slices `x` into contiguous runs of `width` columns for each given
/// width, runs each through the serial kernel, and asserts bit-equality
/// with the full-width run.
fn check_given_widths(
    m: usize,
    n: usize,
    b: usize,
    bits: usize,
    cfg: &BiqConfig,
    widths: impl IntoIterator<Item = usize>,
) {
    let mut g = MatrixRng::seed_from((m * 31 + n * 7 + bits) as u64);
    let w = BiqWeights::from_multibit(
        &greedy_quantize_matrix_rowwise(&g.gaussian(m, n, 0.0, 1.0), bits),
        cfg.mu,
    );
    let x = g.gaussian_col(n, b, 0.0, 1.0);
    let kernel = cfg.kernel.resolve().expect("level must resolve");
    let mut profile = PhaseProfile::new();
    let mut arena = BiqArena::new();

    let mut y_full = vec![0.0f32; m * b];
    biqgemm_into(&w, &x, cfg, kernel, None, &mut profile, &mut arena, &mut y_full);

    for width in widths {
        for start in (0..b).step_by(width) {
            let cols = width.min(b - start);
            let mut data = Vec::with_capacity(n * cols);
            for j in start..start + cols {
                data.extend_from_slice(x.col(j));
            }
            let xs = ColMatrix::from_vec(n, cols, data);
            let mut y = vec![0.0f32; m * cols];
            biqgemm_into(&w, &xs, cfg, kernel, None, &mut profile, &mut arena, &mut y);
            for j in 0..cols {
                for i in 0..m {
                    assert_eq!(
                        y[i * cols + j].to_bits(),
                        y_full[i * b + start + j].to_bits(),
                        "m={m} n={n} bits={bits}: col {} differs between width {width} \
                         and width {b} (row {i})",
                        start + j,
                    );
                }
            }
        }
    }
}

#[test]
fn any_slicing_matches_the_full_batch_bit_for_bit() {
    for &(m, n, bits) in &[(24usize, 32usize, 1usize), (17, 29, 2), (8, 40, 3)] {
        // Small batch hint forces narrow tile_batch clamping upstream; at
        // this level we drive widths directly.
        check_widths(m, n, 12, bits, &BiqConfig::default());
    }
}

#[test]
fn byte_key_edge_shapes_are_packing_invariant() {
    // The shapes where the b = 1 gather has least to work with: one row,
    // n < µ (a single ragged chunk), odd row counts, fewer than 8 chunks
    // per tile — and µ = 12 across the key-width boundary for contrast.
    let few_chunks = BiqConfig { tile_chunks: 5, tile_rows: 3, ..BiqConfig::default() };
    for &(m, n, bits, cfg) in &[
        (1usize, 64usize, 1usize, BiqConfig::default()),
        (1, 5, 2, BiqConfig::default()),
        (9, 72, 1, BiqConfig::default()),
        (7, 203, 2, few_chunks),
        (5, 61, 1, BiqConfig { mu: 7, ..few_chunks }),
        (6, 100, 2, BiqConfig { mu: 12, ..few_chunks }),
    ] {
        check_widths(m, n, 12, bits, &cfg);
    }
}

#[test]
fn invariance_holds_at_every_supported_kernel_level() {
    // b = 12: every slicing width 1..=10 leaves a ragged tail somewhere
    // (5, 7, 8, 9, 10 don't divide 12), so each level's gather, fused,
    // and tail paths all get exercised against the same wide run.
    for level in supported_levels() {
        let cfg = BiqConfig { kernel: KernelRequest::Exact(level), ..BiqConfig::default() };
        check_widths(24, 32, 12, 2, &cfg);
    }
}

#[test]
fn wide_batches_are_packing_invariant_at_every_level() {
    // b = 64 in one batch tile: the AVX-512 level takes two 32-lane passes
    // per row. Every narrower packing of the same columns — the 32-lane
    // body alone, 32 + a 16-/8-lane/scalar remainder, per-row bodies only,
    // the width-1 gather — must reproduce it, with row tiles that cross the
    // bit-plane wrap (8 ∤ 21) and a ragged last chunk (70 ∤ 8).
    for level in supported_levels() {
        let cfg = BiqConfig {
            kernel: KernelRequest::Exact(level),
            tile_rows: 8,
            tile_batch: 64,
            ..BiqConfig::default()
        };
        check_given_widths(21, 70, 64, 3, &cfg, [1, 15, 16, 17, 31, 32, 33, 48]);
    }
}

#[test]
fn every_serving_width_equals_its_columns_served_alone() {
    // What the batcher relies on, width by width: at default tiles, every
    // batch width it can dispatch at the shipped cap (1..=16, and 17 just
    // past it) plus b = 35 (a 32-wide batch tile and a 3-wide one) gives
    // each column exactly the bits it gets alone at b = 1 — at every level,
    // on the serial path and the parallel driver at every worker count.
    // Widths up to `COLUMN_TABLES_MAX` build column tables, one width-1
    // gather each; the wider ones up to 15 run entirely in the remainder
    // passes of the fused query and of the DP build; 13 chunks leave a
    // ragged chunk tail under every one of them.
    let (m, n, bits, widest) = (21usize, 100usize, 2usize, 35usize);
    let mut g = MatrixRng::seed_from(7100);
    let w = BiqWeights::from_multibit(
        &greedy_quantize_matrix_rowwise(&g.gaussian(m, n, 0.0, 1.0), bits),
        BiqConfig::default().mu,
    );
    let x = g.gaussian_col(n, widest, 0.0, 1.0);
    let mut profile = PhaseProfile::new();
    let mut arena = BiqArena::new();
    for level in supported_levels() {
        let cfg = BiqConfig { kernel: KernelRequest::Exact(level), ..BiqConfig::default() };
        let kernel = cfg.kernel.resolve().expect("supported level resolves");
        let mut run = |cfg: &BiqConfig, x: &ColMatrix, workers: Option<usize>| {
            let mut y = vec![0.0f32; m * x.cols()];
            biqgemm_into(&w, x, cfg, kernel, workers, &mut profile, &mut arena, &mut y);
            y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        // alone[j] = column j served at b = 1.
        let alone: Vec<Vec<u32>> = (0..widest)
            .map(|j| run(&cfg, &ColMatrix::from_vec(n, 1, x.col(j).to_vec()), None))
            .collect();
        for b in (1..=17).chain([widest]) {
            let xb = ColMatrix::from_vec(n, b, x.as_slice()[..n * b].to_vec());
            let want: Vec<u32> = (0..m * b).map(|e| alone[e % b][e / b]).collect();
            for workers in [None, Some(1), Some(2), Some(3), Some(7)] {
                assert_eq!(run(&cfg, &xb, workers), want, "level={level} b={b} on {workers:?}");
            }
        }
    }
}

#[test]
fn width_one_matches_the_parallel_driver() {
    // The serial width-1 gather path and the row-parallel driver must
    // agree on real-valued inputs: whichever body answers — the width-1
    // chain of `lut_gather_rows`, the fused lane path, or a parallel driver — it
    // realises the same canonical accumulation tree.
    let (m, n) = (48, 64);
    let mut g = MatrixRng::seed_from(77);
    let w = BiqWeights::from_multibit(
        &greedy_quantize_matrix_rowwise(&g.gaussian(m, n, 0.0, 1.0), 2),
        BiqConfig::default().mu,
    );
    let x = g.gaussian_col(n, 1, 0.0, 1.0);
    let mut profile = PhaseProfile::new();
    let kernel = BiqConfig::default().kernel.resolve().expect("auto resolves");

    let mut y_serial = vec![0.0f32; m];
    let mut arena = BiqArena::new();
    let cfg = BiqConfig::default();
    biqgemm_into(&w, &x, &cfg, kernel, None, &mut profile, &mut arena, &mut y_serial);

    let mut y = vec![0.0f32; m];
    biqgemm_into(&w, &x, &cfg, kernel, Some(2), &mut profile, &mut arena, &mut y);
    assert_eq!(
        y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        y_serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "the parallel driver drifted from serial at b=1"
    );
}
