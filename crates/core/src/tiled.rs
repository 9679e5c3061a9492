//! Algorithm 2: LUT-stationary tiled BiQGEMM (serial).
//!
//! The loop nest follows Fig. 7 of the paper. Lookup tables are **not**
//! precomputed and fetched from DRAM; each (batch-tile × chunk-tile) bank is
//! built on the fly (Line 3 of Algorithm 2) and stays stationary while every
//! key-matrix tile that needs it streams past (Lines 4–6) — the tiles of
//! every *member* of the run, when several weight matrices share the input
//! ([`biqgemm_group_into`]: an attention block's `W_q`, `W_k`, `W_v`):
//!
//! ```text
//! for each batch tile:
//!   for each chunk tile TX:
//!     build bank TQ from TX                  (Algorithm 1, build/replace)
//!     for each member W (its rows in the run's row window):
//!       for each plane p of W:
//!         for each row tile TK of plane p's key rows:
//!           for each key row r in TK:
//!             acc[·] += q^β_·[K[r, β]]  over the tile's chunks   (query)
//!             Y_W[r mod m, ·] += α_r · acc
//! ```
//!
//! Partial outputs from different chunk tiles accumulate into `Y`; the scale
//! `α_r` distributes over partial sums, so applying it per chunk tile is
//! exact up to f32 rounding. A row's arithmetic reads only its own keys and
//! the shared bank, so a member's rows round exactly as in a run of that
//! member alone: grouping moves no bit, by construction.

use crate::arena::BiqArena;
use crate::config::BiqConfig;
use crate::layout::LutBank;
use crate::parallel::row_parallel;
use crate::profile::PhaseProfile;
use crate::simd::ResolvedKernel;
use crate::weights::BiqWeights;
use biq_matrix::reshape::ChunkedInput;
use biq_matrix::view::tile_ranges;
use biq_matrix::ColMatrix;
use std::ops::Range;

/// BiQGEMM into a caller-provided output buffer — the one-member case of
/// [`biqgemm_group_into`], which the plan/executor layer (`biq_runtime`)
/// sits directly on. `y` is a row-major `m × b` buffer, overwritten. The
/// build/query hot loops run at the resolved level `kernel` (pinned by the
/// caller's plan — no feature probing happens here), and every scratch need
/// is drawn from `arena`: once it has warmed to the workload's shape,
/// repeat calls perform **no heap allocation** on the calling thread.
///
/// `workers` is the plan's threading decision:
///
/// * `None` — the serial LUT-stationary tile loop (Algorithm 2) on the
///   calling thread, its time split into `profile`'s build / query /
///   replace phases (Fig. 8);
/// * `Some(n)` — the row-parallel driver ([`crate::parallel`]) on the
///   calling thread and up to `n − 1` helpers of the arena's persistent
///   [`crate::parallel::WorkerSet`], the whole run charged to
///   `profile.query`. `Some(1)` runs the same driver inline, waking no
///   helper.
///
/// Outputs are bit-identical for every `workers` value: threads partition
/// *independent* output elements only.
///
/// # Panics
/// Panics if `x.rows() != w.input_size()`, `y.len() != m·b`, or the config
/// is invalid.
#[allow(clippy::too_many_arguments)]
pub fn biqgemm_into(
    w: &BiqWeights,
    x: &ColMatrix,
    cfg: &BiqConfig,
    kernel: ResolvedKernel,
    workers: Option<usize>,
    profile: &mut PhaseProfile,
    arena: &mut BiqArena,
    y: &mut [f32],
) {
    biqgemm_group_into(&[w], x, cfg, kernel, workers, profile, arena, y);
}

/// BiQGEMM of several weight matrices that share the input `x` — one run
/// whose lookup tables each serve the rows of every member (module docs).
/// `y` is the members' outputs stacked row-major: member `i`'s `m_i × b`
/// rows follow those of members `0..i` (`Σ m_i × b` floats, overwritten).
/// Every row is bit-identical to a [`biqgemm_into`] run of its member
/// alone, at every `workers` value.
///
/// `workers` as for [`biqgemm_into`]. Under `Some(n)` the row-parallel
/// driver splits the members' concatenated rows over its tasks, so each
/// task's replicated build serves rows of every member it covers.
///
/// # Panics
/// Panics if a member's input size differs from `x.rows()`, the members'
/// µ differ, `y.len() != Σ m_i · b`, or the config is invalid.
#[allow(clippy::too_many_arguments)]
pub fn biqgemm_group_into(
    ws: &[&BiqWeights],
    x: &ColMatrix,
    cfg: &BiqConfig,
    kernel: ResolvedKernel,
    workers: Option<usize>,
    profile: &mut PhaseProfile,
    arena: &mut BiqArena,
    y: &mut [f32],
) {
    cfg.validate();
    let mu = ws.first().map_or(cfg.mu, |w| w.mu());
    for w in ws {
        assert_eq!(x.rows(), w.input_size(), "inner dimension mismatch");
        assert_eq!(w.mu(), mu, "the members of one run share one µ");
    }
    let rows: usize = ws.iter().map(|w| w.output_size()).sum();
    assert_eq!(y.len(), rows * x.cols(), "output buffer must hold m·b floats");
    y.fill(0.0);
    match workers {
        None => {
            let bank = arena.local().get(mu);
            run_tiles(ws, x, cfg, kernel, profile, bank, 0..rows, y);
        }
        Some(n) => {
            let n = n.max(1);
            arena.ensure_slots(n);
            let arena = &*arena;
            profile.time_query(|| row_parallel(ws, x, cfg, kernel, n, arena, y));
        }
    }
}

/// The shared tile loop over the output rows `rows` of the members' stacked
/// output, writing into `y` — those rows only, `rows.start` first. Used by
/// both the serial run (every row) and each row-parallel task (its row
/// block). Per output element the accumulation order over (batch tile,
/// chunk tile, plane) is the same whatever the window, so parallel results
/// are bit-exact w.r.t. serial.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_tiles(
    ws: &[&BiqWeights],
    x: &ColMatrix,
    cfg: &BiqConfig,
    kernel: ResolvedKernel,
    profile: &mut PhaseProfile,
    bank: &mut LutBank,
    rows: Range<usize>,
    y: &mut [f32],
) {
    let b = x.cols();
    let Some(first) = ws.first() else { return };
    if b == 0 || rows.is_empty() {
        return;
    }
    let input = ChunkedInput::new(x, first.mu());
    for (b0, nb) in tile_ranges(b, cfg.tile_batch) {
        for (c0, nc) in tile_ranges(first.chunks(), cfg.tile_chunks) {
            bank.build(&input, c0, nc, b0, nb, profile, kernel);
            profile.time_query(|| {
                // `off`: the member's first row in the stacked output.
                let mut off = 0;
                for w in ws {
                    let m = w.output_size();
                    let (lo, hi) = (rows.start.max(off), rows.end.min(off + m));
                    off += m;
                    if lo >= hi {
                        continue;
                    }
                    // Plane `p` keeps output row `r` in key row `p·m + r`.
                    let (r_lo, r_hi) = (lo - (off - m), hi - (off - m));
                    let yrows = &mut y[(lo - rows.start) * b + b0..];
                    for p in 0..w.bits() {
                        for (r0, nr) in tile_ranges(r_hi - r_lo, cfg.tile_rows) {
                            // One query per row tile (`LutBank::query_rows`:
                            // the width-1 gather over each column's tables,
                            // or the fused KeyMajor query).
                            let t = p * m + r_lo + r0;
                            let tile = w.keys().tile(t..t + nr, c0, nc);
                            let y_tile = &mut yrows[r0 * b..];
                            bank.query_rows(tile, &w.scales()[t..t + nr], y_tile, b, kernel);
                        }
                    }
                }
            });
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-style loops read clearer in reference checks
mod tests {
    use super::*;
    use crate::layout::COLUMN_TABLES_MAX;
    use biq_matrix::{assert_allclose, Matrix, MatrixRng};
    use biq_quant::greedy_quantize_matrix_rowwise;

    /// Test-local one-shot serial harness over the entry point.
    fn biqgemm_tiled(
        w: &BiqWeights,
        x: &ColMatrix,
        cfg: &BiqConfig,
        profile: &mut PhaseProfile,
    ) -> Matrix {
        let mut y = Matrix::zeros(w.output_size(), x.cols());
        let mut arena = BiqArena::new();
        let kernel = cfg.kernel.resolve().expect("test kernel request must resolve");
        biqgemm_into(w, x, cfg, kernel, None, profile, &mut arena, y.as_mut_slice());
        y
    }

    fn reference(w: &BiqWeights, signs_f32: &Matrix, x: &ColMatrix) -> Matrix {
        // Dense reference of the same quantized product: Σ_p α_p ∘ (B_p X)
        // handled by the caller providing the dequantized matrix. Here `w` is
        // only used for shape checks.
        assert_eq!(signs_f32.cols(), w.input_size());
        biq_gemm::gemm_naive(signs_f32, x)
    }

    #[test]
    fn one_bit_unscaled_matches_naive_gemm_exactly() {
        let mut g = MatrixRng::seed_from(230);
        for &(m, n, b, mu) in &[
            (8usize, 16usize, 1usize, 4usize),
            (16, 24, 3, 4),
            (33, 40, 5, 8),
            (7, 10, 2, 4), // ragged n
            (64, 64, 9, 8),
            (5, 3, 2, 8), // n < µ (single ragged chunk)
        ] {
            let signs = g.signs(m, n);
            let x = g.small_int_col(n, b, 3);
            let w = BiqWeights::from_signs_unscaled(&signs, mu);
            let cfg = BiqConfig {
                mu,
                tile_rows: 4,
                tile_chunks: 2,
                tile_batch: 2,
                ..BiqConfig::default()
            };
            let mut prof = PhaseProfile::new();
            let y = biqgemm_tiled(&w, &x, &cfg, &mut prof);
            let y_ref = reference(&w, &signs.to_f32(), &x);
            assert_eq!(y.as_slice(), y_ref.as_slice(), "(m,n,b,µ)=({m},{n},{b},{mu})");
        }
    }

    #[test]
    fn both_layouts_agree() {
        // Batch tiles of every width on both sides of the column-table
        // bound, on one input: each column's bits match whichever layout
        // its tile takes.
        let mut g = MatrixRng::seed_from(231);
        let signs = g.signs(20, 32);
        let x = g.small_int_col(32, 6, 2);
        let w = BiqWeights::from_signs_unscaled(&signs, 8);
        let mk = |tile_batch| BiqConfig {
            mu: 8,
            tile_rows: 8,
            tile_chunks: 2,
            tile_batch,
            ..BiqConfig::default()
        };
        let mut p = PhaseProfile::new();
        let want = biqgemm_tiled(&w, &x, &mk(6), &mut p);
        for tile_batch in 1..=COLUMN_TABLES_MAX + 2 {
            let y = biqgemm_tiled(&w, &x, &mk(tile_batch), &mut p);
            assert_eq!(y.as_slice(), want.as_slice(), "tile_batch = {tile_batch}");
        }
    }

    #[test]
    fn multibit_matches_dequantized_gemm() {
        let mut g = MatrixRng::seed_from(232);
        for bits in 1..=3 {
            let wf = g.gaussian(24, 40, 0.0, 1.0);
            let x = g.gaussian_col(40, 4, 0.0, 1.0);
            let q = greedy_quantize_matrix_rowwise(&wf, bits);
            let w = BiqWeights::from_multibit(&q, 8);
            let cfg = BiqConfig {
                mu: 8,
                tile_rows: 7,
                tile_chunks: 3,
                tile_batch: 2,
                ..BiqConfig::default()
            };
            let mut prof = PhaseProfile::new();
            let y = biqgemm_tiled(&w, &x, &cfg, &mut prof);
            let y_ref = biq_gemm::gemm_naive(&q.dequantize(), &x);
            assert_allclose(&y, &y_ref, 1e-4, 1e-4);
        }
    }

    #[test]
    fn tile_shape_invariance() {
        // Output must not depend on tiling parameters.
        let mut g = MatrixRng::seed_from(233);
        let signs = g.signs(30, 50);
        let x = g.small_int_col(50, 7, 2);
        let w = BiqWeights::from_signs_unscaled(&signs, 4);
        let mut outputs = Vec::new();
        for (tr, tc, tb) in [(1, 1, 1), (3, 2, 4), (30, 13, 7), (100, 100, 100)] {
            let cfg = BiqConfig {
                mu: 4,
                tile_rows: tr,
                tile_chunks: tc,
                tile_batch: tb,
                ..BiqConfig::default()
            };
            let mut prof = PhaseProfile::new();
            outputs.push(biqgemm_tiled(&w, &x, &cfg, &mut prof));
        }
        for o in &outputs[1..] {
            assert_eq!(o.as_slice(), outputs[0].as_slice());
        }
    }

    #[test]
    fn scaled_one_bit_applies_row_scales() {
        let mut g = MatrixRng::seed_from(235);
        let signs = g.signs(6, 16);
        let scales: Vec<f32> = (0..6).map(|i| 0.25 * (i + 1) as f32).collect();
        let x = g.small_int_col(16, 2, 2);
        let w = BiqWeights::from_signs(&signs, &scales, 4);
        let cfg = BiqConfig { mu: 4, ..BiqConfig::default() };
        let mut prof = PhaseProfile::new();
        let y = biqgemm_tiled(&w, &x, &cfg, &mut prof);
        let y_raw = signs.matmul(&x);
        for i in 0..6 {
            for a in 0..2 {
                assert_eq!(y.get(i, a), scales[i] * y_raw.get(i, a));
            }
        }
    }

    #[test]
    fn single_column_gemv_matches_matvec() {
        let mut g = MatrixRng::seed_from(236);
        let signs = g.signs(15, 20);
        let x: Vec<f32> = (0..20).map(|i| (i as f32) - 10.0).collect();
        let w = BiqWeights::from_signs_unscaled(&signs, 8);
        let xm = ColMatrix::from_vec(20, 1, x.clone());
        let mut prof = PhaseProfile::new();
        let y = biqgemm_tiled(&w, &xm, &BiqConfig::default(), &mut prof);
        assert_eq!(y.as_slice(), signs.matvec(&x));
    }

    #[test]
    fn profile_accounts_all_phases() {
        let mut g = MatrixRng::seed_from(237);
        let signs = g.signs(256, 256);
        // One KeyMajor tile, whose step gather is the replace phase.
        let b = COLUMN_TABLES_MAX + 1;
        let x = g.gaussian_col(256, b, 0.0, 1.0);
        let w = BiqWeights::from_signs_unscaled(&signs, 8);
        let mut prof = PhaseProfile::new();
        let _ =
            biqgemm_tiled(&w, &x, &BiqConfig { tile_batch: b, ..BiqConfig::default() }, &mut prof);
        assert!(prof.build > std::time::Duration::ZERO);
        assert!(prof.query > std::time::Duration::ZERO);
        assert!(prof.replace > std::time::Duration::ZERO);
    }

    #[test]
    fn a_grouped_run_equals_separate_runs_bit_for_bit() {
        use crate::simd::{supported_levels, KernelRequest};
        // Members of different m and 1–3 bits over one input of n = 45
        // (n ∤ µ), at batch widths either side of the column-table bound
        // and of the 16-column batch tile.
        let mut g = MatrixRng::seed_from(239);
        let n = 45;
        let ws: Vec<BiqWeights> = [(24usize, 1usize), (40, 2), (17, 3)]
            .iter()
            .map(|&(m, bits)| {
                let q = greedy_quantize_matrix_rowwise(&g.gaussian(m, n, 0.0, 1.0), bits);
                BiqWeights::from_multibit(&q, 8)
            })
            .collect();
        let members: Vec<&BiqWeights> = ws.iter().collect();
        let rows: usize = ws.iter().map(BiqWeights::output_size).sum();
        let runs = [None, Some(1), Some(2), Some(3), Some(7)];
        for b in [1usize, 2, 3, 4, 5, 7, 32, 33] {
            let x = g.gaussian_col(n, b, 0.0, 1.0);
            for level in supported_levels() {
                for workers in runs {
                    let cfg = BiqConfig {
                        tile_rows: 5,
                        tile_chunks: 2,
                        tile_batch: 16,
                        kernel: KernelRequest::Exact(level),
                        ..BiqConfig::default()
                    };
                    let kernel = cfg.kernel.resolve().expect("a host level resolves");
                    let (mut p, mut arena) = (PhaseProfile::new(), BiqArena::new());
                    let mut want = Vec::with_capacity(rows * b);
                    for w in &ws {
                        let mut y = vec![0.0f32; w.output_size() * b];
                        biqgemm_into(w, &x, &cfg, kernel, workers, &mut p, &mut arena, &mut y);
                        want.extend(y.iter().map(|v| v.to_bits()));
                    }
                    let mut y = vec![f32::NAN; rows * b];
                    biqgemm_group_into(
                        &members, &x, &cfg, kernel, workers, &mut p, &mut arena, &mut y,
                    );
                    let got: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
                    assert!(got == want, "b = {b}, {level:?} on {workers:?}");
                }
            }
        }
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let mut g = MatrixRng::seed_from(238);
        let signs = g.signs(4, 8);
        let x = ColMatrix::zeros(8, 0);
        let w = BiqWeights::from_signs_unscaled(&signs, 4);
        let mut prof = PhaseProfile::new();
        let y = biqgemm_tiled(&w, &x, &BiqConfig::with_mu(4), &mut prof);
        assert_eq!(y.shape(), (4, 0));
    }
}
