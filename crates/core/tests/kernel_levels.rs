//! Per-level bit-exactness of the BiQGEMM kernels: every kernel level the
//! host can run must produce **exactly** the scalar level's output — for
//! the serial path, the row-parallel driver at every worker count, batch
//! tiles on both sides of the column-table bound, multi-bit weights, and ragged shapes (`n % µ ≠ 0`, batch widths
//! that are not a multiple of any vector width). This is the contract that makes the
//! plan-pinned level a pure performance knob and lets BIQM artifacts
//! re-resolve levels across machines without changing results.

use biq_matrix::{ColMatrix, MatrixRng};
use biq_quant::greedy_quantize_matrix_rowwise;
use biq_quant::packing::KeyMatrix;
use biqgemm_core::layout::{entry_stride, COLUMN_TABLES_MAX};
use biqgemm_core::simd::supported_levels;
use biqgemm_core::{
    biqgemm_into, BiqArena, BiqConfig, BiqWeights, KernelLevel, KernelRequest, PhaseProfile,
    ResolvedKernel,
};
use proptest::prelude::*;

fn exact(level: KernelLevel) -> ResolvedKernel {
    KernelRequest::Exact(level).resolve().expect("supported level must resolve")
}

fn run(
    w: &BiqWeights,
    x: &ColMatrix,
    cfg: &BiqConfig,
    k: ResolvedKernel,
    workers: Option<usize>,
) -> Vec<f32> {
    let mut profile = PhaseProfile::new();
    let mut arena = BiqArena::new();
    let mut y = vec![0.0f32; w.output_size() * x.cols()];
    biqgemm_into(w, x, cfg, k, workers, &mut profile, &mut arena, &mut y);
    y
}

fn serial(w: &BiqWeights, x: &ColMatrix, cfg: &BiqConfig, k: ResolvedKernel) -> Vec<f32> {
    run(w, x, cfg, k, None)
}

/// The row-parallel driver on 1 (inline), 2, 3 and 7 workers — on these shapes that
/// covers even and uneven row splits and more workers than row blocks.
/// Returns the output after asserting it is the same for every count.
fn parallel(w: &BiqWeights, x: &ColMatrix, cfg: &BiqConfig, k: ResolvedKernel) -> Vec<f32> {
    let inline = run(w, x, cfg, k, Some(1));
    for workers in [2, 3, 7] {
        assert_eq!(run(w, x, cfg, k, Some(workers)), inline, "{workers} workers vs inline");
    }
    inline
}

/// The shape grid every level is checked on: ragged `n % µ ≠ 0`, batch
/// widths straddling the 4/8/16-lane vector widths (and their remainders),
/// µ from tiny to the paper's 8, multi-bit planes.
const CASES: &[(usize, usize, usize, usize, usize)] = &[
    // (m, n, b, mu, bits)
    (8, 16, 1, 4, 1),
    (16, 24, 3, 4, 2),
    (33, 40, 5, 8, 1),
    (7, 10, 2, 4, 3),
    (64, 64, 9, 8, 1),
    (5, 3, 2, 8, 1), // n < µ: single ragged chunk
    (30, 50, 7, 4, 2),
    (40, 37, 13, 8, 1),  // ragged n, batch 13 (8 + 5 tail, 13 < 16)
    (24, 48, 17, 6, 2),  // batch 17 (16 + 1 tail)
    (48, 31, 33, 5, 1),  // batch 33 (2×16 + 1, also 4×8 + 1)
    (21, 100, 4, 12, 2), // µ > 8: the u16 key width
    (6, 28, 1, 9, 1),    // µ = 9, first width past the byte boundary, n ∤ µ
    (17, 33, 9, 8, 3),   // m = 17: one row past a 16-row task block
];

/// Byte-key (µ ≤ 8) shapes at the edges of the b = 1 gather: a single
/// row, `n < µ`, odd row counts (an unpaired last row), fewer than 8
/// chunks (no full vector group), chunk counts with a ragged `% 8` tail,
/// and multi-bit planes whose tiles wrap the output-row index.
const BYTE_KEY_CASES: &[(usize, usize, usize, usize)] = &[
    // (m, n, mu, bits)
    (1, 64, 8, 1),
    (1, 5, 8, 2),
    (9, 72, 8, 1),
    (7, 40, 8, 2),
    (33, 203, 8, 3),
    (5, 61, 7, 1),
    (13, 90, 3, 2),
];

#[test]
fn byte_key_edge_shapes_bit_exact_vs_scalar() {
    let mut g = MatrixRng::seed_from(7004);
    for &(m, n, mu, bits) in BYTE_KEY_CASES {
        let q = greedy_quantize_matrix_rowwise(&g.gaussian(m, n, 0.0, 1.0), bits);
        let w = BiqWeights::from_multibit(&q, mu);
        assert_eq!(w.keys().storage_bytes(), w.key_rows() * w.chunks(), "one byte per key");
        for b in [1usize, 3] {
            let x = g.gaussian_col(n, b, 0.0, 1.0);
            // Default tiles (whole rows in one gather) and tiny ones
            // (tiles split mid-row and mid-plane).
            for (tile_rows, tile_chunks) in [(64usize, 32usize), (4, 3)] {
                let cfg = BiqConfig { mu, tile_rows, tile_chunks, ..BiqConfig::default() };
                let want = serial(&w, &x, &cfg, ResolvedKernel::scalar());
                for level in supported_levels() {
                    let k = exact(level);
                    let what = format!(
                        "(m,n,µ,bits,b)=({m},{n},{mu},{bits},{b}) tiles=({tile_rows},\
                         {tile_chunks}) level={level}"
                    );
                    assert_eq!(want, serial(&w, &x, &cfg, k), "serial {what}");
                    assert_eq!(want, parallel(&w, &x, &cfg, k), "parallel {what}");
                }
            }
        }
    }
}

/// FNV-1a over the output's `f32` bit patterns.
fn digest(y: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in y {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Output digests recorded at parent commits — the first three *before*
/// keys became byte-wide (`u16` keys, per-call key scans, unconditional
/// prefetch), the next two before the row-blocked wide query and the
/// line-aligned bank, the last three before ragged batch lanes left the
/// scalar tails for masked vector passes: "bit-identical to before" is
/// pinned here, not assumed. Every level must reproduce them.
#[test]
fn golden_digests_from_parent_commits() {
    let small = BiqConfig { tile_rows: 7, tile_chunks: 3, tile_batch: 5, ..BiqConfig::default() };
    let cases = [
        // b = 1 gather, default tiles, 26 chunks (3 vector groups + tail).
        (0x601d_0001, (96, 203, 1, 2), BiqConfig::default(), 0xfb3c_7d35_99fc_bb97),
        // Fused path, ragged lanes and chunks.
        (0x601d_0002, (37, 83, 13, 3), small, 0x3e85_3a4d_362f_6066),
        // µ = 12: the width that stays u16.
        (0x601d_0003, (21, 100, 4, 2), BiqConfig { mu: 12, ..small }, 0xd63e_c0d2_29b6_45da),
        // b = 32, default tiles: one 32-lane pass per row, two chunk tiles
        // (32 + 6), row tiles that cross the bit-plane wrap at row 70.
        (0x601d_0004, (70, 300, 32, 2), BiqConfig::default(), 0xbf19_0f85_18b4_b772),
        // b = 48, default tiles: a 32-wide and a 16-wide batch tile, ragged
        // last chunk (515 ∤ 8), three planes.
        (0x601d_0005, (33, 515, 48, 3), BiqConfig::default(), 0x936c_71d9_852e_1682),
        // b = 5, default tiles: every lane group is a remainder pass, in the
        // query and in the DP build alike.
        (0x601d_0006, (70, 300, 5, 2), BiqConfig::default(), 0x1ea6_b9e4_f205_8143),
        // b = 13: 8 + 5 on 8-lane levels, one 13-lane remainder on 16-lane
        // ones; ragged last chunk, three planes.
        (0x601d_0007, (33, 515, 13, 3), BiqConfig::default(), 0xe7cf_91dd_82ca_f222),
        // b = 35 = one 32-wide batch tile + a 3-wide one: the remainder's
        // idle lanes sit over the next output row's first columns.
        (0x601d_0008, (64, 256, 35, 2), BiqConfig::default(), 0xf3ed_2e4b_6a98_ae6f),
        // Recorded before the width-1 gather chose its prefetch monomorph
        // once per dispatch and width-1 tables were built one tile per
        // dispatch. b = 1, 40-chunk tiles (40 KiB and 36 KiB: both take the
        // prefetching gather), a one-float last chunk (601 = 75·8 + 1),
        // row tiles that cross the bit-plane wrap at row 37.
        (
            0x601d_0009,
            (37, 601, 1, 2),
            BiqConfig { tile_chunks: 40, ..BiqConfig::default() },
            0xadf2_040a_4957_ba2a,
        ),
    ];
    for (seed, (m, n, b, bits), cfg, want) in cases {
        let mut g = MatrixRng::seed_from(seed);
        let q = greedy_quantize_matrix_rowwise(&g.gaussian(m, n, 0.0, 1.0), bits);
        let w = BiqWeights::from_multibit(&q, cfg.mu);
        let x = g.gaussian_col(n, b, 0.0, 1.0);
        for level in supported_levels() {
            let got = digest(&serial(&w, &x, &cfg, exact(level)));
            assert_eq!(got, want, "seed {seed:#x} level={level}: {got:#018x}");
        }
    }
}

/// The width-1 gather on a fixed grid at µ = 8, where a tile of `nc`
/// chunks is `nc` KiB: banks that fit a 32 KiB L1 through 32 chunks, and
/// larger ones from 33 (earlier builds prefetched only those). Chunk counts
/// straddle the 8-chunk group, row counts include an unpaired last row, the
/// key tile is a window of a wider matrix (stride > width) and the output
/// is strided, its gaps compared too. At every level `lut_gather_rows`
/// equals `Exact(Scalar)` bit for bit on the whole output, and so does
/// each row's sum queried as a one-row tile.
#[test]
fn width1_gathers_bit_exact_across_the_prefetch_threshold() {
    use biqgemm_core::simd::lut_gather_rows;
    let (mu, table, y_stride) = (8usize, 256usize, 3usize);
    let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let mut g = MatrixRng::seed_from(7008);
    let grid = [1usize, 7, 8, 9, 31, 32, 33, 40];
    let bank_bytes = |nc: usize| nc * table * 4;
    assert!(grid.iter().any(|&nc| bank_bytes(nc) <= 32 * 1024), "the grid has banks ≤ 32 KiB");
    assert!(grid.iter().any(|&nc| bank_bytes(nc) > 32 * 1024), "the grid has banks > 32 KiB");
    for nc in grid {
        let bank = g.gaussian(1, nc * table, 0.0, 1.0).as_slice().to_vec();
        for rows in [1usize, 2, 3, 65] {
            let km = KeyMatrix::pack(&g.signs(rows, (nc + 5) * mu), mu);
            let keys = km.tile(0..rows, 3, nc);
            let scales = g.gaussian(1, rows, 0.0, 1.0).as_slice().to_vec();
            let y0 = g.gaussian(1, rows * y_stride, 0.0, 1.0).as_slice().to_vec();
            let gather_rows = |k: ResolvedKernel| {
                let mut y = y0.clone();
                lut_gather_rows(&mut y, y_stride, &scales, &bank, table, keys, k);
                bits(&y)
            };
            let sums = |k: ResolvedKernel| {
                let sums: Vec<f32> =
                    (0..rows).map(|i| gather(&bank, table, keys.row(i), k)).collect();
                bits(&sums)
            };
            let (want_rows, want) =
                (gather_rows(ResolvedKernel::scalar()), sums(ResolvedKernel::scalar()));
            for level in supported_levels() {
                let what = format!("level={level} nc={nc} rows={rows}");
                assert_eq!(gather_rows(exact(level)), want_rows, "lut_gather_rows {what}");
                assert_eq!(sums(exact(level)), want, "one-row gather {what}");
            }
        }
    }
}

/// One key row's width-1 sum: `lut_gather_rows` on a one-row tile of a
/// contiguous bank, onto `0.0` with scale 1 (exact).
fn gather(
    bank: &[f32],
    table: usize,
    keys: biq_quant::packing::KeyTile<'_>,
    k: ResolvedKernel,
) -> f32 {
    let mut y = [0.0f32];
    biqgemm_core::simd::lut_gather_rows(&mut y, 1, &[1.0], bank, table, keys, k);
    y[0]
}

/// `len` random floats starting on a 64-byte boundary, as every real LUT
/// bank does (the bank's buffer type holds that; the wide AVX-512 body
/// debug-asserts it): the vector and the offset of its aligned window.
fn aligned_bank(g: &mut MatrixRng, len: usize) -> (Vec<f32>, usize) {
    let v = g.gaussian(1, len + 16, 0.0, 1.0).as_slice().to_vec();
    let off = (64 - v.as_ptr() as usize % 64) % 64 / 4;
    (v, off)
}

/// The row-tile entry point against its two references, bit for bit, over
/// the lane/chunk/µ grid: every level equals `Exact(Scalar)`, and one call
/// on a row tile equals one call per row (each of those is a one-row
/// tile). Lane counts are every width through 33 — each
/// remainder of the 8- and 16-lane groups, alone and after full groups and
/// a 32-lane pass (on AVX-512 a remainder of ≤ 8 lanes, widths 1–8 and 33,
/// runs AVX2's body) — plus 48 and 64; chunk counts straddle the 8-chunk
/// group, µ both key widths, and tiles of ≤ 32 KiB and > 32 KiB.
/// Tiles are a window of a wider key matrix (stride > width); the bank
/// slice (entries of the padded `entry_stride(nb)`) ends with the last
/// entry, and the *whole* strided output is compared, so a remainder pass
/// that stored into the 3-float gap after a row (its idle lanes) fails
/// here.
#[test]
fn fused_rows_bit_exact_vs_scalar_and_vs_row_by_row() {
    use biqgemm_core::simd::lut_query_fused_rows;
    let mut g = MatrixRng::seed_from(7005);
    // One aligned pool, large enough for the biggest bank of the grid.
    let (pool, off) = aligned_bank(&mut g, 32 * (1 << 12) * 64);
    for mu in [4usize, 8, 12] {
        let table = 1usize << mu;
        for nc in [1usize, 7, 8, 9, 32] {
            for nb in (1usize..=33).chain([48, 64]) {
                let bank = &pool[off..off + nc * table * entry_stride(nb)];
                for rows in [1usize, 5] {
                    let km = KeyMatrix::pack(&g.signs(rows, (nc + 3) * mu), mu);
                    let keys = km.tile(0..rows, 2, nc);
                    let scales = g.gaussian(1, rows, 0.0, 1.0).as_slice().to_vec();
                    let y_stride = nb + 3;
                    let y0 = g.gaussian(1, rows * y_stride, 0.0, 1.0).as_slice().to_vec();
                    let run = |k: ResolvedKernel| {
                        let mut y = y0.clone();
                        lut_query_fused_rows(&mut y, y_stride, &scales, bank, table, nb, keys, k);
                        y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
                    };
                    let want = run(ResolvedKernel::scalar());
                    for level in supported_levels() {
                        let k = exact(level);
                        let what = format!("level={level} µ={mu} nc={nc} nb={nb} rows={rows}");
                        assert_eq!(run(k), want, "vs scalar: {what}");
                        let mut y = y0.clone();
                        for i in 0..rows {
                            lut_query_fused_rows(
                                &mut y[i * y_stride..],
                                y_stride,
                                &scales[i..i + 1],
                                bank,
                                table,
                                nb,
                                km.tile(i..i + 1, 2, nc),
                                k,
                            );
                        }
                        let by_row: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(by_row, want, "row by row: {what}");
                    }
                }
            }
        }
    }
}

/// The two row-shaped steps of the batched DP build, at every row width
/// through 33 (each remainder of the 8- and 16-lane groups, alone and after
/// full groups): every level equals `Exact(Scalar)` bit for bit on inputs
/// that include ±0.0, subnormals and NaN payloads, and writes nothing past
/// the block — the floats after `dst` are sentinels a remainder pass's idle
/// lanes would hit first.
#[test]
fn build_primitives_bit_exact_at_every_row_width() {
    use biqgemm_core::simd::{dp_step_add_rows, negate_rows_reversed};
    const SENTINEL: u32 = 0x7fc5_a5a5;
    let specials = [
        0.0f32,
        -0.0,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 8.0,
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xffc0_0042),
        f32::INFINITY,
    ];
    let mut g = MatrixRng::seed_from(7007);
    for nb in 1usize..=33 {
        for rows in [1usize, 2, 8] {
            let len = rows * nb;
            // Specials land in `src` only: an add with one NaN operand has
            // one possible payload, whichever order the operands take.
            let mut src = g.gaussian(1, len, 0.0, 1.0).as_slice().to_vec();
            for (i, v) in src.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = specials[(i / 3 + nb) % specials.len()];
                }
            }
            let step = g.gaussian(1, nb, 0.0, 1.0).as_slice().to_vec();
            let run = |k: ResolvedKernel, negate: bool| {
                let mut dst = vec![f32::from_bits(SENTINEL); len + 19];
                if negate {
                    negate_rows_reversed(&mut dst[..len], &src, nb, k);
                } else {
                    dp_step_add_rows(&mut dst[..len], &src, &step, k);
                }
                dst.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            };
            for negate in [false, true] {
                let want = run(ResolvedKernel::scalar(), negate);
                assert!(want[len..].iter().all(|&b| b == SENTINEL));
                for level in supported_levels() {
                    assert_eq!(
                        run(exact(level), negate),
                        want,
                        "level={level} nb={nb} rows={rows} negate={negate}"
                    );
                }
            }
        }
    }
}

/// Wide batches through the tile loop: b ≥ 32 with tiles wide enough to
/// reach the 32-lane passes, row tiles that do not divide m (so they cross
/// the bit-plane wrap and end in a short last tile), serial and
/// row-parallel, and the same columns in batch tiles narrow enough for
/// column tables — one width-1 gather per batch column — against the wide
/// KeyMajor tiles' scalar output.
#[test]
fn wide_batch_tiles_bit_exact_vs_scalar() {
    let mut g = MatrixRng::seed_from(7006);
    for &(m, n, b, mu, bits) in &[
        (21usize, 70usize, 32usize, 8usize, 3usize),
        (19, 45, 33, 4, 2),
        (10, 64, 48, 8, 2),
        (13, 100, 64, 12, 1),
    ] {
        let q = greedy_quantize_matrix_rowwise(&g.gaussian(m, n, 0.0, 1.0), bits);
        let w = BiqWeights::from_multibit(&q, mu);
        let x = g.gaussian_col(n, b, 0.0, 1.0);
        let cfg =
            BiqConfig { mu, tile_rows: 8, tile_chunks: 5, tile_batch: 64, ..BiqConfig::default() };
        let want = serial(&w, &x, &cfg, ResolvedKernel::scalar());
        for tile_batch in [64, COLUMN_TABLES_MAX.max(1)] {
            let cfg = BiqConfig { tile_batch, ..cfg };
            for level in supported_levels() {
                let k = exact(level);
                let what =
                    format!("(m,n,b,µ,bits)=({m},{n},{b},{mu},{bits}) /{tile_batch} level={level}");
                assert_eq!(want, serial(&w, &x, &cfg, k), "serial {what}");
                assert_eq!(want, parallel(&w, &x, &cfg, k), "parallel {what}");
            }
        }
    }
}

#[test]
fn serial_levels_bit_exact_vs_scalar_across_shapes() {
    let mut g = MatrixRng::seed_from(7001);
    let levels = supported_levels();
    for &(m, n, b, mu, bits) in CASES {
        let wf = g.gaussian(m, n, 0.0, 1.0);
        let q = greedy_quantize_matrix_rowwise(&wf, bits);
        let w = BiqWeights::from_multibit(&q, mu);
        let x = g.gaussian_col(n, b, 0.0, 1.0);
        // Batch tiles of every width on both sides of the column-table
        // bound: all of them reproduce the scalar run of the widest.
        let cfg = |tile_batch| BiqConfig {
            mu,
            tile_rows: 8,
            tile_chunks: 3,
            tile_batch,
            ..BiqConfig::default()
        };
        let want = serial(&w, &x, &cfg(COLUMN_TABLES_MAX + 2), ResolvedKernel::scalar());
        for tile_batch in 1..=COLUMN_TABLES_MAX + 2 {
            for &level in &levels {
                let got = serial(&w, &x, &cfg(tile_batch), exact(level));
                assert_eq!(
                    want, got,
                    "(m,n,b,µ,bits)=({m},{n},{b},{mu},{bits}) /{tile_batch} level={level}"
                );
            }
        }
    }
}

#[test]
fn parallel_levels_bit_exact_vs_scalar_serial() {
    let mut g = MatrixRng::seed_from(7002);
    let levels = supported_levels();
    for &(m, n, b, mu, bits) in CASES {
        let wf = g.gaussian(m, n, 0.0, 1.0);
        let q = greedy_quantize_matrix_rowwise(&wf, bits);
        let w = BiqWeights::from_multibit(&q, mu);
        let x = g.gaussian_col(n, b, 0.0, 1.0);
        let cfg = |tile_batch| BiqConfig {
            mu,
            tile_rows: 4,
            tile_chunks: 2,
            tile_batch,
            ..BiqConfig::default()
        };
        let want = serial(&w, &x, &cfg(COLUMN_TABLES_MAX + 3), ResolvedKernel::scalar());
        for tile_batch in 1..=COLUMN_TABLES_MAX + 3 {
            for &level in &levels {
                let got = parallel(&w, &x, &cfg(tile_batch), exact(level));
                assert_eq!(
                    want, got,
                    "(m,n,b,µ,bits)=({m},{n},{b},{mu},{bits}) /{tile_batch} level={level}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The width-1 contract: across random shapes/µ — both key widths,
    /// chunk counts with ragged `% 8` tails, tiles of ≤ 32 KiB and
    /// > 32 KiB — the width-1 gather on a one-row tile equals
    /// the fused kernel at `nb = 1` bit for bit, at every supported level,
    /// and every level equals scalar. This is what lets `layout.rs` route
    /// width-1 tiles through the gather while the batcher packs the same
    /// column into fused runs: both realise the canonical accumulation tree.
    #[test]
    fn gather_equals_fused_at_width_one(
        chunks in 1usize..40,
        mu in 1usize..=12,
        seed in 0u64..1_000_000,
    ) {
        use biqgemm_core::simd::lut_query_fused_rows;
        let table = 1usize << mu;
        let mut g = MatrixRng::seed_from(seed ^ 0xa11);
        // A width-1 bank: chunk c's table occupies bank[c*table..][..table].
        let bank: Vec<f32> =
            g.gaussian(1, chunks * table, 0.0, 1.0).as_slice().to_vec();
        // The same tables as a one-column KeyMajor bank: each entry padded
        // to the entry stride, lane 0 live.
        let s = entry_stride(1);
        let padded: Vec<f32> =
            (0..chunks * table * s).map(|i| if i % s == 0 { bank[i / s] } else { 0.0 }).collect();
        let km = KeyMatrix::pack(&g.signs(1, chunks * mu), mu);
        let keys = km.tile(0..1, 0, chunks);
        let scale = 1.0f32;
        let scalar = gather(&bank, table, keys, ResolvedKernel::scalar());
        for level in supported_levels() {
            let k = exact(level);
            let gathered = gather(&bank, table, keys, k);
            prop_assert_eq!(
                gathered.to_bits(), scalar.to_bits(),
                "gather level={} vs scalar (chunks={}, mu={})", level, chunks, mu
            );
            let mut fused = [0.0f32];
            lut_query_fused_rows(&mut fused, 1, &[scale], &padded, table, 1, keys, k);
            prop_assert_eq!(
                fused[0].to_bits(), gathered.to_bits(),
                "fused@nb=1 level={} vs gather (chunks={}, mu={})", level, chunks, mu
            );
        }
    }

    /// The row-batched gather is the per-row gather, bit for bit: for any
    /// tile geometry (a window narrower than the matrix, so stride >
    /// width; strided outputs; odd row counts that leave an unpaired row;
    /// ragged `% 8` chunk tails), at every level,
    /// `lut_gather_rows` on the tile accumulates exactly what one-row calls
    /// on each row would. This is what lets the width-1 tile loop batch
    /// whole row tiles into one dispatch.
    #[test]
    fn gather_rows_equals_per_row_gather(
        rows in 1usize..12,
        chunks in 1usize..24,
        extra_stride in 0usize..5,
        y_stride in 1usize..4,
        mu in 1usize..=12,
        seed in 0u64..1_000_000,
    ) {
        use biqgemm_core::simd::lut_gather_rows;
        let table = 1usize << mu;
        let mut g = MatrixRng::seed_from(seed ^ 0xb0b);
        let bank: Vec<f32> = g.gaussian(1, chunks * table, 0.0, 1.0).as_slice().to_vec();
        let km = KeyMatrix::pack(&g.signs(rows, (chunks + extra_stride) * mu), mu);
        let keys = km.tile(0..rows, seed as usize % (extra_stride + 1), chunks);
        let scales: Vec<f32> = g.gaussian(1, rows, 0.0, 1.0).as_slice().to_vec();
        let y_init: Vec<f32> = g.gaussian(1, (rows - 1) * y_stride + 1, 0.0, 1.0)
            .as_slice()
            .to_vec();
        for level in supported_levels() {
            let k = exact(level);
            let mut want = y_init.clone();
            for i in 0..rows {
                lut_gather_rows(
                    &mut want[i * y_stride..], y_stride, &scales[i..i + 1], &bank, table,
                    keys.row(i), k,
                );
            }
            let mut got = y_init.clone();
            lut_gather_rows(&mut got, y_stride, &scales, &bank, table, keys, k);
            let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                gb, wb,
                "level={} rows={} chunks={} stride={} y_stride={}",
                level, rows, chunks, keys.stride(), y_stride
            );
        }
    }

    /// Random shapes/µ/tiles: every supported level equals scalar exactly,
    /// serial and row-parallel.
    #[test]
    fn random_shapes_all_levels_bit_exact(
        m in 1usize..48,
        n in 1usize..70,
        b in 1usize..24,
        mu in 1usize..=12,
        bits in 1usize..=3,
        tile_rows in 1usize..12,
        tile_chunks in 1usize..5,
        tile_batch in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let mu = mu.min(n.max(1)).clamp(1, 16);
        let mut g = MatrixRng::seed_from(seed);
        let wf = g.small_int_matrix(m, n, 2);
        let q = greedy_quantize_matrix_rowwise(&wf, bits);
        let w = BiqWeights::from_multibit(&q, mu);
        let x = g.gaussian_col(n, b, 0.0, 1.0);
        let cfg = BiqConfig { mu, tile_rows, tile_chunks, tile_batch, ..BiqConfig::default() };
        let want = serial(&w, &x, &cfg, ResolvedKernel::scalar());
        for level in supported_levels() {
            let k = exact(level);
            prop_assert_eq!(&serial(&w, &x, &cfg, k), &want, "serial level={}", level);
            prop_assert_eq!(&parallel(&w, &x, &cfg, k), &want, "parallel level={}", level);
        }
    }
}
