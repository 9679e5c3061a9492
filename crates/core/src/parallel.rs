//! Multi-threaded BiQGEMM: the two parallel schedules under
//! [`crate::biqgemm_into`], and the scoped-thread helper they run on.
//!
//! Two schedules (Section III-B discusses both trade-offs):
//!
//! * [`Schedule::RowParallel`] — output rows are partitioned into disjoint
//!   blocks, one task per block. Each task runs the full serial tile loop
//!   over its rows, **building its own copy of every LUT tile**. No barriers
//!   or shared mutable state; build work is replicated across tasks. Wins
//!   when query work dominates (`m ≫ 2^µ`), which is the regime BiQGEMM
//!   targets.
//! * [`Schedule::SharedLut`] — per (batch-tile × chunk-tile): build the bank
//!   once in parallel over chunks, then query in parallel over row blocks
//!   that share the read-only bank. No replicated build, one barrier per
//!   tile.
//!
//! Both produce bit-identical results to the serial kernel, for every
//! worker count: per output element the accumulation order over (plane,
//! chunk-tile, chunk) is unchanged — threads only partition *independent*
//! output elements.
//!
//! The worker count is an argument, handed down from the plan that
//! resolved it; nothing here (or anywhere in the workspace) reads a
//! process-wide thread setting. Every per-task buffer (LUT bank, DP steps,
//! key-row ranges) comes out of the caller's [`BiqArena`] slots, which
//! persist across calls.

use crate::arena::{BiqArena, Slot};
use crate::config::{BiqConfig, LutLayout, Schedule};
use crate::profile::PhaseProfile;
use crate::simd::{self, ResolvedKernel};
use crate::tiled::run_tiles;
use crate::weights::BiqWeights;
use biq_matrix::reshape::ChunkedInput;
use biq_matrix::view::tile_ranges;
use biq_matrix::ColMatrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(index, chunk)` for every `chunk_size`-element chunk of `slice`
/// (the last may be shorter) on up to `workers` scoped threads — the one
/// threading primitive of the workspace. Chunks are disjoint `&mut`
/// slices, so data-race freedom is structural; they are handed out through
/// a shared atomic cursor, so uneven chunks still balance.
///
/// With one worker or a single chunk this is a plain loop on the calling
/// thread that touches neither the thread spawner nor the allocator.
/// Otherwise `min(workers, chunks)` threads are spawned for this one call
/// and joined before it returns (a panic in `f` propagates).
///
/// # Panics
/// Panics if `chunk_size` is zero.
pub fn for_each_chunk_mut<T, F>(slice: &mut [T], chunk_size: usize, workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk size must be positive");
    let threads = workers.min(slice.len().div_ceil(chunk_size));
    if threads <= 1 {
        slice.chunks_mut(chunk_size).enumerate().for_each(|(i, c)| f(i, c));
        return;
    }
    let chunks: Vec<_> = slice.chunks_mut(chunk_size).map(|c| Mutex::new(Some(c))).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                // Relaxed: the cursor publishes no data, it only deals out
                // indices; each chunk is handed over through its own lock.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(chunk) = chunks.get(i) else { break };
                if let Some(c) = chunk.lock().expect("chunk lock poisoned").take() {
                    f(i, c);
                }
            });
        }
    });
}

/// Rows-per-task sizing: enough tasks for load balance, big enough blocks to
/// amortise the replicated LUT builds.
fn rows_per_task(m: usize, workers: usize) -> usize {
    m.div_ceil(workers).max(16.min(m.max(1)))
}

/// `cfg.schedule` over a zeroed `y`, on up to `workers` (≥ 1) threads,
/// drawing per-task scratch from `arena`'s slots.
pub(crate) fn run_schedule(
    w: &BiqWeights,
    x: &ColMatrix,
    cfg: &BiqConfig,
    kernel: ResolvedKernel,
    workers: usize,
    arena: &BiqArena,
    y: &mut [f32],
) {
    match cfg.schedule {
        Schedule::RowParallel => row_parallel(w, x, cfg, kernel, workers, arena, y),
        Schedule::SharedLut => shared_lut(w, x, cfg, kernel, workers, arena, y),
    }
}

fn row_parallel(
    w: &BiqWeights,
    x: &ColMatrix,
    cfg: &BiqConfig,
    kernel: ResolvedKernel,
    workers: usize,
    arena: &BiqArena,
    y: &mut [f32],
) {
    let (m, b) = (w.output_size(), x.cols());
    if b == 0 {
        return;
    }
    let rpt = rows_per_task(m, workers);
    let bits = w.bits();
    for_each_chunk_mut(y, rpt * b, workers, |t, yblock| {
        let row0 = t * rpt;
        let rows = yblock.len() / b;
        let mut slot = arena.checkout();
        let Slot { bank, ranges, .. } = &mut *slot;
        let mut profile = PhaseProfile::new();
        // Key rows for this block: every plane's copy of [row0, row0+rows).
        ranges.clear();
        ranges.extend((0..bits).map(|p| (p * m + row0, p * m + row0 + rows)));
        let bank = bank.get(w.mu(), cfg.layout);
        run_tiles(w, x, cfg, kernel, &mut profile, bank, ranges, yblock, row0);
    });
}

fn shared_lut(
    w: &BiqWeights,
    x: &ColMatrix,
    cfg: &BiqConfig,
    kernel: ResolvedKernel,
    workers: usize,
    arena: &BiqArena,
    y: &mut [f32],
) {
    let (m, b) = (w.output_size(), x.cols());
    if b == 0 {
        return;
    }
    let input = ChunkedInput::new(x, w.mu());
    let chunks = w.chunks();
    let keys = w.keys();
    let table = 1usize << w.mu();
    let rpt = rows_per_task(m, workers);
    // The shared bank buffer persists across tiles and calls; stale entries
    // are harmless because every (chunk, key, batch) position a query reads
    // is rewritten by this tile's build phase first.
    let mut bank_buf = arena.shared_bank.lock().expect("shared bank poisoned");
    for (b0, nb) in tile_ranges(b, cfg.tile_batch) {
        for (c0, nc) in tile_ranges(chunks, cfg.tile_chunks) {
            // Phase 1: build the bank in parallel, one chunk per task
            // ("one lookup table cannot be implemented by coordinating more
            // than two threads" — each table is built by exactly one).
            let needed = nc * table * nb;
            bank_buf.ensure_len(needed);
            let bank = &mut bank_buf.as_mut_slice()[..needed];
            for_each_chunk_mut(bank, table * nb, workers, |c, seg| match cfg.layout {
                LutLayout::KeyMajor => {
                    let mut slot = arena.checkout();
                    crate::layout::fill_chunk_key_major_dp(
                        seg,
                        &mut slot.steps,
                        &input,
                        c0 + c,
                        b0,
                        nb,
                        kernel,
                    );
                }
                LutLayout::BatchMajor => {
                    for a in 0..nb {
                        let sub = input.chunk(b0 + a, c0 + c);
                        let len = 1usize << sub.len();
                        crate::lut::build_lut_dp_level(
                            sub,
                            &mut seg[a * table..a * table + len],
                            kernel,
                        );
                    }
                }
            });
            // Phase 2: query in parallel over disjoint output-row blocks,
            // fused lookup-accumulate at the pinned kernel level.
            let bank = &bank[..];
            for_each_chunk_mut(y, rpt * b, workers, |t, yblock| {
                let row0 = t * rpt;
                let rows = yblock.len() / b;
                for p in 0..w.bits() {
                    // This block's rows of plane `p`: contiguous key rows
                    // onto contiguous output rows.
                    let (r_start, r_end) = (p * m + row0, p * m + row0 + rows);
                    if nb == 1 || cfg.layout == LutLayout::KeyMajor {
                        // One kernel dispatch per plane of the block, as in
                        // the serial tile loop: the row-batched gather for
                        // a width-1 tile (both layouts coincide there), the
                        // fused row-tile query otherwise.
                        let yrows = &mut yblock[b0..];
                        let tile = keys.tile(r_start..r_end, c0, nc);
                        let scales = &w.scales()[r_start..r_end];
                        if nb == 1 {
                            simd::lut_gather_rows(yrows, b, scales, bank, table, tile, kernel);
                        } else {
                            simd::lut_query_fused_rows(
                                yrows, b, scales, bank, table, nb, tile, kernel,
                            );
                        }
                        continue;
                    }
                    // BatchMajor, b ≥ 2: per-element gather in the canonical
                    // tree order, matching the fused kernel bit for bit.
                    for r in r_start..r_end {
                        let scale = w.scale(r);
                        let yoff = (r - r_start) * b + b0;
                        let krow = keys.tile(r..r + 1, c0, nc);
                        for (a, yv) in yblock[yoff..yoff + nb].iter_mut().enumerate() {
                            let mut s = simd::TreeAccumulator::new();
                            for ci in 0..nc {
                                s.push(bank[(ci * nb + a) * table + krow.key(0, ci)]);
                            }
                            *yv += scale * s.finish();
                        }
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiled::biqgemm_into;
    use biq_matrix::{Matrix, MatrixRng};
    use biq_quant::greedy_quantize_matrix_rowwise;

    /// Worker counts every schedule test sweeps: inline, the common case,
    /// an uneven split, and more workers than most shapes have row blocks.
    const WORKERS: [usize; 4] = [1, 2, 3, 7];

    #[test]
    fn chunks_see_disjoint_data_and_all_of_it() {
        for workers in WORKERS {
            let mut v = vec![0u32; 103];
            for_each_chunk_mut(&mut v, 10, workers, |i, c| c.fill(i as u32 + 1));
            let want: Vec<u32> = (0..103).map(|k| k / 10 + 1).collect();
            assert_eq!(v, want, "{workers} workers");
        }
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let mut v: Vec<u64> = (0..1000).collect();
        for_each_chunk_mut(&mut v, 7, 4, |_, c| c.iter_mut().for_each(|x| *x *= 3));
        assert_eq!(v.iter().sum::<u64>(), 3 * (999 * 1000 / 2));
    }

    #[test]
    fn one_worker_or_one_chunk_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = |_: usize, c: &mut [u8]| {
            assert_eq!(std::thread::current().id(), caller);
            c.fill(1);
        };
        let mut v = vec![0u8; 64];
        for_each_chunk_mut(&mut v, 8, 1, on_caller);
        for_each_chunk_mut(&mut v, 64, 8, on_caller);
        for_each_chunk_mut(&mut v[..0], 8, 8, on_caller);
        // ... and with both above one, it does not.
        for_each_chunk_mut(&mut v, 8, 2, |_, _| assert_ne!(std::thread::current().id(), caller));
    }

    fn kernel_of(cfg: &BiqConfig) -> ResolvedKernel {
        cfg.kernel.resolve().expect("test kernel request must resolve")
    }

    fn run(w: &BiqWeights, x: &ColMatrix, cfg: &BiqConfig, workers: Option<usize>) -> Matrix {
        let mut y = Matrix::zeros(w.output_size(), x.cols());
        let (mut p, mut arena) = (PhaseProfile::new(), BiqArena::new());
        biqgemm_into(w, x, cfg, kernel_of(cfg), workers, &mut p, &mut arena, y.as_mut_slice());
        y
    }

    /// Every worker count must reproduce the serial run bit for bit.
    fn assert_parallel_matches_serial(w: &BiqWeights, x: &ColMatrix, cfg: &BiqConfig, what: &str) {
        let serial = run(w, x, cfg, None);
        for workers in WORKERS {
            assert_eq!(
                run(w, x, cfg, Some(workers)).as_slice(),
                serial.as_slice(),
                "{what}: {:?} on {workers} workers",
                cfg.schedule
            );
        }
    }

    #[test]
    fn row_parallel_matches_serial_bit_exactly() {
        let mut g = MatrixRng::seed_from(250);
        for &(m, n, b, bits) in
            &[(40usize, 64usize, 6usize, 1usize), (100, 50, 3, 2), (17, 33, 9, 3)]
        {
            let wf = g.small_int_matrix(m, n, 2);
            let q = greedy_quantize_matrix_rowwise(&wf, bits);
            let x = g.small_int_col(n, b, 2);
            let w = BiqWeights::from_multibit(&q, 8);
            let cfg = BiqConfig {
                schedule: Schedule::RowParallel,
                tile_rows: 8,
                tile_chunks: 2,
                tile_batch: 4,
                ..BiqConfig::default()
            };
            assert_parallel_matches_serial(
                &w,
                &x,
                &cfg,
                &format!("(m,n,b,bits)=({m},{n},{b},{bits})"),
            );
        }
    }

    #[test]
    fn shared_lut_matches_serial_bit_exactly() {
        let mut g = MatrixRng::seed_from(251);
        for &(m, n, b, bits) in &[(40usize, 64usize, 6usize, 1usize), (64, 80, 12, 2)] {
            let wf = g.small_int_matrix(m, n, 2);
            let q = greedy_quantize_matrix_rowwise(&wf, bits);
            let x = g.small_int_col(n, b, 2);
            let w = BiqWeights::from_multibit(&q, 8);
            let cfg = BiqConfig {
                schedule: Schedule::SharedLut,
                tile_rows: 8,
                tile_chunks: 3,
                tile_batch: 5,
                ..BiqConfig::default()
            };
            assert_parallel_matches_serial(
                &w,
                &x,
                &cfg,
                &format!("(m,n,b,bits)=({m},{n},{b},{bits})"),
            );
        }
    }

    #[test]
    fn shared_lut_batchmajor_matches() {
        let mut g = MatrixRng::seed_from(252);
        let signs = g.signs(30, 40);
        let x = g.small_int_col(40, 4, 3);
        let w = BiqWeights::from_signs_unscaled(&signs, 4);
        let cfg = BiqConfig {
            mu: 4,
            schedule: Schedule::SharedLut,
            layout: LutLayout::BatchMajor,
            tile_rows: 4,
            tile_chunks: 3,
            tile_batch: 2,
            ..BiqConfig::default()
        };
        assert_parallel_matches_serial(&w, &x, &cfg, "batch-major");
    }

    #[test]
    fn single_row_matrix_parallel() {
        let mut g = MatrixRng::seed_from(253);
        let signs = g.signs(1, 64);
        let x = g.small_int_col(64, 2, 3);
        let w = BiqWeights::from_signs_unscaled(&signs, 8);
        for schedule in [Schedule::RowParallel, Schedule::SharedLut] {
            let cfg = BiqConfig { schedule, ..BiqConfig::default() };
            assert_parallel_matches_serial(&w, &x, &cfg, "m = 1");
        }
    }

    #[test]
    fn empty_batch_parallel() {
        let mut g = MatrixRng::seed_from(254);
        let signs = g.signs(4, 8);
        let x = ColMatrix::zeros(8, 0);
        let w = BiqWeights::from_signs_unscaled(&signs, 4);
        for schedule in [Schedule::RowParallel, Schedule::SharedLut] {
            let cfg = BiqConfig { mu: 4, schedule, ..BiqConfig::default() };
            assert_eq!(run(&w, &x, &cfg, Some(2)).shape(), (4, 0));
        }
    }

    #[test]
    fn one_arena_serves_repeat_calls_schedules_and_serial_runs() {
        // One arena serves both schedules, the serial loop and repeated
        // calls; results stay bit-identical throughout.
        let mut g = MatrixRng::seed_from(255);
        let signs = g.signs(48, 72);
        let x = g.small_int_col(72, 5, 2);
        let w = BiqWeights::from_signs_unscaled(&signs, 8);
        let (mut arena, mut p) = (BiqArena::new(), PhaseProfile::new());
        for (schedule, workers) in [
            (Schedule::RowParallel, Some(4)),
            (Schedule::SharedLut, Some(4)),
            (Schedule::RowParallel, None),
            (Schedule::RowParallel, Some(2)),
        ] {
            let cfg = BiqConfig {
                schedule,
                tile_rows: 8,
                tile_chunks: 2,
                tile_batch: 3,
                ..BiqConfig::default()
            };
            arena.reserve(&cfg, w.bits(), x.cols(), workers);
            let mut y = vec![0.0f32; 48 * 5];
            biqgemm_into(&w, &x, &cfg, kernel_of(&cfg), workers, &mut p, &mut arena, &mut y);
            assert_eq!(y, run(&w, &x, &cfg, None).as_slice(), "{schedule:?} {workers:?}");
        }
        assert!(arena.resident_lut_bytes() > 0, "row-parallel banks stay resident");
    }

    #[test]
    fn fewer_slots_than_live_tasks_still_correct() {
        // `biqgemm_into` grows the arena to the worker count, so the
        // schedules are driven directly here: one slot under several live
        // tasks forces `checkout`'s round-robin fallback.
        let mut g = MatrixRng::seed_from(256);
        let signs = g.signs(128, 64);
        let x = g.small_int_col(64, 3, 2);
        let w = BiqWeights::from_signs_unscaled(&signs, 8);
        for schedule in [Schedule::RowParallel, Schedule::SharedLut] {
            let cfg = BiqConfig {
                schedule,
                tile_rows: 8,
                tile_chunks: 2,
                tile_batch: 2,
                ..BiqConfig::default()
            };
            let mut arena = BiqArena::new();
            arena.ensure_slots(1);
            for workers in WORKERS {
                let mut y = vec![0.0f32; 128 * 3];
                run_schedule(&w, &x, &cfg, kernel_of(&cfg), workers, &arena, &mut y);
                assert_eq!(y, run(&w, &x, &cfg, None).as_slice(), "{schedule:?} × {workers}");
            }
        }
    }
}
