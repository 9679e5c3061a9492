//! Multi-threaded BiQGEMM on rayon.
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
//! Both produce bit-identical results to the serial kernel: per output
//! element the accumulation order over (plane, chunk-tile, chunk) is
//! unchanged — threads only partition *independent* output elements.
//!
//! ## Scratch ownership
//!
//! Every per-task buffer (LUT bank, accumulator, DP steps, key-row ranges)
//! comes out of a [`ParallelArena`]: a pool of per-worker scratch slots plus
//! one shared bank buffer for the [`Schedule::SharedLut`] build phase. A
//! task checks a slot out for its lifetime, so two tasks never share a live
//! table ("one lookup table cannot be implemented by coordinating more than
//! two threads" — each table is built and read through exactly one slot at a
//! time). Pools persist across calls — `biq_runtime::Arena` embeds one — so
//! the parallel steady state reuses warm banks instead of allocating fresh
//! ones per task, closing the gap the serial arena path already closed.

use crate::arena::BiqArena;
use crate::config::{BiqConfig, LutLayout, Schedule};
use crate::layout::LineAlignedBuf;
use crate::profile::PhaseProfile;
use crate::simd::{self, ResolvedKernel};
use crate::tiled::run_tiles;
use crate::weights::BiqWeights;
use biq_matrix::reshape::ChunkedInput;
use biq_matrix::view::tile_ranges;
use biq_matrix::ColMatrix;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One worker's persistent scratch: the arena (LUT bank + accumulator) plus
/// the small per-task vectors the drivers used to allocate inline.
#[derive(Debug, Default)]
pub(crate) struct WorkerScratch {
    pub(crate) arena: BiqArena,
    /// Key-row ranges of the current row block (one per weight plane).
    pub(crate) ranges: Vec<(usize, usize)>,
    /// DP step scratch for the SharedLut KeyMajor build phase.
    pub(crate) steps: Vec<f32>,
}

/// A pool of per-worker scratch for the parallel BiQGEMM drivers.
///
/// Sized to the worker count at construction; tasks check slots out with a
/// try-lock sweep (falling back to a round-robin blocking lock when more
/// tasks than slots are momentarily live, which preserves correctness at
/// the cost of brief queueing). All buffers grow monotonically and persist
/// across calls, so steady-state parallel runs stop paying the per-task
/// `LutBank` allocation the seed drivers performed.
#[derive(Debug)]
pub struct ParallelArena {
    slots: Vec<Mutex<WorkerScratch>>,
    rr: AtomicUsize,
    /// SharedLut phase-1 bank, built once per (batch-tile × chunk-tile) and
    /// then read by every query task. Line-aligned like every LUT bank.
    pub(crate) shared_bank: Mutex<LineAlignedBuf>,
}

impl ParallelArena {
    /// A pool with `workers` scratch slots (floored at 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            slots: (0..workers).map(|_| Mutex::new(WorkerScratch::default())).collect(),
            rr: AtomicUsize::new(0),
            shared_bank: Mutex::new(LineAlignedBuf::default()),
        }
    }

    /// A pool sized to the current rayon worker count.
    pub fn with_current_threads() -> Self {
        Self::new(rayon::current_num_threads())
    }

    /// Number of scratch slots.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Pre-sizes every slot (and the shared bank) for runs of `cfg` at
    /// batch `b` with `bits` weight planes, so even the first parallel run
    /// draws no fresh allocations from inside the task bodies.
    pub fn reserve(&mut self, cfg: &BiqConfig, bits: usize, b: usize) {
        let nb = cfg.tile_batch.min(b.max(1));
        for slot in &self.slots {
            let mut s = slot.lock().expect("parallel arena slot poisoned");
            s.arena.reserve(cfg, b);
            // `Vec::reserve` is relative to `len`, so this guarantees
            // capacity ≥ `bits` regardless of what earlier runs left behind.
            let extra = bits.saturating_sub(s.ranges.len());
            s.ranges.reserve(extra);
            if s.steps.len() < cfg.mu * nb {
                s.steps.resize(cfg.mu * nb, 0.0);
            }
        }
        if cfg.schedule == Schedule::SharedLut {
            let needed = cfg.tile_chunks * (1usize << cfg.mu) * nb;
            self.shared_bank.lock().expect("shared bank poisoned").ensure_len(needed);
        }
    }

    /// Total bytes of lookup-table data resident across every slot.
    pub fn resident_lut_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.lock().expect("parallel arena slot poisoned").arena.resident_lut_bytes())
            .sum()
    }

    /// Checks out one scratch slot for the duration of a task: a try-lock
    /// sweep finds a free slot without blocking; when every slot is busy
    /// (more live tasks than workers) the task queues on a round-robin
    /// pick, which stays correct — just momentarily serialised.
    pub(crate) fn checkout(&self) -> MutexGuard<'_, WorkerScratch> {
        for slot in &self.slots {
            if let Ok(guard) = slot.try_lock() {
                return guard;
            }
        }
        let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        self.slots[i].lock().expect("parallel arena slot poisoned")
    }
}

impl Default for ParallelArena {
    fn default() -> Self {
        Self::with_current_threads()
    }
}

/// Parallel BiQGEMM into a caller-provided row-major `m × b` buffer,
/// dispatching on `cfg.schedule`, running the hot loops at the resolved
/// level `kernel` (pinned by the caller's plan — no feature probing here),
/// and drawing all per-task scratch from `pool`. `y` is zeroed before
/// accumulation.
///
/// This is the steady-state serving path: with a persistent pool (the
/// runtime executor's arena embeds one) repeat runs at a warmed shape reuse
/// every per-worker LUT bank instead of allocating per task.
///
/// # Panics
/// Panics on dimension mismatch, `y.len() != m·b`, or invalid config.
pub fn biqgemm_parallel_arena_into(
    w: &BiqWeights,
    x: &ColMatrix,
    cfg: &BiqConfig,
    kernel: ResolvedKernel,
    pool: &ParallelArena,
    y: &mut [f32],
) {
    cfg.validate();
    assert_eq!(x.rows(), w.input_size(), "inner dimension mismatch");
    assert_eq!(y.len(), w.output_size() * x.cols(), "output buffer must hold m·b floats");
    y.fill(0.0);
    match cfg.schedule {
        Schedule::RowParallel => row_parallel(w, x, cfg, kernel, pool, y),
        Schedule::SharedLut => shared_lut(w, x, cfg, kernel, pool, y),
    }
}

/// Parallel BiQGEMM into a caller-provided buffer with a throwaway scratch
/// pool. Prefer [`biqgemm_parallel_arena_into`] (or the `biq_runtime`
/// executor, which owns a persistent pool) on repeat-call paths.
///
/// # Panics
/// Panics on dimension mismatch, `y.len() != m·b`, or invalid config.
pub fn biqgemm_parallel_into(
    w: &BiqWeights,
    x: &ColMatrix,
    cfg: &BiqConfig,
    kernel: ResolvedKernel,
    y: &mut [f32],
) {
    let pool = ParallelArena::with_current_threads();
    biqgemm_parallel_arena_into(w, x, cfg, kernel, &pool, y);
}

/// Rows-per-task sizing: enough tasks for load balance, big enough blocks to
/// amortise the replicated LUT builds.
fn rows_per_task(m: usize) -> usize {
    let threads = rayon::current_num_threads().max(1);
    m.div_ceil(threads).max(16.min(m.max(1)))
}

fn row_parallel(
    w: &BiqWeights,
    x: &ColMatrix,
    cfg: &BiqConfig,
    kernel: ResolvedKernel,
    pool: &ParallelArena,
    y: &mut [f32],
) {
    let (m, b) = (w.output_size(), x.cols());
    if b == 0 {
        return;
    }
    let rpt = rows_per_task(m);
    let bits = w.bits();
    y.par_chunks_mut(rpt * b).enumerate().for_each(|(t, yblock)| {
        let row0 = t * rpt;
        let rows = yblock.len() / b;
        let mut slot = pool.checkout();
        let WorkerScratch { arena, ranges, .. } = &mut *slot;
        let mut profile = PhaseProfile::new();
        // Key rows for this block: every plane's copy of [row0, row0+rows).
        ranges.clear();
        ranges.extend((0..bits).map(|p| (p * m + row0, p * m + row0 + rows)));
        let bank = arena.bank(w.mu(), cfg.layout);
        run_tiles(w, x, cfg, kernel, &mut profile, bank, ranges, yblock, row0);
    });
}

fn shared_lut(
    w: &BiqWeights,
    x: &ColMatrix,
    cfg: &BiqConfig,
    kernel: ResolvedKernel,
    pool: &ParallelArena,
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
    let rpt = rows_per_task(m);
    // The shared bank buffer persists across tiles and calls; stale entries
    // are harmless because every (chunk, key, batch) position a query reads
    // is rewritten by this tile's build phase first.
    let mut bank_buf = pool.shared_bank.lock().expect("shared bank poisoned");
    for (b0, nb) in tile_ranges(b, cfg.tile_batch) {
        for (c0, nc) in tile_ranges(chunks, cfg.tile_chunks) {
            // Phase 1: build the bank in parallel, one chunk per task
            // ("one lookup table cannot be implemented by coordinating more
            // than two threads" — each table is built by exactly one).
            let needed = nc * table * nb;
            bank_buf.ensure_len(needed);
            let bank = &mut bank_buf.as_mut_slice()[..needed];
            bank.par_chunks_mut(table * nb).enumerate().for_each(|(c, seg)| match cfg.layout {
                LutLayout::KeyMajor => {
                    let mut slot = pool.checkout();
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
            y.par_chunks_mut(rpt * b).enumerate().for_each(|(t, yblock)| {
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
    use crate::profile::PhaseProfile;
    use crate::tiled::biqgemm_serial_into;
    use biq_matrix::{Matrix, MatrixRng};
    use biq_quant::greedy_quantize_matrix_rowwise;

    fn kernel_of(cfg: &BiqConfig) -> ResolvedKernel {
        cfg.kernel.resolve().expect("test kernel request must resolve")
    }

    fn serial(w: &BiqWeights, x: &ColMatrix, cfg: &BiqConfig) -> Matrix {
        let mut p = PhaseProfile::new();
        let mut arena = BiqArena::new();
        let mut y = Matrix::zeros(w.output_size(), x.cols());
        biqgemm_serial_into(w, x, cfg, kernel_of(cfg), &mut p, &mut arena, y.as_mut_slice());
        y
    }

    /// Test-local one-shot harness over the pooled entry point (the old
    /// `biqgemm_parallel` free function, now deleted from the public API).
    fn biqgemm_parallel(w: &BiqWeights, x: &ColMatrix, cfg: &BiqConfig) -> Matrix {
        let mut y = Matrix::zeros(w.output_size(), x.cols());
        biqgemm_parallel_into(w, x, cfg, kernel_of(cfg), y.as_mut_slice());
        y
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
            assert_eq!(
                biqgemm_parallel(&w, &x, &cfg).as_slice(),
                serial(&w, &x, &cfg).as_slice(),
                "(m,n,b,bits)=({m},{n},{b},{bits})"
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
            assert_eq!(biqgemm_parallel(&w, &x, &cfg).as_slice(), serial(&w, &x, &cfg).as_slice());
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
        assert_eq!(biqgemm_parallel(&w, &x, &cfg).as_slice(), serial(&w, &x, &cfg).as_slice());
    }

    #[test]
    fn single_row_matrix_parallel() {
        let mut g = MatrixRng::seed_from(253);
        let signs = g.signs(1, 64);
        let x = g.small_int_col(64, 2, 3);
        let w = BiqWeights::from_signs_unscaled(&signs, 8);
        for schedule in [Schedule::RowParallel, Schedule::SharedLut] {
            let cfg = BiqConfig { schedule, ..BiqConfig::default() };
            assert_eq!(biqgemm_parallel(&w, &x, &cfg).as_slice(), serial(&w, &x, &cfg).as_slice());
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
            let y = biqgemm_parallel(&w, &x, &cfg);
            assert_eq!(y.shape(), (4, 0));
        }
    }

    #[test]
    fn persistent_pool_reuses_across_calls_and_schedules() {
        // One pool serves both schedules and repeated calls; results stay
        // bit-identical to the serial kernel throughout.
        let mut g = MatrixRng::seed_from(255);
        let signs = g.signs(48, 72);
        let x = g.small_int_col(72, 5, 2);
        let w = BiqWeights::from_signs_unscaled(&signs, 8);
        let mut pool = ParallelArena::new(4);
        for schedule in [Schedule::RowParallel, Schedule::SharedLut, Schedule::RowParallel] {
            let cfg = BiqConfig {
                schedule,
                tile_rows: 8,
                tile_chunks: 2,
                tile_batch: 3,
                ..BiqConfig::default()
            };
            pool.reserve(&cfg, w.bits(), x.cols());
            let mut y = vec![0.0f32; 48 * 5];
            biqgemm_parallel_arena_into(&w, &x, &cfg, kernel_of(&cfg), &pool, &mut y);
            assert_eq!(y, serial(&w, &x, &cfg).as_slice(), "{schedule:?}");
        }
        assert!(pool.resident_lut_bytes() > 0, "row-parallel banks stay resident");
    }

    #[test]
    fn pool_smaller_than_task_count_still_correct() {
        // More row blocks than slots forces the round-robin fallback path.
        let mut g = MatrixRng::seed_from(256);
        let signs = g.signs(128, 64);
        let x = g.small_int_col(64, 3, 2);
        let w = BiqWeights::from_signs_unscaled(&signs, 8);
        let pool = ParallelArena::new(1);
        let cfg = BiqConfig {
            schedule: Schedule::RowParallel,
            tile_rows: 8,
            tile_chunks: 2,
            tile_batch: 2,
            ..BiqConfig::default()
        };
        let mut y = vec![0.0f32; 128 * 3];
        biqgemm_parallel_arena_into(&w, &x, &cfg, kernel_of(&cfg), &pool, &mut y);
        assert_eq!(y, serial(&w, &x, &cfg).as_slice());
    }
}
