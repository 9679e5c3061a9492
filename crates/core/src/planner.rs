//! Run-time decisions a plan makes around its [`BiqConfig`]: the threading
//! request and its shape rule ([`Threading`], [`recommend_parallel`]), the
//! scratch a config needs at a batch ([`ScratchSpec`], [`scratch_spec`]) and
//! the width-1 refinement of an `Auto` kernel pick ([`auto_width1_clamp`]).
//!
//! µ and the tile shapes are not chosen here. Section III-C of the paper
//! derives µ from Eq. 9 ([`crate::complexity::optimal_mu`]) and then settles
//! on µ = 8 by measurement; [`BiqConfig::default()`] is that measured answer,
//! and a plan built without a config runs it.

use crate::config::BiqConfig;
use crate::layout::tile_lanes;
use crate::simd::KernelLevel;

/// Batches at or below this stay on the serial path under
/// [`Threading::Auto`]. Allocation is not the reason: parallel tasks draw
/// warm banks from the arena's slots, so a warmed parallel run allocates
/// nothing either. What is known is the cost shape: every row-parallel
/// task builds the whole bank for its rows, and a region costs ≈ 1 µs
/// with a polling helper (≈ 25 µs with a parked one), both fixed against
/// a query that shrinks with `b`. The value itself is a constant tuned on
/// one host, not derived; ROADMAP item 15 replaces it with a cost model.
pub const SMALL_BATCH_SERIAL_MAX: usize = 8;

/// Output sizes below this never go parallel: a thread task wants at least
/// one `tile_rows`-deep block per worker to amortise its replicated builds.
const MIN_PARALLEL_OUTPUT: usize = 256;

/// How the executor should thread a plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Threading {
    /// Decide from shape and worker count ([`recommend_parallel`]).
    #[default]
    Auto,
    /// Force the serial arena path (allocation-free steady state).
    Serial,
    /// Force the row-parallel driver on the plan's worker count.
    Parallel,
}

/// Scratch-buffer requirements (in `f32` slots) implied by one config at
/// batch `b` — what an executor arena must hold so the query phase runs
/// without touching the allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScratchSpec {
    /// Lookup-table bank: `tile_chunks · 2^µ · tile_lanes(nb)`, `nb =
    /// min(tile_batch, b)` ([`crate::layout::tile_lanes`]: `nb` for column
    /// tables, the padded KeyMajor entry stride past them).
    pub lut_bank_floats: usize,
    /// Algorithm 1 step vectors, one set per chunk of the tile:
    /// `tile_chunks · µ · tile_lanes(nb)` (used by KeyMajor tiles; column
    /// tables need none, but the bank reserves them at any width).
    pub dp_steps_floats: usize,
}

impl ScratchSpec {
    /// Total scratch bytes.
    pub fn total_bytes(&self) -> usize {
        (self.lut_bank_floats + self.dp_steps_floats) * 4
    }
}

/// Computes the scratch a serial run of `cfg` needs at batch `b`.
pub fn scratch_spec(cfg: &BiqConfig, b: usize) -> ScratchSpec {
    let lanes = tile_lanes(cfg.tile_batch.min(b.max(1)));
    // The query phase itself needs no separate accumulator: the fused
    // kernel (`simd::lut_query_fused_rows`) accumulates in registers.
    ScratchSpec {
        lut_bank_floats: cfg.tile_chunks * (1usize << cfg.mu) * lanes,
        dp_steps_floats: cfg.tile_chunks * cfg.mu * lanes,
    }
}

/// Whether an `m × n` matmul at batch `b` should use the row-parallel
/// driver when `threads` workers are available. Serial wins for small
/// batches (no replicated per-task bank builds) and for outputs too short
/// to give every worker a meaningful row block.
pub fn recommend_parallel(m: usize, b: usize, threads: usize) -> bool {
    threads > 1 && b > SMALL_BATCH_SERIAL_MAX && m >= MIN_PARALLEL_OUTPUT
}

/// Shape-aware refinement of an `Auto` kernel pick: at `batch_hint == 1`
/// the query runs the width-1 gather ([`crate::simd::lut_gather_rows`]),
/// whose canonical accumulation tree is [`crate::simd::ACC_TREE_WIDTH`] = 8
/// lanes wide — exactly one 256-bit register. 512-bit gathers buy nothing
/// there (the AVX-512 level runs the same 256-bit chain), while the wider
/// unit costs frequency headroom on many parts, so the benchmark's
/// `core.level_ratio.avx512_vs_avx2` row shows AVX-512 level-neutral-or-worse
/// at b = 1. Returns the level Auto should pin instead, with a stable
/// human-readable reason, or `None` to keep the host-best pick.
///
/// Callers apply this only to [`crate::KernelRequest::Auto`] with no
/// [`crate::simd::KERNEL_ENV`] override in force ([`crate::simd::env_override_active`]);
/// `Exact`/`AtMost` requests and forced levels must mean what they say.
pub fn auto_width1_clamp(
    batch_hint: usize,
    picked: KernelLevel,
) -> Option<(KernelLevel, &'static str)> {
    if batch_hint == 1 && picked == KernelLevel::Avx512 && KernelLevel::Avx2.is_supported() {
        Some((
            KernelLevel::Avx2,
            "b=1 gather path: the 8-lane canonical tree fills one 256-bit register, \
             so avx512 is level-neutral-or-worse at width 1; auto picks avx2",
        ))
    } else {
        None
    }
}

#[cfg(test)]
mod runtime_planning_tests {
    use super::*;
    use crate::layout::{entry_stride, COLUMN_TABLES_MAX};

    #[test]
    fn scratch_spec_matches_bank_geometry() {
        let tile_batch = COLUMN_TABLES_MAX + 2;
        let cfg = BiqConfig { mu: 8, tile_chunks: 4, tile_batch, ..BiqConfig::default() };
        // Batches narrower than the tile, on both sides of the
        // column-table bound: column tables hold `b` floats per entry, the
        // KeyMajor bank one padded entry stride.
        for b in 1..=COLUMN_TABLES_MAX + 1 {
            let lanes = if b <= COLUMN_TABLES_MAX { b } else { entry_stride(b) };
            let s = scratch_spec(&cfg, b);
            assert_eq!(s.lut_bank_floats, 4 * 256 * lanes);
            assert_eq!(s.dp_steps_floats, 4 * 8 * lanes, "b = {b}");
            assert_eq!(s.total_bytes(), (4 * 256 + 4 * 8) * lanes * 4);
        }
    }

    #[test]
    fn small_batch_stays_serial() {
        assert!(!recommend_parallel(4096, SMALL_BATCH_SERIAL_MAX, 16));
        assert!(recommend_parallel(4096, SMALL_BATCH_SERIAL_MAX + 1, 16));
        assert!(!recommend_parallel(4096, 64, 1), "one worker is never parallel");
        assert!(!recommend_parallel(64, 64, 16), "short outputs stay serial");
    }

    #[test]
    fn width1_clamp_demotes_only_avx512_at_batch_one() {
        // The clamp targets exactly (b = 1, avx512): batched shapes keep
        // the host-best pick, and the other levels are never touched.
        match auto_width1_clamp(1, KernelLevel::Avx512) {
            Some((lvl, why)) if KernelLevel::Avx2.is_supported() => {
                assert_eq!(lvl, KernelLevel::Avx2);
                assert!(why.contains("b=1"), "{why}");
            }
            Some(_) => panic!("clamp must not fire when avx2 is unsupported"),
            None => assert!(!KernelLevel::Avx2.is_supported()),
        }
        assert_eq!(auto_width1_clamp(2, KernelLevel::Avx512), None);
        assert_eq!(auto_width1_clamp(1, KernelLevel::Avx2), None);
        assert_eq!(auto_width1_clamp(1, KernelLevel::Scalar), None);
        assert_eq!(auto_width1_clamp(1, KernelLevel::Neon), None);
    }
}
