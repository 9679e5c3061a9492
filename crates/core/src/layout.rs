//! Lookup-table banks: storage + layout for the live tables of one tile.
//!
//! A bank holds the tables for `num_chunks` consecutive input chunks ×
//! `nb` consecutive batch columns. Every chunk gets a full `2^µ`-entry
//! stride even when its sub-vector is ragged (`L < µ`), keeping addressing
//! uniform; only the first `2^L` entries are meaningful.
//!
//! Two layouts (see [`LutLayout`]):
//!
//! * **KeyMajor** (paper Fig. 6): `data[(c·2^µ + key)·nb + a]` — one lookup
//!   yields a contiguous batch vector, so query accumulation vectorises.
//!   Building scatters each freshly computed table across the batch stride —
//!   that movement is charged to the **replace** phase.
//! * **BatchMajor**: `data[(c·nb + a)·2^µ + key]` — tables are built in
//!   place with zero scatter, but queries for `b > 1` gather.

use crate::config::{LutBuildMethod, LutLayout};
use crate::lut::{build_lut_bruteforce, build_lut_dp_level};
use crate::profile::PhaseProfile;
use crate::simd::{self, ResolvedKernel};
use biq_matrix::reshape::ChunkedInput;
use biq_quant::packing::KeyTile;

/// Bytes per cache line: the alignment of a bank's first live float.
const LINE_BYTES: usize = 64;

/// Backing store of a LUT bank: an `f32` buffer whose first live float sits
/// on a cache-line boundary. With KeyMajor entries of `nb ≡ 0 (mod 16)`
/// floats every entry is then a whole number of lines, so an entry load in
/// the query and an entry store in the DP build never straddle two lines —
/// a plain `Vec<f32>` of tile size is an mmap'd chunk whose payload starts
/// at 16 mod 64, which splits *every* 64-byte access.
///
/// Held by the type, in safe code: the buffer over-allocates one line and
/// exposes the window starting at the first aligned float; the offset is
/// recomputed whenever the allocation moves. Growth does not preserve
/// contents (every bank position is rewritten by a build before a query
/// reads it); the buffer never shrinks.
#[derive(Debug, Default)]
pub(crate) struct LineAlignedBuf {
    raw: Vec<f32>,
    /// Index in `raw` of the first line-aligned float.
    start: usize,
}

impl LineAlignedBuf {
    /// Floats available (all zero until written).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.raw.len() - self.start
    }

    /// Grows the buffer to hold at least `len` floats.
    pub(crate) fn ensure_len(&mut self, len: usize) {
        if self.len() >= len {
            return;
        }
        // Release the old block first so growth never holds both.
        self.raw = Vec::new();
        self.raw = vec![0.0; len + LINE_BYTES / 4];
        let misaligned = self.raw.as_ptr() as usize % LINE_BYTES;
        // `f32` storage is 4-byte aligned, so the distance is whole floats.
        self.start = (LINE_BYTES - misaligned) % LINE_BYTES / 4;
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.raw[self.start..]
    }

    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.raw[self.start..]
    }
}

/// A reusable bank of lookup tables for one (chunk-tile × batch-tile).
#[derive(Debug)]
pub struct LutBank {
    data: LineAlignedBuf,
    scratch: Vec<f32>,
    /// Gathered DP step vectors, `µ × nb` per chunk of the resident tile
    /// (KeyMajor batched build only).
    steps: Vec<f32>,
    table: usize,
    num_chunks: usize,
    nb: usize,
    layout: LutLayout,
}

impl LutBank {
    /// Creates an empty bank for LUT-unit `mu` and layout `layout`.
    pub fn new(mu: usize, layout: LutLayout) -> Self {
        assert!((1..=16).contains(&mu), "µ must be in 1..=16");
        Self {
            data: LineAlignedBuf::default(),
            scratch: vec![0.0; 1usize << mu],
            steps: Vec::new(),
            table: 1usize << mu,
            num_chunks: 0,
            nb: 0,
            layout,
        }
    }

    /// The layout of this bank.
    #[inline]
    pub fn layout(&self) -> LutLayout {
        self.layout
    }

    /// Pre-grows storage for `num_chunks` chunks × `nb` batch columns so a
    /// following [`LutBank::build`] of that size (or smaller) allocates
    /// nothing. Buffers never shrink.
    pub fn reserve(&mut self, num_chunks: usize, nb: usize) {
        self.data.ensure_len(num_chunks * self.table * nb);
        self.reserve_steps(num_chunks, nb);
    }

    /// Step vectors for a whole tile: `µ × nb` floats per chunk.
    fn reserve_steps(&mut self, num_chunks: usize, nb: usize) {
        let needed = num_chunks * self.mu() * nb;
        if self.steps.len() < needed {
            self.steps.resize(needed, 0.0);
        }
    }

    #[inline]
    pub(crate) fn mu(&self) -> usize {
        self.table.trailing_zeros() as usize
    }

    /// Number of chunks currently resident.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Batch columns currently resident.
    #[inline]
    pub fn batch(&self) -> usize {
        self.nb
    }

    /// Builds tables for chunks `[chunk_start, chunk_start + num_chunks)` ×
    /// batch columns `[batch_start, batch_start + nb)` of `input`,
    /// overwriting the bank, with DP arithmetic running at the resolved
    /// kernel level `k`. Build arithmetic is charged to `profile.build`;
    /// the KeyMajor scatter is charged to `profile.replace`.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        &mut self,
        input: &ChunkedInput<'_>,
        chunk_start: usize,
        num_chunks: usize,
        batch_start: usize,
        nb: usize,
        method: LutBuildMethod,
        profile: &mut PhaseProfile,
        k: ResolvedKernel,
    ) {
        debug_assert!(chunk_start + num_chunks <= input.num_chunks());
        debug_assert!(batch_start + nb <= input.batch());
        self.num_chunks = num_chunks;
        self.nb = nb;
        self.data.ensure_len(num_chunks * self.table * nb);
        if method == LutBuildMethod::DynamicProgramming {
            // GEMV fast path: with one live batch column the KeyMajor and
            // BatchMajor layouts coincide (entry (c, key) at c·2^µ + key),
            // so the tile is the column's chunks back to back, built by one
            // kernel dispatch under one timing scope — clock reads and
            // dispatches per *tile*, not per chunk, which matters for
            // small-µ banks on virtualised hosts where each `Instant::now()`
            // is a paravirtual clock read.
            if nb == 1 {
                let mu = self.mu();
                debug_assert_eq!(input.mu(), mu);
                let x = input.chunk_span(batch_start, chunk_start..chunk_start + num_chunks);
                let data = self.data.as_mut_slice();
                profile.time_build(|| simd::dp_build_tile(data, x, mu, k));
                return;
            }
            if self.layout == LutLayout::KeyMajor {
                self.build_key_major_batched(input, chunk_start, batch_start, profile, k);
                return;
            }
        }
        let data = self.data.as_mut_slice();
        for c in 0..num_chunks {
            for a in 0..nb {
                let sub = input.chunk(batch_start + a, chunk_start + c);
                let len = 1usize << sub.len();
                match self.layout {
                    LutLayout::BatchMajor => {
                        let off = (c * nb + a) * self.table;
                        let dst = &mut data[off..off + len];
                        profile.time_build(|| fill_table(method, sub, dst, k));
                    }
                    // Only the brute-force method reaches here (KeyMajor DP
                    // builds whole tiles above). It keeps the per-(chunk,
                    // batch) scratch + scatter structure — it exists for
                    // the ablation; the scatter is the replace phase.
                    LutLayout::KeyMajor => {
                        let scratch = &mut self.scratch[..len];
                        profile.time_build(|| fill_table(method, sub, scratch, k));
                        let base = c * self.table * nb + a;
                        profile.time_replace(|| {
                            for (key, &v) in scratch.iter().enumerate() {
                                data[base + key * nb] = v;
                            }
                        });
                    }
                }
            }
        }
    }

    /// Batch-vectorised Algorithm 1 directly in the Fig. 6 layout for the
    /// resident tile (`nb ≥ 2`): table entries are contiguous `nb`-vectors,
    /// and the DP recurrence (`q[2^t + j] = q[j] + 2·x_{L−1−t}`) becomes a
    /// vector add per entry. The strided gather of sub-vector values across
    /// batch columns is the residual "replace" (tiling data-movement) cost.
    /// Both phases run over the whole tile under one timing scope each, so
    /// the clock is read four times per tile, not per chunk.
    fn build_key_major_batched(
        &mut self,
        input: &ChunkedInput<'_>,
        chunk_start: usize,
        batch_start: usize,
        profile: &mut PhaseProfile,
        k: ResolvedKernel,
    ) {
        let (num_chunks, nb, table) = (self.num_chunks, self.nb, self.table);
        self.reserve_steps(num_chunks, nb);
        let step_stride = self.mu() * nb;
        let steps = &mut self.steps;
        let data = self.data.as_mut_slice();
        profile.time_replace(|| {
            for c in 0..num_chunks {
                gather_chunk_steps(
                    &mut data[c * table * nb..][..nb],
                    &mut steps[c * step_stride..][..step_stride],
                    input,
                    chunk_start + c,
                    batch_start,
                );
            }
        });
        profile.time_build(|| {
            for c in 0..num_chunks {
                let l = input.chunk(batch_start, chunk_start + c).len();
                dp_fill_chunk(
                    &mut data[c * table * nb..][..(1usize << l) * nb],
                    &steps[c * step_stride..][..step_stride],
                    l,
                    nb,
                    k,
                );
            }
        });
    }

    /// KeyMajor: the contiguous batch vector for `(chunk_local, key)`.
    ///
    /// # Panics
    /// Debug-panics when called on a BatchMajor bank.
    #[inline]
    pub fn entry_vec(&self, chunk_local: usize, key: usize) -> &[f32] {
        debug_assert_eq!(self.layout, LutLayout::KeyMajor);
        debug_assert!(chunk_local < self.num_chunks);
        let off = (chunk_local * self.table + key) * self.nb;
        &self.data.as_slice()[off..off + self.nb]
    }

    /// The Algorithm 2 query of one row tile against the resident tables:
    /// for each row `i` of the key tile and each resident batch lane `a`,
    /// `y[i · y_stride + a] += scales[i] · Σ_c entry(c, a, keys_i[c])`,
    /// every sum in the **canonical accumulation-tree order** at the
    /// resolved kernel level: the width-1 gather at `nb == 1`
    /// ([`crate::simd::lut_gather_rows`]), the fused query on a KeyMajor
    /// bank ([`crate::simd::lut_query_fused_rows`]), and one strided
    /// width-1 gather per batch column on a BatchMajor one. Whatever the
    /// layout and width, a column rounds bit for bit alike (batch-packing
    /// invariance; `batch_invariance.rs` pins it).
    ///
    /// # Panics
    /// Panics (or debug-panics) on key rows longer than the resident
    /// chunks, or tile/output geometry mismatches per the kernel
    /// dispatchers.
    #[inline]
    pub fn query_rows(
        &self,
        keys: KeyTile<'_>,
        scales: &[f32],
        y: &mut [f32],
        y_stride: usize,
        k: ResolvedKernel,
    ) {
        debug_assert!(keys.nc() <= self.num_chunks);
        let bank = &self.data.as_slice()[..self.num_chunks * self.table * self.nb];
        query_row_tile(bank, self.table, self.nb, self.layout, keys, scales, y, y_stride, k);
    }

    /// Bytes of live table data.
    pub fn resident_bytes(&self) -> usize {
        self.num_chunks * self.table * self.nb * 4
    }
}

/// The Algorithm 2 query of one row tile over a resident bank of `nb`
/// batch columns in `layout` — one kernel dispatch per row tile, or per
/// batch column of a BatchMajor tile:
///
/// * `nb == 1`: both layouts store entry `(c, key)` at `c·2^µ + key`, and
///   the row-batched width-1 gather ([`simd::lut_gather_rows`]) runs,
///   consecutive rows' lookups interleaved — the b = 1 serving hot loop;
/// * KeyMajor: the fused lookup-accumulate ([`simd::lut_query_fused_rows`]),
///   register accumulation across the tile's chunks, scale in-pass;
/// * BatchMajor: column `a`'s tables are `nb · 2^µ` floats apart from
///   `a · 2^µ` on, so the query is `nb` strided width-1 gathers.
///
/// All three realise the canonical accumulation tree, so they agree bit
/// for bit (`both_layouts_agree`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn query_row_tile(
    bank: &[f32],
    table: usize,
    nb: usize,
    layout: LutLayout,
    keys: KeyTile<'_>,
    scales: &[f32],
    y: &mut [f32],
    y_stride: usize,
    k: ResolvedKernel,
) {
    if nb == 1 {
        simd::lut_gather_rows(y, y_stride, scales, bank, table, table, keys, k);
    } else if layout == LutLayout::KeyMajor {
        simd::lut_query_fused_rows(y, y_stride, scales, bank, table, nb, keys, k);
    } else {
        for a in 0..nb {
            let (ya, col) = (&mut y[a..], &bank[a * table..]);
            simd::lut_gather_rows(ya, y_stride, scales, col, table, nb * table, keys, k);
        }
    }
}

/// Gather half of the batched KeyMajor build for one chunk — the strided
/// data movement charged to the replace phase: `steps[t·nb + a] =
/// 2·x_a[L−1−t]` for the DP levels, and `−Σ x_a` into table entry 0
/// (`entry0`, one float per batch column: `nb = entry0.len()`).
fn gather_chunk_steps(
    entry0: &mut [f32],
    steps: &mut [f32],
    input: &ChunkedInput<'_>,
    chunk: usize,
    batch_start: usize,
) {
    let nb = entry0.len();
    for (a, e0) in entry0.iter_mut().enumerate() {
        let sub = input.chunk(batch_start + a, chunk);
        let l = sub.len();
        debug_assert!(l >= 1);
        let mut neg = 0.0f32;
        for &v in sub {
            neg -= v;
        }
        *e0 = neg;
        for t in 0..l - 1 {
            steps[t * nb + a] = 2.0 * sub[l - 1 - t];
        }
    }
}

/// DP half of the batched KeyMajor build for one chunk: `seg` spans the
/// chunk's `2^l` entries of `nb` floats with entry 0 already in place.
/// Vector adds over contiguous `nb`-rows at the resolved kernel level —
/// one dispatch per DP level / per mirror, so call overhead never scales
/// with `2^µ`.
fn dp_fill_chunk(seg: &mut [f32], steps: &[f32], l: usize, nb: usize, k: ResolvedKernel) {
    for t in 0..l - 1 {
        let rows = 1usize << t;
        let (lo, hi) = seg.split_at_mut(rows * nb);
        simd::dp_step_add_rows(&mut hi[..rows * nb], lo, &steps[t * nb..t * nb + nb], k);
    }
    // Mirror: upper-half row r (global index 2^{l−1}+r) is the negation of
    // lower-half row 2^{l−1}−1−r.
    let half = 1usize << (l - 1);
    let (lo, hi) = seg.split_at_mut(half * nb);
    simd::negate_rows_reversed(hi, lo, nb, k);
}

#[inline]
fn fill_table(method: LutBuildMethod, sub: &[f32], dst: &mut [f32], k: ResolvedKernel) {
    match method {
        LutBuildMethod::DynamicProgramming => build_lut_dp_level(sub, dst, k),
        LutBuildMethod::Gemm => build_lut_bruteforce(sub, dst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmu::key_dot;
    use crate::simd::KernelRequest;
    use biq_matrix::{ColMatrix, MatrixRng};
    use biq_quant::packing::KeyMatrix;

    fn sk() -> ResolvedKernel {
        ResolvedKernel::scalar()
    }

    fn check_bank_contents(
        bank: &LutBank,
        input: &ChunkedInput<'_>,
        chunk_start: usize,
        batch_start: usize,
    ) {
        for c in 0..bank.num_chunks() {
            for a in 0..bank.batch() {
                let sub = input.chunk(batch_start + a, chunk_start + c);
                for k in 0..(1usize << sub.len()) {
                    let expected = key_dot(k as u16, sub);
                    let got = match bank.layout() {
                        LutLayout::KeyMajor => bank.entry_vec(c, k)[a],
                        LutLayout::BatchMajor => {
                            bank.data.as_slice()[(c * bank.batch() + a) * bank.table + k]
                        }
                    };
                    assert!(
                        (got - expected).abs() < 1e-4,
                        "layout {:?} chunk {c} batch {a} key {k}: {got} vs {expected}",
                        bank.layout()
                    );
                }
            }
        }
    }

    #[test]
    fn both_layouts_hold_correct_tables() {
        let mut g = MatrixRng::seed_from(220);
        let x = g.gaussian_col(20, 5, 0.0, 1.0); // n=20, µ=4 -> 5 chunks
        let input = ChunkedInput::new(&x, 4);
        for layout in [LutLayout::KeyMajor, LutLayout::BatchMajor] {
            let mut bank = LutBank::new(4, layout);
            let mut prof = PhaseProfile::new();
            bank.build(&input, 0, 5, 0, 5, LutBuildMethod::DynamicProgramming, &mut prof, sk());
            check_bank_contents(&bank, &input, 0, 0);
        }
    }

    #[test]
    fn partial_tile_with_offsets() {
        let mut g = MatrixRng::seed_from(221);
        let x = g.gaussian_col(24, 8, 0.0, 1.0);
        let input = ChunkedInput::new(&x, 4); // 6 chunks
        let mut bank = LutBank::new(4, LutLayout::KeyMajor);
        let mut prof = PhaseProfile::new();
        bank.build(&input, 2, 3, 5, 2, LutBuildMethod::DynamicProgramming, &mut prof, sk());
        assert_eq!(bank.num_chunks(), 3);
        assert_eq!(bank.batch(), 2);
        check_bank_contents(&bank, &input, 2, 5);
    }

    #[test]
    fn ragged_tail_chunk_supported() {
        let mut g = MatrixRng::seed_from(222);
        let x = g.gaussian_col(10, 3, 0.0, 1.0); // µ=4: chunks of 4,4,2
        let input = ChunkedInput::new(&x, 4);
        for layout in [LutLayout::KeyMajor, LutLayout::BatchMajor] {
            let mut bank = LutBank::new(4, layout);
            let mut prof = PhaseProfile::new();
            bank.build(&input, 0, 3, 0, 3, LutBuildMethod::DynamicProgramming, &mut prof, sk());
            check_bank_contents(&bank, &input, 0, 0);
        }
    }

    #[test]
    fn gemm_method_matches_dp() {
        let mut g = MatrixRng::seed_from(223);
        let x = g.small_int_col(16, 4, 4);
        let input = ChunkedInput::new(&x, 4);
        let mut dp = LutBank::new(4, LutLayout::KeyMajor);
        let mut bf = LutBank::new(4, LutLayout::KeyMajor);
        let mut prof = PhaseProfile::new();
        dp.build(&input, 0, 4, 0, 4, LutBuildMethod::DynamicProgramming, &mut prof, sk());
        bf.build(&input, 0, 4, 0, 4, LutBuildMethod::Gemm, &mut prof, sk());
        for c in 0..4 {
            for k in 0..16 {
                assert_eq!(dp.entry_vec(c, k), bf.entry_vec(c, k));
            }
        }
    }

    #[test]
    fn keymajor_charges_replace_batchmajor_does_not() {
        let mut g = MatrixRng::seed_from(224);
        let x = g.gaussian_col(64, 16, 0.0, 1.0);
        let input = ChunkedInput::new(&x, 8);
        let mut prof_km = PhaseProfile::new();
        let mut km = LutBank::new(8, LutLayout::KeyMajor);
        km.build(&input, 0, 8, 0, 16, LutBuildMethod::DynamicProgramming, &mut prof_km, sk());
        assert!(prof_km.replace > std::time::Duration::ZERO);
        let mut prof_bm = PhaseProfile::new();
        let mut bm = LutBank::new(8, LutLayout::BatchMajor);
        bm.build(&input, 0, 8, 0, 16, LutBuildMethod::DynamicProgramming, &mut prof_bm, sk());
        assert_eq!(prof_bm.replace, std::time::Duration::ZERO);
    }

    #[test]
    fn bank_reuse_shrinks_without_realloc_issue() {
        let mut g = MatrixRng::seed_from(225);
        let x = g.gaussian_col(32, 4, 0.0, 1.0);
        let input = ChunkedInput::new(&x, 8);
        let mut bank = LutBank::new(8, LutLayout::BatchMajor);
        let mut prof = PhaseProfile::new();
        bank.build(&input, 0, 4, 0, 4, LutBuildMethod::DynamicProgramming, &mut prof, sk());
        check_bank_contents(&bank, &input, 0, 0);
        // Rebuild a smaller region; stale data beyond it must not matter.
        bank.build(&input, 1, 2, 1, 2, LutBuildMethod::DynamicProgramming, &mut prof, sk());
        check_bank_contents(&bank, &input, 1, 1);
    }

    #[test]
    fn builds_bit_exact_across_levels_and_fused_query_matches_entries() {
        let mut g = MatrixRng::seed_from(226);
        let x = g.gaussian_col(26, 7, 0.0, 1.0); // µ=4 → 6 full chunks + ragged
        let input = ChunkedInput::new(&x, 4);
        let mut prof = PhaseProfile::new();
        let mut reference = LutBank::new(4, LutLayout::KeyMajor);
        reference.build(&input, 0, 7, 0, 7, LutBuildMethod::DynamicProgramming, &mut prof, sk());
        let key_matrix = KeyMatrix::pack(&g.signs(1, 26), 4);
        let keys = key_matrix.tile(0..1, 0, 7);
        let mut y_ref = vec![0.0f32; 7];
        reference.query_rows(keys, &[1.25], &mut y_ref, 7, sk());
        for level in crate::simd::supported_levels() {
            let k = KernelRequest::Exact(level).resolve().unwrap();
            let mut bank = LutBank::new(4, LutLayout::KeyMajor);
            bank.build(&input, 0, 7, 0, 7, LutBuildMethod::DynamicProgramming, &mut prof, k);
            for c in 0..7 {
                for key in 0..16usize {
                    let sub = input.chunk(0, c);
                    if key < (1usize << sub.len()) {
                        assert_eq!(
                            bank.entry_vec(c, key),
                            reference.entry_vec(c, key),
                            "level={level} chunk={c} key={key}"
                        );
                    }
                }
            }
            let mut y = vec![0.0f32; 7];
            bank.query_rows(keys, &[1.25], &mut y, 7, k);
            assert_eq!(y, y_ref, "level={level}");
        }
    }

    /// Vacuous for an empty buffer (no first float); otherwise the base of
    /// the live window sits on a cache line.
    fn assert_line_aligned(buf: &LineAlignedBuf, what: &str) {
        let base = buf.as_slice().as_ptr() as usize;
        assert!(buf.len() == 0 || base.is_multiple_of(LINE_BYTES), "{what}: base {base:#x}");
    }

    #[test]
    fn bank_base_is_line_aligned_through_every_resize() {
        let mut g = MatrixRng::seed_from(227);
        let x = g.gaussian_col(64, 48, 0.0, 1.0);
        let input = ChunkedInput::new(&x, 8); // 8 chunks
        let mut prof = PhaseProfile::new();
        let dp = LutBuildMethod::DynamicProgramming;
        for layout in [LutLayout::KeyMajor, LutLayout::BatchMajor] {
            let mut bank = LutBank::new(8, layout);
            assert_line_aligned(&bank.data, "new");
            bank.reserve(1, 3);
            assert_line_aligned(&bank.data, "reserve");
            assert!(bank.data.len() >= 256 * 3);
            // Growth through `build` (several reallocations, odd sizes),
            // shrink to a small tile, then regrow past the high-water mark.
            for (nc, nb) in [(2usize, 5usize), (4, 17), (1, 2), (8, 32), (3, 1), (8, 48)] {
                bank.build(&input, 0, nc, 0, nb, dp, &mut prof, sk());
                assert_line_aligned(&bank.data, "build");
                assert!(bank.data.len() >= nc * 256 * nb);
                check_bank_contents(&bank, &input, 0, 0);
            }
        }
    }

    #[test]
    fn resident_bytes_formula() {
        let x = ColMatrix::zeros(16, 2);
        let input = ChunkedInput::new(&x, 4);
        let mut bank = LutBank::new(4, LutLayout::KeyMajor);
        let mut prof = PhaseProfile::new();
        bank.build(&input, 0, 4, 0, 2, LutBuildMethod::DynamicProgramming, &mut prof, sk());
        assert_eq!(bank.resident_bytes(), 4 * 16 * 2 * 4);
    }
}
