//! Lookup-table banks: storage + layout for the live tables of one tile.
//!
//! A bank holds the tables for `num_chunks` consecutive input chunks ×
//! `nb` consecutive batch columns. Every chunk gets a full `2^µ`-entry
//! stride even when its sub-vector is ragged (`L < µ`), keeping addressing
//! uniform; only the first `2^L` entries are meaningful. Algorithm 1 (the
//! dynamic-programming build) fills every table.
//!
//! The layout follows the tile's width — no caller chooses it:
//!
//! * **Column tables** (`nb ≤` [`COLUMN_TABLES_MAX`]):
//!   `data[(a·num_chunks + c)·2^µ + key]` — batch column `a`'s tables run
//!   back to back, built by one width-1 DP dispatch
//!   ([`simd::dp_build_tile`]) per column and queried column by column
//!   ([`LutBank::passes`]): one width-1 gather dispatch
//!   ([`simd::lut_gather_rows`]) per row tile per column, so the tile loop
//!   runs one column across every row before the next and that column's
//!   tables stay in L1. b = 1 is the one-column case.
//! * **KeyMajor** (paper Fig. 6, wider tiles):
//!   `data[(c·2^µ + key)·s + a]` with the entry stride `s =`
//!   [`entry_stride`]`(nb)` — `nb` padded to a whole lane group (8 through
//!   `nb = 8`, a multiple of 16 past it). One lookup yields a contiguous
//!   batch vector of whole vectors, so the fused query
//!   ([`simd::lut_query_fused_rows`]) loads every lane group of an entry
//!   unmasked, and only its store to `y` is masked to the `nb` live lanes.
//!   Building gathers each chunk's sub-vector values across the batch
//!   stride into entry 0 and the DP step rows (`steps[(c·µ + t)·s + a]`)
//!   — that movement is charged to the **replace** phase. It is one
//!   dispatch per tile ([`simd::gather_key_major_steps`]) with the batch
//!   columns as vector lanes: one lookup per chunk position pulls a lane
//!   group's values at lane offsets `a·n`. It writes `0.0` into every
//!   padded lane `nb ≤ a < s` of entry 0 and of the step rows, so the DP
//!   steps and the mirror — whole padded rows — leave `±0.0` in every
//!   padded lane of every built entry: never a NaN or a subnormal.
//!
//! Both realise the canonical accumulation tree, so a column's bits do not
//! depend on which side of the constant its tile falls.

use crate::profile::PhaseProfile;
use crate::simd::{self, ResolvedKernel};
use biq_matrix::reshape::ChunkedInput;
use biq_quant::packing::KeyTile;

/// Bytes per cache line: the alignment of a bank's first live float.
const LINE_BYTES: usize = 64;

/// Backing store of a LUT bank: an `f32` buffer whose first live float sits
/// on a cache-line boundary. With KeyMajor entry strides of 8 floats or a
/// multiple of 16 every entry is then half a line or a whole number of
/// lines, so an entry load in the query and an entry store in the DP build
/// never straddle two lines —
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

/// The widest LUT tile that builds column tables; wider tiles build the
/// Fig. 6 KeyMajor bank. Measured, not derived, against the padded
/// KeyMajor bank ([`entry_stride`]): 2-bit serial runs at 512², 2048×512
/// and 512×2048 on AVX2 and AVX-512 (21 alternating blocks in one process,
/// low decile per block, medians) found KeyMajor faster in all 6 cells at
/// b = 4 (0.67–0.92× the column tables' time) and slower in 4 of 6 at
/// b = 3 (0.88–1.24×), so the bound is the same on both levels — the table
/// is in the crate README, "Known cliffs". ROADMAP item 15's cost model
/// replaces it.
pub const COLUMN_TABLES_MAX: usize = 3;

/// Whether a tile of `nb` batch columns builds column tables.
#[inline]
fn column_tables(nb: usize) -> bool {
    nb <= COLUMN_TABLES_MAX
}

/// Floats one KeyMajor entry spans for a tile of `nb` batch columns: `nb`
/// rounded up to 8 through `nb = 8`, to a multiple of 16 past it — a whole
/// ymm, or whole zmm and cache lines. Every level's lane group (4, 8 or 16
/// lanes; AVX-512 runs a stride of 8 at AVX2's width) divides it, so no
/// bank access is masked; the lanes `nb..` are padding the build zeroes and
/// the query never stores. The one stride rule: the build, the query and
/// every reservation ([`tile_lanes`]) go through it.
#[inline]
pub fn entry_stride(nb: usize) -> usize {
    if nb <= 8 {
        8
    } else {
        nb.next_multiple_of(16)
    }
}

/// Floats per table entry (and per DP step row) of a tile `nb` columns
/// wide, whichever layout its width picks: `nb` for column tables, the
/// [`entry_stride`] for KeyMajor. Non-decreasing in `nb`, so scratch sized
/// at one width holds every narrower tile.
#[inline]
pub fn tile_lanes(nb: usize) -> usize {
    if column_tables(nb) {
        nb
    } else {
        entry_stride(nb)
    }
}

/// A reusable bank of lookup tables for one (chunk-tile × batch-tile).
#[derive(Debug)]
pub struct LutBank {
    data: LineAlignedBuf,
    /// Gathered DP step vectors, `µ × nb` per chunk of the resident tile
    /// (KeyMajor tiles only).
    steps: Vec<f32>,
    table: usize,
    num_chunks: usize,
    nb: usize,
}

impl LutBank {
    /// Creates an empty bank for LUT-unit `mu`; each build lays its tables
    /// out by the tile's width (module docs).
    pub fn new(mu: usize) -> Self {
        assert!((1..=16).contains(&mu), "µ must be in 1..=16");
        Self {
            data: LineAlignedBuf::default(),
            steps: Vec::new(),
            table: 1usize << mu,
            num_chunks: 0,
            nb: 0,
        }
    }

    /// Pre-grows storage for `num_chunks` chunks × `nb` batch columns so a
    /// following [`LutBank::build`] of that size (or smaller) allocates
    /// nothing. Buffers never shrink.
    pub fn reserve(&mut self, num_chunks: usize, nb: usize) {
        self.data.ensure_len(num_chunks * self.table * tile_lanes(nb));
        self.reserve_steps(num_chunks, nb);
    }

    /// Step vectors for a whole KeyMajor tile: `µ` rows of the entry stride
    /// per chunk.
    fn reserve_steps(&mut self, num_chunks: usize, nb: usize) {
        let needed = num_chunks * self.mu() * tile_lanes(nb);
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
    /// overwriting the bank, with Algorithm 1 running at the resolved
    /// kernel level `k`. Build arithmetic is charged to `profile.build`,
    /// the KeyMajor step gather to `profile.replace`. Either way the clock
    /// is read per *tile*, not per chunk or column, which matters for
    /// small-µ banks on virtualised hosts where each `Instant::now()` is a
    /// paravirtual clock read.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        &mut self,
        input: &ChunkedInput<'_>,
        chunk_start: usize,
        num_chunks: usize,
        batch_start: usize,
        nb: usize,
        profile: &mut PhaseProfile,
        k: ResolvedKernel,
    ) {
        debug_assert!(chunk_start + num_chunks <= input.num_chunks());
        debug_assert!(batch_start + nb <= input.batch());
        debug_assert_eq!(input.mu(), self.mu());
        self.num_chunks = num_chunks;
        self.nb = nb;
        self.data.ensure_len(num_chunks * self.table * tile_lanes(nb));
        if !column_tables(nb) {
            self.build_key_major(input, chunk_start, batch_start, profile, k);
            return;
        }
        let (mu, span) = (self.mu(), num_chunks * self.table);
        let data = self.data.as_mut_slice();
        profile.time_build(|| {
            for a in 0..nb {
                let x = input.chunk_span(batch_start + a, chunk_start..chunk_start + num_chunks);
                simd::dp_build_tile(&mut data[a * span..][..span], x, mu, k);
            }
        });
    }

    /// Batch-vectorised Algorithm 1 directly in the Fig. 6 layout for the
    /// resident tile: table entries are contiguous padded batch vectors
    /// ([`entry_stride`]), and the DP recurrence (`q[2^t + j] = q[j] +
    /// 2·x_{L−1−t}`) becomes a whole-row vector add per entry. The strided
    /// gather of sub-vector values across batch columns — entry 0 and the
    /// step rows, one [`simd::gather_key_major_steps`] dispatch with the
    /// columns as lanes — is the residual "replace" (tiling data-movement)
    /// cost. Both phases run over the whole tile under one timing scope
    /// each.
    fn build_key_major(
        &mut self,
        input: &ChunkedInput<'_>,
        chunk_start: usize,
        batch_start: usize,
        profile: &mut PhaseProfile,
        k: ResolvedKernel,
    ) {
        let (num_chunks, nb, table, mu) = (self.num_chunks, self.nb, self.table, self.mu());
        let stride = entry_stride(nb);
        self.reserve_steps(num_chunks, nb);
        let step_stride = mu * stride;
        let steps = &mut self.steps;
        let data = self.data.as_mut_slice();
        let n = input.input_size();
        let x = &input.matrix().as_slice()[batch_start * n..];
        let chunks = chunk_start..chunk_start + num_chunks;
        profile.time_replace(|| {
            simd::gather_key_major_steps(data, steps, x, n, mu, chunks, nb, k);
        });
        profile.time_build(|| {
            for c in 0..num_chunks {
                let l = input.chunk(batch_start, chunk_start + c).len();
                dp_fill_chunk(
                    &mut data[c * table * stride..][..(1usize << l) * stride],
                    &steps[c * step_stride..][..step_stride],
                    l,
                    stride,
                    k,
                );
            }
        });
    }

    /// The query passes the resident tile takes, each over every row:
    /// column tables one per batch column (column `a` is pass `a`), so a
    /// pass reads one column's tables only; the KeyMajor bank one, over
    /// every column at once.
    #[inline]
    pub fn passes(&self) -> usize {
        if column_tables(self.nb) {
            self.nb
        } else {
            1
        }
    }

    /// Query pass `pass` ([`LutBank::passes`]) of one row tile against the
    /// resident tables: for each row `i` of the key tile and each batch
    /// lane `a` of the pass, `y[i · y_stride + a] += scales[i] · Σ_c
    /// entry(c, a, keys_i[c])`, every sum in the **canonical
    /// accumulation-tree order** at the resolved kernel level — one kernel
    /// dispatch per row tile:
    ///
    /// * column tables: the width-1 gather ([`simd::lut_gather_rows`]) over
    ///   column `pass`'s tables, consecutive rows' lookups interleaved — at
    ///   b = 1 the serving hot loop;
    /// * KeyMajor (`pass` 0): the fused lookup-accumulate
    ///   ([`simd::lut_query_fused_rows`]), register accumulation across the
    ///   tile's chunks, scale in-pass.
    ///
    /// Whatever the width, a column rounds bit for bit alike (batch-packing
    /// invariance; `batch_invariance.rs` pins it).
    ///
    /// # Panics
    /// Panics when the key tile does not span exactly the resident chunks,
    /// when `pass ≥ self.passes()`, or on tile/output geometry mismatches
    /// per the kernel dispatchers.
    #[inline]
    pub fn query_rows(
        &self,
        pass: usize,
        keys: KeyTile<'_>,
        scales: &[f32],
        y: &mut [f32],
        y_stride: usize,
        k: ResolvedKernel,
    ) {
        assert_eq!(keys.nc(), self.num_chunks, "a key tile spans the resident chunks");
        assert!(pass < self.passes(), "query pass {pass} of a {}-pass tile", self.passes());
        let (table, nb) = (self.table, self.nb);
        let data = self.data.as_slice();
        if column_tables(nb) {
            let span = self.num_chunks * table;
            let bank = &data[pass * span..][..span];
            simd::lut_gather_rows(&mut y[pass..], y_stride, scales, bank, table, keys, k);
        } else {
            let bank = &data[..self.num_chunks * table * entry_stride(nb)];
            simd::lut_query_fused_rows(y, y_stride, scales, bank, table, nb, keys, k);
        }
    }

    /// Bytes the resident tables occupy, KeyMajor padding included.
    pub fn resident_bytes(&self) -> usize {
        self.num_chunks * self.table * tile_lanes(self.nb) * 4
    }
}

/// DP half of the batched KeyMajor build for one chunk: `seg` spans the
/// chunk's `2^l` entries of `stride` floats with entry 0 already in place.
/// Vector adds over whole padded rows at the resolved kernel level — one
/// dispatch per DP level / per mirror, so call overhead never scales with
/// `2^µ`.
fn dp_fill_chunk(seg: &mut [f32], steps: &[f32], l: usize, stride: usize, k: ResolvedKernel) {
    for t in 0..l - 1 {
        let rows = 1usize << t;
        let (lo, hi) = seg.split_at_mut(rows * stride);
        let step = &steps[t * stride..][..stride];
        simd::dp_step_add_rows(&mut hi[..rows * stride], lo, step, k);
    }
    // Mirror: upper-half row r (global index 2^{l−1}+r) is the negation of
    // lower-half row 2^{l−1}−1−r.
    let half = 1usize << (l - 1);
    let (lo, hi) = seg.split_at_mut(half * stride);
    simd::negate_rows_reversed(hi, lo, stride, k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::build_lut_bruteforce;
    use crate::simd::KernelRequest;
    use biq_matrix::{ColMatrix, MatrixRng};
    use biq_quant::packing::KeyMatrix;

    fn sk() -> ResolvedKernel {
        ResolvedKernel::scalar()
    }

    /// Entry `key` of batch column `a`'s table for resident chunk `c`,
    /// wherever the tile's width put it.
    fn entry(bank: &LutBank, c: usize, a: usize, key: usize) -> f32 {
        let (table, nc, nb) = (bank.table, bank.num_chunks, bank.nb);
        let off = if column_tables(nb) {
            (a * nc + c) * table + key
        } else {
            (c * table + key) * entry_stride(nb) + a
        };
        bank.data.as_slice()[off]
    }

    fn build(bank: &mut LutBank, input: &ChunkedInput<'_>, tile: [usize; 4], k: ResolvedKernel) {
        let [c0, nc, b0, nb] = tile;
        bank.build(input, c0, nc, b0, nb, &mut PhaseProfile::new(), k);
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
                let mut want = vec![0.0f32; 1 << sub.len()];
                build_lut_bruteforce(sub, &mut want);
                for (k, &expected) in want.iter().enumerate() {
                    let got = entry(bank, c, a, k);
                    assert!(
                        (got - expected).abs() < 1e-4,
                        "nb {} chunk {c} batch {a} key {k}: {got} vs {expected}",
                        bank.batch()
                    );
                }
            }
        }
    }

    #[test]
    fn both_layouts_hold_correct_tables() {
        let mut g = MatrixRng::seed_from(220);
        let x = g.gaussian_col(20, COLUMN_TABLES_MAX + 3, 0.0, 1.0); // n=20, µ=4 -> 5 chunks
        let input = ChunkedInput::new(&x, 4);
        for nb in 1..=COLUMN_TABLES_MAX + 3 {
            let mut bank = LutBank::new(4);
            build(&mut bank, &input, [0, 5, 0, nb], sk());
            check_bank_contents(&bank, &input, 0, 0);
        }
    }

    #[test]
    fn the_tile_width_picks_the_layout() {
        // Column tables up to the constant (b = 1 is the one-column case),
        // KeyMajor from one column past it — each at its own addresses.
        let mut g = MatrixRng::seed_from(228);
        let nc = 3;
        let x = g.small_int_col(4 * nc, COLUMN_TABLES_MAX + 1, 4);
        let input = ChunkedInput::new(&x, 4);
        for nb in [1, COLUMN_TABLES_MAX, COLUMN_TABLES_MAX + 1] {
            let mut bank = LutBank::new(4);
            build(&mut bank, &input, [0, nc, 0, nb], sk());
            let data = bank.data.as_slice();
            for (c, a) in (0..nc).flat_map(|c| (0..nb).map(move |a| (c, a))) {
                let mut want = vec![0.0f32; 16];
                build_lut_bruteforce(input.chunk(a, c), &mut want);
                let got: Vec<f32> = if nb <= COLUMN_TABLES_MAX {
                    data[(a * nc + c) * 16..][..16].to_vec()
                } else {
                    (0..16).map(|key| data[(c * 16 + key) * entry_stride(nb) + a]).collect()
                };
                assert_eq!(got, want, "nb {nb} chunk {c} column {a}");
            }
        }
    }

    #[test]
    fn partial_tile_with_offsets() {
        let mut g = MatrixRng::seed_from(221);
        let x = g.gaussian_col(24, 8, 0.0, 1.0);
        let input = ChunkedInput::new(&x, 4); // 6 chunks
        for (b0, nb) in [(5usize, 2usize), (1, 6)] {
            let mut bank = LutBank::new(4);
            build(&mut bank, &input, [2, 3, b0, nb], sk());
            assert_eq!(bank.num_chunks(), 3);
            assert_eq!(bank.batch(), nb);
            check_bank_contents(&bank, &input, 2, b0);
        }
    }

    #[test]
    fn ragged_tail_chunk_supported() {
        let mut g = MatrixRng::seed_from(222);
        let x = g.gaussian_col(10, 6, 0.0, 1.0); // µ=4: chunks of 4,4,2
        let input = ChunkedInput::new(&x, 4);
        for nb in 1..=6 {
            let mut bank = LutBank::new(4);
            build(&mut bank, &input, [0, 3, 0, nb], sk());
            check_bank_contents(&bank, &input, 0, 0);
        }
    }

    #[test]
    fn keymajor_charges_replace_batchmajor_does_not() {
        // KeyMajor (a wide tile) gathers step vectors across the batch;
        // column tables (batch-major: `[batch][chunk][key]`) read each
        // column's input in place.
        let mut g = MatrixRng::seed_from(224);
        let x = g.gaussian_col(64, COLUMN_TABLES_MAX + 1, 0.0, 1.0);
        let input = ChunkedInput::new(&x, 8);
        for nb in 1..=COLUMN_TABLES_MAX + 1 {
            let mut prof = PhaseProfile::new();
            LutBank::new(8).build(&input, 0, 8, 0, nb, &mut prof, sk());
            assert!(prof.build > std::time::Duration::ZERO, "nb {nb}");
            let replaced = prof.replace > std::time::Duration::ZERO;
            assert_eq!(replaced, nb > COLUMN_TABLES_MAX, "nb {nb}: replace charged");
        }
    }

    #[test]
    fn bank_reuse_shrinks_without_realloc_issue() {
        let mut g = MatrixRng::seed_from(225);
        let x = g.gaussian_col(32, 4, 0.0, 1.0);
        let input = ChunkedInput::new(&x, 8);
        let mut bank = LutBank::new(8);
        build(&mut bank, &input, [0, 4, 0, 4], sk());
        check_bank_contents(&bank, &input, 0, 0);
        // Rebuild a smaller region; stale data beyond it must not matter.
        build(&mut bank, &input, [1, 2, 1, 2], sk());
        check_bank_contents(&bank, &input, 1, 1);
    }

    #[test]
    fn builds_bit_exact_across_levels_and_fused_query_matches_entries() {
        let mut g = MatrixRng::seed_from(226);
        let x = g.gaussian_col(26, 7, 0.0, 1.0); // µ=4 → 6 full chunks + ragged
        let input = ChunkedInput::new(&x, 4);
        let key_matrix = KeyMatrix::pack(&g.signs(1, 26), 4);
        let keys = key_matrix.tile(0..1, 0, 7);
        for nb in [1usize, 2, 3, 4, 7] {
            let mut reference = LutBank::new(4);
            build(&mut reference, &input, [0, 7, 0, nb], sk());
            let query = |bank: &LutBank, k| {
                let mut y = vec![0.0f32; nb];
                (0..bank.passes())
                    .for_each(|pass| bank.query_rows(pass, keys, &[1.25], &mut y, nb, k));
                y
            };
            let y_ref = query(&reference, sk());
            for level in crate::simd::supported_levels() {
                let k = KernelRequest::Exact(level).resolve().unwrap();
                let mut bank = LutBank::new(4);
                build(&mut bank, &input, [0, 7, 0, nb], k);
                for (c, a) in (0..7).flat_map(|c| (0..nb).map(move |a| (c, a))) {
                    for key in 0..1usize << input.chunk(a, c).len() {
                        assert_eq!(
                            entry(&bank, c, a, key).to_bits(),
                            entry(&reference, c, a, key).to_bits(),
                            "level={level} nb={nb} chunk={c} column={a} key={key}"
                        );
                    }
                }
                assert_eq!(query(&bank, k), y_ref, "level={level} nb={nb}");
            }
        }
    }

    /// The KeyMajor step gather written out as a scalar per-column chain —
    /// the independent statement of its order: per column,
    /// entry 0 is `0 − x_0 − x_1 − …` in ascending order and step row `t`
    /// is `2·x_{l−1−t}`, and every padded lane `nb ≤ a < s` of both is
    /// `+0.0`. Fills the tile's entry 0 of every chunk (`bank[i·2^µ·s + a]`)
    /// and its step rows (`steps[i·µ·s + t·s + a]`), nothing else.
    fn steps_oracle(
        bank: &mut [f32],
        steps: &mut [f32],
        input: &ChunkedInput<'_>,
        chunks: std::ops::Range<usize>,
        batch_start: usize,
        nb: usize,
    ) {
        let (mu, s) = (input.mu(), entry_stride(nb));
        for (i, c) in chunks.enumerate() {
            for a in 0..s {
                let (mut neg, mut rows) = (0.0f32, vec![0.0f32; mu]);
                let l = input.chunk(batch_start, c).len();
                if a < nb {
                    let sub = input.chunk(batch_start + a, c);
                    for &v in sub {
                        neg -= v;
                    }
                    for (t, row) in rows.iter_mut().enumerate().take(l - 1) {
                        *row = 2.0 * sub[l - 1 - t];
                    }
                }
                bank[(i << mu) * s + a] = neg;
                for (t, &row) in rows.iter().enumerate().take(l - 1) {
                    steps[i * mu * s + t * s + a] = row;
                }
            }
        }
    }

    /// The lane step gather at every level equals the scalar chain bit for
    /// bit — entry 0 and every step row, their padded lanes `+0.0` — and
    /// writes nothing else (the rest of both buffers keeps its sentinel).
    /// Batch widths straddle the 8- and 16-lane groups, the tile starts at a
    /// column and a chunk past 0, the last chunk is ragged (n ∤ µ), and
    /// µ = 12 (the width whose keys are `u16`) runs chunks longer than a lane
    /// group of 8.
    #[test]
    fn lane_step_gather_equals_the_scalar_chain() {
        const SENTINEL: u32 = 0x7fc5_a5a5;
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut g = MatrixRng::seed_from(229);
        for mu in [4usize, 8, 12] {
            let n = 5 * mu + 3;
            let total = n.div_ceil(mu);
            for nb in [5usize, 8, 9, 15, 16, 17, 31, 32, 33] {
                let b0 = 2;
                let x = g.gaussian_col(n, b0 + nb + 1, 0.0, 1.0);
                let input = ChunkedInput::new(&x, mu);
                for chunks in [0..total, 1..total, 2..4] {
                    let s = entry_stride(nb);
                    let len = [chunks.len() << mu, chunks.len() * mu].map(|per| per * s);
                    let fresh = || len.map(|l| vec![f32::from_bits(SENTINEL); l]);
                    let [mut bank, mut steps] = fresh();
                    steps_oracle(&mut bank, &mut steps, &input, chunks.clone(), b0, nb);
                    let want = [bits(&bank), bits(&steps)];
                    let cols = &x.as_slice()[b0 * n..];
                    for level in crate::simd::supported_levels() {
                        let k = KernelRequest::Exact(level).resolve().unwrap();
                        let [mut bank, mut steps] = fresh();
                        let range = chunks.clone();
                        simd::gather_key_major_steps(
                            &mut bank, &mut steps, cols, n, mu, range, nb, k,
                        );
                        let what = format!("level={level} µ={mu} nb={nb} chunks={chunks:?}");
                        assert_eq!(bits(&bank), want[0], "entry 0, {what}");
                        assert_eq!(bits(&steps), want[1], "step rows, {what}");
                    }
                }
            }
        }
    }

    fn exact(level: crate::simd::KernelLevel) -> ResolvedKernel {
        KernelRequest::Exact(level).resolve().unwrap()
    }

    /// Every tile width 1..=35 — column tables, and KeyMajor entry strides
    /// of 8, 16, 32 and 48 with every count of padded lanes — at every
    /// level, through the bank: each level equals the scalar level bit for
    /// bit, and each column equals its own one-column (b = 1) run. Output
    /// rows are strided past the tile (`y_stride > nb`); the floats between
    /// them hold a sentinel that must come back unchanged.
    #[test]
    fn every_width_matches_scalar_and_its_own_column() {
        const SENTINEL: u32 = 0x7fc5_a5a5;
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut g = MatrixRng::seed_from(230);
        let (rows, widest, b0) = (5usize, 35usize, 1usize);
        for mu in [4usize, 8] {
            let n = 9 * mu + 3; // the last chunk ragged
            let nc = n.div_ceil(mu);
            let x = g.gaussian_col(n, b0 + widest, 0.0, 1.0);
            let input = ChunkedInput::new(&x, mu);
            let km = KeyMatrix::pack(&g.signs(rows, n), mu);
            let keys = km.tile(0..rows, 0, nc);
            let scales = g.gaussian_vec(rows);
            for nb in 1..=widest {
                let y_stride = nb + 3;
                let y0: Vec<f32> = (0..rows * y_stride)
                    .map(|i| {
                        if i % y_stride < nb {
                            i as f32 * 0.25 - 3.0
                        } else {
                            f32::from_bits(SENTINEL)
                        }
                    })
                    .collect();
                let run = |k: ResolvedKernel| {
                    let mut bank = LutBank::new(mu);
                    build(&mut bank, &input, [0, nc, b0, nb], k);
                    let mut y = y0.clone();
                    for pass in 0..bank.passes() {
                        bank.query_rows(pass, keys, &scales, &mut y, y_stride, k);
                    }
                    bits(&y)
                };
                let want = run(sk());
                let what = format!("µ={mu} nb={nb}");
                for (i, &b) in want.iter().enumerate().filter(|(i, _)| i % y_stride >= nb) {
                    assert_eq!(b, SENTINEL, "{what}: gap float {i} written");
                }
                for a in 0..nb {
                    let mut bank = LutBank::new(mu);
                    build(&mut bank, &input, [0, nc, b0 + a, 1], sk());
                    let mut y: Vec<f32> = (0..rows).map(|i| y0[i * y_stride + a]).collect();
                    bank.query_rows(0, keys, &scales, &mut y, 1, sk());
                    let col: Vec<u32> = (0..rows).map(|i| want[i * y_stride + a]).collect();
                    assert_eq!(bits(&y), col, "{what}: column {a} vs its b = 1 run");
                }
                for level in crate::simd::supported_levels() {
                    assert_eq!(run(exact(level)), want, "{what} level={level} vs scalar");
                }
            }
        }
    }

    /// A built KeyMajor bank's padded lanes (`nb ≤ a < entry_stride(nb)`)
    /// are `±0.0` in every entry the build writes, at every level — also
    /// over a buffer that held NaNs before the build.
    #[test]
    fn built_padded_lanes_are_signed_zeros() {
        let mut g = MatrixRng::seed_from(231);
        let (mu, n, b0) = (4usize, 4 * 6 + 3usize, 2usize); // 7 chunks, the last of 3
        let nc = n.div_ceil(mu);
        let x = g.gaussian_col(n, b0 + 35, 0.0, 1.0);
        let input = ChunkedInput::new(&x, mu);
        for level in crate::simd::supported_levels() {
            for nb in COLUMN_TABLES_MAX + 1..=35 {
                let mut bank = LutBank::new(mu);
                bank.reserve(nc, nb);
                bank.data.as_mut_slice().fill(f32::NAN);
                bank.steps.fill(f32::NAN);
                build(&mut bank, &input, [0, nc, b0, nb], exact(level));
                let s = entry_stride(nb);
                for c in 0..nc {
                    for key in 0..1usize << input.chunk(b0, c).len() {
                        let pad = &bank.data.as_slice()[(c * 16 + key) * s..][nb..s];
                        assert!(
                            pad.iter().all(|&v| v == 0.0),
                            "level={level} nb={nb} chunk {c} key {key}: padding {pad:?}"
                        );
                    }
                }
                check_bank_contents(&bank, &input, 0, b0);
            }
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
        let mut bank = LutBank::new(8);
        assert_line_aligned(&bank.data, "new");
        bank.reserve(1, 3);
        assert_line_aligned(&bank.data, "reserve");
        assert!(bank.data.len() >= 256 * 3);
        // Growth through `build` (several reallocations, odd sizes, both
        // layouts), shrink to a small tile, then regrow past the high-water
        // mark.
        for (nc, nb) in [(2usize, 5usize), (4, 17), (1, 2), (8, 32), (3, 1), (8, 48)] {
            build(&mut bank, &input, [0, nc, 0, nb], sk());
            assert_line_aligned(&bank.data, "build");
            assert!(bank.data.len() >= nc * 256 * nb);
            check_bank_contents(&bank, &input, 0, 0);
        }
    }

    #[test]
    fn resident_bytes_formula() {
        // Column tables hold `nb` floats per entry, a KeyMajor bank its
        // padded entry stride.
        let x = ColMatrix::zeros(16, 9);
        let input = ChunkedInput::new(&x, 4);
        let mut bank = LutBank::new(4);
        for nb in [2, 9] {
            build(&mut bank, &input, [0, 4, 0, nb], sk());
            let lanes = if nb <= COLUMN_TABLES_MAX { nb } else { entry_stride(nb) };
            assert_eq!(bank.resident_bytes(), 4 * 16 * lanes * 4, "nb {nb}");
        }
    }
}
