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
//! * **KeyMajor** (paper Fig. 6, wider tiles): `data[(c·2^µ + key)·nb + a]`
//!   — one lookup yields a contiguous batch vector, so the fused query
//!   ([`simd::lut_query_fused_rows`]) accumulates whole lane groups.
//!   Building gathers each chunk's sub-vector values across the batch
//!   stride — that movement is charged to the **replace** phase.
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

/// The widest LUT tile that builds column tables; wider tiles build the
/// Fig. 6 KeyMajor bank. Measured, not derived, with the column-outer
/// query and AVX-512's ymm remainders: 2-bit serial runs at 512²,
/// 2048×512 and 512×2048 on AVX2 and AVX-512 (alternating blocks, low
/// decile, two runs) found column tables faster in all 12 cells at b = 4
/// (0.84–0.99× KeyMajor's time) and slower in 10 of 12 at b = 5, so the
/// bound is the same on both levels — the table is in the crate README,
/// "Known cliffs". ROADMAP item 15's cost model replaces it.
pub const COLUMN_TABLES_MAX: usize = 4;

/// Whether a tile of `nb` batch columns builds column tables.
#[inline]
fn column_tables(nb: usize) -> bool {
    nb <= COLUMN_TABLES_MAX
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
        self.data.ensure_len(num_chunks * self.table * nb);
        self.reserve_steps(num_chunks, nb);
    }

    /// Step vectors for a whole KeyMajor tile: `µ × nb` floats per chunk.
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
        self.data.ensure_len(num_chunks * self.table * nb);
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
    /// resident tile: table entries are contiguous `nb`-vectors, and the
    /// DP recurrence (`q[2^t + j] = q[j] + 2·x_{L−1−t}`) becomes a vector
    /// add per entry. The strided gather of sub-vector values across batch
    /// columns is the residual "replace" (tiling data-movement) cost. Both
    /// phases run over the whole tile under one timing scope each.
    fn build_key_major(
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
            let bank = &data[..self.num_chunks * table * nb];
            simd::lut_query_fused_rows(y, y_stride, scales, bank, table, nb, keys, k);
        }
    }

    /// Bytes of live table data.
    pub fn resident_bytes(&self) -> usize {
        self.num_chunks * self.table * self.nb * 4
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
        let off =
            if column_tables(nb) { (a * nc + c) * table + key } else { (c * table + key) * nb + a };
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
                    (0..16).map(|key| data[(c * 16 + key) * nb + a]).collect()
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
        let x = ColMatrix::zeros(16, 2);
        let input = ChunkedInput::new(&x, 4);
        let mut bank = LutBank::new(4);
        build(&mut bank, &input, [0, 4, 0, 2], sk());
        assert_eq!(bank.resident_bytes(), 4 * 16 * 2 * 4);
    }
}
