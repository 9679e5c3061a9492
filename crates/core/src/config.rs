//! Runtime configuration of the BiQGEMM engine.

use crate::simd::KernelRequest;

/// How lookup tables are filled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LutBuildMethod {
    /// Algorithm 1 dynamic programming (`≈ 2^µ + µ − 1` ops/table). The
    /// right choice on CPUs (paper Section III-B).
    DynamicProgramming,
    /// Brute-force `M_µ · x` products (`2^µ · µ` ops/table) — the Fig. 4(a)
    /// construction the paper recommends for very wide-SIMD machines; kept
    /// for the ablation benchmark.
    Gemm,
}

/// Physical layout of a bank of lookup tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LutLayout {
    /// `[chunk][key][batch]` — entries sharing a key are contiguous across
    /// the batch (the paper's Fig. 6 arrangement). One lookup loads a
    /// contiguous `b`-vector, so the accumulate loop vectorises.
    KeyMajor,
    /// `[chunk][batch][key]` — each `(chunk, batch)` table is contiguous,
    /// which is the natural order the DP builder produces. Cheaper to build
    /// (no scatter), slower to query for `b > 1`. Kept for the ablation.
    BatchMajor,
}

/// Thread scheduling strategy for the parallel driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Split output rows across threads; every thread builds its own copy of
    /// each LUT tile. No barriers; build work is replicated `T×`. Wins when
    /// `m` is large relative to `2^µ · n/µ`.
    RowParallel,
    /// Two-phase per chunk tile: build the tile's tables once (parallel over
    /// chunks), then query (parallel over row tiles). No replicated work;
    /// one barrier per tile.
    SharedLut,
}

/// Full engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct BiqConfig {
    /// LUT-unit µ (sub-vector length, 1..=16). The paper finds µ = 8
    /// empirically optimal across its machines.
    pub mu: usize,
    /// Rows of the key matrix per tile (`h_t` in Fig. 7).
    pub tile_rows: usize,
    /// Key-matrix columns (chunks) per tile (`w_t` in Fig. 7).
    pub tile_chunks: usize,
    /// Batch columns processed per LUT bank, bounding live-table bytes.
    pub tile_batch: usize,
    /// Table construction method.
    pub build: LutBuildMethod,
    /// Table layout.
    pub layout: LutLayout,
    /// Parallel schedule (used by `biqgemm_into` when its plan is parallel).
    pub schedule: Schedule,
    /// Which kernel level to run the hot loops at. This is a *request*
    /// (the successor of the old `simd: bool` toggle): plan builders
    /// resolve it exactly once into a pinned
    /// [`crate::simd::ResolvedKernel`]; the kernels themselves take the
    /// resolved level and never probe CPU features. `Auto` (the default)
    /// resolves to the host's best level, `Exact(KernelLevel::Scalar)` is
    /// the old `simd: false` ablation.
    pub kernel: KernelRequest,
}

impl Default for BiqConfig {
    /// The paper's empirical sweet spot: µ = 8, modest tiles sized so a LUT
    /// tile (`tile_chunks · 2^µ · tile_batch · 4 B = 1 MB` at the defaults)
    /// stays within a typical L2.
    fn default() -> Self {
        Self {
            mu: 8,
            tile_rows: 64,
            tile_chunks: 32,
            tile_batch: 32,
            build: LutBuildMethod::DynamicProgramming,
            layout: LutLayout::KeyMajor,
            schedule: Schedule::RowParallel,
            kernel: KernelRequest::Auto,
        }
    }
}

impl BiqConfig {
    /// Convenience: default config with a different µ.
    pub fn with_mu(mu: usize) -> Self {
        Self { mu, ..Self::default() }
    }

    /// Bytes of live lookup tables implied by this config
    /// (`tile_chunks · 2^µ · tile_batch · 4`).
    pub fn lut_tile_bytes(&self) -> usize {
        self.tile_chunks * (1usize << self.mu) * self.tile_batch * 4
    }

    /// This config with `tile_chunks` capped at the `⌈n/µ⌉` chunks an
    /// `n`-wide input has. The tile loops walk `tile_ranges(chunks,
    /// tile_chunks)`, so a larger cap runs exactly like this one; scratch
    /// sized from the fitted config holds tables for chunks that exist,
    /// whatever cap a caller or a stored artifact names.
    pub fn fitted_to(&self, n: usize) -> Self {
        Self { tile_chunks: self.tile_chunks.min(n.div_ceil(self.mu)), ..*self }
    }

    /// Validates invariants, panicking with a clear message on misuse.
    ///
    /// # Panics
    /// Panics when µ is out of `1..=16` or any tile dimension is zero.
    pub fn validate(&self) {
        assert!((1..=16).contains(&self.mu), "µ must be in 1..=16, got {}", self.mu);
        assert!(self.tile_rows > 0, "tile_rows must be positive");
        assert!(self.tile_chunks > 0, "tile_chunks must be positive");
        assert!(self.tile_batch > 0, "tile_batch must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_sweet_spot() {
        let c = BiqConfig::default();
        assert_eq!(c.mu, 8);
        assert_eq!(c.build, LutBuildMethod::DynamicProgramming);
        assert_eq!(c.layout, LutLayout::KeyMajor);
        assert_eq!(c.kernel, KernelRequest::Auto);
        c.validate();
    }

    #[test]
    fn lut_tile_bytes_formula() {
        let c = BiqConfig { mu: 8, tile_chunks: 32, tile_batch: 32, ..BiqConfig::default() };
        assert_eq!(c.lut_tile_bytes(), 32 * 256 * 32 * 4);
    }

    #[test]
    fn fitted_to_caps_tile_chunks_at_the_chunk_count() {
        let c = BiqConfig::default(); // µ = 8, 32 chunks per tile
        assert_eq!(c.fitted_to(64).tile_chunks, 8);
        assert_eq!(c.fitted_to(65).tile_chunks, 9, "a ragged chunk counts");
        assert_eq!(c.fitted_to(4096).tile_chunks, 32, "a cap below the count stays");
        let huge = BiqConfig { tile_chunks: u32::MAX as usize, ..c };
        assert_eq!(huge.fitted_to(21).tile_chunks, 3);
    }

    #[test]
    #[should_panic(expected = "µ must be in 1..=16")]
    fn validate_rejects_bad_mu() {
        BiqConfig { mu: 0, ..BiqConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "tile_rows must be positive")]
    fn validate_rejects_zero_tile() {
        BiqConfig { tile_rows: 0, ..BiqConfig::default() }.validate();
    }
}
