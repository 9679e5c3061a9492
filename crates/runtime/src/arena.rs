//! The executor's reusable scratch memory.
//!
//! One [`Arena`] serves every backend family: BiQGEMM draws its LUT bank /
//! accumulator / DP steps from the embedded [`BiqArena`], the blocked dense
//! kernels reuse the input-pack panel, and all buffers grow monotonically —
//! after the first call at a given shape, repeat serial runs never touch
//! the allocator.

use biqgemm_core::planner::ScratchSpec;
use biqgemm_core::{BiqArena, BiqConfig, ParallelArena};

/// Reusable scratch shared by all [`crate::GemmBackend`] implementations.
#[derive(Debug, Default)]
pub struct Arena {
    /// BiQGEMM scratch: LUT bank, batch accumulator, DP step vectors.
    pub(crate) biq: BiqArena,
    /// Row-major input-pack panel for the blocked dense kernels.
    pub(crate) pack: Vec<f32>,
    /// Per-worker scratch pool for the parallel BiQGEMM drivers, created on
    /// first parallel run (sized to the rayon worker count at that moment).
    pub(crate) par: Option<ParallelArena>,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows the BiQGEMM buffers for `cfg` at batch `b` (so even the
    /// first run is allocation-free) and returns the scratch spec that was
    /// provisioned.
    pub fn warm_biq(&mut self, cfg: &BiqConfig, b: usize) -> ScratchSpec {
        self.biq.reserve(cfg, b);
        biqgemm_core::planner::scratch_spec(cfg, b)
    }

    /// Pre-grows the dense-kernel pack panel for an `n × b` input.
    pub fn warm_pack(&mut self, n: usize, b: usize) {
        if self.pack.len() < n * b {
            self.pack.resize(n * b, 0.0);
        }
    }

    /// Pre-grows every per-worker slot of the parallel scratch pool for
    /// runs of `cfg` at batch `b` over `bits` weight planes.
    pub fn warm_parallel(&mut self, cfg: &BiqConfig, bits: usize, b: usize) {
        self.par_pool().reserve(cfg, bits, b);
    }

    /// The parallel scratch pool, created lazily so arenas that only ever
    /// run serial plans never pay for the slots.
    pub(crate) fn par_pool(&mut self) -> &mut ParallelArena {
        self.par.get_or_insert_with(ParallelArena::with_current_threads)
    }

    /// Bytes of lookup-table data currently resident (serial bank plus
    /// every per-worker parallel bank).
    pub fn resident_lut_bytes(&self) -> usize {
        self.biq.resident_lut_bytes()
            + self.par.as_ref().map_or(0, ParallelArena::resident_lut_bytes)
    }

    /// Bytes of the dense input-pack panel.
    pub fn pack_bytes(&self) -> usize {
        self.pack.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_pack_grows_monotonically() {
        let mut a = Arena::new();
        a.warm_pack(8, 4);
        assert_eq!(a.pack_bytes(), 8 * 4 * 4);
        a.warm_pack(2, 2);
        assert_eq!(a.pack_bytes(), 8 * 4 * 4, "never shrinks");
    }

    #[test]
    fn warm_biq_reports_spec() {
        let mut a = Arena::new();
        let cfg = BiqConfig::default();
        let spec = a.warm_biq(&cfg, 4);
        assert_eq!(spec.dp_steps_floats, cfg.tile_chunks * cfg.mu * 4);
    }
}
