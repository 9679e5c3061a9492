//! The executor's reusable scratch memory.
//!
//! One [`Arena`] serves every backend family: BiQGEMM draws its LUT banks
//! and DP steps (the calling thread's, and every parallel worker's) from
//! the embedded [`BiqArena`], whose worker set also runs the parallel
//! dense kernels; the blocked dense kernels reuse the input-pack panel, and
//! all buffers grow monotonically — after the first call at a given shape,
//! repeat runs never touch the allocator.

use biqgemm_core::BiqArena;

/// Reusable scratch shared by every kernel family a [`crate::CompiledOp`] runs.
#[derive(Debug, Default)]
pub struct Arena {
    /// BiQGEMM scratch, serial and parallel.
    pub(crate) biq: BiqArena,
    /// Row-major input-pack panel for the blocked dense kernels.
    pub(crate) pack: Vec<f32>,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows the dense-kernel pack panel for an `n × b` input.
    pub fn warm_pack(&mut self, n: usize, b: usize) {
        if self.pack.len() < n * b {
            self.pack.resize(n * b, 0.0);
        }
    }

    /// Bytes of lookup-table data currently resident (the serial bank and
    /// every parallel worker's).
    pub fn resident_lut_bytes(&self) -> usize {
        self.biq.resident_lut_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_pack_grows_monotonically() {
        let mut a = Arena::new();
        a.warm_pack(8, 4);
        assert_eq!(a.pack.len(), 8 * 4);
        a.warm_pack(2, 2);
        assert_eq!(a.pack.len(), 8 * 4, "never shrinks");
    }
}
