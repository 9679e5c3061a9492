//! Seeded synthetic workloads (paper Section IV-A: "synthetic matrices
//! filled by random numbers").

use biq_matrix::{ColMatrix, MatrixRng, SignMatrix};
use biq_runtime::{
    compile, BackendSpec, CompiledOp, Executor, PlanBuilder, QuantMethod, Threading, WeightSource,
};
use biqgemm_core::BiqConfig;

/// Deterministic seed derived from a workload shape, so every experiment
/// binary regenerates identical data for identical parameters.
pub fn shape_seed(m: usize, n: usize, b: usize) -> u64 {
    // Small FNV-style mix; collisions are harmless (different data, same
    // distribution) but determinism per shape matters.
    let mut h: u64 = 0xcbf29ce484222325;
    for v in [m as u64, n as u64, b as u64] {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A binary weight matrix and fp32 activations for one runtime experiment.
pub struct BinaryWorkload {
    /// `m × n` signs.
    pub signs: SignMatrix,
    /// `n × b` activations.
    pub x: ColMatrix,
}

/// Generates the standard workload for shape `(m, n, b)`.
pub fn binary_workload(m: usize, n: usize, b: usize) -> BinaryWorkload {
    let mut g = MatrixRng::seed_from(shape_seed(m, n, b));
    BinaryWorkload { signs: g.signs(m, n), x: g.gaussian_col(n, b, 0.0, 1.0) }
}

/// A BiQGEMM op over `bits`-plane `m × n` `weights` under exactly `cfg`
/// (the experiments sweep configs), planned for batch `b`, with the
/// executor that runs it warmed.
/// `workers`: `None` plans serial, `Some(n)` parallel on `n` workers.
pub fn biq_op(
    weights: WeightSource<'_>,
    (m, n, bits): (usize, usize, usize),
    b: usize,
    cfg: BiqConfig,
    workers: Option<usize>,
) -> (CompiledOp, Executor) {
    let builder = PlanBuilder::new(m, n)
        .batch_hint(b)
        .backend(BackendSpec::Biq { bits, method: QuantMethod::Greedy })
        .config(cfg);
    let plan = match workers {
        None => builder.threading(Threading::Serial),
        Some(n) => builder.threads(n).threading(Threading::Parallel),
    }
    .build();
    let op = compile(&plan, weights);
    let exec = Executor::warmed_for(&op);
    (op, exec)
}

/// Gaussian fp32 weights for quantization-quality experiments.
pub fn gaussian_weights(m: usize, n: usize, seed: u64) -> biq_matrix::Matrix {
    MatrixRng::seed_from(seed).gaussian(m, n, 0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_shape_sensitive() {
        assert_ne!(shape_seed(1, 2, 3), shape_seed(3, 2, 1));
        assert_eq!(shape_seed(512, 1024, 32), shape_seed(512, 1024, 32));
    }

    #[test]
    fn workload_shapes() {
        let w = binary_workload(8, 16, 4);
        assert_eq!(w.signs.shape(), (8, 16));
        assert_eq!(w.x.shape(), (16, 4));
    }

    #[test]
    fn workload_is_deterministic() {
        let a = binary_workload(4, 8, 2);
        let b = binary_workload(4, 8, 2);
        assert_eq!(a.signs, b.signs);
        assert_eq!(a.x, b.x);
    }
}
