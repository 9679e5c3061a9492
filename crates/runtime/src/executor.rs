//! The stateful runner: one [`Executor`] owns the arena every compiled op
//! draws scratch from.
//!
//! An executor is deliberately *not* tied to one operator: a model holds a
//! single executor and runs all of its layers' [`CompiledOp`]s through it,
//! so the LUT bank, accumulators and pack panel warm to the largest layer
//! and are reused across layers and time-steps. [`SharedExecutor`] is the
//! cheaply cloneable handle layers hold for exactly that pattern.

use crate::arena::Arena;
use crate::backends::{execute_group, CompiledOp};
use biq_matrix::{ColMatrix, Matrix};
use biqgemm_core::{PhaseProfile, WorkerSet};
use std::sync::{Arc, Mutex};

/// Runs compiled ops against a reusable [`Arena`].
#[derive(Debug, Default)]
pub struct Executor {
    arena: Arena,
    profile: PhaseProfile,
    runs: u64,
}

impl Executor {
    /// A fresh executor with an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An executor pre-warmed for `op` at its plan's batch hint, so even
    /// the first [`Executor::run_into`] is allocation-free on serial plans.
    pub fn warmed_for(op: &CompiledOp) -> Self {
        let mut e = Self::new();
        e.warm(op);
        e
    }

    /// Pre-grows the arena for `op` at the plan's batch hint — only the
    /// buffers the op's backend family actually draws (LUT scratch for
    /// BiQGEMM plans, the pack panel for blocked dense plans).
    pub fn warm(&mut self, op: &CompiledOp) {
        self.warm_batch(op, op.plan().batch_hint);
    }

    /// Like [`Executor::warm`] but provisioning for batch `b` instead of
    /// the plan's hint. Serving layers warm each worker to the largest
    /// batch the batcher may pack so even the first full-window batch is
    /// allocation-free.
    pub fn warm_batch(&mut self, op: &CompiledOp, b: usize) {
        let plan = op.plan();
        match plan.spec {
            crate::plan::BackendSpec::Biq { .. } => {
                // One bank for a serial plan, one per worker of a parallel
                // plan — the plan's count, so the slots exist before the
                // first run — each sized for the chunks the input has.
                self.arena.biq.reserve(&plan.cfg.fitted_to(plan.n), b, plan.workers);
            }
            crate::plan::BackendSpec::Fp32Blocked => {
                self.arena.warm_pack(plan.n, b);
            }
            // Naive, int8, xnor draw nothing here.
            _ => {}
        }
    }

    /// `Y = W · X` into a fresh row-major matrix.
    pub fn run(&mut self, op: &CompiledOp, x: &ColMatrix) -> Matrix {
        self.run_group(&[op], x)
    }

    /// `Y = W · X` into a caller-provided row-major `m × b` buffer
    /// (overwritten): the one-op case of [`Executor::run_group_into`].
    /// Once the arena has warmed to the shape (and, on a parallel plan, the
    /// worker set has its helpers) this is the allocation-free steady-state
    /// path.
    ///
    /// # Panics
    /// Panics if `x.rows() != op.input_size()` or `y.len() != m·b`.
    pub fn run_into(&mut self, op: &CompiledOp, x: &ColMatrix, y: &mut [f32]) {
        self.run_group_into(&[op], x, y)
    }

    /// `Y = [W_0; W_1; …] · X` for ops that share the input `x` into a fresh
    /// row-major matrix: op `i`'s `m_i` rows follow those of ops `0..i`
    /// (see [`Executor::run_group_into`]).
    pub fn run_group(&mut self, ops: &[&CompiledOp], x: &ColMatrix) -> Matrix {
        let rows = ops.iter().map(|op| op.output_size()).sum();
        let mut y = Matrix::zeros(rows, x.cols());
        self.run_group_into(ops, x, y.as_mut_slice());
        y
    }

    /// Runs ops that share the input `x` into one stacked row-major buffer
    /// (op `i`'s `m_i × b` rows after those of ops `0..i`, overwritten) —
    /// an attention block's Q/K/V. BiQ ops whose plans agree on everything
    /// but `m` (µ, tiles, resolved level, workers)
    /// run as **one** grouped run, which builds each LUT tile once for all
    /// their rows; any other list runs op by op. Each
    /// op's rows are bit-identical to a run of that op alone, and each op
    /// counts as one run. Allocation-free once the arena has warmed to
    /// every op's shape.
    ///
    /// # Panics
    /// Panics if an op's input size differs from `x.rows()` or `y` does not
    /// hold `Σ m_i · b` floats.
    pub fn run_group_into(&mut self, ops: &[&CompiledOp], x: &ColMatrix, y: &mut [f32]) {
        for op in ops {
            assert_eq!(x.rows(), op.input_size(), "inner dimension mismatch");
        }
        let rows: usize = ops.iter().map(|op| op.output_size()).sum();
        assert_eq!(y.len(), rows * x.cols(), "output buffer must hold m·b floats");
        self.runs += ops.len() as u64;
        // One span per executor pass, not per phase — disabled tracing
        // costs a single relaxed load here.
        let _span = biq_obs::span!("exec.run");
        execute_group(ops, x, &mut self.arena, &mut self.profile, y);
    }

    /// The worker set this executor's parallel plans run on: its helpers
    /// start with the first parallel run and are joined when the executor
    /// drops.
    pub fn workers(&self) -> &WorkerSet {
        self.arena.biq.workers()
    }

    /// Accumulated phase profile over every run (build / query / replace).
    pub fn profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Clears the accumulated profile.
    pub fn reset_profile(&mut self) {
        self.profile = PhaseProfile::new();
    }

    /// Number of ops executed.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The arena (for capacity inspection).
    pub fn arena(&self) -> &Arena {
        &self.arena
    }
}

/// A cheaply cloneable executor handle for sharing one arena across the
/// layers of a model (clones share state; `Clone` is a handle copy).
///
/// Backed by `Arc<Mutex>` so layers — and the models holding them — stay
/// `Send + Sync`: a serving layer can move models across threads or give
/// each worker its own clone-of-model with a fresh handle. The lock is
/// uncontended in the workspace's forward passes (one thread walks the
/// layers; kernels parallelise internally) and its cost is noise next to a
/// matmul.
///
/// # Contention hazard
///
/// The mutex serialises **every** run through the handle: N threads
/// hammering one `SharedExecutor` time-slice a single arena and get no
/// concurrency at all — each caller blocks for the full duration of every
/// other caller's matmul. This is by design (one arena, one run at a time),
/// but it makes a shared handle the wrong tool for concurrent traffic. The
/// sanctioned concurrent path is one **owned** [`Executor`] per worker
/// thread, which is exactly what the `biq_serve` worker pool does.
#[derive(Clone, Debug, Default)]
pub struct SharedExecutor(Arc<Mutex<Executor>>);

impl SharedExecutor {
    /// A fresh executor behind a shared handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `op` through the shared executor (see [`Executor::run`]).
    ///
    /// # Panics
    /// Panics if the executor lock was poisoned by a panicking run.
    pub fn run(&self, op: &CompiledOp, x: &ColMatrix) -> Matrix {
        self.lock().run(op, x)
    }

    /// Runs `op` into a caller buffer (see [`Executor::run_into`]).
    pub fn run_into(&self, op: &CompiledOp, x: &ColMatrix, y: &mut [f32]) {
        self.lock().run_into(op, x, y)
    }

    /// Runs ops that share the input `x` through the shared executor (see
    /// [`Executor::run_group`]).
    pub fn run_group(&self, ops: &[&CompiledOp], x: &ColMatrix) -> Matrix {
        self.lock().run_group(ops, x)
    }

    /// Pre-grows the shared arena for `op`.
    pub fn warm(&self, op: &CompiledOp) {
        self.lock().warm(op)
    }

    /// Runs a region on the shared executor's worker set (see
    /// [`WorkerSet::for_each_chunk_mut`]), holding the executor for its
    /// duration — how a model's non-GEMM work runs on the same threads as
    /// its parallel plans.
    pub fn for_each_chunk_mut<T, F>(&self, slice: &mut [T], chunk_size: usize, workers: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.lock().workers().for_each_chunk_mut(slice, chunk_size, workers, f)
    }

    /// Number of ops executed through this handle's executor.
    pub fn runs(&self) -> u64 {
        self.lock().runs()
    }

    /// Snapshot of the accumulated phase profile.
    pub fn profile(&self) -> PhaseProfile {
        *self.lock().profile()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Executor> {
        self.0.lock().expect("executor lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{compile, WeightSource};
    use crate::plan::{BackendSpec, PlanBuilder, QuantMethod};
    use biq_matrix::MatrixRng;

    #[test]
    fn repeat_runs_are_bit_identical() {
        let mut g = MatrixRng::seed_from(95);
        let signs = g.signs(40, 64);
        let x = g.small_int_col(64, 4, 3);
        let plan = PlanBuilder::new(40, 64)
            .batch_hint(4)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .build();
        let op = compile(&plan, WeightSource::Signs(&signs));
        let mut exec = Executor::new();
        let y1 = exec.run(&op, &x);
        let y2 = exec.run(&op, &x);
        assert_eq!(y1.as_slice(), y2.as_slice());
        assert_eq!(exec.runs(), 2);
        assert!(exec.profile().query > std::time::Duration::ZERO);
    }

    #[test]
    fn one_executor_serves_ops_of_different_shapes() {
        let mut g = MatrixRng::seed_from(96);
        let mut exec = Executor::new();
        for (m, n, b) in [(16usize, 24usize, 2usize), (48, 16, 1), (8, 80, 5)] {
            let w = g.gaussian(m, n, 0.0, 1.0);
            let x = g.gaussian_col(n, b, 0.0, 1.0);
            let plan =
                PlanBuilder::new(m, n).batch_hint(b).backend(BackendSpec::Fp32Blocked).build();
            let op = compile(&plan, WeightSource::Dense(&w));
            let y = exec.run(&op, &x);
            assert_eq!(y.shape(), (m, b));
        }
        assert_eq!(exec.runs(), 3);
    }

    #[test]
    fn shared_handle_shares_state() {
        let mut g = MatrixRng::seed_from(97);
        let w = g.gaussian(8, 8, 0.0, 1.0);
        let x = g.gaussian_col(8, 1, 0.0, 1.0);
        let plan = PlanBuilder::new(8, 8).backend(BackendSpec::Fp32Naive).build();
        let op = compile(&plan, WeightSource::Dense(&w));
        let a = SharedExecutor::new();
        let b = a.clone();
        let _ = a.run(&op, &x);
        let _ = b.run(&op, &x);
        assert_eq!(a.runs(), 2, "clones share one executor");
    }

    #[test]
    fn warm_batch_provisions_beyond_the_plan_hint() {
        let mut g = MatrixRng::seed_from(100);
        let signs = g.signs(64, 128);
        let plan = PlanBuilder::new(64, 128)
            .batch_hint(1)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .threading(biqgemm_core::planner::Threading::Serial)
            .build();
        let op = compile(&plan, WeightSource::Signs(&signs));
        let mut exec = Executor::new();
        exec.warm_batch(&op, 16);
        let x = g.small_int_col(128, 16, 2);
        let y = exec.run(&op, &x);
        assert_eq!(y.shape(), (64, 16));
    }

    #[test]
    fn warmed_executor_reports_resident_lut() {
        let mut g = MatrixRng::seed_from(98);
        let signs = g.signs(64, 128);
        let plan = PlanBuilder::new(64, 128)
            .batch_hint(2)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .build();
        let op = compile(&plan, WeightSource::Signs(&signs));
        let exec = Executor::warmed_for(&op);
        // The bank itself materialises on first build; warm() only sizes
        // the accumulator — resident bytes may still be zero here.
        let _ = exec.arena().resident_lut_bytes();
    }
}
