//! The backend-pluggable fully-connected layer — the single compute-bearing
//! primitive every model in this crate is built from (Fig. 1 of the paper).
//!
//! `forward` computes `Y = W·X (+ bias)` with `W : out × in` and activations
//! as column-major `features × batch`. Since the plan/executor refactor a
//! layer is a compiled runtime op plus a (shareable) executor:
//!
//! * the **plan** ([`biq_runtime::ExecutionPlan`]) decides the kernel family
//!   (fp32 naive/blocked, int8, xnor, BiQGEMM), µ, tile shapes and
//!   threading — built once at construction;
//! * the **compiled op** owns the packed weights (the dense matrix never
//!   ships for quantized layers, mirroring a real deployment);
//! * the **executor** owns the reusable scratch arenas (LUT bank,
//!   accumulators, pack panel). Models pass one [`SharedExecutor`] to all
//!   their layers so arenas are reused across layers and time-steps.
//!
//! The two convenience constructors ([`Linear::fp32`],
//! [`Linear::quantized`]) are thin shims over [`Linear::from_plan`]; each
//! creates a private executor, which is correct but forgoes cross-layer
//! arena sharing.

use biq_matrix::store::PodStore;
use biq_matrix::{ColMatrix, Matrix};
use biq_runtime::{
    compile, BackendSpec, CompiledOp, ExecutionPlan, PlanBuilder, SharedExecutor, Threading,
    WeightSource,
};
use biqgemm_core::simd::{run_at, LevelBody};
use biqgemm_core::BiqConfig;
use std::sync::Arc;

pub use biq_runtime::QuantMethod;

/// A fully-connected layer with optional bias.
///
/// `Clone` is cheap: the compiled op (packed weights) is reference-counted
/// and the executor handle is shared, so clones reuse both.
#[derive(Clone, Debug)]
pub struct Linear {
    op: Arc<CompiledOp>,
    exec: SharedExecutor,
    bias: Option<PodStore<f32>>,
}

impl Linear {
    /// The one true constructor: binds `plan` to `weights` and runs through
    /// `exec`. All other constructors are conveniences over this.
    ///
    /// # Panics
    /// Panics when the weight shape disagrees with the plan or
    /// `bias.len() != m`.
    pub fn from_plan(
        plan: &ExecutionPlan,
        weights: WeightSource<'_>,
        bias: Option<Vec<f32>>,
        exec: SharedExecutor,
    ) -> Self {
        let op = compile(plan, weights);
        Self::from_compiled_op(Arc::new(op), bias.map(PodStore::from), exec)
    }

    /// Wraps an already-compiled op (the artifact restore path: the op's
    /// packed weights and `bias` may both borrow a loaded file buffer).
    ///
    /// # Panics
    /// Panics when `bias.len() != m`.
    pub fn from_compiled_op(
        op: Arc<CompiledOp>,
        bias: Option<PodStore<f32>>,
        exec: SharedExecutor,
    ) -> Self {
        if let Some(b) = &bias {
            assert_eq!(b.len(), op.output_size(), "bias length must equal out_features");
        }
        exec.warm(&op);
        Self { op, exec, bias }
    }

    /// Full-precision layer (serial blocked GEMM).
    pub fn fp32(weight: Matrix, bias: Option<Vec<f32>>) -> Self {
        let (m, n) = weight.shape();
        let plan = PlanBuilder::new(m, n)
            .backend(BackendSpec::Fp32Blocked)
            .threading(Threading::Serial)
            .build();
        Self::from_plan(&plan, WeightSource::Dense(&weight), bias, SharedExecutor::new())
    }

    /// Quantizes `weight` to `bits` binary-coding planes and runs it through
    /// serial BiQGEMM with the explicit engine config `cfg`.
    pub fn quantized(
        weight: &Matrix,
        bits: usize,
        method: QuantMethod,
        cfg: BiqConfig,
        bias: Option<Vec<f32>>,
    ) -> Self {
        let (m, n) = weight.shape();
        let plan = PlanBuilder::new(m, n)
            .backend(BackendSpec::Biq { bits, method })
            .config(cfg)
            .threading(Threading::Serial)
            .build();
        Self::from_plan(&plan, WeightSource::Dense(weight), bias, SharedExecutor::new())
    }

    /// The layer bias, if any.
    pub fn bias(&self) -> Option<&[f32]> {
        self.bias.as_deref()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.op.output_size()
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.op.input_size()
    }

    /// The execution plan this layer was compiled from.
    pub fn plan(&self) -> &ExecutionPlan {
        self.op.plan()
    }

    /// The executor handle this layer runs through (share it with other
    /// layers to pool arenas).
    pub fn executor(&self) -> &SharedExecutor {
        &self.exec
    }

    /// The layer's compiled op, shared by reference count — the handle a
    /// serving layer registers (`biq_serve::ModelRegistry::register_linear`)
    /// so batched traffic runs against the same packed weights this layer
    /// forwards through. The op computes `W·X` only; bias stays with the
    /// layer.
    pub fn compiled_op(&self) -> Arc<CompiledOp> {
        Arc::clone(&self.op)
    }

    /// `Y = W·X (+ bias)`, activations column-major `in × batch`, output
    /// column-major `out × batch`.
    ///
    /// # Panics
    /// Panics if `x.rows() != in_features`.
    pub fn forward(&self, x: &ColMatrix) -> ColMatrix {
        assert_eq!(x.rows(), self.in_features(), "input feature mismatch");
        let y = self.exec.run(&self.op, x);
        self.to_columns(y.as_slice(), x.cols())
    }

    /// `[W_0; W_1; …] · x` (no bias) of layers that share the input `x`:
    /// their row-major outputs stacked, layer `i`'s rows after those of
    /// layers `0..i`. One executor run through the first layer's executor
    /// (`SharedExecutor::run_group`), which builds each LUT tile once for
    /// every layer when their plans agree; each layer's rows are the bits
    /// of its own run.
    ///
    /// # Panics
    /// Panics if `x.rows()` differs from a layer's `in_features`, or
    /// `layers` is empty.
    pub(crate) fn run_group(layers: &[&Linear], x: &ColMatrix) -> Matrix {
        for l in layers {
            assert_eq!(x.rows(), l.in_features(), "input feature mismatch");
        }
        let ops: Vec<&CompiledOp> = layers.iter().map(|l| &*l.op).collect();
        layers[0].exec.run_group(&ops, x)
    }

    /// Adds the bias, if any, to every row of this layer's row-major
    /// `out × b` output in place: `y[i·b + j] += bias[i]`, the same sum
    /// [`Linear::to_columns`] forms.
    pub(crate) fn add_bias_rows(&self, y: &mut [f32], b: usize) {
        if let (Some(bias), true) = (self.bias(), b > 0) {
            for (row, &bv) in y.chunks_exact_mut(b).zip(bias) {
                row.iter_mut().for_each(|v| *v += bv);
            }
        }
    }

    /// This layer's row-major `out × b` output `y` as a column-major
    /// activation, plus the bias: the transpose `forward` ends with. Runs
    /// as column regions on the plan's workers, each a row-blocked loop at
    /// the plan's kernel level ([`Transpose`]).
    pub(crate) fn to_columns(&self, y: &[f32], b: usize) -> ColMatrix {
        let m = self.out_features();
        let (kernel, bias) = (self.plan().kernel, self.bias());
        let mut out = ColMatrix::zeros(m, b);
        self.for_each_col_block(out.as_mut_slice(), m, |j0, cols| {
            run_at(kernel, Transpose { y, b, j0, bias, cols });
        });
        out
    }

    /// Runs `f(first_col, block)` over blocks of whole columns of the
    /// column-major buffer `data` (`rows` floats per column): on a parallel
    /// plan, split across its workers on this layer's executor's worker
    /// set; on a serial plan, as one block on the calling thread. Blocks
    /// partition independent columns, so an `f` that treats each column on
    /// its own computes the same bits for every worker count.
    pub(crate) fn for_each_col_block<F>(&self, data: &mut [f32], rows: usize, f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        let cols = data.len() / rows.max(1);
        match self.op.plan().workers {
            Some(workers) if cols > 1 => {
                // Two blocks per worker: a helper that wakes late leaves
                // the caller a block to take instead of a half to wait on.
                let per = cols.div_ceil(2 * workers);
                self.exec
                    .for_each_chunk_mut(data, per * rows, workers, |t, block| f(t * per, block));
            }
            _ => f(0, data),
        }
    }
}

/// The columns `j0..` of a row-major `m × b` output `y` written
/// column-major into `cols` (`m` floats per column), plus the bias:
/// `cols[(j − j0)·m + i] = y[i·b + j] (+ bias[i])`. Row-blocked: a block of
/// [`Transpose::ROWS`] source rows stays in L1 while every column takes its
/// slice of them, where a column-by-column pass over all `m` rows would
/// re-read each source line from L2 once per column.
struct Transpose<'a> {
    y: &'a [f32],
    b: usize,
    j0: usize,
    bias: Option<&'a [f32]>,
    cols: &'a mut [f32],
}

impl Transpose<'_> {
    /// Source rows per block.
    const ROWS: usize = 16;
}

impl LevelBody for Transpose<'_> {
    #[inline(always)]
    fn run(self) {
        let Transpose { y, b, j0, bias, cols } = self;
        let m = y.len() / b.max(1);
        for i0 in (0..m).step_by(Self::ROWS) {
            let i1 = m.min(i0 + Self::ROWS);
            for (j, col) in (j0..).zip(cols.chunks_exact_mut(m)) {
                let (col, src) = (&mut col[i0..i1], &y[i0 * b + j..]);
                match bias {
                    Some(bias) => {
                        for (i, (o, &bv)) in col.iter_mut().zip(&bias[i0..i1]).enumerate() {
                            *o = src[i * b] + bv;
                        }
                    }
                    None => col.iter_mut().enumerate().for_each(|(i, o)| *o = src[i * b]),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_matrix::MatrixRng;
    use biq_quant::error_metrics::relative_l2;

    #[test]
    fn fp32_forward_with_bias() {
        let w = Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        let l = Linear::fp32(w, Some(vec![10.0, 20.0]));
        let x = ColMatrix::from_column(vec![1.0, 2.0, 3.0]);
        let y = l.forward(&x);
        assert_eq!(y.col(0), &[11.0, 22.0]);
    }

    #[test]
    fn quantized_forward_tracks_fp32_within_quant_error() {
        let mut g = MatrixRng::seed_from(310);
        let w = g.gaussian(64, 128, 0.0, 0.05);
        let x = g.gaussian_col(128, 4, 0.0, 1.0);
        let fp = Linear::fp32(w.clone(), None);
        let y_fp = fp.forward(&x);
        let mut prev_err = f64::INFINITY;
        for bits in [1usize, 2, 3] {
            let lq = Linear::quantized(&w, bits, QuantMethod::Greedy, BiqConfig::default(), None);
            let y_q = lq.forward(&x);
            let err = relative_l2(y_q.as_slice(), y_fp.as_slice());
            assert!(err < prev_err, "error should fall with bits: {err} vs {prev_err}");
            prev_err = err;
        }
        // 3 greedy bits give ≈13 dB weight SQNR (relative weight error ≈0.22),
        // which propagates roughly 1:1 to the output of a single layer.
        assert!(prev_err < 0.3, "3-bit relative error {prev_err}");
    }

    #[test]
    fn alternating_no_worse_than_greedy_end_to_end() {
        let mut g = MatrixRng::seed_from(311);
        let w = g.gaussian(32, 96, 0.0, 1.0);
        let x = g.gaussian_col(96, 3, 0.0, 1.0);
        let y_fp = Linear::fp32(w.clone(), None).forward(&x);
        let yg =
            Linear::quantized(&w, 2, QuantMethod::Greedy, BiqConfig::default(), None).forward(&x);
        let ya = Linear::quantized(
            &w,
            2,
            QuantMethod::Alternating { iters: 10 },
            BiqConfig::default(),
            None,
        )
        .forward(&x);
        let eg = relative_l2(yg.as_slice(), y_fp.as_slice());
        let ea = relative_l2(ya.as_slice(), y_fp.as_slice());
        assert!(ea <= eg * 1.05, "alternating {ea} vs greedy {eg}");
    }

    #[test]
    fn parallel_variants_match_serial() {
        let mut g = MatrixRng::seed_from(312);
        let w = g.small_int_matrix(40, 60, 2);
        let x = g.small_int_col(60, 5, 2);
        let biq = BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy };
        for spec in [BackendSpec::Fp32Blocked, biq] {
            let run = |threading| {
                let plan = PlanBuilder::new(40, 60).backend(spec).threading(threading).build();
                let l =
                    Linear::from_plan(&plan, WeightSource::Dense(&w), None, SharedExecutor::new());
                l.forward(&x)
            };
            let (ys, yp) = (run(Threading::Serial), run(Threading::Parallel));
            assert_eq!(ys.as_slice(), yp.as_slice(), "{spec:?}");
        }
    }

    #[test]
    fn xnor_backend_runs_and_is_rough() {
        let mut g = MatrixRng::seed_from(313);
        let w = g.gaussian(32, 64, 0.0, 1.0);
        let x = g.gaussian_col(64, 2, 0.0, 1.0);
        let plan = PlanBuilder::new(32, 64).backend(BackendSpec::Xnor { bits: 1 }).build();
        let l = Linear::from_plan(&plan, WeightSource::Dense(&w), None, SharedExecutor::new());
        let y = l.forward(&x);
        assert_eq!(y.shape(), (32, 2));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn clones_share_the_executor_arena() {
        let mut g = MatrixRng::seed_from(314);
        let w = g.gaussian(8, 8, 0.0, 1.0);
        let x = g.gaussian_col(8, 1, 0.0, 1.0);
        let a = Linear::fp32(w, None);
        let b = a.clone();
        let _ = a.forward(&x);
        let _ = b.forward(&x);
        assert_eq!(a.executor().runs(), 2, "clone shares the executor");
    }

    #[test]
    fn from_plan_with_shared_executor_pools_arenas() {
        let mut g = MatrixRng::seed_from(315);
        let exec = SharedExecutor::new();
        let mk = |g: &mut MatrixRng, m: usize, n: usize, exec: &SharedExecutor| {
            let w = g.gaussian(m, n, 0.0, 1.0);
            let plan = PlanBuilder::new(m, n)
                .backend(BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy })
                .build();
            Linear::from_plan(&plan, WeightSource::Dense(&w), None, exec.clone())
        };
        let l1 = mk(&mut g, 16, 24, &exec);
        let l2 = mk(&mut g, 24, 16, &exec);
        let x = g.gaussian_col(24, 2, 0.0, 1.0);
        let h = l1.forward(&x);
        let _ = l2.forward(&h);
        assert_eq!(exec.runs(), 2, "both layers ran through one executor");
    }

    #[test]
    fn linear_stays_send_and_sync() {
        // A serving layer moves models across threads; the executor handle
        // (Arc<Mutex>) and Arc'd compiled op must keep that possible.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Linear>();
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn bad_bias_rejected() {
        let w = Matrix::zeros(2, 2);
        let _ = Linear::fp32(w, Some(vec![0.0; 3]));
    }

    #[test]
    #[should_panic(expected = "input feature mismatch")]
    fn bad_input_rejected() {
        let w = Matrix::zeros(2, 4);
        let l = Linear::fp32(w, None);
        let _ = l.forward(&ColMatrix::zeros(3, 1));
    }
}
