//! [`CompiledOp`] — an [`ExecutionPlan`] bound to one kernel family's
//! packed weights, and [`compile`], which builds it.
//!
//! `compile` performs all one-time work (quantization, key packing,
//! int8/xnor packing) and hands the resulting [`PackedPayload`] to
//! [`CompiledOp::new`], so executing the op is pure compute. An op writes
//! into a caller-provided row-major `m × b` buffer and draws scratch from
//! the executor's [`Arena`]; the serial BiQGEMM and dense paths are
//! allocation-free once the arena has warmed.

use crate::arena::Arena;
use crate::plan::{BackendSpec, ExecutionPlan, QuantMethod};
use biq_gemm::int8::{Int8Phases, Int8Weights};
use biq_gemm::xnor::{xnor_gemm, XnorWeights};
use biq_gemm::{gemm_blocked_into, gemm_naive_into, par_gemm_blocked_into};
use biq_matrix::{ColMatrix, Matrix, SignMatrix};
use biq_quant::alternating::alternating_quantize_matrix_rowwise;
use biq_quant::{greedy_quantize_matrix_rowwise, MultiBitMatrix};
use biqgemm_core::{biqgemm_group_into, biqgemm_into, BiqConfig, BiqWeights, PhaseProfile};

/// A compiled op's packed weights, one variant per kernel family's storage
/// format — what a model artifact serializes, and what
/// [`CompiledOp::new`] binds back to a plan without re-quantizing.
#[derive(Clone, Debug)]
pub enum PackedPayload {
    /// Dense fp32 weights (fp32 naive/blocked plans).
    Dense(Matrix),
    /// Offline-quantized int8 weights.
    Int8(Int8Weights),
    /// Per-bit-plane packed XNOR weights.
    Xnor(XnorWeights),
    /// BiQGEMM key matrix + stacked scales.
    Biq(BiqWeights),
}

/// Most ops one grouped BiQGEMM run takes (an attention block's Q/K/V is
/// three); longer lists run as consecutive groups of this many.
const MAX_GROUP: usize = 4;

/// `Y = [W_0; W_1; …] · X` for ops that share the input `x`, into `y`:
/// the ops' row-major outputs stacked, op `i`'s `m_i × b` rows after those
/// of ops `0..i`. Ops that [`biq_group`] accepts run as one grouped
/// BiQGEMM run (`biqgemm_group_into`: one LUT build per tile serves every
/// op's rows); any other list runs op by op. Either way each op's rows are
/// bit-identical to its own `execute`.
pub(crate) fn execute_group(
    ops: &[&CompiledOp],
    x: &ColMatrix,
    arena: &mut Arena,
    profile: &mut PhaseProfile,
    y: &mut [f32],
) {
    let mut rest = y;
    for group in ops.chunks(MAX_GROUP) {
        let rows: usize = group.iter().map(|op| op.output_size()).sum();
        let (yg, tail) = rest.split_at_mut(rows * x.cols());
        rest = tail;
        if let Some(ws) = biq_group(group) {
            let plan = group[0].plan();
            let ws = &ws[..group.len()];
            biqgemm_group_into(
                ws,
                x,
                &plan.cfg,
                plan.kernel,
                plan.workers,
                profile,
                &mut arena.biq,
                yg,
            );
            continue;
        }
        let mut rest = yg;
        for op in group {
            let (yo, tail) = rest.split_at_mut(op.output_size() * x.cols());
            op.execute(x, arena, profile, yo);
            rest = tail;
        }
    }
}

/// The weights of `ops` when they can run as one grouped BiQGEMM run: every
/// op is a BiQ op and every plan agrees with the first on the config (µ,
/// tiles), the resolved kernel level and the worker count — everything a
/// run shares except `m` (and `n`, which the shared input already fixes).
/// The config's kernel *request* may differ where the resolved level
/// agrees. At most [`MAX_GROUP`] ops; the array's tail past `ops.len()`
/// repeats the first op's weights.
pub(crate) fn biq_group<'a>(ops: &[&'a CompiledOp]) -> Option<[&'a BiqWeights; MAX_GROUP]> {
    let (first, _) = ops.split_first()?;
    if ops.len() > MAX_GROUP {
        return None;
    }
    let biq = |op: &'a CompiledOp| match op.payload() {
        PackedPayload::Biq(w) => Some(w),
        _ => None,
    };
    let p0 = first.plan();
    let mut ws = [biq(first)?; MAX_GROUP];
    for (slot, op) in ws.iter_mut().zip(ops) {
        let p = op.plan();
        let agree = p.cfg == BiqConfig { kernel: p.cfg.kernel, ..p0.cfg }
            && p.kernel == p0.kernel
            && p.workers == p0.workers;
        *slot = biq(op).filter(|_| agree)?;
    }
    Some(ws)
}

/// Where an op's weights come from at compile time.
pub enum WeightSource<'a> {
    /// Dense fp32 weights (quantized by `compile` when the spec needs it).
    Dense(&'a Matrix),
    /// Pre-quantized binary-coding planes.
    Quantized(&'a MultiBitMatrix),
    /// A raw sign matrix with unit scales (1-bit, the paper's runtime
    /// experiments).
    Signs(&'a SignMatrix),
    /// Pre-packed BiQGEMM weights, bound as they are
    /// ([`CompiledOp::new`] with [`PackedPayload::Biq`]). Only valid for
    /// [`BackendSpec::Biq`]; the plan's µ must match the packing.
    Packed(BiqWeights),
}

/// An [`ExecutionPlan`] bound to packed weights — ready for any
/// [`crate::Executor`]. The plan is the one record of the op's kernel
/// family, config, kernel level and worker count; the payload holds only
/// weights.
pub struct CompiledOp {
    plan: ExecutionPlan,
    payload: PackedPayload,
}

impl CompiledOp {
    /// Binds `plan` to already-packed weights (a deserialized deployment,
    /// or [`compile`]'s output) without re-quantizing: the one place a
    /// plan and its weights are checked against each other.
    ///
    /// # Panics
    /// Panics when the payload's kernel family is not the one the plan's
    /// spec names, when its shape disagrees with the plan, or when its
    /// bit count (XNOR, BiQGEMM) or µ (BiQGEMM) does — an op whose plan
    /// disagreed with its payload would snapshot to an artifact that can
    /// never be restored.
    pub fn new(plan: ExecutionPlan, payload: PackedPayload) -> Self {
        let (m, n) = match (plan.spec, &payload) {
            (BackendSpec::Fp32Naive | BackendSpec::Fp32Blocked, PackedPayload::Dense(w)) => {
                w.shape()
            }
            (BackendSpec::Int8, PackedPayload::Int8(w)) => (w.rows(), w.cols()),
            (BackendSpec::Xnor { bits }, PackedPayload::Xnor(w)) => {
                assert_eq!(
                    w.bits(),
                    bits,
                    "packed XNOR planes carry {} bits, plan expects {bits}",
                    w.bits()
                );
                (w.rows(), w.cols())
            }
            (BackendSpec::Biq { bits, .. }, PackedPayload::Biq(w)) => {
                assert_eq!(
                    w.mu(),
                    plan.cfg.mu,
                    "packed weights use µ = {}, plan expects µ = {}",
                    w.mu(),
                    plan.cfg.mu
                );
                assert_eq!(
                    w.bits(),
                    bits,
                    "packed weights carry {} bits, plan expects {bits}",
                    w.bits()
                );
                (w.output_size(), w.input_size())
            }
            (spec, _) => panic!("payload family does not fit backend spec {spec:?}"),
        };
        assert_eq!((m, n), (plan.m, plan.n), "weight shape {m}x{n} disagrees with plan");
        Self { plan, payload }
    }

    /// The plan this op was compiled from.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The packed weights (the artifact export hook: feeding a clone back
    /// through [`CompiledOp::new`] with this plan reproduces a
    /// bit-identical op).
    pub fn payload(&self) -> &PackedPayload {
        &self.payload
    }

    /// Stable kernel-family name of the plan (reporting / benchmarks).
    pub fn backend_name(&self) -> &'static str {
        let parallel = self.plan.workers.is_some();
        match self.plan.spec {
            BackendSpec::Fp32Naive => "fp32_naive",
            BackendSpec::Fp32Blocked if parallel => "fp32_blocked_parallel",
            BackendSpec::Fp32Blocked => "fp32_blocked",
            BackendSpec::Int8 => "int8",
            BackendSpec::Xnor { .. } => "xnor",
            BackendSpec::Biq { .. } if parallel => "biqgemm_parallel",
            BackendSpec::Biq { .. } => "biqgemm",
        }
    }

    /// Output size `m`.
    pub fn output_size(&self) -> usize {
        self.plan.m
    }

    /// Input size `n`.
    pub fn input_size(&self) -> usize {
        self.plan.n
    }

    /// `Y = W · X` into `y` (row-major `m × b`, overwritten), drawing every
    /// scratch buffer from `arena`.
    ///
    /// # Panics
    /// Panics if `x.rows() != n` or `y.len() != m · x.cols()`.
    pub(crate) fn execute(
        &self,
        x: &ColMatrix,
        arena: &mut Arena,
        profile: &mut PhaseProfile,
        y: &mut [f32],
    ) {
        let plan = &self.plan;
        match &self.payload {
            PackedPayload::Dense(w) => profile.time_query(|| match (plan.spec, plan.workers) {
                (BackendSpec::Fp32Naive, _) => gemm_naive_into(w, x, y),
                (_, Some(n)) => {
                    par_gemm_blocked_into(w, x, arena.biq.workers(), n, &mut arena.pack, y)
                }
                (_, None) => gemm_blocked_into(w, x, &mut arena.pack, y),
            }),
            PackedPayload::Int8(w) => {
                // The int8 pipeline allocates its integer staging
                // internally — it is a comparison baseline, not a serving
                // path; its conversion phase is charged to `replace`
                // (data-movement), the kernel to `query`.
                let mut phases = Int8Phases::default();
                let out = w.forward_level(x, &mut phases, plan.kernel);
                profile.replace += std::time::Duration::from_secs_f64(phases.conversion_s);
                profile.query += std::time::Duration::from_secs_f64(phases.kernel_s);
                y.copy_from_slice(out.as_slice());
            }
            PackedPayload::Xnor(w) => {
                // Dynamic activation binarisation allocates internally
                // (baseline path, like int8 above).
                let out = profile.time_query(|| xnor_gemm(w, x, plan.kernel));
                y.copy_from_slice(out.as_slice());
            }
            PackedPayload::Biq(w) => {
                let arena = &mut arena.biq;
                biqgemm_into(w, x, &plan.cfg, plan.kernel, plan.workers, profile, arena, y);
            }
        }
    }
}

impl std::fmt::Debug for CompiledOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledOp")
            .field("backend", &self.backend_name())
            .field("plan", &self.plan)
            .finish()
    }
}

fn quantize_dense(w: &Matrix, bits: usize, method: QuantMethod) -> MultiBitMatrix {
    match method {
        QuantMethod::Greedy => greedy_quantize_matrix_rowwise(w, bits),
        QuantMethod::Alternating { iters } => alternating_quantize_matrix_rowwise(w, bits, iters),
    }
}

/// Binds a plan to weights: quantizes or packs them into the plan's kernel
/// family's [`PackedPayload`], then [`CompiledOp::new`]. The int8 and
/// fp32 families accept `Quantized` and `Signs` sources by dequantizing.
///
/// # Panics
/// Panics where [`CompiledOp::new`] does: a shape, bit count or µ that
/// disagrees with the plan, or [`WeightSource::Packed`] on a plan that is
/// not BiQGEMM.
pub fn compile(plan: &ExecutionPlan, weights: WeightSource<'_>) -> CompiledOp {
    let dense = |source: WeightSource<'_>| match source {
        WeightSource::Dense(m) => m.clone(),
        WeightSource::Quantized(q) => q.dequantize(),
        WeightSource::Signs(s) => s.to_f32(),
        WeightSource::Packed(_) => unreachable!("packed weights bind as they are"),
    };
    let mu = plan.cfg.mu;
    let payload = match (plan.spec, weights) {
        (_, WeightSource::Packed(w)) => PackedPayload::Biq(w),
        (BackendSpec::Biq { .. }, WeightSource::Quantized(q)) => {
            PackedPayload::Biq(BiqWeights::from_multibit(q, mu))
        }
        (BackendSpec::Biq { .. }, WeightSource::Signs(s)) => {
            PackedPayload::Biq(BiqWeights::from_signs_unscaled(s, mu))
        }
        (BackendSpec::Biq { bits, method }, WeightSource::Dense(d)) => {
            PackedPayload::Biq(BiqWeights::from_multibit(&quantize_dense(d, bits, method), mu))
        }
        (BackendSpec::Xnor { .. }, WeightSource::Quantized(q)) => {
            PackedPayload::Xnor(XnorWeights::from_multibit(q))
        }
        (BackendSpec::Xnor { bits }, source) => PackedPayload::Xnor(XnorWeights::from_multibit(
            &quantize_dense(&dense(source), bits, QuantMethod::Greedy),
        )),
        (BackendSpec::Int8, source) => PackedPayload::Int8(Int8Weights::quantize(&dense(source))),
        (BackendSpec::Fp32Naive | BackendSpec::Fp32Blocked, source) => {
            PackedPayload::Dense(dense(source))
        }
    };
    CompiledOp::new(*plan, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use biq_matrix::MatrixRng;
    use biqgemm_core::planner::Threading;

    fn run(op: &CompiledOp, x: &ColMatrix) -> Vec<f32> {
        let mut arena = Arena::new();
        let mut profile = PhaseProfile::new();
        let mut y = vec![0.0f32; op.output_size() * x.cols()];
        op.execute(x, &mut arena, &mut profile, &mut y);
        y
    }

    #[test]
    fn every_backend_family_compiles_and_runs() {
        let mut g = MatrixRng::seed_from(90);
        let w = g.gaussian(32, 48, 0.0, 1.0);
        let x = g.gaussian_col(48, 3, 0.0, 1.0);
        for spec in [
            BackendSpec::Fp32Naive,
            BackendSpec::Fp32Blocked,
            BackendSpec::Int8,
            BackendSpec::Xnor { bits: 2 },
            BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy },
        ] {
            let plan = PlanBuilder::new(32, 48).batch_hint(3).backend(spec).build();
            let op = compile(&plan, WeightSource::Dense(&w));
            let y = run(&op, &x);
            assert_eq!(y.len(), 32 * 3);
            assert!(y.iter().all(|v| v.is_finite()), "{}", op.backend_name());
            // The plan plus a copy of the payload is the same op, bit for bit.
            let rebuilt = CompiledOp::new(*op.plan(), op.payload().clone());
            let bits = |y: Vec<f32>| y.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(run(&rebuilt, &x)), bits(y), "{}", op.backend_name());
        }
    }

    #[test]
    fn naive_and_blocked_agree_bit_exactly_on_ints() {
        let mut g = MatrixRng::seed_from(91);
        let w = g.small_int_matrix(20, 30, 2);
        let x = g.small_int_col(30, 4, 2);
        let naive = compile(
            &PlanBuilder::new(20, 30).backend(BackendSpec::Fp32Naive).build(),
            WeightSource::Dense(&w),
        );
        let blocked = compile(
            &PlanBuilder::new(20, 30).backend(BackendSpec::Fp32Blocked).build(),
            WeightSource::Dense(&w),
        );
        assert_eq!(run(&naive, &x), run(&blocked, &x));
    }

    #[test]
    fn biq_from_signs_matches_dense_reference() {
        let mut g = MatrixRng::seed_from(92);
        let signs = g.signs(24, 40);
        let x = g.small_int_col(40, 5, 3);
        let plan = PlanBuilder::new(24, 40)
            .batch_hint(5)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .build();
        let op = compile(&plan, WeightSource::Signs(&signs));
        let y = run(&op, &x);
        let y_ref = biq_gemm::gemm_naive(&signs.to_f32(), &x);
        assert_eq!(y, y_ref.as_slice());
    }

    /// Every op's rows of one `execute_group` call, as bits.
    fn run_grouped(ops: &[&CompiledOp], x: &ColMatrix) -> Vec<u32> {
        let rows: usize = ops.iter().map(|op| op.output_size()).sum();
        let mut y = vec![f32::NAN; rows * x.cols()];
        execute_group(ops, x, &mut Arena::new(), &mut PhaseProfile::new(), &mut y);
        y.iter().map(|v| v.to_bits()).collect()
    }

    /// Each op run on its own, outputs stacked, as bits.
    fn run_separately(ops: &[&CompiledOp], x: &ColMatrix) -> Vec<u32> {
        ops.iter().flat_map(|op| run(op, x)).map(f32::to_bits).collect()
    }

    #[test]
    fn ops_group_only_when_their_plans_agree() {
        use biqgemm_core::simd::{host_best, supported_levels, KernelRequest};
        let mut g = MatrixRng::seed_from(93);
        let n = 40;
        let x = g.gaussian_col(n, 6, 0.0, 1.0);
        let base =
            BiqConfig { tile_rows: 8, tile_chunks: 2, tile_batch: 4, ..BiqConfig::default() };
        // The level `AtMost` resolves to (a `BIQ_KERNEL` override moves it).
        let at_most = KernelRequest::AtMost(host_best());
        let level = at_most.resolve().expect("an at-most request resolves").level();
        // Op `i`: m = 16 + 8i, i + 1 bits (1–3), on `cfg`, `workers`, `kernel`.
        let mut op = |i: usize, cfg: BiqConfig, workers: Option<usize>, kernel: KernelRequest| {
            let m = 16 + 8 * i;
            let builder = PlanBuilder::new(m, n)
                .backend(BackendSpec::Biq { bits: 1 + i % 3, method: QuantMethod::Greedy })
                .config(cfg)
                .kernel(kernel);
            let plan = match workers {
                Some(w) => builder.threads(w).threading(Threading::Parallel),
                None => builder.threading(Threading::Serial),
            }
            .build();
            compile(&plan, WeightSource::Dense(&g.gaussian(m, n, 0.0, 1.0)))
        };
        let exact = KernelRequest::Exact(level);
        let (a, b, c) =
            (op(0, base, None, exact), op(1, base, None, exact), op(2, base, None, exact));
        // Another request for the same resolved level still groups, and a
        // list longer than one group runs as consecutive groups.
        let same_level = op(3, base, None, at_most);
        let e = op(4, base, None, exact);
        assert!(biq_group(&[&a, &b, &c, &same_level]).is_some());
        let five = [&a, &b, &c, &same_level, &e];
        assert_eq!(run_grouped(&five, &x), run_separately(&five, &x));

        let mut odd = vec![
            ("µ", op(1, BiqConfig { mu: 4, ..base }, None, exact)),
            ("tile_rows", op(1, BiqConfig { tile_rows: 5, ..base }, None, exact)),
            ("tile_chunks", op(1, BiqConfig { tile_chunks: 3, ..base }, None, exact)),
            ("tile_batch", op(1, BiqConfig { tile_batch: 2, ..base }, None, exact)),
            ("workers", op(1, base, Some(2), exact)),
        ];
        if let Some(other) = supported_levels().into_iter().find(|&l| l != level) {
            odd.push(("level", op(1, base, None, KernelRequest::Exact(other))));
        }
        let dense = PlanBuilder::new(24, n).backend(BackendSpec::Fp32Blocked).build();
        odd.push(("backend", compile(&dense, WeightSource::Dense(&g.gaussian(24, n, 0.0, 1.0)))));
        for (field, odd) in &odd {
            let ops = [&a, odd, &c];
            assert!(biq_group(&ops).is_none(), "a different {field} must not group");
            assert_eq!(run_grouped(&ops, &x), run_separately(&ops, &x), "{field}");
        }
    }

    #[test]
    #[should_panic(expected = "disagrees with plan")]
    fn shape_mismatch_rejected() {
        let w = Matrix::zeros(4, 4);
        let plan = PlanBuilder::new(8, 8).backend(BackendSpec::Fp32Naive).build();
        let _ = compile(&plan, WeightSource::Dense(&w));
    }

    #[test]
    #[should_panic(expected = "packed weights use µ")]
    fn packed_mu_mismatch_rejected() {
        let signs = SignMatrix::ones(4, 16);
        let packed = BiqWeights::from_signs_unscaled(&signs, 4);
        let plan = PlanBuilder::new(4, 16)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .config(BiqConfig::with_mu(8))
            .build();
        let _ = compile(&plan, WeightSource::Packed(packed));
    }

    #[test]
    #[should_panic(expected = "packed weights carry 1 bits, plan expects 2")]
    fn packed_bits_mismatch_rejected() {
        let packed = BiqWeights::from_signs_unscaled(&SignMatrix::ones(4, 16), 8);
        let plan = PlanBuilder::new(4, 16)
            .backend(BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy })
            .config(BiqConfig::with_mu(8))
            .build();
        let _ = CompiledOp::new(plan, PackedPayload::Biq(packed));
    }

    #[test]
    #[should_panic(expected = "payload family does not fit backend spec Biq")]
    fn packed_family_mismatch_rejected() {
        let q = greedy_quantize_matrix_rowwise(&Matrix::zeros(4, 16), 1);
        let plan = PlanBuilder::new(4, 16)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .build();
        let _ = CompiledOp::new(plan, PackedPayload::Xnor(XnorWeights::from_multibit(&q)));
    }
}
