//! Execution plans: every decision the runtime makes ahead of the first
//! byte of compute, recorded in one value.
//!
//! A plan is pure data — building one performs no quantization, packing, or
//! allocation beyond the struct itself. Binding a plan to weights
//! ([`crate::compile`]) produces a [`crate::CompiledOp`]; running it is the
//! executor's job. This split is what makes per-layer plan caching cheap:
//! models build their plans once and re-run them every forward pass.

use biqgemm_core::planner::{
    auto_width1_clamp, recommend_parallel, scratch_spec, ScratchSpec, Threading,
};
use biqgemm_core::simd::env_override_active;
use biqgemm_core::{BiqConfig, KernelRequest, ResolvedKernel};

/// Weight quantization recipe for BiQGEMM backends (mirrors the paper's two
/// binary-coding heuristics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantMethod {
    /// Greedy binary coding (Guo et al.).
    Greedy,
    /// Greedy + alternating refinement (`iters` rounds, Xu et al.).
    Alternating {
        /// Maximum refinement rounds.
        iters: usize,
    },
}

/// Which kernel family a plan executes on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendSpec {
    /// Dense fp32 triple loop (`kCpu` baseline).
    Fp32Naive,
    /// Dense fp32 cache-blocked GEMM (the vendor-library stand-in).
    Fp32Blocked,
    /// INT8 fixed-point pipeline (dynamic activation quantization).
    Int8,
    /// XNOR-popcount over `bits` weight planes (activations binarised).
    Xnor {
        /// Weight quantization bits β_w.
        bits: usize,
    },
    /// BiQGEMM over `bits`-plane binary-coding quantized weights.
    Biq {
        /// Weight quantization bits β_w.
        bits: usize,
        /// Quantizer flavour (used when compiling from dense weights).
        method: QuantMethod,
    },
}

/// A fully resolved execution plan for one `m × n` weight operand.
#[derive(Clone, Copy, Debug)]
pub struct ExecutionPlan {
    /// Output size `m`.
    pub m: usize,
    /// Input size `n`.
    pub n: usize,
    /// Expected batch size (plans stay valid for other batches; scratch
    /// re-grows if a larger batch arrives).
    pub batch_hint: usize,
    /// Kernel family.
    pub spec: BackendSpec,
    /// BiQGEMM configuration: µ, tile shapes and the kernel request (the
    /// LUT bank's layout follows each tile's width, not the plan). Ignored
    /// by the dense backends.
    pub cfg: BiqConfig,
    /// The threading request the plan was built with.
    pub threading: Threading,
    /// The resolved threading decision — like `kernel`, made exactly once
    /// at plan build and pinned: `None` runs the serial path on the calling
    /// thread, `Some(n)` the row-parallel driver on `n` workers (from
    /// [`PlanBuilder::threads`], default the machine's available
    /// parallelism; `Some(1)` runs it inline). Backends hand it down as
    /// an argument; nothing reads a thread count at run time.
    pub workers: Option<usize>,
    /// The kernel level every hot loop of this plan runs at — resolved
    /// exactly once here at plan build (from the builder's request /
    /// `cfg.kernel` / the `BIQ_KERNEL` override) and pinned; compiled ops
    /// carry it, the BIQM manifest records it, and no kernel re-probes
    /// CPU features at run time.
    ///
    /// `Auto` resolution is shape-aware: after picking the host's richest
    /// level it applies [`auto_width1_clamp`] — at `batch_hint == 1` the
    /// query is the width-1 gather, whose 8-lane canonical accumulation
    /// tree fills one 256-bit register, so an AVX-512 pick is
    /// level-neutral-or-worse there and Auto pins AVX2 instead. The clamp
    /// never fires for `Exact`/`AtMost` requests or under a `BIQ_KERNEL`
    /// override, and [`ExecutionPlan::kernel_reason`] records when it did.
    pub kernel: ResolvedKernel,
    /// Why `Auto` resolution deviated from the host-best level, when it
    /// did (`None` for explicit requests, forced levels, and the plain
    /// host-best pick). Surfaced by `biq inspect`.
    pub kernel_reason: Option<&'static str>,
    /// Record of the scratch-buffer sizes a serial run needs — capacity
    /// planning / introspection (`Executor::warm` provisions from the
    /// same config).
    pub scratch: ScratchSpec,
}

impl ExecutionPlan {
    /// Bytes of lookup-table bank the plan keeps live in the arena.
    pub fn lut_tile_bytes(&self) -> usize {
        self.cfg.lut_tile_bytes()
    }
}

/// Builder for [`ExecutionPlan`] — the single front door to plan resolution.
#[derive(Clone, Copy, Debug)]
pub struct PlanBuilder {
    m: usize,
    n: usize,
    batch_hint: usize,
    spec: BackendSpec,
    threading: Threading,
    threads: Option<usize>,
    cfg: BiqConfig,
    kernel: Option<KernelRequest>,
}

impl PlanBuilder {
    /// Starts a plan for an `m × n` weight operand. Defaults: batch 1,
    /// 1-bit greedy BiQGEMM backend, automatic threading,
    /// [`BiqConfig::default()`] (µ = 8 and its tiles, whatever the shape).
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub fn new(m: usize, n: usize) -> Self {
        assert!(m > 0 && n > 0, "degenerate weight shape {m}x{n}");
        Self {
            m,
            n,
            batch_hint: 1,
            spec: BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy },
            threading: Threading::Auto,
            threads: None,
            cfg: BiqConfig::default(),
            kernel: None,
        }
    }

    /// Expected batch size (`b`): drives the serial/parallel decision, the
    /// width-1 kernel clamp and the scratch record.
    pub fn batch_hint(mut self, b: usize) -> Self {
        self.batch_hint = b.max(1);
        self
    }

    /// Selects the kernel family.
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Threading policy (default [`Threading::Auto`]).
    pub fn threading(mut self, threading: Threading) -> Self {
        self.threading = threading;
        self
    }

    /// Worker count: what [`Threading::Auto`] decides from and what a
    /// parallel plan executes on (default: the machine's available
    /// parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Replaces the default [`BiqConfig`] (µ, tile shapes, kernel request);
    /// the config is validated at build.
    pub fn config(mut self, cfg: BiqConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Kernel-level request (default: the config's `kernel` field, i.e.
    /// [`KernelRequest::Auto`] unless [`PlanBuilder::config`] says otherwise).
    /// Resolution happens once, in [`PlanBuilder::build`].
    pub fn kernel(mut self, request: KernelRequest) -> Self {
        self.kernel = Some(request);
        self
    }

    /// Resolves the plan.
    ///
    /// # Panics
    /// Panics on an invalid config, or — with the kernel layer's
    /// message — when the kernel request (or a `BIQ_KERNEL` override)
    /// names a level this host cannot execute. Callers that want a
    /// recoverable error validate the request with
    /// [`KernelRequest::resolve`] first (the CLI does).
    pub fn build(self) -> ExecutionPlan {
        let mut cfg = self.cfg;
        cfg.validate();
        if let Some(request) = self.kernel {
            cfg.kernel = request;
        }
        let mut kernel = cfg.kernel.resolve().unwrap_or_else(|e| panic!("{e}"));
        let mut kernel_reason = None;
        if cfg.kernel == KernelRequest::Auto && !env_override_active() {
            if let Some((clamped, why)) = auto_width1_clamp(self.batch_hint, kernel.level()) {
                // Exact(clamped) re-resolves through the only checked
                // constructor; the clamp already verified host support.
                kernel = KernelRequest::Exact(clamped).resolve().unwrap_or_else(|e| panic!("{e}"));
                kernel_reason = Some(why);
            }
        }
        let threads = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1));
        let parallel = match self.threading {
            Threading::Auto => recommend_parallel(self.m, self.batch_hint, threads),
            Threading::Serial => false,
            Threading::Parallel => true,
        };
        ExecutionPlan {
            m: self.m,
            n: self.n,
            batch_hint: self.batch_hint,
            spec: self.spec,
            cfg,
            threading: self.threading,
            workers: parallel.then_some(threads),
            kernel,
            kernel_reason,
            scratch: scratch_spec(&cfg.fitted_to(self.n), self.batch_hint),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biqgemm_core::planner::SMALL_BATCH_SERIAL_MAX;

    #[test]
    fn a_plan_without_a_config_is_the_default_config() {
        use crate::{compile, Executor, WeightSource};
        use biq_matrix::MatrixRng;
        use biqgemm_core::simd::supported_levels;
        let p = PlanBuilder::new(1024, 1024).batch_hint(32).threads(8).build();
        assert_eq!(p.cfg, BiqConfig::default());
        assert_eq!(p.workers, Some(8), "large batch on many workers should parallelise");
        assert!(p.kernel.level().is_supported(), "resolved level must be executable");
        // n = 3 < µ runs as one ragged chunk, m = 1 under a 64-row tile.
        let mut g = MatrixRng::seed_from(0x46);
        for (m, n, b) in [(1, 3, 1), (5, 3, 2), (1, 40, 6), (32, 64, 1), (512, 512, 1)] {
            assert_eq!(PlanBuilder::new(m, n).batch_hint(b).build().cfg, BiqConfig::default());
            let signs = g.signs(m, n);
            let x = g.small_int_col(n, b, 3);
            let y_ref = biq_gemm::gemm_naive(&signs.to_f32(), &x);
            for level in supported_levels() {
                let run = |builder: PlanBuilder| {
                    let plan = builder
                        .batch_hint(b)
                        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
                        .kernel(KernelRequest::Exact(level))
                        .build();
                    let y = Executor::new().run(&compile(&plan, WeightSource::Signs(&signs)), &x);
                    y.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                let implicit = run(PlanBuilder::new(m, n));
                let explicit = run(PlanBuilder::new(m, n).config(BiqConfig::default()));
                assert_eq!(implicit, explicit, "{m}x{n} b={b} at {}", level.name());
                for (got, want) in implicit.iter().zip(y_ref.as_slice()) {
                    let got = f32::from_bits(*got);
                    assert!((got - want).abs() <= 1e-4, "{m}x{n} b={b}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn kernel_request_is_resolved_and_pinned() {
        use biqgemm_core::KernelLevel;
        let p = PlanBuilder::new(64, 64).kernel(KernelRequest::Exact(KernelLevel::Scalar)).build();
        assert_eq!(p.kernel.level(), KernelLevel::Scalar);
        assert_eq!(p.cfg.kernel, KernelRequest::Exact(KernelLevel::Scalar));
        // Auto pins the host's best level at build time (absent BIQ_KERNEL).
        let auto = PlanBuilder::new(64, 64).build();
        assert!(auto.kernel.level().is_supported());
    }

    #[test]
    fn auto_is_shape_aware_at_batch_one() {
        use biqgemm_core::{host_best, KernelLevel};
        // No BIQ_KERNEL in the test environment ⇒ Auto starts from
        // host_best and may clamp. The assertions branch on the host so
        // the test is meaningful on AVX-512, AVX2, NEON, and scalar boxes.
        if env_override_active() {
            return; // forced level: the clamp must stand down (covered below anyway)
        }
        let b1 = PlanBuilder::new(512, 512).batch_hint(1).build();
        let b8 = PlanBuilder::new(512, 512).batch_hint(8).build();
        assert_eq!(b8.kernel.level(), host_best());
        assert_eq!(b8.kernel_reason, None, "batched Auto keeps host best");
        if host_best() == KernelLevel::Avx512 {
            assert_eq!(b1.kernel.level(), KernelLevel::Avx2);
            assert!(b1.kernel_reason.is_some(), "the demotion must be explained");
        } else {
            assert_eq!(b1.kernel.level(), host_best());
            assert_eq!(b1.kernel_reason, None);
        }
        // Explicit requests are never second-guessed.
        let exact = PlanBuilder::new(512, 512)
            .batch_hint(1)
            .kernel(KernelRequest::Exact(host_best()))
            .build();
        assert_eq!(exact.kernel.level(), host_best());
        assert_eq!(exact.kernel_reason, None);
        let at_most = PlanBuilder::new(512, 512)
            .batch_hint(1)
            .kernel(KernelRequest::AtMost(host_best()))
            .build();
        assert_eq!(at_most.kernel.level(), host_best());
        assert_eq!(at_most.kernel_reason, None);
    }

    #[test]
    fn small_batch_resolves_serial_under_auto() {
        let p = PlanBuilder::new(4096, 4096).batch_hint(SMALL_BATCH_SERIAL_MAX).threads(16).build();
        assert_eq!(p.workers, None);
        assert!(p.scratch.lut_bank_floats > 0);
    }

    #[test]
    fn explicit_threading_wins_over_auto() {
        let serial = PlanBuilder::new(4096, 4096)
            .batch_hint(64)
            .threads(16)
            .threading(Threading::Serial)
            .build();
        assert_eq!(serial.workers, None);
        let par = PlanBuilder::new(64, 64).threading(Threading::Parallel).build();
        assert!(par.workers.is_some());
        let one = PlanBuilder::new(64, 64).threads(1).threading(Threading::Parallel).build();
        assert_eq!(one.workers, Some(1), "the plan's count is what executes");
    }

    #[test]
    fn config_override_is_validated_and_kept() {
        let cfg = BiqConfig {
            mu: 4,
            tile_rows: 2,
            tile_chunks: 2,
            tile_batch: 2,
            ..BiqConfig::default()
        };
        let p = PlanBuilder::new(16, 16).config(cfg).build();
        assert_eq!(p.cfg.mu, 4);
        assert_eq!(p.cfg.tile_rows, 2);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_shape_rejected() {
        let _ = PlanBuilder::new(0, 8);
    }
}
