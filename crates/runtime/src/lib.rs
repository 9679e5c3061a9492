//! # biq_runtime — the plan/executor layer over every GEMM path
//!
//! The workspace's kernels (dense baselines in `biq_gemm`, the BiQGEMM
//! engine in `biqgemm_core`) historically each exposed their own entry
//! point and allocated their own scratch per call. This crate unifies them
//! behind three abstractions, in the style of storage engines that separate
//! a planner from stateful chunk writers with shared buffers:
//!
//! * an [`ExecutionPlan`] — the *decision record*: backend choice, µ, tile
//!   shapes (`BiqConfig::default()` unless the caller passes a config),
//!   kernel level, worker count, and the scratch-buffer sizes it implies
//!   (built by [`PlanBuilder`] from `biqgemm_core::planner`'s threading,
//!   scratch and kernel-clamp rules);
//! * a [`CompiledOp`] — a plan plus one kernel family's packed weights
//!   ([`PackedPayload`]: dense fp32 for the naive / blocked paths, int8,
//!   xnor planes, or BiQGEMM keys); its one `execute` dispatches on the
//!   payload and reads µ, tiles, kernel level and workers from the plan;
//! * an [`Executor`] — the *stateful runner*: owns a reusable [`Arena`]
//!   (LUT bank, accumulators, DP steps, input-pack panel, and the
//!   persistent [`WorkerSet`] parallel plans run on) and runs any compiled
//!   op against it. After warm-up, serial and parallel runs perform **zero
//!   per-call heap allocation** — the property the paper's small-batch
//!   serving regime cares about.
//!
//! ```text
//!  shapes, batch, config          weights (dense / quantized / signs)
//!          │                                  │
//!     PlanBuilder ──► ExecutionPlan ──► compile(): quantize / pack
//!                                             │
//!                       PackedPayload ──► CompiledOp::new(plan, payload)
//!        (or one loaded from an artifact)            │
//!                        Executor::run(&op, x) ──────┘
//!                          │ owns Arena {LUT bank, acc, steps, pack}
//!                          ▼
//!                        Y = W·X
//! ```
//!
//! ## Example
//!
//! ```
//! use biq_matrix::MatrixRng;
//! use biq_runtime::{compile, BackendSpec, Executor, PlanBuilder, WeightSource};
//!
//! let mut rng = MatrixRng::seed_from(7);
//! let w = rng.gaussian(128, 64, 0.0, 1.0);
//! let x = rng.gaussian_col(64, 4, 0.0, 1.0);
//!
//! let plan = PlanBuilder::new(128, 64)
//!     .batch_hint(4)
//!     .backend(BackendSpec::Biq { bits: 2, method: biq_runtime::QuantMethod::Greedy })
//!     .build();
//! let op = compile(&plan, WeightSource::Dense(&w));
//!
//! let mut exec = Executor::new();
//! let y = exec.run(&op, &x);           // allocates the output
//! let y2 = exec.run(&op, &x);          // arena reused: no scratch allocation
//! assert_eq!(y.as_slice(), y2.as_slice());
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod backends;
pub mod executor;
pub mod plan;

pub use arena::Arena;
pub use backends::{compile, CompiledOp, PackedPayload, WeightSource};
pub use executor::{Executor, SharedExecutor};
pub use plan::{BackendSpec, ExecutionPlan, PlanBuilder, QuantMethod};

// The planner and kernel-layer vocabulary the plans are built from,
// re-exported so callers need not depend on biqgemm_core directly.
pub use biqgemm_core::planner::{ScratchSpec, Threading, SMALL_BATCH_SERIAL_MAX};
pub use biqgemm_core::{
    KernelError, KernelLevel, KernelRequest, ResolvedKernel, WorkerSet, KERNEL_ENV,
};
