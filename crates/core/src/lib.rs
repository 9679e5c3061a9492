//! # BiQGEMM — lookup-table matrix multiplication for binary-coding
//! # quantized DNNs
//!
//! A from-scratch Rust reproduction of *BiQGEMM: Matrix Multiplication with
//! Lookup Table For Binary-Coding-based Quantized DNNs* (Jeon, Park, Kwon,
//! Kim, Yun, Lee — Samsung Research, SC 2020).
//!
//! ## The idea
//!
//! When a weight matrix is quantized to `{−1,+1}` factors, the dot product of
//! any length-`µ` slice of the input with a `{−1,+1}` row slice can take only
//! `2^µ` values. BiQGEMM pre-computes those values once per input slice —
//! into a **lookup table** — and turns the inner loop of GEMM into table
//! lookups keyed by `µ`-bit packed weights:
//!
//! 1. [`lut`] builds each table in `≈ 2^µ + µ − 1` additions using the
//!    paper's Algorithm 1 dynamic programming (vs `2^µ·µ` for brute force);
//! 2. [`weights::BiqWeights`] packs sign planes into the key matrix `K`
//!    (µ-bit keys, MSB-first) with per-row scales;
//! 3. [`tiled`] queries tables and accumulates (`Y[i,α] += q^β_α[K[i,β]]`)
//!    under the paper's LUT-stationary tiling (Algorithm 2), so live tables
//!    fit in cache; [`parallel`] distributes tiles over threads.
//!
//! Time complexity (paper Eq. 8–10): `O(2^µ·(n/µ)·b + m·(n/µ)·b)`, i.e.
//! `≈ GEMM/µ` when `2^µ ≪ m`. The analytic model lives in [`complexity`],
//! including the optimal-µ search; [`planner`] turns it plus a cache budget
//! into a concrete [`config::BiqConfig`], and additionally computes the
//! scratch-buffer sizes and serial/parallel recommendation the runtime
//! layer plans with.
//!
//! ## Execution model
//!
//! There is one way to run the kernel: [`biqgemm_into`]. It takes packed
//! [`BiqWeights`], a [`BiqConfig`], the [`ResolvedKernel`] and worker count
//! its caller's plan pinned, and a reusable [`BiqArena`]; the serial tile
//! loop ([`tiled`]) and both parallel schedules ([`parallel`]) live under
//! it. Nothing in this crate reads a process-wide thread count or probes
//! CPU features at run time — both decisions are arguments.
//!
//! Applications do not call it directly: **`biq_runtime`** builds an
//! `ExecutionPlan` (a thin layer over [`planner`]) that resolves the kernel
//! level and the worker count once, `compile`s it against weights, and runs
//! it through an `Executor` that owns the arena. Concurrent traffic goes
//! through the `biq_serve` batching layer on top of that.
//!
//! ## Kernel levels
//!
//! The hot loops are implemented at multiple ISA levels — scalar, AVX2,
//! AVX-512, NEON — behind the [`simd`] kernel layer. A
//! [`config::BiqConfig`] carries a [`simd::KernelRequest`] (the successor
//! of the old `simd: bool` flag; `BiqConfig::simd = false` is now
//! `kernel: KernelRequest::Exact(KernelLevel::Scalar)`), which plan
//! builders resolve **once** into a pinned [`simd::ResolvedKernel`]; the
//! kernels take the resolved level as an argument and never probe CPU
//! features. All levels are bit-exact against scalar, which is what lets a
//! `BIQM` artifact compiled on one machine re-resolve and reproduce
//! identical outputs on any other — see the [`simd`] module docs for the
//! resolution rules, the `BIQ_KERNEL` override, and how to add an ISA.
//!
//! ## Quick start
//!
//! ```
//! use biq_matrix::{ColMatrix, Matrix, MatrixRng};
//! use biq_quant::greedy_quantize_matrix_rowwise;
//! use biqgemm_core::{biqgemm_into, BiqArena, BiqConfig, BiqWeights, PhaseProfile};
//!
//! let mut rng = MatrixRng::seed_from(1);
//! let w = rng.gaussian(128, 64, 0.0, 1.0);        // m × n weights
//! let x = rng.gaussian_col(64, 4, 0.0, 1.0);      // n × b activations
//!
//! let cfg = BiqConfig::default();
//! let quant = greedy_quantize_matrix_rowwise(&w, 2); // 2-bit binary coding
//! let packed = BiqWeights::from_multibit(&quant, cfg.mu); // key matrix, once
//! let kernel = cfg.kernel.resolve().unwrap();      // plan time, once
//!
//! let (mut arena, mut profile) = (BiqArena::new(), PhaseProfile::new());
//! let mut y = Matrix::zeros(128, 4);               // m × b output
//! // `None`: serial on this thread; `Some(n)`: `cfg.schedule` on n workers.
//! biqgemm_into(&packed, &x, &cfg, kernel, None, &mut profile, &mut arena, y.as_mut_slice());
//! assert!(profile.query > std::time::Duration::ZERO);
//! ```
//!
//! (`biq_runtime::{PlanBuilder, compile, Executor}` wrap exactly this; see
//! that crate's docs for the application-level quick start.)

pub mod actquant;
pub mod arena;
pub mod complexity;
pub mod config;
pub mod layout;
pub mod lut;
pub mod mmu;
pub mod parallel;
pub mod planner;
pub mod profile;
pub mod simd;
pub mod tiled;
pub mod weights;

pub use arena::BiqArena;
pub use config::{BiqConfig, LutBuildMethod, LutLayout, Schedule};
pub use profile::PhaseProfile;
pub use simd::{host_best, KernelError, KernelLevel, KernelRequest, ResolvedKernel, KERNEL_ENV};
pub use tiled::biqgemm_into;
pub use weights::BiqWeights;
