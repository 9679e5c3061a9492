//! Quantization substrate for the BiQGEMM reproduction.
//!
//! The paper assumes weights are compressed with **binary-coding
//! quantization** (Section II-B): a real vector `w ∈ R^p` is approximated as
//! `w ≈ Σ_{i=1..q} α_i b_i` with scale factors `α_i ∈ R` and sign vectors
//! `b_i ∈ {−1,+1}^p`, chosen to minimise `‖w − Σ α_i b_i‖²` (Eq. 1). There is
//! no closed-form minimiser, so this crate implements the two standard
//! heuristics the paper cites:
//!
//! * [`binary_coding`] — the **greedy** method of Guo et al. \[21\]: peel off
//!   `sign(residual)` planes with the residual's mean absolute value as scale;
//! * [`alternating`] — the **alternating** refinement of Xu et al. \[15\]:
//!   alternate a least-squares solve for the scales with an exhaustive
//!   re-binarisation given the scales.
//!
//! On top of the quantizers sit the bit-level tools the kernels need:
//!
//! * [`packing`] — µ-bit row keys (the paper's key matrix `K`, Fig. 5),
//!   32-bit row words for the unpack baseline, and XNOR-style packing;
//! * [`unpack`] — Algorithm 3 ("Unpacking for GEMM"), the decompression step
//!   whose cost motivates BiQGEMM (Fig. 9);
//! * [`uniform`] — INT8-style uniform quantization for the Table I/II
//!   comparisons;
//! * [`error_metrics`] — MSE / SQNR / cosine fidelity measures;
//! * [`memory`] — the Table II memory-usage model.

#![forbid(unsafe_code)]

pub mod alternating;
pub mod binary_coding;
pub mod error_metrics;
pub mod memory;
pub mod packing;
pub mod uniform;
pub mod unpack;

pub use binary_coding::{
    greedy_quantize_matrix_rowwise, greedy_quantize_vector, MultiBitMatrix, QuantPlane,
};
pub use packing::KeyMatrix;
