//! Neural-network substrate exercising BiQGEMM on the workloads the paper's
//! introduction motivates (Section II-C): Transformer attention/feed-forward
//! blocks and (bi-directional) LSTM speech models.
//!
//! Activations flow as **column-major `features × batch`** matrices
//! ([`biq_matrix::ColMatrix`]): a batch column is one token (Transformers) or
//! one time-step sample (LSTMs), matching the paper's observation that the
//! sub-words of a sequence are processed "in a group manner" — i.e. sequence
//! length plays the role of GEMM batch size.
//!
//! The only compute-bearing primitive is [`linear::Linear`], a compiled
//! runtime op with a pluggable kernel family: full-precision blocked GEMM,
//! BiQGEMM over binary-coding quantized weights, XNOR-popcount, or INT8.
//! Every composite layer (attention, Transformer encoder/decoder, LSTM) is
//! backend-agnostic, so an entire model can be flipped from fp32 to
//! quantized inference with one constructor argument — exactly the
//! deployment story BiQGEMM targets.
//!
//! For concurrent serving traffic, a model's layers route through the
//! `biq_serve` batching layer instead of their private executors:
//! [`linear::Linear::compiled_op`] hands the layer's packed weights to a
//! `ModelRegistry` (`register_linear`), and the server packs concurrent
//! single-column requests so one LUT build serves a whole bucket.

#![forbid(unsafe_code)]

pub mod activations;
pub mod attention;
pub mod configs;
pub mod embedding;
pub mod layernorm;
pub mod linear;
pub mod lstm;
pub mod model;
pub mod seq2seq;
pub mod transformer;

pub use linear::{Linear, QuantMethod};
pub use model::{CompiledModel, ModelBuilder};
