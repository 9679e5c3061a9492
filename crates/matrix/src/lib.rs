//! Dense matrix substrate for the BiQGEMM reproduction.
//!
//! The paper (Jeon et al., SC 2020) fixes a small set of conventions that the
//! whole workspace builds on:
//!
//! * a weight matrix `W` (or its binary factor `B`) is `m × n` — `m` is the
//!   *output size*, `n` the *input size*;
//! * an input (activation) matrix `X` is `n × b` — `b` is the *batch size*;
//! * the output `Y = B · X` is `m × b`.
//!
//! Kernels in this workspace want different physical layouts for each role:
//! weights and outputs are **row-major** ([`Matrix`]) so that one output row
//! spans the batch contiguously, while inputs are **column-major**
//! ([`ColMatrix`]) so that one batch column — the vector that gets sliced into
//! LUT-unit-`µ` sub-vectors (Definition 4 of the paper) — is contiguous.
//!
//! ```
//! use biq_matrix::{ColMatrix, Matrix, MatrixRng};
//! let mut rng = MatrixRng::seed_from(1);
//! let w: Matrix = rng.gaussian(4, 8, 0.0, 1.0);       // weights, row-major
//! let x: ColMatrix = rng.gaussian_col(8, 2, 0.0, 1.0); // inputs, col-major
//! assert_eq!(w.row(0).len(), 8);   // one weight row is contiguous
//! assert_eq!(x.col(1).len(), 8);   // one batch column is contiguous
//! ```
//!
//! The crate also provides:
//!
//! * [`SignMatrix`] — a dense `{−1,+1}` matrix, the logical form of a binary
//!   weight factor before bit packing;
//! * [`reshape`] — the paper's Definition 2 reshape `A ↦ A^r_µ` plus the
//!   sub-vector accessors used by lookup-table construction;
//! * [`random`] — seeded workload generators (Gaussian via Box–Muller,
//!   uniform, signs, small-integer matrices for bit-exact testing);
//! * [`approx`] — tolerant comparison helpers shared by tests and the bench
//!   harness;
//! * [`store`] — owned-or-shared typed storage ([`PodStore`]/[`PodView`])
//!   so deserialized weights can borrow a loaded artifact buffer instead of
//!   re-allocating (zero-copy model loading);
//! * [`view`] / [`display`] — tile-range helpers and debug pretty-printing.

pub mod approx;
pub mod dense;
pub mod display;
pub mod random;
pub mod reshape;
pub mod sign;
pub mod store;
pub mod view;

pub use approx::{allclose, assert_allclose, max_abs_diff, max_rel_diff};
pub use dense::{ColMatrix, Matrix};
pub use random::MatrixRng;
pub use reshape::ChunkedInput;
pub use sign::SignMatrix;
pub use store::{Pod, PodCastError, PodStore, PodView};
pub use view::{ColsView, RowsView};
