//! # biq_serve — shape-bucketed batching and serving over the executor
//! runtime
//!
//! BiQGEMM wins precisely in the small-batch inference regime where the
//! cost of building lookup tables is amortised across the query columns of
//! one call (the paper's Section III argument). A serving system receives
//! those columns one request at a time: without batching, every
//! single-column request pays a full LUT build alone. This crate closes
//! that gap — it is the repo's path from "a fast kernel" to "a system that
//! serves heavy concurrent traffic":
//!
//! * a [`ModelRegistry`] names the [`biq_runtime::CompiledOp`]s to serve
//!   (register plans + weights directly, or share an `nn` layer's packed
//!   weights via [`ModelRegistry::register_linear`]); at
//!   [`Server::start`] it becomes a [`LiveRegistry`] — a versioned,
//!   multi-tenant store that loads, swaps, and retires whole models
//!   **online** (`op@v` names, atomic snapshot swap, drain-on-retire,
//!   `--mem-budget` LRU eviction);
//! * a [`Server`] owns N worker threads and nothing else, each worker
//!   with a **private** [`biq_runtime::Executor`] warmed for every
//!   boot-time op at startup (online-loaded ops warm lazily on first use)
//!   — the sanctioned concurrent path, replacing the
//!   [`biq_runtime::SharedExecutor`] mutex that would serialise traffic;
//! * a [`Client`] submits `(op, ColMatrix)` requests straight into the
//!   batcher's buckets under one lock, **bounded** by the requests no
//!   worker has taken yet ([`Client::try_submit`] surfaces backpressure
//!   as [`ServeError::Busy`]); each request yields a [`Ticket`] that
//!   resolves to the request's own `W·X` slice;
//! * the batcher buckets requests by `(op, input rows)` and packs
//!   compatible queries side by side into one multi-column `ColMatrix`, so
//!   **one LUT build serves the whole bucket**; a bucket leaves when it is
//!   full, when a worker is free to pull it, or after the batch window (the
//!   longest it is held while every worker is busy) — an idle server
//!   answers a lone request at once and batches form out of queueing;
//!   workers scatter the result columns back to per-request reply channels;
//! * [`Server::stats`] reports per-op queue depth, batch-width
//!   distribution, p50/p99 latency, and the merged kernel
//!   [`biqgemm_core::PhaseProfile`] across workers;
//! * [`net::NetServer`] puts all of the above on the wire: a std-only TCP
//!   front-end speaking the checksummed `BIQP` frame protocol, bridging
//!   remote connections into the same batching pipeline ([`net`]).
//!
//! Packing is exact, not approximate: every kernel family in the
//! workspace treats batch columns independently (BiQGEMM builds per-column
//! tables; int8/xnor quantize activations per column), so a batched run is
//! **bit-identical** to running each request alone — the
//! `serve_equivalence` property test pins this.
//!
//! ## Example
//!
//! ```
//! use biq_matrix::MatrixRng;
//! use biq_runtime::{BackendSpec, PlanBuilder, QuantMethod, Threading, WeightSource};
//! use biq_serve::{ModelRegistry, Server, ServerConfig};
//!
//! let mut rng = MatrixRng::seed_from(11);
//! let signs = rng.signs(64, 128);
//! let plan = PlanBuilder::new(64, 128)
//!     .batch_hint(8)
//!     .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
//!     .threading(Threading::Serial)
//!     .build();
//! let mut registry = ModelRegistry::new();
//! let op = registry.register("mlp.fc1", &plan, WeightSource::Signs(&signs));
//!
//! let server = Server::start(registry, ServerConfig::default());
//! let client = server.client();
//! let x = rng.gaussian_col(128, 1, 0.0, 1.0);
//! let y = client.submit(op, x).unwrap().wait().unwrap();
//! assert_eq!(y.shape(), (64, 1));
//! let stats = server.shutdown();
//! assert_eq!(stats.completed(), 1);
//! ```

pub mod affinity;
pub mod batcher;
pub mod net;
pub mod registry;
pub mod server;
pub mod stats;

pub use batcher::ServeError;
pub use net::{NetClient, NetServer};
pub use registry::{
    LiveRegistry, LoadedModel, ModelError, ModelInfo, ModelRegistry, OpId, RegisteredOp,
    UnloadedModel, MAX_MODELS,
};
pub use server::{Client, Server, ServerConfig, Ticket};
pub use stats::{Flushes, OpMeta, OpStatsSnapshot, StatsSnapshot};
