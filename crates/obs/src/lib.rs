//! # biq_obs — the live observability substrate
//!
//! Everything a running `biq serve` daemon exposes about itself flows
//! through this crate: named metric [`Sample`]s (counters, gauges, and
//! lock-free power-of-two histograms) gathered into [`MetricsSnapshot`]s
//! with Prometheus text and JSON renderers ([`metrics`]), plus a cheap
//! always-on span layer — [`span!`] RAII guards writing fixed-size events into
//! per-thread ring buffers, exported as Chrome trace-event JSON loadable
//! in Perfetto ([`trace`]).
//!
//! Std-only and dependency-free, like the `crates/compat` shims: the build
//! environment is offline, so the usual `prometheus`/`tracing` crates are
//! hand-rolled down to exactly what the serving layer needs.
//!
//! ## Cost model (why the hot path doesn't notice)
//!
//! * Recording a counter or histogram sample is one or two relaxed
//!   `fetch_add`s — no locks, no allocation. Each owner keeps plain
//!   atomics and turns them into samples only when a snapshot is taken.
//! * A [`span!`] whose tracing is disabled (the default) costs **one
//!   relaxed atomic load** — no clock read. This matters on this repo's
//!   reference VM, where `Instant::now()` under a paravirtual clock costs
//!   ~11µs; spans therefore guard every clock read behind the enable flag
//!   and sit only on coarse per-batch/per-request scopes, never per-chunk.
//! * Snapshots and exports read the same atomics the recorders write;
//!   nothing ever stops a worker to be observed.

//! ## Tail attribution & exemplars
//!
//! Aggregates explain means; tails need witnesses. The [`record`] module
//! builds a fixed-size [`RequestRecord`] per completed request — a phase
//! breakdown (queue / batch window / exec / ticket / write) from clock
//! stamps the serving layer already takes — and keeps the slowest N (the
//! `SlowLog` verb's store). The [`series`] module keeps a rolling ring of
//! per-interval delta snapshots so rates are windowed truths instead of
//! lifetime averages. [`render`] turns both into the
//! `biq top` terminal dashboard.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod record;
pub mod render;
pub mod series;
pub mod trace;

pub use metrics::{
    HistogramSnapshot, MetricValue, MetricsSnapshot, Pow2Histogram, Sample, BUCKETS,
};
pub use record::{RequestRecord, SlowHit, SlowLog, PHASES};
pub use render::{
    human_bytes, phase_bar, render_dashboard, render_models_section, sparkline, ModelRow,
};
pub use series::{op_points, OpPoint, SeriesPoint, SeriesRing};
pub use trace::{
    set_tracing, tracing_enabled, RingHealth, SpanGuard, TraceDump, TraceEvent, TraceHealth,
};
