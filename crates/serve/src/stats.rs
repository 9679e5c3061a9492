//! Lock-free serving statistics: queue depth, batch-size distribution, and
//! request latency quantiles per op, plus the merged kernel
//! [`PhaseProfile`] across every worker.
//!
//! Per-op counters live inside the [`crate::registry::LiveRegistry`]'s
//! slots (an op's counters follow it through load/swap/retire and survive
//! retirement as retention stats); this module owns the counter type, the
//! sample rendering, and the server-wide blocks (kernel profile, slow
//! log).
//!
//! Latency and batch-size distributions are [`biq_obs::Pow2Histogram`]s —
//! recording from the hot path is two relaxed `fetch_add`s, and quantiles
//! are answered from bucket counts as the geometric midpoint of the
//! holding bucket (within √2 of exact, see `biq_obs::metrics`).
//!
//! Two read paths share these atomics: `StatsSnapshot::capture` (the
//! daemon's JSON report, `--stats-every` lines) and the sample list behind
//! the `BIQP` `Stats` admin verb / Prometheus renderer. Neither touches a
//! worker. Per-op samples are labeled with the **versioned display name**
//! (`op="linear@1"`), so a swap shows up as a new series instead of
//! silently splicing two versions' histograms together.

use crate::batcher::FlushReason;
use crate::registry::{LiveRegistry, SlotView};
use biq_obs::{MetricValue, MetricsSnapshot, Pow2Histogram, Sample, SlowLog};
use biqgemm_core::{KernelLevel, PhaseProfile};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Per-op identity captured at registration: everything a snapshot
/// reports that isn't a live counter. `name` is the versioned display
/// name (`linear@1`).
#[derive(Clone, Debug)]
pub struct OpMeta {
    /// Versioned display name.
    pub name: String,
    /// The kernel level the op's plan pinned.
    pub kernel: KernelLevel,
    /// Output rows `m`.
    pub m: usize,
    /// Input rows `n`.
    pub n: usize,
}

/// Live counters for one registered op.
#[derive(Debug, Default)]
pub(crate) struct OpStats {
    pub(crate) submitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) completed: AtomicU64,
    /// Requests accepted but not yet dispatched to a worker.
    pub(crate) queue_depth: AtomicUsize,
    pub(crate) batches: AtomicU64,
    /// Batches by what flushed them, indexed by [`FlushReason`].
    flushes: [AtomicU64; 3],
    batch_cols: Pow2Histogram,
    latency_us: Pow2Histogram,
}

impl OpStats {
    pub(crate) fn record_batch(&self, cols: usize, reason: FlushReason) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.flushes[reason as usize].fetch_add(1, Ordering::Relaxed);
        self.batch_cols.record(cols as u64);
    }

    fn flushes(&self) -> Flushes {
        let read = |r: FlushReason| self.flushes[r as usize].load(Ordering::Relaxed);
        Flushes {
            size: read(FlushReason::Size),
            window: read(FlushReason::Window),
            idle: read(FlushReason::Idle),
        }
    }

    pub(crate) fn record_latency(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency_us.record(latency.as_micros() as u64);
    }
}

/// Requests the slow log keeps: the `SlowLog` verb's depth.
const SLOW_LOG_CAP: usize = 32;

/// The shared mutable statistics block (one per server): everything that
/// is server-wide rather than per-op.
#[derive(Debug)]
pub(crate) struct ServerStats {
    /// Kernel phase profile merged from every worker executor.
    pub(crate) profile: Mutex<PhaseProfile>,
    /// The slowest completed requests' lifecycle records (the `SlowLog`
    /// verb's store); every completed request is offered to it.
    pub(crate) slow: SlowLog,
}

fn counter(name: &str, op: &str, v: u64) -> Sample {
    Sample {
        name: name.to_string(),
        labels: vec![("op".to_string(), op.to_string())],
        value: MetricValue::Counter(v),
    }
}

/// Appends one slot's serving samples — per-op counters/gauges, batch and
/// latency histograms, and an identity `biq_op_info` gauge carrying the
/// pinned kernel level, dims, and owning model/version as labels.
pub(crate) fn push_op_samples(samples: &mut Vec<Sample>, slot: &SlotView) {
    let s = &slot.stats;
    let m = &slot.meta;
    let op = m.name.as_str();
    samples.push(counter("biq_serve_submitted_total", op, s.submitted.load(Ordering::Relaxed)));
    samples.push(counter("biq_serve_rejected_total", op, s.rejected.load(Ordering::Relaxed)));
    samples.push(counter("biq_serve_completed_total", op, s.completed.load(Ordering::Relaxed)));
    samples.push(Sample {
        name: "biq_serve_queue_depth".to_string(),
        labels: vec![("op".to_string(), op.to_string())],
        value: MetricValue::Gauge(s.queue_depth.load(Ordering::Relaxed) as i64),
    });
    samples.push(counter("biq_serve_batches_total", op, s.batches.load(Ordering::Relaxed)));
    let flushes = s.flushes();
    for (reason, v) in [("size", flushes.size), ("window", flushes.window), ("idle", flushes.idle)]
    {
        let mut sample = counter("biq_serve_flushes_total", op, v);
        sample.labels.push(("reason".to_string(), reason.to_string()));
        samples.push(sample);
    }
    samples.push(Sample {
        name: "biq_serve_batch_cols".to_string(),
        labels: vec![("op".to_string(), op.to_string())],
        value: MetricValue::Histogram(s.batch_cols.snapshot()),
    });
    samples.push(Sample {
        name: "biq_serve_latency_us".to_string(),
        labels: vec![("op".to_string(), op.to_string())],
        value: MetricValue::Histogram(s.latency_us.snapshot()),
    });
    samples.push(Sample {
        name: "biq_op_info".to_string(),
        labels: vec![
            ("op".to_string(), op.to_string()),
            ("kernel".to_string(), m.kernel.name().to_string()),
            ("m".to_string(), m.m.to_string()),
            ("n".to_string(), m.n.to_string()),
            ("model".to_string(), slot.model_name.to_string()),
            ("version".to_string(), slot.version.to_string()),
        ],
        value: MetricValue::Gauge(1),
    });
}

impl ServerStats {
    pub(crate) fn new() -> Self {
        Self { profile: Mutex::default(), slow: SlowLog::new(SLOW_LOG_CAP) }
    }

    /// Appends the merged kernel phase profile as nanosecond counters.
    pub(crate) fn kernel_samples(&self, samples: &mut Vec<Sample>) {
        let profile = *self.profile.lock().expect("stats profile poisoned");
        for (phase, d) in
            [("build", profile.build), ("query", profile.query), ("replace", profile.replace)]
        {
            samples.push(Sample {
                name: format!("biq_kernel_{phase}_ns_total"),
                labels: Vec::new(),
                value: MetricValue::Counter(d.as_nanos() as u64),
            });
        }
    }
}

/// The full serving sample list: per-op slots (live and retired), fleet
/// gauges, and the kernel profile. Reads only atomics plus two brief
/// mutexes — never a worker.
pub(crate) fn metrics(registry: &LiveRegistry, stats: &ServerStats) -> MetricsSnapshot {
    let mut samples = Vec::new();
    registry.metric_samples(&mut samples);
    stats.kernel_samples(&mut samples);
    MetricsSnapshot { samples }
}

/// Batches counted by what flushed their bucket; the three sum to
/// [`OpStatsSnapshot::batches`]. Mostly `window` ⇒ the workers are the
/// bottleneck; mostly `idle` ⇒ batching is not buying anything at this
/// load.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Flushes {
    /// Packed width reached `max_batch_cols`.
    pub size: u64,
    /// Held for the whole `batch_window` because every worker was busy:
    /// sealed by the first push after its deadline, or taken after it.
    pub window: u64,
    /// Taken open, before its deadline, by a worker with nothing sealed
    /// for it.
    pub idle: u64,
}

/// Point-in-time statistics for one op.
#[derive(Clone, Debug)]
pub struct OpStatsSnapshot {
    /// Versioned display name (`linear@1`).
    pub name: String,
    /// The kernel level the op's plan pinned — what every batch of this op
    /// executes at on this host.
    pub kernel: KernelLevel,
    /// Output rows `m`.
    pub m: usize,
    /// Input rows `n`.
    pub n: usize,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests refused by backpressure ([`crate::Client::try_submit`]).
    pub rejected: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests accepted but not yet dispatched to a worker.
    pub queue_depth: usize,
    /// Batches executed.
    pub batches: u64,
    /// The same batches by flush trigger.
    pub flushes: Flushes,
    /// Mean packed batch width (columns).
    pub mean_batch_cols: f64,
    /// Median request latency (submit → reply), geometric bucket midpoint
    /// (within √2 of exact).
    pub latency_p50: Duration,
    /// 99th-percentile request latency, geometric bucket midpoint.
    pub latency_p99: Duration,
}

/// Point-in-time statistics for a whole server.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Per-op statistics, in registration order — retired versions keep
    /// their rows, so totals stay monotone across swaps.
    pub ops: Vec<OpStatsSnapshot>,
    /// Kernel build/query/replace time merged across every worker.
    pub profile: PhaseProfile,
}

impl StatsSnapshot {
    pub(crate) fn capture(registry: &LiveRegistry, stats: &ServerStats) -> Self {
        let snap = registry.snapshot();
        let ops = snap
            .slots
            .iter()
            .map(|slot| {
                let s = &slot.stats;
                OpStatsSnapshot {
                    name: slot.meta.name.clone(),
                    kernel: slot.meta.kernel,
                    m: slot.meta.m,
                    n: slot.meta.n,
                    submitted: s.submitted.load(Ordering::Relaxed),
                    rejected: s.rejected.load(Ordering::Relaxed),
                    completed: s.completed.load(Ordering::Relaxed),
                    queue_depth: s.queue_depth.load(Ordering::Relaxed),
                    batches: s.batches.load(Ordering::Relaxed),
                    flushes: s.flushes(),
                    mean_batch_cols: s.batch_cols.mean(),
                    latency_p50: Duration::from_micros(s.latency_us.quantile(0.50)),
                    latency_p99: Duration::from_micros(s.latency_us.quantile(0.99)),
                }
            })
            .collect();
        Self { ops, profile: *stats.profile.lock().expect("stats profile poisoned") }
    }

    /// Total completed requests across every op.
    pub fn completed(&self) -> u64 {
        self.ops.iter().map(|o| o.completed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use biq_matrix::MatrixRng;
    use biq_runtime::{BackendSpec, PlanBuilder, QuantMethod, WeightSource};

    fn live_two_ops() -> (LiveRegistry, crate::registry::OpId, crate::registry::OpId) {
        let mut g = MatrixRng::seed_from(4);
        let mut reg = ModelRegistry::new();
        reg.set_model_name("m");
        let signs_a = g.signs(4, 8);
        let plan_a = PlanBuilder::new(4, 8)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .build();
        let a = reg.register("a", &plan_a, WeightSource::Signs(&signs_a));
        let signs_b = g.signs(16, 32);
        let plan_b = PlanBuilder::new(16, 32)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .build();
        let b = reg.register("b", &plan_b, WeightSource::Signs(&signs_b));
        (LiveRegistry::from_builder(reg, None), a, b)
    }

    #[test]
    fn snapshot_captures_counters() {
        let (live, _a, b) = live_two_ops();
        let stats = ServerStats::new();
        let slot_b = live.snapshot().slot(b).unwrap().clone();
        slot_b.stats.submitted.fetch_add(5, Ordering::Relaxed);
        slot_b.stats.record_batch(4, FlushReason::Idle);
        slot_b.stats.record_latency(Duration::from_micros(100));
        let snap = StatsSnapshot::capture(&live, &stats);
        assert_eq!(snap.ops[0].submitted, 0);
        assert_eq!(snap.ops[0].name, "a@1", "versioned display name");
        assert_eq!((snap.ops[1].m, snap.ops[1].n), (16, 32));
        assert_eq!(snap.ops[1].submitted, 5);
        assert_eq!(snap.ops[1].batches, 1);
        assert_eq!(snap.ops[1].flushes, Flushes { size: 0, window: 0, idle: 1 });
        assert_eq!(snap.ops[1].mean_batch_cols, 4.0);
        // 100µs lands in bucket [64,128); the geometric midpoint estimate
        // is within √2 of the exact sample.
        let p50 = snap.ops[1].latency_p50.as_micros() as u64;
        assert!((71..=142).contains(&p50), "p50 midpoint {p50}");
        assert_eq!(snap.completed(), 1);
    }

    #[test]
    fn metrics_mirror_the_snapshot_and_carry_identity() {
        let (live, a, b) = live_two_ops();
        let stats = ServerStats::new();
        let snap = live.snapshot();
        let (slot_a, slot_b) = (snap.slot(a).unwrap(), snap.slot(b).unwrap());
        slot_a.stats.submitted.fetch_add(3, Ordering::Relaxed);
        slot_a.stats.record_latency(Duration::from_micros(50));
        slot_b.stats.rejected.fetch_add(2, Ordering::Relaxed);
        slot_b.stats.record_batch(2, FlushReason::Window);
        stats.profile.lock().unwrap().build = Duration::from_nanos(1234);
        let m = metrics(&live, &stats);
        assert_eq!(m.counter_total("biq_serve_submitted_total"), 3);
        assert_eq!(m.counter_total("biq_serve_rejected_total"), 2);
        assert_eq!(m.counter_total("biq_serve_completed_total"), 1);
        assert_eq!(m.counter_total("biq_kernel_build_ns_total"), 1234);
        let info = m.find("biq_op_info", "op", "b@1").expect("op b identity");
        assert_eq!(info.label("m"), Some("16"));
        assert_eq!(info.label("n"), Some("32"));
        assert_eq!(info.label("model"), Some("m"));
        assert_eq!(info.label("version"), Some("1"));
        // Fleet gauges ride along with the serve samples.
        assert!(m.find("biq_model_memory_bytes", "model", "m").is_some());
        // The sample list renders to parseable Prometheus text.
        let text = m.render_prometheus();
        assert!(text.contains("biq_serve_completed_total{op=\"a@1\"} 1\n"), "{text}");
        assert!(text.contains("# TYPE biq_serve_latency_us histogram\n"), "{text}");
        assert!(
            text.contains("biq_serve_flushes_total{op=\"b@1\",reason=\"window\"} 1\n"),
            "{text}"
        );
        // Counter totals agree between the two read paths.
        let snap = StatsSnapshot::capture(&live, &stats);
        assert_eq!(snap.completed(), m.counter_total("biq_serve_completed_total"));
    }
}
