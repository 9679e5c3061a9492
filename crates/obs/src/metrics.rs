//! Metric samples and their renderers: power-of-two histograms with
//! lock-free recording, point-in-time [`MetricsSnapshot`]s of named
//! [`Sample`]s, and Prometheus text / JSON renderers.
//!
//! Each owner of live state (per-op stats, fleet gauges, the kernel
//! profile, the transport counters, trace health) keeps plain atomics and
//! pushes its samples into one `Vec` on demand; recording (hot: every
//! request) is a relaxed `fetch_add`/`store`. Snapshots read the same
//! atomics — observation never blocks a recorder.
//!
//! ## Histogram quantile accuracy
//!
//! [`Pow2Histogram`] buckets a sample `v` by `floor(log2(max(v, 1)))`, so
//! bucket `b` covers `[2^b, 2^(b+1))` (bucket 0 also absorbs 0, bucket 31
//! is open-ended). A quantile is reported as the **geometric midpoint** of
//! its bucket, `round(2^b · √2)`, which is within a factor of `√2 ≈ 1.41`
//! of the true value in either direction. (An earlier revision reported
//! the bucket's raw upper edge, `2^(b+1)` — biased high by up to 2×;
//! `quantile_reports_geometric_midpoint` pins the fix.)

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two histogram buckets (covers 1 .. 2^31, with the
/// last bucket open-ended; in microseconds that is 1 µs .. ~36 min).
pub const BUCKETS: usize = 32;

/// A power-of-two histogram over `u64` samples. Recording is two relaxed
/// `fetch_add`s; the sample count is derived from the buckets at snapshot
/// time, so a snapshot's `count` always equals the sum of its buckets (no
/// torn count/bucket pairs — the concurrent-recorder property test pins
/// this).
#[derive(Debug, Default)]
pub struct Pow2Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

/// Bucket index for a sample: `floor(log2(max(v, 1)))`, clamped to the
/// open-ended last bucket.
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1)
}

impl Pow2Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets, sum: self.sum.load(Ordering::Relaxed) }
    }

    /// Quantile `p` of the live histogram (see [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, p: f64) -> u64 {
        self.snapshot().quantile(p)
    }

    /// Mean of the live histogram (exact — the sum is tracked separately).
    pub fn mean(&self) -> f64 {
        self.snapshot().mean()
    }
}

/// A plain-data copy of a [`Pow2Histogram`] — what snapshots carry and the
/// wire encodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per power-of-two bucket; bucket `b` covers `[2^b, 2^(b+1))`.
    pub buckets: [u64; BUCKETS],
    /// Sum of every recorded sample (exact).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { buckets: [0; BUCKETS], sum: 0 }
    }
}

impl HistogramSnapshot {
    /// Total recorded samples (always equals the bucket sum by
    /// construction).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Quantile `p` as the **geometric midpoint** of the bucket holding
    /// rank `ceil(count · p)`: `round(2^b · √2)` for bucket `b` (bucket 0,
    /// holding 0 and 1, reports 1). The estimate is within a factor of
    /// `√2` of the exact quantile for in-range samples; the last bucket is
    /// open-ended, so values ≥ 2^31 are under-reported. Returns 0 when
    /// empty.
    pub fn quantile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 0 {
                    1
                } else {
                    ((1u64 << b) as f64 * std::f64::consts::SQRT_2).round() as u64
                };
            }
        }
        unreachable!("rank is clamped to the total bucket count")
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum as f64 / c as f64
        }
    }

    /// Bucket-wise difference `self − prev`, saturating at zero — the
    /// distribution of samples recorded *between* two cumulative
    /// snapshots of the same histogram.
    pub fn saturating_sub(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = *self;
        for (a, b) in out.buckets.iter_mut().zip(&prev.buckets) {
            *a = a.saturating_sub(*b);
        }
        out.sum = out.sum.saturating_sub(prev.sum);
        out
    }
}

/// The value a [`Sample`] carries.
// The histogram variant dominates the size (32 buckets + sum inline) —
// samples only exist on the cold snapshot path, so inline beats boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time signed level.
    Gauge(i64),
    /// Bucketed distribution.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// Stable lowercase kind name (also the Prometheus `# TYPE`).
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One named, labeled metric value in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name (`biq_serve_completed_total` style).
    pub name: String,
    /// Label pairs, in the order the owner pushed them.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A point-in-time set of [`Sample`]s — what the `Stats` wire verb
/// carries and what renders to Prometheus text or JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Every sample, in the order the owners pushed them.
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// The per-interval delta `self − prev` by `(name, labels)`: counters
    /// and histograms subtract (saturating at zero, so a restarted
    /// recorder reads as quiet rather than wrapping), gauges keep `self`'s
    /// current level, and samples absent from `prev` pass through whole.
    /// Samples only in `prev` are dropped — the interval view describes
    /// what exists *now*. This is the one shared definition of "rate" used
    /// by both the daemon's history ring and `biq stats --watch`.
    pub fn delta_since(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let samples = self
            .samples
            .iter()
            .map(|s| {
                let old = prev
                    .samples
                    .iter()
                    .find(|p| p.name == s.name && p.labels == s.labels)
                    .map(|p| &p.value);
                let value = match (&s.value, old) {
                    (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                        MetricValue::Counter(a.saturating_sub(*b))
                    }
                    (MetricValue::Histogram(a), Some(MetricValue::Histogram(b))) => {
                        MetricValue::Histogram(a.saturating_sub(b))
                    }
                    // Gauges are levels (and kind clashes keep ours).
                    (v, _) => v.clone(),
                };
                Sample { name: s.name.clone(), labels: s.labels.clone(), value }
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// Sum of every counter sample named `name` across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match s.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// The first sample named `name` whose labels include `(key, value)`.
    pub fn find(&self, name: &str, key: &str, value: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| s.name == name && s.label(key) == Some(value))
    }

    /// Prometheus text exposition format: one `# TYPE` line per metric
    /// name (first occurrence), histograms expanded to cumulative
    /// `_bucket{le=…}` series plus `_sum`/`_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for s in &self.samples {
            if !typed.contains(&s.name.as_str()) {
                typed.push(&s.name);
                out.push_str(&format!("# TYPE {} {}\n", s.name, s.value.kind()));
            }
            match &s.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", s.name, render_labels(&s.labels, None)));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{}{} {v}\n", s.name, render_labels(&s.labels, None)));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (b, &n) in h.buckets.iter().enumerate() {
                        cum += n;
                        // Samples are integers, so bucket b's inclusive
                        // upper edge is 2^(b+1) - 1; the open-ended last
                        // bucket is +Inf.
                        let le = if b == BUCKETS - 1 {
                            "+Inf".to_string()
                        } else {
                            ((1u64 << (b + 1)) - 1).to_string()
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {cum}\n",
                            s.name,
                            render_labels(&s.labels, Some(&le)),
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        s.name,
                        render_labels(&s.labels, None),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {cum}\n",
                        s.name,
                        render_labels(&s.labels, None),
                        cum = h.count()
                    ));
                }
            }
        }
        out
    }

    /// Compact JSON rendering (`biq stats --json`): an object with a
    /// `metrics` array; histograms report count/sum/mean/p50/p99 plus
    /// their non-empty buckets as `[inclusive_upper_edge, count]` pairs.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"metrics\": [");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{{\"name\": \"{}\", \"labels\": {{", escape_json(&s.name)));
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": \"{}\"", escape_json(k), escape_json(v)));
            }
            out.push_str("}, ");
            match &s.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("\"type\": \"counter\", \"value\": {v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("\"type\": \"gauge\", \"value\": {v}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \
                         \"mean\": {:.2}, \"p50\": {}, \"p99\": {}, \"buckets\": [",
                        h.count(),
                        h.sum,
                        h.mean(),
                        h.quantile(0.50),
                        h.quantile(0.99),
                    ));
                    let mut first = true;
                    for (b, &n) in h.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        let edge = if b == BUCKETS - 1 { u64::MAX } else { (1u64 << (b + 1)) - 1 };
                        out.push_str(&format!("[{edge}, {n}]"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// `{k="v",…}` with values escaped, optionally with a trailing `le`
/// label; empty string when there are no labels at all.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

/// Prometheus label-value escaping: backslash, double quote, newline.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Minimal JSON string escaping (our names/labels are printable ASCII,
/// but op names come from artifacts — never emit a raw quote or control
/// byte).
pub(crate) fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_reports_geometric_midpoint() {
        // 10 samples of 3 (bucket 1 = [2,4)) and one of 1000 (bucket 9 =
        // [512,1024)). Exact p50 is 3; the midpoint estimate is
        // round(2·√2) = 3 — not the old upper edge 4. Exact p99 is 1000;
        // the estimate is round(512·√2) = 724, within √2 of exact.
        let h = Pow2Histogram::default();
        for _ in 0..10 {
            h.record(3);
        }
        h.record(1000);
        assert_eq!(h.quantile(0.50), 3);
        let p99 = h.quantile(0.99);
        assert_eq!(p99, 724);
        assert!((p99 as f64) >= 1000.0 / std::f64::consts::SQRT_2);
        assert!((p99 as f64) <= 1000.0 * std::f64::consts::SQRT_2);
    }

    #[test]
    fn quantile_error_is_bounded_by_sqrt2_on_known_distributions() {
        // Uniform 1..=4096 and a geometric-ish heavy tail: the estimate
        // must stay within √2 of the exact quantile at every probed p.
        let uniform: Vec<u64> = (1..=4096).collect();
        let tail: Vec<u64> = (0..1200).map(|i| 1 + (i as u64 % 13) * (1 << (i % 10))).collect();
        for samples in [&uniform, &tail] {
            let h = Pow2Histogram::default();
            for &v in samples.iter() {
                h.record(v);
            }
            let mut sorted = samples.to_vec();
            sorted.sort_unstable();
            for p in [0.10, 0.25, 0.50, 0.90, 0.99] {
                let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1] as f64;
                let est = h.quantile(p) as f64;
                let ratio = if est > exact { est / exact } else { exact / est };
                assert!(
                    ratio <= std::f64::consts::SQRT_2 + 1e-9,
                    "p{p}: exact {exact}, estimate {est}, ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn quantile_handles_edges() {
        let h = Pow2Histogram::default();
        assert_eq!(h.quantile(0.99), 0, "empty histogram reports 0");
        assert_eq!(h.mean(), 0.0);
        h.record(0);
        h.record(1);
        assert_eq!(h.quantile(0.5), 1, "bucket 0 reports 1");
        // The open-ended last bucket still answers something sane.
        let big = Pow2Histogram::default();
        big.record(u64::MAX);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert!(big.quantile(0.5) >= 1u64 << (BUCKETS - 1));
    }

    #[test]
    fn snapshot_count_equals_bucket_sum_and_mean_is_exact() {
        let h = Pow2Histogram::default();
        for v in [1u64, 5, 9, 100, 7] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 122);
        assert!((s.mean() - 24.4).abs() < 1e-9);
    }

    fn sample(name: &str, labels: &[(&str, &str)], value: MetricValue) -> Sample {
        let labels = labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        Sample { name: name.to_string(), labels, value }
    }

    fn histogram(values: &[u64]) -> MetricValue {
        let h = Pow2Histogram::default();
        for &v in values {
            h.record(v);
        }
        MetricValue::Histogram(h.snapshot())
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let mut snap = MetricsSnapshot {
            samples: vec![
                sample("biq_req_total", &[("op", "lin\"ear")], MetricValue::Counter(3)),
                sample("biq_depth", &[], MetricValue::Gauge(-2)),
                sample("biq_lat_us", &[("op", "a")], histogram(&[3, 100])),
            ],
        };
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE biq_req_total counter\n"), "{text}");
        assert!(text.contains("biq_req_total{op=\"lin\\\"ear\"} 3\n"), "{text}");
        assert!(text.contains("# TYPE biq_depth gauge\n"), "{text}");
        assert!(text.contains("biq_depth -2\n"), "{text}");
        assert!(text.contains("# TYPE biq_lat_us histogram\n"), "{text}");
        assert!(text.contains("biq_lat_us_bucket{op=\"a\",le=\"3\"} 1\n"), "{text}");
        assert!(text.contains("biq_lat_us_bucket{op=\"a\",le=\"+Inf\"} 2\n"), "{text}");
        assert!(text.contains("biq_lat_us_sum{op=\"a\"} 103\n"), "{text}");
        assert!(text.contains("biq_lat_us_count{op=\"a\"} 2\n"), "{text}");
        // One # TYPE line per name, even with several label sets.
        snap.samples.push(sample("biq_req_total", &[("op", "b")], MetricValue::Counter(1)));
        let text = snap.render_prometheus();
        assert_eq!(text.matches("# TYPE biq_req_total").count(), 1, "{text}");
    }

    #[test]
    fn json_rendering_is_shaped() {
        let snap = MetricsSnapshot {
            samples: vec![
                sample("biq_c", &[("op", "a")], MetricValue::Counter(2)),
                sample("biq_h", &[], histogram(&[9])),
            ],
        };
        let json = snap.render_json();
        assert!(json.starts_with("{\"metrics\": ["), "{json}");
        assert!(json.contains("\"type\": \"counter\", \"value\": 2"), "{json}");
        assert!(json.contains("\"type\": \"histogram\", \"count\": 1"), "{json}");
        assert!(json.contains("\"buckets\": [[15, 1]]"), "{json}");
    }
}
