//! Measurement plumbing shared by the workloads: the arguments of one run,
//! timed sample sets and their end-to-end summary, alternating-block
//! comparison of variants, and the repeated, timed set-up.

use crate::host;
use crate::model::SetupTimes;
use crate::params::{BLOCK_S, SETUP_REPEATS};
use crate::report::Row;
use crate::stats;
use biqgemm_core::PhaseProfile;
use std::path::PathBuf;
use std::time::Instant;

/// What one workload run is told.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// Measured seconds (`--seconds`).
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Set-ups per run (`SETUP_REPEATS`, 1 in `--smoke`).
    pub setup_repeats: usize,
    /// `benchmark/out`: artifacts while running, traces and rows after.
    pub out_dir: PathBuf,
    /// `--selftest`: corrupt one output so the oracle has something to catch.
    pub flip_one: bool,
}

impl RunArgs {
    pub fn new(seed: u64, seconds: f64, traced: bool, out_dir: PathBuf) -> Self {
        RunArgs { seed, seconds, traced, setup_repeats: SETUP_REPEATS, out_dir, flip_one: false }
    }

    /// A scratch file in the out directory, unique to this process.
    pub fn scratch(&self, stem: &str) -> PathBuf {
        self.out_dir.join(format!("{stem}.{}.tmp", std::process::id()))
    }
}

/// Op times with their start offsets: `(seconds since phase start, µs)`.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    pub points: Vec<(f64, f64)>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples { points: Vec::with_capacity(n) }
    }

    #[inline]
    pub fn push(&mut self, at_s: f64, us: f64) {
        self.points.push((at_s, us));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.1).collect()
    }

    /// The op times ordered by start time (generators' samples merge unordered).
    pub fn values_in_time_order(&self) -> Vec<f64> {
        let mut points = self.points.clone();
        points.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        points.into_iter().map(|p| p.1).collect()
    }

    pub fn p50(&self) -> f64 {
        stats::median(&mut self.values())
    }

    /// Writes `op_us_p50` and `ops_per_s` of these samples, taken over
    /// `[0, span_s)`, into an untraced row — the quiet-host estimates of
    /// [`stats::quiet_summary`]. `rate_starts` are the start times of every
    /// verified op that counts for throughput (`None`: the timed samples
    /// themselves).
    pub fn put_end_to_end(&self, row: &mut Row, rate_starts: Option<&[f64]>, span_s: f64) {
        let n = self.len() as u64;
        let own_starts: Vec<f64>;
        let starts = match rate_starts {
            Some(s) => s,
            None => {
                own_starts = self.points.iter().map(|p| p.0).collect();
                &own_starts
            }
        };
        let n_rate = starts.len() as u64;
        match stats::quiet_summary(&self.points, starts, span_s) {
            Some(q) => {
                let how = format!("best decile of {} slice medians", q.slices);
                row.put_noted("op_us_p50", q.p50, n, &how);
                let how = format!("best decile of {} slice rates", q.slices);
                row.put_noted("ops_per_s", q.ops_per_s, n_rate, &how);
            }
            None => {
                // Too few samples to slice: whole-run statistics, said so.
                row.put_noted(
                    "op_us_p50",
                    self.p50(),
                    n,
                    "too few samples to slice: whole-run median",
                );
                row.put_noted("ops_per_s", n_rate as f64 / span_s, n_rate, "whole-run rate");
            }
        }
    }
}

/// Writes the per-layer `op_us_p99` of `values` (op times in time order) into
/// a traced row: the issue's definition, the median over ten slices of the
/// per-slice p99 — or of the highest percentile the slices support, said so.
pub fn put_p99(row: &mut Row, values: &[f64]) {
    let n = values.len() as u64;
    match stats::slice_median_tail(values, 10) {
        Some((v, 0.99, _)) => row.put_noted("op_us_p99", v, n, "median of 10 slice p99s"),
        Some((v, p, per)) => row.put_noted(
            "op_us_p99",
            v,
            n,
            &format!(
                "reported at p{:.0}: {per} samples per slice; median of 10 slice tails",
                p * 100.0
            ),
        ),
        None => {
            let max = values.iter().copied().fold(0.0, f64::max);
            row.put_noted("op_us_p99", max, n, "too few samples for a tail: maximum");
        }
    }
}

/// Runs `variants` in alternating blocks of [`BLOCK_S`] (shorter when
/// `total_s` is small) until `total_s` has passed, every variant getting the
/// same number of blocks. Each call of a variant performs one op and returns
/// its time in µs. Returns the per-variant samples; host drift hits all
/// variants alike, which is what makes their ratio trustworthy.
pub fn alternate(variants: &mut [&mut dyn FnMut() -> f64], total_s: f64) -> Vec<Vec<f64>> {
    let k = variants.len();
    let block_s = BLOCK_S.min(total_s / (2 * k) as f64).max(1e-3);
    let mut out = vec![Vec::new(); k];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < total_s {
        for (v, samples) in variants.iter_mut().zip(&mut out) {
            let t0 = Instant::now();
            loop {
                samples.push(v());
                if t0.elapsed().as_secs_f64() >= block_s {
                    break;
                }
            }
        }
    }
    out
}

/// `(median, sample count)` of each variant's samples (sorted in place).
pub fn medians(samples: &mut [Vec<f64>]) -> Vec<(f64, u64)> {
    samples.iter_mut().map(|v| (stats::median(v), v.len() as u64)).collect()
}

/// Per-op kernel phase times: one `Executor::profile()` delta per op.
#[derive(Default)]
pub struct PhaseSamples([Vec<f64>; 3]);

impl PhaseSamples {
    /// Room for `n` ops, so pushing allocates nothing in a measured region.
    pub fn with_capacity(n: usize) -> Self {
        PhaseSamples(std::array::from_fn(|_| Vec::with_capacity(n)))
    }

    pub fn push(&mut self, delta: &PhaseProfile) {
        for (v, phase) in self.0.iter_mut().zip([delta.build, delta.query, delta.replace]) {
            v.push(phase.as_secs_f64() * 1e6);
        }
    }

    /// Writes `core.build_us`, `core.query_us`, `core.replace_us` — per op,
    /// the median of each phase (one host stall moves a mean) — and returns
    /// the query median in µs.
    pub fn put(&mut self, row: &mut Row) -> f64 {
        let n = self.0[0].len() as u64;
        let [build, query, replace] = self.0.each_mut().map(|v| stats::median(v));
        row.put("core.build_us", build, n);
        row.put("core.query_us", query, n);
        row.put("core.replace_us", replace, n);
        query
    }
}

/// Writes the three `host.*` metrics; the read bandwidth is taken over a
/// buffer of `ws_bytes` (`what` says what that size stands for) for `seconds`.
pub fn put_host(row: &mut Row, ws_bytes: usize, what: &str, seconds: f64) -> f64 {
    let read_gbps = host::read_gbps(ws_bytes, seconds);
    let note = format!("sequential read over {what}, {ws_bytes} B");
    row.put_noted("host.read_gbps_ws", read_gbps, 1, &note);
    row.put("host.canary_ns", host::canary_ns(), 21);
    row.put("host.clock_ns", host::clock_ns(), 21);
    read_gbps
}

/// The set-up side of the ledger: quantize/pack/plan/compile, and the
/// artifact round trip where the workload made one.
pub fn put_setup_times(row: &mut Row, t: &SetupTimes, layers: usize) {
    row.put("quant.quantize_s", t.quantize_s, 1);
    row.put("quant.pack_s", t.pack_s, 1);
    row.put("quant.rel_err", t.rel_err, layers as u64);
    row.put("runtime.plan_us", t.plan_us, layers as u64);
    row.put("runtime.compile_ms", t.compile_ms, layers as u64);
    if t.artifact_bytes > 0.0 {
        row.put("artifact.write_s", t.artifact_write_s, 1);
        row.put("artifact.bytes", t.artifact_bytes, 1);
        row.put("artifact.open_s", t.artifact_open_s, 1);
        row.put("artifact.load_s", t.artifact_load_s, 1);
    }
}

/// Times one call of `f` in µs.
#[inline]
pub fn time_us<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// Median µs per call of `f` over about `seconds`, timing batches of
/// `batch` calls so a nanosecond-scale op is not drowned by the clock.
pub fn median_per_call_us(seconds: f64, batch: usize, mut f: impl FnMut()) -> (f64, u64) {
    let mut per_call = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || per_call.len() < 5 {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / 1e3 / batch as f64);
    }
    let n = (per_call.len() * batch) as u64;
    (stats::median(&mut per_call), n)
}

/// Runs `setup` `repeats` times, dropping all but the last product, and
/// returns that product with the median wall time of a set-up in seconds.
/// A later change that moves work from the measured loop into set-up shows
/// here, and the median keeps one slow first touch from deciding the value.
pub fn repeat_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), stats::median(&mut times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DECODE;

    #[test]
    fn alternate_gives_every_variant_samples() {
        let (mut a, mut b) = (0u32, 0u32);
        let mut va = || {
            a += 1;
            1.0
        };
        let mut vb = || {
            b += 1;
            2.0
        };
        let out = alternate(&mut [&mut va, &mut vb], 0.02);
        assert!(!out[0].is_empty() && !out[1].is_empty());
        assert!(out[0].iter().all(|&v| v == 1.0) && out[1].iter().all(|&v| v == 2.0));
    }

    #[test]
    fn end_to_end_summary_says_how_it_was_taken() {
        let mut s = Samples::default();
        for i in 0..2000 {
            s.push(i as f64 / 200.0, 100.0 + (i % 7) as f64);
        }
        let mut row = Row::new(DECODE, false, Vec::new());
        s.put_end_to_end(&mut row, None, 10.0);
        assert_eq!(row.metrics["op_us_p50"].note, "best decile of 60 slice medians");
        assert_eq!(row.metrics["op_us_p50"].n, 2000);
        assert!((row.metrics["ops_per_s"].value - 200.0).abs() < 1.0);
        s.points.truncate(5);
        s.put_end_to_end(&mut row, None, 10.0);
        assert!(row.metrics["op_us_p50"].note.contains("whole-run"));
        let mut traced = Row::new(DECODE, true, Vec::new());
        put_p99(&mut traced, &[1.0; 2000]);
        assert!(traced.metrics["op_us_p99"].note.contains("p95"), "{:?}", traced.metrics);
    }

    #[test]
    fn repeat_setup_keeps_the_last_product() {
        let mut calls = 0;
        let (v, med) = repeat_setup(3, || {
            calls += 1;
            calls
        });
        assert_eq!((v, calls), (3, 3));
        assert!(med >= 0.0);
    }
}
