//! Frozen parameters and the metric catalogue.
//!
//! `BENCHMARK.json` may hold only the keys the driver's contract names, so
//! everything else that must not drift between two runs being compared —
//! shapes, rates, phase shares, pool sizes — is frozen here, and every result
//! row carries the resolved values in its provenance header. The seed is the
//! only workload input that is an argument.

/// Workload names, in the order `--all` runs them.
pub const DECODE: &str = "decode_b1";
pub const ENCODER: &str = "encoder_b32";
pub const REMOTE: &str = "serve_remote_open";
pub const SATURATE: &str = "serve_saturate";
pub const WORKLOADS: [&str; 4] = [DECODE, ENCODER, REMOTE, SATURATE];

// ------------------------------------------------------------ model shapes

/// The paper's Transformer-base layer.
pub const D_MODEL: usize = 512;
pub const D_FF: usize = 2048;
pub const HEADS: usize = 8;
/// Encoder depth of the artifact `encoder_b32` and the serve workloads load.
pub const ENC_LAYERS: usize = 2;
/// Tokens per `encoder_b32` forward: sequence length plays the GEMM batch.
pub const SEQ: usize = 32;
/// 2-bit greedy binary coding everywhere.
pub const BITS: usize = 2;

/// One `decode_b1` pass: seven distinct serial b = 1 ops `(m, n)`. The last
/// adds 2 MiB of u16 keys so a pass streams ~3.5 MiB of keys plus its LUTs.
pub const DECODE_SHAPES: [(usize, usize); 7] =
    [(512, 512), (512, 512), (512, 512), (512, 512), (2048, 512), (512, 2048), (4096, 1024)];

/// Distinct input sets rotated through by the library workloads, so a pass
/// is checked against more than one expected output.
pub const INPUT_POOL: usize = 4;
/// Distinct single-column inputs per served op.
pub const SERVE_INPUT_POOL: usize = 32;

// ---------------------------------------------------------------- traffic

/// Open-loop arrival rate of `serve_remote_open`, requests per second over
/// all connections. Calibrated once on the seed commit to about half of the
/// closed-loop remote capacity of the 2-core reference host (see README.md);
/// never recalibrated per run.
pub const REMOTE_RATE_PER_S: f64 = 3000.0;
/// Generator threads of `serve_remote_open`, each owning one pipelined BIQP
/// connection, and submitter threads of `serve_saturate`.
pub const GENERATORS: usize = 2;
/// Tickets each `serve_saturate` submitter keeps in flight (2 × 16 = twice
/// the default packed-width cap).
pub const SATURATE_INFLIGHT: usize = 16;
/// The swap phase republishes the traffic-bearing model this often.
pub const SWAP_PERIOD_S: f64 = 1.0;
/// Requests answered before measurement starts on the serve workloads, so
/// every worker arena and connection buffer has grown to its steady size.
pub const SERVE_WARMUP_REQUESTS: usize = 600;
/// A request unanswered this long after the last send counts as timed out.
pub const REPLY_TIMEOUT_S: f64 = 5.0;

// ------------------------------------------------------------ measurement

/// Set-ups per run; `setup_s` is their median, the last one is measured on.
pub const SETUP_REPEATS: usize = 5;
/// Length of one block when two variants alternate (BiQ / fp32, serial /
/// parallel): long enough to amortise the switch, short enough that host
/// drift hits both sides alike.
pub const BLOCK_S: f64 = 0.5;
/// Block length of the serial / parallel alternation in `encoder_b32`'s
/// untraced run: a few forwards, so each half-second slice holds both builds.
pub const ENCODER_BLOCK_S: f64 = 0.1;
/// The open-loop generator held its schedule when its lateness, at the
/// median and at p99, stays within this share of the op latency at the same
/// quantile.
pub const MAX_LATE_SHARE: f64 = 0.10;

/// Shares of `--seconds` in the untraced run of `serve_remote_open`.
pub const REMOTE_STEADY_SHARE: f64 = 0.8;

/// Shares of `--seconds` in a traced run: an untraced control segment (the
/// base of `obs.trace_overhead_ratio` and of the alternating-variant
/// ratios), the traced segment, and the rest for per-layer micro-measurements.
pub const TRACE_CONTROL_SHARE: f64 = 0.25;
pub const TRACE_TRACED_SHARE: f64 = 0.35;

// ------------------------------------------------------------- catalogue

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// (`0.0` for per-layer metrics: they carry no bound).
    pub bound: f64,
    /// Workloads that measure it. Elsewhere it is omitted from the printed
    /// table (and reads 0 in the driver's fixed-key result line).
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &WORKLOADS;
const LIB: &[&str] = &[DECODE, ENCODER];
const SERVE: &[&str] = &[REMOTE, SATURATE];
const MODEL: &[&str] = &[ENCODER, REMOTE, SATURATE];
const D: &[&str] = &[DECODE];
const E: &[&str] = &[ENCODER];
const R: &[&str] = &[REMOTE];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound, on: ALL }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0, on }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the stack sees, from the untraced run.
/// Every one applies to every workload and is never 0, as the driver's
/// contract requires; `fail_ratio` (always 0 on a healthy run) travels as
/// `failed / attempted` of the result line, the two ratios that apply to the
/// library workloads only head the per-layer table, and so does `op_us_p99`:
/// `--repeat` could not hold a tail (p99 or p95, under any estimator tried)
/// within a bound on `serve_remote_open` — see README.md.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_us_p50", "us", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
];

/// Per-layer metrics, from the traced run (layer = crate or module).
pub const PER_LAYER: &[MetricDef] = &[
    layer("speedup_vs_fp32", "ratio", Higher, LIB),
    layer("par_speedup", "ratio", Higher, E),
    layer("op_us_p99", "us", Lower, ALL),
    layer("host.canary_ns", "ns", Lower, ALL),
    layer("host.clock_ns", "ns", Lower, ALL),
    layer("host.read_gbps_ws", "GB/s", Higher, ALL),
    layer("quant.quantize_s", "s", Lower, ALL),
    layer("quant.pack_s", "s", Lower, ALL),
    layer("quant.rel_err", "ratio", Lower, ALL),
    layer("artifact.write_s", "s", Lower, MODEL),
    layer("artifact.bytes", "bytes", Lower, MODEL),
    layer("artifact.open_s", "s", Lower, MODEL),
    layer("artifact.load_s", "s", Lower, MODEL),
    layer("core.build_us", "us", Lower, ALL),
    layer("core.query_us", "us", Lower, ALL),
    layer("core.replace_us", "us", Lower, ALL),
    layer("core.phase_closure", "ratio", Higher, LIB),
    layer("core.op_us.512x512", "us", Lower, D),
    layer("core.op_us.2048x512", "us", Lower, D),
    layer("core.op_us.512x2048", "us", Lower, D),
    layer("core.op_us.4096x1024", "us", Lower, D),
    layer("core.hot_us.512x512", "us", Lower, D),
    layer("core.op32_us.512x512", "us", Lower, E),
    layer("core.op32_us.2048x512", "us", Lower, E),
    layer("core.op32_us.512x2048", "us", Lower, E),
    layer("core.lookups_per_s", "1/s", Higher, D),
    layer("core.gather_gbps", "GB/s", Higher, D),
    layer("core.gather_bw_eff", "ratio", Higher, D),
    layer("core.lut_resident_bytes", "bytes", Lower, D),
    layer("core.level_ratio.avx512_vs_avx2", "ratio", Lower, D),
    layer("core.level_ratio.scalar_vs_auto", "ratio", Higher, D),
    layer("core.par_op_us", "us", Lower, E),
    layer("core.par_efficiency", "ratio", Higher, E),
    layer("gemm.fp32_blocked_us", "us", Lower, LIB),
    layer("gemm.int8_us", "us", Lower, LIB),
    layer("gemm.xnor_us", "us", Lower, LIB),
    layer("runtime.plan_us", "us", Lower, ALL),
    layer("runtime.compile_ms", "ms", Lower, ALL),
    layer("runtime.dispatch_ns", "ns", Lower, D),
    layer("runtime.allocs_per_op", "count", Lower, D),
    layer("nn.forward_us", "us", Lower, E),
    layer("nn.linear_us", "us", Lower, E),
    layer("nn.other_us", "us", Lower, E),
    layer("serve.submit_ns", "ns", Lower, SERVE),
    layer("serve.mean_batch_cols", "count", Higher, SERVE),
    layer("serve.batches_per_s", "1/s", Lower, SERVE),
    layer("serve.queue_depth_mean", "count", Lower, SERVE),
    layer("serve.busy_rejects", "count", Lower, SERVE),
    layer("serve.kernel_us_per_req", "us", Lower, SERVE),
    layer("serve.worker_busy_share", "ratio", Lower, SERVE),
    layer("serve.window_us_p50", "us", Lower, SERVE),
    layer("serve.batch_exec_us_p50", "us", Lower, SERVE),
    layer("serve.allocs_per_req", "count", Lower, SERVE),
    layer("registry.swap_ms_p50", "ms", Lower, R),
    layer("registry.swap_count", "count", Higher, R),
    layer("registry.swap_retries", "count", Lower, R),
    layer("serve.swap_phase_op_us_p99", "us", Lower, R),
    layer("net.encode_req_ns", "ns", Lower, R),
    layer("net.decode_frame_ns", "ns", Lower, R),
    layer("net.frames_per_read", "count", Higher, R),
    layer("net.frames_per_writev", "count", Higher, R),
    layer("net.wakeups_per_req", "count", Lower, R),
    layer("net.bytes_per_req", "bytes", Lower, R),
    layer("net.ticket_wait_us_p50", "us", Lower, R),
    layer("net.write_us_p50", "us", Lower, R),
    layer("net.added_us_p50", "us", Lower, R),
    layer("gen.late_us_p99", "us", Lower, R),
    layer("gen.late_share", "ratio", Lower, R),
    layer("obs.trace_overhead_ratio", "ratio", Lower, ALL),
    layer("obs.spans_dropped", "count", Lower, SERVE),
];

/// Looks a metric up in either table.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The `core.op_us.*` style suffix of a shape.
pub fn shape_tag(m: usize, n: usize) -> String {
    format!("{m}x{n}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stats::{valid_name, valid_unit};
    use std::collections::HashSet;

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(!m.on.is_empty());
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "{w}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25 && m.on.len() == 4));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = metric_def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` is what the driver reads; this catalogue is what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let j = Json::parse(text).unwrap();
        let keys: Vec<&str> = j.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let names = |key: &str| -> Vec<String> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = j.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(names(key), table.iter().map(|m| m.name).collect::<Vec<_>>());
            for (got, want) in listed.iter().zip(table) {
                assert_eq!(
                    got.get("unit").and_then(Json::as_str),
                    Some(want.unit),
                    "{}",
                    want.name
                );
                let better = got.get("better").and_then(Json::as_str);
                assert_eq!(better, Some(want.better.as_str()), "{}", want.name);
                let bound = got.get("bound").and_then(Json::as_f64);
                let want_bound = (want.bound > 0.0).then_some(want.bound);
                assert_eq!(bound, want_bound, "{}", want.name);
            }
        }
        for w in j.get("workloads").and_then(Json::as_arr).unwrap() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let secs = j.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
