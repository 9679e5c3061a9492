//! What the two serve workloads share: the model fixture (two artifacts,
//! inputs, expected replies), the verifying reply check, server counters
//! read from outside, the background monitor of the traced phase, and the
//! `serve.*` side of the ledger.

use crate::measure::RunArgs;
use crate::model::{
    artifact_round_trip, bits_equal, build_encoder, close_to_naive, compile_op, encoder_shapes,
    kernel_levels, make_layers, SetupTimes, BIQ,
};
use crate::params::{SEQ, SERVE_INPUT_POOL};
use crate::report::{Provenance, Row};
use crate::span::ObsCollector;
use crate::stats::{median, SplitMix64};
use biq_artifact::Artifact;
use biq_matrix::{ColMatrix, MatrixRng};
use biq_nn::CompiledModel;
use biq_runtime::{Executor, KernelLevel, Threading};
use biq_serve::net::NetConfig;
use biq_serve::{ModelRegistry, OpId, ServerConfig, StatsSnapshot};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The name the traffic-bearing model is served (and swapped) under.
pub const MODEL_NAME: &str = "bench";

/// Layer 0's six linears: what requests are drawn over, uniformly.
pub const SERVED_OPS: usize = 6;

/// One served op.
pub struct ServedOp {
    /// Unversioned wire name (`enc0.attn.wq`, …): resolves to the live version.
    pub name: String,
    pub n: usize,
}

/// Everything a serve workload needs besides the server itself.
pub struct ServeFixture {
    /// The boot artifact, and a second one with the two encoder layers
    /// exchanged: same shapes and names, different weights under each name,
    /// so a reply tells which version answered.
    pub artifact_a: PathBuf,
    pub artifact_b: PathBuf,
    pub ops: Vec<ServedOp>,
    /// `[op][pool]` single-column inputs.
    pub inputs: Vec<Vec<ColMatrix>>,
    /// `[op][pool]` replies a direct `Executor::run` of version A / B gives.
    pub expected_a: Vec<Vec<Vec<f32>>>,
    pub expected_b: Vec<Vec<Vec<f32>>>,
    pub times: SetupTimes,
    pub layer_count: usize,
    pub kernel_levels: String,
    pub oracle_ok: bool,
}

impl Drop for ServeFixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.artifact_a);
        let _ = std::fs::remove_file(&self.artifact_b);
    }
}

/// Which versions' answers a reply may equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accept {
    /// Only the boot version (steady phase).
    OnlyA,
    /// Either (swap phase: the request may have straddled a republish).
    AOrB,
}

impl ServeFixture {
    /// Builds weights, model, both artifacts, inputs and expected replies.
    pub fn build(args: &RunArgs) -> ServeFixture {
        let t_start = Instant::now();
        let mut times = SetupTimes::default();
        let mut rng = MatrixRng::seed_from(args.seed);
        let layers = make_layers(&mut rng, &encoder_shapes(), &mut times);
        let model = build_encoder(&layers, &[0, 1], BIQ, Threading::Serial, None, Some(&mut times));
        times.plan_us /= layers.len() as f64;
        let (artifact_a, artifact_b) = (args.scratch("serve.a"), args.scratch("serve.b"));
        let (_, loaded) = artifact_round_trip(&model, &artifact_a, &mut times);
        let swapped = build_encoder(&layers, &[1, 0], BIQ, Threading::Serial, None, None);
        swapped.save(&artifact_b).unwrap_or_else(|e| panic!("write {}: {e}", artifact_b.display()));

        let linears = loaded.named_linears();
        let ops: Vec<ServedOp> = linears[..SERVED_OPS]
            .iter()
            .map(|(name, l)| ServedOp { name: name.clone(), n: l.in_features() })
            .collect();
        let inputs: Vec<Vec<ColMatrix>> = ops
            .iter()
            .map(|op| (0..SERVE_INPUT_POOL).map(|_| rng.gaussian_col(op.n, 1, 0.0, 1.0)).collect())
            .collect();
        // Expected replies: the `Exact(Scalar)` twin of each op run directly.
        // Version B serves layer 1's weights under layer 0's names.
        let mut exec = Executor::new();
        let mut expect = |layer_base: usize| -> Vec<Vec<Vec<f32>>> {
            (0..SERVED_OPS)
                .map(|k| {
                    let scalar = compile_op(
                        &layers[layer_base + k],
                        BIQ,
                        SEQ,
                        Threading::Serial,
                        Some(KernelLevel::Scalar),
                        None,
                    );
                    inputs[k].iter().map(|x| exec.run(&scalar, x).into_vec()).collect()
                })
                .collect()
        };
        let (expected_a, expected_b) = (expect(0), expect(SERVED_OPS));
        // Self-checks: the reference is close to gemm_naive on the
        // dequantized weights, and the op the artifact restores (what the
        // server will run) is bit-identical to the reference.
        let mut oracle_ok = true;
        for k in 0..SERVED_OPS {
            let x = &inputs[k][0];
            oracle_ok &= close_to_naive(&layers[k], x, &expected_a[k][0]);
            let direct = exec.run(&linears[k].1.compiled_op(), x);
            oracle_ok &= bits_equal(direct.as_slice(), &expected_a[k][0]);
        }
        let kernel_levels = {
            let served: Vec<_> =
                linears.iter().map(|(n, l)| (n.clone(), l.compiled_op())).collect();
            kernel_levels(served.iter().map(|(n, op)| (n.as_str(), &**op)))
        };
        times.total_s = t_start.elapsed().as_secs_f64();
        ServeFixture {
            artifact_a,
            artifact_b,
            ops,
            inputs,
            expected_a,
            expected_b,
            times,
            layer_count: layers.len(),
            kernel_levels,
            oracle_ok,
        }
    }

    /// A boot registry holding version 1 of the model, and the served ops'
    /// ids in [`ServeFixture::ops`] order.
    pub fn boot_registry(&self) -> (ModelRegistry, CompiledModel, Vec<OpId>) {
        let artifact = Artifact::open(&self.artifact_a).expect("boot artifact opens");
        let mut registry = ModelRegistry::new();
        registry.set_model_name(MODEL_NAME);
        let (model, ids) = registry.load_artifact(&artifact).expect("boot artifact loads");
        let ids = ids.into_iter().take(SERVED_OPS).map(|(_, id)| id).collect();
        (registry, model, ids)
    }

    /// Whether `reply` is bit-identical to a direct run of `(op, input)` on
    /// an acceptable version.
    pub fn reply_correct(&self, op: usize, input: usize, reply: &[f32], accept: Accept) -> bool {
        bits_equal(reply, &self.expected_a[op][input])
            || (accept == Accept::AOrB && bits_equal(reply, &self.expected_b[op][input]))
    }

    /// A uniform draw over (op, input).
    pub fn draw(&self, rng: &mut SplitMix64) -> (usize, usize) {
        (rng.below(SERVED_OPS), rng.below(SERVE_INPUT_POOL))
    }
}

/// The serving configuration in force, for the provenance header. Servers
/// run at shipped defaults because that is what `biq serve` gives an
/// operator.
pub fn push_config(prov: &mut Provenance, fx: &ServeFixture, net: bool) {
    let c = ServerConfig::default();
    let mut kv = |k: &str, v: String| prov.push((k.to_string(), v));
    kv("kernel_levels", fx.kernel_levels.clone());
    kv("workers", c.workers.to_string());
    kv("batch_window_us", c.batch_window.as_micros().to_string());
    kv("max_batch_cols", c.max_batch_cols.to_string());
    kv("queue_capacity", c.queue_capacity.to_string());
    kv("job_capacity", c.job_capacity.to_string());
    if net {
        kv("io_threads", NetConfig::default().io_threads.to_string());
    }
}

/// Server-side counters read from the public snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub completed: u64,
    pub batches: u64,
    pub rejected: u64,
    pub queue_depth: u64,
    pub kernel: biqgemm_core::PhaseProfile,
}

impl Counters {
    pub fn read(stats: &StatsSnapshot) -> Counters {
        Counters {
            completed: stats.ops.iter().map(|o| o.completed).sum(),
            batches: stats.ops.iter().map(|o| o.batches).sum(),
            rejected: stats.ops.iter().map(|o| o.rejected).sum(),
            // The per-op gauge is decremented at dispatch and incremented
            // after the enqueue, so a snapshot can catch it one below zero
            // (wrapped); summing as signed cancels that out.
            queue_depth: stats.ops.iter().map(|o| o.queue_depth as i64).sum::<i64>().max(0) as u64,
            kernel: stats.profile,
        }
    }
}

/// What the background monitor of a traced phase gathered.
#[derive(Default)]
pub struct Monitored {
    pub obs: ObsCollector,
    pub queue_depths: Vec<f64>,
}

/// Runs beside a traced phase until `stop`: samples the queue depth every
/// 5 ms and drains the program's trace rings every 50 ms, often enough that
/// no ring wraps between two drains at the benchmark's rates.
pub fn monitor(stats: &(dyn Fn() -> StatsSnapshot + Sync), stop: &AtomicBool) -> Monitored {
    let mut m = Monitored::default();
    m.obs.drain();
    let mut tick = 0u32;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(5));
        m.queue_depths.push(Counters::read(&stats()).queue_depth as f64);
        tick += 1;
        if tick.is_multiple_of(10) {
            m.obs.drain();
        }
    }
    m.obs.drain();
    m
}

/// Inputs of [`put_serve_metrics`] a traced phase hands over.
pub struct ServePhase<'a> {
    pub before: Counters,
    pub after: Counters,
    pub wall_s: f64,
    pub monitored: &'a Monitored,
    pub allocs: u64,
    /// Time inside the admission call, per request (ns).
    pub submit_ns: Vec<f64>,
    pub submit_note: &'a str,
    /// Whole-segment median op latency, µs: what the kernel's share of a
    /// request is stated against.
    pub op_p50_us: f64,
}

/// The `serve.*`, `core.*` (per request) and `obs.spans_dropped` metrics of
/// a traced serve phase, all from counters and spans the program already
/// exports.
pub fn put_serve_metrics(row: &mut Row, p: ServePhase<'_>) {
    let done = (p.after.completed - p.before.completed).max(1);
    let batches = (p.after.batches - p.before.batches).max(1);
    let kernel = p.after.kernel.delta_since(&p.before.kernel);
    let per_req_us = |d: Duration| d.as_secs_f64() * 1e6 / done as f64;
    let workers = ServerConfig::default().workers as f64;
    let mut submit = p.submit_ns;
    let n_submit = submit.len() as u64;
    row.put_noted("serve.submit_ns", median(&mut submit), n_submit, p.submit_note);
    row.put("serve.mean_batch_cols", done as f64 / batches as f64, batches);
    row.put("serve.batches_per_s", batches as f64 / p.wall_s, batches);
    let depths = &p.monitored.queue_depths;
    let depth_mean = depths.iter().sum::<f64>() / depths.len().max(1) as f64;
    row.put("serve.queue_depth_mean", depth_mean, depths.len() as u64);
    row.put("serve.busy_rejects", (p.after.rejected - p.before.rejected) as f64, 1);
    let kernel_us = per_req_us(kernel.total());
    let share =
        format!("{:.0}% of this segment's median op latency", 100.0 * kernel_us / p.op_p50_us);
    row.put_noted("serve.kernel_us_per_req", kernel_us, done, &share);
    row.put("serve.worker_busy_share", kernel.total().as_secs_f64() / (workers * p.wall_s), done);
    let obs = &p.monitored.obs;
    let (mut window, mut exec) =
        (obs.durations_us("serve.batch_window"), obs.durations_us("serve.batch"));
    let (n_window, n_exec) = (window.len() as u64, exec.len() as u64);
    row.put("serve.window_us_p50", median(&mut window), n_window);
    row.put("serve.batch_exec_us_p50", median(&mut exec), n_exec);
    row.put_noted(
        "serve.allocs_per_req",
        p.allocs as f64 / done as f64,
        done,
        "whole process, generator included",
    );
    row.put("core.build_us", per_req_us(kernel.build), done);
    row.put("core.query_us", per_req_us(kernel.query), done);
    row.put("core.replace_us", per_req_us(kernel.replace), done);
    row.put_noted(
        "obs.spans_dropped",
        obs.dropped() as f64,
        obs.events().len() as u64,
        "program spans overwritten before a drain caught them",
    );
}
