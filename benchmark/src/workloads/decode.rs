//! `decode_b1` — the paper's home regime. Library, one thread, closed loop,
//! one caller. One op is one decode-step pass: seven distinct serial b = 1
//! `Executor::run_into` calls (four 512×512, 2048×512, 512×2048 and
//! 4096×1024), ~3.5 MiB of u16 keys per pass.
//!
//! Why it exists: the gather query is >90 % of the time here, LUT build a
//! few percent, and `nn`/`serve`/`net` do nothing — a kernel change must
//! show on this workload and a serving change must not.

use crate::alloc;
use crate::host;
use crate::measure::{
    alternate, median_per_call_us, medians, put_host, put_p99, put_setup_times, repeat_setup,
    time_us, PhaseSamples, RunArgs, Samples,
};
use crate::model::{
    bits_equal, close_to_naive, compile_op, kernel_levels, make_layers, Layer, SetupTimes, BIQ,
};
use crate::params::{
    shape_tag, BITS, DECODE, DECODE_SHAPES, INPUT_POOL, TRACE_CONTROL_SHARE, TRACE_TRACED_SHARE,
};
use crate::report::{Provenance, Row};
use crate::span::{write_trace, SpanLog};
use crate::stats::median;
use biq_matrix::{ColMatrix, MatrixRng};
use biq_runtime::{BackendSpec, CompiledOp, Executor, KernelLevel, Threading};
use biqgemm_core::complexity::t_r;
use biqgemm_core::BiqConfig;
use std::time::Instant;

/// Span names of the seven ops of a pass, by shape.
const OP_SPANS: [&str; 7] = [
    "runtime.run_into 512x512",
    "runtime.run_into 512x512",
    "runtime.run_into 512x512",
    "runtime.run_into 512x512",
    "runtime.run_into 2048x512",
    "runtime.run_into 512x2048",
    "runtime.run_into 4096x1024",
];

struct Fixture {
    layers: Vec<Layer>,
    /// The measured ops: BiQ, kernel `Auto`, serial, batch hint 1.
    ops: Vec<CompiledOp>,
    /// `[pool][op]` inputs and, for each, the outputs of the same ops planned
    /// at `Exact(Scalar)`: the bit-exactness reference.
    xs: Vec<Vec<ColMatrix>>,
    expected: Vec<Vec<Vec<f32>>>,
    exec: Executor,
    ys: Vec<Vec<f32>>,
    times: SetupTimes,
    /// Set-up self-checks: reference close to `gemm_naive` on the
    /// dequantized weights, warm-up passes bit-identical to the reference.
    oracle_ok: bool,
}

/// Every layer compiled for `spec` at batch hint 1, serial.
fn compile_all(
    layers: &[Layer],
    spec: BackendSpec,
    level: Option<KernelLevel>,
    mut t: Option<&mut SetupTimes>,
) -> Vec<CompiledOp> {
    layers
        .iter()
        .map(|l| compile_op(l, spec, 1, Threading::Serial, level, t.as_deref_mut()))
        .collect()
}

fn out_buffers(ops: &[CompiledOp]) -> Vec<Vec<f32>> {
    ops.iter().map(|op| vec![0.0; op.output_size()]).collect()
}

#[inline]
fn pass(exec: &mut Executor, ops: &[CompiledOp], xs: &[ColMatrix], ys: &mut [Vec<f32>]) {
    for ((op, x), y) in ops.iter().zip(xs).zip(ys.iter_mut()) {
        exec.run_into(op, x, y);
    }
}

fn pass_correct(ys: &[Vec<f32>], expected: &[Vec<f32>]) -> bool {
    ys.iter().zip(expected).all(|(y, e)| bits_equal(y, e))
}

fn setup(seed: u64) -> Fixture {
    let t_start = Instant::now();
    let mut times = SetupTimes::default();
    let mut rng = MatrixRng::seed_from(seed);
    let shapes: Vec<_> = DECODE_SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(m, n))| (format!("op{i}.{}", shape_tag(m, n)), m, n, false))
        .collect();
    let layers = make_layers(&mut rng, &shapes, &mut times);
    let ops = compile_all(&layers, BIQ, None, Some(&mut times));
    times.plan_us /= ops.len() as f64;
    let scalar_ops = compile_all(&layers, BIQ, Some(KernelLevel::Scalar), None);
    let xs: Vec<Vec<ColMatrix>> = (0..INPUT_POOL)
        .map(|_| layers.iter().map(|l| rng.gaussian_col(l.n, 1, 0.0, 1.0)).collect())
        .collect();
    let mut reference = Executor::new();
    let expected: Vec<Vec<Vec<f32>>> = xs
        .iter()
        .map(|set| {
            scalar_ops.iter().zip(set).map(|(op, x)| reference.run(op, x).into_vec()).collect()
        })
        .collect();
    let mut oracle_ok =
        layers.iter().zip(&xs[0]).zip(&expected[0]).all(|((l, x), y)| close_to_naive(l, x, y));
    let mut exec = Executor::new();
    for op in &ops {
        exec.warm(op);
    }
    let mut ys = out_buffers(&ops);
    // Warm-up: arenas are provisioned above; these passes fill the caches
    // and prove the measured ops against the reference before timing starts.
    for i in 0..4 * INPUT_POOL {
        pass(&mut exec, &ops, &xs[i % INPUT_POOL], &mut ys);
        oracle_ok &= pass_correct(&ys, &expected[i % INPUT_POOL]);
    }
    times.total_s = t_start.elapsed().as_secs_f64();
    Fixture { layers, ops, xs, expected, exec, ys, times, oracle_ok }
}

/// Runs the workload.
pub fn run(args: &RunArgs, provenance: Provenance) -> Row {
    let (mut fx, setup_s) = repeat_setup(args.setup_repeats, || setup(args.seed));
    let mut row = Row::new(DECODE, args.traced, provenance);
    row.provenance.push((
        "kernel_levels".into(),
        kernel_levels(fx.layers.iter().map(|l| l.name.as_str()).zip(&fx.ops)),
    ));
    row.provenance.push(("mu".into(), BiqConfig::default().mu.to_string()));
    row.correct = fx.oracle_ok;
    if args.traced {
        traced(args, &mut fx, &mut row);
    } else {
        untraced(args, &mut fx, &mut row, setup_s);
    }
    row
}

fn untraced(args: &RunArgs, fx: &mut Fixture, row: &mut Row, setup_s: f64) {
    let mut samples = Samples::with_capacity((args.seconds * 4000.0) as usize);
    let begin = Instant::now();
    let mut i = 0usize;
    loop {
        let t0 = Instant::now();
        let at = t0.duration_since(begin).as_secs_f64();
        if at >= args.seconds {
            break;
        }
        let pool = i % INPUT_POOL;
        pass(&mut fx.exec, &fx.ops, &fx.xs[pool], &mut fx.ys);
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        if args.flip_one && i == 3 {
            fx.ys[0][0] = f32::from_bits(fx.ys[0][0].to_bits() ^ 1);
        }
        row.attempted += 1;
        if pass_correct(&fx.ys, &fx.expected[pool]) {
            samples.push(at, us);
        } else {
            row.failed += 1;
        }
        i += 1;
    }
    row.put("setup_s", setup_s, args.setup_repeats as u64);
    samples.put_end_to_end(row, None, args.seconds);
    row.put("peak_rss_mib", host::peak_rss_mib(), 1);
}

/// One set of the seven ops with its own executor and output buffers: a
/// variant of the pass that can alternate with others.
struct Variant {
    ops: Vec<CompiledOp>,
    exec: Executor,
    ys: Vec<Vec<f32>>,
}

impl Variant {
    fn new(layers: &[Layer], spec: BackendSpec, level: Option<KernelLevel>) -> Self {
        let ops = compile_all(layers, spec, level, None);
        Variant { ys: out_buffers(&ops), exec: Executor::new(), ops }
    }

    /// One pass; its time in µs.
    fn timed_pass(&mut self, xs: &[ColMatrix]) -> f64 {
        time_us(|| pass(&mut self.exec, &self.ops, xs, &mut self.ys))
    }
}

fn traced(args: &RunArgs, fx: &mut Fixture, row: &mut Row) {
    let s = args.seconds;
    let part = s * (1.0 - TRACE_CONTROL_SHARE - TRACE_TRACED_SHARE) / 8.0;

    // -- control segment, untraced: BiQ and fp32 passes in alternating blocks.
    let mut fp32 = Variant::new(&fx.layers, BackendSpec::Fp32Blocked, None);
    let (mut attempted, mut failed, mut i) = (0u64, 0u64, 0usize);
    let mut control = {
        let (exec, ys, xs, expected, ops) =
            (&mut fx.exec, &mut fx.ys, &fx.xs, &fx.expected, &fx.ops);
        let mut v_biq = || {
            let pool = i % INPUT_POOL;
            i += 1;
            let us = time_us(|| pass(exec, ops, &xs[pool], ys));
            attempted += 1;
            failed += u64::from(!pass_correct(ys, &expected[pool]));
            us
        };
        let mut v_fp32 = || fp32.timed_pass(&xs[0]);
        alternate(&mut [&mut v_biq, &mut v_fp32], s * TRACE_CONTROL_SHARE)
    };
    drop(fp32);
    put_p99(row, &control[0]);
    let [(biq_p50, n_biq), (fp32_p50, n_fp32)] = medians(&mut control)[..] else {
        unreachable!("two variants")
    };
    row.put("speedup_vs_fp32", fp32_p50 / biq_p50, n_biq + n_fp32);
    row.put("gemm.fp32_blocked_us", fp32_p50, n_fp32);

    // -- traced segment: a span around every pass and every run_into, the
    // executor's phase profile and the allocation counter read around it.
    let traced_s = s * TRACE_TRACED_SHARE;
    let expect_passes = (traced_s * 1e6 / biq_p50 * 1.5) as usize + 64;
    let mut log = SpanLog::new(true, 0, expect_passes * 8);
    let mut phase_samples = PhaseSamples::with_capacity(expect_passes);
    let profile0 = *fx.exec.profile();
    let begin = Instant::now();
    alloc::arm();
    let mut passes = 0u64;
    while begin.elapsed().as_secs_f64() < traced_s {
        let pool = passes as usize % INPUT_POOL;
        let before = *fx.exec.profile();
        log.enter("decode.pass", passes);
        for (k, name) in OP_SPANS.iter().enumerate() {
            log.enter(name, passes);
            fx.exec.run_into(&fx.ops[k], &fx.xs[pool][k], &mut fx.ys[k]);
            log.exit();
        }
        log.exit();
        phase_samples.push(&fx.exec.profile().delta_since(&before));
        attempted += 1;
        failed += u64::from(!pass_correct(&fx.ys, &fx.expected[pool]));
        passes += 1;
    }
    let allocs = alloc::disarm();
    let phases = fx.exec.profile().delta_since(&profile0);
    let query_s = phase_samples.put(row) / 1e6;
    let run_into_us: f64 =
        OP_SPANS[3..].iter().map(|name| log.durations_us(name).iter().sum::<f64>()).sum();
    row.put("core.phase_closure", phases.total().as_secs_f64() * 1e6 / run_into_us, passes);
    for (name, &(m, n)) in OP_SPANS[3..].iter().zip(&DECODE_SHAPES[3..]) {
        let mut d = log.durations_us(name);
        let count = d.len() as u64;
        row.put(&format!("core.op_us.{}", shape_tag(m, n)), median(&mut d), count);
    }
    row.put("runtime.allocs_per_op", allocs as f64 / (passes * 7) as f64, passes * 7);
    row.put_noted(
        "obs.trace_overhead_ratio",
        median(&mut log.durations_us("decode.pass")) / biq_p50,
        passes,
        "traced / untraced median pass",
    );

    // Computed, not counted: b = 1 lookups of a pass from the shapes (Eq. 7),
    // and the bytes a lookup must move (2 B key + 4 B table entry).
    let mu = BiqConfig::default().mu;
    let lookups: u64 = DECODE_SHAPES.iter().map(|&(m, n)| t_r(m, n, mu, 1, BITS)).sum();
    let lut_bytes = fx.exec.arena().resident_lut_bytes();
    let gather_gbps = 6.0 * lookups as f64 / query_s / 1e9;
    let computed = "computed: Eq. 7 lookups, 2 B key + 4 B entry each, over query time";
    row.put_noted("core.lookups_per_s", lookups as f64 / query_s, passes, computed);
    row.put_noted("core.gather_gbps", gather_gbps, passes, computed);
    row.put("core.lut_resident_bytes", lut_bytes as f64, 1);

    // -- micro-measurements, each a slice of what is left of --seconds.
    let ws_bytes = 2 * lookups as usize + lut_bytes;
    let read_gbps =
        put_host(row, ws_bytes, "a buffer the size of a pass's keys + resident LUT", part);
    row.put("core.gather_bw_eff", gather_gbps / read_gbps, 1);

    let (hot, n_hot) = {
        let (exec, op, x, y) = (&mut fx.exec, &fx.ops[0], &fx.xs[0][0], &mut fx.ys[0]);
        median_per_call_us(part, 1, || exec.run_into(op, x, y))
    };
    row.put("core.hot_us.512x512", hot, n_hot);

    level_ratios(fx, row, 3.0 * part, biq_p50);
    baselines(fx, row, 2.0 * part);

    let tiny = make_layers(
        &mut MatrixRng::seed_from(args.seed ^ 0x88),
        &[("tiny".into(), 8, 8, false)],
        &mut SetupTimes::default(),
    );
    let tiny_op = compile_op(&tiny[0], BIQ, 1, Threading::Serial, None, None);
    let (tiny_x, mut tiny_y) = (ColMatrix::from_column(vec![1.0; 8]), vec![0.0f32; 8]);
    let mut tiny_exec = Executor::warmed_for(&tiny_op);
    let (dispatch_us, n_dispatch) =
        median_per_call_us(part, 200, || tiny_exec.run_into(&tiny_op, &tiny_x, &mut tiny_y));
    row.put_noted("runtime.dispatch_ns", dispatch_us * 1e3, n_dispatch, "run_into on an 8x8 op");

    put_setup_times(row, &fx.times, fx.layers.len());
    row.attempted = attempted;
    row.failed = failed;
    write_trace(&args.out_dir, DECODE, &[log], &[]);
}

/// A b = 1 pass at every `Exact` level the host has, in alternating blocks.
fn level_ratios(fx: &Fixture, row: &mut Row, seconds: f64, auto_p50: f64) {
    let levels = [KernelLevel::Avx512, KernelLevel::Avx2, KernelLevel::Scalar];
    // A level the host lacks runs an empty pass; its ratio is not reported.
    let [mut avx512, mut avx2, mut scalar] = levels.map(|level| {
        let layers = if level.is_supported() { &fx.layers[..] } else { &[] };
        Variant::new(layers, BIQ, Some(level))
    });
    let xs = &fx.xs[0];
    let mut v0 = || avx512.timed_pass(xs);
    let mut v1 = || avx2.timed_pass(xs);
    let mut v2 = || scalar.timed_pass(xs);
    let mut out = alternate(&mut [&mut v0, &mut v1, &mut v2], seconds);
    let [(p512, n512), (p2, n2), (pscalar, nscalar)] = medians(&mut out)[..] else {
        unreachable!("three variants")
    };
    if KernelLevel::Avx512.is_supported() && KernelLevel::Avx2.is_supported() {
        row.put("core.level_ratio.avx512_vs_avx2", p512 / p2, n512 + n2);
    } else {
        row.put_noted("core.level_ratio.avx512_vs_avx2", 0.0, 0, "host lacks avx512 or avx2");
    }
    row.put("core.level_ratio.scalar_vs_auto", pscalar / auto_p50, nscalar);
}

/// The same pass on the int8 and xnor baselines.
fn baselines(fx: &Fixture, row: &mut Row, seconds: f64) {
    let mut int8 = Variant::new(&fx.layers, BackendSpec::Int8, None);
    let mut xnor = Variant::new(&fx.layers, BackendSpec::Xnor { bits: BITS }, None);
    let xs = &fx.xs[0];
    let mut v_int8 = || int8.timed_pass(xs);
    let mut v_xnor = || xnor.timed_pass(xs);
    let mut out = alternate(&mut [&mut v_int8, &mut v_xnor], seconds);
    let [(int8_p50, n_int8), (xnor_p50, n_xnor)] = medians(&mut out)[..] else {
        unreachable!("two variants")
    };
    row.put("gemm.int8_us", int8_p50, n_int8);
    row.put("gemm.xnor_us", xnor_p50, n_xnor);
}
