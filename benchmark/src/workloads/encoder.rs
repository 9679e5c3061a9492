//! `encoder_b32` — the same `core` layer used differently. Library, closed
//! loop. One op is one `Encoder::forward` over a 32-token sequence (b = 32)
//! of a 2-layer, 8-head encoder loaded from a BIQM artifact written during
//! set-up (`CompiledModel::save` → `Artifact::open` → `from_artifact`). A
//! serial and a 2-thread-parallel build of the same model run in alternating
//! blocks.
//!
//! Why it exists: wide fused query (the AVX-512 path) instead of the b = 1
//! gather, LUT build + replace several times their `decode_b1` share, plus
//! `nn` (attention, layer norm), the artifact cold start and the
//! `core::parallel` path — a gather-only trick that hurts the fused path
//! shows here.

use crate::host;
use crate::measure::{
    alternate, median_per_call_us, medians, put_host, put_p99, put_setup_times, repeat_setup,
    time_us, PhaseSamples, RunArgs, Samples,
};
use crate::model::{
    artifact_round_trip, bits_equal, build_encoder, close_to_naive, encoder_of, encoder_shapes,
    kernel_levels, make_layers, Layer, SetupTimes, BIQ,
};
use crate::params::{
    shape_tag, BITS, D_MODEL, ENCODER, ENCODER_BLOCK_S, ENC_LAYERS, INPUT_POOL, SEQ,
    TRACE_CONTROL_SHARE, TRACE_TRACED_SHARE,
};
use crate::report::{Provenance, Row};
use crate::span::{write_trace, SpanLog};
use crate::stats::median;
use biq_matrix::{ColMatrix, MatrixRng};
use biq_nn::CompiledModel;
use biq_runtime::{BackendSpec, Executor, KernelLevel, Threading};
use std::cell::Cell;
use std::time::Instant;

struct Fixture {
    layers: Vec<Layer>,
    /// The measured model: serial BiQ plans, restored from the artifact.
    serial: CompiledModel,
    /// The same weights compiled with `Threading::Parallel` plans.
    parallel: CompiledModel,
    xs: Vec<ColMatrix>,
    /// Forward outputs of the `Exact(Scalar)` twin for `xs`.
    expected: Vec<Vec<f32>>,
    times: SetupTimes,
    oracle_ok: bool,
}

const ORDER: [usize; ENC_LAYERS] = [0, 1];

fn setup(seed: u64, artifact_path: &std::path::Path) -> Fixture {
    let t_start = Instant::now();
    let mut times = SetupTimes::default();
    let mut rng = MatrixRng::seed_from(seed);
    let layers = make_layers(&mut rng, &encoder_shapes(), &mut times);
    let built = build_encoder(&layers, &ORDER, BIQ, Threading::Serial, None, Some(&mut times));
    times.plan_us /= layers.len() as f64;
    let (_artifact, serial) = artifact_round_trip(&built, artifact_path, &mut times);
    let _ = std::fs::remove_file(artifact_path);
    let parallel = build_encoder(&layers, &ORDER, BIQ, Threading::Parallel, None, None);
    let scalar =
        build_encoder(&layers, &ORDER, BIQ, Threading::Serial, Some(KernelLevel::Scalar), None);
    let xs: Vec<ColMatrix> =
        (0..INPUT_POOL).map(|_| rng.gaussian_col(D_MODEL, SEQ, 0.0, 1.0)).collect();
    let expected: Vec<Vec<f32>> =
        xs.iter().map(|x| encoder_of(&scalar).forward(x).into_vec()).collect();
    // Reference vs gemm_naive on the dequantized weights, per linear of
    // layer 0, on a 4-column slice of the first input.
    let x4 = ColMatrix::from_vec(D_MODEL, 4, xs[0].as_slice()[..D_MODEL * 4].to_vec());
    let mut reference = Executor::new();
    let mut oracle_ok = scalar.named_linears().iter().zip(&layers).take(6).all(|((_, lin), l)| {
        let x = if l.n == D_MODEL { x4.clone() } else { rng.gaussian_col(l.n, 4, 0.0, 1.0) };
        close_to_naive(l, &x, reference.run(&lin.compiled_op(), &x).as_slice())
    });
    // Warm-up: arenas grow to the model's shapes, caches fill, and both
    // builds are proven bit-identical to the scalar reference.
    for (x, want) in xs.iter().zip(&expected) {
        oracle_ok &= bits_equal(encoder_of(&serial).forward(x).as_slice(), want);
        oracle_ok &= bits_equal(encoder_of(&parallel).forward(x).as_slice(), want);
    }
    times.total_s = t_start.elapsed().as_secs_f64();
    Fixture { layers, serial, parallel, xs, expected, times, oracle_ok }
}

/// Runs the workload.
pub fn run(args: &RunArgs, provenance: Provenance) -> Row {
    let path = args.scratch("encoder");
    let (fx, setup_s) = repeat_setup(args.setup_repeats, || setup(args.seed, &path));
    let mut row = Row::new(ENCODER, args.traced, provenance);
    let linears = fx.serial.named_linears();
    let ops: Vec<_> = linears.iter().map(|(n, l)| (n.clone(), l.compiled_op())).collect();
    row.provenance.push((
        "kernel_levels".into(),
        kernel_levels(ops.iter().map(|(n, op)| (n.as_str(), &**op))),
    ));
    row.provenance.push(("par_threads".into(), host::nproc().to_string()));
    row.correct = fx.oracle_ok;
    if args.traced {
        traced(args, &fx, &mut row);
    } else {
        untraced(args, &fx, &mut row, setup_s);
    }
    row
}

/// Counts verified forwards; shared by the alternating variants of a run.
#[derive(Default)]
struct Tally {
    next: Cell<usize>,
    attempted: Cell<u64>,
    failed: Cell<u64>,
}

impl Tally {
    /// One verified forward of `model` on the next pooled input; returns its
    /// time in µs and whether the output was bit-identical to the reference.
    fn forward(&self, model: &CompiledModel, fx: &Fixture, flip: bool) -> (f64, bool) {
        let i = self.next.replace(self.next.get() + 1);
        let pool = i % INPUT_POOL;
        let t0 = Instant::now();
        let mut y = encoder_of(model).forward(&fx.xs[pool]).into_vec();
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        if flip && i == 3 {
            y[0] = f32::from_bits(y[0].to_bits() ^ 1);
        }
        let ok = bits_equal(&y, &fx.expected[pool]);
        self.attempted.set(self.attempted.get() + 1);
        self.failed.set(self.failed.get() + u64::from(!ok));
        (us, ok)
    }
}

fn untraced(args: &RunArgs, fx: &Fixture, row: &mut Row, setup_s: f64) {
    // Serial and parallel builds alternate in short blocks, so that every
    // time slice of the summary sees both; latency is the serial build's,
    // throughput counts every verified forward of either.
    let block_s = ENCODER_BLOCK_S.min(args.seconds / 4.0);
    let mut serial = Samples::with_capacity((args.seconds * 400.0) as usize);
    let begin = Instant::now();
    let tally = Tally::default();
    let mut good_starts = Vec::with_capacity((args.seconds * 400.0) as usize);
    'run: loop {
        for model in [&fx.serial, &fx.parallel] {
            let block = Instant::now();
            while block.elapsed().as_secs_f64() < block_s {
                let at = begin.elapsed().as_secs_f64();
                if at >= args.seconds {
                    break 'run;
                }
                let (us, ok) = tally.forward(model, fx, args.flip_one);
                if ok {
                    good_starts.push(at);
                }
                if ok && std::ptr::eq(model, &fx.serial) {
                    serial.push(at, us);
                }
            }
        }
    }
    row.attempted = tally.attempted.get();
    row.failed = tally.failed.get();
    row.put("setup_s", setup_s, args.setup_repeats as u64);
    serial.put_end_to_end(row, Some(&good_starts), args.seconds);
    row.put("peak_rss_mib", host::peak_rss_mib(), 1);
}

fn traced(args: &RunArgs, fx: &Fixture, row: &mut Row) {
    let s = args.seconds;
    let part = s * (1.0 - TRACE_CONTROL_SHARE - TRACE_TRACED_SHARE) / 8.0;

    // -- control segment, untraced: BiQ serial, BiQ parallel and fp32 serial
    // forwards in alternating blocks.
    let fp32 =
        build_encoder(&fx.layers, &ORDER, BackendSpec::Fp32Blocked, Threading::Serial, None, None);
    let tally = Tally::default();
    let mut control = {
        let mut v_serial = || tally.forward(&fx.serial, fx, false).0;
        let mut v_par = || tally.forward(&fx.parallel, fx, false).0;
        let mut v_fp32 = || time_us(|| encoder_of(&fp32).forward(&fx.xs[0]));
        alternate(&mut [&mut v_serial, &mut v_par, &mut v_fp32], s * TRACE_CONTROL_SHARE)
    };
    drop(fp32);
    put_p99(row, &control[0]);
    let [(serial_p50, n_serial), (par_p50, n_par), (fp32_p50, n_fp32)] = medians(&mut control)[..]
    else {
        unreachable!("three variants")
    };
    row.put("speedup_vs_fp32", fp32_p50 / serial_p50, n_serial + n_fp32);
    row.put("par_speedup", serial_p50 / par_p50, n_serial + n_par);
    row.put("core.par_op_us", par_p50, n_par);
    row.put("core.par_efficiency", serial_p50 / par_p50 / host::nproc() as f64, n_serial + n_par);
    row.put("gemm.fp32_blocked_us", fp32_p50, n_fp32);

    // -- traced segment: a span around every serial forward, the model's
    // shared executor profile read around the segment.
    let traced_s = s * TRACE_TRACED_SHARE;
    let mut log = SpanLog::new(true, 0, (traced_s * 1e6 / serial_p50 * 1.5) as usize + 64);
    let exec = fx.serial.named_linears()[0].1.executor().clone();
    let mut phase_samples = PhaseSamples::default();
    let begin = Instant::now();
    let mut forwards = 0u64;
    while begin.elapsed().as_secs_f64() < traced_s {
        let before = exec.profile();
        log.enter("nn.forward", forwards);
        let _ = tally.forward(&fx.serial, fx, false);
        log.exit();
        phase_samples.push(&exec.profile().delta_since(&before));
        forwards += 1;
    }
    phase_samples.put(row);
    let forward_p50 = median(&mut log.durations_us("nn.forward"));
    row.put("nn.forward_us", forward_p50, forwards);
    row.put_noted(
        "obs.trace_overhead_ratio",
        forward_p50 / serial_p50,
        forwards,
        "traced / untraced median forward",
    );

    // -- micro-measurements.
    // The model's linears standalone at b = 32: through `Linear::forward`
    // (what the model pays) and through `Executor::run_into` (the kernel
    // alone, whose phase profile must close against its timed total).
    let linears = fx.serial.named_linears();
    let mut rng = MatrixRng::seed_from(args.seed ^ 0x32);
    let inputs: Vec<ColMatrix> =
        linears.iter().map(|(_, l)| rng.gaussian_col(l.in_features(), SEQ, 0.0, 1.0)).collect();
    let (linear_us, n_linear) = median_per_call_us(2.0 * part, 1, || {
        for ((_, l), x) in linears.iter().zip(&inputs) {
            std::hint::black_box(l.forward(x));
        }
    });
    row.put_noted("nn.linear_us", linear_us, n_linear, "the 12 linears standalone, per forward");
    row.put_noted(
        "nn.other_us",
        forward_p50 - linear_us,
        n_linear,
        "attention, softmax, LN, residual",
    );

    let ops: Vec<_> = linears.iter().map(|(_, l)| l.compiled_op()).collect();
    let mut sweep_exec = Executor::new();
    let mut ys: Vec<Vec<f32>> = ops.iter().map(|op| vec![0.0; op.output_size() * SEQ]).collect();
    for (op, (x, y)) in ops.iter().zip(inputs.iter().zip(&mut ys)) {
        sweep_exec.run_into(op, x, y);
    }
    let sweep_profile0 = *sweep_exec.profile();
    let mut per_op_us: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    let sweep_begin = Instant::now();
    while sweep_begin.elapsed().as_secs_f64() < 2.0 * part {
        for (k, op) in ops.iter().enumerate() {
            per_op_us[k].push(time_us(|| sweep_exec.run_into(op, &inputs[k], &mut ys[k])));
        }
    }
    let sweep_phases = sweep_exec.profile().delta_since(&sweep_profile0);
    let timed_total: f64 = per_op_us.iter().flatten().sum();
    let sweeps = per_op_us[0].len() as u64;
    row.put_noted(
        "core.phase_closure",
        sweep_phases.total().as_secs_f64() * 1e6 / timed_total,
        sweeps,
        "standalone run_into sweep over the 12 linears at b=32",
    );
    // Layer 0: wq is 512x512, ff1 2048x512, ff2 512x2048.
    for k in [0usize, 4, 5] {
        let (m, n) = (ops[k].output_size(), ops[k].input_size());
        row.put(&format!("core.op32_us.{}", shape_tag(m, n)), median(&mut per_op_us[k]), sweeps);
    }

    // The same forward on the int8 and xnor baselines.
    let int8 = build_encoder(&fx.layers, &ORDER, BackendSpec::Int8, Threading::Serial, None, None);
    let xnor = build_encoder(
        &fx.layers,
        &ORDER,
        BackendSpec::Xnor { bits: BITS },
        Threading::Serial,
        None,
        None,
    );
    let mut v_int8 = || time_us(|| encoder_of(&int8).forward(&fx.xs[0]));
    let mut v_xnor = || time_us(|| encoder_of(&xnor).forward(&fx.xs[0]));
    let mut base = alternate(&mut [&mut v_int8, &mut v_xnor], 2.0 * part);
    let [(int8_p50, n_int8), (xnor_p50, n_xnor)] = medians(&mut base)[..] else {
        unreachable!("two variants")
    };
    row.put("gemm.int8_us", int8_p50, n_int8);
    row.put("gemm.xnor_us", xnor_p50, n_xnor);

    let ws_bytes: usize = fx.layers.iter().map(|l| l.packed.keys().storage_bytes()).sum();
    put_host(row, ws_bytes, "a buffer the size of the model's keys", part);
    put_setup_times(row, &fx.times, fx.layers.len());
    row.attempted = tally.attempted.get();
    row.failed = tally.failed.get();
    write_trace(&args.out_dir, ENCODER, &[log], &[]);
}
