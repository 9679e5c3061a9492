//! Convenience driver: regenerates every table/figure/ablation in sequence,
//! teeing each experiment's output into `results/<name>.txt`, then runs the
//! runtime-driven perf suite and writes `results/BENCH_biqgemm.json` — the
//! machine-readable trajectory record future changes are compared against.
//!
//! `cargo run --release -p biq-bench --bin run_all [-- --quick]`

use biq_bench::args;
use biq_bench::timing::{auto_reps, measure};
use biq_bench::workloads::binary_workload;
use biq_runtime::{
    compile, BackendSpec, Executor, KernelLevel, KernelRequest, PlanBuilder, QuantMethod,
    Threading, WeightSource,
};
use biqgemm_core::layout::LutBank;
use biqgemm_core::{BiqConfig, LutBuildMethod, LutLayout, PhaseProfile};
use std::io::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

const EXPERIMENTS: &[&str] = &[
    "table1_quant_quality",
    "table2_memory",
    "table3_machine",
    "table4_runtime",
    "fig8_profiling",
    "fig9_unpack",
    "fig10_speedup",
    "mu_sweep",
    "ablation_threads",
    "ablation_int8",
    // Writes results/BENCH_artifact.json itself (cold-start artifact load
    // vs re-quantize+pack from fp32).
    "load_bench",
];

/// One row of the JSON perf record.
struct BenchRow {
    m: usize,
    n: usize,
    b: usize,
    backend: &'static str,
    biqgemm_ns: u128,
    blocked_fp32_ns: u128,
}

impl BenchRow {
    fn speedup(&self) -> f64 {
        if self.biqgemm_ns == 0 {
            // 0 would only happen on timer-granularity underflow; emit a
            // finite value so the JSON stays parseable (NaN is not JSON).
            return 0.0;
        }
        self.blocked_fp32_ns as f64 / self.biqgemm_ns as f64
    }
}

/// Times BiQGEMM (runtime-planned, 1-bit weights) and blocked fp32 (same
/// runtime, same executor kind) on one workload; both paths go through the
/// plan/executor so the numbers include exactly the serving-path overheads.
fn bench_workload(m: usize, n: usize, b: usize, threads: Option<usize>) -> BenchRow {
    let w = binary_workload(m, n, b);
    let dense = w.signs.to_f32();

    let mut biq_builder = PlanBuilder::new(m, n)
        .batch_hint(b)
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy });
    if let Some(t) = threads {
        biq_builder = biq_builder.threads(t);
    }
    let biq_plan = biq_builder.build();
    let biq_op = compile(&biq_plan, WeightSource::Signs(&w.signs));
    let mut biq_exec = Executor::warmed_for(&biq_op);
    let mut y = vec![0.0f32; m * b];

    let mut fp_builder = PlanBuilder::new(m, n).batch_hint(b).backend(BackendSpec::Fp32Blocked);
    if let Some(t) = threads {
        fp_builder = fp_builder.threads(t);
    }
    let fp_plan = fp_builder.build();
    let fp_op = compile(&fp_plan, WeightSource::Dense(&dense));
    let mut fp_exec = Executor::warmed_for(&fp_op);

    let reps =
        auto_reps(Duration::from_millis(200), 3, 20, || biq_exec.run_into(&biq_op, &w.x, &mut y));
    // Best of two passes per side: the record is a regression baseline, so
    // the robust statistic is the min-of-medians — scheduler noise is
    // one-sided (it only ever slows a pass down) and a noisy-low baseline
    // would make every future `biq bench check` brittle.
    let biq_ns = (0..2)
        .map(|_| measure(1, reps, || biq_exec.run_into(&biq_op, &w.x, &mut y)).median.as_nanos())
        .min()
        .expect("two passes");
    let fp_ns = (0..2)
        .map(|_| measure(1, reps, || fp_exec.run_into(&fp_op, &w.x, &mut y)).median.as_nanos())
        .min()
        .expect("two passes");

    BenchRow { m, n, b, backend: biq_op.backend_name(), biqgemm_ns: biq_ns, blocked_fp32_ns: fp_ns }
}

/// One row of the per-kernel-level record (`BENCH_simd.json`).
struct SimdRow {
    m: usize,
    n: usize,
    b: usize,
    level: KernelLevel,
    /// What a plan-time `Auto` request resolves to **for this workload's
    /// shape** — since the width-1 clamp, Auto is batch-hint-aware, so the
    /// pick can differ between the b = 1 and b = 8 rows of one sweep.
    auto: KernelLevel,
    /// Median of the full serial BiQGEMM pass (query-dominated — the fused
    /// lookup-accumulate kernel under test).
    query_ns: u128,
    /// Median of one KeyMajor DP bank build at the config's tile shape.
    lut_build_ns: u128,
}

/// Times the fused query kernel and the LUT build at every kernel level
/// the host supports, identical `BiqConfig::default()` tiles throughout —
/// the only variable is the pinned level.
fn bench_simd_levels() -> (Vec<SimdRow>, KernelLevel) {
    let host_best = KernelRequest::Auto.resolve().expect("auto always resolves").level();
    let mut rows = Vec::new();
    for &(m, n, b) in &[(512usize, 512usize, 1usize), (512, 512, 8), (2048, 1024, 1)] {
        let w = binary_workload(m, n, b);
        // The shape-aware Auto pick: build a plan without pinning a level
        // and read back what the planner chose for this batch hint.
        let auto_level = PlanBuilder::new(m, n)
            .batch_hint(b)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .threading(Threading::Serial)
            .build()
            .kernel
            .level();
        for level in biqgemm_core::simd::supported_levels() {
            let cfg = BiqConfig { kernel: KernelRequest::Exact(level), ..BiqConfig::default() };
            let plan = PlanBuilder::new(m, n)
                .batch_hint(b)
                .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
                .threading(Threading::Serial)
                .config(cfg)
                .build();
            let op = compile(&plan, WeightSource::Signs(&w.signs));
            let mut exec = Executor::warmed_for(&op);
            let mut y = vec![0.0f32; m * b];
            let reps =
                auto_reps(Duration::from_millis(120), 3, 20, || exec.run_into(&op, &w.x, &mut y));
            // Min of two median passes — same one-sided-noise rationale as
            // `bench_workload`.
            let query_ns = (0..2)
                .map(|_| measure(1, reps, || exec.run_into(&op, &w.x, &mut y)).median.as_nanos())
                .min()
                .expect("two passes");

            let kernel = plan.kernel;
            let input = biq_matrix::reshape::ChunkedInput::new(&w.x, cfg.mu);
            let nc = cfg.tile_chunks.min(input.num_chunks());
            let nb = cfg.tile_batch.min(b);
            let mut bank = LutBank::new(cfg.mu, LutLayout::KeyMajor);
            bank.reserve(nc, nb);
            let mut prof = PhaseProfile::new();
            let m_build = measure(1, reps.max(20), || {
                bank.build(
                    &input,
                    0,
                    nc,
                    0,
                    nb,
                    LutBuildMethod::DynamicProgramming,
                    &mut prof,
                    kernel,
                )
            });
            rows.push(SimdRow {
                m,
                n,
                b,
                level,
                auto: auto_level,
                query_ns,
                lut_build_ns: m_build.median.as_nanos(),
            });
        }
    }
    (rows, host_best)
}

fn write_simd_json(rows: &[SimdRow], path: &str) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\"workload\": \"m={m} n={n} b={b}\", \"m\": {m}, \"n\": {n}, \"b\": {b}, ",
                "\"level\": \"{level}\", \"auto_picked\": \"{auto}\", \"is_auto_level\": {is_auto}, ",
                "\"query_median_ns\": {query}, \"lut_build_median_ns\": {build}}}{comma}\n"
            ),
            m = r.m,
            n = r.n,
            b = r.b,
            level = r.level.name(),
            auto = r.auto.name(),
            is_auto = r.level == r.auto,
            query = r.query_ns,
            build = r.lut_build_ns,
            comma = if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

fn write_bench_json(rows: &[BenchRow], path: &str) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\"workload\": \"m={m} n={n} b={b}\", \"m\": {m}, \"n\": {n}, ",
                "\"b\": {b}, \"backend\": \"{backend}\", \"biqgemm_median_ns\": {biq}, ",
                "\"blocked_fp32_median_ns\": {fp}, \"speedup_vs_blocked_fp32\": {speedup:.3}}}{comma}\n"
            ),
            m = r.m,
            n = r.n,
            b = r.b,
            backend = r.backend,
            biq = r.biqgemm_ns,
            fp = r.blocked_fp32_ns,
            speedup = r.speedup(),
            comma = if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

fn main() {
    let a = args::parse();
    let pass_args: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .expect("cannot locate binary directory");
    std::fs::create_dir_all("results").expect("create results/");
    let mut failures = 0;
    for name in EXPERIMENTS {
        print!("running {name} ... ");
        std::io::stdout().flush().ok();
        let bin = exe_dir.join(name);
        let out = Command::new(&bin).args(&pass_args).output();
        match out {
            Ok(o) if o.status.success() => {
                let path = format!("results/{name}.txt");
                std::fs::write(&path, &o.stdout).expect("write result");
                println!("ok -> {path}");
            }
            Ok(o) => {
                failures += 1;
                println!("FAILED (exit {:?})", o.status.code());
                eprintln!("{}", String::from_utf8_lossy(&o.stderr));
            }
            Err(e) => {
                failures += 1;
                println!(
                    "FAILED to launch: {e} (build with `cargo build --release -p biq-bench` first)"
                );
            }
        }
    }

    // Host-speed canary: a fixed serial multiply–add chain recorded next
    // to the perf baselines. `biq bench check` re-measures the identical
    // chain and divides out the ratio, so the gate compares code, not the
    // host's mood (co-tenant load, frequency, steal time) at baseline time
    // vs gate time.
    print!("running host canary ... ");
    std::io::stdout().flush().ok();
    let canary_ns = biq_bench::timing::host_canary_ns();
    let host_path = "results/BENCH_host.json";
    std::fs::write(
        host_path,
        format!(
            "[\n  {{\"what\": \"serial mul-add chain, 400k links — host speed reference \
             for drift normalization in `biq bench check`\", \"canary_ns\": {canary_ns}}}\n]\n"
        ),
    )
    .expect("write BENCH_host.json");
    println!("ok -> {host_path} (canary {canary_ns} ns)");

    // Runtime-driven perf record: small-batch serving shapes first (the
    // paper's target regime and the arena-reuse fast path), then the
    // larger-batch parallel shapes.
    print!("running runtime perf suite ... ");
    std::io::stdout().flush().ok();
    let shapes: &[(usize, usize, usize)] = if a.quick {
        &[(512, 512, 1), (512, 512, 8)]
    } else {
        &[(1024, 1024, 1), (1024, 1024, 8), (1024, 1024, 32), (2048, 2048, 1), (2048, 2048, 32)]
    };
    // Honor --threads for the runtime suite too: the plan carries it, for
    // the serial/parallel decision and the parallel drivers alike.
    let rows: Vec<BenchRow> =
        shapes.iter().map(|&(m, n, b)| bench_workload(m, n, b, a.threads)).collect();
    let json_path = "results/BENCH_biqgemm.json";
    write_bench_json(&rows, json_path).expect("write BENCH_biqgemm.json");
    println!("ok -> {json_path}");
    for r in &rows {
        println!(
            "  m={} n={} b={} [{}]: biqgemm {} ns vs blocked fp32 {} ns ({:.2}x)",
            r.m,
            r.n,
            r.b,
            r.backend,
            r.biqgemm_ns,
            r.blocked_fp32_ns,
            r.speedup()
        );
    }

    // Per-kernel-level record: the fused query kernel and the DP LUT build
    // at every level the host supports (scalar vs avx2 vs avx512 / neon),
    // plus which level a plan-time Auto picks for each workload's shape
    // (batch-hint-aware since the width-1 clamp) — results are
    // bit-identical across levels, so this sweep is pure speed.
    print!("running simd level sweep ... ");
    std::io::stdout().flush().ok();
    let (simd_rows, host_best) = bench_simd_levels();
    let simd_path = "results/BENCH_simd.json";
    write_simd_json(&simd_rows, simd_path).expect("write BENCH_simd.json");
    println!("ok -> {simd_path} (host best = {host_best})");
    for r in &simd_rows {
        println!(
            "  m={} n={} b={} [{}{}]: query {} ns, lut build {} ns",
            r.m,
            r.n,
            r.b,
            r.level.name(),
            if r.level == r.auto { " = auto" } else { "" },
            r.query_ns,
            r.lut_build_ns
        );
    }

    // Serving-layer record: the `biq` binary's serve-bench replays
    // open-loop single-column traffic through `biq_serve`, unbatched vs
    // batched, and writes results/BENCH_serve.json next to the kernel
    // record above.
    print!("running serve-bench ... ");
    std::io::stdout().flush().ok();
    let mut serve_args: Vec<String> =
        vec!["serve-bench".into(), "--out".into(), "results/BENCH_serve.json".into()];
    if a.quick {
        serve_args.push("--quick".into());
    }
    match Command::new(exe_dir.join("biq")).args(&serve_args).output() {
        Ok(o) if o.status.success() => {
            println!("ok -> results/BENCH_serve.json");
            print!("{}", String::from_utf8_lossy(&o.stdout));
        }
        Ok(o) => {
            failures += 1;
            println!("FAILED (exit {:?})", o.status.code());
            eprintln!("{}", String::from_utf8_lossy(&o.stderr));
        }
        Err(e) => {
            failures += 1;
            println!("FAILED to launch: {e} (build with `cargo build --release -p biq_cli` first)");
        }
    }

    // Network record: the `biq` binary's net-bench replays the same
    // single-column traffic in-process and through a loopback TCP round
    // trip (`serve::net`), so the wire tax is measured, not guessed.
    print!("running net-bench ... ");
    std::io::stdout().flush().ok();
    let mut net_args: Vec<String> =
        vec!["net-bench".into(), "--out".into(), "results/BENCH_net.json".into()];
    if a.quick {
        net_args.push("--quick".into());
    }
    match Command::new(exe_dir.join("biq")).args(&net_args).output() {
        Ok(o) if o.status.success() => {
            println!("ok -> results/BENCH_net.json");
            print!("{}", String::from_utf8_lossy(&o.stdout));
        }
        Ok(o) => {
            failures += 1;
            println!("FAILED (exit {:?})", o.status.code());
            eprintln!("{}", String::from_utf8_lossy(&o.stderr));
        }
        Err(e) => {
            failures += 1;
            println!("FAILED to launch: {e} (build with `cargo build --release -p biq_cli` first)");
        }
    }

    if failures > 0 {
        std::process::exit(1);
    }
    println!("\nall experiments regenerated under results/");
}
