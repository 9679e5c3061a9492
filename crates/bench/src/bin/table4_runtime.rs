//! Table IV reproduction (GPU substituted by multi-threaded CPU analogs):
//! runtime of BiQGEMM vs the `kGpu`, `cublas` and `xnor` roles on square
//! 1-bit-quantized weight matrices.
//!
//! Role mapping:
//!
//! * `BiQGEMM` — our parallel LUT kernel;
//! * `kGpu`    — parallel naive GEMM (unbatched textbook kernel, the paper's
//!   modified CUDA-samples baseline);
//! * `cublas`  — parallel blocked GEMM (vendor-library role);
//! * `xnor`    — parallel-free XNOR-popcount (weights *and* activations
//!   1-bit) — the only scheme allowed to quantize activations.
//!
//! Expected shape: BiQGEMM beats `kGpu` everywhere (by more at large n /
//! small b); `xnor` is strong at large batch; BiQGEMM is best at small
//! batch.

use biq_bench::args;
use biq_bench::table::{fmt_f, Table};
use biq_bench::timing::{auto_reps, measure};
use biq_bench::workloads::{binary_workload, biq_op};
use biq_gemm::xnor::{xnor_gemm, XnorWeights};
use biq_gemm::{par_gemm_blocked, par_gemm_naive};
use biq_quant::packing::PackedRowsU64;
use biq_runtime::WeightSource;
use biqgemm_core::{BiqConfig, WorkerSet};
use std::time::Duration;

fn main() {
    let a = args::parse();
    println!("{}", biq_bench::provenance(&a));
    let sizes: Vec<usize> = if a.quick { vec![512, 1024] } else { vec![512, 1024, 2048, 4096] };
    let batches: Vec<usize> = if a.quick { vec![1, 32] } else { vec![1, 32, 128, 256] };
    // `--threads` reaches the BiQGEMM plan and the dense drivers alike.
    let workers = a.workers();
    println!(
        "Table IV (GPU roles substituted by CPU analogs, {workers} threads): runtime in µs, 1-bit weights\n"
    );
    let mut t = Table::new(&[
        "weights",
        "batch",
        "BiQGEMM us",
        "kGpu us",
        "cublas us",
        "xnor us",
        "BiQ/kGpu speedup",
    ]);
    let mut fastest_at_b1 = true;
    // One persistent worker set for the dense roles, as the BiQGEMM plans'
    // executors each own one: no role pays a thread spawn per call.
    let pool = WorkerSet::new();
    for &n in &sizes {
        let xnor_kernel = biqgemm_core::KernelRequest::Auto.resolve().expect("auto resolves");
        for &b in &batches {
            let w = binary_workload(n, n, b);
            let dense = w.signs.to_f32();
            let (op, mut exec) = biq_op(
                WeightSource::Signs(&w.signs),
                (n, n, 1),
                b,
                BiqConfig::default(),
                Some(workers),
            );
            let xw = XnorWeights::new(vec![(vec![1.0f32; n], PackedRowsU64::pack(&w.signs))]);
            let reps = auto_reps(Duration::from_millis(300), 3, 20, || exec.run(&op, &w.x));
            let m_biq = measure(1, reps, || exec.run(&op, &w.x));
            let m_kgpu = measure(1, reps, || par_gemm_naive(&dense, &w.x, &pool, workers));
            let m_cublas = measure(1, reps, || par_gemm_blocked(&dense, &w.x, &pool, workers));
            let m_xnor = measure(1, reps, || xnor_gemm(&xw, &w.x, xnor_kernel));
            if b == 1 {
                fastest_at_b1 &= [m_kgpu, m_cublas, m_xnor].iter().all(|o| m_biq.median < o.median);
            }
            t.row(&[
                format!("{n}x{n}"),
                b.to_string(),
                fmt_f(m_biq.median_us(), 0),
                fmt_f(m_kgpu.median_us(), 0),
                fmt_f(m_cublas.median_us(), 0),
                fmt_f(m_xnor.median_us(), 0),
                fmt_f(m_kgpu.median.as_secs_f64() / m_biq.median.as_secs_f64(), 2),
            ]);
        }
    }
    println!("{}", if a.csv { t.render_csv() } else { t.render() });
    println!(
        "{}",
        biq_bench::claim(
            "at batch 1 BiQGEMM is faster than the kGpu, cublas and xnor roles at every size",
            fastest_at_b1,
        )
    );
}
