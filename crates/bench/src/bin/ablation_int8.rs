//! Ablation: INT8 fixed-point GEMM vs BiQGEMM — the Section II-A contrast.
//!
//! Measures (a) the INT8 pipeline's conversion share (dynamic activation
//! quantization + output rescale; the paper quotes 15–30% overhead around
//! float-demanding ops) and (b) end-to-end runtime against BiQGEMM at 1–3
//! weight bits and the fp32 blocked baseline.

use biq_bench::args;
use biq_bench::table::{fmt_f, Table};
use biq_bench::timing::{auto_reps, measure};
use biq_bench::workloads::{binary_workload, biq_op, gaussian_weights};
use biq_gemm::gemm_blocked;
use biq_gemm::int8::{Int8Phases, Int8Weights};
use biq_quant::greedy_quantize_matrix_rowwise;
use biq_runtime::WeightSource;
use biqgemm_core::BiqConfig;
use std::time::Duration;

fn main() {
    let a = args::parse();
    println!("{}", biq_bench::provenance(&a));
    let sizes: Vec<usize> = if a.quick { vec![512] } else { vec![1024, 2048] };
    let batches: Vec<usize> = if a.quick { vec![32] } else { vec![1, 32] };
    println!("INT8 vs BiQGEMM ablation (1 thread)\n");
    let mut t = Table::new(&[
        "matrix",
        "batch",
        "fp32 ms",
        "INT8 ms",
        "INT8 conv %",
        "BiQ 2-bit ms",
        "BiQ 1-bit ms",
    ]);
    let mut holds = true;
    for &n in &sizes {
        for &b in &batches {
            let wload = binary_workload(n, n, b);
            let wf = gaussian_weights(n, n, 0x148 + n as u64);
            let int8 = Int8Weights::quantize(&wf);
            let reps = auto_reps(Duration::from_millis(300), 3, 12, || gemm_blocked(&wf, &wload.x));
            let m_fp = measure(1, reps, || gemm_blocked(&wf, &wload.x));
            let mut phases = Int8Phases::default();
            let m_int8 = measure(1, reps, || int8.forward(&wload.x, &mut phases));
            let mut biq_ms = Vec::new();
            for bits in [2usize, 1] {
                let q = greedy_quantize_matrix_rowwise(&wf, bits);
                let (op, mut exec) = biq_op(
                    WeightSource::Quantized(&q),
                    (n, n, bits),
                    b,
                    BiqConfig::default(),
                    None,
                );
                biq_ms.push(measure(1, reps, || exec.run(&op, &wload.x)).median_ms());
            }
            holds &= phases.conversion_fraction() > 0.0 && biq_ms[1] < m_int8.median_ms();
            t.row(&[
                format!("{n}x{n}"),
                b.to_string(),
                fmt_f(m_fp.median_ms(), 2),
                fmt_f(m_int8.median_ms(), 2),
                fmt_f(phases.conversion_fraction() * 100.0, 1),
                fmt_f(biq_ms[0], 2),
                fmt_f(biq_ms[1], 2),
            ]);
        }
    }
    println!("{}", if a.csv { t.render_csv() } else { t.render() });
    println!(
        "{}",
        biq_bench::claim(
            "INT8 pays an activation-conversion share that BiQGEMM does not, and 1-bit \
             BiQGEMM is faster than INT8 at every point",
            holds,
        )
    );
}
