//! Fig. 10 reproduction: single-thread speedup over the `eigen`-role
//! baseline for m-by-1K matrices.
//!
//! Series, as in the paper: `eigen` (our blocked GEMM, the 1.0 reference),
//! `mkl` (our blocked GEMM with the GEMV fast path — a second tuned-library
//! stand-in), and BiQGEMM at 3/2/1-bit weights. Sweep: output size
//! m ∈ {1K, 2K, 4K}, batch ∈ {1, 8, 16, 32, 128, 256}, n = 1K.
//!
//! Fig. 10(b)'s mobile CPU is approximated by re-running with `--threads 1`
//! on this host (the paper's point there is only that a lower
//! compute:bandwidth ratio favours BiQGEMM at larger batches).
//!
//! Expected shape: BiQGEMM 1-bit fastest everywhere; BiQGEMM wins by a large
//! factor at batch ≤ 32 and larger m; the blocked fp32 baseline catches up
//! (and passes 3-bit BiQGEMM) at batch ≥ 128.

use biq_bench::args;
use biq_bench::table::{fmt_f, Table};
use biq_bench::timing::{auto_reps, measure};
use biq_bench::workloads::{binary_workload, biq_op};
use biq_gemm::{gemm_blocked, gemm_naive};
use biq_quant::greedy_quantize_matrix_rowwise;
use biq_runtime::WeightSource;
use biqgemm_core::BiqConfig;
use std::time::Duration;

fn main() {
    let a = args::parse();
    println!("{}", biq_bench::provenance(&a));
    let ms: Vec<usize> = if a.quick { vec![1024] } else { vec![1024, 2048, 4096] };
    let batches: Vec<usize> = if a.quick { vec![1, 32] } else { vec![1, 8, 16, 32, 128, 256] };
    let n = 1024;
    println!("Fig. 10: speedup over blocked fp32 GEMM ('eigen' role), n = {n}, 1 thread\n");
    let mut t = Table::new(&[
        "batch",
        "m",
        "eigen ms",
        "kCpu x",
        "BiQ 3-bit x",
        "BiQ 2-bit x",
        "BiQ 1-bit x",
    ]);
    let mut fewer_bits_faster = true;
    // 1-bit speedup per batch, at the largest m.
    let mut one_bit_by_batch = Vec::new();
    for &b in &batches {
        for &m in &ms {
            let w = binary_workload(m, n, b);
            let dense = w.signs.to_f32();
            // fp32 weights for the baselines: use the sign matrix widened —
            // sGEMM semantics (quantization gives them no speed benefit).
            let reps = auto_reps(Duration::from_millis(300), 3, 15, || gemm_blocked(&dense, &w.x));
            let eigen = measure(1, reps, || gemm_blocked(&dense, &w.x));
            // kCpu role: the textbook kernel [51], a second (weaker) fp32
            // baseline; the paper's MKL/Eigen pair is collapsed into the
            // blocked kernel above.
            let mkl = measure(1, reps, || gemm_naive(&dense, &w.x));
            // BiQGEMM at 1/2/3 bits. Weight quantization happens offline;
            // only matmul is timed.
            let wf = biq_bench::workloads::gaussian_weights(m, n, 0xf19 + m as u64);
            let mut biq_cols = Vec::new();
            for bits in [3usize, 2, 1] {
                let q = greedy_quantize_matrix_rowwise(&wf, bits);
                let (op, mut exec) = biq_op(
                    WeightSource::Quantized(&q),
                    (m, n, bits),
                    b,
                    BiqConfig::default(),
                    None,
                );
                let meas = measure(1, reps, || exec.run(&op, &w.x));
                biq_cols.push(eigen.median.as_secs_f64() / meas.median.as_secs_f64());
            }
            fewer_bits_faster &= biq_cols[2] > biq_cols[1] && biq_cols[1] > biq_cols[0];
            if Some(&m) == ms.last() {
                one_bit_by_batch.push(biq_cols[2]);
            }
            t.row(&[
                b.to_string(),
                m.to_string(),
                fmt_f(eigen.median_ms(), 2),
                fmt_f(eigen.median.as_secs_f64() / mkl.median.as_secs_f64(), 2),
                fmt_f(biq_cols[0], 2),
                fmt_f(biq_cols[1], 2),
                fmt_f(biq_cols[2], 2),
            ]);
        }
    }
    println!("{}", if a.csv { t.render_csv() } else { t.render() });
    println!(
        "{}",
        biq_bench::claim(
            "speedup over fp32 orders 1-bit > 2-bit > 3-bit at every point, and is larger \
             at the smallest batch than at the largest",
            fewer_bits_faster && one_bit_by_batch.first() > one_bit_by_batch.last(),
        )
    );
}
