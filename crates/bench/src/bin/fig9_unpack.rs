//! Fig. 9 reproduction: the cost of unpacking bit-packed weights for
//! conventional GEMM (1-bit quantized weights, square matrices, batch
//! 32/64/128).
//!
//! Three scenarios, exactly as the paper defines them:
//!
//! * `w/o unpack` — multiply the packed 32-bit containers directly
//!   (intentionally wrong results): isolates the bandwidth benefit;
//! * `sGEMM`     — one weight per 32-bit container (= fp32 GEMM speed);
//! * `w/ unpack` — Algorithm-3 unpack inside the kernel, then multiply.
//!
//! Expected shape: `w/o unpack` fastest, `sGEMM` in between, `w/ unpack`
//! slowest — i.e. decompression overhead outweighs the bandwidth gain, which
//! is the motivation for BiQGEMM's key-as-index design.

use biq_bench::args;
use biq_bench::table::{fmt_f, Table};
use biq_bench::timing::{auto_reps, measure};
use biq_bench::workloads::binary_workload;
use biq_gemm::packed_sgemm::DenseBinaryWeights;
use biq_gemm::unpack_gemm::{gemm_with_unpack, gemm_with_unpack_amortized, gemm_without_unpack};
use biq_quant::packing::PackedRowsU32;
use std::time::Duration;

fn main() {
    let a = args::parse();
    println!("{}", biq_bench::provenance(&a));
    let sizes: Vec<usize> = if a.quick { vec![512, 1024] } else { vec![1024, 2048] };
    let batches: Vec<usize> = if a.quick { vec![32] } else { vec![32, 64, 128] };
    println!("Fig. 9: unpacking overhead for GEMM on 1-bit packed weights (1 thread)\n");
    let mut t = Table::new(&[
        "matrix",
        "batch",
        "w/o unpack ms",
        "sGEMM ms",
        "w/ unpack ms",
        "w/ unpack (amortized) ms",
        "unpack overhead x",
    ]);
    // Milliseconds summed over the sweep: [w/o unpack, sGEMM, w/ unpack]. The
    // three sit within a few percent of each other, so single points are noise.
    let mut totals = [0.0f64; 3];
    for &n in &sizes {
        for &b in &batches {
            let w = binary_workload(n, n, b);
            let packed = PackedRowsU32::pack(&w.signs);
            let dense = DenseBinaryWeights::unscaled(&w.signs);
            let reps =
                auto_reps(Duration::from_millis(400), 3, 20, || gemm_with_unpack(&packed, &w.x));
            let m_wo = measure(1, reps, || gemm_without_unpack(&packed, &w.x));
            let m_sg = measure(1, reps, || dense.sgemm_naive(&w.x));
            let m_wi = measure(1, reps, || gemm_with_unpack(&packed, &w.x));
            let m_am = measure(1, reps, || gemm_with_unpack_amortized(&packed, &w.x));
            for (total, m) in totals.iter_mut().zip([m_wo, m_sg, m_wi]) {
                *total += m.median_ms();
            }
            t.row(&[
                format!("{n}x{n}"),
                b.to_string(),
                fmt_f(m_wo.median_ms(), 2),
                fmt_f(m_sg.median_ms(), 2),
                fmt_f(m_wi.median_ms(), 2),
                fmt_f(m_am.median_ms(), 2),
                fmt_f(m_wi.median_ms() / m_sg.median_ms(), 2),
            ]);
        }
    }
    println!("{}", if a.csv { t.render_csv() } else { t.render() });
    println!(
        "{}",
        biq_bench::claim(
            "summed over the sweep, w/o unpack < sGEMM < w/ unpack: bit-packed weights run \
             slower than full precision through a conventional GEMM",
            totals[0] < totals[1] && totals[1] < totals[2],
        )
    );
}
