//! Ablation: thread scaling of row-parallel BiQGEMM vs blocked GEMM.
//!
//! The paper (Section IV-D): "multithreading linearly improves performance
//! of both BiQGEMM and GEMM that can be parallelized by tiling techniques."
//! This sweep verifies that claim on the host. Each BiQ task builds its own
//! copy of every LUT tile and reuses it for its row block.

use biq_bench::args;
use biq_bench::table::{fmt_f, Table};
use biq_bench::timing::{auto_reps, measure};
use biq_bench::workloads::{binary_workload, biq_op};
use biq_gemm::par_gemm_blocked;
use biq_runtime::WeightSource;
use biqgemm_core::{BiqConfig, BiqWeights, WorkerSet};
use std::time::Duration;

fn main() {
    let a = args::parse();
    println!("{}", biq_bench::provenance(&a));
    let (m, n, b) = if a.quick { (1024, 1024, 32) } else { (4096, 4096, 32) };
    let max_threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(4);
    let mut threads = vec![1usize, 2, 4, 8, 16];
    threads.retain(|&t| t <= max_threads);
    println!("Thread-scaling ablation: {m}x{n} 1-bit weights, batch {b}\n");
    let w = binary_workload(m, n, b);
    let dense = w.signs.to_f32();
    // One parallel plan per worker count — the count is a plan field, so
    // the sweep is a sweep over plans — over keys packed once.
    let packed = BiqWeights::from_signs_unscaled(&w.signs, BiqConfig::default().mu);
    let mut t = Table::new(&[
        "threads",
        "BiQ row-par ms",
        "blocked GEMM ms",
        "BiQ speedup vs 1T",
        "GEMM speedup vs 1T",
    ]);
    let mut base: Option<(f64, f64)> = None;
    // The blocked GEMM's persistent helpers (each BiQ executor owns its own).
    let pool = WorkerSet::new();
    // (BiQGEMM, GEMM) speedup vs one thread at the widest point measured.
    let mut widest = (1.0, 1.0);
    for &nt in &threads {
        let (op, mut exec) = biq_op(
            WeightSource::Packed(packed.clone()),
            (m, n, 1),
            b,
            BiqConfig::default(),
            Some(nt),
        );
        let reps = auto_reps(Duration::from_millis(400), 3, 15, || exec.run(&op, &w.x));
        let m_biq = measure(1, reps, || exec.run(&op, &w.x));
        let m_gemm = measure(1, reps, || par_gemm_blocked(&dense, &w.x, &pool, nt));
        let (b_biq, b_gemm) = *base.get_or_insert((m_biq.median_ms(), m_gemm.median_ms()));
        widest = (b_biq / m_biq.median_ms(), b_gemm / m_gemm.median_ms());
        t.row(&[
            nt.to_string(),
            fmt_f(m_biq.median_ms(), 2),
            fmt_f(m_gemm.median_ms(), 2),
            fmt_f(widest.0, 2),
            fmt_f(widest.1, 2),
        ]);
    }
    println!("{}", if a.csv { t.render_csv() } else { t.render() });
    println!(
        "{}",
        biq_bench::claim(
            &format!(
                "multithreading improves both BiQGEMM and blocked GEMM ({} threads vs 1; \
                 cannot hold on a one-core host)",
                threads.last().expect("1 is always kept")
            ),
            widest.0 > 1.0 && widest.1 > 1.0,
        )
    );
}
