//! Fig. 8 reproduction: runtime share of BiQGEMM's build / query / replace
//! phases as the output size `m` grows (n ∈ {1K, 2K}, b = 32, 1-bit
//! weights, µ = 8, single thread).
//!
//! Expected shape: the *query* share grows with `m` and dominates once
//! `m ≫ 2^µ` (the paper's point — most arithmetic becomes cheap retrievals).
//!
//! The same phase split then prices the two design choices the paper
//! argues from it: the bank layout (Fig. 6 — KeyMajor vs BatchMajor, a
//! query-phase difference) and the table-build method (Fig. 4 / Eq. 6 —
//! Algorithm 1's dynamic programming vs brute-force `M_µ · x`, a
//! build-phase difference).

use biq_bench::args;
use biq_bench::table::{fmt_f, Table};
use biq_bench::timing::auto_reps;
use biq_bench::workloads::{binary_workload, biq_op, BinaryWorkload};
use biq_runtime::WeightSource;
use biqgemm_core::{BiqConfig, LutBuildMethod, LutLayout};
use std::time::Duration;

/// Per-run build / query / replace milliseconds of a serial plan of `cfg`
/// over `w`, averaged over enough runs to fill ~300 ms.
fn phase_ms(w: &BinaryWorkload, cfg: BiqConfig) -> [f64; 3] {
    let (m, n) = w.signs.shape();
    let (op, mut exec) = biq_op(WeightSource::Signs(&w.signs), (m, n, 1), w.x.cols(), cfg, None);
    let mut y = vec![0.0f32; m * w.x.cols()];
    let reps = auto_reps(Duration::from_millis(300), 3, 30, || exec.run_into(&op, &w.x, &mut y));
    exec.reset_profile();
    for _ in 0..reps {
        exec.run_into(&op, &w.x, &mut y);
    }
    let p = exec.profile();
    [p.build, p.query, p.replace].map(|d| d.as_secs_f64() * 1e3 / reps as f64)
}

fn main() {
    let a = args::parse();
    println!("{}", biq_bench::provenance(&a));
    let (sizes, ns): (Vec<usize>, Vec<usize>) = if a.quick {
        (vec![512, 1024, 2048], vec![1024])
    } else {
        (vec![512, 1024, 2048, 4096, 8192], vec![1024, 2048])
    };
    let b = 32;
    println!("Fig. 8: BiQGEMM phase profile (1-bit weights, b = {b}, µ = 8, 1 thread)\n");
    let mut query_share_rises = true;
    for n in ns {
        let mut t = Table::new(&["m", "build %", "query %", "replace %", "total ms"]);
        let mut query_shares = Vec::new();
        for &m in &sizes {
            let phases = phase_ms(&binary_workload(m, n, b), BiqConfig::default());
            let total: f64 = phases.iter().sum();
            query_shares.push(phases[1] / total);
            let [build, query, replace] = phases.map(|ms| fmt_f(ms / total * 100.0, 1));
            t.row(&[m.to_string(), build, query, replace, fmt_f(total, 3)]);
        }
        query_share_rises &= query_shares.windows(2).all(|p| p[0] < p[1]);
        println!("n = {n}:");
        println!("{}", if a.csv { t.render_csv() } else { t.render() });
    }

    let (m, n) = (2048, 1024);
    println!("Layout (Fig. 6) and build method (Fig. 4 / Eq. 6) at {m}x{n}, in the same phases:\n");
    let mut t = Table::new(&["b", "layout", "build", "build ms", "query ms", "replace ms"]);
    // Build share of the default config (KeyMajor, DP) at b = 1 and b = 32.
    let mut build_shares = Vec::new();
    for b in [1usize, 32] {
        let w = binary_workload(m, n, b);
        for (layout, build) in [
            (LutLayout::KeyMajor, LutBuildMethod::DynamicProgramming),
            (LutLayout::BatchMajor, LutBuildMethod::DynamicProgramming),
            (LutLayout::KeyMajor, LutBuildMethod::Gemm),
        ] {
            let phases = phase_ms(&w, BiqConfig { layout, build, ..BiqConfig::default() });
            if (layout, build) == (LutLayout::KeyMajor, LutBuildMethod::DynamicProgramming) {
                build_shares.push(phases[0] / phases.iter().sum::<f64>());
            }
            let [build_ms, query_ms, replace_ms] = phases.map(|ms| fmt_f(ms, 3));
            t.row(&[
                b.to_string(),
                format!("{layout:?}"),
                format!("{build:?}"),
                build_ms,
                query_ms,
                replace_ms,
            ]);
        }
    }
    println!("{}", if a.csv { t.render_csv() } else { t.render() });
    println!(
        "{}",
        biq_bench::claim(
            "the query share grows with every step in m (the table build amortises), while \
             the build share grows with the batch (b = 1 → 32)",
            query_share_rises && build_shares[1] > build_shares[0],
        )
    );
}
