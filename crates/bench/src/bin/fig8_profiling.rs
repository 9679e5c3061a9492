//! Fig. 8 reproduction: runtime share of BiQGEMM's build / query / replace
//! phases as the output size `m` grows (n ∈ {1K, 2K}, b = 32, 1-bit
//! weights, µ = 8, single thread).
//!
//! Expected shape: the *query* share grows with `m` and dominates once
//! `m ≫ 2^µ` (the paper's point — most arithmetic becomes cheap retrievals).
//!
//! The same phase split then shows the build share growing with the batch
//! (b = 1 → 32), and the standalone table builders price the build method
//! the paper argues for (Fig. 4 / Eq. 6 — Algorithm 1's dynamic
//! programming vs the brute-force `M_µ · x` product, one table at a time).
//! Where the bank's layout changes with the batch width, `ablation_batch_width`
//! shows it.

use biq_bench::args;
use biq_bench::table::{fmt_f, Table};
use biq_bench::timing::{auto_reps, measure};
use biq_bench::workloads::{binary_workload, biq_op, BinaryWorkload};
use biq_matrix::MatrixRng;
use biq_runtime::WeightSource;
use biqgemm_core::lut::{build_lut_bruteforce, build_lut_dp, dp_op_count};
use biqgemm_core::BiqConfig;
use std::hint::black_box;
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

/// Nanoseconds per table of `build` at µ = `x.len()`: the median of 15
/// timed batches, each of enough calls to fill about a millisecond.
fn ns_per_table(build: fn(&[f32], &mut [f32]), x: &[f32]) -> f64 {
    let mut q = vec![0.0f32; 1 << x.len()];
    let mut batch = |calls: usize| {
        for _ in 0..calls {
            build(black_box(x), &mut q);
            black_box(&mut q);
        }
    };
    let calls = auto_reps(Duration::from_millis(1), 1, 1 << 20, || batch(1));
    measure(2, 15, || batch(calls)).median_us() * 1e3 / calls as f64
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
    println!("Phases at {m}x{n}, b = 1 and b = 32:\n");
    let mut t = Table::new(&["b", "build ms", "query ms", "replace ms", "build %"]);
    let mut build_shares = Vec::new();
    for b in [1usize, 32] {
        let phases = phase_ms(&binary_workload(m, n, b), BiqConfig::default());
        let share = phases[0] / phases.iter().sum::<f64>();
        build_shares.push(share);
        let [build_ms, query_ms, replace_ms] = phases.map(|ms| fmt_f(ms, 3));
        t.row(&[b.to_string(), build_ms, query_ms, replace_ms, fmt_f(share * 100.0, 1)]);
    }
    println!("{}", if a.csv { t.render_csv() } else { t.render() });

    println!("Table build (Fig. 4 / Eq. 6): Algorithm 1 vs brute-force M_µ · x, one table:\n");
    let mut t = Table::new(&["mu", "DP ops", "brute ops", "DP ns", "brute ns", "brute / DP"]);
    let mut dp_cheaper = true;
    for mu in [4usize, 6, 8, 10, 12] {
        let x = MatrixRng::seed_from(mu as u64).gaussian_vec(mu);
        let (dp, brute) = (ns_per_table(build_lut_dp, &x), ns_per_table(build_lut_bruteforce, &x));
        dp_cheaper &= dp < brute;
        t.row(&[
            mu.to_string(),
            dp_op_count(mu).to_string(),
            ((1usize << mu) * mu).to_string(),
            fmt_f(dp, 1),
            fmt_f(brute, 1),
            fmt_f(brute / dp, 1),
        ]);
    }
    println!("{}", if a.csv { t.render_csv() } else { t.render() });
    println!(
        "{}",
        biq_bench::claim(
            "the query share grows with every step in m (the table build amortises), the \
             build share grows with the batch (b = 1 → 32), and Algorithm 1 builds a table \
             faster than M_µ · x at every µ",
            query_share_rises && build_shares[1] > build_shares[0] && dp_cheaper,
        )
    );
}
