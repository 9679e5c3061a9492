//! Choosing the LUT-unit µ: analytic model vs measurement.
//!
//! Walks µ over 2..=12 for a 4096×1024 matrix at batch 32 on the default
//! tiles, printing the Eq. 9 cost factor, the LUT bank's KiB (it grows as
//! `2^µ`, so a row whose bank leaves L2 shows it) and measured runtime —
//! showing why the paper lands on µ = 8.
//!
//! Run with: `cargo run --release --example tune_mu`

use biqgemm_repro::biq_matrix::MatrixRng;
use biqgemm_repro::biq_runtime::{
    compile, BackendSpec, Executor, PlanBuilder, QuantMethod, WeightSource,
};
use biqgemm_repro::biqgemm_core::complexity::{eq9_factor, model_speedup, optimal_mu};
use biqgemm_repro::biqgemm_core::BiqConfig;
use std::time::Instant;

fn main() {
    let (m, n, b) = (4096, 1024, 32);
    println!("µ tuning for a {m}x{n} binary matrix at batch {b}");
    println!("model optimum: µ* = argmin (2^µ + m)/(m·µ) = {}\n", optimal_mu(m));
    let mut g = MatrixRng::seed_from(0x3a);
    let signs = g.signs(m, n);
    let x = g.gaussian_col(n, b, 0.0, 1.0);
    println!(
        "{:>3} {:>12} {:>14} {:>12} {:>12}",
        "µ", "Eq.9 factor", "model speedup", "bank KiB", "measured ms"
    );
    for mu in 2..=12usize {
        let cfg = BiqConfig { mu, ..BiqConfig::default() };
        let plan = PlanBuilder::new(m, n)
            .batch_hint(b)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .config(cfg)
            .build();
        let op = compile(&plan, WeightSource::Signs(&signs));
        let mut exec = Executor::new();
        // One warmup + one measured run keeps the example fast; use the
        // mu_sweep bench binary for statistically solid numbers.
        let _ = exec.run(&op, &x);
        let t0 = Instant::now();
        let _ = exec.run(&op, &x);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "{mu:>3} {:>12.5} {:>14.2} {:>12} {:>12.2}",
            eq9_factor(m, mu),
            model_speedup(m, n, mu, b, 1),
            plan.scratch.lut_bank_floats * 4 / 1024,
            ms
        );
    }
    println!("\nThe measured minimum should sit near the model optimum (µ ≈ 8), with large µ");
    println!("penalised by table-build cost (2^µ) and cache pressure — paper Section IV-A.");
}
