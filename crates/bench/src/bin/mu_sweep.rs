//! Ablation: empirical runtime vs LUT-unit µ, against the Eq. 9 model.
//!
//! The paper optimises µ analytically (`argmin_µ (2^µ + m)/(m·µ)`, ≈ 8 for
//! its sizes) and confirms empirically. This sweep reproduces that check:
//! for each µ we re-pack the weights and time the serial kernel on the
//! default tiles (`BiqConfig { mu, ..BiqConfig::default() }`); the model
//! column is Eq. 9's factor normalised to µ = 8. The bank grows as `2^µ`, so
//! each row prints its LUT bank's KiB: a row whose bank leaves L2 shows it.

use biq_bench::args;
use biq_bench::table::{fmt_f, Table};
use biq_bench::timing::{auto_reps, measure};
use biq_bench::workloads::{binary_workload, biq_op};
use biq_runtime::WeightSource;
use biqgemm_core::complexity::{eq9_factor, optimal_mu};
use biqgemm_core::BiqConfig;
use std::time::Duration;

fn main() {
    let a = args::parse();
    println!("{}", biq_bench::provenance(&a));
    let (m, n, b) = if a.quick { (1024, 1024, 32) } else { (4096, 1024, 32) };
    let mus: Vec<usize> = if a.quick { vec![4, 6, 8, 10] } else { vec![2, 4, 6, 8, 10, 12] };
    println!("µ sweep ablation: m = {m}, n = {n}, b = {b}, 1-bit weights, 1 thread");
    println!("(model optimum for m = {m}: µ* = {})\n", optimal_mu(m));
    let w = binary_workload(m, n, b);
    let mut t = Table::new(&["µ", "bank KiB", "runtime ms", "speedup vs µ=8", "Eq.9 model (rel)"]);
    let mut baseline_ms = None;
    let mut rows = Vec::new();
    for &mu in &mus {
        let cfg = BiqConfig { mu, ..BiqConfig::default() };
        let (op, mut exec) = biq_op(WeightSource::Signs(&w.signs), (m, n, 1), b, cfg, None);
        let reps = auto_reps(Duration::from_millis(250), 3, 15, || exec.run(&op, &w.x));
        let meas = measure(1, reps, || exec.run(&op, &w.x));
        if mu == 8 {
            baseline_ms = Some(meas.median_ms());
        }
        rows.push((mu, op.plan().scratch.lut_bank_floats * 4 / 1024, meas.median_ms()));
    }
    let base = baseline_ms.unwrap_or(rows[rows.len() / 2].2);
    let model_base = eq9_factor(m, 8);
    let fastest_mu = rows
        .iter()
        .min_by(|x, y| x.2.total_cmp(&y.2))
        .map(|&(mu, ..)| mu)
        .expect("non-empty sweep");
    for (mu, kib, ms) in rows {
        t.row(&[
            mu.to_string(),
            kib.to_string(),
            fmt_f(ms, 3),
            fmt_f(base / ms, 2),
            fmt_f(eq9_factor(m, mu) / model_base, 2),
        ]);
    }
    println!("{}", if a.csv { t.render_csv() } else { t.render() });
    println!(
        "{}",
        biq_bench::claim(
            "the fastest LUT-unit is near the model optimum µ ≈ 8 (one of 6, 8, 10)",
            [6, 8, 10].contains(&fastest_mu),
        )
    );
}
