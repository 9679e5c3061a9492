//! Ablation: cost of one BiQGEMM as a function of the batch width, per
//! kernel level.
//!
//! The paper's Fig. 10 story is that the LUT kernel's advantage is largest
//! at small batch. For that to survive a dynamic batcher — which packs
//! whatever the window yields, typically 2–7 columns — a ragged width must
//! cost no more than the next full vector group: the `nb mod g` lanes of a
//! row ride one masked pass of the level's `g`-lane body instead of a scalar
//! tail. This sweep times serial 2-bit multiplications at every width
//! 1…16, 18 (the paper's Table II batch) and 32 on each level the host
//! supports and checks that shape. The scalar level has no lane group: it
//! is printed as the reference and takes no part in the claim.

use biq_bench::args;
use biq_bench::table::{fmt_f, Table};
use biq_bench::workloads::{biq_op, gaussian_weights, shape_seed};
use biq_matrix::MatrixRng;
use biq_runtime::WeightSource;
use biqgemm_core::simd::supported_levels;
use biqgemm_core::{BiqConfig, KernelLevel, KernelRequest};
use std::time::Instant;

/// Batch lanes one vector of the level's fused query holds.
fn lane_group(level: KernelLevel) -> Option<usize> {
    match level {
        KernelLevel::Scalar => None,
        KernelLevel::Neon => Some(4),
        KernelLevel::Avx2 => Some(8),
        KernelLevel::Avx512 => Some(16),
    }
}

/// How much dearer than its full group a ragged width may be.
const TOLERANCE: f64 = 1.25;

fn main() {
    let a = args::parse();
    println!("{}", biq_bench::provenance(&a));
    // Low decile of the calls: this VM's neighbours slow it in bursts, and
    // the claim is about what the code costs, not about them.
    let calls = if a.quick { 30 } else { 150 };
    let shapes: &[(usize, usize)] =
        if a.quick { &[(512, 512)] } else { &[(512, 512), (2048, 512), (512, 2048)] };
    let bits = 2;
    let mut widths: Vec<usize> = (1..=16).collect();
    widths.extend([18, 32]);
    println!(
        "Batch-width ablation: {bits}-bit weights, BiqConfig::default(), 1 thread, \
         low decile of {calls} calls, µs\n"
    );
    let mut header = vec!["level".to_string(), "m x n".to_string()];
    header.extend(widths.iter().map(|b| format!("b={b}")));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    // Per level with a lane group: its worst ragged width — the cost over
    // its full group's, and where.
    let mut worst: Vec<(f64, String)> = Vec::new();
    for level in supported_levels() {
        let cfg = BiqConfig { kernel: KernelRequest::Exact(level), ..BiqConfig::default() };
        let mut level_worst = (0.0f64, String::new());
        for &(m, n) in shapes {
            let dense = gaussian_weights(m, n, shape_seed(m, n, bits));
            let (op, mut exec) = biq_op(WeightSource::Dense(&dense), (m, n, bits), 32, cfg, None);
            let mut us_at = |b: usize| {
                let x = MatrixRng::seed_from(shape_seed(m, n, b)).gaussian_col(n, b, 0.0, 1.0);
                let mut y = vec![0.0f32; m * b];
                let mut times: Vec<f64> = (0..calls + 3)
                    .map(|_| {
                        let t0 = Instant::now();
                        exec.run_into(&op, &x, &mut y);
                        std::hint::black_box(&mut y);
                        t0.elapsed().as_secs_f64() * 1e6
                    })
                    .skip(3)
                    .collect();
                times.sort_unstable_by(f64::total_cmp);
                times[times.len() / 10]
            };
            let us: Vec<f64> = widths.iter().map(|&b| us_at(b)).collect();
            let mut row = vec![level.to_string(), format!("{m}x{n}")];
            row.extend(us.iter().map(|&v| fmt_f(v, 0)));
            t.row(&row);
            let Some(group) = lane_group(level) else { continue };
            for (&b, &ragged) in widths.iter().zip(&us) {
                let full = b.next_multiple_of(group);
                if full == b {
                    continue;
                }
                // Widths outside the printed sweep (24 on AVX2) are timed
                // only as a reference.
                let full_us = match widths.iter().position(|&w| w == full) {
                    Some(i) => us[i],
                    None => us_at(full),
                };
                let ratio = ragged / full_us;
                if ratio > level_worst.0 {
                    level_worst = (ratio, format!("{level} {m}x{n} b={b} vs b={full}"));
                }
            }
        }
        if level_worst.0 > 0.0 {
            worst.push(level_worst);
        }
    }
    println!("{}", if a.csv { t.render_csv() } else { t.render() });
    for (ratio, at) in &worst {
        println!("worst ragged width: {at}, {ratio:.2}×");
    }
    // (A scalar-only host has no lane group to fall short of.)
    let holds = worst.iter().all(|&(ratio, _)| ratio <= TOLERANCE);
    println!(
        "{}",
        biq_bench::claim(
            &format!(
                "no batch width costs more than {TOLERANCE}× the next multiple of the level's \
                 lane group"
            ),
            holds,
        )
    );
}
