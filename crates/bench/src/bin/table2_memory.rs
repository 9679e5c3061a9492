//! Table II reproduction: memory usage (MB) of a 512×512 multiplication at
//! batch 18 under different weight/activation bit widths. This is an exact
//! analytic reproduction — the model in `biq_quant::memory` matches the
//! paper's numbers to the printed precision (asserted by that module's unit
//! tests).

use biq_bench::args;
use biq_bench::table::{fmt_f, Table};
use biq_quant::memory::{key_matrix_mb, lut_working_set_mb, table_ii};

fn main() {
    let a = args::parse();
    println!("{}", biq_bench::provenance(&a));
    println!("Table II: memory usage, 512x512 weights, batch 18\n");
    let mut t = Table::new(&["W bits", "A bits", "O bits", "W MB", "I MB", "O MB", "total MB"]);
    let rows = table_ii();
    for row in &rows {
        t.row(&[
            row.w_bits.to_string(),
            row.a_bits.to_string(),
            row.o_bits.to_string(),
            fmt_f(row.usage.weights_mb, 3),
            fmt_f(row.usage.inputs_mb, 3),
            fmt_f(row.usage.outputs_mb, 3),
            fmt_f(row.usage.total_mb(), 3),
        ]);
    }
    println!("{}", if a.csv { t.render_csv() } else { t.render() });

    println!("BiQGEMM-side storage at the same shape (µ = 8):");
    let mut t2 = Table::new(&["quantity", "MB"]);
    for bits in [1usize, 2, 3] {
        t2.row(&[
            format!("key matrix K ({bits}-bit weights)"),
            fmt_f(key_matrix_mb(512, 512, 8, bits), 3),
        ]);
    }
    t2.row(&[
        "live LUT bank (64 chunks x 2^8 x b=18)".into(),
        fmt_f(lut_working_set_mb(64, 8, 18), 3),
    ]);
    println!("{}", if a.csv { t2.render_csv() } else { t2.render() });
    // Row 0 is fp32; rows 1–3 the uniform block, 4–6 the binary-coding block.
    let totals: Vec<f64> = rows.iter().map(|r| r.usage.total_mb()).collect();
    let shrinks = |block: &[f64]| block.windows(2).all(|p| p[0] > p[1]);
    println!(
        "{}",
        biq_bench::claim(
            "every quantized configuration needs less memory than fp32, and memory falls \
             with the weight bits inside both the uniform and the binary-coding block",
            totals[1..].iter().all(|&mb| mb < totals[0])
                && shrinks(&totals[1..4])
                && shrinks(&totals[4..7]),
        )
    );
}
