//! Table III counterpart: the machine configuration the experiments actually
//! run on (the paper lists its Mobile/PC/GPGPU hosts; we print ours and note
//! the substitution).

use biq_bench::machine::detect;
use biq_bench::table::Table;

fn main() {
    let a = biq_bench::args::parse();
    println!("{}", biq_bench::provenance(&a));
    let m = detect();
    println!("Table III: machine configuration used by this reproduction\n");
    let mut t = Table::new(&["field", "value"]);
    t.row(&["Processor".into(), m.cpu_model.clone()]);
    t.row(&["Logical CPUs".into(), m.logical_cpus.to_string()]);
    t.row(&["L1D cache".into(), m.l1d.clone().unwrap_or_else(|| "unknown".into())]);
    t.row(&["L2 cache".into(), m.l2.clone().unwrap_or_else(|| "unknown".into())]);
    t.row(&["L3 cache".into(), m.l3.clone().unwrap_or_else(|| "unknown".into())]);
    t.row(&[
        "DRAM".into(),
        m.ram_gib.map(|g| format!("{g:.1} GiB")).unwrap_or_else(|| "unknown".into()),
    ]);
    t.row(&["OS/arch".into(), m.os.clone()]);
    println!("{}", t.render());
    println!("Substitutions vs the paper's Table III: the Tesla V100 GPGPU column is replaced");
    println!("by multi-threaded CPU analogs; the Cortex-A76 mobile column by a thread/SIMD-");
    println!("constrained configuration of this host.");
    println!(
        "{}",
        biq_bench::claim(
            "the host every other experiment ran on is identified (processor and core count)",
            !m.cpu_model.is_empty() && m.logical_cpus >= 1,
        )
    );
}
