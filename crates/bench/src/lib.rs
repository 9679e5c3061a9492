//! Shared harness for regenerating every table and figure of the BiQGEMM
//! paper.
//!
//! Each experiment is a binary under `src/bin/`, listed in [`EXPERIMENTS`];
//! `run_all` runs them in that order and assembles `docs/REPRODUCTION.md`
//! from their first line ([`provenance`]) and their last ([`claim`]). This
//! library provides the common pieces:
//!
//! * [`timing`] — median-of-k wall-clock measurement with warmup;
//! * [`table`] — aligned markdown table rendering for stdout;
//! * [`machine`] — host introspection (Table III);
//! * [`workloads`] — seeded synthetic matrices ("synthetic matrices filled by
//!   random numbers", paper Section IV-A);
//! * [`args`] — the tiny flag parser shared by all binaries (`--quick`
//!   shrinks sweeps for smoke testing).
//!
//! These binaries check the paper's *qualitative* claims on this host. The
//! repository's gated performance numbers come from the `benchmark/`
//! package, not from here.

pub mod args;
pub mod machine;
pub mod table;
pub mod timing;
pub mod workloads;

/// Every experiment binary, in the order `run_all` runs them: `(binary
/// name, the paper item it reproduces)`.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1_quant_quality", "Table I — quantization quality vs bit width (metric substituted)"),
    ("table2_memory", "Table II — memory usage of a 512×512 multiplication at batch 18"),
    ("table3_machine", "Table III — machine configuration (this host)"),
    ("table4_runtime", "Table IV — runtime vs the kGpu / cublas / xnor roles (CPU analogs)"),
    ("fig8_profiling", "Fig. 8 — build / query / replace shares (plus Eq. 6: DP vs M_µ · x)"),
    ("fig9_unpack", "Fig. 9 — cost of unpacking bit-packed weights for a conventional GEMM"),
    ("fig10_speedup", "Fig. 10 — single-thread speedup over blocked fp32 GEMM"),
    ("mu_sweep", "Section III-C / Eq. 9 — runtime vs LUT-unit µ"),
    ("ablation_threads", "Section IV-D — thread scaling of row-parallel BiQGEMM and blocked GEMM"),
    ("ablation_int8", "Section II-A — INT8 fixed-point GEMM vs BiQGEMM"),
    ("ablation_batch_width", "Fig. 10 at serving widths — cost per batch width, per kernel level"),
];

/// The first line every experiment prints: what produced the numbers below
/// it — git revision (`+dirty` when the tree differs from it, `unknown`
/// outside a checkout), the host's best kernel level, the resolved worker
/// count, the host-speed canary and the sweep size.
pub fn provenance(a: &args::CommonArgs) -> String {
    format!(
        "provenance: rev={} kernel={} workers={} canary_ns={} mode={}",
        git_rev(),
        biqgemm_core::host_best(),
        a.workers(),
        timing::host_canary_ns(),
        if a.quick { "quick" } else { "full" },
    )
}

fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git").args(args).output().ok().filter(|o| o.status.success())
    };
    let Some(head) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".into();
    };
    let rev = String::from_utf8_lossy(&head.stdout).trim().to_string();
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(status) if !status.stdout.is_empty() => format!("{rev}+dirty"),
        _ => rev,
    }
}

/// The last line every experiment prints: the paper's qualitative claim
/// and whether the numbers just printed bear it out on this host.
pub fn claim(text: &str, holds: bool) -> String {
    format!("claim: {text} | holds={holds}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_list_matches_the_bin_directory() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
        let mut on_disk: Vec<String> = std::fs::read_dir(dir)
            .expect("read src/bin")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 file name"))
            .filter_map(|f| f.strip_suffix(".rs").map(str::to_string))
            .filter(|f| f != "run_all")
            .collect();
        on_disk.sort();
        let mut listed: Vec<String> = EXPERIMENTS.iter().map(|(bin, _)| bin.to_string()).collect();
        listed.sort();
        assert_eq!(listed, on_disk, "EXPERIMENTS and crates/bench/src/bin/ disagree");
    }

    #[test]
    fn provenance_and_claim_lines_are_shaped() {
        let line = provenance(&args::CommonArgs { quick: true, csv: false, threads: Some(3) });
        assert!(line.starts_with("provenance: rev="), "{line}");
        assert!(line.contains(" workers=3 ") && line.ends_with("mode=quick"), "{line}");
        assert_eq!(claim("x beats y", false), "claim: x beats y | holds=false");
    }
}
