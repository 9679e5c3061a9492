//! Convenience driver: runs every experiment in [`biq_bench::EXPERIMENTS`]
//! (each a sibling binary) with this process's arguments, tees its output
//! into `results/<name>.txt`, and assembles `docs/REPRODUCTION.md` — paper
//! item → command → provenance line → claim line — from the first and last
//! line each one prints. Both paths are relative to the working directory:
//! run it from the repository root.
//!
//! `cargo run --release -p biq-bench --bin run_all [-- --quick]`
//!
//! Exits non-zero when an experiment fails, or prints no provenance or no
//! claim line. A `holds=false` claim is a finding, not a failure.

use biq_bench::{args, EXPERIMENTS};
use std::io::Write as _;
use std::path::Path;
use std::process::Command;

/// One experiment's full output with its provenance and claim lines.
struct Report {
    stdout: String,
    provenance: String,
    claim: String,
}

fn run_experiment(bin: &Path, pass_args: &[String]) -> Result<Report, String> {
    let o = Command::new(bin).args(pass_args).output().map_err(|e| {
        format!("failed to launch: {e} (build with `cargo build --release -p biq-bench` first)")
    })?;
    if !o.status.success() {
        return Err(format!(
            "exit {:?}\n{}",
            o.status.code(),
            String::from_utf8_lossy(&o.stderr).trim_end()
        ));
    }
    let stdout = String::from_utf8_lossy(&o.stdout).into_owned();
    let line = |found: Option<&str>, prefix: &str| {
        found
            .filter(|l| l.starts_with(prefix))
            .map(str::to_string)
            .ok_or_else(|| format!("no `{prefix}` line where one is required"))
    };
    let provenance = line(stdout.lines().next(), "provenance: ")?;
    let claim = line(stdout.lines().rev().find(|l| !l.trim().is_empty()), "claim: ")?;
    Ok(Report { stdout, provenance, claim })
}

fn main() {
    let a = args::parse();
    let pass_args: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .expect("cannot locate binary directory");
    std::fs::create_dir_all("results").expect("create results/");
    let mode = if a.quick { "quick" } else { "full" };
    let flags: String = pass_args.iter().map(|f| format!(" {f}")).collect();
    let mut index = format!(
        "# Reproduction index\n\n\
         <!-- Generated by run_all: change crates/bench and rerun, do not edit. -->\n\n\
         Every table, figure and ablation of the paper that this repository\n\
         regenerates: the command, what produced the reading (the experiment's\n\
         first output line) and the paper's qualitative claim with whether it\n\
         held on this host (its last). Written by `./target/release/run_all{flags}`\n\
         — a **{mode}** run; `--quick` shrinks every sweep. The tables themselves\n\
         are teed to `results/<bin>.txt` (untracked).\n\n\
         `holds=false` is a finding about this host or this implementation, not a\n\
         broken build. These are checks of *shape*; the repository's gated\n\
         performance numbers are the rows of [`benchmark/`](../benchmark/README.md).\n"
    );
    let mut failures = 0;
    for (name, item) in EXPERIMENTS {
        print!("running {name} ... ");
        std::io::stdout().flush().ok();
        match run_experiment(&exe_dir.join(name), &pass_args) {
            Ok(r) => {
                let path = format!("results/{name}.txt");
                std::fs::write(&path, &r.stdout).expect("write result");
                println!("ok -> {path}\n  {}", r.claim);
                index.push_str(&format!(
                    "\n## {item}\n\n- command: `./target/release/{name}{flags}`\n- `{}`\n- `{}`\n",
                    r.provenance, r.claim,
                ));
            }
            Err(e) => {
                failures += 1;
                println!("FAILED: {e}");
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    std::fs::create_dir_all("docs").expect("create docs/");
    std::fs::write("docs/REPRODUCTION.md", index).expect("write docs/REPRODUCTION.md");
    println!("\nall experiments regenerated under results/; index in docs/REPRODUCTION.md");
}
