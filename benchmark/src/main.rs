//! One benchmark for the whole stack. See `README.md` beside `Cargo.toml`
//! for the workloads, the metrics and how they interact.
//!
//! ```text
//! biq_benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>   one run (the driver's form)
//! biq_benchmark --all [--seed N] [--seconds S] [--trace-seconds T]           every workload, both runs
//! biq_benchmark --repeat N [--workload <name>] ...                           spread of N runs against the bounds
//! biq_benchmark --smoke                                                      all four workloads in under 20 s
//! biq_benchmark --selftest                                                   the oracle catches a flipped bit
//! biq_benchmark --compare A.json B.json                                      compare two result files
//! ```
//!
//! Every workload runs in a fresh child process of this binary; the last
//! line a run prints is the driver's result object.

mod alloc;
mod host;
mod json;
mod measure;
mod model;
mod params;
mod report;
mod span;
mod stats;
mod sys;
mod workloads;

use measure::RunArgs;
use params::{DECODE, ENCODER, REMOTE, SATURATE, WORKLOADS};
use report::{Provenance, Row};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Default measured seconds of `--all` (untraced, traced), of `--smoke`, and
/// of `--selftest`.
const ALL_SECONDS: f64 = 30.0;
const ALL_TRACE_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 1.0;
const SELFTEST_SECONDS: f64 = 0.5;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace_seconds: Option<f64>,
    /// `None`: both runs (`--all`, `--repeat`); `Some`: the one asked for.
    trace: Option<bool>,
    all: bool,
    smoke: bool,
    selftest: bool,
    repeat: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
    out: Option<PathBuf>,
    // Child-only plumbing.
    row_out: Option<PathBuf>,
    setup_repeats: Option<usize>,
    flip_one: bool,
}

fn usage() -> String {
    format!(
        "usage: biq_benchmark --workload <{}> --seed <u64> --seconds <s> --trace <0|1>\n\
         \x20      biq_benchmark --all | --smoke | --selftest | --repeat <N> [--workload <name>]\n\
         \x20      biq_benchmark --compare <A.json> <B.json>\n\
         options: --seed <u64> (default 1)  --seconds <s>  --trace-seconds <s>  --out <result.json>",
        WORKLOADS.join("|")
    )
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { seed: 1, ..Cli::default() };
    let mut it = args.iter().peekable();
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("{flag}: cannot read '{s}'"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let w = value(&mut it, arg)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}' (have {})", WORKLOADS.join(", ")));
                }
                cli.workload = Some(w.clone());
            }
            "--seed" => cli.seed = number(value(&mut it, arg)?, arg)?,
            "--seconds" => cli.seconds = Some(number(value(&mut it, arg)?, arg)?),
            "--trace-seconds" => cli.trace_seconds = Some(number(value(&mut it, arg)?, arg)?),
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                cli.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--all" => cli.all = true,
            "--smoke" => cli.smoke = true,
            "--selftest" => cli.selftest = true,
            "--repeat" => cli.repeat = Some(number(value(&mut it, arg)?, arg)?),
            "--compare" => {
                let a = PathBuf::from(value(&mut it, arg)?);
                cli.compare = Some((a, PathBuf::from(value(&mut it, arg)?)));
            }
            "--out" => cli.out = Some(PathBuf::from(value(&mut it, arg)?)),
            "--row-out" => cli.row_out = Some(PathBuf::from(value(&mut it, arg)?)),
            "--setup-repeats" => cli.setup_repeats = Some(number(value(&mut it, arg)?, arg)?),
            "--flip-one" => cli.flip_one = true,
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(cli)
}

/// `benchmark/out`, created on demand: artifacts while a run lasts, traces
/// and result rows after it.
fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

/// The provenance every row starts with; workloads append what they resolve.
fn base_provenance(args: &RunArgs) -> Provenance {
    let kv = |k: &str, v: String| (k.to_string(), v);
    vec![
        kv("git_rev", host::git_rev()),
        kv("seed", args.seed.to_string()),
        kv("host.canary_ns", format!("{:.0}", host::canary_ns())),
        kv("nproc", host::nproc().to_string()),
        kv("l2_bytes", host::l2_bytes().map_or("unknown".into(), |b| b.to_string())),
        kv("host_best_level", biqgemm_core::host_best().name().to_string()),
        kv("seconds", args.seconds.to_string()),
        kv("setup_repeats", args.setup_repeats.to_string()),
        kv("bits", params::BITS.to_string()),
    ]
}

/// One run of one workload in this process: the driver's form.
fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let seconds = cli.seconds.unwrap_or(ALL_SECONDS);
    let mut args = RunArgs::new(cli.seed, seconds, cli.trace.unwrap_or(false), out_dir());
    args.flip_one = cli.flip_one;
    if let Some(n) = cli.setup_repeats {
        args.setup_repeats = n.max(1);
    }
    let provenance = base_provenance(&args);
    let row = match workload {
        DECODE => workloads::decode::run(&args, provenance),
        ENCODER => workloads::encoder::run(&args, provenance),
        REMOTE => workloads::remote::run(&args, provenance),
        SATURATE => workloads::saturate::run(&args, provenance),
        other => unreachable!("parse_cli admitted workload {other}"),
    };
    let missing = row.missing();
    assert!(missing.is_empty(), "{workload} did not report {missing:?}");
    print!("{}", row.render());
    if let Some(path) = &cli.row_out {
        report::write_rows(path, std::slice::from_ref(&row))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    // Last line of standard output: the driver's result object.
    println!("{}", row.driver_line());
    ExitCode::SUCCESS
}

/// Runs one workload in a fresh child process and reads its row back.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    extra: &[&str],
) -> Result<Row, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let row_path =
        out_dir().join(format!("row.{workload}.{}.{}.tmp", u8::from(traced), std::process::id()));
    let status = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .arg("--row-out")
        .arg(&row_path)
        .args(extra)
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let rows = report::read_rows(&row_path);
    let _ = std::fs::remove_file(&row_path);
    if !status.success() {
        return Err(format!(
            "{workload} ({}) exited with {status}",
            if traced { "traced" } else { "untraced" }
        ));
    }
    rows?.into_iter().next().ok_or_else(|| format!("{workload} wrote no row"))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn selected(cli: &Cli) -> Vec<&'static str> {
    WORKLOADS.into_iter().filter(|w| cli.workload.as_deref().is_none_or(|c| c == *w)).collect()
}

fn modes(cli: &Cli) -> Vec<bool> {
    cli.trace.map_or(vec![false, true], |t| vec![t])
}

fn seconds_for(cli: &Cli, traced: bool, untraced_default: f64, traced_default: f64) -> f64 {
    if traced {
        cli.trace_seconds.or(cli.seconds).unwrap_or(traced_default)
    } else {
        cli.seconds.unwrap_or(untraced_default)
    }
}

/// `--all` and `--smoke`: every selected workload, untraced then traced,
/// each in its own child. Oracle always on; bounds are not enforced here
/// (they are for comparing two commits, see `--compare`).
fn run_all(cli: &Cli, smoke: bool) -> ExitCode {
    let (d_untraced, d_traced) =
        if smoke { (SMOKE_SECONDS, SMOKE_SECONDS) } else { (ALL_SECONDS, ALL_TRACE_SECONDS) };
    let extra: &[&str] = if smoke { &["--setup-repeats", "1"] } else { &[] };
    let mut rows = Vec::new();
    let mut ok = true;
    for workload in selected(cli) {
        for traced in modes(cli) {
            let seconds = seconds_for(cli, traced, d_untraced, d_traced);
            match run_child(workload, cli.seed, seconds, traced, extra) {
                Ok(row) => {
                    ok &= row.correct && row.failed == 0;
                    rows.push(row);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
    }
    let path = cli.out.clone().unwrap_or_else(|| out_dir().join("results.json"));
    report::write_rows(&path, &rows).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    let failed: u64 = rows.iter().map(|r| r.failed).sum();
    let attempted: u64 = rows.iter().map(|r| r.attempted).sum();
    println!(
        "\n{} rows -> {}; {failed} failed of {attempted} attempted",
        rows.len(),
        path.display()
    );
    if !ok {
        eprintln!("error: a run failed or an op was answered wrongly");
    }
    exit_code(ok)
}

/// `--repeat N`: N runs per selected workload and mode, consecutive seeds,
/// then per metric the median, quartiles and spread against its bound.
fn run_repeat(cli: &Cli, n: usize) -> ExitCode {
    let mut all_rows = Vec::new();
    let mut tables = String::new();
    let mut ok = true;
    for workload in selected(cli) {
        for traced in modes(cli) {
            let seconds = seconds_for(cli, traced, ALL_SECONDS, ALL_TRACE_SECONDS);
            let mut runs = Vec::new();
            for k in 0..n {
                match run_child(workload, cli.seed + k as u64, seconds, traced, &[]) {
                    Ok(row) => runs.push(row),
                    Err(e) => {
                        eprintln!("error: {e}");
                        ok = false;
                    }
                }
            }
            tables.push_str(&report::repeat_table(&runs));
            ok &= runs.iter().all(|r| r.correct && r.failed == 0);
            all_rows.extend(runs);
        }
    }
    println!("\n==== --repeat {n}: spread = (q3 - q1) / median, as the driver takes it ====");
    print!("{tables}");
    let path = cli.out.clone().unwrap_or_else(|| out_dir().join("repeat.json"));
    report::write_rows(&path, &all_rows)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("{} rows -> {}", all_rows.len(), path.display());
    exit_code(ok)
}

/// `--selftest`: flips one bit in one kernel output (`decode_b1`) and in one
/// served reply (`serve_saturate`, `serve_remote_open`) and requires each to
/// be counted as exactly one failed op — the oracle cannot pass everything.
fn run_selftest(cli: &Cli) -> ExitCode {
    let mut ok = true;
    for workload in [DECODE, SATURATE, REMOTE] {
        let clean =
            run_child(workload, cli.seed, SELFTEST_SECONDS, false, &["--setup-repeats", "1"]);
        let flipped = run_child(
            workload,
            cli.seed,
            SELFTEST_SECONDS,
            false,
            &["--setup-repeats", "1", "--flip-one"],
        );
        let verdict = match (&clean, &flipped) {
            (Ok(c), Ok(f)) if c.failed == 0 && f.failed == 1 && f.attempted > 1 => "ok",
            _ => {
                ok = false;
                "FAILED"
            }
        };
        let show = |r: &Result<Row, String>| match r {
            Ok(r) => format!("{} failed of {}", r.failed, r.attempted),
            Err(e) => format!("error: {e}"),
        };
        println!(
            "selftest {workload}: clean run {}; one flipped bit {} -> {verdict}",
            show(&clean),
            show(&flipped)
        );
    }
    if ok {
        println!("selftest passed: a single flipped bit is counted in fail_ratio on every path");
    }
    exit_code(ok)
}

fn run_compare(a: &Path, b: &Path) -> ExitCode {
    match (report::read_rows(a), report::read_rows(b)) {
        (Ok(ra), Ok(rb)) => {
            let (text, ok) = report::compare(&ra, &rb);
            print!("{text}");
            exit_code(ok)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        run_compare(a, b)
    } else if cli.selftest {
        run_selftest(&cli)
    } else if let Some(n) = cli.repeat {
        run_repeat(&cli, n.max(2))
    } else if cli.smoke {
        run_all(&cli, true)
    } else if cli.all {
        run_all(&cli, false)
    } else if let Some(workload) = cli.workload.clone() {
        run_one(&cli, &workload)
    } else {
        eprintln!("{}", usage());
        ExitCode::from(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_form_parses() {
        let c =
            cli(&["--workload", "decode_b1", "--seed", "42", "--seconds", "20", "--trace", "1"])
                .unwrap();
        assert_eq!(c.workload.as_deref(), Some("decode_b1"));
        assert_eq!((c.seed, c.seconds, c.trace), (42, Some(20.0), Some(true)));
        let c = cli(&["--workload", "serve_saturate", "--trace", "0", "--seed", "7"]).unwrap();
        assert_eq!((c.trace, c.seed), (Some(false), 7));
    }

    #[test]
    fn a_bare_trace_flag_means_traced() {
        let c = cli(&["--all", "--trace", "--seed", "3"]).unwrap();
        assert_eq!((c.all, c.trace, c.seed), (true, Some(true), 3));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }
}
