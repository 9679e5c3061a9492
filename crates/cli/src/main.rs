//! `biq` — the BiQGEMM deployment pipeline on files. See `biq help`.

use biq_cli::{
    cmd_compile, cmd_inspect, cmd_load_client, cmd_model_list, cmd_model_load, cmd_model_unload,
    cmd_run_model, cmd_serve, cmd_stats, cmd_top, fetch_mem_budget, parse_mem_budget,
    render_model_list, CliError, CompileConfig, DaemonConfig, LoadClientConfig, ServeOptions,
    StatsConfig, StatsFormat, TopConfig,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const HELP: &str = "\
biq — BiQGEMM artifact pipeline

MODEL PIPELINE (BIQM compiled-model artifacts):
  biq compile  [--model linear|transformer|lstm|seq2seq] [--backend biq|fp32|xnor|int8]
               [--bits B] [--seed S] [--parallel] [--d-model N] [--d-ff N]
               [--heads H] [--layers L] [--dec-layers L] [--vocab V] OUT
  biq run-model MODEL [--seed S] [--len L]
  biq inspect  MODEL

SERVING:
  biq serve       --model ARTIFACT --addr HOST:PORT [--workers W]
                  [--window-us U] [--max-batch B] [--queue-cap Q]
                  [--pin-workers] [--io-threads N] [--mem-budget BYTES]
                  [--kernel auto|scalar|avx2|avx512|neon]
                  [--stats-every SECS] [--trace-out PATH]
  biq load-client --addr HOST:PORT [--op NAME] [--requests R]
                  [--concurrency C] [--seed S] [--pipeline P]
  biq stats       --addr HOST:PORT [--prometheus | --json] [--watch SECS]
  biq top         --addr HOST:PORT [--once] [--interval SECS]
  biq model load   --addr HOST:PORT --name NAME PATH
  biq model unload --addr HOST:PORT --name NAME [--version V]
  biq model list   --addr HOST:PORT
  biq help

KERNEL LEVELS:
  serve --kernel pins the SIMD kernel level for every plan the daemon builds
  (plumbed through the BIQ_KERNEL env var, which works on every command);
  'auto' (default) picks the host's best level. All levels are bit-exact,
  so forcing one changes speed, never results. Unsupported levels error.

ARTIFACTS:
  .biqmod  a compiled model, the one file format biq reads or writes (BIQM:
           manifest + packed payload sections, loaded zero-copy — compile
           once, ship, serve)

compile builds a seeded model, quantizes/packs every layer once and writes
one checksummed artifact; run-model loads it (no fp32 weights, no
re-quantization) and runs a deterministic inference.

serve is the network daemon: it loads a BIQM artifact, registers every
linear op under the artifact's file stem as the boot model name, and
answers BIQP frames (length-prefixed, checksummed — spec in docs/BIQP.md)
until SIGINT or stdin EOF, then drains and prints
the final stats as JSON. Requests to one op are packed into shared batches
of up to --max-batch columns; a batch leaves when it is full, when a worker
is free to run it, or after --window-us (the longest it is held while every
worker is busy), so an idle daemon answers a lone request at once and
batches form only out of queueing. --stats-every prints a one-line metrics
summary on stderr that often (stderr by design: stdout stays reserved for
the final machine-readable JSON report); --trace-out records always-on spans (net,
batcher, workers, kernel phases) and writes Chrome trace-event JSON at
shutdown (load it at ui.perfetto.dev). stats queries a live daemon's
counters over the BIQP Stats admin verb and prints Prometheus text
(default) or JSON; --watch re-polls every that many seconds and prints
true per-interval delta rates (first round primes the baseline). top is
the live dashboard over the History/SlowLog admin verbs: per-op req/s
with sparkline history, windowed p50/p99, and the slowest requests broken
down by lifecycle phase (queue/window/exec/ticket/write); --once prints a
single plain snapshot for scripts and CI. load-client replays seeded
single-column traffic over N connections and prints throughput/p50/p99
plus a response digest;
for a linear artifact the digest equals `biq run-model --seed S --len R`'s
exactly (the wire and the batcher are both bit-transparent). Performance
numbers come from the benchmark/ package, not from this tool (see
benchmark/README.md).

model manages the daemon's fleet online: `model load` registers a BIQM
artifact from a path on the daemon's filesystem (a new name becomes
version 1; an existing name swaps to the next version — in-flight requests
drain on the version that admitted them, zero drops). Op names are
versioned (`linear@2`); a bare name always resolves to the live version.
`model unload` retires a version (the live one by default), `model list`
prints every version live and retired with resident bytes and traffic
counts. `serve --mem-budget BYTES` (K/M/G suffixes) caps resident model
bytes: a load past the ceiling evicts cold idle models LRU-first (never
one with in-flight work), else is refused. See docs/OPERATIONS.md for the
runbook.
";

/// Flags that are switches: they never take a value, so the argument after
/// one is a positional (`compile --parallel out.biqmod`), not its value.
const BOOL_FLAGS: [&str; 5] = ["parallel", "pin-workers", "once", "prometheus", "json"];

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") && !BOOL_FLAGS.contains(&name) => {
                        Some(it.next().unwrap().clone())
                    }
                    _ => None,
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Self { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn usize_flag(&self, name: &str) -> Result<usize, CliError> {
        self.flag(name)
            .ok_or_else(|| CliError(format!("missing --{name}")))?
            .parse()
            .map_err(|_| CliError(format!("--{name} must be an integer")))
    }
}

fn run() -> Result<(), CliError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        println!("{HELP}");
        return Ok(());
    };
    // Surface a bad BIQ_KERNEL value as a clean CLI error up front, before
    // any command builds a plan (plan building panics on resolution
    // failure by design — the CLI is the recoverable boundary).
    biq_cli::validate_kernel_env()?;
    let args = Args::parse(&raw[1..]);
    match cmd.as_str() {
        "compile" => {
            let mut cfg = CompileConfig::default();
            if let Some(kind) = args.flag("model") {
                cfg.kind = kind.to_string();
            }
            if let Some(backend) = args.flag("backend") {
                cfg.backend = backend.to_string();
            }
            if args.has("bits") {
                cfg.bits = args.usize_flag("bits")?;
            }
            if let Some(seed) = args.flag("seed") {
                cfg.seed =
                    seed.parse().map_err(|_| CliError("--seed must be an integer".into()))?;
            }
            cfg.parallel = args.has("parallel");
            if args.has("d-model") {
                cfg.d_model = args.usize_flag("d-model")?;
            }
            if args.has("d-ff") {
                cfg.d_ff = args.usize_flag("d-ff")?;
            }
            if args.has("heads") {
                cfg.heads = args.usize_flag("heads")?;
            }
            if args.has("layers") {
                cfg.layers = args.usize_flag("layers")?;
            }
            if args.has("dec-layers") {
                cfg.dec_layers = args.usize_flag("dec-layers")?;
            }
            if args.has("vocab") {
                cfg.vocab = args.usize_flag("vocab")?;
            }
            let out = positional_path(&args, 0, "output path")?;
            let desc = cmd_compile(&cfg, &out)?;
            let size = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
            println!("compiled {desc} -> {} ({size} bytes)", out.display());
        }
        "run-model" => {
            let path = positional_path(&args, 0, "model path")?;
            let seed = args.flag("seed").map_or(Ok(0u64), |s| {
                s.parse().map_err(|_| CliError("--seed must be an integer".into()))
            })?;
            let len = if args.has("len") { args.usize_flag("len")? } else { 4 };
            let (desc, out) = cmd_run_model(&path, seed, len)?;
            let digest = biq_artifact::fnv1a64(
                &out.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<_>>(),
            );
            let head: Vec<String> = out.iter().take(8).map(|v| format!("{v:.4}")).collect();
            println!("{desc}");
            println!(
                "output: {} values, digest {digest:016x}, head [{}]",
                out.len(),
                head.join(", ")
            );
        }
        "inspect" => {
            let path = positional_path(&args, 0, "model path")?;
            print!("{}", cmd_inspect(&path)?);
        }
        "serve" => {
            if let Some(k) = args.flag("kernel") {
                biq_cli::set_kernel_flag(k)?;
            }
            let model = flag_path(&args, "model")?;
            let addr = args.flag("addr").ok_or_else(|| CliError("missing --addr".into()))?;
            let mut cfg = DaemonConfig::default();
            if args.has("workers") {
                cfg.workers = args.usize_flag("workers")?.max(1);
            }
            if args.has("window-us") {
                cfg.window = Duration::from_micros(args.usize_flag("window-us")? as u64);
            }
            if args.has("max-batch") {
                cfg.max_batch_cols = args.usize_flag("max-batch")?.max(1);
            }
            if args.has("queue-cap") {
                cfg.queue_capacity = args.usize_flag("queue-cap")?.max(1);
            }
            cfg.pin_workers = args.has("pin-workers");
            if args.has("io-threads") {
                cfg.io_threads = args.usize_flag("io-threads")?.max(1);
            }
            if let Some(budget) = args.flag("mem-budget") {
                cfg.mem_budget = Some(parse_mem_budget(budget)?);
            }
            let mut opts = ServeOptions::default();
            if args.has("stats-every") {
                opts.stats_every =
                    Some(Duration::from_secs(args.usize_flag("stats-every")?.max(1) as u64));
            }
            opts.trace_out = args.flag("trace-out").map(PathBuf::from);
            cmd_serve(&model, addr, &cfg, &opts)?;
        }
        "load-client" => {
            let mut cfg = LoadClientConfig {
                addr: args
                    .flag("addr")
                    .ok_or_else(|| CliError("missing --addr".into()))?
                    .to_string(),
                op: args.flag("op").map(str::to_string),
                ..LoadClientConfig::default()
            };
            if args.has("requests") {
                cfg.requests = args.usize_flag("requests")?.max(1);
            }
            if args.has("concurrency") {
                cfg.concurrency = args.usize_flag("concurrency")?.max(1);
            }
            if args.has("pipeline") {
                cfg.pipeline = args.usize_flag("pipeline")?.max(1);
            }
            if let Some(seed) = args.flag("seed") {
                cfg.seed =
                    seed.parse().map_err(|_| CliError("--seed must be an integer".into()))?;
            }
            let r = cmd_load_client(&cfg)?;
            println!(
                "{} requests against [{}] ({}x{}, kernel {}) over {} connections: \
                 {:.0} req/s, p50 {} us, p99 {} us, {} busy retries",
                r.requests,
                r.op,
                r.m,
                r.n,
                r.kernel.as_deref().unwrap_or("unknown"),
                r.concurrency,
                r.throughput_rps,
                r.p50_us,
                r.p99_us,
                r.busy_retries
            );
            println!("output: {} values, digest {:016x}", r.m * r.requests, r.digest);
        }
        "stats" => {
            let mut cfg = StatsConfig {
                addr: args
                    .flag("addr")
                    .ok_or_else(|| CliError("missing --addr".into()))?
                    .to_string(),
                ..StatsConfig::default()
            };
            if args.has("prometheus") && args.has("json") {
                return Err(CliError("--prometheus and --json are mutually exclusive".into()));
            }
            if args.has("json") {
                cfg.format = StatsFormat::Json;
            }
            if args.has("watch") {
                cfg.watch = Some(Duration::from_secs(args.usize_flag("watch")?.max(1) as u64));
            }
            cmd_stats(&cfg)?;
        }
        "top" => {
            let mut cfg = TopConfig {
                addr: args
                    .flag("addr")
                    .ok_or_else(|| CliError("missing --addr".into()))?
                    .to_string(),
                ..TopConfig::default()
            };
            cfg.once = args.has("once");
            if args.has("interval") {
                cfg.interval = Duration::from_secs(args.usize_flag("interval")?.max(1) as u64);
            }
            cmd_top(&cfg)?;
        }
        "model" => {
            let addr = args.flag("addr").ok_or_else(|| CliError("missing --addr".into()))?;
            match args.positional.first().map(String::as_str) {
                Some("load") => {
                    let name =
                        args.flag("name").ok_or_else(|| CliError("missing --name".into()))?;
                    let path = args
                        .positional
                        .get(1)
                        .ok_or_else(|| CliError("missing artifact path".into()))?;
                    let r = cmd_model_load(addr, name, path)?;
                    println!(
                        "loaded {name}@{} ({} ops, {} bytes resident)",
                        r.version, r.ops, r.mem_bytes
                    );
                    for evicted in &r.evicted {
                        println!("evicted {evicted}");
                    }
                }
                Some("unload") => {
                    let name =
                        args.flag("name").ok_or_else(|| CliError("missing --name".into()))?;
                    let version = args.flag("version").map_or(Ok(0u32), |v| {
                        v.parse().map_err(|_| CliError("--version must be an integer".into()))
                    })?;
                    let (version, ops) = cmd_model_unload(addr, name, version)?;
                    println!("unloaded {name}@{version} ({ops} ops retired)");
                }
                Some("list") => {
                    let models = cmd_model_list(addr)?;
                    print!("{}", render_model_list(&models, fetch_mem_budget(addr)));
                }
                other => {
                    return Err(CliError(format!(
                        "unknown model subcommand {other:?} (expected load | unload | list)"
                    )))
                }
            }
        }
        "help" | "--help" | "-h" => println!("{HELP}"),
        other => return Err(CliError(format!("unknown command '{other}'\n\n{HELP}"))),
    }
    Ok(())
}

fn positional_path(args: &Args, idx: usize, what: &str) -> Result<PathBuf, CliError> {
    args.positional.get(idx).map(PathBuf::from).ok_or_else(|| CliError(format!("missing {what}")))
}

fn flag_path(args: &Args, name: &str) -> Result<PathBuf, CliError> {
    args.flag(name).map(PathBuf::from).ok_or_else(|| CliError(format!("missing --{name}")))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        Args::parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn boolean_flags_never_take_the_next_argument() {
        let a = parse("--model linear --parallel out.biqmod");
        assert!(a.has("parallel"));
        assert_eq!(a.flag("parallel"), None);
        assert_eq!(a.flag("model"), Some("linear"));
        assert_eq!(a.positional, ["out.biqmod"]);
        for name in BOOL_FLAGS {
            let a = parse(&format!("--{name} next"));
            assert!(a.has(name), "--{name}");
            assert_eq!(a.positional, ["next"], "--{name} swallowed its neighbour");
        }
    }

    #[test]
    fn valued_flags_still_take_their_value() {
        let a = parse("--bits 3 --seed 7 out.biqmod --addr 127.0.0.1:1");
        assert_eq!(a.usize_flag("bits").unwrap(), 3);
        assert_eq!(a.flag("seed"), Some("7"));
        assert_eq!(a.flag("addr"), Some("127.0.0.1:1"));
        assert_eq!(a.positional, ["out.biqmod"]);
    }
}
