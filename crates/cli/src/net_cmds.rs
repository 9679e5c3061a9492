//! `biq serve` / `biq load-client`: the serving layer on the wire.
//!
//! `serve` is the daemon: load a `BIQM` artifact, register every linear op,
//! and answer `BIQP` frames on a TCP address until SIGINT or stdin EOF,
//! then drain and dump the final [`StatsSnapshot`] as JSON on stdout.
//! `load-client` is the matching open-loop load generator: N connections
//! replaying seeded single-column traffic, reporting throughput/p50/p99
//! and an order-stable digest of every response. (What the wire adds to a
//! request is the `net.added_us_p50` row of `benchmark/`'s
//! `serve_remote_open` workload.)
//!
//! **Digest parity.** For a `linear` artifact, `run_seeded(seed, len)`
//! generates `X = gaussian_col(n, len)` and flattens `W·X` column-major.
//! `load-client --seed S --requests len` generates the identical `X`,
//! submits its columns as `len` independent requests, and concatenates the
//! replies in column order — so its digest equals `biq run-model`'s for
//! the same artifact and seed, on any backend, at any concurrency, under
//! any `BIQ_KERNEL` level (batch packing and kernel levels are both
//! bit-exact). The CI daemon smoke asserts exactly this.

use crate::CliError;
use biq_artifact::{fnv1a64, Artifact};
use biq_matrix::{ColMatrix, MatrixRng};
use biq_serve::net::{NetClient, NetConfig, NetServer, Outcome, RejectCode};
use biq_serve::{ModelRegistry, OpId, Server, ServerConfig, StatsSnapshot};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

/// Tunables of the `biq serve` daemon.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Worker threads of the inner batch server.
    pub workers: usize,
    /// Batch window: the longest a bucket is held while every worker is
    /// busy (a free worker takes the oldest bucket at once).
    pub window: Duration,
    /// Packed-width cap per batch.
    pub max_batch_cols: usize,
    /// Admitted requests no worker has taken yet (full ⇒ `Busy` reject frames).
    pub queue_capacity: usize,
    /// Pin worker `i` to core `i % cpu_count()` (`--pin-workers`).
    pub pin_workers: bool,
    /// Reactor I/O threads of the TCP front-end (`--io-threads`).
    pub io_threads: usize,
    /// Resident-bytes ceiling for online model loads (`--mem-budget`).
    /// Loads past it evict cold idle models LRU-first, then refuse.
    pub mem_budget: Option<u64>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            window: Duration::from_micros(200),
            max_batch_cols: 16,
            queue_capacity: 1024,
            pin_workers: false,
            io_threads: NetConfig::default().io_threads,
            mem_budget: None,
        }
    }
}

impl DaemonConfig {
    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            batch_window: self.window,
            max_batch_cols: self.max_batch_cols,
            pin_workers: self.pin_workers,
            mem_budget: self.mem_budget,
            ..ServerConfig::default()
        }
    }
}

/// Loads a `BIQM` artifact, registers every linear op, and binds the TCP
/// front-end. Returns the running server and the registered `(name, id)`
/// pairs. The daemon loop around it lives in [`cmd_serve`]; tests drive
/// this directly.
pub fn start_daemon(
    model: &Path,
    addr: &str,
    cfg: &DaemonConfig,
) -> Result<(NetServer, Vec<(String, OpId)>), CliError> {
    let artifact = Artifact::open(model).map_err(|e| CliError(format!("{model:?}: {e}")))?;
    let mut registry = ModelRegistry::new();
    // The boot model is named after the artifact's file stem, so fleet
    // views (`biq model list`, `biq_model_memory_bytes{model}`) and a
    // later `biq model load <stem> v2.biqmod` swap read naturally.
    if let Some(stem) = model.file_stem().and_then(|s| s.to_str()) {
        registry.set_model_name(stem);
    }
    let (_model, ids) =
        registry.load_artifact(&artifact).map_err(|e| CliError(format!("{model:?}: {e}")))?;
    if ids.is_empty() {
        return Err(CliError(format!("{model:?}: artifact has no linear ops to serve")));
    }
    let server = Server::start(registry, cfg.server_config());
    let net_cfg = NetConfig { io_threads: cfg.io_threads, ..NetConfig::default() };
    let net = NetServer::bind_with(addr, server, net_cfg)
        .map_err(|e| CliError(format!("bind {addr}: {e}")))?;
    Ok((net, ids))
}

/// Daemon-side observability switches (`biq serve` flags beyond the
/// batching tunables).
#[derive(Clone, Debug, Default)]
pub struct ServeOptions {
    /// Print a one-line metrics JSON summary on stderr every this often.
    pub stats_every: Option<Duration>,
    /// Record trace spans for the daemon's lifetime and write a Chrome
    /// trace-event JSON file here at shutdown.
    pub trace_out: Option<std::path::PathBuf>,
}

/// `biq serve`: the daemon. Serves until SIGINT or stdin EOF, then drains
/// every accepted request and prints the final stats snapshot as JSON on
/// stdout (status lines go to stderr so stdout stays machine-readable).
pub fn cmd_serve(
    model: &Path,
    addr: &str,
    cfg: &DaemonConfig,
    opts: &ServeOptions,
) -> Result<(), CliError> {
    if opts.trace_out.is_some() {
        biq_obs::set_tracing(true);
    }
    let (net, ids) = start_daemon(model, addr, cfg)?;
    eprintln!(
        "serving {} ops from {} at {} ({} workers{}, window {} us, max batch {}, {} io threads)",
        ids.len(),
        model.display(),
        net.local_addr(),
        cfg.workers,
        if cfg.pin_workers { ", pinned" } else { "" },
        cfg.window.as_micros(),
        cfg.max_batch_cols,
        cfg.io_threads,
    );
    for (name, _) in &ids {
        eprintln!("  op {name}");
    }
    // The periodic stats line reads the same hub snapshot the `Stats`
    // wire verb answers from, so both views always agree.
    let mut last_stats = Instant::now();
    // Housekeeping beat: feed the rolling time-series the `History` verb
    // and `biq top` answer from, one point per second. Prime the delta
    // baseline now, at zero traffic — otherwise requests served before
    // the first beat would vanish into the baseline snapshot and the
    // first interval would under-report.
    net.sample_series();
    let mut last_sample = Instant::now();
    wait_for_shutdown(|| {
        if last_sample.elapsed() >= Duration::from_secs(1) {
            last_sample = Instant::now();
            net.sample_series();
        }
        if let Some(every) = opts.stats_every {
            if last_stats.elapsed() >= every {
                last_stats = Instant::now();
                eprintln!("{}", render_stats_line(&net.metrics()));
            }
        }
    });
    eprintln!("shutting down: draining accepted requests");
    let stats = net.shutdown();
    println!("{}", render_stats_json(&stats));
    if let Some(path) = &opts.trace_out {
        let dump = biq_obs::trace::drain();
        std::fs::write(path, biq_obs::trace::chrome_trace_json(&dump))
            .map_err(|e| CliError(format!("write {}: {e}", path.display())))?;
        eprintln!(
            "trace: {} events written to {}{}",
            dump.events.len(),
            path.display(),
            if dump.dropped > 0 {
                format!(" ({} dropped by ring overwrite)", dump.dropped)
            } else {
                String::new()
            },
        );
    }
    Ok(())
}

/// One line of counter totals for `--stats-every` — a compact summary of
/// the full [`biq_obs::MetricsSnapshot`] (the same data `biq stats`
/// renders in full).
pub fn render_stats_line(metrics: &biq_obs::MetricsSnapshot) -> String {
    let gauge_total = |name: &str| -> i64 {
        metrics
            .samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                biq_obs::MetricValue::Gauge(v) => v,
                _ => 0,
            })
            .sum()
    };
    format!(
        concat!(
            "{{\"submitted\": {}, \"completed\": {}, \"rejected\": {}, ",
            "\"queue_depth\": {}, \"batches\": {}, \"connections_open\": {}, ",
            "\"frames_in\": {}, \"bytes_in\": {}, \"frames_out\": {}, \"bytes_out\": {}, ",
            "\"busy_rejects\": {}, \"checksum_failures\": {}}}"
        ),
        metrics.counter_total("biq_serve_submitted_total"),
        metrics.counter_total("biq_serve_completed_total"),
        metrics.counter_total("biq_serve_rejected_total"),
        gauge_total("biq_serve_queue_depth"),
        metrics.counter_total("biq_serve_batches_total"),
        gauge_total("biq_net_connections_open"),
        metrics.counter_total("biq_net_frames_in_total"),
        metrics.counter_total("biq_net_bytes_in_total"),
        metrics.counter_total("biq_net_frames_out_total"),
        metrics.counter_total("biq_net_bytes_out_total"),
        metrics.counter_total("biq_net_busy_rejects_total"),
        metrics.counter_total("biq_net_checksum_failures_total"),
    )
}

/// Blocks until stdin reaches EOF or SIGINT arrives (unix), invoking
/// `on_tick` once per 50 ms poll beat (the `--stats-every` hook).
fn wait_for_shutdown(mut on_tick: impl FnMut()) {
    use std::io::Read;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    sigint::install();
    let eof = Arc::new(AtomicBool::new(false));
    {
        let eof = Arc::clone(&eof);
        // Detached watcher: consume stdin until EOF. If SIGINT wins the
        // race the process exits and takes this thread with it.
        std::thread::spawn(move || {
            let mut buf = [0u8; 256];
            let mut stdin = std::io::stdin();
            loop {
                match stdin.read(&mut buf) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            eof.store(true, Ordering::SeqCst);
        });
    }
    while !eof.load(std::sync::atomic::Ordering::SeqCst) && !sigint::fired() {
        std::thread::sleep(Duration::from_millis(50));
        on_tick();
    }
}

#[cfg(unix)]
mod sigint {
    //! Minimal std-only SIGINT latch: the handler only stores an atomic
    //! flag (async-signal-safe), the daemon loop polls it.
    use std::sync::atomic::{AtomicBool, Ordering};

    static FIRED: AtomicBool = AtomicBool::new(false);

    extern "C" fn handler(_signum: i32) {
        FIRED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: registers an async-signal-safe handler (a single atomic
        // store) for SIGINT via the libc `signal` symbol.
        unsafe {
            signal(SIGINT, handler);
        }
    }

    pub fn fired() -> bool {
        FIRED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigint {
    pub fn install() {}
    pub fn fired() -> bool {
        false
    }
}

/// Renders a [`StatsSnapshot`] as the daemon's final JSON report.
pub fn render_stats_json(stats: &StatsSnapshot) -> String {
    let mut out = String::from("{\n  \"ops\": [\n");
    for (i, op) in stats.ops.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"name\": \"{name}\", \"kernel\": \"{kernel}\", ",
                "\"submitted\": {sub}, \"completed\": {done}, \"rejected\": {rej}, ",
                "\"batches\": {batches}, \"mean_batch_cols\": {mean:.2}, ",
                "\"latency_p50_us\": {p50}, \"latency_p99_us\": {p99}}}{comma}\n"
            ),
            name = op.name,
            kernel = op.kernel.name(),
            sub = op.submitted,
            done = op.completed,
            rej = op.rejected,
            batches = op.batches,
            mean = op.mean_batch_cols,
            p50 = op.latency_p50.as_micros(),
            p99 = op.latency_p99.as_micros(),
            comma = if i + 1 == stats.ops.len() { "" } else { "," },
        ));
    }
    out.push_str(&format!(
        concat!(
            "  ],\n  \"profile\": {{\"build_ns\": {build}, \"query_ns\": {query}, ",
            "\"replace_ns\": {replace}}}\n}}"
        ),
        build = stats.profile.build.as_nanos(),
        query = stats.profile.query.as_nanos(),
        replace = stats.profile.replace.as_nanos(),
    ));
    out
}

// ------------------------------------------------------------ load client

/// Parameters of one `biq load-client` run.
#[derive(Clone, Debug)]
pub struct LoadClientConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Op to target; `None` targets the first op the server lists.
    pub op: Option<String>,
    /// Single-column requests to send (also the seeded input's width —
    /// matches `run-model --len` for digest parity).
    pub requests: usize,
    /// Concurrent connections.
    pub concurrency: usize,
    /// Input seed (matches `run-model --seed` for digest parity).
    pub seed: u64,
    /// Connection attempts before giving up (100 ms apart) — lets the
    /// client start before the daemon finishes binding.
    pub connect_attempts: usize,
    /// In-flight requests per connection.
    pub pipeline: usize,
}

impl Default for LoadClientConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8790".into(),
            op: None,
            requests: 200,
            concurrency: 4,
            seed: 0,
            connect_attempts: 50,
            pipeline: 32,
        }
    }
}

/// Measured outcome of one load run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The targeted op.
    pub op: String,
    /// Its output size.
    pub m: usize,
    /// Its input size.
    pub n: usize,
    /// Requests answered (every one, exactly once).
    pub requests: usize,
    /// Connections used.
    pub concurrency: usize,
    /// First send → last reply.
    pub makespan: Duration,
    /// Requests per second over the makespan.
    pub throughput_rps: f64,
    /// Median send→reply latency (µs, exact over all requests).
    pub p50_us: u64,
    /// 99th-percentile send→reply latency (µs).
    pub p99_us: u64,
    /// `Busy` reject frames absorbed by retrying.
    pub busy_retries: u64,
    /// `fnv1a64` over every reply concatenated in request (column) order —
    /// equals `run-model`'s digest for linear artifacts.
    pub digest: u64,
    /// The kernel level the server resolved for this op (from its
    /// `biq_op_info` stats sample; `None` when the daemon predates the
    /// `Stats` verb).
    pub kernel: Option<String>,
}

fn connect_retry(addr: &str, attempts: usize) -> Result<NetClient, CliError> {
    let mut last = None;
    for _ in 0..attempts.max(1) {
        match NetClient::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    Err(CliError(format!("connect {addr}: {}", last.expect("at least one attempt"))))
}

/// One connection's share of the replay: pipelined sends with `Busy`
/// retry. Returns `(column, reply)` pairs, per-request latencies (µs), and
/// the busy-retry count.
#[allow(clippy::type_complexity)]
fn run_connection(
    addr: &str,
    op: &str,
    x: &ColMatrix,
    cols: std::ops::Range<usize>,
    pipeline: usize,
) -> Result<(Vec<(usize, Vec<f32>)>, Vec<u64>, u64), CliError> {
    let mut client =
        NetClient::connect(addr).map_err(|e| CliError(format!("connect {addr}: {e}")))?;
    let mut pending: VecDeque<usize> = cols.collect();
    let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut results = Vec::with_capacity(pending.len());
    let mut latencies = Vec::with_capacity(pending.len());
    let mut busy = 0u64;
    let window = pipeline.max(1);
    while !(pending.is_empty() && inflight.is_empty()) {
        while inflight.len() < window {
            let Some(idx) = pending.pop_front() else { break };
            let xcol = ColMatrix::from_vec(x.rows(), 1, x.col(idx).to_vec());
            let id = client.send(op, &xcol).map_err(|e| CliError(format!("send: {e}")))?;
            inflight.insert(id, (idx, Instant::now()));
        }
        let (id, outcome) = client.recv().map_err(|e| CliError(format!("recv: {e}")))?;
        let (idx, t0) = inflight
            .remove(&id)
            .ok_or_else(|| CliError(format!("reply for unknown request {id}")))?;
        match outcome {
            Outcome::Reply(y) => {
                latencies.push(t0.elapsed().as_micros() as u64);
                results.push((idx, y.as_slice().to_vec()));
            }
            Outcome::Rejected { code: RejectCode::Busy, .. } => {
                // The backpressure edge: requeue and let the server breathe
                // when nothing else is in flight.
                busy += 1;
                pending.push_back(idx);
                if inflight.is_empty() {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            Outcome::Rejected { code, msg } => {
                return Err(CliError(format!("request {idx} rejected ({code}): {msg}")));
            }
        }
    }
    Ok((results, latencies, busy))
}

/// `biq load-client`: replays `requests` seeded single-column queries over
/// `concurrency` connections and reports throughput, latency quantiles,
/// and the order-stable response digest.
pub fn cmd_load_client(cfg: &LoadClientConfig) -> Result<LoadReport, CliError> {
    // Probe connection: wait for the daemon, fetch the op table.
    let mut probe = connect_retry(&cfg.addr, cfg.connect_attempts)?;
    let ops = probe.list_ops().map_err(|e| CliError(format!("list ops: {e}")))?;
    drop(probe);
    // The op table lists versioned display names (`linear@2`); a bare
    // `--op linear` targets the live version, a pinned `--op linear@1`
    // must match exactly — the same resolution rule request frames get.
    let matches = |listed: &str, asked: &str| {
        listed == asked
            || (listed.len() > asked.len()
                && listed.starts_with(asked)
                && listed.as_bytes()[asked.len()] == b'@')
    };
    let info = match &cfg.op {
        Some(name) => ops.iter().find(|o| matches(&o.name, name)).ok_or_else(|| {
            let known: Vec<&str> = ops.iter().map(|o| o.name.as_str()).collect();
            CliError(format!("server has no op '{name}' (ops: {})", known.join(", ")))
        })?,
        None => ops.first().ok_or_else(|| CliError("server lists no ops".into()))?,
    };
    let (op_name, m, n) = (info.name.clone(), info.m as usize, info.n as usize);
    // Request frames carry the name the caller asked for, not the resolved
    // display name: a bare `--op linear` keeps tracking the live version
    // even if a swap lands mid-run, while a pinned `--op linear@1` stays
    // pinned. The listed entry only supplies shapes (and the report name).
    let wire_name = cfg.op.clone().unwrap_or_else(|| op_name.clone());
    let requests = cfg.requests.max(1);
    let concurrency = cfg.concurrency.clamp(1, requests);

    // The identical input `run_seeded` would build for a linear model:
    // digest parity comes from this line.
    let x = MatrixRng::seed_from(cfg.seed).gaussian_col(n, requests, 0.0, 1.0);

    let t0 = Instant::now();
    let per = requests / concurrency;
    let extra = requests % concurrency;
    let shares = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(concurrency);
        let mut start = 0usize;
        for c in 0..concurrency {
            let take = per + usize::from(c < extra);
            let range = start..start + take;
            start += take;
            let (addr, op, x) = (&cfg.addr, wire_name.as_str(), &x);
            let pipeline = cfg.pipeline;
            handles.push(s.spawn(move || run_connection(addr, op, x, range, pipeline)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection panicked"))
            .collect::<Result<Vec<_>, CliError>>()
    })?;
    let makespan = t0.elapsed();

    let mut replies: Vec<Option<Vec<f32>>> = vec![None; requests];
    let mut latencies = Vec::with_capacity(requests);
    let mut busy_retries = 0u64;
    for (results, lats, busy) in shares {
        for (idx, y) in results {
            if replies[idx].replace(y).is_some() {
                return Err(CliError(format!("request {idx} answered twice")));
            }
        }
        latencies.extend(lats);
        busy_retries += busy;
    }
    let mut flat = Vec::with_capacity(m * requests);
    for (idx, y) in replies.into_iter().enumerate() {
        let y = y.ok_or_else(|| CliError(format!("request {idx} never answered")))?;
        flat.extend_from_slice(&y);
    }
    // One `Stats` round trip to learn which kernel level actually served
    // the run. Best-effort: an older daemon closes the connection instead.
    let kernel =
        NetClient::connect(&cfg.addr).ok().and_then(|mut c| c.stats().ok()).and_then(|samples| {
            let metrics = biq_obs::MetricsSnapshot { samples };
            let info = metrics.find("biq_op_info", "op", &op_name)?;
            Some(info.label("kernel")?.to_string())
        });
    let digest = fnv1a64(&flat.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>());
    latencies.sort_unstable();
    let quantile = |p: f64| -> u64 {
        let rank = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    };
    Ok(LoadReport {
        op: op_name,
        m,
        n,
        requests,
        concurrency,
        makespan,
        throughput_rps: requests as f64 / makespan.as_secs_f64().max(1e-9),
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
        busy_retries,
        digest,
        kernel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_cmds::{cmd_compile, cmd_run_model, CompileConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("biq_cli_net_{name}"))
    }

    #[test]
    fn load_client_digest_matches_run_model_for_linear_artifacts() {
        let path = tmp("digest.biqmod");
        let cfg = CompileConfig {
            kind: "linear".into(),
            d_model: 24,
            d_ff: 32,
            ..CompileConfig::default()
        };
        cmd_compile(&cfg, &path).unwrap();
        let (net, ids) = start_daemon(&path, "127.0.0.1:0", &DaemonConfig::default()).unwrap();
        assert_eq!(ids[0].0, "linear");
        let report = cmd_load_client(&LoadClientConfig {
            addr: net.local_addr().to_string(),
            op: Some("linear".into()),
            requests: 60,
            concurrency: 3,
            seed: 9,
            ..LoadClientConfig::default()
        })
        .unwrap();
        let (_, reference) = cmd_run_model(&path, 9, 60).unwrap();
        let ref_digest =
            fnv1a64(&reference.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>());
        assert_eq!(report.digest, ref_digest, "wire replay must be bit-identical to run-model");
        assert_eq!(report.requests, 60);
        assert_eq!((report.m, report.n), (24, 32));
        assert!(report.kernel.is_some(), "load-client must resolve the op's kernel via Stats");
        let stats = net.shutdown();
        assert_eq!(stats.completed(), 60);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stats_json_is_shaped() {
        let path = tmp("stats.biqmod");
        let cfg = CompileConfig {
            kind: "linear".into(),
            d_model: 8,
            d_ff: 12,
            ..CompileConfig::default()
        };
        cmd_compile(&cfg, &path).unwrap();
        let (net, _) = start_daemon(&path, "127.0.0.1:0", &DaemonConfig::default()).unwrap();
        let json = render_stats_json(&net.shutdown());
        // Stats rows carry the versioned display name.
        assert!(json.contains("\"name\": \"linear@1\""), "{json}");
        assert!(json.contains("\"profile\""), "{json}");
        let _ = std::fs::remove_file(path);
    }
}
