//! `biq stats`: query a running daemon's live metrics over the `BIQP`
//! `Stats` admin verb and render them as Prometheus text or JSON.
//!
//! The daemon answers from its counter registry without touching a worker
//! or the serving queue's lock, so polling mid-load (CI does, every few seconds)
//! never perturbs the traffic being measured. `--watch <secs>` re-queries
//! on a fresh connection each round until interrupted and prints **true
//! per-interval rates** — each round is the delta between consecutive
//! snapshots ([`MetricsSnapshot::delta_since`], the same path the
//! daemon's `History` series ring uses), not lifetime aggregates.

use crate::CliError;
use biq_obs::{op_points, MetricsSnapshot, OpPoint};
use biq_serve::net::NetClient;
use std::time::{Duration, Instant};

/// Output shape of `biq stats`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsFormat {
    /// Prometheus text exposition format (the default).
    Prometheus,
    /// The registry's JSON rendering.
    Json,
}

/// Parameters of one `biq stats` invocation.
#[derive(Clone, Debug)]
pub struct StatsConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// How to render the snapshot.
    pub format: StatsFormat,
    /// Re-query every this many seconds instead of exiting after one
    /// snapshot.
    pub watch: Option<Duration>,
    /// Connection attempts before giving up (100 ms apart).
    pub connect_attempts: usize,
}

impl Default for StatsConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8790".into(),
            format: StatsFormat::Prometheus,
            watch: None,
            connect_attempts: 10,
        }
    }
}

/// One `Stats` round trip against a live daemon.
pub fn fetch_stats(addr: &str, connect_attempts: usize) -> Result<MetricsSnapshot, CliError> {
    let mut last = None;
    for _ in 0..connect_attempts.max(1) {
        match NetClient::connect(addr) {
            Ok(mut client) => {
                let samples =
                    client.stats().map_err(|e| CliError(format!("stats query {addr}: {e}")))?;
                return Ok(MetricsSnapshot { samples });
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    Err(CliError(format!("connect {addr}: {}", last.expect("at least one attempt"))))
}

/// Renders one snapshot in the configured format.
pub fn render_stats(metrics: &MetricsSnapshot, format: StatsFormat) -> String {
    match format {
        StatsFormat::Prometheus => metrics.render_prometheus(),
        StatsFormat::Json => metrics.render_json(),
    }
}

/// One `--watch` round as a rate table: per-op requests/s, windowed
/// latency quantiles, queue depth, and rejects over the interval.
pub fn render_watch_round(ops: &[OpPoint], interval_ns: u64) -> String {
    let mut out = format!(
        "interval {:.1}s\n{:<12} {:>8} {:>9} {:>9} {:>6} {:>7} {:>5}\n",
        interval_ns as f64 / 1e9,
        "OP",
        "REQ/S",
        "P50_US",
        "P99_US",
        "QUEUE",
        "BATCH",
        "REJ"
    );
    for op in ops {
        out.push_str(&format!(
            "{:<12} {:>8.1} {:>9} {:>9} {:>6} {:>7.2} {:>5}\n",
            op.op,
            op.rate(interval_ns),
            op.p50_us,
            op.p99_us,
            op.queue_depth,
            op.batch_cols_x100 as f64 / 100.0,
            op.rejected,
        ));
    }
    out
}

/// `biq stats`: print one snapshot, or loop under `--watch` printing
/// per-interval delta rates (the first round only primes the baseline).
pub fn cmd_stats(cfg: &StatsConfig) -> Result<(), CliError> {
    let Some(every) = cfg.watch else {
        let metrics = fetch_stats(&cfg.addr, cfg.connect_attempts)?;
        print!("{}", render_stats(&metrics, cfg.format));
        return Ok(());
    };
    let mut prev: Option<(MetricsSnapshot, Instant)> = None;
    loop {
        let metrics = fetch_stats(&cfg.addr, cfg.connect_attempts)?;
        let now = Instant::now();
        match &prev {
            Some((p, t)) => {
                let delta = metrics.delta_since(p);
                let interval_ns = now.duration_since(*t).as_nanos() as u64;
                print!("{}", render_watch_round(&op_points(&delta), interval_ns));
                println!();
            }
            None => eprintln!(
                "watching {} every {:.0}s (rates are per-interval deltas; first round primes)",
                cfg.addr,
                every.as_secs_f64()
            ),
        }
        prev = Some((metrics, now));
        std::thread::sleep(every);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_cmds::{cmd_compile, CompileConfig};
    use crate::net_cmds::{cmd_load_client, start_daemon, DaemonConfig, LoadClientConfig};

    #[test]
    fn stats_verb_reports_load_counters_live() {
        let path = std::env::temp_dir().join("biq_cli_stats_live.biqmod");
        let cfg = CompileConfig {
            kind: "linear".into(),
            d_model: 16,
            d_ff: 24,
            ..CompileConfig::default()
        };
        cmd_compile(&cfg, &path).unwrap();
        let (net, ids) = start_daemon(&path, "127.0.0.1:0", &DaemonConfig::default()).unwrap();
        let addr = net.local_addr().to_string();
        let report = cmd_load_client(&LoadClientConfig {
            addr: addr.clone(),
            requests: 40,
            concurrency: 2,
            ..LoadClientConfig::default()
        })
        .unwrap();
        assert_eq!(report.requests, 40);

        // The Stats verb must agree with what the load client observed.
        let metrics = fetch_stats(&addr, 5).unwrap();
        assert_eq!(metrics.counter_total("biq_serve_completed_total"), 40);
        assert!(metrics.counter_total("biq_net_frames_in_total") >= 40);
        assert!(metrics.counter_total("biq_net_bytes_out_total") > 0);
        // Op labels carry the versioned display name (boot model is v1).
        let versioned = format!("{}@1", ids[0].0);
        let info = metrics.find("biq_op_info", "op", &versioned).expect("op identity sample");
        assert_eq!(report.kernel.as_deref(), info.label("kernel"));

        // Both renderings carry the headline counter.
        let prom = render_stats(&metrics, StatsFormat::Prometheus);
        assert!(prom.contains("# TYPE biq_serve_completed_total counter\n"), "{prom}");
        assert!(prom.contains("biq_serve_completed_total{op=\"linear@1\"} 40\n"), "{prom}");
        // The fleet gauges ride along, labeled by the boot model's name
        // (the artifact's file stem) and version.
        let mem = metrics
            .find("biq_model_memory_bytes", "model", "biq_cli_stats_live")
            .expect("model memory gauge");
        assert_eq!(mem.label("version"), Some("1"));
        assert!(prom.contains("biq_model_memory_bytes{model=\"biq_cli_stats_live\""), "{prom}");
        let json = render_stats(&metrics, StatsFormat::Json);
        assert!(json.contains("biq_serve_completed_total"), "{json}");

        net.shutdown();
        let _ = std::fs::remove_file(path);
    }
}
