//! What the benchmark learns about the host: provenance (cores, git
//! revision), the fixed-work canary, the cost of a clock read, sequential
//! read bandwidth over a stated working set, and the process's peak RSS.

use std::hint::black_box;
use std::time::Instant;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The short git revision of the checkout, or `"unknown"` outside a git
/// repository (the driver's checkout is not one).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of cpu0's level-2 cache in bytes, when sysfs tells.
pub fn l2_bytes() -> Option<u64> {
    (0..8).find_map(|i| {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let level = std::fs::read_to_string(format!("{base}/level")).ok()?;
        if level.trim() != "2" {
            return None;
        }
        let size = std::fs::read_to_string(format!("{base}/size")).ok()?;
        let size = size.trim();
        let (digits, mult) = match size.chars().last()? {
            'K' => (&size[..size.len() - 1], 1024),
            'M' => (&size[..size.len() - 1], 1024 * 1024),
            _ => (size, 1),
        };
        digits.parse::<u64>().ok().map(|n| n * mult)
    })
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median nanoseconds of a fixed serially dependent multiply–add chain.
/// The work never changes across commits and cannot vectorise, so the value
/// tracks only the host's effective speed: two result sets whose canaries
/// differ were not taken on comparable hosts.
pub fn canary_ns() -> f64 {
    const LINKS: usize = 20_000;
    let mut runs: Vec<f64> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(1.000_000_1f64);
            for _ in 0..LINKS {
                x = x * 1.000_000_3 + 1e-9;
            }
            black_box(x);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut runs)
}

/// Median cost of one `Instant::now()` in nanoseconds — the price of every
/// benchmark-side span edge.
pub fn clock_ns() -> f64 {
    const READS: usize = 1000;
    let mut runs: Vec<f64> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / READS as f64
        })
        .collect();
    crate::stats::median(&mut runs)
}

/// Sequential read bandwidth in GB/s over a buffer of `bytes` bytes, read
/// repeatedly for about `seconds`: the bound a gather over a working set of
/// that size cannot beat.
pub fn read_gbps(bytes: usize, seconds: f64) -> f64 {
    let words = (bytes / 8).max(1);
    let buf: Vec<u64> = (0..words as u64).collect();
    let sweep = |buf: &[u64]| -> u64 {
        // Four independent sums so the loop is bound by loads, not by one
        // add chain.
        let mut s = [0u64; 4];
        for c in buf.chunks_exact(4) {
            for (acc, &v) in s.iter_mut().zip(c) {
                *acc = acc.wrapping_add(v);
            }
        }
        s.iter().fold(0, |a, &b| a.wrapping_add(b))
    };
    black_box(sweep(&buf));
    let mut per_sweep = Vec::new();
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    while Instant::now() < t_end || per_sweep.len() < 5 {
        let t0 = Instant::now();
        black_box(sweep(black_box(&buf)));
        per_sweep.push(t0.elapsed().as_secs_f64());
    }
    (words * 8) as f64 / crate::stats::median(&mut per_sweep) / 1e9
}
