//! Wall-clock measurement: warmup + median of k repetitions.

use std::time::{Duration, Instant};

/// Summary of repeated measurements of one operation.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Median repetition time.
    pub median: Duration,
    /// Fastest repetition.
    pub min: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Number of repetitions measured.
    pub reps: usize,
}

impl Measurement {
    /// Median in microseconds.
    pub fn median_us(&self) -> f64 {
        self.median.as_secs_f64() * 1e6
    }

    /// Median in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median.as_secs_f64() * 1e3
    }
}

/// Times one execution of `f`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed(), out)
}

/// Runs `warmup` unmeasured iterations then `reps` measured ones, returning
/// the distribution summary. The closure's result is passed through
/// `std::hint::black_box` so the optimiser cannot elide the work.
pub fn measure<T>(warmup: usize, reps: usize, mut f: impl FnMut() -> T) -> Measurement {
    assert!(reps >= 1, "need at least one repetition");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed());
    }
    times.sort_unstable();
    let median = times[times.len() / 2];
    let min = times[0];
    let total: Duration = times.iter().sum();
    Measurement { median, min, mean: total / reps as u32, reps }
}

/// Picks a repetition count so one measurement takes roughly
/// `target_total`, bounded to `[min_reps, max_reps]`, based on a single
/// probe run of `f`.
pub fn auto_reps<T>(
    target_total: Duration,
    min_reps: usize,
    max_reps: usize,
    mut f: impl FnMut() -> T,
) -> usize {
    let (probe, _) = time_once(&mut f);
    if probe.is_zero() {
        return max_reps;
    }
    let n = (target_total.as_secs_f64() / probe.as_secs_f64()).round() as usize;
    n.clamp(min_reps, max_reps)
}

/// Median time of a fixed host-speed canary: a serially-dependent scalar
/// multiply–add chain whose work never changes across commits. Because the
/// workload is a latency-bound dependency chain, it cannot vectorise or
/// reorder, so its runtime tracks only the host's current effective speed
/// (frequency, steal time, co-tenant load). It is part of every
/// experiment's provenance line, so a reader comparing two runs can tell a
/// slower host from slower code.
///
/// Median of seven short passes (a few ms total): representative of the
/// window, not of the single quietest instant.
pub fn host_canary_ns() -> u128 {
    fn pass() -> u128 {
        // ~400k serial f32 mul+add pairs: bounded (growth factor over the
        // whole chain is < 1.05), never denormal, and the loop-carried
        // dependency defeats both vectorisation and reassociation.
        let mut acc = 0.618_034_f32;
        let t0 = Instant::now();
        for _ in 0..400_000 {
            acc = std::hint::black_box(acc) * 1.000_000_1 + 0.000_000_07;
        }
        std::hint::black_box(acc);
        t0.elapsed().as_nanos()
    }
    pass(); // warmup
    let mut times: Vec<u128> = (0..7).map(|_| pass()).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_ordered_stats() {
        let m = measure(1, 5, || std::thread::sleep(Duration::from_micros(200)));
        assert_eq!(m.reps, 5);
        assert!(m.min <= m.median);
        assert!(m.median >= Duration::from_micros(150));
    }

    #[test]
    fn auto_reps_clamps() {
        let n = auto_reps(Duration::from_millis(1), 3, 11, || {
            std::thread::sleep(Duration::from_millis(10))
        });
        assert_eq!(n, 3);
    }

    #[test]
    fn host_canary_is_positive() {
        assert!(host_canary_ns() > 0);
    }

    #[test]
    fn unit_helpers() {
        let m = Measurement {
            median: Duration::from_micros(1500),
            min: Duration::from_micros(1000),
            mean: Duration::from_micros(1600),
            reps: 3,
        };
        assert!((m.median_us() - 1500.0).abs() < 1e-9);
        assert!((m.median_ms() - 1.5).abs() < 1e-9);
    }
}
