//! Estimators: exact quantiles from raw samples, the quiet-host summary, the
//! slice-median tail, the
//! seeded Poisson schedule, and the name rule for metrics and workloads.
//!
//! Nothing here reads `Pow2Histogram`: every quantile the benchmark prints
//! comes from the raw sample vector, so a number is a number and not a
//! power-of-two bucket midpoint.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending-sorted slice by the
/// nearest-rank rule: the smallest sample with at least `p·n` samples at or
/// below it. Exact (always one of the samples), 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its `p`-quantile.
pub fn quantile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    quantile_sorted(samples, p)
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Tail percentiles tried, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Samples a slice must keep beyond the reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest of [`TAIL_CANDIDATES`] that leaves at least [`MIN_BEYOND`]
/// samples beyond it in a set of `n` samples (`None` when even the lowest
/// candidate does not).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| ((1.0 - p) * n as f64).round() as usize >= MIN_BEYOND)
}

/// The issue's tail: `values` (in time order) cut into `slices` equal runs,
/// in each the highest percentile every run supports, and the median of
/// those — robust to one host stall, not to a noisy host. Returns the value,
/// the percentile reported and the thinnest run's sample count.
pub fn slice_median_tail(values: &[f64], slices: usize) -> Option<(f64, f64, usize)> {
    let per = values.len() / slices.max(1);
    let percentile = highest_supported_percentile(per)?;
    let mut tails: Vec<f64> = values
        .chunks_exact(per)
        .take(slices)
        .map(|c| quantile(&mut c.to_vec(), percentile))
        .collect();
    Some((median(&mut tails), percentile, per))
}

/// Samples per slice [`quiet_summary`] aims for — enough for a median or a
/// rate — and the range the slice count stays in.
pub const MEDIAN_SLICE_N: usize = 20;
pub const MIN_SLICES: usize = 10;
pub const MAX_SLICES: usize = 60;

/// The share of slices, counted from the favourable end, whose boundary a
/// quiet-host estimate reports: the best decile.
pub const QUIET_SHARE: f64 = 0.10;

/// What a run reports about its op times: estimates of the program's speed
/// while the host was quiet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuietSummary {
    /// Best-decile boundary over the slices of each slice's median, µs.
    pub p50: f64,
    /// Best-decile boundary over the slices of each slice's ops per second.
    pub ops_per_s: f64,
    /// Slices used.
    pub slices: usize,
}

/// Cuts `[0, span_s)` into `slices` equal time slices and sorts the samples
/// into them by start time.
fn bucket(samples: &[(f64, f64)], span_s: f64, slices: usize) -> Vec<Vec<f64>> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(t, v) in samples {
        if t >= 0.0 && t < span_s {
            buckets[((t / span_s * slices as f64) as usize).min(slices - 1)].push(v);
        }
    }
    buckets
}

/// Ops per second in each of `slices` equal time slices of `[0, span_s)`,
/// from the ops' start times. A slice's ops are divided by the time from its
/// first op's start to the next slice's first op's start — the time those
/// ops actually took — so the rate has no counting grain. The last slice has
/// no such end mark and is left out, as are empty slices.
fn slice_rates(starts: &[f64], span_s: f64, slices: usize) -> Vec<f64> {
    let mut first = vec![f64::INFINITY; slices];
    let mut count = vec![0usize; slices];
    for &t in starts {
        if t >= 0.0 && t < span_s {
            let i = ((t / span_s * slices as f64) as usize).min(slices - 1);
            first[i] = first[i].min(t);
            count[i] += 1;
        }
    }
    (0..slices - 1)
        .filter(|&i| count[i] > 0 && first[i + 1].is_finite())
        .map(|i| count[i] as f64 / (first[i + 1] - first[i]))
        .collect()
}

/// Summarises `(start time, µs)` samples taken over `[0, span_s)`.
///
/// The span is cut into equal time slices, as many as hold
/// [`MEDIAN_SLICE_N`] samples each within [`MIN_SLICES`]..=[`MAX_SLICES`].
/// Each slice gives a median and a rate; the summary is the boundary of the
/// *best decile* of each over the slices.
///
/// Why not the plain median and the whole-run rate: the reference host is a
/// shared VM whose neighbours slow it in bursts of about a second, by up to
/// 2x, for anything from none to most of a run. Such noise only ever slows a
/// slice down, so the best decile of many short slices estimates the
/// program's speed on a quiet host and repeats between runs, where whole-run
/// medians moved by 10-30 %. A stall, or a noisy three quarters of a run,
/// moves nothing; a change that makes every slice slower moves all of them.
///
/// `rate_samples` are the start times of every op that counts for
/// throughput (they may outnumber `samples` when only some ops are timed).
/// Returns `None` when some slice holds no sample.
pub fn quiet_summary(
    samples: &[(f64, f64)],
    rate_samples: &[f64],
    span_s: f64,
) -> Option<QuietSummary> {
    if span_s <= 0.0 {
        return None;
    }
    let slices = (samples.len() / MEDIAN_SLICE_N).clamp(MIN_SLICES, MAX_SLICES);
    let mut by_slice = bucket(samples, span_s, slices);
    let mut rates = slice_rates(rate_samples, span_s, slices);
    if rates.is_empty() || by_slice.iter().any(Vec::is_empty) {
        return None;
    }
    let mut medians: Vec<f64> = by_slice.iter_mut().map(|b| quantile(b, 0.5)).collect();
    Some(QuietSummary {
        p50: quantile(&mut medians, QUIET_SHARE),
        ops_per_s: quantile(&mut rates, 1.0 - QUIET_SHARE),
        slices,
    })
}

/// `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the driver
/// uses to judge spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped into the data.
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile range as a share of the median (the driver's spread).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// SplitMix64: the benchmark's own generator for schedules and op draws, so
/// the arrival process depends on `--seed` alone and not on a crate's RNG.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Due times (seconds from phase start) of a Poisson arrival process of
/// `rate_per_s` over `duration_s`: exponential gaps drawn from `rng`. The
/// same seed gives the same schedule.
pub fn poisson_schedule(rng: &mut SplitMix64, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    let mut due = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -rng.next_unit().ln() / rate_per_s;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

/// The name rule of `BENCHMARK.json`: starts with a letter or digit, at
/// most 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The unit rule of `BENCHMARK.json`: at most 16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_samples() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        // Never a bucket midpoint: 100µs and 127µs stay apart.
        assert_eq!(median(&mut [100.0, 127.0, 127.0]), 127.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_beyond() {
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.99), "9.99 rounds to 10");
        assert_eq!(highest_supported_percentile(500), Some(0.95));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(199), Some(0.95), "9.95 rounds to 10");
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(40), Some(0.75));
        assert_eq!(highest_supported_percentile(30), None);
    }

    /// 20 s at 1000 ops/s of value 1.0, the host disturbed (ops 2x slower,
    /// half the rate) in the given half-open second ranges.
    fn noisy_run(disturbed: &[(f64, f64)]) -> (Vec<(f64, f64)>, Vec<f64>) {
        let mut s = Vec::new();
        let mut t = 0.0;
        while t < 20.0 {
            let slow = disturbed.iter().any(|&(a, b)| t >= a && t < b);
            s.push((t, if slow { 2.0 } else { 1.0 }));
            t += if slow { 0.002 } else { 0.001 };
        }
        let starts = s.iter().map(|p| p.0).collect();
        (s, starts)
    }

    #[test]
    fn quiet_summary_ignores_bursts_of_host_noise() {
        let quiet = noisy_run(&[]);
        let q = quiet_summary(&quiet.0, &quiet.1, 20.0).unwrap();
        assert_eq!(q.p50, 1.0);
        assert!((q.ops_per_s - 1000.0).abs() < 3.0, "{}", q.ops_per_s);
        assert_eq!(q.slices, MAX_SLICES);
        // Disturbed for 12 of 20 seconds, in bursts: nothing moves...
        let noisy = noisy_run(&[(0.0, 4.5), (6.2, 10.7), (12.4, 15.4)]);
        let n = quiet_summary(&noisy.0, &noisy.1, 20.0).unwrap();
        assert_eq!(n.p50, 1.0);
        assert!((n.ops_per_s - 1000.0).abs() < 3.0, "{}", n.ops_per_s);
        // ...while a whole-run median and rate would have.
        let mut all: Vec<f64> = noisy.0.iter().map(|x| x.1).collect();
        assert_eq!(quantile(&mut all, 0.99), 2.0);
        assert!((noisy.0.len() as f64 / 20.0) < 750.0);
        // A program that is slower everywhere moves every slice.
        let slow: Vec<(f64, f64)> = quiet.0.iter().map(|&(t, v)| (t, v * 1.2)).collect();
        assert_eq!(quiet_summary(&slow, &quiet.1, 20.0).unwrap().p50, 1.2);
    }

    #[test]
    fn slice_median_tail_ignores_one_stalled_slice() {
        // 10 slices x 1000 samples of value 1.0, one slice stalled at 50.0.
        let v: Vec<f64> = (0..10_000).map(|i| if i / 1000 == 3 { 50.0 } else { 1.0 }).collect();
        assert_eq!(slice_median_tail(&v, 10), Some((1.0, 0.99, 1000)));
        assert_eq!(quantile(&mut v.clone(), 0.99), 50.0, "a whole-run p99 reports the stall");
        assert_eq!(slice_median_tail(&v[..2000], 10).unwrap().1, 0.95, "200 per slice: p95");
        assert_eq!(slice_median_tail(&v[..100], 10), None);
    }

    #[test]
    fn quiet_summary_needs_a_sample_in_every_slice() {
        let s: Vec<(f64, f64)> = (0..2000).map(|i| (i as f64 / 200.0, i as f64)).collect();
        let starts: Vec<f64> = s.iter().map(|p| p.0).collect();
        assert_eq!(quiet_summary(&s, &starts, 10.0).unwrap().slices, 60);
        assert_eq!(quiet_summary(&s[..100], &starts[..100], 0.5).unwrap().slices, 10);
        assert!(
            quiet_summary(&s[..100], &starts[..100], 10.0).is_none(),
            "slices past 0.5 s are empty"
        );
        assert!(quiet_summary(&[], &[], 10.0).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v).unwrap();
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (med - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12
        );
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, med, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert_eq!((q1, med, q3), (0.5, 2.0, 3.5));
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn poisson_schedule_is_reproducible_and_has_the_rate() {
        let a = poisson_schedule(&mut SplitMix64::new(7), 5000.0, 4.0);
        let b = poisson_schedule(&mut SplitMix64::new(7), 5000.0, 4.0);
        let c = poisson_schedule(&mut SplitMix64::new(8), 5000.0, 4.0);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times ascend");
        assert!(a.iter().all(|&t| t > 0.0 && t < 4.0));
        let n = a.len() as f64;
        assert!((n - 20000.0).abs() < 4.0 * 20000f64.sqrt(), "count {n} far from rate·duration");
        // Exponential gaps: the mean gap is 1/rate and so is the deviation.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean * 5000.0 - 1.0).abs() < 0.05);
        assert!((var.sqrt() * 5000.0 - 1.0).abs() < 0.05);
    }

    #[test]
    fn name_and_unit_rules() {
        for good in ["op_us_p50", "core.op_us.512x512", "decode_b1", "1x", "a-b"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "_x", "µs", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["us", "1/s", "MiB", "GB/s", "ratio", "%"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "µs", "req per second!", "01234567890123456"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
