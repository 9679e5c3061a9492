//! Concurrency property of the metrics layer: values recorded from many
//! threads into one shared histogram are never torn or lost — the
//! invariant the serving layer leans on when every worker records into the
//! same per-op latency and batch-width histograms.

use biq_obs::Pow2Histogram;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N threads hammer one histogram; the snapshot holds exactly every
    /// recorded value (count from buckets, sum exact) — no torn counts,
    /// no lost increments.
    #[test]
    fn concurrent_histogram_recording_loses_nothing(
        values in proptest::collection::vec(1u64..1_000_000, 1..256),
        threads in 1usize..5,
    ) {
        let h = Arc::new(Pow2Histogram::default());
        let chunk = values.len().div_ceil(threads);
        std::thread::scope(|s| {
            for part in values.chunks(chunk) {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for &v in part {
                        h.record(v);
                    }
                });
            }
        });
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
    }
}
