//! Per-request lifecycle records: fixed-size phase breakdowns captured at
//! reply time, of which a reservoir keeps the slowest N (tail exemplars).
//!
//! A cumulative latency histogram says *that* p99 is high; a
//! [`RequestRecord`] says *which* request was slow and *where* its time
//! went: queue wait, batch-window wait, kernel execution, reply-ticket
//! wait, and socket write. Records are built from clock stamps the serving
//! layer already takes (see `crates/serve`), so capturing one costs no
//! extra `Instant::now()` read on the hot path.
//!
//! [`SlowLog`] keeps the N slowest requests ever seen. The fast path is a
//! single relaxed load of the current admission floor; only a request slow
//! enough to displace an entry takes the mutex.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The phase labels of a [`RequestRecord`] breakdown, in lifecycle order.
pub const PHASES: [&str; 5] = ["queue", "window", "exec", "ticket", "write"];

/// One request's lifecycle, phase by phase. All times are nanoseconds; the
/// five phases telescope, so they sum to `total_ns` **exactly** (pinned by
/// [`RequestRecord::phase_sum`] and a property test).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestRecord {
    /// Wire request id (0 for in-process submissions).
    pub req_id: u64,
    /// Registration index of the op (resolve names via server metadata).
    pub op: u32,
    /// Activation columns the request carried.
    pub cols: u32,
    /// Admission time, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End-to-end latency: admission → reply written (or reply ready, for
    /// in-process requests).
    pub total_ns: u64,
    /// Admission → picked up by the batcher (channel/queue wait).
    pub queue_ns: u64,
    /// Batcher pickup → batch dispatch (window wait for co-batching).
    pub window_ns: u64,
    /// Dispatch → outputs scattered (kernel execution, amortized).
    pub exec_ns: u64,
    /// Outputs ready → reply consumed by the writer (head-of-line wait).
    pub ticket_ns: u64,
    /// Reply encode + socket write.
    pub write_ns: u64,
}

impl RequestRecord {
    /// Builds a record from the six lifecycle stamps (nanoseconds since
    /// the trace epoch). Each stamp is clamped to be no earlier than its
    /// predecessor, so the phases telescope and sum to `total_ns` exactly
    /// even if cross-thread stamps are slightly out of order.
    #[allow(clippy::too_many_arguments)]
    pub fn from_timeline(
        req_id: u64,
        op: u32,
        cols: u32,
        enqueued_ns: u64,
        pushed_ns: u64,
        dispatched_ns: u64,
        done_ns: u64,
        ticket_ns: u64,
        written_ns: u64,
    ) -> Self {
        let a = enqueued_ns;
        let b = pushed_ns.max(a);
        let c = dispatched_ns.max(b);
        let d = done_ns.max(c);
        let e = ticket_ns.max(d);
        let f = written_ns.max(e);
        RequestRecord {
            req_id,
            op,
            cols,
            start_ns: a,
            total_ns: f - a,
            queue_ns: b - a,
            window_ns: c - b,
            exec_ns: d - c,
            ticket_ns: e - d,
            write_ns: f - e,
        }
    }

    /// The phase durations in [`PHASES`] order.
    pub fn phases(&self) -> [u64; 5] {
        [self.queue_ns, self.window_ns, self.exec_ns, self.ticket_ns, self.write_ns]
    }

    /// Sum of the five phases — equals `total_ns` for any record built by
    /// [`RequestRecord::from_timeline`].
    pub fn phase_sum(&self) -> u64 {
        self.phases().iter().sum()
    }
}

/// A record resolved against server metadata: the op index replaced by its
/// registration name. This is what the `SlowLog` wire verb carries and
/// what dashboards render.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowHit {
    /// Op registration name.
    pub op: String,
    /// The captured record.
    pub rec: RequestRecord,
}

// --------------------------------------------------------------- slow log

/// The N slowest requests observed, by `total_ns`. Offering a record that
/// cannot make the cut costs one relaxed atomic load; only genuine tail
/// events take the mutex. This is the exemplar store behind the `SlowLog`
/// wire verb: the p99 bucket stops being anonymous.
#[derive(Debug)]
pub struct SlowLog {
    cap: usize,
    /// Admission floor: the smallest `total_ns` currently kept, once the
    /// reservoir is full (0 while filling — everything admitted).
    floor: AtomicU64,
    entries: Mutex<Vec<RequestRecord>>,
}

impl SlowLog {
    /// A reservoir keeping the `cap` slowest records (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        SlowLog { cap, floor: AtomicU64::new(0), entries: Mutex::new(Vec::with_capacity(cap)) }
    }

    /// Offers a record; keeps it only if it is among the slowest seen.
    pub fn offer(&self, rec: &RequestRecord) {
        let floor = self.floor.load(Ordering::Relaxed);
        if floor != 0 && rec.total_ns <= floor {
            return; // fast path: not slow enough to displace anything
        }
        let mut entries = self.entries.lock().expect("slow log poisoned");
        entries.push(*rec);
        entries.sort_by_key(|e| std::cmp::Reverse(e.total_ns));
        entries.truncate(self.cap);
        if entries.len() == self.cap {
            self.floor.store(entries[self.cap - 1].total_ns, Ordering::Relaxed);
        }
    }

    /// The slowest records, slowest first, at most `max`.
    pub fn slowest(&self, max: usize) -> Vec<RequestRecord> {
        let entries = self.entries.lock().expect("slow log poisoned");
        entries.iter().take(max).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(req_id: u64, total: u64) -> RequestRecord {
        RequestRecord::from_timeline(req_id, 1, 2, 100, 100, 100, 100 + total, 0, 0)
    }

    #[test]
    fn timeline_phases_telescope_exactly() {
        let r = RequestRecord::from_timeline(7, 3, 4, 1_000, 1_500, 2_100, 9_000, 9_400, 9_650);
        assert_eq!(r.queue_ns, 500);
        assert_eq!(r.window_ns, 600);
        assert_eq!(r.exec_ns, 6_900);
        assert_eq!(r.ticket_ns, 400);
        assert_eq!(r.write_ns, 250);
        assert_eq!(r.total_ns, 8_650);
        assert_eq!(r.phase_sum(), r.total_ns);
        assert_eq!((r.req_id, r.op, r.cols), (7, 3, 4));
    }

    #[test]
    fn timeline_clamps_out_of_order_stamps() {
        // A later stamp earlier than its predecessor (cross-thread clock
        // skew) clamps to a zero-length phase; the sum invariant holds.
        let r = RequestRecord::from_timeline(1, 0, 1, 5_000, 4_000, 6_000, 5_500, 0, 0);
        assert_eq!(r.queue_ns, 0);
        assert_eq!(r.window_ns, 1_000);
        assert_eq!(r.exec_ns, 0);
        assert_eq!(r.phase_sum(), r.total_ns);
    }

    #[test]
    fn phase_sum_equals_total_for_arbitrary_stamps() {
        // Property: for ANY six stamps (including wildly non-monotone
        // ones), the telescoping construction makes the breakdown sum to
        // the end-to-end latency exactly — tolerance 0.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % (1 << 40)
        };
        for _ in 0..2_000 {
            let s = [next(), next(), next(), next(), next(), next()];
            let r = RequestRecord::from_timeline(0, 0, 0, s[0], s[1], s[2], s[3], s[4], s[5]);
            assert_eq!(r.phase_sum(), r.total_ns, "stamps {s:?}");
        }
    }

    #[test]
    fn slow_log_keeps_the_n_slowest() {
        let log = SlowLog::new(3);
        for (id, total) in [(1, 50), (2, 500), (3, 10), (4, 300), (5, 700), (6, 40)] {
            log.offer(&rec(id, total));
        }
        let slow = log.slowest(10);
        assert_eq!(slow.iter().map(|r| r.total_ns).collect::<Vec<_>>(), vec![700, 500, 300]);
        assert_eq!(slow[0].req_id, 5);
        assert_eq!(log.slowest(1).len(), 1);
        // Fast-path floor: a clearly-fast record is rejected without
        // changing the contents.
        log.offer(&rec(9, 1));
        assert_eq!(log.slowest(10).len(), 3);
        assert_eq!(log.slowest(10)[2].total_ns, 300);
    }
}
