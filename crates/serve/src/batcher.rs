//! Window/bucket/pack policy — the pure core of the serving layer.
//!
//! The `Batcher` owns no threads and does no I/O: the server's batcher
//! thread feeds it accepted requests and asks it what to flush, and a free
//! worker asks it for the oldest bucket (both through one mutex in
//! `server.rs`) — which keeps the policy unit-testable without spinning up
//! workers.
//!
//! Policy: requests are bucketed by `(op, input rows)` — in practice by op,
//! since shape validation at submit time already pins `rows` to the op's
//! input size. Dispatch is **work-conserving**: a bucket leaves on the first
//! of three triggers (`FlushReason`), and only the first two are this
//! module's own clockwork —
//!
//! * **size**: its packed width reaches `max_cols` (zero added latency);
//! * **window**: its **oldest** request has waited `window` — the longest a
//!   bucket is held *while every worker is busy*;
//! * **idle**: a worker is free with nothing queued for it, so the server
//!   takes the oldest bucket at once (`Batcher::take_oldest`). A lone
//!   request on an idle server therefore never waits for company; under
//!   load batches form because requests queue behind busy workers, which
//!   is the only time sharing a LUT build pays.
//!
//! Flushing produces a `BatchJob`: the requests whose columns a worker
//! will pack side by side into one `ColMatrix`, run through a single
//! executor pass — one LUT build amortised across every column, the
//! paper's core win — and scatter back to per-request reply channels.
//!
//! Buckets are keyed by slot index in a map (not a fixed table): the live
//! registry grows online as models load, and a request against an op the
//! batcher has never seen simply opens a new bucket. Each request carries
//! its own `Arc`s of the compiled op and its stats block, captured at
//! admission — the drain-on-retire contract: a swap or unload can never
//! change what an already-accepted request runs against.

use crate::registry::{InflightGuard, OpId};
use crate::stats::OpStats;
use biq_matrix::{ColMatrix, Matrix};
use biq_runtime::CompiledOp;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors a request can be answered with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue is full ([`crate::Client::try_submit`] only).
    Busy,
    /// The server no longer accepts requests.
    ShuttingDown,
    /// The op id or name does not resolve to a live op (never registered,
    /// or its version was retired by a swap/unload/eviction).
    UnknownOp,
    /// The input's row count disagrees with the op's input size.
    ShapeMismatch {
        /// The op's input size `n`.
        expected: usize,
        /// The submitted row count.
        got: usize,
    },
    /// The server dropped the request without answering (worker loss).
    Canceled,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy => write!(f, "queue full"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::UnknownOp => write!(f, "unknown op id"),
            ServeError::ShapeMismatch { expected, got } => {
                write!(f, "input has {got} rows, op expects {expected}")
            }
            ServeError::Canceled => write!(f, "request canceled"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Lifecycle stamps a worker hands back with each reply: everything known
/// up to "outputs ready", as nanoseconds since the trace epoch. The net
/// writer extends the timeline with its own ticket/write stamps and turns
/// the whole thing into a [`biq_obs::RequestRecord`]; in-process requests
/// are recorded at the worker with the last two phases zero. Built from
/// clock reads the serving path already takes — stamping adds arithmetic,
/// never an extra `Instant::now()`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Lap {
    /// Op registration index.
    pub(crate) op: u32,
    /// This request's column count.
    pub(crate) cols: u32,
    /// Admission (submit or frame decode).
    pub(crate) enqueued_ns: u64,
    /// Picked up by the batcher thread.
    pub(crate) pushed_ns: u64,
    /// Bucket left the batcher (sent down the job channel, or taken by a
    /// free worker).
    pub(crate) dispatched_ns: u64,
    /// Outputs computed, reply about to be sent.
    pub(crate) done_ns: u64,
}

/// A successful reply: the result plus its lifecycle stamps.
#[derive(Debug)]
pub(crate) struct Answer {
    pub(crate) matrix: Matrix,
    pub(crate) lap: Lap,
}

/// Fires its callback when dropped. The serving engine attaches one to a
/// wire request's [`Pending`]: whichever path the request leaves the
/// engine by — answered by a worker, canceled by a dropped channel, or
/// refused at admission — the guard drops *after* the reply lands on the
/// ticket channel, so the net reactor learns "poll this ticket now"
/// without parking a thread on it. Spurious fires are harmless by
/// contract: the reactor's pump simply finds nothing new.
pub(crate) struct ReplyNotify(pub(crate) Arc<dyn Fn() + Send + Sync>);

impl Drop for ReplyNotify {
    fn drop(&mut self) {
        (self.0)();
    }
}

impl std::fmt::Debug for ReplyNotify {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReplyNotify")
    }
}

/// One accepted inference request, waiting in a bucket.
#[derive(Debug)]
pub(crate) struct Pending {
    pub(crate) op: OpId,
    /// The compiled op captured at admission — what this request WILL run
    /// against, regardless of any swap/unload that lands in between.
    pub(crate) compiled: Arc<CompiledOp>,
    /// The op's stats block, captured with it.
    pub(crate) stats: Arc<OpStats>,
    pub(crate) x: ColMatrix,
    pub(crate) reply: mpsc::Sender<Result<Answer, ServeError>>,
    pub(crate) enqueued: Instant,
    /// When the batcher picked the request off the submit queue (restamped
    /// by [`Batcher::push`] from the clock read the loop already took).
    pub(crate) pushed: Instant,
    /// When `true`, the request came over the wire and the net writer
    /// finalizes its lifecycle record (adding ticket/write phases); the
    /// worker must not record it, or it would be counted twice.
    pub(crate) deferred: bool,
    /// Pins the owning model "in flight" for eviction refusal; released
    /// on drop, whichever way the request exits.
    #[allow(dead_code)]
    pub(crate) inflight: Option<InflightGuard>,
    /// Declared after `reply` so the wake-up fires only after the reply
    /// sender is dropped (field drop order is declaration order) — by the
    /// time the reactor polls, the ticket always resolves. Held only for
    /// its `Drop`.
    #[allow(dead_code)]
    pub(crate) notify: Option<ReplyNotify>,
}

/// A flushed bucket: requests a worker packs into one executor pass.
#[derive(Debug)]
pub(crate) struct BatchJob {
    pub(crate) op: OpId,
    /// Shared by every request in the bucket (same op ⇒ same capture).
    pub(crate) compiled: Arc<CompiledOp>,
    pub(crate) stats: Arc<OpStats>,
    pub(crate) requests: Vec<Pending>,
    /// Total packed width (sum of request column counts).
    pub(crate) cols: usize,
    /// When the bucket flushed toward a worker (the window phase's end).
    pub(crate) dispatched: Instant,
}

/// Why a bucket left the batcher — exported per op as
/// `biq_serve_flushes_total{op,reason}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlushReason {
    /// Packed width reached `max_cols`.
    Size,
    /// The oldest request waited out the window with every worker busy
    /// (the shutdown drain, which cuts that wait short, counts here too).
    Window,
    /// A worker was free with nothing queued for it.
    Idle,
}

/// One op's open bucket.
#[derive(Debug)]
struct Bucket {
    requests: Vec<Pending>,
    cols: usize,
    /// Enqueue time of the oldest request — the window anchor.
    opened: Instant,
}

/// The window/bucket policy state: one open bucket per active op.
pub(crate) struct Batcher {
    window: Duration,
    max_cols: usize,
    buckets: HashMap<usize, Bucket>,
}

impl Batcher {
    pub(crate) fn new(window: Duration, max_cols: usize) -> Self {
        Self { window, max_cols: max_cols.max(1), buckets: HashMap::new() }
    }

    /// Accepts one request; returns a job when the size trigger fires.
    ///
    /// A request wider than `max_cols` on its own flushes immediately as a
    /// single-request job (it cannot gain from waiting and must not stall
    /// the bucket).
    pub(crate) fn push(&mut self, p: Pending, now: Instant) -> Option<BatchJob> {
        let mut p = p;
        p.pushed = now; // queue wait ends here; window wait begins
        let op = p.op;
        let cols = p.x.cols();
        match self.buckets.get_mut(&op.0) {
            None if cols >= self.max_cols => {
                let (compiled, stats) = (Arc::clone(&p.compiled), Arc::clone(&p.stats));
                return Some(BatchJob {
                    op,
                    compiled,
                    stats,
                    cols,
                    requests: vec![p],
                    dispatched: now,
                });
            }
            None => {
                self.buckets.insert(op.0, Bucket { requests: vec![p], cols, opened: now });
            }
            Some(bucket) => {
                bucket.requests.push(p);
                bucket.cols += cols;
            }
        }
        if self.buckets.get(&op.0).is_some_and(|b| b.cols >= self.max_cols) {
            self.take(op, now)
        } else {
            None
        }
    }

    /// Earliest moment any open bucket's window expires.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.buckets.values().map(|b| b.opened + self.window).min()
    }

    /// Flushes every bucket whose window has expired at `now`.
    pub(crate) fn flush_expired(&mut self, now: Instant) -> Vec<BatchJob> {
        let window = self.window;
        let expired: Vec<OpId> = self
            .buckets
            .iter()
            .filter(|(_, b)| b.opened + window <= now)
            .map(|(&i, _)| OpId(i))
            .collect();
        expired.into_iter().filter_map(|op| self.take(op, now)).collect()
    }

    /// Takes the bucket that has waited longest (ties: lowest op index) —
    /// what a free worker runs next. Its window no longer counts toward
    /// [`Batcher::next_deadline`].
    pub(crate) fn take_oldest(&mut self, now: Instant) -> Option<BatchJob> {
        let (&oldest, _) = self.buckets.iter().min_by_key(|(&i, b)| (b.opened, i))?;
        self.take(OpId(oldest), now)
    }

    /// Flushes everything (shutdown drain).
    pub(crate) fn flush_all(&mut self, now: Instant) -> Vec<BatchJob> {
        let open: Vec<OpId> = self.buckets.keys().map(|&i| OpId(i)).collect();
        open.into_iter().filter_map(|op| self.take(op, now)).collect()
    }

    /// Requests currently waiting in open buckets.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.buckets.values().map(|b| b.requests.len()).sum()
    }

    fn take(&mut self, op: OpId, now: Instant) -> Option<BatchJob> {
        self.buckets.remove(&op.0).map(|b| {
            let first = &b.requests[0];
            let (compiled, stats) = (Arc::clone(&first.compiled), Arc::clone(&first.stats));
            BatchJob { op, compiled, stats, requests: b.requests, cols: b.cols, dispatched: now }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_runtime::{compile, BackendSpec, PlanBuilder, QuantMethod, WeightSource};

    fn tiny_op() -> Arc<CompiledOp> {
        let signs = biq_matrix::MatrixRng::seed_from(6).signs(4, 4);
        let plan = PlanBuilder::new(4, 4)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .build();
        Arc::new(compile(&plan, WeightSource::Signs(&signs)))
    }

    fn pending(
        compiled: &Arc<CompiledOp>,
        op: usize,
        cols: usize,
        now: Instant,
    ) -> (Pending, mpsc::Receiver<Result<Answer, ServeError>>) {
        let (tx, rx) = mpsc::channel();
        let p = Pending {
            op: OpId(op),
            compiled: Arc::clone(compiled),
            stats: Arc::new(OpStats::default()),
            x: ColMatrix::zeros(4, cols),
            reply: tx,
            enqueued: now,
            pushed: now,
            deferred: false,
            inflight: None,
            notify: None,
        };
        (p, rx)
    }

    #[test]
    fn size_trigger_flushes_exactly_at_max_cols() {
        let c = tiny_op();
        let now = Instant::now();
        let mut b = Batcher::new(Duration::from_millis(10), 4);
        let mut rxs = Vec::new();
        for i in 0..3 {
            let (p, rx) = pending(&c, 0, 1, now);
            rxs.push(rx);
            assert!(b.push(p, now).is_none(), "push {i} must keep collecting");
        }
        let (p, rx) = pending(&c, 0, 1, now);
        rxs.push(rx);
        let job = b.push(p, now).expect("fourth column fires the size trigger");
        assert_eq!(job.cols, 4);
        assert_eq!(job.requests.len(), 4);
        assert!(Arc::ptr_eq(&job.compiled, &c), "job carries the admission-time op");
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn oversized_request_flushes_alone_without_stalling_the_bucket() {
        let c = tiny_op();
        let now = Instant::now();
        let mut b = Batcher::new(Duration::from_millis(10), 4);
        let (small, _rx1) = pending(&c, 0, 1, now);
        assert!(b.push(small, now).is_none());
        let (big, _rx2) = pending(&c, 0, 9, now);
        let job = b.push(big, now).expect("bucket exceeds max_cols");
        assert_eq!(job.cols, 10, "waiting small request rides along");
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn time_trigger_only_fires_per_bucket_window() {
        let c = tiny_op();
        let now = Instant::now();
        let window = Duration::from_millis(5);
        let mut b = Batcher::new(window, 64);
        let (p0, _rx0) = pending(&c, 0, 1, now);
        b.push(p0, now);
        let later = now + Duration::from_millis(3);
        let (p1, _rx1) = pending(&c, 1, 2, later);
        b.push(p1, later);
        assert_eq!(b.next_deadline(), Some(now + window), "oldest bucket anchors the deadline");
        assert!(b.flush_expired(now + Duration::from_millis(4)).is_empty());
        let jobs = b.flush_expired(now + window);
        assert_eq!(jobs.len(), 1, "only op 0's window has passed");
        assert_eq!(jobs[0].op, OpId(0));
        assert_eq!(b.pending(), 1);
        let jobs = b.flush_expired(later + window);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].cols, 2);
    }

    #[test]
    fn take_oldest_empties_the_longest_waiting_bucket() {
        let c = tiny_op();
        let t0 = Instant::now();
        let window = Duration::from_millis(5);
        let mut b = Batcher::new(window, 64);
        assert!(b.take_oldest(t0).is_none(), "nothing open, nothing to take");
        // Op 2 opens first, op 0 a millisecond later; op 2's second request
        // arrives last and must not make its bucket look younger.
        let ms = Duration::from_millis(1);
        let mut rxs = Vec::new();
        for (op, cols, at) in [(2usize, 1usize, t0), (0, 3, t0 + ms), (2, 2, t0 + 2 * ms)] {
            let (p, rx) = pending(&c, op, cols, at);
            rxs.push(rx);
            assert!(b.push(p, at).is_none());
        }
        let now = t0 + 3 * ms;
        let job = b.take_oldest(now).expect("two buckets open");
        assert_eq!((job.op, job.cols, job.requests.len()), (OpId(2), 3, 2), "whole oldest bucket");
        assert_eq!(job.dispatched, now);
        assert_eq!(b.pending(), 1, "the younger bucket stays");
        assert_eq!(b.next_deadline(), Some(t0 + ms + window), "deadline moves to what is left");
        assert_eq!(b.take_oldest(now).expect("op 0's bucket").op, OpId(0));
        assert_eq!((b.pending(), b.next_deadline()), (0, None));
    }

    #[test]
    fn push_restamps_pickup_and_jobs_carry_dispatch_time() {
        let c = tiny_op();
        let t0 = Instant::now();
        let later = t0 + Duration::from_millis(2);
        let mut b = Batcher::new(Duration::from_millis(10), 2);
        let (p, _rx0) = pending(&c, 0, 1, t0);
        assert!(b.push(p, later).is_none());
        let (p2, _rx1) = pending(&c, 0, 1, t0);
        let job = b.push(p2, later).expect("size trigger");
        assert_eq!(job.dispatched, later, "dispatch stamp is the triggering clock read");
        assert!(
            job.requests.iter().all(|r| r.pushed == later && r.enqueued == t0),
            "queue wait ends at batcher pickup, admission stamp survives"
        );
    }

    #[test]
    fn flush_all_drains_every_bucket() {
        let c = tiny_op();
        let now = Instant::now();
        let mut b = Batcher::new(Duration::from_secs(1), 64);
        let mut rxs = Vec::new();
        for op in [0usize, 1, 1, 2] {
            let (p, rx) = pending(&c, op, 1, now);
            rxs.push(rx);
            assert!(b.push(p, now).is_none());
        }
        let jobs = b.flush_all(now);
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs.iter().map(|j| j.requests.len()).sum::<usize>(), 4);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.next_deadline(), None);
    }
}
