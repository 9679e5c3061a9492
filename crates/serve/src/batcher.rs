//! Window/bucket/pack policy — the pure core of the serving layer.
//!
//! The `Batcher` owns no threads and does no I/O: submitters push admitted
//! requests into it and workers pull batches out of it, both under the one
//! mutex in `server.rs` — which keeps the policy unit-testable without
//! spinning up workers.
//!
//! Policy: requests are bucketed by `(op, input rows)` — in practice by op,
//! since shape validation at submit time already pins `rows` to the op's
//! input size. Dispatch is **work-conserving**: a bucket leaves for the
//! first of three reasons (`FlushReason`) —
//!
//! * **size**: a push brings its packed width to `max_cols`, which seals it
//!   at once (zero added latency);
//! * **window**: its **oldest** request has waited `window` — the longest a
//!   bucket is held *while every worker is busy*. Nothing watches the clock
//!   for it: while nothing sealed waits, the next push into the bucket
//!   seals it and opens a fresh one; behind a backlog of sealed work the
//!   push joins it instead (sealing it would only queue it behind that
//!   backlog, while the workers take an expired bucket in deadline order
//!   anyway — below), so batches under load grow toward `max_cols`. A
//!   worker that takes it after its deadline labels it so. A zero window
//!   seals every push: a plain queue in front of the workers;
//! * **idle**: a worker is free with nothing sealed for it, so it takes the
//!   oldest open bucket. A lone request on an idle server therefore never
//!   waits for company; under load batches form because requests queue
//!   behind busy workers, which is the only time sharing a LUT build pays.
//!
//! Sealed buckets wait in a FIFO that workers take from before any open
//! bucket — unless an open bucket's window ran out before the FIFO's head
//! was sealed, so no bucket waits behind work sealed after its deadline.
//!
//! A batch is a `BatchJob`: the requests whose columns a worker will pack
//! side by side into one `ColMatrix`, run through a single executor pass —
//! one LUT build amortised across every column, the paper's core win — and
//! scatter back to per-request reply channels.
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
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors a request can be answered with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// `queue_capacity` requests already wait for a worker
    /// ([`crate::Client::try_submit`] only).
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
    /// Entered its bucket (admitted under the serving lock, after any wait
    /// for room).
    pub(crate) pushed_ns: u64,
    /// Its bucket stopped taking requests: sealed at size, at its window's
    /// end, or taken open by a free worker.
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
    /// When the request entered its bucket (restamped by [`Batcher::push`]).
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
    /// When the bucket stopped taking requests (the window phase's end):
    /// the push that filled it, its window's deadline, or the take.
    pub(crate) dispatched: Instant,
    /// Why the bucket left; counted when a worker takes the job.
    pub(crate) reason: FlushReason,
}

/// Why a bucket left the batcher — exported per op as
/// `biq_serve_flushes_total{op,reason}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlushReason {
    /// Packed width reached `max_cols`.
    Size,
    /// The oldest request waited out the window with every worker busy.
    Window,
    /// A worker was free with nothing sealed for it.
    Idle,
}

/// One op's open bucket.
#[derive(Debug)]
struct Bucket {
    requests: Vec<Pending>,
    cols: usize,
    /// Push time of the oldest request — the window anchor.
    opened: Instant,
}

/// The window/bucket policy state: one open bucket per active op, and the
/// buckets sealed but not yet taken.
pub(crate) struct Batcher {
    window: Duration,
    max_cols: usize,
    buckets: HashMap<usize, Bucket>,
    /// Sealed buckets, in the order they were sealed.
    sealed: VecDeque<BatchJob>,
    /// Requests pushed and not yet taken, open and sealed alike.
    queued: usize,
}

impl Batcher {
    pub(crate) fn new(window: Duration, max_cols: usize) -> Self {
        Self {
            window,
            max_cols: max_cols.max(1),
            buckets: HashMap::new(),
            sealed: VecDeque::new(),
            queued: 0,
        }
    }

    /// Requests pushed and not yet taken by a worker.
    pub(crate) fn queued(&self) -> usize {
        self.queued
    }

    /// Buckets one request at `now`. A bucket whose window ran out by `now`
    /// is sealed first and the request opens a fresh one — unless sealed
    /// work is waiting, in which case the request joins the expired bucket
    /// and [`Batcher::next`] takes it in deadline order. A bucket the
    /// request fills to `max_cols` is sealed with it — so a request wide on
    /// its own leaves at once, with whatever was waiting.
    pub(crate) fn push(&mut self, mut p: Pending, now: Instant) {
        p.pushed = now; // queue wait ends here; window wait begins
        p.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.queued += 1;
        let key = p.op.0;
        if let Some(due) = self.buckets.get(&key).map(|b| b.opened + self.window) {
            if due <= now && self.sealed.is_empty() {
                self.seal(key, due, FlushReason::Window);
            }
        }
        let bucket = self.buckets.entry(key).or_insert_with(|| Bucket {
            requests: Vec::new(),
            cols: 0,
            opened: now,
        });
        bucket.cols += p.x.cols();
        bucket.requests.push(p);
        if bucket.cols >= self.max_cols {
            self.seal(key, now, FlushReason::Size);
        } else if self.window.is_zero() {
            self.seal(key, now, FlushReason::Window);
        }
    }

    /// A free worker's next batch: the oldest sealed one, else the oldest
    /// open bucket (ties: lowest op index) — `Window` when its deadline has
    /// passed by `clock()`, `Idle` otherwise. An open bucket whose deadline
    /// precedes the sealed head's seal goes first. `clock` is read only
    /// when nothing is sealed, so pulling sealed work costs no clock read.
    pub(crate) fn next(&mut self, clock: impl FnOnce() -> Instant) -> Option<BatchJob> {
        let head = self.sealed.front().map(|job| job.dispatched);
        let oldest = self
            .buckets
            .iter()
            .min_by_key(|(&key, b)| (b.opened, key))
            .map(|(&key, b)| (key, b.opened + self.window));
        let job = match (head, oldest) {
            (Some(head), Some((key, due))) if due < head => {
                self.take(key, due, FlushReason::Window)
            }
            (Some(_), _) => self.sealed.pop_front()?,
            (None, Some((key, due))) => match clock() {
                now if due <= now => self.take(key, due, FlushReason::Window),
                now => self.take(key, now, FlushReason::Idle),
            },
            (None, None) => return None,
        };
        self.queued -= job.requests.len();
        job.stats.queue_depth.fetch_sub(job.requests.len(), Ordering::Relaxed);
        job.stats.record_batch(job.cols, job.reason);
        Some(job)
    }

    fn seal(&mut self, key: usize, at: Instant, reason: FlushReason) {
        let job = self.take(key, at, reason);
        self.sealed.push_back(job);
    }

    fn take(&mut self, key: usize, at: Instant, reason: FlushReason) -> BatchJob {
        let b = self.buckets.remove(&key).expect("an open bucket under this key");
        let first = &b.requests[0];
        let (compiled, stats) = (Arc::clone(&first.compiled), Arc::clone(&first.stats));
        BatchJob {
            op: OpId(key),
            compiled,
            stats,
            requests: b.requests,
            cols: b.cols,
            dispatched: at,
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_runtime::{compile, BackendSpec, PlanBuilder, QuantMethod, WeightSource};

    /// A compiled op and the one stats block its requests share (so the
    /// queue-depth gauge a job drains is the one its pushes raised).
    type TinyOp = (Arc<CompiledOp>, Arc<OpStats>);

    fn tiny_op() -> TinyOp {
        let signs = biq_matrix::MatrixRng::seed_from(6).signs(4, 4);
        let plan = PlanBuilder::new(4, 4)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .build();
        (Arc::new(compile(&plan, WeightSource::Signs(&signs))), Arc::default())
    }

    fn pending(
        (compiled, stats): &TinyOp,
        op: usize,
        cols: usize,
        now: Instant,
    ) -> (Pending, mpsc::Receiver<Result<Answer, ServeError>>) {
        let (tx, rx) = mpsc::channel();
        let p = Pending {
            op: OpId(op),
            compiled: Arc::clone(compiled),
            stats: Arc::clone(stats),
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
        for _ in 0..4 {
            let (p, rx) = pending(&c, 0, 1, now);
            rxs.push(rx);
            b.push(p, now);
        }
        let job = b.next(|| panic!("a sealed job needs no clock")).expect("sealed at the cap");
        assert_eq!((job.cols, job.requests.len(), job.reason), (4, 4, FlushReason::Size));
        assert!(Arc::ptr_eq(&job.compiled, &c.0), "job carries the admission-time op");
        assert_eq!(job.stats.queue_depth.load(Ordering::Relaxed), 0, "taken: no longer queued");
        assert_eq!(b.queued(), 0);
        assert!(b.next(|| now).is_none(), "the fourth column sealed the whole bucket");
    }

    #[test]
    fn oversized_request_flushes_alone_without_stalling_the_bucket() {
        let c = tiny_op();
        let now = Instant::now();
        let mut b = Batcher::new(Duration::from_millis(10), 4);
        let (small, _rx1) = pending(&c, 0, 1, now);
        b.push(small, now);
        let (big, _rx2) = pending(&c, 0, 9, now);
        b.push(big, now);
        let job = b.next(|| now).expect("bucket exceeds max_cols");
        assert_eq!(
            (job.cols, job.reason),
            (10, FlushReason::Size),
            "waiting small request rides along"
        );
        assert_eq!(b.queued(), 0);
    }

    #[test]
    fn a_push_at_the_deadline_seals_the_old_bucket_and_one_before_joins_it() {
        let c = tiny_op();
        let t0 = Instant::now();
        let window = Duration::from_millis(5);
        let mut b = Batcher::new(window, 64);
        let mut rxs = Vec::new();
        let mut push = |b: &mut Batcher, at: Instant| {
            let (p, rx) = pending(&c, 0, 1, at);
            rxs.push(rx);
            b.push(p, at);
        };
        push(&mut b, t0);
        push(&mut b, t0 + window - Duration::from_nanos(1));
        push(&mut b, t0 + window);
        assert_eq!(b.queued(), 3);
        let sealed = b.next(|| panic!("sealed work needs no clock")).expect("the old bucket");
        assert_eq!((sealed.requests.len(), sealed.reason), (2, FlushReason::Window));
        assert_eq!(sealed.dispatched, t0 + window, "sealed as of its deadline");
        let fresh = b.next(|| t0 + window).expect("the bucket the late push opened");
        assert_eq!((fresh.requests.len(), fresh.reason), (1, FlushReason::Idle));
        assert_eq!(b.queued(), 0);
    }

    #[test]
    fn sealed_jobs_leave_before_open_buckets_unless_a_window_ran_out_first() {
        let c = tiny_op();
        let t0 = Instant::now();
        let ms = Duration::from_millis(1);
        let mut b = Batcher::new(5 * ms, 2);
        let mut rxs = Vec::new();
        // Op 0 opens first and stays open; op 1 fills to the cap (sealed at
        // t0 + 1 ms), op 2 fills at t0 + 6 ms, after op 0's deadline.
        for (op, at) in
            [(0usize, t0), (1, t0 + ms), (1, t0 + ms), (2, t0 + 6 * ms), (2, t0 + 6 * ms)]
        {
            let (p, rx) = pending(&c, op, 1, at);
            rxs.push(rx);
            b.push(p, at);
        }
        let order: Vec<_> = std::iter::from_fn(|| b.next(|| t0 + 7 * ms))
            .map(|job| (job.op, job.reason, job.dispatched))
            .collect();
        assert_eq!(
            order,
            [
                (OpId(1), FlushReason::Size, t0 + ms),
                (OpId(0), FlushReason::Window, t0 + 5 * ms),
                (OpId(2), FlushReason::Size, t0 + 6 * ms),
            ]
        );
    }

    #[test]
    fn behind_a_backlog_a_late_push_joins_the_expired_bucket() {
        let c = tiny_op();
        let t0 = Instant::now();
        let ms = Duration::from_millis(1);
        let mut b = Batcher::new(5 * ms, 4);
        let mut rxs = Vec::new();
        let mut push = |b: &mut Batcher, op: usize, cols: usize, at: Instant| {
            let (p, rx) = pending(&c, op, cols, at);
            rxs.push(rx);
            b.push(p, at);
        };
        // Op 0 opens at t0 (deadline t0 + 5 ms); op 1 fills to the cap at
        // t0 + 1 ms, so a sealed job waits when op 0's late push arrives.
        push(&mut b, 0, 1, t0);
        push(&mut b, 1, 4, t0 + ms);
        push(&mut b, 0, 1, t0 + 6 * ms);
        assert_eq!(b.sealed.len(), 1, "the late push sealed nothing");
        assert_eq!(b.buckets[&0].requests.len(), 2, "it joined the expired bucket");
        // Op 2 fills at t0 + 7 ms: sealed after op 0's deadline.
        push(&mut b, 2, 4, t0 + 7 * ms);
        let order: Vec<_> = std::iter::from_fn(|| b.next(|| t0 + 8 * ms))
            .map(|job| (job.op, job.requests.len(), job.reason, job.dispatched))
            .collect();
        assert_eq!(
            order,
            [
                (OpId(1), 1, FlushReason::Size, t0 + ms),
                (OpId(0), 2, FlushReason::Window, t0 + 5 * ms),
                (OpId(2), 1, FlushReason::Size, t0 + 7 * ms),
            ]
        );
        // With nothing sealed, a late push still seals and reopens.
        push(&mut b, 0, 1, t0 + 10 * ms);
        push(&mut b, 0, 1, t0 + 16 * ms);
        assert_eq!(b.sealed.len(), 1, "the expired bucket sealed");
        let sealed = b.next(|| panic!("sealed work needs no clock")).expect("the old bucket");
        assert_eq!((sealed.requests.len(), sealed.reason), (1, FlushReason::Window));
        let fresh = b.next(|| t0 + 16 * ms).expect("the bucket the late push opened");
        assert_eq!((fresh.requests.len(), fresh.reason), (1, FlushReason::Idle));
        assert_eq!(b.queued(), 0);
    }

    #[test]
    fn a_zero_window_seals_every_push() {
        let c = tiny_op();
        let now = Instant::now();
        let mut b = Batcher::new(Duration::ZERO, 64);
        let mut rxs = Vec::new();
        for _ in 0..3 {
            let (p, rx) = pending(&c, 0, 1, now);
            rxs.push(rx);
            b.push(p, now);
        }
        for _ in 0..3 {
            let job = b.next(|| panic!("nothing is left open")).expect("one job per push");
            assert_eq!((job.requests.len(), job.reason), (1, FlushReason::Window));
        }
        assert!(b.next(|| now).is_none());
    }

    #[test]
    fn an_idle_take_empties_the_longest_waiting_bucket() {
        let c = tiny_op();
        let t0 = Instant::now();
        let mut b = Batcher::new(Duration::from_millis(5), 64);
        assert!(b.next(|| t0).is_none(), "nothing open, nothing to take");
        // Op 2 opens first, op 0 a millisecond later; op 2's second request
        // arrives last and must not make its bucket look younger.
        let ms = Duration::from_millis(1);
        let mut rxs = Vec::new();
        for (op, cols, at) in [(2usize, 1usize, t0), (0, 3, t0 + ms), (2, 2, t0 + 2 * ms)] {
            let (p, rx) = pending(&c, op, cols, at);
            rxs.push(rx);
            b.push(p, at);
        }
        let now = t0 + 3 * ms;
        let job = b.next(|| now).expect("two buckets open");
        assert_eq!((job.op, job.cols, job.requests.len()), (OpId(2), 3, 2), "whole oldest bucket");
        assert_eq!((job.dispatched, job.reason), (now, FlushReason::Idle));
        assert_eq!(b.queued(), 1, "the younger bucket stays");
        assert_eq!(b.next(|| now).expect("op 0's bucket").op, OpId(0));
        assert!(b.next(|| now).is_none());
    }

    #[test]
    fn push_restamps_pickup_and_jobs_carry_dispatch_time() {
        let c = tiny_op();
        let t0 = Instant::now();
        let later = t0 + Duration::from_millis(2);
        let mut b = Batcher::new(Duration::from_millis(10), 2);
        for _ in 0..2 {
            let (p, _rx) = pending(&c, 0, 1, t0);
            b.push(p, later);
        }
        let job = b.next(|| panic!("sealed")).expect("size trigger");
        assert_eq!(job.dispatched, later, "dispatch stamp is the triggering clock read");
        assert!(
            job.requests.iter().all(|r| r.pushed == later && r.enqueued == t0),
            "queue wait ends at the push, admission stamp survives"
        );
    }
}
