//! The serving engine: a batcher thread feeding a pool of worker threads,
//! each worker owning a private warmed [`Executor`].
//!
//! ```text
//!  Client::submit ──► bounded MPSC queue ──► batcher thread
//!  (backpressure:          │                   │ window/bucket (Batcher)
//!   try_submit→Busy)       │                   ▼
//!                          │            bounded job channel ──► worker 0..N-1
//!                          │            (full ⇒ batcher blocks    │ own Executor
//!                          ▼             ⇒ submit queue fills     │ pack → run → scatter
//!                   Ticket::wait ◄───────── reply channels ◄──────┘
//! ```
//!
//! Workers never share an executor: each owns one, warmed at startup for
//! every boot-time op, so the `SharedExecutor` mutex bottleneck never
//! appears on the serving path and per-worker arenas stay hot across
//! batches. Ops loaded online later warm lazily on their first batch (the
//! executor grows arenas on demand). Backpressure is end-to-end — slow
//! workers fill the bounded job channel, which blocks the batcher, which
//! fills the bounded submit queue, which turns [`Client::try_submit`] into
//! [`ServeError::Busy`].
//!
//! Requests resolve against the [`LiveRegistry`] at admission and carry
//! their own `Arc` of the compiled op from there on — a model swap or
//! unload never changes what an accepted request runs against, and the
//! retiring version's payload drops only after its last in-flight request
//! answers (drain-on-retire).

use crate::batcher::{Answer, BatchJob, Batcher, Lap, Pending, ReplyNotify, ServeError};
use crate::registry::{LiveRegistry, ModelRegistry, OpId};
use crate::stats::{ServerStats, StatsSnapshot};
use biq_matrix::{ColMatrix, Matrix};
use biq_obs::{MetricsSnapshot, RequestRecord, SlowHit};
use biq_runtime::Executor;
use biqgemm_core::PhaseProfile;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Server::start`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads, each with a private warmed [`Executor`].
    pub workers: usize,
    /// Capacity of the bounded submit queue (requests waiting for the
    /// batcher). Full queue ⇒ [`Client::submit`] blocks,
    /// [`Client::try_submit`] returns [`ServeError::Busy`].
    pub queue_capacity: usize,
    /// How long an under-filled bucket may wait for company before it is
    /// flushed anyway. Zero serves every request immediately.
    pub batch_window: Duration,
    /// Packed-width cap per batch; a bucket reaching it flushes at once.
    pub max_batch_cols: usize,
    /// Capacity of the bounded batcher→worker job channel; the knob that
    /// propagates worker slowness back to the submit queue.
    pub job_capacity: usize,
    /// Pin worker `i` to core `i % cpu_count()` (Linux `sched_setaffinity`)
    /// before its executor warm-up, so first-touch arena pages land on the
    /// core that will serve from them. Best effort: a failed pin degrades to
    /// an unpinned worker. Off by default (`--pin-workers` opts in).
    pub pin_workers: bool,
    /// Byte ceiling for resident model memory (`--mem-budget`). Online
    /// loads beyond it evict cold models LRU-first, or are refused when
    /// everything else is in flight. `None` disables accounting-based
    /// eviction (gauges still export).
    pub mem_budget: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 1024,
            batch_window: Duration::from_micros(200),
            max_batch_cols: 16,
            job_capacity: 4,
            pin_workers: false,
            mem_budget: None,
        }
    }
}

/// Messages on the submit queue.
enum Submission {
    Request(Pending),
    /// Shutdown sentinel: everything queued ahead of it is still served.
    Shutdown,
}

/// A pending reply: wait on it to get the request's `W·X` result.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<Answer, ServeError>>,
}

impl Ticket {
    /// Blocks until the server answers.
    pub fn wait(self) -> Result<Matrix, ServeError> {
        self.wait_full().map(|a| a.matrix)
    }

    /// Like [`Ticket::wait`] but keeping the lifecycle stamps that ride
    /// with the reply — the net writer finalizes them into a
    /// [`RequestRecord`] after its own ticket/write phases.
    pub(crate) fn wait_full(self) -> Result<Answer, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Canceled))
    }

    /// Non-blocking poll; `None` while the request is still in flight. A
    /// dropped reply channel (worker loss) resolves to
    /// [`ServeError::Canceled`], exactly like [`Ticket::wait`].
    pub fn try_wait(&self) -> Option<Result<Matrix, ServeError>> {
        self.try_wait_full().map(|r| r.map(|a| a.matrix))
    }

    /// [`Ticket::try_wait`] keeping the lifecycle stamps — what the net
    /// reactor polls when a request's [`ReplyNotify`] fires.
    pub(crate) fn try_wait_full(&self) -> Option<Result<Answer, ServeError>> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Canceled)),
        }
    }
}

/// A cheaply cloneable submission handle.
#[derive(Clone)]
pub struct Client {
    tx: SyncSender<Submission>,
    registry: Arc<LiveRegistry>,
    /// The admission gate: submissions hold a read lock across the
    /// check-and-send, [`Server::shutdown`] takes the write lock to flip it.
    /// That ordering guarantees every accepted request is queued **before**
    /// the shutdown sentinel, so "submit returned Ok" always means "the
    /// drain will answer this ticket" — no straddling race.
    accepting: Arc<RwLock<bool>>,
}

impl Client {
    /// Validates and enqueues a request, blocking while the queue is full.
    /// The returned [`Ticket`] resolves to `W·X` for the registered op.
    pub fn submit(&self, op: OpId, x: ColMatrix) -> Result<Ticket, ServeError> {
        let gate = self.accepting.read().expect("admission gate poisoned");
        if !*gate {
            return Err(ServeError::ShuttingDown);
        }
        let (pending, ticket) = self.admit(op, x, Instant::now(), false, None)?;
        match pending {
            Some(p) => {
                let stats = Arc::clone(&p.stats);
                // Count the request as queued BEFORE it can reach the
                // batcher: dispatch subtracts its batch from the gauge, and
                // an increment that trailed the send could lose that race
                // and leave a snapshot reading "−1" (`usize::MAX`).
                stats.queue_depth.fetch_add(1, Ordering::Relaxed);
                if self.tx.send(Submission::Request(p)).is_err() {
                    stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    return Err(ServeError::ShuttingDown);
                }
                stats.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(ticket)
            }
            None => Ok(ticket),
        }
    }

    /// Like [`Client::submit`] but refusing with [`ServeError::Busy`]
    /// instead of blocking when the queue is full — the backpressure edge.
    pub fn try_submit(&self, op: OpId, x: ColMatrix) -> Result<Ticket, ServeError> {
        self.try_submit_inner(op, x, Instant::now(), false, None)
    }

    /// [`Client::try_submit`] with an admission stamp the caller already
    /// took (the net front-end stamps at frame decode, so a request's
    /// recorded queue wait includes the submit hop), the lifecycle record
    /// deferred to the net writer, and an optional [`ReplyNotify`] that
    /// rides with the request and fires once its reply (or cancellation)
    /// has landed on the ticket channel — the reactor's wake-up.
    pub(crate) fn try_submit_stamped(
        &self,
        op: OpId,
        x: ColMatrix,
        enqueued: Instant,
        notify: Option<ReplyNotify>,
    ) -> Result<Ticket, ServeError> {
        self.try_submit_inner(op, x, enqueued, true, notify)
    }

    fn try_submit_inner(
        &self,
        op: OpId,
        x: ColMatrix,
        enqueued: Instant,
        deferred: bool,
        notify: Option<ReplyNotify>,
    ) -> Result<Ticket, ServeError> {
        let gate = self.accepting.read().expect("admission gate poisoned");
        if !*gate {
            return Err(ServeError::ShuttingDown);
        }
        let (pending, ticket) = self.admit(op, x, enqueued, deferred, notify)?;
        match pending {
            Some(p) => {
                let stats = Arc::clone(&p.stats);
                // Gauge first, undone on refusal — see `submit`.
                stats.queue_depth.fetch_add(1, Ordering::Relaxed);
                let sent = self.tx.try_send(Submission::Request(p));
                if sent.is_err() {
                    stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                }
                match sent {
                    Ok(()) => {
                        stats.submitted.fetch_add(1, Ordering::Relaxed);
                        Ok(ticket)
                    }
                    Err(TrySendError::Full(_)) => {
                        stats.rejected.fetch_add(1, Ordering::Relaxed);
                        Err(ServeError::Busy)
                    }
                    Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
                }
            }
            None => Ok(ticket),
        }
    }

    /// Shared validation; `Ok((None, ticket))` means the request was
    /// answered inline (empty batch) without touching the queue. A
    /// successful admission captures the op's `Arc`s from the current
    /// registry snapshot and pins the owning model in flight.
    fn admit(
        &self,
        op: OpId,
        x: ColMatrix,
        enqueued: Instant,
        deferred: bool,
        notify: Option<ReplyNotify>,
    ) -> Result<(Option<Pending>, Ticket), ServeError> {
        let snap = self.registry.snapshot();
        let Some(slot) = snap.slot(op) else { return Err(ServeError::UnknownOp) };
        // A retired slot keeps its stats but serves nothing.
        let Some(compiled) = slot.op.clone() else { return Err(ServeError::UnknownOp) };
        if x.rows() != compiled.input_size() {
            return Err(ServeError::ShapeMismatch {
                expected: compiled.input_size(),
                got: x.rows(),
            });
        }
        let (reply, rx) = mpsc::channel();
        let ticket = Ticket { rx };
        if x.cols() == 0 {
            // Nothing to compute; answer inline so workers never see b = 0.
            // The notify guard (if any) drops here, after the send — the
            // reactor's poll finds the inline answer immediately.
            let zero = Matrix::zeros(compiled.output_size(), 0);
            let _ = reply.send(Ok(Answer { matrix: zero, lap: Lap::default() }));
            return Ok((None, ticket));
        }
        let inflight = Some(self.registry.begin(slot));
        let p = Pending {
            op,
            compiled,
            stats: Arc::clone(&slot.stats),
            x,
            reply,
            enqueued,
            pushed: enqueued,
            deferred,
            inflight,
            notify,
        };
        Ok((Some(p), ticket))
    }

    /// The live registry this client submits against: op lookup by
    /// (versioned) name for the wire front-end, and the online
    /// load/unload surface for the model-fleet admin verbs.
    pub fn registry(&self) -> &LiveRegistry {
        &self.registry
    }
}

/// A running serving engine. Construct with [`Server::start`], stop with
/// [`Server::shutdown`] (which drains every accepted request).
///
/// Dropping a `Server` without calling `shutdown` detaches its threads:
/// they exit once every [`Client`] clone is gone and the queues drain.
pub struct Server {
    tx: SyncSender<Submission>,
    registry: Arc<LiveRegistry>,
    stats: Arc<ServerStats>,
    accepting: Arc<RwLock<bool>>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// A cheap handle onto a server's statistics block — what the net layer
/// answers `Stats` frames from without touching the [`Server`] itself
/// (reads are atomics only; no worker is ever involved).
#[derive(Clone)]
pub(crate) struct StatsHandle {
    stats: Arc<ServerStats>,
    registry: Arc<LiveRegistry>,
}

impl StatsHandle {
    /// The serving layer's live metric samples.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        crate::stats::metrics(&self.registry, &self.stats)
    }

    /// The slowest captured requests, op indices resolved to versioned
    /// display names — what the `SlowLog` wire verb answers with.
    pub(crate) fn slow_hits(&self, max: usize) -> Vec<SlowHit> {
        self.stats
            .sink
            .slow
            .slowest(max)
            .into_iter()
            .map(|rec| SlowHit { op: self.registry.op_name(rec.op as usize), rec })
            .collect()
    }

    /// The per-server record sink (the net writer records into it).
    pub(crate) fn sink(&self) -> &biq_obs::RecordSink {
        &self.stats.sink
    }
}

impl Server {
    /// Spawns the batcher and `config.workers` worker threads; every worker
    /// warms a private executor for every boot-time op (at the batcher's
    /// packed-width cap) before serving. The boot registry becomes version
    /// 1 of the boot model in the server's [`LiveRegistry`].
    pub fn start(registry: ModelRegistry, config: ServerConfig) -> Server {
        let registry = Arc::new(LiveRegistry::from_builder(registry, config.mem_budget));
        let stats = Arc::new(ServerStats::new());
        let accepting = Arc::new(RwLock::new(true));

        let (tx, rx) = mpsc::sync_channel::<Submission>(config.queue_capacity.max(1));
        let (job_tx, job_rx) = mpsc::sync_channel::<BatchJob>(config.job_capacity.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));

        let cpus = crate::affinity::cpu_count();
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let registry = Arc::clone(&registry);
                let stats = Arc::clone(&stats);
                let job_rx = Arc::clone(&job_rx);
                let max_cols = config.max_batch_cols.max(1);
                let pin_to = config.pin_workers.then_some(i % cpus);
                std::thread::Builder::new()
                    .name(format!("biq-serve-worker-{i}"))
                    .spawn(move || worker_loop(&registry, &stats, &job_rx, max_cols, pin_to))
                    .expect("spawn serve worker")
            })
            .collect();

        let batcher = {
            let window = config.batch_window;
            let max_cols = config.max_batch_cols.max(1);
            std::thread::Builder::new()
                .name("biq-serve-batcher".to_string())
                .spawn(move || batcher_loop(rx, job_tx, window, max_cols))
                .expect("spawn serve batcher")
        };

        Server { tx, registry, stats, accepting, batcher: Some(batcher), workers }
    }

    /// A new submission handle.
    pub fn client(&self) -> Client {
        Client {
            tx: self.tx.clone(),
            registry: Arc::clone(&self.registry),
            accepting: Arc::clone(&self.accepting),
        }
    }

    /// The live registry this server serves from.
    pub fn registry(&self) -> &LiveRegistry {
        &self.registry
    }

    /// Live statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::capture(&self.registry, &self.stats)
    }

    /// Live metric samples ([`biq_obs`] form — what the net layer's
    /// `Stats` verb and the Prometheus renderer consume).
    pub fn metrics(&self) -> MetricsSnapshot {
        crate::stats::metrics(&self.registry, &self.stats)
    }

    /// A handle that can capture metrics after `self` moves elsewhere.
    pub(crate) fn stats_handle(&self) -> StatsHandle {
        StatsHandle { stats: Arc::clone(&self.stats), registry: Arc::clone(&self.registry) }
    }

    /// Graceful shutdown: stops accepting, serves everything already
    /// accepted (queued in the batcher's buckets, the submit queue, or the
    /// job channel), joins every thread, and returns the final statistics.
    pub fn shutdown(mut self) -> StatsSnapshot {
        // Taking the write lock waits out every in-flight submission (each
        // holds the read lock across its check-and-send), so once the flag
        // flips, every accepted request is already in the FIFO — and the
        // sentinel sent below queues behind all of them.
        *self.accepting.write().expect("admission gate poisoned") = false;
        let _ = self.tx.send(Submission::Shutdown);
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        StatsSnapshot::capture(&self.registry, &self.stats)
    }
}

fn batcher_loop(
    rx: Receiver<Submission>,
    job_tx: SyncSender<BatchJob>,
    window: Duration,
    max_cols: usize,
) {
    let mut batcher = Batcher::new(window, max_cols);
    let dispatch = |job: BatchJob| {
        let s = &job.stats;
        s.queue_depth.fetch_sub(job.requests.len(), Ordering::Relaxed);
        s.record_batch(job.cols);
        // Trace the batcher window as a span from the oldest request's
        // enqueue to this dispatch (the time batching "charged" the
        // batch), reusing the dispatch stamp instead of re-reading the
        // clock.
        if biq_obs::trace::tracing_enabled() {
            if let Some(earliest) = job.requests.iter().map(|r| r.enqueued).min() {
                let start = biq_obs::trace::instant_ns(earliest);
                let end = biq_obs::trace::instant_ns(job.dispatched);
                biq_obs::trace::emit("serve.batch_window", start, end.saturating_sub(start));
            }
        }
        // A send error means every worker is gone; requests are answered
        // with `Canceled` by the dropped reply senders.
        let _ = job_tx.send(job);
    };
    loop {
        let now = Instant::now();
        let msg = match batcher.next_deadline() {
            Some(deadline) => rx.recv_timeout(deadline.saturating_duration_since(now)),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match msg {
            Ok(Submission::Request(p)) => {
                let now = Instant::now();
                if let Some(job) = batcher.push(p, now) {
                    dispatch(job);
                }
            }
            Ok(Submission::Shutdown) => {
                // The admission gate orders every accepted request ahead of
                // the sentinel; this drain is belt-and-braces against any
                // future sender that bypasses the gate.
                while let Ok(Submission::Request(p)) = rx.try_recv() {
                    if let Some(job) = batcher.push(p, Instant::now()) {
                        dispatch(job);
                    }
                }
                break;
            }
            Err(RecvTimeoutError::Timeout) => {
                for job in batcher.flush_expired(Instant::now()) {
                    dispatch(job);
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Shutdown drain: one cold clock read stamps whatever still flushes.
    for job in batcher.flush_all(Instant::now()) {
        dispatch(job);
    }
    // Dropping `job_tx` lets workers drain the channel and exit.
}

fn worker_loop(
    registry: &LiveRegistry,
    stats: &ServerStats,
    jobs: &Mutex<Receiver<BatchJob>>,
    max_cols: usize,
    pin_to: Option<usize>,
) {
    // Pin BEFORE warming: the warm-up below first-touches every arena page,
    // and pinning first makes those faults land on the serving core's node.
    if let Some(cpu) = pin_to {
        crate::affinity::pin_current_thread(cpu);
    }
    let mut exec = Executor::new();
    {
        // Boot-time ops get provisioned arenas before the first request;
        // models loaded online later warm lazily on their first batch.
        let snap = registry.snapshot();
        for (_, slot) in snap.live() {
            let op = slot.op.as_ref().expect("live slot has an op");
            exec.warm_batch(op, max_cols.max(op.plan().batch_hint));
        }
    }
    let mut xbuf: Vec<f32> = Vec::new();
    let mut ybuf: Vec<f32> = Vec::new();
    let mut profiled = PhaseProfile::new();
    loop {
        // Holding the lock while blocked in `recv` is the multi-consumer
        // queue: exactly one idle worker waits on the channel, the rest
        // wait on the mutex, and a job wakes exactly one of them.
        let job = match jobs.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => break,
        };
        let Ok(job) = job else { break };
        // One clock read per batch when tracing (the PR 6 lesson: never
        // per-chunk); the kernel-phase child spans below are bridged from
        // the profile delta, not re-timed.
        let batch_start = biq_obs::trace::tracing_enabled().then(biq_obs::trace::now_ns);
        {
            let _span = biq_obs::span!("serve.batch");
            run_job(stats, &mut exec, &mut xbuf, &mut ybuf, job);
        }
        // Publish this worker's kernel-phase delta since the last batch.
        let total = *exec.profile();
        let delta = total.delta_since(&profiled);
        profiled = total;
        if let Ok(mut merged) = stats.profile.lock() {
            merged.merge(&delta);
        }
        // Bridge the delta into the trace as sequential child events of
        // this batch: build, then query, then replace — the phases run in
        // that order inside the kernel, so laying them head-to-tail from
        // the batch start reconstructs the timeline without extra clock
        // reads inside the kernel.
        if let Some(t0) = batch_start {
            let mut at = t0;
            for (name, d) in [
                ("kernel.build", delta.build),
                ("kernel.query", delta.query),
                ("kernel.replace", delta.replace),
            ] {
                let ns = d.as_nanos() as u64;
                if ns > 0 {
                    biq_obs::trace::emit(name, at, ns);
                    at += ns;
                }
            }
        }
    }
}

fn run_job(
    stats: &ServerStats,
    exec: &mut Executor,
    xbuf: &mut Vec<f32>,
    ybuf: &mut Vec<f32>,
    job: BatchJob,
) {
    // The job's own arc — NOT a registry lookup: the op may have been
    // retired by a swap while this batch waited, and it must still run
    // against the version that admitted it.
    let op = &job.compiled;
    let (m, n, b) = (op.output_size(), op.input_size(), job.cols);
    if ybuf.len() < m * b {
        ybuf.resize(m * b, 0.0);
    }
    let y = &mut ybuf[..m * b];
    if let [single] = job.requests.as_slice() {
        // Lone request: run its matrix directly, no pack/scatter copies.
        exec.run_into(op, &single.x, y);
    } else {
        // Pack: concatenating col-major matrices with equal row counts is
        // plain buffer concatenation — one executor pass, one LUT build,
        // amortised across every packed column.
        xbuf.clear();
        xbuf.reserve(n * b);
        for req in &job.requests {
            xbuf.extend_from_slice(req.x.as_slice());
        }
        let x = ColMatrix::from_vec(n, b, std::mem::take(xbuf));
        exec.run_into(op, &x, y);
        *xbuf = x.into_vec();
    }
    // Scatter: each request gets the row-major slice of its columns. One
    // hoisted clock read stamps the whole batch "done" — strictly fewer
    // reads than the per-request `elapsed()` this replaces — and feeds
    // both the latency histogram and each request's lifecycle record.
    let op_stats = &job.stats;
    let done = Instant::now();
    let done_ns = biq_obs::trace::instant_ns(done);
    let dispatched_ns = biq_obs::trace::instant_ns(job.dispatched);
    let mut col0 = 0usize;
    for req in job.requests {
        let k = req.x.cols();
        let mut out = Matrix::zeros(m, k);
        for i in 0..m {
            out.row_mut(i).copy_from_slice(&y[i * b + col0..i * b + col0 + k]);
        }
        col0 += k;
        op_stats.record_latency(done.saturating_duration_since(req.enqueued));
        let lap = Lap {
            op: job.op.0 as u32,
            cols: k as u32,
            enqueued_ns: biq_obs::trace::instant_ns(req.enqueued),
            pushed_ns: biq_obs::trace::instant_ns(req.pushed),
            dispatched_ns,
            done_ns,
        };
        if !req.deferred {
            // In-process request: its lifecycle ends here (no ticket/write
            // phases); wire requests are recorded by the net writer instead.
            stats.sink.record(&RequestRecord::from_timeline(
                0,
                lap.op,
                lap.cols,
                lap.enqueued_ns,
                lap.pushed_ns,
                lap.dispatched_ns,
                lap.done_ns,
                lap.done_ns,
                lap.done_ns,
            ));
        }
        let _ = req.reply.send(Ok(Answer { matrix: out, lap }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_matrix::MatrixRng;
    use biq_runtime::{BackendSpec, PlanBuilder, QuantMethod, Threading, WeightSource};

    fn one_op_registry(m: usize, n: usize) -> (ModelRegistry, OpId) {
        let mut g = MatrixRng::seed_from(7);
        let signs = g.signs(m, n);
        let plan = PlanBuilder::new(m, n)
            .batch_hint(8)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .threading(Threading::Serial)
            .build();
        let mut reg = ModelRegistry::new();
        let id = reg.register("op", &plan, WeightSource::Signs(&signs));
        (reg, id)
    }

    #[test]
    fn serves_a_single_request() {
        let (reg, id) = one_op_registry(16, 32);
        let server = Server::start(reg, ServerConfig::default());
        let client = server.client();
        let x = MatrixRng::seed_from(8).small_int_col(32, 1, 3);
        let y = client.submit(id, x.clone()).unwrap().wait().unwrap();
        assert_eq!(y.shape(), (16, 1));
        let mut exec = Executor::new();
        let y_ref = exec.run(&server.registry().op(id).unwrap(), &x);
        assert_eq!(y.as_slice(), y_ref.as_slice());
        let snap = server.shutdown();
        assert_eq!(snap.ops[0].completed, 1);
        assert_eq!(snap.ops[0].queue_depth, 0);
    }

    #[test]
    fn queue_depth_never_reads_below_zero_under_saturation() {
        // The gauge is bumped by submitters and drained by the batcher's
        // dispatch. `max_batch_cols: 1` makes every request its own batch,
        // dispatched the moment the batcher sees it — the tightest race
        // between the two — and a two-slot queue keeps `try_submit`
        // bouncing off `Busy`, so the undo path runs too. A third thread
        // samples the live snapshot throughout: a decrement overtaking its
        // increment would read as a depth near `usize::MAX`.
        const INFLIGHT: usize = 8;
        const REQUESTS: usize = 10_000;
        let (reg, id) = one_op_registry(8, 16);
        let config = ServerConfig {
            max_batch_cols: 1,
            queue_capacity: 2,
            batch_window: Duration::ZERO,
            ..ServerConfig::default()
        };
        let server = Server::start(reg, config);
        let x = MatrixRng::seed_from(11).small_int_col(16, 1, 3);
        let done = std::sync::atomic::AtomicUsize::new(0);
        let submitter = |blocking: bool| {
            let client = server.client();
            let mut inflight = std::collections::VecDeque::new();
            let mut sent = 0;
            while sent < REQUESTS || !inflight.is_empty() {
                if sent < REQUESTS && inflight.len() < INFLIGHT {
                    let ticket = if blocking {
                        client.submit(id, x.clone())
                    } else {
                        client.try_submit(id, x.clone())
                    };
                    match ticket {
                        Ok(t) => {
                            inflight.push_back(t);
                            sent += 1;
                            continue;
                        }
                        Err(ServeError::Busy) if !inflight.is_empty() => {}
                        Err(ServeError::Busy) => {
                            std::thread::yield_now();
                            continue;
                        }
                        Err(e) => panic!("unexpected refusal: {e:?}"),
                    }
                }
                inflight.pop_front().expect("non-empty").wait().expect("served");
            }
            done.fetch_add(1, Ordering::Release);
        };
        let (max_depth, samples) = std::thread::scope(|scope| {
            scope.spawn(|| submitter(true));
            scope.spawn(|| submitter(false));
            let sampler = scope.spawn(|| {
                let (mut max_depth, mut samples) = (0usize, 0u64);
                while done.load(Ordering::Acquire) < 2 {
                    max_depth = max_depth.max(server.stats().ops[0].queue_depth);
                    samples += 1;
                }
                (max_depth, samples)
            });
            sampler.join().expect("sampler thread")
        });
        assert!(
            max_depth <= config.queue_capacity + 2 * INFLIGHT,
            "a sampled queue depth of {max_depth} (over {samples} samples) exceeds the queue \
             plus every ticket in flight: the gauge wrapped"
        );
        let snap = server.shutdown();
        assert_eq!(snap.ops[0].completed, 2 * REQUESTS as u64);
        assert!(snap.ops[0].rejected > 0, "the Busy undo path never ran");
        assert_eq!(snap.ops[0].queue_depth, 0, "every increment was dispatched or undone");
    }

    #[test]
    fn pinned_workers_serve_identically() {
        // Pinning is a placement hint, never a semantic change: the same
        // request answered by a pinned worker is bit-identical to the
        // executor's direct answer, and a failed pin degrades silently.
        let (reg, id) = one_op_registry(16, 32);
        let config = ServerConfig { workers: 3, pin_workers: true, ..ServerConfig::default() };
        let server = Server::start(reg, config);
        let client = server.client();
        let x = MatrixRng::seed_from(9).gaussian_col(32, 1, 0.0, 1.0);
        let y = client.submit(id, x.clone()).unwrap().wait().unwrap();
        let mut exec = Executor::new();
        let y_ref = exec.run(&server.registry().op(id).unwrap(), &x);
        assert_eq!(y.as_slice(), y_ref.as_slice());
        let snap = server.shutdown();
        assert_eq!(snap.ops[0].completed, 1);
    }

    #[test]
    fn rejects_bad_submissions_upfront() {
        let (reg, id) = one_op_registry(8, 16);
        let server = Server::start(reg, ServerConfig::default());
        let client = server.client();
        assert!(matches!(
            client.submit(OpId(42), ColMatrix::zeros(16, 1)),
            Err(ServeError::UnknownOp)
        ));
        match client.submit(id, ColMatrix::zeros(5, 1)) {
            Err(ServeError::ShapeMismatch { expected: 16, got: 5 }) => {}
            other => panic!("expected shape mismatch, got {other:?}"),
        }
        // Empty batches answer inline with an m×0 result.
        let y = client.submit(id, ColMatrix::zeros(16, 0)).unwrap().wait().unwrap();
        assert_eq!(y.shape(), (8, 0));
        server.shutdown();
    }

    #[test]
    fn try_wait_reports_in_flight_and_canceled_distinctly() {
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket { rx };
        assert!(ticket.try_wait().is_none(), "sender alive, no reply: in flight");
        drop(tx);
        assert_eq!(
            ticket.try_wait(),
            Some(Err(ServeError::Canceled)),
            "dropped reply channel must resolve, not poll forever"
        );
    }

    #[test]
    fn completed_requests_leave_lifecycle_records() {
        let (reg, id) = one_op_registry(8, 16);
        let server = Server::start(reg, ServerConfig::default());
        let client = server.client();
        for _ in 0..3 {
            let x = MatrixRng::seed_from(5).small_int_col(16, 2, 3);
            client.submit(id, x).unwrap().wait().unwrap();
        }
        let handle = server.stats_handle();
        let recent = handle.sink().ring.recent(16);
        assert_eq!(recent.len(), 3, "every completed request is captured");
        for r in &recent {
            assert_eq!(r.phase_sum(), r.total_ns, "phases telescope to the total");
            assert_eq!(r.cols, 2);
            assert_eq!(r.req_id, 0, "in-process requests carry no wire id");
            assert_eq!((r.ticket_ns, r.write_ns), (0, 0), "no net phases in-process");
        }
        let hits = handle.slow_hits(8);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].op, "op@1", "slow hits resolve the versioned display name");
        assert!(hits[0].rec.total_ns >= hits[2].rec.total_ns, "slowest first");
        server.shutdown();
    }

    #[test]
    fn submits_after_shutdown_are_refused() {
        let (reg, id) = one_op_registry(8, 16);
        let server = Server::start(reg, ServerConfig::default());
        let client = server.client();
        server.shutdown();
        assert!(matches!(
            client.submit(id, ColMatrix::zeros(16, 1)),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn swap_mid_flight_answers_with_the_admitting_version() {
        // Admit against v1, swap to v2 while the request sits in the
        // bucket (long window), then flush by shutdown: the reply must be
        // v1's bits, and v1's payload must have drained by then.
        let mut g = MatrixRng::seed_from(77);
        let w1 = g.gaussian(8, 16, 0.0, 1.0);
        let l1 = biq_nn::Linear::quantized(
            &w1,
            2,
            QuantMethod::Greedy,
            biqgemm_core::BiqConfig::default(),
            None,
        );
        let a1 =
            biq_artifact::Artifact::from_bytes(biq_nn::model::CompiledModel::Linear(l1).snapshot())
                .unwrap();
        let w2 = g.gaussian(8, 16, 0.0, 1.0);
        let l2 = biq_nn::Linear::quantized(
            &w2,
            2,
            QuantMethod::Greedy,
            biqgemm_core::BiqConfig::default(),
            None,
        );
        let a2 =
            biq_artifact::Artifact::from_bytes(biq_nn::model::CompiledModel::Linear(l2).snapshot())
                .unwrap();

        let mut reg = ModelRegistry::new();
        reg.set_model_name("m");
        reg.load_artifact(&a1).unwrap();
        let config = ServerConfig {
            batch_window: Duration::from_secs(30),
            max_batch_cols: 64,
            ..ServerConfig::default()
        };
        let server = Server::start(reg, config);
        let client = server.client();
        let v1 = server.registry().lookup("linear").unwrap();
        let v1_op = server.registry().op(v1).unwrap();
        let x = MatrixRng::seed_from(78).gaussian_col(16, 1, 0.0, 1.0);
        let mut exec = Executor::new();
        let expect_v1 = exec.run(&v1_op, &x);
        drop(v1_op);

        let ticket = client.submit(v1, x.clone()).unwrap();
        // Swap while the request waits in the bucket.
        server.registry().load_model("m", &a2).unwrap();
        let v2 = server.registry().lookup("linear").unwrap();
        assert_ne!(v1, v2);
        assert!(server.registry().op(v1).is_none(), "v1 retired");
        // New admissions against v1's id are refused now.
        assert!(matches!(client.submit(v1, x.clone()), Err(ServeError::UnknownOp)));
        // v2 answers with v2's bits while v1's request still waits.
        let expect_v2 = exec.run(&server.registry().op(v2).unwrap(), &x);
        let ticket2 = client.submit(v2, x.clone()).unwrap();
        // Shutdown flushes both buckets and drains every accepted request.
        let snap = server.shutdown();
        let y1 = ticket.wait().unwrap();
        let y2 = ticket2.wait().unwrap();
        assert_eq!(y1.as_slice(), expect_v1.as_slice(), "v1 request got v1 bits");
        assert_eq!(y2.as_slice(), expect_v2.as_slice(), "v2 request got v2 bits");
        assert_eq!(snap.completed(), 2, "zero dropped requests across the swap");
    }
}
