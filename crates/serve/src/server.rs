//! The serving engine: a batcher thread feeding a pool of worker threads,
//! each worker owning a private warmed [`Executor`].
//!
//! ```text
//!  Client::submit ──► bounded MPSC queue ──► batcher thread ─┐ push
//!  (backpressure:          │                   │             ▼
//!   try_submit→Busy)       │   size / window / │      Mutex<Batcher> (buckets)
//!                          │   a worker is free│             │ take_oldest: a worker
//!                          │                   ▼             ▼ with nothing queued
//!                          │            bounded job channel ──► worker 0..N-1
//!                          │            (full ⇒ batcher blocks    │ own Executor
//!                          ▼             ⇒ submit queue fills     │ pack → run → scatter
//!                   Ticket::wait ◄───────── reply channels ◄──────┘
//! ```
//!
//! Dispatch is work-conserving: a bucket never waits while a worker is
//! free. The batcher thread hands a bucket over the moment it sees a free
//! worker, and a worker that runs out of queued jobs takes the oldest open
//! bucket itself before it parks — so the batch window is only ever spent
//! behind busy workers, and batches form out of that queueing
//! (`Dispatch` holds the one counter that makes the two sides agree).
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

use crate::batcher::{
    Answer, BatchJob, Batcher, FlushReason, Lap, Pending, ReplyNotify, ServeError,
};
use crate::registry::{LiveRegistry, ModelRegistry, OpId, Snapshot};
use crate::stats::{ServerStats, StatsSnapshot};
use biq_matrix::{ColMatrix, Matrix};
use biq_obs::{MetricsSnapshot, RequestRecord, SlowHit};
use biq_runtime::Executor;
use biqgemm_core::PhaseProfile;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock, TryLockError};
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
    /// The longest an under-filled bucket is held **while every worker is
    /// busy**. A free worker with nothing queued takes the oldest bucket at
    /// once, so on an idle server a request never waits for company; under
    /// load this bounds what batching may add to a request's latency. Zero
    /// turns the batcher into a plain queue in front of the worker pool.
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
        let snap = self.registry.snapshot();
        let (pending, ticket) = self.admit(&snap, op, x, Instant::now(), false, None)?;
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
        self.try_submit_inner(&self.registry.snapshot(), op, x, Instant::now(), false, None)
    }

    /// [`Client::try_submit`] for the net front-end: admits against the
    /// **same** registry snapshot the caller resolved `op` in (so a
    /// republish landing in between cannot refuse a name that was live when
    /// it was looked up), with an admission stamp the caller already took
    /// (at frame decode, so a request's recorded queue wait includes the
    /// submit hop), the lifecycle record deferred to the net writer, and a
    /// [`ReplyNotify`] that rides with the request and fires once its reply
    /// (or cancellation) has landed on the ticket channel — the reactor's
    /// wake-up.
    pub(crate) fn try_submit_in(
        &self,
        snap: &Snapshot,
        op: OpId,
        x: ColMatrix,
        enqueued: Instant,
        notify: ReplyNotify,
    ) -> Result<Ticket, ServeError> {
        self.try_submit_inner(snap, op, x, enqueued, true, Some(notify))
    }

    fn try_submit_inner(
        &self,
        snap: &Snapshot,
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
        let (pending, ticket) = self.admit(snap, op, x, enqueued, deferred, notify)?;
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
    /// successful admission captures the op's `Arc`s from `snap` and pins
    /// the owning model in flight.
    fn admit(
        &self,
        snap: &Snapshot,
        op: OpId,
        x: ColMatrix,
        enqueued: Instant,
        deferred: bool,
        notify: Option<ReplyNotify>,
    ) -> Result<(Option<Pending>, Ticket), ServeError> {
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
        Self::spawn(registry, config).0
    }

    /// [`Server::start`], also returning the dispatch state the threads
    /// share (the policy tests watch it).
    fn spawn(registry: ModelRegistry, config: ServerConfig) -> (Server, Arc<Dispatch>) {
        let registry = Arc::new(LiveRegistry::from_builder(registry, config.mem_budget));
        let stats = Arc::new(ServerStats::new());
        let accepting = Arc::new(RwLock::new(true));
        let max_cols = config.max_batch_cols.max(1);
        let dispatch = Arc::new(Dispatch {
            batcher: Mutex::new(Batcher::new(config.batch_window, max_cols)),
            free: AtomicIsize::new(0),
        });

        let (tx, rx) = mpsc::sync_channel::<Submission>(config.queue_capacity.max(1));
        let (job_tx, job_rx) = mpsc::sync_channel::<BatchJob>(config.job_capacity.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));

        let cpus = crate::affinity::cpu_count();
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let registry = Arc::clone(&registry);
                let stats = Arc::clone(&stats);
                let dispatch = Arc::clone(&dispatch);
                let job_rx = Arc::clone(&job_rx);
                let pin_to = config.pin_workers.then_some(i % cpus);
                std::thread::Builder::new()
                    .name(format!("biq-serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(&registry, &stats, &dispatch, &job_rx, max_cols, pin_to)
                    })
                    .expect("spawn serve worker")
            })
            .collect();

        let batcher = {
            let dispatch = Arc::clone(&dispatch);
            std::thread::Builder::new()
                .name("biq-serve-batcher".to_string())
                .spawn(move || batcher_loop(rx, job_tx, &dispatch))
                .expect("spawn serve batcher")
        };

        let server = Server { tx, registry, stats, accepting, batcher: Some(batcher), workers };
        (server, dispatch)
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

/// What the batcher thread and the workers share so that a bucket never
/// waits while a worker is free.
struct Dispatch {
    /// The open buckets. The batcher thread pushes into them and runs the
    /// size and window triggers; a worker that finds nothing queued takes
    /// the oldest one itself.
    batcher: Mutex<Batcher>,
    /// Parked workers − jobs in the job channel: positive means a job sent
    /// now wakes a worker that has nothing else to do. A worker adds one
    /// before it looks for work; whoever hands it a job — the batcher
    /// thread sending into the channel, or the worker taking a bucket —
    /// subtracts one ([`Dispatch::handed`], under the `batcher` lock). A
    /// worker's `+1` precedes its look into the buckets and the batcher
    /// thread reads `free` after its push, so (SeqCst on both sides) either
    /// the worker finds the bucket or the batcher thread finds `free > 0`.
    free: AtomicIsize,
}

impl Dispatch {
    fn lock(&self) -> std::sync::MutexGuard<'_, Batcher> {
        self.batcher.lock().expect("batcher poisoned")
    }

    /// Buckets one request; returns the job to send on when that filled its
    /// bucket, or when a worker is free to take the oldest bucket now.
    fn push(&self, p: Pending, now: Instant) -> Option<BatchJob> {
        let mut batcher = self.lock();
        let (job, reason) = match batcher.push(p, now) {
            Some(job) => (job, FlushReason::Size),
            None if self.free.load(Ordering::SeqCst) > 0 => {
                (batcher.take_oldest(now)?, FlushReason::Idle)
            }
            None => return None,
        };
        self.handed(&job, reason);
        Some(job)
    }

    /// The oldest open bucket, for a worker that found nothing queued.
    fn take_idle(&self) -> Option<BatchJob> {
        let now = Instant::now();
        let mut batcher = self.lock();
        let job = batcher.take_oldest(now)?;
        self.handed(&job, FlushReason::Idle);
        Some(job)
    }

    /// The buckets `take` flushes without a worker asking: the ones whose
    /// window ran out, or (the shutdown drain) all of them.
    fn flush(&self, take: impl FnOnce(&mut Batcher) -> Vec<BatchJob>) -> Vec<BatchJob> {
        let mut batcher = self.lock();
        let jobs = take(&mut batcher);
        for job in &jobs {
            self.handed(job, FlushReason::Window);
        }
        jobs
    }

    /// The bookkeeping of every job that leaves the buckets, whoever took
    /// it and why; called with the `batcher` lock held, so `free` and the
    /// buckets change together.
    fn handed(&self, job: &BatchJob, reason: FlushReason) {
        self.free.fetch_sub(1, Ordering::SeqCst);
        let s = &job.stats;
        s.queue_depth.fetch_sub(job.requests.len(), Ordering::Relaxed);
        s.record_batch(job.cols, reason);
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
    }
}

fn batcher_loop(rx: Receiver<Submission>, job_tx: SyncSender<BatchJob>, dispatch: &Dispatch) {
    // A send error means every worker is gone; requests are answered with
    // `Canceled` by the dropped reply senders.
    let send = |job: BatchJob| {
        let _ = job_tx.send(job);
    };
    loop {
        // A worker may since have taken the bucket this deadline belongs
        // to; the wake-up then finds nothing expired and costs one lap.
        let deadline = dispatch.lock().next_deadline();
        let msg = match deadline {
            Some(deadline) => rx.recv_timeout(deadline.saturating_duration_since(Instant::now())),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match msg {
            Ok(Submission::Request(p)) => {
                dispatch.push(p, Instant::now()).into_iter().for_each(send);
            }
            Ok(Submission::Shutdown) => {
                // The admission gate orders every accepted request ahead of
                // the sentinel; this drain is belt-and-braces against any
                // future sender that bypasses the gate.
                while let Ok(Submission::Request(p)) = rx.try_recv() {
                    dispatch.push(p, Instant::now()).into_iter().for_each(send);
                }
                break;
            }
            Err(RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                dispatch.flush(|b| b.flush_expired(now)).into_iter().for_each(send);
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Shutdown drain: one cold clock read stamps whatever still flushes.
    // Nothing is pushed after this, so a worker that finds the channel
    // closed has no bucket left to look for.
    let now = Instant::now();
    dispatch.flush(|b| b.flush_all(now)).into_iter().for_each(send);
    // Dropping `job_tx` lets workers drain the channel and exit.
}

/// A worker's next batch: a queued job first (it left its bucket before
/// anything still open), else the oldest open bucket, else whatever the
/// batcher thread sends next. `None` once the channel is closed and empty.
fn next_job(dispatch: &Dispatch, jobs: &Mutex<Receiver<BatchJob>>) -> Option<BatchJob> {
    dispatch.free.fetch_add(1, Ordering::SeqCst);
    // `WouldBlock` means another worker holds the receiver — parked in the
    // `recv` below, so the channel is empty, or inside this same
    // `try_recv`, in which case a second queued job is picked up by that
    // `recv` a moment later instead.
    let queued = match jobs.try_lock() {
        Ok(rx) => rx.try_recv().ok(),
        Err(TryLockError::WouldBlock) => None,
        Err(TryLockError::Poisoned(_)) => return None,
    };
    if let Some(job) = queued.or_else(|| dispatch.take_idle()) {
        return Some(job);
    }
    // Holding the lock while blocked in `recv` is the multi-consumer
    // queue: exactly one idle worker waits on the channel, the rest wait
    // on the mutex, and a job wakes exactly one of them.
    jobs.lock().ok()?.recv().ok()
}

fn worker_loop(
    registry: &LiveRegistry,
    stats: &ServerStats,
    dispatch: &Dispatch,
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
    while let Some(job) = next_job(dispatch, jobs) {
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
    use crate::stats::Flushes;
    use biq_matrix::MatrixRng;
    use biq_runtime::{BackendSpec, PlanBuilder, QuantMethod, Threading, WeightSource};

    fn add_op(reg: &mut ModelRegistry, name: &str, m: usize, n: usize) -> OpId {
        let signs = MatrixRng::seed_from(7).signs(m, n);
        let plan = PlanBuilder::new(m, n)
            .batch_hint(8)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .threading(Threading::Serial)
            .build();
        reg.register(name, &plan, WeightSource::Signs(&signs))
    }

    fn one_op_registry(m: usize, n: usize) -> (ModelRegistry, OpId) {
        let mut reg = ModelRegistry::new();
        let id = add_op(&mut reg, "op", m, n);
        (reg, id)
    }

    /// A window no test outlives: whatever flushes, the timer did not.
    const NEVER: Duration = Duration::from_secs(30);

    /// Holds every worker of a `workers`-strong server inside a batch until
    /// the returned sender is dropped: one single-column request to `op` per
    /// worker, each with a reply-notify that blocks on that sender. A
    /// blocker is seen entering its worker before the next is submitted, so
    /// no two share a batch and none is left in a bucket.
    fn hold_workers(client: &Client, op: OpId, workers: usize) -> mpsc::Sender<()> {
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let (entered_tx, entered) = mpsc::channel();
        let hold: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            entered_tx.send(()).expect("test still listening");
            // `Err` once the test drops `release`: the gate opens for good.
            let _ = gate.lock().expect("gate").recv();
        });
        let snap = client.registry().snapshot();
        let n = snap.slot(op).expect("held op").meta.n;
        for _ in 0..workers {
            let notify = ReplyNotify(Arc::clone(&hold));
            client
                .try_submit_in(&snap, op, ColMatrix::zeros(n, 1), Instant::now(), notify)
                .expect("blocker admitted");
            entered.recv().expect("a worker picked the blocker up");
        }
        release
    }

    /// Spins until the batcher thread has bucketed `n` requests.
    fn await_bucketed(dispatch: &Dispatch, n: usize) {
        while dispatch.lock().pending() != n {
            std::thread::yield_now();
        }
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
        let (server, dispatch) = Server::spawn(reg, config);
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
        // Every worker added itself once more than it was handed a job
        // (its last look found the channel closed), whichever of the
        // batcher thread and the worker itself did the handing.
        assert_eq!(dispatch.free.load(Ordering::SeqCst), config.workers as isize);
        let flushes = snap.ops[0].flushes;
        assert_eq!(flushes.size, snap.ops[0].batches, "width 1 at a cap of 1: {flushes:?}");
    }

    #[test]
    fn a_lone_request_on_an_idle_server_does_not_wait_for_the_window() {
        let (reg, id) = one_op_registry(16, 32);
        let server = Server::start(reg, ServerConfig { batch_window: NEVER, ..Default::default() });
        let x = MatrixRng::seed_from(8).small_int_col(32, 1, 3);
        // No shutdown to flush it: only the idle trigger can answer this.
        let y = server.client().submit(id, x.clone()).unwrap().wait().unwrap();
        let y_ref = Executor::new().run(&server.registry().op(id).unwrap(), &x);
        assert_eq!(y.as_slice(), y_ref.as_slice());
        let stats = server.shutdown();
        assert_eq!(stats.ops[0].flushes, Flushes { size: 0, window: 0, idle: 1 });
    }

    #[test]
    fn requests_queued_behind_busy_workers_leave_as_one_batch() {
        const K: usize = 5;
        let mut reg = ModelRegistry::new();
        let id = add_op(&mut reg, "op", 16, 32);
        let held = add_op(&mut reg, "held", 8, 16);
        let config = ServerConfig { batch_window: NEVER, ..Default::default() };
        let (server, dispatch) = Server::spawn(reg, config);
        let client = server.client();
        let release = hold_workers(&client, held, config.workers);
        let mut g = MatrixRng::seed_from(21);
        let requests: Vec<_> = (0..K)
            .map(|_| {
                let x = g.gaussian_col(32, 1, 0.0, 1.0);
                (client.submit(id, x.clone()).unwrap(), x)
            })
            .collect();
        await_bucketed(&dispatch, K);
        assert_eq!(server.stats().ops[0].batches, 0, "every worker is busy: the bucket holds");
        drop(release);
        let op = server.registry().op(id).unwrap();
        for (ticket, x) in requests {
            let y_ref = Executor::new().run(&op, &x);
            assert_eq!(ticket.wait().unwrap().as_slice(), y_ref.as_slice());
        }
        let stats = server.shutdown();
        assert_eq!(stats.ops[0].batches, 1, "batching fell out of queueing");
        assert_eq!(stats.ops[0].mean_batch_cols, K as f64);
        assert_eq!(stats.ops[0].flushes, Flushes { size: 0, window: 0, idle: 1 });
        assert_eq!(dispatch.free.load(Ordering::SeqCst), config.workers as isize);
    }

    #[test]
    fn shutdown_with_open_buckets_and_pulling_workers_answers_every_ticket() {
        // More open buckets than the job channel holds, every worker busy,
        // then shutdown and the workers' release race: the drain sends
        // buckets down the channel while the freed workers pull them
        // straight from the batcher. Each bucket must leave exactly once.
        const OPS: usize = 7;
        let mut reg = ModelRegistry::new();
        let ids: Vec<OpId> = (0..OPS).map(|i| add_op(&mut reg, &format!("op{i}"), 8, 16)).collect();
        let held = add_op(&mut reg, "held", 8, 16);
        let config = ServerConfig { batch_window: NEVER, job_capacity: 2, ..Default::default() };
        let (server, dispatch) = Server::spawn(reg, config);
        let client = server.client();
        let release = hold_workers(&client, held, config.workers);
        let mut g = MatrixRng::seed_from(22);
        let requests: Vec<_> = (0..3 * OPS)
            .map(|i| {
                let x = g.gaussian_col(16, 1, 0.0, 1.0);
                (client.submit(ids[i % OPS], x.clone()).unwrap(), ids[i % OPS], x)
            })
            .collect();
        await_bucketed(&dispatch, 3 * OPS);
        let ops: Vec<_> = ids.iter().map(|&id| server.registry().op(id).unwrap()).collect();
        let stats = std::thread::scope(|scope| {
            let stopping = scope.spawn(|| server.shutdown());
            // The admission gate has flipped once a probe is refused; the
            // sentinel is sent right behind it.
            while !matches!(
                client.submit(held, ColMatrix::zeros(16, 0)),
                Err(ServeError::ShuttingDown)
            ) {
                std::thread::yield_now();
            }
            drop(release);
            stopping.join().expect("shutdown thread")
        });
        for (ticket, id, x) in requests {
            let y_ref = Executor::new().run(&ops[id.index()], &x);
            assert_eq!(ticket.wait().expect("drained").as_slice(), y_ref.as_slice());
        }
        for op in &stats.ops[..OPS] {
            assert_eq!((op.completed, op.queue_depth), (3, 0), "{}", op.name);
            let f = op.flushes;
            assert_eq!(f.size + f.window + f.idle, op.batches, "{}: {f:?}", op.name);
        }
        assert_eq!(dispatch.free.load(Ordering::SeqCst), config.workers as isize);
    }

    #[test]
    fn every_ragged_wide_batch_width_is_bit_identical() {
        // The packing contract with the batch widths forced by construction:
        // each op's requests go through `Batcher::push`, leave through
        // `take_oldest` as ONE job of exactly `width` columns and run through
        // the worker's `run_job` — every width from 9 to 15 (past one 8-lane
        // group, below the shipped cap of 16, so the size trigger stays
        // quiet) on a serial and a parallel BiQGEMM op, against each
        // request's own direct executor run.
        let mut g = MatrixRng::seed_from(0x1d1e);
        let ops: Vec<Arc<biq_runtime::CompiledOp>> =
            [(24, 32, 1, Threading::Serial), (17, 40, 2, Threading::Parallel)]
                .into_iter()
                .map(|(m, n, bits, threading)| {
                    let w = g.small_int_matrix(m, n, 2);
                    let plan = PlanBuilder::new(m, n)
                        .batch_hint(4)
                        .backend(BackendSpec::Biq { bits, method: QuantMethod::Greedy })
                        .threading(threading)
                        .build();
                    Arc::new(biq_runtime::compile(&plan, WeightSource::Dense(&w)))
                })
                .collect();
        let stats = ServerStats::new();
        let (mut exec, mut xbuf, mut ybuf) = (Executor::new(), Vec::new(), Vec::new());
        let mut batcher = Batcher::new(NEVER, ServerConfig::default().max_batch_cols);
        let mut g = MatrixRng::seed_from(0x1d1f);
        for width in 9usize..=15 {
            let mut submitted = 0usize;
            for (i, op) in ops.iter().enumerate() {
                // 1- and 2-column requests adding up to `width`.
                let mut replies = Vec::new();
                let mut left = width;
                while left > 0 {
                    let cols = left.min(1 + submitted % 2);
                    left -= cols;
                    submitted += 1;
                    let x = g.gaussian_col(op.input_size(), cols, 0.0, 1.0);
                    let reference = Executor::new().run(op, &x).into_vec();
                    let (reply, rx) = mpsc::channel();
                    let now = Instant::now();
                    let p = Pending {
                        op: OpId(i),
                        compiled: Arc::clone(op),
                        stats: Arc::default(),
                        x,
                        reply,
                        enqueued: now,
                        pushed: now,
                        deferred: true,
                        inflight: None,
                        notify: None,
                    };
                    assert!(batcher.push(p, now).is_none(), "below the cap: no size trigger");
                    replies.push((rx, reference));
                }
                let job = batcher.take_oldest(Instant::now()).expect("the op's bucket");
                assert_eq!((job.cols, batcher.pending()), (width, 0), "one batch of every column");
                run_job(&stats, &mut exec, &mut xbuf, &mut ybuf, job);
                for (rx, reference) in replies {
                    let answer = rx.recv().expect("answered").expect("served");
                    assert_eq!(answer.matrix.into_vec(), reference, "op {i} width {width}");
                }
            }
        }
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
        // Admit against v1, swap to v2 while the request is somewhere between
        // the submit queue and a worker (an idle server sends it straight
        // on, whatever the window), then shut down: the reply must be v1's
        // bits, and v1's payload must have drained by then.
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
        // Swap while v1's request is in flight (or just answered).
        server.registry().load_model("m", &a2).unwrap();
        let v2 = server.registry().lookup("linear").unwrap();
        assert_ne!(v1, v2);
        assert!(server.registry().op(v1).is_none(), "v1 retired");
        // New admissions against v1's id are refused now.
        assert!(matches!(client.submit(v1, x.clone()), Err(ServeError::UnknownOp)));
        // v2 answers with v2's bits, v1's request with v1's.
        let expect_v2 = exec.run(&server.registry().op(v2).unwrap(), &x);
        let ticket2 = client.submit(v2, x.clone()).unwrap();
        // Shutdown drains every accepted request.
        let snap = server.shutdown();
        let y1 = ticket.wait().unwrap();
        let y2 = ticket2.wait().unwrap();
        assert_eq!(y1.as_slice(), expect_v1.as_slice(), "v1 request got v1 bits");
        assert_eq!(y2.as_slice(), expect_v2.as_slice(), "v2 request got v2 bits");
        assert_eq!(snap.completed(), 2, "zero dropped requests across the swap");
    }
}
