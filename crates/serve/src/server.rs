//! The serving engine: submitters bucket their requests and a pool of
//! worker threads pulls batches, each worker owning a private warmed
//! [`Executor`].
//!
//! ```text
//!  Client::submit / try_submit    validate op + shape (no lock)
//!        │
//!        ▼  one Mutex: admitted-not-taken < queue_capacity?
//!           full ⇒ try_submit → Busy, submit waits on `room`
//!  Batcher (batcher.rs): open buckets ──size / window──► sealed FIFO
//!        │  a push wakes one parked worker (`work`)
//!        ▼
//!  worker 0..N-1: sealed FIFO, else the oldest open bucket, else park
//!        │  own Executor: pack → run → scatter; a take wakes `room`
//!        ▼
//!  Ticket::wait ◄── reply channels
//! ```
//!
//! Dispatch is work-conserving: a bucket never waits while a worker is
//! free. A push wakes a parked worker, and a worker with nothing sealed for
//! it takes the oldest open bucket itself — so the batch window is only
//! ever spent behind busy workers, and batches form out of that queueing.
//! There is no thread between the submitters and the workers: the policy
//! (buckets, sealed FIFO, flush reasons) is `batcher.rs`, and this module
//! only locks, parks and wakes around it.
//!
//! Workers never share an executor: each owns one, warmed at startup for
//! every boot-time op, so the `SharedExecutor` mutex bottleneck never
//! appears on the serving path and per-worker arenas stay hot across
//! batches. Ops loaded online later warm lazily on their first batch (the
//! executor grows arenas on demand). Backpressure is one count under the
//! lock: once `queue_capacity` admitted requests wait for a worker,
//! [`Client::try_submit`] returns [`ServeError::Busy`] and
//! [`Client::submit`] blocks until a worker takes a batch.
//!
//! Requests resolve against the [`LiveRegistry`] at admission and carry
//! their own `Arc` of the compiled op from there on — a model swap or
//! unload never changes what an accepted request runs against, and the
//! retiring version's payload drops only after its last in-flight request
//! answers (drain-on-retire).

use crate::batcher::{Answer, BatchJob, Batcher, Lap, Pending, ReplyNotify, ServeError};
use crate::registry::{LiveRegistry, ModelRegistry, OpId, Snapshot};
use crate::stats::{ServerStats, StatsSnapshot};
use biq_matrix::{ColMatrix, Matrix};
use biq_obs::{MetricsSnapshot, RequestRecord, SlowHit};
use biq_runtime::Executor;
use biqgemm_core::PhaseProfile;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Server::start`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads, each with a private warmed [`Executor`].
    pub workers: usize,
    /// The most admitted requests no worker has taken yet, open buckets and
    /// sealed batches alike. At the cap [`Client::submit`] blocks and
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
    /// Not read: workers pull batches from the buckets, so there is no job
    /// channel left to size. Kept only because the benchmark prints it on
    /// its provenance line.
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
    dispatch: Arc<Dispatch>,
    registry: Arc<LiveRegistry>,
}

impl Client {
    /// Validates and enqueues a request, blocking while `queue_capacity`
    /// admitted requests wait for a worker. The returned [`Ticket`]
    /// resolves to `W·X` for the registered op.
    pub fn submit(&self, op: OpId, x: ColMatrix) -> Result<Ticket, ServeError> {
        self.admit(&self.registry.snapshot(), op, x, Instant::now(), None, true)
    }

    /// Like [`Client::submit`] but refusing with [`ServeError::Busy`]
    /// instead of blocking when the queue is full — the backpressure edge.
    pub fn try_submit(&self, op: OpId, x: ColMatrix) -> Result<Ticket, ServeError> {
        self.admit(&self.registry.snapshot(), op, x, Instant::now(), None, false)
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
        self.admit(snap, op, x, enqueued, Some(notify), false)
    }

    /// The one admission path. Validation runs outside the lock; an empty
    /// request is answered inline and never queued. A successful admission
    /// captures the op's `Arc`s from `snap` and pins the owning model in
    /// flight. A request with a `notify` came over the wire, and the net
    /// writer records its lifecycle.
    fn admit(
        &self,
        snap: &Snapshot,
        op: OpId,
        x: ColMatrix,
        enqueued: Instant,
        notify: Option<ReplyNotify>,
        block: bool,
    ) -> Result<Ticket, ServeError> {
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
        if x.cols() == 0 {
            // Nothing to compute; answer inline so workers never see b = 0.
            // The notify guard (if any) drops here, after the send — the
            // reactor's poll finds the inline answer immediately.
            let zero = Matrix::zeros(compiled.output_size(), 0);
            let _ = reply.send(Ok(Answer { matrix: zero, lap: Lap::default() }));
            return Ok(Ticket { rx });
        }
        let p = Pending {
            op,
            compiled,
            stats: Arc::clone(&slot.stats),
            x,
            reply,
            enqueued,
            pushed: enqueued,
            deferred: notify.is_some(),
            inflight: Some(self.registry.begin(slot)),
            notify,
        };
        // Declared after `p`, so a refused request drops (and fires its
        // notify) only once the lock is released.
        let d = &*self.dispatch;
        let mut q = d.lock();
        loop {
            if !q.accepting {
                return Err(ServeError::ShuttingDown);
            }
            if q.batcher.queued() < d.capacity {
                break;
            }
            if !block {
                p.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Busy);
            }
            q.blocked += 1;
            q = d.room.wait(q).expect("serve queue poisoned");
            q.blocked -= 1;
        }
        p.stats.submitted.fetch_add(1, Ordering::Relaxed);
        q.batcher.push(p, Instant::now());
        let wake = q.parked > 0;
        drop(q);
        if wake {
            d.work.notify_one();
        }
        Ok(Ticket { rx })
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
/// Dropping a `Server` without calling `shutdown` closes admission and
/// detaches its workers: a [`Client`] kept past the drop is refused with
/// [`ServeError::ShuttingDown`], and the workers answer every request
/// admitted before the drop, then exit.
pub struct Server {
    dispatch: Arc<Dispatch>,
    registry: Arc<LiveRegistry>,
    stats: Arc<ServerStats>,
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
            .slow
            .slowest(max)
            .into_iter()
            .map(|rec| SlowHit { op: self.registry.op_name(rec.op as usize), rec })
            .collect()
    }

    /// The per-server slow log (the net writer offers its records to it).
    pub(crate) fn sink(&self) -> &biq_obs::SlowLog {
        &self.stats.slow
    }
}

impl Server {
    /// Spawns `config.workers` worker threads; every worker warms a private
    /// executor for every boot-time op (at the packed-width cap) before
    /// serving. The boot registry becomes version 1 of the boot model in
    /// the server's [`LiveRegistry`].
    pub fn start(registry: ModelRegistry, config: ServerConfig) -> Server {
        let registry = Arc::new(LiveRegistry::from_builder(registry, config.mem_budget));
        let stats = Arc::new(ServerStats::new());
        let max_cols = config.max_batch_cols.max(1);
        let dispatch = Arc::new(Dispatch {
            state: Mutex::new(Queue {
                batcher: Batcher::new(config.batch_window, max_cols),
                parked: 0,
                blocked: 0,
                accepting: true,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            capacity: config.queue_capacity.max(1),
        });
        let cpus = crate::affinity::cpu_count();
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let registry = Arc::clone(&registry);
                let stats = Arc::clone(&stats);
                let dispatch = Arc::clone(&dispatch);
                let pin_to = config.pin_workers.then_some(i % cpus);
                std::thread::Builder::new()
                    .name(format!("biq-serve-worker-{i}"))
                    .spawn(move || worker_loop(&registry, &stats, &dispatch, max_cols, pin_to))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { dispatch, registry, stats, workers }
    }

    /// A new submission handle.
    pub fn client(&self) -> Client {
        Client { dispatch: Arc::clone(&self.dispatch), registry: Arc::clone(&self.registry) }
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

    /// Graceful shutdown: stops admission, lets the workers run everything
    /// already admitted (open buckets included), joins them, and returns
    /// the final statistics.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.dispatch.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        StatsSnapshot::capture(&self.registry, &self.stats)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.dispatch.close();
    }
}

/// The one lock submitters and workers share, and what each waits on.
struct Dispatch {
    state: Mutex<Queue>,
    /// Parked workers wait here; a push wakes one.
    work: Condvar,
    /// Blocked submitters wait here; a take, or closing, wakes them all.
    room: Condvar,
    /// [`ServerConfig::queue_capacity`]: the most requests admitted and not
    /// yet taken by a worker.
    capacity: usize,
}

/// The state under [`Dispatch`]'s lock.
struct Queue {
    batcher: Batcher,
    /// Workers waiting on `work`.
    parked: usize,
    /// Submitters waiting on `room`.
    blocked: usize,
    /// Cleared once, by [`Dispatch::close`]; nothing is admitted after.
    accepting: bool,
}

impl Dispatch {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.state.lock().expect("serve queue poisoned")
    }

    /// Stops admission and wakes every waiter: blocked submitters are
    /// refused, and workers drain what was admitted, then exit. Called from
    /// `Drop` too, so it recovers a poisoned lock rather than panic
    /// (clearing a flag leaves the state valid).
    fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).accepting = false;
        self.work.notify_all();
        self.room.notify_all();
    }

    /// A worker's next batch, parking while there is none. `None` once
    /// admission is closed and nothing is left.
    fn next_job(&self) -> Option<BatchJob> {
        let mut q = self.lock();
        loop {
            if let Some(job) = q.batcher.next(Instant::now) {
                let wake = q.blocked > 0;
                drop(q);
                if wake {
                    self.room.notify_all();
                }
                return Some(job);
            }
            if !q.accepting {
                return None;
            }
            q.parked += 1;
            q = self.work.wait(q).expect("serve queue poisoned");
            q.parked -= 1;
        }
    }
}

fn worker_loop(
    registry: &LiveRegistry,
    stats: &ServerStats,
    dispatch: &Dispatch,
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
    while let Some(job) = dispatch.next_job() {
        // One clock read per batch when tracing (the PR 6 lesson: never
        // per-chunk); the kernel-phase child spans below are bridged from
        // the profile delta, not re-timed.
        let batch_start = biq_obs::trace::tracing_enabled().then(biq_obs::trace::now_ns);
        if batch_start.is_some() {
            // The batch window as a span from the oldest request's enqueue
            // to its bucket's seal (the time batching "charged" the batch),
            // reusing the dispatch stamp instead of re-reading the clock.
            if let Some(earliest) = job.requests.iter().map(|r| r.enqueued).min() {
                let start = biq_obs::trace::instant_ns(earliest);
                let end = biq_obs::trace::instant_ns(job.dispatched);
                biq_obs::trace::emit("serve.batch_window", start, end.saturating_sub(start));
            }
        }
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
            stats.slow.offer(&RequestRecord::from_timeline(
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
    use crate::batcher::FlushReason;
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

    /// A gate requests can be held at: each notify it makes reports on
    /// `entered` once its request's worker reaches it, then blocks that
    /// worker until `release` drops.
    struct Gate {
        release: mpsc::Sender<()>,
        entered: mpsc::Receiver<()>,
        hold: Arc<dyn Fn() + Send + Sync>,
    }

    impl Gate {
        fn new() -> Gate {
            let (release, gate) = mpsc::channel::<()>();
            let gate = Mutex::new(gate);
            let (entered_tx, entered) = mpsc::channel();
            let hold: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
                let _ = entered_tx.send(());
                // `Err` once the test drops `release`: the gate opens for good.
                let _ = gate.lock().expect("gate").recv();
            });
            Gate { release, entered, hold }
        }

        /// Admits a single-column request to `op` that holds its worker here.
        fn submit(&self, client: &Client, op: OpId) -> Ticket {
            let snap = client.registry().snapshot();
            let n = snap.slot(op).expect("held op").meta.n;
            let notify = ReplyNotify(Arc::clone(&self.hold));
            client
                .try_submit_in(&snap, op, ColMatrix::zeros(n, 1), Instant::now(), notify)
                .expect("held request admitted")
        }
    }

    /// Holds every worker of a `workers`-strong server inside a batch until
    /// the returned sender is dropped: one single-column request to `op` per
    /// worker. A blocker is seen entering its worker before the next is
    /// submitted, so no two share a batch and none is left in a bucket.
    fn hold_workers(client: &Client, op: OpId, workers: usize) -> mpsc::Sender<()> {
        let gate = Gate::new();
        for _ in 0..workers {
            gate.submit(client, op);
            gate.entered.recv().expect("a worker picked the blocker up");
        }
        gate.release
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
        // Submitters raise the gauge and workers' takes lower it, both under
        // the queue lock. `max_batch_cols: 1` makes every request its own
        // batch, taken the moment a worker is free — the tightest
        // interleaving of the two — and a two-slot queue keeps `try_submit`
        // bouncing off `Busy` and `submit` blocking. A third thread samples
        // the live snapshot throughout: the depth must never leave
        // 0..=queue_capacity (a wrapped gauge reads near `usize::MAX`).
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
            max_depth <= config.queue_capacity,
            "a sampled queue depth of {max_depth} (over {samples} samples) exceeds the queue \
             capacity: admission overran it or the gauge wrapped"
        );
        let snap = server.shutdown();
        assert_eq!(snap.ops[0].completed, 2 * REQUESTS as u64);
        assert!(snap.ops[0].rejected > 0, "the Busy path never ran");
        assert_eq!(snap.ops[0].queue_depth, 0, "every admitted request was taken");
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
        let server = Server::start(reg, config);
        let client = server.client();
        let release = hold_workers(&client, held, config.workers);
        let mut g = MatrixRng::seed_from(21);
        let requests: Vec<_> = (0..K)
            .map(|_| {
                let x = g.gaussian_col(32, 1, 0.0, 1.0);
                (client.submit(id, x.clone()).unwrap(), x)
            })
            .collect();
        assert_eq!(server.dispatch.lock().batcher.queued(), K, "admitted means bucketed");
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
    }

    #[test]
    fn shutdown_with_open_buckets_and_pulling_workers_answers_every_ticket() {
        // Seven open buckets, every worker busy, then shutdown and the
        // workers' release race: the freed workers drain the buckets while
        // admission closes. Each bucket must leave exactly once.
        const OPS: usize = 7;
        let mut reg = ModelRegistry::new();
        let ids: Vec<OpId> = (0..OPS).map(|i| add_op(&mut reg, &format!("op{i}"), 8, 16)).collect();
        let held = add_op(&mut reg, "held", 8, 16);
        let config = ServerConfig { batch_window: NEVER, ..Default::default() };
        let server = Server::start(reg, config);
        let dispatch = Arc::clone(&server.dispatch);
        let client = server.client();
        let release = hold_workers(&client, held, config.workers);
        let mut g = MatrixRng::seed_from(22);
        let requests: Vec<_> = (0..3 * OPS)
            .map(|i| {
                let x = g.gaussian_col(16, 1, 0.0, 1.0);
                (client.submit(ids[i % OPS], x.clone()).unwrap(), ids[i % OPS], x)
            })
            .collect();
        let ops: Vec<_> = ids.iter().map(|&id| server.registry().op(id).unwrap()).collect();
        let stats = std::thread::scope(|scope| {
            let stopping = scope.spawn(|| server.shutdown());
            while dispatch.lock().accepting {
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
        assert!(matches!(
            client.submit(ids[0], ColMatrix::zeros(16, 1)),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn a_blocked_submit_is_admitted_by_a_take_and_refused_by_shutdown() {
        // One worker held, a two-slot queue filled with two batches of one
        // request each, and two blocking submitters parked behind them.
        // Releasing the worker lets it take the first batch, which admits
        // exactly one submitter; the batch then holds the worker again, so
        // the other stays parked until shutdown refuses it.
        let mut reg = ModelRegistry::new();
        let id = add_op(&mut reg, "op", 8, 16);
        let held = add_op(&mut reg, "held", 8, 16);
        let config = ServerConfig {
            workers: 1,
            queue_capacity: 2,
            max_batch_cols: 1,
            batch_window: NEVER,
            ..ServerConfig::default()
        };
        let server = Server::start(reg, config);
        let dispatch = Arc::clone(&server.dispatch);
        let client = server.client();
        let release = hold_workers(&client, held, 1);
        let fill = Gate::new();
        let filled = [fill.submit(&client, id), fill.submit(&client, id)];
        assert!(matches!(client.try_submit(id, ColMatrix::zeros(16, 1)), Err(ServeError::Busy)));
        let x = MatrixRng::seed_from(23).gaussian_col(16, 1, 0.0, 1.0);
        let y_ref = Executor::new().run(&server.registry().op(id).unwrap(), &x);
        let (results, stats) = std::thread::scope(|scope| {
            let submitters: Vec<_> =
                (0..2).map(|_| scope.spawn(|| client.submit(id, x.clone()))).collect();
            while dispatch.lock().blocked < 2 {
                std::thread::yield_now();
            }
            drop(release);
            fill.entered.recv().expect("the worker took the first filled batch");
            loop {
                let q = dispatch.lock();
                if (q.blocked, q.batcher.queued()) == (1, 2) {
                    break;
                }
                drop(q);
                std::thread::yield_now();
            }
            let stopping = scope.spawn(|| server.shutdown());
            while dispatch.lock().accepting {
                std::thread::yield_now();
            }
            let results: Vec<_> =
                submitters.into_iter().map(|s| s.join().expect("submitter")).collect();
            drop(fill.release);
            (results, stopping.join().expect("shutdown thread"))
        });
        let (admitted, refused): (Vec<_>, Vec<_>) = results.into_iter().partition(Result::is_ok);
        assert_eq!(refused.len(), 1, "one submitter stayed parked: {refused:?}");
        assert!(matches!(refused[0], Err(ServeError::ShuttingDown)));
        for ticket in admitted {
            assert_eq!(ticket.unwrap().wait().expect("served").as_slice(), y_ref.as_slice());
        }
        for ticket in filled {
            ticket.wait().expect("filled requests served");
        }
        assert_eq!((stats.ops[0].completed, stats.ops[0].queue_depth), (3, 0));
    }

    #[test]
    fn dropping_the_server_closes_admission_and_still_answers_the_admitted() {
        let mut reg = ModelRegistry::new();
        let id = add_op(&mut reg, "op", 8, 16);
        let held = add_op(&mut reg, "held", 8, 16);
        let config = ServerConfig { batch_window: NEVER, ..Default::default() };
        let server = Server::start(reg, config);
        let dispatch = Arc::clone(&server.dispatch);
        let client = server.client();
        let release = hold_workers(&client, held, config.workers);
        let x = MatrixRng::seed_from(24).gaussian_col(16, 1, 0.0, 1.0);
        let tickets: Vec<_> = (0..3).map(|_| client.submit(id, x.clone()).unwrap()).collect();
        let y_ref = Executor::new().run(&server.registry().op(id).unwrap(), &x);
        drop(server);
        assert!(matches!(client.submit(id, x.clone()), Err(ServeError::ShuttingDown)));
        drop(release);
        for ticket in tickets {
            assert_eq!(
                ticket.wait().expect("admitted before the drop").as_slice(),
                y_ref.as_slice()
            );
        }
        // Every worker lets go of the queue once it is drained: only the
        // test's and the client's handles are left.
        while Arc::strong_count(&dispatch) > 2 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn every_ragged_wide_batch_width_is_bit_identical() {
        // The packing contract with the batch widths forced by construction:
        // each op's requests go through `Batcher::push`, leave through an
        // idle `Batcher::next` as ONE job of exactly `width` columns and run
        // through the worker's `run_job` — every width from 2 to 15 (column
        // tables through `COLUMN_TABLES_MAX`, then KeyMajor tiles with every
        // lane remainder: AVX-512 hands ≤ 8 of them to AVX2's body; below
        // the shipped cap of 16, so the size trigger stays quiet) on a
        // serial and a parallel BiQGEMM op, against each request's own
        // direct executor run.
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
        for width in 2usize..=15 {
            let mut submitted = 0usize;
            for (i, op) in ops.iter().enumerate() {
                // 1- and 2-column requests adding up to `width`.
                let op_stats = Arc::default();
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
                        stats: Arc::clone(&op_stats),
                        x,
                        reply,
                        enqueued: now,
                        pushed: now,
                        deferred: true,
                        inflight: None,
                        notify: None,
                    };
                    batcher.push(p, now);
                    replies.push((rx, reference));
                }
                let job = batcher.next(Instant::now).expect("the op's bucket");
                assert_eq!((job.cols, batcher.queued()), (width, 0), "one batch of every column");
                assert_eq!(job.reason, FlushReason::Idle, "below the cap: no size trigger");
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
        let recent: Vec<_> = handle.slow_hits(16).into_iter().map(|h| h.rec).collect();
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
