//! The TCP front-end: a readiness-driven reactor bridging `BIQP` frames
//! into [`crate::Client`] tickets.
//!
//! ```text
//!  TcpListener ──► acceptor thread ──► round-robin handoff
//!                                          │
//!                         io thread 0..N-1 (epoll / poll):
//!                           ┌───────────────────────────────────────────┐
//!                           │ nonblocking sockets, one state machine    │
//!                           │ per connection:                           │
//!                           │   readable ─► rbuf ─► incremental decode  │
//!                           │     Request ─► Client::try_submit ─► FIFO │
//!                           │   ticket resolved (ReplyNotify wake)      │
//!                           │     ─► encode into recycled buffer ─► wq  │
//!                           │   writable ─► writev drains wq            │
//!                           └───────────────────────────────────────────┘
//! ```
//!
//! A small fixed pool of I/O threads multiplexes every connection: no
//! thread ever parks on one socket or one ticket, so thousands of idle
//! connections cost file descriptors and a few hundred bytes of state
//! each, not stacks. Workers wake the reactor through a `ReplyNotify`
//! guard that fires when a request's reply lands on its ticket channel.
//!
//! Everything the in-process serving layer guarantees applies to remote
//! traffic unchanged, because the bridge is a plain [`crate::Client`]:
//! batching packs frames from different connections into one executor
//! pass, backpressure surfaces as an explicit `Busy` reject frame
//! (retryable), replies stay FIFO per connection, and
//! [`NetServer::shutdown`] drains every accepted request before the final
//! [`StatsSnapshot`] is captured. A slow-reading peer gets a bounded
//! write queue and a disconnect, never unbounded server memory.
//!
//! Malformed frames follow the codec's contract: the connection gets a
//! best-effort `Reject(code = Malformed)` frame and is then closed —
//! corrupt input never takes the server down (`net_hostile` pins this).

use crate::batcher::{Lap, ReplyNotify};
use crate::net::sys::{self, Poller, Waker, WAKER_TOKEN};
use crate::net::wire::{self, FrameStatus, Message, OpInfo, RejectCode, WireError};
use crate::server::{Client, Server, StatsHandle, Ticket};
use crate::stats::StatsSnapshot;
use crate::ServeError;
use biq_obs::{
    span, MetricValue, MetricsSnapshot, Pow2Histogram, RequestRecord, Sample, SeriesRing,
};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the (non-blocking) acceptor polls for the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Time-series points the daemon retains (at the CLI's ~1 Hz sampling
/// tick, two minutes of history) — under the wire's `MAX_POINTS` cap.
const HISTORY_POINTS: usize = 120;

/// Bytes read per `read` syscall, and the cap on chunk rounds per
/// readiness event: a firehosing connection yields after
/// `READ_ROUNDS × READ_CHUNK` so byte-trickling neighbours still get
/// their turn (level-triggered polling re-reports the leftover).
const READ_CHUNK: usize = 64 * 1024;
const READ_ROUNDS: usize = 4;

/// Frames per `writev`: matches the kernel's `UIO_FASTIOV` fast path.
const WRITE_BATCH: usize = 8;

/// Poll timeout when anything might be in flight (drain, resolved
/// tickets) — a safety net; every real transition also fires the waker.
const BUSY_TICK_MS: i32 = 25;
/// Poll timeout when fully idle.
const IDLE_TICK_MS: i32 = 500;

/// Reactor tunables for [`NetServer::bind_with`].
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// I/O (reactor) threads multiplexing the connections. Two saturate a
    /// loopback benchmark; raise for many-core fan-in. Clamped to ≥ 1.
    pub io_threads: usize,
    /// Per-connection write-queue cap in bytes: once a connection's
    /// un-flushed replies exceed this, the peer is judged dead or
    /// malicious (slow-loris reader) and the connection is dropped.
    /// Memory stays bounded at roughly `cap + one frame` per connection.
    pub max_write_queue: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { io_threads: 2, max_write_queue: 32 << 20 }
    }
}

/// Transport-layer counters, one set per [`NetServer`]. Every update is a
/// relaxed atomic op on a reactor thread — nothing here touches a worker
/// or takes a lock on the hot path.
#[derive(Default)]
pub(crate) struct NetMetrics {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    checksum_failures: AtomicU64,
    malformed: AtomicU64,
    busy_rejects: AtomicU64,
    connections_opened: AtomicU64,
    connections_open: AtomicI64,
    stats_queries: AtomicU64,
    history_queries: AtomicU64,
    slowlog_queries: AtomicU64,
    reactor_wakeups: AtomicU64,
    read_syscalls: AtomicU64,
    write_syscalls: AtomicU64,
    write_queue_depth: Pow2Histogram,
}

impl NetMetrics {
    /// Appends the transport samples, all unlabeled, in field order.
    fn push_samples(&self, samples: &mut Vec<Sample>) {
        let sample =
            |name: &str, value| Sample { name: name.to_string(), labels: Vec::new(), value };
        let counter =
            |name, c: &AtomicU64| sample(name, MetricValue::Counter(c.load(Ordering::Relaxed)));
        samples.extend([
            counter("biq_net_frames_in_total", &self.frames_in),
            counter("biq_net_frames_out_total", &self.frames_out),
            counter("biq_net_bytes_in_total", &self.bytes_in),
            counter("biq_net_bytes_out_total", &self.bytes_out),
            counter("biq_net_checksum_failures_total", &self.checksum_failures),
            counter("biq_net_malformed_total", &self.malformed),
            counter("biq_net_busy_rejects_total", &self.busy_rejects),
            counter("biq_net_connections_opened_total", &self.connections_opened),
            sample(
                "biq_net_connections_open",
                MetricValue::Gauge(self.connections_open.load(Ordering::Relaxed)),
            ),
            counter("biq_net_stats_queries_total", &self.stats_queries),
            counter("biq_net_history_queries_total", &self.history_queries),
            counter("biq_net_slowlog_queries_total", &self.slowlog_queries),
            counter("biq_net_reactor_wakeups_total", &self.reactor_wakeups),
            counter("biq_net_read_syscalls_total", &self.read_syscalls),
            counter("biq_net_write_syscalls_total", &self.write_syscalls),
            sample(
                "biq_net_write_queue_depth",
                MetricValue::Histogram(self.write_queue_depth.snapshot()),
            ),
        ]);
    }
}

/// Everything a `Stats` frame is answered from: the serving layer's
/// counters (via [`StatsHandle`]) followed by the transport counters.
/// Shared by every connection; snapshotting reads atomics only.
pub(crate) struct MetricsHub {
    serve: StatsHandle,
    net: NetMetrics,
    /// Rolling per-interval time-series (the `History` verb's payload),
    /// fed by [`NetServer::sample_series`] on the daemon's housekeeping
    /// tick.
    series: SeriesRing,
}

impl MetricsHub {
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut m = self.serve.metrics();
        self.net.push_samples(&mut m.samples);
        // Observability of the observability: trace-ring drop counts and
        // the enabled flag ride along with every snapshot, so the CI smoke
        // can assert drops stayed zero under load.
        m.samples.extend(biq_obs::trace::health().samples());
        m
    }
}

/// What an io thread's peers (acceptor, workers via [`ReplyNotify`],
/// shutdown) hand it between wakeups.
#[derive(Default)]
struct Inbox {
    /// Accepted sockets awaiting registration.
    new_conns: Vec<TcpStream>,
    /// Tokens whose tickets (may) have resolved — pump these.
    ready: Vec<u64>,
    /// Shutdown: stop reading, answer what's pending, flush, exit.
    drain: bool,
}

/// One io thread's shared half: its inbox plus the waker that interrupts
/// its poll.
struct IoShared {
    inbox: Mutex<Inbox>,
    waker: Waker,
}

impl IoShared {
    /// Queues a token for pumping and wakes the thread (worker-side path
    /// of [`ReplyNotify`]; a poisoned inbox degrades to the timeout tick).
    fn notify_ready(&self, token: u64) {
        if let Ok(mut inbox) = self.inbox.lock() {
            inbox.ready.push(token);
        }
        self.waker.wake();
    }
}

/// An outbound obligation, FIFO per connection. Admin verbs are encoded
/// only when they reach the queue's head, preserving reply order across
/// every frame kind exactly like the old per-connection writer thread.
enum PendingOut {
    /// A submitted request: encode its reply (or reject) once the ticket
    /// resolves.
    Ticket { req_id: u64, ticket: Ticket },
    /// An immediate reject (validation/admission failure).
    Reject { req_id: u64, code: RejectCode, msg: String },
    /// A reply computed at decode time (the model-fleet admin verbs run
    /// inline on the reactor and queue their finished answer here, so it
    /// still leaves in FIFO order behind earlier obligations).
    Ready(Message),
    /// The op table.
    Ops,
    /// A metrics snapshot (the `Stats` admin verb).
    Stats,
    /// The rolling time-series (the `History` admin verb).
    History { max: u16 },
    /// The slowest-request records (the `SlowLog` admin verb).
    SlowLog { max: u16 },
}

/// One encoded frame waiting in a connection's write queue, plus the
/// record finalized when its last byte reaches the socket.
struct WBuf {
    buf: Vec<u8>,
    /// `(req_id, lap, ticket-wait end)` for replies whose lifecycle record
    /// the reactor owns.
    rec: Option<(u64, Lap, Instant)>,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    fd: i32,
    token: u64,
    /// Accumulated unread bytes; frames decode incrementally off its front.
    rbuf: Vec<u8>,
    /// False after EOF, a protocol violation, or shutdown drain — the
    /// connection only flushes from then on.
    reading: bool,
    /// Outbound obligations in arrival order.
    pending: VecDeque<PendingOut>,
    /// Encoded frames awaiting the socket.
    wq: VecDeque<WBuf>,
    /// Total bytes across `wq` (the backpressure measure).
    wq_bytes: usize,
    /// Bytes of `wq.front()` already written.
    woff: usize,
    /// Recycled frame buffers (steady-state encodes allocate nothing).
    spare: Vec<Vec<u8>>,
    /// The registered poll interests, to elide no-op `modify` calls.
    intr: (bool, bool),
    /// The per-connection wake-up closure, shared by every in-flight
    /// request (one allocation per connection, not per request).
    notify_fn: Arc<dyn Fn() + Send + Sync>,
    /// Set on I/O error or backpressure overflow: close without flushing.
    dead: bool,
}

impl Conn {
    /// Done: nothing more will be read and everything owed was flushed.
    fn finished(&self) -> bool {
        self.dead || (!self.reading && self.pending.is_empty() && self.wq.is_empty())
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        // Keep a few buffers, but never park a one-off giant frame's
        // allocation on an idle connection.
        if self.spare.len() < 4 && buf.capacity() <= (1 << 20) {
            buf.clear();
            self.spare.push(buf);
        }
    }

    fn take_spare(&mut self) -> Vec<u8> {
        self.spare.pop().unwrap_or_default()
    }
}

/// Immutable per-io-thread context.
struct IoCtx {
    poller: Poller,
    shared: Arc<IoShared>,
    client: Client,
    hub: Arc<MetricsHub>,
    max_write_queue: usize,
}

/// A running TCP front-end over a [`Server`]. Construct with
/// [`NetServer::bind`] or [`NetServer::bind_with`], stop with
/// [`NetServer::shutdown`].
pub struct NetServer {
    server: Option<Server>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    io: Vec<(Arc<IoShared>, Option<JoinHandle<()>>)>,
    hub: Arc<MetricsHub>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`NetServer::local_addr`]) and starts accepting connections that
    /// submit into `server`'s batching pipeline, with default reactor
    /// tunables.
    pub fn bind(addr: impl ToSocketAddrs, server: Server) -> std::io::Result<NetServer> {
        Self::bind_with(addr, server, NetConfig::default())
    }

    /// [`NetServer::bind`] with explicit reactor tunables.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        server: Server,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let client = server.client();
        let hub = Arc::new(MetricsHub {
            serve: server.stats_handle(),
            net: NetMetrics::default(),
            series: SeriesRing::new(HISTORY_POINTS),
        });
        // Create every poller before spawning anything so a failure here
        // cannot leave half a reactor running.
        let n_io = config.io_threads.max(1);
        let mut pollers = Vec::with_capacity(n_io);
        for _ in 0..n_io {
            pollers.push(Poller::new()?);
        }
        let mut io = Vec::with_capacity(n_io);
        for (i, poller) in pollers.into_iter().enumerate() {
            let shared =
                Arc::new(IoShared { inbox: Mutex::new(Inbox::default()), waker: poller.waker() });
            let ctx = IoCtx {
                poller,
                shared: Arc::clone(&shared),
                client: client.clone(),
                hub: Arc::clone(&hub),
                max_write_queue: config.max_write_queue.max(1),
            };
            let handle = std::thread::Builder::new()
                .name(format!("biq-net-io-{i}"))
                .spawn(move || io_loop(ctx))
                .expect("spawn net io thread");
            io.push((shared, Some(handle)));
        }
        let acceptor = {
            let stop = Arc::clone(&stop);
            let targets: Vec<Arc<IoShared>> = io.iter().map(|(s, _)| Arc::clone(s)).collect();
            std::thread::Builder::new()
                .name("biq-net-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, &stop, &targets))
                .expect("spawn net acceptor")
        };
        Ok(NetServer { server: Some(server), local_addr, stop, acceptor: Some(acceptor), io, hub })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live statistics of the inner server.
    pub fn stats(&self) -> StatsSnapshot {
        self.server.as_ref().expect("server present until shutdown").stats()
    }

    /// Live metric samples: the serving layer's counters, the transport
    /// counters and trace health — exactly what a `Stats` frame is
    /// answered with.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.hub.snapshot()
    }

    /// Feeds one tick into the rolling time-series the `History` admin
    /// verb answers from. Call periodically (the daemon's housekeeping
    /// beat, ~1 Hz); the first call primes the delta baseline. Reads
    /// atomics only — never a worker.
    pub fn sample_series(&self) {
        let t_ms = biq_obs::trace::now_ns() / 1_000_000;
        self.hub.series.sample(&self.hub.snapshot(), t_ms);
    }

    /// Graceful shutdown: stops accepting new connections, stops reading
    /// from every connection (in-flight requests keep their reply path),
    /// waits for the reactor to answer and flush everything pending, then
    /// drains the inner [`Server`] and returns the final statistics.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop_net();
        self.server.take().expect("server present until shutdown").shutdown()
    }

    /// Network-side teardown, shared by `shutdown` and `Drop`.
    fn stop_net(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Workers are still alive here (Server::shutdown comes after), so
        // every pending ticket resolves and the drain terminates.
        for (shared, _) in &self.io {
            if let Ok(mut inbox) = shared.inbox.lock() {
                inbox.drain = true;
            }
            shared.waker.wake();
        }
        for (_, handle) in &mut self.io {
            if let Some(h) = handle.take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // `shutdown` already tore the network down; a dropped NetServer
        // still stops its threads (the inner Server's own Drop contract
        // then applies).
        if self.server.is_some() {
            self.stop_net();
        }
    }
}

fn acceptor_loop(listener: TcpListener, stop: &AtomicBool, targets: &[Arc<IoShared>]) {
    let mut next = 0usize;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The reactor owns all socket I/O; connections stay
                // nonblocking for their whole life.
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Reply frames are latency-critical and already batched at
                // the application layer — never let Nagle hold one back
                // for a delayed ACK.
                let _ = stream.set_nodelay(true);
                let target = &targets[next % targets.len()];
                next += 1;
                if let Ok(mut inbox) = target.inbox.lock() {
                    inbox.new_conns.push(stream);
                }
                target.waker.wake();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Dropping the listener closes the accept socket.
}

/// One reactor thread: multiplexes its share of the connections until a
/// shutdown drain completes.
fn io_loop(ctx: IoCtx) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = Vec::new();
    let mut draining = false;
    // Connections whose pending FIFO is non-empty, maintained by deltas in
    // `service_counted` — the busy test must be O(1), not a slab scan, or
    // a large idle herd taxes every wakeup (this loop runs per event
    // batch, and 10k idle connections are exactly the case the reactor
    // exists for).
    let mut waiting = 0usize;
    loop {
        let busy = draining || waiting > 0;
        let timeout = if busy { BUSY_TICK_MS } else { IDLE_TICK_MS };
        if ctx.poller.wait(&mut events, timeout).is_err() {
            // A broken poller can't be recovered; back off instead of
            // spinning (the timeout sweep below still makes progress).
            std::thread::sleep(Duration::from_millis(5));
        }
        ctx.hub.net.reactor_wakeups.fetch_add(1, Ordering::Relaxed);

        // Drain the inbox: new sockets, resolved-ticket hints, shutdown.
        let (new_conns, ready, drain_req) = {
            let mut inbox = ctx.shared.inbox.lock().expect("net inbox poisoned");
            (std::mem::take(&mut inbox.new_conns), std::mem::take(&mut inbox.ready), inbox.drain)
        };
        if drain_req && !draining {
            draining = true;
            for conn in conns.iter_mut().flatten() {
                // Equivalent of the old half-close: frames not yet decoded
                // are discarded, everything already admitted is answered.
                conn.reading = false;
                conn.rbuf = Vec::new();
            }
        }
        for stream in new_conns {
            if draining {
                continue; // dropped: a straggler past the stop flag
            }
            register(&mut conns, &mut free, stream, &ctx);
        }

        // Readiness events, then resolved-ticket hints. Stale tokens are
        // harmless: a replaced slot just gets a spurious pump/flush.
        for ev in &events {
            if ev.token == WAKER_TOKEN {
                continue;
            }
            service_counted(
                &mut conns,
                &mut free,
                ev.token as usize,
                ev.readable,
                &ctx,
                &mut waiting,
            );
        }
        for token in ready {
            service_counted(&mut conns, &mut free, token as usize, false, &ctx, &mut waiting);
        }

        // Timeout tick (and every drain round): sweep everything — the
        // safety net against a lost wake, and the drain's progress engine.
        if events.is_empty() || draining {
            for idx in 0..conns.len() {
                service_counted(&mut conns, &mut free, idx, false, &ctx, &mut waiting);
            }
        }
        if draining && conns.iter().all(Option::is_none) {
            return;
        }
    }
}

/// Registers an accepted socket under a slab token.
fn register(conns: &mut Vec<Option<Conn>>, free: &mut Vec<usize>, stream: TcpStream, ctx: &IoCtx) {
    let fd = sys::sock_fd(&stream);
    let idx = free.pop().unwrap_or_else(|| {
        conns.push(None);
        conns.len() - 1
    });
    let token = idx as u64;
    if token == WAKER_TOKEN || ctx.poller.add(fd, token, true, false).is_err() {
        free.push(idx);
        return; // dropping the stream closes it
    }
    ctx.hub.net.connections_opened.fetch_add(1, Ordering::Relaxed);
    ctx.hub.net.connections_open.fetch_add(1, Ordering::Relaxed);
    let shared = Arc::clone(&ctx.shared);
    let notify_fn: Arc<dyn Fn() + Send + Sync> = Arc::new(move || shared.notify_ready(token));
    conns[idx] = Some(Conn {
        stream,
        fd,
        token,
        rbuf: Vec::new(),
        reading: true,
        pending: VecDeque::new(),
        wq: VecDeque::new(),
        wq_bytes: 0,
        woff: 0,
        spare: Vec::new(),
        intr: (true, false),
        notify_fn,
        dead: false,
    });
}

/// [`service`] plus bookkeeping for the reactor's O(1) busy test: every
/// mutation of a connection's pending FIFO happens inside `service` (frame
/// decode pushes, pump pops, teardown drops the slot), so the before/after
/// delta here keeps `waiting` exact without ever scanning the slab.
fn service_counted(
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    idx: usize,
    readable: bool,
    ctx: &IoCtx,
    waiting: &mut usize,
) {
    let pending = |conns: &[Option<Conn>]| {
        conns.get(idx).and_then(Option::as_ref).is_some_and(|c| !c.pending.is_empty())
    };
    let before = pending(conns);
    service(conns, free, idx, readable, ctx);
    match (before, pending(conns)) {
        (false, true) => *waiting += 1,
        (true, false) => *waiting -= 1,
        _ => {}
    }
}

/// Advances one connection's state machine: read if the event said so,
/// answer whatever resolved, flush, and reap it when finished.
fn service(
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    idx: usize,
    readable: bool,
    ctx: &IoCtx,
) {
    let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
        return;
    };
    if readable && conn.reading && !conn.dead {
        read_ready(conn, ctx);
    }
    pump(conn, ctx);
    flush(conn, ctx);
    if conn.finished() {
        ctx.poller.delete(conn.fd);
        ctx.hub.net.connections_open.fetch_add(-1, Ordering::Relaxed);
        conns[idx] = None;
        free.push(idx);
    } else {
        set_interest(conn, ctx);
    }
}

/// Pulls whatever the socket has (bounded per event for fairness) and
/// decodes complete frames off the buffer's front.
fn read_ready(conn: &mut Conn, ctx: &IoCtx) {
    let mut chunk = [0u8; READ_CHUNK];
    for _ in 0..READ_ROUNDS {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                // EOF: answer what was admitted, flush, close.
                conn.reading = false;
                break;
            }
            Ok(n) => {
                ctx.hub.net.read_syscalls.fetch_add(1, Ordering::Relaxed);
                ctx.hub.net.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                conn.rbuf.extend_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    break; // socket drained
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    let mut at = 0usize;
    while conn.reading {
        match wire::decode_frame(&conn.rbuf[at..]) {
            Ok(FrameStatus::Frame { msg, used }) => {
                at += used;
                handle_message(conn, ctx, msg);
            }
            Ok(FrameStatus::NeedMore(_)) => break,
            Err(e) => {
                // Best-effort error report, then close: a peer that sends
                // garbage cannot be resynchronized mid-stream.
                ctx.hub.net.malformed.fetch_add(1, Ordering::Relaxed);
                if e.is_checksum_mismatch() {
                    ctx.hub.net.checksum_failures.fetch_add(1, Ordering::Relaxed);
                }
                let WireError::Malformed(mut m) = e else { unreachable!("decode_frame is pure") };
                wire::clip_msg(&mut m);
                conn.pending.push_back(PendingOut::Reject {
                    req_id: 0,
                    code: RejectCode::Malformed,
                    msg: m,
                });
                conn.reading = false;
            }
        }
    }
    if !conn.reading {
        conn.rbuf = Vec::new();
    } else if at > 0 {
        conn.rbuf.drain(..at);
        if conn.rbuf.is_empty() && conn.rbuf.capacity() > 16 * 1024 {
            // Don't park a burst's buffer on a connection going idle —
            // 10k held connections must stay cheap.
            conn.rbuf = Vec::new();
        }
    }
}

/// One decoded client frame: validate, submit or queue the obligation.
fn handle_message(conn: &mut Conn, ctx: &IoCtx, msg: Message) {
    ctx.hub.net.frames_in.fetch_add(1, Ordering::Relaxed);
    match msg {
        Message::Request { req_id, op, rows, cols, data } => {
            handle_request(conn, ctx, req_id, &op, rows, cols, data);
        }
        Message::ListOps => conn.pending.push_back(PendingOut::Ops),
        Message::Stats => {
            ctx.hub.net.stats_queries.fetch_add(1, Ordering::Relaxed);
            conn.pending.push_back(PendingOut::Stats);
        }
        Message::History { max_points } => {
            ctx.hub.net.history_queries.fetch_add(1, Ordering::Relaxed);
            conn.pending.push_back(PendingOut::History { max: max_points });
        }
        Message::SlowLog { max } => {
            ctx.hub.net.slowlog_queries.fetch_add(1, Ordering::Relaxed);
            conn.pending.push_back(PendingOut::SlowLog { max });
        }
        // Model-fleet admin verbs run inline on the reactor thread: a load
        // briefly stalls this thread's other connections (artifact read +
        // compile) but never drops a request — everything already admitted
        // keeps its ticket, and the other io threads keep serving.
        Message::LoadModel { name, path } => {
            conn.pending.push_back(handle_load_model(ctx, &name, &path));
        }
        Message::UnloadModel { name, version } => {
            conn.pending.push_back(match ctx.client.registry().unload_model(&name, version) {
                Ok(out) => PendingOut::Ready(Message::ModelUnloaded {
                    name,
                    version: out.version,
                    ops_retired: out.ops_retired as u32,
                }),
                Err(e) => refused(e.to_string()),
            });
        }
        Message::ListModels => {
            let models = ctx
                .client
                .registry()
                .models()
                .into_iter()
                .map(|m| wire::ModelInfo {
                    name: m.name,
                    version: m.version,
                    live: m.live,
                    mem_bytes: m.mem_bytes,
                    ops: m.ops as u32,
                    inflight: m.inflight as u32,
                    completed: m.completed,
                })
                .collect();
            conn.pending.push_back(PendingOut::Ready(Message::ModelList(models)));
        }
        _ => {
            // Server-to-client kinds arriving at the server violate the
            // protocol just like garbage bytes do.
            ctx.hub.net.malformed.fetch_add(1, Ordering::Relaxed);
            conn.pending.push_back(PendingOut::Reject {
                req_id: 0,
                code: RejectCode::Malformed,
                msg: "unexpected server-to-client frame".into(),
            });
            conn.reading = false;
        }
    }
}

fn handle_request(
    conn: &mut Conn,
    ctx: &IoCtx,
    req_id: u64,
    op_name: &str,
    rows: u32,
    cols: u16,
    data: Vec<f32>,
) {
    let _span = span!("net.request");
    // The request's admission stamp: taken once here (where `try_submit`
    // used to read the clock internally — same read count) so the queue
    // phase starts at frame decode, not after validation.
    let t0 = Instant::now();
    // One snapshot for the whole request: the name resolves, the reply caps
    // are read and the admission happens against the same table, so a
    // republish landing mid-request cannot refuse a name that was live when
    // it arrived — the request runs on the version it resolved to.
    let snap = ctx.client.registry().snapshot();
    let live = snap.resolve(op_name).and_then(|id| Some((id, snap.slot(id)?.op.as_ref()?)));
    let Some((op, compiled)) = live else {
        conn.pending.push_back(PendingOut::Reject {
            req_id,
            code: RejectCode::UnknownOp,
            msg: format!("no op named '{op_name}'"),
        });
        return;
    };
    // The reply must be encodable too: a request can satisfy every decode
    // cap while `m × cols` blows the frame budget (large-`m` ops). Reject
    // up front — the reply path's encode asserts must stay unreachable.
    let m = compiled.output_size();
    let reply_values = m.saturating_mul(cols as usize);
    if m > wire::MAX_ROWS || reply_values.saturating_mul(4) + wire::HEADER_LEN > wire::MAX_BODY {
        conn.pending.push_back(PendingOut::Reject {
            req_id,
            code: RejectCode::ShapeMismatch,
            msg: format!("reply {m}x{cols} exceeds the frame caps; send fewer columns"),
        });
        return;
    }
    let x = biq_matrix::ColMatrix::from_vec(rows as usize, cols as usize, data);
    // `try_submit_in` (not `submit`): a full queue must become an
    // explicit Busy frame, not a reactor thread blocked on the submit
    // queue. The notify guard wakes this thread once the reply lands.
    let notify = ReplyNotify(Arc::clone(&conn.notify_fn));
    match ctx.client.try_submit_in(&snap, op, x, t0, notify) {
        Ok(ticket) => conn.pending.push_back(PendingOut::Ticket { req_id, ticket }),
        Err(e) => conn.pending.push_back(PendingOut::Reject {
            req_id,
            code: reject_code(&e),
            msg: e.to_string(),
        }),
    }
}

/// An admin-verb failure: `Reject(code = Refused)` with `req_id = 0`,
/// connection stays open (unlike protocol violations).
fn refused(mut msg: String) -> PendingOut {
    wire::clip_msg(&mut msg);
    PendingOut::Reject { req_id: 0, code: RejectCode::Refused, msg }
}

/// The `LoadModel` verb: reads the BIQM artifact from the **daemon's**
/// filesystem at `path` (the operator ships bytes out of band; the frame
/// carries a path, never a multi-megabyte payload), then loads or swaps it
/// in the live registry.
fn handle_load_model(ctx: &IoCtx, name: &str, path: &str) -> PendingOut {
    let artifact = match biq_artifact::Artifact::open(std::path::Path::new(path)) {
        Ok(a) => a,
        Err(e) => return refused(format!("open '{path}': {e}")),
    };
    match ctx.client.registry().load_model(name, &artifact) {
        Ok(out) => PendingOut::Ready(Message::ModelLoaded {
            name: name.to_string(),
            version: out.version,
            mem_bytes: out.mem_bytes,
            ops: out.ops.len() as u32,
            evicted: out.evicted.into_iter().map(|(n, v)| format!("{n}@{v}")).collect(),
        }),
        Err(e) => refused(e.to_string()),
    }
}

/// Maps a serving error onto its wire code.
fn reject_code(e: &ServeError) -> RejectCode {
    match e {
        ServeError::Busy => RejectCode::Busy,
        ServeError::ShuttingDown => RejectCode::ShuttingDown,
        ServeError::UnknownOp => RejectCode::UnknownOp,
        ServeError::ShapeMismatch { .. } => RejectCode::ShapeMismatch,
        ServeError::Canceled => RejectCode::Canceled,
    }
}

/// Converts resolved obligations at the FIFO head into encoded frames on
/// the write queue. Stops at the first still-in-flight ticket — replies
/// stay in submission order per connection.
fn pump(conn: &mut Conn, ctx: &IoCtx) {
    while !conn.dead {
        // Backpressure: a peer not draining its replies must not buffer
        // unbounded frames server-side. (Checked before each encode, so a
        // single over-cap frame on an empty queue still goes out.)
        if conn.wq_bytes > ctx.max_write_queue {
            conn.dead = true;
            return;
        }
        let resolved = match conn.pending.front() {
            None => return,
            Some(PendingOut::Ticket { ticket, .. }) => match ticket.try_wait_full() {
                None => return, // in flight; ReplyNotify will wake us
                Some(r) => Some(r),
            },
            Some(_) => None,
        };
        // First of the two clock reads attribution adds on the reactor
        // (socket-bound, off the kernel hot path): the ticket phase ends
        // where the reactor observes the resolved reply.
        let wait_end = Instant::now();
        let item = conn.pending.pop_front().expect("front checked above");
        let mut buf = conn.take_spare();
        let mut rec = None;
        match (item, resolved) {
            (PendingOut::Ticket { req_id, .. }, Some(Ok(a))) => {
                wire::encode_reply_into(
                    &mut buf,
                    req_id,
                    a.matrix.rows() as u32,
                    a.matrix.cols() as u16,
                    a.matrix.as_slice(),
                );
                rec = Some((req_id, a.lap, wait_end));
            }
            (PendingOut::Ticket { .. }, None) => {
                unreachable!("ticket resolution checked before pop")
            }
            (PendingOut::Ticket { req_id, .. }, Some(Err(e))) => {
                let code = reject_code(&e);
                if code == RejectCode::Busy {
                    ctx.hub.net.busy_rejects.fetch_add(1, Ordering::Relaxed);
                }
                wire::encode_into(&mut buf, &Message::Reject { req_id, code, msg: e.to_string() });
            }
            (PendingOut::Reject { req_id, code, msg }, _) => {
                if code == RejectCode::Busy {
                    ctx.hub.net.busy_rejects.fetch_add(1, Ordering::Relaxed);
                }
                wire::encode_into(&mut buf, &Message::Reject { req_id, code, msg });
            }
            (PendingOut::Ready(msg), _) => {
                wire::encode_into(&mut buf, &msg);
            }
            (PendingOut::Ops, _) => {
                // Built from the live snapshot at answer time — the op
                // table changes whenever a model loads, swaps, or retires.
                // Capped at the wire's list cap like the samples below.
                let snap = ctx.client.registry().snapshot();
                let ops: Vec<OpInfo> = snap
                    .live()
                    .take(wire::MAX_OPS)
                    .map(|(_, s)| OpInfo {
                        name: s.meta.name.clone(),
                        m: s.meta.m as u32,
                        n: s.meta.n as u32,
                    })
                    .collect();
                wire::encode_into(&mut buf, &Message::OpList(ops));
            }
            (PendingOut::Stats, _) => {
                // Answered from counters alone — no worker, no submit
                // queue. Truncation below the wire cap is defensive; the
                // sample count is ~10 per op plus a fixed transport set.
                let mut samples = ctx.hub.snapshot().samples;
                samples.truncate(wire::MAX_SAMPLES);
                wire::encode_into(&mut buf, &Message::StatsReply(samples));
            }
            (PendingOut::History { max }, _) => {
                let n =
                    if max == 0 { wire::MAX_POINTS } else { (max as usize).min(wire::MAX_POINTS) };
                let mut points = ctx.hub.series.recent(n);
                points.iter_mut().for_each(|p| p.ops.truncate(wire::MAX_POINT_OPS));
                wire::encode_into(&mut buf, &Message::HistoryReply(points));
            }
            (PendingOut::SlowLog { max }, _) => {
                let n = if max == 0 { wire::MAX_SLOW } else { (max as usize).min(wire::MAX_SLOW) };
                wire::encode_into(&mut buf, &Message::SlowLogReply(ctx.hub.serve.slow_hits(n)));
            }
        }
        conn.wq_bytes += buf.len();
        conn.wq.push_back(WBuf { buf, rec });
        ctx.hub.net.write_queue_depth.record(conn.wq.len() as u64);
    }
}

/// Drains the write queue with vectored writes: one syscall carries up to
/// [`WRITE_BATCH`] queued frames. Lifecycle records are finalized when
/// their frame's last byte is accepted by the socket.
fn flush(conn: &mut Conn, ctx: &IoCtx) {
    if conn.dead || conn.wq.is_empty() {
        return;
    }
    let _span = span!("net.write");
    // Second added clock read, shared by every frame this flush completes
    // (they hit the socket microseconds apart; one read is the cheaper,
    // equally-faithful stamp).
    let mut write_end: Option<Instant> = None;
    'writing: while !conn.wq.is_empty() {
        let n = {
            let mut slices = [IoSlice::new(&[]); WRITE_BATCH];
            let mut count = 0usize;
            for (i, w) in conn.wq.iter().enumerate().take(WRITE_BATCH) {
                slices[count] = IoSlice::new(if i == 0 { &w.buf[conn.woff..] } else { &w.buf });
                count += 1;
            }
            match (&conn.stream).write_vectored(&slices[..count]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break 'writing,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue 'writing,
                Err(_) => {
                    // The peer is gone: stop writing. Still-pending tickets
                    // drain harmlessly (their reply senders just error).
                    conn.dead = true;
                    return;
                }
            }
        };
        ctx.hub.net.write_syscalls.fetch_add(1, Ordering::Relaxed);
        ctx.hub.net.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
        let mut rem = n;
        while rem > 0 {
            let front_left = conn.wq.front().expect("bytes imply a frame").buf.len() - conn.woff;
            if rem < front_left {
                conn.woff += rem;
                break;
            }
            rem -= front_left;
            let w = conn.wq.pop_front().expect("front exists");
            conn.wq_bytes -= w.buf.len();
            conn.woff = 0;
            ctx.hub.net.frames_out.fetch_add(1, Ordering::Relaxed);
            if let Some((req_id, lap, wait_end)) = w.rec {
                let end = *write_end.get_or_insert_with(Instant::now);
                ctx.hub.serve.sink().offer(&RequestRecord::from_timeline(
                    req_id,
                    lap.op,
                    lap.cols,
                    lap.enqueued_ns,
                    lap.pushed_ns,
                    lap.dispatched_ns,
                    lap.done_ns,
                    biq_obs::trace::instant_ns(wait_end),
                    biq_obs::trace::instant_ns(end),
                ));
            }
            conn.recycle(w.buf);
        }
    }
}

/// Syncs the poller's interest set with what the connection can act on.
fn set_interest(conn: &mut Conn, ctx: &IoCtx) {
    let want = (conn.reading, !conn.wq.is_empty());
    if want != conn.intr {
        if ctx.poller.modify(conn.fd, conn.token, want.0, want.1).is_err() {
            conn.dead = true;
            return;
        }
        conn.intr = want;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::server::ServerConfig;

    #[test]
    fn net_samples_keep_their_names_kinds_and_order() {
        let server = Server::start(ModelRegistry::new(), ServerConfig::default());
        let net = NetServer::bind("127.0.0.1:0", server).unwrap();
        let samples = net.metrics().samples;
        // The transport block sits whole between the serve samples and the
        // trace-health samples.
        let net_at: Vec<usize> =
            (0..samples.len()).filter(|&i| samples[i].name.starts_with("biq_net_")).collect();
        let first_trace = samples.iter().position(|s| s.name.starts_with("biq_trace_")).unwrap();
        assert!(net_at[0] > 0, "serve samples come first");
        assert_eq!(net_at.last().unwrap() + 1, first_trace, "trace health follows");
        assert_eq!(net_at.last().unwrap() - net_at[0] + 1, net_at.len(), "one contiguous block");
        let net_samples: Vec<(String, &str, bool)> = samples
            .iter()
            .filter(|s| s.name.starts_with("biq_net_"))
            .map(|s| (s.name.clone(), s.value.kind(), s.labels.is_empty()))
            .collect();
        let expected = [
            ("biq_net_frames_in_total", "counter"),
            ("biq_net_frames_out_total", "counter"),
            ("biq_net_bytes_in_total", "counter"),
            ("biq_net_bytes_out_total", "counter"),
            ("biq_net_checksum_failures_total", "counter"),
            ("biq_net_malformed_total", "counter"),
            ("biq_net_busy_rejects_total", "counter"),
            ("biq_net_connections_opened_total", "counter"),
            ("biq_net_connections_open", "gauge"),
            ("biq_net_stats_queries_total", "counter"),
            ("biq_net_history_queries_total", "counter"),
            ("biq_net_slowlog_queries_total", "counter"),
            ("biq_net_reactor_wakeups_total", "counter"),
            ("biq_net_read_syscalls_total", "counter"),
            ("biq_net_write_syscalls_total", "counter"),
            ("biq_net_write_queue_depth", "histogram"),
        ]
        .map(|(name, kind)| (name.to_string(), kind, true));
        assert_eq!(net_samples, expected);
        net.shutdown();
    }
}
