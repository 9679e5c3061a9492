//! `serve_remote_open` — the whole stack over the wire. In-process
//! `NetServer::bind("127.0.0.1:0")` at shipped defaults, booted from the
//! encoder's artifact. **Open loop**: seeded Poisson arrivals at a fixed,
//! frozen rate; 2 generator threads, each owning one pipelined BIQP
//! connection driven through the public `wire` functions; latency is timed
//! from each request's *due* time. A steady phase gives the end-to-end
//! numbers; a following swap phase at the same rate hot-swaps the
//! traffic-bearing model once per second over the admin verb and contributes
//! only failures and per-layer numbers.
//!
//! Why it exists: wire decode, reactor, batch window and ticket/`writev` do
//! most of the work here and the kernel a small share — net and batcher
//! changes show on this workload and nowhere above.

use super::serve_common::{
    monitor, push_config, put_serve_metrics, Accept, Counters, ServeFixture, ServePhase, MODEL_NAME,
};
use crate::alloc;
use crate::host;
use crate::measure::{
    median_per_call_us, put_host, put_p99, put_setup_times, repeat_setup, RunArgs, Samples,
};
use crate::params::{
    GENERATORS, MAX_LATE_SHARE, REMOTE, REMOTE_RATE_PER_S, REMOTE_STEADY_SHARE, REPLY_TIMEOUT_S,
    SERVE_WARMUP_REQUESTS, SWAP_PERIOD_S,
};
use crate::report::{Provenance, Row};
use crate::span::{write_trace, SpanLog};
use crate::stats::{median, poisson_schedule, quantile, quantile_sorted, SplitMix64};
use crate::sys;
use biq_serve::net::wire::{self, FrameStatus, Message};
use biq_serve::net::RejectCode;
use biq_serve::{NetClient, NetServer, OpId, Server, ServerConfig, Ticket};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    /// Seconds after the phase start at which the request is due.
    due_s: f64,
    op: usize,
    input: usize,
}

/// Generator `g`'s share of the arrival process: an independent Poisson
/// stream at `rate / GENERATORS` (their superposition is Poisson at `rate`).
fn schedule(fx: &ServeFixture, seed: u64, g: usize, duration_s: f64) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37).wrapping_add(g as u64));
    poisson_schedule(&mut rng, REMOTE_RATE_PER_S / GENERATORS as f64, duration_s)
        .into_iter()
        .map(|due_s| {
            let (op, input) = fx.draw(&mut rng);
            Arrival { due_s, op, input }
        })
        .collect()
}

struct Booted {
    fx: ServeFixture,
    net: Option<NetServer>,
    addr: SocketAddr,
    streams: Vec<TcpStream>,
}

impl Drop for Booted {
    fn drop(&mut self) {
        self.streams.clear();
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
    }
}

fn setup(args: &RunArgs) -> Booted {
    let t_start = Instant::now();
    let mut fx = ServeFixture::build(args);
    let (registry, _model, _ids) = fx.boot_registry();
    let server = Server::start(registry, ServerConfig::default());
    let net = NetServer::bind("127.0.0.1:0", server).expect("bind loopback");
    let addr = net.local_addr();
    let mut streams: Vec<TcpStream> = (0..GENERATORS)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect loopback");
            s.set_nodelay(true).expect("nodelay");
            s
        })
        .collect();
    // Warm-up over the wire, windows of 8 per connection: worker arenas,
    // connection buffers and the reactor's recycled frames reach steady size.
    let mut rng = SplitMix64::new(args.seed ^ 0x55);
    let mut frame = Vec::new();
    for stream in &mut streams {
        for _ in 0..SERVE_WARMUP_REQUESTS / GENERATORS / 8 {
            let window: Vec<(usize, usize)> = (0..8).map(|_| fx.draw(&mut rng)).collect();
            for (i, &(op, input)) in window.iter().enumerate() {
                let x = &fx.inputs[op][input];
                wire::encode_request_into(
                    &mut frame,
                    i as u64,
                    &fx.ops[op].name,
                    x.rows() as u32,
                    1,
                    x.as_slice(),
                );
                stream.write_all(&frame).expect("warm-up send");
            }
            for &(op, input) in &window {
                let ok = matches!(wire::read_message(stream), Ok(Message::Reply { data, .. })
                    if fx.reply_correct(op, input, &data, Accept::OnlyA));
                fx.oracle_ok &= ok;
            }
        }
    }
    fx.times.total_s = t_start.elapsed().as_secs_f64();
    Booted { fx, net: Some(net), addr, streams }
}

#[derive(Default)]
struct GenOut {
    /// `(due_s, µs from due to verified reply)` of correct replies.
    samples: Samples,
    /// µs each request was sent after it was due.
    late_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Requests resent after a swap-race `UnknownOp` reject.
    swap_retries: u64,
    /// What went wrong, by kind (reject code, wrong bits, …).
    failures: BTreeMap<String, u64>,
    /// Whether the thread ran at real-time priority.
    realtime: bool,
}

/// One open-loop generator over one connection. Sends every arrival at its
/// due time (never waiting for replies), reads replies as they come,
/// verifies each. Requests due at or after `b_from_s` may be answered by
/// either model version.
fn generate(
    stream: &mut TcpStream,
    fx: &ServeFixture,
    sched: &[Arrival],
    t0: Instant,
    b_from_s: f64,
    log: &mut SpanLog,
    flip_one: bool,
) -> GenOut {
    sys::set_timer_slack(1_000);
    let mut out = GenOut {
        samples: Samples::with_capacity(sched.len()),
        realtime: sys::realtime(),
        ..GenOut::default()
    };
    out.late_us.reserve(sched.len());
    // (arrival index, already resent once)
    let mut inflight: VecDeque<(usize, bool)> = VecDeque::with_capacity(1024);
    let mut frame: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut rbuf: Vec<u8> = Vec::with_capacity(256 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let mut last_send = t0;
    'run: loop {
        // Send everything that is due.
        while next < sched.len() {
            let a = sched[next];
            let now = Instant::now();
            let now_s = now.duration_since(t0).as_secs_f64();
            if a.due_s > now_s {
                break;
            }
            let x = &fx.inputs[a.op][a.input];
            log.enter("net.encode_request", next as u64);
            wire::encode_request_into(
                &mut frame,
                next as u64 + 1,
                &fx.ops[a.op].name,
                x.rows() as u32,
                1,
                x.as_slice(),
            );
            log.exit();
            log.enter("net.send", next as u64);
            let sent = stream.write_all(&frame);
            log.exit();
            out.attempted += 1;
            out.late_us.push((now_s - a.due_s) * 1e6);
            if sent.is_err() {
                break 'run;
            }
            inflight.push_back((next, false));
            last_send = now;
            next += 1;
        }
        if next == sched.len() && inflight.is_empty() {
            break;
        }
        // Sleep until the next arrival is due or a reply is readable.
        let wait = if next < sched.len() {
            Duration::from_secs_f64(sched[next].due_s).saturating_sub(t0.elapsed())
        } else {
            let left = Duration::from_secs_f64(REPLY_TIMEOUT_S).saturating_sub(last_send.elapsed());
            if left.is_zero() {
                break; // whatever is still in flight timed out
            }
            left
        };
        if !sys::wait_readable(Some(stream), wait) {
            continue;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        rbuf.extend_from_slice(&chunk[..n]);
        let mut at = 0usize;
        loop {
            log.enter("net.decode_frame", 0);
            let status = wire::decode_frame(&rbuf[at..]);
            log.exit();
            let (msg, used) = match status {
                Ok(FrameStatus::Frame { msg, used }) => (msg, used),
                Ok(FrameStatus::NeedMore(_)) => break,
                Err(_) => break 'run,
            };
            at += used;
            let Some((idx, resent)) = inflight.pop_front() else { break 'run };
            let a = sched[idx];
            let done = Instant::now();
            let verdict = match msg {
                Message::Reply { req_id, mut data, .. } if req_id == idx as u64 + 1 => {
                    if flip_one && idx == 3 {
                        data[0] = f32::from_bits(data[0].to_bits() ^ 1);
                    }
                    let accept = if a.due_s >= b_from_s { Accept::AOrB } else { Accept::OnlyA };
                    if fx.reply_correct(a.op, a.input, &data, accept) {
                        Ok(())
                    } else {
                        Err("wrong result".to_string())
                    }
                }
                // A request that races a republish can resolve its bare op
                // name to the outgoing version and be refused `UnknownOp` at
                // admission (seen about once per few hundred swaps on the
                // seed commit). A client of a fleet that swaps models resends
                // such a request; so does this one, once, still timing from
                // the original due time, and counts it.
                Message::Reject { code: RejectCode::UnknownOp, .. }
                    if a.due_s >= b_from_s && !resent =>
                {
                    let x = &fx.inputs[a.op][a.input];
                    wire::encode_request_into(
                        &mut frame,
                        idx as u64 + 1,
                        &fx.ops[a.op].name,
                        x.rows() as u32,
                        1,
                        x.as_slice(),
                    );
                    if stream.write_all(&frame).is_err() {
                        break 'run;
                    }
                    inflight.push_back((idx, true));
                    out.swap_retries += 1;
                    continue;
                }
                Message::Reject { code, .. } => Err(format!("rejected: {}", code.name())),
                _ => Err("frame out of order".to_string()),
            };
            let ok = verdict.is_ok();
            if let Err(kind) = verdict {
                *out.failures.entry(kind).or_default() += 1;
            }
            let due = t0 + Duration::from_secs_f64(a.due_s);
            if ok {
                out.samples
                    .push(a.due_s, done.saturating_duration_since(due).as_nanos() as f64 / 1e3);
                log.record("net.request due->reply", due, done, idx as u64);
            } else {
                out.failed += 1;
            }
        }
        rbuf.drain(..at);
    }
    // Sent but never (correctly) answered: failed. Never sent: not attempted.
    out.failed += inflight.len() as u64;
    if !inflight.is_empty() {
        *out.failures.entry("unanswered".to_string()).or_default() += inflight.len() as u64;
    }
    out
}

/// The swap phase's writer: from `start_s` to `end_s` after `t0`, once per
/// [`SWAP_PERIOD_S`], republishes the model over the `LoadModel` admin verb,
/// alternating the two artifacts. Returns each swap's round trip in ms and
/// how many were refused.
fn swapper(
    addr: SocketAddr,
    fx: &ServeFixture,
    t0: Instant,
    start_s: f64,
    end_s: f64,
) -> (Vec<f64>, u64) {
    let mut admin = NetClient::connect(addr).expect("connect admin");
    let (mut ms, mut refused) = (Vec::new(), 0u64);
    let mut k = 0u32;
    loop {
        let at_s = start_s + SWAP_PERIOD_S * (f64::from(k) + 0.5);
        if at_s >= end_s {
            return (ms, refused);
        }
        std::thread::sleep(Duration::from_secs_f64(at_s).saturating_sub(t0.elapsed()));
        let path = if k.is_multiple_of(2) { &fx.artifact_b } else { &fx.artifact_a };
        let t = Instant::now();
        match admin.load_model(MODEL_NAME, &path.to_string_lossy()) {
            Ok(_) => ms.push(t.elapsed().as_secs_f64() * 1e3),
            Err(_) => refused += 1,
        }
        k += 1;
    }
}

impl PhaseOut {
    /// The generators' scheduling class, for the provenance header.
    fn generator_sched(&self) -> &'static str {
        if self.gens.iter().all(|g| g.realtime) {
            "fifo"
        } else {
            "other"
        }
    }
}

struct PhaseOut {
    gens: Vec<GenOut>,
    logs: Vec<SpanLog>,
    swaps_ms: Vec<f64>,
    swaps_refused: u64,
    wall_s: f64,
}

/// Runs the generators for `steady_s + swap_s` on one contiguous schedule;
/// the swapper is active in the last `swap_s`.
fn run_phase(
    b: &mut Booted,
    args: &RunArgs,
    steady_s: f64,
    swap_s: f64,
    traced: bool,
    salt: u64,
) -> PhaseOut {
    let total_s = steady_s + swap_s;
    let fx = &b.fx;
    let scheds: Vec<Vec<Arrival>> =
        (0..GENERATORS).map(|g| schedule(fx, args.seed.wrapping_add(salt), g, total_s)).collect();
    let mut logs: Vec<SpanLog> = scheds
        .iter()
        .enumerate()
        .map(|(g, s)| SpanLog::new(traced, g as u32, s.len() * 8 + 64))
        .collect();
    let addr = b.addr;
    // Swapped-in answers become acceptable a little before the first swap
    // is issued: a request due just before it can be admitted just after.
    let b_from_s = if swap_s > 0.0 { steady_s } else { f64::INFINITY };
    let t0 = Instant::now() + Duration::from_millis(2);
    let (gens, (swaps_ms, swaps_refused)) = std::thread::scope(|scope| {
        let handles: Vec<_> = b
            .streams
            .iter_mut()
            .zip(&scheds)
            .zip(logs.iter_mut())
            .enumerate()
            .map(|(g, ((stream, sched), log))| {
                let flip = args.flip_one && g == 0;
                scope.spawn(move || generate(stream, fx, sched, t0, b_from_s, log, flip))
            })
            .collect();
        let swaps =
            if swap_s > 0.0 { swapper(addr, fx, t0, steady_s, total_s) } else { (Vec::new(), 0) };
        (
            handles.into_iter().map(|h| h.join().expect("generator thread")).collect::<Vec<_>>(),
            swaps,
        )
    });
    PhaseOut { gens, logs, swaps_ms, swaps_refused, wall_s: t0.elapsed().as_secs_f64() }
}

/// Adds a `failures=` provenance entry naming what failed, when anything did.
fn note_failures(row: &mut Row, out: &PhaseOut) {
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    for g in &out.gens {
        for (k, n) in &g.failures {
            *kinds.entry(k).or_default() += n;
        }
    }
    if out.swaps_refused > 0 {
        kinds.insert("swap refused", out.swaps_refused);
    }
    let retries: u64 = out.gens.iter().map(|g| g.swap_retries).sum();
    if retries > 0 {
        row.provenance
            .push(("notes".into(), format!("swap-race UnknownOp rejects resent: {retries}")));
    }
    if !kinds.is_empty() {
        let text: Vec<String> = kinds.iter().map(|(k, n)| format!("{k} x{n}")).collect();
        row.provenance.push(("notes".into(), format!("failures: {}", text.join(", "))));
    }
}

/// Samples of all generators whose due time lies in `[from_s, to_s)`.
fn window(gens: &[GenOut], from_s: f64, to_s: f64) -> Samples {
    let mut s = Samples::default();
    for g in gens {
        s.points.extend(g.samples.points.iter().filter(|p| p.0 >= from_s && p.0 < to_s));
    }
    s
}

/// How late the generators ran: `(p50 µs, p99 µs, share sent > 100 µs late, n)`.
fn lateness(gens: &[GenOut]) -> (f64, f64, f64, u64) {
    let mut late: Vec<f64> = gens.iter().flat_map(|g| g.late_us.iter().copied()).collect();
    let n = late.len() as u64;
    let share = late.iter().filter(|&&us| us > 100.0).count() as f64 / n.max(1) as f64;
    (quantile(&mut late, 0.5), quantile_sorted(&late, 0.99), share, n)
}

/// Marks the run invalid when the generator could not hold its schedule:
/// its lateness at the median or in the tail exceeds
/// [`MAX_LATE_SHARE`] of the op latency at the same quantile. Latency timed
/// from the due time already contains the lateness, but a late generator is
/// also a gentler arrival process than the one frozen.
fn judge_generator(row: &mut Row, gens: &[GenOut], steady: &Samples) {
    let (late_p50, late_p99, _, _) = lateness(gens);
    let mut v = steady.values();
    let (op_p50, op_p99) = (quantile(&mut v, 0.5), quantile_sorted(&v, 0.99));
    if late_p50 > MAX_LATE_SHARE * op_p50 || late_p99 > MAX_LATE_SHARE * op_p99 {
        row.provenance.push((
            "notes".into(),
            format!(
                "INVALID: generator lateness p50/p99 {late_p50:.0}/{late_p99:.0}us exceeds {:.0}% of op latency p50/p99 {op_p50:.0}/{op_p99:.0}us",
                MAX_LATE_SHARE * 100.0
            ),
        ));
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs, provenance: Provenance) -> Row {
    let (mut booted, setup_s) = repeat_setup(args.setup_repeats, || setup(args));
    let mut row = Row::new(REMOTE, args.traced, provenance);
    push_config(&mut row.provenance, &booted.fx, true);
    row.provenance.push(("arrival_rate_per_s".into(), REMOTE_RATE_PER_S.to_string()));
    row.provenance.push(("connections".into(), GENERATORS.to_string()));
    row.correct = booted.fx.oracle_ok;
    if args.traced {
        traced(args, &mut booted, &mut row);
    } else {
        let steady_s = args.seconds * REMOTE_STEADY_SHARE;
        let swap_s = args.seconds - steady_s;
        row.provenance.push(("steady_s".into(), steady_s.to_string()));
        row.provenance.push(("swap_s".into(), swap_s.to_string()));
        let out = run_phase(&mut booted, args, steady_s, swap_s, false, 0);
        row.provenance.push(("generator_sched".into(), out.generator_sched().into()));
        note_failures(&mut row, &out);
        row.attempted = out.gens.iter().map(|g| g.attempted).sum();
        row.failed = out.gens.iter().map(|g| g.failed).sum::<u64>() + out.swaps_refused;
        let steady = window(&out.gens, 0.0, steady_s);
        row.put("setup_s", setup_s, args.setup_repeats as u64);
        steady.put_end_to_end(&mut row, None, steady_s);
        row.put("peak_rss_mib", host::peak_rss_mib(), 1);
        judge_generator(&mut row, &out.gens, &steady);
    }
    row
}

fn traced(args: &RunArgs, b: &mut Booted, row: &mut Row) {
    let s = args.seconds;
    let (control_s, traced_s, swap_s, replay_s) = (0.2 * s, 0.3 * s, 0.25 * s, 0.15 * s);
    row.provenance.push(("steady_s".into(), traced_s.to_string()));
    row.provenance.push(("swap_s".into(), swap_s.to_string()));

    // -- control segment: the steady phase, untraced.
    let control = run_phase(b, args, control_s, 0.0, false, 1);
    let control_steady = window(&control.gens, 0.0, control_s);
    let control_p50 = control_steady.p50();
    put_p99(row, &control_steady.values_in_time_order());
    let mut attempted: u64 = control.gens.iter().map(|g| g.attempted).sum();
    let mut failed: u64 = control.gens.iter().map(|g| g.failed).sum();

    // -- traced segment: steady then swap phase, benchmark spans on, the
    // program's own spans switched on and drained beside it.
    let stop = AtomicBool::new(false);
    let net = b.net.take().expect("server runs until drop");
    let before = (Counters::read(&net.stats()), net.metrics());
    biq_obs::set_tracing(true);
    alloc::arm();
    let stats = || net.stats();
    let (monitored, out) = std::thread::scope(|scope| {
        let mon = scope.spawn(|| monitor(&stats, &stop));
        let out = run_phase(b, args, traced_s, swap_s, true, 2);
        stop.store(true, Ordering::Release);
        (mon.join().expect("monitor thread"), out)
    });
    let allocs = alloc::disarm();
    biq_obs::set_tracing(false);
    let after = (Counters::read(&net.stats()), net.metrics());
    b.net = Some(net);
    row.provenance.push(("generator_sched".into(), out.generator_sched().into()));
    note_failures(row, &out);
    attempted += out.gens.iter().map(|g| g.attempted).sum::<u64>();
    failed += out.gens.iter().map(|g| g.failed).sum::<u64>() + out.swaps_refused;

    let steady = window(&out.gens, 0.0, traced_s);
    let swap = window(&out.gens, traced_s, traced_s + swap_s);
    let requests = (after.0.completed - before.0.completed).max(1) as f64;
    // Open loop: the schedule pins throughput, so tracing can only show in
    // latency.
    row.put_noted(
        "obs.trace_overhead_ratio",
        steady.p50() / control_p50,
        steady.len() as u64,
        "traced / untraced op_us_p50 (open loop: throughput is pinned by the schedule)",
    );
    let obs = &monitored.obs;
    let submit_ns: Vec<f64> = obs.durations_us("net.request").iter().map(|us| us * 1e3).collect();
    put_serve_metrics(
        row,
        ServePhase {
            before: before.0,
            after: after.0,
            wall_s: out.wall_s,
            monitored: &monitored,
            allocs,
            submit_ns,
            submit_note: "program span net.request: op lookup + Client::try_submit on the reactor",
            op_p50_us: steady.p50(),
        },
    );

    let mut swaps_ms = out.swaps_ms.clone();
    row.put("registry.swap_count", swaps_ms.len() as f64, 1);
    row.put_noted(
        "registry.swap_retries",
        out.gens.iter().map(|g| g.swap_retries).sum::<u64>() as f64,
        swaps_ms.len() as u64,
        "requests refused UnknownOp while racing a republish, resent once",
    );
    row.put_noted(
        "registry.swap_ms_p50",
        median(&mut swaps_ms),
        out.swaps_ms.len() as u64,
        "LoadModel admin verb round trip",
    );
    // The swap phase is where stalls are the signal: whole-phase p99.
    let (swap_tail, swap_note) = (quantile(&mut swap.values(), 0.99), "whole-phase p99");
    row.put_noted("serve.swap_phase_op_us_p99", swap_tail, swap.len() as u64, swap_note);

    let delta =
        |name: &str| after.1.counter_total(name) as f64 - before.1.counter_total(name) as f64;
    row.put(
        "net.frames_per_read",
        delta("biq_net_frames_in_total") / delta("biq_net_read_syscalls_total").max(1.0),
        requests as u64,
    );
    row.put(
        "net.frames_per_writev",
        delta("biq_net_frames_out_total") / delta("biq_net_write_syscalls_total").max(1.0),
        requests as u64,
    );
    row.put(
        "net.wakeups_per_req",
        delta("biq_net_reactor_wakeups_total") / requests,
        requests as u64,
    );
    row.put(
        "net.bytes_per_req",
        (delta("biq_net_bytes_in_total") + delta("biq_net_bytes_out_total")) / requests,
        requests as u64,
    );
    let mut write_us = obs.durations_us("net.write");
    let n_write = write_us.len() as u64;
    row.put("net.write_us_p50", median(&mut write_us), n_write);
    // The program has no ticket-wait span; from the spans it has, the wait
    // is the gap between a worker finishing a batch and the reactor starting
    // the next write (events arrive sorted by start time).
    let mut write_starts: Vec<u64> =
        obs.events().iter().filter(|e| e.name == "net.write").map(|e| e.start_ns).collect();
    write_starts.sort_unstable();
    let mut ticket_wait: Vec<f64> = obs
        .events()
        .iter()
        .filter(|e| e.name == "serve.batch")
        .filter_map(|e| {
            let end = e.start_ns + e.dur_ns;
            let i = write_starts.partition_point(|&w| w < end);
            write_starts.get(i).map(|w| (w - end) as f64 / 1e3)
        })
        .collect();
    let n_wait = ticket_wait.len() as u64;
    row.put_noted(
        "net.ticket_wait_us_p50",
        median(&mut ticket_wait),
        n_wait,
        "serve.batch end -> next net.write start",
    );

    let (_, late_p99, late_share, n_late) = lateness(&out.gens);
    row.put("gen.late_us_p99", late_p99, n_late);
    row.put_noted(
        "gen.late_share",
        late_share,
        n_late,
        "share of requests sent > 100 us after due",
    );
    judge_generator(row, &out.gens, &steady);

    // -- in-process control: the control segment's schedule replayed against
    // a `Server` of the same artifact with no sockets in between.
    let replay_p50 =
        replay_in_process(args, &b.fx, control_s.min(replay_s), &mut attempted, &mut failed);
    row.put_noted(
        "net.added_us_p50",
        control_p50 - replay_p50,
        control_steady.len() as u64,
        &format!("remote p50 {control_p50:.1} us - in-process replay p50 {replay_p50:.1} us, both untraced"),
    );

    // -- public wire calls on the 2 KiB and 8 KiB bodies the traffic uses.
    let part = (s - control_s - traced_s - swap_s - replay_s).max(0.05) / 3.0;
    let mut frame = Vec::new();
    let mut per_body = |floats: usize, reply: bool| -> (f64, u64) {
        let body = vec![0.5f32; floats];
        if reply {
            wire::encode_reply_into(&mut frame, 1, floats as u32, 1, &body);
            let bytes = frame.clone();
            median_per_call_us(part / 4.0, 20, || {
                std::hint::black_box(wire::decode_frame(&bytes).is_ok());
            })
        } else {
            median_per_call_us(part / 4.0, 20, || {
                wire::encode_request_into(&mut frame, 1, "enc0.ff2", floats as u32, 1, &body)
            })
        }
    };
    let (e2, n1) = per_body(512, false);
    let (e8, n2) = per_body(2048, false);
    row.put_noted(
        "net.encode_req_ns",
        (e2 + e8) / 2.0 * 1e3,
        n1 + n2,
        "mean of 2 KiB and 8 KiB bodies",
    );
    let (d2, n1) = per_body(512, true);
    let (d8, n2) = per_body(2048, true);
    row.put_noted(
        "net.decode_frame_ns",
        (d2 + d8) / 2.0 * 1e3,
        n1 + n2,
        "mean of 2 KiB and 8 KiB bodies",
    );

    put_host(row, b.fx.times.artifact_bytes as usize, "a buffer the size of the artifact", part);
    put_setup_times(row, &b.fx.times, b.fx.layer_count);
    row.attempted = attempted;
    row.failed = failed;
    write_trace(&args.out_dir, REMOTE, &out.logs, obs.events());
}

/// Replays `seconds` of the control segment's schedule against an in-process
/// `Server` booted from the same artifact. Per generator, one thread submits
/// at the due times and one waits on the tickets in submission order (the
/// wire answers a connection in submission order too). Returns the median µs
/// from due to reply.
fn replay_in_process(
    args: &RunArgs,
    fx: &ServeFixture,
    seconds: f64,
    attempted: &mut u64,
    failed: &mut u64,
) -> f64 {
    let (registry, _model, ids) = fx.boot_registry();
    let server = Server::start(registry, ServerConfig::default());
    // Same warm-up as the wire path got.
    let client = server.client();
    let mut rng = SplitMix64::new(args.seed ^ 0x55);
    for _ in 0..SERVE_WARMUP_REQUESTS {
        let (op, input) = fx.draw(&mut rng);
        let _ = client.submit(ids[op], fx.inputs[op][input].clone()).map(Ticket::wait);
    }
    let scheds: Vec<Vec<Arrival>> =
        (0..GENERATORS).map(|g| schedule(fx, args.seed.wrapping_add(1), g, seconds)).collect();
    let t0 = Instant::now() + Duration::from_millis(2);
    let ids: &[OpId] = &ids;
    let results: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = scheds
            .iter()
            .map(|sched| {
                let client = server.client();
                let (tx, rx) = mpsc::channel::<(Ticket, Arrival)>();
                scope.spawn(move || {
                    sys::set_timer_slack(1_000);
                    for &a in sched {
                        let wait = Duration::from_secs_f64(a.due_s).saturating_sub(t0.elapsed());
                        if !wait.is_zero() {
                            sys::wait_readable(None, wait);
                        }
                        if let Ok(ticket) =
                            client.try_submit(ids[a.op], fx.inputs[a.op][a.input].clone())
                        {
                            let _ = tx.send((ticket, a));
                        }
                    }
                });
                scope.spawn(move || {
                    let (mut us, mut ok_n) = (Vec::with_capacity(sched.len()), 0u64);
                    for (ticket, a) in rx {
                        let good = ticket.wait().is_ok_and(|y| {
                            fx.reply_correct(a.op, a.input, y.as_slice(), Accept::OnlyA)
                        });
                        if good {
                            let due = t0 + Duration::from_secs_f64(a.due_s);
                            us.push(
                                Instant::now().saturating_duration_since(due).as_nanos() as f64
                                    / 1e3,
                            );
                            ok_n += 1;
                        }
                    }
                    (us, sched.len() as u64, sched.len() as u64 - ok_n)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread")).collect()
    });
    server.shutdown();
    let mut all: Vec<f64> = Vec::new();
    for (us, a, f) in results {
        all.extend(us);
        *attempted += a;
        *failed += f;
    }
    median(&mut all)
}
