//! `serve_saturate` — batcher + workers + batched kernel at full batch fill,
//! `net` bypassed. In-process `Server` at shipped defaults, closed loop:
//! 2 submitter threads × 16 tickets in flight each (depth 32 = twice the
//! packed-width cap), single-column requests drawn uniformly over layer 0's
//! six linears.
//!
//! Why it exists: a net-layer change must not move it, a batcher or worker
//! change must, and comparing it with `serve_remote_open` separates wire
//! cost from serving cost.

use super::serve_common::{
    monitor, push_config, put_serve_metrics, Accept, Counters, ServeFixture, ServePhase,
};
use crate::alloc;
use crate::host;
use crate::measure::{put_host, put_p99, put_setup_times, repeat_setup, RunArgs, Samples};
use crate::params::{
    GENERATORS, SATURATE, SATURATE_INFLIGHT, SERVE_WARMUP_REQUESTS, TRACE_CONTROL_SHARE,
};
use crate::report::{Provenance, Row};
use crate::span::{write_trace, SpanLog};
use crate::stats::SplitMix64;
use biq_serve::{Client, OpId, Server, ServerConfig, Ticket};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

struct Booted {
    fx: ServeFixture,
    server: Option<Server>,
    ids: Vec<OpId>,
}

impl Drop for Booted {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn setup(args: &RunArgs) -> Booted {
    let t_start = Instant::now();
    let mut fx = ServeFixture::build(args);
    let (registry, _model, ids) = fx.boot_registry();
    let server = Server::start(registry, ServerConfig::default());
    // Warm-up: every worker's arena grows to the served shapes.
    let client = server.client();
    let mut rng = SplitMix64::new(args.seed ^ 0x77);
    let mut pending: VecDeque<(Ticket, usize, usize)> = VecDeque::new();
    for _ in 0..SERVE_WARMUP_REQUESTS {
        let (op, input) = fx.draw(&mut rng);
        pending.push_back((
            client.submit(ids[op], fx.inputs[op][input].clone()).expect("warm-up submit"),
            op,
            input,
        ));
        if pending.len() == SATURATE_INFLIGHT {
            let (ticket, op, input) = pending.pop_front().expect("non-empty");
            let ok = ticket
                .wait()
                .is_ok_and(|y| fx.reply_correct(op, input, y.as_slice(), Accept::OnlyA));
            fx.oracle_ok &= ok;
        }
    }
    for (ticket, op, input) in pending {
        fx.oracle_ok &=
            ticket.wait().is_ok_and(|y| fx.reply_correct(op, input, y.as_slice(), Accept::OnlyA));
    }
    fx.times.total_s = t_start.elapsed().as_secs_f64();
    Booted { fx, server: Some(server), ids }
}

#[derive(Default)]
struct SubmitterOut {
    samples: Samples,
    attempted: u64,
    failed: u64,
    submit_ns: Vec<f64>,
}

/// One closed-loop submitter: keeps [`SATURATE_INFLIGHT`] tickets in flight
/// for `seconds`, waits on the oldest, verifies every reply.
#[allow(clippy::too_many_arguments)]
fn submitter(
    client: &Client,
    fx: &ServeFixture,
    ids: &[OpId],
    seed: u64,
    begin: Instant,
    seconds: f64,
    log: &mut SpanLog,
    flip_one: bool,
) -> SubmitterOut {
    let mut out = SubmitterOut {
        samples: Samples::with_capacity((seconds * 60_000.0) as usize),
        ..SubmitterOut::default()
    };
    let mut rng = SplitMix64::new(seed);
    let mut inflight: VecDeque<(Ticket, Instant, usize, usize, u64)> = VecDeque::new();
    let mut next_id = 0u64;
    loop {
        let submitting = begin.elapsed().as_secs_f64() < seconds;
        while submitting && inflight.len() < SATURATE_INFLIGHT {
            let (op, input) = fx.draw(&mut rng);
            let x = fx.inputs[op][input].clone();
            let t0 = Instant::now();
            log.enter("serve.try_submit", next_id);
            let ticket = client.try_submit(ids[op], x);
            log.exit();
            if log.enabled() {
                out.submit_ns.push(t0.elapsed().as_nanos() as f64);
            }
            out.attempted += 1;
            match ticket {
                Ok(ticket) => inflight.push_back((ticket, t0, op, input, next_id)),
                // Busy, shutting down, unknown op: refused is failed.
                Err(_) => out.failed += 1,
            }
            next_id += 1;
        }
        let Some((ticket, t0, op, input, id)) = inflight.pop_front() else { break };
        log.enter("serve.ticket_wait", id);
        let reply = ticket.wait();
        log.exit();
        let done = Instant::now();
        let ok = reply.is_ok_and(|y| {
            let mut y = y.into_vec();
            if flip_one && id == 3 {
                y[0] = f32::from_bits(y[0].to_bits() ^ 1);
            }
            fx.reply_correct(op, input, &y, Accept::OnlyA)
        });
        if ok {
            let at = t0.duration_since(begin).as_secs_f64();
            out.samples.push(at, done.duration_since(t0).as_nanos() as f64 / 1e3);
        } else {
            out.failed += 1;
        }
    }
    out
}

/// Runs `GENERATORS` submitters for `seconds`; returns their outputs, span
/// logs and the wall time until the last reply.
fn closed_loop(
    b: &Booted,
    args: &RunArgs,
    seconds: f64,
    traced: bool,
    salt: u64,
) -> (Vec<SubmitterOut>, Vec<SpanLog>, f64) {
    let server = b.server.as_ref().expect("server runs until drop");
    let begin = Instant::now();
    let mut logs: Vec<SpanLog> = (0..GENERATORS)
        .map(|g| SpanLog::new(traced, g as u32, (seconds * 200_000.0) as usize))
        .collect();
    let outs: Vec<SubmitterOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter_mut()
            .enumerate()
            .map(|(g, log)| {
                let client = server.client();
                let seed = args.seed.wrapping_mul(31).wrapping_add(salt + g as u64);
                let flip = args.flip_one && g == 0;
                scope.spawn(move || {
                    submitter(&client, &b.fx, &b.ids, seed, begin, seconds, log, flip)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter thread")).collect()
    });
    (outs, logs, begin.elapsed().as_secs_f64())
}

fn merged(outs: &[SubmitterOut]) -> (Samples, u64, u64) {
    let mut all = Samples::default();
    for o in outs {
        all.points.extend_from_slice(&o.samples.points);
    }
    (all, outs.iter().map(|o| o.attempted).sum(), outs.iter().map(|o| o.failed).sum())
}

/// Runs the workload.
pub fn run(args: &RunArgs, provenance: Provenance) -> Row {
    let (booted, setup_s) = repeat_setup(args.setup_repeats, || setup(args));
    let mut row = Row::new(SATURATE, args.traced, provenance);
    push_config(&mut row.provenance, &booted.fx, false);
    row.provenance.push(("inflight".into(), (GENERATORS * SATURATE_INFLIGHT).to_string()));
    row.correct = booted.fx.oracle_ok;
    if args.traced {
        traced(args, &booted, &mut row);
    } else {
        let (outs, _, _) = closed_loop(&booted, args, args.seconds, false, 0);
        let (samples, attempted, failed) = merged(&outs);
        row.attempted = attempted;
        row.failed = failed;
        row.put("setup_s", setup_s, args.setup_repeats as u64);
        samples.put_end_to_end(&mut row, None, args.seconds);
        row.put("peak_rss_mib", host::peak_rss_mib(), 1);
    }
    row
}

fn traced(args: &RunArgs, b: &Booted, row: &mut Row) {
    let server = b.server.as_ref().expect("server runs until drop");
    let control_s = args.seconds * TRACE_CONTROL_SHARE;
    let traced_s = args.seconds * 0.5;

    // -- control segment, untraced.
    let (outs, _, wall) = closed_loop(b, args, control_s, false, 100);
    let (control, mut attempted, mut failed) = merged(&outs);
    let control_rate = control.len() as f64 / wall;
    put_p99(row, &control.values_in_time_order());

    // -- traced segment: benchmark spans around try_submit and the ticket
    // wait, the program's own spans switched on and drained beside it.
    let stop = AtomicBool::new(false);
    let before = Counters::read(&server.stats());
    biq_obs::set_tracing(true);
    alloc::arm();
    let stats = || server.stats();
    let (monitored, (outs, logs, wall)) = std::thread::scope(|scope| {
        let mon = scope.spawn(|| monitor(&stats, &stop));
        let run = closed_loop(b, args, traced_s, true, 200);
        stop.store(true, Ordering::Release);
        (mon.join().expect("monitor thread"), run)
    });
    let allocs = alloc::disarm();
    biq_obs::set_tracing(false);
    let after = Counters::read(&server.stats());
    let (samples, a, f) = merged(&outs);
    attempted += a;
    failed += f;
    row.put_noted(
        "obs.trace_overhead_ratio",
        control_rate / (samples.len() as f64 / wall),
        samples.len() as u64,
        "untraced / traced ops_per_s",
    );
    let submit_ns = outs.iter().flat_map(|o| o.submit_ns.iter().copied()).collect();
    put_serve_metrics(
        row,
        ServePhase {
            before,
            after,
            wall_s: wall,
            monitored: &monitored,
            allocs,
            submit_ns,
            submit_note: "time inside Client::try_submit",
            op_p50_us: samples.p50(),
        },
    );

    let part = args.seconds * (0.5 - TRACE_CONTROL_SHARE) / 2.0;
    put_host(row, b.fx.times.artifact_bytes as usize, "a buffer the size of the artifact", part);
    put_setup_times(row, &b.fx.times, b.fx.layer_count);
    row.attempted = attempted;
    row.failed = failed;
    write_trace(&args.out_dir, SATURATE, &logs, monitored.obs.events());
}
