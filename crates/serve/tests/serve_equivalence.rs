//! The serving-layer correctness property: **any** interleaving of
//! mixed-shape submissions — whatever the batcher packs together, however
//! the worker pool schedules the buckets — returns results bit-identical
//! to running each request alone through `Executor::run`.
//!
//! This holds because every kernel family treats batch columns
//! independently: BiQGEMM builds per-column lookup tables, the dense paths
//! accumulate per column, and int8/xnor quantize activations per column —
//! and because every family accumulates each output element in the same
//! order at any batch width (BiQGEMM's canonical tree, fp32-blocked's
//! ascending-k GEMV). The inputs are gaussian, so any accumulation-order
//! divergence between the batched and width-1 paths would change the bits;
//! no small-integer domain restriction is needed. The property test drives
//! a live server (multiple submitter threads, a tiny batch window, several
//! workers) across every backend family and compares raw `f32` bits.

use biq_matrix::{ColMatrix, MatrixRng};
use biq_runtime::{
    compile, BackendSpec, CompiledOp, Executor, PlanBuilder, QuantMethod, Threading, WeightSource,
};
use biq_serve::{ModelRegistry, OpId, ServeError, Server, ServerConfig};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The mixed-shape op set every case serves: every backend family, both
/// threading policies for BiQGEMM, deliberately unequal shapes.
fn build_ops(seed: u64) -> (ModelRegistry, Vec<(Arc<CompiledOp>, OpId)>) {
    let mut g = MatrixRng::seed_from(seed);
    let mut reg = ModelRegistry::new();
    let mut ops = Vec::new();
    let specs: [(usize, usize, BackendSpec, Threading); 5] = [
        (24, 32, BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy }, Threading::Serial),
        (17, 40, BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy }, Threading::Parallel),
        (16, 24, BackendSpec::Fp32Blocked, Threading::Serial),
        (12, 20, BackendSpec::Int8, Threading::Serial),
        (20, 16, BackendSpec::Xnor { bits: 2 }, Threading::Serial),
    ];
    for (i, (m, n, spec, threading)) in specs.into_iter().enumerate() {
        let w = g.small_int_matrix(m, n, 2);
        let plan = PlanBuilder::new(m, n).batch_hint(4).backend(spec).threading(threading).build();
        let compiled = Arc::new(compile(&plan, WeightSource::Dense(&w)));
        let id = reg.register_op(format!("op{i}"), Arc::clone(&compiled));
        ops.push((compiled, id));
    }
    (reg, ops)
}

/// Runs `requests` through a live server (packing up to `max_batch_cols`)
/// from several submitter threads and checks each reply against a direct
/// per-request executor run.
fn check_interleaving(
    seed: u64,
    requests: &[(usize, usize)],
    submitters: usize,
    max_batch_cols: usize,
) {
    let (reg, ops) = build_ops(seed);
    let server = Server::start(
        reg,
        ServerConfig {
            workers: 3,
            batch_window: Duration::from_micros(500),
            max_batch_cols,
            ..ServerConfig::default()
        },
    );

    // Materialise inputs (and references) deterministically up front.
    let mut g = MatrixRng::seed_from(seed ^ 0x5eed);
    let inputs: Vec<(usize, ColMatrix)> = requests
        .iter()
        .map(|&(op_idx, cols)| {
            let op_idx = op_idx % ops.len();
            let n = ops[op_idx].0.input_size();
            (op_idx, g.gaussian_col(n, cols, 0.0, 1.0))
        })
        .collect();
    let references: Vec<Vec<f32>> = inputs
        .iter()
        .map(|(op_idx, x)| {
            let mut exec = Executor::new();
            exec.run(&ops[*op_idx].0, x).into_vec()
        })
        .collect();

    // Submit from several threads to randomise arrival interleavings.
    let results: Vec<(usize, Vec<f32>)> = std::thread::scope(|s| {
        let chunk = inputs.len().div_ceil(submitters.max(1));
        let handles: Vec<_> = inputs
            .chunks(chunk.max(1))
            .enumerate()
            .map(|(c, part)| {
                let client = server.client();
                let ops = &ops;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for (j, (op_idx, x)) in part.iter().enumerate() {
                        let ticket = client.submit(ops[*op_idx].1, x.clone()).expect("submit");
                        out.push((c * chunk, j, ticket));
                    }
                    out.into_iter()
                        .map(|(base, j, t)| (base + j, t.wait().expect("reply").into_vec()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("submitter")).collect()
    });

    let snap = server.shutdown();
    assert_eq!(snap.completed() as usize, inputs.len());
    for (idx, got) in results {
        assert_eq!(
            got, references[idx],
            "request {idx} (op {}) drifted from the direct executor run",
            inputs[idx].0
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random request mixes over every backend family stay bit-identical
    /// to per-request execution under concurrent submission.
    #[test]
    fn any_interleaving_is_bit_identical_to_direct_runs(
        seed in any::<u64>(),
        requests in proptest::collection::vec((0usize..5, 1usize..4), 1..40),
        submitters in 1usize..4,
    ) {
        check_interleaving(seed, &requests, submitters, 6);
    }
}

#[test]
fn saturating_single_column_traffic_is_bit_identical() {
    // The paper's serving regime, concentrated on one op: a burst of
    // single-column queries that the batcher is free to pack to the cap.
    let requests: Vec<(usize, usize)> = (0..64).map(|_| (0usize, 1usize)).collect();
    check_interleaving(0xbeef, &requests, 3, 6);
}

#[test]
fn bursts_at_the_shipped_batch_cap_are_bit_identical() {
    // The shipped cap (16 columns) instead of the property test's 6: bursts
    // of 1–3-column queries on the two BiQGEMM ops, so the batcher packs
    // whatever widths queueing behind the workers yields, up to 16 + 2 —
    // past one 8-lane group, into the 9–15-column range no smaller cap
    // reaches (each of those widths is forced by construction in
    // `server.rs::every_ragged_wide_batch_width_is_bit_identical`).
    let cap = ServerConfig::default().max_batch_cols;
    let requests: Vec<(usize, usize)> = (0..120).map(|i| (i % 2, 1 + i % 3)).collect();
    check_interleaving(0xcafe, &requests, 3, cap);
}

#[test]
fn shutdown_drains_every_accepted_request() {
    // A window far longer than the test: whatever is still in an open or
    // a sealed bucket when shutdown starts (the first requests go straight
    // to the idle workers, the rest queue behind them), shutdown must run
    // and answer it all.
    let (reg, ops) = build_ops(42);
    let server = Server::start(
        reg,
        ServerConfig {
            workers: 2,
            batch_window: Duration::from_secs(30),
            max_batch_cols: 1024,
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let mut g = MatrixRng::seed_from(43);
    let tickets: Vec<_> = (0..10)
        .map(|i| {
            let (op, id) = &ops[i % ops.len()];
            let x = g.small_int_col(op.input_size(), 1, 2);
            let reference = Executor::new().run(op, &x).into_vec();
            (client.submit(*id, x).expect("submit"), reference)
        })
        .collect();
    let snap = server.shutdown();
    assert_eq!(snap.completed(), 10, "shutdown must drain the queue, not drop it");
    for (t, reference) in tickets {
        assert_eq!(t.wait().expect("drained reply").into_vec(), reference);
    }
}

#[test]
fn backpressure_rejects_when_the_pipeline_is_full() {
    // One worker, a one-request queue, and compute-heavy requests:
    // submissions outpace service, admitted requests wait for the busy
    // worker, and try_submit must start refusing with `Busy` instead of
    // blocking.
    let mut g = MatrixRng::seed_from(44);
    let (m, n) = (512, 512);
    let signs = g.signs(m, n);
    let plan = PlanBuilder::new(m, n)
        .batch_hint(1)
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
        .threading(Threading::Serial)
        .build();
    let mut reg = ModelRegistry::new();
    let id = reg.register("big", &plan, WeightSource::Signs(&signs));
    let server = Server::start(
        reg,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            batch_window: Duration::ZERO,
            max_batch_cols: 1,
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let x = g.gaussian_col(n, 1, 0.0, 1.0);
    let mut accepted = Vec::new();
    let mut busy = 0u32;
    for _ in 0..200 {
        match client.try_submit(id, x.clone()) {
            Ok(t) => accepted.push(t),
            Err(ServeError::Busy) => busy += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(busy > 0, "bounded queue never pushed back on 200 instant submissions");
    assert!(!accepted.is_empty(), "some requests must get through");
    let expected = accepted.len() as u64;
    for t in accepted {
        let y = t.wait().expect("accepted requests complete");
        assert_eq!(y.shape(), (m, 1));
    }
    let snap = server.shutdown();
    assert_eq!(snap.ops[0].completed, expected);
    assert_eq!(snap.ops[0].rejected, u64::from(busy));
}
