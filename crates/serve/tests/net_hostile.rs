//! Hostile-input hardening for the `BIQP` wire codec, in the style of the
//! artifact/quant `decode_hostile` suites: every truncation errors, every
//! body bit-flip fails the checksum, oversized counts error before any
//! allocation, garbage never panics — and a live [`NetServer`] fed garbage
//! closes that connection while continuing to serve well-formed clients.

use biq_matrix::{ColMatrix, MatrixRng};
use biq_obs::{
    HistogramSnapshot, MetricValue, OpPoint, RequestRecord, Sample, SeriesPoint, SlowHit, BUCKETS,
};
use biq_runtime::{compile, BackendSpec, PlanBuilder, QuantMethod, WeightSource};
use biq_serve::net::wire::{self, Message, OpInfo, RejectCode, WireError};
use biq_serve::net::{NetClient, NetServer};
use biq_serve::{ModelRegistry, Server, ServerConfig};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Name pool for generated messages (the compat proptest shim has no
/// regex string strategy).
const NAMES: [&str; 6] = ["linear", "enc0.attn.wq", "lstm.w_ih", "op", "a", "out_proj"];

/// Deterministic message zoo driven by a proptest seed.
fn arb_message() -> impl Strategy<Value = Message> {
    let request = (any::<u64>(), 0usize..NAMES.len(), 1u32..9, 1u16..5, 0u64..1000).prop_map(
        |(req_id, name, rows, cols, seed)| {
            let mut g = MatrixRng::seed_from(seed);
            let data =
                (0..rows as usize * cols as usize).map(|_| g.uniform_f32(-4.0, 4.0)).collect();
            Message::Request { req_id, op: NAMES[name].to_string(), rows, cols, data }
        },
    );
    let reply = (any::<u64>(), 1u32..9, 1u16..5).prop_map(|(req_id, rows, cols)| Message::Reply {
        req_id,
        rows,
        cols,
        data: vec![0.25; rows as usize * cols as usize],
    });
    let reject = (any::<u64>(), 0usize..7, 0usize..NAMES.len()).prop_map(|(req_id, code, msg)| {
        let codes = [
            RejectCode::Busy,
            RejectCode::ShuttingDown,
            RejectCode::UnknownOp,
            RejectCode::ShapeMismatch,
            RejectCode::Canceled,
            RejectCode::Malformed,
            RejectCode::Refused,
        ];
        Message::Reject { req_id, code: codes[code], msg: NAMES[msg].to_string() }
    });
    let oplist = proptest::collection::vec(
        (0usize..NAMES.len(), any::<u32>(), any::<u32>()).prop_map(|(name, m, n)| OpInfo {
            name: NAMES[name].to_string(),
            m,
            n,
        }),
        0..5,
    )
    .prop_map(Message::OpList);
    let stats_reply = proptest::collection::vec(arb_sample(), 0..5).prop_map(Message::StatsReply);
    let history = any::<u16>().prop_map(|max_points| Message::History { max_points });
    let history_reply =
        proptest::collection::vec(arb_series_point(), 0..4).prop_map(Message::HistoryReply);
    let slow_log = any::<u16>().prop_map(|max| Message::SlowLog { max });
    let slow_log_reply =
        proptest::collection::vec(arb_slow_hit(), 0..4).prop_map(Message::SlowLogReply);
    let load_model = (0usize..NAMES.len(), 0usize..NAMES.len()).prop_map(|(name, path)| {
        Message::LoadModel { name: NAMES[name].to_string(), path: format!("/tmp/{}", NAMES[path]) }
    });
    let model_loaded = (
        0usize..NAMES.len(),
        1u32..9,
        any::<u64>(),
        1u32..9,
        proptest::collection::vec((0usize..NAMES.len(), 1u32..9), 0..3),
    )
        .prop_map(|(name, version, mem_bytes, ops, evicted)| Message::ModelLoaded {
            name: NAMES[name].to_string(),
            version,
            mem_bytes,
            ops,
            evicted: evicted.into_iter().map(|(n, v)| format!("{}@{v}", NAMES[n])).collect(),
        });
    let unload_model = (0usize..NAMES.len(), 0u32..9).prop_map(|(name, version)| {
        Message::UnloadModel { name: NAMES[name].to_string(), version }
    });
    let model_unloaded =
        (0usize..NAMES.len(), 1u32..9, 1u32..9).prop_map(|(name, version, ops_retired)| {
            Message::ModelUnloaded { name: NAMES[name].to_string(), version, ops_retired }
        });
    let model_list = proptest::collection::vec(
        (
            0usize..NAMES.len(),
            1u32..9,
            any::<bool>(),
            (any::<u64>(), 1u32..9, 0u32..5, any::<u64>()),
        )
            .prop_map(|(name, version, live, rest)| wire::ModelInfo {
                name: NAMES[name].to_string(),
                version,
                live,
                mem_bytes: rest.0,
                ops: rest.1,
                inflight: rest.2,
                completed: rest.3,
            }),
        0..4,
    )
    .prop_map(Message::ModelList);
    prop_oneof![
        request,
        reply,
        reject,
        Just(Message::ListOps),
        oplist,
        Just(Message::Stats),
        stats_reply,
        history,
        history_reply,
        slow_log,
        slow_log_reply,
        load_model,
        model_loaded,
        unload_model,
        model_unloaded,
        Just(Message::ListModels),
        model_list,
    ]
}

/// One attribution time-series point with arbitrary per-op rows.
fn arb_series_point() -> impl Strategy<Value = SeriesPoint> {
    let op = (
        0usize..NAMES.len(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|(name, a, b)| OpPoint {
            op: NAMES[name].to_string(),
            submitted: a.0,
            completed: a.1,
            rejected: a.2,
            queue_depth: a.3,
            batches: b.0,
            batch_cols_x100: b.1,
            p50_us: b.2,
            p99_us: b.3,
        });
    (any::<u64>(), any::<u64>(), proptest::collection::vec(op, 0..3))
        .prop_map(|(t_ms, interval_ns, ops)| SeriesPoint { t_ms, interval_ns, ops })
}

/// One slow-log exemplar built through the telescoping constructor so the
/// phase-sum invariant holds on every generated record.
fn arb_slow_hit() -> impl Strategy<Value = SlowHit> {
    (
        0usize..NAMES.len(),
        any::<u64>(),
        any::<u32>(),
        1u32..2048,
        proptest::collection::vec(0u64..1_000_000_000, 6),
    )
        .prop_map(|(name, req_id, op, cols, mut stamps)| {
            stamps.sort_unstable();
            SlowHit {
                op: NAMES[name].to_string(),
                rec: RequestRecord::from_timeline(
                    req_id, op, cols, stamps[0], stamps[1], stamps[2], stamps[3], stamps[4],
                    stamps[5],
                ),
            }
        })
}

/// Deterministic stats samples covering all three value kinds.
fn arb_sample() -> impl Strategy<Value = Sample> {
    let histogram = (proptest::collection::vec(any::<u64>(), BUCKETS), any::<u64>()).prop_map(
        |(counts, sum)| {
            let mut buckets = [0u64; BUCKETS];
            buckets.copy_from_slice(&counts);
            MetricValue::Histogram(HistogramSnapshot { buckets, sum })
        },
    );
    let value = prop_oneof![
        any::<u64>().prop_map(MetricValue::Counter),
        any::<i64>().prop_map(MetricValue::Gauge),
        histogram,
    ];
    let labels = proptest::collection::vec(
        (0usize..NAMES.len(), 0usize..NAMES.len())
            .prop_map(|(k, v)| (NAMES[k].to_string(), NAMES[v].to_string())),
        0..3,
    );
    (0usize..NAMES.len(), labels, value).prop_map(|(name, labels, value)| Sample {
        name: NAMES[name].to_string(),
        labels,
        value,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_message_round_trips(msg in arb_message()) {
        let frame = wire::encode(&msg);
        let (back, used) = wire::decode(&frame).unwrap();
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(used, frame.len());
    }

    #[test]
    fn truncated_frames_always_error(msg in arb_message(), cut_frac in 0.0f64..1.0) {
        let frame = wire::encode(&msg);
        let cut = ((frame.len() as f64 * cut_frac) as usize).min(frame.len() - 1);
        prop_assert!(wire::decode(&frame[..cut]).is_err(), "cut {} decoded", cut);
        // The stream path agrees: mid-frame EOF is Malformed, empty is Closed.
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        match wire::read_message(&mut cursor) {
            Err(WireError::Closed) => prop_assert_eq!(cut, 0, "Closed only at a frame boundary"),
            Err(_) => {}
            Ok(m) => panic!("cut {cut} decoded {m:?}"),
        }
    }

    #[test]
    fn flipped_frames_never_panic(
        msg in arb_message(),
        flip_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let mut frame = wire::encode(&msg);
        let at = ((frame.len() as f64 * flip_frac) as usize).min(frame.len() - 1);
        frame[at] ^= 1 << flip_bit;
        // Must terminate with Ok or Err — never panic, never over-allocate.
        let _ = wire::decode(&frame);
    }

    #[test]
    fn body_flips_always_fail_the_checksum(
        msg in arb_message(),
        flip_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let mut frame = wire::encode(&msg);
        if frame.len() > wire::HEADER_LEN { // ListOps has no body to flip
            let span = frame.len() - wire::HEADER_LEN;
            let at = wire::HEADER_LEN + ((span as f64 * flip_frac) as usize).min(span - 1);
            frame[at] ^= 1 << flip_bit;
            prop_assert!(wire::decode(&frame).is_err(), "body flip at {} decoded", at);
        }
    }

    #[test]
    fn slow_log_phase_sums_survive_the_wire(
        hits in proptest::collection::vec(arb_slow_hit(), 1..8),
    ) {
        // Telescoping phases partition the end-to-end latency exactly
        // (tolerance zero), and the wire carries that invariant intact.
        for hit in &hits {
            prop_assert_eq!(hit.rec.phase_sum(), hit.rec.total_ns);
        }
        let frame = wire::encode(&Message::SlowLogReply(hits.clone()));
        match wire::decode(&frame).unwrap().0 {
            Message::SlowLogReply(decoded) => {
                for hit in &decoded {
                    prop_assert_eq!(hit.rec.phase_sum(), hit.rec.total_ns);
                }
                prop_assert_eq!(decoded, hits);
            }
            other => panic!("wrong kind back: {other:?}"),
        }
    }

    #[test]
    fn garbage_magic_always_errors(prefix in proptest::collection::vec(any::<u8>(), 16..64)) {
        if prefix[0..4] != wire::MAGIC {
            prop_assert!(wire::decode(&prefix).is_err());
        }
    }
}

#[test]
fn oversized_counts_error_instead_of_allocating() {
    // body_len over cap: rejected straight from the header.
    let mut frame = wire::encode(&Message::ListOps);
    frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(wire::decode(&frame), Err(WireError::Malformed(_))));

    // A request claiming MAX_ROWS×MAX_COLS values with a tiny body: the
    // payload count check fires before any buffer is reserved.
    let mut body = Vec::new();
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&2u16.to_le_bytes());
    body.extend_from_slice(b"op");
    body.extend_from_slice(&(wire::MAX_ROWS as u32).to_le_bytes());
    body.extend_from_slice(&(wire::MAX_COLS as u16).to_le_bytes());
    let mut frame = Vec::new();
    frame.extend_from_slice(&wire::MAGIC);
    frame.push(wire::WIRE_VERSION);
    frame.push(1); // Request
    frame.extend_from_slice(&0u16.to_le_bytes());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&wire::fold_checksum(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    match wire::decode(&frame) {
        Err(WireError::Malformed(m)) => assert!(m.contains("payload"), "{m}"),
        other => panic!("oversized count decoded: {other:?}"),
    }

    // An op list whose count can't fit the body errors on the same guard.
    let body = 4096u16.to_le_bytes().to_vec();
    let mut frame = Vec::new();
    frame.extend_from_slice(&wire::MAGIC);
    frame.push(wire::WIRE_VERSION);
    frame.push(5); // OpList
    frame.extend_from_slice(&0u16.to_le_bytes());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&wire::fold_checksum(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    match wire::decode(&frame) {
        Err(WireError::Malformed(m)) => assert!(m.contains("count"), "{m}"),
        other => panic!("oversized op count decoded: {other:?}"),
    }
}

#[test]
fn unencodable_reply_is_rejected_up_front_not_panicked_in_the_writer() {
    // A request can satisfy every decode cap while the op's output blows
    // the frame budget: m=8192 × cols=512 × 4 B = exactly MAX_BODY, so
    // with the header it cannot be encoded. The server must answer with a
    // shape-mismatch reject — never hit the encoder asserts.
    let mut g = MatrixRng::seed_from(9);
    let signs = g.signs(8192, 16);
    let plan = PlanBuilder::new(8192, 16)
        .batch_hint(1)
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
        .build();
    let mut reg = ModelRegistry::new();
    reg.register_op("wide", std::sync::Arc::new(compile(&plan, WeightSource::Signs(&signs))));
    let server = Server::start(reg, ServerConfig::default());
    let net = NetServer::bind("127.0.0.1:0", server).unwrap();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    match client.request("wide", &ColMatrix::zeros(16, 512)) {
        Err(biq_serve::net::NetError::Rejected {
            code: RejectCode::ShapeMismatch, msg, ..
        }) => {
            assert!(msg.contains("frame caps"), "{msg}");
        }
        other => panic!("expected a frame-caps reject, got {other:?}"),
    }
    // The connection survives and narrower requests still work.
    let y = client.request("wide", &ColMatrix::zeros(16, 1)).unwrap();
    assert_eq!(y.shape(), (8192, 1));
    net.shutdown();
}

#[test]
fn client_send_errors_on_oversized_inputs_instead_of_panicking() {
    let (net, _x, _y) = start_one_op_server();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    // Over MAX_COLS: must be a clean error, not a truncating cast.
    let wide = ColMatrix::zeros(24, wire::MAX_COLS + 1);
    assert!(client.send("op", &wide).is_err(), "cols over cap must error");
    // Over MAX_NAME.
    let x = ColMatrix::zeros(24, 1);
    assert!(client.send(&"n".repeat(wire::MAX_NAME + 1), &x).is_err());
    // Within both per-dimension caps but over the frame body budget
    // (2^20 × 8 × 4 B = 32 MiB > MAX_BODY): clean error, no encoder panic.
    let huge = ColMatrix::zeros(wire::MAX_ROWS, 8);
    assert!(client.send("op", &huge).is_err(), "over-budget payload must error");
    // The connection is still usable for valid requests.
    assert!(client.request("op", &x).is_ok());
    net.shutdown();
}

fn start_one_op_server() -> (NetServer, ColMatrix, Vec<f32>) {
    let mut g = MatrixRng::seed_from(3);
    let signs = g.signs(16, 24);
    let plan = PlanBuilder::new(16, 24)
        .batch_hint(4)
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
        .build();
    let op = compile(&plan, WeightSource::Signs(&signs));
    let x = g.gaussian_col(24, 1, 0.0, 1.0);
    let y_ref = biq_runtime::Executor::new().run(&op, &x).as_slice().to_vec();
    let mut reg = ModelRegistry::new();
    reg.register_op("op", std::sync::Arc::new(op));
    let server = Server::start(reg, ServerConfig::default());
    (NetServer::bind("127.0.0.1:0", server).unwrap(), x, y_ref)
}

#[test]
fn refused_admin_verbs_leave_the_connection_serving() {
    // Unlike protocol violations, a refused model verb answers with
    // Reject(code = Refused) and keeps the connection open: an operator
    // typo must not drop the admin session (or any in-flight traffic).
    let (net, x, y_ref) = start_one_op_server();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    match client.load_model("ghost", "/nonexistent/path.biqm") {
        Err(biq_serve::net::NetError::Rejected { code: RejectCode::Refused, req_id: 0, msg }) => {
            assert!(msg.contains("/nonexistent/path.biqm"), "{msg}");
        }
        other => panic!("expected a refused reject, got {other:?}"),
    }
    match client.unload_model("ghost", 0) {
        Err(biq_serve::net::NetError::Rejected { code: RejectCode::Refused, .. }) => {}
        other => panic!("expected a refused reject, got {other:?}"),
    }
    // The same connection still lists models and serves requests.
    let models = client.list_models().unwrap();
    assert_eq!(models.len(), 1, "the boot model is the only one");
    assert!(models[0].live);
    let y = client.request("op", &x).unwrap();
    assert_eq!(y.as_slice(), y_ref.as_slice());
    net.shutdown();
}

#[test]
fn garbage_on_the_socket_closes_that_connection_but_not_the_server() {
    let (net, x, y_ref) = start_one_op_server();
    let addr = net.local_addr();

    // Connection 1: raw garbage. The server answers with a Malformed
    // reject (best effort) and closes; it must not crash or hang.
    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(b"GET / HTTP/1.1\r\n\r\n___not_biqp___").unwrap();
    let mut buf = Vec::new();
    bad.read_to_end(&mut buf).unwrap(); // EOF proves the server closed it
    if !buf.is_empty() {
        match wire::decode(&buf) {
            Ok((Message::Reject { code, .. }, _)) => assert_eq!(code, RejectCode::Malformed),
            other => panic!("expected a malformed-reject frame, got {other:?}"),
        }
    }

    // Connection 2: a frame with a corrupted body — same fate.
    let mut flipped = TcpStream::connect(addr).unwrap();
    let mut frame = wire::encode(&Message::Request {
        req_id: 1,
        op: "op".into(),
        rows: 24,
        cols: 1,
        data: x.as_slice().to_vec(),
    });
    let last = frame.len() - 1;
    frame[last] ^= 0x01;
    flipped.write_all(&frame).unwrap();
    let mut buf = Vec::new();
    flipped.read_to_end(&mut buf).unwrap();

    // A well-formed client still gets bit-identical service afterwards.
    let mut good = NetClient::connect(addr).unwrap();
    let y = good.request("op", &x).unwrap();
    assert_eq!(y.as_slice(), y_ref.as_slice());
    let stats = net.shutdown();
    assert_eq!(stats.completed(), 1, "only the well-formed request was served");
}

#[test]
fn a_refusal_clipped_mid_character_leaves_the_connection_serving() {
    // The refusal quotes the 1.2 kB path back; byte MAX_MSG falls inside a
    // two-byte character, so clipping must back off to a boundary instead
    // of panicking the reactor thread that owns this connection.
    let (net, x, y_ref) = start_one_op_server();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    let path = format!("/{}", "é".repeat(600));
    match client.load_model("m", &path) {
        Err(biq_serve::net::NetError::Rejected { code: RejectCode::Refused, msg, .. }) => {
            assert!(msg.len() <= wire::MAX_MSG && msg.starts_with("open '/é"), "{msg}");
        }
        other => panic!("expected a refused reject, got {other:?}"),
    }
    let y = client.request("op", &x).unwrap();
    assert_eq!(y.as_slice(), y_ref.as_slice());
    net.shutdown();
}

/// A small linear BIQM artifact (one op, `linear`) written to a per-test
/// file.
fn artifact_file(tag: &str) -> String {
    let w = MatrixRng::seed_from(5).gaussian(8, 12, 0.0, 1.0);
    let cfg = biqgemm_core::BiqConfig::default();
    let layer = biq_nn::Linear::quantized(&w, 2, QuantMethod::Greedy, cfg, None);
    let bytes = biq_nn::model::CompiledModel::Linear(layer).snapshot();
    let path = std::env::temp_dir().join(format!("biq-hostile-{}-{tag}.biqm", std::process::id()));
    std::fs::write(&path, &bytes[..]).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn a_model_name_no_stats_label_can_carry_is_refused() {
    // `model=<name>` rides every per-model gauge of a StatsReply, whose
    // label values are capped at MAX_LABEL_VALUE: a longer name must be
    // refused at load, not loaded and then fatal to the next Stats.
    let path = artifact_file("label");
    let (net, x, y_ref) = start_one_op_server();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    match client.load_model(&"n".repeat(200), &path) {
        Err(biq_serve::net::NetError::Rejected { code: RejectCode::Refused, .. }) => {}
        other => panic!("expected a refused reject, got {other:?}"),
    }
    let at_cap = "n".repeat(wire::MAX_LABEL_VALUE);
    assert_eq!(client.load_model(&at_cap, &path).unwrap().0, 1);
    let samples = client.stats().unwrap();
    assert!(samples.iter().any(|s| s.labels.iter().any(|(_, v)| *v == at_cap)));
    assert_eq!(client.request("op", &x).unwrap().as_slice(), y_ref.as_slice());
    net.shutdown();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn a_name_that_could_not_be_echoed_as_evicted_is_refused() {
    // Under a memory budget a load evicts cold models and echoes them as
    // `name@version`, capped at MAX_NAME: a MAX_NAME-byte model name is
    // refused up front, and an eviction still answers.
    let path = artifact_file("evict");
    let probe =
        NetServer::bind("127.0.0.1:0", Server::start(one_op_registry(), Default::default()));
    let probe = probe.unwrap();
    let mut client = NetClient::connect(probe.local_addr()).unwrap();
    let boot_mem = client.list_models().unwrap()[0].mem_bytes;
    let (_, mem, _, _) = client.load_model("m", &path).unwrap();
    probe.shutdown();

    let config = ServerConfig { mem_budget: Some(boot_mem + mem - 1), ..ServerConfig::default() };
    let net = NetServer::bind("127.0.0.1:0", Server::start(one_op_registry(), config)).unwrap();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    match client.load_model(&"n".repeat(wire::MAX_NAME), &path) {
        Err(biq_serve::net::NetError::Rejected { code: RejectCode::Refused, .. }) => {}
        other => panic!("expected a refused reject, got {other:?}"),
    }
    let (_, _, _, evicted) = client.load_model("m", &path).unwrap();
    assert_eq!(evicted, ["default@1"]);
    assert_eq!(client.list_models().unwrap().len(), 2, "default (evicted) and m");
    net.shutdown();
    std::fs::remove_file(path).unwrap();
}

/// The one-op boot registry of [`start_one_op_server`], for servers that
/// need their own config.
fn one_op_registry() -> ModelRegistry {
    let signs = MatrixRng::seed_from(3).signs(16, 24);
    let plan = PlanBuilder::new(16, 24)
        .batch_hint(4)
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
        .build();
    let mut reg = ModelRegistry::new();
    reg.register_op("op", std::sync::Arc::new(compile(&plan, WeightSource::Signs(&signs))));
    reg
}
