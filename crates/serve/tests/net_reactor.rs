//! Reactor-specific hardening: the behaviours the readiness-driven net
//! layer must exhibit that a thread-per-connection design gets for free
//! (or never had at all).
//!
//! * **Slow-loris immunity.** A peer dribbling a frame byte by byte
//!   parks no thread: its bytes accumulate in the connection's read
//!   buffer across readiness events and decode exactly once complete,
//!   while other connections keep full service (proptest-driven
//!   chunkings pin the incremental decoder).
//! * **Bounded write queues.** A peer that stops reading its replies
//!   gets a disconnect when its un-flushed frames cross the configured
//!   cap — server memory stays bounded no matter how the peer behaves.
//! * **Cheap idle connections.** Hundreds of held-open idle sockets are
//!   state, not stacks; live traffic through the same reactor is
//!   unaffected.

use biq_matrix::{ColMatrix, MatrixRng};
use biq_serve::net::wire::{self, Message};
use biq_serve::net::{NetClient, NetConfig, NetServer, Outcome};
use biq_serve::{ModelRegistry, Server, ServerConfig};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// One shared daemon for the dribbling proptest: compiled once, held in
/// its static for the life of the test binary (proptest re-enters the body
/// per case; a server per case would dominate the suite's runtime). The
/// server stays reachable, so a leak checker has nothing to report.
struct Fixture {
    addr: SocketAddr,
    x: ColMatrix,
    y_ref: Vec<f32>,
    /// Held only to keep the reactor running.
    _net: NetServer,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let (net, x, y_ref) = start_one_op_server(NetConfig::default());
        Fixture { addr: net.local_addr(), x, y_ref, _net: net }
    })
}

fn start_one_op_server(config: NetConfig) -> (NetServer, ColMatrix, Vec<f32>) {
    use biq_runtime::{compile, BackendSpec, PlanBuilder, QuantMethod, WeightSource};
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
    (NetServer::bind_with("127.0.0.1:0", server, config).unwrap(), x, y_ref)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dribbled_frames_decode_incrementally_and_answer_bit_identically(
        chunks in proptest::collection::vec(1usize..16, 4..64),
        seed in 0u64..1000,
    ) {
        let fx = fixture();
        let mut g = MatrixRng::seed_from(seed);
        let x = g.gaussian_col(24, 1, 0.0, 1.0);
        let frame = wire::encode(&Message::Request {
            req_id: seed + 1,
            op: "op".into(),
            rows: 24,
            cols: 1,
            data: x.as_slice().to_vec(),
        });
        // Dribble the frame in the generated chunking, pausing so each
        // slice arrives as its own readiness event.
        let mut stream = TcpStream::connect(fx.addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut at = 0usize;
        let mut chunk_iter = chunks.iter().cycle();
        while at < frame.len() {
            let n = (*chunk_iter.next().unwrap()).min(frame.len() - at);
            stream.write_all(&frame[at..at + n]).unwrap();
            at += n;
            if at < frame.len() {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let reply = wire::read_message(&mut stream).unwrap();
        match reply {
            Message::Reply { req_id, rows, cols, data } => {
                prop_assert_eq!(req_id, seed + 1);
                prop_assert_eq!((rows, cols), (16, 1));
                let mut direct = NetClient::connect(fx.addr).unwrap();
                let y = direct.request("op", &x).unwrap();
                prop_assert_eq!(data.as_slice(), y.as_slice(), "dribbled ≠ direct");
            }
            other => prop_assert!(false, "expected a reply, got {:?}", other),
        }
    }
}

#[test]
fn a_half_sent_frame_parks_no_thread() {
    let fx = fixture();
    // The loris: half a valid frame, then silence.
    let frame = wire::encode(&Message::Request {
        req_id: 42,
        op: "op".into(),
        rows: 24,
        cols: 1,
        data: fx.x.as_slice().to_vec(),
    });
    let mut loris = TcpStream::connect(fx.addr).unwrap();
    loris.write_all(&frame[..frame.len() / 2]).unwrap();

    // Full service continues for everyone else while the loris stalls —
    // with the default two io threads this fails if either parks on it.
    let mut fast = NetClient::connect(fx.addr).unwrap();
    for _ in 0..10 {
        let y = fast.request("op", &fx.x).unwrap();
        assert_eq!(y.as_slice(), fx.y_ref.as_slice());
    }

    // The loris finishes eventually and still gets its answer: stalled
    // bytes are buffered, not dropped.
    loris.write_all(&frame[frame.len() / 2..]).unwrap();
    match wire::read_message(&mut loris).unwrap() {
        Message::Reply { req_id, data, .. } => {
            assert_eq!(req_id, 42);
            assert_eq!(data.as_slice(), fx.y_ref.as_slice());
        }
        other => panic!("expected a reply, got {other:?}"),
    }
}

#[test]
fn unread_replies_hit_the_write_queue_cap_and_disconnect() {
    use biq_runtime::{compile, BackendSpec, PlanBuilder, QuantMethod, WeightSource};
    // A tall op makes replies ~1 MiB while requests stay ~2 KiB, so a
    // peer that never reads inflates the server-side write queue fast.
    let mut g = MatrixRng::seed_from(7);
    let (m, n) = (8192usize, 16usize);
    let signs = g.signs(m, n);
    let plan = PlanBuilder::new(m, n)
        .batch_hint(1)
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
        .build();
    let mut reg = ModelRegistry::new();
    reg.register_op("tall", std::sync::Arc::new(compile(&plan, WeightSource::Signs(&signs))));
    let server = Server::start(reg, ServerConfig::default());
    let config = NetConfig { max_write_queue: 256 << 10, ..NetConfig::default() };
    let net = NetServer::bind_with("127.0.0.1:0", server, config).unwrap();

    // Fire 40 requests (~40 MiB of replies) and read nothing: the kernel
    // socket buffers fill, then the server-side queue crosses 256 KiB and
    // the server must cut the connection instead of buffering 40 MiB.
    let mut hog = TcpStream::connect(net.local_addr()).unwrap();
    let x = g.gaussian_col(n, 32, 0.0, 1.0);
    let frame = wire::encode(&Message::Request {
        req_id: 1,
        op: "tall".into(),
        rows: n as u32,
        cols: 32,
        data: x.as_slice().to_vec(),
    });
    for _ in 0..40 {
        hog.write_all(&frame).unwrap();
    }
    // read_to_end terminating (EOF or reset — both prove the disconnect)
    // is the assertion; unbounded buffering would hang here forever.
    hog.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut sink = Vec::new();
    let drained = hog.read_to_end(&mut sink);
    assert!(
        matches!(drained, Ok(_) | Err(_)),
        "read_to_end returned — the server cut the connection"
    );

    // The reactor survives the amputation: a polite client gets service.
    let mut polite = NetClient::connect(net.local_addr()).unwrap();
    let sent = polite.send("tall", &g.gaussian_col(n, 1, 0.0, 1.0)).unwrap();
    let (req_id, outcome) = polite.recv().unwrap();
    assert_eq!(req_id, sent);
    assert!(matches!(outcome, Outcome::Reply(_)));
    net.shutdown();
}

#[test]
fn hundreds_of_idle_connections_cost_state_not_service() {
    let (net, x, y_ref) = start_one_op_server(NetConfig::default());
    let addr = net.local_addr();
    // Hold 256 idle connections open. Under the old thread-per-connection
    // design this was 512 parked threads; the reactor registers 256 fds.
    let idle: Vec<TcpStream> = (0..256).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // Live traffic through the same reactor is unaffected.
    let mut client = NetClient::connect(addr).unwrap();
    for _ in 0..20 {
        let y = client.request("op", &x).unwrap();
        assert_eq!(y.as_slice(), y_ref.as_slice());
    }
    // Wait for every registration to land (accept → inbox → reactor is
    // asynchronous), then check the gauge's view.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let open: i64 = net
            .metrics()
            .samples
            .iter()
            .filter(|s| s.name == "biq_net_connections_open")
            .filter_map(|s| match s.value {
                biq_obs::MetricValue::Gauge(g) => Some(g),
                _ => None,
            })
            .sum();
        if open >= 257 || std::time::Instant::now() > deadline {
            assert!(open >= 257, "gauge saw {open} of 257 connections");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(idle);
    // Shutdown drains cleanly with the idle herd mid-teardown.
    let stats = net.shutdown();
    assert_eq!(stats.completed(), 20);
}
