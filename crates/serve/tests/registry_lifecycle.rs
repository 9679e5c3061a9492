//! The fleet-management correctness property: **no request ever crosses a
//! version boundary**. Any interleaving of load / swap / unload with
//! concurrent traffic must answer every accepted request with bits
//! identical to the version that admitted it — never the version that
//! happened to be live when the batch finally ran, never a torn mix.
//!
//! The mechanism under test is drain-on-retire: an admission captures an
//! `Arc` of its version's compiled op, so a swap can retire the version
//! (dropping it from name resolution and memory accounting) while every
//! in-flight ticket still runs against the exact payload that accepted it.

use biq_matrix::{ColMatrix, MatrixRng};
use biq_nn::model::CompiledModel;
use biq_nn::Linear;
use biq_runtime::{Executor, QuantMethod};
use biq_serve::net::{NetClient, NetError, NetServer, RejectCode};
use biq_serve::{ModelRegistry, OpId, ServeError, Server, ServerConfig, Ticket};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

const M: usize = 8;
const N: usize = 12;
/// Distinct weight versions the swap sequence cycles through.
const VERSIONS: usize = 4;

/// A small quantized-linear BIQM artifact; each seed is a distinct
/// "version" of model `m` with its own weights.
fn artifact(seed: u64) -> biq_artifact::Artifact {
    let mut g = MatrixRng::seed_from(seed);
    let w = g.gaussian(M, N, 0.0, 1.0);
    let layer =
        Linear::quantized(&w, 2, QuantMethod::Greedy, biqgemm_core::BiqConfig::default(), None);
    biq_artifact::Artifact::from_bytes(CompiledModel::Linear(layer).snapshot()).unwrap()
}

/// The reference `W·X` bits of one artifact version for the fixed probe.
fn reference(a: &biq_artifact::Artifact, x: &ColMatrix) -> Vec<f32> {
    let mut reg = ModelRegistry::new();
    let (_, ids) = reg.load_artifact(a).unwrap();
    let op = reg.get(ids[0].1).op();
    Executor::new().run(op, x).as_slice().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn interleaved_swaps_never_cross_versions(
        actions in proptest::collection::vec(0u8..4, 4..28),
    ) {
        let artifacts: Vec<_> = (0..VERSIONS as u64).map(|s| artifact(100 + s)).collect();
        let x = MatrixRng::seed_from(7).gaussian_col(N, 1, 0.0, 1.0);
        let expected: Vec<Vec<f32>> = artifacts.iter().map(|a| reference(a, &x)).collect();

        let mut boot = ModelRegistry::new();
        boot.set_model_name("m");
        boot.load_artifact(&artifacts[0]).unwrap();
        let server = Server::start(boot, ServerConfig {
            workers: 2,
            batch_window: Duration::from_micros(100),
            ..ServerConfig::default()
        });
        let client = server.client();

        // Slot ids are append-only and never reused, so the id a request
        // was admitted against identifies its version forever — even after
        // that version retires.
        let slot_version: Arc<RwLock<HashMap<OpId, usize>>> = Arc::new(RwLock::new(HashMap::new()));
        slot_version
            .write()
            .unwrap()
            .insert(server.registry().lookup("linear").unwrap(), 0);

        // Concurrent traffic: a hammer thread races the swap sequence with
        // bare-name lookups. UnknownOp (the name resolved, then the version
        // retired before admission) and Busy are legitimate races; a wrong
        // answer never is.
        let stop = Arc::new(AtomicBool::new(false));
        let hammer = {
            let client = client.clone();
            let x = x.clone();
            let expected = expected.clone();
            let slot_version = Arc::clone(&slot_version);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let Some(id) = client.registry().lookup("linear") else { continue };
                    // A swap publishes the new id a moment before the
                    // sequence thread records which version it carries.
                    let Some(&version) = slot_version.read().unwrap().get(&id) else { continue };
                    match client.try_submit(id, x.clone()) {
                        Ok(ticket) => {
                            let y = ticket.wait().expect("accepted requests always answer");
                            assert_eq!(
                                y.as_slice(),
                                &expected[version][..],
                                "hammer reply crossed versions"
                            );
                            served += 1;
                        }
                        Err(ServeError::UnknownOp | ServeError::Busy) => {}
                        Err(e) => panic!("unexpected admission error: {e}"),
                    }
                }
                served
            })
        };

        // The interleaving under test: traffic bursts, swaps to the next
        // version, and unloads, in whatever order proptest drew.
        let mut tickets: Vec<(usize, Ticket)> = Vec::new();
        let mut next_version = 1usize;
        for action in actions {
            match action {
                // Traffic burst against the live version (reloading v0
                // first if an unload left the name dark).
                0 | 1 => {
                    let id = match server.registry().lookup("linear") {
                        Some(id) => id,
                        None => {
                            let out = server.registry().load_model("m", &artifacts[0]).unwrap();
                            let id = out.ops[0].1;
                            slot_version.write().unwrap().insert(id, 0);
                            id
                        }
                    };
                    let version = slot_version.read().unwrap()[&id];
                    for _ in 0..3 {
                        if let Ok(t) = client.try_submit(id, x.clone()) {
                            tickets.push((version, t));
                        }
                    }
                }
                // Swap: load the next weights under the same name. Old
                // tickets must still answer with old bits.
                2 => {
                    let v = next_version % VERSIONS;
                    next_version += 1;
                    let out = server.registry().load_model("m", &artifacts[v]).unwrap();
                    slot_version.write().unwrap().insert(out.ops[0].1, v);
                }
                // Unload the live version (idempotent: refusal when
                // nothing is live is part of the contract, not a failure).
                _ => {
                    let _ = server.registry().unload_model("m", 0);
                }
            }
        }

        stop.store(true, Ordering::Relaxed);
        let hammered = hammer.join().expect("hammer thread must not panic");
        // Every ticket admitted by the sequence answers with the bits of
        // the version that admitted it.
        let mut checked = 0usize;
        for (version, ticket) in tickets {
            let y = ticket.wait().expect("accepted requests always answer");
            prop_assert_eq!(y.as_slice(), &expected[version][..], "reply crossed versions");
            checked += 1;
        }
        let snap = server.shutdown();
        prop_assert_eq!(
            snap.completed(),
            checked as u64 + hammered,
            "every accepted request completed exactly once"
        );
    }
}

#[test]
fn a_bare_name_over_the_wire_always_lands_on_a_live_version() {
    // The wire front-end resolves a name, sizes the reply and admits against
    // ONE registry snapshot, so a republish landing mid-request can never
    // refuse a model name that was live when the frame arrived: one thread
    // swaps two artifacts back and forth under model `m` while two
    // connections hammer the bare op name. A registry tracks at most
    // `MAX_MODELS` (256) versions, retired ones included, so the 500 swaps
    // take two servers.
    const ROUNDS: u64 = 2;
    const SWAPS_PER_ROUND: u64 = 250;
    // Answered requests the swapper waits for between two swaps, so the
    // swaps are spread over the traffic instead of finishing ahead of it.
    const REQUESTS_PER_SWAP: u64 = 4;
    let artifacts = [artifact(200), artifact(201)];
    let x = MatrixRng::seed_from(9).gaussian_col(N, 1, 0.0, 1.0);
    let expected: Vec<Vec<f32>> = artifacts.iter().map(|a| reference(a, &x)).collect();
    assert_ne!(expected[0], expected[1], "the two versions must be tellable apart");

    for _ in 0..ROUNDS {
        let mut boot = ModelRegistry::new();
        boot.set_model_name("m");
        boot.load_artifact(&artifacts[0]).unwrap();
        let server = Server::start(boot, ServerConfig::default());
        let admin = server.client();
        let net = NetServer::bind("127.0.0.1:0", server).expect("bind loopback");
        let addr = net.local_addr();

        let swapping = AtomicBool::new(true);
        let served = AtomicU64::new(0);
        let hammer = || -> Result<(), String> {
            let mut client = NetClient::connect(addr).map_err(|e| e.to_string())?;
            while swapping.load(Ordering::Acquire) {
                match client.request("linear", &x) {
                    Ok(y) if expected.iter().any(|e| y.as_slice() == &e[..]) => {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => return Err("a reply matched neither version".into()),
                    Err(NetError::Rejected { code: RejectCode::Busy, .. }) => {}
                    Err(e) => return Err(format!("a live model name was refused: {e}")),
                }
            }
            Ok(())
        };
        let swapped = std::thread::scope(|scope| {
            let hammers = [scope.spawn(hammer), scope.spawn(hammer)];
            let swapped = (1..=SWAPS_PER_ROUND).try_for_each(|swap| {
                admin.registry().load_model("m", &artifacts[(swap % 2) as usize])?;
                while served.load(Ordering::Relaxed) < swap * REQUESTS_PER_SWAP
                    && hammers.iter().all(|h| !h.is_finished())
                {
                    std::thread::yield_now();
                }
                Ok::<(), biq_serve::ModelError>(())
            });
            swapping.store(false, Ordering::Release);
            for h in hammers {
                h.join().expect("hammer thread").expect("every request lands on a live version");
            }
            swapped
        });
        swapped.expect("every republish is accepted");
        drop(admin);
        let stats = net.shutdown();
        assert_eq!(stats.completed(), served.load(Ordering::Relaxed), "each answered exactly once");
    }
}
