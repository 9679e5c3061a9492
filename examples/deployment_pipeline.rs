//! The full deployment pipeline through the artifact API: quantize and
//! pack offline, persist the compiled layer as one BIQM artifact, reload it
//! in a fresh "device process" and serve inference — the dense fp32
//! weights never cross the boundary (paper footnote 3: the key matrix `K`,
//! not `B`, is what ships and loads).
//!
//! Run with: `cargo run --release --example deployment_pipeline`

use biqgemm_repro::biq_matrix::MatrixRng;
use biqgemm_repro::biq_nn::{CompiledModel, Linear};
use biqgemm_repro::biq_quant::error_metrics::relative_l2;
use biqgemm_repro::biq_runtime::{
    BackendSpec, PlanBuilder, QuantMethod, SharedExecutor, WeightSource,
};
use biqgemm_repro::biqgemm_core::BiqConfig;

fn main() {
    let dir = std::env::temp_dir().join("biqgemm_deploy_example");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("layer0.biqmod");

    // ---- Build host: quantize + pack once, persist the artifact. ----
    let (m, n, b) = (1024, 1024, 18);
    let mut rng = MatrixRng::seed_from(0xde91);
    let dense = rng.gaussian(m, n, 0.0, 0.05);
    let plan = PlanBuilder::new(m, n)
        .batch_hint(b)
        .backend(BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy })
        .config(BiqConfig::default())
        .build();
    let host = Linear::from_plan(&plan, WeightSource::Dense(&dense), None, SharedExecutor::new());
    CompiledModel::Linear(host.clone()).save(&path).expect("write artifact");
    let shipped = std::fs::metadata(&path).expect("stat artifact").len();
    println!(
        "build host: {m}x{n} fp32 weights = {:.2} MB -> shipped artifact = {:.2} MB (2-bit, µ=8)",
        (m * n * 4) as f64 / 1e6,
        shipped as f64 / 1e6
    );

    // An inference request (column-major activations).
    let x = rng.gaussian_col(n, b, 0.0, 1.0);

    // ---- Device: reload and serve. µ, bits, tiles and kernel level come
    // from the artifact's manifest; the keys stay a view of the file. ----
    let CompiledModel::Linear(device) = CompiledModel::load(&path).expect("load artifact") else {
        unreachable!("a linear artifact reloads as a linear model")
    };
    let t0 = std::time::Instant::now();
    let y = device.forward(&x);
    println!(
        "device: served {m}x{b} output in {:.3} ms via table lookups",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Sanity: the served output equals the build host's own computation.
    let y_host = host.forward(&x);
    println!(
        "round-trip check: relative L2 host-vs-device = {:.2e} (must be 0)",
        relative_l2(y.as_slice(), y_host.as_slice())
    );
    assert_eq!(y.as_slice(), y_host.as_slice());

    let _ = std::fs::remove_dir_all(&dir);
    println!("done.");
}
