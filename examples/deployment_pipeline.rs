//! The full deployment pipeline through the serialization API: quantize and
//! pack offline, persist the key-matrix artifact, reload it in a fresh
//! "device process" and serve inference — the dense fp32 weights never cross
//! the boundary (paper footnote 3).
//!
//! Run with: `cargo run --release --example deployment_pipeline`

use biqgemm_repro::biq_matrix::io as mio;
use biqgemm_repro::biq_matrix::MatrixRng;
use biqgemm_repro::biq_quant::error_metrics::relative_l2;
use biqgemm_repro::biq_quant::greedy_quantize_matrix_rowwise;
use biqgemm_repro::biq_runtime::{
    compile, BackendSpec, Executor, PlanBuilder, QuantMethod, WeightSource,
};
use biqgemm_repro::biqgemm_core::serialize::{decode_weights, encode_weights};
use biqgemm_repro::biqgemm_core::{BiqConfig, BiqWeights};

fn main() {
    let dir = std::env::temp_dir().join("biqgemm_deploy_example");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let weights_path = dir.join("layer0.biqw");
    let input_path = dir.join("request.biqm");

    // ---- Build host: quantize + pack + persist. ----
    let (m, n, b) = (1024, 1024, 18);
    let mut rng = MatrixRng::seed_from(0xde91);
    let dense = rng.gaussian(m, n, 0.0, 0.05);
    let quant = greedy_quantize_matrix_rowwise(&dense, 2);
    let packed = BiqWeights::from_multibit(&quant, 8);
    let artifact = encode_weights(&packed);
    std::fs::write(&weights_path, &artifact).expect("write weights");
    println!(
        "build host: {m}x{n} fp32 weights = {:.2} MB -> shipped artifact = {:.2} MB (2-bit, µ=8)",
        (m * n * 4) as f64 / 1e6,
        artifact.len() as f64 / 1e6
    );

    // An inference request (column-major activations), also on disk.
    let x = rng.gaussian_col(n, b, 0.0, 1.0);
    std::fs::write(&input_path, mio::encode_col_matrix(&x)).expect("write input");

    // ---- Device: reload and serve. ----
    let loaded = decode_weights(
        biqgemm_repro::biq_matrix::io::read_from(
            std::fs::File::open(&weights_path).expect("open artifact"),
        )
        .expect("read artifact"),
    )
    .expect("decode artifact");
    // The plan must name the µ and bit count the artifact was packed with.
    let plan = PlanBuilder::new(m, n)
        .batch_hint(b)
        .backend(BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy })
        .config(BiqConfig::default())
        .build();
    let op = compile(&plan, WeightSource::Packed(loaded));
    let mut exec = Executor::warmed_for(&op);
    let x_dev = mio::decode_col_matrix(
        mio::read_from(std::fs::File::open(&input_path).expect("open input")).expect("read"),
    )
    .expect("decode input");

    let t0 = std::time::Instant::now();
    let y = exec.run(&op, &x_dev);
    println!(
        "device: served {m}x{b} output in {:.3} ms via table lookups",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Sanity: the served output equals the build host's own computation.
    let y_host = exec.run(&compile(&plan, WeightSource::Quantized(&quant)), &x);
    println!(
        "round-trip check: relative L2 host-vs-device = {:.2e} (must be 0)",
        relative_l2(y.as_slice(), y_host.as_slice())
    );
    assert_eq!(y.as_slice(), y_host.as_slice());

    let _ = std::fs::remove_dir_all(&dir);
    println!("done.");
}
