//! Artifact round-trip properties: compile → save → load → run must be
//! bit-identical to the in-memory model, across every backend family and
//! non-divisible shapes, and loading must borrow payloads from the file
//! buffer instead of copying them.

use biq_artifact::Artifact;
use biq_matrix::MatrixRng;
use biq_nn::model::CompiledModel;
use biq_nn::transformer::LayerBackend;
use biq_nn::{Linear, QuantMethod};
use biq_quant::packing::Keys;
use biq_runtime::{
    BackendSpec, PackedPayload, PlanBuilder, SharedExecutor, Threading, WeightSource,
};
use biqgemm_core::BiqConfig;
use proptest::prelude::*;

fn linear_on(spec: BackendSpec, m: usize, n: usize, bias: bool, seed: u64) -> Linear {
    let mut g = MatrixRng::seed_from(seed);
    let w = g.gaussian(m, n, 0.0, 1.0);
    let bias = bias.then(|| g.gaussian_vec(m));
    let plan = PlanBuilder::new(m, n).backend(spec).threading(Threading::Serial).build();
    Linear::from_plan(&plan, WeightSource::Dense(&w), bias, SharedExecutor::new())
}

fn round_trip(model: &CompiledModel) -> (Artifact, CompiledModel) {
    let bytes = model.snapshot();
    let artifact = Artifact::from_bytes(bytes).expect("snapshot must validate");
    let loaded = CompiledModel::from_artifact(&artifact).expect("restore must succeed");
    (artifact, loaded)
}

const SPECS: &[BackendSpec] = &[
    BackendSpec::Fp32Naive,
    BackendSpec::Fp32Blocked,
    BackendSpec::Int8,
    BackendSpec::Xnor { bits: 2 },
    BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy },
];

#[test]
fn every_backend_family_round_trips_bit_identically() {
    for (i, &spec) in SPECS.iter().enumerate() {
        // 45 % 8 != 0 exercises the ragged-chunk path; b = 1 the GEMV path.
        let model = CompiledModel::Linear(linear_on(spec, 24, 45, true, 900 + i as u64));
        let (_artifact, loaded) = round_trip(&model);
        for b in [1usize, 3] {
            assert_eq!(
                model.run_seeded(7, b),
                loaded.run_seeded(7, b),
                "{spec:?} b={b} must round-trip bit-identically"
            );
        }
    }
}

#[test]
fn loaded_biq_payload_borrows_the_artifact_buffer() {
    let spec = BackendSpec::Biq { bits: 3, method: QuantMethod::Greedy };
    let model = CompiledModel::Linear(linear_on(spec, 32, 50, false, 42));
    let (artifact, loaded) = round_trip(&model);
    let base = artifact.as_bytes().as_ptr() as usize;
    let end = base + artifact.as_bytes().len();
    let CompiledModel::Linear(l) = &loaded else { panic!("kind changed") };
    let op = l.compiled_op();
    let PackedPayload::Biq(w) = op.payload() else { panic!("payload family changed") };
    let keys = match w.keys().tile(0..w.key_rows(), 0, w.chunks()).keys() {
        Keys::U8(k) => k.as_ptr() as usize,
        Keys::U16(k) => k.as_ptr() as usize,
    };
    let scales = w.scales().as_ptr() as usize;
    assert!(w.keys().is_shared(), "keys must be a shared view, not an owned copy");
    assert!(keys >= base && keys < end, "keys must point into the artifact buffer");
    assert!(scales >= base && scales < end, "scales must point into the artifact buffer");
}

#[test]
fn loaded_dense_int8_and_xnor_payloads_borrow_the_artifact_buffer() {
    for &spec in &[BackendSpec::Fp32Blocked, BackendSpec::Int8, BackendSpec::Xnor { bits: 2 }] {
        let model = CompiledModel::Linear(linear_on(spec, 16, 30, false, 77));
        let (artifact, loaded) = round_trip(&model);
        let base = artifact.as_bytes().as_ptr() as usize;
        let end = base + artifact.as_bytes().len();
        let CompiledModel::Linear(l) = &loaded else { panic!("kind changed") };
        let op = l.compiled_op();
        let inside = |p: usize, what: &str| {
            assert!(p >= base && p < end, "{what} must point into the artifact buffer");
        };
        match op.payload() {
            PackedPayload::Dense(w) => {
                assert!(w.is_shared(), "dense weights must stay a shared view");
                inside(w.as_slice().as_ptr() as usize, "dense weights");
            }
            PackedPayload::Int8(w) => {
                inside(w.as_slice().as_ptr() as usize, "int8 values");
                inside(w.row_scales().as_ptr() as usize, "int8 scales");
            }
            PackedPayload::Xnor(w) => {
                for (scales, words) in w.planes() {
                    inside(scales.as_slice().as_ptr() as usize, "xnor scales");
                    inside(words.as_words().as_ptr() as usize, "xnor words");
                }
            }
            PackedPayload::Biq(_) => unreachable!(),
        }
    }
}

#[test]
fn transformer_round_trip_is_bit_identical() {
    let mut g = MatrixRng::seed_from(1234);
    let backend = LayerBackend::Biq {
        bits: 2,
        method: QuantMethod::Greedy,
        cfg: BiqConfig::default(),
        parallel: false,
    };
    let enc = biq_nn::transformer::Encoder::random(&mut g, 2, 24, 48, 4, backend);
    let model = CompiledModel::Transformer(enc);
    let (_artifact, loaded) = round_trip(&model);
    assert_eq!(model.run_seeded(3, 5), loaded.run_seeded(3, 5));
    assert_eq!(model.dims(), loaded.dims());
}

#[test]
fn lstm_round_trip_is_bit_identical() {
    let mut g = MatrixRng::seed_from(4321);
    let backend = LayerBackend::Biq {
        bits: 2,
        method: QuantMethod::Greedy,
        cfg: BiqConfig::default(),
        parallel: false,
    };
    let lstm = biq_nn::lstm::Lstm::random(&mut g, 18, 10, backend);
    let model = CompiledModel::Lstm(lstm);
    let (_artifact, loaded) = round_trip(&model);
    assert_eq!(model.run_seeded(9, 6), loaded.run_seeded(9, 6));
}

#[test]
fn seq2seq_round_trip_decodes_identically() {
    let mut g = MatrixRng::seed_from(5678);
    let backend = LayerBackend::Biq {
        bits: 1,
        method: QuantMethod::Greedy,
        cfg: BiqConfig::default(),
        parallel: false,
    };
    let s = biq_nn::seq2seq::Seq2Seq::random(&mut g, 32, 16, 32, 2, 1, 1, backend);
    let model = CompiledModel::Seq2Seq(s);
    let (_artifact, loaded) = round_trip(&model);
    assert_eq!(model.run_seeded(11, 4), loaded.run_seeded(11, 4));
    let CompiledModel::Seq2Seq(l) = &loaded else { panic!("kind changed") };
    assert_eq!(l.specials().bos, 0);
    assert_eq!(l.specials().eos, 1);
}

#[test]
fn named_linears_match_manifest_order() {
    let mut g = MatrixRng::seed_from(8);
    let enc = biq_nn::transformer::Encoder::random(
        &mut g,
        1,
        16,
        32,
        2,
        LayerBackend::Fp32 { parallel: false },
    );
    let model = CompiledModel::Transformer(enc);
    let names: Vec<String> = model.named_linears().into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        names,
        ["enc0.attn.wq", "enc0.attn.wk", "enc0.attn.wv", "enc0.attn.wo", "enc0.ff1", "enc0.ff2"]
    );
    let artifact = Artifact::from_bytes(model.snapshot()).unwrap();
    let manifest = biq_artifact::ModelManifest::decode(artifact.manifest_bytes()).unwrap();
    let manifest_names: Vec<&str> = manifest.layers.iter().map(|l| l.name.as_str()).collect();
    assert_eq!(names, manifest_names);
}

#[test]
fn hostile_huge_dimensions_error_instead_of_overflowing() {
    use biq_artifact::{sec, ArtifactBuilder, ElemKind, LayerManifest, ModelManifest, PayloadRefs};
    // A checksum-valid artifact whose manifest declares absurd shapes must
    // fail with an error — not panic on `m * n` overflow or wrap and pass
    // validation against an empty section.
    let mut b = ArtifactBuilder::new();
    let dense = b.add_section(sec::DENSE, ElemKind::F32, 0, vec![]);
    let layer = LayerManifest {
        name: "linear".into(),
        m: 1 << 32,
        n: 1 << 32,
        batch_hint: 1,
        spec: BackendSpec::Fp32Blocked,
        cfg: BiqConfig::default(),
        parallel: false,
        kernel: biqgemm_core::KernelLevel::Scalar,
        bias: None,
        payload: PayloadRefs::Dense { dense },
    };
    let manifest = ModelManifest {
        kind: biq_artifact::ModelKind::Linear,
        dims: vec![],
        params: vec![],
        layers: vec![layer],
    }
    .encode();
    let artifact = Artifact::from_bytes(b.finish(&manifest)).unwrap();
    assert!(CompiledModel::from_artifact(&artifact).is_err(), "2^32-dim layer must be rejected");

    // Same for model-level dims whose *product* would overflow (the
    // seq2seq embedding table is vocab · d_model).
    let b = ArtifactBuilder::new();
    let manifest = ModelManifest {
        kind: biq_artifact::ModelKind::Seq2Seq,
        dims: vec![1 << 30, 1 << 30, 1, 1, 1, 0, 0, 1],
        params: vec![],
        layers: vec![],
    }
    .encode();
    let artifact = Artifact::from_bytes(b.finish(&manifest)).unwrap();
    assert!(CompiledModel::from_artifact(&artifact).is_err(), "2^30 dims must be rejected");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// compile → save → load → run is bit-identical for every backend
    /// family across random shapes, including n not divisible by µ and
    /// single-column batches.
    #[test]
    fn linear_round_trip_is_bit_identical(
        m in 1usize..40,
        n in 1usize..60,
        b in 1usize..5,
        spec_i in 0usize..5,
        bias in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let spec = SPECS[spec_i];
        let model = CompiledModel::Linear(linear_on(spec, m, n, bias, seed));
        let (_artifact, loaded) = round_trip(&model);
        prop_assert_eq!(
            model.run_seeded(seed ^ 1, b),
            loaded.run_seeded(seed ^ 1, b),
            "spec {:?} m={} n={} b={}", spec, m, n, b
        );
    }

    /// Truncating or bit-flipping a BIQM file must yield an error — never a
    /// panic, never a silently wrong model.
    #[test]
    fn corrupted_model_artifacts_error_cleanly(
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        let spec = BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy };
        let model = CompiledModel::Linear(linear_on(spec, 9, 21, true, seed));
        let bytes = model.snapshot();

        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        let truncated = bytes[..cut].to_vec();
        prop_assert!(Artifact::from_bytes(truncated).is_err(), "cut at {} must error", cut);

        let mut flipped = bytes.clone();
        let at = ((bytes.len() as f64 * flip_frac) as usize).min(bytes.len() - 1);
        flipped[at] ^= 1 << (seed % 8);
        let res = Artifact::from_bytes(flipped)
            .and_then(|a| CompiledModel::from_artifact(&a).map(|_| ()));
        prop_assert!(res.is_err(), "flip at byte {} must be caught", at);
    }
}
