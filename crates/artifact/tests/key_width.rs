//! The key-width boundary, end to end. Keys are stored `⌈µ/8⌉` bytes wide —
//! one byte through µ = 8, `u16` for µ 9–16 — and the width is a function
//! of µ alone. For each µ in `1..=16` (with `n ∤ µ`, so the last chunk is
//! ragged) packed keys and scales must survive BIQM unchanged and compute
//! bit-identically after a load; hostile key sections — wrong element kind
//! for their µ, byte keys out of range in a full or a ragged chunk, a
//! pre-byte-key container version — must come back as typed errors, never
//! panics.

use biq_artifact::{compile_layer, load_weights, sec, snapshot_layer};
use biq_artifact::{
    Artifact, ArtifactBuilder, ArtifactError, ElemKind, LayerManifest, ModelKind, ModelManifest,
    PayloadRefs,
};
use biq_matrix::MatrixRng;
use biq_quant::packing::key_bytes;
use biq_runtime::{
    compile, BackendSpec, CompiledOp, Executor, KernelLevel, PackedPayload, PlanBuilder,
    QuantMethod, Threading, WeightSource,
};
use biqgemm_core::BiqConfig;

const BITS: usize = 2;
const SPEC: BackendSpec = BackendSpec::Biq { bits: BITS, method: QuantMethod::Greedy };

fn biq_op(m: usize, n: usize, mu: usize, seed: u64) -> CompiledOp {
    let w = MatrixRng::seed_from(seed).gaussian(m, n, 0.0, 1.0);
    let plan = PlanBuilder::new(m, n)
        .backend(SPEC)
        .config(BiqConfig::with_mu(mu))
        .threading(Threading::Serial)
        .build();
    compile(&plan, WeightSource::Dense(&w))
}

fn one_layer_artifact(builder: ArtifactBuilder, lm: LayerManifest) -> (Artifact, LayerManifest) {
    let manifest = ModelManifest {
        kind: ModelKind::Linear,
        dims: vec![lm.m as u64, lm.n as u64],
        params: vec![],
        layers: vec![lm],
    };
    let artifact = Artifact::from_bytes(builder.finish(&manifest.encode()))
        .expect("a self-built container validates; only its key payload may be hostile");
    let lm = ModelManifest::decode(artifact.manifest_bytes()).unwrap().layers.remove(0);
    (artifact, lm)
}

#[test]
fn every_mu_round_trips_through_biqm() {
    let m = 5; // odd: the b = 1 gather is left with an unpaired row
    for mu in 1..=16usize {
        let n = (3 * mu - 1).max(2); // n mod µ = µ − 1: ragged last chunk (µ ≥ 2)
        let op = biq_op(m, n, mu, 9200 + mu as u64);
        let PackedPayload::Biq(w) = op.payload() else { panic!("biq payload expected") };
        let stored = BITS * m * n.div_ceil(mu) * key_bytes(mu);
        assert_eq!(w.keys().storage_bytes(), stored, "µ={mu}: ⌈µ/8⌉ bytes per key");

        let mut builder = ArtifactBuilder::new();
        let lm = snapshot_layer(&mut builder, 0, "fc", &op, None);
        let (artifact, lm) = one_layer_artifact(builder, lm);
        let PayloadRefs::Biq { keys, .. } = &lm.payload else { panic!("biq refs expected") };
        let section = artifact.section(*keys).unwrap();
        let want_elem = if mu <= 8 { ElemKind::U8 } else { ElemKind::U16 };
        assert_eq!((section.elem, section.len as usize), (want_elem, stored), "µ={mu}: section");
        let PackedPayload::Biq(loaded) = load_weights(&artifact, &lm).unwrap() else {
            panic!("biq weights expected")
        };
        assert_eq!(loaded.keys(), w.keys(), "µ={mu}: BIQM keys");
        assert_eq!(loaded.scales(), w.scales(), "µ={mu}: BIQM scales");
        assert!(loaded.keys().is_shared(), "µ={mu}: BIQM keys stay a view of the file");

        let reloaded = compile_layer(&artifact, &lm).unwrap();
        let mut exec = Executor::new();
        for b in [1usize, 3] {
            let x = MatrixRng::seed_from(9300 + b as u64).gaussian_col(n, b, 0.0, 1.0);
            assert_eq!(
                exec.run(&op, &x).as_slice(),
                exec.run(&reloaded, &x).as_slice(),
                "µ={mu} b={b}: loaded layer must compute bit-identically"
            );
        }
    }
}

/// A one-row, one-bit BiQ layer whose key section is exactly `keys` tagged
/// `elem` — whatever the manifest's µ says it should be.
fn hand_built(n: usize, mu: usize, elem: ElemKind, keys: Vec<u8>) -> (Artifact, LayerManifest) {
    let mut builder = ArtifactBuilder::new();
    let keys = builder.add_section(sec::KEYS, elem, 0, keys);
    let scales = builder.add_f32_section(sec::SCALES, 0, &[1.0]);
    let lm = LayerManifest {
        name: "fc".into(),
        m: 1,
        n,
        batch_hint: 1,
        spec: BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy },
        cfg: BiqConfig::with_mu(mu),
        parallel: false,
        kernel: KernelLevel::Scalar,
        bias: None,
        payload: PayloadRefs::Biq { keys, scales },
    };
    one_layer_artifact(builder, lm)
}

fn manifest_error(n: usize, mu: usize, elem: ElemKind, keys: Vec<u8>) -> String {
    let (artifact, lm) = hand_built(n, mu, elem, keys);
    match load_weights(&artifact, &lm) {
        Err(ArtifactError::Manifest(msg)) => msg,
        Err(other) => panic!("µ={mu}: expected a manifest error, got {other}"),
        Ok(_) => panic!("µ={mu}: hostile key section loaded"),
    }
}

#[test]
fn key_section_kind_must_match_mu() {
    // µ = 8 keys are bytes: a u16 section (the pre-byte-key layout) is
    // refused, not reinterpreted — and likewise bytes offered at µ = 12.
    let msg = manifest_error(16, 8, ElemKind::U16, vec![1, 0, 2, 0]);
    assert!(msg.contains("U16") && msg.contains("U8"), "{msg}");
    let msg = manifest_error(24, 12, ElemKind::U8, vec![1, 2]);
    assert!(msg.contains("U8") && msg.contains("U16"), "{msg}");
    // The matching kinds load.
    let (artifact, lm) = hand_built(16, 8, ElemKind::U8, vec![1, 2]);
    assert!(load_weights(&artifact, &lm).is_ok());
    let (artifact, lm) = hand_built(24, 12, ElemKind::U16, vec![0xff, 0x0f, 0, 0]);
    assert!(load_weights(&artifact, &lm).is_ok());
}

#[test]
fn out_of_range_byte_keys_are_refused_in_full_and_ragged_chunks() {
    // µ = 4, n = 6: a full 4-bit chunk then a ragged 2-bit one.
    assert!(manifest_error(6, 4, ElemKind::U8, vec![16, 0]).contains("exceeds 4 bits"));
    assert!(manifest_error(6, 4, ElemKind::U8, vec![15, 4]).contains("exceeds 2 bits"));
    // µ = 8: full chunks are in range by type, the ragged 3-bit tail is not.
    assert!(manifest_error(11, 8, ElemKind::U8, vec![255, 8]).contains("exceeds 3 bits"));
    // A wrong key count is an error too, not an over-read.
    assert!(manifest_error(6, 4, ElemKind::U8, vec![1, 2, 3]).contains("length mismatch"));
    // Control: the largest in-range keys load.
    let (artifact, lm) = hand_built(6, 4, ElemKind::U8, vec![15, 3]);
    assert!(load_weights(&artifact, &lm).is_ok());
}

#[test]
fn version_2_files_are_refused_with_bad_version() {
    // Versions 1–2 stored every key as u16; there is no conversion path.
    let mut builder = ArtifactBuilder::new();
    let lm = snapshot_layer(&mut builder, 0, "fc", &biq_op(4, 16, 8, 9400), None);
    let (artifact, _) = one_layer_artifact(builder, lm);
    let mut old = artifact.as_bytes().to_vec();
    old[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert!(matches!(Artifact::from_bytes(old), Err(ArtifactError::BadVersion(2))));
}
