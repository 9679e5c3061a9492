//! Failure-injection tests for the one on-disk format, BIQM. A damaged
//! file must come back from `Artifact::from_bytes` →
//! `CompiledModel::from_artifact` as an error, or as a model that runs —
//! never a panic, never an abort. Loads run inside `catch_unwind`, so a
//! panic is reported with the offending mutation; an abort (say, an
//! allocation sized by a corrupted field) kills the test binary.
//!
//! Byte flips in a sealed file mostly stop at a checksum. The re-sealed
//! sweep therefore mutates the manifest and then seals the container again
//! around it, so every mutation reaches the manifest decoder and the model
//! rebuild behind it.

use biqgemm_repro::biq_artifact::{
    Artifact, ArtifactBuilder, ArtifactError, ModelManifest, SectionId,
};
use biqgemm_repro::biq_matrix::MatrixRng;
use biqgemm_repro::biq_nn::transformer::{Encoder, LayerBackend};
use biqgemm_repro::biq_nn::{CompiledModel, QuantMethod};
use biqgemm_repro::biqgemm_core::BiqConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// 2-bit greedy BiQGEMM on the shipped config (µ = 8, 32 chunks a tile —
/// more than these layers have).
fn biq() -> LayerBackend {
    LayerBackend::Biq {
        bits: 2,
        method: QuantMethod::Greedy,
        cfg: BiqConfig::default(),
        parallel: false,
    }
}

/// One 9×21 linear per backend family (the biq one with a bias), and a
/// one-layer transformer, as sealed BIQM files.
fn artifacts() -> Vec<(&'static str, Vec<u8>)> {
    let mut g = MatrixRng::seed_from(0xc0);
    let mut out = Vec::new();
    for (name, backend) in [
        ("biq linear", biq()),
        ("fp32 linear", LayerBackend::Fp32 { parallel: false }),
        ("xnor linear", LayerBackend::Xnor { bits: 2 }),
        ("int8 linear", LayerBackend::Int8),
    ] {
        let bias = (name == "biq linear").then(|| vec![0.5; 9]);
        let linear = backend.linear(g.gaussian(9, 21, 0.0, 1.0), bias);
        out.push((name, CompiledModel::Linear(linear).snapshot()));
    }
    let encoder = Encoder::random(&mut g, 1, 8, 16, 2, biq());
    out.push(("transformer", CompiledModel::Transformer(encoder).snapshot()));
    out
}

/// `artifact`'s sections sealed again around `manifest`.
fn reseal(artifact: &Artifact, manifest: &[u8]) -> Vec<u8> {
    let mut builder = ArtifactBuilder::new();
    for (i, s) in artifact.sections().iter().enumerate() {
        let payload = artifact.section_bytes(SectionId(i as u32)).unwrap().to_vec();
        builder.add_section(s.kind, s.elem, s.layer, payload);
    }
    builder.finish(manifest)
}

fn load(bytes: Vec<u8>) -> Result<CompiledModel, ArtifactError> {
    CompiledModel::from_artifact(&Artifact::from_bytes(bytes)?)
}

/// Loads `bytes` and runs whatever loads; panics with `what` if either
/// step panics. Returns whether the file loaded.
fn load_and_run(bytes: Vec<u8>, what: impl Fn() -> String) -> bool {
    let r = catch_unwind(AssertUnwindSafe(|| load(bytes).map(|m| m.run_seeded(1, 2)).is_ok()));
    r.unwrap_or_else(|_| panic!("panicked on {}", what()))
}

#[test]
fn truncated_and_bit_flipped_files_are_refused_not_crashed() {
    for (name, valid) in artifacts() {
        assert!(load_and_run(valid.clone(), || format!("{name}: the intact file")));
        for cut in 0..valid.len() {
            let loaded = load_and_run(valid[..cut].to_vec(), || format!("{name}: cut to {cut}"));
            assert!(!loaded, "{name}: a file cut to {cut} bytes loaded");
        }
        for off in 0..valid.len() {
            for pattern in [0xFFu8, 0x01, 0x80] {
                let mut data = valid.clone();
                data[off] ^= pattern;
                load_and_run(data, || format!("{name}: byte {off} ^ {pattern:#x}"));
            }
        }
    }
}

#[test]
fn resealed_manifest_mutations_are_refused_or_load_a_working_model() {
    for (name, valid) in artifacts() {
        let artifact = Artifact::from_bytes(valid).unwrap();
        let manifest = artifact.manifest_bytes().to_vec();
        let exact = reseal(&artifact, &manifest);
        assert_eq!(exact, artifact.as_bytes(), "{name}: reseal is exact");
        let mut loaded = 0;
        for off in 0..manifest.len() {
            for pattern in [0xFFu8, 0x80, 0x01] {
                let mut m = manifest.clone();
                m[off] ^= pattern;
                let what = || format!("{name}: manifest byte {off} ^ {pattern:#x}");
                loaded += usize::from(load_and_run(reseal(&artifact, &m), what));
            }
        }
        // Some fields (batch hint, tile sizes, kernel level) tolerate a
        // flip; most of the manifest does not.
        assert!(loaded < 3 * manifest.len(), "{name}: every mutation loaded");
    }
}

#[test]
fn retired_schedule_byte_loads_with_the_same_bits() {
    // Each layer's manifest entry keeps three bytes whose values are
    // retired, all written 0: the schedule (1 was the deleted shared-LUT
    // schedule), the LUT layout (1 was BatchMajor) and the LUT build (1 was
    // the deleted brute-force build). Schedule and layout byte 1 load with
    // the byte-0 bits: every schedule and layout realised the canonical
    // accumulation tree. Build byte 1 is refused, naming the build: its
    // tables round differently, so loading it as Algorithm 1 would move
    // bits silently. Any other value is `unknown`. Parallel plans are the
    // ones the schedule byte ever steered.
    let mut g = MatrixRng::seed_from(0xc6);
    let backend = LayerBackend::Biq {
        bits: 2,
        method: QuantMethod::Greedy,
        cfg: BiqConfig::default(),
        parallel: true,
    };
    let linear = backend.linear(g.gaussian(300, 40, 0.0, 1.0), None);
    let encoder = Encoder::random(&mut g, 1, 8, 16, 2, backend);
    let brute_force = "bad manifest: LUT build 1 (the retired brute-force build) is not supported";
    for (name, model) in [
        ("parallel biq linear", CompiledModel::Linear(linear)),
        ("parallel transformer", CompiledModel::Transformer(encoder)),
    ] {
        let artifact = Artifact::from_bytes(model.snapshot()).unwrap();
        let manifest = artifact.manifest_bytes().to_vec();
        let want: Vec<u32> = model.run_seeded(3, 33).iter().map(|v| v.to_bits()).collect();
        let layers = ModelManifest::decode(&manifest).unwrap().layers.len();
        let with = |at: &[usize], byte: u8| {
            let mut m = manifest.clone();
            at.iter().for_each(|&i| m[i] = byte);
            m
        };
        // `refused_one`: the error byte 1 meets, `None` when it loads.
        for (field, refused_one) in
            [("schedule", None), ("LUT layout", None), ("LUT build method", Some(brute_force))]
        {
            // The field's bytes, found by the decoder: the zero bytes that,
            // set to 2, fail with exactly `unknown <field> 2`.
            let unknown = format!("bad manifest: unknown {field} 2");
            let at: Vec<usize> = (0..manifest.len())
                .filter(|&i| manifest[i] == 0)
                .filter(|&i| {
                    let err = ModelManifest::decode(&with(&[i], 2)).err();
                    err.is_some_and(|e| e.to_string() == unknown)
                })
                .collect();
            assert_eq!(at.len(), layers, "{name}: one {field} byte per layer, all written 0");

            let one = load(reseal(&artifact, &with(&at, 1)));
            if let Some(msg) = refused_one {
                let err = one.err().map(|e| e.to_string());
                assert_eq!(err.as_deref(), Some(msg), "{name}: {field} byte 1");
            } else {
                let old = one.unwrap_or_else(|e| panic!("{name}: {field} byte 1 loads: {e}"));
                let got: Vec<u32> = old.run_seeded(3, 33).iter().map(|v| v.to_bits()).collect();
                assert!(got == want, "{name}: {field} byte 1 moved output bits");
                let current = load(artifact.as_bytes().to_vec()).expect("the intact file loads");
                assert_eq!(old.snapshot(), current.snapshot(), "{name}: a re-save writes byte 0");
            }

            let refused = load(reseal(&artifact, &with(&at, 2))).err().map(|e| e.to_string());
            assert_eq!(refused, Some(unknown), "{name}");
        }
    }
}

#[test]
fn random_garbage_is_rejected_not_crashed() {
    let mut g = MatrixRng::seed_from(0xc5);
    for len in [0usize, 3, 21, 64, 257] {
        let data: Vec<u8> =
            (0..len).map(|_| (g.uniform_f32(0.0, 256.0) as u32 & 0xff) as u8).collect();
        // Raw garbage, then the same bytes behind a valid magic and version.
        let mut headed = b"BIQM\x03\x00".to_vec();
        headed.extend_from_slice(&data);
        for bytes in [data, headed] {
            let n = bytes.len();
            assert!(!load_and_run(bytes, || format!("{n} bytes of garbage")));
        }
    }
}
