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

use biqgemm_repro::biq_artifact::{Artifact, ArtifactBuilder, ArtifactError, SectionId};
use biqgemm_repro::biq_matrix::MatrixRng;
use biqgemm_repro::biq_nn::transformer::{Encoder, LayerBackend};
use biqgemm_repro::biq_nn::{CompiledModel, QuantMethod};
use biqgemm_repro::biqgemm_core::BiqConfig;
use bytes::Bytes;
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
        out.push((name, CompiledModel::Linear(linear).snapshot().to_vec()));
    }
    let encoder = Encoder::random(&mut g, 1, 8, 16, 2, biq());
    out.push(("transformer", CompiledModel::Transformer(encoder).snapshot().to_vec()));
    out
}

fn load(bytes: Vec<u8>) -> Result<CompiledModel, ArtifactError> {
    CompiledModel::from_artifact(&Artifact::from_bytes(Bytes::from(bytes))?)
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
        let artifact = Artifact::from_bytes(Bytes::from(valid)).unwrap();
        let manifest = artifact.manifest_bytes().to_vec();
        let reseal = |manifest: &[u8]| {
            let mut builder = ArtifactBuilder::new();
            for (i, s) in artifact.sections().iter().enumerate() {
                let payload = artifact.section_bytes(SectionId(i as u32)).unwrap().to_vec();
                builder.add_section(s.kind, s.elem, s.layer, payload);
            }
            builder.finish(manifest).to_vec()
        };
        assert_eq!(reseal(&manifest), artifact.as_bytes().as_ref(), "{name}: reseal is exact");
        let mut loaded = 0;
        for off in 0..manifest.len() {
            for pattern in [0xFFu8, 0x80, 0x01] {
                let mut m = manifest.clone();
                m[off] ^= pattern;
                let what = || format!("{name}: manifest byte {off} ^ {pattern:#x}");
                loaded += usize::from(load_and_run(reseal(&m), what));
            }
        }
        // Some fields (batch hint, tile sizes, kernel level) tolerate a
        // flip; most of the manifest does not.
        assert!(loaded < 3 * manifest.len(), "{name}: every mutation loaded");
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
