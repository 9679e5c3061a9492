//! Layer-level snapshot and restore: compiled op ↔ sections.
//!
//! [`snapshot_layer`] exports a [`CompiledOp`]'s [`PackedPayload`] into
//! container sections and returns the [`LayerManifest`] describing them.
//! [`compile_layer`] is the inverse: it validates the referenced sections,
//! wraps them in zero-copy views (keys, scales, sign words, dense values
//! all stay borrowed from the file buffer) and binds them to the plan
//! [`biq_runtime::PlanBuilder`] rebuilds, through [`CompiledOp::new`] — so
//! a loaded model runs the exact kernels a freshly quantized one does,
//! without paying the quantize/pack cost.

use crate::container::{Artifact, ArtifactBuilder, ArtifactError, ElemKind, SectionId};
use crate::manifest::{sec, LayerManifest, PayloadRefs};
use biq_gemm::int8::Int8Weights;
use biq_gemm::xnor::XnorWeights;
use biq_matrix::store::PodStore;
use biq_matrix::Matrix;
use biq_quant::packing::{key_bytes, KeyMatrix, KeyStore, PackedRowsU64};
use biq_runtime::{
    BackendSpec, CompiledOp, ExecutionPlan, KernelRequest, PackedPayload, PlanBuilder, Threading,
};
use biqgemm_core::BiqWeights;

fn bad(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Manifest(msg.into())
}

// ---------------------------------------------------------------- snapshot

/// Element kind of a BiQGEMM key section at LUT-unit `mu`: the stored key
/// width ([`key_bytes`]) decides it, nothing else.
fn key_elem(mu: usize) -> ElemKind {
    if key_bytes(mu) == 1 {
        ElemKind::U8
    } else {
        ElemKind::U16
    }
}

fn u64_bytes(v: &[u64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn i8_bytes(v: &[i8]) -> Vec<u8> {
    v.iter().map(|&x| x as u8).collect()
}

/// Exports `op` (and its optional bias) into `builder` sections, returning
/// the manifest entry that will locate them again. `layer` tags the
/// sections for `biq inspect`.
pub fn snapshot_layer(
    builder: &mut ArtifactBuilder,
    layer: u32,
    name: impl Into<String>,
    op: &CompiledOp,
    bias: Option<&[f32]>,
) -> LayerManifest {
    let plan = op.plan();
    let payload = match op.payload() {
        PackedPayload::Dense(w) => {
            PayloadRefs::Dense { dense: builder.add_f32_section(sec::DENSE, layer, w.as_slice()) }
        }
        PackedPayload::Biq(w) => {
            let mut keys = Vec::with_capacity(w.keys().storage_bytes());
            w.keys().encode_le(&mut keys);
            PayloadRefs::Biq {
                keys: builder.add_section(sec::KEYS, key_elem(w.mu()), layer, keys),
                scales: builder.add_f32_section(sec::SCALES, layer, w.scales()),
            }
        }
        PackedPayload::Xnor(w) => PayloadRefs::Xnor {
            planes: w
                .planes()
                .iter()
                .map(|(scales, words)| {
                    (
                        builder.add_f32_section(sec::XNOR_SCALES, layer, scales.as_slice()),
                        builder.add_section(
                            sec::XNOR_WORDS,
                            ElemKind::U64,
                            layer,
                            u64_bytes(words.as_words()),
                        ),
                    )
                })
                .collect(),
        },
        PackedPayload::Int8(w) => PayloadRefs::Int8 {
            data: builder.add_section(sec::INT8_DATA, ElemKind::I8, layer, i8_bytes(w.as_slice())),
            scales: builder.add_f32_section(sec::INT8_SCALES, layer, w.row_scales()),
        },
    };
    let bias = bias.map(|b| builder.add_f32_section(sec::BIAS, layer, b));
    LayerManifest {
        name: name.into(),
        m: op.output_size(),
        n: op.input_size(),
        batch_hint: plan.batch_hint,
        spec: plan.spec,
        cfg: plan.cfg,
        parallel: plan.workers.is_some(),
        kernel: plan.kernel.level(),
        bias,
        payload,
    }
}

// ----------------------------------------------------------------- restore

impl LayerManifest {
    /// Rebuilds the layer's execution plan exactly as stored: the resolved
    /// threading decision is pinned (no machine-dependent auto choice),
    /// the full `BiqConfig` bypasses the planner's search, and the
    /// recorded kernel level re-resolves under the portability rule —
    /// [`KernelRequest::AtMost`] keeps the compiled level where the host
    /// supports it and otherwise drops to the richest host level of no
    /// higher rank, bit-identically either way.
    pub fn plan(&self) -> ExecutionPlan {
        PlanBuilder::new(self.m, self.n)
            .batch_hint(self.batch_hint)
            .backend(self.spec)
            .config(self.cfg)
            .threading(if self.parallel { Threading::Parallel } else { Threading::Serial })
            .kernel(KernelRequest::AtMost(self.kernel))
            .build()
    }
}

/// Typed zero-copy section fetch with an exact element-count requirement.
fn f32_view(
    artifact: &Artifact,
    id: SectionId,
    want: usize,
    what: &str,
) -> Result<PodStore<f32>, ArtifactError> {
    let view = artifact.section_view::<f32>(id, ElemKind::F32)?;
    if view.as_slice().len() != want {
        return Err(bad(format!("{what}: {} floats, expected {want}", view.as_slice().len())));
    }
    Ok(view.into())
}

/// Loads and validates the packed weights a layer manifest references,
/// producing a runtime [`PackedPayload`] whose buffers borrow the artifact.
pub fn load_weights(
    artifact: &Artifact,
    lm: &LayerManifest,
) -> Result<PackedPayload, ArtifactError> {
    let (m, n) = (lm.m, lm.n);
    match (&lm.payload, lm.spec) {
        (PayloadRefs::Dense { dense }, BackendSpec::Fp32Naive | BackendSpec::Fp32Blocked) => {
            let view = artifact.section_view::<f32>(*dense, ElemKind::F32)?;
            if view.as_slice().len() != m * n {
                return Err(bad(format!(
                    "dense payload holds {} floats, expected {m}x{n}",
                    view.as_slice().len()
                )));
            }
            Ok(PackedPayload::Dense(Matrix::from_shared(m, n, view)))
        }
        (PayloadRefs::Biq { keys, scales }, BackendSpec::Biq { bits, .. }) => {
            let mu = lm.cfg.mu;
            let key_rows = bits.checked_mul(m).ok_or_else(|| bad("key row count overflow"))?;
            // The section's element kind must be the one µ implies (a
            // mismatch is a manifest error, not a reinterpretation); then
            // one validating pass (length + key ranges), zero copies — the
            // fallible constructor errors instead of asserting on hostile
            // input.
            let store = match key_elem(mu) {
                ElemKind::U8 => KeyStore::U8(artifact.section_view(*keys, ElemKind::U8)?.into()),
                _ => KeyStore::U16(artifact.section_view(*keys, ElemKind::U16)?.into()),
            };
            let keys =
                KeyMatrix::try_new(key_rows, n, mu, store).map_err(|e| bad(e.to_string()))?;
            let scales = f32_view(artifact, *scales, key_rows, "biq scales")?;
            Ok(PackedPayload::Biq(BiqWeights::from_parts_store(keys, scales, m, n, bits)))
        }
        (PayloadRefs::Xnor { planes }, BackendSpec::Xnor { bits }) => {
            if planes.len() != bits {
                return Err(bad(format!("{} xnor planes, spec says {bits} bits", planes.len())));
            }
            let mut stores = Vec::with_capacity(planes.len());
            for (scales_id, words_id) in planes {
                let scales = f32_view(artifact, *scales_id, m, "xnor scales")?;
                let wview = artifact.section_view::<u64>(*words_id, ElemKind::U64)?;
                let words = PackedRowsU64::try_from_shared(m, n, wview).map_err(bad)?;
                stores.push((scales, words));
            }
            Ok(PackedPayload::Xnor(XnorWeights::from_plane_stores(stores)))
        }
        (PayloadRefs::Int8 { data, scales }, BackendSpec::Int8) => {
            let dview = artifact.section_view::<i8>(*data, ElemKind::I8)?;
            if dview.as_slice().len() != m * n {
                return Err(bad(format!(
                    "{} int8 values, expected {m}x{n}",
                    dview.as_slice().len()
                )));
            }
            let scales = f32_view(artifact, *scales, m, "int8 scales")?;
            Ok(PackedPayload::Int8(Int8Weights::from_parts(m, n, dview.into(), scales)))
        }
        (payload, spec) => Err(bad(format!(
            "payload family {} does not fit backend spec {spec:?}",
            match payload {
                PayloadRefs::Dense { .. } => "dense",
                PayloadRefs::Biq { .. } => "biq",
                PayloadRefs::Xnor { .. } => "xnor",
                PayloadRefs::Int8 { .. } => "int8",
            }
        ))),
    }
}

/// Rebuilds a layer's compiled op from the artifact: plan via
/// [`LayerManifest::plan`], weights via [`load_weights`] (zero-copy).
pub fn compile_layer(artifact: &Artifact, lm: &LayerManifest) -> Result<CompiledOp, ArtifactError> {
    // Pre-validate the kernel re-resolution so a bad `BIQ_KERNEL` override
    // surfaces as a clean artifact error here instead of a panic inside
    // `lm.plan()` (`PlanBuilder::build` panics on resolution failure).
    KernelRequest::AtMost(lm.kernel).resolve().map_err(|e| bad(e.to_string()))?;
    let plan = lm.plan();
    Ok(CompiledOp::new(plan, load_weights(artifact, lm)?))
}

/// Loads a layer's bias section (if any), validated to `m` floats.
pub fn load_bias(
    artifact: &Artifact,
    lm: &LayerManifest,
) -> Result<Option<PodStore<f32>>, ArtifactError> {
    lm.bias.map(|id| f32_view(artifact, id, lm.m, "bias")).transpose()
}

/// Loads a model-level fp32 parameter section of exactly `want` values as
/// a zero-copy view.
pub fn load_param(
    artifact: &Artifact,
    id: SectionId,
    want: usize,
    what: &str,
) -> Result<biq_matrix::store::PodView<f32>, ArtifactError> {
    let view = artifact.section_view::<f32>(id, ElemKind::F32)?;
    if view.as_slice().len() != want {
        return Err(bad(format!("{what}: {} floats, expected {want}", view.as_slice().len())));
    }
    Ok(view)
}
