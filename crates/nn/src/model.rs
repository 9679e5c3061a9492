//! Whole-model snapshot and restore: any model in this crate ↔ one `BIQM`
//! artifact.
//!
//! [`CompiledModel`] wraps the four model families and walks their layer
//! graphs in a canonical order — the same order on both sides, so
//! [`CompiledModel::snapshot`] and [`CompiledModel::from_artifact`] are
//! exact inverses:
//!
//! * every [`Linear`] becomes one [`biq_artifact::LayerManifest`] plus
//!   payload sections exported through the runtime's packed-weights hook
//!   (no dense fp32 ships for quantized layers);
//! * layer norms and the embedding table become named fp32 parameter
//!   sections;
//! * model shape parameters (widths, depths, heads, special tokens) live
//!   in the manifest's `dims`.
//!
//! Restoring rebuilds each plan via `PlanBuilder` with the *stored*
//! resolved threading decision, binds it to packed weights that **borrow
//! the artifact buffer** (zero payload copies — the
//! [`biq_runtime::PackedPayload`] [`biq_artifact::load_weights`] returns),
//! and routes every layer through one shared executor so arenas warm to
//! the artifact's shapes exactly as a freshly constructed model's would. The round trip is bit-identical: a
//! loaded model produces the same outputs as the model it was snapshot
//! from, for every backend family.

use crate::embedding::Embedding;
use crate::layernorm::LayerNorm;
use crate::linear::Linear;
use crate::lstm::{Lstm, LstmCell};
use crate::seq2seq::{Seq2Seq, SpecialTokens};
use crate::transformer::{DecoderLayer, Encoder, EncoderLayer};
use biq_artifact::{
    compile_layer, load_bias, load_param, sec, snapshot_layer, Artifact, ArtifactBuilder,
    ArtifactError, LayerManifest, ModelKind, ModelManifest, SectionId,
};
use biq_matrix::store::PodStore;
use biq_matrix::{ColMatrix, Matrix, MatrixRng};
use biq_runtime::{BackendSpec, SharedExecutor};
use std::sync::Arc;

use crate::attention::MultiHeadAttention;

fn bad(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Manifest(msg.into())
}

/// A model wrapped for artifact snapshot/restore.
#[derive(Clone, Debug)]
pub enum CompiledModel {
    /// One linear layer.
    Linear(Linear),
    /// A Transformer encoder stack.
    Transformer(Encoder),
    /// A unidirectional LSTM.
    Lstm(Lstm),
    /// An encoder–decoder seq2seq Transformer.
    Seq2Seq(Seq2Seq),
}

// ---------------------------------------------------------------- snapshot

/// Accumulates layers and parameters into an [`ArtifactBuilder`] in
/// canonical order — the writer half of the model ↔ artifact bijection.
pub struct ModelBuilder {
    builder: ArtifactBuilder,
    layers: Vec<LayerManifest>,
    params: Vec<(String, SectionId)>,
}

impl ModelBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self { builder: ArtifactBuilder::new(), layers: Vec::new(), params: Vec::new() }
    }

    /// Exports one linear layer (plan + packed payload + bias).
    pub fn add_linear(&mut self, name: impl Into<String>, layer: &Linear) {
        let idx = self.layers.len() as u32;
        let op = layer.compiled_op();
        self.layers.push(snapshot_layer(&mut self.builder, idx, name, &op, layer.bias()));
    }

    /// Exports one named fp32 parameter section.
    pub fn add_param(&mut self, name: impl Into<String>, values: &[f32]) {
        let id = self.builder.add_f32_section(sec::PARAM, u32::MAX, values);
        self.params.push((name.into(), id));
    }

    /// Exports a layer norm as three parameter sections
    /// (`{prefix}.gamma/beta/eps`).
    pub fn add_layernorm(&mut self, prefix: &str, ln: &LayerNorm) {
        self.add_param(format!("{prefix}.gamma"), ln.gamma());
        self.add_param(format!("{prefix}.beta"), ln.beta());
        self.add_param(format!("{prefix}.eps"), &[ln.eps()]);
    }

    /// Seals the artifact around the manifest.
    pub fn finish(self, kind: ModelKind, dims: Vec<u64>) -> Vec<u8> {
        let manifest =
            ModelManifest { kind, dims, params: self.params, layers: self.layers }.encode();
        self.builder.finish(&manifest)
    }
}

impl Default for ModelBuilder {
    fn default() -> Self {
        Self::new()
    }
}

// The canonical layer-walk order. `named_linears`/`named_layernorms` are
// the single definition of it: snapshot writes what they yield, the
// `Restorer` consumes the same sequence, and serve registration reuses the
// same names — so the order cannot silently diverge between the three.

fn attention_linears<'a>(out: &mut Vec<(String, &'a Linear)>, p: &str, a: &'a MultiHeadAttention) {
    out.push((format!("{p}.wq"), a.wq()));
    out.push((format!("{p}.wk"), a.wk()));
    out.push((format!("{p}.wv"), a.wv()));
    out.push((format!("{p}.wo"), a.wo()));
}

fn encoder_linears<'a>(out: &mut Vec<(String, &'a Linear)>, prefix: &str, layer: &'a EncoderLayer) {
    attention_linears(out, &format!("{prefix}attn"), layer.attn());
    out.push((format!("{prefix}ff1"), layer.ff1()));
    out.push((format!("{prefix}ff2"), layer.ff2()));
}

fn decoder_linears<'a>(out: &mut Vec<(String, &'a Linear)>, prefix: &str, layer: &'a DecoderLayer) {
    attention_linears(out, &format!("{prefix}sa"), layer.self_attn());
    attention_linears(out, &format!("{prefix}ca"), layer.cross_attn());
    out.push((format!("{prefix}ff1"), layer.ff1()));
    out.push((format!("{prefix}ff2"), layer.ff2()));
}

impl CompiledModel {
    /// Which manifest kind this model snapshots as.
    pub fn kind(&self) -> ModelKind {
        match self {
            CompiledModel::Linear(_) => ModelKind::Linear,
            CompiledModel::Transformer(_) => ModelKind::Transformer,
            CompiledModel::Lstm(_) => ModelKind::Lstm,
            CompiledModel::Seq2Seq(_) => ModelKind::Seq2Seq,
        }
    }

    /// The manifest's kind-specific shape parameters.
    pub fn dims(&self) -> Vec<u64> {
        match self {
            CompiledModel::Linear(_) => vec![],
            CompiledModel::Transformer(enc) => {
                let l0 = &enc.layers()[0];
                vec![
                    l0.d_model() as u64,
                    l0.ff1().out_features() as u64,
                    l0.attn().heads() as u64,
                    enc.depth() as u64,
                ]
            }
            CompiledModel::Lstm(lstm) => {
                vec![lstm.cell().input_size() as u64, lstm.cell().hidden() as u64]
            }
            CompiledModel::Seq2Seq(s) => {
                let enc0 = &s.encoder().layers()[0];
                vec![
                    s.vocab() as u64,
                    s.embed().d_model() as u64,
                    enc0.ff1().out_features() as u64,
                    enc0.attn().heads() as u64,
                    s.encoder().depth() as u64,
                    s.decoder_layers().len() as u64,
                    s.specials().bos as u64,
                    s.specials().eos as u64,
                ]
            }
        }
    }

    /// Every linear layer with its canonical artifact name, in snapshot
    /// order (what `biq_serve::ModelRegistry::load_artifact` registers).
    pub fn named_linears(&self) -> Vec<(String, &Linear)> {
        let mut out: Vec<(String, &Linear)> = Vec::new();
        match self {
            CompiledModel::Linear(l) => out.push(("linear".into(), l)),
            CompiledModel::Transformer(enc) => {
                for (i, layer) in enc.layers().iter().enumerate() {
                    encoder_linears(&mut out, &format!("enc{i}."), layer);
                }
            }
            CompiledModel::Lstm(lstm) => {
                out.push(("lstm.w_ih".into(), lstm.cell().w_ih()));
                out.push(("lstm.w_hh".into(), lstm.cell().w_hh()));
            }
            CompiledModel::Seq2Seq(s) => {
                for (i, layer) in s.encoder().layers().iter().enumerate() {
                    encoder_linears(&mut out, &format!("enc{i}."), layer);
                }
                for (i, layer) in s.decoder_layers().iter().enumerate() {
                    decoder_linears(&mut out, &format!("dec{i}."), layer);
                }
                out.push(("out_proj".into(), s.out_proj()));
            }
        }
        out
    }

    /// Every layer norm with its canonical parameter-name prefix, in
    /// snapshot order (the embedding table, when present, precedes these in
    /// the manifest's param list).
    fn named_layernorms(&self) -> Vec<(String, &LayerNorm)> {
        let mut out: Vec<(String, &LayerNorm)> = Vec::new();
        match self {
            CompiledModel::Linear(_) | CompiledModel::Lstm(_) => {}
            CompiledModel::Transformer(enc) => {
                for (i, layer) in enc.layers().iter().enumerate() {
                    out.push((format!("enc{i}.ln1"), layer.ln1()));
                    out.push((format!("enc{i}.ln2"), layer.ln2()));
                }
            }
            CompiledModel::Seq2Seq(s) => {
                for (i, layer) in s.encoder().layers().iter().enumerate() {
                    out.push((format!("enc{i}.ln1"), layer.ln1()));
                    out.push((format!("enc{i}.ln2"), layer.ln2()));
                }
                for (i, layer) in s.decoder_layers().iter().enumerate() {
                    out.push((format!("dec{i}.ln1"), layer.ln1()));
                    out.push((format!("dec{i}.ln2"), layer.ln2()));
                    out.push((format!("dec{i}.ln3"), layer.ln3()));
                }
            }
        }
        out
    }

    /// Serializes the whole model into `BIQM` artifact bytes. The layer and
    /// parameter orders come from [`CompiledModel::named_linears`] /
    /// `named_layernorms`, so snapshot, restore and serve registration all
    /// share one definition of the walk.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut b = ModelBuilder::new();
        if let CompiledModel::Seq2Seq(s) = self {
            b.add_param("embed.table", s.embed().table().as_slice());
        }
        for (name, layer) in self.named_linears() {
            b.add_linear(name, layer);
        }
        for (prefix, ln) in self.named_layernorms() {
            b.add_layernorm(&prefix, ln);
        }
        b.finish(self.kind(), self.dims())
    }

    /// Writes the artifact to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.snapshot())
    }

    /// Reconstructs a model from a loaded artifact: plans rebuilt through
    /// `PlanBuilder`, packed weights borrowed zero-copy from the file
    /// buffer, all layers on one shared executor.
    pub fn from_artifact(artifact: &Artifact) -> Result<Self, ArtifactError> {
        let manifest = ModelManifest::decode(artifact.manifest_bytes())?;
        let mut r = Restorer {
            artifact,
            manifest: &manifest,
            layer_i: 0,
            param_i: 0,
            exec: SharedExecutor::new(),
        };
        let model = match manifest.kind {
            ModelKind::Linear => {
                let lm = r.peek_layer()?;
                let (m, n) = (lm.m, lm.n);
                let linear = r.next_linear("linear", m, n)?;
                r.done()?;
                CompiledModel::Linear(linear)
            }
            ModelKind::Transformer => {
                let [d_model, d_ff, heads, depth] = r.dims::<4>()?;
                validate_attention_dims(d_model, heads)?;
                if d_ff == 0 || depth == 0 {
                    return Err(bad("transformer d_ff and depth must be positive"));
                }
                let layers = (0..depth)
                    .map(|i| r.encoder_layer(&format!("enc{i}."), d_model, d_ff, heads))
                    .collect::<Result<Vec<_>, _>>()?;
                r.done()?;
                CompiledModel::Transformer(Encoder::from_layers(layers))
            }
            ModelKind::Lstm => {
                let [input, hidden] = r.dims::<2>()?;
                if input == 0 || hidden == 0 {
                    return Err(bad("zero LSTM dimension"));
                }
                let w_ih = r.next_linear("lstm.w_ih", 4 * hidden, input)?;
                let w_hh = r.next_linear("lstm.w_hh", 4 * hidden, hidden)?;
                r.done()?;
                CompiledModel::Lstm(Lstm::new(LstmCell::new(w_ih, w_hh)))
            }
            ModelKind::Seq2Seq => {
                let [vocab, d_model, d_ff, heads, enc_layers, dec_layers, bos, eos] =
                    r.dims::<8>()?;
                validate_attention_dims(d_model, heads)?;
                if d_ff == 0 || enc_layers == 0 {
                    return Err(bad("seq2seq d_ff and encoder depth must be positive"));
                }
                if vocab < 4 || bos >= vocab || eos >= vocab {
                    return Err(bad("special tokens outside vocabulary"));
                }
                let table = r.next_param_shared("embed.table", vocab * d_model)?;
                let embed = Embedding::new(Matrix::from_shared(vocab, d_model, table));
                let enc = (0..enc_layers)
                    .map(|i| r.encoder_layer(&format!("enc{i}."), d_model, d_ff, heads))
                    .collect::<Result<Vec<_>, _>>()?;
                // dec_layers = 0 is legitimate (encoder + output projection
                // only); the decode loop simply runs no decoder layers.
                let dec = (0..dec_layers)
                    .map(|i| r.decoder_layer(&format!("dec{i}."), d_model, d_ff, heads))
                    .collect::<Result<Vec<_>, _>>()?;
                let out_proj = r.next_linear("out_proj", vocab, d_model)?;
                r.done()?;
                CompiledModel::Seq2Seq(Seq2Seq::from_parts(
                    embed,
                    Encoder::from_layers(enc),
                    dec,
                    out_proj,
                    SpecialTokens { bos, eos },
                ))
            }
        };
        Ok(model)
    }

    /// Opens and reconstructs a model from an artifact file.
    pub fn load(path: &std::path::Path) -> Result<Self, ArtifactError> {
        Self::from_artifact(&Artifact::open(path)?)
    }

    /// One-line structural description (CLI reporting).
    pub fn describe(&self) -> String {
        match self {
            CompiledModel::Linear(l) => {
                let family = match l.plan().spec {
                    BackendSpec::Fp32Naive | BackendSpec::Fp32Blocked => "Fp32",
                    BackendSpec::Int8 => "Int8",
                    BackendSpec::Xnor { .. } => "Xnor",
                    BackendSpec::Biq { .. } => "Biq",
                };
                format!("linear {}x{} [{family}]", l.out_features(), l.in_features())
            }
            CompiledModel::Transformer(_) => {
                let d = self.dims();
                format!(
                    "transformer encoder: d_model {} d_ff {} heads {} depth {}",
                    d[0], d[1], d[2], d[3]
                )
            }
            CompiledModel::Lstm(lstm) => {
                format!("lstm: input {} hidden {}", lstm.cell().input_size(), lstm.cell().hidden())
            }
            CompiledModel::Seq2Seq(_) => {
                let d = self.dims();
                format!(
                    "seq2seq: vocab {} d_model {} d_ff {} heads {} enc {} dec {}",
                    d[0], d[1], d[2], d[3], d[4], d[5]
                )
            }
        }
    }

    /// Runs one deterministic seeded inference — the CLI `run-model` body
    /// and the round-trip tests' comparison signal. Returns the flat fp32
    /// output (token ids as floats for seq2seq).
    pub fn run_seeded(&self, seed: u64, len: usize) -> Vec<f32> {
        let len = len.max(1);
        let mut g = MatrixRng::seed_from(seed);
        match self {
            CompiledModel::Linear(l) => {
                let x = g.gaussian_col(l.in_features(), len, 0.0, 1.0);
                l.forward(&x).as_slice().to_vec()
            }
            CompiledModel::Transformer(enc) => {
                let d_model = enc.layers()[0].d_model();
                let x = g.gaussian_col(d_model, len, 0.0, 1.0);
                enc.forward(&x).as_slice().to_vec()
            }
            CompiledModel::Lstm(lstm) => {
                let input = lstm.cell().input_size();
                let seq: Vec<ColMatrix> =
                    (0..len).map(|_| g.gaussian_col(input, 1, 0.0, 1.0)).collect();
                lstm.forward(&seq).iter().flat_map(|h| h.as_slice().to_vec()).collect()
            }
            CompiledModel::Seq2Seq(s) => {
                let vocab = s.vocab();
                let src: Vec<usize> = (0..len)
                    .map(|_| (g.uniform_f32(0.0, vocab as f32) as usize).min(vocab - 1))
                    .collect();
                s.greedy_decode(&src, 2 * len).iter().map(|&t| t as f32).collect()
            }
        }
    }
}

fn validate_attention_dims(d_model: usize, heads: usize) -> Result<(), ArtifactError> {
    if d_model == 0 || heads == 0 || !d_model.is_multiple_of(heads) {
        return Err(bad(format!("heads {heads} must divide d_model {d_model}")));
    }
    Ok(())
}

// ----------------------------------------------------------------- restore

/// Cursor walking a manifest's layers/params in canonical order, verifying
/// names and shapes before any constructor (whose asserts would otherwise
/// panic on hostile manifests) runs.
struct Restorer<'a> {
    artifact: &'a Artifact,
    manifest: &'a ModelManifest,
    layer_i: usize,
    param_i: usize,
    exec: SharedExecutor,
}

impl Restorer<'_> {
    fn dims<const N: usize>(&self) -> Result<[usize; N], ArtifactError> {
        if self.manifest.dims.len() != N {
            return Err(bad(format!(
                "{} dims, expected {N} for {:?}",
                self.manifest.dims.len(),
                self.manifest.kind
            )));
        }
        let mut out = [0usize; N];
        for (o, &d) in out.iter_mut().zip(&self.manifest.dims) {
            // Zero is legitimate for token ids (bos); per-kind code checks
            // the dims that must be positive. The cap keeps every product
            // of two dims (e.g. the `vocab · d_model` embedding size) far
            // from usize overflow on hostile manifests.
            if d > biq_artifact::MAX_DIM as u64 {
                return Err(bad(format!("dim {d} exceeds the 2^24 cap")));
            }
            *o = d as usize;
        }
        Ok(out)
    }

    fn peek_layer(&self) -> Result<&LayerManifest, ArtifactError> {
        self.manifest.layers.get(self.layer_i).ok_or_else(|| bad("missing layer"))
    }

    fn next_linear(&mut self, name: &str, m: usize, n: usize) -> Result<Linear, ArtifactError> {
        let lm = self
            .manifest
            .layers
            .get(self.layer_i)
            .ok_or_else(|| bad(format!("layer list exhausted looking for '{name}'")))?;
        self.layer_i += 1;
        if lm.name != name {
            return Err(bad(format!(
                "layer {} is '{}', expected '{name}'",
                self.layer_i - 1,
                lm.name
            )));
        }
        if lm.m != m || lm.n != n {
            return Err(bad(format!(
                "layer '{name}' is {}x{}, model graph expects {m}x{n}",
                lm.m, lm.n
            )));
        }
        let op = compile_layer(self.artifact, lm)?;
        let bias = load_bias(self.artifact, lm)?;
        Ok(Linear::from_compiled_op(Arc::new(op), bias, self.exec.clone()))
    }

    fn next_param(&mut self, name: &str, want: usize) -> Result<PodStore<f32>, ArtifactError> {
        Ok(self.next_param_shared(name, want)?.into())
    }

    fn next_param_shared(
        &mut self,
        name: &str,
        want: usize,
    ) -> Result<biq_matrix::store::PodView<f32>, ArtifactError> {
        let (got_name, id) = self
            .manifest
            .params
            .get(self.param_i)
            .ok_or_else(|| bad(format!("param list exhausted looking for '{name}'")))?;
        self.param_i += 1;
        if got_name != name {
            return Err(bad(format!("param is '{got_name}', expected '{name}'")));
        }
        load_param(self.artifact, *id, want, name)
    }

    fn layernorm(&mut self, prefix: &str, dim: usize) -> Result<LayerNorm, ArtifactError> {
        let gamma = self.next_param(&format!("{prefix}.gamma"), dim)?;
        let beta = self.next_param(&format!("{prefix}.beta"), dim)?;
        let eps = self.next_param(&format!("{prefix}.eps"), 1)?[0];
        if !eps.is_finite() {
            return Err(bad("layer-norm eps must be finite"));
        }
        Ok(LayerNorm::with_param_stores(gamma, beta, eps))
    }

    fn attention(
        &mut self,
        prefix: &str,
        d_model: usize,
        heads: usize,
    ) -> Result<MultiHeadAttention, ArtifactError> {
        let wq = self.next_linear(&format!("{prefix}.wq"), d_model, d_model)?;
        let wk = self.next_linear(&format!("{prefix}.wk"), d_model, d_model)?;
        let wv = self.next_linear(&format!("{prefix}.wv"), d_model, d_model)?;
        let wo = self.next_linear(&format!("{prefix}.wo"), d_model, d_model)?;
        Ok(MultiHeadAttention::new(wq, wk, wv, wo, heads))
    }

    fn encoder_layer(
        &mut self,
        prefix: &str,
        d_model: usize,
        d_ff: usize,
        heads: usize,
    ) -> Result<EncoderLayer, ArtifactError> {
        let attn = self.attention(&format!("{prefix}attn"), d_model, heads)?;
        let ff1 = self.next_linear(&format!("{prefix}ff1"), d_ff, d_model)?;
        let ff2 = self.next_linear(&format!("{prefix}ff2"), d_model, d_ff)?;
        let ln1 = self.layernorm(&format!("{prefix}ln1"), d_model)?;
        let ln2 = self.layernorm(&format!("{prefix}ln2"), d_model)?;
        Ok(EncoderLayer::new(attn, ff1, ff2, ln1, ln2))
    }

    fn decoder_layer(
        &mut self,
        prefix: &str,
        d_model: usize,
        d_ff: usize,
        heads: usize,
    ) -> Result<DecoderLayer, ArtifactError> {
        let sa = self.attention(&format!("{prefix}sa"), d_model, heads)?;
        let ca = self.attention(&format!("{prefix}ca"), d_model, heads)?;
        let ff1 = self.next_linear(&format!("{prefix}ff1"), d_ff, d_model)?;
        let ff2 = self.next_linear(&format!("{prefix}ff2"), d_model, d_ff)?;
        let ln1 = self.layernorm(&format!("{prefix}ln1"), d_model)?;
        let ln2 = self.layernorm(&format!("{prefix}ln2"), d_model)?;
        let ln3 = self.layernorm(&format!("{prefix}ln3"), d_model)?;
        Ok(DecoderLayer::new(sa, ca, ff1, ff2, ln1, ln2, ln3))
    }

    /// Verifies the manifest holds nothing beyond what the model graph
    /// consumed (stray sections would otherwise silently ship).
    fn done(&self) -> Result<(), ArtifactError> {
        if self.layer_i != self.manifest.layers.len() {
            return Err(bad(format!(
                "{} unconsumed layer entries",
                self.manifest.layers.len() - self.layer_i
            )));
        }
        if self.param_i != self.manifest.params.len() {
            return Err(bad(format!(
                "{} unconsumed param entries",
                self.manifest.params.len() - self.param_i
            )));
        }
        Ok(())
    }
}
