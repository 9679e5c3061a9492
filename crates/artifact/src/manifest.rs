//! The model manifest: the layer graph and plan parameters stored inside a
//! `BIQM` container.
//!
//! The manifest is what turns a bag of sections back into a runnable model:
//! it records the model family and its shape parameters, the name, plan
//! (backend spec, `BiqConfig`, threading, batch hint) and section
//! references of every linear layer, plus model-level fp32 parameter
//! sections (layer-norm γ/β, embedding tables). Payload bytes never live
//! here — only `SectionId` references into the TOC.
//!
//! Decoding is hardened: every read checks the remaining length, every
//! count is sanity-capped, and unknown tags are errors — hostile manifests
//! fail with [`ArtifactError::Manifest`], never a panic.

use crate::container::{ArtifactError, SectionId};
use biq_runtime::{BackendSpec, QuantMethod};
use biqgemm_core::{BiqConfig, KernelLevel, KernelRequest};

/// Section `kind` tags referenced by manifests (free-form u32 namespace of
/// the container TOC).
pub mod sec {
    /// BiQGEMM key matrix (`u8` for µ ≤ 8, `u16` for µ 9–16).
    pub const KEYS: u32 = 1;
    /// BiQGEMM stacked per-key-row scales (`f32`).
    pub const SCALES: u32 = 2;
    /// Dense fp32 weight matrix, row-major (`f32`).
    pub const DENSE: u32 = 3;
    /// XNOR plane per-row scales (`f32`).
    pub const XNOR_SCALES: u32 = 4;
    /// XNOR plane packed sign words (`u64`).
    pub const XNOR_WORDS: u32 = 5;
    /// Int8 weight values, row-major (`i8`).
    pub const INT8_DATA: u32 = 6;
    /// Int8 per-row scales (`f32`).
    pub const INT8_SCALES: u32 = 7;
    /// Layer bias (`f32`).
    pub const BIAS: u32 = 8;
    /// Model-level fp32 parameter (layer-norm γ/β, embedding table).
    pub const PARAM: u32 = 9;
}

/// Human-readable name of a section kind tag (for `biq inspect`).
pub fn sec_kind_name(kind: u32) -> &'static str {
    match kind {
        sec::KEYS => "keys",
        sec::SCALES => "scales",
        sec::DENSE => "dense",
        sec::XNOR_SCALES => "xnor-scales",
        sec::XNOR_WORDS => "xnor-words",
        sec::INT8_DATA => "int8-data",
        sec::INT8_SCALES => "int8-scales",
        sec::BIAS => "bias",
        sec::PARAM => "param",
        _ => "unknown",
    }
}

/// Which model family the artifact holds (decides how `layers`/`params`
/// reassemble).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// A single linear layer.
    Linear,
    /// A Transformer encoder stack (`dims = [d_model, d_ff, heads, depth]`).
    Transformer,
    /// A unidirectional LSTM (`dims = [input_size, hidden]`).
    Lstm,
    /// An encoder–decoder seq2seq Transformer
    /// (`dims = [vocab, d_model, d_ff, heads, enc_layers, dec_layers, bos, eos]`).
    Seq2Seq,
}

impl ModelKind {
    fn to_u8(self) -> u8 {
        match self {
            ModelKind::Linear => 0,
            ModelKind::Transformer => 1,
            ModelKind::Lstm => 2,
            ModelKind::Seq2Seq => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ArtifactError> {
        Ok(match v {
            0 => ModelKind::Linear,
            1 => ModelKind::Transformer,
            2 => ModelKind::Lstm,
            3 => ModelKind::Seq2Seq,
            other => return Err(bad(format!("unknown model kind {other}"))),
        })
    }

    /// Stable lowercase name (CLI/reporting).
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Linear => "linear",
            ModelKind::Transformer => "transformer",
            ModelKind::Lstm => "lstm",
            ModelKind::Seq2Seq => "seq2seq",
        }
    }
}

/// Section references of one layer's packed payload, by kernel family.
#[derive(Clone, Debug)]
pub enum PayloadRefs {
    /// Dense fp32 weights.
    Dense {
        /// Row-major `m × n` f32 section.
        dense: SectionId,
    },
    /// BiQGEMM keys + stacked scales.
    Biq {
        /// `(bits·m) × ⌈n/µ⌉` key section, `⌈µ/8⌉` bytes per key.
        keys: SectionId,
        /// `bits·m` f32 scale section.
        scales: SectionId,
    },
    /// XNOR planes, one `(scales, words)` pair per weight bit.
    Xnor {
        /// Per-plane `(f32 scales, u64 words)` sections.
        planes: Vec<(SectionId, SectionId)>,
    },
    /// Int8 values + per-row scales.
    Int8 {
        /// `m × n` i8 section.
        data: SectionId,
        /// `m` f32 section.
        scales: SectionId,
    },
}

/// Everything needed to rebuild one linear layer: plan parameters plus
/// payload section references.
#[derive(Clone, Debug)]
pub struct LayerManifest {
    /// Registration/reporting name (e.g. `enc0.attn.wq`).
    pub name: String,
    /// Output size `m`.
    pub m: usize,
    /// Input size `n`.
    pub n: usize,
    /// The plan's batch hint.
    pub batch_hint: usize,
    /// Kernel family + quantization recipe.
    pub spec: BackendSpec,
    /// Full engine configuration (µ, tiles, kernel request).
    pub cfg: BiqConfig,
    /// The resolved threading decision (stored resolved so a loaded model
    /// plans identically on any machine).
    pub parallel: bool,
    /// The kernel level the layer was **compiled** with (the plan's
    /// resolved level). On load it is re-resolved via
    /// [`biqgemm_core::KernelRequest::AtMost`]: the same level where the
    /// host supports it, else the richest host level of no higher rank —
    /// outputs stay bit-identical either way (the kernel layer's
    /// bit-exactness contract).
    pub kernel: KernelLevel,
    /// Optional bias section (`m` f32).
    pub bias: Option<SectionId>,
    /// Packed payload references.
    pub payload: PayloadRefs,
}

/// The artifact's model graph.
#[derive(Clone, Debug)]
pub struct ModelManifest {
    /// Model family.
    pub kind: ModelKind,
    /// Kind-specific shape parameters (see [`ModelKind`] docs).
    pub dims: Vec<u64>,
    /// Named model-level fp32 parameter sections, in reassembly order.
    pub params: Vec<(String, SectionId)>,
    /// Linear layers, in reassembly order.
    pub layers: Vec<LayerManifest>,
}

/// Upper bound on any single layer/model dimension (2^24 = 16M — an order
/// of magnitude above the largest shape the paper names), so products of
/// two dims and a bit count can never overflow `usize` on 64-bit hosts.
pub const MAX_DIM: usize = 1 << 24;

/// Upper bound on a stored batch hint.
pub const MAX_BATCH_HINT: usize = 1 << 20;

/// Most weight bits (binary-coding planes) a biq or xnor layer may store;
/// the loader refuses more, so writers check against the same bound.
pub const MAX_BITS: usize = 32;

fn bad(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Manifest(msg.into())
}

// ---------------------------------------------------------------- encoding

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_spec(buf: &mut Vec<u8>, spec: &BackendSpec) {
    let (tag, bits, method, iters) = match *spec {
        BackendSpec::Fp32Naive => (0, 0, 0, 0),
        BackendSpec::Fp32Blocked => (1, 0, 0, 0),
        BackendSpec::Int8 => (2, 0, 0, 0),
        BackendSpec::Xnor { bits } => (3, bits, 0, 0),
        BackendSpec::Biq { bits, method: QuantMethod::Greedy } => (4, bits, 0, 0),
        BackendSpec::Biq { bits, method: QuantMethod::Alternating { iters } } => {
            (4, bits, 1, iters)
        }
    };
    buf.extend_from_slice(&[tag, bits as u8, method]);
    put_u32(buf, iters as u32);
}

fn put_cfg(buf: &mut Vec<u8>, cfg: &BiqConfig) {
    buf.push(cfg.mu as u8);
    for dim in [cfg.tile_rows, cfg.tile_chunks, cfg.tile_batch] {
        put_u32(buf, dim as u32);
    }
    let (req_tag, req_level) = match cfg.kernel {
        KernelRequest::Auto => (0u8, 0u8),
        KernelRequest::Exact(l) => (1, level_to_u8(l)),
        KernelRequest::AtMost(l) => (2, level_to_u8(l)),
    };
    // The LUT build, LUT layout and schedule bytes keep their places, their
    // values retired: Algorithm 1 is the only build, the layout follows
    // each tile's width and row-parallel is the only parallel driver, so
    // all three are always 0 (see `cfg` below).
    buf.extend_from_slice(&[0, 0, 0, req_tag, req_level]);
}

fn level_to_u8(l: KernelLevel) -> u8 {
    match l {
        KernelLevel::Scalar => 0,
        KernelLevel::Avx2 => 1,
        KernelLevel::Avx512 => 2,
        KernelLevel::Neon => 3,
    }
}

fn level_from_u8(v: u8) -> Result<KernelLevel, ArtifactError> {
    Ok(match v {
        0 => KernelLevel::Scalar,
        1 => KernelLevel::Avx2,
        2 => KernelLevel::Avx512,
        3 => KernelLevel::Neon,
        other => return Err(bad(format!("unknown kernel level {other}"))),
    })
}

fn put_payload(buf: &mut Vec<u8>, payload: &PayloadRefs) {
    let (tag, ids) = match payload {
        PayloadRefs::Dense { dense } => (0, vec![dense.0]),
        PayloadRefs::Biq { keys, scales } => (1, vec![keys.0, scales.0]),
        PayloadRefs::Xnor { planes } => {
            let ids = planes.iter().flat_map(|(scales, words)| [scales.0, words.0]);
            (2, [planes.len() as u32].into_iter().chain(ids).collect())
        }
        PayloadRefs::Int8 { data, scales } => (3, vec![data.0, scales.0]),
    };
    buf.push(tag);
    ids.into_iter().for_each(|id| put_u32(buf, id));
}

impl ModelManifest {
    /// Serializes the manifest (the byte payload the container stores).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![self.kind.to_u8()];
        put_u32(&mut buf, self.dims.len() as u32);
        self.dims.iter().for_each(|d| buf.extend_from_slice(&d.to_le_bytes()));
        put_u32(&mut buf, self.params.len() as u32);
        for (name, id) in &self.params {
            put_string(&mut buf, name);
            put_u32(&mut buf, id.0);
        }
        put_u32(&mut buf, self.layers.len() as u32);
        for layer in &self.layers {
            put_string(&mut buf, &layer.name);
            for dim in [layer.m, layer.n, layer.batch_hint] {
                buf.extend_from_slice(&(dim as u64).to_le_bytes());
            }
            put_spec(&mut buf, &layer.spec);
            put_cfg(&mut buf, &layer.cfg);
            buf.extend_from_slice(&[u8::from(layer.parallel), level_to_u8(layer.kernel)]);
            match layer.bias {
                Some(id) => {
                    buf.push(1);
                    put_u32(&mut buf, id.0);
                }
                None => buf.push(0),
            }
            put_payload(&mut buf, &layer.payload);
        }
        buf
    }

    /// Parses a manifest payload. Hostile input yields
    /// [`ArtifactError::Manifest`] — never a panic or an oversized
    /// allocation.
    pub fn decode(data: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = Reader(data);
        let kind = ModelKind::from_u8(r.u8()?)?;
        let dim_count = r.count("dims", 8)?;
        let mut dims = Vec::with_capacity(dim_count);
        for _ in 0..dim_count {
            dims.push(r.u64()?);
        }
        let param_count = r.count("params", 5)?;
        let mut params = Vec::with_capacity(param_count);
        for _ in 0..param_count {
            let name = r.string()?;
            params.push((name, SectionId(r.u32()?)));
        }
        let layer_count = r.count("layers", 30)?;
        let mut layers = Vec::with_capacity(layer_count);
        for _ in 0..layer_count {
            layers.push(r.layer()?);
        }
        if !r.0.is_empty() {
            return Err(bad(format!("{} trailing manifest bytes", r.0.len())));
        }
        Ok(Self { kind, dims, params, layers })
    }
}

// ---------------------------------------------------------------- decoding

/// Bounds-checked little-endian cursor over the unread bytes: a read past
/// the end is an error, never a panic.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.0.len() < n {
            return Err(bad("manifest truncated"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ArtifactError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an entry count and bounds it by the bytes actually present
    /// (each entry occupies at least `min_entry_bytes`), so a corrupted
    /// count cannot drive allocation.
    fn count(&mut self, what: &str, min_entry_bytes: usize) -> Result<usize, ArtifactError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_entry_bytes) > self.0.len() {
            return Err(bad(format!("{what} count {n} exceeds manifest size")));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, ArtifactError> {
        let len = self.u32()? as usize;
        if len > 4096 {
            return Err(bad(format!("string length {len} too large")));
        }
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map(str::to_owned).map_err(|_| bad("string is not UTF-8"))
    }

    fn spec(&mut self) -> Result<BackendSpec, ArtifactError> {
        let tag = self.u8()?;
        let bits = self.u8()? as usize;
        let method_tag = self.u8()?;
        let iters = self.u32()? as usize;
        let method = match method_tag {
            0 => QuantMethod::Greedy,
            1 => QuantMethod::Alternating { iters },
            other => return Err(bad(format!("unknown quant method {other}"))),
        };
        Ok(match tag {
            0 => BackendSpec::Fp32Naive,
            1 => BackendSpec::Fp32Blocked,
            2 => BackendSpec::Int8,
            3 => {
                if bits == 0 || bits > MAX_BITS {
                    return Err(bad(format!("xnor bits {bits} out of range")));
                }
                BackendSpec::Xnor { bits }
            }
            4 => {
                if bits == 0 || bits > MAX_BITS {
                    return Err(bad(format!("biq bits {bits} out of range")));
                }
                BackendSpec::Biq { bits, method }
            }
            other => return Err(bad(format!("unknown backend spec {other}"))),
        })
    }

    fn cfg(&mut self) -> Result<BiqConfig, ArtifactError> {
        let mu = self.u8()? as usize;
        let tile_rows = self.u32()? as usize;
        let tile_chunks = self.u32()? as usize;
        let tile_batch = self.u32()? as usize;
        // The LUT build byte, its value retired: 0 is Algorithm 1's DP
        // build. 1 named the deleted brute-force build, whose tables round
        // differently — loading it as DP would silently change output bits,
        // so it is refused.
        match self.u8()? {
            0 => {}
            1 => return Err(bad("LUT build 1 (the retired brute-force build) is not supported")),
            other => return Err(bad(format!("unknown LUT build method {other}"))),
        }
        // The LUT layout byte, its value retired: 0 was KeyMajor and 1
        // BatchMajor. Every layout realises the canonical accumulation
        // tree, so a file carrying either loads with the same output bits.
        match self.u8()? {
            0 | 1 => {}
            other => return Err(bad(format!("unknown LUT layout {other}"))),
        }
        // The schedule byte, its value retired: 0 is row-parallel and 1 the
        // deleted `SharedLut` schedule. Both were bit-identical to serial by
        // construction, so a file carrying either loads as row-parallel with
        // the same output bits.
        match self.u8()? {
            0 | 1 => {}
            other => return Err(bad(format!("unknown schedule {other}"))),
        }
        let req_tag = self.u8()?;
        let req_level = level_from_u8(self.u8()?)?;
        let kernel = match req_tag {
            0 => KernelRequest::Auto,
            1 => KernelRequest::Exact(req_level),
            2 => KernelRequest::AtMost(req_level),
            other => return Err(bad(format!("unknown kernel request tag {other}"))),
        };
        if !(1..=16).contains(&mu) {
            return Err(bad(format!("µ = {mu} out of 1..=16")));
        }
        if tile_rows == 0 || tile_chunks == 0 || tile_batch == 0 {
            return Err(bad("zero tile dimension"));
        }
        Ok(BiqConfig { mu, tile_rows, tile_chunks, tile_batch, kernel })
    }

    fn payload(&mut self) -> Result<PayloadRefs, ArtifactError> {
        Ok(match self.u8()? {
            0 => PayloadRefs::Dense { dense: SectionId(self.u32()?) },
            1 => PayloadRefs::Biq { keys: SectionId(self.u32()?), scales: SectionId(self.u32()?) },
            2 => {
                let count = self.count("xnor planes", 8)?;
                if count == 0 || count > MAX_BITS {
                    return Err(bad(format!("xnor plane count {count} out of range")));
                }
                let mut planes = Vec::with_capacity(count);
                for _ in 0..count {
                    planes.push((SectionId(self.u32()?), SectionId(self.u32()?)));
                }
                PayloadRefs::Xnor { planes }
            }
            3 => PayloadRefs::Int8 { data: SectionId(self.u32()?), scales: SectionId(self.u32()?) },
            other => return Err(bad(format!("unknown payload tag {other}"))),
        })
    }

    fn layer(&mut self) -> Result<LayerManifest, ArtifactError> {
        let name = self.string()?;
        let m = self.u64()? as usize;
        let n = self.u64()? as usize;
        let batch_hint = self.u64()? as usize;
        if m == 0 || n == 0 {
            return Err(bad(format!("degenerate layer shape {m}x{n}")));
        }
        // Cap dimensions so every downstream size product (`m·n`,
        // `bits·m·⌈n/µ⌉`, …) stays far from usize overflow — hostile
        // manifests must fail here, not panic (or wrap) at a multiply.
        if m > MAX_DIM || n > MAX_DIM {
            return Err(bad(format!("layer shape {m}x{n} exceeds the 2^24 dimension cap")));
        }
        if batch_hint > MAX_BATCH_HINT {
            return Err(bad(format!("batch hint {batch_hint} out of range")));
        }
        let spec = self.spec()?;
        let cfg = self.cfg()?;
        let parallel = match self.u8()? {
            0 => false,
            1 => true,
            other => return Err(bad(format!("bad parallel flag {other}"))),
        };
        let kernel = level_from_u8(self.u8()?)?;
        let bias = match self.u8()? {
            0 => None,
            1 => Some(SectionId(self.u32()?)),
            other => return Err(bad(format!("bad bias flag {other}"))),
        };
        let payload = self.payload()?;
        Ok(LayerManifest { name, m, n, batch_hint, spec, cfg, parallel, kernel, bias, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ModelManifest {
        ModelManifest {
            kind: ModelKind::Transformer,
            dims: vec![64, 128, 4, 2],
            params: vec![
                ("enc0.ln1.gamma".into(), SectionId(5)),
                ("enc0.ln1.beta".into(), SectionId(6)),
            ],
            layers: vec![
                LayerManifest {
                    name: "enc0.attn.wq".into(),
                    m: 64,
                    n: 64,
                    batch_hint: 4,
                    spec: BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy },
                    cfg: BiqConfig::default(),
                    parallel: false,
                    kernel: KernelLevel::Avx512,
                    bias: None,
                    payload: PayloadRefs::Biq { keys: SectionId(0), scales: SectionId(1) },
                },
                LayerManifest {
                    name: "enc0.ff1".into(),
                    m: 128,
                    n: 64,
                    batch_hint: 4,
                    spec: BackendSpec::Fp32Blocked,
                    cfg: BiqConfig::default(),
                    parallel: true,
                    kernel: KernelLevel::Scalar,
                    bias: Some(SectionId(3)),
                    payload: PayloadRefs::Dense { dense: SectionId(2) },
                },
            ],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let m = sample();
        let rt = ModelManifest::decode(&m.encode()).unwrap();
        assert_eq!(rt.kind, m.kind);
        assert_eq!(rt.dims, m.dims);
        assert_eq!(rt.params, m.params);
        assert_eq!(rt.layers.len(), 2);
        let l0 = &rt.layers[0];
        assert_eq!(l0.name, "enc0.attn.wq");
        assert_eq!((l0.m, l0.n, l0.batch_hint), (64, 64, 4));
        assert!(matches!(l0.spec, BackendSpec::Biq { bits: 2, .. }));
        assert!(!l0.parallel);
        assert_eq!(l0.kernel, KernelLevel::Avx512, "recorded compile level survives");
        assert!(matches!(
            l0.payload,
            PayloadRefs::Biq { keys: SectionId(0), scales: SectionId(1) }
        ));
        let l1 = &rt.layers[1];
        assert!(l1.parallel);
        assert_eq!(l1.bias, Some(SectionId(3)));
    }

    #[test]
    fn truncations_error_never_panic() {
        let enc = sample().encode();
        for cut in 0..enc.len() {
            assert!(ModelManifest::decode(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn oversized_counts_rejected_without_allocation() {
        let mut raw = sample().encode();
        // dims count lives at offset 1 (after the kind byte).
        raw[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ModelManifest::decode(&raw).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = sample().encode();
        raw.push(0);
        assert!(ModelManifest::decode(&raw).is_err());
    }
}
