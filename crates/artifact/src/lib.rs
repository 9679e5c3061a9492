//! # biq_artifact — the `BIQM` compiled-model artifact
//!
//! The paper's deployment story (footnote 3) is that packed weight
//! matrices are fixed at build time and "loaded in advance into the
//! system". This crate is that story as a file format: a whole compiled
//! model — layer graph, plan choices and every layer's packed payload —
//! ships as **one versioned, sectioned, checksummed container**, and
//! loading it is a validation pass, not a re-quantization:
//!
//! * [`container`] — the `BIQM` byte format: a 64-byte header, payload
//!   sections each aligned to 64 bytes, a model manifest, and a table of
//!   contents locating sections by offset, with FNV-1a64 checksums on the
//!   body and on every section;
//! * [`manifest`] — the model graph: model kind + shape dims, named fp32
//!   parameter sections, and per-layer plan parameters (backend spec,
//!   `BiqConfig`, threading, batch hint) with payload section references;
//! * [`model`] — layer snapshot/restore: [`snapshot_layer`] exports a
//!   [`biq_runtime::CompiledOp`]'s [`biq_runtime::PackedPayload`];
//!   [`compile_layer`] binds it back to the rebuilt plan with every
//!   buffer (keys, scales, sign words, dense values) borrowed from the
//!   loaded file via zero-copy [`biq_matrix::PodView`]s.
//!
//! ```text
//!  build host                                   serving host
//!  ──────────                                   ────────────
//!  fp32 weights ─ quantize ─ pack ┐             Artifact::open  (validate,
//!                                 ▼                │             no copy)
//!  ArtifactBuilder ── finish ── model.biqm ──────► │
//!       ▲                                          ▼
//!  snapshot_layer (per layer)              compile_layer (plan rebuild,
//!                                           payload = views into the file)
//! ```
//!
//! The model-level lift — walking a Transformer/LSTM/seq2seq and calling
//! [`snapshot_layer`] / [`compile_layer`] per linear — lives in
//! `biq_nn::model`, which owns the layer-graph vocabulary; `biq_serve`
//! boots a registry straight from a file with
//! `ModelRegistry::load_artifact`, and the `biq` CLI drives the whole path
//! (`biq compile` / `biq run-model` / `biq inspect`).

#![forbid(unsafe_code)]

pub mod container;
pub mod manifest;
pub mod model;

pub use container::{
    fnv1a64, Artifact, ArtifactBuilder, ArtifactError, ElemKind, SectionId, SectionInfo,
    MAGIC_MODEL, SECTION_ALIGN, VERSION,
};
pub use manifest::{
    sec, sec_kind_name, LayerManifest, ModelKind, ModelManifest, PayloadRefs, MAX_BITS, MAX_DIM,
};
pub use model::{compile_layer, load_bias, load_param, load_weights, snapshot_layer};
