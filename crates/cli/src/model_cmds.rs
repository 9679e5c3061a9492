//! `biq compile` / `biq run-model` / `biq inspect`: the whole-model
//! artifact pipeline on files.
//!
//! `compile` builds a seeded model (the repo has no trained checkpoints;
//! DESIGN.md §3) on any backend family, quantizes/packs it once, and ships
//! it as one `BIQM` artifact. `run-model` loads the artifact — zero-copy,
//! no fp32 weights in the process — and runs a deterministic seeded
//! inference. `inspect` dumps the container: header, section TOC, and the
//! manifest's layer graph.

use crate::CliError;
use biq_artifact::{sec_kind_name, Artifact, ModelManifest, MAX_BITS};
use biq_matrix::MatrixRng;
use biq_nn::model::CompiledModel;
use biq_nn::transformer::{Encoder, LayerBackend};
use biq_nn::{lstm::Lstm, seq2seq::Seq2Seq, Linear, QuantMethod};
use biq_runtime::{BackendSpec, PlanBuilder, SharedExecutor, Threading, WeightSource};
use biqgemm_core::BiqConfig;
use std::path::Path;

/// What `biq compile` builds (all fields have CLI defaults).
#[derive(Clone, Debug)]
pub struct CompileConfig {
    /// Model family: `linear` | `transformer` | `lstm` | `seq2seq`.
    pub kind: String,
    /// Backend family: `biq` | `fp32` | `xnor` | `int8`.
    pub backend: String,
    /// Weight quantization bits (biq/xnor).
    pub bits: usize,
    /// Weight-init seed.
    pub seed: u64,
    /// Use parallel kernels in the stored plans.
    pub parallel: bool,
    /// Hidden width (`d_model` / LSTM hidden / linear rows).
    pub d_model: usize,
    /// Feed-forward width (transformer/seq2seq) or linear cols.
    pub d_ff: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder depth (transformer/seq2seq).
    pub layers: usize,
    /// Decoder depth (seq2seq).
    pub dec_layers: usize,
    /// Vocabulary (seq2seq).
    pub vocab: usize,
}

impl Default for CompileConfig {
    fn default() -> Self {
        Self {
            kind: "transformer".into(),
            backend: "biq".into(),
            bits: 2,
            seed: 0,
            parallel: false,
            d_model: 64,
            d_ff: 256,
            heads: 4,
            layers: 2,
            dec_layers: 1,
            vocab: 64,
        }
    }
}

fn layer_backend(cfg: &CompileConfig) -> Result<LayerBackend, CliError> {
    Ok(match cfg.backend.as_str() {
        "fp32" => LayerBackend::Fp32 { parallel: cfg.parallel },
        "biq" => LayerBackend::Biq {
            bits: cfg.bits,
            method: QuantMethod::Greedy,
            cfg: BiqConfig::default(),
            parallel: cfg.parallel,
        },
        "xnor" => LayerBackend::Xnor { bits: cfg.bits },
        "int8" => LayerBackend::Int8,
        other => return Err(CliError(format!("unknown backend '{other}'"))),
    })
}

/// Refuses what a model constructor would panic on, or what the artifact
/// loader would refuse, so `compile` never writes a file `run-model` cannot
/// load.
fn validate(cfg: &CompileConfig) -> Result<(), CliError> {
    let fail = |msg: String| Err(CliError(msg));
    if !(1..=MAX_BITS).contains(&cfg.bits) {
        return fail(format!("--bits must be in 1..={MAX_BITS}, got {}", cfg.bits));
    }
    if cfg.d_model == 0 || cfg.d_ff == 0 {
        return fail(format!("--d-model {} / --d-ff {} must be positive", cfg.d_model, cfg.d_ff));
    }
    if matches!(cfg.kind.as_str(), "transformer" | "seq2seq") {
        if cfg.layers == 0 {
            return fail("--layers must be positive".into());
        }
        if cfg.heads == 0 || !cfg.d_model.is_multiple_of(cfg.heads) {
            return fail(format!("--heads {} must divide --d-model {}", cfg.heads, cfg.d_model));
        }
    }
    if cfg.kind == "seq2seq" && cfg.vocab < 4 {
        return fail(format!("--vocab must be at least 4, got {}", cfg.vocab));
    }
    Ok(())
}

/// Builds the seeded model a `CompileConfig` describes (shared with the
/// round-trip tests, which need the identical in-memory model to compare
/// against).
pub fn build_model(cfg: &CompileConfig) -> Result<CompiledModel, CliError> {
    validate(cfg)?;
    let backend = layer_backend(cfg)?;
    let mut g = MatrixRng::seed_from(cfg.seed);
    Ok(match cfg.kind.as_str() {
        "linear" => {
            let w = g.gaussian(cfg.d_model, cfg.d_ff, 0.0, 1.0);
            let spec = match backend {
                LayerBackend::Fp32 { .. } => BackendSpec::Fp32Blocked,
                LayerBackend::Biq { bits, method, .. } => BackendSpec::Biq { bits, method },
                LayerBackend::Xnor { bits } => BackendSpec::Xnor { bits },
                LayerBackend::Int8 => BackendSpec::Int8,
            };
            let plan = PlanBuilder::new(cfg.d_model, cfg.d_ff)
                .backend(spec)
                .threading(if cfg.parallel { Threading::Parallel } else { Threading::Serial })
                .build();
            CompiledModel::Linear(Linear::from_plan(
                &plan,
                WeightSource::Dense(&w),
                None,
                SharedExecutor::new(),
            ))
        }
        "transformer" => CompiledModel::Transformer(Encoder::random(
            &mut g,
            cfg.layers,
            cfg.d_model,
            cfg.d_ff,
            cfg.heads,
            backend,
        )),
        "lstm" => CompiledModel::Lstm(Lstm::random(&mut g, cfg.d_ff, cfg.d_model, backend)),
        "seq2seq" => CompiledModel::Seq2Seq(Seq2Seq::random(
            &mut g,
            cfg.vocab,
            cfg.d_model,
            cfg.d_ff,
            cfg.heads,
            cfg.layers,
            cfg.dec_layers,
            backend,
        )),
        other => return Err(CliError(format!("unknown model kind '{other}'"))),
    })
}

/// `biq compile`: fp32 → quantize/pack → one `BIQM` artifact file.
/// Returns the model description for reporting.
pub fn cmd_compile(cfg: &CompileConfig, out: &Path) -> Result<String, CliError> {
    let model = build_model(cfg)?;
    model.save(out).map_err(|e| CliError(format!("write {out:?}: {e}")))?;
    Ok(model.describe())
}

/// `biq run-model`: loads an artifact and runs one deterministic seeded
/// inference. Returns `(description, flat output)`.
pub fn cmd_run_model(
    model_path: &Path,
    seed: u64,
    len: usize,
) -> Result<(String, Vec<f32>), CliError> {
    let model =
        CompiledModel::load(model_path).map_err(|e| CliError(format!("{model_path:?}: {e}")))?;
    let out = model.run_seeded(seed, len);
    Ok((model.describe(), out))
}

/// `biq inspect`: dumps the container header, per-section TOC, and the
/// manifest's layer graph. A BiQ layer shows its recorded LUT tile
/// (`tile=rows×chunks×batch`); one whose `tile_batch` is below
/// [`BiqConfig::default`]'s gets a hint line, since every batch wider than
/// its tile then runs in tiles that narrow (at `tile_batch = 1`, one column
/// at a time).
pub fn cmd_inspect(path: &Path) -> Result<String, CliError> {
    let artifact = Artifact::open(path).map_err(|e| CliError(format!("{path:?}: {e}")))?;
    let manifest = ModelManifest::decode(artifact.manifest_bytes())
        .map_err(|e| CliError(format!("{path:?}: {e}")))?;
    let mut out = String::new();
    let total: u64 = artifact.sections().iter().map(|s| s.len).sum();
    out.push_str(&format!(
        "BIQM v{} · {} model · {} sections · {} payload bytes · file {} bytes\n",
        biq_artifact::VERSION,
        manifest.kind.name(),
        artifact.section_count(),
        total,
        artifact.as_bytes().len(),
    ));
    if !manifest.dims.is_empty() {
        out.push_str(&format!("dims: {:?}\n", manifest.dims));
    }
    out.push_str("sections:\n");
    for (i, s) in artifact.sections().iter().enumerate() {
        let layer = if s.layer == u32::MAX { "model".into() } else { format!("layer {}", s.layer) };
        out.push_str(&format!(
            "  [{i:3}] {:<11} {:<5} off {:>8} len {:>9} crc {:016x} ({layer})\n",
            sec_kind_name(s.kind),
            format!("{:?}", s.elem).to_lowercase(),
            s.offset,
            s.len,
            s.checksum,
        ));
    }
    out.push_str("layers:\n");
    for l in &manifest.layers {
        // The compiled kernel level next to what it re-resolves to here:
        // the artifact runs bit-identically either way.
        let resolved = biq_runtime::KernelRequest::AtMost(l.kernel)
            .resolve()
            .map(|k| k.level())
            .map_err(|e| CliError(format!("{path:?}: {e}")))?;
        let mut kernel = if resolved == l.kernel {
            format!("kernel={}", l.kernel.name())
        } else {
            format!("kernel={}→{}", l.kernel.name(), resolved.name())
        };
        // When the layer runs a level below this host's best, say why if
        // the plan-time shape heuristic explains it (Auto's b=1 clamp).
        if let Some((clamped, why)) =
            biqgemm_core::planner::auto_width1_clamp(l.batch_hint, biqgemm_core::host_best())
        {
            if resolved == clamped {
                kernel.push_str(&format!(" ({why})"));
            }
        }
        let biq = matches!(l.spec, BackendSpec::Biq { .. });
        let tile = if biq {
            format!(" tile={}x{}x{}", l.cfg.tile_rows, l.cfg.tile_chunks, l.cfg.tile_batch)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  {:<16} {:>5}x{:<5} {:?} µ={}{} batch_hint={} {}{}{}\n",
            l.name,
            l.m,
            l.n,
            l.spec,
            l.cfg.mu,
            tile,
            l.batch_hint,
            kernel,
            if l.parallel { " parallel" } else { "" },
            if l.bias.is_some() { " +bias" } else { "" },
        ));
        let default_batch = BiqConfig::default().tile_batch;
        if biq && l.cfg.tile_batch < default_batch {
            out.push_str(&format!(
                "    hint: tile_batch={} < {default_batch}: wider batches run {} column(s) at a \
                 time — recompile for wide batches\n",
                l.cfg.tile_batch, l.cfg.tile_batch,
            ));
        }
    }
    if !manifest.params.is_empty() {
        out.push_str(&format!(
            "params: {}\n",
            manifest.params.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(", ")
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_artifact::fnv1a64;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("biq_cli_model_{name}"))
    }

    #[test]
    fn compile_run_round_trip_is_bit_identical_for_transformer_and_lstm() {
        for kind in ["transformer", "lstm"] {
            let cfg = CompileConfig {
                kind: kind.into(),
                d_model: 16,
                d_ff: 32,
                heads: 2,
                layers: 1,
                ..CompileConfig::default()
            };
            let path = tmp(&format!("rt_{kind}.biqmod"));
            cmd_compile(&cfg, &path).unwrap();
            let (desc, out) = cmd_run_model(&path, 5, 3).unwrap();
            assert!(desc.contains(kind), "{desc}");
            // The loaded artifact must reproduce the in-memory model's
            // output bit for bit.
            let reference = build_model(&cfg).unwrap().run_seeded(5, 3);
            assert_eq!(out, reference, "{kind} round trip");
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn inspect_names_sections_and_layers() {
        let cfg =
            CompileConfig { kind: "lstm".into(), d_model: 8, d_ff: 12, ..CompileConfig::default() };
        let path = tmp("inspect.biqmod");
        cmd_compile(&cfg, &path).unwrap();
        let report = cmd_inspect(&path).unwrap();
        assert!(report.contains("lstm model"), "{report}");
        assert!(report.contains("lstm.w_ih"), "{report}");
        assert!(report.contains("keys"), "{report}");
        let d = BiqConfig::default();
        let tile = format!("tile={}x{}x{}", d.tile_rows, d.tile_chunks, d.tile_batch);
        assert!(report.contains(&tile), "{report}");
        assert!(!report.contains("recompile"), "{report}");
        let _ = std::fs::remove_file(path);
    }

    /// A file compiled at `tile_batch = 1` (as old builds' planner could
    /// record) runs every batch one column at a time: `inspect` says so on
    /// each BiQ layer, with the recompile hint.
    #[test]
    fn inspect_flags_a_one_column_tile() {
        let mut g = MatrixRng::seed_from(9);
        let cfg = BiqConfig { tile_batch: 1, ..BiqConfig::default() };
        let backend =
            LayerBackend::Biq { bits: 2, method: QuantMethod::Greedy, cfg, parallel: false };
        let model = CompiledModel::Transformer(Encoder::random(&mut g, 1, 16, 32, 2, backend));
        let path = tmp("inspect_tile1.biqmod");
        model.save(&path).unwrap();
        let report = cmd_inspect(&path).unwrap();
        let layers = report.lines().filter(|l| l.contains("tile=")).count();
        let hints = report.lines().filter(|l| l.contains("recompile for wide batches")).count();
        assert!(layers > 0 && hints == layers, "{report}");
        assert!(report.contains(&format!("tile={}x{}x1 ", cfg.tile_rows, cfg.tile_chunks)));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn every_backend_flag_compiles_and_runs() {
        for backend in ["biq", "fp32", "xnor", "int8"] {
            let cfg = CompileConfig {
                kind: "linear".into(),
                backend: backend.into(),
                d_model: 10,
                d_ff: 14,
                ..CompileConfig::default()
            };
            let path = tmp(&format!("bk_{backend}.biqmod"));
            cmd_compile(&cfg, &path).unwrap();
            let (_, out) = cmd_run_model(&path, 1, 2).unwrap();
            assert_eq!(out.len(), 20);
            assert!(out.iter().all(|v| v.is_finite()));
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn run_model_is_deterministic_across_loads() {
        let cfg = CompileConfig {
            kind: "linear".into(),
            d_model: 6,
            d_ff: 9,
            ..CompileConfig::default()
        };
        let path = tmp("det.biqmod");
        cmd_compile(&cfg, &path).unwrap();
        let (_, a) = cmd_run_model(&path, 3, 2).unwrap();
        let (_, b) = cmd_run_model(&path, 3, 2).unwrap();
        let digest =
            |v: &[f32]| fnv1a64(&v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<_>>());
        assert_eq!(digest(&a), digest(&b));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn compile_refuses_what_run_model_would_refuse_or_panic_on() {
        // Every bits value near and past the loader's bound, then each
        // degenerate shape: an error, or a file `run-model` loads — never a
        // panic, never an unloadable artifact.
        let mut cases: Vec<CompileConfig> = Vec::new();
        for backend in ["biq", "xnor"] {
            for bits in 0..=40 {
                cases.push(CompileConfig {
                    kind: "linear".into(),
                    backend: backend.into(),
                    bits,
                    d_model: 3,
                    d_ff: 5,
                    ..CompileConfig::default()
                });
            }
        }
        let small =
            CompileConfig { d_model: 8, d_ff: 8, heads: 2, layers: 1, ..Default::default() };
        for kind in ["linear", "transformer", "lstm", "seq2seq"] {
            let kind = kind.to_string();
            for bad in [
                CompileConfig { d_model: 0, ..small.clone() },
                CompileConfig { d_ff: 0, ..small.clone() },
                CompileConfig { heads: 0, ..small.clone() },
                CompileConfig { heads: 3, ..small.clone() },
                CompileConfig { layers: 0, ..small.clone() },
                CompileConfig { dec_layers: 0, ..small.clone() },
                CompileConfig { vocab: 3, ..small.clone() },
            ] {
                cases.push(CompileConfig { kind: kind.clone(), ..bad });
            }
        }
        let path = tmp("validate.biqmod");
        for cfg in &cases {
            let _ = std::fs::remove_file(&path);
            let compiled = std::panic::catch_unwind(|| cmd_compile(cfg, &path))
                .unwrap_or_else(|_| panic!("compile panicked on {cfg:?}"));
            if compiled.is_ok() {
                let run = std::panic::catch_unwind(|| cmd_run_model(&path, 1, 2))
                    .unwrap_or_else(|_| panic!("run-model panicked on {cfg:?}"));
                assert!(run.is_ok(), "compile wrote a file run-model refuses: {cfg:?}");
            }
        }
        for (bits, ok) in [(0, false), (1, true), (MAX_BITS, true), (MAX_BITS + 1, false)] {
            let cfg = CompileConfig { bits, ..cases[0].clone() };
            assert_eq!(cmd_compile(&cfg, &path).is_ok(), ok, "bits {bits}");
        }
        let err = cmd_compile(&CompileConfig { heads: 3, ..small }, &path).unwrap_err();
        assert!(err.0.contains("--heads 3 must divide --d-model 8"), "{err}");
        let _ = std::fs::remove_file(path);
    }
}
