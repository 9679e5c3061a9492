//! Library backing the `biq` command-line tool.
//!
//! The CLI walks the full deployment pipeline on files:
//!
//! ```text
//! biq gen    --rows M --cols N --seed S out.biqm        # fp32 weights
//! biq gen    --rows N --cols B --seed S --col out.biqm  # activations
//! biq quantize --bits B [--alternating] w.biqm out.biqq
//! biq pack   --mu U in.biqq out.biqw                    # key matrix + scales
//! biq matmul --weights w.biqw --input x.biqm --output y.biqm
//! biq info   file                                       # describe any artifact
//! ```
//!
//! Commands are implemented as pure functions over paths so tests can drive
//! them without spawning processes. The tool measures nothing: every
//! performance number comes from the `benchmark/` package.

use biq_matrix::io as mio;
use biq_matrix::{ColMatrix, Matrix, MatrixRng};
use biq_quant::serialize as qser;
use biq_quant::{alternating::alternating_quantize_matrix_rowwise, greedy_quantize_matrix_rowwise};
use biq_runtime::{
    compile, BackendSpec, Executor, PlanBuilder, QuantMethod, Threading, WeightSource,
};
use biqgemm_core::serialize as wser;
use biqgemm_core::{BiqConfig, BiqWeights, KernelLevel, KernelRequest, KERNEL_ENV};
use bytes::Bytes;
use std::fmt;
use std::fs::File;
use std::path::Path;

pub mod fleet_cmds;
pub mod model_cmds;
pub mod net_cmds;
pub mod stats_cmd;
pub mod top_cmd;
pub use fleet_cmds::{
    cmd_model_list, cmd_model_load, cmd_model_unload, fetch_mem_budget, parse_mem_budget,
    render_model_list, ModelLoadReport,
};
pub use model_cmds::{build_model, cmd_compile, cmd_inspect, cmd_run_model, CompileConfig};
pub use net_cmds::{
    cmd_load_client, cmd_serve, DaemonConfig, LoadClientConfig, LoadReport, ServeOptions,
};
pub use stats_cmd::{cmd_stats, StatsConfig, StatsFormat};
pub use top_cmd::{cmd_top, TopConfig};

/// CLI-level errors (message-oriented; the binary prints and exits 1).
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

/// `--kernel {auto,scalar,avx2,avx512,neon}`: validates the level against
/// the running host, then plumbs it through the `BIQ_KERNEL` environment
/// variable so **every** plan built afterwards in this process (matmul,
/// serve workers, artifact loads) resolves to it. Errors clearly
/// when the host lacks the requested ISA.
pub fn set_kernel_flag(value: &str) -> Result<(), CliError> {
    let request = match value.to_ascii_lowercase().as_str() {
        "auto" => KernelRequest::Auto,
        other => KernelRequest::Exact(KernelLevel::parse(other).ok_or_else(|| {
            CliError(format!(
                "--kernel '{other}' is not a kernel level \
                 (expected auto | scalar | avx2 | avx512 | neon)"
            ))
        })?),
    };
    // Validate before pinning the env var; `Exact` resolution performs the
    // host-support check and its error message names the host's best level.
    request.resolve().map_err(|e| CliError(e.to_string()))?;
    std::env::set_var(KERNEL_ENV, value.to_ascii_lowercase());
    Ok(())
}

/// Validates an inherited `BIQ_KERNEL` value (if any) before any command
/// builds a plan, so a typo'd or host-unsupported override is a clean
/// `error:` line instead of a panic inside `PlanBuilder::build`.
pub fn validate_kernel_env() -> Result<(), CliError> {
    KernelRequest::Auto.resolve().map_err(|e| CliError(e.to_string()))?;
    Ok(())
}

fn read_bytes(path: &Path) -> Result<Bytes, CliError> {
    mio::read_from(File::open(path).map_err(|e| CliError(format!("open {path:?}: {e}")))?)
        .map_err(|e| CliError(format!("read {path:?}: {e}")))
}

fn write_bytes(path: &Path, data: &Bytes) -> Result<(), CliError> {
    mio::write_to(File::create(path).map_err(|e| CliError(format!("create {path:?}: {e}")))?, data)
        .map_err(|e| CliError(format!("write {path:?}: {e}")))
}

/// `biq gen`: writes a seeded Gaussian matrix (row-major, or column-major
/// with `col_major` for activations).
pub fn cmd_gen(
    rows: usize,
    cols: usize,
    seed: u64,
    std: f32,
    col_major: bool,
    out: &Path,
) -> Result<(), CliError> {
    if rows == 0 || cols == 0 {
        return Err(CliError("rows/cols must be positive".into()));
    }
    let mut g = MatrixRng::seed_from(seed);
    let data = if col_major {
        mio::encode_col_matrix(&g.gaussian_col(rows, cols, 0.0, std))
    } else {
        mio::encode_matrix(&g.gaussian(rows, cols, 0.0, std))
    };
    write_bytes(out, &data)
}

/// `biq quantize`: fp32 row-major matrix → multi-bit binary coding.
pub fn cmd_quantize(
    input: &Path,
    bits: usize,
    alternating: bool,
    out: &Path,
) -> Result<(), CliError> {
    // 32 is the most planes a BIQQ header can describe.
    if !(1..=32).contains(&bits) {
        return Err(CliError(format!("--bits must be in 1..=32, got {bits}")));
    }
    let w =
        mio::decode_matrix(read_bytes(input)?).map_err(|e| CliError(format!("{input:?}: {e}")))?;
    let q = if alternating {
        alternating_quantize_matrix_rowwise(&w, bits, 10)
    } else {
        greedy_quantize_matrix_rowwise(&w, bits)
    };
    write_bytes(out, &qser::encode_multibit(&q))
}

/// `biq pack`: quantized matrix → packed BiQGEMM weights (key matrix).
pub fn cmd_pack(input: &Path, mu: usize, out: &Path) -> Result<(), CliError> {
    if !(1..=16).contains(&mu) {
        return Err(CliError(format!("--mu must be in 1..=16, got {mu}")));
    }
    let q = qser::decode_multibit(read_bytes(input)?)
        .map_err(|e| CliError(format!("{input:?}: {e}")))?;
    let w = BiqWeights::from_multibit(&q, mu);
    write_bytes(out, &wser::encode_weights(&w))
}

/// Decodes the operands of `W·X` and checks that their shapes agree.
fn read_matmul_operands(weights: &Path, input: &Path) -> Result<(BiqWeights, ColMatrix), CliError> {
    let w = wser::decode_weights(read_bytes(weights)?)
        .map_err(|e| CliError(format!("{weights:?}: {e}")))?;
    let x = mio::decode_col_matrix(read_bytes(input)?)
        .map_err(|e| CliError(format!("{input:?}: {e}")))?;
    if x.rows() != w.input_size() {
        return Err(CliError(format!(
            "shape mismatch: {weights:?} takes {} inputs, {input:?} has {} rows",
            w.input_size(),
            x.rows()
        )));
    }
    Ok((w, x))
}

/// `biq matmul`: packed weights × column-major activations → row-major
/// output, planned and executed through the `biq_runtime` plan/executor
/// (the single code path all kernels share). Returns `(m, b)` for
/// reporting.
pub fn cmd_matmul(
    weights: &Path,
    input: &Path,
    output: &Path,
    parallel: bool,
) -> Result<(usize, usize), CliError> {
    let (w, x) = read_matmul_operands(weights, input)?;
    let plan = PlanBuilder::new(w.output_size(), w.input_size())
        .batch_hint(x.cols().max(1))
        .backend(BackendSpec::Biq { bits: w.bits(), method: QuantMethod::Greedy })
        .config(BiqConfig { mu: w.mu(), ..BiqConfig::default() })
        .threading(if parallel { Threading::Parallel } else { Threading::Serial })
        .build();
    let op = compile(&plan, WeightSource::Packed(w));
    let mut exec = Executor::warmed_for(&op);
    let y: Matrix = exec.run(&op, &x);
    let shape = y.shape();
    write_bytes(output, &mio::encode_matrix(&y))?;
    Ok(shape)
}

/// `biq info`: one-line description of any artifact this tool produces.
pub fn cmd_info(path: &Path) -> Result<String, CliError> {
    let data = read_bytes(path)?;
    if data.len() >= 4 {
        match &data[..4] {
            b"BIQM" => {
                let artifact = biq_artifact::Artifact::from_bytes(data)
                    .map_err(|e| CliError(format!("{path:?}: {e}")))?;
                let manifest = biq_artifact::ModelManifest::decode(artifact.manifest_bytes())
                    .map_err(|e| CliError(format!("{path:?}: {e}")))?;
                return Ok(format!(
                    "compiled model artifact: {} model, {} layers, {} sections \
                     (use `biq inspect` for the full dump)",
                    manifest.kind.name(),
                    manifest.layers.len(),
                    artifact.section_count()
                ));
            }
            b"BIQ1" => {
                let (kind, rows, cols) =
                    mio::peek_kind(&data).map_err(|e| CliError(format!("{path:?}: {e}")))?;
                return Ok(format!("matrix container: kind {kind:?}, shape {rows}x{cols}"));
            }
            b"BIQQ" => {
                let q =
                    qser::decode_multibit(data).map_err(|e| CliError(format!("{path:?}: {e}")))?;
                let (r, c) = q.shape();
                return Ok(format!("quantized matrix: {r}x{c}, {} binary-coding bits", q.bits()));
            }
            b"BIQW" => {
                let w =
                    wser::decode_weights(data).map_err(|e| CliError(format!("{path:?}: {e}")))?;
                return Ok(format!(
                    "packed BiQGEMM weights: {}x{}, {} bits, µ = {}, {} key rows x {} chunks",
                    w.output_size(),
                    w.input_size(),
                    w.bits(),
                    w.mu(),
                    w.key_rows(),
                    w.chunks()
                ));
            }
            _ => {}
        }
    }
    Err(CliError(format!("{path:?}: unrecognised file format")))
}

/// Verification helper shared by tests and the binary: decodes an output
/// matrix and a reference input/weights pair and reports the relative error
/// against a dense recomputation.
pub fn verify_matmul(weights: &Path, input: &Path, output: &Path) -> Result<f64, CliError> {
    let (w, x) = read_matmul_operands(weights, input)?;
    let y = mio::decode_matrix(read_bytes(output)?)
        .map_err(|e| CliError(format!("{output:?}: {e}")))?;
    // Dense recomputation from the unpacked keys.
    let stacked = w.keys().unpack();
    let mut y_ref = Matrix::zeros(w.output_size(), x.cols());
    for r in 0..w.key_rows() {
        let out_row = w.output_row(r);
        let scale = w.scale(r);
        for alpha in 0..x.cols() {
            let mut acc = 0.0f32;
            for (k, &v) in x.col(alpha).iter().enumerate() {
                acc += stacked.get(r, k) as f32 * v;
            }
            let cur = y_ref.get(out_row, alpha);
            y_ref.set(out_row, alpha, cur + scale * acc);
        }
    }
    Ok(biq_quant::error_metrics::relative_l2(y.as_slice(), y_ref.as_slice()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("biq_cli_test_{name}"))
    }

    #[test]
    fn full_pipeline_end_to_end() {
        let wpath = tmp("w.biqm");
        let xpath = tmp("x.biqm");
        let qpath = tmp("q.biqq");
        let kpath = tmp("k.biqw");
        let ypath = tmp("y.biqm");
        cmd_gen(24, 32, 1, 0.5, false, &wpath).unwrap();
        cmd_gen(32, 3, 2, 1.0, true, &xpath).unwrap();
        cmd_quantize(&wpath, 2, false, &qpath).unwrap();
        cmd_pack(&qpath, 8, &kpath).unwrap();
        let shape = cmd_matmul(&kpath, &xpath, &ypath, false).unwrap();
        assert_eq!(shape, (24, 3));
        // The written output must match a dense recomputation of the packed
        // weights exactly up to accumulation-order rounding.
        let err = verify_matmul(&kpath, &xpath, &ypath).unwrap();
        assert!(err < 1e-5, "pipeline relative error {err}");
        for p in [wpath, xpath, qpath, kpath, ypath] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn info_describes_each_artifact() {
        let wpath = tmp("info_w.biqm");
        let qpath = tmp("info_q.biqq");
        let kpath = tmp("info_k.biqw");
        cmd_gen(4, 8, 3, 1.0, false, &wpath).unwrap();
        cmd_quantize(&wpath, 3, false, &qpath).unwrap();
        cmd_pack(&qpath, 4, &kpath).unwrap();
        assert!(cmd_info(&wpath).unwrap().contains("4x8"));
        assert!(cmd_info(&qpath).unwrap().contains("3 binary-coding bits"));
        let info = cmd_info(&kpath).unwrap();
        assert!(info.contains("µ = 4"), "{info}");
        assert!(info.contains("12 key rows"), "{info}");
        for p in [wpath, qpath, kpath] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn alternating_flag_changes_artifact() {
        let wpath = tmp("alt_w.biqm");
        let g = tmp("alt_g.biqq");
        let a = tmp("alt_a.biqq");
        cmd_gen(8, 64, 5, 1.0, false, &wpath).unwrap();
        cmd_quantize(&wpath, 2, false, &g).unwrap();
        cmd_quantize(&wpath, 2, true, &a).unwrap();
        let bg = std::fs::read(&g).unwrap();
        let ba = std::fs::read(&a).unwrap();
        assert_eq!(bg.len(), ba.len());
        assert_ne!(bg, ba, "alternating refinement should change the planes");
        for p in [wpath, g, a] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn parallel_matmul_matches_serial_file_output() {
        let wpath = tmp("par_w.biqm");
        let xpath = tmp("par_x.biqm");
        let qpath = tmp("par_q.biqq");
        let kpath = tmp("par_k.biqw");
        let y1 = tmp("par_y1.biqm");
        let y2 = tmp("par_y2.biqm");
        cmd_gen(40, 48, 7, 1.0, false, &wpath).unwrap();
        cmd_gen(48, 5, 8, 1.0, true, &xpath).unwrap();
        cmd_quantize(&wpath, 1, false, &qpath).unwrap();
        cmd_pack(&qpath, 8, &kpath).unwrap();
        cmd_matmul(&kpath, &xpath, &y1, false).unwrap();
        cmd_matmul(&kpath, &xpath, &y2, true).unwrap();
        assert_eq!(std::fs::read(&y1).unwrap(), std::fs::read(&y2).unwrap());
        for p in [wpath, xpath, qpath, kpath, y1, y2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn info_rejects_garbage() {
        let p = tmp("garbage.bin");
        std::fs::write(&p, b"not a biq file").unwrap();
        assert!(cmd_info(&p).is_err());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn gen_rejects_zero_shape() {
        assert!(cmd_gen(0, 4, 1, 1.0, false, &tmp("zero.biqm")).is_err());
    }

    #[test]
    fn quantize_rejects_bits_out_of_range() {
        let wpath = tmp("bits_w.biqm");
        cmd_gen(4, 8, 3, 1.0, false, &wpath).unwrap();
        for bits in [0, 33] {
            let err = cmd_quantize(&wpath, bits, false, &tmp("bits_q.biqq")).unwrap_err();
            assert!(err.0.contains("--bits"), "{err}");
        }
        let _ = std::fs::remove_file(wpath);
    }

    #[test]
    fn pack_rejects_mu_out_of_range() {
        let wpath = tmp("mu_w.biqm");
        let qpath = tmp("mu_q.biqq");
        cmd_gen(4, 8, 3, 1.0, false, &wpath).unwrap();
        cmd_quantize(&wpath, 1, false, &qpath).unwrap();
        for mu in [0, 17] {
            let err = cmd_pack(&qpath, mu, &tmp("mu_k.biqw")).unwrap_err();
            assert!(err.0.contains("--mu"), "{err}");
        }
        for p in [wpath, qpath] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn matmul_rejects_mismatched_input_rows() {
        let wpath = tmp("shape_w.biqm");
        let xpath = tmp("shape_x.biqm");
        let qpath = tmp("shape_q.biqq");
        let kpath = tmp("shape_k.biqw");
        let ypath = tmp("shape_y.biqm");
        cmd_gen(8, 16, 1, 1.0, false, &wpath).unwrap();
        cmd_gen(12, 2, 2, 1.0, true, &xpath).unwrap();
        cmd_quantize(&wpath, 1, false, &qpath).unwrap();
        cmd_pack(&qpath, 8, &kpath).unwrap();
        let err = cmd_matmul(&kpath, &xpath, &ypath, false).unwrap_err();
        assert!(err.0.contains("shape mismatch"), "{err}");
        cmd_gen(8, 2, 3, 1.0, false, &ypath).unwrap();
        assert!(verify_matmul(&kpath, &xpath, &ypath).is_err());
        for p in [wpath, xpath, qpath, kpath, ypath] {
            let _ = std::fs::remove_file(p);
        }
    }
}
