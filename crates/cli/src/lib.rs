//! Library backing the `biq` command-line tool.
//!
//! The CLI walks the deployment pipeline on one file format, the BIQM
//! compiled-model artifact:
//!
//! ```text
//! biq compile --model linear --bits B --seed S out.biqmod  # quantize + pack, once
//! biq run-model out.biqmod --seed S --len L                # load zero-copy, infer
//! biq inspect out.biqmod                                   # header / TOC / layers
//! biq serve --model out.biqmod --addr HOST:PORT            # the network daemon
//! ```
//!
//! Commands are implemented as pure functions over paths so tests can drive
//! them without spawning processes. The tool measures nothing: every
//! performance number comes from the `benchmark/` package.

use biqgemm_core::{KernelLevel, KernelRequest, KERNEL_ENV};
use std::fmt;

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
/// variable so **every** plan built afterwards in this process (serve
/// workers, artifact loads) resolves to it. Errors clearly when the host
/// lacks the requested ISA.
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
