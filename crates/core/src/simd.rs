//! The kernel layer: ISA levels, plan-time resolution, and the vectorised
//! primitives of the query/build hot loops.
//!
//! ## Levels, requests, resolution
//!
//! A [`KernelLevel`] names one implementation tier of the hot loops —
//! portable scalar, AVX2+FMA, AVX-512 (F/BW/DQ/VL), or NEON. Code never
//! dispatches on a bare level: callers resolve a [`KernelRequest`] **once
//! at plan time** into a [`ResolvedKernel`], a witness type whose only
//! constructors check host support. After resolution, a non-native level is
//! *unrepresentable* — the per-call `detect()` probes and the silent
//! "AVX2-on-aarch64 means scalar" remapping of the old `simd: bool` flag
//! are gone; an impossible level inside the dispatcher is a hard
//! `unreachable!`, not a quiet fallback.
//!
//! Resolution order for [`KernelRequest::Auto`] (what plans use unless the
//! caller pins a level):
//!
//! 1. the `BIQ_KERNEL` environment variable, when set (`scalar` | `avx2` |
//!    `avx512` | `neon`) — the CI/test override and what the CLI's
//!    `--kernel` flag plumbs through. An unsupported name is a clear
//!    error, never a downgrade;
//! 2. otherwise [`host_best`], the richest ISA the host offers.
//!
//! [`KernelRequest::Exact`] demands one level (error when the host lacks
//! it); [`KernelRequest::AtMost`] is the **artifact portability rule**: a
//! `BIQM` artifact records the level each layer was compiled with, and the
//! loader re-resolves it as "the recorded level if supported, else the
//! richest host level of no higher rank" — so an artifact compiled on an
//! AVX-512 box loads on a plain AVX2 or scalar machine and, because every
//! level performs identical operations in identical order (no FMA
//! contraction anywhere), produces **bit-identical** results there.
//!
//! ## Primitives
//!
//! The exported operations cover the workspace's hot loops:
//!
//! * [`lut_query_fused_rows`] — the fused lookup-accumulate of Algorithm 2
//!   under the Fig. 6 layout, one row tile per call: for each key row,
//!   gather each chunk's contiguous batch vector, accumulate in registers,
//!   and apply the per-row scale in the same pass (no accumulator buffer
//!   round-trip);
//! * [`lut_gather_rows`] — the width-1 form of the same query, one row tile
//!   of one batch column's tables per call:
//!   `bank[c·2^µ + keys[c]]` looked up into vector lanes (a hardware gather
//!   on AVX2/AVX-512), the latency path of the paper's b = 1 serving regime
//!   and the query of every narrow tile's column tables;
//! * [`dp_step_add_rows`] / [`negate_rows_reversed`] — the µ-wide vector
//!   adds and the mirror negation of the Algorithm 1 LUT build: whole
//!   padded rows of the entry stride for the batched (KeyMajor) build, one
//!   flat block at `nb == 1` for one column's tables;
//! * [`dp_build_tile`] — the whole build of one batch column's tables in
//!   one dispatch: per chunk, `−Σ x`, the flat DP steps and the flat mirror
//!   (the same bodies as the two primitives above, inlined);
//! * [`gather_key_major_steps`] — the batched build's input side, one
//!   KeyMajor tile per dispatch: each chunk's entry 0 (`−Σ x`) and DP step
//!   rows (`2·x`) for a lane group of batch columns at once, one lookup per
//!   chunk position at lane offsets `a·n` (the replace phase).
//!
//! ## Bit-exactness and the canonical accumulation order
//!
//! Every level of every primitive performs the same floating-point
//! operations in the same per-element order as the scalar form, and no
//! path contracts multiply-add into FMA.
//!
//! For the chunk-accumulation kernels ([`lut_query_fused_rows`],
//! [`lut_gather_rows`]) the specified per-element order is the **canonical
//! accumulation tree**, chosen so the natural SIMD shape *is* the contract
//! rather than a pessimisation of it:
//!
//! * each output element keeps [`ACC_TREE_WIDTH`] = 8 partial sums; the
//!   looked-up value of chunk `ci` is added to partial `ci % 8`, so the
//!   values within one residue class accumulate in ascending chunk order;
//! * the partials then fold in one fixed pairwise tree:
//!   `p[i] += p[i+4]` for `i = 0..4`, then `p[i] += p[i+2]` for
//!   `i = 0..2`, then `p[0] += p[1]`; `p[0]` is the sum.
//!
//! That is exactly the register shape of an 8-lane strided gather over
//! chunks (lane `j` ends up holding partial `j`, and the fold is the
//! standard horizontal-add ladder), and the batched fused kernels keep 8
//! accumulator *vectors* per lane group so every batch lane sees the same
//! per-element order. The scalar level is not a separate specification: it
//! runs the same bodies over 8 lanes held in an `[f32; 8]`, so its width-1
//! chain *is* the 8-slot tree. Because scalar, every SIMD level, the
//! width-1 chain and the batched kernel all realise this one order,
//! cross-level bit-exactness **and** batch-packing invariance (a column
//! rounds identically however it is packed into batch tiles, and whichever
//! layout holds its tables) hold by construction instead of by forcing the
//! slow sequential order everywhere.
//!
//! **Ragged lanes.** A row of `nb` batch lanes is processed in lane groups
//! of the level's vector width `g` (4 on NEON, 8 on scalar and AVX2, 16 on
//! AVX-512). A KeyMajor entry is padded to a whole number of groups — the
//! entry stride [`crate::layout::entry_stride`] is 8 through `nb = 8` and a
//! multiple of 16 past it, and AVX-512 runs a stride of 8 at AVX2's width —
//! so **every bank access is a whole vector**: the query's entry loads,
//! the DP step and mirror of the build (whole padded rows), and the step
//! gather's stores. Only the output is ragged: when `nb mod g` lanes are
//! left, the last group runs **the same group body** — the same loads, 8
//! accumulators, fold and two-step multiply then add — with its `y` load
//! and store under one lane mask (`vmaskmovps` on AVX2, a `__mmask16` on
//! AVX-512). Per live lane the order therefore *is* the canonical tree: a
//! ragged group cannot round differently from a full one, by construction
//! rather than by test. The idle lanes accumulate the bank's padding, which
//! the build keeps at `±0.0` (never a NaN or a subnormal), and are **never
//! stored** (in a strided output they are the next row's first columns).
//! The step gather's last group looks up its live columns only
//! (`lookup_masked`: the idle lanes read `+0.0` and touch no memory), so
//! its whole-vector stores write the padding's zeros. Scalar (8 lanes in
//! an array) and NEON (4 lanes) have no lane-masked memory operation, so
//! their masked loads, stores and lookups move exactly the `n` live floats
//! one lane at a time (scalar into and out of its array, NEON with
//! single-lane loads and stores), never through a stack buffer. NEON is
//! only compile-checked in this repository (there is no aarch64 host to
//! test or measure it on); it is the same source as the levels that are
//! tested.
//!
//! ## One body per primitive: `Lanes`
//!
//! Each primitive is written **once**, as a generic `#[inline(always)]`
//! body over a private `Lanes` trait: a level's vector type `V`, its
//! offset vector `I`, its width `W`, and its operations — `zero`, `splat`,
//! `load`, `load_masked(n)`, `store`, `store_masked(n)`, `add`, `sub`,
//! `mul`, `neg` (a sign-bit flip), `reverse`, and for lookups `load_idx`,
//! `add_idx`, `load_keys` (`W` keys widened into offsets), `lookup` (`W`
//! table entries at `W` lane offsets) and `lookup_masked(n)`. The bodies
//! are `fused_group` (one lane group of one key row, its 8 canonical
//! accumulators held as `[V; 8]`), the per-row fused query (lane groups,
//! the last one's output access masked),
//! the width-1 chain (`R` key rows' lookups at once) and its row-tile
//! driver, the DP step and mirror of the build, the width-1 tile build
//! over those two, and the KeyMajor step gather.
//!
//! Each level implements `Lanes` once — scalar `[f32; 8]` with per-lane
//! loads for lookups, AVX2 `__m256` with `vmaskmovps` and `vgatherdps`,
//! AVX-512 `__m512` with a `__mmask16` and `vgatherdps`, NEON
//! `float32x4_t` with per-lane loads — and `stamp!` instantiates every
//! body under the level's `#[target_feature]` entry with two lane types:
//! the level's own, and its width-1 chain type, which has the canonical
//! tree's 8 lanes (`Avx2` on both x86 levels, `Scalar` on scalar and NEON).
//! So the body and its `Lanes` calls compile to the level's own
//! instructions, every level runs the same source in the same per-lane
//! order, and cross-level bit-exactness holds by construction; the suites
//! check it against plain-loop oracles. One body stays hand-written: the
//! AVX-512 32-lane wide body (below). Written as `fused_group` over a
//! two-register lane type it read 1.12–1.15× slower, so it keeps its own
//! form (`crates/core/README.md`, "Kernel structure").
//!
//! History: through PR 5 the contract was a strictly sequential
//! ascending-chunk sum, which made b = 1 latency pay for invariance; PR 6
//! redefined the canonical order as the tree above — an intentional,
//! documented bit-level change, re-pinned by the regenerated golden
//! suites. Property tests (`tests/kernel_levels.rs` and
//! `tests/batch_invariance.rs` here, plus suites in `biq_gemm` and
//! `biq_runtime`) assert bit-exact equality of every supported level
//! against scalar across random shapes, µ values and ragged tails.
//!
//! ## Keys, their range, and no software prefetch
//!
//! The query kernels never see a raw key slice. They take a
//! [`KeyTile`] — the window type only a validated
//! [`biq_quant::packing::KeyMatrix`] can produce — which stores keys
//! `⌈µ/8⌉` bytes wide (one byte through the shipped µ = 8, `u16` only for
//! µ 9–16) and carries the invariant **every key `< 2^µ`**. The range check
//! itself lives where keys enter the program (`KeyMatrix::pack`,
//! `try_new`: packing by construction, the artifact loader by one scan —
//! and byte keys at µ = 8 are in range by type). So the dispatchers here
//! check `table == 2^µ` and the bank length — O(1) — instead of re-scanning
//! every key on every call, and the unchecked lookups rest on the type; a
//! `debug_assert` scan is the checked twin.
//!
//! No query loop issues a software prefetch, so each query body has one
//! form and its only memory traffic is its loads. Prefetching the entries
//! ahead of use (chunks ahead within a row, or the next row's entries)
//! measured slower on every tile it was tried on: 0.69–0.95× without it on
//! KeyMajor tiles at b = 5–32, 0.52–0.89× on width-1 chains over banks past
//! 32 KiB (in-process A/B, `crates/core/README.md`, "Keys"). The width-1
//! chain's 8-chunk loop is the two rows' key loads, offset adds, gathers
//! and accumulates, one offset-vector advance and the loop control, with
//! nothing spilled (`scripts/gather_loop.sh` checks the compiled loop).
//!
//! ## Wide batch: the row-blocked 32-lane body
//!
//! Past 16 lanes an entry is two or more cache lines and the query is a
//! stream of L2 reads, so the AVX-512 arm of [`lut_query_fused_rows`] is
//! shaped for bandwidth, not latency:
//!
//! * **32 lanes per pass** while more than 16 remain — two zmm per
//!   canonical accumulator, 16 of the 32 vector registers — so both lines
//!   of a 128-byte entry are consumed together and each key is decoded once
//!   for all 32 lanes; a pass with 17–31 live lanes loads the padded entry
//!   whole and masks only its `y` access. AVX2 has 16 registers in total:
//!   16 accumulators would leave none for loads, so that level (and NEON,
//!   and scalar) keep the per-row 8-/4-lane bodies. The ≤ 16 lanes left
//!   after the passes run a per-row body: up to 8 of them AVX2's (one ymm
//!   per lookup — every `nb ≤ 8` tile, whose stride of 8 is one ymm), more
//!   the 16-lane one (one zmm per lookup). Both are the same generic body,
//!   so the bits are the same;
//! * **one row tile per dispatch**: geometry asserts, the key-range check
//!   and level dispatch happen once per row tile, not once per row;
//! * **line-aligned entries**: with an entry stride of 8 every entry is half
//!   a cache line, and with a multiple of 16 whole lines, *iff* the bank's
//!   first float is 64-byte aligned. That is a property of the bank's buffer
//!   type (`layout.rs`), not of the caller or the allocator; the dispatcher
//!   `debug_assert`s it for line-sized entries, and checks every entry a
//!   key row reads against the bank's end.
//!
//! Per lane the order is still the canonical tree, so the wide body, the
//! per-row bodies and every other level agree bit for bit.
//!
//! ## Adding a new ISA
//!
//! 1. add the variant to [`KernelLevel`] (`name`/`parse`/`rank`), teach
//!    [`KernelLevel::is_supported`] and [`host_best`] to detect it;
//! 2. in a `#[cfg(target_arch = …)]` submodule, implement `Lanes` for the
//!    level (each operation the plain `f32` one per lane, never FMA
//!    contraction; masked forms touching lanes `0..n` only; `lookup`
//!    reading each lane's own offset only), add its `stamp!` line with the
//!    level's two lane types and its target features (the width-1 chain type must
//!    have the tree's 8 lanes: a wider level names an 8-lane type, as
//!    AVX-512 names `Avx2`), and add the cfg-gated arm to `dispatch!`.
//!    `lanes_conformance_at_every_level` and the suites below then cover
//!    the new level;
//! 3. extend the manifest codec in `biq_artifact` (one new level byte) and
//!    the CLI `--kernel` parser — rank ordering decides what the artifact
//!    loader falls back to on hosts without the new ISA;
//! 4. the per-level property suites pick the level up automatically from
//!    [`supported_levels`].
//!
//! Safety: the kernels' `unsafe` is confined to this module (the worker
//! set's is in [`crate::parallel`]), and every `unsafe` block and
//! `unsafe impl` carries a `// SAFETY:` line (`#![deny]`ed below,
//! enforced by clippy) naming its invariant: the `KeyTile` key range, the
//! lane-mask derivation, or the dispatcher's geometry asserts. The `Lanes`
//! impls state what they guarantee, and a `Lanes` method or a stamp is
//! reachable only through a [`ResolvedKernel`] constructed after a host
//! support check.

#![deny(clippy::undocumented_unsafe_blocks)]

use biq_quant::packing::{KeyTile, Keys};
use std::fmt;

/// Environment variable forcing the kernel level (`scalar` | `avx2` |
/// `avx512` | `neon`). Consulted by [`KernelRequest::resolve`] for `Auto`
/// and `AtMost` requests; explicit `Exact` requests (e.g. the per-level
/// property tests) are not overridden. The CLI's `--kernel` flag plumbs
/// through this variable so one switch reaches every plan in the process.
pub const KERNEL_ENV: &str = "BIQ_KERNEL";

/// One implementation tier of the hot-loop kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelLevel {
    /// Portable scalar loops (auto-vectorised by LLVM where possible).
    Scalar,
    /// AVX2 + FMA feature set, 8-lane `f32` vectors (FMA is *detected* but
    /// never used for contraction — see the bit-exactness contract).
    Avx2,
    /// AVX-512 F/BW/DQ/VL feature set, 16-lane `f32` vectors.
    Avx512,
    /// AArch64 NEON, 4-lane `f32` vectors (baseline on aarch64).
    Neon,
}

impl KernelLevel {
    /// Every level the enum can express, in rank order per family.
    pub const ALL: [KernelLevel; 4] =
        [KernelLevel::Scalar, KernelLevel::Avx2, KernelLevel::Neon, KernelLevel::Avx512];

    /// Stable lowercase name (CLI flag values, stats, JSON records).
    pub fn name(self) -> &'static str {
        match self {
            KernelLevel::Scalar => "scalar",
            KernelLevel::Avx2 => "avx2",
            KernelLevel::Avx512 => "avx512",
            KernelLevel::Neon => "neon",
        }
    }

    /// Parses a [`KernelLevel::name`] back (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelLevel::Scalar),
            "avx2" => Some(KernelLevel::Avx2),
            "avx512" => Some(KernelLevel::Avx512),
            "neon" => Some(KernelLevel::Neon),
            _ => None,
        }
    }

    /// Cross-family width rank, the fallback ordering the artifact loader
    /// uses: an artifact recorded at rank `r` re-resolves to the richest
    /// host level of rank ≤ `r` when the exact ISA is absent.
    pub fn rank(self) -> u8 {
        match self {
            KernelLevel::Scalar => 0,
            KernelLevel::Avx2 | KernelLevel::Neon => 1,
            KernelLevel::Avx512 => 2,
        }
    }

    /// Whether the running host can execute this level.
    pub fn is_supported(self) -> bool {
        match self {
            KernelLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelLevel::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            // The Avx512 tier is a superset of the Avx2 tier (true of every
            // AVX-512F part): its width-1 gathers are the 256-bit bodies and
            // its flat elementwise primitives finish 8-wide.
            #[cfg(target_arch = "x86_64")]
            KernelLevel::Avx512 => {
                KernelLevel::Avx2.is_supported()
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512vl")
            }
            // NEON is architecturally mandatory on aarch64.
            #[cfg(target_arch = "aarch64")]
            KernelLevel::Neon => true,
            #[cfg(not(target_arch = "x86_64"))]
            KernelLevel::Avx2 | KernelLevel::Avx512 => false,
            #[cfg(not(target_arch = "aarch64"))]
            KernelLevel::Neon => false,
        }
    }
}

impl fmt::Display for KernelLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The richest level the running host supports.
pub fn host_best() -> KernelLevel {
    let mut best = KernelLevel::Scalar;
    for l in KernelLevel::ALL {
        if l.is_supported() && l.rank() > best.rank() {
            best = l;
        }
    }
    best
}

/// Every level the running host supports, rank-ascending — what the
/// per-level property tests enumerate.
pub fn supported_levels() -> Vec<KernelLevel> {
    let mut levels: Vec<KernelLevel> =
        KernelLevel::ALL.into_iter().filter(|l| l.is_supported()).collect();
    levels.sort_by_key(|l| l.rank());
    levels
}

/// What a plan asks the kernel layer for. Resolved exactly once, at plan
/// build time, into a [`ResolvedKernel`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelRequest {
    /// `BIQ_KERNEL` override when set, else [`host_best`].
    #[default]
    Auto,
    /// Exactly this level; resolution errors when the host lacks it.
    Exact(KernelLevel),
    /// The recorded level if supported, else the richest host level of no
    /// higher [`KernelLevel::rank`] — the artifact re-resolution rule.
    /// `BIQ_KERNEL`, when set, still wins (so a forced-scalar CI run loads
    /// artifacts scalar too).
    AtMost(KernelLevel),
}

impl KernelRequest {
    /// Resolves the request against the running host (and the
    /// [`KERNEL_ENV`] override). This is the **only** place feature
    /// detection happens; the result is pinned into the execution plan and
    /// hot loops dispatch on it without further probing.
    ///
    /// # Errors
    /// A clear [`KernelError`] when the requested (or env-forced) level is
    /// not supported by this host, or the env value is not a level name.
    pub fn resolve(self) -> Result<ResolvedKernel, KernelError> {
        let env = env_override()?;
        let level = match (self, env) {
            // Explicit exact requests (per-level tests, benches) are not
            // overridden — they must mean what they say or fail.
            (KernelRequest::Exact(l), _) => require_supported(l, "requested")?,
            (KernelRequest::Auto, Some(forced)) | (KernelRequest::AtMost(_), Some(forced)) => {
                forced
            }
            (KernelRequest::Auto, None) => host_best(),
            (KernelRequest::AtMost(l), None) => clamp_to_host(l),
        };
        Ok(ResolvedKernel(level))
    }
}

impl fmt::Display for KernelRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelRequest::Auto => f.write_str("auto"),
            KernelRequest::Exact(l) => write!(f, "{l}"),
            KernelRequest::AtMost(l) => write!(f, "at-most-{l}"),
        }
    }
}

/// A kernel level *proven* executable on this host: the only constructors
/// are [`KernelRequest::resolve`] (which checks support) and the always-
/// valid [`ResolvedKernel::scalar`]. Holding one is the licence the
/// dispatchers rely on — no per-call feature probing, and no representable
/// foreign level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedKernel(KernelLevel);

impl ResolvedKernel {
    /// The portable level, valid on every host.
    pub fn scalar() -> Self {
        Self(KernelLevel::Scalar)
    }

    /// The richest host level (no request, no env override — prefer
    /// [`KernelRequest::resolve`] on planned paths).
    pub fn host_best() -> Self {
        Self(host_best())
    }

    /// The resolved level.
    pub fn level(self) -> KernelLevel {
        self.0
    }
}

impl fmt::Display for ResolvedKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A kernel request that cannot be satisfied on this host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelError(String);

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for KernelError {}

fn require_supported(l: KernelLevel, what: &str) -> Result<KernelLevel, KernelError> {
    if l.is_supported() {
        Ok(l)
    } else {
        Err(KernelError(format!(
            "kernel level '{l}' was {what} but this host does not support it \
             (host best: '{}')",
            host_best()
        )))
    }
}

/// Whether a [`KERNEL_ENV`] override is in force (set, non-empty, and not
/// `auto`). Plan-time heuristics consult this to stand down: a forced level
/// must reach every plan untouched, including shape-aware Auto refinements.
pub fn env_override_active() -> bool {
    matches!(std::env::var(KERNEL_ENV), Ok(v) if !v.is_empty() && v != "auto")
}

fn env_override() -> Result<Option<KernelLevel>, KernelError> {
    match std::env::var(KERNEL_ENV) {
        Ok(v) if !v.is_empty() && v != "auto" => {
            let level = KernelLevel::parse(&v).ok_or_else(|| {
                KernelError(format!(
                    "{KERNEL_ENV}='{v}' is not a kernel level \
                     (expected scalar | avx2 | avx512 | neon | auto)"
                ))
            })?;
            Ok(Some(require_supported(level, &format!("forced via {KERNEL_ENV}"))?))
        }
        _ => Ok(None),
    }
}

/// The richest supported level of rank ≤ `l.rank()` (scalar at worst).
fn clamp_to_host(l: KernelLevel) -> KernelLevel {
    if l.is_supported() {
        return l;
    }
    let mut best = KernelLevel::Scalar;
    for cand in KernelLevel::ALL {
        if cand.is_supported() && cand.rank() <= l.rank() && cand.rank() > best.rank() {
            best = cand;
        }
    }
    best
}

// ------------------------------------------------------------- dispatch

/// Runs `$body` with `$m` naming the resolved level's module, or calls that
/// module's stamp `$f` (`stamp!`). Arms for foreign
/// architectures are not compiled; hitting the wildcard would mean a
/// [`ResolvedKernel`] invariant violation, which is a bug — hence
/// `unreachable!`, never a silent scalar remap. Every arm runs in `unsafe`:
/// a `ResolvedKernel` holds only a level its constructors found on this
/// host, and every caller asserts the geometry its callee's contract names
/// before dispatching.
macro_rules! dispatch {
    ($k:expr, $m:ident => $body:expr) => {
        match $k.level() {
            // SAFETY: the scalar level needs no ISA; geometry asserted by the caller.
            KernelLevel::Scalar => unsafe { use self::scalar as $m; $body },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: resolved ⇒ the host has AVX2; geometry as above.
            KernelLevel::Avx2 => unsafe { use self::avx2 as $m; $body },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: resolved ⇒ the host has AVX-512 F/BW/DQ/VL; geometry as above.
            KernelLevel::Avx512 => unsafe { use self::avx512 as $m; $body },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64; geometry as above.
            KernelLevel::Neon => unsafe { use self::neon as $m; $body },
            #[allow(unreachable_patterns)]
            other => unreachable!("kernel level {other:?} resolved on a foreign architecture"),
        }
    };
    ($k:expr, $f:ident($($arg:expr),* $(,)?)) => {
        dispatch!($k, level => level::$f($($arg),*))
    };
}

// ------------------------------------------------------------ primitives

/// The µ-wide DP step of the batched Algorithm 1 build (KeyMajor layout)
/// over a whole half-table block: `dst[r·nb + a] = src[r·nb + a] +
/// step[a]` for every row `r`, `nb = step.len()` — **one** dispatch per DP
/// level, so the call overhead never scales with `2^µ`. At `nb == 1` this
/// is the scalar-step recurrence of the single-table build
/// (`dst[i] = src[i] + step[0]`), run as one flat loop over the block.
///
/// # Panics
/// Panics when `step` is empty, or when `dst`/`src` lengths differ or are
/// not a multiple of `step.len()`.
#[inline]
pub fn dp_step_add_rows(dst: &mut [f32], src: &[f32], step: &[f32], k: ResolvedKernel) {
    assert_eq!(dst.len(), src.len(), "DP step blocks differ in length");
    assert!(!step.is_empty() && dst.len().is_multiple_of(step.len()), "DP step: partial row");
    dispatch!(rows_at(k, step.len()), dp_step_add_rows(dst, src, step))
}

/// The mirror half of the Algorithm 1 build: `dst` row `r` is the negation
/// of `src` row `rows − 1 − r` (rows of `nb` floats) — one dispatch per
/// chunk. At `nb == 1` (the single-table build) the block is reversed
/// inside the vector instead of row by row.
///
/// # Panics
/// Panics when `nb == 0`, or when the lengths differ or are not a multiple
/// of `nb`.
#[inline]
pub fn negate_rows_reversed(dst: &mut [f32], src: &[f32], nb: usize, k: ResolvedKernel) {
    assert_eq!(dst.len(), src.len(), "mirror blocks differ in length");
    assert!(nb > 0 && dst.len().is_multiple_of(nb), "mirror: partial row");
    dispatch!(rows_at(k, nb), negate_rows_reversed(dst, src, nb))
}

/// The level that runs rows of `row > 1` floats: AVX-512 runs a row
/// narrower than its 16 lanes at AVX2's 8, so a KeyMajor row of the
/// 8-float [`crate::layout::entry_stride`] is one whole vector at every
/// x86 level. Bits do not depend on the pick: every level performs the
/// same per-lane operations.
#[inline]
fn rows_at(k: ResolvedKernel, row: usize) -> ResolvedKernel {
    if k.0 == KernelLevel::Avx512 && (2..16).contains(&row) {
        // Resolved AVX-512 implies AVX2 (`KernelLevel::is_supported`).
        ResolvedKernel(KernelLevel::Avx2)
    } else {
        k
    }
}

/// The width-1 Algorithm 1 build of a whole tile in **one** dispatch: `x`
/// is cut into `µ`-float chunks (the last one may be shorter), and chunk
/// `c` of length `L` gets its `2^L` single-flip DP entries at
/// `out[c·2^µ ..]` — `−Σ x`, then per level `q[2^t + j] = q[j] +
/// 2·x_{L−1−t}` as the flat (`nb == 1`) form of [`dp_step_add_rows`], then
/// the mirror as the flat form of [`negate_rows_reversed`]. The same
/// elementwise operations in the same order as building each chunk on its
/// own, so every level is bit-exact against scalar and against
/// [`crate::lut::build_lut_dp`], which is this builder's one-chunk scalar
/// case (`µ = x.len()`).
///
/// # Panics
/// Panics when `µ ∉ 1..=16`, or when `out` ends before the last chunk's
/// table does (the body slices `out` with bounds checks).
pub fn dp_build_tile(out: &mut [f32], x: &[f32], mu: usize, k: ResolvedKernel) {
    assert!((1..=16).contains(&mu), "sub-vector length must be in 1..=16");
    dispatch!(k, dp_build_tile(out, x, mu))
}

/// A caller's loop nest, compiled at a kernel level by [`run_at`]: how code
/// outside this module (`biq_nn`'s attention scores, GELU map, residual
/// add + layer norm and transpose) runs its element loops at the level its
/// plan resolved, written once as plain `f32` Rust like the scalar level of
/// every primitive here.
pub trait LevelBody {
    /// The body. Mark it `#[inline(always)]`: it is inlined into the
    /// level's `#[target_feature]` entry, so LLVM vectorises its
    /// lane-independent loops with that level's registers. Plain Rust `f32`
    /// operations are never fused or reassociated, so the body computes
    /// the same bits at every level by construction.
    fn run(self);
}

/// Runs `body` at the resolved level `k` — one dispatch, no feature probe
/// (the level was resolved once, at plan time).
pub fn run_at<B: LevelBody>(k: ResolvedKernel, body: B) {
    dispatch!(k, run_body(body))
}

/// One stored key width the bodies are instantiated for. Private: the
/// public entry points take a [`KeyTile`] and pick the instantiation.
trait KeyElem: Copy + Into<usize> {
    /// The key as a table index.
    #[inline(always)]
    fn idx(self) -> usize {
        self.into()
    }
}

impl KeyElem for u8 {}
impl KeyElem for u16 {}

/// Runs `$body` with `$ks` bound to the tile's key slab at its stored
/// width (`&[u8]` or `&[u16]`).
macro_rules! with_keys {
    ($tile:expr, $ks:ident => $body:expr) => {
        match $tile.keys() {
            Keys::U8($ks) => $body,
            Keys::U16($ks) => $body,
        }
    };
}

/// The O(1) form of the per-call key validation: a [`KeyTile`] proves
/// every key `< 2^µ`, so keys index a table in bounds iff the table stride
/// is `2^µ`. Debug builds re-scan the tile as the checked twin.
///
/// # Panics
/// Panics when `table != 2^µ`.
#[inline]
fn assert_keys_fit(keys: &KeyTile<'_>, table: usize) {
    assert_eq!(table, 1usize << keys.mu(), "table stride must be 2^µ of the key tile");
    debug_assert!(
        (0..keys.rows()).all(|i| (0..keys.nc()).all(|c| keys.key(i, c) < table)),
        "key tile violates its range invariant"
    );
}

/// The fused query kernel of Algorithm 2 (KeyMajor layout) over one row
/// tile: for each row `i` of the key tile, accumulate the looked-up batch
/// vectors of every chunk in registers and apply the row's scale in the
/// same pass —
/// `y[i·y_stride + a] += scales[i] · Σ_ci bank[(ci·table + keys_i[ci])·s + a]`
/// for `a < nb`, with `s = `[`crate::layout::entry_stride`]`(nb)`. The
/// b ≥ 2 twin of [`lut_gather_rows`]: geometry checks, the key-range check
/// and level dispatch happen once per row tile.
///
/// `bank` is a KeyMajor tile base: chunk `ci`'s table starts at
/// `ci · table · s`, each of its `table = 2^µ` entries is a contiguous
/// `s`-float batch vector whose first `nb` lanes are live. Every level
/// accumulates each batch lane in the canonical tree order (see the module
/// docs) and rounds the final multiply-add in two steps, so all levels —
/// and [`lut_gather_rows`] at `nb == 1` — agree bit for bit, and a row tile
/// equals its rows queried one at a time. The padded lanes `nb..s` are read
/// (whole vectors) but never stored, so their contents reach no output.
///
/// On AVX-512, lanes are taken 32 at a time while more than 16 remain (the
/// row-blocked wide body, module docs "Wide batch"), up to 8 lanes left run
/// AVX2's per-row body (one ymm per lookup), and 9–16 one zmm group. Every
/// other level runs the per-row body: lane groups of the level's width,
/// the last one's `y` access masked to the live lanes (module docs "Ragged
/// lanes").
///
/// # Panics
/// Panics when `scales.len() != keys.rows()`, `table != 2^µ`, or a slice
/// is too short for the described geometry. Debug builds also check every
/// entry a key row reads against the bank's end, and that a bank of
/// line-sized entries (`s % 16 == 0`) starts on a 64-byte boundary — a
/// split-line layout the bank type rules out.
#[allow(clippy::too_many_arguments)]
pub fn lut_query_fused_rows(
    y: &mut [f32],
    y_stride: usize,
    scales: &[f32],
    bank: &[f32],
    table: usize,
    nb: usize,
    keys: KeyTile<'_>,
    k: ResolvedKernel,
) {
    let (nr, nc, key_stride) = (keys.rows(), keys.nc(), keys.stride());
    assert_eq!(scales.len(), nr, "one scale per key row");
    if nr == 0 || nb == 0 {
        return;
    }
    assert!(y_stride >= nb, "output rows overlap: y_stride shorter than the batch tile");
    assert!(y.len() >= (nr - 1) * y_stride + nb, "output shorter than the row tile needs");
    assert_keys_fit(&keys, table);
    let stride = crate::layout::entry_stride(nb);
    assert!(bank.len() >= nc * table * stride, "bank shorter than the key rows need");
    // The checked twin of the unmasked entry loads: each reads a whole
    // stride from its offset.
    debug_assert!(
        (0..nr).all(|i| (0..nc).all(|c| (c * table + keys.key(i, c) + 1) * stride <= bank.len())),
        "a KeyMajor entry runs past the bank"
    );
    debug_assert!(
        !stride.is_multiple_of(16) || (bank.as_ptr() as usize).is_multiple_of(64),
        "KeyMajor bank of line-sized entries is not cache-line aligned"
    );
    let k = rows_at(k, stride);
    with_keys!(keys, ks => {
        // Every row handed to a body is a row of a `KeyTile`, whose range
        // invariant (every key `< 2^µ`) with the `table == 2^µ` check above
        // bounds each entry `[off, off + s)` by the `nc · table · s` floats
        // the bank-length assert established; a body's lane groups tile the
        // stride (`rows_at`: 8 lanes on a stride of 8). Output rows are
        // `nb`-float slices (per-row bodies) or covered by the
        // output-geometry asserts (the AVX-512 rows body).
        #[cfg(target_arch = "x86_64")]
        if k.level() == KernelLevel::Avx512 {
            // SAFETY: resolved ⇒ the host has AVX-512 F/BW/DQ/VL; geometry as above.
            return unsafe {
                avx512::lut_query_fused_rows(
                    y, y_stride, scales, bank, table, nb, ks, key_stride, nc,
                )
            };
        }
        let rows = (0..nr).map(|i| (i * y_stride, scales[i], &ks[i * key_stride..][..nc]));
        dispatch!(k, level => for (yo, scale, row) in rows {
            level::fused_row(&mut y[yo..yo + nb], scale, bank, table, stride, row);
        })
    })
}

/// The width-1 query kernel over one row tile of one batch column: for
/// each row `i` of the key tile,
/// `y[i · y_stride] += scales[i] · Σ_c bank[c · table + keys_i[c]]`
/// (`c < keys.nc()`), the sum in the canonical accumulation-tree order
/// (module docs) — one column's chunk tables back to back, as a narrow
/// tile's column tables hold each column (`crate::layout`); at b = 1 the
/// latency path. A narrow tile of several columns calls it once per
/// column, each column across every row tile before the next, so one
/// column's tables stay in L1 (`crate::tiled`).
///
/// Every level runs the one width-1 chain, 8 lanes wide because the
/// canonical tree is: on AVX2 and AVX-512 one hardware gather per row per 8
/// chunks, two consecutive rows' independent chains interleaved (the
/// gather unit's latency is the width-1 bottleneck); on scalar and NEON
/// per-lane loads. All levels — and [`lut_query_fused_rows`] at `nb == 1` —
/// agree bit for bit, and a row tile equals its rows queried one at a
/// time. Geometry checks and level dispatch happen once per row tile.
///
/// # Panics
/// Panics when `scales.len() != keys.rows()`, `table != 2^µ`, a slice is
/// too short for the described geometry, or the bank exceeds the 32-bit
/// offset range.
#[allow(clippy::too_many_arguments)]
pub fn lut_gather_rows(
    y: &mut [f32],
    y_stride: usize,
    scales: &[f32],
    bank: &[f32],
    table: usize,
    keys: KeyTile<'_>,
    k: ResolvedKernel,
) {
    let (nr, nc, key_stride) = (keys.rows(), keys.nc(), keys.stride());
    assert_eq!(scales.len(), nr, "one scale per key row");
    if nr == 0 {
        return;
    }
    assert!(y_stride != 0, "y_stride must be positive");
    assert!(y.len() > (nr - 1) * y_stride, "output shorter than the row tile needs");
    assert!(bank.len() >= nc * table, "bank shorter than the key rows need");
    assert!(bank.len() <= i32::MAX as usize, "bank exceeds the 32-bit lookup offset range");
    assert_keys_fit(&keys, table);
    with_keys!(keys, ks => dispatch!(
        k,
        gather_rows(y, y_stride, scales, bank, table, ks, key_stride, nc)
    ))
}

/// The input side of the batched (KeyMajor) Algorithm 1 build for a whole
/// tile in **one** dispatch — the strided data movement the profile charges
/// to the replace phase. Column `a` of the tile is `x[a·n ..][..n]`; chunk
/// `c` of `chunks` (global index) covers its floats `c·µ ..`, `l` of them
/// (`l < µ` only for a ragged last chunk). For the tile's `i`-th chunk
/// and every column `a < nb`:
///
/// * `bank[i·2^µ·s + a] = 0 − x_0 − x_1 − … − x_{l−1}` (entry 0, the
///   all-minus pattern, subtracted in ascending order);
/// * `steps[i·µ·s + t·s + a] = 2·x_{l−1−t}` for the DP levels `t < l − 1`
///   (the step rows [`dp_step_add_rows`] adds),
///
/// with `s = `[`crate::layout::entry_stride`]`(nb)`; the padded lanes
/// `nb ≤ a < s` of both get `+0.0`, and nothing else is written.
///
/// Batch columns are the lanes: per lane group and chunk position `j`, one
/// lookup pulls `x_j` of every column of the group at lane offsets `a·n`;
/// a group narrower than the level's width looks up its live lanes only
/// and reads `+0.0` into the rest, and every store is a whole vector. Per
/// lane the operations are the scalar chain's, in its order, so every level
/// writes the same bits.
///
/// # Panics
/// Panics when `µ ∉ 1..=16`, `n == 0`, a chunk of `chunks` starts at or
/// past `n`, `x` is shorter than `nb` columns, `x` exceeds the 32-bit lookup
/// offset range, or `bank`/`steps` are shorter than the tile needs.
#[allow(clippy::too_many_arguments)]
pub fn gather_key_major_steps(
    bank: &mut [f32],
    steps: &mut [f32],
    x: &[f32],
    n: usize,
    mu: usize,
    chunks: std::ops::Range<usize>,
    nb: usize,
    k: ResolvedKernel,
) {
    assert!((1..=16).contains(&mu), "sub-vector length must be in 1..=16");
    let num_chunks = chunks.len();
    if num_chunks == 0 || nb == 0 {
        return;
    }
    assert!(n > 0 && (chunks.end - 1) * mu < n, "chunk range past the input");
    assert!(x.len() >= nb * n, "input shorter than the tile's columns");
    assert!(x.len() <= i32::MAX as usize, "input exceeds the 32-bit lookup offset range");
    let stride = crate::layout::entry_stride(nb);
    let bank_needs = ((num_chunks - 1) << mu) * stride + stride;
    assert!(bank.len() >= bank_needs, "bank shorter than the tile needs");
    assert!(steps.len() >= num_chunks * mu * stride, "step rows shorter than the tile needs");
    dispatch!(rows_at(k, stride), gather_steps(bank, steps, x, n, mu, chunks, nb))
}

// ------------------------------------------------------- canonical tree

/// Width of the canonical accumulation tree: the number of partial sums
/// each output element carries through the chunk loop (module docs,
/// "Bit-exactness and the canonical accumulation order"). The width-1
/// chain's lane count on every level, and the accumulator count of every
/// fused lane group.
pub const ACC_TREE_WIDTH: usize = 8;

/// The fixed pairwise fold of the canonical accumulation tree:
/// `p[i] += p[i+4]`, then `p[i] += p[i+2]`, then `p[0] += p[1]` — the
/// horizontal-add ladder of an 8-lane vector, written out for the width-1
/// chain's spilled partials.
#[inline]
fn tree_reduce8(mut p: [f32; ACC_TREE_WIDTH]) -> f32 {
    p[0] += p[4];
    p[1] += p[5];
    p[2] += p[6];
    p[3] += p[7];
    p[0] += p[2];
    p[1] += p[3];
    p[0] + p[1]
}

// ----------------------------------------------------------------- lanes

/// Writes [`Lanes`] methods one line each: `fn name(args) -> R = body;`
/// becomes `#[inline(always)] unsafe fn name(args) -> R { body }`.
macro_rules! lanes_fns {
    ($(fn $f:ident $(<$g:ident: $b:path>)? ($($a:ident: $t:ty),*) $(-> $r:ty)? = $e:expr;)*) => {
        $(#[inline(always)] unsafe fn $f $(<$g: $b>)? ($($a: $t),*) $(-> $r)? { $e })*
    };
}

/// One level's `f32` vector as the generic kernel bodies see it: the
/// vector type, its offset vector, its lane count `W`, and the operations
/// the primitives are written in. Each level implements it once — scalar
/// `[f32; 8]`, AVX2 `__m256`, AVX-512 `__m512`, NEON `float32x4_t` — and
/// each primitive is written once over it ([`fused_group`],
/// [`fused_row_body`], [`gather_chain`], [`gather_rows_body`],
/// [`dp_step_add_rows_body`], [`negate_rows_reversed_body`],
/// [`gather_steps_body`]), so every level performs the same
/// operations in the same per-lane order by construction. An
/// implementation is one intrinsic, or one plain loop, per method.
///
/// # Safety
/// *Implementing:* per lane, `add`, `sub` and `mul` are exactly the IEEE-754
/// `f32` operation plain Rust performs (never fused, never reassociated),
/// `neg` flips the sign bit and nothing else, and `reverse` moves lanes bit
/// for bit. The masked forms access lanes `0..n` only: a masked-out lane
/// is never written and never read, and `load_masked` returns it as `+0.0`.
/// `lookup` reads `base + off[i]` into lane `i` and nothing else, and
/// `lookup_masked` does so for lanes `0..n` only, returning the rest as
/// `+0.0` without reading memory for them; `load_keys` zero-extends `W`
/// keys, `add_idx` adds offsets lane-wise (wrapping). The generic bodies
/// rely on this for memory safety.
///
/// *Calling:* the level's instruction set must be available — a body runs
/// a level's methods only from that level's stamp (`stamp!`), which only a
/// [`ResolvedKernel`] dispatch reaches. `load`/`store`/`load_idx`/
/// `load_keys` need `W` readable / writable elements at `p`; the masked
/// forms need `n ≤ W` of them; `lookup` needs every `base + off[i]`
/// readable, `lookup_masked` those of lanes `0..n`.
unsafe trait Lanes {
    /// The vector of `W` floats.
    type V: Copy;
    /// `W` table offsets, one per lane (32-bit: the hardware gathers' index
    /// width).
    type I: Copy;
    /// Lanes per vector.
    const W: usize;
    /// Every lane `x`.
    unsafe fn splat(x: f32) -> Self::V;
    /// `W` floats from `p`, unaligned.
    unsafe fn load(p: *const f32) -> Self::V;
    /// `W` floats to `p`, unaligned.
    unsafe fn store(p: *mut f32, v: Self::V);
    /// Lane-wise `a + b`.
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a − b`.
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a · b`.
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `−a`: the sign bit flipped, NaN payloads included.
    unsafe fn neg(a: Self::V) -> Self::V;
    /// Lane `i` ← lane `W − 1 − i` (the `nb == 1` mirror).
    unsafe fn reverse(a: Self::V) -> Self::V;
    /// `W` offsets from `p` (set-up code, outside the lookup loops).
    unsafe fn load_idx(p: *const u32) -> Self::I;
    /// Lane-wise offset `a + b`, wrapping.
    unsafe fn add_idx(a: Self::I, b: Self::I) -> Self::I;
    /// `W` consecutive keys from `p`, zero-extended into offset lanes.
    unsafe fn load_keys<K: KeyElem>(p: *const K) -> Self::I;
    /// The table lookup: lane `i` ← `base[off[i]]`.
    unsafe fn lookup(base: *const f32, off: Self::I) -> Self::V;
    /// [`Lanes::lookup`] for lanes `0..n`, the rest `+0.0`.
    unsafe fn lookup_masked(base: *const f32, off: Self::I, n: usize) -> Self::V;

    /// Lanes `0..n` from `p`, the rest `+0.0`.
    unsafe fn load_masked(p: *const f32, n: usize) -> Self::V;
    /// Lanes `0..n` to `p`, the floats after them untouched.
    unsafe fn store_masked(p: *mut f32, n: usize, v: Self::V);

    /// All lanes `+0.0`.
    #[inline(always)]
    unsafe fn zero() -> Self::V {
        Self::splat(0.0)
    }
}

/// Stamps the generic bodies for one level, inside that level's module:
/// one entry per primitive under the level's `#[target_feature]` set (none
/// for scalar), so the `#[inline(always)]` bodies and their [`Lanes`] calls
/// compile to that level's instructions. `$lanes` is the level's vector,
/// `$chain` the 8-lane type of its width-1 chain. The entries are what
/// `dispatch!` calls.
macro_rules! stamp {
    ($lanes:ty, $chain:ty $(, $feature:literal)*) => {
        /// The per-row fused query at this level (`fused_row_body`).
        ///
        /// # Safety
        /// This level's ISA is available; otherwise the body's contract.
        $(#[target_feature(enable = $feature)])*
        pub unsafe fn fused_row<K: super::KeyElem>(
            y: &mut [f32], scale: f32, bank: &[f32], table: usize, stride: usize, keys: &[K],
        ) {
            // SAFETY: the features above provide the ISA; the rest is this
            // entry's contract, the body's.
            unsafe { super::fused_row_body::<$lanes, K>(y, scale, bank, table, stride, keys) }
        }

        /// The width-1 row-tile query at this level (`gather_rows_body`).
        ///
        /// # Safety
        /// This level's ISA is available; otherwise the body's contract.
        $(#[target_feature(enable = $feature)])*
        #[allow(clippy::too_many_arguments)]
        pub unsafe fn gather_rows<K: super::KeyElem>(
            y: &mut [f32], y_stride: usize, scales: &[f32], bank: &[f32], table: usize,
            keys: &[K], key_stride: usize, nc: usize,
        ) {
            let args = (y, y_stride, scales, bank, table);
            // SAFETY: as for `fused_row`.
            unsafe { super::gather_rows_body::<$chain, K>(args, keys, key_stride, nc) }
        }

        /// The KeyMajor step gather at this level (`gather_steps_body`).
        ///
        /// # Safety
        /// This level's ISA is available; otherwise the body's contract.
        $(#[target_feature(enable = $feature)])*
        pub unsafe fn gather_steps(
            bank: &mut [f32], steps: &mut [f32], x: &[f32], n: usize, mu: usize,
            chunks: std::ops::Range<usize>, nb: usize,
        ) {
            // SAFETY: as for `fused_row`.
            unsafe { super::gather_steps_body::<$lanes>(bank, steps, x, n, mu, chunks, nb) }
        }

        /// The DP step at this level (`dp_step_add_rows_body`).
        ///
        /// # Safety
        /// This level's ISA is available; otherwise the body's contract.
        $(#[target_feature(enable = $feature)])*
        pub unsafe fn dp_step_add_rows(dst: &mut [f32], src: &[f32], step: &[f32]) {
            // SAFETY: as for `fused_row`.
            unsafe { super::dp_step_add_rows_body::<$lanes>(dst, src, step) }
        }

        /// The mirror at this level (`negate_rows_reversed_body`).
        ///
        /// # Safety
        /// This level's ISA is available; otherwise the body's contract.
        $(#[target_feature(enable = $feature)])*
        pub unsafe fn negate_rows_reversed(dst: &mut [f32], src: &[f32], nb: usize) {
            // SAFETY: as for `fused_row`.
            unsafe { super::negate_rows_reversed_body::<$lanes>(dst, src, nb) }
        }

        /// A caller's loop nest compiled at this level (`run_at`).
        ///
        /// # Safety
        /// This level's ISA is available.
        $(#[target_feature(enable = $feature)])*
        pub unsafe fn run_body<B: super::LevelBody>(body: B) {
            body.run()
        }

        /// The width-1 tile build at this level (`dp_build_tile_body`).
        ///
        /// # Safety
        /// This level's ISA is available; otherwise the body's contract.
        $(#[target_feature(enable = $feature)])*
        pub unsafe fn dp_build_tile(out: &mut [f32], x: &[f32], mu: usize) {
            // SAFETY: as for `fused_row`.
            unsafe { super::dp_build_tile_body::<$lanes>(out, x, mu) }
        }
    };
}

// -------------------------------------------------------- generic bodies

/// The per-row fused query at level `L` — one key row of
/// [`lut_query_fused_rows`]: `y[a] += scale · Σ_ci bank[(ci·table +
/// keys[ci])·stride + a]` for the lanes `a < y.len()`, in `L::W`-lane
/// groups whose bank loads are whole vectors; the last group, when fewer
/// than `W` lanes are left, masks its `y` load and store to them (module
/// docs, "Ragged lanes"). `stride` is the bank's entry stride; the AVX-512
/// wide body hands in the tail of a row, with `bank` pre-offset by the same
/// lane index.
///
/// # Safety
/// `L`'s ISA is available; `keys` is a row of a `KeyTile` whose
/// `2^µ == table`, and `bank` holds `(ci·table + key)·stride + a` for every
/// chunk `ci < keys.len()`, key `< table` and lane
/// `a < y.len().next_multiple_of(W)`.
#[inline(always)]
unsafe fn fused_row_body<L: Lanes, K: KeyElem>(
    y: &mut [f32],
    scale: f32,
    bank: &[f32],
    table: usize,
    stride: usize,
    keys: &[K],
) {
    let full = y.len() - y.len() % L::W;
    // SAFETY: group `a0` reads lanes `a0 .. a0 + W` of every entry
    // `(ci·table + key)·stride`, with `key < table` by the `KeyTile` range
    // invariant (every key `< 2^µ`, established when the `KeyMatrix` was
    // built) and `table == 2^µ` — in `bank` by the caller's contract, the
    // last group included. A full group spans lanes `a0 .. a0 + W ≤ full`
    // of `y`; the last group is handed exactly the `y.len() − full` live
    // lanes of `y` and masks its access to them (`fused_group`).
    unsafe {
        for a0 in (0..full).step_by(L::W) {
            let (yg, base) = (&mut y[a0..a0 + L::W], bank.as_ptr().add(a0));
            fused_group::<L, K, false>(yg, scale, base, table, stride, keys);
        }
        if full < y.len() {
            let base = bank.as_ptr().add(full);
            fused_group::<L, K, true>(&mut y[full..], scale, base, table, stride, keys);
        }
    }
}

/// One `L::W`-lane group of one key row: `y[a] += scale · Σ_ci
/// entry(ci, keys[ci])[a]` for the lanes `a < y.len()`, `base` pointing at
/// the group's lane 0 in the bank. The canonical tree's 8 accumulators are
/// `[L::V; 8]`: chunk `ci` lands in accumulator `ci % 8`, they fold in the
/// fixed `+4, +2, +1` ladder, then multiply and add round separately.
/// Every entry load is a whole vector. `MASKED = false` is a full group
/// (`y.len() == W`); `MASKED = true` is the last group of a ragged row
/// (`1 ≤ y.len() < W`), the same loads, accumulators, fold and multiply-add
/// with the `y` load and store masked to the live lanes — so per lane the
/// order *is* the full group's. An idle lane accumulates the bank's padding
/// and is discarded, never stored.
///
/// # Safety
/// `L`'s ISA is available; for every `ci < keys.len()`,
/// `base + (ci·table + keys[ci])·stride .. + W` is readable.
#[inline(always)]
unsafe fn fused_group<L: Lanes, K: KeyElem, const MASKED: bool>(
    y: &mut [f32],
    scale: f32,
    base: *const f32,
    table: usize,
    stride: usize,
    keys: &[K],
) {
    let (n, klen) = (y.len(), keys.len());
    debug_assert!(if MASKED { (1..L::W).contains(&n) } else { n == L::W });
    // SAFETY: every entry pointer is one the caller vouched for (`ci <
    // klen` for each unchecked key read), read for `W` lanes. `y` is read
    // and written for its own `n` lanes: all `W` when unmasked, else
    // through the masked forms, which touch lanes `0..n` only (the `Lanes`
    // contract) — a masked-out lane belongs to the next output row.
    unsafe {
        // Chunk `ci`'s table starts `ci·table·stride` floats past `base`:
        // one running pointer, advanced per chunk, keeps the loop's
        // addressing in two registers.
        let span = table * stride;
        let mut tbl = base;
        let mut ent = |ci: usize| {
            let v = L::load(tbl.add(keys.get_unchecked(ci).idx() * stride));
            tbl = tbl.add(span);
            v
        };
        let mut acc = [L::zero(); ACC_TREE_WIDTH];
        let mut ci = 0;
        while ci + 8 <= klen {
            for (j, a) in acc.iter_mut().enumerate() {
                *a = L::add(*a, ent(ci + j));
            }
            ci += 8;
        }
        // Ragged chunk tail: chunk `ci + j` lands in accumulator
        // `(ci + j) % 8 == j` (`ci` is a multiple of 8 here).
        for (j, a) in acc.iter_mut().enumerate() {
            if ci + j < klen {
                *a = L::add(*a, ent(ci + j));
            }
        }
        for step in [4usize, 2, 1] {
            for j in 0..step {
                acc[j] = L::add(acc[j], acc[j + step]);
            }
        }
        let scaled = L::mul(L::splat(scale), acc[0]);
        if MASKED {
            let sum = L::add(L::load_masked(y.as_ptr(), n), scaled);
            L::store_masked(y.as_mut_ptr(), n, sum);
        } else {
            L::store(y.as_mut_ptr(), L::add(L::load(y.as_ptr()), scaled));
        }
    }
}

/// The width-1 query of one row tile at level `L` ([`lut_gather_rows`]):
/// full row *pairs* run their two independent chains in one loop
/// ([`gather_chain`] on two rows), so each hides the other's latency — the
/// gather unit, not the adds, bounds the b = 1 query; an odd last row runs
/// the chain alone. Per row the sum is the one-row chain's, bit for bit.
///
/// # Safety
/// `L`'s ISA is available and `L::W == 8`; output geometry, the bank
/// (`nc · table ≤ bank.len() ≤ i32::MAX`) and the key range as asserted by
/// the dispatcher, and `keys`/`key_stride`/`nc`/`scales.len()` are the
/// slab, stride, width and row count of a `KeyTile` whose `2^µ == table`.
#[inline(always)]
unsafe fn gather_rows_body<L: Lanes, K: KeyElem>(
    (y, y_stride, scales, bank, table): (&mut [f32], usize, &[f32], &[f32], usize),
    keys: &[K],
    key_stride: usize,
    nc: usize,
) {
    let nr = scales.len();
    let base = bank.as_ptr();
    // Row `i` of the tile, bounds-checked once per row.
    let row = |i: usize| &keys[i * key_stride..][..nc];
    // SAFETY: every row handed on is a row of the `KeyTile`, and the bank
    // and key range are as `gather_chain` needs (this function's contract);
    // `y`/`scales` indices follow the dispatcher's output-geometry asserts.
    unsafe {
        let mut emit = |i: usize, p: Partials| {
            let yi = y.get_unchecked_mut(i * y_stride);
            *yi += *scales.get_unchecked(i) * tree_reduce8(p.0);
        };
        let mut i = 0;
        while i + 2 <= nr {
            let [pa, pb] = gather_chain::<L, K, 2>(base, table, [row(i), row(i + 1)]);
            emit(i, pa);
            emit(i + 1, pb);
            i += 2;
        }
        if i < nr {
            let [p] = gather_chain::<L, K, 1>(base, table, [row(i)]);
            emit(i, p);
        }
    }
}

/// One key row's 8 canonical-tree partials as the width-1 chain hands
/// them on: 32-byte aligned, so spilling an accumulator register into them
/// is one store that never splits a cache line, wherever the stack lies.
#[derive(Clone, Copy)]
#[repr(C, align(32))]
struct Partials([f32; ACC_TREE_WIDTH]);

/// The width-1 chain of `R` key rows at once, each row's 8 canonical-tree
/// partials: one `L::lookup` per row per 8 chunks pulls
/// `base[c·table + keys[c]]` into lanes, so lane `j` accumulates residue
/// class `j` — the register layout *is* the canonical tree. The lane
/// offsets `c·table` live in one offset vector that advances by
/// `8·table` per group. The ragged chunk tail spills the partials and
/// finishes scalar (a masked lookup would add `+0.0` to idle lanes, which
/// is not bit-transparent when a partial is `-0.0`).
///
/// # Safety
/// `L`'s ISA is available and `L::W == 8`; the `rows` are `nc`-key rows of
/// a `KeyTile` whose `2^µ == table`, and `base` points at a bank spanning
/// every `(chunk, key)` entry of them, `c·table + key`, with at most
/// `i32::MAX` floats.
#[inline(always)]
unsafe fn gather_chain<L: Lanes, K: KeyElem, const R: usize>(
    base: *const f32,
    table: usize,
    rows: [&[K]; R],
) -> [Partials; R] {
    let nc = rows[0].len();
    debug_assert!(L::W == ACC_TREE_WIDTH && rows.iter().all(|row| row.len() == nc));
    // Lane `j` of `ct` is `(ci + j)·table`; past `i32::MAX` only once no
    // group is left to use it.
    let lanes: [u32; ACC_TREE_WIDTH] = std::array::from_fn(|j| (j * table) as u32);
    let step_by = [(ACC_TREE_WIDTH * table) as u32; ACC_TREE_WIDTH];
    let mut ci = 0;
    // SAFETY: every looked-up offset is `c·table + key` with
    // `c < nc` and `key < 2^µ == table` — the `KeyTile` range invariant —
    // so it is inside the bank and representable in 32-bit lanes; the
    // 8-key loads read `row[ci..ci + 8]` under the `ci + 8 <= nc` bound.
    unsafe {
        let (mut ct, step) = (L::load_idx(lanes.as_ptr()), L::load_idx(step_by.as_ptr()));
        let mut acc = [L::zero(); R];
        let entry = |row: &[K], c: usize| base.add(c * table + row.get_unchecked(c).idx());
        while ci + 8 <= nc {
            for (a, row) in acc.iter_mut().zip(rows) {
                let off = L::add_idx(ct, L::load_keys(row.as_ptr().add(ci)));
                *a = L::add(*a, L::lookup(base, off));
            }
            ct = L::add_idx(ct, step);
            ci += 8;
        }
        let mut p = [Partials([0.0; ACC_TREE_WIDTH]); R];
        for ((p, a), row) in p.iter_mut().zip(acc).zip(rows) {
            L::store(p.0.as_mut_ptr(), a);
            for c in ci..nc {
                p.0[c % ACC_TREE_WIDTH] += *entry(row, c);
            }
        }
        p
    }
}

/// The DP step at level `L` ([`dp_step_add_rows`]): per row, full `W`-lane
/// groups, then one masked pass over the `nb mod W` lanes left, the step
/// row's tail loaded once outside the row loop. At `nb == 1` the block is
/// one flat row, `W` floats per vector and the `len mod W` left as plain
/// `f32` adds.
///
/// # Safety
/// `L`'s ISA is available; `dst.len() == src.len()`, a whole number of
/// `step.len() ≥ 1`-float rows.
#[inline(always)]
unsafe fn dp_step_add_rows_body<L: Lanes>(dst: &mut [f32], src: &[f32], step: &[f32]) {
    let (len, nb) = (dst.len(), step.len());
    // SAFETY: every access stays inside the equal-length `dst`/`src` blocks
    // and the `nb`-float step row (the dispatcher's asserts): full groups
    // end at `full ≤ nb` (flat: `≤ len`), and a masked pass touches lanes
    // `0 .. nb − full` from lane `full` of a row only (the `Lanes`
    // contract) — its masked-out lanes are the next row's first floats, or
    // past the block after the last row.
    unsafe {
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        if nb == 1 {
            let (st, full) = (L::splat(step[0]), len - len % L::W);
            for i in (0..full).step_by(L::W) {
                L::store(d.add(i), L::add(L::load(s.add(i)), st));
            }
            for (dv, &sv) in dst[full..].iter_mut().zip(&src[full..]) {
                *dv = sv + step[0];
            }
            return;
        }
        let (full, rem) = (nb - nb % L::W, nb % L::W);
        let st_tail = L::load_masked(step.as_ptr().add(full), rem);
        for base in (0..len).step_by(nb) {
            for a0 in (0..full).step_by(L::W) {
                let sum = L::add(L::load(s.add(base + a0)), L::load(step.as_ptr().add(a0)));
                L::store(d.add(base + a0), sum);
            }
            if rem > 0 {
                let sum = L::add(L::load_masked(s.add(base + full), rem), st_tail);
                L::store_masked(d.add(base + full), rem, sum);
            }
        }
    }
}

/// The mirror at level `L` ([`negate_rows_reversed`]): per row, full
/// `W`-lane groups, then one masked pass over the `nb mod W` lanes left.
/// At `nb == 1` whole vectors are reversed in registers (negation is a
/// sign-bit flip and the reverse moves bits untouched) and the
/// `len mod W` left are plain `f32` negations.
///
/// # Safety
/// `L`'s ISA is available; `dst.len() == src.len()`, a whole number of
/// `nb ≥ 1`-float rows.
#[inline(always)]
unsafe fn negate_rows_reversed_body<L: Lanes>(dst: &mut [f32], src: &[f32], nb: usize) {
    let len = dst.len();
    // SAFETY: row index arithmetic stays inside the equal-length blocks
    // (the dispatcher's asserts); at `nb == 1` the vector at `len − W − i`
    // is read only while `i + W ≤ len`; a masked pass touches lanes
    // `0 .. nb − full` from lane `full` of a row only (the `Lanes`
    // contract) — its masked-out lanes belong to the neighbouring row, or
    // lie outside the blocks.
    unsafe {
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        if nb == 1 {
            let full = len - len % L::W;
            for i in (0..full).step_by(L::W) {
                L::store(d.add(i), L::neg(L::reverse(L::load(s.add(len - L::W - i)))));
            }
            for (dv, &sv) in dst[full..].iter_mut().zip(src[..len - full].iter().rev()) {
                *dv = -sv;
            }
            return;
        }
        let (full, rem) = (nb - nb % L::W, nb % L::W);
        // Destination row `r` pairs with source row `rows − 1 − r`.
        for (dbase, sbase) in (0..len).step_by(nb).zip((0..len).step_by(nb).rev()) {
            for a0 in (0..full).step_by(L::W) {
                L::store(d.add(dbase + a0), L::neg(L::load(s.add(sbase + a0))));
            }
            if rem > 0 {
                let v = L::neg(L::load_masked(s.add(sbase + full), rem));
                L::store_masked(d.add(dbase + full), rem, v);
            }
        }
    }
}

/// The width-1 tile build at level `L` ([`dp_build_tile`]): per chunk,
/// `−Σ x` into entry 0, the flat DP step per level and the flat mirror —
/// the one statement of the single-table recurrence, whose vector work is
/// [`dp_step_add_rows_body`] and [`negate_rows_reversed_body`] inlined.
///
/// # Safety
/// `L`'s ISA is available (every table is a checked sub-slice of `out`).
#[inline(always)]
unsafe fn dp_build_tile_body<L: Lanes>(out: &mut [f32], x: &[f32], mu: usize) {
    for (c, sub) in x.chunks(mu).enumerate() {
        let l = sub.len();
        let q = &mut out[c << mu..][..1 << l];
        // q[0] = the all-minus pattern.
        q[0] = sub.iter().fold(0.0f32, |neg_sum, &v| neg_sum - v);
        // SAFETY: `L`'s ISA is the caller's contract; each half is a pair of
        // equal-length one-float-row blocks split from `q`.
        unsafe {
            // Lower half by single-flip DP: index 2^t + j flips element
            // L−1−t of j.
            for t in 0..l - 1 {
                let (lo, hi) = q.split_at_mut(1 << t);
                dp_step_add_rows_body::<L>(&mut hi[..1 << t], lo, &[2.0 * sub[l - 1 - t]]);
            }
            // Mirror: complementing every sign negates the sum, so the upper
            // half is the reversed, negated lower half.
            let (lo, hi) = q.split_at_mut(1 << (l - 1));
            negate_rows_reversed_body::<L>(hi, lo, 1);
        }
    }
}

/// The KeyMajor step gather at level `L` ([`gather_key_major_steps`]): per
/// lane group of batch columns and per chunk, one `L::lookup` per chunk
/// position `j` pulls `x_j` of every column of the group at lane offsets
/// `a·n` from the group's first column. Entry 0 subtracts the values from
/// `+0.0` in ascending `j`; step row `t = l − 1 − j` is `2·x_j`. The last
/// group, when fewer than `W` columns are left, looks them up with
/// `L::lookup_masked`, so its idle lanes hold `+0.0` (and `0 − 0`,
/// `2·0` keep it so); every store is a whole vector. Lane groups of the
/// stride past the last live one (a stride of 16 over 8- or 4-lane groups)
/// are zero-filled.
///
/// # Safety
/// `L`'s ISA is available and `L::W` divides the entry stride; the geometry
/// as asserted by the dispatcher (`n > 0`, every chunk starts before `n`,
/// `nb` columns of `n` floats in `x`, `x.len() ≤ i32::MAX`, `bank` and
/// `steps` long enough for the padded tile).
#[inline(always)]
unsafe fn gather_steps_body<L: Lanes>(
    bank: &mut [f32],
    steps: &mut [f32],
    x: &[f32],
    n: usize,
    mu: usize,
    chunks: std::ops::Range<usize>,
    nb: usize,
) {
    const { assert!(L::W <= 16, "lane offsets are staged in 16 slots") };
    let stride = crate::layout::entry_stride(nb);
    debug_assert!(stride.is_multiple_of(L::W));
    let (table, step_stride) = (1usize << mu, mu * stride);
    let (b, s) = (bank.as_mut_ptr(), steps.as_mut_ptr());
    let mut lanes = [0u32; 16];
    for a0 in (0..nb).step_by(L::W) {
        let live = L::W.min(nb - a0);
        // Idle lanes keep offset 0; the masked lookup reads nothing for them.
        for (a, lane) in lanes[..live].iter_mut().enumerate() {
            *lane = (a * n) as u32;
        }
        lanes[live..].fill(0);
        // SAFETY: lane `a < live` reads `x[(a0 + a)·n + c·µ + j]` with
        // `j < l ≤ n − c·µ`, inside column `a0 + a < nb` of `x`; an idle
        // lane reads nothing; offsets fit 32 bits by the dispatcher's
        // `x.len()` assert. Stores write the `W` floats at lane `a0` of
        // entry 0 of chunk `i` (`i·table·s + a0 + W ≤ (i·table + 1)·s`, as
        // `W` divides `s ≥ nb`) and of step row `t < l − 1 < µ` of chunk
        // `i` (`i·µ·s + t·s + a0 + W ≤ (i + 1)·µ·s`), in the lengths
        // asserted.
        unsafe {
            let off = L::load_idx(lanes.as_ptr());
            let two = L::splat(2.0);
            let look = |p: *const f32| {
                if live == L::W {
                    L::lookup(p, off)
                } else {
                    L::lookup_masked(p, off, live)
                }
            };
            for (i, c) in chunks.clone().enumerate() {
                let start = c * mu;
                let l = mu.min(n - start);
                let col = x.as_ptr().add(a0 * n + start);
                let srow = s.add(i * step_stride + a0);
                let mut neg = L::zero();
                for j in 0..l {
                    let v = look(col.add(j));
                    neg = L::sub(neg, v);
                    if j > 0 {
                        L::store(srow.add((l - 1 - j) * stride), L::mul(two, v));
                    }
                }
                L::store(b.add(i * table * stride + a0), neg);
            }
        }
    }
    let padded = nb.next_multiple_of(L::W);
    if padded < stride {
        for (i, c) in chunks.enumerate() {
            bank[i * table * stride..][padded..stride].fill(0.0);
            for t in 0..mu.min(n - c * mu) - 1 {
                steps[i * step_stride + t * stride..][padded..stride].fill(0.0);
            }
        }
    }
}

// ---------------------------------------------------------------- levels

/// The portable level: [`Lanes`] over `[f32; 8]` in plain loops and
/// per-lane lookups, so the scalar level runs the very bodies the SIMD
/// levels run — its width-1 chain is the canonical 8-slot tree.
mod scalar {
    use super::{KeyElem, Lanes};

    /// Eight `f32` lanes in an array.
    pub enum Scalar {}

    /// Lanes `0..N` from `p`, the rest `+0.0`: a copy of constant length
    /// into a register-held array, so it compiles to one or two plain loads
    /// (`Scalar::load_masked` picks `N` by one jump on `n`).
    ///
    /// # Safety
    /// `N` floats readable at `p`.
    #[inline(always)]
    unsafe fn load_first<const N: usize>(p: *const f32) -> [f32; 8] {
        let mut v = [0.0f32; 8];
        // SAFETY: the caller's `N` readable floats; `v` holds 8 ≥ N.
        unsafe { std::ptr::copy_nonoverlapping(p, v.as_mut_ptr(), N) };
        v
    }

    /// Lanes `0..N` of `v` to `p`, the floats after them untouched.
    ///
    /// # Safety
    /// `N` floats writable at `p`.
    #[inline(always)]
    unsafe fn store_first<const N: usize>(p: *mut f32, v: [f32; 8]) {
        // SAFETY: the caller's `N` writable floats; `v` holds 8 ≥ N.
        unsafe { std::ptr::copy_nonoverlapping(v.as_ptr(), p, N) };
    }

    // SAFETY: each method is the plain `f32` operation per lane (`-x` is
    // Rust's sign-bit negation), a lane move, or one load per lane from its
    // own offset; the masked forms (the lookup's included) read or write
    // lanes `0..n` only, one float each, and leave the other lanes `+0.0` /
    // untouched.
    unsafe impl Lanes for Scalar {
        type V = [f32; 8];
        type I = [u32; 8];
        const W: usize = 8;

        lanes_fns! {
            fn splat(x: f32) -> [f32; 8] = [x; 8];
            fn load(p: *const f32) -> [f32; 8] = p.cast::<[f32; 8]>().read_unaligned();
            fn store(p: *mut f32, v: [f32; 8]) = p.cast::<[f32; 8]>().write_unaligned(v);
            fn load_masked(p: *const f32, n: usize) -> [f32; 8] = match n {
                0 => [0.0; 8],
                1 => load_first::<1>(p),
                2 => load_first::<2>(p),
                3 => load_first::<3>(p),
                4 => load_first::<4>(p),
                5 => load_first::<5>(p),
                6 => load_first::<6>(p),
                7 => load_first::<7>(p),
                _ => Self::load(p),
            };
            fn store_masked(p: *mut f32, n: usize, v: [f32; 8]) = match n {
                0 => {}
                1 => store_first::<1>(p, v),
                2 => store_first::<2>(p, v),
                3 => store_first::<3>(p, v),
                4 => store_first::<4>(p, v),
                5 => store_first::<5>(p, v),
                6 => store_first::<6>(p, v),
                7 => store_first::<7>(p, v),
                _ => Self::store(p, v),
            };
            fn add(a: [f32; 8], b: [f32; 8]) -> [f32; 8] = std::array::from_fn(|i| a[i] + b[i]);
            fn sub(a: [f32; 8], b: [f32; 8]) -> [f32; 8] = std::array::from_fn(|i| a[i] - b[i]);
            fn mul(a: [f32; 8], b: [f32; 8]) -> [f32; 8] = std::array::from_fn(|i| a[i] * b[i]);
            fn neg(a: [f32; 8]) -> [f32; 8] = a.map(|x| -x);
            fn reverse(a: [f32; 8]) -> [f32; 8] = std::array::from_fn(|i| a[7 - i]);
            fn load_idx(p: *const u32) -> [u32; 8] = p.cast::<[u32; 8]>().read_unaligned();
            fn add_idx(a: [u32; 8], b: [u32; 8]) -> [u32; 8] =
                std::array::from_fn(|i| a[i].wrapping_add(b[i]));
            fn load_keys<K: KeyElem>(p: *const K) -> [u32; 8] =
                std::array::from_fn(|i| (*p.add(i)).idx() as u32);
            fn lookup(base: *const f32, off: [u32; 8]) -> [f32; 8] =
                off.map(|o| *base.add(o as usize));
            fn lookup_masked(base: *const f32, off: [u32; 8], n: usize) -> [f32; 8] =
                std::array::from_fn(|i| if i < n { *base.add(off[i] as usize) } else { 0.0 });
        }
    }

    stamp!(Scalar, Scalar);
}

// ------------------------------------------------------------------ AVX2

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{KeyElem, Lanes};
    use std::arch::x86_64::*;

    /// Eight lanes in a ymm register; masked memory operations are
    /// `vmaskmovps`, which neither reads, writes nor faults on a
    /// masked-out lane, and the lookup is `vgatherdps`.
    pub enum Avx2 {}

    /// The `vmaskmovps` mask selecting lanes `0..n` of an 8-lane group
    /// (none for `n = 0`).
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline(always)]
    unsafe fn lane_mask(n: usize) -> __m256i {
        debug_assert!(n <= 8);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    // SAFETY: one AVX instruction per method: `vaddps`/`vsubps`/`vmulps` are the
    // IEEE operations, `neg` XORs the sign bit, `reverse` is a `vpermps`
    // lane permute, the masked forms are `vmaskmovps` under `lane_mask(n)`,
    // which selects exactly lanes `0..n`, the keys are zero-extended
    // (`vpmovzx`), and `lookup` is an all-lanes `vgatherdps` of
    // `base + 4·off[i]` bytes — `lookup_masked` the same under
    // `lane_mask(n)` onto a zero source, which reads no masked-out lane.
    unsafe impl Lanes for Avx2 {
        type V = __m256;
        type I = __m256i;
        const W: usize = 8;

        lanes_fns! {
            fn splat(x: f32) -> __m256 = _mm256_set1_ps(x);
            fn load(p: *const f32) -> __m256 = _mm256_loadu_ps(p);
            fn load_masked(p: *const f32, n: usize) -> __m256 = _mm256_maskload_ps(p, lane_mask(n));
            fn store(p: *mut f32, v: __m256) = _mm256_storeu_ps(p, v);
            fn store_masked(p: *mut f32, n: usize, v: __m256) =
                _mm256_maskstore_ps(p, lane_mask(n), v);
            fn add(a: __m256, b: __m256) -> __m256 = _mm256_add_ps(a, b);
            fn sub(a: __m256, b: __m256) -> __m256 = _mm256_sub_ps(a, b);
            fn mul(a: __m256, b: __m256) -> __m256 = _mm256_mul_ps(a, b);
            fn neg(a: __m256) -> __m256 = _mm256_xor_ps(a, _mm256_set1_ps(-0.0));
            fn reverse(a: __m256) -> __m256 =
                _mm256_permutevar8x32_ps(a, _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0));
            fn load_idx(p: *const u32) -> __m256i = _mm256_loadu_si256(p.cast());
            fn add_idx(a: __m256i, b: __m256i) -> __m256i = _mm256_add_epi32(a, b);
            fn load_keys<K: KeyElem>(p: *const K) -> __m256i = if size_of::<K>() == 1 {
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(p.cast()))
            } else {
                _mm256_cvtepu16_epi32(_mm_loadu_si128(p.cast()))
            };
            fn lookup(base: *const f32, off: __m256i) -> __m256 =
                _mm256_i32gather_ps::<4>(base, off);
            fn lookup_masked(base: *const f32, off: __m256i, n: usize) -> __m256 =
                _mm256_mask_i32gather_ps::<4>(
                    _mm256_setzero_ps(),
                    base,
                    off,
                    _mm256_castsi256_ps(lane_mask(n)),
                );
        }
    }

    stamp!(Avx2, Avx2, "avx2");
}

// --------------------------------------------------------------- AVX-512

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{KeyElem, Lanes};
    use std::arch::x86_64::*;

    /// Sixteen lanes in a zmm register; masked memory operations run under
    /// a `__mmask16`, and an AVX-512 masked load/store neither accesses nor
    /// faults on a masked-out lane.
    pub enum Avx512 {}

    /// The mask selecting lanes `0..n` of a 16-lane group, `n ≤ 16`.
    #[inline(always)]
    fn lane_mask(n: usize) -> __mmask16 {
        debug_assert!(n <= 16);
        ((1u32 << n) - 1) as __mmask16
    }

    // SAFETY: one AVX-512 F/DQ instruction per method: `vaddps`/`vsubps`/`vmulps`
    // are the IEEE operations, `neg` XORs the sign bit, `reverse` is a
    // `vpermps` lane permute, the masked forms run under `lane_mask(n)`,
    // which selects exactly lanes `0..n`, the keys are zero-extended
    // (`vpmovzx`), and `lookup` is an all-lanes `vgatherdps` of
    // `base + 4·off[i]` bytes — `lookup_masked` the same under
    // `lane_mask(n)` onto a zero source, which reads no masked-out lane.
    unsafe impl Lanes for Avx512 {
        type V = __m512;
        type I = __m512i;
        const W: usize = 16;

        lanes_fns! {
            fn splat(x: f32) -> __m512 = _mm512_set1_ps(x);
            fn load(p: *const f32) -> __m512 = _mm512_loadu_ps(p);
            fn load_masked(p: *const f32, n: usize) -> __m512 =
                _mm512_maskz_loadu_ps(lane_mask(n), p);
            fn store(p: *mut f32, v: __m512) = _mm512_storeu_ps(p, v);
            fn store_masked(p: *mut f32, n: usize, v: __m512) =
                _mm512_mask_storeu_ps(p, lane_mask(n), v);
            fn add(a: __m512, b: __m512) -> __m512 = _mm512_add_ps(a, b);
            fn sub(a: __m512, b: __m512) -> __m512 = _mm512_sub_ps(a, b);
            fn mul(a: __m512, b: __m512) -> __m512 = _mm512_mul_ps(a, b);
            fn neg(a: __m512) -> __m512 = _mm512_xor_ps(a, _mm512_set1_ps(-0.0));
            fn reverse(a: __m512) -> __m512 = _mm512_permutexvar_ps(
                _mm512_setr_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
                a,
            );
            fn load_idx(p: *const u32) -> __m512i = _mm512_loadu_si512(p.cast());
            fn add_idx(a: __m512i, b: __m512i) -> __m512i = _mm512_add_epi32(a, b);
            fn load_keys<K: KeyElem>(p: *const K) -> __m512i = if size_of::<K>() == 1 {
                _mm512_cvtepu8_epi32(_mm_loadu_si128(p.cast()))
            } else {
                _mm512_cvtepu16_epi32(_mm256_loadu_si256(p.cast()))
            };
            fn lookup(base: *const f32, off: __m512i) -> __m512 =
                _mm512_i32gather_ps::<4>(off, base.cast());
            fn lookup_masked(base: *const f32, off: __m512i, n: usize) -> __m512 =
                _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), lane_mask(n), off, base.cast());
        }
    }

    // The width-1 chain runs 8 lanes (the canonical tree's width), so
    // 512-bit gathers buy nothing there.
    stamp!(Avx512, super::avx2::Avx2, "avx512f", "avx512dq");

    /// The row-blocked wide query: every row of the tile, 32 batch lanes
    /// per pass while more than 16 are left (the last such pass masking its
    /// `y` access to the live lanes), then a per-row body on the lanes left
    /// over — AVX2's ([`super::avx2::fused_row`]: one ymm per lookup) when
    /// at most 8 are left, else this level's ([`fused_row`]: one zmm per
    /// lookup).
    ///
    /// # Safety
    /// AVX-512F/DQ must be available; output geometry (`y_stride ≥ nb`,
    /// `y.len() ≥ (rows − 1)·y_stride + nb`) and `bank.len() ≥
    /// nc·table·s` (`s = entry_stride(nb) ≥ 16`) as asserted by the
    /// dispatcher, and `keys`/`key_stride`/`nc`/`scales.len()` are the
    /// slab, stride, width and row count of a `KeyTile` whose
    /// `2^µ == table`.
    #[target_feature(enable = "avx512f", enable = "avx512dq")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn lut_query_fused_rows<K: KeyElem>(
        y: &mut [f32],
        y_stride: usize,
        scales: &[f32],
        bank: &[f32],
        table: usize,
        nb: usize,
        keys: &[K],
        key_stride: usize,
        nc: usize,
    ) {
        let stride = crate::layout::entry_stride(nb);
        for (i, &scale) in scales.iter().enumerate() {
            let row = &keys[i * key_stride..][..nc];
            let yrow = &mut y[i * y_stride..][..nb];
            let mut a0 = 0;
            while a0 + 16 < nb {
                let live = (nb - a0).min(32);
                // SAFETY: `live ≤ nb − a0` keeps the stored lanes inside
                // `yrow`; more than 16 live lanes past `a0` (a multiple of
                // 32) put the stride, a multiple of 16 at or past `nb`, at
                // `a0 + 32` or beyond, so every entry's 32 lanes from `a0`
                // lie inside it; `row` is a row of a `KeyTile` (every key
                // `< 2^µ == table`), so entry `(ci, key)` lies within the
                // `nc·table·s` floats the dispatcher asserted the bank holds.
                unsafe {
                    let (yp, bp) = (yrow.as_mut_ptr().add(a0), bank.as_ptr().add(a0));
                    query32(yp, live, scale, bp, table, stride, row);
                }
                a0 += live;
            }
            // The per-row body gets the live lanes `a0 .. nb` (at most 16)
            // and the bank pre-offset by the same `a0`: up to 8 of them at
            // AVX2's width, more at this level's; either lane group lies
            // inside the stride.
            let (tail, tail_bank) = (&mut yrow[a0..], &bank[a0..]);
            if tail.len() > 8 {
                // SAFETY: same feature set; geometry as above.
                unsafe { fused_row(tail, scale, tail_bank, table, stride, row) };
            } else if !tail.is_empty() {
                // SAFETY: AVX-512F implies AVX2; geometry as above.
                unsafe { super::avx2::fused_row(tail, scale, tail_bank, table, stride, row) };
            }
        }
    }

    /// One key row × 32 batch lanes, `live` (17..=32) of them stored:
    /// `y[0..live] += scale · Σ_ci entry(ci, keys[ci])[0..live]` with `base`
    /// pointing at lane 0 of the group in the bank. Two zmm per canonical
    /// accumulator (16 of the 32 vector registers), so both lines of a
    /// 128-byte entry are consumed together and each key is decoded once for
    /// all 32 lanes; per lane the order is the canonical tree, as in the
    /// 16-lane loop. Entry loads are whole; the upper half's `y` access is
    /// masked to the live lanes.
    ///
    /// # Safety
    /// AVX-512F must be available; `y .. y + live` writable, `live` in
    /// `17..=32`; for every `ci < keys.len()` and key `k` in `keys`,
    /// `base + (ci·table + k)·stride .. + 32` readable.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn query32<K: KeyElem>(
        y: *mut f32,
        live: usize,
        scale: f32,
        base: *const f32,
        table: usize,
        stride: usize,
        keys: &[K],
    ) {
        debug_assert!((17..=32).contains(&live));
        let klen = keys.len();
        // SAFETY: every pointer formed is `base + (ci·table + key)·stride`
        // (+16) with `ci < klen` and `key` read from `keys` at `ci` —
        // readable for 32 floats per the caller's contract (the `KeyTile`
        // range invariant plus the dispatcher's bank-length assert). `y` is
        // accessed for lanes `0..16` whole and `16..live` under a mask that
        // selects exactly them.
        unsafe {
            let ent = |ci: usize| base.add((ci * table + keys.get_unchecked(ci).idx()) * stride);
            let mut lo = [_mm512_setzero_ps(); 8];
            let mut hi = [_mm512_setzero_ps(); 8];
            let mut ci = 0;
            while ci + 8 <= klen {
                for j in 0..8 {
                    let p = ent(ci + j);
                    lo[j] = _mm512_add_ps(lo[j], _mm512_loadu_ps(p));
                    hi[j] = _mm512_add_ps(hi[j], _mm512_loadu_ps(p.add(16)));
                }
                ci += 8;
            }
            // Ragged chunk tail: chunk `ci + j` lands in accumulator
            // `(ci + j) % 8 == j` (`ci` is a multiple of 8 here).
            for j in 0..8 {
                if ci + j < klen {
                    let p = ent(ci + j);
                    lo[j] = _mm512_add_ps(lo[j], _mm512_loadu_ps(p));
                    hi[j] = _mm512_add_ps(hi[j], _mm512_loadu_ps(p.add(16)));
                }
            }
            for step in [4usize, 2, 1] {
                for j in 0..step {
                    lo[j] = _mm512_add_ps(lo[j], lo[j + step]);
                    hi[j] = _mm512_add_ps(hi[j], hi[j + step]);
                }
            }
            let sv = _mm512_set1_ps(scale);
            let mask = lane_mask(live - 16);
            let y_lo = _mm512_add_ps(_mm512_loadu_ps(y), _mm512_mul_ps(sv, lo[0]));
            let y_hi =
                _mm512_add_ps(_mm512_maskz_loadu_ps(mask, y.add(16)), _mm512_mul_ps(sv, hi[0]));
            _mm512_storeu_ps(y, y_lo);
            _mm512_mask_storeu_ps(y.add(16), mask, y_hi);
        }
    }
}

// ------------------------------------------------------------------ NEON

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{KeyElem, Lanes};
    use std::arch::aarch64::*;

    /// Four lanes in a q register. NEON has no lane-masked memory
    /// operation and no gather, so the masked forms load or store the `n`
    /// live floats one lane each and the lookup is per lane.
    pub enum Neon {}

    // SAFETY: one NEON instruction per method (`fadd`, `fsub`, `fmul`,
    // `fneg` — a sign-bit flip — `ld1`/`st1`, and `rev64` + `ext` for
    // `reverse`), single-lane `ld1`/`st1` of lanes `0..n` only for the masked
    // forms (the others stay `+0.0` / untouched), or one load per lane from
    // its own offset for the lookups.
    unsafe impl Lanes for Neon {
        type V = float32x4_t;
        type I = [u32; 4];
        const W: usize = 4;

        lanes_fns! {
            fn splat(x: f32) -> float32x4_t = vdupq_n_f32(x);
            fn load(p: *const f32) -> float32x4_t = vld1q_f32(p);
            fn store(p: *mut f32, v: float32x4_t) = vst1q_f32(p, v);
            fn load_masked(p: *const f32, n: usize) -> float32x4_t = {
                let mut v = vdupq_n_f32(0.0);
                if n > 0 {
                    v = vld1q_lane_f32::<0>(p, v);
                }
                if n > 1 {
                    v = vld1q_lane_f32::<1>(p.add(1), v);
                }
                if n > 2 {
                    v = vld1q_lane_f32::<2>(p.add(2), v);
                }
                if n > 3 {
                    v = vld1q_lane_f32::<3>(p.add(3), v);
                }
                v
            };
            fn store_masked(p: *mut f32, n: usize, v: float32x4_t) = {
                if n > 0 {
                    vst1q_lane_f32::<0>(p, v);
                }
                if n > 1 {
                    vst1q_lane_f32::<1>(p.add(1), v);
                }
                if n > 2 {
                    vst1q_lane_f32::<2>(p.add(2), v);
                }
                if n > 3 {
                    vst1q_lane_f32::<3>(p.add(3), v);
                }
            };
            fn add(a: float32x4_t, b: float32x4_t) -> float32x4_t = vaddq_f32(a, b);
            fn sub(a: float32x4_t, b: float32x4_t) -> float32x4_t = vsubq_f32(a, b);
            fn mul(a: float32x4_t, b: float32x4_t) -> float32x4_t = vmulq_f32(a, b);
            fn neg(a: float32x4_t) -> float32x4_t = vnegq_f32(a);
            // vrev64 swaps within each half, vext swaps the halves.
            fn reverse(a: float32x4_t) -> float32x4_t =
                vextq_f32::<2>(vrev64q_f32(a), vrev64q_f32(a));
            fn load_idx(p: *const u32) -> [u32; 4] = p.cast::<[u32; 4]>().read_unaligned();
            fn add_idx(a: [u32; 4], b: [u32; 4]) -> [u32; 4] =
                std::array::from_fn(|i| a[i].wrapping_add(b[i]));
            fn load_keys<K: KeyElem>(p: *const K) -> [u32; 4] =
                std::array::from_fn(|i| (*p.add(i)).idx() as u32);
            fn lookup(base: *const f32, off: [u32; 4]) -> float32x4_t =
                vld1q_f32(off.map(|o| *base.add(o as usize)).as_ptr());
            fn lookup_masked(base: *const f32, off: [u32; 4], n: usize) -> float32x4_t = vld1q_f32(
                std::array::from_fn::<f32, 4, _>(|i| if i < n { *base.add(off[i] as usize) } else { 0.0 })
                    .as_ptr(),
            );
        }
    }

    // The width-1 chain is the scalar 8-lane one: NEON has no gather, and
    // the strided loads defeat its load pairs.
    stamp!(Neon, super::scalar::Scalar, "neon");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LineAlignedBuf;
    use biq_matrix::{MatrixRng, SignMatrix};
    use biq_quant::packing::KeyMatrix;

    #[test]
    fn host_best_is_supported_and_resolvable() {
        let best = host_best();
        assert!(best.is_supported());
        let k = KernelRequest::Auto.resolve().expect("auto always resolves");
        // No env override in-process here ⇒ Auto lands on host best.
        if std::env::var(KERNEL_ENV).is_err() {
            assert_eq!(k.level(), best);
        }
    }

    #[test]
    fn supported_levels_starts_at_scalar_and_ends_at_best() {
        let levels = supported_levels();
        assert_eq!(levels[0], KernelLevel::Scalar);
        assert_eq!(*levels.last().unwrap(), host_best());
    }

    #[test]
    fn exact_unsupported_level_errors_clearly() {
        // At least one of the four levels is foreign to any single host.
        let foreign = KernelLevel::ALL.into_iter().find(|l| !l.is_supported());
        if let Some(l) = foreign {
            let err = KernelRequest::Exact(l).resolve().unwrap_err();
            assert!(err.to_string().contains(l.name()), "{err}");
            assert!(err.to_string().contains("host"), "{err}");
        }
    }

    #[test]
    fn at_most_clamps_by_rank() {
        for l in KernelLevel::ALL {
            let k = KernelRequest::AtMost(l).resolve().expect("AtMost never errors without env");
            assert!(k.level().is_supported());
            assert!(k.level().rank() <= l.rank().max(host_best().rank()));
            if l.is_supported() && std::env::var(KERNEL_ENV).is_err() {
                assert_eq!(k.level(), l, "supported levels are kept exactly");
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for l in KernelLevel::ALL {
            assert_eq!(KernelLevel::parse(l.name()), Some(l));
        }
        assert_eq!(KernelLevel::parse("AVX512"), Some(KernelLevel::Avx512));
        assert_eq!(KernelLevel::parse("sse9"), None);
    }

    /// The canonical accumulation order written out longhand — the oracle
    /// every chunk-accumulating kernel is checked against: value `ci`
    /// (ascending) added to partial `ci % 8`, then the fixed `+4, +2, +1`
    /// fold. No kernel calls it; the scalar level is itself an instance of
    /// the generic bodies, so this is the independent statement.
    fn canonical_sum(values: impl IntoIterator<Item = f32>) -> f32 {
        let mut p = [0.0f32; ACC_TREE_WIDTH];
        for (ci, v) in values.into_iter().enumerate() {
            p[ci % ACC_TREE_WIDTH] += v;
        }
        for step in [4usize, 2, 1] {
            for j in 0..step {
                p[j] += p[j + step];
            }
        }
        p[0]
    }

    /// Oracle for [`dp_step_add_rows`]: the plain row loop.
    fn dp_step_oracle(dst: &mut [f32], src: &[f32], step: &[f32]) {
        let nb = step.len();
        for (drow, srow) in dst.chunks_exact_mut(nb).zip(src.chunks_exact(nb)) {
            for ((d, &sv), &st) in drow.iter_mut().zip(srow).zip(step) {
                *d = sv + st;
            }
        }
    }

    /// Oracle for [`negate_rows_reversed`]: the plain row loop.
    fn negate_oracle(dst: &mut [f32], src: &[f32], nb: usize) {
        let rows = dst.len() / nb;
        for (r, drow) in dst.chunks_exact_mut(nb).enumerate() {
            let srow = &src[(rows - 1 - r) * nb..(rows - r) * nb];
            for (d, &sv) in drow.iter_mut().zip(srow) {
                *d = -sv;
            }
        }
    }

    /// Oracle for one row of [`lut_query_fused_rows`]: per batch lane, the
    /// canonical sum of the looked-up values, then multiply and add rounded
    /// separately. `stride` is the bank's entry stride, `y.len()` the lanes
    /// computed.
    fn fused_oracle<K: KeyElem>(
        y: &mut [f32],
        scale: f32,
        bank: &[f32],
        table: usize,
        stride: usize,
        keys: &[K],
    ) {
        for (a, yv) in y.iter_mut().enumerate() {
            let vals =
                keys.iter().enumerate().map(|(ci, k)| bank[(ci * table + k.idx()) * stride + a]);
            *yv += scale * canonical_sum(vals);
        }
    }

    #[test]
    fn block_primitives_bit_exact_across_levels() {
        let mut g = MatrixRng::seed_from(39);
        for k in supported_levels() {
            let k = KernelRequest::Exact(k).resolve().unwrap();
            // Row blocks: every nb straddling the 4/8/16 lane widths, and
            // nb = 1 blocks (the flat single-table arms) straddling them too.
            let flat = [0usize, 1, 3, 4, 7, 8, 9, 16, 31, 100].map(|rows| (rows, 1));
            let rows_nb = [(4usize, 3usize), (8, 8), (7, 9), (16, 16), (3, 33), (5, 20)];
            for &(rows, nb) in flat.iter().chain(&rows_nb) {
                let src = g.gaussian_vec(rows * nb);
                let step = g.gaussian_vec(nb);
                let mut want = vec![0.0f32; rows * nb];
                dp_step_oracle(&mut want, &src, &step);
                let mut got = vec![0.0f32; rows * nb];
                dp_step_add_rows(&mut got, &src, &step, k);
                assert_eq!(want, got, "{k} add rows={rows} nb={nb}");

                negate_oracle(&mut want, &src, nb);
                negate_rows_reversed(&mut got, &src, nb, k);
                assert_eq!(want, got, "{k} negate rows={rows} nb={nb}");
            }
        }
    }

    /// `L`'s operations against plain `f32` code, bit for bit: masked
    /// loads and stores at every `n` in `0..=W` (lanes `n..` of the
    /// destination keep their sentinel, and a masked load reads idle lanes
    /// as `+0.0`), then `zero`, `splat`, `add`, `mul`, `neg` and `reverse`
    /// on ±0.0, NaN payloads, ±∞, subnormals and ordinary values, then the
    /// lookup of both key widths through the key-widening load plus lane
    /// offsets against plain indexing, and the masked lookup at every `n`.
    /// The caller passes only a level the host supports.
    fn lanes_conformance<L: Lanes>(level: KernelLevel) {
        const SENTINEL: u32 = 0x7fc5_a5a5;
        let w = L::W;
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let src: Vec<f32> = (0..2 * w).map(|i| i as f32 + 0.5).collect();
        for n in 0..=w {
            let mut dst = vec![f32::from_bits(SENTINEL); 2 * w];
            let mut whole = vec![f32::from_bits(SENTINEL); w];
            // SAFETY: `level` is supported (the caller's contract); `src`
            // and `dst` hold `2W ≥ n` floats, `whole` holds `W`.
            unsafe {
                let v = L::load_masked(src.as_ptr(), n);
                L::store_masked(dst.as_mut_ptr(), n, v);
                L::store(whole.as_mut_ptr(), v);
            }
            let mut want = bits(&src[..n]);
            want.resize(2 * w, SENTINEL);
            assert_eq!(bits(&dst), want, "{level} W={w} store_masked n={n}");
            let mut want = bits(&src[..n]);
            want.resize(w, 0);
            assert_eq!(bits(&whole), want, "{level} W={w} load_masked n={n}");
        }

        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffc0_0042),
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 8.0,
            f32::MAX,
            1.5,
            -2.75,
        ];
        // 96 = a whole number of vectors at every width; `b` is never NaN,
        // so a NaN result has one possible payload, and a lane whose
        // operands would *make* a NaN (∞ · 0, ∞ − ∞) takes `b = 1` instead.
        let len = 96;
        let a: Vec<f32> = (0..len).map(|i| specials[i % specials.len()]).collect();
        let b: Vec<f32> = (0..len)
            .map(|i| {
                let (x, y) = (a[i], specials[(i * 7 + 3) % specials.len()]);
                let makes_nan = (x * y).is_nan() || (x + y).is_nan();
                if y.is_nan() || (!x.is_nan() && makes_nan) {
                    1.0
                } else {
                    y
                }
            })
            .collect();
        let (a, b) = (std::hint::black_box(a), std::hint::black_box(b));
        let mut out = [vec![0.0f32; len], vec![0.0; len], vec![0.0; len], vec![0.0; len]];
        let mut consts = vec![0.0f32; 2 * w];
        // SAFETY: `level` is supported (the caller's contract); every
        // vector is `off .. off + W ≤ len` floats of `len`-float buffers,
        // and `consts` holds two vectors.
        unsafe {
            for off in (0..len).step_by(w) {
                let (va, vb) = (L::load(a.as_ptr().add(off)), L::load(b.as_ptr().add(off)));
                L::store(out[0].as_mut_ptr().add(off), L::add(va, vb));
                L::store(out[1].as_mut_ptr().add(off), L::mul(va, vb));
                L::store(out[2].as_mut_ptr().add(off), L::neg(va));
                L::store(out[3].as_mut_ptr().add(off), L::reverse(va));
            }
            L::store(consts.as_mut_ptr(), L::zero());
            L::store(consts.as_mut_ptr().add(w), L::splat(-0.0));
        }
        for i in 0..len {
            let rev = a[i - i % w + (w - 1 - i % w)];
            let want = [a[i] + b[i], a[i] * b[i], -a[i], rev];
            for (op, (got, want)) in
                ["add", "mul", "neg", "reverse"].iter().zip(out.iter().zip(want))
            {
                assert_eq!(got[i].to_bits(), want.to_bits(), "{level} W={w} {op} lane {i}");
            }
        }
        assert!(consts[..w].iter().all(|v| v.to_bits() == 0), "{level} W={w} zero");
        assert!(consts[w..].iter().all(|v| v.to_bits() == 0x8000_0000), "{level} W={w} splat");

        // Byte keys past 127 and `u16` keys past 2^15 catch a sign-extending
        // widening; distinct lane offsets catch a lane read from the wrong
        // offset, and the table's distinct values any wrong index.
        let offs: Vec<u32> = (0..w as u32).map(|j| 37 * j + j % 3).collect();
        let k8: Vec<u8> = (0..w).map(|j| ((j * 97 + 200) % 256) as u8).collect();
        let k16: Vec<u16> = (0..w).map(|j| (65535 - 1031 * j) as u16).collect();
        let table: Vec<f32> = (0..65536 + 40 * w).map(|i| i as f32 * 0.5 - 7.0).collect();
        let mut got = vec![0.0f32; 2 * w];
        // SAFETY: `level` is supported; `offs`, `k8` and `k16` hold `W`
        // elements, `got` two vectors, and every offset plus key is below
        // `37·W + 65536 ≤ table.len()`.
        unsafe {
            let off = L::load_idx(offs.as_ptr());
            let t = table.as_ptr();
            L::store(got.as_mut_ptr(), L::lookup(t, L::add_idx(off, L::load_keys(k8.as_ptr()))));
            let v = L::lookup(t, L::add_idx(off, L::load_keys(k16.as_ptr())));
            L::store(got.as_mut_ptr().add(w), v);
        }
        let want8 = (0..w).map(|j| table[offs[j] as usize + usize::from(k8[j])]);
        let want16 = (0..w).map(|j| table[offs[j] as usize + usize::from(k16[j])]);
        let want: Vec<f32> = want8.chain(want16).collect();
        assert_eq!(bits(&got), bits(&want), "{level} W={w} lookup");
        // The masked lookup: lanes `0..n` as above, the rest `+0.0`.
        for n in 0..=w {
            let mut got = vec![f32::from_bits(SENTINEL); w];
            // SAFETY: as above; lanes `0..n ≤ W` read in-range offsets.
            unsafe {
                let off = L::add_idx(L::load_idx(offs.as_ptr()), L::load_keys(k8.as_ptr()));
                L::store(got.as_mut_ptr(), L::lookup_masked(table.as_ptr(), off, n));
            }
            let mut want = bits(&want[..n]);
            want.resize(w, 0);
            assert_eq!(bits(&got), want, "{level} W={w} lookup_masked n={n}");
        }
    }

    #[test]
    fn lanes_conformance_at_every_level() {
        for level in supported_levels() {
            match level {
                KernelLevel::Scalar => lanes_conformance::<scalar::Scalar>(level),
                #[cfg(target_arch = "x86_64")]
                KernelLevel::Avx2 => lanes_conformance::<avx2::Avx2>(level),
                #[cfg(target_arch = "x86_64")]
                KernelLevel::Avx512 => lanes_conformance::<avx512::Avx512>(level),
                #[cfg(target_arch = "aarch64")]
                KernelLevel::Neon => lanes_conformance::<neon::Neon>(level),
                #[allow(unreachable_patterns)]
                other => unreachable!("{other} is not native here"),
            }
        }
    }

    /// One row of `chunks` random µ-bit keys — the only way to obtain a
    /// [`KeyTile`] is through a validated `KeyMatrix`.
    fn key_row(g: &mut MatrixRng, chunks: usize, mu: usize) -> KeyMatrix {
        KeyMatrix::pack(&g.signs(1, chunks * mu), mu)
    }

    /// A KeyMajor bank of `entries` entries of `nb` live lanes in the
    /// line-aligned buffer real banks live in (the query debug-asserts that
    /// alignment for line-sized entries): lane `a` of entry `e` is
    /// `live(e, a)`, and every padded lane of the entry stride a quiet NaN,
    /// which a padded lane leaking into a live output would show.
    fn keymajor_bank(
        entries: usize,
        nb: usize,
        mut live: impl FnMut(usize, usize) -> f32,
    ) -> LineAlignedBuf {
        let stride = crate::layout::entry_stride(nb);
        let mut bank = LineAlignedBuf::default();
        bank.ensure_len(entries * stride);
        for (e, entry) in bank.as_mut_slice().chunks_exact_mut(stride).take(entries).enumerate() {
            for (a, v) in entry.iter_mut().enumerate() {
                *v = if a < nb { live(e, a) } else { f32::NAN };
            }
        }
        bank
    }

    /// [`keymajor_bank`] with random live lanes.
    fn random_bank(g: &mut MatrixRng, entries: usize, nb: usize) -> LineAlignedBuf {
        let values = g.gaussian_vec(entries * nb);
        keymajor_bank(entries, nb, |e, a| values[e * nb + a])
    }

    /// The rows entry on a one-row tile.
    fn fused_row(
        y: &mut [f32],
        scale: f32,
        bank: &[f32],
        table: usize,
        nb: usize,
        keys: KeyTile<'_>,
        k: ResolvedKernel,
    ) {
        lut_query_fused_rows(y, nb, &[scale], bank, table, nb, keys, k);
    }

    /// One key row's width-1 sum over back-to-back chunk tables: a one-row
    /// [`lut_gather_rows`] onto `0.0` with scale 1 (exact).
    fn gather(bank: &[f32], table: usize, keys: KeyTile<'_>, k: ResolvedKernel) -> f32 {
        let mut y = [0.0f32];
        lut_gather_rows(&mut y, 1, &[1.0], bank, table, keys, k);
        y[0]
    }

    #[test]
    fn fused_query_bit_exact_across_levels_and_ragged_widths() {
        let mut g = MatrixRng::seed_from(40);
        for &(chunks, mu, nb) in &[
            (1usize, 2usize, 1usize),
            (3, 4, 5),
            (7, 4, 8),
            (6, 4, 4),
            (9, 6, 6),
            (10, 8, 7),
            (5, 6, 9),
            (12, 8, 20), // AVX-512: 16-lane group + masked 4
            (11, 6, 24), // AVX-512: 16-lane group + masked 8
            (9, 8, 36),  // AVX-512: 32-lane pass + AVX2 masked 4
            (10, 6, 40), // AVX-512: 32-lane pass + one AVX2 group
            (9, 8, 16),
            (4, 8, 33),
            (40, 8, 8),  // tile > 32 KiB
            (11, 10, 5), // u16 keys
            (13, 8, 32), // one 32-lane pass, ragged chunk tail
            (9, 6, 48),  // 32-lane pass + 16-lane remainder
            (3, 4, 64),  // two 32-lane passes, tile ≤ 32 KiB
        ] {
            let table = 1usize << mu;
            let bank = random_bank(&mut g, chunks * table, nb);
            let bank = bank.as_slice();
            let km = key_row(&mut g, chunks, mu);
            let keys = km.tile(0..1, 0, chunks);
            let y0 = g.gaussian_vec(nb);
            let mut want = y0.clone();
            let stride = crate::layout::entry_stride(nb);
            with_keys!(keys, ks => fused_oracle(&mut want, -0.75, bank, table, stride, ks));
            for k in supported_levels() {
                let k = KernelRequest::Exact(k).resolve().unwrap();
                let mut got = y0.clone();
                fused_row(&mut got, -0.75, bank, table, nb, keys, k);
                assert_eq!(want, got, "{k} chunks={chunks} µ={mu} nb={nb}");
            }
        }
    }

    #[test]
    fn fused_query_matches_canonical_tree_composition() {
        // The fused kernel must equal, per lane, the canonical sum of the
        // looked-up values in ascending chunk order, then a two-step
        // multiply-add — the canonical order written out longhand.
        let mut g = MatrixRng::seed_from(41);
        for chunks in [1usize, 6, 8, 9, 19] {
            let (mu, nb) = (4usize, 11usize);
            let table = 1usize << mu;
            let bank = random_bank(&mut g, chunks * table, nb);
            let bank = bank.as_slice();
            let km = key_row(&mut g, chunks, mu);
            let keys = km.tile(0..1, 0, chunks);
            let mut want = g.gaussian_vec(nb);
            let mut got = want.clone();
            let stride = crate::layout::entry_stride(nb);
            for (a, yv) in want.iter_mut().enumerate() {
                let vals = (0..chunks).map(|ci| bank[(ci * table + keys.key(0, ci)) * stride + a]);
                *yv += 2.5 * canonical_sum(vals);
            }
            fused_row(&mut got, 2.5, bank, table, nb, keys, ResolvedKernel::scalar());
            assert_eq!(want, got, "chunks={chunks}");
        }
    }

    #[test]
    fn gather_bit_exact_across_levels_and_matches_fused_width1() {
        // Every level's gather must agree with scalar AND with the fused
        // kernel run at nb == 1 (scale 1 onto a zero output is exact), on
        // ragged chunk counts straddling the 8-chunk group width, both key
        // widths, and banks of ≤ 32 KiB and > 32 KiB.
        let mut g = MatrixRng::seed_from(42);
        for &(chunks, mu) in &[
            (1usize, 2usize),
            (3, 4),
            (7, 4),
            (8, 4),
            (9, 6),
            (16, 8),
            (23, 8),
            (40, 3),
            (57, 8),  // bank > 32 KiB
            (19, 12), // u16 keys, bank > 32 KiB
        ] {
            let table = 1usize << mu;
            let bank = g.gaussian_vec(chunks * table);
            // The same tables as a one-column KeyMajor bank (padded entries).
            let padded = keymajor_bank(chunks * table, 1, |e, _| bank[e]);
            let km = key_row(&mut g, chunks, mu);
            let keys = km.tile(0..1, 0, chunks);
            let want = gather(&bank, table, keys, ResolvedKernel::scalar());
            for level in supported_levels() {
                let k = KernelRequest::Exact(level).resolve().unwrap();
                let got = gather(&bank, table, keys, k);
                assert_eq!(want.to_bits(), got.to_bits(), "{level} chunks={chunks} µ={mu}");
                let mut y = [0.0f32];
                fused_row(&mut y, 1.0, padded.as_slice(), table, 1, keys, k);
                assert_eq!(want.to_bits(), y[0].to_bits(), "fused@1 {level} chunks={chunks}");
            }
        }
    }

    /// The width-1 chain is the canonical sum at every level, on every
    /// batch column of a column-table bank (column `a`'s chunk tables back
    /// to back from `a · chunks · 2^µ` on), one call per column — the
    /// queries a narrow tile runs.
    #[test]
    fn gather_is_the_canonical_sum_on_every_column_of_a_bank() {
        let mut g = MatrixRng::seed_from(43);
        for &(chunks, mu, nb) in &[(21usize, 4usize, 1usize), (21, 4, 3), (40, 8, 5), (9, 10, 2)] {
            let table = 1usize << mu;
            let bank = g.gaussian_vec(chunks * table * nb);
            let km = key_row(&mut g, chunks, mu);
            let keys = km.tile(0..1, 0, chunks);
            let want: Vec<u32> = bank
                .chunks_exact(chunks * table)
                .map(|col| canonical_sum((0..chunks).map(|c| col[c * table + keys.key(0, c)])))
                .map(f32::to_bits)
                .collect();
            for level in supported_levels() {
                let k = KernelRequest::Exact(level).resolve().unwrap();
                let got: Vec<u32> = bank
                    .chunks_exact(chunks * table)
                    .map(|col| gather(col, table, keys, k).to_bits())
                    .collect();
                assert_eq!(want, got, "{level} chunks={chunks} nb={nb}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "table stride must be 2^µ")]
    fn fused_query_rejects_a_table_narrower_than_the_keys() {
        // µ = 4 keys may reach 15; a 4-entry table cannot hold them. The
        // O(1) stride check stands in for the old per-key scan.
        let km = KeyMatrix::pack(&SignMatrix::ones(1, 4), 4);
        let bank = vec![0.0f32; 16];
        let mut y = vec![0.0f32; 2];
        fused_row(&mut y, 1.0, &bank, 4, 2, km.tile(0..1, 0, 1), ResolvedKernel::scalar());
    }

    /// The checked twin of the query's line-sized entries: a bank of
    /// 16-float entries that does not start on a cache line is refused in
    /// debug builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not cache-line aligned")]
    fn fused_query_refuses_a_split_line_bank_in_debug() {
        let mut g = MatrixRng::seed_from(44);
        let km = key_row(&mut g, 2, 4);
        let bank = random_bank(&mut g, 2 * 16 + 1, 16);
        let mut y = vec![0.0f32; 16];
        let k = ResolvedKernel::scalar();
        fused_row(&mut y, 1.0, &bank.as_slice()[1..], 16, 16, km.tile(0..1, 0, 2), k);
    }

    #[test]
    #[should_panic(expected = "table stride must be 2^µ")]
    fn gather_rejects_a_table_narrower_than_the_keys() {
        let km = KeyMatrix::pack(&SignMatrix::ones(1, 8), 4);
        let bank = vec![0.0f32; 8];
        gather(&bank, 4, km.tile(0..1, 0, 2), ResolvedKernel::scalar());
    }
}
