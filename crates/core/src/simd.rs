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
//! * [`lut_gather`] / [`lut_gather_rows`] — the width-1 form of the same
//!   query (one row / one row tile): strided loads of
//!   `bank[c·2^µ + keys[c]]` into vector lanes (a hardware gather on
//!   AVX2/AVX-512), the latency path of the paper's b = 1 serving regime;
//! * [`dp_step_add_rows`] / [`negate_rows_reversed`] — the µ-wide vector adds and the mirror
//!   negation of the batched Algorithm 1 LUT build (KeyMajor layout);
//! * [`broadcast_add`] — the scalar-step DP recurrence of the single-table
//!   build (BatchMajor / GEMV path);
//! * [`add_assign`] / [`axpy`] — the original elementwise primitives, kept
//!   for callers outside the fused path.
//!
//! ## Bit-exactness and the canonical accumulation order
//!
//! Every level of every primitive performs the same floating-point
//! operations in the same per-element order as the scalar form, and no
//! path contracts multiply-add into FMA.
//!
//! For the chunk-accumulation kernels ([`lut_query_fused_rows`],
//! [`lut_gather`], [`lut_gather_rows`]) the specified per-element order is
//! the **canonical accumulation tree**, chosen so the natural SIMD shape
//! *is* the contract rather than a pessimisation of it:
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
//! per-element order. Scalar bodies emulate the tree with an 8-slot
//! array; [`TreeAccumulator`] is the reference implementation for
//! accumulation loops outside these dispatchers (e.g. the BatchMajor
//! per-element query). Because scalar, every SIMD level, the width-1
//! gather and the batched kernel all realise this one order, cross-level
//! bit-exactness **and** batch-packing invariance (a column rounds
//! identically however it is packed into batch tiles) hold by
//! construction instead of by forcing the slow sequential order
//! everywhere.
//!
//! **Ragged lanes.** A row of `nb` batch lanes is processed in lane groups
//! of the level's vector width `g` (8 on AVX2, 16 on AVX-512), and the
//! `nb mod g` lanes left over take **one masked pass of the same group
//! body** — the same 8 accumulators, the same fold, the same two-step
//! multiply then add, with every load and the final store under one lane
//! mask (`vmaskmovps` on AVX2, a `__mmask16` on AVX-512). Per live lane the
//! order therefore *is* the canonical tree: a remainder pass cannot round
//! differently from a full group, by construction rather than by test. The
//! masked-out lanes are **never stored** (in a strided output they are the
//! next row's first columns) and **never read unmasked** (after the last
//! entry they lie past the bank; the hardware suppresses faults on, and
//! does not access, a masked-out lane); their idle accumulators hold `+0.0`
//! throughout and are discarded. The row-shaped steps of the batched DP
//! build ([`dp_step_add_rows`], [`negate_rows_reversed`]) finish each row
//! the same way. The scalar level is the plain reference every suite
//! compares against. NEON keeps a scalar tail for its `nb mod 4` lanes:
//! that level is only compile-checked in this repository (no aarch64 host
//! to test or measure a masked body on).
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
//! ## Keys, their range, and LUT prefetch
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
//! every key on every call, and the unchecked gathers rest on the type; a
//! `debug_assert` scan is the checked twin.
//!
//! LUT entries are software-prefetched only when the resident tile
//! (`nc · table · nb · 4 B`, geometry the kernel is handed anyway) exceeds
//! [`L1_LUT_BYTES`]: a tile that fits L1 is already where a prefetch would
//! put it, and the b = 1 default tile (32 chunks × 2^8 × 4 B = 32 KiB) is
//! exactly that case. The per-row bodies (gathers, and fused lane groups
//! narrower than 32) look ahead *within* the row, a fixed number of chunks;
//! the wide AVX-512 body looks ahead by a whole *row* instead (below).
//!
//! ## Wide batch: the row-blocked 32-lane body
//!
//! At `nb ≥ 32` an entry is two or more cache lines and the query is a
//! stream of L2 reads, so the AVX-512 arm of [`lut_query_fused_rows`] is
//! shaped for bandwidth, not latency:
//!
//! * **32 lanes per pass** while at least 32 remain — two zmm per canonical
//!   accumulator, 16 of the 32 vector registers — so both lines of a
//!   128-byte entry are consumed together and each key is decoded once for
//!   all 32 lanes. AVX2 has 16 registers in total: 16 accumulators would
//!   leave none for loads, so that level (and NEON, and scalar) keep the
//!   per-row 8-/4-lane bodies. The lanes left after the last full group of
//!   32 (`nb mod 32`, and every `nb < 32`) run the per-row 16-lane body:
//!   full groups of 16, then one masked pass ("Ragged lanes" above);
//! * **next-row prefetch**: while row `i` accumulates, the entries row
//!   `i + 1` will read are requested — the whole key tile is in hand, so
//!   the look-ahead is a full row (`nc` entries), not a few chunks;
//! * **line-aligned entries**: with `nb ≡ 0 (mod 16)` every entry is whole
//!   cache lines *iff* the bank's first float is 64-byte aligned. That is a
//!   property of the bank's buffer type (`layout.rs`), not of the caller or
//!   the allocator; the body `debug_assert`s it.
//!
//! Per lane the order is still the canonical tree, so the wide body, the
//! per-row bodies and every other level agree bit for bit.
//!
//! ## Adding a new ISA
//!
//! 1. add the variant to [`KernelLevel`] (`name`/`parse`/`rank`), teach
//!    [`KernelLevel::is_supported`] and [`host_best`] to detect it;
//! 2. implement the primitives in a `#[cfg(target_arch = …)]` submodule,
//!    preserving the per-element operation order — for
//!    [`lut_query_fused_rows`] and [`lut_gather`] that means the canonical
//!    accumulation tree above (delegate to the scalar emulation first,
//!    vectorise after), never FMA contraction — and add the cfg-gated arms
//!    to the `dispatch!` macro uses;
//! 3. extend the manifest codec in `biq_artifact` (one new level byte) and
//!    the CLI `--kernel` parser — rank ordering decides what the artifact
//!    loader falls back to on hosts without the new ISA;
//! 4. the per-level property suites pick the level up automatically from
//!    [`supported_levels`].
//!
//! Safety: `unsafe` is confined to this module; every intrinsic body is
//! reachable only through a [`ResolvedKernel`] constructed after a host
//! support check.

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

/// Dispatch on a resolved level. Arms for foreign architectures are not
/// compiled; hitting the wildcard would mean a [`ResolvedKernel`] invariant
/// violation, which is a bug — hence `unreachable!`, never a silent scalar
/// remap.
macro_rules! dispatch {
    ($k:expr, $scalar:expr, $avx2:expr, $avx512:expr, $neon:expr) => {
        match $k.level() {
            KernelLevel::Scalar => $scalar,
            #[cfg(target_arch = "x86_64")]
            KernelLevel::Avx2 => unsafe { $avx2 },
            #[cfg(target_arch = "x86_64")]
            KernelLevel::Avx512 => unsafe { $avx512 },
            #[cfg(target_arch = "aarch64")]
            KernelLevel::Neon => unsafe { $neon },
            #[allow(unreachable_patterns)]
            other => unreachable!("kernel level {other:?} resolved on a foreign architecture"),
        }
    };
}

// ------------------------------------------------------------ primitives

/// `acc[i] += src[i]` for equal-length slices.
///
/// # Panics
/// Debug-panics on length mismatch.
#[inline]
pub fn add_assign(acc: &mut [f32], src: &[f32], k: ResolvedKernel) {
    debug_assert_eq!(acc.len(), src.len());
    dispatch!(
        k,
        add_assign_scalar(acc, src),
        avx2::add_assign(acc, src),
        avx512::add_assign(acc, src),
        neon::add_assign(acc, src)
    )
}

/// `y[i] += a * x[i]` for equal-length slices. Multiply and add round
/// separately on every level (no FMA), so all levels agree bit for bit.
#[inline]
pub fn axpy(y: &mut [f32], a: f32, x: &[f32], k: ResolvedKernel) {
    debug_assert_eq!(y.len(), x.len());
    dispatch!(
        k,
        axpy_scalar(y, a, x),
        avx2::axpy(y, a, x),
        avx512::axpy(y, a, x),
        neon::axpy(y, a, x)
    )
}

/// The µ-wide DP step of the batched Algorithm 1 build (KeyMajor layout)
/// over a whole half-table block: `dst[r·nb + a] = src[r·nb + a] +
/// step[a]` for every row `r` — **one** dispatch per DP level, so the
/// call overhead never scales with `2^µ`.
///
/// # Panics
/// Debug-panics when `dst`/`src` lengths differ or are not a multiple of
/// `step.len()`.
#[inline]
pub fn dp_step_add_rows(dst: &mut [f32], src: &[f32], step: &[f32], k: ResolvedKernel) {
    debug_assert_eq!(dst.len(), src.len());
    debug_assert!(!step.is_empty() && dst.len().is_multiple_of(step.len()));
    dispatch!(
        k,
        dp_step_add_rows_scalar(dst, src, step),
        avx2::dp_step_add_rows(dst, src, step),
        avx512::dp_step_add_rows(dst, src, step),
        neon::dp_step_add_rows(dst, src, step)
    )
}

/// The mirror half of the batched Algorithm 1 build: `dst` row `r` is the
/// negation of `src` row `rows − 1 − r` (rows of `nb` floats) — one
/// dispatch per chunk.
///
/// # Panics
/// Debug-panics when the lengths differ or are not a multiple of `nb`.
#[inline]
pub fn negate_rows_reversed(dst: &mut [f32], src: &[f32], nb: usize, k: ResolvedKernel) {
    debug_assert_eq!(dst.len(), src.len());
    debug_assert!(nb > 0 && dst.len().is_multiple_of(nb));
    dispatch!(
        k,
        negate_rows_reversed_scalar(dst, src, nb),
        avx2::negate_rows_reversed(dst, src, nb),
        avx512::negate_rows_reversed(dst, src, nb),
        neon::negate_rows_reversed(dst, src, nb)
    )
}

/// `dst[i] = src[i] + step` (the scalar-step DP recurrence of the
/// single-table build).
///
/// # Panics
/// Debug-panics on length mismatch.
#[inline]
pub fn broadcast_add(dst: &mut [f32], src: &[f32], step: f32, k: ResolvedKernel) {
    debug_assert_eq!(dst.len(), src.len());
    dispatch!(
        k,
        broadcast_add_scalar(dst, src, step),
        avx2::broadcast_add(dst, src, step),
        avx512::broadcast_add(dst, src, step),
        neon::broadcast_add(dst, src, step)
    )
}

/// One stored key width the bodies are instantiated for. Private: the
/// public entry points take a [`KeyTile`] and pick the instantiation.
trait KeyElem: Copy {
    /// The key as a table index.
    fn idx(self) -> usize;

    /// Eight consecutive keys zero-extended into `i32` lanes.
    ///
    /// # Safety
    /// AVX2 must be available and `p .. p + 8` readable.
    #[cfg(target_arch = "x86_64")]
    unsafe fn load8(p: *const Self) -> std::arch::x86_64::__m256i;
}

impl KeyElem for u8 {
    #[inline(always)]
    fn idx(self) -> usize {
        usize::from(self)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load8(p: *const Self) -> std::arch::x86_64::__m256i {
        use std::arch::x86_64::*;
        // SAFETY: the caller vouches for AVX2 and 8 readable bytes.
        unsafe { _mm256_cvtepu8_epi32(_mm_loadl_epi64(p as *const __m128i)) }
    }
}

impl KeyElem for u16 {
    #[inline(always)]
    fn idx(self) -> usize {
        usize::from(self)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load8(p: *const Self) -> std::arch::x86_64::__m256i {
        use std::arch::x86_64::*;
        // SAFETY: the caller vouches for AVX2 and 16 readable bytes.
        unsafe { _mm256_cvtepu16_epi32(_mm_loadu_si128(p as *const __m128i)) }
    }
}

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

/// LUT tiles up to this many bytes count as L1-resident: the query loops
/// issue entry prefetches only for larger tiles (module docs).
pub const L1_LUT_BYTES: usize = 32 * 1024;

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
/// `y[i·y_stride + a] += scales[i] · Σ_ci bank[(ci·table + keys_i[ci])·nb + a]`
/// for `a < nb`. The b ≥ 2 twin of [`lut_gather_rows`]: geometry checks,
/// the key-range check and level dispatch happen once per row tile.
///
/// `bank` is a KeyMajor tile base: chunk `ci`'s table starts at
/// `ci · table · nb`, each of its `table = 2^µ` entries is a contiguous
/// `nb`-float batch vector. Every level accumulates each batch lane in the
/// canonical tree order (see the module docs) and rounds the final
/// multiply-add in two steps, so all levels — and [`lut_gather`] at
/// `nb == 1` — agree bit for bit, and a row tile equals its rows queried
/// one at a time.
///
/// On AVX-512, lanes are taken 32 at a time while at least 32 remain (the
/// row-blocked wide body, module docs "Wide batch"); remaining lanes, and
/// every other level, run the per-row bodies: full lane groups, then one
/// masked pass over the `nb mod 8` (AVX2) or `nb mod 16` (AVX-512) lanes
/// left (module docs "Ragged lanes").
///
/// # Panics
/// Panics when `scales.len() != keys.rows()`, `table != 2^µ`, or a slice
/// is too short for the described geometry. Debug-panics when the AVX-512
/// wide body is entered with line-sized entries (`nb % 16 == 0`) on a bank
/// that is not 64-byte aligned — a split-line layout the bank type rules
/// out.
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
    assert!(bank.len() >= nc * table * nb, "bank shorter than the key rows need");
    assert_keys_fit(&keys, table);
    // Only the x86 bodies prefetch.
    #[cfg(target_arch = "x86_64")]
    let pf = nc * table * nb * 4 > L1_LUT_BYTES;
    with_keys!(keys, ks => {
        // Row `i` of the tile as the per-row bodies take it.
        let rows = (0..nr).map(|i| (i * y_stride, scales[i], &ks[i * key_stride..][..nc]));
        // SAFETY (the arms `dispatch!` wraps in `unsafe`): the level was
        // resolved against this host; every row handed to a body is a row
        // of a `KeyTile`, whose range invariant (every key `< 2^µ`) with
        // the `table == 2^µ` check above bounds each entry offset by the
        // `nc · table · nb` floats the bank-length assert established;
        // output rows are `nb`-float slices (per-row arms) or covered by
        // the output-geometry asserts (the AVX-512 rows body).
        dispatch!(
            k,
            for (yo, scale, row) in rows {
                lut_query_fused_scalar(&mut y[yo..yo + nb], scale, bank, table, nb, row);
            },
            for (yo, scale, row) in rows {
                avx2::lut_query_fused(&mut y[yo..yo + nb], scale, bank, table, nb, row, pf);
            },
            avx512::lut_query_fused_rows(
                y, y_stride, scales, bank, table, nb, ks, key_stride, nc, pf
            ),
            for (yo, scale, row) in rows {
                neon::lut_query_fused(&mut y[yo..yo + nb], scale, bank, table, nb, row);
            }
        )
    })
}

/// The width-1 query kernel: `Σ_ci bank[ci·table + keys[ci]]` in the
/// canonical accumulation-tree order (see the module docs) — the b = 1
/// latency path, where the KeyMajor and BatchMajor layouts coincide.
///
/// On AVX2/AVX-512 the strided lookups become one hardware gather per 8
/// chunks (the AVX-512 arm runs the 256-bit body: the canonical tree is 8
/// lanes wide, so 512-bit gathers buy nothing at width 1); NEON runs the
/// scalar emulation. All levels — and [`lut_query_fused_rows`] at `nb == 1` —
/// agree bit for bit.
///
/// # Panics
/// Panics unless `keys` is a one-row tile with `table == 2^µ`, or when the
/// bank is too short for the key row.
#[inline]
pub fn lut_gather(bank: &[f32], table: usize, keys: KeyTile<'_>, k: ResolvedKernel) -> f32 {
    assert_eq!(keys.rows(), 1, "the single-row gather takes one key row");
    assert!(bank.len() >= keys.nc() * table, "bank shorter than the key row needs");
    assert_keys_fit(&keys, table);
    // The x86 gather computes entry offsets in i32 lanes.
    #[cfg(target_arch = "x86_64")]
    assert!(bank.len() <= i32::MAX as usize, "bank exceeds the 32-bit gather index range");
    // Only the x86 bodies prefetch.
    #[cfg(target_arch = "x86_64")]
    let pf = keys.nc() * table * 4 > L1_LUT_BYTES;
    with_keys!(keys, ks => dispatch!(
        k,
        lut_gather_scalar(bank, table, ks),
        avx2::lut_gather(bank, table, ks, pf),
        // 8 tree lanes ⇒ the 256-bit body is already the canonical shape.
        avx2::lut_gather(bank, table, ks, pf),
        neon::lut_gather(bank, table, ks)
    ))
}

/// Row-batched width-1 gather: for each row `i` of the key tile,
/// `y[i · y_stride] += scales[i] · Σ bank[c·2^µ + keys_i[c]]`, each row
/// summed in exactly [`lut_gather`]'s canonical tree order — the results
/// are bit-identical to calling it row by row. Batching moves the level
/// dispatch, the geometry checks, and the gather set-up out of the
/// per-output-row loop (the b = 1 tile loop calls this once per row tile
/// instead of once per row), and lets the x86 body interleave two rows'
/// gathers: the gather unit's latency is the width-1 bottleneck, and
/// consecutive rows are independent chains.
///
/// # Panics
/// Panics when `scales.len() != keys.rows()`, `table != 2^µ`, or a slice
/// is too short for the described geometry.
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
    assert!(y.len() > (nr - 1) * y_stride, "output shorter than the row count needs");
    assert!(bank.len() >= nc * table, "bank shorter than the key rows need");
    assert_keys_fit(&keys, table);
    // The x86 gather computes entry offsets in i32 lanes.
    #[cfg(target_arch = "x86_64")]
    assert!(bank.len() <= i32::MAX as usize, "bank exceeds the 32-bit gather index range");
    // Only the x86 bodies prefetch.
    #[cfg(target_arch = "x86_64")]
    let pf = nc * table * 4 > L1_LUT_BYTES;
    with_keys!(keys, ks => dispatch!(
        k,
        lut_gather_rows_scalar(y, y_stride, scales, bank, table, ks, key_stride, nc),
        avx2::lut_gather_rows(y, y_stride, scales, bank, table, ks, key_stride, nc, pf),
        // 8 tree lanes ⇒ the 256-bit body is already the canonical shape.
        avx2::lut_gather_rows(y, y_stride, scales, bank, table, ks, key_stride, nc, pf),
        neon::lut_gather_rows(y, y_stride, scales, bank, table, ks, key_stride, nc)
    ))
}

// --------------------------------------------------------- scalar bodies

#[inline]
fn add_assign_scalar(acc: &mut [f32], src: &[f32]) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a += s;
    }
}

#[inline]
fn axpy_scalar(y: &mut [f32], a: f32, x: &[f32]) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

#[inline]
fn dp_step_add_rows_scalar(dst: &mut [f32], src: &[f32], step: &[f32]) {
    let nb = step.len();
    for (drow, srow) in dst.chunks_exact_mut(nb).zip(src.chunks_exact(nb)) {
        for ((d, &sv), &st) in drow.iter_mut().zip(srow).zip(step) {
            *d = sv + st;
        }
    }
}

#[inline]
fn negate_rows_reversed_scalar(dst: &mut [f32], src: &[f32], nb: usize) {
    let rows = dst.len() / nb;
    for (r, drow) in dst.chunks_exact_mut(nb).enumerate() {
        let srow = &src[(rows - 1 - r) * nb..(rows - r) * nb];
        for (d, &sv) in drow.iter_mut().zip(srow) {
            *d = -sv;
        }
    }
}

#[inline]
fn broadcast_add_scalar(dst: &mut [f32], src: &[f32], step: f32) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s + step;
    }
}

/// Width of the canonical accumulation tree: the number of partial sums
/// each output element carries through the chunk loop (module docs,
/// "Bit-exactness and the canonical accumulation order"). Matches the
/// 8-lane gather/accumulator shape of the AVX2 bodies; every other level
/// emulates exactly this width.
pub const ACC_TREE_WIDTH: usize = 8;

/// Chunks of software-prefetch lookahead in the x86 per-row query loops: while
/// the chunk group at `ci` accumulates, the LUT entries of chunks
/// `ci + PREFETCH_CHUNKS ..` are requested into L1 — the keys are known
/// ahead of time, so the access pattern is perfectly predictable to us
/// and perfectly opaque to the hardware prefetcher. Issued only for tiles
/// larger than [`L1_LUT_BYTES`].
#[cfg(target_arch = "x86_64")]
const PREFETCH_CHUNKS: usize = 16;

/// The fixed pairwise fold of the canonical accumulation tree:
/// `p[i] += p[i+4]`, then `p[i] += p[i+2]`, then `p[0] += p[1]` — the
/// horizontal-add ladder of an 8-lane vector, written out so scalar code
/// rounds identically to the SIMD reductions.
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

/// Reference implementation of the canonical accumulation order: feed it
/// values in ascending chunk order via [`TreeAccumulator::push`] and
/// [`TreeAccumulator::finish`] folds the partials in the fixed tree.
/// Accumulation loops that cannot route through [`lut_query_fused_rows`] /
/// [`lut_gather`] (e.g. the BatchMajor per-element query) use this to
/// round bit-identically to them.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeAccumulator {
    partials: [f32; ACC_TREE_WIDTH],
    count: usize,
}

impl TreeAccumulator {
    /// An empty accumulator (sum of nothing is `0.0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the value of the next chunk (chunk index = number of prior
    /// pushes) to its residue-class partial.
    #[inline]
    pub fn push(&mut self, v: f32) {
        self.partials[self.count % ACC_TREE_WIDTH] += v;
        self.count += 1;
    }

    /// Folds the partials in the canonical tree order.
    #[inline]
    pub fn finish(self) -> f32 {
        tree_reduce8(self.partials)
    }
}

/// Scalar emulation of the width-1 gather: 8 residue-class partials, then
/// the canonical fold. Also the NEON body (no hardware gather there).
fn lut_gather_scalar<K: KeyElem>(bank: &[f32], table: usize, keys: &[K]) -> f32 {
    let mut p = [0.0f32; ACC_TREE_WIDTH];
    for (c, &key) in keys.iter().enumerate() {
        p[c % ACC_TREE_WIDTH] += bank[c * table + key.idx()];
    }
    tree_reduce8(p)
}

/// Row loop over [`lut_gather_scalar`] — per row exactly its sum, so the
/// batched entry point changes no bits at the scalar level either. Also
/// the NEON body.
#[allow(clippy::too_many_arguments)]
fn lut_gather_rows_scalar<K: KeyElem>(
    y: &mut [f32],
    y_stride: usize,
    scales: &[f32],
    bank: &[f32],
    table: usize,
    keys: &[K],
    key_stride: usize,
    nc: usize,
) {
    for (i, &scale) in scales.iter().enumerate() {
        let row = &keys[i * key_stride..i * key_stride + nc];
        y[i * y_stride] += scale * lut_gather_scalar(bank, table, row);
    }
}

/// Segment width of the scalar fused kernel. Matching the AVX2 lane count
/// keeps the loop auto-vectorisable; per-lane accumulation order (the
/// canonical tree over chunks) is what bit-exactness depends on, and that
/// is identical for any segment width.
const SCALAR_SEG: usize = 8;

/// The Scalar level, and the tail of the NEON body. `nb` is the bank's
/// batch stride; the lanes processed are `y.len()` (NEON passes the suffix
/// of the batch tile its 4-lane groups left, with `bank` pre-offset by the
/// same lane index). Each lane keeps
/// [`ACC_TREE_WIDTH`] partials indexed by `ci % 8` and folds them in the
/// canonical tree — the exact per-lane order of the vector bodies.
fn lut_query_fused_scalar<K: KeyElem>(
    y: &mut [f32],
    scale: f32,
    bank: &[f32],
    table: usize,
    nb: usize,
    keys: &[K],
) {
    let lanes = y.len();
    let mut a0 = 0;
    while a0 < lanes {
        let w = SCALAR_SEG.min(lanes - a0);
        let mut acc = [[0.0f32; SCALAR_SEG]; ACC_TREE_WIDTH];
        for (ci, &key) in keys.iter().enumerate() {
            let off = (ci * table + key.idx()) * nb + a0;
            let part = &mut acc[ci % ACC_TREE_WIDTH];
            for (av, &bv) in part[..w].iter_mut().zip(&bank[off..off + w]) {
                *av += bv;
            }
        }
        for step in [4usize, 2, 1] {
            for j in 0..step {
                let (lo, hi) = acc.split_at_mut(j + step);
                for (av, &bv) in lo[j][..w].iter_mut().zip(&hi[0][..w]) {
                    *av += bv;
                }
            }
        }
        for (yv, &av) in y[a0..a0 + w].iter_mut().zip(&acc[0][..w]) {
            *yv += scale * av;
        }
        a0 += w;
    }
}

// ------------------------------------------------------------ AVX2 bodies

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::KeyElem;
    use std::arch::x86_64::*;

    /// # Safety
    /// AVX2 must be available; slice lengths as checked by the dispatcher.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign(acc: &mut [f32], src: &[f32]) {
        let n = acc.len();
        let mut i = 0;
        // SAFETY: loads/stores stay within the equal-length slices; the
        // unaligned variants carry no alignment requirement.
        unsafe {
            while i + 8 <= n {
                let a = _mm256_loadu_ps(acc.as_ptr().add(i));
                let s = _mm256_loadu_ps(src.as_ptr().add(i));
                _mm256_storeu_ps(acc.as_mut_ptr().add(i), _mm256_add_ps(a, s));
                i += 8;
            }
        }
        for k in i..n {
            acc[k] += src[k];
        }
    }

    /// # Safety
    /// AVX2 must be available; slice lengths as checked by the dispatcher.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
        let n = y.len();
        let mut i = 0;
        // SAFETY: as above. Multiply and add round separately (no FMA) so
        // the result matches scalar bit for bit.
        unsafe {
            let av = _mm256_set1_ps(a);
            while i + 8 <= n {
                let yv = _mm256_loadu_ps(y.as_ptr().add(i));
                let xv = _mm256_loadu_ps(x.as_ptr().add(i));
                let prod = _mm256_mul_ps(av, xv);
                _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_add_ps(yv, prod));
                i += 8;
            }
        }
        for k in i..n {
            y[k] += a * x[k];
        }
    }

    /// The `vmaskmov` mask selecting lanes `0..n` of an 8-lane group (all
    /// lanes for `n ≥ 8`, none for `n = 0`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lane_mask(n: usize) -> __m256i {
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    /// # Safety
    /// AVX2 must be available; lengths as checked by the dispatcher.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dp_step_add_rows(dst: &mut [f32], src: &[f32], step: &[f32]) {
        let nb = step.len();
        let rows = dst.len() / nb;
        // Full 8-lane groups of a row, then its `nb mod 8` lanes in one
        // masked pass.
        let full = nb - nb % 8;
        debug_assert!(dst.len() == rows * nb && src.len() == rows * nb);
        // SAFETY: every access stays inside the equal-length `dst`/`src`
        // blocks (`rows · nb` floats) and the `nb`-float step row: full
        // groups end at `full ≤ nb`, and the masked pass selects lanes
        // `0 .. nb − full` from lane `full` of the row — `vmaskmovps`
        // neither reads, writes nor faults on a masked-out lane (the next
        // row's first floats, or the bytes past the block after the last).
        unsafe {
            let mask = lane_mask(nb - full);
            let st_tail = _mm256_maskload_ps(step.as_ptr().add(full), mask);
            for r in 0..rows {
                let base = r * nb;
                let mut a0 = 0;
                while a0 < full {
                    let sv = _mm256_loadu_ps(src.as_ptr().add(base + a0));
                    let st = _mm256_loadu_ps(step.as_ptr().add(a0));
                    _mm256_storeu_ps(dst.as_mut_ptr().add(base + a0), _mm256_add_ps(sv, st));
                    a0 += 8;
                }
                if full < nb {
                    let sv = _mm256_maskload_ps(src.as_ptr().add(base + full), mask);
                    let sum = _mm256_add_ps(sv, st_tail);
                    _mm256_maskstore_ps(dst.as_mut_ptr().add(base + full), mask, sum);
                }
            }
        }
    }

    /// # Safety
    /// AVX2 must be available; lengths as checked by the dispatcher.
    /// Negation is a sign-bit flip, identical to scalar `-x` for every
    /// input including NaN payloads.
    #[target_feature(enable = "avx2")]
    pub unsafe fn negate_rows_reversed(dst: &mut [f32], src: &[f32], nb: usize) {
        let rows = dst.len() / nb;
        let full = nb - nb % 8;
        debug_assert!(dst.len() == rows * nb && src.len() == rows * nb);
        // SAFETY: row index arithmetic stays inside the equal-length
        // blocks; the `nb mod 8` lanes of a row take one masked pass —
        // lanes `0 .. nb − full` from lane `full`, and `vmaskmovps` neither
        // reads, writes nor faults on the masked-out ones (floats of the
        // neighbouring row, or bytes outside the blocks).
        unsafe {
            let sign = _mm256_set1_ps(-0.0);
            if nb == 1 {
                // Width-1 mirror: reverse inside the vector instead of
                // degrading to 1-lane rows. Negation is a sign-bit XOR and
                // the permute moves bits untouched, so this is bit-exact
                // against the scalar body.
                let n = rows;
                let rev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
                let mut i = 0;
                while i + 8 <= n {
                    let sv = _mm256_loadu_ps(src.as_ptr().add(n - 8 - i));
                    let r = _mm256_permutevar8x32_ps(sv, rev);
                    _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_xor_ps(r, sign));
                    i += 8;
                }
                for j in i..n {
                    dst[j] = -src[n - 1 - j];
                }
                return;
            }
            let mask = lane_mask(nb - full);
            for r in 0..rows {
                let dbase = r * nb;
                let sbase = (rows - 1 - r) * nb;
                let mut a0 = 0;
                while a0 < full {
                    let sv = _mm256_loadu_ps(src.as_ptr().add(sbase + a0));
                    _mm256_storeu_ps(dst.as_mut_ptr().add(dbase + a0), _mm256_xor_ps(sv, sign));
                    a0 += 8;
                }
                if full < nb {
                    let sv = _mm256_maskload_ps(src.as_ptr().add(sbase + full), mask);
                    let neg = _mm256_xor_ps(sv, sign);
                    _mm256_maskstore_ps(dst.as_mut_ptr().add(dbase + full), mask, neg);
                }
            }
        }
    }

    /// # Safety
    /// AVX2 must be available; slice lengths as checked by the dispatcher.
    #[target_feature(enable = "avx2")]
    pub unsafe fn broadcast_add(dst: &mut [f32], src: &[f32], step: f32) {
        let n = dst.len();
        let mut i = 0;
        // SAFETY: bounds as above.
        unsafe {
            let sv = _mm256_set1_ps(step);
            while i + 8 <= n {
                let s = _mm256_loadu_ps(src.as_ptr().add(i));
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(s, sv));
                i += 8;
            }
        }
        for k in i..n {
            dst[k] = src[k] + step;
        }
    }

    /// `prefetch` asks for LUT-entry prefetches (tile larger than L1).
    /// Lanes run in groups of 8; the `y.len() mod 8` left over take one
    /// masked pass of the same group body.
    ///
    /// # Safety
    /// AVX2 must be available; `y.len() ≤ nb`, the bank spans every
    /// `(chunk, key)` entry for keys `< table`, and `keys` is the slab of a
    /// `KeyTile` whose `2^µ == table` (checked by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn lut_query_fused<K: KeyElem>(
        y: &mut [f32],
        scale: f32,
        bank: &[f32],
        table: usize,
        nb: usize,
        keys: &[K],
        prefetch: bool,
    ) {
        let lanes = y.len();
        let full = lanes - lanes % 8;
        let mut a0 = 0;
        // SAFETY: group `a0` reads `(ci·table + key)·nb + a0 ..` of every
        // entry with `ci < keys.len()` and `key < table` — the latter is
        // the `KeyTile` range invariant (every key `< 2^µ`, established
        // when the `KeyMatrix` was built) with the dispatcher's
        // `table == 2^µ`; the dispatcher checked that extent against
        // `bank.len()`. A full group spans lanes `a0 .. a0 + 8 ≤ lanes ≤
        // nb`; the masked group is handed exactly the `lanes − a0` live
        // lanes of `y` and masks every access to them (`fused_group`).
        unsafe {
            while a0 < full {
                let (yg, base) = (&mut y[a0..a0 + 8], bank.as_ptr().add(a0));
                fused_group::<K, false>(yg, scale, base, table, nb, keys, prefetch);
                a0 += 8;
            }
            if a0 < lanes {
                let base = bank.as_ptr().add(a0);
                fused_group::<K, true>(&mut y[a0..], scale, base, table, nb, keys, prefetch);
            }
        }
    }

    /// One 8-lane group of one key row: `y[a] += scale · Σ_ci
    /// entry(ci, keys[ci])[a]` for the lanes `a < y.len()`, `base` pointing
    /// at the group's lane 0 in the bank. `MASKED = false` is the full
    /// group (`y.len() == 8`); `MASKED = true` is the remainder pass
    /// (`1 ≤ y.len() ≤ 7`) — the same accumulators, fold and two-step
    /// multiply-add with every load and the store masked to the live
    /// lanes, so per lane the order *is* the full group's. An idle lane's
    /// accumulators hold `+0.0` throughout and are discarded.
    ///
    /// # Safety
    /// AVX2 must be available; for every `ci < keys.len()`,
    /// `base + (ci·table + keys[ci])·nb .. + y.len()` is readable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fused_group<K: KeyElem, const MASKED: bool>(
        y: &mut [f32],
        scale: f32,
        base: *const f32,
        table: usize,
        nb: usize,
        keys: &[K],
        prefetch: bool,
    ) {
        debug_assert!(if MASKED { (1..8).contains(&y.len()) } else { y.len() == 8 });
        let klen = keys.len();
        // SAFETY: every entry pointer is one the caller vouched for, read
        // for `y.len()` lanes: all 8 when unmasked, else under `mask`,
        // which selects lanes `0 .. y.len()` (the caller's `nb − a0`) —
        // `vmaskmovps` neither reads, writes nor faults on a masked-out
        // lane, which may lie past the bank or belong to the next output
        // row. Prefetches only form addresses of in-bounds entries.
        unsafe {
            let mask = lane_mask(y.len());
            let load = |p: *const f32| {
                if MASKED {
                    _mm256_maskload_ps(p, mask)
                } else {
                    _mm256_loadu_ps(p)
                }
            };
            let sv = _mm256_set1_ps(scale);
            // Canonical tree: 8 accumulator vectors, chunk ci lands in
            // accumulator ci % 8, folded in the fixed pairwise order —
            // per lane this is exactly the scalar emulation's order.
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            let mut acc4 = _mm256_setzero_ps();
            let mut acc5 = _mm256_setzero_ps();
            let mut acc6 = _mm256_setzero_ps();
            let mut acc7 = _mm256_setzero_ps();
            let ent = |ci: usize| base.add((ci * table + keys.get_unchecked(ci).idx()) * nb);
            let mut ci = 0;
            while ci + 8 <= klen {
                if prefetch && ci + super::PREFETCH_CHUNKS + 8 <= klen {
                    for j in 0..8 {
                        let c = ci + super::PREFETCH_CHUNKS + j;
                        _mm_prefetch::<_MM_HINT_T0>(ent(c) as *const i8);
                    }
                }
                acc0 = _mm256_add_ps(acc0, load(ent(ci)));
                acc1 = _mm256_add_ps(acc1, load(ent(ci + 1)));
                acc2 = _mm256_add_ps(acc2, load(ent(ci + 2)));
                acc3 = _mm256_add_ps(acc3, load(ent(ci + 3)));
                acc4 = _mm256_add_ps(acc4, load(ent(ci + 4)));
                acc5 = _mm256_add_ps(acc5, load(ent(ci + 5)));
                acc6 = _mm256_add_ps(acc6, load(ent(ci + 6)));
                acc7 = _mm256_add_ps(acc7, load(ent(ci + 7)));
                ci += 8;
            }
            while ci < klen {
                let v = load(ent(ci));
                match ci % 8 {
                    0 => acc0 = _mm256_add_ps(acc0, v),
                    1 => acc1 = _mm256_add_ps(acc1, v),
                    2 => acc2 = _mm256_add_ps(acc2, v),
                    3 => acc3 = _mm256_add_ps(acc3, v),
                    4 => acc4 = _mm256_add_ps(acc4, v),
                    5 => acc5 = _mm256_add_ps(acc5, v),
                    6 => acc6 = _mm256_add_ps(acc6, v),
                    _ => acc7 = _mm256_add_ps(acc7, v),
                }
                ci += 1;
            }
            acc0 = _mm256_add_ps(acc0, acc4);
            acc1 = _mm256_add_ps(acc1, acc5);
            acc2 = _mm256_add_ps(acc2, acc6);
            acc3 = _mm256_add_ps(acc3, acc7);
            acc0 = _mm256_add_ps(acc0, acc2);
            acc1 = _mm256_add_ps(acc1, acc3);
            acc0 = _mm256_add_ps(acc0, acc1);
            let sum = _mm256_add_ps(load(y.as_ptr()), _mm256_mul_ps(sv, acc0));
            if MASKED {
                _mm256_maskstore_ps(y.as_mut_ptr(), mask, sum);
            } else {
                _mm256_storeu_ps(y.as_mut_ptr(), sum);
            }
        }
    }

    /// Width-1 canonical gather: one `vgatherdps` per 8 chunks pulls
    /// `bank[c·table + keys[c]]` into lanes, so lane `j` accumulates
    /// residue class `j` — the register layout *is* the canonical tree.
    /// The ragged chunk tail spills the partials and finishes scalar (a
    /// masked gather would add `+0.0` to idle lanes, which is not
    /// bit-transparent when a partial is `-0.0`).
    ///
    /// # Safety
    /// AVX2 must be available; the bank spans every `(chunk, key)` entry
    /// for keys `< table`, `bank.len() ≤ i32::MAX`, and `keys` is one row
    /// of a `KeyTile` whose `2^µ == table` (checked by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn lut_gather<K: KeyElem>(
        bank: &[f32],
        table: usize,
        keys: &[K],
        prefetch: bool,
    ) -> f32 {
        let klen = keys.len();
        let mut p = [0.0f32; super::ACC_TREE_WIDTH];
        let mut ci = 0;
        // SAFETY: every gathered/prefetched index is `c·table + keys[c]`
        // with `c < klen` and `keys[c] < table` — the `KeyTile` range
        // invariant (every key `< 2^µ`) with the dispatcher's
        // `table == 2^µ` — so it is in bounds per the dispatcher's
        // bank-length check and representable in i32 lanes per its range
        // check; the 8-key load reads `keys[ci..ci+8]` under the loop
        // bound.
        unsafe {
            if ci + 8 <= klen {
                let base = bank.as_ptr();
                // Entry offset = ci·table + lane·table + key: broadcast,
                // lane-index multiple, and zero-extended keys.
                let lane_t = _mm256_mullo_epi32(
                    _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                    _mm256_set1_epi32(table as i32),
                );
                let mut acc = _mm256_setzero_ps();
                while ci + 8 <= klen {
                    if prefetch && ci + super::PREFETCH_CHUNKS + 8 <= klen {
                        for j in 0..8 {
                            let c = ci + super::PREFETCH_CHUNKS + j;
                            let off = c * table + keys.get_unchecked(c).idx();
                            _mm_prefetch::<_MM_HINT_T0>(base.add(off) as *const i8);
                        }
                    }
                    let kv = K::load8(keys.as_ptr().add(ci));
                    let idx = _mm256_add_epi32(
                        _mm256_add_epi32(_mm256_set1_epi32((ci * table) as i32), lane_t),
                        kv,
                    );
                    acc = _mm256_add_ps(acc, _mm256_i32gather_ps::<4>(base, idx));
                    ci += 8;
                }
                _mm256_storeu_ps(p.as_mut_ptr(), acc);
            }
        }
        for c in ci..klen {
            p[c % super::ACC_TREE_WIDTH] += bank[c * table + keys[c].idx()];
        }
        super::tree_reduce8(p)
    }

    /// Row-batched width-1 gather: each row runs [`lut_gather`]'s
    /// canonical 8-lane loop verbatim, and full row *pairs* run their two
    /// (independent) gather chains interleaved in one loop so they hide
    /// each other's latency — the gather unit, not the adds, bounds the
    /// b = 1 query. Entry prefetch keeps the single-row body's lookahead,
    /// issued for both rows of the pair.
    ///
    /// # Safety
    /// AVX2 must be available; output geometry and `bank.len() ≤ i32::MAX`
    /// as asserted by the dispatcher, and `keys`/`key_stride`/`nc`/
    /// `scales.len()` are the slab, stride, width and row count of a
    /// `KeyTile` whose `2^µ == table`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn lut_gather_rows<K: KeyElem>(
        y: &mut [f32],
        y_stride: usize,
        scales: &[f32],
        bank: &[f32],
        table: usize,
        keys: &[K],
        key_stride: usize,
        nc: usize,
        prefetch: bool,
    ) {
        let nr = scales.len();
        let base = bank.as_ptr();
        let mut i = 0;
        // SAFETY: row `i < nr` of the slab is `keys[i·key_stride ..][.. nc]`
        // by the `KeyTile` geometry, so every key read (8-key loads under
        // the `ci + 8 <= nc` bound, scalar reads at `c < nc`) is in the
        // slab; every gathered or prefetched offset is `c·table + key`
        // with `c < nc` and `key < table` — the `KeyTile` range invariant
        // (every key `< 2^µ`) with the dispatcher's `table == 2^µ` — so it
        // is in bounds per the dispatcher's bank-length check and
        // representable in i32 lanes per its range check; `y`/`scales`
        // indices follow the dispatcher's output-geometry asserts.
        unsafe {
            if nc >= 8 {
                let lane_t = _mm256_mullo_epi32(
                    _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                    _mm256_set1_epi32(table as i32),
                );
                while i + 2 <= nr {
                    let ka = keys.as_ptr().add(i * key_stride);
                    let kb = keys.as_ptr().add((i + 1) * key_stride);
                    let mut acc_a = _mm256_setzero_ps();
                    let mut acc_b = _mm256_setzero_ps();
                    let mut ci = 0;
                    while ci + 8 <= nc {
                        if prefetch && ci + super::PREFETCH_CHUNKS + 8 <= nc {
                            for j in 0..8 {
                                let c = ci + super::PREFETCH_CHUNKS + j;
                                let off_a = c * table + (*ka.add(c)).idx();
                                let off_b = c * table + (*kb.add(c)).idx();
                                _mm_prefetch::<_MM_HINT_T0>(base.add(off_a) as *const i8);
                                _mm_prefetch::<_MM_HINT_T0>(base.add(off_b) as *const i8);
                            }
                        }
                        let ct = _mm256_add_epi32(_mm256_set1_epi32((ci * table) as i32), lane_t);
                        let kva = K::load8(ka.add(ci));
                        let kvb = K::load8(kb.add(ci));
                        let ga = _mm256_i32gather_ps::<4>(base, _mm256_add_epi32(ct, kva));
                        let gb = _mm256_i32gather_ps::<4>(base, _mm256_add_epi32(ct, kvb));
                        acc_a = _mm256_add_ps(acc_a, ga);
                        acc_b = _mm256_add_ps(acc_b, gb);
                        ci += 8;
                    }
                    let mut pa = [0.0f32; super::ACC_TREE_WIDTH];
                    let mut pb = [0.0f32; super::ACC_TREE_WIDTH];
                    _mm256_storeu_ps(pa.as_mut_ptr(), acc_a);
                    _mm256_storeu_ps(pb.as_mut_ptr(), acc_b);
                    for c in ci..nc {
                        pa[c % super::ACC_TREE_WIDTH] += *base.add(c * table + (*ka.add(c)).idx());
                        pb[c % super::ACC_TREE_WIDTH] += *base.add(c * table + (*kb.add(c)).idx());
                    }
                    *y.get_unchecked_mut(i * y_stride) +=
                        *scales.get_unchecked(i) * super::tree_reduce8(pa);
                    *y.get_unchecked_mut((i + 1) * y_stride) +=
                        *scales.get_unchecked(i + 1) * super::tree_reduce8(pb);
                    i += 2;
                }
            }
            // Odd last row, or nc < 8 (no full vector group): the
            // single-row body already realises those cases canonically.
            while i < nr {
                let row = std::slice::from_raw_parts(keys.as_ptr().add(i * key_stride), nc);
                *y.get_unchecked_mut(i * y_stride) +=
                    *scales.get_unchecked(i) * lut_gather(bank, table, row, prefetch);
                i += 1;
            }
        }
    }
}

// ---------------------------------------------------------- AVX-512 bodies

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::KeyElem;
    use std::arch::x86_64::*;

    // Every body also enables AVX2: the Avx512 level requires the Avx2
    // tier (see `KernelLevel::is_supported`), so the flat elementwise
    // primitives finish 8-wide inline before their scalar tails. The
    // row-shaped bodies (`nb`-float rows: the fused query and the two build
    // steps) instead take a row's `nb mod 16` lanes in one `__mmask16` pass.

    /// The mask selecting lanes `0..n` of a 16-lane group, `n ≤ 16`.
    #[inline]
    fn lane_mask(n: usize) -> __mmask16 {
        debug_assert!(n <= 16);
        ((1u32 << n) - 1) as __mmask16
    }

    /// # Safety
    /// AVX-512F + AVX2 must be available; slice lengths as checked by the
    /// dispatcher.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn add_assign(acc: &mut [f32], src: &[f32]) {
        let n = acc.len();
        let mut i = 0;
        // SAFETY: loads/stores stay within the equal-length slices.
        unsafe {
            while i + 16 <= n {
                let a = _mm512_loadu_ps(acc.as_ptr().add(i));
                let s = _mm512_loadu_ps(src.as_ptr().add(i));
                _mm512_storeu_ps(acc.as_mut_ptr().add(i), _mm512_add_ps(a, s));
                i += 16;
            }
            while i + 8 <= n {
                let a = _mm256_loadu_ps(acc.as_ptr().add(i));
                let s = _mm256_loadu_ps(src.as_ptr().add(i));
                _mm256_storeu_ps(acc.as_mut_ptr().add(i), _mm256_add_ps(a, s));
                i += 8;
            }
        }
        for k in i..n {
            acc[k] += src[k];
        }
    }

    /// # Safety
    /// AVX-512F + AVX2 must be available; slice lengths as checked by the
    /// dispatcher.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
        let n = y.len();
        let mut i = 0;
        // SAFETY: as above; separate multiply/add rounding (no FMA).
        unsafe {
            let av = _mm512_set1_ps(a);
            while i + 16 <= n {
                let yv = _mm512_loadu_ps(y.as_ptr().add(i));
                let xv = _mm512_loadu_ps(x.as_ptr().add(i));
                let prod = _mm512_mul_ps(av, xv);
                _mm512_storeu_ps(y.as_mut_ptr().add(i), _mm512_add_ps(yv, prod));
                i += 16;
            }
            let av = _mm256_set1_ps(a);
            while i + 8 <= n {
                let yv = _mm256_loadu_ps(y.as_ptr().add(i));
                let xv = _mm256_loadu_ps(x.as_ptr().add(i));
                let prod = _mm256_mul_ps(av, xv);
                _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_add_ps(yv, prod));
                i += 8;
            }
        }
        for k in i..n {
            y[k] += a * x[k];
        }
    }

    /// # Safety
    /// AVX-512F + AVX2 must be available; lengths as checked by the
    /// dispatcher.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn dp_step_add_rows(dst: &mut [f32], src: &[f32], step: &[f32]) {
        let nb = step.len();
        let rows = dst.len() / nb;
        // Full 16-lane groups of a row, then its `nb mod 16` lanes in one
        // masked pass.
        let full = nb - nb % 16;
        debug_assert!(dst.len() == rows * nb && src.len() == rows * nb);
        // SAFETY: every access stays inside the equal-length blocks and
        // the `nb`-float step row: full groups end at `full ≤ nb`, and the
        // masked pass selects lanes `0 .. nb − full` from lane `full` of
        // the row — an AVX-512 masked load/store neither accesses nor
        // faults on a masked-out lane (the next row's first floats, or the
        // bytes past the block after the last).
        unsafe {
            let mask = lane_mask(nb - full);
            let st_tail = _mm512_maskz_loadu_ps(mask, step.as_ptr().add(full));
            for r in 0..rows {
                let base = r * nb;
                let mut a0 = 0;
                while a0 < full {
                    let sv = _mm512_loadu_ps(src.as_ptr().add(base + a0));
                    let st = _mm512_loadu_ps(step.as_ptr().add(a0));
                    _mm512_storeu_ps(dst.as_mut_ptr().add(base + a0), _mm512_add_ps(sv, st));
                    a0 += 16;
                }
                if full < nb {
                    let sv = _mm512_maskz_loadu_ps(mask, src.as_ptr().add(base + full));
                    let sum = _mm512_add_ps(sv, st_tail);
                    _mm512_mask_storeu_ps(dst.as_mut_ptr().add(base + full), mask, sum);
                }
            }
        }
    }

    /// # Safety
    /// AVX-512F/DQ + AVX2 must be available; lengths as checked by the
    /// dispatcher.
    #[target_feature(enable = "avx512f", enable = "avx512dq", enable = "avx2")]
    pub unsafe fn negate_rows_reversed(dst: &mut [f32], src: &[f32], nb: usize) {
        let rows = dst.len() / nb;
        let full = nb - nb % 16;
        debug_assert!(dst.len() == rows * nb && src.len() == rows * nb);
        // SAFETY: row index arithmetic stays inside the equal-length
        // blocks (`_mm512_xor_ps` is AVX-512DQ); the `nb mod 16` lanes of a
        // row take one masked pass — lanes `0 .. nb − full` from lane
        // `full`, and a masked load/store neither accesses nor faults on
        // the masked-out ones (floats of the neighbouring row, or bytes
        // outside the blocks).
        unsafe {
            let sign = _mm512_set1_ps(-0.0);
            if nb == 1 {
                // Width-1 mirror, reversed inside the vector (see the AVX2
                // body) — permute + sign XOR, bit-exact against scalar.
                let n = rows;
                let rev = _mm512_setr_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
                let mut i = 0;
                while i + 16 <= n {
                    let sv = _mm512_loadu_ps(src.as_ptr().add(n - 16 - i));
                    let r = _mm512_permutexvar_ps(rev, sv);
                    _mm512_storeu_ps(dst.as_mut_ptr().add(i), _mm512_xor_ps(r, sign));
                    i += 16;
                }
                for j in i..n {
                    dst[j] = -src[n - 1 - j];
                }
                return;
            }
            let mask = lane_mask(nb - full);
            for r in 0..rows {
                let dbase = r * nb;
                let sbase = (rows - 1 - r) * nb;
                let mut a0 = 0;
                while a0 < full {
                    let sv = _mm512_loadu_ps(src.as_ptr().add(sbase + a0));
                    _mm512_storeu_ps(dst.as_mut_ptr().add(dbase + a0), _mm512_xor_ps(sv, sign));
                    a0 += 16;
                }
                if full < nb {
                    let sv = _mm512_maskz_loadu_ps(mask, src.as_ptr().add(sbase + full));
                    let neg = _mm512_xor_ps(sv, sign);
                    _mm512_mask_storeu_ps(dst.as_mut_ptr().add(dbase + full), mask, neg);
                }
            }
        }
    }

    /// # Safety
    /// AVX-512F + AVX2 must be available; slice lengths as checked by the
    /// dispatcher.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn broadcast_add(dst: &mut [f32], src: &[f32], step: f32) {
        let n = dst.len();
        let mut i = 0;
        // SAFETY: bounds as above.
        unsafe {
            let sv512 = _mm512_set1_ps(step);
            while i + 16 <= n {
                let s = _mm512_loadu_ps(src.as_ptr().add(i));
                _mm512_storeu_ps(dst.as_mut_ptr().add(i), _mm512_add_ps(s, sv512));
                i += 16;
            }
            let sv256 = _mm256_set1_ps(step);
            while i + 8 <= n {
                let s = _mm256_loadu_ps(src.as_ptr().add(i));
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(s, sv256));
                i += 8;
            }
        }
        for k in i..n {
            dst[k] = src[k] + step;
        }
    }

    /// Lanes run in groups of 16; the `y.len() mod 16` left over take one
    /// masked pass of the same group body.
    ///
    /// # Safety
    /// AVX-512F + AVX2 must be available; bounds and the `KeyTile`
    /// provenance of `keys` as documented on the AVX2 body.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn lut_query_fused<K: KeyElem>(
        y: &mut [f32],
        scale: f32,
        bank: &[f32],
        table: usize,
        nb: usize,
        keys: &[K],
        prefetch: bool,
    ) {
        let lanes = y.len();
        let full = lanes - lanes % 16;
        let mut a0 = 0;
        // SAFETY: entries bounded exactly as in the AVX2 body — `key <
        // table` is the `KeyTile` range invariant (every key `< 2^µ`) with
        // the dispatcher's `table == 2^µ`, and the dispatcher checked that
        // extent against `bank.len()`. A full group spans lanes `a0 .. a0 +
        // 16 ≤ lanes ≤ nb`; the masked group is handed exactly the
        // `lanes − a0` live lanes of `y` and masks every access to them
        // (`fused_group`).
        unsafe {
            while a0 < full {
                let (yg, base) = (&mut y[a0..a0 + 16], bank.as_ptr().add(a0));
                fused_group::<K, false>(yg, scale, base, table, nb, keys, prefetch);
                a0 += 16;
            }
            if a0 < lanes {
                let base = bank.as_ptr().add(a0);
                fused_group::<K, true>(&mut y[a0..], scale, base, table, nb, keys, prefetch);
            }
        }
    }

    /// One 16-lane group of one key row — the zmm twin of the AVX2
    /// `fused_group`: `MASKED = false` is the full group (`y.len() == 16`),
    /// `MASKED = true` the remainder pass (`1 ≤ y.len() ≤ 15`) with every
    /// load and the store under one `__mmask16`. Same 8 canonical
    /// accumulators, fixed fold and two-step multiply-add either way, so
    /// every live lane matches scalar; an idle lane's accumulators hold
    /// `+0.0` throughout and are discarded.
    ///
    /// # Safety
    /// AVX-512F must be available; for every `ci < keys.len()`,
    /// `base + (ci·table + keys[ci])·nb .. + y.len()` is readable.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn fused_group<K: KeyElem, const MASKED: bool>(
        y: &mut [f32],
        scale: f32,
        base: *const f32,
        table: usize,
        nb: usize,
        keys: &[K],
        prefetch: bool,
    ) {
        debug_assert!(if MASKED { (1..16).contains(&y.len()) } else { y.len() == 16 });
        let klen = keys.len();
        // SAFETY: every entry pointer is one the caller vouched for, read
        // for `y.len()` lanes: all 16 when unmasked, else under `mask`,
        // which selects lanes `0 .. y.len()` (the caller's `nb − a0`) — an
        // AVX-512 masked load/store neither accesses nor faults on a
        // masked-out lane, which may lie past the bank or belong to the
        // next output row. Prefetches only form addresses of in-bounds
        // entries.
        unsafe {
            let mask = lane_mask(y.len());
            let load = |p: *const f32| {
                if MASKED {
                    _mm512_maskz_loadu_ps(mask, p)
                } else {
                    _mm512_loadu_ps(p)
                }
            };
            let sv = _mm512_set1_ps(scale);
            let mut acc0 = _mm512_setzero_ps();
            let mut acc1 = _mm512_setzero_ps();
            let mut acc2 = _mm512_setzero_ps();
            let mut acc3 = _mm512_setzero_ps();
            let mut acc4 = _mm512_setzero_ps();
            let mut acc5 = _mm512_setzero_ps();
            let mut acc6 = _mm512_setzero_ps();
            let mut acc7 = _mm512_setzero_ps();
            let ent = |ci: usize| base.add((ci * table + keys.get_unchecked(ci).idx()) * nb);
            let mut ci = 0;
            while ci + 8 <= klen {
                if prefetch && ci + super::PREFETCH_CHUNKS + 8 <= klen {
                    for j in 0..8 {
                        let c = ci + super::PREFETCH_CHUNKS + j;
                        _mm_prefetch::<_MM_HINT_T0>(ent(c) as *const i8);
                    }
                }
                acc0 = _mm512_add_ps(acc0, load(ent(ci)));
                acc1 = _mm512_add_ps(acc1, load(ent(ci + 1)));
                acc2 = _mm512_add_ps(acc2, load(ent(ci + 2)));
                acc3 = _mm512_add_ps(acc3, load(ent(ci + 3)));
                acc4 = _mm512_add_ps(acc4, load(ent(ci + 4)));
                acc5 = _mm512_add_ps(acc5, load(ent(ci + 5)));
                acc6 = _mm512_add_ps(acc6, load(ent(ci + 6)));
                acc7 = _mm512_add_ps(acc7, load(ent(ci + 7)));
                ci += 8;
            }
            while ci < klen {
                let v = load(ent(ci));
                match ci % 8 {
                    0 => acc0 = _mm512_add_ps(acc0, v),
                    1 => acc1 = _mm512_add_ps(acc1, v),
                    2 => acc2 = _mm512_add_ps(acc2, v),
                    3 => acc3 = _mm512_add_ps(acc3, v),
                    4 => acc4 = _mm512_add_ps(acc4, v),
                    5 => acc5 = _mm512_add_ps(acc5, v),
                    6 => acc6 = _mm512_add_ps(acc6, v),
                    _ => acc7 = _mm512_add_ps(acc7, v),
                }
                ci += 1;
            }
            acc0 = _mm512_add_ps(acc0, acc4);
            acc1 = _mm512_add_ps(acc1, acc5);
            acc2 = _mm512_add_ps(acc2, acc6);
            acc3 = _mm512_add_ps(acc3, acc7);
            acc0 = _mm512_add_ps(acc0, acc2);
            acc1 = _mm512_add_ps(acc1, acc3);
            acc0 = _mm512_add_ps(acc0, acc1);
            let sum = _mm512_add_ps(load(y.as_ptr()), _mm512_mul_ps(sv, acc0));
            if MASKED {
                _mm512_mask_storeu_ps(y.as_mut_ptr(), mask, sum);
            } else {
                _mm512_storeu_ps(y.as_mut_ptr(), sum);
            }
        }
    }

    /// The row-blocked wide query: every row of the tile, 32 batch lanes
    /// per pass while at least 32 remain, then the per-row body
    /// ([`lut_query_fused`]: 16-lane groups, then one masked pass) on the
    /// lanes left over. While row `i` accumulates, the entries row `i + 1`
    /// will read are prefetched (when `prefetch`: the tile exceeds L1) —
    /// the keys are known a tile ahead.
    ///
    /// # Safety
    /// AVX-512F + AVX2 must be available; output geometry (`y_stride ≥ nb`,
    /// `y.len() ≥ (rows − 1)·y_stride + nb`) and `bank.len() ≥
    /// nc·table·nb` as asserted by the dispatcher, and `keys`/`key_stride`/
    /// `nc`/`scales.len()` are the slab, stride, width and row count of a
    /// `KeyTile` whose `2^µ == table`.
    #[target_feature(enable = "avx512f", enable = "avx2")]
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
        prefetch: bool,
    ) {
        // Entries of `nb ≡ 0 (mod 16)` floats are whole cache lines exactly
        // when the bank base is line-aligned — which the bank's buffer type
        // guarantees; a split-line bank halves this body's throughput.
        debug_assert!(
            nb < 32 || !nb.is_multiple_of(16) || (bank.as_ptr() as usize).is_multiple_of(64),
            "wide fused query on a bank that is not cache-line aligned"
        );
        for (i, &scale) in scales.iter().enumerate() {
            let row = &keys[i * key_stride..][..nc];
            let next: &[K] = if prefetch && i + 1 < scales.len() {
                &keys[(i + 1) * key_stride..][..nc]
            } else {
                &[]
            };
            let yrow = &mut y[i * y_stride..][..nb];
            let mut a0 = 0;
            while a0 + 32 <= nb {
                // SAFETY: `a0 + 32 <= nb` keeps the 32 lanes inside `yrow`
                // and inside every `nb`-float entry; `row`/`next` are rows
                // of a `KeyTile` (every key `< 2^µ == table`), so entry
                // `(ci, key)` lies within the `nc·table·nb` floats the
                // dispatcher asserted the bank holds.
                unsafe {
                    query32(
                        yrow.as_mut_ptr().add(a0),
                        scale,
                        bank.as_ptr().add(a0),
                        table,
                        nb,
                        row,
                        next,
                    );
                }
                a0 += 32;
            }
            if a0 < nb {
                // SAFETY: same feature set; the per-row body gets the live
                // lanes `a0 .. nb` and the bank pre-offset by the same `a0`.
                unsafe {
                    lut_query_fused(&mut yrow[a0..], scale, &bank[a0..], table, nb, row, prefetch);
                }
            }
        }
    }

    /// One key row × 32 batch lanes: `y[0..32] += scale · Σ_ci
    /// entry(ci, keys[ci])[0..32]` with `base` pointing at lane 0 of the
    /// group in the bank. Two zmm per canonical accumulator (16 of the 32
    /// vector registers), so both lines of a 128-byte entry are consumed
    /// together and each key is decoded once for all 32 lanes; per lane the
    /// order is the canonical tree, as in the 16-lane loop. `next`, when
    /// non-empty, is the following key row: its entries are prefetched
    /// chunk group by chunk group.
    ///
    /// # Safety
    /// AVX-512F must be available; `y .. y + 32` writable; for every
    /// `ci < keys.len()` and key `k` in `keys`/`next`,
    /// `base + (ci·table + k)·nb .. + 32` readable; `next` is empty or as
    /// long as `keys`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn query32<K: KeyElem>(
        y: *mut f32,
        scale: f32,
        base: *const f32,
        table: usize,
        nb: usize,
        keys: &[K],
        next: &[K],
    ) {
        let klen = keys.len();
        debug_assert!(next.is_empty() || next.len() == klen);
        // SAFETY: every pointer formed is `base + (ci·table + key)·nb`
        // (+16) with `ci < klen` and `key` read from `keys`/`next` at
        // `ci` — readable for 32 floats per the caller's contract (the
        // `KeyTile` range invariant plus the dispatcher's bank-length
        // assert). Prefetches only form such in-bounds addresses.
        unsafe {
            let ent =
                |row: &[K], ci: usize| base.add((ci * table + row.get_unchecked(ci).idx()) * nb);
            let mut lo = [_mm512_setzero_ps(); 8];
            let mut hi = [_mm512_setzero_ps(); 8];
            let mut ci = 0;
            while ci + 8 <= klen {
                if !next.is_empty() {
                    for j in 0..8 {
                        let p = ent(next, ci + j);
                        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
                        _mm_prefetch::<_MM_HINT_T0>(p.add(16) as *const i8);
                    }
                }
                for j in 0..8 {
                    let p = ent(keys, ci + j);
                    lo[j] = _mm512_add_ps(lo[j], _mm512_loadu_ps(p));
                    hi[j] = _mm512_add_ps(hi[j], _mm512_loadu_ps(p.add(16)));
                }
                ci += 8;
            }
            // Ragged chunk tail: chunk `ci + j` lands in accumulator
            // `(ci + j) % 8 == j` (`ci` is a multiple of 8 here).
            for j in 0..8 {
                if ci + j < klen {
                    if !next.is_empty() {
                        let p = ent(next, ci + j);
                        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
                        _mm_prefetch::<_MM_HINT_T0>(p.add(16) as *const i8);
                    }
                    let p = ent(keys, ci + j);
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
            let y_lo = _mm512_add_ps(_mm512_loadu_ps(y), _mm512_mul_ps(sv, lo[0]));
            let y_hi = _mm512_add_ps(_mm512_loadu_ps(y.add(16)), _mm512_mul_ps(sv, hi[0]));
            _mm512_storeu_ps(y, y_lo);
            _mm512_storeu_ps(y.add(16), y_hi);
        }
    }
}

// ------------------------------------------------------------ NEON bodies

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::KeyElem;
    use std::arch::aarch64::*;

    /// # Safety
    /// NEON is baseline on aarch64; slice lengths as checked by the
    /// dispatcher.
    #[target_feature(enable = "neon")]
    pub unsafe fn add_assign(acc: &mut [f32], src: &[f32]) {
        let n = acc.len();
        let mut i = 0;
        // SAFETY: loads/stores stay within the equal-length slices.
        unsafe {
            while i + 4 <= n {
                let a = vld1q_f32(acc.as_ptr().add(i));
                let s = vld1q_f32(src.as_ptr().add(i));
                vst1q_f32(acc.as_mut_ptr().add(i), vaddq_f32(a, s));
                i += 4;
            }
        }
        for k in i..n {
            acc[k] += src[k];
        }
    }

    /// # Safety
    /// NEON is baseline on aarch64; slice lengths as checked by the
    /// dispatcher.
    #[target_feature(enable = "neon")]
    pub unsafe fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
        let n = y.len();
        let mut i = 0;
        // SAFETY: as above; separate multiply/add rounding (no FMA).
        unsafe {
            let av = vdupq_n_f32(a);
            while i + 4 <= n {
                let yv = vld1q_f32(y.as_ptr().add(i));
                let xv = vld1q_f32(x.as_ptr().add(i));
                let prod = vmulq_f32(av, xv);
                vst1q_f32(y.as_mut_ptr().add(i), vaddq_f32(yv, prod));
                i += 4;
            }
        }
        for k in i..n {
            y[k] += a * x[k];
        }
    }

    /// # Safety
    /// NEON is baseline on aarch64; lengths as checked by the dispatcher.
    #[target_feature(enable = "neon")]
    pub unsafe fn dp_step_add_rows(dst: &mut [f32], src: &[f32], step: &[f32]) {
        let nb = step.len();
        let rows = dst.len() / nb;
        // SAFETY: every access stays inside the equal-length blocks and
        // the `nb`-float step row.
        unsafe {
            for r in 0..rows {
                let base = r * nb;
                let mut a0 = 0;
                while a0 + 4 <= nb {
                    let sv = vld1q_f32(src.as_ptr().add(base + a0));
                    let st = vld1q_f32(step.as_ptr().add(a0));
                    vst1q_f32(dst.as_mut_ptr().add(base + a0), vaddq_f32(sv, st));
                    a0 += 4;
                }
                for a in a0..nb {
                    dst[base + a] = src[base + a] + step[a];
                }
            }
        }
    }

    /// # Safety
    /// NEON is baseline on aarch64; lengths as checked by the dispatcher.
    #[target_feature(enable = "neon")]
    pub unsafe fn negate_rows_reversed(dst: &mut [f32], src: &[f32], nb: usize) {
        let rows = dst.len() / nb;
        // SAFETY: row index arithmetic stays inside the equal-length
        // blocks.
        unsafe {
            if nb == 1 {
                // Width-1 mirror, reversed inside the vector (see the AVX2
                // body): vrev64 swaps within each half, vext swaps halves.
                let n = rows;
                let mut i = 0;
                while i + 4 <= n {
                    let sv = vld1q_f32(src.as_ptr().add(n - 4 - i));
                    let half_rev = vrev64q_f32(sv);
                    let r = vextq_f32::<2>(half_rev, half_rev);
                    vst1q_f32(dst.as_mut_ptr().add(i), vnegq_f32(r));
                    i += 4;
                }
                for j in i..n {
                    dst[j] = -src[n - 1 - j];
                }
                return;
            }
            for r in 0..rows {
                let dbase = r * nb;
                let sbase = (rows - 1 - r) * nb;
                let mut a0 = 0;
                while a0 + 4 <= nb {
                    let sv = vld1q_f32(src.as_ptr().add(sbase + a0));
                    vst1q_f32(dst.as_mut_ptr().add(dbase + a0), vnegq_f32(sv));
                    a0 += 4;
                }
                for a in a0..nb {
                    dst[dbase + a] = -src[sbase + a];
                }
            }
        }
    }

    /// # Safety
    /// NEON is baseline on aarch64; slice lengths as checked by the
    /// dispatcher.
    #[target_feature(enable = "neon")]
    pub unsafe fn broadcast_add(dst: &mut [f32], src: &[f32], step: f32) {
        let n = dst.len();
        let mut i = 0;
        // SAFETY: bounds as above.
        unsafe {
            let sv = vdupq_n_f32(step);
            while i + 4 <= n {
                let s = vld1q_f32(src.as_ptr().add(i));
                vst1q_f32(dst.as_mut_ptr().add(i), vaddq_f32(s, sv));
                i += 4;
            }
        }
        for k in i..n {
            dst[k] = src[k] + step;
        }
    }

    /// # Safety
    /// NEON is baseline on aarch64; bounds as documented on the AVX2 body.
    /// 4-lane groups with 8 accumulator vectors realise the canonical
    /// tree per lane.
    #[target_feature(enable = "neon")]
    pub unsafe fn lut_query_fused<K: KeyElem>(
        y: &mut [f32],
        scale: f32,
        bank: &[f32],
        table: usize,
        nb: usize,
        keys: &[K],
    ) {
        let lanes = y.len();
        let klen = keys.len();
        let mut a0 = 0;
        // SAFETY: loads bounded exactly as in the AVX2 body, 4 lanes —
        // `key < table` is the `KeyTile` range invariant (every key
        // `< 2^µ`) with the dispatcher's `table == 2^µ`.
        unsafe {
            let sv = vdupq_n_f32(scale);
            while a0 + 4 <= lanes {
                let mut acc0 = vdupq_n_f32(0.0);
                let mut acc1 = vdupq_n_f32(0.0);
                let mut acc2 = vdupq_n_f32(0.0);
                let mut acc3 = vdupq_n_f32(0.0);
                let mut acc4 = vdupq_n_f32(0.0);
                let mut acc5 = vdupq_n_f32(0.0);
                let mut acc6 = vdupq_n_f32(0.0);
                let mut acc7 = vdupq_n_f32(0.0);
                let base = bank.as_ptr();
                let ent =
                    |ci: usize| base.add((ci * table + keys.get_unchecked(ci).idx()) * nb + a0);
                let mut ci = 0;
                while ci + 8 <= klen {
                    acc0 = vaddq_f32(acc0, vld1q_f32(ent(ci)));
                    acc1 = vaddq_f32(acc1, vld1q_f32(ent(ci + 1)));
                    acc2 = vaddq_f32(acc2, vld1q_f32(ent(ci + 2)));
                    acc3 = vaddq_f32(acc3, vld1q_f32(ent(ci + 3)));
                    acc4 = vaddq_f32(acc4, vld1q_f32(ent(ci + 4)));
                    acc5 = vaddq_f32(acc5, vld1q_f32(ent(ci + 5)));
                    acc6 = vaddq_f32(acc6, vld1q_f32(ent(ci + 6)));
                    acc7 = vaddq_f32(acc7, vld1q_f32(ent(ci + 7)));
                    ci += 8;
                }
                while ci < klen {
                    let v = vld1q_f32(ent(ci));
                    match ci % 8 {
                        0 => acc0 = vaddq_f32(acc0, v),
                        1 => acc1 = vaddq_f32(acc1, v),
                        2 => acc2 = vaddq_f32(acc2, v),
                        3 => acc3 = vaddq_f32(acc3, v),
                        4 => acc4 = vaddq_f32(acc4, v),
                        5 => acc5 = vaddq_f32(acc5, v),
                        6 => acc6 = vaddq_f32(acc6, v),
                        _ => acc7 = vaddq_f32(acc7, v),
                    }
                    ci += 1;
                }
                acc0 = vaddq_f32(acc0, acc4);
                acc1 = vaddq_f32(acc1, acc5);
                acc2 = vaddq_f32(acc2, acc6);
                acc3 = vaddq_f32(acc3, acc7);
                acc0 = vaddq_f32(acc0, acc2);
                acc1 = vaddq_f32(acc1, acc3);
                acc0 = vaddq_f32(acc0, acc1);
                let yv = vld1q_f32(y.as_ptr().add(a0));
                let prod = vmulq_f32(sv, acc0);
                vst1q_f32(y.as_mut_ptr().add(a0), vaddq_f32(yv, prod));
                a0 += 4;
            }
        }
        if a0 < lanes {
            super::lut_query_fused_scalar(&mut y[a0..], scale, &bank[a0..], table, nb, keys);
        }
    }

    /// Width-1 canonical gather. NEON has no hardware gather, and the
    /// strided loads defeat its load-pair idioms, so this runs the scalar
    /// emulation — bit-identical by construction, and the canonical order
    /// costs aarch64 nothing it was winning before.
    ///
    /// # Safety
    /// NEON is baseline on aarch64; bounds as checked by the dispatcher.
    #[target_feature(enable = "neon")]
    pub unsafe fn lut_gather<K: KeyElem>(bank: &[f32], table: usize, keys: &[K]) -> f32 {
        super::lut_gather_scalar(bank, table, keys)
    }

    /// Row-batched width-1 gather: the scalar row loop (see
    /// [`lut_gather`] for why NEON does not vectorise this body); the
    /// batching still amortises dispatch per row tile.
    ///
    /// # Safety
    /// NEON is baseline on aarch64; geometry as checked by the dispatcher.
    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn lut_gather_rows<K: KeyElem>(
        y: &mut [f32],
        y_stride: usize,
        scales: &[f32],
        bank: &[f32],
        table: usize,
        keys: &[K],
        key_stride: usize,
        nc: usize,
    ) {
        super::lut_gather_rows_scalar(y, y_stride, scales, bank, table, keys, key_stride, nc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LineAlignedBuf;
    use biq_matrix::{MatrixRng, SignMatrix};
    use biq_quant::packing::KeyMatrix;

    fn vectors(len: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut g = MatrixRng::seed_from(seed);
        (g.gaussian_vec(len), g.gaussian_vec(len))
    }

    const LENS: [usize; 10] = [0, 1, 3, 4, 7, 8, 9, 16, 31, 100];

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

    #[test]
    fn add_assign_bit_exact_across_levels() {
        for k in supported_levels() {
            let k = KernelRequest::Exact(k).resolve().unwrap();
            for len in LENS {
                let (a0, b) = vectors(len, 100 + len as u64);
                let mut scalar = a0.clone();
                add_assign_scalar(&mut scalar, &b);
                let mut got = a0.clone();
                add_assign(&mut got, &b, k);
                assert_eq!(scalar, got, "{k} len={len}");
            }
        }
    }

    #[test]
    fn axpy_bit_exact_across_levels() {
        // No FMA anywhere ⇒ exact equality, not tolerance.
        for k in supported_levels() {
            let k = KernelRequest::Exact(k).resolve().unwrap();
            for len in LENS {
                let (y0, x) = vectors(len, 200 + len as u64);
                let mut scalar = y0.clone();
                axpy_scalar(&mut scalar, 1.37, &x);
                let mut got = y0.clone();
                axpy(&mut got, 1.37, &x, k);
                assert_eq!(scalar, got, "{k} len={len}");
            }
        }
    }

    #[test]
    fn block_primitives_bit_exact_across_levels() {
        let mut g = MatrixRng::seed_from(39);
        for k in supported_levels() {
            let k = KernelRequest::Exact(k).resolve().unwrap();
            // Row blocks: every nb straddling the 4/8/16 lane widths.
            for &(rows, nb) in
                &[(1usize, 1usize), (4, 3), (8, 8), (7, 9), (16, 16), (3, 33), (5, 20)]
            {
                let src = g.gaussian_vec(rows * nb);
                let step = g.gaussian_vec(nb);
                let mut want = vec![0.0f32; rows * nb];
                dp_step_add_rows_scalar(&mut want, &src, &step);
                let mut got = vec![0.0f32; rows * nb];
                dp_step_add_rows(&mut got, &src, &step, k);
                assert_eq!(want, got, "{k} add rows={rows} nb={nb}");

                negate_rows_reversed_scalar(&mut want, &src, nb);
                negate_rows_reversed(&mut got, &src, nb, k);
                assert_eq!(want, got, "{k} negate rows={rows} nb={nb}");
            }
            for len in LENS {
                let (a, b) = vectors(len, 300 + len as u64);
                let mut want = a.clone();
                broadcast_add_scalar(&mut want, &b, 0.625);
                let mut got = a.clone();
                broadcast_add(&mut got, &b, 0.625, k);
                assert_eq!(want, got, "{k} broadcast len={len}");
            }
        }
    }

    /// One row of `chunks` random µ-bit keys — the only way to obtain a
    /// [`KeyTile`] is through a validated `KeyMatrix`.
    fn key_row(g: &mut MatrixRng, chunks: usize, mu: usize) -> KeyMatrix {
        KeyMatrix::pack(&g.signs(1, chunks * mu), mu)
    }

    /// A random bank in the line-aligned buffer real banks live in (the
    /// wide AVX-512 body debug-asserts that alignment).
    fn random_bank(g: &mut MatrixRng, len: usize) -> LineAlignedBuf {
        let mut bank = LineAlignedBuf::default();
        bank.ensure_len(len);
        bank.as_mut_slice()[..len].copy_from_slice(&g.gaussian_vec(len));
        bank
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

    #[test]
    fn fused_query_bit_exact_across_levels_and_ragged_widths() {
        let mut g = MatrixRng::seed_from(40);
        for &(chunks, mu, nb) in &[
            (1usize, 2usize, 1usize),
            (3, 4, 5),
            (7, 4, 8),
            (5, 6, 9),
            (9, 8, 16),
            (4, 8, 33),
            (40, 8, 8),  // tile > L1: the prefetching arm
            (11, 10, 5), // u16 keys
            (13, 8, 32), // one 32-lane pass, ragged chunk tail
            (9, 6, 48),  // 32-lane pass + 16-lane remainder
            (3, 4, 64),  // two 32-lane passes, tile ≤ L1 (no prefetch)
        ] {
            let table = 1usize << mu;
            let bank = random_bank(&mut g, chunks * table * nb);
            let bank = bank.as_slice();
            let km = key_row(&mut g, chunks, mu);
            let keys = km.tile(0..1, 0, chunks);
            let y0 = g.gaussian_vec(nb);
            let mut want = y0.clone();
            fused_row(&mut want, -0.75, bank, table, nb, keys, ResolvedKernel::scalar());
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
        // The fused kernel must equal, per lane, a TreeAccumulator fed the
        // looked-up values in ascending chunk order, then a two-step
        // multiply-add — the canonical order written out longhand.
        let mut g = MatrixRng::seed_from(41);
        for chunks in [1usize, 6, 8, 9, 19] {
            let (mu, nb) = (4usize, 11usize);
            let table = 1usize << mu;
            let bank = g.gaussian_vec(chunks * table * nb);
            let km = key_row(&mut g, chunks, mu);
            let keys = km.tile(0..1, 0, chunks);
            let mut want = g.gaussian_vec(nb);
            let mut got = want.clone();
            for (a, yv) in want.iter_mut().enumerate() {
                let mut acc = TreeAccumulator::new();
                for ci in 0..chunks {
                    acc.push(bank[(ci * table + keys.key(0, ci)) * nb + a]);
                }
                *yv += 2.5 * acc.finish();
            }
            fused_row(&mut got, 2.5, &bank, table, nb, keys, ResolvedKernel::scalar());
            assert_eq!(want, got, "chunks={chunks}");
        }
    }

    #[test]
    fn gather_bit_exact_across_levels_and_matches_fused_width1() {
        // Every level's gather must agree with scalar AND with the fused
        // kernel run at nb == 1 (scale 1 onto a zero output is exact), on
        // ragged chunk counts straddling the 8-chunk group width, both key
        // widths, and both sides of the L1 prefetch threshold.
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
            (57, 8),  // tile > L1
            (19, 12), // u16 keys, tile > L1
        ] {
            let table = 1usize << mu;
            let bank = g.gaussian_vec(chunks * table);
            let km = key_row(&mut g, chunks, mu);
            let keys = km.tile(0..1, 0, chunks);
            let want = lut_gather(&bank, table, keys, ResolvedKernel::scalar());
            for level in supported_levels() {
                let k = KernelRequest::Exact(level).resolve().unwrap();
                let got = lut_gather(&bank, table, keys, k);
                assert_eq!(want.to_bits(), got.to_bits(), "{level} chunks={chunks} µ={mu}");
                let mut y = [0.0f32];
                fused_row(&mut y, 1.0, &bank, table, 1, keys, k);
                assert_eq!(want.to_bits(), y[0].to_bits(), "fused@1 {level} chunks={chunks}");
            }
        }
    }

    #[test]
    fn tree_accumulator_is_the_reference_order() {
        let mut g = MatrixRng::seed_from(43);
        let (chunks, mu) = (21usize, 4usize);
        let table = 1usize << mu;
        let bank = g.gaussian_vec(chunks * table);
        let km = key_row(&mut g, chunks, mu);
        let keys = km.tile(0..1, 0, chunks);
        let mut acc = TreeAccumulator::new();
        for c in 0..chunks {
            acc.push(bank[c * table + keys.key(0, c)]);
        }
        let got = lut_gather(&bank, table, keys, ResolvedKernel::scalar());
        assert_eq!(acc.finish().to_bits(), got.to_bits());
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

    #[test]
    #[should_panic(expected = "table stride must be 2^µ")]
    fn gather_rejects_a_table_narrower_than_the_keys() {
        let km = KeyMatrix::pack(&SignMatrix::ones(1, 8), 4);
        let bank = vec![0.0f32; 8];
        lut_gather(&bank, 4, km.tile(0..1, 0, 2), ResolvedKernel::scalar());
    }
}
