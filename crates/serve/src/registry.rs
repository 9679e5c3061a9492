//! The catalogue of operators a server can run — a *living*, versioned,
//! multi-tenant store.
//!
//! Two types split the lifecycle:
//!
//! * [`ModelRegistry`] is the **builder**: ops registered before
//!   [`crate::Server::start`] (directly, via
//!   [`ModelRegistry::register_linear`], or from a BIQM artifact via
//!   [`ModelRegistry::load_artifact`]) become the boot model, version 1.
//! * [`LiveRegistry`] is what a running server actually serves from. It is
//!   shared by every [`crate::Client`] and the net front-end, and it
//!   changes online: [`LiveRegistry::load_model`] loads additional
//!   artifacts (or swaps a model to a new version) while traffic is in
//!   flight, [`LiveRegistry::unload_model`] retires one, and a
//!   `--mem-budget` byte ceiling evicts cold models LRU-first to make
//!   room.
//!
//! ## Versioned-name resolution
//!
//! Every load of a model named `M` gets the next version number; its ops
//! are addressable under two names:
//!
//! * `op@v` — pinned to that exact version for as long as it is live;
//! * `op` (unversioned) — resolves to the **latest live** version. A swap
//!   repoints the bare name atomically: requests admitted before the swap
//!   run against the old version, requests admitted after run against the
//!   new one, and nothing in between sees a torn table.
//!
//! An op name may only ever be owned by one model name at a time
//! (otherwise `op@v` would be ambiguous); loading a model whose op names
//! collide with another live model is refused.
//!
//! ## Drain-on-retire
//!
//! Retiring a version (swap, unload, or eviction) removes it from name
//! resolution immediately but never cancels in-flight work: every
//! admitted request holds its own `Arc` of the compiled op, so a batch
//! already queued or running completes bit-identically against the
//! version that admitted it, and the packed payload is freed when the
//! last in-flight reference drops. Readers see registry updates through
//! an atomically swapped snapshot (`Mutex<Arc<Snapshot>>` — a hand-rolled
//! `ArcSwap`), so resolution is a brief lock + `Arc` clone, never a walk
//! of shared mutable state.
//!
//! Compiled ops are reference-counted end to end — registering a layer
//! that already exists shares the packed weights instead of re-quantizing
//! them, and a loaded artifact's payloads stay borrowed from the artifact
//! buffer.

use crate::stats::{OpMeta, OpStats};
use biq_obs::{MetricValue, Sample};
use biq_runtime::{compile, CompiledOp, ExecutionPlan, PackedPayload, WeightSource};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Most models a [`LiveRegistry`] will track (live + retired) — mirrors
/// the wire-side `MAX_MODELS` cap so a `ListModels` reply always fits.
pub const MAX_MODELS: usize = 256;

/// Stable identifier of a registered op (an index into the registry's
/// slot table; slots are append-only and never reused, so an `OpId` stays
/// valid — though possibly retired — for the life of the server).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OpId(pub(crate) usize);

impl OpId {
    /// The registry index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One registered operator: a name for reporting plus the compiled op.
#[derive(Debug)]
pub struct RegisteredOp {
    name: String,
    op: Arc<CompiledOp>,
}

impl RegisteredOp {
    /// The name given at registration.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compiled op (shared with every worker).
    pub fn op(&self) -> &Arc<CompiledOp> {
        &self.op
    }
}

/// The boot-time builder: the set of [`CompiledOp`]s a [`crate::Server`]
/// starts serving as version 1 of the boot model. After
/// [`crate::Server::start`] the server's [`LiveRegistry`] takes over and
/// models come and go online.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    ops: Vec<RegisteredOp>,
    model_name: Option<String>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names the boot model (defaults to `"default"`); `biq serve` passes
    /// the artifact's file stem so fleet views and metrics read naturally.
    pub fn set_model_name(&mut self, name: impl Into<String>) {
        self.model_name = Some(name.into());
    }

    /// Compiles `plan` against `weights` (quantization/packing happens
    /// here, once) and registers the result.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        plan: &ExecutionPlan,
        weights: WeightSource<'_>,
    ) -> OpId {
        self.register_op(name, Arc::new(compile(plan, weights)))
    }

    /// Registers an already-compiled op, sharing its packed weights.
    pub fn register_op(&mut self, name: impl Into<String>, op: Arc<CompiledOp>) -> OpId {
        let id = OpId(self.ops.len());
        self.ops.push(RegisteredOp { name: name.into(), op });
        id
    }

    /// Registers the compiled op behind an `nn` layer, so a model's linear
    /// layers route their matmuls through the server's batched path while
    /// sharing the layer's packed weights. The server computes `W·X` only;
    /// a layer bias (and activation) stays the caller's job, exactly as
    /// with [`biq_runtime::Executor::run`].
    pub fn register_linear(&mut self, name: impl Into<String>, layer: &biq_nn::Linear) -> OpId {
        self.register_op(name, layer.compiled_op())
    }

    /// Boots the registry straight from a compiled-model artifact: every
    /// linear layer is registered under its canonical artifact name
    /// (`enc0.attn.wq`, `lstm.w_ih`, …), with packed weights **borrowed
    /// from the artifact buffer** — no fp32 weights and no re-quantization
    /// in the serving process. Returns the restored model (whose layers
    /// share the registered ops) and the `(name, id)` pairs in
    /// registration order.
    pub fn load_artifact(
        &mut self,
        artifact: &biq_artifact::Artifact,
    ) -> Result<(biq_nn::CompiledModel, Vec<(String, OpId)>), biq_artifact::ArtifactError> {
        let model = biq_nn::CompiledModel::from_artifact(artifact)?;
        let ids = model
            .named_linears()
            .into_iter()
            .map(|(name, layer)| {
                let id = self.register_linear(name.clone(), layer);
                (name, id)
            })
            .collect();
        Ok((model, ids))
    }

    /// The op registered under `id`.
    ///
    /// # Panics
    /// Panics when `id` did not come from this registry.
    pub fn get(&self, id: OpId) -> &RegisteredOp {
        &self.ops[id.0]
    }

    /// Finds an op id by registration name (first match).
    pub fn lookup(&self, name: &str) -> Option<OpId> {
        self.ops.iter().position(|o| o.name == name).map(OpId)
    }

    /// Number of registered ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over `(id, op)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &RegisteredOp)> {
        self.ops.iter().enumerate().map(|(i, o)| (OpId(i), o))
    }
}

/// Why a fleet operation ([`LiveRegistry::load_model`] /
/// [`LiveRegistry::unload_model`]) was refused.
#[derive(Debug)]
pub enum ModelError {
    /// No live model matches the requested name (and version).
    UnknownModel(String),
    /// An op name in the incoming artifact is already owned by a
    /// different live model, which would make `op@v` ambiguous.
    OpCollision {
        /// The colliding op name.
        op: String,
        /// The live model that owns it.
        owner: String,
    },
    /// Loading would exceed `--mem-budget` even after evicting every
    /// cold model. Nothing was evicted.
    BudgetExceeded {
        /// Bytes the incoming model needs.
        needed: u64,
        /// The configured ceiling.
        budget: u64,
        /// Resident bytes that cannot be evicted (in-flight or the model
        /// being swapped).
        resident: u64,
    },
    /// The registry already tracks [`MAX_MODELS`] models (live + retired).
    TooManyModels(usize),
    /// A model name, or an op's `base@version` display name, is longer than
    /// the smallest wire cap of a frame that echoes it (a stats label
    /// value, [`crate::net::wire::MAX_LABEL_VALUE`] bytes).
    NameTooLong(String),
    /// The artifact failed to decode/restore.
    Artifact(biq_artifact::ArtifactError),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnknownModel(name) => write!(f, "no live model {name:?}"),
            ModelError::OpCollision { op, owner } => {
                write!(f, "op {op:?} is already owned by live model {owner:?}")
            }
            ModelError::BudgetExceeded { needed, budget, resident } => write!(
                f,
                "model needs {needed} bytes but only {} of the {budget} byte budget \
                 can be freed ({resident} bytes are pinned by live/in-flight models)",
                budget.saturating_sub(*resident),
            ),
            ModelError::TooManyModels(n) => write!(f, "registry already tracks {n} models"),
            ModelError::NameTooLong(name) => write!(
                f,
                "name {name:?} is {} bytes; the wire echoes at most {} (a stats label value)",
                name.len(),
                crate::net::wire::MAX_LABEL_VALUE,
            ),
            ModelError::Artifact(e) => write!(f, "artifact: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<biq_artifact::ArtifactError> for ModelError {
    fn from(e: biq_artifact::ArtifactError) -> Self {
        ModelError::Artifact(e)
    }
}

/// Per-model live counters: what eviction and the fleet views read.
#[derive(Debug, Default)]
pub(crate) struct ModelStats {
    /// Requests admitted but not yet answered (each [`InflightGuard`]
    /// holds one). Eviction refuses a model while this is nonzero.
    pub(crate) inflight: AtomicU64,
    /// The registry clock tick of the last admission — the LRU key.
    pub(crate) last_used: AtomicU64,
}

/// Held by every admitted request; drops (decrementing the model's
/// in-flight count) only after the reply has landed on the ticket channel.
#[derive(Debug)]
pub(crate) struct InflightGuard(Arc<ModelStats>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One slot of the live table — everything the serving path needs about
/// an op, clonable as a handful of `Arc`s. `op` is `None` once the slot's
/// version is retired (the payload itself lives on in any in-flight
/// request's `Arc` until the drain completes).
#[derive(Clone, Debug)]
pub(crate) struct SlotView {
    /// Identity under the **versioned display name** (`linear@1`) — what
    /// metrics, snapshots, and `biq top` report.
    pub(crate) meta: Arc<OpMeta>,
    pub(crate) op: Option<Arc<CompiledOp>>,
    pub(crate) stats: Arc<OpStats>,
    pub(crate) model: Arc<ModelStats>,
    /// Owning model name (metric label).
    pub(crate) model_name: Arc<str>,
    /// Owning model version (metric label).
    pub(crate) version: u32,
}

/// An immutable point-in-time view of the live table. Cheap to hold: the
/// serving path resolves against one snapshot per admission, so a
/// concurrent swap can never show a request a torn table.
#[derive(Debug, Default)]
pub(crate) struct Snapshot {
    /// Index-aligned with [`OpId`]; append-only across snapshots.
    pub(crate) slots: Vec<SlotView>,
    by_name: HashMap<String, usize>,
}

impl Snapshot {
    /// Resolves `op` or `op@v` to a slot id (live versions only).
    pub(crate) fn resolve(&self, name: &str) -> Option<OpId> {
        self.by_name.get(name).copied().map(OpId)
    }

    pub(crate) fn slot(&self, id: OpId) -> Option<&SlotView> {
        self.slots.get(id.0)
    }

    /// Iterates live slots (retired ones keep stats but serve nothing).
    pub(crate) fn live(&self) -> impl Iterator<Item = (OpId, &SlotView)> {
        self.slots.iter().enumerate().filter(|(_, s)| s.op.is_some()).map(|(i, s)| (OpId(i), s))
    }
}

/// Fleet bookkeeping for one loaded model version.
#[derive(Debug)]
struct Model {
    name: String,
    version: u32,
    live: bool,
    /// Slot indices owned by this version.
    ops: Vec<usize>,
    /// Estimated resident bytes while live (0 once retired).
    mem_bytes: u64,
    stats: Arc<ModelStats>,
    /// Bare op names, index-aligned with `ops` (name resolution keys).
    op_bases: Vec<String>,
}

#[derive(Debug, Default)]
struct State {
    slots: Vec<SlotView>,
    models: Vec<Model>,
    loads: u64,
    unloads: u64,
    evictions: u64,
}

impl State {
    fn rebuild_snapshot(&self) -> Snapshot {
        let mut by_name = HashMap::new();
        for model in self.models.iter().filter(|m| m.live) {
            for (&slot, base) in model.ops.iter().zip(&model.op_bases) {
                by_name.insert(format!("{base}@{}", model.version), slot);
                // One live version per model name and one owning model per
                // op name, so the bare name is unambiguous.
                by_name.insert(base.clone(), slot);
            }
        }
        Snapshot { slots: self.slots.clone(), by_name }
    }

    fn live_bytes(&self) -> u64 {
        self.models.iter().filter(|m| m.live).map(|m| m.mem_bytes).sum()
    }

    /// Retires one model version: drops the registry's op `Arc`s (payloads
    /// stay alive inside any in-flight request until the drain completes)
    /// and removes it from name resolution on the next snapshot rebuild.
    fn retire(&mut self, model_idx: usize) {
        let m = &mut self.models[model_idx];
        m.live = false;
        m.mem_bytes = 0;
        for &slot in &m.ops {
            self.slots[slot].op = None;
        }
    }
}

/// The result of a successful [`LiveRegistry::load_model`].
#[derive(Debug)]
pub struct LoadedModel {
    /// The version this load was assigned (1 for a new name, previous+1
    /// for a swap).
    pub version: u32,
    /// Estimated resident bytes of the new version.
    pub mem_bytes: u64,
    /// Cold models evicted to make room, as `(name, version)`.
    pub evicted: Vec<(String, u32)>,
    /// The new version's ops under their versioned display names.
    pub ops: Vec<(String, OpId)>,
}

/// The result of a successful [`LiveRegistry::unload_model`].
#[derive(Debug)]
pub struct UnloadedModel {
    /// The version that was retired.
    pub version: u32,
    /// How many ops it retired.
    pub ops_retired: usize,
}

/// One row of the fleet view ([`LiveRegistry::models`]).
#[derive(Clone, Debug)]
pub struct ModelInfo {
    /// Model name.
    pub name: String,
    /// Version number.
    pub version: u32,
    /// `true` while serving; retired versions keep their traffic counters.
    pub live: bool,
    /// Estimated resident bytes (0 once retired).
    pub mem_bytes: u64,
    /// Ops this version owns.
    pub ops: usize,
    /// Requests admitted but not yet answered.
    pub inflight: u64,
    /// Requests answered over this version's lifetime.
    pub completed: u64,
}

/// The living, versioned op table of a running server. See the module
/// docs for the resolution and drain-on-retire contracts.
#[derive(Debug)]
pub struct LiveRegistry {
    state: Mutex<State>,
    /// Hand-rolled `ArcSwap`: readers lock briefly and clone the `Arc`;
    /// writers rebuild under `state` and store a fresh snapshot here.
    snap: Mutex<Arc<Snapshot>>,
    /// Admission counter driving per-model LRU age.
    clock: AtomicU64,
    budget: Option<u64>,
}

impl LiveRegistry {
    /// Consumes the boot-time builder into a live store: every registered
    /// op becomes version 1 of the boot model.
    pub(crate) fn from_builder(builder: ModelRegistry, budget: Option<u64>) -> Self {
        let model_name = builder.model_name.unwrap_or_else(|| "default".to_string());
        let mut state = State::default();
        let stats = Arc::new(ModelStats::default());
        let name_arc: Arc<str> = model_name.as_str().into();
        let mut mem = 0u64;
        let mut ops = Vec::new();
        let mut bases = Vec::new();
        for reg in builder.ops {
            mem += op_mem_bytes(&reg.op);
            ops.push(state.slots.len());
            bases.push(reg.name.clone());
            state.slots.push(SlotView {
                meta: Arc::new(OpMeta {
                    name: format!("{}@1", reg.name),
                    kernel: reg.op.plan().kernel.level(),
                    m: reg.op.output_size(),
                    n: reg.op.input_size(),
                }),
                op: Some(reg.op),
                stats: Arc::new(OpStats::default()),
                model: Arc::clone(&stats),
                model_name: Arc::clone(&name_arc),
                version: 1,
            });
        }
        state.models.push(Model {
            name: model_name,
            version: 1,
            live: true,
            ops,
            mem_bytes: mem,
            stats,
            op_bases: bases,
        });
        state.loads = 1;
        let snap = Arc::new(state.rebuild_snapshot());
        LiveRegistry {
            state: Mutex::new(state),
            snap: Mutex::new(snap),
            clock: AtomicU64::new(0),
            budget,
        }
    }

    /// The current table. One brief lock, one `Arc` clone.
    pub(crate) fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snap.lock().expect("registry snapshot poisoned"))
    }

    fn publish(&self, state: &State) {
        *self.snap.lock().expect("registry snapshot poisoned") = Arc::new(state.rebuild_snapshot());
    }

    /// Marks an admission against `slot`'s model: bumps the LRU clock and
    /// the in-flight count; the returned guard releases the latter.
    pub(crate) fn begin(&self, slot: &SlotView) -> InflightGuard {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        slot.model.last_used.store(tick, Ordering::Relaxed);
        slot.model.inflight.fetch_add(1, Ordering::AcqRel);
        InflightGuard(Arc::clone(&slot.model))
    }

    /// Resolves `op` or `op@v` to the live slot serving it.
    pub fn lookup(&self, name: &str) -> Option<OpId> {
        self.snapshot().resolve(name)
    }

    /// The compiled op behind `id` (`None` for retired slots and foreign
    /// ids).
    pub fn op(&self, id: OpId) -> Option<Arc<CompiledOp>> {
        self.snapshot().slot(id).and_then(|s| s.op.clone())
    }

    /// The versioned display name of slot `index` (`op42` for foreign
    /// indices — slow-log rows never panic on a stale id).
    pub(crate) fn op_name(&self, index: usize) -> String {
        self.snapshot()
            .slots
            .get(index)
            .map(|s| s.meta.name.clone())
            .unwrap_or_else(|| format!("op{index}"))
    }

    /// Loads `artifact` as model `name`: version 1 for a new name, or an
    /// atomic swap to `previous + 1` when `name` is already live (the old
    /// version retires with drain semantics). Enforces the memory budget,
    /// evicting cold models (live, zero in-flight, least-recently
    /// admitted first) when needed.
    pub fn load_model(
        &self,
        name: &str,
        artifact: &biq_artifact::Artifact,
    ) -> Result<LoadedModel, ModelError> {
        // Decode and compile outside the lock: restoring packed payloads is
        // the expensive part and must not stall concurrent admissions.
        let model = biq_nn::CompiledModel::from_artifact(artifact)?;
        let new_ops: Vec<(String, Arc<CompiledOp>)> = model
            .named_linears()
            .into_iter()
            .map(|(op_name, layer)| (op_name, layer.compiled_op()))
            .collect();
        let mem: u64 = new_ops.iter().map(|(_, op)| op_mem_bytes(op)).sum();

        let mut st = self.state.lock().expect("registry state poisoned");
        if st.models.len() >= MAX_MODELS {
            return Err(ModelError::TooManyModels(st.models.len()));
        }
        // Op names may only be owned by one model name at a time.
        for m in st.models.iter().filter(|m| m.live && m.name != name) {
            for base in &m.op_bases {
                if new_ops.iter().any(|(n, _)| n == base) {
                    return Err(ModelError::OpCollision {
                        op: base.clone(),
                        owner: format!("{}@{}", m.name, m.version),
                    });
                }
            }
        }
        let prev = st.models.iter().position(|m| m.live && m.name == name);
        let version =
            st.models.iter().filter(|m| m.name == name).map(|m| m.version).max().unwrap_or(0) + 1;
        // Every name this version publishes must fit every frame that
        // carries it; the smallest such cap is a stats label value
        // (`model=<name>`, `op=<base@version>`), so the ModelLoaded evicted
        // list, ModelList, OpList, HistoryReply and SlowLogReply fit too.
        let too_long = std::iter::once(name.to_string())
            .chain(new_ops.iter().map(|(base, _)| format!("{base}@{version}")))
            .find(|n| n.len() > crate::net::wire::MAX_LABEL_VALUE);
        if let Some(n) = too_long {
            return Err(ModelError::NameTooLong(n));
        }

        // Budget check before touching anything: the swapped-out version's
        // bytes free as part of this load, evictable cold models can free
        // theirs, and anything else is pinned.
        let mut evicted = Vec::new();
        if let Some(budget) = self.budget {
            let prev_bytes = prev.map(|i| st.models[i].mem_bytes).unwrap_or(0);
            let after = st.live_bytes() - prev_bytes + mem;
            if after > budget {
                let mut need = after - budget;
                let mut candidates: Vec<usize> = (0..st.models.len())
                    .filter(|&i| {
                        let m = &st.models[i];
                        m.live && m.name != name && m.stats.inflight.load(Ordering::Acquire) == 0
                    })
                    .collect();
                candidates.sort_by_key(|&i| st.models[i].stats.last_used.load(Ordering::Relaxed));
                let mut to_evict = Vec::new();
                for i in candidates {
                    if need == 0 {
                        break;
                    }
                    need = need.saturating_sub(st.models[i].mem_bytes);
                    to_evict.push(i);
                }
                if need > 0 {
                    return Err(ModelError::BudgetExceeded {
                        needed: mem,
                        budget,
                        resident: st.live_bytes()
                            - prev_bytes
                            - to_evict.iter().map(|&i| st.models[i].mem_bytes).sum::<u64>(),
                    });
                }
                for i in to_evict {
                    evicted.push((st.models[i].name.clone(), st.models[i].version));
                    st.retire(i);
                    st.evictions += 1;
                }
            }
        }
        // Swap: the outgoing version retires now; its in-flight work
        // drains on the `Arc`s each request holds.
        if let Some(i) = prev {
            st.retire(i);
        }
        let stats = Arc::new(ModelStats::default());
        // A freshly loaded model is the most recently used by definition.
        stats.last_used.store(self.clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        let name_arc: Arc<str> = name.into();
        let mut ops = Vec::new();
        let mut op_bases = Vec::new();
        let mut out_ops = Vec::new();
        for (base, op) in new_ops {
            let id = st.slots.len();
            let display = format!("{base}@{version}");
            ops.push(id);
            op_bases.push(base);
            out_ops.push((display.clone(), OpId(id)));
            st.slots.push(SlotView {
                meta: Arc::new(OpMeta {
                    name: display,
                    kernel: op.plan().kernel.level(),
                    m: op.output_size(),
                    n: op.input_size(),
                }),
                op: Some(op),
                stats: Arc::new(OpStats::default()),
                model: Arc::clone(&stats),
                model_name: Arc::clone(&name_arc),
                version,
            });
        }
        st.models.push(Model {
            name: name.to_string(),
            version,
            live: true,
            ops,
            mem_bytes: mem,
            stats,
            op_bases,
        });
        st.loads += 1;
        self.publish(&st);
        Ok(LoadedModel { version, mem_bytes: mem, evicted, ops: out_ops })
    }

    /// Retires model `name` (`version == 0` targets the live version).
    /// Always allowed — in-flight requests drain on their own `Arc`s —
    /// but the version's names stop resolving immediately.
    pub fn unload_model(&self, name: &str, version: u32) -> Result<UnloadedModel, ModelError> {
        let mut st = self.state.lock().expect("registry state poisoned");
        let idx = st
            .models
            .iter()
            .position(|m| m.live && m.name == name && (version == 0 || m.version == version))
            .ok_or_else(|| match version {
                0 => ModelError::UnknownModel(name.to_string()),
                v => ModelError::UnknownModel(format!("{name}@{v}")),
            })?;
        let retired_version = st.models[idx].version;
        let ops_retired = st.models[idx].ops.len();
        st.retire(idx);
        st.unloads += 1;
        self.publish(&st);
        Ok(UnloadedModel { version: retired_version, ops_retired })
    }

    /// The fleet view: every tracked model version, live first, newest
    /// first within each state.
    pub fn models(&self) -> Vec<ModelInfo> {
        let st = self.state.lock().expect("registry state poisoned");
        let mut out: Vec<ModelInfo> = st
            .models
            .iter()
            .map(|m| ModelInfo {
                name: m.name.clone(),
                version: m.version,
                live: m.live,
                mem_bytes: m.mem_bytes,
                ops: m.ops.len(),
                inflight: m.stats.inflight.load(Ordering::Acquire),
                completed: m
                    .ops
                    .iter()
                    .map(|&i| st.slots[i].stats.completed.load(Ordering::Relaxed))
                    .sum(),
            })
            .collect();
        out.sort_by(|a, b| b.live.cmp(&a.live).then(b.version.cmp(&a.version)));
        out
    }

    /// Estimated resident bytes across live models.
    pub fn live_bytes(&self) -> u64 {
        self.state.lock().expect("registry state poisoned").live_bytes()
    }

    /// The configured memory ceiling, if any.
    pub fn mem_budget(&self) -> Option<u64> {
        self.budget
    }

    /// Appends the registry's metric samples: per-op serving counters
    /// (labeled with the versioned display name), per-model
    /// `biq_model_memory_bytes{model,version}` / in-flight gauges, and
    /// fleet load/unload/eviction counters (plus the
    /// `biq_mem_budget_bytes` ceiling gauge when a budget is set).
    pub(crate) fn metric_samples(&self, samples: &mut Vec<Sample>) {
        let snap = self.snapshot();
        for slot in &snap.slots {
            crate::stats::push_op_samples(samples, slot);
        }
        let st = self.state.lock().expect("registry state poisoned");
        let mut live_models = 0i64;
        for m in st.models.iter().filter(|m| m.live) {
            live_models += 1;
            let labels = vec![
                ("model".to_string(), m.name.clone()),
                ("version".to_string(), m.version.to_string()),
            ];
            samples.push(Sample {
                name: "biq_model_memory_bytes".to_string(),
                labels: labels.clone(),
                value: MetricValue::Gauge(m.mem_bytes as i64),
            });
            samples.push(Sample {
                name: "biq_model_inflight".to_string(),
                labels,
                value: MetricValue::Gauge(m.stats.inflight.load(Ordering::Acquire) as i64),
            });
        }
        samples.push(Sample {
            name: "biq_models_loaded".to_string(),
            labels: Vec::new(),
            value: MetricValue::Gauge(live_models),
        });
        if let Some(budget) = self.budget {
            samples.push(Sample {
                name: "biq_mem_budget_bytes".to_string(),
                labels: Vec::new(),
                value: MetricValue::Gauge(budget as i64),
            });
        }
        for (name, v) in [
            ("biq_model_loads_total", st.loads),
            ("biq_model_unloads_total", st.unloads),
            ("biq_model_evictions_total", st.evictions),
        ] {
            samples.push(Sample {
                name: name.to_string(),
                labels: Vec::new(),
                value: MetricValue::Counter(v),
            });
        }
    }
}

/// Estimated resident bytes of one compiled op: the packed payload **as
/// stored** (so the key term follows the real key width at any µ) plus the
/// per-worker serial scratch the plan records. An estimate, not an
/// allocator audit — it tracks the dominant terms (key matrices, scales,
/// LUT banks) and is stable across hosts, which is what a budget needs.
fn op_mem_bytes(op: &CompiledOp) -> u64 {
    let payload = match op.payload() {
        PackedPayload::Dense(w) => 4 * w.as_slice().len(),
        PackedPayload::Int8(w) => w.as_slice().len() + 4 * w.row_scales().len(),
        PackedPayload::Xnor(w) => {
            w.planes().iter().map(|(scales, words)| 4 * scales.len() + words.storage_bytes()).sum()
        }
        PackedPayload::Biq(w) => w.keys().storage_bytes() + 4 * w.scales().len(),
    };
    (payload + op.plan().scratch.total_bytes()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_matrix::MatrixRng;
    use biq_runtime::{BackendSpec, PlanBuilder, QuantMethod};

    #[test]
    fn register_and_lookup() {
        let mut g = MatrixRng::seed_from(1);
        let signs = g.signs(8, 16);
        let plan = PlanBuilder::new(8, 16)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .build();
        let mut reg = ModelRegistry::new();
        let id = reg.register("enc.q", &plan, WeightSource::Signs(&signs));
        assert_eq!(reg.lookup("enc.q"), Some(id));
        assert_eq!(reg.get(id).name(), "enc.q");
        assert_eq!(reg.get(id).op().output_size(), 8);
        assert_eq!(reg.len(), 1);
        assert!(reg.lookup("missing").is_none());
    }

    #[test]
    fn register_linear_shares_the_compiled_op() {
        let mut g = MatrixRng::seed_from(2);
        let w = g.gaussian(8, 8, 0.0, 1.0);
        let layer = biq_nn::Linear::fp32(w, None);
        let mut reg = ModelRegistry::new();
        let id = reg.register_linear("fc", &layer);
        assert!(Arc::ptr_eq(reg.get(id).op(), &layer.compiled_op()));
    }

    #[test]
    fn load_artifact_registers_every_linear_without_fp32_weights() {
        use biq_nn::model::CompiledModel;
        use biq_nn::transformer::LayerBackend;
        let mut g = MatrixRng::seed_from(3);
        let enc = biq_nn::transformer::Encoder::random(
            &mut g,
            1,
            16,
            32,
            2,
            LayerBackend::Biq {
                bits: 2,
                method: QuantMethod::Greedy,
                cfg: biqgemm_core::BiqConfig::default(),
                parallel: false,
            },
        );
        let bytes = CompiledModel::Transformer(enc).snapshot();
        let artifact = biq_artifact::Artifact::from_bytes(bytes).unwrap();
        let mut reg = ModelRegistry::new();
        let (model, ids) = reg.load_artifact(&artifact).unwrap();
        assert_eq!(reg.len(), 6, "six projections per encoder layer");
        assert_eq!(ids[0].0, "enc0.attn.wq");
        assert_eq!(reg.lookup("enc0.ff1"), Some(ids[4].1));
        // The registered op IS the restored model's op (shared weights).
        let (_, layer) = &model.named_linears()[0];
        assert!(Arc::ptr_eq(reg.get(ids[0].1).op(), &layer.compiled_op()));
        // Loaded ops serve the same results as the in-memory layer.
        let x = g.gaussian_col(16, 2, 0.0, 1.0);
        let mut exec = biq_runtime::Executor::new();
        let y = exec.run(reg.get(ids[0].1).op(), &x);
        assert_eq!(
            y.to_col_major().as_slice(),
            layer.forward(&x).as_slice(),
            "wq has no bias, so the op output is the layer output"
        );
    }

    fn linear_artifact(seed: u64, m: usize, n: usize) -> biq_artifact::Artifact {
        let mut g = MatrixRng::seed_from(seed);
        let w = g.gaussian(m, n, 0.0, 1.0);
        let layer = biq_nn::Linear::quantized(
            &w,
            2,
            QuantMethod::Greedy,
            biqgemm_core::BiqConfig::default(),
            None,
        );
        let bytes = biq_nn::model::CompiledModel::Linear(layer).snapshot();
        biq_artifact::Artifact::from_bytes(bytes).unwrap()
    }

    fn boot(seed: u64, budget: Option<u64>) -> LiveRegistry {
        let mut reg = ModelRegistry::new();
        reg.set_model_name("boot");
        reg.load_artifact(&linear_artifact(seed, 8, 16)).unwrap();
        LiveRegistry::from_builder(reg, budget)
    }

    #[test]
    fn versioned_resolution_follows_the_latest_live_version() {
        let live = boot(11, None);
        let v1 = live.lookup("linear").expect("boot op resolves");
        assert_eq!(live.lookup("linear@1"), Some(v1), "pinned name resolves too");
        let loaded = live.load_model("boot", &linear_artifact(12, 8, 16)).unwrap();
        assert_eq!(loaded.version, 2, "swap takes the next version");
        let v2 = live.lookup("linear").expect("bare name repoints");
        assert_ne!(v1, v2);
        assert_eq!(live.lookup("linear@2"), Some(v2));
        assert_eq!(live.lookup("linear@1"), None, "retired version stops resolving");
        assert!(live.op(v1).is_none(), "retired slot dropped its payload arc");
        assert!(live.op(v2).is_some());
        let models = live.models();
        assert_eq!(models.len(), 2);
        assert!(models[0].live && models[0].version == 2);
        assert!(!models[1].live && models[1].version == 1);
    }

    #[test]
    fn in_flight_arcs_survive_a_swap() {
        let live = boot(21, None);
        let v1 = live.lookup("linear").unwrap();
        let held = live.op(v1).expect("live op");
        live.load_model("boot", &linear_artifact(22, 8, 16)).unwrap();
        // The registry dropped its arc; the in-flight holder still runs.
        let mut exec = biq_runtime::Executor::new();
        let x = MatrixRng::seed_from(23).gaussian_col(16, 1, 0.0, 1.0);
        let y = exec.run(&held, &x);
        assert_eq!(y.shape(), (8, 1));
    }

    #[test]
    fn op_collisions_across_model_names_are_refused() {
        let live = boot(31, None);
        let err = live.load_model("other", &linear_artifact(32, 8, 16)).unwrap_err();
        match err {
            ModelError::OpCollision { op, owner } => {
                assert_eq!(op, "linear");
                assert_eq!(owner, "boot@1");
            }
            other => panic!("expected collision, got {other}"),
        }
    }

    #[test]
    fn budget_refuses_oversized_loads_without_evicting() {
        let incoming = linear_artifact(42, 256, 512);
        // One byte short of what the incoming model needs, so the load is
        // refused even though the swap would retire v1's bytes.
        let live = boot(41, Some(artifact_mem(&incoming) - 1));
        let v1 = live.lookup("linear").unwrap();
        let err = live.load_model("boot", &incoming).unwrap_err();
        match err {
            ModelError::BudgetExceeded { needed, budget, .. } => {
                assert!(needed > budget, "needed {needed} fits {budget}?");
            }
            other => panic!("expected budget refusal, got {other}"),
        }
        // A refused load changes nothing: v1 still serves.
        assert_eq!(live.lookup("linear"), Some(v1));
        assert!(live.op(v1).is_some());
        assert_eq!(live.models().len(), 1);
    }

    /// What the registry will account `artifact` at, via the same
    /// estimator the budget uses — keeps the eviction tests exact instead
    /// of guessing byte counts.
    fn artifact_mem(artifact: &biq_artifact::Artifact) -> u64 {
        let model = biq_nn::CompiledModel::from_artifact(artifact).unwrap();
        model.named_linears().iter().map(|(_, l)| op_mem_bytes(&l.compiled_op())).sum()
    }

    fn encoder_artifact(seed: u64) -> biq_artifact::Artifact {
        use biq_nn::transformer::LayerBackend;
        let mut g = MatrixRng::seed_from(seed);
        let enc = biq_nn::transformer::Encoder::random(
            &mut g,
            1,
            64,
            128,
            2,
            LayerBackend::Biq {
                bits: 2,
                method: QuantMethod::Greedy,
                cfg: biqgemm_core::BiqConfig::default(),
                parallel: false,
            },
        );
        let bytes = biq_nn::model::CompiledModel::Transformer(enc).snapshot();
        biq_artifact::Artifact::from_bytes(bytes).unwrap()
    }

    #[test]
    fn eviction_frees_cold_models_lru_first_and_skips_in_flight_ones() {
        // A Linear artifact always names its op "linear", so the second
        // tenant is a multi-op transformer under another model name. The
        // budget is derived from the estimator itself: boot + enc fit,
        // swapping boot to the bigger v2 does not — unless enc is evicted.
        let boot_a = linear_artifact(45, 8, 16);
        let enc_a = encoder_artifact(47);
        let big_a = linear_artifact(46, 512, 512);
        let (m_boot, m_enc, m_big) =
            (artifact_mem(&boot_a), artifact_mem(&enc_a), artifact_mem(&big_a));
        assert!(m_big / 2 > m_boot && m_big / 2 <= m_boot + m_enc, "test geometry");
        let budget = m_boot + m_enc + m_big / 2;

        let mut reg = ModelRegistry::new();
        reg.set_model_name("boot");
        reg.load_artifact(&boot_a).unwrap();
        let live = LiveRegistry::from_builder(reg, Some(budget));
        live.load_model("enc", &enc_a).unwrap();
        assert_eq!(live.models().iter().filter(|m| m.live).count(), 2);

        // While "enc" has in-flight work, a load that would need its bytes
        // is refused rather than evicting it.
        let enc_id = live.lookup("enc0.attn.wq").unwrap();
        let enc_slot = live.snapshot().slot(enc_id).unwrap().clone();
        let guard = live.begin(&enc_slot);
        let err = live.load_model("boot", &big_a).unwrap_err();
        assert!(
            matches!(err, ModelError::BudgetExceeded { .. }),
            "in-flight model must not be evicted: {err}"
        );
        assert!(live.lookup("enc0.attn.wq").is_some(), "enc survived");

        // Once the in-flight work drains, the same load evicts "enc".
        drop(guard);
        let loaded = live.load_model("boot", &big_a).unwrap();
        assert_eq!(loaded.evicted, vec![("enc".to_string(), 1)]);
        assert!(live.lookup("enc0.attn.wq").is_none(), "evicted model stopped resolving");
        assert!(live.live_bytes() <= budget);
    }

    #[test]
    fn unload_retires_and_keeps_retention_stats() {
        let live = boot(51, None);
        let id = live.lookup("linear").unwrap();
        let slot = live.snapshot().slot(id).unwrap().clone();
        slot.stats.completed.fetch_add(7, Ordering::Relaxed);
        let out = live.unload_model("boot", 0).unwrap();
        assert_eq!(out.version, 1);
        assert_eq!(out.ops_retired, 1);
        assert!(live.lookup("linear").is_none());
        let models = live.models();
        assert_eq!(models.len(), 1);
        assert!(!models[0].live);
        assert_eq!(models[0].completed, 7, "retired versions keep traffic counters");
        assert!(matches!(live.unload_model("boot", 0), Err(ModelError::UnknownModel(_)),));
    }

    #[test]
    fn memory_gauge_counts_the_stored_key_bytes_at_any_mu() {
        // µ = 4 and 8 store one byte per key, µ = 12 two; the gauge (and
        // with it budget admission) must follow the stored width.
        let (m, n, bits) = (48usize, 100usize, 2usize);
        for (mu, key_bytes) in [(4usize, 1usize), (8, 1), (12, 2)] {
            let mut g = MatrixRng::seed_from(70 + mu as u64);
            let w = g.gaussian(m, n, 0.0, 1.0);
            let plan = PlanBuilder::new(m, n)
                .backend(BackendSpec::Biq { bits, method: QuantMethod::Greedy })
                .config(biqgemm_core::BiqConfig::with_mu(mu))
                .build();
            let mut reg = ModelRegistry::new();
            let id = reg.register("fc", &plan, WeightSource::Dense(&w));
            let PackedPayload::Biq(packed) = reg.get(id).op().payload() else {
                panic!("biq payload expected")
            };
            let stored = packed.keys().storage_bytes();
            assert_eq!(stored, bits * m * n.div_ceil(mu) * key_bytes, "µ={mu}");
            let want = (stored + 4 * bits * m + plan.scratch.total_bytes()) as u64;

            let live = LiveRegistry::from_builder(reg, None);
            let mut samples = Vec::new();
            live.metric_samples(&mut samples);
            let mem = samples.iter().find(|s| s.name == "biq_model_memory_bytes").unwrap();
            assert!(
                matches!(mem.value, MetricValue::Gauge(v) if v as u64 == want),
                "µ={mu}: gauge {:?}, stored bytes + scales + scratch = {want}",
                mem.value
            );
            assert_eq!(live.live_bytes(), want, "µ={mu}");
        }
    }

    #[test]
    fn metric_samples_carry_model_gauges() {
        let live = boot(61, Some(4 << 20));
        let mut samples = Vec::new();
        live.metric_samples(&mut samples);
        let mem = samples
            .iter()
            .find(|s| s.name == "biq_model_memory_bytes")
            .expect("memory gauge present");
        assert_eq!(mem.label("model"), Some("boot"));
        assert_eq!(mem.label("version"), Some("1"));
        assert!(matches!(mem.value, MetricValue::Gauge(v) if v > 0));
        let loaded = samples.iter().find(|s| s.name == "biq_models_loaded").unwrap();
        assert!(matches!(loaded.value, MetricValue::Gauge(1)));
        let budget = samples.iter().find(|s| s.name == "biq_mem_budget_bytes").unwrap();
        assert!(matches!(budget.value, MetricValue::Gauge(v) if v == 4 << 20));
        let submitted = samples
            .iter()
            .find(|s| s.name == "biq_serve_submitted_total")
            .expect("per-op samples ride along");
        assert_eq!(submitted.label("op"), Some("linear@1"), "versioned display name");
    }
}
