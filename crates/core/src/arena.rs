//! Reusable execution scratch for BiQGEMM — the allocation-free query path.
//!
//! Every BiQGEMM call needs transient state: a [`LutBank`] holding the
//! live lookup tables of the current tile and (inside the bank) the DP
//! step vectors of Algorithm 1. A [`BiqArena`] owns them across calls so
//! the steady state of repeated small-batch inference — the paper's target
//! regime, where per-call allocation is measurable — touches the heap only
//! when a *larger* shape than ever seen arrives.
//!
//! One arena serves every way [`crate::biqgemm_group_into`] can run. It is
//! a set of per-worker slots, each holding one bank, and the persistent
//! [`WorkerSet`] whose helper threads run the row-parallel driver
//! ([`crate::parallel`]). The serial tile loop runs on the calling thread
//! out of slot 0; a parallel task checks a slot out for its lifetime,
//! preferring its worker's own, so two tasks never share a live table
//! ("one lookup table cannot be implemented by coordinating more than two
//! threads" — each table is built and read through exactly one slot at a
//! time) and a worker's bank stays in its core's cache.
//!
//! A slot's bank is keyed by µ alone: a bank built for one key width cannot
//! be reinterpreted under another, so changing µ rebuilds the bank (an
//! explicit, rare cost); each build lays its tables out by its tile's
//! width. All buffers grow monotonically and never shrink.
//!
//! `biq_runtime::Executor` wraps one `BiqArena` (plus baseline-kernel
//! scratch) and runs every kernel family's compiled ops against it.

use crate::config::BiqConfig;
use crate::layout::LutBank;
use crate::parallel::WorkerSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One worker's persistent scratch: a slot's LUT bank, kept while its µ
/// stays the same.
#[derive(Debug, Default)]
pub(crate) struct BankCache(Option<LutBank>);

impl BankCache {
    /// The bank for one kernel run, (re)created when µ differs from the
    /// cached bank's.
    pub(crate) fn get(&mut self, mu: usize) -> &mut LutBank {
        if self.0.as_ref().is_none_or(|b| b.mu() != mu) {
            self.0 = Some(LutBank::new(mu));
        }
        self.0.as_mut().expect("bank just ensured")
    }

    fn resident_bytes(&self) -> usize {
        self.0.as_ref().map_or(0, LutBank::resident_bytes)
    }
}

/// Reusable scratch for [`crate::biqgemm_group_into`], serial and parallel.
///
/// Slots are created on demand (one for a serial run, one per worker for a
/// parallel one) and persist, so steady-state runs reuse warm banks
/// instead of allocating per call or per task.
#[derive(Debug, Default)]
pub struct BiqArena {
    slots: Vec<Mutex<BankCache>>,
    rr: AtomicUsize,
    /// The helper threads parallel runs execute on, beside the slots their
    /// tasks draw from; no helper exists until a parallel run needs one.
    workers: WorkerSet,
}

impl BiqArena {
    /// An empty arena; slots and buffers are created on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the arena to at least `workers` slots (floored at 1).
    pub(crate) fn ensure_slots(&mut self, workers: usize) {
        while self.slots.len() < workers.max(1) {
            self.slots.push(Mutex::default());
        }
    }

    /// Pre-sizes every buffer for runs of `cfg` at batch `b` — a serial run
    /// when `workers` is `None`, a parallel one on that many workers
    /// otherwise — so even the *first* run at that shape allocates nothing
    /// (on the calling thread or inside a task body).
    pub fn reserve(&mut self, cfg: &BiqConfig, b: usize, workers: Option<usize>) {
        let nb = cfg.tile_batch.min(b.max(1));
        let n = workers.map_or(1, |w| w.max(1));
        self.ensure_slots(n);
        for slot in &mut self.slots[..n] {
            let bank = slot.get_mut().expect("arena slot poisoned");
            bank.get(cfg.mu).reserve(cfg.tile_chunks, nb);
        }
    }

    /// The worker set parallel runs execute on (and that callers may run
    /// their own column-parallel regions on, as `biq_nn` does).
    pub fn workers(&self) -> &WorkerSet {
        &self.workers
    }

    /// The calling thread's slot — the serial tile loop's bank lives here.
    pub(crate) fn local(&mut self) -> &mut BankCache {
        self.ensure_slots(1);
        self.slots[0].get_mut().expect("arena slot poisoned")
    }

    /// Checks out one slot for the duration of a parallel task: a try-lock
    /// sweep, starting at the slot of the calling worker's place in the
    /// worker set (so a slot's bank stays in one core's cache), finds a
    /// free slot without blocking; when every slot is busy (more live tasks
    /// than slots) the task queues on a round-robin pick, which stays
    /// correct — just momentarily serialised.
    pub(crate) fn checkout(&self) -> MutexGuard<'_, BankCache> {
        let first = crate::parallel::place() % self.slots.len();
        for slot in self.slots[first..].iter().chain(&self.slots[..first]) {
            if let Ok(guard) = slot.try_lock() {
                return guard;
            }
        }
        let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        self.slots[i].lock().expect("arena slot poisoned")
    }

    /// Bytes of lookup-table data currently resident across every slot.
    pub fn resident_lut_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.lock().expect("arena slot poisoned").resident_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_is_cached_across_same_key_calls() {
        let mut a = BiqArena::new();
        let before = a.local().get(4) as *const LutBank as usize;
        let after = a.local().get(4) as *const LutBank as usize;
        assert_eq!(before, after, "the same µ must not rebuild the bank");
    }

    #[test]
    fn key_change_rebuilds_bank() {
        let mut a = BiqArena::new();
        assert_eq!(a.local().get(4).mu(), 4);
        assert_eq!(a.local().get(8).mu(), 8);
    }
}
