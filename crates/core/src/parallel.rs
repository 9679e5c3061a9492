//! Multi-threaded BiQGEMM: the row-parallel driver under
//! [`crate::biqgemm_into`], and the persistent [`WorkerSet`] it runs on.
//!
//! Output rows are partitioned into disjoint blocks, one task per block.
//! Each task runs the serial tile loop over its rows, **building its own
//! copy of every LUT tile** and reusing it for the whole block — the
//! paper's premise that a table's build pays off across many output rows.
//! No barriers or shared mutable state; build work is replicated across
//! tasks, which wins when query work dominates (`m ≫ 2^µ`), the regime
//! BiQGEMM targets. A grouped run ([`crate::tiled::biqgemm_group_into`])
//! splits the members' concatenated rows, so each copy serves every
//! member's rows in its block.
//!
//! The result is bit-identical to the serial kernel, for every worker
//! count: per output element the accumulation order over (plane,
//! chunk-tile, chunk) is unchanged — threads only partition *independent*
//! output elements.
//!
//! The worker count is an argument, handed down from the plan that
//! resolved it; nothing here (or anywhere in the workspace) reads a
//! process-wide thread setting. Every per-task LUT bank (DP steps
//! included) comes out of the caller's [`BiqArena`] slots, which persist
//! across calls.
//!
//! ## The worker set
//!
//! [`WorkerSet::for_each_chunk_mut`] is the workspace's one threading
//! primitive: the row-parallel driver here, the `biq_gemm` parallel drivers
//! and the `biq_nn` column regions (attention, GELU, residual add + layer
//! norm, the linear transpose) run on it. A set belongs to whoever runs the
//! plan: a [`BiqArena`] holds one next to its per-task slots, so every
//! `biq_runtime::Executor` owns one. Nothing is process-global.
//!
//! * It holds at most `workers − 1` helper threads. They are spawned by
//!   the first region that asks for them (a serial plan never does) and
//!   joined when the set drops.
//! * The calling thread runs tasks too. Chunks are handed out by index from
//!   one atomic cursor, so a region allocates nothing and a helper that
//!   wakes late simply finds less work.
//! * After a region a helper polls for the next one for [`SPIN`], then
//!   parks. Measured on the 2-vCPU AVX-512 reference VM (p50): a 2-task
//!   region costs ≈ 0.9–1.4 µs with a polling helper and ≈ 24–26 µs with
//!   a parked one, against ≈ 54 µs for the 2-thread `std::thread::scope`
//!   every region used to spawn. A parallel `encoder_b32` forward opens 32
//!   regions, 7 µs apart at the median and at most ≈ 110 µs, so its helper
//!   never parks mid-forward.
//! * A panic in any task is re-raised on the caller, once, after every
//!   helper has left the region; the set stays usable.
//! * A region started while the set is busy, from inside one of its own
//!   tasks or from a second thread, runs inline on its caller.
//!
//! **Protocol.** One 64-bit word, `region`, holds the region's sequence
//! number, an `OPEN` bit, how many helpers it admits and how many are
//! inside. The owner publishes the task, then stores a new sequence number
//! with `OPEN` set and unparks the helpers. A helper enters with a CAS that
//! requires the sequence number it saw, `OPEN` and a free place, and
//! leaves with a decrement. The owner works through the tasks, clears
//! `OPEN` (no helper can enter after that) and waits until nobody is
//! inside. Every `unsafe` block below rests on the invariant this gives:
//! **the caller of a region does not return or unwind until every helper
//! that entered the region has left it.**

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::arena::BiqArena;
use crate::config::BiqConfig;
use crate::profile::PhaseProfile;
use crate::simd::ResolvedKernel;
use crate::tiled::run_tiles;
use crate::weights::BiqWeights;
use biq_matrix::ColMatrix;
use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a helper keeps polling for the next region after its last one
/// before it parks. It covers the gaps between a forward's regions with a
/// wide margin (≤ ≈ 110 µs measured; several hundred µs where a model runs
/// its non-GEMM work serially) and the gap between back-to-back forwards;
/// an idle set burns at most this much of a core before it sleeps.
pub const SPIN: Duration = Duration::from_micros(500);

/// `region` bits 0..16: helpers inside the region.
const INSIDE: u64 = 0xffff;
/// `region` bits 16..32: how many helpers the region admits.
const CAP_SHIFT: u32 = 16;
/// Most helpers one region can admit.
const MAX_HELPERS: usize = 0xffff;
/// `region` bit 32: helpers may enter.
const OPEN: u64 = 1 << 32;
/// `region` bits 33..64: the region's sequence number.
const SEQ_ONE: u64 = 1 << 33;
const SEQ: u64 = !(SEQ_ONE - 1);

thread_local! {
    /// This thread's place in the worker set it serves: helper `k` holds
    /// `k`, every other thread (a region's owner included) 0.
    static PLACE: Cell<usize> = const { Cell::new(0) };
}

/// The calling thread's place in its worker set (0 for a region's owner,
/// `k` for helper `k`): what per-worker scratch is keyed by, so a worker
/// keeps reusing the slot its own core's cache already holds.
pub(crate) fn place() -> usize {
    PLACE.with(Cell::get)
}

/// One region's work: task `i` of `0..tasks`.
type Task<'a> = dyn Fn(usize) + Sync + 'a;

/// A persistent set of helper threads that runs parallel regions: the
/// workspace's one threading primitive (module docs, "The worker set").
#[derive(Default)]
pub struct WorkerSet {
    /// `None` until the first region that needs a helper.
    pool: Mutex<Option<Pool>>,
}

impl WorkerSet {
    /// A set with no helpers yet; they start on the first parallel region.
    pub fn new() -> Self {
        Self::default()
    }

    /// Helper threads alive (not counting the callers that own regions).
    pub fn helpers(&self) -> usize {
        lock(&self.pool).as_ref().map_or(0, |p| p.helpers.len())
    }

    /// Runs `f(index, chunk)` for every `chunk_size`-element chunk of
    /// `slice` (the last may be shorter) on the calling thread and up to
    /// `workers − 1` helpers. Chunks are disjoint `&mut` slices, handed out
    /// by index from a shared cursor, so uneven chunks still balance.
    ///
    /// With one worker or a single chunk this is a plain loop on the
    /// calling thread that touches neither a helper nor the allocator; so
    /// is a region started while this set already runs one. Otherwise the
    /// region allocates nothing once the set has its helpers. A panic in
    /// `f` is re-raised here after every helper has left the region.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero, and re-raises a panic of `f`.
    pub fn for_each_chunk_mut<T, F>(&self, slice: &mut [T], chunk_size: usize, workers: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_size > 0, "chunk size must be positive");
        let (len, chunks) = (slice.len(), slice.len().div_ceil(chunk_size));
        let helpers = workers.min(chunks).saturating_sub(1).min(MAX_HELPERS);
        let guard = if helpers == 0 {
            None
        } else {
            match self.pool.try_lock() {
                Ok(guard) => Some(guard),
                Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
                // Busy: one of this set's own tasks started this region,
                // or another thread runs one.
                Err(TryLockError::WouldBlock) => None,
            }
        };
        let Some(guard) = guard else {
            slice.chunks_mut(chunk_size).enumerate().for_each(|(i, c)| f(i, c));
            return;
        };
        let base = SlicePtr(slice.as_mut_ptr());
        let task = move |i: usize| {
            let start = i * chunk_size;
            // SAFETY: `i < chunks`, so `[start, start + n)` lies inside
            // `slice`, which stays mutably borrowed until the region ends;
            // the region hands out each index once, so no two live chunks
            // overlap — the same disjoint split `chunks_mut` makes.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(base.get().add(start), chunk_size.min(len - start))
            };
            f(i, chunk);
        };
        run_region(guard, chunks, helpers, &task);
    }
}

impl std::fmt::Debug for WorkerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // No lock: formatting must not wait on (or deadlock inside) a region.
        f.debug_struct("WorkerSet").finish_non_exhaustive()
    }
}

/// A slice's base pointer, shared with the helpers of one region.
struct SlicePtr<T>(*mut T);

impl<T> SlicePtr<T> {
    /// A method, not a field read, so closures capture the whole wrapper.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointer is only turned into disjoint `&mut [T]` chunks, one
// per claimed index (`for_each_chunk_mut`), and handing `&mut [T]` to
// another thread needs exactly `T: Send`.
unsafe impl<T: Send> Sync for SlicePtr<T> {}

/// The helper threads and the state they share with region owners.
struct Pool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new() -> Self {
        let shared = Shared {
            region: AtomicU64::new(0),
            job: Mutex::new((None, 0)),
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        };
        Self { shared: Arc::new(shared), helpers: Vec::new() }
    }

    /// Spawns helpers until `want` exist (or spawning fails) and returns
    /// how many the next region may admit.
    fn grow(&mut self, want: usize) -> usize {
        while self.helpers.len() < want {
            let shared = Arc::clone(&self.shared);
            // Start from the last published region, so the next is new.
            let seen = shared.region.load(Ordering::Relaxed) & SEQ;
            let place = self.helpers.len() + 1;
            let spawned =
                thread::Builder::new().name(format!("biq-worker-{place}")).spawn(move || {
                    PLACE.with(|p| p.set(place));
                    helper(&shared, seen)
                });
            match spawned {
                Ok(handle) => self.helpers.push(handle),
                Err(_) => break,
            }
        }
        want.min(self.helpers.len())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Only an owner with `&mut` drops the pool, so no region is open.
        self.shared.shutdown.store(true, Ordering::Release);
        for h in &self.helpers {
            h.thread().unpark();
        }
        for h in self.helpers.drain(..) {
            // Task panics are caught inside the helper loop.
            let _ = h.join();
        }
    }
}

/// What the helpers of a set share with the thread that owns the region.
struct Shared {
    /// Sequence number, `OPEN`, admitted and inside counts (module docs).
    region: AtomicU64,
    /// The open region's task and task count, set before it opens.
    job: Mutex<(Option<&'static Task<'static>>, usize)>,
    /// The open region's next unclaimed task index. `Relaxed` throughout:
    /// it publishes no data. The owner resets it before the `Release` store
    /// that opens a region, and helpers read it only after their `Acquire`
    /// entry, so every claim sees the reset.
    next: AtomicUsize,
    /// The first panic payload of the open region.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    shutdown: AtomicBool,
}

impl Shared {
    /// Claims and runs tasks until none are left, catching panics: after
    /// one, no further task is handed out and the first payload is kept.
    fn work(&self, run: &Task<'_>, tasks: usize) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| run(i))) {
                self.next.store(tasks, Ordering::Relaxed);
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }

    /// Counts the calling helper into region `seq` while it is open and
    /// below its cap; `s` is the last `region` word the helper read.
    fn enter(&self, mut s: u64, seq: u64) -> bool {
        while s & SEQ == seq && s & OPEN != 0 && s & INSIDE < (s >> CAP_SHIFT) & INSIDE {
            match self.region.compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(now) => s = now,
            }
        }
        false
    }
}

/// A helper thread's life: poll for a new region (for [`SPIN`] after the
/// last one, then parked), join it if there is room, run tasks, leave.
fn helper(shared: &Shared, mut seen: u64) {
    let mut idle = Instant::now();
    let mut polls = 0u32;
    loop {
        let s = shared.region.load(Ordering::Acquire);
        if s & SEQ == seen {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            polls = polls.wrapping_add(1);
            // The clock is read once every 64 polls.
            if !polls.is_multiple_of(64) || idle.elapsed() < SPIN {
                std::hint::spin_loop();
            } else {
                thread::park();
            }
            continue;
        }
        seen = s & SEQ;
        if shared.enter(s, seen) {
            let (run, tasks) = *lock(&shared.job);
            if let Some(run) = run {
                shared.work(run, tasks);
            }
            shared.region.fetch_sub(1, Ordering::Release);
        }
        idle = Instant::now();
    }
}

/// Runs one region of `tasks` tasks on the calling thread and up to
/// `helpers` helpers of the pool behind `guard`, which the caller holds
/// for the whole region.
fn run_region(
    mut guard: MutexGuard<'_, Option<Pool>>,
    tasks: usize,
    helpers: usize,
    task: &Task<'_>,
) {
    let pool = guard.get_or_insert_with(Pool::new);
    let helpers = pool.grow(helpers);
    let shared = &*pool.shared;
    // SAFETY: only the lifetime is extended. Helpers call the task only
    // while counted inside this region, and this function neither returns
    // nor unwinds before it has closed the region and seen that count reach
    // zero (task panics are caught in `work`); the job slot is cleared
    // before it returns.
    let run = unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
    *lock(&shared.job) = (Some(run), tasks);
    shared.next.store(0, Ordering::Relaxed);
    let seq = (shared.region.load(Ordering::Relaxed) & SEQ).wrapping_add(SEQ_ONE);
    shared.region.store(seq | OPEN | ((helpers as u64) << CAP_SHIFT), Ordering::Release);
    for h in &pool.helpers[..helpers] {
        h.thread().unpark();
    }
    shared.work(task, tasks);
    // Close, then drain: the Acquire loads see every write the helpers made
    // before their Release decrement.
    let mut s = shared.region.fetch_and(!OPEN, Ordering::Acquire);
    let mut polls = 0u32;
    while s & INSIDE != 0 {
        polls = polls.saturating_add(1);
        if polls < 128 {
            std::hint::spin_loop();
        } else {
            // Still waiting: the helper may share this core; let it run.
            thread::yield_now();
        }
        s = shared.region.load(Ordering::Acquire);
    }
    *lock(&shared.job) = (None, 0);
    let payload = lock(&shared.panic).take();
    drop(guard);
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// Locks `m`, ignoring poisoning: no code path panics while holding these
/// locks, and task panics are caught before they could reach one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Rows-per-task sizing: enough tasks for load balance, big enough blocks to
/// amortise the replicated LUT builds.
fn rows_per_task(m: usize, workers: usize) -> usize {
    m.div_ceil(workers).max(16.min(m.max(1)))
}

/// The row-parallel run over a zeroed `y` (the members' outputs stacked,
/// as in [`crate::tiled::biqgemm_group_into`]) on up to `workers` (≥ 1)
/// threads: each task runs the serial tile loop over its block of the
/// members' concatenated output rows, building its own copy of every LUT
/// tile — one copy per task, whatever members its block covers — in a bank
/// drawn from `arena`'s slots.
pub(crate) fn row_parallel(
    ws: &[&BiqWeights],
    x: &ColMatrix,
    cfg: &BiqConfig,
    kernel: ResolvedKernel,
    workers: usize,
    arena: &BiqArena,
    y: &mut [f32],
) {
    let b = x.cols();
    let Some(first) = ws.first() else { return };
    if b == 0 {
        return;
    }
    let rows: usize = ws.iter().map(|w| w.output_size()).sum();
    let rpt = rows_per_task(rows, workers);
    arena.workers().for_each_chunk_mut(y, rpt * b, workers, |t, yblock| {
        let row0 = t * rpt;
        let mut slot = arena.checkout();
        let mut profile = PhaseProfile::new();
        let bank = slot.get(first.mu());
        run_tiles(ws, x, cfg, kernel, &mut profile, bank, row0..row0 + yblock.len() / b, yblock);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiled::biqgemm_into;
    use biq_matrix::{Matrix, MatrixRng};
    use biq_quant::greedy_quantize_matrix_rowwise;

    /// Worker counts every parallel test sweeps: inline, the common case,
    /// an uneven split, and more workers than most shapes have row blocks.
    const WORKERS: [usize; 4] = [1, 2, 3, 7];

    #[test]
    fn chunks_see_disjoint_data_and_all_of_it() {
        let set = WorkerSet::new();
        for workers in WORKERS {
            let mut v = vec![0u32; 103];
            set.for_each_chunk_mut(&mut v, 10, workers, |i, c| c.fill(i as u32 + 1));
            let want: Vec<u32> = (0..103).map(|k| k / 10 + 1).collect();
            assert_eq!(v, want, "{workers} workers");
        }
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let mut v: Vec<u64> = (0..1000).collect();
        WorkerSet::new()
            .for_each_chunk_mut(&mut v, 7, 4, |_, c| c.iter_mut().for_each(|x| *x *= 3));
        assert_eq!(v.iter().sum::<u64>(), 3 * (999 * 1000 / 2));
    }

    /// Blocks until `n` tasks have called it, so a region of `n` tasks that
    /// calls it from every task needs `n` threads at once: every helper it
    /// admits plus the caller.
    fn meet(arrived: &AtomicUsize, n: usize) {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(60);
        while arrived.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "a helper never joined the region");
            thread::yield_now();
        }
    }

    /// Runs a region of `workers` one-element tasks that all meet, and
    /// returns the thread that ran each task.
    fn rendezvous(set: &WorkerSet, workers: usize) -> Vec<thread::ThreadId> {
        let arrived = AtomicUsize::new(0);
        let mut ids = vec![thread::current().id(); workers];
        set.for_each_chunk_mut(&mut ids, 1, workers, |_, id| {
            meet(&arrived, workers);
            id[0] = thread::current().id();
        });
        ids
    }

    #[test]
    fn one_worker_or_one_chunk_runs_on_the_calling_thread() {
        let set = WorkerSet::new();
        let caller = thread::current().id();
        let on_caller = |_: usize, c: &mut [u8]| {
            assert_eq!(thread::current().id(), caller);
            c.fill(1);
        };
        let mut v = vec![0u8; 64];
        set.for_each_chunk_mut(&mut v, 8, 1, on_caller);
        set.for_each_chunk_mut(&mut v, 64, 8, on_caller);
        set.for_each_chunk_mut(&mut v[..0], 8, 8, on_caller);
        assert_eq!(set.helpers(), 0, "no helper was started for an inline region");
        // ... and with both above one, a helper takes part.
        let ids = rendezvous(&set, 2);
        assert_eq!(set.helpers(), 1);
        assert!(ids.contains(&caller) && ids.iter().any(|id| *id != caller), "{ids:?}");
    }

    #[test]
    fn every_thread_of_a_region_takes_part() {
        let set = WorkerSet::new();
        for workers in WORKERS {
            let mut ids = rendezvous(&set, workers);
            ids.sort_by_key(|id| format!("{id:?}"));
            ids.dedup();
            assert_eq!(ids.len(), workers, "{workers} workers");
        }
        assert_eq!(set.helpers(), 6, "the set grew to the widest region and kept its helpers");
    }

    #[test]
    fn a_task_panic_propagates_once_and_the_set_stays_usable() {
        let set = WorkerSet::new();
        let caller = thread::current().id();
        for (who, helper_panics, caller_panics) in
            [("helper", true, false), ("caller", false, true), ("both", true, true)]
        {
            let arrived = AtomicUsize::new(0);
            let mut v = [0u8; 2];
            let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
                set.for_each_chunk_mut(&mut v, 1, 2, |_, _| {
                    meet(&arrived, 2);
                    let on_caller = thread::current().id() == caller;
                    if on_caller && caller_panics {
                        panic!("caller task failed");
                    }
                    if !on_caller && helper_panics {
                        panic!("helper task failed");
                    }
                })
            }));
            let payload = unwound.expect_err(who);
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            match who {
                "helper" => assert_eq!(msg, "helper task failed"),
                "caller" => assert_eq!(msg, "caller task failed"),
                _ => assert!(msg.ends_with("task failed"), "{msg}"),
            }
            // The next region runs, on the same helper.
            let ids = rendezvous(&set, 2);
            assert!(ids.iter().any(|id| *id != caller), "after a {who} panic: {ids:?}");
            assert_eq!(set.helpers(), 1);
        }
    }

    #[test]
    fn dropping_the_set_joins_every_helper() {
        let set = WorkerSet::new();
        let _ = rendezvous(&set, 4);
        assert_eq!(set.helpers(), 3);
        let shared = Arc::downgrade(&lock(&set.pool).as_ref().expect("pool started").shared);
        drop(set);
        // Each helper holds the shared state until its thread ends.
        assert!(shared.upgrade().is_none(), "a helper outlived its set");
    }

    #[test]
    fn a_region_inside_a_region_runs_inline() {
        let set = WorkerSet::new();
        let mut v = vec![0u32; 64];
        set.for_each_chunk_mut(&mut v, 16, 2, |_, outer| {
            let me = thread::current().id();
            set.for_each_chunk_mut(outer, 4, 2, |j, inner| {
                assert_eq!(thread::current().id(), me, "a nested region runs inline");
                inner.fill(j as u32 + 1);
            });
        });
        let want: Vec<u32> = (0..64).map(|k| (k % 16) / 4 + 1).collect();
        assert_eq!(v, want);
    }

    #[test]
    fn back_to_back_regions_hand_out_every_chunk_exactly_once() {
        let set = WorkerSet::new();
        let mut v = vec![0u32; 37];
        for _ in 0..10_000 {
            set.for_each_chunk_mut(&mut v, 3, 3, |_, c| c.iter_mut().for_each(|x| *x += 1));
        }
        assert!(v.iter().all(|&x| x == 10_000), "{v:?}");
    }

    fn kernel_of(cfg: &BiqConfig) -> ResolvedKernel {
        cfg.kernel.resolve().expect("test kernel request must resolve")
    }

    fn run(w: &BiqWeights, x: &ColMatrix, cfg: &BiqConfig, workers: Option<usize>) -> Matrix {
        let mut y = Matrix::zeros(w.output_size(), x.cols());
        let (mut p, mut arena) = (PhaseProfile::new(), BiqArena::new());
        biqgemm_into(w, x, cfg, kernel_of(cfg), workers, &mut p, &mut arena, y.as_mut_slice());
        y
    }

    /// Every worker count must reproduce the serial run bit for bit.
    fn assert_parallel_matches_serial(w: &BiqWeights, x: &ColMatrix, cfg: &BiqConfig, what: &str) {
        let serial = run(w, x, cfg, None);
        for workers in WORKERS {
            assert_eq!(
                run(w, x, cfg, Some(workers)).as_slice(),
                serial.as_slice(),
                "{what} on {workers} workers"
            );
        }
    }

    #[test]
    fn row_parallel_matches_serial_bit_exactly() {
        let mut g = MatrixRng::seed_from(250);
        for &(m, n, b, bits, tile_chunks, tile_batch) in &[
            (40usize, 64usize, 6usize, 1usize, 2usize, 4usize),
            (100, 50, 3, 2, 2, 4),
            (17, 33, 9, 3, 2, 4),
            // Ragged chunk and batch tiles.
            (40, 64, 6, 1, 3, 5),
            (64, 80, 12, 2, 3, 5),
        ] {
            let wf = g.small_int_matrix(m, n, 2);
            let q = greedy_quantize_matrix_rowwise(&wf, bits);
            let x = g.small_int_col(n, b, 2);
            let w = BiqWeights::from_multibit(&q, 8);
            let cfg = BiqConfig { tile_rows: 8, tile_chunks, tile_batch, ..BiqConfig::default() };
            assert_parallel_matches_serial(
                &w,
                &x,
                &cfg,
                &format!("(m,n,b,bits,tiles)=({m},{n},{b},{bits},{tile_chunks}x{tile_batch})"),
            );
        }
    }

    #[test]
    fn row_parallel_batchmajor_matches() {
        // Batch-major column tables and KeyMajor tiles alike: every batch
        // width on both sides of the column-table bound, and a 2-wide tile
        // split of each.
        let mut g = MatrixRng::seed_from(252);
        let signs = g.signs(30, 40);
        let w = BiqWeights::from_signs_unscaled(&signs, 4);
        for b in 1..=crate::layout::COLUMN_TABLES_MAX + 2 {
            let x = g.small_int_col(40, b, 3);
            for tile_batch in [2, b] {
                let cfg = BiqConfig {
                    mu: 4,
                    tile_rows: 4,
                    tile_chunks: 3,
                    tile_batch,
                    ..BiqConfig::default()
                };
                assert_parallel_matches_serial(&w, &x, &cfg, &format!("b = {b}/{tile_batch}"));
            }
        }
    }

    #[test]
    fn single_row_matrix_parallel() {
        let mut g = MatrixRng::seed_from(253);
        let signs = g.signs(1, 64);
        let x = g.small_int_col(64, 2, 3);
        let w = BiqWeights::from_signs_unscaled(&signs, 8);
        assert_parallel_matches_serial(&w, &x, &BiqConfig::default(), "m = 1");
    }

    #[test]
    fn empty_batch_parallel() {
        let mut g = MatrixRng::seed_from(254);
        let signs = g.signs(4, 8);
        let x = ColMatrix::zeros(8, 0);
        let w = BiqWeights::from_signs_unscaled(&signs, 4);
        let cfg = BiqConfig { mu: 4, ..BiqConfig::default() };
        assert_eq!(run(&w, &x, &cfg, Some(2)).shape(), (4, 0));
    }

    #[test]
    fn one_arena_serves_repeat_calls_and_serial_runs() {
        // One arena serves parallel runs of different widths, the serial
        // loop and repeated calls; results stay bit-identical throughout.
        let mut g = MatrixRng::seed_from(255);
        let signs = g.signs(48, 72);
        let x = g.small_int_col(72, 5, 2);
        let w = BiqWeights::from_signs_unscaled(&signs, 8);
        let (mut arena, mut p) = (BiqArena::new(), PhaseProfile::new());
        let cfg = BiqConfig { tile_rows: 8, tile_chunks: 2, tile_batch: 3, ..BiqConfig::default() };
        for workers in [Some(4), Some(4), None, Some(2)] {
            arena.reserve(&cfg, x.cols(), workers);
            let mut y = vec![0.0f32; 48 * 5];
            biqgemm_into(&w, &x, &cfg, kernel_of(&cfg), workers, &mut p, &mut arena, &mut y);
            assert_eq!(y, run(&w, &x, &cfg, None).as_slice(), "{workers:?}");
        }
        assert!(arena.resident_lut_bytes() > 0, "row-parallel banks stay resident");
    }

    #[test]
    fn fewer_slots_than_live_tasks_still_correct() {
        // `biqgemm_into` grows the arena to the worker count, so the
        // driver is called directly here: one slot under several live
        // tasks forces `checkout`'s round-robin fallback.
        let mut g = MatrixRng::seed_from(256);
        let signs = g.signs(128, 64);
        let x = g.small_int_col(64, 3, 2);
        let w = BiqWeights::from_signs_unscaled(&signs, 8);
        let cfg = BiqConfig { tile_rows: 8, tile_chunks: 2, tile_batch: 2, ..BiqConfig::default() };
        let mut arena = BiqArena::new();
        arena.ensure_slots(1);
        for workers in WORKERS {
            let mut y = vec![0.0f32; 128 * 3];
            row_parallel(&[&w], &x, &cfg, kernel_of(&cfg), workers, &arena, &mut y);
            assert_eq!(y, run(&w, &x, &cfg, None).as_slice(), "{workers} workers");
        }
    }
}
