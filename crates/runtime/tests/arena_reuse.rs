//! Arena-reuse guarantee: once the executor has run a plan once, a repeat
//! run performs **zero heap allocation** — serial plans on the calling
//! thread, parallel plans on the caller and on every helper of the
//! executor's worker set — measured with a counting global allocator, not
//! inferred.
//!
//! This is the acceptance gate for the plan/executor refactor: the seed's
//! per-call `LutBank`, accumulator and DP-step allocations are gone from
//! the steady state of small-batch (`b ≤ 8`) inference, the paper's target
//! serving regime.

use biq_matrix::MatrixRng;
use biq_runtime::{
    compile, BackendSpec, Executor, PlanBuilder, QuantMethod, Threading, WeightSource, WorkerSet,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Counts allocations made through the global allocator **per thread, and
/// only while that thread is inside [`count_allocs`]**. `cargo test` runs
/// the tests of this binary on parallel threads; a process-wide counter
/// would charge one test's set-up allocations to another test's measured
/// region. Thread-local, armed-only counting makes each zero-allocation
/// assertion see exactly the allocations of its own measured code, at any
/// `--test-threads`.
struct CountingAlloc;

thread_local! {
    // `const` initialisers with no destructor: touching these from inside
    // the allocator never allocates or registers a TLS destructor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Runs `f` as the measured region and returns how many times the calling
/// thread allocated inside it.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(|n| n.get())
}

#[test]
fn serial_small_batch_steady_state_allocates_nothing() {
    // The paper's serving regime: small batch against a large-ish matrix —
    // column tables, and KeyMajor banks of padded entry strides 8 and 16.
    for b in [1usize, 4, 5, 7, 8, 9, 13] {
        let mut g = MatrixRng::seed_from(0xa0 + b as u64);
        let (m, n) = (256, 512);
        let signs = g.signs(m, n);
        let x = g.small_int_col(n, b, 3);
        let plan = PlanBuilder::new(m, n)
            .batch_hint(b)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .threading(Threading::Serial)
            .build();
        let op = compile(&plan, WeightSource::Signs(&signs));
        let mut exec = Executor::warmed_for(&op);
        let mut y = vec![0.0f32; m * b];

        // First run may still touch the allocator in theory; it is the
        // warm-up. Steady state starts at run two.
        exec.run_into(&op, &x, &mut y);
        let allocs = count_allocs(|| {
            for _ in 0..16 {
                exec.run_into(&op, &x, &mut y);
            }
        });
        assert_eq!(
            allocs, 0,
            "b = {b}: query phase allocated {allocs} times in 16 steady-state runs"
        );
    }
}

#[test]
fn warmed_executor_is_allocation_free_from_the_first_run() {
    // The bank `warmed_for` reserves through the one entry-stride rule must
    // hold the padded KeyMajor tile of every width.
    for b in [4usize, 5, 7, 9, 13] {
        let mut g = MatrixRng::seed_from(0xa9);
        let (m, n) = (128, 384);
        let signs = g.signs(m, n);
        let x = g.small_int_col(n, b, 3);
        let plan = PlanBuilder::new(m, n)
            .batch_hint(b)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .threading(Threading::Serial)
            .build();
        let op = compile(&plan, WeightSource::Signs(&signs));
        let mut exec = Executor::warmed_for(&op);
        let mut y = vec![0.0f32; m * b];
        let allocs = count_allocs(|| exec.run_into(&op, &x, &mut y));
        assert_eq!(allocs, 0, "b = {b}: warmed first run allocated {allocs} times");
    }
}

#[test]
fn fp32_blocked_steady_state_allocates_nothing() {
    // The dense serving path shares the arena's pack panel.
    let mut g = MatrixRng::seed_from(0xaa);
    let (m, n, b) = (128, 256, 6);
    let w = g.gaussian(m, n, 0.0, 1.0);
    let x = g.gaussian_col(n, b, 0.0, 1.0);
    let plan = PlanBuilder::new(m, n)
        .batch_hint(b)
        .backend(BackendSpec::Fp32Blocked)
        .threading(Threading::Serial)
        .build();
    let op = compile(&plan, WeightSource::Dense(&w));
    let mut exec = Executor::warmed_for(&op);
    let mut y = vec![0.0f32; m * b];
    exec.run_into(&op, &x, &mut y);
    let allocs = count_allocs(|| {
        for _ in 0..8 {
            exec.run_into(&op, &x, &mut y);
        }
    });
    assert_eq!(allocs, 0, "blocked fp32 steady state allocated");
}

#[test]
fn parallel_steady_state_allocates_nothing_per_worker() {
    // The row-parallel driver draws every per-task LUT bank (DP steps
    // included) from the executor's persistent per-worker slots. The plan's
    // worker count is what executes: at `threads(1)` the driver runs inline
    // with no thread spawns — whatever the host's core count — so the
    // counting allocator can observe its own behaviour: after warm-up,
    // repeat parallel runs must not touch the heap at all.
    use biqgemm_core::BiqConfig;
    let mut g = MatrixRng::seed_from(0xb0);
    let (m, n, b) = (256, 512, 16);
    let signs = g.signs(m, n);
    let x = g.small_int_col(n, b, 3);
    let plan = PlanBuilder::new(m, n)
        .batch_hint(b)
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
        .config(BiqConfig::default())
        .threads(1)
        .threading(Threading::Parallel)
        .build();
    let op = compile(&plan, WeightSource::Signs(&signs));
    let mut exec = Executor::warmed_for(&op);
    let mut y = vec![0.0f32; m * b];
    exec.run_into(&op, &x, &mut y); // warm-up run
    let allocs = count_allocs(|| {
        for _ in 0..8 {
            exec.run_into(&op, &x, &mut y);
        }
    });
    assert_eq!(allocs, 0, "parallel steady state allocated {allocs} times in 8 runs");
}

/// Runs `f` once on every helper of `set`'s next `workers`-wide region: the
/// region's tasks wait for each other, so each of its `workers` threads
/// runs exactly one; the caller's own task skips `f`. Returns the sum of
/// what the helpers' calls returned.
fn on_each_helper(set: &WorkerSet, workers: usize, f: impl Fn() -> u64 + Sync) -> u64 {
    let (arrived, sum) = (AtomicUsize::new(0), AtomicU64::new(0));
    let caller = std::thread::current().id();
    let mut tasks = vec![0u8; workers];
    set.for_each_chunk_mut(&mut tasks, 1, workers, |_, _| {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(60);
        while arrived.load(Ordering::SeqCst) < workers {
            assert!(Instant::now() < deadline, "a helper never joined the region");
            std::thread::yield_now();
        }
        if std::thread::current().id() != caller {
            sum.fetch_add(f(), Ordering::SeqCst);
        }
    });
    sum.into_inner()
}

#[test]
fn warmed_two_worker_run_allocates_nothing_on_caller_or_helpers() {
    // The regime the encoder's parallel build runs in: b = 32 on two
    // workers. A region hands chunks out by index from the executor's
    // persistent worker set, so once the helper exists and the slots are
    // warm, neither thread may touch the heap: no per-call chunk list, no
    // thread spawn, no per-task scratch.
    use biqgemm_core::BiqConfig;
    let mut g = MatrixRng::seed_from(0xc0);
    let (m, n, b) = (512, 512, 32);
    let signs = g.signs(m, n);
    let x = g.small_int_col(n, b, 3);
    let plan = PlanBuilder::new(m, n)
        .batch_hint(b)
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
        .config(BiqConfig::default())
        .threads(2)
        .threading(Threading::Parallel)
        .build();
    let op = compile(&plan, WeightSource::Signs(&signs));
    let mut exec = Executor::warmed_for(&op);
    let mut y = vec![0.0f32; m * b];
    exec.run_into(&op, &x, &mut y); // warm-up run: starts the helper
    assert_eq!(exec.workers().helpers(), 1);
    on_each_helper(exec.workers(), 2, || {
        ALLOCS.with(|n| n.set(0));
        ARMED.with(|a| a.set(true));
        0
    });
    let on_caller = count_allocs(|| {
        for _ in 0..8 {
            exec.run_into(&op, &x, &mut y);
        }
    });
    let on_helper = on_each_helper(exec.workers(), 2, || {
        ARMED.with(|a| a.set(false));
        ALLOCS.with(|n| n.get())
    });
    assert_eq!(
        (on_caller, on_helper),
        (0, 0),
        "8 warmed 2-worker runs allocated (caller, helper) times"
    );
}

#[test]
fn warmed_grouped_run_allocates_nothing_on_caller_or_helpers() {
    // An attention block's Q/K/V shape: three ops over one input, run as one
    // grouped run (one LUT build per tile for all three). Warmed per op, the
    // group needs no scratch beyond what each op's own run would: serially,
    // and on two workers with the caller and the helper both counted.
    use biq_runtime::CompiledOp;
    for workers in [None, Some(2)] {
        let mut g = MatrixRng::seed_from(0xd0);
        let (n, b) = (512, 32);
        let ops: Vec<CompiledOp> = [512usize, 256, 128]
            .iter()
            .map(|&m| {
                // One config for all three: the planner's own pick depends
                // on m, and ops only group when their configs agree.
                let builder = PlanBuilder::new(m, n)
                    .batch_hint(b)
                    .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
                    .config(biqgemm_core::BiqConfig::default());
                let plan = match workers {
                    Some(w) => builder.threads(w).threading(Threading::Parallel),
                    None => builder.threading(Threading::Serial),
                }
                .build();
                compile(&plan, WeightSource::Signs(&g.signs(m, n)))
            })
            .collect();
        let group: Vec<&CompiledOp> = ops.iter().collect();
        let mut exec = Executor::new();
        for op in &ops {
            exec.warm(op);
        }
        let x = g.small_int_col(n, b, 3);
        let mut y = vec![0.0f32; (512 + 256 + 128) * b];
        exec.run_group_into(&group, &x, &mut y); // warm-up run: starts any helper
        let arm = || {
            ALLOCS.with(|n| n.set(0));
            ARMED.with(|a| a.set(true));
            0
        };
        let read = || {
            ARMED.with(|a| a.set(false));
            ALLOCS.with(|n| n.get())
        };
        if workers.is_some() {
            on_each_helper(exec.workers(), 2, arm);
        }
        let on_caller = count_allocs(|| {
            for _ in 0..8 {
                exec.run_group_into(&group, &x, &mut y);
            }
        });
        let on_helper = if workers.is_some() { on_each_helper(exec.workers(), 2, read) } else { 0 };
        assert_eq!(
            (on_caller, on_helper),
            (0, 0),
            "{workers:?}: 8 warmed grouped runs allocated (caller, helper) times"
        );
    }
}
