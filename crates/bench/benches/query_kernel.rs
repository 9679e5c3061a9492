//! Criterion microbench: the query/accumulate kernel under the two LUT
//! layouts (Fig. 6 ablation — KeyMajor should win for batched inputs), plus
//! the arena-reuse ablation (one-shot legacy facade vs warmed executor).

use biq_bench::workloads::binary_workload;
use biq_runtime::{compile, BackendSpec, Executor, PlanBuilder, QuantMethod, WeightSource};
use biqgemm_core::config::{BiqConfig, LutLayout};
use biqgemm_core::BiqGemm;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_query_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_layout");
    group.sample_size(20);
    let (m, n) = (2048, 1024);
    for b in [1usize, 32] {
        let w = binary_workload(m, n, b);
        for (name, layout) in
            [("key_major", LutLayout::KeyMajor), ("batch_major", LutLayout::BatchMajor)]
        {
            let engine =
                BiqGemm::from_signs(&w.signs, BiqConfig { layout, ..BiqConfig::default() });
            group.bench_with_input(BenchmarkId::new(name, b), &b, |bch, _| {
                bch.iter(|| black_box(engine.matmul(black_box(&w.x))));
            });
        }
    }
    group.finish();
}

fn bench_kernel_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_kernel_level");
    group.sample_size(20);
    let (m, n, b) = (2048, 1024, 32);
    let w = binary_workload(m, n, b);
    for level in biqgemm_core::simd::supported_levels() {
        let cfg =
            BiqConfig { kernel: biqgemm_core::KernelRequest::Exact(level), ..BiqConfig::default() };
        let engine = BiqGemm::from_signs(&w.signs, cfg);
        group.bench_function(level.name(), |bch| {
            bch.iter(|| black_box(engine.matmul(black_box(&w.x))));
        });
    }
    group.finish();
}

/// The refactor's headline: per-call allocation (legacy one-shot facade)
/// vs the executor's warmed arena, in the paper's small-batch regime. Both
/// sides run the identical `BiqConfig::default()` tile shapes so the only
/// difference is scratch reuse.
fn bench_arena_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_reuse");
    group.sample_size(20);
    for (m, n, b) in [(512usize, 512usize, 1usize), (512, 512, 8), (2048, 1024, 1)] {
        let w = binary_workload(m, n, b);
        let engine = BiqGemm::from_signs(&w.signs, BiqConfig::default());
        let id = format!("{m}x{n}_b{b}");
        group.bench_with_input(BenchmarkId::new("one_shot", &id), &b, |bch, _| {
            bch.iter(|| black_box(engine.matmul(black_box(&w.x))));
        });
        let plan = PlanBuilder::new(m, n)
            .batch_hint(b)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .config(BiqConfig::default())
            .build();
        let op = compile(&plan, WeightSource::Signs(&w.signs));
        let mut exec = Executor::warmed_for(&op);
        let mut y = vec![0.0f32; m * b];
        group.bench_with_input(BenchmarkId::new("executor_arena", &id), &b, |bch, _| {
            bch.iter(|| exec.run_into(&op, black_box(&w.x), black_box(&mut y)));
        });
    }
    group.finish();
}

/// The b = 1 serving path in isolation: `lut_gather` — the vectorized
/// width-1 query realising the canonical 8-partial accumulation tree —
/// per kernel level, over a full output column's worth of key rows
/// (m rows × n/µ chunks, the inner loop `layout.rs` runs for width-1
/// tiles). The end-to-end b = 1 numbers live in `arena_reuse` and
/// `BENCH_simd.json`; this group isolates the gather body itself.
fn bench_width1_gather(c: &mut Criterion) {
    use biq_matrix::MatrixRng;
    use biq_quant::packing::KeyMatrix;
    use biqgemm_core::simd::{lut_gather, supported_levels};
    let mut group = c.benchmark_group("width1_gather");
    group.sample_size(20);
    let (m, n, mu) = (512usize, 512usize, 8usize);
    let chunks = n / mu;
    let table = 1usize << mu;
    // One width-1 bank (chunk c's table at bank[c*table..][..table]) and a
    // seeded key row per output row — no Criterion-visible setup in the
    // timed body. Keys reach the kernel the way they do in production: as
    // tiles of a validated `KeyMatrix`.
    let bank: Vec<f32> = (0..chunks * table)
        .map(|i| ((i as u32).wrapping_mul(2654435761) >> 8) as f32 / 1e7 - 0.8)
        .collect();
    let keys = KeyMatrix::pack(&MatrixRng::seed_from(40503).signs(m, n), mu);
    let tile = keys.tile(0..m, 0, chunks);
    for level in supported_levels() {
        let k = biqgemm_core::KernelRequest::Exact(level).resolve().expect("supported");
        group.bench_function(level.name(), |bch| {
            bch.iter(|| {
                let mut acc = 0.0f32;
                for i in 0..m {
                    acc += lut_gather(black_box(&bank), table, tile.row(i), k);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_query_layouts,
    bench_kernel_levels,
    bench_arena_reuse,
    bench_width1_gather
);
criterion_main!(benches);
