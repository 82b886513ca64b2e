//! Executed-sweep benchmarks: the wall-clock cost of verification on the
//! matmul intensity sweep at `n = 96`, points fanned out over
//! `available_parallelism` scoped workers.
//!
//! * `parallel_full` — every point recomputing the `O(n³)` reference.
//! * `parallel_freivalds` — the production configuration: the same points
//!   with anchored `O(n²)` Freivalds checks.
//!
//! The medians land in `BENCH_<n>.json` via the bench-smoke script, so the
//! verification share is tracked across PRs.

use balance_kernels::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};

fn matmul_cfg(verify: Verify) -> SweepConfig {
    SweepConfig {
        n: 96,
        memories: [4usize, 6, 8, 12, 16, 24, 32, 48]
            .iter()
            .map(|b| 3 * b * b)
            .collect(),
        seed: 1,
        verify,
        engine: Engine::Replay,
        ..SweepConfig::default()
    }
}

fn bench_sweep_executors(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_matmul_n96");
    g.sample_size(10);
    let full = matmul_cfg(Verify::Full);
    let cheap = matmul_cfg(Verify::Freivalds { rounds: 2 });
    g.bench_function("parallel_full", |b| {
        b.iter(|| sweep(&MatMul, &full).expect("verified"));
    });
    g.bench_function("parallel_freivalds", |b| {
        b.iter(|| sweep(&MatMul, &cheap).expect("verified"));
    });
    g.finish();
}

fn bench_ladder_sweep(c: &mut Criterion) {
    use balance_core::{LevelSpec, Words, WordsPerSec};
    let mut g = c.benchmark_group("ladder_sweep_matmul_n96");
    g.sample_size(10);
    // The production two-level configuration: every transferred word also
    // walks a 16 K-word L2 model, so this bench prices the per-level
    // accounting against the flat parallel sweep above.
    let cfg = SweepConfig {
        outer: vec![
            LevelSpec::new(Words::new(16384), WordsPerSec::new(1.0e7)).expect("valid level"),
        ],
        ..matmul_cfg(Verify::Freivalds { rounds: 2 })
    };
    g.bench_function("two_level_parallel", |b| {
        b.iter(|| sweep(&MatMul, &cfg).expect("verified"));
    });
    g.finish();
}

fn bench_trace_streaming(c: &mut Criterion) {
    let mut g = c.benchmark_group("lru_trace");
    g.sample_size(10);
    // The E13 inner loop at a size whose trace (3n³ = 6M addresses) would
    // be 48 MB materialized: stream it through both cache backends.
    let n = 128usize;
    let bound = 3 * (n as u64) * (n as u64);
    g.bench_function("direct_indexed", |b| {
        b.iter(|| {
            let mut cache = balance_machine::LruCache::with_address_bound(3072, 1, bound);
            cache.run_trace(balance_kernels::matmul::NaiveTrace::new(n).map(|a| a.addr))
        });
    });
    g.bench_function("hashed_fallback", |b| {
        b.iter(|| {
            let mut cache = balance_machine::LruCache::new(3072, 1);
            cache.run_trace(balance_kernels::matmul::NaiveTrace::new(n).map(|a| a.addr))
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sweep_executors,
    bench_ladder_sweep,
    bench_trace_streaming
);
criterion_main!(benches);
