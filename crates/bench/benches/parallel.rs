//! Criterion benchmarks for the parallel architectures (experiments E8–E9
//! and the E21 measured multi-PE sweep).

use balance_core::{GrowthLaw, Words};
use balance_kernels::{workload, Verify};
use balance_parallel::systolic::givens::triangularize;
use balance_parallel::systolic::matmul::systolic_matmul;
use balance_parallel::{
    analytic_series, parallel_sweep, ParMatMul, ParallelSweepConfig, Topology, TopologyKind,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_systolic_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("E9_systolic_matmul");
    for n in [8usize, 16, 32] {
        let a = workload::random_matrix(n, 1);
        let b = workload::random_matrix(n, 2);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| systolic_matmul(&a, &b, n));
        });
    }
    g.finish();
}

fn bench_systolic_givens(c: &mut Criterion) {
    let mut g = c.benchmark_group("E9_systolic_givens");
    for n in [8usize, 16, 32] {
        let a = workload::random_matrix(n, 3);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| triangularize(&a, n));
        });
    }
    g.finish();
}

fn bench_scaling_series(c: &mut Criterion) {
    let ps: Vec<u64> = (1..=64).collect();
    let law = GrowthLaw::Polynomial { degree: 2.0 };
    c.bench_function("E8_linear_array_series_64", |b| {
        b.iter(|| {
            analytic_series(TopologyKind::Linear, law, Words::new(4096), &ps).expect("series")
        });
    });
    c.bench_function("E9_mesh_series_64", |b| {
        b.iter(|| analytic_series(TopologyKind::Mesh, law, Words::new(4096), &ps).expect("series"));
    });
}

fn bench_parallel_sweep(c: &mut Criterion) {
    // The E21 production configuration: matmul at n = 48 across 1/2/4-PE
    // linear machines and a pow2 per-PE memory ladder, anchored Freivalds
    // verification — prices the whole measured-§4 pipeline (distributed
    // big tiles, ring rotation, two-ledger accounting).
    let cfg = ParallelSweepConfig::new(
        48,
        vec![
            Topology::linear(1).expect("valid"),
            Topology::linear(2).expect("valid"),
            Topology::linear(4).expect("valid"),
        ],
        (5..=10).map(|k| 1usize << k).collect(),
        1,
    )
    .with_verify(Verify::Freivalds { rounds: 2 });
    let mut g = c.benchmark_group("parallel_sweep_matmul_n48");
    g.sample_size(10);
    g.bench_function("linear_1_2_4", |b| {
        b.iter(|| parallel_sweep(&ParMatMul, &cfg).expect("verified"));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_systolic_matmul,
    bench_systolic_givens,
    bench_scaling_series,
    bench_parallel_sweep
);
criterion_main!(benches);
