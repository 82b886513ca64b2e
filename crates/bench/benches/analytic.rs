//! Analytic-engine benchmarks: the wall-clock case for zero-replay sweeps.
//!
//! * `capacity_sweep_matmul_n96/engine_analytic` — the same 16-point
//!   matmul sweep the `stack_distance` bench times on the replay-based
//!   engines, drawn instead from the closed-form reuse-distance histogram
//!   (`Kernel::analytic_profile`, bit-identical points pinned by property
//!   test). No trace is generated; the cost is `O(n)` in the histogram
//!   piece count, independent of the 3·96³-address trace length.
//! * `analytic_vs_stackdist_speedup` — the headline ratio, appended to
//!   `BENCH_8.json` through the same `"name": value` line protocol the
//!   criterion shim and E23 use: median one-pass stack-distance sweep
//!   time over median analytic sweep time on the identical 16-point
//!   config. The PR-8 target is ≥ 100×; the ratio grows with `n` (the
//!   replay is Θ(n³), the histogram Θ(n)).

use std::time::{Duration, Instant};

use balance_kernels::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};

fn sweep_cfg(engine: Engine) -> SweepConfig {
    SweepConfig {
        n: 96,
        memories: (2..=17u32).map(|k| 1usize << k).collect(), // 16 points
        seed: 1,
        verify: Verify::None,
        engine,
        measure: Measure::CacheModel,
        ..SweepConfig::default()
    }
}

fn bench_analytic_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("capacity_sweep_matmul_n96");
    g.sample_size(10);
    g.bench_function("engine_analytic", |b| {
        b.iter(|| sweep(&MatMul, &sweep_cfg(Engine::Analytic)).expect("covered"));
    });
    g.finish();
}

/// Median wall-clock of `runs` evaluations of `f`.
fn median_of<O>(runs: usize, mut f: impl FnMut() -> O) -> Duration {
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            criterion::black_box(f());
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Times the identical 16-point sweep on both tiers and appends the
/// dimensionless ratio as `analytic_vs_stackdist_speedup` (same line
/// protocol as the criterion shim / E23, folded into `BENCH_8.json` by
/// the bench-smoke script).
fn report_speedup() {
    // Warm both paths once so neither median pays the cold start.
    let _ = sweep(&MatMul, &sweep_cfg(Engine::StackDist)).expect("traced");
    let _ = sweep(&MatMul, &sweep_cfg(Engine::Analytic)).expect("covered");
    let stackdist = median_of(5, || {
        sweep(&MatMul, &sweep_cfg(Engine::StackDist)).expect("traced")
    });
    let analytic = median_of(101, || {
        sweep(&MatMul, &sweep_cfg(Engine::Analytic)).expect("covered")
    });
    let speedup = stackdist.as_nanos() / analytic.as_nanos().max(1);
    println!(
        "bench: analytic_vs_stackdist_speedup            {speedup}x \
         (stackdist {stackdist:?} / analytic {analytic:?}, n = 96, 16 points)"
    );
    if let Some(path) = std::env::var_os("BENCH_JSON") {
        use std::io::Write as _;
        let line = format!("\"analytic_vs_stackdist_speedup\": {speedup}\n");
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = written {
            eprintln!("warning: BENCH_JSON write to {path:?} failed: {e}");
        }
    }
}

fn bench_speedup(_c: &mut Criterion) {
    report_speedup();
}

criterion_group!(benches, bench_analytic_sweep, bench_speedup);
criterion_main!(benches);
