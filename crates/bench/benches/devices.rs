//! Device-traffic benchmarks: the wall-clock price of line granularity
//! and the dirty-write-back ledger (PR 9).
//!
//! * `line_granular_sweep/engine_stackdist_word` — the word-granular
//!   baseline: the 16-point matmul `n = 96` one-pass sweep on the legacy
//!   miss-curve path (same config `stack_distance` times).
//! * `line_granular_sweep/engine_stackdist_line8` — the identical sweep
//!   under the device model (8-word lines, write-backs ledgered): one
//!   tagged pass yields both the read and write-back curves. The ledger's
//!   overhead over the word baseline is the dirty-chain accounting.
//! * `line_granular_sweep/engine_replay_line8` — the dirty-LRU replay
//!   reference (one tagged replay per capacity, bit-identical points
//!   pinned by property test), the sweep the one-pass tier amortizes.
//!
//! `blocked_vs_naive_line_win` is the PR-9 headline ratio, appended to
//! `BENCH_9.json` through the same `"name": value` line protocol the
//! criterion shim and E23 use: how much more blocked matmul beats naive
//! at 8-word lines than at word granularity (E26 measures ~8.7× at
//! `n = 48`, `b = 8`, `M = 256` — tiles use every word of every fetched
//! line, naive's stride-`n` walk through `B` wastes 7 of 8).

use balance_bench::experiments::devices::blocked_vs_naive_line_win;
use balance_kernels::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};

fn sweep_cfg(engine: Engine, model: TrafficModel) -> SweepConfig {
    SweepConfig {
        n: 96,
        memories: (2..=17u32).map(|k| 1usize << k).collect(), // 16 points
        seed: 1,
        verify: Verify::None,
        engine,
        measure: Measure::CacheModel,
        ..SweepConfig::default()
    }
    .with_traffic(model)
}

fn bench_line_granular_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("line_granular_sweep");
    g.sample_size(10);
    g.bench_function("engine_stackdist_word", |b| {
        b.iter(|| {
            sweep(&MatMul, &sweep_cfg(Engine::StackDist, TrafficModel::WORD))
                .expect("traced")
        });
    });
    g.bench_function("engine_stackdist_line8", |b| {
        b.iter(|| {
            sweep(&MatMul, &sweep_cfg(Engine::StackDist, TrafficModel::device(8)))
                .expect("traced")
        });
    });
    g.bench_function("engine_replay_line8", |b| {
        b.iter(|| {
            sweep(&MatMul, &sweep_cfg(Engine::Replay, TrafficModel::device(8)))
                .expect("traced")
        });
    });
    g.finish();
}

/// Computes the E26 line-win ratio once and appends it as
/// `blocked_vs_naive_line_win` (dimensionless, > 1 means lines reward
/// blocking beyond the word-granular prediction).
fn report_line_win() {
    let win = blocked_vs_naive_line_win(48, 8, 256);
    println!(
        "bench: blocked_vs_naive_line_win                {win:.2}x \
         (naive/blocked read words at 8-word lines over 1-word, n = 48, b = 8, M = 256)"
    );
    if let Some(path) = std::env::var_os("BENCH_JSON") {
        use std::io::Write as _;
        let line = format!("\"blocked_vs_naive_line_win\": {win:.2}\n");
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

fn bench_line_win(_c: &mut Criterion) {
    report_line_win();
}

criterion_group!(benches, bench_line_granular_sweep, bench_line_win);
criterion_main!(benches);
