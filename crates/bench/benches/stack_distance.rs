//! Stack-distance engine benchmarks: the wall-clock case for one-pass
//! capacity sweeps.
//!
//! * `capacity_sweep_matmul_n96/engine_replay` — the reference executor:
//!   the 3·96³-address canonical matmul trace replayed through an actual
//!   LRU once per capacity, 16 capacities.
//! * `capacity_sweep_matmul_n96/engine_stackdist` — the same 16-point
//!   sweep from **one** replay through the Mattson engine (bit-identical
//!   points, pinned by property test).
//! * `capacity_sweep_matmul_n96/engine_stackdist_par` — the segmented
//!   parallel Mattson tier (`stackdist-par`, one time range per core),
//!   same bit-identical 16 points; on a multi-core runner the per-range
//!   passes overlap, and the boundary merge is the serial residue.
//! * `capacity_sweep_matmul_n96/engine_sampled` — the SHARDS-style
//!   hash-sampled tier at rate 1/16, the approximate engine E23 drives
//!   across a 10⁹-address trace.
//! * `stackdist/histogram_direct` vs `stackdist/lru_direct` — the
//!   per-access price of histogram accounting against a plain
//!   direct-indexed LRU replay at one capacity (the engine's log-factor
//!   overhead, which the sweep amortizes across its points).
//! * `stackdist/histogram_renamed` — the same histogram through
//!   `StackDistance::profile_of`, which promises no address bound and so
//!   renames each address to a dense id on its first touch.
//! * `histogram_renamed_over_direct` — the within-run ratio of the two
//!   histogram passes: what renaming costs per access.
//! * `stackdist/histogram_capped` — the direct histogram pass capped at
//!   depth 4096 (`StackDistance::with_depth`), the largest capacity of a
//!   default `balance sweep`: a 16K-slot space instead of 2 · 3·96².
//! * `capped_over_direct` — the within-run ratio of the capped pass over
//!   the uncapped direct one on the same trace.
//!
//! * `checkpoint_overhead/off` vs `checkpoint_overhead/every_2e24` vs
//!   `checkpoint_overhead/every_2e20` — the per-address price of the
//!   resumable replay's checkpoint countdown (PR 7): at the production
//!   default interval (2²⁴ addresses) the policy machinery must stay
//!   within ~5% of the plain replay; the 2²⁰ tier adds real image
//!   writes to show the amortized persistence cost. All three tiers get
//!   one untimed warm-up pass before any is timed (PR 8): `BENCH_7.json`
//!   recorded the baseline *slower* than the checkpointed replay because
//!   the first-run tier alone paid the cold-start cost.
//!
//! * `trace_gen/{fft,triangularization,matmul}` — the chunked trace
//!   generators alone: each drains the curve-sized canonical trace (fft
//!   2¹⁸, triangularization 256, matmul 192 — the `curve` benchmark's
//!   three sweeps) through its iterator view.
//! * `trace_gen_over_histogram_direct` — the within-run ratio of draining
//!   the matmul n = 96 trace over the direct histogram pass on the same
//!   trace (`stackdist/histogram_direct`): the share of a Mattson pass
//!   that trace generation costs. Dimensionless, so it compares across
//!   ledger files where absolute medians do not.
//!
//! The medians land in `BENCH_8.json` via the bench-smoke script
//! (alongside the `bigtrace/*` wall-clocks E23 appends); the tentpole
//! target is `engine_replay / engine_stackdist ≥ 3×` on the 16-point
//! sweep, and checkpointing at the default interval within ~5% of
//! `checkpoint_overhead/off`.

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

fn bench_capacity_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("capacity_sweep_matmul_n96");
    g.sample_size(10);
    g.bench_function("engine_replay", |b| {
        b.iter(|| sweep(&MatMul, &sweep_cfg(Engine::Replay)).expect("traced"));
    });
    g.bench_function("engine_stackdist", |b| {
        b.iter(|| sweep(&MatMul, &sweep_cfg(Engine::StackDist)).expect("traced"));
    });
    g.bench_function("engine_stackdist_par", |b| {
        b.iter(|| {
            sweep(&MatMul, &sweep_cfg(Engine::StackDistPar { threads: 0 }))
                .expect("traced")
        });
    });
    g.bench_function("engine_sampled", |b| {
        b.iter(|| {
            sweep(&MatMul, &sweep_cfg(Engine::Sampled { shift: 4 })).expect("traced")
        });
    });
    g.finish();
}

fn bench_engine_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("stackdist");
    g.sample_size(10);
    let n = 96usize;
    let bound = 3 * (n as u64) * (n as u64);
    g.bench_function("histogram_direct", |b| {
        b.iter(|| {
            let mut engine = balance_machine::StackDistance::with_address_bound(bound);
            engine.observe_trace(balance_kernels::matmul::NaiveTrace::new(n).map(|a| a.addr));
            engine.into_profile()
        });
    });
    g.bench_function("histogram_capped", |b| {
        b.iter(|| {
            let mut engine = balance_machine::StackDistance::with_address_bound(bound)
                .with_depth(CAPPED_DEPTH);
            engine.observe_trace(balance_kernels::matmul::NaiveTrace::new(n).map(|a| a.addr));
            engine.into_profile()
        });
    });
    g.bench_function("histogram_renamed", |b| {
        b.iter(|| {
            balance_machine::StackDistance::profile_of(
                balance_kernels::matmul::NaiveTrace::new(n).map(|a| a.addr),
            )
        });
    });
    g.bench_function("lru_direct", |b| {
        b.iter(|| {
            let mut cache = balance_machine::LruCache::with_address_bound(3072, 1, bound);
            cache.run_trace(balance_kernels::matmul::NaiveTrace::new(n).map(|a| a.addr))
        });
    });
    g.finish();
}

/// Drains a kernel's canonical trace at `n` through its tagged view.
fn drain_trace(kernel: &dyn Kernel, n: usize) -> usize {
    kernel.access_trace(n).expect("in domain").into_accesses().count()
}

fn bench_trace_gen(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_gen");
    g.sample_size(10);
    g.bench_function("fft", |b| b.iter(|| drain_trace(&Fft, 1 << 18)));
    g.bench_function("triangularization", |b| {
        b.iter(|| drain_trace(&Triangularization, 256));
    });
    g.bench_function("matmul", |b| b.iter(|| drain_trace(&MatMul, 192)));
    g.finish();
}

/// Median wall-clock of `runs` evaluations of `f`.
fn median_of<O>(runs: usize, mut f: impl FnMut() -> O) -> std::time::Duration {
    let mut samples: Vec<std::time::Duration> = (0..runs)
        .map(|_| {
            let t = std::time::Instant::now();
            criterion::black_box(f());
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Prints a within-run ratio and appends it as `"name": ratio` (the
/// criterion shim's line protocol, folded into `BENCH_<n>.json` by the
/// bench-smoke script).
fn report_ratio(name: &str, ratio: f64, detail: &str) {
    println!("bench: {name:<40} {ratio:.3} ({detail})");
    if let Some(path) = std::env::var_os("BENCH_JSON") {
        use std::io::Write as _;
        let line = format!("\"{name}\": {ratio:.3}\n");
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

/// Timing runs per side of a within-run ratio.
fn ratio_runs() -> usize {
    if std::env::var_os("BENCH_SMOKE").is_some() {
        3
    } else {
        7
    }
}

/// The depth cap of `stackdist/histogram_capped`: the largest capacity of
/// a default `balance sweep` (2⁵ … 2¹² words).
const CAPPED_DEPTH: u64 = 1 << 12;

/// The direct histogram pass over the matmul trace at `n`, capped at
/// `depth` (`u64::MAX` = uncapped).
fn histogram(n: usize, depth: u64) -> balance_machine::CapacityProfile {
    let bound = 3 * (n as u64) * (n as u64);
    let mut engine = balance_machine::StackDistance::with_address_bound(bound).with_depth(depth);
    engine.observe_trace(balance_kernels::trace::matmul(n).expect("in domain").into_addrs());
    engine.into_profile()
}

/// The uncapped direct histogram pass over the matmul trace at `n`.
fn histogram_direct(n: usize) -> balance_machine::CapacityProfile {
    histogram(n, u64::MAX)
}

/// Times trace generation against the direct histogram pass over the
/// same matmul n = 96 trace, interleaved in one run:
/// `trace_gen_over_histogram_direct`.
fn bench_trace_gen_ratio(_c: &mut Criterion) {
    let n = 96usize;
    let runs = ratio_runs();
    let _ = (drain_trace(&MatMul, n), histogram_direct(n)); // warm both paths
    let gen = median_of(runs, || drain_trace(&MatMul, n));
    let pass = median_of(runs, || histogram_direct(n));
    let ratio = gen.as_secs_f64() / pass.as_secs_f64().max(1e-9);
    report_ratio(
        "trace_gen_over_histogram_direct",
        ratio,
        &format!("trace_gen {gen:?} / histogram_direct {pass:?}, matmul n = {n}"),
    );
}

/// Times the renaming histogram pass (`StackDistance::profile_of`)
/// against the direct one over the same matmul n = 96 trace, in one run:
/// `histogram_renamed_over_direct`.
fn bench_renamed_ratio(_c: &mut Criterion) {
    let n = 96usize;
    let renamed = || {
        balance_machine::StackDistance::profile_of(
            balance_kernels::trace::matmul(n).expect("in domain").into_addrs(),
        )
    };
    let runs = ratio_runs();
    assert_eq!(renamed(), histogram_direct(n), "renaming changed the profile");
    let direct = median_of(runs, || histogram_direct(n));
    let pass = median_of(runs, renamed);
    let ratio = pass.as_secs_f64() / direct.as_secs_f64().max(1e-9);
    report_ratio(
        "histogram_renamed_over_direct",
        ratio,
        &format!("histogram_renamed {pass:?} / histogram_direct {direct:?}, matmul n = {n}"),
    );
}

/// Times the direct histogram pass capped at [`CAPPED_DEPTH`] against the
/// uncapped one over the same matmul n = 96 trace, in one run:
/// `capped_over_direct`.
fn bench_capped_ratio(_c: &mut Criterion) {
    let n = 96usize;
    let runs = ratio_runs();
    let (capped, direct) = (histogram(n, CAPPED_DEPTH), histogram_direct(n));
    for m in (0..=12).map(|k| 1u64 << k) {
        assert_eq!(capped.misses_at(m), direct.misses_at(m), "the cap changed m = {m}");
    }
    let direct = median_of(runs, || histogram_direct(n));
    let pass = median_of(runs, || histogram(n, CAPPED_DEPTH));
    let ratio = pass.as_secs_f64() / direct.as_secs_f64().max(1e-9);
    report_ratio(
        "capped_over_direct",
        ratio,
        &format!(
            "histogram_capped {pass:?} / histogram_direct {direct:?}, matmul n = {n}, \
             depth {CAPPED_DEPTH}"
        ),
    );
}

fn bench_checkpoint_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint_overhead");
    g.sample_size(10);
    let n = 96usize;
    let bound = 3 * (n as u64) * (n as u64);
    let len = 3 * (n as u64).pow(3);
    let fresh = move || balance_machine::StackDistance::with_address_bound(bound);
    let run_off = move || {
        let mut engine = fresh();
        engine.observe_trace(balance_kernels::matmul::NaiveTrace::new(n).map(|a| a.addr));
        engine.into_profile()
    };
    let dir = std::env::temp_dir().join(format!("balance-bench-ckpt-{}", std::process::id()));
    let policies: Vec<(u64, balance_machine::CheckpointPolicy)> = [1u64 << 24, 1 << 20]
        .into_iter()
        .map(|every| (every, balance_machine::CheckpointPolicy::every(dir.clone(), every)))
        .collect();
    let run_ckpt = move |policy: &balance_machine::CheckpointPolicy| {
        let mut ctl = balance_machine::ReplayControl::new("bench");
        ctl.policy = Some(policy);
        let (engine, _) = balance_machine::resumable_replay(
            len,
            balance_kernels::trace::matmul(n).expect("in domain").into_addrs(),
            fresh,
            &ctl,
        )
        .expect("no faults armed");
        engine.into_profile()
    };
    // One untimed pass of every tier before any is timed: all three then
    // share the same warmed allocator, trace generator, and checkpoint
    // directory, so run order can no longer masquerade as checkpoint
    // overhead (BENCH_7.json recorded `off` ~20% SLOWER than
    // `every_2e24` purely because `off` ran first, cold).
    criterion::black_box(run_off());
    for (_, policy) in &policies {
        criterion::black_box(run_ckpt(policy));
    }
    // Baseline: the plain uncheckpointed replay of the same trace.
    g.bench_function("off", |b| b.iter(run_off));
    for (every, policy) in &policies {
        g.bench_function(format!("every_2e{}", every.trailing_zeros()), |b| {
            b.iter(|| run_ckpt(policy));
        });
    }
    drop(policies);
    let _ = std::fs::remove_dir_all(&dir);
    g.finish();
}

criterion_group!(
    benches,
    bench_capacity_sweep,
    bench_engine_overhead,
    bench_trace_gen,
    bench_trace_gen_ratio,
    bench_renamed_ratio,
    bench_capped_ratio,
    bench_checkpoint_overhead
);
criterion_main!(benches);
