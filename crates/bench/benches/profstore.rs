//! Profile-store benchmarks: the PR-10 serve and build tiers.
//!
//! * `profstore/serve_query_warm` — one `io` what-if query through the
//!   real `balance serve` session (`ServeSession::answer`) against a
//!   warm in-memory artifact: the path the batch service sustains.
//! * `store_query_throughput` — the headline queries/s figure, appended
//!   to the bench JSON through the same `"name": value` line protocol
//!   as the criterion shim and E23. The PR-10 acceptance bar is ≥ 10⁵
//!   queries/s. It times one `format!` and one allocating `answer` per
//!   `io` query, as it has since PR 10, so the trajectory stays
//!   comparable.
//! * `store_query_throughput_mixed` — the path the `balance serve` binary
//!   runs: `ServeSession::answer_into` into one reused buffer, over a
//!   pre-built batch in the serve workload's verb mix (60% `io`, 20%
//!   `intensity`, 15% `balance`, 5% `binding`), each answer written to a
//!   buffered sink.
//! * `store_query_ns.{io,intensity,balance,binding}` — ns per warm
//!   `answer_into` call, one verb at a time, and `balance_over_io`, the
//!   within-run ratio of the `balance` figure to the `io` one (the exact
//!   inverse against a single curve read).
//! * `serve_stream_ns.{repeated,distinct}` — ns per line through
//!   `cmd_serve`, the whole `balance serve` stream (batch file read,
//!   answered, written to `io::sink()`): a batch drawn with repeats in
//!   the serve mix, and a batch of all-distinct `io` lines.
//!   `serve_stream_distinct_over_repeated` is their within-run ratio; an
//!   answer cache on the stream would show as a ratio well above 1.
//! * `store_build_registry` — median wall-clock (ns) of precomputing
//!   the full 11-kernel registry × {16, 32} grid into a fresh store
//!   (every image encoded, checksummed, and atomically published).

use std::io::Write as _;
use std::time::{Duration, Instant};

use balance_bench::cli::Flags;
use balance_bench::storecli::{cmd_serve, ServeSession};
use balance_kernels::prelude::*;
use balance_machine::{FaultPlan, ProfileStore};
use criterion::{criterion_group, criterion_main, Criterion};

const GRID: [usize; 2] = [16, 32];

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kb-bench-profstore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_serve_query(c: &mut Criterion) {
    let dir = tmp_dir("serve");
    let store = ProfileStore::open(&dir).expect("temp store opens");
    let mut session = ServeSession::new(&store, TrafficModel::WORD, None, 1.0e9);
    // First answer repairs the miss and warms the in-memory artifact.
    let _ = session.answer("io matmul 32 64");
    let mut g = c.benchmark_group("profstore");
    let mut m = 16u64;
    g.bench_function("serve_query_warm", |b| {
        b.iter(|| {
            m = 16 + (m * 7 + 11) % 1024;
            session
                .answer(&format!("io matmul 32 {m}"))
                .expect("query answered")
        });
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
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

/// `lines` queries in the serve workload's verb mix — 60% `io`, 20%
/// `intensity`, 15% `balance`, 5% `binding` — over three keys.
fn mixed_batch(lines: usize) -> Vec<String> {
    const KEYS: [&str; 3] = ["matmul 32", "fft 32", "sort 32"];
    const RATIOS: [&str; 3] = ["0.5", "1.0", "2.0"];
    (0..lines)
        .map(|i| {
            let key = KEYS[i % KEYS.len()];
            let m = 16 + (i % 64) * 16;
            match i % 20 {
                0..=11 => format!("io {key} {m}"),
                12..=15 => format!("intensity {key} {m}"),
                16..=18 => format!("balance {key} {}", RATIOS[i % 20 - 16]),
                _ => format!("binding {key} 64:1e8,4096:1e7"),
            }
        })
        .collect()
}

/// The four query verbs, in `store_query_ns.*` order.
const VERBS: [&str; 4] = ["io", "intensity", "balance", "binding"];

/// `lines` queries of one verb over the [`mixed_batch`] keys: every
/// capacity of that batch, the serve workload's ratios, or two ladders.
fn verb_batch(verb: &str, lines: usize) -> Vec<String> {
    const KEYS: [&str; 3] = ["matmul 32", "fft 32", "sort 32"];
    const RATIOS: [&str; 8] = ["0.5", "1.0", "1.5", "2.0", "3.0", "5.0", "8.0", "16.0"];
    const LADDERS: [&str; 2] = ["64:1e8,4096:1e7", "256:5e8,16384:5e7"];
    (0..lines)
        .map(|i| {
            let key = KEYS[i % KEYS.len()];
            match verb {
                "balance" => format!("balance {key} {}", RATIOS[i % RATIOS.len()]),
                "binding" => format!("binding {key} {}", LADDERS[i % LADDERS.len()]),
                _ => format!("{verb} {key} {}", 16 + (i % 64) * 16),
            }
        })
        .collect()
}

fn append_json(line: &str) {
    if let Some(path) = std::env::var_os("BENCH_JSON") {
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

/// The headline numbers, on the same line protocol the bench-smoke
/// script folds into `BENCH_<n>.json`.
fn report_headlines() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();

    // Throughput: warm batch queries through the real serve session.
    let dir = tmp_dir("throughput");
    let store = ProfileStore::open(&dir).expect("temp store opens");
    let mut session = ServeSession::new(&store, TrafficModel::WORD, None, 1.0e9);
    let _ = session.answer("io matmul 32 64");
    let queries: u32 = if smoke { 20_000 } else { 200_000 };
    let elapsed = median_of(if smoke { 3 } else { 5 }, || {
        for i in 0..queries {
            let m = 16 + u64::from(i % 64) * 16;
            criterion::black_box(session.answer(&format!("io matmul 32 {m}")));
        }
    });
    let qps = f64::from(queries) / elapsed.as_secs_f64();
    println!(
        "bench: store_query_throughput                   {qps:.3e} queries/s \
         ({queries} warm io queries in {elapsed:?})"
    );
    append_json(&format!("\"store_query_throughput\": {:.0}\n", qps));
    let _ = std::fs::remove_dir_all(&dir);

    // The binary's path: answer_into over a four-verb batch, one buffer.
    let dir = tmp_dir("mixed");
    let store = ProfileStore::open(&dir).expect("temp store opens");
    let mut session = ServeSession::new(&store, TrafficModel::WORD, None, 1.0e9);
    let batch = mixed_batch(if smoke { 20_000 } else { 200_000 });
    let mut answer = String::new();
    let mut sink = std::io::BufWriter::new(std::io::sink());
    let mut serve_batch = || {
        for line in &batch {
            answer.clear();
            if session.answer_into(line, &mut answer) {
                answer.push('\n');
                sink.write_all(answer.as_bytes()).expect("sink accepts");
            }
        }
    };
    // The first pass repairs the batch's keys into the empty store.
    serve_batch();
    let elapsed = median_of(if smoke { 3 } else { 5 }, &mut serve_batch);
    let qps = batch.len() as f64 / elapsed.as_secs_f64();
    println!(
        "bench: store_query_throughput_mixed             {qps:.3e} queries/s \
         ({} warm mixed queries in {elapsed:?})",
        batch.len()
    );
    append_json(&format!("\"store_query_throughput_mixed\": {:.0}\n", qps));

    // Per verb, on the same warm session: ns per answered query.
    let per_query = |batch: &[String], session: &mut ServeSession<'_>| {
        let mut answer = String::new();
        let elapsed = median_of(if smoke { 5 } else { 9 }, || {
            for line in batch {
                answer.clear();
                criterion::black_box(session.answer_into(line, &mut answer));
            }
        });
        elapsed.as_nanos() as f64 / batch.len() as f64
    };
    let lines = if smoke { 20_000 } else { 200_000 };
    let mut ns = Vec::new();
    for verb in VERBS {
        let t = per_query(&verb_batch(verb, lines), &mut session);
        println!("bench: store_query_ns.{verb:<30} {t:.1} ns/query");
        append_json(&format!("\"store_query_ns.{verb}\": {t:.1}\n"));
        ns.push(t);
    }
    let ratio = ns[2] / ns[0];
    println!("bench: balance_over_io                         {ratio:.3} (balance ns / io ns)");
    append_json(&format!("\"balance_over_io\": {ratio:.3}\n"));

    // The binary's whole stream over the same warm store: a repeated-draw
    // batch, then one whose io lines are all distinct.
    let lines = 100_000;
    let distinct: Vec<String> = (0..lines)
        .map(|i| format!("io {} {}", ["matmul 32", "fft 32", "sort 32"][i % 3], 16 + i))
        .collect();
    let mut ns = Vec::new();
    for (tag, batch) in [("repeated", mixed_batch(lines)), ("distinct", distinct)] {
        let path = dir.with_extension(format!("{tag}.batch"));
        std::fs::write(&path, batch.join("\n") + "\n").expect("batch file writes");
        let args = ["--store", &dir.to_string_lossy(), "--batch", &path.to_string_lossy()]
            .map(String::from);
        let flags = Flags::parse(&args).expect("serve flags parse");
        let elapsed = median_of(if smoke { 5 } else { 9 }, || {
            cmd_serve(&flags, &mut std::io::sink()).expect("serve runs")
        });
        let t = elapsed.as_nanos() as f64 / lines as f64;
        println!("bench: serve_stream_ns.{tag:<29} {t:.1} ns/line");
        append_json(&format!("\"serve_stream_ns.{tag}\": {t:.1}\n"));
        ns.push(t);
        let _ = std::fs::remove_file(&path);
    }
    let ratio = ns[1] / ns[0];
    println!(
        "bench: serve_stream_distinct_over_repeated     {ratio:.3} (distinct ns / repeated ns)"
    );
    append_json(&format!("\"serve_stream_distinct_over_repeated\": {ratio:.3}\n"));
    let _ = std::fs::remove_dir_all(&dir);

    // Build: the full registry x grid into a fresh store each run.
    let kernels = registry();
    let build = median_of(3, || {
        let dir = tmp_dir("build");
        let store = ProfileStore::open(&dir).expect("temp store opens");
        let outcome = build_store(
            &store,
            &kernels,
            &GRID,
            TrafficModel::WORD,
            None,
            &FaultPlan::none(),
        )
        .expect("build completes");
        assert!(outcome.failed.is_empty(), "no grid point fails");
        let _ = std::fs::remove_dir_all(&dir);
        outcome.built
    });
    println!(
        "bench: store_build_registry                     {} ns \
         ({} kernels x {:?} grid)",
        build.as_nanos(),
        kernels.len(),
        GRID
    );
    append_json(&format!("\"store_build_registry\": {}\n", build.as_nanos()));
}

fn bench_headlines(_c: &mut Criterion) {
    report_headlines();
}

criterion_group!(benches, bench_serve_query, bench_headlines);
criterion_main!(benches);
