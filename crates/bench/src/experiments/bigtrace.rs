//! Experiment E23 (bigtrace): a billion-address capacity curve in one
//! streamed pass, on the scaled engines.
//!
//! PR 5's one-pass engine made every curve in the paper a single replay;
//! this experiment exercises the *scaled* tiers. At `--scale large` (the
//! CI smoke tier) the trace is an order of magnitude beyond E13's: the
//! naive matmul trace at `n = 700` is `3·700³ = 1.029 × 10⁹` addresses
//! over a `3·700² = 1.47M`-word address space, streamed in O(1) memory
//! per generator; the default small tier replays the same pipeline at
//! `n = 176` (~16M addresses) so the debug-build test suite can afford
//! it. It produces the 16-point `IO(M)` curve twice:
//!
//! * **segmented parallel Mattson** (`Engine::StackDistPar`): the stream
//!   split into one time range per core, per-range histograms merged
//!   exactly — bit-identical to the serial engine (pinned by proptest;
//!   spot-checked here at small `n`). Under `BALANCE_CKPT_DIR` the exact
//!   pass is checkpointed, so it runs on the serial resumable replay
//!   instead, and the header names the engine that ran;
//! * **SHARDS-style sampling** (`Engine::Sampled`, rate 1/16): the
//!   hash-sampled approximate curve, whose max relative IO error against
//!   the exact curve is reported and asserted.
//!
//! Wall-clocks for both passes are reported, and appended to the
//! `BENCH_JSON` file (as `bigtrace/...` members of `BENCH_6.json`) when
//! the bench-smoke harness asks, so the speedup trajectory is tracked
//! alongside the criterion benches.

use std::time::Instant;

use balance_kernels::matmul::MatMul;
use balance_kernels::sweep::{self, engine_spec, Engine, Measure, SweepConfig, SweepResult};
use balance_kernels::Verify;
use balance_machine::{CheckpointPolicy, DEFAULT_CHECKPOINT_EVERY};

use crate::experiments::Scale;
use crate::report::{Finding, Report};

/// Sampling-rate exponent for the approximate pass (rate 1/16).
const SHIFT: u32 = 4;

/// Per-tier problem size and error budget. `Small` (the default tier the
/// test suite replays in debug builds) keeps the same 16-point pipeline
/// on a ~16M-address trace; `Large` — the CI smoke tier — is the
/// billion-address run the experiment exists for: `3·700³ ≥ 10⁹`.
/// The sampled-error budget widens at the small tier because rate-1/16
/// sampling of a `3·176² ≈ 93K`-word address space keeps only ~5.8K
/// addresses, so the law of large numbers has less to work with; at the
/// large tier SHARDS reports ≪ 1% on real workloads and 2% leaves
/// statistical headroom.
fn tier(scale: Scale) -> (usize, u64, f64) {
    match scale {
        Scale::Small => (176, 10_000_000, 0.05),
        Scale::Large => (700, 1_000_000_000, 0.02),
    }
}

/// The checkpoint policy requested through the environment, if any:
/// `BALANCE_CKPT_DIR` names the image directory (the kill/resume CI
/// smoke job sets it before SIGKILLing the run) and `BALANCE_CKPT_EVERY`
/// overrides the interval in addresses (default `2^24`).
fn env_checkpoint() -> Option<CheckpointPolicy> {
    let dir = std::env::var_os("BALANCE_CKPT_DIR")?;
    let every = std::env::var("BALANCE_CKPT_EVERY")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_CHECKPOINT_EVERY);
    Some(CheckpointPolicy::every(dir, every))
}

fn sweep(n: usize, engine: Engine, checkpoint: Option<CheckpointPolicy>) -> SweepResult {
    let cfg = SweepConfig {
        n,
        memories: (6..=21u32).map(|k| 1usize << k).collect(),
        seed: 0,
        verify: Verify::Full,
        engine,
        measure: Measure::CacheModel,
        checkpoint,
        ..SweepConfig::default()
    };
    sweep::sweep(&MatMul, &cfg).unwrap_or_else(|e| panic!("matmul has a canonical trace: {e}"))
}

/// Appends one `"name": value` member line to the `BENCH_JSON` file when
/// the bench-smoke harness exports it (same line protocol as the
/// criterion shim, so the smoke script folds experiment measurements and
/// bench medians into one `BENCH_<n>.json`).
fn bench_json_line(name: &str, value: u128) {
    use std::io::Write as _;
    let Some(path) = std::env::var_os("BENCH_JSON") else {
        return;
    };
    let line = format!("\"{name}\": {value}\n");
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = written {
        eprintln!("warning: BENCH_JSON write to {path:?} failed: {e}");
    }
}

/// E23 — the scaled-engine capacity curve (≥10⁹ addresses at
/// `--scale large`, the CI smoke tier), with wall-clocks and the
/// sampled-vs-exact error.
#[must_use]
pub fn e23_bigtrace_at(scale: Scale) -> Report {
    let (n, min_addresses, max_rel_err_budget) = tier(scale);
    // The kill/resume CI smoke overrides the problem size: big enough
    // that a SIGKILL lands mid-replay, small enough that the resumed run
    // stays a smoke test. Every finding still runs at the tier's budget.
    let n = std::env::var("BALANCE_BIGTRACE_N")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(n);
    let n64 = n as u64;
    let addresses = 3 * n64.pow(3);
    let floor = 3 * n64.pow(2);

    // Only the exact pass checkpoints: the sampled pass is cheap to redo,
    // and skipping it keeps the env-driven smoke run simple. A checkpoint
    // policy makes the segmented request run the serial resumable replay.
    let t0 = Instant::now();
    let exact = sweep(n, Engine::StackDistPar { threads: 0 }, env_checkpoint());
    let seg_wall = t0.elapsed();
    let t1 = Instant::now();
    let sampled = sweep(n, Engine::Sampled { shift: SHIFT }, None);
    let samp_wall = t1.elapsed();

    let exact_label = match exact.provenance.as_ref().map(|p| p.used) {
        Some(used) => format!("exact pass ({}):", engine_spec(used)),
        None => {
            let threads = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            format!("segmented exact pass ({threads} threads):")
        }
    };
    let sampled_label = format!("sampled pass (rate 1/{}):", 1u32 << SHIFT);
    let width = exact_label.len().max(sampled_label.len());
    let mut body = format!(
        "naive matmul trace, n = {n}: {addresses} addresses over {floor} words\n\
         {exact_label:<width$} {:.2} s  ({:.1} M addr/s)\n\
         {sampled_label:<width$} {:.2} s  ({:.1} M addr/s)\n\n\
         {:>9} {:>13} {:>13} {:>10}\n",
        seg_wall.as_secs_f64(),
        addresses as f64 / seg_wall.as_secs_f64() / 1e6,
        samp_wall.as_secs_f64(),
        addresses as f64 / samp_wall.as_secs_f64() / 1e6,
        "M",
        "IO exact",
        "IO sampled",
        "rel err"
    );
    if let Some(prov) = &exact.provenance {
        // Present only when BALANCE_CKPT_DIR asked for a checkpointed
        // run; names the resume point after a kill.
        body = format!("checkpointed run: {}\n{body}", prov.describe());
    }

    let mut max_rel_err = 0.0f64;
    for (e, s) in exact.runs.iter().zip(&sampled.runs) {
        let io_e = e.execution.cost.io_words();
        let io_s = s.execution.cost.io_words();
        let rel = io_s.abs_diff(io_e) as f64 / io_e as f64;
        max_rel_err = max_rel_err.max(rel);
        body.push_str(&format!(
            "{:>9} {:>13} {:>13} {:>9.4}%\n",
            e.m,
            io_e,
            io_s,
            rel * 100.0
        ));
    }

    bench_json_line("bigtrace/segmented_wall_ns", seg_wall.as_nanos());
    bench_json_line("bigtrace/sampled_wall_ns", samp_wall.as_nanos());
    bench_json_line(
        "bigtrace/sampled_max_rel_err_ppm",
        (max_rel_err * 1e6).round() as u128,
    );

    let ios: Vec<u64> = exact.runs.iter().map(|r| r.execution.cost.io_words()).collect();
    let mut findings = vec![
        Finding::new(
            "trace meets the tier's scale floor",
            format!(">= {min_addresses} addresses"),
            format!("{addresses}"),
            addresses >= min_addresses,
        ),
        Finding::new(
            "full 16-point curve from each engine",
            "16 + 16 points",
            format!("{} + {}", exact.runs.len(), sampled.runs.len()),
            exact.runs.len() == 16 && sampled.runs.len() == 16,
        ),
        Finding::new(
            "exact IO(M) monotone non-increasing",
            "inclusion property at scale",
            format!("{} -> {}", ios.first().unwrap_or_else(|| panic!("harness invariant violated: value missing")), ios.last().unwrap_or_else(|| panic!("harness invariant violated: value missing"))),
            ios.windows(2).all(|w| w[1] <= w[0]),
        ),
        Finding::new(
            "exact large-M floor is exactly compulsory",
            format!("{floor} distinct addresses"),
            format!("{}", ios.last().unwrap_or_else(|| panic!("harness invariant violated: value missing"))),
            *ios.last().unwrap_or_else(|| panic!("harness invariant violated: value missing")) == floor,
        ),
        Finding::new(
            "sampled curve tracks exact",
            format!("max relative IO error <= {:.0}%", max_rel_err_budget * 100.0),
            format!("{:.4}%", max_rel_err * 100.0),
            max_rel_err <= max_rel_err_budget,
        ),
    ];

    // Small-n spot check of the tentpole guarantee (the full pin is the
    // machine-crate proptest): segmented == serial, bit for bit.
    let small_serial = sweep(64, Engine::StackDist, None);
    let small_seg = sweep(64, Engine::StackDistPar { threads: 0 }, None);
    findings.push(Finding::new(
        "segmented engine bit-identical to serial (n = 64 spot check)",
        "identical runs",
        format!("{} points", small_seg.runs.len()),
        small_serial.runs == small_seg.runs,
    ));

    Report {
        id: "E23",
        title: "billion-address capacity curve: segmented parallel + SHARDS-sampled engines",
        body,
        findings,
    }
}
