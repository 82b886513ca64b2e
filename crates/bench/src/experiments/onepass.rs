//! Experiment E22 (one-pass): a full capacity curve from a single replay.
//!
//! Every curve in the paper is "I/O (and hence intensity) as a function of
//! memory size M". Because LRU is a stack algorithm, the *cache-model*
//! version of that curve is a pure function of one reuse-distance
//! histogram: a single replay of a kernel's canonical trace through the
//! Mattson stack-distance engine answers `IO(M)` for **every** `M` —
//! where the replay engine pays one full trace replay per point.
//!
//! This experiment produces 16-point capacity curves for matmul, fft, and
//! sort from one replay each, then:
//!
//! * cross-checks three anchor capacities per kernel against the
//!   per-capacity replay engine — **bit-identical**, the tentpole
//!   guarantee;
//! * verifies the stack property as it surfaces in the curves (misses
//!   monotone non-increasing in `M`, compulsory floor = distinct
//!   addresses);
//! * reads a three-level ladder's per-boundary traffic off the same
//!   histogram and checks inclusion (`io_{i+1} ≤ io_i`) plus agreement
//!   with an actual `Hierarchy` ladder replay.

use balance_core::{LevelSpec, Words, WordsPerSec};
use balance_kernels::fft::Fft;
use balance_kernels::matmul::MatMul;
use balance_kernels::sorting::ExternalSort;
use balance_kernels::sweep::{
    sweep, Engine, Measure, SweepConfig, SweepResult,
};
use balance_kernels::{Kernel, Verify};

use crate::report::{Finding, Report};

/// One kernel's slice of the experiment: its 16-point one-pass curve plus
/// the three-point replay anchors.
struct Curve {
    name: &'static str,
    onepass: SweepResult,
    anchors: SweepResult,
    /// Expected compulsory floor (distinct addresses of the trace).
    floor: u64,
}

fn sweep_16pt(kernel: &dyn Kernel, n: usize, floor: u64) -> Curve {
    let memories: Vec<usize> = (2..=17u32).map(|k| 1usize << k).collect();
    debug_assert_eq!(memories.len(), 16);
    let cfg = SweepConfig {
        n,
        memories: memories.clone(),
        seed: 0,
        verify: Verify::Full,
        engine: Engine::StackDist,
        measure: Measure::CacheModel,
        ..SweepConfig::default()
    };
    let onepass = sweep(kernel, &cfg).unwrap_or_else(|e| panic!("traced kernel: {e}"));
    // Three anchors re-measured on the per-capacity replay engine.
    let anchor_cfg = SweepConfig {
        n,
        memories: vec![memories[0], memories[7], memories[15]],
        seed: 0,
        verify: Verify::Full,
        engine: Engine::Replay,
        measure: Measure::CacheModel,
        ..SweepConfig::default()
    };
    let anchors = sweep(kernel, &anchor_cfg).unwrap_or_else(|e| panic!("traced kernel: {e}"));
    Curve {
        name: kernel.name(),
        onepass,
        anchors,
        floor,
    }
}

/// E22 — 16-point capacity curves for matmul/fft/sort from one replay
/// each, anchored against the replay engine.
#[must_use]
pub fn e22_onepass() -> Report {
    let (mm_n, fft_n, sort_n) = (32usize, 256usize, 4096usize);
    let curves = [
        sweep_16pt(&MatMul, mm_n, 3 * (mm_n as u64).pow(2)),
        sweep_16pt(&Fft, fft_n, 2 * fft_n as u64),
        sweep_16pt(&ExternalSort, sort_n, 2 * sort_n as u64),
    ];

    let mut body = format!(
        "{:<8} {:>9} {:>12} {:>10}   (16 capacities per kernel, one replay each)\n",
        "kernel", "M", "IO(M)", "r(M)"
    );
    let mut findings = Vec::new();

    for curve in &curves {
        for run in &curve.onepass.runs {
            body.push_str(&format!(
                "{:<8} {:>9} {:>12} {:>10.3}\n",
                curve.name,
                run.m,
                run.execution.cost.io_words(),
                run.intensity()
            ));
        }

        // Anchors: the replay engine at three capacities must reproduce
        // the one-pass points bit for bit.
        let anchors_ok = curve.anchors.runs.iter().all(|a| {
            curve
                .onepass
                .runs
                .iter()
                .any(|o| o.m == a.m && o == a)
        });
        findings.push(Finding::new(
            format!("{}: replay anchors bit-identical", curve.name),
            "3 anchor capacities re-run on Engine::Replay",
            format!("{} anchors checked", curve.anchors.runs.len()),
            anchors_ok && curve.anchors.runs.len() == 3,
        ));

        // Stack property: a bigger memory never misses more.
        let ios: Vec<u64> = curve
            .onepass
            .runs
            .iter()
            .map(|r| r.execution.cost.io_words())
            .collect();
        findings.push(Finding::new(
            format!("{}: IO(M) monotone non-increasing", curve.name),
            "inclusion property",
            format!("{} -> {}", ios.first().unwrap_or_else(|| panic!("harness invariant violated: value missing")), ios.last().unwrap_or_else(|| panic!("harness invariant violated: value missing"))),
            ios.windows(2).all(|w| w[1] <= w[0]),
        ));

        // Compulsory floor: once everything is resident, only first
        // touches remain.
        findings.push(Finding::new(
            format!("{}: large-M floor is compulsory", curve.name),
            format!("{} distinct addresses", curve.floor),
            format!("{}", ios.last().unwrap_or_else(|| panic!("harness invariant violated: value missing"))),
            *ios.last().unwrap_or_else(|| panic!("harness invariant violated: value missing")) == curve.floor,
        ));
    }

    // Multi-level read: a 3-level matmul ladder off the same histogram,
    // cross-checked against the replay engine (which runs an actual
    // chained-LRU ladder per point).
    let outer = [
        LevelSpec::new(Words::new(1024), WordsPerSec::new(1.0)).unwrap_or_else(|e| panic!("valid: {e}")),
        LevelSpec::new(Words::new(4096), WordsPerSec::new(1.0)).unwrap_or_else(|e| panic!("valid: {e}")),
    ];
    let ladder_cfg = SweepConfig {
        n: mm_n,
        memories: vec![16, 64, 256],
        outer: outer.to_vec(),
        seed: 0,
        verify: Verify::Full,
        engine: Engine::StackDist,
        measure: Measure::CacheModel,
        ..SweepConfig::default()
    };
    let ladder = sweep(&MatMul, &ladder_cfg).unwrap_or_else(|e| panic!("traced: {e}"));
    let ladder_replay = sweep(&MatMul, &ladder_cfg.clone().with_engine(Engine::Replay))
    .unwrap_or_else(|e| panic!("traced: {e}"));
    body.push_str("\nmatmul 3-level ladder (M1 swept under 1024- and 4096-word levels):\n");
    for run in &ladder.runs {
        body.push_str(&format!(
            "  M1 = {:>4}: traffic {}\n",
            run.m,
            run.execution.cost.traffic()
        ));
    }
    findings.push(Finding::new(
        "3-level ladder read matches ladder replay",
        "bit-identical per-boundary traffic",
        format!("{} points", ladder.runs.len()),
        ladder.runs == ladder_replay.runs && !ladder.runs.is_empty(),
    ));
    findings.push(Finding::new(
        "3-level ladder traffic is inclusive",
        "io_{i+1} <= io_i",
        "all points".to_string(),
        ladder
            .runs
            .iter()
            .all(|r| r.execution.cost.traffic().is_monotone_non_increasing()),
    ));

    Report {
        id: "E22",
        title: "one-pass stack-distance engine: IO(M) for every capacity from one replay",
        body,
        findings,
    }
}
