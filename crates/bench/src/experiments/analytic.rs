//! Experiment E25 (analytic): closed-form capacity curves with zero replay.
//!
//! PR 5 collapsed a capacity sweep to one trace replay; PR 6 scaled that
//! replay to a billion addresses. This experiment demonstrates the tier
//! that removes the replay altogether: for affine kernels the
//! reuse-distance histogram is a closed form in `n`
//! ([`Kernel::analytic_profile`]), so `Engine::Analytic` draws the exact
//! curve in `O(poly(log n))` time at sizes no replay could touch.
//!
//! Three demonstrations:
//!
//! * **registry coverage** — which kernels derive a histogram (9 of the
//!   11; fft and triangularization fall through to the measured engines);
//! * **anchors at replayable n** — the analytic 16-point matmul/grid2d/
//!   sort curves at n = 96/100/4096 are bit-identical to the one-pass
//!   stack-distance engine (the registry proptests pin this at *every*
//!   capacity; here it is cross-checked end-to-end through the sweep);
//! * **the unreachable size** — a 16-point matmul curve at n = 10⁴, whose
//!   canonical trace is 3×10¹² addresses (≈ 8 hours at the ~10⁸ addr/s
//!   the one-pass engine sustains, and a ~2.4 TB address stream), drawn
//!   in well under a second with zero replay.

use std::time::Instant;

use balance_kernels::grid::GridRelaxation;
use balance_kernels::matmul::MatMul;
use balance_kernels::sorting::ExternalSort;
use balance_kernels::sweep::{sweep, Engine, Measure, SweepConfig};
use balance_kernels::{all_kernels, extension_kernels, Kernel, Verify};

use crate::report::{Finding, Report};

/// A 16-point pow-2 sweep config on the given engine.
fn cfg_16pt(n: usize, lo: u32, engine: Engine) -> SweepConfig {
    let memories: Vec<usize> = (lo..lo + 16).map(|k| 1usize << k).collect();
    SweepConfig {
        n,
        memories,
        seed: 0,
        verify: Verify::None,
        engine,
        measure: Measure::CacheModel,
        ..SweepConfig::default()
    }
}

/// E25 — analytic capacity profiles: exact curves with zero replay.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn e25_analytic() -> Report {
    let mut body = String::new();
    let mut findings = Vec::new();

    // 1. Registry coverage: who derives a closed form at a probe size?
    let mut kernels = all_kernels();
    let registry_count = kernels.len();
    kernels.extend(extension_kernels());
    let mut covered = Vec::new();
    let mut uncovered = Vec::new();
    for (i, k) in kernels.iter().enumerate() {
        if k.analytic_profile(8).is_some() {
            covered.push((i < registry_count, k.name()));
        } else {
            uncovered.push(k.name());
        }
    }
    let registry_covered = covered.iter().filter(|(reg, _)| *reg).count();
    body.push_str(&format!(
        "analytic coverage: {} of {} kernels ({}); without a derivation: {}\n",
        covered.len(),
        kernels.len(),
        covered
            .iter()
            .map(|(_, n)| *n)
            .collect::<Vec<_>>()
            .join(", "),
        uncovered.join(", "),
    ));
    findings.push(Finding::new(
        "registry kernels with exact analytic profiles",
        ">= 4 (ISSUE 8 acceptance)",
        format!("{registry_covered} of {registry_count} (plus all 3 extensions)"),
        registry_covered >= 4 && covered.len() == 9,
    ));

    // 2. Anchors at replayable n: the full 16-point analytic sweep must be
    // bit-identical to the one-pass engine, end to end through the sweep
    // pipeline (runs, intensities, everything).
    let anchors: [(&dyn Kernel, usize, u32); 3] = [
        (&MatMul, 96, 2),
        (&GridRelaxation::new(2), 100, 2),
        (&ExternalSort, 4096, 2),
    ];
    for (kernel, n, lo) in anchors {
        let analytic = sweep(kernel, &cfg_16pt(n, lo, Engine::Analytic))
            .unwrap_or_else(|e| panic!("covered kernel: {e}"));
        let onepass = sweep(kernel, &cfg_16pt(n, lo, Engine::StackDist))
            .unwrap_or_else(|e| panic!("traced kernel: {e}"));
        findings.push(Finding::new(
            format!("{} n={}: analytic ≡ stackdist, all 16 points", kernel.name(), n),
            "bit-identical sweep",
            format!("{} points", analytic.runs.len()),
            analytic.runs == onepass.runs && analytic.runs.len() == 16,
        ));
    }

    // 3. The unreachable size: matmul at n = 10⁴. The canonical trace is
    // 3n³ = 3×10¹² addresses; the memories span 2¹² .. 2²⁷, crossing the
    // saturation capacity (n² + 3n + 1 ≈ 1.0003×10⁸ words) so the curve
    // runs all the way down to its compulsory floor.
    let n = 10_000usize;
    let n64 = n as u64;
    let start = Instant::now();
    let big = sweep(&MatMul, &cfg_16pt(n, 12, Engine::Analytic))
        .unwrap_or_else(|e| panic!("covered kernel: {e}"));
    let elapsed = start.elapsed();
    let trace_len = 3 * n64.pow(3);
    body.push_str(&format!(
        "\nmatmul n = 10^4 (trace = {:.1e} addresses, never generated):\n{:<10} {:>16} {:>10}\n",
        trace_len as f64, "M (words)", "IO(M)", "r(M)"
    ));
    for run in &big.runs {
        body.push_str(&format!(
            "{:<10} {:>16} {:>10.3}\n",
            run.m,
            run.execution.cost.io_words(),
            run.intensity()
        ));
    }
    body.push_str(&format!(
        "drawn in {elapsed:.2?}; the one-pass replay at ~1e8 addr/s would need ~{:.0} hours\n",
        trace_len as f64 / 1e8 / 3600.0
    ));

    findings.push(Finding::new(
        "matmul n=10^4: 16-point curve with zero replay",
        "< 1 s (replay estimate: hours)",
        format!("{elapsed:.2?}"),
        big.runs.len() == 16 && elapsed.as_secs_f64() < 1.0,
    ));
    let ios: Vec<u64> = big.runs.iter().map(|r| r.execution.cost.io_words()).collect();
    findings.push(Finding::new(
        "n=10^4 curve: IO(M) monotone non-increasing",
        "stack property",
        format!(
            "{} -> {}",
            ios.first().unwrap_or_else(|| panic!("16 points present")),
            ios.last().unwrap_or_else(|| panic!("16 points present"))
        ),
        ios.windows(2).all(|w| w[1] <= w[0]),
    ));
    findings.push(Finding::new(
        "n=10^4 curve: large-M floor is compulsory",
        format!("3n^2 = {}", 3 * n64 * n64),
        format!("{}", ios.last().unwrap_or_else(|| panic!("16 points present"))),
        *ios.last().unwrap_or_else(|| panic!("16 points present")) == 3 * n64 * n64,
    ));

    Report {
        id: "E25",
        title: "analytic capacity profiles: closed-form IO(M), zero replay, any n",
        body,
        findings,
    }
}
