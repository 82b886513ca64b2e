//! Experiment E20: the balance law per level of a memory hierarchy.
//!
//! Kung states the balance condition for one PE/memory/I-O boundary; §5 and
//! every successor system apply it per level pair of a hierarchy. This
//! experiment runs the instrumented kernels against two- and three-level
//! machines (`Kernel::run_on` + the chained-LRU accounting in
//! `balance-machine`) and reads the per-boundary traffic off the execution
//! records:
//!
//! * as the local memory `M_1` grows, the port intensity `r_0` climbs its
//!   law while the outer boundary's traffic stays compulsory once its level
//!   holds the whole problem — so the **binding level** of the hierarchical
//!   roofline walks outward (matmul crosses from level 1 to level 2 inside
//!   the sweep);
//! * an I/O-bounded kernel (transpose) has the *same* constant intensity at
//!   every boundary: no `M_1` moves its attainable throughput at all — the
//!   per-level restatement of the paper's "impossible" verdict;
//! * on three levels the traffic vector filters monotonically
//!   (`io_0 ≥ io_1 ≥ io_2`, pinned as the inclusion property), with the
//!   outermost boundary reduced to the compulsory minimum.

use balance_core::{HierarchySpec, LevelSpec, OpsPerSec, Words, WordsPerSec};
use balance_kernels::sweep::{self, Engine, SweepConfig};
use balance_kernels::{Kernel, KernelRun, Verify};
use balance_roofline::HierarchicalRoofline;

use crate::report::{Finding, Report};

/// Peak compute of the modeled machine: high enough that the bandwidth
/// slopes, not the roof, tell the story.
const PEAK: f64 = 1.0e10;
/// Boundary bandwidths, innermost first: a fast port over a 10/3× slower
/// second boundary over a 3× slower third.
const BW: [f64; 3] = [1.0e8, 3.0e7, 1.0e7];

fn level(cap: usize, bw: f64) -> LevelSpec {
    LevelSpec::new(Words::new(cap as u64), WordsPerSec::new(bw)).unwrap_or_else(|e| panic!("harness invariant violated: {e}"))
}

/// The outer levels for the given capacities, with their `BW` bandwidths —
/// the single source of truth shared by the sweeps and the roofline.
fn outer_levels(outer: &[usize]) -> Vec<LevelSpec> {
    outer
        .iter()
        .enumerate()
        .map(|(i, &cap)| level(cap, BW[i + 1]))
        .collect()
}

/// The ladder for one sweep point: `m1` under the fixed outer capacities.
fn ladder(m1: usize, outer: &[usize]) -> HierarchySpec {
    let mut levels = vec![level(m1, BW[0])];
    levels.extend(outer_levels(outer));
    HierarchySpec::new(levels).unwrap_or_else(|e| panic!("experiment ladders are well-formed: {e}"))
}

/// Measured per-level intensities of one run, innermost first.
fn intensities(run: &KernelRun) -> Vec<f64> {
    (0..run.execution.cost.level_count())
        .map(|i| run.execution.intensity_at(i).unwrap_or_else(|| panic!("level in range")))
        .collect()
}

/// One sweep of `kernel` at problem size `n` over `m1s`, with fixed outer
/// capacities; returns the runs plus the per-point binding level (`None` =
/// compute roof).
fn sweep(
    kernel: &dyn Kernel,
    n: usize,
    m1s: &[usize],
    outer: &[usize],
) -> (Vec<KernelRun>, Vec<Option<usize>>) {
    let cfg = SweepConfig {
        n,
        memories: m1s.to_vec(),
        seed: 20,
        verify: Verify::Full,
        engine: Engine::Replay,
        outer: outer_levels(outer),
        ..SweepConfig::default()
    };
    let result = sweep::sweep(kernel, &cfg).unwrap_or_else(|e| panic!("verified sweep: {e}"));
    let bindings = result
        .runs
        .iter()
        .map(|run| {
            let roofline =
                HierarchicalRoofline::new(OpsPerSec::new(PEAK), &ladder(run.m, outer))
                    .unwrap_or_else(|e| panic!("valid roofline: {e}"));
            roofline.binding_level(&intensities(run))
        })
        .collect();
    (result.runs, bindings)
}

fn binding_label(b: Option<usize>) -> String {
    b.map_or_else(|| "roof".to_string(), |l| format!("L{}", l + 1))
}

/// Appends one sweep's table (one row per point: per-level traffic,
/// per-level intensity, binding level) to `body`.
fn render_sweep(body: &mut String, kernel_name: &str, runs: &[KernelRun], bindings: &[Option<usize>]) {
    for (run, &binding) in runs.iter().zip(bindings) {
        let cost = &run.execution.cost;
        let depth = cost.level_count();
        let io: Vec<String> = (0..depth)
            .map(|i| format!("{:>9}", cost.io_at(i).unwrap_or_else(|| panic!("harness invariant violated: value missing"))))
            .collect();
        let r: Vec<String> = (0..depth)
            .map(|i| format!("{:>8.2}", cost.intensity_at(i).unwrap_or_else(|| panic!("harness invariant violated: value missing"))))
            .collect();
        body.push_str(&format!(
            "{:<10} {:>6} {:>6} {} {} {:>7}\n",
            kernel_name,
            run.n,
            run.m,
            io.join(" "),
            r.join(" "),
            binding_label(binding),
        ));
    }
}

/// E20 — which level binds as `M_1` grows, on two- and three-level ladders.
#[must_use]
pub fn e20_hierarchy() -> Report {
    let matmul = balance_kernels::matmul::MatMul;
    let transpose = balance_kernels::transpose::Transpose;
    let fft = balance_kernels::fft::Fft;

    let mut body = format!(
        "machine: C = {PEAK:.0e} op/s, boundary bandwidths {:.0e} / {:.0e} / {:.0e} word/s\n\n\
         {:<10} {:>6} {:>6} {:>9}… io_i (words) {:>8}… r_i (op/word)  binds\n",
        BW[0], BW[1], BW[2], "kernel", "n", "M1", "io_0", "r_0",
    );

    // --- Two-level sweeps: M1 under a 4096-word second level. ---
    let l2 = [4096usize];
    let (mm_runs, mm_bind) = sweep(&matmul, 32, &[48, 108, 192, 432, 768], &l2);
    render_sweep(&mut body, "matmul", &mm_runs, &mm_bind);
    let (tr_runs, tr_bind) = sweep(&transpose, 32, &[48, 108, 192, 432, 768], &l2);
    render_sweep(&mut body, "transpose", &tr_runs, &tr_bind);
    let (fft_runs, fft_bind) = sweep(&fft, 256, &[8, 16, 64, 256, 1024], &l2);
    render_sweep(&mut body, "fft", &fft_runs, &fft_bind);

    // --- Three-level matmul: L2 too small for the problem, L3 holds it. ---
    body.push('\n');
    let (mm3_runs, mm3_bind) = sweep(&matmul, 48, &[48, 192, 768], &[4096, 16384]);
    render_sweep(&mut body, "matmul", &mm3_runs, &mm3_bind);

    let mut findings = Vec::new();

    // Inclusion: traffic never grows with depth, at any point of any sweep.
    let all_runs: Vec<&KernelRun> = mm_runs
        .iter()
        .chain(&tr_runs)
        .chain(&fft_runs)
        .chain(&mm3_runs)
        .collect();
    findings.push(Finding::new(
        "inclusive accounting: io_{i+1} <= io_i everywhere",
        "monotone traffic vectors",
        format!("{} runs checked", all_runs.len()),
        all_runs
            .iter()
            .all(|r| r.execution.cost.traffic().is_monotone_non_increasing()),
    ));

    // Matmul, two levels: once L2 (4096 words) holds all of A, B, C
    // (3n² = 3072), the outer boundary sees compulsory traffic only —
    // independent of M1.
    let compulsory = 3 * 32u64 * 32;
    let outer_io: Vec<u64> = mm_runs
        .iter()
        .map(|r| r.execution.io_at(1).unwrap_or_else(|| panic!("harness invariant violated: value missing")))
        .collect();
    findings.push(Finding::new(
        "matmul L2 traffic is compulsory once resident",
        format!("= 3n^2 = {compulsory} at every M1"),
        format!("{outer_io:?}"),
        outer_io.iter().all(|&io| io == compulsory),
    ));

    // Matmul: r_0 grows with M1 (the sqrt law at the port), so the binding
    // level walks outward and crosses from the port (L1) to the second
    // boundary (L2) inside the sweep.
    let mm_levels: Vec<usize> = mm_bind.iter().map(|b| b.map_or(usize::MAX, |l| l)).collect();
    findings.push(Finding::new(
        "matmul binding level walks outward with M1",
        "L1 at small M1 -> L2 at large M1",
        format!(
            "{:?}",
            mm_bind.iter().copied().map(binding_label).collect::<Vec<_>>()
        ),
        mm_levels.windows(2).all(|w| w[1] >= w[0])
            && mm_bind.first() == Some(&Some(0))
            && mm_bind.last() == Some(&Some(1)),
    ));

    // Transpose: constant intensity at *every* boundary — attainable
    // throughput is flat in M1 (the per-level "impossible" verdict).
    let attainable: Vec<f64> = tr_runs
        .iter()
        .map(|run| {
            HierarchicalRoofline::new(OpsPerSec::new(PEAK), &ladder(run.m, &l2))
                .unwrap_or_else(|e| panic!("valid roofline: {e}"))
                .attainable(&intensities(run))
        })
        .collect();
    let flat = attainable.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-6);
    findings.push(Finding::new(
        "transpose attainable is flat in M1 (I/O-bounded)",
        "no M1 helps",
        format!("{:.3e} op/s at every M1", attainable[0]),
        flat,
    ));

    // FFT: the log2 M law also climbs, so its binding level never walks
    // back inward.
    let fft_levels: Vec<usize> = fft_bind.iter().map(|b| b.map_or(usize::MAX, |l| l)).collect();
    findings.push(Finding::new(
        "fft binding level is non-decreasing in M1",
        "monotone outward",
        format!(
            "{:?}",
            fft_bind.iter().copied().map(binding_label).collect::<Vec<_>>()
        ),
        fft_levels.windows(2).all(|w| w[1] >= w[0]),
    ));

    // Three levels: L3 (16384) holds the whole problem, so the outermost
    // boundary is exactly compulsory at every point. L2 (4096) cannot hold
    // 3n² = 6912 words — small tiles keep its panel working set resident
    // anyway, but at the largest M1 the starvation shows through as
    // above-compulsory io_1.
    let compulsory3 = 3 * 48u64 * 48;
    let io12: Vec<(u64, u64)> = mm3_runs
        .iter()
        .map(|r| {
            (
                r.execution.io_at(1).unwrap_or_else(|| panic!("harness invariant violated: value missing")),
                r.execution.io_at(2).unwrap_or_else(|| panic!("harness invariant violated: value missing")),
            )
        })
        .collect();
    let ok3 = io12.iter().all(|&(io1, io2)| io2 == compulsory3 && io1 >= compulsory3)
        && io12.last().is_some_and(|&(io1, _)| io1 > compulsory3);
    findings.push(Finding::new(
        "3-level: L3 compulsory everywhere, starved L2 shows at large M1",
        format!("io_2 = {compulsory3}; io_1 > that at the last point"),
        format!("{io12:?}"),
        ok3,
    ));

    Report {
        id: "E20",
        title: "memory hierarchy: per-level balance and the binding level",
        body,
        findings,
    }
}
