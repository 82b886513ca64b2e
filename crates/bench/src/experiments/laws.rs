//! Experiments E1–E7: the Section-3 summary table, one row at a time.
//!
//! Every law in the paper is *measured*: the instrumented kernel runs across
//! a memory sweep, the law shape is recovered by least squares, and the
//! rebalancing rule is derived empirically from the measured curve (no law
//! assumed) and compared with the paper's closed form.
//!
//! ## Finite-size methodology
//!
//! The paper's laws are asymptotic (`N ≫ M`). At measurable sizes two
//! finite-size effects appear and are handled explicitly rather than hidden:
//!
//! * **Write-back / halo overheads** shift measured rebalance factors above
//!   the pure `α^k`; E2/E3 therefore also check that the deviation *shrinks
//!   as N grows* (convergence to the law), and E4 checks the exact invariant
//!   underneath the law (the tile side must grow by exactly `α`).
//! * **Discretization staircases** (integer tile sides, integer pass
//!   counts) are removed at the source by sweeping memory sizes that map to
//!   exact tile sides / divisor pass counts.

use balance_core::fit::FittedLaw;
use balance_core::solver::MeasuredCurve;
use balance_core::GrowthLaw;
use balance_kernels::fft::block_points;
use balance_kernels::prelude::*;
use balance_kernels::sweep::SweepResult;

use crate::report::{Finding, Report};

/// Seed for every experiment workload (reproducibility).
pub const SEED: u64 = 0x5eed_cafe;

fn law_name(law: GrowthLaw) -> String {
    law.to_string()
}

fn sweep(kernel: &dyn Kernel, cfg: &SweepConfig) -> SweepResult {
    // Every law sweep executes the scheme, fanned out over the cores
    // (bit-identical to a serial loop), under the config's own
    // verification policy.
    balance_kernels::sweep::sweep(kernel, cfg)
        .unwrap_or_else(|e| panic!("kernel {} failed its verified sweep: {e}", kernel.name()))
}

fn points_table(result: &SweepResult) -> String {
    let mut s = format!(
        "{:>10} {:>14} {:>14} {:>12}\n",
        "M (words)", "C_comp", "C_io", "ratio"
    );
    for run in &result.runs {
        s.push_str(&format!(
            "{:>10} {:>14} {:>14} {:>12.3}\n",
            run.m,
            run.execution.cost.comp_ops(),
            run.execution.cost.io_words(),
            run.intensity()
        ));
    }
    s
}

/// A grid sweep at exact tile sides, with iterations scaled to the tile
/// (`T = 4s`) so halo I/O dominates as the paper assumes.
///
/// The recorded memory coordinate is the **paper's `M`**: the `s^d` words of
/// grid state the PE is responsible for ("each PE is responsible for the
/// storing and updating of all the grid points in a `√M × √M` subgrid").
/// Our implementation additionally buffers the incoming halo shell
/// (`(s+2)^d` scratch words, reported via peak memory); that constant-factor
/// overhead vanishes as `s` grows and is not part of the law.
fn grid_sweep(d: usize, sides: &[usize]) -> SweepResult {
    let kernel = GridRelaxation::new(d);
    let results = par_map(sides, |_, &s| {
        let m = (s + 2).pow(d as u32) + s.pow(d as u32);
        assert_eq!(kernel.tile_side(m), s, "memory {m} must give side {s}");
        let iters = 4 * s;
        let run = kernel
            .run(iters, m, SEED)
            .unwrap_or_else(|e| panic!("grid{d}d s={s} failed: {e}"));
        let m_paper = s.pow(d as u32) as f64;
        (balance_core::fit::DataPoint::new(m_paper, run.intensity()), run)
    });
    let (points, runs) = results.into_iter().unzip();
    SweepResult {
        kernel: kernel.name(),
        points,
        runs,
        provenance: None,
    }
}

/// A sorting sweep in the paper's own regime: `N = M²`, so phase 2 is a
/// single `M`-way merge of `N/M = M` runs (§3.5's exact setup) and the
/// intensity follows the smooth `Θ(log₂M)` law instead of a merge-level
/// staircase.
fn sort_sweep(ms: &[usize]) -> SweepResult {
    let results = par_map(ms, |_, &m| {
        let n = m * m;
        let run = ExternalSort
            .run(n, m, SEED)
            .unwrap_or_else(|e| panic!("sort m={m} failed: {e}"));
        (balance_core::fit::DataPoint::new(m as f64, run.intensity()), run)
    });
    let (points, runs) = results.into_iter().unzip();
    SweepResult {
        kernel: "sort",
        points,
        runs,
        provenance: None,
    }
}

/// Memory sizes `3b²` for tile sides `b` dividing `n` — every block of the
/// matmul sweep is then full-size and the measured curve is free of
/// edge-block staircase noise.
fn matmul_memories(n: usize, bs: &[usize]) -> Vec<usize> {
    bs.iter()
        .map(|&b| {
            assert_eq!(n % b, 0, "tile {b} must divide {n}");
            3 * b * b
        })
        .collect()
}

/// An FFT sweep at pass-divisible block sizes (`μ | t`), avoiding the
/// partial-pass staircase.
fn fft_sweep(t: u32) -> SweepResult {
    let n = 1usize << t;
    let memories: Vec<usize> = (1..=t)
        .filter(|mu| t.is_multiple_of(*mu) && *mu < t)
        .map(|mu| 2usize << mu) // m = 2·B = 2^(μ+1)
        .collect();
    let cfg = SweepConfig {
        n,
        memories,
        seed: SEED,
        verify: Verify::Full,
        engine: Engine::Replay,
        ..SweepConfig::default()
    };
    sweep(&Fft, &cfg)
}

/// Checks an empirical rebalance against the paper's growth law.
fn rebalance_findings(
    curve: &MeasuredCurve,
    law: GrowthLaw,
    m_old: f64,
    alphas: &[f64],
    tol: f64,
    findings: &mut Vec<Finding>,
) {
    for &alpha in alphas {
        let expected = match law {
            GrowthLaw::Polynomial { degree } => alpha.powf(degree),
            GrowthLaw::Exponential => m_old.powf(alpha) / m_old,
            GrowthLaw::Impossible => f64::INFINITY,
        };
        match curve.empirical_rebalance(alpha, m_old) {
            Ok(m_new) => {
                let factor = m_new / m_old;
                let ok = (factor / expected - 1.0).abs() < tol;
                findings.push(Finding::new(
                    format!("rebalance α={alpha} from M={m_old}"),
                    format!("×{expected:.2}"),
                    format!("×{factor:.2}"),
                    ok,
                ));
            }
            Err(e) => findings.push(Finding::new(
                format!("rebalance α={alpha} from M={m_old}"),
                format!("×{expected:.2}"),
                format!("error: {e}"),
                false,
            )),
        }
    }
}

/// Measures the empirical α=2 memory-growth factor at one problem size.
fn alpha2_factor(kernel: &dyn Kernel, n: usize, memories: &[usize], m_old: f64) -> f64 {
    let cfg = SweepConfig {
        n,
        memories: memories.to_vec(),
        seed: SEED,
        // Anchored Freivalds beyond n = 64 — the sweep's cost knob.
        verify: Verify::auto(n),
        engine: Engine::Replay,
        ..SweepConfig::default()
    };
    let result = sweep(kernel, &cfg);
    let curve = result.curve().unwrap_or_else(|e| panic!("enough points: {e}"));
    curve.empirical_rebalance(2.0, m_old).unwrap_or_else(|e| panic!("curve grows: {e}")) / m_old
}

/// E2 — §3.1 matrix multiplication: `r(M) = Θ(√M)`, `M_new = α²·M_old`.
#[must_use]
pub fn e2_matmul() -> Report {
    let n = 96;
    let cfg = SweepConfig {
        n,
        memories: matmul_memories(n, &[4, 6, 8, 12, 16, 24, 32, 48]),
        seed: SEED,
        // n = 96: anchored Freivalds keeps the verify share O(n²).
        verify: Verify::auto(n),
        engine: Engine::Replay,
        ..SweepConfig::default()
    };
    let result = sweep(&MatMul, &cfg);
    let fit = result.fit().unwrap_or_else(|e| panic!("enough points: {e}"));
    let curve = result.curve().unwrap_or_else(|e| panic!("enough points: {e}"));

    let mut findings = Vec::new();
    let exponent = match fit.best {
        FittedLaw::Power { exponent, .. } => exponent,
        _ => f64::NAN,
    };
    findings.push(Finding::new(
        "fitted law shape",
        "r ∝ M^0.5",
        format!("{}", fit.best),
        (exponent - 0.5).abs() < 0.08,
    ));
    rebalance_findings(
        &curve,
        GrowthLaw::Polynomial { degree: 2.0 },
        108.0, // b = 6
        &[2.0, 3.0, 4.0],
        0.30,
        &mut findings,
    );
    // Finite-N convergence: the deviation from α² must shrink with N.
    let f_small = alpha2_factor(&MatMul, 64, &matmul_memories(64, &[4, 8, 16, 32]), 192.0);
    let f_large = alpha2_factor(&MatMul, 128, &matmul_memories(128, &[4, 8, 16, 32]), 192.0);
    findings.push(Finding::new(
        "α=2 factor converges to 4 as N grows",
        "|err(N=128)| < |err(N=64)|",
        format!("N=64: ×{f_small:.2}, N=128: ×{f_large:.2}"),
        (f_large - 4.0).abs() < (f_small - 4.0).abs(),
    ));
    Report {
        id: "E2",
        title: "matrix multiplication (§3.1): M_new = α²·M_old",
        body: points_table(&result),
        findings,
    }
}

/// E3 — §3.2 triangularization: `r(M) = Θ(√M)`, `M_new = α²·M_old`.
#[must_use]
pub fn e3_triangularization() -> Report {
    let cfg = SweepConfig::pow2(128, 5, 13, SEED).with_verify(Verify::auto(128));
    let result = sweep(&Triangularization, &cfg);
    let fit = result.fit().unwrap_or_else(|e| panic!("enough points: {e}"));
    let curve = result.curve().unwrap_or_else(|e| panic!("enough points: {e}"));

    let mut findings = Vec::new();
    let exponent = match fit.best {
        FittedLaw::Power { exponent, .. } => exponent,
        _ => f64::NAN,
    };
    findings.push(Finding::new(
        "fitted law shape",
        "r ∝ M^0.5",
        format!("{}", fit.best),
        (exponent - 0.5).abs() < 0.10,
    ));
    rebalance_findings(
        &curve,
        GrowthLaw::Polynomial { degree: 2.0 },
        256.0,
        &[2.0],
        0.30,
        &mut findings,
    );
    // Convergence toward α² with growing N.
    let mems: Vec<usize> = (5..=12).map(|k| 1usize << k).collect();
    let f_small = alpha2_factor(&Triangularization, 64, &mems, 256.0);
    let f_large = alpha2_factor(&Triangularization, 128, &mems, 256.0);
    findings.push(Finding::new(
        "α=2 factor converges to 4 as N grows",
        "|err(N=128)| < |err(N=64)|",
        format!("N=64: ×{f_small:.2}, N=128: ×{f_large:.2}"),
        (f_large - 4.0).abs() < (f_small - 4.0).abs(),
    ));
    Report {
        id: "E3",
        title: "matrix triangularization (§3.2): M_new = α²·M_old",
        body: points_table(&result),
        findings,
    }
}

/// E4 — §3.3 grid relaxation: `r(M) = Θ(M^(1/d))`, `M_new = α^d·M_old`.
#[must_use]
pub fn e4_grid() -> Report {
    let mut body = String::new();
    let mut findings = Vec::new();
    for d in 1..=4usize {
        // Exact tile sides, small→large, with an α=2 pair (s, 2s) embedded.
        let sides: Vec<usize> = match d {
            1 => vec![8, 16, 32, 64, 128, 256],
            2 => vec![4, 8, 12, 16, 24, 32],
            3 => vec![3, 5, 7, 10, 14],
            _ => vec![3, 4, 6, 8, 12],
        };
        let result = grid_sweep(d, &sides);
        body.push_str(&format!(
            "-- grid{d}d (M = s^d) --\n{}",
            points_table(&result)
        ));

        let fit = result.fit().unwrap_or_else(|e| panic!("enough points: {e}"));
        let exponent = match fit.best {
            FittedLaw::Power { exponent, .. } => exponent,
            _ => f64::NAN,
        };
        let want = 1.0 / d as f64;
        findings.push(Finding::new(
            format!("grid{d}d fitted exponent"),
            format!("M^{want:.3}"),
            format!("M^{exponent:.3}"),
            (exponent - want).abs() < 0.05 * want,
        ));

        // The rebalancing rule: α = 2 must multiply the tile memory by
        // exactly α^d (equivalently: double the tile side).
        let curve = result.curve().unwrap_or_else(|e| panic!("enough points: {e}"));
        let s_old = sides[1];
        let m_old = (s_old as f64).powi(d as i32);
        let m_new = curve
            .empirical_rebalance(2.0, m_old)
            .unwrap_or_else(|e| panic!("growing curve: {e}"));
        let factor = m_new / m_old;
        let ideal = 2.0f64.powi(d as i32);
        findings.push(Finding::new(
            format!("grid{d}d: α=2 memory factor"),
            format!("×{ideal:.0}"),
            format!("×{factor:.2}"),
            (factor / ideal - 1.0).abs() < 0.10,
        ));
        // Honesty check on the implementation overhead: the halo shell
        // scratch stays a bounded constant factor above the paper's M.
        let last = result.runs.last().unwrap_or_else(|| panic!("nonempty"));
        let s_last = *sides.last().unwrap_or_else(|| panic!("nonempty"));
        let overhead = last.execution.peak_memory.get() as f64 / (s_last as f64).powi(d as i32);
        findings.push(Finding::new(
            format!("grid{d}d: halo-buffer overhead at s={s_last}"),
            "bounded (≤ 3× of s^d, → 2×)",
            format!("×{overhead:.2}"),
            overhead <= 3.0,
        ));
    }
    Report {
        id: "E4",
        title: "d-dimensional grid relaxation (§3.3): M_new = α^d·M_old",
        body,
        findings,
    }
}

/// E5 — §3.4 FFT: `r(M) = Θ(log₂M)`, `M_new = M_old^α`.
#[must_use]
pub fn e5_fft() -> Report {
    let t = 12u32;
    let n = 1u64 << t;
    let result = fft_sweep(t);
    let fit = result.fit().unwrap_or_else(|e| panic!("enough points: {e}"));

    let mut findings = Vec::new();
    findings.push(Finding::new(
        "fitted law shape",
        "r ∝ log₂M  (⇒ M_new = M_old^α)",
        format!("{}", fit.best),
        matches!(fit.best, FittedLaw::Log2 { .. }),
    ));
    findings.push(Finding::new(
        "growth classification",
        "exponential",
        law_name(fit.best.growth_law()),
        fit.best.growth_law() == GrowthLaw::Exponential,
    ));

    // Per-pass (block-level) intensity: the paper's Θ(M log M / M) law is
    // exact per block: 12 ops per butterfly × μ stages over 8 words moved.
    let mut body = points_table(&result);
    body.push_str(&format!(
        "{:>10} {:>8} {:>16} {:>16}\n",
        "M", "log₂B", "per-pass ratio", "1.5·log₂B"
    ));
    let mut per_pass_ok = true;
    for run in &result.runs {
        let io = run.execution.cost.io_words();
        let comp = run.execution.cost.comp_ops();
        let passes = io / (4 * n) - 1; // total io = bit-rev 4N + 4N per pass
        let r_pass = comp as f64 / (4 * n * passes) as f64;
        let mu = block_points(run.m).trailing_zeros() as f64;
        let expected = 1.5 * mu;
        per_pass_ok &= (r_pass / expected - 1.0).abs() < 0.01;
        body.push_str(&format!(
            "{:>10} {:>8} {:>16.3} {:>16.3}\n",
            run.m, mu, r_pass, expected
        ));
    }
    findings.push(Finding::new(
        "per-pass intensity = 1.5·log₂(block)",
        "within 1%",
        if per_pass_ok { "matches" } else { "deviates" },
        per_pass_ok,
    ));

    // The headline law, within the block-size constant: M_new = M_old^α up
    // to the ×2 complex-word factor (our B = M/2 words per block).
    let curve = result.curve().unwrap_or_else(|e| panic!("enough points: {e}"));
    for (m_old, alpha) in [(16.0f64, 2.0f64), (32.0, 2.0)] {
        let ideal = m_old.powf(alpha);
        match curve.empirical_rebalance(alpha, m_old) {
            Ok(m_new) => {
                let off = if m_new > ideal {
                    m_new / ideal
                } else {
                    ideal / m_new
                };
                findings.push(Finding::new(
                    format!("rebalance α={alpha} from M={m_old}"),
                    format!("≈ M^α = {ideal:.0} (within ×4)"),
                    format!("{m_new:.0}"),
                    off <= 4.0,
                ));
            }
            Err(e) => findings.push(Finding::new(
                format!("rebalance α={alpha} from M={m_old}"),
                format!("≈ {ideal:.0}"),
                format!("error: {e}"),
                false,
            )),
        }
    }
    Report {
        id: "E5",
        title: "FFT (§3.4): M_new = M_old^α",
        body,
        findings,
    }
}

/// E6 — §3.5 sorting: `r(M) = Θ(log₂M)`, `M_new = M_old^α`.
///
/// Measured in the paper's own configuration `N = M²`: phase 1 makes
/// `N/M = M` runs of `M` keys, phase 2 merges them in a single `M`-way heap
/// merge. Both phases then cost `Θ(log₂M)` comparisons per word moved.
#[must_use]
pub fn e6_sorting() -> Report {
    let result = sort_sweep(&[32, 48, 64, 96, 128, 192, 256, 384, 512]);
    let fit = result.fit().unwrap_or_else(|e| panic!("enough points: {e}"));

    let mut findings = Vec::new();
    findings.push(Finding::new(
        "fitted law shape",
        "r ∝ log₂M  (⇒ M_new = M_old^α)",
        format!("{}", fit.best),
        matches!(fit.best, FittedLaw::Log2 { .. }),
    ));
    findings.push(Finding::new(
        "growth classification",
        "exponential",
        law_name(fit.best.growth_law()),
        fit.best.growth_law() == GrowthLaw::Exponential,
    ));
    // I/O in this regime is exactly 6N words: run formation moves 2N, and
    // the M runs merge in two k-way levels (k = M/3 < M), 2N each.
    let io_exact = result
        .runs
        .iter()
        .all(|r| r.execution.cost.io_words() == 6 * (r.n as u64));
    findings.push(Finding::new(
        "I/O = 6N words (run formation + 2 merge levels)",
        "exact",
        if io_exact { "exact" } else { "deviates" },
        io_exact,
    ));
    Report {
        id: "E6",
        title: "sorting (§3.5): M_new = M_old^α (measured at N = M²)",
        body: points_table(&result),
        findings,
    }
}

/// E7 — §3.6 I/O-bounded computations: rebalancing impossible.
#[must_use]
pub fn e7_io_bounded() -> Report {
    let mut body = String::new();
    let mut findings = Vec::new();
    let kernels: [(&dyn Kernel, usize); 2] = [(&MatVec, 96), (&TriSolve, 96)];
    for (kernel, n) in kernels {
        let cfg = SweepConfig::pow2(n, 3, 13, SEED).with_verify(Verify::auto(n));
        let result = sweep(kernel, &cfg);
        body.push_str(&format!(
            "-- {} --\n{}",
            kernel.name(),
            points_table(&result)
        ));
        let fit = result.fit().unwrap_or_else(|e| panic!("enough points: {e}"));
        findings.push(Finding::new(
            format!("{} classification", kernel.name()),
            "impossible (I/O-bounded)",
            law_name(fit.best.growth_law()),
            fit.best.growth_law() == GrowthLaw::Impossible,
        ));
        let curve = result.curve().unwrap_or_else(|e| panic!("enough points: {e}"));
        let slope = curve.tail_slope();
        findings.push(Finding::new(
            format!("{} intensity tail slope", kernel.name()),
            "≈ 0 (saturated)",
            format!("{slope:.4}"),
            slope.abs() < 0.05,
        ));
        // The rebalancing question must be unanswerable.
        let attempt = curve.empirical_rebalance(2.0, 1024.0);
        findings.push(Finding::new(
            format!("{} rebalance α=2", kernel.name()),
            "no finite memory",
            match &attempt {
                Ok(m) => format!("M = {m:.0} (!)"),
                Err(e) => format!("{e}"),
            },
            attempt.is_err(),
        ));
    }
    Report {
        id: "E7",
        title: "I/O-bounded computations (§3.6): rebalancing impossible",
        body,
        findings,
    }
}

/// E1 — the full Section-3 summary table, measured.
#[must_use]
pub fn e1_summary_table() -> Report {
    let mut rows: Vec<(&'static str, GrowthLaw, FittedLaw)> = Vec::new();

    let fit_of = |result: &SweepResult| result.fit().unwrap_or_else(|e| panic!("enough points: {e}")).best;

    // Matrix computations: keep b ≪ N by capping the sweep.
    let mm = sweep(&MatMul, &SweepConfig::pow2(64, 5, 10, SEED));
    rows.push(("matmul", GrowthLaw::Polynomial { degree: 2.0 }, fit_of(&mm)));
    let lu = sweep(&Triangularization, &SweepConfig::pow2(64, 5, 10, SEED));
    rows.push((
        "triangularization",
        GrowthLaw::Polynomial { degree: 2.0 },
        fit_of(&lu),
    ));

    // Grids at exact tile sides with T = 4s.
    let g2 = grid_sweep(2, &[4, 8, 12, 16, 24, 32]);
    rows.push(("grid2d", GrowthLaw::Polynomial { degree: 2.0 }, fit_of(&g2)));
    let g3 = grid_sweep(3, &[3, 5, 7, 10, 14]);
    rows.push(("grid3d", GrowthLaw::Polynomial { degree: 3.0 }, fit_of(&g3)));

    // FFT at pass-divisible blocks; sorting in the N = M² regime.
    let ff = fft_sweep(12);
    rows.push(("fft", GrowthLaw::Exponential, fit_of(&ff)));
    let so = sort_sweep(&[32, 64, 128, 256, 512]);
    rows.push(("sort", GrowthLaw::Exponential, fit_of(&so)));

    // I/O-bounded.
    let mv = sweep(&MatVec, &SweepConfig::pow2(64, 3, 12, SEED));
    rows.push(("matvec", GrowthLaw::Impossible, fit_of(&mv)));
    let ts = sweep(&TriSolve, &SweepConfig::pow2(64, 3, 12, SEED));
    rows.push(("trisolve", GrowthLaw::Impossible, fit_of(&ts)));

    let mut body = format!(
        "{:<20} {:>26} {:>34}\n",
        "computation", "paper law", "measured law"
    );
    let mut findings = Vec::new();
    for (name, expected, fitted) in &rows {
        let got = balance_core::fit::snap_degree(fitted.growth_law(), 0.35);
        let ok = match (*expected, got) {
            (GrowthLaw::Polynomial { degree: a }, GrowthLaw::Polynomial { degree: b }) => {
                (a - b).abs() < 0.01
            }
            (a, b) => a == b,
        };
        body.push_str(&format!(
            "{:<20} {:>26} {:>34}\n",
            name,
            law_name(*expected),
            format!("{fitted}")
        ));
        findings.push(Finding::new(
            format!("{name} growth law"),
            law_name(*expected),
            law_name(got),
            ok,
        ));
    }
    Report {
        id: "E1",
        title: "Section-3 summary table, measured end to end",
        body,
        findings,
    }
}
