//! Experiment E21: the §4 scaling laws, validated by measurement.
//!
//! E8/E9 evaluate Kung's closed forms (per-PE memory ∝ `p` on a linear
//! array for the matrix law; constant on a mesh); this experiment *runs*
//! the kernels on measured multi-PE machines (`balance-parallel`'s
//! `ParallelMachine`) and finds the per-PE memory-at-balance by search
//! over real executions:
//!
//! * **linear matmul** — the α = p memory-per-PE walk: the smallest
//!   per-PE memory whose measured aggregate intensity reaches `p · C/IO`
//!   grows linearly in `p` (Fig. 3, by measurement);
//! * **mesh matmul** — self-balancing: the measured per-PE requirement
//!   stays flat while the PE count grows quadratically (Fig. 4);
//! * **fitted law** — the growth law fitted from the measured
//!   `(total memory, intensity)` cloud snaps to the paper's α² matrix
//!   law, so the analytic series and the measured series coincide;
//! * **transpose** — no per-PE memory balances an I/O-bounded computation
//!   on any arrangement: the §3.6 "impossible" verdict survives
//!   parallelism;
//! * **grid relaxation** — PEs pool memory through halo *communication*:
//!   a traffic class distinct from external I/O, priced against the
//!   topology's bisection bandwidth by the parallel roofline.

use balance_core::{GrowthLaw, OpsPerSec, PeSpec, Words, WordsPerSec};
use balance_kernels::Verify;
use balance_parallel::{
    analytic_series, growth_exponent, measured_balance_memory, measured_growth_law,
    measured_series, MeasuredBalanceConfig, ParGrid2d, ParMatMul, ParTranspose, ParallelKernel,
    ParallelSweepConfig, Topology, TopologyKind,
};
use balance_roofline::{ParallelBound, ParallelRoofline};

use crate::report::{Finding, Report};

/// The per-PE cell: 2 op/word of machine balance (2e7 op/s over 1e7
/// word/s) — modest enough that small measured machines can balance.
fn cell() -> PeSpec {
    PeSpec::new(
        OpsPerSec::new(2.0e7),
        WordsPerSec::new(1.0e7),
        Words::new(65_536),
    )
    .unwrap_or_else(|e| panic!("harness invariant violated: {e}"))
}

fn balance_cfg(n: usize) -> MeasuredBalanceConfig {
    MeasuredBalanceConfig {
        cell: cell(),
        n,
        seed: 21,
        verify: Verify::Full,
        m_max: 1 << 16,
    }
}

fn series_table(
    body: &mut String,
    label: &str,
    series: &[balance_parallel::ScalingPoint],
    analytic_per_pe: impl Fn(u64) -> u64,
) {
    body.push_str(&format!(
        "-- {label} --\n{:>6} {:>22} {:>22}\n",
        "p", "measured per-PE M_bal", "analytic per-PE M_bal"
    ));
    for pt in series {
        body.push_str(&format!(
            "{:>6} {:>22} {:>22}\n",
            pt.p,
            pt.per_pe_memory,
            analytic_per_pe(pt.p)
        ));
    }
}

/// E21 — measured parallel balance: run the registry on P-PE machines.
#[must_use]
pub fn e21_parallel() -> Report {
    let mut body = String::from(
        "cell: C = 2e7 op/s, IO = 1e7 word/s (balance 2 op/word); \
         aggregate target = alpha x 2 op/word\n\n",
    );
    let mut findings = Vec::new();

    // --- Linear array matmul: the alpha = p memory-per-PE walk. ---
    let lin = measured_series(&ParMatMul, TopologyKind::Linear, &[1, 2, 4, 8], &balance_cfg(32))
        .unwrap_or_else(|e| panic!("matmul balances on small linear arrays: {e}"));
    let m1 = lin[0].per_pe_memory;
    series_table(&mut body, "linear array, matmul (n = 32)", &lin, |p| p * m1);
    let slope = growth_exponent(&lin);
    findings.push(Finding::new(
        "linear matmul: measured per-PE memory growth",
        "exponent 1.0 (per-PE memory walks with p)",
        format!("{slope:.3}"),
        (slope - 1.0).abs() < 0.35,
    ));
    findings.push(Finding::new(
        "linear matmul: measured walk brackets the analytic line",
        "0.5.p.M1 <= M_p <= 2.p.M1",
        format!("M1 = {m1}, series {:?}", lin.iter().map(|s| s.per_pe_memory).collect::<Vec<_>>()),
        lin.iter()
            .all(|s| s.per_pe_memory * 2 >= s.p * m1 && s.per_pe_memory <= 2 * s.p * m1),
    ));

    // --- Mesh matmul: self-balancing (constant per-PE memory). ---
    let mesh = measured_series(&ParMatMul, TopologyKind::Mesh, &[1, 2, 3], &balance_cfg(32))
        .unwrap_or_else(|e| panic!("matmul balances on small meshes: {e}"));
    body.push('\n');
    series_table(&mut body, "square mesh, matmul (n = 32)", &mesh, |_| m1);
    let mesh_slope = growth_exponent(&mesh);
    findings.push(Finding::new(
        "mesh matmul: measured per-PE memory is flat",
        "exponent ~0 while PE count grows 9x",
        format!("{mesh_slope:.3}"),
        mesh_slope.abs() < 0.35,
    ));

    // --- Fitted law: measurement recovers alpha^2, series coincide. ---
    let sweep = ParallelSweepConfig::new(
        64,
        vec![
            Topology::linear(1).unwrap_or_else(|e| panic!("harness invariant violated: {e}")),
            Topology::linear(2).unwrap_or_else(|e| panic!("harness invariant violated: {e}")),
            Topology::linear(4).unwrap_or_else(|e| panic!("harness invariant violated: {e}")),
        ],
        (5..=11).map(|k| 1usize << k).collect(),
        21,
    )
    .with_verify(Verify::Freivalds { rounds: 2 });
    let law = measured_growth_law(&ParMatMul, &sweep, 0.35).unwrap_or_else(|e| panic!("fit succeeds: {e}"));
    findings.push(Finding::new(
        "fitted measured law (pooled across 1/2/4-PE machines)",
        "M_new = alpha^2 . M_old",
        format!("{law}"),
        law == GrowthLaw::Polynomial { degree: 2.0 },
    ));
    let analytic = analytic_series(
        TopologyKind::Linear,
        GrowthLaw::Polynomial { degree: 2.0 },
        Words::new(m1),
        &[2, 4, 8, 16, 32],
    )
    .unwrap_or_else(|e| panic!("law is possible: {e}"));
    let from_measured_law = analytic_series(
        TopologyKind::Linear,
        law,
        Words::new(m1),
        &[2, 4, 8, 16, 32],
    )
    .unwrap_or_else(|e| panic!("fit law: {e}"));
    findings.push(Finding::new(
        "measured-law series == analytic series (div_ceil exact)",
        "identical at every p",
        format!(
            "{:?}",
            from_measured_law.iter().map(|s| s.per_pe_memory).collect::<Vec<_>>()
        ),
        analytic
            .iter()
            .zip(&from_measured_law)
            .all(|(a, b)| a.per_pe_memory == b.per_pe_memory && a.total_memory == b.total_memory),
    ));

    // --- Transpose: I/O-bounded stays impossible on any arrangement. ---
    let impossible = measured_balance_memory(
        &ParTranspose,
        Topology::linear(2).unwrap_or_else(|e| panic!("harness invariant violated: {e}")),
        &MeasuredBalanceConfig {
            m_max: 4096,
            ..balance_cfg(24)
        },
    )
    .unwrap_or_else(|e| panic!("runs succeed: {e}"));
    findings.push(Finding::new(
        "transpose on 2 PEs: measured memory-at-balance",
        "none (I/O-bounded, paper section 3.6)",
        format!("{impossible:?}"),
        impossible.is_none(),
    ));

    // --- Grid relaxation: comm is a distinct, memory-pooling class. ---
    let flat = balance_core::HierarchySpec::flat_words(600);
    let g1 = ParGrid2d
        .run_on(Topology::linear(1).unwrap_or_else(|e| panic!("harness invariant violated: {e}")), 30, &flat, 21, Verify::Full)
        .unwrap_or_else(|e| panic!("grid runs: {e}"));
    let g4 = ParGrid2d
        .run_on(Topology::linear(4).unwrap_or_else(|e| panic!("harness invariant violated: {e}")), 30, &flat, 21, Verify::Full)
        .unwrap_or_else(|e| panic!("grid runs: {e}"));
    body.push_str(&format!(
        "\n-- grid2d (30 sweeps, 600 words per PE) --\n\
         {:>4} {:>10} {:>12} {:>12} {:>10} {:>10}\n",
        "p", "S", "ext words", "comm words", "r_ext", "r_comm"
    ));
    for (p, run) in [(1usize, &g1), (4, &g4)] {
        let s = ParGrid2d::super_tile_side(600, p);
        body.push_str(&format!(
            "{:>4} {:>10} {:>12} {:>12} {:>10.2} {:>10.2}\n",
            p,
            s,
            run.execution.external_words(),
            run.execution.comm_words,
            run.external_intensity(),
            run.execution.comm_intensity(),
        ));
    }
    findings.push(Finding::new(
        "grid2d: PEs pool memory through communication",
        "4 PEs raise aggregate intensity >= 1.5x; comm only at p > 1",
        format!(
            "r {:.2} -> {:.2}, comm {} -> {}",
            g1.external_intensity(),
            g4.external_intensity(),
            g1.execution.comm_words,
            g4.execution.comm_words
        ),
        g4.external_intensity() >= 1.5 * g1.external_intensity()
            && g1.execution.comm_words == 0
            && g4.execution.comm_words > 0,
    ));

    // --- Parallel roofline: the three-term verdict for a chattering
    //     matmul on the line's single-link bisection. ---
    let topo = Topology::linear(4).unwrap_or_else(|e| panic!("harness invariant violated: {e}"));
    let mm4 = ParMatMul
        .run_on(topo, 32, &balance_core::HierarchySpec::flat_words(12), 21, Verify::Full)
        .unwrap_or_else(|e| panic!("matmul runs: {e}"));
    let agg = topo.aggregate(cell()).unwrap_or_else(|e| panic!("aggregate: {e}"));
    let roofline = ParallelRoofline::new(
        agg.comp_bw(),
        agg.io_bw(),
        WordsPerSec::new(cell().io_bw().get() * topo.bisection_links() as f64),
    )
    .unwrap_or_else(|e| panic!("rates valid: {e}"));
    let attain = roofline.attainable(mm4.external_intensity(), mm4.execution.comm_intensity());
    let binding = roofline.binding(mm4.external_intensity(), mm4.execution.comm_intensity());
    body.push_str(&format!(
        "\nparallel roofline, linear(4): {roofline}\n\
         matmul (n=32, 12 words/PE): r_ext {:.2}, r_comm {:.2} -> \
         attainable {attain:.3e} op/s, binding: {binding}\n",
        mm4.external_intensity(),
        mm4.execution.comm_intensity(),
    ));
    findings.push(Finding::new(
        "starved matmul is bound below the aggregate roof",
        "attainable < C_total (external I/O or bisection binds)",
        format!("{attain:.3e} op/s, binds {binding}"),
        attain < agg.comp_bw().get() && binding != ParallelBound::Compute,
    ));

    // --- Conservation across everything this experiment ran. ---
    let conserved = g1.execution.is_conserved() && g4.execution.is_conserved();
    findings.push(Finding::new(
        "external I/O conservation (per-PE ledgers vs machine boundary)",
        "sums agree on every run",
        format!("{conserved}"),
        conserved,
    ));

    Report {
        id: "E21",
        title: "measured parallel balance: the section-4 laws by execution",
        body,
        findings,
    }
}
