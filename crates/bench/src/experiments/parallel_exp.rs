//! Experiments E8–E10: the Section-4 architecture results and the Warp
//! case study, plus the systolic decomposability demonstrations.

use balance_core::{GrowthLaw, Words};
use balance_kernels::{reference, workload};
use balance_parallel::systolic::givens::triangularize;
use balance_parallel::systolic::matmul::systolic_matmul;
use balance_parallel::warp::{case_study, default_computations};
use balance_parallel::{analytic_series, growth_exponent, TopologyKind};

use crate::report::{Finding, Report};

const PS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

fn series_table(series: &[balance_parallel::ScalingPoint]) -> String {
    let mut s = format!(
        "{:>6} {:>18} {:>18}\n",
        "p", "per-PE memory", "total memory"
    );
    for pt in series {
        s.push_str(&format!(
            "{:>6} {:>18} {:>18}\n",
            pt.p, pt.per_pe_memory, pt.total_memory
        ));
    }
    s
}

/// E8 — §4.1 / Fig. 3: linear arrays need per-PE memory ∝ p.
#[must_use]
pub fn e8_linear_array() -> Report {
    let m_old = Words::new(4096);
    let law = GrowthLaw::Polynomial { degree: 2.0 };
    let series = analytic_series(TopologyKind::Linear, law, m_old, &PS[1..])
        .unwrap_or_else(|e| panic!("law is possible: {e}"));
    let slope = growth_exponent(&series);

    let mut findings = vec![Finding::new(
        "per-PE memory growth exponent (matmul law)",
        "1.0 (linear in p)",
        format!("{slope:.4}"),
        (slope - 1.0).abs() < 0.01,
    )];
    // Spot value: p = 16 needs 16x the memory per PE.
    let p16 = series.iter().find(|s| s.p == 16).unwrap_or_else(|| panic!("p=16 in series"));
    findings.push(Finding::new(
        "per-PE memory at p=16",
        "16 × 4096 = 65536",
        p16.per_pe_memory.to_string(),
        p16.per_pe_memory == 65_536,
    ));
    Report {
        id: "E8",
        title: "linear array (§4.1, Fig. 3): per-PE memory grows linearly with p",
        body: series_table(&series),
        findings,
    }
}

/// E9 — §4.2 / Fig. 4: square meshes are self-balancing for α²-laws;
/// systolic algorithms realize the decomposition with O(1) memory per cell.
#[must_use]
pub fn e9_mesh() -> Report {
    let m_old = Words::new(4096);

    let matmul_series = analytic_series(
        TopologyKind::Mesh,
        GrowthLaw::Polynomial { degree: 2.0 },
        m_old,
        &PS[1..],
    )
    .unwrap_or_else(|e| panic!("law is possible: {e}"));
    let grid3_series = analytic_series(
        TopologyKind::Mesh,
        GrowthLaw::Polynomial { degree: 3.0 },
        m_old,
        &PS[1..],
    )
    .unwrap_or_else(|e| panic!("law is possible: {e}"));

    let slope2 = growth_exponent(&matmul_series);
    let slope3 = growth_exponent(&grid3_series);

    let mut body = String::from("-- matmul law (α²) --\n");
    body.push_str(&series_table(&matmul_series));
    body.push_str("-- 3-d grid law (α³) --\n");
    body.push_str(&series_table(&grid3_series));

    let mut findings = vec![
        Finding::new(
            "mesh per-PE memory exponent (matmul law)",
            "0.0 (constant: self-balancing)",
            format!("{slope2:.4}"),
            slope2.abs() < 0.01,
        ),
        Finding::new(
            "mesh per-PE memory exponent (3-d grid law)",
            "1.0 (p^(d-2): never self-balancing)",
            format!("{slope3:.4}"),
            (slope3 - 1.0).abs() < 0.01,
        ),
    ];

    // Decomposability premise: the systolic algorithms actually work.
    let n = 12;
    let a = workload::random_matrix(n, 77);
    let b = workload::random_matrix(n, 78);
    let run = systolic_matmul(&a, &b, n);
    let want = reference::matmul(&a, &b, n);
    let mm_err = reference::max_abs_diff(&run.c, &want);
    findings.push(Finding::new(
        "systolic matmul on 12×12 mesh",
        "exact product, 3 words/cell",
        format!("err {mm_err:.1e}, {} words/cell", run.memory_per_cell),
        mm_err < 1e-10 && run.memory_per_cell == 3,
    ));

    let aq = workload::random_matrix(n, 79);
    let qr = triangularize(&aq, n);
    // RᵀR must equal AᵀA.
    let mut max_err = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let mut rr = 0.0;
            let mut aa = 0.0;
            for k in 0..n {
                rr += qr.r[k * n + i] * qr.r[k * n + j];
                aa += aq[k * n + i] * aq[k * n + j];
            }
            max_err = max_err.max((rr - aa).abs());
        }
    }
    findings.push(Finding::new(
        "Gentleman–Kung triangularization array",
        "RᵀR = AᵀA, 2 words/cell",
        format!("err {max_err:.1e}, {} words/cell", qr.memory_per_cell),
        max_err < 1e-8 && qr.memory_per_cell == 2,
    ));

    Report {
        id: "E9",
        title: "square mesh (§4.2, Fig. 4): self-balancing for α²-laws",
        body,
        findings,
    }
}

/// E10 — §5: the Warp machine case study.
#[must_use]
pub fn e10_warp() -> Report {
    let report = case_study(&default_computations()).unwrap_or_else(|e| panic!("constants valid: {e}"));
    let mut findings = vec![
        Finding::new(
            "Warp cell machine balance C/IO",
            "0.5 op/word",
            format!("{}", report.cell_balance),
            (report.cell_balance - 0.5).abs() < 1e-12,
        ),
        Finding::new(
            "10-cell array balance",
            "5.0 op/word",
            format!("{}", report.array_balance),
            (report.array_balance - 5.0).abs() < 1e-12,
        ),
    ];
    // The paper's qualitative claim: 64K + high I/O bandwidth = headroom.
    let matmul = &report.rows[0];
    findings.push(Finding::new(
        "64K-word memory headroom for matrix work",
        "large (≫10×)",
        format!("{:.0}×", matmul.headroom.unwrap_or(0.0)),
        matmul.headroom.unwrap_or(0.0) > 10.0,
    ));
    let fft = report
        .rows
        .iter()
        .find(|r| r.computation == "fft")
        .unwrap_or_else(|| panic!("fft row"));
    findings.push(Finding::new(
        "FFT headroom is much smaller than matmul's",
        "ratio > 2×",
        format!(
            "matmul {:.0}× vs fft {:.0}×",
            matmul.headroom.unwrap_or(0.0),
            fft.headroom.unwrap_or(0.0)
        ),
        matmul.headroom.unwrap_or(0.0) > 2.0 * fft.headroom.unwrap_or(f64::INFINITY) / 2.0
            && fft.headroom.unwrap_or(f64::INFINITY) < matmul.headroom.unwrap_or(0.0) / 2.0,
    ));
    Report {
        id: "E10",
        title: "Warp machine case study (§5)",
        body: report.to_string(),
        findings,
    }
}
