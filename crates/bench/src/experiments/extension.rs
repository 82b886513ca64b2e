//! Experiment E14 (extension): other computations, characterized with the
//! paper's methodology.
//!
//! The paper's concluding remarks: *"Further work in characterizing other
//! computations, in terms of their memory requirements for achieving
//! balanced architectures … will certainly provide additional insights."*
//! This experiment does exactly that for three more computations, all of
//! which land in the I/O-bounded class — but with different saturation
//! ceilings, which is the insight: **the ceiling equals the average reuse of
//! the dominant data set**, and only computations whose reuse grows with `M`
//! can be rebalanced by memory.
//!
//! | computation              | reuse of dominant data | ceiling        |
//! |--------------------------|------------------------|----------------|
//! | transpose                | 1 touch, 0 flops       | ½ (move/word)  |
//! | convolution, k taps      | k                      | ≈ k            |
//! | `Y = A·X` with v vectors | v                      | 2v             |

use balance_core::GrowthLaw;
use balance_kernels::prelude::*;

use crate::report::{Finding, Report};

use super::laws::SEED;

/// E14 — extension kernels: saturation ceilings track data reuse.
#[must_use]
pub fn e14_extension_kernels() -> Report {
    let mut body = String::new();
    let mut findings = Vec::new();

    // --- Classification: all three are I/O-bounded. ---
    body.push_str(&format!(
        "{:<16} {:>14} {:>30}\n",
        "kernel", "ceiling", "measured law"
    ));
    for kernel in extension_kernels() {
        // multi_matvec approaches its ceiling only harmonically in the tile
        // side, so its sweep must run far past the saturation knee.
        let cfg = match kernel.name() {
            "convolution" => SweepConfig::pow2(2000, 6, 13, SEED),
            "transpose" => SweepConfig::pow2(64, 6, 13, SEED),
            _ => SweepConfig::pow2(400, 8, 18, SEED),
        };
        let result = sweep(kernel.as_ref(), &cfg)
            .unwrap_or_else(|e| panic!("{} failed: {e}", kernel.name()));
        let fit = result.fit().unwrap_or_else(|e| panic!("enough points: {e}"));
        body.push_str(&format!(
            "{:<16} {:>14.1} {:>30}\n",
            kernel.name(),
            kernel.intensity_model().coeff(),
            format!("{}", fit.best)
        ));
        findings.push(Finding::new(
            format!("{} classification", kernel.name()),
            "impossible (I/O-bounded)",
            fit.best.growth_law().to_string(),
            fit.best.growth_law() == GrowthLaw::Impossible,
        ));
    }

    // --- The ceiling tracks filter length for convolution… ---
    body.push_str("\nconvolution ceiling vs filter length:\n");
    for k in [4usize, 16, 64] {
        let kernel = Convolution::new(k);
        let r = kernel
            .run(4000, 1 << 14, SEED)
            .unwrap_or_else(|e| panic!("verified: {e}"))
            .intensity();
        body.push_str(&format!("  k = {k:>3}: saturated intensity {r:.2}\n"));
        findings.push(Finding::new(
            format!("convolution k={k} ceiling"),
            format!("≈ {k}"),
            format!("{r:.2}"),
            (r / k as f64 - 1.0).abs() < 0.10,
        ));
    }

    // --- …and vector count for multi-matvec (the matvec→matmul bridge). ---
    body.push_str("\nmulti-matvec ceiling vs vector count (n = 48·v):\n");
    for v in [1usize, 4, 16] {
        let kernel = MultiMatVec::new(v);
        let n = 48 * v;
        let r = kernel.run(n, 1 << 16, SEED).unwrap_or_else(|e| panic!("verified: {e}")).intensity();
        body.push_str(&format!("  v = {v:>3}: saturated intensity {r:.2}\n"));
        findings.push(Finding::new(
            format!("multi_matvec v={v} ceiling"),
            format!("≈ {}", 2 * v),
            format!("{r:.2}"),
            (r / (2.0 * v as f64) - 1.0).abs() < 0.15,
        ));
    }

    // --- Transpose is pinned at exactly one move per two words. ---
    let r_t = Transpose.run(64, 4096, SEED).unwrap_or_else(|e| panic!("verified: {e}")).intensity();
    findings.push(Finding::new(
        "transpose intensity",
        "exactly 0.5",
        format!("{r_t}"),
        (r_t - 0.5).abs() < 1e-12,
    ));

    Report {
        id: "E14",
        title: "extension: other computations, same methodology (paper §5 outlook)",
        body,
        findings,
    }
}
