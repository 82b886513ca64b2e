//! Measure a balance law from scratch: sweep, fit, classify, rebalance.
//!
//! This walks the full experimental pipeline on blocked matrix
//! multiplication — the same machinery the `repro` harness uses for every
//! kernel — and cross-checks the empirical answer against the paper's
//! closed-form `M_new = α²·M_old`.
//!
//! ```bash
//! cargo run --release --example scaling_laws
//! ```

use kung_balance::core::fit::FittedLaw;
use kung_balance::kernels::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Measure: run the instrumented kernel across a memory sweep.
    //    (Memory sizes 3b² with b | N keep every block full.)
    let n = 96usize;
    let cfg = SweepConfig {
        n,
        memories: [4usize, 6, 8, 12, 16, 24, 32, 48]
            .iter()
            .map(|b| 3 * b * b)
            .collect(),
        seed: 42,
        // n = 96: anchored Freivalds verification (O(n²) per point, first
        // point fully verified) keeps the sweep fast without losing coverage.
        verify: Verify::auto(n),
        engine: Engine::Replay,
        ..SweepConfig::default()
    };
    // The sweep fans the points out over the cores, bit-identically to a
    // serial loop.
    let result = sweep(&MatMul, &cfg)?;
    println!("measured intensity of blocked {n}×{n} matmul:");
    println!("{:>8} {:>12} {:>12} {:>10}", "M", "C_comp", "C_io", "ratio");
    for run in &result.runs {
        println!(
            "{:>8} {:>12} {:>12} {:>10.3}",
            run.m,
            run.execution.cost.comp_ops(),
            run.execution.cost.io_words(),
            run.intensity()
        );
    }

    // 2. Fit: which of the paper's law shapes explains the data?
    let fit = result.fit()?;
    println!("\nfitted: {}", fit.best);
    if let FittedLaw::Power { exponent, .. } = fit.best {
        println!("   (paper §3.1 predicts exponent 0.5 — got {exponent:.3})");
    }

    // 3. Classify: what does that mean for rebalancing?
    println!("growth rule: {}", fit.best.growth_law());

    // 4. Rebalance empirically: no law assumed, just the measured curve.
    let curve = result.curve()?;
    println!("\nempirical rebalancing from M = 108 words:");
    println!("{:>6} {:>14} {:>14}", "α", "paper (α²·M)", "measured");
    for alpha in [2.0, 3.0, 4.0] {
        let m_new = curve.empirical_rebalance(alpha, 108.0)?;
        println!(
            "{:>6} {:>14.0} {:>14.0}",
            alpha,
            alpha * alpha * 108.0,
            m_new
        );
    }
    println!("\n(measured values sit slightly above α²·M — the finite-N");
    println!(" write-back term; the gap closes as N grows, see E2)");
    Ok(())
}
