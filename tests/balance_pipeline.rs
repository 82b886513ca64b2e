//! End-to-end pipeline tests: measure → fit → classify → rebalance →
//! validate, across every kernel in the registry.

use kung_balance::core::fit::FittedLaw;
use kung_balance::core::prelude::*;
use kung_balance::kernels::prelude::*;

/// Every kernel in the registry runs verified at a small size and its
/// measured intensity is positive and finite.
#[test]
fn all_kernels_run_verified() {
    for kernel in all_kernels() {
        let n = match kernel.name() {
            "fft" => 64,
            "sort" => 400,
            "grid2d" | "grid3d" => 4, // iterations
            _ => 24,
        };
        let m = kernel.min_memory(n).max(128);
        let run = kernel
            .run(n, m, 1)
            .unwrap_or_else(|e| panic!("{} failed: {e}", kernel.name()));
        assert!(run.intensity().is_finite(), "{}", kernel.name());
        assert!(run.intensity() > 0.0, "{}", kernel.name());
        assert!(
            run.execution.peak_memory.get() as usize <= m,
            "{} overflowed its memory budget",
            kernel.name()
        );
    }
}

/// The full pipeline on matmul: the fitted law must predict the measured
/// curve, and the rebalanced memory must actually restore balance on the
/// simulated PE.
#[test]
fn pipeline_closes_the_loop_on_matmul() {
    let n = 64usize;
    let memories: Vec<usize> = [4usize, 8, 16, 32].iter().map(|b| 3 * b * b).collect();
    let cfg = SweepConfig {
        n,
        memories,
        seed: 3,
        verify: Verify::Full,
        engine: Engine::Replay,
        ..SweepConfig::default()
    };
    let result = sweep(&MatMul, &cfg).unwrap();
    let fit = result.fit().unwrap();

    // 1. The fit predicts held-out measurements within 10%.
    let held_out = MatMul.run(n, 3 * 12 * 12, 3).unwrap(); // b = 12, not in sweep
    let predicted = fit.best.predict(held_out.m as f64);
    let measured = held_out.intensity();
    assert!(
        (predicted / measured - 1.0).abs() < 0.10,
        "prediction {predicted:.2} vs measurement {measured:.2}"
    );

    // 2. Classification matches the paper.
    assert!(matches!(fit.best, FittedLaw::Power { .. }));

    // 3. Empirical rebalancing restores balance on a simulated PE. Start
    //    from a PE balanced at M = 192 and double its compute bandwidth.
    let m_old = 192.0;
    let r_old = result.curve().unwrap().ratio_at(m_old);
    let pe_old = PeSpec::new(
        OpsPerSec::new(r_old * 1.0e6),
        WordsPerSec::new(1.0e6),
        Words::new(m_old as u64),
    )
    .unwrap();
    let run_old = MatMul.run(n, m_old as usize, 3).unwrap();
    assert!(run_old
        .execution
        .cost
        .balance_state(&pe_old, 0.05)
        .is_balanced());

    let pe_fast = pe_old.with_comp_scaled(2.0).unwrap();
    assert!(!run_old
        .execution
        .cost
        .balance_state(&pe_fast, 0.05)
        .is_balanced());

    let m_new = result
        .curve()
        .unwrap()
        .empirical_rebalance(2.0, m_old)
        .unwrap();
    // Round to the nearest full-tile memory.
    let b_new = kung_balance::kernels::matmul::tile_side(m_new.round() as usize);
    let run_new = MatMul.run(n, 3 * b_new * b_new, 3).unwrap();
    assert!(
        run_new
            .execution
            .cost
            .balance_state(&pe_fast, 0.15)
            .is_balanced(),
        "rebalanced run is {} at intensity {:.2} (machine balance {:.2})",
        run_new.execution.cost.balance_state(&pe_fast, 0.15),
        run_new.intensity(),
        pe_fast.machine_balance(),
    );
}

/// The pipeline refuses to answer for I/O-bounded kernels, matching §3.6.
#[test]
fn pipeline_detects_impossible_kernels() {
    let cfg = SweepConfig::pow2(48, 3, 11, 4);
    for kernel in [&MatVec as &dyn Kernel, &TriSolve] {
        let result = sweep(kernel, &cfg).unwrap();
        let fit = result.fit().unwrap();
        assert_eq!(
            fit.best.growth_law(),
            GrowthLaw::Impossible,
            "{} must classify as I/O-bounded, got {}",
            kernel.name(),
            fit.best
        );
        assert!(result
            .curve()
            .unwrap()
            .empirical_rebalance(2.0, 512.0)
            .is_err());
    }
}

/// Seeds are honored end to end: identical seeds give identical measured
/// profiles; different seeds still verify.
#[test]
fn reproducibility_across_seeds() {
    let a = MatMul.run(24, 108, 1234).unwrap();
    let b = MatMul.run(24, 108, 1234).unwrap();
    assert_eq!(a.execution, b.execution);
    let c = MatMul.run(24, 108, 5678).unwrap();
    // Costs are input-independent for matmul (dense): counts match even
    // across seeds; the *data* differs but the verified counts agree.
    assert_eq!(a.execution.cost, c.execution.cost);
}

/// Growth factors measured across two different sweeps of the same kernel
/// agree (the law is a property of the kernel, not the sweep). Both sweeps
/// use tile sides dividing N, so neither contains edge-block noise.
#[test]
fn law_is_sweep_invariant() {
    let n = 96;
    let coarse = SweepConfig {
        n,
        memories: [4usize, 8, 16, 32].iter().map(|b| 3 * b * b).collect(),
        seed: 9,
        verify: Verify::Full,
        engine: Engine::Replay,
        ..SweepConfig::default()
    };
    let fine = SweepConfig {
        n,
        memories: [4usize, 6, 8, 12, 16, 24, 32, 48]
            .iter()
            .map(|b| 3 * b * b)
            .collect(),
        seed: 9,
        verify: Verify::Full,
        engine: Engine::Replay,
        ..SweepConfig::default()
    };
    let f_coarse = sweep(&MatMul, &coarse)
        .unwrap()
        .curve()
        .unwrap()
        .empirical_rebalance(2.0, 192.0)
        .unwrap();
    let f_fine = sweep(&MatMul, &fine)
        .unwrap()
        .curve()
        .unwrap()
        .empirical_rebalance(2.0, 192.0)
        .unwrap();
    assert!(
        (f_coarse / f_fine - 1.0).abs() < 0.15,
        "coarse {f_coarse:.0} vs fine {f_fine:.0}"
    );
}
