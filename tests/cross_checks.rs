//! Cross-crate consistency: the same quantity computed through different
//! subsystems must agree.

use kung_balance::core::prelude::*;
use kung_balance::kernels::prelude::*;
use kung_balance::kernels::{matmul::tile_side, reference, workload};
use kung_balance::parallel::systolic::matmul::systolic_matmul;
use kung_balance::parallel::{warp_cell, Topology};
use kung_balance::pebble::builders::matmul_dag;
use kung_balance::pebble::strategies::blocked_matmul_order;
use kung_balance::pebble::{schedule_with_order, EvictionPolicy, Game};
use kung_balance::roofline::Roofline;

/// The analytic cost model and the instrumented kernel agree on matmul
/// whenever blocks divide the matrix evenly.
#[test]
fn analytic_matches_measured_matmul() {
    let (n, m) = (48usize, 3 * 12 * 12); // b = 12 divides 48
    let run = MatMul.run(n, m, 5).unwrap();
    let analytic = MatMul.analytic_cost(n, m);
    assert_eq!(run.execution.cost.comp_ops(), analytic.comp_ops());
    assert_eq!(run.execution.cost.io_words(), analytic.io_words());
}

/// The out-of-core kernel and the cycle-level systolic array compute the
/// same product (through completely different machinery).
#[test]
fn kernel_and_systolic_agree_with_reference() {
    let n = 16;
    let a = workload::random_matrix(n, 9);
    let b = workload::random_matrix(n, 10);
    let want = reference::matmul(&a, &b, n);
    let sys = systolic_matmul(&a, &b, n);
    assert!(reference::max_abs_diff(&sys.c, &want) < 1e-10);
    // The kernel verifies internally against the same reference.
    assert!(MatMul.run(n, 100, 9).is_ok());
}

/// The pebble game's blocked matmul schedule and the instrumented kernel
/// exhibit the same I/O scaling: quadrupling the tile area halves the
/// dominant streaming term.
#[test]
fn pebble_and_kernel_io_scale_identically() {
    let n = 8;
    let dag = matmul_dag(n);

    let io_small = schedule_with_order(&dag, &blocked_matmul_order(n, 1), 5, EvictionPolicy::Belady)
        .unwrap()
        .io as f64;
    let io_large = schedule_with_order(
        &dag,
        &blocked_matmul_order(n, 2),
        16,
        EvictionPolicy::Belady,
    )
    .unwrap()
    .io as f64;
    let pebble_gain = io_small / io_large;

    let k_small = MatMul.run(n, 3, 3).unwrap().execution.cost.io_words() as f64;
    let k_large = MatMul.run(n, 12, 3).unwrap().execution.cost.io_words() as f64;
    let kernel_gain = k_small / k_large;

    // Both should see roughly the b=1 → b=2 improvement (≈2× on the
    // streaming term); agree within 40%.
    assert!(
        (pebble_gain / kernel_gain - 1.0).abs() < 0.4,
        "pebble gain {pebble_gain:.2} vs kernel gain {kernel_gain:.2}"
    );
}

/// Pebble schedules replayed through the game report the same I/O the
/// strategy claimed.
#[test]
fn pebble_strategy_accounting_is_replayable() {
    let n = 6;
    let dag = matmul_dag(n);
    let out = schedule_with_order(
        &dag,
        &blocked_matmul_order(n, 2),
        14,
        EvictionPolicy::Belady,
    )
    .unwrap();
    let mut game = Game::new(&dag, 14);
    game.play(&out.schedule).unwrap();
    assert!(game.is_complete());
    assert_eq!(game.io(), out.io);
}

/// Roofline balanced memory and rebalance() answer the same question:
/// rebalancing to a machine with α-fold balance equals balancing the
/// α-scaled roofline.
#[test]
fn roofline_and_rebalance_agree() {
    // A compute-rich PE (balance 16) so the balanced memory is hundreds of
    // words and integer rounding is negligible.
    let pe = PeSpec::new(
        OpsPerSec::new(1.6e9),
        WordsPerSec::new(1.0e8),
        Words::new(4096),
    )
    .unwrap();
    let model = IntensityModel::sqrt_m(1.0 / 3.0f64.sqrt());

    let m_bal = Roofline::from_pe(&pe).balanced_memory(&model).unwrap();
    let alpha = Alpha::new(8.0).unwrap();
    let plan = rebalance(&model, alpha, m_bal).unwrap();

    let scaled = pe.with_comp_scaled(8.0).unwrap();
    let m_scaled = Roofline::from_pe(&scaled).balanced_memory(&model).unwrap();

    let rel = (plan.new_memory.as_f64() - m_scaled.as_f64()).abs() / m_scaled.as_f64();
    assert!(
        rel < 0.02,
        "rebalance gave {}, scaled roofline gave {}",
        plan.new_memory,
        m_scaled
    );
}

/// The aggregate-PE view (core) and the linear `Topology` (parallel) agree
/// on alpha.
#[test]
fn aggregate_views_agree() {
    let cell = warp_cell();
    for p in [2u64, 5, 16] {
        let via_core = Alpha::between(&cell, &cell.aggregate(p).unwrap()).unwrap();
        let via_parallel = Topology::linear(p).unwrap().alpha();
        assert!((via_core.get() - via_parallel.get()).abs() < 1e-12);
    }
}

/// tile_side and the kernel's memory accounting are consistent: the peak
/// local memory equals exactly the three resident tiles.
#[test]
fn matmul_peak_memory_is_three_tiles() {
    for m in [27usize, 108, 300, 768] {
        let b = tile_side(m);
        let run = MatMul.run(32, m, 1).unwrap();
        assert_eq!(
            run.execution.peak_memory.get() as usize,
            3 * b * b,
            "m = {m}"
        );
    }
}

/// Executions measured by kernels plug directly into the core balance
/// predicate: a PE whose machine balance equals the measured intensity is
/// balanced for that run.
#[test]
fn measured_execution_balances_the_matching_pe() {
    let run = MatMul.run(48, 300, 2).unwrap();
    let intensity = run.intensity();
    let pe = PeSpec::new(
        OpsPerSec::new(intensity * 1.0e6),
        WordsPerSec::new(1.0e6),
        Words::new(300),
    )
    .unwrap();
    assert!(run.execution.cost.balance_state(&pe, 1e-6).is_balanced());
    // Quadrupling compute bandwidth breaks balance in the I/O direction.
    let faster = pe.with_comp_scaled(4.0).unwrap();
    assert!(matches!(
        run.execution.cost.balance_state(&faster, 1e-6),
        BalanceState::IoLimited { .. }
    ));
}
