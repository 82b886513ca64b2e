//! Property-based tests for the parallel-architecture models and the
//! systolic simulators.

use balance_core::{GrowthLaw, Words};
use balance_kernels::{reference, workload};
use balance_parallel::systolic::givens::triangularize;
use balance_parallel::systolic::matmul::systolic_matmul;
use balance_parallel::{Topology, TopologyKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Systolic matmul equals the reference product for random sizes/seeds.
    #[test]
    fn systolic_matmul_is_exact(n in 1usize..14, seed in 0u64..500) {
        let a = workload::random_matrix(n, seed);
        let b = workload::random_matrix(n, seed ^ 0xff);
        let run = systolic_matmul(&a, &b, n);
        let want = reference::matmul(&a, &b, n);
        prop_assert!(reference::max_abs_diff(&run.c, &want) < 1e-11 * (n as f64 + 1.0));
        prop_assert_eq!(run.cost.comp_ops(), 2 * (n as u64).pow(3));
        prop_assert_eq!(run.memory_per_cell, 3);
    }

    /// Givens triangularization preserves the Gram matrix and yields an
    /// upper-triangular R with nonnegative diagonal.
    #[test]
    fn givens_preserves_gram(n in 1usize..12, seed in 0u64..500) {
        let a = workload::random_matrix(n, seed);
        let run = triangularize(&a, n);
        for i in 0..n {
            prop_assert!(run.r[i * n + i] >= 0.0);
            for j in 0..i {
                prop_assert_eq!(run.r[i * n + j], 0.0);
            }
        }
        for i in 0..n {
            for j in 0..n {
                let mut rr = 0.0;
                let mut aa = 0.0;
                for k in 0..n {
                    rr += run.r[k * n + i] * run.r[k * n + j];
                    aa += a[k * n + i] * a[k * n + j];
                }
                prop_assert!((rr - aa).abs() < 1e-9 * (n as f64 + 1.0),
                    "gram mismatch at ({i},{j})");
            }
        }
    }

    /// Linear array: total required memory is p² × per-cell baseline for
    /// the matrix law, and per-PE memory is total / p — for any p.
    #[test]
    fn linear_array_identities(p in 1u64..200, m_old in 1u64..10_000) {
        let array = Topology::linear(p).unwrap();
        let law = GrowthLaw::Polynomial { degree: 2.0 };
        let total = array.required_total_memory(law, Words::new(m_old)).unwrap();
        let per_pe = array.required_memory_per_pe(law, Words::new(m_old)).unwrap();
        prop_assert_eq!(total.get(), p * p * m_old);
        prop_assert_eq!(per_pe.get(), p * m_old);
        prop_assert!((array.alpha().get() - p as f64).abs() < 1e-12);
    }

    /// Square mesh: per-PE memory for the α²-law is exactly the baseline,
    /// independent of p; for the α³-law it is p × baseline.
    #[test]
    fn mesh_identities(p in 1u64..200, m_old in 1u64..10_000) {
        let mesh = Topology::mesh(p).unwrap();
        let law2 = GrowthLaw::Polynomial { degree: 2.0 };
        let law3 = GrowthLaw::Polynomial { degree: 3.0 };
        prop_assert_eq!(
            mesh.required_memory_per_pe(law2, Words::new(m_old)).unwrap().get(),
            m_old
        );
        prop_assert_eq!(
            mesh.required_memory_per_pe(law3, Words::new(m_old)).unwrap().get(),
            p * m_old
        );
    }

    /// Mesh and linear array agree on alpha for equal PE counts only when
    /// p_mesh² = p_linear — the mesh gets more I/O for the same compute.
    #[test]
    fn mesh_has_more_io_headroom(p in 2u64..40) {
        let linear = Topology::linear(p * p).unwrap();
        let mesh = Topology::mesh(p).unwrap();
        // Same compute (p² cells), but mesh alpha = p < linear alpha = p².
        prop_assert!((linear.alpha().get() - (p * p) as f64).abs() < 1e-12);
        prop_assert!((mesh.alpha().get() - p as f64).abs() < 1e-12);
    }

    /// Systolic matmul utilization is exactly n/(3n−2): n³ useful
    /// cell-cycles over n²·(3n−2) — approaching 1/3 from above.
    #[test]
    fn systolic_utilization_exact(n in 2usize..16) {
        let a = workload::random_matrix(n, 1);
        let b = workload::random_matrix(n, 2);
        let run = systolic_matmul(&a, &b, n);
        let exact = n as f64 / (3 * n - 2) as f64;
        prop_assert!((run.utilization - exact).abs() < 1e-12);
    }
}

// --- Measured parallel machine: conservation and serial equivalence. ---

use balance_core::HierarchySpec;
use balance_kernels::Verify;
use balance_parallel::{
    analytic_series, measured_growth_law, parallel_kernels, ParMatMul, ParallelSweepConfig,
};

/// A per-kernel parameter pick that every registry kernel supports: small
/// problem sizes, memories above every minimum (and, for the grid, large
/// enough that each of up to 4 PEs owns a slab row).
fn kernel_params(idx: usize, n_raw: usize, m_raw: usize) -> (usize, usize) {
    match idx {
        0 => (4 + n_raw % 14, 3 + m_raw),        // matmul: n in 4..18
        1 => (1 + n_raw % 20, 1 + m_raw),        // transpose: n in 1..21
        _ => (1 + n_raw % 4, 60 + m_raw),        // grid2d: iterations 1..5
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Traffic conservation: for every kernel in the parallel registry, on
    /// machines of 1..=4 PEs, the per-PE external I/O counters sum exactly
    /// to the machine-boundary counter — no word appears or vanishes
    /// between the two ledgers, and communication stays a separate class.
    #[test]
    fn parallel_external_io_is_conserved(
        p in 1u64..5,
        n_raw in 0usize..100,
        m_raw in 0usize..200,
        seed in 0u64..1000,
    ) {
        for (idx, kernel) in parallel_kernels().iter().enumerate() {
            let (n, m) = kernel_params(idx, n_raw, m_raw);
            let topo = Topology::linear(p).unwrap();
            let run = kernel
                .run_on(topo, n, &HierarchySpec::flat_words(m), seed, Verify::Full)
                .unwrap();
            let per_pe_sum: u64 = run
                .execution
                .per_pe
                .iter()
                .map(|r| r.execution.cost.io_words())
                .sum();
            prop_assert_eq!(per_pe_sum, run.execution.machine_port_words,
                "kernel {} p={} m={}", kernel.name(), p, m);
            prop_assert_eq!(per_pe_sum, run.execution.port_words());
            // On flat PEs the port IS the external boundary.
            prop_assert_eq!(per_pe_sum, run.execution.external_words());
            prop_assert!(run.execution.is_conserved());
            // 1-PE machines never communicate.
            if p == 1 {
                prop_assert_eq!(run.execution.comm_words, 0);
            }
        }
    }

    /// A 1-PE ParallelMachine is bit-identical to the serial single-PE
    /// `Kernel::run_on` path for every kernel in the registry: same
    /// operation count, same per-level traffic vector, same peak memory —
    /// on flat machines and under a two-level hierarchy alike.
    #[test]
    fn one_pe_machine_matches_serial_kernel_exactly(
        n_raw in 0usize..100,
        m_raw in 0usize..200,
        seed in 0u64..1000,
        leveled in proptest::bool::ANY,
    ) {
        for (idx, kernel) in parallel_kernels().iter().enumerate() {
            let (n, m) = kernel_params(idx, n_raw, m_raw);
            let spec = if leveled {
                HierarchySpec::new(vec![
                    balance_core::LevelSpec::new(
                        Words::new(m as u64),
                        balance_core::WordsPerSec::new(2.0),
                    ).unwrap(),
                    balance_core::LevelSpec::new(
                        Words::new(4 * m as u64 + 16),
                        balance_core::WordsPerSec::new(1.0),
                    ).unwrap(),
                ]).unwrap()
            } else {
                HierarchySpec::flat_words(m)
            };
            let serial = kernel.serial().run_on(n, &spec, seed, Verify::Full).unwrap();
            let par = kernel
                .run_on(Topology::linear(1).unwrap(), n, &spec, seed, Verify::Full)
                .unwrap();
            prop_assert_eq!(par.execution.per_pe.len(), 1);
            prop_assert_eq!(
                par.execution.per_pe[0].execution, serial.execution,
                "kernel {} n={} m={} leveled={}", kernel.name(), n, m, leveled
            );
            prop_assert_eq!(par.execution.comm_words, 0);
            prop_assert_eq!(par.per_pe_m, serial.m);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The §4 validation, measured: the growth law fitted from real
    /// multi-PE matmul runs snaps to the paper's matrix law (α²), and the
    /// per-PE memory-at-balance series it implies reproduces the analytic
    /// `analytic_series` predictions on both arrangements exactly — the
    /// only arithmetic between them is the shared `div_ceil` rounding.
    #[test]
    fn measured_per_pe_memory_matches_analytic_series(
        seed in 0u64..1000,
        m_old_raw in 1u64..5000,
    ) {
        let sweep = ParallelSweepConfig::new(
            64,
            vec![Topology::linear(1).unwrap(), Topology::linear(2).unwrap()],
            (5..=11).map(|k| 1usize << k).collect(),
            seed,
        )
        .with_verify(Verify::Freivalds { rounds: 1 });
        let measured_law = measured_growth_law(&ParMatMul, &sweep, 0.35).unwrap();
        prop_assert_eq!(measured_law, GrowthLaw::Polynomial { degree: 2.0 });

        let m_old = Words::new(m_old_raw);
        let ps = [1u64, 2, 4, 8, 16, 32];
        // Linear arrays: measured-law predictions == analytic predictions,
        // point for point (per-PE = div_ceil(total, p) on both sides).
        let analytic = analytic_series(
            TopologyKind::Linear, GrowthLaw::Polynomial { degree: 2.0 }, m_old, &ps,
        ).unwrap();
        let measured = analytic_series(TopologyKind::Linear, measured_law, m_old, &ps).unwrap();
        for (a, m) in analytic.iter().zip(&measured) {
            prop_assert_eq!(a.per_pe_memory, m.per_pe_memory, "linear p = {}", a.p);
            prop_assert_eq!(a.total_memory, m.total_memory);
            prop_assert_eq!(a.per_pe_memory, a.total_memory.div_ceil(a.p));
        }
        // Meshes: same law, per-PE constant (self-balancing, Fig. 4).
        let analytic = analytic_series(
            TopologyKind::Mesh, GrowthLaw::Polynomial { degree: 2.0 }, m_old, &ps,
        ).unwrap();
        let measured = analytic_series(TopologyKind::Mesh, measured_law, m_old, &ps).unwrap();
        for (a, m) in analytic.iter().zip(&measured) {
            prop_assert_eq!(a.per_pe_memory, m.per_pe_memory, "mesh p = {}", a.p);
            prop_assert_eq!(m.per_pe_memory, m_old_raw, "self-balancing");
        }
    }
}
