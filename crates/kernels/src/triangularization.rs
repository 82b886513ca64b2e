//! Blocked matrix triangularization via LU / Gaussian elimination
//! (paper §3.2).
//!
//! The paper: the triangularization proceeds in `N/√M` steps, each
//! annihilating `√M` consecutive columns and updating the trailing matrix;
//! per step `C_comp = Θ(N²·√M)` and `C_io = Θ(N²)`, so `r(M) = Θ(√M)` and
//! `M_new = α²·M_old`, exactly as for matrix multiplication.
//!
//! The implementation is a right-looking blocked LU factorization without
//! pivoting (inputs are generated diagonally dominant, so pivoting is
//! unnecessary and the factorization is numerically safe):
//!
//! 1. factor the `b × b` diagonal block in memory;
//! 2. compute the panel `L(i,k) = A(i,k)·U(k,k)⁻¹` block by block;
//! 3. compute the row panel `U(k,j) = L(k,k)⁻¹·A(k,j)` block by block;
//! 4. trailing update `A(i,j) -= L(i,k)·U(k,j)` — three resident tiles,
//!    `3b² ≤ M`, the dominant term in both ops and I/O.
//!
//! Gaussian elimination is one of the two standard triangularization
//! algorithms the paper names; the other (Givens rotations) is implemented
//! as a systolic array in `balance-parallel` (Gentleman–Kung).

use balance_core::{CostProfile, HierarchySpec, IntensityModel};
use balance_machine::{ExternalStore, Pe};

use crate::error::KernelError;
use crate::matmul::tile_side;
use crate::matrix::{load_block, store_block, MatrixHandle};
use crate::reference;
use crate::traits::{Kernel, KernelRun};
use crate::verify::{self, Verify};
use crate::workload;

/// Blocked out-of-core LU triangularization.
#[derive(Debug, Clone, Copy, Default)]
pub struct Triangularization;

impl Kernel for Triangularization {
    fn access_trace(&self, n: usize) -> Option<crate::trace::AccessTrace> {
        crate::trace::triangularization(n).filter(|_| n > 0)
    }

    fn name(&self) -> &'static str {
        "triangularization"
    }

    fn description(&self) -> &'static str {
        "N×N LU factorization (Gaussian elimination), b-wide panels with 3b² ≤ M (paper §3.2)"
    }

    fn intensity_model(&self) -> IntensityModel {
        // Trailing updates dominate: 2·ib·kb·jb ops against 4·b² words per
        // tile-triple — ratio ≈ b/2 = √(M/3)/2.
        IntensityModel::sqrt_m(0.5 / 3.0f64.sqrt())
    }

    fn analytic_cost(&self, n: usize, m: usize) -> CostProfile {
        let b = tile_side(m).min(n.max(1)) as u64;
        let n = n as u64;
        // Flop count of LU: ~2n³/3. I/O: the trailing update reads 3 and
        // writes 1 tile (4b² words) per 2b³ ops -> io ≈ (2n³/3)·(2/b).
        let comp = 2 * n * n * n / 3;
        let io = 4 * n * n * n / (3 * b) + 2 * n * n;
        CostProfile::new(comp, io)
    }

    fn min_memory(&self, _n: usize) -> usize {
        3
    }

    fn run_on(
        &self,
        n: usize,
        machine: &HierarchySpec,
        seed: u64,
        verify: Verify,
    ) -> Result<KernelRun, KernelError> {
        let m = machine.local_capacity_words();
        if n == 0 {
            return Err(KernelError::BadParameters {
                reason: "matrix size must be positive".into(),
            });
        }
        if m < self.min_memory(n) {
            return Err(KernelError::MemoryTooSmall {
                have: m,
                need: self.min_memory(n),
            });
        }
        let b = tile_side(m).min(n);

        let mut store = ExternalStore::new();
        let a_data = workload::random_diagonally_dominant(n, seed);
        let a = MatrixHandle::new(store.alloc_from(&a_data), n, n);

        let mut pe = Pe::for_hierarchy(machine);
        let buf_d = pe.alloc(b * b)?; // diagonal block / L(i,k)
        let buf_p = pe.alloc(b * b)?; // panel block / U(k,j)
        let buf_t = pe.alloc(b * b)?; // trailing tile

        for k0 in (0..n).step_by(b) {
            let kb = b.min(n - k0);

            // 1. Factor the diagonal block in memory.
            load_block(&mut pe, &store, &a, k0, k0, kb, kb, buf_d)?;
            let ops = {
                let d = pe.buf_mut(buf_d)?;
                let mut ops = 0u64;
                for k in 0..kb {
                    let pivot = d[k * kb + k];
                    for i in k + 1..kb {
                        d[i * kb + k] /= pivot;
                        ops += 1;
                        let lik = d[i * kb + k];
                        for j in k + 1..kb {
                            d[i * kb + j] -= lik * d[k * kb + j];
                            ops += 2;
                        }
                    }
                }
                ops
            };
            pe.count_ops(ops);
            store_block(&mut pe, &mut store, &a, k0, k0, kb, kb, buf_d)?;

            // 2. Column panel: L(i,k) = A(i,k)·U(k,k)⁻¹.
            for i0 in ((k0 + b)..n).step_by(b) {
                let ib = b.min(n - i0);
                load_block(&mut pe, &store, &a, i0, k0, ib, kb, buf_p)?;
                let ops = pe.update(buf_p, &[buf_d], |p, srcs| {
                    let d = srcs[0];
                    let mut ops = 0u64;
                    for r in 0..ib {
                        for k in 0..kb {
                            let mut s = p[r * kb + k];
                            for t in 0..k {
                                s -= p[r * kb + t] * d[t * kb + k];
                                ops += 2;
                            }
                            p[r * kb + k] = s / d[k * kb + k];
                            ops += 1;
                        }
                    }
                    ops
                })?;
                pe.count_ops(ops);
                store_block(&mut pe, &mut store, &a, i0, k0, ib, kb, buf_p)?;
            }

            // 3. Row panel: U(k,j) = L(k,k)⁻¹·A(k,j) (unit lower diagonal).
            for j0 in ((k0 + b)..n).step_by(b) {
                let jb = b.min(n - j0);
                load_block(&mut pe, &store, &a, k0, j0, kb, jb, buf_p)?;
                let ops = pe.update(buf_p, &[buf_d], |q, srcs| {
                    let d = srcs[0];
                    let mut ops = 0u64;
                    for c in 0..jb {
                        for k in 0..kb {
                            let mut s = q[k * jb + c];
                            for t in 0..k {
                                s -= d[k * kb + t] * q[t * jb + c];
                                ops += 2;
                            }
                            q[k * jb + c] = s;
                        }
                    }
                    ops
                })?;
                pe.count_ops(ops);
                store_block(&mut pe, &mut store, &a, k0, j0, kb, jb, buf_p)?;
            }

            // 4. Trailing update: A(i,j) -= L(i,k)·U(k,j).
            for i0 in ((k0 + b)..n).step_by(b) {
                let ib = b.min(n - i0);
                load_block(&mut pe, &store, &a, i0, k0, ib, kb, buf_d)?;
                for j0 in ((k0 + b)..n).step_by(b) {
                    let jb = b.min(n - j0);
                    load_block(&mut pe, &store, &a, k0, j0, kb, jb, buf_p)?;
                    load_block(&mut pe, &store, &a, i0, j0, ib, jb, buf_t)?;
                    pe.update(buf_t, &[buf_d, buf_p], |t, srcs| {
                        let (l, u) = (srcs[0], srcs[1]);
                        for i in 0..ib {
                            for k in 0..kb {
                                let lik = l[i * kb + k];
                                for j in 0..jb {
                                    t[i * jb + j] -= lik * u[k * jb + j];
                                }
                            }
                        }
                    })?;
                    pe.count_ops(2 * (ib * kb * jb) as u64);
                    store_block(&mut pe, &mut store, &a, i0, j0, ib, jb, buf_t)?;
                }
            }
        }

        match verify {
            Verify::Full => {
                // The packed L\U must reconstruct the original matrix.
                let lu = a.snapshot(&store);
                let back = reference::lu_reconstruct(&lu, n);
                let err = reference::max_abs_diff(&a_data, &back);
                let tol = 1e-9 * (n as f64 + 1.0);
                if err > tol {
                    return Err(KernelError::VerificationFailed {
                        what: "triangularization",
                        max_error: err,
                        tolerance: tol,
                    });
                }
            }
            Verify::Freivalds { rounds } => {
                let lu = a.snapshot(&store);
                verify::freivalds_lu(&a_data, &lu, n, seed, rounds)?;
            }
            Verify::None => {}
        }

        Ok(KernelRun {
            n,
            m,
            execution: pe.execution(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorization_is_verified_internally() {
        let run = Triangularization.run(24, 100, 1).unwrap();
        assert!(run.execution.cost.comp_ops() > 0);
        assert!(run.execution.cost.io_words() > 0);
    }

    #[test]
    fn block_size_does_not_change_the_result() {
        // LU without pivoting is unique, so any block size must verify.
        // Exercise b = 1 (fully streamed), b = 3 (ragged), b = n (in-memory).
        let n = 16;
        for m in [3, 27, 3 * n * n] {
            let run = Triangularization.run(n, m, 9).unwrap();
            assert_eq!(run.n, n, "m = {m}");
        }
    }

    #[test]
    fn comp_ops_close_to_two_thirds_n_cubed() {
        let n = 30;
        let run = Triangularization.run(n, 300, 2).unwrap();
        let expected = 2.0 * (n as f64).powi(3) / 3.0;
        let got = run.execution.cost.comp_ops() as f64;
        // Lower-order terms allowed: within 25% at this size.
        assert!(
            (got - expected).abs() / expected < 0.25,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn intensity_grows_like_sqrt_m() {
        let n = 48;
        let r1 = Triangularization.run(n, 48, 3).unwrap().intensity(); // b = 4
        let r2 = Triangularization.run(n, 768, 3).unwrap().intensity(); // b = 16
        let ratio = r2 / r1;
        assert!((2.5..5.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn peak_memory_within_m() {
        let run = Triangularization.run(20, 300, 4).unwrap();
        assert!(run.execution.peak_memory.get() <= 300);
    }

    #[test]
    fn edge_blocks_handled() {
        // n = 17, b = 4: ragged panels.
        let run = Triangularization.run(17, 48, 5).unwrap();
        assert!(run.execution.cost.comp_ops() > 0);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(matches!(
            Triangularization.run(0, 100, 0),
            Err(KernelError::BadParameters { .. })
        ));
        assert!(matches!(
            Triangularization.run(8, 1, 0),
            Err(KernelError::MemoryTooSmall { .. })
        ));
    }

    #[test]
    fn single_block_case() {
        // m big enough that b = n: everything in one in-memory factorization.
        let n = 12;
        let run = Triangularization.run(n, 3 * n * n, 6).unwrap();
        // I/O is then exactly read + write of the matrix.
        assert_eq!(run.execution.cost.io_words(), 2 * (n * n) as u64);
    }
}
