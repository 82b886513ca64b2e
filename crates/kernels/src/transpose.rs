//! Blocked matrix transpose — an extension kernel.
//!
//! Transpose performs no arithmetic at all: every word is read once and
//! written once, giving the most extreme I/O-bounded profile in the suite
//! (intensity ½ when each element move is charged as one "operation" — the
//! bookkeeping currency for data-rearrangement computations, as comparisons
//! are for sorting). No memory size changes it, making transpose a clean
//! negative control for the rebalancing pipeline.
//!
//! The blocked algorithm still *needs* its `b × b` tile to avoid strided
//! writes — memory buys transfer regularity, just never balance.

use balance_core::{CostProfile, HierarchySpec, IntensityModel};
use balance_machine::{AnalyticProfile, ExternalStore, Pe};

use crate::error::KernelError;
use crate::matrix::{load_block, MatrixHandle};
use crate::traits::{Kernel, KernelRun};
use crate::verify::Verify;
use crate::workload;

/// Blocked out-of-core transpose. Problem size `n` = matrix dimension.
#[derive(Debug, Clone, Copy, Default)]
pub struct Transpose;

impl Kernel for Transpose {
    fn access_trace(&self, n: usize) -> Option<crate::trace::AccessTrace> {
        crate::trace::transpose(n).filter(|_| n > 0)
    }

    fn analytic_profile(&self, n: usize) -> Option<AnalyticProfile> {
        // Every element of A is read once and every element of B written
        // once — no address repeats, so the histogram is pure compulsory
        // traffic. This generalizes the closed-form one-touch profile
        // `ParTranspose` has carried since PR 5.
        let n64 = n as u64;
        (n > 0).then(|| AnalyticProfile::one_touch(2 * n64 * n64))
    }

    fn name(&self) -> &'static str {
        "transpose"
    }

    fn description(&self) -> &'static str {
        "blocked N×N transpose; pure data movement (extension: the extreme I/O-bounded case)"
    }

    fn intensity_model(&self) -> IntensityModel {
        IntensityModel::constant(0.5)
    }

    fn analytic_cost(&self, n: usize, _m: usize) -> CostProfile {
        let n64 = n as u64;
        CostProfile::new(n64 * n64, 2 * n64 * n64)
    }

    fn min_memory(&self, _n: usize) -> usize {
        1
    }

    fn run_on(
        &self,
        n: usize,
        machine: &HierarchySpec,
        seed: u64,
        verify: Verify,
    ) -> Result<KernelRun, KernelError> {
        // No cheap randomized check exists: verify fully under any policy.
        let _ = verify;
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
        // Integer isqrt: f64 rounding above 2⁵³ must not inflate b².
        let b = m.isqrt().clamp(1, n);

        let a_data = workload::random_matrix(n, seed);
        let mut store = ExternalStore::new();
        let a = MatrixHandle::new(store.alloc_from(&a_data), n, n);
        let t = MatrixHandle::new(store.alloc(n * n), n, n);

        let mut pe = Pe::for_hierarchy(machine);
        let tile = pe.alloc(b * b)?;

        for i0 in (0..n).step_by(b) {
            let ib = b.min(n - i0);
            for j0 in (0..n).step_by(b) {
                let jb = b.min(n - j0);
                load_block(&mut pe, &store, &a, i0, j0, ib, jb, tile)?;
                // Transpose the tile in place (counted as one move op per
                // element) and write it to the mirrored position.
                let ops = {
                    let buf = pe.buf_mut(tile)?;
                    let mut scratch = vec![0.0; ib * jb];
                    for r in 0..ib {
                        for c in 0..jb {
                            scratch[c * ib + r] = buf[r * jb + c];
                        }
                    }
                    buf[..ib * jb].copy_from_slice(&scratch);
                    (ib * jb) as u64
                };
                pe.count_ops(ops);
                crate::matrix::store_block(&mut pe, &mut store, &t, j0, i0, jb, ib, tile)?;
            }
        }

        // Verify.
        let got = t.snapshot(&store);
        for i in 0..n {
            for j in 0..n {
                if got[j * n + i] != a_data[i * n + j] {
                    return Err(KernelError::VerificationFailed {
                        what: "transpose",
                        max_error: (got[j * n + i] - a_data[i * n + j]).abs(),
                        tolerance: 0.0,
                    });
                }
            }
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
    fn transposes_correctly_at_all_tile_sizes() {
        for m in [1usize, 4, 16, 100, 1024] {
            let run = Transpose.run(20, m, 3).unwrap();
            assert_eq!(run.execution.cost.comp_ops(), 400);
        }
    }

    #[test]
    fn io_is_exactly_two_passes() {
        let n = 24;
        let run = Transpose.run(n, 64, 1).unwrap();
        assert_eq!(run.execution.cost.io_words(), 2 * (n * n) as u64);
    }

    #[test]
    fn intensity_is_exactly_half_regardless_of_memory() {
        for m in [4usize, 64, 4096] {
            let run = Transpose.run(32, m, 2).unwrap();
            assert_eq!(run.intensity(), 0.5, "m = {m}");
        }
    }

    #[test]
    fn io_bounded_flag() {
        assert!(Transpose.io_bounded());
    }

    #[test]
    fn single_word_memory_still_works() {
        let run = Transpose.run(8, 1, 4).unwrap();
        assert_eq!(run.execution.cost.io_words(), 128);
    }

    #[test]
    fn rejects_zero_size() {
        assert!(Transpose.run(0, 16, 0).is_err());
    }
}
