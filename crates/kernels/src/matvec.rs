//! Streaming matrix–vector multiplication (paper §3.6, I/O-bounded).
//!
//! `y = A·x` performs `2N²` operations but must read all `N²` matrix
//! entries, each used exactly once. No amount of local memory reduces the
//! traffic below `N²` words, so the intensity saturates:
//!
//! ```text
//! r(M) = Θ(1)  (→ 2 ops/word)      ⇒      rebalancing by memory alone is impossible
//! ```
//!
//! This is the paper's first example of a computation where "inputs and
//! intermediate results are not used more than a constant number of times on
//! the average". The blocked implementation below uses whatever memory it
//! gets (larger row blocks amortize re-reads of `x`), and its measured
//! intensity visibly *saturates* at 2 as `M` grows — the signature the
//! rebalancing solver detects as [`GrowthLaw::Impossible`].
//!
//! [`GrowthLaw::Impossible`]: balance_core::GrowthLaw

use balance_core::{CostProfile, HierarchySpec, IntensityModel};
use balance_machine::{AnalyticProfile, ExternalStore, Pe};

use crate::error::KernelError;
use crate::matrix::MatrixHandle;
use crate::reference;
use crate::traits::{Kernel, KernelRun};
use crate::verify::Verify;
use crate::workload;

/// Blocked streaming `y = A·x`. Problem size `n` = matrix dimension.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatVec;

impl Kernel for MatVec {
    fn access_trace(&self, n: usize) -> Option<crate::trace::AccessTrace> {
        crate::trace::matvec(n).filter(|_| n > 0)
    }

    fn analytic_profile(&self, n: usize) -> Option<AnalyticProfile> {
        // Row `i` interleaves `[A[i][j], x[j]]` for `j = 0..n`, then writes
        // `y[i]`. Only `x` repeats: between touches of `x[j]` in consecutive
        // rows sit the rest of row `i` (`2(n-1-j)` words plus `y[i]`) and the
        // head of row `i+1` (`2j` words), all distinct — a single reuse class
        // at distance `2n+1`, `n-1` reuses for each of the `n` entries of `x`.
        // Everything else (`A`, `y`) is touched exactly once.
        if n == 0 {
            return None;
        }
        let n64 = n as u64;
        let mut p = AnalyticProfile::new();
        p.record_compulsory(n64 * n64 + 2 * n64);
        p.record_class(2 * n64 + 1, n64 * (n64 - 1));
        Some(p)
    }

    fn name(&self) -> &'static str {
        "matvec"
    }

    fn description(&self) -> &'static str {
        "streaming y = A·x; every matrix entry used once (paper §3.6, I/O-bounded)"
    }

    fn intensity_model(&self) -> IntensityModel {
        IntensityModel::constant(2.0)
    }

    fn analytic_cost(&self, n: usize, m: usize) -> CostProfile {
        let n64 = n as u64;
        let r = (m / 3).clamp(1, n.max(1)) as u64;
        let c = (m / 3).clamp(1, n.max(1)) as u64;
        // A read once; x re-read once per row block; y written once.
        let io = n64 * n64 + n64.div_ceil(r) * n64 + n64;
        let _ = c;
        CostProfile::new(2 * n64 * n64, io)
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
        // Memory split: y block (r) + x chunk (c) + A row segment (c).
        let r = (m / 3).clamp(1, n);
        let c = (m / 3).clamp(1, n);

        let a_data = workload::random_matrix(n, seed);
        let x_data = workload::random_vector(n, seed ^ 0x5bd1_e995);
        let mut store = ExternalStore::new();
        let a = MatrixHandle::new(store.alloc_from(&a_data), n, n);
        let x = store.alloc_from(&x_data);
        let y = store.alloc(n);

        let mut pe = Pe::for_hierarchy(machine);
        let buf_y = pe.alloc(r)?;
        let buf_x = pe.alloc(c)?;
        let buf_a = pe.alloc(c)?;

        for i0 in (0..n).step_by(r) {
            let rb = r.min(n - i0);
            pe.buf_mut(buf_y)?[..rb].fill(0.0);
            for j0 in (0..n).step_by(c) {
                let cb = c.min(n - j0);
                pe.load(&store, x.at(j0, cb)?, buf_x, 0)?;
                for i in 0..rb {
                    pe.load(&store, a.row_segment(i0 + i, j0, cb)?, buf_a, 0)?;
                    let dot = pe.update(buf_y, &[buf_a, buf_x], |yv, srcs| {
                        let (av, xv) = (srcs[0], srcs[1]);
                        let mut acc = 0.0;
                        for t in 0..cb {
                            acc += av[t] * xv[t];
                        }
                        yv[i] += acc;
                        cb
                    })?;
                    pe.count_ops(2 * dot as u64 + 1);
                }
            }
            pe.store(&mut store, buf_y, 0, y.at(i0, rb)?)?;
        }

        let want = reference::matvec(&a_data, &x_data, n);
        let got = store.slice(y);
        let err = reference::max_abs_diff(&want, got);
        let tol = 1e-10 * (n as f64);
        if err > tol {
            return Err(KernelError::VerificationFailed {
                what: "matvec",
                max_error: err,
                tolerance: tol,
            });
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
    fn verifies_across_memories() {
        for m in [3, 12, 100, 1000] {
            let run = MatVec.run(32, m, 7).unwrap();
            assert!(run.execution.cost.comp_ops() >= 2 * 32 * 32, "m={m}");
        }
    }

    #[test]
    fn intensity_saturates_near_two() {
        let n = 64;
        let r_small = MatVec.run(n, 12, 1).unwrap().intensity();
        let r_big = MatVec.run(n, 4096, 1).unwrap().intensity();
        // More memory helps a little (fewer x re-reads) but saturates at 2.
        assert!(r_big <= 2.1, "r_big = {r_big}");
        assert!(r_big - r_small < 1.5, "small {r_small}, big {r_big}");
        assert!(r_big / r_small < 2.5, "no sqrt-like growth allowed");
    }

    #[test]
    fn io_is_at_least_n_squared() {
        let n = 48;
        let run = MatVec.run(n, 10_000, 2).unwrap();
        assert!(run.execution.cost.io_words() >= (n * n) as u64);
    }

    #[test]
    fn io_bounded_flag_set() {
        assert!(MatVec.io_bounded());
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(MatVec.run(0, 100, 0).is_err());
        assert!(MatVec.run(8, 2, 0).is_err());
    }

    #[test]
    fn peak_memory_within_m() {
        let run = MatVec.run(32, 64, 3).unwrap();
        assert!(run.execution.peak_memory.get() <= 64);
    }
}
