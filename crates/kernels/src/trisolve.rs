//! Streaming triangular solve (paper §3.6, I/O-bounded).
//!
//! Solving `L·x = b` by forward substitution performs `≈N²` operations
//! against `≈N²/2` words of matrix traffic — every entry of `L` is used
//! exactly once. Like matrix–vector multiplication, the intensity saturates
//! at a constant (≈2 ops/word), so the paper classifies it "impossible":
//! no local memory enlargement rebalances a PE for this computation.
//!
//! The blocked implementation processes `x` in blocks: for each row block,
//! previously computed `x` blocks are re-read once, the corresponding `L`
//! panel streams through, and the diagonal block is solved in memory.

use balance_core::{CostProfile, HierarchySpec, IntensityModel};
use balance_machine::{AnalyticProfile, ExternalStore, Pe};

use crate::error::KernelError;
use crate::matrix::MatrixHandle;
use crate::reference;
use crate::traits::{Kernel, KernelRun};
use crate::verify::{self, Verify};
use crate::workload;

/// Blocked streaming forward substitution. Problem size `n` = dimension.
#[derive(Debug, Clone, Copy, Default)]
pub struct TriSolve;

impl Kernel for TriSolve {
    fn access_trace(&self, n: usize) -> Option<crate::trace::AccessTrace> {
        crate::trace::trisolve(n).filter(|_| n > 0)
    }

    /// Only `x` repeats: row `i` re-reads `x[0..i-1]` before writing `x[i]`.
    /// In row `i ≥ 1` the freshly solved `x[i-1]` recurs at distance `2i`
    /// (the `i-1` earlier `[L, x]` pairs plus `L[i][i-1]`, plus itself) and
    /// each older entry at `2i+1` (one extra: the row `i-1` tail it also
    /// spans) — a triangle of thin classes, one pair per row.
    fn analytic_profile(&self, n: usize) -> Option<AnalyticProfile> {
        if n == 0 {
            return None;
        }
        let n64 = n as u64;
        let mut p = AnalyticProfile::new();
        p.record_compulsory(n64 * (n64 + 1) / 2 + 2 * n64);
        for i in 1..n64 {
            p.record_class(2 * i, 1);
            p.record_class(2 * i + 1, i - 1);
        }
        Some(p)
    }

    fn name(&self) -> &'static str {
        "trisolve"
    }

    fn description(&self) -> &'static str {
        "forward substitution L·x = b; every L entry used once (paper §3.6, I/O-bounded)"
    }

    fn intensity_model(&self) -> IntensityModel {
        IntensityModel::constant(2.0)
    }

    fn analytic_cost(&self, n: usize, m: usize) -> CostProfile {
        let n64 = n as u64;
        let b = (m / 4).clamp(1, n.max(1)) as u64;
        // L lower triangle read once (n²/2), x prefix re-read per block
        // (n²/2b over all blocks... dominated), b and x once each.
        let io = n64 * n64 / 2 + n64 * n64 / (2 * b).max(1) + 2 * n64;
        CostProfile::new(n64 * n64, io)
    }

    fn min_memory(&self, _n: usize) -> usize {
        4
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
        // Memory split: acc block (b) + x prefix block (b) + L segment (b)
        // + b-vector block (b).
        let bs = (m / 4).clamp(1, n);

        let l_data = workload::random_lower_triangular(n, seed);
        let b_data = workload::random_vector(n, seed ^ 0xc2b2_ae35);
        let mut store = ExternalStore::new();
        let l = MatrixHandle::new(store.alloc_from(&l_data), n, n);
        let bvec = store.alloc_from(&b_data);
        let xvec = store.alloc(n);

        let mut pe = Pe::for_hierarchy(machine);
        let buf_acc = pe.alloc(bs)?; // partial sums, then solved x block
        let buf_x = pe.alloc(bs)?; // a previously computed x block
        let buf_l = pe.alloc(bs)?; // one row segment of L
        let buf_b = pe.alloc(bs)?; // the b block

        for k0 in (0..n).step_by(bs) {
            let kb = bs.min(n - k0);
            // acc = b block.
            pe.load(&store, bvec.at(k0, kb)?, buf_b, 0)?;
            pe.update(buf_acc, &[buf_b], |acc, srcs| {
                acc[..kb].copy_from_slice(&srcs[0][..kb]);
            })?;

            // Subtract contributions of previously solved x blocks.
            for j0 in (0..k0).step_by(bs) {
                let jb = bs.min(k0 - j0);
                pe.load(&store, xvec.at(j0, jb)?, buf_x, 0)?;
                for i in 0..kb {
                    pe.load(&store, l.row_segment(k0 + i, j0, jb)?, buf_l, 0)?;
                    pe.update(buf_acc, &[buf_l, buf_x], |acc, srcs| {
                        let (lv, xv) = (srcs[0], srcs[1]);
                        let mut s = 0.0;
                        for t in 0..jb {
                            s += lv[t] * xv[t];
                        }
                        acc[i] -= s;
                    })?;
                    pe.count_ops(2 * jb as u64 + 1);
                }
            }

            // Solve the diagonal block in memory: stream its L rows.
            for i in 0..kb {
                pe.load(&store, l.row_segment(k0 + i, k0, i + 1)?, buf_l, 0)?;
                pe.update(buf_acc, &[buf_l], |acc, srcs| {
                    let lv = srcs[0];
                    let mut s = acc[i];
                    for t in 0..i {
                        s -= lv[t] * acc[t];
                    }
                    acc[i] = s / lv[i];
                })?;
                pe.count_ops(2 * i as u64 + 1);
            }
            pe.store(&mut store, buf_acc, 0, xvec.at(k0, kb)?)?;
        }

        match verify {
            Verify::Full => {
                let want = reference::trisolve(&l_data, &b_data, n);
                let got = store.slice(xvec);
                let err = reference::max_abs_diff(&want, got);
                let tol = 1e-10 * (n as f64);
                if err > tol {
                    return Err(KernelError::VerificationFailed {
                        what: "trisolve",
                        max_error: err,
                        tolerance: tol,
                    });
                }
            }
            // A triangular solve has a natural O(n²) deterministic check:
            // the residual L·x̂ − b.
            Verify::Freivalds { .. } => {
                verify::trisolve_residual(&l_data, store.slice(xvec), &b_data, n)?;
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
    fn verifies_across_memories() {
        for m in [4, 16, 100, 1000] {
            let run = TriSolve.run(32, m, 7).unwrap();
            assert!(run.execution.cost.comp_ops() > 0, "m={m}");
        }
    }

    #[test]
    fn intensity_saturates() {
        let n = 64;
        let r_small = TriSolve.run(n, 16, 1).unwrap().intensity();
        let r_big = TriSolve.run(n, 8192, 1).unwrap().intensity();
        assert!(r_big <= 2.5, "r_big = {r_big}");
        assert!(r_big / r_small < 2.5, "small {r_small}, big {r_big}");
    }

    #[test]
    fn io_is_at_least_half_n_squared() {
        let n = 40;
        let run = TriSolve.run(n, 10_000, 2).unwrap();
        assert!(run.execution.cost.io_words() >= (n * n / 2) as u64);
    }

    #[test]
    fn io_bounded_flag_set() {
        assert!(TriSolve.io_bounded());
    }

    #[test]
    fn block_size_one_works() {
        let run = TriSolve.run(16, 4, 3).unwrap();
        assert_eq!(run.n, 16);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(TriSolve.run(0, 100, 0).is_err());
        assert!(TriSolve.run(8, 3, 0).is_err());
    }

    #[test]
    fn peak_memory_within_m() {
        let run = TriSolve.run(32, 64, 4).unwrap();
        assert!(run.execution.peak_memory.get() <= 64);
    }
}
