//! Multi-vector matrix–vector multiplication — the crossover kernel.
//!
//! `Y = A·X` with `v` right-hand-side vectors interpolates between the
//! paper's two worlds:
//!
//! * `v = 1` is matrix–vector multiplication — I/O-bounded, intensity
//!   saturated at 2 (§3.6);
//! * `v = N` is matrix multiplication — intensity `Θ(√M)`, rebalanceable
//!   with `M_new = α²·M_old` (§3.1).
//!
//! For fixed `v`, every element of `A` is used exactly `v` times, so the
//! intensity grows with `M` only until it saturates at `2v`: the computation
//! is rebalanceable **up to `α = v / r_old`** and impossible beyond. This
//! executable example sharpens the paper's dichotomy into a spectrum: the
//! saturation ceiling — the average reuse of the dominant data — is what
//! decides whether memory can buy balance.

use balance_core::{CostProfile, HierarchySpec, IntensityModel};
use balance_machine::{AnalyticProfile, ExternalStore, Pe};

use crate::error::KernelError;
use crate::matrix::{load_block, store_block, MatrixHandle};
use crate::reference;
use crate::traits::{Kernel, KernelRun};
use crate::verify::Verify;
use crate::workload;

/// Blocked `Y = A·X` with `v` columns in `X`. Problem size `n` = matrix
/// dimension.
#[derive(Debug, Clone, Copy)]
pub struct MultiMatVec {
    vectors: usize,
}

impl MultiMatVec {
    /// Creates the kernel with `v ≥ 1` right-hand sides.
    ///
    /// # Panics
    ///
    /// Panics if `vectors == 0`.
    #[must_use]
    pub fn new(vectors: usize) -> Self {
        assert!(vectors >= 1, "need at least one vector");
        MultiMatVec { vectors }
    }

    /// Number of right-hand-side vectors `v`.
    #[must_use]
    pub fn vectors(&self) -> usize {
        self.vectors
    }

    /// The tile side used at memory `m` (three `b×b`-ish panels, capped so
    /// a `b × v` panel of `X`/`Y` fits).
    #[must_use]
    pub fn tile_side(&self, m: usize) -> usize {
        // Panels: A-tile b×b, X-panel b×v, Y-panel b×v: b² + 2bv ≤ m.
        let v = self.vectors as f64;
        let mf = m as f64;
        let b = (-v + (v * v + mf).sqrt()).floor() as usize;
        b.max(1)
    }
}

impl Kernel for MultiMatVec {
    fn access_trace(&self, n: usize) -> Option<crate::trace::AccessTrace> {
        crate::trace::multi_matvec(n, self.vectors()).filter(|_| n > 0)
    }

    /// Per vector the trace is a matvec over `X[·][vec]`/`Y[·][vec]`, so the
    /// intra-vector `x` reuse class is matvec's (distance `2n+1`, `n(n-1)`
    /// reuses per vector). `A` additionally recurs across each of the `v-1`
    /// vector transitions: the window holds all `n²` of `A`, the old and new
    /// `x`/`y` columns, and loop-edge clippings at the first and last rows —
    /// interior rows collapse to one class at `n²+3n`, rows `0` and `n-1`
    /// contribute `2n` thin classes.
    fn analytic_profile(&self, n: usize) -> Option<AnalyticProfile> {
        if n == 0 {
            return None;
        }
        let n64 = n as u64;
        let v = self.vectors() as u64;
        let nn = n64 * n64;
        let mut p = AnalyticProfile::new();
        p.record_compulsory(nn + 2 * v * n64);
        p.record_class(2 * n64 + 1, v * n64 * (n64 - 1));
        if v >= 2 {
            let t = v - 1; // vector transitions
            for j in 0..n64 {
                // Row 0 reopens the new vector: only j+1 entries of the new
                // x column precede A[0][j]'s reuse.
                p.record_class(nn + 2 * n64 + j, t);
            }
            if n64 >= 2 {
                for j in 0..n64 {
                    // Row n-1 closes the old vector: the old x column is
                    // clipped past position j.
                    p.record_class(nn + 3 * n64 - j, t);
                }
            }
            if n64 >= 3 {
                p.record_class(nn + 3 * n64, t * (n64 - 2) * n64);
            }
        }
        Some(p)
    }

    fn name(&self) -> &'static str {
        "multi_matvec"
    }

    fn description(&self) -> &'static str {
        "Y = A·X with v vectors: interpolates matvec (v=1) → matmul (v=N); saturates at 2v"
    }

    fn intensity_model(&self) -> IntensityModel {
        // For fixed v the asymptotic classification is I/O-bounded with
        // ceiling 2v (each A element used v times).
        IntensityModel::constant(2.0 * self.vectors as f64)
    }

    fn analytic_cost(&self, n: usize, m: usize) -> CostProfile {
        let n64 = n as u64;
        let v = self.vectors as u64;
        let b = self.tile_side(m).min(n.max(1)) as u64;
        // A read once; X re-read once per row-block; Y written once.
        let io = n64 * n64 + n64.div_ceil(b) * n64 * v + n64 * v;
        CostProfile::new(2 * n64 * n64 * v, io)
    }

    fn min_memory(&self, _n: usize) -> usize {
        1 + 2 * self.vectors
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
        let v = self.vectors;
        let b = self.tile_side(m).min(n);

        let a_data = workload::random_matrix(n, seed);
        let x_data = workload::random_vector(n * v, seed ^ 0xabcd);
        let mut store = ExternalStore::new();
        let a = MatrixHandle::new(store.alloc_from(&a_data), n, n);
        let x = MatrixHandle::new(store.alloc_from(&x_data), n, v);
        let y = MatrixHandle::new(store.alloc(n * v), n, v);

        let mut pe = Pe::for_hierarchy(machine);
        let buf_a = pe.alloc(b * b)?;
        let buf_x = pe.alloc(b * v)?;
        let buf_y = pe.alloc(b * v)?;

        for i0 in (0..n).step_by(b) {
            let ib = b.min(n - i0);
            pe.buf_mut(buf_y)?[..ib * v].fill(0.0);
            for k0 in (0..n).step_by(b) {
                let kb = b.min(n - k0);
                load_block(&mut pe, &store, &a, i0, k0, ib, kb, buf_a)?;
                load_block(&mut pe, &store, &x, k0, 0, kb, v, buf_x)?;
                pe.update(buf_y, &[buf_a, buf_x], |yv, srcs| {
                    let (av, xv) = (srcs[0], srcs[1]);
                    for i in 0..ib {
                        for k in 0..kb {
                            let aik = av[i * kb + k];
                            for c in 0..v {
                                yv[i * v + c] += aik * xv[k * v + c];
                            }
                        }
                    }
                })?;
                pe.count_ops(2 * (ib * kb * v) as u64);
            }
            store_block(&mut pe, &mut store, &y, i0, 0, ib, v, buf_y)?;
        }

        // Verify column by column against the matvec reference.
        let got = y.snapshot(&store);
        for c in 0..v {
            let xc: Vec<f64> = (0..n).map(|r| x_data[r * v + c]).collect();
            let want = reference::matvec(&a_data, &xc, n);
            for r in 0..n {
                let err = (got[r * v + c] - want[r]).abs();
                let tol = 1e-10 * (n as f64);
                if err > tol {
                    return Err(KernelError::VerificationFailed {
                        what: "multi_matvec",
                        max_error: err,
                        tolerance: tol,
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
    fn verifies_across_vector_counts() {
        for v in [1usize, 2, 4, 8] {
            let k = MultiMatVec::new(v);
            let run = k.run(24, 256.max(k.min_memory(24)), 5).unwrap();
            assert_eq!(run.execution.cost.comp_ops(), 2 * 24u64.pow(2) * v as u64);
        }
    }

    #[test]
    fn tile_side_respects_memory() {
        for v in [1usize, 4, 16] {
            let k = MultiMatVec::new(v);
            for m in [k.min_memory(64), 100, 1000, 10000] {
                let b = k.tile_side(m);
                assert!(b * b + 2 * b * v <= m || b == 1, "v={v}, m={m}, b={b}");
            }
        }
    }

    #[test]
    fn intensity_saturates_at_two_v() {
        // The ceiling 2v is approached as n/v grows (the X and Y traffic
        // amortizes against A's n² words).
        for (v, n) in [(2usize, 96usize), (8, 384)] {
            let k = MultiMatVec::new(v);
            let r = k.run(n, 1 << 14, 1).unwrap().intensity();
            let ceiling = 2.0 * v as f64;
            assert!(r <= ceiling + 0.01, "v={v}: r={r}");
            assert!(r > 0.85 * ceiling, "v={v}: r={r} far below ceiling");
        }
    }

    #[test]
    fn intensity_grows_before_saturating() {
        // With tight memory, the X re-reads dominate and r < 2v; memory
        // buys intensity until the ceiling.
        let v = 8;
        let k = MultiMatVec::new(v);
        let n = 48;
        let r_small = k.run(n, k.min_memory(n) + 8, 2).unwrap().intensity();
        let r_big = k.run(n, 1 << 14, 2).unwrap().intensity();
        assert!(r_big > 1.5 * r_small, "{r_small} → {r_big}");
    }

    #[test]
    fn v_equals_one_matches_matvec_profile() {
        let k = MultiMatVec::new(1);
        let run = k.run(32, 512, 3).unwrap();
        assert!(run.intensity() <= 2.01);
    }

    #[test]
    fn io_bounded_classification_for_fixed_v() {
        assert!(MultiMatVec::new(4).io_bounded());
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(MultiMatVec::new(2).run(0, 64, 0).is_err());
        assert!(MultiMatVec::new(2).run(8, 3, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one vector")]
    fn zero_vectors_panics() {
        let _ = MultiMatVec::new(0);
    }
}
