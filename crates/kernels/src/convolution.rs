//! 1-D convolution (FIR filtering) — an extension kernel.
//!
//! The paper closes by inviting the characterization of *other*
//! computations. Convolution with a length-`k` filter is instructive: each
//! input word is used exactly `k` times, so the intensity saturates at
//! `Θ(k)` — a constant in `M`, like matvec, but with a *tunable* constant.
//! The filter length, not the local memory, sets the balance point: a PE can
//! be rebalanced for convolution only by lengthening the filter (changing
//! the problem) or raising `IO`, never by adding memory.
//!
//! The out-of-core algorithm keeps the filter and a sliding input window
//! resident and streams the signal through once.

use balance_core::{CostProfile, HierarchySpec, IntensityModel};
use balance_machine::{AnalyticProfile, ExternalStore, Pe};

use crate::error::KernelError;
use crate::traits::{Kernel, KernelRun};
use crate::verify::Verify;
use crate::workload;

/// Streaming FIR convolution `y[i] = Σ_j h[j]·x[i+j]`. Problem size `n` =
/// number of outputs; the filter length is a kernel parameter.
#[derive(Debug, Clone, Copy)]
pub struct Convolution {
    taps: usize,
}

impl Convolution {
    /// Creates a convolution kernel with `taps ≥ 1` filter coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `taps == 0`.
    #[must_use]
    pub fn new(taps: usize) -> Self {
        assert!(taps >= 1, "filter needs at least one tap");
        Convolution { taps }
    }

    /// The filter length `k`.
    #[must_use]
    pub fn taps(&self) -> usize {
        self.taps
    }
}

/// Reference implementation.
#[must_use]
pub fn convolve_reference(x: &[f64], h: &[f64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| h.iter().enumerate().map(|(j, &hj)| hj * x[i + j]).sum())
        .collect()
}

impl Kernel for Convolution {
    fn access_trace(&self, n: usize) -> Option<crate::trace::AccessTrace> {
        crate::trace::convolution(n, self.taps()).filter(|_| n > 0)
    }

    /// Output `i` interleaves `[x[i+t], w[t]]` for `t = 0..k`, then writes
    /// `y[i]`. Each window slide re-touches `x` values at distance `2k-1`
    /// and `w` taps at `2k` — except the last tap `w[k-1]`, whose reuse
    /// window additionally spans the fresh `x[i+k]`: distance `2k+1`.
    fn analytic_profile(&self, n: usize) -> Option<AnalyticProfile> {
        if n == 0 {
            return None;
        }
        let n64 = n as u64;
        let k = self.taps() as u64;
        let mut p = AnalyticProfile::new();
        p.record_compulsory(2 * n64 + 2 * k - 1);
        p.record_class(2 * k - 1, (n64 - 1) * (k - 1));
        p.record_class(2 * k, (n64 - 1) * (k - 1));
        p.record_class(2 * k + 1, n64 - 1);
        Some(p)
    }

    fn name(&self) -> &'static str {
        "convolution"
    }

    fn description(&self) -> &'static str {
        "streaming FIR filter; every input used k times (extension: I/O-bounded with constant k)"
    }

    fn intensity_model(&self) -> IntensityModel {
        // 2k ops per output; (n + k) reads + n writes ≈ 2 words per output.
        IntensityModel::constant(self.taps as f64)
    }

    fn analytic_cost(&self, n: usize, _m: usize) -> CostProfile {
        let n64 = n as u64;
        let k = self.taps as u64;
        CostProfile::new(2 * k * n64, 2 * n64 + k)
    }

    fn min_memory(&self, _n: usize) -> usize {
        // Filter + window of k inputs + room to slide + 1 output word.
        2 * self.taps + 2
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
                reason: "output count must be positive".into(),
            });
        }
        if m < self.min_memory(n) {
            return Err(KernelError::MemoryTooSmall {
                have: m,
                need: self.min_memory(n),
            });
        }
        let k = self.taps;

        let x_data = workload::random_vector(n + k, seed);
        let h_data = workload::random_vector(k, seed ^ 0xfeed);
        let mut store = ExternalStore::new();
        let x = store.alloc_from(&x_data);
        let h = store.alloc_from(&h_data);
        let y = store.alloc(n);

        let mut pe = Pe::for_hierarchy(machine);
        let buf_h = pe.alloc(k)?;
        pe.load(&store, h, buf_h, 0)?;
        // Sliding window: chunk of inputs covering `c` outputs needs c+k-1
        // input words; use the remaining memory for the chunk + outputs.
        let c = ((m - 2 * k) / 2).clamp(1, n);
        let buf_x = pe.alloc(c + k)?;
        let buf_y = pe.alloc(c)?;

        for i0 in (0..n).step_by(c) {
            let cb = c.min(n - i0);
            pe.load(&store, x.at(i0, cb + k)?, buf_x, 0)?;
            let ops = pe.update(buf_y, &[buf_x, buf_h], |yv, srcs| {
                let (xv, hv) = (srcs[0], srcs[1]);
                let mut ops = 0u64;
                for i in 0..cb {
                    let mut acc = 0.0;
                    for j in 0..k {
                        acc += hv[j] * xv[i + j];
                    }
                    yv[i] = acc;
                    ops += 2 * k as u64;
                }
                ops
            })?;
            pe.count_ops(ops);
            pe.store(&mut store, buf_y, 0, y.at(i0, cb)?)?;
        }

        let want = convolve_reference(&x_data, &h_data, n);
        let got = store.slice(y);
        let err = crate::reference::max_abs_diff(&want, got);
        let tol = 1e-10 * (k as f64);
        if err > tol {
            return Err(KernelError::VerificationFailed {
                what: "convolution",
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
    fn verifies_across_memories_and_taps() {
        for k in [1usize, 4, 16] {
            let kernel = Convolution::new(k);
            for m in [kernel.min_memory(100), 64.max(2 * k + 2), 512] {
                let run = kernel.run(100, m, 3).unwrap();
                assert_eq!(run.execution.cost.comp_ops(), (2 * k * 100) as u64);
            }
        }
    }

    #[test]
    fn io_is_one_pass_plus_overlap() {
        // Window overlap re-reads k words per chunk; with big chunks the
        // total approaches n + k + n.
        let k = 8;
        let kernel = Convolution::new(k);
        let n = 1000;
        let run = kernel.run(n, 4096, 1).unwrap();
        let io = run.execution.cost.io_words();
        // h (k) + x (n + k) + y (n) = 2n + 2k with a single chunk.
        assert_eq!(io, (2 * n + 2 * k) as u64);
    }

    #[test]
    fn intensity_saturates_at_taps() {
        // Tiny memories pay window re-reads; once chunks are much longer
        // than the filter, the intensity saturates at k and further memory
        // buys nothing.
        let k = 16;
        let kernel = Convolution::new(k);
        let n = 2000;
        let r_mid = kernel.run(n, 1 << 10, 2).unwrap().intensity();
        let r_big = kernel.run(n, 1 << 14, 2).unwrap().intensity();
        assert!(r_big <= k as f64 + 0.5, "r_big = {r_big}");
        assert!((r_big / r_mid - 1.0).abs() < 0.05, "{r_mid} → {r_big}");
    }

    #[test]
    fn longer_filters_raise_the_constant() {
        let n = 1000;
        let r4 = Convolution::new(4).run(n, 4096, 1).unwrap().intensity();
        let r32 = Convolution::new(32).run(n, 4096, 1).unwrap().intensity();
        assert!(r32 > 6.0 * r4, "r4 = {r4}, r32 = {r32}");
    }

    #[test]
    fn io_bounded_flag() {
        assert!(Convolution::new(8).io_bounded());
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(Convolution::new(4).run(0, 100, 0).is_err());
        assert!(Convolution::new(4).run(10, 5, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn zero_taps_panics() {
        let _ = Convolution::new(0);
    }

    #[test]
    fn reference_impulse_response() {
        // Convolving an impulse with h recovers h.
        let mut x = vec![0.0; 20];
        x[0] = 1.0;
        let h = vec![3.0, 2.0, 1.0];
        let y = convolve_reference(&x, &h, 10);
        assert_eq!(y[0], 3.0);
        // y[i] = h[j] where x[i+j] = 1 => j = -i: only i=0 sees the impulse
        // at j=0.
        assert_eq!(y[1], 0.0);
    }
}
