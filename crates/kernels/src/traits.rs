//! The [`Kernel`] abstraction: one instrumented computation.
//!
//! A kernel bundles, for one of the paper's computations:
//!
//! * the **analytic cost model** (`C_comp`, `C_io` as closed forms in `N`
//!   and `M`),
//! * the **intensity model** `r(M)` (the paper's Θ-shape),
//! * the **operational algorithm**: the out-of-core implementation that runs
//!   on the simulated PE, verifies its own output against a reference, and
//!   reports the *measured* cost profile.
//!
//! The experiments compare the three: measured ≈ analytic, and fitted
//! measured shape ≈ the paper's law.

use balance_core::{CostProfile, Execution, HierarchySpec, IntensityModel};
use balance_machine::AnalyticProfile;

use crate::error::KernelError;
use crate::trace::AccessTrace;
use crate::verify::Verify;

/// The result of one instrumented, verified kernel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRun {
    /// Problem size `N` (kernel-specific meaning; documented per kernel).
    pub n: usize,
    /// Local memory `M` available, in words.
    pub m: usize,
    /// Measured costs and peak memory.
    pub execution: Execution,
}

impl KernelRun {
    /// The measured intensity `C_comp / C_io`.
    #[must_use]
    pub fn intensity(&self) -> f64 {
        self.execution.intensity()
    }
}

/// One of the paper's computations, instrumented.
///
/// Every kernel executes against a memory *system*, described by a
/// [`HierarchySpec`]: level 0 is the explicitly managed local memory the
/// decomposition scheme blocks for (the paper's `M`); deeper levels, when
/// present, are cache-modeled and account traffic per boundary (see
/// `balance_machine::Pe::for_hierarchy`). The historical one-level entry
/// points [`Kernel::run`] and [`Kernel::run_with`] are provided wrappers
/// over [`Kernel::run_on`] with a flat spec — bit-identical to the
/// pre-hierarchy behavior (pinned by property test).
///
/// Implementations guarantee:
///
/// * `run_on` executes the computation *within* level 0's capacity of
///   simulated local memory (allocation failures surface as errors rather
///   than silently overflowing `M`);
/// * `run_on` verifies its numeric output against an uninstrumented
///   reference and fails with [`KernelError::VerificationFailed`] on
///   mismatch (kernels with a cheap randomized check honor the [`Verify`]
///   policy; the rest verify fully regardless);
/// * the returned counts include every word moved and every operation
///   performed, at every boundary of the hierarchy.
///
/// Implementations must be [`Sync`]: kernels take `&self` and own their
/// `Pe`/`ExternalStore` per run, so [`crate::sweep::sweep`] shares one
/// kernel across its worker threads.
pub trait Kernel: Sync {
    /// Short identifier (e.g. `"matmul"`).
    fn name(&self) -> &'static str;

    /// One-line description of the computation and its paper section.
    fn description(&self) -> &'static str;

    /// The paper's intensity model `r(M)` for this computation, with a
    /// representative leading constant.
    fn intensity_model(&self) -> IntensityModel;

    /// Closed-form cost estimate for problem size `n` under memory `m`.
    fn analytic_cost(&self, n: usize, m: usize) -> CostProfile;

    /// The smallest memory (words) for which `run(n, m, …)` is supported.
    fn min_memory(&self, n: usize) -> usize;

    /// Runs the instrumented computation against `machine` under the given
    /// [`Verify`] policy — the single required execution method.
    ///
    /// The decomposition scheme blocks for `machine.local_capacity()`;
    /// deeper levels observe the transfer addresses and account inclusive
    /// per-boundary traffic in the returned execution record.
    ///
    /// # Errors
    ///
    /// * [`KernelError::MemoryTooSmall`] / [`KernelError::BadParameters`]
    ///   for unsupported parameters;
    /// * [`KernelError::Machine`] if the algorithm exceeds level 0 (a
    ///   blocking bug — treated as a test failure);
    /// * [`KernelError::VerificationFailed`] if the output is wrong.
    fn run_on(
        &self,
        n: usize,
        machine: &HierarchySpec,
        seed: u64,
        verify: Verify,
    ) -> Result<KernelRun, KernelError>;

    /// Runs fully verified on the classic one-level machine of `m` words.
    ///
    /// # Errors
    ///
    /// As [`Kernel::run_on`].
    fn run(&self, n: usize, m: usize, seed: u64) -> Result<KernelRun, KernelError> {
        self.run_on(n, &HierarchySpec::flat_words(m), seed, Verify::Full)
    }

    /// Runs on the classic one-level machine under an explicit [`Verify`]
    /// policy. Kernels with a cheap randomized check (matmul,
    /// triangularization, trisolve) honor it; the rest perform their full
    /// verification regardless, so that large-`n` sweeps of the cheap
    /// kernels are not dominated by `O(n³)` reference recomputes.
    ///
    /// # Errors
    ///
    /// As [`Kernel::run_on`].
    fn run_with(
        &self,
        n: usize,
        m: usize,
        seed: u64,
        verify: Verify,
    ) -> Result<KernelRun, KernelError> {
        self.run_on(n, &HierarchySpec::flat_words(m), seed, verify)
    }

    /// True for computations whose intensity saturates (paper §3.6).
    fn io_bounded(&self) -> bool {
        self.intensity_model().is_io_bounded()
    }

    /// The kernel's **canonical access trace** at problem size `n`: the
    /// natural (unblocked) algorithm's word-address sequence, streamed.
    ///
    /// This is what a cache-model sweep
    /// ([`crate::sweep::Measure::CacheModel`]) replays: the cache-model
    /// intensity curve — the trace through an automatically managed LRU of
    /// capacity `M` — read off for every `M` from a single replay. It is
    /// the measurement the E13 ablation contrasts with the explicit
    /// decomposition schemes; the two curves agree only when LRU happens
    /// to match the paper's blocking (usually it does not — that contrast
    /// is the ablation's finding).
    ///
    /// `None` when the kernel has no canonical trace at this `n` (e.g. a
    /// non-power-of-two FFT, or an `n` whose trace length, address bound
    /// or op count would leave `u64`). Every registry kernel returns
    /// `Some` for its supported sizes (pinned by test).
    fn access_trace(&self, n: usize) -> Option<AccessTrace> {
        let _ = n;
        None
    }

    /// The **closed-form reuse-distance histogram** of this kernel's
    /// canonical trace at problem size `n`, when one is derived — the
    /// zero-replay engine tier ([`crate::sweep::Engine::Analytic`]).
    ///
    /// The contract is exactness: the returned histogram, finalized via
    /// [`AnalyticProfile::into_profile`], must equal the
    /// [`balance_machine::StackDistance`] replay of
    /// [`Kernel::access_trace`] at the same `n` **bit for bit, at every
    /// capacity** — pinned across the registry by property test. Kernels
    /// whose access structure resists a derivation (the FFT butterfly,
    /// data-dependent computations) return `None` and fall through to the
    /// measured engines.
    ///
    /// Must return `None` wherever [`Kernel::access_trace`] does — a
    /// histogram without a trace would be unfalsifiable.
    fn analytic_profile(&self, n: usize) -> Option<AnalyticProfile> {
        let _ = n;
        None
    }
}

/// All kernels from the paper, in Section-3 order.
#[must_use]
pub fn all_kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(crate::matmul::MatMul),
        Box::new(crate::triangularization::Triangularization),
        Box::new(crate::grid::GridRelaxation::new(2)),
        Box::new(crate::grid::GridRelaxation::new(3)),
        Box::new(crate::fft::Fft),
        Box::new(crate::sorting::ExternalSort),
        Box::new(crate::matvec::MatVec),
        Box::new(crate::trisolve::TriSolve),
    ]
}

/// The extension kernels (computations beyond the paper's table,
/// characterized with the same methodology — the "further work" its
/// conclusion invites).
#[must_use]
pub fn extension_kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(crate::convolution::Convolution::new(16)),
        Box::new(crate::transpose::Transpose),
        Box::new(crate::multi_matvec::MultiMatVec::new(8)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_summary_table() {
        let kernels = all_kernels();
        let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
        for expected in [
            "matmul",
            "triangularization",
            "grid2d",
            "grid3d",
            "fft",
            "sort",
            "matvec",
            "trisolve",
        ] {
            assert!(names.contains(&expected), "missing kernel {expected}");
        }
    }

    #[test]
    fn io_bounded_flags_match_the_paper() {
        for k in all_kernels() {
            let expected = matches!(k.name(), "matvec" | "trisolve");
            assert_eq!(k.io_bounded(), expected, "kernel {}", k.name());
        }
    }
}
