//! Measured §4: the sweep executor and the memory-at-balance machinery.
//!
//! `balance-kernels`' sweeps vary one PE's memory; [`parallel_sweep`]
//! varies the **machine** — fixed total problem size, swept over
//! arrangements (`p` PEs on a line, `side × side` meshes) and per-PE
//! memories — and reads the aggregate external intensity off each
//! measured [`ParallelRun`]. Three consumers build on it:
//!
//! * [`measured_balance_memory`] inverts a measurement: the smallest
//!   per-PE memory at which the machine's measured intensity reaches its
//!   aggregate machine balance — Kung's balanced memory, found from the
//!   actual kernel instead of a closed form (the exact inverse of its
//!   external-I/O profile where it has one, else by running it);
//! * [`measured_series`] walks it across array sizes, producing the
//!   measured counterpart of [`crate::scaling::analytic_series`]
//!   (Figures 3 and 4, by measurement);
//! * [`measured_growth_law`] fits the paper's law shapes to the measured
//!   `(total memory, intensity)` cloud — across *all* swept arrangements,
//!   since a well-decomposed machine's intensity depends only on its
//!   aggregate memory — and snaps near-integer polynomial degrees, giving
//!   the growth law §4's closed forms need as *measured* input.

use balance_core::fit::{fit_best, snap_degree, DataPoint};
use balance_core::{GrowthLaw, HierarchySpec, PeSpec, Words};
use balance_kernels::error::KernelError;
use balance_kernels::sweep::{par_map, TrafficModel};
use balance_kernels::Verify;

use crate::pkernels::{ParallelKernel, ParallelRun};
use crate::pmachine::{Topology, TopologyKind};
use crate::scaling::ScalingPoint;

/// Parameters of one parallel sweep: a grid of arrangements × per-PE
/// memories at a fixed total problem size.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelSweepConfig {
    /// Problem size passed to every run (the total problem is fixed; only
    /// the machine varies).
    pub n: usize,
    /// The arrangements to measure.
    pub topologies: Vec<Topology>,
    /// Per-PE local memory sizes to measure, in words.
    pub per_pe_memories: Vec<usize>,
    /// Workload seed (same inputs at every point).
    pub seed: u64,
    /// Verification policy per point.
    pub verify: Verify,
}

impl ParallelSweepConfig {
    /// A fully verified sweep.
    #[must_use]
    pub fn new(n: usize, topologies: Vec<Topology>, per_pe_memories: Vec<usize>, seed: u64) -> Self {
        ParallelSweepConfig {
            n,
            topologies,
            per_pe_memories,
            seed,
            verify: Verify::Full,
        }
    }

    /// The same sweep under a different verification policy.
    #[must_use]
    pub fn with_verify(mut self, verify: Verify) -> Self {
        self.verify = verify;
        self
    }
}

/// One measured point of a parallel sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelPoint {
    /// The arrangement this point ran on.
    pub topology: Topology,
    /// Per-PE local memory, in words.
    pub per_pe_m: usize,
    /// The verified run.
    pub run: ParallelRun,
}

/// The sweep grid in sweep order (topology-major), with per-PE memories
/// below the kernel's per-topology minimum skipped (partition floors
/// scale with the machine, so the filter is per arrangement).
fn grid(kernel: &dyn ParallelKernel, cfg: &ParallelSweepConfig) -> Vec<(Topology, usize)> {
    cfg.topologies
        .iter()
        .flat_map(|&t| {
            let floor = kernel.min_memory_per_pe(cfg.n, t);
            cfg.per_pe_memories
                .iter()
                .copied()
                .filter(move |&m| m >= floor)
                .map(move |m| (t, m))
        })
        .collect()
}

fn run_point(
    kernel: &dyn ParallelKernel,
    cfg: &ParallelSweepConfig,
    topology: Topology,
    m: usize,
) -> Result<ParallelPoint, KernelError> {
    kernel
        .run_on(
            topology,
            cfg.n,
            &HierarchySpec::flat_words(m),
            cfg.seed,
            cfg.verify,
        )
        .map(|run| ParallelPoint {
            topology,
            per_pe_m: m,
            run,
        })
}

/// Runs `kernel` at every (topology, per-PE memory) point of the sweep,
/// fanned out over scoped worker threads (the `balance-kernels`
/// [`par_map`] executor), and returns the points in sweep order
/// (topology-major).
///
/// # Errors
///
/// Propagates the first kernel failure in sweep order (including
/// verification failures — a sweep with wrong numerics must not produce
/// data).
pub fn parallel_sweep(
    kernel: &dyn ParallelKernel,
    cfg: &ParallelSweepConfig,
) -> Result<Vec<ParallelPoint>, KernelError> {
    let points = grid(kernel, cfg);
    par_map(&points, |_, &(t, m)| run_point(kernel, cfg, t, m))
        .into_iter()
        .collect()
}

/// Parameters of a measured memory-at-balance search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredBalanceConfig {
    /// The per-PE cell the machine is built from; the search target is the
    /// *aggregate* machine balance `α · C/IO` of the arrangement.
    pub cell: PeSpec,
    /// Problem size of every probe run.
    pub n: usize,
    /// Workload seed.
    pub seed: u64,
    /// Verification policy of every probe run.
    pub verify: Verify,
    /// Per-PE memory cap: the search reports `None` (I/O-bounded in
    /// practice) instead of probing beyond it.
    pub m_max: usize,
}

/// The smallest per-PE memory at which the machine's **measured** external
/// intensity reaches the arrangement's aggregate machine balance — or
/// `None` when even `cfg.m_max` falls short (the measured form of the
/// paper's "impossible" verdict).
///
/// Two answers, dispatched on the kernel:
///
/// * kernels exposing an
///   [`ExternalIoProfile`](crate::pkernels::ExternalIoProfile) (external
///   I/O a pure LRU function of pooled memory — e.g. the one-touch
///   transpose) are answered by the profile's **exact inverse**: the
///   smallest pooled memory `M` whose intensity reaches the target,
///   compared in integers with no rounded quotient
///   ([`CapacityProfile::min_capacity_reaching`](balance_machine::CapacityProfile::min_capacity_reaching),
///   O(log breakpoints), no kernel run). The per-PE answer is
///   `max(floor, ⌈M/p⌉)` when that is at most `cfg.m_max`, where `floor`
///   is the kernel's per-PE minimum. Only **exact** profiles qualify
///   ([`CapacityProfile::is_exact`](balance_machine::CapacityProfile::is_exact));
///   a SHARDS-sampled profile is rejected here and the kernel probed by
///   real runs instead, so sampling error can never shift a measured
///   balance point (pinned by test);
/// * comm-priced kernels (matmul, grid), whose external traffic re-blocks
///   per memory size, are searched by exponential search + bisection over
///   real kernel runs — one verified run per probe.
///
/// Wherever a kernel could use either, the answers agree (pinned by
/// test), and the inverse equals a linear scan of every per-PE memory
/// (pinned by test).
///
/// Assumes the kernel's measured intensity is non-decreasing in memory,
/// which every §3 decomposition satisfies (more memory never forces more
/// traffic).
///
/// # Errors
///
/// Propagates probe-run failures and aggregate-construction failures.
pub fn measured_balance_memory(
    kernel: &dyn ParallelKernel,
    topology: Topology,
    cfg: &MeasuredBalanceConfig,
) -> Result<Option<Words>, KernelError> {
    measured_balance_memory_with_model(kernel, topology, cfg, TrafficModel::default())
}

/// [`measured_balance_memory`] under an explicit [`TrafficModel`].
///
/// An [`ExternalIoProfile`](crate::pkernels::ExternalIoProfile) is a
/// **word-granular read-priced** curve — no line state, no dirty bits.
/// Under a device-real model (`line_words > 1` or write-back pricing on)
/// that curve no longer answers the priced question, so the profile is
/// **declined** and every probe is a real kernel run, whose external
/// traffic is the decomposition's explicit message movement
/// (model-independent). Under the word-granular model this is exactly
/// [`measured_balance_memory`] (pinned by test).
///
/// # Errors
///
/// As [`measured_balance_memory`].
pub fn measured_balance_memory_with_model(
    kernel: &dyn ParallelKernel,
    topology: Topology,
    cfg: &MeasuredBalanceConfig,
    model: TrafficModel,
) -> Result<Option<Words>, KernelError> {
    let target = topology
        .aggregate(cfg.cell)
        .map_err(|e| KernelError::BadParameters {
            reason: format!("aggregate machine: {e}"),
        })?
        .machine_balance();
    let lo0 = kernel.min_memory_per_pe(cfg.n, topology).min(cfg.m_max);
    // The profile promises the *exact* external-I/O curve under the
    // word-granular read-priced model: a SHARDS-sampled (approximate)
    // profile — or a device-real pricing question the word-granular
    // histogram cannot answer — must not silently shift a measured
    // balance point, so both fall through to real kernel runs.
    if let Some(profile) = kernel
        .io_profile(cfg.n, topology)
        .filter(|profile| model.is_word_granular_read_priced() && profile.profile().is_exact())
    {
        let p = topology.pe_count();
        return Ok(profile
            .min_total_memory_reaching(target)
            .map(|total| total.div_ceil(p).max(lo0 as u64))
            .filter(|&m| m <= cfg.m_max as u64)
            .map(Words::new));
    }
    search_balance(lo0, cfg.m_max, target, |m| {
        kernel
            .run_on(
                topology,
                cfg.n,
                &HierarchySpec::flat_words(m),
                cfg.seed,
                cfg.verify,
            )
            .map(|r| r.external_intensity())
    })
}

/// Exponential search + bisection for the smallest per-PE memory in
/// `[lo0, m_max]` whose probed intensity reaches `target`.
fn search_balance(
    lo0: usize,
    m_max: usize,
    target: f64,
    mut probe: impl FnMut(usize) -> Result<f64, KernelError>,
) -> Result<Option<Words>, KernelError> {
    if probe(lo0)? >= target {
        return Ok(Some(Words::new(lo0 as u64)));
    }
    // Exponential search for a balancing upper bound.
    let (mut lo, mut hi) = (lo0, lo0);
    loop {
        hi = (hi.saturating_mul(2)).min(m_max);
        if probe(hi)? >= target {
            break;
        }
        if hi == m_max {
            return Ok(None);
        }
        lo = hi;
    }
    // Bisection: probe(lo) < target <= probe(hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if probe(mid)? >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Some(Words::new(hi as u64)))
}

/// The measured `(size, per-PE memory-at-balance)` walk of an arrangement
/// family — the measured counterpart of
/// [`analytic_series`](crate::scaling::analytic_series), produced by
/// measuring the kernel instead of evaluating the growth law.
///
/// # Errors
///
/// Probe failures, plus [`KernelError::BadParameters`] when some size
/// cannot balance within `cfg.m_max` (use matmul-like kernels here;
/// I/O-bounded ones are *expected* to fail — that is their finding).
pub fn measured_series(
    kernel: &dyn ParallelKernel,
    kind: TopologyKind,
    sizes: &[u64],
    cfg: &MeasuredBalanceConfig,
) -> Result<Vec<ScalingPoint>, KernelError> {
    sizes
        .iter()
        .map(|&size| {
            let topology = kind.at(size).map_err(|e| KernelError::BadParameters {
                reason: e.to_string(),
            })?;
            let per_pe = measured_balance_memory(kernel, topology, cfg)?.ok_or_else(|| {
                KernelError::BadParameters {
                    reason: format!(
                        "{} at {topology}: no per-PE memory up to {} reaches balance",
                        kernel.name(),
                        cfg.m_max
                    ),
                }
            })?;
            Ok(ScalingPoint {
                p: size,
                per_pe_memory: per_pe.get(),
                total_memory: per_pe.get() * topology.pe_count(),
            })
        })
        .collect()
}

/// Fits the paper's law shapes to the measured `(total memory, external
/// intensity)` points of a sweep — pooled across every swept arrangement,
/// since the machine's aggregate intensity depends only on its total
/// memory when the decomposition pools the PEs' memories — and snaps
/// near-integer polynomial degrees within `snap_tol`.
///
/// The result is the §4 growth law with the intensity shape *measured
/// instead of assumed*: feeding it to
/// [`analytic_series`](crate::scaling::analytic_series) must reproduce
/// the paper law's predictions (pinned by property test — the measured
/// validation of Figures 3 and 4).
///
/// # Errors
///
/// Sweep failures, plus [`KernelError::BadParameters`] when fewer than
/// two distinct memory sizes survive the sweep.
pub fn measured_growth_law(
    kernel: &dyn ParallelKernel,
    cfg: &ParallelSweepConfig,
    snap_tol: f64,
) -> Result<GrowthLaw, KernelError> {
    let points: Vec<DataPoint> = parallel_sweep(kernel, cfg)?
        .iter()
        .map(|pt| DataPoint::new(pt.run.total_memory() as f64, pt.run.external_intensity()))
        .collect();
    let report = fit_best(&points).map_err(|e| KernelError::BadParameters {
        reason: format!("fitting measured parallel points: {e}"),
    })?;
    Ok(snap_degree(report.best.growth_law(), snap_tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pkernels::{ParMatMul, ParTranspose};
    use balance_core::{OpsPerSec, WordsPerSec};

    fn topo(p: u64) -> Topology {
        Topology::linear(p).unwrap()
    }

    fn cell(balance: f64) -> PeSpec {
        PeSpec::new(
            OpsPerSec::new(balance * 1.0e7),
            WordsPerSec::new(1.0e7),
            Words::new(65536),
        )
        .unwrap()
    }

    #[test]
    fn sweep_covers_the_grid_and_skips_small_memories() {
        let cfg = ParallelSweepConfig::new(12, vec![topo(1), topo(2)], vec![1, 27, 48], 3);
        let points = parallel_sweep(&ParMatMul, &cfg).unwrap();
        // m = 1 < min_memory(3) skipped: 2 topologies × 2 memories.
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].topology, topo(1));
        assert_eq!(points[0].per_pe_m, 27);
        assert_eq!(points[3].topology, topo(2));
        assert_eq!(points[3].per_pe_m, 48);
    }

    #[test]
    fn parallel_executors_are_bit_identical() {
        // The fanned-out sweep returns, in sweep order, exactly the runs a
        // point-by-point replay on the calling thread produces.
        let cfg = ParallelSweepConfig::new(16, vec![topo(1), topo(3)], vec![12, 48, 108], 9);
        let serial: Vec<ParallelPoint> = grid(&ParMatMul, &cfg)
            .into_iter()
            .map(|(t, m)| run_point(&ParMatMul, &cfg, t, m).unwrap())
            .collect();
        assert_eq!(serial.len(), 6);
        assert_eq!(parallel_sweep(&ParMatMul, &cfg).unwrap(), serial);
    }

    #[test]
    fn measured_balance_memory_brackets_the_target() {
        let cfg = MeasuredBalanceConfig {
            cell: cell(2.0),
            n: 24,
            seed: 5,
            verify: Verify::Full,
            m_max: 1 << 14,
        };
        let m = measured_balance_memory(&ParMatMul, topo(1), &cfg)
            .unwrap()
            .expect("matmul balances");
        let probe = |mm: usize| {
            ParMatMul
                .run_on(topo(1), 24, &HierarchySpec::flat_words(mm), 5, Verify::Full)
                .unwrap()
                .external_intensity()
        };
        let target = topo(1).aggregate(cfg.cell).unwrap().machine_balance();
        assert!(probe(m.get() as usize) >= target);
        if m.get() as usize > 3 {
            assert!(probe(m.get() as usize - 1) < target);
        }
    }

    /// `ParTranspose` with its one-replay profile suppressed: forces the
    /// kernel-replay fallback so the two probe engines can be compared.
    #[derive(Debug)]
    struct ReplayOnlyTranspose;

    impl ParallelKernel for ReplayOnlyTranspose {
        fn name(&self) -> &'static str {
            ParTranspose.name()
        }
        fn description(&self) -> &'static str {
            ParTranspose.description()
        }
        fn serial(&self) -> Box<dyn balance_kernels::Kernel> {
            ParTranspose.serial()
        }
        fn min_memory_per_pe(&self, n: usize, topology: Topology) -> usize {
            ParTranspose.min_memory_per_pe(n, topology)
        }
        fn run_on(
            &self,
            topology: Topology,
            n: usize,
            per_pe: &HierarchySpec,
            seed: u64,
            verify: Verify,
        ) -> Result<crate::pkernels::ParallelRun, KernelError> {
            ParTranspose.run_on(topology, n, per_pe, seed, verify)
        }
        // io_profile deliberately left at the default `None`.
    }

    #[test]
    fn profile_probe_matches_kernel_replay_probe() {
        // The profile's exact inverse and the run-per-probe search agree:
        // identical answers at every target, both the reachable (Some)
        // and unreachable (None) regimes.
        for balance in [0.2, 0.4, 0.5, 0.6, 2.0] {
            for topo in [topo(1), topo(2), Topology::mesh(2).unwrap()] {
                let cfg = MeasuredBalanceConfig {
                    cell: cell(balance),
                    n: 16,
                    seed: 3,
                    verify: Verify::Full,
                    m_max: 4096,
                };
                let fast = measured_balance_memory(&ParTranspose, topo, &cfg).unwrap();
                let slow = measured_balance_memory(&ReplayOnlyTranspose, topo, &cfg).unwrap();
                assert_eq!(fast, slow, "balance {balance} on {topo}");
            }
        }
    }

    /// `ParTranspose` advertising a SHARDS-sampled (approximate) profile:
    /// the fast path must refuse it and probe by real kernel runs.
    #[derive(Debug)]
    struct SampledProfileTranspose;

    impl ParallelKernel for SampledProfileTranspose {
        fn name(&self) -> &'static str {
            ParTranspose.name()
        }
        fn description(&self) -> &'static str {
            ParTranspose.description()
        }
        fn serial(&self) -> Box<dyn balance_kernels::Kernel> {
            ParTranspose.serial()
        }
        fn min_memory_per_pe(&self, n: usize, topology: Topology) -> usize {
            ParTranspose.min_memory_per_pe(n, topology)
        }
        fn run_on(
            &self,
            topology: Topology,
            n: usize,
            per_pe: &HierarchySpec,
            seed: u64,
            verify: Verify,
        ) -> Result<crate::pkernels::ParallelRun, KernelError> {
            ParTranspose.run_on(topology, n, per_pe, seed, verify)
        }
        fn io_profile(
            &self,
            n: usize,
            _topology: Topology,
        ) -> Option<crate::pkernels::ExternalIoProfile> {
            // The transpose stream sampled at rate 1/8 — a plausible
            // approximation of the exact one-touch profile, but not it.
            let n64 = n as u64;
            let profile =
                balance_machine::sampled_profile_of(0..2 * n64 * n64, 3);
            Some(crate::pkernels::ExternalIoProfile::new(n64 * n64, profile))
        }
    }

    #[test]
    fn sampled_profile_is_gated_out_of_the_exact_fast_path() {
        // An approximate profile must not move the measured balance point:
        // the search has to fall through to real kernel runs and land
        // exactly where the no-profile kernel lands.
        let sampled_kernel = SampledProfileTranspose;
        assert!(
            !sampled_kernel
                .io_profile(16, topo(2))
                .unwrap()
                .profile()
                .is_exact(),
            "test premise: the advertised profile is sampled"
        );
        for balance in [0.2, 0.45, 0.6] {
            for topo in [topo(1), topo(2)] {
                let cfg = MeasuredBalanceConfig {
                    cell: cell(balance),
                    n: 16,
                    seed: 3,
                    verify: Verify::Full,
                    m_max: 4096,
                };
                let gated = measured_balance_memory(&sampled_kernel, topo, &cfg).unwrap();
                let replayed =
                    measured_balance_memory(&ReplayOnlyTranspose, topo, &cfg).unwrap();
                assert_eq!(gated, replayed, "balance {balance} on {topo}");
            }
        }
    }

    /// `ParTranspose` advertising a profile obtained through a *tripped
    /// resource budget* (PR 7's degradation ladder): the ladder lands on
    /// the sampled engine, the profile self-identifies as approximate,
    /// and the exact-only fast path must refuse it just like a
    /// hand-built sampled profile.
    #[derive(Debug)]
    struct BudgetDegradedTranspose;

    impl ParallelKernel for BudgetDegradedTranspose {
        fn name(&self) -> &'static str {
            ParTranspose.name()
        }
        fn description(&self) -> &'static str {
            ParTranspose.description()
        }
        fn serial(&self) -> Box<dyn balance_kernels::Kernel> {
            ParTranspose.serial()
        }
        fn min_memory_per_pe(&self, n: usize, topology: Topology) -> usize {
            ParTranspose.min_memory_per_pe(n, topology)
        }
        fn run_on(
            &self,
            topology: Topology,
            n: usize,
            per_pe: &HierarchySpec,
            seed: u64,
            verify: Verify,
        ) -> Result<crate::pkernels::ParallelRun, KernelError> {
            ParTranspose.run_on(topology, n, per_pe, seed, verify)
        }
        fn io_profile(
            &self,
            n: usize,
            _topology: Topology,
        ) -> Option<crate::pkernels::ExternalIoProfile> {
            use balance_kernels::sweep::{robust_capacity_profile, Engine, SweepConfig};
            use balance_kernels::transpose::Transpose;
            // A 256-byte resident budget no exact engine can meet: the
            // ladder degrades to a sampled rung.
            let cfg = SweepConfig {
                n,
                memories: vec![64],
                engine: Engine::StackDist,
                ..SweepConfig::default()
            }
            .with_budget(balance_core::Budget::unlimited().with_max_resident_bytes(256));
            let (profile, prov) =
                robust_capacity_profile(&Transpose, &cfg, &balance_machine::FaultPlan::none())
                    .ok()?;
            assert!(prov.degraded(), "test premise: the budget trips");
            let n64 = n as u64;
            Some(crate::pkernels::ExternalIoProfile::new(n64 * n64, profile))
        }
    }

    #[test]
    fn budget_degraded_profile_is_gated_out_of_the_exact_fast_path() {
        let degraded_kernel = BudgetDegradedTranspose;
        assert!(
            !degraded_kernel
                .io_profile(16, topo(2))
                .unwrap()
                .profile()
                .is_exact(),
            "test premise: the degraded profile is sampled, not exact"
        );
        for balance in [0.2, 0.45, 0.6] {
            for topo in [topo(1), topo(2)] {
                let cfg = MeasuredBalanceConfig {
                    cell: cell(balance),
                    n: 16,
                    seed: 3,
                    verify: Verify::Full,
                    m_max: 4096,
                };
                let gated = measured_balance_memory(&degraded_kernel, topo, &cfg).unwrap();
                let replayed =
                    measured_balance_memory(&ReplayOnlyTranspose, topo, &cfg).unwrap();
                assert_eq!(gated, replayed, "balance {balance} on {topo}");
            }
        }
    }

    #[test]
    fn device_real_models_decline_the_profile_fast_path() {
        // ParTranspose's exact word-granular profile answers the word
        // model's question only: under a device-real model the fast path
        // must decline and the search land exactly where the
        // run-per-probe kernel lands. At the word model the _with_model
        // entry point is measured_balance_memory, bit for bit.
        for balance in [0.2, 0.45, 0.6] {
            for topo in [topo(1), topo(2)] {
                let cfg = MeasuredBalanceConfig {
                    cell: cell(balance),
                    n: 16,
                    seed: 3,
                    verify: Verify::Full,
                    m_max: 4096,
                };
                let declined = measured_balance_memory_with_model(
                    &ParTranspose,
                    topo,
                    &cfg,
                    TrafficModel::device(8),
                )
                .unwrap();
                let replayed =
                    measured_balance_memory(&ReplayOnlyTranspose, topo, &cfg).unwrap();
                assert_eq!(declined, replayed, "balance {balance} on {topo}");
                let word = measured_balance_memory_with_model(
                    &ParTranspose,
                    topo,
                    &cfg,
                    TrafficModel::WORD,
                )
                .unwrap();
                assert_eq!(
                    word,
                    measured_balance_memory(&ParTranspose, topo, &cfg).unwrap(),
                    "the word model keeps the fast path"
                );
            }
        }
    }

    #[test]
    fn transpose_profile_reports_one_touch_traffic() {
        let p = ParTranspose.io_profile(16, topo(2)).unwrap();
        // Every word of A and T crosses once at any pooled memory.
        assert_eq!(p.profile().misses_at(1), 2 * 16 * 16);
        assert_eq!(p.profile().misses_at(1 << 20), 2 * 16 * 16);
        assert_eq!(p.profile().compulsory_misses(), 2 * 16 * 16);
        // So intensity is ½ at every memory: reached from one word up,
        // never a ulp above.
        assert_eq!(p.min_total_memory_reaching(0.5), Some(1));
        assert_eq!(p.min_total_memory_reaching(0.5f64.next_up()), None);
    }

    /// `ParMatMul` advertising the serial matmul trace's exact profile as
    /// its external I/O: a curve with many breakpoints, so the exact
    /// inverse is exercised at and between them.
    #[derive(Debug)]
    struct MatmulTraceProfile;

    impl ParallelKernel for MatmulTraceProfile {
        fn name(&self) -> &'static str {
            ParMatMul.name()
        }
        fn description(&self) -> &'static str {
            ParMatMul.description()
        }
        fn serial(&self) -> Box<dyn balance_kernels::Kernel> {
            ParMatMul.serial()
        }
        fn min_memory_per_pe(&self, n: usize, topology: Topology) -> usize {
            ParMatMul.min_memory_per_pe(n, topology)
        }
        fn run_on(
            &self,
            topology: Topology,
            n: usize,
            per_pe: &HierarchySpec,
            seed: u64,
            verify: Verify,
        ) -> Result<crate::pkernels::ParallelRun, KernelError> {
            ParMatMul.run_on(topology, n, per_pe, seed, verify)
        }
        fn io_profile(
            &self,
            n: usize,
            _topology: Topology,
        ) -> Option<crate::pkernels::ExternalIoProfile> {
            use balance_kernels::Kernel;
            let trace = balance_kernels::matmul::MatMul.access_trace(n)?;
            let ops = trace.comp_ops();
            let profile = balance_machine::StackDistance::profile_of(trace.into_addrs());
            Some(crate::pkernels::ExternalIoProfile::new(ops, profile))
        }
    }

    /// `ops ≥ target · words` in exact integer arithmetic: a positive
    /// normal `target` is `mant · 2^exp`, so the comparison is
    /// `ops · 2^-exp ≥ mant · words` in `u128`.
    fn reaches_exactly(ops: u64, words: u64, target: f64) -> bool {
        let bits = target.to_bits();
        let mant = u128::from(bits & ((1 << 52) - 1) | 1 << 52);
        let exp = (bits >> 52) as i32 - 1075;
        assert!(
            target.is_normal() && (-64..0).contains(&exp),
            "test premise: {target}"
        );
        u128::from(ops) << exp.unsigned_abs() >= mant * u128::from(words)
    }

    #[test]
    fn profile_answer_equals_an_exact_linear_scan() {
        let n = 8;
        let ops = {
            use balance_kernels::Kernel;
            balance_kernels::matmul::MatMul
                .access_trace(n)
                .unwrap()
                .comp_ops()
        };
        let profile = MatmulTraceProfile.io_profile(n, topo(1)).unwrap();
        let curve = profile.profile();
        assert!(curve.is_exact());
        // Every distinct external-word count the curve takes on.
        let mut words: Vec<u64> = (1..=curve.saturating_capacity())
            .map(|m| curve.misses_at(m))
            .collect();
        words.dedup();
        assert!(
            words.len() > 8,
            "test premise: several breakpoints, got {words:?}"
        );
        let m_max = 100;
        // Power-of-two arrangements, so each aggregate balance below is
        // exactly the target it was built for.
        for topology in [topo(1), topo(2), topo(4), Topology::mesh(2).unwrap()] {
            let p = topology.pe_count();
            let alpha = topology.alpha().get();
            let lo0 = MatmulTraceProfile.min_memory_per_pe(n, topology);
            for &w in &words {
                let at = ops as f64 / w as f64;
                for target in [at, at.next_up()] {
                    let cfg = MeasuredBalanceConfig {
                        cell: PeSpec::new(
                            OpsPerSec::new(target / alpha),
                            WordsPerSec::new(1.0),
                            Words::new(1024),
                        )
                        .unwrap(),
                        n,
                        seed: 1,
                        verify: Verify::Full,
                        m_max,
                    };
                    let agg = topology.aggregate(cfg.cell).unwrap().machine_balance();
                    assert_eq!(agg, target, "test premise: exact target on {topology}");
                    let scan = (lo0..=m_max)
                        .find(|&m| reaches_exactly(ops, curve.misses_at(m as u64 * p), target))
                        .map(|m| Words::new(m as u64));
                    assert_eq!(
                        measured_balance_memory(&MatmulTraceProfile, topology, &cfg).unwrap(),
                        scan,
                        "target {target} ({ops}/{w}) on {topology}"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_never_balances() {
        let cfg = MeasuredBalanceConfig {
            cell: cell(2.0),
            n: 16,
            seed: 1,
            verify: Verify::Full,
            m_max: 4096,
        };
        assert_eq!(
            measured_balance_memory(&ParTranspose, topo(2), &cfg).unwrap(),
            None,
            "intensity ½ can never reach an aggregate balance of 4"
        );
    }

    #[test]
    fn measured_series_walks_linearly_for_matmul() {
        let cfg = MeasuredBalanceConfig {
            cell: cell(2.0),
            n: 32,
            seed: 2,
            verify: Verify::Full,
            m_max: 1 << 16,
        };
        let series =
            measured_series(&ParMatMul, TopologyKind::Linear, &[1, 2, 4], &cfg).unwrap();
        assert_eq!(series.len(), 3);
        // Per-PE memory must genuinely walk upward with p (Fig. 3).
        assert!(series[1].per_pe_memory > series[0].per_pe_memory);
        assert!(series[2].per_pe_memory > series[1].per_pe_memory);
    }

    #[test]
    fn measured_law_snaps_to_the_matrix_law() {
        // Points pooled across 1- and 2-PE machines at n = 64 collapse
        // onto one √(total) curve; the snapped fit is the α² law.
        let cfg = ParallelSweepConfig::new(
            64,
            vec![topo(1), topo(2)],
            (5..=11).map(|k| 1usize << k).collect(),
            4,
        )
        .with_verify(Verify::Freivalds { rounds: 2 });
        let law = measured_growth_law(&ParMatMul, &cfg, 0.35).unwrap();
        assert_eq!(law, GrowthLaw::Polynomial { degree: 2.0 });
    }

    #[test]
    fn measured_law_flags_io_bounded_kernels() {
        let cfg = ParallelSweepConfig::new(
            24,
            vec![topo(1), topo(2)],
            vec![16, 64, 256, 1024],
            4,
        );
        let law = measured_growth_law(&ParTranspose, &cfg, 0.35).unwrap();
        assert_eq!(law, GrowthLaw::Impossible);
    }
}
