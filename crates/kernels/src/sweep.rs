//! Memory sweeps: measure `r(M)` curves from real kernel runs.
//!
//! This is the measurement half of every experiment: run a kernel at a fixed
//! problem size across a range of memory sizes, collect the measured
//! `(M, C_comp/C_io)` points, and hand them to `balance-core`'s fitting and
//! curve-inversion machinery.
//!
//! Two executors produce **bit-identical** results:
//!
//! * [`intensity_sweep`] — one point after another on the calling thread;
//! * [`intensity_sweep_par`] — the same points fanned out over
//!   `std::thread::available_parallelism` scoped workers. Every run is
//!   independent (kernels take `&self` and own their `Pe`/`ExternalStore`),
//!   workloads and verification probes are seeded per run, and points are
//!   re-sorted into sweep order before they are returned.
//!
//! Verification cost is a knob ([`SweepConfig::verify`]): `Full` recomputes
//! the `O(n³)` reference at every point, [`Verify::Freivalds`] downgrades
//! all but the first eligible point (the *anchor*, which stays fully
//! verified) to `O(n²)` randomized checks, and `Verify::None` is for timing
//! studies only.
//!
//! ## One-pass capacity sweeps
//!
//! [`capacity_sweep`] is the third executor family: it measures the
//! **cache-model** curve — the kernel's canonical trace
//! ([`Kernel::access_trace`]) replayed through an automatically managed
//! LRU of capacity `M` — instead of running the explicit decomposition
//! scheme per point. Because LRU is a stack algorithm, the whole curve is
//! a pure function of one reuse-distance histogram, so the
//! [`Engine::StackDist`] engine replays the trace **once** and reads every
//! `M` off the histogram in O(1), where [`Engine::Replay`] replays once
//! per memory size. The two engines are bit-identical across the kernel
//! registry (pinned by property test); [`Engine::auto`] picks stack
//! distance once a sweep has ≥ 4 points, where the single replay
//! amortizes. [`hierarchy_capacity_sweep`] is the multi-level read: every
//! ladder boundary's traffic from the same histogram.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use balance_core::fit::{fit_best, DataPoint, FitReport};
use balance_core::solver::MeasuredCurve;
use balance_core::{
    Access, BalanceError, Budget, BudgetTrip, CostProfile, Execution, HierarchySpec, LevelSpec,
    Words, WordsPerSec,
};
use balance_machine::{
    resumable_replay, sampled_profile_of, sampled_profile_of_bounded, segmented_profile_of,
    segmented_profile_resumable, CapacityProfile, CheckpointPolicy, FaultPlan, Hierarchy,
    LruCache, MemorySystem as _, ReplayControl, ReplayInterrupt, SampledStackDistance,
    StackDistance, TrafficProfile, MAX_SAMPLE_SHIFT,
};

use crate::error::KernelError;
use crate::trace::AccessTrace;
use crate::traits::{Kernel, KernelRun};
use crate::verify::Verify;

/// Which measurement engine a capacity sweep runs on.
///
/// The first three engines produce **bit-identical** [`DataPoint`]s
/// (pinned by property test across the kernel registry); they differ
/// only in cost: `Replay` is `O(#points · |trace|)`, `StackDist` is
/// `O(|trace| · log U + #points)`, and `StackDistPar` divides the
/// `|trace|` term across K scoped threads (plus an `O(K·U·log U)` merge
/// — exact, per [`balance_machine::segmented`]). `Sampled` is the
/// approximate tier: SHARDS-style hash sampling at rate `2^-shift`
/// ([`balance_machine::sampling`]) cuts the replay cost by ~the rate and
/// marks its points' profiles non-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One full trace replay per memory size, each through an actual
    /// [`LruCache`] / [`Hierarchy`] model — the reference engine.
    Replay,
    /// One trace replay total: Mattson stack-distance accounting
    /// ([`StackDistance`]), every capacity read off the histogram.
    #[default]
    StackDist,
    /// Segmented parallel Mattson: the trace split into time ranges, one
    /// scoped thread each, merged exactly — bit-identical to
    /// [`Engine::StackDist`]. `threads = 0` means
    /// `std::thread::available_parallelism()`.
    StackDistPar {
        /// Segment/worker count (0 = available parallelism).
        threads: usize,
    },
    /// SHARDS-style hash-sampled approximate profile at rate `2^-shift`
    /// (`shift = 0` degenerates to the exact one-pass engine).
    Sampled {
        /// Sampling-rate exponent (rate = `2^-shift`).
        shift: u32,
    },
    /// Zero-replay tier: the kernel's closed-form reuse-distance
    /// histogram ([`Kernel::analytic_profile`]), exact bit-for-bit
    /// against the one-pass engines at every capacity (registry-pinned by
    /// proptest) and `O(poly(log n))` in the trace length — curves at
    /// sizes no replay could touch. Only kernels that derive a histogram
    /// support it; the rest fail with `BadParameters` (and are never
    /// auto-selected into this tier — see [`Engine::auto_for_kernel`]).
    Analytic,
}

/// Trace length beyond which [`Engine::auto_for`] escalates from the
/// serial one-pass engine to the segmented parallel one (2²⁷ ≈ 134M
/// addresses — roughly a second of serial histogram work).
pub const AUTO_SEGMENT_LEN: u64 = 1 << 27;

impl Engine {
    /// The recommended engine for a sweep of `points` memory sizes: the
    /// one-pass engine as soon as it amortizes (≥ 4 points), the plain
    /// replay below that.
    #[must_use]
    pub fn auto(points: usize) -> Engine {
        if points >= 4 {
            Engine::StackDist
        } else {
            Engine::Replay
        }
    }

    /// [`Engine::auto`] with the trace length in hand: escalates to the
    /// segmented parallel engine ([`Engine::StackDistPar`], auto thread
    /// count) past [`AUTO_SEGMENT_LEN`] addresses. Sampling is never
    /// chosen automatically — trading exactness is the caller's call.
    #[must_use]
    pub fn auto_for(points: usize, trace_len: u64) -> Engine {
        if points >= 4 && trace_len >= AUTO_SEGMENT_LEN {
            Engine::StackDistPar { threads: 0 }
        } else {
            Engine::auto(points)
        }
    }

    /// [`Engine::auto_for`] with the kernel in hand: the zero-replay
    /// [`Engine::Analytic`] tier whenever the kernel derives a histogram
    /// at this `n` (exactness is contractual, so there is nothing to
    /// trade), otherwise the trace-length escalation of
    /// [`Engine::auto_for`].
    #[must_use]
    pub fn auto_for_kernel(points: usize, kernel: &dyn Kernel, n: usize) -> Engine {
        if kernel.analytic_profile(n).is_some() {
            Engine::Analytic
        } else {
            match kernel.access_trace(n) {
                Some(trace) => Engine::auto_for(points, trace.len()),
                None => Engine::auto(points),
            }
        }
    }

    /// [`Engine::auto_for_kernel`] with the traffic model in hand. Under
    /// the word-granular read-priced model it is exactly
    /// [`Engine::auto_for_kernel`]; under a device-real model the
    /// closed-form, segmented, and sampled tiers are all word-granular
    /// machinery and are never chosen — the one-pass tagged engine is the
    /// fast exact tier (on the same ≥ 4-point amortization threshold as
    /// [`Engine::auto`]), the per-point replay below that.
    #[must_use]
    pub fn auto_for_model(
        points: usize,
        kernel: &dyn Kernel,
        n: usize,
        model: TrafficModel,
    ) -> Engine {
        if model.is_word_granular_read_priced() {
            Engine::auto_for_kernel(points, kernel, n)
        } else if points >= 4 {
            Engine::StackDist
        } else {
            Engine::Replay
        }
    }
}

/// The traffic model a capacity sweep prices: transfer granularity and
/// whether stores are tagged and dirty evictions ledgered as a second
/// write-back stream.
///
/// The default ([`TrafficModel::WORD`]) is the paper's model — one word
/// per transfer, every miss a read — and routes every sweep through the
/// exact code paths that existed before the device-real refactor, so the
/// numbers are bit-identical (pinned by property test across the
/// registry). Any other setting selects the device-real measurement
/// paths: line-granular LRU state and, with [`TrafficModel::writebacks`]
/// on, a dirty-bit write-back ledger per boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrafficModel {
    /// Transfer granularity in words (a power of two; 1 = the paper's
    /// word-granular model).
    pub line_words: u64,
    /// Whether stores are tagged and dirty evictions charged as a
    /// separate write-back stream (plus the end-of-run flush).
    pub writebacks: bool,
}

impl Default for TrafficModel {
    fn default() -> Self {
        TrafficModel::WORD
    }
}

impl TrafficModel {
    /// The paper's model: word-granular transfers, all misses priced as
    /// reads, no write-back ledger.
    pub const WORD: TrafficModel = TrafficModel {
        line_words: 1,
        writebacks: false,
    };

    /// A device-real model: `line_words`-granular transfers with the
    /// dirty-write-back ledger on.
    #[must_use]
    pub const fn device(line_words: u64) -> Self {
        TrafficModel {
            line_words,
            writebacks: true,
        }
    }

    /// True for the word-granular all-read model — the configuration
    /// every pre-device code path (analytic tier, segmented engine,
    /// sampling, budget ladder) implements exactly.
    #[must_use]
    pub const fn is_word_granular_read_priced(&self) -> bool {
        self.line_words <= 1 && !self.writebacks
    }

    /// Validates the model's shape (the same rule as
    /// [`LevelSpec::with_line_words`]: a positive power of two).
    ///
    /// # Errors
    ///
    /// [`KernelError::BadParameters`] for a zero or non-power-of-two line
    /// size.
    fn validate(&self) -> Result<(), KernelError> {
        if self.line_words == 0 || !self.line_words.is_power_of_two() {
            return Err(KernelError::BadParameters {
                reason: format!(
                    "line size must be a positive power of two words, got {}",
                    self.line_words
                ),
            });
        }
        Ok(())
    }
}

/// Parameters of one memory sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Problem size passed to every run.
    pub n: usize,
    /// Memory sizes to measure, in words.
    pub memories: Vec<usize>,
    /// Workload seed (same inputs at every memory size).
    pub seed: u64,
    /// Verification policy per point (the first eligible point is always
    /// fully verified when this is [`Verify::Freivalds`]).
    pub verify: Verify,
    /// Measurement engine for the *capacity* executors
    /// ([`capacity_sweep`] / [`hierarchy_capacity_sweep`]); the
    /// kernel-running executors ignore it (they execute the decomposition
    /// scheme, which no single trace can stand in for).
    pub engine: Engine,
    /// Optional resource budget for the capacity executors. When any
    /// limit trips, the measurement **degrades** along the engine ladder
    /// (see [`robust_capacity_profile`]) instead of aborting, and the
    /// substitution is reported in [`SweepResult::provenance`]. `None`
    /// runs unbounded. The kernel-running executors ignore it.
    pub budget: Option<Budget>,
    /// Optional checkpoint policy for the capacity executors: the replay
    /// persists resumable engine snapshots every
    /// [`CheckpointPolicy::every`] addresses, so a killed sweep re-run
    /// with the same config resumes instead of restarting (see
    /// [`balance_machine::checkpoint`]). The kernel-running executors
    /// ignore it.
    pub checkpoint: Option<CheckpointPolicy>,
    /// The traffic model the capacity executors price
    /// ([`TrafficModel::WORD`] by default — bit-identical to every
    /// pre-device sweep). The kernel-running executors ignore it: a
    /// decomposition scheme moves its words explicitly, so there is no
    /// cache state for a line size or dirty bit to live in.
    pub traffic: TrafficModel,
}

impl Default for SweepConfig {
    /// An empty sweep skeleton for struct-update syntax
    /// (`SweepConfig { n, memories, ..Default::default() }`): no points,
    /// seed 0, full verification, default engine, no budget, no
    /// checkpoints.
    fn default() -> Self {
        SweepConfig {
            n: 0,
            memories: Vec::new(),
            seed: 0,
            verify: Verify::Full,
            engine: Engine::default(),
            budget: None,
            checkpoint: None,
            traffic: TrafficModel::default(),
        }
    }
}

impl SweepConfig {
    /// A sweep over powers of two `2^lo ..= 2^hi`, fully verified, with
    /// the engine [`Engine::auto`] recommends for the point count.
    #[must_use]
    pub fn pow2(n: usize, lo: u32, hi: u32, seed: u64) -> Self {
        let memories: Vec<usize> = (lo..=hi).map(|k| 1usize << k).collect();
        SweepConfig {
            n,
            engine: Engine::auto(memories.len()),
            memories,
            seed,
            ..SweepConfig::default()
        }
    }

    /// The same sweep under a different verification policy.
    #[must_use]
    pub fn with_verify(mut self, verify: Verify) -> Self {
        self.verify = verify;
        self
    }

    /// The same sweep on an explicit measurement engine.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The same sweep under a resource budget (graceful degradation).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The same sweep with resumable checkpoints persisted per `policy`.
    #[must_use]
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// The same sweep under a different traffic model (line granularity
    /// and write-back pricing for the capacity executors).
    #[must_use]
    pub fn with_traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = traffic;
        self
    }
}

/// The measured result of a sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Kernel name.
    pub kernel: &'static str,
    /// Measured `(M, intensity)` samples.
    pub points: Vec<DataPoint>,
    /// The underlying verified runs.
    pub runs: Vec<KernelRun>,
    /// How the measurement was actually obtained, when the sweep ran
    /// under a budget or checkpoint policy ([`SweepConfig::budget`] /
    /// [`SweepConfig::checkpoint`]): requested vs. used engine, every
    /// degradation step taken, and resume/checkpoint counters. `None`
    /// for unbudgeted sweeps (the engine is exactly
    /// [`SweepConfig::engine`]).
    pub provenance: Option<Provenance>,
}

impl SweepResult {
    /// The measured intensity curve (log–log interpolable).
    ///
    /// # Errors
    ///
    /// [`BalanceError::InsufficientData`] with fewer than two samples.
    pub fn curve(&self) -> Result<MeasuredCurve, BalanceError> {
        MeasuredCurve::new(&self.points)
    }

    /// Fits the paper's candidate laws to the measured points.
    ///
    /// # Errors
    ///
    /// [`BalanceError::InsufficientData`] with fewer than two samples.
    pub fn fit(&self) -> Result<FitReport, BalanceError> {
        fit_best(&self.points)
    }
}

/// Memory sizes at or above the kernel's minimum — and, when outer levels
/// are present, strictly below the first outer capacity (level 0 must stay
/// the smallest level of the ladder) — in sweep order.
fn eligible_memories(kernel: &dyn Kernel, cfg: &SweepConfig, outer: &[LevelSpec]) -> Vec<usize> {
    let floor = kernel.min_memory(cfg.n);
    let ceiling = outer
        .first()
        .map_or(u64::MAX, |level| level.capacity().get());
    cfg.memories
        .iter()
        .copied()
        .filter(|&m| m >= floor && (m as u64) < ceiling)
        .collect()
}

/// Rejects a malformed outer ladder up front — before any memory
/// filtering — so even a sweep with zero eligible points reports it.
///
/// # Errors
///
/// [`KernelError::BadParameters`] for non-monotone outer capacities or a
/// ladder too deep to sit under a local level.
fn validate_outer(outer: &[LevelSpec]) -> Result<(), KernelError> {
    if outer.is_empty() {
        return Ok(());
    }
    let bad = |reason: String| KernelError::BadParameters { reason };
    if outer.len() + 1 > balance_core::MAX_MEMORY_LEVELS {
        return Err(bad(format!(
            "{} outer levels plus the local level exceed the supported maximum of {}",
            outer.len(),
            balance_core::MAX_MEMORY_LEVELS
        )));
    }
    // The outer levels on their own must form a valid ladder; the local
    // level below them is covered by the eligibility ceiling.
    HierarchySpec::new(outer.to_vec())
        .map(|_| ())
        .map_err(|e| bad(format!("outer levels: {e}")))
}

/// The kernel-running executors count each scheme's explicit word-granular
/// transfers; a device-real outer level (line-granular transfers or a
/// split write channel) would be silently mispriced, so it is refused with
/// a pointer to the capacity sweeps, which model both.
fn reject_device_outer(outer: &[LevelSpec]) -> Result<(), KernelError> {
    if let Some(i) = outer.iter().position(LevelSpec::is_device_real) {
        return Err(KernelError::BadParameters {
            reason: format!(
                "outer level {} is device-real (line size {} words{}), but the \
                 kernel-running executors count explicit word-granular transfers; \
                 use the capacity sweeps with SweepConfig::with_traffic to price \
                 line-granular or write-back traffic",
                i + 2,
                outer[i].line_words(),
                if outer[i].write_bandwidth().is_some() {
                    ", split write channel"
                } else {
                    ""
                }
            ),
        });
    }
    Ok(())
}

/// True when a capacity sweep must run on the device-real path: a
/// non-trivial [`TrafficModel`], or an outer level annotated with its own
/// line size / write channel (the legacy word path would silently ignore
/// the annotation).
fn needs_device_path(cfg: &SweepConfig, outer: &[LevelSpec]) -> bool {
    !cfg.traffic.is_word_granular_read_priced() || outer.iter().any(LevelSpec::is_device_real)
}

/// The machine for one sweep point: local memory `m` under the fixed outer
/// levels (a flat spec when there are none).
///
/// # Errors
///
/// [`KernelError::BadParameters`] when the resulting ladder is malformed
/// (e.g. a zero local capacity from a `min_memory() == 0` kernel).
fn machine_for(m: usize, outer: &[LevelSpec]) -> Result<HierarchySpec, KernelError> {
    if outer.is_empty() {
        return Ok(HierarchySpec::flat_words(m));
    }
    // m = 0 is possible for a kernel whose min_memory is 0: surface it as
    // the documented error, not a panic.
    let bad = |e: &dyn core::fmt::Display| KernelError::BadParameters {
        reason: format!("sweep point M = {m}: {e}"),
    };
    let local =
        LevelSpec::new(Words::new(m as u64), WordsPerSec::new(1.0)).map_err(|e| bad(&e))?;
    let mut levels = vec![local];
    levels.extend_from_slice(outer);
    HierarchySpec::new(levels).map_err(|e| bad(&e))
}

/// The verification policy for point `idx`: under `Freivalds`, the first
/// point is the fully-verified anchor so every sweep retains end-to-end
/// correctness coverage.
fn point_verify(cfg: Verify, idx: usize) -> Verify {
    match cfg {
        Verify::Freivalds { .. } if idx == 0 => Verify::Full,
        other => other,
    }
}

/// Folds per-point results into a [`SweepResult`], stopping at the first
/// error. The iterator is consumed lazily, so when the serial executor
/// passes its *unevaluated* run stream, a failing point aborts the sweep
/// without computing the remaining (expensive) points.
fn collect_sweep(
    kernel: &dyn Kernel,
    results: impl IntoIterator<Item = Result<KernelRun, KernelError>>,
) -> Result<SweepResult, KernelError> {
    let mut points = Vec::new();
    let mut runs = Vec::new();
    for result in results {
        let run = result?;
        points.push(DataPoint::new(run.m as f64, run.intensity()));
        runs.push(run);
    }
    Ok(SweepResult {
        kernel: kernel.name(),
        points,
        runs,
        provenance: None,
    })
}

/// Runs `kernel` at every memory size in the sweep; skips sizes below the
/// kernel's minimum. Every run is verified under the sweep's policy.
///
/// # Errors
///
/// Propagates the first kernel failure in sweep order (including
/// verification failures — a sweep with wrong numerics must not produce
/// data).
pub fn intensity_sweep(kernel: &dyn Kernel, cfg: &SweepConfig) -> Result<SweepResult, KernelError> {
    hierarchy_sweep(kernel, cfg, &[])
}

/// [`intensity_sweep`] fanned out over scoped worker threads — bit-identical
/// `DataPoint`s, sweep wall-clock divided by the available cores.
///
/// Worker count comes from `std::thread::available_parallelism`; on a
/// single-core host this degrades to the serial executor with zero thread
/// overhead. Points are handed to workers through an atomic cursor and
/// re-sorted into sweep order, so the output (including which point is the
/// fully-verified anchor) does not depend on scheduling.
///
/// # Errors
///
/// As [`intensity_sweep`]: the first failure *in sweep order* (all points
/// are attempted, then inspected in order).
pub fn intensity_sweep_par(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
) -> Result<SweepResult, KernelError> {
    hierarchy_sweep_par(kernel, cfg, &[])
}

/// Sweeps the local memory `M_1` over `cfg.memories` while the fixed
/// `outer` levels sit below it — the hierarchy generalization of
/// [`intensity_sweep`], and exactly it when `outer` is empty.
///
/// Each run's [`KernelRun::execution`] carries one traffic entry per level
/// (`io_at`, `intensity_at`); the returned `DataPoint`s keep the PE-port
/// intensity, so every fitting/inversion consumer works unchanged.
/// Memory sizes at or above the first outer capacity are skipped (level 0
/// must stay the smallest level), as are sizes below the kernel's minimum.
///
/// # Errors
///
/// As [`intensity_sweep`], plus [`KernelError::BadParameters`] for a
/// malformed `outer` ladder.
pub fn hierarchy_sweep(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    outer: &[LevelSpec],
) -> Result<SweepResult, KernelError> {
    validate_outer(outer)?;
    reject_device_outer(outer)?;
    let memories = eligible_memories(kernel, cfg, outer);
    // Lazy map: collect_sweep stops pulling (and thus running) points at
    // the first failure.
    collect_sweep(
        kernel,
        memories.iter().enumerate().map(|(i, &m)| {
            let machine = machine_for(m, outer)?;
            kernel.run_on(cfg.n, &machine, cfg.seed, point_verify(cfg.verify, i))
        }),
    )
}

/// [`hierarchy_sweep`] fanned out over scoped worker threads (the same
/// executor as [`intensity_sweep_par`] — bit-identical points, first error
/// in sweep order).
///
/// # Errors
///
/// As [`hierarchy_sweep`].
pub fn hierarchy_sweep_par(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    outer: &[LevelSpec],
) -> Result<SweepResult, KernelError> {
    validate_outer(outer)?;
    reject_device_outer(outer)?;
    let memories = eligible_memories(kernel, cfg, outer);
    let results = par_map(&memories, |i, &m| {
        let machine = machine_for(m, outer)?;
        kernel.run_on(cfg.n, &machine, cfg.seed, point_verify(cfg.verify, i))
    });
    collect_sweep(kernel, results)
}

/// The kernel's canonical trace, or the documented error for kernels (or
/// sizes) without one.
fn trace_for(kernel: &dyn Kernel, n: usize) -> Result<AccessTrace, KernelError> {
    kernel
        .access_trace(n)
        .ok_or_else(|| KernelError::BadParameters {
            reason: format!(
                "{} has no canonical access trace at n = {n} (capacity sweeps \
                 need one; use the kernel-running executors instead)",
                kernel.name()
            ),
        })
}

/// One cache-model sweep point as a [`KernelRun`]: the traced
/// computation's op count over the model's miss volume. The peak-memory
/// field reports the configured capacity (the model cache owns all of
/// `M`); both engines build points through here, so engine bit-identity
/// is structural.
fn capacity_run(n: usize, m: usize, comp_ops: u64, traffic: &[u64]) -> KernelRun {
    KernelRun {
        n,
        m,
        execution: Execution::new(
            CostProfile::with_levels(comp_ops, traffic),
            Words::new(m as u64),
        ),
    }
}

/// Measures the **cache-model** intensity curve `r(M) = C_comp /
/// misses(M)`: the kernel's canonical trace ([`Kernel::access_trace`])
/// replayed through a word-granular LRU of each sweep capacity. Emits
/// [`SweepResult`] / [`DataPoint`]s exactly like [`intensity_sweep`] —
/// same shapes, fitting and inversion machinery — but measures the
/// automatically-managed memory instead of the explicit decomposition
/// scheme (the E13 ablation's other half; the curves differ wherever LRU
/// falls short of the paper's blocking).
///
/// Under [`Engine::StackDist`] the whole sweep costs **one replay**:
/// Mattson stack-distance accounting answers every capacity from a single
/// histogram, bit-identically to the per-`M` [`Engine::Replay`] (pinned by
/// property test across the registry). Capacities of zero are skipped (a
/// cache needs a word); `cfg.verify` is ignored (a trace replay has no
/// numerics to verify).
///
/// # Errors
///
/// [`KernelError::BadParameters`] when the kernel has no canonical trace
/// at `cfg.n`.
pub fn capacity_sweep(kernel: &dyn Kernel, cfg: &SweepConfig) -> Result<SweepResult, KernelError> {
    hierarchy_capacity_sweep(kernel, cfg, &[])
}

/// [`capacity_sweep`] with the per-`M` replays fanned out over worker
/// threads ([`par_map`]) — meaningful for [`Engine::Replay`] only; the
/// one-pass engine is a single replay with nothing to fan out and runs
/// identically to the serial executor. Bit-identical points either way.
///
/// # Errors
///
/// As [`capacity_sweep`].
pub fn capacity_sweep_par(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
) -> Result<SweepResult, KernelError> {
    hierarchy_capacity_sweep_par(kernel, cfg, &[])
}

/// Capacities eligible for a capacity sweep: positive, and below the
/// first outer level so level 0 stays the smallest level of the ladder.
fn eligible_capacities(cfg: &SweepConfig, outer: &[LevelSpec]) -> Vec<usize> {
    let ceiling = outer
        .first()
        .map_or(u64::MAX, |level| level.capacity().get());
    cfg.memories
        .iter()
        .copied()
        .filter(|&m| m >= 1 && (m as u64) < ceiling)
        .collect()
}

/// The multi-level one-pass sweep: level 0's capacity sweeps over
/// `cfg.memories` under the fixed `outer` levels, **all levels
/// cache-managed** (the trace-driven configuration of
/// [`Hierarchy`]), each run carrying one traffic entry per
/// boundary. LRU inclusion makes every boundary's traffic exactly the
/// misses at that level's capacity, so [`Engine::StackDist`] reads the
/// whole ladder — and the whole sweep — off one histogram;
/// [`Engine::Replay`] replays the trace through an actual ladder per
/// point (bit-identical, pinned by property test).
///
/// # Errors
///
/// As [`capacity_sweep`], plus [`KernelError::BadParameters`] for a
/// malformed `outer` ladder.
pub fn hierarchy_capacity_sweep(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    outer: &[LevelSpec],
) -> Result<SweepResult, KernelError> {
    validate_outer(outer)?;
    if needs_device_path(cfg, outer) {
        return device_capacity_points(kernel, cfg, outer, false);
    }
    let memories = eligible_capacities(cfg, outer);
    match cfg.engine {
        // A budgeted/checkpointed Replay routes through the profile path:
        // per-point cache replays have no resumable snapshot, and the
        // one-pass engine is bit-identical (the substitution is recorded
        // in the result's provenance).
        Engine::Replay if cfg.budget.is_none() && cfg.checkpoint.is_none() => collect_sweep(
            kernel,
            memories
                .iter()
                .map(|&m| capacity_point_replay(kernel, cfg, outer, m)),
        ),
        engine => capacity_points_profile(kernel, cfg, outer, &memories, engine),
    }
}

/// [`hierarchy_capacity_sweep`] with per-`M` replays on worker threads
/// (see [`capacity_sweep_par`]).
///
/// # Errors
///
/// As [`hierarchy_capacity_sweep`].
pub fn hierarchy_capacity_sweep_par(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    outer: &[LevelSpec],
) -> Result<SweepResult, KernelError> {
    validate_outer(outer)?;
    if needs_device_path(cfg, outer) {
        return device_capacity_points(kernel, cfg, outer, true);
    }
    let memories = eligible_capacities(cfg, outer);
    match cfg.engine {
        Engine::Replay if cfg.budget.is_none() && cfg.checkpoint.is_none() => collect_sweep(
            kernel,
            par_map(&memories, |_, &m| {
                capacity_point_replay(kernel, cfg, outer, m)
            }),
        ),
        engine => capacity_points_profile(kernel, cfg, outer, &memories, engine),
    }
}

/// One replay-engine point: the canonical trace through an actual
/// one-level [`LruCache`] (flat) or [`Hierarchy`] ladder of capacity `m`
/// under the outer levels.
fn capacity_point_replay(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    outer: &[LevelSpec],
    m: usize,
) -> Result<KernelRun, KernelError> {
    let trace = trace_for(kernel, cfg.n)?;
    let comp = trace.comp_ops();
    let traffic = if outer.is_empty() {
        let mut cache = LruCache::with_address_bound(m, 1, trace.addr_bound());
        vec![cache.run_trace(trace.into_addrs())]
    } else {
        let mut caps = vec![Words::new(m as u64)];
        caps.extend(outer.iter().map(|l| l.capacity()));
        let mut ladder = Hierarchy::new(&caps);
        ladder.run_trace(trace.into_addrs()).as_slice().to_vec()
    };
    Ok(capacity_run(cfg.n, m, comp, &traffic))
}

/// All profile-engine points from **one pass**: the reuse profile is
/// built once (serially, segmented-parallel, or sampled, per `engine`),
/// then every sweep capacity (and every outer boundary) is an O(1) read.
fn capacity_points_profile(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    outer: &[LevelSpec],
    memories: &[usize],
    engine: Engine,
) -> Result<SweepResult, KernelError> {
    let (profile, provenance) = if cfg.budget.is_some() || cfg.checkpoint.is_some() {
        let no_faults = FaultPlan::none();
        let robust_cfg = cfg.clone().with_engine(engine);
        let (profile, prov) = robust_capacity_profile(kernel, &robust_cfg, &no_faults)?;
        (profile, Some(prov))
    } else {
        (capacity_profile(kernel, cfg.n, engine)?, None)
    };
    let comp = trace_for(kernel, cfg.n)?.comp_ops();
    let mut result = collect_sweep(
        kernel,
        memories.iter().map(|&m| {
            let mut traffic = vec![profile.misses_at(m as u64)];
            traffic.extend(outer.iter().map(|l| profile.misses_at(l.capacity().get())));
            Ok(capacity_run(cfg.n, m, comp, &traffic))
        }),
    )?;
    result.provenance = provenance;
    Ok(result)
}

/// Whether the address bound is worth a direct-indexed last-access table
/// (a flat `8 × bound`-byte allocation per engine/worker). The one backend
/// chooser: every engine this crate builds — the sweeps and the profile
/// service's repairs — routes its backend choice through here.
pub(crate) fn direct_bound(bound: u64) -> Option<u64> {
    (bound > 0 && bound < u64::from(u32::MAX / 2)).then_some(bound)
}

/// The one-pass tagged [`TrafficProfile`] of `accesses` at `line_words`,
/// on the backend [`direct_bound`] picks for the trace's address bound.
pub(crate) fn tagged_profile(
    accesses: impl IntoIterator<Item = Access>,
    line_words: u64,
    bound: u64,
) -> TrafficProfile {
    match direct_bound(bound) {
        Some(b) => StackDistance::traffic_profile_of_bounded(accesses, line_words, b),
        None => StackDistance::traffic_profile_of(accesses, line_words),
    }
}

/// The line size a ladder level transfers under `model`: the level's own
/// explicit line size when it declares one, the sweep model's otherwise
/// (a default `line_words = 1` level *inherits* the model granularity —
/// an unannotated `--levels CAP:BW` entry should not silently demote a
/// line-granular sweep back to words).
fn effective_line(model: TrafficModel, level: &LevelSpec) -> u64 {
    if level.line_words() > 1 {
        level.line_words()
    } else {
        model.line_words
    }
}

/// The tagged access stream a device-real measurement replays: the
/// kernel's honest read/write tags when write-backs are ledgered, the
/// same addresses demoted to reads when only line granularity is priced
/// (no store ever dirties a line, so no write-back can be charged).
fn device_accesses(trace: AccessTrace, model: TrafficModel) -> Box<dyn Iterator<Item = Access>> {
    if model.writebacks {
        trace.into_accesses()
    } else {
        Box::new(trace.into_addrs().map(Access::read))
    }
}

/// One device-real sweep point as a [`KernelRun`]: dual-ledger traffic
/// (read words + write-back words per boundary) under the traced
/// computation's op count. The device counterpart of [`capacity_run`];
/// both engines build points through here, so engine bit-identity is
/// structural here too.
fn device_capacity_run(n: usize, m: usize, comp_ops: u64, reads: &[u64], wbs: &[u64]) -> KernelRun {
    KernelRun {
        n,
        m,
        execution: Execution::new(
            CostProfile::with_dual_levels(comp_ops, reads, wbs),
            Words::new(m as u64),
        ),
    }
}

/// The device-real capacity executor: every sweep under a non-trivial
/// [`TrafficModel`] routes here (the word-granular read-priced model
/// never does — its sweeps run the untouched exact paths bit for bit).
///
/// Engine gating, per tier:
///
/// * [`Engine::Replay`] replays the tagged trace through actual
///   line-granular dirty-bit LRU state per point (fanned out over
///   workers when `par`);
/// * [`Engine::StackDist`] answers the whole sweep from **one** tagged
///   replay via [`TrafficProfile`](balance_machine::TrafficProfile) —
///   bit-identical to the per-point replays (pinned by test);
/// * [`Engine::Analytic`]'s closed forms are word-granular read-priced
///   derivations, so the tier **declines** device-real models and the
///   one-pass tagged engine answers instead (exact, just not free);
/// * [`Engine::StackDistPar`] and [`Engine::Sampled`] are word-granular
///   machinery (segment merges and hash sampling carry no dirty state)
///   and are refused outright rather than silently mispriced.
///
/// Sweep capacities smaller than one line are skipped — a cache that
/// cannot hold a single line is not a capacity point.
///
/// # Errors
///
/// [`KernelError::BadParameters`] for a malformed line size, a refused
/// engine, a budget/checkpoint policy (the resumable drivers replay
/// untagged addresses — word-granular machinery), or a kernel without a
/// canonical trace at `cfg.n`.
fn device_capacity_points(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    outer: &[LevelSpec],
    par: bool,
) -> Result<SweepResult, KernelError> {
    let model = cfg.traffic;
    model.validate()?;
    let bad = |reason: String| KernelError::BadParameters { reason };
    if cfg.budget.is_some() || cfg.checkpoint.is_some() {
        return Err(bad(format!(
            "budgets and checkpoints are word-granular machinery (the resumable replay \
             drivers stream untagged addresses); the device-real traffic model \
             (line_words = {}, writebacks = {}) runs unbudgeted",
            model.line_words, model.writebacks
        )));
    }
    let memories: Vec<usize> = eligible_capacities(cfg, outer)
        .into_iter()
        .filter(|&m| m as u64 >= model.line_words)
        .collect();
    match cfg.engine {
        Engine::StackDistPar { .. } | Engine::Sampled { .. } => Err(bad(format!(
            "engine {} is word-granular read-priced machinery; the device-real traffic \
             model (line_words = {}, writebacks = {}) needs `replay` or `stackdist`",
            engine_spec(cfg.engine),
            model.line_words,
            model.writebacks
        ))),
        Engine::Replay if par => collect_sweep(
            kernel,
            par_map(&memories, |_, &m| device_point_replay(kernel, cfg, outer, m)),
        ),
        Engine::Replay => collect_sweep(
            kernel,
            memories
                .iter()
                .map(|&m| device_point_replay(kernel, cfg, outer, m)),
        ),
        Engine::StackDist | Engine::Analytic => device_points_profile(kernel, cfg, outer, &memories),
    }
}

/// One device-real replay point: the tagged trace through actual
/// line-granular dirty-bit LRU state of capacity `m` (a flat
/// [`LruCache`] on the direct-indexed backend, or a
/// [`Hierarchy::from_spec_device`] ladder under outer levels, each level
/// at its [`effective_line`] size).
fn device_point_replay(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    outer: &[LevelSpec],
    m: usize,
) -> Result<KernelRun, KernelError> {
    let model = cfg.traffic;
    let lw = model.line_words;
    let trace = trace_for(kernel, cfg.n)?;
    let comp = trace.comp_ops();
    let bound = trace.addr_bound();
    if outer.is_empty() {
        let lines = usize::try_from(m as u64 / lw)
            .unwrap_or_else(|_| panic!("capacity {m} overflows the line count"));
        let mut cache = LruCache::with_address_bound(lines, lw, bound);
        let _ = cache.run_tagged_trace(device_accesses(trace, model));
        return Ok(device_capacity_run(
            cfg.n,
            m,
            comp,
            &[cache.miss_words()],
            &[cache.writeback_words()],
        ));
    }
    let bad = |e: &dyn core::fmt::Display| KernelError::BadParameters {
        reason: format!("sweep point M = {m}: {e}"),
    };
    let local = LevelSpec::new(Words::new(m as u64), WordsPerSec::new(1.0))
        .and_then(|l| l.with_line_words(lw))
        .map_err(|e| bad(&e))?;
    let mut levels = vec![local];
    for level in outer {
        levels.push(
            level
                .with_line_words(effective_line(model, level))
                .map_err(|e| bad(&e))?,
        );
    }
    let spec = HierarchySpec::new(levels).map_err(|e| bad(&e))?;
    let mut ladder = Hierarchy::from_spec_device(&spec);
    let traffic = ladder.run_tagged_trace(device_accesses(trace, model));
    let depth = traffic.len();
    let reads: Vec<u64> = (0..depth).map(|i| traffic.read_at(i).unwrap_or(0)).collect();
    let wbs: Vec<u64> = (0..depth)
        .map(|i| traffic.writeback_at(i).unwrap_or(0))
        .collect();
    Ok(device_capacity_run(cfg.n, m, comp, &reads, &wbs))
}

/// All device-real profile points from **one** tagged replay: a
/// [`TrafficProfile`](balance_machine::TrafficProfile) answers every
/// capacity's read misses and write-backs in O(1).
///
/// The one-pass read is only sound at a **uniform** line size: LRU
/// inclusion (the Mattson stack property the whole-ladder read rests on)
/// holds level-to-level only when every level tracks the same lines, so
/// a mixed-line ladder is refused here and needs [`Engine::Replay`].
fn device_points_profile(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    outer: &[LevelSpec],
    memories: &[usize],
) -> Result<SweepResult, KernelError> {
    let model = cfg.traffic;
    for level in outer {
        let eff = effective_line(model, level);
        if eff != model.line_words {
            return Err(KernelError::BadParameters {
                reason: format!(
                    "the one-pass tagged engine needs a uniform line size across the \
                     ladder (sweep model {} words, outer level {} words); use engine \
                     `replay` for mixed-line ladders",
                    model.line_words, eff
                ),
            });
        }
    }
    let trace = trace_for(kernel, cfg.n)?;
    let comp = trace.comp_ops();
    let bound = trace.addr_bound();
    let accesses = device_accesses(trace, model);
    let tp = tagged_profile(accesses, model.line_words, bound);
    collect_sweep(
        kernel,
        memories.iter().map(|&m| {
            let capacities =
                std::iter::once(m as u64).chain(outer.iter().map(|l| l.capacity().get()));
            let (reads, wbs): (Vec<u64>, Vec<u64>) = capacities
                .map(|c| (tp.read_words_at(c), tp.writeback_words_at(c)))
                .unzip();
            Ok(device_capacity_run(cfg.n, m, comp, &reads, &wbs))
        }),
    )
}

/// Builds the kernel's [`CapacityProfile`] on the requested profile
/// engine ([`Engine::Replay`] has no profile and is rejected by the
/// callers' dispatch).
///
/// # Errors
///
/// [`KernelError::BadParameters`] when the kernel has no canonical trace
/// at `n`.
fn capacity_profile(
    kernel: &dyn Kernel,
    n: usize,
    engine: Engine,
) -> Result<CapacityProfile, KernelError> {
    if engine == Engine::Analytic {
        return kernel
            .analytic_profile(n)
            .map(balance_machine::AnalyticProfile::into_profile)
            .ok_or_else(|| KernelError::BadParameters {
                reason: format!(
                    "kernel {} derives no analytic profile at n = {n}; \
                     use a replay engine (stackdist, stackdist-par, sampled)",
                    kernel.name()
                ),
            });
    }
    let trace = trace_for(kernel, n)?;
    let bound = trace.addr_bound();
    Ok(match engine {
        Engine::Analytic => unreachable!("handled by the early return above"),
        Engine::Replay | Engine::StackDist => match direct_bound(bound) {
            Some(b) => StackDistance::profile_of_bounded(trace.into_addrs(), b),
            None => StackDistance::profile_of(trace.into_addrs()),
        },
        Engine::Sampled { shift } => match direct_bound(bound) {
            Some(b) => sampled_profile_of_bounded(trace.into_addrs(), b, shift),
            None => sampled_profile_of(trace.into_addrs(), shift),
        },
        Engine::StackDistPar { threads } => {
            let len = trace.len();
            drop(trace);
            // Each worker regenerates its time range from the kernel's
            // streaming generator: `skip` is O(1) for generators with a
            // positional `nth` (e.g. the matmul trace) and one cheap
            // linear scan otherwise.
            segmented_profile_of(len, direct_bound(bound), resolve_threads(threads), |start, end| {
                segment_range(kernel, n, start, end)
            })
        }
    })
}

/// Resolves a [`Engine::StackDistPar`] thread count (`0` = the host's
/// available parallelism).
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// The kernel's canonical address stream, for callers that have already
/// proven the trace exists at this size (via [`trace_for`]).
///
/// # Panics
///
/// Panics if the kernel refuses to produce the trace it just produced —
/// a broken [`Kernel::access_trace`] contract, not an input condition.
fn kernel_addrs(kernel: &dyn Kernel, n: usize) -> impl Iterator<Item = u64> + Send {
    trace_for(kernel, n)
        .unwrap_or_else(|e| panic!("trace_for succeeded above: {e}"))
        .into_addrs()
}

/// One segment worker's slice of the kernel's canonical trace,
/// regenerated from the streaming generator.
///
/// # Panics
///
/// As [`kernel_addrs`], or when a trace position overflows `usize`.
fn segment_range(kernel: &dyn Kernel, n: usize, start: u64, end: u64) -> impl Iterator<Item = u64> {
    let start =
        usize::try_from(start).unwrap_or_else(|_| panic!("trace position {start} overflows usize"));
    let end =
        usize::try_from(end).unwrap_or_else(|_| panic!("trace position {end} overflows usize"));
    kernel_addrs(kernel, n).skip(start).take(end - start)
}

/// Sampling-rate exponent step between successive rungs of the
/// degradation ladder (the first sampled rung runs at rate `2^-4`).
const LADDER_SHIFT_STEP: u32 = 4;

/// How often the sampled rung polls its wall-clock deadline (the exact
/// rungs poll inside [`resumable_replay`] at the same cadence).
const SAMPLED_DEADLINE_POLL: u64 = 1 << 20;

/// Planning estimate of one-pass engine state per tracked address:
/// last-access slot + recency-stack entry + marker/Fenwick bits, rounded
/// up. Used only to *pre-trip* [`Budget::max_resident_bytes`] before
/// allocating — a sizing model, not an rlimit.
const TRACKED_ADDRESS_BYTES: u64 = 32;

/// The next (cheaper, eventually approximate) rung below `engine` on the
/// degradation ladder, or `None` at the floor:
///
/// ```text
/// stackdist-par:K → stackdist → sampled:4 → sampled:8 → … → sampled:32
/// ```
///
/// `Replay` enters at `stackdist`, its bit-identical one-pass
/// equivalent. Every estimate ([`Budget::max_resident_bytes`],
/// [`Budget::max_addresses`]) is monotone non-increasing down the
/// ladder, so one downward pass settles all pre-checks.
fn next_rung(engine: Engine) -> Option<Engine> {
    match engine {
        // Analytic never enters the ladder (it is free and cannot trip a
        // budget — see `robust_capacity_profile`); its nominal next exact
        // tier keeps the ladder total.
        Engine::Analytic | Engine::Replay | Engine::StackDistPar { .. } => Some(Engine::StackDist),
        Engine::StackDist => Some(Engine::Sampled {
            shift: LADDER_SHIFT_STEP,
        }),
        Engine::Sampled { shift } if shift < MAX_SAMPLE_SHIFT => Some(Engine::Sampled {
            shift: (shift + LADDER_SHIFT_STEP).min(MAX_SAMPLE_SHIFT),
        }),
        Engine::Sampled { .. } => None,
    }
}

/// Order-of-magnitude estimate of `engine`'s resident state for a trace
/// of `len` addresses drawn from `bound` distinct ones (`len` stands in
/// when the bound is unknown): [`TRACKED_ADDRESS_BYTES`] per address the
/// inner exact engine must track, per concurrent worker. The sampled
/// rungs use the hash-indexed backend, which tracks only the expected
/// `bound · 2^-shift` sampled addresses — that is what makes them
/// genuinely cheaper, not just faster.
fn estimated_resident_bytes(engine: Engine, bound: u64, len: u64) -> u64 {
    let tracked = if bound > 0 { bound } else { len };
    let (per_worker, workers) = match engine {
        // A finalized analytic histogram is O(#classes) — noise next to
        // any per-address table.
        Engine::Analytic => (0, 1),
        Engine::Replay | Engine::StackDist => (tracked, 1),
        Engine::StackDistPar { threads } => (tracked, resolve_threads(threads)),
        Engine::Sampled { shift } => ((tracked >> shift).max(1), 1),
    };
    per_worker
        .saturating_mul(TRACKED_ADDRESS_BYTES)
        .saturating_mul(workers as u64)
}

/// Addresses the inner exact engine processes — the quantity
/// [`Budget::max_addresses`] bounds: the full trace for exact rungs, the
/// expected hash-sampled subset (`len · 2^-shift`) for sampled rungs.
fn engine_address_cost(engine: Engine, len: u64) -> u64 {
    match engine {
        Engine::Analytic => 0,
        Engine::Sampled { shift } => len >> shift,
        _ => len,
    }
}

/// The budget limit `engine` would violate before running, if any.
/// Resident and address limits are estimate-checked up front; the wall
/// limit can only trip *during* a replay.
fn pre_trip(engine: Engine, budget: &Budget, bound: u64, len: u64) -> Option<BudgetTrip> {
    if let Some(limit) = budget.max_resident_bytes {
        let estimated = estimated_resident_bytes(engine, bound, len);
        if estimated > limit {
            return Some(BudgetTrip::Resident { estimated, limit });
        }
    }
    if let Some(limit) = budget.max_addresses {
        let needed = engine_address_cost(engine, len);
        if needed > limit {
            return Some(BudgetTrip::Addresses { needed, limit });
        }
    }
    None
}

/// The CLI spelling of an engine (`replay`, `stackdist`,
/// `stackdist-par:K`, `sampled:S`) — used by provenance lines and
/// diagnostics.
#[must_use]
pub fn engine_spec(engine: Engine) -> String {
    match engine {
        Engine::Replay => "replay".into(),
        Engine::StackDist => "stackdist".into(),
        Engine::StackDistPar { threads } => format!("stackdist-par:{threads}"),
        Engine::Sampled { shift } => format!("sampled:{shift}"),
        Engine::Analytic => "analytic".into(),
    }
}

/// One rung-to-rung substitution a budgeted measurement made, and the
/// tripped limit that forced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationStep {
    /// The engine that was abandoned.
    pub from: Engine,
    /// The cheaper engine substituted for it.
    pub to: Engine,
    /// The budget limit that tripped.
    pub trip: BudgetTrip,
}

impl core::fmt::Display for DegradationStep {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} -> {}: {}",
            engine_spec(self.from),
            engine_spec(self.to),
            self.trip
        )
    }
}

/// How a robust capacity measurement was actually obtained — the honest
/// companion to a profile that may not come from the engine the caller
/// asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// The engine the caller requested.
    pub requested: Engine,
    /// The engine that produced the returned profile.
    pub used: Engine,
    /// Every budget-forced substitution, in the order taken (empty when
    /// the requested engine ran within budget).
    pub steps: Vec<DegradationStep>,
    /// `Some(pos)` when the serial replay resumed from a checkpoint at
    /// trace position `pos` instead of starting fresh.
    pub resumed_at: Option<u64>,
    /// Segment workers that resumed from persisted images (segmented
    /// engine only).
    pub resumed_segments: usize,
    /// Dead segment workers that were re-run within the bounded retry.
    pub segment_retries: u64,
    /// Checkpoints persisted while building the profile.
    pub checkpoints_written: u64,
}

impl Provenance {
    /// Whether a budget trip forced a cheaper engine than requested.
    #[must_use]
    pub fn degraded(&self) -> bool {
        !self.steps.is_empty()
    }

    /// One-line human summary for CLI/report output, e.g. `degraded
    /// stackdist -> sampled:4 (estimated resident 96000000 B exceeds the
    /// 64000000 B budget); wrote 3 checkpoint(s)`.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut line = if let Some(last) = self.steps.last() {
            let path: Vec<String> = std::iter::once(engine_spec(self.steps[0].from))
                .chain(self.steps.iter().map(|s| engine_spec(s.to)))
                .collect();
            format!("degraded {} ({})", path.join(" -> "), last.trip)
        } else if self.used == self.requested {
            format!("as requested ({})", engine_spec(self.used))
        } else {
            format!(
                "substituted bit-identical {} for {}",
                engine_spec(self.used),
                engine_spec(self.requested)
            )
        };
        if let Some(pos) = self.resumed_at {
            line.push_str(&format!("; resumed at address {pos}"));
        }
        if self.resumed_segments > 0 {
            line.push_str(&format!("; resumed {} segment(s)", self.resumed_segments));
        }
        if self.segment_retries > 0 {
            line.push_str(&format!(
                "; retried {} dead segment worker(s)",
                self.segment_retries
            ));
        }
        if self.checkpoints_written > 0 {
            line.push_str(&format!(
                "; wrote {} checkpoint(s)",
                self.checkpoints_written
            ));
        }
        line
    }
}

/// Durability counters from one ladder-rung attempt.
#[derive(Debug, Default, Clone, Copy)]
struct AttemptStats {
    resumed_at: Option<u64>,
    resumed_segments: usize,
    segment_retries: u64,
    checkpoints_written: u64,
}

/// The serial replay's checkpoint-image name: one image per
/// (kernel, size), so interleaved sweeps in one directory cannot resume
/// from each other's state.
fn checkpoint_name(kernel: &dyn Kernel, n: usize) -> String {
    format!("{}_n{n}", kernel.name())
}

/// One ladder rung's attempt at the profile. Exact rungs run through the
/// resumable (checkpointed, deadline-polled, fault-checked) replay
/// drivers; sampled rungs stream through [`SampledStackDistance`] on the
/// hash-indexed backend with the same deadline/fault cadence (sampled
/// state is small enough that checkpointing it is not worth the I/O).
fn run_profile_attempt(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    engine: Engine,
    bound: u64,
    len: u64,
    deadline: Option<Instant>,
    faults: &FaultPlan,
) -> Result<(CapacityProfile, AttemptStats), ReplayInterrupt> {
    match engine {
        Engine::Replay => unreachable!("replay is mapped to stackdist before the ladder"),
        Engine::Analytic => unreachable!("analytic profiles are built before the ladder"),
        Engine::StackDist => {
            let name = checkpoint_name(kernel, cfg.n);
            let mut ctl = ReplayControl::new(&name);
            ctl.policy = cfg.checkpoint.as_ref();
            ctl.faults = faults;
            ctl.deadline = deadline;
            let fresh = || match direct_bound(bound) {
                Some(b) => StackDistance::with_address_bound(b),
                None => StackDistance::new(),
            };
            let (eng, stats) = resumable_replay(len, kernel_addrs(kernel, cfg.n), fresh, &ctl)?;
            Ok((
                eng.into_profile(),
                AttemptStats {
                    resumed_at: stats.resumed_at,
                    checkpoints_written: stats.checkpoints_written,
                    ..AttemptStats::default()
                },
            ))
        }
        Engine::StackDistPar { threads } => {
            let (profile, stats) = segmented_profile_resumable(
                len,
                direct_bound(bound),
                resolve_threads(threads),
                |start, end| segment_range(kernel, cfg.n, start, end),
                cfg.checkpoint.as_ref(),
                faults,
                deadline,
            )?;
            Ok((
                profile,
                AttemptStats {
                    resumed_segments: stats.resumed_segments,
                    segment_retries: stats.segment_retries,
                    checkpoints_written: stats.checkpoints_written,
                    ..AttemptStats::default()
                },
            ))
        }
        Engine::Sampled { shift } => {
            let mut eng = SampledStackDistance::new(shift);
            let armed = faults.is_armed();
            let mut until_poll = SAMPLED_DEADLINE_POLL;
            for (pos, addr) in kernel_addrs(kernel, cfg.n).enumerate() {
                if armed {
                    faults.check_observe(pos as u64)?;
                }
                eng.observe(addr);
                until_poll -= 1;
                if until_poll == 0 {
                    until_poll = SAMPLED_DEADLINE_POLL;
                    if let Some(dl) = deadline {
                        if Instant::now() >= dl {
                            return Err(ReplayInterrupt::DeadlineExceeded);
                        }
                    }
                }
            }
            Ok((eng.into_profile(), AttemptStats::default()))
        }
    }
}

/// Builds the kernel's [`CapacityProfile`] under [`SweepConfig::budget`]
/// and [`SweepConfig::checkpoint`], degrading along the engine ladder
/// instead of aborting, and reporting exactly how the profile was
/// obtained.
///
/// The ladder (see [`next_rung`] in this module): segmented-parallel →
/// serial one-pass → SHARDS sampling at rate `2^-4`, then coarser powers
/// down to `2^-32`. Resident-memory and address limits are pre-checked
/// from sizing estimates before an attempt is paid for; the wall limit
/// arms a deadline polled during the replay, and a rung that runs out of
/// time checkpoints its progress first (when a policy is armed). The
/// floor rung runs without a deadline — a late answer beats none.
///
/// Exactness is never traded silently: every sampled rung's profile
/// reports [`CapacityProfile::is_exact`]` == false` (so exact-only
/// consumers keep refusing it), and the returned [`Provenance`] lists
/// each substitution with the limit that forced it.
///
/// `faults` is the deterministic fault-injection schedule; pass
/// [`FaultPlan::none`] outside harness runs.
///
/// # Errors
///
/// [`KernelError::BadParameters`] when the kernel has no canonical trace
/// at `cfg.n`; [`KernelError::BudgetExhausted`] when even the floor
/// rung's estimate exceeds a limit; [`KernelError::Interrupted`] when an
/// injected fault or a checkpoint-persistence failure stops the replay.
pub fn robust_capacity_profile(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    faults: &FaultPlan,
) -> Result<(CapacityProfile, Provenance), KernelError> {
    // The analytic tier replays nothing, holds no per-address state, and
    // finishes in microseconds: no budget can trip and there is nothing
    // to checkpoint, so it bypasses the ladder entirely. A kernel without
    // a derivation errors here rather than degrading — the caller asked
    // for exact-and-free specifically.
    if cfg.engine == Engine::Analytic {
        let profile = capacity_profile(kernel, cfg.n, Engine::Analytic)?;
        return Ok((
            profile,
            Provenance {
                requested: Engine::Analytic,
                used: Engine::Analytic,
                steps: Vec::new(),
                resumed_at: None,
                resumed_segments: 0,
                segment_retries: 0,
                checkpoints_written: 0,
            },
        ));
    }
    let probe = trace_for(kernel, cfg.n)?;
    let len = probe.len();
    let bound = probe.addr_bound();
    drop(probe);
    let budget = cfg.budget.unwrap_or_default();
    let deadline = budget.max_wall.map(|w| Instant::now() + w);

    let requested = cfg.engine;
    // Replay has no one-pass state to checkpoint; its bit-identical
    // one-pass equivalent enters the ladder in its place (recorded as
    // `used`, with no degradation step — the numbers are identical).
    let mut engine = match requested {
        Engine::Replay => Engine::StackDist,
        other => other,
    };
    let mut steps: Vec<DegradationStep> = Vec::new();

    // Settle the estimate-checkable limits before paying for a doomed
    // attempt. Estimates are monotone down the ladder, so this loop and
    // the wall-trip degradations below never need to re-check.
    while let Some(trip) = pre_trip(engine, &budget, bound, len) {
        let Some(next) = next_rung(engine) else {
            return Err(KernelError::BudgetExhausted {
                reason: format!("{trip} even on the floor engine {}", engine_spec(engine)),
            });
        };
        steps.push(DegradationStep {
            from: engine,
            to: next,
            trip,
        });
        engine = next;
    }

    let mut total = AttemptStats::default();
    loop {
        let floor = next_rung(engine).is_none();
        let attempt_deadline = if floor { None } else { deadline };
        match run_profile_attempt(kernel, cfg, engine, bound, len, attempt_deadline, faults) {
            Ok((profile, stats)) => {
                total.resumed_at = total.resumed_at.or(stats.resumed_at);
                total.resumed_segments += stats.resumed_segments;
                total.segment_retries += stats.segment_retries;
                total.checkpoints_written += stats.checkpoints_written;
                return Ok((
                    profile,
                    Provenance {
                        requested,
                        used: engine,
                        steps,
                        resumed_at: total.resumed_at,
                        resumed_segments: total.resumed_segments,
                        segment_retries: total.segment_retries,
                        checkpoints_written: total.checkpoints_written,
                    },
                ));
            }
            Err(ReplayInterrupt::DeadlineExceeded) => {
                let limit = budget.max_wall.unwrap_or_default();
                let Some(next) = next_rung(engine) else {
                    unreachable!("the floor rung runs without a deadline")
                };
                steps.push(DegradationStep {
                    from: engine,
                    to: next,
                    trip: BudgetTrip::Wall { limit },
                });
                engine = next;
            }
            Err(other) => {
                return Err(KernelError::Interrupted {
                    reason: other.to_string(),
                })
            }
        }
    }
}

/// Applies `f` to every item of `items` on a scoped thread pool sized by
/// `std::thread::available_parallelism`, returning outputs **in input
/// order**. `f` receives `(index, &item)`.
///
/// This is the repo's only parallel primitive (rayon is unavailable
/// offline): an atomic cursor feeds indices to workers, each worker
/// accumulates `(index, output)` pairs, and the merged result is sorted by
/// index — deterministic regardless of thread scheduling. With one core
/// (or one item) it runs inline on the caller's thread.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return local;
                        };
                        local.push((i, f(i, item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(local) => local,
                // Re-raise with the original payload so callers' panic
                // messages (kernel name, size, error) survive the hop.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::MatMul;
    use crate::matvec::MatVec;
    use balance_core::fit::FittedLaw;
    use balance_core::GrowthLaw;

    #[test]
    fn pow2_config() {
        let cfg = SweepConfig::pow2(10, 4, 7, 1);
        assert_eq!(cfg.memories, vec![16, 32, 64, 128]);
        assert_eq!(cfg.verify, Verify::Full);
    }

    #[test]
    fn matmul_sweep_fits_sqrt_law() {
        let cfg = SweepConfig::pow2(48, 5, 11, 42);
        let result = intensity_sweep(&MatMul, &cfg).unwrap();
        assert!(result.points.len() >= 6);
        let fit = result.fit().unwrap();
        match fit.best {
            FittedLaw::Power { exponent, .. } => {
                assert!((exponent - 0.5).abs() < 0.12, "fitted exponent {exponent}");
            }
            other => panic!("expected power law, got {other}"),
        }
    }

    #[test]
    fn matvec_sweep_fits_constant_law() {
        let cfg = SweepConfig::pow2(64, 5, 12, 42);
        let result = intensity_sweep(&MatVec, &cfg).unwrap();
        let fit = result.fit().unwrap();
        assert_eq!(
            fit.best.growth_law(),
            GrowthLaw::Impossible,
            "got {}",
            fit.best
        );
    }

    #[test]
    fn sweep_skips_too_small_memories() {
        let cfg = SweepConfig {
            n: 16,
            memories: vec![1, 2, 64],
            seed: 0,
            verify: Verify::Full,
            engine: Engine::Replay,
            ..SweepConfig::default()
        };
        let result = intensity_sweep(&MatMul, &cfg).unwrap();
        assert_eq!(result.points.len(), 1);
    }

    #[test]
    fn curve_supports_empirical_rebalance() {
        let cfg = SweepConfig::pow2(48, 5, 11, 7);
        let result = intensity_sweep(&MatMul, &cfg).unwrap();
        let curve = result.curve().unwrap();
        // alpha = 2 on sqrt-law data: memory should grow ~4x.
        let m_new = curve.empirical_rebalance(2.0, 256.0).unwrap();
        let factor = m_new / 256.0;
        assert!(
            (2.5..6.5).contains(&factor),
            "empirical growth factor {factor}"
        );
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        for verify in [Verify::Full, Verify::Freivalds { rounds: 2 }] {
            let cfg = SweepConfig::pow2(32, 5, 10, 9).with_verify(verify);
            let serial = intensity_sweep(&MatMul, &cfg).unwrap();
            let par = intensity_sweep_par(&MatMul, &cfg).unwrap();
            assert_eq!(serial.points.len(), par.points.len());
            for (s, p) in serial.points.iter().zip(&par.points) {
                assert_eq!(s.memory.to_bits(), p.memory.to_bits());
                assert_eq!(s.ratio.to_bits(), p.ratio.to_bits());
            }
            assert_eq!(serial.runs, par.runs);
        }
    }

    #[test]
    fn freivalds_sweep_matches_full_sweep_measurements() {
        // Verification mode must not change what is measured, only how the
        // output is checked.
        let base = SweepConfig::pow2(48, 5, 9, 4);
        let full = intensity_sweep(&MatMul, &base).unwrap();
        let cheap = intensity_sweep(
            &MatMul,
            &base.clone().with_verify(Verify::Freivalds { rounds: 1 }),
        )
        .unwrap();
        assert_eq!(full.runs, cheap.runs);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(par_map::<usize, usize, _>(&[], |_, &x| x), Vec::<usize>::new());
    }

    /// A kernel that fails at every memory size, each failure naming its
    /// `m` — lets the tests observe *which* error an executor surfaces.
    #[derive(Debug)]
    struct AlwaysFails;

    impl Kernel for AlwaysFails {
        fn name(&self) -> &'static str {
            "always-fails"
        }
        fn description(&self) -> &'static str {
            "test kernel: every run fails, tagged with its m"
        }
        fn intensity_model(&self) -> balance_core::IntensityModel {
            balance_core::IntensityModel::constant(1.0)
        }
        fn analytic_cost(&self, _n: usize, _m: usize) -> balance_core::CostProfile {
            balance_core::CostProfile::new(0, 0)
        }
        fn min_memory(&self, _n: usize) -> usize {
            4
        }
        fn run_on(
            &self,
            _n: usize,
            machine: &HierarchySpec,
            _seed: u64,
            _verify: Verify,
        ) -> Result<KernelRun, KernelError> {
            Err(KernelError::BadParameters {
                reason: format!("injected failure at m={}", machine.local_capacity_words()),
            })
        }
    }

    #[test]
    fn both_executors_report_the_first_error_in_sweep_order() {
        let cfg = SweepConfig {
            n: 8,
            memories: vec![1, 64, 16, 256], // 1 skipped (< min_memory)
            seed: 0,
            verify: Verify::Full,
            engine: Engine::Replay,
            ..SweepConfig::default()
        };
        for result in [
            intensity_sweep(&AlwaysFails, &cfg),
            intensity_sweep_par(&AlwaysFails, &cfg),
        ] {
            match result {
                Err(KernelError::BadParameters { reason }) => {
                    // First *eligible* point in sweep order, not the
                    // smallest m and not whichever worker finished first.
                    assert_eq!(reason, "injected failure at m=64");
                }
                other => panic!("expected the m=64 failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn sweep_with_only_ineligible_memories_is_empty_ok() {
        let cfg = SweepConfig {
            n: 8,
            memories: vec![1, 2], // both below MatMul::min_memory
            seed: 0,
            verify: Verify::Full,
            engine: Engine::Replay,
            ..SweepConfig::default()
        };
        let result = intensity_sweep_par(&MatMul, &cfg).unwrap();
        assert!(result.points.is_empty());
    }

    fn outer_levels(caps: &[u64]) -> Vec<LevelSpec> {
        caps.iter()
            .map(|&c| LevelSpec::new(Words::new(c), WordsPerSec::new(1.0)).unwrap())
            .collect()
    }

    #[test]
    fn hierarchy_sweep_with_no_outer_levels_is_intensity_sweep() {
        let cfg = SweepConfig::pow2(32, 5, 9, 11);
        let flat = intensity_sweep(&MatMul, &cfg).unwrap();
        let hier = hierarchy_sweep(&MatMul, &cfg, &[]).unwrap();
        assert_eq!(flat.runs, hier.runs);
    }

    #[test]
    fn hierarchy_sweep_reports_inclusive_per_level_traffic() {
        let cfg = SweepConfig::pow2(24, 5, 8, 3);
        let outer = outer_levels(&[1024, 4096]);
        let result = hierarchy_sweep(&MatMul, &cfg, &outer).unwrap();
        assert!(!result.runs.is_empty());
        for run in &result.runs {
            assert_eq!(run.execution.cost.level_count(), 3, "m = {}", run.m);
            assert!(
                run.execution.cost.traffic().is_monotone_non_increasing(),
                "m = {}: {}",
                run.m,
                run.execution.cost.traffic()
            );
        }
    }

    #[test]
    fn hierarchy_sweep_port_traffic_matches_flat_sweep() {
        // The outer levels only observe; the PE-port measurement (and thus
        // every DataPoint) is identical to the flat sweep.
        let cfg = SweepConfig::pow2(24, 5, 8, 3);
        let flat = intensity_sweep(&MatMul, &cfg).unwrap();
        let hier = hierarchy_sweep(&MatMul, &cfg, &outer_levels(&[4096])).unwrap();
        assert_eq!(flat.points.len(), hier.points.len());
        for (f, h) in flat.points.iter().zip(&hier.points) {
            assert_eq!(f.memory.to_bits(), h.memory.to_bits());
            assert_eq!(f.ratio.to_bits(), h.ratio.to_bits());
        }
    }

    #[test]
    fn hierarchy_sweep_par_is_bit_identical_to_serial() {
        let cfg = SweepConfig::pow2(24, 5, 9, 5);
        let outer = outer_levels(&[2048]);
        let serial = hierarchy_sweep(&MatMul, &cfg, &outer).unwrap();
        let par = hierarchy_sweep_par(&MatMul, &cfg, &outer).unwrap();
        assert_eq!(serial.runs, par.runs);
    }

    #[test]
    fn hierarchy_sweep_skips_memories_at_or_above_first_outer_capacity() {
        let cfg = SweepConfig {
            n: 16,
            memories: vec![16, 64, 128, 256],
            seed: 0,
            verify: Verify::Full,
            engine: Engine::Replay,
            ..SweepConfig::default()
        };
        let result = hierarchy_sweep(&MatMul, &cfg, &outer_levels(&[128])).unwrap();
        let ms: Vec<usize> = result.runs.iter().map(|r| r.m).collect();
        assert_eq!(ms, vec![16, 64]);
    }

    #[test]
    fn capacity_sweep_engines_are_bit_identical() {
        let cfg = SweepConfig {
            n: 12,
            memories: vec![4, 16, 64, 256, 1024, 4096],
            seed: 0,
            verify: Verify::Full,
            engine: Engine::Replay,
            ..SweepConfig::default()
        };
        let replay = capacity_sweep(&MatMul, &cfg).unwrap();
        let onepass =
            capacity_sweep(&MatMul, &cfg.clone().with_engine(Engine::StackDist)).unwrap();
        assert_eq!(replay.runs, onepass.runs);
        assert_eq!(replay.points.len(), 6);
        for (r, o) in replay.points.iter().zip(&onepass.points) {
            assert_eq!(r.memory.to_bits(), o.memory.to_bits());
            assert_eq!(r.ratio.to_bits(), o.ratio.to_bits());
        }
        // The parallel executor matches both.
        let par = capacity_sweep_par(&MatMul, &cfg).unwrap();
        assert_eq!(replay.runs, par.runs);
        // The segmented parallel engine is bit-identical too, at any
        // thread count (including auto and absurd oversubscription).
        for threads in [0usize, 1, 3, 7, 64] {
            let seg = capacity_sweep(
                &MatMul,
                &cfg.clone().with_engine(Engine::StackDistPar { threads }),
            )
            .unwrap();
            assert_eq!(replay.runs, seg.runs, "threads = {threads}");
        }
        // Sampling at shift 0 keeps every address: exact degenerate.
        let sampled =
            capacity_sweep(&MatMul, &cfg.clone().with_engine(Engine::Sampled { shift: 0 }))
                .unwrap();
        assert_eq!(replay.runs, sampled.runs);
    }

    #[test]
    fn sampled_engine_tracks_the_exact_curve() {
        let cfg = SweepConfig {
            n: 16,
            memories: vec![16, 64, 256, 1024],
            seed: 0,
            verify: Verify::Full,
            engine: Engine::StackDist,
            ..SweepConfig::default()
        };
        let exact = capacity_sweep(&MatMul, &cfg).unwrap();
        let sampled =
            capacity_sweep(&MatMul, &cfg.clone().with_engine(Engine::Sampled { shift: 2 }))
                .unwrap();
        assert_eq!(exact.runs.len(), sampled.runs.len());
        let total = 3u64 * 16 * 16 * 16;
        for (e, s) in exact.runs.iter().zip(&sampled.runs) {
            // Miss-ratio error at rate 1/4 on the dense matmul trace
            // stays small (empirical bound with wide slack).
            let diff = e.execution.cost.io_words().abs_diff(s.execution.cost.io_words());
            assert!(
                (diff as f64) / (total as f64) < 0.2,
                "m = {}: exact {} vs sampled {}",
                e.m,
                e.execution.cost.io_words(),
                s.execution.cost.io_words()
            );
        }
    }

    #[test]
    fn engine_auto_for_escalates_on_trace_length() {
        assert_eq!(Engine::auto_for(8, 1 << 20), Engine::StackDist);
        assert_eq!(
            Engine::auto_for(8, AUTO_SEGMENT_LEN),
            Engine::StackDistPar { threads: 0 }
        );
        // Few points: replay stays cheapest regardless of length.
        assert_eq!(Engine::auto_for(2, 1 << 40), Engine::Replay);
    }

    #[test]
    fn engine_auto_for_kernel_grows_the_analytic_tier() {
        // Kernels with a derived histogram get it at any point count —
        // exact and free beats everything.
        assert_eq!(Engine::auto_for_kernel(16, &MatMul, 8), Engine::Analytic);
        assert_eq!(Engine::auto_for_kernel(2, &MatMul, 8), Engine::Analytic);
        // Without one (fft), selection falls back to the trace-length
        // escalation...
        assert_eq!(
            Engine::auto_for_kernel(16, &crate::fft::Fft, 8),
            Engine::StackDist
        );
        // ...and to the point-count rule when there is no trace either.
        assert_eq!(
            Engine::auto_for_kernel(16, &crate::fft::Fft, 9),
            Engine::StackDist
        );
        assert_eq!(
            Engine::auto_for_kernel(2, &crate::fft::Fft, 9),
            Engine::Replay
        );
    }

    #[test]
    fn analytic_engine_sweep_is_bit_identical_and_errors_without_derivation() {
        let cfg = SweepConfig {
            n: 12,
            memories: vec![2, 8, 32, 128, 512],
            seed: 0,
            verify: Verify::None,
            engine: Engine::Analytic,
            ..SweepConfig::default()
        };
        let analytic = capacity_sweep(&MatMul, &cfg).unwrap();
        let onepass =
            capacity_sweep(&MatMul, &cfg.clone().with_engine(Engine::StackDist)).unwrap();
        assert_eq!(analytic.runs, onepass.runs);
        // A kernel without a derivation is the documented parameter error,
        // naming the kernel — never a silent fallback.
        let err = capacity_sweep(&crate::fft::Fft, &cfg).unwrap_err();
        match err {
            KernelError::BadParameters { reason } => {
                assert!(reason.contains("fft"), "got: {reason}");
                assert!(reason.contains("no analytic profile"), "got: {reason}");
            }
            other => panic!("expected BadParameters, got {other}"),
        }
    }

    #[test]
    fn traffic_model_defaults_and_predicates() {
        assert_eq!(TrafficModel::default(), TrafficModel::WORD);
        assert!(TrafficModel::WORD.is_word_granular_read_priced());
        assert!(!TrafficModel::device(1).is_word_granular_read_priced());
        assert!(!TrafficModel::device(8).is_word_granular_read_priced());
        let line_only = TrafficModel {
            line_words: 4,
            writebacks: false,
        };
        assert!(!line_only.is_word_granular_read_priced());
        // Default configs carry the word model: every pre-device sweep is
        // untouched by construction.
        assert_eq!(SweepConfig::default().traffic, TrafficModel::WORD);
    }

    #[test]
    fn device_engines_are_bit_identical() {
        let cfg = SweepConfig {
            n: 12,
            memories: vec![4, 16, 64, 256, 1024, 4096],
            seed: 0,
            verify: Verify::None,
            engine: Engine::Replay,
            ..SweepConfig::default()
        }
        .with_traffic(TrafficModel::device(2));
        let replay = capacity_sweep(&MatMul, &cfg).unwrap();
        let onepass =
            capacity_sweep(&MatMul, &cfg.clone().with_engine(Engine::StackDist)).unwrap();
        assert_eq!(replay.runs, onepass.runs);
        let par = capacity_sweep_par(&MatMul, &cfg).unwrap();
        assert_eq!(replay.runs, par.runs);
        // A device run carries the dual ledger: the scalar view is the
        // sum of the streams, and matmul's C stores make the ledger
        // genuinely non-empty.
        for run in &replay.runs {
            let cost = &run.execution.cost;
            assert_eq!(
                cost.io_at(0).unwrap(),
                cost.read_at(0).unwrap() + cost.writeback_at(0).unwrap()
            );
            assert!(cost.writeback_at(0).unwrap() > 0, "m = {}", run.m);
        }
    }

    #[test]
    fn device_line1_read_stream_matches_the_word_granular_sweep() {
        // Write-allocate at line_words = 1: every miss fetches exactly
        // the word the legacy model charged, so the device read stream IS
        // the word-granular sweep's traffic bit for bit — write-backs
        // ride on top as the separate stream.
        let word_cfg = SweepConfig {
            n: 12,
            memories: vec![4, 16, 64, 256, 1024],
            verify: Verify::None,
            ..SweepConfig::default()
        };
        let device_cfg = word_cfg.clone().with_traffic(TrafficModel::device(1));
        let word = capacity_sweep(&MatMul, &word_cfg).unwrap();
        let device = capacity_sweep(&MatMul, &device_cfg).unwrap();
        assert_eq!(word.runs.len(), device.runs.len());
        for (w, d) in word.runs.iter().zip(&device.runs) {
            assert_eq!(w.execution.cost.io_at(0), d.execution.cost.read_at(0));
        }
    }

    #[test]
    fn line_only_models_price_reads_without_a_ledger() {
        // line_words > 1 with write-backs off: line-granular all-read
        // pricing — whole lines move, no store ever dirties one.
        let cfg = SweepConfig {
            n: 12,
            memories: vec![16, 64, 256],
            verify: Verify::None,
            ..SweepConfig::default()
        }
        .with_traffic(TrafficModel {
            line_words: 4,
            writebacks: false,
        });
        let onepass = capacity_sweep(&MatMul, &cfg).unwrap();
        let replay = capacity_sweep(&MatMul, &cfg.clone().with_engine(Engine::Replay)).unwrap();
        assert_eq!(onepass.runs, replay.runs);
        for run in &onepass.runs {
            assert_eq!(run.execution.cost.writeback_at(0), Some(0));
            assert_eq!(
                run.execution.cost.io_at(0).unwrap() % 4,
                0,
                "line-granular traffic moves whole lines"
            );
        }
    }

    #[test]
    fn analytic_engine_declines_device_real_models() {
        // MatMul derives an analytic profile, but the closed forms are
        // word-granular read-priced: under a device model the tier
        // declines and the one-pass tagged engine answers — identical to
        // asking for stackdist directly.
        let cfg = SweepConfig {
            n: 12,
            memories: vec![4, 16, 64, 256],
            verify: Verify::None,
            engine: Engine::Analytic,
            ..SweepConfig::default()
        }
        .with_traffic(TrafficModel::device(4));
        let fell_back = capacity_sweep(&MatMul, &cfg).unwrap();
        let onepass =
            capacity_sweep(&MatMul, &cfg.clone().with_engine(Engine::StackDist)).unwrap();
        assert_eq!(fell_back.runs, onepass.runs);
        // Auto-selection never steers a device sweep into the tiers that
        // would refuse (or misprice) it.
        let device = TrafficModel::device(4);
        assert_eq!(
            Engine::auto_for_model(16, &MatMul, 12, device),
            Engine::StackDist
        );
        assert_eq!(
            Engine::auto_for_model(2, &MatMul, 12, device),
            Engine::Replay
        );
        // Under the word model it is exactly auto_for_kernel.
        assert_eq!(
            Engine::auto_for_model(16, &MatMul, 12, TrafficModel::WORD),
            Engine::Analytic
        );
    }

    #[test]
    fn segmented_and_sampled_engines_refuse_device_real_models() {
        for engine in [
            Engine::StackDistPar { threads: 2 },
            Engine::Sampled { shift: 2 },
        ] {
            let cfg = SweepConfig {
                n: 12,
                memories: vec![16, 64],
                verify: Verify::None,
                engine,
                ..SweepConfig::default()
            }
            .with_traffic(TrafficModel::device(2));
            let err = capacity_sweep(&MatMul, &cfg).unwrap_err();
            match err {
                KernelError::BadParameters { reason } => {
                    assert!(reason.contains("word-granular"), "got: {reason}");
                    assert!(reason.contains(&engine_spec(engine)), "got: {reason}");
                }
                other => panic!("expected BadParameters, got {other}"),
            }
        }
    }

    #[test]
    fn budgeted_and_malformed_device_sweeps_are_refused() {
        let base = SweepConfig {
            n: 12,
            memories: vec![16, 64],
            verify: Verify::None,
            ..SweepConfig::default()
        };
        let budgeted = base
            .clone()
            .with_traffic(TrafficModel::device(2))
            .with_budget(Budget::unlimited());
        assert!(matches!(
            capacity_sweep(&MatMul, &budgeted),
            Err(KernelError::BadParameters { .. })
        ));
        for bad_line in [0u64, 3, 12] {
            let cfg = base.clone().with_traffic(TrafficModel::device(bad_line));
            let err = capacity_sweep(&MatMul, &cfg).unwrap_err();
            assert!(
                matches!(&err, KernelError::BadParameters { reason }
                    if reason.contains("power of two")),
                "{err}"
            );
        }
    }

    #[test]
    fn device_sweeps_skip_capacities_below_one_line() {
        let cfg = SweepConfig {
            n: 8,
            memories: vec![1, 2, 4, 8, 64],
            verify: Verify::None,
            ..SweepConfig::default()
        }
        .with_traffic(TrafficModel::device(4));
        let result = capacity_sweep(&MatMul, &cfg).unwrap();
        let ms: Vec<usize> = result.runs.iter().map(|r| r.m).collect();
        assert_eq!(ms, vec![4, 8, 64], "a cache must hold at least one line");
    }

    #[test]
    fn uniform_line_hierarchy_device_engines_agree() {
        // An unannotated outer level inherits the sweep's line size, so
        // the ladder is uniform and the one-pass read is sound.
        let outer = vec![LevelSpec::new(Words::new(2048), WordsPerSec::new(1.0)).unwrap()];
        let cfg = SweepConfig {
            n: 12,
            memories: vec![16, 64, 256],
            verify: Verify::None,
            engine: Engine::Replay,
            ..SweepConfig::default()
        }
        .with_traffic(TrafficModel::device(4));
        let replay = hierarchy_capacity_sweep(&MatMul, &cfg, &outer).unwrap();
        let onepass =
            hierarchy_capacity_sweep(&MatMul, &cfg.clone().with_engine(Engine::StackDist), &outer)
                .unwrap();
        assert_eq!(replay.runs, onepass.runs);
        let par = hierarchy_capacity_sweep_par(&MatMul, &cfg, &outer).unwrap();
        assert_eq!(replay.runs, par.runs);
    }

    #[test]
    fn mixed_line_ladders_need_the_replay_engine() {
        // An outer disk-class level with its own 8-word line under a
        // 2-word local line: no cross-granularity LRU inclusion, so the
        // one-pass read is unsound and refused; the replay engine models
        // each level at its own granularity.
        let outer = vec![LevelSpec::new(Words::new(4096), WordsPerSec::new(0.5))
            .unwrap()
            .with_line_words(8)
            .unwrap()];
        let cfg = SweepConfig {
            n: 12,
            memories: vec![16, 64, 256],
            verify: Verify::None,
            engine: Engine::StackDist,
            ..SweepConfig::default()
        }
        .with_traffic(TrafficModel::device(2));
        let err = hierarchy_capacity_sweep(&MatMul, &cfg, &outer).unwrap_err();
        assert!(
            matches!(&err, KernelError::BadParameters { reason }
                if reason.contains("uniform line size")),
            "{err}"
        );
        let replayed =
            hierarchy_capacity_sweep(&MatMul, &cfg.clone().with_engine(Engine::Replay), &outer)
                .unwrap();
        assert_eq!(replayed.runs.len(), 3);
        for run in &replayed.runs {
            let cost = &run.execution.cost;
            assert_eq!(cost.level_count(), 2);
            assert!(cost.io_at(1).unwrap() <= cost.io_at(0).unwrap());
        }
    }

    #[test]
    fn annotated_outer_levels_route_word_sweeps_to_the_device_path() {
        // A word-granular (default) sweep over a line-annotated outer
        // ladder must not silently ignore the annotation: it routes
        // through the device path, where the level's own line size is
        // honored.
        let plain = vec![LevelSpec::new(Words::new(4096), WordsPerSec::new(1.0)).unwrap()];
        let lined = vec![plain[0].with_line_words(8).unwrap()];
        let cfg = SweepConfig {
            n: 12,
            memories: vec![16, 64, 256],
            verify: Verify::None,
            engine: Engine::Replay,
            ..SweepConfig::default()
        };
        let word = hierarchy_capacity_sweep(&MatMul, &cfg, &plain).unwrap();
        let device = hierarchy_capacity_sweep(&MatMul, &cfg, &lined).unwrap();
        assert_eq!(word.runs.len(), device.runs.len());
        for (w, d) in word.runs.iter().zip(&device.runs) {
            // The outer boundary now transfers whole 8-word lines...
            let outer_io = d.execution.cost.io_at(1).unwrap();
            assert_eq!(outer_io % 8, 0, "line-granular outer traffic");
            // ...while the unannotated local boundary stays word-granular
            // and bit-identical to the legacy path.
            assert_eq!(d.execution.cost.io_at(0), w.execution.cost.io_at(0));
        }
        // The one-pass engine refuses the mixed-granularity ladder (word
        // local under an 8-word outer line) instead of mispricing it.
        let err = hierarchy_capacity_sweep(
            &MatMul,
            &cfg.clone().with_engine(Engine::StackDist),
            &lined,
        )
        .unwrap_err();
        assert!(
            matches!(&err, KernelError::BadParameters { reason }
                if reason.contains("uniform line size")),
            "{err}"
        );
    }

    #[test]
    fn kernel_running_sweeps_refuse_device_real_outer_levels() {
        // The scheme executors count explicit word transfers; a
        // device-real annotation they cannot honor is an error, not a
        // silently word-priced run.
        let lined = vec![LevelSpec::new(Words::new(4096), WordsPerSec::new(1.0))
            .unwrap()
            .with_line_words(4)
            .unwrap()];
        let cfg = SweepConfig::pow2(12, 5, 8, 0).with_verify(Verify::None);
        for result in [
            hierarchy_sweep(&MatMul, &cfg, &lined),
            hierarchy_sweep_par(&MatMul, &cfg, &lined),
        ] {
            let err = result.unwrap_err();
            assert!(
                matches!(&err, KernelError::BadParameters { reason }
                    if reason.contains("device-real") && reason.contains("level 2")),
                "{err}"
            );
        }
        // A split write channel alone is just as device-real.
        let priced = vec![LevelSpec::new(Words::new(4096), WordsPerSec::new(1.0))
            .unwrap()
            .with_write_bandwidth(WordsPerSec::new(0.5))
            .unwrap()];
        assert!(hierarchy_sweep(&MatMul, &cfg, &priced).is_err());
    }

    #[test]
    fn analytic_engine_bypasses_the_degradation_ladder() {
        // Even a budget no replay engine could meet leaves the analytic
        // tier untouched: nothing to replay, nothing to degrade.
        let cfg = SweepConfig {
            n: 16,
            memories: vec![4, 16, 64, 256],
            seed: 0,
            verify: Verify::None,
            engine: Engine::Analytic,
            ..SweepConfig::default()
        }
        .with_budget(Budget {
            max_addresses: Some(1),
            max_resident_bytes: Some(1),
            max_wall: None,
        });
        let (profile, prov) =
            robust_capacity_profile(&MatMul, &cfg, &FaultPlan::none()).unwrap();
        assert_eq!(prov.requested, Engine::Analytic);
        assert_eq!(prov.used, Engine::Analytic);
        assert!(prov.steps.is_empty());
        assert!(profile.is_exact());
        assert_eq!(profile, exact_matmul_profile(16));
        // And the budgeted sweep path reports the same provenance.
        let swept = capacity_sweep(&MatMul, &cfg).unwrap();
        assert_eq!(swept.provenance.unwrap().used, Engine::Analytic);
    }

    #[test]
    fn analytic_engine_spec_round_trips() {
        assert_eq!(engine_spec(Engine::Analytic), "analytic");
    }

    #[test]
    fn capacity_sweep_measures_the_cache_model_not_the_scheme() {
        // At M = 3n² + slack the whole problem is resident: the cache
        // model's misses collapse to the compulsory 3n², far fewer than
        // the blocked scheme's traffic at small tile sides.
        let n = 12usize;
        let cfg = SweepConfig {
            n,
            memories: vec![3 * n * n + 8],
            seed: 0,
            verify: Verify::Full,
            engine: Engine::StackDist,
            ..SweepConfig::default()
        };
        let result = capacity_sweep(&MatMul, &cfg).unwrap();
        assert_eq!(result.runs[0].execution.cost.io_words(), 3 * (n as u64).pow(2));
        assert_eq!(result.runs[0].execution.cost.comp_ops(), 2 * (n as u64).pow(3));
    }

    #[test]
    fn capacity_sweep_skips_zero_capacities_and_respects_outer_ceiling() {
        let cfg = SweepConfig {
            n: 8,
            memories: vec![0, 4, 128, 512],
            seed: 0,
            verify: Verify::Full,
            engine: Engine::StackDist,
            ..SweepConfig::default()
        };
        let flat = capacity_sweep(&MatMul, &cfg).unwrap();
        assert_eq!(flat.runs.iter().map(|r| r.m).collect::<Vec<_>>(), vec![4, 128, 512]);
        let hier = hierarchy_capacity_sweep(&MatMul, &cfg, &outer_levels(&[256])).unwrap();
        assert_eq!(hier.runs.iter().map(|r| r.m).collect::<Vec<_>>(), vec![4, 128]);
        for run in &hier.runs {
            assert_eq!(run.execution.cost.level_count(), 2);
            assert!(run.execution.cost.traffic().is_monotone_non_increasing());
        }
    }

    #[test]
    fn hierarchy_capacity_sweep_engines_match_ladder_replay() {
        let cfg = SweepConfig {
            n: 10,
            memories: vec![8, 32, 96, 200],
            seed: 0,
            verify: Verify::Full,
            engine: Engine::Replay,
            ..SweepConfig::default()
        };
        let outer = outer_levels(&[256, 1024]);
        let replay = hierarchy_capacity_sweep(&MatMul, &cfg, &outer).unwrap();
        let onepass =
            hierarchy_capacity_sweep(&MatMul, &cfg.clone().with_engine(Engine::StackDist), &outer)
                .unwrap();
        assert_eq!(replay.runs, onepass.runs);
        let par = hierarchy_capacity_sweep_par(&MatMul, &cfg, &outer).unwrap();
        assert_eq!(replay.runs, par.runs);
    }

    #[test]
    fn capacity_sweep_without_a_trace_is_the_documented_error() {
        let cfg = SweepConfig {
            n: 8,
            memories: vec![16],
            seed: 0,
            verify: Verify::Full,
            engine: Engine::StackDist,
            ..SweepConfig::default()
        };
        let err = capacity_sweep(&AlwaysFails, &cfg).unwrap_err();
        assert!(
            matches!(&err, KernelError::BadParameters { reason }
                if reason.contains("no canonical access trace")),
            "{err}"
        );
    }

    #[test]
    fn engine_auto_switches_at_four_points() {
        assert_eq!(Engine::auto(0), Engine::Replay);
        assert_eq!(Engine::auto(3), Engine::Replay);
        assert_eq!(Engine::auto(4), Engine::StackDist);
        assert_eq!(Engine::auto(16), Engine::StackDist);
        // pow2 wires it through.
        assert_eq!(SweepConfig::pow2(8, 5, 6, 0).engine, Engine::Replay);
        assert_eq!(SweepConfig::pow2(8, 5, 12, 0).engine, Engine::StackDist);
    }

    fn tmp_policy(tag: &str, every: u64) -> CheckpointPolicy {
        let dir = std::env::temp_dir().join(format!(
            "balance-sweep-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointPolicy::every(dir, every)
    }

    fn exact_matmul_profile(n: usize) -> CapacityProfile {
        let trace = MatMul.access_trace(n).unwrap();
        let bound = trace.addr_bound();
        StackDistance::profile_of_bounded(trace.into_addrs(), bound)
    }

    #[test]
    fn budgeted_sweep_within_budget_is_bit_identical_and_tagged() {
        let cfg = SweepConfig {
            n: 12,
            memories: vec![16, 64, 256, 1024],
            engine: Engine::StackDist,
            ..SweepConfig::default()
        };
        let plain = capacity_sweep(&MatMul, &cfg).unwrap();
        assert!(plain.provenance.is_none());
        let roomy = Budget::unlimited().with_max_resident_bytes(1 << 30);
        let budgeted = capacity_sweep(&MatMul, &cfg.clone().with_budget(roomy)).unwrap();
        assert_eq!(plain.runs, budgeted.runs);
        let prov = budgeted.provenance.unwrap();
        assert!(!prov.degraded());
        assert_eq!(prov.used, Engine::StackDist);
        assert!(prov.describe().contains("as requested"));
    }

    #[test]
    fn tripped_resident_budget_degrades_to_sampling_and_reports_it() {
        // matmul n = 12 tracks 3·12² = 432 addresses ≈ 13.8 kB of exact
        // engine state: a 1 kB budget forces the sampled rung, whose
        // hash-backend estimate (432/16 addresses) fits.
        let budget = Budget::unlimited().with_max_resident_bytes(1024);
        let cfg = SweepConfig {
            n: 12,
            memories: vec![16, 256],
            engine: Engine::StackDistPar { threads: 4 },
            ..SweepConfig::default()
        }
        .with_budget(budget);
        let result = capacity_sweep(&MatMul, &cfg).unwrap();
        let prov = result.provenance.clone().unwrap();
        assert!(prov.degraded());
        assert!(matches!(prov.used, Engine::Sampled { .. }), "{prov:?}");
        // The whole ladder walk is on record: par → serial → sampled.
        assert!(prov.steps.len() >= 2, "{prov:?}");
        assert!(matches!(prov.steps[0].trip, BudgetTrip::Resident { .. }));
        assert!(prov.describe().starts_with("degraded"));
    }

    #[test]
    fn tripped_address_budget_escalates_the_sampling_rate() {
        let len = MatMul.access_trace(12).unwrap().len();
        // Allow only len/64 engine addresses: sampled:4 (len/16) still
        // trips, sampled:8 (len/256) clears it.
        let budget = Budget::unlimited().with_max_addresses(len >> 6);
        let cfg = SweepConfig {
            n: 12,
            memories: vec![64],
            engine: Engine::StackDist,
            ..SweepConfig::default()
        }
        .with_budget(budget);
        let result = capacity_sweep(&MatMul, &cfg).unwrap();
        let prov = result.provenance.unwrap();
        assert_eq!(prov.used, Engine::Sampled { shift: 8 }, "{prov:?}");
        assert!(prov
            .steps
            .iter()
            .all(|s| matches!(s.trip, BudgetTrip::Addresses { .. })));
    }

    #[test]
    fn impossible_resident_budget_is_the_typed_error() {
        let cfg = SweepConfig {
            n: 12,
            memories: vec![64],
            engine: Engine::StackDist,
            ..SweepConfig::default()
        }
        .with_budget(Budget::unlimited().with_max_resident_bytes(8));
        let err = capacity_sweep(&MatMul, &cfg).unwrap_err();
        assert!(matches!(err, KernelError::BudgetExhausted { .. }), "{err}");
    }

    #[test]
    fn zero_wall_budget_degrades_to_the_sampling_floor_but_still_answers() {
        // A deadline that has already passed trips at the first poll of
        // every deadline-armed rung; only the floor rung (which runs
        // without one) can finish. The trace must exceed the poll
        // interval (2²⁰) for the deadline to be observed at all.
        let n = 90;
        assert!(MatMul.access_trace(n).unwrap().len() > SAMPLED_DEADLINE_POLL);
        let cfg = SweepConfig {
            n,
            memories: vec![1024],
            engine: Engine::StackDist,
            ..SweepConfig::default()
        }
        .with_budget(Budget::unlimited().with_max_wall(std::time::Duration::ZERO));
        let result = capacity_sweep(&MatMul, &cfg).unwrap();
        let prov = result.provenance.unwrap();
        assert_eq!(
            prov.used,
            Engine::Sampled {
                shift: MAX_SAMPLE_SHIFT
            },
            "{prov:?}"
        );
        assert!(prov
            .steps
            .iter()
            .all(|s| matches!(s.trip, BudgetTrip::Wall { .. })));
    }

    #[test]
    fn checkpointed_sweep_killed_mid_replay_resumes_bit_identically() {
        let n = 12;
        let len = MatMul.access_trace(n).unwrap().len();
        let policy = tmp_policy("resume", 1000);
        let cfg = SweepConfig {
            n,
            memories: vec![16, 256, 1024],
            engine: Engine::StackDist,
            checkpoint: Some(policy.clone()),
            ..SweepConfig::default()
        };
        // First attempt dies mid-replay, past a few checkpoints.
        let faults = FaultPlan::none().with_die_at(len / 2);
        let err = robust_capacity_profile(&MatMul, &cfg, &faults).unwrap_err();
        assert!(matches!(err, KernelError::Interrupted { .. }), "{err}");
        // The re-run resumes from the persisted image and finishes with
        // the exact uninterrupted profile.
        let none = FaultPlan::none();
        let (profile, prov) = robust_capacity_profile(&MatMul, &cfg, &none).unwrap();
        assert_eq!(profile, exact_matmul_profile(n));
        let resumed = prov.resumed_at.unwrap();
        assert!(resumed >= 1000 && resumed < len, "resumed at {resumed}");
        // The image was consumed: a fresh run starts from scratch.
        let (_, prov2) = robust_capacity_profile(&MatMul, &cfg, &none).unwrap();
        assert_eq!(prov2.resumed_at, None);
        let _ = std::fs::remove_dir_all(&policy.dir);
    }

    #[test]
    fn corrupted_checkpoint_in_a_sweep_falls_back_to_a_fresh_replay() {
        let n = 12;
        let len = MatMul.access_trace(n).unwrap().len();
        let policy = tmp_policy("corrupt", 1000);
        let cfg = SweepConfig {
            n,
            memories: vec![64],
            engine: Engine::StackDist,
            checkpoint: Some(policy.clone()),
            ..SweepConfig::default()
        };
        // Die mid-replay with every persisted snapshot corrupted.
        let faults = FaultPlan::none()
            .with_die_at(len / 2)
            .with_corrupt_checkpoints(u32::MAX);
        let _ = robust_capacity_profile(&MatMul, &cfg, &faults).unwrap_err();
        // The checksum rejects the image; the re-run starts fresh and is
        // still exact.
        let none = FaultPlan::none();
        let (profile, prov) = robust_capacity_profile(&MatMul, &cfg, &none).unwrap();
        assert_eq!(profile, exact_matmul_profile(n));
        assert_eq!(prov.resumed_at, None);
        let _ = std::fs::remove_dir_all(&policy.dir);
    }

    #[test]
    fn killed_segment_worker_inside_a_robust_sweep_is_retried() {
        let policy = tmp_policy("segkill", 500);
        let cfg = SweepConfig {
            n: 12,
            memories: vec![64],
            engine: Engine::StackDistPar { threads: 3 },
            checkpoint: Some(policy.clone()),
            ..SweepConfig::default()
        };
        let faults = FaultPlan::none().with_kill_segment(1, 1);
        let (profile, prov) = robust_capacity_profile(&MatMul, &cfg, &faults).unwrap();
        assert_eq!(profile, exact_matmul_profile(12));
        assert!(prov.segment_retries >= 1, "{prov:?}");
        assert!(prov.describe().contains("dead segment worker"));
        let _ = std::fs::remove_dir_all(&policy.dir);
    }

    #[test]
    fn degradation_ladder_walks_par_serial_sampled_to_the_floor() {
        let mut engine = Engine::StackDistPar { threads: 0 };
        let mut rungs = vec![engine];
        while let Some(next) = next_rung(engine) {
            engine = next;
            rungs.push(engine);
        }
        assert_eq!(rungs[1], Engine::StackDist);
        assert_eq!(rungs[2], Engine::Sampled { shift: 4 });
        assert_eq!(
            *rungs.last().unwrap(),
            Engine::Sampled {
                shift: MAX_SAMPLE_SHIFT
            }
        );
        // Estimates shrink (weakly) down the ladder — the invariant the
        // single-pass pre-check relies on.
        let (bound, len) = (1 << 20, 1 << 28);
        for pair in rungs.windows(2) {
            assert!(
                estimated_resident_bytes(pair[1], bound, len)
                    <= estimated_resident_bytes(pair[0], bound, len),
                "{pair:?}"
            );
            assert!(
                engine_address_cost(pair[1], len) <= engine_address_cost(pair[0], len),
                "{pair:?}"
            );
        }
        // Replay enters at the serial one-pass rung.
        assert_eq!(next_rung(Engine::Replay), Some(Engine::StackDist));
    }

    #[test]
    fn hierarchy_sweep_rejects_malformed_outer_ladders() {
        let cfg = SweepConfig {
            n: 16,
            memories: vec![16],
            seed: 0,
            verify: Verify::Full,
            engine: Engine::Replay,
            ..SweepConfig::default()
        };
        // Outer capacities must grow: 4096 then 1024 is rejected.
        let err = hierarchy_sweep(&MatMul, &cfg, &outer_levels(&[4096, 1024])).unwrap_err();
        assert!(matches!(err, KernelError::BadParameters { .. }), "{err}");
        // ... even when no sweep point survives the eligibility filter
        // (the ladder is validated up front, not per point).
        let empty_cfg = SweepConfig {
            n: 16,
            memories: vec![8192], // >= first outer capacity: filtered out
            seed: 0,
            verify: Verify::Full,
            engine: Engine::Replay,
            ..SweepConfig::default()
        };
        for result in [
            hierarchy_sweep(&MatMul, &empty_cfg, &outer_levels(&[4096, 1024])),
            hierarchy_sweep_par(&MatMul, &empty_cfg, &outer_levels(&[4096, 1024])),
        ] {
            assert!(matches!(result, Err(KernelError::BadParameters { .. })));
        }
    }
}
