//! Memory sweeps: measure `r(M)` curves.
//!
//! This is the measurement half of every experiment: run a kernel at a fixed
//! problem size across a range of memory sizes, collect the measured
//! `(M, C_comp/C_io)` points, and hand them to `balance-core`'s fitting and
//! curve-inversion machinery.
//!
//! There is one entry point, [`sweep`], and one [`SweepConfig`] that says
//! what it measures ([`SweepConfig::measure`]):
//!
//! * [`Measure::Execute`] runs the kernel's decomposition scheme at every
//!   memory size (the paper's §3 measurement). Verification cost is a knob
//!   ([`SweepConfig::verify`]): `Full` recomputes the `O(n³)` reference at
//!   every point, [`Verify::Freivalds`] downgrades all but the first
//!   eligible point (the *anchor*, which stays fully verified) to `O(n²)`
//!   randomized checks, and `Verify::None` is for timing studies only.
//! * [`Measure::CacheModel`] measures the kernel's canonical trace
//!   ([`Kernel::access_trace`]) through an automatically managed LRU of
//!   each capacity, on the engine [`SweepConfig::engine`] names. LRU is a
//!   stack algorithm, so the whole curve is a pure function of one
//!   reuse-distance histogram: [`Engine::StackDist`] replays the trace
//!   **once** and reads every `M` off it, where [`Engine::Replay`] replays
//!   once per memory size. The engines are bit-identical across the kernel
//!   registry (pinned by property test).
//!
//! [`SweepConfig::outer`] puts fixed outer levels under the swept local
//! memory; every run then carries one traffic entry per boundary.
//!
//! Per-point work (every `Execute` point and every `Replay` point) fans out
//! over [`par_map`]. Runs are independent (kernels take `&self` and own
//! their `Pe`/`ExternalStore`) and seeded per point, and points come back in
//! sweep order, so the result is bit-identical to a serial loop.
//!
//! [`Engine::resolve`] is the one place that knows what each engine tier
//! can do, and it resolves `auto`. [`sweep`] runs every requested engine
//! through it, and so do the `balance` CLI and the profile service.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use balance_core::fit::{fit_best, DataPoint, FitReport};
use balance_core::solver::MeasuredCurve;
use balance_core::{
    Access, BalanceError, Budget, BudgetTrip, CostProfile, Execution, HierarchySpec, LevelSpec,
    Words, WordsPerSec,
};
use balance_machine::{
    resumable_replay, segmented_profile_of, AnalyticProfile, CapacityProfile, CheckpointPolicy,
    FaultPlan, Hierarchy, LruCache, MemorySystem as _, ProfilePayload, ReplayControl,
    ReplayInterrupt, SampledStackDistance, StackDistance, TrafficProfile, MAX_SAMPLE_SHIFT,
};

use crate::error::KernelError;
use crate::trace::AccessTrace;
use crate::traits::{Kernel, KernelRun};
use crate::verify::Verify;

/// Which measurement engine a cache-model sweep runs on.
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
    /// ([`StackDistance`]), every capacity read off the histogram. A
    /// sweep caps the pass at its largest queried capacity `D` (memories
    /// and outer levels; in lines on the device path): by LRU inclusion
    /// every answer reads only the top `D` stack entries, so the engine
    /// ranks reuses among those alone and counts deeper ones as misses,
    /// in `O(|trace| · log min(U, D))` time and `O(bound + D)` memory
    /// ([`StackDistance::with_depth`]). A budgeted sweep caps the same
    /// way; a checkpointed one stays uncapped, because capped engines take
    /// no snapshot. Every other caller of the one-pass engine (the profile
    /// service, store builds, segmented and sampled tiers, the grid
    /// bootstrap) needs whole curves and stays uncapped.
    #[default]
    StackDist,
    /// Segmented parallel Mattson: the trace split into time ranges, one
    /// scoped thread each, merged exactly — bit-identical to
    /// [`Engine::StackDist`]. `threads = 0` means
    /// `std::thread::available_parallelism()`. It is not resumable: a
    /// budgeted or checkpointed request gets the serial engine in its
    /// place ([`Engine::resolve`]).
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
    /// support it ([`Engine::resolve`] refuses the rest).
    Analytic,
}

/// Trace length from which `auto` escalates from the serial one-pass
/// engine to the segmented parallel one (2²⁷ ≈ 134M addresses — roughly
/// a second of serial histogram work).
pub const AUTO_SEGMENT_LEN: u64 = 1 << 27;

impl Engine {
    /// Parses an engine's CLI spelling — the inverse of [`engine_spec`] —
    /// with `auto` as `None`, the request [`Engine::resolve`] chooses for.
    /// The scaled tiers take an optional `:`-suffixed parameter:
    /// `stackdist-par[:K]` runs on `K ≥ 1` threads (default: all cores)
    /// and `sampled[:S]` samples at rate `2^-S` (default `S = 4`).
    ///
    /// # Errors
    ///
    /// One-line diagnostics for unknown names and malformed parameters.
    pub fn parse(spec: &str) -> Result<Option<Engine>, String> {
        let param = |what: &str| -> Result<Option<u64>, String> {
            match spec.split_once(':') {
                None => Ok(None),
                Some((_, raw)) => raw
                    .parse::<u64>()
                    .map(Some)
                    .map_err(|_| format!("bad {what} '{raw}' in engine '{spec}'")),
            }
        };
        Ok(Some(match spec {
            "auto" => return Ok(None),
            "replay" => Engine::Replay,
            "stackdist" => Engine::StackDist,
            "analytic" => Engine::Analytic,
            _ if spec == "stackdist-par" || spec.starts_with("stackdist-par:") => {
                let threads = param("thread count")?;
                if threads == Some(0) {
                    return Err(format!(
                        "engine '{spec}': a segmented sweep needs at least one thread \
                         (omit the suffix to use all cores)"
                    ));
                }
                let threads = usize::try_from(threads.unwrap_or(0))
                    .map_err(|_| format!("thread count overflows usize in '{spec}'"))?;
                Engine::StackDistPar { threads }
            }
            _ if spec == "sampled" || spec.starts_with("sampled:") => {
                let shift = u32::try_from(param("sampling shift")?.unwrap_or(4))
                    .ok()
                    .filter(|&s| s <= MAX_SAMPLE_SHIFT)
                    .ok_or_else(|| {
                        format!("sampling shift in '{spec}' exceeds {MAX_SAMPLE_SHIFT}")
                    })?;
                Engine::Sampled { shift }
            }
            _ => {
                return Err(format!(
                    "unknown engine '{spec}' \
                     (try: replay, stackdist, stackdist-par[:K], sampled[:S], analytic, auto)"
                ))
            }
        }))
    }

    /// The engine a cache-model sweep of `cfg` runs when `requested` is
    /// asked for (`None` = `auto`). This is the only code that knows what
    /// each tier can do:
    ///
    /// * The analytic, segmented and sampled tiers, budgets and
    ///   checkpoints are word-granular machinery. Under a device-real
    ///   traffic model the analytic tier declines to the one-pass tagged
    ///   engine (exact, just not free); the others are refused.
    /// * The one-pass tagged read needs one line size across the ladder
    ///   (LRU inclusion holds level to level only when every level tracks
    ///   the same lines), so a mixed-line ladder needs `Replay`.
    /// * `Replay` answers per capacity and holds no profile. A budgeted or
    ///   checkpointed request, or a whole-curve one (a config with no
    ///   memories, as the profile service and [`robust_capacity_profile`]
    ///   make), gets the bit-identical one-pass engine in its place.
    /// * The serial one-pass engine is the one resumable exact engine (its
    ///   replay checkpoints, polls the deadline and takes injected
    ///   faults), so a budgeted or checkpointed `StackDistPar` request
    ///   gets the bit-identical `StackDist` in its place too.
    /// * `Analytic` needs a closed form for the kernel at `cfg.n`.
    ///
    /// `auto` picks the analytic tier wherever it applies. Otherwise it
    /// picks the one-pass engine once it amortizes — at ≥ 4 capacities,
    /// counted as eligible memories × (1 + `cfg.outer.len()`), or for the
    /// whole curve — escalating to [`Engine::StackDistPar`] for unbudgeted,
    /// uncheckpointed word-model traces of at least [`AUTO_SEGMENT_LEN`]
    /// addresses; below that it picks `Replay`. Sampling is never chosen:
    /// trading exactness is the caller's call.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadParameters`] naming the request no tier can serve.
    pub fn resolve(
        requested: Option<Engine>,
        kernel: &dyn Kernel,
        cfg: &SweepConfig,
    ) -> Result<Engine, KernelError> {
        let refuse = |reason: String| Err(KernelError::BadParameters { reason });
        let robust = is_robust(cfg);
        let capacities = eligible(kernel, cfg).len() * (1 + cfg.outer.len());
        let per_point = capacities > 0 && !robust;
        let amortized = capacities >= 4 || !per_point;
        let model = cfg.traffic;
        if needs_device_path(cfg) {
            if robust {
                return refuse(format!(
                    "budgets and checkpoints are word-granular machinery (the resumable \
                     replay drivers stream untagged addresses); the device-real traffic \
                     model (line_words = {}, writebacks = {}) runs unbudgeted",
                    model.line_words, model.writebacks
                ));
            }
            let mixed = cfg
                .outer
                .iter()
                .map(|level| effective_line(model, level))
                .find(|&line| line != model.line_words);
            return match (requested, mixed) {
                (Some(engine @ (Engine::StackDistPar { .. } | Engine::Sampled { .. })), _) => {
                    refuse(format!(
                        "engine {} is word-granular read-priced machinery; the device-real \
                         traffic model (line_words = {}, writebacks = {}) needs `replay` or \
                         `stackdist`",
                        engine_spec(engine),
                        model.line_words,
                        model.writebacks
                    ))
                }
                (Some(Engine::Replay), _) if per_point => Ok(Engine::Replay),
                (None, Some(_)) if per_point => Ok(Engine::Replay),
                (None, None) if !amortized => Ok(Engine::Replay),
                (_, None) => Ok(Engine::StackDist),
                (_, Some(line)) => refuse(format!(
                    "the one-pass tagged engine needs a uniform line size across the \
                     ladder (sweep model {} words, outer level {line} words); use engine \
                     `replay` for mixed-line ladders",
                    model.line_words
                )),
            };
        }
        match requested {
            Some(Engine::Analytic) if kernel.analytic_profile(cfg.n).is_none() => {
                Err(no_analytic(kernel, cfg.n))
            }
            Some(Engine::Replay) if !per_point => Ok(Engine::StackDist),
            Some(Engine::StackDistPar { .. }) if robust => Ok(Engine::StackDist),
            Some(engine) => Ok(engine),
            None if kernel.analytic_profile(cfg.n).is_some() => Ok(Engine::Analytic),
            None if !amortized => Ok(Engine::Replay),
            None => Ok(match kernel.access_trace(cfg.n) {
                Some(trace) if !robust && trace.len() >= AUTO_SEGMENT_LEN => {
                    Engine::StackDistPar { threads: 0 }
                }
                _ => Engine::StackDist,
            }),
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

/// What a sweep measures at each memory size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Measure {
    /// Run the kernel's decomposition scheme on a machine with that much
    /// local memory, verified under [`SweepConfig::verify`].
    #[default]
    Execute,
    /// Replay the kernel's canonical trace through an LRU of that
    /// capacity, on [`SweepConfig::engine`] under
    /// [`SweepConfig::traffic`].
    CacheModel,
}

/// Parameters of one memory sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Problem size passed to every run.
    pub n: usize,
    /// Memory sizes to measure, in words.
    pub memories: Vec<usize>,
    /// Fixed levels below the swept local memory, innermost first (empty
    /// for a flat sweep). Memory sizes at or above the first outer
    /// capacity are skipped, so level 0 stays the smallest level.
    pub outer: Vec<LevelSpec>,
    /// What each point measures.
    pub measure: Measure,
    /// Workload seed (same inputs at every memory size).
    pub seed: u64,
    /// Verification policy per point (the first eligible point is always
    /// fully verified when this is [`Verify::Freivalds`]).
    pub verify: Verify,
    /// Measurement engine of a [`Measure::CacheModel`] sweep, run through
    /// [`Engine::resolve`]; [`Measure::Execute`] ignores it (a
    /// decomposition scheme is not a trace any engine could replay).
    pub engine: Engine,
    /// Optional resource budget for a cache-model sweep. When any limit
    /// trips, the measurement **degrades** along the engine ladder (see
    /// [`robust_capacity_profile`]) instead of aborting, and the
    /// substitution is reported in [`SweepResult::provenance`]. `None`
    /// runs unbounded.
    pub budget: Option<Budget>,
    /// Optional checkpoint policy for a cache-model sweep: the replay
    /// persists resumable engine snapshots every
    /// [`CheckpointPolicy::every`] addresses, so a killed sweep re-run
    /// with the same config resumes instead of restarting (see
    /// [`balance_machine::checkpoint`]).
    pub checkpoint: Option<CheckpointPolicy>,
    /// The traffic model a cache-model sweep prices
    /// ([`TrafficModel::WORD`] by default — bit-identical to every
    /// pre-device sweep). [`Measure::Execute`] ignores it: a
    /// decomposition scheme moves its words explicitly, so there is no
    /// cache state for a line size or dirty bit to live in.
    pub traffic: TrafficModel,
}

impl Default for SweepConfig {
    /// An empty sweep skeleton for struct-update syntax
    /// (`SweepConfig { n, memories, ..Default::default() }`): no points,
    /// no outer levels, the executed measure, seed 0, full verification,
    /// default engine, no budget, no checkpoints.
    fn default() -> Self {
        SweepConfig {
            n: 0,
            memories: Vec::new(),
            outer: Vec::new(),
            measure: Measure::default(),
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
    /// A flat sweep over powers of two `2^lo ..= 2^hi`, fully verified.
    #[must_use]
    pub fn pow2(n: usize, lo: u32, hi: u32, seed: u64) -> Self {
        SweepConfig {
            n,
            memories: (lo..=hi).map(|k| 1usize << k).collect(),
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

    /// The same sweep under a different traffic model (line granularity
    /// and write-back pricing for a cache-model sweep).
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
    /// otherwise.
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

/// Measures `kernel` at every eligible memory size of `cfg`, per
/// [`SweepConfig::measure`]:
///
/// * [`Measure::Execute`] runs the decomposition scheme at every memory
///   size at or above the kernel's minimum, verified under the sweep's
///   policy. With outer levels each run carries one traffic entry per
///   level (`io_at`, `intensity_at`); the `DataPoint`s keep the PE-port
///   intensity. A device-real outer level (own line size or write
///   channel) is refused: the scheme counts explicit word transfers and
///   would misprice it.
/// * [`Measure::CacheModel`] replays the canonical trace through an LRU
///   of every capacity of at least one line, **all levels
///   cache-managed**: LRU inclusion makes every boundary's traffic the
///   misses at that level's capacity, so the profile engines read the
///   whole ladder off one histogram. `cfg.verify` is ignored (a trace
///   replay has no numerics to verify). The engine runs through
///   [`Engine::resolve`].
///
/// # Errors
///
/// The first kernel failure in sweep order (including verification
/// failures — a sweep with wrong numerics must not produce data);
/// [`KernelError::BadParameters`] for a malformed outer ladder or line
/// size, an engine [`Engine::resolve`] refuses, or a cache-model sweep
/// of a kernel without a canonical trace at `cfg.n`.
pub fn sweep(kernel: &dyn Kernel, cfg: &SweepConfig) -> Result<SweepResult, KernelError> {
    validate_outer(&cfg.outer)?;
    if cfg.measure == Measure::Execute {
        reject_device_outer(&cfg.outer)?;
        let results = par_map(&eligible(kernel, cfg), |i, &m| {
            let machine = machine_for(m, &cfg.outer, None)?;
            kernel.run_on(cfg.n, &machine, cfg.seed, point_verify(cfg.verify, i))
        });
        return collect_sweep(kernel, results, None);
    }
    cfg.traffic.validate()?;
    let engine = Engine::resolve(Some(cfg.engine), kernel, cfg)?;
    let memories = eligible(kernel, cfg);
    if engine == Engine::Replay {
        let results = par_map(&memories, |_, &m| point_replay(kernel, cfg, m));
        return collect_sweep(kernel, results, None);
    }
    let trace = trace_for(kernel, cfg.n)?;
    let comp = trace.comp_ops();
    let capacities =
        |m: usize| std::iter::once(m as u64).chain(cfg.outer.iter().map(|l| l.capacity().get()));
    // LRU inclusion: every answer reads only the top of the recency stack,
    // through the largest capacity the sweep queries.
    let depth = memories.iter().flat_map(|&m| capacities(m)).max().unwrap_or(1);
    let (payload, provenance) = if needs_device_path(cfg) {
        let lines = (depth / cfg.traffic.line_words).max(1);
        let tp = tagged_profile(trace, cfg.traffic, lines);
        (ProfilePayload::Traffic(tp), None)
    } else {
        drop(trace);
        let (profile, prov) = profile_ladder(kernel, cfg, engine, depth, &FaultPlan::none())?;
        let provenance = is_robust(cfg).then_some(prov);
        (ProfilePayload::Capacity(profile), provenance)
    };
    let results = memories.iter().map(|&m| {
        let caps: Vec<Words> = capacities(m).map(Words::new).collect();
        let cost = CostProfile::with_traffic(comp, payload.traffic_at(&caps));
        Ok(point_run(cfg.n, m, cost))
    });
    collect_sweep(kernel, results, provenance)
}

/// Whether `cfg` runs under a budget or a checkpoint policy: a run that
/// reports its [`Provenance`] and keeps to the serial engine.
fn is_robust(cfg: &SweepConfig) -> bool {
    cfg.budget.is_some() || cfg.checkpoint.is_some()
}

/// [`sweep`] of the cache-model curve: `cfg` with [`Measure::CacheModel`],
/// whatever its own `measure` says.
///
/// # Errors
///
/// As [`sweep`].
pub fn capacity_sweep_par(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
) -> Result<SweepResult, KernelError> {
    sweep(
        kernel,
        &SweepConfig {
            measure: Measure::CacheModel,
            ..cfg.clone()
        },
    )
}

/// The memory sizes a sweep measures, in sweep order: at or above the
/// measure's floor — the kernel's minimum memory for an executed sweep,
/// one transfer line for a cache-model one — and strictly below the
/// first outer capacity (level 0 must stay the smallest level).
fn eligible(kernel: &dyn Kernel, cfg: &SweepConfig) -> Vec<usize> {
    let floor = match cfg.measure {
        Measure::Execute => kernel.min_memory(cfg.n) as u64,
        Measure::CacheModel => cfg.traffic.line_words.max(1),
    };
    let ceiling = cfg
        .outer
        .first()
        .map_or(u64::MAX, |level| level.capacity().get());
    cfg.memories
        .iter()
        .copied()
        .filter(|&m| m as u64 >= floor && (m as u64) < ceiling)
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

/// An executed sweep counts each scheme's explicit word-granular
/// transfers; a device-real outer level (line-granular transfers or a
/// split write channel) would be silently mispriced, so it is refused with
/// a pointer to the cache-model measure, which models both.
fn reject_device_outer(outer: &[LevelSpec]) -> Result<(), KernelError> {
    if let Some(i) = outer.iter().position(LevelSpec::is_device_real) {
        return Err(KernelError::BadParameters {
            reason: format!(
                "outer level {} is device-real (line size {} words{}), but an executed \
                 sweep counts explicit word-granular transfers; use Measure::CacheModel \
                 with SweepConfig::with_traffic to price line-granular or write-back \
                 traffic",
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

/// True when a cache-model sweep must run on the device-real path: a
/// non-trivial [`TrafficModel`], or an outer level annotated with its own
/// line size / write channel (the word path would silently ignore the
/// annotation).
fn needs_device_path(cfg: &SweepConfig) -> bool {
    !cfg.traffic.is_word_granular_read_priced() || cfg.outer.iter().any(LevelSpec::is_device_real)
}

/// The machine for one sweep point: local memory `m` under the fixed
/// outer levels (a flat spec when there are none). With a device-real
/// `line` model every level transfers its [`effective_line`] size.
///
/// # Errors
///
/// [`KernelError::BadParameters`] when the resulting ladder is malformed
/// (e.g. a zero local capacity from a `min_memory() == 0` kernel).
fn machine_for(
    m: usize,
    outer: &[LevelSpec],
    line: Option<TrafficModel>,
) -> Result<HierarchySpec, KernelError> {
    if outer.is_empty() && line.is_none() {
        return Ok(HierarchySpec::flat_words(m));
    }
    // m = 0 is possible for a kernel whose min_memory is 0: surface it as
    // the documented error, not a panic.
    let bad = |e: &dyn core::fmt::Display| KernelError::BadParameters {
        reason: format!("sweep point M = {m}: {e}"),
    };
    let local = LevelSpec::new(Words::new(m as u64), WordsPerSec::new(1.0)).map_err(|e| bad(&e))?;
    let levels = std::iter::once(local)
        .chain(outer.iter().cloned())
        .map(|level| match line {
            Some(model) => level.with_line_words(effective_line(model, &level)),
            None => Ok(level),
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| bad(&e))?;
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
/// error in sweep order.
fn collect_sweep(
    kernel: &dyn Kernel,
    results: impl IntoIterator<Item = Result<KernelRun, KernelError>>,
    provenance: Option<Provenance>,
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
        provenance,
    })
}

/// The kernel's canonical trace, or the documented error for kernels (or
/// sizes) without one.
fn trace_for(kernel: &dyn Kernel, n: usize) -> Result<AccessTrace, KernelError> {
    kernel
        .access_trace(n)
        .ok_or_else(|| KernelError::BadParameters {
            reason: format!(
                "{} has no canonical access trace at n = {n} (cache-model sweeps \
                 need one; use Measure::Execute instead)",
                kernel.name()
            ),
        })
}

/// One cache-model sweep point as a [`KernelRun`]: the traced
/// computation's op count over the model's traffic. The peak-memory field
/// reports the configured capacity (the model cache owns all of `M`);
/// every engine builds points through here, so engine bit-identity is
/// structural.
fn point_run(n: usize, m: usize, cost: CostProfile) -> KernelRun {
    KernelRun {
        n,
        m,
        execution: Execution::new(cost, Words::new(m as u64)),
    }
}

/// One replay-engine point: the canonical trace through an actual cache
/// of capacity `m` — a flat [`LruCache`], or a [`Hierarchy`] ladder under
/// the outer levels. On the device-real path the state is line-granular
/// with dirty bits, each level at its [`effective_line`] size.
fn point_replay(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    m: usize,
) -> Result<KernelRun, KernelError> {
    let trace = trace_for(kernel, cfg.n)?;
    let comp = trace.comp_ops();
    let bound = trace.addr_bound();
    let model = cfg.traffic;
    let cost = match (needs_device_path(cfg), cfg.outer.is_empty()) {
        (false, true) => {
            let mut cache = LruCache::with_address_bound(m, 1, bound);
            CostProfile::with_levels(comp, &[cache.run_trace(trace.into_addrs())])
        }
        (false, false) => {
            let mut ladder = Hierarchy::from_spec(&machine_for(m, &cfg.outer, None)?);
            CostProfile::with_levels(comp, ladder.run_trace(trace.into_addrs()).as_slice())
        }
        (true, true) => {
            let lw = model.line_words;
            // At most `m` lines: the quotient fits usize.
            let mut cache = LruCache::with_address_bound((m as u64 / lw) as usize, lw, bound);
            let _ = cache.run_tagged_trace(device_accesses(trace, model));
            CostProfile::with_dual_levels(comp, &[cache.miss_words()], &[cache.writeback_words()])
        }
        (true, false) => {
            let spec = machine_for(m, &cfg.outer, Some(model))?;
            let traffic =
                Hierarchy::from_spec_device(&spec).run_tagged_trace(device_accesses(trace, model));
            let (reads, wbs): (Vec<u64>, Vec<u64>) = (0..traffic.len())
                .map(|i| {
                    (
                        traffic.read_at(i).unwrap_or(0),
                        traffic.writeback_at(i).unwrap_or(0),
                    )
                })
                .unzip();
            CostProfile::with_dual_levels(comp, &reads, &wbs)
        }
    };
    Ok(point_run(cfg.n, m, cost))
}

/// Whether the address bound is worth a direct-indexed last-access table
/// (a flat `4 × bound`-byte allocation per engine/worker, inside the
/// engine's `u32` id space). The one backend chooser: every engine this
/// crate builds — the sweeps and the profile service's repairs — routes
/// its backend choice through here.
pub(crate) fn direct_bound(bound: u64) -> Option<u64> {
    (bound > 0 && bound < u64::from(u32::MAX / 2)).then_some(bound)
}

/// A fresh engine over addresses below `bound`: direct-indexed where
/// [`direct_bound`] admits the bound, renaming otherwise.
fn engine_for(bound: u64) -> StackDistance {
    direct_bound(bound).map_or_else(StackDistance::new, StackDistance::with_address_bound)
}

/// The exact serial Mattson histogram of a whole trace: replay's curve,
/// bit for bit, at every capacity up to `depth` (the engine's depth cap;
/// `u64::MAX` answers every capacity). The trace's chunks feed the engine
/// straight from the generator's buffer.
pub(crate) fn exact_profile(trace: AccessTrace, depth: u64) -> CapacityProfile {
    let mut engine = engine_for(trace.addr_bound()).with_depth(depth);
    trace.for_each_chunk(|chunk| {
        for a in chunk {
            engine.observe(a.addr);
        }
    });
    engine.into_profile()
}

/// The one-pass tagged [`TrafficProfile`] of a trace under `model`, on the
/// backend [`direct_bound`] picks for the trace's address bound, capped at
/// `depth` **lines** (`u64::MAX` = uncapped). The pass feeds the engine
/// chunk by chunk, mapping words to lines by shift and demoting tags
/// ([`device_access`]) in the chunk.
///
/// # Panics
///
/// Panics when `model.line_words` is not a power of two (the shape
/// [`TrafficModel::validate`] admits).
pub(crate) fn tagged_profile(
    trace: AccessTrace,
    model: TrafficModel,
    depth: u64,
) -> TrafficProfile {
    let lw = model.line_words;
    assert!(
        lw.is_power_of_two(),
        "line size must be a positive power of two words, got {lw}"
    );
    let shift = lw.trailing_zeros();
    let mut engine = match direct_bound(trace.addr_bound()) {
        Some(bound) => StackDistance::with_address_bound(bound.div_ceil(lw).max(1)),
        None => StackDistance::new(),
    }
    .with_depth(depth);
    trace.for_each_chunk(|chunk| {
        for &a in chunk {
            let a = device_access(model, a);
            engine.observe_tagged(a.addr >> shift, a.is_write());
        }
    });
    engine.into_traffic_profile(lw)
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

/// One access as a device-real measurement replays it: the kernel's
/// honest read/write tag when write-backs are ledgered, demoted to a read
/// when only line granularity is priced (no store ever dirties a line,
/// so no write-back can be charged).
#[inline]
fn device_access(model: TrafficModel, a: Access) -> Access {
    if model.writebacks {
        a
    } else {
        Access::read(a.addr)
    }
}

/// The trace's stream as a device-real measurement replays it
/// ([`device_access`] per access).
fn device_accesses(trace: AccessTrace, model: TrafficModel) -> impl Iterator<Item = Access> {
    trace.into_accesses().map(move |a| device_access(model, a))
}

/// The documented error for a kernel without a closed form at `n`.
fn no_analytic(kernel: &dyn Kernel, n: usize) -> KernelError {
    KernelError::BadParameters {
        reason: format!(
            "kernel {} derives no analytic profile at n = {n}; \
             use a replay engine (stackdist, stackdist-par, sampled)",
            kernel.name()
        ),
    }
}

/// The kernel's closed-form profile at `n`.
fn analytic_profile(kernel: &dyn Kernel, n: usize) -> Result<CapacityProfile, KernelError> {
    kernel
        .analytic_profile(n)
        .map(AnalyticProfile::into_profile)
        .ok_or_else(|| no_analytic(kernel, n))
}

/// The kernel's whole-curve profile on the segmented parallel engine, over
/// `threads` workers (`0` = the host's available parallelism) for a trace
/// of `len` addresses below `bound`.
///
/// # Panics
///
/// As [`kernel_trace`], or when a trace position overflows `usize`.
fn segmented_profile(
    kernel: &dyn Kernel,
    n: usize,
    len: u64,
    bound: u64,
    threads: usize,
) -> CapacityProfile {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    // Each worker regenerates its time range from the kernel's streaming
    // generator: the view's `skip` is the generator's O(1) closed-form
    // seek (every trace but triangularization, which scans at generation
    // speed).
    segmented_profile_of(len, direct_bound(bound), threads, |start, end| {
        let pos = |p: u64| {
            usize::try_from(p).unwrap_or_else(|_| panic!("trace position {p} overflows usize"))
        };
        kernel_trace(kernel, n)
            .into_addrs()
            .skip(pos(start))
            .take(pos(end) - pos(start))
    })
}

/// The kernel's canonical trace, for callers that have already proven it
/// exists at this size (via [`trace_for`]).
///
/// # Panics
///
/// Panics if the kernel refuses to produce the trace it just produced —
/// a broken [`Kernel::access_trace`] contract, not an input condition.
fn kernel_trace(kernel: &dyn Kernel, n: usize) -> AccessTrace {
    trace_for(kernel, n).unwrap_or_else(|e| panic!("trace_for succeeded above: {e}"))
}

/// Sampling-rate exponent step between successive rungs of the
/// degradation ladder (the first sampled rung runs at rate `2^-4`).
const LADDER_SHIFT_STEP: u32 = 4;

/// How often the sampled rung polls its wall-clock deadline (the exact
/// rungs poll inside [`resumable_replay`] at the same cadence).
const SAMPLED_DEADLINE_POLL: u64 = 1 << 20;

/// Planning estimate of the exact engine's state per address of the
/// bound: last-access slot (4) + two slot-table ids (8) + marker bits and
/// their Fenwick tree (½) + one histogram counter (8) + one tagged-pass
/// dirty-chain entry (4), about 25 bytes, with the rest headroom. The
/// value stays at the 48 it had when the index and slot table were
/// `u64`: budgets are set against it, and lowering it would let runs
/// that pre-trip today start instead. Used only to *pre-trip*
/// [`Budget::max_resident_bytes`] before allocating — a sizing model, not
/// an rlimit; a test pins the real allocation
/// ([`StackDistance::resident_bytes`]) below it.
const TRACKED_ADDRESS_BYTES: u64 = 48;

/// The direct backend's last-access entry (a `u32`), kept for every
/// address of the bound even by a depth-capped engine (the renaming
/// backend's renamer keeps every address too, so its cap saves nothing).
const DIRECT_INDEX_BYTES: u64 = 4;

/// The same per address a sampled rung renames: renamer slots at 25–50%
/// load (32–64) + last access (8–16) + a doubling slot space (16–32) +
/// histogram (8–16), with room for a sample above its expected size.
const SAMPLED_ADDRESS_BYTES: u64 = 144;

/// The next (cheaper, eventually approximate) rung below `engine` on the
/// degradation ladder, or `None` at the floor:
///
/// ```text
/// stackdist → sampled:4 → sampled:8 → … → sampled:32
/// ```
///
/// The ladder starts at `stackdist`, the one resumable exact engine:
/// [`Engine::resolve`] gives a budgeted or checkpointed `Replay` or
/// `StackDistPar` request its bit-identical serial equivalent. Every
/// estimate ([`Budget::max_resident_bytes`],
/// [`Budget::max_addresses`]) is monotone non-increasing down the
/// uncapped ladder (for any trace over 4 or more addresses); a
/// depth-capped exact rung can undercut the sampled rungs, so
/// [`profile_ladder`] pre-checks every rung it reaches.
fn next_rung(engine: Engine) -> Option<Engine> {
    match engine {
        // Analytic never enters the ladder (it is free and cannot trip a
        // budget — see `robust_capacity_profile`), and resolve substitutes
        // the serial engine for the other two; their nominal next exact
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
/// when the bound is unknown): [`TRACKED_ADDRESS_BYTES`] per address of
/// the bound for the exact rungs. Capped at `depth` words on the direct
/// backend, the serial rung pays [`DIRECT_INDEX_BYTES`] per address and
/// the full charge per unit of `depth` ([`StackDistance::with_depth`]).
/// The sampled rungs rename only the expected `bound · 2^-shift` sampled
/// addresses ([`SAMPLED_ADDRESS_BYTES`] each) — that is what makes them
/// genuinely cheaper, not just faster.
fn estimated_resident_bytes(engine: Engine, bound: u64, len: u64, depth: u64) -> u64 {
    let tracked = if bound > 0 { bound } else { len };
    match engine {
        // A finalized analytic histogram is O(#classes) — noise next to
        // any per-address table.
        Engine::Analytic => 0,
        // The serial rung is the one the ladder caps.
        Engine::StackDist if depth < tracked && direct_bound(bound).is_some() => tracked
            .saturating_mul(DIRECT_INDEX_BYTES)
            .saturating_add(depth.saturating_mul(TRACKED_ADDRESS_BYTES))
            .min(tracked.saturating_mul(TRACKED_ADDRESS_BYTES)),
        Engine::Replay | Engine::StackDist | Engine::StackDistPar { .. } => {
            tracked.saturating_mul(TRACKED_ADDRESS_BYTES)
        }
        Engine::Sampled { shift } => (tracked >> shift)
            .max(1)
            .saturating_mul(SAMPLED_ADDRESS_BYTES),
    }
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

/// The budget limit `engine` would violate before running, if any, with
/// its exact rung capped at `depth` words (`u64::MAX` = uncapped).
/// Resident and address limits are estimate-checked up front; the wall
/// limit can only trip *during* a replay.
fn pre_trip(
    engine: Engine,
    budget: &Budget,
    bound: u64,
    len: u64,
    depth: u64,
) -> Option<BudgetTrip> {
    if let Some(limit) = budget.max_resident_bytes {
        let estimated = estimated_resident_bytes(engine, bound, len, depth);
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
/// `stackdist-par[:K]`, `sampled:S`, `analytic`) — used by provenance
/// lines, store tags and diagnostics, and parsed back by
/// [`Engine::parse`].
#[must_use]
pub fn engine_spec(engine: Engine) -> String {
    match engine {
        Engine::Replay => "replay".into(),
        Engine::StackDist => "stackdist".into(),
        Engine::StackDistPar { threads: 0 } => "stackdist-par".into(),
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// 64000000 B budget); wrote 3 checkpoint(s)`. A ladder that starts
    /// at the bit-identical stand-in for the requested engine names both:
    /// `substituted bit-identical stackdist for stackdist-par, then
    /// degraded stackdist -> sampled:4 (…)`.
    #[must_use]
    pub fn describe(&self) -> String {
        // The engine that ran first: the ladder's top, or the one used.
        let first = self.steps.first().map_or(self.used, |s| s.from);
        let mut parts = Vec::new();
        if first != self.requested {
            parts.push(format!(
                "substituted bit-identical {} for {}",
                engine_spec(first),
                engine_spec(self.requested)
            ));
        }
        if let Some(last) = self.steps.last() {
            let path: Vec<String> = std::iter::once(engine_spec(first))
                .chain(self.steps.iter().map(|s| engine_spec(s.to)))
                .collect();
            parts.push(format!("degraded {} ({})", path.join(" -> "), last.trip));
        }
        let mut line = if parts.is_empty() {
            format!("as requested ({})", engine_spec(self.used))
        } else {
            parts.join(", then ")
        };
        if let Some(pos) = self.resumed_at {
            line.push_str(&format!("; resumed at address {pos}"));
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

/// The serial replay's checkpoint-image name: one image per
/// (kernel, size), so interleaved sweeps in one directory cannot resume
/// from each other's state.
fn checkpoint_name(kernel: &dyn Kernel, n: usize) -> String {
    format!("{}_n{n}", kernel.name())
}

/// One ladder rung's attempt at the profile. The exact serial rung is
/// capped at `depth` words ([`profile_ladder`] passes `u64::MAX` when a
/// checkpoint policy is armed); it is the plain chunked pass
/// ([`exact_profile`]) unless a deadline, policy or fault needs the
/// resumable (checkpointed, deadline-polled, fault-checked) replay
/// driver. Sampled rungs stream through [`SampledStackDistance`], which
/// renames only its sampled addresses, polling the deadline and checking
/// faults when either is armed (sampled state is small enough that
/// checkpointing it is not worth the I/O). The returned [`Provenance`]
/// carries the attempt's durability counters only.
fn run_profile_attempt(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    engine: Engine,
    depth: u64,
    deadline: Option<Instant>,
    faults: &FaultPlan,
) -> Result<(CapacityProfile, Provenance), ReplayInterrupt> {
    let trace = kernel_trace(kernel, cfg.n);
    let (len, bound) = (trace.len(), trace.addr_bound());
    match engine {
        // The exact serial rung. Resolved requests bring only replay tiers
        // to the ladder; replay's and the closed form's curves are this
        // histogram bit for bit.
        Engine::Replay | Engine::StackDist | Engine::Analytic => {
            if deadline.is_none() && !faults.is_armed() && cfg.checkpoint.is_none() {
                return Ok((exact_profile(trace, depth), Provenance::default()));
            }
            let name = checkpoint_name(kernel, cfg.n);
            let mut ctl = ReplayControl::new(&name);
            ctl.policy = cfg.checkpoint.as_ref();
            ctl.faults = faults;
            ctl.deadline = deadline;
            let fresh = || engine_for(bound).with_depth(depth);
            let (eng, stats) = resumable_replay(len, trace.into_addrs(), fresh, &ctl)?;
            Ok((
                eng.into_profile(),
                Provenance {
                    resumed_at: stats.resumed_at,
                    checkpoints_written: stats.checkpoints_written,
                    ..Provenance::default()
                },
            ))
        }
        // Only an unbudgeted, uncheckpointed request gets here (resolve
        // gives a robust one the serial rung): there is no deadline to
        // poll and nothing to persist, so it is the plain segmented pass.
        Engine::StackDistPar { threads } => Ok((
            segmented_profile(kernel, cfg.n, len, bound, threads),
            Provenance::default(),
        )),
        Engine::Sampled { shift } => {
            let mut eng = SampledStackDistance::new(shift);
            let armed = faults.is_armed();
            for (pos, addr) in (0u64..).zip(trace.into_addrs()) {
                if armed {
                    faults.check_observe(pos)?;
                }
                eng.observe(addr);
                if (pos + 1) % SAMPLED_DEADLINE_POLL == 0
                    && deadline.is_some_and(|dl| Instant::now() >= dl)
                {
                    return Err(ReplayInterrupt::DeadlineExceeded);
                }
            }
            Ok((eng.into_profile(), Provenance::default()))
        }
    }
}

/// Builds the kernel's [`CapacityProfile`] under [`SweepConfig::budget`]
/// and [`SweepConfig::checkpoint`], degrading along the engine ladder
/// instead of aborting, and reporting exactly how the profile was
/// obtained. `cfg.engine` runs through [`Engine::resolve`] as a request
/// for the whole curve, so a requested replay enters the ladder as its
/// bit-identical one-pass engine. The profile answers every capacity:
/// only a [`sweep`] caps the ladder's exact rung, at its largest queried
/// capacity, and then only when no checkpoint policy is armed.
///
/// The ladder (see `next_rung` in this module): serial one-pass →
/// SHARDS sampling at rate `2^-4`, then coarser powers down to `2^-32`.
/// The serial one-pass engine is the one resumable exact engine: under a
/// budget or checkpoint policy a `stackdist-par` request runs it (the
/// provenance names the substitution), and so does `auto` at any trace
/// length. Unbudgeted and uncheckpointed, a `stackdist-par` request runs
/// the plain segmented pass, which takes no faults. Resident-memory and
/// address limits are pre-checked from sizing estimates before an
/// attempt is paid for; the wall limit
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
/// [`KernelError::BadParameters`] for an engine [`Engine::resolve`]
/// refuses or a kernel without a canonical trace at `cfg.n`;
/// [`KernelError::BudgetExhausted`] when even the floor
/// rung's estimate exceeds a limit; [`KernelError::Interrupted`] when an
/// injected fault or a checkpoint-persistence failure stops the replay.
pub fn robust_capacity_profile(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    faults: &FaultPlan,
) -> Result<(CapacityProfile, Provenance), KernelError> {
    // Whatever the sweep's memories, the ladder builds the whole curve.
    let whole_curve = SweepConfig {
        memories: Vec::new(),
        outer: Vec::new(),
        ..cfg.clone()
    };
    let engine = Engine::resolve(Some(cfg.engine), kernel, &whole_curve)?;
    profile_ladder(kernel, cfg, engine, u64::MAX, faults)
}

/// The one path from a resolved word-model engine to a
/// [`CapacityProfile`]: [`robust_capacity_profile`]'s ladder from
/// `engine`, whose exact rung answers capacities up to `depth` words
/// (`u64::MAX` = the whole curve). Errors as [`robust_capacity_profile`].
fn profile_ladder(
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
    mut engine: Engine,
    depth: u64,
    faults: &FaultPlan,
) -> Result<(CapacityProfile, Provenance), KernelError> {
    let requested = cfg.engine;
    // The analytic tier replays nothing, holds no per-address state, and
    // finishes in microseconds: no budget can trip and there is nothing
    // to checkpoint, so it bypasses the ladder entirely.
    if engine == Engine::Analytic {
        let profile = analytic_profile(kernel, cfg.n)?;
        let provenance = Provenance {
            requested,
            used: engine,
            ..Provenance::default()
        };
        return Ok((profile, provenance));
    }
    let (len, bound) = trace_for(kernel, cfg.n).map(|t| (t.len(), t.addr_bound()))?;
    let budget = cfg.budget.unwrap_or_default();
    let deadline = budget.max_wall.map(|w| Instant::now() + w);
    // Capped engines take no snapshot.
    let depth = cfg.checkpoint.as_ref().map_or(depth, |_| u64::MAX);
    let mut steps: Vec<DegradationStep> = Vec::new();

    loop {
        // Settle the estimate-checkable limits before paying for a doomed
        // attempt. A capped exact rung can be cheaper than the sampled
        // rung below it, so a rung reached by a wall trip is checked too.
        while let Some(trip) = pre_trip(engine, &budget, bound, len, depth) {
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
        let next = next_rung(engine);
        // The floor rung runs without a deadline: a late answer beats none.
        let attempt_deadline = next.and(deadline);
        match (
            run_profile_attempt(kernel, cfg, engine, depth, attempt_deadline, faults),
            next,
        ) {
            (Ok((profile, counters)), _) => {
                let provenance = Provenance {
                    requested,
                    used: engine,
                    steps,
                    ..counters
                };
                return Ok((profile, provenance));
            }
            (Err(ReplayInterrupt::DeadlineExceeded), Some(next)) => {
                let limit = budget.max_wall.unwrap_or_default();
                steps.push(DegradationStep {
                    from: engine,
                    to: next,
                    trip: BudgetTrip::Wall { limit },
                });
                engine = next;
            }
            (Err(other), _) => {
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
    fn resident_estimate_covers_the_real_allocation() {
        // The pre-trip estimate must never undercount what the rung's
        // engine really allocates, read from its `Vec` capacities.
        for (kernel, n) in [(&crate::fft::Fft as &dyn Kernel, 1 << 12), (&MatMul, 40)] {
            let trace = trace_for(kernel, n).unwrap();
            let (bound, len) = (trace.addr_bound(), trace.len());
            let mut exact = StackDistance::with_address_bound(bound);
            exact.observe_trace(kernel_trace(kernel, n).into_addrs());
            let mut sampled = SampledStackDistance::new(LADDER_SHIFT_STEP);
            sampled.observe_trace(kernel_trace(kernel, n).into_addrs());
            for (engine, actual) in [
                (Engine::StackDist, exact.resident_bytes()),
                (Engine::Sampled { shift: LADDER_SHIFT_STEP }, sampled.resident_bytes()),
            ] {
                let estimated = estimated_resident_bytes(engine, bound, len, u64::MAX);
                assert!(
                    estimated >= actual,
                    "{} n = {n} {engine:?}: estimated {estimated} < actual {actual}",
                    kernel.name()
                );
            }
            // The serial rung capped at a sweep's depth, well below the
            // bound and at it.
            for depth in [16, 64, 1024, bound / 2, bound] {
                let mut capped = engine_for(bound).with_depth(depth);
                capped.observe_trace(kernel_trace(kernel, n).into_addrs());
                let actual = capped.resident_bytes();
                let estimated = estimated_resident_bytes(Engine::StackDist, bound, len, depth);
                assert!(
                    estimated >= actual,
                    "{} n = {n} depth {depth}: estimated {estimated} < actual {actual}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn pow2_config() {
        let cfg = SweepConfig::pow2(10, 4, 7, 1);
        assert_eq!(cfg.memories, vec![16, 32, 64, 128]);
        assert_eq!(cfg.verify, Verify::Full);
    }

    #[test]
    fn matmul_sweep_fits_sqrt_law() {
        let cfg = SweepConfig::pow2(48, 5, 11, 42);
        let result = sweep(&MatMul, &cfg).unwrap();
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
        let result = sweep(&MatVec, &cfg).unwrap();
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
        let result = sweep(&MatMul, &cfg).unwrap();
        assert_eq!(result.points.len(), 1);
    }

    #[test]
    fn curve_supports_empirical_rebalance() {
        let cfg = SweepConfig::pow2(48, 5, 11, 7);
        let result = sweep(&MatMul, &cfg).unwrap();
        let curve = result.curve().unwrap();
        // alpha = 2 on sqrt-law data: memory should grow ~4x.
        let m_new = curve.empirical_rebalance(2.0, 256.0).unwrap();
        let factor = m_new / 256.0;
        assert!(
            (2.5..6.5).contains(&factor),
            "empirical growth factor {factor}"
        );
    }

    /// `cfg` as an executed sweep under `outer`.
    fn executed(
        kernel: &dyn Kernel,
        cfg: &SweepConfig,
        outer: &[LevelSpec],
    ) -> Result<SweepResult, KernelError> {
        sweep(
            kernel,
            &SweepConfig {
                outer: outer.to_vec(),
                ..cfg.clone()
            },
        )
    }

    /// `cfg` as a cache-model sweep under `outer`.
    fn cache_model(
        kernel: &dyn Kernel,
        cfg: &SweepConfig,
        outer: &[LevelSpec],
    ) -> Result<SweepResult, KernelError> {
        sweep(
            kernel,
            &SweepConfig {
                measure: Measure::CacheModel,
                outer: outer.to_vec(),
                ..cfg.clone()
            },
        )
    }

    /// The executed sweep as a plain serial loop: `run_on` per eligible
    /// memory, the first point the verification anchor.
    fn reference_runs(
        kernel: &dyn Kernel,
        cfg: &SweepConfig,
        outer: &[LevelSpec],
    ) -> Vec<KernelRun> {
        let floor = kernel.min_memory(cfg.n);
        let ceiling = outer.first().map_or(u64::MAX, |l| l.capacity().get());
        cfg.memories
            .iter()
            .filter(|&&m| m >= floor && (m as u64) < ceiling)
            .enumerate()
            .map(|(i, &m)| {
                let mut levels =
                    vec![LevelSpec::new(Words::new(m as u64), WordsPerSec::new(1.0)).unwrap()];
                levels.extend_from_slice(outer);
                let machine = if outer.is_empty() {
                    HierarchySpec::flat_words(m)
                } else {
                    HierarchySpec::new(levels).unwrap()
                };
                let verify = match cfg.verify {
                    Verify::Freivalds { .. } if i == 0 => Verify::Full,
                    other => other,
                };
                kernel.run_on(cfg.n, &machine, cfg.seed, verify).unwrap()
            })
            .collect()
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        for verify in [Verify::Full, Verify::Freivalds { rounds: 2 }] {
            let cfg = SweepConfig::pow2(32, 5, 10, 9).with_verify(verify);
            let par = sweep(&MatMul, &cfg).unwrap();
            let serial = reference_runs(&MatMul, &cfg, &[]);
            assert_eq!(serial.len(), par.points.len());
            for (s, p) in serial.iter().zip(&par.points) {
                assert_eq!((s.m as f64).to_bits(), p.memory.to_bits());
                assert_eq!(s.intensity().to_bits(), p.ratio.to_bits());
            }
            assert_eq!(serial, par.runs);
        }
    }

    #[test]
    fn freivalds_sweep_matches_full_sweep_measurements() {
        // Verification mode must not change what is measured, only how the
        // output is checked.
        let base = SweepConfig::pow2(48, 5, 9, 4);
        let full = sweep(&MatMul, &base).unwrap();
        let cheap = sweep(
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
        assert_eq!(
            par_map::<usize, usize, _>(&[], |_, &x| x),
            Vec::<usize>::new()
        );
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
        match sweep(&AlwaysFails, &cfg) {
            Err(KernelError::BadParameters { reason }) => {
                // First *eligible* point in sweep order, not the smallest
                // m and not whichever worker finished first.
                assert_eq!(reason, "injected failure at m=64");
            }
            other => panic!("expected the m=64 failure, got {other:?}"),
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
        let result = sweep(&MatMul, &cfg).unwrap();
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
        let flat = sweep(&MatMul, &cfg).unwrap();
        let hier = executed(&MatMul, &cfg, &[]).unwrap();
        assert_eq!(flat.runs, hier.runs);
    }

    #[test]
    fn hierarchy_sweep_reports_inclusive_per_level_traffic() {
        let cfg = SweepConfig::pow2(24, 5, 8, 3);
        let outer = outer_levels(&[1024, 4096]);
        let result = executed(&MatMul, &cfg, &outer).unwrap();
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
        let flat = sweep(&MatMul, &cfg).unwrap();
        let hier = executed(&MatMul, &cfg, &outer_levels(&[4096])).unwrap();
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
        let par = executed(&MatMul, &cfg, &outer).unwrap();
        assert_eq!(reference_runs(&MatMul, &cfg, &outer), par.runs);
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
        let result = executed(&MatMul, &cfg, &outer_levels(&[128])).unwrap();
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
        let replay = capacity_sweep_par(&MatMul, &cfg).unwrap();
        let onepass =
            capacity_sweep_par(&MatMul, &cfg.clone().with_engine(Engine::StackDist)).unwrap();
        assert_eq!(replay.runs, onepass.runs);
        assert_eq!(replay.points.len(), 6);
        for (r, o) in replay.points.iter().zip(&onepass.points) {
            assert_eq!(r.memory.to_bits(), o.memory.to_bits());
            assert_eq!(r.ratio.to_bits(), o.ratio.to_bits());
        }
        // Both match one plain LruCache replay per capacity.
        let trace_misses = |m: usize| {
            let trace = MatMul.access_trace(12).unwrap();
            LruCache::with_address_bound(m, 1, trace.addr_bound()).run_trace(trace.into_addrs())
        };
        for run in &replay.runs {
            assert_eq!(
                run.execution.cost.io_words(),
                trace_misses(run.m),
                "m = {}",
                run.m
            );
        }
        // The segmented parallel engine is bit-identical too, at any
        // thread count (including auto and absurd oversubscription).
        for threads in [0usize, 1, 3, 7, 64] {
            let seg = capacity_sweep_par(
                &MatMul,
                &cfg.clone().with_engine(Engine::StackDistPar { threads }),
            )
            .unwrap();
            assert_eq!(replay.runs, seg.runs, "threads = {threads}");
        }
        // Sampling at shift 0 keeps every address: exact degenerate.
        let sampled = capacity_sweep_par(
            &MatMul,
            &cfg.clone().with_engine(Engine::Sampled { shift: 0 }),
        )
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
        let exact = capacity_sweep_par(&MatMul, &cfg).unwrap();
        let sampled = capacity_sweep_par(
            &MatMul,
            &cfg.clone().with_engine(Engine::Sampled { shift: 2 }),
        )
        .unwrap();
        assert_eq!(exact.runs.len(), sampled.runs.len());
        let total = 3u64 * 16 * 16 * 16;
        for (e, s) in exact.runs.iter().zip(&sampled.runs) {
            // Miss-ratio error at rate 1/4 on the dense matmul trace
            // stays small (empirical bound with wide slack).
            let diff = e
                .execution
                .cost
                .io_words()
                .abs_diff(s.execution.cost.io_words());
            assert!(
                (diff as f64) / (total as f64) < 0.2,
                "m = {}: exact {} vs sampled {}",
                e.m,
                e.execution.cost.io_words(),
                s.execution.cost.io_words()
            );
        }
    }

    /// A cache-model config at `n` over `memories`.
    fn cache_cfg(n: usize, memories: Vec<usize>) -> SweepConfig {
        SweepConfig {
            n,
            memories,
            measure: Measure::CacheModel,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn engine_auto_for_escalates_on_trace_length() {
        let long = 1 << 21;
        assert!(crate::fft::Fft.access_trace(long).unwrap().len() >= AUTO_SEGMENT_LEN);
        let auto = |n: usize, memories: Vec<usize>| {
            Engine::resolve(None, &crate::fft::Fft, &cache_cfg(n, memories)).unwrap()
        };
        assert_eq!(auto(1 << 10, vec![64, 128, 256, 512]), Engine::StackDist);
        assert_eq!(
            auto(long, vec![64, 128, 256, 512]),
            Engine::StackDistPar { threads: 0 }
        );
        // Few points: replay stays cheapest regardless of length.
        assert_eq!(auto(long, vec![64, 128]), Engine::Replay);
    }

    #[test]
    fn engine_auto_for_kernel_grows_the_analytic_tier() {
        let many: Vec<usize> = (0..16).map(|i| 16 << i).collect();
        let auto = |kernel: &dyn Kernel, n: usize, memories: &[usize]| {
            Engine::resolve(None, kernel, &cache_cfg(n, memories.to_vec())).unwrap()
        };
        // Kernels with a derived histogram get it at any point count —
        // exact and free beats everything.
        assert_eq!(auto(&MatMul, 8, &many), Engine::Analytic);
        assert_eq!(auto(&MatMul, 8, &many[..2]), Engine::Analytic);
        // Without one (fft), selection falls back to the trace-length
        // escalation...
        assert_eq!(auto(&crate::fft::Fft, 8, &many), Engine::StackDist);
        // ...and to the point-count rule when there is no trace either.
        assert_eq!(auto(&crate::fft::Fft, 9, &many), Engine::StackDist);
        assert_eq!(auto(&crate::fft::Fft, 9, &many[..2]), Engine::Replay);
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
        let analytic = capacity_sweep_par(&MatMul, &cfg).unwrap();
        let onepass =
            capacity_sweep_par(&MatMul, &cfg.clone().with_engine(Engine::StackDist)).unwrap();
        assert_eq!(analytic.runs, onepass.runs);
        // A kernel without a derivation is the documented parameter error,
        // naming the kernel — never a silent fallback.
        let err = capacity_sweep_par(&crate::fft::Fft, &cfg).unwrap_err();
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
        let replay = capacity_sweep_par(&MatMul, &cfg).unwrap();
        let onepass =
            capacity_sweep_par(&MatMul, &cfg.clone().with_engine(Engine::StackDist)).unwrap();
        assert_eq!(replay.runs, onepass.runs);
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
        let word = capacity_sweep_par(&MatMul, &word_cfg).unwrap();
        let device = capacity_sweep_par(&MatMul, &device_cfg).unwrap();
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
        let onepass = capacity_sweep_par(&MatMul, &cfg).unwrap();
        let replay = capacity_sweep_par(&MatMul, &cfg.clone().with_engine(Engine::Replay)).unwrap();
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
        let fell_back = capacity_sweep_par(&MatMul, &cfg).unwrap();
        let onepass =
            capacity_sweep_par(&MatMul, &cfg.clone().with_engine(Engine::StackDist)).unwrap();
        assert_eq!(fell_back.runs, onepass.runs);
        // Auto-selection never steers a device sweep into the tiers that
        // would refuse (or misprice) it.
        let device = TrafficModel::device(4);
        let auto = |cfg: SweepConfig| Engine::resolve(None, &MatMul, &cfg).unwrap();
        let many = cache_cfg(12, vec![16, 64, 256, 1024]);
        assert_eq!(auto(many.clone().with_traffic(device)), Engine::StackDist);
        assert_eq!(
            auto(cache_cfg(12, vec![16, 64]).with_traffic(device)),
            Engine::Replay
        );
        // Under the word model the closed form wins.
        assert_eq!(auto(many), Engine::Analytic);
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
            let err = capacity_sweep_par(&MatMul, &cfg).unwrap_err();
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
            capacity_sweep_par(&MatMul, &budgeted),
            Err(KernelError::BadParameters { .. })
        ));
        for bad_line in [0u64, 3, 12] {
            let cfg = base.clone().with_traffic(TrafficModel::device(bad_line));
            let err = capacity_sweep_par(&MatMul, &cfg).unwrap_err();
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
        let result = capacity_sweep_par(&MatMul, &cfg).unwrap();
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
        let replay = cache_model(&MatMul, &cfg, &outer).unwrap();
        let onepass =
            cache_model(&MatMul, &cfg.clone().with_engine(Engine::StackDist), &outer).unwrap();
        assert_eq!(replay.runs, onepass.runs);
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
        let err = cache_model(&MatMul, &cfg, &outer).unwrap_err();
        assert!(
            matches!(&err, KernelError::BadParameters { reason }
                if reason.contains("uniform line size")),
            "{err}"
        );
        let replayed =
            cache_model(&MatMul, &cfg.clone().with_engine(Engine::Replay), &outer).unwrap();
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
        let word = cache_model(&MatMul, &cfg, &plain).unwrap();
        let device = cache_model(&MatMul, &cfg, &lined).unwrap();
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
        let err =
            cache_model(&MatMul, &cfg.clone().with_engine(Engine::StackDist), &lined).unwrap_err();
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
        let err = executed(&MatMul, &cfg, &lined).unwrap_err();
        assert!(
            matches!(&err, KernelError::BadParameters { reason }
                if reason.contains("device-real") && reason.contains("level 2")),
            "{err}"
        );
        // A split write channel alone is just as device-real.
        let priced = vec![LevelSpec::new(Words::new(4096), WordsPerSec::new(1.0))
            .unwrap()
            .with_write_bandwidth(WordsPerSec::new(0.5))
            .unwrap()];
        assert!(executed(&MatMul, &cfg, &priced).is_err());
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
        let (profile, prov) = robust_capacity_profile(&MatMul, &cfg, &FaultPlan::none()).unwrap();
        assert_eq!(prov.requested, Engine::Analytic);
        assert_eq!(prov.used, Engine::Analytic);
        assert!(prov.steps.is_empty());
        assert!(profile.is_exact());
        assert_eq!(profile, exact_matmul_profile(16));
        // And the budgeted sweep path reports the same provenance.
        let swept = capacity_sweep_par(&MatMul, &cfg).unwrap();
        assert_eq!(swept.provenance.unwrap().used, Engine::Analytic);
    }

    #[test]
    fn analytic_engine_spec_round_trips() {
        assert_eq!(engine_spec(Engine::Analytic), "analytic");
    }

    #[test]
    fn every_engine_spec_parses_back() {
        for engine in [
            Engine::Replay,
            Engine::StackDist,
            Engine::StackDistPar { threads: 0 },
            Engine::StackDistPar { threads: 6 },
            Engine::Sampled { shift: 0 },
            Engine::Sampled {
                shift: MAX_SAMPLE_SHIFT,
            },
            Engine::Analytic,
        ] {
            assert_eq!(Engine::parse(&engine_spec(engine)), Ok(Some(engine)));
        }
        assert_eq!(Engine::parse("auto"), Ok(None));
    }

    #[test]
    fn resolve_table_covers_every_request() {
        let fft = crate::fft::Fft;
        let (mm_long, fft_long) = (512, 1 << 21);
        for (kernel, short, long) in [(&MatMul as &dyn Kernel, 8, mm_long), (&fft, 8, fft_long)] {
            assert!(kernel.access_trace(short).unwrap().len() < AUTO_SEGMENT_LEN);
            assert!(kernel.access_trace(long).unwrap().len() >= AUTO_SEGMENT_LEN);
        }
        let cases: [(&dyn Kernel, usize); 4] = [
            (&MatMul, 8),
            (&MatMul, mm_long),
            (&fft, 8),
            (&fft, fft_long),
        ];
        // How a row's request is made robust.
        #[derive(Debug, Clone, Copy)]
        enum Robust {
            No,
            Budget,
            Checkpoint,
        }
        use Robust::{Budget as B, Checkpoint as C, No};
        // (request, device model, robustness) → the engine for matmul
        // (closed form) short and long, then fft (none) short and long.
        let table: &[(&str, bool, Robust, [&str; 4])] = &[
            (
                "auto",
                false,
                No,
                ["analytic", "analytic", "stackdist", "stackdist-par"],
            ),
            ("replay", false, No, ["replay"; 4]),
            ("stackdist", false, No, ["stackdist"; 4]),
            ("stackdist-par:2", false, No, ["stackdist-par:2"; 4]),
            ("sampled:4", false, No, ["sampled:4"; 4]),
            (
                "analytic",
                false,
                No,
                ["analytic", "analytic", "err", "err"],
            ),
            // The serial one-pass engine is the one resumable exact
            // engine: a budgeted or checkpointed request for the
            // segmented one, explicit or by `auto`'s escalation, gets it.
            (
                "auto",
                false,
                B,
                ["analytic", "analytic", "stackdist", "stackdist"],
            ),
            ("replay", false, B, ["stackdist"; 4]),
            ("stackdist", false, B, ["stackdist"; 4]),
            ("stackdist-par:2", false, B, ["stackdist"; 4]),
            ("sampled:4", false, B, ["sampled:4"; 4]),
            ("analytic", false, B, ["analytic", "analytic", "err", "err"]),
            (
                "auto",
                false,
                C,
                ["analytic", "analytic", "stackdist", "stackdist"],
            ),
            ("replay", false, C, ["stackdist"; 4]),
            ("stackdist-par:2", false, C, ["stackdist"; 4]),
            ("sampled:4", false, C, ["sampled:4"; 4]),
            ("auto", true, No, ["stackdist"; 4]),
            ("replay", true, No, ["replay"; 4]),
            ("stackdist", true, No, ["stackdist"; 4]),
            ("stackdist-par:2", true, No, ["err"; 4]),
            ("sampled:4", true, No, ["err"; 4]),
            ("analytic", true, No, ["stackdist"; 4]),
            ("auto", true, B, ["err"; 4]),
            ("replay", true, B, ["err"; 4]),
            ("stackdist", true, B, ["err"; 4]),
            ("stackdist-par:2", true, B, ["err"; 4]),
            ("sampled:4", true, B, ["err"; 4]),
            ("analytic", true, B, ["err"; 4]),
            ("stackdist-par:2", true, C, ["err"; 4]),
        ];
        for &(request, device, robust, want) in table {
            for (&(kernel, n), want) in cases.iter().zip(want) {
                let mut cfg = cache_cfg(n, (6..14).map(|k| 1 << k).collect());
                if device {
                    cfg = cfg.with_traffic(TrafficModel::device(8));
                }
                match robust {
                    No => {}
                    B => cfg = cfg.with_budget(Budget::unlimited()),
                    C => cfg.checkpoint = Some(CheckpointPolicy::every("unused", 1)),
                }
                let got = match Engine::resolve(Engine::parse(request).unwrap(), kernel, &cfg) {
                    Ok(engine) => engine_spec(engine),
                    Err(KernelError::BadParameters { .. }) => "err".to_string(),
                    Err(other) => panic!("untyped refusal: {other}"),
                };
                assert_eq!(
                    got,
                    want,
                    "{request} for {} n = {n}, device {device}, {robust:?}",
                    kernel.name()
                );
            }
        }
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
        let result = capacity_sweep_par(&MatMul, &cfg).unwrap();
        assert_eq!(
            result.runs[0].execution.cost.io_words(),
            3 * (n as u64).pow(2)
        );
        assert_eq!(
            result.runs[0].execution.cost.comp_ops(),
            2 * (n as u64).pow(3)
        );
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
        let flat = capacity_sweep_par(&MatMul, &cfg).unwrap();
        assert_eq!(
            flat.runs.iter().map(|r| r.m).collect::<Vec<_>>(),
            vec![4, 128, 512]
        );
        let hier = cache_model(&MatMul, &cfg, &outer_levels(&[256])).unwrap();
        assert_eq!(
            hier.runs.iter().map(|r| r.m).collect::<Vec<_>>(),
            vec![4, 128]
        );
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
        let replay = cache_model(&MatMul, &cfg, &outer).unwrap();
        let onepass =
            cache_model(&MatMul, &cfg.clone().with_engine(Engine::StackDist), &outer).unwrap();
        assert_eq!(replay.runs, onepass.runs);
        // Both match one plain Hierarchy replay per capacity.
        for run in &replay.runs {
            let trace = MatMul.access_trace(10).unwrap();
            let caps = [Words::new(run.m as u64), Words::new(256), Words::new(1024)];
            let traffic = Hierarchy::new(&caps).run_trace(trace.into_addrs());
            assert_eq!(
                run.execution.cost.traffic().as_slice(),
                traffic.as_slice(),
                "m = {}",
                run.m
            );
        }
    }

    #[test]
    fn capped_ladder_sweep_equals_replay_point_for_point() {
        // The outer level (64 words) is the sweep's largest capacity, so it
        // sets the depth cap, far below both traces' distinct addresses:
        // every reuse deeper than 64 is evicted, yet every point, word and
        // line-granular, must equal one LRU/Hierarchy replay per memory.
        let outer = outer_levels(&[64]);
        for (kernel, n) in [(&MatMul as &dyn Kernel, 10), (&crate::fft::Fft, 256)] {
            let cfg = SweepConfig {
                n,
                memories: vec![4, 8, 16, 32],
                engine: Engine::Replay,
                ..SweepConfig::default()
            };
            let trace = trace_for(kernel, n).unwrap();
            assert!(trace.addr_bound() > 4 * 64, "{}: the cap must bind", kernel.name());
            assert_eq!(exact_profile(trace, 64).depth(), Some(64));
            for traffic in [TrafficModel::WORD, TrafficModel::device(4)] {
                let cfg = cfg.clone().with_traffic(traffic);
                let replay = cache_model(kernel, &cfg, &outer).unwrap();
                let onepass =
                    cache_model(kernel, &cfg.with_engine(Engine::StackDist), &outer).unwrap();
                assert_eq!(replay.runs.len(), 4);
                assert_eq!(replay.runs, onepass.runs, "{} {traffic:?}", kernel.name());
            }
        }
    }

    #[test]
    fn an_outer_level_past_the_bound_is_the_uncapped_sweep() {
        // A 2^40-word outer level sets the cap far past the address bound:
        // the numbers are the uncapped engine's, and the slot space
        // (min(2 · bound, 4 · D), saturating) allocates nothing by D.
        let cfg = SweepConfig {
            n: 256,
            memories: vec![8, 64, 512],
            engine: Engine::StackDist,
            ..SweepConfig::default()
        };
        let kernel = &crate::fft::Fft;
        let swept = cache_model(kernel, &cfg, &outer_levels(&[1 << 40])).unwrap();
        let uncapped = exact_profile(trace_for(kernel, 256).unwrap(), u64::MAX);
        for run in &swept.runs {
            let io = [uncapped.misses_at(run.m as u64), uncapped.misses_at(1 << 40)];
            assert_eq!(run.execution.cost.traffic().as_slice(), io, "m = {}", run.m);
        }
        let bound = trace_for(kernel, 256).unwrap().addr_bound();
        let mut capped = engine_for(bound).with_depth(1 << 40);
        let mut plain = engine_for(bound);
        capped.observe_trace(kernel_trace(kernel, 256).into_addrs());
        plain.observe_trace(kernel_trace(kernel, 256).into_addrs());
        assert_eq!(capped.resident_bytes(), plain.resident_bytes());
        for depth in [u64::MAX / 3, u64::MAX - 1] {
            assert_eq!(
                engine_for(bound).with_depth(depth).resident_bytes(),
                engine_for(bound).resident_bytes()
            );
        }
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
        let err = capacity_sweep_par(&AlwaysFails, &cfg).unwrap_err();
        assert!(
            matches!(&err, KernelError::BadParameters { reason }
                if reason.contains("no canonical access trace")),
            "{err}"
        );
    }

    #[test]
    fn oversized_traces_are_the_documented_error_at_once() {
        // 3n³ leaves u64 at n = 1,832,032: the trace is refused up front,
        // never wrapped into a plausible length and replayed.
        for engine in [
            Engine::StackDist,
            Engine::Replay,
            Engine::StackDistPar { threads: 1 },
            Engine::Sampled { shift: 4 },
        ] {
            let cfg = SweepConfig {
                n: 2_000_000,
                memories: vec![1024],
                verify: Verify::None,
                engine,
                measure: Measure::CacheModel,
                ..SweepConfig::default()
            };
            let err = sweep(&MatMul, &cfg).unwrap_err();
            assert!(
                matches!(&err, KernelError::BadParameters { reason }
                    if reason.contains("no canonical access trace at n = 2000000")),
                "{engine:?}: {err}"
            );
        }
    }

    #[test]
    fn engine_auto_switches_at_four_points() {
        let fft = crate::fft::Fft;
        let auto = |points: usize, outer: &[LevelSpec]| {
            let cfg = SweepConfig {
                outer: outer.to_vec(),
                ..cache_cfg(8, (0..points).map(|i| 16 << i).collect())
            };
            Engine::resolve(None, &fft, &cfg).unwrap()
        };
        assert_eq!(auto(3, &[]), Engine::Replay);
        assert_eq!(auto(4, &[]), Engine::StackDist);
        assert_eq!(auto(16, &[]), Engine::StackDist);
        // Every boundary is a capacity read: 2 memories over one outer
        // level are 4 reads.
        assert_eq!(auto(2, &outer_levels(&[1 << 20])), Engine::StackDist);
        // No memories asks for the whole curve, which only a profile
        // engine gives.
        assert_eq!(auto(0, &[]), Engine::StackDist);
    }

    fn tmp_policy(tag: &str, every: u64) -> CheckpointPolicy {
        let dir =
            std::env::temp_dir().join(format!("balance-sweep-ckpt-{tag}-{}", std::process::id()));
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
        let plain = capacity_sweep_par(&MatMul, &cfg).unwrap();
        assert!(plain.provenance.is_none());
        let roomy = Budget::unlimited().with_max_resident_bytes(1 << 30);
        let budgeted = capacity_sweep_par(&MatMul, &cfg.clone().with_budget(roomy)).unwrap();
        assert_eq!(plain.runs, budgeted.runs);
        let prov = budgeted.provenance.unwrap();
        assert!(!prov.degraded());
        assert_eq!(prov.used, Engine::StackDist);
        assert!(prov.describe().contains("as requested"));
    }

    #[test]
    fn robust_sweeps_equal_the_plain_sweep_across_the_registry() {
        // A budget that never trips and a checkpoint policy change how the
        // profile is built (capped or whole, chunked or resumable), never
        // a point.
        let wall = Budget::unlimited().with_max_wall(std::time::Duration::from_secs(600));
        let addresses = Budget::unlimited().with_max_addresses(u64::MAX);
        for kernel in crate::profservice::registry() {
            let kernel = kernel.as_ref();
            let n = [16, 8]
                .into_iter()
                .find(|&n| kernel.access_trace(n).is_some())
                .unwrap();
            let cfg = SweepConfig {
                n,
                memories: vec![4, 16, 64, 256],
                engine: Engine::StackDist,
                ..SweepConfig::default()
            };
            let plain = capacity_sweep_par(kernel, &cfg).unwrap();
            assert_eq!(plain.runs.len(), 4, "{}", kernel.name());
            let policy = tmp_policy(&format!("registry-{}", kernel.name()), 64);
            let dir = policy.dir.clone();
            let checkpointed = SweepConfig {
                checkpoint: Some(policy),
                ..cfg.clone()
            };
            for robust in [
                cfg.clone().with_budget(wall),
                cfg.clone().with_budget(addresses),
                checkpointed.clone(),
                checkpointed.with_budget(wall),
            ] {
                let swept = capacity_sweep_par(kernel, &robust).unwrap();
                assert_eq!(swept.runs, plain.runs, "{} {robust:?}", kernel.name());
                assert!(!swept.provenance.unwrap().degraded());
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn the_ladder_caps_at_the_sweep_depth_unless_a_policy_is_armed() {
        let none = FaultPlan::none();
        let cfg = SweepConfig {
            n: 12,
            engine: Engine::StackDist,
            ..SweepConfig::default()
        };
        let wall = Budget::unlimited().with_max_wall(std::time::Duration::from_secs(600));
        let budgeted = cfg.clone().with_budget(wall);
        let ladder =
            |cfg: &SweepConfig| profile_ladder(&MatMul, cfg, Engine::StackDist, 64, &none).unwrap();
        // Plain (the chunked pass) and budgeted (the resumable replay
        // under a deadline) both cap at the sweep's depth.
        for cfg in [&cfg, &budgeted] {
            let (profile, prov) = ladder(cfg);
            assert_eq!(profile.depth(), Some(64), "{cfg:?}");
            assert_eq!(prov.used, Engine::StackDist);
        }
        // Capped engines take no snapshot: a checkpoint policy keeps the
        // whole curve.
        let policy = tmp_policy("ladder-depth", 100);
        let dir = policy.dir.clone();
        let checkpointed = SweepConfig {
            checkpoint: Some(policy),
            ..budgeted.clone()
        };
        let (profile, prov) = ladder(&checkpointed);
        assert_eq!(profile.depth(), None);
        assert!(prov.checkpoints_written > 0, "{prov:?}");
        assert_eq!(profile, exact_matmul_profile(12));
        let _ = std::fs::remove_dir_all(dir);
        // The public entry builds the whole curve under a budget too.
        let (profile, _) = robust_capacity_profile(&MatMul, &budgeted, &none).unwrap();
        assert_eq!(profile.depth(), None);
    }

    #[test]
    fn a_resident_budget_prices_the_capped_exact_rung() {
        // matmul n = 12 tracks 432 addresses: about 20.7 kB of exact
        // state for the whole curve, under 5 kB capped at the sweep's
        // depth 64. So this test also pins the depth `sweep` passes.
        let cfg = SweepConfig {
            n: 12,
            memories: vec![16, 64],
            engine: Engine::StackDist,
            ..SweepConfig::default()
        };
        let plain = capacity_sweep_par(&MatMul, &cfg).unwrap();
        let budgeted = cfg
            .clone()
            .with_budget(Budget::unlimited().with_max_resident_bytes(8 * 1024));
        let swept = capacity_sweep_par(&MatMul, &budgeted).unwrap();
        assert_eq!(swept.runs, plain.runs);
        let prov = swept.provenance.unwrap();
        assert!(!prov.degraded(), "{prov:?}");
        assert_eq!(prov.used, Engine::StackDist);
        // The whole curve does not fit the same budget.
        let (profile, prov) =
            robust_capacity_profile(&MatMul, &budgeted, &FaultPlan::none()).unwrap();
        assert!(
            matches!(prov.steps[0].trip, BudgetTrip::Resident { .. }),
            "{prov:?}"
        );
        assert!(!profile.is_exact());
        // Nor does a sweep whose outer level sets D past the bound.
        let outer = SweepConfig {
            outer: outer_levels(&[1024]),
            ..budgeted
        };
        let prov = capacity_sweep_par(&MatMul, &outer).unwrap().provenance.unwrap();
        assert!(prov.degraded(), "{prov:?}");
    }

    #[test]
    fn tripped_resident_budget_degrades_to_sampling_and_reports_it() {
        // matmul n = 12 tracks 3·12² = 432 addresses ≈ 14 kB of exact
        // engine state even capped at the sweep's depth 256: a 1 kB
        // budget forces a sampled rung, and the one at rate 2^-8 (one
        // renamed address) fits.
        let budget = Budget::unlimited().with_max_resident_bytes(1024);
        let cfg = SweepConfig {
            n: 12,
            memories: vec![16, 256],
            engine: Engine::StackDistPar { threads: 4 },
            ..SweepConfig::default()
        }
        .with_budget(budget);
        let result = capacity_sweep_par(&MatMul, &cfg).unwrap();
        let prov = result.provenance.clone().unwrap();
        assert!(prov.degraded());
        assert!(matches!(prov.used, Engine::Sampled { .. }), "{prov:?}");
        // The whole ladder walk is on record: the par request runs as
        // serial, which degrades to sampled:4, then sampled:8.
        assert!(prov.steps.len() >= 2, "{prov:?}");
        assert!(matches!(prov.steps[0].trip, BudgetTrip::Resident { .. }));
        // The line names the requested engine, its stand-in, and the walk.
        let line = prov.describe();
        assert!(
            line.starts_with(
                "substituted bit-identical stackdist for stackdist-par:4, \
                 then degraded stackdist -> sampled:4 -> sampled:8 ("
            ),
            "{line}"
        );
        // A degraded request for the engine that ran first names no
        // substitution.
        let serial = SweepConfig {
            engine: Engine::StackDist,
            ..cfg
        };
        let line = capacity_sweep_par(&MatMul, &serial)
            .unwrap()
            .provenance
            .unwrap()
            .describe();
        assert!(
            line.starts_with("degraded stackdist -> sampled:4 -> sampled:8 ("),
            "{line}"
        );
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
        let result = capacity_sweep_par(&MatMul, &cfg).unwrap();
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
        let err = capacity_sweep_par(&MatMul, &cfg).unwrap_err();
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
        let result = capacity_sweep_par(&MatMul, &cfg).unwrap();
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
    fn checkpointed_stackdist_par_request_resumes_on_the_serial_replay() {
        let n = 12;
        let len = MatMul.access_trace(n).unwrap().len();
        let every = 500;
        let policy = tmp_policy("par-resume", every);
        let cfg = SweepConfig {
            n,
            memories: vec![64],
            engine: Engine::StackDistPar { threads: 3 },
            checkpoint: Some(policy.clone()),
            ..SweepConfig::default()
        };
        // A kill at half the trace lands in the serial replay; a segment
        // worker would count positions within its own third and miss it.
        let faults = FaultPlan::none().with_die_at(len / 2);
        let err = robust_capacity_profile(&MatMul, &cfg, &faults).unwrap_err();
        assert!(matches!(err, KernelError::Interrupted { .. }), "{err}");
        let (profile, prov) = robust_capacity_profile(&MatMul, &cfg, &FaultPlan::none()).unwrap();
        assert_eq!(profile, exact_matmul_profile(n));
        assert_eq!(prov.used, Engine::StackDist, "{prov:?}");
        let resumed = prov.resumed_at.unwrap();
        assert!((every..len).contains(&resumed), "resumed at {resumed}");
        assert!(
            prov.describe()
                .starts_with("substituted bit-identical stackdist for stackdist-par:3"),
            "{}",
            prov.describe()
        );
        let _ = std::fs::remove_dir_all(&policy.dir);
    }

    #[test]
    fn degradation_ladder_walks_par_serial_sampled_to_the_floor() {
        let mut engine = Engine::StackDist;
        let mut rungs = vec![engine];
        while let Some(next) = next_rung(engine) {
            engine = next;
            rungs.push(engine);
        }
        assert_eq!(rungs[1], Engine::Sampled { shift: 4 });
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
                estimated_resident_bytes(pair[1], bound, len, u64::MAX)
                    <= estimated_resident_bytes(pair[0], bound, len, u64::MAX),
                "{pair:?}"
            );
            assert!(
                engine_address_cost(pair[1], len) <= engine_address_cost(pair[0], len),
                "{pair:?}"
            );
        }
        // Replay and the segmented engine enter at the serial one-pass
        // rung (resolve substitutes it for them before the ladder runs).
        assert_eq!(next_rung(Engine::Replay), Some(Engine::StackDist));
        assert_eq!(
            next_rung(Engine::StackDistPar { threads: 0 }),
            Some(Engine::StackDist)
        );
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
        let err = executed(&MatMul, &cfg, &outer_levels(&[4096, 1024])).unwrap_err();
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
            executed(&MatMul, &empty_cfg, &outer_levels(&[4096, 1024])),
            cache_model(&MatMul, &empty_cfg, &outer_levels(&[4096, 1024])),
        ] {
            assert!(matches!(result, Err(KernelError::BadParameters { .. })));
        }
    }
}
