//! The self-healing query path over the crash-safe profile store.
//!
//! `balance_machine::profstore` promises that a corrupted entry is
//! *detected and quarantined*, never served; this module supplies the
//! other half of the robustness contract — **repair**. A
//! [`ProfileService`] answers every lookup from the store when it can,
//! and degrades down a ladder when it cannot:
//!
//! 1. **store hit** — the validated entry is served as-is (O(1) reads,
//!    no replay);
//! 2. **analytic recompute** — for the nine kernels with a closed-form
//!    reuse-distance histogram this is free *and* exact, so a miss or a
//!    quarantined entry costs microseconds to heal;
//! 3. **budgeted stack-distance recompute** — kernels without a closed
//!    form replay their canonical trace through
//!    [`robust_capacity_profile`] on the engine `auto` resolves to: under
//!    a budget, the serial one-pass engine, whose ladder degrades exact →
//!    sampled rather than hanging; with no budget, the same engine, or the
//!    plain segmented one past `AUTO_SEGMENT_LEN` addresses;
//!
//! and the repaired artifact is **re-persisted** so the next query is a
//! hit again. Every answer carries its [`ServeSource`] (hit vs repaired,
//! and from what) plus the recompute's `Provenance` when one ran, so a
//! degraded repair is reported, never silent — and exact-only consumers
//! (the `measured_balance_memory` fast path in `balance-parallel`) keep
//! refusing non-exact artifacts through the profile's own exactness bit,
//! exactly as PRs 7/8 gated.

use balance_core::Budget;
use balance_machine::{
    CapacityProfile, FaultPlan, Lookup, ProfileKey, ProfileMeta, ProfilePayload, ProfileStore,
    StoreError,
};

use crate::error::KernelError;
use crate::sweep::{
    engine_spec, robust_capacity_profile, tagged_profile, Engine, Provenance, SweepConfig,
    TrafficModel,
};
use crate::traits::{all_kernels, extension_kernels, Kernel};

/// Every kernel the store precomputes: the eight paper kernels plus the
/// three extensions, in registry order.
#[must_use]
pub fn registry() -> Vec<Box<dyn Kernel>> {
    let mut kernels = all_kernels();
    kernels.extend(extension_kernels());
    kernels
}

/// The canonical kernel name (`Kernel::name`, the spelling stored in
/// profile image headers) that `name` stands for: the short aliases `lu`,
/// `grid2` and `grid3`, else the name itself.
#[must_use]
pub fn canonical_kernel(name: &str) -> &str {
    match name {
        "lu" => "triangularization",
        "grid2" => "grid2d",
        "grid3" => "grid3d",
        other => other,
    }
}

/// Looks a kernel up by its canonical `Kernel::name()` or an alias
/// ([`canonical_kernel`]).
#[must_use]
pub fn registry_kernel(name: &str) -> Option<Box<dyn Kernel>> {
    let name = canonical_kernel(name);
    registry().into_iter().find(|k| k.name() == name)
}

/// The store identity of one (kernel, problem size, traffic model)
/// curve.
#[must_use]
pub fn key_for(kernel: &str, n: usize, model: TrafficModel) -> ProfileKey {
    ProfileKey {
        kernel: kernel.to_string(),
        n: n as u64,
        line_words: model.line_words,
        writebacks: model.writebacks,
    }
}

/// Where an answer came from — the store-hit vs repaired distinction the
/// issue's robustness contract requires every answer to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSource {
    /// Served from a validated store entry; nothing was recomputed.
    Hit,
    /// No entry existed; the profile was computed and persisted.
    RepairedMiss,
    /// The entry existed but failed validation and was quarantined; the
    /// profile was recomputed and re-persisted.
    RepairedQuarantine,
}

impl core::fmt::Display for ServeSource {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeSource::Hit => write!(f, "hit"),
            ServeSource::RepairedMiss => write!(f, "repaired(miss)"),
            ServeSource::RepairedQuarantine => write!(f, "repaired(quarantined)"),
        }
    }
}

/// One answered lookup: the profile plus its full provenance story.
#[derive(Debug)]
pub struct Served {
    /// The profile (capacity or dual-ledger traffic).
    pub payload: ProfilePayload,
    /// Hit vs repaired, and what was repaired.
    pub source: ServeSource,
    /// CLI spelling of the engine that produced the artifact (stored
    /// provenance on a hit, the recompute's engine on a repair).
    pub engine: String,
    /// The recompute's provenance when one ran this call (`None` on a
    /// store hit) — carries any budget-forced degradation steps.
    pub provenance: Option<Provenance>,
}

impl Served {
    /// The read/fetch curve, whichever payload kind carries it.
    #[must_use]
    pub fn profile(&self) -> &CapacityProfile {
        self.payload.profile()
    }

    /// Whether the artifact is exact (unsampled) — what exact-only
    /// consumers gate on.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.payload.is_exact()
    }

    /// Whether a budget trip degraded this call's recompute below the
    /// engine it asked for.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.provenance.as_ref().is_some_and(Provenance::degraded)
    }

    /// One-line provenance summary for CLI output, e.g.
    /// `hit [analytic, exact]` or
    /// `repaired(quarantined) [sampled:4, rate 1/16, degraded]`.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut tags = vec![self.engine.clone()];
        if self.is_exact() {
            tags.push("exact".to_string());
        } else {
            tags.push(format!(
                "rate 1/{}",
                1u64 << self.profile().sample_shift()
            ));
        }
        if self.degraded() {
            tags.push("degraded".to_string());
        }
        format!("{} [{}]", self.source, tags.join(", "))
    }
}

/// The self-healing query path: a [`ProfileStore`] plus the recompute
/// ladder that repairs what the store cannot serve. See the module docs.
#[derive(Debug)]
pub struct ProfileService<'a> {
    store: &'a ProfileStore,
    budget: Option<Budget>,
}

impl<'a> ProfileService<'a> {
    /// A service over `store` with an unbounded recompute ladder.
    #[must_use]
    pub fn new(store: &'a ProfileStore) -> ProfileService<'a> {
        ProfileService {
            store,
            budget: None,
        }
    }

    /// The same service with a resource budget on recomputes; a tripped
    /// limit degrades the repair (exact → sampled) instead of hanging,
    /// and the substitution is reported in the answer's provenance.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> ProfileService<'a> {
        self.budget = Some(budget);
        self
    }

    /// The store this service answers from.
    #[must_use]
    pub fn store(&self) -> &ProfileStore {
        self.store
    }

    /// Answers one lookup: store hit, or heal (recompute + re-persist)
    /// on a miss or a quarantined entry.
    ///
    /// # Errors
    ///
    /// [`KernelError`] when the kernel cannot produce a profile at `n`
    /// under the configured budget, or when the store itself fails at
    /// the filesystem level.
    pub fn fetch(
        &self,
        kernel: &dyn Kernel,
        n: usize,
        model: TrafficModel,
    ) -> Result<Served, KernelError> {
        let key = key_for(kernel.name(), n, model);
        match self.store.get(&key).map_err(store_err)? {
            Lookup::Hit { meta, payload } => Ok(Served {
                payload,
                source: ServeSource::Hit,
                engine: meta.engine,
                provenance: None,
            }),
            Lookup::Miss => self.repair(kernel, n, model, ServeSource::RepairedMiss),
            Lookup::Quarantined { .. } => {
                self.repair(kernel, n, model, ServeSource::RepairedQuarantine)
            }
        }
    }

    fn repair(
        &self,
        kernel: &dyn Kernel,
        n: usize,
        model: TrafficModel,
        source: ServeSource,
    ) -> Result<Served, KernelError> {
        let (meta, payload, provenance) = self.recompute(kernel, n, model)?;
        self.store.put(&meta, &payload).map_err(store_err)?;
        Ok(Served {
            payload,
            source,
            engine: meta.engine,
            provenance,
        })
    }

    /// The repair ladder, without touching the store: the whole curve on
    /// the engine [`Engine::resolve`] picks for `auto` — analytic when the
    /// kernel derives a closed form (free, exact), else a budgeted
    /// stack-distance replay whose own ladder degrades to sampled; the
    /// device-real dual ledger always comes from one exact tagged pass.
    ///
    /// # Errors
    ///
    /// As [`ProfileService::fetch`], minus store I/O.
    pub fn recompute(
        &self,
        kernel: &dyn Kernel,
        n: usize,
        model: TrafficModel,
    ) -> Result<(ProfileMeta, ProfilePayload, Option<Provenance>), KernelError> {
        if model.writebacks {
            let trace = kernel
                .access_trace(n)
                .ok_or_else(|| KernelError::BadParameters {
                    reason: format!(
                        "{} has no canonical access trace at n = {n} (device-real \
                         entries need one)",
                        kernel.name()
                    ),
                })?;
            let traffic = tagged_profile(trace, model, u64::MAX);
            let meta = ProfileMeta {
                kernel: kernel.name().to_string(),
                n: n as u64,
                engine: engine_spec(Engine::StackDist),
                sample_shift: 0,
                line_words: model.line_words,
                writebacks: true,
            };
            return Ok((meta, ProfilePayload::Traffic(traffic), None));
        }
        if model.line_words != 1 {
            return Err(KernelError::BadParameters {
                reason: format!(
                    "the profile store holds word-granular curves and device-real \
                     (write-back) curves; a line-granular read-only model \
                     (line_words = {}, no writebacks) has no stored form",
                    model.line_words
                ),
            });
        }
        let cfg = SweepConfig {
            n,
            budget: self.budget,
            ..SweepConfig::default()
        };
        let engine = Engine::resolve(None, kernel, &cfg)?;
        let (profile, provenance) =
            robust_capacity_profile(kernel, &cfg.with_engine(engine), &FaultPlan::none())?;
        let meta = ProfileMeta {
            kernel: kernel.name().to_string(),
            n: n as u64,
            engine: engine_spec(provenance.used),
            sample_shift: profile.sample_shift(),
            line_words: 1,
            writebacks: false,
        };
        Ok((meta, ProfilePayload::Capacity(profile), Some(provenance)))
    }
}

/// What one [`build_store`] pass did.
#[derive(Debug, Default)]
pub struct BuildOutcome {
    /// Entries computed and published this pass.
    pub built: usize,
    /// Entries already present and valid (the resumable fast path).
    pub skipped: usize,
    /// Grid points that could not be built, with the reason (the build
    /// continues past them).
    pub failed: Vec<(ProfileKey, String)>,
}

/// Precomputes `kernels` × `grid` into the store, resumably: grid points
/// whose entry already validates are skipped, so a killed build re-run
/// completes only the remainder. Faults are threaded into every publish
/// (pass [`FaultPlan::none`] outside harness runs). Per-point failures
/// are recorded, not fatal.
///
/// # Errors
///
/// [`KernelError::Interrupted`] only for store-level filesystem failures
/// while *reading* (publish failures are per-point outcomes).
pub fn build_store(
    store: &ProfileStore,
    kernels: &[Box<dyn Kernel>],
    grid: &[usize],
    model: TrafficModel,
    budget: Option<Budget>,
    faults: &FaultPlan,
) -> Result<BuildOutcome, KernelError> {
    let mut service = ProfileService::new(store);
    if let Some(budget) = budget {
        service = service.with_budget(budget);
    }
    let mut outcome = BuildOutcome::default();
    for kernel in kernels {
        for &n in grid {
            let key = key_for(kernel.name(), n, model);
            if matches!(store.get(&key).map_err(store_err)?, Lookup::Hit { .. }) {
                outcome.skipped += 1;
                continue;
            }
            match service.recompute(kernel.as_ref(), n, model) {
                Ok((meta, payload, _provenance)) => {
                    match store.put_with(&meta, &payload, faults) {
                        Ok(()) => outcome.built += 1,
                        Err(e) => outcome.failed.push((key, e.to_string())),
                    }
                }
                Err(e) => outcome.failed.push((key, e.to_string())),
            }
        }
    }
    Ok(outcome)
}

fn store_err(e: StoreError) -> KernelError {
    KernelError::Interrupted {
        reason: format!("profile store: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::MatMul;
    use crate::fft::Fft;
    use std::path::PathBuf;

    fn tmp_store(tag: &str) -> (PathBuf, ProfileStore) {
        let dir = std::env::temp_dir().join(format!(
            "kb-profservice-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ProfileStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn miss_repairs_analytically_and_second_fetch_hits() {
        let (dir, store) = tmp_store("miss");
        let service = ProfileService::new(&store);
        let first = service.fetch(&MatMul, 24, TrafficModel::WORD).unwrap();
        assert_eq!(first.source, ServeSource::RepairedMiss);
        assert_eq!(first.engine, "analytic");
        assert!(first.is_exact() && !first.degraded());
        let second = service.fetch(&MatMul, 24, TrafficModel::WORD).unwrap();
        assert_eq!(second.source, ServeSource::Hit);
        assert!(second.provenance.is_none());
        // Bit-identical to a fresh recompute at every probed capacity.
        let (_, fresh, _) = service.recompute(&MatMul, 24, TrafficModel::WORD).unwrap();
        assert_eq!(second.payload, fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repair_and_sweep_share_one_backend_chooser() {
        use crate::sweep::direct_bound;
        // Both boundaries the two call sites ever used: the repair's old
        // 2^26 cut and the sweeps' u32::MAX / 2, which survives.
        let cut = u64::from(u32::MAX / 2);
        for (bound, direct) in [
            (0, false),
            (1, true),
            (1 << 26, true),
            ((1 << 26) + 1, true),
            (cut - 1, true),
            (cut, false),
            (u64::MAX, false),
        ] {
            assert_eq!(
                direct_bound(bound),
                direct.then_some(bound),
                "bound {bound}"
            );
        }
        // The repair's chunk-fed tagged pass is the engine's own tagged
        // entry point over the trace's iterator view, bit for bit.
        let (dir, store) = tmp_store("chooser");
        let service = ProfileService::new(&store);
        let (_, payload, _) = service
            .recompute(&MatMul, 16, TrafficModel::device(4))
            .unwrap();
        let trace = MatMul.access_trace(16).unwrap();
        let bound = trace.addr_bound();
        assert_eq!(
            payload,
            ProfilePayload::Traffic(balance_machine::StackDistance::traffic_profile_of_bounded(
                trace.into_accesses(),
                4,
                bound
            ))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_entry_is_healed_and_repersisted() {
        let (dir, store) = tmp_store("heal");
        let service = ProfileService::new(&store);
        // Publish a torn image under matmul's key.
        let (meta, payload, _) = service.recompute(&MatMul, 16, TrafficModel::WORD).unwrap();
        store
            .put_with(
                &meta,
                &payload,
                &FaultPlan::none().with_torn_store_writes(1),
            )
            .unwrap();
        let healed = service.fetch(&MatMul, 16, TrafficModel::WORD).unwrap();
        assert_eq!(healed.source, ServeSource::RepairedQuarantine);
        assert_eq!(healed.payload, payload, "repair must be bit-identical");
        assert_eq!(store.quarantined_files().unwrap().len(), 1);
        assert_eq!(
            service
                .fetch(&MatMul, 16, TrafficModel::WORD)
                .unwrap()
                .source,
            ServeSource::Hit
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_floor_degrades_to_sampled_and_reports_it() {
        let (dir, store) = tmp_store("degrade");
        // fft has no closed form, so the repair replays — and an
        // address budget below the trace length forces the sampled rung.
        let budget = Budget::unlimited().with_max_addresses(64);
        let service = ProfileService::new(&store).with_budget(budget);
        let served = service.fetch(&Fft, 64, TrafficModel::WORD).unwrap();
        assert!(matches!(served.source, ServeSource::RepairedMiss));
        assert!(served.degraded(), "address budget must trip the ladder");
        assert!(!served.is_exact(), "exact-only consumers must refuse this");
        // The degraded artifact is persisted with its rate in the header.
        match store
            .get(&key_for("fft", 64, TrafficModel::WORD))
            .unwrap()
        {
            Lookup::Hit { meta, payload } => {
                assert!(meta.sample_shift > 0);
                assert!(!payload.is_exact());
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn device_model_serves_the_dual_ledger() {
        let (dir, store) = tmp_store("device");
        let service = ProfileService::new(&store);
        let model = TrafficModel::device(8);
        let served = service.fetch(&MatMul, 16, model).unwrap();
        match &served.payload {
            ProfilePayload::Traffic(t) => assert_eq!(t.line_words(), 8),
            other => panic!("expected traffic payload, got {other:?}"),
        }
        assert_eq!(
            service.fetch(&MatMul, 16, model).unwrap().source,
            ServeSource::Hit
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_store_is_resumable() {
        let (dir, store) = tmp_store("build");
        let kernels: Vec<Box<dyn Kernel>> = vec![Box::new(MatMul), Box::new(Fft)];
        let grid = [16usize, 32];
        let first = build_store(
            &store,
            &kernels,
            &grid,
            TrafficModel::WORD,
            None,
            &FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(first.built, 4);
        assert_eq!(first.skipped, 0);
        assert!(first.failed.is_empty());
        let second = build_store(
            &store,
            &kernels,
            &grid,
            TrafficModel::WORD,
            None,
            &FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(second.built, 0);
        assert_eq!(second.skipped, 4, "a re-run must skip valid entries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_builds_over_overlapping_grids_leave_a_healthy_store() {
        let (dir, store) = tmp_store("concurrent");
        let grids: [&[usize]; 2] = [&[16, 32, 64], &[32, 64, 128]];
        let start = std::sync::Barrier::new(grids.len());
        let outcomes: Vec<BuildOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = grids
                .iter()
                .map(|grid| {
                    let (store, start) = (&store, &start);
                    scope.spawn(move || {
                        let kernels = registry();
                        start.wait();
                        build_store(
                            store,
                            &kernels,
                            grid,
                            TrafficModel::WORD,
                            None,
                            &FaultPlan::none(),
                        )
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for outcome in &outcomes {
            assert!(outcome.failed.is_empty(), "{:?}", outcome.failed);
        }
        let report = store.fsck().unwrap();
        assert!(report.quarantined.is_empty(), "{report}");
        assert_eq!(report.cleaned_tmp, 0, "{report}");
        let mut union: Vec<ProfileKey> = registry()
            .iter()
            .flat_map(|k| [16, 32, 64, 128].map(|n| key_for(k.name(), n, TrafficModel::WORD)))
            .collect();
        union.sort_by_key(ProfileKey::file_name);
        assert_eq!(store.keys().unwrap(), union);
        for key in &union {
            assert!(
                matches!(store.get(key).unwrap(), Lookup::Hit { .. }),
                "{key}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_covers_all_eleven_kernels_by_name() {
        let names: Vec<&str> = registry().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 11);
        for name in ["matmul", "fft", "sort", "grid2d", "convolution"] {
            assert!(registry_kernel(name).is_some(), "{name} missing");
        }
        assert!(registry_kernel("nope").is_none());
    }
}
