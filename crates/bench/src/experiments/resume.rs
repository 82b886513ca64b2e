//! Experiment E24 (resume): fault-tolerant long runs, demonstrated.
//!
//! PR 7's robustness layer promises that a multi-hour replay is never
//! lost to a crash and never OOMs a shared host: checkpoints make a
//! killed replay resumable *bit-identically*, corrupt images are
//! detected and discarded (never trusted), resource budgets degrade the
//! engine down the sampling ladder instead of failing, and a checkpointed
//! request for the segmented engine runs the one resumable exact engine,
//! the serial replay. This experiment executes each of those promises
//! under the deterministic fault-injection harness
//! ([`balance_machine::FaultPlan`]) and checks the results against the
//! uninterrupted exact curve.
//!
//! The CI kill/resume smoke job is the out-of-process counterpart: it
//! SIGKILLs a checkpointed `repro -- bigtrace` run mid-replay, re-runs
//! it, and expects the resumed curve to pass the same assertions — this
//! experiment pins the same behavior in-process, deterministically, at
//! every `cargo test`.

use balance_kernels::matmul::MatMul;
use balance_kernels::sweep::{engine_spec, robust_capacity_profile, Engine, SweepConfig};
use balance_kernels::{Kernel, KernelError};
use balance_machine::{CheckpointPolicy, FaultPlan, StackDistance};
use balance_core::Budget;

use crate::report::{Finding, Report};

/// Problem size: `3·64³ ≈ 786K` addresses — big enough for several
/// checkpoint intervals, small enough for the debug-build test suite.
const N: usize = 64;

/// Checkpoint interval in addresses (~15 images over the trace).
const EVERY: u64 = 50_000;

/// Where the kill is injected: past several checkpoints, mid-trace.
const DIE_AT: u64 = 400_000;

fn sweep_cfg(engine: Engine, policy: Option<CheckpointPolicy>) -> SweepConfig {
    SweepConfig {
        n: N,
        memories: vec![64, 1024],
        engine,
        checkpoint: policy,
        ..SweepConfig::default()
    }
}

fn tmp_policy(tag: &str) -> CheckpointPolicy {
    let dir = std::env::temp_dir().join(format!("balance-e24-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointPolicy::every(dir, EVERY)
}

/// E24 — kill/resume bit-identity, corrupt-image fallback, budget
/// degradation with provenance, and the serial substitution for a
/// checkpointed segmented request, all under the seeded fault harness.
#[must_use]
pub fn e24_resume() -> Report {
    let trace = MatMul
        .access_trace(N)
        .unwrap_or_else(|| panic!("matmul has a canonical trace"));
    let len = trace.len();
    let bound = trace.addr_bound();
    let reference = StackDistance::profile_of_bounded(trace.into_addrs(), bound);

    let mut body = format!(
        "naive matmul trace, n = {N}: {len} addresses over {bound} words\n\
         checkpoint interval: {EVERY} addresses; injected kill at address {DIE_AT}\n\n"
    );
    let mut findings = Vec::new();

    // 1+2: a killed checkpointed replay is a typed interruption, and the
    // re-run resumes from the persisted image to the exact curve.
    let policy = tmp_policy("kill");
    let cfg = sweep_cfg(Engine::StackDist, Some(policy.clone()));
    let killed = robust_capacity_profile(&MatMul, &cfg, &FaultPlan::none().with_die_at(DIE_AT));
    findings.push(Finding::new(
        "injected kill mid-replay is the typed interruption",
        "KernelError::Interrupted",
        format!("{killed:?}").chars().take(60).collect::<String>(),
        matches!(killed, Err(KernelError::Interrupted { .. })),
    ));
    let (resumed_profile, prov) = robust_capacity_profile(&MatMul, &cfg, &FaultPlan::none())
        .unwrap_or_else(|e| panic!("resumed replay completes: {e}"));
    let resumed_at = prov.resumed_at.unwrap_or(0);
    body.push_str(&format!("resume after kill: {}\n", prov.describe()));
    findings.push(Finding::new(
        "re-run resumes from the last persisted checkpoint",
        format!("resumed in ({EVERY}..{DIE_AT}] addresses"),
        format!("resumed at {resumed_at}"),
        (EVERY..=DIE_AT).contains(&resumed_at),
    ));
    findings.push(Finding::new(
        "resumed curve bit-identical to the uninterrupted replay",
        "identical capacity profiles",
        format!("{} accesses", resumed_profile.accesses()),
        resumed_profile == reference,
    ));
    let _ = std::fs::remove_dir_all(&policy.dir);

    // 3: corrupted checkpoint images are rejected by the checksum; the
    // replay restarts from scratch and is still exact.
    let policy = tmp_policy("corrupt");
    let cfg = sweep_cfg(Engine::StackDist, Some(policy.clone()));
    let faults = FaultPlan::none()
        .with_die_at(DIE_AT)
        .with_corrupt_checkpoints(u32::MAX);
    let _ = robust_capacity_profile(&MatMul, &cfg, &faults);
    let (fresh_profile, prov) = robust_capacity_profile(&MatMul, &cfg, &FaultPlan::none())
        .unwrap_or_else(|e| panic!("fresh replay completes: {e}"));
    body.push_str(&format!("resume after corruption: {}\n", prov.describe()));
    findings.push(Finding::new(
        "corrupt checkpoint image discarded, fresh replay still exact",
        "no resume, identical profiles",
        format!("resumed_at = {:?}", prov.resumed_at),
        prov.resumed_at.is_none() && fresh_profile == reference,
    ));
    let _ = std::fs::remove_dir_all(&policy.dir);

    // 4: a tripped memory budget degrades down the ladder to the sampled
    // engine — reported in the provenance — instead of failing; and the
    // degraded profile self-identifies as approximate, which is what
    // keeps it out of exact-only fast paths downstream.
    let budget = Budget::unlimited().with_max_resident_bytes(16 * 1024);
    let cfg = sweep_cfg(Engine::StackDistPar { threads: 0 }, None).with_budget(budget);
    let (degraded_profile, prov) = robust_capacity_profile(&MatMul, &cfg, &FaultPlan::none())
        .unwrap_or_else(|e| panic!("degraded sweep completes: {e}"));
    body.push_str(&format!("tripped 16 kB budget: {}\n", prov.describe()));
    findings.push(Finding::new(
        "tripped resident budget degrades to the sampled engine",
        "provenance: substituted ... for stackdist-par, then degraded ... -> sampled",
        prov.describe(),
        prov.degraded()
            && matches!(prov.used, Engine::Sampled { .. })
            && prov.describe().starts_with(
                "substituted bit-identical stackdist for stackdist-par, then degraded",
            ),
    ));
    findings.push(Finding::new(
        "degraded profile self-identifies as approximate",
        "is_exact() == false",
        format!("is_exact = {}", degraded_profile.is_exact()),
        !degraded_profile.is_exact(),
    ));

    // 5: a checkpointed stackdist-par request runs the serial resumable
    // replay (the one resumable exact engine), so the same kill resumes
    // it, and the provenance reports the substitution.
    let policy = tmp_policy("par");
    let cfg = sweep_cfg(Engine::StackDistPar { threads: 3 }, Some(policy.clone()));
    let _ = robust_capacity_profile(&MatMul, &cfg, &FaultPlan::none().with_die_at(DIE_AT));
    let (par_profile, prov) = robust_capacity_profile(&MatMul, &cfg, &FaultPlan::none())
        .unwrap_or_else(|e| panic!("resumed stackdist-par request completes: {e}"));
    body.push_str(&format!(
        "checkpointed stackdist-par: {}\n",
        prov.describe()
    ));
    findings.push(Finding::new(
        "a checkpointed stackdist-par request runs the serial resumable replay and reports the substitution",
        "substituted stackdist, resumed, identical profiles",
        format!("used {}, resumed_at = {:?}", engine_spec(prov.used), prov.resumed_at),
        prov.used == Engine::StackDist
            && prov.describe().starts_with("substituted bit-identical stackdist for stackdist-par")
            && prov.resumed_at.is_some()
            && par_profile == reference,
    ));
    let _ = std::fs::remove_dir_all(&policy.dir);

    Report {
        id: "E24",
        title:
            "fault-tolerant long runs: kill/resume, corrupt images, budgets, one resumable engine",
        body,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e24_passes_end_to_end() {
        let report = e24_resume();
        assert!(report.passed(), "{report}");
    }
}
