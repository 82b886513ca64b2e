//! Experiment E13 (ablation): explicit blocking vs LRU caching.
//!
//! The paper's introduction motivates local memory as a cache, but every
//! result in Section 3 is about *decomposition schemes* — explicitly managed
//! memory. This ablation quantifies the difference: the naive triple-loop
//! matmul address trace is run through an LRU cache of capacity `M`, and the
//! resulting ops-per-miss intensity is compared with the blocked kernel's
//! measured intensity at the same `M`. LRU on the naive order falls far
//! short of the `√M` law once the matrices outgrow the cache — the scheme,
//! not the SRAM, earns the balance.
//!
//! The measurement stack is built for scale: the trace streams from
//! [`NaiveTrace`] (O(1) memory — the `n = 512` trace is 402M addresses,
//! ~3 GB materialized) through the **one-pass stack-distance engine**, so
//! the LRU side of the ablation costs a single replay for *all* cache
//! sizes at once (misses at capacity `M` are exactly the accesses with
//! reuse distance > `M` — bit-identical to the per-`M` `LruCache` replay
//! this experiment used to run, pinned by property test). The blocked
//! runs verify by Freivalds checks at large `n` (first point fully
//! verified as the anchor) and fan out across cores. `Scale::Large` is
//! the `repro --scale large` tier.

use balance_kernels::matmul::{tile_side, MatMul, NaiveTrace};
use balance_kernels::sweep::par_map;
use balance_kernels::{Kernel, Verify};
use balance_machine::StackDistance;

use crate::experiments::Scale;
use crate::report::{Finding, Report};

/// E13 — LRU-vs-blocked ablation at equal memory capacity.
#[must_use]
pub fn e13_lru_ablation() -> Report {
    e13_lru_ablation_at(Scale::Small)
}

/// E13 at an explicit scale tier. `Small` (n = 32) is the default and CI
/// regime; `Large` (n = 512) exercises the streaming/direct-indexed path
/// on a 402M-address trace.
#[must_use]
pub fn e13_lru_ablation_at(scale: Scale) -> Report {
    // n chosen so a single matrix (n² words) outgrows every cache size
    // below — the regime the paper's blocking schemes are for.
    let (n, memories): (usize, Vec<usize>) = match scale {
        Scale::Small => (32, vec![48, 108, 192, 432, 768]),
        Scale::Large => (512, vec![3072, 12288, 49152, 110_592, 196_608]),
    };
    let ops = 2 * (n as u64).pow(3);
    let addr_bound = 3 * (n as u64) * (n as u64);

    // The LRU side of every row from ONE replay: stream the naive trace
    // through the stack-distance engine once, then read each capacity's
    // miss count off the histogram (bit-identical to replaying an LRU of
    // that capacity — the Mattson stack property, pinned by proptest).
    // At Scale::Large this turns five 402M-address cache replays into one.
    let profile = {
        let mut engine = StackDistance::with_address_bound(addr_bound);
        engine.observe_trace(NaiveTrace::new(n).map(|a| a.addr));
        engine.into_profile()
    };

    // One verified blocked run per memory size. par_map keeps the rows in
    // sweep order; the first point is the fully-verified anchor (as in
    // an executed sweep), the rest use the size-appropriate policy.
    let rows: Vec<(usize, f64, f64)> = par_map(&memories, |i, &m| {
        let misses = profile.misses_at(m as u64);
        let lru_intensity = ops as f64 / misses as f64;
        let verify = if i == 0 { Verify::Full } else { Verify::auto(n) };
        let run = MatMul.run_with(n, m, 99, verify).unwrap_or_else(|e| panic!("verified run: {e}"));
        (m, lru_intensity, run.intensity())
    });

    let mut body = format!(
        "{:>8} {:>6} {:>16} {:>16} {:>10}\n",
        "M", "b", "LRU intensity", "blocked intens.", "advantage"
    );
    let mut findings = Vec::new();
    let mut advantages = Vec::new();

    for &(m, lru_intensity, blocked_intensity) in &rows {
        let advantage = blocked_intensity / lru_intensity;
        advantages.push((m, advantage));
        body.push_str(&format!(
            "{:>8} {:>6} {:>16.3} {:>16.3} {:>9.2}x\n",
            m,
            tile_side(m),
            lru_intensity,
            blocked_intensity,
            advantage
        ));
    }

    // The blocked scheme must beat naive+LRU, increasingly so with M.
    let first = advantages.first().unwrap_or_else(|| panic!("nonempty")).1;
    let last = advantages.last().unwrap_or_else(|| panic!("nonempty")).1;
    findings.push(Finding::new(
        "blocked beats naive+LRU at every M",
        "advantage > 1×",
        format!(
            "min {:.2}×",
            advantages.iter().map(|a| a.1).fold(f64::MAX, f64::min)
        ),
        advantages.iter().all(|a| a.1 > 1.0),
    ));
    findings.push(Finding::new(
        "advantage grows with memory",
        "rising",
        format!("{first:.2}× → {last:.2}×"),
        last > first,
    ));

    // Control: when the whole problem fits in cache, LRU is fine — only
    // compulsory misses remain. Read off the same histogram: no extra
    // replay needed.
    let m_fits = 3 * n * n + 8;
    let misses = profile.misses_at(m_fits as u64);
    findings.push(Finding::new(
        "control: fully-resident problem has compulsory misses only",
        format!("{} misses (A, B, C touched once)", 3 * n * n),
        format!("{misses} misses"),
        misses == (3 * n * n) as u64,
    ));

    Report {
        id: "E13",
        title: "ablation: explicit blocking vs LRU caching at equal capacity",
        body,
        findings,
    }
}
