//! SHARDS-style spatially hash-sampled stack distances: approximate
//! [`CapacityProfile`]s for billion-address traces at a fraction of the
//! exact engine's cost.
//!
//! The construction follows Waldspurger, Park, Garthwaite & Ahmad,
//! *Efficient MRC Construction with SHARDS* (FAST 2015): fix a hash
//! function and keep an access **iff its address hashes into the sample**
//! — here, `splitmix64(addr) & (2^shift − 1) == 0`, a rate of
//! `R = 2^−shift`. Because the filter is a pure function of the address,
//! either *every* access to an address is kept or *none* is, so the kept
//! sub-trace preserves reuse structure exactly: each sampled access's
//! measured stack distance counts only sampled intervening addresses,
//! which is `≈ R ×` its true distance, and sampled hit counts are
//! `≈ R ×` true hit counts. Queries on the resulting profile re-scale
//! both axes by `1/R = 2^shift` (see [`CapacityProfile::hits_at`]); the
//! total access count is tracked exactly, since skipping an access still
//! counts it.
//!
//! The error is statistical, not worst-case: SHARDS reports well under
//! 2% mean absolute error at rates as low as `R = 0.001` on real
//! workloads. This repo pins an empirical bound by property test on the
//! registry kernels (sampled-vs-exact relative IO error, shrinking as
//! `R → 1`), and experiment E23 reports the measured max relative error
//! on a 10⁹-address trace. `shift = 0` keeps every address: the profile
//! degenerates to the exact engine's, bit for bit.

use crate::stackdist::{CapacityProfile, StackDistance};

/// The splitmix64 finalizer (Vigna / Steele et al.) — a cheap, fixed,
/// statistically strong 64-bit mixer. Used as the sampling hash so the
/// sampled address set is deterministic across runs, engines and
/// machines.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Largest supported sampling-rate exponent (rate `2^-32`): beyond this
/// the expected sample is empty for any address space this repo models.
pub const MAX_SAMPLE_SHIFT: u32 = 32;

/// The streaming sampled engine: a [`StackDistance`] fed only the
/// addresses that hash into the sample, plus an exact count of all
/// accesses. Mirrors the exact engine's API.
///
/// # Examples
///
/// ```
/// use balance_machine::SampledStackDistance;
///
/// // shift = 0 keeps every address: exact, bit for bit.
/// let trace: Vec<u64> = (0..400u64).map(|i| (i * 7) % 50).collect();
/// let mut sampled = SampledStackDistance::new(0);
/// sampled.observe_trace(trace.iter().copied());
/// let p = sampled.into_profile();
/// assert!(p.is_exact());
/// assert_eq!(p.misses_at(16), balance_machine::StackDistance::profile_of(trace).misses_at(16));
/// ```
#[derive(Debug, Clone)]
pub struct SampledStackDistance {
    engine: StackDistance,
    mask: u64,
    shift: u32,
    accesses: u64,
}

impl SampledStackDistance {
    /// A sampled engine at rate `2^-shift` over any address space. The
    /// inner engine renames each sampled address to a dense id, so it
    /// tracks only the ~`2^-shift` share of addresses in the sample.
    ///
    /// # Panics
    ///
    /// Panics if `shift > MAX_SAMPLE_SHIFT`.
    #[must_use]
    pub fn new(shift: u32) -> Self {
        assert!(
            shift <= MAX_SAMPLE_SHIFT,
            "sampling shift {shift} exceeds {MAX_SAMPLE_SHIFT}"
        );
        SampledStackDistance {
            // The sample is a small share of the trace's addresses: start
            // the slot space small and let it double.
            engine: StackDistance::renamed(16),
            mask: (1u64 << shift) - 1,
            shift,
            accesses: 0,
        }
    }

    /// Observes one word access: counted always, fed to the inner engine
    /// only when the address hashes into the sample.
    pub fn observe(&mut self, addr: u64) {
        self.accesses += 1;
        if splitmix64(addr) & self.mask == 0 {
            self.engine.observe(addr);
        }
    }

    /// Feeds a whole address trace (streaming, O(1) extra memory).
    pub fn observe_trace(&mut self, addrs: impl IntoIterator<Item = u64>) {
        for a in addrs {
            self.observe(a);
        }
    }

    /// Accesses observed so far (all of them, sampled or not).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Addresses that hashed into the sample so far (distinct).
    #[must_use]
    pub fn sampled_distinct(&self) -> u64 {
        self.engine.distinct()
    }

    /// Bytes the inner engine holds allocated
    /// ([`StackDistance::resident_bytes`]).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.engine.resident_bytes()
    }

    /// Finalizes into an approximate [`CapacityProfile`] carrying the
    /// sampling rate ([`CapacityProfile::is_exact`] returns `false` for
    /// `shift > 0`).
    #[must_use]
    pub fn into_profile(self) -> CapacityProfile {
        self.engine.into_sampled_profile(self.accesses, self.shift)
    }
}

/// Replays a whole trace through a fresh sampled engine at rate
/// `2^-shift`.
///
/// # Panics
///
/// As [`SampledStackDistance::new`].
#[must_use]
pub fn sampled_profile_of(
    addrs: impl IntoIterator<Item = u64>,
    shift: u32,
) -> CapacityProfile {
    let mut engine = SampledStackDistance::new(shift);
    engine.observe_trace(addrs);
    engine.into_profile()
}

/// [`sampled_profile_of`] for traces whose addresses lie in
/// `[0, addr_bound)`. The bound buys nothing here: the sampled engine
/// renames, so it never allocates an `addr_bound`-sized table, and the
/// result equals [`sampled_profile_of`]'s.
///
/// # Panics
///
/// As [`SampledStackDistance::new`].
#[must_use]
pub fn sampled_profile_of_bounded(
    addrs: impl IntoIterator<Item = u64>,
    _addr_bound: u64,
    shift: u32,
) -> CapacityProfile {
    sampled_profile_of(addrs, shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocked_trace(rounds: u64, working_set: u64) -> Vec<u64> {
        // Re-touches a working set repeatedly with a drifting window —
        // a dense reuse spectrum, like the blocked kernels the repo models.
        let mut t = Vec::new();
        for r in 0..rounds {
            for a in 0..working_set {
                t.push((a + r / 4) % (working_set + working_set / 3));
            }
        }
        t
    }

    /// Max miss-ratio error over a capacity ladder — SHARDS' own error
    /// metric: |misses_approx − misses_exact| / accesses, which is the
    /// curve distance that matters and stays meaningful near saturation
    /// (where relative IO error divides by a vanishing denominator).
    fn max_miss_ratio_err(exact: &CapacityProfile, approx: &CapacityProfile) -> f64 {
        let total = exact.accesses() as f64;
        let mut worst = 0.0f64;
        for k in 0..12u32 {
            let m = 1u64 << k;
            let e = exact.io_at(m) as f64;
            let a = approx.io_at(m) as f64;
            worst = worst.max((a - e).abs() / total);
        }
        worst
    }

    #[test]
    fn shift_zero_is_bit_exact() {
        let trace = blocked_trace(64, 300);
        let exact = StackDistance::profile_of(trace.iter().copied());
        let sampled = sampled_profile_of(trace.iter().copied(), 0);
        assert_eq!(exact, sampled);
        assert!(sampled.is_exact());
        assert_eq!(sampled.sample_shift(), 0);
        assert!((sampled.sampling_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn sampled_profile_reports_its_rate_and_true_accesses() {
        let trace = blocked_trace(32, 500);
        let p = sampled_profile_of_bounded(trace.iter().copied(), 700, 3);
        assert!(!p.is_exact());
        assert_eq!(p.sample_shift(), 3);
        assert!((p.sampling_rate() - 0.125).abs() < 1e-12);
        // Access count is exact even though only ~1/8 of addresses fed
        // the engine.
        assert_eq!(p.accesses(), trace.len() as u64);
        assert_eq!(p.misses_at(0), trace.len() as u64);
    }

    #[test]
    fn error_shrinks_toward_exact_as_rate_rises() {
        let trace = blocked_trace(48, 800);
        let exact = StackDistance::profile_of(trace.iter().copied());
        let err_coarse = max_miss_ratio_err(
            &exact,
            &sampled_profile_of(trace.iter().copied(), 5),
        );
        let err_fine = max_miss_ratio_err(
            &exact,
            &sampled_profile_of(trace.iter().copied(), 1),
        );
        let err_exact = max_miss_ratio_err(
            &exact,
            &sampled_profile_of(trace.iter().copied(), 0),
        );
        assert_eq!(err_exact, 0.0);
        // R = 1/2 must beat R = 1/32 on this dense-reuse trace (generous
        // slack keeps the assertion about the trend, not the noise).
        assert!(
            err_fine <= err_coarse + 0.02,
            "err(R=1/2) = {err_fine}, err(R=1/32) = {err_coarse}"
        );
        // And at R = 1/2 the curve is genuinely close.
        assert!(err_fine < 0.06, "err(R=1/2) = {err_fine}");
    }

    #[test]
    fn distinct_estimate_tracks_the_true_count() {
        // 4096 distinct addresses, touched twice each.
        let trace: Vec<u64> = (0..4096u64).chain(0..4096).collect();
        let p = sampled_profile_of(trace.iter().copied(), 4);
        let est = p.compulsory_misses() as f64;
        assert!(
            (est - 4096.0).abs() / 4096.0 < 0.25,
            "distinct estimate {est} vs 4096"
        );
    }

    #[test]
    fn splitmix64_is_fixed() {
        // The sample set is part of the repo's reproducibility contract:
        // pin the mixer against accidental constant drift.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_ne!(splitmix64(2), splitmix64(3));
    }

    #[test]
    fn empty_trace_sampled_profile_is_all_zero() {
        let p = sampled_profile_of(std::iter::empty(), 6);
        assert_eq!(p.accesses(), 0);
        assert_eq!(p.misses_at(1024), 0);
        assert_eq!(p.compulsory_misses(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_shift_panics() {
        let _ = SampledStackDistance::new(MAX_SAMPLE_SHIFT + 1);
    }
}
