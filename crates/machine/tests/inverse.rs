//! The exact inverse query: `min_capacity_reaching(ops, ratio)` is the
//! smallest capacity whose intensity `ops / words` reaches `ratio`. Both
//! payloads must agree with a linear scan of the exact predicate over
//! every capacity up to saturation, ties (`ops = ratio · words`) included,
//! and must not round where an `f64` quotient would.

use balance_core::Access;
use balance_machine::{
    sampled_profile_of, AnalyticProfile, CapacityProfile, StackDistance, TrafficProfile,
};
use proptest::prelude::*;

/// Addresses over a small space, so every trace reuses at many depths.
fn trace() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..40, 0..300)
}

/// A ratio `k / 2^j`, exactly representable, as `(k, j)`.
type Dyadic = (u64, u32);

/// `ops / words ≥ k / 2^j`, in exact integer arithmetic.
fn reaches(ops: u64, words: u64, (k, j): Dyadic) -> bool {
    words == 0 || u128::from(ops) << j >= u128::from(k) * u128::from(words)
}

fn as_f64((k, j): Dyadic) -> f64 {
    k as f64 / 2f64.powi(j as i32)
}

/// The first capacity in `1..=top` at which `words_at` reaches the ratio.
fn scan(top: u64, ops: u64, ratio: Dyadic, words_at: impl Fn(u64) -> u64) -> Option<u64> {
    (1..=top.max(1)).find(|&m| reaches(ops, words_at(m), ratio))
}

/// An op count and ratios to ask about it. The words `w` at a drawn
/// capacity make the first ratio an exact tie, `ops = k · w / 2^j`, with
/// `j` no more than the trailing zeros of `k · w` allow; its neighbours
/// and a random ratio follow.
fn ops_and_ratios(words_at_pick: u64, k: u64, j: u32, random: Dyadic) -> (u64, Vec<Dyadic>) {
    let w = words_at_pick.max(1);
    let j = j.min((k * w).trailing_zeros());
    let ops = (k * w) >> j;
    let near = [(k, j), (k + 1, j), (k.max(2) - 1, j), (2 * k + 1, j + 1)];
    let mut ratios = near.to_vec();
    ratios.push(random);
    (ops, ratios)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The capacity curve's inverse equals the linear scan at every ratio,
    /// ties included, exact and SHARDS-sampled.
    #[test]
    fn capacity_inverse_equals_a_linear_scan(
        trace in trace(),
        pick in 0u64..60,
        k in 1u64..50,
        j in 0u32..6,
        random in (1u64..1 << 20, 0u32..24),
        shift in 0u32..3,
    ) {
        let exact = StackDistance::profile_of(trace.iter().copied());
        let sampled = sampled_profile_of(trace.iter().copied(), shift);
        for profile in [exact, sampled] {
            let top = profile.saturating_capacity();
            let (ops, ratios) = ops_and_ratios(profile.io_at(pick), k, j, random);
            for ratio in ratios {
                let want = scan(top, ops, ratio, |m| profile.io_at(m));
                prop_assert_eq!(
                    profile.min_capacity_reaching(ops, as_f64(ratio)), want,
                    "ops {} ratio {:?} top {}", ops, ratio, top
                );
            }
        }
    }

    /// The device model's inverse, over fetched plus written-back words,
    /// equals the linear scan at 1- and 4-word lines. Capacities are in
    /// words, so the scan runs to the read curve's saturation in lines
    /// times the line size, past which neither curve moves.
    #[test]
    fn traffic_inverse_equals_a_linear_scan(
        trace in trace(),
        writes in proptest::collection::vec(proptest::bool::ANY, 1..8),
        pick in 0u64..200,
        k in 1u64..50,
        j in 0u32..6,
        random in (1u64..1 << 20, 0u32..24),
    ) {
        let accesses: Vec<Access> = trace
            .iter()
            .zip(writes.iter().cycle())
            .map(|(&a, &w)| if w { Access::write(a) } else { Access::read(a) })
            .collect();
        for line_words in [1, 4] {
            let traffic: TrafficProfile =
                StackDistance::traffic_profile_of(accesses.iter().copied(), line_words);
            let top = traffic.profile().saturating_capacity().max(1) * line_words;
            prop_assert_eq!(traffic.words_at(top), traffic.words_at(u64::MAX));
            let (ops, ratios) = ops_and_ratios(traffic.words_at(pick), k, j, random);
            for ratio in ratios {
                let want = scan(top, ops, ratio, |m| traffic.words_at(m));
                prop_assert_eq!(
                    traffic.min_capacity_reaching(ops, as_f64(ratio)), want,
                    "line_words {} ops {} ratio {:?} top {}", line_words, ops, ratio, top
                );
            }
        }
    }
}

/// The smallest capacity whose `f64` intensity reaches `ratio`, by
/// bisection over `[1, saturating_capacity]`: how the serve path
/// inverted the curve before the exact inverse.
fn f64_bisection(profile: &CapacityProfile, ops: u64, ratio: f64) -> Option<u64> {
    let reaches = |m: u64| {
        let words = profile.io_at(m);
        words == 0 || ops as f64 / words as f64 >= ratio
    };
    let mut hi = profile.saturating_capacity().max(1);
    if !reaches(hi) {
        return None;
    }
    let mut lo = 1u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Above 2^53 words an `f64` quotient rounds: `2^54 / (2^54 + 1)` reads
/// as exactly 1.0, so the bisection stops one breakpoint early. The exact
/// inverse does not.
#[test]
fn a_near_tie_above_2_pow_53_is_not_rounded_into_a_hit() {
    let mut analytic = AnalyticProfile::new();
    analytic.record_compulsory(1 << 53);
    analytic.record_class(4, 1 << 60);
    analytic.record_class(16, (1 << 53) + 1);
    let profile = analytic.into_profile();
    let ops = 1u64 << 54;
    assert_eq!(profile.io_at(4), (1 << 54) + 1);
    assert_eq!(profile.io_at(16), 1 << 53);
    assert_eq!(f64_bisection(&profile, ops, 1.0), Some(4));
    assert_eq!(profile.min_capacity_reaching(ops, 1.0), Some(16));
    // One op more and capacity 4 reaches exactly.
    assert_eq!(profile.min_capacity_reaching(ops + 1, 1.0), Some(4));
}

/// Outside the positive finite ratios the predicate still reads exactly:
/// zero and negative ratios are reached at capacity 1, while NaN and `+∞`
/// are reached only by zero IO words, which a trace with a compulsory
/// miss never has.
#[test]
fn ratios_outside_the_domain_read_the_predicate_literally() {
    let profile = StackDistance::profile_of([1, 2, 1, 3, 1, 2]);
    for ratio in [0.0, -0.0, -1.0, f64::NEG_INFINITY] {
        assert_eq!(profile.min_capacity_reaching(6, ratio), Some(1));
    }
    for ratio in [f64::NAN, f64::INFINITY] {
        assert_eq!(profile.min_capacity_reaching(6, ratio), None);
    }
    assert_eq!(
        CapacityProfile::one_touch(0).min_capacity_reaching(0, f64::NAN),
        Some(1)
    );
    // The smallest subnormal and the largest finite ratio.
    assert_eq!(profile.min_capacity_reaching(1, 5e-324), Some(1));
    assert_eq!(profile.min_capacity_reaching(u64::MAX, f64::MAX), None);
}

/// A device-model balance point can lie above the read curve's saturation
/// counted in words: at 4-word lines the curve moves up to 4× further out.
#[test]
fn a_device_balance_point_is_searched_in_words_not_lines() {
    // 16 lines, each read twice at the largest reuse distance.
    let accesses: Vec<Access> = (0..2)
        .flat_map(|_| (0..64).step_by(4))
        .map(Access::read)
        .collect();
    let traffic = StackDistance::traffic_profile_of(accesses, 4);
    let lines = traffic.profile().saturating_capacity();
    assert_eq!(lines, 16);
    // Only the full 64-word memory halves the traffic.
    assert_eq!(traffic.words_at(63), 128);
    assert_eq!(traffic.words_at(64), 64);
    assert_eq!(traffic.min_capacity_reaching(64, 1.0), Some(64));
}
