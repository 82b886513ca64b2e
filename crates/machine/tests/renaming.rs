//! Renaming engines against dense bounded ones. An engine over an
//! unbounded address space renames each address to a dense id on its
//! first touch; that must change no profile, no traffic ledger and no
//! checkpoint byte.

use balance_core::Access;
use balance_machine::{sampled_profile_of, sampled_profile_of_bounded, StackDistance};
use proptest::prelude::*;

/// Addresses across the whole `u64` range: both ends, strides of 2^40
/// from each end, a small dense block and arbitrary values.
fn any_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        (0u64..16).prop_map(|k| k << 40),
        (0u64..16).prop_map(|k| u64::MAX - (k << 40)),
        0u64..24,
        0u64..u64::MAX,
    ]
}

/// The trace relabelled by rank order of its distinct values, and the
/// distinct count (at least 1, a valid address bound).
fn dense(trace: &[u64]) -> (Vec<u64>, u64) {
    let mut distinct = trace.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let ranks = trace
        .iter()
        .map(|a| distinct.binary_search(a).map_or(0, |r| r as u64))
        .collect();
    (ranks, distinct.len().max(1) as u64)
}

fn tagged(addrs: &[u64], writes: &[bool]) -> Vec<Access> {
    addrs
        .iter()
        .zip(writes.iter().cycle())
        .map(|(&a, &w)| if w { Access::write(a) } else { Access::read(a) })
        .collect()
}

proptest! {
    /// `profile_of` and `traffic_profile_of` on raw addresses equal the
    /// bounded engine on the trace's dense relabelling, at word and at
    /// 4-word-line granularity.
    #[test]
    fn renamed_profiles_equal_the_dense_relabelling(
        trace in proptest::collection::vec(any_addr(), 0..300),
        writes in proptest::collection::vec(proptest::bool::ANY, 1..8),
    ) {
        let (ranks, bound) = dense(&trace);
        prop_assert_eq!(
            StackDistance::profile_of(trace.iter().copied()),
            StackDistance::profile_of_bounded(ranks.iter().copied(), bound)
        );
        for lw in [1u64, 4] {
            // Rank the lines, then spell each ranked line as the word
            // address of its first word.
            let lines: Vec<u64> = trace.iter().map(|a| a >> lw.trailing_zeros()).collect();
            let (line_ranks, line_bound) = dense(&lines);
            let words: Vec<u64> = line_ranks.iter().map(|r| r * lw).collect();
            prop_assert_eq!(
                StackDistance::traffic_profile_of(tagged(&trace, &writes), lw),
                StackDistance::traffic_profile_of_bounded(tagged(&words, &writes), lw, line_bound * lw),
                "line size {}", lw
            );
        }
    }

    /// A renamed engine snapshotted mid-trace and restored finishes
    /// bit-identically to an uninterrupted run, untagged and tagged, and
    /// re-snapshots to the same bytes.
    #[test]
    fn renamed_snapshot_restore_is_bit_identical(
        trace in proptest::collection::vec(any_addr(), 1..300),
        writes in proptest::collection::vec(proptest::bool::ANY, 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let cut = ((trace.len() as f64) * cut_frac) as usize;
        let mut engine = StackDistance::new();
        engine.observe_trace(trace[..cut].iter().copied());
        let image = engine.snapshot();
        let mut restored = StackDistance::restore(&image).unwrap();
        prop_assert_eq!(restored.snapshot(), image);
        restored.observe_trace(trace[cut..].iter().copied());
        prop_assert_eq!(
            restored.into_profile(),
            StackDistance::profile_of(trace.iter().copied())
        );

        let accesses = tagged(&trace, &writes);
        let mut engine = StackDistance::new();
        for a in &accesses[..cut] {
            engine.observe_tagged(a.addr, a.is_write());
        }
        let image = engine.snapshot();
        let mut restored = StackDistance::restore(&image).unwrap();
        prop_assert_eq!(restored.snapshot(), image);
        for a in &accesses[cut..] {
            restored.observe_tagged(a.addr, a.is_write());
        }
        prop_assert_eq!(
            restored.into_traffic_profile(1),
            StackDistance::traffic_profile_of(accesses.iter().copied(), 1)
        );
    }

    /// The sampled engine renames whatever the caller knows: the bounded
    /// entry point is the unbounded one at every rate.
    #[test]
    fn sampled_bounded_equals_sampled_unbounded(
        trace in proptest::collection::vec(any_addr(), 0..600),
    ) {
        let (ranks, bound) = dense(&trace);
        for shift in 0..6 {
            prop_assert_eq!(
                sampled_profile_of_bounded(ranks.iter().copied(), bound, shift),
                sampled_profile_of(ranks.iter().copied(), shift),
                "shift {}", shift
            );
        }
    }
}

/// The pinned trace: 20 tagged accesses over 4 of the 7 addresses
/// `0..7`; the pins snapshot it after its first 10.
fn pin_trace() -> Vec<(u64, bool)> {
    (0..20u64).map(|i| ((i * 3 + i * i) % 7, i % 3 == 0)).collect()
}

/// Snapshots the pin trace's first 10 accesses under `addr`, checks the
/// image byte for byte, then restores the pinned image, finishes the
/// trace and checks it against an uninterrupted run.
fn check_pinned_image(mut engine: StackDistance, addr: impl Fn(u64) -> u64, pinned: &[u8]) {
    let trace = pin_trace();
    let mut whole = engine.clone();
    for &(a, w) in &trace[..10] {
        engine.observe_tagged(addr(a), w);
    }
    assert_eq!(engine.snapshot(), pinned, "KBSD image layout changed");
    let mut resumed = StackDistance::restore(pinned).unwrap();
    for &(a, w) in &trace[10..] {
        resumed.observe_tagged(addr(a), w);
    }
    for &(a, w) in &trace {
        whole.observe_tagged(addr(a), w);
    }
    assert_eq!(resumed.into_traffic_profile(1), whole.into_traffic_profile(1));
}

/// KBSD v2, tag 1 (bounded, bound 7), written by the engine before it
/// renamed unbounded address spaces.
#[rustfmt::skip]
const BOUNDED_IMAGE: [u8; 224] = [
    0x4b, 0x42, 0x53, 0x44, 0x02, 0x00, 0x01, 0x02, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1c, 0xb5, 0x11, 0x6b, 0xf7, 0xf6, 0x8c, 0x32,
];

/// KBSD v2, tag 0 (unbounded): the stack and the open chains as original
/// addresses near `u64::MAX`, written by the same earlier engine.
#[rustfmt::skip]
const RENAMED_IMAGE: [u8; 224] = [
    0x4b, 0x42, 0x53, 0x44, 0x02, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xfa, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xfb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfc, 0xff, 0xff,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfa, 0xff, 0xff,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfb, 0xff, 0xff,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfc, 0xff, 0xff,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x8a, 0x42, 0x86, 0x47, 0xb8, 0x9f, 0x53, 0x5c,
];

#[test]
fn bounded_snapshot_bytes_are_pinned() {
    check_pinned_image(StackDistance::with_address_bound(7), |a| a, &BOUNDED_IMAGE);
}

#[test]
fn renamed_snapshot_bytes_are_pinned() {
    check_pinned_image(StackDistance::new(), |a| u64::MAX - (a << 40), &RENAMED_IMAGE);
}
