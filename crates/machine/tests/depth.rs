//! Depth-capped engines against uncapped ones. An engine capped at depth
//! `D` keeps live markers for the `D` most recent ids only; by LRU
//! inclusion that must change no answer at any capacity up to `D`, on
//! either index backend, untagged or tagged. Above `D` a capped profile
//! must refuse to answer, and no capped profile may be encoded.

use std::panic::{catch_unwind, AssertUnwindSafe};

use balance_core::Access;
use balance_machine::{
    encode_profile, try_encode_profile, CapacityProfile, LruCache, ProfileImageError,
    ProfileMeta, ProfilePayload, ProfileStore, StackDistance, TrafficProfile,
};
use proptest::prelude::*;

/// Addresses that repeat often enough to reuse at every depth (half the
/// draws fall in a block of 24), plus the two ends of the `u64` range and
/// arbitrary values.
fn any_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..24,
        0u64..24,
        0u64..24,
        0u64..24,
        Just(0u64),
        Just(u64::MAX),
        (0u64..8).prop_map(|k| u64::MAX - (k << 40)),
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

/// Both backends over the trace: the renaming engine on the raw
/// addresses and the bounded engine on their dense relabelling.
fn backends(trace: &[u64]) -> [(StackDistance, Vec<u64>, &'static str); 2] {
    let (ranks, bound) = dense(trace);
    [
        (StackDistance::new(), trace.to_vec(), "renamed"),
        (StackDistance::with_address_bound(bound), ranks, "bounded"),
    ]
}

fn profile(engine: StackDistance, trace: &[u64]) -> CapacityProfile {
    let mut engine = engine;
    engine.observe_trace(trace.iter().copied());
    engine.into_profile()
}

fn traffic(engine: StackDistance, accesses: &[Access], line_words: u64) -> TrafficProfile {
    let mut engine = engine;
    engine.observe_tagged_trace(accesses.iter().copied(), line_words);
    engine.into_traffic_profile(line_words)
}

/// Runs `query` and returns its panic message, or `None` if it answered.
fn panic_message(query: impl FnOnce() -> u64) -> Option<String> {
    catch_unwind(AssertUnwindSafe(query)).err().map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    })
}

fn meta() -> ProfileMeta {
    ProfileMeta {
        kernel: "fft".to_string(),
        n: 64,
        engine: "stackdist".to_string(),
        sample_shift: 0,
        line_words: 1,
        writebacks: false,
    }
}

proptest! {
    /// A capped profile's misses equal the uncapped engine's and an
    /// `LruCache` replay's at every capacity up to the cap, on both
    /// backends, and a query one past the cap panics naming the cap.
    #[test]
    fn capped_misses_equal_uncapped_and_replay_up_to_the_depth(
        trace in proptest::collection::vec(any_addr(), 0..300),
        depth_frac in 0.0f64..1.0,
    ) {
        let distinct = dense(&trace).1;
        let depth = 1 + ((distinct + 2) as f64 * depth_frac) as u64;
        for (engine, addrs, backend) in backends(&trace) {
            let uncapped = profile(engine.clone(), &addrs);
            let capped = profile(engine.with_depth(depth), &addrs);
            prop_assert_eq!(capped.depth(), Some(depth));
            prop_assert_eq!(capped.accesses(), uncapped.accesses());
            prop_assert_eq!(capped.compulsory_misses(), uncapped.compulsory_misses());
            prop_assert_eq!(capped.misses_at(0), uncapped.misses_at(0));
            for m in 1..=depth {
                let mut cache = LruCache::with_capacity_words(m as usize);
                let replayed = cache.run_trace(addrs.iter().copied());
                prop_assert_eq!(capped.misses_at(m), uncapped.misses_at(m), "{} m {}", backend, m);
                prop_assert_eq!(capped.misses_at(m), replayed, "{} m {}", backend, m);
            }
            let message = panic_message(|| capped.misses_at(depth + 1));
            let named = format!("depth {depth}");
            prop_assert!(
                message.as_ref().is_some_and(|m| m.contains(&named)),
                "{}: query at depth + 1 answered or lost the depth: {:?}", backend, message
            );
        }
    }

    /// At 1- and 4-word lines, a tagged engine capped at `D` lines reads
    /// and writes back the uncapped engine's words at every capacity up
    /// to `D` lines, on both backends, and panics one line past it.
    #[test]
    fn capped_traffic_equals_uncapped_up_to_the_depth(
        trace in proptest::collection::vec(any_addr(), 0..300),
        writes in proptest::collection::vec(proptest::bool::ANY, 1..8),
        depth_frac in 0.0f64..1.0,
    ) {
        for lw in [1u64, 4] {
            let lines: Vec<u64> = trace.iter().map(|a| a >> lw.trailing_zeros()).collect();
            let distinct = dense(&lines).1;
            let depth = 1 + ((distinct + 2) as f64 * depth_frac) as u64;
            let (line_ranks, line_bound) = dense(&lines);
            // Each ranked line spelled as the word address of its first word.
            let words: Vec<u64> = line_ranks.iter().map(|r| r * lw).collect();
            let runs = [
                (StackDistance::new(), tagged(&trace, &writes), "renamed"),
                (StackDistance::with_address_bound(line_bound), tagged(&words, &writes), "bounded"),
            ];
            for (engine, accesses, backend) in runs {
                let uncapped = traffic(engine.clone(), &accesses, lw);
                let capped = traffic(engine.with_depth(depth), &accesses, lw);
                prop_assert_eq!(capped.profile().depth(), Some(depth));
                for m in 0..=depth * lw {
                    prop_assert_eq!(
                        capped.read_words_at(m), uncapped.read_words_at(m),
                        "{} line {} m {}", backend, lw, m
                    );
                    prop_assert_eq!(
                        capped.writeback_words_at(m), uncapped.writeback_words_at(m),
                        "{} line {} m {}", backend, lw, m
                    );
                }
                let past = (depth + 1) * lw;
                prop_assert!(panic_message(|| capped.read_words_at(past)).is_some());
                prop_assert!(panic_message(|| capped.writeback_words_at(past)).is_some());
            }
        }
    }

    /// A capped profile never becomes a KBCP image: the encoder returns
    /// the typed error naming the cap, and the panicking spelling panics.
    #[test]
    fn capped_profiles_are_not_encoded(
        trace in proptest::collection::vec(any_addr(), 0..200),
        depth in 1u64..40,
    ) {
        let capped = profile(StackDistance::new().with_depth(depth), &trace);
        let payload = ProfilePayload::Capacity(capped);
        match try_encode_profile(&meta(), &payload) {
            Err(ProfileImageError::Capped { depth: d }) => prop_assert_eq!(d, depth),
            other => prop_assert!(false, "capped profile encoded: {:?}", other.map(|b| b.len())),
        }
        let message = panic_message(|| encode_profile(&meta(), &payload).len() as u64);
        let named = format!("depth {depth}");
        prop_assert!(message.is_some_and(|m| m.contains(&named)));
        let uncapped = ProfilePayload::Capacity(profile(StackDistance::new(), &trace));
        prop_assert!(try_encode_profile(&meta(), &uncapped).is_ok());
    }
}

/// The store refuses a capped profile before writing anything; its error
/// wraps the typed image error.
#[test]
fn store_put_refuses_a_capped_profile() {
    let dir = std::env::temp_dir().join(format!("balance-depth-put-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ProfileStore::open(&dir).unwrap();
    let capped = profile(StackDistance::new().with_depth(2), &[1, 2, 3, 1, 2, 3]);
    let err = store
        .put(&meta(), &ProfilePayload::Capacity(capped))
        .unwrap_err();
    assert!(matches!(
        err.source.get_ref().and_then(|e| e.downcast_ref::<ProfileImageError>()),
        Some(ProfileImageError::Capped { depth: 2 })
    ));
    assert!(store.keys().unwrap().is_empty(), "nothing may be published");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshots need the whole recency stack: a capped engine refuses.
#[test]
fn capped_engines_refuse_snapshots() {
    let mut engine = StackDistance::with_address_bound(8).with_depth(3);
    engine.observe_trace([0, 1, 2, 3, 4, 0]);
    let message = panic_message(|| engine.snapshot().len() as u64);
    assert!(message.is_some_and(|m| m.contains("depth 3")));
}

/// `distinct` counts first touches, not the live markers a cap keeps.
#[test]
fn distinct_counts_first_touches_under_a_cap() {
    let mut engine = StackDistance::new().with_depth(2);
    engine.observe_trace([5, 6, 7, 8, 5, 9, 5]);
    assert_eq!(engine.distinct(), 5);
    assert_eq!(engine.into_profile().compulsory_misses(), 5);
}
