//! Exact segmented parallel Mattson: split the address stream into K
//! time ranges, run independent [`StackDistance`] passes concurrently,
//! then merge the boundary state exactly — the merged
//! [`CapacityProfile`] is **bit-identical** to the serial engine's
//! (pinned by property test on both backends).
//!
//! The decomposition follows the PARDA observation (Niu, Dong, Jiang &
//! Shen, *PARDA: A Fast Parallel Reuse Distance Analysis Algorithm*,
//! IPDPS 2012): an access whose previous touch of the same address lies
//! in the *same* time range has a stack distance computable entirely
//! inside that range, so per-range passes already resolve the vast
//! majority of accesses. Only each range's **first touches** — at most
//! one access per distinct address per range — need the earlier ranges'
//! state. Each worker therefore exports three artifacts:
//!
//! 1. its local distance histogram (in-range reuses, final),
//! 2. its first-touch addresses in touch order (the boundary accesses),
//! 3. its final LRU stack, bottom to top (its distinct addresses in
//!    last-access order).
//!
//! The sequential merge keeps one global recency structure holding every
//! address of the ranges consumed so far, in true last-access order. For
//! range k it replays the first-touch list: a boundary access of address
//! `a` found at stack position `p` has true distance `count_after(p) + 1`
//! — the markers above `p` are exactly the addresses last-touched after
//! `a`'s previous access in earlier ranges (not yet re-touched in range
//! k) plus the range-k first touches already replayed, whose union is the
//! distinct-intervening set. An absent address is a global compulsory
//! miss. Afterwards the worker's final stack is replayed with silent
//! move-to-top touches, restoring true last-access order (first-touch
//! order within a range is *not* last-access order) before the next
//! range merges.
//!
//! Cost: the parallel phase is `O(len/K · log U)` per worker; the merge
//! is `O(K · U · log U)` — independent of trace length, so for
//! billion-address traces the serial fraction vanishes and the speedup
//! approaches K (memory: one last-access table per concurrent worker).

use crate::stackdist::{CapacityProfile, StackDistance};

/// One worker's exported boundary state (see module docs).
struct SegmentPass {
    hist: Vec<u64>,
    first_touches: Vec<u64>,
    final_stack: Vec<u64>,
    accesses: u64,
}

/// A fresh engine: direct-indexed under a bound, renaming otherwise.
fn fresh_engine(addr_bound: Option<u64>) -> StackDistance {
    addr_bound.map_or_else(StackDistance::new, StackDistance::with_address_bound)
}

/// Runs one per-range pass over `addrs`.
fn segment_pass(
    addrs: impl IntoIterator<Item = u64>,
    addr_bound: Option<u64>,
) -> SegmentPass {
    let mut engine = fresh_engine(addr_bound);
    engine.record_first_touches();
    engine.observe_trace(addrs);
    let final_stack = engine.final_stack();
    let first_touches = engine.take_first_touches();
    let (hist, accesses) = engine.into_parts();
    SegmentPass {
        hist,
        first_touches,
        final_stack,
        accesses,
    }
}

/// Splits `len` accesses into `segments` near-equal contiguous ranges.
fn ranges(len: u64, segments: usize) -> Vec<(u64, u64)> {
    let k = u64::try_from(segments.max(1))
        .unwrap_or_else(|_| panic!("segment count fits u64"));
    // At most one (non-empty) segment per access.
    let k = k.min(len).max(1);
    let base = len / k;
    let rem = len % k;
    let mut out =
        Vec::with_capacity(usize::try_from(k).unwrap_or_else(|_| panic!("segments fit usize")));
    let mut start = 0u64;
    for i in 0..k {
        let extra = u64::from(i < rem);
        let end = start + base + extra;
        out.push((start, end));
        start = end;
    }
    out
}

/// The segmented parallel profile: runs `segments` concurrent
/// [`StackDistance`] passes over time ranges of the trace (one scoped
/// thread per range — callers pick `segments` ≈ available cores) and
/// merges them exactly. Bit-identical to
/// [`StackDistance::profile_of`]/[`profile_of_bounded`]
/// (pinned by property test).
///
/// `make_range(start, end)` must produce the trace's addresses in
/// positions `[start, end)`; it is called concurrently from worker
/// threads. `len` is the total trace length; `addr_bound`, when given,
/// promises every address lies in `[0, addr_bound)` and selects the
/// direct-indexed backend in every worker (one flat table per worker).
///
/// [`profile_of_bounded`]: StackDistance::profile_of_bounded
///
/// # Panics
///
/// As [`StackDistance::with_address_bound`] when `addr_bound` is
/// `Some(0)` or an address breaks its promise; propagates worker panics.
///
/// # Examples
///
/// ```
/// use balance_machine::{segmented_profile_of, StackDistance};
///
/// let trace: Vec<u64> = (0..256u64).map(|i| (i * 7) % 40).collect();
/// let par = segmented_profile_of(trace.len() as u64, Some(40), 4, |s, e| {
///     trace[s as usize..e as usize].iter().copied()
/// });
/// let serial = StackDistance::profile_of_bounded(trace.iter().copied(), 40);
/// assert_eq!(par, serial); // bit-identical, not approximately equal
/// ```
pub fn segmented_profile_of<I, F>(
    len: u64,
    addr_bound: Option<u64>,
    segments: usize,
    make_range: F,
) -> CapacityProfile
where
    I: Iterator<Item = u64>,
    F: Fn(u64, u64) -> I + Sync,
{
    let ranges = ranges(len, segments);
    // One segment degenerates to the serial engine — skip the scaffolding.
    if ranges.len() <= 1 {
        let (start, end) = ranges.first().copied().unwrap_or((0, 0));
        let mut engine = fresh_engine(addr_bound);
        engine.observe_trace(make_range(start, end));
        return engine.into_profile();
    }

    let passes: Vec<SegmentPass> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(start, end)| {
                let make_range = &make_range;
                scope.spawn(move || segment_pass(make_range(start, end), addr_bound))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| panic!("segment worker panicked"))
            })
            .collect()
    });

    merge_passes(passes, addr_bound)
}

/// The sequential exact merge, in time order (see module docs).
fn merge_passes(passes: Vec<SegmentPass>, addr_bound: Option<u64>) -> CapacityProfile {
    let mut merged = fresh_engine(addr_bound);
    for pass in passes {
        merged.add_accesses(pass.accesses);
        merged.absorb_hist(&pass.hist);
        for addr in pass.first_touches {
            merged.merge_observe(addr);
        }
        for addr in pass.final_stack {
            merged.touch_silent(addr);
        }
    }
    merged.into_profile()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_against_serial(trace: &[u64], addr_bound: Option<u64>, segments: usize) {
        let serial = match addr_bound {
            Some(b) => StackDistance::profile_of_bounded(trace.iter().copied(), b),
            None => StackDistance::profile_of(trace.iter().copied()),
        };
        let par = segmented_profile_of(trace.len() as u64, addr_bound, segments, |s, e| {
            trace[usize::try_from(s).unwrap()..usize::try_from(e).unwrap()]
                .iter()
                .copied()
        });
        assert_eq!(
            par, serial,
            "segments={segments} bound={addr_bound:?} trace={trace:?}"
        );
    }

    #[test]
    fn empty_trace_any_segmentation() {
        for k in [1usize, 2, 7] {
            check_against_serial(&[], None, k);
            check_against_serial(&[], Some(8), k);
        }
    }

    #[test]
    fn reuse_straddling_every_boundary() {
        // A cyclic trace re-touches every address across every possible
        // segment boundary.
        let trace: Vec<u64> = (0..96u64).map(|i| i % 7).collect();
        for k in [1usize, 2, 3, 5, 96, 200] {
            check_against_serial(&trace, None, k);
            check_against_serial(&trace, Some(7), k);
        }
    }

    #[test]
    fn segment_length_one_is_exact() {
        let trace: Vec<u64> = (0..40u64).map(|i| (i * i + 3 * i) % 11).collect();
        check_against_serial(&trace, None, trace.len());
        check_against_serial(&trace, Some(11), trace.len());
    }

    #[test]
    fn single_segment_is_the_serial_engine() {
        let trace: Vec<u64> = (0..64u64).map(|i| (i * 13) % 23).collect();
        check_against_serial(&trace, None, 1);
        check_against_serial(&trace, Some(23), 1);
    }

    #[test]
    fn first_touch_order_differs_from_last_access_order() {
        // Within segment [a, x, a | ...], x's last access precedes a's
        // although a was touched first — the final-stack reorder step is
        // what keeps the next segment's distances exact.
        let trace = [1u64, 2, 1, 2, 1, 3, 2, 1];
        for k in 1..=trace.len() {
            check_against_serial(&trace, None, k);
        }
    }

    #[test]
    fn mattson_counter_trace_all_segmentations() {
        let trace = [0u64, 1, 2, 1, 3, 4, 1];
        for k in 1..=trace.len() + 2 {
            check_against_serial(&trace, None, k);
            check_against_serial(&trace, Some(5), k);
        }
    }
}
