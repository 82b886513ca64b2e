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

use std::time::Instant;

use crate::checkpoint::{
    load, resumable_replay, write_atomic, ByteWriter, CheckpointError, CheckpointPolicy,
    ReplayControl, ReplayInterrupt, ReplayStats, CHECKPOINT_VERSION,
};
use crate::faults::{FaultPlan, InjectedFault};
use crate::stackdist::{CapacityProfile, StackDistance};

/// Leading magic of a segmented-run manifest (`K`ung `B`alance
/// `S`egment `M`anifest).
const MANIFEST_MAGIC: [u8; 4] = *b"KBSM";

/// How many times a dead segment worker is re-run before the whole pass
/// gives up (1 initial attempt + `MAX_SEGMENT_RETRIES` retries).
pub const MAX_SEGMENT_RETRIES: u32 = 3;

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

/// Durability counters from a [`segmented_profile_resumable`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentedStats {
    /// Segment workers that resumed from a persisted image instead of
    /// starting fresh (completed segments resume instantly from their
    /// final image).
    pub resumed_segments: usize,
    /// Snapshots persisted across all workers and attempts.
    pub checkpoints_written: u64,
    /// Dead segment workers that were re-run (bounded by
    /// [`MAX_SEGMENT_RETRIES`] per segment).
    pub segment_retries: u64,
}

/// The manifest image pinning a checkpoint directory to one segmented
/// run's geometry. Byte-for-byte deterministic, so "does the directory
/// belong to this run" is an equality check.
fn manifest_bytes(len: u64, segments: u64, addr_bound: Option<u64>) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(40);
    w.bytes(&MANIFEST_MAGIC);
    w.u16(CHECKPOINT_VERSION);
    w.u64(len);
    w.u64(segments);
    w.u8(u8::from(addr_bound.is_some()));
    w.u64(addr_bound.unwrap_or(0));
    w.finish()
}

fn segment_file(k: usize) -> String {
    format!("seg_{k}")
}

/// One resumable per-range pass (the fault-tolerant [`segment_pass`]).
fn segment_pass_resumable<I: Iterator<Item = u64>>(
    addrs: I,
    seg_len: u64,
    addr_bound: Option<u64>,
    ctl: &ReplayControl<'_>,
) -> Result<(SegmentPass, ReplayStats), ReplayInterrupt> {
    let fresh = || {
        let mut engine = fresh_engine(addr_bound);
        engine.record_first_touches();
        engine
    };
    let (mut engine, stats) = resumable_replay(seg_len, addrs, fresh, ctl)?;
    let final_stack = engine.final_stack();
    let first_touches = engine.take_first_touches();
    let (hist, accesses) = engine.into_parts();
    Ok((
        SegmentPass {
            hist,
            first_touches,
            final_stack,
            accesses,
        },
        stats,
    ))
}

/// [`segmented_profile_of`] with the fault-tolerance layer threaded
/// through every worker: per-segment checkpoint images under the policy
/// directory (plus a manifest pinning the run geometry — a directory
/// left by a different run is wiped, never misread), deterministic fault
/// injection, bounded retry of dead segment workers, and an optional
/// wall-clock deadline.
///
/// A run killed at any point (including by a real SIGKILL) and re-invoked
/// with the same arguments resumes every segment from its last persisted
/// image — completed segments resume instantly from their final image —
/// and produces a [`CapacityProfile`] **bit-identical** to the
/// uninterrupted serial engine (pinned by proptest).
///
/// # Errors
///
/// [`ReplayInterrupt`] when a segment worker dies more than
/// [`MAX_SEGMENT_RETRIES`] times, a non-retryable fault fires, the
/// deadline passes (progress is checkpointed first when a policy is
/// armed), or a snapshot cannot be persisted.
///
/// # Panics
///
/// As [`segmented_profile_of`].
#[allow(clippy::too_many_lines)]
pub fn segmented_profile_resumable<I, F>(
    len: u64,
    addr_bound: Option<u64>,
    segments: usize,
    make_range: F,
    policy: Option<&CheckpointPolicy>,
    faults: &FaultPlan,
    deadline: Option<Instant>,
) -> Result<(CapacityProfile, SegmentedStats), ReplayInterrupt>
where
    I: Iterator<Item = u64>,
    F: Fn(u64, u64) -> I + Sync,
{
    let ranges = ranges(len, segments);

    if let Some(policy) = policy {
        let manifest = manifest_bytes(len, ranges.len() as u64, addr_bound);
        let mpath = policy.file("manifest");
        if load(&mpath).as_deref() != Some(manifest.as_slice()) {
            // Absent or from a different run geometry: the per-segment
            // images are meaningless here — wipe them and re-pin.
            for k in 0..ranges.len() {
                let _ = std::fs::remove_file(policy.file(&segment_file(k)));
            }
            write_atomic(&mpath, &manifest).map_err(CheckpointError::from)?;
        }
    }

    let run_segment = |k: usize,
                       (start, end): (u64, u64)|
     -> Result<(SegmentPass, ReplayStats), ReplayInterrupt> {
        let name = segment_file(k);
        // An injected worker death fires mid-range, through the same
        // per-address trigger the serial driver uses — so the images it
        // leaves behind are exactly what a real preemption leaves.
        let killed = faults.segment_dies(k);
        let local_plan;
        let plan = if killed {
            local_plan = FaultPlan::none().with_die_at((end - start) / 2);
            &local_plan
        } else {
            faults
        };
        let ctl = ReplayControl {
            name: &name,
            policy,
            faults: plan,
            deadline,
            persist_final: policy.is_some(),
        };
        segment_pass_resumable(make_range(start, end), end - start, addr_bound, &ctl).map_err(
            |e| match e {
                ReplayInterrupt::Fault(InjectedFault::Die { .. }) if killed => {
                    ReplayInterrupt::Fault(InjectedFault::SegmentDeath { segment: k })
                }
                other => other,
            },
        )
    };

    let outcomes: Vec<Result<(SegmentPass, ReplayStats), ReplayInterrupt>> =
        if ranges.len() == 1 {
            vec![run_segment(0, ranges[0])]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .iter()
                    .enumerate()
                    .map(|(k, &range)| {
                        let run_segment = &run_segment;
                        scope.spawn(move || run_segment(k, range))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| panic!("segment worker panicked"))
                    })
                    .collect()
            })
        };

    let mut stats = SegmentedStats::default();
    let mut passes = Vec::with_capacity(ranges.len());
    for (k, mut outcome) in outcomes.into_iter().enumerate() {
        let mut tries = 0u32;
        let pass = loop {
            match outcome {
                Ok((pass, rstats)) => {
                    if rstats.resumed_at.is_some() {
                        stats.resumed_segments += 1;
                    }
                    stats.checkpoints_written += rstats.checkpoints_written;
                    break pass;
                }
                Err(e) => {
                    let retryable = matches!(
                        e,
                        ReplayInterrupt::Fault(
                            InjectedFault::SegmentDeath { .. }
                                | InjectedFault::Die { .. }
                                | InjectedFault::AllocFail { .. }
                        )
                    );
                    if !retryable || tries >= MAX_SEGMENT_RETRIES {
                        return Err(e);
                    }
                    tries += 1;
                    stats.segment_retries += 1;
                    outcome = run_segment(k, ranges[k]);
                }
            }
        };
        passes.push(pass);
    }

    let profile = merge_passes(passes, addr_bound);
    if let Some(policy) = policy {
        // The run is complete: its images have nothing left to resume.
        for k in 0..ranges.len() {
            let _ = std::fs::remove_file(policy.file(&segment_file(k)));
        }
        let _ = std::fs::remove_file(policy.file("manifest"));
    }
    Ok((profile, stats))
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

    fn test_trace(len: u64) -> Vec<u64> {
        (0..len).map(|i| (i * 7 + i * i) % 101).collect()
    }

    fn tmp_policy(tag: &str, every: u64) -> CheckpointPolicy {
        let dir = std::env::temp_dir().join(format!(
            "balance-seg-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointPolicy::every(dir, every)
    }

    fn resumable(
        trace: &[u64],
        segments: usize,
        policy: Option<&CheckpointPolicy>,
        faults: &FaultPlan,
    ) -> Result<(CapacityProfile, SegmentedStats), ReplayInterrupt> {
        segmented_profile_resumable(
            trace.len() as u64,
            Some(101),
            segments,
            |s, e| trace[usize::try_from(s).unwrap()..usize::try_from(e).unwrap()]
                .iter()
                .copied(),
            policy,
            faults,
            None,
        )
    }

    #[test]
    fn resumable_without_faults_is_the_plain_segmented_profile() {
        let trace = test_trace(3000);
        let serial = StackDistance::profile_of_bounded(trace.iter().copied(), 101);
        let (profile, stats) = resumable(&trace, 4, None, &FaultPlan::none()).unwrap();
        assert_eq!(profile, serial);
        assert_eq!(stats, SegmentedStats::default());
    }

    #[test]
    fn killed_segment_worker_is_retried_to_the_exact_profile() {
        let trace = test_trace(2000);
        let serial = StackDistance::profile_of_bounded(trace.iter().copied(), 101);
        let policy = tmp_policy("retry", 50);
        let faults = FaultPlan::none().with_kill_segment(2, 2);
        let (profile, stats) = resumable(&trace, 4, Some(&policy), &faults).unwrap();
        assert_eq!(profile, serial, "retried run must stay bit-identical");
        assert_eq!(stats.segment_retries, 2);
        assert!(
            stats.resumed_segments >= 1,
            "retries must resume from the worker's checkpoints, got {stats:?}"
        );
        assert!(!policy.file("manifest").exists(), "cleanup after success");
        let _ = std::fs::remove_dir_all(&policy.dir);
    }

    #[test]
    fn unstoppable_worker_death_exhausts_the_bounded_retry() {
        let trace = test_trace(800);
        let faults = FaultPlan::none().with_kill_segment(1, u32::MAX);
        let err = resumable(&trace, 4, None, &faults).unwrap_err();
        assert!(matches!(
            err,
            ReplayInterrupt::Fault(InjectedFault::SegmentDeath { segment: 1 })
        ));
    }

    #[test]
    fn separate_invocation_resumes_completed_and_partial_segments() {
        let trace = test_trace(2400);
        let serial = StackDistance::profile_of_bounded(trace.iter().copied(), 101);
        let policy = tmp_policy("rerun", 40);
        // Kill segment 2 more times than the bounded retry tolerates: the
        // first invocation fails, leaving final images for the completed
        // segments and a mid-range image for the killed one.
        let faults = FaultPlan::none().with_kill_segment(2, u32::MAX);
        let err = resumable(&trace, 4, Some(&policy), &faults).unwrap_err();
        assert!(matches!(
            err,
            ReplayInterrupt::Fault(InjectedFault::SegmentDeath { segment: 2 })
        ));
        assert!(policy.file("manifest").exists());
        assert!(policy.file("seg_2").exists(), "partial image persisted");

        // Second invocation (fresh process, no faults): every segment
        // resumes and the profile is still bit-identical.
        let (profile, stats) = resumable(&trace, 4, Some(&policy), &FaultPlan::none()).unwrap();
        assert_eq!(profile, serial);
        assert_eq!(stats.resumed_segments, 4, "all four segments resume");
        assert!(!policy.file("manifest").exists(), "cleanup after success");
        let _ = std::fs::remove_dir_all(&policy.dir);
    }

    #[test]
    fn stale_manifest_wipes_images_from_a_different_geometry() {
        let trace = test_trace(1200);
        let serial = StackDistance::profile_of_bounded(trace.iter().copied(), 101);
        let policy = tmp_policy("stale", 30);
        // Leave a partial 4-segment run behind…
        let faults = FaultPlan::none().with_kill_segment(0, u32::MAX);
        let _ = resumable(&trace, 4, Some(&policy), &faults).unwrap_err();
        // …then run 3-segment over the same directory: the stale images
        // must be discarded (resumed count 0), not misread.
        let (profile, stats) = resumable(&trace, 3, Some(&policy), &FaultPlan::none()).unwrap();
        assert_eq!(profile, serial);
        assert_eq!(stats.resumed_segments, 0, "stale images must not resume");
        let _ = std::fs::remove_dir_all(&policy.dir);
    }
}
