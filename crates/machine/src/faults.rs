//! Deterministic fault injection for the replay engines.
//!
//! A billion-address replay meets real failures — OOM kills mid-stream,
//! torn checkpoint files, torn or bit-rotted store images — but none of
//! them reproduce on demand, so the recovery paths they exercise rot
//! unless a harness can trigger them *deterministically*. A [`FaultPlan`]
//! is that harness: a small set of one-shot triggers (die at address `k`,
//! allocation failure at address `k`, corrupt the next checkpoint write,
//! fault the next store publish) armed up front — by a test, a proptest
//! strategy, or a seed — and consumed exactly once as the replay crosses
//! them. The checkpoint/resume machinery ([`crate::checkpoint`]) is
//! tested *through* these faults: the proptests assert that a replay
//! killed at an arbitrary address and resumed from its checkpoint is
//! bit-identical to an uninterrupted run.
//!
//! Triggers use atomic one-shot consumption (`compare_exchange`), so a
//! plan is `Sync` and a consumed trigger never fires twice.

use core::fmt;
use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::sampling::splitmix64;

/// Sentinel position/index for "never fires".
const NEVER: u64 = u64::MAX;

/// A seeded, one-shot fault schedule threaded through the replay drivers.
/// All triggers default to "never"; each fires at most once.
#[derive(Debug)]
pub struct FaultPlan {
    /// Replay position at which the run "dies" (the driver returns an
    /// interrupt, leaving on-disk checkpoints exactly as a SIGKILL would).
    die_at: AtomicU64,
    /// Replay position at which an engine allocation "fails".
    alloc_fail_at: AtomicU64,
    /// Number of upcoming checkpoint writes to corrupt (byte flip in the
    /// payload — must be caught by the checksum on restore).
    corrupt_checkpoints: AtomicU32,
    /// Upcoming profile-store publishes to tear (only a prefix of the
    /// image reaches the final path, as a power loss after a partial
    /// write would leave it).
    store_torn_writes: AtomicU32,
    /// Upcoming profile-store publishes to bit-rot (one byte flipped in
    /// the image after checksumming — silent media corruption).
    store_bit_flips: AtomicU32,
    /// Upcoming profile-store publishes to fail with `ENOSPC` before any
    /// byte is durably published.
    store_enospc: AtomicU32,
    /// Upcoming profile-store publishes to stamp with a future format
    /// version (an image written by a newer build — version skew).
    store_stale_versions: AtomicU32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan with no faults armed (every trigger at "never").
    #[must_use]
    pub const fn none() -> FaultPlan {
        FaultPlan {
            die_at: AtomicU64::new(NEVER),
            alloc_fail_at: AtomicU64::new(NEVER),
            corrupt_checkpoints: AtomicU32::new(0),
            store_torn_writes: AtomicU32::new(0),
            store_bit_flips: AtomicU32::new(0),
            store_enospc: AtomicU32::new(0),
            store_stale_versions: AtomicU32::new(0),
        }
    }

    /// Arms a one-shot death at replay position `pos` (0-based: the fault
    /// fires *before* the `pos`-th address is observed).
    #[must_use]
    pub fn with_die_at(self, pos: u64) -> FaultPlan {
        self.die_at.store(pos, Ordering::Relaxed);
        self
    }

    /// Arms a one-shot allocation failure at replay position `pos`.
    #[must_use]
    pub fn with_alloc_fail_at(self, pos: u64) -> FaultPlan {
        self.alloc_fail_at.store(pos, Ordering::Relaxed);
        self
    }

    /// Arms corruption of the next `times` checkpoint writes (a byte flip
    /// the checksum must catch on restore).
    #[must_use]
    pub fn with_corrupt_checkpoints(self, times: u32) -> FaultPlan {
        self.corrupt_checkpoints.store(times, Ordering::Relaxed);
        self
    }

    /// Arms tearing of the next `times` profile-store publishes (only a
    /// prefix of the image reaches the final path; the reader's checksum
    /// must reject it).
    #[must_use]
    pub fn with_torn_store_writes(self, times: u32) -> FaultPlan {
        self.store_torn_writes.store(times, Ordering::Relaxed);
        self
    }

    /// Arms bit rot on the next `times` profile-store publishes (one byte
    /// flipped after checksumming — the classic silent-corruption case).
    #[must_use]
    pub fn with_store_bit_flips(self, times: u32) -> FaultPlan {
        self.store_bit_flips.store(times, Ordering::Relaxed);
        self
    }

    /// Arms `ENOSPC` on the next `times` profile-store publishes: the
    /// write fails before anything is durably published, so the store
    /// must remain exactly as it was.
    #[must_use]
    pub fn with_store_enospc(self, times: u32) -> FaultPlan {
        self.store_enospc.store(times, Ordering::Relaxed);
        self
    }

    /// Arms version skew on the next `times` profile-store publishes: the
    /// image is stamped with a future format version, as if written by a
    /// newer build this one cannot read.
    #[must_use]
    pub fn with_stale_store_versions(self, times: u32) -> FaultPlan {
        self.store_stale_versions.store(times, Ordering::Relaxed);
        self
    }

    /// Consumes one profile-store fault, if any is armed, in a fixed
    /// priority order (torn → bit flip → `ENOSPC` → stale version). The
    /// store's publish path calls this once per put.
    #[must_use]
    pub fn take_store_fault(&self) -> Option<StoreFault> {
        let take = |counter: &AtomicU32| {
            counter
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        };
        if take(&self.store_torn_writes) {
            return Some(StoreFault::TornWrite);
        }
        if take(&self.store_bit_flips) {
            return Some(StoreFault::BitFlip);
        }
        if take(&self.store_enospc) {
            return Some(StoreFault::Enospc);
        }
        if take(&self.store_stale_versions) {
            return Some(StoreFault::StaleVersion);
        }
        None
    }

    /// A plan arming exactly one profile-store fault chosen by `seed` —
    /// the deterministic entry point for the store fault-matrix proptests
    /// (same seed, same fault).
    #[must_use]
    pub fn seeded_store(seed: u64) -> FaultPlan {
        let plan = FaultPlan::none();
        match splitmix64(seed) & 3 {
            0 => plan.store_torn_writes.store(1, Ordering::Relaxed),
            1 => plan.store_bit_flips.store(1, Ordering::Relaxed),
            2 => plan.store_enospc.store(1, Ordering::Relaxed),
            _ => plan.store_stale_versions.store(1, Ordering::Relaxed),
        }
        plan
    }

    /// A pseudo-random plan derived entirely from `seed` over a replay of
    /// `len` addresses: a death somewhere in the trace, sometimes a
    /// corrupted checkpoint. Same seed, same plan — the deterministic
    /// entry point for soak tests.
    #[must_use]
    pub fn seeded(seed: u64, len: u64) -> FaultPlan {
        let plan = FaultPlan::none();
        if len > 0 {
            plan.die_at
                .store(splitmix64(seed) % len, Ordering::Relaxed);
        }
        if splitmix64(seed ^ 1) & 3 == 0 {
            plan.corrupt_checkpoints.store(1, Ordering::Relaxed);
        }
        plan
    }

    /// Whether any per-address trigger is still armed — the replay
    /// driver's fast-path gate, so an unarmed plan costs nothing per
    /// address.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.die_at.load(Ordering::Relaxed) != NEVER
            || self.alloc_fail_at.load(Ordering::Relaxed) != NEVER
    }

    /// Consumes any per-address trigger armed at replay position `pos`.
    ///
    /// # Errors
    ///
    /// The injected fault, exactly once per armed trigger.
    pub fn check_observe(&self, pos: u64) -> Result<(), InjectedFault> {
        if self
            .die_at
            .compare_exchange(pos, NEVER, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return Err(InjectedFault::Die { at: pos });
        }
        if self
            .alloc_fail_at
            .compare_exchange(pos, NEVER, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return Err(InjectedFault::AllocFail { at: pos });
        }
        Ok(())
    }

    /// Consumes one checkpoint-corruption trigger, if armed: `true` means
    /// the writer must corrupt the bytes it is about to persist.
    #[must_use]
    pub fn take_checkpoint_corruption(&self) -> bool {
        self.corrupt_checkpoints
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// A durability fault injected into a profile-store publish (see
/// [`crate::profstore::ProfileStore::put_with`]) — each is a distinct
/// real-world failure the store's read path must detect rather than
/// serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StoreFault {
    /// Only a prefix of the image reached the final path.
    TornWrite,
    /// One byte of the published image flipped after checksumming.
    BitFlip,
    /// The filesystem ran out of space before anything was published.
    Enospc,
    /// The image carries a future format version this build cannot read.
    StaleVersion,
}

impl fmt::Display for StoreFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreFault::TornWrite => write!(f, "torn write"),
            StoreFault::BitFlip => write!(f, "bit flip"),
            StoreFault::Enospc => write!(f, "out of space"),
            StoreFault::StaleVersion => write!(f, "stale (future) format version"),
        }
    }
}

/// A fault fired by a [`FaultPlan`] — the "what killed this attempt" tag
/// carried by [`crate::checkpoint::ReplayInterrupt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InjectedFault {
    /// The run died (as by SIGKILL) before observing position `at`.
    Die {
        /// 0-based replay position of the death.
        at: u64,
    },
    /// An engine allocation failed at position `at`.
    AllocFail {
        /// 0-based replay position of the failure.
        at: u64,
    },
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectedFault::Die { at } => write!(f, "injected death at replay position {at}"),
            InjectedFault::AllocFail { at } => {
                write!(f, "injected allocation failure at replay position {at}")
            }
        }
    }
}

impl std::error::Error for InjectedFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_fire_exactly_once() {
        let plan = FaultPlan::none().with_die_at(5);
        assert!(plan.is_armed());
        assert_eq!(plan.check_observe(4), Ok(()));
        assert_eq!(plan.check_observe(5), Err(InjectedFault::Die { at: 5 }));
        assert_eq!(plan.check_observe(5), Ok(()), "one-shot: must not refire");
        assert!(!plan.is_armed());
    }

    #[test]
    fn alloc_fail_is_distinct_from_death() {
        let plan = FaultPlan::none().with_alloc_fail_at(2);
        assert_eq!(plan.check_observe(2), Err(InjectedFault::AllocFail { at: 2 }));
        assert_eq!(plan.check_observe(2), Ok(()));
    }

    #[test]
    fn checkpoint_corruption_counts_down() {
        let plan = FaultPlan::none().with_corrupt_checkpoints(2);
        assert!(plan.take_checkpoint_corruption());
        assert!(plan.take_checkpoint_corruption());
        assert!(!plan.take_checkpoint_corruption());
    }

    #[test]
    fn store_faults_fire_once_in_priority_order() {
        let plan = FaultPlan::none()
            .with_torn_store_writes(1)
            .with_store_bit_flips(1)
            .with_store_enospc(1)
            .with_stale_store_versions(1);
        assert_eq!(plan.take_store_fault(), Some(StoreFault::TornWrite));
        assert_eq!(plan.take_store_fault(), Some(StoreFault::BitFlip));
        assert_eq!(plan.take_store_fault(), Some(StoreFault::Enospc));
        assert_eq!(plan.take_store_fault(), Some(StoreFault::StaleVersion));
        assert_eq!(plan.take_store_fault(), None, "one-shot: must not refire");
    }

    #[test]
    fn seeded_store_plans_arm_exactly_one_fault() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let a = FaultPlan::seeded_store(seed);
            let b = FaultPlan::seeded_store(seed);
            let fault = a.take_store_fault().expect("exactly one fault armed");
            assert_eq!(b.take_store_fault(), Some(fault), "same seed, same fault");
            assert_eq!(a.take_store_fault(), None);
            seen.insert(fault);
        }
        assert_eq!(seen.len(), 4, "64 seeds must cover all four fault kinds");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded(seed, 1000);
            let b = FaultPlan::seeded(seed, 1000);
            assert_eq!(
                a.die_at.load(Ordering::Relaxed),
                b.die_at.load(Ordering::Relaxed)
            );
            assert!(a.die_at.load(Ordering::Relaxed) < 1000);
        }
    }
}
