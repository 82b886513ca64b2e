//! # balance-machine
//!
//! A counting simulator for the paper's processing element (PE).
//!
//! The balance analysis of Kung (1985) depends on exactly two measured
//! quantities per computation: the number of operations delivered (`C_comp`)
//! and the number of words exchanged with the outside world (`C_io`). This
//! crate provides a PE whose local memory enforces the capacity `M` and whose
//! I/O paths count every word, so that out-of-core algorithms written against
//! it *measure* their own cost profile instead of asserting it.
//!
//! * [`LocalMemory`] — a word-addressed arena with hard capacity checks;
//!   an allocation that exceeds `M` fails, which catches blocking bugs
//!   (e.g. a tile size that does not actually fit).
//! * [`ExternalStore`] — the "outside world": a flat word store holding the
//!   problem inputs and outputs.
//! * [`Pe`] — couples the two: `load`/`store` move words between store and
//!   local buffers *and count them*; [`Pe::count_ops`] tallies arithmetic.
//! * [`LruCache`] — an automatically-managed cache model used by the
//!   ablation experiment (E13) to contrast *explicit* blocking with LRU
//!   caching at equal capacity.
//! * [`MemorySystem`] / [`Hierarchy`] — the N-level generalization: any
//!   memory system is, to the balance model, an accountant for the word
//!   traffic at each of its boundaries. [`LocalMemory`] and [`LruCache`]
//!   are the trivial one-level implementations; [`Hierarchy`] is a ladder
//!   of standalone LRU levels over the full access stream (inclusive by
//!   the Mattson stack property), and [`Pe::for_hierarchy`] runs the
//!   explicit schemes against a whole ladder, producing one traffic entry
//!   per level.
//! * [`StackDistance`] / [`CapacityProfile`] — the one-pass engine: a
//!   single trace replay records the reuse (stack) distance histogram,
//!   from which the exact LRU miss count at **every** capacity — and the
//!   boundary traffic of every ladder — is an O(1) read. This is what
//!   collapses capacity sweeps from one replay per memory size to one
//!   replay total (see `balance-kernels`' cache-model `sweep`).
//! * [`TrafficProfile`] — the device-realistic twin: one *tagged* replay
//!   ([`StackDistance::observe_tagged_trace`]) over read/write-tagged
//!   accesses at line granularity records the reuse histogram **and** a
//!   dirty-chain ledger, answering both `read_misses_at(M)` and
//!   `writebacks_at(M)` for every capacity — bit-identical to a
//!   line-granular dirty-bit LRU replay with an end-of-run flush.
//! * [`segmented_profile_of`] / [`SampledStackDistance`] — the scaled
//!   tiers of the same engine for billion-address traces: exact
//!   segmented parallel Mattson (K time ranges on scoped threads, merged
//!   bit-identical to serial) and SHARDS-style hash-sampled approximate
//!   profiles (Waldspurger et al., FAST '15) whose queries re-scale by
//!   the sampling rate.
//! * [`checkpoint`] / [`faults`] — fault-tolerant long runs: versioned,
//!   checksummed engine snapshots ([`StackDistance::snapshot`]) behind a
//!   resumable replay driver ([`resumable_replay`]), plus a deterministic
//!   fault-injection harness (seeded deaths, allocation failures,
//!   checkpoint corruption, store-publish faults) that the recovery paths
//!   are continuously tested through.
//! * [`profstore`] — the crash-safe home of the measured artifacts:
//!   versioned, checksummed `KBCP` profile images (capacity and traffic)
//!   in a content-addressed [`ProfileStore`] with fsync'd atomic
//!   publishes, a quarantining `fsck` scrub, and store-level fault
//!   injection (torn writes, bit rot, `ENOSPC`, version skew) — so a
//!   corrupted entry is detected and repaired, never served.
//! * [`PhaseRecorder`] — phase-labeled cost attribution for multi-phase
//!   algorithms (e.g. the two phases of external sorting).
//!
//! ## Example
//!
//! ```
//! use balance_core::Words;
//! use balance_machine::{ExternalStore, Pe};
//!
//! // Sum 1024 words through a 64-word local memory, 64 words at a time.
//! let mut store = ExternalStore::new();
//! let data = store.alloc_from(&vec![1.0; 1024]);
//! let mut pe = Pe::new(Words::new(64));
//! let buf = pe.alloc(64)?;
//! let mut total = 0.0;
//! for chunk in 0..16 {
//!     pe.load(&store, data.at(chunk * 64, 64)?, buf, 0)?;
//!     let s: f64 = pe.buf(buf)?.iter().sum();
//!     pe.count_ops(64);
//!     total += s;
//! }
//! assert_eq!(total, 1024.0);
//! let exec = pe.execution();
//! assert_eq!(exec.cost.io_words(), 1024);   // every word crossed the port once
//! assert_eq!(exec.cost.comp_ops(), 1024);
//! # Ok::<(), balance_machine::MachineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod checkpoint;
pub mod error;
pub mod faults;
mod fxmap;
pub mod hierarchy;
pub mod memory;
pub mod pe;
pub mod profstore;
pub mod sampling;
pub mod segmented;
pub mod stackdist;
pub mod store;
pub mod timeline;
pub mod trace;

pub use cache::LruCache;
pub use checkpoint::{
    resumable_replay, CheckpointError, CheckpointPolicy, ReplayControl, ReplayInterrupt,
    ReplayStats, DEFAULT_CHECKPOINT_EVERY,
};
pub use error::MachineError;
pub use faults::{FaultPlan, InjectedFault, StoreFault};
pub use profstore::{
    decode_profile, encode_profile, try_encode_profile, FsckReport, Lookup, ProfileImageError,
    ProfileKey, ProfileMeta, ProfilePayload, ProfileStore, StoreError, PROFILE_MAGIC,
    PROFILE_VERSION,
};
pub use hierarchy::{Hierarchy, MemorySystem};
pub use sampling::{
    sampled_profile_of, sampled_profile_of_bounded, splitmix64, SampledStackDistance,
    MAX_SAMPLE_SHIFT,
};
pub use segmented::segmented_profile_of;
pub use stackdist::{AnalyticProfile, CapacityProfile, StackDistance, TrafficProfile};
pub use memory::{BufferId, LocalMemory};
pub use pe::Pe;
pub use store::{ExternalStore, Region};
pub use timeline::{Timeline, TimelineEntry};
pub use trace::{Phase, PhaseRecorder};
