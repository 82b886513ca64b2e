//! Crash-safe on-disk store for capacity and traffic profiles.
//!
//! A [`CapacityProfile`] is the durable artifact of this whole repro: a
//! few hundred breakpoints that answer `IO(M)` for every capacity without
//! ever replaying the trace again (Kung 1986's point, productized per
//! ROADMAP item 2). This module gives those artifacts a storage contract
//! in the spirit of Hua's *first principle of big memory systems* —
//! checksummed, versioned, atomically published data — so that torn
//! writes, bit rot, out-of-space failures, and version skew are
//! **detected and quarantined**, never served as numbers:
//!
//! * the **`KBCP` image** ([`encode_profile`] / [`decode_profile`]): a
//!   versioned little-endian binary encoding of one profile with a
//!   provenance header (kernel, problem size, engine, sampling rate,
//!   traffic model) and a trailing FNV-1a checksum — the same discipline
//!   as the `KBSD` checkpoint format in [`crate::checkpoint`];
//! * the **[`ProfileStore`]**: a content-addressed directory of `KBCP`
//!   images (file name = FNV-1a digest of the entry's [`ProfileKey`]).
//!   The directory is the whole store: the key list is a scan of its
//!   images, each of which carries its own key header. Every publish
//!   goes through [`crate::checkpoint::write_atomic`], and an
//!   [`ProfileStore::fsck`] scrub quarantines anything the decoder
//!   rejects instead of deleting or serving it;
//! * **fault injection** threaded through the publish path
//!   ([`ProfileStore::put_with`] + [`crate::faults::FaultPlan`]): seeded
//!   torn-write, bit-flip, `ENOSPC`, and stale-version faults, so the
//!   detection and repair paths are continuously tested rather than
//!   trusted.
//!
//! The decoder re-validates every structural invariant (monotone
//! breakpoints, exactness accounting, ledger totals) after the checksum,
//! so a wrong profile cannot be constructed from a valid-looking image.
//! Repair — recomputing a quarantined entry down the analytic → exact →
//! sampled ladder — lives one layer up, in `balance-kernels`'
//! `profservice`, which knows how to rerun kernels; this module only
//! promises that a bad entry is reported as [`Lookup::Quarantined`], and
//! that [`ProfileStore::put`] of the repaired artifact is atomic.
//!
//! Guarantees:
//!
//! * every publish `fsync`s the image and then its directory, so a
//!   published entry outlasts a power loss as well as a SIGKILL (only
//!   the SIGKILL half is tested);
//! * concurrent writers are safe: each writes its own temp file and the
//!   rename is atomic, so two builds over overlapping grids leave every
//!   key served and nothing to quarantine;
//! * a reader that finds an image already moved to quarantine by another
//!   session reports [`Lookup::Quarantined`], not an I/O error;
//! * [`ProfileStore::fsck`] is an offline scrub: it deletes every temp
//!   file it finds, a live writer's included, so do not run it beside
//!   one.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use balance_core::{HierarchySpec, LevelTraffic, Words};

use crate::checkpoint::{fnv1a, write_atomic, ByteReader, ByteWriter, CheckpointError};
use crate::faults::{FaultPlan, StoreFault};
use crate::sampling::MAX_SAMPLE_SHIFT;
use crate::stackdist::{CapacityProfile, TrafficProfile};

/// Magic prefix of a profile image ("Kung Balance Capacity Profile").
pub const PROFILE_MAGIC: [u8; 4] = *b"KBCP";

/// Current profile image format version.
pub const PROFILE_VERSION: u16 = 1;

/// File-name suffix of a published profile image.
const IMAGE_SUFFIX: &str = ".kbcp";

/// Subdirectory where rejected images are preserved for post-mortems.
const QUARANTINE: &str = "quarantine";

/// Why a profile image was rejected. Mirrors
/// [`CheckpointError`] variant for
/// variant (the two formats share their integrity discipline) but reports
/// in `KBCP` terms.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProfileImageError {
    /// The image is shorter than its header + checksum.
    Truncated {
        /// Bytes actually present.
        len: usize,
    },
    /// The image does not start with [`PROFILE_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The image's format version is not [`PROFILE_VERSION`] — written by
    /// a different build, so its layout cannot be trusted.
    UnsupportedVersion {
        /// The version found in the image.
        found: u16,
    },
    /// The trailing FNV-1a checksum does not match the payload (torn
    /// write or bit rot).
    ChecksumMismatch {
        /// Checksum stored in the image.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The image passed the checksum but violates a structural invariant
    /// (e.g. non-monotone breakpoints, exactness accounting that does not
    /// balance, a ledger total that disagrees with its steps).
    Corrupt {
        /// The violated invariant.
        reason: &'static str,
    },
    /// Filesystem failure while reading the image.
    Io(io::Error),
    /// The profile was measured by an engine capped at stack depth
    /// `depth` ([`crate::StackDistance::with_depth`]). It answers no
    /// capacity above the cap, so it is never encoded: an image must
    /// answer every capacity a reader asks.
    Capped {
        /// The profile's depth cap.
        depth: u64,
    },
}

impl fmt::Display for ProfileImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileImageError::Truncated { len } => {
                write!(f, "profile image truncated: only {len} bytes")
            }
            ProfileImageError::BadMagic { found } => {
                write!(f, "not a profile image: bad magic {found:?}")
            }
            ProfileImageError::UnsupportedVersion { found } => write!(
                f,
                "unsupported profile image version {found} (this build reads KBCP v{PROFILE_VERSION})"
            ),
            ProfileImageError::ChecksumMismatch { stored, computed } => write!(
                f,
                "profile image checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            ProfileImageError::Corrupt { reason } => write!(f, "corrupt profile image: {reason}"),
            ProfileImageError::Io(e) => write!(f, "profile image I/O failure: {e}"),
            ProfileImageError::Capped { depth } => write!(
                f,
                "profile capped at depth {depth} answers no capacity above it; \
                 only uncapped profiles are encoded"
            ),
        }
    }
}

impl std::error::Error for ProfileImageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileImageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ProfileImageError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Truncated { len } => ProfileImageError::Truncated { len },
            CheckpointError::BadMagic { found } => ProfileImageError::BadMagic { found },
            CheckpointError::UnsupportedVersion { found } => {
                ProfileImageError::UnsupportedVersion { found }
            }
            CheckpointError::ChecksumMismatch { stored, computed } => {
                ProfileImageError::ChecksumMismatch { stored, computed }
            }
            CheckpointError::Corrupt { reason } => ProfileImageError::Corrupt { reason },
            CheckpointError::Io(e) => ProfileImageError::Io(e),
        }
    }
}

/// The identity of a store entry: which measured curve this is. Engine
/// and sampling rate are *provenance* (how the curve was obtained), not
/// identity, so a repaired entry overwrites its predecessor's address.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProfileKey {
    /// Kernel name as reported by `Kernel::name()`.
    pub kernel: String,
    /// Problem size the trace was generated at.
    pub n: u64,
    /// Transfer granularity in words (1 = the paper's word model).
    pub line_words: u64,
    /// Whether the entry carries the dirty write-back ledger
    /// (a [`TrafficProfile`]) or a plain read curve
    /// (a [`CapacityProfile`]).
    pub writebacks: bool,
}

impl ProfileKey {
    /// Key of a word-granular capacity profile.
    #[must_use]
    pub fn word(kernel: impl Into<String>, n: u64) -> ProfileKey {
        ProfileKey {
            kernel: kernel.into(),
            n,
            line_words: 1,
            writebacks: false,
        }
    }

    /// Key of a device-real (line-granular, write-back-ledgered) traffic
    /// profile.
    #[must_use]
    pub fn device(kernel: impl Into<String>, n: u64, line_words: u64) -> ProfileKey {
        ProfileKey {
            kernel: kernel.into(),
            n,
            line_words,
            writebacks: true,
        }
    }

    /// FNV-1a digest of the canonical key encoding — the entry's content
    /// address within the store.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.kernel.len() + 18);
        bytes.extend_from_slice(self.kernel.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&self.n.to_le_bytes());
        bytes.extend_from_slice(&self.line_words.to_le_bytes());
        bytes.push(u8::from(self.writebacks));
        fnv1a(&bytes)
    }

    /// The image file name this key is published under.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("{:016x}{IMAGE_SUFFIX}", self.digest())
    }
}

impl fmt::Display for ProfileKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} n={}", self.kernel, self.n)?;
        if self.line_words != 1 || self.writebacks {
            write!(f, " line_words={}", self.line_words)?;
            if self.writebacks {
                write!(f, " +writebacks")?;
            }
        }
        Ok(())
    }
}

/// The provenance header of one profile image: identity
/// ([`ProfileMeta::key`]) plus how the curve was obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileMeta {
    /// Kernel name as reported by `Kernel::name()`.
    pub kernel: String,
    /// Problem size the trace was generated at.
    pub n: u64,
    /// CLI spelling of the engine that produced the curve (e.g.
    /// `analytic`, `stackdist`, `sampled:4`).
    pub engine: String,
    /// Sampling-rate exponent of the payload (0 = exact); must agree
    /// with the payload's own exponent, which the decoder checks.
    pub sample_shift: u32,
    /// Transfer granularity in words (1 = the paper's word model).
    pub line_words: u64,
    /// Whether the payload carries the dirty write-back ledger.
    pub writebacks: bool,
}

impl ProfileMeta {
    /// The store identity of this entry (engine and rate stripped).
    #[must_use]
    pub fn key(&self) -> ProfileKey {
        ProfileKey {
            kernel: self.kernel.clone(),
            n: self.n,
            line_words: self.line_words,
            writebacks: self.writebacks,
        }
    }
}

/// The profile carried by an image: a plain read curve or the
/// device-real dual-ledger twin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfilePayload {
    /// A (possibly sampled) read/miss curve.
    Capacity(CapacityProfile),
    /// A line-granular read + write-back dual ledger (always exact).
    Traffic(TrafficProfile),
}

impl ProfilePayload {
    /// The read/fetch curve, whichever payload kind carries it.
    #[must_use]
    pub fn profile(&self) -> &CapacityProfile {
        match self {
            ProfilePayload::Capacity(p) => p,
            ProfilePayload::Traffic(t) => t.profile(),
        }
    }

    /// Whether the payload is exact (unsampled) — what the
    /// `measured_balance_memory` fast path requires.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.profile().is_exact()
    }

    /// Boundary words at capacity `m`: the capacity curve's `io_at`, or
    /// (device model) fetched plus written-back words.
    #[must_use]
    pub fn words_at(&self, m: u64) -> u64 {
        match self {
            ProfilePayload::Capacity(p) => p.io_at(m),
            ProfilePayload::Traffic(t) => t.words_at(m),
        }
    }

    /// Boundary traffic of a ladder with the given level capacities
    /// (innermost first): [`CapacityProfile::traffic_at`], or (device
    /// model) [`TrafficProfile::traffic_at`]'s fetch and write-back dual
    /// ledger.
    ///
    /// # Panics
    ///
    /// As [`LevelTraffic::from_slice`]: more than
    /// [`balance_core::MAX_MEMORY_LEVELS`] capacities panic.
    #[must_use]
    pub fn traffic_at(&self, capacities: &[Words]) -> LevelTraffic {
        match self {
            ProfilePayload::Capacity(p) => p.traffic_at(capacities),
            ProfilePayload::Traffic(t) => t.traffic_at(capacities),
        }
    }

    /// [`ProfilePayload::traffic_at`] for a validated [`HierarchySpec`]
    /// (all levels cache-managed).
    #[must_use]
    pub fn traffic_for(&self, spec: &HierarchySpec) -> LevelTraffic {
        let caps: Vec<Words> = spec.levels().iter().map(|l| l.capacity()).collect();
        self.traffic_at(&caps)
    }

    /// The smallest capacity whose intensity `ops / words_at(M)` reaches
    /// `ratio`, compared exactly
    /// ([`CapacityProfile::min_capacity_reaching`] or its
    /// [`TrafficProfile`] twin).
    #[must_use]
    pub fn min_capacity_reaching(&self, ops: u64, ratio: f64) -> Option<u64> {
        match self {
            ProfilePayload::Capacity(p) => p.min_capacity_reaching(ops, ratio),
            ProfilePayload::Traffic(t) => t.min_capacity_reaching(ops, ratio),
        }
    }
}

/// Encodes one profile as a `KBCP` image (header, payload, trailing
/// FNV-1a checksum). The inverse of [`decode_profile`].
///
/// # Errors
///
/// [`ProfileImageError::Capped`] for a profile measured under a depth cap.
pub fn try_encode_profile(
    meta: &ProfileMeta,
    payload: &ProfilePayload,
) -> Result<Vec<u8>, ProfileImageError> {
    match payload.profile().depth() {
        Some(depth) => Err(ProfileImageError::Capped { depth }),
        None => Ok(encode_with_version(meta, payload, PROFILE_VERSION)),
    }
}

/// [`try_encode_profile`] for a profile known to be uncapped.
///
/// # Panics
///
/// On a capped profile, with the [`ProfileImageError::Capped`] message.
#[must_use]
pub fn encode_profile(meta: &ProfileMeta, payload: &ProfilePayload) -> Vec<u8> {
    try_encode_profile(meta, payload).unwrap_or_else(|e| panic!("{e}"))
}

/// [`encode_profile`] with an explicit version stamp — the hook the
/// stale-version fault uses to forge an image from "a newer build".
fn encode_with_version(meta: &ProfileMeta, payload: &ProfilePayload, version: u16) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(128 + 16 * payload.profile().raw_parts().2.len());
    w.bytes(&PROFILE_MAGIC);
    w.u16(version);
    w.u8(match payload {
        ProfilePayload::Capacity(_) => 0,
        ProfilePayload::Traffic(_) => 1,
    });
    let kernel = meta.kernel.as_bytes();
    w.u16(kernel.len() as u16);
    w.bytes(kernel);
    w.u64(meta.n);
    let engine = meta.engine.as_bytes();
    w.u16(engine.len() as u16);
    w.bytes(engine);
    w.u64(u64::from(meta.sample_shift));
    w.u64(meta.line_words);
    w.u8(u8::from(meta.writebacks));
    match payload {
        ProfilePayload::Capacity(p) => encode_capacity(&mut w, p),
        ProfilePayload::Traffic(t) => {
            let (profile, _line_words, wb_steps, closed, open) = t.raw_parts();
            encode_capacity(&mut w, profile);
            w.u64(wb_steps.len() as u64);
            for &(d, c) in wb_steps {
                w.u64(d);
                w.u64(c);
            }
            w.u64(closed);
            w.u64(open);
        }
    }
    w.finish()
}

fn encode_capacity(w: &mut ByteWriter, p: &CapacityProfile) {
    let (accesses, compulsory, steps, _shift) = p.raw_parts();
    w.u64(accesses);
    w.u64(compulsory);
    w.u64(steps.len() as u64);
    for &(d, h) in steps {
        w.u64(d);
        w.u64(h);
    }
}

/// Decodes and fully validates a `KBCP` image: checksum first, then
/// header, then every structural invariant of the payload — so a wrong
/// profile cannot be constructed from bytes that merely look plausible.
///
/// # Errors
///
/// A typed [`ProfileImageError`] for any truncation, foreign magic,
/// version skew, checksum mismatch, or structural violation. Never
/// panics on arbitrary input.
pub fn decode_profile(bytes: &[u8]) -> Result<(ProfileMeta, ProfilePayload), ProfileImageError> {
    let mut r = ByteReader::verified(bytes).map_err(ProfileImageError::from)?;
    let magic: [u8; 4] = r.array().map_err(ProfileImageError::from)?;
    if magic != PROFILE_MAGIC {
        return Err(ProfileImageError::BadMagic { found: magic });
    }
    let version = r.u16().map_err(ProfileImageError::from)?;
    if version != PROFILE_VERSION {
        return Err(ProfileImageError::UnsupportedVersion { found: version });
    }
    let kind = r.u8().map_err(ProfileImageError::from)?;
    if kind > 1 {
        return Err(ProfileImageError::Corrupt {
            reason: "unknown payload kind",
        });
    }
    let kernel = read_string(&mut r)?;
    let n = r.u64().map_err(ProfileImageError::from)?;
    let engine = read_string(&mut r)?;
    let sample_shift = r.u64().map_err(ProfileImageError::from)?;
    if sample_shift > u64::from(MAX_SAMPLE_SHIFT) {
        return Err(ProfileImageError::Corrupt {
            reason: "sampling exponent beyond the engine's maximum",
        });
    }
    let sample_shift = sample_shift as u32;
    let line_words = r.u64().map_err(ProfileImageError::from)?;
    if line_words == 0 || !line_words.is_power_of_two() {
        return Err(ProfileImageError::Corrupt {
            reason: "line size must be a positive power of two",
        });
    }
    let writebacks = match r.u8().map_err(ProfileImageError::from)? {
        0 => false,
        1 => true,
        _ => {
            return Err(ProfileImageError::Corrupt {
                reason: "write-back flag must be 0 or 1",
            })
        }
    };
    if (kind == 1) != writebacks {
        return Err(ProfileImageError::Corrupt {
            reason: "payload kind disagrees with the write-back flag",
        });
    }
    let meta = ProfileMeta {
        kernel,
        n,
        engine,
        sample_shift,
        line_words,
        writebacks,
    };
    let profile = decode_capacity(&mut r, sample_shift)?;
    let payload = if kind == 0 {
        ProfilePayload::Capacity(profile)
    } else {
        if sample_shift != 0 {
            return Err(ProfileImageError::Corrupt {
                reason: "traffic profiles are never sampled",
            });
        }
        let wb_len = r.u64().map_err(ProfileImageError::from)?;
        let wb_steps = read_steps(&mut r, wb_len)?;
        let closed = r.u64().map_err(ProfileImageError::from)?;
        let open = r.u64().map_err(ProfileImageError::from)?;
        let ledgered = wb_steps.last().map_or(0, |&(_, c)| c);
        if ledgered != closed {
            return Err(ProfileImageError::Corrupt {
                reason: "write-back ledger total disagrees with its steps",
            });
        }
        ProfilePayload::Traffic(TrafficProfile::from_raw_parts(
            profile,
            meta.line_words,
            wb_steps,
            closed,
            open,
        ))
    };
    r.expect_end().map_err(ProfileImageError::from)?;
    Ok((meta, payload))
}

fn read_string(r: &mut ByteReader<'_>) -> Result<String, ProfileImageError> {
    let len = r.u16().map_err(ProfileImageError::from)?;
    let mut bytes = Vec::with_capacity(usize::from(len));
    for _ in 0..len {
        bytes.push(r.u8().map_err(ProfileImageError::from)?);
    }
    String::from_utf8(bytes).map_err(|_| ProfileImageError::Corrupt {
        reason: "header string is not UTF-8",
    })
}

/// Reads `len` breakpoint pairs and enforces strict monotonicity in both
/// coordinates (the sparse-histogram invariant every query relies on).
fn read_steps(r: &mut ByteReader<'_>, len: u64) -> Result<Vec<(u64, u64)>, ProfileImageError> {
    let flat = r.u64_vec(len.saturating_mul(2)).map_err(ProfileImageError::from)?;
    let steps: Vec<(u64, u64)> = flat.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    let mut prev: Option<(u64, u64)> = None;
    for &(d, c) in &steps {
        if c == 0 {
            return Err(ProfileImageError::Corrupt {
                reason: "breakpoint with a zero cumulative count",
            });
        }
        if let Some((pd, pc)) = prev {
            if d <= pd || c <= pc {
                return Err(ProfileImageError::Corrupt {
                    reason: "breakpoints must strictly increase in both coordinates",
                });
            }
        }
        prev = Some((d, c));
    }
    Ok(steps)
}

fn decode_capacity(
    r: &mut ByteReader<'_>,
    shift: u32,
) -> Result<CapacityProfile, ProfileImageError> {
    let accesses = r.u64().map_err(ProfileImageError::from)?;
    let compulsory = r.u64().map_err(ProfileImageError::from)?;
    if compulsory > accesses {
        return Err(ProfileImageError::Corrupt {
            reason: "more compulsory misses than accesses",
        });
    }
    let len = r.u64().map_err(ProfileImageError::from)?;
    let steps = read_steps(r, len)?;
    if shift == 0 {
        // Exact profiles account for every access: reuses + compulsory
        // misses = accesses. Sampled profiles store raw sampled counts,
        // which this identity deliberately does not bind.
        let reuses = steps.last().map_or(0, |&(_, h)| h);
        if reuses != accesses - compulsory {
            return Err(ProfileImageError::Corrupt {
                reason: "exact profile does not account for every access",
            });
        }
    }
    Ok(CapacityProfile::from_raw_parts(
        accesses, compulsory, steps, shift,
    ))
}

/// A store I/O failure, with the path that failed.
#[derive(Debug)]
pub struct StoreError {
    /// The file or directory the operation touched.
    pub path: PathBuf,
    /// The underlying filesystem error.
    pub source: io::Error,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "profile store I/O failure at {}: {}",
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The result of one [`ProfileStore::get`].
#[derive(Debug)]
pub enum Lookup {
    /// A validated entry was served.
    Hit {
        /// The entry's provenance header.
        meta: ProfileMeta,
        /// The decoded profile.
        payload: ProfilePayload,
    },
    /// No entry is published under this key.
    Miss,
    /// An entry existed but failed validation; it has been moved to the
    /// quarantine directory (never deleted, never served), by this call
    /// or by a concurrent session. The caller should repair by
    /// recomputing.
    Quarantined {
        /// Why the image was rejected.
        error: ProfileImageError,
    },
}

/// What one [`ProfileStore::fsck`] scrub found and did.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Entries that decoded and validated cleanly.
    pub valid: usize,
    /// Images that failed validation, with the rejection reason; each
    /// has been moved to the quarantine directory.
    pub quarantined: Vec<(String, String)>,
    /// Leftover temp files from interrupted publishes, removed.
    pub cleaned_tmp: usize,
}

impl FsckReport {
    /// Whether the scrub found nothing to repair.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.quarantined.is_empty() && self.cleaned_tmp == 0
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The fixed "0 adopted" and "0 missing" keep the line that
        // `perfbench/run.py`'s FSCK_RE parses, and that
        // `perfbench/expected/full.json` pins, from when a manifest could
        // disagree with the directory.
        writeln!(
            f,
            "fsck: {} valid, 0 adopted, {} quarantined, 0 missing, {} temp cleaned",
            self.valid,
            self.quarantined.len(),
            self.cleaned_tmp
        )?;
        for (file, reason) in &self.quarantined {
            writeln!(f, "  quarantined {file}: {reason}")?;
        }
        Ok(())
    }
}

/// A content-addressed directory of `KBCP` profile images with durable
/// atomic publishes, self-quarantining reads, and an fsck scrub. See the
/// module docs for the durability contract.
#[derive(Debug, Clone)]
pub struct ProfileStore {
    dir: PathBuf,
}

impl ProfileStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ProfileStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|source| StoreError {
            path: dir.clone(),
            source,
        })?;
        Ok(ProfileStore { dir })
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where rejected images are preserved.
    #[must_use]
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE)
    }

    /// Publishes one entry durably and atomically
    /// ([`crate::checkpoint::write_atomic`]). An existing entry under the
    /// same key is replaced.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the image cannot be persisted, or when the
    /// profile is capped (see [`ProfileStore::put_with`]).
    pub fn put(&self, meta: &ProfileMeta, payload: &ProfilePayload) -> Result<(), StoreError> {
        self.put_with(meta, payload, &FaultPlan::none())
    }

    /// [`ProfileStore::put`] with a [`FaultPlan`] threaded through the
    /// publish path. An armed store fault is consumed here:
    ///
    /// * **torn write** — only the first half of the image reaches the
    ///   final path, and the writer still believes it succeeded, as after
    ///   a power loss on a filesystem that reorders writes;
    /// * **bit flip** — one byte of the image is flipped after
    ///   checksumming, then published normally (silent media corruption);
    /// * **`ENOSPC`** — the publish fails before anything durable
    ///   changes, and the error is returned;
    /// * **stale version** — the image is stamped with a future format
    ///   version and published normally (version skew).
    ///
    /// Every case except `ENOSPC` must be caught later by
    /// [`ProfileStore::get`] / [`ProfileStore::fsck`] — which the
    /// proptests assert.
    ///
    /// # Errors
    ///
    /// [`StoreError`] for real (or injected `ENOSPC`) filesystem
    /// failures, and for a capped profile, which is refused before any
    /// fault is consumed: its source is an `InvalidInput` I/O error
    /// wrapping [`ProfileImageError::Capped`].
    pub fn put_with(
        &self,
        meta: &ProfileMeta,
        payload: &ProfilePayload,
        faults: &FaultPlan,
    ) -> Result<(), StoreError> {
        let path = self.dir.join(meta.key().file_name());
        let fail = |source| {
            Err(StoreError {
                path: path.clone(),
                source,
            })
        };
        if let Some(depth) = payload.profile().depth() {
            let capped = ProfileImageError::Capped { depth };
            return fail(io::Error::new(io::ErrorKind::InvalidInput, capped));
        }
        let bytes = match faults.take_store_fault() {
            Some(StoreFault::Enospc) => {
                let full = "injected ENOSPC: no space left on device";
                return fail(io::Error::new(io::ErrorKind::StorageFull, full));
            }
            Some(StoreFault::TornWrite) => {
                let bytes = encode_profile(meta, payload);
                let torn = &bytes[..bytes.len() / 2];
                return fs::write(&path, torn).or_else(fail);
            }
            Some(StoreFault::BitFlip) => {
                let mut bytes = encode_profile(meta, payload);
                let pos = (fnv1a(&bytes) % bytes.len() as u64) as usize;
                bytes[pos] ^= 0x40;
                bytes
            }
            Some(StoreFault::StaleVersion) => {
                encode_with_version(meta, payload, PROFILE_VERSION + 1)
            }
            None => encode_profile(meta, payload),
        };
        write_atomic(&path, &bytes).or_else(fail)
    }

    /// Looks up one entry, validating it end to end. A failed validation
    /// quarantines the image (moved, never deleted) and reports
    /// [`Lookup::Quarantined`]; it is never served.
    ///
    /// # Errors
    ///
    /// [`StoreError`] for filesystem failures other than "no such
    /// entry".
    pub fn get(&self, key: &ProfileKey) -> Result<Lookup, StoreError> {
        let name = key.file_name();
        let error = match self.read_image(&name) {
            Ok((meta, payload)) => return Ok(Lookup::Hit { meta, payload }),
            Err(ProfileImageError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(Lookup::Miss)
            }
            Err(ProfileImageError::Io(source)) => {
                return Err(StoreError {
                    path: self.dir.join(&name),
                    source,
                })
            }
            Err(error) => error,
        };
        self.quarantine_entry(&name)?;
        Ok(Lookup::Quarantined { error })
    }

    /// The key of every image that validates at its own address, in
    /// file-name (digest) order. Nothing is quarantined: that is
    /// [`ProfileStore::get`]'s and [`ProfileStore::fsck`]'s job.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be listed.
    pub fn keys(&self) -> Result<Vec<ProfileKey>, StoreError> {
        Ok(list_dir(&self.dir)?
            .iter()
            .filter(|name| name.ends_with(IMAGE_SUFFIX))
            .filter_map(|name| self.read_image(name).ok())
            .map(|(meta, _)| meta.key())
            .collect())
    }

    /// Scrubs the whole store offline: removes leftover temp files,
    /// validates every image, and quarantines anything the decoder
    /// rejects. A live writer's temp file counts as leftover, so run it
    /// only when no writer is.
    ///
    /// # Errors
    ///
    /// [`StoreError`] for filesystem failures during the scrub.
    pub fn fsck(&self) -> Result<FsckReport, StoreError> {
        let mut report = FsckReport::default();
        for name in list_dir(&self.dir)? {
            let path = self.dir.join(&name);
            if name.ends_with(".tmp") {
                fs::remove_file(&path).map_err(|source| StoreError { path, source })?;
                report.cleaned_tmp += 1;
            } else if name.ends_with(IMAGE_SUFFIX) {
                match self.read_image(&name) {
                    Ok(_) => report.valid += 1,
                    Err(ProfileImageError::Io(source)) => return Err(StoreError { path, source }),
                    Err(error) => {
                        self.quarantine_entry(&name)?;
                        report.quarantined.push((name, error.to_string()));
                    }
                }
            }
        }
        Ok(report)
    }

    /// File names currently held in quarantine (empty when the
    /// quarantine directory does not exist).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the quarantine directory cannot be listed.
    pub fn quarantined_files(&self) -> Result<Vec<String>, StoreError> {
        list_dir(&self.quarantine_dir())
    }

    /// Reads and validates the image published as `name`. A valid image
    /// whose key hashes to another file name is corrupt: it sits at the
    /// wrong address.
    fn read_image(&self, name: &str) -> Result<(ProfileMeta, ProfilePayload), ProfileImageError> {
        let bytes = fs::read(self.dir.join(name)).map_err(ProfileImageError::Io)?;
        let (meta, payload) = decode_profile(&bytes)?;
        if meta.key().file_name() != name {
            return Err(ProfileImageError::Corrupt {
                reason: "stored header does not match its content address",
            });
        }
        Ok((meta, payload))
    }

    /// Moves a rejected image into the quarantine directory, never
    /// clobbering an earlier quarantined artifact (numeric suffixes). An
    /// image that is already gone was quarantined by a concurrent
    /// session, which is success.
    fn quarantine_entry(&self, name: &str) -> Result<(), StoreError> {
        let qdir = self.quarantine_dir();
        fs::create_dir_all(&qdir).map_err(|source| StoreError {
            path: qdir.clone(),
            source,
        })?;
        let mut dest = qdir.join(name);
        let mut i = 0u32;
        while dest.exists() {
            i += 1;
            dest = qdir.join(format!("{name}.{i}"));
        }
        let src = self.dir.join(name);
        match fs::rename(&src, &dest) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(StoreError {
                path: src,
                source: e,
            }),
            _ => Ok(()),
        }
    }
}

/// The UTF-8 entry names of `dir`, sorted; empty when `dir` does not
/// exist.
fn list_dir(dir: &Path) -> Result<Vec<String>, StoreError> {
    let fail = |source| StoreError {
        path: dir.to_path_buf(),
        source,
    };
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(fail(e)),
    };
    let mut names = Vec::new();
    for entry in entries {
        if let Ok(name) = entry.map_err(fail)?.file_name().into_string() {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stackdist::StackDistance;
    use balance_core::Access;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "kb-profstore-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn capacity_fixture() -> (ProfileMeta, ProfilePayload) {
        let addrs = [0u64, 1, 2, 0, 1, 2, 3, 0, 3, 1];
        let profile = StackDistance::profile_of(addrs);
        let meta = ProfileMeta {
            kernel: "matmul".to_string(),
            n: 8,
            engine: "stackdist".to_string(),
            sample_shift: 0,
            line_words: 1,
            writebacks: false,
        };
        (meta, ProfilePayload::Capacity(profile))
    }

    fn traffic_fixture() -> (ProfileMeta, ProfilePayload) {
        let accesses = [
            Access::read(0),
            Access::write(1),
            Access::read(8),
            Access::write(9),
            Access::read(0),
            Access::write(17),
            Access::read(8),
        ];
        let traffic = StackDistance::traffic_profile_of(accesses, 8);
        let meta = ProfileMeta {
            kernel: "sort".to_string(),
            n: 16,
            engine: "stackdist".to_string(),
            sample_shift: 0,
            line_words: 8,
            writebacks: true,
        };
        (meta, ProfilePayload::Traffic(traffic))
    }

    #[test]
    fn capacity_round_trips_structurally_equal() {
        let (meta, payload) = capacity_fixture();
        let bytes = encode_profile(&meta, &payload);
        let (meta2, payload2) = decode_profile(&bytes).unwrap();
        assert_eq!(meta, meta2);
        assert_eq!(payload, payload2);
    }

    #[test]
    fn traffic_round_trips_structurally_equal() {
        let (meta, payload) = traffic_fixture();
        let bytes = encode_profile(&meta, &payload);
        let (meta2, payload2) = decode_profile(&bytes).unwrap();
        assert_eq!(meta, meta2);
        assert_eq!(payload, payload2);
    }

    #[test]
    fn foreign_magic_and_future_version_are_typed_rejections() {
        let (meta, payload) = capacity_fixture();
        let mut bytes = encode_profile(&meta, &payload);
        // Future version, checksum re-sealed so only the version differs.
        let forged = encode_with_version(&meta, &payload, PROFILE_VERSION + 3);
        assert!(matches!(
            decode_profile(&forged),
            Err(ProfileImageError::UnsupportedVersion { found }) if found == PROFILE_VERSION + 3
        ));
        // Foreign magic breaks the checksum first — still a typed error.
        bytes[0] = b'X';
        assert!(matches!(
            decode_profile(&bytes),
            Err(ProfileImageError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn put_get_round_trip_and_miss() {
        let dir = tmpdir("roundtrip");
        let store = ProfileStore::open(&dir).unwrap();
        let (meta, payload) = capacity_fixture();
        assert!(matches!(store.get(&meta.key()).unwrap(), Lookup::Miss));
        store.put(&meta, &payload).unwrap();
        match store.get(&meta.key()).unwrap() {
            Lookup::Hit {
                meta: m,
                payload: p,
            } => {
                assert_eq!(m, meta);
                assert_eq!(p, payload);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(store.keys().unwrap(), vec![meta.key()]);
        // The image is the whole store: no index file, no temp left over.
        assert_eq!(list_dir(&dir).unwrap(), vec![meta.key().file_name()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_injected_store_fault_is_detected_never_served() {
        let faults: [(&str, FaultPlan); 3] = [
            ("torn", FaultPlan::none().with_torn_store_writes(1)),
            ("bitflip", FaultPlan::none().with_store_bit_flips(1)),
            ("stale", FaultPlan::none().with_stale_store_versions(1)),
        ];
        for (tag, plan) in faults {
            let dir = tmpdir(&format!("fault-{tag}"));
            let store = ProfileStore::open(&dir).unwrap();
            let (meta, payload) = capacity_fixture();
            store.put_with(&meta, &payload, &plan).unwrap();
            match store.get(&meta.key()).unwrap() {
                Lookup::Quarantined { .. } => {}
                other => panic!("{tag}: corrupted entry must be quarantined, got {other:?}"),
            }
            // The bad image is preserved, not deleted, and never re-served.
            assert_eq!(store.quarantined_files().unwrap().len(), 1, "{tag}");
            assert!(matches!(store.get(&meta.key()).unwrap(), Lookup::Miss));
            // Repair: a clean re-put fully restores service.
            store.put(&meta, &payload).unwrap();
            assert!(matches!(store.get(&meta.key()).unwrap(), Lookup::Hit { .. }));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn enospc_fails_the_put_and_leaves_the_store_unchanged() {
        let dir = tmpdir("enospc");
        let store = ProfileStore::open(&dir).unwrap();
        let (meta, payload) = capacity_fixture();
        store.put(&meta, &payload).unwrap();
        let plan = FaultPlan::none().with_store_enospc(1);
        let err = store.put_with(&meta, &payload, &plan).unwrap_err();
        assert_eq!(err.source.kind(), io::ErrorKind::StorageFull);
        // The original entry still serves, bit-identical.
        match store.get(&meta.key()).unwrap() {
            Lookup::Hit { payload: p, .. } => assert_eq!(p, payload),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(store.fsck().unwrap().healthy());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_validates_hand_written_images_and_quarantines_torn_ones() {
        let dir = tmpdir("fsck");
        let store = ProfileStore::open(&dir).unwrap();
        let (meta, payload) = capacity_fixture();
        let (tmeta, tpayload) = traffic_fixture();
        // A valid image written by hand, not through `put`: the directory
        // is the store, so it is an entry like any other.
        let bytes = encode_profile(&meta, &payload);
        fs::write(dir.join(meta.key().file_name()), &bytes).unwrap();
        // A torn image under another key.
        store
            .put_with(&tmeta, &tpayload, &FaultPlan::none().with_torn_store_writes(1))
            .unwrap();
        // A leftover temp file from an interrupted publish.
        fs::write(dir.join("0123456789abcdef.kbcp.77.0.tmp"), b"partial").unwrap();
        assert_eq!(store.keys().unwrap(), vec![meta.key()], "torn images are not listed");
        let report = store.fsck().unwrap();
        assert_eq!(report.valid, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.cleaned_tmp, 1);
        assert!(!report.healthy());
        assert_eq!(
            report.to_string().lines().next(),
            Some("fsck: 1 valid, 0 adopted, 1 quarantined, 0 missing, 1 temp cleaned")
        );
        // Post-fsck: the hand-written image serves, the torn entry is a
        // miss, and a second scrub is clean.
        assert!(matches!(store.get(&meta.key()).unwrap(), Lookup::Hit { .. }));
        assert!(matches!(store.get(&tmeta.key()).unwrap(), Lookup::Miss));
        assert_eq!(store.keys().unwrap(), vec![meta.key()]);
        assert!(store.fsck().unwrap().healthy());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantining_an_already_quarantined_image_succeeds() {
        let dir = tmpdir("requarantine");
        let store = ProfileStore::open(&dir).unwrap();
        let (meta, payload) = capacity_fixture();
        store
            .put_with(&meta, &payload, &FaultPlan::none().with_store_bit_flips(1))
            .unwrap();
        assert!(matches!(
            store.get(&meta.key()).unwrap(),
            Lookup::Quarantined { .. }
        ));
        // A second session that read the same corrupt image moves it too,
        // after the first one already has.
        store.quarantine_entry(&meta.key().file_name()).unwrap();
        assert_eq!(store.quarantined_files().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_rejects_content_at_the_wrong_address() {
        let dir = tmpdir("wrong-address");
        let store = ProfileStore::open(&dir).unwrap();
        let (meta, payload) = capacity_fixture();
        let bytes = encode_profile(&meta, &payload);
        // Publish a valid image under a different key's address.
        let other = ProfileKey::word("fft", 32);
        fs::write(dir.join(other.file_name()), &bytes).unwrap();
        match store.get(&other).unwrap() {
            Lookup::Quarantined { error } => {
                assert!(matches!(error, ProfileImageError::Corrupt { .. }));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
