//! The [`MemorySystem`] abstraction and the chained-cache [`Hierarchy`].
//!
//! Everything below the PE port is, to the balance model, a traffic
//! accountant: it watches the stream of word accesses the PE emits and
//! reports how many words crossed each boundary of the memory system.
//! [`MemorySystem`] captures exactly that contract, and three backends
//! implement it:
//!
//! * [`LocalMemory`] — the explicit one-level scheme of the paper: the
//!   decomposition algorithm decides every transfer, so *every* access is
//!   one word of traffic at the single boundary.
//! * [`LruCache`] — the automatic one-level scheme: traffic at the boundary
//!   is the miss volume.
//! * [`Hierarchy`] — the general case: an ordered ladder of LRU levels
//!   (innermost first). **Every level observes every access** — each level
//!   is an independent, standalone LRU over the full access stream — and a
//!   level's boundary traffic is its own miss volume. Because LRU is a
//!   stack algorithm (Mattson et al. 1970), a cache of capacity `M` holds
//!   exactly the top `M` entries of the LRU stack, so with capacities
//!   growing outward the levels are *inclusive by construction*: a hit at
//!   level `i` implies a hit at every deeper level, a word reaches level
//!   `i+1`'s boundary only by missing every level up to `i`, and traffic
//!   never grows with depth (pinned by property test). The same property
//!   is what makes the one-pass [`crate::stackdist`] engine exact: level
//!   `i`'s traffic is precisely the number of accesses whose reuse (stack)
//!   distance exceeds `M_i`, so one histogram answers every level — and
//!   every capacity — at once.
//!
//! The per-level balance law reads directly off the result: with compute
//! rate `C` and per-boundary bandwidths `IO_i`, the machine is balanced iff
//! `C_comp / C = traffic_i / IO_i` at every boundary — each level pair has
//! its own balanced-memory point (see `balance-roofline`'s hierarchical
//! roofline for the solver side). This is the paper's §5 observation made
//! executable, and the lens of its successors: Hanlon's *"Emulating a
//! large memory with a collection of smaller ones"* (2012) builds exactly
//! such a ladder and prices its per-level traffic, and Hua's *"The First
//! Principle of Big Memory Systems"* (2023) coalesces heterogeneous memory
//! tiers whose boundaries each carry their own bandwidth — and therefore
//! their own balance condition.

use balance_core::{HierarchySpec, LevelTraffic, Words};

use crate::cache::LruCache;
use crate::memory::LocalMemory;

/// A memory system observed from the PE port: an accountant for the word
/// traffic its access stream induces at every boundary of the system.
pub trait MemorySystem {
    /// Number of levels (= number of boundaries in the traffic vector).
    fn depth(&self) -> usize;

    /// Observes one word-sized access at external address `addr`.
    fn access(&mut self, addr: u64);

    /// Words that crossed each boundary so far, innermost first.
    fn traffic(&self) -> LevelTraffic;

    /// Capacity of level `level`, in words.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `level ≥ depth()`.
    fn capacity(&self, level: usize) -> Words;

    /// Feeds a whole address trace; returns the traffic vector afterwards.
    fn run_trace(&mut self, addrs: impl IntoIterator<Item = u64>) -> LevelTraffic
    where
        Self: Sized,
    {
        for a in addrs {
            self.access(a);
        }
        self.traffic()
    }
}

/// The explicit scheme: the algorithm manages the level itself, so every
/// observed access is one word of boundary traffic.
impl MemorySystem for LocalMemory {
    fn depth(&self) -> usize {
        1
    }

    fn access(&mut self, _addr: u64) {
        self.record_traffic(1);
    }

    fn traffic(&self) -> LevelTraffic {
        LevelTraffic::single(self.recorded_traffic())
    }

    fn capacity(&self, level: usize) -> Words {
        assert_eq!(level, 0, "LocalMemory has exactly one level");
        self.capacity()
    }
}

/// The automatic scheme: boundary traffic is the miss volume.
impl MemorySystem for LruCache {
    fn depth(&self) -> usize {
        1
    }

    fn access(&mut self, addr: u64) {
        let _ = LruCache::access(self, addr);
    }

    fn traffic(&self) -> LevelTraffic {
        LevelTraffic::single(self.miss_words())
    }

    fn capacity(&self, level: usize) -> Words {
        assert_eq!(level, 0, "a flat LruCache has exactly one level");
        Words::new(self.capacity_lines() as u64 * self.line_words())
    }
}

/// An N-level memory hierarchy: a ladder of word-granular LRU caches,
/// innermost (smallest) first, every level observing the full access
/// stream (Mattson stack semantics), with inclusive traffic accounting.
///
/// # Examples
///
/// ```
/// use balance_machine::{Hierarchy, MemorySystem};
/// use balance_core::Words;
///
/// // 2 words of L1 over 4 words of L2.
/// let mut h = Hierarchy::new(&[Words::new(2), Words::new(4)]);
/// for addr in [0, 1, 2, 0, 1, 2] {
///     h.access(addr);
/// }
/// // L1 thrashes (3-address loop through 2 slots): 6 misses. L2 holds all
/// // three: only the 3 compulsory misses reach the outside world.
/// assert_eq!(h.traffic().as_slice(), &[6, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    levels: Vec<LruCache>,
    accesses: u64,
}

impl Hierarchy {
    /// Builds a hierarchy of word-granular LRU levels with the given
    /// capacities, innermost first.
    ///
    /// Levels use the hash-indexed cache backend: the address space a PE
    /// will feed the ladder (its external store) grows dynamically, so no
    /// sound bound exists at construction time. Callers that do know a
    /// bound can trade that safety for the direct-indexed backend's speed
    /// by chaining [`LruCache::with_address_bound`] caches themselves —
    /// the per-word accounting cost is priced by the
    /// `ladder_sweep_matmul_n96` bench.
    ///
    /// # Panics
    ///
    /// Panics when `capacities` is empty, when a capacity is zero or does
    /// not fit the cache's index space (see [`LruCache::new`]). Capacity
    /// monotonicity is *not* required here — [`HierarchySpec`] enforces it
    /// for well-formed machines, but the raw backend stays usable for
    /// counter-examples and tests.
    #[must_use]
    pub fn new(capacities: &[Words]) -> Self {
        assert!(!capacities.is_empty(), "a hierarchy needs at least one level");
        let levels = capacities
            .iter()
            .map(|c| {
                let lines = usize::try_from(c.get())
                    .unwrap_or_else(|_| panic!("level capacity overflows usize"));
                LruCache::new(lines, 1)
            })
            .collect();
        Hierarchy { levels, accesses: 0 }
    }

    /// Builds the backend for a validated [`HierarchySpec`] (all levels,
    /// including level 0, cache-managed — the trace-driven configuration).
    ///
    /// Word-granular: every level transfers single words regardless of the
    /// spec's line sizes. Use [`Hierarchy::from_spec_device`] to honor
    /// them.
    #[must_use]
    pub fn from_spec(spec: &HierarchySpec) -> Self {
        let caps: Vec<Words> = spec.levels().iter().map(|l| l.capacity()).collect();
        Hierarchy::new(&caps)
    }

    /// Builds the device-realistic backend for a validated
    /// [`HierarchySpec`]: each level is an LRU over `capacity / line_words`
    /// lines of that level's own line size, with dirty-bit write-back
    /// accounting. Feed it tagged accesses
    /// ([`Hierarchy::run_tagged_trace`]) and read the dual ledger off
    /// [`Hierarchy::dual_traffic`].
    ///
    /// # Panics
    ///
    /// Panics when a level's capacity is smaller than its line size (the
    /// level could not hold even one line).
    #[must_use]
    pub fn from_spec_device(spec: &HierarchySpec) -> Self {
        let levels = spec
            .levels()
            .iter()
            .map(|l| {
                let lw = l.line_words();
                assert!(
                    l.capacity().get() >= lw,
                    "level capacity {} cannot hold a {lw}-word line",
                    l.capacity()
                );
                let lines = usize::try_from(l.capacity().get() / lw)
                    .unwrap_or_else(|_| panic!("level capacity overflows usize"));
                LruCache::new(lines, lw)
            })
            .collect();
        Hierarchy { levels, accesses: 0 }
    }

    /// Total accesses observed at the innermost level.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// The cache modeling level `level` (for per-level hit/miss stats).
    /// Every level sees the full access stream, so a deeper level's hit
    /// count includes accesses that also hit inner levels; its miss count
    /// is exactly the traffic at its boundary.
    ///
    /// # Panics
    ///
    /// Panics when `level ≥ depth()`.
    #[must_use]
    pub fn level(&self, level: usize) -> &LruCache {
        &self.levels[level]
    }

    /// Observes one access at **every** level (each level is a standalone
    /// LRU over the full stream — the Mattson stack model); returns the
    /// innermost level that hit, or `depth()` when the word came from the
    /// outside world.
    ///
    /// With capacities growing outward, LRU inclusion guarantees every
    /// level below the returned one hit as well, so the return value is
    /// exactly "where the word lives".
    pub fn access_returning_level(&mut self, addr: u64) -> usize {
        self.accesses += 1;
        let depth = self.levels.len();
        let mut hit_level = depth;
        for (i, cache) in self.levels.iter_mut().enumerate() {
            if cache.access(addr) && hit_level == depth {
                hit_level = i;
            }
        }
        hit_level
    }

    /// Observes one *tagged* access at every level (each level tracks its
    /// own line granularity and dirty bits); returns the innermost level
    /// that hit, as [`Hierarchy::access_returning_level`].
    pub fn access_tagged_returning_level(&mut self, access: balance_core::Access) -> usize {
        self.accesses += 1;
        let depth = self.levels.len();
        let mut hit_level = depth;
        for (i, cache) in self.levels.iter_mut().enumerate() {
            if cache.access_tagged(access) && hit_level == depth {
                hit_level = i;
            }
        }
        hit_level
    }

    /// Writes every resident dirty line back at every level; returns the
    /// total write-backs (lines) emitted. The end-of-run flush — call it
    /// before reading [`Hierarchy::dual_traffic`] for a finished
    /// computation.
    pub fn flush_dirty(&mut self) -> u64 {
        self.levels.iter_mut().map(LruCache::flush_dirty).sum()
    }

    /// Runs a whole tagged trace through every level and flushes the
    /// lingering dirty lines; returns the dual ledger
    /// ([`Hierarchy::dual_traffic`]).
    pub fn run_tagged_trace(
        &mut self,
        accesses: impl IntoIterator<Item = balance_core::Access>,
    ) -> LevelTraffic {
        for a in accesses {
            let _ = self.access_tagged_returning_level(a);
        }
        self.flush_dirty();
        self.dual_traffic()
    }

    /// The dual ledger: fetch words and write-back words that crossed each
    /// boundary, innermost first. The scalar view
    /// ([`LevelTraffic::get`] / [`LevelTraffic::as_slice`]) reads the sum,
    /// so word-granular all-read replays report exactly what
    /// [`MemorySystem::traffic`] always did.
    #[must_use]
    pub fn dual_traffic(&self) -> LevelTraffic {
        let reads: Vec<u64> = self.levels.iter().map(LruCache::miss_words).collect();
        let wbs: Vec<u64> = self.levels.iter().map(LruCache::writeback_words).collect();
        LevelTraffic::from_reads_and_writebacks(&reads, &wbs)
    }

    /// Discards all cached state and counters (capacities and line sizes
    /// are kept).
    pub fn reset(&mut self) {
        for cache in &mut self.levels {
            *cache = LruCache::new(cache.capacity_lines(), cache.line_words());
        }
        self.accesses = 0;
    }
}

impl MemorySystem for Hierarchy {
    fn depth(&self) -> usize {
        self.levels.len()
    }

    fn access(&mut self, addr: u64) {
        let _ = self.access_returning_level(addr);
    }

    fn traffic(&self) -> LevelTraffic {
        let words: Vec<u64> = self.levels.iter().map(LruCache::miss_words).collect();
        LevelTraffic::from_slice(&words)
    }

    fn capacity(&self, level: usize) -> Words {
        let c = &self.levels[level];
        Words::new(c.capacity_lines() as u64 * c.line_words())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_level_hierarchy_is_bit_identical_to_bare_lru() {
        let mut h = Hierarchy::new(&[Words::new(3)]);
        let mut c = LruCache::new(3, 1);
        for addr in [1u64, 2, 3, 1, 4, 2, 2, 5, 1] {
            let level = h.access_returning_level(addr);
            let hit = c.access(addr);
            assert_eq!(level == 0, hit, "addr {addr}");
        }
        assert_eq!(h.traffic(), MemorySystem::traffic(&c));
        assert_eq!(h.level(0).hits(), c.hits());
        assert_eq!(h.level(0).misses(), c.misses());
    }

    #[test]
    fn traffic_is_inclusive_down_the_chain() {
        let mut h = Hierarchy::new(&[Words::new(2), Words::new(8), Words::new(32)]);
        for round in 0..4u64 {
            for addr in 0..16u64 {
                h.access(addr.wrapping_mul(7) % 16 + round % 2);
            }
        }
        let t = h.traffic();
        assert_eq!(t.len(), 3);
        assert!(t.is_monotone_non_increasing(), "traffic {t}");
        assert!(t.get(0).unwrap() <= h.accesses());
    }

    #[test]
    fn hit_level_reflects_where_the_word_lives() {
        let mut h = Hierarchy::new(&[Words::new(1), Words::new(2)]);
        assert_eq!(h.access_returning_level(10), 2); // cold: from outside
        assert_eq!(h.access_returning_level(10), 0); // now in L1
        assert_eq!(h.access_returning_level(11), 2); // cold, evicts 10 from L1
        assert_eq!(h.access_returning_level(10), 1); // still in L2
        assert_eq!(h.accesses(), 4);
    }

    #[test]
    fn local_memory_counts_every_access_as_traffic() {
        let mut mem = LocalMemory::new(Words::new(64));
        assert_eq!(mem.depth(), 1);
        assert_eq!(MemorySystem::capacity(&mem, 0).get(), 64);
        let t = MemorySystem::run_trace(&mut mem, [5, 5, 5, 9]);
        assert_eq!(t.as_slice(), &[4], "explicit scheme: all accesses cross");
    }

    #[test]
    fn lru_cache_reports_miss_words_as_traffic() {
        let mut c = LruCache::new(2, 4); // 2 lines of 4 words
        assert_eq!(MemorySystem::capacity(&c, 0).get(), 8);
        // Lines 0, 0, 1, 2 -> 3 line misses of 4 words each.
        let t = MemorySystem::run_trace(&mut c, [0u64, 1, 4, 8]);
        assert_eq!(t.as_slice(), &[12]);
    }

    #[test]
    fn from_spec_uses_level_capacities() {
        use balance_core::{LevelSpec, WordsPerSec};
        let spec = HierarchySpec::new(vec![
            LevelSpec::new(Words::new(4), WordsPerSec::new(1.0)).unwrap(),
            LevelSpec::new(Words::new(16), WordsPerSec::new(1.0)).unwrap(),
        ])
        .unwrap();
        let h = Hierarchy::from_spec(&spec);
        assert_eq!(h.depth(), 2);
        assert_eq!(h.capacity(0).get(), 4);
        assert_eq!(h.capacity(1).get(), 16);
    }

    #[test]
    fn reset_clears_state_but_keeps_shape() {
        let mut h = Hierarchy::new(&[Words::new(2), Words::new(4)]);
        h.run_trace(0..8u64);
        h.reset();
        assert_eq!(h.accesses(), 0);
        assert_eq!(h.traffic().as_slice(), &[0, 0]);
        assert_eq!(h.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_hierarchy_panics() {
        let _ = Hierarchy::new(&[]);
    }

    fn device_spec(levels: &[(u64, u64)]) -> HierarchySpec {
        use balance_core::{LevelSpec, WordsPerSec};
        HierarchySpec::new(
            levels
                .iter()
                .map(|&(cap, lw)| {
                    LevelSpec::new(Words::new(cap), WordsPerSec::new(1.0))
                        .unwrap()
                        .with_line_words(lw)
                        .unwrap()
                })
                .collect(),
        )
        .unwrap()
    }

    fn mixed_trace(n: u64, space: u64) -> Vec<balance_core::Access> {
        (0..n)
            .map(|i| {
                let addr = (i * 13 + (i * i) % 7) % space;
                if i % 3 == 0 {
                    balance_core::Access::write(addr)
                } else {
                    balance_core::Access::read(addr)
                }
            })
            .collect()
    }

    #[test]
    fn device_hierarchy_levels_are_standalone_dirty_lrus() {
        // Each level of the ladder must count exactly what a lone
        // line-granular dirty LRU of the same shape counts — levels with
        // *different* line sizes included.
        let spec = device_spec(&[(8, 2), (32, 4), (128, 8)]);
        let trace = mixed_trace(800, 96);
        let mut h = Hierarchy::from_spec_device(&spec);
        let t = h.run_tagged_trace(trace.iter().copied());
        for (i, &(cap, lw)) in [(8u64, 2u64), (32, 4), (128, 8)].iter().enumerate() {
            let mut lone = LruCache::new((cap / lw) as usize, lw);
            let (misses, wbs) = lone.run_tagged_trace(trace.iter().copied());
            assert_eq!(t.read_at(i), Some(misses * lw), "level {i} fetch words");
            assert_eq!(t.writeback_at(i), Some(wbs * lw), "level {i} wb words");
            assert_eq!(h.capacity(i).get(), cap);
        }
    }

    #[test]
    fn device_hierarchy_matches_traffic_profile_at_uniform_line_size() {
        // With one line size everywhere, the one-pass tagged engine's dual
        // ledger must be bit-identical to the ladder replay.
        use crate::stackdist::StackDistance;
        let spec = device_spec(&[(16, 4), (64, 4), (256, 4)]);
        let trace = mixed_trace(1200, 200);
        let mut h = Hierarchy::from_spec_device(&spec);
        let replayed = h.run_tagged_trace(trace.iter().copied());
        let tp = StackDistance::traffic_profile_of(trace.iter().copied(), 4);
        assert_eq!(tp.traffic_for(&spec), replayed);
    }

    #[test]
    fn all_read_tagged_ladder_reports_the_word_granular_numbers() {
        let spec = device_spec(&[(4, 1), (16, 1)]);
        let addrs: Vec<u64> = (0..300u64).map(|i| (i * 5 + 1) % 40).collect();
        let mut tagged = Hierarchy::from_spec_device(&spec);
        let dual = tagged
            .run_tagged_trace(addrs.iter().map(|&a| balance_core::Access::read(a)));
        let mut plain = Hierarchy::from_spec(&spec);
        let scalar = plain.run_trace(addrs.iter().copied());
        assert_eq!(dual.as_slice(), scalar.as_slice(), "scalar view unchanged");
        assert!(!dual.has_writebacks());
    }

    #[test]
    fn device_reset_keeps_line_sizes() {
        let spec = device_spec(&[(8, 4)]);
        let mut h = Hierarchy::from_spec_device(&spec);
        let t1 = h.run_tagged_trace(mixed_trace(100, 32));
        h.reset();
        assert_eq!(h.accesses(), 0);
        let t2 = h.run_tagged_trace(mixed_trace(100, 32));
        assert_eq!(t1, t2, "reset must preserve the level shapes");
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn device_level_smaller_than_its_line_panics() {
        let _ = Hierarchy::from_spec_device(&device_spec(&[(2, 4)]));
    }
}
