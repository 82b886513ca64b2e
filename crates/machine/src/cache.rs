//! A fully-associative LRU cache model.
//!
//! The paper's decomposition schemes manage the local memory *explicitly*.
//! The introduction, however, motivates local memory as something that can
//! "cache frequently used data". The ablation experiment (E13) contrasts the
//! two: an LRU-managed memory of the same capacity `M`, fed the address
//! trace of a naive algorithm, versus the explicit blocked scheme. [`LruCache`]
//! is the model for the former — each miss costs one line of I/O.
//!
//! The replacement policy lives in an index-linked LRU list over a node
//! arena; the **line index** (line id → node) has two backends, chosen at
//! construction:
//!
//! * **Direct-indexed** ([`LruCache::with_address_bound`]): when the caller
//!   can bound the address space — kernel traces address a dense
//!   `[0, 3n²)` range — the index is a flat `Vec<u32>` keyed by line id.
//!   One array read per access, no hashing at all. This is the backend the
//!   large-scale ablation (hundreds of millions of accesses) runs on.
//! * **Open-addressed fallback** ([`LruCache::new`]): the crate's shared
//!   Fibonacci-hashed linear-probing table (`fxmap`, also the stack-distance
//!   engine's address renamer), sized once for the capacity at ≤ 50% load.
//!   A hit costs a single probe sequence, and *every* miss reuses the
//!   probe's insertion slot (entry-style): on an evicting miss the new
//!   line is inserted first and the victim removed after, so the
//!   backward-shift can never move the insertion slot out from under the
//!   probe — two probe sequences per evicting miss (insert + removal),
//!   not three.
//!
//! Both backends are O(1) per access, no unsafe code, and bit-identical in
//! behavior (pinned by property test against a model LRU).

use crate::fxmap::FxMap;

const NIL: usize = usize::MAX;

/// Vacant marker in the direct index (also bounds the node arena: a
/// cache can hold at most `u32::MAX - 1` lines).
const EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    prev: usize,
    next: usize,
    /// Written since it was filled: eviction emits a write-back.
    dirty: bool,
}

/// The line-id → node index, in one of the two backend representations.
#[derive(Debug, Clone)]
enum LineIndex {
    /// Flat slot table keyed directly by line id (`EMPTY` = absent).
    Direct { slots: Vec<u32> },
    /// Open-addressed hash fallback for unbounded address spaces.
    Fx(FxMap),
}

/// A fully-associative LRU cache with word- or line-granularity.
///
/// # Examples
///
/// ```
/// use balance_machine::LruCache;
///
/// let mut cache = LruCache::new(2, 1); // 2 lines of 1 word
/// assert!(!cache.access(10));  // miss
/// assert!(!cache.access(20));  // miss
/// assert!(cache.access(10));   // hit
/// assert!(!cache.access(30));  // miss, evicts 20
/// assert!(!cache.access(20));  // miss again
/// assert_eq!(cache.misses(), 4);
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity_lines: usize,
    line_words: u64,
    index: LineIndex,
    resident: usize,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl LruCache {
    /// Creates a cache holding `capacity_lines` lines of `line_words` words,
    /// using the hash-indexed backend (no assumption about the address
    /// range). When the trace's addresses are known to be bounded, prefer
    /// [`LruCache::with_address_bound`] — it is substantially faster.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero, or if `capacity_lines` does not
    /// fit the `u32` node-index space.
    #[must_use]
    pub fn new(capacity_lines: usize, line_words: u64) -> Self {
        Self::check_shape(capacity_lines, line_words);
        let index = LineIndex::Fx(FxMap::with_capacity(capacity_lines));
        Self::with_index(capacity_lines, line_words, index)
    }

    fn with_index(capacity_lines: usize, line_words: u64, index: LineIndex) -> Self {
        LruCache {
            capacity_lines,
            line_words,
            index,
            resident: 0,
            nodes: Vec::with_capacity(capacity_lines.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Creates a cache whose trace addresses are promised to lie in
    /// `[0, addr_bound)`, selecting the direct-indexed backend: the line
    /// index is a flat slot table (4 bytes per possible line) and every
    /// access costs exactly one array probe — no hashing.
    ///
    /// Kernel traces address the dense range `[0, 3n²)`, so the table for
    /// an `n = 512` matmul trace is ~3 MB while the trace itself streams
    /// hundreds of millions of addresses through it.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero, if `capacity_lines` does not fit the
    /// `u32` node-index space, and on [`LruCache::access`] with an address
    /// `≥ addr_bound` (a caller contract violation).
    #[must_use]
    pub fn with_address_bound(capacity_lines: usize, line_words: u64, addr_bound: u64) -> Self {
        Self::check_shape(capacity_lines, line_words);
        assert!(addr_bound > 0, "address bound must be positive");
        let lines = usize::try_from(addr_bound.div_ceil(line_words))
            .unwrap_or_else(|_| panic!("address bound overflows usize"));
        let index = LineIndex::Direct {
            slots: vec![EMPTY; lines],
        };
        Self::with_index(capacity_lines, line_words, index)
    }

    fn check_shape(capacity_lines: usize, line_words: u64) {
        assert!(capacity_lines > 0, "cache must hold at least one line");
        assert!(line_words > 0, "lines must hold at least one word");
        assert!(
            capacity_lines < EMPTY as usize,
            "capacity exceeds the u32 node-index space"
        );
    }

    /// Creates a word-granular cache of `capacity_words` words — the
    /// configuration that makes cache capacity directly comparable to the
    /// paper's `M`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_words` is zero.
    #[must_use]
    pub fn with_capacity_words(capacity_words: usize) -> Self {
        LruCache::new(capacity_words, 1)
    }

    /// Touches word address `addr` as a read; returns `true` on hit. A
    /// miss inserts the containing line, evicting the least recently used
    /// line if full (a dirty victim emits a write-back).
    ///
    /// # Panics
    ///
    /// On the direct-indexed backend, panics if `addr` exceeds the bound
    /// declared at construction.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_inner(addr, false)
    }

    /// Touches word address `addr` with an explicit direction
    /// ([`balance_core::Access`]); returns `true` on hit. A write marks the
    /// containing line dirty (write-allocate: a write miss fills the line
    /// like a read miss would), so its eventual eviction — or a final
    /// [`LruCache::flush_dirty`] — emits a write-back.
    ///
    /// # Panics
    ///
    /// As [`LruCache::access`].
    pub fn access_tagged(&mut self, access: balance_core::Access) -> bool {
        self.access_inner(access.addr, access.is_write())
    }

    fn access_inner(&mut self, addr: u64, is_write: bool) -> bool {
        let key = addr / self.line_words;
        // One probe on either backend. The Fx probe is entry-style: on a
        // miss it also yields the slot the key will be inserted into.
        let probed: Result<usize, Option<usize>> = match &self.index {
            LineIndex::Direct { slots } => {
                let line = usize::try_from(key)
                    .ok()
                    .filter(|&k| k < slots.len())
                    .unwrap_or_else(|| {
                        panic!("address {addr} exceeds the declared address bound")
                    });
                let slot = slots[line];
                if slot != EMPTY {
                    Ok(slot as usize)
                } else {
                    Err(None)
                }
            }
            LineIndex::Fx(map) => match map.find(key) {
                Ok(pos) => Ok(map.val_at(pos) as usize),
                Err(ins) => Err(Some(ins)),
            },
        };
        let fx_slot = match probed {
            Ok(idx) => {
                self.hits += 1;
                self.move_to_front(idx);
                if is_write {
                    self.nodes[idx].dirty = true;
                }
                return true;
            }
            Err(fx_slot) => fx_slot,
        };
        self.misses += 1;
        // Detach the LRU node first (list + arena only) but defer its
        // *index* removal until after the insert: the new key then always
        // lands entry-style in the slot the probe already found — one
        // probe sequence per evicting miss instead of three. (The table
        // briefly holds capacity + 1 entries; at ≤ 50% load that still
        // leaves vacant slots, and the backward-shift removal is correct
        // in any valid table state.)
        let evicted_key = (self.resident == self.capacity_lines).then(|| self.detach_lru());
        let idx = self.alloc_node(key, is_write);
        self.push_front(idx);
        match &mut self.index {
            LineIndex::Direct { slots } => {
                slots[key as usize] = idx as u32;
                if let Some(ek) = evicted_key {
                    slots[ek as usize] = EMPTY;
                }
            }
            LineIndex::Fx(map) => {
                let Some(ins) = fx_slot else {
                    unreachable!("an Fx probe miss always yields an insertion slot")
                };
                map.insert_at(ins, key, idx as u64);
                if let Some(ek) = evicted_key {
                    map.remove(ek);
                }
            }
        }
        self.resident += 1;
        false
    }

    /// Runs a whole address trace; returns the number of misses incurred.
    ///
    /// Accepts any address iterator — in particular the streaming trace
    /// generators (`balance-kernels`' `NaiveTrace` / `BlockedTrace`), which
    /// feed the cache in O(1) memory without materializing the trace.
    pub fn run_trace(&mut self, addrs: impl IntoIterator<Item = u64>) -> u64 {
        let before = self.misses;
        for a in addrs {
            self.access(a);
        }
        self.misses - before
    }

    /// Runs a whole tagged trace; returns `(misses, writebacks)` incurred
    /// by it, including the final flush of lines left dirty at the end
    /// ([`LruCache::flush_dirty`]) — the convention of the one-pass
    /// write-back ledger, whose every capacity charges a computation's
    /// lingering dirty lines.
    pub fn run_tagged_trace(
        &mut self,
        accesses: impl IntoIterator<Item = balance_core::Access>,
    ) -> (u64, u64) {
        let (miss0, wb0) = (self.misses, self.writebacks);
        for a in accesses {
            self.access_tagged(a);
        }
        self.flush_dirty();
        (self.misses - miss0, self.writebacks - wb0)
    }

    /// Writes every resident dirty line back (marking it clean, residency
    /// unchanged) and returns how many write-backs that emitted. The
    /// end-of-run flush: a computation's final results must reach the
    /// outer level no matter how big the cache was.
    pub fn flush_dirty(&mut self) -> u64 {
        let mut flushed = 0u64;
        let mut idx = self.head;
        while idx != NIL {
            if self.nodes[idx].dirty {
                self.nodes[idx].dirty = false;
                flushed += 1;
            }
            idx = self.nodes[idx].next;
        }
        self.writebacks += flushed;
        flushed
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// I/O words implied by the misses (`misses × line_words`).
    #[must_use]
    pub fn miss_words(&self) -> u64 {
        self.misses * self.line_words
    }

    /// Write-backs so far: dirty evictions plus any explicit
    /// [`LruCache::flush_dirty`] flushes.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// I/O words implied by the write-backs (`writebacks × line_words`).
    #[must_use]
    pub fn writeback_words(&self) -> u64 {
        self.writebacks * self.line_words
    }

    /// Lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.resident
    }

    /// The configured capacity in lines.
    #[must_use]
    pub fn capacity_lines(&self) -> usize {
        self.capacity_lines
    }

    /// The configured line size in words.
    #[must_use]
    pub fn line_words(&self) -> u64 {
        self.line_words
    }

    fn alloc_node(&mut self, key: u64, dirty: bool) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Node {
                key,
                prev: NIL,
                next: NIL,
                dirty,
            };
            idx
        } else {
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
                dirty,
            });
            self.nodes.len() - 1
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    /// Unlinks the LRU node from the list and arena, returning its key.
    /// A dirty victim is charged one write-back here. The caller is
    /// responsible for removing the key from the line index (deferred so
    /// the evicting-miss path can insert entry-style first).
    fn detach_lru(&mut self) -> u64 {
        let idx = self.tail;
        debug_assert_ne!(idx, NIL, "evict called on empty cache");
        self.unlink(idx);
        let key = self.nodes[idx].key;
        if self.nodes[idx].dirty {
            self.writebacks += 1;
        }
        self.free.push(idx);
        self.resident -= 1;
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both backends for the same shape, for behavior-pinning tests.
    fn both(capacity: usize, line_words: u64, bound: u64) -> [LruCache; 2] {
        [
            LruCache::new(capacity, line_words),
            LruCache::with_address_bound(capacity, line_words, bound),
        ]
    }

    #[test]
    fn hits_and_misses() {
        for mut c in both(3, 1, 64) {
            assert!(!c.access(1));
            assert!(!c.access(2));
            assert!(!c.access(3));
            assert!(c.access(1));
            assert!(c.access(2));
            assert_eq!(c.hits(), 2);
            assert_eq!(c.misses(), 3);
            assert_eq!(c.resident_lines(), 3);
        }
    }

    #[test]
    fn lru_eviction_order() {
        for mut c in both(2, 1, 64) {
            c.access(1);
            c.access(2);
            c.access(1); // 1 is now MRU, 2 is LRU
            c.access(3); // evicts 2
            assert!(c.access(1));
            assert!(!c.access(2));
        }
    }

    #[test]
    fn line_granularity_groups_addresses() {
        for mut c in both(2, 8, 64) {
            assert!(!c.access(0)); // line 0
            assert!(c.access(7)); // same line
            assert!(!c.access(8)); // line 1
            assert_eq!(c.miss_words(), 16);
        }
    }

    #[test]
    fn capacity_one_thrashes() {
        for mut c in both(1, 1, 64) {
            for _ in 0..3 {
                assert!(!c.access(1));
                assert!(!c.access(2));
            }
            assert_eq!(c.hits(), 0);
            assert_eq!(c.misses(), 6);
        }
    }

    #[test]
    fn run_trace_counts_misses() {
        for mut c in both(2, 1, 64) {
            let misses = c.run_trace([1, 2, 1, 3, 1, 2]);
            // 1:m 2:m 1:h 3:m(evict 2) 1:h 2:m
            assert_eq!(misses, 4);
        }
    }

    #[test]
    fn sequential_scan_larger_than_cache_never_hits() {
        for mut c in both(64, 1, 128) {
            for round in 0..3 {
                for a in 0..128u64 {
                    assert!(!c.access(a), "round {round}, addr {a}");
                }
            }
            assert_eq!(c.misses(), 3 * 128);
        }
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        for mut c in both(64, 1, 64) {
            for a in 0..64u64 {
                c.access(a);
            }
            let misses_before = c.misses();
            for _ in 0..10 {
                // Re-touch in the same order: LRU keeps the whole set resident.
                for a in 0..64u64 {
                    assert!(c.access(a));
                }
            }
            assert_eq!(c.misses(), misses_before);
        }
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_capacity_panics() {
        let _ = LruCache::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_line_panics() {
        let _ = LruCache::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "address bound")]
    fn direct_backend_rejects_out_of_bound_addresses() {
        let mut c = LruCache::with_address_bound(4, 1, 16);
        c.access(16);
    }

    #[test]
    fn eviction_reuses_nodes() {
        for mut c in both(2, 1, 128) {
            for a in 0..100u64 {
                c.access(a);
            }
            // Node arena should not have grown beyond capacity + O(1).
            assert!(c.nodes.len() <= 3, "arena grew to {}", c.nodes.len());
        }
    }

    #[test]
    fn address_bound_with_line_granularity_rounds_up() {
        // Bound 17 with 8-word lines needs 3 slots (lines 0, 1, 2).
        let mut c = LruCache::with_address_bound(4, 8, 17);
        assert!(!c.access(16)); // line 2, in bounds
        assert!(c.access(16));
    }

    #[test]
    fn fx_map_survives_heavy_churn_with_colliding_keys() {
        // Dense-stride keys stress the probe chains and backshift deletion.
        let mut c = LruCache::new(17, 1);
        let mut misses = 0u64;
        for round in 0..50u64 {
            for k in 0..40u64 {
                if !c.access(k * 1024 + round % 3) {
                    misses += 1;
                }
            }
        }
        assert_eq!(c.hits() + misses, 50 * 40);
        assert!(c.resident_lines() <= 17);
    }

    #[test]
    fn dirty_evictions_emit_writebacks() {
        use balance_core::Access;
        for mut c in both(2, 1, 64) {
            c.access_tagged(Access::write(1)); // miss, line 1 dirty
            c.access_tagged(Access::read(2)); // miss, clean
            c.access_tagged(Access::read(3)); // miss, evicts dirty 1 -> wb
            assert_eq!(c.writebacks(), 1);
            c.access_tagged(Access::read(4)); // evicts clean 2 -> no wb
            assert_eq!(c.writebacks(), 1);
            assert_eq!(c.writeback_words(), 1);
        }
    }

    #[test]
    fn write_hit_dirties_a_clean_line() {
        use balance_core::Access;
        for mut c in both(2, 1, 64) {
            c.access_tagged(Access::read(1)); // miss, clean
            c.access_tagged(Access::write(1)); // hit, now dirty
            c.access_tagged(Access::read(2));
            c.access_tagged(Access::read(3)); // evicts 1 -> wb
            assert_eq!(c.writebacks(), 1);
        }
    }

    #[test]
    fn flush_emits_remaining_dirty_lines_once() {
        use balance_core::Access;
        for mut c in both(4, 1, 64) {
            c.access_tagged(Access::write(1));
            c.access_tagged(Access::write(2));
            c.access_tagged(Access::read(3));
            assert_eq!(c.writebacks(), 0, "nothing evicted yet");
            assert_eq!(c.flush_dirty(), 2);
            assert_eq!(c.writebacks(), 2);
            // A second flush finds everything clean.
            assert_eq!(c.flush_dirty(), 0);
            assert_eq!(c.resident_lines(), 3, "flush keeps lines resident");
        }
    }

    #[test]
    fn line_granular_writes_dirty_the_whole_line() {
        use balance_core::Access;
        for mut c in both(2, 8, 64) {
            c.access_tagged(Access::write(3)); // line 0 dirty
            c.access_tagged(Access::read(8)); // line 1
            c.access_tagged(Access::read(16)); // line 2, evicts line 0 -> wb
            assert_eq!(c.writebacks(), 1);
            assert_eq!(c.writeback_words(), 8);
        }
    }

    #[test]
    fn run_tagged_trace_includes_the_final_flush() {
        use balance_core::Access;
        for mut c in both(8, 1, 64) {
            let (misses, wbs) =
                c.run_tagged_trace([Access::write(1), Access::read(2), Access::write(3)]);
            assert_eq!(misses, 3);
            assert_eq!(wbs, 2, "both dirty lines flush at end of run");
        }
    }

    #[test]
    fn untagged_access_is_read_only() {
        for mut c in both(2, 1, 64) {
            c.access(1);
            c.access(2);
            c.access(3); // evicts 1 — clean, no wb
            assert_eq!(c.writebacks(), 0);
            assert_eq!(c.flush_dirty(), 0);
        }
    }

    #[test]
    fn backends_agree_on_a_mixed_trace() {
        let addrs: Vec<u64> = (0..2000u64).map(|i| (i * i * 31 + i) % 512).collect();
        let [mut fx, mut direct] = both(37, 4, 512);
        for &a in &addrs {
            assert_eq!(fx.access(a), direct.access(a), "addr {a}");
        }
        assert_eq!(fx.misses(), direct.misses());
        assert_eq!(fx.hits(), direct.hits());
        assert_eq!(fx.resident_lines(), direct.resident_lines());
    }
}
