//! One-pass reuse/stack-distance accounting: exact LRU miss counts for
//! **every** capacity from a single trace replay.
//!
//! LRU is a *stack algorithm* (Mattson, Gecsei, Slutz & Traiger 1970): at
//! any instant, a fully-associative LRU cache of capacity `M` holds exactly
//! the `M` most recently used distinct addresses — the top `M` entries of
//! one global recency stack. An access therefore hits in a capacity-`M`
//! cache **iff** its *stack distance* — the number of distinct addresses
//! touched since the previous access to the same address, counting itself —
//! is at most `M`. One replay that records the histogram of stack distances
//! (plus the compulsory first-touch count) answers `misses(M)` for every
//! `M` at once:
//!
//! ```text
//! misses(M) = accesses − Σ_{d ≤ M} hist[d]
//! ```
//!
//! This is the "measure once, read off the whole ladder" trick behind
//! multi-level emulation (Hanlon's *Emulating a large memory with a
//! collection of smaller ones*) and the access-path first principle Hua
//! (2023) gives for big-memory systems — and it collapses this repo's
//! capacity sweeps from one kernel replay *per memory size* to one replay
//! total. The [`Hierarchy`](crate::Hierarchy) model's inclusion property
//! makes the multi-level read exact too: each level is a standalone LRU
//! over the same stream, so level `i`'s boundary traffic is precisely
//! `misses(M_i)` ([`CapacityProfile::traffic_at`]).
//!
//! The engine ([`StackDistance`]) streams addresses in `O(|trace| · log U)`
//! time and `O(U)` memory, `U` = distinct addresses: a bitmap-leaf order
//! statistic (64 time slots per `u64` word, a Fenwick tree over the word
//! popcounts — 64× smaller than a flat Fenwick, so it lives in L1/L2)
//! counts the distinct addresses between consecutive touches, and the
//! slot space is compacted in amortized `O(1)` when the time pointer
//! outruns it. The leaf that fresh markers land in — the *open leaf* —
//! stays out of the Fenwick tree until the time pointer moves past it, so
//! a push is one bit set, a reuse within the top 64 slots is one masked
//! popcount with no tree walk, and any other reuse walks the tree twice
//! (rank, then removal). The last-access index is one flat table keyed by
//! a dense id. A bounded engine's addresses are their own ids. An engine
//! over an unbounded address space renames each address at the door to
//! the next free id (first-touch order) through the open-addressed table
//! [`crate::LruCache`] also uses, so its tables grow by push. Everything
//! it exports is in original addresses: the final stack and snapshots
//! map ids back through the table, and the first-touch record keeps the
//! address it was given.
//!
//! Time runs on a **logical `u64` clock** that never wraps and never
//! resets at compaction; a physical window `[origin, clock)` maps it onto
//! the compacted slot space (timestamp `t` lives in physical slot
//! `t − origin`). The last-access index stores each id's **physical
//! slot** as a `u32`, 4 bytes per address, and compaction re-bases every
//! live id's entry as it packs the markers down. The top two `u32` values
//! are the index's sentinels (`EMPTY`: never seen; `EVICTED`: dropped by
//! the depth cap), and ids and slots stay below them by construction: an
//! engine keys at most `2³¹ − 1` ids (a larger address bound, or a
//! renamer's `2³¹`-th distinct address, panics before anything is
//! allocated), and the slot space is clamped to whole leaves below the
//! sentinels. So no entry truncates, and a 10⁹-address (or 10¹⁸-address)
//! trace cannot overflow the clock.
//!
//! **Depth cap.** By inclusion, `misses(M)` depends only on the top `M`
//! entries of the recency stack, so a caller that queries no capacity
//! above `D` can cap the engine at depth `D`
//! ([`StackDistance::with_depth`]). A capped engine keeps a live marker
//! for the `D` most recently touched ids only: pushing the `(D+1)`-th
//! evicts the oldest, found by a forward scan from a *floor* pointer that
//! then moves past it, and stores `EVICTED` into that id's index entry
//! (the slot's id table names it). A reuse of an `EVICTED` id is deeper
//! than `D`: it walks no tree and is counted at distance `D + 1` (a miss
//! at every capacity up to `D`; in the tagged pass it enters the dirty
//! chain's max gap as `D + 1`). The eviction invariant: every evicted
//! marker lies below every live one, so evicted bits — left set until the
//! next compaction, which packs only from the floor up — never change a
//! live marker's `count_after`, and every answer at `M ≤ D` is
//! bit-identical to the uncapped engine's. An evicted id's old slot may
//! be taken by another id after a compaction; its entry reads `EVICTED`,
//! never that slot. The slot space is `min(2 · bound, 4 · D)`, so the
//! marker tree and the `D + 2`-counter histogram stay in L1/L2:
//! `O(|trace| · log min(U, D))` time in `O(bound + D)` memory. The
//! profile carries `D` and panics on a query above it; snapshots, the
//! segmented merge and KBCP images refuse capped engines. `D = u64::MAX`
//! is the uncapped engine, on the same code path.
//!
//! Two scaled companions build on this engine for billion-address traces:
//! [`crate::segmented`] (exact parallel Mattson over time ranges) and
//! [`crate::sampling`] (SHARDS-style hash-sampled approximate profiles).
//!
//! Exactness against the replay model is pinned by property test:
//! `misses_at(M)` is bit-identical to `LruCache::with_capacity_words(M)`
//! replaying the same trace, for every `M`, bounded or renamed.

use balance_core::{HierarchySpec, LevelTraffic, Words};

use crate::fxmap::FxMap;

/// Last-access entry of an id never seen.
const EMPTY: u32 = u32::MAX;

/// Last-access entry of an id whose marker the depth cap evicted: its
/// next reuse is deeper than the cap.
const EVICTED: u32 = u32::MAX - 1;

/// The most ids an engine keys: a bounded engine's address bound, or a
/// renamer's distinct addresses. Ids are `u32` slot-table entries, and
/// the doubled slot space of this many ids, clamped to [`MAX_SLOTS`],
/// still leaves over `2³¹ − 64` slots, about half, free at every
/// compaction, so compaction stays amortized `O(1)`.
const MAX_IDS: usize = (1 << 31) - 1;

/// The largest slot space, in whole 64-slot leaves: every physical slot
/// lies below it, so a slot never reads as `EVICTED` or `EMPTY`.
const MAX_SLOTS: usize = EVICTED as usize & !63;

/// A physical slot or an id as a `u32` table entry. Slots lie below
/// [`MAX_SLOTS`] and ids below [`MAX_IDS`], so the narrowing keeps every
/// bit and never forms a sentinel.
#[inline]
fn entry(value: usize) -> u32 {
    debug_assert!(value < MAX_SLOTS, "{value} reaches the sentinels");
    value as u32
}

/// The live-marker order statistic: one bit per time slot, 64 slots
/// packed per `u64` leaf, with a Fenwick (binary indexed) tree over the
/// popcounts of the *closed* leaves.
///
/// The two-level layout is the perf-critical choice: a flat Fenwick over
/// `S` slots walks `log₂S` scattered cache lines per operation, while
/// this tree is 64× smaller (a 1.5M-slot space needs a ~192 KB Fenwick
/// that mostly stays in L1/L2) and pays one `count_ones` instead of the
/// six deepest tree levels. Counters are `u64` so the distinct-address
/// count shares the logical clock's no-overflow guarantee.
///
/// Compaction and restore lay the live markers out packed in slots
/// `0..live` ([`MarkerTree::reset_packed`]); between them slots are added
/// only at the engine's time pointer, in increasing order. So every leaf
/// past the highest one added to is empty. That leaf, the **open leaf**,
/// stays out of the Fenwick tree: it enters exactly once, with its
/// popcount, when the first `add` lands past it. Per operation:
///
/// - `add` is one bit set (plus one tree walk per 64 slots, closing the
///   open leaf);
/// - `remove` clears one bit, and walks the tree only for a closed leaf;
/// - `count_after(p)` is one masked popcount for `p` in the open leaf,
///   and otherwise that popcount plus `live` minus one Fenwick prefix.
///
/// So a reuse walks the tree at most twice, and a reuse whose previous
/// touch sits in the open leaf — the common short reuse — never does.
///
/// The tree counts set bits. A capped engine's evicted markers keep theirs
/// until the next compaction, all below the engine's floor, so
/// `count_after` of a slot at or above the floor never counts them.
#[derive(Debug, Clone)]
struct MarkerTree {
    /// Bit `i & 63` of `bits[i >> 6]` = slot `i` is live.
    bits: Vec<u64>,
    /// Fenwick tree over the popcounts of leaves `0..open`
    /// (`tree[0]` unused).
    tree: Vec<u64>,
    /// The open leaf: not in the Fenwick tree; every leaf above it is
    /// empty.
    open: usize,
    /// Set bits: the live markers, plus a capped engine's evicted ones
    /// below its floor.
    live: u64,
}

impl MarkerTree {
    fn new(slots: usize) -> Self {
        let leaves = slots.div_ceil(64).max(1);
        MarkerTree {
            bits: vec![0; leaves],
            tree: vec![0; leaves + 1],
            open: 0,
            live: 0,
        }
    }

    /// The slot capacity (rounded up to whole leaves).
    fn slots(&self) -> usize {
        self.bits.len() * 64
    }

    /// Adds `delta` to leaf `leaf`'s count along its Fenwick path.
    #[inline]
    fn tree_add(&mut self, leaf: usize, delta: i64) {
        let mut w = leaf + 1;
        while w < self.tree.len() {
            self.tree[w] = self.tree[w].wrapping_add_signed(delta);
            w += w & w.wrapping_neg();
        }
    }

    /// Live markers counted by the Fenwick tree in leaves `0..=leaf`.
    #[inline]
    fn tree_prefix(&self, leaf: usize) -> u64 {
        let mut sum = 0;
        let mut w = leaf + 1;
        while w > 0 {
            sum += self.tree[w];
            w -= w & w.wrapping_neg();
        }
        sum
    }

    /// Marks slot `i` live. `i` must not lie below the open leaf.
    #[inline]
    fn add(&mut self, i: usize) {
        let leaf = i >> 6;
        debug_assert!(leaf >= self.open, "slots must be added in increasing order");
        debug_assert_eq!(self.bits[leaf] >> (i & 63) & 1, 0, "slot already live");
        if leaf != self.open {
            // First marker past the open leaf: close it, once.
            let count = i64::from(self.bits[self.open].count_ones());
            self.tree_add(self.open, count);
            self.open = leaf;
        }
        self.live += 1;
        self.bits[leaf] |= 1u64 << (i & 63);
    }

    /// Marks slot `i` dead (it must be live).
    #[inline]
    fn remove(&mut self, i: usize) {
        let leaf = i >> 6;
        debug_assert_eq!(self.bits[leaf] >> (i & 63) & 1, 1, "slot not live");
        self.live -= 1;
        self.bits[leaf] &= !(1u64 << (i & 63));
        if leaf != self.open {
            self.tree_add(leaf, -1);
        }
    }

    /// Live markers strictly after slot `i`.
    #[inline]
    fn count_after(&self, i: usize) -> u64 {
        let leaf = i >> 6;
        // Two shifts: `>> 64` would overflow when `i & 63 == 63`.
        let above = u64::from((self.bits[leaf] >> (i & 63) >> 1).count_ones());
        if leaf == self.open {
            above
        } else {
            above + self.live - self.tree_prefix(leaf)
        }
    }

    /// The first set slot at or after `from`. Some set slot must lie
    /// there (the scan runs off the bitmap otherwise).
    #[inline]
    fn next_live(&self, from: usize) -> usize {
        let mut leaf = from >> 6;
        let mut word = self.bits[leaf] & (u64::MAX << (from & 63));
        while word == 0 {
            leaf += 1;
            word = self.bits[leaf];
        }
        leaf * 64 + word.trailing_zeros() as usize
    }

    /// Checks that the Fenwick tree holds exactly the closed leaves:
    /// its total is `live` minus the open leaf's popcount.
    fn debug_check(&self) {
        if cfg!(debug_assertions) {
            let total = self.tree_prefix(self.bits.len() - 1);
            let open = u64::from(self.bits[self.open].count_ones());
            debug_assert_eq!(
                total,
                self.live - open,
                "Fenwick total drifted from live markers"
            );
        }
    }

    /// The live slots in increasing order — the single source of truth
    /// compaction reads (so `slot_addr` needs no dead-slot sentinel and
    /// every `u64` address value is representable).
    fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.live_slots_from(0)
    }

    /// The live slots at or after `from`, in increasing order.
    fn live_slots_from(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        let first = from >> 6;
        self.bits[first..].iter().enumerate().flat_map(move |(k, &word)| {
            let leaf = first + k;
            let mut rest = if k == 0 {
                word & (u64::MAX << (from & 63))
            } else {
                word
            };
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    leaf * 64 + bit
                })
            })
        })
    }

    /// Resets to `slots` slots (rounded up to whole leaves) with exactly
    /// slots `0..live` live — the layout compaction and restore leave.
    /// The open leaf is the one slot `live` falls in; every leaf below it
    /// is full and closed, so each Fenwick node is 64 × the closed leaves
    /// it covers.
    fn reset_packed(&mut self, slots: usize, live: usize) {
        let leaves = slots.div_ceil(64).max(1);
        let open = live >> 6;
        debug_assert!(open < leaves, "packed markers overflow the slot space");
        self.bits.clear();
        self.bits.resize(leaves, 0);
        self.bits[..open].fill(u64::MAX);
        self.bits[open] = (1u64 << (live & 63)) - 1;
        self.tree.clear();
        self.tree.extend((0..=leaves).map(|w| {
            let first = w - (w & w.wrapping_neg());
            64 * w.min(open).saturating_sub(first) as u64
        }));
        self.open = open;
        self.live = live as u64;
        self.debug_check();
    }
}

/// No-open-chain marker in the dirty index. A chain's max gap is a stack
/// distance: at most the distinct-id count, or a capped engine's
/// `depth + 1` (only reachable once more than `depth` ids are held), so
/// below [`MAX_IDS`] either way, and never `u32::MAX`.
const CLOSED: u32 = u32::MAX;

/// The tagged pass's write-back bookkeeping: dirty *chains*. A chain opens
/// at each write of a line and closes at the line's next write (or stays
/// open to the end of the trace); its statistic is the **max** of the
/// consecutive reuse-distance gaps it spans. At capacity `M` a closed
/// chain emits exactly one write-back iff its max gap exceeds `M` (the
/// line was evicted dirty somewhere in the chain — once evicted it is
/// clean until the next write, so never twice per chain), and an open
/// chain emits exactly one write-back at *every* capacity (either a dirty
/// eviction inside the chain or the end-of-run flush of the still-dirty
/// line). That turns `writebacks_at(M)` into the same kind of one-pass
/// histogram query as Mattson's miss count.
#[derive(Debug, Clone)]
struct DirtyState {
    /// `index[id]` = the running max gap of the id's open chain (`CLOSED`
    /// = no open chain), keyed like the engine's last-access index.
    index: Vec<u32>,
    /// `wb_hist[d]` = closed chains with max gap exactly `d` (`wb_hist[0]`
    /// unused: a chain closes at a reuse, whose distance is ≥ 1).
    wb_hist: Vec<u64>,
    /// Lines with an open chain — the write-back floor no capacity
    /// removes (each is a distinct line that was written).
    open: u64,
}

impl DirtyState {
    /// A fresh dirty ledger over `ids` ids, no chain open.
    fn new(ids: usize) -> Self {
        DirtyState {
            index: vec![CLOSED; ids],
            wb_hist: Vec::new(),
            open: 0,
        }
    }

    /// Counts one closed chain with max gap `d`.
    fn close(&mut self, d: u64) {
        let d = usize::try_from(d).unwrap_or_else(|_| panic!("chain gap overflows usize"));
        if d >= self.wb_hist.len() {
            self.wb_hist.resize(d + 1, 0);
        }
        self.wb_hist[d] += 1;
    }
}

/// The streaming one-pass engine: feed it a trace with
/// [`StackDistance::observe`], then read the whole capacity ladder off the
/// resulting [`CapacityProfile`].
///
/// # Examples
///
/// ```
/// use balance_machine::{LruCache, StackDistance};
///
/// let trace = [1u64, 2, 3, 1, 2, 4, 1];
/// let mut engine = StackDistance::new();
/// for &a in &trace {
///     engine.observe(a);
/// }
/// let profile = engine.into_profile();
/// // One replay answers every capacity — bit-identical to replaying the
/// // trace through an actual LRU of that capacity:
/// for m in 1..=6u64 {
///     let mut cache = LruCache::with_capacity_words(m as usize);
///     assert_eq!(profile.misses_at(m), cache.run_trace(trace.iter().copied()));
/// }
/// assert_eq!(profile.compulsory_misses(), 4); // first touches of 1,2,3,4
/// ```
#[derive(Debug, Clone)]
pub struct StackDistance {
    /// `index[id]` = the physical slot of the id's latest access, or
    /// `EMPTY` (never seen) or `EVICTED` (dropped by the depth cap).
    index: Vec<u32>,
    /// The renamer of an unbounded address space: address → dense id,
    /// ids taken in first-touch order (`0, 1, 2, …`), so the id-keyed
    /// tables grow by push. `None` when addresses are promised below
    /// `index.len()` and serve as their own ids.
    ids: Option<FxMap<5>>,
    markers: MarkerTree,
    /// `slot_addr[s]` = the id whose latest access lives in physical slot
    /// `s`, for compaction and eviction. Meaningful only where
    /// [`MarkerTree::live_slots`] says so — liveness lives in the marker
    /// bitmap, not in a sentinel value. Empty until the first touch, so a
    /// depth cap set on a fresh engine shrinks the slot space before any
    /// of it is allocated.
    slot_addr: Vec<u32>,
    /// Monotonic logical clock: the timestamp the next touch will take.
    /// Never wraps, never resets at compaction.
    clock: u64,
    /// Logical time of physical slot 0: timestamp `t` lives in physical
    /// slot `t − origin`, and the window `clock − origin` never exceeds
    /// the slot space.
    origin: u64,
    /// The depth cap `D`: only the `D` most recently touched ids hold a
    /// live marker (`u64::MAX` = uncapped).
    depth: u64,
    /// Logical time below which no marker is live. An evicted marker lies
    /// below it (its id's entry reads `EVICTED`); its bit stays set until
    /// the next compaction, counted by the marker tree but below every
    /// slot a live reuse ranks from. Equal to `origin` on an uncapped
    /// engine.
    floor: u64,
    /// Live markers: the ids at or above the floor, at most `depth`.
    held: u64,
    /// Distinct ids touched so far, counted at first touches (a capped
    /// engine's live markers stop at its depth).
    distinct: u64,
    /// `hist[d]` = number of accesses with stack distance exactly `d`
    /// (`hist[0]` unused).
    hist: Vec<u64>,
    compulsory: u64,
    accesses: u64,
    /// When recording (segmented passes), every first-touch address in
    /// touch order — the boundary state [`crate::segmented`] merges.
    first_touches: Option<Vec<u64>>,
    /// The tagged pass's dirty-chain ledger, created lazily at the first
    /// [`StackDistance::observe_tagged`] — untagged replays never pay for
    /// it.
    dirty: Option<DirtyState>,
}

/// The shift that maps a word address onto its `line_words`-sized line.
///
/// # Panics
///
/// Panics when `line_words` is not a power of two (zero included).
fn line_shift(line_words: u64) -> u32 {
    assert!(
        line_words.is_power_of_two(),
        "line size must be a positive power of two words, got {line_words}"
    );
    line_words.trailing_zeros()
}

impl Default for StackDistance {
    fn default() -> Self {
        StackDistance::new()
    }
}

impl StackDistance {
    /// An engine over an unbounded address space: each address is renamed
    /// to a dense id on its first touch. Prefer
    /// [`StackDistance::with_address_bound`] when the trace's addresses
    /// are known to be dense and bounded — it skips the renaming lookup,
    /// exactly as [`crate::LruCache`]'s direct backend skips hashing.
    #[must_use]
    pub fn new() -> Self {
        Self::renamed(1024)
    }

    /// An engine whose trace addresses are promised to lie in
    /// `[0, addr_bound)`: the last-access index is a flat table and the
    /// slot space is sized so compaction triggers at most once per
    /// `addr_bound` accesses.
    ///
    /// # Panics
    ///
    /// Panics, before allocating anything, if `addr_bound` is zero or
    /// `2³¹` or more: ids are `u32` table entries that must stay clear of
    /// the index's sentinels, the same ceiling [`crate::LruCache`]'s
    /// `u32` direct index has. Also panics on [`StackDistance::observe`]
    /// with an address `≥ addr_bound` (a caller contract violation).
    #[must_use]
    pub fn with_address_bound(addr_bound: u64) -> Self {
        assert!(addr_bound > 0, "address bound must be positive");
        let bound = usize::try_from(addr_bound)
            .ok()
            .filter(|&b| b <= MAX_IDS)
            .unwrap_or_else(|| {
                panic!("address bound {addr_bound} exceeds the engine's {MAX_IDS}-id space")
            });
        // 2× the distinct-address ceiling: at least half the slots are
        // live-free at every compaction, so compaction cost amortizes to
        // O(1) per access.
        Self::with_slots(vec![EMPTY; bound], None, 2 * bound)
    }

    /// A renaming engine whose slot space starts at `slots` and doubles
    /// as the distinct-address count outgrows it.
    pub(crate) fn renamed(slots: usize) -> Self {
        Self::with_slots(Vec::new(), Some(FxMap::with_capacity(0)), slots)
    }

    fn with_slots(index: Vec<u32>, ids: Option<FxMap<5>>, slots: usize) -> Self {
        StackDistance {
            index,
            ids,
            markers: MarkerTree::new(slots.clamp(16, MAX_SLOTS)),
            slot_addr: Vec::new(),
            clock: 0,
            origin: 0,
            depth: u64::MAX,
            floor: 0,
            held: 0,
            distinct: 0,
            hist: Vec::new(),
            compulsory: 0,
            accesses: 0,
            first_touches: None,
            dirty: None,
        }
    }

    /// An engine whose logical clock starts at `start` instead of 0 —
    /// equivalent to an engine that has already digested `start` touches
    /// of some prefix and been fully compacted. Exercised by the
    /// regression test that drives the clock across `u32::MAX` while the
    /// index holds `u32` physical slots.
    #[cfg(test)]
    fn with_clock_start(start: u64) -> Self {
        let mut engine = Self::new();
        engine.clock = start;
        engine.origin = start;
        engine.floor = start;
        engine
    }

    /// The same fresh engine capped at stack depth `depth`: it ranks a
    /// reuse only among the `depth` most recently touched ids, and counts
    /// any deeper reuse as a miss at every capacity up to `depth`. By LRU
    /// inclusion that answers every capacity `≤ depth` exactly, in a slot
    /// space of `min(2 · bound, 4 · depth)` instead of `2 · bound`. Its
    /// profile carries the cap and refuses queries above it; snapshots,
    /// segmented merges and KBCP images refuse capped engines. `u64::MAX`
    /// leaves the engine uncapped.
    ///
    /// # Panics
    ///
    /// Panics on `depth == 0`, and when the engine has already observed
    /// an access.
    #[must_use]
    pub fn with_depth(mut self, depth: u64) -> Self {
        assert!(depth > 0, "a depth cap must be at least 1");
        assert!(
            self.markers.live == 0,
            "set the depth cap before the first observation"
        );
        self.depth = depth;
        let slots = usize::try_from(depth.saturating_mul(4)).unwrap_or(usize::MAX);
        if slots < self.markers.slots() {
            self.markers = MarkerTree::new(slots);
        }
        self
    }

    /// Panics when the engine is capped: `what` needs the whole recency
    /// stack, and a capped engine keeps only its top.
    fn assert_uncapped(&self, what: &str) {
        assert!(
            self.depth == u64::MAX,
            "{what} needs an uncapped engine, but this one is capped at depth {}",
            self.depth
        );
    }

    /// Distinct addresses seen so far.
    #[must_use]
    pub fn distinct(&self) -> u64 {
        self.distinct
    }

    /// Accesses observed so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Bytes the engine holds allocated, read from its tables' real
    /// capacities: the last-access index, the slot space (slot ids,
    /// marker bits, Fenwick tree), the histograms, the renamer and any
    /// dirty-chain or first-touch record.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        let dirty = self.dirty.as_ref();
        let narrow: usize = [&self.index, &self.slot_addr]
            .into_iter()
            .chain(dirty.map(|d| &d.index))
            .map(Vec::capacity)
            .sum();
        let wide: usize = [&self.markers.bits, &self.markers.tree, &self.hist]
            .into_iter()
            .chain(self.first_touches.as_ref())
            .chain(dirty.map(|d| &d.wb_hist))
            .map(Vec::capacity)
            .sum();
        narrow as u64 * 4 + wide as u64 * 8 + self.ids.as_ref().map_or(0, FxMap::resident_bytes)
    }

    /// Serializes the engine's complete observable state into a
    /// versioned, checksummed little-endian image (see
    /// [`crate::checkpoint`] for the format). The recency structure is
    /// stored *logically* — the live addresses in recency order, bottom
    /// to top — so the image is independent of the physical slot layout;
    /// [`StackDistance::restore`] rebuilds the marker tree and last-access
    /// index from it, equivalent to a fresh compaction. The access count
    /// in the image doubles as the trace cursor: it is exactly the number
    /// of trace positions this engine has consumed.
    ///
    /// # Panics
    ///
    /// Panics on a capped engine ([`StackDistance::with_depth`]).
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        use crate::checkpoint::{ByteWriter, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
        let stack = self.final_stack();
        let ft_len = self.first_touches.as_ref().map_or(0, Vec::len);
        let mut w =
            ByteWriter::with_capacity(64 + 8 * (stack.len() + self.hist.len() + ft_len));
        w.bytes(&CHECKPOINT_MAGIC);
        w.u16(CHECKPOINT_VERSION);
        // Tag 0: renamed (no bound); tag 1: bounded by the index length.
        let (tag, bound) = match &self.ids {
            Some(_) => (0u8, 0u64),
            None => (1u8, self.index.len() as u64),
        };
        w.u8(tag);
        let mut flags = u8::from(self.first_touches.is_some());
        if self.dirty.is_some() {
            flags |= 2;
        }
        w.u8(flags);
        w.u64(bound);
        w.u64(self.clock);
        w.u64(self.accesses);
        w.u64(self.compulsory);
        w.u64(stack.len() as u64);
        w.u64(self.hist.len() as u64);
        w.u64(ft_len as u64);
        w.u64_slice(&stack);
        w.u64_slice(&self.hist);
        if let Some(ft) = &self.first_touches {
            w.u64_slice(ft);
        }
        // v2 trailer: the tagged pass's dirty-chain state — closed-chain
        // histogram plus the open chains as sorted (line, max gap) pairs.
        if let Some(state) = &self.dirty {
            let addrs = self.id_addrs();
            let mut pairs: Vec<(u64, u64)> = state
                .index
                .iter()
                .enumerate()
                .filter(|&(_, &gap)| gap != CLOSED)
                .map(|(id, &gap)| (addrs.as_ref().map_or(id as u64, |a| a[id]), u64::from(gap)))
                .collect();
            pairs.sort_unstable();
            w.u64(state.wb_hist.len() as u64);
            w.u64(pairs.len() as u64);
            w.u64_slice(&state.wb_hist);
            for (line, max_gap) in pairs {
                w.u64(line);
                w.u64(max_gap);
            }
        }
        w.finish()
    }

    /// Rebuilds an engine from a [`StackDistance::snapshot`] image,
    /// bit-identical in every observable to the engine that produced it
    /// (pinned by proptest at adversarial cut points, including mid-trace
    /// and just past compaction).
    ///
    /// # Errors
    ///
    /// A typed [`CheckpointError`](crate::checkpoint::CheckpointError)
    /// for truncated images, wrong magic or version, checksum mismatches
    /// (any flipped byte), and structurally inconsistent payloads
    /// (duplicate recency-stack entries, addresses beyond the declared
    /// bound, a bound or stack beyond the engine's id space, open dirty
    /// chains on lines absent from the recency stack or with a gap the
    /// `u32` ledger cannot hold) — never a panic or undefined behavior.
    pub fn restore(bytes: &[u8]) -> Result<StackDistance, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::{
            ByteReader, CheckpointError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
        };
        let corrupt = |reason: &'static str| CheckpointError::Corrupt { reason };
        let mut r = ByteReader::verified(bytes)?;
        let magic = r.array::<4>()?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic { found: magic });
        }
        let version = r.u16()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let tag = r.u8()?;
        let flags = r.u8()?;
        if flags > 3 {
            return Err(corrupt("unknown flag bits"));
        }
        let bound = r.u64()?;
        let clock = r.u64()?;
        let accesses = r.u64()?;
        let compulsory = r.u64()?;
        let live = r.u64()?;
        let hist_len = r.u64()?;
        let ft_len = r.u64()?;
        let stack = r.u64_vec(live)?;
        let hist = r.u64_vec(hist_len)?;
        let first_touches = if flags & 1 == 1 {
            Some(r.u64_vec(ft_len)?)
        } else if ft_len == 0 {
            None
        } else {
            return Err(corrupt("first-touch payload without its flag"));
        };
        // v2 trailer: dirty-chain state, present only when the tagged pass
        // ran (flag bit 2) — untagged snapshots keep the v1 tail layout.
        let dirty_payload = if flags & 2 == 2 {
            let wb_len = r.u64()?;
            let pair_count = r.u64()?;
            let wb_hist = r.u64_vec(wb_len)?;
            let mut pairs = Vec::with_capacity(
                usize::try_from(pair_count).map_err(|_| corrupt("open-chain count overflows"))?,
            );
            let mut prev: Option<u64> = None;
            for _ in 0..pair_count {
                let line = r.u64()?;
                let max_gap = r.u64()?;
                if prev.is_some_and(|p| p >= line) {
                    return Err(corrupt("open dirty chains out of order"));
                }
                // A gap is a stack distance below the id space: one that
                // reaches the closed sentinel cannot be a ledger entry.
                let max_gap = u32::try_from(max_gap)
                    .ok()
                    .filter(|&gap| gap != CLOSED)
                    .ok_or_else(|| corrupt("open dirty chain gap does not fit the ledger"))?;
                prev = Some(line);
                pairs.push((line, max_gap));
            }
            Some((wb_hist, pairs))
        } else {
            None
        };
        r.expect_end()?;
        if clock < live {
            return Err(corrupt("clock below live-address count"));
        }
        let within_ids = |count: u64| usize::try_from(count).ok().filter(|&c| c <= MAX_IDS);
        let cap = within_ids(live).ok_or_else(|| corrupt("live count exceeds the id space"))?;

        let mut engine = match tag {
            0 => Self::renamed(2 * cap),
            1 => {
                if bound == 0 {
                    return Err(corrupt("zero address bound on the direct backend"));
                }
                let b = within_ids(bound)
                    .ok_or_else(|| corrupt("address bound exceeds the id space"))?;
                Self::with_slots(vec![EMPTY; b], None, 2 * b)
            }
            _ => return Err(corrupt("unknown backend tag")),
        };
        // Rebuild the physical window exactly as compaction lays it out:
        // the live addresses take slots 0..live, timestamps just below
        // the (restored) clock. A renamed engine re-renames the stack in
        // recency order.
        let origin = clock - live;
        engine.slot_addr = vec![0; engine.markers.slots()];
        for (i, &addr) in stack.iter().enumerate() {
            if engine.ids.is_none() && addr >= bound {
                return Err(corrupt("address beyond the declared bound"));
            }
            let id = engine.id_of(addr) as usize;
            let last = &mut engine.index[id];
            if *last != EMPTY {
                return Err(corrupt("duplicate address in the recency stack"));
            }
            *last = entry(i);
            engine.slot_addr[i] = entry(id);
        }
        let slots = engine.markers.slots();
        engine.markers.reset_packed(slots, stack.len());
        engine.clock = clock;
        engine.origin = origin;
        engine.floor = origin;
        engine.held = live;
        engine.distinct = live;
        engine.hist = hist;
        engine.compulsory = compulsory;
        engine.accesses = accesses;
        engine.first_touches = first_touches;
        if let Some((wb_hist, pairs)) = dirty_payload {
            let mut state = DirtyState::new(engine.index.len());
            state.wb_hist = wb_hist;
            state.open = pairs.len() as u64;
            for (line, max_gap) in pairs {
                // Every line ever touched stays on the recency stack, so
                // an open chain on any other line is a forged image.
                let id = match &engine.ids {
                    Some(ids) => ids.find(line).ok().map(|pos| ids.val_at(pos)),
                    None => Some(line).filter(|&l| l < bound),
                }
                .filter(|&id| engine.index[id as usize] != EMPTY)
                .ok_or_else(|| {
                    corrupt("open dirty chain on a line absent from the recency stack")
                })?;
                state.index[id as usize] = max_gap;
            }
            engine.dirty = Some(state);
        }
        Ok(engine)
    }

    /// The engine's id for `addr`: the address itself on a bounded
    /// engine, the renamer's id otherwise. A new id is the index's length,
    /// so the id-keyed tables grow by one push here, on first touches only.
    #[inline]
    fn id_of(&mut self, addr: u64) -> u64 {
        let Some(ids) = &mut self.ids else {
            return addr;
        };
        match ids.find(addr) {
            Ok(pos) => ids.val_at(pos),
            Err(pos) => {
                let id = fresh_id(self.index.len());
                ids.insert_at(pos, addr, id as u64);
                ids.grow_past_half(id + 1);
                self.index.push(EMPTY);
                if let Some(state) = &mut self.dirty {
                    state.index.push(CLOSED);
                }
                id as u64
            }
        }
    }

    /// The address each id stands for (`None` on a bounded engine, whose
    /// ids are addresses) — read back from the renamer, for the cold
    /// paths that export addresses.
    fn id_addrs(&self) -> Option<Vec<u64>> {
        self.ids.as_ref().map(|ids| {
            let mut addrs = vec![0; self.index.len()];
            for (addr, id) in ids.entries() {
                addrs[id as usize] = addr;
            }
            addrs
        })
    }

    /// Moves `id` to the top of the recency stack and returns its stack
    /// distance — the distinct ids touched since its previous access,
    /// counting itself — or `None` at its first touch. On a capped
    /// engine a reuse whose marker was evicted returns `depth + 1`.
    /// Compacts first when the physical window is full, so the previous
    /// access's slot and the current clock share one `origin`. Always
    /// inlined: left to the optimizer it stays an out-of-line call per
    /// access in the sweeps' chunk loops, which cost the `curve` sweeps
    /// about 7% of their wall time on a 2-core x86-64 host.
    #[inline(always)]
    fn touch(&mut self, id: u64) -> Option<u64> {
        if self.clock - self.origin == self.markers.slots() as u64 {
            self.compact();
        }
        // Renamed ids are below the length by construction; on a bounded
        // engine this is the caller's address promise.
        let a = usize::try_from(id)
            .ok()
            .filter(|&a| a < self.index.len())
            .unwrap_or_else(|| panic!("address {id} exceeds the declared address bound"));
        // In-window by construction: clock − origin < slots.
        let top = (self.clock - self.origin) as usize;
        let distance = match std::mem::replace(&mut self.index[a], entry(top)) {
            EMPTY => {
                self.distinct += 1;
                self.held += 1;
                None
            }
            EVICTED => {
                // Deeper than the cap (never on an uncapped engine).
                self.held += 1;
                Some(self.depth + 1)
            }
            prev => {
                let p = prev as usize;
                let d = self.markers.count_after(p) + 1;
                self.markers.remove(p);
                Some(d)
            }
        };
        if self.held > self.depth {
            self.evict();
        }
        self.markers.add(top);
        match self.slot_addr.get_mut(top) {
            Some(slot) => *slot = entry(a),
            None => self.allocate_slots(top, entry(a)),
        }
        self.clock += 1;
        distance
    }

    /// Allocates the slot-id table at the first touch, which lands in
    /// slot `top`.
    #[cold]
    fn allocate_slots(&mut self, top: usize, id: u32) {
        debug_assert!(self.slot_addr.is_empty(), "the slot table is sized at compaction");
        self.slot_addr = vec![0; self.markers.slots()];
        self.slot_addr[top] = id;
    }

    /// Makes room under the depth cap: evicts the oldest live marker,
    /// found by a forward scan from the floor, by moving the floor past
    /// it and marking its id `EVICTED`. Its bit stays set until the next
    /// compaction; it sits below every live marker, so no live marker's
    /// `count_after` sees it, and the eviction walks no tree. The caller
    /// has already removed the touched id's own marker, so the scan never
    /// finds it.
    #[inline]
    fn evict(&mut self) {
        let s = self.markers.next_live((self.floor - self.origin) as usize);
        self.index[self.slot_addr[s] as usize] = EVICTED;
        self.held -= 1;
        self.floor = self.origin + s as u64 + 1;
    }

    /// Counts one observed access of `addr` at stack distance `d`, or as
    /// a first touch (`None`).
    #[inline]
    fn count(&mut self, addr: u64, d: Option<u64>) {
        self.accesses += 1;
        match d {
            Some(d) => self.bump_hist(d),
            None => {
                self.compulsory += 1;
                if let Some(rec) = &mut self.first_touches {
                    rec.push(addr);
                }
            }
        }
    }

    /// Counts one access at stack distance `d` into the histogram.
    #[inline]
    fn bump_hist(&mut self, d: u64) {
        // d ≤ distinct ≤ the id space, or depth + 1 ≤ distinct + 1 on a
        // capped engine: it fits usize.
        let d =
            usize::try_from(d).unwrap_or_else(|_| panic!("stack distance overflows usize"));
        if d >= self.hist.len() {
            self.grow_hist(d);
        }
        self.hist[d] += 1;
    }

    /// Extends the histogram through distance `d`: amortized doubling,
    /// but never past the largest possible distance — a bounded engine's
    /// bound, a capped engine's `depth + 1` — so the histogram holds at
    /// most one counter per address or per rank.
    #[cold]
    fn grow_hist(&mut self, d: usize) {
        let bound = match self.ids {
            Some(_) => usize::MAX,
            None => self.index.len() + 1,
        };
        let limit = usize::try_from(self.depth.saturating_add(2)).map_or(bound, |l| l.min(bound));
        let target = (2 * self.hist.len()).min(limit).max(d + 1);
        self.hist.reserve_exact(target - self.hist.len());
        self.hist.resize(d + 1, 0);
    }

    /// Observes one word access, updating the distance histogram.
    ///
    /// # Panics
    ///
    /// On a bounded engine, panics if `addr` exceeds the bound declared at
    /// construction.
    #[inline]
    pub fn observe(&mut self, addr: u64) {
        let id = self.id_of(addr);
        let d = self.touch(id);
        self.count(addr, d);
    }

    /// Feeds a whole address trace (any iterator — in particular the
    /// streaming trace generators, in O(1) extra memory).
    pub fn observe_trace(&mut self, addrs: impl IntoIterator<Item = u64>) {
        for a in addrs {
            self.observe(a);
        }
    }

    /// Observes one *tagged* access of line id `line`, updating both the
    /// reuse-distance histogram and the dirty-chain write-back ledger. A
    /// tagged replay must route **every** access through this method (an
    /// interleaved [`StackDistance::observe`] would skip a chain's gap
    /// update); address-to-line mapping is the caller's — see
    /// [`StackDistance::traffic_profile_of`] for the word-address entry point.
    ///
    /// With all-read tags this is observationally identical to
    /// [`StackDistance::observe`]: the dirty ledger stays empty and
    /// [`TrafficProfile::writebacks_at`] is zero everywhere.
    ///
    /// # Panics
    ///
    /// As [`StackDistance::observe`].
    #[inline]
    pub fn observe_tagged(&mut self, line: u64, is_write: bool) {
        let id = self.id_of(line);
        let gap = self.touch(id);
        self.count(line, gap);
        if self.dirty.is_none() && !is_write {
            // No chain can be open yet: reads before the first write need
            // no ledger at all.
            return;
        }
        let ids = self.index.len();
        let state = self.dirty.get_or_insert_with(|| DirtyState::new(ids));
        let chain = &mut state.index[id as usize];
        // An open chain spans this access's gap: a dirty eviction inside
        // the gap is what the running max records. A first touch (no gap)
        // cannot have an open chain — the line was never seen, let alone
        // written.
        let open = match ((*chain != CLOSED).then_some(u64::from(*chain)), gap) {
            (Some(m), Some(d)) => Some(m.max(d)),
            (open, _) => open,
        };
        if is_write {
            // The previous chain (if any) closes here with its final max;
            // this write opens a fresh one.
            *chain = 0;
            match open {
                Some(m) => state.close(m),
                None => state.open += 1,
            }
        } else if let Some(m) = open {
            // A gap is below MAX_IDS (see `CLOSED`).
            *chain = entry(m as usize);
        }
    }

    /// Feeds a whole tagged access trace, mapping each word address onto
    /// its `line_words`-sized line (consecutive same-line touches collapse
    /// to distance-1 hits — spatial locality becomes visible). Line ids
    /// are a shift, not a per-access division.
    ///
    /// # Panics
    ///
    /// Panics when `line_words` is not a power of two (zero included) —
    /// the shape every line size in the workspace is validated to.
    pub fn observe_tagged_trace(
        &mut self,
        accesses: impl IntoIterator<Item = balance_core::Access>,
        line_words: u64,
    ) {
        let shift = line_shift(line_words);
        for a in accesses {
            self.observe_tagged(a.addr >> shift, a.is_write());
        }
    }

    /// Starts recording first-touch addresses (segment boundary state).
    pub(crate) fn record_first_touches(&mut self) {
        self.first_touches = Some(Vec::new());
    }

    /// Takes the recorded first-touch addresses, in touch order.
    pub(crate) fn take_first_touches(&mut self) -> Vec<u64> {
        self.first_touches.take().unwrap_or_default()
    }

    /// The live addresses in recency order, oldest first — the engine's
    /// final LRU stack, bottom to top.
    pub(crate) fn final_stack(&self) -> Vec<u64> {
        self.assert_uncapped("exporting the recency stack (a snapshot or a segment pass)");
        let addrs = self.id_addrs();
        self.markers
            .live_slots()
            .map(|s| {
                let id = self.slot_addr[s];
                addrs.as_ref().map_or(u64::from(id), |a| a[id as usize])
            })
            .collect()
    }

    /// A boundary touch during a segmented merge: counts a histogram entry
    /// (cross-segment reuse) or a compulsory miss (globally new address),
    /// moves the marker to the top, but does **not** count an access —
    /// the per-segment passes already counted it.
    pub(crate) fn merge_observe(&mut self, addr: u64) {
        self.assert_uncapped("a segmented merge");
        let id = self.id_of(addr);
        match self.touch(id) {
            None => self.compulsory += 1,
            Some(d) => self.bump_hist(d),
        }
    }

    /// Moves `addr` to the top of the recency stack (inserting it if
    /// absent) with no statistics at all — the segmented merge's reorder
    /// step, restoring true last-access order after a segment's boundary
    /// touches land in first-touch order.
    pub(crate) fn touch_silent(&mut self, addr: u64) {
        let id = self.id_of(addr);
        self.touch(id);
    }

    /// Adds another engine's distance histogram into this one.
    pub(crate) fn absorb_hist(&mut self, other: &[u64]) {
        if other.len() > self.hist.len() {
            self.hist.resize(other.len(), 0);
        }
        for (slot, &h) in self.hist.iter_mut().zip(other) {
            *slot += h;
        }
    }

    /// Credits accesses counted by another engine (segmented passes).
    pub(crate) fn add_accesses(&mut self, n: u64) {
        self.accesses += n;
    }

    /// Dismantles the engine into `(hist, accesses)` for segment merging.
    pub(crate) fn into_parts(self) -> (Vec<u64>, u64) {
        (self.hist, self.accesses)
    }

    /// Finalizes a pass over a hash-sampled sub-trace into an approximate
    /// [`CapacityProfile`]: raw sampled counts are kept as stored, the
    /// access count is replaced with the **true** full-trace count, and
    /// the profile carries the sampling-rate exponent so queries re-scale
    /// (see [`crate::sampling`]).
    pub(crate) fn into_sampled_profile(
        mut self,
        true_accesses: u64,
        shift: u32,
    ) -> CapacityProfile {
        // SHARDS-adj (Waldspurger et al., FAST '15): spatial sampling hits
        // each address's *whole* access string or none of it, so the raw
        // sampled access count `S` wanders from the expected `N·R` by the
        // popularity skew of the sampled set. Queries scale hits by `1/R`
        // but subtract them from the exact `N`, so that wander lands
        // verbatim in every miss count — and near saturation, where true
        // misses shrink to the compulsory floor, it dominates them.
        // Restore `S == N·R` by crediting the difference to the smallest
        // observed reuse distance (clamped at an empty bucket).
        let expected = true_accesses >> shift;
        if let Some(d) = (1..self.hist.len()).find(|&d| self.hist[d] > 0) {
            if expected >= self.accesses {
                self.hist[d] += expected - self.accesses;
            } else {
                self.hist[d] = self.hist[d].saturating_sub(self.accesses - expected);
            }
        }
        let mut profile = self.into_profile();
        profile.accesses = true_accesses;
        profile.shift = shift;
        profile
    }

    /// Finalizes the replay into a queryable [`CapacityProfile`].
    #[must_use]
    pub fn into_profile(self) -> CapacityProfile {
        // One breakpoint per distance with a nonzero histogram count:
        // (d, accesses with stack distance ≤ d), strictly increasing in
        // both coordinates.
        let mut steps = Vec::new();
        let mut acc = 0u64;
        for (d, &h) in self.hist.iter().enumerate().skip(1) {
            if h > 0 {
                acc += h;
                steps.push((d as u64, acc));
            }
        }
        CapacityProfile {
            accesses: self.accesses,
            compulsory: self.compulsory,
            steps,
            shift: 0,
            depth: self.depth,
        }
    }

    /// Finalizes a tagged replay into a [`TrafficProfile`]: the dual
    /// answer sheet reporting line fetches *and* write-backs for every
    /// capacity. The engine must have observed **line ids** (see
    /// [`StackDistance::observe_tagged_trace`]); `line_words` is the line
    /// size those ids were derived with, so word-capacity queries can map
    /// back.
    ///
    /// # Panics
    ///
    /// Panics when `line_words` is zero.
    #[must_use]
    pub fn into_traffic_profile(mut self, line_words: u64) -> TrafficProfile {
        assert!(line_words > 0, "lines must hold at least one word");
        let dirty = self.dirty.take();
        let profile = self.into_profile();
        let (wb_steps, closed, open) = match dirty {
            None => (Vec::new(), 0, 0),
            Some(state) => {
                let mut steps = Vec::new();
                let mut acc = 0u64;
                for (d, &h) in state.wb_hist.iter().enumerate().skip(1) {
                    if h > 0 {
                        acc += h;
                        steps.push((d as u64, acc));
                    }
                }
                (steps, acc, state.open)
            }
        };
        TrafficProfile {
            profile,
            line_words,
            wb_steps,
            closed,
            open,
        }
    }

    /// Replays a whole trace through a fresh unbounded-address engine,
    /// which renames each address to a dense id on its first touch; the
    /// iterator's `size_hint` pre-sizes the slot space. The hint is exact
    /// for every canonical trace view (`balance-kernels`' `AccessTrace`
    /// `into_addrs`/`into_accesses`, and the matmul `NaiveTrace` /
    /// `BlockedTrace` generators — pinned by regression test); a
    /// lower hint only costs slot-space doublings.
    #[must_use]
    pub fn profile_of(addrs: impl IntoIterator<Item = u64>) -> CapacityProfile {
        let iter = addrs.into_iter();
        // A trace of `n` accesses touches at most `n` distinct addresses:
        // seed the slot space from the (exact) length hint, clamped so a
        // huge streamed trace does not pre-reserve gigabytes — compaction
        // grows the space on demand anyway.
        let hint = iter.size_hint().0.clamp(16, 1 << 20);
        let mut engine = Self::renamed(hint);
        engine.observe_trace(iter);
        engine.into_profile()
    }

    /// As [`StackDistance::profile_of`], for traces whose addresses lie in
    /// `[0, addr_bound)`: the addresses index the last-access table
    /// directly, with no renaming.
    ///
    /// # Panics
    ///
    /// As [`StackDistance::with_address_bound`].
    #[must_use]
    pub fn profile_of_bounded(
        addrs: impl IntoIterator<Item = u64>,
        addr_bound: u64,
    ) -> CapacityProfile {
        let mut engine = Self::with_address_bound(addr_bound);
        engine.observe_trace(addrs);
        engine.into_profile()
    }

    /// Replays a whole tagged trace at `line_words` granularity through a
    /// fresh unbounded-address engine (line ids renamed to dense ids on
    /// first touch) into a [`TrafficProfile`].
    ///
    /// # Panics
    ///
    /// Panics when `line_words` is not a power of two.
    #[must_use]
    pub fn traffic_profile_of(
        accesses: impl IntoIterator<Item = balance_core::Access>,
        line_words: u64,
    ) -> TrafficProfile {
        let iter = accesses.into_iter();
        let hint = iter.size_hint().0.clamp(16, 1 << 20);
        let mut engine = Self::renamed(hint);
        engine.observe_tagged_trace(iter, line_words);
        engine.into_traffic_profile(line_words)
    }

    /// As [`StackDistance::traffic_profile_of`], for traces whose word
    /// addresses lie in `[0, addr_bound)`: line ids index the tables
    /// directly (the line-id space is `addr_bound / line_words`, rounded
    /// up).
    ///
    /// # Panics
    ///
    /// As [`StackDistance::with_address_bound`]; also panics when
    /// `line_words` is not a power of two.
    #[must_use]
    pub fn traffic_profile_of_bounded(
        accesses: impl IntoIterator<Item = balance_core::Access>,
        line_words: u64,
        addr_bound: u64,
    ) -> TrafficProfile {
        line_shift(line_words);
        let mut engine = Self::with_address_bound(addr_bound.div_ceil(line_words).max(1));
        engine.observe_tagged_trace(accesses, line_words);
        engine.into_traffic_profile(line_words)
    }

    /// Squeezes the dead slots out of the time axis, preserving recency
    /// order, re-points the live markers and their ids' index entries, and
    /// re-bases the logical origin so the clock itself never resets. Only
    /// the live markers, from the floor up, are packed: evicted bits are
    /// dropped (their ids already read `EVICTED`), and the new origin
    /// becomes the floor. Doubles the slot space, up to [`MAX_SLOTS`],
    /// when more than half the slots are live (only possible on a
    /// renaming engine, whose distinct-address count is not fixed up
    /// front).
    fn compact(&mut self) {
        self.markers.debug_check();
        let slots = self.markers.slots();
        let live = usize::try_from(self.held)
            .unwrap_or_else(|_| panic!("live marker count overflows usize"));
        let floor = (self.floor - self.origin) as usize;
        // The clock is untouched; live entries take the `live` timestamps
        // just below it, so physical slot = timestamp − origin holds again.
        // Entries only move down (dst ≤ src), so the slide is in place.
        let origin = self.clock - live as u64;
        let mut moved = 0usize;
        for (dst, src) in self.markers.live_slots_from(floor).enumerate() {
            let id = self.slot_addr[src];
            self.slot_addr[dst] = id;
            self.index[id as usize] = entry(dst);
            moved += 1;
        }
        debug_assert_eq!(moved, live, "compaction must keep every live marker");
        // live ≤ MAX_IDS, so even the clamped space keeps about half free.
        let new_slots = if live * 2 > slots {
            (slots * 2).min(MAX_SLOTS)
        } else {
            slots
        };
        self.markers.reset_packed(new_slots, live);
        self.slot_addr.resize(self.markers.slots(), 0);
        self.origin = origin;
        self.floor = origin;
    }
}

/// The one-replay answer sheet: LRU miss/IO counts for **every** capacity,
/// from a single pass over the trace.
///
/// Obtained from [`StackDistance::into_profile`] (exact), the segmented
/// parallel engine in [`crate::segmented`] (exact, bit-identical), the
/// SHARDS-style sampled engine in [`crate::sampling`] (approximate), or a
/// closed-form derivation via [`AnalyticProfile`] (exact, zero replay). A
/// sampled profile carries its sampling rate as `shift`
/// (rate = 2^−shift): raw sampled counts are stored and every query
/// re-scales by 2^shift, following Waldspurger et al., *Efficient MRC
/// Construction with SHARDS* (FAST '15). [`CapacityProfile::is_exact`]
/// distinguishes the two — exact consumers (measured balance points) must
/// check it.
///
/// Storage is **piecewise**: one cumulative-hit breakpoint per distance
/// that actually occurs in the reuse histogram (a run-length encoding of
/// the hit curve), so a derived profile for `n = 10⁵` matmul is a few
/// hundred entries, not a `3n²`-long dense vector. Queries binary-search
/// the O(#pieces) breakpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityProfile {
    accesses: u64,
    compulsory: u64,
    /// Breakpoints `(d, h)`: `h` = accesses with (sampled) stack distance
    /// ≤ `d`, one entry per distance with a nonzero histogram count,
    /// strictly increasing in both coordinates (empty = no reuse at any
    /// capacity). For an exact profile the last `h` equals
    /// `accesses − compulsory`.
    steps: Vec<(u64, u64)>,
    /// Sampling-rate exponent: counts and distances are stored ×2^−shift
    /// and re-scaled on query. 0 = exact.
    shift: u32,
    /// The depth cap of the engine that measured it: capacities up to it
    /// are answered exactly, and the last breakpoint may sit at
    /// `depth + 1`, the reuses deeper than the cap (`u64::MAX` =
    /// uncapped).
    depth: u64,
}

/// Raw field windows for the `KBCP` profile codec ([`crate::profstore`]).
/// The codec lives in a sibling module, so (de)construction crosses the
/// privacy boundary through these crate-internal accessors instead of by
/// making the invariant-carrying fields public; the decoder re-validates
/// every invariant before calling [`CapacityProfile::from_raw_parts`].
impl CapacityProfile {
    /// `(accesses, compulsory, steps, shift)`, exactly as stored.
    pub(crate) fn raw_parts(&self) -> (u64, u64, &[(u64, u64)], u32) {
        (self.accesses, self.compulsory, &self.steps, self.shift)
    }

    /// Rebuilds a profile from decoded fields. The caller (the codec) is
    /// responsible for having validated the breakpoint invariants.
    pub(crate) fn from_raw_parts(
        accesses: u64,
        compulsory: u64,
        steps: Vec<(u64, u64)>,
        shift: u32,
    ) -> CapacityProfile {
        CapacityProfile {
            accesses,
            compulsory,
            steps,
            shift,
            depth: u64::MAX,
        }
    }
}

impl CapacityProfile {
    /// The profile of a trace touching `accesses` distinct addresses once
    /// each: every miss compulsory, no reuse at any capacity. The closed
    /// form for one-touch computations (streaming transforms, transpose)
    /// — equal to replaying `0..accesses` through the engine (pinned by
    /// test) without the `O(accesses)` replay or its tables.
    #[must_use]
    pub fn one_touch(accesses: u64) -> CapacityProfile {
        CapacityProfile {
            accesses,
            compulsory: accesses,
            steps: Vec::new(),
            shift: 0,
            depth: u64::MAX,
        }
    }

    /// Re-scales a raw stored count by the sampling rate, saturating at
    /// `u64::MAX` (identity for exact profiles).
    #[inline]
    fn scale(&self, raw: u64) -> u64 {
        u64::try_from(u128::from(raw) << self.shift).unwrap_or(u64::MAX)
    }

    /// Whether this profile is exact (unsampled): `true` for the serial
    /// and segmented engines and for closed forms, `false` for
    /// SHARDS-sampled profiles. Consumers that promise exactness (e.g.
    /// the measured-balance fast path) must gate on this.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.shift == 0
    }

    /// The sampling-rate exponent: addresses were sampled at rate
    /// 2^−shift (0 = exact).
    #[must_use]
    pub fn sample_shift(&self) -> u32 {
        self.shift
    }

    /// The sampling rate as a fraction in (0, 1] (1.0 = exact).
    #[must_use]
    pub fn sampling_rate(&self) -> f64 {
        1.0 / (1u64 << self.shift.min(63)) as f64
    }

    /// Total accesses in the replayed trace (exact even for sampled
    /// profiles — the sampled engine counts every access it skips).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// First-touch (compulsory) misses — the floor no capacity removes,
    /// equal to the number of distinct addresses in the trace (scaled
    /// estimate for sampled profiles).
    #[must_use]
    pub fn compulsory_misses(&self) -> u64 {
        self.scale(self.compulsory).min(self.accesses)
    }

    /// Distinct addresses in the trace (alias of the compulsory count).
    #[must_use]
    pub fn distinct_addresses(&self) -> u64 {
        self.compulsory_misses()
    }

    /// The depth cap of the engine that measured the profile
    /// ([`StackDistance::with_depth`]): the largest capacity it answers.
    /// `None` for an uncapped profile, which answers every capacity.
    #[must_use]
    pub fn depth(&self) -> Option<u64> {
        (self.depth != u64::MAX).then_some(self.depth)
    }

    /// Panics when capacity `m` lies above the depth cap.
    #[inline]
    fn check_depth(&self, m: u64) {
        if m > self.depth {
            above_depth(self.depth, m);
        }
    }

    /// The smallest capacity at which only compulsory misses remain (the
    /// largest observed stack distance; 0 for an empty or touch-once
    /// trace). For sampled profiles, the scaled estimate.
    ///
    /// # Panics
    ///
    /// On a capped profile with a reuse deeper than its cap.
    #[must_use]
    pub fn saturating_capacity(&self) -> u64 {
        let d = self.steps.last().map_or(0, |&(d, _)| d);
        self.check_depth(d);
        self.scale(d)
    }

    /// Hits of a word-granular LRU of `m` words replaying the trace
    /// (scaled estimate for sampled profiles, clamped to `accesses`) — a
    /// binary search over the cumulative-hit breakpoints.
    ///
    /// # Panics
    ///
    /// When `m` lies above the profile's [`CapacityProfile::depth`]; so do
    /// every miss, IO and traffic query built on this one.
    #[must_use]
    pub fn hits_at(&self, m: u64) -> u64 {
        self.check_depth(m);
        let d = m >> self.shift;
        let idx = self.steps.partition_point(|&(dist, _)| dist <= d);
        let raw = if idx == 0 { 0 } else { self.steps[idx - 1].1 };
        self.scale(raw).min(self.accesses)
    }

    /// The profile's `(stack distance, access count)` reuse classes,
    /// smallest distance first — the per-distance histogram the
    /// cumulative breakpoints encode (raw stored counts for sampled
    /// profiles). Empty for a one-touch or empty trace.
    ///
    /// # Panics
    ///
    /// On a capped profile, whose reuses deeper than its cap have no
    /// distance.
    pub fn reuse_classes(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        assert!(
            self.depth().is_none(),
            "profile capped at depth {} has no reuse classes deeper than it",
            self.depth
        );
        self.steps.iter().scan(0u64, |prev, &(d, cum)| {
            let count = cum - *prev;
            *prev = cum;
            Some((d, count))
        })
    }

    /// Misses of a word-granular LRU of `m` words replaying the trace —
    /// for an exact profile, bit-identical to
    /// `LruCache::with_capacity_words(m)` fed the same trace (pinned by
    /// property test). `m = 0` counts every access as a miss.
    #[must_use]
    pub fn misses_at(&self, m: u64) -> u64 {
        self.accesses.saturating_sub(self.hits_at(m))
    }

    /// I/O words crossing the boundary below a memory of `m` words — for
    /// the word-granular caches this crate models, exactly
    /// [`CapacityProfile::misses_at`].
    #[must_use]
    pub fn io_at(&self, m: u64) -> u64 {
        self.misses_at(m)
    }

    /// The multi-level read: boundary traffic for a ladder with the given
    /// level capacities (innermost first) — entry `i` is `misses_at(M_i)`,
    /// which LRU inclusion makes exactly the words that miss every level up
    /// to `i` and cross toward level `i+1`. Bit-identical to replaying the
    /// trace through a [`crate::Hierarchy`] of the same capacities (pinned
    /// by property test).
    ///
    /// # Panics
    ///
    /// As [`LevelTraffic::from_slice`]: more than
    /// [`balance_core::MAX_MEMORY_LEVELS`] capacities panic.
    #[must_use]
    pub fn traffic_at(&self, capacities: &[Words]) -> LevelTraffic {
        let io: Vec<u64> = capacities.iter().map(|m| self.misses_at(m.get())).collect();
        LevelTraffic::from_slice(&io)
    }

    /// [`CapacityProfile::traffic_at`] for a validated [`HierarchySpec`]
    /// (all levels cache-managed — the trace-driven configuration).
    #[must_use]
    pub fn traffic_for(&self, spec: &HierarchySpec) -> LevelTraffic {
        let caps: Vec<Words> = spec.levels().iter().map(|l| l.capacity()).collect();
        self.traffic_at(&caps)
    }

    /// Kung's question inverted: the smallest capacity `M ≥ 1` whose
    /// intensity `ops / io_at(M)` reaches `ratio` op/word, or `None` when
    /// even the [saturating capacity](Self::saturating_capacity) stays
    /// below it. Zero IO words is an infinite intensity, which reaches
    /// every ratio; a ratio of zero or less is reached everywhere, and NaN
    /// only by zero IO words.
    ///
    /// Exact at every magnitude: `ratio` is decoded from its `f64` bits
    /// and compared with `ops / io` in `u128`, never through a rounded
    /// quotient. The IO curve falls only at its breakpoints, so the answer
    /// is 1 or a breakpoint's capacity, found by a binary search over
    /// them — O(log #pieces).
    ///
    /// # Panics
    ///
    /// As [`CapacityProfile::saturating_capacity`]: on a capped profile
    /// with a reuse deeper than its cap.
    #[must_use]
    pub fn min_capacity_reaching(&self, ops: u64, ratio: f64) -> Option<u64> {
        // A capped profile whose reuses run past its cap refuses here.
        let _ = self.saturating_capacity();
        let target = Ratio::of(ratio);
        // Breakpoint `(d, h)` takes effect at capacity `d << shift`; one
        // past the `u64` range is never reached.
        let mut steps = &self.steps[..];
        if self.shift > 0 {
            steps = &steps[..steps.partition_point(|&(d, _)| d <= u64::MAX >> self.shift)];
        }
        let io = |h| self.accesses - self.scale(h).min(self.accesses);
        let first = steps.partition_point(|&(_, h)| !target.reached_by(ops, io(h)));
        // Capacity 1 lies at or below the first breakpoint, so it can only
        // reach when that one does; it holds the hits of distance 1 alone.
        if first == 0 {
            let h = match steps.first() {
                Some(&(1, h)) if self.shift == 0 => h,
                _ => 0,
            };
            if target.reached_by(ops, io(h)) {
                return Some(1);
            }
        }
        steps.get(first).map(|&(d, _)| d << self.shift)
    }
}

/// An op/word ratio decoded exactly from its `f64` bits, for the exact
/// inverse queries ([`CapacityProfile::min_capacity_reaching`]).
#[derive(Debug, Clone, Copy)]
enum Ratio {
    /// Zero, negative or `-∞`: every intensity reaches it.
    Everywhere,
    /// `+∞` or NaN: only zero IO words reach it.
    Nowhere,
    /// `mant · 2^exp`, with `mant > 0`.
    Finite { mant: u64, exp: i32 },
}

impl Ratio {
    fn of(ratio: f64) -> Ratio {
        if ratio.is_nan() || ratio == f64::INFINITY {
            return Ratio::Nowhere;
        }
        if ratio <= 0.0 {
            return Ratio::Everywhere;
        }
        let bits = ratio.to_bits();
        let field = (bits >> 52) as i32;
        let frac = bits & ((1 << 52) - 1);
        let (mant, exp) = if field == 0 {
            (frac, -1074)
        } else {
            (frac | 1 << 52, field - 1075)
        };
        // Odd mantissa: an integer ratio gets `exp ≥ 0`, the cheap arm.
        let zeros = mant.trailing_zeros();
        Ratio::Finite {
            mant: mant >> zeros,
            exp: exp + zeros as i32,
        }
    }

    /// Whether `ops / words ≥ ratio`, exactly (`words = 0` reaches all).
    fn reached_by(self, ops: u64, words: u64) -> bool {
        if words == 0 {
            return true;
        }
        let Ratio::Finite { mant, exp } = self else {
            return matches!(self, Ratio::Everywhere);
        };
        // ratio · words = rhs · 2^exp, with rhs < 2^117.
        let rhs = u128::from(mant) * u128::from(words);
        let ops = u128::from(ops);
        if exp >= 0 {
            exp < 64 && rhs <= u128::from(u64::MAX) >> exp && rhs << exp <= ops
        } else {
            // ops ≥ rhs / 2^s  ⟺  ops ≥ ⌈rhs / 2^s⌉ (≥ 1, as rhs > 0).
            let s = exp.unsigned_abs();
            let ceil = if s >= 128 {
                1
            } else {
                (rhs >> s) + u128::from(rhs & ((1u128 << s) - 1) != 0)
            };
            ops >= ceil
        }
    }
}

/// The id a renamer gives its next distinct address when it already keys
/// `count`: `count` itself.
///
/// # Panics
///
/// When `count` reaches [`MAX_IDS`]: the id would not fit the `u32`
/// tables clear of their sentinels.
fn fresh_id(count: usize) -> usize {
    assert!(
        count < MAX_IDS,
        "a renaming engine keys at most {MAX_IDS} distinct addresses"
    );
    count
}

/// The panic of a query above a capped profile's depth.
#[cold]
#[inline(never)]
fn above_depth(depth: u64, m: u64) -> ! {
    panic!(
        "profile capped at depth {depth} cannot answer capacity {m}: \
         re-measure with an engine capped at {m} or more, or uncapped"
    )
}

/// The device-realistic answer sheet: line fetches **and** dirty
/// write-backs for every capacity, from one tagged pass.
///
/// Obtained from [`StackDistance::traffic_profile_of`] (or its bounded
/// sibling / [`StackDistance::into_traffic_profile`]). The read side is a
/// plain [`CapacityProfile`] over *line ids* — a miss fetches one line
/// regardless of direction (write-allocate). The write-back side is the
/// dirty-chain histogram: at capacity `M` a line is written back once per
/// dirty chain whose max reuse gap exceeds `M` lines, plus once per line
/// still dirty at the end of the run (the end-of-run flush). Both queries
/// are O(log #pieces) binary searches; both are bit-identical to replaying
/// the tagged trace through a line-granular [`crate::LruCache`] with dirty
/// bits and a final flush (pinned by property test, on both index
/// backends).
///
/// Capacities are given in **words**; the profile converts by its line
/// size (`m` words hold `m / line_words` lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficProfile {
    /// The read/fetch curve over line ids.
    profile: CapacityProfile,
    /// Line size the ids were derived with (≥ 1).
    line_words: u64,
    /// Breakpoints `(d, c)`: `c` = closed dirty chains with max gap ≤ `d`
    /// lines, one entry per gap with a nonzero count, strictly increasing
    /// in both coordinates.
    wb_steps: Vec<(u64, u64)>,
    /// Total closed dirty chains.
    closed: u64,
    /// Open dirty chains = distinct lines written — the write-back floor
    /// no capacity removes (every written line flushes at least once).
    open: u64,
}

/// Raw field windows for the `KBCP` profile codec ([`crate::profstore`]);
/// see the matching [`CapacityProfile`] impl for the rationale.
impl TrafficProfile {
    /// `(read profile, line_words, wb_steps, closed, open)`, as stored.
    pub(crate) fn raw_parts(&self) -> (&CapacityProfile, u64, &[(u64, u64)], u64, u64) {
        (
            &self.profile,
            self.line_words,
            &self.wb_steps,
            self.closed,
            self.open,
        )
    }

    /// Rebuilds a traffic profile from decoded fields. The caller (the
    /// codec) is responsible for having validated the ledger invariants.
    pub(crate) fn from_raw_parts(
        profile: CapacityProfile,
        line_words: u64,
        wb_steps: Vec<(u64, u64)>,
        closed: u64,
        open: u64,
    ) -> TrafficProfile {
        TrafficProfile {
            profile,
            line_words,
            wb_steps,
            closed,
            open,
        }
    }
}

impl TrafficProfile {
    /// The read/fetch curve over line ids — capacities in **lines**, not
    /// words. Exact by construction (tagged replay is never sampled).
    #[must_use]
    pub fn profile(&self) -> &CapacityProfile {
        &self.profile
    }

    /// The line size (words per line) the trace was replayed at.
    #[must_use]
    pub fn line_words(&self) -> u64 {
        self.line_words
    }

    /// Total accesses in the replayed trace (reads + writes).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.profile.accesses()
    }

    /// Distinct lines written in the trace — the write-back count no
    /// capacity avoids.
    #[must_use]
    pub fn written_lines(&self) -> u64 {
        self.open
    }

    /// Line fetches of an `m`-**word** memory replaying the trace: every
    /// access (read or write) that misses fetches its line
    /// (write-allocate).
    #[must_use]
    pub fn read_misses_at(&self, m: u64) -> u64 {
        self.profile.misses_at(m / self.line_words)
    }

    /// Dirty-eviction write-backs of an `m`-**word** memory replaying the
    /// trace, counting the end-of-run flush of still-dirty lines.
    /// Monotone non-increasing in `m` with floor
    /// [`TrafficProfile::written_lines`] (pinned by property test).
    ///
    /// # Panics
    ///
    /// When `m / line_words` lies above the read profile's
    /// [`CapacityProfile::depth`] (in lines).
    #[must_use]
    pub fn writebacks_at(&self, m: u64) -> u64 {
        let d = m / self.line_words;
        self.profile.check_depth(d);
        // Closed chains whose max gap fits within d lines stay resident
        // across the whole chain: the rewrite catches the line still
        // cached and still dirty, so no write-back.
        let idx = self.wb_steps.partition_point(|&(gap, _)| gap <= d);
        let kept = if idx == 0 { 0 } else { self.wb_steps[idx - 1].1 };
        (self.closed - kept) + self.open
    }

    /// [`TrafficProfile::read_misses_at`] in words: one line of traffic
    /// per missing access.
    #[must_use]
    pub fn read_words_at(&self, m: u64) -> u64 {
        self.read_misses_at(m).saturating_mul(self.line_words)
    }

    /// [`TrafficProfile::writebacks_at`] in words: one line of traffic per
    /// write-back.
    #[must_use]
    pub fn writeback_words_at(&self, m: u64) -> u64 {
        self.writebacks_at(m).saturating_mul(self.line_words)
    }

    /// All boundary words of an `m`-**word** memory: fetched plus
    /// written-back words.
    #[must_use]
    pub fn words_at(&self, m: u64) -> u64 {
        self.read_words_at(m)
            .saturating_add(self.writeback_words_at(m))
    }

    /// [`CapacityProfile::min_capacity_reaching`] for the device model:
    /// the smallest capacity `M ≥ 1`, in **words**, whose intensity
    /// `ops / words_at(M)` reaches `ratio`, compared exactly; `None` when
    /// no capacity does.
    ///
    /// Both curves fall only where `M / line_words` crosses one of their
    /// breakpoints. The answer is 1 or the smaller of two binary searches:
    /// the first fetch breakpoint that reaches and the first write-back
    /// breakpoint that reaches.
    ///
    /// # Panics
    ///
    /// On a capped read profile with a reuse deeper than its cap.
    #[must_use]
    pub fn min_capacity_reaching(&self, ops: u64, ratio: f64) -> Option<u64> {
        // A capped read profile whose reuses run past its cap refuses here.
        let _ = self.profile.saturating_capacity();
        let target = Ratio::of(ratio);
        let reaches = |m| target.reached_by(ops, self.words_at(m));
        if reaches(1) {
            return Some(1);
        }
        let lw = self.line_words;
        let first = |steps: &[(u64, u64)]| {
            let steps = &steps[..steps.partition_point(|&(d, _)| d <= u64::MAX / lw)];
            let i = steps.partition_point(|&(d, _)| !reaches(d * lw));
            steps.get(i).map(|&(d, _)| d * lw)
        };
        match (first(&self.profile.steps), first(&self.wb_steps)) {
            (Some(read), Some(wb)) => Some(read.min(wb)),
            (read, wb) => read.or(wb),
        }
    }

    /// The multi-level dual read: fetch and write-back **words** crossing
    /// the boundary below each level (innermost first). Bit-identical to
    /// replaying the tagged trace through a line-granular
    /// [`crate::Hierarchy`] of the same capacities with a final flush
    /// (pinned by property test).
    ///
    /// # Panics
    ///
    /// As [`LevelTraffic::from_reads_and_writebacks`]: more than
    /// [`balance_core::MAX_MEMORY_LEVELS`] capacities panic.
    #[must_use]
    pub fn traffic_at(&self, capacities: &[Words]) -> LevelTraffic {
        let reads: Vec<u64> = capacities
            .iter()
            .map(|m| self.read_words_at(m.get()))
            .collect();
        let wbs: Vec<u64> = capacities
            .iter()
            .map(|m| self.writeback_words_at(m.get()))
            .collect();
        LevelTraffic::from_reads_and_writebacks(&reads, &wbs)
    }

    /// [`TrafficProfile::traffic_at`] for a validated [`HierarchySpec`].
    #[must_use]
    pub fn traffic_for(&self, spec: &HierarchySpec) -> LevelTraffic {
        let caps: Vec<Words> = spec.levels().iter().map(|l| l.capacity()).collect();
        self.traffic_at(&caps)
    }
}

/// A closed-form reuse-distance histogram under construction: the
/// zero-replay way to build an exact [`CapacityProfile`].
///
/// For the affine kernels the reuse-distance histogram is an analyzable
/// function of the problem size: every access is either a first touch
/// ([`AnalyticProfile::record_compulsory`]) or a reuse at a derived stack
/// distance, and the reuses collapse into a handful of *classes* — runs of
/// accesses sharing one distance, with a count in closed form
/// ([`AnalyticProfile::record_class`]). Recording the classes takes
/// O(#classes) work however long the trace they describe would be; a
/// `3×10¹²`-address matmul trace at `n = 10⁴` becomes ~2·10⁴ classes built
/// in microseconds.
///
/// [`AnalyticProfile::into_profile`] finalizes into a [`CapacityProfile`]
/// that is **bit-identical** (including structurally, `==`) to replaying
/// the described trace through [`StackDistance`] — the kernel registry
/// pins this per kernel by property test. The profile reports
/// [`CapacityProfile::is_exact`]` == true`; a wrong derivation is a bug,
/// not an approximation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalyticProfile {
    accesses: u64,
    compulsory: u64,
    /// Recorded `(distance, count)` classes, any order, duplicates allowed
    /// (merged at finalization).
    classes: Vec<(u64, u64)>,
}

impl AnalyticProfile {
    /// An empty histogram: record classes into it.
    #[must_use]
    pub fn new() -> AnalyticProfile {
        AnalyticProfile::default()
    }

    /// The histogram of a trace touching `accesses` distinct addresses
    /// once each — the degenerate closed form
    /// ([`CapacityProfile::one_touch`]'s builder-side spelling).
    #[must_use]
    pub fn one_touch(accesses: u64) -> AnalyticProfile {
        AnalyticProfile {
            accesses,
            compulsory: accesses,
            classes: Vec::new(),
        }
    }

    /// Records `count` first-touch (compulsory-miss) accesses.
    pub fn record_compulsory(&mut self, count: u64) {
        self.accesses += count;
        self.compulsory += count;
    }

    /// Records a reuse class: `count` accesses with stack distance
    /// exactly `distance` (hits at every capacity ≥ `distance`). Classes
    /// may be recorded in any order and may repeat; zero counts are
    /// accepted and dropped (edge sizes degenerate classes to nothing).
    ///
    /// # Panics
    ///
    /// Panics on `distance == 0` — a reuse is at depth ≥ 1 by definition.
    pub fn record_class(&mut self, distance: u64, count: u64) {
        assert!(distance >= 1, "a reuse has stack distance >= 1");
        self.accesses += count;
        if count > 0 {
            self.classes.push((distance, count));
        }
    }

    /// Accesses recorded so far (compulsory + every class count).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// First-touch accesses recorded so far.
    #[must_use]
    pub fn compulsory(&self) -> u64 {
        self.compulsory
    }

    /// Finalizes into an exact [`CapacityProfile`]: classes are sorted,
    /// duplicate distances merged, and cumulated into the piecewise
    /// breakpoint form — O(#classes · log #classes), independent of the
    /// described trace's length.
    #[must_use]
    pub fn into_profile(self) -> CapacityProfile {
        let mut classes = self.classes;
        classes.sort_unstable_by_key(|&(d, _)| d);
        let mut steps: Vec<(u64, u64)> = Vec::with_capacity(classes.len());
        let mut acc = 0u64;
        for (d, c) in classes {
            acc += c;
            match steps.last_mut() {
                Some(last) if last.0 == d => last.1 = acc,
                _ => steps.push((d, acc)),
            }
        }
        CapacityProfile {
            accesses: self.accesses,
            compulsory: self.compulsory,
            steps,
            shift: 0,
            depth: u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LruCache;
    use crate::hierarchy::Hierarchy;
    use crate::hierarchy::MemorySystem as _;

    fn replay_misses(trace: &[u64], m: u64) -> u64 {
        let mut cache = LruCache::with_capacity_words(m as usize);
        cache.run_trace(trace.iter().copied())
    }

    fn check_all_capacities(trace: &[u64]) {
        let profile = StackDistance::profile_of(trace.iter().copied());
        let hi = u64::try_from(trace.len()).expect("trace length fits u64") + 2;
        for m in 1..=hi {
            assert_eq!(
                profile.misses_at(m),
                replay_misses(trace, m),
                "capacity {m} on trace {trace:?}"
            );
        }
    }

    #[test]
    fn matches_replay_on_small_traces() {
        check_all_capacities(&[]);
        check_all_capacities(&[7]);
        check_all_capacities(&[1, 1, 1, 1]);
        check_all_capacities(&[1, 2, 3, 4, 5]);
        check_all_capacities(&[1, 2, 3, 1, 2, 3]);
        check_all_capacities(&[1, 2, 1, 3, 1, 2, 5, 1, 2, 2, 4, 1]);
        // The Mattson counter-trace that distinguishes standalone levels
        // from a filtered chain: one replay must match the standalone read.
        check_all_capacities(&[0, 1, 2, 1, 3, 4, 1]);
    }

    #[test]
    fn backends_agree() {
        let trace: Vec<u64> = (0..500u64).map(|i| (i * i * 7 + i) % 97).collect();
        let hashed = StackDistance::profile_of(trace.iter().copied());
        let direct = StackDistance::profile_of_bounded(trace.iter().copied(), 97);
        assert_eq!(hashed, direct);
    }

    #[test]
    fn compulsory_and_distinct_counts() {
        let mut engine = StackDistance::new();
        engine.observe_trace([5, 6, 5, 7, 6, 5]);
        assert_eq!(engine.distinct(), 3);
        assert_eq!(engine.accesses(), 6);
        let p = engine.into_profile();
        assert_eq!(p.compulsory_misses(), 3);
        assert_eq!(p.distinct_addresses(), 3);
        // Beyond the largest reuse distance, only compulsory misses remain.
        assert_eq!(p.misses_at(1 << 40), 3);
        assert_eq!(p.io_at(2), replay_misses(&[5, 6, 5, 7, 6, 5], 2));
    }

    #[test]
    fn one_touch_is_the_replayed_single_pass() {
        for n in [0u64, 1, 7, 300] {
            let closed = CapacityProfile::one_touch(n);
            let replayed = StackDistance::profile_of(0..n);
            assert_eq!(closed, replayed, "n = {n}");
        }
    }

    #[test]
    fn zero_capacity_misses_every_access() {
        let p = StackDistance::profile_of([1, 2, 1, 2]);
        assert_eq!(p.misses_at(0), 4);
        assert_eq!(p.hits_at(0), 0);
    }

    #[test]
    fn empty_trace_profile_is_all_zero() {
        let p = StackDistance::profile_of(std::iter::empty());
        assert_eq!(p.accesses(), 0);
        assert_eq!(p.compulsory_misses(), 0);
        assert_eq!(p.saturating_capacity(), 0);
        for m in [0u64, 1, 7, u64::MAX] {
            assert_eq!(p.hits_at(m), 0, "hits at {m}");
            assert_eq!(p.misses_at(m), 0, "misses at {m}");
        }
    }

    #[test]
    fn queries_past_saturation_and_at_u64_max_are_stable() {
        let trace = [1u64, 2, 3, 1, 2, 3, 1];
        let p = StackDistance::profile_of(trace.iter().copied());
        let sat = p.saturating_capacity();
        assert_eq!(sat, 3);
        // Every capacity ≥ saturation leaves exactly the compulsory floor,
        // including capacities that overflow usize-sized indexing.
        for m in [sat, sat + 1, 1 << 40, u64::MAX] {
            assert_eq!(p.misses_at(m), p.compulsory_misses(), "capacity {m}");
            assert_eq!(p.hits_at(m), p.accesses() - p.compulsory_misses());
        }
    }

    #[test]
    fn saturating_capacity_is_the_largest_reuse_distance() {
        // 1,2,3,1: the re-touch of 1 has distance 3.
        let p = StackDistance::profile_of([1, 2, 3, 1]);
        assert_eq!(p.saturating_capacity(), 3);
        assert_eq!(p.misses_at(3), p.compulsory_misses());
        assert_eq!(p.misses_at(2), p.compulsory_misses() + 1);
        // No reuse at all: saturation at 0.
        assert_eq!(StackDistance::profile_of([1, 2, 3]).saturating_capacity(), 0);
    }

    #[test]
    fn compaction_preserves_exactness() {
        // A tiny slot space forces many compactions: 16 distinct addresses
        // cycled 100 times through the minimum 16-slot engine.
        let trace: Vec<u64> = (0..1600u64).map(|i| (i * 5) % 16).collect();
        let mut engine = StackDistance::renamed(16);
        engine.observe_trace(trace.iter().copied());
        let p = engine.into_profile();
        for m in 1..=17u64 {
            assert_eq!(p.misses_at(m), replay_misses(&trace, m), "capacity {m}");
        }
    }

    #[test]
    fn clock_crossing_u32_boundary_keeps_distances_exact() {
        // The index holds `u32` physical slots while the clock is a `u64`
        // that a 10⁹-address trace drives past `u32::MAX`. An entry must
        // be the slot `t − origin`, never the timestamp `t` narrowed to
        // 32 bits (`2³² + k` stored as `k` would name the wrong slot).
        // Starting the clock just below the boundary makes any such
        // truncation observable with a tiny trace.
        let start = u64::from(u32::MAX) - 8;
        let mut engine = StackDistance::with_clock_start(start);
        let trace: Vec<u64> = (0..400u64).map(|i| (i * 7) % 40).collect();
        engine.observe_trace(trace.iter().copied());
        assert!(engine.clock > u64::from(u32::MAX), "clock must cross 2^32");
        // Every touch so far took a timestamp above u32::MAX; distances
        // must still match a plain LRU replay at every capacity.
        let p = engine.into_profile();
        for m in 1..=42u64 {
            assert_eq!(p.misses_at(m), replay_misses(&trace, m), "capacity {m}");
        }
    }

    #[test]
    fn extreme_address_values_survive_compaction() {
        // u64::MAX is an ordinary address (no sentinel value exists):
        // interleave it with enough distinct addresses to force several
        // compactions on the minimum slot space and check exactness.
        let mut trace = Vec::new();
        for round in 0..40u64 {
            trace.push(u64::MAX);
            trace.push(u64::MAX - 1);
            for k in 0..10u64 {
                trace.push(round * 10 + k);
            }
        }
        let mut engine = StackDistance::renamed(16);
        engine.observe_trace(trace.iter().copied());
        let p = engine.into_profile();
        assert_eq!(p.compulsory_misses(), 402); // 400 round keys + the two MAXes
        for m in [1u64, 2, 3, 12, 13, 200, 500] {
            assert_eq!(p.misses_at(m), replay_misses(&trace, m), "capacity {m}");
        }
    }

    #[test]
    fn hash_backend_grows_its_slot_space() {
        // More distinct addresses than the initial slot space: compaction
        // must double rather than squeeze.
        let trace: Vec<u64> = (0..200u64).chain(0..200).collect();
        let mut engine = StackDistance::renamed(16);
        engine.observe_trace(trace.iter().copied());
        let p = engine.into_profile();
        assert_eq!(p.compulsory_misses(), 200);
        for m in [1u64, 50, 199, 200, 201] {
            assert_eq!(p.misses_at(m), replay_misses(&trace, m), "capacity {m}");
        }
    }

    #[test]
    fn multi_level_read_matches_hierarchy_replay() {
        let trace: Vec<u64> = (0..600u64).map(|i| (i * 11 + i * i) % 64).collect();
        let caps = [Words::new(4), Words::new(16), Words::new(48)];
        let profile = StackDistance::profile_of_bounded(trace.iter().copied(), 64);
        let mut ladder = Hierarchy::new(&caps);
        for &a in &trace {
            ladder.access(a);
        }
        assert_eq!(profile.traffic_at(&caps), ladder.traffic());
        assert!(profile.traffic_at(&caps).is_monotone_non_increasing());
    }

    #[test]
    fn traffic_for_reads_spec_capacities() {
        use balance_core::{LevelSpec, WordsPerSec};
        let spec = HierarchySpec::new(vec![
            LevelSpec::new(Words::new(2), WordsPerSec::new(1.0)).unwrap(),
            LevelSpec::new(Words::new(8), WordsPerSec::new(1.0)).unwrap(),
        ])
        .unwrap();
        let p = StackDistance::profile_of([0u64, 1, 2, 0, 1, 2]);
        let t = p.traffic_for(&spec);
        assert_eq!(t.as_slice(), &[6, 3]);
    }

    /// Cuts the trace at `cut`, snapshots/restores, replays the rest on
    /// the restored engine, and demands the profile be bit-identical to
    /// the uninterrupted run.
    fn check_snapshot_cut(trace: &[u64], cut: usize, addr_bound: Option<u64>) {
        let mut engine = match addr_bound {
            Some(b) => StackDistance::with_address_bound(b),
            None => StackDistance::new(),
        };
        engine.observe_trace(trace[..cut].iter().copied());
        let image = engine.snapshot();
        let mut restored = StackDistance::restore(&image)
            .unwrap_or_else(|e| panic!("restore at cut {cut}: {e}"));
        assert_eq!(restored.accesses(), cut as u64);
        restored.observe_trace(trace[cut..].iter().copied());
        let uninterrupted = match addr_bound {
            Some(b) => StackDistance::profile_of_bounded(trace.iter().copied(), b),
            None => StackDistance::profile_of(trace.iter().copied()),
        };
        assert_eq!(
            restored.into_profile(),
            uninterrupted,
            "cut {cut} bound {addr_bound:?}"
        );
    }

    #[test]
    fn snapshot_restore_is_bit_identical_at_every_cut() {
        let trace: Vec<u64> = (0..200u64).map(|i| (i * 13 + i * i) % 37).collect();
        for cut in [0, 1, 2, 50, 100, 199, 200] {
            check_snapshot_cut(&trace, cut, None);
            check_snapshot_cut(&trace, cut, Some(37));
        }
    }

    #[test]
    fn snapshot_restore_survives_compaction_pressure() {
        // The minimum 16-slot engine compacts every few accesses; cut at
        // every position so some cuts land exactly on a compaction edge.
        let trace: Vec<u64> = (0..400u64).map(|i| (i * 5) % 16).collect();
        for cut in 0..=trace.len() {
            let mut engine = StackDistance::renamed(16);
            engine.observe_trace(trace[..cut].iter().copied());
            let mut restored = StackDistance::restore(&engine.snapshot()).unwrap();
            restored.observe_trace(trace[cut..].iter().copied());
            let p = restored.into_profile();
            for m in [1u64, 4, 15, 16, 17] {
                assert_eq!(p.misses_at(m), replay_misses(&trace, m), "cut {cut} m {m}");
            }
        }
    }

    /// One step of a 64-bit LCG (Knuth's MMIX constants): the seeded
    /// stream the open-leaf tests draw from.
    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *x
    }

    /// One pass over `0..distinct` (so every address is live by the first
    /// compaction), then a seeded mix of cyclic sweeps (reuse distance
    /// `distinct`) and uniform picks (every distance up to it).
    fn sweep_then_mix(distinct: u64, len: usize, seed: u64) -> Vec<u64> {
        let mut x = seed;
        let mut trace: Vec<u64> = (0..distinct).collect();
        trace.extend((0..len as u64).map(|i| {
            let r = lcg(&mut x);
            if r >> 63 == 0 {
                i % distinct
            } else {
                (r >> 33) % distinct
            }
        }));
        trace
    }

    /// Replays `trace` through `engine` and checks the profile against an
    /// `LruCache` replay at every capacity up to one past the distinct
    /// count.
    fn check_engine_against_replay(mut engine: StackDistance, trace: &[u64], what: &str) {
        engine.observe_trace(trace.iter().copied());
        let p = engine.into_profile();
        for m in 1..=p.distinct_addresses() + 1 {
            assert_eq!(
                p.misses_at(m),
                replay_misses(trace, m),
                "{what}: capacity {m}"
            );
        }
    }

    /// Both engines over the same slot space: direct-indexed with bound
    /// `distinct` (slot space `2 · distinct`, rounded up to whole leaves)
    /// and renaming with that slot space.
    fn both_backends(distinct: u64) -> [(StackDistance, &'static str); 2] {
        [
            (StackDistance::with_address_bound(distinct), "direct"),
            (StackDistance::renamed(2 * distinct as usize), "hashed"),
        ]
    }

    #[test]
    fn marker_tree_matches_a_naive_model() {
        // From each packed start (as compaction and restore leave it),
        // slots are added in increasing order with seeded removals of
        // live slots; after every step each live slot's `count_after`
        // must equal a brute-force count, across leaf closes and reuses
        // from the open leaf, the leaf just below it, and deeper leaves.
        for packed in [0usize, 1, 63, 64, 65, 128, 200] {
            let mut tree = MarkerTree::new(16);
            tree.reset_packed(640, packed);
            let mut model = vec![false; tree.slots()];
            model[..packed].fill(true);
            let mut x = 7 + packed as u64;
            let mut next = packed;
            while next < model.len() {
                let r = lcg(&mut x);
                let live: Vec<usize> = (0..next).filter(|&s| model[s]).collect();
                if r >> 62 != 0 || live.is_empty() {
                    tree.add(next);
                    model[next] = true;
                    next += 1;
                } else {
                    let s = live[(r >> 33) as usize % live.len()];
                    tree.remove(s);
                    model[s] = false;
                }
                for (after, s) in (0..next).rev().filter(|&s| model[s]).enumerate() {
                    assert_eq!(
                        tree.count_after(s),
                        after as u64,
                        "slot {s}, {next} pushed from {packed}"
                    );
                }
                assert!(tree.live_slots().eq((0..next).filter(|&s| model[s])));
                tree.debug_check();
            }
        }
    }

    #[test]
    fn compaction_to_whole_leaves_closes_each_leaf_once() {
        // 128 distinct addresses in a 256-slot space: every compaction
        // leaves `live` = 128 ≡ 0 (mod 64), two full closed leaves and an
        // empty open one. A full leaf counted both in the packed tree and
        // again when the next push closes a leaf would skew every
        // distance that crosses it.
        for (engine, backend) in both_backends(128) {
            assert_eq!(engine.markers.slots(), 256);
            check_engine_against_replay(engine, &sweep_then_mix(128, 1500, 1), backend);
        }
        // Same at a single whole leaf (64 live in 128 slots).
        for (engine, backend) in both_backends(64) {
            check_engine_against_replay(engine, &sweep_then_mix(64, 1000, 2), backend);
        }
    }

    #[test]
    fn compaction_to_a_partial_leaf_keeps_it_open() {
        // 100 distinct addresses in a 256-slot space: `live` = 100 ≢ 0
        // (mod 64), so compaction leaves leaf 0 closed and leaf 1 open
        // with 36 markers.
        for (engine, backend) in both_backends(100) {
            assert_eq!(engine.markers.slots(), 256);
            check_engine_against_replay(engine, &sweep_then_mix(100, 1500, 3), backend);
        }
    }

    #[test]
    fn reuse_from_the_leaf_below_the_open_one_is_exact() {
        // A cyclic sweep with period 65..=127 reuses a marker 65..127
        // slots back: in the leaf just below the open one (or the one
        // below that), never in the open leaf itself.
        for period in [65u64, 80, 127] {
            let trace: Vec<u64> = (0..20 * period).map(|i| i % period).collect();
            for (engine, backend) in both_backends(period) {
                check_engine_against_replay(engine, &trace, backend);
            }
        }
    }

    #[test]
    fn hashed_slot_doubling_in_the_middle_of_a_leaf_is_exact() {
        // A 64-slot hashed engine: the first compaction doubles with 64
        // live (a whole leaf), the next with 100 live (mid-leaf), and the
        // 300-address phase doubles again from a partial leaf.
        let mut trace = sweep_then_mix(100, 400, 4);
        trace.extend(sweep_then_mix(300, 1200, 5));
        let engine = StackDistance::renamed(64);
        assert_eq!(engine.markers.slots(), 64);
        let mut grown = engine.clone();
        grown.observe_trace(trace.iter().copied());
        assert!(
            grown.markers.slots() >= 512,
            "slot space must double past 300 live"
        );
        check_engine_against_replay(engine, &trace, "hashed");
    }

    #[test]
    fn snapshot_restore_cut_in_the_middle_of_a_leaf_is_exact() {
        // Restore lays the live markers out in slots 0..live; cuts where
        // `live` is 70, 100 and 150 leave the open leaf partly full. Each
        // restored run must equal the uninterrupted one, which in turn
        // must equal an LRU replay at every capacity.
        let trace = sweep_then_mix(150, 900, 6);
        for cut in [70, 100, 150, 151, 500, 777] {
            check_snapshot_cut(&trace, cut, None);
            check_snapshot_cut(&trace, cut, Some(150));
        }
        for (engine, backend) in both_backends(150) {
            check_engine_against_replay(engine, &trace, backend);
        }
    }

    #[test]
    fn snapshot_preserves_first_touch_recording() {
        let trace = [4u64, 2, 4, 9, 2, 7];
        let mut engine = StackDistance::new();
        engine.record_first_touches();
        engine.observe_trace(trace[..3].iter().copied());
        let mut restored = StackDistance::restore(&engine.snapshot()).unwrap();
        restored.observe_trace(trace[3..].iter().copied());
        assert_eq!(restored.take_first_touches(), vec![4, 2, 9, 7]);
    }

    #[test]
    fn restore_rejects_any_single_byte_flip() {
        let mut engine = StackDistance::with_address_bound(16);
        engine.observe_trace([3u64, 1, 4, 1, 5, 9, 2, 6]);
        let image = engine.snapshot();
        assert!(StackDistance::restore(&image).is_ok());
        for i in 0..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x10;
            assert!(
                StackDistance::restore(&bad).is_err(),
                "flip at byte {i} must be rejected"
            );
        }
        for cut in 0..image.len() {
            assert!(
                StackDistance::restore(&image[..cut]).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn restore_rejects_structural_corruption_with_valid_checksum() {
        use crate::checkpoint::{fnv1a, CheckpointError};
        // A recency stack with a duplicated address: recompute the
        // checksum so only the structural validation can catch it.
        let mut engine = StackDistance::new();
        engine.observe_trace([1u64, 2, 3]);
        let image = engine.snapshot();
        let payload_len = image.len() - 8;
        let mut bad = image[..payload_len].to_vec();
        // The three stack addresses are the last 3 u64s before hist
        // (hist is empty: no reuse): duplicate the first onto the second.
        let stack_start = bad.len() - 3 * 8;
        let (first, rest) = bad[stack_start..].split_at_mut(8);
        rest[..8].copy_from_slice(first);
        let sum = fnv1a(&bad).to_le_bytes();
        bad.extend_from_slice(&sum);
        assert!(matches!(
            StackDistance::restore(&bad),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn restore_rejects_wrong_magic_and_version() {
        use crate::checkpoint::{fnv1a, CheckpointError};
        let image = StackDistance::new().snapshot();
        let payload_len = image.len() - 8;

        let mut wrong_magic = image[..payload_len].to_vec();
        wrong_magic[0] = b'X';
        let sum = fnv1a(&wrong_magic).to_le_bytes();
        wrong_magic.extend_from_slice(&sum);
        assert!(matches!(
            StackDistance::restore(&wrong_magic),
            Err(CheckpointError::BadMagic { .. })
        ));

        let mut wrong_version = image[..payload_len].to_vec();
        wrong_version[4] = 0xEE;
        let sum = fnv1a(&wrong_version).to_le_bytes();
        wrong_version.extend_from_slice(&sum);
        assert!(matches!(
            StackDistance::restore(&wrong_version),
            Err(CheckpointError::UnsupportedVersion { .. })
        ));
    }

    /// A deterministic mixed read/write trace over `addr_space` word
    /// addresses, one write every `write_every` accesses.
    fn tagged_trace(n: u64, addr_space: u64, write_every: u64) -> Vec<balance_core::Access> {
        (0..n)
            .map(|i| {
                let addr = (i * 7 + (i * i) % 13) % addr_space;
                if i % write_every == 0 {
                    balance_core::Access::write(addr)
                } else {
                    balance_core::Access::read(addr)
                }
            })
            .collect()
    }

    /// Both tagged backends against a dirty-bit LRU replay at **every**
    /// capacity — the exactness contract of the write-back ledger.
    fn check_tagged_against_replay(
        accesses: &[balance_core::Access],
        line_words: u64,
        addr_bound: u64,
    ) {
        let hashed =
            StackDistance::traffic_profile_of(accesses.iter().copied(), line_words);
        let direct = StackDistance::traffic_profile_of_bounded(
            accesses.iter().copied(),
            line_words,
            addr_bound,
        );
        assert_eq!(hashed, direct, "tagged backends disagree");
        let max_lines = addr_bound.div_ceil(line_words) + 2;
        for m_lines in 1..=max_lines {
            let mut cache = LruCache::new(
                usize::try_from(m_lines).expect("line count fits usize"),
                line_words,
            );
            let (misses, wbs) = cache.run_tagged_trace(accesses.iter().copied());
            let m = m_lines * line_words;
            assert_eq!(
                hashed.read_misses_at(m),
                misses,
                "read misses at {m_lines} lines of {line_words} words"
            );
            assert_eq!(
                hashed.writebacks_at(m),
                wbs,
                "write-backs at {m_lines} lines of {line_words} words"
            );
        }
    }

    #[test]
    fn tagged_ledger_matches_dirty_lru_replay_at_every_capacity() {
        for line_words in [1u64, 2, 4, 8] {
            for write_every in [1u64, 2, 3, 7] {
                let trace = tagged_trace(600, 64, write_every);
                check_tagged_against_replay(&trace, line_words, 64);
            }
        }
        // All-write and single-access edge shapes.
        check_tagged_against_replay(&[balance_core::Access::write(5)], 4, 16);
        check_tagged_against_replay(&tagged_trace(100, 16, 1), 4, 16);
    }

    #[test]
    fn all_read_tagged_replay_is_the_untagged_profile() {
        let addrs: Vec<u64> = (0..500u64).map(|i| (i * 11 + i / 3) % 80).collect();
        let tp = StackDistance::traffic_profile_of(
            addrs.iter().map(|&a| balance_core::Access::read(a)),
            1,
        );
        let plain = StackDistance::profile_of(addrs.iter().copied());
        assert_eq!(*tp.profile(), plain, "read side must be bit-identical");
        assert_eq!(tp.written_lines(), 0);
        for m in 0..=90u64 {
            assert_eq!(tp.writebacks_at(m), 0, "no writes, no write-backs");
            assert_eq!(tp.read_misses_at(m), plain.misses_at(m));
        }
    }

    #[test]
    fn writebacks_are_monotone_non_increasing_with_flush_floor() {
        let trace = tagged_trace(1000, 100, 3);
        let tp = StackDistance::traffic_profile_of(trace.iter().copied(), 2);
        let mut prev = u64::MAX;
        for m in 0..=240u64 {
            let wb = tp.writebacks_at(m);
            assert!(wb <= prev, "write-backs grew from {prev} to {wb} at {m}");
            assert!(wb >= tp.written_lines(), "below the flush floor at {m}");
            prev = wb;
        }
        // Far beyond saturation only the end-of-run flush remains: one
        // write-back per distinct written line.
        assert_eq!(tp.writebacks_at(1 << 40), tp.written_lines());
        assert!(tp.written_lines() > 0, "the trace writes");
    }

    #[test]
    fn traffic_at_prices_both_streams_in_words() {
        let trace = tagged_trace(400, 32, 2);
        let lw = 4u64;
        let tp = StackDistance::traffic_profile_of(trace.iter().copied(), lw);
        let caps = [Words::new(8), Words::new(16), Words::new(64)];
        let t = tp.traffic_at(&caps);
        for (i, m) in caps.iter().enumerate() {
            assert_eq!(t.read_at(i), Some(tp.read_misses_at(m.get()) * lw));
            assert_eq!(t.writeback_at(i), Some(tp.writebacks_at(m.get()) * lw));
        }
        assert!(t.has_writebacks());
    }

    #[test]
    fn tagged_snapshot_roundtrips_on_both_backends() {
        let trace = tagged_trace(300, 40, 3);
        for cut in [0usize, 1, 7, 150, 299, 300] {
            for bounded in [false, true] {
                let mut engine = if bounded {
                    StackDistance::with_address_bound(40)
                } else {
                    StackDistance::new()
                };
                engine.observe_tagged_trace(trace[..cut].iter().copied(), 1);
                let mut restored = StackDistance::restore(&engine.snapshot()).unwrap();
                restored.observe_tagged_trace(trace[cut..].iter().copied(), 1);
                let resumed = restored.into_traffic_profile(1);
                let mut whole = if bounded {
                    StackDistance::with_address_bound(40)
                } else {
                    StackDistance::new()
                };
                whole.observe_tagged_trace(trace.iter().copied(), 1);
                assert_eq!(
                    resumed,
                    whole.into_traffic_profile(1),
                    "cut {cut} bounded {bounded}"
                );
            }
        }
    }

    #[test]
    fn tagged_snapshot_rejects_any_single_byte_flip() {
        let mut engine = StackDistance::with_address_bound(16);
        engine.observe_tagged_trace(tagged_trace(50, 16, 2), 1);
        let image = engine.snapshot();
        assert!(StackDistance::restore(&image).is_ok());
        for i in 0..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x10;
            assert!(
                StackDistance::restore(&bad).is_err(),
                "flip at byte {i} must be rejected"
            );
        }
    }

    #[test]
    fn restore_rejects_v1_images() {
        use crate::checkpoint::{fnv1a, CheckpointError};
        // A KBSD v1 image differs only in its version field for untagged
        // engines — the restore path must refuse it cleanly, not
        // misinterpret it.
        let mut engine = StackDistance::new();
        engine.observe_trace([1u64, 2, 3, 1]);
        let image = engine.snapshot();
        let payload_len = image.len() - 8;
        let mut v1 = image[..payload_len].to_vec();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        let sum = fnv1a(&v1).to_le_bytes();
        v1.extend_from_slice(&sum);
        assert!(matches!(
            StackDistance::restore(&v1),
            Err(CheckpointError::UnsupportedVersion { found: 1 })
        ));
    }

    #[test]
    fn restore_rejects_dirty_payload_corruption() {
        use crate::checkpoint::{fnv1a, CheckpointError};
        // Swap the two open-chain pairs out of order and re-checksum: only
        // the structural validation can catch it.
        let mut engine = StackDistance::new();
        engine.observe_tagged(3, true);
        engine.observe_tagged(9, true);
        let image = engine.snapshot();
        let payload_len = image.len() - 8;
        let mut bad = image[..payload_len].to_vec();
        // Tail layout: .. wb_hist_len(=0) pairs(=2) (3,0) (9,0).
        let pair_bytes = bad.len() - 4 * 8;
        let (a, b) = bad[pair_bytes..].split_at_mut(16);
        a.swap_with_slice(&mut b[..16]);
        let sum = fnv1a(&bad).to_le_bytes();
        bad.extend_from_slice(&sum);
        assert!(matches!(
            StackDistance::restore(&bad),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn restore_rejects_open_chain_gaps_the_ledger_cannot_hold() {
        use crate::checkpoint::{fnv1a, CheckpointError};
        // Open chains on lines 3 and 9, the second reused at gap 2; forge
        // that gap to values a `u32` ledger entry cannot hold (the closed
        // sentinel, and past it) and re-checksum. Either would be
        // truncated or read back as "no open chain".
        let mut engine = StackDistance::with_address_bound(16);
        engine.observe_tagged(3, true);
        engine.observe_tagged(9, true);
        engine.observe_tagged(3, false);
        engine.observe_tagged(9, false);
        let image = engine.snapshot();
        assert!(StackDistance::restore(&image).is_ok());
        let payload_len = image.len() - 8;
        for gap in [u64::from(u32::MAX), 1 << 32, u64::MAX] {
            let mut bad = image[..payload_len].to_vec();
            // Tail layout: .. pairs(=2) (3,2) (9,2); the last pair's gap.
            let gap_at = bad.len() - 8;
            assert_eq!(bad[gap_at..], 2u64.to_le_bytes(), "test premise: layout");
            bad[gap_at..].copy_from_slice(&gap.to_le_bytes());
            let sum = fnv1a(&bad).to_le_bytes();
            bad.extend_from_slice(&sum);
            assert!(
                matches!(
                    StackDistance::restore(&bad),
                    Err(CheckpointError::Corrupt { .. })
                ),
                "gap {gap} accepted"
            );
        }
    }

    #[test]
    fn restore_rejects_a_bound_beyond_the_id_space() {
        use crate::checkpoint::{fnv1a, CheckpointError};
        // Header: magic(4) version(2) tag(1) flags(1) bound(8). A bound of
        // 2³¹ must be a typed error, not the constructor's panic.
        let mut engine = StackDistance::with_address_bound(16);
        engine.observe_trace([1, 2, 1]);
        let image = engine.snapshot();
        let mut bad = image[..image.len() - 8].to_vec();
        bad[8..16].copy_from_slice(&(1u64 << 31).to_le_bytes());
        let sum = fnv1a(&bad).to_le_bytes();
        bad.extend_from_slice(&sum);
        assert!(matches!(
            StackDistance::restore(&bad),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn restore_rejects_dirty_chains_on_untouched_lines() {
        use crate::checkpoint::{fnv1a, CheckpointError};
        // Open chains on lines 3 and 9; move the second onto line 12,
        // which the trace never touched — still ordered, still under the
        // bound — and re-checksum. An accepted image would report a
        // phantom write-back of line 12 at every capacity.
        for (mut engine, what) in [
            (StackDistance::new(), "renamed"),
            (StackDistance::with_address_bound(16), "bounded"),
        ] {
            engine.observe_tagged(3, true);
            engine.observe_tagged(9, true);
            let image = engine.snapshot();
            assert!(StackDistance::restore(&image).is_ok());
            let payload_len = image.len() - 8;
            let mut bad = image[..payload_len].to_vec();
            // Tail layout: .. pairs(=2) (3,0) (9,0); the last pair's line.
            let line_at = bad.len() - 2 * 8;
            bad[line_at..line_at + 8].copy_from_slice(&12u64.to_le_bytes());
            let sum = fnv1a(&bad).to_le_bytes();
            bad.extend_from_slice(&sum);
            assert!(
                matches!(
                    StackDistance::restore(&bad),
                    Err(CheckpointError::Corrupt { .. })
                ),
                "{what} engine accepted a chain on an untouched line"
            );
        }
    }

    /// A trace on which a capped engine (depth 3, one 64-slot leaf)
    /// evicts `x`, compacts at the 64-slot boundary, and hands `x`'s old
    /// physical slot 0 to another live id; `x` then comes back, twice.
    /// The 65th access reuses a live id, so the compaction it triggers
    /// evicts no one and slot 0 is still live when `x` returns. Returns
    /// the trace and the length of the prefix before `x` returns.
    fn evict_then_reuse_old_slot(x: u64) -> (Vec<u64>, usize) {
        let mut trace = vec![x];
        trace.extend((1..64u64).map(|k| x + k));
        trace.push(x + 63);
        let prefix = trace.len();
        trace.extend([x, x + 61, x, x + 62, x + 1, x]);
        (trace, prefix)
    }

    /// The premise of the slot-reuse tests: after the prefix, `x_id`
    /// reads `EVICTED`, and its old slot 0 is another id's live marker.
    fn assert_old_slot_taken(engine: &StackDistance, x_id: usize, what: &str) {
        assert_eq!(engine.index[x_id], EVICTED, "{what}: x must be evicted");
        let holder = engine.slot_addr[0] as usize;
        assert_ne!(holder, x_id, "{what}: slot 0 must change hands");
        assert_eq!(engine.index[holder], 0, "{what}: slot 0 must be live");
    }

    #[test]
    fn evicted_id_returning_after_its_slot_is_reused_is_exact() {
        const DEPTH: u64 = 3;
        let x = 5;
        let (trace, prefix) = evict_then_reuse_old_slot(x);
        let bound = trace.iter().max().map_or(1, |&a| a + 1);
        let runs = [
            (StackDistance::new(), 0, "renamed"),
            (
                StackDistance::with_address_bound(bound),
                x as usize,
                "bounded",
            ),
        ];
        for (engine, x_id, what) in runs {
            let mut untagged = engine.clone().with_depth(DEPTH);
            untagged.observe_trace(trace[..prefix].iter().copied());
            assert_old_slot_taken(&untagged, x_id, what);
            untagged.observe_trace(trace[prefix..].iter().copied());
            let profile = untagged.into_profile();
            for m in 1..=DEPTH {
                assert_eq!(
                    profile.misses_at(m),
                    replay_misses(&trace, m),
                    "{what} m {m}"
                );
            }

            // Tagged: `x` is written before its eviction, so it is
            // evicted dirty, and every third access writes.
            let accesses: Vec<balance_core::Access> = trace
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    if i % 3 == 0 {
                        balance_core::Access::write(a)
                    } else {
                        balance_core::Access::read(a)
                    }
                })
                .collect();
            let mut tagged = engine.with_depth(DEPTH);
            tagged.observe_tagged_trace(accesses[..prefix].iter().copied(), 1);
            assert_old_slot_taken(&tagged, x_id, what);
            tagged.observe_tagged_trace(accesses[prefix..].iter().copied(), 1);
            let traffic = tagged.into_traffic_profile(1);
            for m in 1..=DEPTH {
                let mut cache = LruCache::new(m as usize, 1);
                let (misses, wbs) = cache.run_tagged_trace(accesses.iter().copied());
                assert_eq!(traffic.read_misses_at(m), misses, "{what} tagged m {m}");
                assert_eq!(traffic.writebacks_at(m), wbs, "{what} tagged m {m}");
            }
        }
    }

    /// The check precedes the 8 GiB index it refuses: an allocation
    /// failure would abort the process instead of panicking.
    #[test]
    #[should_panic(expected = "exceeds the engine's")]
    fn address_bound_at_two_to_the_31_is_refused() {
        let _ = StackDistance::with_address_bound(1 << 31);
    }

    #[test]
    #[should_panic(expected = "keys at most")]
    fn renamer_refuses_the_id_past_the_id_space() {
        assert_eq!(fresh_id(MAX_IDS - 1), MAX_IDS - 1);
        let _ = fresh_id(MAX_IDS);
    }

    #[test]
    #[should_panic(expected = "address bound")]
    fn direct_backend_rejects_out_of_bound_addresses() {
        let mut engine = StackDistance::with_address_bound(8);
        engine.observe(8);
    }

    #[test]
    fn tagged_entry_points_refuse_non_power_of_two_lines() {
        // Line ids are a shift, so every tagged word-address entry point
        // insists on a power-of-two line size (zero included) up front.
        let trace = || (0..16u64).map(balance_core::Access::write);
        for lw in [0u64, 3, 6, 12] {
            let runs: [Box<dyn Fn()>; 3] = [
                Box::new(move || StackDistance::new().observe_tagged_trace(trace(), lw)),
                Box::new(move || drop(StackDistance::traffic_profile_of(trace(), lw))),
                Box::new(move || drop(StackDistance::traffic_profile_of_bounded(trace(), lw, 16))),
            ];
            for run in runs {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                    .expect_err("non-power-of-two line size must panic");
                let msg = err
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default();
                assert!(msg.contains("positive power of two"), "line {lw}: {msg}");
            }
        }
        // Powers of two map by shift: word 13 sits on line 3 of 4 words.
        let tp = StackDistance::traffic_profile_of_bounded(
            [balance_core::Access::read(13), balance_core::Access::read(12)],
            4,
            16,
        );
        assert_eq!(tp.profile().compulsory_misses(), 1, "one line, touched twice");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_address_bound_panics() {
        let _ = StackDistance::with_address_bound(0);
    }

    #[test]
    fn analytic_builder_matches_engine_structurally() {
        // Trace: 1 2 3 1 1 2 — distances: 3 (first 1-reuse), 1, 3.
        let trace = [1u64, 2, 3, 1, 1, 2];
        let engine = StackDistance::profile_of(trace.iter().copied());
        let mut a = AnalyticProfile::new();
        a.record_compulsory(3);
        a.record_class(3, 1); // classes out of order and split on purpose
        a.record_class(1, 1);
        a.record_class(3, 1); // duplicate distance: merged at finalization
        a.record_class(5, 0); // zero count: dropped
        assert_eq!(a.accesses(), 6);
        assert_eq!(a.compulsory(), 3);
        let built = a.into_profile();
        assert_eq!(built, engine);
        assert!(built.is_exact());
    }

    #[test]
    fn analytic_one_touch_matches_streamed_one_touch() {
        let built = AnalyticProfile::one_touch(5).into_profile();
        assert_eq!(built, CapacityProfile::one_touch(5));
        assert_eq!(built, StackDistance::profile_of([10u64, 11, 12, 13, 14]));
    }

    #[test]
    fn analytic_empty_profile_is_the_empty_trace() {
        let built = AnalyticProfile::new().into_profile();
        assert_eq!(built, StackDistance::profile_of([]));
        assert_eq!(built.misses_at(0), 0);
        assert_eq!(built.misses_at(u64::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "stack distance")]
    fn analytic_zero_distance_class_panics() {
        AnalyticProfile::new().record_class(0, 3);
    }

    #[test]
    fn profile_queries_pin_zero_and_past_saturation_capacities() {
        // misses_at(0) is every access; past saturation only compulsory
        // misses remain. Holds for streamed and analytic construction.
        let trace = [1u64, 2, 1, 3, 2, 1];
        for profile in [StackDistance::profile_of(trace.iter().copied()), {
            let mut a = AnalyticProfile::new();
            a.record_compulsory(3);
            a.record_class(2, 1);
            a.record_class(3, 2);
            a.into_profile()
        }] {
            assert_eq!(profile.misses_at(0), 6);
            assert_eq!(profile.hits_at(0), 0);
            assert_eq!(profile.saturating_capacity(), 3);
            assert_eq!(profile.misses_at(3), 3);
            assert_eq!(profile.misses_at(u64::MAX), 3);
        }
    }

    #[test]
    fn reuse_classes_round_trip_the_profile() {
        let trace = [1u64, 2, 1, 3, 2, 1, 2, 2, 3];
        let profile = StackDistance::profile_of(trace.iter().copied());
        let mut rebuilt = AnalyticProfile::new();
        rebuilt.record_compulsory(profile.compulsory_misses());
        for (d, c) in profile.reuse_classes() {
            rebuilt.record_class(d, c);
        }
        assert_eq!(rebuilt.into_profile(), profile);
    }
}
