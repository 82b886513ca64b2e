//! Canonical tagged access traces: the natural (unblocked) access sequence
//! of each computation, generated chunk by chunk as read/write-tagged
//! accesses.
//!
//! Cache-model sweeps ([`crate::sweep::Measure::CacheModel`]) measure
//! the *cache-model* intensity curve of a computation: its canonical trace
//! replayed through an automatically managed LRU memory of capacity `M`,
//! for every `M` at once. That needs each kernel to name its trace — the
//! access order the textbook (naive) algorithm performs, with a dense
//! address map, an exact length, and the operation count of the traced
//! computation. [`AccessTrace`] packages exactly that, and
//! [`Kernel::access_trace`](crate::Kernel::access_trace) returns it.
//!
//! Every access carries its direction ([`balance_core::Access`]): a store
//! into a result location is a [`AccessKind::Write`](balance_core::AccessKind),
//! everything else a read, with read-modify-write updates (accumulations,
//! in-place eliminations) tagged as writes. The tags feed the
//! device-realistic engines' dirty-write-back ledger
//! ([`balance_machine::TrafficProfile`]); the word-granular all-read
//! sweeps simply drop them via [`AccessTrace::into_addrs`].
//!
//! # The generator contract
//!
//! Every trace is a resumable generator, a [`TraceGen`]: a cursor into the
//! kernel's loop nest. Its one required method, [`TraceGen::fill`], writes
//! the next accesses into a prefix of the caller's buffer and returns how
//! many it wrote — `0` only at the end of the trace. Any buffer length
//! works, down to a single access: a loop-nest unit (a butterfly's 8
//! words, an elimination update's 3) that straddles the buffer's end is
//! staged and finished by the next call, so the concatenated stream never
//! depends on how the caller chunks it. [`TraceGen::skip`] advances the
//! cursor without writing. Generators that decode a position in closed
//! form — matmul's [`NaiveTrace`], fft's `(stage, butterfly)` pair, the
//! fixed-width row nests, trisolve's triangular rows — skip in O(1), so
//! the segmented engine's range slicing and checkpoint resume stay cheap;
//! triangularization skips by filling a scratch buffer.
//!
//! # Why chunks
//!
//! The Mattson replay costs 15–30 ns per access, and a trace generator
//! that is one virtual `next()` per access on a nested `flat_map` state
//! machine added a quarter of that again. A chunk amortizes the one
//! dynamic call over 1024 accesses, lets every builder emit whole
//! inner-loop units from a plain counter loop, and stays in L1 (16 KiB)
//! while the engine reads it. The sweeps' exact and tagged Mattson passes
//! take the chunks directly; every other consumer reads
//! the iterator views ([`AccessTrace::into_accesses`],
//! [`AccessTrace::into_addrs`]), which buffer the same `fill`, report an
//! exact `size_hint`, and forward `nth` to `skip`.
//!
//! Address maps are dense and documented per builder; lengths are exact
//! (the stack-distance engine and the replay model both pre-size from
//! them, so honesty is pinned by test); operation counts follow the same
//! conventions as each kernel's `analytic_cost` (e.g. `2N³` for matmul,
//! comparisons for sorting). The builders compute all three with checked
//! arithmetic and return `None` where one would leave `u64`, so a trace's
//! metadata never wraps.
//!
//! Every trace streams in O(1) memory: generators are a handful of
//! counters, never materialized vectors.

use core::fmt;
use core::ops::Range;

use balance_core::Access;

use crate::matmul::NaiveTrace;

/// Accesses per chunk on the replay hot paths and in the iterator views'
/// buffers: 1024 accesses of 16 bytes, 16 KiB — small enough to stay in
/// L1 beside the engine's hot state, large enough that the one dynamic
/// `fill` call per chunk vanishes.
pub(crate) const CHUNK: usize = 1024;

/// A resumable trace generator: a cursor into one kernel's access order
/// (see the [module docs](self) for the contract).
pub trait TraceGen: Send {
    /// Writes the next accesses into a prefix of `out` and returns how
    /// many it wrote. Returns `0` only at the end of the trace (or for an
    /// empty `out`); any shorter count just means "call again".
    fn fill(&mut self, out: &mut [Access]) -> usize;

    /// Advances past the next `n` accesses (or to the end of the trace).
    /// The default fills and discards; generators that decode a position
    /// in closed form override it in O(1).
    fn skip(&mut self, n: u64) {
        skip_by_filling(self, n);
    }
}

/// [`TraceGen::skip`] by filling a scratch buffer and discarding it.
fn skip_by_filling<G: TraceGen + ?Sized>(gen: &mut G, n: u64) {
    let mut scratch = [Access::read(0); 256];
    let mut left = n;
    while left > 0 {
        let want = usize::try_from(left).map_or(scratch.len(), |l| l.min(scratch.len()));
        match gen.fill(&mut scratch[..want]) {
            0 => return,
            got => left -= got as u64,
        }
    }
}

/// A kernel's canonical access trace: a resumable, read/write-tagged
/// generator plus the exact metadata the capacity-sweep engines pre-size
/// and price with.
pub struct AccessTrace {
    gen: Box<dyn TraceGen>,
    len: u64,
    addr_bound: u64,
    comp_ops: u64,
}

impl fmt::Debug for AccessTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccessTrace")
            .field("len", &self.len)
            .field("addr_bound", &self.addr_bound)
            .field("comp_ops", &self.comp_ops)
            .finish_non_exhaustive()
    }
}

impl AccessTrace {
    /// Packages a tagged trace. `len` must be the exact number of accesses
    /// the generator writes and every address must lie in
    /// `[0, addr_bound)` — both are contract, both are pinned by the
    /// registry tests.
    #[must_use]
    pub fn new(gen: impl TraceGen + 'static, len: u64, addr_bound: u64, comp_ops: u64) -> Self {
        AccessTrace {
            gen: Box::new(gen),
            len,
            addr_bound,
            comp_ops,
        }
    }

    /// Exact number of accesses in the trace.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the trace has no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exclusive upper bound on every address (the dense address-space
    /// size — what the direct-indexed engines size their tables from).
    #[must_use]
    pub fn addr_bound(&self) -> u64 {
        self.addr_bound
    }

    /// Operations the traced computation performs (independent of any
    /// memory size — the numerator of every capacity point's intensity).
    #[must_use]
    pub fn comp_ops(&self) -> u64 {
        self.comp_ops
    }

    /// Consumes the trace, filling one reused `CHUNK`-access buffer and
    /// handing each filled prefix to `f`, in trace order — the replay hot
    /// paths' input: one dynamic call per chunk, the consumer's own loop
    /// over a slice.
    pub(crate) fn for_each_chunk(mut self, mut f: impl FnMut(&[Access])) {
        let mut buf = [Access::read(0); CHUNK];
        loop {
            match self.gen.fill(&mut buf) {
                0 => return,
                got => f(&buf[..got]),
            }
        }
    }

    /// Consumes the trace, yielding the tagged access stream — the
    /// device-realistic engines' input.
    #[must_use]
    pub fn into_accesses(self) -> Accesses {
        Accesses {
            gen: self.gen,
            buf: Box::new([Access::read(0); CHUNK]),
            pos: 0,
            end: 0,
            unread: self.len,
        }
    }

    /// Consumes the trace, yielding the bare address stream (tags
    /// dropped) — the word-granular all-read engines' input.
    #[must_use]
    pub fn into_addrs(self) -> Addrs {
        Addrs(self.into_accesses())
    }
}

/// The iterator view of an [`AccessTrace`]'s tagged stream: a buffered
/// adapter over the generator's `fill`. Its `size_hint` is exact (from
/// the trace's `len`), and `nth` forwards to [`TraceGen::skip`], so
/// `Iterator::skip` is O(1) wherever the generator's skip is.
pub struct Accesses {
    gen: Box<dyn TraceGen>,
    buf: Box<[Access; CHUNK]>,
    /// The buffered accesses not yet yielded: `buf[pos..end]`.
    pos: usize,
    end: usize,
    /// Accesses the generator has yet to write into `buf`.
    unread: u64,
}

impl fmt::Debug for Accesses {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Accesses")
            .field("remaining", &self.remaining())
            .finish_non_exhaustive()
    }
}

impl Accesses {
    /// Refills the buffer; false at the end of the trace.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) -> bool {
        self.end = self.gen.fill(&mut self.buf[..]);
        self.pos = 0;
        self.unread = self.unread.saturating_sub(self.end as u64);
        self.end > 0
    }

    fn remaining(&self) -> u64 {
        self.unread + (self.end - self.pos) as u64
    }
}

impl Iterator for Accesses {
    type Item = Access;

    #[inline]
    fn next(&mut self) -> Option<Access> {
        if self.pos == self.end && !self.refill() {
            return None;
        }
        // `pos < end ≤ CHUNK`: the modulo is the identity, and spares the
        // bounds check on the per-access path.
        let a = self.buf[self.pos % CHUNK];
        self.pos += 1;
        Some(a)
    }

    fn nth(&mut self, n: usize) -> Option<Access> {
        let buffered = self.end - self.pos;
        if n < buffered {
            self.pos += n;
        } else {
            let rest = (n - buffered) as u64;
            self.pos = self.end;
            self.gen.skip(rest);
            self.unread = self.unread.saturating_sub(rest);
        }
        self.next()
    }

    /// Exact; an upper bound of `None` only where the length exceeds
    /// `usize` (32-bit targets).
    fn size_hint(&self) -> (usize, Option<usize>) {
        match usize::try_from(self.remaining()) {
            Ok(r) => (r, Some(r)),
            Err(_) => (usize::MAX, None),
        }
    }
}

impl ExactSizeIterator for Accesses {}

/// The iterator view of an [`AccessTrace`]'s bare addresses: [`Accesses`]
/// with the tags dropped (exact `size_hint`, positional `nth` forwarded).
#[derive(Debug)]
pub struct Addrs(Accesses);

impl Iterator for Addrs {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        self.0.next().map(|a| a.addr)
    }

    fn nth(&mut self, n: usize) -> Option<u64> {
        self.0.nth(n).map(|a| a.addr)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Addrs {}

/// A loop nest as a cursor over whole inner-loop *units* of at most `K`
/// accesses (a butterfly, an update triple, a dot-product pair).
trait Cursor<const K: usize>: Send {
    /// Writes the next unit into a prefix of `unit` and advances past it;
    /// returns the unit's length — never `0` before the end of the trace,
    /// always `0` after it.
    fn emit(&mut self, unit: &mut [Access; K]) -> usize;

    /// Moves to the unit holding absolute trace position `pos` and returns
    /// `pos`'s offset inside it (at or past the end: the end state).
    /// `None`, the default, when positions have no closed-form decode —
    /// the cursor is then left untouched and skips scan.
    fn seek(&mut self, _pos: u64) -> Option<usize> {
        None
    }
}

/// The [`TraceGen`] of a [`Cursor`]: whole units go straight into the
/// caller's buffer; the one unit that straddles its end is staged, and
/// the next call drains the rest first.
struct Units<C, const K: usize> {
    cursor: C,
    stage: [Access; K],
    /// The staged accesses not yet written out: `stage[staged]`.
    staged: Range<usize>,
    /// Absolute position of the next access `fill` writes.
    pos: u64,
}

impl<C: Cursor<K>, const K: usize> Units<C, K> {
    fn new(cursor: C) -> Self {
        Units {
            cursor,
            stage: [Access::read(0); K],
            staged: 0..0,
            pos: 0,
        }
    }
}

impl<C: Cursor<K>, const K: usize> TraceGen for Units<C, K> {
    fn fill(&mut self, out: &mut [Access]) -> usize {
        let mut w = self.staged.len().min(out.len());
        out[..w].copy_from_slice(&self.stage[self.staged.start..self.staged.start + w]);
        self.staged.start += w;
        let mut ended = false;
        while let Some(unit) = out[w..].first_chunk_mut::<K>() {
            match self.cursor.emit(unit) {
                0 => {
                    ended = true;
                    break;
                }
                got => w += got,
            }
        }
        if !ended && w < out.len() {
            let got = self.cursor.emit(&mut self.stage);
            let take = got.min(out.len() - w);
            out[w..w + take].copy_from_slice(&self.stage[..take]);
            self.staged = take..got;
            w += take;
        }
        self.pos += w as u64;
        w
    }

    fn skip(&mut self, n: u64) {
        let staged = self.staged.len();
        if n <= staged as u64 {
            self.staged.start += n as usize;
            self.pos += n;
            return;
        }
        let target = self.pos.saturating_add(n);
        match self.cursor.seek(target) {
            Some(offset) => {
                let got = self.cursor.emit(&mut self.stage);
                self.staged = offset.min(got)..got;
                self.pos = target;
            }
            None => skip_by_filling(self, n),
        }
    }
}

/// Splits `index` into its `(outer, inner)` digits in a nest of `outers`
/// blocks of `period` — the end state `(outers, 0)` at or past the end
/// (or for an empty period).
fn split(index: u64, period: u64, outers: u64) -> (u64, u64) {
    match index.checked_div(period) {
        Some(outer) if outer < outers => (outer, index % period),
        _ => (outers, 0),
    }
}

/// Naive triple-loop matmul (`ijk` order): `A` at `[0, n²)`, `B` at
/// `[n², 2n²)`, `C` at `[2n², 3n²)`; `3n³` accesses (the `C`
/// accumulation tagged a write), `2n³` ops. The generator is the
/// streaming [`NaiveTrace`] itself. `None` past `n = 1,832,031`, where
/// `3n³` leaves `u64`.
#[must_use]
pub fn matmul(n: usize) -> Option<AccessTrace> {
    let n64 = n as u64;
    let cube = n64.checked_pow(3)?;
    let len = cube.checked_mul(3)?;
    Some(AccessTrace::new(
        NaiveTrace::new(n),
        len,
        n64.checked_mul(n64)?.checked_mul(3)?,
        cube.checked_mul(2)?,
    ))
}

/// Unblocked right-looking Gaussian elimination (no pivoting) on `A` at
/// `[0, n²)`: for each `k`, each row `i > k` reads `A[i][k]`, `A[k][k]`,
/// writes the multiplier back, then updates its trailing row (`A[k][j]`
/// read, `A[i][j]` read then written) — `n³ − n` accesses in all. Ops: one
/// divide per multiplier, two per update — the `2n³/3` leading term.
#[must_use]
pub fn triangularization(n: usize) -> Option<AccessTrace> {
    let n64 = n as u64;
    let below = n64.saturating_sub(1);
    // Σ over the n−1−k trailing rows r of 3 + 3r accesses and 1 + 2r ops.
    let len = below.checked_mul(n64)?.checked_mul(n64.checked_add(1)?)?;
    let pairs = u128::from(below) * u128::from(n64);
    let ops = u64::try_from(pairs / 2 + pairs * u128::from(2 * n64).saturating_sub(1) / 3).ok()?;
    let cursor = Elimination {
        n: n64,
        k: 0,
        i: 1,
        j: 0,
    };
    Some(AccessTrace::new(
        Units::new(cursor),
        len,
        n64.checked_mul(n64)?,
        ops,
    ))
}

/// [`triangularization`]'s loop nest: at `(k, i, j)`, `j == k` names row
/// `i`'s multiplier triple, `j > k` its update of column `j`.
struct Elimination {
    n: u64,
    k: u64,
    i: u64,
    j: u64,
}

impl Cursor<3> for Elimination {
    #[inline]
    fn emit(&mut self, unit: &mut [Access; 3]) -> usize {
        let Elimination { n, k, i, j } = *self;
        if k + 1 >= n {
            return 0;
        }
        *unit = if j == k {
            [
                Access::read(i * n + k),
                Access::read(k * n + k),
                Access::write(i * n + k), // multiplier stored in place
            ]
        } else {
            [
                Access::read(k * n + j),
                Access::read(i * n + j),
                Access::write(i * n + j), // trailing update in place
            ]
        };
        self.j += 1;
        if self.j == n {
            self.i += 1;
            if self.i == n {
                self.k += 1;
                self.i = self.k + 1;
            }
            self.j = self.k;
        }
        3
    }
}

/// The canonical grid side per dimension: large enough that the grid
/// outgrows the interesting cache sizes, small enough that a full Jacobi
/// sweep stays cheap (`side^d` cells).
#[must_use]
pub fn grid_side(dim: usize) -> usize {
    match dim {
        1 => 64,
        2 => 16,
        3 => 8,
        _ => 6,
    }
}

/// Jacobi relaxation, `iters` ping-pong sweeps over a periodic
/// `side^dim` grid ([`grid_side`] fixes the side, matching the kernel's
/// convention that the problem size is the *iteration count*). Source and
/// destination grids alternate between `[0, cells)` and `[cells, 2·cells)`;
/// each cell reads itself, then its `∓`/`±` neighbor along each axis
/// (periodic), and writes its update (`2·dim + 1` ops).
///
/// # Panics
///
/// Panics when `dim` is outside `1..=4`.
#[must_use]
pub fn grid(dim: usize, iters: usize) -> Option<AccessTrace> {
    assert!((1..=4).contains(&dim), "dimension must be 1..=4");
    let side = grid_side(dim) as u64;
    let mut strides = [0u64; 4];
    let mut cells = 1u64;
    for stride in &mut strides[..dim] {
        *stride = cells;
        cells *= side;
    }
    let star = 2 * dim as u64 + 1;
    let cell_sweeps = (iters as u64).checked_mul(cells)?;
    let cursor = Jacobi {
        dim,
        side,
        cells,
        strides,
        sweeps: iters as u64,
        sweep: 0,
        c: 0,
        coords: [0; 4],
    };
    Some(AccessTrace::new(
        Units::new(cursor),
        cell_sweeps.checked_mul(star + 1)?,
        2 * cells,
        cell_sweeps.checked_mul(star)?,
    ))
}

/// [`grid`]'s loop nest: cell `c` of sweep `sweep`, with `c`'s per-axis
/// coordinates carried incrementally.
struct Jacobi {
    dim: usize,
    side: u64,
    cells: u64,
    strides: [u64; 4],
    sweeps: u64,
    sweep: u64,
    c: u64,
    coords: [u64; 4],
}

/// The largest [`grid`] unit: a 4-d cell's 9-point star plus its write.
const GRID_UNIT: usize = 10;

impl Cursor<GRID_UNIT> for Jacobi {
    #[inline]
    fn emit(&mut self, unit: &mut [Access; GRID_UNIT]) -> usize {
        if self.sweep == self.sweeps {
            return 0;
        }
        let (src, dst) = if self.sweep.is_multiple_of(2) {
            (0, self.cells)
        } else {
            (self.cells, 0)
        };
        let (c, side) = (self.c, self.side);
        unit[0] = Access::read(src + c);
        for axis in 0..self.dim {
            let (x, stride) = (self.coords[axis], self.strides[axis]);
            let row = src + c - x * stride;
            unit[1 + 2 * axis] = Access::read(row + (x + side - 1) % side * stride);
            unit[2 + 2 * axis] = Access::read(row + (x + 1) % side * stride);
        }
        let star = 2 * self.dim + 1;
        unit[star] = Access::write(dst + c);
        self.c += 1;
        for x in &mut self.coords[..self.dim] {
            *x += 1;
            if *x < side {
                break;
            }
            *x = 0;
        }
        if self.c == self.cells {
            self.c = 0;
            self.sweep += 1;
        }
        star + 1
    }

    fn seek(&mut self, pos: u64) -> Option<usize> {
        let width = 2 * self.dim as u64 + 2;
        (self.sweep, self.c) = split(pos / width, self.cells, self.sweeps);
        for (x, stride) in self.coords[..self.dim].iter_mut().zip(self.strides) {
            *x = self.c / stride % self.side;
        }
        Some((pos % width) as usize)
    }
}

/// In-place iterative radix-2 decimation-in-time FFT over `n` complex
/// points (`n` a power of two), one complex point = two words at
/// `[2i, 2i+1]`: each of the `log₂n` stages runs `n/2` butterflies, each
/// reading then writing both points (8 word accesses — the last 4 are the
/// write-backs of the butterfly result — 10 real ops). Returns `None`
/// when `n` is not a power of two or is below 2 — the same restriction as
/// the kernel — and past `n = 2⁵⁵`, where the op count leaves `u64`.
#[must_use]
pub fn fft(n: usize) -> Option<AccessTrace> {
    if n < 2 || !n.is_power_of_two() {
        return None;
    }
    let n64 = n as u64;
    let stages = u64::from(n64.trailing_zeros());
    let half = n64 / 2;
    let butterflies = stages.checked_mul(half)?;
    let cursor = Butterflies {
        stages,
        half,
        s: 0,
        b: 0,
    };
    Some(AccessTrace::new(
        Units::new(cursor),
        butterflies.checked_mul(8)?,
        n64.checked_mul(2)?,
        butterflies.checked_mul(10)?,
    ))
}

/// [`fft`]'s loop nest: butterfly `b` of stage `s`.
struct Butterflies {
    stages: u64,
    half: u64,
    s: u64,
    b: u64,
}

impl Cursor<8> for Butterflies {
    #[inline]
    fn emit(&mut self, unit: &mut [Access; 8]) -> usize {
        let (s, b) = (self.s, self.b);
        if s == self.stages {
            return 0;
        }
        let span = 1u64 << s;
        let a = ((b >> s) << (s + 1)) + (b & (span - 1));
        let p = a + span;
        // Read both complex points, then write both back.
        *unit = [
            Access::read(2 * a),
            Access::read(2 * a + 1),
            Access::read(2 * p),
            Access::read(2 * p + 1),
            Access::write(2 * a),
            Access::write(2 * a + 1),
            Access::write(2 * p),
            Access::write(2 * p + 1),
        ];
        self.b += 1;
        if self.b == self.half {
            self.b = 0;
            self.s += 1;
        }
        8
    }

    fn seek(&mut self, pos: u64) -> Option<usize> {
        (self.s, self.b) = split(pos / 8, self.half, self.stages);
        Some((pos % 8) as usize)
    }
}

/// Ping-pong merge sort over `n` keys: `⌈log₂n⌉` passes, each streaming
/// every key from the source buffer (read) to the destination buffer
/// (write; buffers alternate between `[0, n)` and `[n, 2n)`); one
/// comparison per key per pass — the unit the sorting kernel counts.
#[must_use]
pub fn sort(n: usize) -> Option<AccessTrace> {
    let n64 = n as u64;
    let passes = u64::from(n.checked_next_power_of_two()?.trailing_zeros());
    let moves = passes.checked_mul(n64)?;
    let cursor = Passes {
        n: n64,
        passes,
        p: 0,
        i: 0,
    };
    Some(AccessTrace::new(
        Units::new(cursor),
        moves.checked_mul(2)?,
        n64.checked_mul(2)?,
        moves,
    ))
}

/// [`sort`]'s loop nest: key `i` of pass `p`.
struct Passes {
    n: u64,
    passes: u64,
    p: u64,
    i: u64,
}

impl Cursor<2> for Passes {
    #[inline]
    fn emit(&mut self, unit: &mut [Access; 2]) -> usize {
        if self.p == self.passes {
            return 0;
        }
        let (src, dst) = if self.p.is_multiple_of(2) {
            (0, self.n)
        } else {
            (self.n, 0)
        };
        *unit = [Access::read(src + self.i), Access::write(dst + self.i)];
        self.i += 1;
        if self.i == self.n {
            self.i = 0;
            self.p += 1;
        }
        2
    }

    fn seek(&mut self, pos: u64) -> Option<usize> {
        (self.p, self.i) = split(pos / 2, self.n, self.passes);
        Some((pos % 2) as usize)
    }
}

/// Row-major matrix–vector product `y = A·x`: `A` at `[0, n²)`, `x` at
/// `[n², n² + n)`, `y` at `[n² + n, n² + 2n)`; each row streams `A[i][·]`
/// against `x`, then writes `y[i]`. `2n²` ops. The one-vector case of
/// [`multi_matvec`].
#[must_use]
pub fn matvec(n: usize) -> Option<AccessTrace> {
    multi_matvec(n, 1)
}

/// Forward substitution `L·x = b` on a dense lower triangle: `L` at
/// `[0, n²)`, `b` at `[n², n² + n)`, `x` at `[n² + n, n² + 2n)`; row `i`
/// streams its `i` computed prefix entries of `x` against `L[i][·]`, reads
/// `b[i]` and the diagonal, writes `x[i]`. `n²` ops (the kernel's
/// convention).
#[must_use]
pub fn trisolve(n: usize) -> Option<AccessTrace> {
    let n64 = n as u64;
    let b0 = n64.checked_mul(n64)?;
    let x0 = b0.checked_add(n64)?;
    let bound = x0.checked_add(n64)?;
    let cursor = Substitution {
        n: n64,
        b0,
        x0,
        i: 0,
        j: 0,
    };
    // Row i is 2i + 3 accesses: n² + 2n in all, which is `bound`.
    Some(AccessTrace::new(Units::new(cursor), bound, bound, b0))
}

/// [`trisolve`]'s loop nest: prefix pair `j < i` of row `i`, or (at
/// `j == i`) the row's closing triple.
struct Substitution {
    n: u64,
    b0: u64,
    x0: u64,
    i: u64,
    j: u64,
}

impl Cursor<3> for Substitution {
    #[inline]
    fn emit(&mut self, unit: &mut [Access; 3]) -> usize {
        let Substitution { n, b0, x0, i, j } = *self;
        if i == n {
            return 0;
        }
        if j < i {
            unit[0] = Access::read(i * n + j);
            unit[1] = Access::read(x0 + j);
            self.j += 1;
            return 2;
        }
        *unit = [
            Access::read(b0 + i),
            Access::read(i * n + i),
            Access::write(x0 + i),
        ];
        self.i += 1;
        self.j = 0;
        3
    }

    /// Rows `0..i` hold `(i + 1)² − 1` accesses, so the row of `pos` is
    /// `⌊√(pos + 1)⌋ − 1`.
    fn seek(&mut self, pos: u64) -> Option<usize> {
        let row = pos.saturating_add(1).isqrt() - 1;
        if row >= self.n {
            (self.i, self.j) = (self.n, 0);
            return Some(0);
        }
        let offset = pos - (row * row + 2 * row);
        self.i = row;
        Some(if offset < 2 * row {
            self.j = offset / 2;
            (offset % 2) as usize
        } else {
            self.j = row;
            (offset - 2 * row) as usize
        })
    }
}

/// Row-major transpose `B = Aᵀ`: `A` at `[0, n²)`, `B` at `[n², 2n²)`;
/// each element is read once and written once (the column-strided write is
/// where the cache model hurts). `n²` ops — the kernel's per-element move
/// convention.
#[must_use]
pub fn transpose(n: usize) -> Option<AccessTrace> {
    let n64 = n as u64;
    let b0 = n64.checked_mul(n64)?;
    let both = b0.checked_mul(2)?;
    let cursor = Transposition {
        n: n64,
        b0,
        i: 0,
        j: 0,
    };
    Some(AccessTrace::new(Units::new(cursor), both, both, b0))
}

/// [`transpose`]'s loop nest: element `(i, j)`.
struct Transposition {
    n: u64,
    b0: u64,
    i: u64,
    j: u64,
}

impl Cursor<2> for Transposition {
    #[inline]
    fn emit(&mut self, unit: &mut [Access; 2]) -> usize {
        let Transposition { n, b0, i, j } = *self;
        if i == n {
            return 0;
        }
        *unit = [Access::read(i * n + j), Access::write(b0 + j * n + i)];
        self.j += 1;
        if self.j == n {
            self.j = 0;
            self.i += 1;
        }
        2
    }

    fn seek(&mut self, pos: u64) -> Option<usize> {
        (self.i, self.j) = split(pos / 2, self.n, self.n);
        Some((pos % 2) as usize)
    }
}

/// Direct 1-d convolution of an `n`-point output with `taps` filter taps:
/// `x` at `[0, n + taps − 1)`, `w` next, `y` last; each output point
/// streams its window against the filter, then writes. `2·taps·n` ops.
#[must_use]
pub fn convolution(n: usize, taps: usize) -> Option<AccessTrace> {
    let (n64, k) = (n as u64, taps as u64);
    let w0 = n64.checked_add(k)?.checked_sub(1)?;
    let y0 = w0.checked_add(k)?;
    let row = k.checked_mul(2)?.checked_add(1)?;
    // Output i's window starts at x[i]; the filter is the same every row.
    let cursor = DotRows::new(n64, k, n64.max(1), 1, w0, 0, y0);
    Some(AccessTrace::new(
        Units::new(cursor),
        n64.checked_mul(row)?,
        y0.checked_add(n64)?,
        n64.checked_mul(k)?.checked_mul(2)?,
    ))
}

/// `v` successive matrix–vector products against one `n × n` matrix:
/// the [`matvec`] trace repeated per vector (`A` re-streamed each time —
/// the reuse a capacity ≥ `n²` converts into hits). `X` columns at
/// `[n², n² + v·n)`, `Y` at `[n² + v·n, n² + 2v·n)`. `2n²v` ops.
#[must_use]
pub fn multi_matvec(n: usize, v: usize) -> Option<AccessTrace> {
    let (n64, v64) = (n as u64, v as u64);
    let x0 = n64.checked_mul(n64)?;
    let rows = v64.checked_mul(n64)?;
    let y0 = x0.checked_add(rows)?;
    // Row (vec, i) streams A[i][·] against x_vec, then writes y_vec[i].
    let cursor = DotRows::new(rows, n64, n64.max(1), n64, x0, n64, y0);
    Some(AccessTrace::new(
        Units::new(cursor),
        rows.checked_mul(n64.checked_mul(2)?.checked_add(1)?)?,
        y0.checked_add(rows)?,
        rows.checked_mul(n64)?.checked_mul(2)?,
    ))
}

/// The loop nest of [`multi_matvec`] (hence [`matvec`]) and
/// [`convolution`]: row `r` streams `width` pairs
/// `(A[a(r) + t], B[b(r) + t])`, then writes `y0 + r`, where
/// `a(r) = a_step · (r mod period)` and `b(r) = b0 + b_step · ⌊r / period⌋`.
struct DotRows {
    rows: u64,
    width: u64,
    period: u64,
    a_step: u64,
    b0: u64,
    b_step: u64,
    y0: u64,
    /// Cursor: pair `t` of row `r` (`t == width`: the row's write), with
    /// `r mod period` and the row's two bases carried incrementally.
    r: u64,
    t: u64,
    col: u64,
    a: u64,
    b: u64,
}

impl DotRows {
    fn new(rows: u64, width: u64, period: u64, a_step: u64, b0: u64, b_step: u64, y0: u64) -> Self {
        DotRows {
            rows,
            width,
            period,
            a_step,
            b0,
            b_step,
            y0,
            r: 0,
            t: 0,
            col: 0,
            a: 0,
            b: b0,
        }
    }
}

impl Cursor<2> for DotRows {
    #[inline]
    fn emit(&mut self, unit: &mut [Access; 2]) -> usize {
        if self.r == self.rows {
            return 0;
        }
        if self.t < self.width {
            *unit = [Access::read(self.a + self.t), Access::read(self.b + self.t)];
            self.t += 1;
            return 2;
        }
        unit[0] = Access::write(self.y0 + self.r);
        self.t = 0;
        self.r += 1;
        self.col += 1;
        self.a += self.a_step;
        if self.col == self.period {
            self.col = 0;
            self.a = 0;
            self.b += self.b_step;
        }
        1
    }

    fn seek(&mut self, pos: u64) -> Option<usize> {
        let (row, offset) = split(pos, 2 * self.width + 1, self.rows);
        (self.r, self.col) = (row, row % self.period);
        self.a = self.a_step * self.col;
        self.b = self.b0 + self.b_step * (row / self.period);
        // Pair `t` sits at offsets `2t, 2t + 1`; the write at `2·width`.
        self.t = (offset / 2).min(self.width);
        Some((offset % 2) as usize)
    }
}

/// The pre-chunking generators, verbatim: the reference streams the
/// chunked builders must reproduce access for access.
#[cfg(test)]
pub(crate) mod reference {
    use balance_core::Access;

    pub fn matmul(n: usize) -> Vec<Access> {
        let n64 = n as u64;
        let n2 = n64 * n64;
        (0..n64)
            .flat_map(move |i| {
                (0..n64).flat_map(move |j| {
                    (0..n64).flat_map(move |k| {
                        [
                            Access::read(i * n64 + k),
                            Access::read(n2 + k * n64 + j),
                            Access::write(2 * n2 + i * n64 + j),
                        ]
                    })
                })
            })
            .collect()
    }

    pub fn triangularization(n: usize) -> Vec<Access> {
        let n64 = n as u64;
        (0..n as u64)
            .flat_map(move |k| {
                (k + 1..n64).flat_map(move |i| {
                    [
                        Access::read(i * n64 + k),
                        Access::read(k * n64 + k),
                        Access::write(i * n64 + k),
                    ]
                    .into_iter()
                    .chain((k + 1..n64).flat_map(move |j| {
                        [
                            Access::read(k * n64 + j),
                            Access::read(i * n64 + j),
                            Access::write(i * n64 + j),
                        ]
                    }))
                })
            })
            .collect()
    }

    /// The op count the pre-chunking builder summed row by row.
    pub fn triangularization_ops(n: usize) -> u64 {
        let n64 = n as u64;
        (0..n64)
            .map(|k| (n64 - k - 1) * (1 + 2 * (n64 - k - 1)))
            .sum()
    }

    pub fn grid(dim: usize, iters: usize) -> Vec<Access> {
        let side = super::grid_side(dim) as u64;
        let cells: u64 = side.pow(dim as u32);
        let star = 2 * dim as u64 + 1;
        (0..iters as u64)
            .flat_map(move |sweep| {
                let (src, dst) = if sweep.is_multiple_of(2) {
                    (0, cells)
                } else {
                    (cells, 0)
                };
                (0..cells).flat_map(move |c| {
                    (0..star + 1).map(move |probe| {
                        if probe == 0 {
                            return Access::read(src + c);
                        }
                        if probe == star {
                            return Access::write(dst + c);
                        }
                        let axis = (probe - 1) / 2;
                        let stride = side.pow(axis as u32);
                        let x = (c / stride) % side;
                        let wrapped = if probe % 2 == 1 {
                            (x + side - 1) % side
                        } else {
                            (x + 1) % side
                        };
                        Access::read(src + c - x * stride + wrapped * stride)
                    })
                })
            })
            .collect()
    }

    pub fn fft(n: usize) -> Vec<Access> {
        let n64 = n as u64;
        let stages = u64::from(n64.trailing_zeros());
        let half = n64 / 2;
        (0..stages)
            .flat_map(move |s| {
                (0..half).flat_map(move |b| {
                    let span = 1u64 << s;
                    let j = b & (span - 1);
                    let a = ((b >> s) << (s + 1)) + j;
                    let p = a + span;
                    [
                        Access::read(2 * a),
                        Access::read(2 * a + 1),
                        Access::read(2 * p),
                        Access::read(2 * p + 1),
                        Access::write(2 * a),
                        Access::write(2 * a + 1),
                        Access::write(2 * p),
                        Access::write(2 * p + 1),
                    ]
                })
            })
            .collect()
    }

    pub fn sort(n: usize) -> Vec<Access> {
        let n64 = n as u64;
        let passes = u64::from(n.next_power_of_two().trailing_zeros());
        (0..passes)
            .flat_map(move |p| {
                let (src, dst) = if p.is_multiple_of(2) {
                    (0, n64)
                } else {
                    (n64, 0)
                };
                (0..n64).flat_map(move |i| [Access::read(src + i), Access::write(dst + i)])
            })
            .collect()
    }

    pub fn matvec(n: usize) -> Vec<Access> {
        let n64 = n as u64;
        let x0 = n64 * n64;
        let y0 = x0 + n64;
        (0..n64)
            .flat_map(move |i| {
                (0..n64)
                    .flat_map(move |j| [Access::read(i * n64 + j), Access::read(x0 + j)])
                    .chain([Access::write(y0 + i)])
            })
            .collect()
    }

    pub fn trisolve(n: usize) -> Vec<Access> {
        let n64 = n as u64;
        let b0 = n64 * n64;
        let x0 = b0 + n64;
        (0..n64)
            .flat_map(move |i| {
                (0..i)
                    .flat_map(move |j| [Access::read(i * n64 + j), Access::read(x0 + j)])
                    .chain([
                        Access::read(b0 + i),
                        Access::read(i * n64 + i),
                        Access::write(x0 + i),
                    ])
            })
            .collect()
    }

    pub fn transpose(n: usize) -> Vec<Access> {
        let n64 = n as u64;
        let b0 = n64 * n64;
        (0..n64)
            .flat_map(move |i| {
                (0..n64)
                    .flat_map(move |j| [Access::read(i * n64 + j), Access::write(b0 + j * n64 + i)])
            })
            .collect()
    }

    pub fn convolution(n: usize, taps: usize) -> Vec<Access> {
        let (n64, k) = (n as u64, taps as u64);
        let w0 = n64 + k - 1;
        let y0 = w0 + k;
        (0..n64)
            .flat_map(move |i| {
                (0..k)
                    .flat_map(move |t| [Access::read(i + t), Access::read(w0 + t)])
                    .chain([Access::write(y0 + i)])
            })
            .collect()
    }

    pub fn multi_matvec(n: usize, v: usize) -> Vec<Access> {
        let (n64, v64) = (n as u64, v as u64);
        let x0 = n64 * n64;
        let y0 = x0 + v64 * n64;
        (0..v64)
            .flat_map(move |vec| {
                (0..n64).flat_map(move |i| {
                    (0..n64)
                        .flat_map(move |j| {
                            [Access::read(i * n64 + j), Access::read(x0 + vec * n64 + j)]
                        })
                        .chain([Access::write(y0 + vec * n64 + i)])
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn check(trace: Option<AccessTrace>) {
        let trace = trace.expect("in domain");
        let (len, bound) = (trace.len(), trace.addr_bound());
        let mut count = 0u64;
        let mut max = 0u64;
        let mut writes = 0u64;
        for a in trace.into_accesses() {
            count += 1;
            max = max.max(a.addr + 1);
            writes += u64::from(a.is_write());
        }
        assert_eq!(count, len, "declared length must be exact");
        assert!(max <= bound, "address {max} exceeds bound {bound}");
        assert!(writes > 0, "every computation stores its result");
        assert!(writes < count, "a trace is never writes alone");
    }

    #[test]
    fn every_builder_reports_exact_length_and_bound() {
        check(matmul(7));
        check(triangularization(9));
        check(grid(2, 3));
        check(grid(3, 2));
        check(fft(16));
        check(sort(10));
        check(matvec(8));
        check(trisolve(8));
        check(transpose(6));
        check(convolution(20, 4));
        check(multi_matvec(6, 3));
    }

    #[test]
    fn fft_rejects_non_powers_of_two() {
        assert!(fft(12).is_none());
        assert!(fft(1).is_none());
        assert!(fft(0).is_none());
        assert!(fft(8).is_some());
    }

    #[test]
    fn matmul_trace_is_the_streaming_naive_trace() {
        let t = matmul(5).unwrap();
        assert_eq!(t.len(), 3 * 125);
        assert_eq!(t.comp_ops(), 2 * 125);
        let addrs: Vec<u64> = t.into_addrs().collect();
        assert_eq!(addrs, crate::matmul::naive_address_trace(5));
    }

    #[test]
    fn addr_iter_forwards_positional_skips() {
        // The address view's nth must agree with stepping — through the
        // buffer, through NaiveTrace's closed-form skip, and past the end.
        let stepped: Vec<u64> = matmul(4).unwrap().into_addrs().collect();
        for start in [0usize, 1, 7, 100, 191, 192, 500] {
            let mut it = matmul(4).unwrap().into_addrs();
            assert_eq!(it.nth(start), stepped.get(start).copied(), "skip {start}");
            let left = stepped.len().saturating_sub(start + 1);
            assert_eq!(it.len(), left, "hint after skip {start}");
        }
        let mut it = matmul(4).unwrap().into_addrs();
        assert_eq!(it.len(), 3 * 64);
        assert_eq!(it.nth(5), Some(stepped[5]));
        assert_eq!(it.len(), 3 * 64 - 6);
        assert_eq!(it.next(), Some(stepped[6]));
        assert_eq!(it.nth(1500), None);
        assert_eq!(it.len(), 0);
    }

    #[test]
    fn grid_trace_touches_both_buffers() {
        let t = grid(2, 2).unwrap();
        let cells = 16u64 * 16;
        assert_eq!(t.addr_bound(), 2 * cells);
        let accesses: Vec<Access> = t.into_accesses().collect();
        // Sweep 0 writes the upper buffer, sweep 1 writes it back.
        assert!(accesses.iter().any(|a| a.is_write() && a.addr >= cells));
        assert!(accesses.iter().any(|a| a.is_write() && a.addr < cells));
        // Per cell: 4 star reads + self + write.
        assert_eq!(accesses.len() as u64, 2 * cells * 6);
        let writes = accesses.iter().filter(|a| a.is_write()).count() as u64;
        assert_eq!(writes, 2 * cells, "exactly one write per cell per sweep");
    }

    #[test]
    fn sort_trace_alternates_buffers_and_tags_stores() {
        let t = sort(4).unwrap(); // 2 passes
        let accesses: Vec<Access> = t.into_accesses().collect();
        assert_eq!(accesses.len(), 2 * 2 * 4);
        assert_eq!(
            &accesses[..4],
            &[
                Access::read(0),
                Access::write(4),
                Access::read(1),
                Access::write(5)
            ]
        ); // pass 0: [0,n) -> [n,2n)
        assert_eq!(
            &accesses[8..12],
            &[
                Access::read(4),
                Access::write(0),
                Access::read(5),
                Access::write(1)
            ]
        ); // pass 1: back
    }

    #[test]
    fn in_place_kernels_write_their_updates() {
        // Triangularization stores every multiplier and trailing update in
        // place; the FFT writes each butterfly's 4 result words.
        let tri: Vec<Access> = triangularization(4).unwrap().into_accesses().collect();
        let writes = tri.iter().filter(|a| a.is_write()).count();
        assert_eq!(writes, tri.len() / 3, "one write per 3-access group");
        let fft_trace: Vec<Access> = fft(8).unwrap().into_accesses().collect();
        let fft_writes = fft_trace.iter().filter(|a| a.is_write()).count();
        assert_eq!(
            fft_writes,
            fft_trace.len() / 2,
            "4 of each 8 butterfly words"
        );
    }

    #[test]
    fn empty_traces_are_empty() {
        let one = sort(1).unwrap(); // 0 passes
        assert!(one.is_empty());
        assert_eq!(one.len(), 0);
        assert_eq!(one.into_accesses().next(), None);
        assert!(!matvec(1).unwrap().is_empty());
        assert_eq!(triangularization(1).unwrap().into_accesses().count(), 0);
    }

    /// The reference stream of registry kernel `name` at `n`, `None`
    /// outside the kernel's domain.
    fn registry_reference(name: &str, n: usize) -> Option<Vec<Access>> {
        let stream = match name {
            "matmul" => reference::matmul(n),
            "triangularization" => reference::triangularization(n),
            "grid2d" => reference::grid(2, n),
            "grid3d" => reference::grid(3, n),
            "fft" if n.is_power_of_two() && n >= 2 => reference::fft(n),
            "sort" if n > 1 => reference::sort(n),
            "fft" | "sort" => return None,
            "matvec" => reference::matvec(n),
            "trisolve" => reference::trisolve(n),
            "transpose" => reference::transpose(n),
            "convolution" => reference::convolution(n, 16),
            "multi_matvec" => reference::multi_matvec(n, 8),
            other => panic!("no reference stream for registry kernel {other}"),
        };
        (n > 0).then_some(stream)
    }

    /// Everything `gen` writes, through a `buf_len`-access buffer, up to
    /// `limit` accesses.
    fn drain(gen: &mut dyn TraceGen, buf_len: usize, limit: usize) -> Vec<Access> {
        let mut buf = vec![Access::read(0); buf_len];
        let mut got = Vec::new();
        while got.len() < limit {
            let want = buf_len.min(limit - got.len());
            match gen.fill(&mut buf[..want]) {
                0 => break,
                k => got.extend_from_slice(&buf[..k]),
            }
        }
        got
    }

    /// The oracle: `make()` streams exactly `want` for buffers that split
    /// inner-loop units, skips to any position, stays below its bound and
    /// declares its exact length.
    fn check_against(
        name: &str,
        make: impl Fn() -> AccessTrace,
        want: &[Access],
        skips: &[u64],
    ) -> Result<(), TestCaseError> {
        let t = make();
        prop_assert_eq!(t.len(), want.len() as u64, "{} length", name);
        let bound = t.addr_bound();
        prop_assert!(
            want.iter().all(|a| a.addr < bound),
            "{} escapes {}",
            name,
            bound
        );
        for buf_len in [1usize, 7, 1021] {
            let got = drain(make().gen.as_mut(), buf_len, usize::MAX);
            prop_assert!(got == want, "{} through {}-access buffers", name, buf_len);
        }
        // Each skip from a fresh generator, and as cumulative `nth` calls
        // on one view.
        let (len, mut at) = (want.len() as u64, 0u64);
        let mut view = make().into_accesses();
        for &skip in skips {
            let skip = skip % (len + 8);
            let mut t = make();
            t.gen.skip(skip);
            let from = skip.min(len) as usize;
            let tail = &want[from..(from + 9).min(want.len())];
            prop_assert!(
                drain(t.gen.as_mut(), 4, 9) == tail,
                "{} after skip {}",
                name,
                skip
            );
            at += skip;
            let got = view.nth(skip as usize);
            prop_assert_eq!(got, want.get(at as usize).copied(), "{} nth {}", name, skip);
            at = (at + 1).min(len);
            prop_assert_eq!(view.len() as u64, len - at, "{} hint after nth", name);
        }
        Ok(())
    }

    /// Every registry trace at `n`, plus the builders' off-registry shapes
    /// (grid in 1-d and 4-d, other tap and vector counts), against the
    /// reference streams.
    fn check_all_at(n: usize, skips: &[u64]) -> Result<(), TestCaseError> {
        for kernel in crate::profservice::registry() {
            let name = kernel.name();
            let want = registry_reference(name, n);
            prop_assert_eq!(
                kernel.access_trace(n).is_some(),
                want.is_some(),
                "{} domain at {}",
                name,
                n
            );
            if let Some(want) = want {
                let make = || kernel.access_trace(n).expect("checked above");
                check_against(name, make, &want, skips)?;
            }
        }
        if n > 0 && n < 4 {
            for dim in [1usize, 4] {
                let make = || grid(dim, n).expect("small");
                check_against("grid", make, &reference::grid(dim, n), skips)?;
            }
        }
        for k in [1usize, 3] {
            let make = || convolution(n, k).expect("small");
            check_against("convolution", make, &reference::convolution(n, k), skips)?;
            let make = || multi_matvec(n, k).expect("small");
            check_against("multi_matvec", make, &reference::multi_matvec(n, k), skips)?;
        }
        let ops = triangularization(n).expect("small").comp_ops();
        prop_assert_eq!(
            ops,
            reference::triangularization_ops(n),
            "closed-form op count"
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn chunked_generators_stream_the_reference(
            n in 0usize..11,
            skips in proptest::collection::vec(0u64..1 << 16, 1..6),
        ) {
            check_all_at(n, &skips)?;
        }
    }

    #[test]
    fn chunked_generators_stream_the_reference_at_edge_sizes() {
        // n = 1 and 2, odd n, powers of two for the FFT, and sort sizes
        // off the powers of two; skips land in unit interiors and past
        // the end.
        for n in [1usize, 2, 3, 5, 9, 16, 17, 32] {
            check_all_at(n, &[0, 1, 3, 5, 7, 100, 1 << 20]).unwrap();
        }
    }

    /// The largest `n` each builder accepts, with its `(len, bound, ops)`
    /// in `u128`: everything past it would leave `u64`.
    type Boundary = (
        &'static str,
        fn(usize) -> Option<AccessTrace>,
        usize,
        fn(u128) -> [u128; 3],
    );

    #[test]
    fn metadata_stops_at_the_u64_boundary() {
        let cases: [Boundary; 13] = [
            ("matmul", matmul, 1_832_031, |n| {
                [3 * n * n * n, 3 * n * n, 2 * n * n * n]
            }),
            ("triangularization", triangularization, 2_642_245, |n| {
                [
                    n * n * n - n,
                    n * n,
                    (n - 1) * n / 2 + (n - 1) * n * (2 * n - 1) / 3,
                ]
            }),
            ("sort", sort, 159_023_655_807_840_962, |n| {
                [58 * 2 * n, 2 * n, 58 * n]
            }),
            ("matvec", matvec, 3_037_000_499, |n| {
                [n * (2 * n + 1), n * n + 2 * n, 2 * n * n]
            }),
            ("trisolve", trisolve, 4_294_967_295, |n| {
                [n * n + 2 * n, n * n + 2 * n, n * n]
            }),
            ("transpose", transpose, 3_037_000_499, |n| {
                [2 * n * n, 2 * n * n, n * n]
            }),
            (
                "convolution",
                |n| convolution(n, 16),
                558_992_244_657_865_200,
                |n| [33 * n, 2 * n + 31, 32 * n],
            ),
            (
                "multi_matvec",
                |n| multi_matvec(n, 8),
                1_073_741_823,
                |n| [8 * n * (2 * n + 1), n * n + 16 * n, 16 * n * n],
            ),
            (
                "grid1d",
                |n| grid(1, n),
                72_057_594_037_927_935,
                |n| [n * 64 * 4, 128, n * 64 * 3],
            ),
            (
                "grid2d",
                |n| grid(2, n),
                12_009_599_006_321_322,
                |n| [n * 256 * 6, 512, n * 256 * 5],
            ),
            (
                "grid3d",
                |n| grid(3, n),
                4_503_599_627_370_495,
                |n| [n * 512 * 8, 1024, n * 512 * 7],
            ),
            (
                "grid4d",
                |n| grid(4, n),
                1_423_359_882_230_675,
                |n| [n * 1296 * 10, 2592, n * 1296 * 9],
            ),
            (
                "fft",
                |k| fft(1 << k),
                55,
                |k| [(4 * k) << k, 2 << k, (5 * k) << k],
            ),
        ];
        for (name, build, last, meta) in cases {
            let t = build(last).unwrap_or_else(|| panic!("{name} refuses its last n = {last}"));
            let got = [t.len(), t.addr_bound(), t.comp_ops()].map(u128::from);
            assert_eq!(got, meta(last as u128), "{name} metadata at n = {last}");
            assert!(
                build(last + 1).is_none(),
                "{name} accepts n = {} past u64",
                last + 1
            );
        }
        // Past the boundary the kernel reports no canonical trace, which
        // the sweeps turn into their documented error.
        use crate::Kernel;
        assert!(crate::matmul::MatMul.access_trace(1_832_031).is_some());
        assert!(crate::matmul::MatMul.access_trace(1_832_032).is_none());
        assert!(sort(usize::MAX).is_none(), "no next power of two");
    }

    #[test]
    fn chunked_hot_path_matches_the_views() {
        let mut chunked = Vec::new();
        let mut chunks = 0;
        fft(512).unwrap().for_each_chunk(|c| {
            assert!(!c.is_empty() && c.len() <= CHUNK);
            chunks += 1;
            chunked.extend_from_slice(c);
        });
        assert_eq!(chunks, (8 * 256 * 9usize).div_ceil(CHUNK));
        assert_eq!(chunked, reference::fft(512));
    }
}
