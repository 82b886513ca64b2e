//! Canonical tagged access traces: the natural (unblocked) access sequence
//! of each computation, as a streamed iterator of read/write-tagged
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
//! sweeps simply drop them via [`AccessTrace::into_addrs`], whose
//! [`AddrIter`] adapter forwards the underlying iterator's O(1) `nth` so
//! segmented range-slicing stays cheap.
//!
//! Address maps are dense and documented per builder; lengths are exact
//! (the stack-distance engine and the replay model both pre-size from
//! them, so honesty is pinned by test); operation counts follow the same
//! conventions as each kernel's `analytic_cost` (e.g. `2N³` for matmul,
//! comparisons for sorting).
//!
//! Every trace streams in O(1) memory: builders return counter-decoding
//! iterators (or reuse the streaming generators like
//! [`NaiveTrace`](crate::matmul::NaiveTrace)), never materialized vectors.

use core::fmt;

use balance_core::Access;

use crate::matmul::NaiveTrace;

/// A kernel's canonical access trace: a streamed, read/write-tagged
/// iterator plus the exact metadata the capacity-sweep engines pre-size
/// and price with.
pub struct AccessTrace {
    accesses: Box<dyn Iterator<Item = Access> + Send>,
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
    /// the iterator yields and every address must lie in `[0, addr_bound)`
    /// — both are contract, both are pinned by the registry tests.
    #[must_use]
    pub fn new(
        accesses: impl Iterator<Item = Access> + Send + 'static,
        len: u64,
        addr_bound: u64,
        comp_ops: u64,
    ) -> Self {
        AccessTrace {
            accesses: Box::new(accesses),
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

    /// Consumes the trace, yielding the tagged access stream — the
    /// device-realistic engines' input.
    #[must_use]
    pub fn into_accesses(self) -> Box<dyn Iterator<Item = Access> + Send> {
        self.accesses
    }

    /// Consumes the trace, yielding the bare address stream (tags
    /// dropped) — the word-granular all-read engines' input. The adapter
    /// forwards `nth`, so positional skips stay O(1) where the underlying
    /// generator decodes them in closed form.
    #[must_use]
    pub fn into_addrs(self) -> AddrIter<Box<dyn Iterator<Item = Access> + Send>> {
        AddrIter(self.accesses)
    }
}

/// Address-projecting adapter over a tagged access iterator: yields
/// `access.addr`, forwarding `nth` and `size_hint` (a plain
/// `map(|a| a.addr)` would degrade the streaming generators' O(1)
/// positional skip to a scan — the segmented parallel engine's per-range
/// slicing depends on it).
#[derive(Debug, Clone)]
pub struct AddrIter<I>(I);

impl<I: Iterator<Item = Access>> AddrIter<I> {
    /// Wraps a tagged iterator.
    pub fn new(inner: I) -> Self {
        AddrIter(inner)
    }
}

impl<I: Iterator<Item = Access>> Iterator for AddrIter<I> {
    type Item = u64;

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

impl<I: ExactSizeIterator<Item = Access>> ExactSizeIterator for AddrIter<I> {}

/// Naive triple-loop matmul (`ijk` order): `A` at `[0, n²)`, `B` at
/// `[n², 2n²)`, `C` at `[2n², 3n²)`; `3n³` accesses (the `C`
/// accumulation tagged a write), `2n³` ops. Reuses the streaming
/// [`NaiveTrace`] generator — its `ExactSizeIterator::len` is the trace
/// length (honesty pinned by regression test).
#[must_use]
pub fn matmul(n: usize) -> AccessTrace {
    let t = NaiveTrace::new(n);
    let len = t.len() as u64;
    let n64 = n as u64;
    AccessTrace::new(t, len, 3 * n64 * n64, 2 * n64.pow(3))
}

/// Unblocked right-looking Gaussian elimination (no pivoting) on `A` at
/// `[0, n²)`: for each `k`, each row `i > k` reads `A[i][k]`, `A[k][k]`,
/// writes the multiplier back, then updates its trailing row (`A[k][j]`
/// read, `A[i][j]` read then written). Ops: one divide per multiplier,
/// two per update — the `2n³/3` leading term.
#[must_use]
pub fn triangularization(n: usize) -> AccessTrace {
    let n64 = n as u64;
    let (mut len, mut ops) = (0u64, 0u64);
    for k in 0..n64 {
        let rows = n64 - k - 1;
        let cols = rows; // trailing columns j in (k, n)
        len += rows * (3 + 3 * cols);
        ops += rows * (1 + 2 * cols);
    }
    let iter = (0..n as u64).flat_map(move |k| {
        (k + 1..n64).flat_map(move |i| {
            [
                Access::read(i * n64 + k),
                Access::read(k * n64 + k),
                Access::write(i * n64 + k), // multiplier stored in place
            ]
            .into_iter()
            .chain((k + 1..n64).flat_map(move |j| {
                [
                    Access::read(k * n64 + j),
                    Access::read(i * n64 + j),
                    Access::write(i * n64 + j), // trailing update in place
                ]
            }))
        })
    });
    AccessTrace::new(iter, len, n64 * n64, ops)
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
/// each cell reads its `2·dim + 1`-point star and writes its update
/// (`2·dim + 1` ops).
#[must_use]
pub fn grid(dim: usize, iters: usize) -> AccessTrace {
    assert!((1..=4).contains(&dim), "dimension must be 1..=4");
    let side = grid_side(dim) as u64;
    let cells: u64 = side.pow(dim as u32);
    let star = 2 * dim as u64 + 1;
    // Per cell: probe 0 reads self, probes 1..star read the ∓/± neighbor
    // along each axis (periodic, decoded from the cell index per axis
    // stride), probe `star` writes the destination cell.
    let iter = (0..iters as u64).flat_map(move |sweep| {
        let (src, dst) = if sweep % 2 == 0 { (0, cells) } else { (cells, 0) };
        (0..cells).flat_map(move |c| {
            (0..star + 1).map(move |probe| {
                if probe == 0 {
                    return Access::read(src + c);
                }
                if probe == star {
                    return Access::write(dst + c);
                }
                let axis = (probe - 1) / 2;
                let stride = side.pow(u32::try_from(axis).unwrap_or_else(|_| panic!("dim <= 4")));
                let x = (c / stride) % side;
                let wrapped = if probe % 2 == 1 {
                    (x + side - 1) % side
                } else {
                    (x + 1) % side
                };
                Access::read(src + c - x * stride + wrapped * stride)
            })
        })
    });
    let len = iters as u64 * cells * (star + 1);
    AccessTrace::new(iter, len, 2 * cells, iters as u64 * cells * star)
}

/// In-place iterative radix-2 decimation-in-time FFT over `n` complex
/// points (`n` a power of two), one complex point = two words at
/// `[2i, 2i+1]`: each of the `log₂n` stages runs `n/2` butterflies, each
/// reading then writing both points (8 word accesses — the last 4 are the
/// write-backs of the butterfly result — 10 real ops). Returns `None`
/// when `n` is not a power of two or is below 2 — the same restriction as
/// the kernel.
#[must_use]
pub fn fft(n: usize) -> Option<AccessTrace> {
    if n < 2 || !n.is_power_of_two() {
        return None;
    }
    let n64 = n as u64;
    let stages = n64.trailing_zeros() as u64;
    let half = n64 / 2;
    let iter = (0..stages).flat_map(move |s| {
        (0..half).flat_map(move |b| {
            let span = 1u64 << s;
            let j = b & (span - 1);
            let a = ((b >> s) << (s + 1)) + j;
            let p = a + span;
            // Read both complex points, then write both back.
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
    });
    Some(AccessTrace::new(
        iter,
        stages * half * 8,
        2 * n64,
        10 * half * stages,
    ))
}

/// Ping-pong merge sort over `n` keys: `⌈log₂n⌉` passes, each streaming
/// every key from the source buffer (read) to the destination buffer
/// (write; buffers alternate between `[0, n)` and `[n, 2n)`); one
/// comparison per key per pass — the unit the sorting kernel counts.
#[must_use]
pub fn sort(n: usize) -> AccessTrace {
    let n64 = n as u64;
    let passes = u64::from(n.next_power_of_two().trailing_zeros());
    let iter = (0..passes).flat_map(move |p| {
        let (src, dst) = if p % 2 == 0 { (0, n64) } else { (n64, 0) };
        (0..n64).flat_map(move |i| [Access::read(src + i), Access::write(dst + i)])
    });
    AccessTrace::new(iter, passes * 2 * n64, 2 * n64, passes * n64)
}

/// Row-major matrix–vector product `y = A·x`: `A` at `[0, n²)`, `x` at
/// `[n², n² + n)`, `y` at `[n² + n, n² + 2n)`; each row streams `A[i][·]`
/// against `x`, then writes `y[i]`. `2n²` ops.
#[must_use]
pub fn matvec(n: usize) -> AccessTrace {
    let n64 = n as u64;
    let x0 = n64 * n64;
    let y0 = x0 + n64;
    let iter = (0..n64).flat_map(move |i| {
        (0..n64)
            .flat_map(move |j| [Access::read(i * n64 + j), Access::read(x0 + j)])
            .chain([Access::write(y0 + i)])
    });
    AccessTrace::new(iter, n64 * (2 * n64 + 1), y0 + n64, 2 * n64 * n64)
}

/// Forward substitution `L·x = b` on a dense lower triangle: `L` at
/// `[0, n²)`, `b` at `[n², n² + n)`, `x` at `[n² + n, n² + 2n)`; row `i`
/// streams its `i` computed prefix entries of `x` against `L[i][·]`, reads
/// `b[i]` and the diagonal, writes `x[i]`. `n²` ops (the kernel's
/// convention).
#[must_use]
pub fn trisolve(n: usize) -> AccessTrace {
    let n64 = n as u64;
    let b0 = n64 * n64;
    let x0 = b0 + n64;
    let iter = (0..n64).flat_map(move |i| {
        (0..i)
            .flat_map(move |j| [Access::read(i * n64 + j), Access::read(x0 + j)])
            .chain([
                Access::read(b0 + i),
                Access::read(i * n64 + i),
                Access::write(x0 + i),
            ])
    });
    AccessTrace::new(iter, n64 * n64 + 2 * n64, x0 + n64, n64 * n64)
}

/// Row-major transpose `B = Aᵀ`: `A` at `[0, n²)`, `B` at `[n², 2n²)`;
/// each element is read once and written once (the column-strided write is
/// where the cache model hurts). `n²` ops — the kernel's per-element move
/// convention.
#[must_use]
pub fn transpose(n: usize) -> AccessTrace {
    let n64 = n as u64;
    let b0 = n64 * n64;
    let iter = (0..n64).flat_map(move |i| {
        (0..n64).flat_map(move |j| {
            [Access::read(i * n64 + j), Access::write(b0 + j * n64 + i)]
        })
    });
    AccessTrace::new(iter, 2 * n64 * n64, 2 * n64 * n64, n64 * n64)
}

/// Direct 1-d convolution of an `n`-point output with `taps` filter taps:
/// `x` at `[0, n + taps − 1)`, `w` next, `y` last; each output point
/// streams its window against the filter, then writes. `2·taps·n` ops.
#[must_use]
pub fn convolution(n: usize, taps: usize) -> AccessTrace {
    let (n64, k) = (n as u64, taps as u64);
    let w0 = n64 + k - 1;
    let y0 = w0 + k;
    let iter = (0..n64).flat_map(move |i| {
        (0..k)
            .flat_map(move |t| [Access::read(i + t), Access::read(w0 + t)])
            .chain([Access::write(y0 + i)])
    });
    AccessTrace::new(iter, n64 * (2 * k + 1), y0 + n64, 2 * k * n64)
}

/// `v` successive matrix–vector products against one `n × n` matrix:
/// the [`matvec`] trace repeated per vector (`A` re-streamed each time —
/// the reuse a capacity ≥ `n²` converts into hits). `X` columns at
/// `[n², n² + v·n)`, `Y` at `[n² + v·n, n² + 2v·n)`. `2n²v` ops.
#[must_use]
pub fn multi_matvec(n: usize, v: usize) -> AccessTrace {
    let (n64, v64) = (n as u64, v as u64);
    let x0 = n64 * n64;
    let y0 = x0 + v64 * n64;
    let iter = (0..v64).flat_map(move |vec| {
        (0..n64).flat_map(move |i| {
            (0..n64)
                .flat_map(move |j| {
                    [Access::read(i * n64 + j), Access::read(x0 + vec * n64 + j)]
                })
                .chain([Access::write(y0 + vec * n64 + i)])
        })
    });
    AccessTrace::new(
        iter,
        v64 * n64 * (2 * n64 + 1),
        y0 + v64 * n64,
        2 * n64 * n64 * v64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(trace: AccessTrace) {
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
        check(fft(16).unwrap());
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
        let t = matmul(5);
        assert_eq!(t.len(), 3 * 125);
        assert_eq!(t.comp_ops(), 2 * 125);
        let addrs: Vec<u64> = t.into_addrs().collect();
        assert_eq!(addrs, crate::matmul::naive_address_trace(5));
    }

    #[test]
    fn addr_iter_forwards_positional_skips() {
        // AddrIter::nth must agree with stepping — through the Box and
        // through NaiveTrace's closed-form decode.
        let stepped: Vec<u64> = matmul(4).into_addrs().collect();
        for start in [0usize, 1, 7, 100] {
            let mut it = matmul(4).into_addrs();
            assert_eq!(it.nth(start), stepped.get(start).copied(), "skip {start}");
        }
        let mut it = AddrIter::new(NaiveTrace::new(4));
        assert_eq!(it.len(), 3 * 64);
        assert_eq!(it.nth(5), Some(stepped[5]));
        assert_eq!(it.len(), 3 * 64 - 6);
    }

    #[test]
    fn grid_trace_touches_both_buffers() {
        let t = grid(2, 2);
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
        let t = sort(4); // 2 passes
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
        let tri: Vec<Access> = triangularization(4).into_accesses().collect();
        let writes = tri.iter().filter(|a| a.is_write()).count();
        assert_eq!(writes, tri.len() / 3, "one write per 3-access group");
        let fft_trace: Vec<Access> = fft(8).unwrap().into_accesses().collect();
        let fft_writes = fft_trace.iter().filter(|a| a.is_write()).count();
        assert_eq!(fft_writes, fft_trace.len() / 2, "4 of each 8 butterfly words");
    }

    #[test]
    fn empty_traces_are_empty() {
        assert!(sort(1).is_empty()); // 0 passes
        assert_eq!(sort(1).len(), 0);
        assert!(!matvec(1).is_empty());
    }
}
