//! Blocked matrix multiplication (paper §3.1).
//!
//! The paper's decomposition: the `N × N` product is computed block by
//! block; each `b × b` block of `C` is accumulated in local memory while
//! `b × b` tiles of `A` and `B` stream through. With `3b² ≤ M` the working
//! set fits, giving
//!
//! ```text
//! C_comp = 2N³            (one multiply + one add per inner step)
//! C_io   ≈ 2N³/b + N²     (A and B re-streamed once per block row/column)
//! r(M)   = Θ(√M)
//! ```
//!
//! Hong & Kung (1981) showed this is the best possible up to a constant, so
//! `M_new = α²·M_old` is tight — this kernel is the paper's flagship example.
//!
//! The module also exports **streaming access-trace** generators
//! ([`NaiveTrace`], [`BlockedTrace`]: lazy `Iterator<Item = Access> +
//! ExactSizeIterator`, O(1) memory for the `3n³`-access traces; the naive
//! one is also the chunked [`TraceGen`] behind matmul's canonical
//! [`AccessTrace`](crate::trace::AccessTrace)), used by
//! the E13 ablation to show that an LRU cache of the same capacity, fed
//! the naive trace, does *not* achieve the `√M` intensity — the
//! decomposition scheme, not the memory itself, earns the balance. Each
//! `C[i][j]` accumulation is tagged a write (read-modify-write convention);
//! the `A`/`B` streams are reads.
//!
//! # Analytic reuse-distance histogram of the naive trace
//!
//! The paper's §3 closed forms price the *blocked* algorithm; the same
//! affine structure makes the naive trace's full LRU miss curve derivable
//! too, which is what [`Kernel::analytic_profile`] returns (the
//! `Engine::Analytic` tier — see [`crate::sweep`]). The naive trace emits,
//! for `i, j, k` in row-major loop order, the triple
//! `A[i][k], B[k][j], C[i][j]`. Count, for each address, the number of
//! *distinct* addresses touched between consecutive uses (inclusive of the
//! address itself) — the Mattson stack distance `d`; the access hits an LRU
//! of capacity `M` iff `d ≤ M`. Three address families, three shapes:
//!
//! * **`C[i][j]`** recurs every `k` step. Window: `C[i][j]`, then
//!   `A[i][k+1], B[k+1][j]` — `d = 3`, for `n²(n-1)` accesses. This is the
//!   reuse that makes *any* memory (`M ≥ 3`) beat `M = 1`.
//! * **`A[i][k]`** recurs every `j` step. Window: the rest of its own
//!   triple, the `n-1-k` triples finishing column `j`, and the `k` triples
//!   opening column `j+1` — `n-1` other `A`-row entries, all `n` `B`
//!   entries of the two columns, `C[i][j]`, and (only when `k ≥ 1`)
//!   `C[i][j+1]`: `d = 2n+2`, thinning to `2n+1` at `k = 0` where
//!   `C[i][j+1]` has not yet been touched. Counts: `n(n-1)` at `2n+1`,
//!   `n(n-1)²` at `2n+2`.
//! * **`B[k][j]`** recurs once per `i` step — the long-range family. The
//!   window runs from `(i, j, k)` to `(i+1, j, k)`: every other `B` entry
//!   appears in it (`n² - 1`), plus `A`-row `i` (`a₀ = n`, clipped to
//!   `n-1-k` when `j = n-1` leaves no later column), `A`-row `i+1`
//!   (`a₁ = n`, clipped to `k+1` when `j = 0` gives no earlier column),
//!   `n` `C` entries split across rows `i`/`i+1`, and `C[i+1][j]` only
//!   when `k ≥ 1`: `d = n² + a₀ + a₁ + n + [k ≥ 1]`. Interior `(j, k)`
//!   collapse to two giant classes at `n²+3n` and `n²+3n+1`; the
//!   `j ∈ {0, n-1}` loop edges contribute `O(n)` thin classes — `~2n+6`
//!   pieces in total, a few hundred bytes at any `n`, versus the
//!   `3n³`-address replay.
//!
//! The derivation is pinned bit-exact against the replayed engine at every
//! capacity by the registry-wide property tests (`analytic_profiles_*`).

use balance_core::{Access, CostProfile, HierarchySpec, IntensityModel};
use balance_machine::{AnalyticProfile, ExternalStore, Pe};

use crate::error::KernelError;
use crate::matrix::{load_block, store_block, MatrixHandle};
use crate::reference;
use crate::trace::TraceGen;
use crate::traits::{Kernel, KernelRun};
use crate::verify::{self, Verify};
use crate::workload;

/// Blocked out-of-core matrix multiplication.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatMul;

/// The largest tile side `b` with `3b² ≤ m` (at least 1).
///
/// Integer `isqrt`, not `f64::sqrt`: above 2⁵³ the float rounds, and a
/// rounded-up `b` would break the `3b² ≤ m` capacity contract.
#[must_use]
pub fn tile_side(m: usize) -> usize {
    (m / 3).isqrt().max(1)
}

impl Kernel for MatMul {
    fn name(&self) -> &'static str {
        "matmul"
    }

    fn access_trace(&self, n: usize) -> Option<crate::trace::AccessTrace> {
        crate::trace::matmul(n).filter(|_| n > 0)
    }

    /// The closed-form histogram derived in the module docs: three address
    /// families (`C` at distance 3, `A` at `2n+1`/`2n+2`, `B` in `~2n+2`
    /// classes around `n²+3n`).
    fn analytic_profile(&self, n: usize) -> Option<AnalyticProfile> {
        if n == 0 {
            return None;
        }
        let n64 = n as u64;
        let nn = n64 * n64;
        let t = n64 - 1; // recurrences per address family index
        let mut p = AnalyticProfile::new();
        p.record_compulsory(3 * nn);
        // C[i][j]: hit again by every k step.
        p.record_class(3, nn * t);
        // A[i][k]: hit again by every j step; C[i][j+1] absent at k = 0.
        p.record_class(2 * n64 + 1, n64 * t);
        p.record_class(2 * n64 + 2, n64 * t * t);
        // B[k][j]: hit again by every i step; d = n² + a₀ + a₁ + n + [k≥1]
        // with a₀ = n (clipped to n-1-k at j = n-1) and a₁ = n (clipped to
        // k+1 at j = 0). Each (j, k) pair recurs n-1 times.
        //
        // j = 0: a₁ = k+1.
        p.record_class(nn + 2 * n64 + 1, t);
        for k in 1..n64 {
            p.record_class(nn + 2 * n64 + k + 2, t);
        }
        if n64 >= 2 {
            // Interior 1 ≤ j ≤ n-2: both rows unclipped.
            p.record_class(nn + 3 * n64, (n64 - 2) * t);
            p.record_class(nn + 3 * n64 + 1, (n64 - 2) * t * t);
            // j = n-1: a₀ = n-1-k.
            p.record_class(nn + 3 * n64 - 1, t);
            for k in 1..n64 {
                p.record_class(nn + 3 * n64 - k, t);
            }
        }
        Some(p)
    }

    fn description(&self) -> &'static str {
        "N×N matrix multiplication, b×b blocks with 3b² ≤ M (paper §3.1)"
    }

    fn intensity_model(&self) -> IntensityModel {
        // r(M) ≈ 2N³ / (2N³/b) = b = √(M/3): coefficient 1/√3.
        IntensityModel::sqrt_m(1.0 / 3.0f64.sqrt())
    }

    fn analytic_cost(&self, n: usize, m: usize) -> CostProfile {
        let b = tile_side(m).min(n.max(1));
        let nblocks = n.div_ceil(b) as u64;
        let n3 = (n as u64).pow(3);
        let comp = 2 * n3;
        // Per (i,j) block: stream A-row-panel and B-col-panel (2·n·b words),
        // write C block (b²). nblocks² such blocks.
        let io = nblocks * nblocks * (2 * (n as u64) * (b as u64) + (b * b) as u64);
        CostProfile::new(comp, io)
    }

    fn min_memory(&self, _n: usize) -> usize {
        3 // b = 1 needs 3 words
    }

    fn run_on(
        &self,
        n: usize,
        machine: &HierarchySpec,
        seed: u64,
        verify: Verify,
    ) -> Result<KernelRun, KernelError> {
        let m = machine.local_capacity_words();
        if n == 0 {
            return Err(KernelError::BadParameters {
                reason: "matrix size must be positive".into(),
            });
        }
        if m < self.min_memory(n) {
            return Err(KernelError::MemoryTooSmall {
                have: m,
                need: self.min_memory(n),
            });
        }
        let b = tile_side(m).min(n);

        // Build inputs in the outside world.
        let mut store = ExternalStore::new();
        let a_data = workload::random_matrix(n, seed);
        let b_data = workload::random_matrix(n, seed ^ 0x9e37_79b9);
        let a = MatrixHandle::new(store.alloc_from(&a_data), n, n);
        let bm = MatrixHandle::new(store.alloc_from(&b_data), n, n);
        let c = MatrixHandle::new(store.alloc(n * n), n, n);

        let mut pe = Pe::for_hierarchy(machine);
        let buf_a = pe.alloc(b * b)?;
        let buf_b = pe.alloc(b * b)?;
        let buf_c = pe.alloc(b * b)?;

        for i0 in (0..n).step_by(b) {
            let ib = b.min(n - i0);
            for j0 in (0..n).step_by(b) {
                let jb = b.min(n - j0);
                // Zero the accumulator tile.
                pe.buf_mut(buf_c)?[..ib * jb].fill(0.0);
                for k0 in (0..n).step_by(b) {
                    let kb = b.min(n - k0);
                    load_block(&mut pe, &store, &a, i0, k0, ib, kb, buf_a)?;
                    load_block(&mut pe, &store, &bm, k0, j0, kb, jb, buf_b)?;
                    // C_tile += A_tile · B_tile (2 ops per multiply-add).
                    pe.update(buf_c, &[buf_a, buf_b], |ct, srcs| {
                        let (at, bt) = (srcs[0], srcs[1]);
                        for i in 0..ib {
                            for k in 0..kb {
                                let aik = at[i * kb + k];
                                for j in 0..jb {
                                    ct[i * jb + j] += aik * bt[k * jb + j];
                                }
                            }
                        }
                    })?;
                    pe.count_ops(2 * (ib * jb * kb) as u64);
                }
                store_block(&mut pe, &mut store, &c, i0, j0, ib, jb, buf_c)?;
            }
        }

        match verify {
            Verify::Full => {
                // Recompute the naive reference and compare elementwise.
                let want = reference::matmul(&a_data, &b_data, n);
                let got = c.snapshot(&store);
                let err = reference::max_abs_diff(&want, &got);
                let tol = 1e-9 * (n as f64);
                if err > tol {
                    return Err(KernelError::VerificationFailed {
                        what: "matmul",
                        max_error: err,
                        tolerance: tol,
                    });
                }
            }
            Verify::Freivalds { rounds } => {
                let got = c.snapshot(&store);
                verify::freivalds_matmul(&a_data, &b_data, &got, n, seed, rounds)?;
            }
            Verify::None => {}
        }

        Ok(KernelRun {
            n,
            m,
            execution: pe.execution(),
        })
    }
}

/// Streaming tagged access trace of the *naive* triple-loop `C = A·B`
/// (row-major, `ijk` order), for the LRU ablation (E13).
///
/// Addresses: `A` at `[0, n²)`, `B` at `[n², 2n²)`, `C` at `[2n², 3n²)`.
/// Each inner iteration reads `A[i][k]`, `B[k][j]` and accumulates into
/// `C[i][j]` (a write, by the read-modify-write convention).
///
/// The trace is `3n³` accesses long — ~3 GB materialized at `n = 512` —
/// so it is generated lazily: the iterator holds a handful of counters and
/// feeds the replay engines in O(1) memory. [`naive_address_trace`] is
/// the thin address-collecting wrapper for small-`n` uses.
#[derive(Debug, Clone)]
pub struct NaiveTrace {
    n: u64,
    n2: u64,
    i: u64,
    j: u64,
    k: u64,
    phase: u8,
    remaining: u64,
}

impl NaiveTrace {
    /// The trace for an `n × n` product.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let n = n as u64;
        NaiveTrace {
            n,
            n2: n * n,
            i: 0,
            j: 0,
            k: 0,
            phase: 0,
            remaining: 3 * n * n * n,
        }
    }

    /// O(1) positional skip past the next `skip` accesses: the element at
    /// absolute position `p = ((i·n + j)·n + k)·3 + phase` is a
    /// closed-form decode of `p`.
    fn seek_ahead(&mut self, skip: u64) {
        if skip >= self.remaining {
            self.remaining = 0;
            return;
        }
        let total = 3 * self.n2 * self.n;
        let p = total - self.remaining + skip;
        self.phase = (p % 3) as u8;
        let q = p / 3;
        self.k = q % self.n;
        let q = q / self.n;
        self.j = q % self.n;
        self.i = q / self.n;
        self.remaining = total - p;
    }
}

impl Iterator for NaiveTrace {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let access = match self.phase {
            0 => Access::read(self.i * self.n + self.k), // A[i][k]
            1 => Access::read(self.n2 + self.k * self.n + self.j), // B[k][j]
            _ => Access::write(2 * self.n2 + self.i * self.n + self.j), // C[i][j] +=
        };
        self.phase += 1;
        if self.phase == 3 {
            self.phase = 0;
            self.k += 1;
            if self.k == self.n {
                self.k = 0;
                self.j += 1;
                if self.j == self.n {
                    self.j = 0;
                    self.i += 1;
                }
            }
        }
        Some(access)
    }

    /// O(1) positional skip (see `seek_ahead`), so `skip(start)` over this
    /// trace (the segmented parallel engine's per-range slicing) costs one
    /// division chain instead of a scan — `Iterator::skip` defers to `nth`.
    fn nth(&mut self, skip: usize) -> Option<Access> {
        self.seek_ahead(u64::try_from(skip).unwrap_or(u64::MAX));
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining as usize;
        (r, Some(r))
    }
}

/// The chunked generator: whole `(A, B, C)` triples straight into the
/// buffer, single accesses only where a triple straddles either end.
impl TraceGen for NaiveTrace {
    fn fill(&mut self, out: &mut [Access]) -> usize {
        let want = usize::try_from(self.remaining).map_or(out.len(), |r| r.min(out.len()));
        // `w < want ≤ remaining` below, so `next()` is always `Some`.
        let mut w = 0;
        while w < want && self.phase != 0 {
            out[w] = self.next().unwrap_or(Access::read(0));
            w += 1;
        }
        let whole = (want - w) / 3 * 3;
        let (n, n2) = (self.n, self.n2);
        let (mut i, mut j, mut k) = (self.i, self.j, self.k);
        for unit in out[w..w + whole].chunks_exact_mut(3) {
            unit[0] = Access::read(i * n + k); // A[i][k]
            unit[1] = Access::read(n2 + k * n + j); // B[k][j]
            unit[2] = Access::write(2 * n2 + i * n + j); // C[i][j] +=
            k += 1;
            if k == n {
                k = 0;
                j += 1;
                if j == n {
                    j = 0;
                    i += 1;
                }
            }
        }
        (self.i, self.j, self.k) = (i, j, k);
        self.remaining -= whole as u64;
        w += whole;
        while w < want {
            out[w] = self.next().unwrap_or(Access::read(0));
            w += 1;
        }
        want
    }

    fn skip(&mut self, n: u64) {
        self.seek_ahead(n);
    }
}

impl ExactSizeIterator for NaiveTrace {}

/// Streaming word-address trace of the *blocked* algorithm with tile side
/// `b` (same address map and O(1) memory as [`NaiveTrace`]);
/// [`blocked_address_trace`] is the materializing wrapper.
#[derive(Debug, Clone)]
pub struct BlockedTrace {
    n: usize,
    b: usize,
    n2: u64,
    // Block origins and in-block coordinates of the next emission.
    i0: usize,
    j0: usize,
    k0: usize,
    i: usize,
    j: usize,
    k: usize,
    phase: u8,
    remaining: u64,
}

impl BlockedTrace {
    /// The trace for an `n × n` product in `b × b` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    #[must_use]
    pub fn new(n: usize, b: usize) -> Self {
        assert!(b > 0, "tile side must be positive");
        let n64 = n as u64;
        BlockedTrace {
            n,
            b,
            n2: n64 * n64,
            i0: 0,
            j0: 0,
            k0: 0,
            i: 0,
            j: 0,
            k: 0,
            phase: 0,
            remaining: 3 * n64 * n64 * n64,
        }
    }

    /// Advances the loop nest to the next `(i, k, j)` triple, innermost
    /// (j) first, carrying into k, i, then the k0/j0/i0 block origins.
    fn advance(&mut self) {
        self.j += 1;
        if self.j < (self.j0 + self.b).min(self.n) {
            return;
        }
        self.j = self.j0;
        self.k += 1;
        if self.k < (self.k0 + self.b).min(self.n) {
            return;
        }
        self.k = self.k0;
        self.i += 1;
        if self.i < (self.i0 + self.b).min(self.n) {
            return;
        }
        self.i = self.i0;
        self.k0 += self.b;
        if self.k0 < self.n {
            self.k = self.k0;
            return;
        }
        self.k0 = 0;
        self.k = 0;
        self.j0 += self.b;
        if self.j0 < self.n {
            self.j = self.j0;
            return;
        }
        self.j0 = 0;
        self.j = 0;
        self.i0 += self.b;
        self.i = self.i0;
    }
}

impl Iterator for BlockedTrace {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let n = self.n as u64;
        let (i, j, k) = (self.i as u64, self.j as u64, self.k as u64);
        let access = match self.phase {
            0 => Access::read(i * n + k),                   // A[i][k]
            1 => Access::read(self.n2 + k * n + j),         // B[k][j]
            _ => Access::write(2 * self.n2 + i * n + j),    // C[i][j] +=
        };
        self.phase += 1;
        if self.phase == 3 {
            self.phase = 0;
            self.advance();
        }
        Some(access)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining as usize;
        (r, Some(r))
    }
}

impl ExactSizeIterator for BlockedTrace {}

/// Materialized addresses of [`NaiveTrace`] for small `n` (tests, plots).
#[must_use]
pub fn naive_address_trace(n: usize) -> Vec<u64> {
    NaiveTrace::new(n).map(|a| a.addr).collect()
}

/// Materialized addresses of [`BlockedTrace`] for small `n` (tests, plots).
#[must_use]
pub fn blocked_address_trace(n: usize, b: usize) -> Vec<u64> {
    BlockedTrace::new(n, b).map(|a| a.addr).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_side_respects_capacity() {
        assert_eq!(tile_side(3), 1);
        assert_eq!(tile_side(12), 2);
        assert_eq!(tile_side(27), 3);
        assert_eq!(tile_side(48), 4);
        assert_eq!(tile_side(2), 1); // floor, but at least 1
        for m in [3usize, 10, 100, 1000, 4096] {
            let b = tile_side(m);
            assert!(3 * b * b <= m || b == 1, "m={m}, b={b}");
        }
    }

    #[test]
    fn produces_correct_product() {
        // run() verifies internally; reaching Ok proves correctness.
        let run = MatMul.run(24, 100, 1).unwrap();
        assert_eq!(run.n, 24);
        assert!(run.execution.cost.comp_ops() > 0);
    }

    #[test]
    fn comp_ops_are_exactly_2n3() {
        for (n, m) in [(8, 27), (12, 100), (16, 768)] {
            let run = MatMul.run(n, m, 2).unwrap();
            assert_eq!(run.execution.cost.comp_ops(), 2 * (n as u64).pow(3));
        }
    }

    #[test]
    fn io_matches_analytic_model_when_blocks_divide() {
        // n divisible by b: analytic formula should be nearly exact.
        let (n, m) = (16, 12); // b = 2
        let run = MatMul.run(n, m, 3).unwrap();
        let analytic = MatMul.analytic_cost(n, m);
        let measured = run.execution.cost.io_words() as f64;
        let predicted = analytic.io_words() as f64;
        assert!(
            (measured - predicted).abs() / predicted < 0.01,
            "measured {measured}, predicted {predicted}"
        );
    }

    #[test]
    fn intensity_grows_like_sqrt_m() {
        let n = 48;
        let r_small = MatMul.run(n, 48, 4).unwrap().intensity(); // b = 4
        let r_large = MatMul.run(n, 768, 4).unwrap().intensity(); // b = 16
                                                                  // 4x the tile side should give ~4x the intensity (N >> b regime).
        let ratio = r_large / r_small;
        assert!(
            (3.0..5.0).contains(&ratio),
            "intensity ratio {ratio}, r_small {r_small}, r_large {r_large}"
        );
    }

    #[test]
    fn peak_memory_stays_within_m() {
        let run = MatMul.run(20, 300, 5).unwrap();
        assert!(run.execution.peak_memory.get() <= 300);
    }

    #[test]
    fn degenerate_parameters_rejected() {
        assert!(matches!(
            MatMul.run(0, 100, 0),
            Err(KernelError::BadParameters { .. })
        ));
        assert!(matches!(
            MatMul.run(8, 2, 0),
            Err(KernelError::MemoryTooSmall { .. })
        ));
    }

    #[test]
    fn tiny_memory_still_works() {
        // b = 1: fully streamed, worst-case I/O, still correct.
        let run = MatMul.run(6, 3, 6).unwrap();
        assert_eq!(run.execution.cost.comp_ops(), 2 * 6u64.pow(3));
        // I/O should be ~2n³: every operand fetched per scalar multiply.
        assert!(run.execution.cost.io_words() >= 2 * 6u64.pow(3));
    }

    #[test]
    fn odd_sizes_with_edge_tiles() {
        // n = 17 with b = 4 exercises ragged edge blocks.
        let run = MatMul.run(17, 48, 7).unwrap();
        assert_eq!(run.execution.cost.comp_ops(), 2 * 17u64.pow(3));
    }

    #[test]
    fn tile_side_is_exact_beyond_f64_precision() {
        // Above 2⁵³, `(m/3) as f64` rounds; the old sqrt-based tile_side
        // could round b up past the 3b² ≤ m contract. isqrt cannot.
        for b in [94_906_265usize, 94_906_266, 1 << 27, (1 << 27) + 1] {
            let m = 3 * b * b;
            assert_eq!(tile_side(m), b, "exact capacity for b = {b}");
            assert_eq!(tile_side(m - 1), b - 1, "one word short of b = {b}");
            assert_eq!(tile_side(m + 1), b);
        }
        // The invariant itself, across adversarial huge capacities.
        for m in [
            usize::MAX,
            usize::MAX - 1,
            (1usize << 53) + 1,
            3 * ((1usize << 53) + 7),
        ] {
            let b = tile_side(m);
            assert!(3 * (b as u128) * (b as u128) <= m as u128, "m = {m}");
            let b1 = b as u128 + 1;
            assert!(3 * b1 * b1 > m as u128, "b not maximal for m = {m}");
        }
    }

    #[test]
    fn streaming_traces_report_exact_lengths() {
        let mut t = NaiveTrace::new(5);
        assert_eq!(t.len(), 3 * 5 * 5 * 5);
        let mut left = t.len();
        while t.next().is_some() {
            left -= 1;
            assert_eq!(t.len(), left);
        }
        let b = BlockedTrace::new(7, 3);
        assert_eq!(b.len(), 3 * 7 * 7 * 7);
        assert_eq!(b.count(), 3 * 7 * 7 * 7);
        assert_eq!(NaiveTrace::new(0).len(), 0);
        assert_eq!(BlockedTrace::new(0, 2).next(), None);
    }

    #[test]
    #[allow(clippy::iter_nth_zero)] // nth(0) is a case under test, not an idiom slip
    fn naive_trace_nth_matches_linear_iteration() {
        let n = 5;
        let full = naive_address_trace(n);
        // skip() defers to the positional nth: every range slice must
        // equal the materialized slice, including empty and out-of-range.
        for start in [0usize, 1, 2, 7, 100, full.len() - 1, full.len(), full.len() + 9] {
            let got: Vec<u64> =
                NaiveTrace::new(n).skip(start).take(11).map(|a| a.addr).collect();
            let want: Vec<u64> = full.iter().skip(start).take(11).copied().collect();
            assert_eq!(got, want, "start = {start}");
        }
        // Direct nth calls, repeated on one iterator.
        let mut t = NaiveTrace::new(n);
        assert_eq!(t.nth(10).map(|a| a.addr), Some(full[10]));
        assert_eq!(t.nth(0).map(|a| a.addr), Some(full[11]));
        assert_eq!(t.nth(5).map(|a| a.addr), Some(full[17]));
        assert_eq!(t.len(), full.len() - 18);
        assert_eq!(NaiveTrace::new(0).nth(3), None);
    }

    #[test]
    fn naive_trace_has_expected_length_and_range() {
        let n = 4;
        let trace = naive_address_trace(n);
        assert_eq!(trace.len(), 3 * n * n * n);
        assert!(trace.iter().all(|&a| a < 3 * (n * n) as u64));
    }

    #[test]
    fn blocked_trace_touches_same_addresses() {
        let n = 6;
        let mut naive: Vec<u64> = naive_address_trace(n);
        let mut blocked: Vec<u64> = blocked_address_trace(n, 2);
        naive.sort_unstable();
        blocked.sort_unstable();
        // Same multiset of accesses, different order.
        assert_eq!(naive, blocked);
    }
}
