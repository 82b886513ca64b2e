//! Block-partitioned parallel kernels: the paper's decompositions run on a
//! measured multi-PE machine.
//!
//! Each [`ParallelKernel`] distributes one of the `balance-kernels`
//! computations across the PEs of a [`ParallelMachine`], keeping the two
//! traffic classes separate: words that cross the machine boundary are
//! external I/O, words that move between PEs are communication. The
//! partitionings are the classical ones the paper cites as making §4
//! attainable:
//!
//! * [`ParMatMul`] — the distributed big-tile algorithm: the machine
//!   blocks for its **aggregate** memory (`3·B²/p ≤ M` per PE, so
//!   `B ≈ √(p·M/3)`), holding each `B × B` tile of `A`, `B`, `C` as
//!   row-slabs spread over the PEs; the `B`-operand slabs circulate in a
//!   ring ([`ParallelMachine::rotate_left`]) so every PE sees every slab —
//!   external traffic is one tile-load per operand per step, exactly as if
//!   one PE owned the whole aggregate memory. Aggregate intensity is
//!   therefore `Θ(√(p·M))`: the measured form of `M_new = α²·M_old`.
//! * [`ParTranspose`] — embarrassingly parallel row-panels, zero
//!   communication, constant intensity ½ at any `p` and `M`: the §3.6
//!   "impossible" verdict survives parallelism (no arrangement of PEs
//!   rescues an I/O-bounded computation).
//! * [`ParGrid2d`] — the §3.3 arrangement made literal: the PEs jointly
//!   hold an `S × S` super-tile of a periodic grid as row slabs;
//!   slab-boundary halo rows are **communication**, super-tile-surface
//!   halos are external I/O. Aggregate intensity is `Θ(√(p·M))` — the 2-d
//!   law on the aggregate memory.
//!
//! A 1-PE machine runs the *identical* transfer-and-operation sequence as
//! the serial [`Kernel::run_on`] path (same buffers, same loop structure,
//! same addresses), so its [`Execution`](balance_core::Execution) is
//! bit-identical — pinned by property test across the registry.

use balance_core::HierarchySpec;
use balance_kernels::error::KernelError;
use balance_kernels::matrix::MatrixHandle;
use balance_kernels::{reference, verify, workload, Kernel, Verify};
use balance_machine::{BufferId, CapacityProfile, ExternalStore, MachineError};

use crate::pmachine::{ParallelExecution, ParallelMachine, Topology};

/// A one-replay description of a machine's external I/O as a pure LRU
/// function of its pooled memory: the aggregate trace's
/// [`CapacityProfile`] plus the traced computation's operation count.
///
/// Kernels whose external traffic *is* such a function (no communication
/// pricing, no partition-dependent blocking — e.g. the one-touch
/// [`ParTranspose`]) expose it through
/// [`ParallelKernel::io_profile`]; the memory-at-balance search
/// ([`crate::measure::measured_balance_memory`]) then answers from the
/// profile's exact inverse instead of re-running the kernel.
#[derive(Debug, Clone)]
pub struct ExternalIoProfile {
    comp_ops: u64,
    profile: CapacityProfile,
}

impl ExternalIoProfile {
    /// Packages a replayed profile with its computation's op count.
    #[must_use]
    pub fn new(comp_ops: u64, profile: CapacityProfile) -> Self {
        ExternalIoProfile { comp_ops, profile }
    }

    /// The smallest pooled machine memory, in words, at which the
    /// external intensity reaches `target` op/word — the quantity the §4
    /// balance condition reads — or `None` when no memory does. Exact:
    /// [`CapacityProfile::min_capacity_reaching`] on the op count.
    #[must_use]
    pub fn min_total_memory_reaching(&self, target: f64) -> Option<u64> {
        self.profile.min_capacity_reaching(self.comp_ops, target)
    }

    /// The underlying capacity profile.
    #[must_use]
    pub fn profile(&self) -> &CapacityProfile {
        &self.profile
    }
}

/// The measured result of one verified parallel kernel run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelRun {
    /// Problem size (kernel-specific meaning, as in the serial registry).
    pub n: usize,
    /// Local memory available *per PE*, in words.
    pub per_pe_m: usize,
    /// Per-PE and machine-level measurements.
    pub execution: ParallelExecution,
}

impl ParallelRun {
    /// The machine's external operational intensity (ops per external
    /// word) — what the §4 balance condition reads.
    #[must_use]
    pub fn external_intensity(&self) -> f64 {
        self.execution.external_intensity()
    }

    /// Total per-PE memory summed over the machine, in words.
    #[must_use]
    pub fn total_memory(&self) -> u64 {
        self.per_pe_m as u64 * self.execution.topology.pe_count()
    }
}

/// One computation distributed over a [`ParallelMachine`].
///
/// Implementations guarantee the serial contract (§3 decomposition within
/// each PE's level-0 capacity, verified output, every word and operation
/// counted) plus two parallel ones:
///
/// * external I/O and inter-PE communication are never conflated;
/// * a 1-PE machine reproduces the serial kernel's execution bit for bit.
pub trait ParallelKernel: Sync {
    /// Short identifier (matches the serial kernel's name).
    fn name(&self) -> &'static str;

    /// One-line description of the partitioning.
    fn description(&self) -> &'static str;

    /// The serial single-PE counterpart (the `p = 1` reference semantics).
    fn serial(&self) -> Box<dyn Kernel>;

    /// The smallest per-PE memory (words) for which `run_on` is supported
    /// on `topology` — partition floors (e.g. one super-tile row per PE)
    /// scale with the machine, not just the problem.
    fn min_memory_per_pe(&self, n: usize, topology: Topology) -> usize;

    /// Runs the distributed computation on a fresh machine of shape
    /// `topology`, each PE owning the memory system `per_pe`.
    ///
    /// # Errors
    ///
    /// As the serial [`Kernel::run_on`]: bad parameters, undersized
    /// memories, machine capacity violations, verification failures.
    fn run_on(
        &self,
        topology: Topology,
        n: usize,
        per_pe: &HierarchySpec,
        seed: u64,
        verify: Verify,
    ) -> Result<ParallelRun, KernelError>;

    /// A one-replay [`ExternalIoProfile`], when this kernel's external
    /// I/O is a pure LRU function of the machine's pooled memory.
    ///
    /// The default is `None`: comm-priced kernels (matmul's ring-rotated
    /// slabs, grid's halo exchange) re-block per memory size, so no single
    /// trace stands in for their external traffic — the memory-at-balance
    /// search falls back to replaying the kernel for them.
    fn io_profile(&self, n: usize, topology: Topology) -> Option<ExternalIoProfile> {
        let _ = (n, topology);
        None
    }
}

/// All parallel kernels, serial-registry order.
#[must_use]
pub fn parallel_kernels() -> Vec<Box<dyn ParallelKernel>> {
    vec![
        Box::new(ParMatMul),
        Box::new(ParTranspose),
        Box::new(ParGrid2d),
    ]
}

/// The balanced contiguous chunk of `total` items PE `q` of `p` owns:
/// `[start, end)`, sizes differing by at most one, empty when `total < p`
/// for the trailing PEs.
fn chunk(total: usize, p: usize, q: usize) -> (usize, usize) {
    (q * total / p, (q + 1) * total / p)
}

/// Machine-routed analogue of `balance_kernels::matrix::load_block`: PE
/// `q` loads the `rows × cols` block at `(r0, c0)` row by row (identical
/// per-row transfers, so a 1-PE machine is indistinguishable from the
/// serial path).
#[allow(clippy::too_many_arguments)] // (r0, c0, rows, cols) is a block address
fn load_block_on(
    machine: &mut ParallelMachine,
    q: usize,
    store: &ExternalStore,
    mat: &MatrixHandle,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    buf: BufferId,
) -> Result<(), MachineError> {
    for r in 0..rows {
        let region = mat.row_segment(r0 + r, c0, cols)?;
        machine.load(q, store, region, buf, r * cols)?;
    }
    Ok(())
}

/// Machine-routed analogue of `balance_kernels::matrix::store_block`.
#[allow(clippy::too_many_arguments)] // (r0, c0, rows, cols) is a block address
fn store_block_on(
    machine: &mut ParallelMachine,
    q: usize,
    store: &mut ExternalStore,
    mat: &MatrixHandle,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    buf: BufferId,
) -> Result<(), MachineError> {
    for r in 0..rows {
        let region = mat.row_segment(r0 + r, c0, cols)?;
        machine.store(q, store, buf, r * cols, region)?;
    }
    Ok(())
}

/// Distributed big-tile matrix multiplication on `p` PEs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParMatMul;

/// The largest aggregate tile side `B` with `3·⌈B/p⌉·B ≤ m` per PE — the
/// machine blocks for its *total* memory (`B ≈ √(p·m/3)`), each PE holding
/// a `⌈B/p⌉ × B` slab of each of the three tiles. With `p = 1` this is
/// exactly the serial `tile_side(m)`.
#[must_use]
pub fn aggregate_tile_side(m: usize, p: usize) -> usize {
    let mut b = 1usize;
    while 3 * (b + 1).div_ceil(p) * (b + 1) <= m {
        b += 1;
    }
    b
}

impl ParallelKernel for ParMatMul {
    fn name(&self) -> &'static str {
        "matmul"
    }

    fn description(&self) -> &'static str {
        "N×N matmul; B×B aggregate tiles as row slabs, B-operand slabs ring-rotated (§4 via §3.1)"
    }

    fn serial(&self) -> Box<dyn Kernel> {
        Box::new(balance_kernels::matmul::MatMul)
    }

    fn min_memory_per_pe(&self, _n: usize, _topology: Topology) -> usize {
        3 // one 1×1 slab of each tile
    }

    // `q` is simultaneously a PE id (machine calls) and a per-PE buffer
    // index; an iterator would obscure the lock-step structure.
    #[allow(clippy::needless_range_loop)]
    fn run_on(
        &self,
        topology: Topology,
        n: usize,
        per_pe: &HierarchySpec,
        seed: u64,
        verify: Verify,
    ) -> Result<ParallelRun, KernelError> {
        let m = per_pe.local_capacity_words();
        if n == 0 {
            return Err(KernelError::BadParameters {
                reason: "matrix size must be positive".into(),
            });
        }
        if m < self.min_memory_per_pe(n, topology) {
            return Err(KernelError::MemoryTooSmall {
                have: m,
                need: self.min_memory_per_pe(n, topology),
            });
        }
        let mut machine = ParallelMachine::new(topology, per_pe);
        let p = machine.pe_count();
        let b = aggregate_tile_side(m, p).min(n);
        let rmax = b.div_ceil(p);

        let mut store = ExternalStore::new();
        let a_data = workload::random_matrix(n, seed);
        let b_data = workload::random_matrix(n, seed ^ 0x9e37_79b9);
        let a = MatrixHandle::new(store.alloc_from(&a_data), n, n);
        let bm = MatrixHandle::new(store.alloc_from(&b_data), n, n);
        let c = MatrixHandle::new(store.alloc(n * n), n, n);

        let mut a_bufs = Vec::with_capacity(p);
        let mut b_bufs = Vec::with_capacity(p);
        let mut c_bufs = Vec::with_capacity(p);
        for q in 0..p {
            a_bufs.push(machine.alloc(q, rmax * b)?);
            b_bufs.push(machine.alloc(q, rmax * b)?);
            c_bufs.push(machine.alloc(q, rmax * b)?);
        }

        for i0 in (0..n).step_by(b) {
            let ib = b.min(n - i0);
            for j0 in (0..n).step_by(b) {
                let jb = b.min(n - j0);
                // Zero the accumulator slabs.
                for q in 0..p {
                    let (r0, r1) = chunk(ib, p, q);
                    machine.buf_mut(q, c_bufs[q])?[..(r1 - r0) * jb].fill(0.0);
                }
                for k0 in (0..n).step_by(b) {
                    let kb = b.min(n - k0);
                    // A tile: each PE loads its i-row slab from outside.
                    for q in 0..p {
                        let (r0, r1) = chunk(ib, p, q);
                        load_block_on(
                            &mut machine, q, &store, &a, i0 + r0, k0, r1 - r0, kb, a_bufs[q],
                        )?;
                    }
                    // B tile: each PE loads its k-row slab from outside —
                    // one external copy of the tile for the whole machine.
                    for q in 0..p {
                        let (s0, s1) = chunk(kb, p, q);
                        load_block_on(
                            &mut machine, q, &store, &bm, k0 + s0, j0, s1 - s0, jb, b_bufs[q],
                        )?;
                    }
                    // Ring multiply: at step t, PE q holds the slab PE
                    // (q+t) mod p loaded, covering k-rows chunk(kb, p, o).
                    for t in 0..p {
                        for q in 0..p {
                            let o = (q + t) % p;
                            let (s0, s1) = chunk(kb, p, o);
                            let (r0, r1) = chunk(ib, p, q);
                            let (rows, ks) = (r1 - r0, s1 - s0);
                            if rows == 0 || ks == 0 {
                                continue;
                            }
                            machine.update(q, c_bufs[q], &[a_bufs[q], b_bufs[q]], |ct, srcs| {
                                let (at, bt) = (srcs[0], srcs[1]);
                                for i in 0..rows {
                                    for k in 0..ks {
                                        let aik = at[i * kb + (s0 + k)];
                                        for j in 0..jb {
                                            ct[i * jb + j] += aik * bt[k * jb + j];
                                        }
                                    }
                                }
                            })?;
                            machine.count_ops(q, 2 * (rows * ks * jb) as u64);
                        }
                        if t + 1 < p {
                            let lens: Vec<usize> = (0..p)
                                .map(|q| {
                                    let o = (q + t) % p;
                                    let (s0, s1) = chunk(kb, p, o);
                                    (s1 - s0) * jb
                                })
                                .collect();
                            machine.rotate_left(&b_bufs, &lens)?;
                        }
                    }
                }
                // C tile: each PE writes its row slab to the outside.
                for q in 0..p {
                    let (r0, r1) = chunk(ib, p, q);
                    store_block_on(
                        &mut machine, q, &mut store, &c, i0 + r0, j0, r1 - r0, jb, c_bufs[q],
                    )?;
                }
            }
        }

        match verify {
            Verify::Full => {
                let want = reference::matmul(&a_data, &b_data, n);
                let got = c.snapshot(&store);
                let err = reference::max_abs_diff(&want, &got);
                let tol = 1e-9 * (n as f64);
                if err > tol {
                    return Err(KernelError::VerificationFailed {
                        what: "parallel matmul",
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

        Ok(ParallelRun {
            n,
            per_pe_m: m,
            execution: machine.execution(),
        })
    }
}

/// Row-panel parallel transpose: the I/O-bounded negative control.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParTranspose;

impl ParallelKernel for ParTranspose {
    fn name(&self) -> &'static str {
        "transpose"
    }

    fn io_profile(&self, n: usize, _topology: Topology) -> Option<ExternalIoProfile> {
        // Transpose touches every word of A and T exactly once at any
        // blocking and any PE count: the aggregate trace is one pass over
        // the dense `[0, 2n²)` range, so external traffic is all
        // compulsory — 2n² at every pooled memory. The serial kernel's
        // analytic tier carries exactly that one-touch histogram in
        // closed form (registry-pinned equal to the replayed engine), so
        // no replay, no O(n²) tables, and no address bound to outgrow.
        // Ops: one move per element.
        let n64 = n as u64;
        let profile = balance_kernels::transpose::Transpose.analytic_profile(n)?;
        Some(ExternalIoProfile::new(n64 * n64, profile.into_profile()))
    }

    fn description(&self) -> &'static str {
        "blocked N×N transpose, tile-rows dealt round-robin; zero comm, intensity ½ at any p"
    }

    fn serial(&self) -> Box<dyn Kernel> {
        Box::new(balance_kernels::transpose::Transpose)
    }

    fn min_memory_per_pe(&self, _n: usize, _topology: Topology) -> usize {
        1
    }

    fn run_on(
        &self,
        topology: Topology,
        n: usize,
        per_pe: &HierarchySpec,
        seed: u64,
        verify: Verify,
    ) -> Result<ParallelRun, KernelError> {
        // No cheap randomized check exists: verify fully under any policy.
        let _ = verify;
        let m = per_pe.local_capacity_words();
        if n == 0 {
            return Err(KernelError::BadParameters {
                reason: "matrix size must be positive".into(),
            });
        }
        if m < self.min_memory_per_pe(n, topology) {
            return Err(KernelError::MemoryTooSmall {
                have: m,
                need: self.min_memory_per_pe(n, topology),
            });
        }
        let b = m.isqrt().clamp(1, n);
        let mut machine = ParallelMachine::new(topology, per_pe);
        let p = machine.pe_count();

        let a_data = workload::random_matrix(n, seed);
        let mut store = ExternalStore::new();
        let a = MatrixHandle::new(store.alloc_from(&a_data), n, n);
        let t = MatrixHandle::new(store.alloc(n * n), n, n);

        let tiles: Vec<BufferId> = (0..p)
            .map(|q| machine.alloc(q, b * b))
            .collect::<Result<_, _>>()?;

        for (bi, i0) in (0..n).step_by(b).enumerate() {
            let q = bi % p; // deal tile-rows round-robin across the PEs
            let ib = b.min(n - i0);
            for j0 in (0..n).step_by(b) {
                let jb = b.min(n - j0);
                load_block_on(&mut machine, q, &store, &a, i0, j0, ib, jb, tiles[q])?;
                let ops = {
                    let buf = machine.buf_mut(q, tiles[q])?;
                    let mut scratch = vec![0.0; ib * jb];
                    for r in 0..ib {
                        for c in 0..jb {
                            scratch[c * ib + r] = buf[r * jb + c];
                        }
                    }
                    buf[..ib * jb].copy_from_slice(&scratch);
                    (ib * jb) as u64
                };
                machine.count_ops(q, ops);
                store_block_on(&mut machine, q, &mut store, &t, j0, i0, jb, ib, tiles[q])?;
            }
        }

        let got = t.snapshot(&store);
        for i in 0..n {
            for j in 0..n {
                if got[j * n + i] != a_data[i * n + j] {
                    return Err(KernelError::VerificationFailed {
                        what: "parallel transpose",
                        max_error: (got[j * n + i] - a_data[i * n + j]).abs(),
                        tolerance: 0.0,
                    });
                }
            }
        }

        Ok(ParallelRun {
            n,
            per_pe_m: m,
            execution: machine.execution(),
        })
    }
}

/// Slab-partitioned 2-d Jacobi relaxation with halo exchange.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParGrid2d;

impl ParGrid2d {
    /// The largest super-tile side `S` whose row slabs fit each PE:
    /// `(⌈S/p⌉+2)·(S+2) + ⌈S/p⌉·S ≤ m` (halo buffer plus resident slab).
    /// With `p = 1` this is the serial `GridRelaxation::tile_side` for
    /// `d = 2`.
    #[must_use]
    pub fn super_tile_side(m: usize, p: usize) -> usize {
        let fits = |s: usize| {
            let rows = s.div_ceil(p);
            (rows + 2) * (s + 2) + rows * s <= m
        };
        let mut s = 1usize;
        while fits(s + 1) {
            s += 1;
        }
        s
    }
}

impl ParallelKernel for ParGrid2d {
    fn name(&self) -> &'static str {
        "grid2d"
    }

    fn description(&self) -> &'static str {
        "2-d Jacobi; PEs hold an S×S super-tile as row slabs, slab halos are comm, surface is I/O"
    }

    fn serial(&self) -> Box<dyn Kernel> {
        Box::new(balance_kernels::grid::GridRelaxation::new(2))
    }

    fn min_memory_per_pe(&self, _n: usize, topology: Topology) -> usize {
        // S = p (one super-tile row per PE): a (1+2)×(p+2) halo buffer
        // plus the p-word slab — 4p + 6; S = 1 on one PE gives the
        // serial floor of 10.
        let p = usize::try_from(topology.pe_count()).unwrap_or(usize::MAX);
        (4 * p + 6).max(10)
    }

    // `q` is simultaneously a PE id (machine calls) and a per-PE buffer
    // index; an iterator would obscure the lock-step phase structure.
    #[allow(clippy::needless_range_loop)]
    fn run_on(
        &self,
        topology: Topology,
        n: usize,
        per_pe: &HierarchySpec,
        seed: u64,
        verify: Verify,
    ) -> Result<ParallelRun, KernelError> {
        // No cheap randomized check exists: verify fully under any policy.
        let _ = verify;
        let m = per_pe.local_capacity_words();
        if n == 0 {
            return Err(KernelError::BadParameters {
                reason: "iteration count must be positive".into(),
            });
        }
        if m < self.min_memory_per_pe(n, topology) {
            return Err(KernelError::MemoryTooSmall {
                have: m,
                need: self.min_memory_per_pe(n, topology),
            });
        }
        let mut machine = ParallelMachine::new(topology, per_pe);
        let p = machine.pe_count();
        let s = ParGrid2d::super_tile_side(m, p);
        if s < p {
            return Err(KernelError::BadParameters {
                reason: format!(
                    "{p} PEs need a super-tile of at least {p} rows, got S = {s}; \
                     enlarge the per-PE memory or shrink the machine"
                ),
            });
        }
        let g = 2 * s; // full periodic grid side; the machine owns one quadrant
        let ew = s + 2; // halo-extended slab width

        let mut state = workload::random_grid(g * g, seed);
        let mut store = ExternalStore::new();
        let grid_region = store.alloc_from(&state);
        let out_region = store.alloc(s * s);

        let rows_of = |q: usize| chunk(s, p, q);
        let mut tiles = Vec::with_capacity(p);
        let mut exts = Vec::with_capacity(p);
        for q in 0..p {
            let (r0, r1) = rows_of(q);
            tiles.push(machine.alloc(q, (r1 - r0) * s)?);
            exts.push(machine.alloc(q, (r1 - r0 + 2) * ew)?);
        }

        // Initial slab load: the PEs' permanently resident data.
        for q in 0..p {
            let (r0, r1) = rows_of(q);
            for r in 0..r1 - r0 {
                let region = grid_region
                    .at((r0 + r) * g, s)
                    .expect("slab row in range");
                machine.load(q, &store, region, tiles[q], r * s)?;
            }
        }

        let weight = 1.0 / 5.0;
        for _t in 0..n {
            // 1. Copy each resident slab into its halo buffer's interior
            //    (local move: free in the information model).
            for q in 0..p {
                let (r0, r1) = rows_of(q);
                let rows = r1 - r0;
                machine.update(q, exts[q], &[tiles[q]], |e, srcs| {
                    let tl = srcs[0];
                    for r in 0..rows {
                        for c in 0..s {
                            e[(r + 1) * ew + (c + 1)] = tl[r * s + c];
                        }
                    }
                })?;
            }
            // 2. Fill the halos — all reads against the *previous*
            //    iteration's slabs, so every PE's halo is filled before
            //    any PE updates. Machine-edge halos come from the outside
            //    world (external I/O, periodic wrap); slab-boundary halos
            //    come from the neighboring PE (communication).
            for q in 0..p {
                let (r0, r1) = rows_of(q);
                let rows = r1 - r0;
                // Top halo row (contiguous: grid row g-1, cols 0..s — one
                // region load; word counts and addresses are identical to
                // per-word loads, so serial bit-identity is unaffected).
                if q == 0 {
                    let region = grid_region.at((g - 1) * g, s).expect("halo in range");
                    machine.load(q, &store, region, exts[q], 1)?;
                } else {
                    let (p0, p1) = rows_of(q - 1);
                    machine.send(q - 1, tiles[q - 1], (p1 - p0 - 1) * s, q, exts[q], 1, s)?;
                }
                // Bottom halo row (contiguous: grid row s, cols 0..s).
                if q == p - 1 {
                    let region = grid_region.at(s * g, s).expect("halo in range");
                    machine.load(q, &store, region, exts[q], (rows + 1) * ew + 1)?;
                } else {
                    machine.send(q + 1, tiles[q + 1], 0, q, exts[q], (rows + 1) * ew + 1, s)?;
                }
                // Left and right halo columns: always the super-tile
                // surface, i.e. external.
                for r in 0..rows {
                    let region = grid_region
                        .at((r0 + r) * g + (g - 1), 1)
                        .expect("halo in range");
                    machine.load(q, &store, region, exts[q], (r + 1) * ew)?;
                }
                for r in 0..rows {
                    let region = grid_region
                        .at((r0 + r) * g + s, 1)
                        .expect("halo in range");
                    machine.load(q, &store, region, exts[q], (r + 1) * ew + s + 1)?;
                }
            }
            // 3. Five-point update of every slab (counted ops).
            for q in 0..p {
                let (r0, r1) = rows_of(q);
                let rows = r1 - r0;
                machine.update(q, tiles[q], &[exts[q]], |tl, srcs| {
                    let e = srcs[0];
                    for r in 0..rows {
                        for c in 0..s {
                            let idx = (r + 1) * ew + (c + 1);
                            let mut acc = e[idx];
                            acc += e[idx + ew] + e[idx - ew];
                            acc += e[idx + 1] + e[idx - 1];
                            tl[r * s + c] = acc * weight;
                        }
                    }
                })?;
                machine.count_ops(q, (5 * rows * s) as u64);
            }
            // 4. The rest of the world advances one step (uncounted: that
            //    is the surrounding machines' work).
            state = reference::jacobi_step(&state, &[g, g]);
            store.slice_mut(grid_region).copy_from_slice(&state);
        }

        // Write the final slabs out (counted).
        for q in 0..p {
            let (r0, r1) = rows_of(q);
            for r in 0..r1 - r0 {
                let region = out_region.at((r0 + r) * s, s).expect("out row in range");
                machine.store(q, &mut store, tiles[q], r * s, region)?;
            }
        }

        // Verify against the reference grid's super-tile region.
        let got = store.slice(out_region);
        let mut err = 0.0f64;
        for r in 0..s {
            for c in 0..s {
                err = err.max((got[r * s + c] - state[r * g + c]).abs());
            }
        }
        let tol = 1e-12;
        if err > tol {
            return Err(KernelError::VerificationFailed {
                what: "parallel grid relaxation",
                max_error: err,
                tolerance: tol,
            });
        }

        Ok(ParallelRun {
            n,
            per_pe_m: m,
            execution: machine.execution(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(m: usize) -> HierarchySpec {
        HierarchySpec::flat_words(m)
    }

    #[test]
    fn aggregate_tile_side_matches_serial_at_one_pe() {
        for m in [3usize, 12, 27, 48, 100, 1000, 4096] {
            assert_eq!(
                aggregate_tile_side(m, 1),
                balance_kernels::matmul::tile_side(m),
                "m = {m}"
            );
        }
        // p PEs pool their memory: B grows ~√p-fold.
        assert_eq!(aggregate_tile_side(48, 1), 4);
        assert_eq!(aggregate_tile_side(48, 4), 8); // 3·2·8 = 48 ≤ 48
        for (m, p) in [(48usize, 4usize), (100, 3), (300, 7)] {
            let b = aggregate_tile_side(m, p);
            assert!(3 * b.div_ceil(p) * b <= m);
            assert!(3 * (b + 1).div_ceil(p) * (b + 1) > m);
        }
    }

    #[test]
    fn super_tile_side_matches_serial_at_one_pe() {
        let serial = balance_kernels::grid::GridRelaxation::new(2);
        for m in [10usize, 52, 64, 100, 1024] {
            assert_eq!(ParGrid2d::super_tile_side(m, 1), serial.tile_side(m), "m = {m}");
        }
    }

    #[test]
    fn parallel_matmul_is_verified_across_shapes() {
        for (p, n, m) in [(1usize, 12, 27), (2, 12, 27), (3, 17, 48), (4, 16, 12)] {
            let topo = Topology::linear(p as u64).unwrap();
            let run = ParMatMul.run_on(topo, n, &flat(m), 7, Verify::Full).unwrap();
            assert_eq!(
                run.execution.comp_ops(),
                2 * (n as u64).pow(3),
                "p={p} n={n} m={m}"
            );
            assert!(run.execution.is_conserved());
            // Communication exists iff the machine has partners and the
            // tile actually spans multiple slabs.
            if p == 1 {
                assert_eq!(run.execution.comm_words, 0);
            }
        }
    }

    #[test]
    fn parallel_matmul_pools_memory_into_intensity() {
        // Fixed per-PE memory: more PEs -> bigger aggregate tile -> higher
        // external intensity (the measured §4.1 walk).
        let n = 24;
        let r1 = ParMatMul
            .run_on(Topology::linear(1).unwrap(), n, &flat(48), 3, Verify::Full)
            .unwrap()
            .external_intensity();
        let r4 = ParMatMul
            .run_on(Topology::linear(4).unwrap(), n, &flat(48), 3, Verify::Full)
            .unwrap()
            .external_intensity();
        assert!(
            r4 > 1.5 * r1,
            "4 PEs should raise aggregate intensity: {r1} -> {r4}"
        );
    }

    #[test]
    fn parallel_matmul_mesh_runs_too() {
        let topo = Topology::mesh(2).unwrap();
        let run = ParMatMul.run_on(topo, 16, &flat(27), 5, Verify::Full).unwrap();
        assert_eq!(run.execution.per_pe.len(), 4);
        assert!(run.execution.is_conserved());
    }

    #[test]
    fn parallel_transpose_keeps_constant_intensity() {
        for p in [1usize, 2, 4] {
            let topo = Topology::linear(p as u64).unwrap();
            let run = ParTranspose
                .run_on(topo, 20, &flat(64), 2, Verify::Full)
                .unwrap();
            assert_eq!(run.external_intensity(), 0.5, "p = {p}");
            assert_eq!(run.execution.comm_words, 0);
            assert!(run.execution.is_conserved());
        }
    }

    #[test]
    fn parallel_grid_verifies_and_separates_traffic() {
        for p in [1usize, 2, 3] {
            let topo = Topology::linear(p as u64).unwrap();
            let run = ParGrid2d
                .run_on(topo, 4, &flat(100), 11, Verify::Full)
                .unwrap();
            let s = ParGrid2d::super_tile_side(100, p);
            assert_eq!(
                run.execution.comp_ops(),
                (4 * 5 * s * s) as u64,
                "p = {p}, S = {s}"
            );
            // Halo rows between slabs are comm: 2(p-1)·S per iteration.
            assert_eq!(
                run.execution.comm_words,
                (4 * 2 * (p - 1) * s) as u64,
                "p = {p}"
            );
            assert!(run.execution.is_conserved());
        }
    }

    #[test]
    fn grid_rejects_more_pes_than_rows() {
        // The per-topology minimum (4p + 6) rejects a machine whose
        // super-tile could not give every PE a row.
        let topo = Topology::linear(4).unwrap();
        assert_eq!(ParGrid2d.min_memory_per_pe(2, topo), 22);
        let err = ParGrid2d
            .run_on(topo, 2, &flat(16), 0, Verify::Full)
            .unwrap_err();
        assert!(matches!(err, KernelError::MemoryTooSmall { .. }), "{err}");
        // At exactly the minimum, the partition works: S = p.
        let run = ParGrid2d.run_on(topo, 2, &flat(22), 0, Verify::Full).unwrap();
        assert_eq!(ParGrid2d::super_tile_side(22, 4), 4);
        assert!(run.execution.is_conserved());
        // The serial floor is unchanged on one PE.
        assert_eq!(
            ParGrid2d.min_memory_per_pe(2, Topology::linear(1).unwrap()),
            10
        );
    }

    #[test]
    fn degenerate_parameters_rejected() {
        let topo = Topology::linear(2).unwrap();
        assert!(matches!(
            ParMatMul.run_on(topo, 0, &flat(100), 0, Verify::Full),
            Err(KernelError::BadParameters { .. })
        ));
        assert!(matches!(
            ParMatMul.run_on(topo, 8, &flat(2), 0, Verify::Full),
            Err(KernelError::MemoryTooSmall { .. })
        ));
        assert!(matches!(
            ParTranspose.run_on(topo, 0, &flat(4), 0, Verify::Full),
            Err(KernelError::BadParameters { .. })
        ));
        assert!(matches!(
            ParGrid2d.run_on(topo, 0, &flat(100), 0, Verify::Full),
            Err(KernelError::BadParameters { .. })
        ));
        assert!(matches!(
            ParGrid2d.run_on(topo, 1, &flat(5), 0, Verify::Full),
            Err(KernelError::MemoryTooSmall { .. })
        ));
    }

    #[test]
    fn registry_names_match_serial_counterparts() {
        for k in parallel_kernels() {
            assert_eq!(k.name(), k.serial().name(), "registry pairing");
            assert!(!k.description().is_empty());
        }
    }
}
