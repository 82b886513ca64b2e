//! The measured multi-PE machine: `p` counting PEs behind one I/O boundary.
//!
//! Sections 4.1–4.2 of the paper treat a processor array as "a particular
//! method of increasing the computation bandwidth of a PE": the collection
//! is one big PE with `p`-fold (linear array) or `p²`-fold (mesh) compute,
//! whose I/O bandwidth grows not at all (linear) or only `p`-fold (mesh
//! perimeter). [`Topology`] is that arrangement, once: it carries the
//! *analytic* consequences — the aggregate PE, `α`, and the closed-form
//! memory a growth law demands of each PE — and this module makes it
//! **executable**: a [`ParallelMachine`] owns `p` simulated [`Pe`]s — each with its own
//! [`MemorySystem`](balance_machine::MemorySystem), flat or a full
//! [`HierarchySpec`] ladder — and counts two distinct traffic classes:
//!
//! * **external I/O** — words moved between any PE and the outside world
//!   (the machine's single logical port, the paper's `IO`); port transfers
//!   are counted per PE *and* at the machine's transfer layer, so
//!   conservation is checkable, and on hierarchy PEs the *external* figure
//!   is the outermost boundary's (outer cache levels filter port traffic);
//! * **communication** — words moved PE-to-PE inside the machine
//!   ([`ParallelMachine::send`] / [`ParallelMachine::rotate_left`]), which
//!   never cross the external boundary. Link occupancy is additionally
//!   priced in word·hops using the topology's distance metric, feeding the
//!   bisection term of `balance_roofline`'s `ParallelRoofline`.
//!
//! The distinction is the §4 story in measurable form: an arrangement is
//! architecturally interesting exactly when it converts external traffic
//! into (cheaper, scalable) internal communication — Hanlon (2015) emulates
//! a large memory with a collection of small ones on the same ledger, and
//! Silva et al. (2013) balance memory-aware parallel workers by it.

use core::fmt;

use balance_core::{
    Alpha, BalanceError, BalanceState, CostProfile, Execution, GrowthLaw, HierarchySpec, PeSpec,
    Words,
};
use balance_machine::{BufferId, ExternalStore, MachineError, Pe, Region};

/// The arrangement of the PEs: which §4 figure the machine realizes.
/// [`Topology::linear`] and [`Topology::mesh`] show how each arrangement
/// scales per-PE memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// A linearly connected array of `p` PEs (§4.1, Fig. 3): only the
    /// boundary PEs reach the outside world, so external bandwidth does
    /// not grow with `p` and `α = p`.
    Linear {
        /// Number of PEs.
        p: u64,
    },
    /// A `side × side` mesh (§4.2, Fig. 4): `side²` PEs behind a
    /// perimeter that scales the external bandwidth `side`-fold, so
    /// `α = side`.
    Mesh {
        /// Mesh side (the machine has `side²` PEs).
        side: u64,
    },
}

impl Topology {
    /// A linear array of `p ≥ 1` PEs.
    ///
    /// # Examples
    ///
    /// ```
    /// use balance_core::{GrowthLaw, Words};
    /// use balance_parallel::Topology;
    ///
    /// let array = Topology::linear(16)?;
    /// assert_eq!(array.alpha().get(), 16.0);
    ///
    /// // §4.1, matrix law: per-PE memory grows linearly with p.
    /// let per_pe = array.required_memory_per_pe(GrowthLaw::Polynomial { degree: 2.0 }, Words::new(1024))?;
    /// assert_eq!(per_pe.get(), 16 * 1024);
    /// # Ok::<(), balance_core::BalanceError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`BalanceError::InvalidQuantity`] if `p == 0`.
    pub fn linear(p: u64) -> Result<Self, BalanceError> {
        if p == 0 {
            return Err(BalanceError::InvalidQuantity {
                what: "PE count",
                value: 0.0,
            });
        }
        Ok(Topology::Linear { p })
    }

    /// A `side × side` mesh, `side ≥ 1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use balance_core::{GrowthLaw, Words};
    /// use balance_parallel::Topology;
    ///
    /// let mesh = Topology::mesh(8)?;
    ///
    /// // §4.2, matrix law: constant per-PE memory regardless of p.
    /// let law = GrowthLaw::Polynomial { degree: 2.0 };
    /// assert_eq!(mesh.required_memory_per_pe(law, Words::new(1024))?.get(), 1024);
    ///
    /// // 3-d grid law: per-PE memory grows with p.
    /// let law3 = GrowthLaw::Polynomial { degree: 3.0 };
    /// assert_eq!(mesh.required_memory_per_pe(law3, Words::new(1024))?.get(), 8 * 1024);
    /// # Ok::<(), balance_core::BalanceError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`BalanceError::InvalidQuantity`] if `side == 0`.
    pub fn mesh(side: u64) -> Result<Self, BalanceError> {
        if side == 0 {
            return Err(BalanceError::InvalidQuantity {
                what: "mesh side",
                value: 0.0,
            });
        }
        Ok(Topology::Mesh { side })
    }

    /// Total number of PEs in the machine.
    #[must_use]
    pub fn pe_count(&self) -> u64 {
        match *self {
            Topology::Linear { p } => p,
            Topology::Mesh { side } => side * side,
        }
    }

    /// The rebalance factor the arrangement imposes: compute gain over
    /// I/O gain (`p` for the linear array, `side` for the mesh).
    #[must_use]
    pub fn alpha(&self) -> Alpha {
        let a = match *self {
            Topology::Linear { p } => p,
            Topology::Mesh { side } => side,
        };
        Alpha::new(a as f64).expect("validated >= 1")
    }

    /// How many links a bisection of the machine cuts: 1 for the linear
    /// array, `side` for the mesh. This bounds the machine's internal
    /// all-to-all bandwidth in the parallel roofline.
    #[must_use]
    pub fn bisection_links(&self) -> u64 {
        match *self {
            Topology::Linear { .. } => 1,
            Topology::Mesh { side } => side,
        }
    }

    /// Hop distance between PEs `a` and `b`: index distance on the linear
    /// array, Manhattan distance on the mesh.
    ///
    /// Mesh indices are laid out **boustrophedon** (serpentine: even rows
    /// left-to-right, odd rows right-to-left), so consecutive indices are
    /// always physically adjacent — the natural embedding for the slab
    /// and ring algorithms the parallel kernels use, and the one that
    /// prices their neighbor/rotation communication at one hop instead of
    /// a row-major row-wrap penalty.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range (harness misuse).
    #[must_use]
    pub fn hops(&self, a: usize, b: usize) -> u64 {
        let n = usize::try_from(self.pe_count()).expect("PE count fits usize");
        assert!(a < n && b < n, "PE index out of range");
        match *self {
            Topology::Linear { .. } => a.abs_diff(b) as u64,
            Topology::Mesh { side } => {
                let side = side as usize;
                let snake = |i: usize| {
                    let (r, c) = (i / side, i % side);
                    (r, if r % 2 == 0 { c } else { side - 1 - c })
                };
                let ((ar, ac), (br, bc)) = (snake(a), snake(b));
                (ar.abs_diff(br) + ac.abs_diff(bc)) as u64
            }
        }
    }

    /// The machine viewed as one PE built from `cell`s: `p`-fold compute
    /// and memory behind unchanged I/O for the linear array (only the
    /// boundary PEs reach the outside world), `side²`-fold compute and
    /// memory behind `side`-fold I/O for the mesh (its perimeter).
    ///
    /// # Errors
    ///
    /// [`BalanceError::MemoryOverflow`] for absurd sizes.
    pub fn aggregate(&self, cell: PeSpec) -> Result<PeSpec, BalanceError> {
        match *self {
            Topology::Linear { p } => cell.aggregate(p),
            Topology::Mesh { side } => cell.aggregate_scaled(side * side, side as f64),
        }
    }

    /// Total memory the arrangement needs to stay balanced for a
    /// computation with growth law `law` balanced at `m_old` on one PE:
    /// the law at `α`.
    ///
    /// # Errors
    ///
    /// [`BalanceError::IoBounded`] for I/O-bounded computations,
    /// [`BalanceError::MemoryOverflow`] when the law explodes.
    pub fn required_total_memory(
        &self,
        law: GrowthLaw,
        m_old: Words,
    ) -> Result<Words, BalanceError> {
        law.new_memory(self.alpha().get(), m_old)
    }

    /// Memory each PE needs to keep the arrangement balanced: the
    /// [total](Self::required_total_memory) over the PE count, rounded up.
    /// For the matrix law (`α²`) that is `p·M_old` on a linear array —
    /// per-PE memory grows with the array (§4.1) — and `M_old` on a mesh,
    /// which is self-balancing; an `α^d` law costs a mesh `side^(d-2)·M_old`
    /// (§4.2). Experiment E21 validates these closed forms by measurement.
    ///
    /// # Errors
    ///
    /// As [`required_total_memory`](Self::required_total_memory).
    pub fn required_memory_per_pe(
        &self,
        law: GrowthLaw,
        m_old: Words,
    ) -> Result<Words, BalanceError> {
        let total = self.required_total_memory(law, m_old)?;
        Ok(Words::new(total.get().div_ceil(self.pe_count())))
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Topology::Linear { p } => write!(f, "linear({p})"),
            Topology::Mesh { side } => write!(f, "mesh({side}x{side})"),
        }
    }
}

/// A §4 arrangement family, abstracting over its size parameter — the
/// x-axis of the Figure 3/4 scaling walks (`p` PEs for the linear array,
/// a `size × size` grid for the mesh).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Linear arrays ([`Topology::Linear`]).
    Linear,
    /// Square meshes ([`Topology::Mesh`]).
    Mesh,
}

impl TopologyKind {
    /// The concrete topology of this family at size parameter `size`.
    ///
    /// # Errors
    ///
    /// [`BalanceError::InvalidQuantity`] if `size == 0`.
    pub fn at(self, size: u64) -> Result<Topology, BalanceError> {
        match self {
            TopologyKind::Linear => Topology::linear(size),
            TopologyKind::Mesh => Topology::mesh(size),
        }
    }

    /// Parses a CLI-style family name.
    ///
    /// # Errors
    ///
    /// A user-facing message for unknown names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "linear" => Ok(TopologyKind::Linear),
            "mesh" => Ok(TopologyKind::Mesh),
            other => Err(format!("unknown topology '{other}' (try: linear, mesh)")),
        }
    }
}

/// One PE's share of a parallel execution: its measured [`Execution`] plus
/// the communication it took part in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeReport {
    /// The PE's own counted costs: external I/O (one traffic entry per
    /// memory level) and operations.
    pub execution: Execution,
    /// Words this PE sent to other PEs.
    pub comm_sent: u64,
    /// Words this PE received from other PEs.
    pub comm_received: u64,
}

impl PeReport {
    /// Total communication words this PE touched (sent + received).
    #[must_use]
    pub fn comm_words(&self) -> u64 {
        self.comm_sent + self.comm_received
    }

    /// Words this PE moved through its port (boundary 0): every transfer
    /// its explicit scheme performed against the outside world.
    #[must_use]
    pub fn port_words(&self) -> u64 {
        self.execution.cost.io_words()
    }

    /// This PE's true external traffic: the **outermost** boundary of its
    /// memory system. Equal to [`PeReport::port_words`] on a flat PE; on a
    /// hierarchy PE the outer cache levels filter port transfers, so only
    /// the words that missed every level actually left the machine.
    #[must_use]
    pub fn external_words(&self) -> u64 {
        let cost = &self.execution.cost;
        cost.io_at(cost.level_count() - 1).unwrap_or(0)
    }
}

/// The measured result of running a computation on a [`ParallelMachine`]:
/// per-PE reports plus machine-level aggregates, with external I/O and
/// inter-PE communication as distinct traffic classes.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelExecution {
    /// The arrangement the machine ran as.
    pub topology: Topology,
    /// One report per PE, in PE order.
    pub per_pe: Vec<PeReport>,
    /// Port words counted at the machine's transfer layer, at transfer
    /// time (independent of the per-PE counters; conservation demands it
    /// equal their sum). On flat PEs this is also the machine's external
    /// traffic; on hierarchy PEs the external figure is the filtered
    /// [`ParallelExecution::external_words`].
    pub machine_port_words: u64,
    /// Total words communicated PE-to-PE (each word counted once, at the
    /// sending side).
    pub comm_words: u64,
    /// Link occupancy: communicated words weighted by topology hop
    /// distance — the quantity the bisection bandwidth must carry.
    pub link_hop_words: u64,
}

impl ParallelExecution {
    /// Total operations delivered by all PEs.
    #[must_use]
    pub fn comp_ops(&self) -> u64 {
        self.per_pe.iter().map(|r| r.execution.cost.comp_ops()).sum()
    }

    /// Sum of the per-PE port traffic, in words.
    #[must_use]
    pub fn port_words(&self) -> u64 {
        self.per_pe.iter().map(PeReport::port_words).sum()
    }

    /// The machine's external traffic: the sum of each PE's **outermost**
    /// boundary (words that actually left the machine). Equal to
    /// [`ParallelExecution::port_words`] when every PE is flat.
    #[must_use]
    pub fn external_words(&self) -> u64 {
        self.per_pe.iter().map(PeReport::external_words).sum()
    }

    /// True when the ledgers agree: the per-PE port counters sum exactly
    /// to the machine's transfer-time counter (double-entry bookkeeping),
    /// and no PE reports more external words than port words (outer
    /// levels can only filter traffic, never invent it).
    #[must_use]
    pub fn is_conserved(&self) -> bool {
        self.port_words() == self.machine_port_words
            && self
                .per_pe
                .iter()
                .all(|r| r.external_words() <= r.port_words())
    }

    /// The machine-level cost profile: component-wise sum of the per-PE
    /// profiles (per-boundary traffic vectors add, spanning the deepest).
    #[must_use]
    pub fn aggregate_cost(&self) -> CostProfile {
        self.per_pe
            .iter()
            .fold(CostProfile::default(), |acc, r| {
                acc.combined(&r.execution.cost)
            })
    }

    /// The machine's external operational intensity
    /// `C_comp / external words` — the quantity the §4 balance condition
    /// reads (`f64::INFINITY` for a fully internal computation, through
    /// [`CostProfile::intensity`]'s canonical zero conventions).
    #[must_use]
    pub fn external_intensity(&self) -> f64 {
        CostProfile::new(self.comp_ops(), self.external_words()).intensity()
    }

    /// Operations per communicated word (`f64::INFINITY` when the PEs
    /// never spoke — e.g. any 1-PE machine).
    #[must_use]
    pub fn comm_intensity(&self) -> f64 {
        if self.comm_words == 0 {
            f64::INFINITY
        } else {
            self.comp_ops() as f64 / self.comm_words as f64
        }
    }

    /// Largest per-PE peak memory footprint, in words — the "memory each
    /// PE must have" that the §4 scaling laws govern.
    #[must_use]
    pub fn peak_memory_per_pe(&self) -> Words {
        Words::new(
            self.per_pe
                .iter()
                .map(|r| r.execution.peak_memory.get())
                .max()
                .unwrap_or(0),
        )
    }

    /// The machine-level balance verdict: the aggregate cost profile run
    /// against the arrangement's aggregate PE (`p`-fold compute at
    /// unchanged or perimeter-scaled I/O), within relative `tolerance`.
    ///
    /// # Errors
    ///
    /// Propagates aggregate-construction failures (absurd sizes).
    pub fn balance_state(
        &self,
        cell: PeSpec,
        tolerance: f64,
    ) -> Result<BalanceState, BalanceError> {
        let agg = self.topology.aggregate(cell)?;
        Ok(self.aggregate_cost().balance_state(&agg, tolerance))
    }
}

/// `p` counting PEs plus the two traffic ledgers (external vs comm).
///
/// All external transfers are routed through the machine
/// ([`ParallelMachine::load`] / [`ParallelMachine::store`]) so the machine
/// boundary counter stays in lock-step with the per-PE counters;
/// PE-to-PE movement uses [`ParallelMachine::send`] /
/// [`ParallelMachine::rotate_left`] and is charged to the communication
/// ledger only.
///
/// # Examples
///
/// ```
/// use balance_core::{HierarchySpec, Words};
/// use balance_machine::ExternalStore;
/// use balance_parallel::{ParallelMachine, Topology};
///
/// let topo = Topology::linear(2)?;
/// let mut machine = ParallelMachine::new(topo, &HierarchySpec::flat(Words::new(8)));
/// let mut store = ExternalStore::new();
/// let input = store.alloc_from(&[1.0, 2.0]);
///
/// // PE 0 loads from outside (external I/O), then forwards to PE 1 (comm).
/// let b0 = machine.alloc(0, 2)?;
/// let b1 = machine.alloc(1, 2)?;
/// machine.load(0, &store, input, b0, 0)?;
/// machine.send(0, b0, 0, 1, b1, 0, 2)?;
/// machine.count_ops(1, 2);
///
/// let exec = machine.execution();
/// assert_eq!(exec.external_words(), 2);
/// assert_eq!(exec.comm_words, 2);
/// assert!(exec.is_conserved());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelMachine {
    topology: Topology,
    nodes: Vec<Pe>,
    comm_sent: Vec<u64>,
    comm_received: Vec<u64>,
    link_hop_words: u64,
    port_words: u64,
}

impl ParallelMachine {
    /// Builds the machine: one [`Pe::for_hierarchy`] per PE, each owning
    /// its own copy of the memory system described by `per_pe` (level 0 is
    /// the explicitly blocked local memory; deeper levels are cache
    /// models).
    ///
    /// # Panics
    ///
    /// Panics when the PE count does not fit `usize` (absurd sizes).
    #[must_use]
    pub fn new(topology: Topology, per_pe: &HierarchySpec) -> Self {
        let n = usize::try_from(topology.pe_count()).expect("PE count fits usize");
        ParallelMachine {
            topology,
            nodes: (0..n).map(|_| Pe::for_hierarchy(per_pe)).collect(),
            comm_sent: vec![0; n],
            comm_received: vec![0; n],
            link_hop_words: 0,
            port_words: 0,
        }
    }

    /// The arrangement.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Number of PEs.
    #[must_use]
    pub fn pe_count(&self) -> usize {
        self.nodes.len()
    }

    /// Read-only view of PE `q` (counters, memory state).
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    #[must_use]
    pub fn pe(&self, q: usize) -> &Pe {
        &self.nodes[q]
    }

    /// Allocates a local buffer on PE `q`.
    ///
    /// # Errors
    ///
    /// [`MachineError::OutOfMemory`] when the PE's working set would
    /// exceed its local capacity.
    pub fn alloc(&mut self, q: usize, len: usize) -> Result<BufferId, MachineError> {
        self.nodes[q].alloc(len)
    }

    /// Read access to PE `q`'s buffer.
    ///
    /// # Errors
    ///
    /// [`MachineError::InvalidBuffer`] for stale handles.
    pub fn buf(&self, q: usize, id: BufferId) -> Result<&[f64], MachineError> {
        self.nodes[q].buf(id)
    }

    /// Write access to PE `q`'s buffer.
    ///
    /// # Errors
    ///
    /// [`MachineError::InvalidBuffer`] for stale handles.
    pub fn buf_mut(&mut self, q: usize, id: BufferId) -> Result<&mut [f64], MachineError> {
        self.nodes[q].buf_mut(id)
    }

    /// In-memory update on PE `q` (see [`Pe::update`]).
    ///
    /// # Errors
    ///
    /// As [`Pe::update`].
    pub fn update<R>(
        &mut self,
        q: usize,
        dst: BufferId,
        srcs: &[BufferId],
        f: impl FnOnce(&mut [f64], &[&[f64]]) -> R,
    ) -> Result<R, MachineError> {
        self.nodes[q].update(dst, srcs, f)
    }

    /// Counts `n` arithmetic operations on PE `q`.
    pub fn count_ops(&mut self, q: usize, n: u64) {
        self.nodes[q].count_ops(n);
    }

    /// PE `q` loads `region` from the outside world — external I/O,
    /// counted on the PE *and* at the machine boundary.
    ///
    /// # Errors
    ///
    /// As [`Pe::load`]; failed transfers count nothing on either ledger.
    pub fn load(
        &mut self,
        q: usize,
        store: &ExternalStore,
        region: Region,
        buf: BufferId,
        dst_offset: usize,
    ) -> Result<(), MachineError> {
        self.nodes[q].load(store, region, buf, dst_offset)?;
        self.port_words += region.len() as u64;
        Ok(())
    }

    /// PE `q` stores to the outside world — external I/O, counted on the
    /// PE and at the machine boundary.
    ///
    /// # Errors
    ///
    /// As [`Pe::store`]; failed transfers count nothing.
    pub fn store(
        &mut self,
        q: usize,
        store: &mut ExternalStore,
        buf: BufferId,
        src_offset: usize,
        region: Region,
    ) -> Result<(), MachineError> {
        self.nodes[q].store(store, buf, src_offset, region)?;
        self.port_words += region.len() as u64;
        Ok(())
    }

    /// Moves `len` words from PE `src`'s buffer to PE `dst`'s buffer —
    /// **communication**, never external I/O: charged to both PEs' comm
    /// counters and to the link ledger at the topology's hop distance.
    /// A same-PE transfer is a free local move (nothing is counted).
    ///
    /// # Errors
    ///
    /// [`MachineError::InvalidBuffer`] / [`MachineError::BufferOutOfBounds`]
    /// from either side; failed transfers count nothing.
    #[allow(clippy::too_many_arguments)] // (pe, buf, offset) twice is the address
    pub fn send(
        &mut self,
        src: usize,
        src_buf: BufferId,
        src_offset: usize,
        dst: usize,
        dst_buf: BufferId,
        dst_offset: usize,
        len: usize,
    ) -> Result<(), MachineError> {
        let data: Vec<f64> = {
            let b = self.nodes[src].buf(src_buf)?;
            if src_offset + len > b.len() {
                return Err(MachineError::BufferOutOfBounds {
                    id: src_buf.index(),
                    offset: src_offset,
                    len,
                    size: b.len(),
                });
            }
            b[src_offset..src_offset + len].to_vec()
        };
        let db = self.nodes[dst].buf_mut(dst_buf)?;
        if dst_offset + len > db.len() {
            return Err(MachineError::BufferOutOfBounds {
                id: dst_buf.index(),
                offset: dst_offset,
                len,
                size: db.len(),
            });
        }
        db[dst_offset..dst_offset + len].copy_from_slice(&data);
        if src != dst {
            let words = len as u64;
            self.comm_sent[src] += words;
            self.comm_received[dst] += words;
            self.link_hop_words += words * self.topology.hops(src, dst);
        }
        Ok(())
    }

    /// Simultaneous ring rotation: every PE `q` sends the first `lens[q]`
    /// words of its buffer `bufs[q]` to PE `q-1` (PE 0 wraps to the last
    /// PE), all transfers reading pre-rotation contents. This is the
    /// systolic "pass your operand slab left" step of the distributed
    /// matmul; on a 1-PE machine it is a no-op.
    ///
    /// # Errors
    ///
    /// [`MachineError::InvalidBuffer`] / [`MachineError::BufferOutOfBounds`]
    /// if any slab does not fit its destination buffer.
    ///
    /// # Panics
    ///
    /// Panics when `bufs`/`lens` do not have exactly one entry per PE
    /// (harness misuse).
    pub fn rotate_left(
        &mut self,
        bufs: &[BufferId],
        lens: &[usize],
    ) -> Result<(), MachineError> {
        let p = self.nodes.len();
        assert_eq!(bufs.len(), p, "one buffer per PE");
        assert_eq!(lens.len(), p, "one slab length per PE");
        if p <= 1 {
            return Ok(());
        }
        // Snapshot every slab first so the shift is simultaneous.
        let mut slabs: Vec<Vec<f64>> = Vec::with_capacity(p);
        for q in 0..p {
            let b = self.nodes[q].buf(bufs[q])?;
            if lens[q] > b.len() {
                return Err(MachineError::BufferOutOfBounds {
                    id: bufs[q].index(),
                    offset: 0,
                    len: lens[q],
                    size: b.len(),
                });
            }
            slabs.push(b[..lens[q]].to_vec());
        }
        // Validate every destination before mutating anything: a failed
        // rotation must count nothing and move nothing (the load/store/
        // send convention), not leave a partially shifted ring.
        for (q, &len) in lens.iter().enumerate() {
            let dst = (q + p - 1) % p;
            let db = self.nodes[dst].buf(bufs[dst])?;
            if len > db.len() {
                return Err(MachineError::BufferOutOfBounds {
                    id: bufs[dst].index(),
                    offset: 0,
                    len,
                    size: db.len(),
                });
            }
        }
        for q in 0..p {
            let dst = (q + p - 1) % p;
            let db = self.nodes[dst].buf_mut(bufs[dst])?;
            db[..lens[q]].copy_from_slice(&slabs[q]);
            let words = lens[q] as u64;
            self.comm_sent[q] += words;
            self.comm_received[dst] += words;
            self.link_hop_words += words * self.topology.hops(q, dst);
        }
        Ok(())
    }

    /// The measured execution: per-PE reports plus the machine aggregates.
    #[must_use]
    pub fn execution(&self) -> ParallelExecution {
        ParallelExecution {
            topology: self.topology,
            per_pe: self
                .nodes
                .iter()
                .enumerate()
                .map(|(q, pe)| PeReport {
                    execution: pe.execution(),
                    comm_sent: self.comm_sent[q],
                    comm_received: self.comm_received[q],
                })
                .collect(),
            machine_port_words: self.port_words,
            comm_words: self.comm_sent.iter().sum(),
            link_hop_words: self.link_hop_words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balance_core::{OpsPerSec, WordsPerSec};

    fn flat(m: u64) -> HierarchySpec {
        HierarchySpec::flat(Words::new(m))
    }

    #[test]
    fn topology_shapes() {
        let lin = Topology::linear(8).unwrap();
        assert_eq!(lin.pe_count(), 8);
        assert_eq!(lin.alpha().get(), 8.0);
        assert_eq!(lin.bisection_links(), 1);
        assert_eq!(lin.hops(1, 6), 5);
        assert_eq!(lin.to_string(), "linear(8)");
        let mesh = Topology::mesh(3).unwrap();
        assert_eq!(mesh.pe_count(), 9);
        assert_eq!(mesh.alpha().get(), 3.0);
        assert_eq!(mesh.bisection_links(), 3);
        // Snake layout: PE 0 = (0,0), PE 8 = (2,2): Manhattan distance 4.
        assert_eq!(mesh.hops(0, 8), 4);
        // Consecutive indices are always physically adjacent (the snake
        // turns at row boundaries: PE 3 sits at (1,2), next to PE 2).
        for q in 0..8 {
            assert_eq!(mesh.hops(q, q + 1), 1, "snake adjacency at {q}");
        }
        assert_eq!(mesh.to_string(), "mesh(3x3)");
        assert!(Topology::linear(0).is_err());
        assert!(Topology::mesh(0).is_err());
    }

    #[test]
    fn topology_aggregates_delegate_to_section_4() {
        let cell = PeSpec::new(
            OpsPerSec::new(1.0e7),
            WordsPerSec::new(2.0e7),
            Words::new(1024),
        )
        .unwrap();
        let lin = Topology::linear(4).unwrap().aggregate(cell).unwrap();
        assert_eq!(lin.comp_bw().get(), 4.0e7);
        assert_eq!(lin.io_bw().get(), 2.0e7);
        let mesh = Topology::mesh(4).unwrap().aggregate(cell).unwrap();
        assert_eq!(mesh.comp_bw().get(), 16.0e7);
        assert_eq!(mesh.io_bw().get(), 8.0e7);
        // Analytic per-PE requirement: the §4 closed forms.
        let law = GrowthLaw::Polynomial { degree: 2.0 };
        assert_eq!(
            Topology::linear(4)
                .unwrap()
                .required_memory_per_pe(law, Words::new(100))
                .unwrap()
                .get(),
            400
        );
        assert_eq!(
            Topology::mesh(4)
                .unwrap()
                .required_memory_per_pe(law, Words::new(100))
                .unwrap()
                .get(),
            100
        );
    }

    // The §4.1 linear array, in closed form.

    fn cell() -> PeSpec {
        PeSpec::new(
            OpsPerSec::new(10.0e6),
            WordsPerSec::new(20.0e6),
            Words::new(1024),
        )
        .unwrap()
    }

    #[test]
    fn aggregate_scales_compute_not_io() {
        let array = Topology::linear(8).unwrap();
        let agg = array.aggregate(cell()).unwrap();
        assert_eq!(agg.comp_bw().get(), 80.0e6);
        assert_eq!(agg.io_bw().get(), 20.0e6);
        assert_eq!(agg.memory().get(), 8 * 1024);
        assert_eq!(array.alpha().get(), 8.0);
    }

    #[test]
    fn per_pe_memory_grows_linearly_for_matrix_law() {
        // The paper's §4.1 result, verified across array sizes.
        let law = GrowthLaw::Polynomial { degree: 2.0 };
        let m_old = Words::new(4096);
        for p in [1u64, 2, 4, 8, 16, 32, 64] {
            let array = Topology::linear(p).unwrap();
            let per_pe = array.required_memory_per_pe(law, m_old).unwrap();
            assert_eq!(per_pe.get(), p * 4096, "p = {p}");
        }
    }

    #[test]
    fn per_pe_memory_grows_quadratically_for_3d_grids() {
        let law = GrowthLaw::Polynomial { degree: 3.0 };
        let array = Topology::linear(10).unwrap();
        let per_pe = array.required_memory_per_pe(law, Words::new(1000)).unwrap();
        // total = p³·M_old = 1000·1000 words; per PE = total/p = p²·M_old.
        assert_eq!(per_pe.get(), 100 * 1000);
    }

    #[test]
    fn io_bounded_computations_cannot_balance_any_array() {
        let array = Topology::linear(4).unwrap();
        assert_eq!(
            array.required_memory_per_pe(GrowthLaw::Impossible, Words::new(64)),
            Err(BalanceError::IoBounded)
        );
    }

    #[test]
    fn fft_law_explodes_with_p() {
        // M_old^p: even p = 8 with M_old = 4096 overflows u64 (2^96).
        let array = Topology::linear(8).unwrap();
        assert!(matches!(
            array.required_total_memory(GrowthLaw::Exponential, Words::new(4096)),
            Err(BalanceError::MemoryOverflow { .. })
        ));
    }

    #[test]
    fn p_one_is_identity() {
        let array = Topology::linear(1).unwrap();
        let per_pe = array
            .required_memory_per_pe(GrowthLaw::Polynomial { degree: 2.0 }, Words::new(77))
            .unwrap();
        assert_eq!(per_pe.get(), 77);
    }

    #[test]
    fn zero_pes_rejected() {
        assert!(Topology::linear(0).is_err());
    }

    // The §4.2 square mesh, in closed form.

    #[test]
    fn aggregate_scales_like_the_paper_says() {
        let mesh = Topology::mesh(8).unwrap();
        let agg = mesh.aggregate(cell()).unwrap();
        assert_eq!(agg.comp_bw().get(), 64.0 * 10.0e6);
        assert_eq!(agg.io_bw().get(), 8.0 * 20.0e6);
        assert_eq!(agg.memory().get(), 64 * 1024);
        // alpha = p.
        let cell_balance = cell().machine_balance();
        assert!((agg.machine_balance() / cell_balance - 8.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_law_is_self_balancing() {
        // The §4.2 headline: constant per-PE memory for α²-computations.
        let law = GrowthLaw::Polynomial { degree: 2.0 };
        for p in [1u64, 2, 4, 8, 16, 32] {
            let mesh = Topology::mesh(p).unwrap();
            let per_pe = mesh.required_memory_per_pe(law, Words::new(256)).unwrap();
            assert_eq!(per_pe.get(), 256, "p = {p}");
        }
    }

    #[test]
    fn high_dimensional_grids_are_never_self_balancing() {
        // For d > 2, per-PE memory grows as p^(d-2): "an automatically
        // rebalanced, square processor array is never possible".
        let law3 = GrowthLaw::Polynomial { degree: 3.0 };
        let law4 = GrowthLaw::Polynomial { degree: 4.0 };
        for p in [2u64, 4, 8] {
            let mesh = Topology::mesh(p).unwrap();
            let m3 = mesh.required_memory_per_pe(law3, Words::new(256)).unwrap();
            let m4 = mesh.required_memory_per_pe(law4, Words::new(256)).unwrap();
            assert_eq!(m3.get(), p * 256, "d=3, p={p}");
            assert_eq!(m4.get(), p * p * 256, "d=4, p={p}");
        }
    }

    #[test]
    fn io_bounded_and_exponential_laws_behave() {
        let mesh = Topology::mesh(4).unwrap();
        assert_eq!(
            mesh.required_memory_per_pe(GrowthLaw::Impossible, Words::new(64)),
            Err(BalanceError::IoBounded)
        );
        // Exponential: 64^4 = 2^24 total; per PE = 2^24/16 = 2^20.
        let per_pe = mesh
            .required_memory_per_pe(GrowthLaw::Exponential, Words::new(64))
            .unwrap();
        assert_eq!(per_pe.get(), (1u64 << 24) / 16);
    }

    #[test]
    fn degenerate_sizes() {
        assert!(Topology::mesh(0).is_err());
        let mesh = Topology::mesh(1).unwrap();
        assert_eq!(mesh.pe_count(), 1);
        assert_eq!(mesh.alpha().get(), 1.0);
    }

    #[test]
    fn external_io_is_double_entry_bookkept() {
        let mut m = ParallelMachine::new(Topology::linear(2).unwrap(), &flat(16));
        let mut store = ExternalStore::new();
        let r = store.alloc_from(&[1.0, 2.0, 3.0, 4.0]);
        let b0 = m.alloc(0, 4).unwrap();
        let b1 = m.alloc(1, 2).unwrap();
        m.load(0, &store, r, b0, 0).unwrap();
        m.load(1, &store, r.at(0, 2).unwrap(), b1, 0).unwrap();
        m.store(1, &mut store, b1, 0, r.at(2, 2).unwrap()).unwrap();
        let exec = m.execution();
        assert_eq!(exec.per_pe[0].external_words(), 4);
        assert_eq!(exec.per_pe[1].external_words(), 4);
        assert_eq!(exec.external_words(), 8);
        assert_eq!(exec.machine_port_words, 8);
        assert!(exec.is_conserved());
        assert_eq!(exec.comm_words, 0);
    }

    #[test]
    fn failed_external_transfers_count_on_neither_ledger() {
        let mut m = ParallelMachine::new(Topology::linear(1).unwrap(), &flat(16));
        let mut store = ExternalStore::new();
        let r = store.alloc(4);
        let b = m.alloc(0, 2).unwrap();
        assert!(m.load(0, &store, r, b, 0).is_err());
        assert!(m.store(0, &mut store, b, 1, r).is_err());
        let exec = m.execution();
        assert_eq!(exec.external_words(), 0);
        assert_eq!(exec.machine_port_words, 0);
    }

    #[test]
    fn send_counts_comm_not_external() {
        let mut m = ParallelMachine::new(Topology::linear(3).unwrap(), &flat(8));
        let b: Vec<BufferId> = (0..3).map(|q| m.alloc(q, 4).unwrap()).collect();
        m.buf_mut(0, b[0]).unwrap().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        // 0 -> 2 is two hops on the line.
        m.send(0, b[0], 1, 2, b[2], 0, 2).unwrap();
        assert_eq!(m.buf(2, b[2]).unwrap(), &[2.0, 3.0, 0.0, 0.0]);
        let exec = m.execution();
        assert_eq!(exec.comm_words, 2);
        assert_eq!(exec.link_hop_words, 4);
        assert_eq!(exec.per_pe[0].comm_sent, 2);
        assert_eq!(exec.per_pe[2].comm_received, 2);
        assert_eq!(exec.external_words(), 0);
        // Same-PE transfers are free local moves.
        m.send(1, b[1], 0, 1, b[1], 2, 2).unwrap();
        assert_eq!(m.execution().comm_words, 2);
    }

    #[test]
    fn send_bounds_failures_count_nothing() {
        let mut m = ParallelMachine::new(Topology::linear(2).unwrap(), &flat(8));
        let b0 = m.alloc(0, 2).unwrap();
        let b1 = m.alloc(1, 2).unwrap();
        assert!(m.send(0, b0, 1, 1, b1, 0, 2).is_err()); // src overrun
        assert!(m.send(0, b0, 0, 1, b1, 1, 2).is_err()); // dst overrun
        assert_eq!(m.execution().comm_words, 0);
    }

    #[test]
    fn rotate_left_shifts_slabs_and_counts_links() {
        let mut m = ParallelMachine::new(Topology::linear(3).unwrap(), &flat(8));
        let bufs: Vec<BufferId> = (0..3).map(|q| m.alloc(q, 2).unwrap()).collect();
        for (q, &buf) in bufs.iter().enumerate() {
            m.buf_mut(q, buf).unwrap().fill(q as f64);
        }
        m.rotate_left(&bufs, &[2, 2, 2]).unwrap();
        assert_eq!(m.buf(0, bufs[0]).unwrap(), &[1.0, 1.0]);
        assert_eq!(m.buf(1, bufs[1]).unwrap(), &[2.0, 2.0]);
        assert_eq!(m.buf(2, bufs[2]).unwrap(), &[0.0, 0.0]); // wrap from PE 0
        let exec = m.execution();
        assert_eq!(exec.comm_words, 6);
        // Two words per neighbor hop, plus the wrap (2 hops on a 3-PE line).
        assert_eq!(exec.link_hop_words, 2 + 2 + 4);
    }

    #[test]
    fn failed_rotation_counts_nothing_and_moves_nothing() {
        // Ragged buffers: PE 1's oversized slab cannot fit PE 0's buffer,
        // so the whole rotation must refuse — no partial shift, no
        // partially counted comm (the double-entry ledger depends on it).
        let mut m = ParallelMachine::new(Topology::linear(3).unwrap(), &flat(8));
        let b0 = m.alloc(0, 2).unwrap();
        let b1 = m.alloc(1, 5).unwrap();
        let b2 = m.alloc(2, 5).unwrap();
        m.buf_mut(2, b2).unwrap().fill(9.0);
        let err = m.rotate_left(&[b0, b1, b2], &[1, 5, 1]).unwrap_err();
        assert!(matches!(err, MachineError::BufferOutOfBounds { .. }), "{err}");
        // PE 2's buffer (destination of PE 0's slab) is untouched...
        assert_eq!(m.buf(2, b2).unwrap(), &[9.0; 5]);
        // ...and nothing was counted on any ledger.
        let exec = m.execution();
        assert_eq!(exec.comm_words, 0);
        assert_eq!(exec.link_hop_words, 0);
    }

    #[test]
    fn rotate_left_on_one_pe_is_a_noop() {
        let mut m = ParallelMachine::new(Topology::linear(1).unwrap(), &flat(8));
        let b = m.alloc(0, 2).unwrap();
        m.buf_mut(0, b).unwrap().copy_from_slice(&[7.0, 8.0]);
        m.rotate_left(&[b], &[2]).unwrap();
        assert_eq!(m.buf(0, b).unwrap(), &[7.0, 8.0]);
        assert_eq!(m.execution().comm_words, 0);
    }

    #[test]
    fn aggregate_cost_and_balance_verdict() {
        let cell = PeSpec::new(
            OpsPerSec::new(10.0),
            WordsPerSec::new(10.0),
            Words::new(64),
        )
        .unwrap();
        let mut m = ParallelMachine::new(Topology::linear(2).unwrap(), &flat(16));
        let mut store = ExternalStore::new();
        let r = store.alloc_from(&[0.0; 8]);
        for q in 0..2 {
            let b = m.alloc(q, 4).unwrap();
            m.load(q, &store, r.at(4 * q, 4).unwrap(), b, 0).unwrap();
            m.count_ops(q, 40);
        }
        let exec = m.execution();
        let cost = exec.aggregate_cost();
        assert_eq!(cost.comp_ops(), 80);
        assert_eq!(cost.io_words(), 8);
        assert_eq!(exec.external_intensity(), 10.0);
        assert_eq!(exec.comm_intensity(), f64::INFINITY);
        // Aggregate machine: C = 20, IO = 10 -> balance needs r = 2...
        // measured r = 10: compute-limited.
        assert!(matches!(
            exec.balance_state(cell, 0.05).unwrap(),
            BalanceState::ComputeLimited { .. }
        ));
        assert_eq!(exec.peak_memory_per_pe().get(), 4);
    }

    #[test]
    fn hierarchy_pes_carry_per_level_traffic() {
        use balance_core::LevelSpec;
        let spec = HierarchySpec::new(vec![
            LevelSpec::new(Words::new(8), WordsPerSec::new(2.0)).unwrap(),
            LevelSpec::new(Words::new(64), WordsPerSec::new(1.0)).unwrap(),
        ])
        .unwrap();
        let mut m = ParallelMachine::new(Topology::linear(2).unwrap(), &spec);
        let mut store = ExternalStore::new();
        let r = store.alloc_from(&[0.0; 8]);
        for q in 0..2 {
            let b = m.alloc(q, 8).unwrap();
            m.load(q, &store, r, b, 0).unwrap();
            m.load(q, &store, r, b, 0).unwrap(); // re-load: L2 filters
        }
        let exec = m.execution();
        let cost = exec.aggregate_cost();
        assert_eq!(cost.level_count(), 2);
        assert_eq!(cost.io_at(0), Some(32));
        assert_eq!(cost.io_at(1), Some(16), "each PE's L2 keeps the re-load");
        // The two ledgers diverge by design on hierarchy PEs: the port
        // moved 32 words, but only the 16 compulsory ones left the
        // machine — external intensity reads the outermost boundary.
        assert_eq!(exec.port_words(), 32);
        assert_eq!(exec.machine_port_words, 32);
        assert_eq!(exec.external_words(), 16);
        assert_eq!(exec.per_pe[0].external_words(), 8);
        assert!(exec.is_conserved());
    }

    #[test]
    #[should_panic(expected = "PE index out of range")]
    fn hops_checks_range() {
        let _ = Topology::linear(2).unwrap().hops(0, 5);
    }
}
