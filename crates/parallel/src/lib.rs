//! # balance-parallel
//!
//! The parallel-architecture half of Kung (1985), Section 4: parallel
//! processing viewed as "a particular method of increasing the computation
//! bandwidth of a PE", and what that does to memory requirements.
//!
//! * [`pmachine`] — the §4 arrangements, one type: a [`Topology`] is the
//!   linear array (§4.1, Fig. 3: `α = p`, so per-PE memory must grow
//!   **linearly with the array size** for matrix computations) or the
//!   square mesh (§4.2, Fig. 4: `α = p` but `p²` PEs, so per-PE memory is
//!   **constant** for `α²`-laws and grows as `p^(d-2)` for d-dimensional
//!   grids with `d > 2`). It carries the closed forms (the aggregate PE,
//!   `α`, the memory a growth law demands) and is the shape of the
//!   **measured** machine: a [`ParallelMachine`] of `p` counting PEs (each
//!   with its own memory system, flat or a full hierarchy) with external
//!   I/O and inter-PE communication as distinct traffic classes;
//! * [`systolic`] — cycle-level simulations of the decompositions the paper
//!   cites as making the mesh result attainable: Kung–Leiserson matrix
//!   multiplication and Gentleman–Kung Givens triangularization;
//! * [`warp`] — the §5 CMU Warp machine case study (10 MFLOP/s cells,
//!   20 Mwords/s links, 64K-word memories);
//! * [`topology`] — ASCII renderings of Figures 3 and 4;
//! * [`scaling`] — the `(p, memory-per-PE)` [`analytic_series`] behind
//!   experiments E8 and E9;
//! * [`pkernels`] — block-partitioned parallel matmul / transpose /
//!   grid relaxation running on it (1-PE machines are bit-identical to the
//!   serial kernels);
//! * [`measure`] — the [`parallel_sweep`] executor plus the
//!   measured-balance machinery that validates the §4 scaling laws (the
//!   analytic [`scaling`] series) by measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod measure;
pub mod pkernels;
pub mod pmachine;
pub mod scaling;
pub mod systolic;
pub mod topology;
pub mod warp;

pub use measure::{
    measured_balance_memory, measured_balance_memory_with_model, measured_growth_law,
    measured_series, parallel_sweep, MeasuredBalanceConfig, ParallelPoint, ParallelSweepConfig,
};
pub use pkernels::{
    parallel_kernels, ExternalIoProfile, ParGrid2d, ParMatMul, ParTranspose, ParallelKernel,
    ParallelRun,
};
pub use pmachine::{ParallelExecution, ParallelMachine, PeReport, Topology, TopologyKind};
pub use scaling::{analytic_series, growth_exponent, ScalingPoint};
pub use warp::{case_study, warp_array, warp_cell, WarpReport};
