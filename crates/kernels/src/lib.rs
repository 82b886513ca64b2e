//! # balance-kernels
//!
//! Instrumented, verified out-of-core implementations of every computation
//! analyzed in Kung (1985), *"Memory Requirements for Balanced Computer
//! Architectures"* — Section 3's whole summary table:
//!
//! | Kernel                        | Paper | `r(M)`        | Rebalance law      |
//! |-------------------------------|-------|---------------|--------------------|
//! | [`matmul::MatMul`]            | §3.1  | `Θ(√M)`       | `M_new = α²·M_old` |
//! | [`triangularization::Triangularization`] | §3.2 | `Θ(√M)` | `M_new = α²·M_old` |
//! | [`grid::GridRelaxation`] (d)  | §3.3  | `Θ(M^(1/d))`  | `M_new = α^d·M_old`|
//! | [`fft::Fft`]                  | §3.4  | `Θ(log₂M)`    | `M_new = M_old^α`  |
//! | [`sorting::ExternalSort`]     | §3.5  | `Θ(log₂M)`    | `M_new = M_old^α`  |
//! | [`matvec::MatVec`]            | §3.6  | `Θ(1)`        | impossible         |
//! | [`trisolve::TriSolve`]        | §3.6  | `Θ(1)`        | impossible         |
//!
//! Every kernel implements the [`traits::Kernel`] trait: it executes the
//! paper's decomposition scheme on the counting PE simulator from
//! `balance-machine`, **verifies its numeric output** against a plain
//! reference implementation, and reports measured `(C_comp, C_io)`.
//! [`sweep::sweep`] turns kernels into measured `r(M)` curves for the
//! experiments: by executing the scheme at every memory size
//! ([`sweep::Measure::Execute`]) or by reading the kernel's canonical trace
//! through an LRU of each capacity ([`sweep::Measure::CacheModel`]) on the
//! engine [`sweep::Engine::resolve`] settles.
//!
//! ## Example: measure matmul's √M law
//!
//! ```
//! use balance_kernels::prelude::*;
//! use balance_core::fit::FittedLaw;
//!
//! let cfg = SweepConfig::pow2(32, 5, 9, 1); // N=32, M = 32..512
//! let result = sweep(&MatMul, &cfg)?;
//! match result.fit()?.best {
//!     FittedLaw::Power { exponent, .. } => assert!((exponent - 0.5).abs() < 0.2),
//!     other => panic!("expected a power law, got {other}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod convolution;
pub mod error;
pub mod fft;
pub mod grid;
pub mod matmul;
pub mod matrix;
pub mod matvec;
pub mod multi_matvec;
pub mod profservice;
pub mod reference;
pub mod sorting;
pub mod sweep;
pub mod trace;
pub mod traits;
pub mod transpose;
pub mod triangularization;
pub mod trisolve;
pub mod verify;
pub mod workload;

pub use error::KernelError;
pub use traits::{all_kernels, extension_kernels, Kernel, KernelRun};
pub use verify::Verify;

/// Convenient glob import: `use balance_kernels::prelude::*;`.
pub mod prelude {
    pub use crate::convolution::Convolution;
    pub use crate::error::KernelError;
    pub use crate::fft::Fft;
    pub use crate::grid::GridRelaxation;
    pub use crate::matmul::MatMul;
    pub use crate::matvec::MatVec;
    pub use crate::multi_matvec::MultiMatVec;
    pub use crate::profservice::{
        build_store, canonical_kernel, key_for, registry, registry_kernel, BuildOutcome,
        ProfileService, Served, ServeSource,
    };
    pub use crate::sorting::ExternalSort;
    pub use crate::sweep::{
        capacity_sweep_par, engine_spec, par_map, robust_capacity_profile, sweep,
        DegradationStep, Engine, Measure, Provenance, SweepConfig, SweepResult, TrafficModel,
    };
    pub use crate::trace::AccessTrace;
    pub use crate::traits::{all_kernels, extension_kernels, Kernel, KernelRun};
    pub use crate::transpose::Transpose;
    pub use crate::triangularization::Triangularization;
    pub use crate::trisolve::TriSolve;
    pub use crate::verify::Verify;
}
