//! # balance-bench
//!
//! The experiment harness for the kung-balance reproduction: one executable
//! regenerator per table and figure in Kung (1985), plus the Criterion
//! benchmarks. See `DESIGN.md` at the workspace root for the experiment
//! index and `EXPERIMENTS.md` for recorded paper-vs-measured results.
//!
//! Run everything:
//!
//! ```bash
//! cargo run --release -p balance-bench --bin repro -- all
//! ```
//!
//! or a single experiment:
//!
//! ```bash
//! cargo run --release -p balance-bench --bin repro -- E5 F2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cli;
pub mod experiments;
mod numfmt;
pub mod report;
pub mod storecli;

pub use experiments::{run_all, run_by_id, run_by_id_at, Scale, ALL_IDS};
pub use report::{Finding, Report};
