//! The CMU Warp machine case study (paper §5).
//!
//! > *"The CMU Warp machine consists of a one-dimensional systolic array …
//! > With a local memory of up to 64K 32-bit words, each PE can perform 10
//! > million 32-bit floating-point operations per second, and transfer 20
//! > million words per second to and from its neighboring PEs. Having a
//! > rather large I/O bandwidth and a relatively large local memory for each
//! > PE of the Warp machine reflects the results of this paper."*
//!
//! This module encodes those constants and quantifies the claim: for each of
//! the paper's computations, the memory a Warp cell *needs* for balance, and
//! the **headroom** — the factor by which `C/IO` could grow before the 64K
//! local memory stops sufficing.

use core::fmt;

use balance_core::{BalanceError, IntensityModel, OpsPerSec, PeSpec, Words, WordsPerSec};

use crate::pmachine::Topology;

/// Warp cell computation bandwidth: 10 MFLOP/s.
pub const WARP_CELL_OPS: f64 = 10.0e6;
/// Warp cell I/O bandwidth: 20 Mwords/s.
pub const WARP_CELL_IO: f64 = 20.0e6;
/// Warp cell local memory: 64K 32-bit words.
pub const WARP_CELL_MEMORY: u64 = 64 * 1024;
/// Production Warp arrays had 10 cells.
pub const WARP_CELLS: u64 = 10;

/// The Warp cell as a [`PeSpec`].
#[must_use]
pub fn warp_cell() -> PeSpec {
    PeSpec::new(
        OpsPerSec::new(WARP_CELL_OPS),
        WordsPerSec::new(WARP_CELL_IO),
        Words::new(WARP_CELL_MEMORY),
    )
    .expect("constants are valid")
}

/// The 10-cell Warp array: a linear array of [`warp_cell`]s.
#[must_use]
pub fn warp_array() -> Topology {
    Topology::Linear { p: WARP_CELLS }
}

/// One row of the case study: a computation against the Warp cell/array.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpCaseRow {
    /// Computation name.
    pub computation: &'static str,
    /// Its intensity model.
    pub model: IntensityModel,
    /// Memory (words) that balances a single cell, if finite.
    pub balanced_cell_memory: Option<Words>,
    /// Memory per PE that balances the 10-cell array.
    pub balanced_array_memory_per_pe: Option<Words>,
    /// Factor by which C/IO could grow before 64K stops sufficing for a
    /// single cell (None for I/O-bounded computations, where the question
    /// does not arise — balance holds or fails regardless of memory).
    pub headroom: Option<f64>,
}

/// The full §5 case study.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpReport {
    /// The cell characterization.
    pub cell: PeSpec,
    /// The cell machine balance `C/IO` (0.5 op/word).
    pub cell_balance: f64,
    /// The aggregate array balance (5 op/word for 10 cells).
    pub array_balance: f64,
    /// Per-computation rows.
    pub rows: Vec<WarpCaseRow>,
}

/// Computes the §5 case study for a set of named intensity models.
///
/// # Errors
///
/// Propagates only unexpected model errors; I/O-bounded rows are reported
/// with `None` entries rather than failing.
pub fn case_study(
    computations: &[(&'static str, IntensityModel)],
) -> Result<WarpReport, BalanceError> {
    let cell = warp_cell();
    let cell_balance = cell.machine_balance();
    let array_balance = warp_array().aggregate(cell)?.machine_balance();

    let mut rows = Vec::new();
    for &(name, model) in computations {
        let balanced_cell_memory = match model.balanced_memory(cell_balance) {
            Ok(m) => Some(m),
            Err(BalanceError::IoBounded) => None,
            Err(e) => return Err(e),
        };
        // Per-PE memory for the balanced 10-cell array: total / p.
        let balanced_array_memory_per_pe = match model.balanced_memory(array_balance) {
            Ok(total) => Some(Words::new(total.get().div_ceil(WARP_CELLS))),
            Err(BalanceError::IoBounded) => None,
            Err(e) => return Err(e),
        };
        // Headroom: r(64K) / cell_balance — how much C/IO growth the real
        // memory could absorb.
        let headroom = if model.is_io_bounded() {
            None
        } else {
            Some(model.eval(WARP_CELL_MEMORY as f64) / cell_balance)
        };
        rows.push(WarpCaseRow {
            computation: name,
            model,
            balanced_cell_memory,
            balanced_array_memory_per_pe,
            headroom,
        });
    }
    Ok(WarpReport {
        cell,
        cell_balance,
        array_balance,
        rows,
    })
}

/// The default computation set: the paper's summary table.
#[must_use]
pub fn default_computations() -> Vec<(&'static str, IntensityModel)> {
    vec![
        ("matmul", IntensityModel::sqrt_m(1.0 / 3.0f64.sqrt())),
        (
            "triangularization",
            IntensityModel::sqrt_m(0.5 / 3.0f64.sqrt()),
        ),
        ("grid2d", IntensityModel::root_m(2, 0.884)),
        ("grid3d", IntensityModel::root_m(3, 0.926)),
        ("fft", IntensityModel::log2_m(1.5)),
        ("sort", IntensityModel::log2_m(0.9)),
        ("matvec", IntensityModel::constant(2.0)),
        ("trisolve", IntensityModel::constant(2.0)),
    ]
}

impl fmt::Display for WarpReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Warp cell: C/IO = {:.2} op/word; array C/IO = {:.2}",
            self.cell_balance, self.array_balance
        )?;
        writeln!(
            f,
            "{:<18} {:>16} {:>18} {:>12}",
            "computation", "M_bal (cell)", "M_bal/PE (array)", "headroom"
        )?;
        for row in &self.rows {
            let cell_m = row
                .balanced_cell_memory
                .map_or_else(|| "impossible".into(), |m| m.get().to_string());
            let arr_m = row
                .balanced_array_memory_per_pe
                .map_or_else(|| "impossible".into(), |m| m.get().to_string());
            let head = row
                .headroom
                .map_or_else(|| "-".into(), |h| format!("{h:.1}x"));
            writeln!(
                f,
                "{:<18} {:>16} {:>18} {:>12}",
                row.computation, cell_m, arr_m, head
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_constants_match_the_paper() {
        let cell = warp_cell();
        assert_eq!(cell.comp_bw().get(), 10.0e6);
        assert_eq!(cell.io_bw().get(), 20.0e6);
        assert_eq!(cell.memory().get(), 65_536);
        assert_eq!(cell.machine_balance(), 0.5);
    }

    #[test]
    fn array_balance_is_ten_cells_behind_one_port() {
        let agg = warp_array().aggregate(warp_cell()).unwrap();
        assert_eq!(agg.machine_balance(), 5.0);
    }

    #[test]
    fn case_study_covers_all_rows() {
        let report = case_study(&default_computations()).unwrap();
        assert_eq!(report.rows.len(), 8);
        assert_eq!(report.cell_balance, 0.5);
        assert_eq!(report.array_balance, 5.0);
    }

    #[test]
    fn warp_memory_has_large_headroom_for_matrix_work() {
        // The paper's design point: generous I/O (balance 0.5) means 64K is
        // far more memory than matmul needs for balance — big headroom.
        let report = case_study(&default_computations()).unwrap();
        let matmul = &report.rows[0];
        let m_bal = matmul.balanced_cell_memory.unwrap();
        assert!(
            m_bal.get() < 10,
            "balanced memory should be tiny, got {m_bal}"
        );
        assert!(matmul.headroom.unwrap() > 100.0);
    }

    #[test]
    fn fft_headroom_is_much_smaller() {
        // Exponential-law computations burn headroom fast: the same 64K
        // gives far less C/IO growth slack for FFT than for matmul.
        let report = case_study(&default_computations()).unwrap();
        let matmul_head = report.rows[0].headroom.unwrap();
        let fft_head = report
            .rows
            .iter()
            .find(|r| r.computation == "fft")
            .unwrap()
            .headroom
            .unwrap();
        assert!(
            fft_head < matmul_head / 2.0,
            "fft {fft_head} vs matmul {matmul_head}"
        );
    }

    #[test]
    fn io_bounded_rows_are_marked_impossible() {
        let report = case_study(&default_computations()).unwrap();
        let matvec = report
            .rows
            .iter()
            .find(|r| r.computation == "matvec")
            .unwrap();
        assert!(matvec.balanced_cell_memory.is_none());
        assert!(matvec.headroom.is_none());
        // Note: matvec intensity (2.0) > cell balance (0.5), so a single
        // Warp cell is actually compute-limited on matvec — fine. The
        // "impossible" refers to rebalancing by memory.
    }

    #[test]
    fn report_renders() {
        let report = case_study(&default_computations()).unwrap();
        let text = report.to_string();
        assert!(text.contains("matmul"));
        assert!(text.contains("impossible"));
        assert!(text.contains("headroom"));
    }
}
