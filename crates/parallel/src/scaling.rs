//! Scaling series for the §4 experiments (E8, E9).
//!
//! Generates `(p, memory-per-PE)` curves for linear arrays and square
//! meshes under each growth law — the data behind Figures 3 and 4's
//! architectural conclusions. [`analytic_series`] evaluates the closed
//! forms; [`crate::measure::measured_series`] is its measured twin.

use balance_core::{BalanceError, GrowthLaw, Words};

use crate::pmachine::TopologyKind;

/// One point of a scaling series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Array size parameter (`p` PEs for linear, `p × p` for mesh).
    pub p: u64,
    /// Memory each PE needs, in words.
    pub per_pe_memory: u64,
    /// Aggregate memory across the machine, in words.
    pub total_memory: u64,
}

/// Per-PE and total memory requirement of the `kind` arrangement at each
/// size in `sizes` ([`TopologyKind::at`]), for a computation with growth
/// law `law` balanced at `m_old` on one PE.
///
/// # Errors
///
/// [`BalanceError::InvalidQuantity`] for a zero size, and law errors
/// ([`BalanceError::IoBounded`], overflow).
pub fn analytic_series(
    kind: TopologyKind,
    law: GrowthLaw,
    m_old: Words,
    sizes: &[u64],
) -> Result<Vec<ScalingPoint>, BalanceError> {
    sizes
        .iter()
        .map(|&p| {
            let topology = kind.at(p)?;
            Ok(ScalingPoint {
                p,
                per_pe_memory: topology.required_memory_per_pe(law, m_old)?.get(),
                total_memory: topology.required_total_memory(law, m_old)?.get(),
            })
        })
        .collect()
}

/// Fits the slope of `log(per_pe_memory)` against `log(p)` — the growth
/// exponent of the series (1.0 = linear growth, 0.0 = constant).
///
/// # Panics
///
/// Panics if fewer than two points are supplied (harness misuse).
#[must_use]
pub fn growth_exponent(series: &[ScalingPoint]) -> f64 {
    assert!(series.len() >= 2, "need at least two points");
    let xs: Vec<f64> = series.iter().map(|s| (s.p as f64).ln()).collect();
    let ys: Vec<f64> = series
        .iter()
        .map(|s| (s.per_pe_memory.max(1) as f64).ln())
        .collect();
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: [u64; 6] = [2, 4, 8, 16, 32, 64];

    #[test]
    fn linear_array_matrix_law_grows_linearly() {
        // E8 / Fig 3: per-PE memory ∝ p.
        let series = analytic_series(
            TopologyKind::Linear,
            GrowthLaw::Polynomial { degree: 2.0 },
            Words::new(1024),
            &PS,
        )
        .unwrap();
        let slope = growth_exponent(&series);
        assert!((slope - 1.0).abs() < 1e-9, "slope {slope}");
    }

    #[test]
    fn mesh_matrix_law_is_flat() {
        // E9 / Fig 4: per-PE memory constant.
        let series = analytic_series(
            TopologyKind::Mesh,
            GrowthLaw::Polynomial { degree: 2.0 },
            Words::new(1024),
            &PS,
        )
        .unwrap();
        let slope = growth_exponent(&series);
        assert!(slope.abs() < 1e-9, "slope {slope}");
        assert!(series.iter().all(|s| s.per_pe_memory == 1024));
    }

    #[test]
    fn mesh_3d_grid_law_grows_linearly() {
        // E9's second half: d = 3 grids grow per-PE memory like p^(d-2) = p.
        let series = analytic_series(
            TopologyKind::Mesh,
            GrowthLaw::Polynomial { degree: 3.0 },
            Words::new(1024),
            &PS,
        )
        .unwrap();
        let slope = growth_exponent(&series);
        assert!((slope - 1.0).abs() < 1e-9, "slope {slope}");
    }

    #[test]
    fn io_bounded_law_propagates_error() {
        let series = analytic_series(
            TopologyKind::Linear,
            GrowthLaw::Impossible,
            Words::new(64),
            &PS,
        );
        assert_eq!(series, Err(BalanceError::IoBounded));
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn growth_exponent_needs_points() {
        let _ = growth_exponent(&[]);
    }
}
