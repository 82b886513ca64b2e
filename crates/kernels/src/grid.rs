//! d-dimensional grid relaxation (paper §3.3).
//!
//! The computation: many Jacobi sweeps over a d-dimensional grid, each point
//! replaced by a weighted average of its `2d+1`-point star neighborhood. In
//! the paper's arrangement an array of PEs partitions the grid; each PE
//! stores an `s^d` subgrid *permanently* and, per iteration, exchanges only
//! its surface with its neighbors:
//!
//! ```text
//! C_comp per iteration = Θ(s^d)       (update every resident point)
//! C_io   per iteration = Θ(s^(d-1))   (halo faces only)
//! r(M)   = Θ(s) = Θ(M^(1/d))          ⇒  M_new = α^d · M_old
//! ```
//!
//! We simulate one such PE: its tile lives in local memory across all
//! iterations; the surrounding grid is evolved harness-side (it stands for
//! the neighboring PEs) and supplies the halo values each iteration through
//! counted reads. The tile's final state is verified bit-for-bit against a
//! reference whole-grid Jacobi computation — which also proves the halo
//! plumbing is time-correct.
//!
//! The problem size `n` is the **iteration count**; the tile side `s` is the
//! largest that fits `(s+2)^d + s^d ≤ M`.

use std::collections::BTreeMap;

use balance_core::{CostProfile, HierarchySpec, IntensityModel};
use balance_machine::{AnalyticProfile, CapacityProfile, ExternalStore, Pe};

use crate::error::KernelError;
use crate::reference;
use crate::traits::{Kernel, KernelRun};
use crate::verify::Verify;
use crate::workload;

/// Jacobi relaxation on a d-dimensional grid (d = 1..=4).
#[derive(Debug, Clone, Copy)]
pub struct GridRelaxation {
    dim: usize,
}

impl GridRelaxation {
    /// Creates the kernel for dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= dim <= 4`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!((1..=4).contains(&dim), "dimension must be 1..=4");
        GridRelaxation { dim }
    }

    /// The grid dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The largest tile side `s` with `(s+2)^d + s^d ≤ m`.
    #[must_use]
    pub fn tile_side(&self, m: usize) -> usize {
        let d = self.dim as u32;
        let mut s = 1usize;
        while (s + 3).pow(d) + (s + 1).pow(d) <= m {
            s += 1;
        }
        s
    }
}

/// Row-major strides for a hyper-rectangular shape.
fn strides(dims: &[usize]) -> Vec<usize> {
    let d = dims.len();
    let mut st = vec![1usize; d];
    for i in (0..d.saturating_sub(1)).rev() {
        st[i] = st[i + 1] * dims[i + 1];
    }
    st
}

/// Iterates all coordinates of `dims` in row-major order.
fn for_each_coord(dims: &[usize], mut f: impl FnMut(&[usize], usize)) {
    let total: usize = dims.iter().product();
    let d = dims.len();
    let mut coord = vec![0usize; d];
    for idx in 0..total {
        f(&coord, idx);
        for dim in (0..d).rev() {
            coord[dim] += 1;
            if coord[dim] < dims[dim] {
                break;
            }
            coord[dim] = 0;
        }
    }
}

impl Kernel for GridRelaxation {
    fn access_trace(&self, n: usize) -> Option<crate::trace::AccessTrace> {
        crate::trace::grid(self.dim, n).filter(|_| n > 0)
    }

    /// Grid relaxation's problem size is the sweep count `n` over a fixed
    /// periodic `side^dim` grid, and the ping-pong access pattern is
    /// *periodic in the sweep index*: from sweep 2 onward every sweep adds
    /// the same reuse-class increment (the buffers just swap roles).
    /// Rather than hand-deriving the `O(side)` boundary-wrap classes, this
    /// bootstraps them: replay 2, 3, and 4 sweeps — constant work,
    /// `≤ 4·side^dim·(2·dim+2)` addresses, independent of `n` — take the
    /// per-sweep class delta, require the two deltas to agree (else fall
    /// through to the measured engines), and extrapolate `n-4` more sweeps.
    /// Exactness is pinned by the same registry proptests as the
    /// closed-form kernels.
    fn analytic_profile(&self, n: usize) -> Option<AnalyticProfile> {
        // No trace, no histogram (and the per-sweep extrapolation below
        // stays within the trace's checked length).
        self.access_trace(n)?;
        let replayed = |iters: usize| {
            crate::trace::grid(self.dim, iters)
                .map(|trace| crate::sweep::exact_profile(trace, u64::MAX))
        };
        let to_analytic = |p: &CapacityProfile| {
            let mut a = AnalyticProfile::new();
            a.record_compulsory(p.compulsory_misses());
            for (d, c) in p.reuse_classes() {
                a.record_class(d, c);
            }
            a
        };
        if n <= 4 {
            return Some(to_analytic(&replayed(n)?));
        }
        let p2 = replayed(2)?;
        let p3 = replayed(3)?;
        let p4 = replayed(4)?;
        if p2.compulsory_misses() != p4.compulsory_misses()
            || p3.compulsory_misses() != p4.compulsory_misses()
        {
            return None;
        }
        // Per-sweep increment of the reuse-class histogram; None if any
        // class shrank (adding a sweep can only add reuses).
        let delta = |hi: &CapacityProfile, lo: &CapacityProfile| -> Option<Vec<(u64, u64)>> {
            let mut lo_classes: BTreeMap<u64, u64> = lo.reuse_classes().collect();
            let mut inc = Vec::new();
            for (dist, count) in hi.reuse_classes() {
                let prev = lo_classes.remove(&dist).unwrap_or(0);
                let diff = count.checked_sub(prev)?;
                if diff > 0 {
                    inc.push((dist, diff));
                }
            }
            lo_classes.is_empty().then_some(inc)
        };
        let d43 = delta(&p4, &p3)?;
        if delta(&p3, &p2)? != d43 {
            return None;
        }
        let extra = n as u64 - 4;
        let mut a = to_analytic(&p4);
        for (dist, count) in d43 {
            a.record_class(dist, count * extra);
        }
        Some(a)
    }

    fn name(&self) -> &'static str {
        match self.dim {
            1 => "grid1d",
            2 => "grid2d",
            3 => "grid3d",
            _ => "grid4d",
        }
    }

    fn description(&self) -> &'static str {
        "Jacobi relaxation; one PE keeps an s^d tile resident, halo I/O per sweep (paper §3.3)"
    }

    fn intensity_model(&self) -> IntensityModel {
        // Per iteration: (2d+1)·s^d ops vs 2d·s^(d-1) halo words:
        // r ≈ ((2d+1)/(2d))·s with s ≈ (M/2)^(1/d).
        let d = self.dim as f64;
        let coeff = ((2.0 * d + 1.0) / (2.0 * d)) * 0.5f64.powf(1.0 / d);
        IntensityModel::root_m(self.dim as u32, coeff)
    }

    fn analytic_cost(&self, n: usize, m: usize) -> CostProfile {
        let d = self.dim as u32;
        let s = self.tile_side(m) as u64;
        let t = n as u64;
        let points = s.pow(d);
        let face = s.pow(d - 1);
        let comp = t * (2 * u64::from(d) + 1) * points;
        let io = 2 * points + t * 2 * u64::from(d) * face;
        CostProfile::new(comp, io)
    }

    fn min_memory(&self, _n: usize) -> usize {
        3usize.pow(self.dim as u32) + 1
    }

    fn run_on(
        &self,
        n: usize,
        machine: &HierarchySpec,
        seed: u64,
        verify: Verify,
    ) -> Result<KernelRun, KernelError> {
        // No cheap randomized check exists: verify fully under any policy.
        let _ = verify;
        let m = machine.local_capacity_words();
        let d = self.dim;
        if n == 0 {
            return Err(KernelError::BadParameters {
                reason: "iteration count must be positive".into(),
            });
        }
        if m < self.min_memory(n) {
            return Err(KernelError::MemoryTooSmall {
                have: m,
                need: self.min_memory(n),
            });
        }
        let s = self.tile_side(m);
        let g = 2 * s; // full grid side: the tile is one of 2^d partitions
        let grid_dims = vec![g; d];
        let tile_dims = vec![s; d];
        let ext_dims = vec![s + 2; d];
        let g_str = strides(&grid_dims);
        let t_str = strides(&tile_dims);
        let e_str = strides(&ext_dims);
        let tile_points: usize = s.pow(d as u32);
        let ext_points: usize = (s + 2).pow(d as u32);

        // The outside world: full grid state (stands for all other PEs).
        let mut state = workload::random_grid(g.pow(d as u32), seed);
        let mut store = ExternalStore::new();
        let grid_region = store.alloc_from(&state);
        let out_region = store.alloc(tile_points);

        let mut pe = Pe::for_hierarchy(machine);
        let tile = pe.alloc(tile_points)?;
        let ext = pe.alloc(ext_points)?;

        // Initial tile load (the PE's permanent resident data).
        {
            // Row segments along the last dimension are contiguous.
            let row_dims = &tile_dims[..d - 1];
            for_each_coord(row_dims, |coord, _| {
                let g_off: usize = coord.iter().zip(&g_str).map(|(c, st)| c * st).sum();
                let t_off: usize = coord.iter().zip(&t_str).map(|(c, st)| c * st).sum();
                // Errors inside the closure are deferred via expect: the
                // region arithmetic is exact by construction.
                let region = grid_region.at(g_off, s).unwrap_or_else(|e| panic!("tile row in range: {e}"));
                pe.load(&store, region, tile, t_off).unwrap_or_else(|e| panic!("tile row fits: {e}"));
            });
        }

        let weight = 1.0 / (2.0 * d as f64 + 1.0);
        for _t in 0..n {
            // 1. Copy the resident tile into the interior of the halo buffer
            //    (local move: free in the information model).
            {
                pe.update(ext, &[tile], |e, srcs| {
                    let tl = srcs[0];
                    for_each_coord(&tile_dims, |coord, t_idx| {
                        let e_idx: usize =
                            coord.iter().zip(&e_str).map(|(c, st)| (c + 1) * st).sum();
                        e[e_idx] = tl[t_idx];
                    });
                })?;
            }
            // 2. Read the halo faces (counted I/O) from the outside world.
            //    Periodic wrap on the full grid.
            let face_dims: Vec<usize> = vec![s; d - 1];
            for dim in 0..d {
                for (side, gc) in [(0usize, g - 1), (s + 1, s % g)] {
                    // ext coordinate along `dim` is `side`; grid coordinate
                    // along `dim` is gc (wrapping: -1 ≡ g-1, s ≡ s).
                    for_each_coord(&face_dims, |coord, _| {
                        // Interleave the face coordinate around `dim`.
                        let mut e_idx = side * e_str[dim];
                        let mut g_idx = gc * g_str[dim];
                        let mut ci = 0;
                        for dd in 0..d {
                            if dd == dim {
                                continue;
                            }
                            e_idx += (coord[ci] + 1) * e_str[dd];
                            g_idx += coord[ci] * g_str[dd];
                            ci += 1;
                        }
                        let region = grid_region.at(g_idx, 1).unwrap_or_else(|e| panic!("halo in range: {e}"));
                        pe.load(&store, region, ext, e_idx).unwrap_or_else(|e| panic!("halo word fits: {e}"));
                    });
                }
            }
            // 3. Compute the new tile from the halo buffer (counted ops).
            pe.update(tile, &[ext], |tl, srcs| {
                let e = srcs[0];
                for_each_coord(&tile_dims, |coord, t_idx| {
                    let e_idx: usize = coord.iter().zip(&e_str).map(|(c, st)| (c + 1) * st).sum();
                    let mut acc = e[e_idx];
                    for dd in 0..d {
                        acc += e[e_idx + e_str[dd]] + e[e_idx - e_str[dd]];
                    }
                    tl[t_idx] = acc * weight;
                });
            })?;
            pe.count_ops(((2 * d + 1) * tile_points) as u64);

            // 4. The rest of the world advances one step (uncounted: that is
            //    the neighboring PEs' work), and the store is refreshed.
            state = reference::jacobi_step(&state, &grid_dims);
            store.slice_mut(grid_region).copy_from_slice(&state);
        }

        // Write the final tile out (counted).
        {
            let row_dims = &tile_dims[..d - 1];
            for_each_coord(row_dims, |coord, _| {
                let t_off: usize = coord.iter().zip(&t_str).map(|(c, st)| c * st).sum();
                let region = out_region.at(t_off, s).unwrap_or_else(|e| panic!("out row in range: {e}"));
                pe.store(&mut store, tile, t_off, region)
                    .unwrap_or_else(|e| panic!("out row fits: {e}"));
            });
        }

        // Verify: the PE's tile must match the reference grid's tile region
        // after n sweeps (same arithmetic order ⇒ tight tolerance).
        let got = store.slice(out_region);
        let mut err = 0.0f64;
        for_each_coord(&tile_dims, |coord, t_idx| {
            let g_idx: usize = coord.iter().zip(&g_str).map(|(c, st)| c * st).sum();
            err = err.max((got[t_idx] - state[g_idx]).abs());
        });
        let tol = 1e-12;
        if err > tol {
            return Err(KernelError::VerificationFailed {
                what: "grid relaxation",
                max_error: err,
                tolerance: tol,
            });
        }

        Ok(KernelRun {
            n,
            m,
            execution: pe.execution(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_side_fits_memory() {
        for d in 1..=4 {
            let k = GridRelaxation::new(d);
            for m in [k.min_memory(1), 64, 256, 1024, 4096] {
                if m < k.min_memory(1) {
                    continue;
                }
                let s = k.tile_side(m);
                assert!(
                    (s + 2).pow(d as u32) + s.pow(d as u32) <= m,
                    "d={d}, m={m}, s={s}"
                );
                let s2 = s + 1;
                assert!(
                    (s2 + 2).pow(d as u32) + s2.pow(d as u32) > m,
                    "d={d}, m={m}: s={s} not maximal"
                );
            }
        }
    }

    #[test]
    fn all_dimensions_verify() {
        for d in 1..=4 {
            let k = GridRelaxation::new(d);
            let m = match d {
                1 => 20,
                2 => 64,
                3 => 300,
                _ => 1400,
            };
            let run = k.run(6, m, 42).unwrap();
            assert!(run.execution.cost.comp_ops() > 0, "d = {d}");
        }
    }

    #[test]
    fn comp_ops_match_stencil_count() {
        let k = GridRelaxation::new(2);
        let m = 64; // s = 4: (6)^2 + 4^2 = 52 <= 64
        let s = k.tile_side(m);
        let t = 5;
        let run = k.run(t, m, 1).unwrap();
        assert_eq!(
            run.execution.cost.comp_ops(),
            (t * 5 * s * s) as u64,
            "s = {s}"
        );
    }

    #[test]
    fn io_matches_analytic_model() {
        let k = GridRelaxation::new(2);
        let (t, m) = (8, 100);
        let run = k.run(t, m, 2).unwrap();
        let analytic = k.analytic_cost(t, m);
        assert_eq!(run.execution.cost.io_words(), analytic.io_words());
    }

    #[test]
    fn intensity_grows_with_memory_per_dimension() {
        // For fixed iteration count, doubling s should scale intensity ~2x.
        let k = GridRelaxation::new(2);
        let t = 32;
        let m_small = 52; // s = 4
        let m_big = 52 * 4; // s ≈ 8
        let r1 = k.run(t, m_small, 3).unwrap().intensity();
        let r2 = k.run(t, m_big, 3).unwrap().intensity();
        let ratio = r2 / r1;
        assert!((1.5..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn one_dimensional_grid() {
        let k = GridRelaxation::new(1);
        let run = k.run(10, 30, 4).unwrap();
        // s = largest with (s+2) + s <= 30 => s = 14.
        assert_eq!(k.tile_side(30), 14);
        assert_eq!(run.execution.cost.comp_ops(), 10 * 3 * 14);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let k = GridRelaxation::new(2);
        assert!(matches!(
            k.run(0, 100, 0),
            Err(KernelError::BadParameters { .. })
        ));
        assert!(matches!(
            k.run(5, 5, 0),
            Err(KernelError::MemoryTooSmall { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "dimension must be 1..=4")]
    fn dimension_zero_panics() {
        let _ = GridRelaxation::new(0);
    }

    #[test]
    #[should_panic(expected = "dimension must be 1..=4")]
    fn dimension_five_panics() {
        let _ = GridRelaxation::new(5);
    }

    #[test]
    fn peak_memory_within_m() {
        let k = GridRelaxation::new(3);
        let run = k.run(4, 500, 5).unwrap();
        assert!(run.execution.peak_memory.get() <= 500);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(strides(&[4, 5, 6]), vec![30, 6, 1]);
        assert_eq!(strides(&[7]), vec![1]);
    }

    #[test]
    fn coordinate_iteration_is_row_major() {
        let mut seen = Vec::new();
        for_each_coord(&[2, 3], |c, idx| seen.push((c.to_vec(), idx)));
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], (vec![0, 0], 0));
        assert_eq!(seen[1], (vec![0, 1], 1));
        assert_eq!(seen[3], (vec![1, 0], 3));
        assert_eq!(seen[5], (vec![1, 2], 5));
    }

    #[test]
    fn empty_dims_iterates_once() {
        // The d=1 tile-row loop iterates over a zero-dimensional shape.
        let mut count = 0;
        for_each_coord(&[], |_, _| count += 1);
        assert_eq!(count, 1);
    }
}
