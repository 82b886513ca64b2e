//! Two-phase external sorting (paper §3.5).
//!
//! Phase 1 sorts `N/M` memory-sized subsets into sorted runs (in-place
//! heapsort, `Θ(M·log₂M)` comparisons per `Θ(M)` words of I/O). Phase 2
//! merges the runs with a k-way heap merge (`Θ(log₂k)` comparisons per word).
//! Both phases therefore run at
//!
//! ```text
//! r(M) = Θ(log₂ M)      ⇒      M_new = M_old^α
//! ```
//!
//! which Song (1981) showed is the best any comparison sort can do.
//!
//! Cost accounting follows the paper: **operations = key comparisons** (the
//! unit of the information-theoretic lower bound), I/O in words, one key =
//! one word. The merge heap and its cursor bookkeeping are allocated inside
//! the simulated local memory, so the capacity `M` is honestly charged.

use balance_core::{CostProfile, HierarchySpec, IntensityModel};
use balance_machine::{AnalyticProfile, BufferId, ExternalStore, Pe, Phase, PhaseRecorder, Region};

use crate::error::KernelError;
use crate::traits::{Kernel, KernelRun};
use crate::verify::Verify;
use crate::workload;

/// Two-phase external merge sort. Problem size `n` = number of keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExternalSort;

/// In-place heapsort counting comparisons. Returns the comparison count.
fn heapsort_count(x: &mut [f64]) -> u64 {
    let n = x.len();
    let mut cmps = 0u64;
    let sift = |x: &mut [f64], mut root: usize, end: usize, cmps: &mut u64| loop {
        let mut child = 2 * root + 1;
        if child >= end {
            break;
        }
        if child + 1 < end {
            *cmps += 1;
            if x[child + 1] > x[child] {
                child += 1;
            }
        }
        *cmps += 1;
        if x[child] > x[root] {
            x.swap(child, root);
            root = child;
        } else {
            break;
        }
    };
    if n < 2 {
        return 0;
    }
    for root in (0..n / 2).rev() {
        sift(x, root, n, &mut cmps);
    }
    for end in (1..n).rev() {
        x.swap(0, end);
        sift(x, 0, end, &mut cmps);
    }
    cmps
}

/// One merge level: merges `runs` (regions of sorted keys in `src` order)
/// in groups of at most `k`, writing concatenated longer runs to `dst_region`.
/// Returns the new run list (relative to `dst_region`'s coordinates).
#[allow(clippy::too_many_arguments)]
fn merge_level(
    pe: &mut Pe,
    store: &mut ExternalStore,
    runs: &[Region],
    k: usize,
    dst_region: Region,
    heap: BufferId,
    _bookkeeping: BufferId,
) -> Result<Vec<Region>, KernelError> {
    let mut out_runs = Vec::new();
    let mut out_pos = 0usize;
    for group in runs.chunks(k) {
        let group_len: usize = group.iter().map(Region::len).sum();
        let out_start = out_pos;

        // Initialize the heap: first element of each run.
        // Heap entries are interleaved (value, run-index) pairs in `heap`.
        let mut cursors: Vec<usize> = vec![0; group.len()];
        let mut heap_size = 0usize;
        for (ri, run) in group.iter().enumerate() {
            if run.is_empty() {
                continue;
            }
            pe.load(store, run.at(0, 1)?, heap, 2 * heap_size)?;
            cursors[ri] = 1;
            let h = pe.buf_mut(heap)?;
            h[2 * heap_size + 1] = ri as f64;
            heap_size += 1;
        }
        // Sift up each inserted element to establish the heap property.
        let cmps = {
            let h = pe.buf_mut(heap)?;
            let mut cmps = 0u64;
            for i in 1..heap_size {
                let mut c = i;
                while c > 0 {
                    let parent = (c - 1) / 2;
                    cmps += 1;
                    if h[2 * c] < h[2 * parent] {
                        h.swap(2 * c, 2 * parent);
                        h.swap(2 * c + 1, 2 * parent + 1);
                        c = parent;
                    } else {
                        break;
                    }
                }
            }
            cmps
        };
        pe.count_ops(cmps);

        // Pop-min / refill loop.
        for _ in 0..group_len {
            // Write the root key out.
            pe.store(store, heap, 0, dst_region.at(out_pos, 1)?)?;
            out_pos += 1;
            let root_run = {
                let h = pe.buf(heap)?;
                h[1] as usize
            };
            let run = group[root_run];
            if cursors[root_run] < run.len() {
                // Refill the root from the same run.
                pe.load(store, run.at(cursors[root_run], 1)?, heap, 0)?;
                cursors[root_run] += 1;
                let h = pe.buf_mut(heap)?;
                h[1] = root_run as f64;
            } else {
                // Run exhausted: move the last leaf to the root.
                let h = pe.buf_mut(heap)?;
                h[0] = h[2 * (heap_size - 1)];
                h[1] = h[2 * (heap_size - 1) + 1];
                heap_size -= 1;
                if heap_size == 0 {
                    continue;
                }
            }
            // Sift the root down.
            let cmps = {
                let h = pe.buf_mut(heap)?;
                let mut cmps = 0u64;
                let mut root = 0usize;
                loop {
                    let mut child = 2 * root + 1;
                    if child >= heap_size {
                        break;
                    }
                    if child + 1 < heap_size {
                        cmps += 1;
                        if h[2 * (child + 1)] < h[2 * child] {
                            child += 1;
                        }
                    }
                    cmps += 1;
                    if h[2 * child] < h[2 * root] {
                        h.swap(2 * child, 2 * root);
                        h.swap(2 * child + 1, 2 * root + 1);
                        root = child;
                    } else {
                        break;
                    }
                }
                cmps
            };
            pe.count_ops(cmps);
        }
        out_runs.push(dst_region.at(out_start, group_len)?);
    }
    Ok(out_runs)
}

impl Kernel for ExternalSort {
    fn access_trace(&self, n: usize) -> Option<crate::trace::AccessTrace> {
        crate::trace::sort(n).filter(|_| n > 1)
    }

    /// The canonical trace ping-pongs `[src+i, dst+i]` pairs across
    /// `P = ⌈log₂ n⌉` passes. Pass 1 touches both buffers for the first
    /// time; in every later pass, each read recurs at distance `2n-1` (the
    /// tail of the previous pass plus the head of this one) and each write
    /// at `2n` (one more: its own pair partner).
    fn analytic_profile(&self, n: usize) -> Option<AnalyticProfile> {
        if n <= 1 {
            return None;
        }
        let n64 = n as u64;
        let passes = u64::from(n.next_power_of_two().trailing_zeros());
        let mut p = AnalyticProfile::new();
        p.record_compulsory(2 * n64);
        p.record_class(2 * n64 - 1, (passes - 1) * n64);
        p.record_class(2 * n64, (passes - 1) * n64);
        Some(p)
    }

    fn name(&self) -> &'static str {
        "sort"
    }

    fn description(&self) -> &'static str {
        "two-phase external merge sort: M-key runs + k-way heap merges (paper §3.5)"
    }

    fn intensity_model(&self) -> IntensityModel {
        // Phase 1: ~2·log₂M comparisons per key for 2 words of I/O;
        // merge levels add ~log₂k per word: overall ≈ 0.9·log₂M across the
        // measured regime.
        IntensityModel::log2_m(0.9)
    }

    fn analytic_cost(&self, n: usize, m: usize) -> CostProfile {
        let n64 = n as u64;
        let m64 = m.max(2) as u64;
        let k = (m64 / 3).max(2);
        let runs = n64.div_ceil(m64).max(1);
        let levels = if runs <= 1 {
            0
        } else {
            (runs as f64).log(k as f64).ceil() as u64
        };
        let log2m = (m64 as f64).log2();
        let log2k = (k as f64).log2();
        // Heapsort ≈ 2n·log₂n comparisons; each merge level ≈ n·log₂k.
        let comp = (2.0 * n64 as f64 * log2m + levels as f64 * n64 as f64 * log2k) as u64;
        let io = 2 * n64 + levels * 2 * n64;
        CostProfile::new(comp, io)
    }

    fn min_memory(&self, _n: usize) -> usize {
        8
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
        self.run_on_with_phases(n, machine, seed).map(|(run, _)| run)
    }
}

impl ExternalSort {
    /// Like [`Kernel::run`], additionally reporting the per-phase cost
    /// breakdown the paper analyzes separately: `"run-formation"` (phase 1)
    /// and `"merge"` (phase 2).
    ///
    /// # Errors
    ///
    /// As [`Kernel::run`].
    pub fn run_with_phases(
        &self,
        n: usize,
        m: usize,
        seed: u64,
    ) -> Result<(KernelRun, Vec<Phase>), KernelError> {
        self.run_on_with_phases(n, &HierarchySpec::flat_words(m), seed)
    }

    /// [`ExternalSort::run_with_phases`] against an explicit hierarchy.
    ///
    /// # Errors
    ///
    /// As [`Kernel::run_on`].
    pub fn run_on_with_phases(
        &self,
        n: usize,
        machine: &HierarchySpec,
        seed: u64,
    ) -> Result<(KernelRun, Vec<Phase>), KernelError> {
        let m = machine.local_capacity_words();
        if n == 0 {
            return Err(KernelError::BadParameters {
                reason: "key count must be positive".into(),
            });
        }
        if m < self.min_memory(n) {
            return Err(KernelError::MemoryTooSmall {
                have: m,
                need: self.min_memory(n),
            });
        }

        let keys = workload::random_keys(n, seed);
        let mut store = ExternalStore::new();
        let input = store.alloc_from(&keys);
        let area_a = store.alloc(n);
        let area_b = store.alloc(n);

        let mut pe = Pe::for_hierarchy(machine);
        let mut recorder = PhaseRecorder::new(&pe);

        // --- Phase 1: run formation (in-place heapsort of M-key chunks) ---
        let run_len = m;
        let sort_buf = pe.alloc(run_len.min(n))?;
        let mut runs: Vec<Region> = Vec::new();
        for start in (0..n).step_by(run_len) {
            let len = run_len.min(n - start);
            pe.load(&store, input.at(start, len)?, sort_buf, 0)?;
            let cmps = {
                let buf = pe.buf_mut(sort_buf)?;
                heapsort_count(&mut buf[..len])
            };
            pe.count_ops(cmps);
            pe.store(&mut store, sort_buf, 0, area_a.at(start, len)?)?;
            runs.push(area_a.at(start, len)?);
        }
        pe.free(sort_buf)?;
        recorder.record("run-formation", &pe);

        // --- Phase 2: k-way heap merges, ping-ponging between areas ---
        let k = (m / 3).max(2);
        let heap = pe.alloc(2 * k)?; // (value, run-id) pairs
        let bookkeeping = pe.alloc(k)?; // charges cursor storage to M
        let mut src_is_a = true;
        while runs.len() > 1 {
            let dst = if src_is_a { area_b } else { area_a };
            runs = merge_level(&mut pe, &mut store, &runs, k, dst, heap, bookkeeping)?;
            src_is_a = !src_is_a;
        }
        recorder.record("merge", &pe);

        // Verify: sorted ascending and a permutation of the input.
        let result_region = runs[0];
        let got = store.slice(result_region);
        if got.windows(2).any(|w| w[0] > w[1]) {
            return Err(KernelError::VerificationFailed {
                what: "sort (ordering)",
                max_error: f64::NAN,
                tolerance: 0.0,
            });
        }
        let mut want = keys;
        want.sort_by(f64::total_cmp);
        if got != want.as_slice() {
            return Err(KernelError::VerificationFailed {
                what: "sort (permutation)",
                max_error: f64::NAN,
                tolerance: 0.0,
            });
        }

        Ok((
            KernelRun {
                n,
                m,
                execution: pe.execution(),
            },
            recorder.phases().to_vec(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heapsort_sorts_and_counts() {
        let mut x = vec![5.0, 3.0, 8.0, 1.0, 9.0, 2.0];
        let cmps = heapsort_count(&mut x);
        assert_eq!(x, vec![1.0, 2.0, 3.0, 5.0, 8.0, 9.0]);
        assert!(cmps > 0);
        // n log n ballpark: 6·log2(6) ≈ 15.5; heapsort ≈ 2x.
        assert!(cmps <= 40);

        let mut empty: Vec<f64> = vec![];
        assert_eq!(heapsort_count(&mut empty), 0);
        let mut one = vec![1.0];
        assert_eq!(heapsort_count(&mut one), 0);
    }

    #[test]
    fn heapsort_on_sorted_and_reversed() {
        let mut asc: Vec<f64> = (0..32).map(f64::from).collect();
        let want = asc.clone();
        heapsort_count(&mut asc);
        assert_eq!(asc, want);
        let mut desc: Vec<f64> = (0..32).rev().map(f64::from).collect();
        heapsort_count(&mut desc);
        assert_eq!(desc, want);
    }

    #[test]
    fn sorts_correctly_across_memories() {
        for (n, m) in [(100, 8), (1000, 16), (1000, 64), (4096, 256)] {
            let run = ExternalSort.run(n, m, 13).unwrap();
            assert!(run.execution.cost.comp_ops() > 0, "n={n}, m={m}");
        }
    }

    #[test]
    fn single_run_case_needs_no_merge() {
        // n <= m: phase 1 sorts everything; phase 2 is a no-op.
        let run = ExternalSort.run(50, 64, 1).unwrap();
        // I/O: 50 in + 50 out.
        assert_eq!(run.execution.cost.io_words(), 100);
    }

    #[test]
    fn io_counts_match_level_structure() {
        // n = 1000, m = 16 -> 63 runs; k = 5 -> levels: 63 -> 13 -> 3 -> 1 (3 levels).
        let (n, m) = (1000usize, 16usize);
        let run = ExternalSort.run(n, m, 2).unwrap();
        let io = run.execution.cost.io_words();
        // Phase 1: 2n. Each level: 2n. Expect 2n·(1+3) = 8000.
        assert_eq!(io, (2 * n * 4) as u64);
    }

    #[test]
    fn intensity_grows_with_log_m() {
        let n = 1 << 13;
        let r1 = ExternalSort.run(n, 16, 3).unwrap().intensity();
        let r2 = ExternalSort.run(n, 256, 3).unwrap().intensity();
        let r3 = ExternalSort.run(n, 4096, 3).unwrap().intensity();
        assert!(r1 < r2 && r2 < r3, "{r1} {r2} {r3}");
        // Log growth: each 16x memory step should add roughly the same
        // increment, not multiply.
        let (d1, d2) = (r2 - r1, r3 - r2);
        assert!(d2 < 3.0 * d1 + 3.0, "increments {d1} vs {d2}");
    }

    #[test]
    fn peak_memory_within_m() {
        let run = ExternalSort.run(2000, 128, 4).unwrap();
        assert!(run.execution.peak_memory.get() <= 128);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(matches!(
            ExternalSort.run(0, 64, 0),
            Err(KernelError::BadParameters { .. })
        ));
        assert!(matches!(
            ExternalSort.run(100, 4, 0),
            Err(KernelError::MemoryTooSmall { .. })
        ));
    }

    #[test]
    fn phase_breakdown_matches_the_papers_analysis() {
        // In the N = M² regime: phase 1 moves exactly 2N words with
        // ~2·log₂M comparisons per key; phase 2 (two k-way levels) moves 4N.
        let m = 64usize;
        let n = m * m;
        let (run, phases) = ExternalSort.run_with_phases(n, m, 9).unwrap();
        assert_eq!(phases.len(), 2);
        let p1 = &phases[0];
        let p2 = &phases[1];
        assert_eq!(p1.label, "run-formation");
        assert_eq!(p1.cost.io_words(), 2 * n as u64);
        assert_eq!(p2.label, "merge");
        assert_eq!(p2.cost.io_words(), 4 * n as u64);
        // The two phases account for the whole run.
        assert_eq!(p1.cost.combined(&p2.cost), run.execution.cost,);
        // Both phases run at Θ(log₂M) comparisons per word.
        assert!(p1.cost.intensity() > 1.0);
        assert!(p2.cost.intensity() > 1.0);
    }

    #[test]
    fn duplicate_keys_are_handled() {
        // Keys from a tiny universe force many duplicates through the heap.
        let n = 500;
        // Custom run with duplicates via tiny key range: reuse seed path but
        // rely on verification inside run(); duplicates occur for large n
        // with bounded generator anyway. Force the issue with small n & mod:
        let run = ExternalSort.run(n, 16, 5).unwrap();
        assert_eq!(run.n, n);
    }
}
