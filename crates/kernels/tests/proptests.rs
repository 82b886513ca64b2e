//! Property-based tests: the out-of-core kernels agree with naive references
//! for arbitrary (small) problem sizes, memory sizes, and seeds — and their
//! cost accounting obeys structural invariants.

use balance_core::{HierarchySpec, IntensityModel, LevelSpec, Words, WordsPerSec};
use balance_kernels::prelude::*;
use balance_machine::LruCache;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked matmul verifies (internally, against naive) for arbitrary
    /// shapes and memory sizes, and its op count is exactly 2n³.
    #[test]
    fn matmul_correct_for_any_blocking(n in 1usize..24, m in 3usize..600, seed in 0u64..50) {
        let run = MatMul.run(n, m, seed).unwrap();
        prop_assert_eq!(run.execution.cost.comp_ops(), 2 * (n as u64).pow(3));
        prop_assert!(run.execution.peak_memory.get() as usize <= m);
    }

    /// Blocked LU verifies for arbitrary shapes/memories.
    #[test]
    fn lu_correct_for_any_blocking(n in 1usize..20, m in 3usize..400, seed in 0u64..50) {
        let run = Triangularization.run(n, m, seed).unwrap();
        prop_assert!(run.execution.peak_memory.get() as usize <= m);
    }

    /// External sort verifies (sortedness + permutation) for arbitrary
    /// sizes; I/O is a multiple of 2n (each word crosses in and out once
    /// per level).
    #[test]
    fn sort_correct_and_io_is_leveled(n in 1usize..600, m in 8usize..128, seed in 0u64..50) {
        let run = ExternalSort.run(n, m, seed).unwrap();
        let io = run.execution.cost.io_words();
        prop_assert_eq!(io % (2 * n as u64), 0, "io {} not a multiple of 2n", io);
        prop_assert!(run.execution.peak_memory.get() as usize <= m);
    }

    /// Blocked FFT verifies against the reference for any power-of-two size
    /// and block size.
    #[test]
    fn fft_correct_for_any_blocking(logn in 1u32..9, m in 4usize..256, seed in 0u64..50) {
        let n = 1usize << logn;
        let run = Fft.run(n, m, seed).unwrap();
        let t = u64::from(logn);
        prop_assert_eq!(run.execution.cost.comp_ops(), 12 * (n as u64 / 2) * t);
    }

    /// Grid relaxation verifies (bit-exact halo plumbing) for every
    /// dimension and arbitrary iteration counts.
    #[test]
    fn grid_correct_for_all_dims(d in 1usize..=4, iters in 1usize..6, extra in 0usize..200, seed in 0u64..50) {
        let k = GridRelaxation::new(d);
        let m = k.min_memory(iters) + extra;
        let run = k.run(iters, m, seed).unwrap();
        let s = k.tile_side(m) as u64;
        let expected_ops = iters as u64 * (2 * d as u64 + 1) * s.pow(d as u32);
        prop_assert_eq!(run.execution.cost.comp_ops(), expected_ops);
    }

    /// Matvec and trisolve verify and stay I/O-bounded: intensity never
    /// exceeds the constant bound regardless of memory.
    #[test]
    fn io_bounded_kernels_saturate(n in 4usize..48, m in 4usize..2000, seed in 0u64..50) {
        let mv = MatVec.run(n, m.max(3), seed).unwrap();
        prop_assert!(mv.intensity() <= 2.01, "matvec intensity {}", mv.intensity());
        let ts = TriSolve.run(n, m.max(4), seed).unwrap();
        prop_assert!(ts.intensity() <= 2.6, "trisolve intensity {}", ts.intensity());
    }

    /// More memory never decreases measured intensity (the monotonicity the
    /// rebalancing argument relies on), modulo blocking granularity.
    #[test]
    fn intensity_weakly_monotone_in_memory(seed in 0u64..20) {
        let n = 32;
        let mut last = 0.0f64;
        for m in [27usize, 108, 432, 1728] { // 4x steps: b doubles exactly
            let r = MatMul.run(n, m, seed).unwrap().intensity();
            prop_assert!(r >= last * 0.999, "m={m}: {r} < {last}");
            last = r;
        }
    }

    /// Analytic cost models track measured costs within a factor of two
    /// across the operating range (they share the Θ-shape).
    #[test]
    fn analytic_tracks_measured(m in 12usize..400, seed in 0u64..10) {
        let n = 24;
        let run = MatMul.run(n, m, seed).unwrap();
        let analytic = MatMul.analytic_cost(n, m);
        let ratio = run.execution.cost.io_words() as f64 / analytic.io_words() as f64;
        prop_assert!((0.5..2.0).contains(&ratio), "io ratio {ratio}");
    }

    /// The streaming naive trace yields exactly the sequence the old
    /// materializing generator produced, and its `ExactSizeIterator::len`
    /// stays truthful at every step.
    #[test]
    fn naive_trace_streams_the_materialized_sequence(n in 0usize..14) {
        // The pre-streaming generator, verbatim, as the oracle — the A/B
        // streams read, the C accumulation tagged a write.
        let n2 = (n * n) as u64;
        let mut want = Vec::with_capacity(3 * n * n * n);
        for i in 0..n as u64 {
            for j in 0..n as u64 {
                for k in 0..n as u64 {
                    want.push(balance_core::Access::read(i * n as u64 + k));
                    want.push(balance_core::Access::read(n2 + k * n as u64 + j));
                    want.push(balance_core::Access::write(2 * n2 + i * n as u64 + j));
                }
            }
        }
        let mut it = balance_kernels::matmul::NaiveTrace::new(n);
        prop_assert_eq!(it.len(), 3 * n * n * n);
        let mut got = Vec::with_capacity(it.len());
        while let Some(a) = it.next() {
            got.push(a);
            prop_assert_eq!(it.len(), want.len() - got.len());
        }
        prop_assert_eq!(got, want);
    }

    /// Same pin for the blocked trace, across ragged tile sides (b > n,
    /// b ∤ n, b = 1 all included in the ranges).
    #[test]
    fn blocked_trace_streams_the_materialized_sequence(n in 1usize..14, b in 1usize..17) {
        let n2 = (n * n) as u64;
        let mut want = Vec::new();
        for i0 in (0..n).step_by(b) {
            let ib = b.min(n - i0);
            for j0 in (0..n).step_by(b) {
                let jb = b.min(n - j0);
                for k0 in (0..n).step_by(b) {
                    let kb = b.min(n - k0);
                    for i in i0..i0 + ib {
                        for k in k0..k0 + kb {
                            for j in j0..j0 + jb {
                                want.push(balance_core::Access::read((i * n + k) as u64));
                                want.push(balance_core::Access::read(n2 + (k * n + j) as u64));
                                want.push(balance_core::Access::write(2 * n2 + (i * n + j) as u64));
                            }
                        }
                    }
                }
            }
        }
        let it = balance_kernels::matmul::BlockedTrace::new(n, b);
        prop_assert_eq!(it.len(), 3 * n * n * n);
        let got: Vec<balance_core::Access> = it.collect();
        prop_assert_eq!(got, want);
    }

    /// `size_hint()` honesty for the streaming traces — matmul's two
    /// generators and every registry trace's iterator views: exact (lower
    /// == upper == remaining) at construction and after any partial
    /// consumption — the one-pass engine pre-allocates from `len()`, so a
    /// drifting hint would mis-size its tables.
    #[test]
    fn trace_size_hints_are_exact_under_partial_consumption(
        n in 0usize..10,
        b in 1usize..12,
        skip in 0usize..64,
    ) {
        let total = 3 * n * n * n;
        let mut naive = balance_kernels::matmul::NaiveTrace::new(n);
        let mut blocked = balance_kernels::matmul::BlockedTrace::new(n, b);
        prop_assert_eq!(naive.size_hint(), (total, Some(total)));
        prop_assert_eq!(blocked.size_hint(), (total, Some(total)));
        // Consume a prefix (nth also exercises the non-`next` path).
        let consumed = skip.min(total);
        if consumed > 0 {
            let _ = naive.nth(consumed - 1);
            let _ = blocked.nth(consumed - 1);
        }
        let left = total - consumed;
        prop_assert_eq!(naive.size_hint(), (left, Some(left)));
        prop_assert_eq!(blocked.size_hint(), (left, Some(left)));
        prop_assert_eq!(naive.len(), left);
        prop_assert_eq!(blocked.len(), left);
        // And the hint stays truthful down to exhaustion.
        prop_assert_eq!(naive.count(), left);
        prop_assert_eq!(blocked.count(), left);
        // Every registry trace's views are exact too, at construction,
        // after a positional skip, after stepping, and to exhaustion.
        for kernel in balance_kernels::profservice::registry() {
            let Some(trace) = kernel.access_trace(n + 1) else { continue };
            let total = usize::try_from(trace.len()).unwrap();
            let mut accesses = trace.into_accesses();
            let mut addrs = kernel.access_trace(n + 1).unwrap().into_addrs();
            prop_assert_eq!(accesses.size_hint(), (total, Some(total)), "{}", kernel.name());
            prop_assert_eq!(addrs.size_hint(), (total, Some(total)), "{}", kernel.name());
            let consumed = skip.min(total);
            if consumed > 0 {
                let _ = accesses.nth(consumed - 1);
                let _ = addrs.nth(consumed - 1);
            }
            let _ = (accesses.next(), addrs.next());
            let left = total.saturating_sub(consumed + 1);
            prop_assert_eq!(accesses.size_hint(), (left, Some(left)), "{}", kernel.name());
            prop_assert_eq!(addrs.len(), left, "{}", kernel.name());
            prop_assert_eq!(accesses.count(), left, "{}", kernel.name());
            prop_assert_eq!(addrs.count(), left, "{}", kernel.name());
        }
    }

    /// Freivalds verification accepts every run the full reference check
    /// accepts, and both modes measure identical cost profiles.
    #[test]
    fn freivalds_agrees_with_full_verification(n in 1usize..28, m in 3usize..600, seed in 0u64..30) {
        let full = MatMul.run_with(n, m, seed, Verify::Full).unwrap();
        let cheap = MatMul.run_with(n, m, seed, Verify::Freivalds { rounds: 2 }).unwrap();
        let skipped = MatMul.run_with(n, m, seed, Verify::None).unwrap();
        prop_assert_eq!(full, cheap);
        prop_assert_eq!(full, skipped);
        let lu_full = Triangularization.run_with(n, m, seed, Verify::Full).unwrap();
        let lu_cheap = Triangularization.run_with(n, m, seed, Verify::Freivalds { rounds: 2 }).unwrap();
        prop_assert_eq!(lu_full, lu_cheap);
    }

    /// The executed sweep, fanned out over the cores, is bit-identical to
    /// a plain serial loop of `run_on` calls for arbitrary configs (same
    /// points, same order, same anchor).
    #[test]
    fn parallel_sweep_matches_serial(n in 4usize..24, seed in 0u64..20, hi in 6u32..10) {
        let cfg = SweepConfig::pow2(n, 2, hi, seed).with_verify(Verify::auto(n));
        let par = sweep(&MatMul, &cfg).unwrap();
        let serial: Vec<KernelRun> = cfg
            .memories
            .iter()
            .filter(|&&m| m >= MatMul.min_memory(n))
            .enumerate()
            .map(|(i, &m)| {
                let verify = match cfg.verify {
                    Verify::Freivalds { .. } if i == 0 => Verify::Full,
                    other => other,
                };
                MatMul.run_on(n, &HierarchySpec::flat_words(m), seed, verify).unwrap()
            })
            .collect();
        prop_assert_eq!(&serial, &par.runs);
        for (s, p) in serial.iter().zip(&par.points) {
            prop_assert_eq!((s.m as f64).to_bits(), p.memory.to_bits());
            prop_assert_eq!(s.intensity().to_bits(), p.ratio.to_bits());
        }
    }

    /// The one-pass capacity sweep is bit-identical to the per-capacity
    /// replay — `CapacityProfile::io_at(M)` ≡ per-word `LruCache` replay
    /// misses — across the whole kernel registry (paper kernels and
    /// extensions) at 4+ capacities, and both match a plain serial loop of
    /// `LruCache` replays.
    #[test]
    fn capacity_sweep_engines_bit_identical_across_registry(
        kernel_idx in 0usize..11,
        seed in 0u64..8,
    ) {
        let mut kernels = all_kernels();
        kernels.extend(extension_kernels());
        let kernel = &kernels[kernel_idx];
        let n = 8; // power of two: every kernel (incl. fft) has a trace
        let cfg = SweepConfig {
            n,
            memories: vec![2, 8, 32, 128, 512],
            seed,
            verify: Verify::Full,
            engine: Engine::Replay,
            measure: Measure::CacheModel,
            ..SweepConfig::default()
        };
        let replay = sweep(&**kernel, &cfg).unwrap();
        let onepass =
            sweep(&**kernel, &cfg.clone().with_engine(Engine::StackDist)).unwrap();
        prop_assert_eq!(&replay.runs, &onepass.runs, "kernel {}", kernel.name());
        for (r, o) in replay.points.iter().zip(&onepass.points) {
            prop_assert_eq!(r.memory.to_bits(), o.memory.to_bits());
            prop_assert_eq!(r.ratio.to_bits(), o.ratio.to_bits());
        }
        for run in &replay.runs {
            let trace = kernel.access_trace(n).unwrap();
            let mut cache = LruCache::with_address_bound(run.m, 1, trace.addr_bound());
            let misses = cache.run_trace(trace.into_addrs());
            prop_assert_eq!(
                run.execution.cost.io_words(), misses,
                "kernel {} at M = {}", kernel.name(), run.m
            );
        }
        // The scaled tiers hold the same contract: segmented parallel
        // Mattson is bit-identical at any thread count, and sampling at
        // rate 1 (shift 0) degenerates to the exact serial engine.
        for threads in [1usize, 3] {
            let seg = sweep(
                &**kernel,
                &cfg.clone().with_engine(Engine::StackDistPar { threads }),
            )
            .unwrap();
            prop_assert_eq!(
                &replay.runs, &seg.runs,
                "kernel {}, {} segments", kernel.name(), threads
            );
        }
        let full_rate =
            sweep(&**kernel, &cfg.clone().with_engine(Engine::Sampled { shift: 0 }))
                .unwrap();
        prop_assert_eq!(&replay.runs, &full_rate.runs, "kernel {}", kernel.name());
        // The zero-replay analytic tier joins the bit-identity contract
        // wherever a kernel derives a histogram (9 of the 11 at n = 8).
        if kernel.analytic_profile(n).is_some() {
            let analytic =
                sweep(&**kernel, &cfg.clone().with_engine(Engine::Analytic)).unwrap();
            prop_assert_eq!(&replay.runs, &analytic.runs, "kernel {}", kernel.name());
        }
        // Monotone: a bigger cache never misses more (the stack property,
        // as it surfaces in the emitted sweep).
        for w in replay.runs.windows(2) {
            prop_assert!(
                w[1].execution.cost.io_words() <= w[0].execution.cost.io_words(),
                "kernel {}", kernel.name()
            );
        }
    }

    /// The multi-level reader satisfies inclusion and matches a real
    /// `Hierarchy` ladder replay across the registry.
    #[test]
    fn hierarchy_capacity_sweep_matches_ladder_across_registry(
        kernel_idx in 0usize..11,
        l2 in 64u64..256,
        l3_factor in 2u64..6,
    ) {
        let mut kernels = all_kernels();
        kernels.extend(extension_kernels());
        let kernel = &kernels[kernel_idx];
        let outer = [
            LevelSpec::new(Words::new(l2), WordsPerSec::new(1.0)).unwrap(),
            LevelSpec::new(Words::new(l2 * l3_factor), WordsPerSec::new(1.0)).unwrap(),
        ];
        let cfg = SweepConfig {
            n: 8,
            memories: vec![3, 12, 48],
            outer: outer.to_vec(),
            measure: Measure::CacheModel,
            seed: 0,
            verify: Verify::Full,
            engine: Engine::StackDist,
            ..SweepConfig::default()
        };
        let onepass = sweep(&**kernel, &cfg).unwrap();
        let replay = sweep(&**kernel, &cfg.clone().with_engine(Engine::Replay)).unwrap();
        prop_assert_eq!(&onepass.runs, &replay.runs, "kernel {}", kernel.name());
        for run in &onepass.runs {
            prop_assert_eq!(run.execution.cost.level_count(), 3);
            prop_assert!(
                run.execution.cost.traffic().is_monotone_non_increasing(),
                "kernel {}: {}", kernel.name(), run.execution.cost.traffic()
            );
        }
    }

    /// The analytic tier's core contract, across the whole registry and
    /// the full testable size range: wherever a kernel derives a
    /// closed-form histogram, finalizing it yields a `CapacityProfile`
    /// structurally equal to the stack-distance replay of the canonical
    /// trace — hence bit-identical `misses_at(M)` at *every* capacity
    /// (additionally spot-pinned below at M = 0 and past saturation). And
    /// no kernel may claim a histogram for a size where it has no trace.
    #[test]
    fn analytic_profiles_bit_exact_across_registry(
        kernel_idx in 0usize..11,
        n in 0usize..20,
    ) {
        let mut kernels = all_kernels();
        kernels.extend(extension_kernels());
        let kernel = &kernels[kernel_idx];
        match (kernel.analytic_profile(n), kernel.access_trace(n)) {
            (None, _) => {} // no derivation at this size: falls through
            (Some(_), None) => prop_assert!(
                false,
                "kernel {} claims an analytic profile at n = {} without a trace",
                kernel.name(), n
            ),
            (Some(analytic), Some(trace)) => {
                let engine = balance_machine::StackDistance::profile_of(trace.into_addrs());
                let built = analytic.into_profile();
                prop_assert_eq!(&built, &engine, "kernel {} at n = {}", kernel.name(), n);
                prop_assert!(built.is_exact(), "kernel {}", kernel.name());
                prop_assert_eq!(built.misses_at(0), built.accesses());
                prop_assert_eq!(built.misses_at(u64::MAX), built.compulsory_misses());
                for m in 0..=built.saturating_capacity() + 2 {
                    prop_assert_eq!(
                        built.misses_at(m), engine.misses_at(m),
                        "kernel {} at n = {}, M = {}", kernel.name(), n, m
                    );
                }
            }
        }
    }

    /// Every registry kernel exposes a canonical trace whose declared
    /// length and address bound are exact — the contract the one-pass
    /// engine pre-sizes from.
    #[test]
    fn registry_traces_report_exact_length_and_bound(kernel_idx in 0usize..11) {
        let mut kernels = all_kernels();
        kernels.extend(extension_kernels());
        let kernel = &kernels[kernel_idx];
        let trace = kernel.access_trace(8).expect("registry kernels have traces at n = 8");
        let (len, bound) = (trace.len(), trace.addr_bound());
        let mut count = 0u64;
        for a in trace.into_addrs() {
            prop_assert!(a < bound, "kernel {}: address {} >= bound {}", kernel.name(), a, bound);
            count += 1;
        }
        prop_assert_eq!(count, len, "kernel {}", kernel.name());
    }

    /// One-level backward compatibility, pinned across the whole registry:
    /// for every kernel, `run_with(n, m, …)` and `run_on` with a flat spec
    /// produce bit-identical `KernelRun`s, and the execution is a one-level
    /// profile whose scalar `io_words` equals its boundary-0 traffic.
    #[test]
    fn flat_run_on_is_bit_identical_to_run_with(
        kernel_idx in 0usize..8,
        m in 8usize..512,
        seed in 0u64..20,
    ) {
        let kernels = all_kernels();
        let kernel = &kernels[kernel_idx];
        // A size every kernel accepts (fft needs a power of two).
        let n = 16;
        let m = m.max(kernel.min_memory(n));
        let classic = kernel.run_with(n, m, seed, Verify::auto(n)).unwrap();
        let flat = kernel
            .run_on(n, &HierarchySpec::flat_words(m), seed, Verify::auto(n))
            .unwrap();
        prop_assert_eq!(classic, flat, "kernel {}", kernel.name());
        prop_assert_eq!(classic.execution.cost.level_count(), 1);
        prop_assert_eq!(
            classic.execution.cost.io_at(0),
            Some(classic.execution.cost.io_words())
        );
    }

    /// The device model's safety net, across the whole registry: at
    /// 1-word lines the device read stream *is* the word-granular miss
    /// curve — `read_at(0)` equals the legacy sweep's `io_words()` at
    /// every capacity, on both tagged engines — and the read-only
    /// `line_words = 1` model (`TrafficModel::WORD`) routes through the
    /// legacy path bit-identically.
    #[test]
    fn device_unit_line_reads_match_word_sweeps_across_registry(
        kernel_idx in 0usize..11,
        seed in 0u64..8,
    ) {
        let mut kernels = all_kernels();
        kernels.extend(extension_kernels());
        let kernel = &kernels[kernel_idx];
        let cfg = SweepConfig {
            n: 8,
            memories: vec![2, 8, 32, 128, 512],
            seed,
            verify: Verify::None,
            engine: Engine::StackDist,
            measure: Measure::CacheModel,
            ..SweepConfig::default()
        };
        let word = sweep(&**kernel, &cfg).unwrap();
        let tagged = sweep(
            &**kernel,
            &cfg.clone().with_traffic(TrafficModel::WORD),
        )
        .unwrap();
        prop_assert_eq!(&word.runs, &tagged.runs, "kernel {}", kernel.name());
        let unit = sweep(
            &**kernel,
            &cfg.clone().with_traffic(TrafficModel::device(1)),
        )
        .unwrap();
        let unit_replay = sweep(
            &**kernel,
            &cfg.clone()
                .with_engine(Engine::Replay)
                .with_traffic(TrafficModel::device(1)),
        )
        .unwrap();
        prop_assert_eq!(&unit.runs, &unit_replay.runs, "kernel {}", kernel.name());
        for (w, u) in word.runs.iter().zip(&unit.runs) {
            prop_assert_eq!(
                Some(w.execution.cost.io_words()),
                u.execution.cost.read_at(0),
                "kernel {} at M = {}", kernel.name(), w.m
            );
        }
    }

    /// The one-pass write-back ledger is bit-identical to a dirty-bit
    /// `LruCache` replay of the tagged trace (final flush included) at
    /// every capacity, across the registry and line sizes, on both the
    /// hashed and direct-indexed cache backends.
    #[test]
    fn writeback_ledger_matches_dirty_lru_replay_across_registry(
        kernel_idx in 0usize..11,
        lw_idx in 0usize..3,
        cap_lines in 1usize..96,
    ) {
        let mut kernels = all_kernels();
        kernels.extend(extension_kernels());
        let kernel = &kernels[kernel_idx];
        let lw = [1u64, 2, 8][lw_idx];
        let trace = kernel.access_trace(8).expect("registry traces exist at n = 8");
        let bound = trace.addr_bound();
        let profile = balance_machine::StackDistance::traffic_profile_of(
            trace.into_accesses(),
            lw,
        );
        let m = cap_lines as u64 * lw;
        let trace = kernel.access_trace(8).unwrap();
        let mut fx = balance_machine::LruCache::new(cap_lines, lw);
        let (misses, wbs) = fx.run_tagged_trace(trace.into_accesses());
        prop_assert_eq!(
            (profile.read_misses_at(m), profile.writebacks_at(m)),
            (misses, wbs),
            "kernel {}, line {}, M = {}", kernel.name(), lw, m
        );
        let trace = kernel.access_trace(8).unwrap();
        let mut direct =
            balance_machine::LruCache::with_address_bound(cap_lines, lw, bound.max(1));
        prop_assert_eq!(
            direct.run_tagged_trace(trace.into_accesses()),
            (misses, wbs),
            "kernel {}, line {}, M = {} (direct)", kernel.name(), lw, m
        );
    }

    /// `writebacks_at(M)` is monotone non-increasing in `M` with the
    /// end-of-run flush as its floor: no capacity, however large, avoids
    /// writing each distinct dirty line back once.
    #[test]
    fn writebacks_monotone_with_flush_floor_across_registry(
        kernel_idx in 0usize..11,
        lw_idx in 0usize..3,
    ) {
        let mut kernels = all_kernels();
        kernels.extend(extension_kernels());
        let kernel = &kernels[kernel_idx];
        let lw = [1u64, 2, 8][lw_idx];
        let trace = kernel.access_trace(8).expect("registry traces exist at n = 8");
        let profile =
            balance_machine::StackDistance::traffic_profile_of(trace.into_accesses(), lw);
        let floor = profile.written_lines();
        let mut last = profile.writebacks_at(0);
        for cap_lines in 0u64..256 {
            let wb = profile.writebacks_at(cap_lines * lw);
            prop_assert!(
                wb <= last,
                "kernel {}, line {}: wb({}) = {} > {}",
                kernel.name(), lw, cap_lines * lw, wb, last
            );
            prop_assert!(wb >= floor, "kernel {}, line {}", kernel.name(), lw);
            last = wb;
        }
        prop_assert_eq!(
            profile.writebacks_at(u64::MAX), floor,
            "kernel {}, line {}", kernel.name(), lw
        );
    }

    /// Hierarchy runs change only the *accounting depth*: the computation,
    /// its port traffic, ops, and peak memory are identical to the flat
    /// run at the same `M_1`, the traffic vector is inclusive, and deeper
    /// levels (being larger) see no more than the port.
    #[test]
    fn hierarchy_run_preserves_flat_measurement_at_the_port(
        kernel_idx in 0usize..8,
        m in 8usize..256,
        l2_factor in 2u64..8,
        seed in 0u64..20,
    ) {
        let kernels = all_kernels();
        let kernel = &kernels[kernel_idx];
        let n = 16;
        let m = m.max(kernel.min_memory(n));
        let spec = HierarchySpec::new(vec![
            LevelSpec::new(Words::new(m as u64), WordsPerSec::new(2.0)).unwrap(),
            LevelSpec::new(Words::new(m as u64 * l2_factor), WordsPerSec::new(1.0)).unwrap(),
        ]).unwrap();
        let flat = kernel.run_with(n, m, seed, Verify::auto(n)).unwrap();
        let hier = kernel.run_on(n, &spec, seed, Verify::auto(n)).unwrap();
        prop_assert_eq!(hier.execution.cost.comp_ops(), flat.execution.cost.comp_ops());
        prop_assert_eq!(hier.execution.cost.io_words(), flat.execution.cost.io_words());
        prop_assert_eq!(hier.execution.peak_memory, flat.execution.peak_memory);
        prop_assert_eq!(hier.execution.cost.level_count(), 2);
        let t = hier.execution.cost.traffic();
        prop_assert!(t.is_monotone_non_increasing(), "kernel {}: {}", kernel.name(), t);
    }
}

#[test]
fn intensity_models_match_paper_shapes() {
    // A non-random structural check over the whole registry.
    for k in all_kernels() {
        let model = k.intensity_model();
        match k.name() {
            "matmul" | "triangularization" | "grid2d" => {
                assert!(
                    matches!(model, IntensityModel::Power { exponent, .. } if (exponent - 0.5).abs() < 1e-9),
                    "{} should be sqrt-shaped",
                    k.name()
                );
            }
            "grid3d" => {
                assert!(
                    matches!(model, IntensityModel::Power { exponent, .. } if (exponent - 1.0/3.0).abs() < 1e-9)
                );
            }
            "fft" | "sort" => {
                assert!(matches!(model, IntensityModel::Log2 { .. }));
            }
            "matvec" | "trisolve" => {
                assert!(matches!(model, IntensityModel::Constant { .. }));
            }
            other => panic!("unexpected kernel {other}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Store fault matrix (PR 10): for an arbitrary seeded store fault
    /// (torn write, bit flip, ENOSPC, stale version), an arbitrary
    /// registry kernel, and an arbitrary grid point, the faulted publish
    /// is never served as a valid profile — it is detected, quarantined
    /// (or, for ENOSPC, never published), repaired down the ladder, and
    /// the post-repair answer is bit-identical to a fresh recompute.
    #[test]
    fn every_injected_store_fault_is_detected_quarantined_and_repaired(
        seed in 0u64..256,
        kernel_idx in 0usize..11,
        logn in 3u32..6,
    ) {
        use balance_machine::{FaultPlan, Lookup, ProfileStore};
        let kernels = registry();
        let kernel = &kernels[kernel_idx];
        // Power-of-two sizes are valid for every registry kernel (fft in
        // particular has no canonical trace at other sizes).
        let n = 1usize << logn;
        let dir = std::env::temp_dir().join(format!(
            "kb-prop-storefault-{seed}-{kernel_idx}-{logn}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ProfileStore::open(&dir).unwrap();
        let service = ProfileService::new(&store);
        let model = TrafficModel::WORD;
        let (meta, fresh, _) = service.recompute(kernel.as_ref(), n, model).unwrap();
        let plan = FaultPlan::seeded_store(seed);
        let published = store.put_with(&meta, &fresh, &plan);
        let key = key_for(kernel.name(), n, model);
        match published {
            // ENOSPC: the publish failed and nothing durable changed.
            Err(_) => prop_assert!(matches!(store.get(&key).unwrap(), Lookup::Miss)),
            Ok(()) => match store.get(&key).unwrap() {
                // Torn / bit-flipped / stale-version publishes must be
                // caught and quarantined — never served.
                Lookup::Quarantined { .. } => {
                    prop_assert_eq!(store.quarantined_files().unwrap().len(), 1);
                }
                Lookup::Hit { payload, .. } => {
                    // The only acceptable hit is a bit-identical one
                    // (a fault seed can only arm one of the four kinds,
                    // all of which corrupt — so this must not happen).
                    prop_assert_eq!(&payload, &fresh);
                    prop_assert!(false, "a faulted publish validated");
                }
                Lookup::Miss => prop_assert!(false, "published entry vanished"),
            },
        }
        // Repair through the service: recompute + re-persist...
        let healed = service.fetch(kernel.as_ref(), n, model).unwrap();
        prop_assert!(healed.source != ServeSource::Hit, "repair must recompute");
        // ...bit-identical to the fresh artifact...
        prop_assert_eq!(&healed.payload, &fresh);
        // ...and the next lookup is a clean hit serving the same bits.
        let again = service.fetch(kernel.as_ref(), n, model).unwrap();
        prop_assert_eq!(again.source, ServeSource::Hit);
        prop_assert_eq!(&again.payload, &fresh);
        prop_assert!(store.fsck().unwrap().healthy());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
