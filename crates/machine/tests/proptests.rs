//! Property-based tests for the PE simulator.

use balance_core::Words;
use balance_machine::{
    resumable_replay, sampled_profile_of, segmented_profile_of, CapacityProfile, CheckpointPolicy,
    ExternalStore, FaultPlan, Hierarchy, LruCache, MemorySystem, Pe, ReplayControl, StackDistance,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

/// Worst sampled-vs-exact miss-*ratio* error over a capacity range — the
/// SHARDS error metric: absolute miss-count gap normalized by total
/// accesses, which stays meaningful at capacities where exact misses
/// shrink to the compulsory floor.
fn max_miss_ratio_err(sampled: &CapacityProfile, exact: &CapacityProfile, max_m: u64) -> f64 {
    let accesses = exact.accesses().max(1) as f64;
    (1..=max_m)
        .map(|m| sampled.misses_at(m).abs_diff(exact.misses_at(m)) as f64 / accesses)
        .fold(0.0, f64::max)
}

/// Brute-force reference LRU: a plain recency-ordered vector of resident
/// line ids (MRU first). Deliberately the most obvious possible
/// implementation, against which both production backends are pinned.
struct ModelLru {
    capacity: usize,
    line_words: u64,
    lines: Vec<u64>,
}

impl ModelLru {
    fn new(capacity: usize, line_words: u64) -> Self {
        ModelLru {
            capacity,
            line_words,
            lines: Vec::new(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let key = addr / self.line_words;
        if let Some(pos) = self.lines.iter().position(|&k| k == key) {
            self.lines.remove(pos);
            self.lines.insert(0, key);
            true
        } else {
            self.lines.insert(0, key);
            self.lines.truncate(self.capacity);
            false
        }
    }

    fn resident(&self) -> usize {
        self.lines.len()
    }
}

proptest! {
    /// Every successful load/store transfer counts exactly its word count,
    /// and contents round-trip.
    #[test]
    fn io_accounting_is_exact(chunks in proptest::collection::vec(1usize..32, 1..20)) {
        let total: usize = chunks.iter().sum();
        let mut store = ExternalStore::new();
        let data: Vec<f64> = (0..total).map(|i| i as f64).collect();
        let region = store.alloc_from(&data);
        let out_region = store.alloc(total);

        let mut pe = Pe::new(Words::new(64));
        let buf = pe.alloc(32).unwrap();
        let mut offset = 0usize;
        for len in &chunks {
            pe.load(&store, region.at(offset, *len).unwrap(), buf, 0).unwrap();
            pe.store(&mut store, buf, 0, out_region.at(offset, *len).unwrap()).unwrap();
            offset += len;
        }
        prop_assert_eq!(pe.io_reads() as usize, total);
        prop_assert_eq!(pe.io_writes() as usize, total);
        prop_assert_eq!(store.slice(out_region), store.slice(region));
    }

    /// Allocation never exceeds capacity; in_use + available == capacity.
    #[test]
    fn memory_conservation(
        capacity in 1usize..256,
        sizes in proptest::collection::vec(0usize..64, 0..32),
    ) {
        let mut pe = Pe::new(Words::new(capacity as u64));
        let mut live = Vec::new();
        for len in sizes {
            if let Ok(id) = pe.alloc(len) {
                live.push((id, len));
            }
            let in_use: usize = live.iter().map(|(_, l)| *l).sum();
            prop_assert!(in_use <= capacity);
            prop_assert_eq!(pe.mem().in_use().get() as usize, in_use);
            prop_assert_eq!(
                pe.mem().available().get() as usize,
                capacity - in_use
            );
        }
        for (id, _) in live {
            pe.free(id).unwrap();
        }
        prop_assert_eq!(pe.mem().in_use().get(), 0);
    }

    /// LRU hit/miss counts always sum to the number of accesses, and
    /// residency never exceeds capacity.
    #[test]
    fn lru_counts_are_consistent(
        capacity in 1usize..64,
        trace in proptest::collection::vec(0u64..128, 0..500),
    ) {
        let mut c = LruCache::with_capacity_words(capacity);
        for &a in &trace {
            c.access(a);
            prop_assert!(c.resident_lines() <= capacity);
        }
        prop_assert_eq!(c.hits() + c.misses(), trace.len() as u64);
    }

    /// LRU with capacity >= distinct addresses only misses cold.
    #[test]
    fn lru_compulsory_misses_only(trace in proptest::collection::vec(0u64..32, 1..300)) {
        let mut distinct: Vec<u64> = trace.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut c = LruCache::with_capacity_words(64); // > 32 possible addresses
        for &a in &trace {
            c.access(a);
        }
        prop_assert_eq!(c.misses() as usize, distinct.len());
    }

    /// LRU inclusion property: a larger cache never misses more on the same
    /// trace (LRU is a stack algorithm).
    #[test]
    fn lru_stack_property(seed in 0u64..1000, small in 2usize..32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace: Vec<u64> = (0..400).map(|_| rng.gen_range(0..100)).collect();
        let mut c_small = LruCache::with_capacity_words(small);
        let mut c_big = LruCache::with_capacity_words(small * 2);
        for &a in &trace {
            c_small.access(a);
            c_big.access(a);
        }
        prop_assert!(c_big.misses() <= c_small.misses());
    }

    /// The direct-indexed cache backend is bit-identical to a brute-force
    /// model LRU on every access of a random trace.
    #[test]
    fn direct_backend_matches_model_lru(
        capacity in 1usize..48,
        line_words in 1u64..8,
        trace in proptest::collection::vec(0u64..512, 0..600),
    ) {
        let mut cache = LruCache::with_address_bound(capacity, line_words, 512);
        let mut model = ModelLru::new(capacity, line_words);
        for (step, &a) in trace.iter().enumerate() {
            prop_assert_eq!(cache.access(a), model.access(a), "step {}", step);
        }
        prop_assert_eq!(cache.resident_lines(), model.resident());
    }

    /// The open-addressed fallback backend is bit-identical to the model
    /// LRU — including under eviction churn, which exercises the
    /// backward-shift deletion in the probe table.
    #[test]
    fn fx_backend_matches_model_lru(
        capacity in 1usize..48,
        line_words in 1u64..8,
        trace in proptest::collection::vec(0u64..512, 0..600),
    ) {
        let mut cache = LruCache::new(capacity, line_words);
        let mut model = ModelLru::new(capacity, line_words);
        for (step, &a) in trace.iter().enumerate() {
            prop_assert_eq!(cache.access(a), model.access(a), "step {}", step);
        }
        prop_assert_eq!(cache.resident_lines(), model.resident());
    }

    /// Both production backends agree with each other on sparse address
    /// spaces (large strides stress hash collisions in the fallback map).
    #[test]
    fn cache_backends_agree(
        capacity in 1usize..32,
        stride in 1u64..4096,
        trace in proptest::collection::vec(0u64..64, 0..400),
    ) {
        let mut fx = LruCache::new(capacity, 1);
        let mut direct = LruCache::with_address_bound(capacity, 1, 64 * stride + 1);
        for &a in &trace {
            prop_assert_eq!(fx.access(a * stride), direct.access(a * stride));
        }
        prop_assert_eq!(fx.misses(), direct.misses());
        prop_assert_eq!(fx.hits(), direct.hits());
    }

    /// Inclusion property of the chained hierarchy: for any trace and any
    /// 2–3 level ladder, the words reaching level `i+1` never exceed the
    /// words reaching level `i` — traffic is monotone non-increasing with
    /// depth, and bounded by the access count at the top.
    #[test]
    fn hierarchy_traffic_is_inclusive(
        l1 in 1u64..24,
        growth2 in 1u64..24,
        growth3 in 0u64..24,
        trace in proptest::collection::vec(0u64..256, 0..600),
    ) {
        let mut caps = vec![Words::new(l1), Words::new(l1 + growth2)];
        if growth3 > 0 {
            caps.push(Words::new(l1 + growth2 + growth3));
        }
        let mut h = Hierarchy::new(&caps);
        for &a in &trace {
            h.access(a);
        }
        let t = h.traffic();
        prop_assert_eq!(t.len(), caps.len());
        prop_assert!(t.is_monotone_non_increasing(), "traffic {}", t);
        prop_assert!(t.get(0).unwrap() <= trace.len() as u64);
    }

    /// A one-level Hierarchy is bit-identical to a bare LruCache of the
    /// same capacity: same hit/miss outcome on every access, same counters,
    /// same traffic.
    #[test]
    fn one_level_hierarchy_is_bit_identical_to_lru(
        capacity in 1u64..48,
        trace in proptest::collection::vec(0u64..256, 0..600),
    ) {
        let mut h = Hierarchy::new(&[Words::new(capacity)]);
        let mut c = LruCache::new(capacity as usize, 1);
        for (step, &a) in trace.iter().enumerate() {
            let hit_level = h.access_returning_level(a);
            let hit = c.access(a);
            prop_assert_eq!(hit_level == 0, hit, "step {}", step);
        }
        prop_assert_eq!(h.traffic(), MemorySystem::traffic(&c));
        prop_assert_eq!(h.level(0).hits(), c.hits());
        prop_assert_eq!(h.level(0).misses(), c.misses());
        prop_assert_eq!(h.level(0).resident_lines(), c.resident_lines());
    }

    /// Every level of a hierarchy behaves exactly like a standalone LRU of
    /// the same capacity fed the *full* access stream — the Mattson stack
    /// model that makes per-level traffic a pure function of the reuse
    /// (stack) distance histogram, which is what lets the one-pass
    /// `stackdist` engine answer every level from one replay.
    #[test]
    fn hierarchy_levels_match_standalone_caches(
        l1 in 1u64..16,
        l2 in 16u64..48,
        trace in proptest::collection::vec(0u64..128, 0..500),
    ) {
        let mut h = Hierarchy::new(&[Words::new(l1), Words::new(l2)]);
        let mut top = LruCache::new(l1 as usize, 1);
        let mut bottom = LruCache::new(l2 as usize, 1);
        for &a in &trace {
            h.access(a);
            top.access(a);
            bottom.access(a);
        }
        prop_assert_eq!(h.level(0).misses(), top.misses());
        prop_assert_eq!(h.level(1).misses(), bottom.misses());
        let traffic = h.traffic();
        prop_assert_eq!(
            traffic.as_slice(),
            &[top.miss_words(), bottom.miss_words()][..]
        );
    }

    /// The one-pass stack-distance engine answers *every* capacity
    /// bit-identically to replaying the trace through an actual LRU of
    /// that capacity — the Mattson stack property, made executable. Both
    /// engine backends are checked against both cache backends.
    #[test]
    fn stack_distance_matches_lru_replay_at_every_capacity(
        trace in proptest::collection::vec(0u64..96, 0..400),
    ) {
        let hashed = StackDistance::profile_of(trace.iter().copied());
        let direct = StackDistance::profile_of_bounded(trace.iter().copied(), 96);
        prop_assert_eq!(&hashed, &direct);
        for m in 1..=100u64 {
            let mut fx = LruCache::with_capacity_words(m as usize);
            let mut dx = LruCache::with_address_bound(m as usize, 1, 96);
            let fx_misses = fx.run_trace(trace.iter().copied());
            prop_assert_eq!(dx.run_trace(trace.iter().copied()), fx_misses);
            prop_assert_eq!(hashed.misses_at(m), fx_misses, "capacity {}", m);
        }
        prop_assert_eq!(hashed.misses_at(u64::MAX), hashed.compulsory_misses());
    }

    /// The multi-level read off one histogram equals replaying the trace
    /// through a whole `Hierarchy` ladder, and inclusion holds exactly.
    #[test]
    fn stack_distance_multi_level_read_matches_hierarchy(
        l1 in 1u64..16,
        growth2 in 1u64..16,
        growth3 in 1u64..16,
        trace in proptest::collection::vec(0u64..128, 0..500),
    ) {
        let caps = [
            Words::new(l1),
            Words::new(l1 + growth2),
            Words::new(l1 + growth2 + growth3),
        ];
        let mut ladder = Hierarchy::new(&caps);
        for &a in &trace {
            ladder.access(a);
        }
        let profile = StackDistance::profile_of(trace.iter().copied());
        let read = profile.traffic_at(&caps);
        prop_assert_eq!(read, ladder.traffic());
        prop_assert!(read.is_monotone_non_increasing(), "traffic {}", read);
    }

    /// The segmented parallel engine is bit-identical to the serial
    /// engine — same histogram, same compulsory count, same profile —
    /// for *any* trace and *any* segment count, on both index backends.
    /// The segment count sweep covers the adversarial splits: a single
    /// segment (merge of one), more segments than accesses (every range
    /// is length 0 or 1, so every non-cold access straddles a boundary),
    /// and everything between.
    #[test]
    fn segmented_engine_is_bit_identical_under_any_boundaries(
        trace in proptest::collection::vec(0u64..96, 0..400),
        segments in 1usize..12,
    ) {
        let serial = StackDistance::profile_of(trace.iter().copied());
        let len = trace.len() as u64;
        let slice = |start: u64, end: u64| {
            trace[usize::try_from(start).unwrap()..usize::try_from(end).unwrap()]
                .iter()
                .copied()
        };
        for bound in [None, Some(96)] {
            let seg = segmented_profile_of(len, bound, segments, slice);
            prop_assert_eq!(&seg, &serial, "bound {:?}, {} segments", bound, segments);
            let shredded = segmented_profile_of(len, bound, trace.len() + 7, slice);
            prop_assert_eq!(&shredded, &serial, "bound {:?}, one access per segment", bound);
        }
    }

    /// The hash-sampled profile converges on the exact profile as the
    /// sampling rate rises: rate 1 (shift 0) is bit-exact, and on traces
    /// with enough reuse for the law of large numbers to bite, the
    /// SHARDS miss-ratio error at rate 1/2 stays within statistical
    /// slack of the rate-1/8 error (and is itself small).
    #[test]
    fn sampled_profile_error_shrinks_as_rate_rises(
        seed in 0u64..500,
        rounds in 8usize..24,
    ) {
        // Structured trace: 192 addresses each touched once per round in
        // a per-round shuffled order — every non-cold access has a
        // distance in [1, 384), so each capacity sees real reuse.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut addrs: Vec<u64> = (0..192).collect();
        let mut trace = Vec::with_capacity(192 * rounds);
        for _ in 0..rounds {
            for i in (1..addrs.len()).rev() {
                addrs.swap(i, rng.gen_range(0..i + 1));
            }
            trace.extend_from_slice(&addrs);
        }

        let exact = StackDistance::profile_of(trace.iter().copied());
        let bit_exact = sampled_profile_of(trace.iter().copied(), 0);
        prop_assert!(bit_exact.is_exact());
        prop_assert_eq!(&bit_exact, &exact);

        let max_m = exact.saturating_capacity() + 2;
        let fine = sampled_profile_of(trace.iter().copied(), 1);
        let coarse = sampled_profile_of(trace.iter().copied(), 3);
        let err_fine = max_miss_ratio_err(&fine, &exact, max_m);
        let err_coarse = max_miss_ratio_err(&coarse, &exact, max_m);
        prop_assert!(
            err_fine <= err_coarse + 0.05,
            "rate 1/2 err {} vs rate 1/8 err {}",
            err_fine,
            err_coarse
        );
        prop_assert!(err_fine < 0.12, "rate 1/2 err {}", err_fine);
    }

    /// Strided gather matches a manual gather.
    #[test]
    fn strided_gather_matches_reference(
        start in 0usize..8,
        stride in 1usize..8,
        count in 1usize..16,
    ) {
        let n = start + stride * count + 1;
        let data: Vec<f64> = (0..n).map(|i| (i * i) as f64).collect();
        let mut store = ExternalStore::new();
        let _ = store.alloc_from(&data);
        let mut pe = Pe::new(Words::new(64));
        let buf = pe.alloc(16).unwrap();
        pe.load_strided(&store, start, stride, count, buf, 0).unwrap();
        let got = &pe.buf(buf).unwrap()[..count];
        let want: Vec<f64> = (0..count).map(|i| data[start + i * stride]).collect();
        prop_assert_eq!(got, &want[..]);
    }
}

proptest! {
    /// Tentpole pin (PR 7): a replay killed at an *arbitrary* address,
    /// checkpointing at an *arbitrary* interval, resumes from its last
    /// persisted image to a curve bit-identical to the uninterrupted
    /// replay — on both index backends (hash and direct-indexed).
    #[test]
    fn killed_replay_resumes_bit_identically_on_both_backends(
        trace in proptest::collection::vec(0u64..64, 2..250),
        every in 1u64..64,
        die_frac in 0.05f64..0.95,
        bounded in proptest::bool::ANY,
    ) {
        let len = trace.len() as u64;
        let die_at = (((len as f64) * die_frac) as u64).clamp(1, len - 1);
        let fresh = || if bounded {
            StackDistance::with_address_bound(64)
        } else {
            StackDistance::new()
        };
        let uninterrupted = {
            let mut e = fresh();
            e.observe_trace(trace.iter().copied());
            e.into_profile()
        };
        let dir = std::env::temp_dir().join(format!(
            "balance-prop-resume-{len}-{every}-{die_at}-{}-{}",
            u8::from(bounded),
            std::process::id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy::every(dir.clone(), every);
        let faults = FaultPlan::none().with_die_at(die_at);
        let mut ctl = ReplayControl::new("prop");
        ctl.policy = Some(&policy);
        ctl.faults = &faults;
        let killed = resumable_replay(len, trace.iter().copied(), fresh, &ctl);
        prop_assert!(killed.is_err(), "kill at {} of {} must interrupt", die_at, len);
        let none = FaultPlan::none();
        let mut ctl = ReplayControl::new("prop");
        ctl.policy = Some(&policy);
        ctl.faults = &none;
        let (engine, stats) = resumable_replay(len, trace.iter().copied(), fresh, &ctl)
            .unwrap();
        // Any resume position must be a checkpoint boundary at or before
        // the kill; no image at all (kill before the first checkpoint)
        // restarts from scratch. Either way the curve is bit-identical.
        if let Some(p) = stats.resumed_at {
            prop_assert!(p <= die_at && p % every == 0, "resumed at {}", p);
        }
        prop_assert_eq!(engine.into_profile(), uninterrupted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Durability honesty: flipping any single byte of a snapshot image
    /// is caught by the trailing checksum (or the structural validation
    /// behind it), and truncation is never accepted — for arbitrary
    /// traces, cut points, and backends.
    #[test]
    fn corrupted_or_truncated_snapshots_are_rejected(
        trace in proptest::collection::vec(0u64..64, 1..200),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        bounded in proptest::bool::ANY,
    ) {
        let cut = ((trace.len() as f64) * cut_frac) as usize;
        let mut e = if bounded {
            StackDistance::with_address_bound(64)
        } else {
            StackDistance::new()
        };
        e.observe_trace(trace[..cut].iter().copied());
        let image = e.snapshot();
        // Round trip is bit-identical...
        let restored = StackDistance::restore(&image).unwrap();
        prop_assert_eq!(restored.accesses(), cut as u64);
        // ...a single byte flip anywhere is rejected...
        let pos = ((image.len() as f64) * flip_frac) as usize % image.len();
        let mut bad = image.clone();
        bad[pos] ^= 0x40;
        prop_assert!(StackDistance::restore(&bad).is_err(), "flip at {} accepted", pos);
        // ...and so is any proper truncation.
        let trunc = &image[..image.len() - 1];
        prop_assert!(StackDistance::restore(trunc).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// KBCP codec round trip (PR 10): an arbitrary profile — exact, or
    /// sampled with an arbitrary rate — survives encode/decode
    /// structurally equal, provenance header included.
    #[test]
    fn kbcp_capacity_images_round_trip_structurally_equal(
        trace in proptest::collection::vec(0u64..512, 1..400),
        shift in 0u32..6,
    ) {
        use balance_machine::{decode_profile, encode_profile, ProfileMeta, ProfilePayload};
        let profile = if shift == 0 {
            StackDistance::profile_of(trace.iter().copied())
        } else {
            sampled_profile_of(trace.iter().copied(), shift)
        };
        let meta = ProfileMeta {
            kernel: "matmul".to_string(),
            n: 64,
            engine: if shift == 0 { "stackdist".to_string() } else { format!("sampled:{shift}") },
            sample_shift: profile.sample_shift(),
            line_words: 1,
            writebacks: false,
        };
        let payload = ProfilePayload::Capacity(profile);
        let bytes = encode_profile(&meta, &payload);
        let (meta2, payload2) = decode_profile(&bytes).unwrap();
        prop_assert_eq!(meta, meta2);
        prop_assert_eq!(payload, payload2);
    }

    /// The traffic dual-ledger twin round-trips too: read curve,
    /// write-back chains, closed/open totals, line size.
    #[test]
    fn kbcp_traffic_images_round_trip_structurally_equal(
        trace in proptest::collection::vec((0u64..256, proptest::bool::ANY), 1..300),
        lw_shift in 0u32..4,
    ) {
        use balance_core::Access;
        use balance_machine::{decode_profile, encode_profile, ProfileMeta, ProfilePayload};
        let line_words = 1u64 << lw_shift;
        let accesses = trace.iter().map(|&(addr, w)| {
            if w { Access::write(addr) } else { Access::read(addr) }
        });
        let traffic = StackDistance::traffic_profile_of(accesses, line_words);
        let meta = ProfileMeta {
            kernel: "sort".to_string(),
            n: 128,
            engine: "stackdist".to_string(),
            sample_shift: 0,
            line_words,
            writebacks: true,
        };
        let payload = ProfilePayload::Traffic(traffic);
        let bytes = encode_profile(&meta, &payload);
        let (meta2, payload2) = decode_profile(&bytes).unwrap();
        prop_assert_eq!(meta, meta2);
        prop_assert_eq!(payload, payload2);
    }

    /// Adversarial pin: *every* 1-byte truncation and *every* single
    /// bit-flip of a KBCP image is rejected with a typed error — never a
    /// panic, never a silently different profile.
    #[test]
    fn kbcp_rejects_every_truncation_and_single_bit_flip(
        trace in proptest::collection::vec(0u64..64, 1..40),
        writeback in proptest::bool::ANY,
    ) {
        use balance_core::Access;
        use balance_machine::{decode_profile, encode_profile, ProfileMeta, ProfilePayload};
        let (payload, writebacks, line_words) = if writeback {
            let accesses = trace.iter().map(|&a| {
                if a & 1 == 0 { Access::read(a) } else { Access::write(a) }
            });
            (
                ProfilePayload::Traffic(StackDistance::traffic_profile_of(accesses, 2)),
                true,
                2,
            )
        } else {
            (
                ProfilePayload::Capacity(StackDistance::profile_of(trace.iter().copied())),
                false,
                1,
            )
        };
        let meta = ProfileMeta {
            kernel: "fft".to_string(),
            n: 32,
            engine: "stackdist".to_string(),
            sample_shift: 0,
            line_words,
            writebacks,
        };
        let bytes = encode_profile(&meta, &payload);
        for len in 0..bytes.len() {
            prop_assert!(
                decode_profile(&bytes[..len]).is_err(),
                "truncation to {} of {} bytes accepted",
                len,
                bytes.len()
            );
        }
        for pos in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                prop_assert!(
                    decode_profile(&bad).is_err(),
                    "flip of bit {} at byte {} accepted",
                    bit,
                    pos
                );
            }
        }
    }
}
