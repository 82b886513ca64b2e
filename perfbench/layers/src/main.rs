//! Traced per-layer timings for the repository benchmark.
//!
//! Reads a plan, one operation per line, and times each public call into a
//! layer of the balance pipeline. Prints one JSON object, `{"spans": [...]}`,
//! with one span per operation. `perfbench/run.py` writes the plan from a
//! workload's own inputs and turns the spans into per-layer metrics.
//!
//! ```text
//! timing on|off                per-call timers in the operations below that
//!                              repeat a workload (sweep, build, rebuild,
//!                              fsck, serve); their span's `wall_ns` is
//!                              timed either way (default: on)
//! sweep K N ENGINE LINE_WORDS  capacity_sweep_par as `balance sweep` runs it;
//!                              the first time with timing on, then its engine
//!                              call and trace generation alone, the engine
//!                              call checked against the sweep
//! probe K N CAP                trace generation, LRU, direct, hashed, segmented
//!                              K=2, sampled:4 and io_at on the first CAP addresses
//! tagged K N LINE_WORDS CAP    the tagged one-pass traffic engine
//! analytic K N                 Kernel::analytic_profile followed by into_profile
//! build DIR KERNELS GRID       `store build` through its public calls, puts timed
//! rebuild DIR KERNELS GRID     build_store over a store that already holds the grid
//! fsck DIR                     ProfileStore::fsck
//! gets DIR                     ProfileStore::get on every key; keeps the profiles
//! puts DIR                     ProfileStore::put of every kept profile
//! codec                        encode_profile / decode_profile of every kept profile
//! fetch DIR K N                ProfileService::fetch (a hit or a repair)
//! serve DIR BATCH              ServeSession::answer per batch line
//! ```
//!
//! Usage: `perfbench-layers PLAN_FILE`.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use balance_bench::cli::engine_by_name_for_model;
use balance_bench::storecli::ServeSession;
use balance_kernels::prelude::*;
use balance_machine::{
    decode_profile, encode_profile, sampled_profile_of_bounded, segmented_profile_of,
    CapacityProfile, Lookup, LruCache, ProfileMeta, ProfilePayload, ProfileStore, StackDistance,
};

/// Capacities of `balance sweep`: 2^5 ..= 2^12 words.
const SWEEP_LO: u32 = 5;
const SWEEP_HI: u32 = 12;
/// The LRU capacity the engine costs are compared against.
const LRU_WORDS: usize = 4096;
/// A small call is repeated until this much time has passed (median kept).
const MIN_SPAN: Duration = Duration::from_millis(200);
const MAX_REPS: usize = 64;

type Res<T> = Result<T, String>;

/// One span's fields, already rendered as JSON values.
#[derive(Default)]
struct Span(Vec<(String, String)>);

impl Span {
    fn num(&mut self, key: &str, v: impl Into<f64>) -> &mut Span {
        let v: f64 = v.into();
        let rendered = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        };
        self.0.push((key.to_string(), rendered));
        self
    }
    fn str(&mut self, key: &str, v: &str) -> &mut Span {
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.0.push((key.to_string(), format!("\"{escaped}\"")));
        self
    }
    fn list(&mut self, key: &str, vs: &[f64]) -> &mut Span {
        let items: Vec<String> = vs.iter().map(|v| format!("{v}")).collect();
        self.0
            .push((key.to_string(), format!("[{}]", items.join(","))));
        self
    }
    fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Times one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ns(start.elapsed()))
}

/// Median time of `f` over as many calls as fit in [`MIN_SPAN`] (at least
/// one, at most [`MAX_REPS`]); returns the last result too.
fn median_ns<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let begin = Instant::now();
    let mut times = Vec::new();
    loop {
        let (out, t) = timed(&mut f);
        times.push(t);
        if begin.elapsed() >= MIN_SPAN || times.len() >= MAX_REPS {
            return (out, median(&mut times));
        }
    }
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn kernel(name: &str) -> Res<Box<dyn Kernel>> {
    registry_kernel(name).ok_or_else(|| format!("unknown kernel '{name}'"))
}

fn trace(k: &dyn Kernel, n: usize) -> Res<AccessTrace> {
    k.access_trace(n)
        .ok_or_else(|| format!("{} has no trace at n = {n}", k.name()))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Res<T> {
    s.parse().map_err(|_| format!("bad {what} '{s}'"))
}

fn sweep_capacities() -> Vec<u64> {
    (SWEEP_LO..=SWEEP_HI).map(|k| 1u64 << k).collect()
}

/// Drains the trace generator; the count goes through `black_box`.
fn drain(k: &dyn Kernel, n: usize, cap: usize) -> Res<u64> {
    let t = trace(k, n)?;
    Ok(black_box(t.into_accesses().take(cap).count() as u64))
}

/// The address-space bound below which the sweeps use the direct table.
fn direct_bound(bound: u64) -> Option<u64> {
    (bound > 0 && bound < u64::from(u32::MAX / 2)).then_some(bound)
}

struct Plan {
    spans: Vec<Span>,
    kept: Vec<(ProfileMeta, ProfilePayload)>,
    /// Per-call timers on; off for the untraced side of the tracing overhead.
    timing: bool,
    /// Sweeps whose engine call was already timed on its own.
    engines_timed: BTreeSet<String>,
}

impl Plan {
    fn keep(&mut self, meta: ProfileMeta, payload: ProfilePayload) {
        self.kept.retain(|(m, _)| m.key() != meta.key());
        self.kept.push((meta, payload));
    }

    /// A new span, marked with whether per-call timers were on.
    fn span(&self, op: &str) -> Span {
        let mut s = Span::default();
        s.str("op", op).num("timed", u8::from(self.timing));
        s
    }

    /// Times `f` when per-call timers are on; reads 0 otherwise.
    fn clock<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        if self.timing {
            timed(f)
        } else {
            (f(), 0.0)
        }
    }

    fn run(&mut self, line: &str) -> Res<()> {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [] => Ok(()),
            ["timing", "on"] => {
                self.timing = true;
                Ok(())
            }
            ["timing", "off"] => {
                self.timing = false;
                Ok(())
            }
            ["sweep", k, n, engine, lw] => {
                self.sweep(k, parse(n, "n")?, engine, parse(lw, "line words")?)
            }
            ["probe", k, n, cap] => self.probe(k, parse(n, "n")?, parse(cap, "cap")?),
            ["tagged", k, n, lw, cap] => self.tagged(
                k,
                parse(n, "n")?,
                parse(lw, "line words")?,
                parse(cap, "cap")?,
            ),
            ["analytic", k, n] => self.analytic(k, parse(n, "n")?),
            ["build", dir, kernels, grid] => self.build(dir, kernels, grid),
            ["rebuild", dir, kernels, grid] => self.rebuild(dir, kernels, grid),
            ["fsck", dir] => self.fsck(dir),
            ["gets", dir] => self.gets(dir),
            ["puts", dir] => self.puts(dir),
            ["codec"] => self.codec(),
            ["fetch", dir, k, n] => self.fetch(dir, k, parse(n, "n")?),
            ["serve", dir, batch] => self.serve(dir, batch),
            _ => Err(format!("unknown plan line '{line}'")),
        }
    }

    /// `balance sweep --kernel K --n N --engine ENGINE [--line-words L]`,
    /// through the same public calls. The first time with timing on, then
    /// the engine call on its own, which must give the sweep's own numbers.
    fn sweep(&mut self, name: &str, n: usize, engine: &str, lw: u64) -> Res<()> {
        let k = kernel(name)?;
        let model = if lw > 1 {
            TrafficModel::device(lw)
        } else {
            TrafficModel::WORD
        };
        let mut cfg = SweepConfig::pow2(n, SWEEP_LO, SWEEP_HI, 42).with_traffic(model);
        let engine = engine_by_name_for_model(engine, cfg.memories.len(), k.as_ref(), n, model)?;
        cfg = cfg.with_engine(engine);
        let (result, wall_ns) = timed(|| capacity_sweep_par(k.as_ref(), &cfg));
        let result = result.map_err(|e| e.to_string())?;
        black_box(&result.points);

        let t = trace(k.as_ref(), n)?;
        let (len, bound) = (t.len(), t.addr_bound());
        drop(t);
        let mut s = self.span("sweep");
        s.str("kernel", name)
            .num("n", n as f64)
            .str("engine", &engine_spec(engine))
            .num("addrs", len as f64)
            .num("bound", bound as f64)
            .num("wall_ns", wall_ns);
        let id = format!("{name} {n} {} {lw}", engine_spec(engine));
        if !self.timing || !self.engines_timed.insert(id) {
            self.spans.push(s);
            return Ok(());
        }
        let (payload, engine_ns) = timed(|| engine_call(k.as_ref(), n, engine, model));
        let payload = payload?;
        same_points(&result, &payload).map_err(|e| format!("{name} n = {n}: {e}"))?;
        let gen_ns = if engine == Engine::Analytic {
            0.0
        } else {
            let (count, t) = timed(|| drain(k.as_ref(), n, usize::MAX));
            if count? != len {
                return Err(format!("{name} trace length differs from its header"));
            }
            t
        };
        // The store holds exact curves only, as `store build` writes them.
        if payload.is_exact() {
            let meta = ProfileMeta {
                kernel: name.to_string(),
                n: n as u64,
                engine: engine_spec(engine),
                sample_shift: 0,
                line_words: model.line_words,
                writebacks: model.writebacks,
            };
            self.keep(meta, payload);
        }
        s.num("engine_ns", engine_ns).num("gen_ns", gen_ns);
        self.spans.push(s);
        Ok(())
    }

    /// Every trace-engine layer on the first `cap` addresses of one trace,
    /// with the trace's full address bound.
    fn probe(&mut self, name: &str, n: usize, cap: u64) -> Res<()> {
        let k = kernel(name)?;
        let t = trace(k.as_ref(), n)?;
        let bound = t.addr_bound();
        let len = t.len().min(cap);
        drop(t);
        let take = usize::try_from(len).map_err(|_| "cap overflows usize".to_string())?;
        let kk = k.as_ref();
        let addrs = move || -> Res<_> { Ok(trace(kk, n)?.into_addrs().take(take)) };

        let (_, gen_ns) = median_ns(|| drain(kk, n, take));
        let (misses, lru_ns) = median_ns(|| -> Res<u64> {
            Ok(LruCache::with_capacity_words(LRU_WORDS).run_trace(addrs()?))
        });
        black_box(misses?);
        let (direct, direct_ns) = median_ns(|| -> Res<CapacityProfile> {
            Ok(StackDistance::profile_of_bounded(addrs()?, bound))
        });
        let direct = direct?;
        let (hashed, hashed_ns) =
            median_ns(|| -> Res<CapacityProfile> { Ok(StackDistance::profile_of(addrs()?)) });
        if hashed? != direct {
            return Err(format!("{name}: hashed and direct profiles differ"));
        }
        let (seg, seg_ns) = median_ns(|| {
            segmented_profile_of(len, Some(bound), 2, |s, e| {
                let (s, e) = (s as usize, e as usize);
                trace(kk, n)
                    .map(|t| t.into_addrs().take(take).skip(s).take(e - s))
                    .unwrap_or_else(|e| panic!("trace vanished: {e}"))
            })
        });
        if seg != direct {
            return Err(format!("{name}: segmented and serial profiles differ"));
        }
        let (sampled, sampled_ns) = median_ns(|| -> Res<CapacityProfile> {
            Ok(sampled_profile_of_bounded(addrs()?, bound, 4))
        });
        let sampled = sampled?;
        let rel_err = sweep_capacities()
            .into_iter()
            .map(|m| {
                let exact = direct.io_at(m) as f64;
                (sampled.io_at(m) as f64 - exact).abs() / exact.max(1.0)
            })
            .fold(0.0, f64::max);
        let io_at_ns = io_at_probe(&direct, n as u64);

        let mut s = self.span("probe");
        s.str("kernel", name)
            .num("n", n as f64)
            .num("addrs", len as f64)
            .num("bound", bound as f64)
            .num("gen_ns", gen_ns)
            .num("lru_ns", lru_ns)
            .num("direct_ns", direct_ns)
            .num("hashed_ns", hashed_ns)
            .num("seg2_ns", seg_ns)
            .num("sampled4_ns", sampled_ns)
            .num("io_at_ns", io_at_ns)
            .num("sampled_max_rel_err", rel_err);
        self.spans.push(s);
        Ok(())
    }

    fn tagged(&mut self, name: &str, n: usize, lw: u64, cap: u64) -> Res<()> {
        let k = kernel(name)?;
        let t = trace(k.as_ref(), n)?;
        let bound = t.addr_bound();
        let len = t.len().min(cap);
        drop(t);
        let take = len as usize;
        let (_, gen_ns) = median_ns(|| drain(k.as_ref(), n, take));
        let (tp, tagged_ns) = median_ns(|| -> Res<_> {
            let acc = trace(k.as_ref(), n)?.into_accesses().take(take);
            Ok(StackDistance::traffic_profile_of_bounded(acc, lw, bound))
        });
        black_box(tp?);
        let mut s = self.span("tagged");
        s.str("kernel", name)
            .num("n", n as f64)
            .num("line_words", lw as f64)
            .num("addrs", len as f64)
            .num("gen_ns", gen_ns)
            .num("tagged_ns", tagged_ns);
        self.spans.push(s);
        Ok(())
    }

    fn analytic(&mut self, name: &str, n: usize) -> Res<()> {
        let k = kernel(name)?;
        let (p, t) = median_ns(|| {
            k.analytic_profile(n)
                .map(balance_machine::AnalyticProfile::into_profile)
        });
        let p = p.ok_or_else(|| format!("{name} derives no analytic profile at n = {n}"))?;
        black_box(p);
        let mut s = self.span("analytic");
        s.str("kernel", name).num("n", n as f64).num("ns", t);
        self.spans.push(s);
        Ok(())
    }

    /// `balance store build`: for every grid point, a lookup, a recompute
    /// and a put (the put timed). With timing on, the analytic calls are
    /// then timed on their own, outside the span's wall time.
    fn build(&mut self, dir: &str, kernels: &str, grid: &str) -> Res<()> {
        let store = ProfileStore::open(dir).map_err(|e| e.to_string())?;
        let service = ProfileService::new(&store);
        let (mut built, mut puts, mut analytic_keys) = (0u64, Vec::new(), Vec::new());
        let begin = Instant::now();
        for name in kernels.split(',') {
            let k = kernel(name)?;
            for n in grid.split(',') {
                let n: usize = parse(n, "grid point")?;
                let key = key_for(name, n, TrafficModel::WORD);
                if matches!(
                    store.get(&key).map_err(|e| e.to_string())?,
                    Lookup::Hit { .. }
                ) {
                    return Err(format!("{key} already present in a fresh build"));
                }
                let (meta, payload, _) = service
                    .recompute(k.as_ref(), n, TrafficModel::WORD)
                    .map_err(|e| e.to_string())?;
                let (put, t_put) = self.clock(|| store.put(&meta, &payload));
                put.map_err(|e| e.to_string())?;
                built += 1;
                puts.push(t_put);
                if meta.engine == "analytic" {
                    analytic_keys.push((name, n));
                }
            }
        }
        let wall = ns(begin.elapsed());
        let mut s = self.span("build");
        s.num("wall_ns", wall).num("built", built as f64);
        if self.timing {
            let (mut analytic, mut bootstrap) = (Vec::new(), Vec::new());
            for (name, n) in analytic_keys {
                let k = kernel(name)?;
                let (p, t) = timed(|| {
                    k.analytic_profile(n)
                        .map(balance_machine::AnalyticProfile::into_profile)
                });
                black_box(p);
                if name.starts_with("grid") {
                    bootstrap.push(t);
                } else {
                    analytic.push(t);
                }
            }
            s.list("put_ns", &puts)
                .list("analytic_ns", &analytic)
                .list("bootstrap_ns", &bootstrap);
        }
        self.spans.push(s);
        Ok(())
    }

    fn rebuild(&mut self, dir: &str, kernels: &str, grid: &str) -> Res<()> {
        let store = ProfileStore::open(dir).map_err(|e| e.to_string())?;
        let ks = kernels.split(',').map(kernel).collect::<Res<Vec<_>>>()?;
        let grid = grid
            .split(',')
            .map(|n| parse(n, "grid point"))
            .collect::<Res<Vec<usize>>>()?;
        let (out, t) = timed(|| {
            build_store(
                &store,
                &ks,
                &grid,
                TrafficModel::WORD,
                None,
                &balance_machine::FaultPlan::none(),
            )
        });
        let out = out.map_err(|e| e.to_string())?;
        let mut s = self.span("rebuild");
        s.num("wall_ns", t)
            .num("built", out.built as f64)
            .num("skipped", out.skipped as f64)
            .num("failed", out.failed.len() as f64);
        self.spans.push(s);
        Ok(())
    }

    fn fsck(&mut self, dir: &str) -> Res<()> {
        let store = ProfileStore::open(dir).map_err(|e| e.to_string())?;
        let (report, t) = timed(|| store.fsck());
        let report = report.map_err(|e| e.to_string())?;
        let mut s = self.span("fsck");
        s.num("wall_ns", t)
            .num("valid", report.valid as f64)
            .num("healthy", if report.healthy() { 1.0 } else { 0.0 });
        self.spans.push(s);
        Ok(())
    }

    fn gets(&mut self, dir: &str) -> Res<()> {
        let store = ProfileStore::open(dir).map_err(|e| e.to_string())?;
        let keys = store.keys().map_err(|e| e.to_string())?;
        let mut times = Vec::new();
        for key in keys {
            let (hit, t) = timed(|| store.get(&key));
            match hit.map_err(|e| e.to_string())? {
                Lookup::Hit { meta, payload } => self.keep(meta, payload),
                _ => return Err(format!("{key} listed but not served")),
            }
            times.push(t);
        }
        let mut s = self.span("gets");
        s.list("get_ns", &times);
        self.spans.push(s);
        Ok(())
    }

    fn puts(&mut self, dir: &str) -> Res<()> {
        let store = ProfileStore::open(dir).map_err(|e| e.to_string())?;
        let mut times = Vec::new();
        for (meta, payload) in &self.kept {
            let (r, t) = timed(|| store.put(meta, payload));
            r.map_err(|e| e.to_string())?;
            times.push(t);
        }
        let mut s = self.span("puts");
        s.list("put_ns", &times);
        self.spans.push(s);
        Ok(())
    }

    fn codec(&mut self) -> Res<()> {
        let (mut enc, mut dec, mut bytes) = (0.0, 0.0, 0usize);
        for (meta, payload) in &self.kept {
            let (image, t) = median_ns(|| encode_profile(meta, payload));
            enc += t;
            bytes += image.len();
            let (back, t) = median_ns(|| decode_profile(&image));
            dec += t;
            let (m, p) = back.map_err(|e| e.to_string())?;
            if &m != meta || &p != payload {
                return Err(format!("{} does not round-trip", meta.key()));
            }
        }
        let mut s = self.span("codec");
        s.num("encode_ns", enc)
            .num("decode_ns", dec)
            .num("bytes", bytes as f64);
        self.spans.push(s);
        Ok(())
    }

    fn fetch(&mut self, dir: &str, name: &str, n: usize) -> Res<()> {
        let store = ProfileStore::open(dir).map_err(|e| e.to_string())?;
        let k = kernel(name)?;
        let service = ProfileService::new(&store);
        let (served, t) = timed(|| service.fetch(k.as_ref(), n, TrafficModel::WORD));
        let served = served.map_err(|e| e.to_string())?;
        let mut s = self.span("fetch");
        s.str("kernel", name)
            .num("n", n as f64)
            .str("source", &served.source.to_string())
            .num("ns", t);
        self.spans.push(s);
        Ok(())
    }

    /// `balance serve --batch`: one session answers every line; with timing
    /// on, each answer is timed and the per-verb percentiles reported.
    fn serve(&mut self, dir: &str, batch: &str) -> Res<()> {
        let store = ProfileStore::open(dir).map_err(|e| e.to_string())?;
        let input = std::fs::read_to_string(batch).map_err(|e| format!("{batch}: {e}"))?;
        let mut session = ServeSession::new(&store, TrafficModel::WORD, None, 1.0e9);
        let verbs = ["io", "intensity", "balance", "binding"];
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); verbs.len()];
        let (mut answered, mut failed, mut hits) = (0u64, 0u64, 0u64);
        let mut repaired = BTreeSet::new();
        let begin = Instant::now();
        for line in input.lines() {
            let (answer, t) = self.clock(|| session.answer(line));
            let Some(answer) = answer else { continue };
            answered += 1;
            if answer.starts_with("! ") {
                failed += 1;
            } else if answer.contains("[hit [") {
                hits += 1;
            } else {
                let mut f = line.split_whitespace().skip(1);
                repaired.insert((f.next().map(str::to_string), f.next().map(str::to_string)));
            }
            if self.timing {
                let verb = line.split_whitespace().next().unwrap_or("");
                if let Some(i) = verbs.iter().position(|v| *v == verb) {
                    times[i].push(t);
                }
            }
        }
        let wall = ns(begin.elapsed());
        let mut s = self.span("serve");
        s.num("wall_ns", wall)
            .num("answered", answered as f64)
            .num("failed", failed as f64)
            .num("hits", hits as f64)
            .num("repairs", repaired.len() as f64);
        if self.timing {
            for (verb, mut t) in verbs.iter().zip(times) {
                t.sort_by(f64::total_cmp);
                let pct = |q: f64| {
                    t.get(((t.len() as f64 - 1.0) * q).round() as usize)
                        .copied()
                };
                s.num(&format!("{verb}_p50_ns"), pct(0.5).unwrap_or(f64::NAN))
                    .num(&format!("{verb}_p99_ns"), pct(0.99).unwrap_or(f64::NAN))
                    .num(&format!("{verb}_count"), t.len() as f64);
            }
        }
        self.spans.push(s);
        Ok(())
    }
}

/// The engine call a sweep makes, on its own (it pulls the trace itself).
/// It restates the sweep's private dispatch, so [`same_points`] checks it.
fn engine_call(
    k: &dyn Kernel,
    n: usize,
    engine: Engine,
    model: TrafficModel,
) -> Res<ProfilePayload> {
    if engine == Engine::Analytic {
        let p = k
            .analytic_profile(n)
            .ok_or_else(|| format!("{} derives no analytic profile", k.name()))?;
        return Ok(ProfilePayload::Capacity(p.into_profile()));
    }
    let t = trace(k, n)?;
    let (len, bound) = (t.len(), t.addr_bound());
    if !model.is_word_granular_read_priced() {
        let acc = t.into_accesses();
        let tp = match direct_bound(bound) {
            Some(b) => StackDistance::traffic_profile_of_bounded(acc, model.line_words, b),
            None => StackDistance::traffic_profile_of(acc, model.line_words),
        };
        return Ok(ProfilePayload::Traffic(tp));
    }
    let bound = direct_bound(bound);
    let profile = match engine {
        Engine::StackDistPar { threads } => {
            drop(t);
            let threads = if threads == 0 {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            } else {
                threads
            };
            segmented_profile_of(len, bound, threads, |s, e| {
                trace(k, n)
                    .map(|t| t.into_addrs().skip(s as usize).take((e - s) as usize))
                    .unwrap_or_else(|e| panic!("trace vanished: {e}"))
            })
        }
        Engine::Sampled { shift } => match bound {
            Some(b) => sampled_profile_of_bounded(t.into_addrs(), b, shift),
            None => balance_machine::sampled_profile_of(t.into_addrs(), shift),
        },
        _ => match bound {
            Some(b) => StackDistance::profile_of_bounded(t.into_addrs(), b),
            None => StackDistance::profile_of(t.into_addrs()),
        },
    };
    Ok(ProfilePayload::Capacity(profile))
}

/// Checks that `payload` gives every sweep point's read and write-back
/// words, so that a drift between [`engine_call`] and the sweep's own
/// engine fails the run instead of skewing `sweep.self_ms`.
fn same_points(result: &SweepResult, payload: &ProfilePayload) -> Res<()> {
    for run in &result.runs {
        let m = run.m as u64;
        let want = match payload {
            ProfilePayload::Capacity(p) => (p.misses_at(m), 0),
            ProfilePayload::Traffic(tp) => (tp.read_words_at(m), tp.writeback_words_at(m)),
        };
        let cost = &run.execution.cost;
        if (cost.read_at(0), cost.writeback_at(0)) != (Some(want.0), Some(want.1)) {
            return Err(format!(
                "the engine call alone gives (read, write-back) = {want:?} at M = {m}, \
                 the sweep ({:?}, {:?})",
                cost.read_at(0),
                cost.writeback_at(0)
            ));
        }
    }
    Ok(())
}

/// Median ns per `io_at` query at seeded capacities up to twice the
/// saturating capacity.
fn io_at_probe(p: &CapacityProfile, seed: u64) -> f64 {
    let top = p.saturating_capacity().max(1) * 2;
    let mut x = seed | 1;
    let caps: Vec<u64> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1 + x % top
        })
        .collect();
    let (_, t) = median_ns(|| {
        caps.iter()
            .map(|&m| p.io_at(black_box(m)))
            .fold(0u64, u64::wrapping_add)
    });
    t / caps.len() as f64
}

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: perfbench-layers PLAN_FILE");
        std::process::exit(2);
    };
    let plan = match std::fs::read_to_string(&path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
    };
    let mut state = Plan {
        spans: Vec::new(),
        kept: Vec::new(),
        timing: true,
        engines_timed: BTreeSet::new(),
    };
    for line in plan.lines() {
        if let Err(e) = state.run(line) {
            eprintln!("plan line '{line}': {e}");
            std::process::exit(1);
        }
    }
    let spans: Vec<String> = state.spans.iter().map(Span::render).collect();
    println!("{{\"spans\":[{}]}}", spans.join(","));
}
