//! `balance store …` and `balance serve`: the crash-safe profile store's
//! front ends.
//!
//! * `balance store build` precomputes a kernel registry × size grid into
//!   a content-addressed [`ProfileStore`] — resumably: grid points whose
//!   entry already validates are skipped, so a killed build completes
//!   only the remainder on re-run.
//! * `balance store fsck` scrubs a store: quarantines corrupt, truncated,
//!   or stale-version images, adopts valid orphans, and rewrites the
//!   manifest.
//! * `balance serve` answers batch/REPL what-if queries (`io`,
//!   `intensity`, `balance`, `binding`) from the store through the
//!   self-healing [`ProfileService`]: hits are served as-is, misses and
//!   quarantined entries are recomputed down the repair ladder and
//!   re-persisted, and every answer carries its provenance
//!   (`hit` / `repaired(miss)` / `repaired(quarantined)`, engine,
//!   exactness). Exact-only queries (`balance`, `binding`) refuse
//!   sampled artifacts instead of silently degrading. The batch streams
//!   from a buffered reader to a buffered writer, one line at a time, so
//!   memory holds the session's profiles, not the batch or its answers.
//!   Answers are flushed whenever the read buffer holds no complete line,
//!   before the read that would wait for more: a file batch flushes once
//!   per 64 KiB refill, and on a stdin pipe each answer appears as soon
//!   as its query line arrives (a pipe REPL).

use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead as _, BufReader, BufWriter, Read, Write};

use balance_core::OpsPerSec;
use balance_kernels::prelude::*;
use balance_machine::{FaultPlan, ProfilePayload, ProfileStore};
use balance_roofline::HierarchicalRoofline;

use crate::cli::{parse_budget, parse_levels, parse_line_words, Flags};

/// Default size grid for `store build` when `--grid` is absent: powers
/// of two, valid for every registry kernel (the FFT in particular).
pub const DEFAULT_GRID: [usize; 3] = [16, 32, 64];

/// Parses `--grid N1,N2,...` into problem sizes; absent means
/// [`DEFAULT_GRID`].
///
/// # Errors
///
/// One-line diagnostics for unparsable, zero, or empty grids.
pub fn parse_grid(flags: &Flags) -> Result<Vec<usize>, String> {
    let Some(s) = flags.str_opt("grid") else {
        return Ok(DEFAULT_GRID.to_vec());
    };
    let mut grid = Vec::new();
    for item in s.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let n: usize = item
            .parse()
            .map_err(|e| format!("--grid '{item}': {e}"))?;
        if n == 0 {
            return Err(
                "--grid 0: grid entries are problem sizes and must be positive".to_string(),
            );
        }
        grid.push(n);
    }
    if grid.is_empty() {
        return Err("--grid: expected a comma-separated list of problem sizes".to_string());
    }
    Ok(grid)
}

/// Parses `--kernels a,b,...` against the profile-store registry; absent
/// means every registry kernel.
///
/// # Errors
///
/// Unknown names, with the list of valid ones.
pub fn parse_kernels(flags: &Flags) -> Result<Vec<Box<dyn Kernel>>, String> {
    let Some(s) = flags.str_opt("kernels") else {
        return Ok(registry());
    };
    let mut kernels = Vec::new();
    for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        kernels.push(registry_kernel(name).ok_or_else(|| {
            let known: Vec<String> = registry().iter().map(|k| k.name().to_string()).collect();
            format!("--kernels: unknown kernel '{name}' (try: {})", known.join(", "))
        })?);
    }
    if kernels.is_empty() {
        return Err("--kernels: expected a comma-separated list of kernel names".to_string());
    }
    Ok(kernels)
}

fn store_at(flags: &Flags, flag: &str) -> Result<ProfileStore, String> {
    let dir = flags
        .str_opt(flag)
        .ok_or(format!("missing required flag --{flag} (the store directory)"))?;
    ProfileStore::open(dir).map_err(|e| e.to_string())
}

fn traffic_model(flags: &Flags) -> Result<TrafficModel, String> {
    Ok(match parse_line_words(flags)? {
        Some(lw) => TrafficModel::device(lw),
        None => TrafficModel::WORD,
    })
}

/// `balance store build|fsck …`: dispatch on the store subcommand.
///
/// # Errors
///
/// User-facing messages for unknown subcommands or bad flags.
pub fn cmd_store(args: &[String]) -> Result<String, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("usage: balance store <build|fsck> --dir <path> …".to_string());
    };
    let flags = Flags::parse(rest)?;
    match sub.as_str() {
        "build" => cmd_store_build(&flags),
        "fsck" => cmd_store_fsck(&flags),
        other => Err(format!(
            "unknown store subcommand '{other}' (try: build, fsck)"
        )),
    }
}

/// `balance store build --dir <path> [--kernels a,b] [--grid N1,N2]
/// [--line-words L] [budget flags]`: precompute the registry × grid,
/// resumably.
///
/// # Errors
///
/// Flag or store-open errors, as one-line diagnostics.
pub fn cmd_store_build(flags: &Flags) -> Result<String, String> {
    let store = store_at(flags, "dir")?;
    let kernels = parse_kernels(flags)?;
    let grid = parse_grid(flags)?;
    let model = traffic_model(flags)?;
    let budget = parse_budget(flags)?;
    let outcome = build_store(&store, &kernels, &grid, model, budget, &FaultPlan::none())
        .map_err(|e| e.to_string())?;
    let mut out = format!(
        "store {}: built {}, skipped {} (already valid), failed {}\n",
        store.dir().display(),
        outcome.built,
        outcome.skipped,
        outcome.failed.len()
    );
    for (key, why) in &outcome.failed {
        out.push_str(&format!("  failed {key}: {why}\n"));
    }
    Ok(out)
}

/// `balance store fsck --dir <path>`: scrub the store and report.
///
/// # Errors
///
/// Flag or store errors, as one-line diagnostics.
pub fn cmd_store_fsck(flags: &Flags) -> Result<String, String> {
    let store = store_at(flags, "dir")?;
    let report = store.fsck().map_err(|e| e.to_string())?;
    Ok(format!("store {}: {report}\n", store.dir().display()))
}

/// One serve session: the self-healing service plus one in-memory slot per
/// `(kernel, n)` key, so repeated queries against the same artifact are
/// answered at memory speed (the ≥10⁵ queries/s target is measured through
/// this exact path by `benches/profstore.rs`). Every answer is still
/// computed from its profile; nothing caches answers.
#[derive(Debug)]
pub struct ServeSession<'a> {
    service: ProfileService<'a>,
    model: TrafficModel,
    peak: f64,
    /// Registry names: a query's kernel interns to its `&'static str`, so a
    /// slot lookup allocates nothing.
    names: Vec<&'static str>,
    slots: HashMap<(&'static str, usize), Slot>,
}

/// What a session has learned about one `(kernel, n)` key.
#[derive(Debug)]
struct Slot {
    served: Served,
    /// The provenance tag. A `Served` never changes after insertion, so
    /// its tag is rendered once, at the fetch.
    tag: String,
    /// The kernel's operation count at `n`, once a query needed it.
    ops: Option<u64>,
}

impl Slot {
    fn fetch(
        service: &ProfileService<'_>,
        model: TrafficModel,
        kernel: &str,
        n: usize,
        ops: Option<u64>,
    ) -> Result<Slot, String> {
        let k = registry_kernel(kernel).ok_or_else(|| format!("unknown kernel '{kernel}'"))?;
        let served = service
            .fetch(k.as_ref(), n, model)
            .map_err(|e| e.to_string())?;
        Ok(Slot {
            tag: served.describe(),
            served,
            ops,
        })
    }
}

/// The operation count of `kernel`'s canonical trace at `n`.
fn comp_ops(kernel: &str, n: usize) -> Result<u64, String> {
    registry_kernel(kernel)
        .and_then(|k| k.access_trace(n))
        .map(|trace| trace.comp_ops())
        .ok_or_else(|| format!("{kernel} has no canonical trace at n = {n}"))
}

impl<'a> ServeSession<'a> {
    /// A session over `store`. `peak` is the compute roof in op/s used
    /// by `binding` queries; `budget` bounds repair recomputes.
    #[must_use]
    pub fn new(
        store: &'a ProfileStore,
        model: TrafficModel,
        budget: Option<balance_core::Budget>,
        peak: f64,
    ) -> ServeSession<'a> {
        let mut service = ProfileService::new(store);
        if let Some(b) = budget {
            service = service.with_budget(b);
        }
        ServeSession {
            service,
            model,
            peak,
            names: registry().iter().map(|k| k.name()).collect(),
            slots: HashMap::new(),
        }
    }

    /// Answers one query line; `None` for blanks and `#` comments.
    /// Malformed or failing queries answer a `! `-prefixed diagnostic —
    /// the session keeps serving.
    pub fn answer(&mut self, line: &str) -> Option<String> {
        // One allocation: an answer is the query plus at most about a
        // hundred bytes of result and provenance tag.
        let mut out = String::with_capacity(line.len() + 128);
        self.answer_into(line, &mut out).then_some(out)
    }

    /// Appends the answer to one query line to `out`, without a newline,
    /// and returns `true`; returns `false` and leaves `out` as it was for
    /// blanks and `#` comments. A malformed or failing query appends its
    /// `! `-prefixed diagnostic in place of any partial answer.
    pub fn answer_into(&mut self, line: &str, out: &mut String) -> bool {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return false;
        }
        let start = out.len();
        if let Err(e) = self.write_answer(line, out) {
            out.truncate(start);
            let _ = write!(out, "! {line}: {e}");
        }
        true
    }

    /// [`answer_into`](Self::answer_into) for a raw input line: one that is
    /// not UTF-8 answers a `! ` diagnostic (its lossy text) instead of
    /// failing the batch, unless it is a `#` comment.
    fn answer_bytes_into(&mut self, line: &[u8], out: &mut String) -> bool {
        match std::str::from_utf8(line) {
            Ok(line) => self.answer_into(line, out),
            Err(_) => {
                let text = String::from_utf8_lossy(line);
                let line = text.trim();
                if line.starts_with('#') {
                    return false;
                }
                let _ = write!(out, "! {line}: not UTF-8");
                true
            }
        }
    }

    fn write_answer(&mut self, line: &str, out: &mut String) -> Result<(), String> {
        let mut fields = line.split_whitespace();
        let query = (
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
        );
        let (Some(verb), Some(kernel), Some(n), Some(arg), None) = query else {
            return Err(QUERY_FORMS.to_string());
        };
        let written = match verb {
            "io" => {
                let (n, m) = (parse_n(n)?, parse_m(arg)?);
                let name = self.intern(kernel).ok_or_else(|| {
                    format!("unknown kernel '{kernel}' (try: {})", self.names.join(", "))
                })?;
                let slot = self.slot(name, n)?;
                let words = io_words_at(&slot.served.payload, m);
                write!(out, "io {kernel} {n} {m} = {words} words  [{}]", slot.tag)
            }
            "intensity" => {
                let (n, m) = (parse_n(n)?, parse_m(arg)?);
                let (slot, ops) = self.slot_with_ops(kernel, n)?;
                let words = io_words_at(&slot.served.payload, m);
                let r = if words == 0 {
                    f64::INFINITY
                } else {
                    ops as f64 / words as f64
                };
                write!(
                    out,
                    "intensity {kernel} {n} {m} = {r:.4} op/word  [{}]",
                    slot.tag
                )
            }
            "balance" => {
                let n = parse_n(n)?;
                let ratio: f64 = arg
                    .parse()
                    .map_err(|e| format!("ops/word ratio '{arg}': {e}"))?;
                let (slot, ops) = self.slot_with_ops(kernel, n)?;
                let (served, tag) = (&slot.served, &slot.tag);
                require_exact(served, "balance")?;
                match balance_point(&served.payload, ops, ratio) {
                    Some(m) => write!(out, "balance {kernel} {n} {ratio} = M {m} words  [{tag}]"),
                    None => write!(
                        out,
                        "balance {kernel} {n} {ratio} = impossible (io-bounded: no \
                         capacity reaches {ratio} op/word)  [{tag}]"
                    ),
                }
            }
            "binding" => {
                let n = parse_n(n)?;
                let spec = parse_levels(arg)?;
                let peak = self.peak;
                let (slot, ops) = self.slot_with_ops(kernel, n)?;
                let (served, tag) = (&slot.served, &slot.tag);
                require_exact(served, "binding")?;
                let traffic = match &served.payload {
                    ProfilePayload::Capacity(p) => p.traffic_for(&spec),
                    ProfilePayload::Traffic(t) => t.traffic_for(&spec),
                };
                let ai: Vec<f64> = (0..spec.depth())
                    .map(|i| match traffic.get(i) {
                        Some(0) | None => f64::INFINITY,
                        Some(w) => ops as f64 / w as f64,
                    })
                    .collect();
                let roofline = HierarchicalRoofline::new(OpsPerSec::new(peak), &spec)
                    .map_err(|e| e.to_string())?;
                let attainable = roofline.attainable(&ai);
                match roofline.binding_level(&ai) {
                    Some(level) => write!(
                        out,
                        "binding {kernel} {n} = L{} (attainable {attainable:.3e} op/s)  [{tag}]",
                        level + 1
                    ),
                    None => write!(
                        out,
                        "binding {kernel} {n} = compute (attainable {attainable:.3e} op/s)  [{tag}]"
                    ),
                }
            }
            _ => return Err(QUERY_FORMS.to_string()),
        };
        written.map_err(|e| e.to_string())
    }

    /// The registry's own spelling of `kernel`, if it names one.
    fn intern(&self, kernel: &str) -> Option<&'static str> {
        self.names.iter().copied().find(|&name| name == kernel)
    }

    /// The slot of `(kernel, n)`, fetched on first use. A warm key costs
    /// one hash lookup; a key whose fetch fails is not kept.
    fn slot(&mut self, kernel: &'static str, n: usize) -> Result<&Slot, String> {
        let (service, model) = (&self.service, self.model);
        match self.slots.entry((kernel, n)) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => Ok(e.insert(Slot::fetch(service, model, kernel, n, None)?)),
        }
    }

    /// The slot of a query that needs the op count too. The count comes
    /// first, so `intensity fft 100 16` fails on its missing trace before
    /// any repair starts.
    fn slot_with_ops(&mut self, kernel: &str, n: usize) -> Result<(&Slot, u64), String> {
        let name = self
            .intern(kernel)
            .ok_or_else(|| format!("unknown kernel '{kernel}'"))?;
        let (service, model) = (&self.service, self.model);
        match self.slots.entry((name, n)) {
            Entry::Occupied(e) => {
                let slot = e.into_mut();
                let ops = match slot.ops {
                    Some(ops) => ops,
                    None => *slot.ops.insert(comp_ops(name, n)?),
                };
                Ok((slot, ops))
            }
            Entry::Vacant(e) => {
                let ops = comp_ops(name, n)?;
                let slot = Slot::fetch(service, model, name, n, Some(ops))?;
                Ok((e.insert(slot), ops))
            }
        }
    }
}

const QUERY_FORMS: &str =
    "expected 'io K N M', 'intensity K N M', 'balance K N R', or 'binding K N CAP:BW[,...]'";

fn parse_n(s: &str) -> Result<usize, String> {
    s.parse().map_err(|e| format!("problem size '{s}': {e}"))
}

fn parse_m(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("capacity '{s}': {e}"))
}

/// Total boundary words at capacity `m`: the capacity curve's `io_at`,
/// or — device-real — line-granular read words plus write-back words.
fn io_words_at(payload: &ProfilePayload, m: u64) -> u64 {
    match payload {
        ProfilePayload::Capacity(p) => p.io_at(m),
        ProfilePayload::Traffic(t) => t.read_words_at(m) + t.writeback_words_at(m),
    }
}

/// Exact-only consumers (`balance`, `binding`) refuse sampled artifacts:
/// an approximate curve would silently shift the answer.
fn require_exact(served: &Served, query: &str) -> Result<(), String> {
    if served.is_exact() {
        Ok(())
    } else {
        Err(format!(
            "refusing a non-exact artifact (sampling rate 1/{}) for the exact-only \
             '{query}' query; rebuild the entry without a budget cap",
            1u64 << served.profile().sample_shift()
        ))
    }
}

/// Smallest capacity whose intensity `ops / io_at(M)` reaches `ratio`,
/// or `None` when even the saturating capacity stays io-bounded below
/// it. Binary search over the monotone (non-increasing) io curve.
fn balance_point(payload: &ProfilePayload, ops: u64, ratio: f64) -> Option<u64> {
    let reaches = |m: u64| {
        let words = io_words_at(payload, m);
        words == 0 || ops as f64 / words as f64 >= ratio
    };
    let mut hi = payload.profile().saturating_capacity().max(1);
    if !reaches(hi) {
        return None;
    }
    let mut lo = 1u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Read and write buffer size of `balance serve`.
const SERVE_BUF: usize = 64 * 1024;

/// `balance serve --store <path> [--batch FILE|-] [--line-words L]
/// [--peak <op/s>] [budget flags]`: answer a batch of what-if queries
/// through the self-healing store, writing one answer line per query to
/// `out`. `--batch -` (or no `--batch`) reads stdin.
///
/// The batch streams: lines are read through a buffer and answered one at
/// a time, so memory holds the session's profiles, not the batch or its
/// answers. Answers are flushed whenever the read buffer holds no complete
/// line, before the next blocking read. A file batch therefore flushes once
/// per buffer refill, and `balance serve --store s` works as a pipe REPL:
/// each answer appears as soon as its query line arrives. A reader that
/// goes away (`| head -1`) ends the run quietly.
///
/// # Errors
///
/// Flag, store-open, batch-read, or output-write errors, as one-line
/// diagnostics (individual query failures answer inline `! ` lines
/// instead).
pub fn cmd_serve(flags: &Flags, out: &mut dyn Write) -> Result<(), String> {
    let store = store_at(flags, "store")?;
    let model = traffic_model(flags)?;
    let budget = parse_budget(flags)?;
    let peak = match flags.str_opt("peak") {
        Some(_) => flags.f64("peak")?,
        None => 1.0e9,
    };
    let (input, source): (Box<dyn Read>, String) = match flags.str_opt("batch") {
        Some("-") | None => (
            Box::new(std::io::stdin().lock()),
            "reading stdin".to_string(),
        ),
        Some(path) => (
            Box::new(File::open(path).map_err(|e| format!("--batch {path}: {e}"))?),
            format!("--batch {path}"),
        ),
    };
    let mut session = ServeSession::new(&store, model, budget, peak);
    let mut input = BufReader::with_capacity(SERVE_BUF, input);
    let mut out = BufWriter::with_capacity(SERVE_BUF, out);
    let mut line = Vec::new();
    let mut answer = String::new();
    let written = loop {
        if !input.buffer().contains(&b'\n') {
            if let Err(e) = out.flush() {
                break Err(e);
            }
        }
        line.clear();
        match input.read_until(b'\n', &mut line) {
            Ok(0) => break out.flush(),
            Ok(_) => {}
            Err(e) => return Err(format!("{source}: {e}")),
        }
        answer.clear();
        if session.answer_bytes_into(strip_line_end(&line), &mut answer) {
            answer.push('\n');
            if let Err(e) = out.write_all(answer.as_bytes()) {
                break Err(e);
            }
        }
    };
    crate::cli::output_written(written)
}

/// One read line without its `\n` or `\r\n`, exactly as `str::lines`
/// splits.
fn strip_line_end(line: &[u8]) -> &[u8] {
    match line.strip_suffix(b"\n") {
        Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_string()).collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "kb-storecli-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn grid_rejects_zero_and_garbage() {
        let f = Flags::parse(&args(&["--grid", "0"])).unwrap();
        let err = parse_grid(&f).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let f = Flags::parse(&args(&["--grid", "16,abc"])).unwrap();
        assert!(parse_grid(&f).is_err());
        let f = Flags::parse(&args(&["--grid", ","])).unwrap();
        assert!(parse_grid(&f).is_err());
        let f = Flags::parse(&args(&["--grid", "8, 16"])).unwrap();
        assert_eq!(parse_grid(&f).unwrap(), vec![8, 16]);
    }

    #[test]
    fn kernels_flag_rejects_unknown_names() {
        let f = Flags::parse(&args(&["--kernels", "matmul,nonsense"])).unwrap();
        let err = match parse_kernels(&f) {
            Err(e) => e,
            Ok(_) => panic!("unknown kernel accepted"),
        };
        assert!(err.contains("nonsense") && err.contains("matmul"), "{err}");
        let f = Flags::parse(&args(&["--kernels", "fft,sort"])).unwrap();
        assert_eq!(parse_kernels(&f).unwrap().len(), 2);
    }

    #[test]
    fn store_build_requires_dir_and_rejects_unwritable() {
        let f = Flags::parse(&args(&[])).unwrap();
        assert!(cmd_store_build(&f).unwrap_err().contains("--dir"));
        let f = Flags::parse(&args(&["--dir", "/proc/kb-no-such-store"])).unwrap();
        assert!(cmd_store_build(&f).is_err());
    }

    #[test]
    fn store_build_then_fsck_then_serve_round_trip() {
        let dir = tmp_dir("roundtrip");
        let dir_s = dir.to_string_lossy().to_string();
        let f = Flags::parse(&args(&[
            "--dir", &dir_s, "--kernels", "matmul", "--grid", "8,16",
        ]))
        .unwrap();
        let out = cmd_store_build(&f).unwrap();
        assert!(out.contains("built 2"), "{out}");
        // Resumable: a second pass skips everything.
        let out = cmd_store_build(&f).unwrap();
        assert!(out.contains("skipped 2"), "{out}");
        let f = Flags::parse(&args(&["--dir", &dir_s])).unwrap();
        let out = cmd_store_fsck(&f).unwrap();
        assert!(out.contains("2 valid"), "{out}");

        let store = ProfileStore::open(&dir).unwrap();
        let mut session = ServeSession::new(&store, TrafficModel::WORD, None, 1.0e9);
        let a = session.answer("io matmul 16 64").unwrap();
        assert!(a.starts_with("io matmul 16 64 = "), "{a}");
        assert!(a.contains("hit ["), "{a}");
        let a = session.answer("intensity matmul 16 64").unwrap();
        assert!(a.contains("op/word"), "{a}");
        let a = session.answer("balance matmul 16 2.0").unwrap();
        assert!(a.contains("= M "), "{a}");
        let a = session
            .answer("binding matmul 16 64:1e8,4096:1e7")
            .unwrap();
        assert!(a.contains("binding matmul 16 = "), "{a}");
        assert!(session.answer("# comment").is_none());
        assert!(session.answer("").is_none());
        let a = session.answer("io nonsense 8 8").unwrap();
        assert!(a.starts_with("! "), "{a}");
        let a = session.answer("io matmul eight 8").unwrap();
        assert!(a.starts_with("! "), "{a}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_repairs_a_cold_store_and_balance_point_is_monotone_consistent() {
        let dir = tmp_dir("cold");
        let store = ProfileStore::open(&dir).unwrap();
        let mut session = ServeSession::new(&store, TrafficModel::WORD, None, 1.0e9);
        let a = session.answer("io matmul 8 27").unwrap();
        assert!(a.contains("repaired(miss)"), "{a}");
        // The balance answer, recomputed directly: intensity at M-1 must
        // miss the target and at M reach it.
        let a = session.answer("balance matmul 8 1.5").unwrap();
        let m: u64 = a
            .split("= M ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        let (slot, ops) = session.slot_with_ops("matmul", 8).unwrap();
        let profile = slot.served.profile().clone();
        assert!(ops as f64 / profile.io_at(m) as f64 >= 1.5);
        if m > 1 {
            assert!((ops as f64) / profile.io_at(m - 1) as f64 <= 1.5 + 1e-9);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exact_only_queries_refuse_sampled_artifacts() {
        use balance_core::Budget;
        let dir = tmp_dir("exactonly");
        let store = ProfileStore::open(&dir).unwrap();
        // A starved budget forces the fft repair down to the sampled tier.
        let budget = Budget::unlimited().with_max_addresses(64);
        let mut session = ServeSession::new(&store, TrafficModel::WORD, Some(budget), 1.0e9);
        let a = session.answer("io fft 64 32").unwrap();
        assert!(a.contains("rate 1/"), "{a}");
        let a = session.answer("balance fft 64 2.0").unwrap();
        assert!(a.starts_with("! ") && a.contains("non-exact"), "{a}");
        let a = session.answer("binding fft 64 32:1e8").unwrap();
        assert!(a.starts_with("! ") && a.contains("non-exact"), "{a}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_cli_reads_a_batch_file() {
        let dir = tmp_dir("batch");
        let batch = dir.join("queries.txt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&batch, "# header\nio matmul 8 27\nbogus line\n").unwrap();
        let f = Flags::parse(&args(&[
            "--store",
            &dir.to_string_lossy(),
            "--batch",
            &batch.to_string_lossy(),
        ]))
        .unwrap();
        let mut out = Vec::new();
        cmd_serve(&f, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].starts_with("io matmul 8 27 = "), "{out}");
        assert!(lines[1].starts_with("! bogus line"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch with every verb, a blank line, a comment, malformed and
    /// failing queries, a CRLF line and a last line without a newline.
    const MIXED_BATCH: &str = "# serve byte-identity batch\nio matmul 16 64\n\
        intensity matmul 16 64\nbalance matmul 16 2.0\nbinding matmul 16 64:1e8,4096:1e7\n\
        \n  io matmul 8 27\r\nbogus line\nio matmul eight 8\nio nonsense 8 8\n\
        intensity nonsense 8 8\nio fft 100 16\nintensity fft 100 16\nintensity fft 16 64\n\
        balance matmul 8 1000\nbalance matmul 16 abc\nbinding fft 16 32:1e8\nio matmul 16 4096";

    /// `MIXED_BATCH` answered by the buffered serve path that streaming
    /// replaced, over a store holding matmul at n = 8 and 16.
    const MIXED_ANSWERS: &str = "\
io matmul 16 64 = 4608 words  [hit [analytic, exact]]
intensity matmul 16 64 = 1.7778 op/word  [hit [analytic, exact]]
balance matmul 16 2 = M 304 words  [hit [analytic, exact]]
binding matmul 16 = L2 (attainable 1.067e8 op/s)  [hit [analytic, exact]]
io matmul 8 27 = 640 words  [hit [analytic, exact]]
! bogus line: expected 'io K N M', 'intensity K N M', 'balance K N R', or 'binding K N CAP:BW[,...]'
! io matmul eight 8: problem size 'eight': invalid digit found in string
! io nonsense 8 8: unknown kernel 'nonsense' (try: matmul, triangularization, grid2d, grid3d, fft, sort, matvec, trisolve, convolution, transpose, multi_matvec)
! intensity nonsense 8 8: unknown kernel 'nonsense'
! io fft 100 16: bad parameters: fft has no canonical access trace at n = 100 (cache-model sweeps need one; use Measure::Execute instead)
! intensity fft 100 16: fft has no canonical trace at n = 100
intensity fft 16 64 = 10.0000 op/word  [repaired(miss) [stackdist, exact]]
balance matmul 8 1000 = impossible (io-bounded: no capacity reaches 1000 op/word)  [hit [analytic, exact]]
! balance matmul 16 abc: ops/word ratio 'abc': invalid float literal
binding fft 16 = compute (attainable 1.000e9 op/s)  [repaired(miss) [stackdist, exact]]
io matmul 16 4096 = 768 words  [hit [analytic, exact]]
";

    /// A fresh store under `dir` holding matmul at n = 8 and 16.
    fn matmul_store(dir: &std::path::Path) -> ProfileStore {
        let f = Flags::parse(&args(&[
            "--dir",
            &dir.to_string_lossy(),
            "--kernels",
            "matmul",
            "--grid",
            "8,16",
        ]))
        .unwrap();
        cmd_store_build(&f).unwrap();
        ProfileStore::open(dir).unwrap()
    }

    /// `balance serve` over `batch` (written to a file) and the store at
    /// `dir`, as the bytes it prints.
    fn serve_file(dir: &std::path::Path, batch: &[u8]) -> Vec<u8> {
        let path = dir.with_extension("batch");
        std::fs::write(&path, batch).unwrap();
        let f = Flags::parse(&args(&[
            "--store",
            &dir.to_string_lossy(),
            "--batch",
            &path.to_string_lossy(),
        ]))
        .unwrap();
        let mut out = Vec::new();
        cmd_serve(&f, &mut out).unwrap();
        let _ = std::fs::remove_file(&path);
        out
    }

    #[test]
    fn streamed_serve_is_byte_identical_to_answer_per_line() {
        let dirs: Vec<PathBuf> = (0..3).map(|i| tmp_dir(&format!("ident{i}"))).collect();
        let stores: Vec<ProfileStore> = dirs.iter().map(|d| matmul_store(d)).collect();

        // The buffered algorithm: `answer` per `str::lines` line, plus '\n'.
        let mut session = ServeSession::new(&stores[0], TrafficModel::WORD, None, 1.0e9);
        let mut expected = String::new();
        for line in MIXED_BATCH.lines() {
            if let Some(a) = session.answer(line) {
                expected.push_str(&a);
                expected.push('\n');
            }
        }
        assert_eq!(expected, MIXED_ANSWERS);

        // `answer_into` agrees with `answer` line by line, appending.
        let mut session = ServeSession::new(&stores[1], TrafficModel::WORD, None, 1.0e9);
        let mut out = String::from("kept");
        let mut want = out.clone();
        let mut answers = MIXED_ANSWERS.lines();
        for line in MIXED_BATCH.lines() {
            if session.answer_into(line, &mut out) {
                want.push_str(answers.next().unwrap());
            }
            assert_eq!(out, want, "after {line:?}");
        }
        assert_eq!(answers.next(), None);

        let streamed = serve_file(&dirs[2], MIXED_BATCH.as_bytes());
        assert_eq!(String::from_utf8(streamed).unwrap(), MIXED_ANSWERS);
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_line_that_is_not_utf8_answers_a_diagnostic_and_serving_goes_on() {
        let dir = tmp_dir("utf8");
        let out = serve_file(
            &dir,
            b"io matmul 8 27\nio mat\xffmul 8 27\n# caf\xe9\nio matmul 8 64\n",
        );
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].starts_with("io matmul 8 27 = "), "{out}");
        assert_eq!(lines[1], "! io mat\u{fffd}mul 8 27: not UTF-8");
        assert!(lines[2].starts_with("io matmul 8 64 = "), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_output_errors_other_than_a_closed_pipe_fail_the_run() {
        struct Failing(std::io::ErrorKind);
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(self.0.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(self.0.into())
            }
        }
        let dir = tmp_dir("failing");
        let batch = dir.with_extension("batch");
        std::fs::write(&batch, "io matmul 8 27\n").unwrap();
        let f = Flags::parse(&args(&[
            "--store",
            &dir.to_string_lossy(),
            "--batch",
            &batch.to_string_lossy(),
        ]))
        .unwrap();
        let closed = cmd_serve(&f, &mut Failing(std::io::ErrorKind::BrokenPipe));
        assert_eq!(closed, Ok(()));
        let full = cmd_serve(&f, &mut Failing(std::io::ErrorKind::StorageFull));
        assert!(full.unwrap_err().starts_with("writing output: "));
        let _ = std::fs::remove_file(&batch);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
