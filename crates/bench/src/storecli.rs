//! `balance store …` and `balance serve`: the crash-safe profile store's
//! front ends.
//!
//! * `balance store build` precomputes a kernel registry × size grid into
//!   a content-addressed [`ProfileStore`] — resumably: grid points whose
//!   entry already validates are skipped, so a killed build completes
//!   only the remainder on re-run.
//! * `balance store fsck` scrubs a store offline: deletes leftover temp
//!   files and quarantines corrupt, truncated, or stale-version images.
//!   The store is its directory of images, so there is nothing else to
//!   reconcile; builds and serve sessions may share a store, but fsck
//!   must not run beside them.
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
//!
//! An answer is pushed into the reused buffer piece by piece, with no
//! `write!`: integers and the exact `{:.4}` / `{:.3e}` float formatters
//! live in `numfmt`. An ASCII line splits on bytes, a slot is found by
//! kernel index and a binary search over that kernel's sizes, and
//! `balance` reads the exact breakpoint inverse
//! ([`ProfilePayload::min_capacity_reaching`]). Warm, one verb at a time
//! (`benches/profstore.rs`, median of 6 smoke runs on a 2-core host), an
//! answer costs about 150 ns for `io`, 190 for `intensity`, 260 for
//! `balance` and 840 for `binding`. Through `fmt`, Unicode splitting, a
//! SipHash map and an f64 bisection it cost 320, 700, 600 and 960.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead as _, BufReader, BufWriter, Read, Write};

use balance_core::OpsPerSec;
use balance_kernels::prelude::*;
use balance_machine::{FaultPlan, ProfilePayload, ProfileStore};
use balance_roofline::HierarchicalRoofline;

use crate::cli::{parse_budget, parse_levels, parse_line_words, Flags};
use crate::numfmt::{push_fixed4, push_ratio, push_sci3, push_u64};

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
    /// Registry names: a query's kernel is found by its index here, so a
    /// slot lookup allocates nothing.
    names: Vec<&'static str>,
    /// Per registry kernel, its slots sorted by `n`. A lookup is a binary
    /// search over one kernel's sizes; an insert shifts them, but comes
    /// with a fetch or a repair that costs far more.
    slots: Vec<Vec<(usize, Slot)>>,
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
        let names: Vec<&'static str> = registry().iter().map(|k| k.name()).collect();
        ServeSession {
            service,
            model,
            peak,
            slots: names.iter().map(|_| Vec::new()).collect(),
            names,
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

    /// Appends one answer, piece by piece: nothing on this path goes
    /// through `fmt`, except the formatters' documented fallbacks.
    fn write_answer(&mut self, line: &str, out: &mut String) -> Result<(), String> {
        let Some([verb, kernel, n, arg]) = query_fields(line) else {
            return Err(QUERY_FORMS.to_string());
        };
        let slot = match verb {
            "io" => {
                let (n, m) = (parse_n(n)?, parse_m(arg)?);
                let (slot, _) = self.slot(kernel, n, false)?;
                let words = slot.served.payload.words_at(m);
                push_query(out, "io ", kernel, n, m);
                push_u64(out, words);
                out.push_str(" words");
                slot
            }
            "intensity" => {
                let (n, m) = (parse_n(n)?, parse_m(arg)?);
                let (slot, ops) = self.slot(kernel, n, true)?;
                let words = slot.served.payload.words_at(m);
                let r = if words == 0 {
                    f64::INFINITY
                } else {
                    ops as f64 / words as f64
                };
                push_query(out, "intensity ", kernel, n, m);
                push_fixed4(out, r);
                out.push_str(" op/word");
                slot
            }
            "balance" => {
                let n = parse_n(n)?;
                let ratio: f64 = arg
                    .parse()
                    .map_err(|e| format!("ops/word ratio '{arg}': {e}"))?;
                if !(ratio.is_finite() && ratio > 0.0) {
                    return Err(format!(
                        "ops/word ratio '{arg}': must be finite and positive"
                    ));
                }
                let (slot, ops) = self.slot(kernel, n, true)?;
                require_exact(&slot.served, "balance")?;
                let at = slot.served.payload.min_capacity_reaching(ops, ratio);
                out.push_str("balance ");
                out.push_str(kernel);
                out.push(' ');
                push_u64(out, n as u64);
                out.push(' ');
                push_ratio(out, arg, ratio);
                match at {
                    Some(m) => {
                        out.push_str(" = M ");
                        push_u64(out, m);
                        out.push_str(" words");
                    }
                    None => {
                        out.push_str(" = impossible (io-bounded: no capacity reaches ");
                        push_ratio(out, arg, ratio);
                        out.push_str(" op/word)");
                    }
                }
                slot
            }
            "binding" => {
                let n = parse_n(n)?;
                let spec = parse_levels(arg)?;
                let peak = self.peak;
                let (slot, ops) = self.slot(kernel, n, true)?;
                require_exact(&slot.served, "binding")?;
                let traffic = match &slot.served.payload {
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
                out.push_str("binding ");
                out.push_str(kernel);
                out.push(' ');
                push_u64(out, n as u64);
                match roofline.binding_level(&ai) {
                    Some(level) => {
                        out.push_str(" = L");
                        push_u64(out, level as u64 + 1);
                    }
                    None => out.push_str(" = compute"),
                }
                out.push_str(" (attainable ");
                push_sci3(out, roofline.attainable(&ai));
                out.push_str(" op/s)");
                slot
            }
            _ => return Err(QUERY_FORMS.to_string()),
        };
        out.push_str("  [");
        out.push_str(&slot.tag);
        out.push(']');
        Ok(())
    }

    /// The slot of `(kernel, n)`, fetched on first use, and with `ops`
    /// the kernel's op count at `n` (0 without). A key whose fetch fails
    /// is not kept. A warm key costs one scan of the eleven registry names
    /// and one binary search. The op count comes before any fetch, so
    /// `intensity fft 100 16` fails on its missing trace before a repair
    /// starts. (An unknown kernel lists the registry only for `io`, as it
    /// always has.)
    fn slot(&mut self, kernel: &str, n: usize, ops: bool) -> Result<(&Slot, u64), String> {
        let Some(k) = self.names.iter().position(|&name| name == kernel) else {
            return Err(if ops {
                format!("unknown kernel '{kernel}'")
            } else {
                format!("unknown kernel '{kernel}' (try: {})", self.names.join(", "))
            });
        };
        let (service, model, name) = (&self.service, self.model, self.names[k]);
        let slots = &mut self.slots[k];
        let at = match slots.binary_search_by_key(&n, |&(size, _)| size) {
            Ok(at) => at,
            Err(at) => {
                let count = if ops { Some(comp_ops(name, n)?) } else { None };
                slots.insert(at, (n, Slot::fetch(service, model, name, n, count)?));
                at
            }
        };
        let slot = &mut slots[at].1;
        let count = match slot.ops {
            Some(count) => count,
            None if ops => *slot.ops.insert(comp_ops(name, n)?),
            None => 0,
        };
        Ok((slot, count))
    }
}

const QUERY_FORMS: &str =
    "expected 'io K N M', 'intensity K N M', 'balance K N R', or 'binding K N CAP:BW[,...]'";

/// The four whitespace-separated fields of a query, or `None` for any
/// other count. A plain ASCII line splits in one pass over its bytes; a
/// line with other text, or with `\x0B` (which ASCII whitespace leaves
/// inside a field), splits on Unicode whitespace. Unicode whitespace
/// splits everywhere ASCII whitespace does, so a fifth ASCII field is
/// already too many either way.
fn query_fields(line: &str) -> Option<[&str; 4]> {
    let mut fields = [""; 4];
    let (mut count, mut start) = (0, None);
    for (i, &b) in line.as_bytes().iter().enumerate() {
        if !b.is_ascii() || b == 0x0B {
            let mut unicode = line.split_whitespace();
            let four = [
                unicode.next()?,
                unicode.next()?,
                unicode.next()?,
                unicode.next()?,
            ];
            return unicode.next().is_none().then_some(four);
        }
        match (b.is_ascii_whitespace(), start) {
            (true, Some(s)) => {
                *fields.get_mut(count)? = &line[s..i];
                count += 1;
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
    }
    if let Some(s) = start {
        *fields.get_mut(count)? = &line[s..];
        count += 1;
    }
    (count == 4).then_some(fields)
}

fn parse_n(s: &str) -> Result<usize, String> {
    s.parse().map_err(|e| format!("problem size '{s}': {e}"))
}

fn parse_m(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("capacity '{s}': {e}"))
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

/// Appends `"{verb}{kernel} {n} {m} = "`.
fn push_query(out: &mut String, verb: &str, kernel: &str, n: usize, m: u64) {
    out.push_str(verb);
    out.push_str(kernel);
    out.push(' ');
    push_u64(out, n as u64);
    out.push(' ');
    push_u64(out, m);
    out.push_str(" = ");
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
        let (slot, ops) = session.slot("matmul", 8, true).unwrap();
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

    /// Edge lines and their answers, recorded from the `split_whitespace`
    /// and `write!` serve path before the byte-splitting, push-formatting
    /// one replaced it, over a fresh [`matmul_store`]. `None` is a line
    /// that answers nothing. The non-positive and non-finite `balance`
    /// ratios answered `M 1 words` or `impossible` then; they are domain
    /// errors now.
    const EDGE_ANSWERS: &[(&[u8], Option<&str>)] = &[
        (b"io\tmatmul\t16\t64", Some("io matmul 16 64 = 4608 words  [hit [analytic, exact]]")),
        (b"io   matmul  16    64", Some("io matmul 16 64 = 4608 words  [hit [analytic, exact]]")),
        (b"  \tintensity \t matmul 16\t\t 64  ", Some("intensity matmul 16 64 = 1.7778 op/word  [hit [analytic, exact]]")),
        (b"io matmul 16 64\r", Some("io matmul 16 64 = 4608 words  [hit [analytic, exact]]")),
        (b"io\x0Bmatmul\x0B16\x0B64", Some("io matmul 16 64 = 4608 words  [hit [analytic, exact]]")),
        (b"io matmul\x0B16 64", Some("io matmul 16 64 = 4608 words  [hit [analytic, exact]]")),
        (b"\x0Bio matmul 16 64\x0B", Some("io matmul 16 64 = 4608 words  [hit [analytic, exact]]")),
        ("io\u{A0}matmul\u{A0}16\u{A0}64".as_bytes(), Some("io matmul 16 64 = 4608 words  [hit [analytic, exact]]")),
        ("io\u{3000}matmul\u{3000}16\u{3000}64".as_bytes(), Some("io matmul 16 64 = 4608 words  [hit [analytic, exact]]")),
        ("intensity\u{3000}matmul 16 64\u{A0}".as_bytes(), Some("intensity matmul 16 64 = 1.7778 op/word  [hit [analytic, exact]]")),
        (b"io matmul 0064 64", Some("io matmul 64 64 = 528384 words  [repaired(miss) [analytic, exact]]")),
        (b"io matmul +16 64", Some("io matmul 16 64 = 4608 words  [hit [analytic, exact]]")),
        (b"io matmul 16 18446744073709551615", Some("io matmul 16 18446744073709551615 = 768 words  [hit [analytic, exact]]")),
        (b"intensity matmul 16 18446744073709551615", Some("intensity matmul 16 18446744073709551615 = 10.6667 op/word  [hit [analytic, exact]]")),
        (b"io matmul 16 18446744073709551616", Some("! io matmul 16 18446744073709551616: capacity '18446744073709551616': number too large to fit in target type")),
        (b"io matmul 16", Some("! io matmul 16: expected 'io K N M', 'intensity K N M', 'balance K N R', or 'binding K N CAP:BW[,...]'")),
        (b"io matmul 16 64 extra", Some("! io matmul 16 64 extra: expected 'io K N M', 'intensity K N M', 'balance K N R', or 'binding K N CAP:BW[,...]'")),
        (b"balance matmul 16", Some("! balance matmul 16: expected 'io K N M', 'intensity K N M', 'balance K N R', or 'binding K N CAP:BW[,...]'")),
        (b"binding matmul 16 64:1e8 4096:1e7", Some("! binding matmul 16 64:1e8 4096:1e7: expected 'io K N M', 'intensity K N M', 'balance K N R', or 'binding K N CAP:BW[,...]'")),
        (b"io nonsense 16 64", Some("! io nonsense 16 64: unknown kernel 'nonsense' (try: matmul, triangularization, grid2d, grid3d, fft, sort, matvec, trisolve, convolution, transpose, multi_matvec)")),
        (b"intensity nonsense 16 64", Some("! intensity nonsense 16 64: unknown kernel 'nonsense'")),
        (b"balance nonsense 16 2", Some("! balance nonsense 16 2: unknown kernel 'nonsense'")),
        (b"binding nonsense 16 64:1e8", Some("! binding nonsense 16 64:1e8: unknown kernel 'nonsense'")),
        (b"IO matmul 16 64", Some("! IO matmul 16 64: expected 'io K N M', 'intensity K N M', 'balance K N R', or 'binding K N CAP:BW[,...]'")),
        (b"foo matmul 16 64", Some("! foo matmul 16 64: expected 'io K N M', 'intensity K N M', 'balance K N R', or 'binding K N CAP:BW[,...]'")),
        (b"io mat\xffmul 16 64", Some("! io mat\u{fffd}mul 16 64: not UTF-8")),
        (b"# caf\xe9", None),
        (b"# comment", None),
        (b"  # indented comment", None),
        (b"#", None),
        (b"", None),
        (b"   ", None),
        (b"intensity matmul 8 16", Some("intensity matmul 8 16 = 0.9412 op/word  [hit [analytic, exact]]")),
        (b"intensity matmul 8 0", Some("intensity matmul 8 0 = 0.6667 op/word  [hit [analytic, exact]]")),
        (b"intensity matmul 8 1", Some("intensity matmul 8 1 = 0.6667 op/word  [hit [analytic, exact]]")),
        (b"balance matmul 16 2.0", Some("balance matmul 16 2 = M 304 words  [hit [analytic, exact]]")),
        (b"balance matmul 16 1e0", Some("balance matmul 16 1 = M 34 words  [hit [analytic, exact]]")),
        (b"balance matmul 16 0.50", Some("balance matmul 16 0.5 = M 1 words  [hit [analytic, exact]]")),
        (b"balance matmul 16 .5", Some("balance matmul 16 0.5 = M 1 words  [hit [analytic, exact]]")),
        (b"balance matmul 16 5.", Some("balance matmul 16 5 = M 305 words  [hit [analytic, exact]]")),
        (b"balance matmul 16 +2", Some("balance matmul 16 2 = M 304 words  [hit [analytic, exact]]")),
        (b"balance matmul 16 00002.000", Some("balance matmul 16 2 = M 304 words  [hit [analytic, exact]]")),
        (b"balance matmul 16 1.2345678901234567", Some("balance matmul 16 1.2345678901234567 = M 34 words  [hit [analytic, exact]]")),
        (b"balance matmul 16 1e-3", Some("balance matmul 16 0.001 = M 1 words  [hit [analytic, exact]]")),
        (b"balance matmul 16 1000", Some("balance matmul 16 1000 = impossible (io-bounded: no capacity reaches 1000 op/word)  [hit [analytic, exact]]")),
        (b"balance matmul 16 nan", Some("! balance matmul 16 nan: ops/word ratio 'nan': must be finite and positive")),
        (b"balance matmul 16 -1", Some("! balance matmul 16 -1: ops/word ratio '-1': must be finite and positive")),
        (b"balance matmul 16 0", Some("! balance matmul 16 0: ops/word ratio '0': must be finite and positive")),
        (b"balance matmul 16 -0", Some("! balance matmul 16 -0: ops/word ratio '-0': must be finite and positive")),
        (b"balance matmul 16 inf", Some("! balance matmul 16 inf: ops/word ratio 'inf': must be finite and positive")),
        (b"balance matmul 16 -inf", Some("! balance matmul 16 -inf: ops/word ratio '-inf': must be finite and positive")),
        (b"binding\tmatmul 16 64:1e8,4096:1e7", Some("binding matmul 16 = L2 (attainable 1.067e8 op/s)  [hit [analytic, exact]]")),
        (b"binding matmul 8 1024:1e9", Some("binding matmul 8 = compute (attainable 1.000e9 op/s)  [hit [analytic, exact]]")),
    ];

    #[test]
    fn edge_lines_answer_as_the_split_whitespace_path_did() {
        let dir = tmp_dir("edges");
        let store = matmul_store(&dir);
        let mut session = ServeSession::new(&store, TrafficModel::WORD, None, 1.0e9);
        for &(line, want) in EDGE_ANSWERS {
            let mut out = String::from("kept");
            let answered = session.answer_bytes_into(line, &mut out);
            let got = answered.then(|| &out["kept".len()..]);
            assert_eq!(got, want, "line {:?}", String::from_utf8_lossy(line));
            if !answered {
                assert_eq!(out, "kept");
            }
        }
        // CRLF and `\x0B` line ends through the streaming reader.
        let out = serve_file(&dir, b"io matmul 16 64\r\nio\x0Bmatmul 16 64\x0B\r\n");
        let want = "io matmul 16 64 = 4608 words  [hit [analytic, exact]]\n";
        assert_eq!(String::from_utf8(out).unwrap(), want.repeat(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn balance_refuses_a_ratio_that_is_not_finite_and_positive() {
        let dir = tmp_dir("domain");
        let store = matmul_store(&dir);
        let mut session = ServeSession::new(&store, TrafficModel::WORD, None, 1.0e9);
        for ratio in [
            "nan",
            "NaN",
            "inf",
            "+infinity",
            "-inf",
            "0",
            "0.0",
            "-0",
            "-1",
            "-2.5",
        ] {
            let a = session
                .answer(&format!("balance matmul 16 {ratio}"))
                .unwrap();
            assert_eq!(
                a,
                format!(
                    "! balance matmul 16 {ratio}: ops/word ratio '{ratio}': \
                     must be finite and positive"
                )
            );
        }
        // The smallest positive ratios are in the domain.
        let a = session.answer("balance matmul 16 5e-324").unwrap();
        assert!(a.starts_with("balance matmul 16 0.000"), "{a}");
        assert!(a.contains("= M 1 words"), "{a}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// At 4-word lines the balance point lies past the read curve's
    /// saturation counted in lines: the search runs in words.
    #[test]
    fn device_model_balance_searches_capacities_in_words() {
        let dir = tmp_dir("device");
        let store = ProfileStore::open(&dir).unwrap();
        let mut session = ServeSession::new(&store, TrafficModel::device(4), None, 1.0e9);
        let a = session.answer("balance matmul 32 2").unwrap();
        assert!(
            a.starts_with("balance matmul 32 2 = M 1104 words  ["),
            "{a}"
        );
        let below = session.answer("intensity matmul 32 1103").unwrap();
        let at = session.answer("intensity matmul 32 1104").unwrap();
        assert!(below.contains(" = 1.9428 op/word"), "{below}");
        assert!(at.contains(" = 2.0017 op/word"), "{at}");
        let _ = std::fs::remove_dir_all(&dir);
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
