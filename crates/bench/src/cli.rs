//! The `balance` command-line explorer: interactive access to the model.
//!
//! All logic lives here as string-producing functions (and `serve`, which
//! streams into a writer) so it is unit testable; `src/bin/balance.rs` is a
//! thin argv wrapper that hands [`dispatch`] the locked stdout.

use std::collections::HashMap;
use std::io::Write;

use balance_core::prelude::*;
use balance_kernels::prelude::*;
use balance_machine::{CheckpointPolicy, DEFAULT_CHECKPOINT_EVERY};
use balance_parallel::{
    parallel_kernels, parallel_sweep, ParallelKernel, ParallelSweepConfig, Topology, TopologyKind,
};
use balance_roofline::{HierarchicalRoofline, ParallelRoofline};

/// Parsed command-line flags: `--key value` pairs after a subcommand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Flags {
    map: HashMap<String, String>,
}

impl Flags {
    /// Parses `--key value` pairs.
    ///
    /// # Errors
    ///
    /// Returns a message for dangling or malformed flags.
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got {key}"));
            };
            let Some(value) = it.next() else {
                return Err(format!("flag --{name} is missing a value"));
            };
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags { map })
    }

    /// A required f64 flag.
    ///
    /// # Errors
    ///
    /// Missing or unparsable values.
    pub fn f64(&self, name: &str) -> Result<f64, String> {
        self.map
            .get(name)
            .ok_or(format!("missing required flag --{name}"))?
            .parse()
            .map_err(|e| format!("--{name}: {e}"))
    }

    /// A required u64 flag.
    ///
    /// # Errors
    ///
    /// Missing or unparsable values.
    pub fn u64(&self, name: &str) -> Result<u64, String> {
        self.map
            .get(name)
            .ok_or(format!("missing required flag --{name}"))?
            .parse()
            .map_err(|e| format!("--{name}: {e}"))
    }

    /// An optional u64 flag: `default` when absent.
    ///
    /// # Errors
    ///
    /// Unparsable values.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        if self.map.contains_key(name) {
            self.u64(name)
        } else {
            Ok(default)
        }
    }

    /// An optional string flag.
    #[must_use]
    pub fn str_opt(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(String::as_str)
    }

    /// Rejects every flag a command does not read: `known` lists the
    /// flags it takes.
    ///
    /// # Errors
    ///
    /// A one-line diagnostic naming the first unknown flag in name order.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        let unknown = self
            .map
            .keys()
            .filter(|name| !known.contains(&name.as_str()))
            .min();
        let Some(name) = unknown else {
            return Ok(());
        };
        Err(if known.is_empty() {
            format!("unknown flag --{name} (this command takes no flags)")
        } else {
            format!("unknown flag --{name} (known: --{})", known.join(", --"))
        })
    }
}

/// The resource-budget flags [`parse_budget`] reads.
pub const BUDGET_FLAGS: [&str; 3] = ["max-wall-secs", "max-resident-bytes", "max-addresses"];

/// The canonical computation names the table-rendering commands iterate —
/// one per distinct law in [`model_by_name`] (aliases like `trisolve` and
/// the rarely-plotted `grid1`/`grid4` resolve to the same models).
pub const MODEL_NAMES: [&str; 7] = ["matmul", "lu", "grid2", "grid3", "fft", "sort", "matvec"];

/// The intensity model registry for the CLI, keyed by computation name.
///
/// # Errors
///
/// Unknown names, with the list of valid ones.
pub fn model_by_name(name: &str) -> Result<IntensityModel, String> {
    Ok(match name {
        "matmul" => IntensityModel::sqrt_m(1.0 / 3.0f64.sqrt()),
        "lu" | "triangularization" => IntensityModel::sqrt_m(0.5 / 3.0f64.sqrt()),
        "grid1" => IntensityModel::root_m(1, 0.6),
        "grid2" => IntensityModel::root_m(2, 0.884),
        "grid3" => IntensityModel::root_m(3, 0.926),
        "grid4" => IntensityModel::root_m(4, 0.945),
        "fft" => IntensityModel::log2_m(1.5),
        "sort" => IntensityModel::log2_m(0.9),
        "matvec" | "trisolve" => IntensityModel::constant(2.0),
        other => {
            return Err(format!(
                "unknown computation '{other}' (try: matmul, lu, grid1..grid4, fft, sort, matvec)"
            ))
        }
    })
}

/// `balance pe --c <ops/s> --io <words/s> --m <words>`: characterize a PE.
///
/// # Errors
///
/// Flag or model errors, as user-facing strings.
pub fn cmd_pe(flags: &Flags) -> Result<String, String> {
    flags.only(&["c", "io", "m"])?;
    let pe = PeSpec::new(
        OpsPerSec::new(flags.f64("c")?),
        WordsPerSec::new(flags.f64("io")?),
        Words::new(flags.u64("m")?),
    )
    .map_err(|e| e.to_string())?;
    let mut out = format!(
        "{pe}\n\nmachine balance C/IO = {:.4} op/word\n",
        pe.machine_balance()
    );
    out.push_str("\nbalanced memory per computation at this C/IO:\n");
    out.push_str(&format!(
        "{:<12} {:>16} {:>10}\n",
        "computation", "M_bal (words)", "fits?"
    ));
    for name in MODEL_NAMES {
        let model = model_by_name(name)?;
        let row = match model.balanced_memory(pe.machine_balance()) {
            Ok(m) => format!(
                "{:<12} {:>16} {:>10}\n",
                name,
                m.get(),
                if m <= pe.memory() { "yes" } else { "NO" }
            ),
            Err(BalanceError::IoBounded) => {
                format!("{:<12} {:>16} {:>10}\n", name, "impossible", "-")
            }
            Err(e) => return Err(e.to_string()),
        };
        out.push_str(&row);
    }
    Ok(out)
}

/// `balance rebalance --law <name> --alpha <f> --m <words>`: the paper's
/// question, answered.
///
/// # Errors
///
/// Flag or model errors, as user-facing strings.
pub fn cmd_rebalance(flags: &Flags) -> Result<String, String> {
    flags.only(&["law", "alpha", "m"])?;
    let law = flags
        .str_opt("law")
        .ok_or("missing required flag --law".to_string())?;
    let model = model_by_name(law)?;
    let alpha = Alpha::new(flags.f64("alpha")?).map_err(|e| e.to_string())?;
    let m_old = Words::new(flags.u64("m")?);
    match rebalance(&model, alpha, m_old) {
        Ok(plan) => Ok(format!("{law}: {plan}\n")),
        Err(e) => Ok(format!("{law}: {e}\n")),
    }
}

/// Parses a `--verify` flag value into a [`Verify`] policy.
///
/// # Errors
///
/// Unknown mode names, with the list of valid ones.
pub fn verify_by_name(name: &str) -> Result<Verify, String> {
    Ok(match name {
        "full" => Verify::Full,
        "freivalds" => Verify::Freivalds { rounds: 2 },
        "none" => Verify::None,
        other => Err(format!(
            "unknown verify mode '{other}' (try: full, freivalds, none)"
        ))?,
    })
}

/// Parses an `--engine` spelling ([`Engine::parse`]) and resolves it
/// ([`Engine::resolve`]) for a cache-model sweep of `points` capacities of
/// `kernel` at `n` under `model`. The capacities stand in for the sweep's
/// memories, so each is taken large enough to be eligible.
///
/// # Errors
///
/// Unknown or malformed engine names, and requests the resolver refuses,
/// as one-line diagnostics.
pub fn engine_by_name_for_model(
    name: &str,
    points: usize,
    kernel: &dyn Kernel,
    n: usize,
    model: TrafficModel,
) -> Result<Engine, String> {
    let cfg = SweepConfig {
        n,
        memories: vec![usize::MAX >> 1; points],
        measure: Measure::CacheModel,
        traffic: model,
        ..SweepConfig::default()
    };
    Engine::resolve(Engine::parse(name)?, kernel, &cfg).map_err(|e| e.to_string())
}

/// The engine an `--engine` flag asks of a cache-model sweep of `cfg`: a
/// named engine as is (the sweep runs it through [`Engine::resolve`] and
/// records the request in its provenance), `auto` or no flag as
/// [`Engine::resolve`] picks it.
fn engine_flag(
    spec: Option<&str>,
    kernel: &dyn Kernel,
    cfg: &SweepConfig,
) -> Result<Engine, String> {
    match spec.map(Engine::parse).transpose()?.flatten() {
        Some(engine) => Ok(engine),
        Option::None => Engine::resolve(Option::None, kernel, cfg).map_err(|e| e.to_string()),
    }
}

/// A kernel of the one registry ([`registry_kernel`]) by its canonical
/// name or an alias.
fn kernel_by_name(name: &str) -> Result<Box<dyn Kernel>, String> {
    registry_kernel(name).ok_or_else(|| format!("unknown kernel '{name}'"))
}

/// Parses the optional resource-budget flags (`--max-wall-secs`,
/// `--max-resident-bytes`, `--max-addresses`) into a [`Budget`], or
/// `None` when no budget flag is present.
///
/// # Errors
///
/// One-line diagnostics for unparsable or out-of-domain values.
pub fn parse_budget(flags: &Flags) -> Result<Option<Budget>, String> {
    let mut budget = Budget::unlimited();
    let mut any = false;
    if flags.str_opt("max-wall-secs").is_some() {
        let secs = flags.f64("max-wall-secs")?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(format!(
                "--max-wall-secs {secs}: the wall-clock budget must be a \
                 finite non-negative number of seconds"
            ));
        }
        budget = budget.with_max_wall(std::time::Duration::from_secs_f64(secs));
        any = true;
    }
    if flags.str_opt("max-resident-bytes").is_some() {
        budget = budget.with_max_resident_bytes(flags.u64("max-resident-bytes")?);
        any = true;
    }
    if flags.str_opt("max-addresses").is_some() {
        budget = budget.with_max_addresses(flags.u64("max-addresses")?);
        any = true;
    }
    Ok(any.then_some(budget))
}

/// Parses the optional checkpoint flags (`--ckpt-dir`, `--ckpt-every`)
/// into a [`CheckpointPolicy`], or `None` when `--ckpt-dir` is absent.
///
/// # Errors
///
/// One-line diagnostics: `--ckpt-every` without a directory, a zero
/// interval, or an unparsable interval.
pub fn parse_checkpoint(flags: &Flags) -> Result<Option<CheckpointPolicy>, String> {
    let Some(dir) = flags.str_opt("ckpt-dir") else {
        if flags.str_opt("ckpt-every").is_some() {
            return Err("--ckpt-every needs --ckpt-dir to say where images go".to_string());
        }
        return Ok(None);
    };
    let every = match flags.str_opt("ckpt-every") {
        Some(_) => {
            let every = flags.u64("ckpt-every")?;
            if every == 0 {
                return Err(
                    "--ckpt-every 0: the checkpoint interval must be at least 1 address"
                        .to_string(),
                );
            }
            every
        }
        None => DEFAULT_CHECKPOINT_EVERY,
    };
    Ok(Some(CheckpointPolicy::every(dir, every)))
}

/// `balance sweep --kernel <name> --n <size> [--seed <u64>]
/// [--verify full|freivalds|none] [--engine replay|stackdist|auto]
/// [--line-words <L>] [--max-wall-secs <s>] [--max-resident-bytes <b>]
/// [--max-addresses <a>] [--ckpt-dir <path> [--ckpt-every <addrs>]]`: run
/// a real measured sweep (in parallel across cores) and fit the law.
///
/// Without `--engine` the sweep runs the kernel's *decomposition scheme*
/// once per memory size (the §3 measurement). With `--engine` it measures
/// the **cache-model** curve instead — the kernel's canonical trace
/// through an LRU of each capacity — where `stackdist` answers the whole
/// sweep from a single replay and `replay` is the per-capacity reference
/// engine (bit-identical results, different wall-clock).
///
/// The budget and checkpoint flags apply to the cache-model engines: a
/// tripped budget degrades the engine down the sampling ladder (reported
/// on a `provenance:` line), and a checkpoint directory makes the replay
/// resumable after a kill.
///
/// `--line-words L` (cache-model engines only) makes the measurement
/// device-real: the cache moves whole `L`-word lines, and dirty lines
/// are ledgered as separate write-back traffic alongside the read
/// stream. `L` must be a positive power of two; the tagged engines
/// (`replay`, `stackdist`) price this model, and `auto` resolves within
/// them.
///
/// # Errors
///
/// Flag, kernel, or fitting errors, as user-facing strings.
pub fn cmd_sweep(flags: &Flags) -> Result<String, String> {
    let sweep_flags = [
        "kernel",
        "n",
        "seed",
        "verify",
        "engine",
        "line-words",
        "ckpt-dir",
        "ckpt-every",
    ];
    flags.only(&[&sweep_flags[..], &BUDGET_FLAGS].concat())?;
    let name = flags
        .str_opt("kernel")
        .ok_or("missing required flag --kernel".to_string())?;
    let n = flags.u64("n")? as usize;
    let seed = flags.u64_or("seed", 42)?;
    let verify = match flags.str_opt("verify") {
        Some(mode) => verify_by_name(mode)?,
        Option::None => Verify::auto(n),
    };
    let budget = parse_budget(flags)?;
    let checkpoint = parse_checkpoint(flags)?;
    if (budget.is_some() || checkpoint.is_some()) && flags.str_opt("engine").is_none() {
        return Err(
            "budget/checkpoint flags apply to the cache-model engines: \
             add --engine (e.g. --engine stackdist)"
                .to_string(),
        );
    }
    let line_words = parse_line_words(flags)?;
    if line_words.is_some() && flags.str_opt("engine").is_none() {
        return Err(
            "--line-words prices the cache-model engines: \
             add --engine (e.g. --engine stackdist)"
                .to_string(),
        );
    }
    let kernel = kernel_by_name(name)?;
    let mut cfg = SweepConfig {
        verify,
        budget,
        checkpoint,
        traffic: line_words.map_or(TrafficModel::WORD, TrafficModel::device),
        ..SweepConfig::pow2(n, 5, 12, seed)
    };
    let (result, header) = match flags.str_opt("engine") {
        Some(engine) => {
            cfg.measure = Measure::CacheModel;
            cfg.engine = engine_flag(Some(engine), kernel.as_ref(), &cfg)?;
            let result = sweep(kernel.as_ref(), &cfg).map_err(|e| e.to_string())?;
            let mut header = format!("cache-model capacity sweep ({:?} engine)\n", cfg.engine);
            if let Some(lw) = line_words {
                header.push_str(&format!(
                    "traffic model: {lw}-word lines, dirty write-backs ledgered\n"
                ));
            }
            if let Some(prov) = &result.provenance {
                header.push_str(&format!("provenance: {}\n", prov.describe()));
            }
            (result, header)
        }
        Option::None => (
            sweep(kernel.as_ref(), &cfg).map_err(|e| e.to_string())?,
            String::new(),
        ),
    };
    let mut out = header;
    if line_words.is_some() {
        out.push_str(&format!(
            "{:>10} {:>14} {:>14} {:>12} {:>10}\n",
            "M (words)", "C_comp", "C_read", "C_wb", "ratio"
        ));
    } else {
        out.push_str(&format!(
            "{:>10} {:>14} {:>14} {:>10}\n",
            "M (words)", "C_comp", "C_io", "ratio"
        ));
    }
    for run in &result.runs {
        if line_words.is_some() {
            out.push_str(&format!(
                "{:>10} {:>14} {:>14} {:>12} {:>10.3}\n",
                run.m,
                run.execution.cost.comp_ops(),
                run.execution.cost.read_at(0).unwrap_or(0),
                run.execution.cost.writeback_at(0).unwrap_or(0),
                run.intensity()
            ));
        } else {
            out.push_str(&format!(
                "{:>10} {:>14} {:>14} {:>10.3}\n",
                run.m,
                run.execution.cost.comp_ops(),
                run.execution.cost.io_words(),
                run.intensity()
            ));
        }
    }
    let fit = result.fit().map_err(|e| e.to_string())?;
    out.push_str(&format!(
        "\nfitted: {}\ngrowth rule: {}\n",
        fit.best,
        fit.best.growth_law()
    ));
    Ok(out)
}

/// Parses a `--levels CAP:BW[:LAT[:LINE[:WBW]]][,...]` hierarchy
/// description (innermost level first; capacities in words, bandwidths in
/// words/s, optional per-word access latencies in seconds, optional
/// device-real fields: LINE is the level's transfer line in words — a
/// power of two, 1 = word-granular — and WBW a separate write-back
/// bandwidth in words/s for asymmetric devices like flash).
///
/// # Errors
///
/// User-facing messages for malformed items, zero capacities, non-positive
/// bandwidths, negative or non-finite latencies, non-power-of-two line
/// sizes, bad write bandwidths, and capacities that do not grow outward.
pub fn parse_levels(s: &str) -> Result<HierarchySpec, String> {
    let mut levels = Vec::new();
    for (i, item) in s.split(',').enumerate() {
        let item = item.trim();
        let fields: Vec<&str> = item.split(':').map(str::trim).collect();
        if !(2..=5).contains(&fields.len()) {
            return Err(format!(
                "level {}: expected CAP:BW[:LAT[:LINE[:WBW]]], got '{item}' \
                 (e.g. --levels 1024:1e8,65536:1e7:2e-7:8:5e6)",
                i + 1
            ));
        }
        let cap: u64 = fields[0]
            .parse()
            .map_err(|e| format!("level {}: capacity '{}': {e}", i + 1, fields[0]))?;
        let bw: f64 = fields[1]
            .parse()
            .map_err(|e| format!("level {}: bandwidth '{}': {e}", i + 1, fields[1]))?;
        let mut level = LevelSpec::new(Words::new(cap), WordsPerSec::new(bw))
            .map_err(|e| format!("level {}: {e}", i + 1))?;
        if let Some(lat) = fields.get(2) {
            let lat: f64 = lat
                .parse()
                .map_err(|e| format!("level {}: latency '{lat}': {e}", i + 1))?;
            level = level
                .with_latency(Seconds::new(lat))
                .map_err(|e| format!("level {}: {e}", i + 1))?;
        }
        if let Some(line) = fields.get(3) {
            let line: u64 = line
                .parse()
                .map_err(|e| format!("level {}: line size '{line}': {e}", i + 1))?;
            level = level
                .with_line_words(line)
                .map_err(|e| format!("level {}: {e}", i + 1))?;
        }
        if let Some(wbw) = fields.get(4) {
            let wbw: f64 = wbw
                .parse()
                .map_err(|e| format!("level {}: write bandwidth '{wbw}': {e}", i + 1))?;
            level = level
                .with_write_bandwidth(WordsPerSec::new(wbw))
                .map_err(|e| format!("level {}: {e}", i + 1))?;
        }
        levels.push(level);
    }
    HierarchySpec::new(levels).map_err(|e| e.to_string())
}

/// Parses the optional `--line-words` flag: the sweep-wide transfer line
/// in words, turning the measurement device-real (line-granular reads
/// plus a dirty-write-back ledger). `None` when absent; `1` is valid and
/// means "word-granular lines, write-backs still ledgered".
///
/// # Errors
///
/// A one-line diagnostic for zero, non-power-of-two, or unparsable
/// values.
pub fn parse_line_words(flags: &Flags) -> Result<Option<u64>, String> {
    if flags.str_opt("line-words").is_none() {
        return Ok(None);
    }
    let lw = flags.u64("line-words")?;
    if lw == 0 || !lw.is_power_of_two() {
        return Err(format!(
            "--line-words {lw}: the transfer line must be a positive power of \
             two words (1 keeps word-granular lines with the write-back ledger)"
        ));
    }
    Ok(Some(lw))
}

/// `balance hierarchy --levels CAP:BW[:LAT[:LINE[:WBW]]][,...]
/// [--c <ops/s>] [--kernel <name> [--n <size>] [--line-words <L>]
/// [--engine ENGINE]]`: the balance law per level of a memory hierarchy.
///
/// Prints each boundary's ridge point, then — for each law in
/// [`MODEL_NAMES`] — the attainable throughput
/// `min(C, min_i r(M_i)·IO_i)`, the binding level, and the balanced
/// capacity each level would need to reach its own ridge.
///
/// With `--kernel` it appends a **measured** section: the kernel's
/// canonical trace driven through the given ladder (all levels
/// cache-managed), reporting each boundary's word traffic and measured
/// per-level intensity. `stackdist` reads every boundary off one replay;
/// `replay` runs the actual chained ladder (bit-identical). Without
/// `--engine` the engine is `auto`'s ([`Engine::resolve`], counting one
/// capacity read per level). A LINE/WBW annotation on any level — or an
/// explicit `--line-words` — switches the measurement to the device-real
/// model: line-granular transfers with a dirty-write-back ledger per
/// boundary (ladders mixing line sizes need the `replay` engine, which
/// `auto` picks for them).
///
/// # Errors
///
/// Flag, parsing, or model errors, as user-facing strings.
pub fn cmd_hierarchy(flags: &Flags) -> Result<String, String> {
    flags.only(&["levels", "c", "kernel", "n", "line-words", "engine"])?;
    let spec = parse_levels(
        flags
            .str_opt("levels")
            .ok_or("missing required flag --levels (CAP:BW[:LAT][,...])".to_string())?,
    )?;
    let c = match flags.str_opt("c") {
        Some(_) => flags.f64("c")?,
        None => 1.0e9,
    };
    let roofline =
        HierarchicalRoofline::new(OpsPerSec::new(c), &spec).map_err(|e| e.to_string())?;

    let mut out = format!("machine: C = {c:.3e} op/s over {} level(s)\n\n", spec.depth());
    out.push_str(&format!(
        "{:<6} {:>14} {:>14} {:>14}\n",
        "level", "M_i (words)", "IO_i (w/s)", "ridge C/IO_i"
    ));
    for (i, level) in spec.levels().iter().enumerate() {
        out.push_str(&format!(
            "L{:<5} {:>14} {:>14.3e} {:>14.3}\n",
            i + 1,
            level.capacity().get(),
            level.bandwidth().get(),
            roofline.ridge_at(i)
        ));
    }

    out.push_str(&format!(
        "\n{:<12} {:>14} {:>7}  {}\n",
        "computation", "attainable", "binds", "M_bal per level (words)"
    ));
    for name in MODEL_NAMES {
        let model = model_by_name(name)?;
        let ai: Vec<f64> = spec
            .levels()
            .iter()
            .map(|l| model.eval_words(l.capacity()))
            .collect();
        let binds = match roofline.binding_level(&ai) {
            Some(level) => format!("L{}", level + 1),
            None => "roof".to_string(),
        };
        let m_bal: Vec<String> = (0..spec.depth())
            .map(|i| match roofline.balanced_memory_at(i, &model) {
                Ok(m) => m.get().to_string(),
                Err(BalanceError::IoBounded) => "impossible".to_string(),
                Err(e) => e.to_string(),
            })
            .collect();
        out.push_str(&format!(
            "{:<12} {:>14.3e} {:>7}  [{}]\n",
            name,
            roofline.attainable(&ai),
            binds,
            m_bal.join(", ")
        ));
    }

    // Optional measured section: the kernel's canonical trace through
    // this ladder.
    if let Some(flag) = flags.str_opt("kernel") {
        let kernel = kernel_by_name(flag)?;
        let kname = kernel.name();
        let n = flags.u64_or("n", 32)? as usize;
        // Device-real measurement when any level is annotated (LINE/WBW
        // fields) or --line-words asks for it; the flag sets the sweep's
        // line, otherwise the innermost level's annotation does.
        let line_words = parse_line_words(flags)?;
        let model_line = line_words.unwrap_or_else(|| spec.level(0).line_words());
        let device = line_words.is_some() || spec.is_device_real();
        let model = if device {
            TrafficModel::device(model_line)
        } else {
            TrafficModel::WORD
        };
        let mut cfg = SweepConfig {
            n,
            memories: vec![spec.local_capacity_words()],
            outer: spec.levels()[1..].to_vec(),
            measure: Measure::CacheModel,
            seed: 42,
            verify: Verify::None,
            ..SweepConfig::default()
        }
        .with_traffic(model);
        cfg.engine = engine_flag(flags.str_opt("engine"), kernel.as_ref(), &cfg)?;
        let engine = cfg.engine;
        let result = sweep(kernel.as_ref(), &cfg).map_err(|e| e.to_string())?;
        let run = result
            .runs
            .first()
            .ok_or_else(|| "no measurable capacity point".to_string())?;
        if device {
            out.push_str(&format!(
                "\nmeasured ({kname} canonical trace, n = {n}, {engine:?} engine, \
                 {model_line}-word lines, write-backs ledgered):\n\
                 {:<6} {:>14} {:>14} {:>14}\n",
                "level", "read_i (words)", "wb_i (words)", "r_i (op/word)"
            ));
            for i in 0..run.execution.cost.level_count() {
                out.push_str(&format!(
                    "L{:<5} {:>14} {:>14} {:>14.3}\n",
                    i + 1,
                    run.execution.cost.read_at(i).unwrap_or(0),
                    run.execution.cost.writeback_at(i).unwrap_or(0),
                    run.execution.cost.intensity_at(i).unwrap_or(0.0)
                ));
            }
        } else {
            out.push_str(&format!(
                "\nmeasured ({kname} canonical trace, n = {n}, {engine:?} engine):\n\
                 {:<6} {:>14} {:>14}\n",
                "level", "io_i (words)", "r_i (op/word)"
            ));
            for i in 0..run.execution.cost.level_count() {
                out.push_str(&format!(
                    "L{:<5} {:>14} {:>14.3}\n",
                    i + 1,
                    run.execution.cost.io_at(i).unwrap_or(0),
                    run.execution.cost.intensity_at(i).unwrap_or(0.0)
                ));
            }
        }
    }
    Ok(out)
}

/// `balance parallel --pes P --topology linear|mesh [--kernel
/// matmul|transpose|grid2d] [--n <size>] [--seed <u64>]`: run a kernel on a
/// measured P-PE machine across a per-PE memory sweep.
///
/// The cell is the §5 Warp PE (10 Mop/s, 20 Mword/s, 64 K words); for a
/// mesh, `P` must be a perfect square (`side = √P`). Each row reports the
/// machine's external and communication traffic separately, the balance
/// verdict against the aggregate machine, and which term of the parallel
/// roofline (compute roof / external I/O / bisection) binds.
///
/// # Errors
///
/// Flag, topology, kernel, or run errors, as user-facing strings.
pub fn cmd_parallel(flags: &Flags) -> Result<String, String> {
    flags.only(&["pes", "topology", "kernel", "n", "seed"])?;
    let pes = flags.u64("pes")?;
    let kind = TopologyKind::parse(
        flags
            .str_opt("topology")
            .ok_or("missing required flag --topology (linear | mesh)".to_string())?,
    )?;
    let topology = match kind {
        TopologyKind::Linear => Topology::linear(pes),
        TopologyKind::Mesh => {
            let side = pes.isqrt();
            if side * side != pes {
                // Suggest the nearest non-degenerate square.
                let next = (side + 1) * (side + 1);
                return Err(format!(
                    "--pes {pes}: a mesh needs a square PE count (e.g. {})",
                    if side < 2 { 4 } else { next }
                ));
            }
            Topology::mesh(side)
        }
    }
    .map_err(|e| e.to_string())?;
    let name = flags.str_opt("kernel").unwrap_or("matmul");
    let kernel: Box<dyn ParallelKernel> = parallel_kernels()
        .into_iter()
        .find(|k| k.name() == canonical_kernel(name))
        .ok_or_else(|| {
            format!("unknown parallel kernel '{name}' (try: matmul, transpose, grid2d)")
        })?;
    let default_n = if kernel.name() == "grid2d" { 8 } else { 32 };
    let n = flags.u64_or("n", default_n)? as usize;
    let seed = flags.u64_or("seed", 42)?;

    let cell = balance_parallel::warp_cell();
    let agg = topology.aggregate(cell).map_err(|e| e.to_string())?;
    let roofline = ParallelRoofline::new(
        agg.comp_bw(),
        agg.io_bw(),
        WordsPerSec::new(cell.io_bw().get() * topology.bisection_links() as f64),
    )
    .map_err(|e| e.to_string())?;

    let cfg = ParallelSweepConfig::new(
        n,
        vec![topology],
        (5..=12).map(|k| 1usize << k).collect(),
        seed,
    );
    let points = parallel_sweep(kernel.as_ref(), &cfg).map_err(|e| e.to_string())?;
    if points.is_empty() {
        return Err(format!(
            "no per-PE memory in the sweep supports {} at n = {n}",
            kernel.name()
        ));
    }

    let mut out = format!(
        "{} on {topology}: aggregate C = {:.3e} op/s, IO_ext = {:.3e} word/s \
         (ridge {:.2}), BW_bis = {:.3e} word/s (ridge {:.2})\n\n",
        kernel.name(),
        agg.comp_bw().get(),
        agg.io_bw().get(),
        roofline.ridge_external(),
        roofline.bisection_bw().get(),
        roofline.ridge_bisection(),
    );
    out.push_str(&format!(
        "{:>8} {:>12} {:>12} {:>8} {:>8} {:>12} {:>10}  {}\n",
        "M/PE", "ext words", "comm words", "r_ext", "r_comm", "attainable", "binds", "verdict"
    ));
    for pt in &points {
        let (r_ext, r_comm) = (
            pt.run.external_intensity(),
            pt.run.execution.comm_intensity(),
        );
        let verdict = pt
            .run
            .execution
            .balance_state(cell, 0.05)
            .map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "{:>8} {:>12} {:>12} {:>8.2} {:>8} {:>12.3e} {:>10}  {}\n",
            pt.per_pe_m,
            pt.run.execution.external_words(),
            pt.run.execution.comm_words,
            r_ext,
            if r_comm.is_finite() {
                format!("{r_comm:.2}")
            } else {
                "-".to_string()
            },
            roofline.attainable(r_ext, r_comm),
            roofline.binding(r_ext, r_comm).to_string(),
            verdict,
        ));
    }
    Ok(out)
}

/// `balance warp`: the §5 case study.
#[must_use]
pub fn cmd_warp() -> String {
    balance_parallel::case_study(&balance_parallel::warp::default_computations())
        .unwrap_or_else(|e| panic!("constants valid: {e}"))
        .to_string()
}

/// Top-level dispatch: runs one command and writes its output to `out`.
///
/// # Errors
///
/// User-facing messages for unknown commands, bad flags, or a failed
/// write (see `output_written`).
pub fn dispatch(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    let text = if cmd == "store" {
        // `store` has positional subcommands (build | fsck) before its flags.
        crate::storecli::cmd_store(rest)?
    } else {
        let flags = Flags::parse(rest)?;
        match cmd.as_str() {
            // `serve` streams its answers as it goes.
            "serve" => return crate::storecli::cmd_serve(&flags, out),
            "pe" => cmd_pe(&flags)?,
            "rebalance" => cmd_rebalance(&flags)?,
            "sweep" => cmd_sweep(&flags)?,
            "hierarchy" => cmd_hierarchy(&flags)?,
            "parallel" => cmd_parallel(&flags)?,
            "warp" => {
                flags.only(&[])?;
                cmd_warp()
            }
            "help" | "--help" | "-h" => usage(),
            other => return Err(format!("unknown command '{other}'\n\n{}", usage())),
        }
    };
    output_written(out.write_all(text.as_bytes()).and_then(|()| out.flush()))
}

/// The CLI's rule for a failed write to its output: a reader that has gone
/// away (`BrokenPipe`, as under `| head -1`) ends the run quietly; any other
/// write error is a diagnostic.
///
/// # Errors
///
/// Every write error but `BrokenPipe`.
pub(crate) fn output_written(result: std::io::Result<()>) -> Result<(), String> {
    match result {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("writing output: {e}")),
        _ => Ok(()),
    }
}

/// The usage string.
#[must_use]
pub fn usage() -> String {
    "balance — explore Kung's (1985) balance model

USAGE:
  balance pe --c <ops/s> --io <words/s> --m <words>
      Characterize a PE: machine balance + balanced memory per computation.
  balance rebalance --law <matmul|lu|grid1..grid4|fft|sort|matvec> --alpha <f> --m <words>
      The paper's question: how much memory restores balance after C/IO grows α-fold?
  balance sweep --kernel <name> --n <size> [--seed <u64>] [--verify full|freivalds|none] [--engine replay|stackdist|stackdist-par[:K]|sampled[:S]|analytic|auto]
      Kernels: matmul, triangularization (alias lu), grid2d (alias grid2),
      grid3d (alias grid3), fft, sort, matvec, trisolve, convolution,
      transpose, multi_matvec — the names store build and serve take.
      Run the instrumented kernel across a memory sweep (parallel across
      cores; default verification: full up to n=64, anchored Freivalds
      beyond) and fit the law. With --engine, measure the cache-model
      curve (canonical trace through an LRU per capacity) instead:
      stackdist answers the whole sweep from ONE replay, stackdist-par:K
      splits that replay across K threads (exact, bit-identical; K
      defaults to all cores), sampled:S hash-samples addresses at rate
      2^-S (approximate, default S=4), analytic builds the kernel's
      closed-form histogram with ZERO replay (exact; affine kernels only
      — auto picks it up wherever it exists), and replay is the
      per-capacity reference engine. Robust-run flags (cache-model engines only):
      --max-wall-secs <s>, --max-resident-bytes <b>, --max-addresses <a>
      set a resource budget — a tripped budget degrades the engine down
      the sampling ladder and reports the substitution on a provenance
      line; --ckpt-dir <path> [--ckpt-every <addrs>] checkpoints the
      replay so a killed run resumes from the last image. --line-words L
      (cache-model engines only) makes the measurement device-real: the
      cache moves whole L-word lines (L a power of two) and dirty lines
      are ledgered as separate write-back traffic next to the reads.
  balance hierarchy --levels CAP:BW[:LAT[:LINE[:WBW]]][,...] [--c <ops/s>] [--kernel <name> [--n <size>] [--line-words <L>] [--engine replay|stackdist|stackdist-par[:K]|sampled[:S]|analytic|auto]]
      The balance law per level of a memory hierarchy (innermost level
      first): per-boundary ridges, binding level, and balanced capacity
      per level for each of the paper's intensity laws. LAT is the level's
      per-word access latency in seconds; it lowers the level's effective
      bandwidth and therefore raises its ridge. LINE gives the level its
      own transfer line in words (a power of two; 1 = word-granular) and
      WBW a separate write-back bandwidth in words/s for asymmetric
      devices — either annotation (or --line-words) switches the measured
      section to the device-real model, with a dirty-write-back ledger
      per boundary. With --kernel, append the measured per-boundary
      traffic of the kernel's canonical trace through this ladder, on
      --engine (default auto: the closed form where the kernel has one,
      one stack-distance replay for 4+ levels, the actual chained ladder
      for shallower or mixed-line ladders).
  balance parallel --pes <P> --topology <linear|mesh> [--kernel matmul|transpose|grid2d] [--n <size>] [--seed <u64>]
      Run a kernel on a measured P-PE machine (Warp cells) across a per-PE
      memory sweep: external vs communication traffic, the balance verdict
      against the aggregate machine, and the binding parallel-roofline
      term. A mesh needs a square PE count.
  balance warp
      The §5 Warp machine case study.
  balance store build --dir <path> [--kernels a,b,...] [--grid N1,N2,...] [--line-words <L>] [--max-wall-secs <s>] [--max-resident-bytes <b>] [--max-addresses <a>]
      Precompute a kernel registry × size grid of capacity (or, with
      --line-words, device-real traffic) profiles into a crash-safe,
      content-addressed store of versioned, checksummed KBCP images.
      Resumable: grid points whose entry already validates are skipped,
      so a killed build completes only the remainder on re-run.
  balance store fsck --dir <path>
      Scrub a profile store offline: delete leftover temp files and
      quarantine corrupt, truncated, or stale-version images. It deletes
      a live writer's temp file too, so run it with no build or serve
      writing to the store.
  balance serve --store <path> [--batch FILE|-] [--line-words <L>] [--peak <op/s>] [budget flags]
      Answer batch/REPL what-if queries from the store through the
      self-healing service (one query per line; --batch - or no --batch
      reads stdin): 'io K N M' (boundary words at capacity M),
      'intensity K N M' (op/word), 'balance K N R' (smallest M reaching
      R op/word), 'binding K N CAP:BW[,...]' (binding level of a ladder
      under --peak). Hits serve from the store; misses and quarantined
      entries are recomputed down the repair ladder and re-persisted.
      Every answer reports its provenance (hit vs repaired, engine,
      exactness); exact-only queries (balance, binding) refuse sampled
      artifacts. The batch streams: each line is answered as it is read,
      and answers are flushed before any read that would wait, so on a
      stdin pipe each answer appears as soon as its query line arrives.
      Malformed lines (including ones that are not UTF-8) answer a '!'
      diagnostic and serving goes on; a closed output pipe (| head)
      ends the run with exit 0.
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_string()).collect()
    }

    /// An `--engine` spelling resolved for a word-model fft sweep of
    /// `points` capacities (fft has no closed form, so `auto` follows the
    /// point count).
    fn engine(name: &str, points: usize) -> Result<Engine, String> {
        engine_by_name_for_model(name, points, &Fft, 8, TrafficModel::WORD)
    }

    #[test]
    fn flags_parse_pairs() {
        let f = Flags::parse(&args(&["--alpha", "2.5", "--m", "4096"])).unwrap();
        assert_eq!(f.f64("alpha").unwrap(), 2.5);
        assert_eq!(f.u64("m").unwrap(), 4096);
        assert!(f.f64("missing").is_err());
    }

    #[test]
    fn flags_reject_malformed_input() {
        assert!(Flags::parse(&args(&["alpha", "2"])).is_err());
        assert!(Flags::parse(&args(&["--alpha"])).is_err());
        let f = Flags::parse(&args(&["--alpha", "abc"])).unwrap();
        assert!(f.f64("alpha").is_err());
    }

    #[test]
    fn commands_reject_unknown_flags_and_malformed_optional_values() {
        let run = |a: &[&str]| {
            let mut out = Vec::new();
            dispatch(&args(a), &mut out).map(|()| String::from_utf8(out).unwrap())
        };
        // A misspelt flag is a one-line error, not a silently different run.
        let err = run(&["sweep", "--kernel", "fft", "--n", "64", "--engin", "stackdist"])
            .unwrap_err();
        assert!(err.starts_with("unknown flag --engin (known: --kernel, --n"), "{err}");
        assert!(!err.contains('\n'), "{err}");
        for a in [
            &["pe", "--c", "1e8", "--io", "1e7", "--m", "64", "--mm", "1"][..],
            &["rebalance", "--law", "fft", "--alpha", "2", "--m", "64", "--n", "1"],
            &["hierarchy", "--levels", "64:1e8", "--seed", "1"],
            &["parallel", "--pes", "2", "--topology", "linear", "--engine", "auto"],
            &["warp", "--n", "8"],
            &["serve", "--store", "no-such-store", "--grid", "8"],
            &["store", "build", "--dir", "no-such-store", "--ckpt-dir", "x"],
            &["store", "fsck", "--dir", "no-such-store", "--grid", "8"],
        ] {
            let err = run(a).unwrap_err();
            assert!(err.starts_with("unknown flag --"), "{a:?}: {err}");
        }
        assert!(!std::path::Path::new("no-such-store").exists());
        // A malformed optional value is an error, not its default.
        let err = run(&["sweep", "--kernel", "fft", "--n", "64", "--seed", "abc"]).unwrap_err();
        assert!(err.starts_with("--seed: "), "{err}");
        let err = run(&["parallel", "--pes", "2", "--topology", "linear", "--seed", "x"])
            .unwrap_err();
        assert!(err.starts_with("--seed: "), "{err}");
        let err = run(&["hierarchy", "--levels", "64:1e8", "--kernel", "fft", "--n", "x"])
            .unwrap_err();
        assert!(err.starts_with("--n: "), "{err}");
        // An absent seed is 42.
        assert_eq!(
            run(&["sweep", "--kernel", "matvec", "--n", "16"]),
            run(&["sweep", "--kernel", "matvec", "--n", "16", "--seed", "42"])
        );
    }

    #[test]
    fn model_registry_matches_paper() {
        assert!(matches!(
            model_by_name("matmul").unwrap(),
            IntensityModel::Power { .. }
        ));
        assert!(matches!(
            model_by_name("fft").unwrap(),
            IntensityModel::Log2 { .. }
        ));
        assert!(matches!(
            model_by_name("matvec").unwrap(),
            IntensityModel::Constant { .. }
        ));
        assert!(model_by_name("nonsense").is_err());
    }

    #[test]
    fn pe_command_renders_table() {
        let f = Flags::parse(&args(&["--c", "1e8", "--io", "1e7", "--m", "4096"])).unwrap();
        let out = cmd_pe(&f).unwrap();
        assert!(out.contains("machine balance C/IO = 10"));
        assert!(out.contains("matmul"));
        assert!(out.contains("impossible")); // matvec row
    }

    #[test]
    fn rebalance_command_answers_and_refuses() {
        let f = Flags::parse(&args(&["--law", "matmul", "--alpha", "2", "--m", "100"])).unwrap();
        let out = cmd_rebalance(&f).unwrap();
        assert!(out.contains("400 words"), "{out}");
        let f = Flags::parse(&args(&["--law", "matvec", "--alpha", "2", "--m", "100"])).unwrap();
        let out = cmd_rebalance(&f).unwrap();
        assert!(out.contains("I/O-bounded"));
    }

    #[test]
    fn sweep_command_runs_a_real_kernel() {
        let f = Flags::parse(&args(&["--kernel", "matmul", "--n", "24"])).unwrap();
        let out = cmd_sweep(&f).unwrap();
        assert!(out.contains("fitted:"));
        assert!(out.contains("growth rule:"));
    }

    #[test]
    fn sweep_verify_modes_measure_identically() {
        let full = cmd_sweep(
            &Flags::parse(&args(&["--kernel", "matmul", "--n", "24", "--verify", "full"]))
                .unwrap(),
        )
        .unwrap();
        let cheap = cmd_sweep(
            &Flags::parse(&args(&[
                "--kernel", "matmul", "--n", "24", "--verify", "freivalds",
            ]))
            .unwrap(),
        )
        .unwrap();
        // Verification policy changes checking cost, never the measurement.
        assert_eq!(full, cheap);
        let f = Flags::parse(&args(&["--kernel", "matmul", "--n", "8", "--verify", "bogus"]))
            .unwrap();
        assert!(cmd_sweep(&f).is_err());
    }

    #[test]
    fn sweep_engine_flag_runs_the_capacity_engines_bit_identically() {
        let base = &["--kernel", "matmul", "--n", "16"];
        let onepass = cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "stackdist"][..]].concat())).unwrap(),
        )
        .unwrap();
        let replay = cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "replay"][..]].concat())).unwrap(),
        )
        .unwrap();
        // Same numbers from both engines; only the header names the engine.
        assert!(onepass.contains("StackDist"), "{onepass}");
        assert!(replay.contains("Replay"), "{replay}");
        let strip = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(strip(&onepass), strip(&replay));
        // And the cache-model curve differs from the scheme sweep.
        let scheme = cmd_sweep(&Flags::parse(&args(base)).unwrap()).unwrap();
        assert_ne!(strip(&onepass), scheme);
        // auto resolves; bogus engines are rejected.
        assert!(cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "auto"][..]].concat())).unwrap()
        )
        .is_ok());
        assert!(cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "bogus"][..]].concat())).unwrap()
        )
        .is_err());
    }

    #[test]
    fn engine_registry_parses_all_modes() {
        assert_eq!(engine("replay", 16).unwrap(), Engine::Replay);
        assert_eq!(engine("stackdist", 1).unwrap(), Engine::StackDist);
        assert_eq!(engine("auto", 3).unwrap(), Engine::Replay);
        assert_eq!(engine("auto", 4).unwrap(), Engine::StackDist);
        assert!(engine("onepass", 4).is_err());
        // The scaled tiers, with and without their parameters.
        assert_eq!(
            engine("stackdist-par", 4).unwrap(),
            Engine::StackDistPar { threads: 0 }
        );
        assert_eq!(
            engine("stackdist-par:6", 4).unwrap(),
            Engine::StackDistPar { threads: 6 }
        );
        assert_eq!(engine("sampled", 4).unwrap(), Engine::Sampled { shift: 4 });
        assert_eq!(engine("sampled:7", 4).unwrap(), Engine::Sampled { shift: 7 });
        assert_eq!(engine("sampled:0", 4).unwrap(), Engine::Sampled { shift: 0 });
        assert!(engine("stackdist-par:x", 4).is_err());
        assert!(engine("sampled:99", 4).is_err(), "shift beyond MAX rejected");
        assert!(engine("sampled:-3", 4).is_err());
        // The zero-replay tier parses, takes no parameter, and is listed
        // in the unknown-engine diagnostic.
        assert_eq!(
            engine_by_name_for_model("analytic", 4, &MatMul, 8, TrafficModel::WORD).unwrap(),
            Engine::Analytic
        );
        assert!(engine("analytic", 4).unwrap_err().contains("no analytic profile"));
        assert!(engine("analytic:2", 4).is_err());
        let err = engine("nope", 4).unwrap_err();
        assert!(err.contains("analytic"), "{err}");
    }

    #[test]
    fn engine_auto_resolution_is_kernel_aware() {
        // With the kernel in hand, auto grows the analytic tier for
        // kernels that derive a histogram, and falls back for the rest.
        assert_eq!(
            engine_by_name_for_model("auto", 16, &MatMul, 8, TrafficModel::WORD).unwrap(),
            Engine::Analytic
        );
        assert_eq!(
            engine_by_name_for_model("auto", 16, &Fft, 8, TrafficModel::WORD).unwrap(),
            Engine::StackDist
        );
        // An explicit engine the tier can serve comes back as asked.
        assert_eq!(
            engine_by_name_for_model("replay", 16, &MatMul, 8, TrafficModel::WORD).unwrap(),
            Engine::Replay
        );
        assert!(engine_by_name_for_model("bogus", 16, &MatMul, 8, TrafficModel::WORD).is_err());
    }

    #[test]
    fn analytic_engine_cli_end_to_end() {
        let base = &["--kernel", "matmul", "--n", "12"];
        let analytic = cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "analytic"][..]].concat())).unwrap(),
        )
        .unwrap();
        assert!(analytic.contains("Analytic"), "{analytic}");
        // Same numbers as the one-replay engine, zero replays.
        let onepass = cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "stackdist"][..]].concat())).unwrap(),
        )
        .unwrap();
        let strip = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(strip(&analytic), strip(&onepass));
        // auto now lands on the analytic tier for covered kernels...
        let auto = cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "auto"][..]].concat())).unwrap(),
        )
        .unwrap();
        assert!(auto.contains("Analytic"), "{auto}");
        // ...but an explicit request against an uncovered kernel is a
        // clear one-line error naming the kernel, not a silent fallback.
        let err = cmd_sweep(
            &Flags::parse(&args(&[
                &["--kernel", "fft", "--n", "8"][..],
                &["--engine", "analytic"][..],
            ]
            .concat()))
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("fft"), "{err}");
        assert!(err.contains("no analytic profile"), "{err}");
        // Unknown kernels keep their own diagnostic.
        let err = cmd_sweep(
            &Flags::parse(&args(&["--kernel", "quicksort", "--n", "8", "--engine", "analytic"]))
                .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown kernel"), "{err}");
    }

    #[test]
    fn engine_registry_rejects_malformed_specs_with_one_line_diagnostics() {
        let err = engine("sampled:banana", 4).unwrap_err();
        assert!(err.contains("banana"), "{err}");
        assert!(!err.contains('\n'), "diagnostic must be one line: {err:?}");
        // An explicit zero thread count is malformed; bare stackdist-par
        // still means "all cores".
        let err = engine("stackdist-par:0", 4).unwrap_err();
        assert!(err.contains("at least one thread"), "{err}");
        assert!(!err.contains('\n'), "diagnostic must be one line: {err:?}");
        assert_eq!(
            engine("stackdist-par", 4).unwrap(),
            Engine::StackDistPar { threads: 0 }
        );
    }

    #[test]
    fn sweep_budget_and_checkpoint_flags_reject_malformed_values() {
        let base = &["--kernel", "matmul", "--n", "8", "--engine", "stackdist"];
        let run = |extra: &[&str]| cmd_sweep(&Flags::parse(&args(&[base, extra].concat())).unwrap());
        assert!(run(&["--max-wall-secs", "banana"]).is_err());
        let err = run(&["--max-wall-secs", "-3"]).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        assert!(run(&["--max-resident-bytes", "lots"]).is_err());
        assert!(run(&["--max-addresses", "-1"]).is_err());
        let err = run(&["--ckpt-every", "1024"]).unwrap_err();
        assert!(err.contains("--ckpt-dir"), "{err}");
        let err = run(&["--ckpt-dir", "/tmp", "--ckpt-every", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = run(&["--ckpt-dir", "/tmp", "--ckpt-every", "soon"]).unwrap_err();
        assert!(err.contains("--ckpt-every"), "{err}");
        // Budget/checkpoint flags without an engine are a usage error, not
        // a silent no-op.
        let err = cmd_sweep(
            &Flags::parse(&args(&["--kernel", "matmul", "--n", "8", "--max-addresses", "10"]))
                .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("--engine"), "{err}");
    }

    #[test]
    fn sweep_budget_flags_degrade_and_report_provenance() {
        let out = cmd_sweep(
            &Flags::parse(&args(&[
                "--kernel",
                "matmul",
                "--n",
                "16",
                "--engine",
                "stackdist",
                "--max-resident-bytes",
                "1024",
            ]))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("provenance: degraded"), "{out}");
        assert!(out.contains("sampled"), "{out}");
        assert!(out.contains("fitted:"), "degraded sweep still fits a law: {out}");
    }

    #[test]
    fn sweep_checkpoint_flags_checkpoint_and_report_provenance() {
        let dir = std::env::temp_dir().join(format!("balance-cli-ckpt-{}", std::process::id()));
        let out = cmd_sweep(
            &Flags::parse(&args(&[
                "--kernel",
                "matmul",
                "--n",
                "16",
                "--engine",
                "stackdist",
                "--ckpt-dir",
                dir.to_str().unwrap(),
                "--ckpt-every",
                "500",
            ]))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("provenance: as requested (stackdist)"), "{out}");
        assert!(out.contains("checkpoint(s)"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_scaled_engines_run_through_the_cli() {
        let base = &["--kernel", "matmul", "--n", "16"];
        let onepass = cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "stackdist"][..]].concat())).unwrap(),
        )
        .unwrap();
        let strip = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        // Segmented parallel: same numbers as the serial one-pass engine.
        let seg = cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "stackdist-par:3"][..]].concat()))
                .unwrap(),
        )
        .unwrap();
        assert!(seg.contains("StackDistPar"), "{seg}");
        assert_eq!(strip(&onepass), strip(&seg));
        // Sampled at shift 0 degenerates to exact; nonzero shift runs.
        let exact0 = cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "sampled:0"][..]].concat())).unwrap(),
        )
        .unwrap();
        assert_eq!(strip(&onepass), strip(&exact0));
        let sampled = cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "sampled:3"][..]].concat())).unwrap(),
        )
        .unwrap();
        assert!(sampled.contains("Sampled"), "{sampled}");
    }

    #[test]
    fn hierarchy_command_appends_measured_section_per_engine() {
        let base = &["--levels", "100:1e7,10000:1e6", "--kernel", "matmul", "--n", "16"];
        let run = |engine: &str| {
            let flags = Flags::parse(&args(&[base, &["--engine", engine][..]].concat())).unwrap();
            cmd_hierarchy(&flags).unwrap()
        };
        let onepass = run("stackdist");
        assert!(onepass.contains("measured (matmul canonical trace"), "{onepass}");
        assert!(onepass.contains("io_i (words)"), "{onepass}");
        // The replay engine renders the same measured numbers, and so does
        // the default (auto: matmul's closed form).
        for (name, debug) in [("replay", "Replay"), ("analytic", "Analytic")] {
            assert_eq!(
                onepass.replace("StackDist", debug),
                run(name),
                "engines must agree on every measured number"
            );
        }
        let default = cmd_hierarchy(&Flags::parse(&args(base)).unwrap()).unwrap();
        assert_eq!(default, run("auto"));
        assert!(default.contains("Analytic engine"), "{default}");
        // Without --kernel there is no measured section.
        let plain = cmd_hierarchy(
            &Flags::parse(&args(&["--levels", "100:1e7,10000:1e6"])).unwrap(),
        )
        .unwrap();
        assert!(!plain.contains("measured ("), "{plain}");
    }

    #[test]
    fn verify_registry_parses_all_modes() {
        assert_eq!(verify_by_name("full").unwrap(), Verify::Full);
        assert_eq!(
            verify_by_name("freivalds").unwrap(),
            Verify::Freivalds { rounds: 2 }
        );
        assert_eq!(verify_by_name("none").unwrap(), Verify::None);
        assert!(verify_by_name("3").is_err());
    }

    #[test]
    fn dispatch_handles_commands_and_errors() {
        let run = |a: &[&str]| {
            let mut out = Vec::new();
            dispatch(&args(a), &mut out).map(|()| String::from_utf8(out).unwrap())
        };
        assert!(run(&["help"]).unwrap().contains("USAGE"));
        assert!(run(&["warp"]).unwrap().contains("Warp"));
        assert!(run(&["bogus"]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn parallel_command_renders_the_sweep_table() {
        let f = Flags::parse(&args(&[
            "--pes", "2", "--topology", "linear", "--n", "16",
        ]))
        .unwrap();
        let out = cmd_parallel(&f).unwrap();
        assert!(out.contains("matmul on linear(2)"), "{out}");
        assert!(out.contains("r_ext"), "{out}");
        assert!(out.contains("binds"), "{out}");
        // A mesh of 4 PEs is a 2x2 arrangement.
        let f = Flags::parse(&args(&[
            "--pes", "4", "--topology", "mesh", "--kernel", "transpose", "--n", "12",
        ]))
        .unwrap();
        let out = cmd_parallel(&f).unwrap();
        assert!(out.contains("transpose on mesh(2x2)"), "{out}");
        // Transpose never communicates: r_comm renders as "-".
        assert!(out.contains(" - "), "{out}");
    }

    #[test]
    fn kernel_aliases_print_what_their_canonical_names_print() {
        // sweep and hierarchy read the one kernel registry, where lu,
        // grid2 and grid3 are spellings of the canonical names.
        for (alias, canonical) in [
            ("lu", "triangularization"),
            ("grid2", "grid2d"),
            ("grid3", "grid3d"),
        ] {
            let sweep = |k: &str| {
                cmd_sweep(&Flags::parse(&args(&["--kernel", k, "--n", "8"])).unwrap()).unwrap()
            };
            assert_eq!(sweep(alias), sweep(canonical), "sweep {alias}");
            let hierarchy = |k: &str| {
                cmd_hierarchy(
                    &Flags::parse(&args(&[
                        "--levels", "64:1e8,1024:1e7", "--kernel", k, "--n", "8",
                    ]))
                    .unwrap(),
                )
                .unwrap()
            };
            assert_eq!(hierarchy(alias), hierarchy(canonical), "hierarchy {alias}");
            assert!(hierarchy(alias).contains(&format!("measured ({canonical} canonical")));
        }
        // The parallel registry takes the grid2 alias too.
        let parallel = |k: &str| {
            cmd_parallel(
                &Flags::parse(&args(&[
                    "--pes", "2", "--topology", "linear", "--kernel", k, "--n", "4",
                ]))
                .unwrap(),
            )
            .unwrap()
        };
        assert_eq!(parallel("grid2"), parallel("grid2d"));
        assert!(parallel("grid2").starts_with("grid2d on linear(2)"));
    }

    #[test]
    fn sweep_runs_every_registry_kernel() {
        // The extension kernels the store builds and serves sweep too.
        let f = Flags::parse(&args(&[
            "--kernel", "transpose", "--n", "8", "--engine", "stackdist",
        ]))
        .unwrap();
        let out = cmd_sweep(&f).unwrap();
        assert!(out.contains("StackDist engine"), "{out}");
        for kernel in registry() {
            let f = Flags::parse(&args(&["--kernel", kernel.name(), "--n", "8"])).unwrap();
            assert!(cmd_sweep(&f).is_ok(), "{}", kernel.name());
        }
        let f = Flags::parse(&args(&["--kernel", "nope", "--n", "8"])).unwrap();
        assert_eq!(cmd_sweep(&f).unwrap_err(), "unknown kernel 'nope'");
    }

    #[test]
    fn parallel_command_rejects_bad_shapes() {
        // Non-square mesh PE count.
        let f = Flags::parse(&args(&["--pes", "3", "--topology", "mesh"])).unwrap();
        assert!(cmd_parallel(&f).unwrap_err().contains("square"), "mesh check");
        // Unknown topology / kernel; missing required flags.
        let f = Flags::parse(&args(&["--pes", "2", "--topology", "ring"])).unwrap();
        assert!(cmd_parallel(&f).unwrap_err().contains("unknown topology"));
        let f = Flags::parse(&args(&[
            "--pes", "2", "--topology", "linear", "--kernel", "fft",
        ]))
        .unwrap();
        assert!(cmd_parallel(&f).unwrap_err().contains("unknown parallel kernel"));
        let f = Flags::parse(&args(&["--pes", "2"])).unwrap();
        assert!(cmd_parallel(&f).unwrap_err().contains("--topology"));
        let f = Flags::parse(&args(&["--topology", "linear"])).unwrap();
        assert!(cmd_parallel(&f).unwrap_err().contains("pes"));
        // Zero PEs.
        let f = Flags::parse(&args(&["--pes", "0", "--topology", "linear"])).unwrap();
        assert!(cmd_parallel(&f).is_err());
    }

    #[test]
    fn levels_parse_happy_path() {
        let spec = parse_levels("1024:1e8,65536:1e7").unwrap();
        assert_eq!(spec.depth(), 2);
        assert_eq!(spec.level(0).capacity().get(), 1024);
        assert_eq!(spec.level(1).bandwidth().get(), 1.0e7);
        // Whitespace around items and separators is tolerated.
        let spec = parse_levels(" 64 : 2.5 , 128 : 1.0 ").unwrap();
        assert_eq!(spec.depth(), 2);
        // A single level is a valid (flat) machine.
        assert_eq!(parse_levels("4096:1e9").unwrap().depth(), 1);
    }

    #[test]
    fn levels_reject_malformed_specs() {
        // No colon.
        let err = parse_levels("1024").unwrap_err();
        assert!(err.contains("expected CAP:BW"), "{err}");
        // Unparsable capacity / bandwidth.
        assert!(parse_levels("abc:1e6").unwrap_err().contains("capacity"));
        assert!(parse_levels("1024:xyz").unwrap_err().contains("bandwidth"));
        // Fractional capacities are not words.
        assert!(parse_levels("10.5:1e6").unwrap_err().contains("capacity"));
        // Empty item (trailing comma).
        assert!(parse_levels("1024:1e6,").is_err());
        assert!(parse_levels("").is_err());
    }

    #[test]
    fn levels_reject_zero_capacity_and_bad_bandwidth() {
        let err = parse_levels("0:1e6").unwrap_err();
        assert!(err.contains("level 1"), "{err}");
        assert!(err.contains("positive"), "{err}");
        let err = parse_levels("1024:0").unwrap_err();
        assert!(err.contains("bandwidth"), "{err}");
        assert!(parse_levels("1024:-2e6").is_err());
    }

    #[test]
    fn levels_parse_optional_latency() {
        let spec = parse_levels("1024:1e8,65536:1e7:2e-7").unwrap();
        assert_eq!(spec.level(0).latency().get(), 0.0);
        assert_eq!(spec.level(1).latency().get(), 2.0e-7);
        // Whitespace around the third field is tolerated too.
        let spec = parse_levels(" 64 : 2.5 : 0.125 , 128 : 1.0 ").unwrap();
        assert_eq!(spec.level(0).latency().get(), 0.125);
        // Explicit zero latency is valid (the streaming model).
        assert_eq!(
            parse_levels("64:1.0:0").unwrap().level(0).latency().get(),
            0.0
        );
    }

    #[test]
    fn levels_reject_bad_latencies() {
        // Negative and non-finite latencies are physically meaningless.
        let err = parse_levels("1024:1e8:-1").unwrap_err();
        assert!(err.contains("level 1"), "{err}");
        assert!(err.contains("latency"), "{err}");
        assert!(parse_levels("1024:1e8:NaN").is_err());
        assert!(parse_levels("1024:1e8:inf").is_err());
        // Unparsable latency.
        assert!(parse_levels("1024:1e8:soon").unwrap_err().contains("latency"));
        // Too many fields.
        let err = parse_levels("1024:1e8:0.5:8:5e6:9").unwrap_err();
        assert!(err.contains("expected CAP:BW[:LAT[:LINE[:WBW]]]"), "{err}");
    }

    #[test]
    fn levels_parse_device_fields() {
        // LINE: the level's own transfer granularity.
        let spec = parse_levels("1024:1e8,65536:1e7:2e-7:8").unwrap();
        assert_eq!(spec.level(0).line_words(), 1);
        assert_eq!(spec.level(1).line_words(), 8);
        assert!(spec.level(1).write_bandwidth().is_none());
        assert!(spec.is_device_real());
        // WBW: a split write channel (flash-style asymmetric pricing).
        let spec = parse_levels("1024:1e8,65536:1e7:0:64:2.5e6").unwrap();
        assert_eq!(spec.level(1).line_words(), 64);
        assert_eq!(spec.level(1).write_bandwidth().map(|b| b.get()), Some(2.5e6));
        // Whitespace tolerated; LINE = 1 is the explicit word-granular spelling.
        let spec = parse_levels(" 64 : 2.5 : 0 : 1 ").unwrap();
        assert_eq!(spec.level(0).line_words(), 1);
        assert!(!spec.is_device_real());
    }

    #[test]
    fn levels_reject_bad_device_fields() {
        // LINE must be a positive power of two.
        let err = parse_levels("1024:1e8:0:0").unwrap_err();
        assert!(err.contains("level 1"), "{err}");
        assert!(err.contains("power of two"), "{err}");
        assert!(parse_levels("1024:1e8:0:7").unwrap_err().contains("power of two"));
        assert!(parse_levels("1024:1e8:0:wide").unwrap_err().contains("line size"));
        // WBW must be a positive finite bandwidth.
        let err = parse_levels("1024:1e8:0:8:0").unwrap_err();
        assert!(err.contains("write bandwidth"), "{err}");
        assert!(parse_levels("1024:1e8:0:8:-1").is_err());
        assert!(parse_levels("1024:1e8:0:8:slow").unwrap_err().contains("write bandwidth"));
        // Every diagnostic stays on one line.
        for bad in ["1024:1e8:0:0", "1024:1e8:0:7", "1024:1e8:0:8:0"] {
            let err = parse_levels(bad).unwrap_err();
            assert!(!err.contains('\n'), "diagnostic must be one line: {err:?}");
        }
    }

    #[test]
    fn line_words_flag_parses_and_rejects() {
        let none = Flags::parse(&args(&[])).unwrap();
        assert_eq!(parse_line_words(&none), Ok(None));
        let f = Flags::parse(&args(&["--line-words", "8"])).unwrap();
        assert_eq!(parse_line_words(&f), Ok(Some(8)));
        let f = Flags::parse(&args(&["--line-words", "1"])).unwrap();
        assert_eq!(parse_line_words(&f), Ok(Some(1)));
        for bad in ["0", "3", "12", "banana", "-8"] {
            let f = Flags::parse(&args(&["--line-words", bad])).unwrap();
            let err = parse_line_words(&f).unwrap_err();
            assert!(!err.contains('\n'), "diagnostic must be one line: {err:?}");
        }
        // The domain errors name the rule.
        let f = Flags::parse(&args(&["--line-words", "3"])).unwrap();
        assert!(parse_line_words(&f).unwrap_err().contains("power of two"));
    }

    #[test]
    fn sweep_line_words_runs_the_device_engines_bit_identically() {
        let base = &["--kernel", "matmul", "--n", "16", "--line-words", "2"];
        let onepass = cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "stackdist"][..]].concat())).unwrap(),
        )
        .unwrap();
        let replay = cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "replay"][..]].concat())).unwrap(),
        )
        .unwrap();
        // The model line renders, the table carries the dual ledger, and
        // both engines agree on every number below the engine header.
        assert!(onepass.contains("2-word lines"), "{onepass}");
        assert!(onepass.contains("C_wb"), "{onepass}");
        let strip = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(strip(&onepass), strip(&replay));
        // Device sweeps differ from the word-granular cache-model curve.
        let word = cmd_sweep(
            &Flags::parse(&args(&[
                "--kernel", "matmul", "--n", "16", "--engine", "stackdist",
            ]))
            .unwrap(),
        )
        .unwrap();
        assert_ne!(strip(&onepass), strip(&word));
        // auto resolves inside the tagged engines — never the analytic or
        // sampled word-granular tiers.
        let auto = cmd_sweep(
            &Flags::parse(&args(&[base, &["--engine", "auto"][..]].concat())).unwrap(),
        )
        .unwrap();
        assert!(!auto.contains("Analytic"), "{auto}");
        assert!(!auto.contains("Sampled"), "{auto}");
    }

    #[test]
    fn sweep_line_words_flag_is_hardened() {
        let run = |extra: &[&str]| {
            cmd_sweep(
                &Flags::parse(&args(
                    &[&["--kernel", "matmul", "--n", "8"][..], extra].concat(),
                ))
                .unwrap(),
            )
        };
        // Malformed values are one-line diagnostics.
        for bad in ["0", "3", "banana"] {
            let err = run(&["--engine", "stackdist", "--line-words", bad]).unwrap_err();
            assert!(!err.contains('\n'), "diagnostic must be one line: {err:?}");
        }
        // Without an engine the flag would silently not price anything.
        let err = run(&["--line-words", "4"]).unwrap_err();
        assert!(err.contains("--engine"), "{err}");
        // Engines that cannot price the model are refused by the sweep
        // with a directed message, not silently degraded.
        let err = run(&["--engine", "sampled:3", "--line-words", "4"]).unwrap_err();
        assert!(err.contains("replay"), "{err}");
        // Device sweeps run unbudgeted: the resumable drivers are
        // word-granular machinery.
        let err = run(&[
            "--engine",
            "stackdist",
            "--line-words",
            "4",
            "--max-addresses",
            "100",
        ])
        .unwrap_err();
        assert!(err.contains("unbudgeted"), "{err}");
    }

    #[test]
    fn hierarchy_device_annotations_measure_write_backs() {
        // An outer level with its own 8-word line: the measured section
        // switches to the dual ledger, defaulting to the replay engine
        // (mixed granularity: word-granular local under an 8-word line).
        let mixed = cmd_hierarchy(
            &Flags::parse(&args(&[
                "--levels", "128:1e7,16384:1e6:0:8", "--kernel", "matmul", "--n", "16",
            ]))
            .unwrap(),
        )
        .unwrap();
        assert!(mixed.contains("wb_i (words)"), "{mixed}");
        assert!(mixed.contains("Replay"), "{mixed}");
        // A uniform line (the flag covers the local level too) admits the
        // one-pass engine, bit-identical to the explicit replay run (which
        // `auto` picks for this two-capacity ladder).
        let base = &[
            "--levels", "128:1e7,16384:1e6:0:8", "--kernel", "matmul", "--n", "16",
            "--line-words", "8",
        ];
        let onepass = cmd_hierarchy(
            &Flags::parse(&args(&[base, &["--engine", "stackdist"][..]].concat())).unwrap(),
        )
        .unwrap();
        assert!(onepass.contains("StackDist"), "{onepass}");
        assert!(onepass.contains("8-word lines"), "{onepass}");
        let replay = cmd_hierarchy(
            &Flags::parse(&args(&[base, &["--engine", "replay"][..]].concat())).unwrap(),
        )
        .unwrap();
        assert_eq!(onepass.replace("StackDist", "Replay"), replay);
        let default = cmd_hierarchy(&Flags::parse(&args(base)).unwrap()).unwrap();
        assert_eq!(default, replay);
        // The write-back ledger is live: matmul's C accumulation dirties
        // lines, so some boundary records write-backs. (The measured rows
        // are `L<i> read wb r`; the analytic rows above fail the u64
        // parse on their scientific-notation bandwidth column.)
        let some_wb = onepass
            .lines()
            .filter(|l| l.starts_with('L'))
            .filter_map(|l| l.split_whitespace().nth(2)?.parse::<u64>().ok())
            .any(|wb| wb > 0);
        assert!(some_wb, "{onepass}");
    }

    #[test]
    fn hierarchy_auto_measures_mixed_line_ladders() {
        // A four-level ladder mixing 4- and 8-word lines: the one-pass
        // read is unsound, so `auto` must land on the replay engine even
        // though four capacity reads would amortize a histogram.
        let base = &[
            "--levels",
            "64:1e9:0:4,256:1e8:0:8,1024:1e7:0:8,4096:1e6:0:8",
            "--kernel",
            "matmul",
            "--n",
            "16",
        ];
        let run = |engine: &str| {
            cmd_hierarchy(
                &Flags::parse(&args(&[base, &["--engine", engine][..]].concat())).unwrap(),
            )
        };
        let auto = run("auto").unwrap();
        assert_eq!(auto, run("replay").unwrap());
        assert!(run("stackdist").unwrap_err().contains("uniform line size"));
        let measured: Vec<&str> = auto.lines().filter(|l| l.starts_with('L')).skip(4).collect();
        assert_eq!(measured.len(), 4, "{auto}");
    }

    #[test]
    fn sweep_auto_never_picks_an_engine_the_sweep_refuses() {
        for kernel in [
            "matmul", "lu", "grid2", "grid3", "fft", "sort", "matvec", "trisolve",
        ] {
            for line_words in [None, Some("8")] {
                let mut flags = vec!["--kernel", kernel, "--n", "8", "--engine", "auto"];
                flags.extend(line_words.iter().flat_map(|lw| ["--line-words", *lw]));
                let out = cmd_sweep(&Flags::parse(&args(&flags)).unwrap());
                assert!(out.is_ok(), "{kernel} line words {line_words:?}: {out:?}");
            }
        }
    }

    #[test]
    fn hierarchy_command_consumes_latency() {
        // The knob must reach the computation: the same ladder with a
        // latency on the outer level reports a different (higher) ridge.
        let base = Flags::parse(&args(&["--levels", "100:1e7,10000:1e6", "--c", "1e8"])).unwrap();
        let with_lat = Flags::parse(&args(&[
            "--levels",
            "100:1e7,10000:1e6:1e-6",
            "--c",
            "1e8",
        ]))
        .unwrap();
        let a = cmd_hierarchy(&base).unwrap();
        let b = cmd_hierarchy(&with_lat).unwrap();
        assert_ne!(a, b, "latency must change the rendered analysis");
        // Outer ridge doubles: 1e8/1e6 = 100 -> 1e8/5e5 = 200.
        assert!(b.contains("200"), "{b}");
    }

    #[test]
    fn levels_reject_non_monotone_capacities() {
        let err = parse_levels("4096:1e8,1024:1e7").unwrap_err();
        assert!(err.contains("grow outward"), "{err}");
        // Equal capacities are just as invalid.
        assert!(parse_levels("4096:1e8,4096:1e7").is_err());
    }

    #[test]
    fn hierarchy_command_renders_per_level_tables() {
        let f = Flags::parse(&args(&["--levels", "100:1e7,10000:1e6", "--c", "1e8"])).unwrap();
        let out = cmd_hierarchy(&f).unwrap();
        assert!(out.contains("L1"), "{out}");
        assert!(out.contains("L2"), "{out}");
        // Port ridge C/IO_0 = 10, outer ridge = 100.
        assert!(out.contains("10"), "{out}");
        // matmul balanced at M = (10·√3)² = 300 at the port; matvec never.
        assert!(out.contains("impossible"), "{out}");
        // Missing --levels is a usage error, as is a malformed value.
        assert!(cmd_hierarchy(&Flags::parse(&args(&[])).unwrap()).is_err());
        let f = Flags::parse(&args(&["--levels", "bogus"])).unwrap();
        assert!(cmd_hierarchy(&f).is_err());
    }
}
