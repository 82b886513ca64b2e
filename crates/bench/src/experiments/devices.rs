//! Experiment E26 (devices): the device-realistic traffic model.
//!
//! Kung prices one undifferentiated word stream; real memory devices move
//! whole lines (cache lines, flash pages, disk blocks) and charge dirty
//! evictions a second time on the write channel. This experiment drives
//! the tagged read/write traces through the line-granular dirty-LRU model
//! and its one-pass stack-distance twin:
//!
//! * **engine bit-identity** — the 12-point line-granular matmul sweep
//!   (8-word lines, write-backs ledgered) is identical from the tagged
//!   one-pass engine and the per-capacity dirty-LRU replay;
//! * **safety net** — at 1-word lines the device read stream reproduces
//!   the word-granular `IO(M)` curve bit for bit, so the paper's numbers
//!   are the `line_words = 1` corner of the device model;
//! * **the line win** — blocked matmul beats naive by *more* at 8-word
//!   lines than word-granular analysis predicts: tiles make every fetched
//!   line fully used (stride-1 within a tile), while naive's stride-`n`
//!   walk through `B` wastes 7 of every 8 words fetched;
//! * **out-of-core sort on a disk-class level** — external sort under a
//!   block device (64-word lines, slower write-back channel) ledgers both
//!   streams at the disk boundary: merged runs are written back, not just
//!   read, and every transfer is a whole block.

use balance_core::{LevelSpec, Words, WordsPerSec};
use balance_kernels::matmul::{BlockedTrace, MatMul, NaiveTrace};
use balance_kernels::sorting::ExternalSort;
use balance_kernels::sweep::{
    sweep, Engine, Measure, SweepConfig, TrafficModel,
};
use balance_kernels::Verify;
use balance_machine::StackDistance;

use crate::report::{Finding, Report};

/// The device line size the matmul sweep and the line-win study use.
const LINE: u64 = 8;

/// A capacity sweep config at the given traffic model.
fn cfg(n: usize, memories: Vec<usize>, engine: Engine, model: TrafficModel) -> SweepConfig {
    SweepConfig {
        n,
        memories,
        seed: 0,
        verify: Verify::None,
        engine,
        measure: Measure::CacheModel,
        ..SweepConfig::default()
    }
    .with_traffic(model)
}

/// Read words moved at capacity `m` for a matmul trace variant at a line
/// size — the line-win study's one measurement.
fn read_words_at(naive: bool, n: usize, b: usize, line: u64, m: u64) -> u64 {
    let bound = 3 * (n as u64) * (n as u64);
    let profile = if naive {
        StackDistance::traffic_profile_of_bounded(NaiveTrace::new(n), line, bound)
    } else {
        StackDistance::traffic_profile_of_bounded(BlockedTrace::new(n, b), line, bound)
    };
    profile.read_words_at(m)
}

/// The line-win ratio at one capacity: how much more blocked matmul beats
/// naive at `LINE`-word lines than at 1-word lines (> 1 means lines
/// reward blocking beyond the word-granular prediction).
#[must_use]
pub fn blocked_vs_naive_line_win(n: usize, b: usize, m: u64) -> f64 {
    let ratio_at = |line: u64| {
        read_words_at(true, n, b, line, m) as f64 / read_words_at(false, n, b, line, m) as f64
    };
    ratio_at(LINE) / ratio_at(1)
}

/// E26 — tagged traces, line granularity, and the dirty-write-back ledger.
#[must_use]
pub fn e26_devices() -> Report {
    let mut findings = Vec::new();

    // --- Line-granular matmul sweep: both tagged engines, 8-word lines. ---
    let n = 32usize;
    let memories: Vec<usize> = (3..=14u32).map(|k| 1usize << k).collect(); // 12 points
    let device = TrafficModel::device(LINE);
    let onepass = sweep(&MatMul, &cfg(n, memories.clone(), Engine::StackDist, device))
        .unwrap_or_else(|e| panic!("traced: {e}"));
    let replay = sweep(&MatMul, &cfg(n, memories.clone(), Engine::Replay, device))
        .unwrap_or_else(|e| panic!("traced: {e}"));

    let mut body = format!(
        "matmul n = {n}, {LINE}-word lines, dirty write-backs ledgered:\n\
         {:>9} {:>12} {:>12} {:>12} {:>10}\n",
        "M", "reads(M)", "wb(M)", "total", "r(M)"
    );
    for run in &onepass.runs {
        let cost = &run.execution.cost;
        body.push_str(&format!(
            "{:>9} {:>12} {:>12} {:>12} {:>10.3}\n",
            run.m,
            cost.read_at(0).unwrap_or(0),
            cost.writeback_at(0).unwrap_or(0),
            cost.io_words(),
            run.intensity()
        ));
    }

    findings.push(Finding::new(
        "tagged engines bit-identical at 8-word lines",
        "stackdist == dirty-LRU replay",
        format!("{} points", onepass.runs.len()),
        onepass.runs == replay.runs && onepass.runs.len() == 12,
    ));

    let wbs: Vec<u64> = onepass
        .runs
        .iter()
        .map(|r| r.execution.cost.writeback_at(0).unwrap_or(0))
        .collect();
    findings.push(Finding::new(
        "write-back ledger live and monotone",
        "wb(M) > 0, non-increasing in M",
        format!("{} -> {}", wbs.first().unwrap_or(&0), wbs.last().unwrap_or(&0)),
        wbs.iter().all(|&w| w > 0) && wbs.windows(2).all(|w| w[1] <= w[0]),
    ));

    // Whole-line accounting: every ledger entry moves whole lines.
    findings.push(Finding::new(
        "all transfers are whole lines",
        format!("reads, wb both multiples of {LINE}"),
        "every point".to_string(),
        onepass.runs.iter().all(|r| {
            let cost = &r.execution.cost;
            cost.read_at(0).unwrap_or(1) % LINE == 0 && cost.writeback_at(0).unwrap_or(1) % LINE == 0
        }),
    ));

    // --- Safety net: the word-granular curve is the line_words = 1 corner. ---
    let word = sweep(
        &MatMul,
        &cfg(n, memories.clone(), Engine::StackDist, TrafficModel::WORD),
    )
    .unwrap_or_else(|e| panic!("traced: {e}"));
    let unit = sweep(
        &MatMul,
        &cfg(n, memories, Engine::StackDist, TrafficModel::device(1)),
    )
    .unwrap_or_else(|e| panic!("traced: {e}"));
    let reads_match = word
        .runs
        .iter()
        .zip(&unit.runs)
        .all(|(w, u)| {
            w.m == u.m && w.execution.cost.io_words() == u.execution.cost.read_at(0).unwrap_or(0)
        });
    findings.push(Finding::new(
        "1-word-line read stream == word-granular IO(M)",
        "bit-identical at every M",
        format!("{} points", word.runs.len()),
        reads_match && !word.runs.is_empty(),
    ));

    // --- The line win: blocked vs naive matmul under 8-word lines. ---
    let (ln, lb, lm) = (48usize, 8usize, 256u64);
    let naive_1 = read_words_at(true, ln, lb, 1, lm);
    let blocked_1 = read_words_at(false, ln, lb, 1, lm);
    let naive_8 = read_words_at(true, ln, lb, LINE, lm);
    let blocked_8 = read_words_at(false, ln, lb, LINE, lm);
    let win = blocked_vs_naive_line_win(ln, lb, lm);
    body.push_str(&format!(
        "\nblocked (b = {lb}) vs naive matmul, n = {ln}, M = {lm} words:\n\
         {:>12} {:>14} {:>14} {:>10}\n\
         {:>12} {:>14} {:>14} {:>10.2}\n\
         {:>12} {:>14} {:>14} {:>10.2}\n\
         line win (ratio of ratios): {win:.2}x\n",
        "line (words)", "naive reads", "blocked reads", "naive/blocked",
        1, naive_1, blocked_1, naive_1 as f64 / blocked_1 as f64,
        LINE, naive_8, blocked_8, naive_8 as f64 / blocked_8 as f64,
    ));
    findings.push(Finding::new(
        "lines reward blocking beyond the word model",
        "line win > 1.5x",
        format!("{win:.2}x"),
        win > 1.5,
    ));
    // Blocked tiles use fetched lines fully (stride-1 within the tile):
    // its 8-word-line read volume stays within 2x of its word-granular
    // one, while naive's stride-n walk through B pays most of the 8x.
    findings.push(Finding::new(
        "blocked tiles amortize whole lines",
        "blocked reads(8w) < 2x reads(1w); naive > 3x",
        format!(
            "blocked {:.2}x, naive {:.2}x",
            blocked_8 as f64 / blocked_1 as f64,
            naive_8 as f64 / naive_1 as f64
        ),
        (blocked_8 as f64) < 2.0 * blocked_1 as f64 && (naive_8 as f64) > 3.0 * naive_1 as f64,
    ));

    // --- Out-of-core sort on a disk-class outer level. ---
    let sort_n = 4096usize;
    let block = 64u64;
    let disk = LevelSpec::new(Words::new(1 << 20), WordsPerSec::new(1.0e6))
        .and_then(|l| l.with_line_words(block))
        .and_then(|l| l.with_write_bandwidth(WordsPerSec::new(2.5e5)))
        .unwrap_or_else(|e| panic!("valid disk level: {e}"));
    let sort_cfg = SweepConfig {
        outer: vec![disk],
        ..cfg(
            sort_n,
            vec![64, 256, 1024],
            Engine::Replay,
            TrafficModel::device(block),
        )
    };
    let sorted = sweep(&ExternalSort, &sort_cfg).unwrap_or_else(|e| panic!("traced: {e}"));
    let sorted_onepass = sweep(&ExternalSort, &sort_cfg.clone().with_engine(Engine::StackDist))
        .unwrap_or_else(|e| panic!("traced: {e}"));
    body.push_str(&format!(
        "\nexternal sort n = {sort_n} under a disk-class level \
         ({block}-word blocks, split write channel):\n\
         {:>9} {:>12} {:>10} {:>12} {:>10}\n",
        "M", "disk reads", "disk wb", "port reads", "port wb"
    ));
    for run in &sorted.runs {
        let cost = &run.execution.cost;
        body.push_str(&format!(
            "{:>9} {:>12} {:>10} {:>12} {:>10}\n",
            run.m,
            cost.read_at(1).unwrap_or(0),
            cost.writeback_at(1).unwrap_or(0),
            cost.read_at(0).unwrap_or(0),
            cost.writeback_at(0).unwrap_or(0),
        ));
    }
    findings.push(Finding::new(
        "disk boundary ledgers both streams in whole blocks",
        format!("reads > 0, wb > 0, both % {block} == 0"),
        format!("{} points", sorted.runs.len()),
        !sorted.runs.is_empty()
            && sorted.runs.iter().all(|r| {
                let (rd, wb) = (
                    r.execution.cost.read_at(1).unwrap_or(0),
                    r.execution.cost.writeback_at(1).unwrap_or(0),
                );
                rd > 0 && wb > 0 && rd % block == 0 && wb % block == 0
            }),
    ));
    findings.push(Finding::new(
        "tagged engines agree on the disk ladder",
        "replay == stackdist",
        format!("{} points", sorted.runs.len()),
        sorted.runs == sorted_onepass.runs,
    ));

    Report {
        id: "E26",
        title: "device-realistic traffic: lines, tagged streams, write-back ledger",
        body,
        findings,
    }
}
