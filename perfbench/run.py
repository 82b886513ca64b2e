#!/usr/bin/env python3
"""The repository benchmark: workloads run through the release `balance` binary.

Run from the repository root:

    python3 perfbench/run.py --workload curve --seed 1 --seconds 45 --trace 0

`--trace 0` times the workload's `balance` invocations (closed loop, one
client, one `balance` child at a time) and prints the end-to-end metrics.
`--trace 1` runs one untraced iteration, then the traced run: the
`perfbench-layers` program (perfbench/layers) repeats the workload's work
through each layer's public calls, in alternating rounds with its per-call
timers off and on, then probes single layers. This script turns its spans
into the per-layer metrics, the within-run ratios and the tracing overhead.

Every simulated number the binary prints is checked against values recorded
from the seed commit (perfbench/expected/); a mismatch is a failed operation.
The last line of standard output is the result:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.

Other modes:
    --tiny            small inputs (the self-test scale, perfbench/selftest.py)
    --record          re-record the expected values from the current binary
    --expect-file F   check against F instead of the recorded file
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TARGET_DIR = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BALANCE = os.path.join(TARGET_DIR, "release", "balance")
LAYERS = os.path.join(TARGET_DIR, "release", "perfbench-layers")
CHILD_TIMEOUT_S = 170
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 50
MIN_ITERS = 3
MIRROR_ROUNDS = 2

# Kernels whose closed-form (analytic) profile answers store entries.
ANALYTIC = ["matmul", "grid2d", "grid3d", "sort", "matvec", "trisolve",
            "convolution", "transpose", "multi_matvec"]
REGISTRY = ["matmul", "triangularization", "grid2d", "grid3d", "fft", "sort",
            "matvec", "trisolve", "convolution", "transpose", "multi_matvec"]

# Sizes per scale. "full" is the benchmark; "tiny" is the self-test.
SCALES = {
    "full": {
        "curve": [("fft", 262144, "auto", 1), ("triangularization", 256, "auto", 1),
                  ("matmul", 192, "auto", 8)],
        "bigtrace": [("fft", 2097152, "auto", 1), ("fft", 2097152, "sampled:4", 1)],
        "store_grid": list(range(8, 1025, 8)),
        "store_small_grid": [16, 32, 64],
        "serve_grid": [64, 128, 256],
        "serve_missing_n": [32, 96, 192, 512],
        "serve_missing_extra": [("fft", 512), ("triangularization", 32)],
        "serve_lines": 1_000_000,
        "probe_cap": 1 << 24,
    },
    # The set-up's smoke pass: big enough that its time is mostly compute,
    # not process start-up, which swings more with the host's load.
    "smoke": {
        "curve": [("fft", 65536, "auto", 1), ("triangularization", 128, "auto", 1),
                  ("matmul", 64, "auto", 8)],
        "bigtrace": [("fft", 65536, "auto", 1), ("fft", 65536, "sampled:4", 1)],
        "store_grid": list(range(8, 129, 8)),
        "store_small_grid": [16],
    },
    "tiny": {
        "curve": [("fft", 1024, "auto", 1), ("triangularization", 24, "auto", 1),
                  ("matmul", 16, "auto", 8)],
        "bigtrace": [("fft", 4096, "auto", 1), ("fft", 4096, "sampled:4", 1)],
        "store_grid": [8, 16, 24, 32],
        "store_small_grid": [16],
        "serve_grid": [16, 32],
        "serve_missing_n": [8, 24],
        "serve_missing_extra": [("fft", 8), ("triangularization", 8)],
        "serve_lines": 10_000,
        "probe_cap": 1 << 24,
    },
}
SERVE_MISSING = 4
VERB_WEIGHTS = {"io": 0.60, "intensity": 0.20, "balance": 0.15, "binding": 0.05}
CAPACITIES = [16, 48, 100, 256, 700, 1024, 3000, 4096, 10000, 65536, 200000, 1048576]
RATIOS = ["0.5", "1.0", "1.5", "2.0", "3.0", "5.0", "8.0", "16.0"]
LEVELS = ["64:1e8,4096:1e7", "1024:1e9,65536:1e8,1048576:1e7", "256:5e8,16384:5e7",
          "32:1e8"]
SAMPLED_ERR_BAR = 0.02
WORKLOADS = ["curve", "bigtrace", "store", "serve"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """Set-up or build failure: the run prints no result."""


# --------------------------------------------------------------------------
# Processes


class Child:
    """One finished child: its stdout, exit code, wall time from spawn to
    exit (s), user + system CPU time (s) and peak resident set (MiB)."""

    def __init__(self, out, code, wall, cpu, rss):
        self.out, self.code, self.wall, self.cpu, self.rss = out, code, wall, cpu, rss


HWM_POLL_S = 0.005


def spawn(args, workdir):
    """Runs one child to exit, with stdout to a pipe so no file writes are
    timed. CPU time comes from `wait4`. The peak resident set is polled from
    /proc (VmHWM), because `wait4`'s ru_maxrss carries this process's own
    peak across fork and exec."""
    err_path = os.path.join(workdir, "child.stderr")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err)
        done, peak = threading.Event(), [0]
        poller = threading.Thread(target=poll_hwm, args=(proc.pid, done, peak))
        poller.start()
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        reaped = False
        try:
            data = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            reaped = True
        finally:
            killer.cancel()
            done.set()
            poller.join()
            proc.stdout.close()
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(err_path, "rb") as f:
            log(f"{' '.join(args)} exited {code}: "
                f"{f.read().decode(errors='replace').strip()[:500]}")
    return Child(data.decode(), code, wall, usage.ru_utime + usage.ru_stime, peak[0] / 1024.0)


def poll_hwm(pid, done, peak):
    """Keeps peak[0] at the child's VmHWM (KiB) until `done` is set."""
    path = f"/proc/{pid}/status"
    while not done.is_set():
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak[0] = max(peak[0], int(line.split()[1]))
                        break
        except OSError:
            pass
        done.wait(HWM_POLL_S)


def cargo_build(args):
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET_DIR)
    proc = subprocess.run(["cargo", "build", "--release", "--offline", "-q"] + args,
                          env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"cargo build {' '.join(args)} failed")


def build_balance():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "bench"))):
        raise BenchError("run from the repository root: no Cargo.toml/crates/bench here")
    cargo_build(["-p", "balance-bench", "--bin", "balance"])


def build_layers():
    cargo_build(["--manifest-path", os.path.join(BENCH_DIR, "layers", "Cargo.toml")])


# --------------------------------------------------------------------------
# Parsing the binary's output


SWEEP_HEADER_RE = re.compile(r"^cache-model capacity sweep \((.*) engine\)$", re.M)


def sweep_table(text):
    """A `balance sweep` table: the engine its header names (which engine
    `auto` resolved to) and the numeric rows as token lists."""
    m = SWEEP_HEADER_RE.search(text)
    rows = []
    for line in text.splitlines():
        tok = line.split()
        if len(tok) in (4, 5) and all(re.fullmatch(r"-?[0-9.]+", t) for t in tok):
            rows.append(tok)
    return (m.group(1) if m else None), rows


BUILD_RE = re.compile(r"built (\d+), skipped (\d+) \(already valid\), failed (\d+)")
FSCK_RE = re.compile(r"fsck: (\d+) valid, (\d+) adopted, (\d+) quarantined, "
                     r"(\d+) missing, (\d+) temp cleaned")
ANSWER_RE = re.compile(r"^(.*)  \[(hit|repaired\(miss\)|repaired\(quarantined\)) "
                       r"\[([^,\]]+), exact\]\]$")


def parse_counts(text, regex):
    m = regex.search(text)
    return [int(g) for g in m.groups()] if m else None


def trace_len(kernel, n):
    """Exact trace length of the swept kernels (kernels::trace)."""
    if kernel == "fft":
        return (n.bit_length() - 1) * (n // 2) * 8
    if kernel == "matmul":
        return 3 * n ** 3
    if kernel == "triangularization":
        return sum((n - k - 1) * (3 + 3 * (n - k - 1)) for k in range(n))
    raise ValueError(kernel)


def sweep_args(kernel, n, engine, lw, seed):
    args = [BALANCE, "sweep", "--kernel", kernel, "--n", str(n), "--engine", engine,
            "--seed", str(seed)]
    return args + (["--line-words", str(lw)] if lw > 1 else [])


def sweep_id(kernel, n, engine, lw):
    return f"{kernel}:{n}:{engine}:{lw}"


# --------------------------------------------------------------------------
# Workloads. Each has setup(ctx) and iteration(ctx) -> dict.


class Ctx:
    def __init__(self, workload, seed, scale, expected, workdir):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.cfg = SCALES[scale]
        self.expected = expected
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.counts = {}
        self.inputs = {}

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def run(self, args):
        return spawn(args, self.workdir)

    def tally(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def sweeps_setup(ctx):
    ctx.inputs["sweeps"] = ctx.cfg[ctx.workload]
    # Smoke run: the same sweeps at reduced sizes.
    for kernel, n, engine, lw in SCALES["smoke"][ctx.workload]:
        child = ctx.run(sweep_args(kernel, n, engine, lw, ctx.seed))
        if child.code != 0 or not sweep_table(child.out)[1]:
            raise BenchError(f"smoke sweep {kernel} {n} failed")


def sweeps_iteration(ctx):
    children, addrs, tables = [], 0, {}
    sweeps, engines = ctx.expected.get("sweeps", {}), ctx.expected.get("sweep_engines", {})
    for kernel, n, engine, lw in ctx.inputs["sweeps"]:
        child = ctx.run(sweep_args(kernel, n, engine, lw, ctx.seed))
        children.append(child)
        addrs += trace_len(kernel, n)
        sid = sweep_id(kernel, n, engine, lw)
        used, rows = sweep_table(child.out)
        tables[sid] = rows
        # The engine is checked too: exact engines print identical tables,
        # so only the header shows which one `auto` picked.
        ok = child.code == 0 and rows == sweeps.get(sid) and used == engines.get(sid)
        ctx.tally(1, 0 if ok else 1)
    if ctx.workload == "bigtrace":
        (exact_id, sampled_id) = [sweep_id(*s) for s in ctx.inputs["sweeps"]]
        err = sampled_error(tables[exact_id], tables[sampled_id])
        ctx.counts["sampled_max_rel_err"] = err
        # The E23 accuracy bar holds for large traces; tiny ones only report it.
        ok = err is not None and (ctx.scale == "tiny" or err <= SAMPLED_ERR_BAR)
        ctx.tally(1, 0 if ok else 1)
    ctx.counts["addresses"] = addrs
    return {"children": children, "items": addrs}


def sampled_error(exact_rows, sampled_rows):
    """max over sweep points of |IO_sampled - IO_exact| / IO_exact."""
    if not exact_rows or len(exact_rows) != len(sampled_rows):
        return None
    errs = [abs(int(s[2]) - int(e[2])) / int(e[2]) for e, s in zip(exact_rows, sampled_rows)]
    return max(errs)


def store_invocations(ctx, dirname):
    d = ctx.path(dirname)
    big = ["--kernels", ",".join(ANALYTIC), "--grid", ",".join(map(str, ctx.cfg["store_grid"]))]
    small = ["--kernels", "fft,triangularization",
             "--grid", ",".join(map(str, ctx.cfg["store_small_grid"]))]
    return [
        ("build", [BALANCE, "store", "build", "--dir", d] + big, BUILD_RE),
        ("build_small", [BALANCE, "store", "build", "--dir", d] + small, BUILD_RE),
        ("fsck", [BALANCE, "store", "fsck", "--dir", d], FSCK_RE),
        ("rebuild", [BALANCE, "store", "build", "--dir", d] + big, BUILD_RE),
        ("rebuild_small", [BALANCE, "store", "build", "--dir", d] + small, BUILD_RE),
    ]


def store_setup(ctx):
    ctx.inputs["entries"] = (len(ANALYTIC) * len(ctx.cfg["store_grid"])
                             + 2 * len(ctx.cfg["store_small_grid"]))
    # Smoke run: the same invocations at reduced sizes.
    smoke = Ctx("store", ctx.seed, "smoke", {}, ctx.workdir)
    shutil.rmtree(ctx.path("smoke"), ignore_errors=True)
    for _, args, regex in store_invocations(smoke, "smoke"):
        child = ctx.run(args)
        if child.code != 0 or parse_counts(child.out, regex) is None:
            raise BenchError(f"smoke {' '.join(args[1:3])} failed")
    shutil.rmtree(ctx.path("smoke"), ignore_errors=True)


def store_iteration(ctx):
    shutil.rmtree(ctx.path("store"), ignore_errors=True)
    # Flush the previous iteration's writes so they are not paid for here.
    os.sync()
    children, got = [], {}
    for name, args, regex in store_invocations(ctx, "store"):
        child = ctx.run(args)
        children.append(child)
        counts = parse_counts(child.out, regex) if child.code == 0 else None
        got[name] = counts
        want = ctx.expected.get("store", {}).get(name)
        ops = sum(want[:2]) if want else 1
        ctx.tally(ops, 0 if counts == want else ops)
    built = sum((got.get(k) or [0])[0] for k in ("build", "build_small"))
    skipped = sum((got.get(k) or [0, 0])[1] for k in ("rebuild", "rebuild_small"))
    ctx.counts.update(entries_built=built, entries_skipped=skipped)
    # Entries visited: built, scrubbed by fsck, then validated and skipped.
    return {"children": children, "items": 3 * ctx.inputs["entries"]}


def serve_keys(cfg):
    stored = [(k, n) for k in REGISTRY for n in cfg["serve_grid"]]
    missing = [(k, n) for k in ANALYTIC for n in cfg["serve_missing_n"]]
    return stored, missing + [tuple(x) for x in cfg["serve_missing_extra"]]


def key_queries(kernel, n):
    """Every query the batch can ask about one key, by verb."""
    return {
        "io": [f"io {kernel} {n} {m}" for m in CAPACITIES],
        "intensity": [f"intensity {kernel} {n} {m}" for m in CAPACITIES],
        "balance": [f"balance {kernel} {n} {r}" for r in RATIOS],
        "binding": [f"binding {kernel} {n} {lv}" for lv in LEVELS],
    }


def serve_batch(cfg, seed, lines):
    """The seeded batch and missing-key set. Keys are uniform over the stored
    keys plus the missing ones; verbs follow VERB_WEIGHTS."""
    rng = random.Random(seed)
    stored, candidates = serve_keys(cfg)
    missing = sorted(rng.sample(candidates, SERVE_MISSING))
    queries, weights = [], []
    keys = stored + missing
    for kernel, n in keys:
        for verb, qs in key_queries(kernel, n).items():
            for q in qs:
                queries.append(q)
                weights.append(VERB_WEIGHTS[verb] / len(qs) / len(keys))
    return rng.choices(queries, weights=weights, k=lines), missing


def build_serve_store(ctx, dirname):
    grid = ",".join(map(str, ctx.cfg["serve_grid"]))
    shutil.rmtree(ctx.path(dirname), ignore_errors=True)
    child = ctx.run([BALANCE, "store", "build", "--dir", ctx.path(dirname), "--grid", grid])
    want = [len(REGISTRY) * len(ctx.cfg["serve_grid"]), 0, 0]
    if child.code != 0 or parse_counts(child.out, BUILD_RE) != want:
        raise BenchError(f"serve store build: {child.out.strip()}")


def serve_setup(ctx):
    lines, missing = serve_batch(ctx.cfg, ctx.seed, ctx.cfg["serve_lines"])
    with open(ctx.path("batch.txt"), "w") as f:
        f.write("\n".join(lines))
        f.write("\n")
    build_serve_store(ctx, "pristine")
    ctx.inputs.update(lines=lines, missing=missing)


def serve_expected_output(ctx):
    exp = ctx.expected.get("serve", {})
    bodies, engines = exp.get("answers", {}), exp.get("engines", {})
    missing = set(ctx.inputs["missing"])
    full = {}
    for q in set(ctx.inputs["lines"]):
        _, kernel, n = q.split()[:3]
        src = "repaired(miss)" if (kernel, int(n)) in missing else "hit"
        engine = engines.get(f"{kernel}:{n}", "?")
        full[q] = f"{bodies.get(q, '?')}  [{src} [{engine}, exact]]"
    return [full[q] for q in ctx.inputs["lines"]]


def fresh_serve_store(ctx, dirname):
    shutil.rmtree(ctx.path(dirname), ignore_errors=True)
    shutil.copytree(ctx.path("pristine"), ctx.path(dirname))


def serve_iteration(ctx):
    if "expected_lines" not in ctx.inputs:
        ctx.inputs["expected_lines"] = serve_expected_output(ctx)
        ctx.inputs["expected_text"] = "\n".join(ctx.inputs["expected_lines"]) + "\n"
    fresh_serve_store(ctx, "store")
    os.sync()
    child = ctx.run([BALANCE, "serve", "--store", ctx.path("store"),
                     "--batch", ctx.path("batch.txt")])
    n = len(ctx.inputs["lines"])
    if child.code == 0 and child.out == ctx.inputs["expected_text"]:
        bad = 0
    else:
        got = child.out.splitlines()
        want = ctx.inputs["expected_lines"]
        bad = sum(1 for i in range(n) if i >= len(got) or got[i] != want[i])
        for i in range(n):
            if i >= len(got) or got[i] != want[i]:
                log(f"serve mismatch at line {i}: got {got[i] if i < len(got) else None!r}, "
                    f"want {want[i]!r}")
                break
    ctx.tally(n, bad)
    ctx.counts.update(queries=n, repairs=len(ctx.inputs["missing"]))
    return {"children": [child], "items": n}


SETUP = {"curve": sweeps_setup, "bigtrace": sweeps_setup, "store": store_setup,
         "serve": serve_setup}
ITERATION = {"curve": sweeps_iteration, "bigtrace": sweeps_iteration,
             "store": store_iteration, "serve": serve_iteration}


# --------------------------------------------------------------------------
# Traced run: plans for perfbench-layers, and the per-layer metrics.


def layer_plan(ctx):
    """The perfbench-layers plan for one workload, on its own inputs.

    The lines that repeat the workload's `balance` work run MIRROR_ROUNDS
    times with per-call timers off and as often with them on, alternating,
    each time on a store of its own. The fastest round of each side makes
    the tracing overhead (see layer_metrics); the first round in a process
    runs cold. The rest probe single layers."""
    cfg, p = ctx.cfg, []
    cap = cfg["probe_cap"]
    rounds = [(timing, f"layers-{timing}{r}") for r in range(MIRROR_ROUNDS)
              for timing in ("off", "on")]
    dirs = [d for _, d in rounds]
    for d in dirs + ["layers-probe-store", "layers-puts"]:
        shutil.rmtree(ctx.path(d), ignore_errors=True)
    layer_store = ctx.path("layers-on0")
    if ctx.workload in ("curve", "bigtrace"):
        def mirror(_):
            return [f"sweep {k} {n} {e} {lw}" for k, n, e, lw in ctx.inputs["sweeps"]]
    elif ctx.workload == "store":
        big = (",".join(ANALYTIC), ",".join(map(str, cfg["store_grid"])))
        small = ("fft,triangularization", ",".join(map(str, cfg["store_small_grid"])))

        def mirror(d):
            return [f"build {d} {big[0]} {big[1]}", f"build {d} {small[0]} {small[1]}",
                    f"fsck {d}", f"rebuild {d} {big[0]} {big[1]}",
                    f"rebuild {d} {small[0]} {small[1]}"]
    else:
        for d in dirs:
            fresh_serve_store(ctx, d)

        def mirror(d):
            return [f"serve {d} {ctx.path('batch.txt')}"]
    for timing, d in rounds:
        p += [f"timing {timing}"] + mirror(ctx.path(d))
    ctx.inputs["mirror_len"] = len(mirror(layer_store))

    if ctx.workload in ("curve", "bigtrace"):
        kernel, n = ctx.inputs["sweeps"][0][:2]
        p.append(f"probe {kernel} {n} {cap}")
        tk, tn, tlw = next(((k, n, lw) for k, n, _, lw in ctx.inputs["sweeps"] if lw > 1),
                           (kernel, n, 8))
        p.append(f"tagged {tk} {tn} {tlw} {cap}")
        sz = 192 if ctx.scale == "full" else 16
        p += [f"analytic matmul {sz}", f"analytic grid2d {sz}", f"analytic grid3d {sz}"]
        p += [f"puts {layer_store}", f"gets {layer_store}", f"fsck {layer_store}", "codec",
              f"fetch {layer_store} {kernel} {n}", f"fetch {layer_store} matmul {sz + 1}"]
        batch = ctx.path("layers-batch.txt")
        keys = [(k, n) for k, n, _, lw in ctx.inputs["sweeps"] if lw == 1]
        write_small_batch(batch, keys, ctx.seed)
        p.append(f"serve {layer_store} {batch}")
    elif ctx.workload == "store":
        top = cfg["store_small_grid"][-1]
        p += [f"probe triangularization {top} {cap}", f"tagged triangularization {top} 8 {cap}",
              f"sweep triangularization {top} auto 1", f"gets {layer_store}", "codec",
              f"fetch {layer_store} matmul {cfg['store_grid'][-1]}",
              f"fetch {layer_store} matmul {cfg['store_grid'][-1] + 1}"]
        batch = ctx.path("layers-batch.txt")
        write_small_batch(batch, [("matmul", n) for n in cfg["store_grid"][:8]], ctx.seed)
        p.append(f"serve {layer_store} {batch}")
    else:
        fresh_serve_store(ctx, "layers-probe-store")
        probe_copy = ctx.path("layers-probe-store")
        top = cfg["serve_grid"][-1]
        p += [f"probe fft {top} {cap}", f"tagged fft {top} 8 {cap}", f"sweep fft {top} auto 1"]
        p += [f"analytic matmul {top}", f"analytic grid2d {top}"]
        p += [f"analytic {k} {n}" for k, n in ctx.inputs["missing"] if k in ANALYTIC]
        p += [f"gets {probe_copy}", "codec", f"puts {ctx.path('layers-puts')}",
              f"fsck {probe_copy}", f"fetch {probe_copy} matmul {top}"]
        p += [f"fetch {probe_copy} {k} {n}" for k, n in ctx.inputs["missing"]]
    return p


def write_small_batch(path, keys, seed, lines=2000):
    rng = random.Random(seed)
    pool = []
    for kernel, n in keys:
        for verb, qs in key_queries(kernel, n).items():
            pool += [(q, VERB_WEIGHTS[verb] / len(qs)) for q in qs]
    qs = rng.choices([q for q, _ in pool], weights=[w for _, w in pool], k=lines)
    with open(path, "w") as f:
        f.write("\n".join(qs) + "\n")


def median_or_nan(values):
    return statistics.median(values) if values else float("nan")


def mirror_spans(spans):
    """(untimed, timed) spans of the repeated workload work: every span run
    with timers off, and as many of the first spans run with timers on."""
    untimed = [s for s in spans if not s["timed"]]
    return untimed, [s for s in spans if s["timed"]][:len(untimed)]


def round_walls(spans, k):
    """Wall time (s) of each round of k mirrored spans."""
    return [sum(s["wall_ns"] for s in spans[i:i + k]) / 1e9 for i in range(0, len(spans), k)]


def layer_metrics(ctx, spans):
    """Per-layer metrics from the timed spans of the first round and the
    probes: `*_ns_per_addr` are self times (the call minus draining the same
    trace), ratios are within this run."""
    k = ctx.inputs["mirror_len"]
    timed = [s for s in spans if s["timed"]]
    by = {}
    for s in timed[:k] + timed[MIRROR_ROUNDS * k:]:
        by.setdefault(s["op"], []).append(s)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    pr = by["probe"][0]
    a, gen = pr["addrs"], pr["gen_ns"]
    self_ns = {k: max(pr[k] - gen, 0.0) / a for k in
               ("lru_ns", "direct_ns", "hashed_ns", "seg2_ns", "sampled4_ns")}
    tg = by["tagged"][0]
    put("trace.gen_ns_per_addr", gen / a, "ns/addr")
    put("cache.lru_ns_per_addr", self_ns["lru_ns"], "ns/addr")
    put("stackdist.direct_ns_per_addr", self_ns["direct_ns"], "ns/addr")
    put("stackdist.tagged_ns_per_addr", max(tg["tagged_ns"] - tg["gen_ns"], 0.0) / tg["addrs"],
        "ns/addr")
    put("stackdist.hashed_ns_per_addr", self_ns["hashed_ns"], "ns/addr")
    put("stackdist.direct_over_lru", ratio(self_ns["direct_ns"], self_ns["lru_ns"]), "ratio")
    put("stackdist.hashed_over_direct", ratio(self_ns["hashed_ns"], self_ns["direct_ns"]),
        "ratio")
    put("stackdist.io_at_ns", pr["io_at_ns"], "ns")
    put("segmented.k2_ns_per_addr", self_ns["seg2_ns"], "ns/addr")
    put("segmented.k2_over_direct", ratio(self_ns["seg2_ns"], self_ns["direct_ns"]), "ratio")
    put("sampling.s4_ns_per_addr", self_ns["sampled4_ns"], "ns/addr")

    analytic, bootstrap = [], []
    for s in by.get("analytic", []):
        (bootstrap if s["kernel"].startswith("grid") else analytic).append(s["ns"])
    for s in by.get("build", []):
        analytic += s["analytic_ns"]
        bootstrap += s["bootstrap_ns"]
    put("analytic.profile_us", median_or_nan(analytic) / 1e3, "us")
    put("analytic.grid_bootstrap_us", median_or_nan(bootstrap) / 1e3, "us")
    put("sweep.self_ms", median_or_nan([s["wall_ns"] - s["engine_ns"] for s in by["sweep"]
                                        if "engine_ns" in s]) / 1e6, "ms")

    codec = by["codec"][0]
    kib = codec["bytes"] / 1024.0
    put("profstore.encode_ns_per_kib", codec["encode_ns"] / kib, "ns/KiB")
    put("profstore.decode_ns_per_kib", codec["decode_ns"] / kib, "ns/KiB")
    puts = [t for s in by.get("build", []) + by.get("puts", []) for t in s["put_ns"]]
    tenth = max(1, len(puts) // 10)
    put("profstore.put_us.first", median_or_nan(puts[:tenth]) / 1e3, "us")
    put("profstore.put_us.last", median_or_nan(puts[-tenth:]) / 1e3, "us")
    put("profstore.get_us", median_or_nan([t for s in by["gets"] for t in s["get_ns"]]) / 1e3, "us")
    fsck = by["fsck"][-1]
    put("profstore.fsck_us_per_entry", fsck["wall_ns"] / max(fsck["valid"], 1) / 1e3, "us")
    fetches = by.get("fetch", [])
    put("profservice.fetch_hit_us",
        median_or_nan([s["ns"] for s in fetches if s["source"] == "hit"]) / 1e3, "us")
    put("profservice.repair_us",
        median_or_nan([s["ns"] for s in fetches if s["source"] != "hit"]) / 1e3, "us")

    sv = by["serve"][0]
    for verb in VERB_WEIGHTS:
        put(f"storecli.answer_p50_ns.{verb}", sv[f"{verb}_p50_ns"], "ns")
        put(f"storecli.answer_p99_ns.{verb}", sv[f"{verb}_p99_ns"], "ns")

    put("count.addresses", ctx.counts.get("addresses", 0), "count")
    put("count.entries_built", ctx.counts.get("entries_built", 0), "count")
    put("count.entries_skipped", ctx.counts.get("entries_skipped", 0), "count")
    put("count.queries", sv["answered"], "count")
    put("count.repairs", sv["repairs"], "count")
    put("serve.hit_ratio", sv["hits"] / max(sv["answered"], 1), "ratio")
    put("check.fail_ratio", ctx.failed / max(ctx.attempted, 1), "ratio")
    put("check.sampled_max_rel_err", pr["sampled_max_rel_err"], "ratio")

    untimed, timed = mirror_spans(spans)
    traced, untraced = min(round_walls(timed, k)), min(round_walls(untimed, k))
    put("trace.traced_wall_s", traced, "s")
    put("trace.untraced_wall_s", untraced, "s")
    put("trace.overhead_s", traced - untraced, "s")
    return m


def ratio(a, b):
    return a / b if b > 0 else float("nan")


def check_layer_spans(ctx, spans):
    """The traced run repeats the workload; its own counts must agree, and
    both repeats must be the same operations."""
    bad = 0
    for s in spans:
        if s["op"] == "sweep" and s["kernel"] in ("fft", "matmul", "triangularization"):
            bad += s["addrs"] != trace_len(s["kernel"], s["n"])
        if s["op"] == "serve":
            bad += s["failed"] > 0
        if s["op"] == "rebuild":
            bad += s["built"] != 0 or s["failed"] != 0
        if s["op"] == "fsck":
            bad += s["healthy"] != 1
    untimed, timed = mirror_spans(spans)
    bad += (len(untimed) != MIRROR_ROUNDS * ctx.inputs["mirror_len"]
            or [s["op"] for s in untimed] != [s["op"] for s in timed])
    ctx.tally(len(spans), bad)


# --------------------------------------------------------------------------
# Metadata


def source_digest():
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def metadata(ctx, scale):
    def cmd(args):
        try:
            return subprocess.run(args, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or None
        except OSError:
            return None
    return {
        "workload": ctx.workload, "seed": ctx.seed, "scale": scale,
        "commit": cmd(["git", "rev-parse", "HEAD"]), "source_digest": source_digest(),
        "nproc": os.cpu_count(), "rustc": cmd(["rustc", "-V"]), "profile": "release",
        "counts": ctx.counts, "attempted": ctx.attempted, "failed": ctx.failed,
    }


# --------------------------------------------------------------------------
# Recording expected values from the current binary


def record(scale, path):
    expected = {"sweeps": {}, "sweep_engines": {}, "store": {}, "serve": {}}
    workdir = os.path.abspath(os.path.join(".bench_work", f"record-{os.getpid()}"))
    os.makedirs(workdir, exist_ok=True)
    try:
        for wl in ("curve", "bigtrace"):
            ctx = Ctx(wl, 0, scale, {}, workdir)
            for kernel, n, engine, lw in SCALES[scale][wl]:
                child = ctx.run(sweep_args(kernel, n, engine, lw, 0))
                if child.code != 0:
                    raise BenchError(f"sweep {kernel} {n} failed")
                sid = sweep_id(kernel, n, engine, lw)
                expected["sweep_engines"][sid], expected["sweeps"][sid] = sweep_table(child.out)
        ctx = Ctx("store", 0, scale, {}, workdir)
        for name, args, regex in store_invocations(ctx, "store"):
            expected["store"][name] = parse_counts(ctx.run(args).out, regex)
        ctx = Ctx("serve", 0, scale, {}, workdir)
        build_serve_store(ctx, "serve-store")
        stored, candidates = serve_keys(ctx.cfg)
        pool = [q for k, n in stored + candidates for qs in key_queries(k, n).values()
                for q in qs]
        with open(ctx.path("pool.txt"), "w") as f:
            f.write("\n".join(pool) + "\n")
        child = ctx.run([BALANCE, "serve", "--store", ctx.path("serve-store"),
                         "--batch", ctx.path("pool.txt")])
        answers, engines = {}, {}
        for q, line in zip(pool, child.out.splitlines()):
            m = ANSWER_RE.match(line)
            if child.code != 0 or not m:
                raise BenchError(f"unexpected serve answer {line!r} to {q!r}")
            answers[q] = m.group(1)
            _, kernel, n = q.split()[:3]
            engines[f"{kernel}:{n}"] = m.group(3)
        expected["serve"] = {"answers": answers, "engines": engines}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w") as f:
        json.dump(expected, f, indent=0, sort_keys=True)
        f.write("\n")
    log(f"recorded {path}")


# --------------------------------------------------------------------------


def run(args):
    scale = "tiny" if args.tiny else "full"
    expect_file = args.expect_file or os.path.join(BENCH_DIR, "expected", f"{scale}.json")
    build_balance()
    if args.record:
        record(scale, expect_file)
        return None
    with open(expect_file) as f:
        expected = json.load(f)
    if args.trace:
        build_layers()
    workdir = os.path.abspath(os.path.join(".bench_work", f"{args.workload}-{os.getpid()}"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        ctx = Ctx(args.workload, args.seed, scale, expected, workdir)
        setup_times = timed_setups(ctx, once=bool(args.trace))
        if args.trace:
            result = traced_run(ctx)
        else:
            result = untraced_run(ctx, args.seconds, setup_times)
        meta = metadata(ctx, scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"_meta": meta}))
    return result


def timed_setups(ctx, once):
    """Set-up times: one set-up when tracing, else at least SETUP_REPS set-ups
    over at least SETUP_MIN_S (at most SETUP_MAX_REPS)."""
    times, begin = [], time.perf_counter()
    while True:
        start = time.perf_counter()
        SETUP[ctx.workload](ctx)
        times.append(time.perf_counter() - start)
        enough = len(times) >= SETUP_REPS and time.perf_counter() - begin >= SETUP_MIN_S
        if once or enough or len(times) >= SETUP_MAX_REPS:
            return times


def fastest(iters, field):
    """Σ over the iteration's invocations of each one's fastest run."""
    return sum(min(getattr(it["children"][j], field) for it in iters)
               for j in range(len(iters[0]["children"])))


def untraced_run(ctx, seconds, setup_times):
    iters = []
    start = time.perf_counter()
    while len(iters) < MIN_ITERS or time.perf_counter() - start < seconds:
        iters.append(ITERATION[ctx.workload](ctx))
    ctx.counts["iterations"] = len(iters)
    for field in ("wall", "cpu"):
        ctx.counts[f"iteration_{field}_s"] = [
            round(sum(getattr(c, field) for c in i["children"]), 6) for i in iters]
    # The work is deterministic, so a slower run of an invocation is
    # interference from outside: on a shared host it comes in bursts of
    # 10-20 s at up to 2x, which make medians bimodal. Each invocation's
    # fastest run is the steady estimate of what the code costs. The CPU
    # times are kept in the metadata only: they rise with the wall times
    # (the slowdown is not time spent waiting for a core), so they are no
    # steadier.
    wall = fastest(iters, "wall")
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "items_per_s": {"value": iters[0]["items"] / wall, "unit": "1/s"},
        "peak_rss_mib": {"value": statistics.median(max(c.rss for c in i["children"])
                                                    for i in iters), "unit": "MiB"},
    }
    return finish(ctx, metrics)


def traced_run(ctx):
    ITERATION[ctx.workload](ctx)
    plan = layer_plan(ctx)
    plan_path = ctx.path("plan.txt")
    with open(plan_path, "w") as f:
        f.write("\n".join(plan) + "\n")
    child = ctx.run([LAYERS, plan_path])
    if child.code != 0:
        raise BenchError("perfbench-layers failed")
    spans = json.loads(child.out.strip().splitlines()[-1])["spans"]
    check_layer_spans(ctx, spans)
    return finish(ctx, layer_metrics(ctx, spans))


def finish(ctx, metrics):
    return {"correct": ctx.failed == 0, "attempted": ctx.attempted, "failed": ctx.failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="curve")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--expect-file")
    args = ap.parse_args()
    # SIGTERM unwinds like an error, so the running child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run(args)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"benchmark failed: {e}")
        return 1
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
