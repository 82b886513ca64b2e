#!/usr/bin/env python3
"""Self-test of the repository benchmark, at the tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload of run.py (the ones BENCHMARK.json declares, and
`store`) it checks that
  * `--trace 0` prints exactly the declared end-to-end metrics, with their
    units, and `--trace 1` exactly the declared per-layer metrics;
  * both runs are correct on the recorded expected values;
  * a deliberately wrong expected value shows up as failed operations
    (`failed` > 0, `correct` false), which is what `fail_ratio` counts.
Exits 0 when every check passes.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
sys.path.insert(0, BENCH_DIR)
from run import WORKLOADS  # noqa: E402


def run(workload, trace, expect_file=None):
    args = [sys.executable, RUN, "--tiny", "--workload", workload, "--seed", "7",
            "--seconds", "0.2", "--trace", str(trace)]
    if expect_file:
        args += ["--expect-file", expect_file]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wrong_expectations(expected):
    """One wrong simulated value per workload."""
    wrong = copy.deepcopy(expected)
    for sid, rows in wrong["sweeps"].items():
        rows[-1][2] = str(int(rows[-1][2]) + 1)  # last capacity's IO words
    wrong["store"]["fsck"][0] += 1  # valid entries
    answers = wrong["serve"]["answers"]
    for q in answers:
        if q.startswith("io "):
            answers[q] = answers[q].replace(" = ", " = 1", 1)
    return wrong


def wrong_engines(expected):
    """The right tables under another engine name: only the header check
    can catch it."""
    wrong = copy.deepcopy(expected)
    for sid in wrong["sweep_engines"]:
        wrong["sweep_engines"][sid] = "Replay"
    return wrong


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    workdir = os.path.join(".bench_work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(BENCH_DIR, "expected", "tiny.json")) as f:
        expected = json.load(f)
    wrong_path = os.path.join(workdir, "wrong.json")
    with open(wrong_path, "w") as f:
        json.dump(wrong_expectations(expected), f)
    engines_path = os.path.join(workdir, "wrong-engines.json")
    with open(engines_path, "w") as f:
        json.dump(wrong_engines(expected), f)

    failures = []
    try:
        for w in WORKLOADS:
            for trace in (0, 1):
                try:
                    r = run(w, trace)
                    assert set(r) == {"correct", "attempted", "failed", "metrics"}, r.keys()
                    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    assert got == declared[trace], (
                        f"metrics differ: missing {set(declared[trace]) - set(got)}, "
                        f"extra {set(got) - set(declared[trace])}, units "
                        f"{[k for k in got if declared[trace].get(k) not in (None, got[k])]}")
                    print(f"ok   {w} trace={trace}: {len(got)} metrics, "
                          f"{r['attempted']} attempted")
                except AssertionError as e:
                    failures.append(f"{w} trace={trace}: {e}")
            try:
                r = run(w, 0, wrong_path)
                assert r["failed"] > 0 and not r["correct"], r
                print(f"ok   {w} wrong expectation: {r['failed']}/{r['attempted']} failed")
            except AssertionError as e:
                failures.append(f"{w} wrong expectation not caught: {e}")
            if w not in ("curve", "bigtrace"):
                continue
            try:
                r = run(w, 0, engines_path)
                assert r["failed"] > 0 and not r["correct"], r
                print(f"ok   {w} wrong engine: {r['failed']}/{r['attempted']} failed")
            except AssertionError as e:
                failures.append(f"{w} wrong engine not caught: {e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
