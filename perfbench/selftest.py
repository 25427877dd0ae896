#!/usr/bin/env python3
"""Self-test of the repository benchmark at smoke size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced with a short
--seconds, and checks that each run prints a result line with the
contract's keys, 0 failed ops, and every end-to-end (untraced) or
per-layer (traced) metric with its declared unit. It then checks that the
benchmark refuses to run, without a result line, in a directory that holds
only BENCHMARK.json and the benchmark's own files. Exits non-zero on the
first failure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SECONDS = "1"


def run(cwd, workload, trace, seed=7):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", SMOKE_SECONDS, "--trace", trace]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(workload, trace, proc, expected):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, (
        f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: incorrect"
    assert result["failed"] == 0, f"{where}: {result['failed']} ops failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{where}: metrics differ: missing {set(expected) - set(metrics)}, "
        f"extra {set(metrics) - set(expected)}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, f"{where}: {name} unit"
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        if trace == "0":
            assert value > 0, f"{where}: {name} is {value}"
    print(f"ok  {where}: {result['attempted']} ops, {len(metrics)} metrics")


def check_bare_directory():
    """Without the library sources the benchmark must fail, printing no
    result."""
    bare = ROOT / ".bench_build" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "paper_solve", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0, "bare directory: exit 0"
    assert '"metrics"' not in proc.stdout, "bare directory: printed a result"
    print("ok  bare directory refused")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            check_result(workload, trace, run(ROOT, workload, trace), expected)
    check_bare_directory()


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
