#!/usr/bin/env python3
"""Benchmark self-test: every count metric repeats exactly across two traced
runs at one seed.

    python3 perfbench/selftest.py

Runs ``run.py --trace 1`` twice per workload (a few minutes in total) and
exits nonzero on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads

RUN_TIMEOUT_S = 300
SEED = 3


def traced(workload, seed):
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_tables():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.COUNT_METRICS) <= set(run.LAYER)


def main():
    check_tables()
    for workload in workloads.WORKLOADS:
        first, second = traced(workload, SEED), traced(workload, SEED)
        for result in (first, second):
            assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
            assert set(result["metrics"]) == set(run.LAYER), f"{workload}: metric set differs"
        for name in run.COUNT_METRICS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} = {a} then {b}"
        if workload != "closed_loop":
            assert first["metrics"]["control.solve_calls_per_step"]["value"] == 0.0, workload
        counts = {n: first["metrics"][n]["value"] for n in run.COUNT_METRICS}
        print(f"{workload}: counts repeat exactly {json.dumps(counts, sort_keys=True)}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
