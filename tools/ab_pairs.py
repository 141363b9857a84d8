#!/usr/bin/env python3
"""Run one benchmark workload from two checkouts as alternating pairs and compare them.

    python3 tools/ab_pairs.py --base BASE_DIR --change CHANGE_DIR --workload replay --pairs 10

Each run is ``perfbench/run.py --trace 0`` in a fresh process, started in
the root of its checkout, so it runs that checkout's ``src/``.  Pair i runs
the base first when i is even and the change first when it is odd, so a
drift of the host's speed falls on both sides.  ``--seconds`` (default: the
base's ``BENCHMARK.json`` ``run_seconds``) goes to every run.  For each
end-to-end metric of the base's ``BENCHMARK.json`` it prints each side's
median and quartiles and the number of pairs each side won, by the
metric's ``better`` direction; a tied pair counts for neither.  A run that
exits non-zero stops the comparison with its output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds):
    """The end-to-end metrics of one ``perfbench/run.py --trace 0`` run in ``checkout``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(command[1:])} exited {done.returncode}\n"
                 f"{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, so each side has quartiles")
    spec = json.loads((args.base / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, args.seed, seconds))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} alternating pairs, "
          f"--seconds {seconds:g}")
    print(f"{'metric':<18} {'better':<7} {'base median [q1, q3]':<38} "
          f"{'change median [q1, q3]':<38} wins base/change")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        columns = []
        for side in ("base", "change"):
            values = [run[name] for run in runs[side]]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            columns.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
        pairs = [(b[name], c[name]) for b, c in zip(runs["base"], runs["change"])]
        base_wins = sum(sign * (b - c) > 0 for b, c in pairs)
        change_wins = sum(sign * (c - b) > 0 for b, c in pairs)
        print(f"{name:<18} {metric['better']:<7} {columns[0]:<38} {columns[1]:<38} "
              f"{base_wins}/{change_wins}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
