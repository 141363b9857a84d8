#!/usr/bin/env python3
"""Digest the traces, CSV exports and reports of the three benchmark workloads at one seed.

    python3 tools/trace_digests.py SEED > digests.txt

Builds the inputs of each workload of ``perfbench/workloads.py`` at SEED in
a temporary directory, and a fourth input, ``replay_lenient``: the replay
corpus with one malformed row, one blank line and one quoted cell, read in
lenient mode, so the row-by-row CSV reading is digested too.  Runs each
with the package under this checkout's ``src/``; then verifies its report
at ``tol=0`` and exports its traces as CSV.  Prints one ``workload/file
sha256`` line for every file of its run directory (each ``trace_*.hex``,
its ``trace_*.csv`` and ``report.json``), sorted, with the temporary
directory replaced by ``<work>`` in a report before it is hashed, and then
one ``workload verify (ok, problems)`` line per workload.  The outputs of two checkouts are compared with ``diff``:
equal outputs mean that every trace, export and report kept its bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from sgident import bench  # noqa: E402


# the replay input whose CSV only the row-by-row reading accepts: it skips and counts one row
LENIENT_REPLAY = "replay_lenient"


def prepare(name, seed, work_dir):
    """The inputs of workload ``name``, or of ``LENIENT_REPLAY``, built under ``work_dir``."""
    if name != LENIENT_REPLAY:
        return workloads.prepare(name, seed, work_dir)
    workload = workloads.prepare("replay", seed, work_dir)
    corpus = workload.overrides["data_path"]
    with open(corpus, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[3] = "x," + lines[3].split(",", 1)[1]  # a nonnumeric feature cell: skipped
    lines[5] = '"{}",{}'.format(*lines[5].split(",", 1))  # a quoted cell: read
    lines.insert(8, "\r\n")  # a blank line: no row
    with open(corpus, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(lines)
    workload.overrides["strict_csv"] = False
    return workload


def digest_workload(name, seed, work_dir):
    """The digest lines of workload ``name`` run under ``work_dir``, and its verify line."""
    workload = prepare(name, seed, work_dir)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = workload.apply(bench.load_config(workload.config_path))
        bench.run_experiment(cfg)
    out_dir = workload.overrides["out_dir"]
    verified = bench.verify_report(os.path.join(out_dir, "report.json"), tol=0)
    bench.export_csv(out_dir)
    lines = []
    for file in os.listdir(out_dir):
        data = Path(out_dir, file).read_bytes()
        if file == "report.json":
            data = data.replace(os.fsencode(work_dir), b"<work>")
        lines.append(f"{name}/{file} {hashlib.sha256(data).hexdigest()}")
    return lines, f"{name} verify {verified}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int, help="the workload seed, as perfbench/run.py --seed")
    args = parser.parse_args(argv)
    if Path(bench.__file__).resolve().parent != ROOT / "src" / "sgident":
        print(f"error: imported sgident from {bench.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    digests, verifies = [], []
    for name in (*workloads.WORKLOADS, LENIENT_REPLAY):
        with tempfile.TemporaryDirectory(prefix=f"digests-{name}-") as work_dir:
            lines, verified = digest_workload(name, args.seed, work_dir)
        digests += lines
        verifies.append(verified)
    print("\n".join(sorted(digests) + verifies))
    return 0


if __name__ == "__main__":
    sys.exit(main())
