#!/usr/bin/env python3
"""sgident benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 10 --trace 0

Each workload drives the same public calls the CLI makes (``load_config`` ->
``run_experiment`` -> ``verify_report``) against the package under ``src/``.
With ``--trace 0`` the sweep is repeated while another repetition is
expected to end within ``--seconds`` (at least twice) and the end-to-end
metrics are printed as medians over the repetitions.  With ``--trace 1``
one untraced and one traced repetition run at the same seed (``--seconds``
is not used) and the per-layer metrics come from the traced one.

Every repetition is gated: ``verify_report`` must return ``(True, [])`` and
the sha256 of every trace and of ``report.json`` must match the first
repetition.  The last stdout line is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every operation passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MIN_REPS = 2
SETUP_SAMPLES = 10
SETUP_TIMEOUT_S = 60
VERIFY_MIN_S = 2.0

# metric names and units, in the order BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# per-layer metrics built only from exact counts; they must repeat exactly
COUNT_METRICS = (
    "control.solve_calls_per_step",
    "control.link_evals_per_solve",
    "control.solve_flagged_ratio",
    "control.noise_draws_per_step",
    "sg.errors",
    "core.wrappers_per_step",
    "core.validations_per_step",
    "models.link_evals_per_step",
    "models.loss_evals_per_step",
    "bench.trace_bytes_per_row",
)

# Each runs in a fresh interpreter and prints its seconds.  SETUP_CHILD times
# import + load_config.  YARDSTICK_CHILD imports the third-party packages
# sgident needs, without sgident, so the ratio of a pair cancels how fast
# the host imports at that moment; most of set-up is these imports.
SETUP_CHILD = """
import sys, time, warnings
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import sgident
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    sgident.load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""
YARDSTICK_CHILD = """
import time
t0 = time.perf_counter()
import numpy, scipy.special
print(repr(time.perf_counter() - t0))
"""
YARDSTICK_REFERENCE_S = 0.35  # yardstick import time on the reference host


@dataclass
class Rep:
    """One load_config -> run_experiment -> verify_report repetition.

    ``*_ref_s`` are the same intervals rescaled to the reference host speed.
    """

    run_s: float = 0.0
    run_ref_s: float = 0.0
    verify_s: float = 0.0
    verify_ref_s: float = 0.0
    verifications: list = field(default_factory=list)  # (ok, problems) per verify_report call
    all_pass: bool | None = None
    traces: dict = field(default_factory=dict)  # trace name -> (sha256, rows, bytes)
    report_digest: str = ""
    error: str = ""

    @property
    def rows(self):
        return sum(rows for _, rows, _ in self.traces.values())

    @property
    def trace_bytes(self):
        return sum(size for _, _, size in self.traces.values())


def _digest(path):
    h = hashlib.sha256()
    rows = -1  # header line
    with open(path, "rb") as fh:
        for line in fh:
            h.update(line)
            rows += 1
    return h.hexdigest(), rows, os.path.getsize(path)


def _verify_repeatedly(verify_fn, report_path, min_s):
    # verify_report is read-only, so short verifications repeat until min_s
    outcomes = []
    t0 = time.perf_counter()
    while not outcomes or time.perf_counter() - t0 < min_s:
        outcomes.append(verify_fn(report_path))
    return outcomes


def run_once(bench, workload, watch, run_fn, verify_fn, verify_min_s=VERIFY_MIN_S):
    out_dir = workload.overrides["out_dir"]
    shutil.rmtree(out_dir, ignore_errors=True)
    rep = Rep()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = workload.apply(bench.load_config(workload.config_path))
        report, rep.run_s, rep.run_ref_s = watch.time(run_fn, cfg)
        rep.verifications, rep.verify_s, rep.verify_ref_s = watch.time(
            _verify_repeatedly, verify_fn, report.path, verify_min_s
        )
    except Exception as exc:  # a failed repetition is counted, not fatal
        rep.error = f"{type(exc).__name__}: {exc}"
        return rep
    rep.all_pass = report.data["checks_overall"]["all_pass"]
    for by_seed in report.data["runs"].values():
        for summary in by_seed.values():
            rep.traces[summary["trace"]] = _digest(os.path.join(out_dir, summary["trace"]))
    rep.report_digest = _digest(report.path)[0]
    return rep


def gate(reps, cells, rows_per_cell):
    """Count (attempted, failed, notes) over repetitions; the first is the reference.

    One operation is one (algorithm, seed) cell or one verify_report call.
    """
    ref = reps[0]
    attempted = failed = 0
    notes = []
    for i, rep in enumerate(reps):
        verifications = max(1, len(rep.verifications))
        attempted += cells + verifications
        if rep.error:
            failed += cells + verifications
            notes.append(f"rep {i}: raised {rep.error}")
            continue
        if len(rep.traces) != cells:
            failed += cells - len(rep.traces)
            notes.append(f"rep {i}: {len(rep.traces)} traces for {cells} cells")
        for name, (digest, rows, _) in rep.traces.items():
            if ref.error or ref.traces.get(name, ("",))[0] != digest or rows != rows_per_cell:
                failed += 1
                notes.append(f"rep {i}: trace {name} differs from rep 0 or has {rows} rows")
        for ok, problems in rep.verifications:
            if ok is not True or problems != [] or ref.error or rep.report_digest != ref.report_digest:
                failed += 1
                notes.append(f"rep {i}: verify_report {problems[:3]} or report digest differs from rep 0")
    return attempted, failed, notes


def setup_seconds(config_path):
    """Median import + load_config time over fresh interpreters: (wall, reference).

    Each sample is followed by a yardstick import; the reference value is the
    median sample / yardstick ratio times ``YARDSTICK_REFERENCE_S``.
    """

    def child(*args):
        done = subprocess.run(
            [sys.executable, "-c", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        return float(done.stdout)

    wall, ratio = [], []
    for _ in range(SETUP_SAMPLES):
        seconds = child(SETUP_CHILD, str(SRC), config_path)
        wall.append(seconds)
        ratio.append(seconds / child(YARDSTICK_CHILD))
    return statistics.median(wall), statistics.median(ratio) * YARDSTICK_REFERENCE_S


def timed_metrics(bench, workload, seconds):
    """End-to-end metrics: medians over repetitions, at reference host speed."""
    setup_wall, setup_ref = setup_seconds(workload.config_path)
    watch = hostspeed.Stopwatch()
    reps = []
    t0 = time.perf_counter()
    # start another repetition only if one of mean length still ends within budget
    while len(reps) < MIN_REPS or (time.perf_counter() - t0) * (len(reps) + 1) / len(reps) <= seconds:
        reps.append(run_once(bench, workload, watch, bench.run_experiment, bench.verify_report))
    good = [r for r in reps if not r.error]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    metrics = {
        "setup_s": setup_ref,
        "run_steps_per_s": median(r.rows / r.run_ref_s for r in good),
        "verify_rows_per_s": median(len(r.verifications) * r.rows / r.verify_ref_s for r in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {
        "setup_s": setup_wall,
        "run_steps_per_s": median(r.rows / r.run_s for r in good),
        "verify_rows_per_s": median(len(r.verifications) * r.rows / r.verify_s for r in good),
    }
    return metrics, reps, {"wall_clock": wall, "kernel_rate_min_median_max": _spread(watch.rates)}


def _spread(rates):
    return [round(min(rates)), round(statistics.median(rates)), round(max(rates))]


def traced_metrics(bench, workload):
    """Per-layer metrics from one traced repetition, after one untraced one."""
    watch = hostspeed.Stopwatch(sample_during=False)
    base = run_once(bench, workload, watch, bench.run_experiment, bench.verify_report, 0.0)
    rec = tracer.SpanRecorder()
    tracer.install(rec, tracer.sgident_modules())
    try:
        traced = run_once(
            bench,
            workload,
            watch,
            rec.wrap("bench.run_experiment", bench.run_experiment),
            rec.wrap("bench.verify_report", bench.verify_report),
            0.0,
        )
    finally:
        rec.restore()
    rec.save(WORK / f"spans_{workload.name}.npz")
    metrics = layer_metrics(rec, traced)
    if base.rows and traced.rows:
        metrics["trace.overhead_share"] = 1.0 - base.run_ref_s / traced.run_ref_s
    return metrics, [base, traced], {"kernel_rate_min_median_max": _spread(watch.rates)}


def layer_metrics(rec, rep):
    """Per-layer numbers from the traced repetition's spans.

    Shares are self time over the wall time of ``run_experiment`` (or of
    ``verify_report`` for the verify-side shares); per-step counts divide by
    the estimator steps of the traced run.
    """
    out = dict.fromkeys(LAYER, 0.0)
    names, nid, parent, start, end, self_ns = rec.spans()
    ids = {n: i for i, n in enumerate(names)}
    # a repetition that raised is counted by gate(); its spans are incomplete
    if rep.error or not (nid == ids["bench.verify_report"]).any():
        return out
    dur = end - start
    # spans are stored in start order, so each phase is one index range
    run_root = int(np.flatnonzero(nid == ids["bench.run_experiment"])[0])
    verify_root = int(np.flatnonzero(nid == ids["bench.verify_report"])[0])
    in_run = np.zeros(len(nid), dtype=bool)
    in_run[run_root:verify_root] = True
    in_verify = np.zeros(len(nid), dtype=bool)
    in_verify[verify_root:] = True
    run_wall, verify_wall = float(dur[run_root]), float(dur[verify_root])

    def sel(*span_names, phase=in_run):
        return np.isin(nid, [ids[n] for n in span_names if n in ids]) & phase

    def per(num, den):
        return float(num) / den if den else 0.0

    def pct(mask, q):
        return float(np.percentile(dur[mask], q)) / 1e3 if mask.any() else 0.0

    def mean_us(mask):
        return float(dur[mask].mean()) / 1e3 if mask.any() else 0.0

    steps = int(sel("sg.step").sum())
    solve = sel("control.solve")
    n_solve = int(solve.sum())
    links = sel("models.link", "models.dlink")
    child_of_solve = (parent >= 0) & solve[np.maximum(parent, 0)]
    draw = sel("control.noise_draw")
    uniform = sel("control.noise_uniform")
    outer_noise = draw | (uniform & ~((parent >= 0) & draw[np.maximum(parent, 0)]))
    step = sel("sg.step")
    model_spans = sel("models.link", "models.dlink", "models.eval", "models.grad",
                      "models.loss_eval", "models.loss_grad_x")
    wrappers = sel("core.ParameterVector", "core.Regressor", "core.GainState", "core.EstimatorState")
    ingest = sel("bench.ingest")
    write = sel("bench.write_trace")
    read = sel("bench.read_trace", phase=in_verify)
    metric_fns = [n for n in names if n.startswith("metrics.")]

    out.update({
        "control.solve_calls_per_step": per(n_solve, steps),
        "control.solve_us_p50": pct(solve, 50),
        "control.solve_us_p99": pct(solve, 99),
        "control.solve_self_share": per(self_ns[solve].sum(), run_wall),
        "control.link_evals_per_solve": per((links & child_of_solve).sum(), n_solve),
        "control.solve_flagged_ratio": per(rec.counters["control.solve_flagged"], n_solve),
        "control.noise_draws_per_step": per(uniform.sum(), steps),
        "control.noise_us_mean": mean_us(outer_noise),
        "sg.step_us_p50": pct(step, 50),
        "sg.step_us_p99": pct(step, 99),
        "sg.self_share": per(self_ns[step].sum(), run_wall),
        "sg.errors": float(rec.errors["sg.step"]),
        "core.wrappers_per_step": per(wrappers.sum(), steps),
        "core.validations_per_step": per(sel("core.as_values").sum(), steps),
        "models.link_evals_per_step": per(links.sum(), steps),
        "models.link_us_mean": mean_us(links),
        "models.loss_evals_per_step": per(sel("models.loss_eval", "models.loss_grad_x").sum(), steps),
        "models.self_share": per(self_ns[model_spans].sum(), run_wall),
        "bench.ingest_rows_per_s": per(rec.counters["bench.ingest"], dur[ingest].sum() / 1e9),
        "bench.ingest_self_share": per(self_ns[ingest].sum(), run_wall),
        "bench.write_trace_rows_per_s": per(rec.counters["bench.rows_written"], dur[write].sum() / 1e9),
        "bench.write_trace_self_share": per(self_ns[write].sum(), run_wall),
        "bench.read_trace_rows_per_s": per(rec.counters["bench.rows_read"], dur[read].sum() / 1e9),
        "bench.read_share_of_verify": per(dur[read].sum(), verify_wall),
        "bench.trace_bytes_per_row": per(rep.trace_bytes, rep.rows),
        "bench.run_self_share": per(self_ns[run_root], run_wall),
        "metrics.run_self_share": per(self_ns[sel(*metric_fns)].sum(), run_wall),
        "metrics.verify_self_share": per(self_ns[sel(*metric_fns, phase=in_verify)].sum(), verify_wall),
    })
    return out


def loadavg():
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().split()[:3]


def machine_context():
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": loadavg(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be a non-negative 63-bit integer")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sgident" / "__init__.py").is_file():
        print(f"error: no sgident package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sgident
    from sgident import bench

    if Path(sgident.__file__).resolve().parent != SRC / "sgident":
        print(f"error: imported sgident from {sgident.__file__}, not {SRC}", file=sys.stderr)
        return 2

    context = machine_context()
    work_dir = WORK / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = workloads.prepare(args.workload, args.seed, str(work_dir))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = workload.apply(bench.load_config(workload.config_path))
    cells = len(cfg.algorithms) * (1 if cfg.mode == "replay" else len(cfg.seeds))

    if args.trace:
        metrics, reps, extra = traced_metrics(bench, workload)
        units = LAYER
    else:
        metrics, reps, extra = timed_metrics(bench, workload, args.seconds)
        units = E2E
    attempted, failed, notes = gate(reps, cells, cfg.n_steps)
    shutil.rmtree(workload.overrides["out_dir"], ignore_errors=True)

    context["loadavg_end"] = loadavg()
    context.update(workload=args.workload, seed=args.seed, trace=args.trace, repetitions=len(reps),
                   checks_overall_all_pass=[r.all_pass for r in reps],
                   run_s=[round(r.run_s, 4) for r in reps], verify_s=[round(r.verify_s, 4) for r in reps],
                   **extra)
    for note in notes:
        print(f"FAIL {note}")
    print("context " + json.dumps(context, sort_keys=True))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(WORK / f"result_{args.workload}_trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "context": context}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
