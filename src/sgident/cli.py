"""Command-line entry points for running, comparing and exporting experiments.

Exit codes: 0 when every enabled check passes, 2 when a check fails,
1 on usage and configuration/data/runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (
    _int_list,
    check_seeds,
    compare_runs,
    export_csv,
    load_config,
    render_comparison,
    run_experiment,
)
from .errors import SgidentError
from .models import catalog_pair, verify_assumption2

PASS, FAIL, ERROR = 0, 2, 1


class _Parser(argparse.ArgumentParser):
    """Exits ERROR on a usage error, where argparse exits 2, the code of a failed check."""

    def error(self, message):
        self.exit(ERROR, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _seeds(raw):
    """``--seeds`` through the config's own list parser; argparse prints its message as is."""
    try:
        return _int_list(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {raw!r}") from None


def _add_run_command(sub, name, help_text, with_data=False):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--seeds", type=_seeds, default=None, help="comma-separated seed override")
    p.add_argument("--out", default=None, help="output directory override")
    if with_data:
        p.add_argument("--data", default=None, help="dataset CSV (overrides replay.data)")
        p.add_argument("--strict-csv", action="store_true", default=None, help="reject malformed rows instead of skipping")
    return p


def build_parser():
    parser = _Parser(
        prog="sgident",
        description="streaming identification, adaptive tracking control, and prequential replay benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_command(sub, "identify", "streaming identification on sampled regressors")
    _add_run_command(sub, "control", "certainty-equivalence tracking on the simulated lag plant")
    _add_run_command(sub, "replay", "prequential replay over a CSV dataset", with_data=True)

    cmp_p = sub.add_parser("compare", help="side-by-side metrics for two run reports")
    cmp_p.add_argument("report_a")
    cmp_p.add_argument("report_b")

    exp_p = sub.add_parser("export-csv", help="render a run directory's traces as decimal CSV")
    exp_p.add_argument("run_dir")

    va = sub.add_parser("verify-assumption2", help="sampled check of the weak-convexity inequalities")
    va.add_argument("--pair", required=True, help="catalog pair name")
    va.add_argument("--samples", type=int, default=100_000)
    va.add_argument("--seed", type=int, default=0)
    va.add_argument("--delta", type=float, default=None, help="override the declared curvature floor")
    va.add_argument("--c1", type=float, default=None)
    va.add_argument("--c2", type=float, default=None)
    return parser


def _run_mode(args, expected_mode):
    cfg = load_config(args.config)
    if cfg.mode != expected_mode:
        raise SgidentError(
            f"config mode is {cfg.mode!r} but the {expected_mode} command was invoked"
        )
    if args.seeds is not None:
        cfg.seeds = check_seeds(args.seeds, "--seeds")
    if args.out is not None:
        cfg.out_dir = args.out
    if getattr(args, "data", None) is not None:
        cfg.data_path = args.data
    if getattr(args, "strict_csv", None):
        cfg.strict_csv = True
    report = run_experiment(cfg)
    checks = report.data["checks_overall"]
    for name in sorted(k for k in checks if k != "all_pass"):
        print(f"check {name}: {'PASS' if checks[name] else 'FAIL'}")
    print(f"report: {report.path}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return PASS if report.passed else FAIL


def _compare(args):
    table = compare_runs(args.report_a, args.report_b)
    print(render_comparison(table))
    return PASS


def _export_csv(args):
    for path in export_csv(args.run_dir):
        print(f"wrote {path}")
    return PASS


def _verify_assumption2(args):
    pair, sampler = catalog_pair(args.pair)
    report = verify_assumption2(
        pair,
        sampler,
        n_samples=args.samples,
        seed=args.seed,
        delta=args.delta,
        c1=args.c1,
        c2=args.c2,
    )
    print(report.summary())
    return PASS if report.passed else FAIL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("identify", "control", "replay"):
            return _run_mode(args, args.command)
        if args.command == "compare":
            return _compare(args)
        if args.command == "export-csv":
            return _export_csv(args)
        return _verify_assumption2(args)
    except SgidentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.context:
            print(f"context: {json.dumps(exc.json_context(), sort_keys=True)}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
