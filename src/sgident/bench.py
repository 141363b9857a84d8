"""Experiment orchestration: configs, seed sweeps, traces, reports.

A run is fully determined by (config file, seed list): every persisted trace
byte and every report number is reproducible, and `verify_report` recomputes
each reported number from the persisted traces independently.  Configs are
INI-style text, traces RFC-4180 CSV with a fixed column order, reports JSON
with sorted keys and no timestamps.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .control import ControlConfig, NoiseSource, Plant, StepRecord, run_closed_loop
from .core import HyperParams, Regressor, check_step_size_cap, kahan_add
from .errors import ConfigurationError, DataError, NumericError, SgidentError
from .metrics import (
    bound_curve,
    minimum_phase_ratio,
    relative_error_metric,
    robbins_siegmund_diag,
)
from .models import (
    ModelLossPair,
    SaturatedMeanModel,
    SaturationSpec,
    SquaredError,
    catalog_pair,
    tanh_mse_pair,
)
from .sg import DIVERGENCE_NORM, classical_sg_step, sg_init, sg_step

__all__ = [
    "TRACE_COLUMNS",
    "ExperimentConfig",
    "RunReport",
    "preset_path",
    "load_config",
    "ingest_csv",
    "CsvStream",
    "write_trace",
    "read_trace",
    "run_experiment",
    "compare_runs",
    "render_comparison",
    "verify_report",
]

TRACE_COLUMNS = [
    "k",
    "y",
    "u",
    "y_star",
    "f_true",
    "f_est",
    "loss",
    "regret_avg",
    "theta_err",
    "mu_k",
    "r_k",
    "flags",
]

MODES = ("identify", "control", "replay")
ALGORITHMS = {"modified": sg_step, "classical": classical_sg_step}
GRADIENT_NOISE_TOL = 1e-12
RECOMPUTE_TOL = 1e-9


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    mode: str
    algorithms: tuple
    hyper: HyperParams
    n_steps: int
    seeds: tuple
    out_dir: str
    alpha_eps: float = 0.5
    pair_name: str = ""
    pair: ModelLossPair | None = None
    sampler: object = None
    theta_star: np.ndarray | None = None
    theta0: np.ndarray | None = None
    noise_kind: str = "gaussian"
    noise_std: float = 1.0
    noise_df: float | None = None
    control: ControlConfig | None = None
    p: int = 0
    q: int = 0
    operating_bound: float | None = None
    data_path: str | None = None
    features: tuple = ()
    target_col: str = ""
    strict_csv: bool = False
    caveats: list = field(default_factory=list)


def preset_path(name):
    """Filesystem path of a bundled preset config (e.g. "paper_sim.cfg")."""
    from importlib import resources

    path = resources.files(__package__) / "presets" / name
    if not path.is_file():
        raise ConfigurationError(f"no bundled preset named {name!r}")
    return str(path)


_MISSING = object()


def _get(cp, section, key, cast=str, default=_MISSING):
    if not cp.has_option(section, key):
        if default is _MISSING:
            raise ConfigurationError(f"{section}.{key}: required key is missing")
        return default
    raw = cp.get(section, key).strip()
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{section}.{key}: cannot parse {raw!r} ({exc})") from None


def _float_list(raw):
    return np.array([float(x) for x in raw.split(",") if x.strip() != ""])


def _int_list(raw):
    return tuple(int(x) for x in raw.split(",") if x.strip() != "")


def _str_list(raw):
    return tuple(x.strip() for x in raw.split(",") if x.strip() != "")


def _bool(raw):
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def load_config(path) -> ExperimentConfig:
    """Parse and validate an INI experiment config; violations name section.key."""
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error in {path}: {exc}") from None
    if not read:
        raise ConfigurationError(f"config file unreadable: {path}")

    mode = _get(cp, "experiment", "mode")
    if mode not in MODES:
        raise ConfigurationError(f"experiment.mode: must be one of {MODES}, got {mode!r}")
    algorithms = _get(cp, "experiment", "algorithms", _str_list, ("modified",))
    if not algorithms:
        raise ConfigurationError("experiment.algorithms: must list at least one algorithm")
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ConfigurationError(
                f"experiment.algorithms: unknown algorithm {algo!r}; "
                f"choose from {sorted(ALGORITHMS)}"
            )
    n_steps = _get(cp, "experiment", "n_steps", int)
    if n_steps < 1:
        raise ConfigurationError(f"experiment.n_steps: must be >= 1, got {n_steps}")
    seeds = _get(cp, "experiment", "seeds", _int_list)
    if not seeds:
        raise ConfigurationError("experiment.seeds: must list at least one seed")
    for s in seeds:
        if not (0 <= s < 2**64):
            raise ConfigurationError(f"experiment.seeds: seed {s} outside unsigned 64-bit range")
    default_out = os.path.join("runs", os.path.splitext(os.path.basename(path))[0])
    out_dir = _get(cp, "experiment", "out_dir", str, default_out)

    try:
        hyper = HyperParams(
            mu=_get(cp, "hyper", "mu", float),
            beta1=_get(cp, "hyper", "beta1", float),
            beta2=_get(cp, "hyper", "beta2", float),
            beta3=_get(cp, "hyper", "beta3", float),
            alpha_moment=_get(cp, "hyper", "alpha_moment", float, 4.0),
            outside_theorem_regime=_get(cp, "hyper", "outside_theorem_regime", _bool, False),
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"hyper: {exc}") from None
    alpha_eps = _get(cp, "hyper", "alpha_eps", float, 0.5)
    if not (0.0 < alpha_eps < 1.0):
        raise ConfigurationError(f"hyper.alpha_eps: must lie in (0,1), got {alpha_eps}")

    cfg = ExperimentConfig(
        mode=mode,
        algorithms=algorithms,
        hyper=hyper,
        n_steps=n_steps,
        seeds=seeds,
        out_dir=out_dir,
        alpha_eps=alpha_eps,
    )

    if mode in ("identify", "control"):
        _load_plant_section(cp, cfg)
    if mode == "control":
        _load_control_section(cp, cfg)
    if mode == "replay":
        _load_replay_section(cp, cfg)

    _apply_cap_policy(cfg)
    return cfg


def _load_plant_section(cp, cfg):
    if cfg.mode == "control":
        cfg.p = _get(cp, "model", "p", int)
        cfg.q = _get(cp, "model", "q", int)
        cfg.operating_bound = _get(cp, "model", "operating_bound", float, 1.0)
        cfg.pair_name = _get(cp, "model", "pair", str, "tanh_mse")
        if cfg.pair_name != "tanh_mse":
            raise ConfigurationError(
                f"model.pair: control mode drives the tanh lag model; got {cfg.pair_name!r}"
            )
        cfg.pair = tanh_mse_pair(cfg.p, cfg.q, m_bound=cfg.operating_bound)
    else:
        cfg.pair_name = _get(cp, "model", "pair")
        cfg.pair, cfg.sampler = catalog_pair(cfg.pair_name)
    dim = cfg.pair.predictor.dim
    cfg.theta_star = _get(cp, "plant", "theta_star", _float_list)
    if cfg.theta_star.size != dim:
        raise ConfigurationError(
            f"plant.theta_star: expected {dim} entries for pair "
            f"{cfg.pair_name!r}, got {cfg.theta_star.size}"
        )
    cfg.theta0 = _get(cp, "plant", "theta0", _float_list, np.zeros(dim))
    if cfg.theta0.size != dim:
        raise ConfigurationError(
            f"plant.theta0: expected {dim} entries, got {cfg.theta0.size}"
        )
    cfg.noise_kind = _get(cp, "plant", "noise_kind", str, "gaussian")
    cfg.noise_std = _get(cp, "plant", "noise_std", float, 1.0)
    cfg.noise_df = _get(cp, "plant", "noise_df", float, None)
    try:
        NoiseSource(std=cfg.noise_std, seed=0, kind=cfg.noise_kind, df=cfg.noise_df)
    except ConfigurationError as exc:
        raise ConfigurationError(f"plant: {exc}") from None


def _load_control_section(cp, cfg):
    try:
        cfg.control = ControlConfig(
            y_target=_get(cp, "control", "y_target", float, 0.5),
            u_max=_get(cp, "control", "u_max", float, 1e3),
            b_eps=_get(cp, "control", "b_eps", float, 1e-8),
            root_tol=_get(cp, "control", "root_tol", float, 1e-10),
            root_max_iter=_get(cp, "control", "root_max_iter", int, 200),
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"control: {exc}") from None


def _load_replay_section(cp, cfg):
    cfg.features = _get(cp, "replay", "features", _str_list)
    if not cfg.features:
        raise ConfigurationError("replay.features: must list at least one column")
    cfg.target_col = _get(cp, "replay", "target")
    cfg.data_path = _get(cp, "replay", "data", str, None)
    cfg.strict_csv = _get(cp, "replay", "strict_csv", _bool, False)
    d = len(cfg.features)
    cfg.pair_name = _get(cp, "replay", "pair", str, "saturation")
    if cfg.pair_name == "saturation":
        spec = SaturationSpec(
            lower=_get(cp, "replay", "lower", float),
            upper=_get(cp, "replay", "upper", float),
            noise_std=_get(cp, "replay", "noise_std", float, 1.0),
        )
        predictor = SaturatedMeanModel(spec, d)
        note = (
            "censored-mean pair used without declared convexity constants; "
            "step-size cap not enforced"
        )
        cfg.pair = ModelLossPair(predictor, SquaredError(), operating_note=note)
    elif cfg.pair_name == "linear_mse":
        from .models import LinearModel

        cfg.pair = ModelLossPair(LinearModel(d), SquaredError())
    else:
        raise ConfigurationError(
            f"replay.pair: supported pairs are 'saturation' and 'linear_mse', "
            f"got {cfg.pair_name!r}"
        )
    cfg.theta0 = _get(cp, "replay", "theta0", _float_list, np.zeros(d))
    if cfg.theta0.size != d:
        raise ConfigurationError(f"replay.theta0: expected {d} entries, got {cfg.theta0.size}")


def _apply_cap_policy(cfg):
    if cfg.pair is None:
        return
    if cfg.pair.declares_constants():
        check_step_size_cap(cfg.hyper, cfg.pair)  # raises ConfigurationError on violation
    else:
        msg = (
            f"pair {cfg.pair_name!r} declares no convexity constants; the step-size "
            f"cap mu < min(1, 2*delta/c1) cannot be checked, proceeding with mu={cfg.hyper.mu}"
        )
        warnings.warn(msg)
        cfg.caveats.append(msg)
    if cfg.pair.operating_note and cfg.pair.operating_note not in cfg.caveats:
        cfg.caveats.append(cfg.pair.operating_note)


# ---------------------------------------------------------------------------
# dataset ingestion


class CsvStream:
    """Ordered single-pass stream of (Regressor, target) rows from a CSV file.

    A row is malformed when a used cell is nonnumeric or non-finite (nan,
    inf).  Strict mode raises on the first malformed row (with its line
    number); lenient mode skips malformed rows and counts them.
    `rows_yielded` counts accepted rows only; it and `skipped` are final
    once iteration completes.
    """

    def __init__(self, path, column_map, strict=False, max_rows=None):
        self.path = path
        self.strict = bool(strict)
        self.max_rows = max_rows
        self.rows_yielded = 0
        self.skipped = 0
        self.skipped_lines = []
        try:
            self.features = tuple(column_map["features"])
            self.target = column_map["target"]
        except (KeyError, TypeError):
            raise ConfigurationError(
                "column_map must provide 'features' (list) and 'target' (name)"
            ) from None
        if not os.path.exists(path):
            raise DataError(f"dataset not found: {path}")
        self._consumed = False

    def __iter__(self):
        if self._consumed:
            raise DataError(f"stream over {self.path} is single-pass and already consumed")
        self._consumed = True
        with open(self.path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"empty file (no header): {self.path}")
            missing = [c for c in (*self.features, self.target) if c not in reader.fieldnames]
            if missing:
                raise DataError(f"missing column(s) {missing} in {self.path}")
            for row in reader:
                if self.max_rows is not None and self.rows_yielded >= self.max_rows:
                    break
                line = reader.line_num
                try:
                    values = [float(row[c]) for c in self.features]
                    target = float(row[self.target])
                except (TypeError, ValueError):
                    problem = "nonnumeric"
                else:
                    finite = math.isfinite(target) and all(map(math.isfinite, values))
                    problem = None if finite else "non-finite"
                if problem is not None:
                    if self.strict:
                        raise DataError(f"{problem} cell in {self.path}", line=line)
                    self.skipped += 1
                    if len(self.skipped_lines) < 10:
                        self.skipped_lines.append(line)
                    continue
                phi = Regressor(values)
                self.rows_yielded += 1
                yield phi, target


def ingest_csv(path, column_map, strict=False, max_rows=None) -> CsvStream:
    """Open a CSV of feature/target columns as a stream of (Regressor, target)."""
    return CsvStream(path, column_map, strict=strict, max_rows=max_rows)


# ---------------------------------------------------------------------------
# trace persistence


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def write_trace(path, records):
    """Persist step records as RFC-4180 CSV (CRLF, fixed column order)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(TRACE_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.k,
                    _fmt(rec.y),
                    _fmt(rec.u),
                    _fmt(rec.y_star),
                    _fmt(rec.f_true),
                    _fmt(rec.f_est),
                    _fmt(rec.loss),
                    _fmt(rec.regret_avg),
                    _fmt(rec.theta_err),
                    _fmt(rec.mu_k),
                    _fmt(rec.r_k),
                    rec.flags,
                ]
            )


def read_trace(path):
    """Load a trace CSV back into StepRecord objects (extras stay None)."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"empty trace file: {path}")
        if header != TRACE_COLUMNS:
            raise DataError(f"unexpected trace header in {path}: {header}")
        for row in reader:
            if len(row) != len(TRACE_COLUMNS):
                raise DataError(f"malformed trace row in {path}", line=reader.line_num)
            vals = [None if cell == "" else float(cell) for cell in row[1:11]]
            records.append(
                StepRecord(
                    k=int(row[0]),
                    y=vals[0],
                    u=vals[1],
                    y_star=vals[2],
                    f_true=vals[3],
                    f_est=vals[4],
                    loss=vals[5],
                    regret_avg=vals[6],
                    theta_err=vals[7],
                    mu_k=vals[8],
                    r_k=vals[9],
                    flags=row[11],
                )
            )
    return records


# ---------------------------------------------------------------------------
# single runs


def sampler_bit_generator(seed):
    """Philox stream for identify-mode regressors: key (seed, 1).

    ``NoiseSource(seed)`` keys Philox with (seed, 0); the second key word
    keeps the regressors and the noise on independent streams.
    """
    return np.random.Philox(key=[int(seed), 1])


def _run_identify(cfg, algo, seed):
    """Streaming identification on sampled regressors with a known truth."""
    step_fn = ALGORITHMS[algo]
    pair = cfg.pair
    model = pair.predictor
    theta_star = cfg.theta_star
    rng = np.random.Generator(sampler_bit_generator(seed))
    phi_rows = cfg.sampler(rng, cfg.n_steps)[0]
    noise = NoiseSource(std=cfg.noise_std, seed=seed, kind=cfg.noise_kind, df=cfg.noise_df)
    bernoulli = pair.loss.name == "cross_entropy"

    state = sg_init(cfg.theta0, cfg.hyper)
    loss = pair.loss
    total, carry = 0.0, 0.0
    records = []
    for k in range(cfg.n_steps):
        phi = phi_rows[k]
        f_true = float(model.eval(phi, theta_star))
        if bernoulli:
            w = None
            y = 1.0 if noise.draw_uniform() < f_true else 0.0
        else:
            w = noise.draw()
            y = f_true + w
        f_est = float(model.eval(phi, state.theta.values))
        theta_err = float(np.linalg.norm(state.theta.values - theta_star))
        state = step_fn(state, pair, phi, y)
        flags = "divergence" if state.theta.norm() > DIVERGENCE_NORM else ""
        inc = float(loss.eval(f_true, f_est)) - float(loss.eval(f_true, f_true))
        total, carry = kahan_add(total, carry, inc)
        records.append(
            StepRecord(
                k=k,
                y=float(y),
                y_star=None,
                u=None,
                f_true=f_true,
                f_est=f_est,
                loss=float(loss.eval(y, f_est)),
                regret_avg=total / (k + 1),
                theta_err=theta_err,
                mu_k=state.last_mu,
                r_k=state.gain.r,
                flags=flags,
                w=w,
                grad_norm_sq=state.last_grad_norm_sq,
            )
        )
    return records


def _run_control(cfg, algo, seed):
    step_fn = ALGORITHMS[algo]
    plant = Plant(
        model=cfg.pair.predictor,
        theta_star=cfg.theta_star,
        noise=NoiseSource(std=cfg.noise_std, seed=seed, kind=cfg.noise_kind, df=cfg.noise_df),
    )
    estimator = sg_init(cfg.theta0, cfg.hyper)
    return run_closed_loop(plant, estimator, cfg.pair, cfg.control, cfg.n_steps, seed, step_fn=step_fn)


def _load_replay_rows(cfg):
    if not cfg.data_path:
        raise ConfigurationError("replay mode needs a dataset (replay.data or --data)")
    stream = ingest_csv(
        cfg.data_path,
        {"features": list(cfg.features), "target": cfg.target_col},
        strict=cfg.strict_csv,
        max_rows=cfg.n_steps,
    )
    rows = [(phi.values, y) for phi, y in stream]
    if not rows:
        raise DataError(f"no usable rows in {cfg.data_path}")
    return rows, stream


def _run_replay(cfg, algo, rows):
    """Prequential pass: predict each target before updating on it."""
    step_fn = ALGORITHMS[algo]
    pair = cfg.pair
    model = pair.predictor
    loss = pair.loss
    state = sg_init(cfg.theta0, cfg.hyper)
    records = []
    predictions = np.empty(len(rows))
    targets = np.empty(len(rows))
    for k, (phi, y) in enumerate(rows):
        f_est = float(model.eval(phi, state.theta.values))
        predictions[k] = f_est
        targets[k] = y
        state = step_fn(state, pair, phi, y)
        flags = "divergence" if state.theta.norm() > DIVERGENCE_NORM else ""
        records.append(
            StepRecord(
                k=k,
                y=float(y),
                f_est=f_est,
                loss=float(loss.eval(y, f_est)),
                mu_k=state.last_mu,
                r_k=state.gain.r,
                flags=flags,
                grad_norm_sq=state.last_grad_norm_sq,
            )
        )
    return records, predictions, targets


# ---------------------------------------------------------------------------
# per-run summaries and checks


def _flag_counts(records):
    counts = {"saturated": 0, "singular_gain": 0, "divergence": 0}
    for rec in records:
        if not rec.flags:
            continue
        for f in rec.flags.split(";"):
            if f in counts:
                counts[f] += 1
    return counts


def _rs_fields(records):
    rep = robbins_siegmund_diag(records)
    return {"rs_total": rep.total, "rs_tail_fraction": rep.tail_fraction}


def _step_size_law_max(records):
    worst = 0.0
    for rec in records:
        worst = max(worst, rec.mu_k * rec.grad_norm_sq)
    return worst


def _summarize_identification(cfg, records):
    out = {
        "final_average_regret": records[-1].regret_avg,
        "final_theta_err": records[-1].theta_err,
        "step_size_law_max": _step_size_law_max(records),
    }
    if len(records) >= 500:
        out["average_regret_at_500"] = records[499].regret_avg
    out.update(_rs_fields(records))
    checks = {
        "step_size_law": out["step_size_law_max"] <= cfg.hyper.mu * (1 + 1e-12),
        "no_divergence": _flag_counts(records)["divergence"] == 0,
    }
    if isinstance(cfg.pair.loss, SquaredError) and records[0].w is not None:
        # measured gradient noise grad_x L(y, f_est) - grad_x L(f_true, f_est)
        # must collapse to -2w for the squared-error loss
        loss = cfg.pair.loss
        dev = max(
            abs(
                float(loss.grad_x(rec.y, rec.f_est))
                - float(loss.grad_x(rec.f_true, rec.f_est))
                + 2.0 * rec.w
            )
            for rec in records
        )
        out["gradient_noise_max_dev"] = dev
        checks["gradient_noise_identity"] = dev <= GRADIENT_NOISE_TOL
    out["flag_counts"] = _flag_counts(records)
    out["checks"] = checks
    return out


def _summarize_control(cfg, records):
    out = _summarize_identification(cfg, records)
    n = len(records)
    y_star = np.array([r.y_star for r in records])
    f_true = np.array([r.f_true for r in records])
    y = np.array([r.y for r in records])
    out["final_tracking_conditional"] = float(np.mean((f_true - y_star) ** 2))
    out["final_tracking_proxy"] = float(np.mean((y - y_star) ** 2))
    mp = minimum_phase_ratio(records)
    out["min_phase_max"] = float(np.max(mp.values))
    if cfg.operating_bound is not None:
        # |f_est| > tanh(bound) iff the estimated preactivation left the band
        edge = math.tanh(cfg.operating_bound)
        out["out_of_band_fraction"] = float(np.mean(np.abs([r.f_est for r in records]) > edge))
    # closed-loop ledger: y - y* - w should equal f_true - f_est on clean steps
    dev = 0.0
    clean = 0
    for rec in records:
        if rec.flags:
            continue
        clean += 1
        dev = max(dev, abs(rec.y - rec.y_star - rec.w - (rec.f_true - rec.f_est)))
    out["identity_max_dev"] = dev
    out["identity_steps_checked"] = clean
    out["checks"]["closed_loop_identity"] = dev <= cfg.control.root_tol + 1e-9
    return out


def _summarize_replay(cfg, records, predictions, targets):
    out = {
        "rows_used": len(records),
        "step_size_law_max": _step_size_law_max(records),
        "relative_error_checkpoints": {},
    }
    for checkpoint in (1000, len(records)):
        if checkpoint <= len(records):
            key = "final" if checkpoint == len(records) else str(checkpoint)
            out["relative_error_checkpoints"][key] = relative_error_metric(
                predictions[:checkpoint], targets[:checkpoint]
            )
    out["final_relative_error"] = out["relative_error_checkpoints"]["final"]
    out.update(_rs_fields(records))
    out["flag_counts"] = _flag_counts(records)
    out["checks"] = {
        "step_size_law": out["step_size_law_max"] <= cfg.hyper.mu * (1 + 1e-12),
        "no_divergence": out["flag_counts"]["divergence"] == 0,
    }
    return out


# ---------------------------------------------------------------------------
# experiment driver


@dataclass
class RunReport:
    data: dict
    path: str

    @property
    def passed(self):
        return self.data.get("checks_overall", {}).get("all_pass", False)


def _echo_config(cfg):
    echo = {
        "mode": cfg.mode,
        "algorithms": list(cfg.algorithms),
        "n_steps": cfg.n_steps,
        "seeds": list(cfg.seeds),
        "out_dir": cfg.out_dir,
        "alpha_eps": cfg.alpha_eps,
        "pair": cfg.pair_name,
        "hyper": {
            "mu": cfg.hyper.mu,
            "beta1": cfg.hyper.beta1,
            "beta2": cfg.hyper.beta2,
            "beta3": cfg.hyper.beta3,
            "alpha_moment": cfg.hyper.alpha_moment,
            "outside_theorem_regime": cfg.hyper.outside_theorem_regime,
        },
        "caveats": list(cfg.caveats),
    }
    if cfg.theta_star is not None:
        echo["plant"] = {
            "theta_star": [float(x) for x in cfg.theta_star],
            "theta0": [float(x) for x in cfg.theta0],
            "noise": {"kind": cfg.noise_kind, "std": cfg.noise_std, "df": cfg.noise_df},
        }
    if cfg.control is not None:
        echo["control"] = {
            "y_target": cfg.control.y_target,
            "u_max": cfg.control.u_max,
            "b_eps": cfg.control.b_eps,
            "root_tol": cfg.control.root_tol,
            "root_max_iter": cfg.control.root_max_iter,
            "p": cfg.p,
            "q": cfg.q,
            "operating_bound": cfg.operating_bound,
        }
    if cfg.mode == "replay":
        echo["replay"] = {
            "features": list(cfg.features),
            "target": cfg.target_col,
            "data": cfg.data_path,
            "strict_csv": cfg.strict_csv,
            "theta0": [float(x) for x in cfg.theta0],
        }
    return echo


def _bound_curve_block(cfg):
    series = bound_curve(cfg.hyper, cfg.alpha_eps, cfg.n_steps)
    checkpoints = {}
    for n in (100, 500, 1000, cfg.n_steps):
        if 1 <= n <= cfg.n_steps:
            checkpoints[str(n)] = float(series.values[n - 1])
    return {
        "alpha_eps": cfg.alpha_eps,
        "checkpoints": checkpoints,
        "note": "scale-free reference curve; overlays normalize to the empirical value at n0=100",
    }


def _comparison_block(cfg, runs, metric, smaller_wins=True):
    if len(cfg.algorithms) < 2:
        return None
    a, b = cfg.algorithms[0], cfg.algorithms[1]
    wins = {a: 0, b: 0, "ties": 0}
    detail = {}
    for seed_key in runs[a]:
        va = runs[a][seed_key][metric]
        vb = runs[b][seed_key][metric]
        if va == vb:
            winner = "tie"
            wins["ties"] += 1
        elif (va <= vb) == smaller_wins:
            winner = a
            wins[a] += 1
        else:
            winner = b
            wins[b] += 1
        detail[seed_key] = winner
    return {"metric": metric, "wins": wins, "per_seed": detail}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run all (algorithm, seed) cells, persist traces, and write report.json."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    report = {
        "config": _echo_config(cfg),
        "generator": {
            "name": NoiseSource.GENERATOR_NAME,
            "bit_generator": "philox-4x64",
            "numpy_version": np.__version__,
        },
        "runs": {algo: {} for algo in cfg.algorithms},
    }
    report_path = os.path.join(cfg.out_dir, "report.json")

    replay_rows = stream = None
    if cfg.mode == "replay":
        replay_rows, stream = _load_replay_rows(cfg)
        report["dataset"] = {
            "path": cfg.data_path,
            "rows_used": len(replay_rows),
            "rows_skipped": stream.skipped,
            "skipped_lines": stream.skipped_lines,
        }

    try:
        for algo in cfg.algorithms:
            for seed in cfg.seeds:
                if cfg.mode == "identify":
                    records = _run_identify(cfg, algo, seed)
                    summary = _summarize_identification(cfg, records)
                    trace_name = f"trace_{algo}_seed{seed}.csv"
                elif cfg.mode == "control":
                    records = _run_control(cfg, algo, seed)
                    summary = _summarize_control(cfg, records)
                    trace_name = f"trace_{algo}_seed{seed}.csv"
                else:
                    records, predictions, targets = _run_replay(cfg, algo, replay_rows)
                    summary = _summarize_replay(cfg, records, predictions, targets)
                    trace_name = f"trace_{algo}_replay.csv"
                write_trace(os.path.join(cfg.out_dir, trace_name), records)
                summary["trace"] = trace_name
                report["runs"][algo][f"seed_{seed}"] = summary
                if cfg.mode == "replay":
                    break  # data stream is fixed; one pass per algorithm
    except SgidentError as exc:
        report["error"] = {"message": str(exc)}
        if isinstance(exc, NumericError) and exc.context:
            report["error"]["context"] = exc.json_context()
        _write_report(report_path, report)
        raise

    if cfg.mode in ("identify", "control"):
        report["bound_curve"] = _bound_curve_block(cfg)
        comparison = _comparison_block(cfg, report["runs"], "final_average_regret")
    else:
        comparison = _comparison_block(cfg, report["runs"], "final_relative_error")
    if comparison is not None:
        report["comparison"] = comparison

    all_checks = {}
    for algo, by_seed in report["runs"].items():
        for seed_key, summary in by_seed.items():
            for check, ok in summary["checks"].items():
                all_checks.setdefault(check, True)
                all_checks[check] = all_checks[check] and bool(ok)
    report["checks_overall"] = dict(sorted(all_checks.items()))
    report["checks_overall"]["all_pass"] = all(all_checks.values()) if all_checks else True

    _write_report(report_path, report)
    return RunReport(data=report, path=report_path)


def _write_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# report comparison


def _load_report(report):
    if isinstance(report, RunReport):
        return report.data
    if isinstance(report, dict):
        return report
    try:
        with open(report, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read report file {report!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"report file {report!r} is not valid JSON: {exc}") from exc


_COMPARE_METRICS = (
    "final_average_regret",
    "final_tracking_conditional",
    "final_tracking_proxy",
    "final_theta_err",
    "final_relative_error",
)


def compare_runs(report_a, report_b, algo_a=None, algo_b=None):
    """Side-by-side final metrics and per-seed win counts for two reports.

    If both arguments are the same two-algorithm report, its two algorithms
    are compared; otherwise each report contributes its first algorithm
    (overridable).  Reports must share the mode and a common metric set.
    """
    a = _load_report(report_a)
    b = _load_report(report_b)
    if a["config"]["mode"] != b["config"]["mode"]:
        raise ConfigurationError(
            f"cannot compare runs of different modes: "
            f"{a['config']['mode']} vs {b['config']['mode']}"
        )
    same = a is b or a == b
    algos_a = a["config"]["algorithms"]
    algos_b = b["config"]["algorithms"]
    if algo_a is None:
        algo_a = algos_a[0]
    if algo_b is None:
        algo_b = algos_b[1] if same and len(algos_b) > 1 else algos_b[0]
    if algo_a not in a["runs"] or algo_b not in b["runs"]:
        raise ConfigurationError(f"algorithm missing from report: {algo_a!r} / {algo_b!r}")
    runs_a = a["runs"][algo_a]
    runs_b = b["runs"][algo_b]
    shared_seeds = [k for k in runs_a if k in runs_b]
    if not shared_seeds:
        raise ConfigurationError("reports share no seeds")
    sample = runs_a[shared_seeds[0]]
    metrics = [m for m in _COMPARE_METRICS if m in sample and m in runs_b[shared_seeds[0]]]
    if not metrics:
        raise ConfigurationError("reports share no comparable metrics")

    table = {
        "mode": a["config"]["mode"],
        "sides": {"a": algo_a, "b": algo_b},
        "metrics": {},
        "win_metric": metrics[0],
        "wins": {"a": 0, "b": 0, "ties": 0},
        "per_seed": {},
    }
    for m in metrics:
        va = float(np.mean([runs_a[s][m] for s in shared_seeds]))
        vb = float(np.mean([runs_b[s][m] for s in shared_seeds]))
        table["metrics"][m] = {"a": va, "b": vb, "delta": va - vb}
    for s in shared_seeds:
        va, vb = runs_a[s][metrics[0]], runs_b[s][metrics[0]]
        if va == vb:
            table["wins"]["ties"] += 1
            table["per_seed"][s] = "tie"
        elif va < vb:
            table["wins"]["a"] += 1
            table["per_seed"][s] = "a"
        else:
            table["wins"]["b"] += 1
            table["per_seed"][s] = "b"
    return table


def render_comparison(table):
    """Fixed-width text rendering of a compare_runs table."""
    a, b = table["sides"]["a"], table["sides"]["b"]
    lines = [f"mode: {table['mode']}   a={a}   b={b}"]
    lines.append(f"{'metric':<28}{'a':>16}{'b':>16}{'delta':>16}")
    for m, row in table["metrics"].items():
        lines.append(f"{m:<28}{row['a']:>16.8g}{row['b']:>16.8g}{row['delta']:>16.8g}")
    w = table["wins"]
    lines.append(
        f"wins on {table['win_metric']}: {a}={w['a']} {b}={w['b']} ties={w['ties']}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# independent report verification


def _recompute_run(report, algo, seed_key, summary, out_dir):
    """Recompute one run's reported numbers from its persisted trace."""
    cfgd = report["config"]
    mode = cfgd["mode"]
    records = read_trace(os.path.join(out_dir, summary["trace"]))
    got = {}
    if mode in ("identify", "control"):
        loss = catalog_pair(cfgd["pair"])[0].loss if mode == "identify" else SquaredError()
        f_true = np.array([r.f_true for r in records])
        f_est = np.array([r.f_est for r in records])
        base = np.array(
            [
                float(loss.eval(ft, fe)) - float(loss.eval(ft, ft))
                for ft, fe in zip(f_true, f_est)
            ]
        )
        got["final_average_regret"] = float(np.mean(base))
        if "average_regret_at_500" in summary:
            got["average_regret_at_500"] = float(np.mean(base[:500]))
        got["final_theta_err"] = records[-1].theta_err
    if mode == "control":
        y = np.array([r.y for r in records])
        y_star = np.array([r.y_star for r in records])
        got["final_tracking_conditional"] = float(np.mean((f_true - y_star) ** 2))
        got["final_tracking_proxy"] = float(np.mean((y - y_star) ** 2))
        w_approx = y - f_true
        dev = 0.0
        for i, rec in enumerate(records):
            if rec.flags:
                continue
            dev = max(dev, abs(rec.y - rec.y_star - w_approx[i] - (rec.f_true - rec.f_est)))
        got["identity_max_dev"] = dev
        for rec in records:
            rec.w = float(w_approx[rec.k])
        got["min_phase_max"] = float(np.max(minimum_phase_ratio(records).values))
        if "out_of_band_fraction" in summary:
            edge = math.tanh(cfgd["control"]["operating_bound"])
            got["out_of_band_fraction"] = float(np.mean(np.abs(f_est) > edge))
    if mode == "replay":
        y = np.array([r.y for r in records])
        f_est = np.array([r.f_est for r in records])
        got["final_relative_error"] = relative_error_metric(f_est, y)
        cks = {}
        for key, val in summary["relative_error_checkpoints"].items():
            n = len(records) if key == "final" else int(key)
            cks[key] = relative_error_metric(f_est[:n], y[:n])
        got["relative_error_checkpoints"] = cks
    # mu/r columns give back the schedule: grad norms are consecutive r gaps
    mu = np.array([r.mu_k for r in records])
    r = np.array([r.r_k for r in records])
    beta3 = cfgd["hyper"]["beta3"]
    gns = np.diff(np.concatenate([[beta3], r]))
    rs = robbins_siegmund_diag(mu, gns)
    got["rs_total"] = rs.total
    got["rs_tail_fraction"] = rs.tail_fraction
    got["step_size_law_max"] = float(np.max(mu * gns)) if len(mu) else 0.0
    return got


def verify_report(report_path, tol=RECOMPUTE_TOL):
    """Recompute every reported per-run number from traces; list mismatches.

    Returns (ok, problems).  Numbers must agree to `tol`; nested checkpoint
    dicts are compared entry by entry.
    """
    report = _load_report(report_path)
    out_dir = os.path.dirname(os.path.abspath(report_path)) if isinstance(report_path, str) else report.get("config", {}).get("out_dir", ".")
    problems = []
    for algo, by_seed in report["runs"].items():
        for seed_key, summary in by_seed.items():
            got = _recompute_run(report, algo, seed_key, summary, out_dir)
            for name, value in got.items():
                if name not in summary:
                    continue
                want = summary[name]
                if isinstance(value, dict):
                    for sub, v in value.items():
                        wv = want.get(sub)
                        if wv is None or abs(v - wv) > tol:
                            problems.append(
                                f"{algo}/{seed_key}/{name}[{sub}]: reported {wv!r}, recomputed {v!r}"
                            )
                elif want is None or abs(value - want) > tol:
                    problems.append(
                        f"{algo}/{seed_key}/{name}: reported {want!r}, recomputed {value!r}"
                    )
    return (not problems), problems
