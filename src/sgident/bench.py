"""Experiment orchestration: configs, seed sweeps, traces, reports.

A run is fully determined by (config file, seed list): every persisted trace
byte and every report number is reproducible.  Each run's summary comes
from `summarize`, which reads only persisted trace columns, so
`verify_report` recomputes every reported number by calling it again on the
trace read back from its file.  A sweep streams: each chunk of steps of
every cell is folded into the running summary at once, as (steps, cells)
blocks, and appended to the cell's trace file, held open for the sweep,
then dropped, so memory is bounded by chunk x cells, not by the run length.
Configs are
INI-style text, traces fixed-width hex text (one line per step, each cell
the bits of a 64-bit value; ``export_csv`` renders them as decimal CSV),
reports JSON with sorted keys and no timestamps.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import json
import math
import os
import warnings
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from .control import (
    FLAG_BIT,
    FLAG_TEXT,
    FLAGS,
    TRACE_COLUMNS,
    ControlConfig,
    NoiseSource,
    Plant,
    Trace,
    closed_loop_chunks,
)
from .core import HyperParams, check_step_size_cap, row_dots
from .errors import ConfigurationError, DataError, SgidentError
from .metrics import (
    MinPhaseScan,
    RSScan,
    SumScan,
    bound_curve_at,
    gradient_noise,
    gradient_norms_sq,
    realized_noise,
    regret_sum,
    relative_error_metric,
    tracking_error,
)
from .models import (
    ModelLossPair,
    SaturatedMeanModel,
    SaturationSpec,
    SquaredError,
    catalog_pair,
    tanh_mse_pair,
)
from .sg import sg_init

__all__ = [
    "TRACE_COLUMNS",
    "ExperimentConfig",
    "RunReport",
    "preset_path",
    "load_config",
    "check_seeds",
    "ingest_csv",
    "CsvStream",
    "write_trace",
    "read_trace",
    "export_csv",
    "summarize",
    "run_experiment",
    "compare_runs",
    "render_comparison",
    "verify_report",
]

MODES = ("identify", "control", "replay")
# the algorithm names a config may list: a dict only because perfbench/tracer.py wraps its values
ALGORITHMS = dict.fromkeys(("modified", "classical"))
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
    cp.read_keys.add((section, key))
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


def _reject_repeats(key, what, values):
    repeated = next((v for v, count in Counter(values).items() if count > 1), None)
    if repeated is not None:
        raise ConfigurationError(f"{key}: {what} {repeated!r} is listed more than once")


def check_seeds(seeds, key="experiment.seeds"):
    """``seeds`` if non-empty, unsigned 64-bit and unrepeated, else ConfigurationError at key."""
    if not seeds:
        raise ConfigurationError(f"{key}: must list at least one seed")
    for s in seeds:
        if not (0 <= s < 2**64):
            raise ConfigurationError(f"{key}: seed {s} outside unsigned 64-bit range")
    _reject_repeats(key, "seed", seeds)
    return seeds


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
    cp.read_keys = set()  # every (section, key) _get asks for

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
    _reject_repeats("experiment.algorithms", "algorithm", algorithms)
    n_steps = _get(cp, "experiment", "n_steps", int)
    if n_steps < 1:
        raise ConfigurationError(f"experiment.n_steps: must be >= 1, got {n_steps}")
    seeds = check_seeds(_get(cp, "experiment", "seeds", _int_list))
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
    for section, key in ((s, k) for s in cp.sections() for k in cp.options(s)):
        if (section, key) not in cp.read_keys:
            raise ConfigurationError(
                f"{section}.{key}: not a setting of {mode} mode with pair {cfg.pair_name!r}")

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
        raise ConfigurationError(f"control.{exc}") from None


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
    """Ordered single-pass stream of (phi, target) rows from a CSV file.

    ``phi`` is an ``array.array("d")`` of the feature cells and ``target`` a
    float; all are finite, because every row is checked as it is read.

    A row is malformed when a used cell is nonnumeric or non-finite (nan,
    inf).  Strict mode raises on the first malformed row (with its line
    number); lenient mode skips malformed rows and counts them.
    `rows_yielded` counts accepted rows only; it and `skipped` are final
    once iteration completes.  `line` is the file line of the row last
    yielded.
    """

    def __init__(self, path, column_map, strict=False, max_rows=None):
        self.path = path
        self.strict = bool(strict)
        self.max_rows = max_rows
        self.rows_yielded = 0
        self.skipped = 0
        self.skipped_lines = []
        self.line = None
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
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"empty file (no header): {self.path}")
            # a repeated name reads its last column, as csv.DictReader does
            index = {name: i for i, name in enumerate(header)}
            missing = [c for c in (*self.features, self.target) if c not in index]
            if missing:
                raise DataError(f"missing column(s) {missing} in {self.path}")
            features, target_at = [index[c] for c in self.features], index[self.target]
            for row in filter(None, reader):  # a blank line is no row
                if self.max_rows is not None and self.rows_yielded >= self.max_rows:
                    break
                line = reader.line_num
                try:
                    values = [float(row[i]) for i in features]
                    target = float(row[target_at])
                except (IndexError, ValueError):  # a short row lacks the cell
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
                self.rows_yielded += 1
                self.line = line
                yield array("d", values), target


def ingest_csv(path, column_map, strict=False, max_rows=None) -> CsvStream:
    """Open a CSV of feature/target columns as a stream of (phi, target)."""
    return CsvStream(path, column_map, strict=strict, max_rows=max_rows)


# ---------------------------------------------------------------------------
# trace persistence


# the first word of a trace's header line; the present column names follow it
TRACE_FORMAT = "sgident-trace/1"
# rows read or rendered per batch; bounds the text and lookup indices held in
# memory.  512, 2048 and 4096 rows read slower, and 4096 peaked 2-4 MB higher
_CHUNK = 1024
# a cell is 16 hex digits, then "," or, after the last cell of a row, LF
_CELL = 17


# each ";"-joined flags text's bitmask
_FLAG_MASK = {text: mask for mask, text in enumerate(FLAG_TEXT)}


def _flag_masks(flags):
    """The int64 bitmask of each ";"-joined flags text; DataError for one outside ``FLAGS``."""
    if not any(flags):  # most steps carry no flag
        return np.zeros(len(flags), np.int64)
    try:
        return np.array([_FLAG_MASK[text] for text in flags], np.int64)
    except KeyError as exc:
        raise DataError(f"flags {exc.args[0]!r} are not distinct {FLAGS} in that order") from None


def _unhex_table():
    """Two hex digits -> their byte, or 256 for any other pair, as a ``<u2`` array.

    A ``<u2`` value holds two characters as they sit in memory: the first in
    its low byte.
    """
    digits = np.frombuffer(b"0123456789abcdef", np.uint8).astype("<u2")
    decode = np.full(1 << 16, 256, dtype="<u2")
    decode[(digits[:, None] | digits[None, :] << 8).ravel()] = np.arange(256)
    return decode


_UNHEX = _unhex_table()


def write_trace(path, trace):
    """Persist a Trace as fixed-width hex text to ``path``, a file path or an open binary file.

    The header line is ``TRACE_FORMAT``, a space and the present columns
    (``k``, the filled float columns, ``flags``) in ``TRACE_COLUMNS`` order
    joined by ","; a column the mode leaves empty is left out.  Each row is
    one LF-terminated line of ","-separated cells, each the 16 lowercase hex
    digits of its 64-bit pattern, big-endian: float64 bits, int64 for ``k``
    and an int64 bitmask for ``flags`` (bit i set when ``FLAGS[i]`` is on
    the step).  Flags must be distinct ``FLAGS`` names in ``FLAGS`` order.

    A trace with no rows or whose ``k`` starts at 0 starts the file: the
    header, then its rows.  Any other trace continues a run, and its rows
    are appended, so writing a run chunk by chunk in step order gives the
    bytes of one write of the whole run; an open file is written at its
    position and left open, so a sweep keeps one per cell.  The chunk's
    big-endian words become their digits and separators in one
    ``memoryview.hex`` call.  A non-finite float cell, which ``read_trace``
    would reject, raises DataError naming its column and row before
    anything is written.
    """
    names = ["k", *(name for name in TRACE_COLUMNS[1:-1] if getattr(trace, name) is not None),
             "flags"]
    n, width = len(trace), len(names)
    words = np.empty((width, n), np.int64)  # a column per row: each fill is contiguous
    words[0] = trace.k
    for j, name in enumerate(names[1:-1], 1):
        words[j] = getattr(trace, name).view(np.int64)
    finite = np.isfinite(words[1:-1].view(np.float64))
    if not finite.all():
        column = int(np.argmin(finite.all(axis=1)))
        row = int(np.argmin(finite[column]))
        raise DataError(f"non-finite cell in column {names[column + 1]!r} at row {row} "
                        f"(step {trace.k[row]})")
    words[-1] = _flag_masks(trace.flags)
    # 16 digits and a "," per word, the "," after a row's last word then made LF
    digits = words.T.astype(">i8", order="C").data.hex(",", -8)
    text = bytearray(f"{digits}," if n else "", "ascii")
    np.frombuffer(text, np.uint8)[width * _CELL - 1 :: width * _CELL] = ord("\n")
    starts = n == 0 or trace.k[0] == 0
    header = f"{TRACE_FORMAT} {','.join(names)}\n".encode() if starts else b""
    named = isinstance(path, (str, os.PathLike))
    with open(path, "wb" if starts else "ab") if named else contextlib.nullcontext(path) as fh:
        fh.write(header)
        fh.write(text)


def read_trace(path):
    """Load a trace written by ``write_trace`` back into a Trace.

    A column the header leaves out is None.  Each of these raises DataError
    with its file line (row i sits on line i + 2, the header on line 1): an
    empty file, a header that is not ``TRACE_FORMAT`` and known columns in
    ``TRACE_COLUMNS`` order from ``k`` to ``flags``, a separator other than
    "," between cells or LF after the last, a cell that is not 16 lowercase
    hex digits, a float cell that is not finite, a flags cell above 7 and a
    final row cut short.  The file is read ``_CHUNK`` rows at a time, and
    each pair of digits becomes its byte by one lookup in a 65,536-entry
    table.
    """
    with open(path, "rb") as fh:
        names = _read_header(path, fh)
        size = len(names) * _CELL
        n, short = divmod(os.fstat(fh.fileno()).st_size - fh.tell(), size)
        words = np.empty((len(names), n), np.int64)  # a column per row, filled in place
        for start in range(0, n, _CHUNK):
            m = min(_CHUNK, n - start)
            cells = np.frombuffer(fh.read(m * size), np.uint8).reshape(m, len(names), _CELL)
            words[:, start : start + m] = _decode_rows(path, names, cells, start).T
        if short:
            raise DataError(f"short final row in {path}", line=n + 2)
    columns = dict(zip(names, words))
    flags = FLAG_TEXT[columns.pop("flags")].tolist()
    k = columns.pop("k")
    return Trace(k=k, flags=flags, **{name: w.view(np.float64) for name, w in columns.items()})


def _read_header(path, fh):
    """The column names of a trace's header line, checked."""
    line = fh.readline(len(TRACE_FORMAT) + len(",".join(TRACE_COLUMNS)) + 2)
    if not line:
        raise DataError(f"empty trace file: {path}")
    magic, _, names = line.decode("ascii", "replace").rstrip("\n").partition(" ")
    names = names.split(",")
    if line.endswith(b"\n") and magic == TRACE_FORMAT:
        unknown = next((name for name in names if name not in TRACE_COLUMNS), None)
        if unknown is not None:
            raise DataError(f"unknown trace column {unknown!r} in the header of {path}", line=1)
        if names == sorted(set(names), key=TRACE_COLUMNS.index) and {"k", "flags"} <= set(names):
            return names
    raise DataError(f"unexpected trace header in {path}: {line[:120]!r}", line=1)


def _decode_rows(path, names, cells, first):
    """The big-endian words of rows ``first``.. given as (rows, column, 17) text.

    Raises DataError at the first row with a problem; on that row a wrong
    separator comes before a bad digit pair, and that before a bad value.
    """
    values = _UNHEX.take(cells[:, :, :-1].view("<u2"))
    words = values.astype(np.uint8).view(">i8")[:, :, 0]
    separators = np.full(len(names), ord(","), np.uint8)
    separators[-1] = ord("\n")
    bad_separator = cells[:, :, -1] != separators
    non_finite = ~np.isfinite(words[:, 1:-1].view(">f8"))
    big_flags = words[:, -1:].view(">u8") >= len(FLAG_TEXT)
    if values.max(initial=0) > 255 or bad_separator.any() or non_finite.any() or big_flags.any():
        problems = [  # (bad cells, the first column checked, problem), in rank order
            (bad_separator, 0, "wrong separator after the cell"),
            ((values > 255).any(axis=2), 0, "cell that is not 16 lowercase hex digits"),
            (non_finite, 1, "non-finite cell"),
            (big_flags, len(names) - 1, "flags value above 7"),
        ]
        found = []
        for rank, (bad, offset, problem) in enumerate(problems):
            rows = np.flatnonzero(bad.any(axis=1))
            if rows.size:
                row = int(rows[0])
                found.append((row, rank, offset + int(np.argmax(bad[row])), problem))
        row, _, column, problem = min(found)
        raise DataError(f"{problem} in column {names[column]!r} of {path}", line=first + row + 2)
    return words


def export_csv(run_dir):
    """Render each ``trace_*.hex`` of ``run_dir`` as decimal CSV ``trace_*.csv`` beside it.

    Returns the paths written, in name order.  The CSV is RFC 4180 with CRLF
    line ends and every ``TRACE_COLUMNS`` column: ``k`` an integer, a float
    cell its ``repr`` (the shortest text that reads back to the same
    double), a column the mode leaves empty an empty cell on every row, and
    ``flags`` the ";"-joined names.  Each column of a chunk is formatted by
    one ``repr`` of its list.  A missing directory is a ConfigurationError;
    a directory with no trace and a trace ``read_trace`` rejects are
    DataErrors, the latter raised before its CSV is opened.
    """
    if not os.path.isdir(run_dir):
        raise ConfigurationError(f"run directory not found: {run_dir}")
    sources = sorted(name for name in os.listdir(run_dir)
                     if name.startswith("trace_") and name.endswith(".hex"))
    if not sources:
        raise DataError(f"no trace_*.hex file in {run_dir}")
    written = []
    for source in sources:
        trace = read_trace(os.path.join(run_dir, source))
        columns = [getattr(trace, name) for name in TRACE_COLUMNS[:-1]]
        path = os.path.join(run_dir, source.removesuffix(".hex") + ".csv")
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\r\n")
            for start in range(0, len(trace), _CHUNK):
                part = slice(start, start + _CHUNK)
                rows = len(trace.k[part])
                cells = [[""] * rows if column is None
                         else repr(column[part].tolist())[1:-1].split(", ")
                         for column in columns]
                cells.append(trace.flags[part])
                fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# single runs


def sampler_bit_generator(seed):
    """Philox stream for identify-mode regressors: key (seed, 1).

    ``NoiseSource(seed)`` keys Philox with (seed, 0); the second key word
    keeps the regressors and the noise on independent streams.
    """
    return np.random.Philox(key=[int(seed), 1])


def _identify_inputs(cfg):
    """Per-step blocks (phi, y, f_true) of identification, one column per distinct seed.

    Each seed samples its regressors from key (seed, 1) and draws its noise
    from ``NoiseSource(seed)``: Bernoulli labels y = [u < f_true] from its
    uniforms under cross-entropy, y = f_true + w from its noise block
    otherwise.
    """
    blocks = []
    for seed in dict.fromkeys(cfg.seeds):
        phi = cfg.sampler(np.random.Generator(sampler_bit_generator(seed)), cfg.n_steps)[0]
        f_true = cfg.pair.predictor.link(row_dots(phi, cfg.theta_star))
        noise = NoiseSource(std=cfg.noise_std, seed=seed, kind=cfg.noise_kind, df=cfg.noise_df)
        if cfg.pair.loss.name == "cross_entropy":
            y = (noise.uniform_block(cfg.n_steps) < f_true).astype(float)
        else:
            y = f_true + noise.draw_block(cfg.n_steps)
        blocks.append((phi, y, f_true))
    return tuple(np.stack(column, axis=1) for column in zip(*blocks))


def _load_replay_rows(cfg):
    if not cfg.data_path:
        raise ConfigurationError("replay mode needs a dataset (replay.data or --data)")
    stream = ingest_csv(
        cfg.data_path,
        {"features": list(cfg.features), "target": cfg.target_col},
        strict=cfg.strict_csv,
        max_rows=cfg.n_steps,
    )
    # accepted rows go to growing flat buffers, not one ndarray each
    phi, y = array("d"), array("d")
    for values, target in stream:
        if target <= 0.0:  # the relative error divides by every target
            raise DataError(
                f"target must be strictly positive in {cfg.data_path}, got {target!r}",
                line=stream.line,
            )
        phi.extend(values)
        y.append(target)
    if not y:
        raise DataError(f"no usable rows in {cfg.data_path}")
    return (np.frombuffer(phi).reshape(len(y), len(stream.features)), np.frombuffer(y)), stream


def _run_sweep(cfg, cells, replay_rows):
    """The chunks of every (algorithm, seed) cell of the sweep, run as one batch.

    Replay runs every cell over the same dataset rows ``replay_rows`` =
    (phi, y), prequentially: each target is predicted before the update on
    it.
    """
    estimator = sg_init(cfg.theta0, cfg.hyper)
    if cfg.mode == "replay":
        phi, y = replay_rows
        inputs = (phi[:, None], y[:, None], None)  # every cell has the one seed
        return closed_loop_chunks(None, estimator, cfg.pair, inputs, len(y), cells)
    plant = Plant(
        model=cfg.pair.predictor,
        theta_star=cfg.theta_star,
        noise=NoiseSource(std=cfg.noise_std, kind=cfg.noise_kind, df=cfg.noise_df),
    )
    inputs = cfg.control if cfg.mode == "control" else _identify_inputs(cfg)
    return closed_loop_chunks(plant, estimator, cfg.pair, inputs, cfg.n_steps, cells)


# ---------------------------------------------------------------------------
# per-run summaries and checks


def _pair_of(config_echo):
    """The model/loss pair a report's config names (identify and control)."""
    if config_echo["mode"] == "control":
        control = config_echo["control"]
        return tanh_mse_pair(control["p"], control["q"], m_bound=control["operating_bound"])
    return catalog_pair(config_echo["pair"])[0]


def summarize(config_echo, trace):
    """The summary of one run: its numbers, flag counts and pass/fail checks.

    ``config_echo`` is the report's ``config`` block.  This is one feed of
    the whole trace into the running summary that ``run_experiment`` feeds
    chunk by chunk, every cell of its sweep at once, with the same bits
    either way; ``verify_report`` calls it on each trace read back from its
    file, so every reported number has one implementation.  Only persisted
    columns are read, and not ``regret_avg``: the plant noise is
    ``y - f_true`` and the squared gradient norms are the increments of
    ``r_k``.  Values are plain Python floats, ints and bools.
    """
    return _summarize(config_echo, trace)[0]


def _summarize(config_echo, trace):
    """``summarize`` and the running mean of the regret it read (None in replay)."""
    summary = _RunningSummary(config_echo, len(trace))
    columns = {name: getattr(trace, name)[:, None] for name in TRACE_COLUMNS[1:-1]
               if name != "y_star" and getattr(trace, name) is not None}
    regret = summary.feed(columns, trace.y_star, _flag_masks(trace.flags)[:, None])
    return summary.result(0), None if regret is None else regret[:, 0]


def _fold_max(running, values):
    """The column maxima of ``values`` and ``running`` (None before any), NaN-propagating."""
    top = np.max(values, axis=0)
    return top if running is None else np.maximum(running, top)


class _RunningSummary:
    """The summaries of ``cells`` runs of ``n`` steps each, fed side by side in consecutive chunks.

    ``feed(columns, y_star, flags)`` takes the next m steps of every run:
    ``columns`` maps each float column to an (m, cells) block whose column
    i is run i, ``y_star`` is the (m,) target (None outside control) and
    ``flags`` the (m, cells) int64 bitmask of the steps' flags.  It returns
    the steps' regret running means, (m, cells) (None in replay).
    ``result(i)`` is ``summarize``'s dict of run i once all ``n`` steps are
    fed.  The sequential metrics carry their scan state from chunk to chunk
    (``metrics.SumScan``, ``RSScan``, ``MinPhaseScan`` and the last
    ``r_k``), each column with the bits of its run fed alone; maxima,
    counts, the last ``theta_err`` and the step-500 checkpoint are combined
    per chunk.  Replay keeps ``f_est`` and ``y`` for its relative errors,
    whose ``np.mean`` sums pairwise over each run's contiguous column.
    """

    def __init__(self, config_echo, n, cells=1):
        self.mode, self.hyper, self.n = config_echo["mode"], config_echo["hyper"], n
        self.r_last = self.hyper["beta3"]  # r_{-1}
        self.rs = RSScan(n)
        self.law_max = None
        self.flag_counts = np.zeros((len(FLAGS), cells), np.int64)
        if self.mode == "replay":
            self.f_est, self.y = [], []
            return
        self.pair = _pair_of(config_echo)
        self.regret = SumScan()
        self.regret_at_500 = self.theta_err = self.noise_dev = None
        if self.mode == "control":
            control = config_echo["control"]
            self.root_tol = control["root_tol"]
            # |f_est| > tanh(bound) iff the estimated preactivation left the band
            self.edge = math.tanh(control["operating_bound"])
            self.tracking = (SumScan(), SumScan())
            self.min_phase = MinPhaseScan()
            self.min_phase_max = None
            self.out_of_band = self.identity_steps = 0
            self.identity_dev = 0.0

    def feed(self, columns, y_star, flags):
        block = SimpleNamespace(**columns, y_star=None if y_star is None else y_star[:, None])
        grad_norm_sq = gradient_norms_sq(block, self.r_last)
        self.r_last = block.r_k[-1].copy()
        self.rs.feed(block.mu_k, grad_norm_sq)
        self.law_max = _fold_max(self.law_max, block.mu_k * grad_norm_sq)
        self.flag_counts += [np.count_nonzero(flags & bit, axis=0) for bit in FLAG_BIT.values()]
        if self.mode == "replay":
            self.f_est.append(block.f_est)
            self.y.append(block.y)
            return None
        first = self.regret.count
        regret = self.regret.means(regret_sum(block, self.pair.loss))
        if first < 500 <= self.regret.count:
            self.regret_at_500 = regret[499 - first].copy()
        self.theta_err = block.theta_err[-1].copy()
        noise = realized_noise(block)
        if isinstance(self.pair.loss, SquaredError):
            # the measured gradient noise collapses to -2w for squared error
            gap = gradient_noise(block, self.pair) + 2.0 * noise
            self.noise_dev = _fold_max(self.noise_dev, np.abs(gap))
        if self.mode == "control":
            for scan, values in zip(self.tracking, tracking_error(block)):
                scan.cumsum(values)
            ratios = self.min_phase.ratios(block.y, block.u, noise)
            self.min_phase_max = _fold_max(self.min_phase_max, ratios)
            self.out_of_band += np.count_nonzero(np.abs(block.f_est) > self.edge, axis=0)
            # closed-loop ledger: y - y* - w should equal f_true - f_est on clean steps
            clean = flags == 0
            ledger = block.y - block.y_star - noise - (block.f_true - block.f_est)
            self.identity_dev = np.maximum(
                self.identity_dev, np.max(np.abs(ledger), axis=0, where=clean, initial=0.0))
            self.identity_steps += np.count_nonzero(clean, axis=0)
        return regret

    def result(self, i):
        rs = self.rs.report(i)
        out = {
            "step_size_law_max": float(self.law_max[i]),
            "rs_total": rs.total,
            "rs_tail_fraction": rs.tail_fraction,
            "flag_counts": {name: int(count[i]) for name, count in zip(FLAGS, self.flag_counts)},
        }
        checks = out["checks"] = {
            "step_size_law": out["step_size_law_max"] <= self.hyper["mu"] * (1 + 1e-12),
            "no_divergence": out["flag_counts"]["divergence"] == 0,
        }
        n = self.n
        if self.mode == "replay":
            f_est, y = (np.concatenate([block[:, i] for block in blocks])
                        for blocks in (self.f_est, self.y))
            checkpoints = {}
            for checkpoint in (1000, n):
                if checkpoint <= n:
                    key = "final" if checkpoint == n else str(checkpoint)
                    checkpoints[key] = relative_error_metric(f_est[:checkpoint], y[:checkpoint])
            out["rows_used"] = n
            out["relative_error_checkpoints"] = checkpoints
            out["final_relative_error"] = checkpoints["final"]
            return out
        out["final_average_regret"] = float(self.regret.total[i] / n)
        if self.regret_at_500 is not None:
            out["average_regret_at_500"] = float(self.regret_at_500[i])
        out["final_theta_err"] = float(self.theta_err[i])
        if self.noise_dev is not None:
            out["gradient_noise_max_dev"] = float(self.noise_dev[i])
            checks["gradient_noise_identity"] = out["gradient_noise_max_dev"] <= GRADIENT_NOISE_TOL
        if self.mode == "control":
            conditional, proxy = self.tracking
            out["final_tracking_conditional"] = float(conditional.total[i] / n)
            out["final_tracking_proxy"] = float(proxy.total[i] / n)
            out["min_phase_max"] = float(self.min_phase_max[i])
            out["out_of_band_fraction"] = int(self.out_of_band[i]) / n
            out["identity_max_dev"] = float(self.identity_dev[i])
            out["identity_steps_checked"] = int(self.identity_steps[i])
            checks["closed_loop_identity"] = out["identity_max_dev"] <= self.root_tol + 1e-9
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
        "hyper": asdict(cfg.hyper),
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
            **asdict(cfg.control),
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


def _bound_curve_block(config_echo):
    """The report's reference-curve block, from its echoed config."""
    n_steps = config_echo["n_steps"]
    alpha_eps = config_echo["alpha_eps"]
    steps = [n for n in (100, 500, 1000, n_steps) if 1 <= n <= n_steps]
    curve = bound_curve_at(HyperParams(**config_echo["hyper"]), alpha_eps, steps)
    checkpoints = {str(n): float(value) for n, value in zip(steps, curve)}
    return {
        "alpha_eps": alpha_eps,
        "checkpoints": checkpoints,
        "note": "scale-free reference curve; overlays normalize to the empirical value at n0=100",
    }


# the per-seed metric that decides the comparison of the first two algorithms
_WIN_METRIC = {
    "identify": "final_average_regret",
    "control": "final_average_regret",
    "replay": "final_relative_error",
}


def _comparison_block(algorithms, runs, metric):
    """Per-seed winners of the first two algorithms on ``metric`` (smaller wins)."""
    if len(algorithms) < 2:
        return None
    a, b = algorithms[0], algorithms[1]
    wins = {a: 0, b: 0, "ties": 0}
    detail = {}
    for seed_key in runs[a]:
        va = runs[a][seed_key][metric]
        vb = runs[b][seed_key][metric]
        detail[seed_key] = "tie" if va == vb else a if va < vb else b
        wins["ties" if va == vb else detail[seed_key]] += 1
    return {"metric": metric, "wins": wins, "per_seed": detail}


def _checks_overall(runs):
    """AND of every per-run check across runs, plus ``all_pass``."""
    overall = {}
    for by_seed in runs.values():
        for summary in by_seed.values():
            for check, ok in summary["checks"].items():
                overall[check] = overall.get(check, True) and bool(ok)
    overall = dict(sorted(overall.items()))
    overall["all_pass"] = all(overall.values())
    return overall


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run all (algorithm, seed) cells, persist traces, and write report.json.

    The sweep streams: each chunk of steps is fed to the running summary
    of every cell at once and appended to each cell's trace file, which
    stays open for the sweep.  A run that raises SgidentError closes and
    removes the trace files it opened, writes report.json with the error
    (and its context), and re-raises.
    """
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
    opened = []  # the trace paths created

    try:
        replay_rows = None
        if cfg.mode == "replay":
            replay_rows, stream = _load_replay_rows(cfg)
            report["dataset"] = {
                "path": cfg.data_path,
                "rows_used": len(replay_rows[1]),
                "rows_skipped": stream.skipped,
                "skipped_lines": stream.skipped_lines,
            }
        # replay: the data stream is fixed, so one pass per algorithm
        seeds = cfg.seeds[:1] if cfg.mode == "replay" else cfg.seeds
        cells = [(algo, seed) for algo in cfg.algorithms for seed in seeds]
        names = [f"trace_{algo}_{'replay' if cfg.mode == 'replay' else f'seed{seed}'}.hex"
                 for algo, seed in cells]
        n = len(replay_rows[1]) if cfg.mode == "replay" else cfg.n_steps
        summary = _RunningSummary(report["config"], n, len(cells))
        with contextlib.ExitStack() as files:
            handles = []
            for name in names:
                opened.append(os.path.join(cfg.out_dir, name))
                handles.append(files.enter_context(open(opened[-1], "wb")))
            for batch in _run_sweep(cfg, cells, replay_rows):
                regret = summary.feed(batch.recorded, batch.y_star, batch.flags)
                # a cell at a time through write_trace, where perfbench's tracer counts rows
                for i, handle in enumerate(handles):
                    trace = batch.trace(i)
                    trace.regret_avg = None if regret is None else regret[:, i]
                    write_trace(handle, trace)
        for i, ((algo, seed), name) in enumerate(zip(cells, names)):
            report["runs"][algo][f"seed_{seed}"] = {**summary.result(i), "trace": name}
    except SgidentError as exc:
        for path in opened:
            os.remove(path)
        report["error"] = {"message": str(exc)}
        if exc.context:
            report["error"]["context"] = exc.json_context()
        if isinstance(exc, DataError) and exc.line is not None:
            report["error"]["line"] = exc.line
        _write_report(report_path, report)
        raise

    if cfg.mode in ("identify", "control"):
        report["bound_curve"] = _bound_curve_block(report["config"])
    comparison = _comparison_block(cfg.algorithms, report["runs"], _WIN_METRIC[cfg.mode])
    if comparison is not None:
        report["comparison"] = comparison
    report["checks_overall"] = _checks_overall(report["runs"])

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

    sides = {"a": {s: runs_a[s] for s in shared_seeds}, "b": runs_b}
    block = _comparison_block(("a", "b"), sides, metrics[0])
    table = {
        "mode": a["config"]["mode"],
        "sides": {"a": algo_a, "b": algo_b},
        "metrics": {},
        "win_metric": metrics[0],
        "wins": block["wins"],
        "per_seed": block["per_seed"],
    }
    for m in metrics:
        va = float(np.mean([runs_a[s][m] for s in shared_seeds]))
        vb = float(np.mean([runs_b[s][m] for s in shared_seeds]))
        table["metrics"][m] = {"a": va, "b": vb, "delta": va - vb}
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


def _compare(path, reported, recomputed, tol, problems):
    """Append one problem per leaf where ``reported`` differs from ``recomputed``.

    Dicts must have the same keys; numbers match when they are equal or
    within ``tol`` of each other (so a NaN never matches); any other value
    must be equal and of the same type.
    """
    if isinstance(reported, dict) and isinstance(recomputed, dict):
        if reported.keys() != recomputed.keys():
            problems.append(
                f"{path}: reported keys {sorted(reported)}, recomputed {sorted(recomputed)}"
            )
        for key in sorted(reported.keys() & recomputed.keys()):
            _compare(f"{path}/{key}", reported[key], recomputed[key], tol, problems)
        return
    if _is_number(reported) and _is_number(recomputed):
        ok = reported == recomputed or abs(reported - recomputed) <= tol
    else:
        ok = type(reported) is type(recomputed) and reported == recomputed
    if not ok:
        problems.append(f"{path}: reported {reported!r}, recomputed {recomputed!r}")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the columns each mode leaves empty; every other column is filled on every row
_EMPTY_COLUMNS = {
    "control": set(),
    "identify": {"u", "y_star"},
    "replay": {"u", "y_star", "f_true", "regret_avg", "theta_err"},
}


def _empty_column_problems(mode, name, trace):
    """One problem per trace column whose emptiness differs from its mode's."""
    problems = []
    for column in TRACE_COLUMNS[1:-1]:
        is_empty = getattr(trace, column) is None
        if is_empty != (column in _EMPTY_COLUMNS[mode]):
            state = "is empty, but {} fills it" if is_empty else "is filled, but {} leaves it empty"
            problems.append(f"{name}: column {column!r} " + state.format(mode))
    return problems


def _plant_columns(config_echo, trace):
    """A control trace's ``y_star`` (the target) and ``f_true``, link(theta* . phi_k).

    phi_k is rebuilt as the loop fills it: y_k..y_{k-p+1}, u_k..u_{k-q+1}, zeros before step 0.
    """
    control = config_echo["control"]
    p, q, n = control["p"], control["q"], len(trace)
    phi = np.zeros((n, p + q))
    for j in range(p):  # y_col[k] is y_{k+1}
        phi[j + 1:, j] = trace.y[: max(n - j - 1, 0)]
    for j in range(q):
        phi[j:, p + j] = trace.u[: max(n - j, 0)]
    z = row_dots(phi, np.array(config_echo["plant"]["theta_star"]))
    return {
        "y_star": (np.full(n, float(control["y_target"])), "the configured target"),
        "f_true": (_pair_of(config_echo).predictor.link(z), "link(theta* . phi) of the y, u lags"),
    }


def _derived_column_problems(config_echo, name, trace, regret):
    """One problem per trace column that differs, bit for bit, from its derivation.

    ``k`` must be the row index, ``loss`` the run's loss of (y, f_est) and
    ``regret_avg`` the running mean ``regret`` (unless None); ``summarize``
    reads none of them, so an edit to them would otherwise pass.  A control
    trace's ``y_star`` and ``f_true`` must be those of ``_plant_columns``,
    which also ties each ``u`` cell to its step's ``f_true``.
    """
    loss = SquaredError() if config_echo["mode"] == "replay" else _pair_of(config_echo).loss
    derived = {
        "k": (np.arange(len(trace)), "the row index"),
        "loss": (loss.eval(trace.y, trace.f_est), f"{loss.name}(y, f_est)"),
    }
    if regret is not None:
        derived["regret_avg"] = (regret, "the running mean of the regret")
    if config_echo["mode"] == "control":
        derived.update(_plant_columns(config_echo, trace))
    problems = []
    for column, (expected, what) in derived.items():
        got = getattr(trace, column)
        bad = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
        if bad.size:
            row = int(bad[0])
            problems.append(
                f"{name}: column {column!r} first differs from {what} at row {row} "
                f"(line {row + 2})"
            )
    return problems


def verify_report(report_path, tol=RECOMPUTE_TOL):
    """Recompute a report from its traces and echoed config; list mismatches.

    Returns (ok, problems).  Each run is summarized again by ``summarize``
    from its trace as read back from its file and compared with the reported
    summary as a whole: the keys must match, numbers must agree to ``tol``,
    and flag counts, checks and other values must be equal.  A finished
    report must hold one run per configured (algorithm, seed) cell, and its
    ``checks_overall``, ``comparison`` and ``bound_curve`` must equal those
    derived from the recomputed runs and the config (the first two only
    when every configured run was recomputed).  Each trace must leave empty
    exactly the columns its mode leaves empty; a trace that does not is one
    problem per column and is not summarized.  Each trace's ``k``,
    ``loss`` and ``regret_avg`` columns, and a control trace's ``y_star``
    and ``f_true``, must equal their derivation bit for bit.
    """
    report = _load_report(report_path)
    if isinstance(report_path, (str, os.PathLike)):
        out_dir = os.path.dirname(os.path.abspath(report_path))
    else:
        out_dir = report.get("config", {}).get("out_dir", ".")
    cfgd = report["config"]
    problems = []
    recomputed = {}
    for algo, by_seed in report["runs"].items():
        recomputed[algo] = {}
        for seed_key, summary in by_seed.items():
            if "trace" not in summary:
                problems.append(f"{algo}/{seed_key}: no trace named")
                continue
            trace = read_trace(os.path.join(out_dir, summary["trace"]))
            name = f"{algo}/{seed_key} ({summary['trace']})"
            if column_problems := _empty_column_problems(cfgd["mode"], name, trace):
                problems += column_problems  # summarize reads the mode's columns
                continue
            got, regret = _summarize(cfgd, trace)
            recomputed[algo][seed_key] = got
            got["trace"] = summary["trace"]
            _compare(f"{algo}/{seed_key}", summary, got, tol, problems)
            problems += _derived_column_problems(cfgd, name, trace, regret)
    if "error" not in report:
        seeds = cfgd["seeds"][:1] if cfgd["mode"] == "replay" else cfgd["seeds"]
        cells = {(algo, f"seed_{seed}") for algo in cfgd["algorithms"] for seed in seeds}
        reported = {(algo, key) for algo, by_seed in report["runs"].items() for key in by_seed}
        if reported != cells:
            problems.append(f"runs: reported cells {sorted(reported)}, configured {sorted(cells)}")
        derived = {}
        # the run-level blocks are derived only from a full set of recomputed runs
        if {(algo, key) for algo, by_seed in recomputed.items() for key in by_seed} == cells:
            derived["checks_overall"] = _checks_overall(recomputed)
            derived["comparison"] = _comparison_block(
                cfgd["algorithms"], recomputed, _WIN_METRIC[cfgd["mode"]]
            )
        if cfgd["mode"] in ("identify", "control"):
            derived["bound_curve"] = _bound_curve_block(cfgd)
        for name, value in derived.items():
            _compare(name, report.get(name), value, tol, problems)
    return (not problems), problems
