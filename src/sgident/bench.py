"""Experiment orchestration: configs, seed sweeps, traces, reports.

A run is fully determined by (config file, seed list): every persisted trace
byte and every report number is reproducible.  Each run's summary comes
from the running summary that `summarize` feeds, which reads only
persisted trace columns, so `verify_report` recomputes every reported
number by feeding it again the trace read back from its file.  A sweep streams: each chunk of steps of
every cell is folded into the running summary at once, as one Trace with
(steps, cells) columns, and appended to the cell's trace file, held open
for the sweep, then dropped.  Identify draws each chunk's inputs when the
loop asks for them, so in control and identify memory is bounded by chunk
x cells, not by the run length: the benchmark's 20-cell logistic
identification peaked at 3.07 MB of Python heap (tracemalloc; Python
3.11.7, NumPy 2.4.6) at 20,000 steps and at 3.12 MB at 200,000.  Replay
loads its dataset rows whole, into one array (48 B a row of five
features) that one ``np.loadtxt`` call reads, and that is what still
grows with the run: 2.29 MB at 40,000 rows, 20.61 MB at 400,000; its
summary keeps running sums.  ``verify_report`` and
``export_csv`` read a trace a chunk of rows at a time, so verifying that
replay peaked at 1.27 MB over 40,000 rows and at 1.37 MB over 400,000.  Configs are INI-style text, traces
fixed-width hex text (one line per step, each cell the bits of a 64-bit
value; ``export_csv`` renders them as decimal CSV), reports JSON with
sorted keys and no timestamps.
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
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field

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
    SumScan,
    bound_curve_at,
    gradient_noise,
    gradient_norms_sq,
    realized_noise,
    regret_sum,
    relative_errors,
    tracking_error,
)
from .models import (
    LinearModel,
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
# verify_report's bound on a modified run's mu_k against its gain law: taking ||g_k||^2 as
# the increment of r_k moved it by at most 3.0e-14 relative on the benchmark's inputs
GAIN_LAW_RTOL = 1e-12


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


class _Text(str):
    """A setting as a config file's text, which ``_get`` parses; a JSON value is not parsed."""


def _of(*types):
    """The test that a JSON value has one of ``types``; a bool is no number."""
    return lambda value: isinstance(value, types) and (bool in types or type(value) is not bool)


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


_is_number = _of(int, float)


def _float_list(raw):
    return np.array([float(x) for x in raw.split(",") if x.strip() != ""])


def _int_list(raw):
    try:
        return tuple(int(x) for x in raw.split(",") if x.strip() != "")
    except ValueError:
        raise ValueError("expected comma-separated integers") from None


def _str_list(raw):
    return tuple(x.strip() for x in raw.split(",") if x.strip() != "")


def _bool(raw):
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# each kind of setting: the parser of its text, what its JSON value must be, the test of
# that value and the setting the value stands for
_STR = (str, "a string", _of(str), str)
_INT = (int, "an integer", _of(int), int)
_FLOAT = (float, "a number", _is_number, float)
_BOOL = (_bool, "a boolean", _of(bool), bool)
_FLOATS = (_float_list, "a list of numbers", _list_of(_is_number), lambda v: np.array(v, float))
_INTS = (_int_list, "a list of integers", _list_of(_of(int)), tuple)
_STRS = (_str_list, "a list of strings", _list_of(_of(str)), tuple)


def _get(sections, section, key, kind, default=_MISSING):
    """Setting ``section.key`` of ``kind``, taken out of ``sections``, or ``default`` if absent.

    A required key that is absent, and a value that does not read as
    ``kind``, are ConfigurationErrors naming it.
    """
    value = sections.get(section, {}).pop(key, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise ConfigurationError(f"{section}.{key}: required key is missing")
        return default
    parse, name, holds, load = kind
    text = isinstance(value, _Text)
    if not (text or holds(value)):
        raise ConfigurationError(f"{section}.{key}: {value!r} is not {name}")
    raw = value.strip() if text else value
    try:  # a JSON integer may be too large for a float
        return parse(raw) if text else load(raw)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{section}.{key}: cannot parse {raw!r} ({exc})") from None


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
    """Parse and validate an INI experiment config; violations name section.key.

    ``out_dir`` defaults to ``runs/<the file's name>``.  A pair that
    declares no convexity constants is a warning.
    """
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error in {path}: {exc}") from None
    if not read:
        raise ConfigurationError(f"config file unreadable: {path}")
    sections = {name: {key: _Text(cp.get(name, key)) for key in cp.options(name)}
                for name in cp.sections()}
    default_out = os.path.join("runs", os.path.splitext(os.path.basename(path))[0])
    sections.setdefault("experiment", {}).setdefault("out_dir", _Text(default_out))
    cfg = _config_from_sections(sections)
    if not cfg.pair.declares_constants():
        warnings.warn(cfg.caveats[0])
    return cfg


def _config_from_sections(sections) -> ExperimentConfig:
    """The ExperimentConfig of ``sections``, section -> key -> value, with every check of a config.

    A value is a config file's text (``_Text``), which is parsed, or a JSON
    value, as ``_echo_config`` writes it, which must have its key's type.
    Each violation is a ConfigurationError naming its section.key: a
    missing key, a value of another type, out of range or repeated, a key
    that the mode and pair do not read, a dimension, the plant noise, the
    pair, ``HyperParams`` and the step-size cap.  A pair that declares no
    convexity constants adds the caveat that the cap is not checked.
    """
    s = {}  # the keys no _get has taken
    for name, keys in sections.items():
        if not isinstance(keys, dict):
            raise ConfigurationError(f"{name}: {keys!r} is not an object")
        s[name] = dict(keys)
    mode = _get(s, "experiment", "mode", _STR)
    if mode not in MODES:
        raise ConfigurationError(f"experiment.mode: must be one of {MODES}, got {mode!r}")
    algorithms = _get(s, "experiment", "algorithms", _STRS, ("modified",))
    if not algorithms:
        raise ConfigurationError("experiment.algorithms: must list at least one algorithm")
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ConfigurationError(f"experiment.algorithms: unknown algorithm {algo!r}; "
                                     f"choose from {sorted(ALGORITHMS)}")
    _reject_repeats("experiment.algorithms", "algorithm", algorithms)
    n_steps = _get(s, "experiment", "n_steps", _INT)
    if n_steps < 1:
        raise ConfigurationError(f"experiment.n_steps: must be >= 1, got {n_steps}")
    seeds = check_seeds(_get(s, "experiment", "seeds", _INTS))
    out_dir = _get(s, "experiment", "out_dir", _STR)

    hyper = {key: _get(s, "hyper", key, _FLOAT) for key in ("mu", "beta1", "beta2", "beta3")}
    hyper["alpha_moment"] = _get(s, "hyper", "alpha_moment", _FLOAT, 4.0)
    hyper["outside_theorem_regime"] = _get(s, "hyper", "outside_theorem_regime", _BOOL, False)
    try:
        hyper = HyperParams(**hyper)
    except ConfigurationError as exc:
        raise ConfigurationError(f"hyper: {exc}") from None
    alpha_eps = _get(s, "hyper", "alpha_eps", _FLOAT, 0.5)
    if not (0.0 < alpha_eps < 1.0):
        raise ConfigurationError(f"hyper.alpha_eps: must lie in (0,1), got {alpha_eps}")

    cfg = ExperimentConfig(mode=mode, algorithms=algorithms, hyper=hyper, n_steps=n_steps,
                           seeds=seeds, out_dir=out_dir, alpha_eps=alpha_eps)
    if mode in ("identify", "control"):
        _load_plant_section(s, cfg)
    if mode == "control":
        _load_control_section(s, cfg)
    if mode == "replay":
        _load_replay_section(s, cfg)
    for section, key in ((name, key) for name, keys in s.items() for key in keys):
        raise ConfigurationError(
            f"{section}.{key}: not a setting of {mode} mode with pair {cfg.pair_name!r}")

    if cfg.pair.declares_constants():
        try:
            check_step_size_cap(cfg.hyper, cfg.pair)
        except ConfigurationError as exc:
            raise ConfigurationError(f"hyper.mu: {exc}") from None
    else:
        cfg.caveats.append(
            f"pair {cfg.pair_name!r} declares no convexity constants; the step-size "
            f"cap mu < min(1, 2*delta/c1) cannot be checked, proceeding with mu={cfg.hyper.mu}")
    if cfg.pair.operating_note and cfg.pair.operating_note not in cfg.caveats:
        cfg.caveats.append(cfg.pair.operating_note)
    return cfg


def _load_plant_section(s, cfg):
    if cfg.mode == "control":
        cfg.p = _get(s, "model", "p", _INT)
        cfg.q = _get(s, "model", "q", _INT)
        cfg.operating_bound = _get(s, "model", "operating_bound", _FLOAT, 1.0)
        cfg.pair_name = _get(s, "model", "pair", _STR, "tanh_mse")
        if cfg.pair_name != "tanh_mse":
            raise ConfigurationError(
                f"model.pair: control mode drives the tanh lag model; got {cfg.pair_name!r}")
        try:
            cfg.pair = tanh_mse_pair(cfg.p, cfg.q, m_bound=cfg.operating_bound)
        except ConfigurationError as exc:
            raise ConfigurationError(f"model: {exc}") from None
    else:
        cfg.pair_name = _get(s, "model", "pair", _STR)
        try:
            cfg.pair, cfg.sampler = catalog_pair(cfg.pair_name)
        except ConfigurationError as exc:
            raise ConfigurationError(f"model.pair: {exc}") from None
    dim = cfg.pair.predictor.dim
    cfg.theta_star = _get(s, "plant", "theta_star", _FLOATS)
    if cfg.theta_star.size != dim:
        raise ConfigurationError(f"plant.theta_star: expected {dim} entries for pair "
                                 f"{cfg.pair_name!r}, got {cfg.theta_star.size}")
    cfg.theta0 = _get(s, "plant", "theta0", _FLOATS, np.zeros(dim))
    if cfg.theta0.size != dim:
        raise ConfigurationError(f"plant.theta0: expected {dim} entries, got {cfg.theta0.size}")
    cfg.noise_kind = _get(s, "plant", "noise_kind", _STR, "gaussian")
    cfg.noise_std = _get(s, "plant", "noise_std", _FLOAT, 1.0)
    cfg.noise_df = _get(s, "plant", "noise_df", _FLOAT, None)
    try:
        NoiseSource(std=cfg.noise_std, seed=0, kind=cfg.noise_kind, df=cfg.noise_df)
    except ConfigurationError as exc:
        raise ConfigurationError(f"plant.noise_{exc.context['parameter']}: {exc}") from None


def _load_control_section(s, cfg):
    control = {key: _get(s, "control", key, kind, default) for key, kind, default in (
        ("y_target", _FLOAT, 0.5), ("u_max", _FLOAT, 1e3), ("b_eps", _FLOAT, 1e-8),
        ("root_tol", _FLOAT, 1e-10), ("root_max_iter", _INT, 200))}
    try:
        cfg.control = ControlConfig(**control)
    except ConfigurationError as exc:
        raise ConfigurationError(f"control.{exc}") from None


def _load_replay_section(s, cfg):
    cfg.features = _get(s, "replay", "features", _STRS)
    if not cfg.features:
        raise ConfigurationError("replay.features: must list at least one column")
    cfg.target_col = _get(s, "replay", "target", _STR)
    cfg.data_path = _get(s, "replay", "data", _STR, None)
    cfg.strict_csv = _get(s, "replay", "strict_csv", _BOOL, False)
    d = len(cfg.features)
    cfg.pair_name = _get(s, "replay", "pair", _STR, "saturation")
    if cfg.pair_name == "saturation":
        window = [_get(s, "replay", "lower", _FLOAT), _get(s, "replay", "upper", _FLOAT),
                  _get(s, "replay", "noise_std", _FLOAT, 1.0)]
        try:
            spec = SaturationSpec(*window)
        except ConfigurationError as exc:
            raise ConfigurationError(f"replay: {exc}") from None
        note = ("censored-mean pair used without declared convexity constants; "
                "step-size cap not enforced")
        cfg.pair = ModelLossPair(SaturatedMeanModel(spec, d), SquaredError(), operating_note=note)
    elif cfg.pair_name == "linear_mse":
        cfg.pair = ModelLossPair(LinearModel(d), SquaredError())
    else:
        raise ConfigurationError(f"replay.pair: supported pairs are 'saturation' and "
                                 f"'linear_mse', got {cfg.pair_name!r}")
    cfg.theta0 = _get(s, "replay", "theta0", _FLOATS, np.zeros(d))
    if cfg.theta0.size != d:
        raise ConfigurationError(f"replay.theta0: expected {d} entries, got {cfg.theta0.size}")


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
    digits of its 64-bit pattern, big-endian: float64 bits, and int64 for
    ``k`` and for the ``flags`` bitmask.

    A trace with no rows or whose ``k`` starts at 0 starts the file: the
    header, then its rows.  Any other trace continues a run, and its rows
    are appended, so writing a run chunk by chunk in step order gives the
    bytes of one write of the whole run; an open file is written at its
    position and left open, so a sweep keeps one per cell.  The chunk's
    big-endian words become their digits and separators in one
    ``memoryview.hex`` call.  A non-finite float cell or a flags value
    outside 0-7, which ``read_trace`` would reject, raises DataError naming
    its column and row, and a trace with a cell axis (see
    ``Trace.cell``) ConfigurationError, before anything is written.
    """
    names = ["k", *(name for name in TRACE_COLUMNS[1:-1] if getattr(trace, name) is not None),
             "flags"]
    if any(getattr(trace, name).ndim != 1 for name in names):
        raise ConfigurationError("a trace file holds one cell: write trace.cell(i) of each")
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
    big = np.flatnonzero(trace.flags.view(np.uint64) >= 1 << len(FLAGS))
    if big.size:
        row = int(big[0])
        raise DataError(f"flags value {trace.flags[row]} outside 0-7 in column 'flags' "
                        f"at row {row} (step {trace.k[row]})")
    words[-1] = trace.flags
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


def read_trace(path, rows=None):
    """Load a trace written by ``write_trace``, or the next ``rows`` rows of one, as a Trace.

    ``path`` is a file path, read whole, or a binary file open on a trace
    at a row boundary (or at its start), which is read from there: ``rows``
    rows, or as many as are left, and left open at the next row, so a
    reader takes a trace a chunk at a time; ``rows`` of None reads to the
    end.  A column the header leaves out is None; ``k`` holds the steps as
    written.  Each of these raises DataError with its file line (row i
    sits on line i + 2, the header on line 1): an empty file, a header that
    is not ``TRACE_FORMAT`` and known columns in ``TRACE_COLUMNS`` order
    from ``k`` to ``flags``, a separator other than "," between cells or LF
    after the last, a cell that is not 16 lowercase hex digits, a float
    cell that is not finite, a flags cell above 7 and, once a read reaches
    the last whole row, a final row cut short.  The rows are decoded
    ``_CHUNK`` at a time, and each pair of digits becomes its byte by one
    lookup in a 65,536-entry table.
    """
    named = isinstance(path, (str, os.PathLike))
    with open(path, "rb") if named else contextlib.nullcontext(path) as fh:
        source = path if named else fh.name
        at = fh.tell()
        fh.seek(0)
        names = _read_header(source, fh)
        header, size = fh.tell(), len(names) * _CELL
        first = max(at - header, 0) // size  # the row the read starts at
        fh.seek(header + first * size)
        left, short = divmod(os.fstat(fh.fileno()).st_size - fh.tell(), size)
        n = left if rows is None else min(rows, left)
        words = np.empty((len(names), n), np.int64)  # a column per row, filled in place
        for start in range(0, n, _CHUNK):
            m = min(_CHUNK, n - start)
            cells = np.frombuffer(fh.read(m * size), np.uint8).reshape(m, len(names), _CELL)
            words[:, start : start + m] = _decode_rows(source, names, cells, first + start).T
        if short and n == left:
            raise DataError(f"short final row in {source}", line=first + n + 2)
    columns = dict(zip(names, words))
    k, flags = columns.pop("k"), columns.pop("flags")
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
    big_flags = words[:, -1:].view(">u8") >= 1 << len(FLAGS)
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
    ``flags`` the ";"-joined names.  Each trace is read ``_CHUNK`` rows at
    a time by ``read_trace`` and each column of a chunk formatted by one
    ``repr`` of its list, so no trace is held whole.  A missing directory is
    a ConfigurationError; a directory with no trace and a trace
    ``read_trace`` rejects are DataErrors.  A trace whose export raises
    anything leaves no ``.part`` file and no new CSV (an earlier one is kept).
    """
    if not os.path.isdir(run_dir):
        raise ConfigurationError(f"run directory not found: {run_dir}")
    sources = sorted(name for name in os.listdir(run_dir)
                     if name.startswith("trace_") and name.endswith(".hex"))
    if not sources:
        raise DataError(f"no trace_*.hex file in {run_dir}")
    written = []
    for source in sources:
        path = os.path.join(run_dir, source.removesuffix(".hex") + ".csv")
        partial = path + ".part"
        try:
            with open(os.path.join(run_dir, source), "rb") as fh, \
                    open(partial, "w", encoding="ascii", newline="") as out:
                out.write(",".join(TRACE_COLUMNS) + "\r\n")
                while len(trace := read_trace(fh, _CHUNK)):
                    cells = [[""] * len(trace) if column is None
                             else repr(column.tolist())[1:-1].split(", ")
                             for column in (getattr(trace, name) for name in TRACE_COLUMNS[:-1])]
                    cells.append(FLAG_TEXT[trace.flags].tolist())
                    out.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(partial)
            raise
        os.replace(partial, path)
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
    """Identification's inputs as a ``draw(m)`` of ``closed_loop_chunks``: the next m steps' blocks.

    The blocks are (phi, y, f_true), one column per distinct seed.  Each
    seed draws its regressors alone from key (seed, 1), chunk after chunk
    (the catalog sampler's first draw, ``sampler.regressors``, so the rows
    of one draw of the whole run), and its noise from ``NoiseSource(seed)``:
    Bernoulli labels y = [u < f_true] from its uniforms under
    cross-entropy, y = f_true + w from its noise block otherwise.  So the
    inputs are never held for more than a chunk.
    """
    streams = [(np.random.Generator(sampler_bit_generator(seed)),
                NoiseSource(std=cfg.noise_std, seed=seed, kind=cfg.noise_kind, df=cfg.noise_df))
               for seed in dict.fromkeys(cfg.seeds)]
    labels = cfg.pair.loss.name == "cross_entropy"

    def draw(m):
        blocks = []
        for rng, noise in streams:
            phi = cfg.sampler.regressors(rng, m)
            f_true = cfg.pair.predictor.link(row_dots(phi, cfg.theta_star))
            y = (noise.uniform_block(m) < f_true).astype(float) if labels else (
                f_true + noise.draw_block(m))
            blocks.append((phi, y, f_true))
        return tuple(np.stack(column, axis=1) for column in zip(*blocks))

    return draw


def _load_replay_rows(cfg):
    """The dataset's accepted rows, one (rows, d + 1) array of features then target, and the
    report's ``dataset`` block.

    A file is read by one ``np.loadtxt`` call when that read succeeds with
    no warning but NumPy's note of a skipped blank line, and gives finite
    cells and positive targets only.  Any other file (a short, nonnumeric,
    non-finite or whitespace-only row, no rows, a target <= 0) is read
    again, unchanged, by the ``CsvStream`` of ``ingest_csv``, the one path
    that skips rows, counts them and names their lines, so its errors, skip
    counts and line numbers are the stream's.  Both give the same rows, bit
    for bit.
    """
    if not cfg.data_path:
        raise ConfigurationError("replay mode needs a dataset (replay.data or --data)")
    stream = ingest_csv(
        cfg.data_path,
        {"features": list(cfg.features), "target": cfg.target_col},
        strict=cfg.strict_csv,
        max_rows=cfg.n_steps,
    )
    rows = _read_rows_at_once(stream)
    if rows is None:
        rows = _read_rows_one_by_one(stream)
    return rows, {"path": cfg.data_path, "rows_used": len(rows), "rows_skipped": stream.skipped,
                  "skipped_lines": stream.skipped_lines}


def _read_rows_at_once(stream):
    """The rows of ``stream``'s file as one NumPy read, or None if ``CsvStream`` must read them.

    The header and the file's text are read as ``CsvStream`` reads them
    (UTF-8, any line end, ``csv`` quoting), and a repeated column name reads
    its last column.
    """
    with open(stream.path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on no rows
        # and on a blank line, which it skips, uncounted, as CsvStream does
        warnings.filterwarnings("ignore", r"Input line \d+ contained no data")
        try:
            header = next(csv.reader(fh))
            index = {name: i for i, name in enumerate(header)}
            rows = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                              encoding="utf-8", max_rows=stream.max_rows,
                              usecols=[index[c] for c in (*stream.features, stream.target)])
        except (StopIteration, KeyError, ValueError, csv.Error, Warning):
            return None
    # the relative error divides by every target
    return rows if np.isfinite(rows).all() and (rows[:, -1] > 0.0).all() else None


def _read_rows_one_by_one(stream):
    """The rows ``stream`` accepts, one (rows, d + 1) array; a target <= 0 is a DataError."""
    rows = array("d")
    for values, target in stream:
        if target <= 0.0:  # the relative error divides by every target
            raise DataError(f"target must be strictly positive in {stream.path}, got {target!r}",
                            line=stream.line)
        rows.extend(values)
        rows.append(target)
    if not rows:
        raise DataError(f"no usable rows in {stream.path}")
    return np.frombuffer(rows).reshape(-1, len(stream.features) + 1)


def _replay_inputs(rows):
    """The dataset ``rows`` as a ``draw(m)`` of ``closed_loop_chunks``: every cell's next m."""
    at = 0

    def draw(m):
        nonlocal at
        chunk, at = rows[at : at + m], at + m
        return chunk[:, None, :-1], chunk[:, None, -1], None

    return draw


def _run_sweep(cfg, cells, n, replay_rows):
    """The chunks of every (algorithm, seed) cell of the sweep, n steps, run as one batch.

    Replay runs every cell over the same dataset rows, ``replay_rows``,
    prequentially: each target is predicted before the update on it.
    """
    estimator = sg_init(cfg.theta0, cfg.hyper)
    if cfg.mode == "replay":
        return closed_loop_chunks(None, estimator, cfg.pair, _replay_inputs(replay_rows), n,
                                  cells)
    plant = Plant(
        model=cfg.pair.predictor,
        theta_star=cfg.theta_star,
        noise=NoiseSource(std=cfg.noise_std, kind=cfg.noise_kind, df=cfg.noise_df),
    )
    inputs = cfg.control if cfg.mode == "control" else _identify_inputs(cfg)
    return closed_loop_chunks(plant, estimator, cfg.pair, inputs, n, cells)


# ---------------------------------------------------------------------------
# per-run summaries and checks


def summarize(cfg, trace):
    """The summary of one run of ``cfg``: its numbers, flag counts and pass/fail checks.

    This is one feed of the whole trace into the running summary that
    ``run_experiment`` feeds chunk by chunk, every cell of its sweep at
    once, with the same bits either way; ``verify_report`` feeds it each
    trace read back from its file, a chunk at a time, with the config it
    rebuilds from the report's echo, so every reported number has one
    implementation.  Only persisted columns are read, and not
    ``regret_avg``: the plant noise is ``y - f_true`` and the squared
    gradient norms are the increments of ``r_k``.  Values are plain Python
    floats, ints and bools.  A trace with no rows is a ``ConfigurationError``.
    """
    if not len(trace):
        raise ConfigurationError("trace has no rows; a summary needs at least one step")
    summary = _RunningSummary(cfg, len(trace))
    summary.feed(trace)
    return summary.result(0)


class _RunningSummary:
    """The summaries of ``cells`` runs of ``n`` steps each, fed side by side in consecutive chunks.

    ``feed(trace)`` takes the next m steps of every run as a Trace whose
    (m, cells) columns have run i in column i, or of a single run as a
    Trace with (m,) columns.  It returns the steps' regret running means,
    (m, cells) (None in replay).
    ``result(i)`` is ``summarize``'s dict of run i once all ``n`` steps are
    fed.  Each chunk's values go into three folds keyed by the report field
    they become: compensated sums (a ``metrics.SumScan`` each, reported as
    means over n but ``rs_total``), running maxima and counts (reported as
    they are but ``out_of_band_fraction``, over n).  Each column keeps the
    bits of its run fed alone.  Only what is no plain fold keeps its own
    state: the Robbins-Siegmund sum from step n // 2 on, the one running-mean
    checkpoint (regret at step 500, replay's relative error at row 1000),
    ``MinPhaseScan``, the last ``r_k`` and the last ``theta_err``.
    """

    _FLAG_BITS = np.array([*FLAG_BIT.values()])[:, None, None]  # in FLAGS order

    def __init__(self, cfg, n, cells=1):
        self.mode, self.hyper, self.pair, self.n = cfg.mode, cfg.hyper, cfg.pair, n
        self.r_last = self.hyper.beta3  # r_{-1}
        self.sums, self.maxima, self.counts = defaultdict(SumScan), {}, {}
        self.rs_tail = SumScan()  # the Robbins-Siegmund terms mu_k^2 ||g_k||^2 from n // 2 on
        self.at = 1000 if self.mode == "replay" else 500  # the running mean's checkpoint step
        self.at_mean = self.theta_err = None
        if self.mode == "control":
            self.root_tol = cfg.control.root_tol
            # |f_est| > tanh(bound) iff the estimated preactivation left the band
            self.edge = math.tanh(cfg.operating_bound)
            self.min_phase = MinPhaseScan()

    def feed(self, trace):
        if trace.flags.ndim == 1:  # a single run is a sweep of one cell
            columns = {name: getattr(trace, name) for name in TRACE_COLUMNS[1:]}
            trace = Trace(trace.k, **{name: None if column is None else column[:, None]
                                      for name, column in columns.items()})
        first = self.sums["rs_total"].count
        grad_norm_sq = gradient_norms_sq(trace, self.r_last)
        self.r_last = trace.r_k[-1].copy()
        terms = trace.mu_k**2 * grad_norm_sq
        self.rs_tail.cumsum(terms[max(self.n // 2 - first, 0) :])
        sums = {"rs_total": terms}
        maxima = {"step_size_law_max": trace.mu_k * grad_norm_sq}
        counts = {"flag_counts": trace.flags & self._FLAG_BITS}
        if self.mode == "replay":
            means = self.sums["final_relative_error"].means(relative_errors(trace.f_est, trace.y))
        else:
            means = self.sums["final_average_regret"].means(regret_sum(trace, self.pair.loss))
            self.theta_err = trace.theta_err[-1].copy()
            noise = realized_noise(trace)
            if isinstance(self.pair.loss, SquaredError):
                # the measured gradient noise collapses to -2w for squared error
                gap = gradient_noise(trace, self.pair) + 2.0 * noise
                maxima["gradient_noise_max_dev"] = np.abs(gap)
        if self.mode == "control":
            sums["final_tracking_conditional"], sums["final_tracking_proxy"] = tracking_error(trace)
            counts["out_of_band_fraction"] = np.abs(trace.f_est) > self.edge  # over n below
            maxima["min_phase_max"] = self.min_phase.ratios(trace.y, trace.u, noise)
            # closed-loop ledger: y - y* - w should equal f_true - f_est on clean steps
            clean = counts["identity_steps_checked"] = trace.flags == 0
            ledger = trace.y - trace.y_star - noise - (trace.f_true - trace.f_est)
            maxima["identity_max_dev"] = np.where(clean, np.abs(ledger), 0.0)
        if first < self.at <= first + len(means):
            self.at_mean = means[self.at - 1 - first].copy()
        for key, values in sums.items():
            self.sums[key].cumsum(values)
        for key, values in maxima.items():  # NaN-propagating
            self.maxima[key] = np.maximum(self.maxima.get(key, -np.inf), np.max(values, axis=0))
        for key, values in counts.items():  # down the steps axis
            self.counts[key] = self.counts.get(key, 0) + np.count_nonzero(values, axis=-2)
        return None if self.mode == "replay" else means

    def result(self, i):
        n = self.n
        out = {key: float(scan.total[i] / n) for key, scan in self.sums.items()}
        out |= {key: float(top[i]) for key, top in self.maxima.items()}
        out |= {key: count[..., i].tolist() for key, count in self.counts.items()}
        out["flag_counts"] = dict(zip(FLAGS, out["flag_counts"]))
        total = out["rs_total"] = float(self.sums["rs_total"].total[i])
        out["rs_tail_fraction"] = 0.0 if total <= 0.0 else float(self.rs_tail.total[i]) / total
        checks = out["checks"] = {
            "step_size_law": out["step_size_law_max"] <= self.hyper.mu * (1 + 1e-12),
            "no_divergence": out["flag_counts"]["divergence"] == 0,
        }
        if self.mode == "replay":
            # the relative_error_metric of the first 1000 rows and of all n
            checkpoints = {"1000": float(self.at_mean[i])} if n > 1000 else {}
            out["relative_error_checkpoints"] = {**checkpoints, "final": out["final_relative_error"]}
            out["rows_used"] = n
            return out
        if self.at_mean is not None:
            out["average_regret_at_500"] = float(self.at_mean[i])
        out["final_theta_err"] = float(self.theta_err[i])
        if "gradient_noise_max_dev" in out:
            checks["gradient_noise_identity"] = out["gradient_noise_max_dev"] <= GRADIENT_NOISE_TOL
        if self.mode == "control":
            out["out_of_band_fraction"] /= n
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
    """``cfg`` as the sections and keys of its config file, every default filled in, as JSON
    values; ``_config_from_sections`` builds ``cfg`` again from it.  A setting of None is
    left out."""
    echo = {
        "experiment": {"mode": cfg.mode, "algorithms": list(cfg.algorithms),
                       "n_steps": cfg.n_steps, "seeds": list(cfg.seeds), "out_dir": cfg.out_dir},
        "hyper": {**asdict(cfg.hyper), "alpha_eps": cfg.alpha_eps},
    }
    if cfg.mode == "replay":
        echo["replay"] = {"features": list(cfg.features), "target": cfg.target_col,
                          "data": cfg.data_path, "strict_csv": cfg.strict_csv,
                          "pair": cfg.pair_name, "theta0": cfg.theta0.tolist()}
        if cfg.pair_name == "saturation":
            echo["replay"].update(asdict(cfg.pair.predictor.spec))
    else:
        echo["model"] = {"pair": cfg.pair_name}
        echo["plant"] = {"theta_star": cfg.theta_star.tolist(), "theta0": cfg.theta0.tolist(),
                         "noise_kind": cfg.noise_kind, "noise_std": cfg.noise_std,
                         "noise_df": cfg.noise_df}
    if cfg.mode == "control":
        echo["model"].update(p=cfg.p, q=cfg.q, operating_bound=cfg.operating_bound)
        echo["control"] = asdict(cfg.control)
    return {name: {key: value for key, value in keys.items() if value is not None}
            for name, keys in echo.items()}


def _bound_curve_block(cfg):
    """The report's reference-curve block."""
    n_steps, alpha_eps = cfg.n_steps, cfg.alpha_eps
    steps = [n for n in (100, 500, 1000, n_steps) if 1 <= n <= n_steps]
    curve = bound_curve_at(cfg.hyper, alpha_eps, steps)
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
    (and its context), and re-raises.  A per-step ``control.y_target``,
    which the report cannot hold, is rejected before anything is made:
    per-step targets are for ``run_closed_loop_batch``.
    """
    if cfg.control is not None and np.ndim(cfg.control.y_target) != 0:
        raise ConfigurationError(f"control.y_target: must be a scalar (a report holds one "
                                 f"target), got shape {np.shape(cfg.control.y_target)}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    report = {
        "config": _echo_config(cfg),
        "caveats": list(cfg.caveats),
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
            replay_rows, report["dataset"] = _load_replay_rows(cfg)
        # replay: the data stream is fixed, so one pass per algorithm
        seeds = cfg.seeds[:1] if cfg.mode == "replay" else cfg.seeds
        cells = [(algo, seed) for algo in cfg.algorithms for seed in seeds]
        names = [f"trace_{algo}_{'replay' if cfg.mode == 'replay' else f'seed{seed}'}.hex"
                 for algo, seed in cells]
        n = report["dataset"]["rows_used"] if cfg.mode == "replay" else cfg.n_steps
        summary = _RunningSummary(cfg, n, len(cells))
        with contextlib.ExitStack() as files:
            handles = []
            for name in names:
                opened.append(os.path.join(cfg.out_dir, name))
                handles.append(files.enter_context(open(opened[-1], "wb")))
            for chunk in _run_sweep(cfg, cells, n, replay_rows):
                regret = summary.feed(chunk)
                # a cell at a time through write_trace, where perfbench's tracer counts rows
                for i, handle in enumerate(handles):
                    trace = chunk.cell(i)
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
        report["bound_curve"] = _bound_curve_block(cfg)
    comparison = _comparison_block(cfg.algorithms, report["runs"], _WIN_METRIC[cfg.mode])
    if comparison is not None:
        report["comparison"] = comparison
    report["checks_overall"] = _checks_overall(report["runs"])

    _write_report(report_path, report)
    return RunReport(data=report, path=report_path)


def _write_report(path, report):
    """Write ``report`` to ``path`` whole or not at all: to ``path``.part, then renamed."""
    part = path + ".part"
    try:
        with open(part, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


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
    cfg_a, cfg_b = _config_from_sections(a["config"]), _config_from_sections(b["config"])
    if cfg_a.mode != cfg_b.mode:
        raise ConfigurationError(
            f"cannot compare runs of different modes: {cfg_a.mode} vs {cfg_b.mode}")
    same = a is b or a == b
    algos_a, algos_b = cfg_a.algorithms, cfg_b.algorithms
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
        "mode": cfg_a.mode,
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


# the columns each mode leaves empty; every other column is filled on every row
_EMPTY_COLUMNS = {
    "control": set(),
    "identify": {"u", "y_star"},
    "replay": {"u", "y_star", "f_true", "regret_avg", "theta_err"},
}
# rows verify_report reads, summarizes and checks at a time, so no trace is
# held whole.  Each chunk has a fixed cost: cut as 4,096 + 904 rows, the 20
# 5,000-row paper_sim traces verified in 84 ms, against 69 ms in one piece
_VERIFY_ROWS = 8192


def _empty_column_problems(mode, name, names):
    """One problem per column whose emptiness, by the header's ``names``, is not its mode's."""
    problems = []
    for column in TRACE_COLUMNS[1:-1]:
        is_empty = column not in names
        if is_empty != (column in _EMPTY_COLUMNS[mode]):
            state = "is empty, but {} fills it" if is_empty else "is filled, but {} leaves it empty"
            problems.append(f"{name}: column {column!r} " + state.format(mode))
    return problems


class _DerivedColumns:
    """The trace columns ``summarize`` does not read, and the gain law, checked against their
    derivation.

    ``feed(trace, regret)`` takes a run's next rows and the running mean of
    their regret (None in replay); ``problems(name)`` then names each column
    that differs, at its first differing row.  ``k`` must be the row index,
    ``loss`` the run's loss of (y, f_est) and ``regret_avg`` the running
    mean ``regret``; an edit to them would otherwise pass.  A control
    trace's ``y_star`` must be the target and ``f_true`` link(theta* .
    phi_k), with phi_k rebuilt as the loop fills it: y_k..y_{k-p+1},
    u_k..u_{k-q+1}, zeros before step 0; so an edited ``u`` cell shows in
    its step's ``f_true``.  Those match bit for bit.  ``r_k`` must never
    decrease, from r_{-1} = beta3, and every row's ``mu_k`` must follow the
    gain law: mu / r_k bit for bit on a classical run, and on any other
    within ``GAIN_LAW_RTOL`` of mu / (r_k^beta1 ln(r_k)^beta2 + ||g_k||^2),
    with ||g_k||^2 taken as the increment of ``r_k``; so an edited ``mu_k``
    or ``r_k`` cell, or a ``mu``, ``beta1`` or ``beta2`` that no longer
    matches the traces, shows.  By the triangle inequality, a change of
    ``theta_err`` from row k to k + 1 must lie within row k's step mu_k
    |dL/dx(y, f_est)| ||g_k||.  The row offset, the last ``r_k``,
    ``theta_err`` and step, and the last p outputs and q inputs carry from
    feed to feed, so any cut gives the same problems.
    """

    def __init__(self, cfg, algorithm):
        self.cfg, self.loss, self.hyper = cfg, cfg.pair.loss, cfg.hyper
        self.classical = algorithm == "classical"
        self.law = "mu / r_k" if self.classical else "the modified gain law"
        self.r_last = self.hyper.beta3  # r_{-1}
        self.rows = 0
        # the last row's theta_err and its step bound, none before the first feed
        self.err_last = self.step_last = np.empty(0)
        # column -> (row, what it first differs from there), None while it matches
        self.first_bad = dict.fromkeys(("k", "loss", "regret_avg", "y_star", "f_true", "mu_k",
                                        "theta_err", "r_k"))
        self.y_lags, self.u_lags = np.zeros(cfg.p), np.zeros(cfg.q)

    def feed(self, trace, regret):
        m, cfg = len(trace), self.cfg
        derived = {
            "k": (np.arange(self.rows, self.rows + m), "the row index"),
            "loss": (self.loss.eval(trace.y, trace.f_est), f"{self.loss.name}(y, f_est)"),
        }
        if regret is not None:
            derived["regret_avg"] = (regret, "the running mean of the regret")
        if cfg.mode == "control":
            p, q = cfg.p, cfg.q
            y, u = np.concatenate((self.y_lags, trace.y)), np.concatenate((self.u_lags, trace.u))
            phi = np.empty((m, p + q))
            for j in range(p):  # y[p + i] is y_{i+1} of this feed's row i
                phi[:, j] = y[p - j - 1 : p - j - 1 + m]
            for j in range(q):
                phi[:, p + j] = u[q - j : q - j + m]
            self.y_lags, self.u_lags = y[len(y) - p :], u[len(u) - q :]
            derived["y_star"] = (np.full(m, cfg.control.y_target), "the configured target")
            derived["f_true"] = (cfg.pair.predictor.link(row_dots(phi, cfg.theta_star)),
                                 "link(theta* . phi) of the y, u lags")
        bad = {column: (getattr(trace, column).view(np.int64) != expected.view(np.int64), what)
               for column, (expected, what) in derived.items()}
        grad_norm_sq = np.diff(trace.r_k, prepend=self.r_last)  # ||g_k||^2, as r_k rounds it
        self.r_last = trace.r_k[-1]
        r, hyper = trace.r_k, self.hyper
        with np.errstate(all="ignore"):  # an edited r_k may leave the law's domain
            if self.classical:
                off_law = hyper._mu / r != trace.mu_k
            else:
                law = hyper._mu / (r**hyper._beta1 * np.log(r) ** hyper._beta2 + grad_norm_sq)
                off_law = ~((r > 1.0) & (np.abs(trace.mu_k - law) <= GAIN_LAW_RTOL * law))
            bad["mu_k"] = (off_law, f"{self.law} of the echoed hyperparameters")
            bad["r_k"] = (grad_norm_sq < 0.0, "a sum that never decreases, from beta3")
            if trace.theta_err is not None:
                # ||theta_{k+1} - theta_k|| = mu_k |dL/dx| ||g_k||; ||g_k|| from the increment
                # of r_k and its rounding, and a slack of 1e-12 relative and 4 ulp of theta_err
                step = trace.mu_k * np.abs(self.loss.grad_x(trace.y, trace.f_est)) * (
                    np.sqrt(np.maximum(grad_norm_sq, 0.0)) + np.sqrt(2.0 * np.spacing(r)))
                err = np.concatenate((self.err_last, trace.theta_err))
                step = np.concatenate((self.step_last, step))
                bound = step[:-1] * (1 + 1e-12) + 4.0 * np.spacing(np.maximum(err[:-1], err[1:]))
                jumps = np.abs(np.diff(err)) > bound  # pair j ends at err[j + 1]
                bad["theta_err"] = (np.pad(jumps, (m - len(jumps), 0)),
                                    "a step of at most mu_k |dL/dx| ||g_k|| from the row before")
                self.err_last, self.step_last = err[-1:], step[-1:]
        for column, (rows, what) in bad.items():
            rows = np.flatnonzero(rows)
            if rows.size and self.first_bad[column] is None:
                self.first_bad[column] = (self.rows + int(rows[0]), what)
        self.rows += m

    def problems(self, name):
        problems = []
        for column, found in self.first_bad.items():
            if found is not None:
                row, what = found
                problems.append(f"{name}: column {column!r} first differs from {what} "
                                f"at row {row} (line {row + 2})")
        return problems


def _verify_trace(cfg, algorithm, name, path, n, problems):
    """The summary of ``algorithm``'s run traced at ``path`` and its derived-column problems, a
    chunk at a time.

    A trace whose header does not name its mode's columns, or whose row
    count is not ``n``, adds its problems to ``problems`` and gives None,
    from the header and the file size, before any row is read.
    """
    with open(path, "rb") as fh:
        names = _read_header(path, fh)
        if column_problems := _empty_column_problems(cfg.mode, name, names):
            problems += column_problems  # the summary reads the mode's columns
            return None
        rows = (os.fstat(fh.fileno()).st_size - fh.tell()) // (len(names) * _CELL)
        if rows != n:
            problems.append(f"{name}: {rows} rows, but the run has {n} steps")
            return None
        summary = _RunningSummary(cfg, n)
        derived = _DerivedColumns(cfg, algorithm)
        for _ in range(0, n, _VERIFY_ROWS):
            chunk = read_trace(fh, _VERIFY_ROWS)
            regret = summary.feed(chunk)
            derived.feed(chunk, None if regret is None else regret[:, 0])
            del chunk, regret  # so the next read holds no chunk but its own
    return summary.result(0), derived.problems(name)


def _blocks(report):
    """Each block of ``report`` that ``verify_report`` reads, by path; each must be an object."""
    yield "config", report.get("config", {})
    yield "dataset", report.get("dataset", {})
    yield "runs", report.get("runs")
    for algo, by_seed in report["runs"].items():
        yield f"runs.{algo}", by_seed
        for seed_key, summary in by_seed.items():
            yield f"runs.{algo}.{seed_key}", summary


def verify_report(report_path, tol=RECOMPUTE_TOL):
    """Recompute a report from its traces and echoed config; list mismatches.

    Returns (ok, problems).  The echoed config is built again, with every
    check of ``load_config``, into the ``ExperimentConfig`` that the run and
    the checks below read.  Each run is summarized again as ``summarize``
    does, from its trace as read back from its file, and compared with the reported
    summary as a whole: the keys must match, numbers must agree to ``tol``,
    and flag counts, checks and other values must be equal.  A finished
    report must hold one run per configured (algorithm, seed) cell, and its
    ``checks_overall``, ``comparison`` and ``bound_curve`` must equal those
    derived from the recomputed runs and the config (the first two only
    when every configured run was recomputed); its ``caveats`` must be the
    config's.  Each trace must leave empty
    exactly the columns its mode leaves empty; a trace that does not is one
    problem per column and is not summarized, and so is a trace whose
    row count is not the run's step count (``n_steps``, or the replayed
    ``rows_used``); both are found from the header and the file size before
    any row is read.  Each trace's ``k``, ``loss`` and ``regret_avg``
    columns, and a control trace's ``y_star`` and ``f_true``, must equal
    their derivation bit for bit, every ``mu_k`` the echoed gain law, ``r_k``
    never decrease, and each change of ``theta_err`` lie within the step's bound (see
    ``_DerivedColumns``).  A trace is read
    ``_VERIFY_ROWS`` rows at a time by ``read_trace``, and each chunk goes
    to the running summary that ``run_experiment`` feeds and to the
    derived-column checks, so no trace is held whole.  An echoed config that
    ``load_config``'s checks reject is the one problem ``config.`` and the
    ``ConfigurationError``'s message, naming its section and key; a config,
    replay ``dataset``, runs, run block or run summary that is not an
    object (or no ``runs``) is the one problem naming it; either ends the
    check.  A report file whose top level is not a JSON object is one
    problem.  A run whose trace is not a file in the report's directory,
    named bare, is one problem and is not summarized.
    """
    report = _load_report(report_path)
    if not isinstance(report, dict):
        return False, [f"{os.fspath(report_path)}: not a JSON object"]
    for name, block in _blocks(report):
        if not isinstance(block, dict):
            return False, [f"{name}: {'missing' if block is None else 'not an object'}"]
    try:
        cfg = _config_from_sections(report.get("config", {}))
    except ConfigurationError as exc:
        return False, [f"config.{exc}"]
    out_dir = (os.path.dirname(os.path.abspath(report_path))
               if isinstance(report_path, (str, os.PathLike)) else cfg.out_dir)
    problems = []
    n = report.get("dataset", {}).get("rows_used") if cfg.mode == "replay" else cfg.n_steps
    recomputed = {}
    for algo, by_seed in report["runs"].items():
        recomputed[algo] = {}
        for seed_key, summary in by_seed.items():
            if "trace" not in summary:
                problems.append(f"{algo}/{seed_key}: no trace named")
                continue
            trace = summary["trace"]
            name = f"{algo}/{seed_key} ({trace})"
            if not (isinstance(trace, str) and os.path.basename(trace) == trace
                    and os.path.isfile(path := os.path.join(out_dir, trace))):
                problems.append(f"{name}: not a file in the report's directory")
                continue
            read = _verify_trace(cfg, algo, name, path, n, problems)
            if read is None:
                continue
            got, derived_problems = read
            recomputed[algo][seed_key] = got
            got["trace"] = trace
            _compare(f"{algo}/{seed_key}", summary, got, tol, problems)
            problems += derived_problems
    derived = {"caveats": list(cfg.caveats)}
    if "error" not in report:
        seeds = cfg.seeds[:1] if cfg.mode == "replay" else cfg.seeds
        cells = {(algo, f"seed_{seed}") for algo in cfg.algorithms for seed in seeds}
        reported = {(algo, key) for algo, by_seed in report["runs"].items() for key in by_seed}
        if reported != cells:
            problems.append(f"runs: reported cells {sorted(reported)}, configured {sorted(cells)}")
        # the run-level blocks are derived only from a full set of recomputed runs
        if {(algo, key) for algo, by_seed in recomputed.items() for key in by_seed} == cells:
            derived["checks_overall"] = _checks_overall(recomputed)
            derived["comparison"] = _comparison_block(
                cfg.algorithms, recomputed, _WIN_METRIC[cfg.mode]
            )
        if cfg.mode in ("identify", "control"):
            derived["bound_curve"] = _bound_curve_block(cfg)
    for name, value in derived.items():
        _compare(name, report.get(name), value, tol, problems)
    return not problems, problems
