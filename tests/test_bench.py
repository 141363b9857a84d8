"""Experiment harness: config parsing, CSV ingestion, traces, reports.

The experiment fixtures here are deliberately tiny (tens of steps) so the
whole module stays fast; full-scale behavior is covered by the acceptance
suite.
"""

import copy
import csv
import hashlib
import importlib.util
import itertools
import json
import math
import os
import pathlib
import shutil
import tempfile
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgident.bench as bench_module
from sgident.bench import (
    TRACE_COLUMNS,
    compare_runs,
    ingest_csv,
    load_config,
    preset_path,
    read_trace,
    render_comparison,
    run_experiment,
    sampler_bit_generator,
    summarize,
    verify_report,
    write_trace,
)
from sgident.control import NoiseSource, Trace
from sgident.errors import ConfigurationError, DataError, NumericError

CONTROL_CFG = """
[experiment]
mode = control
algorithms = modified, classical
n_steps = 40
seeds = 1, 2
out_dir = {out}

[hyper]
mu = 0.3
beta1 = 0.5
beta2 = 0.51
beta3 = 2.0

[model]
p = 3
q = 2

[plant]
theta_star = 0.01, 3.0, -0.1, 0.6, -0.3
theta0 = 0.01, 0.01, 0.01, 0.01, 0.01
noise_std = 0.05
"""

IDENTIFY_CFG = """
[experiment]
mode = identify
algorithms = modified
n_steps = 60
seeds = 3
out_dir = {out}

[hyper]
mu = 0.3
beta1 = 0.5
beta2 = 0.51
beta3 = 2.0

[model]
pair = linear_mse

[plant]
theta_star = 1.0, -0.5, 0.25
noise_std = 0.1
"""

REPLAY_CFG = """
[experiment]
mode = replay
algorithms = modified, classical
n_steps = 200
seeds = 0
out_dir = {out}

[hyper]
mu = 0.3
beta1 = 0.5
beta2 = 0.51
beta3 = 2.0

[replay]
pair = saturation
lower = 6.0
upper = 120.0
noise_std = 5.0
features = f0, f1, f2, f3, f4
target = y
data = {data}
"""


def _write_cfg(directory, text, **subs):
    path = directory / "exp.cfg"
    path.write_text(textwrap.dedent(text).format(**subs))
    return str(path)


@pytest.fixture(scope="module")
def control_report(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_control")
    cfg = load_config(_write_cfg(root, CONTROL_CFG, out=root / "runs"))
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def identify_report(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_identify")
    cfg = load_config(_write_cfg(root, IDENTIFY_CFG, out=root / "runs"))
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def small_replay_report(tmp_path_factory, corpus_csv):
    root = tmp_path_factory.mktemp("bench_replay")
    path = _write_cfg(root, REPLAY_CFG, out=root / "runs", data=corpus_csv)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # censored pair declares no constants
        cfg = load_config(path)
    return run_experiment(cfg)


class TestLoadConfig:
    def test_bundled_control_preset(self):
        cfg = load_config(preset_path("paper_sim.cfg"))
        assert cfg.mode == "control"
        assert cfg.algorithms == ("modified", "classical")
        assert cfg.n_steps == 5000
        assert cfg.seeds == tuple(range(1, 11))
        assert (cfg.hyper.mu, cfg.hyper.beta1, cfg.hyper.beta3) == (0.3, 0.5, 2.0)
        assert abs(cfg.hyper.beta2 - 2.0 / 3.0) < 1e-15
        assert (cfg.p, cfg.q) == (3, 2)
        assert cfg.operating_bound == 1.0
        assert cfg.control.y_target == 0.5
        assert cfg.noise_std == 0.05
        assert np.array_equal(cfg.theta_star, [0.01, 3.0, -0.1, 0.6, -0.3])
        # declared constants are a band-restricted empirical assertion; the
        # pair's one caveat records that, and no missing-constants warning fires
        assert len(cfg.caveats) == 1
        assert "band" in cfg.caveats[0]

    def test_bundled_replay_preset_warns_about_missing_constants(self):
        with pytest.warns(UserWarning, match="declares no convexity constants"):
            cfg = load_config(preset_path("paper_replay.cfg"))
        assert cfg.mode == "replay"
        assert cfg.features == ("f0", "f1", "f2", "f3", "f4")
        assert cfg.target_col == "y"
        assert cfg.strict_csv is False
        assert cfg.caveats

    def test_unknown_preset_name(self):
        with pytest.raises(ConfigurationError, match="no bundled preset"):
            preset_path("nope.cfg")

    def test_missing_key_names_section_and_key(self, tmp_path):
        text = CONTROL_CFG.replace("mu = 0.3\n", "")
        with pytest.raises(ConfigurationError, match=r"hyper\.mu"):
            load_config(_write_cfg(tmp_path, text, out=tmp_path))

    def test_unparsable_value_is_named(self, tmp_path):
        text = CONTROL_CFG.replace("mu = 0.3", "mu = fast")
        with pytest.raises(ConfigurationError, match=r"hyper\.mu.*fast"):
            load_config(_write_cfg(tmp_path, text, out=tmp_path))

    def test_unknown_mode_rejected(self, tmp_path):
        text = CONTROL_CFG.replace("mode = control", "mode = train")
        with pytest.raises(ConfigurationError, match="experiment.mode"):
            load_config(_write_cfg(tmp_path, text, out=tmp_path))

    def test_unknown_algorithm_rejected(self, tmp_path):
        text = CONTROL_CFG.replace("modified, classical", "modified, sgd")
        with pytest.raises(ConfigurationError, match="sgd"):
            load_config(_write_cfg(tmp_path, text, out=tmp_path))

    @pytest.mark.parametrize("old,new,message", [
        ("algorithms = modified, classical", "algorithms = modified, modified",
         "experiment.algorithms: algorithm 'modified' is listed more than once"),
        ("seeds = 1, 2", "seeds = 1, 2, 1",
         "experiment.seeds: seed 1 is listed more than once"),
    ], ids=["algorithms", "seeds"])
    def test_repeated_entry_rejected(self, tmp_path, old, new, message):
        # a repeated cell would run twice and count as a tie with itself
        text = CONTROL_CFG.replace(old, new)
        with pytest.raises(ConfigurationError) as exc:
            load_config(_write_cfg(tmp_path, text, out=tmp_path))
        assert str(exc.value) == message

    @pytest.mark.parametrize("old,new,message", [
        ("beta3 = 2.0", "beta3 = 2.0\nbeta_3 = 9",
         "hyper.beta_3: not a setting of control mode with pair 'tanh_mse'"),
        ("q = 2", "q = 2\n\n[contrl]\nu_max = 5.0",
         "contrl.u_max: not a setting of control mode with pair 'tanh_mse'"),
        ("q = 2", "q = 2\n\n[replay]\nlower = 6.0",
         "replay.lower: not a setting of control mode with pair 'tanh_mse'"),
    ], ids=["key", "section", "other_mode"])
    def test_unread_setting_rejected(self, tmp_path, old, new, message):
        # a mistyped name would otherwise run on the default and exit 0
        text = CONTROL_CFG.replace(old, new)
        with pytest.raises(ConfigurationError) as exc:
            load_config(_write_cfg(tmp_path, text, out=tmp_path))
        assert str(exc.value) == message

    @pytest.mark.parametrize("seeds", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_rejected(self, tmp_path, seeds):
        text = CONTROL_CFG.replace("seeds = 1, 2", f"seeds = {seeds}")
        with pytest.raises(ConfigurationError) as exc:
            load_config(_write_cfg(tmp_path, text, out=tmp_path))
        assert str(exc.value) == (
            f"experiment.seeds: seed {seeds} outside unsigned 64-bit range")

    def test_step_size_cap_enforced_at_load(self, tmp_path):
        # tanh lag pair declares delta ~ 0.84, c1 = 4 -> cap 2*delta/c1 ~ 0.42
        text = CONTROL_CFG.replace("mu = 0.3", "mu = 0.5")
        with pytest.raises(ConfigurationError, match="cap"):
            load_config(_write_cfg(tmp_path, text, out=tmp_path))

    def test_theta_star_dimension_checked(self, tmp_path):
        text = CONTROL_CFG.replace("theta_star = 0.01, 3.0, -0.1, 0.6, -0.3",
                                   "theta_star = 1.0, 2.0")
        with pytest.raises(ConfigurationError, match="plant.theta_star"):
            load_config(_write_cfg(tmp_path, text, out=tmp_path))

    def test_inline_comments_are_stripped(self, tmp_path):
        text = CONTROL_CFG.replace("n_steps = 40", "n_steps = 40  # short smoke run")
        cfg = load_config(_write_cfg(tmp_path, text, out=tmp_path))
        assert cfg.n_steps == 40

    def test_identify_mode_wires_catalog_sampler(self, tmp_path):
        cfg = load_config(_write_cfg(tmp_path, IDENTIFY_CFG, out=tmp_path))
        assert cfg.mode == "identify"
        assert cfg.pair_name == "linear_mse"
        assert cfg.sampler is not None
        assert cfg.theta0.size == 3  # defaulted to zeros at the pair dimension

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(str(tmp_path / "absent.cfg"))


class TestIngestCsv:
    COLUMNS = {"features": ["a", "b"], "target": "y"}

    def _write(self, tmp_path, body, name="data.csv"):
        path = tmp_path / name
        path.write_text(body)
        return str(path)

    def test_clean_rows(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        stream = ingest_csv(path, self.COLUMNS)
        rows = list(stream)
        assert stream.rows_yielded == 2 and stream.skipped == 0
        phi, y = rows[0]
        assert isinstance(phi, np.ndarray) and phi.dtype == np.float64
        assert np.array_equal(phi, [1.0, 2.0]) and type(y) is float
        assert rows[1][1] == 6.0

    def test_lenient_mode_skips_and_counts(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n1,oops,3\n4,5,6\n")
        stream = ingest_csv(path, self.COLUMNS)
        rows = list(stream)
        assert len(rows) == 2
        assert stream.skipped == 1
        assert stream.skipped_lines == [3]  # header is line 1

    def test_strict_mode_raises_with_line(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n1,oops,3\n")
        with pytest.raises(DataError) as exc:
            list(ingest_csv(path, self.COLUMNS, strict=True))
        assert exc.value.line == 3

    NON_FINITE = "a,b,y\n1,2,3\nnan,2,3\n1,inf,3\n1,2,-inf\n4,5,6\n"

    def test_lenient_mode_skips_non_finite_cells(self, tmp_path):
        stream = ingest_csv(self._write(tmp_path, self.NON_FINITE), self.COLUMNS)
        rows = list(stream)
        assert [y for _, y in rows] == [3.0, 6.0]
        assert stream.rows_yielded == 2
        assert stream.skipped == 3
        assert stream.skipped_lines == [3, 4, 5]

    @pytest.mark.parametrize("bad_line", [3, 4, 5])
    def test_strict_mode_rejects_non_finite_cell_with_line(self, tmp_path, bad_line):
        lines = self.NON_FINITE.splitlines()
        body = "\n".join([lines[0], lines[1], lines[bad_line - 1]]) + "\n"
        with pytest.raises(DataError, match="non-finite") as exc:
            list(ingest_csv(self._write(tmp_path, body), self.COLUMNS, strict=True))
        assert exc.value.line == 3

    def test_rows_yielded_counts_only_accepted_rows(self, tmp_path):
        stream = ingest_csv(self._write(tmp_path, self.NON_FINITE), self.COLUMNS)
        seen = []
        for _ in stream:
            seen.append(stream.rows_yielded)
        assert seen == [1, 2]

    def test_blank_short_and_long_rows_and_a_repeated_name(self, tmp_path):
        # as csv.DictReader reads them: a blank line is no row but counts as a
        # line, a short row lacks its last cells, extra cells are ignored, and
        # a repeated column name reads its last column
        body = "a,b,y,a\n0,2,3,1\n\n1,2\n0,2,3,4,5\n"
        stream = ingest_csv(self._write(tmp_path, body), self.COLUMNS)
        assert [(phi.tolist(), y) for phi, y in stream] == [([1.0, 2.0], 3.0), ([4.0, 2.0], 3.0)]
        assert stream.skipped_lines == [4]
        assert stream.line == 5

    def test_missing_column_reported(self, tmp_path):
        path = self._write(tmp_path, "a,z,y\n1,2,3\n")
        with pytest.raises(DataError, match="'b'"):
            list(ingest_csv(path, self.COLUMNS))

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(DataError, match="no header"):
            list(ingest_csv(path, self.COLUMNS))

    def test_single_pass_enforced(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n")
        stream = ingest_csv(path, self.COLUMNS)
        list(stream)
        with pytest.raises(DataError, match="single-pass"):
            list(stream)

    def test_max_rows_caps_the_stream(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        stream = ingest_csv(path, self.COLUMNS, max_rows=2)
        assert len(list(stream)) == 2

    def test_bad_column_map(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n")
        with pytest.raises(ConfigurationError, match="column_map"):
            ingest_csv(path, {"features": ["a", "b"]})

    def test_missing_dataset_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            ingest_csv(str(tmp_path / "none.csv"), self.COLUMNS)


class TestTracePersistence:
    def _trace(self):
        return Trace(
            k=[0, 1, 2],
            y=np.array([0.1, -0.2, 0.4]),
            f_true=np.array([0.25, 0.3, 0.35]),
            f_est=np.array([1.0 / 3.0, 0.31, 0.32]),
            loss=np.array([0.05, 0.26, 0.01]),
            regret_avg=np.array([0.007, 0.004, 0.003]),
            theta_err=np.array([1.2, 1.1, 1.0]),
            mu_k=np.array([0.11, 0.09, 0.08]),
            r_k=np.array([2.4, 2.9, 3.1]),
            flags=["", "saturated;divergence", ""],
        )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        write_trace(path, self._trace())
        back = read_trace(path)
        assert len(back) == 3
        assert back.u is None and back.y_star is None
        assert back.f_est[0] == 1.0 / 3.0  # repr round-trips exactly
        assert back.flags[1] == "saturated;divergence"
        assert back.r_k[1] == 2.9
        assert back == self._trace()

    def test_crlf_and_repr_formatting(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        write_trace(path, self._trace())
        raw = open(path, "rb").read()
        assert raw.count(b"\r\n") == 4  # header + 3 rows
        assert b"0.3333333333333333" in raw  # repr of 1/3, shortest round-trip
        assert raw.split(b"\r\n")[0].decode() == ",".join(TRACE_COLUMNS)
        first_row = "0,0.1,,,0.25,0.3333333333333333,0.05,0.007,1.2,0.11,2.4,"
        assert raw.split(b"\r\n")[1].decode() == first_row

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,y,u\r\n0,1,2\r\n")
        with pytest.raises(DataError, match="header"):
            read_trace(str(path))

    def test_short_row_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        head = ",".join(TRACE_COLUMNS)
        path.write_text(f"{head}\r\n0,1\r\n")
        with pytest.raises(DataError) as exc:
            read_trace(str(path))
        assert exc.value.line == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_trace(str(path))

    def _edited(self, tmp_path, line, column, cell):
        path = tmp_path / "trace.csv"
        write_trace(str(path), self._trace())
        lines = path.read_bytes().decode().split("\r\n")
        cells = lines[line - 1].split(",")
        cells[TRACE_COLUMNS.index(column)] = cell
        lines[line - 1] = ",".join(cells)
        path.write_bytes("\r\n".join(lines).encode())
        return str(path)

    @pytest.mark.parametrize("cell, problem", [("oops", "nonnumeric"), ("nan", "non-finite"),
                                               ("inf", "non-finite"), ("1.5", "nonnumeric")])
    def test_bad_cell_is_a_data_error_with_its_line(self, tmp_path, cell, problem):
        column = "k" if cell == "1.5" else "f_est"
        with pytest.raises(DataError, match=problem) as exc:
            read_trace(self._edited(tmp_path, 3, column, cell))
        assert exc.value.line == 3

    def test_bad_cell_in_a_later_batch_of_rows_names_its_line(self, tmp_path):
        # read_trace parses rows in batches; line numbers run on across them
        n = 2500
        trace = Trace(k=np.arange(n), y=np.linspace(0.0, 1.0, n), r_k=np.full(n, 2.0))
        path = tmp_path / "long.csv"
        write_trace(str(path), trace)
        assert read_trace(str(path)) == trace
        lines = path.read_bytes().split(b"\r\n")
        for line, column, cell, problem in ((2101, "y", b"nan", "non-finite"),
                                            (1900, "r_k", b"", "some rows only")):
            edited = list(lines)
            cells = edited[line - 1].split(b",")
            cells[TRACE_COLUMNS.index(column)] = cell
            edited[line - 1] = b",".join(cells)
            path.write_bytes(b"\r\n".join(edited))
            with pytest.raises(DataError, match=problem) as exc:
                read_trace(str(path))
            assert exc.value.line == line

    def test_column_empty_on_some_rows_only_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="some rows only") as exc:
            read_trace(self._edited(tmp_path, 4, "theta_err", ""))
        assert exc.value.line == 4
        # and the other way round: an empty column with one filled cell
        with pytest.raises(DataError, match="some rows only") as exc:
            read_trace(self._edited(tmp_path, 3, "u", "0.5"))
        assert exc.value.line == 3


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _traces(draw):
    n = draw(st.integers(1, 20))
    present = draw(st.lists(st.booleans(), min_size=10, max_size=10))
    columns = {
        name: np.array(draw(st.lists(_finite, min_size=n, max_size=n)))
        for name, keep in zip(TRACE_COLUMNS[1:-1], present)
        if keep
    }
    flags = draw(st.lists(
        st.sampled_from(["", "saturated", "singular_gain", "divergence", "saturated;divergence"]),
        min_size=n, max_size=n,
    ))
    return Trace(k=np.arange(n), flags=flags, **columns)


@settings(max_examples=100, deadline=None)
@given(trace=_traces())
def test_trace_round_trip_is_exact(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace(path, trace)
        first = open(path, "rb").read()
        back = read_trace(path)
        assert back == trace
        write_trace(path, back)
        assert open(path, "rb").read() == first


def _oracle_write_trace(path, trace):
    """Reference writer: the csv module over ``repr`` of each float cell.

    ``write_trace`` formats a column per call and joins rows itself; its
    bytes must equal these.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(TRACE_COLUMNS)
        cells = [trace.k.tolist()]
        for name in TRACE_COLUMNS[1:-1]:
            column = getattr(trace, name)
            cells.append(itertools.repeat("") if column is None else map(repr, column.tolist()))
        cells.append(trace.flags)
        writer.writerows(zip(*cells))


_FLAG_NAMES = ("saturated", "singular_gain", "divergence")
_FLAG_STRINGS = [""] + [";".join(names) for r in (1, 2, 3)
                        for names in itertools.combinations(_FLAG_NAMES, r)]
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-05, 0.0001,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 1e15, 2.0**53]
_cell_floats = (st.floats() | st.sampled_from(_EDGE_FLOATS)
                | st.integers(-2**60, 2**60).map(float))


@st.composite
def _long_traces(draw):
    """Traces spanning several write chunks, with every edge float and flag string.

    Each column cycles through a drawn pool of cells (the edge floats
    always among them) in a drawn order, so long columns cost few draws.
    """
    n = draw(st.sampled_from([0, 1, 1023, 1024, 1025, 2049]))
    names = draw(st.lists(st.sampled_from(TRACE_COLUMNS[1:-1]), unique=True))
    pool = np.array(draw(st.lists(_cell_floats, max_size=40)) + _EDGE_FLOATS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {name: np.resize(rng.permutation(pool), n) for name in names}
    flag_order = np.resize(rng.permutation(len(_FLAG_STRINGS)), n)
    return Trace(k=np.arange(n), flags=[_FLAG_STRINGS[i] for i in flag_order], **columns)


class TestTraceWriterBytes:
    @settings(max_examples=60, deadline=None)
    @given(trace=_long_traces())
    def test_bytes_equal_the_csv_module_writer(self, trace):
        with tempfile.TemporaryDirectory() as tmp:
            path, oracle = os.path.join(tmp, "trace.csv"), os.path.join(tmp, "oracle.csv")
            write_trace(path, trace)
            _oracle_write_trace(oracle, trace)
            assert open(path, "rb").read() == open(oracle, "rb").read()

    def test_control_run_trace_hashes_like_the_csv_module_writer(self, tmp_path):
        cfg = load_config(preset_path("paper_sim.cfg"))
        cfg.seeds, cfg.algorithms, cfg.out_dir = (3,), ("modified",), str(tmp_path / "run")
        report = run_experiment(cfg)
        path = tmp_path / "run" / report.data["runs"]["modified"]["seed_3"]["trace"]
        oracle = tmp_path / "oracle.csv"
        _oracle_write_trace(str(oracle), read_trace(str(path)))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == hashlib.sha256(oracle.read_bytes()).hexdigest()


def _oracle_read_trace(path):
    """Reference reader: the csv module and a per-cell cast, in ordered checks.

    ``read_trace`` parses each chunk with one ``np.loadtxt`` call; it must
    return the same Trace as this, or raise the same DataError on the same
    line.
    """
    parts = {name: [] for name in TRACE_COLUMNS[:-1]}
    flags = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"empty trace file: {path}")
        if header != TRACE_COLUMNS:
            raise DataError(f"unexpected trace header in {path}: {header}")
        empty = None
        while chunk := list(itertools.islice(reader, 1024)):
            line = len(flags) + 2
            for i, row in enumerate(chunk):
                if len(row) != len(TRACE_COLUMNS):
                    raise DataError(f"malformed trace row in {path}", line=line + i)
            columns = list(zip(*chunk))
            if empty is None:
                empty = {name: name != "k" and cells[0] == ""
                         for name, cells in zip(parts, columns)}
            for name, cells in zip(parts, columns):
                parts[name].append(_oracle_column(path, name, cells, line, empty[name]))
            flags.extend(columns[-1])
    if not flags:
        return Trace(k=np.empty(0, dtype=np.int64))
    values = {name: None if empty[name] else np.concatenate(p) for name, p in parts.items()}
    return Trace(flags=flags, **values)


def _oracle_column(path, name, cells, line, empty):
    def fail(problem, i):
        raise DataError(f"{problem} in column {name!r} of {path}", line=line + i)

    if cells.count("") != (len(cells) if empty else 0):
        first = next(i for i, cell in enumerate(cells) if (cell == "") != empty)
        fail("empty cell" if name == "k" else "column empty on some rows only", first)
    if empty:
        return None
    cast, dtype = (int, np.int64) if name == "k" else (float, float)
    try:
        values = np.fromiter(map(cast, cells), dtype=dtype, count=len(cells))
    except ValueError:
        for i, cell in enumerate(cells):
            try:
                cast(cell)
            except ValueError:
                fail("nonnumeric cell", i)
        raise
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        fail("non-finite cell", int(bad[0]))
    return values


def _outcome(reader, path):
    """What ``reader`` makes of ``path``: every column's bytes, or the error it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = reader(path)
    except Exception as exc:  # the oracle's error, whatever its type, is the contract
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    columns = [None if (column := getattr(trace, name)) is None
               else (column.dtype.str, column.tobytes()) for name in TRACE_COLUMNS[:-1]]
    return columns, list(trace.flags)


def _assert_reads_like_the_oracle(path):
    got = _outcome(read_trace, path)
    assert got == _outcome(_oracle_read_trace, path)
    return got


class TestTraceReader:
    @settings(max_examples=60, deadline=None)
    @given(trace=_long_traces())
    def test_reads_like_the_csv_module_reader(self, trace):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            write_trace(path, trace)
            _assert_reads_like_the_oracle(path)

    # the first two rows (row 0 decides the empty columns) and the edges of
    # the two chunks of the replay-shaped trace below
    _LINES = (2, 3, 1025, 1026, 1101)

    @pytest.fixture(scope="class")
    def lines(self, tmp_path_factory):
        """A 1100-row replay-shaped trace's lines: u, y_star, f_true, regret_avg
        and theta_err empty, flags from the whole vocabulary."""
        n = 1100
        rng = np.random.default_rng(5)
        empty = ("u", "y_star", "f_true", "regret_avg", "theta_err")
        columns = {name: rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
                   for name in TRACE_COLUMNS[1:-1] if name not in empty}
        flags = [_FLAG_STRINGS[i] for i in rng.integers(0, len(_FLAG_STRINGS), n)]
        path = tmp_path_factory.mktemp("reader") / "trace.csv"
        write_trace(str(path), Trace(k=np.arange(n), flags=flags, **columns))
        return tuple(path.read_bytes().decode().split("\r\n"))

    @staticmethod
    def _write(tmp_path, lines, ending="\r\n"):
        path = tmp_path / "trace.csv"
        path.write_bytes(ending.join(lines).encode())
        return str(path)

    @pytest.mark.parametrize("column, cell", [
        ("f_est", "oops"), ("f_est", "nan"), ("mu_k", "inf"), ("r_k", "-inf"), ("y", ""),
        ("k", ""), ("k", "1.0"), ("k", "x"), ("k", "99999999999999999999"),
        ("f_est", '"1.5"'), ("k", '"7"'), ("flags", '"saturated"'), ("u", '""'),
        ("loss", " 1.5 "), ("k", " 3"), ("y", " "), ("u", " "), ("flags", " "),
        ("flags", " saturated"), ("f_est", "1_0"), ("k", "1_0"),
        ("u", "0.5"), ("theta_err", "x"), ("flags", "\x00"), ("u", "\x00"),
        ("flags", "saturated;" * 5), ("flags", "d" * 39), ("flags", "d" * 40),
        ("flags", '"two\r\nlines"'), ("f_est", "1e400"), ("r_k", "١"),
    ])
    def test_single_cell_edit_reads_like_the_oracle(self, tmp_path, lines, column, cell):
        for line in self._LINES:
            edited = list(lines)
            cells = edited[line - 1].split(",")
            cells[TRACE_COLUMNS.index(column)] = cell
            edited[line - 1] = ",".join(cells)
            _assert_reads_like_the_oracle(self._write(tmp_path, edited))

    @pytest.mark.parametrize("edit", ["blank", "whitespace", "short", "long", "cr"])
    def test_single_line_edit_reads_like_the_oracle(self, tmp_path, lines, edit):
        for line in self._LINES:
            edited = list(lines)
            if edit == "blank":
                edited.insert(line - 1, "")
            elif edit == "whitespace":
                edited.insert(line - 1, "  ")
            elif edit == "short":
                edited[line - 1] = edited[line - 1].rsplit(",", 1)[0]
            elif edit == "long":
                edited[line - 1] += ","
            else:  # a lone CR ends a line, as a CRLF does
                edited[line - 1] = edited[line - 1].replace(",", "\r", 1)
            _assert_reads_like_the_oracle(self._write(tmp_path, edited))

    def test_every_row_one_cell_short_reads_like_the_oracle(self, tmp_path, lines):
        short = [line.rsplit(",", 1)[0] for line in lines[1:-1]]
        _assert_reads_like_the_oracle(self._write(tmp_path, (lines[0], *short, "")))

    @pytest.mark.parametrize("rows", [0, 1024])
    def test_trailing_blank_line_reads_like_the_oracle(self, tmp_path, lines, rows):
        # the chunk after the last row holds only the blank line
        _assert_reads_like_the_oracle(self._write(tmp_path, (*lines[:rows + 1], "", "")))

    @pytest.mark.parametrize("ending", ["\n", "\r"])
    def test_other_line_ends_read_like_the_oracle(self, tmp_path, lines, ending):
        columns, _ = _assert_reads_like_the_oracle(self._write(tmp_path, lines, ending))
        assert columns[TRACE_COLUMNS.index("u")] is None

    @pytest.mark.parametrize("header", ["", "\r\n", '"k",' + ",".join(TRACE_COLUMNS[1:]),
                                        ",".join(TRACE_COLUMNS[:-1]) + ',"fl\r\nags"'])
    def test_header_reads_like_the_oracle(self, tmp_path, lines, header):
        _assert_reads_like_the_oracle(self._write(tmp_path, (header, *lines[1:])))

    def test_clean_trace_is_parsed_without_the_csv_walk(self, tmp_path, lines, monkeypatch):
        path = self._write(tmp_path, lines)
        expected = _oracle_read_trace(path)

        def walk(*args):
            raise AssertionError("a clean chunk went through the csv walk")

        monkeypatch.setattr(bench_module, "_walk_chunk", walk)
        assert read_trace(path) == expected


class TestRunExperiment:
    def test_control_report_shape(self, control_report):
        data = control_report.data
        assert set(data["runs"]) == {"modified", "classical"}
        assert set(data["runs"]["modified"]) == {"seed_1", "seed_2"}
        summary = data["runs"]["modified"]["seed_1"]
        for key in ("final_average_regret", "final_tracking_conditional",
                    "final_tracking_proxy", "identity_max_dev", "min_phase_max",
                    "out_of_band_fraction", "rs_total", "checks"):
            assert key in summary
        assert data["comparison"]["metric"] == "final_average_regret"
        assert data["generator"]["name"] == "philox-inverse-cdf"
        assert control_report.passed  # == checks_overall.all_pass

    def test_bound_curve_checkpoints_respect_run_length(self, control_report):
        # n_steps = 40 < 100, so only the final checkpoint exists
        assert list(control_report.data["bound_curve"]["checkpoints"]) == ["40"]

    def test_traces_written_per_cell(self, control_report):
        import os

        out = os.path.dirname(control_report.path)
        for algo in ("modified", "classical"):
            for seed in (1, 2):
                assert os.path.exists(os.path.join(out, f"trace_{algo}_seed{seed}.csv"))

    def test_report_json_is_sorted_and_stable(self, control_report):
        raw = open(control_report.path).read()
        assert json.loads(raw) == control_report.data
        keys = list(json.loads(raw))
        assert keys == sorted(keys)

    def test_rerun_is_byte_identical(self, control_report, tmp_path):
        import os

        out_dir = os.path.dirname(control_report.path)
        before = {
            name: open(os.path.join(out_dir, name), "rb").read()
            for name in sorted(os.listdir(out_dir))
        }
        cfg = load_config(_write_cfg(tmp_path, CONTROL_CFG, out=out_dir))
        run_experiment(cfg)
        after = {
            name: open(os.path.join(out_dir, name), "rb").read()
            for name in sorted(os.listdir(out_dir))
        }
        assert before == after

    def test_identify_report(self, identify_report):
        summary = identify_report.data["runs"]["modified"]["seed_3"]
        assert summary["checks"]["gradient_noise_identity"]
        assert summary["checks"]["step_size_law"]
        assert summary["final_theta_err"] < np.linalg.norm([1.0, -0.5, 0.25])
        assert "comparison" not in identify_report.data  # single algorithm

    def test_replay_report(self, small_replay_report):
        data = small_replay_report.data
        assert data["dataset"]["rows_used"] == 200
        summary = data["runs"]["modified"]["seed_0"]
        assert list(summary["relative_error_checkpoints"]) == ["final"]
        assert summary["final_relative_error"] > 0
        assert data["comparison"]["metric"] == "final_relative_error"

    def test_replay_without_usable_rows_fails_loudly(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("f0,f1,f2,f3,f4,y\nx,x,x,x,x,x\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = load_config(_write_cfg(tmp_path, REPLAY_CFG, out=tmp_path / "runs",
                                         data=data))
        with pytest.raises(DataError, match="no usable rows"):
            run_experiment(cfg)

    def test_replay_rows_equal_the_stream_rows(self, tmp_path, corpus_csv):
        lines = pathlib.Path(corpus_csv).read_text().splitlines()
        lines[5] = "x," + lines[5].split(",", 1)[1]  # one skipped row
        data = tmp_path / "skip.csv"
        data.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = load_config(_write_cfg(tmp_path, REPLAY_CFG, out=tmp_path / "runs", data=data))
        (phi, y), stream = bench_module._load_replay_rows(cfg)
        rows = list(ingest_csv(str(data), {"features": list(cfg.features),
                                           "target": cfg.target_col}, max_rows=cfg.n_steps))
        assert stream.skipped == 1 and phi.shape == (len(rows), len(cfg.features))
        assert np.array_equal(phi, np.array([values for values, _ in rows]))
        assert np.array_equal(y, np.array([target for _, target in rows]))

    def test_nonpositive_replay_target_names_its_dataset_line_before_the_sweep(
            self, tmp_path, corpus_csv, monkeypatch):
        lines = pathlib.Path(corpus_csv).read_text().splitlines()
        lines[11] = lines[11].rsplit(",", 1)[0] + ",0.0"  # data row 10, file line 12
        data = tmp_path / "zero.csv"
        data.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = load_config(_write_cfg(tmp_path, REPLAY_CFG, out=tmp_path / "runs",
                                         data=data))

        def sweep(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(bench_module, "_run_sweep", sweep)
        with pytest.raises(DataError, match="strictly positive") as exc:
            run_experiment(cfg)
        assert exc.value.line == 12 and str(data) in str(exc.value)
        report = json.loads((tmp_path / "runs" / "report.json").read_text())
        assert report["error"]["line"] == 12


class TestBatchRows:
    """A cell's trace does not depend on the other cells of its sweep's
    batch: each cell of a two-algorithm, two-seed sweep writes the same
    trace bytes as the same cell run alone."""

    @staticmethod
    def _traces(cfg, out, algorithms, seeds):
        cfg.algorithms, cfg.seeds, cfg.out_dir = algorithms, seeds, str(out)
        report = run_experiment(cfg)
        return {s["trace"]: open(os.path.join(cfg.out_dir, s["trace"]), "rb").read()
                for by_seed in report.data["runs"].values() for s in by_seed.values()}

    def _check(self, cfg, tmp_path, seeds):
        algorithms = ("modified", "classical")
        batch = self._traces(cfg, tmp_path / "batch", algorithms, seeds)
        assert len(batch) == len(algorithms) * len(seeds)
        for algorithm in algorithms:
            for seed in seeds:
                alone = self._traces(cfg, tmp_path / f"{algorithm}{seed}", (algorithm,), (seed,))
                assert alone.items() <= batch.items()

    @pytest.mark.parametrize("pair,mu", [("linear_mse", "0.3"), ("logistic", "0.1")])
    def test_identify_cells_equal_their_runs_alone(self, tmp_path, pair, mu):
        # logistic: Bernoulli labels from the uniform block
        text = IDENTIFY_CFG.replace("linear_mse", pair).replace("mu = 0.3", f"mu = {mu}")
        self._check(load_config(_write_cfg(tmp_path, text, out=tmp_path)), tmp_path, (3, 5))

    def test_replay_cells_equal_their_runs_alone(self, tmp_path, corpus_csv):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = load_config(_write_cfg(tmp_path, REPLAY_CFG, out=tmp_path, data=corpus_csv))
        self._check(cfg, tmp_path, (0,))


class TestIdentifyStreams:
    def test_regressor_and_noise_streams_differ(self):
        for seed in (0, 3, 2**40 + 3):
            noise_bits = NoiseSource(seed=seed)._gen.bit_generator.random_raw(64)
            sampler_bits = sampler_bit_generator(seed).random_raw(64)
            assert not np.any(noise_bits == sampler_bits)

    def test_sampler_stream_is_reproducible(self):
        assert np.array_equal(sampler_bit_generator(5).random_raw(16),
                              sampler_bit_generator(5).random_raw(16))


class TestErrorContext:
    def test_numeric_error_context_is_kept_in_report(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("f0,f1,f2,y\n1,0.5,0.2,2\n1,0.5,0.2,1e308\n1,0.5,0.2,2\n")
        text = REPLAY_CFG.replace("pair = saturation", "pair = linear_mse")
        text = text.replace("features = f0, f1, f2, f3, f4", "features = f0, f1, f2")
        # the censoring window is a setting of the saturation pair only
        text = text.replace("lower = 6.0\nupper = 120.0\nnoise_std = 5.0\n", "")
        path = _write_cfg(tmp_path, text, out=tmp_path / "runs", data=data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = load_config(path)
        # 2 * (f - 1e308) overflows the squared-error derivative on row 1
        with pytest.raises(NumericError):
            run_experiment(cfg)
        report = json.loads((tmp_path / "runs" / "report.json").read_text())
        context = report["error"]["context"]
        assert (context["k"], context["algorithm"], context["seed"]) == (1, "modified", 0)
        assert context["y"] == 1e308
        assert isinstance(context["x"], float)
        assert "non-finite derivative" in report["error"]["message"]

    def test_json_context_converts_arrays_and_non_finite_values(self):
        exc = NumericError("boom", context={"k": np.int64(4), "phi": np.array([1.0, np.nan]),
                                            "u": np.inf, "tag": "x"})
        ctx = exc.json_context()
        assert ctx == {"k": 4, "phi": [1.0, "nan"], "u": "inf", "tag": "x"}
        json.dumps(ctx, allow_nan=False)


    def test_numeric_error_in_a_batch_names_step_algorithm_and_seed(self, tmp_path):
        # noise std 1e308: seed 2's first draw (-0.028) stays finite, seed 4's
        # (-4.09) overflows to -inf, so row 1 of the first batch fails at k=0
        text = CONTROL_CFG.replace("noise_std = 0.05", "noise_std = 1e308")
        text = text.replace("seeds = 1, 2", "seeds = 2, 4")
        cfg = load_config(_write_cfg(tmp_path, text, out=tmp_path / "runs"))
        with pytest.raises(NumericError, match="observation must be finite"):
            run_experiment(cfg)
        report = json.loads((tmp_path / "runs" / "report.json").read_text())
        context = report["error"]["context"]
        assert (context["k"], context["algorithm"], context["seed"]) == (0, "modified", 4)
        assert context["y"] == "-inf"

    def test_strict_ingestion_error_is_kept_in_report_with_its_line(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("f0,f1,f2,f3,f4,y\n1,1,1,1,1,30\n1,oops,1,1,1,30\n")
        path = _write_cfg(tmp_path, REPLAY_CFG, out=tmp_path / "runs", data=data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = load_config(path)
        cfg.strict_csv = True
        with pytest.raises(DataError, match="at line 3"):
            run_experiment(cfg)
        report = json.loads((tmp_path / "runs" / "report.json").read_text())
        assert report["error"]["line"] == 3
        assert report["error"]["message"].endswith("at line 3")


class TestCompareRuns:
    def test_two_algorithm_report_compares_its_own_sides(self, control_report):
        table = compare_runs(control_report, control_report)
        assert table["sides"] == {"a": "modified", "b": "classical"}
        assert table["win_metric"] == "final_average_regret"
        assert sum(table["wins"].values()) == 2  # one verdict per seed
        assert set(table["per_seed"]) == {"seed_1", "seed_2"}

    def test_identical_reports_tie_with_zero_deltas(self, identify_report):
        table = compare_runs(identify_report, identify_report)
        assert table["wins"] == {"a": 0, "b": 0, "ties": 1}
        for row in table["metrics"].values():
            assert row["delta"] == 0.0

    def test_mode_mismatch_rejected(self, control_report, identify_report):
        with pytest.raises(ConfigurationError, match="modes"):
            compare_runs(control_report, identify_report)

    def test_unknown_algorithm_rejected(self, control_report):
        with pytest.raises(ConfigurationError, match="missing"):
            compare_runs(control_report, control_report, algo_a="adam")

    def test_rendering_mentions_sides_and_wins(self, control_report):
        text = render_comparison(compare_runs(control_report, control_report))
        assert "a=modified" in text and "b=classical" in text
        assert "wins on final_average_regret" in text


class TestVerifyReport:
    def test_clean_report_verifies(self, control_report):
        ok, problems = verify_report(control_report.path)
        assert ok, problems

    def test_tampered_metric_is_flagged(self, control_report, tmp_path):
        import os

        src = os.path.dirname(control_report.path)
        dst = str(tmp_path / "copy")
        shutil.copytree(src, dst)
        report_path = os.path.join(dst, "report.json")
        data = json.load(open(report_path))
        data["runs"]["modified"]["seed_1"]["final_average_regret"] += 1e-3
        json.dump(data, open(report_path, "w"))
        ok, problems = verify_report(report_path)
        assert not ok
        assert any("final_average_regret" in p for p in problems)

    def _verify_edited(self, report, tmp_path, edit):
        dst = str(tmp_path / "copy")
        shutil.copytree(os.path.dirname(report.path), dst)
        report_path = os.path.join(dst, "report.json")
        data = json.load(open(report_path))
        edit(data)
        json.dump(data, open(report_path, "w"))
        return verify_report(report_path)

    def test_flipped_all_pass_is_flagged(self, control_report, tmp_path):
        def edit(data):
            data["checks_overall"]["all_pass"] = not data["checks_overall"]["all_pass"]

        ok, problems = self._verify_edited(control_report, tmp_path, edit)
        assert not ok
        assert any(p.startswith("checks_overall") for p in problems)

    def test_zeroed_wins_are_flagged(self, control_report, tmp_path):
        def edit(data):
            wins = data["comparison"]["wins"]
            data["comparison"]["wins"] = dict.fromkeys(wins, 0)

        ok, problems = self._verify_edited(control_report, tmp_path, edit)
        assert not ok
        assert any(p.startswith("comparison") for p in problems)

    def test_flipped_run_check_is_flagged(self, control_report, tmp_path):
        def edit(data):
            checks = data["runs"]["modified"]["seed_1"]["checks"]
            checks["step_size_law"] = not checks["step_size_law"]

        ok, problems = self._verify_edited(control_report, tmp_path, edit)
        assert not ok
        assert any(p.startswith("modified/seed_1/checks") for p in problems)

    def test_edited_flag_count_is_flagged(self, control_report, tmp_path):
        def edit(data):
            data["runs"]["modified"]["seed_1"]["flag_counts"]["divergence"] = 7

        ok, problems = self._verify_edited(control_report, tmp_path, edit)
        assert not ok
        assert any(p.startswith("modified/seed_1/flag_counts") for p in problems)

    def test_tampered_trace_is_flagged(self, control_report, tmp_path):
        import os

        src = os.path.dirname(control_report.path)
        dst = str(tmp_path / "copy")
        shutil.copytree(src, dst)
        trace_path = os.path.join(dst, "trace_modified_seed1.csv")
        trace = read_trace(trace_path)
        trace.f_est[5] += 1e-3
        write_trace(trace_path, trace)
        ok, problems = verify_report(os.path.join(dst, "report.json"))
        assert not ok
        assert any("seed_1" in p for p in problems)

    def test_nan_number_is_flagged(self, control_report, tmp_path):
        def edit(data):
            data["runs"]["classical"]["seed_2"]["final_theta_err"] = math.nan

        ok, problems = self._verify_edited(control_report, tmp_path, edit)
        assert not ok
        assert any(p.startswith("classical/seed_2/final_theta_err") for p in problems)

    def test_deleted_key_is_flagged(self, control_report, tmp_path):
        def edit(data):
            del data["runs"]["modified"]["seed_2"]["final_tracking_proxy"]

        ok, problems = self._verify_edited(control_report, tmp_path, edit)
        assert not ok
        assert any(p.startswith("modified/seed_2: reported keys") for p in problems)

    def test_edited_replay_row_count_is_flagged(self, small_replay_report, tmp_path):
        def edit(data):
            data["runs"]["modified"]["seed_0"]["rows_used"] = 7

        ok, problems = self._verify_edited(small_replay_report, tmp_path, edit)
        assert not ok
        assert any(p.startswith("modified/seed_0/rows_used") for p in problems)

    def test_edited_bound_curve_is_flagged(self, control_report, tmp_path):
        def edit(data):
            data["bound_curve"]["checkpoints"]["40"] = 123

        ok, problems = self._verify_edited(control_report, tmp_path, edit)
        assert not ok
        assert any(p.startswith("bound_curve/checkpoints/40") for p in problems)

    def test_deleted_run_is_flagged(self, control_report, tmp_path):
        def edit(data):
            for algo in ("modified", "classical"):
                del data["runs"][algo]["seed_2"]
            data["comparison"]["wins"] = {"modified": 0, "classical": 0, "ties": 0}

        ok, problems = self._verify_edited(control_report, tmp_path, edit)
        assert not ok
        assert any(p.startswith("runs: reported cells") for p in problems)

    @pytest.mark.parametrize("run, column, state", [
        ("small_replay_report", "f_est", "is empty, but replay fills it"),
        ("identify_report", "y", "is empty, but identify fills it"),
        ("identify_report", "f_est", "is empty, but identify fills it"),
        ("control_report", "y_star", "is empty, but control fills it"),
        ("identify_report", "u", "is filled, but identify leaves it empty"),
        ("small_replay_report", "theta_err", "is filled, but replay leaves it empty"),
    ])
    def test_column_emptied_or_filled_on_every_row_is_flagged(self, run, column, state,
                                                             request, tmp_path):
        # read_trace takes a column empty on every row as the mode's empty one
        report = request.getfixturevalue(run)
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(report.path), dst)
        algo = report.data["config"]["algorithms"][0]
        seed_key, summary = next(iter(report.data["runs"][algo].items()))
        trace_path = dst / summary["trace"]
        lines = trace_path.read_bytes().split(b"\r\n")
        for i in range(1, len(lines) - 1):
            cells = lines[i].split(b",")
            cells[TRACE_COLUMNS.index(column)] = b"" if "is empty" in state else b"0.5"
            lines[i] = b",".join(cells)
        trace_path.write_bytes(b"\r\n".join(lines))
        assert verify_report(str(dst / "report.json")) == (False, [
            f"{algo}/{seed_key} ({summary['trace']}): column {column!r} {state}"
        ])

    def test_bad_trace_cell_names_its_line(self, control_report, tmp_path):
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(control_report.path), dst)
        trace_path = dst / "trace_modified_seed1.csv"
        lines = trace_path.read_bytes().split(b"\r\n")
        cells = lines[29].split(b",")
        cells[TRACE_COLUMNS.index("f_est")] = b"oops"
        lines[29] = b",".join(cells)
        trace_path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(DataError, match="at line 30") as exc:
            verify_report(str(dst / "report.json"))
        assert exc.value.line == 30

    @pytest.mark.parametrize("run", ["control_report", "identify_report", "small_replay_report"])
    @pytest.mark.parametrize("column, cell, derivation", [
        ("k", b"5", "the row index"),
        ("loss", b"123.0", "squared_error(y, f_est)"),
    ])
    def test_edited_derived_trace_column_is_flagged(self, run, column, cell, derivation,
                                                    request, tmp_path):
        # summarize reads neither k nor loss; verify_report re-derives both
        report = request.getfixturevalue(run)
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(report.path), dst)
        algo = report.data["config"]["algorithms"][0]
        seed_key, summary = next(iter(report.data["runs"][algo].items()))
        trace_path = dst / summary["trace"]
        lines = trace_path.read_bytes().split(b"\r\n")
        cells = lines[11].split(b",")
        cells[TRACE_COLUMNS.index(column)] = cell
        lines[11] = b",".join(cells)
        trace_path.write_bytes(b"\r\n".join(lines))
        assert verify_report(str(dst / "report.json")) == (False, [
            f"{algo}/{seed_key} ({summary['trace']}): column {column!r} first differs "
            f"from {derivation} at row 10 (line 12)"
        ])

    @pytest.mark.parametrize("run", ["control_report", "identify_report"])
    def test_edited_regret_avg_is_flagged(self, run, request, tmp_path):
        # summarize reads no regret_avg cell; its running mean of the regret must
        # reproduce the column bit for bit
        report = request.getfixturevalue(run)
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(report.path), dst)
        algo = report.data["config"]["algorithms"][0]
        seed_key, summary = next(iter(report.data["runs"][algo].items()))
        trace_path = dst / summary["trace"]
        lines = trace_path.read_bytes().split(b"\r\n")
        cells = lines[11].split(b",")
        cells[TRACE_COLUMNS.index("regret_avg")] = b"9.0"
        lines[11] = b",".join(cells)
        trace_path.write_bytes(b"\r\n".join(lines))
        assert verify_report(str(dst / "report.json")) == (False, [
            f"{algo}/{seed_key} ({summary['trace']}): column 'regret_avg' first differs "
            f"from the running mean of the regret at row 10 (line 12)"
        ])

    @pytest.mark.parametrize("column, cell, derived", [
        ("y_star", b"0.25", "y_star"),
        ("f_true", b"0.125", "f_true"),
        # the input is the plant's regressor entry, so it shows in that step's f_true
        ("u", b"1.0", "f_true"),
    ])
    def test_edited_control_column_is_flagged(self, control_report, tmp_path, column, cell,
                                              derived):
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(control_report.path), dst)
        summary = control_report.data["runs"]["modified"]["seed_1"]
        trace_path = dst / summary["trace"]
        lines = trace_path.read_bytes().split(b"\r\n")
        cells = lines[11].split(b",")
        cells[TRACE_COLUMNS.index(column)] = cell
        lines[11] = b",".join(cells)
        trace_path.write_bytes(b"\r\n".join(lines))
        what = {"y_star": "the configured target",
                "f_true": "link(theta* . phi) of the y, u lags"}[derived]
        ok, problems = verify_report(str(dst / "report.json"))
        assert not ok
        assert (f"modified/seed_1 ({summary['trace']}): column {derived!r} first differs "
                f"from {what} at row 10 (line 12)") in problems

    def test_path_object_reads_the_traces_beside_the_report(self, identify_report, tmp_path):
        # the copy's report still names the original out_dir in its config
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(identify_report.path), dst)
        trace_path = dst / "trace_modified_seed3.csv"
        lines = trace_path.read_bytes().split(b"\r\n")
        cells = lines[5].split(b",")
        cells[TRACE_COLUMNS.index("mu_k")] = b"9.0"
        lines[5] = b",".join(cells)
        trace_path.write_bytes(b"\r\n".join(lines))
        report_path = dst / "report.json"
        assert verify_report(report_path) == verify_report(str(report_path))
        assert not verify_report(report_path)[0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_single_numeric_edit_fails(self, control_report, identify_report,
                                           small_replay_report, data):
        report = data.draw(st.sampled_from([control_report, identify_report,
                                            small_replay_report])).data
        leaves = [path for top in ("runs", "bound_curve") if top in report
                  for path in _numeric_leaves(report[top], (top,))]
        path = data.draw(st.sampled_from(leaves))
        edited = copy.deepcopy(report)
        node = edited
        for key in path[:-1]:
            node = node[key]
        old = node[path[-1]]
        delta = data.draw(st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6))
        new = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, old + delta]))
        node[path[-1]] = new
        ok, problems = verify_report(edited)
        assert not ok, (path, old, new)
        assert any(p.startswith("/".join(path[1:] if path[0] == "runs" else path))
                   for p in problems), problems


def _numeric_leaves(node, path):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _leaves(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _leaves(value)
    else:
        yield node


class TestSummarize:
    @pytest.mark.parametrize("run", ["paper_run", "replay_run", "identify_report"])
    def test_fresh_run_verifies_exactly(self, run, request):
        # one summarize serves both sides, so the in-memory and the read-back
        # trace give the same numbers bit for bit (replay: over 8192 rows)
        report = request.getfixturevalue(run)
        report = report[0] if isinstance(report, tuple) else report
        assert verify_report(report.path, tol=0.0) == (True, [])

    def test_summary_values_are_plain_json_types(self, control_report, small_replay_report):
        for report in (control_report, small_replay_report):
            out_dir = os.path.dirname(report.path)
            for by_seed in report.data["runs"].values():
                for summary in by_seed.values():
                    trace = read_trace(os.path.join(out_dir, summary["trace"]))
                    got = summarize(report.data["config"], trace)
                    assert {type(v) for v in _leaves(got)} <= {float, int, bool}
                    json.dumps(got, allow_nan=False)


def _load_tracer():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkRowCounting:
    """The benchmark's tracer counts trace rows as len() of what write_trace
    takes and read_trace returns; both must stay the row count."""

    def _traced_rows(self, cfg):
        tracer = _load_tracer()
        rec = tracer.SpanRecorder()
        tracer.install(rec, tracer.sgident_modules())
        try:
            report = run_experiment(cfg)
            assert verify_report(report.path) == (True, [])
        finally:
            rec.restore()
        out_dir = os.path.dirname(report.path)
        rows = sum(
            len(open(os.path.join(out_dir, s["trace"]), "rb").read().split(b"\r\n")) - 2
            for by_seed in report.data["runs"].values() for s in by_seed.values()
        )
        return rec.counters, rows

    def test_control_rows_are_counted(self, tmp_path):
        text = CONTROL_CFG.replace("n_steps = 40", "n_steps = 50")
        cfg = load_config(_write_cfg(tmp_path, text, out=tmp_path / "runs"))
        counters, rows = self._traced_rows(cfg)
        assert rows == 2 * 2 * 50
        assert counters["bench.rows_written"] == counters["bench.rows_read"] == rows

    def test_identify_rows_are_counted(self, tmp_path):
        text = IDENTIFY_CFG.replace("algorithms = modified", "algorithms = modified, classical")
        text = text.replace("seeds = 3", "seeds = 3, 4")
        cfg = load_config(_write_cfg(tmp_path, text, out=tmp_path / "runs"))
        counters, rows = self._traced_rows(cfg)
        assert rows == 2 * 2 * 60
        assert counters["bench.rows_written"] == counters["bench.rows_read"] == rows

    def test_replay_rows_are_counted(self, tmp_path, corpus_csv):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = load_config(_write_cfg(tmp_path, REPLAY_CFG, out=tmp_path / "runs",
                                         data=corpus_csv))
        counters, rows = self._traced_rows(cfg)
        assert rows == 2 * 200
        assert counters["bench.rows_written"] == counters["bench.rows_read"] == rows
        # the tracer is gone again
        from sgident import bench

        assert bench.write_trace is write_trace and bench.read_trace is read_trace
