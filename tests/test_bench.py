"""Experiment harness: config parsing, CSV ingestion, traces, reports.

The experiment fixtures here are deliberately tiny (tens of steps) so the
whole module stays fast; full-scale behavior is covered by the acceptance
suite.
"""

import array
import contextlib
import copy
import csv
import hashlib
import importlib.util
import itertools
import json
import math
import os
import pathlib
import re
import shutil
import struct
import tempfile
import textwrap
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgident.bench as bench_module
from sgident.bench import (
    TRACE_COLUMNS,
    compare_runs,
    export_csv,
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
from sgident.control import ClosedLoopBatch, NoiseSource, Trace
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
def long_identify_report(tmp_path_factory):
    """Logistic identification over 1100 steps: past the step-500 checkpoint, cross-entropy."""
    root = tmp_path_factory.mktemp("bench_identify_long")
    text = IDENTIFY_CFG.replace("linear_mse", "logistic").replace("mu = 0.3", "mu = 0.1")
    text = text.replace("n_steps = 60", "n_steps = 1100")
    return run_experiment(load_config(_write_cfg(root, text, out=root / "runs")))


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

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_target_rejected(self, tmp_path, target):
        # the run would succeed and its own verify_report fail on the y_star column
        text = CONTROL_CFG + f"\n[control]\ny_target = {target}\n"
        with pytest.raises(ConfigurationError) as exc:
            load_config(_write_cfg(tmp_path, text, out=tmp_path))
        assert str(exc.value) == f"control.y_target must be finite, got {float(target)!r}"

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
        assert type(phi) is array.array and phi.typecode == "d"
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


def _cell(value):
    """A trace cell: the 16 hex digits of an int's int64 or a float's float64 bits."""
    return struct.pack(">q" if isinstance(value, int) else ">d", value).hex().encode()


def _set_cell(path, line, column, cell):
    """Set ``column`` on file line ``line`` of a trace to ``cell`` (a number, or raw bytes)."""
    path = pathlib.Path(path)
    lines = path.read_bytes().split(b"\n")
    names = lines[0].split(b" ", 1)[1].decode().split(",")
    cells = lines[line - 1].split(b",")
    cells[names.index(column)] = cell if isinstance(cell, bytes) else _cell(cell)
    lines[line - 1] = b",".join(cells)
    path.write_bytes(b"\n".join(lines))
    return str(path)


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
        path = str(tmp_path / "trace.hex")
        write_trace(path, self._trace())
        back = read_trace(path)
        assert len(back) == 3
        assert back.u is None and back.y_star is None
        assert back.f_est[0] == 1.0 / 3.0
        assert back.flags[1] == "saturated;divergence"
        assert back.r_k[1] == 2.9
        assert back == self._trace()

    def test_header_then_one_fixed_width_line_per_row(self, tmp_path):
        path = tmp_path / "trace.hex"
        write_trace(str(path), self._trace())
        lines = path.read_bytes().split(b"\n")
        # u and y_star are empty, so the header leaves them out
        assert lines[0] == (b"sgident-trace/1 "
                            b"k,y,f_true,f_est,loss,regret_avg,theta_err,mu_k,r_k,flags")
        assert lines[2] == (b"0000000000000001,bfc999999999999a,3fd3333333333333,"
                            b"3fd3d70a3d70a3d7,3fd0a3d70a3d70a4,3f70624dd2f1a9fc,"
                            b"3ff199999999999a,3fb70a3d70a3d70a,4007333333333333,"
                            b"0000000000000005")  # saturated = 1 | divergence = 4
        assert len(lines) == 5 and lines[-1] == b""  # every row ends in LF
        assert {len(line) for line in lines[1:-1]} == {10 * 17 - 1}

    def test_empty_trace_is_its_header(self, tmp_path):
        path = tmp_path / "trace.hex"
        write_trace(str(path), Trace(k=np.empty(0, dtype=np.int64)))
        assert path.read_bytes() == b"sgident-trace/1 k,flags\n"
        assert read_trace(str(path)) == Trace(k=np.empty(0, dtype=np.int64))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.hex"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_trace(str(path))

    def test_non_finite_cell_is_not_written(self, tmp_path):
        # read_trace rejects a non-finite cell, so write_trace never writes one
        path = tmp_path / "trace.hex"
        with pytest.raises(DataError, match=r"column 'y' at row 1 \(step 1\)$"):
            write_trace(str(path), Trace(k=[0, 1], y=[0.5, math.nan]))
        assert not path.exists()

    def test_non_finite_appended_chunk_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "trace.hex"
        write_trace(str(path), Trace(k=[0, 1], y=[0.5, 0.25]))
        written = path.read_bytes()
        with pytest.raises(DataError, match=r"column 'y' at row 0 \(step 2\)$"):
            write_trace(str(path), Trace(k=[2, 3], y=[math.inf, 0.75]))
        assert path.read_bytes() == written

    @pytest.mark.parametrize("flags", ["bogus", "divergence;saturated", "saturated;saturated",
                                       "saturated;"])
    def test_flags_outside_the_vocabulary_are_not_written(self, tmp_path, flags):
        trace = self._trace()
        trace.flags[2] = flags
        with pytest.raises(DataError, match="are not distinct"):
            write_trace(str(tmp_path / "trace.hex"), trace)


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
        path = os.path.join(tmp, "trace.hex")
        write_trace(path, trace)
        first = open(path, "rb").read()
        back = read_trace(path)
        assert back == trace
        write_trace(path, back)
        assert open(path, "rb").read() == first


def _oracle_write_trace(path, trace):
    """Reference CSV writer: the csv module over ``repr`` of each float cell.

    ``export_csv`` formats a column per call and joins rows itself; its
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
_cell_floats = _finite | st.sampled_from(_EDGE_FLOATS) | st.integers(-2**60, 2**60).map(float)
# around the reader's batches of rows
_C = bench_module._CHUNK


@st.composite
def _long_traces(draw):
    """Traces spanning several read chunks, with every edge float and flag string.

    Each column cycles through a drawn pool of cells (the edge floats
    always among them) in a drawn order, so long columns cost few draws.
    """
    n = draw(st.sampled_from([0, 1, _C - 1, _C, _C + 1, 2 * _C + 1]))
    names = draw(st.lists(st.sampled_from(TRACE_COLUMNS[1:-1]), unique=True))
    pool = np.array(draw(st.lists(_cell_floats, max_size=40)) + _EDGE_FLOATS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {name: np.resize(rng.permutation(pool), n) for name in names}
    flag_order = np.resize(rng.permutation(len(_FLAG_STRINGS)), n)
    return Trace(k=np.arange(n), flags=[_FLAG_STRINGS[i] for i in flag_order], **columns)


class TestTraceRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(trace=_long_traces(), data=st.data())
    def test_chunked_write_then_read_is_bit_equal(self, trace, data):
        # -0.0, subnormals and the extremes are among every column's cells
        with tempfile.TemporaryDirectory() as tmp:
            whole, chunked = os.path.join(tmp, "whole.hex"), os.path.join(tmp, "chunked.hex")
            write_trace(whole, trace)
            write_trace(chunked, Trace(k=np.empty(0, dtype=np.int64)))  # a stale file restarts
            for a, b in data.draw(_chunks(len(trace))):
                write_trace(chunked, _rows(trace, a, b))
            assert open(chunked, "rb").read() == open(whole, "rb").read()
            back = read_trace(chunked)
            assert back == trace
            for name in TRACE_COLUMNS[:-1]:
                column = getattr(trace, name)
                assert (getattr(back, name) is None) == (column is None)
                if column is not None:
                    assert getattr(back, name).tobytes() == column.tobytes()


class TestExportCsv:
    @settings(max_examples=60, deadline=None)
    @given(trace=_long_traces())
    def test_bytes_equal_the_csv_module_writer(self, trace):
        with tempfile.TemporaryDirectory() as tmp:
            write_trace(os.path.join(tmp, "trace_modified_seed1.hex"), trace)
            assert export_csv(tmp) == [os.path.join(tmp, "trace_modified_seed1.csv")]
            oracle = os.path.join(tmp, "oracle.csv")
            _oracle_write_trace(oracle, trace)
            got = open(os.path.join(tmp, "trace_modified_seed1.csv"), "rb").read()
            assert got == open(oracle, "rb").read()

    def test_control_run_exports_like_the_csv_module_writer(self, tmp_path):
        cfg = load_config(preset_path("paper_sim.cfg"))
        cfg.seeds, cfg.algorithms, cfg.out_dir = (3,), ("modified",), str(tmp_path / "run")
        report = run_experiment(cfg)
        name = report.data["runs"]["modified"]["seed_3"]["trace"]
        assert name == "trace_modified_seed3.hex"
        assert export_csv(cfg.out_dir) == [str(tmp_path / "run" / "trace_modified_seed3.csv")]
        oracle = tmp_path / "oracle.csv"
        _oracle_write_trace(str(oracle), read_trace(str(tmp_path / "run" / name)))
        exported = (tmp_path / "run" / "trace_modified_seed3.csv").read_bytes()
        assert hashlib.sha256(exported).hexdigest() == hashlib.sha256(
            oracle.read_bytes()).hexdigest()

    def test_every_trace_is_exported_and_nothing_else_is_read(self, control_report, tmp_path):
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(control_report.path), dst)
        (dst / "notes.hex").write_text("not a trace")
        written = export_csv(str(dst))
        assert [os.path.basename(p) for p in written] == [
            f"trace_{algo}_seed{seed}.csv" for algo in ("classical", "modified") for seed in (1, 2)]

    def test_missing_directory_and_no_traces_are_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="run directory not found"):
            export_csv(str(tmp_path / "none"))
        with pytest.raises(DataError, match="no trace_"):
            export_csv(str(tmp_path))

    def test_a_bad_trace_stops_before_its_csv(self, control_report, tmp_path):
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(control_report.path), dst)
        _set_cell(dst / "trace_modified_seed1.hex", 7, "y", b"7ff0000000000000")
        with pytest.raises(DataError, match="non-finite cell in column 'y'.* at line 7$"):
            export_csv(str(dst))
        assert not (dst / "trace_modified_seed1.csv").exists()


class TestTraceReader:
    """``read_trace`` rejects each malformed file with a DataError naming its line."""

    _ROWS = _C + 4
    # the first two rows, both sides of the reader's first batch and the last row
    _LINES = (2, 3, _C + 1, _C + 2, _C + 5)
    _NAMES = ["k", "y", "f_est", "loss", "mu_k", "r_k", "flags"]

    @pytest.fixture(scope="class")
    def text(self, tmp_path_factory):
        """A replay-shaped trace of ``_ROWS`` rows, flags from the whole vocabulary."""
        rng = np.random.default_rng(5)
        n = self._ROWS
        columns = {name: rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
                   for name in self._NAMES[1:-1]}
        flags = [_FLAG_STRINGS[i] for i in rng.integers(0, len(_FLAG_STRINGS), n)]
        path = tmp_path_factory.mktemp("reader") / "trace.hex"
        write_trace(str(path), Trace(k=np.arange(n), flags=flags, **columns))
        return path.read_bytes()

    def _offset(self, text, line, column):
        """The byte offset in ``text`` of the separator after ``column`` on ``line``."""
        header = text.index(b"\n") + 1
        return header + (line - 2) * 17 * len(self._NAMES) + self._NAMES.index(column) * 17 + 16

    @staticmethod
    def _read(tmp_path, text):
        path = tmp_path / "trace.hex"
        path.write_bytes(text)
        return read_trace(str(path))

    def test_the_fixture_reads_back(self, tmp_path, text):
        assert len(self._read(tmp_path, text)) == self._ROWS

    @pytest.mark.parametrize("line", _LINES)
    @pytest.mark.parametrize("column, cell, problem", [
        ("f_est", b"3ff000000000000g", "cell that is not 16 lowercase hex digits"),
        ("mu_k", b"3FF0000000000000", "cell that is not 16 lowercase hex digits"),
        ("k", b" 000000000000001", "cell that is not 16 lowercase hex digits"),
        ("y", b"7ff0000000000000", "non-finite cell"),
        ("loss", b"fff0000000000000", "non-finite cell"),
        ("r_k", b"7ff8000000000000", "non-finite cell"),
        ("f_est", b"7ff0000000000001", "non-finite cell"),
        ("flags", b"0000000000000008", "flags value above 7"),
        ("flags", b"ffffffffffffffff", "flags value above 7"),
    ])
    def test_bad_cell_names_its_line(self, tmp_path, text, line, column, cell, problem):
        at = self._offset(text, line, column) - 16
        edited = text[:at] + cell + text[at + 16:]
        match = f"^{problem} in column {column!r} of .* at line {line}$"
        with pytest.raises(DataError, match=match) as exc:
            self._read(tmp_path, edited)
        assert exc.value.line == line

    @pytest.mark.parametrize("line", _LINES)
    @pytest.mark.parametrize("column, separator", [
        ("k", b";"), ("f_est", b" "), ("y", b"\n"), ("flags", b","), ("flags", b"\r"),
    ])
    def test_wrong_separator_names_its_line(self, tmp_path, text, line, column, separator):
        at = self._offset(text, line, column)
        edited = text[:at] + separator + text[at + 1:]
        match = f"^wrong separator after the cell in column {column!r}"
        with pytest.raises(DataError, match=match) as exc:
            self._read(tmp_path, edited)
        assert exc.value.line == line

    @pytest.mark.parametrize("line", _LINES[:-1])
    def test_a_row_one_digit_short_is_a_wrong_separator_on_its_line(self, tmp_path, text, line):
        at = self._offset(text, line, "loss") - 1
        with pytest.raises(DataError, match="wrong separator") as exc:
            self._read(tmp_path, text[:at] + text[at + 1:])
        assert exc.value.line == line

    @pytest.mark.parametrize("edit, line", [
        (lambda text: text[:-1], _ROWS + 1),  # the last LF
        (lambda text: text[:-17], _ROWS + 1),  # the last cell
        (lambda text: text + b"\n", _ROWS + 2),  # a blank line
        (lambda text: text + b"0000000000000000,", _ROWS + 2),
    ], ids=["no_final_lf", "one_cell_short", "blank_line", "part_of_a_row"])
    def test_short_final_row_names_its_line(self, tmp_path, text, edit, line):
        with pytest.raises(DataError, match=f"^short final row in .* at line {line}$") as exc:
            self._read(tmp_path, edit(text))
        assert exc.value.line == line

    @pytest.mark.parametrize("header", [
        b"sgident-trace/2 k,y,f_est,loss,mu_k,r_k,flags",
        b"k,y,f_est,loss,mu_k,r_k,flags",
        b"sgident-trace/1 k,f_est,y,loss,mu_k,r_k,flags",
        b"sgident-trace/1 y,f_est,loss,mu_k,r_k,flags",
        b"sgident-trace/1 k,y,f_est,loss,mu_k,r_k",
        b"sgident-trace/1 k,y,y,f_est,loss,mu_k,r_k,flags",
        b"sgident-trace/1 k,y,f_est,loss,mu_k,r_k,flags" + b",k" * 60,
    ], ids=["version", "csv_header", "order", "no_k", "no_flags", "repeated", "too_long"])
    def test_wrong_header_is_line_1(self, tmp_path, text, header):
        edited = header + b"\n" + text.split(b"\n", 1)[1]
        with pytest.raises(DataError, match="^unexpected trace header in .* at line 1$") as exc:
            self._read(tmp_path, edited)
        assert exc.value.line == 1

    @pytest.mark.parametrize("header, unknown", [
        (b"sgident-trace/1 k,y,f_est,loss,mu_k,r_k,bogus,flags", "bogus"),
        (b"sgident-trace/1 k,y,f_est,Loss,mu_k,r_k,flags", "Loss"),
        (b"sgident-trace/1 k,y,f_est,loss,,mu_k,r_k,flags", ""),
        (b"sgident-trace/1  k,y,f_est,loss,mu_k,r_k,flags", " k"),
        (b"sgident-trace/1 k,y,f_est,loss,mu_k,r_k,flags\r", "flags\r"),
    ])
    def test_header_naming_an_unknown_column_is_line_1(self, tmp_path, text, header, unknown):
        edited = header + b"\n" + text.split(b"\n", 1)[1]
        match = f"^unknown trace column {re.escape(repr(unknown))} in the header"
        with pytest.raises(DataError, match=match) as exc:
            self._read(tmp_path, edited)
        assert exc.value.line == 1

    def test_header_without_a_line_end_is_line_1(self, tmp_path, text):
        with pytest.raises(DataError, match="unexpected trace header") as exc:
            self._read(tmp_path, text.split(b"\n", 1)[0])
        assert exc.value.line == 1

    def test_the_earliest_bad_line_is_named(self, tmp_path, text):
        # a later batch's bad cell waits for the earlier batch's, and on one line a
        # separator comes before a digit pair, and that before a value
        edits = [(_C + 3, "y", b"7ff0000000000000"), (40, "flags", b"0000000000000009")]
        edited = text
        for line, column, cell in edits:
            at = self._offset(text, line, column) - 16
            edited = edited[:at] + cell + edited[at + 16:]
        with pytest.raises(DataError, match="flags value above 7.* at line 40$"):
            self._read(tmp_path, edited)
        at = self._offset(text, 40, "y") - 16
        edited = edited[:at] + b"zz" + edited[at + 2:]
        with pytest.raises(DataError, match="not 16 lowercase hex digits in column 'y'.* line 40$"):
            self._read(tmp_path, edited)
        at = self._offset(text, 40, "r_k")
        edited = edited[:at] + b";" + edited[at + 1:]
        with pytest.raises(DataError, match="separator after the cell in column 'r_k'.* line 40$"):
            self._read(tmp_path, edited)


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
                assert os.path.exists(os.path.join(out, f"trace_{algo}_seed{seed}.hex"))

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
    @staticmethod
    def _overflow_config(tmp_path, rows, bad_row):
        """The linear replay config over ``rows`` rows; 2 * (f - 1e308) overflows the
        squared-error derivative on row ``bad_row``."""
        data = tmp_path / "data.csv"
        data.write_text("f0,f1,f2,y\n" + "".join(
            "1,0.5,0.2,1e308\n" if i == bad_row else "1,0.5,0.2,2\n" for i in range(rows)))
        text = REPLAY_CFG.replace("pair = saturation", "pair = linear_mse")
        text = text.replace("n_steps = 200", f"n_steps = {rows}")
        text = text.replace("features = f0, f1, f2, f3, f4", "features = f0, f1, f2")
        text = text.replace("lower = 6.0\nupper = 120.0\nnoise_std = 5.0\n", "")
        path = _write_cfg(tmp_path, text, out=tmp_path / "runs", data=data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return load_config(path)

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.parametrize("rows, bad_row", [(3, 1), (1200, 512), (1200, 700)])
    def test_failed_run_leaves_its_report_and_no_trace(self, tmp_path, monkeypatch, rows,
                                                       bad_row):
        # rows 512 and 700 fail in the second chunk of steps, after the first
        # was written to the trace files the sweep holds open
        handles = []

        def tracked_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(bench_module, "open", tracked_open, raising=False)
        with pytest.raises(NumericError):
            run_experiment(self._overflow_config(tmp_path, rows, bad_row))
        assert sorted(os.listdir(tmp_path / "runs")) == ["report.json"]
        assert len(handles) >= 3 and all(fh.closed for fh in handles)  # 2 traces, the report
        report = json.loads((tmp_path / "runs" / "report.json").read_text())
        assert report["error"]["context"]["k"] == bad_row
        assert report["runs"] == {"modified": {}, "classical": {}}

    @pytest.mark.parametrize("bad_row", [0, 511, 512, 1023, 1099])
    def test_error_at_a_chunk_seam_is_the_steps(self, tmp_path, bad_row):
        # the run's steps come in chunks of 512: a failure on either side of a
        # seam, or on the last step, raises the error of that step, with its
        # values; the rows before it are clean, so its prediction is the
        # clean run's f_est there
        clean = tmp_path / "clean"
        clean.mkdir()
        run_experiment(self._overflow_config(clean, 1100, None))
        x = read_trace(clean / "runs" / "trace_modified_replay.hex").f_est[bad_row]
        with pytest.raises(NumericError) as exc:
            run_experiment(self._overflow_config(tmp_path, 1100, bad_row))
        assert type(exc.value) is NumericError
        assert str(exc.value) == "loss 'squared_error' produced a non-finite derivative"
        context = {"k": bad_row, "algorithm": "modified", "seed": 0, "y": 1e308, "x": x}
        assert exc.value.context == context
        report = json.loads((tmp_path / "runs" / "report.json").read_text())
        assert report["error"] == {"message": str(exc.value), "context": context}

    @pytest.mark.parametrize("bad_step", [0, 511, 512, 1023, 1099])
    def test_closed_loop_error_at_a_chunk_seam_is_the_steps(self, tmp_path, monkeypatch,
                                                           bad_step):
        # noise std 1e308 over uniforms of 0.5, whose draws are exactly 0,
        # but for one of seed 4 at the bad step, whose draw overflows to -inf
        class SpikeNoise(NoiseSource):
            def with_seed(self, seed):
                return SpikeNoise(std=self.std, seed=seed, kind=self.kind, df=self.df)

            def uniform_block(self, n):
                u = np.full(n, 0.5)
                if self.seed == 4 and 0 <= bad_step - self.draw_count < n:
                    u[bad_step - self.draw_count] = 1e-5
                self.draw_count += n
                return u

        monkeypatch.setattr(bench_module, "NoiseSource", SpikeNoise)
        text = CONTROL_CFG.replace("noise_std = 0.05", "noise_std = 1e308")
        text = text.replace("seeds = 1, 2", "seeds = 2, 4")
        text = text.replace("n_steps = 40", "n_steps = 1100")
        cfg = load_config(_write_cfg(tmp_path, text, out=tmp_path / "runs"))
        with pytest.raises(NumericError) as exc:
            run_experiment(cfg)
        assert type(exc.value) is NumericError
        assert str(exc.value) == "observation must be finite"
        assert exc.value.context == {"k": bad_step, "algorithm": "modified", "seed": 4,
                                     "y": -math.inf}
        report = json.loads((tmp_path / "runs" / "report.json").read_text())
        assert report["error"] == {"message": "observation must be finite", "context": {
            "k": bad_step, "algorithm": "modified", "seed": 4, "y": "-inf"}}

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
        trace_path = os.path.join(dst, "trace_modified_seed1.hex")
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
        ("control_report", "r_k", "is empty, but control fills it"),
        ("identify_report", "u", "is filled, but identify leaves it empty"),
        ("small_replay_report", "theta_err", "is filled, but replay leaves it empty"),
        ("small_replay_report", "u", "is filled, but replay leaves it empty"),
    ])
    def test_header_leaving_out_or_naming_a_column_against_the_mode_is_flagged(
            self, run, column, state, request, tmp_path):
        # a trace's header names exactly the columns it holds
        report = request.getfixturevalue(run)
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(report.path), dst)
        algo = report.data["config"]["algorithms"][0]
        seed_key, summary = next(iter(report.data["runs"][algo].items()))
        trace_path = str(dst / summary["trace"])
        trace = read_trace(trace_path)
        setattr(trace, column, None if "is empty" in state else np.full(len(trace), 0.5))
        write_trace(trace_path, trace)
        header = open(trace_path, "rb").readline().decode().split(" ")[1].rstrip("\n")
        assert (column in header.split(",")) == ("is filled" in state)
        assert verify_report(str(dst / "report.json")) == (False, [
            f"{algo}/{seed_key} ({summary['trace']}): column {column!r} {state}"
        ])

    def test_bad_trace_cell_names_its_line(self, control_report, tmp_path):
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(control_report.path), dst)
        _set_cell(dst / "trace_modified_seed1.hex", 30, "f_est", b"oops000000000000")
        with pytest.raises(DataError, match="at line 30") as exc:
            verify_report(str(dst / "report.json"))
        assert exc.value.line == 30

    @pytest.mark.parametrize("run", ["identify_report", "small_replay_report"])
    def test_flags_cell_outside_the_vocabulary_names_its_line(self, run, request, tmp_path):
        # outside control mode no check reads a clean step's flags, so the reader must
        report = request.getfixturevalue(run)
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(report.path), dst)
        summary = next(iter(report.data["runs"][report.data["config"]["algorithms"][0]].values()))
        _set_cell(dst / summary["trace"], 42, "flags", 8)
        with pytest.raises(DataError, match="flags value above 7.* at line 42$") as exc:
            verify_report(str(dst / "report.json"))
        assert exc.value.line == 42

    @pytest.mark.parametrize("run", ["control_report", "identify_report", "small_replay_report"])
    @pytest.mark.parametrize("column, cell, derivation", [
        ("k", 5, "the row index"),
        ("loss", 123.0, "squared_error(y, f_est)"),
    ])
    def test_edited_derived_trace_column_is_flagged(self, run, column, cell, derivation,
                                                    request, tmp_path):
        # summarize reads neither k nor loss; verify_report re-derives both
        report = request.getfixturevalue(run)
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(report.path), dst)
        algo = report.data["config"]["algorithms"][0]
        seed_key, summary = next(iter(report.data["runs"][algo].items()))
        _set_cell(dst / summary["trace"], 12, column, cell)
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
        _set_cell(dst / summary["trace"], 12, "regret_avg", 9.0)
        assert verify_report(str(dst / "report.json")) == (False, [
            f"{algo}/{seed_key} ({summary['trace']}): column 'regret_avg' first differs "
            f"from the running mean of the regret at row 10 (line 12)"
        ])

    @pytest.mark.parametrize("column, cell, derived", [
        ("y_star", 0.25, "y_star"),
        ("f_true", 0.125, "f_true"),
        # the input is the plant's regressor entry, so it shows in that step's f_true
        ("u", 1.0, "f_true"),
    ])
    def test_edited_control_column_is_flagged(self, control_report, tmp_path, column, cell,
                                              derived):
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(control_report.path), dst)
        summary = control_report.data["runs"]["modified"]["seed_1"]
        _set_cell(dst / summary["trace"], 12, column, cell)
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
        _set_cell(dst / "trace_modified_seed3.hex", 6, "mu_k", 9.0)
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


def _rows(trace, start, stop):
    """Rows start..stop - 1 of ``trace`` as a Trace of their own; ``k`` keeps its values."""
    columns = {name: None if column is None else column[start:stop]
               for name in TRACE_COLUMNS[:-1] for column in [getattr(trace, name)]}
    return Trace(flags=trace.flags[start:stop], **columns)


@st.composite
def _chunks(draw, n):
    """Consecutive (start, stop) chunks covering rows 0..n - 1, cut at drawn rows.

    Cuts next to the step-500 checkpoint and the robbins-siegmund tail start
    n // 2 are drawn often.
    """
    if n < 2:
        return [(0, n)]
    seams = [m for m in (1, 499, 500, 501, n // 2, n // 2 + 1, n - 1) if 0 < m < n]
    cuts = draw(st.lists(st.integers(1, n - 1) | st.sampled_from(seams), unique=True,
                         max_size=12))
    edges = [0, *sorted(cuts), n]
    return list(zip(edges, edges[1:]))


class TestStreamedRun:
    """A run streams its sweep: each chunk of steps of every cell is summarized
    at once, as (steps, cells) blocks, and written as it comes.  Any split of
    a run's traces into consecutive chunks must give each cell the bits of
    its whole trace at once."""

    @pytest.fixture(scope="class", params=["paper_run", "replay_run", "long_identify_report"])
    def run_traces(self, request):
        """(config, every trace of the run, their whole ``_summarize`` and whole-write bytes)."""
        report = request.getfixturevalue(request.param)
        report = report[0] if isinstance(report, tuple) else report
        out_dir = os.path.dirname(report.path)
        traces = [read_trace(os.path.join(out_dir, summary["trace"]))
                  for by_seed in report.data["runs"].values() for summary in by_seed.values()]
        config = report.data["config"]
        wholes = [bench_module._summarize(config, trace) for trace in traces]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "whole.hex")
            written = []
            for trace in traces:
                write_trace(path, trace)
                written.append(open(path, "rb").read())
        return config, traces, wholes, written

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_running_summary_equals_one_whole_summarize(self, run_traces, data):
        config, traces, wholes, _ = run_traces
        summary = bench_module._RunningSummary(config, len(traces[0]), len(traces))
        regrets = []
        for a, b in data.draw(_chunks(len(traces[0]))):
            rows = [_rows(trace, a, b) for trace in traces]
            columns = {name: np.stack([getattr(part, name) for part in rows], axis=1)
                       for name in TRACE_COLUMNS[1:-1]
                       if name != "y_star" and getattr(rows[0], name) is not None}
            flags = np.stack([bench_module._flag_masks(part.flags) for part in rows], axis=1)
            regrets.append(summary.feed(columns, rows[0].y_star, flags))
        for i, (whole, regret) in enumerate(wholes):
            assert (json.dumps(summary.result(i), sort_keys=True)
                    == json.dumps(whole, sort_keys=True)), i
            if regret is None:
                assert regrets == [None] * len(regrets)
            else:
                assert np.concatenate([part[:, i] for part in regrets]).tobytes() == regret.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_chunk_by_chunk_write_equals_one_whole_write(self, run_traces, data):
        # even cells are written by path, each chunk reopening the file (a
        # stale file restarts), odd ones through a file the sweep holds open
        _, traces, _, written = run_traces
        with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as files:
            paths = [os.path.join(tmp, f"chunked{i}.hex") for i in range(len(traces))]
            targets = []
            for i, path in enumerate(paths):
                if i % 2:
                    targets.append(files.enter_context(open(path, "wb")))
                else:
                    write_trace(path, Trace(k=np.empty(0, dtype=np.int64)))
                    targets.append(path)
            for a, b in data.draw(_chunks(len(traces[0]))):
                for target, trace in zip(targets, traces):
                    write_trace(target, _rows(trace, a, b))
            files.close()
            assert [open(path, "rb").read() for path in paths] == written


class TestFlagBitmask:
    """The loop hands over each step's flags as the int64 bitmask a trace file
    stores (saturated = 1, singular_gain = 2, divergence = 4); a Trace still
    holds them as ";"-joined names."""

    def test_every_mask_writes_and_counts_as_its_names(self, tmp_path):
        masks = np.array([[0, 7], [1, 6], [2, 5], [3, 4], [4, 3], [5, 2], [6, 1], [7, 0]])
        names = ["", "saturated", "singular_gain", "saturated;singular_gain", "divergence",
                 "saturated;divergence", "singular_gain;divergence",
                 "saturated;singular_gain;divergence"]
        m = len(masks)
        recorded = {name: np.linspace(0.25, 2.0, 2 * m).reshape(m, 2)
                    for name in ("y", "f_true", "f_est", "loss", "theta_err", "mu_k", "r_k")}
        recorded["r_k"] = np.cumsum(recorded["r_k"], axis=0) + 2.0
        batch = ClosedLoopBatch(cells=(("modified", 1), ("classical", 1)), recorded=recorded,
                                y_star=None, flags=masks, start=0)
        config = {"mode": "identify", "pair": "linear_mse",
                  "hyper": {"mu": 0.3, "beta1": 0.5, "beta2": 0.51, "beta3": 2.0}}
        summary = bench_module._RunningSummary(config, m, 2)
        summary.feed(recorded, None, masks)
        for i in range(2):
            strings = [names[mask] for mask in masks[:, i]]
            trace = batch.trace(i)
            assert trace.flags == strings
            path = tmp_path / f"trace{i}.hex"
            write_trace(str(path), trace)
            cells = [line.split(b",")[-1] for line in path.read_bytes().split(b"\n")[1:-1]]
            assert cells == [b"%016x" % mask for mask in masks[:, i]]
            assert read_trace(str(path)).flags == strings
            # the bytes of the string path: a Trace given the names
            strung = tmp_path / f"strung{i}.hex"
            write_trace(str(strung), Trace(**{**vars(trace), "flags": strings}))
            assert strung.read_bytes() == path.read_bytes()
            counted = Counter(f for text in strings if text for f in text.split(";"))
            assert summary.result(i)["flag_counts"] == {name: counted[name] for name in
                                                        ("saturated", "singular_gain", "divergence")}
            assert summary.result(i) == summarize(config, trace)


class TestMemoryBound:
    def test_run_peak_does_not_grow_with_n_steps(self, tmp_path):
        # Python-heap peaks of a 2-cell control run under tracemalloc: streamed,
        # the 10,000-step run peaked 0.02 MB above the 1,000-step one (1.22 MB).
        # Holding every recorded column, the noise block, the targets and
        # n-long scan lists until the sweep ended, it grew by 2.0 MB.
        def run(n_steps):
            text = CONTROL_CFG.replace("n_steps = 40", f"n_steps = {n_steps}")
            text = text.replace("seeds = 1, 2", "seeds = 1")
            run_experiment(load_config(_write_cfg(tmp_path, text, out=tmp_path / f"runs{n_steps}")))

        def peak(n_steps):
            tracemalloc.start()
            try:
                run(n_steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(40)  # first-call allocations (lazy imports, caches) do not count
        small, large = peak(1000), peak(10_000)
        assert large - small <= 0.5 * 2**20, (small, large)


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
            len(open(os.path.join(out_dir, s["trace"]), "rb").read().split(b"\n")) - 2
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
