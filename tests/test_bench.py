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
from types import SimpleNamespace
from unittest import mock

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
from sgident.control import ControlConfig, NoiseSource, Trace
from sgident.core import row_dots
from sgident.errors import ConfigurationError, DataError, NumericError
from sgident.metrics import (
    gradient_norms_sq,
    regret_sum,
    relative_error_metric,
    robbins_siegmund_diag,
    running_mean,
)
from sgident.models import SaturationSpec, SquaredError

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

    @pytest.mark.parametrize("text,old,new,message", [
        (CONTROL_CFG, "algorithms = modified, classical", "algorithms = ,",
         "experiment.algorithms: must list at least one algorithm"),
        (CONTROL_CFG, "n_steps = 40", "n_steps = 0", "experiment.n_steps: must be >= 1, got 0"),
        (CONTROL_CFG, "beta3 = 2.0", "beta3 = 2.0\nalpha_eps = 1.5",
         "hyper.alpha_eps: must lie in (0,1), got 1.5"),
        (CONTROL_CFG, "q = 2", "q = 2\npair = logistic",
         "model.pair: control mode drives the tanh lag model; got 'logistic'"),
        (CONTROL_CFG, "theta0 = 0.01, 0.01, 0.01, 0.01, 0.01", "theta0 = 0.01, 0.01",
         "plant.theta0: expected 5 entries, got 2"),
        (CONTROL_CFG, "noise_std = 0.05", "noise_std = -1",
         "plant.noise_std: noise std must be finite and >= 0, got -1.0"),
        (CONTROL_CFG, "noise_std = 0.05", "noise_std = 0.05\nnoise_kind = laplace",
         "plant.noise_kind: unknown noise kind 'laplace'"),
        (CONTROL_CFG, "noise_std = 0.05", "noise_std = 0.05\nnoise_kind = student_t\nnoise_df = 2",
         "plant.noise_df: student_t noise needs df > 2"),
        (CONTROL_CFG, "seeds = 1, 2", "seeds = 1, two",
         "experiment.seeds: cannot parse '1, two' (expected comma-separated integers)"),
        (REPLAY_CFG, "features = f0, f1, f2, f3, f4", "features = ,",
         "replay.features: must list at least one column"),
        (REPLAY_CFG, "pair = saturation", "pair = logistic",
         "replay.pair: supported pairs are 'saturation' and 'linear_mse', got 'logistic'"),
        (REPLAY_CFG, "target = y", "target = y\ntheta0 = 0, 0",
         "replay.theta0: expected 5 entries, got 2"),
        (REPLAY_CFG, "target = y", "target = y\nstrict_csv = maybe",
         "replay.strict_csv: cannot parse 'maybe' (not a boolean: 'maybe')"),
    ], ids=["no_algorithm", "n_steps", "alpha_eps", "control_pair", "theta0_size",
            "plant_noise", "plant_noise_kind", "plant_noise_df", "seeds", "no_feature",
            "replay_pair", "replay_theta0_size", "boolean"])
    def test_rejection_names_its_key(self, tmp_path, text, old, new, message):
        assert old in text
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the censored replay pair declares no constants
            with pytest.raises(ConfigurationError) as exc:
                load_config(_write_cfg(tmp_path, text.replace(old, new), out=tmp_path,
                                       data="data.csv"))
        assert str(exc.value) == message

    @pytest.mark.parametrize("spelling,value", [
        ("1", True), ("true", True), ("Yes", True), ("ON", True),
        ("0", False), ("false", False), ("no", False), ("Off", False),
    ])
    def test_boolean_spellings(self, tmp_path, spelling, value):
        text = REPLAY_CFG.replace("target = y", f"target = y\nstrict_csv = {spelling}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = load_config(_write_cfg(tmp_path, text, out=tmp_path, data="data.csv"))
        assert cfg.strict_csv is value

    def test_unparsable_and_unreadable_files_are_named(self, tmp_path):
        path = tmp_path / "headless.cfg"
        path.write_text("mode = control\n")
        with pytest.raises(ConfigurationError,
                           match=f"config parse error in {re.escape(str(path))}"):
            load_config(str(path))
        with pytest.raises(ConfigurationError, match="config file unreadable"):
            load_config(str(tmp_path))  # a directory exists but reads as nothing

    @pytest.mark.parametrize("pair", ["saturation", "linear_mse"])
    def test_a_replay_echo_rebuilds_the_loaded_pair(self, tmp_path, pair):
        # the echoed report config names the window and dimension the run used;
        # without them the catalog's 'saturation' pair, [-1, 1] in d = 3, stood in
        text = REPLAY_CFG.replace("pair = saturation", f"pair = {pair}")
        if pair == "linear_mse":
            text = re.sub(r"(lower|upper|noise_std) = .*\n", "", text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = load_config(_write_cfg(tmp_path, text, out=tmp_path, data="data.csv"))
        echo = json.loads(json.dumps(bench_module._echo_config(cfg)))
        rebuilt = bench_module._pair_of(echo)
        loaded = cfg.pair
        assert type(rebuilt.predictor) is type(loaded.predictor)
        assert rebuilt.predictor.dim == loaded.predictor.dim == 5
        assert getattr(rebuilt.predictor, "spec", None) == getattr(loaded.predictor, "spec", None)
        assert rebuilt.loss.name == loaded.loss.name
        assert rebuilt.operating_note == loaded.operating_note
        if pair == "saturation":
            assert rebuilt.predictor.spec == SaturationSpec(6.0, 120.0, 5.0)


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


# cells that make a row malformed, or that csv and NumPy might read differently
_ODD_CELLS = ("nan", "inf", "-inf", "1e500", "1_0", "0", "-0.0", "-2.5", "", " ", "x", "1e-320",
              '"1,5"', '"x,\ny"', '"x\r\ny"', '"2"""', '1"2"', '"1"2', "\u0661", "\u00a05")


@st.composite
def _replay_csv(draw):
    """A CSV body over features a, b and target y, and the n_steps to read it with.

    About half the bodies are hostile: any cell may be odd, and rows may be
    short or hold only whitespace.  In the others only a column that is not
    read (an extra one, a repeated name's first, a long row's tail) holds odd
    cells, and every read cell is a number, mostly positive, bare, quoted,
    padded or quoted with a line end.
    """
    names = draw(st.permutations(["a", "b", "y", *draw(st.sampled_from([[], ["z"], ["a"], ["y"],
                                                                          ["z", "a"]]))]))
    read = {name: i for i, name in enumerate(names)}.values()  # a repeated name reads its last
    positive = st.one_of(st.floats(0.5, 1e6).map(repr), st.integers(1, 10**6).map(str))
    number = st.one_of(positive, positive, positive, st.sampled_from(["0", "-0.0", "-2.5"]))
    fine = st.one_of(number, number.map('"{}"'.format), number.map(" {} ".format),
                     number.map('"{}\r\n"'.format), number.map('"{}\n"'.format))
    hostile = draw(st.booleans())
    kinds = ["row", "row", "row", "long", "blank"] + (["short", "spaces"] if hostile else [])
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        width = {"short": len(names) - 1, "long": len(names) + 2}.get(kind, len(names))
        cells = [draw(st.one_of(fine, st.sampled_from(_ODD_CELLS))
                      if hostile or i not in read else fine) for i in range(width)]
        lines.append({"blank": "", "spaces": "  \t"}.get(kind, ",".join(cells)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    body = end.join(lines) + draw(st.sampled_from([end, ""]))
    return body, draw(st.integers(1, len(lines) + 2))


def _replay_load(path, n_steps, strict, per_row=False):
    """``_load_replay_rows``'s rows as bytes with their shape and dataset block, or its error."""
    cfg = SimpleNamespace(data_path=path, features=("a", "b"), target_col="y",
                          strict_csv=strict, n_steps=n_steps)
    no_block_read = mock.patch.object(bench_module, "_read_rows_at_once", lambda stream: None)
    try:
        with no_block_read if per_row else contextlib.nullcontext():
            rows, dataset = bench_module._load_replay_rows(cfg)
    except DataError as exc:
        return type(exc), str(exc), exc.line
    return rows.tobytes(), rows.shape, dataset


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@settings(max_examples=150, deadline=None)
@given(case=_replay_csv())
def test_block_read_equals_the_row_stream(strict, case):
    # rows bit for bit, rows_used, rows_skipped, skipped_lines, or the error and its line
    body, n_steps = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(body)
        assert _replay_load(path, n_steps, strict) == _replay_load(path, n_steps, strict,
                                                                   per_row=True)


def test_clean_corpus_is_read_without_the_row_stream(corpus_csv):
    cfg = SimpleNamespace(data_path=corpus_csv, features=("f0", "f1", "f2", "f3", "f4"),
                          target_col="y", strict_csv=False, n_steps=4000)

    def row_by_row(stream):
        raise AssertionError("CsvStream.__iter__ was called")

    with mock.patch.object(bench_module.CsvStream, "__iter__", row_by_row):
        rows, dataset = bench_module._load_replay_rows(cfg)
    assert dataset == {"path": corpus_csv, "rows_used": 4000, "rows_skipped": 0,
                       "skipped_lines": []}
    streamed = list(ingest_csv(corpus_csv, {"features": list(cfg.features), "target": "y"},
                               max_rows=4000))
    assert rows.tobytes() == np.array([[*values, target] for values, target in streamed]).tobytes()


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
            flags=[0, 5, 0],  # saturated = 1 | divergence = 4
        )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.hex")
        write_trace(path, self._trace())
        back = read_trace(path)
        assert len(back) == 3
        assert back.u is None and back.y_star is None
        assert back.f_est[0] == 1.0 / 3.0
        assert back.flags.dtype == np.int64 and back.flags[1] == 5
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

    @pytest.mark.parametrize("mask", [8, -1, 2**62])
    def test_a_flags_value_outside_0_to_7_is_not_written(self, tmp_path, mask):
        # read_trace rejects a flags cell above 7, so write_trace never writes one
        path = tmp_path / "trace.hex"
        write_trace(str(path), self._trace())
        written = path.read_bytes()
        trace = self._trace()
        trace.flags[2] = mask
        with pytest.raises(DataError, match=rf"flags value {mask} outside 0-7 in column 'flags' "
                                            r"at row 2 \(step 2\)$"):
            write_trace(str(path), trace)
        assert path.read_bytes() == written

    def test_a_trace_with_a_cell_axis_is_not_written(self, tmp_path):
        # a file holds one cell: a loop chunk's (m, S) columns go cell by cell
        path = tmp_path / "trace.hex"
        write_trace(str(path), self._trace())
        written = path.read_bytes()
        chunk = Trace(k=[0, 1, 2], y=np.ones((3, 2)), flags=np.zeros((3, 2)))
        with pytest.raises(ConfigurationError, match=r"trace\.cell\(i\)"):
            write_trace(str(path), chunk)
        assert path.read_bytes() == written
        write_trace(str(path), chunk.cell(1))
        assert read_trace(str(path)) == Trace(k=[0, 1, 2], y=np.ones(3))


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
    flags = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    return Trace(k=np.arange(n), flags=flags, **columns)


@settings(max_examples=100, deadline=None)
@given(trace=_traces())
def test_trace_round_trip_is_exact(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.hex")
        write_trace(path, trace)
        first = pathlib.Path(path).read_bytes()
        back = read_trace(path)
        assert back == trace
        write_trace(path, back)
        assert pathlib.Path(path).read_bytes() == first


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
        cells.append([";".join(name for bit, name in enumerate(_FLAG_NAMES) if mask >> bit & 1)
                      for mask in trace.flags.tolist()])
        writer.writerows(zip(*cells))


_FLAG_NAMES = ("saturated", "singular_gain", "divergence")
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-05, 0.0001,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 1e15, 2.0**53]
_cell_floats = _finite | st.sampled_from(_EDGE_FLOATS) | st.integers(-2**60, 2**60).map(float)
# around the reader's batches of rows
_C = bench_module._CHUNK


@st.composite
def _long_traces(draw):
    """Traces spanning several read chunks, with every edge float and flags mask.

    Each column cycles through a drawn pool of cells (the edge floats
    always among them) in a drawn order, so long columns cost few draws.
    """
    n = draw(st.sampled_from([0, 1, _C - 1, _C, _C + 1, 2 * _C + 1]))
    names = draw(st.lists(st.sampled_from(TRACE_COLUMNS[1:-1]), unique=True))
    pool = np.array(draw(st.lists(_cell_floats, max_size=40)) + _EDGE_FLOATS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {name: np.resize(rng.permutation(pool), n) for name in names}
    return Trace(k=np.arange(n), flags=np.resize(rng.permutation(8), n), **columns)


def _joined(parts):
    """One Trace of the consecutive Traces ``parts``."""
    return Trace(**{name: None if getattr(parts[0], name) is None
                    else np.concatenate([getattr(part, name) for part in parts])
                    for name in TRACE_COLUMNS})


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
            assert pathlib.Path(chunked).read_bytes() == pathlib.Path(whole).read_bytes()
            back = read_trace(chunked)
            assert back == trace
            for name in TRACE_COLUMNS:
                column = getattr(trace, name)
                assert (getattr(back, name) is None) == (column is None)
                if column is not None:
                    assert getattr(back, name).tobytes() == column.tobytes()
            # read back a chunk at a time through one open file, at other cuts
            cuts = data.draw(_chunks(len(trace)))
            with open(chunked, "rb") as fh:
                parts = [read_trace(fh, b - a) for a, b in cuts]
                assert len(read_trace(fh, 5)) == 0  # nothing is left
            assert [len(part) for part in parts] == [b - a for a, b in cuts]
            assert _joined(parts) == trace


class TestExportCsv:
    @settings(max_examples=60, deadline=None)
    @given(trace=_long_traces())
    def test_bytes_equal_the_csv_module_writer(self, trace):
        with tempfile.TemporaryDirectory() as tmp:
            write_trace(os.path.join(tmp, "trace_modified_seed1.hex"), trace)
            assert export_csv(tmp) == [os.path.join(tmp, "trace_modified_seed1.csv")]
            oracle = os.path.join(tmp, "oracle.csv")
            _oracle_write_trace(oracle, trace)
            got = pathlib.Path(os.path.join(tmp, "trace_modified_seed1.csv")).read_bytes()
            assert got == pathlib.Path(oracle).read_bytes()

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


    def test_a_bad_cell_in_a_later_chunk_leaves_the_earlier_csv(self, control_report, tmp_path,
                                                                 monkeypatch):
        # the trace is read 8 rows at a time, so line 30 is in the fourth read
        monkeypatch.setattr(bench_module, "_CHUNK", 8)
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(control_report.path), dst)
        export_csv(str(dst))
        before = (dst / "trace_modified_seed1.csv").read_bytes()
        _set_cell(dst / "trace_modified_seed1.hex", 30, "f_est", b"oops000000000000")
        with pytest.raises(DataError, match="at line 30$"):
            export_csv(str(dst))
        assert (dst / "trace_modified_seed1.csv").read_bytes() == before
        assert not list(dst.glob("*.part"))


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
        flags = rng.integers(0, 8, n)
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

    @pytest.mark.parametrize("line", _LINES)
    def test_a_read_chunk_by_chunk_names_the_same_line(self, tmp_path, text, line):
        # 7 rows a call through one open file: lines still count from the file's start
        at = self._offset(text, line, "y") - 16
        path = tmp_path / "trace.hex"
        path.write_bytes(text[:at] + b"7ff0000000000000" + text[at + 16:])
        match = f"^non-finite cell in column 'y' of .* at line {line}$"
        with open(path, "rb") as fh, pytest.raises(DataError, match=match) as exc:
            while len(read_trace(fh, 7)):
                pass
        assert exc.value.line == line

    def test_a_short_final_row_is_named_by_the_read_that_reaches_the_last_row(
            self, tmp_path, text):
        path = tmp_path / "trace.hex"
        path.write_bytes(text + b"0000000000000000,")
        with open(path, "rb") as fh:
            assert len(read_trace(fh, self._ROWS - 1)) == self._ROWS - 1
            with pytest.raises(DataError, match="^short final row") as exc:
                read_trace(fh, 1)
        assert exc.value.line == self._ROWS + 2

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
        raw = pathlib.Path(control_report.path).read_text()
        assert json.loads(raw) == control_report.data
        keys = list(json.loads(raw))
        assert keys == sorted(keys)

    def test_rerun_is_byte_identical(self, control_report, tmp_path):
        import os

        out_dir = os.path.dirname(control_report.path)
        before = {
            name: pathlib.Path(os.path.join(out_dir, name)).read_bytes()
            for name in sorted(os.listdir(out_dir))
        }
        cfg = load_config(_write_cfg(tmp_path, CONTROL_CFG, out=out_dir))
        run_experiment(cfg)
        after = {
            name: pathlib.Path(os.path.join(out_dir, name)).read_bytes()
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
        loaded, dataset = bench_module._load_replay_rows(cfg)
        rows = list(ingest_csv(str(data), {"features": list(cfg.features),
                                           "target": cfg.target_col}, max_rows=cfg.n_steps))
        assert dataset["rows_skipped"] == 1 and loaded.shape == (len(rows), len(cfg.features) + 1)
        assert np.array_equal(loaded[:, :-1], np.array([values for values, _ in rows]))
        assert np.array_equal(loaded[:, -1], np.array([target for _, target in rows]))

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


    def test_a_per_step_target_is_rejected_before_anything_is_made(self, tmp_path):
        # the report holds one target: an array of them failed to serialise
        # after the whole sweep, leaving the traces and a cut-off report.json
        cfg = load_config(_write_cfg(tmp_path, CONTROL_CFG, out=tmp_path / "runs"))
        cfg.control = ControlConfig(y_target=np.full(cfg.n_steps, 0.5))
        with pytest.raises(ConfigurationError,
                           match=r"control\.y_target: must be a scalar .* shape \(40,\)"):
            run_experiment(cfg)
        assert not (tmp_path / "runs").exists()

    def test_a_report_is_written_whole_or_not_at_all(self, tmp_path):
        path = tmp_path / "report.json"
        bench_module._write_report(str(path), {"ok": 1})
        kept = path.read_bytes()
        with pytest.raises(TypeError):
            bench_module._write_report(str(path), {"a": 1, "b": np.zeros(2)})
        assert path.read_bytes() == kept
        assert sorted(os.listdir(tmp_path)) == ["report.json"]


class TestBatchRows:
    """A cell's trace does not depend on the other cells of its sweep's
    batch: each cell of a two-algorithm, two-seed sweep writes the same
    trace bytes as the same cell run alone."""

    @staticmethod
    def _traces(cfg, out, algorithms, seeds):
        cfg.algorithms, cfg.seeds, cfg.out_dir = algorithms, seeds, str(out)
        report = run_experiment(cfg)
        return {s["trace"]: pathlib.Path(os.path.join(cfg.out_dir, s["trace"])).read_bytes()
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

    @pytest.mark.parametrize("pair, mu", [("linear_mse", 0.3), ("logistic", 0.1)])
    def test_inputs_drawn_chunk_by_chunk_are_one_draw_of_the_run(self, tmp_path, pair, mu):
        # the loop asks for each chunk's inputs; the blocks of the whole run, drawn at
        # once from the same streams (all of each sampler's draws), must be their rows
        text = IDENTIFY_CFG.replace("linear_mse", pair).replace("mu = 0.3", f"mu = {mu}")
        text = text.replace("n_steps = 60", "n_steps = 1100").replace("seeds = 3", "seeds = 3, 4")
        cfg = load_config(_write_cfg(tmp_path, text, out=tmp_path))
        whole = []
        for seed in cfg.seeds:
            phi = cfg.sampler(np.random.Generator(sampler_bit_generator(seed)), 1100)[0]
            f_true = cfg.pair.predictor.link(row_dots(phi, cfg.theta_star))
            noise = NoiseSource(std=cfg.noise_std, seed=seed)
            y = ((noise.uniform_block(1100) < f_true).astype(float) if pair == "logistic"
                 else f_true + noise.draw_block(1100))
            whole.append((phi, y, f_true))
        draw = bench_module._identify_inputs(cfg)
        chunks = [draw(m) for m in (512, 512, 76)]
        for i, column in enumerate(zip(*whole)):
            assert (np.concatenate([chunk[i] for chunk in chunks]).tobytes()
                    == np.stack(column, axis=1).tobytes()), i


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
        data = json.loads(pathlib.Path(report_path).read_text())
        data["runs"]["modified"]["seed_1"]["final_average_regret"] += 1e-3
        pathlib.Path(report_path).write_text(json.dumps(data))
        ok, problems = verify_report(report_path)
        assert not ok
        assert any("final_average_regret" in p for p in problems)

    def _verify_edited(self, report, tmp_path, edit):
        dst = str(tmp_path / "copy")
        shutil.copytree(os.path.dirname(report.path), dst)
        report_path = os.path.join(dst, "report.json")
        data = json.loads(pathlib.Path(report_path).read_text())
        edit(data)
        pathlib.Path(report_path).write_text(json.dumps(data))
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

    @pytest.mark.parametrize("run, section, key", [
        ("small_replay_report", "replay", "lower"),
        ("control_report", "control", "p"),
    ])
    def test_echo_missing_a_key_it_reads_is_one_named_problem(self, run, section, key, request,
                                                               tmp_path):
        # the pair a report names is rebuilt from its echoed config; a key
        # missing there is named, not raised as a bare KeyError
        def edit(data):
            del data["config"][section][key]

        assert self._verify_edited(request.getfixturevalue(run), tmp_path, edit) == (
            False, [f"config.{section}.{key}: missing"])

    def test_report_without_runs_is_one_problem(self, control_report, tmp_path):
        # it raised a bare KeyError
        def edit(data):
            del data["runs"]

        assert self._verify_edited(control_report, tmp_path, edit) == (False, ["runs: missing"])

    def test_unknown_mode_is_one_problem(self, control_report, tmp_path):
        # it raised a bare KeyError
        def edit(data):
            data["config"]["mode"] = "bogus"

        assert self._verify_edited(control_report, tmp_path, edit) == (
            False, ["config.mode: 'bogus' is not a mode"])

    @pytest.mark.parametrize("edit, problem", [
        (lambda data: data["runs"].update(modified=[1]), "runs.modified: not an object"),
        (lambda data: data.update(runs=[1]), "runs: not an object"),
        (lambda data: data["runs"]["modified"].update(seed_1=5),
         "runs.modified.seed_1: not an object"),
        (lambda data: data.update(config=[1]), "config: not an object"),
    ], ids=["run block", "runs", "run summary", "config"])
    def test_block_that_is_not_an_object_is_one_problem(self, control_report, tmp_path, edit,
                                                        problem):
        # they raised AttributeError, or TypeError at the summary's "trace" lookup
        assert self._verify_edited(control_report, tmp_path, edit) == (False, [problem])

    @pytest.mark.parametrize("path, value, kind", [
        ("n_steps", "60", "an integer"),
        ("seeds", 1, "a list"),
        ("hyper.mu", "x", "a number"),
        ("control.p", "x", "an integer"),
    ])
    def test_echo_value_of_another_type_is_one_named_problem(self, control_report, tmp_path,
                                                             path, value, kind):
        # each raised a bare TypeError where the value was used
        def edit(data):
            *sections, key = path.split(".")
            block = data["config"]
            for section in sections:
                block = block[section]
            block[key] = value

        assert self._verify_edited(control_report, tmp_path, edit) == (
            False, [f"config.{path}: {value!r} is not {kind}"])

    @pytest.mark.parametrize("run, edit, problem", [
        ("identify_report", lambda data: data["config"].update(pair="bogus"),
         "config.pair: 'bogus' cannot be built (unknown pair 'bogus'; choose from ["),
        ("small_replay_report", lambda data: data["config"].update(pair="bogus"),
         "config.pair: 'bogus' cannot be built (replay.pair: supported pairs are "),
        ("identify_report", lambda data: data["config"]["hyper"].update(beta1=0.1),
         "config.hyper: beta1 must lie in [1/2, 1], got 0.1"),
        ("small_replay_report", lambda data: data["config"]["hyper"].update(beta1=0.1),
         "config.hyper: beta1 must lie in [1/2, 1], got 0.1"),
        ("identify_report", lambda data: data["config"]["hyper"].update(zzz=1),
         "config.hyper: HyperParams.__init__() got an unexpected keyword argument 'zzz'"),
        ("small_replay_report", lambda data: data.update(dataset=[200]),
         "dataset: not an object"),
    ], ids=["identify pair", "replay pair", "identify beta1", "replay beta1", "hyper key",
            "dataset"])
    def test_echo_value_that_cannot_be_used_is_one_named_problem(self, run, edit, problem,
                                                                 request, tmp_path):
        # they raised ConfigurationError from the pair or HyperParams, TypeError on the
        # unknown key and AttributeError on the dataset; the replay beta1 edit verified
        ok, problems = self._verify_edited(request.getfixturevalue(run), tmp_path, edit)
        assert not ok and len(problems) == 1 and problems[0].startswith(problem), problems

    @staticmethod
    def _gain_law_problem(algo, law, rows):
        return (f"{algo}/seed_0 (trace_{algo}_replay.hex): column 'mu_k' first differs from "
                f"{law} of the echoed hyperparameters at row {rows - 1} (line {rows + 1})")

    def test_edited_mu_breaks_both_gain_laws(self, small_replay_report, tmp_path):
        # a replay report whose echoed mu no longer matches its traces verified
        def edit(data):
            data["config"]["hyper"]["mu"] = 0.31

        assert self._verify_edited(small_replay_report, tmp_path, edit) == (False, [
            self._gain_law_problem("classical", "mu / r_k", 200),
            self._gain_law_problem("modified", "the modified gain law", 200)])

    def test_classical_gain_law_holds_bit_for_bit(self, small_replay_report, tmp_path):
        # one ulp of mu is inside the modified law's bound, but not mu / r_k's
        def edit(data):
            data["config"]["hyper"]["mu"] = math.nextafter(0.3, 1.0)

        assert self._verify_edited(small_replay_report, tmp_path, edit) == (False, [
            self._gain_law_problem("classical", "mu / r_k", 200)])

    @pytest.mark.parametrize("hyper", [
        {"beta2": 0.6}, {"beta1": 0.6, "outside_theorem_regime": True}])
    def test_edited_beta_breaks_the_modified_gain_law(self, small_replay_report, tmp_path,
                                                     hyper):
        # the classical law reads neither beta; at the parent both edits verified
        def edit(data):
            data["config"]["hyper"].update(hyper)

        assert self._verify_edited(small_replay_report, tmp_path, edit) == (False, [
            self._gain_law_problem("modified", "the modified gain law", 200)])

    def test_report_file_that_is_not_an_object_is_one_problem(self, tmp_path):
        # it raised AttributeError
        path = tmp_path / "report.json"
        path.write_text("[1, 2]")
        assert verify_report(str(path)) == (False, [f"{path}: not a JSON object"])

    def test_non_string_trace_name_is_one_problem_naming_the_run(self, control_report, tmp_path):
        # it raised TypeError from os.path.join
        def edit(data):
            data["runs"]["modified"]["seed_1"]["trace"] = 7

        assert self._verify_edited(control_report, tmp_path, edit) == (False, [
            "modified/seed_1 (7): not a file in the report's directory"])

    def test_missing_trace_file_is_one_problem_naming_the_run(self, control_report, tmp_path):
        # it raised FileNotFoundError
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(control_report.path), dst)
        (dst / "trace_modified_seed1.hex").unlink()
        assert verify_report(str(dst / "report.json")) == (False, [
            "modified/seed_1 (trace_modified_seed1.hex): not a file in the report's directory"])

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_trace_outside_the_report_directory_is_not_read(self, control_report, where,
                                                            tmp_path):
        # a trace name is a bare file name in the report's directory; a path was
        # opened wherever it led, and a copy of the run's trace there verified
        shutil.copy(os.path.join(os.path.dirname(control_report.path), "trace_modified_seed1.hex"),
                    tmp_path / "outside.hex")
        name = "../outside.hex" if where == "parent" else str(tmp_path / "outside.hex")

        def edit(data):
            data["runs"]["modified"]["seed_1"]["trace"] = name

        assert self._verify_edited(control_report, tmp_path, edit) == (False, [
            f"modified/seed_1 ({name}): not a file in the report's directory"])

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

    @pytest.mark.parametrize("run", ["control_report", "identify_report", "small_replay_report"])
    @pytest.mark.parametrize("cut", ["header_only", "one_row_short"])
    def test_a_trace_not_of_the_runs_step_count_is_flagged(self, run, cut, request, tmp_path):
        # a header-only trace raised a bare IndexError from the running summary;
        # n is n_steps in control and identify, the rows replayed in replay
        report = request.getfixturevalue(run)
        config = report.data["config"]
        n = (report.data["dataset"]["rows_used"] if config["mode"] == "replay"
             else config["n_steps"])
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(report.path), dst)
        algo = config["algorithms"][0]
        seed_key, summary = next(iter(report.data["runs"][algo].items()))
        trace_path = dst / summary["trace"]
        lines = trace_path.read_bytes().split(b"\n")[:-1]  # the header, then a line per row
        assert len(lines) == n + 1
        rows = 0 if cut == "header_only" else n - 1
        trace_path.write_bytes(b"".join(line + b"\n" for line in lines[: rows + 1]))
        assert verify_report(str(dst / "report.json")) == (False, [
            f"{algo}/{seed_key} ({summary['trace']}): {rows} rows, but the run has {n} steps"
        ])

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
        header = pathlib.Path(trace_path).read_text().split("\n")[0].split(" ")[1]
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

    @pytest.mark.parametrize("run", ["control_report", "identify_report", "small_replay_report"])
    def test_a_fresh_run_verifies_exactly_in_small_chunks(self, run, request, monkeypatch):
        monkeypatch.setattr(bench_module, "_VERIFY_ROWS", 7)
        assert verify_report(request.getfixturevalue(run).path, tol=0.0) == (True, [])

    @pytest.mark.parametrize("column, cell, problem", [
        ("u", 1.0, "column 'f_true' first differs from link(theta* . phi) of the y, u lags"),
        ("loss", 123.0, "column 'loss' first differs from squared_error(y, f_est)"),
        ("k", 5, "column 'k' first differs from the row index"),
        ("regret_avg", 9.0,
         "column 'regret_avg' first differs from the running mean of the regret"),
    ])
    def test_an_edit_on_the_first_row_of_a_later_chunk_names_its_line(
            self, control_report, tmp_path, monkeypatch, column, cell, problem):
        # verify reads 16 rows at a time: row 16, line 18, opens the second chunk
        monkeypatch.setattr(bench_module, "_VERIFY_ROWS", 16)
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(control_report.path), dst)
        _set_cell(dst / "trace_modified_seed1.hex", 18, column, cell)
        ok, problems = verify_report(str(dst / "report.json"))
        assert not ok
        name = "modified/seed_1 (trace_modified_seed1.hex)"
        assert f"{name}: {problem} at row 16 (line 18)" in problems

    def test_the_lags_carry_across_a_chunk_seam(self, control_report, tmp_path, monkeypatch):
        # y on the last row of the first chunk is a lag of the second chunk's first regressor
        monkeypatch.setattr(bench_module, "_VERIFY_ROWS", 16)
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(control_report.path), dst)
        _set_cell(dst / "trace_modified_seed1.hex", 17, "y", 0.75)
        ok, problems = verify_report(str(dst / "report.json"))
        assert not ok
        assert ("modified/seed_1 (trace_modified_seed1.hex): column 'f_true' first differs from "
                "link(theta* . phi) of the y, u lags at row 16 (line 18)") in problems

    def test_a_bad_cell_on_the_first_row_of_a_later_chunk_names_its_line(
            self, control_report, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_module, "_VERIFY_ROWS", 16)
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(control_report.path), dst)
        _set_cell(dst / "trace_modified_seed1.hex", 18, "mu_k", b"00000000000000g0")
        with pytest.raises(DataError, match="not 16 lowercase hex digits in column 'mu_k'") as exc:
            verify_report(str(dst / "report.json"))
        assert exc.value.line == 18

    def test_a_trace_cut_at_a_chunk_seam_is_one_problem_and_no_summary(
            self, control_report, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_module, "_VERIFY_ROWS", 16)
        dst = tmp_path / "copy"
        shutil.copytree(os.path.dirname(control_report.path), dst)
        path = dst / "trace_modified_seed1.hex"
        path.write_bytes(b"".join(line + b"\n" for line in path.read_bytes().split(b"\n")[:33]))
        assert verify_report(str(dst / "report.json")) == (False, [
            "modified/seed_1 (trace_modified_seed1.hex): 32 rows, but the run has 40 steps"])

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

    @pytest.mark.parametrize("run", ["paper_run", "replay_run", "identify_report"])
    def test_rs_sums_are_the_robbins_siegmund_diag_bit_for_bit(self, run, request):
        # the summary feeds the diagnostic's two sums chunk by chunk, every cell side by side
        report = request.getfixturevalue(run)
        report = report[0] if isinstance(report, tuple) else report
        beta3 = report.data["config"]["hyper"]["beta3"]
        for by_seed in report.data["runs"].values():
            for summary in by_seed.values():
                trace = read_trace(os.path.join(os.path.dirname(report.path), summary["trace"]))
                rs = robbins_siegmund_diag(trace.mu_k, gradient_norms_sq(trace, beta3))
                assert (summary["rs_total"], summary["rs_tail_fraction"]) == (
                    rs.total, rs.tail_fraction)

    def test_a_trace_with_no_rows_is_named(self, control_report):
        # it raised a bare IndexError from the running summary
        with pytest.raises(ConfigurationError, match="trace has no rows"):
            summarize(control_report.data["config"], Trace(k=np.empty(0, dtype=np.int64)))

    def test_replay_checkpoints_are_the_relative_error_metric_bit_for_bit(self, replay_run):
        # the summary carries the metric's compensated sum from chunk to chunk
        report = replay_run[0]
        for by_seed in report.data["runs"].values():
            summary = by_seed["seed_0"]
            trace = read_trace(os.path.join(os.path.dirname(report.path), summary["trace"]))
            assert summary["relative_error_checkpoints"] == {
                "1000": relative_error_metric(trace.f_est[:1000], trace.y[:1000]),
                "final": relative_error_metric(trace.f_est, trace.y)}

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
    return Trace(**{name: None if column is None else column[start:stop]
                    for name in TRACE_COLUMNS for column in [getattr(trace, name)]})


@st.composite
def _chunks(draw, n):
    """Consecutive (start, stop) chunks covering rows 0..n - 1, cut at drawn rows.

    Cuts next to the step-500 and row-1000 checkpoints and the
    robbins-siegmund tail start n // 2 are drawn often.
    """
    if n < 2:
        return [(0, n)]
    seams = [m for m in (1, 499, 500, 501, 999, 1000, 1001, n // 2, n // 2 + 1, n - 1)
             if 0 < m < n]
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
        """(config, every trace of the run, their whole summaries and whole-write bytes).

        A whole summary is ``summarize`` and the regret running mean of the
        trace (None in replay).
        """
        report = request.getfixturevalue(request.param)
        report = report[0] if isinstance(report, tuple) else report
        out_dir = os.path.dirname(report.path)
        traces = [read_trace(os.path.join(out_dir, summary["trace"]))
                  for by_seed in report.data["runs"].values() for summary in by_seed.values()]
        config = report.data["config"]
        loss = None if config["mode"] == "replay" else bench_module._pair_of(config).loss
        wholes = [(summarize(config, trace),
                   None if loss is None else running_mean(regret_sum(trace, loss)))
                  for trace in traces]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "whole.hex")
            written = []
            for trace in traces:
                write_trace(path, trace)
                written.append(pathlib.Path(path).read_bytes())
        return config, traces, wholes, written

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_running_summary_equals_one_whole_summarize(self, run_traces, data):
        config, traces, wholes, _ = run_traces
        summary = bench_module._RunningSummary(config, len(traces[0]), len(traces))
        regrets = []
        for a, b in data.draw(_chunks(len(traces[0]))):
            rows = [_rows(trace, a, b) for trace in traces]
            regrets.append(summary.feed(Trace(k=rows[0].k, **{
                name: None if getattr(rows[0], name) is None
                else np.stack([getattr(part, name) for part in rows], axis=1)
                for name in TRACE_COLUMNS[1:]})))
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
            assert [pathlib.Path(path).read_bytes() for path in paths] == written


class TestFlagBitmask:
    """A step's flags are the int64 bitmask a trace file stores (saturated =
    1, singular_gain = 2, divergence = 4) from the loop to the file; only
    the exported CSV renders them as ";"-joined names."""

    def test_every_mask_is_kept_written_counted_and_exported(self, tmp_path):
        masks = np.array([[0, 7], [1, 6], [2, 5], [3, 4], [4, 3], [5, 2], [6, 1], [7, 0]])
        names = ["", "saturated", "singular_gain", "saturated;singular_gain", "divergence",
                 "saturated;divergence", "singular_gain;divergence",
                 "saturated;singular_gain;divergence"]
        m = len(masks)
        columns = {name: np.linspace(0.25, 2.0, 2 * m).reshape(m, 2)
                   for name in ("y", "f_true", "f_est", "loss", "theta_err", "mu_k", "r_k")}
        columns["r_k"] = np.cumsum(columns["r_k"], axis=0) + 2.0
        chunk = Trace(k=np.arange(m), flags=masks, **columns)
        config = {"mode": "identify", "pair": "linear_mse",
                  "hyper": {"mu": 0.3, "beta1": 0.5, "beta2": 0.51, "beta3": 2.0}}
        summary = bench_module._RunningSummary(config, m, 2)
        summary.feed(chunk)
        for i in range(2):
            trace = chunk.cell(i)
            assert trace.flags.tolist() == masks[:, i].tolist()
            path = tmp_path / f"trace_modified_seed{i}.hex"
            write_trace(str(path), trace)
            cells = [line.split(b",")[-1] for line in path.read_bytes().split(b"\n")[1:-1]]
            assert cells == [b"%016x" % mask for mask in masks[:, i]]
            assert read_trace(str(path)).flags.tolist() == masks[:, i].tolist()
            counted = Counter(f for mask in masks[:, i] for f in names[mask].split(";") if f)
            assert summary.result(i)["flag_counts"] == {name: counted[name]
                                                        for name in _FLAG_NAMES}
            assert summary.result(i) == summarize(config, trace)
        export_csv(str(tmp_path))
        for i in range(2):
            csv_bytes = (tmp_path / f"trace_modified_seed{i}.csv").read_bytes()
            lines = csv_bytes.decode().split("\r\n")[1:-1]
            assert [line.split(",")[-1] for line in lines] == [names[mask] for mask in masks[:, i]]


def _traced_peak(fn, *args):
    """The Python-heap peak of ``fn(*args)`` under tracemalloc, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

        run(40)  # first-call allocations (lazy imports, caches) do not count
        small, large = _traced_peak(run, 1000), _traced_peak(run, 10_000)
        assert large - small <= 0.5 * 2**20, (small, large)

    def test_identify_peak_does_not_grow_with_n_steps(self, tmp_path):
        # a 4-seed logistic identification draws its inputs a chunk at a time: the
        # 5,000-step run peaked 0.03 MB above the 500-step one (0.83 MB).  Drawing
        # every seed's regressors, labels and f_true before the loop, it grew by 0.71 MB
        def run(n_steps):
            text = IDENTIFY_CFG.replace("linear_mse", "logistic").replace("mu = 0.3", "mu = 0.1")
            text = text.replace("seeds = 3", "seeds = 3, 4, 5, 6")
            text = text.replace("n_steps = 60", f"n_steps = {n_steps}")
            run_experiment(load_config(_write_cfg(tmp_path, text, out=tmp_path / f"runs{n_steps}")))

        run(40)
        small, large = _traced_peak(run, 500), _traced_peak(run, 5000)
        assert large - small <= 0.25 * 2**20, (small, large)

    def test_verify_peak_does_not_grow_with_the_trace(self, tmp_path):
        # verify_report of a one-cell replay report: read 8,192 rows at a time, the
        # 163,840-row trace peaked 0.06 MB above the 16,384-row one (1.24 MB).  Reading
        # each trace whole, it grew by 12.3 MB
        config = {"mode": "replay", "algorithms": ["modified"], "seeds": [0],
                  "hyper": {"mu": 0.3, "beta1": 0.5, "beta2": 0.51, "beta3": 2.0},
                  "pair": "saturation", "replay": {"features": ["f0", "f1", "f2", "f3", "f4"],
                                                   "lower": 6.0, "upper": 120.0, "noise_std": 5.0}}

        def replay_report(n):
            rng = np.random.default_rng(n)
            y = rng.uniform(6.0, 120.0, n)
            f_est = y + rng.normal(0.0, 5.0, n)
            r_k = 2.0 + np.cumsum(rng.uniform(0.0, 1e3, n))
            # the modified gain law, with ||g||^2 the increment of r_k
            mu_k = 0.3 / (np.sqrt(r_k) * np.log(r_k) ** 0.51 + np.diff(r_k, prepend=2.0))
            trace = Trace(k=np.arange(n), y=y, f_est=f_est, loss=SquaredError().eval(y, f_est),
                          mu_k=mu_k, r_k=r_k)
            out = tmp_path / f"replay{n}"
            out.mkdir()
            write_trace(str(out / "trace_modified_replay.hex"), trace)
            runs = {"modified": {"seed_0": {**summarize(config, trace),
                                            "trace": "trace_modified_replay.hex"}}}
            report = {"config": config, "dataset": {"rows_used": n}, "runs": runs,
                      "checks_overall": bench_module._checks_overall(runs)}
            (out / "report.json").write_text(json.dumps(report))
            return str(out / "report.json")

        def verify(path):
            assert verify_report(path, tol=0.0) == (True, [])

        short, long = replay_report(2 * 8192), replay_report(20 * 8192)
        verify(short)  # first-call allocations do not count
        small, large = _traced_peak(verify, short), _traced_peak(verify, long)
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
            len(pathlib.Path(os.path.join(out_dir, s["trace"])).read_bytes().split(b"\n")) - 2
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
