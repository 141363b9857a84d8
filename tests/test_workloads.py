"""The benchmark's inputs, ``perfbench/workloads.py``, against the package.

``perfbench/run.py`` loads each workload's config with ``load_config`` and
sets its overrides on the result, so a stricter config check or a renamed
``ExperimentConfig`` field would break the benchmark without failing any
other test.  Each workload is prepared at seed 1 and loaded here.
"""

import dataclasses
import importlib
import pathlib
import warnings

import pytest

from sgident import bench

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name,mode", [
    ("closed_loop", "control"), ("replay", "replay"), ("identify", "identify"),
])
def test_workload_config_loads_and_takes_its_overrides(tmp_path, monkeypatch, name, mode):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.prepare(name, 1, str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the replay pair warns about its missing constants
        cfg = bench.load_config(workload.config_path)
    fields = {f.name for f in dataclasses.fields(cfg)}
    assert cfg.mode == mode
    assert set(workload.overrides) <= fields
    assert workload.apply(cfg).out_dir == str(tmp_path / "out")
