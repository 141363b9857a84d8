"""Shared fixtures: finite-difference helpers, the scalar reference of the
compensated running sum, prepared blocks as a run loop's draw, the
bundled-preset runs used by several test modules, and the synthetic
positive-target corpus."""

import csv
import time
import warnings

import numpy as np
import pytest

from sgident import bench

CORPUS_THETA = np.array([24.0, 12.0, 9.0, 12.0, 6.0])
CORPUS_WINDOW = (6.0, 120.0)
CORPUS_NOISE_STD = 5.0
CORPUS_SEED = 7
CORPUS_ROWS = 10_000


def fd_grad(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_scalar(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _oracle_compensated_cumsum(values):
    """Scalar reference of ``metrics.compensated_cumsum``, one value at a time.

    Each prefix is its left-fold raw sum plus the left-fold sum of every
    addition's TwoSum error (a + b = s + e exactly).
    """
    out, raw, error = [], 0.0, 0.0
    for v in map(float, values):
        new = raw + v
        part = new - raw
        error += (raw - (new - part)) + (v - part)
        raw = new
        out.append(raw + error)
    return np.array(out)


def drawn(blocks):
    """Whole-run blocks (phi, y, f_true) as the ``draw(m)`` that a run loop asks each chunk's from."""
    taken = 0

    def draw(m):
        nonlocal taken
        taken += m
        return tuple(None if block is None else block[taken - m : taken] for block in blocks)

    return draw


def write_corpus(path, n=CORPUS_ROWS, seed=CORPUS_SEED):
    """Linear-saturated generator with strictly positive targets.

    Intercept plus four uniform features, Gaussian latent noise, outputs
    censored to a months-like window. Returns the number of rows written.
    """
    rng = np.random.default_rng(seed)
    phi = np.column_stack([np.ones(n), rng.uniform(0.0, 3.0, size=(n, 4))])
    latent = phi @ CORPUS_THETA + rng.normal(0.0, CORPUS_NOISE_STD, size=n)
    y = np.clip(latent, *CORPUS_WINDOW)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1", "f2", "f3", "f4", "y"])
        for i in range(n):
            writer.writerow([repr(float(v)) for v in phi[i]] + [repr(float(y[i]))])
    return n


@pytest.fixture(scope="session")
def corpus_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "stream.csv"
    write_corpus(path)
    return str(path)


@pytest.fixture(scope="session")
def paper_run(tmp_path_factory):
    """One full run of the bundled closed-loop preset; shared across tests.

    Yields (report, elapsed_seconds, out_dir)."""
    out = tmp_path_factory.mktemp("paper_sim")
    cfg = bench.load_config(bench.preset_path("paper_sim.cfg"))
    cfg.out_dir = str(out)
    t0 = time.perf_counter()
    report = bench.run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return report, elapsed, str(out)


@pytest.fixture(scope="session")
def replay_run(tmp_path_factory, corpus_csv):
    """One full run of the bundled replay preset over the synthetic corpus."""
    out = tmp_path_factory.mktemp("paper_replay")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = bench.load_config(bench.preset_path("paper_replay.cfg"))
    cfg.out_dir = str(out)
    cfg.data_path = corpus_csv
    t0 = time.perf_counter()
    report = bench.run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    assert any("convexity constants" in str(w.message) for w in caught)
    return report, elapsed, str(out)
