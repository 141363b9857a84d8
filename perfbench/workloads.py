"""Benchmark inputs, all derived from the workload seed.

Each workload is one closed sweep run in a single process.  The program
receives only what is built here: a config path plus the overrides the CLI
itself applies (seed list, output directory, dataset path), and for replay
a generated CSV corpus.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

# Same recipe as the test suite's synthetic corpus: intercept plus four
# uniform features, Gaussian latent noise, targets censored to [6, 120].
CORPUS_THETA = np.array([24.0, 12.0, 9.0, 12.0, 6.0])
CORPUS_WINDOW = (6.0, 120.0)
CORPUS_NOISE_STD = 5.0
REPLAY_ROWS = 40_000

IDENTIFY_STEPS = 4_000
# the logistic pair's step-size cap min(1, 2*delta/c1) is about 0.155
IDENTIFY_MU = 0.1

N_SEEDS = 10

WORKLOADS = ("closed_loop", "replay", "identify")


@dataclass
class Workload:
    name: str
    config_path: str
    overrides: dict = field(default_factory=dict)

    def apply(self, cfg):
        for key, value in self.overrides.items():
            setattr(cfg, key, value)
        return cfg


def write_corpus(path, n, seed):
    """Write the positive-target replay corpus; returns the row count."""
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


def write_identify_config(path, seed, out_dir):
    """Logistic/cross-entropy identification, d=3, truth drawn from the seed."""
    rng = np.random.default_rng(seed)
    theta_star = rng.uniform(-1.0, 1.0, size=3)
    seeds = ",".join(str(s) for s in range(seed, seed + N_SEEDS))
    text = f"""[experiment]
mode = identify
algorithms = modified,classical
n_steps = {IDENTIFY_STEPS}
seeds = {seeds}
out_dir = {out_dir}

[hyper]
mu = {IDENTIFY_MU}
beta1 = 0.5
beta2 = 0.6666666666666666
beta3 = 2.0

[model]
pair = logistic

[plant]
theta_star = {",".join(repr(float(v)) for v in theta_star)}
theta0 = 0,0,0
noise_kind = gaussian
noise_std = 1.0
"""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def prepare(name, seed, work_dir):
    """Build the inputs of workload ``name`` under ``work_dir``."""
    from sgident.bench import preset_path

    out_dir = os.path.join(work_dir, "out")
    seeds = tuple(range(seed, seed + N_SEEDS))
    if name == "closed_loop":
        return Workload(name, preset_path("paper_sim.cfg"), {"seeds": seeds, "out_dir": out_dir})
    if name == "replay":
        corpus = os.path.join(work_dir, "corpus.csv")
        rows = write_corpus(corpus, REPLAY_ROWS, seed)
        return Workload(
            name,
            preset_path("paper_replay.cfg"),
            {"data_path": corpus, "n_steps": rows, "out_dir": out_dir},
        )
    if name == "identify":
        config = os.path.join(work_dir, "identify.cfg")
        write_identify_config(config, seed, out_dir)
        return Workload(name, config, {"out_dir": out_dir})
    raise ValueError(f"unknown workload {name!r}")
