"""Certainty-equivalence control of a scalar lag plant with online estimation.

Per step k the loop (i) inverts the *estimated* model to pick the input u_k
that would place the one-step-ahead prediction on the target, (ii) advances
the true plant to produce y_{k+1}, and (iii) feeds (phi_k, y_{k+1}) to the
estimator.  ``solve_control_rows`` decides every row's control on arrays: a
link with a closed-form inverse is inverted directly, u = (link_inv(y*) -
base) / theta_u, and unreachable targets and a vanishing control gain get
best-effort/hold fallbacks that leave a flag in the trace instead of
raising.  Only the rest (other links, closed forms that miss the residual
tolerance) runs per row: a monotone bisection after geometric bracket
expansion from the previous input.  The plant noise of a run does not
depend on the loop state, so it is drawn one block per chunk of steps.

One loop, ``closed_loop_chunks``, runs every mode: it steps all (algorithm,
seed) cells of a sweep together as rows of (S, d) arrays, with the
regressors and observations either made by the closed loop or prepared
before it (identification, replay); a run of one cell is a batch of one.
Rows never mix, so a cell's trace does not depend on the other cells in its
batch.  The loop yields its steps in chunks of ``_CHUNK``, so a consumer
that writes and summarizes each chunk as it comes holds memory bounded by
chunk x cells, whatever the run length; ``run_closed_loop_batch`` joins the
chunks of a whole run.  A step tests none of its results: the loop tests
each chunk's results once, after its last step, and walks a chunk that
fails again from its start with every step checked, so the run stops with
the error of its first bad step.  Every run mode records its steps as a
``Trace``: one array per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np
from scipy.special import ndtri, stdtrit

from .core import ParameterVector, as_values, check_rows, row_dots
from .errors import ConfigurationError, DomainError, NumericError
from .metrics import regret_sum, running_mean
from .sg import DIVERGENCE_NORM, sg_update, sg_update_unguarded, steps_pass

__all__ = [
    "NoiseSource",
    "Plant",
    "ControlConfig",
    "TRACE_COLUMNS",
    "Trace",
    "ClosedLoopBatch",
    "solve_control",
    "solve_control_rows",
    "closed_loop_chunks",
    "run_closed_loop_batch",
]


class NoiseSource:
    """Reproducible scalar noise stream.

    Counter-based Philox bits mapped through the inverse CDF, so every draw
    consumes exactly one 53-bit uniform and replays are exact; distinct seeds
    give independent streams.  ``kind`` is "gaussian" or "student_t" (the
    latter needs df > 2 so the variance assumption stays meaningful; ``std``
    is a scale factor in both cases).
    """

    GENERATOR_NAME = "philox-inverse-cdf"

    def __init__(self, std=1.0, seed=0, kind="gaussian", df=None):
        if not (std >= 0 and math.isfinite(std)):
            raise ConfigurationError(f"noise std must be finite and >= 0, got {std}")
        if kind not in ("gaussian", "student_t"):
            raise ConfigurationError(f"unknown noise kind '{kind}'")
        if kind == "student_t":
            if df is None or not df > 2:
                raise ConfigurationError("student_t noise needs df > 2")
        self.std = float(std)
        self.seed = int(seed)
        self.kind = kind
        self.df = None if df is None else float(df)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))
        self.draw_count = 0

    def with_seed(self, seed):
        return NoiseSource(std=self.std, seed=seed, kind=self.kind, df=self.df)

    def draw_uniform(self):
        # (n + 0.5) / 2^53 lies strictly inside (0, 1); power-of-two range
        # means the integer draw never rejects, keeping the count fixed
        u = (int(self._gen.integers(0, 1 << 53)) + 0.5) * (2.0 ** -53)
        self.draw_count += 1
        return u

    def draw(self):
        u = self.draw_uniform()
        if self.kind == "gaussian":
            return self.std * float(ndtri(u))
        return self.std * float(stdtrit(self.df, u))

    def uniform_block(self, n):
        """The next ``n`` values of ``draw_uniform()`` as one array, bit for bit.

        Philox is counter-based, so one vector call yields the same words as
        n scalar calls.
        """
        u = (self._gen.integers(0, 1 << 53, size=n) + 0.5) * (2.0 ** -53)
        self.draw_count += n
        return u

    def draw_block(self, n):
        """The next ``n`` values of ``draw()`` as one array, bit for bit.

        The inverse CDFs are elementwise over ``uniform_block(n)``.
        """
        u = self.uniform_block(n)
        if self.kind == "gaussian":
            return self.std * ndtri(u)
        return self.std * stdtrit(self.df, u)


@dataclass
class Plant:
    """The true system: conditional-mean model at theta_star plus additive noise."""

    model: object
    theta_star: ParameterVector
    noise: NoiseSource

    def __post_init__(self):
        if not isinstance(self.theta_star, ParameterVector):
            self.theta_star = ParameterVector(as_values(self.theta_star))
        if self.theta_star.dim != self.model.dim:
            raise ConfigurationError(
                f"theta_star dim {self.theta_star.dim} != model dim {self.model.dim}"
            )


@dataclass
class ControlConfig:
    """Targets and root-solver knobs for the closed loop."""

    y_target: object = 0.5  # scalar or per-step array of y*_{k+1}
    u_max: float = 1e3
    b_eps: float = 1e-8
    root_tol: float = 1e-10
    root_max_iter: int = 200

    def __post_init__(self):
        if np.ndim(self.y_target) > 1:
            raise ConfigurationError(
                f"y_target must be a scalar or 1-D, got shape {np.shape(self.y_target)}")
        if not np.isfinite(np.asarray(self.y_target, dtype=float)).all():
            raise ConfigurationError(f"y_target must be finite, got {self.y_target!r}")
        if not (self.u_max > 0 and self.b_eps > 0 and self.root_tol > 0):
            raise ConfigurationError("u_max, b_eps and root_tol must all be > 0")
        if self.root_max_iter < 1:
            raise ConfigurationError("root_max_iter must be >= 1")

    def target(self, k):
        if np.ndim(self.y_target) == 0:
            return float(self.y_target)
        return float(self.y_target[k])


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

# the flags a step may carry; a Trace joins them with ";" in this order, and
# the bitmask of a step's flags has bit i set when FLAGS[i] is on
FLAGS = ("saturated", "singular_gain", "divergence")
FLAG_BIT = {name: 1 << bit for bit, name in enumerate(FLAGS)}
# each bitmask's ";"-joined text
FLAG_TEXT = np.array([";".join(name for name in FLAGS if mask & FLAG_BIT[name])
                      for mask in range(1 << len(FLAGS))], dtype=object)


@dataclass(eq=False)
class Trace:
    """The per-step record of one run, one field per column of ``TRACE_COLUMNS``.

    ``k`` is an int array and ``flags`` a list of ";"-joined flag strings
    ("" on a clean step); every other column is a float64 array, or None
    where the mode leaves it empty.  Every column has ``len(k)`` rows, and
    ``len(trace)`` is that count.  Two traces are equal when every column is
    bit-equal, so ``0.0`` and ``-0.0`` differ.
    """

    k: np.ndarray
    y: np.ndarray | None = None
    u: np.ndarray | None = None
    y_star: np.ndarray | None = None
    f_true: np.ndarray | None = None
    f_est: np.ndarray | None = None
    loss: np.ndarray | None = None
    regret_avg: np.ndarray | None = None
    theta_err: np.ndarray | None = None
    mu_k: np.ndarray | None = None
    r_k: np.ndarray | None = None
    flags: list | None = None

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=np.int64)
        if self.flags is None:
            self.flags = [""] * len(self.k)
        for name in TRACE_COLUMNS[1:-1]:
            if getattr(self, name) is not None:
                setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        for name in TRACE_COLUMNS[1:]:
            column = getattr(self, name)
            if column is not None and len(column) != len(self.k):
                raise ConfigurationError(
                    f"column {name!r} has {len(column)} rows, not {len(self.k)}")

    def __len__(self):
        return len(self.k)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        for name in TRACE_COLUMNS[:-1]:
            a, b = getattr(self, name), getattr(other, name)
            if (a is None) != (b is None) or (
                a is not None and not np.array_equal(a.view(np.int64), b.view(np.int64))
            ):
                return False
        return list(self.flags) == list(other.flags)


# module-level: perfbench/tracer.py rebinds it by name
def solve_control(model, theta, phi, p, y_star, cfg: ControlConfig, u_prev=0.0):
    """``solve_control_rows`` on one regressor row; returns (u, flags).

    ``phi`` has its input slot at index ``p``; the slot's value is ignored
    and ``phi`` is not modified.  ``flags`` is () or the row's flags.
    """
    theta_v = as_values(theta, "parameter vector")
    phi = np.array(as_values(phi, "regressor"))
    if phi.size != theta_v.size:
        raise ConfigurationError(f"regressor dim {phi.size} != parameter dim {theta_v.size}")
    phi[p] = 0.0
    u, flagged = solve_control_rows(model, theta_v[None, :], phi[None, :], p, y_star, cfg,
                                    np.array([float(u_prev)]))
    return float(u[0]), flagged.get(0, ())


def solve_control_rows(model, theta, phi, p, y_star, cfg: ControlConfig, u_prev):
    """Invert u -> f(phi_k(u), theta) toward y_star on S stacked rows; returns (u, flagged).

    ``theta`` and ``phi`` are (S, d) arrays, each row of ``phi`` a regressor
    with its input entry (index ``p``) at 0; ``u_prev`` is (S,).  ``flagged``
    maps each flagged row to its flags.  A row takes the first of: (1) its
    previous input clipped to [-u_max, u_max], if that meets root_tol; (2)
    the previous input, flagged ``singular_gain``, if the gain df/du there
    is below b_eps; (3) the closed form u = (link_inv(y*) - base) / theta_u,
    if it lies in [-u_max, u_max] and meets root_tol; (4) the better
    endpoint, ``saturated`` unless it meets root_tol, if the closed form lies
    beyond u_max or the target outside the link's range; (5) bisection, row
    by row (``saturated`` if it finds no root within root_tol).
    Floating-point warnings stay silent: every case is tested explicitly.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return solve_control_rows_unguarded(model, theta, phi, p, y_star, cfg, u_prev)


def solve_control_rows_unguarded(model, theta, phi, p, y_star, cfg, u_prev):
    """``solve_control_rows`` inside the caller's ``np.errstate``: a run loop enters it once."""
    link_inv = getattr(model, "link_inv", None)
    z_star = link_inv(y_star) if link_inv is not None else math.nan
    cu = theta[:, p]
    base = row_dots(phi, theta)
    u0 = np.minimum(np.maximum(u_prev, -cfg.u_max), cfg.u_max)
    r0 = model.link(base + cu * u0) - y_star
    gain = model.dlink(base + cu * u_prev) * cu
    # nan without an inverse (the row bisects), inf outside the link's range (it saturates)
    u = np.full(len(cu), math.inf) if z_star is None else (z_star - base) / cu
    closed = (
        (np.abs(r0) > cfg.root_tol)
        & (np.abs(gain) >= cfg.b_eps)
        & (np.abs(u) <= cfg.u_max)
        & (np.abs(model.link(base + cu * u) - y_star) <= cfg.root_tol)
    )
    if all(closed.tolist()):
        return u, {}
    short = np.abs(r0) <= cfg.root_tol
    hold = ~short & (np.abs(gain) < cfg.b_eps)
    beyond = ~short & ~hold & (np.abs(u) > cfg.u_max)
    ends = np.array([-cfg.u_max, cfg.u_max])
    r_ends = np.abs(model.link(base[:, None] + cu[:, None] * ends) - y_star)
    end = np.where(r_ends[:, 0] <= r_ends[:, 1], 0, 1)  # a tie keeps -u_max
    u = np.where(short, u0, np.where(hold, u_prev, np.where(beyond, ends[end], u)))
    missed = beyond & ~(r_ends[np.arange(len(end)), end] <= cfg.root_tol)
    flagged = dict.fromkeys(np.flatnonzero(hold).tolist(), ("singular_gain",))
    flagged.update(dict.fromkeys(np.flatnonzero(missed).tolist(), ("saturated",)))
    for i in np.flatnonzero(~(closed | short | hold | beyond)).tolist():
        f_of_u = partial(_link_at, model.link, float(np.dot(phi[i], theta[i])), float(cu[i]))
        u[i], flagged[i] = _bisect_control(f_of_u, y_star, float(u0[i]), cfg)
    return u, {i: flags for i, flags in flagged.items() if flags}


def _link_at(link, base, cu, u):
    return link(base + cu * u)


def _bisect_control(f_of_u, y_star, u0, cfg):
    """Bracket a sign change of f_of_u(u) - y_star by geometric expansion from u0, then bisect."""
    step = 1.0
    lo = hi = u0
    r_lo = r_hi = f_of_u(u0) - y_star
    bracket = None
    while bracket is None:
        progressed = False
        new_lo = max(-cfg.u_max, u0 - step)
        if new_lo < lo:
            r_new = f_of_u(new_lo) - y_star
            if abs(r_new) <= cfg.root_tol:
                return new_lo, ()
            if (r_new < 0.0) != (r_lo < 0.0):
                bracket = (new_lo, lo, r_new, r_lo)
            lo, r_lo = new_lo, r_new
            progressed = True
        if bracket is None:
            new_hi = min(cfg.u_max, u0 + step)
            if new_hi > hi:
                r_new = f_of_u(new_hi) - y_star
                if abs(r_new) <= cfg.root_tol:
                    return new_hi, ()
                if (r_new < 0.0) != (r_hi < 0.0):
                    bracket = (hi, new_hi, r_hi, r_new)
                hi, r_hi = new_hi, r_new
                progressed = True
        if bracket is None and not progressed:
            # whole admissible range scanned without a sign change
            return (lo, ("saturated",)) if abs(r_lo) <= abs(r_hi) else (hi, ("saturated",))
        step *= 2.0

    a, b, r_a, r_b = bracket
    mid, r_mid = a, r_a
    for _ in range(cfg.root_max_iter):
        mid = 0.5 * (a + b)
        r_mid = f_of_u(mid) - y_star
        if abs(r_mid) <= cfg.root_tol:
            return mid, ()
        if (r_mid < 0.0) == (r_a < 0.0):
            a, r_a = mid, r_mid
        else:
            b, r_b = mid, r_mid
        if (b - a) <= 1e-15 * max(1.0, abs(a), abs(b)):
            break
    # interval exhausted without meeting the residual tolerance
    return mid, ("saturated",)


# float64 columns the batch records: those of every mode, then those that
# need the truth (plant given), then those the closed loop makes itself
# (prepared blocks supply y and f_true otherwise)
_BATCH_COLUMNS = ("f_est", "mu_k", "r_k")
_TRUTH_COLUMNS = ("theta_err",)
_CLOSED_LOOP_COLUMNS = ("y", "f_true", "u")

# steps per chunk of the run loop, and so the rows of each trace write and
# summary feed of a sweep.  A chunk of 20 rows in d = 5 holds 0.6 MB of
# columns and 0.4 MB of estimates; 1024 wrote no faster and held more, 256
# wrote slower
_CHUNK = 512


@dataclass
class ClosedLoopBatch:
    """The recorded steps start, ..., start + m - 1 of a batched run, column-wise.

    ``recorded[name][j, i]`` is float column ``name`` of step start + j in
    the cell ``cells[i] = (algorithm, seed)``, an (m, S) array; a column
    the mode leaves empty is not stored, and ``regret_avg`` is stored only
    by ``run_closed_loop_batch``, since a chunk cannot know the steps
    before it.  ``y_star[j]`` is shared by all cells (None outside the
    closed loop).  ``flags[j, i]`` is the int64 bitmask of the flags of
    step start + j in cell i (bit i for ``FLAGS[i]``), as a trace file
    stores it.
    """

    cells: tuple
    recorded: dict
    y_star: np.ndarray | None
    flags: np.ndarray
    start: int = 0

    def trace(self, i):
        """The Trace of cell i over the batch's steps, with its own contiguous columns."""
        columns = {name: column[:, i].copy() for name, column in self.recorded.items()}
        y_star = None if self.y_star is None else self.y_star.copy()
        return Trace(k=np.arange(self.start, self.start + len(self.flags)), y_star=y_star,
                     flags=FLAG_TEXT[self.flags[:, i]].tolist(), **columns)


def run_closed_loop_batch(plant, estimator, pair, cfg, n_steps, cells, update=None):
    """Run every (algorithm, seed) cell of a sweep as one batch; returns a ClosedLoopBatch.

    The chunks of ``closed_loop_chunks`` with the same arguments, joined
    into one batch of all ``n_steps`` steps.  Where ``f_true`` is known,
    ``regret_avg`` is recorded too: each cell's running mean of
    ``metrics.regret_sum``.
    """
    chunks = list(closed_loop_chunks(plant, estimator, pair, cfg, n_steps, cells, update))
    first = chunks[0]
    batch = ClosedLoopBatch(
        cells=first.cells,
        recorded={name: np.concatenate([c.recorded[name] for c in chunks])
                  for name in first.recorded},
        y_star=None if first.y_star is None else np.concatenate([c.y_star for c in chunks]),
        flags=np.concatenate([c.flags for c in chunks]),
    )
    if plant is not None:
        regret = regret_sum(SimpleNamespace(**batch.recorded), pair.loss)
        batch.recorded["regret_avg"] = running_mean(regret)
    return batch


# takes an sg_init state, not (theta0, hyper): perfbench/tracer.py patches EstimatorState
def closed_loop_chunks(plant, estimator, pair, cfg, n_steps, cells, update=None):
    """Run every (algorithm, seed) cell of a sweep as one batch; yields a ClosedLoopBatch per chunk.

    Each chunk holds the steps [start, min(start + ``_CHUNK``, n_steps)) of
    every cell; the chunks come in step order.  Row i of every array is the
    cell ``cells[i]``; all rows start from ``estimator``, and a row whose
    algorithm is "classical" takes the classical gain law, any other the
    modified one.  Each step k takes a regressor phi_k and an observation
    y_{k+1} per row, updates the estimator rows with them, and records the
    prediction made before the update.  ``cfg`` says where phi_k and
    y_{k+1} come from:

    - a ControlConfig closes the loop: solve the control of every row from
      its current estimate (zero lags at the start), then advance
      ``plant``, whose noise for a row is the stream
      ``plant.noise.with_seed(seed)``, drawn by ``draw_block`` once per
      chunk (the same values as one ``draw_block(n_steps)``);
    - a tuple ``(phi, y, f_true)`` of blocks prepared before the loop,
      shaped (n_steps, U, d), (n_steps, U) and (n_steps, U), with one
      column per distinct seed of ``cells`` in order of first appearance:
      every cell reads the column of its seed.  ``f_true`` is None when
      the truth is unknown, and ``plant`` is then None too: ``f_true``,
      ``regret_avg`` and ``theta_err`` stay empty.

    A step runs only the recursion: control and plant (closed loop only)
    and the update, and tests none of their results.  Once per chunk, the
    prepared inputs are gathered per cell; one test (``sg.steps_pass``, and
    in the closed loop a finite ``f_true``) runs over the chunk's results;
    the divergence flags (norm above ``DIVERGENCE_NORM`` after a step) and
    ``theta_err`` are derived from the chunk's estimates; and ``loss`` is
    evaluated on the chunk's (m, S) blocks.  A chunk that fails the test is
    walked again from its start with every step checked (``sg_update``,
    and the plant's output), which raises at its first bad step as a loop
    checking every step would.

    ``update(theta, r, carry, phi, y)`` advances the estimator rows and
    returns (theta, r, carry, mu_k, grad_norm_sq, f_hat) as ``sg_update``
    does (the gradient norms are not recorded); the default is
    ``sg_update`` with each row's gain law.  The loop does not test what
    ``update`` returns, and walks each step of the plant checked.  A
    NumericError or DomainError raised inside the batch names the step, and
    the algorithm and seed of the first bad row, in its context.
    """
    model_est = pair.predictor
    closed = isinstance(cfg, ControlConfig)
    n = int(n_steps)
    if plant is not None and model_est.dim != plant.model.dim:
        raise ConfigurationError(
            f"estimator model dim {model_est.dim} != plant model dim {plant.model.dim}"
        )
    if closed:
        p = getattr(plant.model, "p", None)
        if p is None:
            raise ConfigurationError("plant model must expose its output lag order p")
        if np.ndim(cfg.y_target) == 1 and len(cfg.y_target) < n:
            raise ConfigurationError(
                f"y_target has {len(cfg.y_target)} per-step targets, fewer than {n} steps")
    cells = tuple(cells)
    if not cells:
        raise ConfigurationError("a batch needs at least one (algorithm, seed) cell")
    hyper, loss = estimator.hyper, pair.loss
    classical = np.array([algo == "classical" for algo, _ in cells])
    # the step of a chunk's first run, and of the walk that re-runs a chunk failing its test
    step, checked_step = ((sg_update_unguarded, sg_update) if update is None
                          else (_hook_step(update),) * 2)
    S, d = len(cells), model_est.dim
    truth = plant is not None
    columns = (_BATCH_COLUMNS + (_TRUTH_COLUMNS if truth else ())
               + (_CLOSED_LOOP_COLUMNS if closed else ()))

    r = np.full(S, estimator.gain.r)
    carry = np.full(S, estimator.gain.carry)
    # row 0 holds the estimates a chunk starts from, row j + 1 those after its step j
    estimates = np.empty((min(n, _CHUNK) + 1, S, d))
    estimates[0] = estimator.theta.values
    if truth:
        # stacked like the estimates so that theta == theta* gives f_est == f_true exactly
        theta_star = np.tile(plant.theta_star.values, (S, 1))
    targets = y_star = None
    if closed:
        noises = [plant.noise.with_seed(s) for _, s in cells]
        link_true = plant.model.link
        # each row of phi holds the lag stacks: outputs y_k..y_{k-p+1}, the
        # input slot (0 until solved), then inputs u_{k-1}..u_{k-q+1}
        phi = np.zeros((S, d))
        u_prev = np.zeros(S)
    else:
        phi_block, y_block, f_true_block = cfg
        seeds = list(dict.fromkeys(seed for _, seed in cells))
        block_of = np.array([seeds.index(seed) for _, seed in cells])
        U = len(seeds)
        shapes = (np.shape(phi_block), np.shape(y_block), np.shape(f_true_block))
        if shapes != ((n, U, d), (n, U), (n, U) if truth else ()):
            raise ConfigurationError(
                f"block shapes {shapes} do not match {n} steps of {U} seeds in dim {d}")
    k = 0
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        m = stop - start
        # one array per column keeps each allocation small
        recorded = {name: np.empty((m, S)) for name in columns}
        f_est_col, mu_col, r_col = (recorded[name] for name in _BATCH_COLUMNS)
        grad_norm_sq = np.empty((m, S))
        if closed:
            targets = [cfg.target(k) for k in range(start, stop)]
            y_star = np.array(targets)
            y_col, f_true_col, u_col = (recorded[name] for name in _CLOSED_LOOP_COLUMNS)
            start_lags = (phi.copy(), u_prev)
        else:
            phi_rows = phi_block[start:stop].take(block_of, axis=1)
            y_col = recorded["y"] = y_block[start:stop].take(block_of, axis=1)
            if truth:
                recorded["f_true"] = f_true_block[start:stop].take(block_of, axis=1)
        start_gain = (r, carry)
        try:
            # overflow and 0/0 stay silent: every result is checked;
            # entered per chunk, so the setting never reaches the consumer of a yield
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                if closed:
                    noise = np.stack([source.draw_block(m) for source in noises], axis=1)
                # a hook's chunk runs once, walked; any other chunk is walked
                # only when its first, unchecked run fails the test
                for walk in (update is not None, True):
                    update_rows = checked_step if walk else step
                    # a copy: a hook may keep the estimate it was given
                    theta, (r, carry) = estimates[0].copy(), start_gain
                    flags = np.zeros((m, S), np.int64)
                    if closed:
                        phi[:], u_prev = start_lags
                    for j, k in enumerate(range(start, stop)):
                        if closed:
                            u, flagged = solve_control_rows_unguarded(model_est, theta, phi, p,
                                                                      targets[j], cfg, u_prev)
                            phi[:, p] = u
                            f_true = link_true(row_dots(phi, theta_star))
                            if walk:
                                check_rows(np.isfinite(f_true), "plant conditional mean non-finite",
                                           phi=phi, u=u)
                            y_next = f_true + noise[j]
                            y_col[j], f_true_col[j], u_col[j] = y_next, f_true, u
                            for i, row_flags in flagged.items():
                                flags[j, i] = sum(FLAG_BIT[name] for name in row_flags)
                        else:
                            phi, y_next = phi_rows[j], y_col[j]

                        theta, r, carry, mu_col[j], grad_norm_sq[j], f_est_col[j] = update_rows(
                            theta, r, carry, phi, y_next, pair, hyper, classical, estimates[j + 1])
                        r_col[j] = r

                        if closed:
                            phi[:, 1:p] = phi[:, : p - 1]
                            phi[:, 0] = y_next
                            phi[:, p + 1 :] = phi[:, p : d - 1]
                            phi[:, p] = 0.0
                            u_prev = u
                    if walk or (
                        steps_pass(estimates[1 : m + 1], r_col, mu_col, grad_norm_sq, f_est_col,
                                   y_col, loss, hyper, classical)
                        and (not closed or np.isfinite(f_true_col).all())
                    ):
                        break

                chunk = estimates[: m + 1]
                diverged = np.sqrt(row_dots(chunk[1:], chunk[1:])) > DIVERGENCE_NORM
                if truth:
                    gap = chunk[:-1] - theta_star
                    recorded["theta_err"][:] = np.sqrt(row_dots(gap, gap))
        except (NumericError, DomainError) as exc:
            row = exc.context.pop("row", None)
            exc.context["k"] = k
            if row is not None:
                exc.context["algorithm"], exc.context["seed"] = cells[row]
            raise
        flags[diverged] |= FLAG_BIT["divergence"]
        recorded["loss"] = loss.eval(y_col, f_est_col)
        estimates[0] = chunk[-1]
        yield ClosedLoopBatch(cells=cells, recorded=recorded, y_star=y_star, flags=flags,
                              start=start)


def _hook_step(update):
    """A custom ``update`` called as the loop calls ``sg_update``; ``out`` gets its estimate."""

    def update_rows(theta, r, carry, phi, y, pair, hyper, classical, out):
        result = update(theta, r, carry, phi, y)
        out[...] = result[0]
        return result

    return update_rows
