"""Certainty-equivalence control of a scalar lag plant with online estimation.

Per step k the loop (i) inverts the *estimated* model to pick the input u_k
that would place the one-step-ahead prediction on the target, (ii) advances
the true plant to produce y_{k+1}, and (iii) feeds (phi_k, y_{k+1}) to the
estimator.  A link with a closed-form inverse is inverted directly,
u = (link_inv(y*) - base) / theta_u; any other link, and any closed-form
answer that misses the residual tolerance, goes to a monotone bisection
after geometric bracket expansion from the previous input.  Unreachable
targets and a vanishing control gain are handled by best-effort/hold
fallbacks that leave a flag in the trace instead of raising.  The plant
noise of a run does not depend on the loop state, so it is drawn as one
block up front.

One loop, ``run_closed_loop_batch``, runs every mode: it steps all
(algorithm, seed) cells of a sweep together as rows of (S, d) arrays, with
the regressors and observations either made by the closed loop or prepared
before it (identification, replay); ``run_closed_loop`` is a closed-loop
batch of one.  Rows never mix, so a cell's trace does not depend on the
other cells in its batch.  Every run mode records its steps as a
``Trace``: one array per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtri, stdtrit

from .core import ParameterVector, as_values, check_rows, row_dots
from .errors import ConfigurationError, NumericError
from .metrics import running_mean
from .sg import DIVERGENCE_NORM, sg_update_unguarded

__all__ = [
    "NoiseSource",
    "Plant",
    "ControlConfig",
    "TRACE_COLUMNS",
    "Trace",
    "ClosedLoopBatch",
    "solve_control",
    "solve_control_rows",
    "run_closed_loop",
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
        if not (self.u_max > 0 and self.b_eps > 0 and self.root_tol > 0):
            raise ConfigurationError("u_max, b_eps and root_tol must all be > 0")
        if self.root_max_iter < 1:
            raise ConfigurationError("root_max_iter must be >= 1")

    def target(self, k):
        if np.isscalar(self.y_target):
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


def solve_control(model, theta, phi, p, y_star, cfg: ControlConfig, u_prev=0.0):
    """Invert u -> f(phi_k(u), theta) toward y_star.

    ``phi`` is the regressor row with its input slot at index ``p``; the
    slot's value is ignored and ``phi`` is not modified.

    Returns (u, flags).  flags is a tuple drawn from {"saturated",
    "singular_gain"}: ``singular_gain`` holds the previous input when the
    local control gain df/du is below b_eps; ``saturated`` marks a target not
    reachable inside [-u_max, u_max] (best endpoint returned) or an
    unconverged residual on a flat stretch.

    The previous input (clipped) is returned as is when it already meets
    root_tol.  A model with ``link_inv`` is then inverted in closed form, and
    that input is taken when it lies in [-u_max, u_max] and meets root_tol;
    a target outside the link's range or an input beyond u_max saturates at
    the better endpoint.  Everything else, including every model without
    ``link_inv``, is solved by bracketed bisection.
    """
    theta_v = as_values(theta, "parameter vector")
    phi = np.array(as_values(phi, "regressor"))
    if phi.size != theta_v.size:
        raise ConfigurationError(f"regressor dim {phi.size} != parameter dim {theta_v.size}")
    phi[p] = 0.0

    link_inv = getattr(model, "link_inv", None)
    base = float(np.dot(phi, theta_v))
    cu = float(theta_v[p])
    link = model.link

    def f_of_u(u):
        return link(base + cu * u)

    u0 = min(max(u_prev, -cfg.u_max), cfg.u_max)
    r0 = f_of_u(u0) - y_star
    if abs(r0) <= cfg.root_tol:
        return u0, ()
    if abs(float(model.dlink(base + cu * u_prev)) * cu) < cfg.b_eps:
        return u_prev, ("singular_gain",)

    if link_inv is not None:
        z_star = link_inv(y_star)
        u = math.inf if z_star is None else (z_star - base) / cu
        if abs(u) > cfg.u_max:
            # monotone link: the target lies beyond one end of the input range
            r_lo = f_of_u(-cfg.u_max) - y_star
            r_hi = f_of_u(cfg.u_max) - y_star
            u, r = (-cfg.u_max, r_lo) if abs(r_lo) <= abs(r_hi) else (cfg.u_max, r_hi)
            return u, (() if abs(r) <= cfg.root_tol else ("saturated",))
        if abs(f_of_u(u) - y_star) <= cfg.root_tol:
            return u, ()
    return _bisect_control(f_of_u, y_star, u0, r0, cfg)


def _bisect_control(f_of_u, y_star, u0, r0, cfg):
    """Bracket a sign change by geometric expansion from u0, then bisect."""
    step = 1.0
    lo, r_lo = u0, r0
    hi, r_hi = u0, r0
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


def solve_control_rows(model, theta, phi, p, y_star, cfg: ControlConfig, u_prev):
    """``solve_control`` on S stacked rows; returns (u, flagged).

    ``theta`` and ``phi`` are (S, d) arrays; each row of ``phi`` is a
    regressor with its input entry (index ``p``) at 0.  ``u_prev`` is (S,).
    A row takes the closed form u = (link_inv(y*) - base) / theta_u where
    ``solve_control`` would: its clipped previous input misses root_tol, its
    local gain at the previous input is at least b_eps, and the closed form
    lies in [-u_max, u_max] and meets root_tol.  Every other row is handed to
    ``solve_control`` itself (short-circuit, singular-gain hold, saturation,
    bisection), so each row gets the scalar solve's flags.  ``flagged`` maps
    a row index to its flags, for flagged rows only.
    """
    link_inv = getattr(model, "link_inv", None)
    z_star = link_inv(y_star) if link_inv is not None else None
    cu = theta[:, p]
    base = row_dots(phi, theta)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u0 = np.minimum(np.maximum(u_prev, -cfg.u_max), cfg.u_max)
        r0 = model.link(base + cu * u0) - y_star
        gain = model.dlink(base + cu * u_prev) * cu
        # a target outside the link's range leaves u = nan: the scalar solve
        u = (math.nan if z_star is None else z_star - base) / cu
        closed = (
            (np.abs(r0) > cfg.root_tol)
            & (np.abs(gain) >= cfg.b_eps)
            & (np.abs(u) <= cfg.u_max)
            & (np.abs(model.link(base + cu * u) - y_star) <= cfg.root_tol)
        )
    flagged = {}
    if not all(closed.tolist()):
        for i in np.flatnonzero(~closed).tolist():
            u[i], flags = solve_control(model, theta[i], phi[i], p, y_star, cfg, float(u_prev[i]))
            if flags:
                flagged[i] = flags
    return u, flagged


# float64 columns the batch records: those of every mode, then those that
# need the truth (plant given), then those the closed loop makes itself
# (prepared blocks supply y and f_true otherwise)
_BATCH_COLUMNS = ("f_est", "mu_k", "r_k")
_TRUTH_COLUMNS = ("regret_avg", "theta_err")
_CLOSED_LOOP_COLUMNS = ("y", "f_true", "u")

# steps per chunk of the run loop; a chunk's estimates of 20 rows in d = 5 take 0.2 MB
_CHUNK = 256


@dataclass
class ClosedLoopBatch:
    """The recorded steps of a batched run, column-wise.

    ``recorded[name][k, i]`` is column ``name`` of step k in the cell
    ``cells[i] = (algorithm, seed)``.  ``inputs`` maps each column taken
    from prepared blocks to its (n, U) block, whose column ``block_of[i]``
    belongs to cell i.  The ``loss`` column is ``loss.eval(y, f_est)``,
    evaluated per trace.  ``y_star[k]`` is shared by all cells (None
    outside the closed loop).  ``flags[i]`` maps each flagged step k of
    cell i to its ";"-joined flags.  A column the mode leaves empty is not
    stored.
    """

    cells: tuple
    recorded: dict
    inputs: dict
    block_of: np.ndarray | None
    loss: object
    y_star: list | None
    flags: list

    def trace(self, i):
        """The Trace of cell i, with its own contiguous columns."""
        columns = {name: column[:, i].copy() for name, column in self.recorded.items()}
        for name, block in self.inputs.items():
            columns[name] = block[:, self.block_of[i]].copy()
        columns["loss"] = self.loss.eval(columns["y"], columns["f_est"])
        n = len(columns["y"])
        flags = [""] * n
        for k, step_flags in self.flags[i].items():
            flags[k] = step_flags
        y_star = None if self.y_star is None else np.array(self.y_star)
        return Trace(k=np.arange(n), y_star=y_star, flags=flags, **columns)


def run_closed_loop_batch(plant, estimator, pair, cfg, n_steps, cells, update=None):
    """Run every (algorithm, seed) cell of a sweep as one batch; returns a ClosedLoopBatch.

    Row i of every array is the cell ``cells[i]``; all rows start from
    ``estimator``, and a row whose algorithm is "classical" takes the
    classical gain law, any other the modified one.  Each step k takes a
    regressor phi_k and an observation y_{k+1} per row, updates the
    estimator rows with them, and records the prediction made before the
    update.  ``cfg`` says where phi_k and y_{k+1} come from:

    - a ControlConfig closes the loop: solve the control of every row from
      its current estimate (zero lags at the start), then advance
      ``plant``, whose noise for a row is the block
      ``plant.noise.with_seed(seed).draw_block(n_steps)``;
    - a tuple ``(phi, y, f_true)`` of blocks prepared before the loop,
      shaped (n_steps, U, d), (n_steps, U) and (n_steps, U), with one
      column per distinct seed of ``cells`` in order of first appearance:
      every cell reads the column of its seed.  ``f_true`` is None when
      the truth is unknown, and ``plant`` is then None too: ``f_true``,
      ``regret_avg`` and ``theta_err`` stay empty.

    A step runs only the recursion: control and plant (closed loop only)
    and the update.  Once per chunk of steps, the prepared inputs are
    gathered per cell, and the divergence flags (norm above
    ``DIVERGENCE_NORM`` after a step), ``theta_err`` and the regret are
    derived from the chunk's estimates; ``regret_avg`` is the running mean.

    ``update(theta, r, carry, phi, y)`` advances the estimator rows and
    returns (theta, r, carry, mu_k, grad_norm_sq, f_hat) as ``sg_update``
    does (the gradient norms are not recorded); the default is
    ``sg_update`` with each row's gain law.  A NumericError raised inside
    the batch names the step, and the algorithm and seed of the first bad
    row, in its context.
    """
    model_est = pair.predictor
    closed = isinstance(cfg, ControlConfig)
    if plant is not None and model_est.dim != plant.model.dim:
        raise ConfigurationError(
            f"estimator model dim {model_est.dim} != plant model dim {plant.model.dim}"
        )
    if closed:
        p = getattr(plant.model, "p", None)
        if p is None:
            raise ConfigurationError("plant model must expose its output lag order p")
    cells = tuple(cells)
    if not cells:
        raise ConfigurationError("a batch needs at least one (algorithm, seed) cell")
    if update is None:
        classical = np.array([algo == "classical" for algo, _ in cells])
        update = partial(sg_update_unguarded, pair=pair, hyper=estimator.hyper,
                         classical=classical)
    n, S, d = int(n_steps), len(cells), model_est.dim
    loss = pair.loss
    truth = plant is not None
    columns = (_BATCH_COLUMNS + (_TRUTH_COLUMNS if truth else ())
               + (_CLOSED_LOOP_COLUMNS if closed else ()))
    # one array per column keeps each allocation small
    recorded = {name: np.empty((n, S)) for name in columns}
    f_est_col, mu_col, r_col = (recorded[name] for name in _BATCH_COLUMNS)

    theta = np.tile(estimator.theta.values, (S, 1))
    r = np.full(S, estimator.gain.r)
    carry = np.full(S, estimator.gain.carry)
    # row 0 holds the estimates a chunk starts from, row j + 1 those after its step j
    estimates = np.empty((min(n, _CHUNK) + 1, S, d))
    estimates[0] = theta
    if truth:
        # stacked like theta so that theta == theta* gives f_est == f_true exactly
        theta_star = np.tile(plant.theta_star.values, (S, 1))
    targets, inputs, block_of = None, {}, None
    if closed:
        targets = [cfg.target(k) for k in range(n)]
        link_true = plant.model.link
        y_col, f_true_col, u_col = (recorded[name] for name in _CLOSED_LOOP_COLUMNS)
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
        inputs = {"y": y_block, "f_true": f_true_block} if truth else {"y": y_block}
    flags = [{} for _ in cells]
    k = 0
    try:
        # overflow and 0/0 in masked rows stay silent: every result is checked
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if closed:
                noise = np.stack([plant.noise.with_seed(s).draw_block(n) for _, s in cells],
                                 axis=1)
            for start in range(0, n, _CHUNK):
                stop = min(start + _CHUNK, n)
                if not closed:
                    phi_rows = phi_block[start:stop].take(block_of, axis=1)
                    y_rows = y_block[start:stop].take(block_of, axis=1)
                for j, k in enumerate(range(start, stop)):
                    if closed:
                        u, flagged = solve_control_rows(model_est, theta, phi, p, targets[k],
                                                        cfg, u_prev)
                        phi[:, p] = u
                        f_true = link_true(row_dots(phi, theta_star))
                        check_rows(np.isfinite(f_true), "plant conditional mean non-finite",
                                   phi=phi, u=u)
                        y_next = f_true + noise[k]
                        y_col[k], f_true_col[k], u_col[k] = y_next, f_true, u
                        for i, row_flags in flagged.items():
                            flags[i][k] = ";".join(row_flags)
                    else:
                        phi, y_next = phi_rows[j], y_rows[j]

                    theta, r, carry, mu_k, _, f_est = update(theta, r, carry, phi, y_next)
                    estimates[j + 1] = theta
                    f_est_col[k], mu_col[k], r_col[k] = f_est, mu_k, r

                    if closed:
                        phi[:, 1:p] = phi[:, : p - 1]
                        phi[:, 0] = y_next
                        phi[:, p + 1 :] = phi[:, p : d - 1]
                        phi[:, p] = 0.0
                        u_prev = u

                chunk = estimates[: stop - start + 1]
                diverged = np.sqrt(row_dots(chunk[1:], chunk[1:])) > DIVERGENCE_NORM
                for j, i in np.argwhere(diverged).tolist():
                    step_flags = flags[i].get(start + j)
                    flags[i][start + j] = (f"{step_flags};divergence" if step_flags
                                           else "divergence")
                if truth:
                    gap = chunk[:-1] - theta_star
                    recorded["theta_err"][start:stop] = np.sqrt(row_dots(gap, gap))
                    f_true = (f_true_col[start:stop] if closed
                              else f_true_block[start:stop].take(block_of, axis=1))
                    f_est = f_est_col[start:stop]
                    recorded["regret_avg"][start:stop] = (loss.eval(f_true, f_est)
                                                          - loss.eval(f_true, f_true))
                estimates[0] = chunk[-1]
    except NumericError as exc:
        row = exc.context.pop("row", None)
        exc.context["k"] = k
        if row is not None:
            exc.context["algorithm"], exc.context["seed"] = cells[row]
        raise
    if truth:
        regret = recorded["regret_avg"]
        for i in range(S):
            regret[:, i] = running_mean(regret[:, i])
    return ClosedLoopBatch(cells=cells, recorded=recorded, inputs=inputs, block_of=block_of,
                           loss=loss, y_star=targets, flags=flags)


def run_closed_loop(plant, estimator, pair, cfg, n_steps, seed, algorithm="modified",
                    update=None):
    """One-seed closed loop: a batch of one; returns its Trace.

    Arguments as for ``run_closed_loop_batch``; the noise stream is reseeded
    from ``seed`` so sweeps are reproducible run by run.
    """
    batch = run_closed_loop_batch(plant, estimator, pair, cfg, n_steps, ((algorithm, seed),),
                                  update)
    return batch.trace(0)
