"""Certainty-equivalence control of a scalar lag plant with online estimation.

Per step k the loop (i) inverts the *estimated* model to pick the input u_k
that would place the one-step-ahead prediction on the target, (ii) advances
the true plant to produce y_{k+1}, and (iii) feeds (phi_k, y_{k+1}) to the
estimator.  A link model with a closed-form inverse is inverted directly,
u = (link_inv(y*) - base) / theta_u; any other model, and any closed-form
answer that misses the residual tolerance, goes to a monotone bisection
after geometric bracket expansion from the previous input.  Unreachable
targets and a vanishing control gain are handled by best-effort/hold
fallbacks that leave a flag in the trace instead of raising.  The plant
noise of a run does not depend on the loop state, so it is drawn as one
block up front.

One loop, ``run_closed_loop_batch``, steps all seeds of a sweep together as
rows of (S, d) arrays; ``run_closed_loop`` is its batch of one.  Rows never
mix, so a cell's trace does not depend on the other seeds in its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtri, stdtrit

from .core import (
    LinkRegressionModel,
    ParameterVector,
    Role,
    as_values,
    check_rows,
    kahan_add_rows,
    row_dots,
)
from .errors import ConfigurationError, NumericError
from .sg import DIVERGENCE_NORM, sg_update

__all__ = [
    "NoiseSource",
    "LagBuffer",
    "Plant",
    "ControlConfig",
    "StepRecord",
    "ClosedLoopBatch",
    "solve_control",
    "solve_control_rows",
    "plant_step",
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

    def draw_block(self, n):
        """The next ``n`` values of ``draw()`` as one array, bit for bit.

        Philox is counter-based, so one vector call yields the same words as
        n scalar calls, and the inverse CDFs are elementwise.
        """
        u = (self._gen.integers(0, 1 << 53, size=n) + 0.5) * (2.0 ** -53)
        self.draw_count += n
        if self.kind == "gaussian":
            return self.std * ndtri(u)
        return self.std * stdtrit(self.df, u)


class LagBuffer:
    """Rolling stack of the last p outputs and q inputs, newest first.

    ``regressor(u_now)`` assembles [y_k, ..., y_{k-p+1}, u_now, u_{k-1}, ...,
    u_{k-q+1}] without mutating the buffer; ``advance`` shifts both stacks
    after the plant has produced y_{k+1}.  Initial conditions are zero.
    """

    def __init__(self, p, q):
        if p < 1 or q < 1:
            raise ConfigurationError(f"lag orders must be >= 1, got p={p}, q={q}")
        self.p = int(p)
        self.q = int(q)
        self._y = np.zeros(self.p)
        self._u = np.zeros(self.q)

    def regressor(self, u_now):
        phi = np.empty(self.p + self.q)
        phi[: self.p] = self._y
        phi[self.p] = u_now
        phi[self.p + 1 :] = self._u[: self.q - 1]
        return phi

    def advance(self, y_next, u_now):
        if self.p > 1:
            self._y[1:] = self._y[:-1]
        self._y[0] = y_next
        if self.q > 1:
            self._u[1:] = self._u[:-1]
        self._u[0] = u_now

    @property
    def y_hist(self):
        return self._y.copy()

    @property
    def u_hist(self):
        return self._u.copy()


@dataclass
class Plant:
    """The true system: conditional-mean model at theta_star plus additive noise."""

    model: object
    theta_star: ParameterVector
    noise: NoiseSource

    def __post_init__(self):
        if not isinstance(self.theta_star, ParameterVector):
            self.theta_star = ParameterVector(as_values(self.theta_star), role=Role.TRUTH)
        if self.theta_star.dim != self.model.dim:
            raise ConfigurationError(
                f"theta_star dim {self.theta_star.dim} != model dim {self.model.dim}"
            )

    def mean(self, phi):
        out = float(self.model.eval(phi, self.theta_star.values))
        if not math.isfinite(out):
            raise NumericError("plant conditional mean is non-finite", context={"phi": phi})
        return out


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


@dataclass(slots=True)
class StepRecord:
    """One trace row; None marks a column that the mode leaves empty.

    ``w`` (plant noise) and ``grad_norm_sq`` ride along in memory for the
    diagnostics but are not part of the serialised schema.
    """

    k: int
    y: float | None = None
    u: float | None = None
    y_star: float | None = None
    f_true: float | None = None
    f_est: float | None = None
    loss: float | None = None
    regret_avg: float | None = None
    theta_err: float | None = None
    mu_k: float | None = None
    r_k: float | None = None
    flags: str = ""
    w: float | None = None
    grad_norm_sq: float | None = None


def solve_control(model, theta, lags, y_star, cfg: ControlConfig, u_prev=0.0):
    """Invert u -> f(phi_k(u), theta) toward y_star.

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
    phi = lags.regressor(0.0)
    if phi.size != theta_v.size:
        raise ConfigurationError(f"regressor dim {phi.size} != parameter dim {theta_v.size}")
    u_idx = lags.p

    link_inv = None
    if isinstance(model, LinkRegressionModel):
        link_inv = getattr(model, "link_inv", None)
        base = float(np.dot(phi, theta_v)) - phi[u_idx] * theta_v[u_idx]
        cu = float(theta_v[u_idx])
        link = model.link

        def f_of_u(u):
            return link(base + cu * u)

        def gain_at(u):
            return float(model.dlink(base + cu * u)) * cu
    else:

        def f_of_u(u):
            phi[u_idx] = u
            return float(model.eval(phi, theta_v))

        def gain_at(u):
            h = 1e-6 * max(1.0, abs(u))
            return (f_of_u(u + h) - f_of_u(u - h)) / (2.0 * h)

    u0 = min(max(u_prev, -cfg.u_max), cfg.u_max)
    r0 = f_of_u(u0) - y_star
    if abs(r0) <= cfg.root_tol:
        return u0, ()
    if abs(gain_at(u_prev)) < cfg.b_eps:
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


def plant_step(plant: Plant, lags: LagBuffer, u):
    """Advance the true plant one step: y_{k+1} = f(phi_k, theta*) + w_{k+1}.

    Returns (y_next, w_next); both are recorded by the run loop.  The lag
    buffer is not advanced here (the caller owns the ordering).
    """
    phi = lags.regressor(u)
    f_true = plant.mean(phi)
    w = plant.noise.draw()
    y_next = f_true + w
    if not math.isfinite(y_next):
        raise NumericError("plant output non-finite", context={"phi": phi, "u": u})
    return y_next, w


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
        q = phi.shape[1] - p
        for i in np.flatnonzero(~closed).tolist():
            lags = LagBuffer(p, q)
            lags._y[:] = phi[i, :p]
            lags._u[: q - 1] = phi[i, p + 1 :]
            u[i], flags = solve_control(model, theta[i], lags, y_star, cfg, float(u_prev[i]))
            if flags:
                flagged[i] = flags
    return u, flagged


# float64 columns recorded per step by the batched loop, in storage order
_BATCH_COLUMNS = (
    "y", "u", "f_true", "f_est", "loss", "regret_avg", "theta_err", "mu_k", "r_k",
    "grad_norm_sq",
)


@dataclass
class ClosedLoopBatch:
    """The recorded steps of a batched closed-loop run, column-wise.

    ``rows[k, j, i]`` is column ``_BATCH_COLUMNS[j]`` of step k in the cell
    of ``seeds[i]``, and ``noise[k, i]`` its plant noise; ``y_star[k]`` is
    shared by all cells.  ``flags[i]`` maps a step to its flags, for the
    flagged steps of cell i only.
    """

    seeds: tuple
    y_star: list
    rows: np.ndarray
    noise: np.ndarray
    flags: list

    def records(self, i):
        """The trace of cell i as StepRecords, built on demand."""
        cols = [self.rows[:, j, i].tolist() for j in range(len(_BATCH_COLUMNS))]
        flags = self.flags[i]
        return [
            StepRecord(k, y, u, y_star, f_true, f_est, loss, regret, err, mu, r,
                       ";".join(flags.get(k, ())), w, gns)
            for k, (y_star, w, y, u, f_true, f_est, loss, regret, err, mu, r, gns)
            in enumerate(zip(self.y_star, self.noise[:, i].tolist(), *cols))
        ]


def run_closed_loop_batch(plant, estimator, pair, cfg, n_steps, seeds, algorithm="modified",
                          update=None):
    """Run the certainty-equivalence loop for every seed at once.

    Row i of every array is the cell of ``seeds[i]``; all rows start from
    ``estimator`` with zero lags.  Step order per k: solve the control of
    every row from its current estimate, advance the plant, then update the
    estimator rows with (phi_k, y_{k+1}).  Each row's noise is the block
    ``plant.noise.with_seed(seed).draw_block(n_steps)``, the same values a
    one-seed run draws.  ``update(theta, r, carry, phi, y)`` advances the
    estimator rows and returns (theta, r, carry, mu_k, grad_norm_sq); the
    default is ``sg_update`` with the classical gain law when ``algorithm``
    is "classical" and the modified law otherwise.  A NumericError raised
    inside the batch names the step, the algorithm and the row's seed in
    its context.  Returns a ClosedLoopBatch.
    """
    model_est = pair.predictor
    p = getattr(plant.model, "p", None)
    q = getattr(plant.model, "q", None)
    if p is None or q is None:
        raise ConfigurationError("plant model must expose lag orders p and q")
    if model_est.dim != plant.model.dim:
        raise ConfigurationError(
            f"estimator model dim {model_est.dim} != plant model dim {plant.model.dim}"
        )
    for model in (model_est, plant.model):
        if not isinstance(model, LinkRegressionModel):
            raise ConfigurationError(f"the closed loop needs link models, got {model.name!r}")
    if update is None:
        update = partial(sg_update, pair=pair, hyper=estimator.hyper,
                         classical=algorithm == "classical")
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigurationError("the closed loop needs at least one seed")
    n, S, d = int(n_steps), len(seeds), p + q
    targets = [cfg.target(k) for k in range(n)]
    # stacked like theta so that theta == theta* gives f_est == f_true exactly
    theta_star = np.tile(plant.theta_star.values, (S, 1))
    loss, link_true, link_est = pair.loss, plant.model.link, model_est.link

    theta = np.tile(estimator.theta.values, (S, 1))
    r = np.full(S, estimator.gain.r)
    carry = np.full(S, estimator.gain.carry)
    # each row of phi holds the lag stacks: outputs y_k..y_{k-p+1}, the
    # input slot (0 until solved), then inputs u_{k-1}..u_{k-q+1}
    phi = np.zeros((S, d))
    u_prev = np.zeros(S)
    regret, regret_carry = np.zeros(S), np.zeros(S)
    rows = np.empty((n, len(_BATCH_COLUMNS), S))
    flags = [{} for _ in seeds]
    k = 0
    try:
        # overflow and 0/0 in masked rows stay silent: every result is checked
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            noise = np.stack([plant.noise.with_seed(s).draw_block(n) for s in seeds], axis=1)
            for k in range(n):
                y_star = targets[k]
                u, flagged = solve_control_rows(model_est, theta, phi, p, y_star, cfg, u_prev)
                phi[:, p] = u
                f_true = link_true(row_dots(phi, theta_star))
                check_rows(np.isfinite(f_true), "plant conditional mean non-finite", phi=phi, u=u)
                w = noise[k]
                y_next = f_true + w
                f_est = link_est(row_dots(phi, theta))
                gap = theta - theta_star
                theta_err = np.sqrt(row_dots(gap, gap))

                theta, r, carry, mu_k, grad_norm_sq = update(theta, r, carry, phi, y_next)
                diverged = np.sqrt(row_dots(theta, theta)) > DIVERGENCE_NORM
                regret, regret_carry = kahan_add_rows(
                    regret, regret_carry, loss.eval(f_true, f_est) - loss.eval(f_true, f_true)
                )
                rows[k] = (y_next, u, f_true, f_est, loss.eval(y_next, f_est), regret / (k + 1),
                           theta_err, mu_k, r, grad_norm_sq)
                if any(diverged.tolist()):
                    for i in np.flatnonzero(diverged).tolist():
                        flagged[i] = flagged.get(i, ()) + ("divergence",)
                for i, row_flags in flagged.items():
                    flags[i][k] = row_flags

                phi[:, 1:p] = phi[:, : p - 1]
                phi[:, 0] = y_next
                phi[:, p + 1 :] = phi[:, p : d - 1]
                phi[:, p] = 0.0
                u_prev = u
    except NumericError as exc:
        row = exc.context.pop("row", None)
        exc.context.update(k=k, algorithm=algorithm)
        if row is not None:
            exc.context["seed"] = seeds[row]
        raise
    return ClosedLoopBatch(seeds=seeds, y_star=targets, rows=rows, noise=noise, flags=flags)


def run_closed_loop(plant, estimator, pair, cfg, n_steps, seed, algorithm="modified",
                    update=None):
    """One-seed closed loop: a batch of one; returns the per-step trace.

    Arguments as for ``run_closed_loop_batch``; the noise stream is reseeded
    from ``seed`` so sweeps are reproducible run by run.
    """
    batch = run_closed_loop_batch(plant, estimator, pair, cfg, n_steps, (seed,), algorithm,
                                  update)
    return batch.records(0)
