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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri, stdtrit

from .core import LinkRegressionModel, ParameterVector, Role, as_values, kahan_add
from .errors import ConfigurationError, NumericError
from .sg import DIVERGENCE_NORM, sg_step

__all__ = [
    "NoiseSource",
    "LagBuffer",
    "Plant",
    "ControlConfig",
    "StepRecord",
    "solve_control",
    "plant_step",
    "run_closed_loop",
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


def run_closed_loop(plant, estimator, pair, cfg, n_steps, seed, step_fn=sg_step):
    """Run the full certainty-equivalence loop; returns the per-step trace.

    Step order per k: solve the control from the current estimate, advance the
    plant, then update the estimator with (phi_k, y_{k+1}).  The noise stream
    is reseeded from ``seed`` so sweeps are reproducible run by run; its
    n_steps values are drawn as one block, identical to drawing them per step.
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
    lags = LagBuffer(p, q)
    noise = plant.noise.with_seed(seed).draw_block(int(n_steps))
    theta_star_v = plant.theta_star.values
    loss = pair.loss

    state = estimator
    u_prev = 0.0
    regret_total, regret_carry = 0.0, 0.0
    records = []
    for k in range(int(n_steps)):
        y_star = cfg.target(k)
        u, flags = solve_control(model_est, state.theta.values, lags, y_star, cfg, u_prev)
        phi = lags.regressor(u)
        f_true = float(plant.model.eval(phi, theta_star_v))
        if not math.isfinite(f_true):
            raise NumericError(
                "plant conditional mean non-finite", context={"k": k, "phi": phi, "u": u}
            )
        w = float(noise[k])
        y_next = f_true + w
        f_est = float(model_est.eval(phi, state.theta.values))
        theta_err = float(np.linalg.norm(state.theta.values - theta_star_v))

        state = step_fn(state, pair, phi, y_next)
        if state.theta.norm() > DIVERGENCE_NORM:
            flags = flags + ("divergence",)

        regret_inc = float(loss.eval(f_true, f_est)) - float(loss.eval(f_true, f_true))
        regret_total, regret_carry = kahan_add(regret_total, regret_carry, regret_inc)
        records.append(
            StepRecord(
                k=k,
                y=y_next,
                u=u,
                y_star=y_star,
                f_true=f_true,
                f_est=f_est,
                loss=float(loss.eval(y_next, f_est)),
                regret_avg=regret_total / (k + 1),
                theta_err=theta_err,
                mu_k=state.last_mu,
                r_k=state.gain.r,
                flags=";".join(flags),
                w=w,
                grad_norm_sq=state.last_grad_norm_sq,
            )
        )
        lags.advance(y_next, u)
        u_prev = u
    return records
