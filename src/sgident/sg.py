"""The stochastic-gradient estimator: modified gain law and the classical baseline.

One step consumes (phi_k, y_{k+1}) and returns a new state:

    g_k      = grad_theta f(phi_k, theta_k)
    r_k      = r_{k-1} + ||g_k||^2          (r starts at beta3 > 1)
    mu_k     = mu / (r_k^beta1 * ln(r_k)^beta2 + ||g_k||^2)     [modified]
    mu_k     = mu / r_k                                          [classical]
    theta_k1 = theta_k - mu_k * g_k * dL/dx(y_{k+1}, f(phi_k, theta_k))

The accumulator is advanced with the current squared gradient norm before the
gain is formed, so the denominator reads the up-to-date total and the explicit
``||g_k||^2`` term adds the extra damping that keeps a single update bounded:
``mu_k * ||g_k||^2 <= mu`` holds on every step and is asserted in-loop.

No projection is applied anywhere; a runaway estimate is flagged, not clamped.

``sg_step`` and ``classical_sg_step`` advance one immutable state: the
public one-step API and the reference the row-wise ``sg_update`` is tested
against.  ``sg_update`` runs the same step on S stacked rows of plain
arrays, each row with its own gain law; every run mode steps its rows
through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GainState,
    HyperParams,
    LossFunction,
    ParameterVector,
    as_values,
    check_rows,
    kahan_add_rows,
    loss_grad_x,
    row_dots,
)
from .errors import ConfigurationError, DomainError, NumericError

__all__ = [
    "EstimatorState",
    "DIVERGENCE_NORM",
    "sg_init",
    "sg_step",
    "classical_sg_step",
    "sg_update",
    "mu_schedule",
]

# an estimate beyond this norm is flagged as divergent by the run loops
DIVERGENCE_NORM = 1e6


@dataclass(frozen=True)
class EstimatorState:
    """Immutable snapshot of the estimator after k steps.

    ``last_mu`` and ``last_grad_norm_sq`` describe the most recent step
    (``last_mu`` is None before the first one).
    """

    theta: ParameterVector
    gain: GainState
    hyper: HyperParams
    last_mu: float | None = None
    last_grad_norm_sq: float = 0.0

    @property
    def k(self):
        return self.gain.k


def sg_init(theta0, hyper: HyperParams) -> EstimatorState:
    """Build the step-0 state: theta = theta0, r = beta3, k = 0."""
    if not isinstance(hyper, HyperParams):
        raise ConfigurationError("hyper must be a HyperParams instance")
    if isinstance(theta0, ParameterVector):
        theta = theta0
    else:
        theta = ParameterVector(as_values(theta0, "theta0"))
    return EstimatorState(theta=theta, gain=GainState(r=hyper.beta3, k=0), hyper=hyper)


def mu_schedule(gain: GainState, grad_norm_sq: float, hyper: HyperParams) -> float:
    """The modified gain mu / (r^beta1 * ln(r)^beta2 + ||grad||^2).

    Natural logarithm; beta2 == 0 short-circuits to a unit factor so the
    pure-power regime is exact.  Monotone non-increasing in both r and the
    squared gradient norm.
    """
    r = gain.r
    if r <= 1.0:
        raise NumericError(f"gain accumulator must exceed 1 for the log term, got r={r}")
    denom = r ** hyper.beta1
    if hyper.beta2 != 0.0:
        denom *= math.log(r) ** hyper.beta2
    return hyper.mu / (denom + grad_norm_sq)


def _advance(state, pair, phi, y, classical):
    phi_v = as_values(phi, "regressor")
    theta_v = state.theta.values
    model = pair.predictor
    loss = pair.loss
    if phi_v.size != theta_v.size:
        raise ConfigurationError(
            f"regressor dim {phi_v.size} != parameter dim {theta_v.size} at step {state.k}"
        )
    if not math.isfinite(y):
        raise NumericError(
            f"observation must be finite, got {y} at step {state.k}", context={"k": state.k, "y": y}
        )

    f_hat = float(model.eval(phi_v, theta_v))
    if not math.isfinite(f_hat):
        raise NumericError(
            "predictor output non-finite", context={"k": state.k, "phi": phi_v, "theta": theta_v}
        )
    g = np.asarray(model.grad(phi_v, theta_v), dtype=float)
    grad_norm_sq = float(g @ g)
    if not math.isfinite(grad_norm_sq):
        raise NumericError(
            "predictor gradient non-finite", context={"k": state.k, "phi": phi_v, "theta": theta_v}
        )

    gain = state.gain.advanced(grad_norm_sq)
    if classical:
        mu_k = state.hyper.mu / gain.r
    else:
        mu_k = mu_schedule(gain, grad_norm_sq, state.hyper)

    # per-step safety bound; mathematically guaranteed, asserted anyway
    if mu_k * grad_norm_sq > state.hyper.mu:
        raise NumericError(
            f"step-size law violated: mu_k*||g||^2 = {mu_k * grad_norm_sq} > mu = {state.hyper.mu}",
            context={"k": state.k},
        )

    try:
        slope = loss_grad_x(loss, y, f_hat)
    except NumericError as exc:
        exc.context.setdefault("k", state.k)
        raise
    theta_new = theta_v - (mu_k * slope) * g
    if not np.all(np.isfinite(theta_new)):
        raise NumericError(
            "parameter update produced non-finite entries",
            context={"k": state.k, "phi": phi_v, "theta": theta_v},
        )
    return EstimatorState(
        theta=ParameterVector(theta_new),
        gain=gain,
        hyper=state.hyper,
        last_mu=mu_k,
        last_grad_norm_sq=grad_norm_sq,
    )


def sg_step(state, pair, phi, y) -> EstimatorState:
    """One step of the modified-gain estimator."""
    return _advance(state, pair, phi, y, classical=False)


def classical_sg_step(state, pair, phi, y) -> EstimatorState:
    """One step of the classical baseline mu_k = mu / r_k (same accumulator)."""
    return _advance(state, pair, phi, y, classical=True)


def sg_update(theta, r, carry, phi, y, pair, hyper, classical=False):
    """The step of ``sg_step`` (or ``classical_sg_step``) on S stacked rows.

    ``theta`` and ``phi`` are (S, d) arrays; ``r``, ``carry`` (the Kahan
    total and compensation of each row's accumulator) and ``y`` are (S,).
    ``classical`` is a bool or an (S,) bool mask: a classical row takes
    mu_k = mu / r_k, every other row the modified law.  Returns new arrays
    (theta, r, carry, mu_k, grad_norm_sq, f_hat), where f_hat is each row's
    prediction before the update.  Each row follows the scalar arithmetic;
    only the order of the d-term sums and the vector link functions differ,
    so rows agree with the scalar step to rounding.  The link and slope come
    from one ``link_slope`` call.

    The whole step is computed first and then tested in one reduction.  Only
    when that fails are the scalar step's checks walked, in its order
    (``r > 1`` on modified rows only), over the arrays already computed: the
    first failed check raises NumericError (DomainError for the loss domain)
    with the first bad row in context["row"].  Floating-point warnings stay
    silent, because every result is checked.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return sg_update_unguarded(theta, r, carry, phi, y, pair, hyper, classical)


def sg_update_unguarded(theta, r, carry, phi, y, pair, hyper, classical=False):
    """``sg_update`` inside the caller's ``np.errstate``: a run loop enters it once."""
    model, loss = pair.predictor, pair.loss
    f_hat, dlink = model.link_slope(row_dots(phi, theta))
    g = dlink[:, None] * phi
    grad_norm_sq = row_dots(g, g)
    r, carry = kahan_add_rows(r, carry, grad_norm_sq)
    denom = r**hyper.beta1
    if hyper.beta2 != 0.0:
        denom = denom * np.log(r) ** hyper.beta2
    mu_k = hyper.mu / np.where(classical, r, denom + grad_norm_sq)
    law = mu_k * grad_norm_sq
    slope = loss.grad_x(y, f_hat)
    theta_new = theta - (mu_k * slope)[:, None] * g

    # A sum is finite only when every term is, and total - total is 0 then and
    # nan otherwise, which fails the law's comparison, as a non-finite
    # gradient norm does through the law itself: the test passes only when
    # every check below would.  An overflowing sum of finite terms, or a
    # classical row with r <= 1, merely takes the walk, which passes it.
    # The default loss domain is finiteness, covered here.
    total = np.add.reduce(theta_new, axis=1) + y + f_hat + slope
    ok = (total - total + law <= hyper.mu) & (r > 1.0)
    narrows = type(loss).in_domain is not LossFunction.in_domain
    if not all(ok.tolist()) or (narrows and not loss.in_domain(f_hat)):
        check_rows(np.isfinite(y), "observation must be finite", y=y)
        check_rows(np.isfinite(f_hat), "predictor output non-finite", phi=phi, theta=theta)
        check_rows(np.isfinite(grad_norm_sq), "predictor gradient non-finite",
                   phi=phi, theta=theta)
        check_rows(classical | (r > 1.0), "gain accumulator must exceed 1 for the log term",
                   r=r)
        check_rows(~(law > hyper.mu),
                   f"step-size law violated: mu_k*||g||^2 > mu = {hyper.mu}",
                   mu_k=mu_k, grad_norm_sq=grad_norm_sq)
        if not loss.in_domain(f_hat):
            row = next(i for i in range(len(f_hat)) if not loss.in_domain(f_hat[i]))
            raise DomainError(
                f"loss '{loss.name}' evaluated outside its domain ({loss.domain_desc}): "
                f"x={f_hat[row]} in row {row}"
            )
        check_rows(np.isfinite(slope), f"loss '{loss.name}' produced a non-finite derivative",
                   y=y, x=f_hat)
        check_rows(np.isfinite(theta_new), "parameter update produced non-finite entries",
                   phi=phi, theta=theta)
    return theta_new, r, carry, mu_k, grad_norm_sq, f_hat
