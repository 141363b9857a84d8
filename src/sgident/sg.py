"""The stochastic-gradient estimator: modified gain law and the classical baseline.

One step consumes (phi_k, y_{k+1}) and advances the estimate:

    g_k      = grad_theta f(phi_k, theta_k)
    r_k      = r_{k-1} + ||g_k||^2          (r starts at beta3 > 1)
    mu_k     = mu / (r_k^beta1 * ln(r_k)^beta2 + ||g_k||^2)     [modified]
    mu_k     = mu / r_k                                          [classical]
    theta_k1 = theta_k - mu_k * g_k * dL/dx(y_{k+1}, f(phi_k, theta_k))

The accumulator is advanced with the current squared gradient norm before the
gain is formed, so the denominator reads the up-to-date total and the explicit
``||g_k||^2`` term adds the extra damping that keeps a single update bounded:
``mu_k * ||g_k||^2 <= mu`` holds on every step and is checked with the rest
of the step's results.

No projection is applied anywhere; a runaway estimate is flagged, not clamped.

``sg_update`` is the one step: it runs on S stacked rows of plain arrays,
each row with its own gain law, and every run mode steps its rows through it.
Its results are tested by ``steps_pass``, which takes any number of leading
step axes: ``sg_update`` tests its one step, and a run loop, which steps
with ``sg_update_unguarded``, tests a whole chunk of steps at once and walks
the chunk again through ``sg_update`` only when that test fails.
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
    row_dots,
)
from .errors import ConfigurationError, DomainError, NumericError

__all__ = [
    "EstimatorState",
    "DIVERGENCE_NORM",
    "sg_init",
    "sg_update",
    "mu_schedule",
]

# an estimate beyond this norm is flagged as divergent by the run loops
DIVERGENCE_NORM = 1e6


# the batch's start, kept as a class because perfbench/tracer.py patches its __init__
@dataclass(frozen=True)
class EstimatorState:
    """The estimator's start: estimate, gain accumulator and step-size law."""

    theta: ParameterVector
    gain: GainState
    hyper: HyperParams


def sg_init(theta0, hyper: HyperParams) -> EstimatorState:
    """Build the step-0 state: theta = theta0, r = beta3, k = 0."""
    if not isinstance(hyper, HyperParams):
        raise ConfigurationError("hyper must be a HyperParams instance")
    theta = ParameterVector(as_values(theta0, "theta0"))
    return EstimatorState(theta=theta, gain=GainState(r=hyper.beta3, k=0), hyper=hyper)


# stays scalar: acceptance criterion 7 calls it 300,000 times under a 2 s budget
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


def sg_update(theta, r, carry, phi, y, pair, hyper, classical=False, out=None):
    """One estimator step on S stacked rows.

    ``theta`` and ``phi`` are (S, d) arrays; ``r``, ``carry`` (the Kahan
    total and compensation of each row's accumulator) and ``y`` are (S,).
    ``classical`` is a bool or an (S,) bool mask: a classical row takes
    mu_k = mu / r_k, every other row the modified law.  Returns new arrays
    (theta, r, carry, mu_k, grad_norm_sq, f_hat), where f_hat is each row's
    prediction before the update; the new theta is written into ``out``
    when given, an (S, d) array other than ``theta``.  The link and slope
    come from one ``link_slope`` call.

    The whole step is computed first and then tested by ``steps_pass``, the
    test a run loop makes once per chunk of steps.  Only when that fails
    are the step's checks walked in order over the arrays already computed:
    finite observation, prediction and gradient, ``r > 1`` on modified rows,
    the safety law, the loss domain, finite slope and update.  The first
    failed check raises NumericError (DomainError for the loss domain) with
    the first bad row in context["row"].  Floating-point warnings stay
    silent, because every result is checked.
    """
    loss = pair.loss
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = sg_update_unguarded(theta, r, carry, phi, y, pair, hyper, classical, out)
        theta_new, r, _, mu_k, grad_norm_sq, f_hat = step
        if steps_pass(theta_new, r, mu_k, grad_norm_sq, f_hat, y, loss, hyper, classical):
            return step
        check_rows(np.isfinite(y), "observation must be finite", y=y)
        check_rows(np.isfinite(f_hat), "predictor output non-finite", phi=phi, theta=theta)
        check_rows(np.isfinite(grad_norm_sq), "predictor gradient non-finite",
                   phi=phi, theta=theta)
        check_rows(classical | (r > 1.0), "gain accumulator must exceed 1 for the log term",
                   r=r)
        check_rows(~(mu_k * grad_norm_sq > hyper.mu),
                   f"step-size law violated: mu_k*||g||^2 > mu = {hyper.mu}",
                   mu_k=mu_k, grad_norm_sq=grad_norm_sq)
        if not loss.in_domain(f_hat):
            row = next(i for i in range(len(f_hat)) if not loss.in_domain(f_hat[i]))
            raise DomainError(
                f"loss '{loss.name}' evaluated outside its domain ({loss.domain_desc}): "
                f"x={f_hat[row]} in row {row}",
                context={"row": row, "x": f_hat[row]},
            )
        check_rows(np.isfinite(loss.grad_x(y, f_hat)),
                   f"loss '{loss.name}' produced a non-finite derivative", y=y, x=f_hat)
        check_rows(np.isfinite(theta_new), "parameter update produced non-finite entries",
                   phi=phi, theta=theta)
    return step


def sg_update_unguarded(theta, r, carry, phi, y, pair, hyper, classical=False, out=None):
    """``sg_update``'s recursion alone, inside the caller's ``np.errstate``.

    Nothing is tested: a run loop calls it on every step and tests a whole
    chunk of its results at once with ``steps_pass``.
    """
    model, loss = pair.predictor, pair.loss
    f_hat, dlink = model.link_slope(row_dots(phi, theta))
    g = dlink[:, None] * phi
    grad_norm_sq = row_dots(g, g)
    r, carry = kahan_add_rows(r, carry, grad_norm_sq)
    denom = r**hyper.beta1
    if hyper.beta2 != 0.0:
        denom = denom * np.log(r) ** hyper.beta2
    denom = denom + grad_norm_sq
    np.copyto(denom, r, where=classical)  # a classical row's gain is mu / r_k
    mu_k = hyper.mu / denom
    slope = loss.grad_x(y, f_hat)
    theta_new = np.subtract(theta, (mu_k * slope)[:, None] * g, out=out)
    return theta_new, r, carry, mu_k, grad_norm_sq, f_hat


def steps_pass(theta_new, r, mu_k, grad_norm_sq, f_hat, y, loss, hyper, classical=False):
    """True when the results of ``sg_update`` pass every check of its walk, on every row.

    The arguments are the step's results and observation with any leading
    step axes: (S,) and (S, d) for one step, (m, S) and (m, S, d) for a
    chunk of m steps.  The slope dL/dx is recomputed from ``y`` and
    ``f_hat``; it is elementwise, so it has the bits the step used.
    """
    # A sum is finite only when every term is, and total - total is 0 then and
    # nan otherwise, which fails the law's comparison, as a non-finite
    # gradient norm does through the law itself: the test passes only when
    # every check of the walk would.  An overflowing sum of finite terms
    # merely fails the test, and the walk then passes it.  The default loss
    # domain is finiteness, covered here.
    total = np.add.reduce(theta_new, axis=-1) + y + f_hat + loss.grad_x(y, f_hat)
    ok = (total - total + mu_k * grad_norm_sq <= hyper.mu) & ((r > 1.0) | classical)
    if not ok.all():
        return False
    return type(loss).in_domain is LossFunction.in_domain or bool(loss.in_domain(f_hat))

