"""Scalar diagnostics computed over run traces.

Everything here is pure post-processing of ``Trace`` columns into plain
arrays: per-step regret, tracking error against the reference, the
theoretical rate curve for overlays, the realized gradient-noise sequence,
the relative-error score used for streaming prediction, a minimum-phase
monitor, and a summability diagnostic for the step-size schedule.  Only persisted columns
are read, so a trace read back from CSV gives the same numbers as the one
in memory: the plant noise is taken as ``y - f_true`` and the squared
gradient norms as the increments of ``r_k``.  Running sums and means use
compensated summation so reruns are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError
from .models import SquaredError

__all__ = [
    "RSReport",
    "kahan_cumsum",
    "running_mean",
    "realized_noise",
    "gradient_norms_sq",
    "regret_sum",
    "tracking_error",
    "bound_curve",
    "gradient_noise",
    "relative_error_metric",
    "robbins_siegmund_diag",
    "minimum_phase_ratio",
]


def kahan_cumsum(values):
    """Running sums with Kahan compensation, matching the in-loop accumulator.

    The step is ``core.kahan_add`` written out, bit for bit, zero skip
    included: a call per value would cost more than the step itself.
    """
    out = []
    append = out.append
    total = carry = 0.0
    for v in np.asarray(values, dtype=float).tolist():
        if v != 0.0:
            y = v - carry
            t = total + y
            carry = (t - total) - y
            total = t
        append(total)
    return np.array(out, dtype=float)


def running_mean(values):
    """The compensated running mean: entry k is the mean of values[:k + 1]."""
    return kahan_cumsum(values) / np.arange(1, len(values) + 1)


def _column(trace, name):
    values = getattr(trace, name)
    if values is None:
        raise ConfigurationError(
            f"trace has no '{name}' column; this metric needs it recorded"
        )
    return np.asarray(values, dtype=float)


def realized_noise(trace):
    """The plant noise of each step, w = y - f_true (exact to one ulp)."""
    return _column(trace, "y") - _column(trace, "f_true")


def gradient_norms_sq(trace, beta3):
    """||g_k||^2 of each step as the increments of r_k, with r_{-1} = beta3."""
    return np.diff(_column(trace, "r_k"), prepend=beta3)


def regret_sum(trace, loss=None):
    """Per-step regret of the adaptive predictor against the optimal one.

    Each value is L(f_true, f_est) minus the loss floor L(f_true, f_true),
    so a perfect estimate scores zero for every loss (the floor is identically
    zero for squared error, which is the default).
    """
    if loss is None:
        loss = SquaredError()
    f_true = _column(trace, "f_true")
    f_est = _column(trace, "f_est")
    return loss.eval(f_true, f_est) - loss.eval(f_true, f_true)


def tracking_error(trace):
    """Squared gap to the reference, conditional-mean and noisy-proxy versions.

    Returns (conditional, proxy): the first uses f(phi_k, theta*) - y*, which
    is the quantity the rate theory bounds and is observable in simulation;
    the second uses the measured y_{k+1} - y*, the only version available on
    a real plant.  Both are per-step arrays; ``running_mean`` averages them.
    """
    y_star = _column(trace, "y_star")
    f_true = _column(trace, "f_true")
    y = _column(trace, "y")
    return (f_true - y_star) ** 2, (y - y_star) ** 2


def bound_curve(hyper, alpha_eps, n):
    """Reference decay curve log^b2(k)/k^(1-b1) + k^(eps-1) for k = 1..n.

    Scale-free: the theory's bound carries no constant, so this is for slope
    comparison and normalized overlays only.
    """
    if not (0.0 < alpha_eps < 1.0):
        raise ConfigurationError(f"alpha_eps must lie in (0,1), got {alpha_eps}")
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    k = np.arange(1, n + 1, dtype=float)
    logs = np.log(k)
    if hyper.beta2 == 0.0:
        log_factor = np.ones_like(k)
    else:
        log_factor = logs ** hyper.beta2
    return log_factor / k ** (1.0 - hyper.beta1) + k ** (alpha_eps - 1.0)


def gradient_noise(trace, pair):
    """Realized noise w_{k+1} = grad_x L(y, f_est) - grad_x L(f_true, f_est).

    Under squared error this collapses to -2 x (plant noise), which the bench
    layer checks per step as an end-to-end ledger identity.
    """
    y = _column(trace, "y")
    f_true = _column(trace, "f_true")
    f_est = _column(trace, "f_est")
    return pair.loss.grad_x(y, f_est) - pair.loss.grad_x(f_true, f_est)


def relative_error_metric(predictions, targets):
    """(1/T) sum |y - yhat| / y over strictly positive targets."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ConfigurationError(
            f"predictions shape {predictions.shape} != targets shape {targets.shape}"
        )
    if predictions.size == 0:
        raise ConfigurationError("relative_error_metric needs at least one sample")
    bad = np.flatnonzero(~(targets > 0.0))
    if bad.size:
        raise DataError(
            f"target must be strictly positive, got {float(targets[bad[0]])!r} at row {bad[0]}"
        )
    return float(np.mean(np.abs(targets - predictions) / targets))


@dataclass(frozen=True)
class RSReport:
    """Summability diagnostic for sum of mu_k^2 ||grad f||^2."""

    total: float
    tail_fraction: float
    passed: bool

    def summary(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"sum mu_k^2 |grad|^2 = {self.total:.6g}, last-half share "
            f"{self.tail_fraction:.4f} -> {verdict}"
        )


RS_TAIL_LIMIT = 0.05


def robbins_siegmund_diag(mu, grad_norm_sq):
    """Partial-sum tail check on mu_k^2 ||grad f_k||^2.

    Takes two parallel arrays (mu values, squared gradient norms); for a
    trace these are ``trace.mu_k`` and ``gradient_norms_sq(trace, beta3)``.
    A convergent series has almost all of its mass early, so the last-half
    share of the total must fall below RS_TAIL_LIMIT; a divergent schedule
    keeps accruing and fails.
    """
    mu = np.asarray(mu, dtype=float)
    gns = np.asarray(grad_norm_sq, dtype=float)
    if mu.shape != gns.shape:
        raise ConfigurationError("mu and grad_norm_sq arrays must have equal shape")
    terms = mu**2 * gns
    cum = kahan_cumsum(terms)
    total = float(cum[-1]) if len(cum) else 0.0
    if total <= 0.0:
        return RSReport(total=total, tail_fraction=0.0, passed=True)
    # summed on its own: total minus the head sum would cancel a small tail away
    tail = float(kahan_cumsum(terms[len(terms) // 2 :])[-1])
    frac = tail / total
    return RSReport(total=total, tail_fraction=frac, passed=frac < RS_TAIL_LIMIT)


def minimum_phase_ratio(trace, lam=0.9):
    """Monitor u_{k-1}^2 / sum_t lam^(k-t) (y_t^2 + w_t^2), reported not gated.

    The plant-class assumption bounds inputs by exponentially weighted past
    outputs and noises (w = y - f_true); the ratio staying bounded over a run
    is evidence the trajectory respects it.  First step has no previous
    input and reports 0.
    """
    if not (0.0 < lam < 1.0):
        raise ConfigurationError(f"lam must lie in (0,1), got {lam}")
    y = _column(trace, "y").tolist()
    u = _column(trace, "u").tolist()
    w = realized_noise(trace).tolist()
    vals = [0.0] * len(y)
    weighted = 0.0
    for k in range(len(y) - 1):
        weighted = lam * weighted + y[k] ** 2 + w[k] ** 2
        vals[k + 1] = u[k] ** 2 / weighted if weighted > 0.0 else math.inf
    return np.array(vals, dtype=float)
