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

The sequential scans (``KahanScan``, ``RSScan``, ``MinPhaseScan``) carry
their state from one block of steps to the next, so a trace fed in
consecutive chunks gives the bits of the whole trace fed at once.  Each
walks its input in blocks of at most ``_BLOCK`` values, so no scan builds
a Python list as long as the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError
from .models import SquaredError

__all__ = [
    "RSReport",
    "KahanScan",
    "RSScan",
    "MinPhaseScan",
    "kahan_cumsum",
    "running_mean",
    "realized_noise",
    "gradient_norms_sq",
    "regret_sum",
    "tracking_error",
    "bound_curve",
    "bound_curve_at",
    "gradient_noise",
    "relative_error_metric",
    "robbins_siegmund_diag",
    "minimum_phase_ratio",
]


# values per Python list a scan builds; no longer than a run chunk
_BLOCK = 512


class KahanScan:
    """A compensated running sum carried from one block of values to the next.

    ``cumsum(values)`` continues the running sums over every value fed
    before; ``means(values)`` divides them by their 1-based positions.
    ``total`` and ``count`` are the sum and the number of values so far.
    """

    def __init__(self):
        self.total = self.carry = 0.0
        self.count = 0

    def cumsum(self, values):
        """The running sums at ``values``, bit for bit a left fold of ``core.kahan_add``.

        The step is ``kahan_add`` written out, zero skip included: a call
        per value would cost more than the step itself.
        """
        values = np.asarray(values, dtype=float)
        out = np.empty(len(values))
        total, carry = self.total, self.carry
        for start in range(0, len(values), _BLOCK):
            sums = []
            append = sums.append
            for v in values[start : start + _BLOCK].tolist():
                if v != 0.0:
                    y = v - carry
                    t = total + y
                    carry = (t - total) - y
                    total = t
                append(total)
            out[start : start + len(sums)] = sums
        self.total, self.carry = total, carry
        self.count += len(values)
        return out

    def means(self, values):
        """The running means at ``values``: each running sum over its step count."""
        first = self.count + 1
        return self.cumsum(values) / np.arange(first, first + len(values))


def kahan_cumsum(values):
    """Running sums with Kahan compensation, bit for bit a left fold of ``core.kahan_add``."""
    return KahanScan().cumsum(values)


def running_mean(values):
    """The compensated running mean: entry k is the mean of values[:k + 1]."""
    return KahanScan().means(values)


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
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return bound_curve_at(hyper, alpha_eps, np.arange(1, n + 1, dtype=float))


def bound_curve_at(hyper, alpha_eps, k):
    """``bound_curve`` at the step counts ``k`` only, value for value.

    Every operation is elementwise, so a checkpoint costs no n-long arrays.
    """
    if not (0.0 < alpha_eps < 1.0):
        raise ConfigurationError(f"alpha_eps must lie in (0,1), got {alpha_eps}")
    k = np.asarray(k, dtype=float)
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


class RSScan:
    """``robbins_siegmund_diag`` of an ``n``-step series fed in consecutive blocks."""

    def __init__(self, n):
        self.tail_start = n // 2
        self.all = KahanScan()
        # summed on its own: total minus the head sum would cancel a small tail away
        self.tail = KahanScan()

    def feed(self, mu, grad_norm_sq):
        """Add the next steps' parallel arrays of mu_k and squared gradient norms."""
        mu = np.asarray(mu, dtype=float)
        gns = np.asarray(grad_norm_sq, dtype=float)
        if mu.shape != gns.shape:
            raise ConfigurationError("mu and grad_norm_sq arrays must have equal shape")
        terms = mu**2 * gns
        self.tail.cumsum(terms[max(self.tail_start - self.all.count, 0) :])
        self.all.cumsum(terms)

    def report(self):
        total = self.all.total
        if total <= 0.0:
            return RSReport(total=total, tail_fraction=0.0, passed=True)
        frac = self.tail.total / total
        return RSReport(total=total, tail_fraction=frac, passed=frac < RS_TAIL_LIMIT)


def robbins_siegmund_diag(mu, grad_norm_sq):
    """Partial-sum tail check on mu_k^2 ||grad f_k||^2.

    Takes two parallel arrays (mu values, squared gradient norms); for a
    trace these are ``trace.mu_k`` and ``gradient_norms_sq(trace, beta3)``.
    A convergent series has almost all of its mass early, so the last-half
    share of the total must fall below RS_TAIL_LIMIT; a divergent schedule
    keeps accruing and fails.
    """
    scan = RSScan(len(np.asarray(mu)))
    scan.feed(mu, grad_norm_sq)
    return scan.report()


class MinPhaseScan:
    """``minimum_phase_ratio`` of a run fed in consecutive blocks of steps.

    Carries the weighted history and the previous input from block to block.
    """

    def __init__(self, lam=0.9):
        if not (0.0 < lam < 1.0):
            raise ConfigurationError(f"lam must lie in (0,1), got {lam}")
        self.lam = lam
        self.weighted = 0.0
        self.u_prev = None  # none before the first step

    def ratios(self, y, u, w):
        """The ratio at each of the next steps, from their y, u and noise w arrays."""
        out = np.empty(len(y))
        lam, weighted, u_prev = self.lam, self.weighted, self.u_prev
        for start in range(0, len(y), _BLOCK):
            part = slice(start, start + _BLOCK)
            vals = []
            append = vals.append
            for y_k, u_k, w_k in zip(y[part].tolist(), u[part].tolist(), w[part].tolist()):
                if u_prev is None:
                    append(0.0)
                else:
                    append(u_prev**2 / weighted if weighted > 0.0 else math.inf)
                weighted = lam * weighted + y_k**2 + w_k**2
                u_prev = u_k
            out[part] = vals
        self.weighted, self.u_prev = weighted, u_prev
        return out


def minimum_phase_ratio(trace, lam=0.9):
    """Monitor u_{k-1}^2 / sum_t lam^(k-t) (y_t^2 + w_t^2), reported not gated.

    The plant-class assumption bounds inputs by exponentially weighted past
    outputs and noises (w = y - f_true); the ratio staying bounded over a run
    is evidence the trajectory respects it.  First step has no previous
    input and reports 0.
    """
    scan = MinPhaseScan(lam)
    return scan.ratios(_column(trace, "y"), _column(trace, "u"), realized_noise(trace))
