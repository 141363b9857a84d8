"""Scalar diagnostics computed over run traces.

Everything here is pure post-processing of ``Trace`` columns into plain
arrays: per-step regret, tracking error against the reference, the
theoretical rate curve for overlays, the realized gradient-noise sequence,
the relative-error score used for streaming prediction, a minimum-phase
monitor, and a summability diagnostic for the step-size schedule.  Only
persisted columns are read, so a trace read back from CSV gives the same
numbers as the one in memory: the plant noise is taken as ``y - f_true``
and the squared gradient norms as the increments of ``r_k``.

The sequential scans (``SumScan``, ``MinPhaseScan``) carry
their state from one feed of steps to the next, so a trace fed in
consecutive chunks gives the bits of the whole trace fed at once.  Each
takes either one series, a 1-D array, or S series side by side, an (m, S)
array whose column i is series i: every column is computed with the
operations, in the order, of that column fed alone.  Running sums and
means are cascaded compensated sums over whole arrays: a left fold of the
values plus a left fold of each addition's TwoSum error.  The
minimum-phase recursion W = lam W + y^2 + w^2 runs step by step in Python
floats, one carried W per series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError
from .models import SquaredError

__all__ = [
    "RSReport",
    "SumScan",
    "MinPhaseScan",
    "compensated_cumsum",
    "running_mean",
    "realized_noise",
    "gradient_norms_sq",
    "regret_sum",
    "tracking_error",
    "bound_curve",
    "bound_curve_at",
    "gradient_noise",
    "relative_errors",
    "relative_error_metric",
    "robbins_siegmund_diag",
    "minimum_phase_ratio",
]


class SumScan:
    """Compensated running sums carried from one block of values to the next.

    ``cumsum(values)`` continues the running sums over every value fed
    before, down axis 0 of a 1-D series or of S series side by side, (m, S);
    ``means(values)`` divides them by their 1-based positions.  ``total``
    and ``count`` are the sum (a float, or an (S,) array) and the number of
    steps so far.  The carry is the pair (raw left-fold sum, left-fold sum
    of its errors).
    """

    def __init__(self):
        self.total = self.raw = self.error = 0.0
        self.count = 0

    def cumsum(self, values):
        """The running sums at ``values``: each raw prefix sum plus the sum of its errors.

        ``np.add.accumulate`` folds left in C, from the carried raw sum; the
        error of each addition is its TwoSum residual (Ogita, Rump & Oishi
        2005), folded from the carried error.  Any cut of the input into
        calls gives the same bits, and a zero value moves nothing.
        """
        values = np.asarray(values, dtype=float)
        raw, error = (np.broadcast_to(carry, (1, *values.shape[1:]))
                      for carry in (self.raw, self.error))
        sums = np.add.accumulate(np.concatenate((raw, values)))
        prev, new = sums[:-1], sums[1:]
        part = new - prev
        twosum = (prev - (new - part)) + (values - part)
        errors = np.add.accumulate(np.concatenate((error, twosum)))
        raw, error = sums[-1].copy(), errors[-1].copy()  # not views that hold the feed's sums
        if values.ndim == 1:
            raw, error = float(raw), float(error)
        self.raw, self.error, self.total = raw, error, raw + error
        self.count += len(values)
        return new + errors[1:]

    def means(self, values):
        """The running means at ``values``: each running sum over its step count."""
        first = self.count + 1
        sums = self.cumsum(values)
        steps = np.arange(first, first + len(sums), dtype=float)
        return sums / steps.reshape((-1,) + (1,) * (sums.ndim - 1))


def compensated_cumsum(values):
    """Running sums, each its raw prefix sum plus the prefix sum of the TwoSum errors."""
    return SumScan().cumsum(values)


def running_mean(values):
    """The compensated running mean: entry k is the mean of values[:k + 1]."""
    return SumScan().means(values)


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
    """||g_k||^2 of each step as the increments of r_k down axis 0, with r_{-1} = beta3.

    ``beta3`` is a float, or one r_{-1} per column of an (m, S) ``r_k``.
    """
    r_k = _column(trace, "r_k")
    return np.diff(r_k, axis=0, prepend=np.broadcast_to(beta3, (1, *r_k.shape[1:])))


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


def relative_errors(predictions, targets):
    """|y - yhat| / y of each step."""
    return np.abs(targets - predictions) / targets


def relative_error_metric(predictions, targets):
    """(1/T) sum |y - yhat| / y over strictly positive targets.

    The sum is the compensated running sum of ``SumScan``, which a run's
    summary carries over ``relative_errors`` from chunk to chunk.
    """
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
    return float(SumScan().cumsum(relative_errors(predictions, targets).ravel())[-1] / targets.size)


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
    keeps accruing and fails.  The terms from step n // 2 on are summed on
    their own: the total minus the head sum would cancel a small tail away.
    """
    mu = np.asarray(mu, dtype=float)
    gns = np.asarray(grad_norm_sq, dtype=float)
    if mu.shape != gns.shape:
        raise ConfigurationError("mu and grad_norm_sq arrays must have equal shape")
    terms = mu**2 * gns
    whole, tail = SumScan(), SumScan()
    whole.cumsum(terms)
    tail.cumsum(terms[len(terms) // 2 :])
    total = float(whole.total)
    frac = 0.0 if total <= 0.0 else float(tail.total) / total
    return RSReport(total=total, tail_fraction=frac, passed=frac < RS_TAIL_LIMIT)


class MinPhaseScan:
    """``minimum_phase_ratio`` of a run fed in consecutive blocks of steps.

    Each series carries its weighted history W_k = lam W_{k-1} + y_k^2 +
    w_k^2 as one Python float, and its last input, from feed to feed, so
    any cut gives the same bits.  S series fed side by side as (m, S)
    blocks carry one W each.
    """

    def __init__(self, lam=0.9):
        if not (0.0 < lam < 1.0):
            raise ConfigurationError(f"lam must lie in (0,1), got {lam}")
        self.lam = lam
        self.weighted = None  # W after the last step, one per series
        self.u_prev = None  # none before the first step

    def ratios(self, y, u, w):
        """The ratio at each of the next steps, from their y, u and noise w arrays.

        The arrays are 1-D, or (m, S) for S series side by side.
        """
        shape = np.shape(y)
        cells = shape[1] if len(shape) > 1 else 1
        y, u, w = (np.reshape(a, (len(a), cells)) for a in (y, u, w))
        lam, history = self.lam, []
        for W, column in zip(self.weighted or [0.0] * cells, (y**2 + w**2).T.tolist()):
            weighted = [W]
            for x in column:
                W = lam * W + x
                weighted.append(W)
            history.append(weighted)
        # row i is each series' W before step i; the last row is W after the last step
        history = np.array(history).T
        prev_w, self.weighted = history[:-1], history[-1].tolist()
        u_before = 0.0 if self.u_prev is None else self.u_prev
        prev_u = np.concatenate((np.broadcast_to(u_before, (1, cells)), u[:-1]))
        ratio = np.full(prev_w.shape, math.inf)
        np.divide(prev_u**2, prev_w, out=ratio, where=prev_w > 0.0)
        if self.u_prev is None and len(ratio):
            ratio[0] = 0.0
        if len(y):
            self.u_prev = u[-1]
        return ratio.reshape(shape)


def minimum_phase_ratio(trace, lam=0.9):
    """Monitor u_{k-1}^2 / sum_t lam^(k-t) (y_t^2 + w_t^2), reported not gated.

    The plant-class assumption bounds inputs by exponentially weighted past
    outputs and noises (w = y - f_true); the ratio staying bounded over a run
    is evidence the trajectory respects it.  First step has no previous
    input and reports 0.
    """
    scan = MinPhaseScan(lam)
    return scan.ratios(_column(trace, "y"), _column(trace, "u"), realized_noise(trace))
