"""Scalar diagnostics computed over run traces.

Everything here is pure post-processing of ``Trace`` columns into plain
arrays: per-step regret, tracking error against the reference, the
theoretical rate curve for overlays, the realized gradient-noise sequence,
the relative-error score used for streaming prediction, a minimum-phase
monitor, and a summability diagnostic for the step-size schedule.  Only persisted columns
are read, so a trace read back from CSV gives the same numbers as the one
in memory: the plant noise is taken as ``y - f_true`` and the squared
gradient norms as the increments of ``r_k``.

The sequential scans (``SumScan``, ``RSScan``, ``MinPhaseScan``) work on
whole arrays and carry their state from one block of steps to the next,
so a trace fed in consecutive chunks gives the bits of the whole trace fed
at once.  Each takes either one series, a 1-D array, or S series side by
side, an (m, S) array whose column i is series i: every column is
computed with the operations, in the order, of that column fed alone.
Running sums and means are cascaded compensated sums: a left fold of the
values plus a left fold of each addition's TwoSum error.  The
minimum-phase recursion is solved 32 steps at a time against a
lower-triangular matrix of powers of ``lam``.  Each scan walks its input
in pieces of ``_BLOCK`` steps, or of up to ``_VALUES`` values where that
is more steps (few series), so its temporaries stay chunk-sized.
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
    "RSScan",
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
    "relative_error_metric",
    "robbins_siegmund_diag",
    "minimum_phase_ratio",
]


# steps per piece a scan works on at once; no longer than a run chunk
_BLOCK = 512
# a scan of few series takes pieces of up to this many values
_VALUES = 8 * _BLOCK


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
        out = np.empty(values.shape)
        raw, error = (np.broadcast_to(carry, values.shape[1:]) for carry in (self.raw, self.error))
        steps = max(_BLOCK, _VALUES // max(math.prod(values.shape[1:]), 1))
        for start in range(0, len(values), steps):
            v = values[start : start + steps]
            sums = np.add.accumulate(np.concatenate((raw[None], v)))
            prev, new = sums[:-1], sums[1:]
            part = new - prev
            errors = np.add.accumulate(np.concatenate((error[None], (prev - (new - part)) + (v - part))))
            out[start : start + len(v)] = new + errors[1:]
            raw, error = new[-1], errors[-1]
        if values.ndim == 1:
            raw, error = float(raw), float(error)
        self.raw, self.error, self.total = raw, error, raw + error
        self.count += len(values)
        return out

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
    """``robbins_siegmund_diag`` of an ``n``-step series fed in consecutive blocks.

    Fed S series side by side as (m, S) blocks, ``report(i)`` is series i's.
    """

    def __init__(self, n):
        self.tail_start = n // 2
        self.all = SumScan()
        # summed on its own: total minus the head sum would cancel a small tail away
        self.tail = SumScan()

    def feed(self, mu, grad_norm_sq):
        """Add the next steps' parallel arrays of mu_k and squared gradient norms."""
        mu = np.asarray(mu, dtype=float)
        gns = np.asarray(grad_norm_sq, dtype=float)
        if mu.shape != gns.shape:
            raise ConfigurationError("mu and grad_norm_sq arrays must have equal shape")
        terms = mu**2 * gns
        self.tail.cumsum(terms[max(self.tail_start - self.all.count, 0) :])
        self.all.cumsum(terms)

    def report(self, i=()):
        total, tail = (float(np.asarray(scan.total)[i]) for scan in (self.all, self.tail))
        if total <= 0.0:
            return RSReport(total=total, tail_fraction=0.0, passed=True)
        frac = tail / total
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


# steps per block of the min-phase recursion, aligned to the absolute step index
_SPAN = 32


class MinPhaseScan:
    """``minimum_phase_ratio`` of a run fed in consecutive blocks of steps.

    The weighted history W_k = lam W_{k-1} + y_k^2 + w_k^2 is computed a
    block of ``_SPAN`` steps at a time: W_j = lam^(j+1) W_before + S_j, where
    S_j = sum_{i<=j} lam^(j-i) x_i is one product with the lower-triangular
    ``T[j, i] = lam^(j-i)`` and one ``np.add.reduce`` over its contiguous
    last axis (no BLAS, so no thread-count dependence).  A block a feed cuts
    short is padded with zeros, which the zeros of T keep out of every row
    already fed (the squares must be finite); W before that block, its
    values so far and the last input carry to the next feed, so any cut
    gives the same bits.  S series fed side by side as (m, S) blocks take
    the product ``_BLOCK // S`` steps at a time (whole blocks, at least
    one), so it stays about ``_BLOCK`` x ``_SPAN`` values.
    """

    def __init__(self, lam=0.9):
        if not (0.0 < lam < 1.0):
            raise ConfigurationError(f"lam must lie in (0,1), got {lam}")
        lags = np.subtract.outer(np.arange(_SPAN), np.arange(_SPAN))
        self.kernel = np.where(lags >= 0, lam ** np.maximum(lags, 0.0), 0.0)
        self.decay = lam ** np.arange(1.0, _SPAN + 1.0)
        self.before = 0.0  # W before the open block, the last W when it is empty
        self.open = None  # y^2 + w^2 of the open block's steps so far, (steps, S)
        self.u_prev = None  # none before the first step

    def ratios(self, y, u, w):
        """The ratio at each of the next steps, from their y, u and noise w arrays.

        The arrays are 1-D, or (m, S) for S series side by side.
        """
        shape = np.shape(y)
        cells = shape[1] if len(shape) > 1 else 1
        y, u, w = (np.reshape(a, (len(a), cells)) for a in (y, u, w))
        pending = np.empty((0, cells)) if self.open is None else self.open
        fed = len(pending)
        x = np.concatenate((pending, y**2 + w**2))
        # the steps from the open block on, as whole blocks of each series
        blocks = np.zeros((cells, -len(x) // _SPAN * -_SPAN))
        blocks[:, : len(x)] = x.T
        blocks = blocks.reshape(cells, -1, _SPAN)
        # weighted[:, i + 1] is W after x[i]; weighted[:, 0] is W before x[0]
        weighted = np.empty((cells, blocks.size // cells + 1))
        weighted[:, 0] = self.before
        group = max(1, _BLOCK // (_SPAN * cells))  # blocks per product, (cells, group, 32, 32)
        top = float(self.decay[-1])
        for first in range(0, blocks.shape[1], group):
            # each row's sum runs over a contiguous axis: (cells, group, 1, 32) against T
            sums = np.add.reduce(self.kernel * blocks[:, first : first + group, None], axis=3)
            # W before each block of the group, carried from block to block
            carried = [weighted[:, first * _SPAN].tolist()]
            for last in sums[:, :-1, -1].T.tolist():
                carried.append([top * before + tail for before, tail in zip(carried[-1], last)])
            weighted[:, first * _SPAN + 1 : (first + len(carried)) * _SPAN + 1] = (
                self.decay * np.array(carried).T[:, :, None] + sums).reshape(cells, -1)
        u_before = 0.0 if self.u_prev is None else self.u_prev
        prev_u = np.concatenate((np.broadcast_to(u_before, (1, cells)), u[:-1]))
        prev_w = weighted[:, fed : len(x)].T
        ratio = np.full(prev_w.shape, math.inf)
        np.divide(prev_u**2, prev_w, out=ratio, where=prev_w > 0.0)
        if self.u_prev is None and len(ratio):
            ratio[0] = 0.0
        opened = len(x) - len(x) % _SPAN
        self.before, self.open = weighted[:, opened], x[opened:]
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
