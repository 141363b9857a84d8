"""Core value types and the predictor/loss contracts.

Everything downstream (the estimator, the controller, the bench) speaks in
terms of the small immutable types defined here: parameter vectors,
regressors, the scalar gain accumulator, hyperparameters, and a
predictor/loss pairing with optional weak-convexity constants.

Conventions fixed once here:

* logarithms in the gain denominator are natural logs,
* the gain accumulator starts at ``beta3 > 1`` so ``log r`` stays positive,
* the estimator's gain accumulator ``r_k`` uses compensated (Kahan)
  summation, one step at a time (``kahan_add``, ``kahan_add_rows``), so a
  replayed trace reproduces it bit for bit; the running sums of trace
  metrics are computed on whole arrays in ``metrics.SumScan``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError

__all__ = [
    "ParameterVector",
    "Regressor",
    "GainState",
    "HyperParams",
    "ModelLossPair",
    "PredictorModel",
    "LinkRegressionModel",
    "LossFunction",
    "check_step_size_cap",
    "kahan_add",
    "kahan_add_rows",
    "row_dots",
    "check_rows",
]


def _frozen_vector(values, what):
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1 or arr.size < 1:
        raise ConfigurationError(f"{what} must be a non-empty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{what} must have finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ParameterVector:
    """A parameter point, finite by construction."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_vector(self.values, "parameter vector"))

    @property
    def dim(self):
        return int(self.values.size)


# kept because perfbench/tracer.py patches its __init__
@dataclass(frozen=True)
class Regressor:
    """An information vector phi_k, finite by construction."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_vector(self.values, "regressor"))


def as_values(x, what="vector"):
    """Accept a ParameterVector/Regressor or array-like; return a validated ndarray."""
    if isinstance(x, (ParameterVector, Regressor)):
        return x.values
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ConfigurationError(f"{what} must be a non-empty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{what} must have finite entries")
    return arr


# stays scalar, as do GainState.advanced and mu_schedule: criterion 7 makes 300,000 calls in < 2 s
def kahan_add(total, carry, increment):
    """One compensated-summation step; returns the new (total, carry).

    A zero increment is returned unchanged so idle steps cannot perturb the
    accumulator by a rounding ulp.
    """
    if increment == 0.0:
        return total, carry
    y = increment - carry
    t = total + y
    carry = (t - total) - y
    return t, carry


def kahan_add_rows(total, carry, increment):
    """``kahan_add`` on (S,) arrays, row by row; returns new (total, carry) arrays.

    Each row is bit-identical to the scalar step, including the skip of a
    zero increment.
    """
    y = increment - carry
    t = total + y
    new_carry = (t - total) - y
    if 0.0 in increment.tolist():  # by ==, as the mask: -0.0 is idle, nan is not
        idle = increment == 0.0
        t[idle] = total[idle]
        new_carry[idle] = carry[idle]
    return t, new_carry


def row_dots(a, b):
    """Dot product of each row (last axis) of ``a`` with the same row of ``b``.

    Every batched dot product goes through here, so it has one summation
    order: equal rows give bit-equal results, however the rows are stacked.
    """
    return np.add.reduce(a * b, axis=-1)


def check_rows(ok, message, **values):
    """Raise NumericError naming the first row where ``ok`` is not all True.

    ``ok`` is a boolean (S,) or (S, d) array.  The context holds the row
    index under "row" and that row of each array in ``values``.
    """
    # a Python scan of a few rows is cheaper than the ndarray.all dispatch
    if all(ok.ravel().tolist()):
        return
    row = int(np.flatnonzero(~ok.reshape(len(ok), -1).all(axis=1))[0])
    context = {"row": row, **{name: v[row] for name, v in values.items()}}
    raise NumericError(message, context=context)


@dataclass(frozen=True)
class GainState:
    """The running denominator accumulator r_k = beta3 + sum of squared gradient norms.

    ``r`` is the compensated running total; ``k`` counts completed steps.
    Advancing is a pure transition so estimator states stay value-like.
    """

    r: float
    k: int = 0
    carry: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.r) or self.r <= 0:
            raise ConfigurationError(f"gain accumulator must be finite and positive, got {self.r}")
        if self.k < 0:
            raise ConfigurationError("step index must be >= 0")

    def advanced(self, grad_norm_sq):
        if grad_norm_sq < 0 or not math.isfinite(grad_norm_sq):
            raise NumericError(f"squared gradient norm must be finite and >= 0, got {grad_norm_sq}")
        total, carry = kahan_add(self.r, self.carry, grad_norm_sq)
        return GainState(r=total, k=self.k + 1, carry=carry)


_REGIME_HINT = (
    "step-size exponents must satisfy beta1 == 1/2 with beta2 > 1/2, or "
    "1/2 < beta1 <= 1 with beta2 == 0; set outside_theorem_regime=True to "
    "run other combinations deliberately"
)


@dataclass(frozen=True)
class HyperParams:
    """Step-size law constants.

    mu must lie in (0, 1); when the model/loss pair declares weak-convexity
    constants the tighter cap mu < 2*delta/c1 is enforced at wiring time by
    ``check_step_size_cap``.  alpha_moment annotates the assumed noise moment
    (> 2) and is carried into reports, nothing else.
    """

    mu: float
    beta1: float
    beta2: float
    beta3: float
    alpha_moment: float = 4.0
    outside_theorem_regime: bool = False

    def __post_init__(self):
        if not (0.0 < self.mu < 1.0):
            raise ConfigurationError(f"mu must lie in (0, 1), got {self.mu}")
        if not (0.5 <= self.beta1 <= 1.0):
            raise ConfigurationError(f"beta1 must lie in [1/2, 1], got {self.beta1}")
        if self.beta2 < 0.0:
            raise ConfigurationError(f"beta2 must be >= 0, got {self.beta2}")
        if not (self.beta3 > 1.0):
            raise ConfigurationError(f"beta3 must be > 1 so log(r) stays positive, got {self.beta3}")
        if self.alpha_moment <= 2.0:
            raise ConfigurationError(f"alpha_moment must be > 2, got {self.alpha_moment}")
        if not self.outside_theorem_regime and not self.in_theorem_regime():
            raise ConfigurationError(
                f"beta1={self.beta1}, beta2={self.beta2}: {_REGIME_HINT}"
            )
        # 0-d copies for the array step: numpy raises an array to a 0-d
        # exponent, or divides a 0-d by it, faster than with a Python float
        for name in ("mu", "beta1", "beta2"):
            object.__setattr__(self, f"_{name}", np.array(getattr(self, name), dtype=np.float64))

    def in_theorem_regime(self):
        if self.beta1 == 0.5 and self.beta2 > 0.5:
            return True
        if 0.5 < self.beta1 <= 1.0 and self.beta2 == 0.0:
            return True
        return False


class LinkRegressionModel:
    """The predictor contract: f(phi, theta) = link(phi . theta).

    Implementations expose ``dim``, ``name`` and vectorised ``link``/
    ``dlink``; that single structure covers the whole catalog and gives the
    estimator, the controller and the assumption verifier their array
    paths.  Nothing here validates its inputs (they are validated where they
    enter: config load, ``sg_init``, CSV ingestion).  ``link_slope`` returns
    both at once; a subclass whose two share work overrides it, with
    results bit-equal to the separate calls.  A subclass whose link has a
    closed-form inverse also defines scalar ``link_inv(y)``, returning None
    when y lies outside the link's open range; the controller then inverts
    directly.  ``growth_bound`` returns the declared (K1, K2) of the
    linear-growth envelope ||grad f|| <= K1 + K2 ||phi|| when the model
    declares one.  The scalar ``eval`` and theta-gradient ``grad`` follow
    from the link.
    """

    dim: int
    name: str = "predictor"

    def link(self, z):  # pragma: no cover - interface
        raise NotImplementedError

    def dlink(self, z):  # pragma: no cover - interface
        raise NotImplementedError

    def link_slope(self, z):
        """``(link(z), dlink(z))``."""
        return self.link(z), self.dlink(z)

    # the scalar eval and grad stay because acceptance criterion 1 checks them
    def eval(self, phi, theta):
        return float(self.link(float(np.dot(phi, theta))))

    def grad(self, phi, theta):
        return float(self.dlink(float(np.dot(phi, theta)))) * np.asarray(phi, dtype=float)

    def growth_bound(self):
        return None


# the former name of the contract, kept because perfbench/tracer.py reads it
PredictorModel = LinkRegressionModel


class LossFunction:
    """Contract for a scalar loss L(y, x) differentiated in its second slot.

    ``eval``/``grad_x`` must accept scalars or ndarrays elementwise.
    ``in_domain`` is an explicit predicate so losses with restricted domains
    reject bad predictor outputs deterministically instead of emitting NaN.
    """

    name: str = "loss"
    domain_desc: str = "all reals"

    def eval(self, y, x):  # pragma: no cover - interface
        raise NotImplementedError

    def grad_x(self, y, x):  # pragma: no cover - interface
        raise NotImplementedError

    def in_domain(self, x):
        return np.all(np.isfinite(x))


@dataclass(frozen=True)
class ModelLossPair:
    """A predictor bound to a loss, with optional weak-convexity constants.

    delta, c1, c2 describe the curvature/gradient-growth envelope on the
    pair's declared operating set; they stay None when nobody has verified
    them, and the step-size cap check then degrades to a warning.
    """

    predictor: LinkRegressionModel
    loss: LossFunction
    delta: float | None = None
    c1: float | None = None
    c2: float | None = None
    operating_note: str = ""

    def __post_init__(self):
        if self.delta is not None and not (self.delta > 0):
            raise ConfigurationError(f"delta must be > 0 when declared, got {self.delta}")
        if self.c1 is not None and not (self.c1 > 0):
            raise ConfigurationError(f"c1 must be > 0 when declared, got {self.c1}")
        if self.c2 is not None and self.c2 < 0:
            raise ConfigurationError(f"c2 must be >= 0 when declared, got {self.c2}")

    def declares_constants(self):
        return self.delta is not None and self.c1 is not None

    def mu_cap(self):
        if not self.declares_constants():
            return 1.0
        return min(1.0, 2.0 * self.delta / self.c1)


def check_step_size_cap(hyper, pair):
    """Enforce mu < min(1, 2*delta/c1) when constants are declared.

    Returns the effective cap.  Pairs without declared constants trigger a
    warning (the caller decides how to surface it) by returning None.
    """
    if not pair.declares_constants():
        return None
    cap = pair.mu_cap()
    if not (hyper.mu < cap):
        raise ConfigurationError(
            f"mu={hyper.mu} violates the step-size cap min(1, 2*delta/c1)="
            f"{cap:.6g} declared by pair "
            f"({pair.predictor.name} + {pair.loss.name})"
        )
    return cap
