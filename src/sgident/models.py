"""Model/loss catalog: predictors, losses, pairings and the weak-convexity verifier.

The catalog covers four link-regression predictors (linear, tanh lag model,
logistic, censored-Gaussian conditional mean), a Kronecker quartic feature
lift, and three losses (squared error, binary cross-entropy, squared hinge on
a sign margin).  Each pairing declares curvature constants (delta, c1, c2)
valid on its documented operating set; ``verify_assumption2`` checks the two
inequalities those constants promise:

    grad J(theta) . (theta - theta*)            >= delta * J(theta)
    (dL/dx(f(phi,theta*), f(phi,theta)))^2      <= c1 * J(theta) + c2

with J(theta) = L(f*, f) - L(f*, f*), i.e. the loss above its floor (the
floor is zero for the distance-like losses and the self-entropy for
cross-entropy).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LinkRegressionModel,
    LossFunction,
    ModelLossPair,
    ParameterVector,
    as_values,
)
from .errors import ConfigurationError

__all__ = [
    "normal_cdf",
    "normal_pdf",
    "SaturationSpec",
    "saturation_mean",
    "saturation_mean_deriv",
    "saturation_assumption2_delta",
    "LinearModel",
    "TanhArxModel",
    "LogisticModel",
    "SaturatedMeanModel",
    "SquaredError",
    "CrossEntropy",
    "SquaredHinge",
    "tanh_arx_model",
    "QuadNetSpec",
    "quadnet_lift",
    "linear_mse_pair",
    "saturation_pair",
    "logistic_pair",
    "hinge_pair",
    "quadnet_pair",
    "tanh_mse_pair",
    "Assumption2Report",
    "verify_assumption2",
    "PAIR_CATALOG",
    "catalog_pair",
]

_NEG_SQRT2 = -math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# array-path constants as 0-d float64 arrays: NumPy combines one with an
# array faster than a Python float, with the same bits
_ONE = np.array(1.0)

# slack below this is treated as a violation (negative slack = inequality broken)
SLACK_FLOOR = -1e-10
SLACK_RTOL = 1e-12


def normal_cdf(z):
    """Standard normal CDF via the complementary error function, ``math.erfc`` on each value."""
    z = np.asarray(z, dtype=float)
    return np.array([0.5 * math.erfc(v / _NEG_SQRT2)
                     for v in z.ravel().tolist()]).reshape(z.shape)[()]


def normal_pdf(z):
    """Standard normal density, ``math.exp`` on each value."""
    z = np.asarray(z, dtype=float)
    return np.array([_INV_SQRT_2PI * math.exp(-0.5 * v * v)
                     for v in z.ravel().tolist()]).reshape(z.shape)[()]


# ---------------------------------------------------------------------------
# censored-observation conditional mean


@dataclass(frozen=True)
class SaturationSpec:
    """A censoring window [lower, upper] with Gaussian pre-censoring noise."""

    lower: float
    upper: float
    noise_std: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ConfigurationError("saturation bounds must be finite")
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"saturation window requires lower < upper, got [{self.lower}, {self.upper}]"
            )
        if not (self.noise_std > 0 and math.isfinite(self.noise_std)):
            raise ConfigurationError(f"noise_std must be finite and > 0, got {self.noise_std}")


def _censored_mean_slope(spec: SaturationSpec, x):
    """``(saturation_mean(spec, x), saturation_mean_deriv(spec, x))``.

    Both come from one evaluation of the normal CDF and density at the two
    window edges, in one pass over the values of ``x`` as Python floats:
    ``normal_cdf`` and ``normal_pdf`` written out, bit for bit, with
    ``math.erfc`` and ``math.exp``.  A scalar and an array of any shape take
    this one path, so a value gets the same bits alone as in an array; on
    the few values of a step it costs less than a NumPy ufunc chain.
    """
    x = np.asarray(x, dtype=float)
    lower, upper, s = spec.lower, spec.upper, spec.noise_std
    means, slopes = [], []
    for v in x.ravel().tolist():
        gap_lo, gap_hi = lower - v, upper - v
        z_lo, z_hi = gap_lo / s, gap_hi / s
        cdf_lo, cdf_hi = 0.5 * math.erfc(z_lo / _NEG_SQRT2), 0.5 * math.erfc(z_hi / _NEG_SQRT2)
        pdf_lo = _INV_SQRT_2PI * math.exp(-0.5 * z_lo * z_lo)
        pdf_hi = _INV_SQRT_2PI * math.exp(-0.5 * z_hi * z_hi)
        means.append(upper + gap_lo * cdf_lo - gap_hi * cdf_hi + s * (pdf_lo - pdf_hi))
        slopes.append(cdf_hi - cdf_lo)
    if x.ndim == 1:  # a step's rows: the lists already have the shape
        return np.array(means), np.array(slopes)
    return np.array(means).reshape(x.shape)[()], np.array(slopes).reshape(x.shape)[()]


def saturation_mean(spec: SaturationSpec, x):
    """E[clip(x + e, lower, upper)] with e ~ N(0, noise_std^2).

    Closed form; the general noise scale enters by rescaling the window and
    the argument by 1/noise_std.  Strictly increasing in x with range
    (lower, upper).
    """
    return _censored_mean_slope(spec, x)[0]


def saturation_mean_deriv(spec: SaturationSpec, x):
    """d/dx of ``saturation_mean``; equals P(x + e inside the window), in (0, 1)."""
    return _censored_mean_slope(spec, x)[1]


# kept per (spec, m2, grid): every summary and verify of a saturation run
# rebuilds its pair, and the grid's 20,000 erfc and exp calls take about 10 ms
@functools.lru_cache(maxsize=32)
def saturation_assumption2_delta(spec: SaturationSpec, m2: float, grid: int = 10_000):
    """Curvature floor for the censored-mean pair: min of G' over |x| <= m2.

    G' is unimodal with its peak at the window midpoint, so the minimum sits
    at a grid endpoint; a dense grid search keeps this shape-agnostic.
    """
    if not (m2 > 0 and math.isfinite(m2)):
        raise ConfigurationError(f"operating radius m2 must be finite and > 0, got {m2}")
    xs = np.linspace(-m2, m2, grid)
    return float(np.min(saturation_mean_deriv(spec, xs)))


# ---------------------------------------------------------------------------
# predictors


class LinearModel(LinkRegressionModel):
    """f(phi, theta) = phi . theta."""

    name = "linear"

    def __init__(self, dim):
        self.dim = int(dim)

    def link(self, z):
        return z

    def link_inv(self, y):
        return y

    def dlink(self, z):
        if isinstance(z, float):
            return 1.0
        return np.ones_like(np.asarray(z, dtype=float))

    def growth_bound(self):
        return (0.0, 1.0)


class TanhArxModel(LinkRegressionModel):
    """Saturated lag-model predictor f(phi, theta) = tanh(phi . theta).

    The regressor stacks p past outputs and q inputs; output range (-1, 1);
    gradient sech^2(phi.theta) * phi, hence growth constants (0, 1).
    """

    name = "tanh_arx"

    def __init__(self, p, q):
        if p < 1 or q < 1:
            raise ConfigurationError(f"lag orders must be >= 1, got p={p}, q={q}")
        self.p = int(p)
        self.q = int(q)
        self.dim = self.p + self.q

    def link(self, z):
        if isinstance(z, float):
            return math.tanh(z)
        return np.tanh(z)

    def link_inv(self, y):
        return math.atanh(y) if -1.0 < y < 1.0 else None

    def dlink(self, z):
        return self.link_slope(z)[1]

    def link_slope(self, z):
        t = self.link(z)
        return t, 1.0 - t * t

    def growth_bound(self):
        return (0.0, 1.0)


def tanh_arx_model(p, q) -> TanhArxModel:
    """Factory for the saturated lag-model predictor with orders (p, q)."""
    return TanhArxModel(p, q)


class LogisticModel(LinkRegressionModel):
    """f(phi, theta) = 1 / (1 + exp(-phi . theta)), output in (0, 1)."""

    name = "logistic"

    def __init__(self, dim):
        self.dim = int(dim)

    def link(self, z):
        # exp(-|z|) never overflows; it is exp(-z) for z >= 0 and exp(z) below
        if isinstance(z, float):
            e = math.exp(-abs(z))
            return 1.0 / (1.0 + e) if z >= 0 else e / (1.0 + e)
        z = np.asarray(z, dtype=float)
        e = np.exp(-np.abs(z))
        d = _ONE + e
        out = e / d
        np.putmask(out, z >= 0, _ONE / d)
        return out

    def link_inv(self, y):
        return math.log(y) - math.log1p(-y) if 0.0 < y < 1.0 else None

    def dlink(self, z):
        return self.link_slope(z)[1]

    def link_slope(self, z):
        s = self.link(z)
        return s, s * (_ONE - s)

    def growth_bound(self):
        return (0.0, 0.25)


class SaturatedMeanModel(LinkRegressionModel):
    """f(phi, theta) = E[clip(phi.theta + e, lower, upper)] for Gaussian e."""

    name = "saturated_mean"

    def __init__(self, spec: SaturationSpec, dim):
        self.spec = spec
        self.dim = int(dim)

    def link(self, z):
        return saturation_mean(self.spec, z)

    def dlink(self, z):
        return saturation_mean_deriv(self.spec, z)

    def link_slope(self, z):
        return _censored_mean_slope(self.spec, z)

    def growth_bound(self):
        return (0.0, 1.0)


# ---------------------------------------------------------------------------
# losses


class SquaredError(LossFunction):
    name = "squared_error"
    domain_desc = "all reals"

    def eval(self, y, x):
        d = y - x
        return d * d

    def grad_x(self, y, x):
        return 2.0 * (x - y)


class CrossEntropy(LossFunction):
    """Binary cross-entropy -y log x - (1-y) log(1-x); x must lie in (0, 1).

    With y itself a probability the floor L(y, y) is the entropy of y, so
    regret-style quantities subtract that floor rather than assuming zero.
    """

    name = "cross_entropy"
    domain_desc = "x in (0, 1)"

    def eval(self, y, x):
        return -(y * np.log(x) + (1.0 - y) * np.log1p(-x))

    def grad_x(self, y, x):
        return -y / x + (_ONE - y) / (_ONE - x)

    def in_domain(self, x):
        x = np.asarray(x)
        return bool(np.all((x > 0.0) & (x < 1.0)))


class SquaredHinge(LossFunction):
    """Squared hinge on the margin 1 - sign(y) * x.

    The first slot carries the real-valued reference; only its sign acts as
    the +/-1 label, which keeps the loss compatible with the L(f*, f)
    structure when the reference is a separated linear score (|f*| >= 1).
    """

    name = "squared_hinge"
    domain_desc = "all reals"

    def eval(self, y, x):
        m = np.maximum(0.0, 1.0 - np.sign(y) * x)
        return m * m

    def grad_x(self, y, x):
        s = np.sign(y)
        m = np.maximum(0.0, 1.0 - s * x)
        return -2.0 * s * m


# ---------------------------------------------------------------------------
# quartic feature lift


@dataclass(frozen=True)
class QuadNetSpec:
    """Weights of a two-layer quadratic network of width (m1, m2) on R^d.

    Output sum_i a_i (sum_j b_ij (c_ij . phi)^2)^2, which is linear in the
    degree-4 Kronecker features (phi x phi) x (phi x phi).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if a.ndim != 1 or b.ndim != 2 or c.ndim != 3:
            raise ConfigurationError("quadnet weights must have shapes (m1,), (m1,m2), (m1,m2,d)")
        m1 = a.size
        if b.shape[0] != m1 or c.shape[:2] != b.shape:
            raise ConfigurationError(
                f"inconsistent quadnet shapes: a={a.shape}, b={b.shape}, c={c.shape}"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ConfigurationError("quadnet weights must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def d(self):
        return int(self.c.shape[2])


def quadnet_lift(spec: QuadNetSpec):
    """Exact linear reparameterisation of the quadratic network.

    Returns (theta_star, lift) with theta_star in R^(d^4) built from the
    network weights and lift(phi) = (phi x phi) x (phi x phi), so that
    theta_star . lift(phi) reproduces the nested evaluation exactly.
    """
    d = spec.d
    theta_star = np.zeros(d ** 4)
    for i in range(spec.a.size):
        theta_i = np.zeros(d * d)
        for j in range(spec.b.shape[1]):
            cij = spec.c[i, j]
            theta_i += spec.b[i, j] * np.kron(cij, cij)
        theta_star += spec.a[i] * np.kron(theta_i, theta_i)

    def lift(phi):
        phi_v = as_values(phi, "regressor")
        if phi_v.size != d:
            raise ConfigurationError(f"lift expects dim {d}, got {phi_v.size}")
        pp = np.kron(phi_v, phi_v)
        return np.kron(pp, pp)

    return ParameterVector(theta_star), lift


# ---------------------------------------------------------------------------
# pair catalog with operating-set samplers


def linear_mse_pair(d=3) -> ModelLossPair:
    """Linear predictor + squared error; curvature identity holds with equality."""
    return ModelLossPair(
        predictor=LinearModel(d),
        loss=SquaredError(),
        delta=2.0,
        c1=4.0,
        c2=0.0,
        operating_note="unrestricted; both inequalities hold with equality",
    )


def saturation_pair(spec: SaturationSpec, m2: float = 2.0, d=3) -> ModelLossPair:
    """Censored-mean predictor + squared error on the band |phi.theta| <= m2."""
    return ModelLossPair(
        predictor=SaturatedMeanModel(spec, d),
        loss=SquaredError(),
        delta=saturation_assumption2_delta(spec, m2),
        c1=4.0,
        c2=0.0,
        operating_note=f"preactivations restricted to |phi.theta| <= {m2}",
    )


def logistic_pair(m_bound: float = 1.0, d=3) -> ModelLossPair:
    """Logistic predictor + cross-entropy on the band |phi.theta| <= m_bound."""
    em = math.exp(m_bound)
    return ModelLossPair(
        predictor=LogisticModel(d),
        loss=CrossEntropy(),
        delta=1.0,
        c1=(1.0 + em) ** 4 / (2.0 * em * em),
        c2=0.0,
        operating_note=f"preactivations restricted to |phi.theta| <= {m_bound}",
    )


def hinge_pair(d=3) -> ModelLossPair:
    """Linear score + squared hinge; reference scores separated (|phi.theta*| >= 1)."""
    return ModelLossPair(
        predictor=LinearModel(d),
        loss=SquaredHinge(),
        delta=1.0,
        c1=4.0,
        c2=0.0,
        operating_note="reference margin |phi.theta*| >= 1",
    )


def quadnet_pair(d=2) -> ModelLossPair:
    """Quartic-lifted network trained as a linear model in R^(d^4) + squared error."""
    return ModelLossPair(
        predictor=LinearModel(d ** 4),
        loss=SquaredError(),
        delta=2.0,
        c1=4.0,
        c2=0.0,
        operating_note="linear in the lifted features; unrestricted",
    )


def tanh_mse_pair(p=3, q=2, m_bound: float = 1.0) -> ModelLossPair:
    """Saturated lag predictor + squared error on the band |phi.theta| <= m_bound.

    The curvature floor on the band is 2*sech^2(m_bound); outside it the
    weak-convexity inequality degrades, which run reports record as a caveat.
    """
    sech2 = 1.0 - math.tanh(m_bound) ** 2
    return ModelLossPair(
        predictor=TanhArxModel(p, q),
        loss=SquaredError(),
        delta=2.0 * sech2,
        c1=4.0,
        c2=0.0,
        operating_note=(
            f"preactivations restricted to |phi.theta| <= {m_bound}; "
            "constants are a band-calibrated empirical assertion, not a global proof"
        ),
    )


def _scale_rows_to_band(phi, theta, bound, rng):
    # rows whose preactivation leaves the band are pulled to a uniform spot inside it
    z = np.einsum("ij,ij->i", phi, theta)
    target = bound * rng.uniform(0.05, 1.0, size=z.size)
    denom = np.maximum(np.abs(z), 1e-300)
    scale = np.where(np.abs(z) > bound, target / denom, 1.0)
    return theta * scale[:, None]


def _sampler(d, parameters, lift=None):
    """``sampler(rng, n)`` -> (phi, theta, theta_star) row batches, phi drawn first.

    phi is (n, d) standard normals, mapped row by row by ``lift`` if given;
    ``parameters(rng, phi)`` then draws the rest.  ``sampler.regressors(rng,
    n)`` is that first draw alone: drawn in pieces from one stream, it gives
    the rows of one draw of them all.
    """

    def regressors(rng, n):
        phi = rng.normal(size=(n, d))
        return phi if lift is None else lift(phi)

    def sampler(rng, n):
        phi = regressors(rng, n)
        return (phi, *parameters(rng, phi))

    sampler.regressors = regressors
    return sampler


def _normal_pair(rng, phi):
    return rng.normal(size=phi.shape), rng.normal(size=phi.shape)


def _banded_sampler(d, bound):
    def parameters(rng, phi):
        theta = _scale_rows_to_band(phi, rng.normal(size=phi.shape), bound, rng)
        return theta, _scale_rows_to_band(phi, rng.normal(size=phi.shape), bound, rng)

    return _sampler(d, parameters)


def _margin_sampler(d):
    def parameters(rng, phi):
        theta, theta_star = _normal_pair(rng, phi)
        z = np.einsum("ij,ij->i", phi, theta_star)
        z = np.where(np.abs(z) < 1e-9, 1e-9, z)
        margin = 1.0 + rng.uniform(0.0, 2.0, size=len(phi))
        scale = np.where(np.abs(z) >= 1.0, 1.0, margin / np.abs(z))
        return theta, theta_star * scale[:, None]

    return _sampler(d, parameters)


def _lift_twice(phi):
    # the quadratic lift of the quadratic lift: (n, d) -> (n, d^4)
    n, d = phi.shape
    pp = np.einsum("ni,nj->nij", phi, phi).reshape(n, d * d)
    return np.einsum("ni,nj->nij", pp, pp).reshape(n, d**4)


# name -> (pair builder, sampler builder); the default operating sets match
# each pair's declared constants
PAIR_CATALOG = {
    "linear_mse": lambda: (linear_mse_pair(d=3), _sampler(3, _normal_pair)),
    "saturation": lambda: (
        saturation_pair(SaturationSpec(-1.0, 1.0), m2=2.0, d=3),
        _banded_sampler(3, 2.0),
    ),
    "logistic": lambda: (logistic_pair(m_bound=1.0, d=3), _banded_sampler(3, 1.0)),
    "hinge": lambda: (hinge_pair(d=3), _margin_sampler(3)),
    "quadnet": lambda: (quadnet_pair(d=2), _sampler(2, _normal_pair, _lift_twice)),
    "tanh_mse": lambda: (tanh_mse_pair(3, 2, m_bound=1.0), _banded_sampler(5, 1.0)),
}


def catalog_pair(name):
    """Look up (pair, sampler) by catalog name."""
    try:
        builder = PAIR_CATALOG[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown pair '{name}'; choose from {sorted(PAIR_CATALOG)}"
        ) from None
    return builder()


# ---------------------------------------------------------------------------
# weak-convexity verification


@dataclass(frozen=True)
class Assumption2Report:
    """Sampled slack statistics for the two weak-convexity inequalities."""

    pair_name: str
    n_samples: int
    delta: float
    c1: float
    c2: float
    min_convexity_slack: float
    max_convexity_slack: float
    min_gradient_slack: float
    convexity_violations: int
    gradient_violations: int

    @property
    def passed(self):
        return self.convexity_violations == 0 and self.gradient_violations == 0

    def summary(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.pair_name}: n={self.n_samples}, delta={self.delta:.6g}, "
            f"c1={self.c1:.6g}, c2={self.c2:.6g}, "
            f"min convexity slack={self.min_convexity_slack:.3e} "
            f"({self.convexity_violations} violations), "
            f"min gradient slack={self.min_gradient_slack:.3e} "
            f"({self.gradient_violations} violations)"
        )


def verify_assumption2(
    pair: ModelLossPair,
    sampler,
    n_samples: int = 100_000,
    seed: int = 0,
    delta=None,
    c1=None,
    c2=None,
) -> Assumption2Report:
    """Sample the operating set and report the worst-case inequality slacks.

    ``sampler(rng, n)`` must return (phi, theta, theta_star) row batches.
    Constants default to the pair's declared ones; passing delta/c1/c2
    overrides them (useful for demonstrating that stronger claims fail).
    Report-only: never raises on a violation.
    """
    for key, value, least in (("n_samples", n_samples, 1), ("seed", seed, 0)):
        if not (isinstance(value, (int, np.integer)) and value >= least):
            raise ConfigurationError(f"{key} must be an integer >= {least}, got {value!r}")
    delta = pair.delta if delta is None else delta
    c1 = pair.c1 if c1 is None else c1
    c2 = (pair.c2 if pair.c2 is not None else 0.0) if c2 is None else c2
    if delta is None or c1 is None:
        raise ConfigurationError(
            "pair declares no curvature constants and none were supplied"
        )
    rng = np.random.default_rng(seed)
    phi, theta, theta_star = (np.asarray(a, dtype=float) for a in sampler(rng, int(n_samples)))

    model = pair.predictor
    loss = pair.loss
    z = np.einsum("ij,ij->i", phi, theta)
    z_star = np.einsum("ij,ij->i", phi, theta_star)
    f = model.link(z)
    f_star = model.link(z_star)
    j_val = loss.eval(f_star, f) - loss.eval(f_star, f_star)
    gx = loss.grad_x(f_star, f)
    diff_dot = np.einsum("ij,ij->i", phi, theta - theta_star)
    grad_dot = gx * model.dlink(z) * diff_dot

    slack_convexity = grad_dot - delta * j_val
    slack_gradient = c1 * j_val + c2 - gx * gx
    # A genuine violation must exceed both an absolute floor and the rounding
    # noise of the terms that formed the slack, so large-magnitude samples
    # (e.g. lifted quadratic features) don't trip on float cancellation.
    scale_convexity = np.abs(grad_dot) + abs(delta) * np.abs(j_val)
    scale_gradient = abs(c1) * np.abs(j_val) + abs(c2) + gx * gx
    floor_convexity = np.minimum(SLACK_FLOOR, -SLACK_RTOL * scale_convexity)
    floor_gradient = np.minimum(SLACK_FLOOR, -SLACK_RTOL * scale_gradient)
    return Assumption2Report(
        pair_name=f"{model.name}+{loss.name}",
        n_samples=int(n_samples),
        delta=float(delta),
        c1=float(c1),
        c2=float(c2),
        min_convexity_slack=float(np.min(slack_convexity)),
        max_convexity_slack=float(np.max(slack_convexity)),
        min_gradient_slack=float(np.min(slack_gradient)),
        convexity_violations=int(np.sum(slack_convexity < floor_convexity)),
        gradient_violations=int(np.sum(slack_gradient < floor_gradient)),
    )
