"""Model/loss catalog: censored-mean closed form against an integration
oracle, gradient checks, the Kronecker lift, and sampled verification of
the weak-convexity constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from conftest import fd_grad, fd_scalar
from sgident.errors import ConfigurationError
from sgident.models import (
    PAIR_CATALOG,
    LinearModel,
    LogisticModel,
    QuadNetSpec,
    SaturatedMeanModel,
    SaturationSpec,
    SquaredHinge,
    catalog_pair,
    normal_cdf,
    normal_pdf,
    quadnet_lift,
    saturation_assumption2_delta,
    saturation_mean,
    saturation_mean_deriv,
    tanh_arx_model,
    verify_assumption2,
)


def censored_mean_quad(spec, x):
    """Independent oracle: E[clip(x + e, L, U)] with e ~ N(0, s^2) by direct
    numeric integration split at the censoring kinks."""
    L, U, s = spec.lower, spec.upper, spec.noise_std
    phi = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    za, zb = (L - x) / s, (U - x) / s
    lo = L * quad(phi, -np.inf, za)[0]
    mid = quad(lambda t: (x + s * t) * phi(t), za, zb)[0]
    hi = U * quad(phi, zb, np.inf)[0]
    return lo + mid + hi


class TestSaturationMean:
    def test_matches_integration_oracle(self):
        for L, U in ((-1.0, 1.0), (0.0, 2.0), (1.0, 20.0)):
            spec = SaturationSpec(lower=L, upper=U, noise_std=1.0 if U <= 2 else 5.0)
            for x in np.linspace(L - 4 * spec.noise_std, U + 4 * spec.noise_std, 23):
                want = censored_mean_quad(spec, float(x))
                got = saturation_mean(spec, float(x))
                assert abs(got - want) < 1e-10

    def test_bounded_and_monotone(self):
        spec = SaturationSpec(lower=-1.0, upper=1.0, noise_std=1.0)
        xs = np.linspace(-8, 8, 400)
        vals = saturation_mean(spec, xs)
        assert np.all(vals >= -1.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) > 0)

    def test_deriv_matches_finite_differences(self):
        spec = SaturationSpec(lower=0.0, upper=2.0, noise_std=1.0)
        for x in np.linspace(-4, 6, 21):
            want = fd_scalar(lambda z: saturation_mean(spec, z), float(x))
            assert saturation_mean_deriv(spec, float(x)) == pytest.approx(want, abs=1e-9)

    def test_deriv_strictly_inside_unit_interval(self):
        spec = SaturationSpec(lower=-2.0, upper=2.0, noise_std=1.0)
        d = saturation_mean_deriv(spec, np.linspace(-10, 10, 200))
        assert np.all(d > 0.0) and np.all(d < 1.0)

    def test_delta_symmetric_window_sits_at_endpoint(self):
        spec = SaturationSpec(lower=-1.0, upper=1.0, noise_std=1.0)
        delta = saturation_assumption2_delta(spec, m2=2.0)
        assert abs(delta - saturation_mean_deriv(spec, 2.0)) < 1e-10

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            SaturationSpec(lower=1.0, upper=1.0, noise_std=1.0)
        with pytest.raises(ConfigurationError):
            SaturationSpec(lower=0.0, upper=1.0, noise_std=0.0)


class TestCatalogGradients:
    def test_predictor_gradients_match_finite_differences(self):
        for name, entry in sorted(PAIR_CATALOG.items()):
            pair, sampler = entry()
            model = pair.predictor
            rng = np.random.default_rng(101)
            phi_rows, theta_rows, _ = sampler(rng, 25)
            for phi, theta in zip(phi_rows, theta_rows):
                got = model.grad(phi, theta)
                want = fd_grad(lambda t: float(model.eval(phi, t)), theta)
                err = np.linalg.norm(got - want) / (np.linalg.norm(want) + 1e-8)
                assert err < 1e-5, f"{name}: rel grad error {err:.2e}"

    def test_loss_gradients_match_finite_differences(self):
        rng = np.random.default_rng(55)
        seen = set()
        for name, entry in sorted(PAIR_CATALOG.items()):
            pair, _ = entry()
            loss = pair.loss
            if loss.name in seen:
                continue
            seen.add(loss.name)
            for _ in range(40):
                if loss.name == "cross_entropy":
                    y = float(rng.integers(0, 2))
                    x = float(rng.uniform(0.05, 0.95))
                elif loss.name == "squared_hinge":
                    y = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
                    x = float(rng.normal())
                    if abs(1.0 - math.copysign(1.0, y) * x) < 1e-3:
                        continue  # kink of the hinge
                else:
                    y = float(rng.normal())
                    x = float(rng.normal())
                want = fd_scalar(lambda z: float(loss.eval(y, z)), x)
                got = float(loss.grad_x(y, x))
                assert got == pytest.approx(want, rel=1e-6, abs=1e-8), loss.name

    def test_growth_bounds_hold_at_large_regressors(self):
        rng = np.random.default_rng(77)
        for name in ("linear_mse", "tanh_mse", "logistic"):
            pair, _ = catalog_pair(name)
            model = pair.predictor
            k1, k2 = model.growth_bound()
            d = model.dim
            for _ in range(200):
                phi = rng.normal(size=d) * float(10.0 ** rng.uniform(0, 3))
                theta = rng.normal(size=d)
                g = np.linalg.norm(model.grad(phi, theta))
                assert g <= k1 + k2 * np.linalg.norm(phi) + 1e-9, name


class TestLinkInverse:
    MODELS = (LinearModel(3), tanh_arx_model(3, 2), LogisticModel(3))

    def test_inverts_link_on_a_preactivation_grid(self):
        for model in self.MODELS:
            for z in np.linspace(-15.0, 15.0, 301):
                z = float(z)
                y = model.link(z)
                # atanh/logit amplify rounding of y by 1/dlink near saturation
                tol = 1e-15 * max(1.0, abs(z)) + 4e-16 / model.dlink(z)
                assert abs(model.link_inv(y) - z) <= tol, (model.name, z)

    def test_targets_outside_the_open_range_are_unreachable(self):
        tanh, logistic = tanh_arx_model(3, 2), LogisticModel(3)
        for y in (-1.0, 1.0, 1.5, -2.0, math.nan):
            assert tanh.link_inv(y) is None
        for y in (0.0, 1.0, -0.1, 1.1, math.nan):
            assert logistic.link_inv(y) is None
        assert LinearModel(3).link_inv(1e6) == 1e6

    def test_censored_mean_has_no_closed_form_inverse(self):
        model = SaturatedMeanModel(SaturationSpec(-1.0, 1.0), 3)
        assert getattr(model, "link_inv", None) is None


# every link model of the catalog, plus the replay preset's censored mean
_LINK_MODELS = {name: builder()[0].predictor for name, builder in PAIR_CATALOG.items()}
_LINK_MODELS["replay_saturation"] = SaturatedMeanModel(SaturationSpec(6.0, 120.0, 5.0), 5)
_EDGES = sorted({edge for model in _LINK_MODELS.values() if hasattr(model, "spec")
                 for edge in (model.spec.lower, model.spec.upper)})
_EXTREME_Z = st.sampled_from(
    [-1e3, 1e3, *_EDGES, *(edge + step for edge in _EDGES for step in (-40.0, -1e-9, 1e-9, 40.0))])
_FINITE_Z = st.floats(-1e3, 1e3) | _EXTREME_Z
_ANY_Z = _FINITE_Z | st.sampled_from([math.nan, math.inf, -math.inf])


def _censored_mean_per_edge(spec, x):
    # the closed form evaluated one window edge at a time: the stacked
    # evaluation must reproduce it bit for bit
    s = spec.noise_std
    za, zb = (spec.lower - x) / s, (spec.upper - x) / s
    mean = (spec.upper + (spec.lower - x) * normal_cdf(za) - (spec.upper - x) * normal_cdf(zb)
            + s * (normal_pdf(za) - normal_pdf(zb)))
    return mean, normal_cdf(zb) - normal_cdf(za)


def _bits(pair):
    return tuple(np.asarray(v, dtype=float).tobytes() for v in pair)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_LINK_MODELS)),
       z=st.lists(_FINITE_Z, min_size=1, max_size=64) | st.lists(_ANY_Z, min_size=1, max_size=64))
def test_link_slope_is_bit_equal_to_link_and_dlink(name, z):
    model = _LINK_MODELS[name]
    z = np.array(z)
    # an infinite z makes inf * 0 in the censored mean: nan, and no warning
    with np.errstate(invalid="ignore", over="ignore"):
        for arg in (z, float(z[0])):
            got = model.link_slope(arg)
            assert np.shape(got[0]) == np.shape(got[1]) == np.shape(arg)
            assert _bits(got) == _bits((model.link(arg), model.dlink(arg)))
            if isinstance(model, SaturatedMeanModel):
                assert _bits(got) == _bits(_censored_mean_per_edge(model.spec, arg))


def _logistic_two_branch(z):
    # reference: 1/(1+exp(-z)) on z >= 0 and exp(z)/(1+exp(z)) below, each
    # exp taken only where it cannot overflow
    if isinstance(z, float):
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


_LOGISTIC_Z = st.floats(allow_nan=False) | st.sampled_from(
    [-746.0, -745.5, -740.0, -709.0, -0.0, 0.0, 709.0, 746.0, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(z=st.lists(_LOGISTIC_Z, min_size=1, max_size=64))
def test_logistic_link_is_bit_equal_to_the_two_branch_formula(z):
    model = LogisticModel(3)
    z = np.array(z)
    assert model.link(z).tobytes() == _logistic_two_branch(z).tobytes()
    for value in z.tolist():
        assert np.float64(model.link(value)).tobytes() == np.float64(
            _logistic_two_branch(value)).tobytes()
    # nan propagates on both paths; its bit pattern is not pinned
    assert math.isnan(model.link(math.nan))
    assert np.isnan(model.link(np.array([math.nan, 1.0]))[0])


class TestHinge:
    """Squared hinge over a linear score: loss and theta-gradient by the chain rule."""

    @staticmethod
    def loss_and_grad(phi, theta, y):
        model, loss = LinearModel(len(phi)), SquaredHinge()
        x = model.eval(phi, theta)
        return loss.eval(y, x), loss.grad_x(y, x) * model.grad(phi, theta)

    def test_inactive_margin_is_flat(self):
        # y=+1, phi.theta = 1.5 -> margin max(0, -0.5) = 0
        loss, grad = self.loss_and_grad(np.array([1.0]), np.array([1.5]), 1.0)
        assert loss == 0.0
        assert_allclose(grad, 0.0)

    def test_active_margin_value_and_gradient(self):
        phi = np.array([2.0, -1.0])
        theta = np.array([0.1, 0.1])
        m = 1.0 - (2.0 * 0.1 - 1.0 * 0.1)  # 0.9
        loss, grad = self.loss_and_grad(phi, theta, 1.0)
        assert loss == pytest.approx(m * m, rel=1e-15)
        assert_allclose(grad, -2.0 * m * phi)

    def test_label_is_the_sign_of_the_reference(self):
        phi = np.array([2.0, -1.0])
        theta = np.array([0.1, 0.1])
        for y, label in ((3.5, 1.0), (-0.2, -1.0)):
            got = self.loss_and_grad(phi, theta, y)
            want = self.loss_and_grad(phi, theta, label)
            assert got[0] == want[0]
            assert_allclose(got[1], want[1], rtol=0)


class TestQuadnetLift:
    def nested(self, spec, x):
        out = 0.0
        for i in range(spec.a.size):
            inner = 0.0
            for j in range(spec.b.shape[1]):
                inner += spec.b[i, j] * float(np.dot(spec.c[i, j], x)) ** 2
            out += spec.a[i] * inner ** 2
        return out

    def test_lift_reproduces_nested_evaluation(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            m1, m2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            spec = QuadNetSpec(
                a=rng.normal(size=m1),
                b=rng.normal(size=(m1, m2)),
                c=rng.normal(size=(m1, m2, d)),
            )
            theta_star, lift = quadnet_lift(spec)
            assert theta_star.dim == d ** 4
            for _ in range(4):
                x = rng.normal(size=d)
                want = self.nested(spec, x)
                feat = lift(x)
                got = float(np.dot(theta_star.values, feat))
                # The dot product rounds at ||theta*||*||Phi|| scale, which
                # dwarfs |want| when sign-mixed terms cancel, so measure the
                # error against that scale rather than the cancelled value.
                scale = np.linalg.norm(theta_star.values) * np.linalg.norm(feat)
                assert abs(got - want) <= 1e-12 * max(1.0, scale)

    def test_spec_shape_validation(self):
        with pytest.raises(ConfigurationError):
            QuadNetSpec(a=np.ones(2), b=np.ones((3, 2)), c=np.ones((2, 2, 2)))


class TestVerifyAssumption2:
    def test_linear_mse_equality_case(self):
        pair, sampler = catalog_pair("linear_mse")
        report = verify_assumption2(pair, sampler, n_samples=20_000, seed=0)
        assert report.passed
        # Eq-style equality: both sides coincide, slack is numerically zero
        assert abs(report.min_convexity_slack) < 1e-9
        assert abs(report.max_convexity_slack) < 1e-9

    def test_overclaimed_delta_fails(self):
        pair, sampler = catalog_pair("linear_mse")
        report = verify_assumption2(pair, sampler, n_samples=5_000, seed=0, delta=2.5)
        assert not report.passed
        assert report.convexity_violations > 0

    def test_bounded_pairs_pass_on_their_operating_sets(self):
        for name in ("saturation", "logistic", "hinge", "tanh_mse", "quadnet"):
            pair, sampler = catalog_pair(name)
            report = verify_assumption2(pair, sampler, n_samples=20_000, seed=1)
            assert report.passed, f"{name}: {report.summary()}"

    def test_report_summary_mentions_verdict(self):
        pair, sampler = catalog_pair("linear_mse")
        report = verify_assumption2(pair, sampler, n_samples=1_000, seed=2)
        assert report.summary().startswith("PASS")


class TestCatalogLookup:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError) as err:
            catalog_pair("nope")
        for name in PAIR_CATALOG:
            assert name in str(err.value)

    def test_all_entries_construct_with_matching_sampler(self):
        rng = np.random.default_rng(9)
        for name, entry in sorted(PAIR_CATALOG.items()):
            pair, sampler = entry()
            phi, theta, theta_star = sampler(rng, 8)
            d = pair.predictor.dim
            assert phi.shape == (8, d) and theta.shape == (8, d) and theta_star.shape == (8, d)
