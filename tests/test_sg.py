"""Step-wise estimator behaviour: the gain schedule, the accumulator
recursion, the hand-derived single-step values, and the safety law.

``_oracle_sg_step`` is the estimator step on one row in scalar arithmetic,
with the step's checks in their order: the reference that the row-wise
``sg_update`` is pinned to."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sgident.control import run_closed_loop_batch
from sgident.core import GainState, HyperParams, ModelLossPair, ParameterVector, as_values
from sgident.errors import ConfigurationError, DomainError, NumericError
from sgident.models import (
    CrossEntropy,
    LinearModel,
    SaturatedMeanModel,
    SaturationSpec,
    SquaredError,
    catalog_pair,
    linear_mse_pair,
    tanh_mse_pair,
)
from sgident.sg import (
    DIVERGENCE_NORM,
    EstimatorState,
    mu_schedule,
    sg_init,
    sg_update,
)


def _hyper(**kw):
    base = dict(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0)
    base.update(kw)
    return HyperParams(**base)


def _linear_pair(d):
    pair = linear_mse_pair(d=3)
    if d == 3:
        return pair
    from sgident.core import ModelLossPair
    from sgident.models import LinearModel, SquaredError

    return ModelLossPair(LinearModel(d), SquaredError(), delta=2.0, c1=4.0, c2=0.0)


def _oracle_loss_grad_x(loss, y, x):
    """Validated derivative of L(y, x) in x."""
    if not loss.in_domain(x):
        raise DomainError(
            f"loss '{loss.name}' evaluated outside its domain ({loss.domain_desc}): x={x}"
        )
    out = float(loss.grad_x(y, x))
    if not math.isfinite(out):
        raise NumericError(
            f"loss '{loss.name}' produced a non-finite derivative at y={y}, x={x}",
            context={"y": y, "x": x},
        )
    return out


def _oracle_sg_step(state, pair, phi, y, classical=False):
    """One estimator step on one row; returns (state after it, mu_k, ||g_k||^2)."""
    k = state.gain.k
    phi_v = as_values(phi, "regressor")
    theta_v = state.theta.values
    model = pair.predictor
    if phi_v.size != theta_v.size:
        raise ConfigurationError(
            f"regressor dim {phi_v.size} != parameter dim {theta_v.size} at step {k}"
        )
    if not math.isfinite(y):
        raise NumericError(f"observation must be finite, got {y} at step {k}",
                           context={"k": k, "y": y})

    f_hat = float(model.eval(phi_v, theta_v))
    if not math.isfinite(f_hat):
        raise NumericError("predictor output non-finite",
                           context={"k": k, "phi": phi_v, "theta": theta_v})
    g = np.asarray(model.grad(phi_v, theta_v), dtype=float)
    grad_norm_sq = float(g @ g)
    if not math.isfinite(grad_norm_sq):
        raise NumericError("predictor gradient non-finite",
                           context={"k": k, "phi": phi_v, "theta": theta_v})

    gain = state.gain.advanced(grad_norm_sq)
    if classical:
        mu_k = state.hyper.mu / gain.r
    else:
        mu_k = mu_schedule(gain, grad_norm_sq, state.hyper)
    if mu_k * grad_norm_sq > state.hyper.mu:
        raise NumericError(
            f"step-size law violated: mu_k*||g||^2 = {mu_k * grad_norm_sq} > mu = {state.hyper.mu}",
            context={"k": k},
        )

    try:
        slope = _oracle_loss_grad_x(pair.loss, y, f_hat)
    except NumericError as exc:
        exc.context.setdefault("k", k)
        raise
    theta_new = theta_v - (mu_k * slope) * g
    if not np.all(np.isfinite(theta_new)):
        raise NumericError("parameter update produced non-finite entries",
                           context={"k": k, "phi": phi_v, "theta": theta_v})
    return EstimatorState(ParameterVector(theta_new), gain, state.hyper), mu_k, grad_norm_sq


def _step_one_row(pair, theta0, data, classical=False):
    """``sg_update`` on one row from r = beta3 over (phi, y) pairs.

    Returns the (theta, r, mu_k, grad_norm_sq) after each step.
    """
    theta, r, carry = np.array([theta0], dtype=float), np.array([2.0]), np.zeros(1)
    steps = []
    for phi, y in data:
        theta, r, carry, mu_k, grad_norm_sq, _ = sg_update(
            theta, r, carry, np.array([phi]), np.array([y]), pair, _hyper(), classical=classical)
        steps.append((theta[0], r[0], mu_k[0], grad_norm_sq[0]))
    return steps


class TestInit:
    def test_initial_gain_is_beta3(self):
        state = sg_init(np.zeros(3), _hyper())
        assert state.gain.r == 2.0
        assert state.gain.k == 0
        assert_allclose(state.theta.values, 0.0)

    def test_beta3_equal_one_rejected(self):
        with pytest.raises(ConfigurationError):
            sg_init(np.zeros(2), _hyper(beta3=1.0))


class TestMuSchedule:
    def test_classic_limit_form(self):
        # beta1=1, beta2=0: mu/(r + gns) is the standard normalized gain
        h = HyperParams(mu=0.3, beta1=1.0, beta2=0.0, beta3=2.0)
        g = GainState(r=2.0, k=0, carry=0.0)
        assert mu_schedule(g, 0.0, h) == pytest.approx(0.15, abs=0)

    def test_hand_substitution(self):
        # r = e^2: denominator is e * 2^0.51
        h = _hyper()
        g = GainState(r=math.e ** 2, k=0, carry=0.0)
        expected = 0.3 / (math.e * 2.0 ** 0.51)
        assert mu_schedule(g, 0.0, h) == pytest.approx(expected, rel=1e-15)

    def test_monotone_in_r(self):
        h = _hyper()
        vals = [mu_schedule(GainState(r=r, k=0, carry=0.0), 1.0, h) for r in (2.0, 5.0, 50.0, 5e3)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_gradient_drives_mu_to_zero(self):
        h = _hyper()
        g = GainState(r=2.0, k=0, carry=0.0)
        assert mu_schedule(g, 1e12, h) < 1e-12


class TestSingleStepOracles:
    """Scalar linear-MSE scenario: theta=0, truth 1, phi=1, noiseless y=1.

    Hand derivation: grad f = phi = 1, so r advances 2 -> 3 before the gain
    is computed; the loss gradient at f_est=0 is 2(0-1) = -2.
      modified:  mu0 = 0.3/(3^0.5 ln(3)^0.51 + 1), theta1 = 2*mu0
      classical: mu0 = 0.3/3 = 0.1, theta1 = 0.2
    """

    def test_modified_step(self):
        [(theta, r, mu_k, _)] = _step_one_row(_linear_pair(1), [0.0], [(np.ones(1), 1.0)])
        mu0 = 0.3 / (3.0 ** 0.5 * math.log(3.0) ** 0.51 + 1.0)
        assert r == 3.0
        assert mu_k == pytest.approx(mu0, rel=1e-15)
        assert mu_k == pytest.approx(0.10649051999974325, rel=1e-12)
        assert theta[0] == pytest.approx(2.0 * mu0, rel=1e-15)

    def test_classical_step(self):
        [(theta, r, mu_k, _)] = _step_one_row(_linear_pair(1), [0.0], [(np.ones(1), 1.0)],
                                              classical=True)
        assert r == 3.0
        assert mu_k == pytest.approx(0.1, rel=1e-15)
        assert theta[0] == pytest.approx(0.2, rel=1e-15)

    def test_zero_gradient_is_identity(self):
        theta0 = [0.4, -0.2]
        [(theta, r, _, grad_norm_sq)] = _step_one_row(_linear_pair(2), theta0,
                                                      [(np.zeros(2), 5.0)])
        assert_allclose(theta, theta0)
        assert r == 2.0 and grad_norm_sq == 0.0


class TestRecursionInvariants:
    def test_r_equals_beta3_plus_gradient_sum(self):
        rng = np.random.default_rng(11)
        data = []
        for _ in range(200):
            phi = rng.normal(size=3)
            data.append((phi, float(np.dot(phi, [1.0, -2.0, 0.5]) + rng.normal())))
        r = _step_one_row(_linear_pair(3), np.zeros(3), data)[-1][1]
        total = sum(float(np.dot(phi, phi)) for phi, _ in data)
        assert r == pytest.approx(2.0 + total, rel=1e-12)

    def test_r_monotone_and_k_counts(self):
        # a one-cell batch over prepared regressors and observations
        rng = np.random.default_rng(3)
        phi, y = rng.normal(size=(100, 1, 2)), rng.normal(size=(100, 1))
        state = sg_init(np.zeros(2), _hyper())
        trace = run_closed_loop_batch(None, state, _linear_pair(2), (phi, y, None), 100,
                                      [("modified", 0)]).trace(0)
        assert trace.k.tolist() == list(range(100))
        assert trace.r_k[0] >= state.gain.r
        assert np.all(np.diff(trace.r_k) >= 0.0)

    def test_safety_law_every_step(self):
        # mu_k * ||grad f||^2 <= mu because the denominator contains the norm
        rng = np.random.default_rng(7)
        for pair, d in ((_linear_pair(4), 4), (tanh_mse_pair(3, 2), 5)):
            data = [(rng.normal(size=d) * 10.0, float(rng.normal())) for _ in range(300)]
            for _, _, mu_k, grad_norm_sq in _step_one_row(pair, np.zeros(d), data):
                assert mu_k * grad_norm_sq <= 0.3

    def test_classical_mu_below_mu_over_beta3(self):
        rng = np.random.default_rng(5)
        data = [(rng.normal(size=2), float(rng.normal())) for _ in range(100)]
        for _, _, mu_k, _ in _step_one_row(_linear_pair(2), np.zeros(2), data, classical=True):
            assert mu_k < 0.3 / 2.0

    def test_bit_identical_replay(self):
        rng = np.random.default_rng(23)
        data = [(rng.normal(size=3), float(rng.normal())) for _ in range(150)]
        a, b = (_step_one_row(_linear_pair(3), np.zeros(3), data)[-1] for _ in range(2))
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1] and a[2] == b[2]

    def test_nonfinite_observation_rejected(self):
        with pytest.raises(NumericError, match="observation"):
            _step_one_row(_linear_pair(2), np.zeros(2), [(np.ones(2), float("nan"))])

    def test_divergence_threshold_constant(self):
        assert DIVERGENCE_NORM == 1e6


# Tolerance of the vector update against the scalar step, fixed before the
# test was written: 1e-12 relative.  The vector rows sum their dot products in
# another order and use numpy's and scipy's link functions, so they may differ
# from the scalar step by a few ulps of each term.  Each quantity is measured
# against the magnitude of its terms: the prediction against the link's
# slope times the summed |phi_i theta_i| (plus the window terms of the
# censored mean), and the update theta - mu*slope*g, which can cancel,
# against |theta| and |mu*slope*g| with the slope taken at the row's own
# prediction.  Every range keeps the rows inside the pair's operating set.
VECTOR_RTOL = 1e-12

_unit = st.floats(-1.0, 1.0)
_small = st.floats(-0.6, 0.6)
_real_y = st.floats(-2.0, 2.0)
# name -> (pair, regressor entries, parameter entries, observation)
_VECTOR_PAIRS = {
    "tanh_mse": (tanh_mse_pair(3, 2), _unit, _small, _real_y),
    "linear_mse": (catalog_pair("linear_mse")[0], _unit, _small, _real_y),
    "saturation": (catalog_pair("saturation")[0], _unit, _small, _real_y),
    "logistic": (catalog_pair("logistic")[0], _unit, _small, st.floats(0.0, 1.0)),
    "hinge": (catalog_pair("hinge")[0], _unit, _small, _real_y),
    "quadnet": (catalog_pair("quadnet")[0], _unit, _small, _real_y),
    # the replay preset's censored mean over corpus-like rows and targets
    "replay_saturation": (
        ModelLossPair(SaturatedMeanModel(SaturationSpec(6.0, 120.0, 5.0), 5), SquaredError()),
        st.floats(0.0, 3.0), st.floats(0.0, 12.0), st.floats(6.0, 120.0),
    ),
}


@st.composite
def _vector_case(draw):
    name = draw(st.sampled_from(sorted(_VECTOR_PAIRS)))
    pair, phi_entry, theta_entry, y = _VECTOR_PAIRS[name]
    d = pair.predictor.dim
    row = st.tuples(
        st.lists(phi_entry, min_size=d, max_size=d),
        st.lists(theta_entry, min_size=d, max_size=d),
        y,
        st.floats(2.0, 1e4),  # r
        st.floats(-1e-12, 1e-12),  # Kahan carry
        st.booleans(),  # classical gain law
    )
    return pair, draw(st.lists(row, min_size=1, max_size=6))


def _prediction_scale(model, phi, theta):
    z = float(np.dot(phi, theta))
    scale = abs(model.eval(phi, theta)) + abs(float(model.dlink(z))) * float(
        np.abs(phi) @ np.abs(theta))
    spec = getattr(model, "spec", None)
    if spec is not None:
        scale += abs(spec.lower) + 2.0 * abs(spec.upper) + 2.0 * abs(z) + spec.noise_std
    return scale


@settings(max_examples=300, deadline=None)
@given(case=_vector_case())
def test_vector_update_matches_scalar_step(case):
    pair, rows = case
    hyper = _hyper(beta2=0.6666666666666666)
    phi, theta, y, r, carry, classical = (np.array(col) for col in zip(*rows))
    theta_v, r_v, carry_v, mu_v, gns_v, f_v = sg_update(theta, r, carry, phi, y, pair, hyper,
                                                        classical=classical)
    for i in range(len(rows)):
        state = EstimatorState(theta=ParameterVector(theta[i]),
                               gain=GainState(r=r[i], carry=carry[i]), hyper=hyper)
        want, want_mu, want_gns = _oracle_sg_step(state, pair, phi[i], y[i], classical[i])
        f_hat = pair.predictor.eval(phi[i], theta[i])
        assert abs(f_v[i] - f_hat) <= VECTOR_RTOL * _prediction_scale(pair.predictor, phi[i],
                                                                      theta[i])
        assert_allclose(gns_v[i], want_gns, rtol=VECTOR_RTOL, atol=1e-300)
        assert_allclose(r_v[i], want.gain.r, rtol=VECTOR_RTOL)
        assert_allclose(mu_v[i], want_mu, rtol=VECTOR_RTOL)
        g = pair.predictor.grad(phi[i], theta[i])
        move = want_mu * pair.loss.grad_x(y[i], f_v[i]) * g
        scale = np.abs(theta[i]) + np.abs(move)
        assert np.all(np.abs(theta_v[i] - (theta[i] - move)) <= VECTOR_RTOL * scale)
    # the safety law holds on every row
    assert np.all(mu_v * gns_v <= hyper.mu)


class TestVectorUpdate:
    def test_inputs_are_not_modified(self):
        pair = tanh_mse_pair(3, 2)
        theta, phi = np.full((2, 5), 0.1), np.ones((2, 5))
        r, carry, y = np.full(2, 2.0), np.zeros(2), np.array([0.3, -0.2])
        before = [a.copy() for a in (theta, r, carry, phi, y)]
        sg_update(theta, r, carry, phi, y, pair, _hyper())
        for a, b in zip((theta, r, carry, phi, y), before):
            assert np.array_equal(a, b)

    def test_zero_gradient_row_keeps_its_accumulator_bits(self):
        # a carry of half an ulp on an odd-mantissa total: adding it would
        # round the total up, so only the zero-increment skip keeps the bits
        pair = linear_mse_pair(d=3)
        phi = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, -0.5]])
        total = float(np.nextafter(2.5, 3.0))
        carry = -float(np.spacing(total)) / 2
        r, c = np.full(2, total), np.full(2, carry)
        _, r_new, c_new, _, gns, _ = sg_update(np.zeros((2, 3)), r, c, phi, np.ones(2), pair,
                                            _hyper())
        assert gns[0] == 0.0 and (r_new[0], c_new[0]) == (total, carry)
        assert r_new[1] > total

    def test_log_term_check_applies_to_modified_rows_only(self):
        # r = 0.5 has no log term; a zero gradient keeps it there
        pair = linear_mse_pair(d=3)
        args = (np.zeros((2, 3)), np.full(2, 0.5), np.zeros(2), np.zeros((2, 3)), np.zeros(2),
                pair, _hyper())
        mu_k = sg_update(*args, classical=np.array([True, True]))[3]
        assert mu_k.tolist() == [0.6, 0.6]  # mu / r
        with pytest.raises(NumericError, match="exceed 1") as exc:
            sg_update(*args, classical=np.array([True, False]))
        assert exc.value.context["row"] == 1

    def test_first_bad_row_is_named(self):
        pair = linear_mse_pair(d=3)
        y = np.array([0.1, 0.2, math.nan, math.inf])
        with pytest.raises(NumericError, match="observation") as exc:
            sg_update(np.zeros((4, 3)), np.full(4, 2.0), np.zeros(4), np.ones((4, 3)), y, pair,
                      _hyper())
        assert exc.value.context["row"] == 2

    def test_overflowing_update_is_an_error_not_a_warning(self):
        pair = linear_mse_pair(d=3)
        y = np.array([0.0, 1e308])
        with pytest.raises(NumericError, match="derivative") as exc:
            sg_update(np.zeros((2, 3)), np.full(2, 2.0), np.zeros(2), np.ones((2, 3)), y, pair,
                      _hyper())
        assert exc.value.context["row"] == 1


# One row per check of the step, in the order the step makes them, with the
# pair the case runs on: the recipe (overrides of _CLEAN_ROW) fails that
# check, passes every earlier one and, as far as the pair allows, every
# later one, so the step's one reduction must catch it on its own.  The
# squared hinge keeps an infinite observation or prediction from spreading
# to the slope; cross-entropy on a linear score leaves the domain with a
# finite slope.
_CLEAN_ROW = dict(phi=[1.0, 0.5, -0.5], theta=[0.5, 0.0, 0.0], y=1.0, r=2.0, classical=False)
_CHECKS = (
    ("observation", "hinge", dict(y=math.inf),
     NumericError, "observation must be finite", {"y"}),
    # the dot product overflows while the parameters still sum to a finite value
    ("prediction", "hinge", dict(phi=[1.0, 0.0, 1.0], theta=[1e308, -1.5e308, 1e308]),
     NumericError, "predictor output non-finite", {"phi", "theta"}),
    ("gradient", "linear_mse", dict(phi=[1e200, 0.0, 0.0]),
     NumericError, "predictor gradient non-finite", {"phi", "theta"}),
    # ||g||^2 = 1/2 lifts r from 1/2 to exactly 1, where ln r = 0
    ("log_term", "linear_mse", dict(phi=[0.5, 0.5, 0.0], r=0.5),
     NumericError, "gain accumulator must exceed 1 for the log term", {"r"}),
    # a classical row whose accumulator ends below its squared gradient norm
    ("safety_law", "linear_mse", dict(phi=[1.0, 1.0, 1.0], r=-1.0, classical=True),
     NumericError, "step-size law violated: mu_k*||g||^2 > mu = 0.3", {"mu_k", "grad_norm_sq"}),
    ("domain", "linear_cross_entropy", dict(phi=[1.0, 0.0, 0.0], theta=[1.5, 0.0, 0.0]),
     DomainError, "loss 'cross_entropy' evaluated outside its domain (x in (0, 1)): x=1.5 in row 1",
     None),
    ("derivative", "linear_mse", dict(y=1e308),
     NumericError, "loss 'squared_error' produced a non-finite derivative", {"y", "x"}),
    # the prediction cancels to 0, then the move pushes 1.7e308 past the largest float
    ("update", "linear_mse", dict(phi=[1.0, 1.0, 0.0], theta=[1.7e308, -1.7e308, 0.0], y=8e307),
     NumericError, "parameter update produced non-finite entries", {"phi", "theta"}),
)
_CHECK_PAIRS = {
    "hinge": catalog_pair("hinge")[0],
    "linear_mse": catalog_pair("linear_mse")[0],
    "linear_cross_entropy": ModelLossPair(LinearModel(3), CrossEntropy()),
}


@pytest.mark.parametrize("check", range(len(_CHECKS)), ids=[c[0] for c in _CHECKS])
def test_first_failed_check_names_its_first_bad_row(check):
    # rows: (the next check's row, this check's row, the next check's row);
    # the checks run in order, so this check's error wins and names row 1.
    # Beside a clean row only, the row must be caught all the same.
    name, pair_name, recipe, error, message, context_keys = _CHECKS[check]
    pair = _CHECK_PAIRS[pair_name]
    later = [c[2] for c in _CHECKS[check + 1:] if c[0] != "domain"]
    nxt, last = (later[0], later[0]) if later else ({}, recipe)
    for batch in ((nxt, recipe, last), ({}, recipe)):
        rows = [dict(_CLEAN_ROW, **row) for row in batch]
        phi, theta, y, r, classical = (np.array([row[key] for row in rows])
                                       for key in ("phi", "theta", "y", "r", "classical"))
        with pytest.raises(error) as exc:
            sg_update(theta, r, np.zeros(len(rows)), phi, y, pair, _hyper(), classical=classical)
        assert type(exc.value) is error
        assert str(exc.value) == message
        if context_keys is not None:
            assert exc.value.context["row"] == 1
            assert set(exc.value.context) == {"row", *context_keys}
