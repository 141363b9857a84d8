"""Step-wise estimator behaviour: the gain schedule, the accumulator
recursion, the hand-derived single-step values, and the safety law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sgident.core import GainState, HyperParams, ParameterVector
from sgident.errors import ConfigurationError, NumericError
from sgident.models import linear_mse_pair, tanh_mse_pair
from sgident.sg import (
    DIVERGENCE_NORM,
    EstimatorState,
    classical_sg_step,
    mu_schedule,
    sg_init,
    sg_step,
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


class TestInit:
    def test_initial_gain_is_beta3(self):
        state = sg_init(np.zeros(3), _hyper())
        assert state.gain.r == 2.0
        assert state.k == 0
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
        pair = _linear_pair(1)
        state = sg_init(np.zeros(1), _hyper())
        out = sg_step(state, pair, np.ones(1), 1.0)
        mu0 = 0.3 / (3.0 ** 0.5 * math.log(3.0) ** 0.51 + 1.0)
        assert out.gain.r == 3.0
        assert out.last_mu == pytest.approx(mu0, rel=1e-15)
        assert out.last_mu == pytest.approx(0.10649051999974325, rel=1e-12)
        assert out.theta.values[0] == pytest.approx(2.0 * mu0, rel=1e-15)

    def test_classical_step(self):
        pair = _linear_pair(1)
        state = sg_init(np.zeros(1), _hyper())
        out = classical_sg_step(state, pair, np.ones(1), 1.0)
        assert out.gain.r == 3.0
        assert out.last_mu == pytest.approx(0.1, rel=1e-15)
        assert out.theta.values[0] == pytest.approx(0.2, rel=1e-15)

    def test_zero_gradient_is_identity(self):
        pair = _linear_pair(2)
        state = sg_init(np.array([0.4, -0.2]), _hyper())
        out = sg_step(state, pair, np.zeros(2), 5.0)
        assert_allclose(out.theta.values, state.theta.values)
        assert out.gain.r == state.gain.r
        assert out.k == 1


class TestRecursionInvariants:
    def test_r_equals_beta3_plus_gradient_sum(self):
        rng = np.random.default_rng(11)
        pair = _linear_pair(3)
        state = sg_init(np.zeros(3), _hyper())
        total = 0.0
        for _ in range(200):
            phi = rng.normal(size=3)
            y = float(np.dot(phi, [1.0, -2.0, 0.5]) + rng.normal())
            state = sg_step(state, pair, phi, y)
            total += float(np.dot(phi, phi))
        assert state.gain.r == pytest.approx(2.0 + total, rel=1e-12)

    def test_r_monotone_and_k_counts(self):
        rng = np.random.default_rng(3)
        pair = _linear_pair(2)
        state = sg_init(np.zeros(2), _hyper())
        prev_r = state.gain.r
        for k in range(100):
            state = sg_step(state, pair, rng.normal(size=2), float(rng.normal()))
            assert state.gain.r >= prev_r
            assert state.k == k + 1
            prev_r = state.gain.r

    def test_safety_law_every_step(self):
        # mu_k * ||grad f||^2 <= mu because the denominator contains the norm
        rng = np.random.default_rng(7)
        for pair, d in ((_linear_pair(4), 4), (tanh_mse_pair(3, 2), 5)):
            state = sg_init(np.zeros(d), _hyper())
            for _ in range(300):
                phi = rng.normal(size=d) * 10.0
                state = sg_step(state, pair, phi, float(rng.normal()))
                assert state.last_mu * state.last_grad_norm_sq <= 0.3

    def test_classical_mu_below_mu_over_beta3(self):
        rng = np.random.default_rng(5)
        pair = _linear_pair(2)
        state = sg_init(np.zeros(2), _hyper())
        for _ in range(100):
            state = classical_sg_step(state, pair, rng.normal(size=2), float(rng.normal()))
            assert state.last_mu < 0.3 / 2.0

    def test_bit_identical_replay(self):
        rng = np.random.default_rng(23)
        data = [(rng.normal(size=3), float(rng.normal())) for _ in range(150)]
        pair = _linear_pair(3)

        def run():
            s = sg_init(np.zeros(3), _hyper())
            for phi, y in data:
                s = sg_step(s, pair, phi, y)
            return s

        a, b = run(), run()
        assert np.array_equal(a.theta.values, b.theta.values)
        assert a.gain.r == b.gain.r and a.last_mu == b.last_mu

    def test_nonfinite_observation_rejected(self):
        pair = _linear_pair(2)
        state = sg_init(np.zeros(2), _hyper())
        with pytest.raises((ConfigurationError, NumericError)):
            sg_step(state, pair, np.ones(2), float("nan"))

    def test_divergence_threshold_constant(self):
        assert DIVERGENCE_NORM == 1e6


# Tolerance of the vector update against the scalar step, fixed before the
# test was written: 1e-12 relative.  The vector rows sum their dot products in
# another order and use numpy's tanh, so they may differ from the scalar step
# by a few ulps of each term.  The parameter update theta - mu*slope*g can
# cancel, so its error is measured against the magnitude of its terms.
# |phi . theta| <= 3 keeps 1 - tanh^2 >= 0.0099, where an ulp of tanh stays
# far below the tolerance.
VECTOR_RTOL = 1e-12

_row = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),  # phi
    st.lists(st.floats(-0.6, 0.6), min_size=5, max_size=5),  # theta
    st.floats(-2.0, 2.0),  # y
    st.floats(2.0, 1e4),  # r
    st.floats(-1e-12, 1e-12),  # Kahan carry
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=6), classical=st.booleans(),
       pair_name=st.sampled_from(["tanh", "linear"]))
def test_vector_update_matches_scalar_step(rows, classical, pair_name):
    hyper = _hyper(beta2=0.6666666666666666)
    pair = tanh_mse_pair(3, 2) if pair_name == "tanh" else _linear_pair(5)
    phi, theta, y, r, carry = (np.array(col, dtype=float) for col in zip(*rows))
    theta_v, r_v, carry_v, mu_v, gns_v = sg_update(theta, r, carry, phi, y, pair, hyper,
                                                   classical=classical)
    step = classical_sg_step if classical else sg_step
    for i in range(len(rows)):
        state = EstimatorState(theta=ParameterVector(theta[i]),
                               gain=GainState(r=r[i], carry=carry[i]), hyper=hyper)
        want = step(state, pair, phi[i], y[i])
        assert_allclose(gns_v[i], want.last_grad_norm_sq, rtol=VECTOR_RTOL, atol=1e-300)
        assert_allclose(r_v[i], want.gain.r, rtol=VECTOR_RTOL)
        assert_allclose(mu_v[i], want.last_mu, rtol=VECTOR_RTOL)
        f_hat = pair.predictor.eval(phi[i], theta[i])
        g = pair.predictor.grad(phi[i], theta[i])
        scale = np.abs(theta[i]) + want.last_mu * 2.0 * (abs(f_hat) + abs(y[i])) * np.abs(g)
        assert np.all(np.abs(theta_v[i] - want.theta.values) <= VECTOR_RTOL * scale)
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
        _, r_new, c_new, _, gns = sg_update(np.zeros((2, 3)), r, c, phi, np.ones(2), pair,
                                            _hyper())
        assert gns[0] == 0.0 and (r_new[0], c_new[0]) == (total, carry)
        assert r_new[1] > total

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
