"""Value types, compensated summation, hyperparameter validation, and model
and loss values through their contract methods."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sgident.core import (
    GainState,
    HyperParams,
    ModelLossPair,
    ParameterVector,
    Regressor,
    as_values,
    check_step_size_cap,
    kahan_add,
)
from sgident.errors import ConfigurationError, DomainError, NumericError
from sgident.models import (
    CrossEntropy,
    LinearModel,
    LogisticModel,
    SquaredError,
    TanhArxModel,
)
from sgident.sg import sg_update


class TestVectors:
    def test_parameter_vector_frozen_and_copied(self):
        raw = np.array([1.0, 2.0])
        theta = ParameterVector(raw)
        raw[0] = 99.0
        assert theta.values[0] == 1.0
        with pytest.raises(ValueError):
            theta.values[0] = 5.0

    def test_dim(self):
        assert ParameterVector(np.array([3.0, 4.0])).dim == 2

    def test_nonfinite_rejected(self):
        for bad in ([np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(ConfigurationError):
                ParameterVector(np.array(bad))
            with pytest.raises(ConfigurationError):
                Regressor(np.array(bad))

    def test_as_values_passthrough_and_validation(self):
        phi = Regressor(np.array([1.0, 2.0]))
        assert as_values(phi) is phi.values
        assert_allclose(as_values([1.0, 2.0]), [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            as_values(np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            as_values(np.array([]))


class TestKahan:
    def test_recovers_fsum_on_adversarial_stream(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(0, 1, 2000) * 10.0 ** rng.integers(-8, 8, 2000)
        total, carry = 0.0, 0.0
        naive = 0.0
        for x in xs:
            total, carry = kahan_add(total, carry, float(x))
            naive += float(x)
        exact = math.fsum(xs)
        assert abs(total - exact) <= abs(naive - exact)
        assert_allclose(total, exact, rtol=1e-13)

    def test_zero_increment_is_identity(self):
        total, carry = kahan_add(0.1, 3e-18, 0.0)
        assert total == 0.1 and carry == 3e-18

    def test_small_increments_not_lost(self):
        total, carry = 1.0, 0.0
        for _ in range(10_000):
            total, carry = kahan_add(total, carry, 1e-17)
        assert total + carry == pytest.approx(1.0 + 1e-13, rel=1e-10)


class TestGainState:
    def test_advanced_accumulates_exactly(self):
        g = GainState(r=2.0, k=0, carry=0.0)
        g2 = g.advanced(1.5)
        assert g2.r == 3.5 and g2.k == 1
        assert g.r == 2.0  # original untouched

    def test_zero_increment_keeps_r(self):
        g = GainState(r=2.0, k=0, carry=0.0).advanced(0.0)
        assert g.r == 2.0 and g.k == 1

    def test_negative_increment_rejected(self):
        with pytest.raises(NumericError):
            GainState(r=2.0, k=0, carry=0.0).advanced(-1e-9)


class TestHyperParams:
    def test_theorem_regime_combinations(self):
        HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0)
        HyperParams(mu=0.3, beta1=0.5, beta2=2.0 / 3.0, beta3=2.0)
        HyperParams(mu=0.3, beta1=0.7, beta2=0.0, beta3=2.0)
        HyperParams(mu=0.3, beta1=1.0, beta2=0.0, beta3=2.0)

    def test_outside_regime_rejected_without_flag(self):
        with pytest.raises(ConfigurationError):
            HyperParams(mu=0.3, beta1=0.5, beta2=0.0, beta3=2.0)
        with pytest.raises(ConfigurationError):
            HyperParams(mu=0.3, beta1=0.4, beta2=0.6, beta3=2.0)
        # the escape hatch admits the same combination
        h = HyperParams(mu=0.3, beta1=0.5, beta2=0.0, beta3=2.0, outside_theorem_regime=True)
        assert not h.in_theorem_regime()

    def test_beta3_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=1.0)

    def test_mu_open_interval(self):
        for mu in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                HyperParams(mu=mu, beta1=0.5, beta2=0.51, beta3=2.0)


class TestStepSizeCap:
    def test_declared_constants_enforced(self):
        pair = ModelLossPair(LinearModel(2), SquaredError(), delta=2.0, c1=4.0, c2=0.0)
        hyper = HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0)
        assert check_step_size_cap(hyper, pair) == 1.0  # min(1, 2*2/4)
        tight = ModelLossPair(LinearModel(2), SquaredError(), delta=0.5, c1=4.0, c2=0.0)
        with pytest.raises(ConfigurationError):
            check_step_size_cap(hyper, tight)  # cap 0.25 < 0.3

    def test_undeclared_constants_return_none(self):
        pair = ModelLossPair(LinearModel(2), SquaredError())
        hyper = HyperParams(mu=0.9, beta1=0.5, beta2=0.51, beta3=2.0)
        assert check_step_size_cap(hyper, pair) is None

    def test_invalid_constants_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelLossPair(LinearModel(2), SquaredError(), delta=-1.0, c1=4.0)
        with pytest.raises(ConfigurationError):
            ModelLossPair(LinearModel(2), SquaredError(), delta=2.0, c1=0.0)


class TestValidatedWrappers:
    """Model and loss values through the contract methods (``eval``,
    ``grad``, loss ``eval`` and ``in_domain``) that every step calls."""

    def test_linear_inner_product(self):
        model = LinearModel(2)
        assert model.eval(np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0
        assert_allclose(model.grad(np.array([1.0, 2.0]), np.array([3.0, -1.0])), [1.0, 2.0])

    def test_tanh_zero_regressor(self):
        model = TanhArxModel(3, 2)
        assert model.eval(np.zeros(5), np.ones(5)) == 0.0
        # sech^2(0) = 1, so the gradient is the regressor itself
        phi = np.array([0.2, -0.1, 0.0, 0.3, 0.1])
        theta = np.zeros(5)
        assert_allclose(model.grad(phi, theta), phi)

    def test_mse_values(self):
        loss = SquaredError()
        assert loss.eval(2.0, 2.0) == 0.0
        assert loss.eval(3.0, 1.0) == 4.0
        assert loss.grad_x(3.0, 1.0) == -4.0
        assert loss.grad_x(3.0, 3.0) == 0.0

    def test_cross_entropy_domain(self):
        loss = CrossEntropy()
        assert loss.eval(0.5, 0.5) == pytest.approx(-math.log(0.5), rel=1e-12)
        assert not loss.in_domain(0.0) and not loss.in_domain(1.0)
        assert loss.in_domain(np.array([1e-300, 0.5, 1.0 - 1e-16]))
        # the estimator step rejects a prediction on the domain's edge
        pair = ModelLossPair(LinearModel(1), loss)
        hyper = HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0)
        with pytest.raises(DomainError):
            sg_update(np.ones((1, 1)), np.full(1, 2.0), np.zeros(1), np.ones((1, 1)),
                      np.zeros(1), pair, hyper)

    def test_logistic_output_in_unit_interval(self):
        model = LogisticModel(3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = model.eval(rng.normal(size=3), rng.normal(size=3))
            assert 0.0 < v < 1.0
