"""Trace post-processing: sums, rates, noise, scores, and diagnostics.

Oracle notes
------------
* Compensated summation of 0.1 ten times yields exactly 1.0 where the naive
  left-to-right float sum gives 0.9999999999999999.
* The compensated sum of non-negative values is within one ulp of the
  correctly rounded ``math.fsum`` of the same prefix, and the minimum-phase
  ratio within 16 ulps of its exact rational evaluation.
* bound_curve with (beta1, beta2) = (1/2, 0) and alpha_eps = 1/2 is exactly
  2/sqrt(k), so its log-log slope is -1/2; with (0.9, 0) and alpha_eps = 0.3
  the k in [100, 1000] fitted slope is -0.11731432341459899 (the k^-0.1 term
  dominates but the k^-0.7 term still bends the fit).
* bound_curve with (1/2, 0.51), alpha_eps = 1/2 at k = 10 equals
  ln(10)^0.51/sqrt(10) + 1/sqrt(10) = 0.8000992195472612; at k = 1 the log
  factor vanishes and the value is exactly 1.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _oracle_compensated_cumsum
from sgident.control import Trace
from sgident.core import HyperParams
from sgident.errors import ConfigurationError, DataError
from sgident.metrics import (
    MinPhaseScan,
    SumScan,
    bound_curve,
    compensated_cumsum,
    gradient_noise,
    gradient_norms_sq,
    minimum_phase_ratio,
    realized_noise,
    regret_sum,
    relative_error_metric,
    robbins_siegmund_diag,
    running_mean,
    tracking_error,
)
from sgident.models import catalog_pair


def _trace(**cols):
    """Build a Trace from parallel column lists."""
    n = len(next(iter(cols.values())))
    columns = {name: np.array(vals, dtype=float) for name, vals in cols.items()}
    return Trace(k=np.arange(n), **columns)


@st.composite
def _kahan_streams(draw):
    """Mixed-sign values from 1e-300 to 1e300 or near 1, each followed by a run of +-0.0.

    A zero after a step that left a rounding carry is where ``kahan_add``
    skips its step; taking it there moves the total by an ulp.
    """
    sign = st.sampled_from([-1.0, 1.0])
    mantissa = st.floats(1.0, 10.0, exclude_max=True)
    exponent = st.integers(-300, 299) | st.integers(-3, 3)
    value = st.tuples(sign, mantissa, exponent).map(lambda t: t[0] * t[1] * 10.0 ** t[2])
    zeros = st.lists(st.sampled_from([0.0, -0.0]), max_size=3)
    segments = draw(st.lists(st.tuples(value, zeros), max_size=40))
    return [v for head, run in segments for v in (head, *run)]


class TestKahanCumsum:
    def test_compensates_decimal_fractions(self):
        out = compensated_cumsum([0.1] * 10)
        assert out[-1] == 1.0
        assert sum([0.1] * 10) != 1.0  # the naive sum this improves on

    def test_matches_exact_integer_cumsum(self):
        rng = np.random.default_rng(3)
        vals = rng.integers(-100, 100, size=200).astype(float)
        assert np.array_equal(compensated_cumsum(vals), np.cumsum(vals))

    def test_empty_input(self):
        assert compensated_cumsum([]).size == 0

    @settings(max_examples=300, deadline=None)
    @given(values=_kahan_streams())
    @example(values=[-0.04472710335811704, 0.20411724473324613, -0.0])  # a zero after an error
    def test_bit_equal_to_the_scalar_reference(self, values):
        got = compensated_cumsum(values)
        expected = _oracle_compensated_cumsum(values)
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1e290), max_size=60))
    def test_non_negative_sums_within_one_ulp_of_fsum(self, values):
        got = compensated_cumsum(values).view(np.int64)
        exact = np.array([math.fsum(values[: i + 1]) for i in range(len(values))])
        assert np.abs(got - exact.view(np.int64)).max(initial=0) <= 1


@st.composite
def _cut_streams(draw):
    """A seeded stream of 0..1100 steps and consecutive pieces covering it.

    Cuts next to multiples of 32 and of 512 steps are drawn often, and a
    piece may be empty.
    """
    n = draw(st.integers(0, 1100))
    seams = [m for m in (1, 31, 32, 33, 63, 511, 512, 513, 1024, 1025) if m < n]
    cuts = draw(st.lists(st.integers(0, n) | st.sampled_from(seams or [0]), max_size=8))
    edges = [0, *sorted(cuts), n]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, n, list(zip(edges, edges[1:]))


def _oracle_min_phase_ratios(lam, y, u, w):
    """The min-phase ratios of one series, step by step in Python floats."""
    weighted, u_prev, out = 0.0, None, []
    for y_k, u_k, w_k in zip(y.tolist(), u.tolist(), w.tolist()):
        if u_prev is None:
            out.append(0.0)
        else:
            out.append(u_prev * u_prev / weighted if weighted > 0.0 else math.inf)
        weighted = lam * weighted + (y_k * y_k + w_k * w_k)
        u_prev = u_k
    return np.array(out)


class TestScansCarryAcrossCuts:
    """A scan fed its input in consecutive pieces gives the bits of one feed."""

    @settings(max_examples=60, deadline=None)
    @given(stream=_cut_streams())
    def test_sum_scan_cumsum_is_bit_identical_for_any_cuts(self, stream):
        rng, n, pieces = stream
        values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
        values[rng.random(n) < 0.1] = 0.0
        scan = SumScan()
        got = np.concatenate([scan.cumsum(values[a:b]) for a, b in pieces])
        whole = SumScan()
        assert got.tobytes() == whole.cumsum(values).tobytes()
        assert (scan.total, scan.count) == (whole.total, whole.count)

    @settings(max_examples=60, deadline=None)
    @given(stream=_cut_streams(), lam=st.sampled_from([0.1, 0.5, 0.9, 0.99]))
    def test_min_phase_ratios_are_bit_identical_for_any_cuts(self, stream, lam):
        rng, n, pieces = stream
        y, u, w = rng.normal(size=(3, n)) * [[1.0], [3.0], [0.1]]
        scan = MinPhaseScan(lam)
        got = np.concatenate([scan.ratios(y[a:b], u[a:b], w[a:b]) for a, b in pieces])
        assert got.tobytes() == MinPhaseScan(lam).ratios(y, u, w).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(stream=_cut_streams(), lam=st.sampled_from([0.1, 0.5, 0.9, 0.99]),
           cells=st.sampled_from([None, 1, 3]))
    def test_min_phase_ratios_are_the_scalar_recursion_bit_for_bit(self, stream, lam, cells):
        # fed 1-D, or as (m, S) blocks whose column i is series i fed alone
        rng, n, pieces = stream
        shape = (n,) if cells is None else (n, cells)
        y, u, w = (rng.normal(size=shape) * scale
                   for scale in (10.0 ** rng.integers(-3, 4), 3.0, 0.1))
        scan = MinPhaseScan(lam)
        got = np.concatenate([scan.ratios(y[a:b], u[a:b], w[a:b]) for a, b in pieces])
        if cells is None:
            got, y, u, w = (a[:, None] for a in (got, y, u, w))
        for i in range(got.shape[1]):
            expected = _oracle_min_phase_ratios(lam, y[:, i], u[:, i], w[:, i])
            assert got[:, i].view(np.int64).tolist() == expected.view(np.int64).tolist(), i

    @settings(max_examples=30, deadline=None)
    @given(lam=st.sampled_from([0.1, 0.5, 0.9, 0.99]), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 200))
    def test_min_phase_ratios_within_16_ulps_of_exact(self, lam, seed, n):
        rng = np.random.default_rng(seed)
        y, u, w = rng.normal(size=(3, n)) * [[10.0 ** rng.integers(-3, 4)], [3.0], [0.1]]
        weighted, exact = Fraction(0), [0.0]
        for k in range(n):
            if k:
                exact.append(float(Fraction(u[k - 1]) ** 2 / weighted))
            weighted = Fraction(lam) * weighted + Fraction(y[k]) ** 2 + Fraction(w[k]) ** 2
        got = MinPhaseScan(lam).ratios(y, u, w).view(np.int64)
        assert np.abs(got - np.array(exact).view(np.int64)).max() <= 16


class TestRunningMean:
    def test_average_and_final(self):
        values = np.array([1.0, 3.0])
        assert np.array_equal(running_mean(values), [1.0, 2.0])
        assert compensated_cumsum(values)[-1] == 4.0
        # ten 0.1s sum to exactly 1.0 only when compensated
        assert running_mean([0.1] * 10)[-1] == 0.1

    def test_empty_input(self):
        assert running_mean([]).size == 0


class TestTraceColumns:
    def test_realized_noise_is_y_minus_f_true(self):
        trace = _trace(y=[0.6, 0.1], f_true=[0.5, 0.3])
        assert np.array_equal(realized_noise(trace), [0.6 - 0.5, 0.1 - 0.3])

    def test_gradient_norms_are_the_increments_of_r(self):
        trace = _trace(r_k=[2.5, 2.5, 4.0])
        assert np.array_equal(gradient_norms_sq(trace, beta3=2.0), [0.5, 0.0, 1.5])

    def test_empty_column_reported(self):
        with pytest.raises(ConfigurationError, match="r_k"):
            gradient_norms_sq(_trace(y=[1.0]), beta3=2.0)


class TestRegret:
    def test_perfect_estimates_score_zero(self):
        trace = _trace(f_true=[0.3, -1.2, 5.0], f_est=[0.3, -1.2, 5.0])
        s = regret_sum(trace)
        assert np.array_equal(s, np.zeros(3))
        assert compensated_cumsum(s)[-1] == 0.0

    def test_squared_error_hand_values(self):
        # (1-0.5)^2 = 0.25 and (2-3)^2 = 1, cumulative (0.25, 1.25)
        trace = _trace(f_true=[1.0, 2.0], f_est=[0.5, 3.0])
        s = regret_sum(trace)
        assert np.array_equal(s, [0.25, 1.0])
        assert np.array_equal(compensated_cumsum(s), [0.25, 1.25])
        assert np.array_equal(running_mean(s), [0.25, 0.625])

    def test_loss_floor_subtracted_for_cross_entropy(self):
        # cross-entropy of a perfect probability is its own entropy, not 0;
        # the floor subtraction must still score a perfect estimate as 0
        pair, _ = catalog_pair("logistic")
        trace = _trace(f_true=[0.3, 0.8], f_est=[0.3, 0.8])
        s = regret_sum(trace, loss=pair.loss)
        assert np.allclose(s, 0.0, atol=1e-15)

    def test_missing_column_reported(self):
        trace = _trace(f_true=[1.0])  # f_est left empty
        with pytest.raises(ConfigurationError, match="f_est"):
            regret_sum(trace)


class TestTrackingError:
    def test_conditional_and_proxy_split(self):
        trace = _trace(y_star=[0.5, 0.5], f_true=[0.6, 0.4], y=[0.7, 0.3])
        cond, proxy = tracking_error(trace)
        assert np.allclose(cond, [0.01, 0.01])
        assert np.allclose(proxy, [0.04, 0.04])
        assert abs(running_mean(cond)[-1] - 0.01) < 1e-15
        assert abs(running_mean(proxy)[-1] - 0.04) < 1e-15


class TestBoundCurve:
    def test_pure_power_slope_is_exact(self):
        hyper = HyperParams(mu=0.3, beta1=0.5, beta2=0.0, beta3=2.0,
                            outside_theorem_regime=True)
        s = bound_curve(hyper, 0.5, 1000)
        k = np.arange(1, 1001, dtype=float)
        assert np.allclose(s, 2.0 / np.sqrt(k), rtol=1e-15)
        m = k >= 100
        slope = np.polyfit(np.log(k[m]), np.log(s[m]), 1)[0]
        assert abs(slope + 0.5) < 1e-12

    def test_mixed_power_slope(self):
        hyper = HyperParams(mu=0.3, beta1=0.9, beta2=0.0, beta3=2.0)
        s = bound_curve(hyper, 0.3, 1000)
        k = np.arange(1, 1001, dtype=float)
        m = k >= 100
        slope = np.polyfit(np.log(k[m]), np.log(s[m]), 1)[0]
        assert abs(slope - (-0.11731432341459899)) < 1e-9

    def test_log_factor_values(self):
        hyper = HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0)
        s = bound_curve(hyper, 0.5, 10)
        assert s[0] == 1.0
        assert abs(s[-1] - 0.8000992195472612) < 1e-15

    def test_validation(self):
        hyper = HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0)
        with pytest.raises(ConfigurationError):
            bound_curve(hyper, 0.0, 10)
        with pytest.raises(ConfigurationError):
            bound_curve(hyper, 1.0, 10)
        with pytest.raises(ConfigurationError):
            bound_curve(hyper, 0.5, 0)


class TestGradientNoise:
    def test_squared_error_recovers_minus_two_w(self):
        # y = f_true + w with w = (0.1, -0.2) gives noise (-0.2, 0.4)
        pair, _ = catalog_pair("tanh_mse")
        trace = _trace(y=[0.6, 0.1], f_true=[0.5, 0.3], f_est=[0.2, 0.9])
        assert np.allclose(gradient_noise(trace, pair), [-0.2, 0.4], atol=1e-15)

    def test_matches_direct_loss_gradient_difference(self):
        pair, _ = catalog_pair("logistic")
        y = [1.0, 0.0, 1.0]
        f_true = [0.7, 0.2, 0.6]
        f_est = [0.5, 0.4, 0.8]
        trace = _trace(y=y, f_true=f_true, f_est=f_est)
        got = gradient_noise(trace, pair)
        want = [pair.loss.grad_x(a, c) - pair.loss.grad_x(b, c)
                for a, b, c in zip(y, f_true, f_est)]
        assert np.allclose(got, want, rtol=1e-15)


class TestRelativeErrorMetric:
    def test_hand_value(self):
        assert relative_error_metric([1.0, 2.0], [2.0, 4.0]) == 0.5

    def test_nonpositive_target_is_a_data_error_naming_its_row(self):
        # a row index is not a file line, so the error carries none
        with pytest.raises(DataError, match="at row 1$") as exc:
            relative_error_metric([1.0, 1.0, 1.0], [2.0, 0.0, 3.0])
        assert exc.value.line is None

    def test_shape_and_emptiness_validation(self):
        with pytest.raises(ConfigurationError):
            relative_error_metric([1.0], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            relative_error_metric([], [])


class TestRobbinsSiegmund:
    def test_convergent_schedule_passes(self):
        # mu_k = 1/k on unit gradients: sum 1/k^2 converges, tail share ~1e-4
        k = np.arange(1, 10_001, dtype=float)
        rep = robbins_siegmund_diag(1.0 / k, np.ones_like(k))
        assert rep.passed
        assert rep.tail_fraction < 0.001
        assert abs(rep.total - np.sum(1.0 / k**2)) < 1e-9

    def test_divergent_schedule_fails(self):
        # mu_k = 1/sqrt(k): sum 1/k diverges, last half keeps ln(2)/ln(n) mass
        k = np.arange(1, 10_001, dtype=float)
        rep = robbins_siegmund_diag(1.0 / np.sqrt(k), np.ones_like(k))
        assert not rep.passed
        assert rep.tail_fraction > 0.05

    def test_hand_partial_sums(self):
        # terms (0.25, 1.0): tail = 1.0 of total 1.25 -> share 0.8, FAIL
        rep = robbins_siegmund_diag([0.5, 1.0], [1.0, 1.0])
        assert abs(rep.total - 1.25) < 1e-15
        assert abs(rep.tail_fraction - 0.8) < 1e-15
        assert not rep.passed

    def test_small_tail_is_not_cancelled(self):
        # terms (1, 1e-18): the total rounds to 1.0, so total minus the head
        # sum gives 0.0; the tail summed on its own is the second term
        rep = robbins_siegmund_diag([1.0, 1e-9], [1.0, 1.0])
        assert rep.total == 1.0
        assert rep.tail_fraction == 1e-9**2
        assert rep.passed

    def test_single_step_counts_as_all_tail(self):
        rep = robbins_siegmund_diag([0.5], [1.0])
        assert rep.tail_fraction == 1.0
        assert not rep.passed

    def test_zero_mass_passes(self):
        rep = robbins_siegmund_diag([0.5, 0.5], [0.0, 0.0])
        assert rep.passed and rep.total == 0.0
        rep = robbins_siegmund_diag([], [])
        assert rep.passed

    def test_trace_route_matches_array_route(self):
        # r_k = 2 + 1 = 3, then 3 + 4 = 7: the increments give back (1, 4)
        trace = _trace(mu_k=[0.5, 0.25], r_k=[3.0, 7.0])
        a = robbins_siegmund_diag(trace.mu_k, gradient_norms_sq(trace, beta3=2.0))
        b = robbins_siegmund_diag([0.5, 0.25], [1.0, 4.0])
        assert a == b

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            robbins_siegmund_diag([0.5], [1.0, 1.0])

    def test_summary_wording(self):
        assert robbins_siegmund_diag([0.5], [1.0]).summary().endswith("FAIL")


class TestMinimumPhaseRatio:
    def test_hand_recursion(self):
        # lam = 0.5: weighted after k=0 is 1, so vals[1] = 3^2/1 = 9
        trace = _trace(y=[1.0, 2.0], u=[3.0, 1.0], f_true=[1.0, 2.0])  # w = 0
        s = minimum_phase_ratio(trace, lam=0.5)
        assert np.array_equal(s, [0.0, 9.0])

    def test_noise_enters_as_y_minus_f_true(self):
        # w_0 = 1 - 0 = 1, so weighted after k=0 is 0^2 + 1^2 = 1 and vals[1] = 4
        trace = _trace(y=[0.0, 1.0], u=[2.0, 0.0], f_true=[-1.0, 1.0])
        s = minimum_phase_ratio(trace, lam=0.5)
        assert np.array_equal(s, [0.0, 4.0])

    def test_zero_history_reports_inf(self):
        trace = _trace(y=[0.0, 1.0], u=[2.0, 0.0], f_true=[0.0, 1.0])
        s = minimum_phase_ratio(trace, lam=0.5)
        assert math.isinf(s[1])

    def test_lambda_validation(self):
        trace = _trace(y=[1.0], u=[1.0], f_true=[1.0])
        with pytest.raises(ConfigurationError):
            minimum_phase_ratio(trace, lam=1.0)

