"""Closed-loop building blocks: noise stream, control solve, runner.

Oracle notes
------------
* Philox(key=5) first 53-bit uniform is 0.7337459554446364; through the
  Gaussian inverse CDF with std 2 that is 1.2483639315699588 correctly
  rounded (mpmath), and 1.248363931569959, 1 ulp above, through AS 241.
* With all lags zero and theta = (0, 0, 0, 0.6, 0) the saturated lag model
  reduces to f(u) = tanh(0.6 u); the input placing it on target 0.3 is
  atanh(0.3)/0.6 = 0.5158660070051863.
* With the regressor row (-0.1, 0.4, 0, u, 0.5) (outputs y_k..y_{k-2},
  the input slot, u_{k-1}) and theta = (0.01, 3.0, -0.1, 0.6, -0.3) the
  non-input part of the preactivation is 1.049, so the target 0.25 needs
  u = (atanh(0.25) - 1.049)/0.6 = -1.3226453135283414.
"""

import json
import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _oracle_compensated_cumsum, drawn
import sgident.bench as bench
import sgident.control as control_mod
from sgident.control import (
    TRACE_COLUMNS,
    ControlConfig,
    NoiseSource,
    Plant,
    Trace,
    _bisect_control,
    closed_loop_chunks,
    normal_quantile,
    run_closed_loop_batch,
    solve_control,
    solve_control_rows,
)
from sgident.core import HyperParams, ModelLossPair, row_dots
from sgident.errors import ConfigurationError, DomainError, NumericError
from sgident.metrics import gradient_norms_sq
from sgident.models import (
    CrossEntropy,
    LinearModel,
    LogisticModel,
    SaturatedMeanModel,
    SaturationSpec,
    TanhArxModel,
    linear_mse_pair,
    logistic_pair,
    saturation_pair,
    tanh_arx_model,
    tanh_mse_pair,
)
from sgident.sg import DIVERGENCE_NORM, sg_init, sg_update

# the bits of a step's flags bitmask, as a trace stores them
SATURATED, SINGULAR_GAIN, DIVERGENCE = 1, 2, 4


def _exact_normal_quantile(u):
    with mpmath.workdps(40):
        return mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(u) - 1)


def _ulps(got, exact):
    """|got - exact| in units of the last place of ``exact`` rounded to float64."""
    return float(abs(mpmath.mpf(got) - exact)) / math.ulp(float(exact))


def _target(cfg, k):
    """The target y*_{k+1} of step k: ``cfg.y_target``, or its entry k when per-step."""
    if np.ndim(cfg.y_target) == 0:
        return float(cfg.y_target)
    return float(cfg.y_target[k])


class TestNoiseSource:
    def test_first_draw_matches_inverse_cdf_oracle(self):
        src = NoiseSource(std=2.0, seed=5)
        got = src.draw()
        assert got == 1.248363931569959
        assert src.draw_count == 1
        exact = 2 * _exact_normal_quantile(0.7337459554446364)
        assert float(exact) == 1.2483639315699588
        assert _ulps(got, exact) < 1.1

    def test_first_uniform_value(self):
        src = NoiseSource(seed=5)
        assert src.draw_uniform() == 0.7337459554446364

    def test_uniforms_stay_strictly_inside_unit_interval(self):
        src = NoiseSource(seed=0)
        us = [src.draw_uniform() for _ in range(2000)]
        assert 0.0 < min(us) and max(us) < 1.0
        assert src.draw_count == 2000

    def test_only_the_top_raw_draw_is_clamped_below_1(self):
        # (n + 0.5) * 2^-53 rounds to an even integer over 2^53 from n = 2^52 on,
        # so n = 2^53 - 1 gives 1.0, where the quantile is nan
        n = np.array([0, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.int64)
        u = control_mod._lattice_uniforms(n)
        assert u.tolist() == [2.0**-54, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
        assert ((n + 0.5) * 2.0**-53).tolist() == [*u.tolist()[:3], 1.0]
        assert np.isfinite(normal_quantile(u)).all()

    def test_scalar_and_block_draws_take_the_clamped_uniform(self):
        class TopDraw:
            """A generator whose every raw draw is the largest, 2^53 - 1."""

            def integers(self, low, high, size=None):
                return np.int64(high - 1) if size is None else np.full(size, high - 1)

        src = NoiseSource(seed=0)
        src._gen = TopDraw()
        assert src.draw_uniform() == 1.0 - 2.0**-53
        assert src.uniform_block(3).tolist() == [1.0 - 2.0**-53] * 3
        assert math.isfinite(src.draw()) and np.isfinite(src.draw_block(2)).all()

    def test_same_seed_replays_bitwise(self):
        a = NoiseSource(std=0.7, seed=11)
        b = NoiseSource(std=0.7, seed=11)
        assert [a.draw() for _ in range(100)] == [b.draw() for _ in range(100)]

    def test_distinct_seeds_differ(self):
        a = NoiseSource(seed=1)
        b = NoiseSource(seed=2)
        assert a.draw() != b.draw()

    def test_with_seed_matches_fresh_source(self):
        proto = NoiseSource(std=0.3, seed=0, kind="student_t", df=6.0)
        child = proto.with_seed(9)
        fresh = NoiseSource(std=0.3, seed=9, kind="student_t", df=6.0)
        assert [child.draw() for _ in range(20)] == [fresh.draw() for _ in range(20)]
        assert proto.draw_count == 0

    def test_gaussian_sample_moments(self):
        src = NoiseSource(std=1.5, seed=42)
        xs = src.draw_block(50_000)  # the scalar draws, bit for bit (see below)
        assert abs(xs.mean()) < 0.03
        assert abs(xs.std() - 1.5) < 0.03

    def test_student_t_sample_variance(self):
        # var of t_5 is 5/3; scale 1 keeps it there
        src = NoiseSource(std=1.0, seed=42, kind="student_t", df=5.0)
        xs = src.draw_block(50_000)
        assert abs(xs.var() - 5.0 / 3.0) < 0.12

    @pytest.mark.parametrize("kind,df", [("gaussian", None), ("student_t", 5.0)])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_block_matches_scalar_draws_bitwise(self, kind, df, seed):
        scalar = NoiseSource(std=0.3, seed=seed, kind=kind, df=df)
        block = NoiseSource(std=0.3, seed=seed, kind=kind, df=df)
        want = [scalar.draw() for _ in range(5000)]
        got = block.draw_block(5000)
        assert [float(v) for v in got] == want
        assert block.draw_count == scalar.draw_count == 5000
        # the stream continues where the block stopped
        assert block.draw() == scalar.draw()
        # the uniforms behind Bernoulli labels come from the same words
        want = [scalar.draw_uniform() for _ in range(5000)]
        assert block.uniform_block(5000).tolist() == want
        assert block.draw_count == scalar.draw_count == 10_001

    @pytest.mark.parametrize("kind,df", [("gaussian", None), ("student_t", 5.0)])
    def test_blocks_drawn_in_chunks_equal_one_block(self, kind, df):
        # the closed loop draws its noise one chunk of steps at a time
        whole = NoiseSource(std=0.3, seed=9, kind=kind, df=df).draw_block(1650)
        chunked = NoiseSource(std=0.3, seed=9, kind=kind, df=df)
        parts = [chunked.draw_block(m) for m in (512, 512, 1, 0, 37, 588)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NoiseSource(std=-0.1)
        with pytest.raises(ConfigurationError):
            NoiseSource(kind="uniform")
        with pytest.raises(ConfigurationError):
            NoiseSource(kind="student_t")  # df missing
        with pytest.raises(ConfigurationError):
            NoiseSource(kind="student_t", df=2.0)  # variance undefined


# lattice uniforms (n + 0.5) / 2^53 as NoiseSource draws them: n log-uniform
# over [0, 2^52], so the lower tail down to 2^-54 comes up as often as the
# centre, and mirrored to 2^53 - 2 - n for the upper tail, whose uniforms
# round to even multiples of 2^-53 (n = 2^53 - 1 would round to 1.0)
_LATTICE_N = st.integers(0, 52).flatmap(lambda e: st.integers(0, 2**e))


@settings(max_examples=300, deadline=None)
@given(ns=st.lists(st.tuples(_LATTICE_N, st.booleans()), min_size=1, max_size=16))
def test_normal_quantile_is_within_8_ulp_of_mpmath_on_lattice_uniforms(ns):
    # AS 241 measured at most 6.45 ulp over 300,000 lattice uniforms, both tails included
    n = np.array([2**53 - 2 - n if upper else n for n, upper in ns], dtype=np.int64)
    u = (n + 0.5) * 2.0**-53
    got = normal_quantile(u)
    for g, v in zip(got.tolist(), u.tolist()):
        assert _ulps(g, _exact_normal_quantile(v)) <= 8.0, v
    # a value alone gets the bits it gets in a block
    assert [normal_quantile(np.array([v]))[0] for v in u.tolist()] == got.tolist()


def test_normal_quantile_is_odd_about_one_half():
    assert normal_quantile(np.array([0.5])).tobytes() == np.array([0.0]).tobytes()
    # dyadic p, so that 1 - p is exact, in the centre and in both tail forms
    p = 2.0 ** -np.array([52.0, 40, 37, 30, 20, 7, 4, 3, 2]) * 3
    assert (normal_quantile(p) == -normal_quantile(1.0 - p)).all()


class _TanhWithoutInverse(TanhArxModel):
    """The tanh lag model with its closed-form inverse hidden: bisection only."""

    link_inv = None


@pytest.fixture
def bisect_calls(monkeypatch):
    calls = []
    original = control_mod._bisect_control

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(control_mod, "_bisect_control", counting)
    return calls


class TestSolveControl:
    cfg = ControlConfig(y_target=0.5, u_max=1000.0, b_eps=1e-8, root_tol=1e-10)

    def test_tanh_closed_form_zero_state(self):
        model = tanh_arx_model(p=3, q=2)
        theta = np.array([0.0, 0.0, 0.0, 0.6, 0.0])
        u, flags = solve_control(model, theta, np.zeros(5), 3, 0.3, self.cfg, u_prev=0.0)
        assert flags == ()
        assert abs(u - 0.5158660070051863) < 1e-8
        assert abs(math.tanh(0.6 * u) - 0.3) <= 1e-10

    def test_tanh_closed_form_with_history(self):
        model = tanh_arx_model(p=3, q=2)
        phi = np.array([-0.1, 0.4, 0.0, 0.0, 0.5])
        theta = np.array([0.01, 3.0, -0.1, 0.6, -0.3])
        u, flags = solve_control(model, theta, phi, 3, 0.25, self.cfg, u_prev=0.0)
        assert flags == ()
        assert abs(u - (-1.3226453135283414)) < 1e-8

    def test_unreachable_target_saturates(self):
        model = tanh_arx_model(p=3, q=2)
        theta = np.array([0.0, 0.0, 0.0, 0.6, 0.0])
        cfg = ControlConfig(u_max=10.0)
        u, flags = solve_control(model, theta, np.zeros(5), 3, 1.5, cfg, u_prev=0.0)
        assert "saturated" in flags
        assert u == 10.0  # tanh is increasing, best endpoint is +u_max

    def test_zero_gain_holds_previous_input(self):
        model = tanh_arx_model(p=3, q=2)
        theta = np.zeros(5)
        u, flags = solve_control(model, theta, np.zeros(5), 3, 0.5, self.cfg, u_prev=0.3)
        assert flags == ("singular_gain",)
        assert u == 0.3

    def test_target_already_met_short_circuits(self):
        # residual check precedes the gain check, so a dead model on target
        # returns cleanly instead of flagging singular_gain
        model = tanh_arx_model(p=3, q=2)
        u, flags = solve_control(model, np.zeros(5), np.zeros(5), 3, 0.0, self.cfg, u_prev=0.2)
        assert flags == ()
        assert u == 0.2

    def test_link_models_invert_in_closed_form(self, bisect_calls):
        # p = 1, q = 2: the row is (y_k, input slot, u_{k-1})
        theta = np.array([0.7, -0.8, 0.3])
        for model, y_star in ((LinearModel(3), 2.5), (TanhArxModel(1, 2), -0.6),
                              (LogisticModel(3), 0.85)):
            u, flags = solve_control(model, theta, np.array([0.4, 0.0, 0.2]), 1, y_star,
                                     self.cfg, u_prev=0.0)
            assert flags == ()
            phi = np.array([0.4, u, 0.2])
            assert abs(model.eval(phi, theta) - y_star) <= 1e-15
        assert bisect_calls == []

    def test_target_outside_link_range_saturates_at_better_endpoint(self, bisect_calls):
        cfg = ControlConfig(u_max=10.0)
        cases = [
            # (model, input coefficient, target, endpoint nearest the target)
            (TanhArxModel(1, 1), 0.6, 1.5, 10.0),
            (TanhArxModel(1, 1), 0.6, -1.0, -10.0),
            (TanhArxModel(1, 1), -0.6, 1.5, -10.0),  # decreasing in u
            (LogisticModel(2), 0.6, 1.2, 10.0),
            (LogisticModel(2), 0.6, 0.0, -10.0),
        ]
        for model, cu, y_star, want in cases:
            u, flags = solve_control(model, np.array([0.1, cu]), np.zeros(2), 1, y_star, cfg)
            assert (u, flags) == (want, ("saturated",)), (model.name, cu, y_star)
        assert bisect_calls == []

    def test_root_beyond_u_max_saturates_at_nearer_endpoint(self, bisect_calls):
        model = tanh_arx_model(p=3, q=2)
        theta = np.array([0.0, 0.0, 0.0, 0.6, 0.0])
        cfg = ControlConfig(u_max=0.1)
        # the root is 0.5159, above u_max
        assert solve_control(model, theta, np.zeros(5), 3, 0.3, cfg) == (0.1, ("saturated",))
        assert solve_control(model, theta, np.zeros(5), 3, -0.3, cfg) == (-0.1, ("saturated",))
        assert bisect_calls == []

    def test_short_circuit_keeps_previous_input_over_closed_form(self, bisect_calls):
        model = tanh_arx_model(p=3, q=2)
        theta = np.array([0.0, 0.0, 0.0, 0.6, 0.0])
        y_star = math.tanh(0.6 * 0.3) + 5e-11  # within root_tol of u_prev = 0.3
        assert solve_control(model, theta, np.zeros(5), 3, y_star, self.cfg, u_prev=0.3) == (
            0.3, ())
        # a clipped u_prev is the candidate the short-circuit checks
        cfg = ControlConfig(u_max=0.3)
        assert solve_control(model, theta, np.zeros(5), 3, y_star, cfg, u_prev=4.0) == (0.3, ())
        assert bisect_calls == []

    def test_singular_gain_precedes_closed_form(self):
        # tanh is flat at a huge preactivation: hold u_prev even though
        # atanh would give a finite input
        model = tanh_arx_model(p=3, q=2)
        theta = np.array([0.0, 0.0, 0.0, 0.6, 0.0])
        assert solve_control(model, theta, np.zeros(5), 3, 0.2, self.cfg, u_prev=100.0) == (
            100.0, ("singular_gain",))

    def test_models_without_inverse_take_bisection(self, bisect_calls):
        censored = SaturatedMeanModel(SaturationSpec(-1.0, 1.0), 2)
        theta = np.array([0.2, 0.8])
        phi = np.array([0.5, 7.0])
        u, flags = solve_control(censored, theta, phi, 1, 0.3, self.cfg)
        assert flags == ()
        assert abs(float(censored.link(0.1 + 0.8 * u)) - 0.3) <= self.cfg.root_tol
        assert phi.tolist() == [0.5, 7.0]  # the caller's row is not written
        assert len(bisect_calls) == 1

    def test_dim_mismatch_raises(self):
        model = tanh_arx_model(p=3, q=2)
        with pytest.raises(ConfigurationError):
            solve_control(model, np.zeros(4), np.zeros(5), 3, 0.3, self.cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ControlConfig(u_max=0.0)
        with pytest.raises(ConfigurationError):
            ControlConfig(root_max_iter=0)
        for target in (math.nan, math.inf, np.array([0.1, -math.inf, 0.3])):
            with pytest.raises(ConfigurationError, match="y_target must be finite"):
                ControlConfig(y_target=target)
        # a per-step target is one value per step; a 2-D one failed mid-run with a TypeError
        for target in (np.array([[0.5, 0.4]]), [[0.5], [0.4]]):
            with pytest.raises(ConfigurationError,
                               match=r"y_target must be a scalar or 1-D, got shape \(\d, \d\)"):
                ControlConfig(y_target=target)

    def test_per_step_target_lookup(self):
        cfg = ControlConfig(y_target=np.array([0.1, 0.2, 0.3]))
        assert _target(cfg, 0) == 0.1
        assert _target(cfg, 2) == 0.3
        assert _target(ControlConfig(y_target=0.4), 7) == 0.4
        assert _target(ControlConfig(y_target=np.array(0.4)), 7) == 0.4


_lag = st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    y_lags=st.tuples(_lag, _lag, _lag),
    u_lag=st.floats(-5.0, 5.0),
    theta_rest=st.tuples(*[st.floats(-2.0, 2.0)] * 4),
    cu=st.floats(0.05, 2.0),
    cu_sign=st.sampled_from([1.0, -1.0]),
    y_star=st.floats(-0.95, 0.95),
    u_prev=st.floats(-5.0, 5.0),
)
def test_closed_form_agrees_with_bisection(y_lags, u_lag, theta_rest, cu, cu_sign, y_star,
                                            u_prev):
    cfg = ControlConfig(u_max=1000.0, b_eps=1e-8, root_tol=1e-10)
    phi = np.array([*y_lags, 0.0, u_lag])
    theta = np.array([*theta_rest[:3], cu_sign * cu, theta_rest[3]])
    u_cf, flags_cf = solve_control(TanhArxModel(3, 2), theta, phi, 3, y_star, cfg, u_prev)
    u_bi, flags_bi = solve_control(_TanhWithoutInverse(3, 2), theta, phi, 3, y_star, cfg, u_prev)
    assert flags_cf == flags_bi
    if flags_cf:
        assert u_cf == u_bi
        return
    # both residuals lie within root_tol, so the inputs differ by at most
    # root_tol over the local gain
    z = float(np.dot([*y_lags, u_cf, u_lag], theta))
    gain = (1.0 - math.tanh(z) ** 2) * theta[3]
    assert abs(u_cf - u_bi) <= 1.001 * cfg.root_tol / abs(gain) + 1e-12


def _oracle_solve_control(model, theta, phi, p, y_star, cfg, u_prev=0.0):
    """The control solve of one row, case by case on Python floats.

    The short-circuit on the clipped previous input, the singular-gain
    hold, the closed form, saturation at the better endpoint and bisection,
    in that order; ``solve_control_rows`` must give every row the same
    flags bitmask and, except on closed-form rows, the same input bytes.
    """
    phi = np.array(phi, dtype=float)
    theta_v = np.asarray(theta, dtype=float)
    phi[p] = 0.0
    link_inv = getattr(model, "link_inv", None)
    base = float(np.dot(phi, theta_v))
    cu = float(theta_v[p])
    link = model.link

    def f_of_u(u):
        return link(base + cu * u)

    u0 = min(max(u_prev, -cfg.u_max), cfg.u_max)
    r0 = f_of_u(u0) - y_star
    if abs(r0) <= cfg.root_tol:
        return u0, 0
    if abs(float(model.dlink(base + cu * u_prev)) * cu) < cfg.b_eps:
        return u_prev, SINGULAR_GAIN

    if link_inv is not None:
        z_star = link_inv(y_star)
        u = math.inf if z_star is None else (z_star - base) / cu
        if abs(u) > cfg.u_max:
            r_lo = f_of_u(-cfg.u_max) - y_star
            r_hi = f_of_u(cfg.u_max) - y_star
            u, r = (-cfg.u_max, r_lo) if abs(r_lo) <= abs(r_hi) else (cfg.u_max, r_hi)
            return u, (0 if abs(r) <= cfg.root_tol else SATURATED)
        if abs(f_of_u(u) - y_star) <= cfg.root_tol:
            return u, 0
    return _bisect_control(f_of_u, y_star, u0, cfg)


_control_row = st.tuples(
    st.tuples(_lag, _lag, _lag),  # output lags
    st.floats(-5.0, 5.0),  # previous input lag
    st.tuples(*[st.floats(-2.0, 2.0)] * 4),  # non-input coefficients
    st.one_of(st.sampled_from([0.0, 1e-9]), st.floats(-2.0, 2.0)),  # input coefficient
    st.floats(-5.0, 5.0),  # u_prev
)
# every link shape the controller meets: closed form, no inverse, bounded
# ranges (tanh, logistic, censored mean) and the unbounded identity
_CONTROL_MODELS = (TanhArxModel(3, 2), _TanhWithoutInverse(3, 2), LogisticModel(5),
                   LinearModel(5), SaturatedMeanModel(SaturationSpec(-1.0, 1.0), 5))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_control_row, min_size=1, max_size=6), y_star=st.floats(-1.5, 1.5),
       u_max=st.sampled_from([0.5, 3.0, 1000.0]), root_max_iter=st.sampled_from([5, 200]),
       model=st.sampled_from(_CONTROL_MODELS))
def test_vector_controller_matches_scalar_solve(rows, y_star, u_max, root_max_iter, model):
    # row by row: equal flags, and an input within root_tol of the oracle's
    # in output, i.e. root_tol / |gain| in input; targets beyond +-1 lie
    # outside the bounded links' ranges, and 5 bisection steps exhaust the
    # interval before meeting root_tol
    cfg = ControlConfig(u_max=u_max, b_eps=1e-8, root_tol=1e-10, root_max_iter=root_max_iter)
    phi = np.array([[*y_lags, 0.0, u_lag] for y_lags, u_lag, _, _, _ in rows])
    theta = np.array([[*rest[:3], cu, rest[3]] for _, _, rest, cu, _ in rows])
    u_prev = np.array([row[4] for row in rows])
    u_v, flagged = solve_control_rows(model, theta, phi, 3, y_star, cfg, u_prev)
    for i, (y_lags, u_lag, _, _, _) in enumerate(rows):
        u_s, flags_s = _oracle_solve_control(model, theta[i], phi[i], 3, y_star, cfg,
                                             float(u_prev[i]))
        assert flagged.get(i, 0) == flags_s
        if u_v[i] == u_s:
            continue
        # only a closed-form row can differ, and the oracle took one too
        assert not flags_s
        z = float(np.dot([*y_lags, u_v[i], u_lag], theta[i]))
        gain = float(model.dlink(z)) * theta[i, 3]
        assert abs(u_v[i] - u_s) <= 1.001 * cfg.root_tol / abs(gain) + 1e-12


class TestPlantStep:
    def test_theta_star_dim_checked(self):
        pair = tanh_mse_pair(p=3, q=2)
        with pytest.raises(ConfigurationError):
            Plant(pair.predictor, np.zeros(4), NoiseSource())


def _frozen_update(theta, r, carry, phi, y, pair, hyper, classical, out):
    """Estimator step stub that never moves — the oracle controller."""
    out[...] = theta
    zeros = np.zeros(len(r))
    return out, r, carry, zeros, zeros, np.tanh(row_dots(phi, theta))


class TestRunClosedLoop:
    hyper = HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0)
    theta_star = np.array([0.01, 3.0, -0.1, 0.6, -0.3])

    def _plant_and_pair(self):
        pair = tanh_mse_pair(p=3, q=2)
        plant = Plant(pair.predictor, self.theta_star, NoiseSource(std=0.05, seed=0))
        return plant, pair

    def test_oracle_controller_sits_on_noise_floor(self, monkeypatch):
        # estimating at theta* with no updates, tracking error is w^2 alone:
        # mean ~ sigma^2 = 0.0025, and the one-step identity
        # y - y* - w = f(phi, theta*) - y* is the solver residual, which the
        # closed-form atanh inverse leaves at rounding level
        plant, pair = self._plant_and_pair()
        state = sg_init(self.theta_star, self.hyper)
        cfg = ControlConfig(y_target=0.5, root_tol=1e-10)
        monkeypatch.setattr(control_mod, "sg_update_unguarded", _frozen_update)
        trace = run_closed_loop_batch(plant, state, pair, cfg, 2000, [("modified", 1)]).cell(0)
        assert len(trace) == 2000
        assert not trace.flags.any()
        te = np.mean((trace.y - trace.y_star) ** 2)
        assert 0.002 < te < 0.003
        w = NoiseSource(std=0.05, seed=1).draw_block(2000)  # the plant's own noise
        worst = np.max(np.abs(trace.y - trace.y_star - w))
        assert worst <= 1e-14
        assert np.all(trace.regret_avg == 0.0)
        assert np.all(trace.theta_err == 0.0)

    def test_the_loop_enters_errstate_once_per_chunk(self, monkeypatch):
        # a chunk of steps runs under one np.errstate: neither the control solve
        # nor the update of a step enters its own (about a microsecond each)
        errstate, entered = np.errstate, []

        def counted(**kwargs):
            entered.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counted)
        plant, pair = self._plant_and_pair()
        n = control_mod._CHUNK + 40
        run_closed_loop_batch(plant, sg_init(np.zeros(5), self.hyper), pair,
                              ControlConfig(y_target=0.5), n, [("modified", 1), ("classical", 2)])
        assert len(entered) == 2

    @pytest.mark.parametrize("closed", [True, False], ids=["closed_loop", "prepared"])
    def test_a_clean_chunk_is_tested_once_and_never_walked(self, monkeypatch, closed):
        # the results of a chunk's steps are tested together, once per chunk;
        # the checked step and the plant's per-step test run only to walk
        # again a chunk that failed that test
        calls = dict.fromkeys(("steps_pass", "sg_update", "check_rows"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(control_mod, name, counted(name, getattr(control_mod, name)))
        n = 2 * control_mod._CHUNK + 40
        cells = [("modified", 1), ("classical", 2)]
        if closed:
            plant, pair = self._plant_and_pair()
            cfg = ControlConfig(y_target=0.5)
        else:
            plant, pair = None, linear_mse_pair(5)
            rng = np.random.default_rng(3)
            cfg = drawn((rng.normal(size=(n, 2, 5)), rng.normal(size=(n, 2)), None))
        run_closed_loop_batch(plant, sg_init(np.zeros(5), self.hyper), pair, cfg, n, cells)
        assert calls == {"steps_pass": 3, "sg_update": 0, "check_rows": 0}

    def test_a_failing_chunk_is_walked_without_its_plant(self):
        # the walk of a failing chunk reads the regressors and observations its
        # steps recorded: the plant's link runs once per step of each stepping,
        # chunk 0 once and chunk 1 twice (the spike leaves the closed form),
        # and the error is still that of the first bad step
        class SpikeNoise(NoiseSource):
            # at std 1e308 a draw at 0.5 is exactly 0; seed 4's at step 700 is -inf
            def with_seed(self, seed):
                return SpikeNoise(std=self.std, seed=seed)

            def uniform_block(self, n):
                u = np.full(n, 0.5)
                if self.seed == 4 and 0 <= 700 - self.draw_count < n:
                    u[700 - self.draw_count] = 1e-5
                self.draw_count += n
                return u

        pair = tanh_mse_pair(p=3, q=2)
        plant = Plant(tanh_arx_model(3, 2), self.theta_star, SpikeNoise(std=1e308))
        link, evaluated = plant.model.link, []
        plant.model.link = lambda z: evaluated.append(len(z)) or link(z)
        with pytest.raises(NumericError) as exc:
            run_closed_loop_batch(plant, sg_init(np.full(5, 0.01), self.hyper), pair,
                                  ControlConfig(y_target=0.5), 1100,
                                  [("modified", 2), ("modified", 4)])
        assert str(exc.value) == "observation must be finite"
        assert exc.value.context == {"k": 700, "algorithm": "modified", "seed": 4,
                                     "y": -math.inf}
        assert evaluated == [2] * (3 * control_mod._CHUNK)

    def test_a_false_alarm_chunk_keeps_the_steps_of_the_checked_update(self):
        # theta's row sum overflows, so every chunk fails the test of its
        # results, while every check of its walk passes: the run goes on,
        # each estimate beyond the divergence norm, with the bits of the
        # checked update called step by step
        pair, n = linear_mse_pair(3), 40
        rng = np.random.default_rng(5)
        phi = np.zeros((n, 1, 3))
        phi[:, :, 0] = rng.normal(size=(n, 1))
        y = rng.normal(size=(n, 1))
        theta0 = np.array([0.0, 1e308, 1e308])
        cells = [("modified", 1), ("classical", 1)]
        trace = run_closed_loop_batch(None, sg_init(theta0, self.hyper), pair,
                                      drawn((phi, y, None)), n, cells)
        assert np.all(trace.flags == DIVERGENCE)
        theta, r, carry = np.tile(theta0, (2, 1)), np.full(2, self.hyper.beta3), np.zeros(2)
        for j in range(n):
            theta, r, carry, mu_k, _, f_est = sg_update(
                theta, r, carry, phi[j, [0, 0]], y[j, [0, 0]], pair, self.hyper,
                np.array([False, True]))
            for column, expected in (("f_est", f_est), ("mu_k", mu_k), ("r_k", r)):
                assert getattr(trace, column)[j].tobytes() == expected.tobytes(), (column, j)

    def test_learning_reduces_regret_and_parameter_error(self):
        plant, pair = self._plant_and_pair()
        state = sg_init(np.full(5, 0.01), self.hyper)
        cfg = ControlConfig(y_target=0.5)
        trace = run_closed_loop_batch(plant, state, pair, cfg, 1500, [("modified", 1)]).cell(0)
        assert trace.theta_err[-1] < trace.theta_err[0]
        assert trace.regret_avg[-1] < trace.regret_avg[49]
        # r is nondecreasing and mu stays within the safety cap
        assert np.all(np.diff(trace.r_k) >= 0.0)
        grad_norm_sq = gradient_norms_sq(trace, self.hyper.beta3)
        assert np.all(trace.mu_k * grad_norm_sq <= self.hyper.mu * (1 + 1e-12))

    def test_single_step_run(self):
        plant, pair = self._plant_and_pair()
        state = sg_init(np.zeros(5), self.hyper)
        trace = run_closed_loop_batch(plant, state, pair, ControlConfig(), 1,
                                      [("modified", 4)]).cell(0)
        assert len(trace) == 1
        assert trace.k.tolist() == [0]
        # theta = 0: the gradient is the regressor (0, 0, 0, u, 0), so ||g||^2 = u^2
        assert trace.r_k[0] == 2.0 + trace.u[0] ** 2
        assert math.isfinite(trace.y[0]) and math.isfinite(trace.u[0])

    def test_divergence_flagged(self, monkeypatch):
        plant, pair = self._plant_and_pair()
        state = sg_init(np.zeros(5), self.hyper)

        def blowup_update(theta, r, carry, phi, y, pair, hyper, classical, out):
            out[...] = 1e7
            zeros = np.zeros(len(r))
            return out, r, carry, zeros, zeros, zeros

        monkeypatch.setattr(control_mod, "sg_update_unguarded", blowup_update)
        trace = run_closed_loop_batch(plant, state, pair, ControlConfig(), 1,
                                      [("modified", 4)]).cell(0)
        assert trace.flags[0] & DIVERGENCE

    def test_same_seed_reruns_bitwise(self):
        plant, pair = self._plant_and_pair()
        cfg = ControlConfig(y_target=0.5)
        runs = []
        for _ in range(2):
            state = sg_init(np.full(5, 0.01), self.hyper)
            runs.append(run_closed_loop_batch(plant, state, pair, cfg, 300,
                                              [("modified", 7)]).cell(0))
        assert runs[0] == runs[1]
        state = sg_init(np.full(5, 0.01), self.hyper)
        other = run_closed_loop_batch(plant, state, pair, cfg, 300, [("modified", 8)]).cell(0)
        assert not np.array_equal(other.y, runs[0].y)

    def test_per_step_targets_are_followed(self, monkeypatch):
        plant, pair = self._plant_and_pair()
        state = sg_init(self.theta_star, self.hyper)
        targets = np.array([0.1, -0.2, 0.3, 0.0, 0.25])
        cfg = ControlConfig(y_target=targets, root_tol=1e-10)
        monkeypatch.setattr(control_mod, "sg_update_unguarded", _frozen_update)
        trace = run_closed_loop_batch(plant, state, pair, cfg, 5, [("modified", 2)]).cell(0)
        assert trace.y_star.tolist() == list(targets)
        assert np.max(np.abs(trace.f_true - trace.y_star)) <= 1e-10

    def test_batch_rows_equal_one_seed_runs(self):
        # a cell's trace does not depend on the other cells of its batch,
        # whatever their seeds and gain laws
        plant, pair = self._plant_and_pair()
        state = sg_init(np.full(5, 0.01), self.hyper)
        cfg = ControlConfig(y_target=0.5)
        seeds = (3, 1, 4, 15, 9, 2, 6, 5, 35)
        sweep = [(algorithm, seed) for algorithm in ("modified", "classical") for seed in seeds]
        mixed = [("classical", 3), ("modified", 3), ("modified", 1), ("classical", 4),
                 ("classical", 15), ("modified", 9)]
        for cells in (sweep, mixed):
            batch = run_closed_loop_batch(plant, state, pair, cfg, 300, cells)
            for i, (algorithm, seed) in enumerate(cells):
                alone = run_closed_loop_batch(plant, state, pair, cfg, 300,
                                              [(algorithm, seed)]).cell(0)
                assert batch.cell(i) == alone

    def test_gain_law_follows_the_algorithm_name(self):
        plant, pair = self._plant_and_pair()
        state = sg_init(np.full(5, 0.01), self.hyper)
        cfg = ControlConfig(y_target=0.5)
        classical = run_closed_loop_batch(plant, state, pair, cfg, 20,
                                          [("classical", 1)]).cell(0)
        # classical gain: mu_k = mu / r_k on every step
        assert np.array_equal(classical.mu_k, self.hyper.mu / classical.r_k)
        modified = run_closed_loop_batch(plant, state, pair, cfg, 20, [("modified", 1)]).cell(0)
        assert modified.mu_k[0] < classical.mu_k[0]

    def test_numeric_error_names_step_algorithm_and_seed(self, monkeypatch):
        plant, pair = self._plant_and_pair()
        state = sg_init(np.full(5, 0.01), self.hyper)

        def failing_update(theta, r, carry, phi, y, pair, hyper, classical, out):
            if failing_update.calls == 3:
                raise NumericError("boom", context={"row": 1})
            failing_update.calls += 1
            out[...] = theta
            zeros = np.zeros(len(r))
            return out, r, carry, zeros, zeros, zeros

        failing_update.calls = 0
        monkeypatch.setattr(control_mod, "sg_update_unguarded", failing_update)
        with pytest.raises(NumericError) as exc:
            run_closed_loop_batch(plant, state, pair, ControlConfig(), 10,
                                  (("modified", 7), ("classical", 8), ("modified", 9)))
        assert exc.value.context == {"k": 3, "algorithm": "classical", "seed": 8}

    def test_too_few_per_step_targets_are_rejected_before_any_step(self, monkeypatch):
        # three targets for ten steps failed at step 3 with an IndexError
        plant, pair = self._plant_and_pair()

        def no_step(*args):
            raise AssertionError("a step ran")

        cfg = ControlConfig(y_target=np.array([0.5, 0.4, 0.3]))
        monkeypatch.setattr(control_mod, "sg_update_unguarded", no_step)
        with pytest.raises(ConfigurationError,
                           match="y_target has 3 per-step targets, fewer than 10 steps"):
            run_closed_loop_batch(plant, sg_init(np.zeros(5), self.hyper), pair, cfg, 10,
                                  [("modified", 1)])

    def test_plant_without_lag_orders_rejected(self):
        pair = tanh_mse_pair(p=3, q=2)
        from sgident.models import linear_mse_pair

        lin = linear_mse_pair(d=5)
        plant = Plant(lin.predictor, np.zeros(5), NoiseSource())
        state = sg_init(np.zeros(5), self.hyper)
        with pytest.raises(ConfigurationError):
            run_closed_loop_batch(plant, state, pair, ControlConfig(), 1, [("modified", 0)])

    def test_estimator_dim_mismatch_rejected(self):
        plant, _ = self._plant_and_pair()
        wrong_pair = tanh_mse_pair(p=2, q=2)
        state = sg_init(np.zeros(4), self.hyper)
        with pytest.raises(ConfigurationError):
            run_closed_loop_batch(plant, state, wrong_pair, ControlConfig(), 1, [("modified", 0)])


# Unit rows: (1, 0, 0, 1e-6, 0) reads y_k with a tiny input coefficient, so
# the control needed lies far beyond u_max and the row saturates; (0, 0, 0,
# 1, 0) reads only the input and reaches the target in closed form.
_SATURATING = np.array([1.0, 0.0, 0.0, 1e-6, 0.0]) / math.hypot(1.0, 1e-6)
_REACHING = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
# (row direction, the step whose update first lifts the norm above
# DIVERGENCE_NORM, None for never), around the chunk seam at k = 1024
_DIVERGING_ROWS = ((_SATURATING, 1022), (_SATURATING, 1023), (_REACHING, 1024),
                   (_SATURATING, 1024), (_REACHING, None))


def _diverging_update(log):
    """Estimator step stub: each row's norm grows by its own factor along its direction.

    Starting from norm 1, the norm after step k is growth^(k+1), so it
    crosses DIVERGENCE_NORM at the row's step with half a step to spare.
    Every call's (theta, phi, new theta), copied, goes to the dict ``log``
    under the call's r, which each step raises by 1: a chunk run again
    from its start rewrites its steps' entries, so ``log`` holds the last
    run of each chunk, in step order.
    """
    directions = np.array([direction for direction, _ in _DIVERGING_ROWS])
    growth = np.array([1.0 if k is None else DIVERGENCE_NORM ** (1.0 / (k + 0.5))
                       for _, k in _DIVERGING_ROWS])

    def update(theta, r, carry, phi, y, pair, hyper, classical, out):
        new = np.multiply(directions, (np.sqrt(row_dots(theta, theta)) * growth)[:, None], out=out)
        log[float(r[0])] = (theta.copy(), phi.copy(), new.copy())
        return new, r + 1.0, carry, np.full(len(r), 0.1), np.ones(len(r)), row_dots(phi, theta)

    return update


def _per_step_oracle(log, batch, pair, theta_star, cfg, p):
    """Flags, theta_err and regret_avg of each cell, derived step by step.

    Each step re-solves the control from the logged estimate and regressor
    for its flags, tests the norm of the updated estimate and records the
    step's regret, as a loop deriving every column per step does; the
    regret's running mean is the scalar compensated sum over step counts.
    """
    n, S = batch.f_est.shape
    flags = np.zeros((n, S), np.int64)
    theta_err, regret = np.empty((n, S)), np.empty((n, S))
    u_prev = np.zeros(S)
    for k, (theta, phi, new) in enumerate(log.values()):
        phi = phi.copy()
        u, phi[:, p] = phi[:, p].copy(), 0.0
        control = solve_control_rows(pair.predictor, theta, phi, p, _target(cfg, k), cfg,
                                     u_prev)[1]
        u_prev = u
        diverged = np.sqrt(row_dots(new, new)) > DIVERGENCE_NORM
        for i in range(S):
            flags[k, i] = control.get(i, 0) | (DIVERGENCE if diverged[i] else 0)
        gap = theta - theta_star
        theta_err[k] = np.sqrt(row_dots(gap, gap))
        f_true, f_est = batch.f_true[k], batch.f_est[k]
        regret[k] = pair.loss.eval(f_true, f_est) - pair.loss.eval(f_true, f_true)
    steps = np.arange(1, n + 1)
    regret_avg = np.column_stack([_oracle_compensated_cumsum(column) / steps for column in regret.T])
    return flags, theta_err, regret_avg


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_per_chunk_columns_equal_the_per_step_derivation(n, monkeypatch):
    # the divergence flags, theta_err and regret_avg are derived per chunk of
    # steps; across its seams they must equal the per-step derivation, with
    # a step's divergence bit joined to its control flags
    theta_star = np.array([0.01, 3.0, -0.1, 0.6, -0.3])
    plant = Plant(tanh_arx_model(3, 2), theta_star, NoiseSource(std=0.05))
    pair = linear_mse_pair(5)
    state = sg_init(_SATURATING, HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0))
    cfg = ControlConfig(y_target=0.5)
    cells = [("modified", seed) for seed in range(len(_DIVERGING_ROWS))]
    log = {}
    monkeypatch.setattr(control_mod, "sg_update_unguarded", _diverging_update(log))
    batch = run_closed_loop_batch(plant, state, pair, cfg, n, cells)
    flags, theta_err, regret_avg = _per_step_oracle(log, batch, pair, theta_star, cfg, 3)
    for i in range(len(cells)):
        trace = batch.cell(i)
        assert trace.flags.tobytes() == flags[:, i].tobytes()
        assert trace.theta_err.tobytes() == theta_err[:, i].tobytes()
        assert trace.regret_avg.tobytes() == regret_avg[:, i].tobytes()
    assert (flags & SATURATED).any()
    if n > 1024:
        # rows 0, 1 and 3 saturate as they diverge; row 2 diverges unsaturated
        both = SATURATED | DIVERGENCE
        assert flags[1022:1025].T.tolist() == [
            [both] * 3,
            [SATURATED, both, both],
            [0, 0, DIVERGENCE],
            [SATURATED, SATURATED, both],
            [0, 0, 0],
        ]


def test_chunks_hold_their_steps_of_the_joined_run(monkeypatch):
    # each chunk's cell is rows start..stop - 1 of the whole run's, step
    # numbers and flags included; only the joined run knows regret_avg.  A
    # chunk holds (m, S) columns, y_star a view of the shared targets
    plant = Plant(tanh_arx_model(3, 2), np.array([0.01, 3.0, -0.1, 0.6, -0.3]),
                  NoiseSource(std=0.05))
    pair = linear_mse_pair(5)
    state = sg_init(_SATURATING, HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0))
    cells = [("modified", seed) for seed in range(len(_DIVERGING_ROWS))]
    args = (plant, state, pair, ControlConfig(y_target=0.5), 1100, cells)
    monkeypatch.setattr(control_mod, "sg_update_unguarded", _diverging_update({}))
    joined = run_closed_loop_batch(*args)
    chunks = list(closed_loop_chunks(*args))
    assert [(c.k[0], len(c)) for c in chunks] == [(0, 512), (512, 512), (1024, 76)]
    for chunk in chunks:
        assert chunk.k.shape == (len(chunk),)
        assert chunk.f_est.shape == chunk.flags.shape == chunk.y_star.shape == (len(chunk), 5)
        assert chunk.y_star.strides[1] == 0 and chunk.regret_avg is None
    for i in range(len(cells)):
        whole = joined.cell(i)
        whole.regret_avg = None
        for chunk in chunks:
            part = chunk.cell(i)
            rows = slice(chunk.k[0], chunk.k[0] + len(part))
            assert part == Trace(**{name: None if column is None else column[rows]
                                    for name in TRACE_COLUMNS
                                    for column in [getattr(whole, name)]})
    assert joined.cell(2).flags[1024] & DIVERGENCE


def test_a_sweeps_stacked_chunk_noise_is_each_streams_draw_block(monkeypatch):
    # each chunk maps every cell's uniforms in one quantile call; column i of
    # the chunks, joined, is cell i's stream drawn whole, bit for bit
    quantile, uniform_block = NoiseSource.quantile, NoiseSource.uniform_block
    mapped, counts = [], []

    def recorded_quantile(self, u):
        out = quantile(self, u)
        mapped.append(out)
        return out

    def counted_uniform_block(self, n):
        out = uniform_block(self, n)
        counts.append((self.seed, n, self.draw_count))
        return out

    monkeypatch.setattr(NoiseSource, "quantile", recorded_quantile)
    monkeypatch.setattr(NoiseSource, "uniform_block", counted_uniform_block)
    pair = tanh_mse_pair(p=3, q=2)
    plant = Plant(pair.predictor, np.array([0.01, 3.0, -0.1, 0.6, -0.3]),
                  NoiseSource(std=0.05, seed=0))
    state = sg_init(np.array([0.0, 0.0, 0.0, 0.5, 0.0]),
                    HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0))
    cells = [("modified", 3), ("classical", 3), ("modified", 8)]
    run_closed_loop_batch(plant, state, pair, ControlConfig(y_target=0.5), 1100, cells)
    assert [block.shape for block in mapped] == [(512, 3), (512, 3), (76, 3)]
    assert counts == [(seed, m, stop) for m, stop in ((512, 512), (512, 1024), (76, 1100))
                      for _, seed in cells]
    monkeypatch.undo()
    joined = np.concatenate(mapped)
    for i, (_, seed) in enumerate(cells):
        whole = NoiseSource(std=0.05, seed=seed).draw_block(1100)
        assert joined[:, i].tobytes() == whole.tobytes()


def _sg_update_loop(pair, state, cells, n, step_inputs):
    """f_est, mu_k, r_k and the final estimates of one public ``sg_update`` call per step.

    ``step_inputs(k, theta)`` gives step k's regressor rows and observations.
    """
    S = len(cells)
    classical = np.array([algo == "classical" for algo, _ in cells])
    theta = np.tile(state.theta.values, (S, 1))
    r, carry = np.full(S, state.gain.r), np.full(S, state.gain.carry)
    f_est, mu_k, r_k = (np.empty((n, S)) for _ in range(3))
    for k in range(n):
        phi, y = step_inputs(k, theta)
        theta, r, carry, mu_k[k], _, f_est[k] = sg_update(theta, r, carry, phi, y, pair,
                                                          state.hyper, classical=classical)
        r_k[k] = r
    return f_est, mu_k, r_k, theta


def _closed_loop_inputs(plant, pair, cfg, cells, n, record=None):
    """The closed loop's step inputs, one public ``solve_control_rows`` call per step.

    Each step's u, y, f_true and flags bitmasks are appended to the lists
    of the dict ``record``, when given.
    """
    p, d, S = plant.model.p, pair.predictor.dim, len(cells)
    noise = np.stack([plant.noise.with_seed(seed).draw_block(n) for _, seed in cells], axis=1)
    theta_star = np.tile(plant.theta_star.values, (S, 1))
    phi, last = np.zeros((S, d)), {"u": np.zeros(S), "y": None}

    def step_inputs(k, theta):
        if k:
            phi[:, 1:p] = phi[:, : p - 1]
            phi[:, 0] = last["y"]
            phi[:, p + 1:] = phi[:, p: d - 1]
            phi[:, p] = 0.0
        u, flagged = solve_control_rows(pair.predictor, theta, phi, p, _target(cfg, k), cfg,
                                        last["u"])
        phi[:, p] = u
        f_true = plant.model.link(row_dots(phi, theta_star))
        y = f_true + noise[k]
        last["u"], last["y"] = u, y
        if record is not None:
            for name, value in (("u", u), ("y", y), ("f_true", f_true),
                                ("flags", [flagged.get(i, 0) for i in range(S)])):
                record[name].append(value)
        return phi, y

    return step_inputs


def _sweep_case(name):
    """(plant, state, pair, cfg, cells, step_inputs) of a 1,100-step sweep with mixed gain laws."""
    n = 1100
    rng = np.random.default_rng(11)
    if name == "censored_replay":
        phi = np.column_stack([np.ones(n), rng.uniform(0.0, 3.0, size=(n, 4))])
        latent = phi @ np.array([24.0, 12.0, 9.0, 12.0, 6.0]) + rng.normal(0.0, 5.0, size=n)
        blocks = (phi[:, None], np.clip(latent, 6.0, 120.0)[:, None], None)
        pair = saturation_pair(SaturationSpec(6.0, 120.0, 5.0), d=5)
        hyper = HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0)
        return (None, sg_init(np.zeros(5), hyper), pair, drawn(blocks),
                [("modified", 0), ("classical", 0)], lambda k, theta: (blocks[0][k], blocks[1][k]))
    if name == "logistic_cross_entropy":
        phi = rng.normal(size=(n, 2, 3))
        prob = LogisticModel(3).link(phi @ np.array([0.8, -0.5, 0.3]))
        blocks = (phi, (rng.uniform(size=(n, 2)) < prob).astype(float), None)
        cells = [("modified", 1), ("classical", 1), ("classical", 2), ("modified", 2)]
        of = np.array([0, 0, 1, 1])
        hyper = HyperParams(mu=0.1, beta1=0.5, beta2=2 / 3, beta3=2.0)
        return (None, sg_init(np.zeros(3), hyper), logistic_pair(d=3), drawn(blocks), cells,
                lambda k, theta: (blocks[0][k][of], blocks[1][k][of]))
    pair = tanh_mse_pair(p=3, q=2)
    plant = Plant(pair.predictor, np.array([0.01, 3.0, -0.1, 0.6, -0.3]),
                  NoiseSource(std=0.05))
    cfg = ControlConfig(y_target=0.5)
    cells = [("modified", 1), ("classical", 1), ("modified", 2), ("classical", 3)]
    hyper = HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0)
    return (plant, sg_init(np.full(5, 0.01), hyper), pair, cfg, cells,
            _closed_loop_inputs(plant, pair, cfg, cells, n))


@pytest.mark.parametrize("name", ["censored_replay", "logistic_cross_entropy", "tanh_closed_loop"])
def test_chunked_loop_equals_a_per_step_loop_of_sg_update(monkeypatch, name):
    # the loop steps with the unchecked update and tests each chunk once;
    # across the seams at 512 and 1024 its columns and final estimates must
    # be those of the public, checked step called once per step
    plant, state, pair, cfg, cells, step_inputs = _sweep_case(name)
    n, last = 1100, []
    unchecked = control_mod.sg_update_unguarded

    def spy(*args, **kwargs):
        result = unchecked(*args, **kwargs)
        last[:] = [result[0].copy()]
        return result

    monkeypatch.setattr(control_mod, "sg_update_unguarded", spy)
    batch = run_closed_loop_batch(plant, state, pair, cfg, n, cells)
    want = _sg_update_loop(pair, state, cells, n, step_inputs)
    got = (batch.f_est, batch.mu_k, batch.r_k, last[0])
    for column, (a, b) in zip(("f_est", "mu_k", "r_k", "theta"), zip(got, want)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), column


def _decision_case(name):
    """(plant, state, pair, cfg) of a 600-step closed loop, by the control cases its steps take.

    Started at 0.01 everywhere, every step takes the closed form ("clean").
    At ``theta0`` = 0 the control gain vanishes and every step holds: the
    held input stays 0, so the input coefficient never moves.  Started at
    theta*, step 5 alone saturates: its target 1 - 1e-9 needs an input
    beyond u_max = 10, and the target 1.5 lies outside tanh's range.  The
    tanh model without its inverse bisects every step.
    """
    pair = tanh_mse_pair(p=3, q=2)
    theta_star = np.array([0.01, 3.0, -0.1, 0.6, -0.3])
    plant = Plant(pair.predictor, theta_star, NoiseSource(std=0.05))
    hyper = HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0)
    cfg = ControlConfig(y_target=0.5)
    if name == "hold":
        return plant, sg_init(np.zeros(5), hyper), pair, cfg
    if name in ("beyond_u_max", "outside_range"):
        targets = np.full(600, 0.5)
        targets[5] = 1.0 - 1e-9 if name == "beyond_u_max" else 1.5
        return plant, sg_init(theta_star, hyper), pair, ControlConfig(y_target=targets, u_max=10.0)
    if name == "bisection":
        pair = ModelLossPair(_TanhWithoutInverse(3, 2), pair.loss)
    return plant, sg_init(np.full(5, 0.01), hyper), pair, cfg


# (case, calls of the per-row decision, estimator steps) over chunks of 512 and 88 steps
@pytest.mark.parametrize("name,solves,updates", [
    ("clean", 0, 600), ("hold", 600, 2 * 600), ("beyond_u_max", 512, 512 + 600),
    ("outside_range", 512, 600), ("bisection", 600, 600),
], ids=["clean", "hold", "beyond_u_max", "outside_range", "bisection"])
def test_closed_loop_columns_equal_a_per_step_decision(monkeypatch, name, solves, updates):
    # a chunk runs each step's closed form and tests the cases after its last
    # step; one where a row held, saturated or bisected runs again deciding
    # every row per step, so its columns and flags are those of a loop that
    # decides every step.  Only such a chunk decides (none of a clean run, so
    # no chunk of it runs twice), and one whose targets have no finite
    # inverse decides from the start
    plant, state, pair, cfg = _decision_case(name)
    cells = [("modified", 1), ("classical", 2)]
    calls = dict.fromkeys(("solve_control_rows_unguarded", "sg_update_unguarded"), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for fn_name in calls:
        monkeypatch.setattr(control_mod, fn_name, counted(fn_name, getattr(control_mod, fn_name)))
    batch = run_closed_loop_batch(plant, state, pair, cfg, 600, cells)
    assert calls == {"solve_control_rows_unguarded": solves, "sg_update_unguarded": updates}
    record = {column: [] for column in ("u", "y", "f_true", "flags")}
    step_inputs = _closed_loop_inputs(plant, pair, cfg, cells, 600, record)
    f_est, mu_k, r_k, _ = _sg_update_loop(pair, state, cells, 600, step_inputs)
    want = {"f_est": f_est, "mu_k": mu_k, "r_k": r_k,
            **{column: np.array(rows) for column, rows in record.items()}}
    # the bisection meets root_tol on every step
    assert want["flags"].any() == (name not in ("clean", "bisection"))
    for column, values in want.items():
        got = getattr(batch, column)
        assert got.dtype == values.dtype and got.tobytes() == values.tobytes(), column


@settings(max_examples=200, deadline=None)
@given(data=st.data(), model=st.sampled_from(_CONTROL_MODELS),
       u_max=st.sampled_from([0.5, 3.0, 1000.0]), repeat=st.booleans())
def test_chunk_test_equals_the_per_step_closed_masks(data, model, u_max, repeat):
    # the chunk test applies solve_control_rows' case rule to a chunk's (m, S)
    # columns at once, each step's previous input the step before's closed
    # form: its mask must be the closed-form masks of the steps' own solves,
    # stacked.  A repeated step starts on target and short-circuits
    m, S = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    steps = [data.draw(st.lists(_control_row, min_size=S, max_size=S)) for _ in range(m)]
    if repeat:
        steps = [steps[0]] * m
    phi = np.array([[[*y_lags, 0.0, u_lag] for y_lags, u_lag, _, _, _ in rows] for rows in steps])
    theta = np.array([[[*rest[:3], cu, rest[3]] for _, _, rest, cu, _ in rows] for rows in steps])
    u_start = np.array([row[4] for row in steps[0]])
    targets = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=m, max_size=m))
    if repeat:
        targets = targets[:1] * m
    cfg = ControlConfig(u_max=u_max, b_eps=1e-8, root_tol=1e-10)
    link_inv = getattr(model, "link_inv", None)
    cases, masks = control_mod._control_cases, []

    def spy(*args):
        result = cases(*args)
        masks.append(result[3])
        return result

    base, u = np.empty((m, S)), np.empty((m, S))
    with pytest.MonkeyPatch.context() as patch, np.errstate(divide="ignore", invalid="ignore",
                                                            over="ignore"):
        for j, target in enumerate(targets):  # each step's closed form, as the loop makes it
            z = math.nan if link_inv is None else link_inv(target)
            base[j] = row_dots(phi[j], theta[j])
            u[j] = ((math.inf if z is None else z) - base[j]) / theta[j, :, 3]
        patch.setattr(control_mod, "_control_cases", spy)
        for j, target in enumerate(targets):
            solve_control_rows(model, theta[j], phi[j], 3, target, cfg,
                               u[j - 1] if j else u_start)
        chunk = control_mod._closed_form_chunk(
            model, base, theta[:, :, 3], u, u_start,
            np.broadcast_to(np.array(targets)[:, None], (m, S)), cfg)
    assert chunk.shape == (m, S)
    assert chunk.tolist() == np.array(masks[:m]).tolist()


def test_drawn_blocks_are_asked_for_per_chunk_and_their_shapes_checked():
    # prepared inputs may come a chunk at a time from a draw(m); a wrong block is named
    n = 1100
    rng = np.random.default_rng(3)
    phi, y = rng.normal(size=(n, 1, 3)), rng.normal(size=(n, 1))
    pair = linear_mse_pair(d=3)
    state = sg_init(np.zeros(3), HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0))
    asked = []

    def draw(m):
        start = sum(asked)
        asked.append(m)
        return phi[start : start + m], y[start : start + m], None

    cells = [("modified", 0), ("classical", 0)]
    got = run_closed_loop_batch(None, state, pair, draw, n, cells)
    assert asked == [512, 512, 76]
    # every cell steps on the drawn rows of its seed, as one sg_update per step would
    want = _sg_update_loop(pair, state, cells, n, lambda k, theta: (phi[k][[0, 0]], y[k][[0, 0]]))
    for a, b in zip((got.f_est, got.mu_k, got.r_k), want):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ConfigurationError, match=r"block shapes .* do not match 512 steps"):
        run_closed_loop_batch(None, state, pair, lambda m: (phi[:m], y[: m - 1], None), n, cells)


@pytest.mark.parametrize("bad_step", [0, 511, 512, 1023, 1099])
def test_loss_domain_error_through_the_loop_is_the_steps(bad_step, tmp_path, monkeypatch):
    # a linear score under cross-entropy: phi = (1, 0, 0) keeps the prediction
    # at 0.5 = y, where the slope is 0 and the estimate stays put, until the
    # bad step's regressor lifts it out of (0, 1) to a value naming that step
    n = 1100
    phi = np.zeros((n, 1, 3))
    phi[:, 0, 0] = 1.0
    phi[bad_step, 0, 0] = 3.0 + bad_step / 1000
    y = np.full((n, 1), 0.5)
    pair = ModelLossPair(LinearModel(3), CrossEntropy())
    hyper = HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0)
    state = sg_init(np.array([0.5, 0.0, 0.0]), hyper)
    with pytest.raises(DomainError) as exc:
        run_closed_loop_batch(None, state, pair, drawn((phi, y, None)), n,
                              [("modified", 0), ("classical", 0)])
    x = 0.5 * phi[bad_step, 0, 0]
    message = f"loss 'cross_entropy' evaluated outside its domain (x in (0, 1)): x={x} in row 0"
    assert type(exc.value) is DomainError
    assert str(exc.value) == message
    context = {"k": bad_step, "algorithm": "modified", "seed": 0, "x": x}
    assert exc.value.context == context
    # the same blocks as an identification sweep: the report keeps the context
    cfg = bench.ExperimentConfig(mode="identify", algorithms=("modified", "classical"),
                                 hyper=hyper, n_steps=n, seeds=(0,), out_dir=str(tmp_path),
                                 pair_name="logistic", pair=pair, theta_star=np.zeros(3),
                                 theta0=np.array([0.5, 0.0, 0.0]))
    monkeypatch.setattr(bench, "_identify_inputs", lambda cfg: drawn((phi, y, y)))
    with pytest.raises(DomainError):
        bench.run_experiment(cfg)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["error"] == {"message": message, "context": context}
    assert sorted(os.listdir(tmp_path)) == ["report.json"]


class TestTrace:
    def test_flag_strings_are_rejected_naming_the_column(self):
        # the flag names of an older trace form are not masks
        with pytest.raises(ConfigurationError, match="'flags' holds non-integral values"):
            Trace(k=[0, 1, 2], flags=["", "saturated", ""])

    def test_fractional_flags_are_rejected_not_truncated(self):
        for flags in ([0, 1.5, 0], [0, math.nan, 0], [0, math.inf, 0]):
            with pytest.raises(ConfigurationError, match="'flags' holds non-integral values"):
                Trace(k=[0, 1, 2], flags=flags)
        # integral floats are masks
        assert Trace(k=[0, 1, 2], flags=[0.0, 5.0, 2.0]).flags.tolist() == [0, 5, 2]

    def test_zero_and_negative_zero_differ(self):
        # equality is bit equality, so a writer that loses the sign of zero shows
        assert Trace(k=[0], y=np.array([0.0])) != Trace(k=[0], y=np.array([-0.0]))
        assert Trace(k=[0], y=np.array([-0.0])) == Trace(k=[0], y=np.array([-0.0]))
        assert Trace(k=[0], r_k=np.array([np.nan])) == Trace(k=[0], r_k=np.array([np.nan]))

    @pytest.mark.parametrize("name", ["y", "f_est", "r_k", "flags"])
    def test_column_longer_or_shorter_than_k_is_rejected(self, name):
        for rows in (2, 4):
            column = [0] * rows if name == "flags" else np.ones(rows)
            with pytest.raises(ConfigurationError, match=f"'{name}' has {rows} rows, not 3"):
                Trace(k=[0, 1, 2], **{name: column})

    def test_mismatch_is_named_before_the_row_count_is_used(self):
        with pytest.raises(ConfigurationError, match="'y' has 2 rows"):
            Trace(k=[0, 1, 2], y=np.array([1.0, 2.0]), f_est=np.ones(4))

    def test_flags_are_int64_masks_clean_by_default_and_compared_bit_for_bit(self):
        assert Trace(k=[0, 1]).flags.tolist() == [0, 0]
        trace = Trace(k=[0, 1], flags=[0, SATURATED | DIVERGENCE])
        assert trace.flags.dtype == np.int64
        assert trace == Trace(k=[0, 1], flags=np.array([0, 5]))
        assert trace != Trace(k=[0, 1], flags=[0, DIVERGENCE])

    def test_float_columns_become_float64_arrays(self):
        trace = Trace(k=[0, 1], y=[1, 2])
        assert trace.y.dtype == np.float64 and trace == Trace(k=[0, 1], y=np.array([1.0, 2.0]))
