"""Closed-loop building blocks: noise stream, control solve, runner.

Oracle notes
------------
* Philox(key=5) first 53-bit uniform is 0.7337459554446364; through the
  Gaussian inverse CDF with std 2 that is 1.2483639315699588.
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _oracle_compensated_cumsum
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


class TestNoiseSource:
    def test_first_draw_matches_inverse_cdf_oracle(self):
        src = NoiseSource(std=2.0, seed=5)
        assert src.draw() == 1.2483639315699588
        assert src.draw_count == 1

    def test_first_uniform_value(self):
        src = NoiseSource(seed=5)
        assert src.draw_uniform() == 0.7337459554446364

    def test_uniforms_stay_strictly_inside_unit_interval(self):
        src = NoiseSource(seed=0)
        us = [src.draw_uniform() for _ in range(2000)]
        assert 0.0 < min(us) and max(us) < 1.0
        assert src.draw_count == 2000

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
        xs = np.array([src.draw() for _ in range(50_000)])
        assert abs(xs.mean()) < 0.03
        assert abs(xs.std() - 1.5) < 0.03

    def test_student_t_sample_variance(self):
        # var of t_5 is 5/3; scale 1 keeps it there
        src = NoiseSource(std=1.0, seed=42, kind="student_t", df=5.0)
        xs = np.array([src.draw() for _ in range(50_000)])
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
        assert cfg.target(0) == 0.1
        assert cfg.target(2) == 0.3
        assert ControlConfig(y_target=0.4).target(7) == 0.4
        assert ControlConfig(y_target=np.array(0.4)).target(7) == 0.4


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
    flags and, except on closed-form rows, the same input bytes.
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
        return u0, ()
    if abs(float(model.dlink(base + cu * u_prev)) * cu) < cfg.b_eps:
        return u_prev, ("singular_gain",)

    if link_inv is not None:
        z_star = link_inv(y_star)
        u = math.inf if z_star is None else (z_star - base) / cu
        if abs(u) > cfg.u_max:
            r_lo = f_of_u(-cfg.u_max) - y_star
            r_hi = f_of_u(cfg.u_max) - y_star
            u, r = (-cfg.u_max, r_lo) if abs(r_lo) <= abs(r_hi) else (cfg.u_max, r_hi)
            return u, (() if abs(r) <= cfg.root_tol else ("saturated",))
        if abs(f_of_u(u) - y_star) <= cfg.root_tol:
            return u, ()
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
        assert flagged.get(i, ()) == flags_s
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


def _frozen_update(theta, r, carry, phi, y):
    """Estimator update stub that never moves — the oracle controller."""
    zeros = np.zeros(len(r))
    return theta, r, carry, zeros, zeros, np.tanh(row_dots(phi, theta))


class TestRunClosedLoop:
    hyper = HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0)
    theta_star = np.array([0.01, 3.0, -0.1, 0.6, -0.3])

    def _plant_and_pair(self):
        pair = tanh_mse_pair(p=3, q=2)
        plant = Plant(pair.predictor, self.theta_star, NoiseSource(std=0.05, seed=0))
        return plant, pair

    def test_oracle_controller_sits_on_noise_floor(self):
        # estimating at theta* with no updates, tracking error is w^2 alone:
        # mean ~ sigma^2 = 0.0025, and the one-step identity
        # y - y* - w = f(phi, theta*) - y* is the solver residual, which the
        # closed-form atanh inverse leaves at rounding level
        plant, pair = self._plant_and_pair()
        state = sg_init(self.theta_star, self.hyper)
        cfg = ControlConfig(y_target=0.5, root_tol=1e-10)
        trace = run_closed_loop_batch(plant, state, pair, cfg, 2000, [("modified", 1)],
                                      update=_frozen_update).trace(0)
        assert len(trace) == 2000
        assert all(f == "" for f in trace.flags)
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
            cfg = (rng.normal(size=(n, 2, 5)), rng.normal(size=(n, 2)), None)
        run_closed_loop_batch(plant, sg_init(np.zeros(5), self.hyper), pair, cfg, n, cells)
        assert calls == {"steps_pass": 3, "sg_update": 0, "check_rows": 0}

    def test_learning_reduces_regret_and_parameter_error(self):
        plant, pair = self._plant_and_pair()
        state = sg_init(np.full(5, 0.01), self.hyper)
        cfg = ControlConfig(y_target=0.5)
        trace = run_closed_loop_batch(plant, state, pair, cfg, 1500, [("modified", 1)]).trace(0)
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
                                      [("modified", 4)]).trace(0)
        assert len(trace) == 1
        assert trace.k.tolist() == [0]
        # theta = 0: the gradient is the regressor (0, 0, 0, u, 0), so ||g||^2 = u^2
        assert trace.r_k[0] == 2.0 + trace.u[0] ** 2
        assert math.isfinite(trace.y[0]) and math.isfinite(trace.u[0])

    def test_divergence_flagged(self):
        plant, pair = self._plant_and_pair()
        state = sg_init(np.zeros(5), self.hyper)

        def blowup_update(theta, r, carry, phi, y):
            zeros = np.zeros(len(r))
            return np.full_like(theta, 1e7), r, carry, zeros, zeros, zeros

        trace = run_closed_loop_batch(plant, state, pair, ControlConfig(), 1, [("modified", 4)],
                                      update=blowup_update).trace(0)
        assert "divergence" in trace.flags[0]

    def test_same_seed_reruns_bitwise(self):
        plant, pair = self._plant_and_pair()
        cfg = ControlConfig(y_target=0.5)
        runs = []
        for _ in range(2):
            state = sg_init(np.full(5, 0.01), self.hyper)
            runs.append(run_closed_loop_batch(plant, state, pair, cfg, 300,
                                              [("modified", 7)]).trace(0))
        assert runs[0] == runs[1]
        state = sg_init(np.full(5, 0.01), self.hyper)
        other = run_closed_loop_batch(plant, state, pair, cfg, 300, [("modified", 8)]).trace(0)
        assert not np.array_equal(other.y, runs[0].y)

    def test_per_step_targets_are_followed(self):
        plant, pair = self._plant_and_pair()
        state = sg_init(self.theta_star, self.hyper)
        targets = np.array([0.1, -0.2, 0.3, 0.0, 0.25])
        cfg = ControlConfig(y_target=targets, root_tol=1e-10)
        trace = run_closed_loop_batch(plant, state, pair, cfg, 5, [("modified", 2)],
                                      update=_frozen_update).trace(0)
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
                                              [(algorithm, seed)]).trace(0)
                assert batch.trace(i) == alone

    def test_gain_law_follows_the_algorithm_name(self):
        plant, pair = self._plant_and_pair()
        state = sg_init(np.full(5, 0.01), self.hyper)
        cfg = ControlConfig(y_target=0.5)
        classical = run_closed_loop_batch(plant, state, pair, cfg, 20,
                                          [("classical", 1)]).trace(0)
        # classical gain: mu_k = mu / r_k on every step
        assert np.array_equal(classical.mu_k, self.hyper.mu / classical.r_k)
        modified = run_closed_loop_batch(plant, state, pair, cfg, 20, [("modified", 1)]).trace(0)
        assert modified.mu_k[0] < classical.mu_k[0]

    def test_numeric_error_names_step_algorithm_and_seed(self):
        plant, pair = self._plant_and_pair()
        state = sg_init(np.full(5, 0.01), self.hyper)

        def failing_update(theta, r, carry, phi, y):
            if failing_update.calls == 3:
                raise NumericError("boom", context={"row": 1})
            failing_update.calls += 1
            zeros = np.zeros(len(r))
            return theta, r, carry, zeros, zeros, zeros

        failing_update.calls = 0
        with pytest.raises(NumericError) as exc:
            run_closed_loop_batch(plant, state, pair, ControlConfig(), 10,
                                  (("modified", 7), ("classical", 8), ("modified", 9)),
                                  update=failing_update)
        assert exc.value.context == {"k": 3, "algorithm": "classical", "seed": 8}

    def test_too_few_per_step_targets_are_rejected_before_any_step(self):
        # three targets for ten steps failed at step 3 with an IndexError
        plant, pair = self._plant_and_pair()

        def no_step(*args):
            raise AssertionError("a step ran")

        cfg = ControlConfig(y_target=np.array([0.5, 0.4, 0.3]))
        with pytest.raises(ConfigurationError,
                           match="y_target has 3 per-step targets, fewer than 10 steps"):
            run_closed_loop_batch(plant, sg_init(np.zeros(5), self.hyper), pair, cfg, 10,
                                  [("modified", 1)], update=no_step)

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
    """Update stub: each row's norm grows by its own factor along its direction.

    Starting from norm 1, the norm after step k is growth^(k+1), so it
    crosses DIVERGENCE_NORM at the row's step with half a step to spare.
    Every call's (theta, phi, new theta) goes to ``log``.
    """
    directions = np.array([direction for direction, _ in _DIVERGING_ROWS])
    growth = np.array([1.0 if k is None else DIVERGENCE_NORM ** (1.0 / (k + 0.5))
                       for _, k in _DIVERGING_ROWS])

    def update(theta, r, carry, phi, y):
        new = directions * (np.sqrt(row_dots(theta, theta)) * growth)[:, None]
        log.append((theta, phi.copy(), new))
        return new, r + 1.0, carry, np.full(len(r), 0.1), np.ones(len(r)), row_dots(phi, theta)

    return update


def _per_step_oracle(log, batch, pair, theta_star, cfg, p):
    """Flags, theta_err and regret_avg of each cell, derived step by step.

    Each step re-solves the control from the logged estimate and regressor
    for its flags, tests the norm of the updated estimate and records the
    step's regret, as a loop deriving every column per step does; the
    regret's running mean is the scalar compensated sum over step counts.
    """
    n, S = len(log), len(batch.cells)
    flags = [[""] * n for _ in range(S)]
    theta_err, regret = np.empty((n, S)), np.empty((n, S))
    u_prev = np.zeros(S)
    for k, (theta, phi, new) in enumerate(log):
        phi = phi.copy()
        u, phi[:, p] = phi[:, p].copy(), 0.0
        control = solve_control_rows(pair.predictor, theta, phi, p, cfg.target(k), cfg, u_prev)[1]
        u_prev = u
        diverged = np.sqrt(row_dots(new, new)) > DIVERGENCE_NORM
        for i in range(S):
            flags[i][k] = ";".join(control.get(i, ()) + (("divergence",) if diverged[i] else ()))
        gap = theta - theta_star
        theta_err[k] = np.sqrt(row_dots(gap, gap))
        f_true, f_est = batch.recorded["f_true"][k], batch.recorded["f_est"][k]
        regret[k] = pair.loss.eval(f_true, f_est) - pair.loss.eval(f_true, f_true)
    steps = np.arange(1, n + 1)
    regret_avg = np.column_stack([_oracle_compensated_cumsum(column) / steps for column in regret.T])
    return flags, theta_err, regret_avg


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_per_chunk_columns_equal_the_per_step_derivation(n):
    # the divergence flags, theta_err and regret_avg are derived per chunk of
    # steps; across its seams they must equal the per-step derivation, with
    # a step's divergence flag after its control flags
    theta_star = np.array([0.01, 3.0, -0.1, 0.6, -0.3])
    plant = Plant(tanh_arx_model(3, 2), theta_star, NoiseSource(std=0.05))
    pair = linear_mse_pair(5)
    state = sg_init(_SATURATING, HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0))
    cfg = ControlConfig(y_target=0.5)
    cells = [("modified", seed) for seed in range(len(_DIVERGING_ROWS))]
    log = []
    batch = run_closed_loop_batch(plant, state, pair, cfg, n, cells,
                                  update=_diverging_update(log))
    flags, theta_err, regret_avg = _per_step_oracle(log, batch, pair, theta_star, cfg, 3)
    for i in range(len(cells)):
        trace = batch.trace(i)
        assert trace.flags == flags[i]
        assert trace.theta_err.tobytes() == theta_err[:, i].tobytes()
        assert trace.regret_avg.tobytes() == regret_avg[:, i].tobytes()
    seen = {f for row in flags for f in row}
    assert "saturated" in seen
    if n > 1024:
        # rows 0, 1 and 3 saturate as they diverge; row 2 diverges unsaturated
        assert [flags[i][1022:1025] for i in range(len(cells))] == [
            ["saturated;divergence"] * 3,
            ["saturated", "saturated;divergence", "saturated;divergence"],
            ["", "", "divergence"],
            ["saturated", "saturated", "saturated;divergence"],
            ["", "", ""],
        ]


def test_chunks_hold_their_steps_of_the_joined_run():
    # each chunk's trace is rows start..stop - 1 of the whole run's, step
    # numbers and flags included; only the joined run knows regret_avg
    plant = Plant(tanh_arx_model(3, 2), np.array([0.01, 3.0, -0.1, 0.6, -0.3]),
                  NoiseSource(std=0.05))
    pair = linear_mse_pair(5)
    state = sg_init(_SATURATING, HyperParams(mu=0.3, beta1=0.5, beta2=0.51, beta3=2.0))
    cells = [("modified", seed) for seed in range(len(_DIVERGING_ROWS))]
    args = (plant, state, pair, ControlConfig(y_target=0.5), 1100, cells)
    joined = run_closed_loop_batch(*args, update=_diverging_update([]))
    chunks = list(closed_loop_chunks(*args, update=_diverging_update([])))
    assert [(c.start, len(c.y_star)) for c in chunks] == [(0, 512), (512, 512), (1024, 76)]
    for i in range(len(cells)):
        whole = joined.trace(i)
        whole.regret_avg = None
        for chunk in chunks:
            part = chunk.trace(i)
            rows = slice(chunk.start, chunk.start + len(part))
            assert part == Trace(flags=whole.flags[rows], **{
                name: None if column is None else column[rows]
                for name in TRACE_COLUMNS[:-1] for column in [getattr(whole, name)]})
    assert "divergence" in joined.trace(2).flags[1024]


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


def _closed_loop_inputs(plant, pair, cfg, cells, n):
    """The closed loop's step inputs, one public ``solve_control_rows`` call per step."""
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
        u = solve_control_rows(pair.predictor, theta, phi, p, cfg.target(k), cfg, last["u"])[0]
        phi[:, p] = u
        y = plant.model.link(row_dots(phi, theta_star)) + noise[k]
        last["u"], last["y"] = u, y
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
        return (None, sg_init(np.zeros(5), hyper), pair, blocks,
                [("modified", 0), ("classical", 0)], lambda k, theta: (blocks[0][k], blocks[1][k]))
    if name == "logistic_cross_entropy":
        phi = rng.normal(size=(n, 2, 3))
        prob = LogisticModel(3).link(phi @ np.array([0.8, -0.5, 0.3]))
        blocks = (phi, (rng.uniform(size=(n, 2)) < prob).astype(float), None)
        cells = [("modified", 1), ("classical", 1), ("classical", 2), ("modified", 2)]
        of = np.array([0, 0, 1, 1])
        hyper = HyperParams(mu=0.1, beta1=0.5, beta2=2 / 3, beta3=2.0)
        return (None, sg_init(np.zeros(3), hyper), logistic_pair(d=3), blocks, cells,
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
    got = (batch.recorded["f_est"], batch.recorded["mu_k"], batch.recorded["r_k"], last[0])
    for column, (a, b) in zip(("f_est", "mu_k", "r_k", "theta"), zip(got, want)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), column


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
        run_closed_loop_batch(None, state, pair, (phi, y, None), n,
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
    monkeypatch.setattr(bench, "_identify_inputs", lambda cfg: (phi, y, y))
    with pytest.raises(DomainError):
        bench.run_experiment(cfg)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["error"] == {"message": message, "context": context}
    assert sorted(os.listdir(tmp_path)) == ["report.json"]


class TestTrace:
    def test_zero_and_negative_zero_differ(self):
        # equality is bit equality, so a writer that loses the sign of zero shows
        assert Trace(k=[0], y=np.array([0.0])) != Trace(k=[0], y=np.array([-0.0]))
        assert Trace(k=[0], y=np.array([-0.0])) == Trace(k=[0], y=np.array([-0.0]))
        assert Trace(k=[0], r_k=np.array([np.nan])) == Trace(k=[0], r_k=np.array([np.nan]))

    @pytest.mark.parametrize("name", ["y", "f_est", "r_k", "flags"])
    def test_column_longer_or_shorter_than_k_is_rejected(self, name):
        for rows in (2, 4):
            column = [""] * rows if name == "flags" else np.ones(rows)
            with pytest.raises(ConfigurationError, match=f"'{name}' has {rows} rows, not 3"):
                Trace(k=[0, 1, 2], **{name: column})

    def test_mismatch_is_named_before_the_row_count_is_used(self):
        with pytest.raises(ConfigurationError, match="'y' has 2 rows"):
            Trace(k=[0, 1, 2], y=np.array([1.0, 2.0]), f_est=np.ones(4))

    def test_float_columns_become_float64_arrays(self):
        trace = Trace(k=[0, 1], y=[1, 2])
        assert trace.y.dtype == np.float64 and trace == Trace(k=[0, 1], y=np.array([1.0, 2.0]))
