"""End-to-end acceptance gate: ten numbered criteria, one verdict line each.

Each test prints its criterion verdict (with the measured numbers) before
asserting, so a failing criterion still reports what was observed.

Two references here are computed, and each is chosen so that a red result
points at the program rather than at the reference:

- Criterion 2 compares the closed-form censored mean with Gauss-Legendre
  quadrature on the three smooth pieces of ``clip(x + e, lo, up)``.  A single
  Gauss-Hermite rule over the whole line cannot resolve the two kinks: its
  gap on [-1, 1] falls only about as 1/n (2.0e-2 at 16 nodes, 3.9e-3 at 64,
  9.0e-4 at 256) and ``hermgauss(512)`` overflows to nan.  The split rule
  agrees with the closed form to 6e-15.
- Criterion 5 (b) measures tracking error against the noise the run itself
  drew, ``mean(w^2)``: a controller that knows theta* exactly scores that
  floor, which lies below sigma^2 = 0.0025 on 8 of the 10 preset seeds
  (0.002435-0.002526).

Criterion 5 (a) and the upper edge of (b) stay red on the bundled preset;
the assertion messages carry the measured values and the test explains
the measured cause.
"""

import math
import os
import pathlib
import time

import numpy as np
import pytest

from conftest import fd_grad, fd_scalar
from sgident import bench
from sgident.core import GainState, HyperParams
from sgident.metrics import robbins_siegmund_diag
from sgident.models import (
    PAIR_CATALOG,
    QuadNetSpec,
    SaturationSpec,
    catalog_pair,
    quadnet_lift,
    saturation_assumption2_delta,
    saturation_mean,
    saturation_mean_deriv,
    verify_assumption2,
)
from sgident.sg import mu_schedule


def _verdict(ok):
    return "PASS" if ok else "FAIL"


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _split_quadrature_censored_mean(x, lo, up, s):
    """E[clip(x + e, lo, up)], e ~ N(0, s^2), by 64-node Gauss-Legendre on
    each smooth piece: split at the kinks e = lo - x and e = up - x, tails
    cut at +-12 s (the Gaussian mass beyond 12 sigma is below 1e-32).

    Independent of the closed form: no CDF or erfc, only the density.
    """
    edge = 12.0 * s
    a = min(max(lo - x, -edge), edge)
    b = min(max(up - x, -edge), edge)
    total = 0.0
    for left, right in ((-edge, a), (a, b), (b, edge)):
        half, mid = 0.5 * (right - left), 0.5 * (right + left)
        e = half * _GL_NODES + mid
        integrand = np.clip(x + e, lo, up) * np.exp(-0.5 * (e / s) ** 2)
        total += half * float(np.sum(_GL_WEIGHTS * integrand))
    return total / (s * math.sqrt(2.0 * math.pi))


class TestAcceptance:
    def test_01_gradient_oracles(self):
        t0 = time.perf_counter()
        worst_pred = worst_loss = 0.0
        for name, entry in sorted(PAIR_CATALOG.items()):
            pair, sampler = entry()
            model, loss = pair.predictor, pair.loss
            rng = np.random.default_rng(0)
            phi_rows, theta_rows, theta_star_rows = sampler(rng, 100)
            for phi, theta in zip(phi_rows, theta_rows):
                got = model.grad(phi, theta)
                want = fd_grad(lambda t: float(model.eval(phi, t)), theta)
                err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-8)
                worst_pred = max(worst_pred, err)
            checked = 0
            for phi, theta, ts in zip(phi_rows, theta_rows, theta_star_rows):
                x = float(model.eval(phi, theta))
                if loss.name == "cross_entropy":
                    y = float(rng.integers(0, 2))
                elif loss.name == "squared_hinge":
                    y = 1.0 if float(model.eval(phi, ts)) >= 0 else -1.0
                    if abs(1.0 - y * x) < 1e-3:
                        continue  # non-differentiable margin point
                else:
                    y = float(model.eval(phi, ts))
                want = fd_scalar(lambda z: float(loss.eval(y, z)), x)
                got = float(loss.grad_x(y, x))
                worst_loss = max(worst_loss, abs(got - want) / max(abs(want), 1e-8))
                checked += 1
            assert checked >= 99, f"{name}: only {checked} differentiable loss points"
        elapsed = time.perf_counter() - t0
        ok = worst_pred < 1e-5 and worst_loss < 1e-6 and elapsed < 1.0
        print(f"criterion 1 (gradient oracles): {_verdict(ok)}  "
              f"[worst predictor {worst_pred:.3e} < 1e-5, worst loss "
              f"{worst_loss:.3e} < 1e-6, {elapsed:.2f}s]")
        assert worst_pred < 1e-5
        assert worst_loss < 1e-6
        assert elapsed < 1.0

    def test_02_censored_mean_closed_form(self):
        # The reference is split-interval quadrature, not a single Gauss-
        # Hermite rule: clip(x + e, lo, up) has kinks at e = lo - x and
        # e = up - x, and a 64-node Hermite rule misses the closed form by
        # 3.9e-3 / 4.1e-3 on the two windows (its error falls only about as
        # 1/n).  On the three smooth pieces Gauss-Legendre agrees to ~6e-15,
        # as does scipy.integrate.quad on the same pieces (to ~5e-11 at its
        # default tolerances), so 1e-8 checks the closed form, not the rule.
        t0 = time.perf_counter()
        xs = np.linspace(-5.0, 5.0, 200)
        worst_quad = worst_deriv = 0.0
        for lo, up in ((-1.0, 1.0), (0.0, 2.0)):
            spec = SaturationSpec(lower=lo, upper=up, noise_std=1.0)
            for x in xs:
                quad = _split_quadrature_censored_mean(x, lo, up, spec.noise_std)
                worst_quad = max(worst_quad, abs(saturation_mean(spec, x) - quad))
                fd = fd_scalar(lambda z: saturation_mean(spec, z), x)
                worst_deriv = max(worst_deriv, abs(saturation_mean_deriv(spec, x) - fd))
        sym = SaturationSpec(lower=-1.0, upper=1.0, noise_std=1.0)
        delta_gap = abs(saturation_assumption2_delta(sym, 2.0) - saturation_mean_deriv(sym, 2.0))
        elapsed = time.perf_counter() - t0
        ok = worst_quad < 1e-8 and worst_deriv < 1e-8 and delta_gap < 1e-10 and elapsed < 1.0
        print(f"criterion 2 (censored-mean closed form): {_verdict(ok)}  "
              f"[split-interval quadrature gap {worst_quad:.3e} < 1e-8, "
              f"derivative FD {worst_deriv:.3e} < 1e-8, curvature-floor "
              f"endpoint gap {delta_gap:.1e} < 1e-10, {elapsed:.2f}s]")
        assert worst_deriv < 1e-8
        assert delta_gap < 1e-10
        assert elapsed < 1.0
        assert worst_quad < 1e-8, (
            f"split-interval Gauss-Legendre disagrees with the closed form by "
            f"{worst_quad:.3e} (demanded < 1e-8)"
        )

    def test_03_feature_lift_equivalence(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        worst_rel = worst_scaled = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 5))
            m1, m2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            spec = QuadNetSpec(a=rng.normal(size=m1), b=rng.normal(size=(m1, m2)),
                               c=rng.normal(size=(m1, m2, d)))
            theta_star, lift = quadnet_lift(spec)
            x = rng.normal(size=d)
            nested = 0.0
            for i in range(m1):
                inner = 0.0
                for j in range(m2):
                    inner += spec.b[i, j] * float(np.dot(spec.c[i, j], x)) ** 2
                nested += spec.a[i] * inner ** 2
            feat = lift(x)
            lifted = float(np.dot(theta_star.values, feat))
            err = abs(lifted - nested)
            worst_rel = max(worst_rel, err / max(abs(nested), 1e-300))
            scale = np.linalg.norm(theta_star.values) * np.linalg.norm(feat)
            worst_scaled = max(worst_scaled, err / max(1.0, scale))
        elapsed = time.perf_counter() - t0
        ok = worst_rel < 1e-10 and worst_scaled < 1e-12 and elapsed < 1.0
        print(f"criterion 3 (nested evaluation equals lifted linear form): "
              f"{_verdict(ok)}  [worst relative error {worst_rel:.3e} < 1e-10, "
              f"rounding-scaled {worst_scaled:.3e} < 1e-12, {elapsed:.2f}s]")
        assert worst_rel < 1e-10
        assert worst_scaled < 1e-12
        assert elapsed < 1.0

    def test_04_weak_convexity_verification(self):
        t0 = time.perf_counter()
        pair, sampler = catalog_pair("linear_mse")
        lin = verify_assumption2(pair, sampler, n_samples=100_000, seed=0)
        lin_slack = max(abs(lin.min_convexity_slack), abs(lin.max_convexity_slack))
        over = verify_assumption2(pair, sampler, n_samples=100_000, seed=0, delta=2.5)
        sat_pair, sat_sampler = catalog_pair("saturation")
        sat = verify_assumption2(sat_pair, sat_sampler, n_samples=100_000, seed=0)
        log_pair, log_sampler = catalog_pair("logistic")
        logi = verify_assumption2(log_pair, log_sampler, n_samples=100_000, seed=0)
        elapsed = time.perf_counter() - t0
        ok = (lin.passed and lin_slack < 1e-9 and not over.passed
              and sat.passed and logi.passed and elapsed < 10.0)
        print(f"criterion 4 (weak-convexity verification): {_verdict(ok)}  "
              f"[linear equality slack {lin_slack:.2e} < 1e-9; delta=2.5 "
              f"{'rejected' if not over.passed else 'WRONGLY ACCEPTED'} "
              f"(min slack {over.min_convexity_slack:.3g}); censored-mean "
              f"{_verdict(sat.passed)}, logistic {_verdict(logi.passed)}; "
              f"{elapsed:.1f}s]")
        assert lin.passed and lin_slack < 1e-9
        assert not over.passed
        assert sat.passed, sat.summary()
        assert logi.passed, logi.summary()
        assert elapsed < 10.0

    def test_05_closed_loop_reproduction(self, paper_run):
        report, elapsed, out_dir = paper_run
        runs = report.data["runs"]["modified"]
        sigma2 = report.data["config"]["plant"]["noise_std"] ** 2
        ratios, tes, floors, ranges_ok = [], [], [], []
        for seed in range(1, 11):
            s = runs[f"seed_{seed}"]
            ratios.append(s["final_average_regret"] / s["average_regret_at_500"])
            tes.append(s["final_tracking_proxy"])
            trace = bench.read_trace(os.path.join(out_dir, f"trace_modified_seed{seed}.hex"))
            # The realized noise floor mean(w^2): what a controller that knows
            # theta* exactly would score on this seed.  y - f_true is the drawn
            # noise w to within one ulp.
            floors.append(float(np.mean((trace.y - trace.f_true) ** 2)))
            tail = trace.theta_err[-len(trace) // 10:].tolist()
            ranges_ok.append(max(tail) - min(tail) < 0.05 * (1.0 + tail[-1]))
        excess = [te - fl for te, fl in zip(tes, floors)]
        wins = report.data["comparison"]["wins"]["modified"]
        a_ok = max(ratios) < 0.25
        b_ok = all(fl <= te <= fl + sigma2 for te, fl in zip(tes, floors))
        c_ok = wins >= 8
        d_ok = all(ranges_ok)
        t_ok = elapsed < 30.0
        ok = a_ok and b_ok and c_ok and d_ok and t_ok
        print(f"criterion 5 (closed-loop reproduction): {_verdict(ok)}  "
              f"[a regret decay {_verdict(a_ok)} (ratios {min(ratios):.3f}-"
              f"{max(ratios):.3f} vs < 0.25); b tracking floor {_verdict(b_ok)} "
              f"(final {min(tes):.4f}-{max(tes):.4f}, realized floor "
              f"{min(floors):.6f}-{max(floors):.6f}, excess {min(excess):.3e} to "
              f"{max(excess):.3e} vs [0, {sigma2:g}]); c win count "
              f"{_verdict(c_ok)} ({wins}/10); d estimate settling "
              f"{_verdict(d_ok)}; {elapsed:.1f}s < 30s]")
        assert c_ok, f"modified won only {wins}/10 seeds"
        assert d_ok, "estimate norm still moving in the last decile"
        assert t_ok, f"run took {elapsed:.1f}s"
        # (a) and the upper edge of (b) fail on the bundled preset.  The
        # measured cause is the start-up transient: theta0 puts 0.01 on the
        # input coefficient, so the first input is u_0 = atanh(0.5)/0.01 =
        # 54.9; r_k jumps from 2 to 1699 at step 0 and to ~7.3e3 by step 10,
        # holding mu_k near 7e-4 for the first 1000 steps.  f_true stays near
        # +1 while f_est = 0.5, so the average regret is 0.248-0.249 at n=500
        # on every seed and 0.145-0.153 at n=5000 (ratios 0.58-0.61), and the
        # excess te - floor is 0.145-0.152 against sigma^2 = 0.0025.  A run
        # started at theta0 = theta* sits 1.3e-5 to 3.0e-5 above its floor
        # but still has ratios 0.241-0.573, so (a) does not isolate the
        # estimator's rate.  Whether the program or the demand is wrong is
        # not settled; the bounds, preset, seeds and theta0 stay as they are.
        failures = []
        if not a_ok:
            failures.append(
                f"average-regret ratios at n=5000/n=500 span "
                f"{min(ratios):.3f}-{max(ratios):.3f}, demanded < 0.25 on every seed")
        if not b_ok:
            failures.append(
                f"final average tracking error spans {min(tes):.4f}-{max(tes):.4f}; "
                f"its excess over the realized noise floor "
                f"({min(floors):.6f}-{max(floors):.6f}) spans {min(excess):.3e} to "
                f"{max(excess):.3e}, demanded within [0, sigma^2 = {sigma2:g}] "
                f"on every seed")
        assert not failures, "; ".join(failures)

    def test_06_step_size_safety_law(self, paper_run, replay_run):
        preport, _, _ = paper_run
        rreport, _, _ = replay_run
        worst = 0.0
        runs_checked = 0
        for report in (preport, rreport):
            mu = report.data["config"]["hyper"]["mu"]
            for algo, by_seed in report.data["runs"].items():
                for seed_key, summary in by_seed.items():
                    worst = max(worst, summary["step_size_law_max"] / mu)
                    assert summary["checks"]["step_size_law"], f"{algo}/{seed_key}"
                    runs_checked += 1
        ok = worst <= 1.0 + 1e-12 and runs_checked == 22
        print(f"criterion 6 (step-size safety law): {_verdict(ok)}  "
              f"[max mu_k*|grad|^2 / mu = {worst:.6f} over {runs_checked} runs; "
              f"also asserted inside every update step]")
        assert ok

    def test_07_step_size_summability_diagnostic(self):
        t0 = time.perf_counter()
        n = 100_000
        results = {}
        for b1, b2 in ((0.5, 0.51), (0.7, 0.0), (0.5, 0.0)):
            hyper = HyperParams(mu=0.3, beta1=b1, beta2=b2, beta3=2.0,
                                outside_theorem_regime=(b1, b2) == (0.5, 0.0))
            gain = GainState(r=hyper.beta3, k=0)
            mus = np.empty(n)
            for k in range(n):
                gain = gain.advanced(1.0)
                mus[k] = mu_schedule(gain, 1.0, hyper)
            results[(b1, b2)] = robbins_siegmund_diag(mus, np.ones(n))
        elapsed = time.perf_counter() - t0
        ok = (results[(0.5, 0.51)].passed and results[(0.7, 0.0)].passed
              and not results[(0.5, 0.0)].passed and elapsed < 2.0)
        print(f"criterion 7 (summability diagnostic): {_verdict(ok)}  "
              f"[tail share (1/2,0.51)={results[(0.5, 0.51)].tail_fraction:.4f} "
              f"and (0.7,0)={results[(0.7, 0.0)].tail_fraction:.4f} < 0.05; "
              f"(1/2,0)={results[(0.5, 0.0)].tail_fraction:.4f} fails; "
              f"{elapsed:.2f}s]")
        assert results[(0.5, 0.51)].passed
        assert results[(0.7, 0.0)].passed
        assert not results[(0.5, 0.0)].passed
        assert elapsed < 2.0

    def test_08_closed_loop_ledger_identities(self, paper_run):
        report, _, _ = paper_run
        worst_identity = worst_noise = 0.0
        root_tol = report.data["config"]["control"]["root_tol"]
        for algo, by_seed in report.data["runs"].items():
            for seed_key, summary in by_seed.items():
                worst_identity = max(worst_identity, summary["identity_max_dev"])
                worst_noise = max(worst_noise, summary["gradient_noise_max_dev"])
                assert summary["checks"]["closed_loop_identity"], f"{algo}/{seed_key}"
                assert summary["checks"]["gradient_noise_identity"], f"{algo}/{seed_key}"
        ok = worst_identity <= root_tol + 1e-9 and worst_noise <= 1e-12
        print(f"criterion 8 (closed-loop ledger): {_verdict(ok)}  "
              f"[one-step identity dev {worst_identity:.2e} <= {root_tol + 1e-9:.1e}, "
              f"noise identity dev {worst_noise:.2e} <= 1e-12, 20 runs]")
        assert worst_identity <= root_tol + 1e-9
        assert worst_noise <= 1e-12

    def test_09_determinism_and_report_verification(self, paper_run, tmp_path):
        report, _, out_dir = paper_run
        cfg = bench.load_config(bench.preset_path("paper_sim.cfg"))
        cfg.out_dir = str(tmp_path / "rerun")
        bench.run_experiment(cfg)
        mismatched = []
        traces = sorted(n for n in os.listdir(out_dir) if n.startswith("trace_"))
        for name in traces:
            a = pathlib.Path(os.path.join(out_dir, name)).read_bytes()
            b = pathlib.Path(os.path.join(cfg.out_dir, name)).read_bytes()
            if a != b:
                mismatched.append(name)
        verified, problems = bench.verify_report(report.path)
        ok = not mismatched and verified
        print(f"criterion 9 (determinism and verification): {_verdict(ok)}  "
              f"[{len(traces)} traces byte-identical on rerun"
              f"{'' if not mismatched else f' EXCEPT {mismatched}'}; report "
              f"numbers recomputed from traces to 1e-9: "
              f"{_verdict(verified)}]")
        assert len(traces) == 20
        assert not mismatched, f"traces differ on rerun: {mismatched}"
        assert verified, problems

    def test_10_streaming_replay_comparison(self, replay_run):
        report, elapsed, _ = replay_run
        mod = report.data["runs"]["modified"]["seed_0"]["relative_error_checkpoints"]
        cls = report.data["runs"]["classical"]["seed_0"]["relative_error_checkpoints"]
        rows = report.data["dataset"]["rows_used"]
        win = mod["final"] < cls["final"]
        mod_dec = mod["final"] < mod["1000"]
        cls_dec = cls["final"] < cls["1000"]
        t_ok = elapsed < 5.0
        ok = win and mod_dec and cls_dec and rows == 10_000 and t_ok
        print(f"criterion 10 (streaming replay): {_verdict(ok)}  "
              f"[final relative error modified {mod['final']:.4f} < classical "
              f"{cls['final']:.4f}; decreasing from T=1e3 to T=1e4: modified "
              f"{mod['1000']:.4f}->{mod['final']:.4f}, classical "
              f"{cls['1000']:.4f}->{cls['final']:.4f}; {rows} rows, {elapsed:.2f}s]")
        assert rows == 10_000
        assert win
        assert mod_dec and cls_dec
        assert t_ok
