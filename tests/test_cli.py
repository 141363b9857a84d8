"""Command-line behavior: subcommands, overrides, printed verdicts, exit codes."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import sgident
from sgident.cli import main

CONTROL_CFG = """
[experiment]
mode = control
algorithms = modified, classical
n_steps = 10
seeds = 1
out_dir = {out}

[hyper]
mu = 0.3
beta1 = 0.5
beta2 = 0.51
beta3 = 2.0

[model]
p = 3
q = 2

[plant]
theta_star = 0.01, 3.0, -0.1, 0.6, -0.3
noise_std = 0.05
"""

REPLAY_CFG = """
[experiment]
mode = replay
algorithms = modified
n_steps = 50
seeds = 0
out_dir = {out}

[hyper]
mu = 0.3
beta1 = 0.5
beta2 = 0.51
beta3 = 2.0

[replay]
pair = saturation
lower = 6.0
upper = 120.0
noise_std = 5.0
features = f0, f1, f2, f3, f4
target = y
"""


def _cfg(tmp_path, text, name="exp.cfg", **subs):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text).format(out=tmp_path / "runs", **subs))
    return str(path)


class TestVerifyAssumption2Command:
    def test_declared_constants_pass(self, capsys):
        code = main(["verify-assumption2", "--pair", "linear_mse", "--samples", "2000"])
        assert code == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_overclaimed_delta_fails(self, capsys):
        code = main(["verify-assumption2", "--pair", "linear_mse",
                     "--samples", "2000", "--delta", "2.5"])
        assert code == 2
        assert capsys.readouterr().out.startswith("FAIL")

    def test_unknown_pair_is_an_error(self, capsys):
        code = main(["verify-assumption2", "--pair", "resnet"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRunCommands:
    def test_control_prints_per_check_verdicts(self, tmp_path, capsys):
        code = main(["control", "--config", _cfg(tmp_path, CONTROL_CFG)])
        out = capsys.readouterr().out
        assert code == 0
        assert "check step_size_law: PASS" in out
        assert "check closed_loop_identity: PASS" in out
        assert "report: " in out
        assert out.rstrip().endswith("overall: PASS")

    def test_mode_mismatch_is_an_error(self, tmp_path, capsys):
        code = main(["identify", "--config", _cfg(tmp_path, CONTROL_CFG)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config mode is 'control'" in err

    def test_seed_and_out_overrides(self, tmp_path, capsys):
        import json
        import os

        out = str(tmp_path / "custom")
        code = main(["control", "--config", _cfg(tmp_path, CONTROL_CFG),
                     "--seeds", "5,6", "--out", out])
        assert code == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert set(report["runs"]["modified"]) == {"seed_5", "seed_6"}

    @pytest.mark.parametrize("seeds,message", [
        ("-1", "--seeds: seed -1 outside unsigned 64-bit range"),
        ("18446744073709551616", "--seeds: seed 18446744073709551616 outside unsigned 64-bit range"),
        ("1,1", "--seeds: seed 1 is listed more than once"),
        (",", "--seeds: must list at least one seed"),
    ], ids=["negative", "beyond_64_bits", "repeated", "empty"])
    def test_seed_override_is_validated_as_the_config_is(self, tmp_path, capsys, seeds, message):
        out = tmp_path / "custom"
        code = main(["control", "--config", _cfg(tmp_path, CONTROL_CFG), f"--seeds={seeds}",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()  # rejected before anything ran

    def test_replay_takes_data_from_flag(self, tmp_path, capsys, corpus_csv):
        with pytest.warns(UserWarning):
            code = main(["replay", "--config", _cfg(tmp_path, REPLAY_CFG),
                         "--data", corpus_csv])
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_replay_without_data_is_an_error(self, tmp_path, capsys):
        with pytest.warns(UserWarning):
            code = main(["replay", "--config", _cfg(tmp_path, REPLAY_CFG)])
        assert code == 1
        assert "needs a dataset" in capsys.readouterr().err

    def test_numeric_error_prints_its_context(self, tmp_path, capsys):
        # the squared-error derivative 2 * (f - 1e308) overflows on row 1
        data = tmp_path / "data.csv"
        data.write_text("f0,f1,f2,y\n1,0.5,0.2,2\n1,0.5,0.2,1e308\n")
        text = REPLAY_CFG.replace("pair = saturation", "pair = linear_mse")
        text = text.replace("features = f0, f1, f2, f3, f4", "features = f0, f1, f2")
        # the censoring window is a setting of the saturation pair only
        text = text.replace("lower = 6.0\nupper = 120.0\nnoise_std = 5.0\n", "")
        with pytest.warns(UserWarning):
            code = main(["replay", "--config", _cfg(tmp_path, text), "--data", str(data)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err[0].startswith("error: loss 'squared_error' produced a non-finite derivative")
        context = json.loads(err[1].removeprefix("context: "))
        assert context["k"] == 1 and context["y"] == 1e308

    def test_strict_csv_error_prints_its_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("f0,f1,f2,f3,f4,y\n1,1,1,1,1,30\n1,oops,1,1,1,30\n")
        with pytest.warns(UserWarning):
            code = main(["replay", "--config", _cfg(tmp_path, REPLAY_CFG), "--data", str(data),
                         "--strict-csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: nonnumeric cell in {data} at line 3")
        report = json.loads((tmp_path / "runs" / "report.json").read_text())
        assert report["error"]["line"] == 3

    def test_missing_config_is_an_error(self, tmp_path, capsys):
        code = main(["control", "--config", str(tmp_path / "none.cfg")])
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["control", "--config", "exp.cfg", "--seeds=abc"],
        ["control"],
    ], ids=["unparsable_seeds", "missing_config"])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_process_exit_codes_tell_usage_errors_from_failed_checks(self):
        # as a script sees them: 1 for a mistyped flag, 2 for a failed check
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(sgident.__file__).parents[1])}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "sgident.cli", *argv], env=env,
                                  capture_output=True, text=True)

        usage = run("control", "--seeds=abc")
        assert usage.returncode == 1 and "error:" in usage.stderr
        failed = run("verify-assumption2", "--pair", "linear_mse", "--samples", "2000",
                     "--delta", "2.5")
        assert failed.returncode == 2 and failed.stdout.startswith("FAIL")


class TestCompareCommand:
    def test_compare_two_reports(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, CONTROL_CFG)
        assert main(["control", "--config", cfg]) == 0
        import os

        report = os.path.join(tmp_path, "runs", "report.json")
        capsys.readouterr()
        code = main(["compare", report, report])
        out = capsys.readouterr().out
        assert code == 0
        assert "a=modified" in out and "b=classical" in out

    def test_compare_missing_report_is_a_clean_error(self, tmp_path, capsys):
        code = main(["compare", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "nope.json" in err

    def test_compare_unparsable_report_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["compare", str(bad), str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "JSON" in err
