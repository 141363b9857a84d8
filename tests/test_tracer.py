"""The benchmark's span tracer, ``perfbench/tracer.py``, against the package.

The tracer wraps sgident's public names from the outside, so a name the
package drops or reshapes breaks ``perfbench/run.py --trace 1`` without
failing any other test.  Here it is installed over the package, a small
two-cell control sweep runs under it, and the trace bytes must equal an
untraced run's; ``restore`` must put back every patched attribute.
"""

import importlib
import pathlib
import textwrap

import sgident.cli  # noqa: F401  (the tracer patches every loaded sgident module)
from sgident import bench

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

CONTROL_CFG = """
[experiment]
mode = control
algorithms = modified, classical
n_steps = 60
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


def _attributes(modules):
    """Each attribute of the modules and of the sgident classes in them."""
    found = {}
    for module in modules.values():
        for name, value in vars(module).items():
            found[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("sgident"):
                for attr, member in vars(value).items():
                    found[(value.__module__, value.__qualname__, attr)] = member
    found.update({("ALGORITHMS", key): value for key, value in bench.ALGORITHMS.items()})
    return found


def _changed(before, after):
    return sorted(str(key) for key in before if after.get(key) is not before[key])


def _traces(tmp_path, name):
    out = tmp_path / name
    path = tmp_path / f"{name}.cfg"
    path.write_text(textwrap.dedent(CONTROL_CFG).format(out=out))
    bench.run_experiment(bench.load_config(str(path)))
    return {p.name: p.read_bytes() for p in sorted(out.glob("trace_*.hex"))}


def test_traced_run_writes_the_untraced_bytes_and_restore_undoes_every_patch(
        tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    plain = _traces(tmp_path, "plain")

    modules = tracer.sgident_modules()
    before = _attributes(modules)
    rec = tracer.SpanRecorder()
    try:
        tracer.install(rec, modules)
        assert _changed(before, _attributes(modules))  # the tracer did patch
        traced = _traces(tmp_path, "traced")
    finally:
        rec.restore()
        assert _changed(before, _attributes(modules)) == []
    assert len(rec.spans()[1]) > 0  # and recorded the traced run
    assert len(plain) == 2
    assert traced == plain
