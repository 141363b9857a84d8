"""Every name in the ``__all__`` of each module of the package resolves.

A removal that leaves its name in an ``__all__`` would otherwise surface
only at a ``from ... import *``.
"""

import importlib
import pkgutil

import pytest

import sgident

MODULES = ["sgident"] + sorted(
    name for _, name, _ in pkgutil.iter_modules(sgident.__path__, "sgident."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_the_exports_of_the_run_modules_are_checked():
    assert {"sgident.bench", "sgident.control", "sgident.sg"} <= set(MODULES)
