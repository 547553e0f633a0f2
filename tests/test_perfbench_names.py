"""The names the benchmark under perfbench/ binds in sddde still exist.

perfbench/tracer.py patches the functions it lists in SPANNED and COUNTED
with getattr, and perfbench/workloads.py imports some private helpers and
reads ``sddde.<name>`` at call time. Deleting any of them breaks the traced
benchmark run; these checks catch it in the fast suite.
"""

import importlib.util
import re
from pathlib import Path

import pytest

import sddde

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_workloads_import():
    _load("workloads")


def test_traced_paths_resolve(tracer):
    for modname, path, _ in tracer.SPANNED + tracer.COUNTED:
        obj = getattr(sddde, modname)
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"sddde.{modname}.{path}"


def test_workload_attributes_resolve():
    source = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\bsddde\.(\w+)", source))
    assert names
    for name in sorted(names):
        assert hasattr(sddde, name), f"sddde.{name}"
    # the spectral_projection workload calls it on the ExpPoly it builds
    assert ".real_part()" in source and callable(sddde.ExpPoly.real_part)
