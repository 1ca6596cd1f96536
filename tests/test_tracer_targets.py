"""The benchmark tracer's contract with flowmon: every traced name is
defined in the module it is listed under, and wrapping reaches the
bindings the benchmark self-test checks, then leaves none changed."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import flowmon.cli  # noqa: F401  (loads every flowmon module the tracer wraps)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def tracer(monkeypatch):
    # loaded by path, and with no bytecode written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_defined_in_its_module(tracer):
    found = tracer.originals()
    assert list(found) == [f"{mod}.{fn}" for mod, fn in tracer.TARGETS]
    for mod, fn in tracer.TARGETS:
        real = found[f"{mod}.{fn}"]
        assert callable(real)
        assert (real.__module__, real.__name__) == (f"flowmon.{mod}", fn)
        assert getattr(importlib.import_module(f"flowmon.{mod}"), fn) is real


def test_wrap_reaches_solvers_bridge_ids_and_unwrap_restores(tracer):
    before = tracer.snapshot()
    t = tracer.Tracer()
    t.wrap()
    try:
        wrapped = tracer.differences(before, tracer.snapshot())
    finally:
        t.unwrap()
    assert "flowmon.solvers.bridge_ids" in wrapped
    assert tracer.differences(before, tracer.snapshot()) == []
