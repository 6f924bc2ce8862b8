"""perfbench/tracer.py resolves every target it traces.

The benchmark's per-layer metrics come from a tracer that wraps named ptg
functions from outside.  Renaming or deleting one of them breaks
``perfbench/run.py --trace 1``; this test catches that in the unit suite.
The tracer file is only read, never written (no bytecode cache is left).
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import ptg.cli  # noqa: F401  -- the tracer patches every loaded ptg module
from ptg import checks

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(target: str):
    parts = target.split(".")
    obj = sys.modules["ptg." + parts[0]]
    for attr in parts[1:]:
        obj = getattr(obj, attr)
    return obj


def test_every_target_installs_counts_and_uninstalls(monkeypatch):
    tracer_mod = load_tracer(monkeypatch)
    originals = {t: resolve(t) for t in tracer_mod.TARGETS}
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for target in tracer_mod.TARGETS:
            assert resolve(target).__wrapped__ is originals[target], target
        checks.run_backward_checks(0, 1)
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        assert resolve(target) is original, target
    assert tracer.calls["checks.run_backward_checks"] == 1
    assert tracer.calls["nets.forward"] > 0 and tracer.calls["nets.backward"] > 0
