"""The demos run to completion as scripts.

Demos 01-04 take a few seconds together.  Demo 05 is left out: it runs the
default benchmark, which tests/test_acceptance.py already covers through
run_experiment; the CI workflow runs its single-seed pass as its own step.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_the_fast_demos_are_all_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=src_env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
