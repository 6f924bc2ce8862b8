"""The demos and README's Python examples run to completion as scripts,
under the warnings that the suite's filterwarnings makes errors.

Demos 01-04 take a few seconds together.  Demo 05 is left out: it runs the
default benchmark, which tests/test_acceptance.py already covers through
run_experiment; the CI workflow runs its single-seed pass as its own step.
README's first Python example is that same benchmark, so only the second
and third run here.
"""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p for p in (ROOT / "demos").glob("0[1-4]_*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
# filterwarnings in pyproject.toml, as the interpreter's -W options
WARNINGS_AS_ERRORS = [
    "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", "-W", "error::FutureWarning",
]


def test_the_fast_demos_are_all_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, str(demo)], cwd=tmp_path, env=src_env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_has_three_python_examples():
    assert len(README_EXAMPLES) == 3
    assert "run_experiment(config)" in README_EXAMPLES[0]


@pytest.mark.parametrize("example", README_EXAMPLES[1:], ids=["aggregation", "one-training-run"])
def test_readme_example_exits_zero(example, tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, "-c", example], cwd=tmp_path, env=src_env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
