"""Shared fixtures."""
from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import pytest

from ptg.harness import default_benchmark_config

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def src_env():
    """The environment for a child Python process that imports ptg from src/,
    whether or not the package is installed or PYTHONPATH is set."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.fixture()
def overflowing_config():
    """The shipped benchmark at one seed and 20 steps a phase, with alpha
    1e200 in the grid and in train: one per-domain step at that rate throws
    the ptg and ptg_lite models so far that their first aggregation
    overflows.  erm and erm_bayesian do not read alpha."""
    config = default_benchmark_config()
    train = replace(config.train, alpha=1e200, outer_iterations=20, erm_steps=20, bayes_steps=20)
    return replace(config, n_seeds=1, alpha_grid=(1e200,), train=train)
