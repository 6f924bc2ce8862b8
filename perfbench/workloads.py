"""The benchmark's three workloads: what one pass runs and how it is checked.

* blobs-default: the shipped spurious-blobs benchmark.  Aggregation
  (moment_match, CoV dropout) is a large share of every ptg/ptg_lite run, so
  a change to ``aggregate`` shows here first.
* moons-l1o: configs/moons_l1o.json, every domain held out in turn with
  leave_one_out selection (four train_algorithm calls per result row).  Warm
  starts dominate and aggregation is small: an aggregation change should not
  move this one, and it is the only coverage of l1o selection.
* verify: the grad-check and oracle-check entry points plus moment matching
  against Monte Carlo.  Tiny nets evaluated thousands of times make per-call
  overhead dominate, and it is the only workload reaching oracles and checks.

A training workload keeps every shape of its config and only narrows the
sweep to one repetition at alpha 0.05, the smallest grid value, so every kept
row has the same derived seed, and the same result, as in the full sweep.
A pass is one held-out domain: blobs holds out only ``flip``, and moons
holds out each of its four domains in a pass of its own, so one cycle of
four passes covers the whole leave-one-out protocol.  Every pass of a
workload does the same amount of work, and a run times several of them.
``full=True`` runs the whole config as one pass; at seed 0 the blobs table
then equals the README table.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from ptg import aggregate, cli, harness, nets, oracles, training, variational

ROOT = Path(__file__).resolve().parent.parent
ALGORITHMS = training.ALGORITHMS

GRAD_INSTANCES = 100   # from 50 up, seed 0 shows the known ELBO check failure
ORACLE_TRIALS = 10_000
MC_CASES = 5
MC_SAMPLES = 400_000
# tests/test_aggregate.py compares moment_match with Monte Carlo at these
MC_MEAN_ATOL = 2e-2
MC_VAR_RTOL = 3e-2


@dataclass
class Pass:
    """Outcome of one pass of a workload."""

    wall_s: float
    attempted: int
    failed: int
    rows: list[harness.ResultRow] = field(default_factory=list)
    fingerprint: str = ""  # verify only; a training cycle hashes its merged rows
    grad_max_rel_err: float | None = None
    problems: list[str] = field(default_factory=list)
    report: str = ""


@dataclass
class Cycle:
    """One pass per slice of a workload, and what they give together."""

    passes: list[Pass]
    fingerprint: str
    acc: dict[str, float]
    report: str

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    @property
    def problems(self) -> list[str]:
        return [msg for p in self.passes for msg in p.problems]

    @property
    def grad_max_rel_err(self) -> float | None:
        return self.passes[0].grad_max_rel_err


def results_fingerprint(path: Path) -> str:
    """sha256 of results.csv with the wall_ms column removed."""
    h = hashlib.sha256()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        drop = header.index("wall_ms")
        for rec in [header, *reader]:
            h.update((",".join(rec[:drop] + rec[drop + 1 :]) + "\n").encode())
    return h.hexdigest()


def expected_trains_per_row(config) -> int:
    n_train = len(config.domains) - 1
    return 1 + n_train if config.selection == "leave_one_out" and n_train >= 2 else 1


def training_pass(config, scratch: Path) -> Pass:
    t0 = perf_counter()
    rows = harness.run_experiment(config)
    selections = harness.select_model(rows, config)
    harness.write_results_csv(scratch / "results.csv", rows)
    harness.summarize(selections)
    wall = perf_counter() - t0
    return Pass(
        wall_s=wall,
        attempted=len(rows),
        failed=sum(r.val_acc is None for r in rows),
        rows=rows,
    )


def training_cycle(config, passes: list[Pass], scratch: Path) -> Cycle:
    """Merge the rows of a cycle's passes into the results of ``config``:
    the fingerprint of its results.csv, the selected test accuracy averaged
    over held-out domains, and the summary table."""
    rows = harness.sort_rows([r for p in passes for r in p.rows])
    harness.write_results_csv(scratch / "cycle.csv", rows)
    selections = harness.select_model(rows, config)
    acc = {
        a: float(np.mean([s.mean_test_acc for s in selections if s.algorithm == a]))
        for a in config.algorithms
    }
    return Cycle(passes, results_fingerprint(scratch / "cycle.csv"), acc,
                 harness.summarize(selections))


def _cli(argv: list[str]) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, json.loads(buf.getvalue())


def _mixture_case(seed: int, case: int) -> dict:
    rng = np.random.default_rng([seed, case])
    spec = nets.NetworkSpec((2, 2))
    mus = rng.normal(size=(3, spec.param_count))
    sigmas = rng.uniform(0.1, 1.0, size=(3, spec.param_count))
    qs = [
        variational.GaussianVariational(spec, mus[i], variational.softplus_inv(sigmas[i]))
        for i in range(3)
    ]
    q0 = aggregate.moment_match(qs).q0
    mc_mean, mc_var = oracles.mixture_moments_mc(
        [(q.mu, q.sigma) for q in qs], MC_SAMPLES, seed=int(rng.integers(1 << 31))
    )
    return {
        "mean_abs_err": float(np.abs(q0.mu - mc_mean).max()),
        "var_rel_err": float((np.abs(q0.sigma**2 - mc_var) / mc_var).max()),
    }


def _rounded(obj):
    """Floats at 6 significant digits, so a fingerprint ignores last-bit noise."""
    if isinstance(obj, float):
        return f"{obj:.6e}"
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def verify_pass(seed: int) -> Pass:
    t0 = perf_counter()
    grad_rc, grad = _cli(["grad-check", "--seed", str(seed), "--instances", str(GRAD_INSTANCES)])
    oracle_rc, oracle = _cli(["oracle-check", "--seed", str(seed), "--trials", str(ORACLE_TRIALS)])
    mixture = [_mixture_case(seed, c) for c in range(MC_CASES)]
    wall = perf_counter() - t0

    tol = grad["tolerance"]
    verdicts = [
        grad["backward"]["max_rel_err"] < tol,
        grad["variational"]["max_rel_err"] < tol,
        oracle_rc == 0 and oracle["ok"],
    ] + [m["mean_abs_err"] <= MC_MEAN_ATOL and m["var_rel_err"] <= MC_VAR_RTOL for m in mixture]
    problems = []
    if not verdicts[2]:
        problems.append(f"oracle-check identity gap {oracle['max_identity_gap']:.3e}")
    if not all(verdicts[3:]):
        problems.append(f"moment_match disagrees with Monte Carlo: {mixture}")
    if grad_rc != (0 if all(verdicts[:2]) else 2):
        problems.append(f"grad-check exit code {grad_rc} does not match its report")
    outputs = {"grad_rc": grad_rc, "grad": grad, "oracle": oracle, "mixture": mixture}
    blob = json.dumps(_rounded(outputs), sort_keys=True)
    return Pass(
        wall_s=wall,
        fingerprint=hashlib.sha256(blob.encode()).hexdigest(),
        attempted=len(verdicts),
        failed=verdicts.count(False),
        grad_max_rel_err=max(grad["backward"]["max_rel_err"], grad["variational"]["max_rel_err"]),
        problems=problems,
        report=json.dumps(outputs, indent=2),
    )


def expected_train_counts(algorithm: str, n_domains: int, cfg) -> dict[str, int]:
    """Calls one train_algorithm call must make, in closed form from its config."""
    e, b, o, d = cfg.erm_steps, cfg.bayes_steps, cfg.outer_iterations, n_domains
    bayes = algorithm in ("erm_bayesian", "ptg")
    return {
        "training.erm_train": 1,
        "training.erm_bayesian_train": int(bayes),
        "training.ptg_train": int(algorithm == "ptg"),
        "training.ptg_lite_train": int(algorithm == "ptg_lite"),
        "variational.elbo_loss": (b if bayes else 0) + (o * (d + 1) if algorithm == "ptg" else 0),
        "nets.adam_step": 2 * e
        + (2 * b if bayes else 0)
        + (o * (d + 2) if algorithm in ("ptg", "ptg_lite") else 0),
        "aggregate.moment_match": o if algorithm == "ptg" else 0,
        "aggregate.cov_dropout": o if algorithm == "ptg_lite" else 0,
    }


class LayerChecks:
    """Hooks and closed-form count checks for one traced pass."""

    def __init__(self):
        self.problems: list[str] = []
        self.kept = 0
        self.aggregated = 0
        self._train_sig = inspect.signature(training.train_algorithm)

    def hooks(self) -> dict[str, Callable]:
        return {
            "training.train_algorithm": self._after_train,
            "aggregate.cov_dropout": self._after_cov_dropout,
        }

    def _after_train(self, args, kwargs, result, at_entry, calls):
        bound = self._train_sig.bind(*args, **kwargs).arguments
        want = expected_train_counts(bound["algorithm"], len(bound["domains"]), bound["config"])
        for name, n in want.items():
            got = calls.get(name, 0) - at_entry.get(name, 0)
            if got != n:
                self.problems.append(
                    f"{bound['algorithm']} on {len(bound['domains'])} domains: "
                    f"{name} called {got} times, closed form says {n}"
                )

    def _after_cov_dropout(self, args, kwargs, result, at_entry, calls):
        mask = result[1].kept_mask
        self.kept += int(np.count_nonzero(mask))
        self.aggregated += int(mask.size)

    def check_cycle(self, name: str, config, c: Cycle, calls: dict[str, int]) -> None:
        if name == "verify":
            want = {
                "checks.run_backward_checks": 1,
                "checks.run_elbo_checks": 1,
                "checks.central_difference": 6 * GRAD_INSTANCES,
                "oracles.random_model": ORACLE_TRIALS,
                "oracles.identity_gap": ORACLE_TRIALS,
                "oracles.data_conditioned_gap": ORACLE_TRIALS,
                "oracles.mixture_moments_mc": MC_CASES,
                "aggregate.moment_match": MC_CASES,
            }
        else:
            n = len(c.passes)
            want = {
                "harness.run_experiment": n,
                "harness.select_model": n,
                "harness.write_results_csv": n,
                "training.train_algorithm": c.attempted * expected_trains_per_row(config),
            }
        for fn, n in want.items():
            if calls.get(fn, 0) != n:
                self.problems.append(f"{fn} called {calls.get(fn, 0)} times per cycle, expected {n}")


@dataclass(frozen=True)
class Workload:
    name: str
    # python run by the set-up probe after ``import ptg``: load the config
    setup_code: str
    make_config: Callable[[int, bool], object] | None
    # seconds of one pass on a 2-vCPU x86 host; sets how many passes a run
    # makes, so that a seed always gives the same work and the same counts
    pass_s: float

    def slices(self, seed: int, full: bool) -> list:
        """What each pass of a cycle runs: a config, or the seed for verify."""
        if self.make_config is None:
            return [seed]
        config = self.make_config(seed, full)
        if full or config.test_domain is not None:
            return [config]
        return [replace(config, test_domain=d.domain_id) for d in config.domains]

    def run_passes(self, seed: int, full: bool, scratch: Path) -> list[Pass]:
        if self.make_config is None:
            return [verify_pass(seed)]
        return [training_pass(config, scratch) for config in self.slices(seed, full)]

    def cycle(self, seed: int, full: bool, passes: list[Pass], scratch: Path) -> Cycle:
        if self.make_config is None:
            (p,) = passes
            return Cycle(passes, p.fingerprint, {}, p.report)
        return training_cycle(self.make_config(seed, full), passes, scratch)


def blobs_config(seed: int, full: bool):
    cfg = replace(harness.default_benchmark_config(), base_seed=seed)
    return cfg if full else replace(cfg, alpha_grid=(0.05,), n_seeds=1)


MOONS_PATH = ROOT / "configs" / "moons_l1o.json"


def moons_config(seed: int, full: bool):
    cfg = replace(harness.load_config(MOONS_PATH), base_seed=seed)
    return cfg if full else replace(cfg, alpha_grid=(0.05,), n_seeds=1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "blobs-default",
            "from ptg.harness import default_benchmark_config; default_benchmark_config()",
            blobs_config,
            7.5,
        ),
        Workload(
            "moons-l1o",
            f"from ptg.harness import load_config; load_config({str(MOONS_PATH)!r})",
            moons_config,
            7.3,
        ),
        Workload(
            "verify",
            "from ptg import cli; cli.build_parser()",
            None,
            7.5,
        ),
    )
}
