"""Command-line entry points.

Exit codes: 0 on success, 1 for configuration/usage problems, 2 for runtime
failures (diverged training, a failed verification sweep).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checks, oracles
from .aggregate import CovReport, save_cov_report
from .datasets import save_dataset_csv
from .harness import (
    ExperimentConfig,
    data_seed,
    default_benchmark_config,
    generate_domains,
    held_out_domains,
    load_config,
    prepare_split,
    read_results_csv,
    run_experiment,
    select_model,
    selections_to_json,
    summarize,
    write_results_csv,
    write_training_log,
)
from .nets import TrainingDiverged
from .training import ALGORITHMS, train_algorithm
from .variational import save_model

GRAD_TOLERANCE = 1e-4
ORACLE_TOLERANCE = 1e-12


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def positive_int(text: str) -> int:
    """argparse type of a sweep size: an int of at least 1, so the sweep checks something."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load(args) -> ExperimentConfig:
    """--config (default: the built-in benchmark) at the base seed --seed."""
    config = default_benchmark_config() if args.config is None else load_config(args.config)
    base_seed = getattr(args, "base_seed", None)
    return config if base_seed is None else replace(config, base_seed=base_seed)


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen_data(args) -> int:
    """Per held-out domain, repetition 0's raw draw: the data `ptg train` and
    the first repetition of `ptg run` use."""
    config = _load(args)
    for held_out in held_out_domains(config):
        out = _outdir(Path(args.out) / held_out)
        by_id = generate_domains(config, data_seed(config, held_out, 0))
        for domain_id in sorted(by_id):
            path = out / f"{domain_id}.csv"
            save_dataset_csv(by_id[domain_id], path)
            print(f"wrote {path}")
    return 0


def _cmd_train(args) -> int:
    config = _load(args)
    if args.test_domain is not None:
        config = replace(config, test_domain=args.test_domain)
    if config.test_domain is None:
        ids = [d.domain_id for d in config.domains]
        raise ValueError(f"train needs a held-out domain, one of {ids}; got None")
    algorithm = args.algorithm or config.algorithms[0]
    seed = args.seed if args.seed is not None else config.train.seed
    out = _outdir(args.out)
    # the data a `ptg run` row trains on: repetition 0's training splits,
    # standardized by their pooled statistics
    trains, _, _ = prepare_split(config, config.test_domain, 0)
    cfg = replace(config.train, seed=seed)
    feat, cls, history, bank = train_algorithm(algorithm, trains, *config.network_specs(), cfg)
    if isinstance(getattr(bank, "last_aggregate", None), CovReport):
        save_cov_report(out / "cov_report.json", bank.last_aggregate)
    save_model(out / "featurizer.json", feat)
    save_model(out / "classifier.json", cls)
    write_training_log(out / "training_log.csv", history)
    print(f"trained {algorithm} on {len(trains)} domains; artifacts in {out}")
    return 0


def _write_selection(out: Path, selections) -> str:
    """Write selection.json and summary.md; returns the summary table."""
    with open(out / "selection.json", "w") as fh:
        json.dump(selections_to_json(selections), fh, indent=2, allow_nan=False)
    table = summarize(selections)
    (out / "summary.md").write_text(table)
    return table


def _cmd_run(args) -> int:
    """The grid's rows, then the selection and summary from results.csv as
    written, so that `ptg summarize` on that file writes the same bytes."""
    config = _load(args)
    out = _outdir(args.out)
    rows = run_experiment(config, progress=lambda r: print(
        f"  {r.algorithm} test={r.test_domain} seed={r.seed} "
        f"alpha={r.alpha} beta={r.beta} val={r.val_acc} test={r.test_acc}"
    ))
    write_results_csv(out / "results.csv", rows)
    print(f"wrote {out / 'results.csv'} ({len(rows)} rows)")
    _write_selection(out, select_model(read_results_csv(out / "results.csv"), config))
    print(f"wrote {out / 'selection.json'} and {out / 'summary.md'}")
    return 0


def _cmd_summarize(args) -> int:
    config = _load(args)
    rows = read_results_csv(args.results)
    selections = select_model(rows, config)
    print(_write_selection(_outdir(args.out), selections), end="")
    return 0


def _cmd_oracle_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    identity, conditioned = [], []
    for _ in range(args.trials):
        model = oracles.random_model(
            rng,
            n_omega=int(rng.integers(2, 7)),
            n_causal=int(rng.integers(2, 5)),
            n_variant=int(rng.integers(2, 5)),
            n_obs=int(rng.integers(2, 5)),
        )
        identity.append(oracles.identity_gap(model))
        obs = [int(rng.integers(0, model.likelihood.shape[3])) for _ in range(3)]
        conditioned.append(oracles.data_conditioned_gap(model, 0, obs))
    # np.max, not max: a NaN gap must reach the report and fail it
    worst_identity = float(np.max(identity))
    worst_conditioned = float(np.max(conditioned))
    report = {
        "trials": args.trials,
        "max_identity_gap": worst_identity,
        "identity_tolerance": ORACLE_TOLERANCE,
        "max_data_conditioned_gap": worst_conditioned,  # informational only
        "ok": bool(worst_identity < ORACLE_TOLERANCE),
    }
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 2


def _cmd_grad_check(args) -> int:
    report = {
        "backward": checks.run_backward_checks(args.seed, args.instances),
        "variational": checks.run_elbo_checks(args.seed + 1, args.instances),
        "tolerance": GRAD_TOLERANCE,
    }
    report["ok"] = bool(
        report["backward"]["max_rel_err"] < GRAD_TOLERANCE
        and report["variational"]["max_rel_err"] < GRAD_TOLERANCE
    )
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ptg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default="out"):
        p.add_argument("--config", help="experiment config JSON (default: built-in benchmark)")
        p.add_argument("--out", default=out_default, help="output directory")
        return p

    def base_seed(p):
        p.add_argument("--seed", dest="base_seed", metavar="SEED", type=int,
                       help="override the config's base seed")
        return p

    p = sub.add_parser("gen-data", help="write a run's data as CSV plus sidecar per domain")
    base_seed(common(p, "data")).set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="one training run; writes checkpoints and a log")
    common(p).add_argument("--seed", type=int,
                           help="training seed (default: train.seed); the data keep the base seed")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--test-domain", help="domain to hold out (default from config)")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("run", help="full protocol: the grid's rows CSV, selection, summary")
    base_seed(common(p, "results")).set_defaults(fn=_cmd_run)

    p = sub.add_parser("summarize", help="selection and summary table from a rows CSV")
    common(p, "results")
    p.add_argument("results", help="rows CSV produced by run")
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("oracle-check", help="enumeration sweep of the posterior identity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=positive_int, default=1000)
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=positive_int, default=20)
    p.set_defaults(fn=_cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
