"""Benchmark protocol: generate domains, hold one out, sweep, select, report.

planned_runs lists the runs once: one per held-out domain, repetition,
algorithm and grid point.  run_experiment trains each as _run_one(config, run,
split) and scores it on the pooled validation splits of the training domains
(model selection never sees the held-out domain) and on the held-out domain;
select_model reads the rows back by the same keys.  Per-run seeds derive from
(base seed, algorithm, held-out domain, grid index, repetition) through the
documented 64-bit mix in seeding.py, so any row can be reproduced in isolation
and a repeated run reproduces every row bitwise; wall-clock columns are the
one exception.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import groupby, product
from typing import Sequence

import numpy as np

from .datasets import (
    DomainDataset,
    N_CLASSES,
    DomainSpec,
    apply_stats,
    check_field_types,
    feature_stats,
    gen_rotated_moons,
    gen_spurious_blobs,
    read_config,
    split_train_val,
    train_rows,
)
from .nets import NetworkSpec, TrainingDiverged
from .seeding import derive_seed, stream
from .training import ALGORITHMS, MIN_TRAINING_DOMAINS, TrainConfig, accuracy, overflow_diverges, pipeline, train_algorithm

DEFAULT_ALPHA_GRID = (0.05, 0.1, 0.5)
DEFAULT_BETA_GRID = (0.05, 0.1)

# results.csv keeps accuracies to this many decimals; select_model rounds rows
# to them too, so rows and the file they were written to select alike
ACC_DECIMALS = 6
# Grid points whose mean validation accuracies are this close tie.  Rounding
# moves each accuracy, and so each mean, by at most half a unit in the last
# kept decimal, so the means of an exact tie can end up one unit apart; half a
# unit more covers the float sums.  One prediction in a shipped protocol's
# pooled validation set is worth far more: 1/7200 (blobs) or 1/3600 (moons).
TIE_MARGIN = 1.5 * 10.0 ** -ACC_DECIMALS

FAMILIES = ("spurious_blobs", "rotated_moons")
SELECTIONS = ("training_domain", "leave_one_out")


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark: a data family, its domains, and the sweep protocol.

    test_domain = None runs full leave-one-domain-out; naming a domain pins
    it as the single held-out domain.  selection chooses how the winning grid
    point is picked: "training_domain" (default) scores on pooled training
    validation splits, "leave_one_out" scores each candidate by holding out
    each training domain in turn.  Beyond the rules declared on its fields,
    it refuses what a run would fail on: domains that share an id, a
    test_domain that is none of them, a training domain that split_ratio
    splits with an empty side, and a training domain named "merged" (the key
    of the merged step's RNG streams).
    """

    family: str = field(metadata={"in": FAMILIES})
    domains: tuple[DomainSpec, ...] = field(metadata={"min_len": 2})
    algorithms: tuple[str, ...] = field(
        default=ALGORITHMS, metadata={"in": ALGORITHMS, "min_len": 1, "unique": True})
    test_domain: str | None = None
    n_seeds: int = field(default=3, metadata={"ge": 1})
    base_seed: int = 0
    alpha_grid: tuple[float, ...] = field(
        default=DEFAULT_ALPHA_GRID, metadata={"ge": 0, "min_len": 1, "unique": True})
    beta_grid: tuple[float, ...] = field(
        default=DEFAULT_BETA_GRID, metadata={"gt": 0, "min_len": 1, "unique": True})
    selection: str = field(default="training_domain", metadata={"in": SELECTIONS})
    split_ratio: float = field(default=0.8, metadata={"gt": 0, "lt": 1})
    d_inv: int = field(default=5, metadata={"ge": 1})
    d_spur: int = field(default=5, metadata={"ge": 1})
    feat_hidden: tuple[int, ...] = field(default=(16, 8), metadata={"ge": 1, "min_len": 1})
    cls_hidden: tuple[int, ...] = field(default=(16,), metadata={"ge": 1})
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        check_field_types(self)
        ids = [d.domain_id for d in self.domains]
        if len(set(ids)) != len(ids):
            raise ValueError("domain ids must be unique")
        if self.test_domain is not None and self.test_domain not in ids:
            raise ValueError(f"test_domain {self.test_domain!r} is not one of {ids}")
        if "merged" in ids and self.test_domain != "merged":  # a pinned test_domain never trains
            raise ValueError(
                "training domain id 'merged' is reserved: it keys the merged step's RNG streams"
            )
        for d in self.domains:
            if d.domain_id != self.test_domain:  # a pinned held-out domain is never split
                train_rows(d.domain_id, d.n_samples, self.split_ratio)

    @property
    def feature_dim(self) -> int:
        return self.d_inv + self.d_spur if self.family == "spurious_blobs" else 2

    def network_specs(self) -> tuple[NetworkSpec, NetworkSpec]:
        feat = NetworkSpec((self.feature_dim,) + tuple(self.feat_hidden))
        cls = NetworkSpec((self.feat_hidden[-1],) + tuple(self.cls_hidden) + (N_CLASSES,))
        return feat, cls


def _unique_keys(pairs: list[tuple]) -> dict:
    """json.load's object_pairs_hook: the object, unless it gives a key twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"config key {key!r} is given twice")
        obj[key] = value
    return obj


def load_config(path) -> ExperimentConfig:
    """The config in a JSON file.  Every error the file's contents cause (JSON
    syntax, a key given twice in one object, an unknown or missing key, a value
    of the wrong type or one that breaks its field's rules) raises ValueError
    as "<path>: <message>"."""
    try:
        with open(path) as fh:
            return read_config(ExperimentConfig, json.load(fh, object_pairs_hook=_unique_keys))
    except TypeError as exc:
        raise ValueError(f"{path}: a config value has the wrong type ({exc})") from exc
    except ValueError as exc:  # json.JSONDecodeError included
        raise ValueError(f"{path}: {exc}") from exc


def save_config(path, config: ExperimentConfig) -> None:
    """config as JSON: dataclasses.asdict, so the keys are the dataclass fields
    in field order, nested configs are objects and tuples are arrays."""
    with open(path, "w") as fh:
        json.dump(asdict(config), fh, indent=2)
        fh.write("\n")


def default_benchmark_config() -> ExperimentConfig:
    """The shipped spurious-blobs benchmark: three aligned training domains,
    one held-out domain with the correlation reversed."""
    domains = (
        DomainSpec("train_a", 4000, spurious_correlation=0.95),
        DomainSpec("train_b", 4000, spurious_correlation=0.9),
        DomainSpec("train_c", 4000, spurious_correlation=0.8),
        DomainSpec("flip", 4000, spurious_correlation=-0.9),
    )
    return ExperimentConfig(
        family="spurious_blobs",
        domains=domains,
        test_domain="flip",
        feat_hidden=(32, 16),
        train=TrainConfig(
            base_lr=5e-3,
            outer_iterations=1000,
            kl_weight=1e-4,
        ),
    )


@dataclass(frozen=True)
class ResultRow:
    """One training run.  alpha/beta are None where the algorithm has no such
    knob; val_acc/test_acc are None when the run aborted (scored -inf at
    selection time).  Its rules are checked on rows read from a file only."""

    algorithm: str
    test_domain: str
    seed: int
    alpha: float | None
    beta: float | None
    val_acc: float | None = field(metadata={"ge": 0, "le": 1})
    test_acc: float | None = field(metadata={"ge": 0, "le": 1})
    wall_ms: int = field(metadata={"ge": 0})


RESULTS_HEADER = tuple(f.name for f in fields(ResultRow))


def grid_for(algorithm: str, config: ExperimentConfig) -> list[tuple[float | None, float | None]]:
    """The (alpha, beta) sweep of algorithm's PIPELINES knobs, ascending; None for the others."""
    _, knobs, _ = pipeline(algorithm)
    axes = [sorted(getattr(config, f"{k}_grid")) if k in knobs else [None] for k in ("alpha", "beta")]
    return list(product(*axes))


def generate_domains(config: ExperimentConfig, seed: int) -> dict[str, DomainDataset]:
    if config.family == "spurious_blobs":
        data = gen_spurious_blobs(config.domains, config.d_inv, config.d_spur, seed)
    else:
        data = gen_rotated_moons(config.domains, seed)
    return {d.domain_id: d for d in data}


def data_seed(config: ExperimentConfig, test_domain: str, rep: int) -> int:
    """The seed of the raw draw that one (held-out domain, repetition) uses."""
    return derive_seed(config.base_seed, "data", test_domain, rep)


def prepare_split(
    config: ExperimentConfig, test_domain: str, rep: int
) -> tuple[list[DomainDataset], list[DomainDataset], DomainDataset]:
    """Generate data for one repetition and standardize by the statistics of
    the pooled training splits only.

    Each raw training domain is dropped once split_train_val has copied its
    rows, feature_stats reads the training splits where they lie, without
    pooling them, and every returned array is fresh and standardized in place
    (apply_stats), so this makes no array the size of the pooled training rows."""
    seed = data_seed(config, test_domain, rep)
    by_id = generate_domains(config, seed)
    test = by_id.pop(test_domain)
    trains, vals = [], []
    for i in sorted(by_id):
        tr, va = split_train_val(by_id.pop(i), config.split_ratio, derive_seed(seed, "split", i))
        trains.append(tr)
        vals.append(va)
    mean, std = feature_stats(*(t.x for t in trains))
    for ds in trains + vals + [test]:
        apply_stats(ds.x, mean, std)
    return trains, vals, test


def _xy(*sets: DomainDataset) -> tuple[np.ndarray, np.ndarray]:
    """The rows of sets, stacked in order, as one (x, y) pair."""
    return np.concatenate([s.x for s in sets], axis=0), np.concatenate([s.y for s in sets], axis=0)


def _train_and_score(algorithm, domains, specs, cfg, scored) -> list[float] | None:
    """Train algorithm on domains with cfg; None if it diverged in training or
    in scoring, else its accuracy on each (x, y) of scored, drawn in order from
    the stream (cfg.seed, "eval")."""
    try:
        with overflow_diverges():
            feat, cls, _, _ = train_algorithm(algorithm, domains, *specs, cfg)
            rng = stream(cfg.seed, "eval")
            return [accuracy(feat, cls, x, y, cfg.mc_eval_samples, rng) for x, y in scored]
    except TrainingDiverged:
        return None


def _run_one(config: ExperimentConfig, run: tuple, split: tuple) -> ResultRow:
    """The result row of one planned run on its repetition's split (prepare_split).
    Under leave-one-out selection val_acc is the mean accuracy of retraining
    without each training domain in turn, scored on its train and val rows, and
    None once one of those inner runs diverges."""
    test_domain, rep, algorithm, grid_index, alpha, beta = run
    trains, vals, test = split
    specs = config.network_specs()
    cfg = replace(
        config.train,
        seed=derive_seed(config.base_seed, algorithm, test_domain, grid_index, rep),
        alpha=config.train.alpha if alpha is None else alpha,
        beta=config.train.beta if beta is None else beta,
    )
    t0 = time.perf_counter()
    loo = config.selection == "leave_one_out"
    scored = [_xy(test)] if loo else [_xy(*vals), _xy(test)]
    accs = _train_and_score(algorithm, trains, specs, cfg, scored)
    if loo and accs is not None:
        inner = []
        for j, held in enumerate(trains):
            rest = trains[:j] + trains[j + 1 :]
            inner_cfg = replace(cfg, seed=derive_seed(cfg.seed, "inner", held.domain_id))
            acc = _train_and_score(algorithm, rest, specs, inner_cfg, [_xy(held, vals[j])])
            if acc is None:
                break
            inner += acc
        accs = [float(np.mean(inner)) if len(inner) == len(trains) else None] + accs
    val_acc, test_acc = accs or (None, None)
    wall = int((time.perf_counter() - t0) * 1000)
    return ResultRow(algorithm, test_domain, rep, alpha, beta, val_acc, test_acc, wall)


def held_out_domains(config: ExperimentConfig) -> list[str]:
    """Every domain in turn for leave-one-out, else the one named test domain."""
    if config.test_domain is None:
        return [d.domain_id for d in config.domains]
    return [config.test_domain]


def check_domain_counts(config: ExperimentConfig) -> None:
    """ValueError unless every algorithm gets its minimum of training domains:
    one domain is held out, and leave-one-out selection withholds one more."""
    n = len(config.domains) - 1 - (config.selection == "leave_one_out")
    for algorithm in config.algorithms:
        need = MIN_TRAINING_DOMAINS[algorithm]
        if n < need:
            raise ValueError(f"{algorithm} needs {need} or more training domains, but {len(config.domains)}"
                             f" domains under {config.selection} selection leave {n}")


def planned_runs(config: ExperimentConfig):
    """Every run, in run order, as (held-out domain, repetition, algorithm, grid
    index, alpha, beta); check_domain_counts runs before the first is yielded."""
    check_domain_counts(config)
    for test_domain in held_out_domains(config):
        for rep in range(config.n_seeds):
            for algorithm in config.algorithms:
                for gi, (alpha, beta) in enumerate(grid_for(algorithm, config)):
                    yield test_domain, rep, algorithm, gi, alpha, beta


def run_experiment(config: ExperimentConfig, progress=None) -> list[ResultRow]:
    """The rows of planned_runs, sorted canonically, with one prepare_split per
    (held-out domain, repetition).  progress, if given, is called with each finished row."""
    rows = []
    for (test_domain, rep), runs in groupby(planned_runs(config), key=lambda run: run[:2]):
        split = prepare_split(config, test_domain, rep)
        for run in runs:
            row = _run_one(config, run, split)
            if progress is not None:
                progress(row)
            rows.append(row)
    return sort_rows(rows)


def sort_rows(rows: Sequence[ResultRow]) -> list[ResultRow]:
    key = lambda r: (
        r.algorithm,
        r.test_domain,
        -1.0 if r.alpha is None else r.alpha,
        -1.0 if r.beta is None else r.beta,
        r.seed,
    )
    return sorted(rows, key=key)


@dataclass(frozen=True)
class Selection:
    """The grid point picked for one (algorithm, held-out domain).  test_accs
    has one held-out accuracy per repetition, NaN where the run diverged; the
    mean and std cover the repetitions that finished, NaN when none did."""

    algorithm: str
    test_domain: str
    alpha: float | None
    beta: float | None
    mean_val_acc: float
    test_accs: tuple[float, ...]

    def _finished(self) -> list[float]:
        return [a for a in self.test_accs if not np.isnan(a)]

    @property
    def n_diverged(self) -> int:
        return len(self.test_accs) - len(self._finished())

    @property
    def mean_test_acc(self) -> float:
        finished = self._finished()
        return float(np.mean(finished)) if finished else np.nan

    @property
    def std_test_acc(self) -> float:
        finished = self._finished()
        return float(np.std(finished)) if finished else np.nan  # population std


def select_model(rows: Sequence[ResultRow], config: ExperimentConfig) -> list[Selection]:
    """Pick each algorithm's grid point per held-out domain.

    Scores a grid point by mean validation accuracy over repetitions, with a
    failed run counting -inf, after rounding each accuracy to the
    ACC_DECIMALS that results.csv keeps, so rows and the file they were
    written to select alike.  A later grid point wins only by more than
    TIE_MARGIN, so in ascending grid order a tie goes to the smaller alpha,
    then the smaller beta.  The rows must be those of planned_runs, each once:
    a duplicate, a row the config does not run, and the first missing run in
    run order are refused by name.
    """
    # row keys (algorithm, held-out domain, alpha, beta, repetition), in run order
    plan = [(a, d, alpha, beta, rep) for d, rep, a, _, alpha, beta in planned_runs(config)]
    expected = set(plan)
    table: dict[tuple, ResultRow] = {}
    for r in rows:
        k = (r.algorithm, r.test_domain, r.alpha, r.beta, r.seed)
        if k in table:
            raise ValueError(f"duplicate result row for {k}")
        if k not in expected:
            raise ValueError(f"unexpected result row for {k}: the config does not run it")
        table[k] = r
    # (algorithm, held-out domain) -> (alpha, beta) in ascending grid order -> rows by repetition
    cells: dict[tuple, dict[tuple, list[ResultRow]]] = {}
    for k in plan:
        if k not in table:
            raise ValueError(f"missing result row for {k}")
        cells.setdefault(k[:2], {}).setdefault(k[2:4], []).append(table[k])
    out = []
    for (algorithm, test_domain), grid in sorted(
            cells.items(), key=lambda cell: config.algorithms.index(cell[0][0])):
        best = None
        for (alpha, beta), runs in grid.items():
            vals = [-np.inf if r.val_acc is None else round(r.val_acc, ACC_DECIMALS) for r in runs]
            mean_val = float(np.mean(vals))
            if best is None or mean_val > best.mean_val_acc + TIE_MARGIN:
                tests = tuple(np.nan if r.test_acc is None else round(r.test_acc, ACC_DECIMALS) for r in runs)
                best = Selection(algorithm, test_domain, alpha, beta, mean_val, tests)
        out.append(best)
    return out


def _summary_cell(s: Selection) -> str:
    n, bad = len(s.test_accs), s.n_diverged
    if bad == n:
        return f"diverged ({n} of {n})"
    cell = f"{s.mean_test_acc:.4f} ± {s.std_test_acc:.4f}"
    return f"{cell} ({bad} of {n} diverged)" if bad else cell


def summarize(selections: Sequence[Selection]) -> str:
    """Markdown table: one row per algorithm, one column per held-out domain,
    cells are mean +/- population std of held-out accuracy at the selected
    grid point over the repetitions that finished, with a count of those that
    diverged, plus the average of the cells that have a mean."""
    algorithms = sorted({s.algorithm for s in selections})
    domains = sorted({s.test_domain for s in selections})
    by_key = {(s.algorithm, s.test_domain): s for s in selections}
    lines = ["| algorithm | " + " | ".join(domains) + " | average |"]
    lines.append("|" + " --- |" * (len(domains) + 2))
    for a in algorithms:
        row = [by_key[(a, d)] for d in domains]
        means = [s.mean_test_acc for s in row if not np.isnan(s.mean_test_acc)]
        average = f"{np.mean(means):.4f}" if means else "diverged"
        lines.append(f"| {a} | " + " | ".join(map(_summary_cell, row)) + f" | {average} |")
    return "\n".join(lines) + "\n"


def write_results_csv(path, rows: Sequence[ResultRow]) -> None:
    """Fixed header and fixed float formatting so reruns are byte-identical
    apart from the wall_ms column.  Accuracies keep ACC_DECIMALS decimals, the
    values select_model scores."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for r in sort_rows(rows):
            writer.writerow(
                [
                    r.algorithm,
                    r.test_domain,
                    r.seed,
                    "" if r.alpha is None else repr(float(r.alpha)),
                    "" if r.beta is None else repr(float(r.beta)),
                    "" if r.val_acc is None else f"{r.val_acc:.{ACC_DECIMALS}f}",
                    "" if r.test_acc is None else f"{r.test_acc:.{ACC_DECIMALS}f}",
                    r.wall_ms,
                ]
            )


def read_results_csv(path) -> list[ResultRow]:
    """Rows of a results.csv; a row without exactly one field per header
    column, or with a cell that does not parse or breaks its field's rules
    (check_field_types), raises ValueError naming its line."""
    cell = lambda text: None if text == "" else float(text)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != RESULTS_HEADER:
            raise ValueError(f"unexpected results header {header}")
        for rec in reader:
            where = f"{path} line {reader.line_num}"
            if len(rec) != len(RESULTS_HEADER):
                raise ValueError(
                    f"{where}: expected {len(RESULTS_HEADER)} fields, got {len(rec)}"
                )
            try:
                row = ResultRow(rec[0], rec[1], int(rec[2]), cell(rec[3]), cell(rec[4]),
                                cell(rec[5]), cell(rec[6]), int(rec[7]))
                check_field_types(row)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            rows.append(row)
    return rows


def write_training_log(path, history: Sequence[dict]) -> None:
    """Per-iteration scalars as CSV; columns follow the first row's keys.  No rows
    (a last stage of zero steps) give the header of every log, iteration,merged_loss."""
    fields = list(history[0]) if history else ["iteration", "merged_loss"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in history:
            writer.writerow({k: row.get(k, "") for k in fields})


def _finite_or_none(value: float) -> float | None:
    return value if np.isfinite(value) else None


def selections_to_json(selections: Sequence[Selection]) -> list[dict]:
    """Plain JSON values: a mean or std that diverged repetitions left
    undefined (-inf or NaN) is None, so the file stays strict JSON."""
    return [
        {
            "algorithm": s.algorithm,
            "test_domain": s.test_domain,
            "alpha": s.alpha,
            "beta": s.beta,
            "mean_val_acc": _finite_or_none(s.mean_val_acc),
            "mean_test_acc": _finite_or_none(s.mean_test_acc),
            "std_test_acc": _finite_or_none(s.std_test_acc),
            "n_diverged": s.n_diverged,
        }
        for s in selections
    ]
