"""Experiment protocol: sweeps, selection, reporting, byte-stable outputs."""
from __future__ import annotations

import dataclasses
import json
import math
import re
from collections import Counter
from itertools import combinations
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

import ptg.harness
import ptg.training
from ptg.cli import build_parser
from ptg.datasets import DomainSpec, check_field_types, feature_stats, read_config, split_train_val
from ptg.harness import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_BETA_GRID,
    RESULTS_HEADER,
    ExperimentConfig,
    ResultRow,
    Selection,
    check_domain_counts,
    data_seed,
    default_benchmark_config,
    generate_domains,
    grid_for,
    load_config,
    planned_runs,
    prepare_split,
    read_results_csv,
    run_experiment,
    save_config,
    select_model,
    selections_to_json,
    sort_rows,
    summarize,
    write_results_csv,
    write_training_log,
)
from ptg.nets import TrainingDiverged
from ptg.seeding import derive_seed
from ptg.training import (
    MIN_TRAINING_DOMAINS,
    PIPELINES,
    FeaturizerBank,
    TrainConfig,
    accuracy,
    train_algorithm,
)
from ptg.variational import PriorSpec

REPO = Path(__file__).resolve().parents[1]
# the layer widths as configs/default.json spells them, one entry a line
FEAT_HIDDEN = '"feat_hidden": [\n    32,\n    16\n  ]'
CLS_HIDDEN = '"cls_hidden": [\n    16\n  ]'


def tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        family="spurious_blobs",
        domains=(
            DomainSpec("a", 120, spurious_correlation=0.9),
            DomainSpec("b", 120, spurious_correlation=0.8),
            DomainSpec("c", 120, spurious_correlation=-0.8),
        ),
        test_domain="c",
        n_seeds=2,
        alpha_grid=(0.1, 0.5),
        beta_grid=(0.1,),
        d_inv=2,
        d_spur=2,
        feat_hidden=(6, 4),
        cls_hidden=(4,),
        train=TrainConfig(outer_iterations=3, erm_steps=5, bayes_steps=5, batch_size=32),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(family="images")
        with pytest.raises(ValueError):
            tiny_config(domains=(DomainSpec("a", 10),))
        with pytest.raises(ValueError):
            tiny_config(test_domain="z")
        with pytest.raises(ValueError):
            tiny_config(algorithms=("erm", "mystery"))
        with pytest.raises(ValueError):
            tiny_config(selection="oracle")
        with pytest.raises(ValueError):
            tiny_config(alpha_grid=())
        with pytest.raises(ValueError):
            tiny_config(alpha_grid=(-0.1,))
        with pytest.raises(ValueError):
            tiny_config(n_seeds=0)
        with pytest.raises(ValueError, match="domain ids must be unique"):
            tiny_config(domains=(DomainSpec("a", 10), DomainSpec("a", 20)), test_domain=None)
        with pytest.raises(ValueError, match="algorithms must have length >= 1"):
            tiny_config(algorithms=())
        with pytest.raises(ValueError, match="training domain id 'merged' is reserved"):
            tiny_config(domains=(DomainSpec("a", 10), DomainSpec("merged", 20)), test_domain=None)
        # a pinned held-out domain is never trained on, so it may take the name
        domains = tiny_config().domains[:2] + (DomainSpec("merged", 120),)
        assert tiny_config(domains=domains, test_domain="merged").test_domain == "merged"
        for grids in ({"alpha_grid": (0.1, 0.1)}, {"alpha_grid": (0.5, 0.1, 0.5)},
                      {"beta_grid": (0.2, 0.2)}):
            with pytest.raises(ValueError, match="must not repeat a value"):
                tiny_config(**grids)

    @pytest.mark.parametrize("field, value, message", [
        ("train", None, "train must be a TrainConfig, got None"),
        ("train", {"alpha": 0.1}, "train must be a TrainConfig, got {'alpha': 0.1}"),
        ("domains", (DomainSpec("a", 10), "b"), "domains must be a DomainSpec, got (DomainSpec("),
    ])
    def test_nested_config_field_takes_only_its_class(self, field, value, message):
        with pytest.raises(TypeError) as ei:
            dataclasses.replace(default_benchmark_config(), **{field: value})
        assert str(ei.value).startswith(message)

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "cfg.json"
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_network_dims(self):
        feat, cls = tiny_config().network_specs()
        assert feat.layer_dims == (4, 6, 4)
        assert cls.layer_dims == (4, 4, 2)
        moons = tiny_config(
            family="rotated_moons",
            domains=(DomainSpec("a", 10), DomainSpec("b", 10)),
            test_domain="b",
        )
        assert moons.network_specs()[0].layer_dims == (2, 6, 4)

    def test_default_benchmark(self):
        cfg = default_benchmark_config()
        assert cfg.test_domain == "flip"
        assert len(cfg.domains) == 4
        assert cfg.alpha_grid == DEFAULT_ALPHA_GRID
        assert cfg.beta_grid == DEFAULT_BETA_GRID

    def test_omitted_optional_keys_take_the_dataclass_defaults(self):
        obj = {
            "family": "spurious_blobs",
            "domains": [{"domain_id": "a", "n_samples": 10}, {"domain_id": "b", "n_samples": 20}],
        }
        cfg = read_config(ExperimentConfig, obj)
        assert cfg == ExperimentConfig("spurious_blobs", (DomainSpec("a", 10), DomainSpec("b", 20)))
        assert cfg.train == TrainConfig() and cfg.train.prior == PriorSpec()
        assert read_config(ExperimentConfig, {**obj, "train": {}}) == cfg
        # the keys that are present are taken as given: a JSON integer is a number, nothing is coerced
        domain = read_config(DomainSpec, {"domain_id": "a", "n_samples": 10, "noise_std": 1})
        assert type(domain.n_samples) is int and type(domain.noise_std) is int
        assert read_config(TrainConfig, {"prior_std": 2.0}).prior == PriorSpec(std=2.0)
        for bad in (20.7, 10.0, True, "20"):
            with pytest.raises(TypeError, match="n_samples must be an integer"):
                read_config(DomainSpec, {"domain_id": "a", "n_samples": bad})
        with pytest.raises(TypeError, match="noise_std must be a number"):
            read_config(DomainSpec, {"domain_id": "a", "n_samples": 10, "noise_std": True})
        with pytest.raises(TypeError, match="alpha must be a number"):
            read_config(TrainConfig, {"alpha": True})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where, key", [
        ("domain", "spurious_correlation"), ("domain", "rotation_deg"), ("domain", "noise_std"),
        ("train", "alpha"), ("train", "beta"), ("train", "base_lr"), ("train", "kl_weight"),
        ("train", "sigma0"), ("train", "prior_mean"), ("train", "prior_std"),
        ("top", "split_ratio"), ("top", "alpha_grid"), ("top", "beta_grid"),
    ])
    def test_non_finite_float_is_refused_naming_the_field(self, tmp_path, where, key, value):
        # json.load parses NaN, Infinity and -Infinity; no float field takes them
        obj = json.loads((REPO / "configs" / "default.json").read_text())
        block = {"top": obj, "train": obj["train"], "domain": obj["domains"][0]}[where]
        block[key] = [0.1, value] if key.endswith("_grid") else value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            load_config(path)

    @pytest.mark.parametrize("old, new, message", [
        ('"family"', "family", "Expecting property name enclosed in double quotes"),
        ('"family"', '"famly"', "unknown experiment config keys ['famly']"),
        ('"base_lr": 0.005', '"base_lr": -1', "base_lr must be > 0, got -1"),
        ('"training_domain"', '"oracle"',
         "selection must be one of ('training_domain', 'leave_one_out'), got 'oracle'"),
        ('"split_ratio": 0.8', '"split_ratio": 1.5', "split_ratio must be < 1, got 1.5"),
        ('"d_inv": 5', '"d_inv": 0', "d_inv must be >= 1, got 0"),
        (FEAT_HIDDEN, '"feat_hidden": [0, 16]', "feat_hidden must be >= 1, got 0"),
        (FEAT_HIDDEN, '"feat_hidden": []', "feat_hidden must have length >= 1, got ()"),
        (CLS_HIDDEN, '"cls_hidden": [0]', "cls_hidden must be >= 1, got 0"),
        ('"train_a",\n      "n_samples": 4000', '"train_a",\n      "n_samples": 1',
         "domain 'train_a': a split of 1 samples at ratio 0.8 leaves an empty side"),
        ('"train_a"', '"merged"', "training domain id 'merged' is reserved"),
        ('"erm_bayesian"', '"erm"', "algorithms must not repeat a value, got ('erm', 'erm', 'ptg', 'ptg_lite')"),
        # gen-data writes <out>/<held_out>/<domain_id>.csv, so an id must stay in its directory
        ('"train_a"', '"../../escaped"', "domain_id must be free of ('/', '\\\\'), got '../../escaped'"),
        ('"train_a"', '"a\\\\b"', "domain_id must be free of ('/', '\\\\'), got 'a\\\\b'"),
        ('"train_a"', '"."', "domain_id must be none of ('.', '..'), got '.'"),
        ('"train_a"', '".."', "domain_id must be none of ('.', '..'), got '..'"),
    ], ids=["json-syntax", "unknown-key", "out-of-range", "unknown-mode", "split-ratio", "d-inv",
            "zero-width", "no-featurizer-layer", "zero-width-head", "empty-split-side",
            "domain-named-merged", "repeated-algorithm", "domain-id-slash", "domain-id-backslash",
            "domain-id-dot", "domain-id-dot-dot"])
    def test_every_load_error_names_the_file(self, tmp_path, old, new, message):
        text = (REPO / "configs" / "default.json").read_text()
        assert text.count(old) == 1
        path = tmp_path / "bad.json"
        path.write_text(text.replace(old, new))
        with pytest.raises(ValueError) as ei:
            load_config(path)
        assert str(ei.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("old, new, key", [
        ('"n_seeds": 2', '"n_seeds": 2,\n  "n_seeds": 5', "n_seeds"),
        ('"domain_id": "deg30"', '"domain_id": "deg30",\n      "domain_id": "deg31"', "domain_id"),
        ('"bayes_steps": 500', '"bayes_steps": 500,\n    "bayes_steps": 50', "bayes_steps"),
    ], ids=["top", "domain", "train"])
    def test_a_key_given_twice_is_refused(self, tmp_path, old, new, key):
        # json.load alone keeps the last value, so "n_seeds" would load as 5
        text = (REPO / "configs" / "moons_l1o.json").read_text()
        assert text.count(old) == 1
        path = tmp_path / "twice.json"
        path.write_text(text.replace(old, new))
        with pytest.raises(ValueError) as ei:
            load_config(path)
        assert str(ei.value) == f"{path}: config key {key!r} is given twice"

    def test_shipped_config_is_the_default_benchmark(self):
        assert load_config(REPO / "configs" / "default.json") == default_benchmark_config()

    def test_saved_default_benchmark_is_the_shipped_file(self, tmp_path):
        save_config(tmp_path / "default.json", default_benchmark_config())
        assert (tmp_path / "default.json").read_bytes() == (REPO / "configs" / "default.json").read_bytes()

    @pytest.mark.parametrize("name", sorted(p.name for p in (REPO / "configs").glob("*.json")))
    def test_shipped_config_bytes_survive_a_round_trip(self, name, tmp_path):
        # a stale key, or drift between a shipped file and the dataclass fields, fails here
        shipped = REPO / "configs" / name
        config = load_config(shipped)
        save_config(tmp_path / name, config)
        assert (tmp_path / name).read_bytes() == shipped.read_bytes()
        check_domain_counts(config)  # every algorithm gets enough training domains


# a valid instance of every class that declares rules on its fields
_VALID = {
    TrainConfig: TrainConfig,
    ExperimentConfig: default_benchmark_config,
    DomainSpec: lambda: DomainSpec("a", 10),
    ResultRow: lambda: ResultRow("erm", "c", 0, None, None, 0.9, 0.8, 12),
}


def _bounds():
    """(class, field, key, rule) for every rule declared on a config field or a
    results.csv column."""
    return [(cls, f, key, bound) for cls in _VALID
            for f in dataclasses.fields(cls) for key, bound in f.metadata.items()]


def _build(cls, name, value):
    """A valid instance with one field changed, checked as a file's values are
    (a ResultRow does not check itself)."""
    built = dataclasses.replace(_VALID[cls](), **{name: value})
    check_field_types(built)
    return built


_RULE_IDS = lambda v: getattr(v, "name", getattr(v, "__name__", str(v)))


class TestDeclaredBounds:
    def test_the_declared_ranges(self):
        declared = {(cls.__name__, f.name, key, bound) for cls, f, key, bound in _bounds()}
        assert declared == {
            ("TrainConfig", "outer_iterations", "ge", 1), ("TrainConfig", "batch_size", "ge", 1),
            ("TrainConfig", "mc_eval_samples", "ge", 1), ("TrainConfig", "alpha", "ge", 0),
            ("TrainConfig", "erm_steps", "ge", 0), ("TrainConfig", "bayes_steps", "ge", 0),
            ("TrainConfig", "kl_weight", "ge", 0), ("TrainConfig", "beta", "gt", 0),
            ("TrainConfig", "base_lr", "gt", 0), ("TrainConfig", "sigma0", "gt", 0),
            ("ExperimentConfig", "n_seeds", "ge", 1), ("ExperimentConfig", "alpha_grid", "ge", 0),
            ("ExperimentConfig", "beta_grid", "gt", 0), ("ExperimentConfig", "split_ratio", "gt", 0),
            ("ExperimentConfig", "split_ratio", "lt", 1), ("ExperimentConfig", "d_inv", "ge", 1),
            ("ExperimentConfig", "d_spur", "ge", 1), ("ExperimentConfig", "feat_hidden", "ge", 1),
            ("ExperimentConfig", "cls_hidden", "ge", 1), ("DomainSpec", "n_samples", "ge", 1),
            ("DomainSpec", "spurious_correlation", "ge", -1),
            ("DomainSpec", "spurious_correlation", "le", 1), ("DomainSpec", "noise_std", "ge", 0),
            ("ExperimentConfig", "family", "in", ("spurious_blobs", "rotated_moons")),
            ("ExperimentConfig", "selection", "in", ("training_domain", "leave_one_out")),
            ("ExperimentConfig", "algorithms", "in", ("erm", "erm_bayesian", "ptg", "ptg_lite")),
            ("ExperimentConfig", "algorithms", "min_len", 1),
            ("ExperimentConfig", "algorithms", "unique", True),
            ("ExperimentConfig", "domains", "min_len", 2),
            ("ExperimentConfig", "alpha_grid", "min_len", 1),
            ("ExperimentConfig", "alpha_grid", "unique", True),
            ("ExperimentConfig", "beta_grid", "min_len", 1),
            ("ExperimentConfig", "beta_grid", "unique", True),
            ("ExperimentConfig", "feat_hidden", "min_len", 1), ("DomainSpec", "domain_id", "min_len", 1),
            ("DomainSpec", "domain_id", "no_chars", ("/", "\\")),
            ("DomainSpec", "domain_id", "not_in", (".", "..")),
            ("ResultRow", "val_acc", "ge", 0), ("ResultRow", "val_acc", "le", 1),
            ("ResultRow", "test_acc", "ge", 0), ("ResultRow", "test_acc", "le", 1),
            ("ResultRow", "wall_ms", "ge", 0),
        }

    @pytest.mark.parametrize("cls, f, key, bound",
                             [b for b in _bounds() if b[2] in ("ge", "gt", "le", "lt")], ids=_RULE_IDS)
    def test_edge_and_the_nearest_value_past_it(self, cls, f, key, bound):
        # an inclusive bound takes its edge and refuses the nearest value outside;
        # an exclusive bound refuses its edge.  A tuple field holds the value
        # after its default's first entry, so the bound must hold past entry 0.
        kind = get_type_hints(cls)[f.name]
        if type(None) in get_args(kind):
            (kind,) = (k for k in get_args(kind) if k is not type(None))
        entry = get_args(kind)[0] if get_origin(kind) is tuple else kind
        wrap = (lambda v: (f.default[0], v)) if entry is not kind else (lambda v: v)
        edge = entry(bound)
        if key in ("ge", "le"):
            assert getattr(_build(cls, f.name, wrap(edge)), f.name) == wrap(edge)
            outward = -1 if key == "ge" else 1
            past = edge + outward if entry is int else math.nextafter(edge, outward * math.inf)
        else:
            past = edge
        sign = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}[key]
        with pytest.raises(ValueError) as ei:
            _build(cls, f.name, wrap(past))
        assert str(ei.value) == f"{f.name} must be {sign} {bound}, got {past}"

    @pytest.mark.parametrize("cls, f, key, rule",
                             [b for b in _bounds() if b[2] in ("in", "min_len", "unique")], ids=_RULE_IDS)
    def test_allowed_values_least_length_and_no_repeats(self, cls, f, key, rule):
        # every allowed value is taken and a near miss refused; a least length
        # takes a value of that length and refuses one entry fewer; a value
        # without repeats is taken and refused once its first entry comes again
        value = getattr(_VALID[cls](), f.name)
        is_tuple = isinstance(value, tuple)
        if key == "in":
            for allowed in rule:
                good = (allowed,) if is_tuple else allowed
                assert getattr(_build(cls, f.name, good), f.name) == good
            miss = rule[0] + "_"
            bad, message = ((value[0], miss) if is_tuple else miss), f"must be one of {rule}, got {miss!r}"
        elif key == "min_len":
            edge = value[len(value) - rule:]
            assert getattr(_build(cls, f.name, edge), f.name) == edge
            bad = edge[1:]
            message = f"must have length >= {rule}, got {bad!r}"
        else:
            assert getattr(_build(cls, f.name, value), f.name) == value
            bad = value + value[:1]
            message = f"must not repeat a value, got {bad!r}"
        with pytest.raises(ValueError) as ei:
            _build(cls, f.name, bad)
        assert str(ei.value) == f"{f.name} {message}"

    @pytest.mark.parametrize("cls, f, key, rule",
                             [b for b in _bounds() if b[2] in ("not_in", "no_chars")], ids=_RULE_IDS)
    def test_refused_values_and_characters(self, cls, f, key, rule):
        # every refused value, and the valid value with any refused character
        # inside it, is refused; a near miss of a refused value is taken
        value = getattr(_VALID[cls](), f.name)
        if key == "not_in":
            near = rule[-1] + value
            assert getattr(_build(cls, f.name, near), f.name) == near
            bads, sign = rule, "none of"
        else:
            bads, sign = [value + c + value for c in rule], "free of"
        for bad in bads:
            with pytest.raises(ValueError) as ei:
                _build(cls, f.name, bad)
            assert str(ei.value) == f"{f.name} must be {sign} {rule}, got {bad!r}"


class TestGrid:
    def test_baselines_have_single_point(self):
        cfg = tiny_config()
        assert grid_for("erm", cfg) == [(None, None)]
        assert grid_for("erm_bayesian", cfg) == [(None, None)]

    def test_ptg_sweeps_alpha_ascending(self):
        cfg = tiny_config(alpha_grid=(0.5, 0.05, 0.1))
        assert grid_for("ptg", cfg) == [(0.05, None), (0.1, None), (0.5, None)]

    def test_ptg_lite_sweeps_cross_product(self):
        cfg = tiny_config(alpha_grid=(0.5, 0.1), beta_grid=(0.2, 0.1))
        assert grid_for("ptg_lite", cfg) == [
            (0.1, 0.1), (0.1, 0.2), (0.5, 0.1), (0.5, 0.2)
        ]

    def test_unknown_algorithm_has_no_grid(self):
        with pytest.raises(ValueError, match="unknown algorithm 'mystery'"):
            grid_for("mystery", tiny_config())


class TestPipelines:
    """Every reader of what an algorithm is reads its PIPELINES row."""

    @pytest.mark.parametrize("algorithm", PIPELINES)
    def test_readers_follow_the_row(self, monkeypatch, algorithm):
        stages, knobs, fewest = PIPELINES[algorithm]
        cfg = tiny_config(alpha_grid=(0.5, 0.1), beta_grid=(0.2, 0.1))
        alphas = [0.1, 0.5] if "alpha" in knobs else [None]
        betas = [0.1, 0.2] if "beta" in knobs else [None]
        assert grid_for(algorithm, cfg) == [(a, b) for a in alphas for b in betas]

        assert MIN_TRAINING_DOMAINS[algorithm] == fewest
        # leave-one-out holds out the test domain and one more, so n domains leave n - 2
        domains = tuple(DomainSpec(f"d{i}", 120) for i in range(fewest + 2))
        l1o = dict(test_domain="d0", algorithms=(algorithm,), selection="leave_one_out")
        check_domain_counts(tiny_config(domains=domains, **l1o))
        with pytest.raises(ValueError, match=f"^{algorithm} needs {fewest} or more training domains"):
            check_domain_counts(tiny_config(domains=domains[:-1], **l1o))

        # the row's stages run in order, each looked up on the module when called
        aggregating = [s for s in stages
                       if FeaturizerBank in get_args(get_type_hints(getattr(ptg.training, s))["return"])]
        ran = []
        for stage in set(stages):
            def recorded(*args, stage=stage, original=getattr(ptg.training, stage)):
                ran.append((stage, original(*args)))
                return ran[-1][1]

            monkeypatch.setattr(ptg.training, stage, recorded)
        trains, _, _ = prepare_split(cfg, "c", 0)
        *_, bank = train_algorithm(algorithm, trains, *cfg.network_specs(), cfg.train)
        assert [s for s, _ in ran] == list(stages)
        assert (bank is None) == (not aggregating)
        if aggregating:
            assert bank is dict(ran)[aggregating[-1]][-1]

        assert build_parser().parse_args(["train", "--algorithm", algorithm]).algorithm == algorithm
        assert tiny_config().algorithms == tuple(PIPELINES)

    def test_grid_follows_a_patched_row(self, monkeypatch):
        cfg = tiny_config(alpha_grid=(0.5, 0.1), beta_grid=(0.2,))
        stages, _, fewest = PIPELINES["ptg"]
        monkeypatch.setitem(PIPELINES, "ptg", (stages, ("beta",), fewest))
        assert grid_for("ptg", cfg) == [(None, 0.2)]
        monkeypatch.setitem(PIPELINES, "erm", ((), ("alpha", "beta"), 1))
        assert grid_for("erm", cfg) == [(0.1, 0.2), (0.5, 0.2)]


@pytest.fixture(scope="module")
def tiny_rows():
    cfg = tiny_config()
    return cfg, run_experiment(cfg)


class TestRunExperiment:
    def test_row_count_and_contents(self, tiny_rows):
        cfg, rows = tiny_rows
        per_rep = sum(len(grid_for(a, cfg)) for a in cfg.algorithms)
        assert per_rep == 6
        assert len(rows) == per_rep * cfg.n_seeds
        for r in rows:
            assert r.test_domain == "c"
            assert 0.0 <= r.val_acc <= 1.0
            assert 0.0 <= r.test_acc <= 1.0
            assert r.wall_ms >= 0

    def test_rows_arrive_sorted(self, tiny_rows):
        _, rows = tiny_rows
        assert rows == sort_rows(rows)

    def test_rerun_is_identical_except_wall_clock(self, tiny_rows):
        cfg, rows = tiny_rows
        again = run_experiment(cfg)
        strip = lambda rs: [dataclasses.replace(r, wall_ms=0) for r in rs]
        assert strip(rows) == strip(again)

    def test_csv_write_read_write_is_byte_stable(self, tiny_rows, tmp_path):
        _, rows = tiny_rows
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(p1, rows)
        write_results_csv(p2, read_results_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_progress_callback_sees_every_row(self):
        cfg = tiny_config(algorithms=("erm",), n_seeds=1)
        seen = []
        rows = run_experiment(cfg, progress=seen.append)
        assert len(seen) == len(rows) == 1

    def test_selection_on_real_rows(self, tiny_rows):
        cfg, rows = tiny_rows
        selections = select_model(rows, cfg)
        assert {s.algorithm for s in selections} == set(cfg.algorithms)
        for s in selections:
            assert len(s.test_accs) == cfg.n_seeds
            if s.algorithm in ("erm", "erm_bayesian"):
                assert s.alpha is None and s.beta is None
            if s.algorithm == "ptg":
                assert s.alpha in cfg.alpha_grid and s.beta is None


def row_key(r: ResultRow) -> tuple:
    return (r.algorithm, r.test_domain, r.alpha, r.beta, r.seed)


def plan_keys(config: ExperimentConfig) -> list[tuple]:
    """The row key of each planned run, in run order."""
    return [(a, d, alpha, beta, rep) for d, rep, a, _, alpha, beta in planned_runs(config)]


@pytest.fixture(scope="module")
def every_domain_rows():
    """Leave-one-domain-out rows of two algorithms, and the rows progress saw."""
    cfg = tiny_config(test_domain=None, algorithms=("erm", "ptg"), n_seeds=1)
    seen = []
    return cfg, run_experiment(cfg, progress=seen.append), seen


class TestPlannedRuns:
    def test_rows_are_the_plan_with_a_named_test_domain(self, tiny_rows):
        cfg, rows = tiny_rows
        assert Counter(map(row_key, rows)) == Counter(plan_keys(cfg))
        assert len(rows) == 12

    def test_rows_are_the_plan_holding_out_every_domain(self, every_domain_rows):
        cfg, rows, _ = every_domain_rows
        assert Counter(map(row_key, rows)) == Counter(plan_keys(cfg))
        assert len(rows) == 9  # three held-out domains, erm once and ptg at two alphas

    def test_progress_sees_the_rows_in_plan_order(self, every_domain_rows):
        cfg, _, seen = every_domain_rows
        assert [row_key(r) for r in seen] == plan_keys(cfg)


class TestPrepareSplit:
    @pytest.mark.parametrize("family", ["spurious_blobs", "rotated_moons"])
    def test_in_place_scaling_is_the_copying_one(self, family):
        # the standardization computed with fresh arrays at every step, from a
        # fresh draw: in-place scaling must give its bits, each buffer once
        cfg = tiny_config(family=family)
        trains, vals, test = prepare_split(cfg, "c", 1)
        seed = data_seed(cfg, "c", 1)
        by_id = generate_domains(cfg, seed)
        pairs = [split_train_val(by_id[i], cfg.split_ratio, derive_seed(seed, "split", i)) for i in ("a", "b")]
        mean, std = feature_stats(np.concatenate([tr.x for tr, _ in pairs], axis=0))
        expected = [tr for tr, _ in pairs] + [va for _, va in pairs] + [by_id["c"]]
        got = trains + vals + [test]
        assert [d.domain_id for d in got] == [d.domain_id for d in expected]
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g.x, (e.x - mean) / std)
            np.testing.assert_array_equal(g.y, e.y)
        for a, b in combinations([d.x for d in got], 2):
            assert not np.shares_memory(a, b)


class TestLeaveOneOut:
    def test_every_domain_held_out(self):
        cfg = tiny_config(algorithms=("erm",), n_seeds=1, test_domain=None)
        rows = run_experiment(dataclasses.replace(cfg, test_domain=None))
        assert sorted(r.test_domain for r in rows) == ["a", "b", "c"]

    def test_inner_holdout_selection_scores(self):
        cfg = tiny_config(algorithms=("erm",), n_seeds=1, selection="leave_one_out")
        rows = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0].val_acc is not None
        assert 0.0 <= rows[0].val_acc <= 1.0
        plain = run_experiment(tiny_config(algorithms=("erm",), n_seeds=1))
        assert rows[0].test_acc == plain[0].test_acc  # same trained model
        assert rows[0].val_acc != plain[0].val_acc  # different scoring protocol

    @pytest.mark.parametrize("algorithm", ["ptg", "ptg_lite"])
    def test_aggregation_rows_replay_bitwise(self, algorithm):
        # four domains: three train the outer run, two each inner run
        cfg = four_domain_config(algorithms=(algorithm,))
        rows = run_experiment(cfg)
        assert len(rows) == len(grid_for(algorithm, cfg))
        trains, vals, test = prepare_split(cfg, "d", 0)
        specs = cfg.network_specs()
        for gi, row in enumerate(rows):
            run_cfg = dataclasses.replace(
                cfg.train,
                seed=derive_seed(cfg.base_seed, algorithm, "d", gi, 0),
                alpha=row.alpha,
                beta=cfg.train.beta if row.beta is None else row.beta,
            )
            feat, cls, _, _ = train_algorithm(algorithm, trains, *specs, run_cfg)
            rng = np.random.default_rng(derive_seed(run_cfg.seed, "eval"))
            assert row.test_acc == accuracy(feat, cls, test.x, test.y, run_cfg.mc_eval_samples, rng)
            scores = []
            for j, held in enumerate(trains):
                inner_cfg = dataclasses.replace(
                    run_cfg, seed=derive_seed(run_cfg.seed, "inner", held.domain_id)
                )
                rest = [t for t in trains if t is not held]
                feat, cls, _, _ = train_algorithm(algorithm, rest, *specs, inner_cfg)
                rng = np.random.default_rng(derive_seed(inner_cfg.seed, "eval"))
                x = np.concatenate([held.x, vals[j].x])
                y = np.concatenate([held.y, vals[j].y])
                scores.append(accuracy(feat, cls, x, y, inner_cfg.mc_eval_samples, rng))
            assert row.val_acc == float(np.mean(scores))


def four_domain_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        domains=(
            DomainSpec("a", 120, spurious_correlation=0.9),
            DomainSpec("b", 120, spurious_correlation=0.8),
            DomainSpec("c", 120, spurious_correlation=0.7),
            DomainSpec("d", 120, spurious_correlation=-0.8),
        ),
        test_domain="d",
        n_seeds=1,
        alpha_grid=(0.1,),
        beta_grid=(0.1, 0.3),
        selection="leave_one_out",
    )
    defaults.update(overrides)
    return tiny_config(**defaults)


def diverge_on(monkeypatch, diverges):
    """Route run_experiment's training through a wrapper that raises
    TrainingDiverged when diverges(call number from 1, train config) is true;
    returns the training domain ids of every call."""
    calls = []

    def train(algorithm, domains, feat_spec, cls_spec, config):
        calls.append([d.domain_id for d in domains])
        if diverges(len(calls), config):
            raise TrainingDiverged("non-finite loss")
        return train_algorithm(algorithm, domains, feat_spec, cls_spec, config)

    monkeypatch.setattr(ptg.harness, "train_algorithm", train)
    return calls


class TestDivergence:
    def test_an_overflowing_aggregation_is_a_diverged_row(self, overflowing_config):
        # a real divergence, not a stub, under the suite's warning filters
        rows = run_experiment(overflowing_config)
        aggregating = ("ptg", "ptg_lite")
        assert {r.algorithm for r in rows} == set(overflowing_config.algorithms)
        for row in rows:
            diverged = row.algorithm in aggregating
            assert (row.val_acc is None, row.test_acc is None) == (diverged, diverged)
        for sel in select_model(rows, overflowing_config):
            assert sel.n_diverged == int(sel.algorithm in aggregating)

    def test_weights_that_overflow_only_when_scored_are_a_diverged_row(self):
        # one erm step at this rate leaves finite weights whose scoring
        # overflows; erm_bayesian's first step already overflows in training
        config = default_benchmark_config()
        train = dataclasses.replace(config.train, base_lr=1e150, erm_steps=1, bayes_steps=1, outer_iterations=1)
        cfg = dataclasses.replace(config, algorithms=("erm", "erm_bayesian"), n_seeds=1, train=train)
        rows = run_experiment(cfg)
        assert [(r.algorithm, r.val_acc, r.test_acc) for r in rows] == [
            ("erm", None, None), ("erm_bayesian", None, None)
        ]

    def test_training_domain_row_is_empty_and_loses_selection(self, monkeypatch, tmp_path):
        cfg = tiny_config(algorithms=("ptg",), n_seeds=1, alpha_grid=(0.1, 0.5))
        diverge_on(monkeypatch, lambda n, config: config.alpha == 0.1)
        rows = run_experiment(cfg)
        assert (rows[0].alpha, rows[0].val_acc, rows[0].test_acc) == (0.1, None, None)
        assert rows[1].val_acc is not None and rows[1].test_acc is not None
        path = tmp_path / "results.csv"
        write_results_csv(path, rows)
        cells = path.read_text().splitlines()[1].split(",")
        assert cells[3] == "0.1" and cells[5:7] == ["", ""]
        (sel,) = select_model(rows, cfg)
        assert sel.alpha == 0.5

    def test_leave_one_out_outer_divergence_trains_no_inner_run(self, monkeypatch):
        cfg = four_domain_config(algorithms=("erm",))
        calls = diverge_on(monkeypatch, lambda n, config: n == 1)
        (row,) = run_experiment(cfg)
        assert (row.val_acc, row.test_acc) == (None, None)
        assert calls == [["a", "b", "c"]]

    def test_leave_one_out_inner_divergence_keeps_test_acc(self, monkeypatch):
        cfg = four_domain_config(algorithms=("erm",))
        (plain,) = run_experiment(cfg)
        calls = diverge_on(monkeypatch, lambda n, config: n == 3)  # the second inner run
        (row,) = run_experiment(cfg)
        assert row.val_acc is None
        assert row.test_acc == plain.test_acc
        # the third inner run, without c, is skipped
        assert calls == [["a", "b", "c"], ["b", "c"], ["a", "c"]]


class TestDomainCounts:
    @pytest.mark.parametrize("overrides, message", [
        (dict(domains=(DomainSpec("a", 120), DomainSpec("b", 120)), test_domain="b",
              algorithms=("erm",), selection="leave_one_out"),
         "erm needs 1 or more training domains, but 2 domains under leave_one_out selection leave 0"),
        (dict(algorithms=("erm", "ptg"), selection="leave_one_out"),
         "ptg needs 2 or more training domains, but 3 domains under leave_one_out selection leave 1"),
        (dict(domains=(DomainSpec("a", 120), DomainSpec("b", 120)), test_domain="b",
              algorithms=("ptg_lite",)),
         "ptg_lite needs 2 or more training domains, but 2 domains under training_domain selection leave 1"),
    ])
    def test_infeasible_config_fails_before_training(self, monkeypatch, overrides, message):
        calls = diverge_on(monkeypatch, lambda n, config: False)
        cfg = tiny_config(n_seeds=1, **overrides)
        with pytest.raises(ValueError) as ei:
            run_experiment(cfg)
        assert str(ei.value) == message
        assert calls == []
        # selection expects the same runs, so it names the same rule
        with pytest.raises(ValueError) as ei:
            select_model([], cfg)
        assert str(ei.value) == message


def fabricate(algorithm, alpha, beta, seed, val, test="0.5"):
    return ResultRow(algorithm, "c", seed, alpha, beta,
                     None if val is None else float(val),
                     None if test is None else float(test), wall_ms=1)


class TestSelectModel:
    CFG = tiny_config(algorithms=("ptg",), n_seeds=2, alpha_grid=(0.1, 0.5))

    def test_tie_breaks_toward_smaller_alpha(self):
        rows = [
            fabricate("ptg", 0.1, None, 0, 0.80, 0.60),
            fabricate("ptg", 0.1, None, 1, 0.90, 0.62),
            fabricate("ptg", 0.5, None, 0, 0.85, 0.99),
            fabricate("ptg", 0.5, None, 1, 0.85, 0.99),
        ]
        (sel,) = select_model(rows, self.CFG)
        assert sel.alpha == 0.1
        assert sel.mean_val_acc == pytest.approx(0.85)
        assert sel.test_accs == (0.60, 0.62)

    def test_tie_whose_float_mean_is_higher_keeps_the_smaller_alpha(self):
        # np.mean([0.8, 0.9]) is 0.8500000000000001: float noise, not a lead
        rows = [
            fabricate("ptg", 0.1, None, 0, 0.85, 0.60),
            fabricate("ptg", 0.1, None, 1, 0.85, 0.62),
            fabricate("ptg", 0.5, None, 0, 0.80, 0.99),
            fabricate("ptg", 0.5, None, 1, 0.90, 0.99),
        ]
        (sel,) = select_model(rows, self.CFG)
        assert sel.alpha == 0.1
        assert sel.test_accs == (0.60, 0.62)

    # correct validation predictions of 2400 per repetition, and the held-out
    # accuracies, of ptg on the default benchmark at base seed 1: the three
    # alphas tie at 7026 of 7200
    SEED1_COUNTS = {0.05: (2340, 2342, 2344), 0.1: (2337, 2344, 2345), 0.5: (2341, 2341, 2344)}
    SEED1_TESTS = {0.05: (0.78025, 0.823, 0.85175), 0.1: (0.7815, 0.80925, 0.862),
                   0.5: (0.847, 0.82325, 0.88175)}
    CFG3 = tiny_config(algorithms=("ptg",), n_seeds=3, alpha_grid=DEFAULT_ALPHA_GRID)

    def seed1_rows(self, counts):
        return [fabricate("ptg", alpha, None, rep, k / 2400, self.SEED1_TESTS[alpha][rep])
                for alpha, ks in counts.items() for rep, k in enumerate(ks)]

    def test_exact_tie_of_counts_selects_the_smallest_alpha_from_rows_and_file(self, tmp_path):
        rows = self.seed1_rows(self.SEED1_COUNTS)
        path = tmp_path / "results.csv"
        write_results_csv(path, rows)
        for source in (rows, read_results_csv(path)):
            (sel,) = select_model(source, self.CFG3)
            assert sel.alpha == 0.05
            assert sel.mean_test_acc == pytest.approx(0.818333, abs=1e-6)

    def test_a_lead_of_one_prediction_wins(self):
        counts = {**self.SEED1_COUNTS, 0.5: (2341, 2342, 2344)}  # 7027 of 7200
        (sel,) = select_model(self.seed1_rows(counts), self.CFG3)
        assert sel.alpha == 0.5
        assert sel.mean_val_acc == pytest.approx(7027 / 7200)

    def test_leave_one_out_tie_selects_the_smallest_alpha_and_beta(self):
        # the results.csv rows of ptg_lite with deg30 held out, from
        # configs/moons_l1o.json at base seed 0: (alpha, beta, repetition,
        # val_acc, test_acc).  Each val_acc is the mean of three inner
        # accuracies on 600 rows, and (0.05, 0.05) ties (0.05, 0.1) at
        # 1257 + 1195 = 1243 + 1209 of 3600 predictions
        moons_deg30 = [
            (0.05, 0.05, 0, "0.698333", "0.821667"), (0.05, 0.05, 1, "0.663889", "0.756667"),
            (0.05, 0.1, 0, "0.690556", "0.773333"), (0.05, 0.1, 1, "0.671667", "0.776667"),
            (0.1, 0.05, 0, "0.666111", "0.806667"), (0.1, 0.05, 1, "0.645556", "0.695000"),
            (0.1, 0.1, 0, "0.680000", "0.770000"), (0.1, 0.1, 1, "0.647778", "0.800000"),
            (0.5, 0.05, 0, "0.601667", "0.493333"), (0.5, 0.05, 1, "0.649444", "0.748333"),
            (0.5, 0.1, 0, "0.632778", "0.773333"), (0.5, 0.1, 1, "0.623889", "0.751667"),
        ]
        cfg = tiny_config(algorithms=("ptg_lite",), alpha_grid=DEFAULT_ALPHA_GRID,
                          beta_grid=DEFAULT_BETA_GRID)
        (sel,) = select_model([fabricate("ptg_lite", *row) for row in moons_deg30], cfg)
        assert (sel.alpha, sel.beta) == (0.05, 0.05)
        assert sel.mean_test_acc == pytest.approx(0.789167, abs=1e-6)

    @pytest.mark.parametrize("which", ["tiny", "leave_one_out"])
    def test_rows_and_their_file_select_alike(self, which, tiny_rows, tmp_path):
        if which == "tiny":
            cfg, rows = tiny_rows
        else:
            cfg = four_domain_config()
            rows = run_experiment(cfg)
        path = tmp_path / "results.csv"
        write_results_csv(path, rows)
        from_rows = selections_to_json(select_model(rows, cfg))
        assert from_rows == selections_to_json(select_model(read_results_csv(path), cfg))

    def test_higher_validation_wins(self):
        rows = [
            fabricate("ptg", 0.1, None, 0, 0.80),
            fabricate("ptg", 0.1, None, 1, 0.80),
            fabricate("ptg", 0.5, None, 0, 0.90, 0.70),
            fabricate("ptg", 0.5, None, 1, 0.92, 0.72),
        ]
        (sel,) = select_model(rows, self.CFG)
        assert sel.alpha == 0.5
        assert sel.mean_test_acc == pytest.approx(0.71)
        assert sel.std_test_acc == pytest.approx(0.01)

    def test_failed_run_scores_minus_inf(self):
        rows = [
            fabricate("ptg", 0.1, None, 0, None, None),
            fabricate("ptg", 0.1, None, 1, 0.99),
            fabricate("ptg", 0.5, None, 0, 0.05, 0.40),
            fabricate("ptg", 0.5, None, 1, 0.05, 0.40),
        ]
        (sel,) = select_model(rows, self.CFG)
        assert sel.alpha == 0.5

    def test_held_out_mean_covers_the_finished_repetitions(self):
        cfg = tiny_config(algorithms=("ptg",), n_seeds=3, alpha_grid=(0.1,))
        rows = [
            fabricate("ptg", 0.1, None, 0, 0.9, 0.70),
            fabricate("ptg", 0.1, None, 1, None, None),
            fabricate("ptg", 0.1, None, 2, 0.9, 0.80),
        ]
        (sel,) = select_model(rows, cfg)
        assert sel.mean_val_acc == -np.inf  # scoring still counts the failed run
        assert sel.n_diverged == 1
        assert sel.mean_test_acc == pytest.approx(0.75)
        assert sel.std_test_acc == pytest.approx(0.05)

    def test_duplicate_row_rejected(self):
        rows = [fabricate("ptg", 0.1, None, 0, 0.8)] * 2
        with pytest.raises(ValueError):
            select_model(rows, self.CFG)

    def test_missing_row_rejected(self):
        rows = [fabricate("ptg", 0.1, None, 0, 0.8)]
        with pytest.raises(ValueError):
            select_model(rows, self.CFG)

    @pytest.mark.parametrize("extra, key", [
        (fabricate("erm", None, None, 0, 0.8), "('erm', 'c', None, None, 0)"),
        (dataclasses.replace(fabricate("ptg", 0.1, None, 0, 0.8), test_domain="zz"), "('ptg', 'zz', 0.1, None, 0)"),
        (fabricate("ptg", 0.3, None, 0, 0.8), "('ptg', 'c', 0.3, None, 0)"),
        (fabricate("ptg", 0.1, 0.1, 0, 0.8), "('ptg', 'c', 0.1, 0.1, 0)"),
        (fabricate("ptg", 0.5, None, 2, 0.8), "('ptg', 'c', 0.5, None, 2)"),
    ], ids=["algorithm", "held-out-domain", "alpha", "beta", "repetition"])
    def test_unexpected_row_rejected_by_name(self, extra, key):
        # every expected row is there: the one the config does not run is named
        rows = [fabricate("ptg", a, None, rep, 0.8) for a in (0.1, 0.5) for rep in (0, 1)]
        with pytest.raises(ValueError, match=re.escape(f"unexpected result row for {key}")):
            select_model([*rows, extra], self.CFG)

    def test_lite_tie_breaks_toward_smaller_beta(self):
        cfg = tiny_config(algorithms=("ptg_lite",), n_seeds=1,
                          alpha_grid=(0.1,), beta_grid=(0.3, 0.1))
        rows = [
            fabricate("ptg_lite", 0.1, 0.1, 0, 0.7, 0.5),
            fabricate("ptg_lite", 0.1, 0.3, 0, 0.7, 0.9),
        ]
        (sel,) = select_model(rows, cfg)
        assert sel.beta == 0.1


class TestSummarize:
    def test_table_layout_and_average(self):
        sels = [
            Selection("erm", "a", None, None, 0.9, (0.5, 0.7)),
            Selection("erm", "b", None, None, 0.9, (0.9, 0.9)),
            Selection("ptg", "a", 0.1, None, 0.9, (0.8, 0.8)),
            Selection("ptg", "b", 0.1, None, 0.9, (1.0, 1.0)),
        ]
        text = summarize(sels)
        lines = text.strip().split("\n")
        assert lines[0] == "| algorithm | a | b | average |"
        assert "| erm | 0.6000 ± 0.1000 | 0.9000 ± 0.0000 | 0.7500 |" in lines
        assert "| ptg | 0.8000 ± 0.0000 | 1.0000 ± 0.0000 | 0.9000 |" in lines

    def test_diverged_repetitions_are_counted_not_averaged(self, recwarn):
        nan = float("nan")
        sels = [
            Selection("erm", "a", None, None, -np.inf, (0.7, nan, 0.8)),
            Selection("erm", "b", None, None, -np.inf, (nan, nan, nan)),
            Selection("ptg", "a", 0.1, None, -np.inf, (nan, nan, nan)),
            Selection("ptg", "b", 0.1, None, -np.inf, (nan, nan, nan)),
        ]
        lines = summarize(sels).strip().split("\n")
        assert "| erm | 0.7500 ± 0.0500 (1 of 3 diverged) | diverged (3 of 3) | 0.7500 |" in lines
        assert "| ptg | diverged (3 of 3) | diverged (3 of 3) | diverged |" in lines
        assert not recwarn.list
        assert [s.n_diverged for s in sels] == [1, 3, 3, 3]
        assert np.isnan(sels[1].mean_test_acc) and np.isnan(sels[1].std_test_acc)

    def test_json_export(self):
        sels = [Selection("erm", "a", None, None, 0.9, (0.5, 0.7))]
        (obj,) = selections_to_json(sels)
        assert obj["mean_test_acc"] == pytest.approx(0.6)
        assert obj["alpha"] is None
        assert obj["n_diverged"] == 0

    def test_json_export_of_a_cell_that_never_finished(self):
        nan = float("nan")
        (obj,) = selections_to_json([Selection("erm", "a", None, None, -np.inf, (nan, nan))])
        assert obj["mean_val_acc"] is None and obj["mean_test_acc"] is None
        assert obj["std_test_acc"] is None and obj["n_diverged"] == 2


class TestResultsCsv:
    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError):
            read_results_csv(path)
        path.write_text("")  # no header at all
        with pytest.raises(ValueError, match="unexpected results header"):
            read_results_csv(path)

    def test_none_cells_round_trip(self, tmp_path):
        rows = [fabricate("erm", None, None, 0, None, None)]
        path = tmp_path / "r.csv"
        write_results_csv(path, rows)
        (back,) = read_results_csv(path)
        assert back.alpha is None and back.val_acc is None and back.test_acc is None

    def test_header_text(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results_csv(path, [])
        assert path.read_text().splitlines()[0] == ",".join(RESULTS_HEADER)


class TestTrainingLog:
    def test_columns_follow_first_row(self, tmp_path):
        history = [
            {"iteration": 0, "loss_a": 0.5, "merged_loss": 0.4},
            {"iteration": 1, "loss_a": 0.3, "merged_loss": 0.2},
        ]
        path = tmp_path / "log.csv"
        write_training_log(path, history)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,loss_a,merged_loss"
        assert len(lines) == 3

    def test_empty_history_writes_the_header_only(self, tmp_path):
        # a run whose last stage took zero steps: the columns every log has
        path = tmp_path / "log.csv"
        write_training_log(path, [])
        assert path.read_text().splitlines() == ["iteration,merged_loss"]
