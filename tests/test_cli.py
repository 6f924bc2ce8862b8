"""Command line: artifacts on disk, exit codes, entry point wiring."""
from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ptg.cli
import ptg.training
from ptg import checks, oracles
from ptg.cli import main
from ptg.datasets import DomainSpec, load_dataset_csv
from ptg.harness import (
    RESULTS_HEADER,
    ExperimentConfig,
    generate_domains,
    load_config,
    prepare_split,
    read_results_csv,
    save_config,
)
from ptg.nets import TrainingDiverged, WeightSet
from ptg.seeding import derive_seed
from ptg.training import ALGORITHMS, TrainConfig, ptg_lite_train, train_algorithm
from ptg.variational import GaussianVariational, load_model

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def config_path(tmp_path):
    cfg = ExperimentConfig(
        family="spurious_blobs",
        domains=(
            DomainSpec("a", 100, spurious_correlation=0.9),
            DomainSpec("b", 100, spurious_correlation=0.8),
            DomainSpec("c", 100, spurious_correlation=-0.8),
        ),
        test_domain="c",
        n_seeds=1,
        alpha_grid=(0.1,),
        beta_grid=(0.1,),
        d_inv=2,
        d_spur=2,
        feat_hidden=(6, 4),
        cls_hidden=(4,),
        train=TrainConfig(outer_iterations=2, erm_steps=4, bayes_steps=4, batch_size=32),
    )
    path = tmp_path / "config.json"
    save_config(path, cfg)
    return str(path)


class TestGenData:
    """gen-data writes <out>/<held_out>/<domain_id>.csv: repetition 0's raw
    draw for that held-out domain, the data a run with it trains on."""

    @staticmethod
    def assert_repetition_zero(out, config):
        held_out = [config.test_domain] if config.test_domain else [d.domain_id for d in config.domains]
        assert sorted(p.name for p in out.iterdir()) == sorted(held_out)
        for h in held_out:
            want = generate_domains(config, derive_seed(config.base_seed, "data", h, 0))
            assert sorted(p.name for p in (out / h).glob("*.csv")) == sorted(f"{i}.csv" for i in want)
            for domain_id, ds in want.items():
                got = load_dataset_csv(out / h / f"{domain_id}.csv")
                np.testing.assert_array_equal(got.x.view(np.uint64), ds.x.view(np.uint64))
                np.testing.assert_array_equal(got.y, ds.y)
                assert (got.domain_id, got.invariant_cols, got.spurious_cols) == (
                    ds.domain_id, ds.invariant_cols, ds.spurious_cols
                )

    @staticmethod
    def gen_data(path, out):
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 0
        return load_config(path)

    def test_writes_domain_csvs(self, tmp_path):
        out = tmp_path / "data"
        config = self.gen_data(ROOT / "configs" / "default.json", out)
        assert [p.name for p in out.iterdir()] == ["flip"]
        self.assert_repetition_zero(out, config)

    def test_leave_one_out_writes_every_held_out_domain(self, tmp_path):
        out = tmp_path / "data"
        config = self.gen_data(ROOT / "configs" / "moons_l1o.json", out)
        assert config.test_domain is None
        self.assert_repetition_zero(out, config)

    def test_seed_sets_the_base_seed(self, config_path, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--config", config_path, "--seed", "3", "--out", str(out)]) == 0
        self.assert_repetition_zero(out, replace(load_config(config_path), base_seed=3))


class TestTrain:
    def test_erm_artifacts(self, config_path, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--config", config_path, "--algorithm", "erm", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "featurizer.json").read_text())
        assert set(payload) == {"dims", "flat"}
        assert (out / "classifier.json").exists()
        assert (out / "training_log.csv").read_text().startswith("iteration,")

    @staticmethod
    def assert_trains(out, config, cfg, algorithm="erm"):
        """The checkpoints in out load to the bits train_algorithm gives on
        repetition 0's split, the featurizer as a posterior where it is one."""
        trains, _, _ = prepare_split(config, "c", 0)
        feat, cls, _, _ = train_algorithm(algorithm, trains, *config.network_specs(), cfg)
        saved = load_model(out / "featurizer.json")
        posterior = algorithm in ("erm_bayesian", "ptg")
        assert type(saved) is (GaussianVariational if posterior else WeightSet)
        np.testing.assert_array_equal(saved.flat.view(np.uint64), feat.flat.view(np.uint64))
        saved = load_model(out / "classifier.json")
        assert type(saved) is WeightSet
        np.testing.assert_array_equal(saved.flat.view(np.uint64), cls.flat.view(np.uint64))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_trains_on_the_benchmark_split(self, config_path, tmp_path, algorithm):
        # the model `ptg run` scores: repetition 0's standardized training splits
        out = tmp_path / "run"
        argv = ["train", "--config", config_path, "--algorithm", algorithm]
        assert main(argv + ["--out", str(out)]) == 0
        config = load_config(config_path)
        self.assert_trains(out, config, config.train, algorithm)

    @pytest.mark.parametrize("algorithm, steps", [("erm", "erm_steps"), ("erm_bayesian", "bayes_steps")])
    def test_a_last_stage_of_zero_steps_writes_every_artifact(self, config_path, tmp_path, algorithm, steps):
        # zero steps is legal: the checkpoints are the stage's start, the log has no rows
        config = load_config(config_path)
        config = replace(config, train=replace(config.train, **{steps: 0}))
        save_config(tmp_path / "zero.json", config)
        out = tmp_path / "run"
        argv = ["train", "--config", str(tmp_path / "zero.json"), "--algorithm", algorithm]
        assert main(argv + ["--out", str(out)]) == 0
        self.assert_trains(out, config, config.train, algorithm)
        assert (out / "training_log.csv").read_text().splitlines() == ["iteration,merged_loss"]

    def test_seed_is_the_training_seed(self, config_path, tmp_path):
        out = tmp_path / "run"
        argv = ["train", "--config", config_path, "--algorithm", "erm", "--seed", "5"]
        assert main(argv + ["--out", str(out)]) == 0
        config = load_config(config_path)  # the data stay at the base seed
        self.assert_trains(out, config, replace(config.train, seed=5))

    def test_diverged_training_exits_2(self, config_path, tmp_path, monkeypatch, capsys):
        def diverge(*args, **kwargs):
            raise TrainingDiverged("3 non-finite gradient entries at step 1")

        monkeypatch.setattr(ptg.cli, "train_algorithm", diverge)
        out = tmp_path / "run"
        assert main(["train", "--config", config_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "training failed: 3 non-finite gradient entries at step 1\n"
        assert not (out / "featurizer.json").exists()

    @pytest.mark.parametrize("algorithm", ["ptg", "ptg_lite"])
    def test_overflowing_training_exits_2(self, overflowing_config, tmp_path, capsys, algorithm):
        save_config(tmp_path / "config.json", overflowing_config)
        out = tmp_path / "run"
        argv = ["train", "--config", str(tmp_path / "config.json"), "--algorithm", algorithm]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("training failed: overflow encountered")
        assert not (out / "featurizer.json").exists()

    @pytest.mark.parametrize("held_out", ["nope", None])
    def test_needs_a_held_out_domain(self, config_path, tmp_path, capsys, held_out):
        if held_out is None:
            config = replace(load_config(config_path), test_domain=None)
            save_config(tmp_path / "l1o.json", config)
            argv = ["train", "--config", str(tmp_path / "l1o.json")]
        else:
            argv = ["train", "--config", config_path, "--test-domain", held_out]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 1
        assert ("needs a held-out domain" if held_out is None else "'nope'") in capsys.readouterr().err

    def test_ptg_saves_posterior(self, config_path, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--config", config_path, "--algorithm", "ptg", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "featurizer.json").read_text())
        feat_spec, _ = load_config(config_path).network_specs()
        assert len(payload["flat"]) == 2 * feat_spec.param_count  # [mu | rho]

    def test_ptg_lite_exports_mask_report(self, config_path, tmp_path, monkeypatch):
        runs = []

        def counted(*args, **kwargs):
            runs.append(1)
            return ptg_lite_train(*args, **kwargs)

        monkeypatch.setattr(ptg.training, "ptg_lite_train", counted)
        config = load_config(config_path)
        config = replace(config, train=replace(config.train, beta=0.3))
        save_config(tmp_path / "beta.json", config)
        out = tmp_path / "run"
        argv = ["train", "--config", str(tmp_path / "beta.json"), "--algorithm", "ptg_lite"]
        assert main(argv + ["--out", str(out)]) == 0
        assert len(runs) == 1  # the mask report comes from the same run
        # the report is the last aggregation's mask over the whole featurizer,
        # in strict JSON: the last bin's open upper edge is null, not Infinity

        def refuse(constant):
            raise ValueError(f"cov_report.json holds {constant}")

        report = json.loads((out / "cov_report.json").read_text(), parse_constant=refuse)
        assert report["cov_histogram"][-1][:2] == [5.0, None]
        last = (out / "training_log.csv").read_text().splitlines()
        header, row = last[0].split(","), last[-1].split(",")
        assert report["dropped_count"] == int(row[header.index("dropped_count")])
        feat_spec, _ = config.network_specs()
        assert sum(c for _, _, c in report["cov_histogram"]) == feat_spec.param_count
        assert report["beta"] == 0.3
        for name in ("featurizer.json", "classifier.json"):
            assert (out / name).exists()


class TestRunSweepSummarize:
    def test_run_writes_rows_selection_summary(self, config_path, tmp_path):
        out = tmp_path / "results"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        rows = read_results_csv(out / "results.csv")
        assert len(rows) == 4  # one grid point per algorithm, one seed
        selections = json.loads((out / "selection.json").read_text())
        assert {s["algorithm"] for s in selections} == {"erm", "erm_bayesian", "ptg", "ptg_lite"}
        assert (out / "summary.md").read_text().startswith("| algorithm |")

    def test_run_selects_from_its_rows_without_reading_its_file(self, config_path, tmp_path,
                                                                monkeypatch):
        def refuse(path):
            raise AssertionError(f"ptg run read {path} back")

        monkeypatch.setattr(ptg.cli, "read_results_csv", refuse)
        out = tmp_path / "results"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        assert len(json.loads((out / "selection.json").read_text())) == 4

    def test_summarize_from_csv(self, config_path, tmp_path):
        run_out = tmp_path / "run"
        main(["run", "--config", config_path, "--out", str(run_out)])
        out = tmp_path / "summary"
        code = main([
            "summarize", "--config", config_path, "--out", str(out),
            str(run_out / "results.csv"),
        ])
        assert code == 0
        assert (out / "selection.json").exists()
        assert (out / "summary.md").exists()

    def test_summarize_of_a_run_rewrites_its_selection_byte_for_byte(self, config_path, tmp_path):
        # 21 validation rows per domain: accuracies that six decimals do not hold exactly
        obj = json.loads(Path(config_path).read_text())
        obj["n_seeds"] = 2
        for domain in obj["domains"]:
            domain["n_samples"] = 105
        config = tmp_path / "config.json"
        config.write_text(json.dumps(obj))
        run_out, out = tmp_path / "run", tmp_path / "summary"
        assert main(["run", "--config", str(config), "--out", str(run_out)]) == 0
        assert main(["summarize", "--config", str(config), "--out", str(out),
                     str(run_out / "results.csv")]) == 0
        for name in ("selection.json", "summary.md"):
            assert (out / name).read_bytes() == (run_out / name).read_bytes(), name


    def test_selection_of_a_diverged_cell_is_strict_json(self, config_path, tmp_path):
        # erm diverged in one repetition of three: its validation mean is undefined,
        # its held-out mean and std cover the two that finished
        obj = json.loads(Path(config_path).read_text())
        obj.update(algorithms=["erm", "ptg"], n_seeds=3)
        config = tmp_path / "three.json"
        config.write_text(json.dumps(obj))
        rows = tmp_path / "rows.csv"
        rows.write_text(",".join(RESULTS_HEADER) + "\n" + "\n".join(
            ["erm,c,0,,,0.9,0.8,12", "erm,c,1,,,,,12", "erm,c,2,,,0.9,0.7,12"]
            + [f"ptg,c,{rep},0.1,,0.8,0.6,12" for rep in range(3)]
        ) + "\n")
        out = tmp_path / "summary"
        assert main(["summarize", "--config", str(config), "--out", str(out), str(rows)]) == 0

        def refuse(constant):
            raise ValueError(f"selection.json holds {constant}")

        erm, ptg = json.loads((out / "selection.json").read_text(), parse_constant=refuse)
        assert erm["mean_val_acc"] is None and erm["n_diverged"] == 1
        assert erm["mean_test_acc"] == pytest.approx(0.75) and erm["std_test_acc"] == pytest.approx(0.05)
        assert ptg["mean_val_acc"] == pytest.approx(0.8) and ptg["std_test_acc"] == 0.0
        assert ptg["n_diverged"] == 0
        assert "| erm | 0.7500 ± 0.0500 (1 of 3 diverged) |" in (out / "summary.md").read_text()


class TestVerificationCommands:
    def test_oracle_check_passes(self, capsys):
        assert main(["oracle-check", "--trials", "25"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["trials"] == 25
        assert report["max_identity_gap"] < 1e-12

    def test_grad_check_passes(self, capsys):
        assert main(["grad-check", "--instances", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["backward"]["max_rel_err"] < 1e-4
        assert report["variational"]["max_rel_err"] < 1e-4

    @staticmethod
    def nan_on_call(monkeypatch, module, name, call):
        """Make module.name return NaN on its call-th call (from 0) only."""
        real = getattr(module, name)
        calls = itertools.count()

        def patched(*args, **kwargs):
            value = real(*args, **kwargs)
            return float("nan") if next(calls) == call else value

        monkeypatch.setattr(module, name, patched)

    # three instances of three comparisons each: call 3 is the second backward
    # instance, call 12 the second variational one
    @pytest.mark.parametrize("call, part", [(3, "backward"), (12, "variational")])
    def test_grad_check_fails_on_a_nan_error_after_the_first_instance(
        self, monkeypatch, capsys, call, part
    ):
        self.nan_on_call(monkeypatch, checks, "max_relative_error", call)
        assert main(["grad-check", "--instances", "3"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert np.isnan(report[part]["max_rel_err"])
        assert report["ok"] is False

    def test_oracle_check_fails_on_a_nan_identity_gap_after_the_first_trial(
        self, monkeypatch, capsys
    ):
        self.nan_on_call(monkeypatch, oracles, "identity_gap", 1)
        assert main(["oracle-check", "--trials", "3"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert np.isnan(report["max_identity_gap"])
        assert report["ok"] is False

    def test_oracle_check_reports_a_nan_data_conditioned_gap(self, monkeypatch, capsys):
        # the data-conditioned gap is informational: it shows NaN, the verdict stands
        self.nan_on_call(monkeypatch, oracles, "data_conditioned_gap", 1)
        assert main(["oracle-check", "--trials", "3"]) == 0
        assert np.isnan(json.loads(capsys.readouterr().out)["max_data_conditioned_gap"])


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("argv", [["run", "--config", "{dir}"], ["summarize", "{dir}"]])
    def test_unreadable_path_is_an_error_not_a_traceback(self, tmp_path, capsys, argv):
        argv = [a.format(dir=tmp_path) for a in argv] + ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_invalid_config_contents(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"family": "images", "domains": []}))
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_non_finite_config_value_is_an_error(self, config_path, tmp_path, capsys):
        obj = json.loads(Path(config_path).read_text())
        obj["train"]["base_lr"] = float("inf")  # json.dumps writes Infinity
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: base_lr must be finite") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where, key", [
        ("top", "n_clases"), ("top", "n_classes"), ("train", "lr"), ("domain", "spurious_corelation"),
    ])
    def test_unknown_config_key_is_named(self, config_path, tmp_path, capsys, where, key):
        obj = json.loads(Path(config_path).read_text())
        {"top": obj, "train": obj["train"], "domain": obj["domains"][0]}[where][key] = 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["summarize", "--config", str(bad), str(tmp_path / "rows.csv")]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("where, key", [
        ("domain", "domain_id"), ("domain", "n_samples"), ("top", "family"), ("top", "domains"),
    ])
    def test_missing_required_config_key_is_named(self, config_path, tmp_path, capsys, where, key):
        obj = json.loads(Path(config_path).read_text())
        del {"top": obj, "domain": obj["domains"][0]}[where][key]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "run"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        what = {"top": "experiment", "domain": "domain"}[where]
        assert f"error: {bad}: missing {what} config keys [{key!r}]" in err
        assert "Traceback" not in err
        assert not (out / "results.csv").exists()

    def test_summarize_has_no_seed(self, config_path, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(["summarize", "--config", config_path, "--seed", "3", str(tmp_path / "rows.csv")])
        assert ei.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["oracle-check", "--trials", "0"],
        ["oracle-check", "--trials", "-3"],
        ["grad-check", "--instances", "0"],
    ])
    def test_sweep_that_checks_nothing_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 1
        out, err = capsys.readouterr()
        assert f"error: argument {argv[1]}: must be >= 1, got {argv[2]}" in err
        assert out == ""  # no report

    @pytest.mark.parametrize("domains, overrides, message", [
        (2, dict(algorithms=["erm"], selection="leave_one_out"),
         "erm needs 1 or more training domains, but 2 domains under leave_one_out selection leave 0"),
        (3, dict(selection="leave_one_out"),
         "ptg needs 2 or more training domains, but 3 domains under leave_one_out selection leave 1"),
        (2, dict(algorithms=["ptg_lite"]),
         "ptg_lite needs 2 or more training domains, but 2 domains under training_domain selection leave 1"),
    ])
    def test_run_rejects_too_few_training_domains(
        self, config_path, tmp_path, capsys, domains, overrides, message
    ):
        obj = json.loads(Path(config_path).read_text())
        obj["domains"] = obj["domains"][-domains:]
        obj.update(overrides)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "results"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_run_rejects_a_training_domain_named_merged(self, config_path, tmp_path, capsys):
        obj = json.loads(Path(config_path).read_text())
        obj["domains"][0]["domain_id"] = "merged"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "results"
        message = f"error: {bad}: training domain id 'merged' is reserved"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (out / "results.csv").exists()
        # the config is refused as it loads, so gen-data refuses it too
        assert main(["gen-data", "--config", str(bad), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err and not out.exists()

    def test_gen_data_refuses_a_domain_id_outside_out(self, config_path, tmp_path, capsys):
        obj = json.loads(Path(config_path).read_text())
        obj["domains"][0]["domain_id"] = "../../escaped"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "out" / "data"
        assert main(["gen-data", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: domain_id must be free of" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.json", "config.json"]

    def test_summarize_names_the_domain_count_rule(self, config_path, tmp_path, capsys):
        # the config's one planned row is given, but the config cannot run
        obj = json.loads(Path(config_path).read_text())
        obj.update(domains=obj["domains"][-2:], algorithms=["ptg"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        rows = tmp_path / "rows.csv"
        rows.write_text(",".join(RESULTS_HEADER) + "\nptg,c,0,0.1,,0.9,0.8,12\n")
        out = tmp_path / "summary"
        assert main(["summarize", "--config", str(bad), "--out", str(out), str(rows)]) == 1
        err = capsys.readouterr().err
        message = "ptg needs 2 or more training domains, but 2 domains under training_domain selection leave 1"
        assert f"error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as ei:
            main(["conquer"])
        assert ei.value.code == 1

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as ei:
            main(["oracle-check", "--frobnicate"])
        assert ei.value.code == 1

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--config", "{config}", "--out", "x"], "argument command: invalid choice: 'sweep'"),
        (["oracle-check", "--trials", "1", "--out", "x"], "unrecognized arguments: --out x"),
    ], ids=["sweep", "oracle-check-out"])
    def test_removed_second_paths_are_usage_errors(
        self, argv, message, config_path, tmp_path, capsys, monkeypatch
    ):
        # run writes the rows CSV that sweep wrote; stdout carries the oracle report
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as ei:
            main([a.format(config=config_path) for a in argv])
        assert ei.value.code == 1
        out, err = capsys.readouterr()
        assert f"error: {message}" in err and out == ""
        assert not (tmp_path / "x").exists()

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 1

    def test_summarize_rejects_malformed_rows(self, config_path, tmp_path):
        bad = tmp_path / "rows.csv"
        bad.write_text("foo,bar\n1,2\n")
        assert main(["summarize", "--config", config_path, str(bad)]) == 1

    @pytest.mark.parametrize("row", [
        "erm,c,0,,,0.9",  # short: used to escape as an IndexError
        "erm,c,0,,,0.9,0.8,12,extra",  # long: the extra field was ignored
    ])
    def test_summarize_names_the_line_of_a_row_with_the_wrong_field_count(
        self, config_path, tmp_path, capsys, row
    ):
        good = "erm,c,1,,,0.9,0.8,12"
        bad = tmp_path / "rows.csv"
        bad.write_text(",".join(RESULTS_HEADER) + f"\n{good}\n{row}\n")
        assert main(["summarize", "--config", config_path, "--out", str(tmp_path), str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"{bad} line 3: expected 8 fields, got {len(row.split(','))}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("row, message", [
        ("erm,c,x,,,0.9,0.8,12", "invalid literal for int() with base 10: 'x'"),
        ("ptg,c,0,high,,0.9,0.8,12", "could not convert string to float: 'high'"),
        # a cell that parses to NaN, an infinity or an impossible accuracy
        ("ptg,c,0,nan,,0.9,0.8,12", "alpha must be finite, got nan"),
        ("ptg_lite,c,0,0.1,inf,0.9,0.8,12", "beta must be finite, got inf"),
        ("ptg_lite,c,0,0.1,-inf,0.9,0.8,12", "beta must be finite, got -inf"),
        ("ptg,c,0,0.1,,nan,0.8,12", "val_acc must be finite, got nan"),
        ("ptg,c,0,0.1,,inf,0.8,12", "val_acc must be finite, got inf"),
        ("ptg,c,0,0.1,,1.5,0.8,12", "val_acc must be <= 1, got 1.5"),
        ("ptg,c,0,0.1,,0.9,-inf,12", "test_acc must be finite, got -inf"),
        ("ptg,c,0,0.1,,0.9,-0.1,12", "test_acc must be >= 0, got -0.1"),
        ("erm,c,0,,,0.9,0.8,-5", "wall_ms must be >= 0, got -5"),
    ])
    def test_summarize_names_the_line_of_a_cell_that_does_not_parse(
        self, config_path, tmp_path, capsys, row, message
    ):
        good = "erm,c,1,,,0.9,0.8,12"
        bad = tmp_path / "rows.csv"
        bad.write_text(",".join(RESULTS_HEADER) + f"\n{good}\n{row}\n")
        assert main(["summarize", "--config", config_path, "--out", str(tmp_path), str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"{bad} line 3: {message}" in err
        assert "Traceback" not in err

    def test_summarize_names_a_row_the_config_does_not_run(self, config_path, tmp_path, capsys):
        # the config's four expected rows are all there, and one for a domain it does not hold out
        expected = ["erm,c,0,,,0.9,0.8,12", "erm_bayesian,c,0,,,0.9,0.8,12",
                    "ptg,c,0,0.1,,0.9,0.8,12", "ptg_lite,c,0,0.1,0.1,0.9,0.8,12"]
        rows = tmp_path / "rows.csv"
        rows.write_text("\n".join([",".join(RESULTS_HEADER), *expected, "erm,zz,0,,,0.9,0.8,12"]) + "\n")
        out = tmp_path / "summary"
        assert main(["summarize", "--config", config_path, "--out", str(out), str(rows)]) == 1
        err = capsys.readouterr().err
        assert "unexpected result row for ('erm', 'zz', None, None, 0)" in err
        assert "Traceback" not in err
        assert not (out / "selection.json").exists()
        rows.write_text("\n".join([",".join(RESULTS_HEADER), *expected]) + "\n")
        assert main(["summarize", "--config", config_path, "--out", str(out), str(rows)]) == 0

    @pytest.mark.parametrize("where, value", [
        ("alpha_grid", 0.1), ("outer_iterations", "10"), ("domain", ["a", 100]),
        # an integer field takes a JSON integer only, not a float or a bool
        ("outer_iterations", 3.0), ("batch_size", 64.0), ("n_seeds", 1.0), ("d_inv", 5.0),
        ("base_seed", 0.5), ("feat_hidden", [32.7, 16]), ("n_seeds", True),
        # a domain's values are not coerced, and a float field does not take a bool
        ("n_samples", 20.7), ("n_samples", 10.0), ("n_samples", True), ("n_samples", "20"),
        ("alpha", True),
        # a tuple field takes a JSON array only, and a string field a JSON string only
        ("algorithms", "ptg"), ("feat_hidden", 16), ("cls_hidden", None), ("domains", {}),
        ("domain_id", 5),
    ])
    def test_config_value_of_the_wrong_type_names_the_file(
        self, config_path, tmp_path, capsys, where, value
    ):
        obj = json.loads(Path(config_path).read_text())
        if where == "domain":
            obj["domains"][0] = value
        elif where in ("n_samples", "domain_id"):
            obj["domains"][0][where] = value
        else:
            (obj["train"] if where in obj["train"] else obj)[where] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["summarize", "--config", str(bad), str(tmp_path / "rows.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: a config value has the wrong type" in err
        assert where in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where, what", [("train", "train"), ("domain", "domain"), ("top", "experiment")])
    def test_config_block_that_is_not_an_object_is_rejected(
        self, config_path, tmp_path, capsys, where, what
    ):
        obj = json.loads(Path(config_path).read_text())
        if where == "train":
            obj["train"] = []  # used to load as the default TrainConfig
        elif where == "domain":
            obj["domains"][0] = [list(item) for item in obj["domains"][0].items()]
        else:
            obj = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "run"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{what} config must be a JSON object, got list" in err
        assert "Traceback" not in err
        assert not (out / "results.csv").exists()


class TestEntryPoint:
    def test_installed_script_help(self, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "ptg.cli", "--help"], capture_output=True, text=True, env=src_env
        )
        assert proc.returncode == 0
        listed = re.search(r"\{([a-z,-]+)\}", proc.stdout).group(1)
        assert listed.split(",") == [
            "gen-data", "train", "run", "summarize", "oracle-check", "grad-check"
        ]

    @pytest.mark.parametrize(
        "preset, want",
        [
            ({}, ("1", None)),
            ({"OPENBLAS_NUM_THREADS": "2"}, ("2", None)),
            ({"OMP_NUM_THREADS": "2"}, (None, "2")),
        ],
    )
    def test_one_blas_thread_unless_the_user_chose(self, src_env, preset, want):
        # the child records the thread settings at the moment numpy is first imported
        child = (
            "import os, sys\n"
            "seen = []\n"
            "class Watch:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append([os.environ.get(k) for k in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')])\n"
            "sys.meta_path.insert(0, Watch())\n"
            "import ptg.cli\n"
            "print(seen)\n"
        )
        env = {k: v for k, v in src_env.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env={**env, **preset}
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr([list(want)])

    def test_console_script_on_path(self):
        assert shutil.which("ptg") is not None
