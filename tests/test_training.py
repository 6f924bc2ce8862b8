"""Training loops: baselines, aggregation iterations, reproducibility contracts."""
from __future__ import annotations

import importlib.util
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import ptg.training
from ptg.aggregate import coefficient_of_variation, cov_dropout, map_mean, mean_and_cov, moment_match
from ptg.datasets import DomainDataset, DomainSpec, gen_spurious_blobs, read_config
from ptg.nets import AdamState, NetworkSpec, WeightSet, adam_step, forward, softmax
from ptg.seeding import stream
from ptg.training import (
    ALGORITHMS,
    MinibatchStream,
    TrainConfig,
    _auto_kl_weight,
    _map_loss,
    accuracy,
    erm_bayesian_train,
    erm_train,
    init_pair,
    predict,
    ptg_lite_train,
    ptg_train,
    train_algorithm,
)
from ptg.variational import GaussianVariational, PriorSpec, elbo_loss, init_from_deterministic, sample_weights

FEAT_SPEC = NetworkSpec((4, 8, 4))
CLS_SPEC = NetworkSpec((4, 2))
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def make_domains(n_per=150, rhos=(0.9, 0.8, 0.7), noise=0.3, seed=0):
    specs = [
        DomainSpec(f"d{i}", n_per, spurious_correlation=r, noise_std=noise)
        for i, r in enumerate(rhos)
    ]
    return gen_spurious_blobs(specs, d_inv=2, d_spur=2, seed=seed)


class TestTrainConfig:
    def test_alpha_zero_is_legal(self):
        assert TrainConfig(alpha=0.0).alpha == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(beta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(kl_weight=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(sigma0=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("outer_iterations", 0, "outer_iterations must be >= 1, got 0"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("mc_eval_samples", 0, "mc_eval_samples must be >= 1, got 0"),
        ("erm_steps", -1, "erm_steps must be >= 0, got -1"),
        ("bayes_steps", -1, "bayes_steps must be >= 0, got -1"),
    ])
    def test_counts_out_of_range_are_refused(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_json_round_trip(self):
        cfg = TrainConfig(alpha=0.3, beta=0.7, kl_weight=0.5, seed=11)
        assert read_config(TrainConfig, asdict(cfg)) == cfg

    def test_zero_prior_std_raises_at_construction(self):
        with pytest.raises(ValueError, match="prior std"):
            TrainConfig(prior_std=0)

    def test_prior_is_derived_from_the_flat_fields(self):
        cfg = TrainConfig(prior_mean=0.3, prior_std=2.0)
        assert cfg.prior == PriorSpec(0.3, 2.0)
        assert replace(TrainConfig(), prior_std=2.0).prior.std == 2.0
        # the derived prior is no field, so it is no JSON key either
        assert "prior" not in {f.name for f in fields(TrainConfig)}
        assert asdict(cfg)["prior_mean"] == 0.3 and asdict(cfg)["prior_std"] == 2.0


class TestMinibatchStream:
    def test_counts_and_shapes(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((100, 3)), rng.integers(0, 2, 100)
        s = MinibatchStream(x, y, 32, np.random.default_rng(1))
        for _ in range(10):
            bx, by = s.next_batch()
            assert bx.shape == (32, 3) and by.shape == (32,)

    def test_epoch_covers_each_row_once(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((64, 2)), rng.integers(0, 2, 64)
        s = MinibatchStream(x, y, 32, np.random.default_rng(3))
        seen = np.concatenate([s.next_batch()[0] for _ in range(2)])
        np.testing.assert_array_equal(
            seen[np.lexsort(seen.T)], x[np.lexsort(x.T)]
        )

    def test_oversized_batch_clamps(self):
        x, y = np.zeros((10, 2)), np.zeros(10, dtype=np.int64)
        s = MinibatchStream(x, y, 64, np.random.default_rng(0))
        assert s.batch_size == 10
        assert _auto_kl_weight(TrainConfig(), s) == 1.0
        assert s.next_batch()[0].shape == (10, 2)

    def test_auto_kl_weight(self):
        x, y = np.zeros((100, 2)), np.zeros(100, dtype=np.int64)
        s = MinibatchStream(x, y, 32, np.random.default_rng(0))
        assert _auto_kl_weight(TrainConfig(), s) == pytest.approx(1 / 3)
        assert _auto_kl_weight(TrainConfig(kl_weight=0.25), s) == 0.25
        # a merged step: 100 + 50 pooled rows over batches of 32 + 32 rows
        other = MinibatchStream(x[:50], y[:50], 32, np.random.default_rng(1))
        assert _auto_kl_weight(TrainConfig(), s, other) == 1 / 2
        assert _auto_kl_weight(TrainConfig(kl_weight=0.25), s, other) == 0.25


class TestPredict:
    def test_deterministic_matches_manual_forward(self):
        feat, cls = init_pair(FEAT_SPEC, CLS_SPEC, seed=0)
        x = np.random.default_rng(1).standard_normal((7, 4))
        probs = predict(feat, cls, x)
        h, _ = forward(feat, x)
        logits, _ = forward(cls, h)
        np.testing.assert_array_equal(probs, softmax(logits))

    def test_posterior_default_predicts_at_mean(self):
        feat, cls = init_pair(FEAT_SPEC, CLS_SPEC, seed=2)
        q = init_from_deterministic(feat, 0.3)
        x = np.random.default_rng(3).standard_normal((5, 4))
        np.testing.assert_array_equal(predict(q, cls, x), predict(feat, cls, x))

    def test_replayed_eps_average(self):
        # the rng's draws, replayed one sample at a time through the
        # deterministic path
        feat, cls = init_pair(FEAT_SPEC, CLS_SPEC, seed=4)
        q = init_from_deterministic(feat, 0.5)
        x = np.random.default_rng(5).standard_normal((6, 4))
        combined = predict(q, cls, x, mc_samples=10, rng=np.random.default_rng(6))
        eps = np.random.default_rng(6).standard_normal((10, q.mu.size))
        total = None
        for k in range(10):
            p = predict(sample_weights(q, eps[k]), cls, x)
            total = p if total is None else total + p
        np.testing.assert_array_equal(combined, total / 10)

    def test_mc_samples_checked(self):
        feat, cls = init_pair(FEAT_SPEC, CLS_SPEC, seed=0)
        q = init_from_deterministic(feat, 0.1)
        with pytest.raises(ValueError):
            predict(q, cls, np.zeros((2, 4)), mc_samples=0)

    def test_accuracy_matches_argmax(self):
        feat, cls = init_pair(FEAT_SPEC, CLS_SPEC, seed=7)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((40, 4)), rng.integers(0, 2, 40)
        probs = predict(feat, cls, x)
        assert accuracy(feat, cls, x, y) == (probs.argmax(axis=1) == y).mean()


class TestErm:
    def test_fits_separable_data(self):
        domains = make_domains(n_per=200, rhos=(0.9, 0.9), noise=0.15, seed=1)
        cfg = TrainConfig(base_lr=0.01, erm_steps=500, batch_size=64, seed=3)
        feat, cls, history = erm_train(domains, FEAT_SPEC, CLS_SPEC, cfg)
        x = np.concatenate([d.x for d in domains])
        y = np.concatenate([d.y for d in domains])
        assert accuracy(feat, cls, x, y) >= 0.99
        assert len(history) == 500

    def test_zero_steps_returns_init(self):
        domains = make_domains(n_per=20)
        init = init_pair(FEAT_SPEC, CLS_SPEC, seed=5)
        cfg = TrainConfig(erm_steps=0, seed=5)
        feat, cls, history = erm_train(domains, FEAT_SPEC, CLS_SPEC, cfg)
        np.testing.assert_array_equal(feat.flatten(), init[0].flatten())
        np.testing.assert_array_equal(cls.flatten(), init[1].flatten())
        assert history == []

    def test_domain_order_irrelevant_bitwise(self):
        domains = make_domains(n_per=60, seed=2)
        cfg = TrainConfig(erm_steps=40, batch_size=32, seed=0)
        a = erm_train(domains, FEAT_SPEC, CLS_SPEC, cfg)
        b = erm_train(domains[::-1], FEAT_SPEC, CLS_SPEC, cfg)
        np.testing.assert_array_equal(a[0].flatten(), b[0].flatten())
        np.testing.assert_array_equal(a[1].flatten(), b[1].flatten())

    def test_rejects_duplicate_domains(self):
        d = make_domains(n_per=20)[0]
        with pytest.raises(ValueError):
            erm_train([d, d], FEAT_SPEC, CLS_SPEC, TrainConfig(erm_steps=1))


class TestBayesianReduction:
    def test_collapsed_posterior_tracks_erm(self):
        # sigma ~ 1e-30 and kl_weight 0 make the variational step numerically
        # identical to a plain cross-entropy step on the mean
        domains = make_domains(n_per=100, seed=4)
        init = init_pair(FEAT_SPEC, CLS_SPEC, seed=9)
        cfg = TrainConfig(
            erm_steps=60, bayes_steps=60, sigma0=1e-30, kl_weight=0.0,
            batch_size=32, seed=9,
        )
        feat_e, cls_e, hist_e = erm_train(domains, FEAT_SPEC, CLS_SPEC, cfg)  # starts at init
        q, cls_b, hist_b = erm_bayesian_train(domains, init[0], init[1], cfg)
        ce_e = np.array([h["merged_loss"] for h in hist_e])
        ce_b = np.array([h["merged_loss"] for h in hist_b])
        np.testing.assert_allclose(ce_b, ce_e, atol=1e-10)
        np.testing.assert_allclose(q.mu, feat_e.flatten(), atol=1e-9)
        np.testing.assert_allclose(cls_b.flatten(), cls_e.flatten(), atol=1e-9)

    def test_history_keys(self):
        domains = make_domains(n_per=40)
        init = init_pair(FEAT_SPEC, CLS_SPEC, seed=0)
        cfg = TrainConfig(bayes_steps=3, batch_size=16)
        _, _, hist = erm_bayesian_train(domains, init[0], init[1], cfg)
        assert set(hist[0]) == {"iteration", "merged_loss", "kl"}
        assert all(np.isfinite(h["kl"]) for h in hist)


def history_bits(history):
    """Keys in order, and each value's type and exact repr."""
    return [[(k, type(v), repr(v)) for k, v in row.items()] for row in history]


def ptg_setup(seed=7, sigma0=0.05):
    domains = make_domains(n_per=90, seed=seed)
    feat, cls = init_pair(FEAT_SPEC, CLS_SPEC, seed=seed)
    return domains, init_from_deterministic(feat, sigma0), cls


class TestPtg:
    CFG = TrainConfig(
        outer_iterations=2, alpha=0.5, base_lr=1e-3, batch_size=32,
        kl_weight=0.1, seed=7,
    )

    def test_first_iteration_matches_manual_replay(self):
        # independent reconstruction of phases (a), (b) and (c): one
        # variational step per domain against the untouched classifier,
        # moment matching, then one merged step on the concatenated batches
        domains, q_init, cls0 = ptg_setup()
        got_q0, got_cls, history, bank = ptg_train(
            domains, q_init, cls0, replace(self.CFG, outer_iterations=1)
        )
        assert [h["iteration"] for h in history] == [0]

        n = q_init.mu.size
        manual, drawn = {}, []
        for d in sorted(domains, key=lambda d: d.domain_id):
            batch = MinibatchStream(
                d.x, d.y, 32, stream(7, "batches", d.domain_id)
            ).next_batch()
            drawn.append(batch)
            eps = stream(7, "eps", d.domain_id).standard_normal(n)
            _, grad, _, _ = elbo_loss(q_init, cls0, batch, 0.1, eps, self.CFG.prior)
            packed = np.concatenate([q_init.mu, q_init.rho])
            packed, _ = adam_step(
                packed, grad, AdamState.zeros(2 * n), 0.5 * 1e-3
            )
            manual[d.domain_id] = GaussianVariational(q_init.spec, packed[:n], packed[n:])

        for i, q in manual.items():
            np.testing.assert_array_equal(bank.per_domain[i].mu, q.mu)
            np.testing.assert_array_equal(bank.per_domain[i].rho, q.rho)
        q0 = moment_match([manual[i] for i in sorted(manual)]).q0
        merged = tuple(np.concatenate(part) for part in zip(*drawn))
        eps = stream(7, "eps", "merged").standard_normal(n)
        _, grad, grad_cls, _ = elbo_loss(q0, cls0, merged, 0.1, eps, self.CFG.prior)
        adam_step(q0.flat, grad, AdamState.zeros(2 * n), 0.5 * 1e-3)
        cls = cls0.copy()
        adam_step(cls.flat, grad_cls, AdamState.zeros(cls.flat.size), 0.5 * 1e-3)
        np.testing.assert_array_equal(got_q0.mu, q0.mu)
        np.testing.assert_array_equal(got_q0.rho, q0.rho)
        np.testing.assert_array_equal(got_cls.flat, cls.flat)

    def test_truncated_run_is_a_prefix(self):
        # a k-iteration run is the first k iterations of a longer one, so its
        # models are the state the longer run holds after iteration k - 1
        domains, q_init, cls0 = ptg_setup(seed=8)
        cfg = replace(self.CFG, outer_iterations=5)
        history = ptg_train(domains, q_init, cls0, cfg)[2]
        for k in range(1, cfg.outer_iterations):
            head = ptg_train(domains, q_init, cls0, replace(cfg, outer_iterations=k))[2]
            assert history_bits(head) == history_bits(history[:k])

    def test_domain_order_irrelevant_bitwise(self):
        domains, q_init, cls0 = ptg_setup(seed=11)
        q_a, cls_a, _, a = ptg_train(domains, q_init, cls0, self.CFG)
        q_b, cls_b, _, b = ptg_train(domains[::-1], q_init, cls0, self.CFG)
        np.testing.assert_array_equal(q_a.mu, q_b.mu)
        np.testing.assert_array_equal(q_a.rho, q_b.rho)
        np.testing.assert_array_equal(cls_a.flatten(), cls_b.flatten())
        for i in a.per_domain:
            np.testing.assert_array_equal(a.per_domain[i].mu, b.per_domain[i].mu)

    def test_alpha_zero_freezes_everything_bitwise(self):
        domains, q_init, cls0 = ptg_setup(seed=13)
        cfg = replace(self.CFG, alpha=0.0, outer_iterations=3)
        q0, cls, history, bank = ptg_train(domains, q_init, cls0, cfg)
        np.testing.assert_array_equal(q0.mu, q_init.mu)
        np.testing.assert_array_equal(q0.rho, q_init.rho)
        np.testing.assert_array_equal(cls.flatten(), cls0.flatten())
        for q in bank.per_domain.values():
            np.testing.assert_array_equal(q.mu, q_init.mu)
            np.testing.assert_array_equal(q.rho, q_init.rho)
        assert len(history) == 3

    def test_history_schema(self):
        domains, q_init, cls0 = ptg_setup()
        history = ptg_train(domains, q_init, cls0, self.CFG)[2]
        row = history[0]
        expected = {"iteration", "kl", "merged_loss", "dropped_count"} | {
            f"loss_{d.domain_id}" for d in domains
        }
        assert set(row) == expected
        assert row["dropped_count"] == 0

    def test_needs_two_domains(self):
        domains, q_init, cls0 = ptg_setup()
        with pytest.raises(ValueError):
            ptg_train(domains[:1], q_init, cls0, self.CFG)

    def test_merged_is_a_reserved_domain_id(self):
        # a domain called "merged" would share the merged step's eps stream
        domains, q_init, cls0 = ptg_setup()
        domains = [replace(domains[0], domain_id="merged")] + domains[1:]
        with pytest.raises(ValueError, match="training domain id 'merged' is reserved"):
            ptg_train(domains, q_init, cls0, self.CFG)


class TestPtgLite:
    CFG = TrainConfig(
        outer_iterations=3, alpha=0.5, beta=0.05, base_lr=1e-3, batch_size=32,
        kl_weight=0.1, seed=21,
    )

    def test_first_iteration_matches_manual_replay(self):
        domains = make_domains(n_per=90, seed=21)
        feat0, cls0 = init_pair(FEAT_SPEC, CLS_SPEC, seed=21)
        got_f0, got_cls, _, bank = ptg_lite_train(
            domains, feat0, cls0, replace(self.CFG, outer_iterations=1)
        )

        manual, drawn = {}, []
        for d in sorted(domains, key=lambda d: d.domain_id):
            batch = MinibatchStream(
                d.x, d.y, 32, stream(21, "batches", d.domain_id)
            ).next_batch()
            drawn.append(batch)
            _, g, _, _ = _map_loss(feat0, cls0, batch, 0.1, self.CFG.prior, None)
            new_f, _ = adam_step(
                feat0.flatten(), g, AdamState.zeros(g.size), 0.5 * 1e-3
            )
            manual[d.domain_id] = WeightSet.from_flat(FEAT_SPEC, new_f)

        for i, w in manual.items():
            np.testing.assert_array_equal(bank.per_domain[i].flatten(), w.flatten())
        models = [manual[i] for i in sorted(manual)]
        f0, report = cov_dropout(
            map_mean(models), coefficient_of_variation(models), 0.05
        )
        merged = tuple(np.concatenate(part) for part in zip(*drawn))
        _, g, g_cls, _ = _map_loss(f0, cls0, merged, 0.1, self.CFG.prior, None)
        g[~report.kept_mask] = 0.0
        adam_step(f0.flat, g, AdamState.zeros(g.size), 0.5 * 1e-3)
        f0.flat[~report.kept_mask] = 0.0
        cls = cls0.copy()
        adam_step(cls.flat, g_cls, AdamState.zeros(g_cls.size), 0.5 * 1e-3)
        np.testing.assert_array_equal(got_f0.flatten(), f0.flatten())
        np.testing.assert_array_equal(got_cls.flat, cls.flat)

    def test_truncated_run_is_a_prefix(self):
        domains = make_domains(n_per=90, seed=25)
        feat0, cls0 = init_pair(FEAT_SPEC, CLS_SPEC, seed=25)
        cfg = replace(self.CFG, outer_iterations=5)
        history = ptg_lite_train(domains, feat0, cls0, cfg)[2]
        assert any(h["dropped_count"] > 0 for h in history)  # the mask path runs
        for k in range(1, cfg.outer_iterations):
            head = ptg_lite_train(domains, feat0, cls0, replace(cfg, outer_iterations=k))[2]
            assert history_bits(head) == history_bits(history[:k])

    def test_dropped_parameters_stay_zero_through_merged_step(self):
        domains = make_domains(n_per=90, seed=22)
        feat0, cls0 = init_pair(FEAT_SPEC, CLS_SPEC, seed=22)
        history = ptg_lite_train(domains, feat0, cls0, self.CFG)[2]
        # a k-iteration run ends on iteration k - 1 of the full run
        # (test_truncated_run_is_a_prefix): recompute its mask from the
        # per-domain models and check the shared featurizer after the merged step
        for k in range(1, self.CFG.outer_iterations + 1):
            f0, _, _, bank = ptg_lite_train(domains, feat0, cls0, replace(self.CFG, outer_iterations=k))
            models = [bank.per_domain[i] for i in sorted(bank.per_domain)]
            dropped = coefficient_of_variation(models) > self.CFG.beta
            assert history[k - 1]["dropped_count"] == int(dropped.sum())
            np.testing.assert_array_equal(f0.flatten()[dropped], 0.0)
        assert dropped.any()  # beta tight enough that the test is non-vacuous

    def test_alpha_zero_freezes_everything_bitwise(self):
        domains = make_domains(n_per=60, seed=23)
        feat0, cls0 = init_pair(FEAT_SPEC, CLS_SPEC, seed=23)
        cfg = replace(self.CFG, alpha=0.0)
        f0, cls, history, _ = ptg_lite_train(domains, feat0, cls0, cfg)
        np.testing.assert_array_equal(f0.flatten(), feat0.flatten())
        np.testing.assert_array_equal(cls.flatten(), cls0.flatten())
        assert all(h["dropped_count"] == 0 for h in history)

    def test_domain_order_irrelevant_bitwise(self):
        domains = make_domains(n_per=60, seed=24)
        feat0, cls0 = init_pair(FEAT_SPEC, CLS_SPEC, seed=24)
        f_a, cls_a, _, _ = ptg_lite_train(domains, feat0, cls0, self.CFG)
        f_b, cls_b, _, _ = ptg_lite_train(domains[::-1], feat0, cls0, self.CFG)
        np.testing.assert_array_equal(f_a.flatten(), f_b.flatten())
        np.testing.assert_array_equal(cls_a.flatten(), cls_b.flatten())


class TestTrainAlgorithm:
    CFG = TrainConfig(
        outer_iterations=2, erm_steps=5, bayes_steps=5, batch_size=32, seed=1
    )

    def test_featurizer_types(self):
        domains = make_domains(n_per=60)
        expected = {
            "erm": WeightSet,
            "erm_bayesian": GaussianVariational,
            "ptg": GaussianVariational,
            "ptg_lite": WeightSet,
        }
        assert set(expected) == set(ALGORITHMS)
        for name, typ in expected.items():
            feat, cls, history, bank = train_algorithm(name, domains, FEAT_SPEC, CLS_SPEC, self.CFG)
            assert isinstance(feat, typ), name
            assert isinstance(cls, WeightSet)
            assert len(history) > 0
            if name in ("ptg", "ptg_lite"):
                assert sorted(bank.per_domain) == sorted(d.domain_id for d in domains)
            else:
                assert bank is None

    @pytest.mark.parametrize("algorithm", ["ptg", "ptg_lite"])
    def test_bank_keeps_the_last_aggregation(self, algorithm):
        # the merged step after it moves only the shared featurizer and the
        # classifier, so aggregating the returned per-domain models again
        # gives its bits
        domains = make_domains(n_per=60)
        feat, _, _, bank = train_algorithm(algorithm, domains, FEAT_SPEC, CLS_SPEC, self.CFG)
        models = [bank.per_domain[i] for i in sorted(bank.per_domain)]
        kept = bank.last_aggregate
        if algorithm == "ptg":
            again = moment_match(models)
            assert kept.q0 is feat  # the merged step has moved it since
            pairs = [(kept.within_var, again.within_var), (kept.between_var, again.between_var)]
        else:
            _, again = cov_dropout(*mean_and_cov(models), self.CFG.beta)
            assert (kept.beta, kept.dropped_count) == (again.beta, again.dropped_count)
            pairs = [(kept.cov, again.cov), (kept.kept_mask, again.kept_mask)]
        for got, want in pairs:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("algorithm", ["ptg", "ptg_lite"])
    def test_per_domain_models_are_the_rows_of_one_array(self, algorithm):
        domains = make_domains(n_per=60)
        _, _, _, bank = train_algorithm(algorithm, domains, FEAT_SPEC, CLS_SPEC, self.CFG)
        # views of one buffer, each row starting where the one before it ends
        flats = [m.flat for m in bank.per_domain.values()]
        assert all(f.base is not None and f.base is flats[0].base for f in flats)
        starts, row_bytes = sorted(f.ctypes.data for f in flats), flats[0].nbytes
        assert starts == [starts[0] + j * row_bytes for j in range(len(domains))]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            train_algorithm("gradient_descent", make_domains(n_per=20), FEAT_SPEC, CLS_SPEC, self.CFG)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_domains_must_agree_on_feature_count(self, algorithm):
        wide = gen_spurious_blobs([DomainSpec("wide", 20)], d_inv=2, d_spur=3, seed=0)
        domains = make_domains(n_per=20)[:2] + wide
        with pytest.raises(ValueError, match=r"domains disagree on feature count: \[4, 5\]"):
            train_algorithm(algorithm, domains, FEAT_SPEC, CLS_SPEC, self.CFG)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_domain_with_no_rows_is_refused_by_name(self, algorithm):
        a = make_domains(n_per=20)[0]
        empty = DomainDataset("empty", a.x[:0], a.y[:0], a.invariant_cols, a.spurious_cols)
        with pytest.raises(ValueError, match="training domain 'empty' has no rows"):
            train_algorithm(algorithm, [a, empty], FEAT_SPEC, CLS_SPEC, self.CFG)

    def test_classifier_must_take_the_featurizer_output(self):
        with pytest.raises(ValueError, match="featurizer output dim must match classifier input dim"):
            init_pair(FEAT_SPEC, NetworkSpec((3, 2)), seed=0)

    def test_bank_shape_mismatch_rejected(self):
        # a classifier that does not fit the featurizer fails on the first step
        feat, _ = init_pair(FEAT_SPEC, CLS_SPEC, seed=0)
        bad_cls = init_pair(NetworkSpec((4, 6)), NetworkSpec((6, 2)), seed=0)[1]
        with pytest.raises(ValueError, match=r"expected input shape \(n, 6\), got \(32, 4\)"):
            ptg_lite_train(make_domains(n_per=60), feat, bad_cls, self.CFG)


class TestDomainStepCalls:
    """The aggregation loop steps each run of consecutive ids whose batches
    share a shape in one step(..., classifier_grad=False) call, so a
    bitwise-equal fallback to one call per domain still fails here."""

    @pytest.mark.parametrize("algorithm", ["ptg", "ptg_lite"])
    @pytest.mark.parametrize(
        "sizes, runs",
        [
            ((150, 150, 150), [3]),  # every domain draws full batches: one call
            ((70, 20, 130), [1, 1, 1]),  # the 20-row domain draws 20 rows and splits the ids
        ],
    )
    def test_one_call_per_run_of_ids(self, monkeypatch, algorithm, sizes, runs):
        specs = [DomainSpec(f"d{i}", n, spurious_correlation=0.8) for i, n in enumerate(sizes)]
        domains = gen_spurious_blobs(specs, d_inv=2, d_spur=2, seed=0)
        cfg = TrainConfig(outer_iterations=3, batch_size=32, seed=2)
        loop = ptg.training._aggregation_loop
        calls = []

        def spied(domains, feat, cls, config, step, aggregate):
            def counted(models, *args, **kwargs):
                out = step(models, *args, **kwargs)
                if kwargs == {"classifier_grad": False}:  # not the merged step
                    losses, grads, cls_grad, kls = out
                    k = len(models.flat)
                    assert (len(losses), len(grads), cls_grad, len(kls)) == (k, k, None, k)
                    calls.append(k)
                return out

            return loop(domains, feat, cls, config, counted, aggregate)

        monkeypatch.setattr(ptg.training, "_aggregation_loop", spied)
        train_algorithm(algorithm, domains, FEAT_SPEC, CLS_SPEC, cfg)
        assert calls == runs * cfg.outer_iterations


class TestFlatCore:
    """The loops build their models once and then update them in place."""

    @staticmethod
    def count_checked_constructions(monkeypatch):
        counts = {"WeightSet": 0, "GaussianVariational": 0}
        for cls in (WeightSet, GaussianVariational):
            original = cls.__post_init__

            def counted(self, _original=original, _name=cls.__name__):
                counts[_name] += 1
                _original(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        return counts

    @pytest.mark.parametrize("algorithm", ["ptg", "ptg_lite"])
    def test_checked_constructions_do_not_grow_with_iterations(self, monkeypatch, algorithm):
        domains, q_init, cls0 = ptg_setup(seed=17)
        feat0 = WeightSet.from_flat(FEAT_SPEC, q_init.mu)
        counts = self.count_checked_constructions(monkeypatch)
        seen = []
        for outer in (2, 6):
            before = dict(counts)
            cfg = replace(TestPtg.CFG, outer_iterations=outer)
            if algorithm == "ptg":
                ptg_train(domains, q_init, cls0, cfg)
            else:
                ptg_lite_train(domains, feat0, cls0, cfg)
            seen.append({k: counts[k] - before[k] for k in counts})
        assert seen[0] == seen[1]


class TestHotPathCallCounts:
    """One train_algorithm call makes its hot-path calls in the closed form of
    perfbench/workloads.py:expected_train_counts, the one the benchmark's
    traced count check uses.  A refactor that batches domains or adds a step
    changes these counts.
    """

    @staticmethod
    def expected_train_counts(monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
        spec.loader.exec_module(module)
        return module.expected_train_counts

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_counts_match_closed_form(self, monkeypatch, algorithm):
        expected = self.expected_train_counts(monkeypatch)
        domains = make_domains(n_per=60, seed=3)
        cfg = TrainConfig(outer_iterations=4, erm_steps=3, bayes_steps=5, batch_size=16, seed=3)
        want = expected(algorithm, len(domains), cfg)
        # every counted function is called through the training module's namespace
        counts = dict.fromkeys(want, 0)
        for target in want:
            name = target.split(".")[-1]
            original = getattr(ptg.training, name)

            def counted(*args, _original=original, _target=target, **kwargs):
                counts[_target] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ptg.training, name, counted)
        train_algorithm(algorithm, domains, FEAT_SPEC, CLS_SPEC, cfg)
        assert counts == want
