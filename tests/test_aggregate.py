"""Aggregation: moment matching, mean weights, CoV dropout."""
from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from ptg.aggregate import (
    _stable_mean,
    coefficient_of_variation,
    cov_dropout,
    map_mean,
    moment_match,
)
from ptg.nets import NetworkSpec, WeightSet, init_weights
from ptg.oracles import mixture_moments_mc
from ptg.variational import GaussianVariational, softplus_inv

SPEC = NetworkSpec((1, 1))  # two scalar parameters, enough to spell out by hand


def gaussian(mu, sigma, spec=SPEC):
    n = spec.param_count
    return GaussianVariational(
        spec, np.full(n, float(mu)), np.full(n, float(softplus_inv(sigma)))
    )


def random_gaussian(seed, spec=NetworkSpec((3, 4, 2))):
    rng = np.random.default_rng(seed)
    n = spec.param_count
    return GaussianVariational(spec, rng.standard_normal(n), rng.uniform(-2, 1, n))


class TestMomentMatch:
    def test_two_unit_components(self):
        # N(0,1) and N(2,1): mean 1, variance 1 + 1 = 2
        res = moment_match([gaussian(0.0, 1.0), gaussian(2.0, 1.0)])
        np.testing.assert_allclose(res.q0.mu, 1.0, atol=0)
        np.testing.assert_allclose(res.q0.sigma**2, 2.0, rtol=1e-14)

    def test_three_narrow_components(self):
        # means -1, 0, 1 with sigma^2 = 0.01: variance 0.01 + 2/3
        res = moment_match([gaussian(m, 0.1) for m in (-1.0, 0.0, 1.0)])
        np.testing.assert_allclose(res.q0.mu, 0.0, atol=0)
        np.testing.assert_allclose(res.q0.sigma**2, 0.01 + 2.0 / 3.0, rtol=1e-12)

    def test_identical_components_pass_through_bitwise(self):
        # sum/N would already fail this for three copies of 0.1
        q = gaussian(0.1, 0.7)
        for n in (2, 3, 5, 7):
            res = moment_match([q.copy() for _ in range(n)])
            np.testing.assert_array_equal(res.q0.mu, q.mu)
            np.testing.assert_array_equal(res.q0.rho, q.rho)
            np.testing.assert_array_equal(res.q0.sigma, q.sigma)

    def test_single_component_passes_through(self):
        q = random_gaussian(1)
        res = moment_match([q])
        np.testing.assert_array_equal(res.q0.mu, q.mu)
        np.testing.assert_array_equal(res.q0.rho, q.rho)

    def test_permutation_invariant_bitwise(self):
        qs = [random_gaussian(s) for s in range(5)]
        base = moment_match(qs)
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(len(qs))
            res = moment_match([qs[i] for i in order])
            np.testing.assert_array_equal(res.q0.mu, base.q0.mu)
            np.testing.assert_array_equal(res.q0.rho, base.q0.rho)

    def test_variance_never_below_within_term(self):
        for seed in range(20):
            qs = [random_gaussian(100 + seed * 10 + k) for k in range(4)]
            res = moment_match(qs)
            assert np.all(res.q0.sigma**2 >= res.within_var)
            assert np.all(res.between_var >= 0.0)

    def test_variance_split_adds_up(self):
        qs = [random_gaussian(s) for s in range(4)]
        res = moment_match(qs)
        np.testing.assert_allclose(
            res.q0.sigma**2, res.within_var + res.between_var, rtol=1e-12
        )

    def test_matches_monte_carlo(self):
        # independent sampling oracle for the matched moments
        rng = np.random.default_rng(7)
        spec = NetworkSpec((2, 3))
        for trial in range(3):
            qs = [random_gaussian(200 + trial * 10 + k, spec) for k in range(3)]
            res = moment_match(qs)
            mc_mean, mc_var = mixture_moments_mc(
                [(q.mu, q.sigma) for q in qs], n_samples=400_000, seed=int(rng.integers(1 << 31))
            )
            np.testing.assert_allclose(res.q0.mu, mc_mean, atol=2e-2)
            np.testing.assert_allclose(res.q0.sigma**2, mc_var, rtol=3e-2)

    def test_rejects_mixed_specs(self):
        with pytest.raises(ValueError):
            moment_match([random_gaussian(0), gaussian(0.0, 1.0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            moment_match([])


def sorted_stable_mean(stack):
    """_stable_mean by sort-then-sum, the reference the compare-exchange
    network must reproduce.  numpy adds an axis-0 sum row by row once a stack
    has two or more columns; a single column of eight or more rows it sums
    pairwise, so the stacks below are at least two columns wide."""
    mean = np.sort(stack, axis=0).sum(axis=0) / stack.shape[0]
    ties = np.all(stack == stack[0], axis=0)
    return np.where(ties, stack[0], mean)


class TestStableMean:
    @staticmethod
    def assert_bitwise(a, b):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_rows", range(1, 9))
    def test_every_row_count_matches_sort_bitwise(self, n_rows):
        rng = np.random.default_rng(20 + n_rows)
        values = np.array([0.0, -0.0, 0.1, -0.1, 1.0, 3.0, 1e-300, -1e300, 5e-324])
        width = 4000
        shared = rng.standard_normal((n_rows, width))
        shared[:, ::2] = shared[0, ::2]  # every row agrees, in alternate columns
        shared[n_rows // 2, ::4] = shared[0, ::4] + 1.0  # two values, one repeated
        cases = [
            rng.standard_normal((n_rows, width)),
            # mixed magnitudes, where the summation order changes the rounding
            rng.standard_normal((n_rows, width)) * 10.0 ** rng.integers(-12, 13, size=(n_rows, width)),
            # two-way and all-row ties, and signed zeros, in every arrangement
            rng.choice(values, size=(n_rows, width)),
            shared,
            rng.choice([0.0, -0.0], size=(n_rows, 2)),
        ]
        orders = list(permutations(range(n_rows))) if n_rows <= 4 else [
            rng.permutation(n_rows) for _ in range(6)]
        for stack in cases:
            for order in orders:
                rows = stack[list(order)]
                before = rows.copy()
                self.assert_bitwise(_stable_mean(rows), sorted_stable_mean(rows))
                self.assert_bitwise(rows, before)  # the stack is only read


class TestMapMean:
    def ws(self, values):
        return WeightSet.from_flat(SPEC, np.asarray(values, dtype=np.float64))

    def test_hand_mean(self):
        out = map_mean([self.ws([1.0, 2.0]), self.ws([3.0, 6.0])])
        np.testing.assert_array_equal(out.flatten(), [2.0, 4.0])

    def test_identical_inputs_unchanged_bitwise(self):
        w = self.ws([0.1, -0.3])
        out = map_mean([w.copy() for _ in range(3)])
        np.testing.assert_array_equal(out.flatten(), w.flatten())

    def test_agrees_with_moment_match_means_bitwise(self):
        # same canonical mean on both routes
        spec = NetworkSpec((3, 4, 2))
        qs = [random_gaussian(s, spec) for s in range(4)]
        as_weights = [WeightSet.from_flat(spec, q.mu) for q in qs]
        np.testing.assert_array_equal(
            map_mean(as_weights).flatten(), moment_match(qs).q0.mu
        )

    def test_permutation_invariant_bitwise(self):
        spec = NetworkSpec((4, 3))
        models = [init_weights(spec, np.random.default_rng(s)) for s in range(5)]
        base = map_mean(models).flatten()
        for seed in range(4):
            order = np.random.default_rng(seed).permutation(5)
            np.testing.assert_array_equal(map_mean([models[i] for i in order]).flatten(), base)


def _weight_rows(rows):
    """Weight sets whose flat vectors equal the given rows (even length only)."""
    rows = np.asarray(rows, dtype=np.float64)
    d = rows.shape[1]
    assert d % 2 == 0
    spec = NetworkSpec((1, d // 2))
    return [WeightSet.from_flat(spec, r) for r in rows]


class TestCoefficientOfVariation:
    def test_hand_value(self):
        # values 1.0, 1.2, 0.8: population std sqrt(0.08/3) over mean 1
        rows = [[1.0, 1.0], [1.2, 1.2], [0.8, 0.8]]
        cov = coefficient_of_variation(_weight_rows(rows), epsilon=0.0)
        np.testing.assert_allclose(cov, np.sqrt(0.08 / 3.0), rtol=1e-14)

    def test_identical_models_zero(self):
        rows = [[0.3, -0.7]] * 4
        cov = coefficient_of_variation(_weight_rows(rows))
        np.testing.assert_array_equal(cov, 0.0)

    def test_scale_invariance_power_of_two_bitwise(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((4, 6))
        base = coefficient_of_variation(_weight_rows(rows), epsilon=0.0)
        scaled = coefficient_of_variation(_weight_rows(rows * 4.0), epsilon=0.0)
        np.testing.assert_array_equal(scaled, base)

    def test_scale_invariance_general(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((3, 8)) + 2.0
        base = coefficient_of_variation(_weight_rows(rows), epsilon=0.0)
        scaled = coefficient_of_variation(_weight_rows(rows * 1.7), epsilon=0.0)
        np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((5, 10)) * rng.uniform(0.1, 3.0, size=(1, 10))
        cov = coefficient_of_variation(_weight_rows(rows), epsilon=1e-8)
        mean = rows.mean(axis=0)
        std = np.sqrt(((rows - mean) ** 2).mean(axis=0))
        np.testing.assert_allclose(cov, std / (np.abs(mean) + 1e-8), rtol=1e-12)

    def test_needs_two_models(self):
        with pytest.raises(ValueError):
            coefficient_of_variation(_weight_rows([[1.0, 2.0]]))

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError, match="epsilon must be >= 0, got -1e-08"):
            coefficient_of_variation(_weight_rows([[1.0, 2.0], [2.0, 1.0]]), epsilon=-1e-8)


class TestCovDropout:
    def test_mask_matches_recomputed_threshold(self):
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((4, 12))
        models = _weight_rows(rows)
        cov = coefficient_of_variation(models)
        mean = map_mean(models)
        out, report = cov_dropout(mean, cov, beta=0.5)
        np.testing.assert_array_equal(report.kept_mask, cov <= 0.5)
        np.testing.assert_array_equal(out.flatten()[~report.kept_mask], 0.0)
        np.testing.assert_array_equal(
            out.flatten()[report.kept_mask], mean.flatten()[report.kept_mask]
        )
        assert report.dropped_count == int((cov > 0.5).sum())

    def test_beta_monotonicity(self):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((3, 20))
        models = _weight_rows(rows)
        cov = coefficient_of_variation(models)
        mean = map_mean(models)
        betas = sorted(rng.uniform(0.01, 3.0, size=8))
        masks = [cov_dropout(mean, cov, b)[1].kept_mask for b in betas]
        for tighter, looser in zip(masks, masks[1:]):
            # larger beta keeps at least everything the smaller beta kept
            assert np.all(~tighter | looser)

    def test_report_json_schema(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((3, 10))
        models = _weight_rows(rows)
        _, report = cov_dropout(map_mean(models), coefficient_of_variation(models), 0.1)
        payload = report.to_json()
        assert set(payload) == {"beta", "dropped_count", "cov_histogram"}
        counts = sum(c for _, _, c in payload["cov_histogram"])
        assert counts == 10

    def test_rejects_bad_beta(self):
        models = _weight_rows([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            cov_dropout(map_mean(models), coefficient_of_variation(models), 0.0)

    def test_rejects_wrong_cov_shape(self):
        models = _weight_rows([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            cov_dropout(map_mean(models), np.zeros(5), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_rejects_a_cov_that_is_negative_or_not_finite(self, bad):
        models = _weight_rows([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="cov entries must be finite and >= 0"):
            cov_dropout(map_mean(models), np.array([0.1, bad]), 0.1)
