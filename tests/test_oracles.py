"""Discrete enumeration models and the sampling reference for mixture moments."""
from __future__ import annotations

import itertools
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from ptg import oracles
from ptg.oracles import (
    MC_BLOCK_ROWS,
    DiscreteGenerativeModel,
    data_conditioned_gap,
    identity_gap,
    invariant_posterior_aggregated,
    invariant_posterior_exact,
    mixture_moments_mc,
    random_model,
    total_variation,
)


def hand_model():
    """2 parameters, 1 causal value, 2 variants, 2 observation symbols."""
    lik = np.array(
        [  # [w][c][v] -> pmf over observations
            [[[0.9, 0.1], [0.6, 0.4]]],
            [[[0.2, 0.8], [0.5, 0.5]]],
        ]
    )
    return DiscreteGenerativeModel(
        p_omega=np.array([0.5, 0.5]),
        p_causal=np.array([1.0]),
        p_variant=np.array([0.5, 0.5]),
        likelihood=lik,
    )


def variant_zero_model():
    """hand_model with variant 0 alone.  The exact route multiplies the
    likelihood table by p_variant = [1.0], so it gives the bits of direct
    Bayes on variant 0: p(w | c, v=0, obs)."""
    m = hand_model()
    return DiscreteGenerativeModel(
        p_omega=m.p_omega,
        p_causal=m.p_causal,
        p_variant=np.array([1.0]),
        likelihood=m.likelihood[:, :, :1],
    )


class TestValidation:
    def test_rejects_unnormalized_pmf(self):
        with pytest.raises(ValueError):
            DiscreteGenerativeModel(
                p_omega=np.array([0.5, 0.4]),
                p_causal=np.array([1.0]),
                p_variant=np.array([1.0]),
                likelihood=np.ones((2, 1, 1, 2)) / 2,
            )

    def test_rejects_negative_pmf(self):
        with pytest.raises(ValueError):
            DiscreteGenerativeModel(
                p_omega=np.array([1.5, -0.5]),
                p_causal=np.array([1.0]),
                p_variant=np.array([1.0]),
                likelihood=np.ones((2, 1, 1, 2)) / 2,
            )

    def test_rejects_mismatched_likelihood_shape(self):
        with pytest.raises(ValueError):
            DiscreteGenerativeModel(
                p_omega=np.array([0.5, 0.5]),
                p_causal=np.array([1.0]),
                p_variant=np.array([1.0]),
                likelihood=np.ones((3, 1, 1, 2)) / 2,
            )

    @pytest.mark.parametrize("p_omega", [np.array([]), np.array([[0.5, 0.5]])])
    def test_rejects_a_pmf_that_is_not_a_non_empty_vector(self, p_omega):
        with pytest.raises(ValueError, match="p_omega must be a non-empty 1-d table"):
            DiscreteGenerativeModel(
                p_omega=p_omega,
                p_causal=np.array([1.0]),
                p_variant=np.array([1.0]),
                likelihood=np.ones((2, 1, 1, 2)) / 2,
            )

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_likelihood(self, bad):
        lik = np.ones((2, 1, 1, 2)) / 2
        lik[1, 0, 0] = [1.0 - bad, bad]
        with pytest.raises(ValueError, match="likelihood has negative or non-finite entries"):
            DiscreteGenerativeModel(
                p_omega=np.array([0.5, 0.5]),
                p_causal=np.array([1.0]),
                p_variant=np.array([1.0]),
                likelihood=lik,
            )

    def test_rejects_unnormalized_likelihood_rows(self):
        lik = np.ones((2, 1, 1, 2)) / 2
        lik[0, 0, 0] = [0.3, 0.3]
        with pytest.raises(ValueError):
            DiscreteGenerativeModel(
                p_omega=np.array([0.5, 0.5]),
                p_causal=np.array([1.0]),
                p_variant=np.array([1.0]),
                likelihood=lik,
            )

    def test_random_model_tables_pass_every_constructor_check(self):
        # random_model adopts its tables unchecked; the checked constructor takes each one as is
        rng = np.random.default_rng(17)
        for _ in range(1000):
            sizes = [int(n) for n in rng.integers(1, 7, size=4)]
            m = random_model(rng, *sizes)
            tables = {f.name: getattr(m, f.name) for f in fields(m)}
            rebuilt = DiscreteGenerativeModel(**tables)
            for name, table in tables.items():
                assert table.dtype == np.float64
                assert getattr(rebuilt, name).tobytes() == table.tobytes(), name

    def test_index_range_checks(self):
        m = hand_model()
        with pytest.raises(ValueError):
            invariant_posterior_exact(m, causal=1)
        with pytest.raises(ValueError):
            invariant_posterior_exact(m, 0, observations=[2])


class TestHandValues:
    def test_no_observations_returns_prior(self):
        m = hand_model()
        np.testing.assert_allclose(invariant_posterior_exact(m, 0), m.p_omega, atol=0)
        np.testing.assert_allclose(
            invariant_posterior_aggregated(m, 0), m.p_omega, rtol=1e-15
        )

    def test_single_observation_posterior(self):
        # joint after seeing symbol 0 under variant 0: (0.45, 0.10)
        m = variant_zero_model()
        np.testing.assert_allclose(
            invariant_posterior_exact(m, 0, [0]), [9 / 11, 2 / 11], rtol=1e-14
        )

    def test_sequence_multiplies_likelihoods(self):
        # two draws of symbol 0: joint (0.5 * 0.81, 0.5 * 0.04)
        m = variant_zero_model()
        np.testing.assert_allclose(
            invariant_posterior_exact(m, 0, [0, 0]), [81 / 85, 4 / 85], rtol=1e-14
        )

    def test_exact_invariant_posterior(self):
        # variant-marginal likelihood of symbol 0: w0 0.75, w1 0.35
        m = hand_model()
        np.testing.assert_allclose(
            invariant_posterior_exact(m, 0, [0]), [15 / 22, 7 / 22], rtol=1e-14
        )


class TestEnumerationOracle:
    """Re-derive every posterior from the fully enumerated joint, the slow way."""

    @staticmethod
    def enumerate_joint(model, causal, observations):
        """joint[w, v] = p(w) p(v) prod_t p(o_t | w, causal, v), by loops."""
        n_w, _, n_v, _ = model.likelihood.shape
        joint = np.zeros((n_w, n_v))
        for w in range(n_w):
            for v in range(n_v):
                p = model.p_omega[w] * model.p_variant[v]
                for o in observations:
                    p = p * model.likelihood[w, causal, v, o]
                joint[w, v] = p
        return joint

    def test_both_invariant_posteriors_for_random_models(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            m = random_model(rng)
            n_c = m.p_causal.size
            n_v = m.p_variant.size
            n_o = m.likelihood.shape[3]
            for c in range(n_c):
                for obs in itertools.chain([()], itertools.product(range(n_o), repeat=2)):
                    joint = self.enumerate_joint(m, c, obs)
                    ref_exact = joint.sum(axis=1) / joint.sum()
                    assert np.abs(invariant_posterior_exact(m, c, obs) - ref_exact).max() < 1e-12
                    ref_agg = np.zeros(m.n_omega)
                    for v in range(n_v):
                        ref_agg += m.p_variant[v] * joint[:, v] / joint[:, v].sum()
                    got_agg = invariant_posterior_aggregated(m, c, obs)
                    assert np.abs(got_agg - ref_agg).max() < 1e-12


class TestIdentity:
    def test_gap_vanishes_without_data(self):
        rng = np.random.default_rng(0)
        worst = max(identity_gap(random_model(rng)) for _ in range(200))
        assert worst < 1e-12

    def test_gap_vanishes_for_varied_shapes(self):
        rng = np.random.default_rng(1)
        for n_w, n_c, n_v, n_o in [(2, 1, 2, 2), (6, 4, 5, 3), (3, 2, 1, 4), (8, 1, 8, 2)]:
            m = random_model(rng, n_omega=n_w, n_causal=n_c, n_variant=n_v, n_obs=n_o)
            assert identity_gap(m) < 1e-12

    def test_point_mass_variant_closes_data_gap(self):
        rng = np.random.default_rng(2)
        m = random_model(rng, n_variant=1)
        for c in range(m.p_causal.size):
            assert data_conditioned_gap(m, c, [0, 1]) < 1e-12

    def test_variant_independent_likelihood_closes_data_gap(self):
        rng = np.random.default_rng(3)
        base = random_model(rng, n_variant=1)
        lik = np.repeat(base.likelihood, 3, axis=2)
        m = DiscreteGenerativeModel(
            p_omega=base.p_omega,
            p_causal=base.p_causal,
            p_variant=np.array([0.2, 0.3, 0.5]),
            likelihood=lik,
        )
        for c in range(m.p_causal.size):
            assert data_conditioned_gap(m, c, [0, 1, 0]) < 1e-12

    def test_nan_total_variation_gives_a_nan_gap(self, monkeypatch):
        monkeypatch.setattr(oracles, "total_variation", lambda p, q: float("nan"))
        m = random_model(np.random.default_rng(5), n_causal=3)
        assert np.isnan(identity_gap(m))
        assert np.isnan(data_conditioned_gap(m, 1, [0, 2]))

    def test_identity_gap_is_the_same_at_every_causal_index(self):
        # with no observations the likelihood table is all ones, so the one
        # route pair identity_gap runs stands for every causal slice bitwise
        rng = np.random.default_rng(6)
        for n_causal in (1, 2, 4):
            for _ in range(20):
                m = random_model(rng, n_causal=n_causal)
                gaps = {data_conditioned_gap(m, c, ()) for c in range(n_causal)}
                assert gaps == {identity_gap(m)}

    def test_data_reopens_the_gap(self):
        # prior-weighted averaging ignores how data re-weights variants, so a
        # generic model separates the two routes once observations arrive
        rng = np.random.default_rng(4)
        gaps = [
            data_conditioned_gap(random_model(rng), 0, [0, 0, 0]) for _ in range(50)
        ]
        assert max(gaps) > 1e-2


class TestZeroEvidence:
    def test_impossible_observation_raises(self):
        lik = np.zeros((2, 1, 1, 2))
        lik[:, :, :, 0] = 1.0  # symbol 1 can never occur
        m = DiscreteGenerativeModel(
            p_omega=np.array([0.5, 0.5]),
            p_causal=np.array([1.0]),
            p_variant=np.array([1.0]),
            likelihood=lik,
        )
        with pytest.raises(ValueError):
            invariant_posterior_exact(m, 0, [1])


class TestTotalVariation:
    def test_hand_values(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
        np.testing.assert_allclose(total_variation([0.7, 0.3], [0.5, 0.5]), 0.2)


class TestMixtureMC:
    def test_single_gaussian_moments(self):
        n = 200_000
        mean, var = mixture_moments_mc([(np.array([2.0]), np.array([0.5]))], n, seed=0)
        se_mean = 0.5 / np.sqrt(n)
        assert abs(mean[0] - 2.0) < 3 * se_mean
        # var of sample variance ~ 2 sigma^4 / n
        se_var = np.sqrt(2 * 0.5**4 / n)
        assert abs(var[0] - 0.25) < 3 * se_var

    def test_two_component_moments(self):
        # N(0,1) and N(2,1): mixture mean 1, variance 2
        comps = [(np.zeros(3), np.ones(3)), (np.full(3, 2.0), np.ones(3))]
        mean, var = mixture_moments_mc(comps, 400_000, seed=1)
        np.testing.assert_allclose(mean, 1.0, atol=0.02)
        np.testing.assert_allclose(var, 2.0, rtol=0.02)

    def test_seed_determinism(self):
        comps = [(np.zeros(2), np.ones(2))]
        a = mixture_moments_mc(comps, 1000, seed=5)
        b = mixture_moments_mc(comps, 1000, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mixture_moments_mc([], 10, seed=0)
        with pytest.raises(ValueError):
            mixture_moments_mc([(np.zeros(2), np.ones(2))], 0, seed=0)
        with pytest.raises(ValueError):
            mixture_moments_mc([(np.zeros(2), np.zeros(2))], 10, seed=0)


def one_shot_moments(components, n_samples, seed):
    """mixture_moments_mc before streaming: every draw held at once."""
    means = np.stack([np.asarray(m, dtype=np.float64) for m, _ in components])
    stds = np.stack([np.asarray(s, dtype=np.float64) for _, s in components])
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(components), size=n_samples)
    eps = rng.standard_normal((n_samples,) + means.shape[1:])
    draws = means[idx] + stds[idx] * eps
    return draws.mean(axis=0), draws.var(axis=0)


def random_components(rng, n, shape):
    return [(rng.normal(size=shape), rng.uniform(0.1, 1.0, size=shape)) for _ in range(n)]


class TestMixtureMCStreaming:
    SIZES = [1, 2, MC_BLOCK_ROWS, 2 * MC_BLOCK_ROWS, 2 * MC_BLOCK_ROWS + 5]

    @pytest.mark.parametrize("n_components", [2, 3, 5])
    @pytest.mark.parametrize("n_samples", SIZES)
    @pytest.mark.parametrize("shape", [(2,), (6,), (2, 3), (4, 1)])
    def test_equals_one_shot_bitwise(self, shape, n_samples, n_components):
        comps = random_components(np.random.default_rng(n_samples), n_components, shape)
        got = mixture_moments_mc(comps, n_samples, seed=9)
        want = one_shot_moments(comps, n_samples, seed=9)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("shape", [(), (1,)])
    def test_one_entry_samples_agree_to_roundoff(self, shape):
        # numpy sums a one-entry column pairwise; the stream sums it in order
        comps = random_components(np.random.default_rng(3), 2, shape)
        got = mixture_moments_mc(comps, 2 * MC_BLOCK_ROWS + 5, seed=4)
        want = one_shot_moments(comps, 2 * MC_BLOCK_ROWS + 5, seed=4)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [400_000, 4_000_000])
    def test_peak_memory_does_not_hold_every_draw(self, n):
        comps = random_components(np.random.default_rng(0), 3, (6,))
        tracemalloc.start()
        try:
            mixture_moments_mc(comps, n, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 array of every draw alone is n * 6 * 8 bytes (19.2 MB at
        # 400,000); the stream holds two blocks and one block of indices
        assert peak < 4 * MC_BLOCK_ROWS * 6 * 8

    @pytest.mark.parametrize("block", [1, 3, 4097])
    @pytest.mark.parametrize("k", [2, 3, 5, 7, 2**20 + 3])
    def test_integers_drawn_in_blocks_equal_one_draw(self, k, block):
        # the stream relies on this: the generator keeps any spare bits in its
        # state, so the indices and the state after them do not depend on the
        # block size
        n = 3 * 4097 + 2
        whole = np.random.default_rng(k)
        want = whole.integers(0, k, size=n)
        blocks = np.random.default_rng(k)
        got = np.concatenate([blocks.integers(0, k, size=min(block, n - lo))
                              for lo in range(0, n, block)])
        assert got.tobytes() == want.tobytes()
        assert blocks.bit_generator.state == whole.bit_generator.state
