"""Posterior layer: softplus bridge, sampling, KL against quadrature, ELBO."""
from __future__ import annotations

import json

import numpy as np
import pytest
from scipy.integrate import quad

from ptg.checks import central_difference, max_relative_error
from ptg.nets import AdamState, NetworkSpec, WeightSet, adam_step, init_weights
from ptg.variational import (
    GaussianVariational,
    PriorSpec,
    _kl_grad,
    elbo_loss,
    init_from_deterministic,
    kl_to_prior,
    load_model,
    sample_weights,
    save_model,
    sigmoid,
    softplus,
    softplus_inv,
)

SPEC = NetworkSpec((2, 3, 2))  # param_count 17


def stacked_q(mu, rho, spec=SPEC):
    """The posteriors (mu_j, rho_j), one per row; one of mu, rho may be a single vector."""
    return GaussianVariational.wrap(spec, np.hstack(np.broadcast_arrays(mu, rho)))


def rowwise(f):
    """A function of one point as a function of a stack of points."""
    return lambda points: np.array([f(p) for p in points])


def make_q(seed=0, spec=SPEC, scale=0.5):
    rng = np.random.default_rng(seed)
    n = spec.param_count
    return GaussianVariational(spec, scale * rng.standard_normal(n), rng.uniform(-2.0, 1.0, n))


class TestSoftplus:
    def test_zero_maps_to_log_two(self):
        assert softplus(np.array(0.0)) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_five(self):
        assert softplus(np.array(5.0)) == pytest.approx(5.0067153484891179, abs=1e-12)

    def test_very_negative_rho_is_tiny_but_positive(self):
        s = softplus(np.array(-40.0))
        assert 0.0 < s < 1e-17

    def test_large_rho_is_linear(self):
        assert softplus(np.array(800.0)) == 800.0  # e^-800 underflows entirely

    def test_inverse_roundtrip_bitwise_at_prior_std(self):
        for y in [0.5, 1.0, 2.0]:
            assert float(softplus(softplus_inv(y))) == y
        # sigma0 (erm_bayesian's initial rho) and the prior std
        assert softplus_inv(0.01).hex() == "-0x1.26691ebc4af0ap+2"
        assert softplus_inv(1.0).hex() == "0x1.15288806261ccp-1"

    def test_inverse_roundtrip_at_rounding_floor(self):
        rng = np.random.default_rng(2)
        ys = np.concatenate([
            10.0 ** rng.uniform(-6, 2, 500),
            rng.uniform(30.0, 1e3, 500),  # log(expm1(y)) would overflow past y = 709
        ])
        rt = softplus(softplus_inv(ys))
        assert np.abs(rt / ys - 1.0).max() < 4e-15

    def test_inverse_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            softplus_inv(np.array([0.5, 0.0]))


class TestPackedVector:
    """A posterior keeps [mu | rho] in one vector named flat, as WeightSet does."""

    def test_wrap_adopts_the_vector_and_views_its_halves(self):
        n = SPEC.param_count
        v = np.random.default_rng(1).standard_normal(2 * n)
        q = GaussianVariational.wrap(SPEC, v)
        assert q.flat is v
        assert q.mu.base is v and q.rho.base is v
        v[0], v[n] = 7.0, -3.0
        assert (q.mu[0], q.rho[0]) == (7.0, -3.0)
        assert not hasattr(q, "theta")

    def test_copy_owns_a_fresh_vector(self):
        q = make_q(2)
        c = q.copy()
        assert c.flat is not q.flat and not np.shares_memory(c.flat, q.flat)
        np.testing.assert_array_equal(c.flat, q.flat)
        assert c.mu.base is c.flat and c.rho.base is c.flat
        c.flat += 1.0
        assert not np.array_equal(c.mu, q.mu)

    @pytest.mark.parametrize("mu_len, rho_len", [(17, 16), (16, 17), (34, 0)])
    def test_constructor_refuses_halves_of_the_wrong_shape(self, mu_len, rho_len):
        with pytest.raises(ValueError, match=r"mu/rho must have shape \(17,\)"):
            GaussianVariational(SPEC, np.zeros(mu_len), np.zeros(rho_len))


class TestInitAndSampling:
    def test_init_sigma_matches_sigma0(self):
        ws = init_weights(SPEC, np.random.default_rng(0))
        q = init_from_deterministic(ws, sigma0=0.01)
        np.testing.assert_array_equal(q.mu, ws.flatten())
        np.testing.assert_allclose(q.sigma, 0.01, atol=1e-12)

    @pytest.mark.parametrize("sigma0", [0.0, -0.01, np.inf, np.nan])
    def test_init_refuses_a_sigma0_that_is_not_positive_and_finite(self, sigma0):
        ws = init_weights(SPEC, np.random.default_rng(0))
        with pytest.raises(ValueError, match="sigma0 must be positive and finite"):
            init_from_deterministic(ws, sigma0=sigma0)

    def test_zero_eps_returns_mean(self):
        q = make_q(3)
        ws = sample_weights(q, np.zeros(SPEC.param_count))
        np.testing.assert_array_equal(ws.flatten(), q.mu)

    def test_known_eps(self):
        q = make_q(4)
        eps = np.random.default_rng(9).standard_normal(SPEC.param_count)
        ws = sample_weights(q, eps)
        np.testing.assert_allclose(ws.flatten(), q.mu + q.sigma * eps, atol=0)

    def test_sample_statistics(self):
        # mean and std of many draws agree with (mu, sigma) to MC accuracy
        q = make_q(5)
        rng = np.random.default_rng(10)
        n = 20000
        draws = np.stack(
            [sample_weights(q, rng.standard_normal(SPEC.param_count)).flatten() for _ in range(n)]
        )
        se = q.sigma / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - q.mu) < 5 * se)
        np.testing.assert_allclose(draws.std(axis=0), q.sigma, rtol=0.05)

    def test_rejects_bad_eps_shape(self):
        with pytest.raises(ValueError):
            sample_weights(make_q(), np.zeros(3))


def single_coordinate_kl(mu, sigma, prior):
    """KL with one live coordinate; the rest sit exactly on the prior."""
    spec = NetworkSpec((1, 1))  # two parameters: one weight, one bias
    q = GaussianVariational(
        spec,
        np.array([mu, prior.mean]),
        np.array([softplus_inv(sigma), softplus_inv(prior.std)]),
    )
    return kl_to_prior(q, prior)


def kl_by_quadrature(mu, sigma, m, s):
    """Independent oracle: numerically integrate q log(q/p)."""

    def integrand(w):
        log_q = -0.5 * ((w - mu) / sigma) ** 2 - np.log(sigma)
        log_p = -0.5 * ((w - m) / s) ** 2 - np.log(s)
        return np.exp(log_q) / np.sqrt(2 * np.pi) * (log_q - log_p)

    val, err = quad(integrand, mu - 12 * sigma, mu + 12 * sigma, limit=200)
    assert err < 1e-10
    return val


class TestKl:
    def test_hand_value_narrow_offset(self):
        # q = N(1, 0.25) against N(0, 1): ln 2 + 1.25/2 - 1/2
        got = single_coordinate_kl(1.0, 0.5, PriorSpec(0.0, 1.0))
        assert got == pytest.approx(0.8181471805599453, abs=1e-12)

    def test_hand_value_wide_centered(self):
        # q = N(0, 4) against N(0, 1): -ln 2 + 2 - 1/2
        got = single_coordinate_kl(0.0, 2.0, PriorSpec(0.0, 1.0))
        assert got == pytest.approx(0.8068528194400547, abs=1e-12)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf"), -float("inf")])
    def test_prior_refuses_a_non_finite_mean(self, mean):
        with pytest.raises(ValueError, match=f"prior mean must be finite, got {mean}"):
            PriorSpec(mean, 1.0)

    def test_prior_vs_prior_is_exactly_zero(self):
        prior = PriorSpec(0.0, 1.0)
        q = GaussianVariational(
            SPEC,
            np.full(SPEC.param_count, prior.mean),
            np.full(SPEC.param_count, softplus_inv(prior.std)),
        )
        assert kl_to_prior(q, prior) == 0.0

    def test_matches_quadrature(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            mu = float(rng.uniform(-2, 2))
            sigma = float(rng.uniform(0.2, 2.5))
            m = float(rng.uniform(-1, 1))
            s = float(rng.uniform(0.5, 2.0))
            got = single_coordinate_kl(mu, sigma, PriorSpec(m, s))
            assert got == pytest.approx(kl_by_quadrature(mu, sigma, m, s), abs=1e-8)

    def test_nonnegative_on_random_instances(self):
        for seed in range(30):
            q = make_q(seed)
            assert kl_to_prior(q, PriorSpec(0.0, 1.0)) >= 0.0

    def test_gradients_match_finite_differences(self):
        # the packed [mu | rho] gradient that elbo_loss adds at weight kl_weight
        q = make_q(31)
        prior = PriorSpec(0.3, 1.4)
        grad = _kl_grad(q.mu, q.sigma, sigmoid(q.rho), prior)
        g_mu, g_rho = grad[: SPEC.param_count], grad[SPEC.param_count :]
        fd_mu = central_difference(lambda v: kl_to_prior(stacked_q(v, q.rho), prior), q.mu)
        fd_rho = central_difference(lambda v: kl_to_prior(stacked_q(q.mu, v), prior), q.rho)
        assert max_relative_error(fd_mu, g_mu) < 1e-7
        assert max_relative_error(fd_rho, g_rho) < 1e-7

    def test_data_free_descent_shrinks_kl(self):
        # with only the KL term, Adam should pull q onto the prior
        q = make_q(48)
        n = SPEC.param_count
        state = AdamState.zeros(2 * n)
        checkpoints = [kl_to_prior(q)]
        for step in range(100):
            grad = _kl_grad(q.mu, q.sigma, sigmoid(q.rho), PriorSpec())
            packed = np.concatenate([q.mu, q.rho])
            packed, state = adam_step(packed, grad, state, 5e-2)
            q = GaussianVariational(SPEC, packed[:n], packed[n:])
            if (step + 1) % 10 == 0:
                checkpoints.append(kl_to_prior(q))
        diffs = np.diff(checkpoints)
        assert np.all(diffs < 0.0)
        assert checkpoints[-1] < 0.05 * checkpoints[0]


class TestElbo:
    BATCH = (np.zeros((3, 2)), np.array([0, 1, 0]))

    def cls_pair(self, seed=0):
        cls_spec = NetworkSpec((SPEC.layer_dims[-1], 3, 2))
        return init_weights(cls_spec, np.random.default_rng(seed))

    def test_same_eps_is_deterministic(self):
        q = make_q(42)
        cls = self.cls_pair(43)
        rng = np.random.default_rng(44)
        x = rng.standard_normal((6, 2))
        y = rng.integers(0, 2, size=6)
        eps = rng.standard_normal(SPEC.param_count)
        a = elbo_loss(q, cls, (x, y), 0.5, eps)
        b = elbo_loss(q, cls, (x, y), 0.5, eps)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(45)
        q = make_q(46, scale=0.8)
        cls = self.cls_pair(47)
        x = rng.standard_normal((5, 2))
        y = rng.integers(0, 2, size=5)
        eps = rng.standard_normal(SPEC.param_count)
        _, grad, grad_cls, _ = elbo_loss(q, cls, (x, y), 0.3, eps)
        n = SPEC.param_count

        # elbo_loss itself at every perturbed point, one point at a time
        @rowwise
        def loss_mu(v):
            return elbo_loss(GaussianVariational(SPEC, v, q.rho), cls, (x, y), 0.3, eps)[0]

        @rowwise
        def loss_rho(v):
            return elbo_loss(GaussianVariational(SPEC, q.mu, v), cls, (x, y), 0.3, eps)[0]

        @rowwise
        def loss_cls(v):
            cw = WeightSet.from_flat(cls.spec, v)
            return elbo_loss(q, cw, (x, y), 0.3, eps)[0]

        assert max_relative_error(central_difference(loss_mu, q.mu), grad[:n]) < 1e-4
        assert max_relative_error(central_difference(loss_rho, q.rho), grad[n:]) < 1e-4
        fd_cls = central_difference(loss_cls, cls.flatten())
        assert max_relative_error(fd_cls, grad_cls) < 1e-4

    def test_rejects_negative_kl_weight(self):
        with pytest.raises(ValueError):
            elbo_loss(make_q(), self.cls_pair(), self.BATCH, -0.1, np.zeros(SPEC.param_count))

    def test_rejects_a_nan_kl_weight(self):
        # a NaN weight passes a `kl_weight < 0` guard and makes the loss NaN
        with pytest.raises(ValueError, match="kl_weight must be >= 0, got nan"):
            elbo_loss(make_q(), self.cls_pair(), self.BATCH, float("nan"), np.zeros(SPEC.param_count))


class TestSerialization:
    """One checkpoint format for both kinds of model: the spec's widths and the
    flat vector, the kind read from the vector's length."""

    def test_roundtrip_bitwise(self, tmp_path):
        q = make_q(50)
        path = tmp_path / "posterior.json"
        save_model(path, q)
        back = load_model(path)
        assert type(back) is GaussianVariational and back.spec == q.spec
        np.testing.assert_array_equal(back.flat.view(np.uint64), q.flat.view(np.uint64))
        assert back.mu.base is back.flat and back.rho.base is back.flat

    def test_file_holds_the_widths_and_the_flat_vector(self, tmp_path):
        q = make_q(51)
        path = tmp_path / "posterior.json"
        save_model(path, q)
        assert json.loads(path.read_text()) == {"dims": [2, 3, 2], "flat": q.flat.tolist()}

    @pytest.mark.parametrize("flat", [[0.0] * 16, [0.0] * 18, [0.0] * 33, [0.0] * 51, [[0.0] * 17] * 2])
    def test_refuses_a_vector_of_neither_kind(self, tmp_path, flat):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"dims": [2, 3, 2], "flat": flat}))
        with pytest.raises(ValueError, match=r"holds 17 values \(weights\) or 34 \(posterior\)"):
            load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("posterior", [False, True])
    def test_refuses_a_non_finite_value(self, tmp_path, bad, posterior):
        model = make_q(52) if posterior else init_weights(SPEC, np.random.default_rng(52))
        path = tmp_path / "model.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload["flat"][-1] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="non-finite parameter values"):
            load_model(path)

    @pytest.mark.parametrize("dim", [2.5, True])
    def test_refuses_a_dim_that_is_not_an_integer(self, tmp_path, dim):
        path = tmp_path / "model.json"
        save_model(path, make_q(53))
        payload = json.loads(path.read_text())
        payload["dims"][1] = dim
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"model.json: layer dim {dim!r} must be an integer"):
            load_model(path)

    @pytest.mark.parametrize("payload", [{"flat": [0.0] * 17}, {"dims": [2, 3, 2]},
                                         [[2, 3, 2], [0.0] * 17], None])
    def test_refuses_a_payload_without_dims_and_flat(self, tmp_path, payload):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match='model.json: a checkpoint is a JSON object with keys'):
            load_model(path)

    def test_refuses_a_file_that_is_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"dims": [2, 3, 2], ')
        with pytest.raises(ValueError, match="model.json: Expecting property name"):
            load_model(path)


def test_sigmoid_matches_reference():
    x = np.linspace(-30, 30, 101)
    np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)
