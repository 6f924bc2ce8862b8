"""Bitwise pins of the hot-path kernels and training loops against copies of
their earlier code.

Each rewritten kernel or loop must give the same bits as the code it replaced:
results, checkpoints and benchmark fingerprints all rest on that.  The
references below are the earlier implementations, kept verbatim.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ptg.aggregate import (
    AggregateResult,
    CovReport,
    coefficient_of_variation,
    cov_dropout,
    map_mean,
    mean_and_cov,
    moment_match,
)
from ptg.nets import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    ForwardTape,
    NetworkSpec,
    TrainingDiverged,
    WeightSet,
    adam_step,
    backward,
    cross_entropy,
    forward,
    init_weights,
    loss_and_gradients,
)
from ptg.datasets import DomainSpec, gen_spurious_blobs
from ptg.seeding import stream
from ptg.training import (
    FeaturizerBank,
    MinibatchStream,
    TrainConfig,
    _auto_kl_weight,
    _check_domains,
    _elbo_step,
    _map_loss,
    erm_bayesian_train,
    erm_train,
    init_pair,
    ptg_lite_train,
    ptg_train,
)
from ptg.variational import (
    GaussianVariational,
    PriorSpec,
    elbo_loss,
    init_from_deterministic,
    kl_to_prior,
    sample_weights,
    sigmoid,
    softplus,
    softplus_inv,
)


def ref_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_cross_entropy(logits, labels):
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss = float(-log_probs[np.arange(n), labels].mean())
    d_logits = np.exp(log_probs)
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    return loss, d_logits


def ref_forward(spec, ws, x):
    inputs, preacts = [], []
    h = x
    for i in range(spec.n_layers):
        inputs.append(h)
        z = h @ ws.weights[i] + ws.biases[i]
        preacts.append(z)
        h = np.maximum(z, 0.0) if i < spec.n_layers - 1 else z
    return h, ForwardTape(ws, inputs, preacts)


def ref_backward(spec, ws, tape, d_out):
    grad = np.empty(spec.param_count)
    views = WeightSet.wrap(spec, grad)
    dz = d_out
    for i in range(spec.n_layers - 1, -1, -1):
        if i < spec.n_layers - 1:
            dz = dz * (tape.preacts[i] > 0.0)
        np.matmul(tape.inputs[i].T, dz, out=views.weights[i])
        dz.sum(axis=0, out=views.biases[i])
        dz = dz @ ws.weights[i].T
    return grad, dz


def ref_adam_step(flat, grad, state, effective_lr):
    if not np.isfinite(grad).all():
        raise TrainingDiverged("non-finite")
    state.t += 1
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    step = effective_lr * (m / (1.0 - ADAM_BETA1**state.t))
    step /= np.sqrt(v / (1.0 - ADAM_BETA2**state.t)) + ADAM_EPS
    flat -= step
    return flat, state


def ref_elbo_loss(q, classifier, batch, kl_weight, eps, prior):
    """The earlier composition: sample_weights, kl_to_prior, kl_gradients,
    then the forward/backward sequence, each recomputing softplus(rho)."""
    sigma_sample = softplus(q.rho)
    feat_ws = WeightSet.wrap(q.spec, q.mu + sigma_sample * eps)
    sigma = softplus(q.rho)
    s = prior.std
    terms = np.log(s / sigma) + (sigma**2 + (q.mu - prior.mean) ** 2) / (2.0 * s**2) - 0.5
    kl = float(terms.sum())
    sigma = softplus(q.rho)
    s2 = prior.std**2
    d_mu = (q.mu - prior.mean) / s2
    d_sigma = sigma / s2 - 1.0 / sigma
    kl_grad = kl_weight * np.concatenate([d_mu, d_sigma * ref_sigmoid(q.rho)])
    x, y = batch
    feats, tape_f = ref_forward(q.spec, feat_ws, x)
    logits, tape_c = ref_forward(classifier.spec, classifier, feats)
    ce, d_logits = ref_cross_entropy(logits, y)
    grad_cls, d_feats = ref_backward(classifier.spec, classifier, tape_c, d_logits)
    g_omega, _ = ref_backward(q.spec, feat_ws, tape_f, d_feats)
    grad_theta = np.concatenate([g_omega, g_omega * eps * ref_sigmoid(q.rho)])
    grad_theta += kl_grad
    return ce + kl_weight * kl, kl, grad_theta, grad_cls


def ref_map_loss(feat, cls, batch, l2_weight, prior, eps_rng):
    ce, grad_feat, grad_cls, _ = loss_and_gradients(feat, cls, *batch)
    centered = feat.flat - prior.mean
    s2 = prior.std**2
    sq = float(np.add.reduce(centered * centered))
    loss = ce + l2_weight * sq / (2.0 * s2)
    g = np.multiply(centered, l2_weight, out=centered)
    g /= s2
    g += grad_feat
    return loss, g, grad_cls, sq / (2.0 * s2)


def ref_stable_mean(stack):
    total = np.sort(stack, axis=0).sum(axis=0)
    mean = total / stack.shape[0]
    ties = np.all(stack == stack[0], axis=0)
    return np.where(ties, stack[0], mean)


def ref_cov(stack, epsilon=1e-8):
    mean = ref_stable_mean(stack)
    std = np.sqrt(ref_stable_mean((stack - mean) ** 2))
    return std / (np.abs(mean) + epsilon)


def ref_mean_and_cov(weight_sets):
    """mean_and_cov by ref_stable_mean and ref_cov (TestMeanAndCov pins the two
    bitwise)."""
    stack = np.stack([ws.flat for ws in weight_sets])
    return WeightSet.wrap(weight_sets[0].spec, ref_stable_mean(stack)), ref_cov(stack)


def ref_moment_match(posteriors):
    """moment_match as it was before it stacked the packed [mu | rho] rows once,
    with ref_stable_mean for _stable_mean (tests/test_aggregate.py pins the
    two bitwise)."""
    mu_stack = np.stack([q.mu for q in posteriors])
    rho_stack = np.stack([q.rho for q in posteriors])
    sigma_stack = softplus(rho_stack)

    mu_ties = np.logical_and.reduce(mu_stack == mu_stack[0], axis=0)
    mu = ref_stable_mean(mu_stack)
    within = ref_stable_mean(sigma_stack**2)
    between = ref_stable_mean((mu_stack - mu) ** 2)
    sigma = np.sqrt(within + between)

    ties = mu_ties & np.logical_and.reduce(rho_stack == rho_stack[0], axis=0)
    rho = np.where(ties, rho_stack[0], softplus_inv(sigma))
    return AggregateResult(
        q0=GaussianVariational.wrap(posteriors[0].spec, np.concatenate([mu, rho])),
        within_var=within,
        between_var=between,
    )


def assert_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSigmoid:
    def test_edges_and_subnormals(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, 700.0, -700.0, 800.0, -800.0, 745.2, -745.2, 36.0, -36.0,
                      tiny, -tiny, 1e-310, -1e-310, np.inf, -np.inf])
        assert_bits(sigmoid(x), ref_sigmoid(x))

    def test_random_values(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([
            rng.standard_normal(40_000),
            rng.uniform(-800.0, 800.0, 40_000),
            rng.standard_normal(20_000) * 1e-12,
        ])
        assert_bits(sigmoid(x), ref_sigmoid(x))

    def test_scalar(self):
        assert float(sigmoid(-3.0)) == float(ref_sigmoid(-3.0))


class TestCrossEntropy:
    @pytest.mark.parametrize("classes", [2, 3, 5, 9])
    def test_loss_and_gradient(self, classes):
        rng = np.random.default_rng(classes)
        for scale in (1e-3, 1.0, 30.0, 500.0):
            logits = rng.standard_normal((192, classes)) * scale
            labels = rng.integers(0, classes, 192)
            loss, grad = cross_entropy(logits, labels)
            ref_loss, ref_grad = ref_cross_entropy(logits, labels)
            assert_bits(loss, ref_loss)
            assert_bits(grad, ref_grad)

    @pytest.mark.parametrize("classes", [2, 3, 5, 9])
    @pytest.mark.parametrize("n", [3, 7, 8, 192])
    def test_stacked_value_matches_separate_calls(self, classes, n):
        # labels (n,) that all six models share, as finite differences pass them
        rng = np.random.default_rng(classes * n)
        logits = rng.standard_normal((6, n, classes)) * 30.0
        labels = rng.integers(0, classes, n)
        values, grads = cross_entropy(logits, labels)
        assert values.shape == (6,) and grads.shape == logits.shape
        for j in range(6):
            loss, grad = cross_entropy(logits[j], labels)
            assert_bits(values[j], loss)
            assert_bits(grads[j], grad)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, "):
            cross_entropy(logits, np.full(n, classes))

    @pytest.mark.parametrize("classes", [2, 3, 9])
    @pytest.mark.parametrize("n", [3, 20, 64])
    def test_stacked_loss_and_gradient_match_separate_calls(self, classes, n):
        rng = np.random.default_rng(classes + n)
        logits = rng.standard_normal((4, n, classes)) * 30.0
        labels = rng.integers(0, classes, (4, n))
        losses, grads = cross_entropy(logits, labels)
        assert losses.shape == (4,) and grads.shape == logits.shape
        for j in range(4):
            loss, grad = cross_entropy(logits[j], labels[j])
            assert type(loss) is float
            assert_bits(losses[j], loss)
            assert_bits(grads[j], grad)

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 0], [1, 3]])
    def test_out_of_range_labels(self, labels):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            cross_entropy(np.zeros((2, 2)), np.array(labels))


class TestForwardBackward:
    def test_forward_against_copy(self):
        rng = np.random.default_rng(0)
        for dims in ((10, 32, 16), (16, 16, 2), (3, 2), (4, 5, 6, 3)):
            spec = NetworkSpec(dims)
            ws = init_weights(spec, rng)
            ws.flat[:] = rng.standard_normal(spec.param_count)
            x = rng.standard_normal((64, dims[0]))
            out, tape = forward(ws, x)
            ref_out, ref_tape = ref_forward(spec, ws, x)
            assert_bits(out, ref_out)
            for a, b in zip(tape.preacts + tape.inputs, ref_tape.preacts + ref_tape.inputs):
                assert_bits(a, b)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_stacked_forward_matches_separate_calls(self, k):
        # stacked weights, stacked inputs and both: model j gives its own call's bits
        rng = np.random.default_rng(k)
        for dims in ((10, 32, 16), (16, 16, 2), (3, 2), (4, 5, 6, 3)):
            spec = NetworkSpec(dims)
            for n in (3, 64):
                flats = rng.standard_normal((k, spec.param_count))
                xs = rng.standard_normal((k, n, dims[0]))
                stacked = WeightSet.wrap(spec, flats)
                assert [w.shape for w in stacked.weights] == [(k, a, b) for a, b in zip(dims, dims[1:])]
                assert [b.shape for b in stacked.biases] == [(k, 1, b) for b in dims[1:]]
                single = [WeightSet.wrap(spec, flats[j]) for j in range(k)]
                cases = [
                    (stacked, xs[0], [(single[j], xs[0]) for j in range(k)]),
                    (single[0], xs, [(single[0], xs[j]) for j in range(k)]),
                    (stacked, xs, list(zip(single, xs))),
                ]
                for ws, x, separate in cases:
                    out, tape = forward(ws, x)
                    assert out.shape == (k, n, dims[-1])
                    for j, (ws_j, x_j) in enumerate(separate):
                        out_j, tape_j = forward(ws_j, x_j)
                        assert_bits(out[j], out_j)
                        for a, b in zip(tape.preacts, tape_j.preacts):
                            assert_bits(a[j], b)

    def test_backward_against_copy(self):
        rng = np.random.default_rng(1)
        for dims in ((10, 32, 16), (16, 16, 2), (3, 2), (4, 5, 6, 3)):
            spec = NetworkSpec(dims)
            ws = init_weights(spec, rng)
            x = rng.standard_normal((64, dims[0]))
            _, tape = forward(ws, x)
            d_out = rng.standard_normal((64, dims[-1]))
            grad, dz0 = backward(tape, d_out.copy())
            ref_grad, ref_dx = ref_backward(spec, ws, tape, d_out)
            assert type(grad) is np.ndarray
            assert_bits(grad, ref_grad)
            assert_bits(dz0 @ ws.weights[0].T, ref_dx)

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_stacked_backward_matches_separate_calls(self, k):
        # stacked weights on stacked or shared inputs, and one net on stacked
        # inputs: gradient row j, with its bias sums over the batch axis and
        # its W blocks, and the input-side gradient are model j's own bits
        rng = np.random.default_rng(10 + k)
        for dims in ((10, 32, 16), (16, 16, 2), (3, 2), (4, 5, 6, 3), (5, 1), (3, 1, 2)):
            spec = NetworkSpec(dims)
            for n in (1, 3, 64):
                flats = rng.standard_normal((k, spec.param_count))
                xs = rng.standard_normal((k, n, dims[0]))
                d_out = rng.standard_normal((k, n, dims[-1]))
                stacked = WeightSet.wrap(spec, flats)
                single = [WeightSet.wrap(spec, flats[j]) for j in range(k)]
                cases = [
                    (stacked, xs, list(zip(single, xs))),
                    (stacked, xs[0], [(single[j], xs[0]) for j in range(k)]),
                    (single[0], xs, [(single[0], xs[j]) for j in range(k)]),
                ]
                for ws, x, separate in cases:
                    tape = forward(ws, x)[1]
                    grad, dz0 = backward(tape, d_out)
                    none, dz0_only = backward(tape, d_out, params=False)
                    assert grad.shape == (k, spec.param_count) and none is None
                    assert_bits(dz0_only, dz0)
                    for j, (ws_j, x_j) in enumerate(separate):
                        grad_j, dz0_j = backward(forward(ws_j, x_j)[1], d_out[j])
                        assert_bits(grad[j], grad_j)
                        assert_bits(dz0[j], dz0_j)

    @pytest.mark.parametrize("k", [1, 3])
    def test_stacked_loss_and_gradients_with_the_classifier_frozen(self, k):
        rng = np.random.default_rng(20 + k)
        feat_spec, cls = NetworkSpec((10, 32, 16)), init_weights(NetworkSpec((16, 16, 2)), rng)
        flats = rng.standard_normal((k, feat_spec.param_count)) * 0.3
        x, y = rng.standard_normal((k, 64, 10)), rng.integers(0, 2, (k, 64))
        losses, g_feat, g_cls, dz0 = loss_and_gradients(WeightSet.wrap(feat_spec, flats), cls, x, y, False)
        assert g_cls is None and g_feat.shape == flats.shape
        for j in range(k):
            feat_j = WeightSet.wrap(feat_spec, flats[j])
            loss_j, g_feat_j, _, dz0_j = loss_and_gradients(feat_j, cls, x[j], y[j])
            assert_bits(losses[j], loss_j)
            assert_bits(g_feat[j], g_feat_j)
            assert_bits(dz0[j], dz0_j)

    def test_leaves_upstream_gradient_alone(self):
        spec = NetworkSpec((3, 4, 2))
        rng = np.random.default_rng(2)
        ws = init_weights(spec, rng)
        _, tape = forward(ws, rng.standard_normal((5, 3)))
        d_out = rng.standard_normal((5, 2))
        before = d_out.copy()
        backward(tape, d_out)
        assert_bits(d_out, before)

    def test_loss_and_gradients_is_the_composition(self):
        rng = np.random.default_rng(3)
        feat = init_weights(NetworkSpec((4, 6, 3)), rng)
        cls = init_weights(NetworkSpec((3, 5, 3)), rng)
        x, y = rng.standard_normal((7, 4)), rng.integers(0, 3, 7)
        loss, g_feat, g_cls, dz0 = loss_and_gradients(feat, cls, x, y)
        feats, tape_f = ref_forward(feat.spec, feat, x)
        logits, tape_c = ref_forward(cls.spec, cls, feats)
        ref_loss, d_logits = ref_cross_entropy(logits, y)
        ref_cls, d_feats = ref_backward(cls.spec, cls, tape_c, d_logits)
        ref_feat, ref_dx = ref_backward(feat.spec, feat, tape_f, d_feats)
        assert type(g_feat) is np.ndarray and type(g_cls) is np.ndarray
        assert_bits(loss, ref_loss)
        assert_bits(g_feat, ref_feat)
        assert_bits(g_cls, ref_cls)
        assert_bits(dz0 @ feat.weights[0].T, ref_dx)


class TestAdam:
    def test_fifty_steps_over_wide_magnitudes(self):
        rng = np.random.default_rng(4)
        n = 400
        magnitudes = 10.0 ** rng.uniform(-8, 2, n)
        flat, ref_flat = np.zeros(n), np.zeros(n)
        state, ref_state = AdamState.zeros(n), AdamState.zeros(n)
        for step in range(50):
            grad = magnitudes * rng.standard_normal(n)
            lr = 1e-3 if step % 7 else 0.0
            adam_step(flat, grad, state, lr)
            ref_adam_step(ref_flat, grad, ref_state, lr)
            assert state.t == ref_state.t
        assert_bits(flat, ref_flat)
        assert_bits(state.m, ref_state.m)
        assert_bits(state.v, ref_state.v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient_raises_untouched(self, bad):
        flat = np.ones(5)
        state = AdamState.zeros(5)
        grad = np.array([0.1, bad, 0.2, bad, 0.3])
        with pytest.raises(TrainingDiverged, match="2 non-finite gradient entries at step 1"):
            adam_step(flat, grad, state, 1e-3)
        assert state.t == 0
        assert_bits(flat, np.ones(5))
        assert not state.m.any() and not state.v.any()

    def test_overflowing_sum_of_finite_gradient_still_steps(self):
        flat = np.zeros(3)
        state = AdamState.zeros(3)
        with np.errstate(over="ignore"):
            adam_step(flat, np.array([1e308, 1e308, -1.0]), state, 1e-3)
        assert state.t == 1 and np.isfinite(flat).all()


class TestElbo:
    def test_against_earlier_composition(self):
        # ref_elbo_loss returns (loss, kl, packed [mu | rho] gradient,
        # classifier gradient); elbo_loss returns the same four values as the
        # step tuple (loss, gradient in the layout of q.flat, classifier
        # gradient, kl)
        rng = np.random.default_rng(5)
        spec = NetworkSpec((10, 32, 16))
        cls = init_weights(NetworkSpec((16, 16, 2)), rng)
        n = spec.param_count
        q = GaussianVariational(spec, rng.standard_normal(n) * 0.3, rng.uniform(-8.0, 2.0, n))
        x, y = rng.standard_normal((64, 10)), rng.integers(0, 2, 64)
        for prior in (PriorSpec(), PriorSpec(0.3, 2.5)):
            eps = rng.standard_normal(n)
            out = elbo_loss(q, cls, (x, y), 0.02, eps, prior)
            loss, kl, grad_theta, grad_cls = ref_elbo_loss(q, cls, (x, y), 0.02, eps, prior)
            assert isinstance(out, tuple) and len(out) == 4
            assert [type(v) for v in out] == [float, np.ndarray, np.ndarray, float]
            assert out[1].shape == q.flat.shape and not np.shares_memory(out[1], q.flat)
            assert_bits(out[0], loss)
            assert_bits(out[1], grad_theta)
            assert_bits(out[2], grad_cls)
            assert_bits(out[3], kl)

    def test_frozen_classifier_keeps_the_posterior_gradient(self):
        rng = np.random.default_rng(7)
        spec = NetworkSpec((10, 32, 16))
        cls = init_weights(NetworkSpec((16, 16, 2)), rng)
        n = spec.param_count
        q = GaussianVariational(spec, rng.standard_normal(n) * 0.3, rng.uniform(-8.0, 2.0, n))
        batch, eps = (rng.standard_normal((64, 10)), rng.integers(0, 2, 64)), rng.standard_normal(n)
        full = elbo_loss(q, cls, batch, 0.02, eps, PriorSpec())
        frozen = elbo_loss(q, cls, batch, 0.02, eps, PriorSpec(), classifier_grad=False)
        assert frozen[2] is None
        for i in (0, 1, 3):
            assert_bits(frozen[i], full[i])

    @pytest.mark.parametrize("classifier_grad", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_stacked_elbo_loss_matches_separate_calls(self, k, classifier_grad):
        # k posteriors sharing one batch and one eps, as the grad-check sweep
        # evaluates them: every row against its own call, under two priors
        rng = np.random.default_rng(k)
        spec = NetworkSpec((10, 32, 16))
        cls = init_weights(NetworkSpec((16, 16, 2)), rng)
        n = spec.param_count
        thetas = np.concatenate([rng.standard_normal((k, n)) * 0.3, rng.uniform(-8.0, 2.0, (k, n))], axis=1)
        x, y = rng.standard_normal((64, 10)), rng.integers(0, 2, 64)
        for prior in (PriorSpec(), PriorSpec(0.3, 2.5)):
            eps = rng.standard_normal(n)
            stacked = GaussianVariational.wrap(spec, thetas)
            losses, grads, grads_cls, kls = elbo_loss(stacked, cls, (x, y), 0.02, eps, prior, classifier_grad)
            assert losses.shape == kls.shape == (k,) and grads.shape == (k, 2 * n)
            assert (grads_cls is None) == (not classifier_grad)
            for j in range(k):
                q = GaussianVariational.wrap(spec, thetas[j])
                want = elbo_loss(q, cls, (x, y), 0.02, eps, prior, classifier_grad)
                for got, w in [(losses[j], want[0]), (grads[j], want[1]), (kls[j], want[3])]:
                    assert_bits(got, w)
                if classifier_grad:
                    assert grads_cls.shape == (k, cls.spec.param_count)
                    assert_bits(grads_cls[j], want[2])

    @pytest.mark.parametrize("dims", [(2, 2), (10, 32, 16)])
    def test_stacked_posterior_matches_separate_calls(self, dims):
        rng = np.random.default_rng(len(dims))
        spec = NetworkSpec(dims)
        n = spec.param_count
        thetas = np.concatenate([rng.standard_normal((5, n)), rng.uniform(-8.0, 2.0, (5, n))], axis=1)
        eps = rng.standard_normal(n)
        stacked = GaussianVariational.wrap(spec, thetas)
        prior = PriorSpec(0.3, 2.5)
        kls, draws = kl_to_prior(stacked, prior), sample_weights(stacked, eps).flat
        assert kls.shape == (5,) and draws.shape == (5, n)
        for j in range(5):
            q = GaussianVariational.wrap(spec, thetas[j])
            assert_bits(kls[j], kl_to_prior(q, prior))
            assert_bits(draws[j], sample_weights(q, eps).flat)


class TestMeanAndCov:
    def test_against_map_mean_and_cov(self):
        rng = np.random.default_rng(6)
        spec = NetworkSpec((3, 4, 2))
        for rows in (2, 3, 4, 5, 8):
            stack = rng.standard_normal((rows, spec.param_count))
            stack[:, :5] = stack[0, :5]  # coordinates every model agrees on
            stack[1, 5] = -0.0
            models = [WeightSet.wrap(spec, r.copy()) for r in stack]
            mean, cov = mean_and_cov(models)
            assert mean.spec is spec
            assert_bits(mean.flat, ref_stable_mean(stack))
            assert_bits(mean.flat, map_mean(models).flat)
            assert_bits(cov, ref_cov(stack))
            assert_bits(cov, coefficient_of_variation(models))


class TestMomentMatch:
    @pytest.mark.parametrize("rows", [2, 3, 4, 5, 8])
    def test_against_separate_mu_and_rho_stacks(self, rows):
        rng = np.random.default_rng(rows)
        spec = NetworkSpec((3, 4, 2))
        n = spec.param_count
        for _ in range(20):
            stack = np.concatenate([rng.standard_normal((rows, n)) * 3.0,
                                    rng.uniform(-12.0, 8.0, (rows, n))], axis=1)
            stack[:, :4] = stack[0, :4]  # mu tied, rho not
            stack[:, n:n + 4] = stack[0, n:n + 4]  # mu and rho tied
            stack[:, n + 4:n + 8] = stack[0, n + 4:n + 8]  # rho tied, mu not
            stack[:, [8, n + 8]] = stack[0, [8, n + 8]]  # mu and rho tied
            stack[1, 9] = -0.0  # a signed zero among the means
            stack[0, 9] = 0.0
            stack[1:, n + 10] = np.nextafter(stack[0, n + 10], np.inf)  # rho one ulp apart
            posteriors = [GaussianVariational.wrap(spec, r.copy()) for r in stack]
            got, want = moment_match(posteriors), ref_moment_match(posteriors)
            assert got.q0.spec is spec
            assert_bits(got.q0.flat, want.q0.flat)
            assert_bits(got.within_var, want.within_var)
            assert_bits(got.between_var, want.between_var)
            # the inputs are only read
            assert_bits(np.stack([q.flat for q in posteriors]), stack)


# The four training procedures as they were before erm/erm_bayesian and
# ptg/ptg_lite were each merged into one loop: bodies verbatim, with the
# private helpers they called copied alongside under ref_ names.


def ref_auto_kl_weight(config, stream_):
    if config.kl_weight is not None:
        return config.kl_weight
    return 1.0 / max(1, stream_.n // stream_.batch_size)  # batches per epoch


def ref_merged_batch(drawn, n_total, config):
    x = np.concatenate([b[0] for b in drawn], axis=0)
    y = np.concatenate([b[1] for b in drawn], axis=0)
    if config.kl_weight is not None:
        return (x, y), config.kl_weight
    return (x, y), 1.0 / max(1, n_total // x.shape[0])


def ref_merged(domains):
    ordered = sorted(domains, key=lambda d: d.domain_id)
    return (
        np.concatenate([d.x for d in ordered], axis=0),
        np.concatenate([d.y for d in ordered], axis=0),
    )


def ref_erm_train(domains, feat_spec, cls_spec, config, init=None):
    domains = _check_domains(domains, minimum=1)
    if init is None:
        feat, cls = init_pair(feat_spec, cls_spec, config.seed)
    elif init[0].spec != feat_spec or init[1].spec != cls_spec:
        raise ValueError("init weights were built for a different spec")
    else:
        feat, cls = init[0].copy(), init[1].copy()
    x, y = ref_merged(domains)
    batches = MinibatchStream(x, y, config.batch_size, stream(config.seed, "batches", "merged"))
    st_f = AdamState.zeros(feat_spec.param_count)
    st_c = AdamState.zeros(cls_spec.param_count)
    history = []
    for step in range(config.erm_steps):
        ce, grad_feat, grad_cls, _ = loss_and_gradients(feat, cls, *batches.next_batch())
        adam_step(feat.flat, grad_feat, st_f, config.base_lr)
        adam_step(cls.flat, grad_cls, st_c, config.base_lr)
        history.append({"iteration": step, "merged_loss": ce})
    return feat, cls, history


def ref_erm_bayesian_train(domains, init_feat, init_cls, config):
    domains = _check_domains(domains, minimum=1)
    q = init_from_deterministic(init_feat, config.sigma0)
    cls = init_cls.copy()
    x, y = ref_merged(domains)
    batches = MinibatchStream(x, y, config.batch_size, stream(config.seed, "batches", "merged"))
    eps_rng = stream(config.seed, "eps", "merged")
    klw = ref_auto_kl_weight(config, batches)
    n_params = q.mu.shape[0]
    st_q = AdamState.zeros(2 * n_params)
    st_c = AdamState.zeros(cls.spec.param_count)
    history = []
    for step in range(config.bayes_steps):
        batch = batches.next_batch()
        eps = eps_rng.standard_normal(n_params)
        loss, grad, grad_cls, kl = elbo_loss(q, cls, batch, klw, eps, config.prior)
        adam_step(q.flat, grad, st_q, config.base_lr)
        adam_step(cls.flat, grad_cls, st_c, config.base_lr)
        history.append({"iteration": step, "merged_loss": loss, "kl": kl})
    return q, cls, history


def ref_ptg_train(domains, init_q, init_cls, config, inspect=None):
    domains = _check_domains(domains, minimum=2)
    ids = [d.domain_id for d in domains]
    per_q = {i: init_q.copy() for i in ids}
    cls = init_cls.copy()
    n_params = init_q.mu.shape[0]
    lr = config.alpha * config.base_lr

    batch_streams, eps_rngs, klw = {}, {}, {}
    for d in domains:
        batch_streams[d.domain_id] = MinibatchStream(
            d.x, d.y, config.batch_size, stream(config.seed, "batches", d.domain_id)
        )
        eps_rngs[d.domain_id] = stream(config.seed, "eps", d.domain_id)
        klw[d.domain_id] = ref_auto_kl_weight(config, batch_streams[d.domain_id])
    merged_eps = stream(config.seed, "eps", "merged")
    n_total = sum(d.n_samples for d in domains)

    states = {i: AdamState.zeros(2 * n_params) for i in ids}
    st_0 = AdamState.zeros(2 * n_params)
    st_c = AdamState.zeros(cls.spec.param_count)
    history = []
    for it in range(config.outer_iterations):
        row = {"iteration": it}
        drawn = []
        for i in ids:
            batch = batch_streams[i].next_batch()
            drawn.append(batch)
            eps = eps_rngs[i].standard_normal(n_params)
            loss, grad, _, _ = elbo_loss(per_q[i], cls, batch, klw[i], eps, config.prior)
            adam_step(per_q[i].flat, grad, states[i], lr)
            row[f"loss_{i}"] = loss

        matched = ref_moment_match([per_q[i] for i in ids])
        q0 = matched.q0
        if inspect is not None:
            inspect(it, q0.copy(), {i: per_q[i].copy() for i in ids})

        merged, klw_m = ref_merged_batch(drawn, n_total, config)
        eps = merged_eps.standard_normal(n_params)
        loss, grad, grad_cls, kl = elbo_loss(q0, cls, merged, klw_m, eps, config.prior)
        adam_step(q0.flat, grad, st_0, lr)
        adam_step(cls.flat, grad_cls, st_c, lr)
        row.update(kl=kl, merged_loss=loss, dropped_count=0)
        history.append(row)
    return q0, cls, history, FeaturizerBank(dict(per_q), matched)


def ref_ptg_lite_train(domains, init_feat, init_cls, config, inspect=None):
    domains = _check_domains(domains, minimum=2)
    ids = [d.domain_id for d in domains]
    feat_spec = init_feat.spec
    per_w = {i: init_feat.copy() for i in ids}
    cls = init_cls.copy()
    lr = config.alpha * config.base_lr

    batch_streams, klw = {}, {}
    for d in domains:
        batch_streams[d.domain_id] = MinibatchStream(
            d.x, d.y, config.batch_size, stream(config.seed, "batches", d.domain_id)
        )
        klw[d.domain_id] = ref_auto_kl_weight(config, batch_streams[d.domain_id])
    n_total = sum(d.n_samples for d in domains)

    states = {i: AdamState.zeros(feat_spec.param_count) for i in ids}
    st_0 = AdamState.zeros(feat_spec.param_count)
    st_c = AdamState.zeros(cls.spec.param_count)
    history = []
    for it in range(config.outer_iterations):
        row = {"iteration": it}
        drawn = []
        for i in ids:
            batch = batch_streams[i].next_batch()
            drawn.append(batch)
            loss, g_feat, _, _ = ref_map_loss(per_w[i], cls, batch, klw[i], config.prior, None)
            adam_step(per_w[i].flat, g_feat, states[i], lr)
            row[f"loss_{i}"] = loss

        f0, report = cov_dropout(*ref_mean_and_cov([per_w[i] for i in ids]), config.beta)
        if inspect is not None:
            inspect(it, f0.copy(), {i: per_w[i].copy() for i in ids})

        merged, klw_m = ref_merged_batch(drawn, n_total, config)
        loss, g_feat, g_cls, _ = ref_map_loss(f0, cls, merged, klw_m, config.prior, None)
        # dropped stays dropped this iteration: no gradient, and no drift from
        # stale Adam momentum either
        g_feat[~report.kept_mask] = 0.0
        adam_step(f0.flat, g_feat, st_0, lr)
        f0.flat[~report.kept_mask] = 0.0
        adam_step(cls.flat, g_cls, st_c, lr)
        row.update(kl=0.0, merged_loss=loss, dropped_count=report.dropped_count)
        history.append(row)
    return f0, cls, history, FeaturizerBank(dict(per_w), report)


LOOP_FEAT, LOOP_CLS = NetworkSpec((4, 8, 4)), NetworkSpec((4, 2))


def model_bits(model):
    return type(model), model.flat.tobytes()


def history_bits(history):
    """Keys in order, and each value's type and exact repr."""
    return [[(k, type(v), repr(v)) for k, v in row.items()] for row in history]


def report_bits(report):
    """The last aggregation's report; a moment-matched q0 is the run's featurizer."""
    if isinstance(report, CovReport):
        return report.beta, report.dropped_count, report.cov.tobytes(), report.kept_mask.tobytes()
    return report.within_var.tobytes(), report.between_var.tobytes()


def run_bits(run):
    """An aggregation run's (featurizer, classifier, history, bank), history aside."""
    feat, cls, _, bank = run
    return (
        model_bits(feat),
        [(i, model_bits(m)) for i, m in bank.per_domain.items()],
        model_bits(cls),
        report_bits(bank.last_aggregate),
    )


def aggregate_bits(algorithm, per, config):
    """What the reference loops' inspect hook records, rebuilt from the
    per-domain models a loop returns: their aggregate, and the models."""
    models = [per[i] for i in sorted(per)]
    if algorithm == "ptg":
        f0 = ref_moment_match(models).q0
    else:
        f0, _ = cov_dropout(*ref_mean_and_cov(models), config.beta)
    return model_bits(f0), [(i, model_bits(m)) for i, m in per.items()]


def recorder(seen):
    def inspect(it, f0, per):
        seen.append((it, model_bits(f0), [(i, model_bits(m)) for i, m in per.items()]))
    return inspect


@pytest.mark.parametrize("kl_weight", [0.1, None])
@pytest.mark.parametrize("n_domains", [2, 3, 4])
class TestMergedLoops:
    """erm/erm_bayesian and ptg/ptg_lite against the pre-merge loops, bitwise.

    Uneven domain sizes, one smaller than a batch, make the automatic KL
    weights differ between domains and from the merged one; the domains
    arrive out of id order.  The aggregation loops are compared after every
    iteration through runs cut short at it.
    """

    @staticmethod
    def setup_case(n_domains, kl_weight):
        specs = [
            DomainSpec(f"d{i}", n, spurious_correlation=r, noise_std=0.3)
            for i, (n, r) in enumerate([(70, 0.9), (20, 0.7), (130, 0.8), (45, 0.6)][:n_domains])
        ]
        domains = gen_spurious_blobs(specs, d_inv=2, d_spur=2, seed=n_domains)[::-1]
        cfg = TrainConfig(
            outer_iterations=6, alpha=0.5, beta=0.05, base_lr=1e-2, batch_size=32,
            kl_weight=kl_weight, sigma0=0.05, seed=4, erm_steps=9, bayes_steps=7,
        )
        return domains, cfg

    def test_pooled_loops(self, n_domains, kl_weight):
        domains, cfg = self.setup_case(n_domains, kl_weight)
        got = erm_train(domains, LOOP_FEAT, LOOP_CLS, cfg)
        want = ref_erm_train(domains, LOOP_FEAT, LOOP_CLS, cfg)
        assert [model_bits(m) for m in got[:2]] == [model_bits(m) for m in want[:2]]
        assert history_bits(got[2]) == history_bits(want[2])

        got = erm_bayesian_train(domains, want[0], want[1], cfg)
        want = ref_erm_bayesian_train(domains, want[0], want[1], cfg)
        assert [model_bits(m) for m in got[:2]] == [model_bits(m) for m in want[:2]]
        assert history_bits(got[2]) == history_bits(want[2])

    @pytest.mark.parametrize("algorithm", ["ptg", "ptg_lite"])
    def test_aggregation_loops(self, n_domains, kl_weight, algorithm):
        domains, cfg = self.setup_case(n_domains, kl_weight)
        feat, cls, _ = ref_erm_train(domains, LOOP_FEAT, LOOP_CLS, cfg)
        if algorithm == "ptg":
            new, ref = ptg_train, ref_ptg_train
            feat, cls, _ = ref_erm_bayesian_train(domains, feat, cls, cfg)
        else:
            new, ref = ptg_lite_train, ref_ptg_lite_train
        seen_ref = []
        ref_run = ref(domains, feat, cls, cfg, inspect=recorder(seen_ref))
        ref_history = ref_run[2]
        assert len(seen_ref) == cfg.outer_iterations
        seen_new, history = [], []
        for k in range(1, cfg.outer_iterations + 1):
            cut = replace(cfg, outer_iterations=k)
            run = new(domains, feat, cls, cut)
            assert run_bits(run) == run_bits(ref(domains, feat, cls, cut))
            assert history_bits(run[2][:-1]) == history_bits(history)
            history = run[2]
            seen_new.append((k - 1, *aggregate_bits(algorithm, run[3].per_domain, cfg)))
        assert run_bits(run) == run_bits(ref_run)
        if algorithm == "ptg_lite":
            # kl now logs the merged MAP step's unweighted L2 term at the
            # aggregate the hook saw; the earlier loop logged 0.0
            s2 = cfg.prior.std**2
            for row, (_, (_, f0_bytes), _) in zip(history, seen_ref, strict=True):
                centered = np.frombuffer(f0_bytes) - cfg.prior.mean
                assert_bits(row["kl"], float(np.add.reduce(centered * centered)) / (2.0 * s2))
                assert type(row["kl"]) is float and row["kl"] > 0.0
            history = [{**row, "kl": 0.0} for row in history]
        assert history_bits(history) == history_bits(ref_history)
        assert seen_new == seen_ref
        if algorithm == "ptg_lite":  # the mask path is exercised
            assert any(row["dropped_count"] > 0 for row in history)


class TestStackedDomainSteps:
    """One iteration's per-domain steps, one call per block of domains whose
    batches share a shape, against a separate single-model call per domain:
    of the earlier MAP step, and of elbo_loss.  Uneven domain sizes give each
    domain its own L2 or KL weight, and the 20-row domain draws a smaller batch."""

    SIZES = [(70, 0.9), (20, 0.7), (130, 0.8), (45, 0.6)]
    BLOCKS = ([1], [0, 2, 3])  # batches of 20 rows, and of 32

    def setup_case(self):
        specs = [DomainSpec(f"d{i}", n, spurious_correlation=r, noise_std=0.3)
                 for i, (n, r) in enumerate(self.SIZES)]
        domains = gen_spurious_blobs(specs, d_inv=2, d_spur=2, seed=5)
        cfg = TrainConfig(batch_size=32, prior_mean=0.1, prior_std=1.5)
        streams = [MinibatchStream(d.x, d.y, 32, stream(0, "batches", d.domain_id)) for d in domains]
        weights = [_auto_kl_weight(cfg, s) for s in streams]
        assert weights == [0.5, 1.0, 0.25, 1.0]
        assert [b[0].shape[0] for b in (s.next_batch() for s in streams)] == [32, 20, 32, 32]
        rng = np.random.default_rng(8)
        return domains, cfg, [s.next_batch() for s in streams], weights, init_weights(LOOP_CLS, rng), rng

    def test_map_steps_match_separate_map_loss_calls(self):
        _, cfg, batches, weights, cls, rng = self.setup_case()
        cls_bits = cls.flat.tobytes()
        flats = rng.standard_normal((4, LOOP_FEAT.param_count)) * 0.5
        for block in self.BLOCKS:
            models = WeightSet.wrap(LOOP_FEAT, flats[block])
            before = models.flat.tobytes()
            batch = tuple(np.stack(part) for part in zip(*[batches[j] for j in block]))
            losses, grads, _, _ = _map_loss(
                models, cls, batch, [weights[j] for j in block], cfg.prior, None, classifier_grad=False
            )
            assert models.flat.tobytes() == before and grads.shape == (len(block), LOOP_FEAT.param_count)
            for r, j in enumerate(block):
                feat_j = WeightSet.wrap(LOOP_FEAT, flats[j].copy())
                want = ref_map_loss(feat_j, cls, batches[j], weights[j], cfg.prior, None)
                assert type(losses[r]) is float
                assert_bits(losses[r], want[0])
                assert_bits(grads[r], want[1])
                # the merged step's single-model call keeps the earlier bits too
                got = _map_loss(feat_j, cls, batches[j], weights[j], cfg.prior, None)
                assert [type(v) for v in got] == [float, np.ndarray, np.ndarray, float]
                for a, b in zip(got, want):
                    assert_bits(a, b)
        assert cls.flat.tobytes() == cls_bits

    @pytest.mark.parametrize("classifier_grad", [False, True])
    @pytest.mark.parametrize("block", [[1], [0, 2], [0, 2, 3]], ids=["k1", "k2", "k3"])
    def test_stacked_elbo_step_matches_separate_elbo_loss_calls(self, block, classifier_grad):
        domains, cfg, batches, weights, cls, rng = self.setup_case()
        n = LOOP_FEAT.param_count
        thetas = np.concatenate([rng.standard_normal((4, n)), rng.uniform(-6.0, 0.0, (4, n))], axis=1)
        models = GaussianVariational.wrap(LOOP_FEAT, thetas[block])
        rngs = [stream(0, "eps", domains[j].domain_id) for j in block]
        batch = tuple(np.stack(part) for part in zip(*[batches[j] for j in block]))
        losses, grads, grads_cls, kls = _elbo_step(
            models, cls, batch, [weights[j] for j in block], cfg.prior, rngs, classifier_grad
        )
        assert len(losses) == len(grads) == len(kls) == len(block)
        assert (grads_cls is None) == (not classifier_grad)
        for r, j in enumerate(block):
            eps = stream(0, "eps", domains[j].domain_id).standard_normal(n)
            q_j = GaussianVariational.wrap(LOOP_FEAT, thetas[j])
            want = elbo_loss(q_j, cls, batches[j], weights[j], eps, cfg.prior, classifier_grad)
            assert type(losses[r]) is float and type(kls[r]) is float
            for got, w in [(losses[r], want[0]), (grads[r], want[1]), (kls[r], want[3])]:
                assert_bits(got, w)
            if classifier_grad:
                assert_bits(grads_cls[r], want[2])
