"""Bitwise pins of the hot-path kernels against copies of their earlier code.

Each rewritten kernel must give the same bits as the plain composition it
replaced: results, checkpoints and benchmark fingerprints all rest on that.
The references below are the earlier implementations, kept verbatim.
"""
from __future__ import annotations

import numpy as np
import pytest

from ptg.aggregate import coefficient_of_variation, map_mean, mean_and_cov
from ptg.nets import (
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
from ptg.variational import GaussianVariational, PriorSpec, elbo_loss, sigmoid, softplus


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
    return h, ForwardTape(spec, inputs, preacts)


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
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * grad * grad
    step = effective_lr * (m / (1.0 - state.beta1**state.t))
    step /= np.sqrt(v / (1.0 - state.beta2**state.t)) + state.eps
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
    if batch is None:
        return kl_weight * kl, kl, kl_grad, np.zeros(classifier.spec.param_count)
    x, y = batch
    feats, tape_f = ref_forward(q.spec, feat_ws, x)
    logits, tape_c = ref_forward(classifier.spec, classifier, feats)
    ce, d_logits = ref_cross_entropy(logits, y)
    grad_cls, d_feats = ref_backward(classifier.spec, classifier, tape_c, d_logits)
    g_omega, _ = ref_backward(q.spec, feat_ws, tape_f, d_feats)
    grad_theta = np.concatenate([g_omega, g_omega * eps * ref_sigmoid(q.rho)])
    grad_theta += kl_grad
    return ce + kl_weight * kl, kl, grad_theta, grad_cls


def ref_stable_mean(stack):
    total = np.sort(stack, axis=0).sum(axis=0)
    mean = total / stack.shape[0]
    ties = np.all(stack == stack[0], axis=0)
    return np.where(ties, stack[0], mean)


def ref_cov(stack, epsilon=1e-8):
    mean = ref_stable_mean(stack)
    std = np.sqrt(ref_stable_mean((stack - mean) ** 2))
    return std / (np.abs(mean) + epsilon)


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
            out, tape = forward(spec, ws, x)
            ref_out, ref_tape = ref_forward(spec, ws, x)
            assert_bits(out, ref_out)
            for a, b in zip(tape.preacts + tape.inputs, ref_tape.preacts + ref_tape.inputs):
                assert_bits(a, b)

    def test_backward_against_copy(self):
        rng = np.random.default_rng(1)
        for dims in ((10, 32, 16), (16, 16, 2), (3, 2), (4, 5, 6, 3)):
            spec = NetworkSpec(dims)
            ws = init_weights(spec, rng)
            x = rng.standard_normal((64, dims[0]))
            _, tape = forward(spec, ws, x)
            d_out = rng.standard_normal((64, dims[-1]))
            grad, d_x = backward(spec, ws, tape, d_out.copy())
            ref_grad, ref_dx = ref_backward(spec, ws, tape, d_out)
            assert_bits(grad.flat, ref_grad)
            assert_bits(d_x, ref_dx)

    def test_leaves_upstream_gradient_alone(self):
        spec = NetworkSpec((3, 4, 2))
        rng = np.random.default_rng(2)
        ws = init_weights(spec, rng)
        _, tape = forward(spec, ws, rng.standard_normal((5, 3)))
        d_out = rng.standard_normal((5, 2))
        before = d_out.copy()
        backward(spec, ws, tape, d_out)
        assert_bits(d_out, before)

    def test_loss_and_gradients_is_the_composition(self):
        rng = np.random.default_rng(3)
        feat = init_weights(NetworkSpec((4, 6, 3)), rng)
        cls = init_weights(NetworkSpec((3, 5, 3)), rng)
        x, y = rng.standard_normal((7, 4)), rng.integers(0, 3, 7)
        loss, g_feat, g_cls, d_x = loss_and_gradients(feat, cls, x, y)
        feats, tape_f = ref_forward(feat.spec, feat, x)
        logits, tape_c = ref_forward(cls.spec, cls, feats)
        ref_loss, d_logits = ref_cross_entropy(logits, y)
        ref_cls, d_feats = ref_backward(cls.spec, cls, tape_c, d_logits)
        ref_feat, ref_dx = ref_backward(feat.spec, feat, tape_f, d_feats)
        assert_bits(loss, ref_loss)
        assert_bits(g_feat.flat, ref_feat)
        assert_bits(g_cls.flat, ref_cls)
        assert_bits(d_x, ref_dx)


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
    @pytest.mark.parametrize("with_batch", [True, False])
    def test_against_earlier_composition(self, with_batch):
        rng = np.random.default_rng(5)
        spec = NetworkSpec((10, 32, 16))
        cls = init_weights(NetworkSpec((16, 16, 2)), rng)
        n = spec.param_count
        q = GaussianVariational(spec, rng.standard_normal(n) * 0.3, rng.uniform(-8.0, 2.0, n))
        x, y = rng.standard_normal((64, 10)), rng.integers(0, 2, 64)
        for prior in (PriorSpec(), PriorSpec(0.3, 2.5)):
            eps = rng.standard_normal(n)
            batch = (x, y) if with_batch else None
            res = elbo_loss(q, cls, batch, 0.02, eps, prior)
            loss, kl, grad_theta, grad_cls = ref_elbo_loss(q, cls, batch, 0.02, eps, prior)
            assert_bits(res.loss, loss)
            assert_bits(res.kl, kl)
            assert_bits(res.grad_theta, grad_theta)
            assert_bits(res.grad_classifier.flat, grad_cls)


class TestMeanAndCov:
    def test_against_map_mean_and_cov(self):
        rng = np.random.default_rng(6)
        spec = NetworkSpec((3, 4, 2))
        for rows in (2, 3, 4):
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
