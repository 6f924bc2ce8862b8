"""Finite-difference verification of the analytic gradients.

Central differences at step h are a second-order oracle, so in float64 they
agree with a correct gradient to ~1e-9 relative on O(1) problems; the checks
demand 1e-4.  Instances whose ReLU pre-activations sit within a few h of the
kink are redrawn, since the loss is not differentiable there.

Both checks run one sweep: per instance, a case builder returns three
(objective, point, analytic gradient) blocks.  The gradients come from one
loss_and_gradients or elbo_loss call; each objective evaluates the loss value
alone, and a classifier block reruns only the classifier, on features
computed once per instance.  A sweep reports the worst error, NaN if any
error is NaN, so a NaN fails the tolerance.
"""
from __future__ import annotations

import numpy as np

from .nets import NetworkSpec, WeightSet, cross_entropy, forward, init_weights, loss_and_gradients
from .variational import (
    GaussianVariational, PriorSpec, elbo_loss, init_from_deterministic, kl_to_prior, sample_weights,
)

FD_STEP = 1e-5


def central_difference(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Gradient of scalar f at x, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[j] += h
        lo[j] -= h
        g[j] = (f(hi) - f(lo)) / (2.0 * h)
    return g


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Worst-case |a - b| / max(|a|, |b|, floor); the floor keeps near-zero
    coordinates from manufacturing huge ratios."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def _sweep(seed: int, n_instances: int, draw_cases) -> dict:
    """Central differences of the (objective, point, gradient) blocks that draw_cases(rng)
    returns per instance; a NaN error makes max_rel_err NaN, where Python's max drops it."""
    rng = np.random.default_rng(seed)
    errors = [max_relative_error(central_difference(f, x0), grad)
              for _ in range(n_instances) for f, x0, grad in draw_cases(rng)]
    return {"instances": n_instances, "max_rel_err": float(np.max(errors, initial=0.0)), "fd_step": FD_STEP}


def _kink_margin(ws: WeightSet, x: np.ndarray) -> float:
    _, tape = forward(ws, x)
    margins = [np.abs(z).min() for z in tape.preacts[:-1]]
    return min(margins) if margins else np.inf


def _draw_instance(rng: np.random.Generator):
    """A small random net pair, batch and labels, away from ReLU kinks."""
    feat_spec = NetworkSpec((int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 4))))
    cls_spec = NetworkSpec((feat_spec.layer_dims[-1], int(rng.integers(2, 5)), int(rng.integers(2, 4))))
    while True:
        feat = init_weights(feat_spec, rng)
        cls = init_weights(cls_spec, rng)
        n = int(rng.integers(3, 8))
        x = rng.standard_normal((n, feat_spec.layer_dims[0]))
        y = rng.integers(0, cls_spec.layer_dims[-1], size=n)
        feats, _ = forward(feat, x)
        margin = min(_kink_margin(feat, x), _kink_margin(cls, feats))
        if margin > 1e-3:  # far beyond the FD step
            return feat, cls, x, y


def _head_value(cls: WeightSet, cls_flat: np.ndarray, feats: np.ndarray, y: np.ndarray) -> float:
    """Cross-entropy of the classifier at cls_flat, adopted without a copy, on fixed features."""
    logits, _ = forward(WeightSet.wrap(cls.spec, cls_flat), feats)
    return cross_entropy(logits, y)[0]


def _backward_cases(rng: np.random.Generator) -> list:
    """One instance's featurizer, classifier and input blocks."""
    feat, cls, x, y = _draw_instance(rng)
    _, g_feat, g_cls, dz0 = loss_and_gradients(feat, cls, x, y)
    f0, c0 = feat.flatten(), cls.flatten()
    feats, _ = forward(feat, x)

    def loss_of(feat_flat, xin):  # a fresh copy from central_difference, so adopted as is
        return _head_value(cls, c0, forward(WeightSet.wrap(feat.spec, feat_flat), xin)[0], y)

    return [
        (lambda v: loss_of(v, x), f0, g_feat),
        (lambda v: _head_value(cls, v, feats, y), c0, g_cls),
        (lambda v: loss_of(f0, v.reshape(x.shape)), x.ravel(), (dz0 @ feat.weights[0].T).ravel()),
    ]


def run_backward_checks(seed: int = 0, n_instances: int = 20) -> dict:
    """backward() against central differences, for the weights of both nets and the input batch."""
    return _sweep(seed, n_instances, _backward_cases)


def _elbo_value(q, classifier, x, y, kl_weight, eps, prior) -> float:
    """elbo_loss(q, classifier, (x, y), kl_weight, eps, prior).loss, in the
    same order and so to the same bits, without the gradients."""
    feats, _ = forward(sample_weights(q, eps), x)
    logits, _ = forward(classifier, feats)
    return cross_entropy(logits, y)[0] + kl_weight * kl_to_prior(q, prior)


def _elbo_cases(rng: np.random.Generator) -> list:
    """One instance's mu, rho and classifier blocks, with eps held fixed."""
    while True:
        feat, cls, x, y = _draw_instance(rng)
        q = init_from_deterministic(feat, sigma0=float(rng.uniform(0.05, 0.3)))
        q = GaussianVariational(q.spec, q.mu, q.rho + 0.1 * rng.standard_normal(q.rho.shape))
        eps = rng.standard_normal(q.mu.shape)
        # the kink margin matters at the sampled weights, where FD runs
        ws = sample_weights(q, eps)
        feats, _ = forward(ws, x)
        if min(_kink_margin(ws, x), _kink_margin(cls, feats)) > 1e-3:
            break
    klw = float(rng.uniform(0.1, 1.0))
    prior = PriorSpec(0.0, float(rng.uniform(0.5, 2.0)))
    res = elbo_loss(q, cls, (x, y), klw, eps, prior)

    def loss_of(mu, rho):
        qq = GaussianVariational.wrap(q.spec, np.concatenate([mu, rho]))
        return _elbo_value(qq, cls, x, y, klw, eps, prior)

    return [
        (lambda v: loss_of(v, q.rho), q.mu, res.grad_mu),
        (lambda v: loss_of(q.mu, v), q.rho, res.grad_rho),
        (lambda v: _head_value(cls, v, feats, y) + klw * res.kl, cls.flatten(), res.grad_classifier),
    ]


def run_elbo_checks(seed: int = 0, n_instances: int = 20) -> dict:
    """elbo_loss() gradients (mu, rho, classifier) against central differences at a fixed eps."""
    return _sweep(seed, n_instances, _elbo_cases)
