"""Finite-difference verification of the analytic gradients.

Central differences at step h are a second-order oracle, so in float64 they
agree with a correct gradient to ~1e-9 relative on O(1) problems; the checks
demand 1e-4.  Instances whose ReLU pre-activations sit within a few h of the
kink are redrawn, since the loss is not differentiable there.

Each central difference only needs the loss value, so the variational check
evaluates the ELBO as sample -> forward -> forward -> cross-entropy plus the
weighted KL, the expression elbo_loss evaluates and in the same order, and
skips the backward passes elbo_loss would run.  The analytic gradients come
from one elbo_loss call per instance.  A sweep reports the worst error over
its instances, NaN if any error is NaN, so a NaN fails the tolerance.
"""
from __future__ import annotations

import numpy as np

from .nets import NetworkSpec, WeightSet, cross_entropy, forward, init_weights, loss_and_gradients
from .variational import (
    GaussianVariational,
    PriorSpec,
    elbo_loss,
    init_from_deterministic,
    kl_to_prior,
    sample_weights,
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


def _report(n_instances: int, errors: list[float]) -> dict:
    """A sweep's report; its max_rel_err is NaN if any error is, so a NaN
    fails the tolerance where Python's max would drop it."""
    return {"instances": n_instances, "max_rel_err": float(np.max(errors, initial=0.0)),
            "fd_step": FD_STEP}


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


def run_backward_checks(seed: int = 0, n_instances: int = 20) -> dict:
    """Compare backward() against central differences through the composed
    featurizer/classifier cross-entropy, for weights of both nets and
    for the input batch."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_instances):
        feat, cls, x, y = _draw_instance(rng)

        # the perturbed vectors are fresh copies made by central_difference
        def loss_of(feat_flat, cls_flat, xin):
            fw = WeightSet.wrap(feat.spec, feat_flat)
            cw = WeightSet.wrap(cls.spec, cls_flat)
            feats, _ = forward(fw, xin)
            logits, _ = forward(cw, feats)
            return cross_entropy(logits, y)[0]

        _, g_feat, g_cls, dz0 = loss_and_gradients(feat, cls, x, y)
        d_x = dz0 @ feat.weights[0].T

        f0, c0 = feat.flatten(), cls.flatten()
        fd_feat = central_difference(lambda v: loss_of(v, c0, x), f0)
        fd_cls = central_difference(lambda v: loss_of(f0, v, x), c0)
        fd_x = central_difference(lambda v: loss_of(f0, c0, v.reshape(x.shape)), x.ravel())
        errors += [
            max_relative_error(fd_feat, g_feat),
            max_relative_error(fd_cls, g_cls),
            max_relative_error(fd_x, d_x.ravel()),
        ]
    return _report(n_instances, errors)


def _elbo_value(q, classifier, x, y, kl_weight, eps, prior) -> float:
    """elbo_loss(q, classifier, (x, y), kl_weight, eps, prior).loss, in the
    same order and so to the same bits, without the gradients."""
    feats, _ = forward(sample_weights(q, eps), x)
    logits, _ = forward(classifier, feats)
    return cross_entropy(logits, y)[0] + kl_weight * kl_to_prior(q, prior)


def run_elbo_checks(seed: int = 0, n_instances: int = 20) -> dict:
    """Compare the variational loss gradients (mu, rho, classifier) against
    central differences with eps held fixed."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_instances):
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

        def loss_of(mu, rho, cls_flat):
            qq = GaussianVariational.wrap(q.spec, np.concatenate([mu, rho]))
            cw = WeightSet.wrap(cls.spec, cls_flat)
            return _elbo_value(qq, cw, x, y, klw, eps, prior)

        res = elbo_loss(q, cls, (x, y), klw, eps, prior)
        c0 = cls.flatten()
        fd_mu = central_difference(lambda v: loss_of(v, q.rho, c0), q.mu)
        fd_rho = central_difference(lambda v: loss_of(q.mu, v, c0), q.rho)
        fd_cls = central_difference(lambda v: loss_of(q.mu, q.rho, v), c0)
        errors += [
            max_relative_error(fd_mu, res.grad_mu),
            max_relative_error(fd_rho, res.grad_rho),
            max_relative_error(fd_cls, res.grad_classifier),
        ]
    return _report(n_instances, errors)
