"""Finite-difference verification of the analytic gradients.

Central differences at step h are a second-order oracle, so in float64 they
agree with a correct gradient to ~1e-9 relative on O(1) problems; the checks
demand 1e-4.  Instances whose ReLU pre-activations sit within a few h of the
kink are redrawn, since the loss is not differentiable there.

Both checks run one sweep: per instance, a case builder returns three
(objective, point, analytic gradient) blocks.  The gradients come from one
loss_and_gradients or elbo_loss call.  central_difference hands an objective
all 2n perturbed points of a block at once, and the objective evaluates the
training loss itself, cross_entropy or elbo_loss, at every point in one
stacked pass (a leading model axis on the weights or on the input), which
gives each point the bits of its own unstacked evaluation.  A classifier block
reruns only the classifier, on features computed once per instance.  A sweep
reports the worst error, NaN if any error is NaN, so a NaN fails the tolerance.
"""
from __future__ import annotations

import numpy as np

from .nets import (
    ForwardTape, NetworkSpec, WeightSet, cross_entropy, forward, init_weights, loss_and_gradients,
)
from .variational import GaussianVariational, PriorSpec, elbo_loss, init_from_deterministic, sample_weights

FD_STEP = 1e-5


def central_difference(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Gradient at the 1-d point x of a function of one point, from one call
    f(points): points is the (2n, n) stack of x + h e_j (rows 0..n-1) and
    x - h e_j (rows n..2n-1), and f returns one value per row."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    points = np.tile(x, (2 * n, 1))
    j = np.arange(n)
    points[j, j] += h
    points[j + n, j] -= h
    values = f(points)
    return (values[:n] - values[n:]) / (2.0 * h)


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


def _kink_margin(*tapes: ForwardTape) -> float:
    """Smallest |pre-activation| at a hidden ReLU of the recorded passes."""
    return min((np.abs(z).min() for tape in tapes for z in tape.preacts[:-1]), default=np.inf)


def _draw_instance(rng: np.random.Generator):
    """A small random net pair, batch and labels, away from ReLU kinks, and
    the featurizer's outputs on the batch."""
    feat_spec = NetworkSpec((int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 4))))
    cls_spec = NetworkSpec((feat_spec.layer_dims[-1], int(rng.integers(2, 5)), int(rng.integers(2, 4))))
    while True:
        feat = init_weights(feat_spec, rng)
        cls = init_weights(cls_spec, rng)
        n = int(rng.integers(3, 8))
        x = rng.standard_normal((n, feat_spec.layer_dims[0]))
        y = rng.integers(0, cls_spec.layer_dims[-1], size=n)
        feats, tape = forward(feat, x)
        if _kink_margin(tape, forward(cls, feats)[1]) > 1e-3:  # far beyond the FD step
            return feat, cls, x, y, feats


def _head_values(cls: WeightSet, feats: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-entropy of the classifier on features, per model of a stack."""
    return cross_entropy(forward(cls, feats)[0], y)[0]


def _backward_cases(rng: np.random.Generator) -> list:
    """One instance's featurizer, classifier and input blocks."""
    feat, cls, x, y, feats = _draw_instance(rng)
    _, g_feat, g_cls, dz0 = loss_and_gradients(feat, cls, x, y)

    def loss_of(feat_ws, xin):
        return _head_values(cls, forward(feat_ws, xin)[0], y)

    return [
        (lambda v: loss_of(WeightSet.wrap(feat.spec, v), x), feat.flat, g_feat),
        (lambda v: _head_values(WeightSet.wrap(cls.spec, v), feats, y), cls.flat, g_cls),
        (lambda v: loss_of(feat, v.reshape(len(v), *x.shape)), x.ravel(),
         (dz0 @ feat.weights[0].T).ravel()),
    ]


def run_backward_checks(seed: int = 0, n_instances: int = 20) -> dict:
    """backward() against central differences, for the weights of both nets and the input batch."""
    return _sweep(seed, n_instances, _backward_cases)


def _elbo_cases(rng: np.random.Generator) -> list:
    """One instance's mu, rho and classifier blocks, with eps held fixed."""
    while True:
        feat, cls, x, y, _ = _draw_instance(rng)
        q = init_from_deterministic(feat, sigma0=float(rng.uniform(0.05, 0.3)))
        q.rho += 0.1 * rng.standard_normal(q.rho.shape)  # q owns a fresh flat
        eps = rng.standard_normal(q.mu.shape)
        # the kink margin matters at the sampled weights, where FD runs
        feats, tape = forward(sample_weights(q, eps), x)
        if _kink_margin(tape, forward(cls, feats)[1]) > 1e-3:
            break
    klw = float(rng.uniform(0.1, 1.0))
    prior = PriorSpec(0.0, float(rng.uniform(0.5, 2.0)))
    _, grad, grad_cls, kl = elbo_loss(q, cls, (x, y), klw, eps, prior)
    g_mu, g_rho = np.split(grad, 2)

    def loss_of(mu, rho):  # one of them stacked, the other held at q
        qq = GaussianVariational.wrap(q.spec, np.concatenate(np.broadcast_arrays(mu, rho), axis=1))
        return elbo_loss(qq, cls, (x, y), klw, eps, prior, classifier_grad=False)[0]

    return [
        (lambda v: loss_of(v, q.rho), q.mu, g_mu),
        (lambda v: loss_of(q.mu, v), q.rho, g_rho),
        (lambda v: _head_values(WeightSet.wrap(cls.spec, v), feats, y) + klw * kl, cls.flat, grad_cls),
    ]


def run_elbo_checks(seed: int = 0, n_instances: int = 20) -> dict:
    """elbo_loss() gradients (mu, rho, classifier) against central differences at a fixed eps."""
    return _sweep(seed, n_instances, _elbo_cases)
