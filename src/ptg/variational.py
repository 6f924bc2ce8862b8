"""Diagonal Gaussian posteriors over network weights.

A posterior is (mu, rho) per scalar parameter with sigma = softplus(rho), so
sigma stays positive under unconstrained gradient steps.  Sampling uses the
reparameterization omega = mu + sigma * eps, which keeps the loss a
deterministic function of (mu, rho) once eps is drawn.  ``save_model`` and
``load_model`` checkpoint either kind of model, a posterior or a ``WeightSet``,
as its spec's widths plus its flat vector.  ``sample_weights``, ``kl_to_prior``
and ``elbo_loss`` also take k posteriors stacked as a (k, 2 * param_count)
flat and give one result per model, each with the bits of its own call.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .nets import NetworkSpec, WeightSet, finite_params, loss_and_gradients


def softplus(rho: np.ndarray) -> np.ndarray:
    """log(1 + e^rho), computed as logaddexp(0, rho) so it never overflows."""
    return np.logaddexp(0.0, rho)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), through e^-|x| so neither sign overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def softplus_inv(y) -> np.ndarray:
    """Inverse of softplus: log(e^y - 1), computed as y + log(-expm1(-y)).

    Valid for every finite y > 0: -expm1(-y) lies in (0, 1], so the formula
    neither overflows nor takes log(0).  The round trip
    softplus(softplus_inv(y)) holds to the float64 rounding floor (a few
    ulps).  The shipped sigma0 0.01 and prior std 1.0 invert to the bits
    pinned in the tests, so prior-vs-prior KL stays exactly zero.
    """
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0) or not np.isfinite(y).all():
        raise ValueError("softplus_inv needs finite values > 0")
    return y + np.log(-np.expm1(-y))


@dataclass(frozen=True)
class PriorSpec:
    """Isotropic Gaussian prior N(mean, std^2) shared by every parameter."""

    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.mean):
            raise ValueError(f"prior mean must be finite, got {self.mean}")
        if not (np.isfinite(self.std) and self.std > 0):
            raise ValueError(f"prior std must be positive, got {self.std}")


@dataclass
class GaussianVariational:
    """Factorized Gaussian over the flat weight vector of a NetworkSpec.

    One packed float64 vector ``flat = [mu | rho]`` holds the parameters, as
    ``WeightSet.flat`` does for a point estimate, and mu, rho are views of its
    halves: step flat in place, never rebind them.
    ``wrap`` also adopts a (k, 2 * param_count) stack of k posteriors, one per
    row, which ``sample_weights``, ``kl_to_prior`` and ``elbo_loss`` evaluate
    model by model.
    """

    spec: NetworkSpec
    mu: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        n = self.spec.param_count
        if np.shape(self.mu) != (n,) or np.shape(self.rho) != (n,):
            raise ValueError(f"mu/rho must have shape ({n},)")
        self._bind(finite_params(np.concatenate([self.mu, self.rho])))

    def _bind(self, flat: np.ndarray) -> None:
        n = self.spec.param_count
        self.flat, self.mu, self.rho = flat, flat[..., :n], flat[..., n:]

    @classmethod
    def wrap(cls, spec: NetworkSpec, flat: np.ndarray) -> "GaussianVariational":
        """Adopt a packed [mu | rho] vector, or a stack of them, without
        copying or checking it."""
        q = cls.__new__(cls)
        q.spec = spec
        q._bind(flat)
        return q

    @property
    def sigma(self) -> np.ndarray:
        return softplus(self.rho)

    def copy(self) -> "GaussianVariational":
        return GaussianVariational.wrap(self.spec, self.flat.copy())


def init_from_deterministic(ws: WeightSet, sigma0: float = 0.01) -> GaussianVariational:
    """Posterior centered on an existing weight set with constant std sigma0."""
    if not 0 < sigma0 < np.inf:  # rho is adopted unchecked: ws is already checked
        raise ValueError(f"sigma0 must be positive and finite, got {sigma0}")
    rho = np.full(ws.flat.shape, softplus_inv(float(sigma0)))
    return GaussianVariational.wrap(ws.spec, np.concatenate([ws.flat, rho]))


def _checked_eps(q: GaussianVariational, eps: np.ndarray) -> np.ndarray:
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (q.spec.param_count,):
        raise ValueError(f"eps must have shape ({q.spec.param_count},), got {eps.shape}")
    return eps


def sample_weights(q: GaussianVariational, eps: np.ndarray) -> WeightSet:
    """Reparameterized draw omega = mu + sigma * eps as a WeightSet; a
    stacked q gives stacked weights, every model drawn with the same eps."""
    return WeightSet.wrap(q.spec, q.mu + q.sigma * _checked_eps(q, eps))


def _kl(mu: np.ndarray, sigma: np.ndarray, prior: PriorSpec) -> float | np.ndarray:
    """Summed over the last axis: a float for one model, an array of one KL
    per row for a stack."""
    s = prior.std
    terms = np.log(s / sigma) + (sigma**2 + (mu - prior.mean) ** 2) / (2.0 * s**2) - 0.5
    kl = np.add.reduce(terms, axis=-1)
    return kl if kl.ndim else float(kl)


def _kl_grad(mu: np.ndarray, sigma: np.ndarray, sig_rho: np.ndarray, prior: PriorSpec) -> np.ndarray:
    """Packed [d KL / d mu | d KL / d rho], one row per model of a stack;
    sig_rho is sigmoid(rho)."""
    n = mu.shape[-1]
    s2 = prior.std**2
    out = np.empty(mu.shape[:-1] + (2 * n,))
    np.divide(mu - prior.mean, s2, out=out[..., :n])
    d_sigma = sigma / s2 - 1.0 / sigma
    np.multiply(d_sigma, sig_rho, out=out[..., n:])
    return out


def kl_to_prior(q: GaussianVariational, prior: PriorSpec = PriorSpec()) -> float | np.ndarray:
    """Closed-form KL(q || prior) for the factorized Gaussian pair.

    Per coordinate: log(s/sigma) + (sigma^2 + (mu - m)^2) / (2 s^2) - 1/2.
    Exactly zero when q equals the prior.  A stacked q gives one KL per model.
    """
    return _kl(q.mu, q.sigma, prior)


def elbo_loss(
    q: GaussianVariational,
    classifier: WeightSet,
    batch: tuple[np.ndarray, np.ndarray],
    kl_weight: float,
    eps: np.ndarray,
    prior: PriorSpec = PriorSpec(),
    classifier_grad: bool = True,
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray | None, float | np.ndarray]:
    """Single-sample variational loss kl_weight * KL + cross-entropy.

    Returns the step tuple of every training loss: (loss, gradient in the
    layout of q.flat, i.e. [d/d mu | d/d rho], gradient in the layout of
    classifier.flat, the unweighted KL).  The featurizer is sampled with the
    given eps and feeds the deterministic classifier; gradients flow to
    (mu, rho) through the reparameterization (d omega / d mu = 1,
    d omega / d rho = eps * sigmoid(rho)) and to the classifier weights
    directly.  softplus(rho) and sigmoid(rho) are computed once and shared by
    the sample, the KL and both gradients.  classifier_grad=False is for a
    frozen classifier: its gradient is not formed and comes back as None.
    A stacked q of k posteriors, with one batch and one eps that all k share,
    gives k losses, a (k, 2 * param_count) gradient, k classifier gradients
    and k KLs, each model to the bits of its own call.
    """
    if not kl_weight >= 0:  # a NaN weight fails this too
        raise ValueError(f"kl_weight must be >= 0, got {kl_weight}")
    eps = _checked_eps(q, eps)
    sigma = softplus(q.rho)
    sig_rho = sigmoid(q.rho)
    kl = _kl(q.mu, sigma, prior)
    grad = _kl_grad(q.mu, sigma, sig_rho, prior)
    grad *= kl_weight
    x, y = batch
    feat_ws = WeightSet.wrap(q.spec, q.mu + sigma * eps)
    ce, g_omega, grad_cls, _ = loss_and_gradients(feat_ws, classifier, x, y, classifier_grad)
    n = g_omega.shape[-1]
    grad[..., :n] += g_omega
    g_rho = g_omega * eps
    g_rho *= sig_rho
    grad[..., n:] += g_rho
    return ce + kl_weight * kl, grad, grad_cls, kl


def save_model(path, model: WeightSet | GaussianVariational) -> None:
    """JSON checkpoint {"dims": layer widths, "flat": model.flat} for either
    kind of model; floats round-trip bitwise through repr."""
    with open(path, "w") as fh:
        json.dump({"dims": list(model.spec.layer_dims), "flat": model.flat.tolist()}, fh)


def load_model(path) -> WeightSet | GaussianVariational:
    """The model a save_model checkpoint holds, its kind read from the vector's
    length: param_count values are a WeightSet, twice that a posterior.  Every
    error the file's contents cause (JSON syntax, no "dims" or "flat" key, a
    width that is not a positive integer, a vector of neither length or with a
    non-finite value) raises ValueError as "<path>: <message>"."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
            if not isinstance(payload, dict) or not {"dims", "flat"} <= payload.keys():
                raise ValueError('a checkpoint is a JSON object with keys "dims" and "flat"')
            spec = NetworkSpec(tuple(payload["dims"]))
            flat = np.asarray(payload["flat"], dtype=np.float64)
            n = spec.param_count
            if flat.shape == (n,):
                return WeightSet.from_flat(spec, flat)
            if flat.shape == (2 * n,):
                return GaussianVariational(spec, flat[:n], flat[n:])
            raise ValueError(f"a {spec.layer_dims} checkpoint holds {n} values (weights) or"
                             f" {2 * n} (posterior), got shape {flat.shape}")
        except (TypeError, ValueError) as exc:  # json.JSONDecodeError included
            raise ValueError(f"{path}: {exc}") from exc
