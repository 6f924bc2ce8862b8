"""Exact verification models: finite discrete worlds and sampling references.

The engine's claim that averaging domain-conditioned posteriors under the
domain prior recovers the domain-marginalized posterior is checked here by
literal enumeration on finite probability tables, where every quantity is
computable to float64 roundoff.  A Monte Carlo reference for Gaussian mixture
moments lives here too.

The observation likelihood of a sequence is one (n_omega, n_causal,
n_variant) table.  identity_gap and data_conditioned_gap build it once and
run both routes, the exact posterior and the prior-weighted average of the
per-variant posteriors, on one causal slice of it; the public posterior
functions build their own table and run the same route code.  The identity
is checked without observations: there the table is all ones and both routes
equal the prior p(omega) whatever the causal index, so it is one route pair
per model.  The data-conditioned gap is the number that varies.
mixture_moments_mc draws its samples, component indices and normals alike,
block by block, so its memory is two blocks whatever the sample count.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

_NORM_TOL = 1e-12
MC_BLOCK_ROWS = 1 << 13  # samples per block in mixture_moments_mc


def _check_pmf(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d table")
    if np.any(p < 0) or not np.isfinite(p).all():
        raise ValueError(f"{name} has negative or non-finite entries")
    if abs(p.sum() - 1.0) > _NORM_TOL:
        raise ValueError(f"{name} sums to {p.sum()!r}, not 1 within {_NORM_TOL}")
    return p


@dataclass(eq=False)
class DiscreteGenerativeModel:
    """Finite tables: parameter prior, two independent domain factors, likelihood.

    likelihood[w, c, v, o] = p(observation o | parameter w, causal factor c,
    variant factor v).  The joint over (w, c, v) is the product of the three
    priors, so the two domain factors are independent by construction.
    """

    p_omega: np.ndarray
    p_causal: np.ndarray
    p_variant: np.ndarray
    likelihood: np.ndarray

    def __post_init__(self):
        self.p_omega = _check_pmf(self.p_omega, "p_omega")
        self.p_causal = _check_pmf(self.p_causal, "p_causal")
        self.p_variant = _check_pmf(self.p_variant, "p_variant")
        lik = np.asarray(self.likelihood, dtype=np.float64)
        expected = (self.p_omega.size, self.p_causal.size, self.p_variant.size)
        if lik.ndim != 4 or lik.shape[:3] != expected:
            raise ValueError(
                f"likelihood shape {lik.shape} does not match supports {expected} + (n_obs,)"
            )
        if np.any(lik < 0) or not np.isfinite(lik).all():
            raise ValueError("likelihood has negative or non-finite entries")
        if np.max(np.abs(lik.sum(axis=3) - 1.0)) > _NORM_TOL:
            raise ValueError(f"likelihood rows must sum to 1 within {_NORM_TOL}")
        self.likelihood = lik

    @classmethod
    def wrap(cls, p_omega, p_causal, p_variant, likelihood) -> "DiscreteGenerativeModel":
        """Adopt float64 tables this package normalized itself, without copying
        or checking them; tables from outside go through the constructor."""
        model = cls.__new__(cls)
        model.p_omega, model.p_causal, model.p_variant = p_omega, p_causal, p_variant
        model.likelihood = likelihood
        return model

    @property
    def n_omega(self) -> int:
        return self.p_omega.size


def _sequence_likelihood(model: DiscreteGenerativeModel, observations: Sequence[int]) -> np.ndarray:
    """Product over the observation sequence: shape (n_omega, n_causal, n_variant)."""
    lik = np.ones(model.likelihood.shape[:3])
    n_obs = model.likelihood.shape[3]
    for o in observations:
        o = int(o)
        if not 0 <= o < n_obs:
            raise ValueError(f"observation {o} outside support [0, {n_obs})")
        lik = lik * model.likelihood[:, :, :, o]
    return lik


def _check_causal(model: DiscreteGenerativeModel, causal: int) -> None:
    if not 0 <= causal < model.p_causal.size:
        raise ValueError(f"causal index {causal} out of range")


def _bayes(model: DiscreteGenerativeModel, lik: np.ndarray) -> np.ndarray:
    """p(omega) * lik, normalized; lik is one column of a likelihood table."""
    joint = model.p_omega * lik
    z = np.add.reduce(joint)  # .sum(), without its wrapper
    if z <= 0.0:
        raise ValueError("observation sequence has zero probability under this conditioning")
    return joint / z


def _exact_route(model: DiscreteGenerativeModel, table: np.ndarray, causal: int) -> np.ndarray:
    """Variant marginalized inside the likelihood, then Bayes; table is a
    _sequence_likelihood result."""
    return _bayes(model, table[:, causal, :] @ model.p_variant)


def _aggregated_route(model: DiscreteGenerativeModel, table: np.ndarray, causal: int) -> np.ndarray:
    """Per-variant posteriors from one table, averaged under the variant prior.

    Row v of joint is p(omega) * lik for variant v, laid out contiguously, so
    its sum, the variant's evidence, is numpy's own sum of that one column
    (as _bayes takes it); the weighted rows then add left to right.  A NaN
    evidence is not zero evidence: it stays NaN, and so does the gap.
    """
    joint = np.ascontiguousarray(table[:, causal, :].T)
    joint *= model.p_omega
    z = np.add.reduce(joint, axis=1)
    if (z <= 0.0).any():
        raise ValueError("observation sequence has zero probability under this conditioning")
    joint /= z[:, None]
    joint *= model.p_variant[:, None]
    return reduce(np.add, joint)


def invariant_posterior_exact(
    model: DiscreteGenerativeModel, causal: int, observations: Sequence[int] = ()
) -> np.ndarray:
    """p(omega | causal, observations) with the variant factor marginalized
    inside the likelihood before Bayes is applied."""
    _check_causal(model, causal)
    return _exact_route(model, _sequence_likelihood(model, observations), causal)


def invariant_posterior_aggregated(
    model: DiscreteGenerativeModel, causal: int, observations: Sequence[int] = ()
) -> np.ndarray:
    """Average of the per-variant posteriors under the variant prior."""
    _check_causal(model, causal)
    return _aggregated_route(model, _sequence_likelihood(model, observations), causal)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.add.reduce(np.abs(np.asarray(p) - np.asarray(q)), axis=None))


def _gap(model: DiscreteGenerativeModel, table: np.ndarray, causal: int) -> float:
    """TV distance between the exact and aggregated routes on one table."""
    return total_variation(
        _exact_route(model, table, causal), _aggregated_route(model, table, causal)
    )


def identity_gap(model: DiscreteGenerativeModel) -> float:
    """TV distance between the exact and aggregated posteriors with no
    observation data (the identity's own terms).

    Without observations the likelihood table is all ones, so both routes
    equal p(omega) under every causal conditioning; one route pair, at causal
    index 0, stands for all of them.  A NaN gap stays NaN, so it fails any
    tolerance.
    """
    return _gap(model, _sequence_likelihood(model, ()), 0)


def data_conditioned_gap(
    model: DiscreteGenerativeModel, causal: int, observations: Sequence[int]
) -> float:
    """TV distance between the two routes once observations enter.

    Averaging per-variant posteriors under the variant *prior* ignores how the
    data re-weights the variants, so this gap is generally nonzero; it is
    reported, not asserted to vanish.
    """
    _check_causal(model, causal)
    return _gap(model, _sequence_likelihood(model, observations), causal)


def random_model(
    rng: np.random.Generator,
    n_omega: int = 4,
    n_causal: int = 3,
    n_variant: int = 3,
    n_obs: int = 3,
) -> DiscreteGenerativeModel:
    """A fully random valid model; tables are normalized uniform draws, so
    they are adopted without the constructor's checks."""

    def pmf(*shape):
        t = rng.random(shape) + 1e-3  # keep supports full so conditioning stays valid
        return t / t.sum(axis=-1, keepdims=True)

    return DiscreteGenerativeModel.wrap(
        p_omega=pmf(n_omega),
        p_causal=pmf(n_causal),
        p_variant=pmf(n_variant),
        likelihood=pmf(n_omega, n_causal, n_variant, n_obs),
    )


def mixture_moments_mc(
    components: Sequence[tuple[np.ndarray, np.ndarray]],
    n_samples: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical mean and population variance of an equal-weight Gaussian mixture.

    components is a sequence of (mean, std) arrays of one shared shape.  A
    single sample returns that sample and zero variance.

    The draws are those of one generator seeded with seed: every sample's
    component index, then every sample's standard normals.  They are made
    MC_BLOCK_ROWS samples at a time, so a call holds two blocks of samples
    and no per-sample state whatever n_samples is.  One generator draws the
    indices; a second draws the normals, starting from the state after all
    n_samples indices, which it reaches by drawing them in blocks and
    discarding them.  integers and standard_normal keep any spare bits in
    the generator state, so draws made in blocks equal one draw of them
    all.  Each block's sum starts from the running total, which is numpy's
    own row-by-row order for an axis-0 sum; the variance pass rewinds both
    generators and redraws the same blocks.  Whenever a sample has two or
    more entries, the results equal ``draws.mean(axis=0)`` and
    ``draws.var(axis=0)`` over all draws at once, bit for bit.  For a
    one-entry sample numpy sums pairwise instead, and the two agree to
    roundoff.
    """
    if len(components) == 0:
        raise ValueError("need at least one mixture component")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    means = np.stack([np.asarray(m, dtype=np.float64) for m, _ in components])
    stds = np.stack([np.asarray(s, dtype=np.float64) for _, s in components])
    if np.any(stds <= 0):
        raise ValueError("component stds must be positive")
    k = len(components)
    starts = range(0, n_samples, MC_BLOCK_ROWS)
    idx_rng = np.random.default_rng(seed)
    eps_rng = np.random.default_rng(seed)
    for lo in starts:
        eps_rng.integers(0, k, size=min(MC_BLOCK_ROWS, n_samples - lo))
    idx_start, eps_start = idx_rng.bit_generator.state, eps_rng.bit_generator.state
    eps = np.empty((min(n_samples, MC_BLOCK_ROWS),) + means.shape[1:])
    block = np.empty_like(eps)

    def column_mean(centre=None) -> np.ndarray:
        """Mean over all draws of draw, or of (draw - centre)^2 if given."""
        idx_rng.bit_generator.state = idx_start
        eps_rng.bit_generator.state = eps_start
        total = None
        for lo in starts:
            rows = min(MC_BLOCK_ROWS, n_samples - lo)
            j = idx_rng.integers(0, k, size=rows)
            # mode="clip": the default "raise" buffers out; j is in range anyway
            b = np.take(stds, j, axis=0, out=block[:rows], mode="clip")
            b *= eps_rng.standard_normal(out=eps[:rows])
            b += np.take(means, j, axis=0, out=eps[:rows], mode="clip")
            if centre is not None:
                b -= centre
                b *= b
            if total is not None:
                b[0] += total
            total = np.add.reduce(b, axis=0)
        return total / n_samples

    mean = column_mean()
    return mean, column_mean(mean)
