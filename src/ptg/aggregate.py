"""Combining per-domain models into one shared model.

Bayesian route: treat the per-domain posteriors as an equal-weight Gaussian
mixture and fit a single diagonal Gaussian by moment matching.  Deterministic
route: average the weight vectors and zero out coordinates whose relative
spread across domains (coefficient of variation) exceeds a threshold.

Both routes add each coordinate's domain values in ascending order, put there
by one min/max compare-exchange network for any domain count, so permuting the
input domains gives bitwise-identical results, and coordinates where every
domain agrees exactly pass through unchanged.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .nets import NetworkSpec, WeightSet
from .variational import GaussianVariational, softplus, softplus_inv

COV_EPSILON = 1e-8

# fixed histogram bins for serialized CoV reports
_COV_BIN_EDGES = (0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, np.inf)


def _stable_mean(stack: np.ndarray) -> np.ndarray:
    """Row mean with order-independent rounding.

    An insertion network of min/max compare-exchanges puts each column in
    ascending order, and the sorted rows are added first to last, as a column
    sort followed by an axis-0 sum adds them, whatever the row count.  Columns
    where every row is identical return that value exactly (sum/N is not an
    identity in float64, e.g. three copies of 0.1).  The stack is only read.
    """
    rows = list(stack)
    for i in range(1, len(rows)):
        for j in range(i, 0, -1):
            a, b = rows[j - 1], rows[j]
            rows[j - 1], rows[j] = np.minimum(a, b), np.maximum(a, b)
    mean = sum(rows[1:], rows[0]) / len(rows)
    np.copyto(mean, stack[0], where=np.logical_and.reduce(stack == stack[0], axis=0))
    return mean


def _check_common_spec(specs: Sequence[NetworkSpec]) -> NetworkSpec:
    if len(specs) == 0:
        raise ValueError("need at least one model to aggregate")
    first = specs[0]
    if any(s != first for s in specs[1:]):
        raise ValueError("all models must share one architecture")
    return first


@dataclass(eq=False)
class AggregateResult:
    """Moment-matched posterior plus its variance split.

    The matched variance is within_var + between_var per coordinate: the mean
    of the component variances plus the spread of the component means.  The
    between term is a mean of squares, so it is never negative and the matched
    variance can only shrink to the within term when every mean agrees.
    """

    q0: GaussianVariational
    within_var: np.ndarray
    between_var: np.ndarray


def moment_match(posteriors: Sequence[GaussianVariational]) -> AggregateResult:
    """Fit one diagonal Gaussian to the equal-weight mixture of posteriors.

    One (D, 2P) stack holds every posterior's [mu | rho]; its rho half is
    overwritten with sigma^2, so one _stable_mean call gives [mu | within].
    """
    spec = _check_common_spec([q.spec for q in posteriors])
    stack = np.stack([q.flat for q in posteriors])
    n = stack.shape[1] // 2
    ties = np.logical_and.reduce(stack == stack[0], axis=0)
    rho = stack[0, n:].copy()
    stack[:, n:] = softplus(stack[:, n:]) ** 2

    mu, within = np.split(_stable_mean(stack), 2)
    between = _stable_mean((stack[:, :n] - mu) ** 2)
    sigma = np.sqrt(within + between)

    # coordinates where every component is bitwise identical stay untouched,
    # including their rho encoding, and are not inverted: their sigma^2 may
    # underflow to 0, which softplus_inv refuses
    moved = ~(ties[:n] & ties[n:])
    rho[moved] = softplus_inv(sigma[moved])
    return AggregateResult(
        q0=GaussianVariational.wrap(spec, np.concatenate([mu, rho])),
        within_var=within,
        between_var=between,
    )


def map_mean(weight_sets: Sequence[WeightSet]) -> WeightSet:
    """Coordinate-wise mean of weight sets sharing one architecture."""
    spec = _check_common_spec([ws.spec for ws in weight_sets])
    stack = np.stack([ws.flat for ws in weight_sets])
    return WeightSet.wrap(spec, _stable_mean(stack))


def mean_and_cov(
    weight_sets: Sequence[WeightSet], epsilon: float = COV_EPSILON
) -> tuple[WeightSet, np.ndarray]:
    """map_mean and coefficient_of_variation of the same weight sets, from one
    stack and one mean."""
    if len(weight_sets) < 2:
        raise ValueError("coefficient of variation needs at least two models")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    spec = _check_common_spec([ws.spec for ws in weight_sets])
    stack = np.stack([ws.flat for ws in weight_sets])
    mean = _stable_mean(stack)
    std = np.sqrt(_stable_mean((stack - mean) ** 2))
    return WeightSet.wrap(spec, mean), std / (np.abs(mean) + epsilon)


def coefficient_of_variation(
    weight_sets: Sequence[WeightSet], epsilon: float = COV_EPSILON
) -> np.ndarray:
    """Population std across domains over |mean| + epsilon, per coordinate.

    Dimensionless: scaling every weight set by the same positive constant
    leaves it unchanged (up to rounding) when epsilon is zero.
    """
    return mean_and_cov(weight_sets, epsilon)[1]


@dataclass(eq=False)
class CovReport:
    """What cov_dropout decided: the threshold, the mask, and the spread."""

    beta: float
    cov: np.ndarray
    kept_mask: np.ndarray
    dropped_count: int

    def to_json(self) -> dict:
        counts, _ = np.histogram(self.cov, bins=np.asarray(_COV_BIN_EDGES))
        hist = [
            [float(lo), float(hi) if np.isfinite(hi) else None, int(c)]
            for lo, hi, c in zip(_COV_BIN_EDGES, _COV_BIN_EDGES[1:], counts)
        ]
        return {
            "beta": float(self.beta),
            "dropped_count": int(self.dropped_count),
            "cov_histogram": hist,
        }


def cov_dropout(
    mean_weights: WeightSet, cov: np.ndarray, beta: float
) -> tuple[WeightSet, CovReport]:
    """Zero out coordinates whose coefficient of variation exceeds beta.

    A parameter the domains disagree on (cov > beta) is treated as
    domain-specific and removed from the shared model; the survivors keep
    their averaged values bitwise.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    cov = np.asarray(cov, dtype=np.float64)
    flat = mean_weights.flat
    if cov.shape != flat.shape:
        raise ValueError(f"cov shape {cov.shape} does not match parameter count {flat.shape}")
    if not np.isfinite(cov).all() or np.any(cov < 0):
        raise ValueError("cov entries must be finite and >= 0")
    kept = cov <= beta
    out = np.where(kept, flat, 0.0)
    report = CovReport(
        beta=float(beta),
        cov=cov,
        kept_mask=kept,
        dropped_count=int(np.count_nonzero(~kept)),
    )
    return WeightSet.wrap(mean_weights.spec, out), report


def save_cov_report(path, report: CovReport) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, allow_nan=False)
