"""Training loops: merged-data baselines and per-domain aggregation.

Four procedures, the rows of PIPELINES (the one table of algorithms), share
one shape, a featurizer feeding a deterministic classifier head:

* erm: cross-entropy on the merged training data, everything deterministic.
* erm_bayesian: Gaussian posterior over the featurizer weights trained by
  the reparameterized variational objective on merged data.
* ptg: per-domain posteriors take one variational step each (classifier
  frozen), are moment-matched into a shared posterior, and the shared
  posterior plus classifier take one step on the merged minibatch; repeat.
* ptg_lite: the deterministic analogue, per-domain point estimates with an
  L2 pull toward the prior mean, averaged and pruned by
  coefficient-of-variation dropout each iteration.

Every model keeps its parameters in one vector ``model.flat`` (``[mu | rho]``
for a posterior) that Adam steps in place; the D per-domain models of an
aggregation run are the rows of one (D, P) array, in id order.  A step is a
plain function step(model, classifier, batch, weight, prior, eps_rng) ->
(loss, gradient in the layout of model.flat, classifier gradient, kl):
_ce_step for erm, _elbo_step for erm_bayesian and ptg, _map_loss for
ptg_lite.  The aggregation procedures call the same function for their
per-domain steps, in stacked form with the classifier frozen: k rows, a
stacked batch and k weights and eps streams in, k losses, k gradients, no
classifier gradient and k kls out.  _map_loss takes all k in one stacked
pass; _elbo_step takes one ELBO step per row.  A run that overflows or
forms a NaN anywhere in its training loop raises TrainingDiverged.

The loops create every RNG stream, keyed by (seed, purpose, domain_id or
"merged", so no training domain may be called "merged"), and pass the eps
stream to each step call.  Aggregation sums in a canonical order, and merged
batches concatenate domains sorted by id, so a run is bitwise reproducible
and unchanged under reordering of the domain list.  The per-domain
refinement rate is alpha * base_lr; alpha = 0 is legal and leaves every
network bitwise at its initialization.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

import numpy as np

from .aggregate import AggregateResult, CovReport, cov_dropout, mean_and_cov, moment_match
from .datasets import DomainDataset, check_field_types
from .nets import AdamState, NetworkSpec, TrainingDiverged, WeightSet, adam_step, forward, init_weights, loss_and_gradients, softmax
from .seeding import stream
from .variational import (
    GaussianVariational,
    PriorSpec,
    elbo_loss,
    init_from_deterministic,
    sample_weights,
)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs shared by all four procedures.

    kl_weight = None means 1 / (minibatches per epoch) computed from whichever
    data a step sees, so a full epoch weighs the regularizer once.  alpha
    scales the learning rate of the per-domain and merged refinement steps
    only; the baseline phases run at base_lr.  prior is the PriorSpec every
    step reads; in JSON it is the object {"mean": ..., "std": ...}.  Every
    range is declared in its field's metadata (the prior's in PriorSpec's).
    """

    outer_iterations: int = field(default=100, metadata={"ge": 1})
    alpha: float = field(default=0.1, metadata={"ge": 0})
    beta: float = field(default=0.1, metadata={"gt": 0})
    base_lr: float = field(default=1e-3, metadata={"gt": 0})
    batch_size: int = field(default=64, metadata={"ge": 1})
    kl_weight: float | None = field(default=None, metadata={"ge": 0})
    mc_eval_samples: int = field(default=10, metadata={"ge": 1})
    sigma0: float = field(default=0.01, metadata={"gt": 0})
    seed: int = 0
    erm_steps: int = field(default=500, metadata={"ge": 0})
    bayes_steps: int = field(default=500, metadata={"ge": 0})
    prior: PriorSpec = PriorSpec()

    def __post_init__(self):
        check_field_types(self)


class MinibatchStream:
    """Round-robin minibatches over reshuffled epochs.

    Indices are permuted once per epoch by the stream's own RNG and consumed
    in contiguous blocks; a tail shorter than batch_size is dropped so batch
    shapes stay constant.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, batch_size: int, rng: np.random.Generator):
        self.x, self.y = x, y
        self.n = x.shape[0]
        self.batch_size = min(batch_size, self.n)
        self.rng = rng
        self._order = rng.permutation(self.n)
        self._pos = 0

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        if self._pos + self.batch_size > self.n:
            self._order = self.rng.permutation(self.n)
            self._pos = 0
        idx = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return self.x[idx], self.y[idx]


def _auto_kl_weight(config: TrainConfig, *streams: MinibatchStream) -> float:
    """config.kl_weight, or one over the number of minibatches per epoch of the
    data a step sees.  Several streams describe a merged step: their pooled rows
    over the rows of one batch drawn from each."""
    if config.kl_weight is not None:
        return config.kl_weight
    rows = sum(s.n for s in streams)
    return 1.0 / max(1, rows // sum(s.batch_size for s in streams))


def _check_domains(domains: Sequence[DomainDataset], minimum: int) -> list[DomainDataset]:
    if len(domains) < minimum:
        raise ValueError(f"need at least {minimum} training domains, got {len(domains)}")
    ids = [d.domain_id for d in domains]
    if len(set(ids)) != len(ids):
        raise ValueError("training domains must have unique ids")
    if "merged" in ids:
        raise ValueError("training domain id 'merged' is reserved: it keys the merged step's RNG streams")
    empty = [d.domain_id for d in domains if d.n_samples == 0]
    if empty:
        raise ValueError(f"training domain {empty[0]!r} has no rows")
    dims = {d.n_features for d in domains}
    if len(dims) != 1:
        raise ValueError(f"domains disagree on feature count: {sorted(dims)}")
    return sorted(domains, key=lambda d: d.domain_id)


@dataclass(eq=False)
class FeaturizerBank:
    """The rest of an aggregation run: per_domain maps each id to its row view
    of the (D, P) array the loop stepped, in id order; last_aggregate is the
    last aggregation's report, moment_match's for ptg, cov_dropout's for
    ptg_lite.  The merged step after it moves only the shared featurizer and
    the classifier, so it describes the per-domain models as returned.  For
    ptg, last_aggregate.q0 is the returned featurizer itself, moved by that
    step: its sigma**2 is no longer within_var + between_var."""

    per_domain: dict[str, GaussianVariational | WeightSet]
    last_aggregate: AggregateResult | CovReport


# rows per forward pass in predict: each layer's activations are held for one
# block, not the whole set, so scoring memory does not grow with the rows
# scored.  Of 256, 512 and 1024, 512 gave blobs-default the lowest peak RSS.
PREDICT_BLOCK_ROWS = 512


def predict(
    featurizer: GaussianVariational | WeightSet,
    classifier: WeightSet,
    x: np.ndarray,
    mc_samples: int = 1,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Class probabilities for a batch, as one (n, classes) array.

    Deterministic featurizers run once, and so do posterior featurizers at
    their mean when rng is None, whatever mc_samples is.  Otherwise posterior
    featurizers average the softmax over mc_samples reparameterized draws,
    with eps drawn from rng as one (mc_samples, n_params) array.  Rows are
    scored in consecutive blocks of PREDICT_BLOCK_ROWS, every draw in order
    within each block, and the last block takes up to PREDICT_BLOCK_ROWS + 1
    rows: a one-row matmul runs BLAS's matrix-vector routine, whose bits can
    differ from the same row inside a larger product.  So the result is
    bitwise the whole-set computation.
    """
    if isinstance(featurizer, WeightSet):
        draws = [featurizer]
    elif mc_samples < 1:
        raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
    elif rng is None:
        draws = [WeightSet.wrap(featurizer.spec, featurizer.mu)]
    else:
        eps = rng.standard_normal((mc_samples, featurizer.mu.shape[0]))
        draws = [sample_weights(featurizer, e) for e in eps]
    n = len(x)
    probs = np.empty((n, classifier.spec.layer_dims[-1]))
    # block starts stay below n - 1, so no block holds a single row unless n
    # is 1; an empty x is one empty block, whose shape forward still checks
    bounds = [*range(0, max(n - 1, 1), PREDICT_BLOCK_ROWS), n]
    for start, stop in zip(bounds, bounds[1:]):
        # 0.0 + p and p / 1 are bitwise p for probabilities, so one draw is exact
        total = 0.0
        for ws in draws:
            feats = forward(ws, x[start:stop])[0]  # [0]: each tape is freed once its output is read
            total = total + softmax(forward(classifier, feats)[0])
        probs[start:stop] = total / len(draws)
    return probs


def accuracy(
    featurizer,
    classifier: WeightSet,
    x: np.ndarray,
    y: np.ndarray,
    mc_samples: int = 1,
    rng: np.random.Generator | None = None,
) -> float:
    """Fraction of rows whose most probable class under predict is y.  Beyond
    the (n, classes) probabilities, it holds one block of predict's
    activations, however many rows x has."""
    probs = predict(featurizer, classifier, x, mc_samples=mc_samples, rng=rng)
    return float((probs.argmax(axis=1) == y).mean())


def init_pair(
    feat_spec: NetworkSpec, cls_spec: NetworkSpec, seed: int
) -> tuple[WeightSet, WeightSet]:
    """Seeded Glorot init for the featurizer/classifier pair (featurizer drawn
    first; the order is part of the reproducibility contract)."""
    if feat_spec.layer_dims[-1] != cls_spec.layer_dims[0]:
        raise ValueError("featurizer output dim must match classifier input dim")
    rng = stream(seed, "init")
    return init_weights(feat_spec, rng), init_weights(cls_spec, rng)


def _map_loss(feat, cls, batch, l2_weight, prior, eps_rng, classifier_grad=True):
    """ptg_lite's step: cross-entropy plus l2_weight * ||w - prior.mean||^2 /
    (2 prior.std^2) on the featurizer, with the unweighted L2 term (the MAP
    analogue of the ELBO's KL) as kl.  Deterministic: eps_rng goes unread.

    k stacked featurizers, with a stacked batch and l2_weight a sequence of k
    weights, give k losses and kls as lists and a (k, P) gradient, each model
    to the bits of its own call: with classifier_grad=False (as in
    loss_and_gradients), that is ptg_lite's per-domain step."""
    ce, grad_feat, grad_cls, _ = loss_and_gradients(feat, cls, *batch, classifier_grad)
    centered = feat.flat - prior.mean
    s2 = prior.std**2
    sq = np.add.reduce(centered * centered, axis=-1)
    w = np.asarray(l2_weight)
    loss = ce + w * sq / (2.0 * s2)
    g = np.multiply(centered, w[..., None], out=centered)
    g /= s2
    g += grad_feat
    return loss.tolist(), g, grad_cls, (sq / (2.0 * s2)).tolist()


def _ce_step(feat, cls, batch, kl_weight, prior, eps_rng):
    """erm's step: plain cross-entropy; no KL term, so kl is None and no kl
    column, and neither prior nor eps_rng is read."""
    ce, grad_feat, grad_cls, _ = loss_and_gradients(feat, cls, *batch)
    return ce, grad_feat, grad_cls, None


def _elbo_step(q, cls, batch, kl_weight, prior, eps_rng, classifier_grad=True):
    """The posterior procedures' step: one reparameterized ELBO evaluation
    with one eps drawn from eps_rng.

    k stacked posteriors, with a stacked batch and k weights and eps
    streams, take one evaluation each in row order, each to the bits of its
    own call: k losses, k gradients, k classifier gradients (None when
    frozen) and k kls."""
    if q.flat.ndim == 1:
        eps = eps_rng.standard_normal(q.mu.shape[0])
        return elbo_loss(q, cls, batch, kl_weight, eps, prior, classifier_grad)
    rows = [
        _elbo_step(GaussianVariational.wrap(q.spec, flat), cls, (x, y), w, prior, rng, classifier_grad)
        for flat, x, y, w, rng in zip(q.flat, *batch, kl_weight, eps_rng)
    ]
    losses, grads, grads_cls, kls = map(list, zip(*rows))
    return losses, grads, grads_cls if classifier_grad else None, kls


@contextmanager
def overflow_diverges():
    """numpy overflow or invalid arithmetic inside raises TrainingDiverged,
    whether it first shows in a step, in an aggregation or in scoring."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise TrainingDiverged(str(exc)) from exc


@overflow_diverges()
def _pooled_loop(domains, feat, cls, config, steps: int, step):
    """steps Adam steps at base_lr on (feat, cls), in place, over minibatches
    of the pooled domains; returns (feat, cls, history).  step is a step
    function as above; batches and eps come from the (seed, "batches" or
    "eps", "merged") streams."""
    domains = _check_domains(domains, minimum=1)  # sorted by id: input order is irrelevant
    x = np.concatenate([d.x for d in domains], axis=0)
    y = np.concatenate([d.y for d in domains], axis=0)
    batches = MinibatchStream(x, y, config.batch_size, stream(config.seed, "batches", "merged"))
    eps_rng = stream(config.seed, "eps", "merged")
    klw = _auto_kl_weight(config, batches)
    st_f = AdamState.zeros(feat.flat.size)
    st_c = AdamState.zeros(cls.spec.param_count)
    history = []
    for it in range(steps):
        loss, g_feat, g_cls, kl = step(feat, cls, batches.next_batch(), klw, config.prior, eps_rng)
        adam_step(feat.flat, g_feat, st_f, config.base_lr)
        adam_step(cls.flat, g_cls, st_c, config.base_lr)
        row = {"iteration": it, "merged_loss": loss}
        if kl is not None:
            row["kl"] = kl
        history.append(row)
    return feat, cls, history


def erm_train(
    domains: Sequence[DomainDataset],
    feat_spec: NetworkSpec,
    cls_spec: NetworkSpec,
    config: TrainConfig,
) -> tuple[WeightSet, WeightSet, list[dict]]:
    """Plain cross-entropy training on the pooled domains from
    init_pair(feat_spec, cls_spec, config.seed).

    erm_steps = 0 returns that initialization unchanged (useful both as a
    contract and to produce a shared init for the other procedures).
    """
    feat, cls = init_pair(feat_spec, cls_spec, config.seed)
    return _pooled_loop(domains, feat, cls, config, config.erm_steps, _ce_step)


def erm_bayesian_train(
    domains: Sequence[DomainDataset],
    init_feat: WeightSet,
    init_cls: WeightSet,
    config: TrainConfig,
) -> tuple[GaussianVariational, WeightSet, list[dict]]:
    """Variational training on the pooled domains from a deterministic start.

    The posterior begins at N(init_feat, sigma0^2); each step draws one eps,
    takes the reparameterized gradient of kl_weight * KL + cross-entropy, and
    updates (mu, rho) and the classifier with Adam at base_lr.
    """
    q = init_from_deterministic(init_feat, config.sigma0)
    return _pooled_loop(domains, q, init_cls.copy(), config, config.bayes_steps, _elbo_step)


def _match_posteriors(models: list[GaussianVariational], config: TrainConfig):
    """ptg's aggregate: the moment-matched posterior, nothing dropped."""
    result = moment_match(models)
    return result.q0, None, 0, result


def _mask_point_estimates(models: list[WeightSet], config: TrainConfig):
    """ptg_lite's aggregate: the coordinate mean with high-CoV coordinates
    zeroed, the dropped mask, its count and the mask report."""
    f0, report = cov_dropout(*mean_and_cov(models), config.beta)
    return f0, ~report.kept_mask, report.dropped_count, report


@overflow_diverges()
def _aggregation_loop(domains, init_feat, init_cls, config, step, aggregate):
    """The outer loop of ptg and ptg_lite (see ptg_train); returns
    (featurizer, classifier, history, FeaturizerBank).  step is as in
    _pooled_loop and also takes the per-domain steps, in its stacked form
    with classifier_grad=False; aggregate(models, config) returns (shared
    model, mask of the coordinates it dropped or None, their count, the
    aggregation's report).  Domain i has its own batch and eps streams; the
    merged step's key is "merged".  The per-domain models are the rows of
    one (D, P) array in id order, and each run of consecutive domains whose
    batches share a shape (a domain smaller than batch_size draws smaller
    ones) is one slice of it, stepped by one step call."""
    domains = _check_domains(domains, minimum=2)
    ids = [d.domain_id for d in domains]
    cls = init_cls.copy()
    lr = config.alpha * config.base_lr
    streams = [
        MinibatchStream(d.x, d.y, config.batch_size, stream(config.seed, "batches", i))
        for i, d in zip(ids, domains)
    ]
    eps = [stream(config.seed, "eps", i) for i in ids]
    eps_m = stream(config.seed, "eps", "merged")
    klw = [_auto_kl_weight(config, s) for s in streams]
    klw_m = _auto_kl_weight(config, *streams)
    states = [AdamState.zeros(init_feat.flat.size) for _ in ids]
    st_0 = AdamState.zeros(init_feat.flat.size)
    st_c = AdamState.zeros(cls.spec.param_count)

    rows = np.tile(init_feat.flat, (len(ids), 1))
    wrap, spec = type(init_feat).wrap, init_feat.spec
    per = [wrap(spec, row) for row in rows]
    blocks, start = [], 0
    for _, run in groupby(streams, key=lambda s: s.batch_size):
        block = slice(start, start + len(list(run)))
        blocks.append((block, wrap(spec, rows[block])))
        start = block.stop

    history = []
    for it in range(config.outer_iterations):
        drawn = [s.next_batch() for s in streams]
        losses = []
        for block, models in blocks:
            batch = tuple(np.stack(part) for part in zip(*drawn[block]))
            block_losses, grads, _, _ = step(
                models, cls, batch, klw[block], config.prior, eps[block], classifier_grad=False
            )
            for model, state, g in zip(per[block], states[block], grads):
                adam_step(model.flat, g, state, lr)
            losses += block_losses
        row = {"iteration": it, **{f"loss_{i}": loss for i, loss in zip(ids, losses)}}

        f0, dropped, dropped_count, result = aggregate(per, config)

        merged = tuple(np.concatenate(part, axis=0) for part in zip(*drawn))
        loss, g_feat, g_cls, kl = step(f0, cls, merged, klw_m, config.prior, eps_m)
        # dropped coordinates take no gradient; stale Adam momentum still moves
        # them, but each iteration rebuilds f0, so only the returned one is re-zeroed
        if dropped is not None:
            g_feat[dropped] = 0.0
        adam_step(f0.flat, g_feat, st_0, lr)
        adam_step(cls.flat, g_cls, st_c, lr)
        row.update(kl=kl, merged_loss=loss, dropped_count=dropped_count)
        history.append(row)
    if dropped is not None:
        f0.flat[dropped] = 0.0
    return f0, cls, history, FeaturizerBank(dict(zip(ids, per)), result)


def ptg_train(
    domains: Sequence[DomainDataset],
    init_q: GaussianVariational,
    init_cls: WeightSet,
    config: TrainConfig,
) -> tuple[GaussianVariational, WeightSet, list[dict], FeaturizerBank]:
    """Per-domain posterior refinement with moment-matched aggregation.

    Each outer iteration: (a) every domain posterior takes one variational
    step on its own minibatch at alpha * base_lr with the classifier frozen;
    (b) the shared posterior is rebuilt by moment matching the per-domain
    posteriors; (c) the shared posterior and the classifier take one
    variational step on the concatenation of this iteration's minibatches.
    """
    return _aggregation_loop(domains, init_q, init_cls, config, _elbo_step, _match_posteriors)


def ptg_lite_train(
    domains: Sequence[DomainDataset],
    init_feat: WeightSet,
    init_cls: WeightSet,
    config: TrainConfig,
) -> tuple[WeightSet, WeightSet, list[dict], FeaturizerBank]:
    """Deterministic aggregation: averaged point estimates with CoV dropout.

    Per-domain models take one MAP step each (cross-entropy plus the L2 pull
    toward prior.mean at weight kl_weight / (2 prior.std^2)); the shared
    featurizer is their coordinate mean with parameters zeroed where the
    coefficient of variation across domains exceeds beta.  A zeroed parameter
    takes no gradient in the merged MAP step on (shared featurizer,
    classifier), and the returned featurizer has it zeroed again after its
    last step, so stale Adam momentum cannot resurrect it; the mask is
    recomputed at the next aggregation.
    """
    return _aggregation_loop(domains, init_feat, init_cls, config, _map_loss, _mask_point_estimates)


# name: (stages after erm_train, grid knobs, fewest training domains).  Each
# stage maps (domains, featurizer, classifier, config) to the next featurizer,
# classifier and history, plus its FeaturizerBank if it aggregates.  Stages are
# names looked up when train_algorithm runs, so a wrapper set on the module
# attribute sees the call; a table of function objects would call the originals.
PIPELINES = {
    "erm": ((), (), 1),
    "erm_bayesian": (("erm_bayesian_train",), (), 1),
    "ptg": (("erm_bayesian_train", "ptg_train"), ("alpha",), 2),
    "ptg_lite": (("ptg_lite_train",), ("alpha", "beta"), 2),
}
ALGORITHMS = tuple(PIPELINES)
MIN_TRAINING_DOMAINS = {name: row[2] for name, row in PIPELINES.items()}


def pipeline(algorithm: str) -> tuple:
    """algorithm's PIPELINES row; ValueError for a name that has none."""
    if algorithm not in PIPELINES:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    return PIPELINES[algorithm]


def train_algorithm(
    algorithm: str,
    domains: Sequence[DomainDataset],
    feat_spec: NetworkSpec,
    cls_spec: NetworkSpec,
    config: TrainConfig,
) -> tuple[GaussianVariational | WeightSet, WeightSet, list[dict], FeaturizerBank | None]:
    """Run one named procedure end to end: erm_train, then each stage of its
    PIPELINES row on the previous stage's featurizer and classifier, so ptg
    starts from erm_bayesian's posterior and ptg_lite from erm's weights.
    Returns the last stage's (featurizer, classifier, history, bank): bank is
    an aggregation stage's FeaturizerBank, and None after a pooled stage."""
    stages, _, _ = pipeline(algorithm)
    feat, cls, history, *bank = erm_train(domains, feat_spec, cls_spec, config)
    for stage in stages:
        feat, cls, history, *bank = globals()[stage](domains, feat, cls, config)
    return feat, cls, history, bank[0] if bank else None
