"""Dense feed-forward networks with explicit reverse-mode gradients.

Everything here is float64 and deterministic: the same spec, weights and
inputs always produce bitwise-identical outputs.  Networks are ReLU in the
hidden layers and identity at the output; downstream code composes a sampled
featurizer with a deterministic classifier head.

The gradient step is the hot path, so four rules hold here.  Values are
checked where they enter the package: constructors and ``from_flat`` (which
checkpoints load through), the labels of ``cross_entropy`` and the gradient of
``adam_step``.
Values the package computed itself are adopted without a copy or a check
(``WeightSet.wrap``).  Each fact is passed once: weights carry their spec, and
the tape ``forward`` records holds the weights it ran, so ``backward`` needs
only the tape and the upstream gradient.  There is one implementation of the
forward and backward pass: ``loss_and_gradients`` composes the public
``forward``, ``cross_entropy`` and ``backward`` for every training loss.
The same code runs k models at once: a flat of shape (k, param_count)
wraps to W of shape (k, d_in, d_out) and b of shape (k, 1, d_out), an input
may carry the same leading model axis, (k, n, d_in), and ``cross_entropy``
takes stacked logits (k, n, c) with labels (k, n), or labels (n,) that every
model shares.  ``backward`` replays such a stacked tape into a (k,
param_count) gradient, and can skip the parameter gradient where only the
gradient at the input is read (a frozen classifier).  Model j of a stacked
pass gives the bits of its own unstacked pass; finite differences evaluate
all their perturbed points this way.
Gradients are flat float64 vectors in the ``WeightSet`` flat order (a
posterior's packed ``[mu | rho]`` is named ``flat`` too).  The gradient
w.r.t. a net's input is the caller's product ``dz0 @ weights[0].T``, formed
only where something reads it.  Adam runs at the fixed settings
``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS`` (0.9, 0.999, 1e-8); an
``AdamState`` holds only the moments and the step count.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of a dense net: layer widths input -> ... -> output, each
    a positive integer (a bool or a float such as 2.5 is refused)."""

    layer_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ValueError("need at least an input and an output dimension")
        for d in self.layer_dims:
            if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
                raise TypeError(f"layer dim {d!r} must be an integer, got {self.layer_dims}")
        if any(d < 1 for d in self.layer_dims):
            raise ValueError(f"layer dims must be positive, got {self.layer_dims}")
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))

    @cached_property  # asked for on every forward, backward and Adam step
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    @cached_property
    def param_count(self) -> int:
        dims = self.layer_dims
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(self.n_layers))

    @cached_property  # read by every WeightSet.wrap and backward
    def layer_slices(self) -> tuple[tuple[slice, slice, tuple[int, int]], ...]:
        """Per layer: the flat slices of W and b, and the shape of W."""
        out, k = [], 0
        for d_in, d_out in zip(self.layer_dims, self.layer_dims[1:]):
            w_end = k + d_in * d_out
            out.append((slice(k, w_end), slice(w_end, w_end + d_out), (d_in, d_out)))
            k = w_end + d_out
        return tuple(out)


def finite_params(values) -> np.ndarray:
    """values as a float64 array, after checking that every entry is finite."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("non-finite parameter values")
    return values


@dataclass
class WeightSet:
    """Concrete weights for a NetworkSpec: per-layer (W, b) pairs.

    W has shape (d_in, d_out), b has shape (d_out,).  The flat order is
    W0.ravel(), b0, W1.ravel(), b1, ... which every consumer (sampling,
    aggregation, checkpoints) relies on.  The set owns one float64 vector
    ``flat`` in that order and every W and b is a view of it, so updating
    ``flat`` in place updates the layers.  Values entering from outside are
    checked; ``wrap`` adopts a vector this package computed itself, or a
    (k, param_count) stack of them, one model per row.
    """

    spec: NetworkSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        dims = self.spec.layer_dims
        want = [((dims[i], dims[i + 1]), (dims[i + 1],)) for i in range(self.spec.n_layers)]
        got = [(np.shape(w), np.shape(b)) for w, b in zip(self.weights, self.biases)]
        if len(self.weights) != len(self.biases) or got != want:
            raise ValueError(f"layer (W, b) shapes {got} do not match the spec's {want}")
        parts = [a for w, b in zip(self.weights, self.biases) for a in (np.ravel(w), b)]
        self._bind(finite_params(np.concatenate(parts)))

    def _bind(self, flat: np.ndarray) -> None:
        layers = self.spec.layer_slices
        self.flat = flat
        if flat.ndim == 1:
            self.weights = [flat[w].reshape(shape) for w, _, shape in layers]
            self.biases = [flat[b] for _, b, _ in layers]
        else:  # a leading model axis: W is (k, d_in, d_out), b is (k, 1, d_out)
            k = len(flat)
            self.weights = [flat[:, w].reshape(k, *shape) for w, _, shape in layers]
            self.biases = [flat[:, b].reshape(k, 1, -1) for _, b, _ in layers]

    @classmethod
    def wrap(cls, spec: NetworkSpec, flat: np.ndarray) -> "WeightSet":
        """Layer views over a float64 ``flat`` of shape (param_count,), or
        (k, param_count) for k models, without copying or checking it."""
        ws = cls.__new__(cls)
        ws.spec = spec
        ws._bind(flat)
        return ws

    def flatten(self) -> np.ndarray:
        """A copy of the flat parameter vector."""
        return self.flat.copy()

    @staticmethod
    def from_flat(spec: NetworkSpec, flat: np.ndarray) -> "WeightSet":
        """Checked construction from a flat vector; the values are copied."""
        flat = np.array(flat, dtype=np.float64)
        if flat.shape != (spec.param_count,):
            raise ValueError(f"expected {spec.param_count} values, got shape {flat.shape}")
        return WeightSet.wrap(spec, finite_params(flat))

    def copy(self) -> "WeightSet":
        return WeightSet.wrap(self.spec, self.flat.copy())


def init_weights(spec: NetworkSpec, rng: np.random.Generator) -> WeightSet:
    """Glorot-uniform weights, zero biases, drawn in a fixed layer order."""
    flat = np.zeros(spec.param_count)
    for w, _, (fan_in, fan_out) in spec.layer_slices:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        flat[w] = rng.uniform(-limit, limit, size=(fan_in, fan_out)).ravel()
    return WeightSet.wrap(spec, flat)


@dataclass
class ForwardTape:
    """Intermediates recorded by forward() so backward() can replay them."""

    ws: WeightSet                 # the weights the forward pass ran
    inputs: list[np.ndarray]      # input to each layer, length n_layers
    preacts: list[np.ndarray]     # pre-activation of each layer


def forward(ws: WeightSet, x: np.ndarray) -> tuple[np.ndarray, ForwardTape]:
    """Run the net on a batch; returns (outputs, tape).

    x has shape (n, d_in); outputs have shape (n, d_out).  Hidden layers are
    ReLU, the last layer is linear.  Stacked weights (a wrapped (k,
    param_count) flat) or a stacked input (k, n, d_in) give outputs (k, n,
    d_out); the two broadcast against each other as in ``matmul``.
    """
    spec = ws.spec
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != spec.layer_dims[0]:
        got = x.shape[-2:] if x.ndim == 3 else x.shape  # one model's share of a stacked input
        raise ValueError(f"expected input shape (n, {spec.layer_dims[0]}), got {got}")
    inputs, preacts = [], []
    h = x
    for i in range(spec.n_layers):
        inputs.append(h)
        z = h @ ws.weights[i]
        z += ws.biases[i]
        preacts.append(z)
        h = np.maximum(z, 0.0) if i < spec.n_layers - 1 else z
    return h, ForwardTape(ws, inputs, preacts)


def backward(
    tape: ForwardTape, d_out: np.ndarray, params: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Backpropagate d_out through the recorded tape and the weights it holds.

    Returns (flat parameter gradient, gradient at the first layer's
    pre-activation).  The parameter gradient is written layer by layer into
    one fresh vector; params=False skips it and returns None in its place.
    The gradient w.r.t. the batch input is ``dz0 @ tape.ws.weights[0].T``
    (swap the last two axes of stacked weights); for a one-layer net dz0 is
    d_out itself.  The ReLU subgradient at exactly zero is taken as zero.
    A stacked tape, with d_out of shape (k, n, d_out), gives one gradient
    row per model, (k, param_count).
    """
    ws = tape.ws
    spec = ws.spec
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != tape.preacts[-1].shape:
        raise ValueError(
            f"upstream gradient shape {d_out.shape} does not match outputs "
            f"{tape.preacts[-1].shape}; stale tape?"
        )
    models = d_out.shape[:-2]  # () for one model, (k,) for a stack
    grad = np.empty(models + (spec.param_count,)) if params else None
    dz = d_out
    for i in range(spec.n_layers - 1, -1, -1):
        if params:
            w, b, shape = spec.layer_slices[i]
            # per model: inputs.T @ dz into the W block, dz summed over the batch axis into b
            np.matmul(tape.inputs[i].swapaxes(-1, -2), dz, out=grad[..., w].reshape(models + shape))
            np.add.reduce(dz, axis=-2, out=grad[..., b])
        if i:
            dz = dz @ ws.weights[i].swapaxes(-1, -2)
            dz *= tape.preacts[i - 1] > 0.0  # dz is the fresh product, never d_out
    return grad, dz


def loss_and_gradients(
    feat: WeightSet, classifier: WeightSet, x: np.ndarray, y: np.ndarray,
    classifier_grad: bool = True,
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Cross-entropy of classifier(feat(x)) against labels y, with gradients.

    Returns (loss, flat featurizer gradient, flat classifier gradient,
    gradient at the featurizer's first pre-activation).  The gradient w.r.t.
    the batch input x is the last times ``feat.weights[0].T``.
    classifier_grad=False is for a frozen classifier: the pass runs through
    it for the featurizer's gradient only, and its own gradient is None.
    k stacked featurizers, with x of shape (k, n, d_in) and y of shape (k, n)
    or with one batch that all k share, give k losses and a (k, param_count)
    featurizer gradient.
    """
    feats, tape_f = forward(feat, x)
    logits, tape_c = forward(classifier, feats)
    loss, d_logits = cross_entropy(logits, y)
    grad_cls, dz0_cls = backward(tape_c, d_logits, classifier_grad)
    grad_feat, dz0_feat = backward(tape_f, dz0_cls @ classifier.weights[0].T)
    return loss, grad_feat, grad_cls, dz0_feat


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row max for stability."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis of (n, c) or stacked (k, n, c) logits.

    Row reductions column by column.  A row max is exact in any order, and
    numpy sums fewer than 8 values per row left to right, as this does.
    """
    if logits.shape[-1] < 8:
        shifted = logits - reduce(np.maximum, logits.T).T[..., None]
        total = reduce(np.add, np.exp(shifted).T).T
    else:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        total = np.exp(shifted).sum(axis=-1)
    return shifted - np.log(total)[..., None]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch plus the gradient w.r.t. logits.

    Uses the log-sum-exp form so large logits do not overflow.  labels are
    integer class indices in [0, n_classes), one per logit row.  Stacked
    logits (k, n, c) with labels (k, n), or with labels (n,) shared by every
    model, give k losses as an array, each with the bits of its own call.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim not in (2, 3):
        raise ValueError(f"expected logits of shape (n, c) or (k, n, c), got {logits.shape}")
    n, c = logits.shape[-2:]
    if logits.ndim == 3 and labels.shape == (n,):  # labels every model of the stack shares
        labels = np.broadcast_to(labels, logits.shape[:-1])
    if labels.shape != logits.shape[:-1]:
        want = " x ".join(map(str, logits.shape[:-1]))
        raise ValueError(f"expected {want} labels, got shape {labels.shape}")
    picks = labels.ravel()
    if np.minimum.reduce(picks) < 0 or np.maximum.reduce(picks) >= c:
        raise ValueError(f"labels must lie in [0, {c})")
    log_probs = _log_softmax(logits)
    # the flat index of each row's label logit serves one model and a stack alike
    at = np.arange(0, picks.size * c, c)
    at += picks
    picked = log_probs.reshape(-1)[at].reshape(labels.shape)
    loss = -(np.add.reduce(picked, axis=-1) / n)  # .mean(), without its wrapper
    d_logits = np.exp(log_probs)
    d_logits.reshape(-1)[at] -= 1.0
    d_logits /= n
    return (float(loss) if loss.ndim == 0 else loss), d_logits


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators for a flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros(n: int) -> "AdamState":
        return AdamState(m=np.zeros(n), v=np.zeros(n))


def adam_step(
    flat: np.ndarray, grad: np.ndarray, state: AdamState, effective_lr: float
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of a flat float64 parameter vector.

    Updates ``flat`` and the moments of ``state`` in place and returns the
    same two objects.  A non-finite gradient raises TrainingDiverged before
    anything is touched.  An effective_lr of exactly zero leaves the
    parameters bitwise unchanged.
    """
    grad = np.asarray(grad, dtype=np.float64)
    # a finite sum rules out non-finite entries; an overflowing one does not
    # prove them, so only then scan every entry
    if not np.isfinite(np.add.reduce(grad)) and not np.isfinite(grad).all():
        bad = int(np.count_nonzero(~np.isfinite(grad)))
        raise TrainingDiverged(f"{bad} non-finite gradient entries at step {state.t + 1}")
    state.t += 1
    m, v = state.m, state.v
    # in place through one scratch buffer, with the rounding of
    # beta * m + (1 - beta) * grad [* grad] and lr * m_hat / (sqrt(v_hat) + eps)
    buf = np.multiply(grad, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += buf
    np.multiply(grad, 1.0 - ADAM_BETA2, out=buf)
    buf *= grad
    v *= ADAM_BETA2
    v += buf
    step = m / (1.0 - ADAM_BETA1**state.t)
    step *= effective_lr
    np.divide(v, 1.0 - ADAM_BETA2**state.t, out=buf)
    np.sqrt(buf, out=buf)
    buf += ADAM_EPS
    step /= buf
    flat -= step
    return flat, state

