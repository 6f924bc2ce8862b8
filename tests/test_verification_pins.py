"""Bitwise pins of the verification paths against copies of their earlier code.

The oracle gaps build one likelihood table and run both posterior routes on
it, and the finite differences evaluate the training losses themselves, at all
the perturbed points of a block in one stacked pass.  Each must give the same
bits as the code it replaced; the references below are the earlier
implementations, kept verbatim: the coordinate-by-coordinate central
difference and the sweeps that run the full composition at every point.
The grad-check and oracle-check reports are compared with reports built
from these references in the same process rather than with recorded
numbers, because their last digits depend on the BLAS kernel of the
machine.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from ptg import checks
from ptg.checks import FD_STEP, _draw_instance, central_difference, max_relative_error
from ptg.cli import GRAD_TOLERANCE, ORACLE_TOLERANCE, main
from ptg.nets import WeightSet, cross_entropy, forward, loss_and_gradients
from ptg.oracles import (
    DiscreteGenerativeModel,
    data_conditioned_gap,
    identity_gap,
    invariant_posterior_aggregated,
    invariant_posterior_exact,
    random_model,
    total_variation,
)
from ptg.variational import (
    GaussianVariational,
    PriorSpec,
    elbo_loss,
    init_from_deterministic,
    sample_weights,
)


# --- the oracle routes before the shared table ------------------------------

def ref_sequence_likelihood(model, observations):
    lik = np.ones(model.likelihood.shape[:3])
    n_obs = model.likelihood.shape[3]
    for o in observations:
        o = int(o)
        if not 0 <= o < n_obs:
            raise ValueError(f"observation {o} outside support [0, {n_obs})")
        lik = lik * model.likelihood[:, :, :, o]
    return lik


def ref_posterior_given(model, causal, variant, observations=()):
    if not 0 <= causal < model.p_causal.size:
        raise ValueError(f"causal index {causal} out of range")
    if not 0 <= variant < model.p_variant.size:
        raise ValueError(f"variant index {variant} out of range")
    lik = ref_sequence_likelihood(model, observations)[:, causal, variant]
    joint = model.p_omega * lik
    z = joint.sum()
    if z <= 0.0:
        raise ValueError("observation sequence has zero probability under this conditioning")
    return joint / z


def ref_invariant_posterior_exact(model, causal, observations=()):
    if not 0 <= causal < model.p_causal.size:
        raise ValueError(f"causal index {causal} out of range")
    lik = ref_sequence_likelihood(model, observations)[:, causal, :]
    marg = lik @ model.p_variant
    joint = model.p_omega * marg
    z = joint.sum()
    if z <= 0.0:
        raise ValueError("observation sequence has zero probability under this conditioning")
    return joint / z


def ref_invariant_posterior_aggregated(model, causal, observations=()):
    out = np.zeros(model.n_omega)
    for v in range(model.p_variant.size):
        out += model.p_variant[v] * ref_posterior_given(model, causal, v, observations)
    return out


def ref_identity_gap(model):
    return max(
        total_variation(
            ref_invariant_posterior_exact(model, c), ref_invariant_posterior_aggregated(model, c)
        )
        for c in range(model.p_causal.size)
    )


def ref_data_conditioned_gap(model, causal, observations):
    return total_variation(
        ref_invariant_posterior_exact(model, causal, observations),
        ref_invariant_posterior_aggregated(model, causal, observations),
    )


# --- the finite-difference sweeps before the value-only objective -----------

def ref_central_difference(f, x, h=FD_STEP):
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


def ref_kink_margin(ws, x):
    _, tape = forward(ws, x)
    margins = [np.abs(z).min() for z in tape.preacts[:-1]]
    return min(margins) if margins else np.inf


def recorder(blocks):
    """ref_central_difference, keeping each vector it returns in blocks."""
    def recording(f, x, h=FD_STEP):
        blocks.append(ref_central_difference(f, x, h))
        return blocks[-1]

    return recording


def ref_run_backward_checks(seed=0, n_instances=20, blocks=None):
    """blocks, if given, collects every difference vector in sweep order."""
    central_difference = recorder([] if blocks is None else blocks)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        feat, cls, x, y, _ = _draw_instance(rng)

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
        worst = max(
            worst,
            max_relative_error(fd_feat, g_feat),
            max_relative_error(fd_cls, g_cls),
            max_relative_error(fd_x, d_x.ravel()),
        )
    return {"instances": n_instances, "max_rel_err": worst, "fd_step": FD_STEP}


def ref_run_elbo_checks(seed=0, n_instances=20, blocks=None):
    central_difference = recorder([] if blocks is None else blocks)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        while True:
            feat, cls, x, y, _ = _draw_instance(rng)
            q = init_from_deterministic(feat, sigma0=float(rng.uniform(0.05, 0.3)))
            q = GaussianVariational(q.spec, q.mu, q.rho + 0.1 * rng.standard_normal(q.rho.shape))
            eps = rng.standard_normal(q.mu.shape)
            ws = sample_weights(q, eps)
            feats, _ = forward(ws, x)
            if min(ref_kink_margin(ws, x), ref_kink_margin(cls, feats)) > 1e-3:
                break
        klw = float(rng.uniform(0.1, 1.0))
        prior = PriorSpec(0.0, float(rng.uniform(0.5, 2.0)))

        def loss_of(mu, rho, cls_flat):
            qq = GaussianVariational.wrap(q.spec, np.concatenate([mu, rho]))
            cw = WeightSet.wrap(cls.spec, cls_flat)
            return elbo_loss(qq, cw, (x, y), klw, eps, prior)[0]

        _, grad, grad_cls, _ = elbo_loss(q, cls, (x, y), klw, eps, prior)
        n = q.spec.param_count
        c0 = cls.flatten()
        fd_mu = central_difference(lambda v: loss_of(v, q.rho, c0), q.mu)
        fd_rho = central_difference(lambda v: loss_of(q.mu, v, c0), q.rho)
        fd_cls = central_difference(lambda v: loss_of(q.mu, q.rho, v), c0)
        worst = max(
            worst,
            max_relative_error(fd_mu, grad[:n]),
            max_relative_error(fd_rho, grad[n:]),
            max_relative_error(fd_cls, grad_cls),
        )
    return {"instances": n_instances, "max_rel_err": worst, "fd_step": FD_STEP}


def ref_grad_report(seed, instances=20):
    report = {
        "backward": ref_run_backward_checks(seed, instances),
        "variational": ref_run_elbo_checks(seed + 1, instances),
        "tolerance": GRAD_TOLERANCE,
    }
    report["ok"] = bool(
        report["backward"]["max_rel_err"] < GRAD_TOLERANCE
        and report["variational"]["max_rel_err"] < GRAD_TOLERANCE
    )
    return report


def ref_oracle_report(seed, trials=1000):
    rng = np.random.default_rng(seed)
    worst_identity = 0.0
    worst_conditioned = 0.0
    for _ in range(trials):
        model = random_model(
            rng,
            n_omega=int(rng.integers(2, 7)),
            n_causal=int(rng.integers(2, 5)),
            n_variant=int(rng.integers(2, 5)),
            n_obs=int(rng.integers(2, 5)),
        )
        worst_identity = max(worst_identity, ref_identity_gap(model))
        obs = [int(rng.integers(0, model.likelihood.shape[3])) for _ in range(3)]
        worst_conditioned = max(worst_conditioned, ref_data_conditioned_gap(model, 0, obs))
    return {
        "trials": trials,
        "max_identity_gap": worst_identity,
        "identity_tolerance": ORACLE_TOLERANCE,
        "max_data_conditioned_gap": worst_conditioned,
        "ok": bool(worst_identity < ORACLE_TOLERANCE),
    }


# --- pins ---------------------------------------------------------------------

def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def draw_model(rng):
    return random_model(
        rng,
        n_omega=int(rng.integers(2, 7)),
        n_causal=int(rng.integers(1, 5)),
        n_variant=int(rng.integers(1, 5)),
        n_obs=int(rng.integers(2, 5)),
    )


def test_oracle_routes_match_reference_bitwise():
    rng = np.random.default_rng(11)
    sizes = set()
    for _ in range(60):
        m = draw_model(rng)
        sizes.add((m.p_causal.size, m.p_variant.size))
        n_o = m.likelihood.shape[3]
        assert identity_gap(m) == ref_identity_gap(m)
        for length in range(4):
            obs = [int(o) for o in rng.integers(0, n_o, size=length)]
            for c in range(m.p_causal.size):
                assert same_bits(
                    invariant_posterior_exact(m, c, obs), ref_invariant_posterior_exact(m, c, obs)
                )
                assert same_bits(
                    invariant_posterior_aggregated(m, c, obs),
                    ref_invariant_posterior_aggregated(m, c, obs),
                )
                assert data_conditioned_gap(m, c, obs) == ref_data_conditioned_gap(m, c, obs)
    # the draws include a single causal value and a single variant
    assert min(c for c, _ in sizes) == 1 and min(v for _, v in sizes) == 1


@pytest.mark.parametrize("n_omega", [7, 8, 9, 12, 17, 64])
def test_aggregated_route_matches_reference_bitwise_on_wide_supports(n_omega):
    # from 8 entries numpy sums a 1-d column pairwise, not left to right, and
    # each variant's evidence must keep that order
    rng = np.random.default_rng(n_omega)
    for _ in range(20):
        m = random_model(rng, n_omega=n_omega, n_causal=2, n_variant=int(rng.integers(1, 6)))
        obs = [int(o) for o in rng.integers(0, 3, size=3)]
        assert same_bits(
            invariant_posterior_aggregated(m, 1, obs), ref_invariant_posterior_aggregated(m, 1, obs)
        )
        assert data_conditioned_gap(m, 1, obs) == ref_data_conditioned_gap(m, 1, obs)


def test_a_nan_evidence_gives_a_nan_posterior_not_an_error():
    m = random_model(np.random.default_rng(3), n_omega=4, n_causal=1, n_variant=3)
    lik = m.likelihood.copy()
    lik[2, 0, 1, 0] = np.nan
    m = DiscreteGenerativeModel.wrap(m.p_omega, m.p_causal, m.p_variant, lik)
    got = invariant_posterior_aggregated(m, 0, [0])
    assert same_bits(got, ref_invariant_posterior_aggregated(m, 0, [0]))
    assert np.isnan(got).all() and np.isnan(data_conditioned_gap(m, 0, [0]))


def deaf_variant_model():
    """Variant 0 never emits symbol 1, variant 1 does: the exact route survives
    observing symbol 1, the per-variant route does not.  Symbol 2 is never
    emitted at all."""
    lik = np.zeros((2, 2, 2, 3))
    lik[:, :, 0, 0] = 1.0
    lik[:, :, 1, :2] = [[[0.4, 0.6], [0.7, 0.3]], [[0.5, 0.5], [0.2, 0.8]]]
    return DiscreteGenerativeModel(
        p_omega=np.array([0.3, 0.7]),
        p_causal=np.array([0.5, 0.5]),
        p_variant=np.array([0.6, 0.4]),
        likelihood=lik,
    )


@pytest.mark.parametrize(
    "causal, observations",
    [
        (2, [0]),        # causal out of range
        (-1, [0]),
        (2, [5]),        # both out of range: the causal index is reported
        (0, [0]),        # every route answers
        (0, [3]),        # observation outside the support
        (0, [0, -1]),
        (0, [1]),        # zero probability for variant 0 only
        (1, [2]),        # zero probability for every variant
        (0, [2, 7]),     # the bad symbol is found before any zero probability
    ],
)
def test_oracle_errors_match_reference(causal, observations):
    m = deaf_variant_model()
    pairs = [
        (invariant_posterior_exact, ref_invariant_posterior_exact, (causal, observations)),
        (invariant_posterior_aggregated, ref_invariant_posterior_aggregated, (causal, observations)),
        (data_conditioned_gap, ref_data_conditioned_gap, (causal, observations)),
    ]
    for new, ref, args in pairs:
        try:
            want = ("ok", ref(m, *args))
        except ValueError as exc:
            want = ("error", str(exc))
        if want[0] == "error":
            with pytest.raises(ValueError) as got:
                new(m, *args)
            assert str(got.value) == want[1], new.__name__
        else:
            assert same_bits(new(m, *args), want[1]), new.__name__


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_check_report_matches_reference(seed, capsys):
    assert main(["grad-check", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == json.dumps(ref_grad_report(seed), indent=2) + "\n"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_check_report_matches_reference(seed, capsys):
    assert main(["oracle-check", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == json.dumps(ref_oracle_report(seed), indent=2) + "\n"


# --- every block against the reference loop ---------------------------------

def test_central_difference_evaluates_one_stack_of_points():
    x, h = np.array([1.0, -2.0, 0.5]), 0.25
    calls = []

    def f(points):
        calls.append(points.copy())
        return (points**3).sum(axis=1)

    g = central_difference(f, x, h)
    (points,) = calls
    want = np.concatenate([x + h * np.eye(3), x - h * np.eye(3)])
    assert same_bits(points, want)
    assert same_bits(g, ref_central_difference(lambda v: (v**3).sum(), x, h))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_block_difference_matches_the_reference_loop_bitwise(seed, monkeypatch):
    # every difference vector of both sweeps, not only the max error over all blocks
    got, want = [], []

    def recording(f, x, h=FD_STEP):
        got.append(central_difference(f, x, h))
        return got[-1]

    monkeypatch.setattr(checks, "central_difference", recording)
    assert checks.run_backward_checks(seed, 20) == ref_run_backward_checks(seed, 20, want)
    assert checks.run_elbo_checks(seed, 20) == ref_run_elbo_checks(seed, 20, want)
    assert len(got) == len(want) == 120
    assert all(same_bits(a, b) for a, b in zip(got, want))


# --- the classifier blocks against the full composition ----------------------

def ref_elbo_instance(rng):
    """One instance of the ELBO sweep, drawn in the sweep's rng order."""
    while True:
        feat, cls, x, y, _ = _draw_instance(rng)
        q = init_from_deterministic(feat, sigma0=float(rng.uniform(0.05, 0.3)))
        q = GaussianVariational(q.spec, q.mu, q.rho + 0.1 * rng.standard_normal(q.rho.shape))
        eps = rng.standard_normal(q.mu.shape)
        ws = sample_weights(q, eps)
        feats, _ = forward(ws, x)
        if min(ref_kink_margin(ws, x), ref_kink_margin(cls, feats)) > 1e-3:
            break
    klw = float(rng.uniform(0.1, 1.0))
    prior = PriorSpec(0.0, float(rng.uniform(0.5, 2.0)))
    return q, cls, x, y, eps, klw, prior


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_classifier_block_differences_match_the_full_composition_bitwise(seed, monkeypatch):
    # every classifier-block vector, not only the max error over all blocks
    recorded = []

    def recording(f, x, h=FD_STEP):
        recorded.append(central_difference(f, x, h))
        return recorded[-1]

    monkeypatch.setattr(checks, "central_difference", recording)
    checks.run_backward_checks(seed, 20)
    checks.run_elbo_checks(seed, 20)
    assert len(recorded) == 120
    # blocks come per instance as (featurizer, classifier, input) and (mu, rho, classifier)
    backward_cls, elbo_cls = recorded[1:60:3], recorded[62::3]

    rng = np.random.default_rng(seed)
    for got in backward_cls:
        feat, cls, x, y, _ = _draw_instance(rng)
        f0 = feat.flatten()

        def composed(cls_flat):
            feats, _ = forward(WeightSet.wrap(feat.spec, f0), x)
            logits, _ = forward(WeightSet.wrap(cls.spec, cls_flat), feats)
            return cross_entropy(logits, y)[0]

        assert ref_central_difference(composed, cls.flatten()).tobytes() == got.tobytes()

    rng = np.random.default_rng(seed)
    for got in elbo_cls:
        q, cls, x, y, eps, klw, prior = ref_elbo_instance(rng)
        want = ref_central_difference(
            lambda v: elbo_loss(q, WeightSet.wrap(cls.spec, v), (x, y), klw, eps, prior)[0],
            cls.flatten(),
        )
        assert want.tobytes() == got.tobytes()
