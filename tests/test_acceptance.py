"""End-to-end acceptance suite.

One test per shipped contract, each with its tolerances pinned as module
constants.  The benchmark-level tests run the full default experiment (twice,
for the determinism check) through the same entry points the CLI uses, so a
green run here means the library, the harness, and the shipped configuration
all hold together.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest
from scipy.integrate import quad

from ptg.aggregate import cov_dropout, moment_match
from ptg.checks import run_backward_checks, run_elbo_checks
from ptg.datasets import DomainSpec, split_train_val
from ptg.harness import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_BETA_GRID,
    ExperimentConfig,
    default_benchmark_config,
    generate_domains,
    run_experiment,
    select_model,
    write_results_csv,
)
from ptg.nets import NetworkSpec, WeightSet
from ptg.oracles import identity_gap, mixture_moments_mc, random_model
from ptg.training import TrainConfig, erm_train, ptg_lite_train, ptg_train
from ptg.variational import (
    GaussianVariational,
    PriorSpec,
    init_from_deterministic,
    kl_to_prior,
    softplus_inv,
)

# Discrete-oracle sweep: posterior identity must hold to solver precision.
N_ORACLE_MODELS = 1000
ORACLE_TV_TOL = 1e-12
ORACLE_BUDGET_S = 10.0

# Mixture aggregation vs brute-force sampling.
N_MIXTURES = 50
MC_SAMPLES = 10**6
MC_REL_TOL = 1e-2
IDENTICAL_TOL = 1e-12

# Analytic gradients and KL term.
GRAD_INSTANCES = 20
GRAD_REL_TOL = 1e-4
KL_CASES = 20
KL_QUAD_TOL = 1e-8

# Dropout-mask audit.
N_MASK_INSTANCES = 100

# Default-benchmark orderings.  The margin floors were pinned from the first
# recorded run of the shipped configuration, which achieved +5.43 accuracy
# points for the posterior-aggregation model over its Bayesian baseline,
# +8.27 points for the dropout variant over plain empirical risk, and a
# 22.3-point in-domain vs out-of-domain gap for the trapped baseline.
PTG_MIN_MARGIN = 0.05
LITE_MIN_MARGIN = 0.05
ERM_TRAP_MIN = 0.10
BENCHMARK_BUDGET_S = 900.0


@pytest.fixture(scope="module")
def benchmark_runs():
    """The default benchmark executed twice with the identical config."""
    cfg = default_benchmark_config()
    t0 = time.time()
    first = run_experiment(cfg)
    wall_first = time.time() - t0
    second = run_experiment(cfg)
    return cfg, first, wall_first, second


def test_discrete_posterior_identity_holds_across_random_models():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    gaps = []
    for _ in range(N_ORACLE_MODELS):
        model = random_model(
            rng,
            n_omega=int(rng.integers(2, 6)),
            n_causal=int(rng.integers(1, 5)),
            n_variant=int(rng.integers(2, 6)),
            n_obs=int(rng.integers(2, 5)),
        )
        gaps.append(identity_gap(model))
    worst = float(np.max(gaps))  # a NaN gap propagates and fails; max() would drop it
    elapsed = time.time() - t0
    assert worst < ORACLE_TV_TOL, f"max total-variation gap {worst:.3e}"
    assert elapsed < ORACLE_BUDGET_S, f"oracle sweep took {elapsed:.1f}s"


def test_moment_matching_agrees_with_monte_carlo():
    rng = np.random.default_rng(7)
    spec = NetworkSpec((1, 2))  # 4 parameters per component
    worst_mean, worst_var = 0.0, 0.0
    for case in range(N_MIXTURES):
        n = int(rng.integers(2, 9))
        mus = rng.uniform(0.5, 1.5, size=(n, spec.param_count))
        sigmas = rng.uniform(0.3, 1.0, size=(n, spec.param_count))
        qs = [
            GaussianVariational(spec, mus[i].copy(), softplus_inv(sigmas[i]))
            for i in range(n)
        ]
        agg = moment_match(qs)
        mc_mean, mc_var = mixture_moments_mc(
            [(mus[i], sigmas[i]) for i in range(n)], MC_SAMPLES, seed=case
        )
        worst_mean = max(worst_mean, np.max(np.abs(agg.q0.mu - mc_mean) / np.abs(mc_mean)))
        worst_var = max(worst_var, np.max(np.abs(agg.q0.sigma**2 - mc_var) / mc_var))
    assert worst_mean < MC_REL_TOL, f"mixture mean off by {worst_mean:.3e} relative"
    assert worst_var < MC_REL_TOL, f"mixture variance off by {worst_var:.3e} relative"

    # identical components must pass through unchanged
    q = GaussianVariational(spec, np.array([0.3, -1.2, 0.0, 2.5]), softplus_inv(np.array([0.2, 0.5, 1.0, 0.05])))
    for n in (2, 5, 8):
        agg = moment_match([q.copy() for _ in range(n)])
        assert np.max(np.abs(agg.q0.mu - q.mu)) <= IDENTICAL_TOL
        assert np.max(np.abs(agg.q0.sigma - q.sigma)) <= IDENTICAL_TOL


def test_analytic_gradients_match_finite_differences():
    backward = run_backward_checks(seed=0, n_instances=GRAD_INSTANCES)
    elbo = run_elbo_checks(seed=1, n_instances=GRAD_INSTANCES)
    assert backward["instances"] == GRAD_INSTANCES
    assert elbo["instances"] == GRAD_INSTANCES
    assert backward["max_rel_err"] < GRAD_REL_TOL, f"backward: {backward['max_rel_err']:.3e}"
    assert elbo["max_rel_err"] < GRAD_REL_TOL, f"variational loss: {elbo['max_rel_err']:.3e}"


def test_closed_form_kl_matches_quadrature():
    rng = np.random.default_rng(11)
    spec = NetworkSpec((1, 2))
    for _ in range(KL_CASES):
        mu = rng.uniform(-2.0, 2.0, spec.param_count)
        sigma = rng.uniform(0.1, 2.0, spec.param_count)
        prior = PriorSpec(mean=float(rng.uniform(-1.0, 1.0)), std=float(rng.uniform(0.5, 2.0)))
        q = GaussianVariational(spec, mu, softplus_inv(sigma))
        closed = kl_to_prior(q, prior)

        total = 0.0
        for m, s in zip(mu, sigma):
            def integrand(x, m=m, s=s):
                logq = -0.5 * ((x - m) / s) ** 2 - np.log(s * np.sqrt(2 * np.pi))
                logp = (
                    -0.5 * ((x - prior.mean) / prior.std) ** 2
                    - np.log(prior.std * np.sqrt(2 * np.pi))
                )
                return np.exp(logq) * (logq - logp)

            val, _ = quad(integrand, m - 14 * s, m + 14 * s, epsabs=1e-13, epsrel=1e-13, limit=200)
            total += val
        assert abs(closed - total) < KL_QUAD_TOL, f"KL {closed} vs quadrature {total}"

    # a posterior equal to its prior carries zero information, exactly
    prior = PriorSpec()
    q0 = GaussianVariational(
        spec,
        np.full(spec.param_count, prior.mean),
        softplus_inv(np.full(spec.param_count, prior.std)),
    )
    assert kl_to_prior(q0, prior) == 0.0


def test_dropout_mask_matches_recomputation_and_is_monotone():
    rng = np.random.default_rng(23)
    shapes = (NetworkSpec((2, 3)), NetworkSpec((3, 4, 2)), NetworkSpec((1, 5)))
    for _ in range(N_MASK_INSTANCES):
        spec = shapes[int(rng.integers(len(shapes)))]
        mean = WeightSet.from_flat(spec, rng.normal(size=spec.param_count))
        cov = np.abs(rng.normal(scale=rng.uniform(0.02, 1.0), size=spec.param_count))
        beta1 = float(rng.uniform(0.01, 0.8))
        beta2 = beta1 * float(rng.uniform(1.1, 3.0))

        w1, rep1 = cov_dropout(mean, cov, beta1)
        assert np.array_equal(rep1.kept_mask, cov <= beta1)
        flat1 = w1.flatten()
        assert np.all(flat1[~rep1.kept_mask] == 0.0)
        assert np.array_equal(flat1[rep1.kept_mask], mean.flatten()[rep1.kept_mask])
        assert rep1.dropped_count == int(np.count_nonzero(~rep1.kept_mask))

        # loosening the threshold can only keep more coordinates
        _, rep2 = cov_dropout(mean, cov, beta2)
        assert np.all(~rep1.kept_mask | rep2.kept_mask)
        assert rep2.dropped_count <= rep1.dropped_count


def test_default_benchmark_orders_algorithms_out_of_domain(benchmark_runs):
    cfg, rows, wall, _ = benchmark_runs
    sels = {s.algorithm: s for s in select_model(rows, cfg)}
    erm, eb = sels["erm"], sels["erm_bayesian"]
    ptg, lite = sels["ptg"], sels["ptg_lite"]

    ptg_margin = ptg.mean_test_acc - eb.mean_test_acc
    lite_margin = lite.mean_test_acc - erm.mean_test_acc
    trap = erm.mean_val_acc - erm.mean_test_acc
    assert ptg.mean_test_acc > eb.mean_test_acc, "aggregation must beat its Bayesian baseline"
    assert lite.mean_test_acc > erm.mean_test_acc, "dropout variant must beat plain ERM"
    assert ptg_margin >= PTG_MIN_MARGIN, f"aggregation margin {ptg_margin:+.4f}"
    assert lite_margin >= LITE_MIN_MARGIN, f"dropout margin {lite_margin:+.4f}"
    assert trap >= ERM_TRAP_MIN, f"ERM in-domain vs out-of-domain gap {trap:+.4f}"
    assert wall < BENCHMARK_BUDGET_S, f"benchmark took {wall:.0f}s"


def test_default_benchmark_repeats_byte_identically(benchmark_runs, tmp_path):
    _, first, _, second = benchmark_runs
    strip = lambda rows: [dataclasses.replace(r, wall_ms=0.0) for r in rows]
    a, b = tmp_path / "first.csv", tmp_path / "second.csv"
    write_results_csv(a, strip(first))
    write_results_csv(b, strip(second))
    assert a.read_bytes() == b.read_bytes()


def test_protocol_row_counts_splits_and_grids():
    assert DEFAULT_ALPHA_GRID == (0.05, 0.1, 0.5)
    assert DEFAULT_BETA_GRID == (0.05, 0.1)
    cfg = default_benchmark_config()
    assert cfg.alpha_grid == DEFAULT_ALPHA_GRID
    assert cfg.beta_grid == DEFAULT_BETA_GRID
    assert cfg.split_ratio == 0.8

    # every domain's 8:2 split is exact at the shipped sample counts
    domains = generate_domains(cfg, seed=0)
    for ds in domains.values():
        tr, va = split_train_val(ds, cfg.split_ratio, seed=0)
        assert tr.n_samples == int(ds.n_samples * 0.8)
        assert va.n_samples == ds.n_samples - tr.n_samples

    # leave-one-domain-out row count: domains x seeds x grid points, exactly
    tiny = ExperimentConfig(
        family="spurious_blobs",
        domains=(
            DomainSpec("a", 60, spurious_correlation=0.9),
            DomainSpec("b", 60, spurious_correlation=0.8),
            DomainSpec("c", 60, spurious_correlation=-0.8),
        ),
        test_domain=None,
        n_seeds=2,
        d_inv=2,
        d_spur=2,
        feat_hidden=(6, 4),
        cls_hidden=(4,),
        train=TrainConfig(outer_iterations=2, erm_steps=3, bayes_steps=3, batch_size=16),
    )
    rows = run_experiment(tiny)
    grid_points = 1 + 1 + len(tiny.alpha_grid) + len(tiny.alpha_grid) * len(tiny.beta_grid)
    assert len(rows) == len(tiny.domains) * tiny.n_seeds * grid_points


def test_zero_rate_freezes_training_and_identical_posteriors_pass_through():
    cfg = ExperimentConfig(
        family="spurious_blobs",
        domains=(
            DomainSpec("a", 40, spurious_correlation=0.9),
            DomainSpec("b", 40, spurious_correlation=0.8),
        ),
        test_domain="b",
        d_inv=2,
        d_spur=2,
        feat_hidden=(6, 4),
        cls_hidden=(4,),
    )
    domains = list(generate_domains(cfg, seed=0).values())
    feat_spec, cls_spec = cfg.network_specs()
    tcfg = TrainConfig(outer_iterations=5, erm_steps=10, batch_size=16, alpha=0.0)
    feat, cls, _ = erm_train(domains, feat_spec, cls_spec, tcfg)
    q = init_from_deterministic(feat, sigma0=0.05)

    bank, _ = ptg_train(domains, q, cls, tcfg)
    assert np.array_equal(bank.f0.mu, q.mu) and np.array_equal(bank.f0.rho, q.rho)
    assert np.array_equal(bank.classifier.flatten(), cls.flatten())
    for dq in bank.per_domain.values():
        assert np.array_equal(dq.mu, q.mu) and np.array_equal(dq.rho, q.rho)

    lite_bank, _ = ptg_lite_train(domains, feat, cls, tcfg)
    assert np.array_equal(lite_bank.f0.flatten(), feat.flatten())
    assert np.array_equal(lite_bank.classifier.flatten(), cls.flatten())

    for n in (2, 4, 7):
        agg = moment_match([q.copy() for _ in range(n)])
        assert np.array_equal(agg.q0.mu, q.mu)
        assert np.array_equal(agg.q0.rho, q.rho)
