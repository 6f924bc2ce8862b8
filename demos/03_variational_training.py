"""
Variational training on two domains, checked against finite differences
=======================================================================

The featurizer holds a diagonal Gaussian over its weights and trains by
sampling them once per step (the classifier stays deterministic).  This
walks through one training run at desk scale: the loss trace, the KL
term, and the analytic gradients audited against central differences.
"""

import dataclasses

import numpy as np

from ptg.checks import run_backward_checks, run_elbo_checks
from ptg.datasets import DomainSpec
from ptg.harness import ExperimentConfig, generate_domains
from ptg.training import TrainConfig, accuracy, erm_train, erm_bayesian_train
from ptg.variational import kl_to_prior

cfg = ExperimentConfig(
    family="spurious_blobs",
    domains=(
        DomainSpec("a", 400, spurious_correlation=0.9),
        DomainSpec("b", 400, spurious_correlation=0.8),
    ),
    test_domain="b",
    d_inv=3,
    d_spur=3,
    feat_hidden=(12, 8),
    cls_hidden=(8,),
)
domains = list(generate_domains(cfg, seed=0).values())
feat_spec, cls_spec = cfg.network_specs()
tcfg = TrainConfig(erm_steps=300, bayes_steps=300, batch_size=32, base_lr=5e-3)

# --- deterministic warm start, then the variational phase ----------------
feat, cls, erm_hist = erm_train(domains, feat_spec, cls_spec, tcfg)
q, cls, bayes_hist = erm_bayesian_train(domains, feat, cls, tcfg)

print("cross-entropy trace (deterministic phase):",
      " ".join(f"{h['merged_loss']:.3f}" for h in erm_hist[::75]))
print("loss trace (variational phase):          ",
      " ".join(f"{h['merged_loss']:.3f}" for h in bayes_hist[::75]))
print(f"final KL to prior: {kl_to_prior(q):.2f} nats over {q.mu.size} parameters")
print(f"posterior std: median {np.median(q.sigma):.4f}, max {q.sigma.max():.4f}")

rng = np.random.default_rng(0)
x = np.concatenate([d.x for d in domains])
y = np.concatenate([d.y for d in domains])
print(f"train accuracy, 10-sample average: {accuracy(q, cls, x, y, 10, rng):.4f}")

# --- gradient audit ------------------------------------------------------
bw = run_backward_checks(seed=0, n_instances=10)
el = run_elbo_checks(seed=1, n_instances=10)
print(f"\nbackward vs central differences : max rel err {bw['max_rel_err']:.2e}")
print(f"variational loss gradients      : max rel err {el['max_rel_err']:.2e}")

# --- the variational phase nearly reduces to the deterministic one -------
# with a tiny initial spread and no KL pressure the sampled weights track
# the means, so further training moves the means like plain gradient steps
tiny = dataclasses.replace(tcfg, sigma0=1e-12, kl_weight=0.0, bayes_steps=60)
q2, _, _ = erm_bayesian_train(domains, feat, cls, tiny)
print(f"\nnear-deterministic reduction: |mu - warm start| max "
      f"{np.abs(q2.mu - feat.flatten()).max():.3f} after 60 low-noise steps")
