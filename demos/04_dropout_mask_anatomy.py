"""
What the coefficient-of-variation mask actually drops
=====================================================

The deterministic aggregation variant averages per-domain weights and
zeroes every coordinate whose relative spread across domains exceeds a
threshold beta.  On the spurious-blobs family the input features are
labeled, so the mask can be read: first-layer rows fed by the spurious
block should be dropped far more often than rows fed by the invariant
block, because the domains disagree about how much to trust them.
"""

import dataclasses

import numpy as np

from ptg.harness import default_benchmark_config, prepare_split
from ptg.nets import WeightSet
from ptg.training import train_algorithm

cfg = default_benchmark_config()
# the data `ptg train` and repetition 0 of `ptg run` use: the training
# splits with `flip` held out, standardized by their pooled statistics
trains, _, _ = prepare_split(cfg, cfg.test_domain, 0)
feat_spec, cls_spec = cfg.network_specs()
tcfg = dataclasses.replace(cfg.train, outer_iterations=400, seed=0, alpha=0.05, beta=0.1)

_, _, history, bank = train_algorithm("ptg_lite", trains, feat_spec, cls_spec, tcfg)

# --- read the final mask by input block ----------------------------------
# the bank keeps the last aggregation's mask report
report = bank.last_aggregate
cov = report.cov

d_inv = cfg.d_inv
w1_mask = WeightSet.from_flat(feat_spec, report.kept_mask.astype(float)).weights[0]
inv_dropped = 1.0 - w1_mask[:d_inv].mean()
spur_dropped = 1.0 - w1_mask[d_inv:].mean()
print(f"dropped fraction of first-layer weights")
print(f"  invariant-input rows: {inv_dropped:.1%}")
print(f"  spurious-input rows : {spur_dropped:.1%}")
print(f"dropped parameters overall: {report.dropped_count} of {cov.size}")

cov_w1 = WeightSet.from_flat(feat_spec, cov).weights[0]
print(f"median relative spread: invariant {np.median(cov_w1[:d_inv]):.3f},",
      f"spurious {np.median(cov_w1[d_inv:]):.3f}")

# --- the mask loosens monotonically in beta ------------------------------
print("\nbeta sweep on the same per-domain weights:")
for beta in (0.02, 0.05, 0.1, 0.3):
    # cov_dropout keeps a coordinate where cov <= beta
    print(f"  beta={beta:<5} dropped {np.count_nonzero(cov > beta):4d}")

print("\ndrop counts over training:",
      " ".join(str(h["dropped_count"]) for h in history[:: len(history) // 8]))
