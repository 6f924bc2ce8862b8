"""
The spurious-correlation benchmark, end to end
==============================================

Three training domains share an invariant feature block and a spurious
block that is highly predictive in-domain; the held-out domain reverses
the spurious correlation.  Plain empirical risk leans on the shortcut
and collapses out of domain; the aggregation procedures detect the
disagreement between per-domain solutions and discard it.

Run with --full for the shipped configuration (3 seeds, about a minute);
the default here is a reduced single-seed pass for a quick look.
"""

import dataclasses
import sys
import time

from ptg.harness import (
    default_benchmark_config,
    run_experiment,
    select_model,
    summarize,
)

cfg = default_benchmark_config()
if "--full" not in sys.argv:
    cfg = dataclasses.replace(cfg, n_seeds=1)
    print("single-seed pass (use --full for the shipped 3-seed configuration)\n")

t0 = time.time()
rows = run_experiment(cfg, progress=lambda r: print(
    f"  {r.algorithm:13s} seed={r.seed} alpha={r.alpha} beta={r.beta} "
    f"val={r.val_acc} test={r.test_acc}"))
print(f"\n{len(rows)} runs in {time.time() - t0:.0f}s")

# --- model selection on training-domain validation -----------------------
selections = select_model(rows, cfg)
print("\n" + summarize(selections))

sel = {s.algorithm: s for s in selections}
erm, eb = sel["erm"], sel["erm_bayesian"]
ptg, lite = sel["ptg"], sel["ptg_lite"]
print("picked grid points and held-out accuracy:")
for s in selections:
    knobs = " ".join(
        f"{k}={v}" for k, v in (("alpha", s.alpha), ("beta", s.beta)) if v is not None
    ) or "none"
    print(f"  {s.algorithm:13s} [{knobs:18s}] val={s.mean_val_acc:.4f} test={s.mean_test_acc:.4f}")

print(f"\nthe shortcut trap: ERM validates at {erm.mean_val_acc:.3f}",
      f"but tests at {erm.mean_test_acc:.3f} out of domain")
print(f"aggregation gain : {ptg.mean_test_acc - eb.mean_test_acc:+.4f} over the Bayesian baseline")
print(f"dropout gain     : {lite.mean_test_acc - erm.mean_test_acc:+.4f} over plain ERM")
