"""Domain generalization by aggregating per-domain weight posteriors.

Small float64 networks with hand-rolled gradients, a diagonal Gaussian
posterior layer, moment-matched aggregation across training domains, exact
finite-model verification, synthetic multi-domain benchmarks and the sweep
harness that compares the procedures.
"""
