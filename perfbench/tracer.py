"""Call counts and self time for named ptg functions, installed from outside.

A target is "<module>.<function>" or "<module>.<Class>.<method>", relative to
the ptg package.  Installing a target replaces the function object at every
ptg module that holds it (a name imported with ``from .nets import forward``
is a separate binding in each importing module), and methods on their class.
Nothing under src/ changes; uninstall() puts every original back.

Self time of a call is its duration minus the durations of the wrapped calls
made inside it.  Everything runs on one thread, so a plain stack suffices.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable

TARGETS = (
    "nets.forward",
    "nets.backward",
    "nets.cross_entropy",
    "nets.adam_step",
    "nets.WeightSet.from_flat",
    "nets.WeightSet.flatten",
    "nets.WeightSet.__post_init__",
    "variational.elbo_loss",
    "variational.sample_weights",
    "variational.softplus_inv",
    "variational.kl_to_prior",
    "variational.GaussianVariational.__post_init__",
    "aggregate.moment_match",
    "aggregate.coefficient_of_variation",
    "aggregate.map_mean",
    "aggregate.cov_dropout",
    "training.train_algorithm",
    "training.erm_train",
    "training.erm_bayesian_train",
    "training.ptg_train",
    "training.ptg_lite_train",
    "training.accuracy",
    "harness.run_experiment",
    "harness.select_model",
    "harness.write_results_csv",
    "datasets.gen_spurious_blobs",
    "datasets.gen_rotated_moons",
    "datasets.split_train_val",
    "datasets.feature_stats",
    "datasets.apply_stats",
    "oracles.random_model",
    "oracles.identity_gap",
    "oracles.data_conditioned_gap",
    "oracles.mixture_moments_mc",
    "checks.run_backward_checks",
    "checks.run_elbo_checks",
    "checks.central_difference",
)

# after(args, kwargs, result, calls_at_entry, calls_now) runs once a hooked
# call returns; the two count maps let it count what the call itself did
Hook = Callable[[tuple, dict, object, dict, dict], None]


class Tracer:
    def __init__(self, hooks: dict[str, Hook] | None = None):
        self.hooks = hooks or {}
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        calls, self_s, stack = self.calls, self.self_s, self._stack
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            calls[name] += 1
            at_entry = dict(calls) if hook is not None else None
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(args, kwargs, result, at_entry, calls)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "ptg" or k.startswith("ptg.")]
        for target in TARGETS:
            parts = target.split(".")
            owner = sys.modules["ptg." + parts[0]]
            if len(parts) == 3:
                self._patch_method(target, getattr(owner, parts[1]), parts[2])
                continue
            original = getattr(owner, parts[1])
            wrapper = self._wrap(target, original)
            sites = [(m, attr) for m in modules for attr, v in vars(m).items() if v is original]
            for m, attr in sites:
                setattr(m, attr, wrapper)
                self._undo.append(lambda m=m, attr=attr, v=original: setattr(m, attr, v))

    def _patch_method(self, target: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            patched = staticmethod(self._wrap(target, raw.__func__))
        else:
            patched = self._wrap(target, raw)
        setattr(cls, attr, patched)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
