"""Synthetic multi-domain binary classification benchmarks.

Two families: Gaussian blob features with an invariant block (same
class-conditional distribution in every domain) plus a spurious block whose
agreement with the label is set per domain, and two-moons under per-domain
rotation.  The spurious block is built so that merged-data training picks it
up while per-domain models disagree on it: each domain's spurious class
center shares a common direction but carries its own orthogonal offset, and
a domain with negative correlation flips the block against the label.

read_config and check_field_types read and check every config dataclass: a
field's annotation is its type, and its rules, if any, are its metadata.
"""
from __future__ import annotations

import csv
import json
import operator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .seeding import stable_hash64, stream

N_CLASSES = 2  # both families are binary; sets the classifier head's width

# Spurious-blob geometry.  The invariant block alone supports a good but
# imperfect classifier; the spurious block is cleaner in-domain (larger
# separation) so empirical risk prefers it, and worthless once flipped.
INV_SEPARATION = 0.8
SPUR_SEPARATION = 2.0
DIRECTION_MIX = 1.0  # weight of the per-domain offset vs the common direction


_field_types = cache(get_type_hints)  # once per class: load_config is on the set-up path


def read_config(config_class: type, obj):
    """config_class from the JSON object obj, each field read by its annotation:
    a config dataclass takes an object, read the same way, and a tuple a JSON
    array only.  Other values go to the constructor as given, and its checks
    apply.  Unknown keys, or missing keys without a default, are a ValueError
    naming them all, and a wrong JSON type is a TypeError; either names the
    config by its class (DomainSpec is "domain", TrainConfig is "train")."""
    what = config_class.__name__.removesuffix("Config").removesuffix("Spec").lower()
    if not isinstance(obj, dict):
        raise TypeError(f"{what} config must be a JSON object, got {type(obj).__name__}")
    known = fields(config_class)
    unknown = sorted(set(obj).difference(f.name for f in known))
    if unknown:
        raise ValueError(f"unknown {what} config keys {unknown}")
    missing = [f.name for f in known
               if f.name not in obj and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {what} config keys {missing}")
    types = _field_types(config_class)
    return config_class(**{key: _read_value(key, types[key], value) for key, value in obj.items()})


def _read_value(key: str, kind, value):
    """The value of field key, annotated kind, as read_config reads it."""
    if is_dataclass(kind):
        return read_config(kind, value)
    if get_origin(kind) is not tuple:
        return value
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a JSON array, got {value!r}")
    return tuple(_read_value(key, get_args(kind)[0], item) for item in value)


_INTEGER = (int, np.integer)
_REAL = (int, float, np.integer, np.floating)
# an entry's annotation -> (the types it may have, how a message names them)
_KIND = {int: (_INTEGER, "an integer"), float: (_REAL, "a number"), str: (str, "a string")}
# an entry's rule in metadata -> (the test an entry must pass, how a message names it)
_BOUND = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
          "le": (operator.le, "<="), "lt": (operator.lt, "<"),
          "in": (lambda v, allowed: v in allowed, "one of")}


def check_field_types(config) -> None:
    """Raise TypeError naming a field, read by its resolved annotation, that
    holds anything else: an int, float or str field (or a tuple of them) takes
    only that type, where a bool is neither an int nor a float, an int field
    does not take 3.0, and nothing is coerced; a config field, or a tuple of
    them, takes only instances of its config class.  A float | None or str | None
    field also takes None.  A float field that holds NaN or an infinity raises
    ValueError naming it, and so does a field that breaks a rule in its
    metadata: ge, gt, le and lt bound every entry (of a tuple), as
    field(metadata={"ge": 0}) gives "alpha must be >= 0, got -1", and in lists
    the entries allowed; min_len bounds the length, and unique refuses a repeat."""
    types = _field_types(type(config))
    for f in fields(config):
        kind, value = types[f.name], getattr(config, f.name)
        if type(None) in get_args(kind):
            if value is None:
                continue
            (kind,) = (k for k in get_args(kind) if k is not type(None))
        is_tuple = get_origin(kind) is tuple
        entry = get_args(kind)[0] if is_tuple else kind
        items = value if is_tuple else (value,)
        allowed, what = (entry, f"a {entry.__name__}") if is_dataclass(entry) else _KIND[entry]
        if not all(isinstance(v, allowed) and not isinstance(v, bool) for v in items):
            raise TypeError(f"{f.name} must be {what}, got {value!r}")
        if entry is float and not all(isinstance(v, _INTEGER) or np.isfinite(v) for v in items):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        for key, rule in f.metadata.items():
            if key == "min_len":
                if len(value) < rule:
                    raise ValueError(f"{f.name} must have length >= {rule}, got {value!r}")
            elif key == "unique":
                if len(set(value)) < len(value):
                    raise ValueError(f"{f.name} must not repeat a value, got {value!r}")
            else:
                passes, sign = _BOUND[key]
                for v in items:
                    if not passes(v, rule):
                        raise ValueError(f"{f.name} must be {sign} {rule}, got {v!r}")


@dataclass(frozen=True)
class DomainSpec:
    """One domain of a synthetic family."""

    domain_id: str = field(metadata={"min_len": 1})
    n_samples: int = field(metadata={"ge": 1})
    spurious_correlation: float = field(default=0.0, metadata={"ge": -1, "le": 1})
    rotation_deg: float = 0.0
    noise_std: float = field(default=0.5, metadata={"ge": 0})

    def __post_init__(self):
        check_field_types(self)


@dataclass
class DomainDataset:
    """Feature matrix, integer labels and the invariant/spurious column split."""

    domain_id: str
    x: np.ndarray
    y: np.ndarray
    invariant_cols: tuple[int, ...]
    spurious_cols: tuple[int, ...]

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise ValueError("x must be (n, d) with one label per row")
        cols = sorted(self.invariant_cols) + sorted(self.spurious_cols)
        if sorted(cols) != list(range(self.x.shape[1])):
            raise ValueError("invariant and spurious columns must partition the features")
        if self.y.size and self.y.min() < 0:
            raise ValueError("labels must be non-negative")

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]


def _fixed_unit(key: str, dim: int) -> np.ndarray:
    """A unit vector that depends only on its key, never on run seeds."""
    v = np.random.default_rng(stable_hash64(key)).standard_normal(dim)
    return v / np.linalg.norm(v)


def _spurious_center(domain_id: str, d_spur: int) -> np.ndarray:
    """Common direction plus a domain-specific orthogonal offset, unit norm."""
    common = _fixed_unit(f"spur-common:{d_spur}", d_spur)
    raw = _fixed_unit(f"spur-offset:{d_spur}:{domain_id}", d_spur)
    offset = raw - (raw @ common) * common
    norm = np.linalg.norm(offset)
    if norm < 1e-12:  # d_spur = 1: both directions are +-1, so the offset is exactly 0
        offset = np.zeros(d_spur)
    else:
        offset = offset / norm
    c = common + DIRECTION_MIX * offset
    return c / np.linalg.norm(c)


def gen_spurious_blobs(
    specs: Sequence[DomainSpec],
    d_inv: int,
    d_spur: int,
    seed: int,
) -> list[DomainDataset]:
    """Invariant Gaussian blobs plus a per-domain spurious block.

    Labels are balanced coin flips.  Invariant coordinates are drawn around
    class centers that are identical in every domain.  Spurious coordinates
    sit on the domain's class center with the sign agreeing with the label
    with probability (1 + rho_d) / 2, so rho_d = 1 is perfectly aligned and
    rho_d < 0 anti-aligned.  Each domain's RNG stream is keyed by its
    domain_id, so reordering specs reorders only the output list.
    """
    if d_inv < 1 or d_spur < 1:
        raise ValueError("d_inv and d_spur must be >= 1")
    if len({s.domain_id for s in specs}) != len(specs):
        raise ValueError("domain ids must be unique")
    inv_dir = _fixed_unit(f"inv-direction:{d_inv}", d_inv)
    out = []
    for spec in specs:
        rng = stream(seed, "blobs", spec.domain_id)
        n = spec.n_samples
        y = rng.integers(0, 2, size=n)
        signs = 2.0 * y - 1.0
        x_inv = signs[:, None] * (INV_SEPARATION * inv_dir)[None, :]
        x_inv = x_inv + spec.noise_std * rng.standard_normal((n, d_inv))
        center = SPUR_SEPARATION * _spurious_center(spec.domain_id, d_spur)
        p_align = 0.5 * (1.0 + spec.spurious_correlation)
        aligned = rng.random(n) < p_align
        spur_signs = np.where(aligned, signs, -signs)
        x_spur = spur_signs[:, None] * center[None, :]
        x_spur = x_spur + spec.noise_std * rng.standard_normal((n, d_spur))
        out.append(
            DomainDataset(
                domain_id=spec.domain_id,
                x=np.concatenate([x_inv, x_spur], axis=1),
                y=y,
                invariant_cols=tuple(range(d_inv)),
                spurious_cols=tuple(range(d_inv, d_inv + d_spur)),
            )
        )
    return out


def gen_rotated_moons(specs: Sequence[DomainSpec], seed: int) -> list[DomainDataset]:
    """Two interleaved half-moons rotated by each domain's angle.

    With noise_std = 0 every point lies exactly on its arc; rotation is a
    distribution shift, so both coordinates are tagged domain-varying.
    """
    if len({s.domain_id for s in specs}) != len(specs):
        raise ValueError("domain ids must be unique")
    out = []
    for spec in specs:
        rng = stream(seed, "moons", spec.domain_id)
        n = spec.n_samples
        y = rng.integers(0, 2, size=n)
        t = rng.uniform(0.0, np.pi, size=n)
        x = np.where(y[:, None] == 0,
                     np.stack([np.cos(t), np.sin(t)], axis=1),
                     np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1))
        x = x + spec.noise_std * rng.standard_normal((n, 2))
        theta = np.deg2rad(spec.rotation_deg)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        out.append(
            DomainDataset(
                domain_id=spec.domain_id,
                x=x @ rot.T,
                y=y,
                invariant_cols=(),
                spurious_cols=(0, 1),
            )
        )
    return out


def train_rows(domain_id: str, n: int, ratio: float) -> int:
    """floor(n * ratio), the train side of an n-row domain split at ratio;
    ValueError unless ratio lies in (0, 1) and leaves both sides non-empty."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    n_train = int(n * ratio + 1e-9)  # guard n*ratio landing an ulp under an integer
    if n_train == 0 or n_train == n:
        raise ValueError(f"domain {domain_id!r}: a split of {n} samples at ratio {ratio}"
                         " leaves an empty side")
    return n_train


def split_train_val(
    ds: DomainDataset, ratio: float = 0.8, seed: int = 0
) -> tuple[DomainDataset, DomainDataset]:
    """Seeded shuffle, then the first train_rows(...) rows train."""
    n_train = train_rows(ds.domain_id, ds.n_samples, ratio)
    perm = np.random.default_rng(seed).permutation(ds.n_samples)
    tr, va = perm[:n_train], perm[n_train:]
    return replace(ds, x=ds.x[tr], y=ds.y[tr]), replace(ds, x=ds.x[va], y=ds.y[va])


def feature_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std per column; constant columns get std 1."""
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    return mean, np.where(std > 0.0, std, 1.0)


def apply_stats(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (x - mean) / std


def _sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_suffix(".meta.json") if path.suffix == ".csv" else Path(str(path) + ".meta.json")


def save_dataset_csv(ds: DomainDataset, path) -> None:
    """One row per sample (features..., label, domain_id) plus a JSON sidecar
    naming the invariant and spurious columns."""
    path = Path(path)
    header = [f"f{j}" for j in range(ds.n_features)] + ["label", "domain_id"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n_samples):
            writer.writerow([repr(float(v)) for v in ds.x[i]] + [int(ds.y[i]), ds.domain_id])
    meta = {
        "domain_id": ds.domain_id,
        "invariant_cols": list(ds.invariant_cols),
        "spurious_cols": list(ds.spurious_cols),
    }
    with open(_sidecar_path(path), "w") as fh:
        json.dump(meta, fh)


def load_dataset_csv(path) -> DomainDataset:
    path = Path(path)
    with open(_sidecar_path(path)) as fh:
        meta = json.load(fh)
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = len(header) - 2
        for row in reader:
            xs.append([float(v) for v in row[:d]])
            ys.append(int(row[d]))
            if row[d + 1] != meta["domain_id"]:
                raise ValueError(f"row domain {row[d + 1]!r} does not match sidecar")
    return DomainDataset(
        domain_id=meta["domain_id"],
        x=np.asarray(xs, dtype=np.float64).reshape(len(ys), d),
        y=np.asarray(ys, dtype=np.int64),
        invariant_cols=tuple(meta["invariant_cols"]),
        spurious_cols=tuple(meta["spurious_cols"]),
    )
