"""Equivalence relations over the design space.

Three interchangeable partition variants: k-means over design encodings, a
seeded random hash into 10 classes, and score-binned classes cut at
standard-deviation thresholds around the source mean. A class is a label:
each batch row's class feeds the per-class optima and batch shares of
`certainty.class_optima`, which needs no label range.

The k-means variant clusters the encoded source pool (euclidean, k by the
elbow rule), so nearby designs share a class.

Contract: assignment is per batch. Every partition has
`assign(X, raw_values) -> labels`, taking a step's `(n, d)` encoded rows
(`core.encode_batch`) and raw values (`(n,)` array) and returning an `(n,)`
integer array; the k-means variant makes one nearest-centroid matrix
operation, the score variant one `searchsorted`, and the random variant
hashes each encoded row's bytes.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import render_text  # noqa: F401 - perfbench's tracer wraps equivalence.render_text
from .critic import SourcePool
from .numerics import KMeansModel, elbow_select_k, kmeans_assign, kmeans_fit


PARTITIONS = ("kmeans", "random", "score")  # the variants `fit_partition` takes
KMIN, KMAX = 2, 20  # range of k searched by the elbow rule
N_RANDOM_CLASSES = 10


@dataclass
class KMeansPartition:
    """Nearest-centroid classes over the design encodings."""

    model: KMeansModel

    def assign(self, X, raw_values) -> np.ndarray:
        return kmeans_assign(self.model, X)


@dataclass
class RandomPartition:
    """A seeded hash of each encoded row into `N_RANDOM_CLASSES` classes."""

    seed: int = 0

    def assign(self, X, raw_values) -> np.ndarray:
        key = str(self.seed).encode()
        digests = [hashlib.blake2b(row.tobytes(), digest_size=8, key=key).digest()
                   for row in np.asarray(X, dtype=float)]
        return np.array([int.from_bytes(h, "little") % N_RANDOM_CLASSES for h in digests])


@dataclass
class ScoreBinnedPartition:
    """Ten classes cut by the nine raw-value thresholds
    mu-4s, ..., mu-s, mu, mu+s, ..., mu+4s; bins are left-closed/right-open,
    and the lowest and highest are unbounded."""

    mu_src: float
    sigma_src: float
    cuts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.cuts = self.mu_src + max(self.sigma_src, 1e-12) * np.arange(-4, 5)

    def assign(self, X, raw_values) -> np.ndarray:
        return np.searchsorted(self.cuts, np.asarray(raw_values, dtype=float), side="right")


Partition = KMeansPartition | RandomPartition | ScoreBinnedPartition


def fit_partition(variant: str, src: SourcePool, seed: int, src_raw=None) -> Partition:
    """Fit an equivalence relation on the source designs.

    `variant` is one of `PARTITIONS`. The k-means variant fits euclidean
    k-means on the encoded source pool once for each k in KMIN..KMAX (kmax
    shrunk to the pool size, with a warning, on a smaller pool), all from
    one seeding, and keeps the fit whose k the elbow rule picks. The
    score variant needs `src_raw`, the raw value of each source design (its
    surrogate value, as a fresh critic reads 0 on its pool), for their mean and spread.
    """
    if variant == "random":
        return RandomPartition(seed=seed)

    if variant == "score":
        if src_raw is None:
            raise ValueError("score partition needs src_raw")
        vals = np.asarray(src_raw, dtype=float)
        return ScoreBinnedPartition(mu_src=float(vals.mean()), sigma_src=float(vals.std()))

    if variant != "kmeans":
        raise ValueError(f"unknown partition variant {variant!r}; known: {PARTITIONS}")

    kmax = KMAX
    if len(src) < kmax:
        warnings.warn(
            f"source pool has {len(src)} designs < kmax={kmax}; shrinking kmax",
            stacklevel=2,
        )
        kmax = len(src)
    ks = range(min(KMIN, kmax), kmax + 1)
    fits = kmeans_fit(src.encoded, ks, seed)
    k = elbow_select_k(ks, [fit.inertia for fit in fits])
    return KMeansPartition(model=fits[ks.index(k)])


__all__ = [
    "PARTITIONS",
    "KMeansPartition",
    "RandomPartition",
    "ScoreBinnedPartition",
    "Partition",
    "fit_partition",
]
