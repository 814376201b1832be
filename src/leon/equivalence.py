"""Equivalence relations over the design space.

Three interchangeable partition variants: k-means over design encodings, a
seeded random assignment into 10 classes, and score-binned classes cut at
standard-deviation thresholds around the source mean. Fractional
occupancies over classes feed the coarse-grained entropy and the
certainty-parameter estimates.

The k-means variant clusters the encoded source pool (euclidean, k by the
elbow rule), so nearby designs share a class. Only a caller-supplied text
embedding provider (such as `ApiEmbedder`, whose embeddings carry meaning)
switches it to cosine k-means over rendered text; fitting and assignment
then render every design under the same reference context.

Contract: assignment is per batch. Every partition has
`assign(designs, X, raw_values) -> class ids`, taking a step's designs with
their `(n, d)` encodings (`core.encode_batch`) and raw values (`(n,)`
array) and returning an `(n,)` integer array; the k-means variant makes one
nearest-centroid matrix operation, the score variant one `searchsorted`.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import Context, DesignSpace, render_text
from .critic import SourcePool
from .numerics import KMeansModel, elbow_select_k, kmeans_assign, kmeans_fit


class TransportError(RuntimeError):
    """An external embedding endpoint failed after retries."""


# ---------------------------------------------------------------------------
# Embedding providers
# ---------------------------------------------------------------------------

@dataclass
class ApiEmbedder:
    """Client for an HTTP embedding endpoint.

    POSTs {"model": ..., "input": ...} and expects
    {"data": [{"embedding": [...]}]}. Endpoint and key default to the
    EMBED_API_BASE / EMBED_API_KEY environment variables.
    """

    model: str
    endpoint: str | None = None
    api_key: str | None = None
    max_retries: int = 3
    retry_wait: float = 0.5
    timeout: float = 30.0

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        import requests

        url = self.endpoint or os.environ.get("EMBED_API_BASE")
        if not url:
            raise TransportError("no embedding endpoint configured (EMBED_API_BASE)")
        key = self.api_key or os.environ.get("EMBED_API_KEY", "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        last = None
        for attempt in range(self.max_retries):
            try:
                resp = requests.post(url, json={"model": self.model, "input": text},
                                     headers=headers, timeout=self.timeout)
                resp.raise_for_status()
                vec = np.asarray(resp.json()["data"][0]["embedding"], dtype=float)
                norm = np.linalg.norm(vec)
                return vec / norm if norm > 0 else vec
            except Exception as exc:  # noqa: BLE001 - retried, then surfaced
                last = exc
                if attempt < self.max_retries - 1:
                    time.sleep(self.retry_wait * (2 ** attempt))
        raise TransportError(f"embedding request failed after {self.max_retries} attempts: {last}")


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

REFERENCE_CONTEXT_ID = "_reference"


def reference_context(ctx_dim: int) -> Context:
    """Fixed all-zeros context under which a text partition renders every
    design, so the relation over the design space does not depend on any
    one subject."""
    return Context(features=(0.0,) * ctx_dim, id=REFERENCE_CONTEXT_ID)


KMIN, KMAX = 2, 20  # range of k searched by the elbow rule
N_RANDOM_CLASSES = 10


@dataclass(frozen=True)
class PartitionConfig:
    variant: str = "kmeans"  # "kmeans" | "random" | "score"
    provider: object | None = None  # text embedder; None clusters design encodings


@dataclass(frozen=True)
class TextEmbedding:
    """Embeds designs through their rendered text. Every design is rendered
    under the one context `ctx`, so the fitted centroids and the points they
    classify come from the same text distribution."""

    provider: object
    task_name: str
    space: DesignSpace
    ctx: Context

    def __call__(self, designs) -> np.ndarray:
        return np.stack([self.provider.embed(render_text(self.task_name, self.space, self.ctx, d))
                         for d in designs])


@dataclass
class KMeansPartition:
    """Nearest-centroid classes over the design encodings, or over text
    embeddings when `text` is set."""

    model: KMeansModel
    text: TextEmbedding | None = None

    @property
    def n_classes(self) -> int:
        return self.model.k

    def assign(self, designs, X, raw_values) -> np.ndarray:
        return kmeans_assign(self.model, X if self.text is None else self.text(designs))


@dataclass
class RandomPartition:
    n_classes: int = N_RANDOM_CLASSES
    seed: int = 0

    def assign(self, designs, X, raw_values) -> np.ndarray:
        key = str(self.seed).encode()
        digests = [hashlib.blake2b(repr(d.values).encode(), digest_size=8, key=key).digest()
                   for d in designs]
        return np.array([int.from_bytes(h, "little") % self.n_classes for h in digests])


@dataclass
class ScoreBinnedPartition:
    """Classes cut by raw-value thresholds at
    {-inf, mu-4s, ..., mu-s, mu, mu+s, ..., mu+4s, +inf}; bins are
    left-closed/right-open."""

    mu_src: float
    sigma_src: float
    edges: np.ndarray = field(default=None)

    def __post_init__(self):
        sigma = max(self.sigma_src, 1e-12)
        inner = self.mu_src + sigma * np.arange(-4, 5)  # mu-4s .. mu+4s
        self.edges = np.concatenate([[-np.inf], inner, [np.inf]])

    @property
    def n_classes(self) -> int:
        return len(self.edges) - 1  # 10 bins from 11 thresholds

    def assign(self, designs, X, raw_values) -> np.ndarray:
        idx = np.searchsorted(self.edges, np.asarray(raw_values, dtype=float), side="right") - 1
        return np.clip(idx, 0, self.n_classes - 1)


Partition = KMeansPartition | RandomPartition | ScoreBinnedPartition


def fit_partition(cfg: PartitionConfig, src: SourcePool, task, seed: int,
                  src_raw=None) -> Partition:
    """Fit an equivalence relation on the source designs.

    The k-means variant picks k by the elbow rule and fits euclidean k-means
    on the encoded source pool; with a text provider it instead embeds each
    source design rendered under the reference context and fits cosine
    k-means. The score variant needs `src_raw`, the surrogate-plus-critic
    value of each source design, to compute source mean and spread.
    """
    if cfg.variant == "random":
        return RandomPartition(seed=seed)

    if cfg.variant == "score":
        if src_raw is None:
            raise ValueError("score partition needs src_raw")
        vals = np.asarray(src_raw, dtype=float)
        return ScoreBinnedPartition(mu_src=float(vals.mean()), sigma_src=float(vals.std()))

    if cfg.variant != "kmeans":
        raise ValueError(f"unknown partition variant {cfg.variant!r}")

    if cfg.provider is None:
        text, points, metric = None, src.encoded, "euclidean"
    else:
        text = TextEmbedding(cfg.provider, task.name, src.space, reference_context(task.ctx_dim))
        points, metric = text(src.designs), "cosine"

    kmax = KMAX
    if len(src) < kmax:
        warnings.warn(
            f"source pool has {len(src)} designs < kmax={kmax}; shrinking kmax",
            stacklevel=2,
        )
        kmax = len(src)
    kmin = min(KMIN, kmax)
    k = elbow_select_k(points, kmin=kmin, kmax=kmax, metric=metric, seed=seed)
    return KMeansPartition(model=kmeans_fit(points, k, metric=metric, seed=seed), text=text)


def occupancies(assignments, n_classes: int) -> np.ndarray:
    """Empirical class frequencies: counts / total."""
    assignments = np.asarray(assignments, dtype=int)
    if assignments.size == 0:
        raise ValueError("no assignments")
    if assignments.min() < 0 or assignments.max() >= n_classes:
        raise ValueError("class id out of range")
    counts = np.bincount(assignments, minlength=n_classes)
    return counts / counts.sum()


__all__ = [
    "TransportError",
    "ApiEmbedder",
    "reference_context",
    "REFERENCE_CONTEXT_ID",
    "PartitionConfig",
    "TextEmbedding",
    "KMeansPartition",
    "RandomPartition",
    "ScoreBinnedPartition",
    "Partition",
    "fit_partition",
    "occupancies",
]
