import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leon.core import BooleanDim, ContinuousDim, DesignSpace, encode_batch
from leon.critic import SourcePool
from leon.equivalence import (
    N_RANDOM_CLASSES,
    RandomPartition,
    ScoreBinnedPartition,
    fit_partition,
)
from leon.numerics import kmeans_assign, shannon_entropy
from leon.optimizer import RunConfig, derive_seed, run_leon
from leon.tasks import make_dose_task


# ---------------------------------------------------------------------------
# partition fitting
# ---------------------------------------------------------------------------

# three groups of three flags: blob b sets flag b of each group, so blob
# centres lie sqrt(6) apart in encoded units while the dose spans one unit
BLOB_SPACE = DesignSpace((
    *(BooleanDim(f"{group}{b}") for group in ("Core", "Carrier", "Schedule") for b in range(3)),
    ContinuousDim("Dose", 0.0, 10.0),
))


def _blob_designs(rng, n_per=20):
    """`(3 * n_per, 10)` value rows and each row's blob."""
    designs, labels = [], []
    for blob in range(3):
        flags = tuple(float(b == blob) for b in range(3)) * 3
        for _ in range(n_per):
            designs.append((*flags, float(rng.uniform(0, 10))))
            labels.append(blob)
    return np.array(designs), labels


def test_fit_kmeans_partition_recovers_blobs(rng):
    designs, labels = _blob_designs(rng)
    src = SourcePool(BLOB_SPACE, designs)
    part = fit_partition("kmeans", src, seed=0)
    assert part.model.k == 3
    assigned = part.assign(src.encoded, np.zeros(len(designs))).tolist()
    by_blob = [set(a for a, l in zip(assigned, labels) if l == blob) for blob in range(3)]
    assert all(len(s) == 1 for s in by_blob)
    assert len(set.union(*by_blob)) == 3


def test_fit_random_partition():
    task = make_dose_task(0)
    src = SourcePool(task.space, np.arange(12.0)[:, None])
    part = fit_partition("random", src, seed=3)
    assert part == RandomPartition(seed=3)


def test_fit_score_partition_bins():
    task = make_dose_task(0)
    src = SourcePool(task.space, np.linspace(10, 90, 24)[:, None])
    part = fit_partition("score", src, seed=0, src_raw=np.linspace(10, 90, 24))
    assert isinstance(part, ScoreBinnedPartition)
    assert part.mu_src == pytest.approx(50.0)
    assert len(part.cuts) == 9  # ten bins


def test_fit_shrinks_kmax_with_warning(rng):
    designs, _ = _blob_designs(rng, n_per=4)  # 12 designs < default kmax=20
    src = SourcePool(BLOB_SPACE, designs)
    with pytest.warns(UserWarning):
        part = fit_partition("kmeans", src, seed=0)
    assert 1 <= part.model.k <= 12


def test_partition_stability_same_seed(rng):
    designs, _ = _blob_designs(rng)
    src = SourcePool(BLOB_SPACE, designs)
    a = fit_partition("kmeans", src, seed=7)
    b = fit_partition("kmeans", src, seed=7)
    raw = np.zeros(len(designs))
    assert np.array_equal(a.assign(src.encoded, raw), b.assign(src.encoded, raw))


def test_default_leon_run_fits_each_k_once(dose_task, monkeypatch):
    """A default dose leon run seeds k-means once and runs Lloyd once per k
    in KMIN..KMAX: the partition keeps the elbow's own fit at the picked k
    instead of fitting it again."""
    import leon.numerics

    calls = {"_kmeanspp": 0, "_lloyd": 0}
    for name in calls:
        def counted(*args, _real=getattr(leon.numerics, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(leon.numerics, name, counted)
    run_leon(dose_task, RunConfig(), seed=0)
    assert calls == {"_kmeanspp": 1, "_lloyd": 19}  # k = 2..20


def test_default_kmeans_classes_are_dose_intervals():
    """Default k-means classes have locality: on the dose task, as the dose
    rises in unit steps, each class is entered once (class changes = distinct
    classes - 1). The source pool and fit seed are those of `run_leon`."""
    task = make_dose_task(0)
    src = SourcePool(task.space, task.source_designs(np.random.default_rng([0, 2]), 128))
    part = fit_partition("kmeans", src, seed=derive_seed(0, 6))
    doses = np.arange(30.0, 71.0)[:, None]
    ids = part.assign(encode_batch(task.space, doses), np.zeros(len(doses)))
    changes = int(np.count_nonzero(np.diff(ids)))
    assert len(set(ids.tolist())) > 1
    assert changes == len(set(ids.tolist())) - 1


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------


def test_random_assignment_deterministic():
    part = RandomPartition(seed=4)
    X = np.array([[0.035]])
    assert part.assign(X, [1.0]) == part.assign(X, [-1.0])
    assert 0 <= part.assign(X, [0.0])[0] < 10


def test_score_assignment_left_closed():
    part = ScoreBinnedPartition(mu_src=10.0, sigma_src=2.0)
    raw = [10.0, 10.0 - 1e-12, 7.0, -1e9, 1e9]
    # the bin [mu, mu+sigma) is index 5 of 10: the cuts are
    # [mu-4s, mu-3s, mu-2s, mu-s, mu, mu+s, mu+2s, mu+3s, mu+4s];
    # 7.0 is mu - 1.5 sigma
    got = part.assign(np.zeros((len(raw), 1)), raw)
    assert got.tolist() == [5, 4, 3, 0, 9]


def test_score_edges_are_not_a_constructor_input():
    """The bins follow from the source mean and spread alone: cuts passed
    in would be overwritten, so the constructor does not take them."""
    with pytest.raises(TypeError):
        ScoreBinnedPartition(0.0, 1.0, cuts=np.zeros(3))


def test_kmeans_assignment_matches_kernel(rng):
    designs, _ = _blob_designs(rng)
    src = SourcePool(BLOB_SPACE, designs)
    X = encode_batch(BLOB_SPACE, designs[:10])
    part = fit_partition("kmeans", src, seed=0)
    assert np.array_equal(part.assign(X, np.zeros(10)),
                          kmeans_assign(part.model, X))


# Per-design references for batch assignment: one design at a time, as the
# partitions assigned before they took whole batches.

def _kmeans_one(part, values):
    vec = encode_batch(BLOB_SPACE, [values])[0]
    d2 = ((part.model.centroids - vec) ** 2).sum(axis=1)
    return int(np.argmin(d2))


def _random_one(part, values):
    """The seeded hash of one design's encoded row."""
    vec = encode_batch(BLOB_SPACE, [values])[0]
    h = hashlib.blake2b(vec.tobytes(), digest_size=8, key=str(part.seed).encode()).digest()
    return int.from_bytes(h, "little") % N_RANDOM_CLASSES


def _score_one(part, raw):
    """The number of cuts at or below `raw`: left-closed bins."""
    return sum(1 for cut in part.cuts if cut <= raw)


def test_batch_assign_matches_per_design_reference(rng):
    designs, _ = _blob_designs(rng)
    src = SourcePool(BLOB_SPACE, designs)
    X = src.encoded
    kmeans = fit_partition("kmeans", src, seed=0)
    score = ScoreBinnedPartition(mu_src=10.0, sigma_src=2.0)
    # both infinities, every cut exactly, and values between the cuts
    raw = np.concatenate([[-np.inf], score.cuts, [np.inf],
                          rng.normal(10.0, 6.0, size=len(designs) - 11)])
    assert len(raw) == len(designs)

    got = kmeans.assign(X, raw)
    assert got.tolist() == [_kmeans_one(kmeans, d) for d in designs]
    assert len(set(got.tolist())) > 1

    random = RandomPartition(seed=4)
    assert random.assign(X, raw).tolist() == [_random_one(random, d) for d in designs]

    got = score.assign(X, raw)
    assert got.tolist() == [_score_one(score, r) for r in raw]
    # left-closed bins: each cut opens the bin above it; -inf is in the
    # lowest bin and +inf in the highest
    assert got[:11].tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9]


@given(st.integers(0, 2 ** 20))
def test_assignment_total(design_seed):
    rng = np.random.default_rng(design_seed)
    X = rng.integers(2, size=(8, 2)).astype(float)
    for part in (RandomPartition(seed=0),
                 ScoreBinnedPartition(mu_src=0.0, sigma_src=1.0)):  # ten classes each
        cids = part.assign(X, rng.normal(size=8))
        assert cids.shape == (8,)
        assert np.all((0 <= cids) & (cids < 10))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_coarse_entropy_values():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.2] * 5) == pytest.approx(math.log(5))
    assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.039721, abs=1e-6)
