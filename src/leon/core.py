"""Domain types for designs, contexts, and trajectory memory.

A design lives in a mixed continuous/boolean search space, one encoded
column per dimension. All numeric encoding maps into [0, 1]-scaled vectors,
so the critic's costs and the learned surrogate's net see bounded inputs.

Inside a run a batch of designs is an `(n, d)` float array of design
values, booleans as 0.0/1.0, checked by `encode_batch`: engines, baselines,
surrogates, partitions, the critic's source pool, the memory and the chat
engine's prompt table and parser pass only that. `Design` objects live at
the boundaries: outside input (`validate`), the oracle, the final design
and its JSON, and `TrajectoryMemory.entries`.

Trajectory memory is a set of columns preallocated to the run's budget:
step, the exact design values, raw value, score and class. The values
column is `bool` when every dim is boolean and float64 otherwise. The
memory numbers its own steps: every row of the k-th append is at step k,
so a leon row's step is its acquisition step and a baseline row's is the
ordinal of its scored batch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np


class SchemaError(ValueError):
    """A design, context, or encoded vector does not match its space."""


class NumericError(ArithmeticError):
    """A numeric routine encountered non-finite values."""


# ---------------------------------------------------------------------------
# Search space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousDim:
    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise SchemaError(f"dim {self.name!r}: lo must be < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class BooleanDim:
    name: str


DimSpec = ContinuousDim | BooleanDim


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DesignSpace:
    """The dims, and their layout computed once: `is_bool`, the per-dim
    boolean mask, and `lo`/`hi`, each dim's bounds (a boolean's being
    [0, 1]), as read-only arrays."""

    dims: tuple[DimSpec, ...]
    is_bool: np.ndarray = field(init=False, repr=False, compare=False)
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.dims) == 0:
            raise SchemaError("a design space needs at least one dimension")
        dims = tuple(self.dims)
        is_bool = np.array([isinstance(dim, BooleanDim) for dim in dims])
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "is_bool", _read_only(is_bool))
        object.__setattr__(self, "lo", _read_only(
            np.array([0.0 if b else dim.lo for b, dim in zip(is_bool, dims)], dtype=float)))
        object.__setattr__(self, "hi", _read_only(
            np.array([1.0 if b else dim.hi for b, dim in zip(is_bool, dims)], dtype=float)))

    def __reduce__(self):  # unpickling rebuilds the read-only layout from the dims
        return DesignSpace, (self.dims,)

    @property
    def encoded_width(self) -> int:
        return len(self.dims)

    def validate(self, design: "Design") -> None:
        """Check one outside design: each boolean value a `bool` or
        `np.bool_` (an int is not a bool), then its values by the rules of
        `encode_batch`."""
        for dim, b, v in zip(self.dims, self.is_bool, design.values):
            if b and not isinstance(v, (bool, np.bool_)):
                raise SchemaError(f"{dim.name}={v!r} is not a bool")
        encode_batch(self, [design.values])


@dataclass(frozen=True)
class Design:
    """A concrete point: floats for continuous dims, bools for boolean dims."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def to_json(self) -> dict:
        return {"values": [_plain(v) for v in self.values]}


@dataclass(frozen=True)
class Context:
    """Conditioning vector for one optimization instance."""

    features: tuple[float, ...]
    id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(float(f) for f in self.features))


def _plain(v):
    return bool(v) if isinstance(v, (np.bool_, bool)) else float(v)


# ---------------------------------------------------------------------------
# Number readers and hyperparameters
# ---------------------------------------------------------------------------


def short_repr(value, limit: int = 40) -> str:
    """`repr(value)` for an error message, cut to `limit` characters."""
    if isinstance(value, int) and value.bit_length() > 4 * limit:  # repr fails past 4,300 digits
        return f"an integer of {value.bit_length()} bits"
    text = repr(value)
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def read_float(value, name: str, lo: float | None = None, hi: float | None = None, *,
               lo_open: bool = False) -> float:
    """`value` as a float: a finite number, Python's or numpy's, not a bool
    or a string, no less than `lo` (greater, when `lo_open`) and no more
    than `hi` where a bound is given. Raises ValueError naming `name`."""
    if isinstance(value, np.generic):  # numpy's scalars as Python's
        value = value.item()
    # `abs(value) <= max float` is False for NaN, the infinities and
    # integers too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {short_repr(value)}")
    if lo is not None and not (value > lo if lo_open else value >= lo):
        raise ValueError(f"{name} must be {'>' if lo_open else '>='} {lo}, got {short_repr(value)}")
    if hi is not None and not value <= hi:
        raise ValueError(f"{name} must be <= {hi}, got {short_repr(value)}")
    return float(value)


def read_int(value, name: str, lo: int) -> int:
    """`value` as an int: an integer, Python's or numpy's, not a bool, a
    float or a string, no less than `lo`. Raises ValueError naming `name`."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {short_repr(value)}")
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {short_repr(value)}")
    return int(value)


@dataclass(frozen=True)
class Hyperparams:
    """The loop's knobs, read by `read_float` and `read_int` at
    construction: the floats finite and at least 0; `batch_size` an
    integer of at least 2 and `budget` one of at least `batch_size` (memory
    preallocates `budget` rows). `w0` is a fraction of the encoded cube's
    diameter (`critic`)."""

    lambda0: float = 0.0
    w0: float = 1.0
    eta_lambda: float = 0.1
    batch_size: int = 32
    budget: int = 2048

    def __post_init__(self):
        for name in ("lambda0", "w0", "eta_lambda"):
            object.__setattr__(self, name, read_float(getattr(self, name), name, 0.0))
        object.__setattr__(self, "batch_size", read_int(self.batch_size, "batch_size", 2))
        object.__setattr__(self, "budget", read_int(self.budget, "budget", self.batch_size))


# ---------------------------------------------------------------------------
# Trajectory memory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryEntry:
    step: int
    design: Design
    raw_value: float  # surrogate plus lambda-weighted critic value
    score: float      # mu_hat * raw_value
    class_id: int


@dataclass(frozen=True, eq=False)
class MemoryView:
    """Consecutive rows of a `TrajectoryMemory` as read-only array views.

    `values` holds each design's value row (`bool` when every dim is
    boolean); `design(i)` and `entries` rebuild objects from the rows,
    value for value and type for type.
    """

    space: DesignSpace
    step: np.ndarray
    values: np.ndarray
    raw: np.ndarray
    score: np.ndarray
    class_id: np.ndarray

    def __post_init__(self):
        for col in (self.step, self.values, self.raw, self.score, self.class_id):
            col.flags.writeable = False

    def __len__(self) -> int:
        return len(self.step)

    def design(self, i: int) -> Design:
        return Design(tuple(bool(v) if b else v
                            for b, v in zip(self.space.is_bool, self.values[i].tolist())))

    @property
    def entries(self) -> list[MemoryEntry]:
        return [MemoryEntry(int(self.step[i]), self.design(i), float(self.raw[i]),
                            float(self.score[i]), int(self.class_id[i]))
                for i in range(len(self))]


class TrajectoryMemory:
    """Append-only log of proposed designs and their scores, held as
    columns preallocated to `budget` rows.

    Single-writer: the optimizer loop appends between steps; readers may
    take a `view` at any step boundary, and the rows it covers never change.
    """

    def __init__(self, space: DesignSpace, budget: int):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.space = space
        self.budget = budget
        self._n = 0
        self._steps = 0  # appends taken
        self._step = np.zeros(budget, dtype=np.int64)
        self._values = np.zeros((budget, space.encoded_width),
                                dtype=bool if space.is_bool.all() else float)
        self._raw = np.zeros(budget)
        self._score = np.zeros(budget)
        self._class_id = np.zeros(budget, dtype=np.int64)

    def append_batch(self, values, raw_values, scores, labels):
        """Log a batch's `(n, d)` value rows with their raw values, scores
        and class labels as the next step: the k-th append is step k. A
        rejected append writes nothing and takes no step."""
        width = self.space.encoded_width
        if np.ndim(values) != 2 or np.shape(values)[1] != width:
            raise SchemaError(f"expected value rows of shape (n, {width}), got {np.shape(values)}")
        n = len(values)
        if not (n == len(raw_values) == len(scores) == len(labels)):
            raise ValueError("misaligned batch arrays")
        if self._n + n > self.budget:
            raise ValueError(
                f"memory budget {self.budget} exceeded "
                f"({self._n} + {n} entries)"
            )
        self._steps += 1
        rows = slice(self._n, self._n + n)
        self._step[rows] = self._steps
        self._values[rows] = values
        self._raw[rows] = raw_values
        self._score[rows] = scores
        self._class_id[rows] = labels
        self._n += n

    def view(self, last: int | None = None) -> MemoryView:
        """The whole memory, or its `last` rows, as read-only array views."""
        lo = 0 if last is None else max(self._n - last, 0)
        rows = slice(lo, self._n)
        return MemoryView(self.space, self._step[rows], self._values[rows], self._raw[rows],
                          self._score[rows], self._class_id[rows])

    @property
    def entries(self) -> list[MemoryEntry]:
        """Every row as a `MemoryEntry`, built on each read."""
        return self.view().entries

    def __len__(self) -> int:
        return self._n


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_batch(space: DesignSpace, values) -> np.ndarray:
    """Check and encode design value rows as an `(n, d)` float array.

    `values` must have shape `(n, d)`, every value finite and within its
    dim's [lo, hi], and every boolean value exactly 0 or 1; the first
    offending row and dim raise `SchemaError`. Continuous dims are min-max
    scaled to [0, 1] and booleans keep their 0/1.
    """
    V = np.asarray(values, dtype=float)
    width = space.encoded_width
    if V.ndim != 2 or V.shape[1] != width:
        raise SchemaError(f"expected value rows of shape (n, {width}), got {V.shape}")
    is_bool = space.is_bool
    bad = ~((space.lo <= V) & (V <= space.hi)) | (is_bool & (V != 0.0) & (V != 1.0))
    if bad.any():
        row, i = divmod(int(bad.argmax()), width)
        dim, v = space.dims[i], float(V[row, i])
        raise SchemaError(f"row {row}: {dim.name}={v} is not 0 or 1" if is_bool[i]
                          else f"row {row}: {dim.name}={v} outside [{dim.lo}, {dim.hi}]")
    return scale_values(space, V)


def scale_values(space: DesignSpace, X: np.ndarray) -> np.ndarray:
    """Encode checked design value rows: continuous dims min-max scaled to
    [0, 1], booleans unchanged. The arithmetic of `encode_batch`, without
    its checks."""
    return (X - space.lo) / (space.hi - space.lo)


def decode_design(space: DesignSpace, X: np.ndarray) -> np.ndarray:
    """Inverse of `encode_batch`, up to clamping: encoded rows `(n, d)` to
    design value rows.

    Continuous entries clamp to [lo, hi] and boolean entries threshold at
    0.5; `encode(decode(X))` is idempotent on valid encodings.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != space.encoded_width:
        raise SchemaError(f"expected encoded rows of shape (n, {space.encoded_width}), "
                          f"got {X.shape}")
    lo, hi = space.lo, space.hi
    return np.where(space.is_bool, X >= 0.5, np.clip(lo + X * (hi - lo), lo, hi))


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def format_value(dim: DimSpec, v) -> str:
    if isinstance(dim, ContinuousDim):
        return f"{float(v):.4f}"
    return "yes" if v else "no"


def render_context(ctx: Context) -> str:
    feats = ", ".join(f"x{i}={f:.4f}" for i, f in enumerate(ctx.features))
    return f"Subject {ctx.id or 'anonymous'} with covariates: {feats}."


def render_text(task_name: str, space: DesignSpace, ctx: Context, design: Design) -> str:
    """Human-readable description of a (context, design) pair.

    Deterministic: identical inputs yield byte-identical text. Every dim
    name/value and every context feature appears in the output.
    """
    space.validate(design)
    lines = "\n".join(f"{dim.name}: {format_value(dim, v)}"
                      for dim, v in zip(space.dims, design.values))
    return f"{render_context(ctx)}\n\nProposed {task_name} design:\n{lines}"


def design_cell(space: DesignSpace, row: np.ndarray) -> str:
    """One design's value row on a single line, as in memory tables."""
    return ", ".join(format_value(dim, v) for dim, v in zip(space.dims, row))


__all__ = [
    "SchemaError",
    "NumericError",
    "ContinuousDim",
    "BooleanDim",
    "DimSpec",
    "DesignSpace",
    "Design",
    "Context",
    "short_repr",
    "read_float",
    "read_int",
    "Hyperparams",
    "MemoryEntry",
    "MemoryView",
    "TrajectoryMemory",
    "encode_batch",
    "scale_values",
    "decode_design",
    "format_value",
    "render_context",
    "render_text",
    "design_cell",
]
