"""Domain types for designs, contexts, and trajectory memory.

A design lives in a mixed continuous/boolean search space, one encoded
column per dimension. All numeric encoding maps into [0, 1]-scaled vectors
so that downstream critic and surrogate networks see bounded inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class DesignSpace:
    dims: tuple[DimSpec, ...]

    def __post_init__(self):
        if len(self.dims) == 0:
            raise SchemaError("a design space needs at least one dimension")
        object.__setattr__(self, "dims", tuple(self.dims))

    @property
    def encoded_width(self) -> int:
        return len(self.dims)

    def validate(self, design: "Design") -> None:
        """Check one design by the rules of `encode_batch`."""
        encode_batch(self, [design])


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
# Hyperparameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hyperparams:
    lambda0: float = 0.0
    w0: float = 1.0
    eta_lambda: float = 0.1
    eta_critic: float = 0.001
    batch_size: int = 32
    budget: int = 2048
    mu_max: float = 100.0

    def __post_init__(self):
        for name in ("lambda0", "w0", "eta_lambda", "eta_critic", "mu_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lambda0 < 0:
            raise ValueError("lambda0 must be >= 0")
        if self.w0 < 0:
            raise ValueError("w0 must be >= 0")
        if self.eta_lambda < 0:
            raise ValueError("eta_lambda must be >= 0")
        if self.eta_critic <= 0:
            raise ValueError("eta_critic must be > 0")
        if self.batch_size <= 1:
            raise ValueError("batch_size must be > 1")
        if self.budget < self.batch_size:
            raise ValueError("budget must be >= batch_size")
        if self.mu_max <= 0:
            raise ValueError("mu_max must be > 0")


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


@dataclass(frozen=True)
class StepTrace:
    step: int
    lam: float
    mu_hat: float
    w1_estimate: float
    reflection: str = ""


class TrajectoryMemory:
    """Append-only log of proposed designs and their scores.

    Single-writer: the optimizer loop appends between steps; readers may
    snapshot `entries` at any step boundary.
    """

    def __init__(self, budget: int):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self.entries: list[MemoryEntry] = []
        self.traces: list[StepTrace] = []

    def append_batch(self, step, designs, raw_values, scores, class_ids):
        n = len(designs)
        if not (n == len(raw_values) == len(scores) == len(class_ids)):
            raise ValueError("misaligned batch arrays")
        if len(self.entries) + n > self.budget:
            raise ValueError(
                f"memory budget {self.budget} exceeded "
                f"({len(self.entries)} + {n} entries)"
            )
        if self.entries and step < self.entries[-1].step:
            raise ValueError("steps must be non-decreasing")
        for d, r, s, c in zip(designs, raw_values, scores, class_ids):
            self.entries.append(MemoryEntry(step, d, float(r), float(s), int(c)))

    def add_trace(self, trace: StepTrace) -> None:
        self.traces.append(trace)

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_batch(space: DesignSpace, designs) -> np.ndarray:
    """Check and encode a batch of designs as an `(n, d)` float array.

    Every design must have one value per dim, each continuous value within
    [lo, hi] (NaN fails) and each boolean value a `bool` or `np.bool_`; the
    first offending design and dim raise `SchemaError`. Continuous dims are
    min-max scaled to [0, 1] and booleans map to {0, 1}.
    """
    width = len(space.dims)
    for d in designs:
        if len(d.values) != width:
            raise SchemaError(f"design arity {len(d.values)} != space arity {width}")
    V = np.array([d.values for d in designs], dtype=object).reshape(len(designs), width)
    is_bool = np.array([isinstance(dim, BooleanDim) for dim in space.dims])
    lo = np.array([0.0 if b else dim.lo for b, dim in zip(is_bool, space.dims)])
    hi = np.array([1.0 if b else dim.hi for b, dim in zip(is_bool, space.dims)])
    bool_typed = np.frompyfunc(lambda v: isinstance(v, (bool, np.bool_)), 1, 1)(V)
    not_bool = is_bool & ~bool_typed.astype(bool)
    X = np.where(not_bool, 0.0, V).astype(float)
    bad = not_bool | ~((lo <= X) & (X <= hi))
    if bad.any():
        row, i = divmod(int(bad.argmax()), width)
        dim, v = space.dims[i], designs[row].values[i]
        raise SchemaError(f"{dim.name}={v!r} is not a bool" if is_bool[i]
                          else f"{dim.name}={v} outside [{dim.lo}, {dim.hi}]")
    return (X - lo) / (hi - lo)


def decode_design(space: DesignSpace, v: np.ndarray) -> Design:
    """Inverse of `encode_batch` on one row, up to clamping.

    Continuous entries clamp to [lo, hi] and boolean entries threshold at
    0.5; `encode(decode(v))` is idempotent on valid encodings.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (space.encoded_width,):
        raise SchemaError(f"expected encoded length {space.encoded_width}, got {v.shape}")
    vals = []
    for i, dim in enumerate(space.dims):
        if isinstance(dim, ContinuousDim):
            x = dim.lo + float(v[i]) * (dim.hi - dim.lo)
            vals.append(min(max(x, dim.lo), dim.hi))
        else:
            vals.append(bool(v[i] >= 0.5))
    return Design(tuple(vals))


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


def render_design(space: DesignSpace, design: Design) -> str:
    space.validate(design)
    return "\n".join(
        f"{dim.name}: {format_value(dim, v)}" for dim, v in zip(space.dims, design.values)
    )


def render_text(task_name: str, space: DesignSpace, ctx: Context, design: Design) -> str:
    """Human-readable description of a (context, design) pair.

    Deterministic: identical inputs yield byte-identical text. Every dim
    name/value and every context feature appears in the output.
    """
    return (
        f"{render_context(ctx)}\n\n"
        f"Proposed {task_name} design:\n{render_design(space, design)}"
    )


def design_cell(space: DesignSpace, design: Design) -> str:
    """Single-line rendering used in memory tables."""
    return ", ".join(format_value(dim, v) for dim, v in zip(space.dims, design.values))


__all__ = [
    "SchemaError",
    "NumericError",
    "ContinuousDim",
    "BooleanDim",
    "DimSpec",
    "DesignSpace",
    "Design",
    "Context",
    "Hyperparams",
    "MemoryEntry",
    "StepTrace",
    "TrajectoryMemory",
    "encode_batch",
    "decode_design",
    "format_value",
    "render_context",
    "render_design",
    "render_text",
    "design_cell",
]
