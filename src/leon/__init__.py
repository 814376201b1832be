"""Entropy-guided, critic-constrained conditional black-box optimization."""

from .core import (
    BooleanDim,
    Context,
    ContinuousDim,
    Design,
    DesignSpace,
    Hyperparams,
    TrajectoryMemory,
    decode_design,
    render_text,
)
from .optimizer import RunConfig, RunResult, evaluate_cohort, run_baseline, run_leon, select_final
from .tasks import make_surrogate, make_task, oracle_eval

__version__ = "0.1.0"

__all__ = [
    "BooleanDim",
    "Context",
    "ContinuousDim",
    "Design",
    "DesignSpace",
    "Hyperparams",
    "TrajectoryMemory",
    "decode_design",
    "render_text",
    "RunConfig",
    "RunResult",
    "evaluate_cohort",
    "run_baseline",
    "run_leon",
    "select_final",
    "make_surrogate",
    "make_task",
    "oracle_eval",
    "__version__",
]
