import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leon.core import (
    BooleanDim,
    Context,
    ContinuousDim,
    Design,
    DesignSpace,
    Hyperparams,
    SchemaError,
    TrajectoryMemory,
    decode_design,
    encode_batch,
    render_context,
    render_text,
)


# ---------------------------------------------------------------------------
# space construction
# ---------------------------------------------------------------------------


def test_space_invariants():
    with pytest.raises(SchemaError):
        ContinuousDim("x", 1.0, 1.0)
    with pytest.raises(SchemaError):
        DesignSpace(())


def test_design_validation(mixed_space):
    mixed_space.validate(Design((50.0, True, False)))
    with pytest.raises(SchemaError):
        mixed_space.validate(Design((50.0, True)))  # arity
    with pytest.raises(SchemaError):
        mixed_space.validate(Design((101.0, True, False)))  # out of range
    with pytest.raises(SchemaError):
        mixed_space.validate(Design((50.0, 1, False)))  # int is not a bool here


def _per_design_validate(space, design):
    """The rules as one loop over a single design's values."""
    if len(design.values) != len(space.dims):
        raise SchemaError("arity")
    for dim, v in zip(space.dims, design.values):
        if isinstance(dim, ContinuousDim):
            if not (dim.lo <= float(v) <= dim.hi):
                raise SchemaError("range")
        elif not isinstance(v, (bool, np.bool_)):
            raise SchemaError("bool")


def _per_design_encoding(space, design):
    """The encoding as one Python formula per value."""
    return np.array([(float(v) - dim.lo) / (dim.hi - dim.lo) if isinstance(dim, ContinuousDim)
                     else (1.0 if v else 0.0) for dim, v in zip(space.dims, design.values)])


RULE_CASES = {
    "short arity": ((50.0, True), False),
    "long arity": ((50.0, True, False, True), False),
    "below lo": ((-0.5, True, False), False),
    "above hi": ((100.5, True, False), False),
    "nan": ((float("nan"), True, False), False),
    "int 1 for a bool": ((50.0, 1, False), False),
    "float 1.0 for a bool": ((50.0, True, 1.0), False),
    "exactly lo": ((0.0, True, False), True),
    "exactly hi": ((100.0, False, True), True),
    "bool": ((37.5, True, False), True),
    "np.bool_": ((62.25, np.bool_(True), np.bool_(False)), True),
}


@pytest.mark.parametrize("case", list(RULE_CASES))
def test_batch_rules_match_per_design_rules(mixed_space, case):
    """`encode_batch` on a batch holding the design, and `validate` on the
    design alone, accept or reject it as the per-design rules do; an
    accepted batch encodes bit for bit like the per-design formula."""
    values, accepted = RULE_CASES[case]
    design = Design(values)
    batch = [Design((12.0, False, True)), design, Design((88.0, True, True))]
    try:
        _per_design_validate(mixed_space, design)
        reference = True
    except SchemaError:
        reference = False
    assert reference == accepted
    if accepted:
        mixed_space.validate(design)
        X = encode_batch(mixed_space, batch)
        assert np.array_equal(X, np.stack([_per_design_encoding(mixed_space, d) for d in batch]))
    else:
        with pytest.raises(SchemaError):
            mixed_space.validate(design)
        with pytest.raises(SchemaError):
            encode_batch(mixed_space, batch)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_continuous_midpoint():
    space = DesignSpace((ContinuousDim("x", 0.0, 100.0),))
    assert encode_batch(space, [Design((50.0,))]).tolist() == [[0.5]]


def test_encode_booleans_identity():
    space = DesignSpace(tuple(BooleanDim(f"b{i}") for i in range(3)))
    assert encode_batch(space, [Design((True, False, True))]).tolist() == [[1.0, 0.0, 1.0]]


def test_decode_examples():
    cont = DesignSpace((ContinuousDim("x", 0.0, 100.0),))
    assert decode_design(cont, np.array([0.5])).values == (50.0,)
    assert decode_design(cont, np.array([1.7])).values == (100.0,)  # clamps to hi


def test_decode_wrong_length(mixed_space):
    with pytest.raises(SchemaError):
        decode_design(mixed_space, np.zeros(2))


@st.composite
def space_and_design(draw):
    dims = []
    values = []
    n = draw(st.integers(1, 5))
    for i in range(n):
        kind = draw(st.sampled_from(["cont", "bool"]))
        if kind == "cont":
            lo = draw(st.floats(-10, 10))
            hi = lo + draw(st.floats(0.5, 20))
            dims.append(ContinuousDim(f"d{i}", lo, hi))
            values.append(lo + draw(st.floats(0, 1)) * (hi - lo))
        else:
            dims.append(BooleanDim(f"d{i}"))
            values.append(draw(st.booleans()))
    return DesignSpace(tuple(dims)), Design(tuple(values))


@given(space_and_design())
def test_encode_decode_round_trip(sd):
    space, design = sd
    v = encode_batch(space, [design])[0]
    assert np.array_equal(v, _per_design_encoding(space, design))
    assert v.shape == (space.encoded_width,)
    assert np.all(np.isfinite(v))
    back = decode_design(space, v)
    for dim, a, b in zip(space.dims, design.values, back.values):
        if isinstance(dim, ContinuousDim):
            assert a == pytest.approx(b, abs=1e-9 * (dim.hi - dim.lo))
        else:
            assert a == b
    # idempotence of encode(decode(.)) on valid encodings
    assert np.allclose(encode_batch(space, [back])[0], v)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_contains_dim_values(dose_task):
    ctx = Context((0.1, -0.2, 0.3, 0.0), id="p1")
    text = render_text("dose", dose_task.space, ctx, Design((32.0,)))
    assert "Dose: 32.0" in text
    for i in range(4):
        assert f"x{i}=" in text


def test_render_deterministic(dose_task):
    ctx = Context((1.0, 2.0, 3.0, 4.0), id="p2")
    a = render_text("dose", dose_task.space, ctx, Design((32.0,)))
    b = render_text("dose", dose_task.space, ctx, Design((32.0,)))
    assert a == b


def test_render_single_dim_diff(mixed_space):
    ctx = Context((0.5, 0.5), id="p3")
    t1 = render_text("t", mixed_space, ctx, Design((10.0, True, False)))
    t2 = render_text("t", mixed_space, ctx, Design((10.0, False, False)))
    diff = [(a, b) for a, b in zip(t1.splitlines(), t2.splitlines()) if a != b]
    assert len(diff) == 1
    assert diff[0][0].startswith("Boost:")


def test_render_context_in_render_text(mixed_space):
    ctx = Context((0.25, 0.75), id="p4")
    assert render_context(ctx) in render_text("t", mixed_space, ctx, Design((1.0, True, True)))


# ---------------------------------------------------------------------------
# hyperparams
# ---------------------------------------------------------------------------


def test_hyperparam_defaults():
    hp = Hyperparams()
    assert (hp.lambda0, hp.w0, hp.eta_lambda, hp.eta_critic) == (0.0, 1.0, 0.1, 0.001)
    assert (hp.batch_size, hp.budget, hp.mu_max) == (32, 2048, 100.0)


@pytest.mark.parametrize("kwargs", [
    {"lambda0": -0.1},
    {"eta_critic": 0.0},
    {"batch_size": 1},
    {"budget": 16, "batch_size": 32},
    {"mu_max": 0.0},
    {"w0": float("nan")},
    {"mu_max": float("nan")},
    {"eta_lambda": float("inf")},
])
def test_hyperparam_validation(kwargs):
    with pytest.raises(ValueError):
        Hyperparams(**kwargs)


# ---------------------------------------------------------------------------
# trajectory memory
# ---------------------------------------------------------------------------


def _entry_args(n, step=1):
    designs = [Design((float(i),)) for i in range(n)]
    raws = [float(i) for i in range(n)]
    scores = [2.0 * i for i in range(n)]
    return step, designs, raws, scores, [0] * n


def test_memory_budget_enforced():
    mem = TrajectoryMemory(budget=4)
    mem.append_batch(*_entry_args(4))
    with pytest.raises(ValueError):
        mem.append_batch(*_entry_args(1, step=2))


def test_memory_steps_monotone():
    mem = TrajectoryMemory(budget=8)
    mem.append_batch(*_entry_args(2, step=3))
    with pytest.raises(ValueError):
        mem.append_batch(*_entry_args(2, step=2))


def test_memory_scores_exact_product():
    mu = 0.37
    raws = np.array([1.5, -2.25, 0.0])
    mem = TrajectoryMemory(budget=3)
    mem.append_batch(1, [Design((0.0,))] * 3, raws, mu * raws, [0, 1, 2])
    for e, r in zip(mem.entries, raws):
        assert e.score == mu * r  # bitwise: same product


def test_design_context_json_round_trip():
    # designs are written to results.json and never read back
    assert Design((12.5, False, True)).to_json() == {"values": [12.5, False, True]}
    written = Design((12.5, np.bool_(True))).to_json()["values"]
    assert written == [12.5, True] and type(written[1]) is bool
