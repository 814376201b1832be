import dataclasses
import pickle

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
    read_float,
    read_int,
    render_context,
    render_text,
)
from leon.tasks import oracle_eval


# ---------------------------------------------------------------------------
# space construction
# ---------------------------------------------------------------------------


def test_space_invariants():
    with pytest.raises(SchemaError):
        ContinuousDim("x", 1.0, 1.0)
    with pytest.raises(SchemaError):
        DesignSpace(())


def test_space_layout_is_read_only_and_survives_pickling(mixed_space):
    """The layout arrays are computed once, cannot be written, stay out of
    eq, hash and repr, and are rebuilt read-only by unpickling."""
    again = pickle.loads(pickle.dumps(mixed_space))
    for space in (mixed_space, again):
        assert space.is_bool.tolist() == [False, True, True]
        assert space.lo.tolist() == [0.0, 0.0, 0.0] and space.hi.tolist() == [100.0, 1.0, 1.0]
        for a in (space.is_bool, space.lo, space.hi):
            with pytest.raises(ValueError):
                a[0] = 1
    assert again == mixed_space and hash(again) == hash(mixed_space)
    assert "is_bool" not in repr(mixed_space)


def test_design_validation(mixed_space, dose_task):
    mixed_space.validate(Design((50.0, True, False)))
    with pytest.raises(SchemaError):
        mixed_space.validate(Design((50.0, True)))  # arity
    with pytest.raises(SchemaError):
        mixed_space.validate(Design((101.0, True, False)))  # out of range
    with pytest.raises(SchemaError, match="not a bool"):
        mixed_space.validate(Design((50.0, 1, False)))  # int is not a bool here
    # the harness's oracle call checks its outside design the same way
    task = dataclasses.replace(dose_task, space=mixed_space)
    with pytest.raises(SchemaError, match="not a bool"):
        oracle_eval(task, Design((50.0, 1, False)), Context((0.0,) * 4))


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


# name: (design values, accepted by `validate`, the `encode_batch` error on
# value rows holding them as row 1, or None when the rows are accepted)
RULE_CASES = {
    "short arity": ((50.0, True), False, r"shape \(n, 3\), got \(1, 2\)"),
    "long arity": ((50.0, True, False, True), False, r"shape \(n, 3\), got \(1, 4\)"),
    "1-D input": ((50.0, True, False), True, r"shape \(n, 3\), got \(3,\)"),
    "below lo": ((-0.5, True, False), False, r"row 1: Dose=-0.5 outside"),
    "above hi": ((100.5, True, False), False, r"row 1: Dose=100.5 outside"),
    "nan": ((float("nan"), True, False), False, r"row 1: Dose=nan outside"),
    "inf": ((float("inf"), True, False), False, r"row 1: Dose=inf outside"),
    "-inf": ((float("-inf"), True, False), False, r"row 1: Dose=-inf outside"),
    "0.5 for a bool": ((50.0, 0.5, False), False, r"row 1: Boost=0.5 is not 0 or 1"),
    "2.0 for a bool": ((50.0, True, 2.0), False, r"row 1: Taper=2.0 is not 0 or 1"),
    # value rows carry no types: only an outside `Design` is type-checked
    "int 1 for a bool": ((50.0, 1, False), False, None),
    "float 1.0 for a bool": ((50.0, True, 1.0), False, None),
    "exactly lo": ((0.0, True, False), True, None),
    "exactly hi": ((100.0, False, True), True, None),
    "bool": ((37.5, True, False), True, None),
    "np.bool_": ((62.25, np.bool_(True), np.bool_(False)), True, None),
}


@pytest.mark.parametrize("case", list(RULE_CASES))
def test_batch_rules_match_per_design_rules(mixed_space, case):
    """`validate` accepts or rejects a design as the per-design rules do;
    `encode_batch` on value rows holding its values accepts them or names
    the first bad row and dim, and accepted rows encode bit for bit like
    the per-design formula."""
    values, accepted, rows_error = RULE_CASES[case]
    design = Design(values)
    try:
        _per_design_validate(mixed_space, design)
        reference = True
    except SchemaError:
        reference = False
    assert reference == accepted
    if accepted:
        mixed_space.validate(design)
    else:
        with pytest.raises(SchemaError):
            mixed_space.validate(design)

    if case == "1-D input":
        rows = np.array(values, dtype=float)
    elif len(values) == len(mixed_space.dims):
        rows = np.array([(12.0, 0.0, 1.0), values, (88.0, 1.0, 1.0)], dtype=float)
    else:
        rows = np.array([values], dtype=float)
    if rows_error is None:
        X = encode_batch(mixed_space, rows)
        batch = [Design(tuple(r)) for r in rows]
        assert np.array_equal(X, np.stack([_per_design_encoding(mixed_space, d) for d in batch]))
    else:
        with pytest.raises(SchemaError, match=rows_error):
            encode_batch(mixed_space, rows)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_continuous_midpoint():
    space = DesignSpace((ContinuousDim("x", 0.0, 100.0),))
    assert encode_batch(space, [[50.0]]).tolist() == [[0.5]]


def test_encode_booleans_identity():
    space = DesignSpace(tuple(BooleanDim(f"b{i}") for i in range(3)))
    assert encode_batch(space, [[True, False, True]]).tolist() == [[1.0, 0.0, 1.0]]


def test_decode_examples():
    cont = DesignSpace((ContinuousDim("x", 0.0, 100.0),))
    assert decode_design(cont, np.array([[0.5], [1.7]])).tolist() == [[50.0], [100.0]]  # clamps
    bits = DesignSpace((BooleanDim("a"), BooleanDim("b")))
    assert decode_design(bits, np.array([[0.5, 0.49]])).tolist() == [[1.0, 0.0]]


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
    v = encode_batch(space, [design.values])[0]
    assert np.array_equal(v, _per_design_encoding(space, design))
    assert v.shape == (space.encoded_width,)
    assert np.all(np.isfinite(v))
    back = decode_design(space, v[None])
    for dim, a, b in zip(space.dims, design.values, back[0]):
        if isinstance(dim, ContinuousDim):
            assert a == pytest.approx(b, abs=1e-9 * (dim.hi - dim.lo))
        else:
            assert a == b
    # idempotence of encode(decode(.)) on valid encodings
    assert np.allclose(encode_batch(space, back)[0], v)


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
    assert (hp.lambda0, hp.w0, hp.eta_lambda) == (0.0, 1.0, 0.1)
    assert (hp.batch_size, hp.budget) == (32, 2048)
    assert Hyperparams(budget=np.int64(64), batch_size=np.int64(32)).budget == 64


@pytest.mark.parametrize("kwargs", [
    {"lambda0": -0.1},
    {"eta_lambda": -1.0},
    {"batch_size": 1},
    {"budget": 16, "batch_size": 32},
    {"w0": -0.5},
    {"w0": float("nan")},
    {"lambda0": float("inf")},
    {"eta_lambda": float("inf")},
    # memory preallocates `budget` rows: both sizes are integers, not bools
    {"budget": float("nan")},
    {"budget": 64.5},
    {"budget": 64.0},
    {"batch_size": 8.5},
    {"budget": True, "batch_size": 2},
    {"budget": 64, "batch_size": True},
])
def test_hyperparam_validation(kwargs):
    with pytest.raises(ValueError):
        Hyperparams(**kwargs)


def test_number_readers():
    """Python's and numpy's numbers are read, and stored as float or int;
    a bool, a string, a non-finite float or an integer too large for a
    float is not a finite number."""
    assert type(read_float(np.float32(0.5), "x", 0.0, 1.0)) is float
    assert type(read_float(3, "x")) is float and read_float(3, "x") == 3.0
    assert type(read_int(np.int64(8), "n", 1)) is int
    for bad in (True, "2", float("nan"), float("inf"), 10 ** 400, None):
        with pytest.raises(ValueError, match="x must be a finite number"):
            read_float(bad, "x")
    for bad in (True, 2.0, "2", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            read_int(bad, "n", 0)
    with pytest.raises(ValueError, match=r"x must be > 0.0, got 0.0"):
        read_float(0.0, "x", 0.0, lo_open=True)
    with pytest.raises(ValueError, match=r"x must be <= 1.0, got 1.5"):
        read_float(1.5, "x", 0.0, 1.0)
    with pytest.raises(ValueError, match=r"n must be >= 1, got 0"):
        read_int(0, "n", 1)


# ---------------------------------------------------------------------------
# trajectory memory
# ---------------------------------------------------------------------------


LINE = DesignSpace((ContinuousDim("x", 0.0, 100.0),))


def _entry_args(n):
    designs = np.arange(n, dtype=float)[:, None]
    raws = [float(i) for i in range(n)]
    scores = [2.0 * i for i in range(n)]
    return designs, raws, scores, [0] * n


def test_memory_budget_enforced():
    mem = TrajectoryMemory(LINE, budget=4)
    mem.append_batch(*_entry_args(4))
    with pytest.raises(ValueError):
        mem.append_batch(*_entry_args(1))


def test_memory_kth_append_is_step_k():
    """Every row of the k-th append is at step k, an empty append included;
    a rejected append writes nothing and takes no step."""
    mem = TrajectoryMemory(LINE, budget=6)
    mem.append_batch(*_entry_args(2))
    mem.append_batch(*_entry_args(3))
    designs, raws, scores, labels = _entry_args(2)
    for args in ((designs, raws[:1], scores, labels),  # misaligned
                 (designs[:, 0], raws, scores, labels),  # not (n, 1)
                 (designs, raws, scores, labels)):  # over budget
        with pytest.raises(ValueError):
            mem.append_batch(*args)
    assert mem.view().step.tolist() == [1, 1, 2, 2, 2]
    mem.append_batch(*_entry_args(0))
    mem.append_batch(*_entry_args(1))
    assert mem.view().step.tolist() == [1, 1, 2, 2, 2, 4]


def test_memory_scores_exact_product():
    mu = 0.37
    raws = np.array([1.5, -2.25, 0.0])
    mem = TrajectoryMemory(LINE, budget=3)
    mem.append_batch(np.zeros((3, 1)), raws, mu * raws, [0, 1, 2])
    for e, r in zip(mem.entries, raws):
        assert e.score == mu * r  # bitwise: same product


def test_memory_columns_give_back_what_was_appended(mixed_space):
    designs = [Design((0.1 + 0.2, True, False)), Design((100.0, np.bool_(False), np.bool_(True))),
               Design((5e-324, False, False))]
    raws = [1.0 / 3.0, -0.0, -7.25]
    scores = [0.1 * r for r in raws]
    rows = np.array([d.values for d in designs], dtype=float)
    mem = TrajectoryMemory(mixed_space, budget=4)
    mem.append_batch(rows[:2], np.array(raws[:2]), scores[:2], np.array([3, 0]))
    mem.append_batch(rows[2:], raws[2:], scores[2:], [1])
    assert len(mem) == 3
    entries = mem.entries
    assert [e.step for e in entries] == [1, 1, 2]
    assert [e.class_id for e in entries] == [3, 0, 1]
    for e, d, r, s in zip(entries, designs, raws, scores):
        assert e.design == d
        assert [type(v) for v in e.design.values] == [float, bool, bool]
        assert np.float64(e.design.values[0]).tobytes() == np.float64(d.values[0]).tobytes()
        assert (np.float64(e.raw_value).tobytes(), np.float64(e.score).tobytes()) == \
            (np.float64(r).tobytes(), np.float64(s).tobytes())
    assert mem.view(last=2).entries == entries[1:]
    for args, message in (
        ((rows[:1], raws[:2], scores[:1], [0]), "misaligned"),
        ((rows[:2], raws[:2], scores[:2], [0, 0]), "budget 4 exceeded"),
        ((np.ones((1, 1)), raws[:1], scores[:1], [0]), "shape"),  # would broadcast
        ((rows[0], raws[:3], scores[:3], [0] * 3), "shape"),
    ):
        with pytest.raises(ValueError, match=message):
            mem.append_batch(*args)
    assert mem.entries == entries  # a rejected batch writes nothing
    mem.append_batch(np.empty((0, 3)), [], [], [])
    assert len(mem) == 3

    # an all-boolean space keeps one byte per value and gives back bools
    bits = TrajectoryMemory(DesignSpace((BooleanDim("a"), BooleanDim("b"))), budget=2)
    bits.append_batch(np.array([[1.0, 0.0], [0.0, 1.0]]), [0.5, 1.5], [0.5, 1.5], [0, 1])
    assert bits.view().values.dtype == bool
    assert [e.design.values for e in bits.entries] == [(True, False), (False, True)]
    assert [type(v) for v in bits.view().design(1).values] == [bool, bool]


def test_design_context_json_round_trip():
    # designs are written to results.json and never read back
    assert Design((12.5, False, True)).to_json() == {"values": [12.5, False, True]}
    written = Design((12.5, np.bool_(True))).to_json()["values"]
    assert written == [12.5, True] and type(written[1]) is bool
