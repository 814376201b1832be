import hashlib
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from leon.core import (
    BooleanDim,
    Context,
    ContinuousDim,
    Design,
    DesignSpace,
    Hyperparams,
    SchemaError,
    TrajectoryMemory,
    encode_batch,
    render_context,
)
from leon.numerics import shannon_entropy, stable_softmax
from leon.optimizer import RunConfig, run_leon
from leon.proposal import (
    BOLTZMANN_EXPLORE,
    BOLTZMANN_POOL_SIZE,
    BOLTZMANN_TOP_M,
    BoltzmannMemoryEngine,
    ChatApiEngine,
    DesignParseError,
    FileCorpusSource,
    HillClimbEngine,
    PROMPT_HEADERS,
    PromptState,
    RandomEngine,
    StaticFactsSource,
    build_prompt,
    generate_knowledge,
    memory_table,
    parse_designs,
    perturb_design,
    propose,
    random_design,
    reflect,
)
from leon.proposal import _adaptive_scale
from leon.tasks import make_dose_task, make_regimen_task

SPACE = DesignSpace((
    ContinuousDim("Dose", 0.0, 100.0),
    BooleanDim("Boost"),
    BooleanDim("Taper"),
))

CTX = Context((0.1, -0.4), id="p7")
NO_SERVER = "http://127.0.0.1:1"  # a local port that refuses connections


def _state(entries=(), knowledge="", reflection="", space=SPACE):
    """A prompt state whose memory view holds `entries`, in order, one
    `(values, raw, score)` entry per step."""
    memory = TrajectoryMemory(space, budget=max(len(entries), 1))
    for values, raw, score in entries:
        memory.append_batch(np.array([values], dtype=float), [raw], [score], [0])
    return PromptState(
        knowledge=knowledge, reflection=reflection, memory_view=memory.view(),
        context=CTX, task_description="maximize the response",
    )


def _entry(dose, raw, score, boost=True, taper=False):
    return (dose, boost, taper), raw, score


# ---------------------------------------------------------------------------
# prompt assembly
# ---------------------------------------------------------------------------


def test_prompt_has_all_headers_when_empty():
    text = build_prompt(_state())
    for header in PROMPT_HEADERS:
        assert header in text


def test_prompt_contains_context_rendering():
    assert render_context(CTX) in build_prompt(_state())


def test_memory_table_row_count():
    assert len(memory_table(_state().memory_view).splitlines()) == 2  # header + separator
    table = memory_table(_state([_entry(20.0, 1.0, 1.0)]).memory_view)
    assert len(table.splitlines()) == 3
    assert "20.0000" in table
    # the chat prompt renders the memory view's value rows and scores
    entries = [_entry(20.0, 1.0, 1.0), _entry(1 / 3, -0.5, -0.25, boost=False, taper=True)]
    rows = "| 0 | 20.0000, yes, no | 1.0000 |\n| 1 | 0.3333, no, yes | -0.2500 |"
    state = _state(entries)
    assert memory_table(state.memory_view).endswith(rows)
    assert f"### Previously Proposed Designs\n{memory_table(state.memory_view)}\n\n" in \
        build_prompt(state)


def _full_view_state(task):
    """A prompt state on `task` whose memory view holds 64 random rows."""
    rng = np.random.default_rng(5)
    memory = TrajectoryMemory(task.space, budget=64)
    for _ in range(2):
        V = random_design(task.space, rng, 32)
        raw = rng.normal(size=32)
        memory.append_batch(V, raw, 0.5 * raw, rng.integers(4, size=32))
    ctx = task.sample_context(rng, "target", id="p000")
    return PromptState(knowledge="Doses above 60 help.", reflection="Explore higher doses.",
                       memory_view=memory.view(64), context=ctx,
                       task_description=task.description)


@pytest.mark.parametrize("task, digest", [
    (make_dose_task(0), "4a21bb48dad097dabbe1d4fa15576d84e44bcfe2ac37d99626b6680adfd67fc6"),
    (make_regimen_task(0), "dfd006aee0d5c2ad60df9397d455ed4c5a11df5a05e1c51554de7b9f9b0a258d"),
], ids=["dose", "regimen"])
def test_prompt_bytes_are_pinned(task, digest):
    """The chat prompt over a full memory view, byte for byte: the dose
    view's values are float64, the regimen's bool."""
    text = build_prompt(_full_view_state(task))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_prompt_distinct_inputs_distinct_bytes():
    a = build_prompt(_state(knowledge="k1"))
    b = build_prompt(_state(knowledge="k2"))
    c = build_prompt(_state(reflection="r"))
    assert len({a, b, c}) == 3


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _payload(n, dose=10.0):
    return json.dumps([{"Dose": dose + i, "Boost": True, "Taper": True} for i in range(n)])


def test_parse_well_formed():
    designs, rejects = parse_designs(_payload(4), SPACE, 4)
    assert designs.shape == (4, 3) and designs.dtype == float and rejects == 0
    assert designs[0].tolist() == [10.0, 1.0, 1.0]  # booleans as 0.0/1.0


def test_parse_clamps_out_of_range():
    raw = json.dumps([{"Dose": 150.0, "Boost": False, "Taper": False}])
    designs, rejects = parse_designs(raw, SPACE, 1)
    assert rejects == 0
    assert designs[0, 0] == 100.0


def test_parse_rejects_malformed_element():
    items = json.loads(_payload(3))
    items[1] = {"Dose": 5.0, "Boost": "maybe", "Taper": True}  # not a boolean
    designs, rejects = parse_designs(json.dumps(items), SPACE, 3)
    assert len(designs) == 2 and rejects == 1
    items[1] = {"Dose": True, "Boost": True, "Taper": False}  # a boolean is not a dose
    designs, rejects = parse_designs(json.dumps(items), SPACE, 3)
    assert len(designs) == 2 and rejects == 1
    items[1] = {"Dose": "55", "Boost": True, "Taper": False}  # nor is a string
    designs, rejects = parse_designs(json.dumps(items), SPACE, 3)
    assert len(designs) == 2 and rejects == 1
    items[1] = {"Dose": 55, "Boost": "yes", "Taper": "false"}  # boolean words stay booleans
    designs, rejects = parse_designs(json.dumps(items), SPACE, 3)
    assert designs[1].tolist() == [55.0, 1.0, 0.0] and rejects == 0


def test_parse_rejects_nan_and_oversized_numbers():
    raw = ('[{"Dose": NaN, "Boost": true, "Taper": false}, '
           '{"Dose": 1' + "0" * 400 + ', "Boost": true, "Taper": false}, '
           '{"Dose": 7.5, "Boost": false, "Taper": true}]')
    designs, rejects = parse_designs(raw, SPACE, 3)
    assert designs.tolist() == [[7.5, 0.0, 1.0]] and rejects == 2


def test_parse_clamps_infinities_to_the_bounds():
    raw = ('[{"Dose": Infinity, "Boost": true, "Taper": false}, '
           '{"Dose": -Infinity, "Boost": true, "Taper": false}]')
    designs, rejects = parse_designs(raw, SPACE, 2)
    assert designs[:, 0].tolist() == [100.0, 0.0] and rejects == 0


def test_parse_malformed_json_raises():
    with pytest.raises(DesignParseError):
        parse_designs("not json at all", SPACE, 2)
    with pytest.raises(DesignParseError):
        parse_designs("[{\"Dose\": }", SPACE, 2)


def test_parse_strips_code_fences():
    raw = "```json\n" + _payload(2) + "\n```"
    designs, _ = parse_designs(raw, SPACE, 2)
    assert len(designs) == 2


@pytest.mark.parametrize("raw", [
    'Here: [{"Dose": 10}] (see note [1])',
    '```json\n[{"Dose": 10}]\n```\nThis follows rule [a].',
], ids=["prose", "fence"])
def test_parse_reads_the_array_at_the_first_bracket(raw):
    """A bracket after the array, in prose or past a code fence, is not
    part of it: the reply used to be malformed JSON ("Extra data")."""
    designs, rejects = parse_designs(raw, DesignSpace((ContinuousDim("Dose", 0.0, 100.0),)), 2)
    assert designs.tolist() == [[10.0]] and rejects == 0


def test_parse_accepts_boolean_spellings():
    raw = json.dumps([{"Dose": 1.0, "Boost": "yes", "Taper": False},
                      {"Dose": 2.0, "Boost": 0, "Taper": False}])
    designs, rejects = parse_designs(raw, SPACE, 2)
    assert rejects == 0
    assert designs[:, 1].tolist() == [1.0, 0.0]


def test_parse_with_no_valid_element_gives_empty_rows():
    designs, rejects = parse_designs('[{"Dose": 1.0}, 5]', SPACE, 2)
    assert designs.shape == (0, 3) and rejects == 2


# ---------------------------------------------------------------------------
# mock engines
# ---------------------------------------------------------------------------


def test_random_engine_reproducible():
    space = DesignSpace(tuple(BooleanDim(f"b{i}") for i in range(4)))
    a, Xa = propose(RandomEngine(seed=11), _state(space=space), 8)
    b, Xb = propose(RandomEngine(seed=11), _state(space=space), 8)
    assert np.array_equal(a, b) and np.array_equal(Xa, Xb)
    assert a.shape == (8, 4) and np.isin(a, (0.0, 1.0)).all()


def test_propose_returns_exactly_b():
    for engine in (RandomEngine(seed=0), BoltzmannMemoryEngine(seed=0), HillClimbEngine(seed=0)):
        designs, X = propose(engine, _state(), 5)
        assert len(designs) == 5
        assert np.array_equal(X, encode_batch(SPACE, designs))


def test_propose_validates_b():
    with pytest.raises(ValueError):
        propose(RandomEngine(seed=0), _state(), 0)


class _FixedEngine(RandomEngine):
    def __init__(self, designs):
        super().__init__(seed=0)
        self.designs = designs

    def propose(self, state, b):
        return np.array(self.designs, dtype=float)


# value rows carry no types, so a boolean's bad value is one that is not 0 or 1
@pytest.mark.parametrize("bad", [(float("nan"), 1.0, 0.0), (100.5, 1.0, 0.0), (50.0, 0.5, 0.0)])
def test_propose_rejects_an_invalid_design(bad):
    engine = _FixedEngine([(10.0, 1.0, 0.0), bad, (20.0, 0.0, 0.0)])
    with pytest.raises(SchemaError, match="row 1"):
        propose(engine, _state(), 3)


def test_propose_rejects_a_short_batch():
    engine = _FixedEngine([(10.0, 1.0, 0.0)] * 3)
    with pytest.raises(RuntimeError):
        propose(engine, _state(), 4)
    engine.propose = lambda state, b: [Design((10.0, True, False))] * b  # not an array
    with pytest.raises(RuntimeError, match=r"expected a \(3, 3\) value array"):
        propose(engine, _state(), 3)


def test_boltzmann_temp_zero_collapses():
    entries = [_entry(50.0, 10.0, 10.0)] + [_entry(float(i), -5.0, -5.0) for i in range(5)]
    engine = BoltzmannMemoryEngine(seed=3, temp=0.0)
    designs = engine.propose(_state(entries), 6)
    assert len(np.unique(designs, axis=0)) == 1
    assert designs[0, 0] == 50.0  # the dominant-score member is the incumbent


def test_boltzmann_high_temp_uniform_over_pool():
    """Far above the score spread, the engine draws uniformly from its pool:
    its draw is the one a uniform `choice` makes from the same generator
    state (the probabilities differ from 1/64 by about 1e-9 of it, so no
    draw lands between the two cumulative sums)."""
    entries = [_entry(float(10 * i), float(i), float(i)) for i in range(6)]
    reference = BoltzmannMemoryEngine(seed=21, temp=1e9)
    pool, _ = reference._build_pool(_state(entries))
    uniform = np.full(len(pool), 1.0 / len(pool))
    want = pool[reference.rng.choice(len(pool), size=512, replace=True, p=uniform)]
    engine = BoltzmannMemoryEngine(seed=21, temp=1e9)
    assert np.array_equal(engine.propose(_state(entries), 512), want)


def test_boltzmann_entropy_monotone_in_inverse_temp():
    entries = [_entry(float(10 * i), float(i), float(i)) for i in range(6)]
    hs = []
    for temp in (10.0, 1.0, 0.1):  # decreasing temp, increasing 1/temp
        engine = BoltzmannMemoryEngine(seed=5, temp=temp)
        draws = engine.propose(_state(entries), 512)
        counts = {}
        for d in map(tuple, draws):
            counts[d] = counts.get(d, 0) + 1
        p = np.array(list(counts.values())) / 512
        hs.append(shannon_entropy(p))
    assert hs[0] >= hs[1] >= hs[2]


# The mock engines draw a batch with one generator call per kind of dim.
# For the single-kind spaces of both tasks that is the same stream, in the
# same order, as one scalar draw per design and dim; the loops below are
# that scalar reference.


def _scalar_random(space, rng, n):
    return np.array([[rng.uniform(dim.lo, dim.hi) if isinstance(dim, ContinuousDim)
                      else float(rng.integers(2)) for dim in space.dims] for _ in range(n)])


def _scalar_perturb(space, rows, rng, sigmas, flips):
    out = []
    for row, sigma, flip in zip(rows, sigmas, flips):
        vals = []
        for dim, v in zip(space.dims, row):
            if isinstance(dim, ContinuousDim):
                x = float(v) + rng.normal(0.0, sigma * (dim.hi - dim.lo))
                vals.append(min(max(x, dim.lo), dim.hi))
            else:
                vals.append(float(not v) if rng.random() < flip else float(v))
        out.append(vals)
    return np.array(out)


def _scalar_pool(engine, space, view):
    """The pool built one design at a time: explore draws, the top parents,
    then alternating coarse and fine perturbations of each parent in turn."""
    top = np.argsort(-view.raw, kind="stable")[:BOLTZMANN_TOP_M]
    parents = view.values[top].astype(float)
    parent_scores = view.score[top].tolist()
    pool = list(_scalar_random(space, engine.rng, BOLTZMANN_EXPLORE)) + list(parents)
    scores = [min(parent_scores)] * BOLTZMANN_EXPLORE + parent_scores
    sigma, flip = _adaptive_scale(space, parents)
    i = 0
    while len(pool) < BOLTZMANN_POOL_SIZE:
        k, scale = i % len(parents), (1.0 if i % 2 == 0 else 0.1)
        pool += list(_scalar_perturb(space, parents[k:k + 1], engine.rng,
                                     [max(sigma * scale, 1e-4)], [max(flip * scale, 0.01)]))
        scores.append(parent_scores[k])
        i += 1
    return np.array(pool), np.array(scores)


TASK_SPACES = {"dose": make_dose_task(0).space, "regimen": make_regimen_task(0).space}


@pytest.mark.parametrize("name", list(TASK_SPACES))
def test_batch_draws_equal_the_scalar_draws(name):
    space = TASK_SPACES[name]
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    V = random_design(space, a, 40)
    assert np.array_equal(V, _scalar_random(space, b, 40))
    assert a.random() == b.random()

    sigmas, flips = np.where(np.arange(40) % 2 == 0, 0.2, 0.02), np.full(40, 0.3)
    moved = perturb_design(space, V, a, sigmas, flips)
    assert np.array_equal(moved, _scalar_perturb(space, V, b, sigmas, flips))
    assert a.random() == b.random()
    assert not np.array_equal(moved, V)

    memory = TrajectoryMemory(space, budget=40)
    raw = np.random.default_rng(4).normal(size=40)
    memory.append_batch(V, raw, 0.5 * raw, np.zeros(40, dtype=np.int64))
    state = _state(space=space)
    state.memory_view = memory.view()
    engine, reference = BoltzmannMemoryEngine(seed=9), BoltzmannMemoryEngine(seed=9)
    proposed = engine.propose(state, 32)
    pool, scores = _scalar_pool(reference, space, memory.view())
    probs = stable_softmax(scores / reference.temp)
    assert np.array_equal(proposed, pool[reference.rng.choice(len(pool), size=32, p=probs)])
    assert engine.rng.random() == reference.rng.random()


def _draw_both_kinds(space, rng, n, V, sigma, flip):
    """The draws of `random_design` then `perturb_design` with both kinds
    of draw always taken, a size-0 one included: the generator state those
    calls leave."""
    is_bool, lo, hi = space.is_bool, space.lo, space.hi
    cont = ~is_bool
    rng.uniform(lo[cont], hi[cont], size=(n, cont.sum()))
    rng.integers(2, size=(n, is_bool.sum()))
    rng.normal(0.0, sigma[:, None] * (hi - lo)[cont], size=(len(V), cont.sum()))
    rng.random((len(V), is_bool.sum()))


@pytest.mark.parametrize("name", list(TASK_SPACES))
def test_a_kind_of_dim_the_space_lacks_takes_no_draw(name):
    """Skipping the size-0 draw of a kind of dim the space lacks leaves the
    generator where the draw would have: a size-0 draw takes no state."""
    space = TASK_SPACES[name]
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    sigmas, flips = np.full(5, 0.2), np.full(5, 0.3)
    V = random_design(space, a, 5)
    perturb_design(space, V, a, sigmas, flips)
    _draw_both_kinds(space, b, 5, V, sigmas, flips)
    assert a.bit_generator.state == b.bit_generator.state


def test_engine_params_are_checked():
    for temp in ("hot", -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            BoltzmannMemoryEngine(seed=0, temp=temp)
    # the end of the range is accepted, and numpy's numbers
    BoltzmannMemoryEngine(seed=0, temp=0)
    BoltzmannMemoryEngine(seed=0, temp=np.float64(2.0))


def test_hill_climb_without_memory_is_random():
    engine = HillClimbEngine(seed=9)
    designs, _ = propose(engine, _state(), 4)
    assert len(designs) == 4


def test_hill_climb_perturbs_best():
    entries = [_entry(40.0, 3.0, 3.0), _entry(90.0, -1.0, -1.0)]
    engine = HillClimbEngine(seed=2)
    designs = engine.propose(_state(entries), 16)
    assert np.all(np.abs(designs[:, 0] - 40.0) < 20.0)  # 4 sigma of 0.05 of the width 100


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# knowledge sources
# ---------------------------------------------------------------------------


def test_static_source_verbatim():
    src = StaticFactsSource("facts", "response rises with dose up to a threshold")
    assert src.query("anything") == "response rises with dose up to a threshold"


def test_file_corpus_ranking(tmp_path):
    doc_a = tmp_path / "a.txt"
    doc_a.write_text("alpha beta gamma\n\ndelta epsilon zeta", encoding="utf-8")
    doc_b = tmp_path / "b.txt"
    doc_b.write_text("alpha beta gamma delta syntax", encoding="utf-8")
    src = FileCorpusSource("corpus", (str(doc_a), str(doc_b)), top_k=1)
    # query shares 4 tokens with doc B's passage, at most 3 with doc A's
    assert src.query("alpha beta gamma delta").startswith("alpha beta gamma delta")
    assert src.query("") == ""


def test_file_corpus_three_token_overlap(tmp_path):
    (tmp_path / "x.txt").write_text("quark lepton boson\n\nspin charge parity", encoding="utf-8")
    src = FileCorpusSource("corpus", (str(tmp_path / "x.txt"),), top_k=1)
    assert src.query("quark lepton boson please") == "quark lepton boson"


def test_file_corpus_takes_one_path(tmp_path):
    """A `str` or `os.PathLike` is one path, not a sequence of characters."""
    doc = tmp_path / "notes.txt"
    doc.write_text("quark lepton\n\nspin charge", encoding="utf-8")
    for path in (str(doc), doc):
        src = FileCorpusSource("corpus", path)
        assert src.paths == (path,)
        assert src.passages == ["quark lepton", "spin charge"]
        assert src.warnings == []


def test_file_corpus_top_k_is_a_positive_integer(tmp_path):
    """`top_k` is read at construction: a negative, zero, fractional or
    boolean `top_k` raises there, not on the first query."""
    doc = tmp_path / "notes.txt"
    doc.write_text("quark one\n\nquark two\n\nquark three", encoding="utf-8")
    for top_k in (-1, 0, 2.5, True, "2"):
        with pytest.raises(ValueError, match="top_k must be"):
            FileCorpusSource("corpus", doc, top_k=top_k)
    assert FileCorpusSource("corpus", doc, top_k=np.int64(2)).query("quark") == \
        "quark one\n\nquark two"


def test_file_corpus_unreadable_file(tmp_path):
    src = FileCorpusSource("corpus", (str(tmp_path / "missing.txt"),), top_k=1)
    assert src.warnings
    assert src.query("anything") == ""


def test_file_corpus_undecodable_file_is_skipped(tmp_path):
    """A file that is not UTF-8 is unreadable too: it adds one warning, and
    the other files' passages are kept."""
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe quark lepton")
    (tmp_path / "good.txt").write_text("quark lepton boson", encoding="utf-8")
    src = FileCorpusSource("corpus", (str(tmp_path / "bad.txt"), str(tmp_path / "good.txt")))
    assert src.passages == ["quark lepton boson"]
    assert len(src.warnings) == 1 and src.warnings[0].startswith("unreadable corpus file")


def test_file_corpus_reads_its_passages_and_warnings_from_its_files():
    for output in ("passages", "warnings"):
        with pytest.raises(TypeError):
            FileCorpusSource("corpus", (), **{output: ["given"]})


# ---------------------------------------------------------------------------
# knowledge generation
# ---------------------------------------------------------------------------


class CountingSource:
    def __init__(self, name, answer):
        self.name = name
        self.answer = answer
        self.calls = 0

    def query(self, q):
        self.calls += 1
        return self.answer


def _chat_engine(replies):
    """A chat engine whose `_chat` replays `replies` in order and records
    the prompt of every request in `engine.prompts`."""
    engine = ChatApiEngine(model="stub", endpoint=NO_SERVER, seed=0)
    engine.prompts = []
    queue = list(replies)

    def chat(messages):
        engine.prompts.append(messages[-1]["content"])
        return queue.pop(0)

    engine._chat = chat
    return engine


def _action(source=None):
    """A knowledge-action reply: query `source`, or stop when it is None."""
    return json.dumps({"source": source, "query": f"about {source}", "stop": source is None})


def test_generate_knowledge_zero_budget():
    engine = _chat_engine(["synthesized"])
    out = generate_knowledge(engine, [StaticFactsSource("s", "text")], _state(), budget=0)
    assert out == "synthesized"
    assert len(engine.prompts) == 1 and "Retrieved material:\n(none)" in engine.prompts[0]


def test_generate_knowledge_stop_after_one():
    engine = _chat_engine([_action("a"), _action(None), "synthesized"])
    sources = [CountingSource("a", "ans-a"), CountingSource("b", "ans-b")]
    out = generate_knowledge(engine, sources, _state(), budget=5)
    assert sources[0].calls == 1 and sources[1].calls == 0
    assert out == "synthesized"
    assert "[a] query: about a\nans-a" in engine.prompts[-1]
    assert "ans-b" not in engine.prompts[-1]


def test_generate_knowledge_round_robin():
    engine = _chat_engine([_action("a"), _action("b"), _action("a"), _action("b"), "synthesized"])
    sources = [CountingSource("a", "ans-a"), CountingSource("b", "ans-b")]
    out = generate_knowledge(engine, sources, _state(), budget=4)
    assert sources[0].calls == 2 and sources[1].calls == 2
    assert out == "synthesized"
    transcript = "\n\n".join(f"[{k}] query: about {k}\nans-{k}" for k in "abab")
    assert f"Retrieved material:\n{transcript}\n\n" in engine.prompts[-1]


def test_generate_knowledge_source_failure_skipped():
    class FailingSource:
        name = "bad"

        def query(self, q):
            raise OSError("disk on fire")

    engine = _chat_engine([_action("bad")] * 3 + ["synthesized"])
    out = generate_knowledge(engine, [FailingSource()], _state(), budget=3)
    assert out == "synthesized"
    assert "Retrieved material:\n(none)" in engine.prompts[-1]
    assert any("knowledge source failed" in w for w in engine.warnings)


def test_generate_knowledge_respects_budget():
    engine = _chat_engine([_action("a")] * 3 + ["synthesized"])
    sources = [CountingSource("a", "x")]
    assert generate_knowledge(engine, sources, _state(), budget=3) == "synthesized"
    assert sources[0].calls == 3 and len(engine.prompts) == 4


@pytest.mark.parametrize("payload", [[1, 2], "just text", None])
def test_non_object_action_reply_keeps_retrieved_material(payload):
    """A knowledge-action reply that is JSON but not an object stops the
    rounds with a warning, like malformed JSON; what was already retrieved
    still reaches the synthesis."""
    engine = _chat_engine([_action("facts"), json.dumps(payload), "synthesized"])
    out = generate_knowledge(engine, [StaticFactsSource("facts", "the facts")], _state(),
                             budget=3)
    assert out == "synthesized"
    assert "the facts" in engine.prompts[-1]
    assert any("knowledge action failed" in w for w in engine.warnings)


@pytest.mark.parametrize("reply", [
    'Sure: {"source": "facts", "query": "dose", "stop": false}. Next I will ask {more}.',
    '```json\n{"source": "facts", "query": "dose", "stop": false}\n```',
    '[{"source": "facts", "query": "dose", "stop": false}]',
], ids=["prose", "fence", "in-a-list"])
def test_action_reply_is_read_from_its_first_brace(reply):
    """The action is the JSON object at the reply's first `{`, whatever
    text surrounds it; a list around it is ignored as well."""
    engine = _chat_engine([reply, "synthesized"])
    out = generate_knowledge(engine, [StaticFactsSource("facts", "the facts")], _state(),
                             budget=1)
    assert out == "synthesized"
    assert "[facts] query: dose\nthe facts" in engine.prompts[-1]
    assert engine.warnings == []


def test_unknown_source_warning_is_bounded():
    """A model reply naming a long unknown source is echoed cut short."""
    engine = _chat_engine([_action("x" * 100_000), "synthesized"])
    assert generate_knowledge(engine, [StaticFactsSource("facts", "f")], _state(), budget=3) \
        == "synthesized"
    [warning] = engine.warnings
    assert warning.startswith("unknown knowledge source 'xxx") and len(warning) < 100


# replies `json.loads` rejects with a plain ValueError (an integer over 4,300
# digits) or a RecursionError (nesting deeper than the interpreter's limit)
OVERLONG_INT = "1" + "0" * 5000
TOO_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("reply", [
    '{"source": "facts", "query": ' + OVERLONG_INT + ', "stop": false}',
    '{"source": "facts", "query": ' + TOO_DEEP + ', "stop": false}',
], ids=["overlong-int", "too-deep"])
def test_unparsable_action_reply_keeps_retrieved_material(reply):
    """A second action reply that `json.loads` cannot convert ends the
    rounds with a warning; the first round's material still reaches the
    synthesis request."""
    engine = _chat_engine([_action("facts"), reply, "synthesized"])
    out = generate_knowledge(engine, [StaticFactsSource("facts", "the facts")], _state(),
                             budget=3)
    assert out == "synthesized"
    assert len(engine.prompts) == 3 and "the facts" in engine.prompts[-1]
    assert any("knowledge action failed" in w for w in engine.warnings)


def test_mock_engines_neither_reflect_nor_retrieve():
    sources = [CountingSource("a", "ans-a")]
    for engine in (RandomEngine(seed=0), BoltzmannMemoryEngine(seed=0), HillClimbEngine(seed=0)):
        assert reflect(engine, _state(), np.array([0.5])) == ""
        assert generate_knowledge(engine, sources, _state(), budget=3) == ""
    assert sources[0].calls == 0


# ---------------------------------------------------------------------------
# chat engine against a local stub
# ---------------------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    responses = []
    requests = []
    status = 200

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _StubHandler.requests.append(json.loads(self.rfile.read(length)))
        body = _StubHandler.responses.pop(0) if _StubHandler.responses else "[]"
        payload = json.dumps({"choices": [{"message": {"content": body}}]}).encode()
        self.send_response(_StubHandler.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    # a short poll lets `shutdown` return at once instead of after 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    _StubHandler.responses = []
    _StubHandler.requests = []
    _StubHandler.status = 200
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_chat_engine_needs_an_endpoint(monkeypatch):
    """The endpoint is `endpoint`, else CHAT_API_BASE; with neither, the
    engine is not built."""
    monkeypatch.delenv("CHAT_API_BASE", raising=False)
    with pytest.raises(ValueError, match="endpoint"):
        ChatApiEngine(model="stub")
    with pytest.raises(ValueError, match="endpoint"):
        RunConfig(engine="chat-api")
    monkeypatch.setenv("CHAT_API_BASE", NO_SERVER)
    assert ChatApiEngine(model="stub").endpoint == NO_SERVER
    assert ChatApiEngine(model="stub", endpoint="http://127.0.0.1:2").endpoint \
        == "http://127.0.0.1:2"


@pytest.mark.parametrize("name, params", [
    ("endpoint", {"endpoint": 5}),
    ("api_key", {"endpoint": NO_SERVER, "api_key": ["k"]}),
    ("model", {"endpoint": NO_SERVER, "model": None}),
    ("model", {"endpoint": NO_SERVER, "model": 3}),
], ids=["endpoint=5", "api_key=list", "model=None", "model=3"])
def test_chat_engine_strings_are_checked(name, params):
    """`endpoint`, `model` and `api_key` are strings (`endpoint` and
    `api_key` may be None, read from the environment): an endpoint of 5
    would fail every request with "Invalid URL '5'" and fill every
    proposal at random."""
    with pytest.raises(ValueError, match=f"{name} must be a string"):
        ChatApiEngine(**params)
    with pytest.raises(ValueError, match=f"{name} must be a string"):
        RunConfig(engine="chat-api", engine_params=params)
    ChatApiEngine(endpoint=NO_SERVER, api_key=None)


def test_chat_engine_parses_stub_batch(stub_server):
    _StubHandler.responses = [_payload(3)]
    engine = ChatApiEngine(model="stub", endpoint=stub_server, retry_wait=0.0, seed=0)
    designs, _ = propose(engine, _state(), 3)
    assert len(designs) == 3
    assert not engine.warnings
    sent = _StubHandler.requests[0]
    assert sent["model"] == "stub"
    assert sent["messages"][0]["role"] == "system"


def test_chat_engine_fills_random_after_garbage(stub_server):
    _StubHandler.responses = ["no json here", "still not json", "nope"]
    engine = ChatApiEngine(model="stub", endpoint=stub_server, max_retries=3,
                           retry_wait=0.0, seed=1)
    designs, _ = propose(engine, _state(), 4)
    assert len(designs) == 4
    assert any("filled 4 slots with random designs" in w for w in engine.warnings)


def test_chat_engine_failing_endpoint_ends_the_rounds(stub_server):
    """A request that fails all its attempts is not re-asked as a new
    round: an endpoint answering HTTP 500 costs `max_retries` requests per
    proposal, not `max_retries` squared."""
    _StubHandler.status = 500
    engine = ChatApiEngine(model="stub", endpoint=stub_server, max_retries=2,
                           retry_wait=0.0, seed=0)
    designs, _ = propose(engine, _state(), 3)
    assert len(designs) == 3
    assert len(_StubHandler.requests) == 2
    assert sum("proposal round failed" in w for w in engine.warnings) == 1
    assert any("filled 3 slots with random designs" in w for w in engine.warnings)


@pytest.mark.parametrize("raw", [
    '[{"Dose": ' + OVERLONG_INT + '}, {"Dose": 5.0}]',
    '[{"Dose": 5.0}, ' + TOO_DEEP + ']',
], ids=["overlong-int", "too-deep"])
def test_unparsable_proposal_reply_falls_back_to_random(raw):
    """A reply `json.loads` cannot convert is a parse failure, re-asked and
    then random-filled."""
    space = DesignSpace((ContinuousDim("Dose", 0.0, 100.0),))
    with pytest.raises(DesignParseError, match="malformed JSON"):
        parse_designs(raw, space, 2)
    engine = ChatApiEngine(model="stub", endpoint=NO_SERVER, max_retries=2, seed=0)
    engine._chat = lambda messages: raw
    designs, X = propose(engine, _state(space=space), 2)
    assert len(designs) == 2 and np.all(np.isfinite(X))
    assert sum("proposal round failed: malformed JSON" in w for w in engine.warnings) == 2
    assert any("filled 2 slots with random designs" in w for w in engine.warnings)


def test_chat_engine_retries_past_a_nan_element():
    engine = ChatApiEngine(model="stub", endpoint=NO_SERVER, retry_wait=0.0, seed=0)
    items = [{"Dose": float("nan"), "Boost": True, "Taper": True}, *json.loads(_payload(3))]
    engine._chat = lambda messages: json.dumps(items)
    designs, X = propose(engine, _state(), 3)
    assert len(designs) == 3 and np.all(np.isfinite(X))
    assert any("rejected 1 malformed design elements" in w for w in engine.warnings)


def test_chat_engine_reflect_degrades_to_empty():
    engine = ChatApiEngine(model="stub", endpoint=NO_SERVER,
                           max_retries=1, retry_wait=0.0, timeout=0.2, seed=0)
    out = engine.reflect(_state(), np.array([0.5]))
    assert out == ""
    assert any("reflection failed" in w for w in engine.warnings)
    with pytest.raises(ValueError, match="empty batch"):
        engine.reflect(_state(), np.array([]))


def test_chat_run_survives_null_replies(stub_server, dose_task):
    """An API that answers every request with null content, as for a
    refusal, leaves the run to random fallback designs instead of crashing."""
    _StubHandler.responses = [None] * 4  # synthesis, two proposals, one reflection
    cfg = RunConfig(method="leon", engine="chat-api", hp=Hyperparams(budget=64, batch_size=32),
                    engine_params={"model": "stub", "endpoint": stub_server,
                                   "max_retries": 1, "retry_wait": 0.0})
    result = run_leon(dose_task, cfg, seed=2)
    assert len(result.memory) == 64
    assert _StubHandler.responses == [] and len(_StubHandler.requests) == 4
    assert sum("filled 32 slots with random designs" in w for w in result.warnings) == 2
    assert any("reflection failed" in w and "NoneType" in w for w in result.warnings)
    assert result.reflections == ["", ""]


def test_chat_engine_knowledge_round_trip(stub_server):
    _StubHandler.responses = [json.dumps({"source": "facts", "query": "dose info", "stop": False}),
                              "synthesized knowledge"]
    engine = ChatApiEngine(model="stub", endpoint=stub_server, retry_wait=0.0, seed=0)
    out = generate_knowledge(engine, [StaticFactsSource("facts", "the facts")],
                             _state(), budget=1)
    assert out == "synthesized knowledge"
