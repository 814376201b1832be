import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from scipy.stats import chisquare

from leon.core import (
    BooleanDim,
    Context,
    ContinuousDim,
    Design,
    DesignSpace,
    MemoryEntry,
    render_context,
)
from leon.numerics import shannon_entropy
from leon.proposal import (
    BoltzmannMemoryEngine,
    ChatApiEngine,
    DesignParseError,
    FileCorpusSource,
    HillClimbEngine,
    PROMPT_HEADERS,
    PromptState,
    RandomEngine,
    ScriptedSource,
    StaticFactsSource,
    build_prompt,
    generate_knowledge,
    memory_table,
    parse_designs,
    propose,
    reflect,
)

SPACE = DesignSpace((
    ContinuousDim("Dose", 0.0, 100.0),
    BooleanDim("Boost"),
    BooleanDim("Taper"),
))

CTX = Context((0.1, -0.4), id="p7")


def _state(entries=(), knowledge="", reflection="", space=SPACE):
    return PromptState(
        knowledge=knowledge, reflection=reflection, memory_view=list(entries),
        context=CTX, task_description="maximize the response", task_name="demo",
        space=space,
    )


def _entry(step, dose, raw, score, boost=True, taper=False):
    return MemoryEntry(step, Design((dose, boost, taper)), raw, score, 0)


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
    assert len(memory_table(SPACE, []).splitlines()) == 2  # header + separator
    table = memory_table(SPACE, [_entry(1, 20.0, 1.0, 1.0)])
    assert len(table.splitlines()) == 3
    assert "20.0000" in table


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
    assert len(designs) == 4 and rejects == 0
    assert designs[0].values == (10.0, True, True)


def test_parse_clamps_out_of_range():
    raw = json.dumps([{"Dose": 150.0, "Boost": False, "Taper": False}])
    designs, rejects = parse_designs(raw, SPACE, 1)
    assert rejects == 0
    assert designs[0].values[0] == 100.0


def test_parse_rejects_malformed_element():
    items = json.loads(_payload(3))
    items[1] = {"Dose": 5.0, "Boost": "maybe", "Taper": True}  # not a boolean
    designs, rejects = parse_designs(json.dumps(items), SPACE, 3)
    assert len(designs) == 2 and rejects == 1


def test_parse_malformed_json_raises():
    with pytest.raises(DesignParseError):
        parse_designs("not json at all", SPACE, 2)
    with pytest.raises(DesignParseError):
        parse_designs("[{\"Dose\": }", SPACE, 2)


def test_parse_strips_code_fences():
    raw = "```json\n" + _payload(2) + "\n```"
    designs, _ = parse_designs(raw, SPACE, 2)
    assert len(designs) == 2


def test_parse_accepts_boolean_spellings():
    raw = json.dumps([{"Dose": 1.0, "Boost": "yes", "Taper": False},
                      {"Dose": 2.0, "Boost": 0, "Taper": False}])
    designs, rejects = parse_designs(raw, SPACE, 2)
    assert rejects == 0
    assert designs[0].values[1] is True and designs[1].values[1] is False


# ---------------------------------------------------------------------------
# mock engines
# ---------------------------------------------------------------------------


def test_random_engine_reproducible():
    space = DesignSpace(tuple(BooleanDim(f"b{i}") for i in range(4)))
    a = propose(RandomEngine(seed=11), _state(space=space), space, 8)
    b = propose(RandomEngine(seed=11), _state(space=space), space, 8)
    assert a == b
    for d in a:
        space.validate(d)


def test_propose_returns_exactly_b():
    for engine in (RandomEngine(seed=0), BoltzmannMemoryEngine(seed=0), HillClimbEngine(seed=0)):
        designs = propose(engine, _state(), SPACE, 5)
        assert len(designs) == 5


def test_propose_validates_b():
    with pytest.raises(ValueError):
        propose(RandomEngine(seed=0), _state(), SPACE, 0)


def test_boltzmann_temp_zero_collapses():
    entries = [_entry(1, 50.0, 10.0, 10.0)] + [_entry(1, float(i), -5.0, -5.0) for i in range(5)]
    engine = BoltzmannMemoryEngine(seed=3, temp=0.0)
    designs = engine.propose(_state(entries), SPACE, 6)
    assert len(set(designs)) == 1
    assert designs[0].values[0] == 50.0  # the dominant-score member is the incumbent


def test_boltzmann_high_temp_uniform_over_pool():
    entries = [_entry(1, float(10 * i), float(i), float(i)) for i in range(6)]
    probe = BoltzmannMemoryEngine(seed=21, temp=1e9, pool_size=32)
    pool, _ = probe._build_pool(_state(entries), SPACE)
    # duplicate pool members (e.g. perturbations clamped onto their parent)
    # form a cluster whose expected mass is its multiplicity
    multiplicity = {}
    for d in pool:
        multiplicity[d] = multiplicity.get(d, 0) + 1
    clusters = list(multiplicity)

    engine = BoltzmannMemoryEngine(seed=21, temp=1e9, pool_size=32)
    draws = engine.propose(_state(entries), SPACE, 512)
    observed = np.array([sum(1 for d in draws if d == c) for c in clusters])
    expected = np.array([512 * multiplicity[c] / len(pool) for c in clusters])
    assert chisquare(observed, f_exp=expected).pvalue > 0.01


def test_boltzmann_entropy_monotone_in_inverse_temp():
    entries = [_entry(1, float(10 * i), float(i), float(i)) for i in range(6)]
    hs = []
    for temp in (10.0, 1.0, 0.1):  # decreasing temp, increasing 1/temp
        engine = BoltzmannMemoryEngine(seed=5, temp=temp, pool_size=32)
        draws = engine.propose(_state(entries), SPACE, 512)
        counts = {}
        for d in draws:
            counts[d] = counts.get(d, 0) + 1
        p = np.array(list(counts.values())) / 512
        hs.append(shannon_entropy(p))
    assert hs[0] >= hs[1] >= hs[2]


def test_engine_params_are_checked():
    for kwargs in ({"temp": "hot"}, {"temp": -0.1}, {"temp": float("nan")},
                   {"temp": float("inf")}, {"pool_size": -1}, {"pool_size": 0},
                   {"pool_size": 2.0}, {"pool_size": True}, {"top_m": 0}, {"top_m": "8"},
                   {"explore_frac": 1.5}, {"explore_frac": -0.1}, {"explore_frac": None}):
        with pytest.raises(ValueError):
            BoltzmannMemoryEngine(seed=0, **kwargs)
    for step in (0, -0.05, float("nan"), "0.05"):
        with pytest.raises(ValueError):
            HillClimbEngine(seed=0, step=step)
    # the ends of each range are accepted
    BoltzmannMemoryEngine(seed=0, temp=0, pool_size=1, top_m=1, explore_frac=0.0)
    BoltzmannMemoryEngine(seed=0, temp=np.float64(2.0), pool_size=np.int64(8), explore_frac=1)
    HillClimbEngine(seed=0, step=1e-9)


def test_hill_climb_without_memory_is_random():
    engine = HillClimbEngine(seed=9)
    designs = propose(engine, _state(), SPACE, 4)
    assert len(designs) == 4


def test_hill_climb_perturbs_best():
    entries = [_entry(1, 40.0, 3.0, 3.0), _entry(1, 90.0, -1.0, -1.0)]
    engine = HillClimbEngine(seed=2, step=0.01)
    designs = engine.propose(_state(entries), SPACE, 16)
    doses = [d.values[0] for d in designs]
    assert all(abs(x - 40.0) < 10.0 for x in doses)


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------


def test_mock_reflection_contains_best_score():
    engine = RandomEngine(seed=0)
    batch = [(Design((1.0, True, 0)), 0.25), (Design((2.0, False, 1)), -1.5)]
    text = reflect(engine, batch, "desc")
    assert "0.2500" in text and "-1.5000" in text
    assert text == reflect(engine, batch, "desc")


def test_reflection_empty_batch_raises():
    with pytest.raises(ValueError):
        reflect(RandomEngine(seed=0), [], "desc")


# ---------------------------------------------------------------------------
# knowledge sources
# ---------------------------------------------------------------------------


def test_static_source_verbatim():
    src = StaticFactsSource("facts", "response rises with dose up to a threshold")
    assert src.query("anything") == "response rises with dose up to a threshold"


def test_scripted_source_lookup():
    src = ScriptedSource("scripted", {"q1": "a1"})
    assert src.query("q1") == "a1"
    assert src.query("unknown") == ""


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


def test_file_corpus_unreadable_file(tmp_path):
    src = FileCorpusSource("corpus", (str(tmp_path / "missing.txt"),), top_k=1)
    assert src.warnings
    assert src.query("anything") == ""


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


def test_generate_knowledge_zero_budget():
    engine = RandomEngine(seed=0)
    out = generate_knowledge(engine, [StaticFactsSource("s", "text")], _state(), budget=0)
    assert out == ""


def test_generate_knowledge_stop_after_one():
    engine = RandomEngine(seed=0, knowledge_stop_after=1)
    sources = [CountingSource("a", "ans-a"), CountingSource("b", "ans-b")]
    out = generate_knowledge(engine, sources, _state(), budget=5)
    assert sources[0].calls == 1 and sources[1].calls == 0
    assert out == "ans-a"


def test_generate_knowledge_round_robin():
    engine = RandomEngine(seed=0)
    sources = [CountingSource("a", "ans-a"), CountingSource("b", "ans-b")]
    out = generate_knowledge(engine, sources, _state(), budget=4)
    assert sources[0].calls == 2 and sources[1].calls == 2
    assert out == "ans-a\n\nans-b\n\nans-a\n\nans-b"


def test_generate_knowledge_source_failure_skipped():
    class FailingSource:
        name = "bad"

        def query(self, q):
            raise OSError("disk on fire")

    engine = RandomEngine(seed=0)
    out = generate_knowledge(engine, [FailingSource()], _state(), budget=3)
    assert out == ""
    assert any("knowledge source failed" in w for w in engine.warnings)


def test_generate_knowledge_respects_budget():
    engine = RandomEngine(seed=0)
    sources = [CountingSource("a", "x")]
    generate_knowledge(engine, sources, _state(), budget=3)
    assert sources[0].calls == 3


# ---------------------------------------------------------------------------
# chat engine against a local stub
# ---------------------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    responses = []
    requests = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _StubHandler.requests.append(json.loads(self.rfile.read(length)))
        body = _StubHandler.responses.pop(0) if _StubHandler.responses else "[]"
        payload = json.dumps({"choices": [{"message": {"content": body}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.responses = []
    _StubHandler.requests = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_chat_engine_parses_stub_batch(stub_server):
    _StubHandler.responses = [_payload(3)]
    engine = ChatApiEngine(model="stub", endpoint=stub_server, retry_wait=0.0, seed=0)
    designs = propose(engine, _state(), SPACE, 3)
    assert len(designs) == 3
    assert not engine.warnings
    sent = _StubHandler.requests[0]
    assert sent["model"] == "stub"
    assert sent["messages"][0]["role"] == "system"


def test_chat_engine_fills_random_after_garbage(stub_server):
    _StubHandler.responses = ["no json here", "still not json", "nope"]
    engine = ChatApiEngine(model="stub", endpoint=stub_server, max_retries=3,
                           retry_wait=0.0, seed=1)
    designs = propose(engine, _state(), SPACE, 4)
    assert len(designs) == 4
    assert any("filled 4 slots with random designs" in w for w in engine.warnings)


def test_chat_engine_reflect_degrades_to_empty():
    engine = ChatApiEngine(model="stub", endpoint="http://127.0.0.1:1",
                           max_retries=1, retry_wait=0.0, timeout=0.2, seed=0)
    out = engine.reflect([(Design((1.0, True, 0)), 0.5)], "desc")
    assert out == ""
    assert any("reflection failed" in w for w in engine.warnings)


def test_chat_engine_knowledge_action(stub_server):
    _StubHandler.responses = [json.dumps({"source": "facts", "query": "dose info", "stop": False}),
                              "synthesized knowledge"]
    engine = ChatApiEngine(model="stub", endpoint=stub_server, retry_wait=0.0, seed=0)
    out = generate_knowledge(engine, [StaticFactsSource("facts", "the facts")],
                             _state(), budget=1)
    assert out == "synthesized knowledge"
