"""Proposal engines and knowledge sources.

An engine reads all it needs from one prompt state (knowledge, memory view
and its space, reflection, context, task description) and turns it into a
batch of candidate designs. Mock engines are seeded and fully offline; the
one parameter they take besides the seed is `BoltzmannMemoryEngine`'s
`temp`, and their pool sizes and step are the `BOLTZMANN_*` and
`HILL_CLIMB_STEP` constants. The chat engine talks to an HTTP
chat-completions endpoint with a strict JSON output contract and falls back
to random designs when parsing keeps failing.

A batch is an `(n, d)` float array of design values, booleans as 0.0/1.0
(see `core`); the mock engines draw each batch with one generator call per
kind of dim, in the row-major order of per-design, per-dim scalar draws.

Engine protocol (duck-typed):
    propose(state, b) -> (b, d) value array     # checked by `propose`
    reflect(state, scores) -> str               # needs scores; `propose` refuses b < 1
    knowledge(sources, state, budget) -> str    # never raises
    warnings: list[str]                         # drained by the runner

Reflection and knowledge are text written for a language model, so only the
chat engine produces them. The mock engines only propose: `reflect` and
`knowledge` return "" without querying a source.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    Context,
    ContinuousDim,
    DesignSpace,
    MemoryView,
    design_cell,
    encode_batch,
    read_float,
    read_int,
    render_context,
    scale_values,
    short_repr,
)
from .numerics import stable_softmax


class DesignParseError(ValueError):
    """A model reply holds no well-formed JSON value where one is expected."""


class TransportError(RuntimeError):
    """An external chat endpoint failed after retries."""


# ---------------------------------------------------------------------------
# Prompt assembly
# ---------------------------------------------------------------------------

PROMPT_HEADERS = (
    "### Prior Knowledge",
    "### Subject",
    "### Previously Proposed Designs",
    "### Reflection",
    "### Task",
)


@dataclass
class PromptState:
    knowledge: str
    reflection: str
    memory_view: MemoryView  # the memory's last rows, as arrays
    context: Context
    task_description: str

    @property
    def space(self) -> DesignSpace:
        return self.memory_view.space


def memory_table(view: MemoryView) -> str:
    lines = ["| index | design | score |", "|---|---|---|"]
    for i, (row, score) in enumerate(zip(view.values, view.score)):
        lines.append(f"| {i} | {design_cell(view.space, row)} | {score:.4f} |")
    return "\n".join(lines)


def build_prompt(state: PromptState) -> str:
    """Deterministic five-section prompt with byte-stable headers."""
    sections = [
        (PROMPT_HEADERS[0], state.knowledge),
        (PROMPT_HEADERS[1], render_context(state.context)),
        (PROMPT_HEADERS[2], memory_table(state.memory_view)),
        (PROMPT_HEADERS[3], state.reflection),
        (PROMPT_HEADERS[4], state.task_description),
    ]
    return "\n\n".join(f"{header}\n{body}" for header, body in sections)


# ---------------------------------------------------------------------------
# Structured output parsing
# ---------------------------------------------------------------------------


def _read_json(raw: str, opener: str):
    """The JSON value at the reply's first `opener`, `[` (a list) or `{` (a
    dict), ignoring the text around it; DesignParseError if none or malformed."""
    start = raw.find(opener)
    if start == -1:
        raise DesignParseError(f"no JSON {'array' if opener == '[' else 'object'} found")
    try:
        return json.JSONDecoder().raw_decode(raw, start)[0]
    except (ValueError, RecursionError) as exc:  # also an over-long integer, too deep a nesting
        raise DesignParseError(f"malformed JSON: {exc}") from exc


def _coerce_value(dim, v):
    if isinstance(dim, ContinuousDim):
        if isinstance(v, bool) or not isinstance(v, (int, float)):  # JSON booleans, strings
            raise ValueError(f"bad number {v!r}")
        x = float(v)
        if x != x:
            raise ValueError("NaN value")
        return min(max(x, dim.lo), dim.hi)  # out-of-range clamps to the bound
    if isinstance(v, bool) or (isinstance(v, (int, float)) and v in (0, 1)):
        return float(v)
    if isinstance(v, str) and v.lower() in ("true", "false", "yes", "no"):
        return float(v.lower() in ("true", "yes"))
    raise ValueError(f"bad boolean {v!r}")


def parse_designs(raw: str, space: DesignSpace, b: int) -> tuple[np.ndarray, int]:
    """Parse the JSON array of {dim name: value} objects at the reply's first `[`.

    Returns at most `b` designs as `(k, d)` value rows, booleans as 0.0/1.0,
    plus the number of rejected elements: those with a missing key or a
    malformed value, NaN, a number too large for a float and a boolean or a
    string for a continuous dim included. A number out of range, ±Infinity
    too, clamps to the dim's bound. Raises DesignParseError when the reply
    holds no such array, so engine retry logic can resample.
    """
    rows, rejects = [], 0
    for item in _read_json(raw, "["):
        if len(rows) >= b:
            break
        if not isinstance(item, dict):
            rejects += 1
            continue
        try:
            rows.append([_coerce_value(dim, item[dim.name]) for dim in space.dims])
        except (KeyError, ValueError, TypeError, OverflowError):
            rejects += 1
    return np.array(rows, dtype=float).reshape(len(rows), space.encoded_width), rejects


# ---------------------------------------------------------------------------
# Mock engines
# ---------------------------------------------------------------------------


def random_design(space: DesignSpace, rng: np.random.Generator, n: int) -> np.ndarray:
    """`n` uniform designs as `(n, d)` value rows: one `uniform` draw for
    the continuous dims and one `integers(2)` draw for the booleans, each
    skipped when the space has no such dim (a size-0 draw takes no state)."""
    is_bool, lo, hi = space.is_bool, space.lo, space.hi
    cont = ~is_bool
    V = np.empty((n, len(is_bool)))
    if cont.any():
        V[:, cont] = rng.uniform(lo[cont], hi[cont], size=(n, cont.sum()))
    if is_bool.any():
        V[:, is_bool] = rng.integers(2, size=(n, is_bool.sum()))
    return V


def perturb_design(space: DesignSpace, V: np.ndarray, rng: np.random.Generator,
                   sigma: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Jitter each value row's continuous dims by its `sigma` (in encoded
    units, clamped to the bounds) and flip each of its booleans with its
    probability `flip`: one `normal` draw for the continuous dims and one
    `random` draw for the booleans, each skipped as in `random_design`."""
    is_bool, lo, hi = space.is_bool, space.lo, space.hi
    cont = ~is_bool
    out = np.array(V, dtype=float)
    if cont.any():
        noise = rng.normal(0.0, sigma[:, None] * (hi - lo)[cont], size=(len(out), cont.sum()))
        out[:, cont] = np.clip(out[:, cont] + noise, lo[cont], hi[cont])
    if is_bool.any():
        flips = rng.random((len(out), is_bool.sum())) < flip[:, None]
        out[:, is_bool] = np.where(flips, 1.0 - out[:, is_bool], out[:, is_bool])
    return out


def _adaptive_scale(space: DesignSpace, parents: np.ndarray) -> tuple[float, float]:
    """Perturbation scales from the spread of the parents' encoded rows;
    the parents are memory rows, already checked when proposed."""
    spread = 0.1 if len(parents) < 2 else float(scale_values(space, parents).std(axis=0).mean())
    sigma = min(max(spread, 1e-3), 0.25)
    flip = min(max(spread, 0.02), 0.25)
    return sigma, flip


@dataclass
class _MockEngineBase:
    """Shared seeded plumbing for the offline engines, which only propose:
    they neither reflect nor retrieve knowledge."""

    seed: int = 0

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)
        self.warnings: list[str] = []

    def reflect(self, state: PromptState, scores: np.ndarray) -> str:
        return ""

    def knowledge(self, sources, state: PromptState, budget: int) -> str:
        return ""


@dataclass
class RandomEngine(_MockEngineBase):
    """Uniform per-dim sampling."""

    def propose(self, state: PromptState, b: int) -> np.ndarray:
        return random_design(state.space, self.rng, b)


BOLTZMANN_POOL_SIZE = 64  # candidates per proposal, sampled by score
BOLTZMANN_TOP_M = 8  # memory rows, ranked by raw value, that seed the pool
BOLTZMANN_EXPLORE = 16  # uniform pool members: a quarter of the pool
HILL_CLIMB_STEP = 0.05  # jitter, as a fraction of each dim's width, and flip probability


@dataclass
class BoltzmannMemoryEngine(_MockEngineBase):
    """Score-weighted sampling from a pool of random designs plus
    perturbations of top memory designs.

    Lower temperature concentrates proposals on high-scoring pool members,
    which exercises the entropy-side certainty estimate. The perturbation
    scale adapts to the spread of the current top designs, so proposals
    sharpen as the memory concentrates.
    """

    temp: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        self.temp = read_float(self.temp, "temp", 0.0)

    def _build_pool(self, state: PromptState):
        # Parents are ranked by raw value: the mu-scaled score can collapse
        # to all-zeros on a zero-certainty step, which would make the
        # ranking arbitrary. Sampling weights still use the stored scores.
        view, space = state.memory_view, state.space
        top = np.argsort(-view.raw, kind="stable")[:BOLTZMANN_TOP_M]
        parents = view.values[top].astype(float)
        parent_scores = view.score[top]
        if len(top) == 0:
            return (random_design(space, self.rng, BOLTZMANN_POOL_SIZE),
                    np.zeros(BOLTZMANN_POOL_SIZE))

        explore = random_design(space, self.rng, BOLTZMANN_EXPLORE)
        sigma, flip = _adaptive_scale(space, parents)
        i = np.arange(BOLTZMANN_POOL_SIZE - BOLTZMANN_EXPLORE - len(top))
        # alternate coarse and fine jitter so proposals keep refining once
        # the memory has concentrated
        scale = np.where(i % 2 == 0, 1.0, 0.1)
        k = i % len(top)
        jittered = perturb_design(space, parents[k], self.rng, np.maximum(sigma * scale, 1e-4),
                                  np.maximum(flip * scale, 0.01))
        # explore rows at the parents' floor score, the incumbents, then their jitter
        pool = np.concatenate([explore, parents, jittered])
        scores = np.concatenate([np.full(BOLTZMANN_EXPLORE, parent_scores.min()), parent_scores,
                                 parent_scores[k]])
        return pool, scores

    def propose(self, state: PromptState, b: int) -> np.ndarray:
        pool, scores = self._build_pool(state)
        if self.temp <= 1e-9:
            return np.repeat(pool[[int(np.argmax(scores))]], b, axis=0)
        probs = stable_softmax(scores / self.temp)
        return pool[self.rng.choice(len(pool), size=b, replace=True, p=probs)]


@dataclass
class HillClimbEngine(_MockEngineBase):
    """Batch of perturbations of the best design in memory."""

    def propose(self, state: PromptState, b: int) -> np.ndarray:
        view = state.memory_view
        if not view:
            return random_design(state.space, self.rng, b)
        best = view.values[int(np.argmax(view.raw))]  # first of the top raw values
        step = np.full(b, HILL_CLIMB_STEP)
        return perturb_design(state.space, np.tile(best, (b, 1)), self.rng, step, step)


# ---------------------------------------------------------------------------
# Chat-API engine
# ---------------------------------------------------------------------------

SYSTEM_PROMPT = """\
You are an optimization assistant whose role is to propose designs based on
historical data and iterative feedback. You will be provided with a history
of designs along with their respective performance scores. Your task is to
propose new designs that potentially yield better outcomes. A higher score
indicates a better design. Balance exploration (trying diverse designs) and
exploitation (refining successful designs)."""


def _dim_contract(dim) -> str:
    if isinstance(dim, ContinuousDim):
        return f'"{dim.name}": a number between {dim.lo} and {dim.hi}'
    return f'"{dim.name}": true or false'


def output_contract(space: DesignSpace, b: int) -> str:
    dims = "; ".join(_dim_contract(d) for d in space.dims)
    return (
        f"Respond ONLY with a JSON array of exactly {b} objects, no prose. "
        f"Each object must contain every key: {dims}."
    )


@dataclass
class ChatApiEngine:
    """Engine backed by an HTTP chat-completions endpoint.

    POSTs {"model", "temperature", "messages"} and reads the first choice's
    message content. Endpoint and key default to CHAT_API_BASE /
    CHAT_API_KEY; with no endpoint at all, construction raises ValueError.
    A request that fails, or whose content is not a string
    (APIs send null for refusals and tool calls), is a failed attempt; after
    `max_retries` of them `_chat` raises TransportError. A proposal re-asks,
    up to `max_retries` rounds, only while its replies parse into too few
    designs; a TransportError ends the rounds. Remaining slots are filled
    with random designs and a warning recorded.
    """

    model: str = "default"
    temperature: float = 1.0
    max_retries: int = 3
    endpoint: str | None = None
    api_key: str | None = None
    retry_wait: float = 0.5
    timeout: float = 60.0
    seed: int = 0

    def __post_init__(self):
        for name, value in (("model", self.model), ("endpoint", self.endpoint),
                            ("api_key", self.api_key)):
            if not isinstance(value, str) and (value is not None or name == "model"):
                raise ValueError(f"{name} must be a string, got {short_repr(value)}")
        self.temperature = read_float(self.temperature, "temperature", 0.0)
        self.max_retries = read_int(self.max_retries, "max_retries", 1)
        self.retry_wait = read_float(self.retry_wait, "retry_wait", 0.0)
        self.timeout = read_float(self.timeout, "timeout", 0.0, lo_open=True)
        self.endpoint = self.endpoint or os.environ.get("CHAT_API_BASE")
        if not self.endpoint:
            raise ValueError("chat-api needs an endpoint (engine_params.endpoint or CHAT_API_BASE)")
        self.rng = np.random.default_rng(self.seed)
        self.warnings: list[str] = []

    def _chat(self, messages) -> str:
        import requests

        key = self.api_key or os.environ.get("CHAT_API_KEY", "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = {"model": self.model, "temperature": self.temperature, "messages": messages}
        last = None
        for attempt in range(self.max_retries):
            try:
                resp = requests.post(self.endpoint, json=body, headers=headers,
                                     timeout=self.timeout)
                resp.raise_for_status()
                content = resp.json()["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"reply content is {type(content).__name__}, not a string")
                return content
            except Exception as exc:  # noqa: BLE001
                last = exc
                if attempt < self.max_retries - 1:
                    time.sleep(self.retry_wait * (2 ** attempt))
        raise TransportError(f"chat request failed after {self.max_retries} attempts: {last}")

    def _ask(self, messages, what: str) -> str | None:
        """The reply to `messages`; a TransportError becomes the warning
        "<what> failed: ..." and None."""
        try:
            return self._chat(messages)
        except TransportError as exc:
            self.warnings.append(f"{what} failed: {exc}")
            return None

    def propose(self, state: PromptState, b: int) -> np.ndarray:
        space = state.space
        values = np.empty((0, space.encoded_width))
        for _ in range(self.max_retries):
            need = b - len(values)
            messages = [
                {"role": "system", "content": SYSTEM_PROMPT + "\n\n" + output_contract(space, need)},
                {"role": "user", "content": build_prompt(state) + f"\n\nPropose exactly {need} new designs now."},
            ]
            raw = self._ask(messages, "proposal round")
            if raw is None:  # every attempt failed: asking again would too
                break
            try:
                parsed, rejects = parse_designs(raw, space, need)
            except DesignParseError as exc:
                self.warnings.append(f"proposal round failed: {exc}")
                continue
            if rejects:
                self.warnings.append(f"rejected {rejects} malformed design elements")
            values = np.concatenate([values, parsed])
            if len(values) >= b:
                break
        if len(values) < b:
            missing = b - len(values)
            self.warnings.append(f"filled {missing} slots with random designs after retries")
            values = np.concatenate([values, random_design(space, self.rng, missing)])
        return values

    def reflect(self, state: PromptState, scores: np.ndarray) -> str:
        if len(scores) == 0:
            raise ValueError("empty batch")
        table = "\n".join(f"| {i} | {s:.4f} |" for i, s in enumerate(scores))
        prompt = (
            f"### Task Description\n{state.task_description}\n\n### Scores of the last batch\n"
            f"| index | score |\n|---|---|\n{table}\n\n"
            "Analyze the scores and reflect on how to improve them. "
            "Do NOT propose a new design; respond only with your thinking."
        )
        return self._ask([{"role": "user", "content": prompt}], "reflection") or ""

    def knowledge(self, sources, state: PromptState, budget: int) -> str:
        """Iterative retrieval, then one synthesis over the transcript. Each
        of at most `budget` rounds asks the model for a source and a query;
        a failed source query skips its round, and a stop, a failed request
        or a reply that is not a valid action ends the rounds."""
        preamble = (f"{render_context(state.context)}\n\n"
                    f"Problem description: {state.task_description}\n\n")
        names = ", ".join(f'"{s.name}"' for s in sources)
        history: list[tuple[str, str, str]] = []
        for _ in range(budget if sources else 0):
            transcript = "\n".join(f"[{k}] {q} -> {r[:400]}" for k, q, r in history)
            prompt = (f"{preamble}Available knowledge sources: {names}.\n"
                      f"Queries so far:\n{transcript or '(none)'}\n\n"
                      'Respond ONLY with JSON: {"source": <source name or null>, '
                      '"query": <query string>, "stop": <true or false>}.')
            raw = self._ask([{"role": "user", "content": prompt}], "knowledge action")
            if raw is None:
                break
            try:
                action = _read_json(raw, "{")
            except DesignParseError as exc:
                self.warnings.append(f"knowledge action failed: {exc}")
                break
            query = str(action.get("query", ""))
            if action.get("stop") or action.get("source") is None:
                break
            source = next((s for s in sources if s.name == action["source"]), None)
            if source is None:
                self.warnings.append(f"unknown knowledge source {short_repr(action['source'])}")
                break
            try:
                response = source.query(query)
            except Exception as exc:  # noqa: BLE001 - skip the round
                self.warnings.append(f"knowledge source failed: {exc}")
                continue
            history.append((source.name, query, response))
        transcript = "\n\n".join(f"[{k}] query: {q}\n{r}" for k, q, r in history)
        prompt = (f"{preamble}Retrieved material:\n{transcript or '(none)'}\n\n"
                  "Provide relevant factual information to help solve the problem. "
                  "Be specific, concise, and comprehensive.")
        return self._ask([{"role": "user", "content": prompt}], "knowledge synthesis") or ""


# ---------------------------------------------------------------------------
# Knowledge sources
# ---------------------------------------------------------------------------


@dataclass
class StaticFactsSource:
    name: str
    text: str

    def query(self, q: str) -> str:
        return self.text


_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN_RE.findall(text.lower())
    return tokens if tokens else [text]


@dataclass
class FileCorpusSource:
    """Blank-line-separated passages from UTF-8 text files, ranked by token
    overlap with the query (ties keep file order). `paths` is one path, a
    `str` or `os.PathLike`, or a sequence of them; it is stored as a tuple.
    `top_k`, the most passages a query returns, is read by `read_int`: an
    integer of at least 1."""

    name: str
    paths: str | os.PathLike | tuple
    top_k: int = 1
    passages: list[str] = field(init=False, default_factory=list)
    warnings: list[str] = field(init=False, default_factory=list)

    def __post_init__(self):
        self.top_k = read_int(self.top_k, "top_k", 1)
        one = isinstance(self.paths, (str, os.PathLike))  # a path, not a sequence of characters
        self.paths = (self.paths,) if one else tuple(self.paths)
        for path in self.paths:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                self.warnings.append(f"unreadable corpus file {path}: {exc}")
                continue
            for block in re.split(r"\n\s*\n", text):
                block = block.strip()
                if block:
                    self.passages.append(block)

    def query(self, q: str) -> str:
        q_tokens = set(_tokenize(q)) if q.strip() else set()
        scored = []
        for order, passage in enumerate(self.passages):
            overlap = len(q_tokens & set(_tokenize(passage)))
            if overlap > 0:
                scored.append((-overlap, order, passage))
        scored.sort()
        return "\n\n".join(p for _, _, p in scored[: self.top_k])


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def propose(engine, state: PromptState, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The engine's `(b, d)` value rows and their encoding, checked by
    `encode_batch`."""
    if b < 1:
        raise ValueError("b must be >= 1")
    values = engine.propose(state, b)
    if not isinstance(values, np.ndarray) or len(values) != b:
        raise RuntimeError(f"engine returned {type(values).__name__} of length {len(values)}, "
                           f"expected a ({b}, {state.space.encoded_width}) value array")
    return values, encode_batch(state.space, values)


def reflect(engine, state: PromptState, scores: np.ndarray) -> str:
    return engine.reflect(state, scores)


def generate_knowledge(engine, sources, state: PromptState, budget: int) -> str:
    """The engine's knowledge from at most `budget` source round-trips."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    return engine.knowledge(sources, state, budget)


__all__ = [
    "DesignParseError",
    "TransportError",
    "PROMPT_HEADERS",
    "PromptState",
    "memory_table",
    "build_prompt",
    "parse_designs",
    "random_design",
    "perturb_design",
    "RandomEngine",
    "BoltzmannMemoryEngine",
    "HillClimbEngine",
    "ChatApiEngine",
    "SYSTEM_PROMPT",
    "output_contract",
    "StaticFactsSource",
    "FileCorpusSource",
    "propose",
    "reflect",
    "generate_knowledge",
]
