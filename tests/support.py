"""Shared test fixtures.

The centerpiece is ``ScriptBuilder``: given a response plan for every state a
search will visit, it walks the same deterministic call graph the engine does
and pre-renders every prompt into an exact-match script rule. Exact rules make
fixtures independent of request arrival order, so the same script works for
any worker count. Background-generation prompts are all identical by
construction, so those are plain tag rules, listed in call order: each
request takes the first unused rule that matches, so they answer in list
order and need serial execution.

Also here: the script-file writer, the unused-rule check, a naive per-document BM25 oracle (no
inverted index, and its own regex tokenizer), the canned corpora the
golden-run tests use, the bytes a kept result holds, and ``ChatServer``, a loopback chat-completion service
for the HTTP provider.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import threading
import tracemalloc
from dataclasses import asdict, dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from beamqa.prompts import (
    ScoreParseError,
    parse_questions,
    parse_score,
    render_answer_prompt,
    render_ask_prompt,
    render_score_prompt,
    render_summarize_prompt,
)
from beamqa.providers import (
    HttpChatProvider,
    ScriptRule,
    ScriptedProvider,
    TAG_ANSWER,
    TAG_ASK,
    TAG_GENREAD,
    TAG_SCORE,
    TAG_SUMMARIZE,
)
from beamqa.retrieval import (
    Document,
    GENERATE_BACKGROUND,
    LexicalIndex,
    _docs_block,
    retrieve,
)
from beamqa.search import SearchConfig, run_search


# --- script files -----------------------------------------------------------


def rule_dict(rule: ScriptRule) -> dict:
    """A rule's set fields, as a script file holds them: unset (``None``)
    ones and ``repeat=False`` are left out."""
    out = {k: v for k, v in asdict(rule).items() if v is not None and v is not False}
    if "contains" in out:
        out["contains"] = list(rule.contains)
    return out


def save_script(rules, path) -> None:
    """Write ``rules`` as a script file that ``load_script`` reads."""
    payload = {"rules": [rule_dict(r) for r in rules]}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def unused_rules(provider: ScriptedProvider) -> list[ScriptRule]:
    """The rules of ``provider`` never consumed, ``repeat`` ones aside: what
    a fixture planned but its search never sent."""
    with provider._lock:
        return [r for r, used in zip(provider._rules, provider._used) if not used and not r.repeat]


# --- response plans ---------------------------------------------------------


@dataclass
class StatePlan:
    """Planned answer/score completions for one state, plus its expansion."""

    answer: str
    score: str
    children: list["ChildPlan"] = field(default_factory=list)
    ask_text: str | None = None  # raw ask completion; default renders children


@dataclass
class ChildPlan:
    query: str
    evidence: str
    state: StatePlan


@dataclass
class SeedPlan:
    question: str
    direct: StatePlan
    grounded: StatePlan
    grounded_evidence: str


@dataclass
class SimState:
    state_id: int
    depth: int
    history: list[tuple[str, str]]
    answer: str
    score: float
    plan: StatePlan


@dataclass
class BuiltScript:
    rules: list[ScriptRule]
    question: str
    states: list[SimState]
    final_answer: str
    final_score: float
    winner: SimState
    api_calls: int
    retrievals: int
    exit_reason: str
    final_depth: int


def default_ask_text(queries: list[str]) -> str:
    if not queries:
        return "Ranked Questions:\nnone"
    lines = [f"{i}. {q}" for i, q in enumerate(queries, start=1)]
    return "Ranked Questions:\n" + "\n".join(lines)


def _normalize_query(query: str) -> str:
    return " ".join(query.split()).casefold()


class ScriptBuilder:
    """Simulates one search over a plan and collects the script it needs."""

    def __init__(self, config: SearchConfig, index: LexicalIndex | None = None):
        if config.evidence_mode != GENERATE_BACKGROUND and index is None:
            raise ValueError("retrieve_summarize plans need an index")
        self.config = config
        self.index = index

    def build(self, plan: SeedPlan) -> BuiltScript:
        self._rules: list[ScriptRule] = []
        self._exact: dict[tuple[str, str], int] = {}
        self._api = 0
        self._retrievals = 0

        question = plan.question
        states: list[SimState] = []

        direct = self._seed_state(question, [], plan.direct, state_id=0)
        e1 = self._gather(question, question, plan.grounded_evidence)
        grounded = self._seed_state(
            question, [(question, e1)], plan.grounded, state_id=1
        )
        states.extend([direct, grounded])

        beam = [direct, grounded]
        next_id = 2
        exit_reason = "max_depth"
        final_depth = 0
        for depth in range(1, self.config.max_depth + 1):
            kept_per_parent: list[tuple[SimState, list[str]]] = []
            for parent in beam:
                planned_queries = [c.query for c in parent.plan.children]
                ask_text = parent.plan.ask_text or default_ask_text(planned_queries)
                prompt = render_ask_prompt(question, parent.history, self.config.max_queries)
                self._add_exact(TAG_ASK, prompt, ask_text)
                self._api += 1
                seen = {_normalize_query(q) for q, _ in parent.history}
                kept = []
                for query in parse_questions(ask_text, self.config.max_queries):
                    norm = _normalize_query(query)
                    if norm not in seen:
                        seen.add(norm)
                        kept.append(query)
                kept_per_parent.append((parent, kept))
            candidates: list[SimState] = []
            for parent, kept in kept_per_parent:
                by_query = {c.query: c for c in parent.plan.children}
                for query in kept:
                    child_plan = by_query[query]
                    evidence = self._gather(question, query, child_plan.evidence)
                    history = parent.history + [(query, evidence)]
                    child = self._answered_state(
                        question, history, child_plan.state, depth=depth, state_id=next_id
                    )
                    next_id += 1
                    candidates.append(child)
                    states.append(child)
            if not candidates:
                exit_reason = "no_candidates"
                break
            beam = sorted(candidates, key=lambda s: (-s.score, s.state_id))
            beam = beam[: self.config.beam_size]
            final_depth = depth
            if any(s.score >= self.config.score_threshold for s in beam):
                exit_reason = "early_exit"
                break
        winner = min(beam, key=lambda s: (-s.score, s.state_id))
        return BuiltScript(
            rules=self._rules,
            question=question,
            states=states,
            final_answer=winner.answer,
            final_score=winner.score,
            winner=winner,
            api_calls=self._api,
            retrievals=self._retrievals,
            exit_reason=exit_reason,
            final_depth=final_depth,
        )

    # -- pieces ---------------------------------------------------------------

    def _seed_state(self, question, history, plan: StatePlan, state_id: int) -> SimState:
        return self._answered_state(question, history, plan, depth=0, state_id=state_id)

    def _answered_state(self, question, history, plan: StatePlan, depth, state_id) -> SimState:
        self._add_exact(TAG_ANSWER, render_answer_prompt(question, history), plan.answer)
        self._api += 1
        self._add_exact(
            TAG_SCORE, render_score_prompt(question, history, plan.answer), plan.score
        )
        self._api += 1
        try:
            score = parse_score(plan.score)
        except ScoreParseError:
            score = 0.0  # mirrors the engine's unscorable-answer fallback
        return SimState(
            state_id=state_id,
            depth=depth,
            history=list(history),
            answer=plan.answer,
            score=score,
            plan=plan,
        )

    def _gather(self, question: str, query: str, planned_text: str) -> str:
        if self.config.evidence_mode == GENERATE_BACKGROUND:
            self._rules.append(ScriptRule(response=planned_text, tag=TAG_GENREAD))
            self._api += 1
            return planned_text
        hits = retrieve(self.index, query, self.config.retrieval_docs)
        self._retrievals += 1
        if not hits:
            return ""
        prompt = render_summarize_prompt(question, _docs_block(hits))
        self._add_exact(TAG_SUMMARIZE, prompt, planned_text)
        self._api += 1
        return planned_text

    def _add_exact(self, tag: str, prompt: str, response: str) -> None:
        key = (tag, prompt)
        if key in self._exact:
            existing = self._rules[self._exact[key]]
            if existing.response != response:
                raise ValueError(
                    f"fixture collision: two different responses planned for the same "
                    f"{tag} prompt:\n{prompt[:200]}"
                )
            existing.repeat = True
            return
        self._exact[key] = len(self._rules)
        self._rules.append(ScriptRule(response=response, tag=tag, exact=prompt))


# --- random expansion trees for pruning-neutrality checks ------------------------


def random_tree_plan(rng, question: str) -> tuple[SeedPlan, int]:
    """A random response plan: depth <= 3, branching <= 3, all scores distinct.

    Distinct scores make the best tuple unambiguous, so the comparison never
    depends on tie-breaking. Queries and evidences are globally unique, which
    keeps every prompt distinct and dedupe inert.
    """
    max_depth = rng.randint(1, 3)
    score_pool = [f"0.{i:02d}" for i in range(100)]
    rng.shuffle(score_pool)
    counter = iter(range(10_000))

    def make_state(depth: int) -> StatePlan:
        n = next(counter)
        children = []
        if depth < max_depth:
            for _ in range(rng.randint(0, 3)):
                m = next(counter)
                children.append(
                    ChildPlan(
                        query=f"tree query {m}?",
                        evidence=f"tree evidence {m}",
                        state=make_state(depth + 1),
                    )
                )
        return StatePlan(answer=f"tree answer {n}", score=score_pool.pop(), children=children)

    plan = SeedPlan(
        question=question,
        direct=make_state(0),
        grounded=make_state(0),
        grounded_evidence="tree evidence for the seed",
    )
    return plan, max_depth


def unpruned_best(plan: SeedPlan, max_depth: int) -> tuple[str, float]:
    """Independent replay of the full tree without pruning or early exit.

    Walks the plan directly (no engine, no builder): expands every node of
    every layer, then reads the best tuple off the deepest non-empty layer.
    """
    layers: list[list[StatePlan]] = [[plan.direct, plan.grounded]]
    for _ in range(1, max_depth + 1):
        nxt = [child.state for parent in layers[-1] for child in parent.children]
        if not nxt:
            break
        layers.append(nxt)
    final_layer = layers[-1]
    best = max(final_layer, key=lambda s: float(s.score))
    return best.answer, float(best.score)


# --- trace recounting ------------------------------------------------------------


def recount_trace_costs(trace) -> tuple[int, int]:
    """Re-derive (api_calls, retrievals) from trace event payloads."""
    api = retrievals = 0
    for event in trace:
        payload = event.payload
        if event.kind in ("seeded", "scored"):
            api += payload.get("api_calls", 0)
            retrievals += payload.get("retrievals", 0)
        elif event.kind == "expanded":
            api += payload.get("api_calls", 0)
            for child in payload["children"]:
                api += child.get("api_calls", 0)
                retrievals += child.get("retrievals", 0)
    return api, retrievals


# --- independent BM25 oracle --------------------------------------------------


def report_file_size(monkeypatch, size: int) -> None:
    """Make ``load_index`` see a file of ``size`` bytes, as if the file
    shrank after the loader took its size."""
    real_fstat = os.fstat

    def fstat(fd):
        stat = list(real_fstat(fd))
        stat[6] = size  # st_size
        return os.stat_result(stat)

    monkeypatch.setattr("beamqa.retrieval.os.fstat", fstat)


def reference_tokenize(text: str) -> list[str]:
    """The tokenizer's rule as a regex: runs of word characters other than
    ``_`` in the lowercased text. ``\\w`` is ``str.isalnum()`` plus ``_``."""
    return re.findall(r"[^\W_]+", text.lower())


def naive_bm25(docs: list[Document], query: str, k1: float = 1.2, b: float = 0.75) -> dict[str, float]:
    """Per-document BM25, straight from the formula, no inverted index, and
    tokenized by ``reference_tokenize``, not by the package."""
    doc_tokens = [reference_tokenize(f"{d.title} {d.body}") for d in docs]
    n = len(docs)
    avgdl = sum(len(t) for t in doc_tokens) / n
    query_terms = reference_tokenize(query)
    scores: dict[str, float] = {}
    for doc, tokens in zip(docs, doc_tokens):
        total = 0.0
        for term in query_terms:
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in doc_tokens if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            total += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(tokens) / avgdl))
        if total > 0:
            scores[doc.doc_id] = total
    return scores


# --- the raid-on-the-arsenal golden fixture ------------------------------------

HARPERS_QUESTION = "Who led the soldiers in ending the raid on the harper's ferry arsenal?"
HARPERS_GOLDS = ("Brevet Colonel Robert E. Lee", "First Lieutenant Israel Greene")

HARPERS_CORPUS = [
    Document(
        "hf-raid",
        "Harper's Ferry raid",
        "In October 1859 John Brown seized the federal arsenal at Harper's Ferry. "
        "Militia and soldiers surrounded the armory before the raid ended.",
    ),
    Document(
        "hf-leader",
        "Leadership of the assault",
        "The name of the leader who led the soldiers in ending the raid was "
        "Colonel Robert E. Lee, then a colonel of the United States Army.",
    ),
    Document(
        "hf-command",
        "Overall command",
        "The soldiers who led the operation to retake the arsenal at Harpers Ferry "
        "were under the overall command of Colonel Robert E. Lee.",
    ),
    Document(
        "hf-greene",
        "Storming of the engine house",
        "First Lieutenant Israel Greene commanded the marines who stormed the engine "
        "house to end the raid at Harpers Ferry.",
    ),
    Document(
        "hf-end",
        "End of the raid",
        "At the end of John Brown's raid, the engine house was stormed and Brown was "
        "captured and later tried at Charles Town.",
    ),
]


def harpers_plan() -> SeedPlan:
    """Reproduces the case-study behaviour: depth-1 candidates score 0.8 and
    0.7, the 0.8 one answers with the colonel, and the search exits early."""
    child_a = ChildPlan(
        query="What was the name of the leader who led the soldiers in ending the raid"
        " at the Harpers Ferry arsenal?",
        evidence="The soldiers who led the operation to retake the arsenal at Harpers"
        " Ferry were under the overall command of Colonel Robert E. Lee.",
        state=StatePlan(answer="Colonel Robert E. Lee", score="0.8"),
    )
    child_b = ChildPlan(
        query="Who was the overall commander of the soldiers who led the operation to"
        " retake the arsenal at Harpers Ferry?",
        evidence="Colonel Robert E. Lee was in overall command of the operation to"
        " retake the arsenal. First Lieutenant Israel Greene led the storming party.",
        state=StatePlan(answer="First Lieutenant Israel Greene", score="0.7"),
    )
    child_c = ChildPlan(
        query="Which officer commanded the marines who stormed the engine house at"
        " Harpers Ferry?",
        evidence="First Lieutenant Israel Greene commanded the marines who stormed the"
        " engine house.",
        state=StatePlan(answer="First Lieutenant Israel Greene", score="0.5"),
    )
    child_d = ChildPlan(
        query="What happened at the end of John Brown's raid on Harpers Ferry?",
        evidence="At the end of the raid the engine house was stormed and John Brown"
        " was captured.",
        state=StatePlan(answer="John Brown", score="0.2"),
    )
    return SeedPlan(
        question=HARPERS_QUESTION,
        direct=StatePlan(answer="John Brown", score="0.3", children=[child_a, child_b]),
        grounded=StatePlan(answer="John Brown", score="0.4", children=[child_c, child_d]),
        grounded_evidence="John Brown seized the arsenal at Harpers Ferry in 1859 and"
        " the raid was ended by United States soldiers two days later.",
    )


def harpers_script(config: SearchConfig | None = None):
    """Build the golden script; returns (built, index, config)."""
    from beamqa.retrieval import index_corpus

    config = config or SearchConfig()
    index = index_corpus(HARPERS_CORPUS)
    built = ScriptBuilder(config, index).build(harpers_plan())
    return built, index, config


def retained_bytes_per_result(n: int = 200) -> float:
    """The traced bytes that each of ``n`` kept harpers results holds, after
    one search that warms every cache. Needs only the standard library, so
    it also runs on a Python without pytest:
    ``PYTHONPATH=src:tests python -c "import support; print(support.retained_bytes_per_result())"``."""
    built, index, config = harpers_script()

    def search():
        return run_search(built.question, config, ScriptedProvider(built.rules), index=index)

    search()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = [search() for _ in range(n)]
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / len(results)


# --- seed-only "recorded facts" fixtures ------------------------------------------
#
# Each question is answered from the two seeds alone (the ask step returns no
# usable follow-ups), so the winner is the grounded seed and its single
# evidence decides the hit flag. Gold strings are planted in both the corpus
# documents and the matching scripted summaries.


def fact_gold(i: int) -> str:
    return f"secret token {i}"


def fact_question(i: int) -> str:
    return f"What is recorded fact number {i}?"


def fact_corpus(n: int, hits: set[int]) -> list[Document]:
    docs = []
    for i in range(n):
        if i in hits:
            body = f"Fact number {i}. The recorded value is {fact_gold(i)}."
        else:
            body = f"Fact number {i}. The value was never written down."
        docs.append(Document(f"fact-{i}", f"Fact {i}", body))
    return docs


def fact_plan(i: int, hit: bool, answer: str) -> SeedPlan:
    if hit:
        evidence = f"Fact number {i} is recorded as {fact_gold(i)}."
    else:
        evidence = f"Fact number {i} is not recorded anywhere."
    return SeedPlan(
        question=fact_question(i),
        direct=StatePlan(answer="no idea", score="0.1"),
        grounded=StatePlan(answer=answer, score="0.6"),
        grounded_evidence=evidence,
    )


# --- a loopback chat-completion service ---------------------------------------


@dataclass
class Reply:
    """One response of ``ChatServer``: ``payload`` is sent as JSON, otherwise
    ``body`` as it is. ``headers`` add to or override ``Content-Length``;
    ``close`` ends the connection after the reply without announcing it."""

    status: int = 200
    payload: object = None
    body: bytes = b""
    headers: dict = field(default_factory=dict)
    close: bool = False


def chat_reply(text, usage=None, **kwargs) -> Reply:
    payload = {"choices": [{"message": {"content": text}}]}
    if usage is not None:
        payload["usage"] = usage
    return Reply(payload=payload, **kwargs)


# Replies that send no response: close the connection once the request is
# read, or send nothing until the server stops.
DROP = "drop"
STALL = "stall"


@dataclass
class Post:
    path: str
    headers: dict[str, str]  # names lowercased
    json: dict


class _ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # the body goes out apart from the headers
    timeout = 10  # a connection left open cannot hold up the server's stop for long

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        post = Post(self.path, {k.lower(): v for k, v in self.headers.items()}, json.loads(body))
        with self.server.lock:
            self.server.posts.append(post)
            reply = self.server.replies.pop(0) if self.server.replies else None
        reply = reply or self.server.respond(post)
        if reply in (DROP, STALL):
            if reply == STALL:
                self.server.released.wait()
            self.close_connection = True
            return
        data = reply.body if reply.payload is None else json.dumps(reply.payload).encode()
        self.send_response(reply.status)
        for name, value in {"Content-Length": str(len(data)), **reply.headers}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = reply.close

    def do_CONNECT(self):
        # A proxy that records the tunnel asked for and refuses it.
        with self.server.lock:
            self.server.tunnels.append(self.path)
        self.send_response(403)
        self.send_header("Content-Length", "0")
        self.end_headers()
        self.close_connection = True

    def log_message(self, *args):
        pass


class ChatServer(ThreadingHTTPServer):
    """An HTTP/1.1 chat-completion service on 127.0.0.1, on a free port.

    It records every POST in ``posts`` and answers each with the next of
    ``replies`` or, once they run out, with ``respond(post)``. As a proxy it
    records each CONNECT target in ``tunnels`` and refuses it. It counts the
    connections it accepted in ``connections`` and releases ``closed`` each
    time it has closed one. ``stop()`` closes the providers ``provider()``
    built, then the server, and joins every thread it started."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.lock = threading.Lock()
        self.replies: list = []
        self.respond = lambda post: chat_reply("0.9")
        self.posts: list[Post] = []
        self.tunnels: list[str] = []
        self.connections = 0
        self.closed = threading.Semaphore(0)
        self.released = threading.Event()
        self._providers: list[HttpChatProvider] = []
        self._thread = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.01})
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}/v1/chat/completions"

    def provider(self, **kwargs) -> HttpChatProvider:
        provider = HttpChatProvider(**{"endpoint": self.url, "api_key": "sk-test", **kwargs})
        self._providers.append(provider)
        return provider

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()

    def stop(self) -> None:
        try:
            for provider in self._providers:
                provider.close()
        finally:
            self.released.set()
            self.shutdown()
            self.server_close()
            self._thread.join(timeout=10)
        assert not self._thread.is_alive()
