"""Depth-bounded beam search over provider calls.

The search repeats one level: ask each parent for queries, then evaluate one
child per query: gather evidence for its query (if it has one), answer over
the accumulated history, and score the answer. Depth 0 expands a root whose
ask sends no request and yields the two seeds' queries: none for the direct
seed, the question itself for the grounded one. Seeds are neither pruned nor
checked against the threshold; every later level is pruned to the beam
width, and the search stops early once a kept state reaches the threshold.

``SearchRun.run_search`` is the one way in. Each call makes a ``_Search``
that holds the question's trace, ledger, id counter and call queue. Each ask
and each evaluation is a step, a generator that yields its requests with a
rank: a depth-0 state's answer and score rank last, since nothing needs them
before depth-1 pruning, and every other request first. With one worker no
thread starts: a step runs when its result is read and sends its requests
inline, so they go out as the seeds, the level's asks in parent order, then
its children in (parent order, query order). Above one, a step starts when
it is made; the search's thread runs every render, parse and retrieval,
queues the requests by rank, then arrival, and hands at most ``workers`` at
a time to a pool of ``workers`` threads that send them. Seeds are never
pruned, so each seed's ask goes out once its history exists, and a search
without an early exit is 1 + 4 x levels calls deep (9 at the defaults);
other asks wait for pruning. Ids and trace events are assigned after
collection in the serial order, so the trace never depends on completion
order.

Every request comes from one generator, ``_Search._complete``, the only
retry layer: it yields the request, yields the wait before a retry instead
of sleeping, and counts the call.
"""

from __future__ import annotations

import heapq
import itertools
import json
import queue
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Generator, Mapping, Sequence

from .accounting import CostLedger
from .prompts import (
    EMBEDDED_TEMPLATES,
    ScoreParseError,
    clamp_score,
    parse_questions,
    parse_score,
    render_answer_prompt,
    render_ask_prompt,
    render_score_prompt,
)
from .providers import (
    CompletionProvider,
    CompletionRequest,
    ProviderError,
    TAG_ANSWER,
    TAG_ASK,
    TAG_SCORE,
)
from .retrieval import (
    EVIDENCE_MODES,
    Evidence,
    LexicalIndex,
    RETRIEVE_SUMMARIZE,
    gather_evidence,
)

TRACE_KINDS = ("seeded", "expanded", "scored", "pruned", "early_exit", "finished")

EXIT_EARLY = "early_exit"
EXIT_MAX_DEPTH = "max_depth"
EXIT_NO_CANDIDATES = "no_candidates"

# Seconds before a request's second retry; see _Search._complete.
RETRY_BACKOFF_S = 0.5
# The longest wait a service's Retry-After can ask of one retry.
MAX_RETRY_AFTER_S = 60.0


class SearchError(Exception):
    """A search aborted; carries the partial trace and ledger as a diagnostic."""

    def __init__(self, message: str, trace: tuple["TraceEvent", ...], ledger: CostLedger):
        super().__init__(message)
        self.trace = trace
        self.ledger = ledger


@dataclass(frozen=True)
class SearchConfig:
    """Hyperparameters of one search. Defaults follow the NQ setup:
    threshold 0.8, beam 2, depth 2, 2 documents per retrieval, 2 generated
    queries, evidence via retrieval plus summarization."""

    beam_size: int = 2
    max_depth: int = 2
    max_queries: int = 2
    retrieval_docs: int = 2
    score_threshold: float = 0.8
    evidence_mode: str = RETRIEVE_SUMMARIZE

    def __post_init__(self):
        for name in ("beam_size", "max_depth", "max_queries", "retrieval_docs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError(f"score_threshold must be in [0, 1], got {self.score_threshold}")
        if self.evidence_mode not in EVIDENCE_MODES:
            raise ValueError(f"unknown evidence_mode {self.evidence_mode!r}")


@dataclass(frozen=True)
class SearchState:
    """One beam element: the question, the query/evidence history accumulated
    so far, the current answer, and its confidence."""

    original_query: str
    asked_queries: tuple[str, ...]
    evidences: tuple[Evidence, ...]
    answer: str
    score: float
    depth: int
    state_id: int

    def __post_init__(self):
        object.__setattr__(self, "asked_queries", tuple(self.asked_queries))
        object.__setattr__(self, "evidences", tuple(self.evidences))
        if len(self.asked_queries) != len(self.evidences):
            raise ValueError(
                f"history misaligned: {len(self.asked_queries)} queries "
                f"vs {len(self.evidences)} evidences"
            )
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")


Beam = list[SearchState]


def _history_pairs(history: Sequence[Evidence]) -> list[tuple[str, str]]:
    """The (query, evidence text) pairs a prompt renders, in history order."""
    return [(e.source_query, e.text) for e in history]


@dataclass(frozen=True)
class TraceEvent:
    kind: str
    payload: dict

    def __post_init__(self):
        if self.kind not in TRACE_KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}")

    def to_json_line(self) -> str:
        return json.dumps(
            {"kind": self.kind, "payload": self.payload},
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=False,
        )


@dataclass(frozen=True)
class SearchResult:
    final_answer: str
    final_state: SearchState
    trace: tuple[TraceEvent, ...]
    ledger: CostLedger

    def trace_lines(self) -> list[str]:
        return [event.to_json_line() for event in self.trace]


def _rank_key(state: SearchState) -> tuple[float, int]:
    return (-state.score, state.state_id)


def prune_beam(states: Sequence[SearchState], beam_size: int) -> Beam:
    """Keep the ``beam_size`` highest-scoring states; ties go to the earlier
    (smaller id) state. Output is sorted score-descending then id-ascending;
    the input is left untouched."""
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    return sorted(states, key=_rank_key)[:beam_size]


def should_terminate(beam: Sequence[SearchState], threshold: float) -> bool:
    """True iff any state's confidence reached the threshold."""
    return any(state.score >= threshold for state in beam)


def select_answer(beam: Sequence[SearchState]) -> SearchState:
    """The highest-scoring state; ties go to the earlier state."""
    if not beam:
        raise ValueError("cannot select from an empty beam")
    return min(beam, key=_rank_key)


def _normalize_query(query: str) -> str:
    return " ".join(query.split()).casefold()


@dataclass
class _AskOutcome:
    """A parent's ask, and one started evaluation per kept query."""

    raw_queries: list[str] = field(default_factory=list)
    kept_queries: list[str | None] = field(default_factory=list)
    error: str | None = None
    ledger: CostLedger = field(default_factory=CostLedger)
    children: list = field(default_factory=list)


@dataclass
class _Outcome:
    """One evaluated state before it has an id: its history, answer and raw
    score or the error that stopped it, its calls and, at depth 0, its ask."""

    query: str | None
    history: tuple[Evidence, ...]
    answer: str = ""
    raw_score: float = 0.0
    parse_error: str | None = None
    error: ProviderError | None = None
    ledger: CostLedger = field(default_factory=CostLedger)
    api_before_score: int = 0
    ask: Generator | None = None


class SearchRun:
    """Executes searches with one config, provider and index.

    Each ``run_search`` call answers its question on its own ``_Search``,
    which starts from an empty trace, a zero ledger and id 0, so one run can
    answer several questions one after another or from several threads at
    once. The provider and index it borrows must then tolerate concurrent
    calls, which the bundled ones do. ``retries`` is how many times one
    request is sent again after a retryable ``ProviderError``. ``templates``
    (see ``load_templates``) renders every prompt the run sends.
    """

    def __init__(
        self,
        config: SearchConfig,
        provider: CompletionProvider,
        index: LexicalIndex | None = None,
        workers: int = 1,
        retries: int = 1,
        templates: Mapping[str, str] = EMBEDDED_TEMPLATES,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if config.evidence_mode == RETRIEVE_SUMMARIZE and index is None:
            raise ValueError("retrieve_summarize mode needs an index")
        self.config = config
        self.provider = provider
        self.index = index
        self.workers = workers
        self.retries = retries
        self.templates = templates

    def run_search(self, question: str) -> SearchResult:
        """Run the levels, pruning, and final selection for one question,
        from an empty trace, a zero ledger and id 0."""
        question = question.strip()
        if not question:
            raise ValueError("question must be non-empty")
        return _Search(self, question).run()


class _Search:
    """One question's search: its trace, ledger, id counter, call queue and,
    while it runs above one worker, its pool. It borrows the settings,
    provider, index and templates of the ``SearchRun`` that made it."""

    def __init__(self, owner: SearchRun, question: str):
        self.owner, self.config, self.index = owner, owner.config, owner.index
        self.templates = owner.templates
        self.question = question
        self.trace: list[TraceEvent] = []
        self.ledger = CostLedger()
        self._next_id = 0
        self._pool: ThreadPoolExecutor | None = None
        # A step (an ask or an evaluation) yields (rank, request) or seconds to
        # wait, is sent each response or thrown its failure, and returns its
        # result, kept until read. Queued: (rank, arrival, step, request), (due, arrival, step).
        self._results: dict[Generator, object] = {}
        self._ready, self._timers = [], []
        self._sending: dict[Future, Generator] = {}
        self._ended: queue.SimpleQueue[Future] = queue.SimpleQueue()
        self._arrivals = itertools.count()

    def _complete(self, prompt: str, tag: str, ledger: CostLedger, last: bool = False) -> Generator:
        """Yield one request, ranked last if ``last``, count it into ``ledger``
        and return its text. A retryable failure is sent again, up to the
        run's ``retries`` times: the first retry at once, retry k >= 2 after
        ``RETRY_BACKOFF_S * 2 ** (k - 2)`` seconds, and none sooner than the
        failure's ``retry_after``, capped at ``MAX_RETRY_AFTER_S``; the wait
        is yielded, so it holds no sender. Any other failure is raised."""
        request = CompletionRequest(prompt=prompt, tag=tag)
        for retry in itertools.count():
            try:
                resp = yield int(last), request
            except ProviderError as err:
                if not (err.retryable and retry < self.owner.retries):
                    raise
                backoff = RETRY_BACKOFF_S * 2 ** (retry - 1) if retry else 0.0
                pause = max(backoff, min(err.retry_after or 0.0, MAX_RETRY_AFTER_S))
                if pause:
                    yield pause
                continue
            ledger.record_api_call(resp.prompt_tokens, resp.completion_tokens)
            return resp.text

    # -- the call queue -------------------------------------------------------------

    def _start(self, step: Generator) -> Generator:
        """With a pool, run ``step`` to its first request or wait, which
        joins the queue; without one, it runs when its result is read."""
        if self._pool is not None:
            self._queue(step)
        return step

    def _advance(self, step: Generator, reply=None, error: BaseException | None = None):
        """Resume ``step`` on this thread with its last request's response or
        error, and return what it yields next, or keep what it returns."""
        try:
            return step.throw(error) if error else step.send(reply)
        except StopIteration as stop:
            self._results[step] = stop.value

    def _queue(self, step: Generator, reply=None, error: BaseException | None = None) -> None:
        """Resume ``step`` and queue the request or wait it yields next."""
        item = self._advance(step, reply, error)
        if isinstance(item, tuple):
            heapq.heappush(self._ready, (item[0], next(self._arrivals), step, item[1]))
        elif step not in self._results:
            heapq.heappush(self._timers, (time.monotonic() + item, next(self._arrivals), step))

    def _result(self, step: Generator):
        """Return ``step``'s result: without a pool, run the step, its sends and
        its waits here; with one, run the queue until the step has returned."""
        if self._pool is None:
            item = self._advance(step)
            while step not in self._results:
                reply = error = None
                if isinstance(item, tuple):
                    try:
                        reply = self.owner.provider.complete(item[1])
                    except ProviderError as err:
                        error = err
                else:
                    time.sleep(item)
                item = self._advance(step, reply, error)
        while step not in self._results:
            self._turn()
        return self._results.pop(step)

    def _turn(self) -> None:
        """Send the best-ranked requests while fewer than ``workers`` are in
        flight, then resume a step whose send ended and any due a retry."""
        while self._ready and len(self._sending) < self.owner.workers:
            _, _, step, request = heapq.heappop(self._ready)
            future = self._pool.submit(self.owner.provider.complete, request)
            self._sending[future] = step
            future.add_done_callback(self._ended.put)
        timeout = max(self._timers[0][0] - time.monotonic(), 0.0) if self._timers else None
        try:
            future = self._ended.get(timeout=timeout)
        except queue.Empty:
            pass
        else:
            step, error = self._sending.pop(future), future.exception()
            self._queue(step, None if error else future.result(), error)
        while self._timers and self._timers[0][0] <= time.monotonic():
            self._queue(heapq.heappop(self._timers)[2])

    def _emit(self, kind: str, payload: dict) -> None:
        self.trace.append(TraceEvent(kind=kind, payload=payload))

    # -- one parent: ask; one child: gather, answer, score -----------------------

    def _ask(self, history: tuple[Evidence, ...], depth: int) -> Generator:
        """Ask for the queries of this history's children at ``depth`` and
        start one child evaluation per kept query, without waiting for any
        of them. At depth 0 the parent is the root, whose queries are the
        seeds', none and the question itself, with no provider call. Needs
        no answer or score, so it may run before its parent has an id."""
        outcome = _AskOutcome()
        if depth == 0:
            outcome.kept_queries = [None, self.question]
        else:
            pairs, k = _history_pairs(history), self.config.max_queries
            prompt = render_ask_prompt(self.question, pairs, k, templates=self.templates)
            try:
                text = yield from self._complete(prompt, TAG_ASK, outcome.ledger)
            except ProviderError as err:
                outcome.error = str(err)
                return outcome
            outcome.raw_queries = parse_questions(text, self.config.max_queries)
            # A query asked on this path, or earlier in this ask, would repeat work.
            seen = {_normalize_query(e.source_query) for e in history}
            for query in outcome.raw_queries:
                norm = _normalize_query(query)
                if norm not in seen:
                    seen.add(norm)
                    outcome.kept_queries.append(query)
        outcome.children = [self._start(self._evaluate(history, q, depth)) for q in outcome.kept_queries]
        return outcome

    def _evaluate(self, history: tuple[Evidence, ...], query: str | None, depth: int) -> Generator:
        """Extend the history with evidence gathered for ``query`` (if one is
        given), then answer over the history and score the answer. A depth-0
        state starts its ask once its history exists, and its answer and
        score go out last. A provider failure ends the state and is kept in
        the outcome."""
        outcome = _Outcome(query, history)
        ledger, seed = outcome.ledger, depth == 0
        try:
            if query is not None:
                complete = partial(self._complete, ledger=ledger)
                gather = gather_evidence(
                    self.question, query, self.config, complete, self.index, ledger, templates=self.templates
                )
                outcome.history += ((yield from gather),)
            if seed:
                outcome.ask = self._start(self._ask(outcome.history, 1))
            pairs = _history_pairs(outcome.history)
            prompt = render_answer_prompt(self.question, pairs, templates=self.templates)
            answer = (yield from self._complete(prompt, TAG_ANSWER, ledger, seed)).strip()
            if not answer:
                # Contract violation: an unanswerable state cannot be scored.
                raise ProviderError("provider returned an empty answer")
            outcome.answer, outcome.api_before_score = answer, ledger.api_times
            prompt = render_score_prompt(self.question, pairs, answer, templates=self.templates)
            text = yield from self._complete(prompt, TAG_SCORE, ledger, seed)
        except ProviderError as err:
            outcome.error = err
            return outcome
        try:
            outcome.raw_score = parse_score(text)
        except ScoreParseError as err:
            # Tolerated: an unscorable answer competes with confidence zero.
            outcome.parse_error = str(err)
        return outcome

    # -- one level: collect, admit, emit --------------------------------------------

    def _admit(self, outcome: _Outcome, depth: int, entry: dict) -> SearchState | None:
        """Count an outcome's calls into the search and complete its trace
        entry; a successful outcome becomes a state under the next id."""
        self.ledger += outcome.ledger
        entry["retrievals"] = outcome.ledger.retrieval_times
        if outcome.error is not None:
            entry.update(
                state_id=None, error=str(outcome.error), api_calls=outcome.ledger.api_times
            )
            return None
        state = SearchState(
            self.question,
            tuple(e.source_query for e in outcome.history),
            outcome.history,
            outcome.answer,
            clamp_score(outcome.raw_score),
            depth,
            self._next_id,
        )
        self._next_id += 1
        entry.update(state_id=state.state_id, answer=state.answer, api_calls=outcome.api_before_score)
        if outcome.query is not None:
            entry["provenance"] = state.evidences[-1].provenance
            if depth == 0:
                entry["n_docs"] = len(state.evidences[-1].doc_ids)
        return state

    def _emit_scored(self, state: SearchState, outcome: _Outcome) -> None:
        payload = {
            "state_id": state.state_id,
            "score": state.score,
            "api_calls": outcome.ledger.api_times - outcome.api_before_score,
        }
        if outcome.parse_error is not None:
            payload["parse_error"] = outcome.parse_error
        if state.score != outcome.raw_score:
            payload["clamped"] = outcome.raw_score
        self._emit("scored", payload)

    def _level(
        self, parents: list[tuple[SearchState | None, Generator | None]], depth: int
    ) -> list[tuple[SearchState | None, _Outcome]]:
        """Collect one level and return each child's state (None if it
        failed) and outcome. ``parents`` pairs each parent with its started
        ask, or with None to ask it now. Each parent's children start as soon
        as its own ask returns. Ids and events follow (parent order, query
        order), whatever the completion order: each seed gets a ``seeded``
        event and then its ``scored`` one; below depth 0 each parent gets an
        ``expanded`` event, and the level's ``scored`` events follow."""
        asks = [ask or self._start(self._ask(p.evidences, depth)) for p, ask in parents]
        asks = [self._result(step) for step in asks]
        children = []
        for (parent, _), ask in zip(parents, asks):
            first = len(children)
            for query, step in zip(ask.kept_queries, ask.children):
                outcome = self._result(step)
                if depth == 0:
                    entry = {"depth": 0, "variant": "direct" if query is None else "evidence"}
                else:
                    entry = {"query": query}
                children.append((entry, self._admit(outcome, depth, entry), outcome))
            self.ledger += ask.ledger
            if depth > 0:
                payload = {
                    "parent_id": parent.state_id,
                    "depth": depth,
                    "raw_queries": ask.raw_queries,
                    "kept_queries": ask.kept_queries,
                    "api_calls": ask.ledger.api_times,
                    "children": [entry for entry, _, _ in children[first:]],
                }
                if ask.error is not None:
                    payload["ask_error"] = ask.error
                self._emit("expanded", payload)
        for entry, state, outcome in children:
            if depth == 0:
                self._emit("seeded", entry)
            if state is not None:
                self._emit_scored(state, outcome)
        return [(state, outcome) for _, state, outcome in children]

    # -- the full loop --------------------------------------------------------------

    def run(self) -> SearchResult:
        """Expand the root into the seeds, then each beam level by level;
        prune, stop early, and select the final answer."""
        config, workers = self.config, self.owner.workers
        if workers > 1:
            self._pool = ThreadPoolExecutor(max_workers=workers)
        parents = [(None, self._start(self._ask((), 0)))]
        beam: Beam = []
        reason = EXIT_MAX_DEPTH
        try:
            for depth in range(config.max_depth + 1):
                children = self._level(parents, depth)
                candidates = [state for state, _ in children if state is not None]
                if depth == 0:
                    failures = [o.error for _, o in children if o.error is not None]
                    if failures:
                        # Steps already started (with a pool, the seeds' asks
                        # and their children) finish, and their calls count.
                        while self._ready or self._timers or self._sending:
                            self._turn()
                        self.ledger += sum((r.ledger for r in self._results.values()), CostLedger())
                        err = failures[0]
                        raise SearchError(f"search aborted: {err}", tuple(self.trace), self.ledger) from err
                    # Seeds are neither pruned nor checked against the threshold.
                    beam = candidates
                elif not candidates:
                    # Nothing survived this depth; finalize on the previous beam.
                    reason = EXIT_NO_CANDIDATES
                    break
                else:
                    beam = prune_beam(candidates, config.beam_size)
                    kept_ids = {s.state_id for s in beam}
                    kept = [[s.state_id, s.score] for s in beam]
                    dropped = sorted(c.state_id for c in candidates if c.state_id not in kept_ids)
                    self._emit("pruned", {"depth": depth, "kept": kept, "dropped": dropped})
                    if should_terminate(beam, config.score_threshold):
                        best = select_answer(beam)
                        payload = {"depth": depth, "state_id": best.state_id, "score": best.score}
                        self._emit("early_exit", {**payload, "threshold": config.score_threshold})
                        reason = EXIT_EARLY
                        break
                # A seed's ask went out with its history; the next level asks
                # every other parent.
                sent = {s.state_id: o.ask for s, o in children if o.ask}
                parents = [(p, sent.get(p.state_id)) for p in beam]
        finally:
            if self._pool is not None:
                self._pool.shutdown()
        winner = select_answer(beam)
        payload = {"state_id": winner.state_id, "answer": winner.answer, "score": winner.score}
        self._emit("finished", {**payload, "reason": reason})
        return SearchResult(winner.answer, winner, tuple(self.trace), self.ledger)


def run_search(
    question: str,
    config: SearchConfig,
    provider: CompletionProvider,
    index: LexicalIndex | None = None,
    workers: int = 1,
) -> SearchResult:
    """Convenience wrapper: one fresh run per question."""
    return SearchRun(config, provider, index=index, workers=workers).run_search(question)
