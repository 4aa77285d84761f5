"""Depth-bounded beam search over provider calls.

Every state, seed or child, goes through one evaluation: gather evidence for
its query (if it has one), answer over the accumulated history, and score the
answer. The two seeds form the first level: the direct seed has no query, the
grounded seed's query is the question itself. Each later level asks every
beam state for follow-up queries, evaluates one child per query, prunes to
the beam width, and stops early as soon as a kept state reaches the
confidence threshold.

``SearchRun.run_search`` is the one way in. With ``workers`` above one, all
of a search's tasks go through one thread pool, which ``run_search`` builds
once the question is checked and shuts down when it returns or raises.
``workers`` caps the provider calls the search has in flight, not its
threads: each call takes one of ``workers`` slots of a call gate, and a
waiting call gets the next free slot by rank, then by arrival. The seeds'
answer and score calls rank last, since nothing needs them before depth-1
pruning; every other call ranks first. The pool has 2 x ``workers`` threads
whatever the beam size or query count; at ``workers=4`` that covers the at
most 8 tasks live at depth 1 at the defaults.
An ask reads only the question and a state's (query, evidence) history, and
seeds are never pruned, so each seed's ask is sent as soon as its history
exists: the direct seed's at once, the grounded seed's once its evidence is
gathered, before either seed is answered or scored. A search without an
early exit is then 1 + 4 x levels calls deep (9 at the defaults). A
parent's children start as soon as its ask returns; pruning waits for the
whole level, because it needs every score, and the asks of depth 2 and
below go out after it. Only the search's thread waits on a task, and a
task waits only for a slot that a call in flight frees, so no worker count
can deadlock. With one worker there is no gate and no thread starts: each
task runs on the calling thread when its result is read, which is the
seeds, then the level's asks in parent order, then its children in (parent
order, query order). Ids and trace events are assigned after collection in
that same order, so the trace never depends on completion order.

Every provider call, evidence calls included, goes through one function,
``SearchRun._complete``: it sends the request, retries a retryable failure
in the same thread, and counts the call. That is the only retry layer.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from .accounting import CostLedger
from .prompts import (
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

# Seconds before a request's second retry; see SearchRun._complete.
RETRY_BACKOFF_S = 0.5

# Pool threads per call slot. At workers=4 the 8 threads hold every task live
# at depth 1 at the defaults, so a task waits for a slot, not for a thread.
THREADS_PER_SLOT = 2


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


def _history_pairs(queries: Sequence[str], evidences: Sequence[Evidence]) -> list[tuple[str, str]]:
    """The (query, evidence text) pairs a prompt renders, in history order."""
    return [(q, e.text) for q, e in zip(queries, evidences)]


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


class _Deferred:
    """A task that runs when its result is read, on the reading thread, so
    with one worker the order results are read in is the order calls are
    sent in. The engine reads each result once."""

    def __init__(self, fn: Callable, args: tuple):
        self._fn, self._args = fn, args

    def result(self):
        return self._fn(*self._args)


class _CallGate:
    """At most ``slots`` calls in flight. A call that finds no free slot waits
    and is handed the next freed one by rank (lower first), then by arrival.
    Nobody waits while a slot is free."""

    def __init__(self, slots: int):
        self._free = slots
        self._waiting: list[tuple[int, int, threading.Event]] = []
        self._arrivals = itertools.count()
        self._lock = threading.Lock()

    @contextmanager
    def slot(self, rank: int):
        with self._lock:
            turn = None
            if self._free:
                self._free -= 1
            else:
                turn = threading.Event()
                heapq.heappush(self._waiting, (rank, next(self._arrivals), turn))
        if turn is not None:
            turn.wait()
        try:
            yield
        finally:
            with self._lock:
                if self._waiting:
                    heapq.heappop(self._waiting)[2].set()
                else:
                    self._free += 1


@dataclass
class _AskOutcome:
    """A parent's ask, and one submitted evaluation per kept query."""

    raw_queries: list[str] = field(default_factory=list)
    kept_queries: list[str] = field(default_factory=list)
    error: str | None = None
    ledger: CostLedger = field(default_factory=CostLedger)
    children: list = field(default_factory=list)


@dataclass
class _Outcome:
    """One evaluated state before it has an id: its history, answer and raw
    score or the error that stopped it, its calls and, for a seed, its ask."""

    query: str | None
    queries: tuple[str, ...]
    evidences: tuple[Evidence, ...]
    answer: str = ""
    raw_score: float = 0.0
    parse_error: str | None = None
    error: ProviderError | None = None
    ledger: CostLedger = field(default_factory=CostLedger)
    api_before_score: int = 0
    ask: Future | _Deferred | None = None


class SearchRun:
    """Executes searches: holds the current search's trace, ledger, id counter
    and pool.

    Each ``run_search`` call starts from an empty trace, a zero ledger and id
    0, so one run can answer several questions one after another, but not two
    at the same time. The provider and index it borrows may be shared across
    concurrent runs as long as they tolerate concurrent calls, which the
    bundled ones do. ``retries`` is how many times one request is sent again
    after a retryable ``ProviderError``.
    """

    def __init__(
        self,
        config: SearchConfig,
        provider: CompletionProvider,
        index: LexicalIndex | None = None,
        workers: int = 1,
        retries: int = 1,
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
        self._gate: _CallGate | None = None

    # -- provider plumbing ---------------------------------------------------

    def _complete(self, prompt: str, tag: str, ledger: CostLedger, last: bool = False) -> str:
        """Send one request and count it into ``ledger``. A retryable failure
        is sent again in the same thread, up to ``retries`` times: the first
        retry at once, retry k >= 2 after ``RETRY_BACKOFF_S * 2 ** (k - 2)``
        seconds. Any other failure, such as a scripted mismatch, is raised
        at once. During a pooled search each attempt holds a call slot, not
        the backoff sleep, and a ``last`` request waits behind every other;
        otherwise the request goes out inline."""
        request = CompletionRequest(prompt=prompt, tag=tag)
        for retry in range(self.retries + 1):
            if retry > 1:
                time.sleep(RETRY_BACKOFF_S * 2 ** (retry - 2))
            try:
                with self._gate.slot(int(last)) if self._gate else nullcontext():
                    resp = self.provider.complete(request)
            except ProviderError as err:
                if err.retryable and retry < self.retries:
                    continue
                raise
            ledger.record_api_call(resp.prompt_tokens, resp.completion_tokens)
            return resp.text

    def _submit(self, fn: Callable, *args) -> Future | _Deferred:
        """Start ``fn(*args)`` on the search's pool; with one worker, defer it
        until its result is read. A task may submit further tasks but never
        waits on one: only the search's thread reads results."""
        if self._pool is None:
            return _Deferred(fn, args)
        return self._pool.submit(fn, *args)

    def _emit(self, kind: str, payload: dict) -> None:
        self.trace.append(TraceEvent(kind=kind, payload=payload))

    # -- one state: gather, answer, score ---------------------------------------

    def _evaluate(
        self,
        question: str,
        queries: tuple[str, ...],
        evidences: tuple[Evidence, ...],
        query: str | None,
        seed: bool = False,
    ) -> _Outcome:
        """Extend the history with evidence gathered for ``query`` (if one is
        given), then answer over the history and score the answer. A seed
        submits its ask once its history exists, and its answer and score
        go out last. May run in a worker; a provider failure ends the state
        and is kept in the outcome."""
        outcome = _Outcome(query, queries, evidences)
        ledger = outcome.ledger
        try:
            if query is not None:
                complete = partial(self._complete, ledger=ledger)
                evidence = gather_evidence(question, query, self.config, complete, self.index, ledger)
                outcome.queries += (query,)
                outcome.evidences += (evidence,)
            if seed:
                outcome.ask = self._submit(
                    self._ask_parent, question, outcome.queries, outcome.evidences
                )
            history = _history_pairs(outcome.queries, outcome.evidences)
            prompt = render_answer_prompt(question, history)
            answer = self._complete(prompt, TAG_ANSWER, ledger, seed).strip()
            if not answer:
                # Contract violation: an unanswerable state cannot be scored.
                raise ProviderError("provider returned an empty answer")
            outcome.answer, outcome.api_before_score = answer, ledger.api_times
            prompt = render_score_prompt(question, history, answer)
            text = self._complete(prompt, TAG_SCORE, ledger, seed)
        except ProviderError as err:
            outcome.error = err
            return outcome
        try:
            outcome.raw_score = parse_score(text, clamp=False)
        except ScoreParseError as err:
            # Tolerated: an unscorable answer competes with confidence zero.
            outcome.parse_error = str(err)
        return outcome

    def _admit(
        self, question: str, outcome: _Outcome, depth: int, entry: dict
    ) -> SearchState | None:
        """Count an outcome's calls into the run and complete its trace entry;
        a successful outcome becomes a state under the next id."""
        self.ledger += outcome.ledger
        entry["retrievals"] = outcome.ledger.retrieval_times
        if outcome.error is not None:
            entry.update(
                state_id=None, error=str(outcome.error), api_calls=outcome.ledger.api_times
            )
            return None
        state = SearchState(
            question,
            outcome.queries,
            outcome.evidences,
            outcome.answer,
            clamp_score(outcome.raw_score),
            depth,
            self._next_id,
        )
        self._next_id += 1
        entry.update(state_id=state.state_id, answer=state.answer, api_calls=outcome.api_before_score)
        if outcome.query is not None:
            entry["provenance"] = state.evidences[-1].provenance
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

    # -- seeding ---------------------------------------------------------------

    def _seed_level(self, question: str) -> tuple[Beam, list]:
        """Evaluate the two depth-0 seeds as one level: a direct answer over an
        empty history, and an answer over evidence gathered for the question
        itself. Returns the beam and the asks each seed submitted. No
        threshold check happens here. A failed seed raises its provider
        error once both seeds' events and calls are recorded, and, with a
        pool, the asks' and children's."""
        direct = self._submit(self._evaluate, question, (), (), None, True)
        grounded = self._submit(self._evaluate, question, (), (), question, True)
        outcomes = [direct.result(), grounded.result()]
        beam: Beam = []
        for variant, outcome in zip(("direct", "evidence"), outcomes):
            payload = {"depth": 0, "variant": variant}
            state = self._admit(question, outcome, 0, payload)
            if state is not None and outcome.query is not None:
                payload["n_docs"] = len(state.evidences[-1].doc_ids)
            self._emit("seeded", payload)
            if state is not None:
                self._emit_scored(state, outcome)
                beam.append(state)
        failures = [outcome.error for outcome in outcomes if outcome.error is not None]
        if failures:
            # Pooled asks and their children are sent already (deferred ones
            # never are): count them.
            for ask in [o.ask.result() for o in outcomes if o.ask and self._pool is not None]:
                self.ledger += sum((child.result().ledger for child in ask.children), ask.ledger)
            raise failures[0]
        return beam, [outcome.ask for outcome in outcomes]

    # -- expansion ---------------------------------------------------------------

    def _ask_parent(
        self, question: str, queries: tuple[str, ...], evidences: tuple[Evidence, ...]
    ) -> _AskOutcome:
        """Ask for follow-up queries on this history and submit one child
        evaluation per kept query, without waiting for any of them. Needs no
        answer or score, so it may run before its parent has an id."""
        outcome = _AskOutcome()
        prompt = render_ask_prompt(question, _history_pairs(queries, evidences), self.config.max_queries)
        try:
            text = self._complete(prompt, TAG_ASK, outcome.ledger)
        except ProviderError as err:
            outcome.error = str(err)
            return outcome
        outcome.raw_queries = parse_questions(text, self.config.max_queries)
        seen = {_normalize_query(q) for q in queries}
        outcome.kept_queries = [q for q in outcome.raw_queries if _normalize_query(q) not in seen]
        outcome.children = [
            self._submit(self._evaluate, question, queries, evidences, query)
            for query in outcome.kept_queries
        ]
        return outcome

    def _expand_level(self, parents: Sequence[SearchState], depth: int, asks=None) -> Beam:
        """Expand every parent once; emits events, returns unpruned candidates.

        ``asks`` holds the parents' submitted asks by position: the seeds' at
        depth 1. Without it, each parent is asked now, after pruning. Each
        parent's children start as soon as its own ask returns; the caller
        prunes once the whole level is collected. Ids are assigned and events
        emitted after collection in (parent order, query order), so the trace
        never depends on completion order. With one worker, reading the
        results in that order sends every ask before any child.
        """
        if asks is None:
            submit_ask = partial(self._submit, self._ask_parent)
            asks = [submit_ask(p.original_query, p.asked_queries, p.evidences) for p in parents]
        asks = [task.result() for task in asks]
        scored: list[tuple[SearchState, _Outcome]] = []
        for parent, ask in zip(parents, asks):
            entries = []
            for query, child in zip(ask.kept_queries, ask.children):
                outcome = child.result()
                entry = {"query": query}
                state = self._admit(parent.original_query, outcome, depth, entry)
                entries.append(entry)
                if state is not None:
                    scored.append((state, outcome))
            self.ledger += ask.ledger
            payload = {
                "parent_id": parent.state_id,
                "depth": depth,
                "raw_queries": ask.raw_queries,
                "kept_queries": ask.kept_queries,
                "api_calls": ask.ledger.api_times,
                "children": entries,
            }
            if ask.error is not None:
                payload["ask_error"] = ask.error
            self._emit("expanded", payload)
        for state, outcome in scored:
            self._emit_scored(state, outcome)
        return [state for state, _ in scored]

    # -- the full loop --------------------------------------------------------------

    def run_search(self, question: str) -> SearchResult:
        """Run seeding, depth-bounded expansion, pruning, and final selection,
        from an empty trace, a zero ledger and id 0."""
        question = question.strip()
        if not question:
            raise ValueError("question must be non-empty")
        self.trace: list[TraceEvent] = []
        self.ledger = CostLedger()
        self._next_id = 0
        self._pool = None
        if self.workers > 1:
            self._gate = _CallGate(self.workers)
            self._pool = ThreadPoolExecutor(max_workers=THREADS_PER_SLOT * self.workers)
        try:
            beam, seed_asks = self._seed_level(question)
            final_beam = beam
            reason = EXIT_MAX_DEPTH
            for depth in range(1, self.config.max_depth + 1):
                candidates = self._expand_level(beam, depth, seed_asks if depth == 1 else None)
                if not candidates:
                    # Nothing survived this depth; finalize on the previous beam.
                    reason = EXIT_NO_CANDIDATES
                    break
                beam = prune_beam(candidates, self.config.beam_size)
                kept_ids = {s.state_id for s in beam}
                kept = [[s.state_id, s.score] for s in beam]
                dropped = sorted(c.state_id for c in candidates if c.state_id not in kept_ids)
                self._emit("pruned", {"depth": depth, "kept": kept, "dropped": dropped})
                final_beam = beam
                if should_terminate(beam, self.config.score_threshold):
                    best = select_answer(beam)
                    payload = {"depth": depth, "state_id": best.state_id, "score": best.score}
                    payload["threshold"] = self.config.score_threshold
                    self._emit("early_exit", payload)
                    reason = EXIT_EARLY
                    break
        except ProviderError as err:
            raise SearchError(f"search aborted: {err}", tuple(self.trace), self.ledger) from err
        finally:
            if self._pool is not None:
                self._pool.shutdown(cancel_futures=True)
            self._gate = None
        winner = select_answer(final_beam)
        self._emit(
            "finished",
            {
                "state_id": winner.state_id,
                "answer": winner.answer,
                "score": winner.score,
                "reason": reason,
            },
        )
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
