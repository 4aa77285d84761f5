"""Depth-bounded beam search over provider calls.

Every state, seed or child, goes through one evaluation: gather evidence for
its query (if it has one), answer over the accumulated history, and score the
answer. The two seeds form the first level: the direct seed has no query, the
grounded seed's query is the question itself. Each later level asks every
beam state for follow-up queries, evaluates one child per query, prunes to
the beam width, and stops early as soon as a kept state reaches the
confidence threshold.

With ``workers`` above one, all of a run's calls go through one thread pool,
built at its first task and shut down when the run (or a directly called
``initialize_beam`` or ``expand_state``) returns or raises. A parent's
children start as soon as that parent's ask returns, without waiting for the
other parents' asks; pruning still waits for the whole level, because it
needs every score. Only the run's thread waits on a task, so no worker count
can deadlock. With one worker no thread starts: each task runs on the calling
thread when its result is read, which is the seeds, then the level's asks in
parent order, then its children in (parent order, query order). Ids and
trace events are assigned after collection in that same order, so the trace
never depends on completion order.
"""

from __future__ import annotations

import json
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .accounting import CostLedger
from .prompts import (
    ScoreParseError,
    parse_questions,
    parse_score,
    render_answer_prompt,
    render_ask_prompt,
    render_score_prompt,
)
from .providers import (
    CompletionProvider,
    CompletionRequest,
    CompletionResponse,
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
    dedupe_queries: bool = True

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

    def history_pairs(self) -> list[tuple[str, str]]:
        return [(q, e.text) for q, e in zip(self.asked_queries, self.evidences)]


Beam = list[SearchState]


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


@dataclass
class _AskOutcome:
    """A parent's ask, and one submitted evaluation per kept query."""

    parent: SearchState
    raw_queries: list[str] = field(default_factory=list)
    kept_queries: list[str] = field(default_factory=list)
    error: str | None = None
    ledger: CostLedger = field(default_factory=CostLedger)
    children: list = field(default_factory=list)


@dataclass
class _Outcome:
    """One evaluated state before it has an id: its history, answer and score,
    or the provider error that stopped it, plus the calls it cost."""

    query: str | None
    queries: tuple[str, ...]
    evidences: tuple[Evidence, ...]
    answer: str = ""
    score: float = 0.0
    parse_error: str | None = None
    error: ProviderError | None = None
    ledger: CostLedger = field(default_factory=CostLedger)
    api_before_score: int = 0


class _RetryOnce(CompletionProvider):
    """Sends a request once more, at once and in the same thread, when it
    fails retryably; scripted mismatches are deterministic and fail straight
    through. Every engine request, evidence calls included, goes through it."""

    def __init__(self, inner: CompletionProvider):
        self.inner = inner

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        try:
            return self.inner.complete(request)
        except ProviderError as err:
            if not err.retryable:
                raise
            return self.inner.complete(request)


class SearchRun:
    """Executes one search: holds the trace, the ledger, and the id counter.

    A run is single-use (one question); the provider and index it borrows may
    be shared across concurrent runs as long as they tolerate concurrent
    calls, which the bundled ones do.
    """

    def __init__(
        self,
        config: SearchConfig,
        provider: CompletionProvider,
        index: LexicalIndex | None = None,
        workers: int = 1,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if config.evidence_mode == RETRIEVE_SUMMARIZE and index is None:
            raise ValueError("retrieve_summarize mode needs an index")
        self.config = config
        self.provider = _RetryOnce(provider)
        self.index = index
        self.workers = workers
        self.trace: list[TraceEvent] = []
        self.ledger = CostLedger()
        self._next_id = 0
        self._pool: ThreadPoolExecutor | None = None

    # -- provider plumbing ---------------------------------------------------

    def _complete(self, prompt: str, tag: str, ledger: CostLedger) -> str:
        resp = self.provider.complete(CompletionRequest(prompt=prompt, tag=tag))
        ledger.record_api_call(resp.prompt_tokens, resp.completion_tokens)
        return resp.text

    def _submit(self, fn: Callable, *args) -> Future | _Deferred:
        """Start ``fn(*args)`` on the run's pool, built on first use; with one
        worker, defer it until its result is read. A task may submit further
        tasks but never waits on one: only the run's thread reads results."""
        if self.workers == 1:
            return _Deferred(fn, args)
        if self._pool is None:
            # Only the run's thread gets here: tasks exist once the pool does.
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool.submit(fn, *args)

    def _shutdown_pool(self) -> None:
        """Called on the way out of every public entry point, so that no
        worker outlives the call that started it."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def _emit(self, kind: str, payload: dict) -> None:
        self.trace.append(TraceEvent(kind=kind, payload=payload))

    # -- one state: gather, answer, score ---------------------------------------

    def _evaluate(
        self,
        question: str,
        queries: tuple[str, ...],
        evidences: tuple[Evidence, ...],
        query: str | None,
    ) -> _Outcome:
        """Extend the history with evidence gathered for ``query`` (if one is
        given), answer over it and score the answer. May run in a worker; a
        provider failure ends the state and is kept in the outcome."""
        outcome = _Outcome(query, queries, evidences)
        ledger = outcome.ledger
        try:
            if query is not None:
                evidence = gather_evidence(
                    question, query, self.config, self.provider, self.index, ledger
                )
                outcome.queries += (query,)
                outcome.evidences += (evidence,)
            history = [(q, e.text) for q, e in zip(outcome.queries, outcome.evidences)]
            prompt = render_answer_prompt(question, history)
            answer = self._complete(prompt, TAG_ANSWER, ledger).strip()
            if not answer:
                # Contract violation: an unanswerable state cannot be scored.
                raise ProviderError("provider returned an empty answer")
            outcome.answer, outcome.api_before_score = answer, ledger.api_times
            prompt = render_score_prompt(question, history, answer)
            text = self._complete(prompt, TAG_SCORE, ledger)
        except ProviderError as err:
            outcome.error = err
            return outcome
        try:
            outcome.score = parse_score(text)
        except ScoreParseError as err:
            # Tolerated: an unscorable answer competes with confidence zero.
            outcome.parse_error = str(err)
        return outcome

    def _admit(
        self, question: str, outcome: _Outcome, depth: int, entry: dict
    ) -> SearchState | None:
        """Count an outcome's calls into the run and complete its trace entry;
        a successful outcome becomes a state under the next id."""
        self.ledger.merge_from(outcome.ledger)
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
            outcome.score,
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
        self._emit("scored", payload)

    # -- seeding ---------------------------------------------------------------

    def initialize_beam(self, question: str) -> Beam:
        """Evaluate the two depth-0 seeds as one level: a direct answer over an
        empty history, and an answer over evidence gathered for the question
        itself. No threshold check happens here. A failed seed raises its
        provider error once both seeds' events and calls are recorded."""
        try:
            return self._seed_level(question)
        finally:
            self._shutdown_pool()

    def _seed_level(self, question: str) -> Beam:
        question = question.strip()
        if not question:
            raise ValueError("question must be non-empty")
        tasks = [self._submit(self._evaluate, question, (), (), query) for query in (None, question)]
        outcomes = [task.result() for task in tasks]
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
            raise failures[0]
        return beam

    # -- expansion ---------------------------------------------------------------

    def _ask_parent(self, parent: SearchState) -> _AskOutcome:
        """Ask ``parent`` for follow-up queries and submit one child
        evaluation per kept query, without waiting for any of them."""
        outcome = _AskOutcome(parent=parent)
        prompt = render_ask_prompt(
            parent.original_query, parent.history_pairs(), self.config.max_queries
        )
        try:
            text = self._complete(prompt, TAG_ASK, outcome.ledger)
        except ProviderError as err:
            outcome.error = str(err)
            return outcome
        outcome.raw_queries = parse_questions(text, self.config.max_queries)
        kept = outcome.raw_queries
        if self.config.dedupe_queries:
            seen = {_normalize_query(q) for q in parent.asked_queries}
            kept = [q for q in kept if _normalize_query(q) not in seen]
        outcome.kept_queries = kept
        outcome.children = [
            self._submit(
                self._evaluate, parent.original_query, parent.asked_queries, parent.evidences, query
            )
            for query in kept
        ]
        return outcome

    def _expand_level(self, parents: Sequence[SearchState], depth: int) -> Beam:
        """Expand every parent once; emits events, returns unpruned candidates.

        Each parent's children start as soon as its own ask returns; the
        caller prunes once the whole level is collected. Ids are assigned and
        events emitted after collection in (parent order, query order), so the
        trace never depends on completion order. With one worker, reading the
        results in that order sends every ask before any child.
        """
        tasks = [self._submit(self._ask_parent, parent) for parent in parents]
        asks = [task.result() for task in tasks]
        scored: list[tuple[SearchState, _Outcome]] = []
        for ask in asks:
            entries = []
            for query, child in zip(ask.kept_queries, ask.children):
                outcome = child.result()
                entry = {"query": query}
                state = self._admit(ask.parent.original_query, outcome, depth, entry)
                entries.append(entry)
                if state is not None:
                    scored.append((state, outcome))
            self.ledger.merge_from(ask.ledger)
            payload = {
                "parent_id": ask.parent.state_id,
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

    def expand_state(self, parent: SearchState) -> Beam:
        """Expand one state into scored children (one generated query each)."""
        if parent.depth >= self.config.max_depth:
            raise ValueError(
                f"state {parent.state_id} is already at the maximum depth {self.config.max_depth}"
            )
        try:
            return self._expand_level([parent], parent.depth + 1)
        finally:
            self._shutdown_pool()

    # -- the full loop --------------------------------------------------------------

    def run_search(self, question: str) -> SearchResult:
        """Run seeding, depth-bounded expansion, pruning, and final selection."""
        if not question or not question.strip():
            raise ValueError("question must be non-empty")
        try:
            beam = self._seed_level(question)
            final_beam = beam
            reason = EXIT_MAX_DEPTH
            for depth in range(1, self.config.max_depth + 1):
                candidates = self._expand_level(beam, depth)
                if not candidates:
                    # Nothing survived this depth; finalize on the previous beam.
                    reason = EXIT_NO_CANDIDATES
                    break
                beam = prune_beam(candidates, self.config.beam_size)
                kept_ids = {s.state_id for s in beam}
                self._emit(
                    "pruned",
                    {
                        "depth": depth,
                        "kept": [[s.state_id, s.score] for s in beam],
                        "dropped": sorted(
                            c.state_id for c in candidates if c.state_id not in kept_ids
                        ),
                    },
                )
                final_beam = beam
                if should_terminate(beam, self.config.score_threshold):
                    best = select_answer(beam)
                    self._emit(
                        "early_exit",
                        {
                            "depth": depth,
                            "state_id": best.state_id,
                            "score": best.score,
                            "threshold": self.config.score_threshold,
                        },
                    )
                    reason = EXIT_EARLY
                    break
        except ProviderError as err:
            raise SearchError(
                f"search aborted: {err}", tuple(self.trace), self.ledger
            ) from err
        finally:
            self._shutdown_pool()
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
