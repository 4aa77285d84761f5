"""Spans recorded around calls into beamqa's public functions, and the
per-layer numbers derived from them.

Nothing here reaches inside the package: the benchmark wraps its own
provider and swaps module attributes where their callers look them up (for
example ``beamqa.search.render_answer_prompt``), restoring them afterwards.
Spans are kept in memory; ``Tracer.write`` saves them as JSON lines.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from beamqa.prompts import parse_questions
from beamqa.providers import (
    TAG_ASK,
    CompletionProvider,
    CompletionRequest,
    CompletionResponse,
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    qid: int | None = None
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the current question id and span live per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def context(self) -> tuple[int | None, int | None]:
        return getattr(self._local, "qid", None), getattr(self._local, "span", None)

    def enter(self, context: tuple[int | None, int | None]) -> None:
        self._local.qid, self._local.span = context

    @contextmanager
    def span(self, name: str, attrs: dict | None = None) -> Iterator[dict]:
        qid, parent = self.context()
        sid = next(self._ids)
        attrs = {} if attrs is None else attrs
        self._local.span = sid
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException as err:
            attrs["error"] = type(err).__name__
            raise
        finally:
            end = time.perf_counter()
            self._local.span = parent
            self.spans.append(Span(sid, name, start, end, qid, parent, attrs))

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[..., dict] | None = None,
        after: Callable[[dict, object], None] | None = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            with self.span(name, attrs):
                result = fn(*args, **kwargs)
                if after:
                    after(attrs, result)
                return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), default=str) + "\n")


class TracingProvider(CompletionProvider):
    """Records one ``providers.<tag>`` span per attempt sent to ``inner``.

    An ``ask`` span also keeps the queries the engine parses from the
    response (``max_queries`` of them at most), which pairs it with the
    gathers of its children.
    """

    def __init__(self, inner, tracer: Tracer, max_queries: int):
        self.inner = inner
        self.tracer = tracer
        self.max_queries = max_queries

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        attrs = {"prompt_key": hash(request.prompt)}
        try:
            with self.tracer.span(f"providers.{request.tag}", attrs):
                response = self.inner.complete(request)
        finally:
            local = self.inner.local
            attrs["attempt"] = local.attempt
            attrs["fault"] = local.failed
        attrs["prompt_tokens"] = response.prompt_tokens
        if request.tag == TAG_ASK:
            attrs["queries"] = parse_questions(response.text, self.max_queries)
        return response


def _context_pool(tracer: Tracer) -> type:
    class ContextPool(ThreadPoolExecutor):
        """Runs each task under the question and span that submitted it."""

        def submit(self, fn, /, *args, **kwargs):
            context = tracer.context()

            def run():
                tracer.enter(context)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.enter((None, None))

            return super().submit(run)

    return ContextPool


def _query_arg(position: int) -> Callable[..., dict]:
    def before(*args, **kwargs) -> dict:
        return {"query": args[position] if len(args) > position else kwargs["query"]}

    return before


def _count_hits(attrs: dict, result) -> None:
    attrs["hits"] = len(result)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Swap traced wrappers into the places beamqa looks its functions up."""
    import beamqa.cli as cli
    import beamqa.retrieval as retrieval
    import beamqa.search as search

    swaps = [
        (search, "ThreadPoolExecutor", _context_pool(tracer)),
        (search, "gather_evidence",
         tracer.wrap("retrieval.gather_evidence", search.gather_evidence, _query_arg(1))),
        (retrieval, "retrieve",
         tracer.wrap("retrieval.retrieve", retrieval.retrieve, _query_arg(1), _count_hits)),
        (cli, "load_corpus", tracer.wrap("retrieval.load_corpus", cli.load_corpus)),
        (cli, "index_corpus", tracer.wrap("retrieval.build", cli.index_corpus)),
        (cli, "save_index", tracer.wrap("retrieval.save", cli.save_index)),
    ]
    for module, attr in (
        (search, "render_answer_prompt"),
        (search, "render_ask_prompt"),
        (search, "render_score_prompt"),
        (retrieval, "render_summarize_prompt"),
        (retrieval, "render_genread_prompt"),
    ):
        template = attr[len("render_"):-len("_prompt")]
        swaps.append((module, attr, tracer.wrap(f"prompts.render_{template}", getattr(module, attr))))
    for attr in ("parse_questions", "parse_score"):
        swaps.append((search, attr, tracer.wrap(f"prompts.{attr}", getattr(search, attr))))

    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in swaps]
    try:
        for module, attr, replacement in swaps:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


# -- numbers derived from spans ----------------------------------------------


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def by_question(spans: Iterable[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for span in spans:
        if span.qid is not None:
            out.setdefault(span.qid, []).append(span)
    return out


def barrier_wait_s(spans: Sequence[Span]) -> float:
    """One question's sum, over parents, of the gap between the parent's
    ``ask`` ending and the first of its children starting to gather."""
    gathers = [s for s in spans if s.name == "retrieval.gather_evidence"]
    total = 0.0
    for ask in spans:
        if ask.name != "providers.ask" or "error" in ask.attrs:
            continue
        queries = set(ask.attrs.get("queries", ()))
        starts = [g.start for g in gathers if g.attrs.get("query") in queries and g.start >= ask.end]
        if starts:
            total += min(starts) - ask.end
    return total


def seed_s(spans: Sequence[Span]) -> float | None:
    """From the start of ``run_search`` to the first ``ask`` call."""
    roots = [s for s in spans if s.name == "search.run_search"]
    asks = [s.start for s in spans if s.name == "providers.ask"]
    if not roots or not asks:
        return None
    return min(asks) - roots[0].start


def no_call_in_flight_s(spans: Sequence[Span]) -> float | None:
    """Question wall time during which no provider call runs."""
    roots = [s for s in spans if s.name == "search.run_search"]
    if not roots:
        return None
    calls = [(s.start, s.end) for s in spans if s.layer == "providers"]
    return roots[0].duration - union_length(calls)


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Per layer, the sum of span durations minus the part their children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, float] = {}
    for span in spans:
        clipped = ((max(a, span.start), min(b, span.end)) for a, b in children.get(span.sid, ()))
        covered = union_length((a, b) for a, b in clipped if a < b)
        out[span.layer] = out.get(span.layer, 0.0) + span.duration - covered
    return out
