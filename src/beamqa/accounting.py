"""Cost counters for retrievals, provider calls, and token usage.

A ``CostLedger`` is a plain value with one writer: each evaluated state and
each ask counts into its own ledger on the thread that runs it, and only the
run's thread adds them up with ``+``. Nothing locks, so no ledger may be
written by two threads at once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

REPORT_COLUMNS = ("Retrieval Times", "API Times", "Tokens Per API", "Tokens Per Query")


@dataclass
class CostLedger:
    """Monotone counters for one search, or for a sum of several."""

    retrieval_times: int = 0
    api_times: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self):
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    def __add__(self, other: CostLedger) -> CostLedger:
        if not isinstance(other, CostLedger):
            return NotImplemented
        return CostLedger(*(getattr(self, name) + getattr(other, name) for name in _FIELD_NAMES))

    def record_api_call(self, prompt_tokens: int, completion_tokens: int) -> None:
        """Count one completed provider call and its token usage."""
        if prompt_tokens < 0 or completion_tokens < 0:
            raise ValueError("token counts must be non-negative")
        self.api_times += 1
        self.prompt_tokens += prompt_tokens
        self.completion_tokens += completion_tokens

    def record_retrieval(self) -> None:
        """Count one retrieval round-trip against the index."""
        self.retrieval_times += 1

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    def report(self) -> CostReport:
        return CostReport.from_ledger(self)


# The counters in declaration order, read once rather than on every + or check.
_FIELD_NAMES = tuple(f.name for f in fields(CostLedger))


@dataclass(frozen=True)
class CostReport:
    """One table row: retrievals, call count, and the per-call/per-query token arithmetic.

    ``tokens_per_api`` is the mean over calls rounded to the nearest integer;
    ``tokens_per_query`` multiplies it back by the call count, so the row reads
    like ``19 x 290 = 5510``. Raw token sums stay available on the ledger.
    """

    retrieval_times: int
    api_times: int
    tokens_per_api: int
    tokens_per_query: int

    @classmethod
    def from_ledger(cls, ledger: CostLedger, n_queries: int = 1) -> "CostReport":
        """The row for ``ledger``; with ``n_queries`` > 1, the per-query mean row:
        retrievals and calls are divided and rounded, tokens per call are not."""
        api = round(ledger.api_times / n_queries)
        retrievals = round(ledger.retrieval_times / n_queries)
        if ledger.api_times == 0:
            return cls(retrievals, api, 0, 0)
        per_api = round(ledger.total_tokens / ledger.api_times)
        return cls(retrievals, api, per_api, api * per_api)

    def arithmetic(self) -> str:
        return f"{self.api_times} x {self.tokens_per_api} = {self.tokens_per_query}"

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def format_cost_table(rows: dict[str, CostReport]) -> str:
    """Render labelled report rows as an aligned text table."""
    header = ["Method", *REPORT_COLUMNS]
    body = [
        [label, str(r.retrieval_times), str(r.api_times), str(r.tokens_per_api), r.arithmetic()]
        for label, r in rows.items()
    ]
    widths = [max(len(row[i]) for row in [header, *body]) for i in range(len(header))]
    lines = [" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in [header, *body]]
    return "\n".join(lines)
