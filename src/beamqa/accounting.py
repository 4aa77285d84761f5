"""Cost counters for retrievals, provider calls, and token usage."""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Iterable

REPORT_COLUMNS = ("Retrieval Times", "API Times", "Tokens Per API", "Tokens Per Query")


class CostLedger:
    """Monotone counters for one search, or for an aggregate of several.

    All increments are lock-protected so workers may record concurrently.
    """

    def __init__(
        self,
        retrieval_times: int = 0,
        api_times: int = 0,
        prompt_tokens: int = 0,
        completion_tokens: int = 0,
    ):
        for name, value in (
            ("retrieval_times", retrieval_times),
            ("api_times", api_times),
            ("prompt_tokens", prompt_tokens),
            ("completion_tokens", completion_tokens),
        ):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        self.retrieval_times = retrieval_times
        self.api_times = api_times
        self.prompt_tokens = prompt_tokens
        self.completion_tokens = completion_tokens
        self._lock = threading.Lock()

    def record_api_call(self, prompt_tokens: int, completion_tokens: int) -> None:
        """Count one completed provider call and its token usage."""
        if prompt_tokens < 0 or completion_tokens < 0:
            raise ValueError("token counts must be non-negative")
        with self._lock:
            self.api_times += 1
            self.prompt_tokens += prompt_tokens
            self.completion_tokens += completion_tokens

    def record_retrieval(self) -> None:
        """Count one retrieval round-trip against the index."""
        with self._lock:
            self.retrieval_times += 1

    def merge_from(self, other: "CostLedger") -> None:
        """Add another ledger's counters into this one (sum semantics)."""
        snap = other.snapshot()
        with self._lock:
            self.retrieval_times += snap["retrieval_times"]
            self.api_times += snap["api_times"]
            self.prompt_tokens += snap["prompt_tokens"]
            self.completion_tokens += snap["completion_tokens"]

    @classmethod
    def combined(cls, ledgers: Iterable["CostLedger"]) -> "CostLedger":
        total = cls()
        for ledger in ledgers:
            total.merge_from(ledger)
        return total

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "retrieval_times": self.retrieval_times,
                "api_times": self.api_times,
                "prompt_tokens": self.prompt_tokens,
                "completion_tokens": self.completion_tokens,
            }

    def report(self) -> "CostReport":
        return CostReport.from_ledger(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CostLedger):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __repr__(self) -> str:
        s = self.snapshot()
        return (
            f"CostLedger(retrieval_times={s['retrieval_times']}, api_times={s['api_times']}, "
            f"prompt_tokens={s['prompt_tokens']}, completion_tokens={s['completion_tokens']})"
        )


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
        snap = ledger.snapshot()
        api = round(snap["api_times"] / n_queries)
        retrievals = round(snap["retrieval_times"] / n_queries)
        if snap["api_times"] == 0:
            return cls(retrievals, api, 0, 0)
        per_api = round((snap["prompt_tokens"] + snap["completion_tokens"]) / snap["api_times"])
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
