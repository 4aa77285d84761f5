"""Metric definitions and the small statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are the single source of ``BENCHMARK.json``'s
metric lists (a test keeps the two equal). Each per-layer entry names the
end-to-end metric and workload it should move, written down before any
optimisation is measured against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from workloads import MEDIAN_DELAY_S

# Request tags; each also names the prompt template it renders.
TAGS = ("answer", "ask", "summarize", "genread", "score")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    moves: str = ""


# Timings that CPU work sets (index build, set-up, bm25-scale latencies) get
# the widest bound: on a shared two-core VM the same run varies by up to a
# third with the host's load. Counts, quality and memory repeat closely.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "load_index of the workload's index (if its mode needs one), load_dataset, config and provider"),
    Metric("index_build_s", "s", "lower", 0.25, "cli.main(['index', ...]): load corpus, build, save"),
    Metric("question_p50_ms", "ms", "lower", 0.25, "median run_search wall time"),
    Metric("question_p90_ms", "ms", "lower", 0.25, "90th percentile run_search wall time"),
    Metric("wall_over_bound_p50", "ratio", "lower", 0.25,
           "median of wall / ((3 + 4 x levels run) x 10 ms)"),
    Metric("questions_per_s", "1/s", "higher", 0.25, "completed questions / batch wall time"),
    Metric("completed_share", "ratio", "higher", 0.1,
           "1 - failed_share: questions neither raising SearchError nor failing a check"),
    Metric("calls_per_question", "count", "lower", 0.1, "CostLedger api_times, mean over completed"),
    Metric("tokens_per_question", "count", "lower", 0.1, "CostLedger total tokens, mean over completed"),
    Metric("peak_rss_mb", "MB", "lower", 0.1, "peak RSS of the benchmark process"),
    Metric("em_mean", "ratio", "higher", 0.1, "evaluate() exact match against the planted gold"),
    Metric("hit_rate", "ratio", "higher", 0.1, "evaluate() evidence hit rate against the planted gold"),
)


def _per_tag(stem: str, unit: str, moves: str) -> tuple[Metric, ...]:
    return tuple(Metric(f"{stem}.{tag}", unit, "lower", None, moves) for tag in TAGS)


PER_LAYER = (
    Metric("search.seed_ms", "ms", "lower", None,
           "question_p50_ms on beam-latency; no change on bm25-scale"),
    Metric("search.barrier_wait_ms", "ms", "lower", None, "question_p90_ms on beam-latency"),
    Metric("search.no_call_in_flight_ms", "ms", "lower", None, "question_p50_ms on bm25-scale"),
    Metric("search.mean_in_flight", "count", "higher", None, "questions_per_s on eval-genread"),
    Metric("search.levels_run", "count", "lower", None, "calls_per_question on bm25-scale"),
    Metric("search.early_exit_share", "ratio", "higher", None, "calls_per_question on bm25-scale"),
    Metric("search.children_per_level", "count", "lower", None, "calls_per_question on every workload"),
    Metric("search.dedupe_drop_share", "ratio", "higher", None, "calls_per_question on every workload"),
    Metric("search.child_error_share", "ratio", "lower", None, "completed_share on eval-genread"),
    Metric("search.self_ms", "ms", "lower", None, "question_p50_ms on bm25-scale"),
    *_per_tag("providers.calls", "count", "calls_per_question on every workload"),
    *_per_tag("providers.call_ms", "ms", "question_p50_ms on beam-latency and eval-genread"),
    *_per_tag("providers.repeat_prompt_share", "ratio",
              "calls_per_question on eval-genread (genread); no change on beam-latency"),
    *_per_tag("providers.prompt_tokens", "count", "tokens_per_question on every workload"),
    Metric("providers.faults_injected", "count", "lower", None, "completed_share on eval-genread"),
    Metric("providers.retries", "count", "lower", None, "completed_share on eval-genread"),
    Metric("providers.failed_after_retry", "count", "lower", None, "completed_share on eval-genread"),
    Metric("providers.self_ms", "ms", "lower", None, "question_p50_ms on beam-latency"),
    Metric("retrieval.load_s", "s", "lower", None, "setup_s on bm25-scale"),
    Metric("retrieval.build_s", "s", "lower", None, "index_build_s on bm25-scale"),
    Metric("retrieval.save_s", "s", "lower", None, "index_build_s on bm25-scale"),
    Metric("retrieval.index_rss_mb", "MB", "lower", None, "peak_rss_mb on bm25-scale"),
    Metric("retrieval.query_ms.p50", "ms", "lower", None,
           "question_p50_ms on bm25-scale; no change on beam-latency"),
    Metric("retrieval.query_ms.p90", "ms", "lower", None, "question_p90_ms on bm25-scale"),
    Metric("retrieval.postings_scanned_per_query", "count", "lower", None,
           "question_p50_ms on bm25-scale"),
    Metric("retrieval.gather_ms", "ms", "lower", None, "question_p50_ms on bm25-scale"),
    Metric("retrieval.hits_per_query", "count", "higher", None, "calls_per_question and hit_rate"),
    Metric("retrieval.empty_share", "ratio", "lower", None, "calls_per_question and hit_rate"),
    Metric("retrieval.retrievals_per_question", "count", "lower", None,
           "question_p50_ms on bm25-scale; exactly 9 on beam-latency"),
    Metric("retrieval.self_ms", "ms", "lower", None, "question_p50_ms on bm25-scale"),
    *(Metric(f"prompts.render_us.{t}", "us", "lower", None, "question_p50_ms on bm25-scale")
      for t in TAGS),
    Metric("prompts.parse_us.questions", "us", "lower", None, "question_p50_ms on bm25-scale"),
    Metric("prompts.parse_us.score", "us", "lower", None, "question_p50_ms on bm25-scale"),
    Metric("prompts.score_parse_errors", "count", "lower", None, "em_mean on every workload"),
    Metric("prompts.self_ms", "ms", "lower", None, "question_p50_ms on bm25-scale"),
    Metric("accounting.ledger_mismatch", "count", "lower", None,
           "guards calls_per_question; must be 0"),
    Metric("accounting.partial_ledger_gap", "count", "lower", None,
           "calls a SearchError's partial ledger misses, per failed question, on eval-genread"),
    Metric("evaluation.evaluate_ms", "ms", "lower", None, "questions_per_s on eval-genread"),
    Metric("trace.overhead_p50_ms", "ms", "lower", None, "traced minus untraced question_p50_ms"),
    Metric("trace.overhead_share", "ratio", "lower", None, "trace.overhead_p50_ms / untraced p50"),
)


@dataclass(frozen=True)
class Sample:
    """A reported number with the count of observations behind it."""

    value: float
    n: int


def percentile(values: Sequence[float], q: float) -> Sample:
    """The ``q``-th percentile (0-100) by linear interpolation between closest
    ranks, with the sample count. No values give 0 with n=0."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return Sample(0.0, 0)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return Sample(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), len(ordered))


def mean(values: Sequence[float]) -> Sample:
    return Sample(sum(values) / len(values) if values else 0.0, len(values))


def critical_path_calls(levels_run: int) -> int:
    """Serial provider calls a search cannot avoid: 3 for the seeds (direct
    answer and score may overlap the grounded seed's summarize, answer and
    score) plus ask, summarize, answer and score at every level."""
    return 3 + 4 * levels_run


def wall_over_bound(wall_s: float, levels_run: int) -> float:
    return wall_s / (critical_path_calls(levels_run) * MEDIAN_DELAY_S)
