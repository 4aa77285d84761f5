"""Tests of the benchmark's own parts: the synthetic provider, the numbers
derived from spans, the statistics helpers and BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import provider as provider_module
import run
from beamqa.providers import CompletionRequest, TransportError
from metrics import END_TO_END, PER_LAYER, percentile, wall_over_bound
from provider import SyntheticProvider
from spans import Span, barrier_wait_s, no_call_in_flight_s, self_times
from workloads import SCORE_HASHED, WORKLOADS
from world import Sizes, make_question, write_world

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


class RecordingTime:
    """Stands in for the provider's ``time`` module: records, never sleeps."""

    def __init__(self):
        self.local = threading.local()

    def sleep(self, seconds: float) -> None:
        self.local.slept = seconds


def _jobs() -> list[tuple[str, str]]:
    jobs = []
    for qid in range(12):
        question = make_question(7, qid, 500).text
        jobs += [
            ("ask", f"Given the question:\n\n{question}\n\nno more than 2 questions"),
            ("answer", f"Query: {question}\nEvidence: facts: zbafe\n\nQuestion: {question}"),
            ("score", f"Given the question:\n\n{question}\n\nand the candidate answer: zbafe"),
            ("genread", f"Generate a background document:\n{question}"),
            ("summarize", f"{question}\n\nthe provided document:\n\nkelo bada\n\nmira tosu\n\nend"),
        ]
    return jobs


def _send_with_retry(provider, clock, job) -> list[tuple]:
    """Send like the engine does: one retry, in the same thread, on a
    retryable failure. Records (attempt, slept, text or error) per send."""
    tag, prompt = job
    sends = []
    for _ in range(2):
        clock.local.slept = 0.0
        try:
            text = provider.complete(CompletionRequest(prompt=prompt, tag=tag)).text
        except TransportError as err:
            sends.append((provider.local.attempt, clock.local.slept, str(err)))
            continue
        sends.append((provider.local.attempt, clock.local.slept, text))
        break
    return sends


def test_provider_is_identical_under_one_and_four_threads(monkeypatch):
    clock = RecordingTime()
    monkeypatch.setattr(provider_module, "time", clock)
    jobs = _jobs()

    def outcomes(threads: int) -> list:
        provider = SyntheticProvider(7, 500, SCORE_HASHED, delayed=True, fault_rate=0.3)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda job: _send_with_retry(provider, clock, job), jobs))

    serial, parallel = outcomes(1), outcomes(4)
    assert serial == parallel
    sends = [send for job in serial for send in job]
    assert any(attempt == 2 for attempt, _, _ in sends), "no retry was exercised"
    assert any("injected" in text for _, _, text in sends), "no fault was injected"
    assert all(0.0 < slept < 0.2 for _, slept, _ in sends)


def test_searches_repeat_exactly_across_worker_counts(tmp_path):
    workload = dataclasses.replace(
        WORKLOADS["beam-latency"],
        sizes=Sizes(n_docs=300, doc_len=40, vocab=400, n_questions=12),
        delayed=False,
    )
    write_world(3, workload.sizes, tmp_path)
    run.build_index(tmp_path / "corpus.jsonl", tmp_path / "index.json")
    setup, _ = run.set_up(workload, 3, tmp_path)
    for qid in range(len(setup.examples)):
        one = run.run_question(setup, dataclasses.replace(workload, workers=1), qid, setup.provider)
        four = run.run_question(setup, dataclasses.replace(workload, workers=4), qid, setup.provider)
        assert one.ok, one.error
        assert run.signature(one) == run.signature(four)
        ledger = one.result.ledger
        assert (ledger.api_times, ledger.retrieval_times) == run.FULL_DEPTH_COUNTS
        assert one.result.final_answer == setup.examples[qid].gold_answers[0]


def test_wall_over_bound_uses_the_critical_path():
    # Two levels: 3 + 4 * 2 = 11 calls of 10 ms.
    assert wall_over_bound(0.110, 2) == pytest.approx(1.0)
    assert wall_over_bound(0.140, 1) == pytest.approx(2.0)


def _span(sid, name, start, end, parent=None, **attrs):
    return Span(sid, name, start, end, qid=0, parent=parent, attrs=attrs)


HAND_BUILT = [
    _span(1, "search.run_search", 0.0, 100.0),
    # grounded seed: gathers for the question itself, before any ask
    _span(2, "retrieval.gather_evidence", 1.0, 4.0, 1, query="the question"),
    _span(3, "providers.ask", 5.0, 10.0, 1, queries=["a1", "a2"]),
    _span(4, "providers.ask", 5.0, 11.0, 1, queries=["b1"]),
    _span(5, "providers.ask", 5.0, 9.0, 1, error="TransportError"),
    _span(6, "retrieval.gather_evidence", 12.0, 20.0, 1, query="a1"),
    _span(7, "retrieval.gather_evidence", 15.0, 22.0, 1, query="a2"),
    _span(8, "retrieval.gather_evidence", 20.0, 25.0, 1, query="b1"),
    _span(9, "retrieval.gather_evidence", 30.0, 35.0, 1, query="a1"),  # a retry
]


def test_barrier_wait_sums_first_child_gaps_over_parents():
    # ask 3 ends at 10, first child at 12: 2; ask 4 ends at 11, child at 20: 9.
    assert barrier_wait_s(HAND_BUILT) == pytest.approx(11.0)


def test_no_call_in_flight_subtracts_the_union_of_calls():
    # provider spans cover [5, 11]: 6 of the question's 100.
    assert no_call_in_flight_s(HAND_BUILT) == pytest.approx(94.0)


def test_self_time_subtracts_what_children_cover():
    times = self_times(HAND_BUILT)
    # children of the root cover [1, 4], [5, 11], [12, 25] and [30, 35]: 27
    assert times["search"] == pytest.approx(73.0)
    assert times["providers"] == pytest.approx(5.0 + 6.0 + 4.0)
    assert times["retrieval"] == pytest.approx(3.0 + 8.0 + 7.0 + 5.0 + 5.0)


def test_percentile_reports_its_sample_count():
    values = [float(v) for v in range(1, 101)]
    p90 = percentile(values, 90)
    assert p90.n == 100
    assert p90.value == pytest.approx(90.1)
    assert percentile([3.0], 50) == run.Sample(3.0, 1)
    assert percentile([], 50) == run.Sample(0.0, 0)
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    bounds = {m.name: m.bound for m in END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "beam-latency", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
