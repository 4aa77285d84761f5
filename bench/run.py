"""Offline benchmark for beamqa.

    python3 bench/run.py --workload beam-latency --seed 1 --seconds 10 --trace 0

Builds the workload's world from ``--seed`` (see ``world.py``), indexes its
corpus with ``beamqa index``, sets up, and runs questions in a closed loop for
at least ``--seconds`` and at least the workload's fixed question prefix.
Every question is then replayed serially with a zero-delay provider; a
question whose answer, trace digest or ledger differs, or whose ledger
disagrees with the calls and retrievals counted around it, is a failure.

With ``--trace 0`` it prints every end-to-end metric. With ``--trace 1`` it
runs the prefix once more with spans recorded around beamqa's public
functions and prints the per-layer metrics instead, tracing overhead
included. Human readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(SRC))
try:
    import beamqa
except ImportError as err:
    sys.exit(f"error: cannot import beamqa from {SRC}: {err}")
if not Path(beamqa.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"error: beamqa was imported from {beamqa.__file__}, not from {SRC}")

import beamqa.retrieval as retrieval  # noqa: E402
from beamqa import cli  # noqa: E402
from beamqa.evaluation import evaluate, load_dataset  # noqa: E402
from beamqa.retrieval import load_index, tokenize  # noqa: E402
from beamqa.search import SearchConfig, SearchError, SearchRun  # noqa: E402

from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    TAGS,
    Sample,
    mean,
    percentile,
    wall_over_bound,
)
from provider import SyntheticProvider  # noqa: E402
from spans import (  # noqa: E402
    Tracer,
    TracingProvider,
    barrier_wait_s,
    by_question,
    instrumented,
    no_call_in_flight_s,
    seed_s,
    self_times,
)
from workloads import FIXED_QUESTIONS, WORKLOADS, Workload  # noqa: E402

WARMUP_QUESTIONS = 2
# Chunks of the untraced window, each preceded by a build and set-up round.
ROUNDS = 3
# Calls and retrievals of a default search that never exits early.
FULL_DEPTH_COUNTS = (33, 9)


@dataclass
class Outcome:
    qid: int
    start: float
    end: float
    result: object = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Setup:
    config: SearchConfig
    provider: SyntheticProvider
    index: object
    examples: list


class Checks:
    """Output checks; each failure is printed by name and fails its question."""

    def __init__(self):
        self.failures: list[tuple[str, int, str]] = []

    def fail(self, name: str, qid: int, detail: str) -> None:
        self.failures.append((name, qid, detail))

    @property
    def failed_qids(self) -> set[int]:
        return {qid for _, qid, _ in self.failures}


# -- set-up ------------------------------------------------------------------


def generate(workload: Workload, seed: int, out: Path) -> None:
    subprocess.run(
        [sys.executable, str(BENCH / "world.py"), "--workload", workload.name,
         "--seed", str(seed), "--out", str(out)],
        check=True, timeout=600,
    )


def build_index(corpus: Path, index_path: Path) -> float:
    """One ``beamqa index`` run through ``cli.main``; returns its seconds."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(["index", "--corpus", str(corpus), "--out", str(index_path)])
        elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"beamqa index exited with {code}")
    return elapsed


def set_up(workload: Workload, seed: int, work: Path, load=load_index) -> tuple[Setup, float]:
    """Everything a first question needs; returns it and its seconds."""
    gc.collect()
    start = time.perf_counter()
    index = None
    if workload.evidence_mode == retrieval.RETRIEVE_SUMMARIZE:
        index = load(work / "index.json")
    examples = load_dataset(work / "dataset.jsonl")
    config = SearchConfig(evidence_mode=workload.evidence_mode)
    provider = SyntheticProvider(
        seed, workload.sizes.vocab, workload.score, workload.delayed, workload.fault_rate
    )
    elapsed = time.perf_counter() - start
    return Setup(config, provider, index, examples), elapsed


# -- running questions ---------------------------------------------------------


def run_question(setup: Setup, workload: Workload, qid: int, provider, tracer=None) -> Outcome:
    question = setup.examples[qid].question
    if tracer is not None:
        tracer.enter((qid, None))
    start = time.perf_counter()
    outcome = Outcome(qid, start, start)
    try:
        run = SearchRun(setup.config, provider, index=setup.index, workers=workload.workers)
        if tracer is None:
            outcome.result = run.run_search(question)
        else:
            with tracer.span("search.run_search"):
                outcome.result = run.run_search(question)
    except SearchError as err:
        outcome.error = err
    except Exception as err:  # noqa: BLE001 - reported as an `unexpected_error` check
        traceback.print_exc(file=sys.stderr)
        outcome.error = err
    outcome.end = time.perf_counter()
    return outcome


def warm_up(setup: Setup, workload: Workload, first: int) -> None:
    """Run the questions from ``first`` on, which the timed runs never use."""
    for qid in range(first, len(setup.examples)):
        run_question(setup, workload, qid, setup.provider)


def closed_loop(
    setup: Setup, workload: Workload, pending: Iterator[int], seconds: float, at_least: int,
    provider, tracer=None,
) -> tuple[list[Outcome], float]:
    """``workload.clients`` clients, each sending the next question from
    ``pending`` when its last one returned, until ``seconds`` passed and
    ``at_least`` questions were sent."""
    lock = threading.Lock()
    sent = 0
    outcomes: list[Outcome] = []
    begin = time.perf_counter()

    def client() -> None:
        nonlocal sent
        while True:
            with lock:
                if sent >= at_least and time.perf_counter() - begin >= seconds:
                    return
                qid = next(pending, None)
                if qid is None:
                    return
                sent += 1
            outcome = run_question(setup, workload, qid, provider, tracer)
            with lock:
                outcomes.append(outcome)

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = max(o.end for o in outcomes) - begin if outcomes else time.perf_counter() - begin
    outcomes.sort(key=lambda o: o.qid)
    return outcomes, wall


# -- checks --------------------------------------------------------------------


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def signature(outcome: Outcome) -> tuple:
    if outcome.ok:
        r = outcome.result
        return ("ok", r.final_answer, _digest(r.trace_lines()), tuple(sorted(r.ledger.snapshot().items())))
    err = outcome.error
    if isinstance(err, SearchError):
        lines = [event.to_json_line() for event in err.trace]
        return ("error", str(err), _digest(lines), tuple(sorted(err.ledger.snapshot().items())))
    return ("unexpected", repr(err))


class CountingProvider:
    """Counts the calls and tokens a replayed question really received."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = self.prompt_tokens = self.completion_tokens = 0

    def complete(self, request):
        response = self.inner.complete(request)
        self.calls += 1
        self.prompt_tokens += response.prompt_tokens
        self.completion_tokens += response.completion_tokens
        return response


@contextlib.contextmanager
def counting_retrievals():
    counter = [0]
    original = retrieval.retrieve

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    retrieval.retrieve = counted
    try:
        yield counter
    finally:
        retrieval.retrieve = original


def replay_and_check(
    setup: Setup, workload: Workload, seed: int, runs: list[list[Outcome]], checks: Checks
) -> dict[int, int]:
    """Replay every question serially with zero delay and the same faults.

    Returns, per question that raised SearchError, how many successful calls
    its partial ledger does not count.
    """
    replay_provider = SyntheticProvider(
        seed, workload.sizes.vocab, workload.score, False, workload.fault_rate
    )
    serial = dataclasses.replace(workload, workers=1)
    qids = sorted({o.qid for outcomes in runs for o in outcomes})
    expected: dict[int, tuple] = {}
    gaps: dict[int, int] = {}
    with counting_retrievals() as retrieved:
        for qid in qids:
            counting = CountingProvider(replay_provider)
            retrieved[0] = 0
            outcome = run_question(setup, serial, qid, counting)
            expected[qid] = signature(outcome)
            seen = {"api_times": counting.calls, "retrieval_times": retrieved[0],
                    "prompt_tokens": counting.prompt_tokens,
                    "completion_tokens": counting.completion_tokens}
            if outcome.ok:
                if outcome.result.ledger.snapshot() != seen:
                    checks.fail("ledger_mismatch", qid,
                                f"ledger {outcome.result.ledger.snapshot()} != counted {seen}")
            elif isinstance(outcome.error, SearchError):
                gaps[qid] = counting.calls - outcome.error.ledger.api_times
    for outcomes in runs:
        for o in outcomes:
            if not o.ok and not isinstance(o.error, SearchError):
                checks.fail("unexpected_error", o.qid, repr(o.error))
            elif signature(o) != expected[o.qid]:
                checks.fail("replay_mismatch", o.qid, f"{signature(o)[:2]} != {expected[o.qid][:2]}")
            elif o.ok and workload.full_depth:
                counts = (o.result.ledger.api_times, o.result.ledger.retrieval_times)
                if counts != FULL_DEPTH_COUNTS:
                    checks.fail("call_counts", o.qid, f"(calls, retrievals) {counts} != {FULL_DEPTH_COUNTS}")
    return gaps


# -- metrics -------------------------------------------------------------------


def levels_run(result) -> int:
    return len({e.payload["depth"] for e in result.trace if e.kind == "expanded"})


def end_to_end(
    workload: Workload, examples: list, outcomes: list[Outcome], wall: float, checks: Checks,
    setup_s: Sample, build_s: Sample,
) -> dict[str, Sample]:
    done = [o for o in outcomes if o.ok]
    prefix = [o for o in outcomes if o.qid < FIXED_QUESTIONS]
    good = [o for o in prefix if o.ok and o.qid not in checks.failed_qids]
    latencies = [o.wall_s * 1e3 for o in done]
    report = evaluate([o.result for o in good], [examples[o.qid] for o in good]) if good else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": setup_s,
        "index_build_s": build_s,
        "question_p50_ms": percentile(latencies, 50),
        "question_p90_ms": percentile(latencies, 90),
        "wall_over_bound_p50": percentile(
            [wall_over_bound(o.wall_s, levels_run(o.result)) for o in done], 50),
        "questions_per_s": Sample(len(done) / wall, len(done)),
        "completed_share": Sample(len(good) / len(prefix), len(prefix)),
        "calls_per_question": mean([o.result.ledger.api_times for o in good]),
        "tokens_per_question": mean([o.result.ledger.total_tokens for o in good]),
        "peak_rss_mb": Sample(rss_mb, 1),
        "em_mean": Sample(report.em_mean if report else 0.0, len(good)),
        "hit_rate": Sample(report.hit_rate if report else 0.0, len(good)),
    }


def per_layer(
    examples: list, tracer: Tracer, traced: list[Outcome], traced_wall: float,
    untraced: list[Outcome], checks: Checks, gaps: dict[int, int], df: dict[str, int],
    index_rss_mb: float | None,
) -> dict[str, Sample]:
    spans = tracer.spans
    per_q = by_question(spans)
    n_q = len(traced)
    done = [o for o in traced if o.ok]
    out: dict[str, Sample] = {}

    def named(name: str) -> list:
        return [s for s in spans if s.name == name]

    def ms(values) -> list[float]:
        return [v * 1e3 for v in values if v is not None]

    # search
    out["search.seed_ms"] = percentile(ms(seed_s(per_q.get(o.qid, ())) for o in traced), 50)
    out["search.barrier_wait_ms"] = percentile(ms(barrier_wait_s(per_q.get(o.qid, ())) for o in done), 50)
    out["search.no_call_in_flight_ms"] = percentile(
        ms(no_call_in_flight_s(per_q.get(o.qid, ())) for o in done), 50)
    busy = sum(s.duration for s in spans if s.layer == "providers" and s.qid is not None)
    out["search.mean_in_flight"] = Sample(busy / traced_wall, n_q)
    levels = [levels_run(o.result) for o in done]
    out["search.levels_run"] = mean(levels)
    out["search.early_exit_share"] = mean(
        [any(e.kind == "early_exit" for e in o.result.trace) for o in done])
    raw = kept = children = errors = 0
    for o in done:
        for e in o.result.trace:
            if e.kind == "expanded":
                raw += len(e.payload["raw_queries"])
                kept += len(e.payload["kept_queries"])
                children += sum(c["state_id"] is not None for c in e.payload["children"])
                errors += sum("error" in c for c in e.payload["children"])
    n_levels = sum(levels)
    out["search.children_per_level"] = Sample(children / n_levels if n_levels else 0.0, len(done))
    out["search.dedupe_drop_share"] = Sample((raw - kept) / raw if raw else 0.0, raw)
    out["search.child_error_share"] = Sample(errors / (children + errors) if children + errors else 0.0,
                                              children + errors)

    # layer self times, per question
    totals: dict[str, float] = {}
    for qid_spans in per_q.values():
        for layer, value in self_times(qid_spans).items():
            totals[layer] = totals.get(layer, 0.0) + value
    for layer in ("search", "providers", "retrieval", "prompts"):
        out[f"{layer}.self_ms"] = Sample(totals.get(layer, 0.0) * 1e3 / n_q, n_q)

    # providers
    for tag in TAGS:
        calls = [s for s in spans if s.name == f"providers.{tag}" and s.qid is not None]
        ok = [s for s in calls if "error" not in s.attrs]
        out[f"providers.calls.{tag}"] = Sample(len(ok) / n_q, len(ok))
        out[f"providers.call_ms.{tag}"] = percentile(ms(s.duration for s in calls), 50)
        out[f"providers.prompt_tokens.{tag}"] = percentile([s.attrs["prompt_tokens"] for s in ok], 50)
        firsts = repeats = 0
        for qid_spans in per_q.values():
            seen: set[int] = set()
            for s in sorted(qid_spans, key=lambda s: s.start):
                if s.name == f"providers.{tag}" and s.attrs["attempt"] == 1:
                    firsts += 1
                    repeats += s.attrs["prompt_key"] in seen
                    seen.add(s.attrs["prompt_key"])
        out[f"providers.repeat_prompt_share.{tag}"] = Sample(repeats / firsts if firsts else 0.0, firsts)
    attempts = [s for s in spans if s.layer == "providers" and s.qid is not None]
    out["providers.faults_injected"] = Sample(sum(s.attrs["fault"] for s in attempts) / n_q, n_q)
    out["providers.retries"] = Sample(sum(s.attrs["attempt"] > 1 for s in attempts) / n_q, n_q)
    out["providers.failed_after_retry"] = Sample(
        sum(s.attrs["fault"] and s.attrs["attempt"] > 1 for s in attempts) / n_q, n_q)

    # retrieval
    def one(name: str) -> Sample:
        found = named(name)
        return Sample(found[0].duration, 1) if found else Sample(0.0, 0)

    out["retrieval.load_s"] = one("retrieval.load_index")
    out["retrieval.build_s"] = one("retrieval.build")
    out["retrieval.save_s"] = one("retrieval.save")
    out["retrieval.index_rss_mb"] = Sample(index_rss_mb, 1) if index_rss_mb is not None else Sample(0.0, 0)
    queries = [s for s in named("retrieval.retrieve") if s.qid is not None]
    out["retrieval.query_ms.p50"] = percentile(ms(s.duration for s in queries), 50)
    out["retrieval.query_ms.p90"] = percentile(ms(s.duration for s in queries), 90)
    out["retrieval.postings_scanned_per_query"] = mean(
        [sum(df.get(t, 0) for t in tokenize(s.attrs["query"])) for s in queries])
    out["retrieval.gather_ms"] = percentile(ms(s.duration for s in named("retrieval.gather_evidence")), 50)
    hits = [s.attrs["hits"] for s in queries if "hits" in s.attrs]
    out["retrieval.hits_per_query"] = mean(hits)
    out["retrieval.empty_share"] = mean([h == 0 for h in hits])
    out["retrieval.retrievals_per_question"] = Sample(len(queries) / n_q, len(queries))

    # prompts
    for template in TAGS:
        out[f"prompts.render_us.{template}"] = percentile(
            [s.duration * 1e6 for s in named(f"prompts.render_{template}")], 50)
    out["prompts.parse_us.questions"] = percentile([s.duration * 1e6 for s in named("prompts.parse_questions")], 50)
    out["prompts.parse_us.score"] = percentile([s.duration * 1e6 for s in named("prompts.parse_score")], 50)
    scores = named("prompts.parse_score")
    out["prompts.score_parse_errors"] = Sample(sum("error" in s.attrs for s in scores), len(scores))

    # accounting: the replay counted every question's calls and retrievals
    out["accounting.ledger_mismatch"] = Sample(
        sum(name == "ledger_mismatch" for name, _, _ in checks.failures), len(done))
    out["accounting.partial_ledger_gap"] = mean(list(gaps.values()))

    # evaluation: evaluate() over the completed traced results, per 100 results
    examples = [examples[o.qid] for o in done]
    results = [o.result for o in done]
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        evaluate(results, examples)
        timings.append(time.perf_counter() - start)
    out["evaluation.evaluate_ms"] = Sample(
        percentile(timings, 50).value * 1e3 * 100 / len(done) if done else 0.0, len(done))

    # tracing overhead against the untraced run of the same questions
    traced_ids = {o.qid for o in traced}
    untraced_p50 = percentile([o.wall_s * 1e3 for o in untraced if o.ok and o.qid in traced_ids], 50)
    traced_p50 = percentile([o.wall_s * 1e3 for o in done], 50)
    overhead = traced_p50.value - untraced_p50.value
    out["trace.overhead_p50_ms"] = Sample(overhead, traced_p50.n)
    out["trace.overhead_share"] = Sample(overhead / untraced_p50.value if untraced_p50.value else 0.0,
                                         untraced_p50.n)
    return out


def probe_index_rss_mb(index_path: Path) -> float:
    done = subprocess.run(
        [sys.executable, str(BENCH / "load_probe.py"), str(SRC), str(index_path)],
        check=True, capture_output=True, text=True, timeout=300,
    )
    return float(done.stdout.strip().splitlines()[-1])


# -- the run ---------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    generate(workload, seed, work)
    corpus, index_path = work / "corpus.jsonl", work / "index.json"
    tracer = Tracer() if trace else None
    build_times: list[float] = []
    setup_times: list[float] = []

    def setup_round() -> Setup:
        """Build and set up again; rounds are spread over the run so that
        their median sees more than one moment of the machine's load."""
        build_times.extend(build_index(corpus, index_path) for _ in range(workload.build_reps))
        setup = None
        for _ in range(workload.setup_reps):
            setup = None  # drop the last index before loading the next
            setup, elapsed = set_up(workload, seed, work)
            setup_times.append(elapsed)
        return setup

    pool = list(range(workload.sizes.n_questions - WARMUP_QUESTIONS))
    if trace:
        with instrumented(tracer):
            with tracer.span("cli.main"):
                build_index(corpus, index_path)
            setup, _ = set_up(workload, seed, work, tracer.wrap("retrieval.load_index", load_index))
        warm_up(setup, workload, len(pool))
        outcomes, wall = closed_loop(
            setup, workload, iter(pool), seconds, FIXED_QUESTIONS, setup.provider)
        with instrumented(tracer):
            traced, traced_wall = closed_loop(
                setup, workload, iter(pool[: FIXED_QUESTIONS]), 0.0, FIXED_QUESTIONS,
                TracingProvider(setup.provider, tracer, setup.config.max_queries), tracer)
        runs = [outcomes, traced]
    else:
        # The window runs in chunks, each after a fresh build and set-up, so
        # that latencies and set-up times sample the whole run, not one moment.
        outcomes, wall, pending, setup = [], 0.0, iter(pool), None
        for _ in range(ROUNDS):
            setup = None  # one index in memory at a time
            setup = setup_round()
            warm_up(setup, workload, len(pool))
            chunk, chunk_wall = closed_loop(
                setup, workload, pending, seconds / ROUNDS, -(-FIXED_QUESTIONS // ROUNDS),
                setup.provider)
            outcomes += chunk
            wall += chunk_wall
        runs = [outcomes]
    checks = Checks()

    gaps = replay_and_check(setup, workload, seed, runs, checks)
    attempted = sum(len(r) for r in runs)

    if trace:
        df = json.loads((work / "df.json").read_text(encoding="utf-8"))
        rss = probe_index_rss_mb(index_path) if setup.index is not None else None
        metrics = per_layer(
            setup.examples, tracer, traced, traced_wall, outcomes, checks, gaps, df, rss)
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{workload.name}-seed{seed}.jsonl")
        definitions = PER_LAYER
    else:
        metrics = end_to_end(
            workload, setup.examples, outcomes, wall, checks,
            percentile(setup_times, 50), percentile(build_times, 50))
        definitions = END_TO_END
    return {
        "checks": checks,
        "attempted": attempted,
        "metrics": metrics,
        "definitions": definitions,
        "wall": wall,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        out = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks: Checks = out["checks"]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{out['attempted']} questions attempted, window {out['wall']:.3f} s")
    for name, qid, detail in checks.failures:
        print(f"check failed: {name} question {qid}: {detail}")
    metrics: dict[str, Sample] = out["metrics"]
    for metric in out["definitions"]:
        sample = metrics[metric.name]
        print(f"{metric.name:40s} {sample.value:14.6f} {metric.unit:6s} n={sample.n:<6d} "
              f"{metric.better} is better; {metric.moves}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": out["attempted"],
        "failed": len(checks.failed_qids),
        "metrics": {m.name: {"value": metrics[m.name].value, "unit": m.unit} for m in out["definitions"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
