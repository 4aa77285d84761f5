import hashlib
import json
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import beamqa.search
from beamqa.accounting import CostLedger
from beamqa.prompts import (
    EMBEDDED_TEMPLATES,
    load_templates,
    render_answer_prompt,
    render_ask_prompt,
    render_score_prompt,
    render_summarize_prompt,
)
from beamqa.providers import (
    CompletionResponse,
    ProviderError,
    ScriptError,
    ScriptRule,
    ScriptedProvider,
    TransportError,
)
from beamqa.retrieval import (
    EVIDENCE_MODES,
    GENERATE_BACKGROUND,
    RETRIEVE_SUMMARIZE,
    Document,
    _docs_block,
    index_corpus,
    retrieve,
)
from beamqa.search import (
    SearchConfig,
    SearchError,
    SearchRun,
    SearchState,
    Trace,
    TraceEvent,
    prune_beam,
    run_search,
    select_answer,
    should_terminate,
)

from support import (
    HARPERS_CORPUS,
    HARPERS_QUESTION,
    ChildPlan,
    ScriptBuilder,
    SeedPlan,
    StatePlan,
    harpers_plan,
    harpers_script,
    random_tree_plan,
    recount_trace_costs,
    retained_bytes_per_result,
    unused_rules,
)

GOLDEN = Path(__file__).parent / "golden"


def state(score, state_id, depth=0, answer="a"):
    return SearchState("q", (), (), answer, score, depth, state_id)


def genread_config(**overrides):
    defaults = dict(evidence_mode=GENERATE_BACKGROUND)
    defaults.update(overrides)
    return SearchConfig(**defaults)


def build_genread(plan, config):
    built = ScriptBuilder(config).build(plan)
    return built, ScriptedProvider(built.rules)


# --- domain type validation ----------------------------------------------------


def test_state_requires_aligned_history():
    with pytest.raises(ValueError):
        SearchState("q", ("one",), (), "a", 0.5, 0, 0)


def test_state_requires_unit_score():
    with pytest.raises(ValueError):
        state(1.5, 0)


def test_state_requires_nonnegative_depth():
    with pytest.raises(ValueError, match="depth"):
        state(0.5, 0, depth=-1)


def test_config_defaults_follow_nq_setup():
    config = SearchConfig()
    assert (config.beam_size, config.max_depth, config.max_queries) == (2, 2, 2)
    assert (config.retrieval_docs, config.score_threshold) == (2, 0.8)
    assert config.evidence_mode == "retrieve_summarize"


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SearchConfig(beam_size=0)
    with pytest.raises(ValueError):
        SearchConfig(score_threshold=1.5)
    with pytest.raises(ValueError):
        SearchConfig(evidence_mode="other")


def test_config_accepts_a_zero_threshold():
    assert SearchConfig(score_threshold=0.0).score_threshold == 0.0


def test_trace_event_rejects_unknown_kind():
    with pytest.raises(ValueError):
        TraceEvent(kind="mystery", payload={})


# --- pruning ----------------------------------------------------


def test_prune_keeps_all_when_capacity_not_binding():
    states = [state(0.2, 1), state(0.9, 2)]
    pruned = prune_beam(states, 3)
    assert [s.state_id for s in pruned] == [2, 1]


def test_prune_orders_by_score_then_id():
    states = [state(0.7, 1), state(0.8, 2), state(0.7, 3), state(0.9, 4)]
    assert [s.state_id for s in prune_beam(states, 2)] == [4, 2]


def test_prune_tie_breaks_to_smaller_id():
    states = [state(0.5, 7), state(0.5, 3)]
    assert [s.state_id for s in prune_beam(states, 1)] == [3]


def test_prune_does_not_mutate_input():
    states = [state(0.1, 1), state(0.9, 2)]
    snapshot = list(states)
    prune_beam(states, 1)
    assert states == snapshot


def test_prune_rejects_nonpositive_beam():
    with pytest.raises(ValueError):
        prune_beam([], 0)


# --- termination and selection ----------------------------------------------------


def test_terminates_when_score_meets_threshold():
    assert should_terminate([state(0.8, 1)], 0.8) is True


def test_empty_beam_never_terminates():
    assert should_terminate([], 0.0) is False


def test_threshold_is_inclusive_only_at_the_boundary():
    assert should_terminate([state(0.7999, 1)], 0.8) is False


def test_select_highest_score():
    best = select_answer([state(0.7, 1), state(0.8, 2)])
    assert best.state_id == 2


def test_select_single_state():
    assert select_answer([state(0.4, 9)]).state_id == 9


def test_select_tie_breaks_to_smaller_id():
    assert select_answer([state(0.6, 5), state(0.6, 2)]).state_id == 2


def test_select_rejects_empty_beam():
    with pytest.raises(ValueError):
        select_answer([])


# --- seeding ----------------------------------------------------


def seeds_only_result(direct_score, grounded_score):
    """A genread search whose asks give no queries, so it ends on its seeds."""
    plan = SeedPlan(
        question="who?",
        direct=StatePlan(answer="x", score=direct_score),
        grounded=StatePlan(answer="y", score=grounded_score),
        grounded_evidence="generated background text",
    )
    config = genread_config(max_depth=1)
    _, provider = build_genread(plan, config)
    return run_search("who?", config, provider)


def test_initialize_beam_produces_two_depth0_seeds():
    _, result = harpers_result()
    seeded = [e.payload for e in result.trace if e.kind == "seeded"]
    assert [(p["variant"], p["depth"], p["state_id"]) for p in seeded] == [
        ("direct", 0, 0),
        ("evidence", 0, 1),
    ]


def test_seed_histories_are_empty_then_one_pair():
    direct = seeds_only_result("0.9", "0.1").final_state
    assert (direct.state_id, direct.depth) == (0, 0)
    assert direct.asked_queries == ()
    assert direct.evidences == ()
    grounded = seeds_only_result("0.1", "0.9").final_state
    assert (grounded.state_id, grounded.depth) == (1, 0)
    assert grounded.asked_queries == ("who?",)
    assert len(grounded.evidences) == 1


def test_generate_background_seed_has_generated_provenance_and_no_retrievals():
    result = seeds_only_result("0.2", "0.3")
    assert result.final_state.evidences[0].provenance == "generated"
    grounded = [e.payload for e in result.trace if e.kind == "seeded"][1]
    assert (grounded["provenance"], grounded["retrievals"]) == ("generated", 0)
    assert result.ledger.retrieval_times == 0
    # The seeds' 5 calls (answer, score; genread, answer, score) and 2 asks.
    assert result.ledger.api_times == 7


def test_empty_question_is_an_input_error():
    run = SearchRun(genread_config(), ScriptedProvider([]))
    with pytest.raises(ValueError):
        run.run_search("   ")
    with pytest.raises(ValueError):
        run_search("", genread_config(), ScriptedProvider([]))


# --- expansion ----------------------------------------------------


def test_expand_state_one_child_per_query():
    _, result = harpers_result()
    expanded = [e.payload for e in result.trace if e.kind == "expanded"]
    assert [(p["parent_id"], p["depth"]) for p in expanded] == [(0, 1), (1, 1)]
    for payload in expanded:
        assert len(payload["kept_queries"]) == 2
        assert [c["query"] for c in payload["children"]] == payload["kept_queries"]
    assert [c["state_id"] for p in expanded for c in p["children"]] == [2, 3, 4, 5]
    # The winner is the direct seed's first child: one query on an empty history.
    child = result.final_state
    assert (child.state_id, child.depth) == (2, 1)
    assert child.asked_queries == (expanded[0]["kept_queries"][0],)
    assert len(child.evidences) == 1


def test_expand_state_child_evidence_names_the_colonel():
    _, result = harpers_result()
    assert "Colonel Robert E. Lee" in result.final_state.evidences[-1].text


def test_expand_dedupes_queries_already_in_history():
    # The grounded seed's history holds the question; the ask step repeats it
    # (case and spacing shuffled) plus one fresh query, asked twice.
    fresh = ChildPlan(
        query="a fresh follow-up?",
        evidence="fresh evidence",
        state=StatePlan(answer="x", score="0.5"),
    )
    plan = SeedPlan(
        question="who did it?",
        direct=StatePlan(answer="a", score="0.1"),
        grounded=StatePlan(
            answer="b",
            score="0.2",
            children=[fresh],
            ask_text="Ranked Questions:\n1. WHO   did it?\n2. a fresh follow-up?\n3. A  Fresh follow-up?",
        ),
        grounded_evidence="seed evidence",
    )
    config = genread_config(max_depth=1, max_queries=3)
    _, provider = build_genread(plan, config)
    result = run_search("who did it?", config, provider)
    grounded = [e.payload for e in result.trace if e.kind == "expanded"][1]
    assert grounded["parent_id"] == 1
    assert len(grounded["raw_queries"]) == 3
    assert grounded["kept_queries"] == ["a fresh follow-up?"]
    assert [c["query"] for c in grounded["children"]] == ["a fresh follow-up?"]
    assert result.final_state.asked_queries == ("who did it?", "a fresh follow-up?")


def test_expand_with_no_usable_queries_returns_empty():
    result = seeds_only_result("0.1", "0.2")
    expanded = [e.payload for e in result.trace if e.kind == "expanded"]
    assert [(p["kept_queries"], p["children"]) for p in expanded] == [([], [])] * 2
    assert not any(e.kind == "pruned" for e in result.trace)
    assert result.final_state.depth == 0


# --- full searches ----------------------------------------------------


def test_golden_run_selects_the_higher_scored_answer():
    built, index, config = harpers_script()
    provider = ScriptedProvider(built.rules)
    result = run_search(built.question, config, provider, index=index)
    assert result.final_answer == "Colonel Robert E. Lee"
    assert result.final_state.score == 0.8
    kept = [e for e in result.trace if e.kind == "pruned"][0].payload["kept"]
    assert [score for _, score in kept] == [0.8, 0.7]
    assert unused_rules(provider) == []


def test_threshold_exit_stops_before_max_depth():
    # A perfect-confidence child of the direct seed at depth 1; D=3, B=1.
    winner = ChildPlan(
        query="the decisive follow-up?",
        evidence="decisive evidence",
        state=StatePlan(answer="the right answer", score="1.0"),
    )
    loser = ChildPlan(
        query="the useless follow-up?",
        evidence="useless evidence",
        state=StatePlan(answer="some other answer", score="0.0"),
    )
    plan = SeedPlan(
        question="what is it?",
        direct=StatePlan(answer="guess one", score="0.0", children=[winner]),
        grounded=StatePlan(answer="guess two", score="0.0", children=[loser]),
        grounded_evidence="seed evidence",
    )
    config = genread_config(beam_size=1, max_depth=3, max_queries=1)
    built, provider = build_genread(plan, config)
    result = run_search("what is it?", config, provider)
    assert result.final_answer == "the right answer"
    assert result.final_state.depth == 1
    depths = [e.payload.get("depth", 0) for e in result.trace]
    assert max(depths) == 1
    assert result.trace[-1].payload["reason"] == "early_exit"
    # seeds: 5 calls; depth 1: 2 asks + 2 children x 3 calls
    assert result.ledger.api_times == 13


def test_high_scoring_seeds_do_not_exit_before_any_expansion():
    # The threshold check runs only on pruned child beams, so confident seeds
    # still get expanded and the depth-1 beam replaces them.
    child = ChildPlan(
        query="a follow-up?",
        evidence="child evidence",
        state=StatePlan(answer="child answer", score="0.1"),
    )
    plan = SeedPlan(
        question="what?",
        direct=StatePlan(answer="confident seed", score="0.95", children=[child]),
        grounded=StatePlan(answer="other seed", score="0.9"),
        grounded_evidence="seed evidence",
    )
    config = genread_config(max_depth=1, max_queries=1)
    built, provider = build_genread(plan, config)
    result = run_search("what?", config, provider)
    assert any(e.kind == "expanded" for e in result.trace)
    assert not any(e.kind == "early_exit" for e in result.trace)
    assert result.final_answer == "child answer"
    assert result.final_state.depth == 1


def test_exhausted_depth_finalizes_on_previous_beam():
    plan = SeedPlan(
        question="who?",
        direct=StatePlan(answer="weak guess", score="0.3"),
        grounded=StatePlan(answer="better guess", score="0.4"),
        grounded_evidence="seed evidence",
    )
    config = genread_config(max_depth=2, score_threshold=0.9)
    built, provider = build_genread(plan, config)
    result = run_search("who?", config, provider)
    assert result.final_answer == "better guess"
    assert result.trace[-1].payload["reason"] == "no_candidates"


def test_unparseable_score_becomes_zero_with_trace_warning():
    plan = SeedPlan(
        question="who?",
        direct=StatePlan(answer="mystery", score="cannot tell"),
        grounded=StatePlan(answer="other", score="0.4"),
        grounded_evidence="seed evidence",
    )
    config = genread_config(max_depth=1)
    built, provider = build_genread(plan, config)
    result = run_search("who?", config, provider)
    scored = [e for e in result.trace if e.kind == "scored"]
    assert scored[0].payload["score"] == 0.0
    assert "parse_error" in scored[0].payload
    assert result.final_answer == "other"


def test_a_clamped_score_is_flagged_in_its_scored_event():
    plan = SeedPlan(
        question="who?",
        direct=StatePlan(
            answer="guess",
            score="0.3",
            children=[
                ChildPlan("who exactly?", "more text", StatePlan(answer="sure", score="1.5")),
                ChildPlan("who really?", "other text", StatePlan(answer="unsure", score="-25%")),
            ],
        ),
        grounded=StatePlan(answer="other guess", score="0.4"),
        grounded_evidence="seed evidence",
    )
    config = genread_config()
    built, provider = build_genread(plan, config)
    result = run_search("who?", config, provider)
    scored = [e.payload for e in result.trace if e.kind == "scored"]
    # The paper's clamp still decides the score, and so the early exit.
    assert [(p["state_id"], p["score"], p.get("clamped")) for p in scored] == [
        (0, 0.3, None),
        (1, 0.4, None),
        (2, 1.0, 1.5),
        (3, 0.0, -0.25),
    ]
    assert result.trace[-1].payload["reason"] == "early_exit"
    assert result.final_answer == "sure"


def test_a_non_finite_score_is_a_parse_error_not_an_early_exit():
    plan = SeedPlan(
        question="who?",
        direct=StatePlan(
            answer="guess",
            score="0.3",
            children=[
                ChildPlan("who exactly?", "more text", StatePlan(answer="sure", score="1e999")),
                ChildPlan("who really?", "other text", StatePlan(answer="unsure", score="1e999/1e999")),
            ],
        ),
        grounded=StatePlan(answer="other guess", score="0.9e400 out of 1e400"),
        grounded_evidence="seed evidence",
    )
    config = genread_config(max_depth=1)
    built, provider = build_genread(plan, config)
    result = run_search("who?", config, provider)
    scored = [e.payload for e in result.trace if e.kind == "scored"]
    assert [(p["state_id"], p["score"], "parse_error" in p) for p in scored] == [
        (0, 0.3, False),
        (1, 0.0, True),
        (2, 0.0, True),
        (3, 0.0, True),
    ]
    assert not any(e.kind == "early_exit" for e in result.trace)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    for line in result.trace_lines():
        json.loads(line, parse_constant=refuse)


def without_prompt(rules, prompt):
    return [r for r in rules if r.exact != prompt]


def failed_child_rules(built):
    """The golden script minus the answer of the direct seed's first child."""
    child = harpers_plan().direct.children[0]
    return without_prompt(
        built.rules, render_answer_prompt(built.question, [(child.query, child.evidence)])
    )


def failed_seed_rules(built):
    """The golden script minus the grounded seed's answer."""
    grounded = [(built.question, harpers_plan().grounded_evidence)]
    return without_prompt(built.rules, render_answer_prompt(built.question, grounded))


def failed_ask_rules(built):
    """The golden script minus the grounded seed's ask."""
    grounded = [(built.question, harpers_plan().grounded_evidence)]
    return without_prompt(
        built.rules, render_ask_prompt(built.question, grounded, SearchConfig().max_queries)
    )


def blank_answer_rules(rules, prompt):
    """The rules with the answer to ``prompt`` made blank."""
    return [replace(rule, response="  ") if rule.exact == prompt else rule for rule in rules]


def test_failed_child_is_skipped_and_recorded():
    built, index, config = harpers_script()
    child = harpers_plan().direct.children[0]
    answer_prompt = render_answer_prompt(built.question, [(child.query, child.evidence)])
    # The child's answer is missing from the script, or blank.
    for rules, error in (
        (failed_child_rules(built), "no scripted response for tag='answer'"),
        (blank_answer_rules(built.rules, answer_prompt), "provider returned an empty answer"),
    ):
        result = run_search(built.question, config, ScriptedProvider(rules), index=index)
        # The 0.8 child is gone; its sibling at 0.7 still wins depth 1.
        assert result.final_answer == "First Lieutenant Israel Greene"
        expanded = [e for e in result.trace if e.kind == "expanded"]
        failed = [c for e in expanded for c in e.payload["children"] if c.get("error")]
        assert len(failed) == 1
        assert failed[0]["state_id"] is None
        assert failed[0]["query"] == child.query
        assert failed[0]["error"].startswith(error)
        # Calls burned before the failure still reconcile with the ledger.
        api, retrievals = recount_trace_costs(result.trace)
        assert (api, retrievals) == (result.ledger.api_times, result.ledger.retrieval_times)


class FlakyOnce:
    """Delegates to a scripted provider, failing the first ``failures`` calls
    (of ``tag``, if one is given) with ``error``, a transient one by default."""

    def __init__(self, inner, tag=None, failures=1, error=TransportError):
        self.inner = inner
        self.tag = tag
        self.failures_left = failures
        self.error = error
        self.attempts = 0

    def complete(self, request):
        self.attempts += 1
        if self.failures_left and self.tag in (None, request.tag):
            self.failures_left -= 1
            raise self.error("transient blip")
        return self.inner.complete(request)


def test_transient_provider_failure_is_retried_once():
    built, index, config = harpers_script()
    provider = FlakyOnce(ScriptedProvider(built.rules))
    result = run_search(built.question, config, provider, index=index)
    assert result.final_answer == "Colonel Robert E. Lee"
    assert provider.attempts == 20  # 19 completions plus the one failed attempt
    assert result.ledger.api_times == 19


def test_failed_summarize_retries_the_request_not_the_retrieval():
    built, index, config = harpers_script()
    provider = FlakyOnce(ScriptedProvider(built.rules), tag="summarize")
    result = run_search(built.question, config, provider, index=index)
    assert result.final_answer == "Colonel Robert E. Lee"
    assert provider.attempts == 20
    assert (result.ledger.api_times, result.ledger.retrieval_times) == (19, 5)


@pytest.fixture()
def sleeps(monkeypatch):
    """The waits the engine asks for, recorded instead of slept."""
    waits = []
    monkeypatch.setattr(beamqa.search.time, "sleep", waits.append)
    return waits


def test_retries_back_off_from_the_second_retry_on(sleeps):
    built, index, config = harpers_script()
    provider = FlakyOnce(ScriptedProvider(built.rules), failures=3)
    result = SearchRun(config, provider, index=index, retries=3).run_search(built.question)
    assert result.final_answer == "Colonel Robert E. Lee"
    # The first request succeeds on its fourth attempt and is counted once.
    assert provider.attempts == 19 + 3
    assert result.ledger.api_times == 19
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize(
    "error, retries",
    [(TransportError, 0), (ProviderError, 0), (ProviderError, 1), (ProviderError, 3)],
    ids=["transient-0", "non-retryable-0", "non-retryable-1", "non-retryable-3"],
)
def test_a_request_that_may_not_be_retried_is_sent_once(sleeps, error, retries):
    built, provider = build_genread(harpers_plan(), genread_config())
    provider = FlakyOnce(provider, tag="genread", error=error)
    with pytest.raises(SearchError, match="blip"):
        SearchRun(genread_config(), provider, retries=retries).run_search(built.question)
    # The direct seed's two calls, and the grounded seed's one failed genread.
    assert provider.attempts == 3
    assert sleeps == []


def test_negative_retries_rejected():
    with pytest.raises(ValueError, match="retries"):
        SearchRun(genread_config(), ScriptedProvider([]), retries=-1)


def test_zero_workers_rejected():
    with pytest.raises(ValueError, match="workers"):
        SearchRun(genread_config(), ScriptedProvider([]), workers=0)


class ConstantProvider:
    """Every completion, whatever its tag, is the same text."""

    def __init__(self, text):
        self.text = text
        self.tags = []

    def complete(self, request):
        self.tags.append(request.tag)
        return CompletionResponse(self.text, 10, 1, True)


def test_decimal_ask_completion_yields_no_child_queries():
    provider = ConstantProvider("0.9")
    result = run_search("who?", genread_config(), provider)
    # Two seeds (answer, score; genread, answer, score) and one ask per seed.
    assert provider.tags.count("ask") == 2
    assert len(provider.tags) == result.ledger.api_times == 7
    expanded = [e.payload for e in result.trace if e.kind == "expanded"]
    assert [(p["raw_queries"], p["children"]) for p in expanded] == [([], [])] * 2
    assert result.final_state.depth == 0


def test_zero_hit_child_keeps_empty_evidence():
    config = SearchConfig(beam_size=1, max_depth=1, max_queries=1)
    from support import fact_corpus, fact_plan

    index = index_corpus(fact_corpus(3, {0}))
    plan = fact_plan(0, True, "the answer")
    plan.grounded.children = [
        ChildPlan(
            query="xyzzy plugh gibberish?",
            evidence="never used",
            state=StatePlan(answer="child answer", score="0.9"),
        )
    ]
    built = ScriptBuilder(config, index).build(plan)
    result = run_search(built.question, config, ScriptedProvider(built.rules), index=index)
    assert result.final_answer == "child answer"
    evidence = result.final_state.evidences[-1]
    assert evidence.text == ""
    assert evidence.doc_ids == ()
    assert evidence.provenance == "retrieved"
    # seeds 5 + asks 2 + child answer/score 2; no summarize call for the miss
    assert result.ledger.api_times == 9
    assert result.ledger.retrieval_times == 2


def test_seed_phase_provider_failure_aborts_with_partial_trace():
    # The direct seed's score is missing from the script, or its answer is blank.
    for answer, cause, error in (
        ("a guess", ScriptError, "no scripted response for tag='score'"),
        ("  ", ProviderError, "provider returned an empty answer"),
    ):
        rules = [ScriptRule(response=answer, tag="answer")]  # no score rule
        with pytest.raises(SearchError) as err:
            run_search("who?", genread_config(), ScriptedProvider(rules))
        assert type(err.value.__cause__) is cause
        assert str(err.value).startswith(f"search aborted: {error}")
        seeded = [e.payload for e in err.value.trace if e.kind == "seeded"]
        assert seeded[0]["state_id"] is None and seeded[0]["error"].startswith(error)
        assert err.value.ledger.api_times == 1


def test_failed_grounded_seed_keeps_its_calls_in_the_partial_ledger():
    plan = SeedPlan(
        question="who?",
        direct=StatePlan(answer="x", score="0.2"),
        grounded=StatePlan(answer="y", score="0.3"),
        grounded_evidence="generated background text",
    )
    config = genread_config(max_depth=1)
    built = ScriptBuilder(config).build(plan)
    grounded_prompt = render_answer_prompt("who?", [("who?", "generated background text")])
    rules = without_prompt(built.rules, grounded_prompt)
    with pytest.raises(SearchError) as err:
        run_search("who?", config, ScriptedProvider(rules))
    assert isinstance(err.value.__cause__, ScriptError)
    # Direct answer and score, plus the grounded seed's genread before its answer failed.
    assert err.value.ledger.api_times == 3
    seeded = [e.payload for e in err.value.trace if e.kind == "seeded"]
    assert [p["variant"] for p in seeded] == ["direct", "evidence"]
    assert seeded[0]["state_id"] == 0
    failed = seeded[1]
    assert failed["state_id"] is None
    assert (failed["api_calls"], failed["retrievals"]) == (1, 0)
    assert "error" in failed and "answer" not in failed
    assert recount_trace_costs(err.value.trace) == (3, 0)


class MeetingProvider:
    """Delegates to a scripted provider; each of the two ``meeting`` requests
    waits for the other, so both pass only when they are in flight together."""

    def __init__(self, inner, meeting):
        self.inner = inner
        self.meeting = set(meeting)
        self.barrier = threading.Barrier(2, timeout=2)
        self.lock = threading.Lock()
        self.met = []

    def complete(self, request):
        if (request.tag, request.prompt) in self.meeting:
            try:
                self.barrier.wait()
                with self.lock:
                    self.met.append(request.tag)
            except threading.BrokenBarrierError:
                pass
        return self.inner.complete(request)


def test_seeds_run_concurrently_with_two_workers():
    built, index, config = harpers_script()
    hits = retrieve(index, built.question, config.retrieval_docs)
    direct_answer = ("answer", render_answer_prompt(built.question, []))
    grounded_summarize = ("summarize", render_summarize_prompt(built.question, _docs_block(hits)))
    provider = MeetingProvider(ScriptedProvider(built.rules), [direct_answer, grounded_summarize])
    result = run_search(built.question, config, provider, index=index, workers=2)
    # The direct seed's answer and the grounded seed's summarize met at the barrier.
    assert sorted(provider.met) == ["answer", "summarize"]
    assert result.trace_lines() == harpers_result(workers=1)[1].trace_lines()


# --- trace structure and invariants ------------------------------------------------


def harpers_result(workers=1):
    built, index, config = harpers_script()
    return built, run_search(
        built.question, config, ScriptedProvider(built.rules), index=index, workers=workers
    )


def test_trace_events_reference_known_states_in_causal_order():
    _, result = harpers_result()
    known: set[int] = set()
    for event in result.trace:
        payload = event.payload
        if event.kind == "seeded":
            known.add(payload["state_id"])
        elif event.kind == "expanded":
            assert payload["parent_id"] in known
            for child in payload["children"]:
                if child["state_id"] is not None:
                    known.add(child["state_id"])
        elif event.kind in ("scored", "early_exit", "finished"):
            assert payload["state_id"] in known
        elif event.kind == "pruned":
            for state_id, _ in payload["kept"]:
                assert state_id in known
            for state_id in payload["dropped"]:
                assert state_id in known
    assert result.trace[-1].kind == "finished"


def test_trace_lines_are_json_and_match_kinds():
    _, result = harpers_result()
    for line in result.trace_lines():
        record = json.loads(line)
        assert set(record) == {"kind", "payload"}


def test_trace_event_is_held_as_its_line():
    payload = {"state_id": 0, "score": 1.0, "api_calls": 1, "clamped": 1.7, "note": "é"}
    event = TraceEvent("scored", payload)
    assert event.to_json_line() == json.dumps(
        {"kind": "scored", "payload": payload}, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    assert not hasattr(event, "__dict__")
    # The line is made when the event is: later changes reach neither it
    # nor the payload it decodes.
    payload["score"] = 0.5
    event.payload["score"] = 0.0
    assert event.payload == {**payload, "score": 1.0}
    assert event.payload is not event.payload


def test_a_trace_decodes_the_events_it_was_made_from():
    events = [
        TraceEvent("seeded", {"state_id": 0, "note": "two\nlines"}),
        TraceEvent("scored", {"state_id": 0, "score": 0.5, "note": "é"}),
        TraceEvent("finished", {"state_id": 0, "answer": "a", "score": 0.5, "reason": "depth"}),
    ]
    trace = Trace(events)
    assert len(trace) == 3
    assert trace.lines() == [event.line for event in events]
    assert list(trace) == events
    assert trace[-1] == events[-1] and trace[1:] == tuple(events[1:])
    assert trace[0].payload["note"] == "two\nlines"
    assert trace == Trace(events) and hash(trace) == hash(Trace(events))
    assert trace != Trace(events[:2])
    assert not hasattr(trace, "__dict__")
    assert len(Trace([])) == 0 and Trace([]).lines() == []
    _, result = harpers_result()
    assert isinstance(result.trace, Trace)
    assert result.trace_lines() == [event.line for event in result.trace]


def test_a_kept_result_holds_few_bytes():
    # A batch holds every result until its report is written. Held as dicts,
    # a harpers trace kept 7.5 KB per result on Python 3.11 and 9.7 KB on
    # 3.10; held as JSON lines, 5.1 and 5.3 KB; held as one deflated block,
    # 1.7 and 1.9 KB.
    assert retained_bytes_per_result(200) < 3000


def test_ledger_equals_trace_recount():
    _, result = harpers_result()
    api, retrievals = recount_trace_costs(result.trace)
    assert api == result.ledger.api_times
    assert retrievals == result.ledger.retrieval_times


def test_beam_width_and_depth_bounds_hold():
    built, index, config = harpers_script()
    result = run_search(built.question, config, ScriptedProvider(built.rules), index=index)
    for event in result.trace:
        if event.kind == "pruned":
            assert len(event.payload["kept"]) <= config.beam_size
        if event.kind == "expanded":
            assert event.payload["depth"] <= config.max_depth
    assert result.final_state.depth <= config.max_depth
    assert len(result.final_state.asked_queries) == len(result.final_state.evidences)


def test_early_exit_leaves_no_deeper_states():
    _, result = harpers_result()
    exit_depths = [e.payload["depth"] for e in result.trace if e.kind == "early_exit"]
    assert exit_depths == [1]
    assert all(
        e.payload["depth"] <= 1 for e in result.trace if e.kind == "expanded"
    )


def test_generate_background_run_counts_no_retrievals():
    # Same golden plan, evidence generated instead of retrieved: the per-call
    # pattern keeps 19 provider calls but the retrieval counter stays at zero.
    config = genread_config()
    built = ScriptBuilder(config).build(harpers_plan())
    result = run_search(built.question, config, ScriptedProvider(built.rules))
    assert result.final_answer == "Colonel Robert E. Lee"
    assert (result.ledger.api_times, result.ledger.retrieval_times) == (19, 0)


# --- determinism and reentrancy ------------------------------------------------


# Worker counts below the number of tasks in flight are where a worker that
# waited on another task would deadlock.
WORKER_SWEEP = [1, 2, 3, 4, 8]


@pytest.mark.parametrize("workers", WORKER_SWEEP)
def test_default_run_reproduces_the_golden_trace(workers):
    _, result = harpers_result(workers=workers)
    text = "".join(line + "\n" for line in result.trace_lines())
    assert text.encode("utf-8") == (GOLDEN / "harpers_trace.jsonl").read_bytes()
    assert result.ledger == harpers_result(workers=1)[1].ledger


FAILURES = {
    "failed_child": failed_child_rules,
    "ask_error": failed_ask_rules,
    "failed_seed": failed_seed_rules,
}


@pytest.mark.parametrize("workers", WORKER_SWEEP[1:])
@pytest.mark.parametrize("scenario", list(FAILURES))
def test_failures_repeat_exactly_across_worker_counts(scenario, workers):
    built, index, config = harpers_script()
    rules = FAILURES[scenario](built)

    def search(workers):
        provider = ScriptedProvider(rules)
        if scenario != "failed_seed":
            return run_search(built.question, config, provider, index=index, workers=workers)
        with pytest.raises(SearchError) as err:
            run_search(built.question, config, provider, index=index, workers=workers)
        return err.value

    serial, pooled = search(1), search(workers)
    trace_lines = [event.to_json_line() for event in serial.trace]
    assert [event.to_json_line() for event in pooled.trace] == trace_lines
    if scenario == "failed_seed":
        # One worker sent nothing past the seeds: the direct seed's answer and
        # score and the grounded seed's summarize. A pool had also sent both
        # seeds' asks and the four children (summarize, answer, score each).
        assert (serial.ledger.api_times, serial.ledger.retrieval_times) == (3, 1)
        assert (pooled.ledger.api_times, pooled.ledger.retrieval_times) == (17, 5)
        return
    expanded = [e.payload for e in serial.trace if e.kind == "expanded"]
    child_errors = [c for p in expanded for c in p["children"] if "error" in c]
    ask_errors = [p for p in expanded if "ask_error" in p]
    assert len(child_errors if scenario == "failed_child" else ask_errors) == 1
    assert pooled.ledger == serial.ledger


def draw(*key) -> float:
    """A number in [0, 1) drawn from a hash of ``key``."""
    digest = hashlib.sha1("|".join(map(str, key)).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class JitterProvider:
    """Delegates to a scripted provider after a sleep of 0-1 ms drawn from a
    hash of the salted request, so completion order varies from run to run of
    the same plan; a request whose own draw falls under ``fail_rate`` fails
    with a non-retryable ``ProviderError``."""

    def __init__(self, inner, salt, fail_rate):
        self.inner, self.salt, self.fail_rate = inner, salt, fail_rate

    def complete(self, request):
        time.sleep(draw(self.salt, request.tag, request.prompt) / 1000)
        if draw("fail", self.salt, request.tag, request.prompt) < self.fail_rate:
            raise ProviderError(f"injected {request.tag} failure")
        return self.inner.complete(request)


def test_random_plans_repeat_exactly_across_worker_counts():
    """Random trees at beam 1-3 and depth 1-3, with some requests failing:
    every worker count gives the serial trace, ledger and answer, or the
    serial ``SearchError`` trace. A failed seed's ledger above one worker
    also counts the asks and children already started, the same at every
    worker count above one."""
    # Each query's number, and each question's q-name, has a document of its
    # own, so no two gathers retrieve the same documents.
    docs = [Document(f"t{k}", f"tree note {k}", f"tree query {k} and its notes") for k in range(300)]
    docs += [Document(f"q{i}", f"question q{i}", f"background of q{i}") for i in range(24)]
    index = index_corpus(docs)
    rng = random.Random(24)
    ended = {"completed": 0, "aborted": 0}
    for i in range(24):
        plan, max_depth = random_tree_plan(rng, f"tree question q{i}?")
        config = SearchConfig(
            beam_size=rng.randint(1, 3),
            max_depth=max_depth,
            max_queries=3,
            score_threshold=rng.choice([0.9, 1.0]),
        )
        rules = ScriptBuilder(config, index).build(plan).rules
        salt = rng.getrandbits(32)

        def search(workers):
            provider = JitterProvider(ScriptedProvider(rules), salt, fail_rate=0.03)
            try:
                return run_search(plan.question, config, provider, index=index, workers=workers)
            except SearchError as err:
                return err

        serial = search(1)
        pooled = [search(workers) for workers in WORKER_SWEEP[1:]]
        for other in pooled:
            assert type(other) is type(serial)
            assert [e.to_json_line() for e in other.trace] == [e.to_json_line() for e in serial.trace]
            if isinstance(serial, SearchError):
                assert other.ledger == pooled[0].ledger
                assert other.ledger.api_times >= serial.ledger.api_times
            else:
                assert (other.final_answer, other.ledger) == (serial.final_answer, serial.ledger)
        ended["aborted" if isinstance(serial, SearchError) else "completed"] += 1
    assert min(ended.values()) >= 2, ended


class GatedProvider:
    """Delegates to a scripted provider; the ``gated`` request waits (at most
    ``timeout`` seconds) until the ``opener`` request has been sent."""

    def __init__(self, inner, gated, opener, timeout=5.0):
        self.inner = inner
        self.gated, self.opener = gated, opener
        self.timeout = timeout
        self.opened = threading.Event()
        self.opened_in_time = None

    def complete(self, request):
        key = (request.tag, request.prompt)
        if key == self.opener:
            self.opened.set()
        if key == self.gated:
            self.opened_in_time = self.opened.wait(self.timeout)
        return self.inner.complete(request)


def test_a_parents_children_start_while_another_parent_still_asks():
    built, index, config = harpers_script()
    plan = harpers_plan()
    # Parents run in seed order: the direct seed first, then the grounded one.
    grounded_history = [(built.question, plan.grounded_evidence)]
    second_ask = ("ask", render_ask_prompt(built.question, grounded_history, config.max_queries))
    first_child_query = plan.direct.children[0].query
    hits = retrieve(index, first_child_query, config.retrieval_docs)
    first_child_request = ("summarize", render_summarize_prompt(built.question, _docs_block(hits)))
    provider = GatedProvider(ScriptedProvider(built.rules), second_ask, first_child_request)
    result = run_search(built.question, config, provider, index=index, workers=4)
    assert provider.opened_in_time is True
    assert result.trace_lines() == harpers_result(workers=1)[1].trace_lines()


def test_a_seeds_ask_goes_out_before_the_seed_is_scored():
    built, index, config = harpers_script()
    plan = harpers_plan()
    grounded_history = [(built.question, plan.grounded_evidence)]
    seed_score = (
        "score", render_score_prompt(built.question, grounded_history, plan.grounded.answer)
    )
    first_child_query = plan.grounded.children[0].query
    hits = retrieve(index, first_child_query, config.retrieval_docs)
    first_child_request = ("summarize", render_summarize_prompt(built.question, _docs_block(hits)))
    provider = GatedProvider(
        ScriptedProvider(built.rules), seed_score, first_child_request, timeout=2.0
    )
    result = run_search(built.question, config, provider, index=index, workers=4)
    # The grounded seed's ask, and so its first child, did not wait for its score.
    assert provider.opened_in_time is True
    assert result.trace_lines() == harpers_result(workers=1)[1].trace_lines()


class RecordingProvider:
    """Delegates to a scripted provider and records each request's tag,
    prompt and thread."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []
        self.threads = []

    def complete(self, request):
        self.requests.append((request.tag, request.prompt))
        self.threads.append(threading.current_thread())
        return self.inner.complete(request)


def test_one_worker_sends_every_request_inline_in_serial_order():
    built, index, config = harpers_script()
    provider = RecordingProvider(ScriptedProvider(built.rules))
    run_search(built.question, config, provider, index=index, workers=1)
    assert set(provider.threads) == {threading.current_thread()}
    seeds = ["answer", "score", "summarize", "answer", "score"]
    asks = ["ask", "ask"]
    children = ["summarize", "answer", "score"] * 4
    assert [tag for tag, _ in provider.requests] == seeds + asks + children
    # The script builder lists its rules in the serial order, one per request.
    assert provider.requests == [(rule.tag, rule.exact) for rule in built.rules]


# --- the call queue -----------------------------------------------------------


class StaggeredProvider:
    """Delegates to a scripted provider after a delay of one to one and a half
    ``unit_s``, drawn from a hash of the salted prompt, and records the most
    calls it ever had in flight at once."""

    def __init__(self, inner, salt, unit_s=0.02):
        self.inner = inner
        self.salt = salt
        self.unit_s = unit_s
        self.lock = threading.Lock()
        self.in_flight = self.peak = 0

    def delay_s(self, request):
        key = f"{self.salt}|{request.tag}|{request.prompt}".encode()
        draw = int.from_bytes(hashlib.sha1(key).digest()[:8], "big") / 2**64
        return self.unit_s * (1 + draw / 2)

    def complete(self, request):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.delay_s(request))
            return self.inner.complete(request)
        finally:
            with self.lock:
                self.in_flight -= 1


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(workers=st.integers(2, 8), salt=st.integers(0, 2**32))
def test_calls_in_flight_never_exceed_workers_and_fill_them(workers, salt):
    built, index, config = harpers_script()
    _, serial = harpers_result(workers=1)
    provider = StaggeredProvider(ScriptedProvider(built.rules), salt)
    result = run_search(built.question, config, provider, index=index, workers=workers)
    assert provider.peak <= workers
    # Once the direct seed's ask and the grounded seed's evidence have both
    # returned, two children, the grounded ask and the grounded answer want
    # a slot together; delays within 1.5x of each other make them overlap.
    if workers <= 4:
        assert provider.peak == workers
    assert result.trace_lines() == serial.trace_lines()
    assert result.ledger == serial.ledger


class HoldingProvider:
    """Delegates to a scripted provider, but holds each request until the
    test releases it (or opens the provider); records arrival order."""

    def __init__(self, inner, timeout=5.0):
        self.inner = inner
        self.timeout = timeout
        self.cond = threading.Condition()
        self.arrived = []
        self.released = set()
        self.opened = False

    def complete(self, request):
        key = (request.tag, request.prompt)
        with self.cond:
            self.arrived.append(key)
            self.cond.wait_for(lambda: self.opened or key in self.released, self.timeout)
        return self.inner.complete(request)

    def held(self):
        with self.cond:
            return [key for key in self.arrived if key not in self.released]

    def release(self, key):
        with self.cond:
            self.released.add(key)
            self.cond.notify_all()

    def open(self):
        with self.cond:
            self.opened = True
            self.cond.notify_all()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


@pytest.fixture
def searches(monkeypatch):
    """Every ``_Search`` the engine makes while the test runs."""
    made = []

    class RecordedSearch(beamqa.search._Search):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(beamqa.search, "_Search", RecordedSearch)
    return made


def assert_queue_empty(search):
    # A request lost, or sent twice, would leave the queue unbalanced.
    assert (search._ready, search._timers, search._sending, search._results) == ([], [], {}, {})
    assert search._ended.empty()


def test_waiting_asks_and_children_go_out_before_an_older_waiting_seed_answer(searches):
    built, index, config = harpers_script()
    question, plan = built.question, harpers_plan()
    hits = retrieve(index, question, config.retrieval_docs)
    grounded_summarize = ("summarize", render_summarize_prompt(question, _docs_block(hits)))
    direct_ask = ("ask", render_ask_prompt(question, [], config.max_queries))
    direct_answer = ("answer", render_answer_prompt(question, []))
    grounded_history = [(question, plan.grounded_evidence)]
    grounded_ask = ("ask", render_ask_prompt(question, grounded_history, config.max_queries))
    grounded_answer = ("answer", render_answer_prompt(question, grounded_history))
    provider = HoldingProvider(ScriptedProvider(built.rules))
    run = SearchRun(config, provider, index=index, workers=2)
    results = []
    search = threading.Thread(target=lambda: results.append(run.run_search(question)))
    search.start()

    def waiting():
        return len(searches[0]._ready) if searches else 0

    def release_and_see_next(key):
        sent = len(provider.arrived)
        provider.release(key)
        wait_until(lambda: len(provider.arrived) > sent)
        return provider.arrived[sent]

    try:
        # The direct seed's ask and the grounded seed's summarize hold the
        # two senders, and the direct seed's answer waits.
        wait_until(lambda: set(provider.held()) == {grounded_summarize, direct_ask} and waiting() == 1)
        # The grounded seed's ask, queued after that answer, takes the
        # summarize's sender; the grounded seed's answer waits too.
        assert release_and_see_next(grounded_summarize) == grounded_ask
        wait_until(lambda: waiting() == 2)
        # The direct seed's first child goes out before both answers.
        assert release_and_see_next(direct_ask)[0] == "summarize"
        assert direct_answer not in provider.arrived and grounded_answer not in provider.arrived
    finally:
        provider.open()
        search.join(timeout=10)
    assert not search.is_alive()
    assert results[0].trace_lines() == harpers_result(workers=1)[1].trace_lines()
    assert_queue_empty(searches[0])


def test_calls_in_flight_stay_within_workers_under_thread_churn(searches):
    config = genread_config(beam_size=4, max_queries=4)
    provider = FanoutProvider(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = [run_search("who?", config, provider, workers=3) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert [r.ledger.api_times for r in results] == [5 + 6 * (1 + 3 * 4)] * 3
    assert provider.peak <= 3
    for search in searches:
        assert_queue_empty(search)


class RetryingProvider:
    """Delegates to a scripted provider after ``pause_s``, failing the first
    ``failures`` attempts at ``key`` with ``error``; records each attempt's
    key, start and end."""

    def __init__(self, inner, key, failures, error, pause_s=0.01):
        self.inner, self.key, self.error, self.pause_s = inner, key, error, pause_s
        self.failures_left = failures
        self.lock = threading.Lock()
        self.attempts = []

    def complete(self, request):
        key, start = (request.tag, request.prompt), time.monotonic()
        with self.lock:
            fail = key == self.key and self.failures_left > 0
            self.failures_left -= fail
        try:
            time.sleep(self.pause_s)
            if fail:
                raise self.error("transient blip")
            return self.inner.complete(request)
        finally:
            with self.lock:
                self.attempts.append((key, start, time.monotonic()))


def calls_in_flight_during_the_retry_wait(provider, workers, retries=1):
    """Run the harpers search with the direct seed's ask failing as
    ``provider`` says; return the wait before its last attempt and the most
    other calls in flight at once during that wait."""
    built, index, config = harpers_script()
    direct_ask = ("ask", render_ask_prompt(built.question, [], config.max_queries))
    provider = provider(ScriptedProvider(built.rules), direct_ask)
    run = SearchRun(config, provider, index=index, workers=workers, retries=retries)
    result = run.run_search(built.question)
    assert result.trace_lines() == harpers_result(workers=1)[1].trace_lines()
    mine = [(start, end) for key, start, end in provider.attempts if key == provider.key]
    wait_from, wait_to = mine[-2][1], mine[-1][0]
    others = [(s, e) for key, s, e in provider.attempts if key != provider.key]
    moments = [wait_from] + [s for s, _ in others if wait_from < s < wait_to]
    peak = max(sum(s <= t < e for s, e in others) for t in moments)
    return wait_to - wait_from, peak


def test_a_retry_backoff_holds_no_call_slot(monkeypatch):
    monkeypatch.setattr(beamqa.search, "RETRY_BACKOFF_S", 0.1)
    provider = partial(RetryingProvider, failures=2, error=TransportError)
    waited, peak = calls_in_flight_during_the_retry_wait(provider, workers=2, retries=2)
    # The second retry backs off; both senders carry other calls meanwhile.
    assert waited >= 0.1
    assert peak == 2


def test_a_retry_after_wait_holds_no_call_slot():
    error = partial(TransportError, retry_after=0.1)
    provider = partial(RetryingProvider, failures=1, error=error)
    waited, peak = calls_in_flight_during_the_retry_wait(provider, workers=2)
    assert waited >= 0.1
    assert peak == 2


@pytest.mark.parametrize("workers", [1, 4])
def test_complete_outside_a_run_sends_inline(workers):
    built, index, config = harpers_script()
    rules = [replace(rule, repeat=True) for rule in built.rules]
    run = SearchRun(config, ScriptedProvider(rules), index=index, workers=workers)
    rule = built.rules[0]
    for _ in range(2):
        # Before any run and after one, the request is sent on this thread.
        run.provider = RecordingProvider(ScriptedProvider(rules))
        ledger = CostLedger()
        search = beamqa.search._Search(run, built.question)
        step = search._start(search._complete(rule.exact, rule.tag, ledger))
        assert search._result(step) == rule.response
        assert run.provider.threads == [threading.current_thread()]
        assert ledger.api_times == 1
        run.run_search(built.question)


@pytest.fixture
def counted_pools(monkeypatch):
    """Swaps the engine's pool for one that records each pool it builds, the
    thread cap it was given, and each thread that runs one of its tasks."""
    pools, threads = [], set()

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.max_workers = max_workers
            pools.append(self)

        def submit(self, fn, /, *args, **kwargs):
            def run():
                threads.add(threading.current_thread())
                return fn(*args, **kwargs)

            return super().submit(run)

    monkeypatch.setattr(beamqa.search, "ThreadPoolExecutor", CountingPool)
    return pools, threads


def assert_no_worker_alive(threads):
    assert threads, "no task ran on a pool thread"
    assert not any(thread.is_alive() for thread in threads)


def test_a_run_builds_one_pool_and_leaves_no_worker_running(counted_pools):
    pools, threads = counted_pools
    harpers_result(workers=1)
    assert pools == [] and threads == set()
    harpers_result(workers=4)
    assert len(pools) == 1
    assert_no_worker_alive(threads)


def test_a_failed_run_leaves_no_worker_running(counted_pools):
    pools, threads = counted_pools
    built, index, config = harpers_script()
    grounded = [(built.question, harpers_plan().grounded_evidence)]
    rules = without_prompt(built.rules, render_answer_prompt(built.question, grounded))
    with pytest.raises(SearchError):
        run_search(built.question, config, ScriptedProvider(rules), index=index, workers=4)
    assert len(pools) == 1
    assert_no_worker_alive(threads)


@pytest.mark.parametrize("workers", [1, 4])
def test_a_reused_run_repeats_a_fresh_runs_trace_and_ledger(counted_pools, workers):
    pools, threads = counted_pools
    _, fresh = harpers_result()
    built, index, config = harpers_script()
    rules = [replace(rule, repeat=True) for rule in built.rules]
    run = SearchRun(config, ScriptedProvider(rules), index=index, workers=workers)
    for _ in range(2):
        result = run.run_search(built.question)
        assert result.trace_lines() == fresh.trace_lines()
        assert result.ledger == fresh.ledger
    assert len(pools) == (2 if workers > 1 else 0)
    assert not any(thread.is_alive() for thread in threads)


@pytest.mark.parametrize("workers", [1, 4])
def test_one_run_answers_two_questions_at_once(workers):
    built, index, config = harpers_script()
    plan, _ = random_tree_plan(random.Random(3), "Which tree answer scores best?")
    other = ScriptBuilder(config, index).build(plan)
    rules = [replace(rule, repeat=True) for rule in built.rules + other.rules]
    questions = [built.question, other.question]
    fresh = [run_search(q, config, ScriptedProvider(rules), index=index) for q in questions]
    # Each search's direct seed answer waits for the other's, so the two overlap.
    direct_answers = [("answer", render_answer_prompt(q, [])) for q in questions]
    provider = MeetingProvider(ScriptedProvider(rules), direct_answers)
    run = SearchRun(config, provider, index=index, workers=workers)
    results = {}

    def answer(i):
        results[i] = run.run_search(questions[i])

    threads = [threading.Thread(target=answer, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert provider.met == ["answer", "answer"]
    for i, expected in enumerate(fresh):
        assert results[i].trace_lines() == expected.trace_lines()
        assert results[i].ledger == expected.ledger


@pytest.mark.parametrize("evidence_mode", EVIDENCE_MODES)
def test_two_runs_at_once_each_render_from_their_own_templates(tmp_path, evidence_mode):
    embedded = resources.files("beamqa") / "templates"
    sets = {}
    for mark in ("A", "B"):
        (tmp_path / mark).mkdir()
        for name in ("answer", "ask", "summarize", "genread", "score"):
            text = (embedded / f"{name}.txt").read_text(encoding="utf-8")
            (tmp_path / mark / f"{name}.txt").write_text(f"SET {mark}\n{text}", encoding="utf-8")
        sets[mark] = load_templates(tmp_path / mark)
    asked = "Ranked Questions:\n1. Who led the soldiers?\n2. Who stormed the engine house?"
    rules = [
        ScriptRule("a summary", tag="summarize", repeat=True),
        ScriptRule("a background", tag="genread", repeat=True),
        ScriptRule("an answer", tag="answer", repeat=True),
        ScriptRule("0.5", tag="score", repeat=True),
        ScriptRule(asked, tag="ask", repeat=True),
    ]
    # Each run's direct seed answer waits for the other's, so the two overlap.
    direct_answers = [("answer", render_answer_prompt(HARPERS_QUESTION, [], templates=t)) for t in sets.values()]
    meeting = MeetingProvider(ScriptedProvider(rules), direct_answers)
    providers = {mark: RecordingProvider(meeting) for mark in sets}
    config, index = SearchConfig(evidence_mode=evidence_mode), index_corpus(HARPERS_CORPUS)
    runs = {m: SearchRun(config, providers[m], index=index, workers=2, templates=sets[m]) for m in sets}
    results = {}

    def answer(mark):
        results[mark] = runs[mark].run_search(HARPERS_QUESTION)

    threads = [threading.Thread(target=answer, args=(mark,)) for mark in runs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert meeting.met == ["answer", "answer"]
    evidence_tag = "summarize" if evidence_mode == RETRIEVE_SUMMARIZE else "genread"
    for mark, provider in providers.items():
        assert {tag for tag, _ in provider.requests} == {evidence_tag, "answer", "score", "ask"}
        assert all(prompt.startswith(f"SET {mark}\n") for _, prompt in provider.requests)
    # The two sets differ only in their first line, so the searches agree.
    assert results["A"].trace_lines() == results["B"].trace_lines()
    assert results["A"].ledger.api_times == results["B"].ledger.api_times > 9


def test_run_rejects_templates_missing_a_name_before_any_call():
    built, index, config = harpers_script()
    provider = RecordingProvider(ScriptedProvider(built.rules))
    partial_set = {name: text for name, text in EMBEDDED_TEMPLATES.items() if name not in ("ask", "score")}
    with pytest.raises(ValueError, match="templates missing: ask, score"):
        SearchRun(config, provider, index=index, templates=partial_set).run_search(built.question)
    assert provider.requests == []


class FanoutProvider:
    """Asks return ``max_queries`` questions named after the prompt, scores
    are 0.5 and everything else is a fixed text; records each call's thread
    and the most calls it ever had in flight at once."""

    def __init__(self, max_queries):
        self.max_queries = max_queries
        self.lock = threading.Lock()
        self.threads = set()
        self.in_flight = self.peak = 0

    def complete(self, request):
        with self.lock:
            self.threads.add(threading.current_thread())
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        time.sleep(0)
        with self.lock:
            self.in_flight -= 1
        if request.tag == "ask":
            name = hashlib.sha1(request.prompt.encode()).hexdigest()[:8]
            text = "\n".join(f"{i}. what about {name} {i}?" for i in range(1, self.max_queries + 1))
        else:
            text = "0.5" if request.tag == "score" else "some text"
        return CompletionResponse(text, 10, 1, True)


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("width", [2, 4])
def test_every_call_runs_on_the_swapped_pool_within_the_thread_bound(counted_pools, workers, width):
    pools, threads = counted_pools
    config = genread_config(beam_size=width, max_queries=width)
    provider = FanoutProvider(width)
    result = run_search("who?", config, provider, workers=workers)
    # Five seed calls, then per level each parent asks once and each child makes three.
    assert result.ledger.api_times == 5 + (2 + width) * (1 + 3 * width)
    assert len(pools) == 1
    # The cap follows workers alone, however many requests a level holds.
    assert pools[0].max_workers == workers
    assert provider.threads <= threads
    assert len(threads) <= workers
    assert provider.peak <= workers
    assert_no_worker_alive(threads)


def test_worker_counts_produce_byte_identical_traces():
    _, serial = harpers_result(workers=1)
    _, pooled = harpers_result(workers=4)
    assert serial.trace_lines() == pooled.trace_lines()
    assert serial.final_answer == pooled.final_answer
    assert serial.ledger == pooled.ledger


def test_parallel_searches_share_an_index():
    built, index, config = harpers_script()
    results = {}

    def one_search(slot):
        provider = ScriptedProvider(harpers_script()[0].rules)
        results[slot] = run_search(built.question, config, provider, index=index)

    threads = [threading.Thread(target=one_search, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    answers = {r.final_answer for r in results.values()}
    assert answers == {"Colonel Robert E. Lee"}


def test_run_requires_index_for_retrieval_mode():
    with pytest.raises(ValueError):
        SearchRun(SearchConfig(), ScriptedProvider([]))
