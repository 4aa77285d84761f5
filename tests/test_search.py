import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import beamqa.search
from beamqa.prompts import render_answer_prompt, render_ask_prompt, render_summarize_prompt
from beamqa.providers import CompletionResponse, ScriptError, ScriptRule, ScriptedProvider
from beamqa.retrieval import GENERATE_BACKGROUND, _docs_block, index_corpus, retrieve
from beamqa.search import (
    SearchConfig,
    SearchError,
    SearchRun,
    SearchState,
    TraceEvent,
    prune_beam,
    run_search,
    select_answer,
    should_terminate,
)

from support import (
    ChildPlan,
    ScriptBuilder,
    SeedPlan,
    StatePlan,
    harpers_plan,
    harpers_script,
    recount_trace_costs,
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


def test_config_defaults_follow_nq_setup():
    config = SearchConfig()
    assert (config.beam_size, config.max_depth, config.max_queries) == (2, 2, 2)
    assert (config.retrieval_docs, config.score_threshold) == (2, 0.8)
    assert config.evidence_mode == "retrieve_summarize"
    assert config.dedupe_queries is True


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SearchConfig(beam_size=0)
    with pytest.raises(ValueError):
        SearchConfig(score_threshold=1.5)
    with pytest.raises(ValueError):
        SearchConfig(evidence_mode="other")


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


def test_initialize_beam_produces_two_depth0_seeds():
    built, index, config = harpers_script()
    run = SearchRun(config, ScriptedProvider(built.rules), index=index)
    beam = run.initialize_beam(built.question)
    assert len(beam) == 2
    assert [s.depth for s in beam] == [0, 0]
    assert [s.state_id for s in beam] == [0, 1]


def test_seed_histories_are_empty_then_one_pair():
    built, index, config = harpers_script()
    run = SearchRun(config, ScriptedProvider(built.rules), index=index)
    direct, grounded = run.initialize_beam(built.question)
    assert direct.asked_queries == ()
    assert direct.evidences == ()
    assert len(grounded.asked_queries) == 1
    assert grounded.asked_queries[0] == built.question
    assert len(grounded.evidences) == 1


def test_generate_background_seed_has_generated_provenance_and_no_retrievals():
    plan = SeedPlan(
        question="who?",
        direct=StatePlan(answer="x", score="0.2"),
        grounded=StatePlan(answer="y", score="0.3"),
        grounded_evidence="generated background text",
    )
    config = genread_config(max_depth=1)
    built, provider = build_genread(plan, config)
    run = SearchRun(config, provider)
    beam = run.initialize_beam("who?")
    assert beam[1].evidences[0].provenance == "generated"
    assert run.ledger.retrieval_times == 0
    assert run.ledger.api_times == 5


def test_empty_question_is_an_input_error():
    run = SearchRun(genread_config(), ScriptedProvider([]))
    with pytest.raises(ValueError):
        run.initialize_beam("   ")
    with pytest.raises(ValueError):
        run_search("", genread_config(), ScriptedProvider([]))


# --- expansion ----------------------------------------------------


def test_expand_state_one_child_per_query():
    built, index, config = harpers_script()
    run = SearchRun(config, ScriptedProvider(built.rules), index=index)
    direct, _ = run.initialize_beam(built.question)
    children = run.expand_state(direct)
    assert len(children) == 2
    assert all(c.depth == direct.depth + 1 for c in children)
    assert all(len(c.asked_queries) == len(direct.asked_queries) + 1 for c in children)
    assert all(c.asked_queries[:-1] == direct.asked_queries for c in children)


def test_expand_state_child_evidence_names_the_colonel():
    built, index, config = harpers_script()
    run = SearchRun(config, ScriptedProvider(built.rules), index=index)
    direct, _ = run.initialize_beam(built.question)
    children = run.expand_state(direct)
    assert any("Colonel Robert E. Lee" in c.evidences[-1].text for c in children)


def test_expand_dedupes_queries_already_in_history():
    # The grounded seed's history holds the question; the ask step repeats it
    # (case and spacing shuffled) plus one fresh query.
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
            ask_text="Ranked Questions:\n1. WHO   did it?\n2. a fresh follow-up?",
        ),
        grounded_evidence="seed evidence",
    )
    config = genread_config(max_depth=1)
    built, provider = build_genread(plan, config)
    run = SearchRun(config, provider)
    _, grounded = run.initialize_beam("who did it?")
    children = run.expand_state(grounded)
    assert [c.asked_queries[-1] for c in children] == ["a fresh follow-up?"]


def test_expand_with_dedupe_disabled_keeps_duplicates():
    dup = ChildPlan(
        query="who did it?",
        evidence="dup evidence",
        state=StatePlan(answer="x", score="0.5"),
    )
    plan = SeedPlan(
        question="who did it?",
        direct=StatePlan(answer="a", score="0.1"),
        grounded=StatePlan(answer="b", score="0.2", children=[dup]),
        grounded_evidence="seed evidence",
    )
    config = genread_config(max_depth=1, dedupe_queries=False)
    built, provider = build_genread(plan, config)
    run = SearchRun(config, provider)
    _, grounded = run.initialize_beam("who did it?")
    children = run.expand_state(grounded)
    assert [c.asked_queries[-1] for c in children] == ["who did it?"]


def test_expand_with_no_usable_queries_returns_empty():
    plan = SeedPlan(
        question="who?",
        direct=StatePlan(answer="a", score="0.1"),
        grounded=StatePlan(answer="b", score="0.2"),
        grounded_evidence="seed evidence",
    )
    config = genread_config(max_depth=1)
    built, provider = build_genread(plan, config)
    run = SearchRun(config, provider)
    direct, _ = run.initialize_beam("who?")
    assert run.expand_state(direct) == []


def test_expand_rejects_parent_at_max_depth():
    built, index, config = harpers_script()
    run = SearchRun(config, ScriptedProvider(built.rules), index=index)
    parent = state(0.5, 0, depth=config.max_depth)
    with pytest.raises(ValueError):
        run.expand_state(parent)


# --- full searches ----------------------------------------------------


def test_golden_run_selects_the_higher_scored_answer():
    built, index, config = harpers_script()
    provider = ScriptedProvider(built.rules)
    result = run_search(built.question, config, provider, index=index)
    assert result.final_answer == "Colonel Robert E. Lee"
    assert result.final_state.score == 0.8
    kept = [e for e in result.trace if e.kind == "pruned"][0].payload["kept"]
    assert [score for _, score in kept] == [0.8, 0.7]
    assert provider.unused_rules() == []


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


def without_prompt(rules, prompt):
    return [r for r in rules if r.exact != prompt]


def failed_child_rules(built):
    """The golden script minus the answer of the direct seed's first child."""
    child = harpers_plan().direct.children[0]
    return without_prompt(
        built.rules, render_answer_prompt(built.question, [(child.query, child.evidence)])
    )


def failed_ask_rules(built):
    """The golden script minus the grounded seed's ask."""
    grounded = [(built.question, harpers_plan().grounded_evidence)]
    return without_prompt(
        built.rules, render_ask_prompt(built.question, grounded, SearchConfig().max_queries)
    )


def test_failed_child_is_skipped_and_recorded():
    built, index, config = harpers_script()
    broken_query = harpers_plan().direct.children[0].query
    rules = failed_child_rules(built)
    result = run_search(built.question, config, ScriptedProvider(rules), index=index)
    # The 0.8 child is gone; its sibling at 0.7 still wins depth 1.
    assert result.final_answer == "First Lieutenant Israel Greene"
    expanded = [e for e in result.trace if e.kind == "expanded"]
    failed = [c for e in expanded for c in e.payload["children"] if c.get("error")]
    assert len(failed) == 1
    assert failed[0]["state_id"] is None
    assert failed[0]["query"] == broken_query
    # Calls burned before the failure still reconcile with the ledger.
    api, retrievals = recount_trace_costs(result.trace)
    assert (api, retrievals) == (result.ledger.api_times, result.ledger.retrieval_times)


class FlakyOnce:
    """Delegates to a scripted provider, failing the first call (of ``tag``,
    if one is given) transiently."""

    def __init__(self, inner, tag=None):
        self.inner = inner
        self.tag = tag
        self.failures_left = 1
        self.attempts = 0

    def complete(self, request):
        self.attempts += 1
        if self.failures_left and self.tag in (None, request.tag):
            self.failures_left -= 1
            from beamqa.providers import TransportError

            raise TransportError("transient blip")
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
    rules = [ScriptRule(response="a guess", tag="answer", ordinal=1)]  # no score rule
    config = genread_config()
    with pytest.raises(SearchError) as err:
        run_search("who?", config, ScriptedProvider(rules))
    assert isinstance(err.value.__cause__, ScriptError)
    assert any(e.kind == "seeded" for e in err.value.trace)
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
    """Delegates to a scripted provider; each of the first two calls waits
    for the other, so both pass only when they are in flight together."""

    def __init__(self, inner):
        self.inner = inner
        self.barrier = threading.Barrier(2, timeout=2)
        self.lock = threading.Lock()
        self.calls = 0
        self.met = []

    def complete(self, request):
        with self.lock:
            self.calls += 1
            first_two = self.calls <= 2
        if first_two:
            try:
                self.barrier.wait()
                with self.lock:
                    self.met.append(request.tag)
            except threading.BrokenBarrierError:
                pass
        return self.inner.complete(request)


def test_seeds_run_concurrently_with_two_workers():
    built, index, config = harpers_script()
    provider = MeetingProvider(ScriptedProvider(built.rules))
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


@pytest.mark.parametrize("workers", WORKER_SWEEP[1:])
@pytest.mark.parametrize("scenario", ["failed_child", "ask_error"])
def test_failures_repeat_exactly_across_worker_counts(scenario, workers):
    built, index, config = harpers_script()
    rules = {"failed_child": failed_child_rules, "ask_error": failed_ask_rules}[scenario](built)

    def search(workers):
        return run_search(built.question, config, ScriptedProvider(rules), index=index, workers=workers)

    serial, pooled = search(1), search(workers)
    expanded = [e.payload for e in serial.trace if e.kind == "expanded"]
    child_errors = [c for p in expanded for c in p["children"] if "error" in c]
    ask_errors = [p for p in expanded if "ask_error" in p]
    assert len(child_errors if scenario == "failed_child" else ask_errors) == 1
    assert pooled.trace_lines() == serial.trace_lines()
    assert pooled.ledger == serial.ledger


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


@pytest.fixture
def counted_pools(monkeypatch):
    """Swaps the engine's pool for one that records each pool it builds and
    each thread that runs one of its tasks."""
    pools, threads = [], set()

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
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


def test_public_steps_leave_no_worker_running(counted_pools):
    pools, threads = counted_pools
    built, index, config = harpers_script()
    run = SearchRun(config, ScriptedProvider(built.rules), index=index, workers=4)
    direct, _ = run.initialize_beam(built.question)
    assert len(pools) == 1
    assert_no_worker_alive(threads)
    threads.clear()
    assert len(run.expand_state(direct)) == 2
    assert len(pools) == 2
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
