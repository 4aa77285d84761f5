import random
import string

import pytest

from beamqa.accounting import CostLedger
from beamqa.evaluation import (
    QAExample,
    evaluate,
    exact_match,
    f1_score,
    hit_rate,
    load_dataset,
    normalize_answer,
)
from beamqa.retrieval import LineFormatError, load_corpus
from beamqa.search import SearchError, TraceEvent


def random_text(rng, max_len=40):
    alphabet = string.ascii_letters + string.digits + string.punctuation + "  \t"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


# --- normalization ----------------------------------------------------


def test_normalize_strips_articles_and_punctuation():
    assert normalize_answer("The Answer!") == "answer"


def test_normalize_empty():
    assert normalize_answer("") == ""


def test_normalize_date():
    assert normalize_answer("January 1, 1904") == "january 1 1904"


def test_normalize_idempotent_on_random_strings():
    rng = random.Random(13)
    for _ in range(1000):
        text = random_text(rng)
        once = normalize_answer(text)
        assert normalize_answer(once) == once


# --- exact match ----------------------------------------------------


def test_exact_match_identity():
    assert exact_match("1 January 1904", ["1 January 1904"]) == 1


def test_exact_match_rejects_different_entities():
    golds = ["Brevet Colonel Robert E. Lee", "First Lieutenant Israel Greene"]
    assert exact_match("Colonel Robert E. Lee", golds) == 0


def test_exact_match_ignores_articles():
    assert exact_match("the answer", ["answer"]) == 1


def test_exact_match_is_word_order_insensitive():
    assert exact_match("January 1, 1904", ["1 January 1904"]) == 1


def test_exact_match_requires_golds():
    with pytest.raises(ValueError, match="gold answer list is empty"):
        exact_match("x", [])


def test_f1_requires_golds():
    with pytest.raises(ValueError, match="gold answer list is empty"):
        f1_score("x", [])


# --- F1 ----------------------------------------------------


def test_f1_identical_token_bags():
    assert f1_score("January 1, 1904", ["1 January 1904"]) == 1.0


def test_f1_partial_overlap_eight_ninths():
    got = f1_score("Colonel Robert E. Lee", ["Brevet Colonel Robert E. Lee"])
    assert got == pytest.approx(8 / 9, abs=1e-9)


def test_f1_equal_strings():
    assert f1_score("exact words", ["exact words"]) == 1.0


def test_f1_no_overlap():
    assert f1_score("alpha", ["omega"]) == 0.0


def test_f1_both_empty_after_normalization():
    assert f1_score("the", ["a"]) == 1.0


def test_f1_one_side_empty():
    assert f1_score("the", ["word"]) == 0.0


def test_f1_max_over_golds():
    assert f1_score("blue whale", ["red fox", "blue whale shark"]) == pytest.approx(0.8)


def test_f1_symmetric_for_single_gold():
    rng = random.Random(23)
    words = "one two three four five six".split()
    for _ in range(100):
        a = " ".join(rng.choice(words) for _ in range(rng.randint(0, 5)))
        b = " ".join(rng.choice(words) for _ in range(rng.randint(0, 5)))
        assert f1_score(a, [b]) == pytest.approx(f1_score(b, [a]))


def test_em_implies_perfect_f1():
    rng = random.Random(29)
    for _ in range(300):
        pred = random_text(rng)
        golds = [random_text(rng) for _ in range(rng.randint(1, 3))]
        if exact_match(pred, golds) == 1:
            assert f1_score(pred, golds) == 1.0


# --- hit rate ----------------------------------------------------


def test_hit_rate_substring_match():
    evidence = ["the operation was under the command of Colonel Robert E. Lee."]
    assert hit_rate(evidence, ["Colonel Robert E. Lee"]) == 1


def test_hit_rate_empty_evidence():
    assert hit_rate([], ["answer"]) == 0


def test_hit_rate_is_zero_when_every_gold_normalizes_to_empty():
    # "the" and "a." normalize to "", which every evidence would contain.
    assert hit_rate(["the answer is in here"], ["the", "a."]) == 0


def test_hit_rate_requires_golds():
    with pytest.raises(ValueError, match="gold answer list is empty"):
        hit_rate(["some evidence"], [])


def test_hit_rate_requires_whole_gold_in_one_evidence():
    evidence = ["Colonel Robert", "E. Lee arrived"]
    assert hit_rate(evidence, ["Colonel Robert E. Lee"]) == 0


# --- batch evaluation ----------------------------------------------------


class FakeState:
    def __init__(self, evidences, score):
        self.evidences = evidences
        self.score = score


class FakeEvidence:
    def __init__(self, text):
        self.text = text


class FakeResult:
    def __init__(self, answer, evidence_texts=(), ledger=None, trace=()):
        self.final_answer = answer
        self.final_state = FakeState([FakeEvidence(t) for t in evidence_texts], 0.5)
        self.ledger = ledger or CostLedger()
        self.trace = trace


def calls(api, retrievals=0):
    ledger = CostLedger(retrieval_times=retrievals)
    for _ in range(api):
        ledger.record_api_call(100, 20)
    return ledger


def example(question, *golds):
    return QAExample(question=question, gold_answers=tuple(golds))


def test_evaluate_single_perfect_example():
    report = evaluate([FakeResult("paris", ["paris is the capital"])], [example("q", "Paris")])
    assert (report.em_mean, report.f1_mean, report.hit_rate) == (1.0, 1.0, 1.0)
    assert report.n_examples == 1


def test_evaluate_mean_of_two():
    results = [FakeResult("right"), FakeResult("wrong")]
    examples = [example("q1", "right"), example("q2", "correct")]
    report = evaluate(results, examples)
    assert report.em_mean == 0.5


def test_evaluate_four_example_fixture_matches_hand_scoring():
    ledgers = []
    for _ in range(4):
        ledger = CostLedger()
        ledger.record_api_call(100, 20)
        ledger.record_retrieval()
        ledgers.append(ledger)
    results = [
        FakeResult("1 January 1904", ["it began on January 1, 1904"], ledgers[0]),  # em 1, f1 1, hit 1
        FakeResult("Colonel Robert E. Lee", ["nothing useful"], ledgers[1]),  # em 0, f1 8/9, hit 0
        FakeResult("john brown", ["John Brown led the raid"], ledgers[2]),  # em 0 vs gold, f1 0, hit 0
        FakeResult("the mat", ["a cat sat on the mat"], ledgers[3]),  # em 1 (articles), f1 1, hit 1
    ]
    examples = [
        example("q1", "January 1, 1904"),
        example("q2", "Brevet Colonel Robert E. Lee"),
        example("q3", "Israel Greene"),
        example("q4", "mat"),
    ]
    report = evaluate(results, examples)
    assert report.em_mean == pytest.approx(2 / 4)
    assert report.f1_mean == pytest.approx((1.0 + 8 / 9 + 0.0 + 1.0) / 4, abs=1e-9)
    assert report.hit_rate == pytest.approx(2 / 4)
    assert report.cost.snapshot() == {
        "retrieval_times": 4,
        "api_times": 4,
        "prompt_tokens": 400,
        "completion_tokens": 80,
    }


def test_evaluate_scores_completed_questions_and_counts_failed_ones():
    failure = SearchError("search aborted: no rule", (), calls(2, 1))
    outcomes = [FakeResult("right", ["the right one"], calls(7, 1)), failure, FakeResult("wrong", [], calls(7))]
    examples = [example("q1", "right"), example("q2", "x"), example("q3", "right")]
    report = evaluate(outcomes, examples)
    assert (report.n_examples, report.completed, report.failed) == (3, 2, 1)
    # Means over the completed questions; cost over every ledger, the partial one too.
    assert (report.em_mean, report.f1_mean, report.hit_rate) == (0.5, 0.5, 0.5)
    assert report.cost == calls(16, 2)
    assert report.rows[0] == {
        "question": "q1",
        "gold_answers": ["right"],
        "answer": "right",
        "score": 0.5,
        "em": 1,
        "f1": 1.0,
        "hit": 1,
        "ledger": calls(7, 1).snapshot(),
        "cost_report": {"retrieval_times": 1, "api_times": 7, "tokens_per_api": 120, "tokens_per_query": 840},
    }
    assert report.rows[1] == {
        "question": "q2",
        "gold_answers": ["x"],
        "error": "search aborted: no rule",
        "ledger": calls(2, 1).snapshot(),
        "cost_report": {"retrieval_times": 1, "api_times": 2, "tokens_per_api": 120, "tokens_per_query": 240},
    }


def test_evaluate_with_every_question_failed_has_no_means():
    failures = [SearchError("search aborted", (), calls(1)) for _ in range(2)]
    report = evaluate(failures, [example("q1", "a"), example("q2", "b")])
    assert (report.completed, report.failed) == (0, 2)
    assert (report.em_mean, report.f1_mean, report.hit_rate) == (None, None, None)
    assert report.cost == calls(2)


def test_evaluate_counts_clamped_scores_in_every_trace():
    clamped = TraceEvent("scored", {"state_id": 0, "score": 1.0, "api_calls": 1, "clamped": 1.7})
    plain = TraceEvent("scored", {"state_id": 1, "score": 0.4, "api_calls": 1})
    outcomes = [
        FakeResult("a", trace=(clamped, plain)),
        SearchError("search aborted", (clamped,), CostLedger()),
    ]
    report = evaluate(outcomes, [example("q1", "a"), example("q2", "b")])
    assert report.clamped_scores == 2


def test_evaluate_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        evaluate([FakeResult("x")], [])


def test_evaluate_rejects_an_empty_run():
    with pytest.raises(ValueError, match="nothing to evaluate"):
        evaluate([], [])


def test_qa_example_requires_gold():
    with pytest.raises(ValueError):
        QAExample(question="q", gold_answers=())


def test_qa_example_requires_a_question():
    with pytest.raises(ValueError, match="question must be non-empty"):
        QAExample(question="  ", gold_answers=("a",))


# --- dataset files ----------------------------------------------------


def test_load_dataset_ok(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"question": "who?", "answers": ["him", "her"]}\n'
        '{"question": "when?", "answers": ["now"]}\n',
        encoding="utf-8",
    )
    examples = load_dataset(path)
    assert len(examples) == 2
    assert examples[0].gold_answers == ("him", "her")


def test_load_dataset_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b'{"question": "who?", "answers": ["x"]}\n{"question": "\xff", "answers": ["y"]}\n')
    with pytest.raises(LineFormatError) as err:
        load_dataset(path)
    assert err.value.line_no == 2
    assert str(err.value) == f"{path}:2: not UTF-8 (byte 0xff at offset 14)"


def test_bad_dataset_and_corpus_lines_raise_the_same_error(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text('{"id": "a", "text": "ok"}\n\n["not an object"]\n', encoding="utf-8")
    dataset_path = tmp_path / "data.jsonl"
    dataset_path.write_text('{"question": "who?", "answers": ["x"]}\n["not an object"]\n', encoding="utf-8")
    for load, path, line_no in ((load_corpus, corpus_path, 3), (load_dataset, dataset_path, 2)):
        with pytest.raises(LineFormatError) as err:
            list(load(path))
        assert type(err.value) is LineFormatError
        assert err.value.line_no == line_no
        assert str(err.value) == f"{path}:{line_no}: record is not an object"


def test_load_dataset_reports_line_numbers(tmp_path):
    path = tmp_path / "data.jsonl"
    for bad, reason in (
        ('{"question": "bad"}', "'answers' must be a non-empty string list"),
        ('{"answers": ["x"]}', "missing or empty 'question'"),
        ('{"question": " ", "answers": ["x"]}', "missing or empty 'question'"),
    ):
        path.write_text('{"question": "who?", "answers": ["x"]}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(LineFormatError) as err:
            load_dataset(path)
        assert err.value.line_no == 2
        assert str(err.value) == f"{path}:2: {reason}"
