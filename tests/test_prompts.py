import random
from importlib import resources
from pathlib import Path

import pytest

from beamqa.prompts import (
    EMBEDDED_TEMPLATES,
    ScoreParseError,
    clamp_score,
    load_templates,
    parse_questions,
    parse_score,
    render_answer_prompt,
    render_ask_prompt,
    render_genread_prompt,
    render_score_prompt,
    render_summarize_prompt,
    serialize_history,
)

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    # Golden files carry one conventional trailing newline over the exact render.
    return GOLDEN.joinpath(name).read_text(encoding="utf-8")[:-1]


# --- history serialization ----------------------------------------------------


def test_empty_history_serializes_to_empty_block():
    assert serialize_history([]) == ""


def test_history_pairs_serialize_in_insertion_order():
    block = serialize_history([("q1", "e1"), ("q2", "e2")])
    assert block == "Query: q1\nEvidence: e1\nQuery: q2\nEvidence: e2"


# --- answer prompt ----------------------------------------------------


def test_answer_prompt_empty_history_contains_question():
    q = "when was the first driver's license required?"
    prompt = render_answer_prompt(q, [])
    assert q in prompt
    assert "Query:" not in prompt
    assert prompt == golden("answer_empty_history.txt")


def test_answer_prompt_pair_appears_before_question():
    prompt = render_answer_prompt("what happened?", [("q one", "e one")])
    assert prompt.index("Query: q one") < prompt.index("Question: what happened?")


def test_answer_prompt_two_pairs_golden():
    prompt = render_answer_prompt(
        "what happened?", [("q one", "e one"), ("q two", "e two")]
    )
    assert prompt == golden("answer_two_pairs.txt")


def test_answer_prompt_rejects_empty_question():
    with pytest.raises(ValueError):
        render_answer_prompt("   ", [])


# --- ask prompt ----------------------------------------------------


def test_ask_prompt_contains_k_constraint():
    prompt = render_ask_prompt("who?", [], 2)
    assert "no more than 2 questions" in prompt


def test_ask_prompt_golden():
    q = "Who led the soldiers in ending the raid on the harper's ferry arsenal?"
    assert render_ask_prompt(q, [], 2) == golden("ask_harpers.txt")


def test_ask_prompt_rejects_nonpositive_k():
    with pytest.raises(ValueError, match="k must be >= 1"):
        render_ask_prompt("who?", [], 0)


# --- summarize prompt ----------------------------------------------------


def test_summarize_prompt_contains_question_and_docs():
    prompt = render_summarize_prompt("who won?", "Some document text.")
    assert "who won?" in prompt
    assert "Some document text." in prompt


def test_summarize_prompt_golden():
    prompt = render_summarize_prompt(
        "who won the race?", "Race history\nThe 1903 race was won by Maurice Garin."
    )
    assert prompt == golden("summarize.txt")


def test_summarize_prompt_rejects_empty_docs():
    with pytest.raises(ValueError):
        render_summarize_prompt("who won?", "")


# --- background-generation prompt ------------------------------------------------


def test_genread_prompt_contains_question():
    assert "who won the race?" in render_genread_prompt("who won the race?")


def test_genread_prompt_golden():
    assert render_genread_prompt("who won the race?") == golden("genread.txt")


def test_genread_prompt_rejects_whitespace_question():
    with pytest.raises(ValueError):
        render_genread_prompt(" \n ")


# --- score prompt ----------------------------------------------------


def test_score_prompt_mentions_unit_interval_and_bands():
    prompt = render_score_prompt("who won?", [], "Maurice Garin")
    assert "between 0 and 1" in prompt
    for band in ("between 0 and 0.3", "between 0.3 and 0.5", "between 0.5 and 0.7", "greater than 0.7"):
        assert band in prompt


def test_score_prompt_golden():
    prompt = render_score_prompt(
        "who won the race?",
        [("who won the first tour?", "The 1903 race was won by Maurice Garin.")],
        "Maurice Garin",
    )
    assert prompt == golden("score_one_pair.txt")


def test_score_prompt_rejects_empty_answer():
    with pytest.raises(ValueError):
        render_score_prompt("who won?", [], "")


# --- render determinism and template override -------------------------------------


def test_renders_are_byte_stable():
    for _ in range(3):
        assert render_answer_prompt("q?", [("a", "b")]) == render_answer_prompt("q?", [("a", "b")])


def test_template_dir_override(tmp_path):
    (tmp_path / "genread.txt").write_text("CUSTOM {question}\n", encoding="utf-8")
    templates = load_templates(tmp_path)
    assert render_genread_prompt("who?", templates=templates) == "CUSTOM who?"
    # The other four keep the embedded text, and the embedded set is untouched.
    assert dict(templates, genread=EMBEDDED_TEMPLATES["genread"]) == EMBEDDED_TEMPLATES
    assert render_genread_prompt("who?").startswith("Generate a short background")


def test_templates_are_read_only():
    with pytest.raises(TypeError):
        EMBEDDED_TEMPLATES["genread"] = "CUSTOM {question}"
    assert render_genread_prompt("who?").startswith("Generate a short background")


def test_template_dir_must_be_a_directory(tmp_path):
    with pytest.raises(ValueError, match="template directory"):
        load_templates(tmp_path / "missing")


def test_embedded_templates_pass_the_placeholder_check(tmp_path):
    # Read the embedded set, then the same texts as overrides: both pass.
    assert load_templates() == EMBEDDED_TEMPLATES
    embedded = resources.files("beamqa") / "templates"
    for name in ("answer", "ask", "summarize", "genread", "score"):
        text = (embedded / f"{name}.txt").read_text(encoding="utf-8")
        (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
    assert load_templates(tmp_path) == EMBEDDED_TEMPLATES


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("answer", "{histroy}\n{question}", "unknown placeholder {histroy}"),
        ("summarize", "{document} {k}", "unknown placeholder {k}"),
        ("ask", "Ask {k} questions about {question", "expected '}'"),
        ("score", "{answer} { {question}", "unexpected '{' in field name"),
        ("genread", "{question} {}", "Replacement index 0"),
        ("genread", "{question} }", "Single '}'"),
    ],
    ids=["typo", "foreign-name", "unclosed", "brace-in-name", "positional", "stray-close"],
)
def test_template_with_a_bad_placeholder_is_rejected_naming_its_file(tmp_path, name, text, message):
    (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_templates(tmp_path)
    assert str(err.value).startswith(f"template {tmp_path / name}.txt: ")
    assert message in str(err.value)


# --- question list parsing ----------------------------------------------------


def test_parse_questions_ranked_block():
    text = "Ranked Questions:\n1. Who led the soldiers?\n2. Who was the overall commander?"
    assert parse_questions(text, 2) == [
        "Who led the soldiers?",
        "Who was the overall commander?",
    ]


def test_parse_questions_empty_text():
    assert parse_questions("", 2) == []


def test_parse_questions_truncates_to_k():
    text = "1. one?\n2. two?\n3. three?"
    assert parse_questions(text, 2) == ["one?", "two?"]
    with pytest.raises(ValueError, match="k must be >= 1"):
        parse_questions(text, 0)


def test_parse_questions_tolerates_missing_marker_and_brackets():
    text = "Sure, here you go:\n1) [What year did it happen?]\n2. [Where?]"
    assert parse_questions(text, 5) == ["What year did it happen?", "Where?"]


def test_parse_questions_drops_empty_items():
    text = "Ranked Questions:\n1. \n2. real question?"
    assert parse_questions(text, 5) == ["real question?"]


def test_parse_questions_drops_an_empty_bracketed_item():
    text = "Ranked Questions:\n1. []\n2. [ ]\n3. real question?"
    assert parse_questions(text, 5) == ["real question?"]


@pytest.mark.parametrize("text", ["0.9", "Ranked Questions:\n0.9", "3.14 is pi", " 12.5"])
def test_parse_questions_reads_a_decimal_as_no_item(text):
    assert parse_questions(text, 5) == []


def test_parse_questions_still_reads_both_list_markers():
    assert parse_questions("1. first?\n2) second?\n3.third?", 5) == ["first?", "second?", "third?"]


def test_parse_questions_round_trip():
    rng = random.Random(7)
    words = "what when where which who how why engine raid license commander".split()
    for _ in range(200):
        wanted = [
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 6))) + "?"
            for _ in range(rng.randint(1, 4))
        ]
        text = "Ranked Questions:\n" + "\n".join(
            f"{i}. {q}" for i, q in enumerate(wanted, start=1)
        )
        assert parse_questions(text, len(wanted)) == wanted


# --- score parsing ----------------------------------------------------


def test_parse_score_plain():
    assert parse_score("The score is: 0.8") == 0.8


def test_parse_score_integer_zero():
    assert parse_score("0") == 0.0


def test_parse_score_clamps_above_one():
    assert parse_score("probability is 1.5 overall") == 1.5
    assert clamp_score(parse_score("probability is 1.5 overall")) == 1.0
    assert parse_score("120%") == pytest.approx(1.2)
    assert clamp_score(parse_score("120%")) == 1.0


def test_parse_score_clamps_below_zero():
    assert parse_score("-0.25") == -0.25
    assert clamp_score(parse_score("-0.25")) == 0.0


def test_parse_score_takes_first_number():
    assert parse_score("0.6, maybe 0.9") == 0.6


@pytest.mark.parametrize(
    "text, expected",
    [
        ("85%", 0.85),
        ("8/10", 0.8),
        ("7 out of 10", 0.7),
        ("Score: 3 / 4", 0.75),
        ("120%", 1.0),
        ("5e-1", 0.5),
        ("1e-3", 0.001),
        ("2.5E-1", 0.25),
    ],
)
def test_parse_score_reads_percentages_and_fractions_as_scaled_values(text, expected):
    assert clamp_score(parse_score(text)) == pytest.approx(expected)


def test_parse_score_rejects_a_zero_scale():
    with pytest.raises(ScoreParseError):
        parse_score("8/0")


@pytest.mark.parametrize(
    "text",
    ["1e999", "-1e999", "1e999%", "1e999/1e999", "0.9e400 out of 1e400", "8 out of 1e999", "8/1e999"],
)
def test_parse_score_rejects_a_non_finite_value(text):
    # float() reads an overflowing number as inf, and inf/inf is nan; a clamp
    # would turn inf into a sure 1.0, and an infinite scale reads as 0.
    with pytest.raises(ScoreParseError, match="non-finite"):
        parse_score(text)


def test_parse_score_raises_without_number():
    with pytest.raises(ScoreParseError):
        parse_score("no idea")


def test_parse_score_matches_clamp_of_rendered_numbers():
    rng = random.Random(11)
    for _ in range(300):
        n = round(rng.uniform(-2, 2), 4)
        expected = min(1.0, max(0.0, n))
        assert parse_score(f"The score is: {n}") == n
        assert clamp_score(parse_score(f"The score is: {n}")) == pytest.approx(expected, abs=1e-12)
