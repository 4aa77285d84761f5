import json
import pathlib

import pytest

import beamqa.cli
from beamqa.cli import build_parser, main
from beamqa.prompts import set_template_dir
from beamqa.providers import ScriptedProvider
from beamqa.search import SearchConfig, SearchRun

from support import (
    HARPERS_CORPUS,
    ScriptBuilder,
    fact_corpus,
    fact_gold,
    fact_plan,
    fact_question,
    harpers_script,
    report_file_size,
    save_script,
)


def write_corpus(path, docs):
    lines = [
        json.dumps({"id": d.doc_id, "title": d.title, "text": d.body}) for d in docs
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture()
def harpers_cli(tmp_path):
    """Corpus, index, and script files for the golden question."""
    built, _, config = harpers_script()
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus_path, HARPERS_CORPUS)
    index_path = tmp_path / "index.json"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(index_path)]) == 0
    script_path = tmp_path / "script.json"
    save_script(built.rules, script_path)
    return built, index_path, script_path


# --- index ----------------------------------------------------


def test_index_reports_document_count(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus_path, fact_corpus(3, {0}))
    code = main(["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "i.json")])
    assert code == 0
    assert "indexed 3 documents" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "--corpus", "{missing}", "--out", "{tmp}/i.json"],
        ["eval", "--dataset", "{missing}", "--provider", "scripted", "--script", "{script}"],
        ["ask", "who?", "--provider", "scripted", "--script", "{missing}",
         "--evidence-mode", "generate_background"],
        ["ask", "who?", "--provider", "scripted", "--script", "{script}", "--index", "{missing}"],
    ],
    ids=["index-corpus", "eval-dataset", "ask-script", "ask-index"],
)
def test_missing_input_file_fails(tmp_path, capsys, argv):
    missing = tmp_path / "nope.jsonl"
    script = tmp_path / "script.json"
    script.write_text('{"rules": []}', encoding="utf-8")
    code = main([arg.format(missing=missing, tmp=tmp_path, script=script) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: file not found: {missing}\n"
    assert captured.out == ""


def test_index_out_into_a_missing_directory_fails(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        pytest.fail("the corpus was read or indexed")

    monkeypatch.setattr(beamqa.cli, "load_corpus", refuse)
    monkeypatch.setattr(beamqa.cli, "index_corpus", refuse)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus_path, fact_corpus(3, {0}))
    out = tmp_path / "missing" / "i.json"
    code = main(["index", "--corpus", str(corpus_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: {out.parent} is not a directory\n"
    assert not out.parent.exists()


def test_index_corpus_that_is_a_directory_fails(tmp_path, capsys):
    code = main(["index", "--corpus", str(tmp_path), "--out", str(tmp_path / "i.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert not (tmp_path / "i.json").exists()


def test_index_duplicate_id_fails_naming_it(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(
        '{"id": "d1", "text": "one"}\n{"id": "d2", "text": "two"}\n{"id": "d1", "text": "three"}\n',
        encoding="utf-8",
    )
    code = main(["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "i.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {corpus_path}:3: duplicate id 'd1' (first on line 1)\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


@pytest.mark.parametrize(
    "last_line, reason",
    [
        ('{"id": "fact-0", "text": "again"}', "duplicate id 'fact-0' (first on line 1)"),
        ('{"id": "late", "text": ""}', "missing or empty 'text'"),
    ],
    ids=["duplicate-id", "bad-record"],
)
def test_index_error_on_the_last_line_keeps_the_earlier_index(tmp_path, capsys, last_line, reason):
    # The corpus is read while the index is built, so this error comes only
    # after every other document has been indexed.
    out = tmp_path / "i.json"
    write_corpus(tmp_path / "earlier.jsonl", fact_corpus(3, {0}))
    assert main(["index", "--corpus", str(tmp_path / "earlier.jsonl"), "--out", str(out)]) == 0
    earlier = out.read_bytes()
    capsys.readouterr()
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus_path, fact_corpus(200, {0}))
    with corpus_path.open("a", encoding="utf-8") as corpus:
        corpus.write(last_line + "\n")
    code = main(["index", "--corpus", str(corpus_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {corpus_path}:201: {reason}\n"
    assert captured.out == ""
    assert out.read_bytes() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "earlier.jsonl", "i.json"]


def test_index_corpus_without_a_token_fails(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text('{"id": "a", "text": "..."}\n{"id": "b", "text": "!!"}\n', encoding="utf-8")
    code = main(["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "i.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: no document has a token\n"
    assert not (tmp_path / "i.json").exists()


def test_index_malformed_record_reports_line(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text('{"id": "a", "text": "ok"}\n{broken\n', encoding="utf-8")
    code = main(["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "i.json")])
    assert code != 0
    assert ":2:" in capsys.readouterr().err


# --- ask ----------------------------------------------------


def test_ask_prints_the_golden_answer(harpers_cli, tmp_path, capsys):
    built, index_path, script_path = harpers_cli
    trace_path = tmp_path / "trace.jsonl"
    code = main(
        [
            "ask", built.question,
            "--provider", "scripted", "--script", str(script_path),
            "--index", str(index_path),
            "--trace", str(trace_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Colonel Robert E. Lee" in out
    assert "score: 0.8" in out
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1]["kind"] == "finished"


def test_help_shows_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["ask", "--help"])
    assert err.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_out_of_range_threshold_is_a_flag_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["ask", "a question", "--threshold", "1.5"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [("--threshold", "high", "not a number: 'high'"), ("--beam-size", "two", "not an integer: 'two'")],
)
def test_non_numeric_flag_is_a_flag_error(capsys, flag, value, message):
    with pytest.raises(SystemExit) as err:
        main(["ask", "a question", flag, value])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_flag_defaults_match_default_config():
    args = build_parser().parse_args(["ask", "a question"])
    defaults = SearchConfig()
    assert args.threshold == defaults.score_threshold == 0.8
    assert args.beam_size == defaults.beam_size == 2
    assert args.max_depth == defaults.max_depth == 2
    assert args.max_queries == defaults.max_queries == 2
    assert args.retrieval_docs == defaults.retrieval_docs == 2
    assert args.evidence_mode == defaults.evidence_mode == "retrieve_summarize"


def test_negative_retries_is_a_flag_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["ask", "a question", "--retries", "-1"])
    assert exit_info.value.code == 2
    assert "--retries" in capsys.readouterr().err


@pytest.fixture()
def searched_retries(monkeypatch):
    """The ``retries`` of every SearchRun the CLI builds; the runs go ahead."""
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs.get("retries"))
        return SearchRun(*args, **kwargs)

    monkeypatch.setattr(beamqa.cli, "SearchRun", recording)
    return seen


def test_ask_retries_reach_the_engine(harpers_cli, capsys, searched_retries):
    built, index_path, script_path = harpers_cli
    args = ["ask", built.question, "--provider", "scripted", "--script", str(script_path)]
    assert main(args + ["--index", str(index_path), "--retries", "4"]) == 0
    assert searched_retries == [4]


def test_eval_retries_reach_the_engine(tmp_path, capsys, searched_retries):
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    output = tmp_path / "report.json"
    assert main(eval_args(index_path, script_path, dataset_path, output) + ["--retries", "4"]) == 0
    # One run answers all four questions.
    assert searched_retries == [4]


@pytest.mark.parametrize(
    "flags, model", [([], "env-model"), (["--model", "gpt-3.5-turbo"], "gpt-3.5-turbo")]
)
def test_ask_manifest_records_the_model_used(tmp_path, monkeypatch, chat_server, flags, model):
    monkeypatch.setenv("BEAMQA_ENDPOINT", chat_server.url)
    monkeypatch.setenv("BEAMQA_MODEL", "env-model")
    output = tmp_path / "result.json"
    args = ["ask", "who?", "--evidence-mode", "generate_background", "--output", str(output)]
    assert main(args + flags) == 0
    manifest = json.loads(output.read_text(encoding="utf-8"))["manifest"]
    assert manifest["provider"]["model"] == model
    assert {post.json["model"] for post in chat_server.posts} == {model}


def test_ask_manifest_records_the_endpoint_from_the_environment(tmp_path, monkeypatch, chat_server):
    monkeypatch.setenv("BEAMQA_ENDPOINT", chat_server.url)
    output = tmp_path / "result.json"
    args = ["ask", "who?", "--evidence-mode", "generate_background", "--output", str(output)]
    assert main(args) == 0
    manifest = json.loads(output.read_text(encoding="utf-8"))["manifest"]
    assert manifest["provider"]["endpoint"] == chat_server.url


@pytest.mark.parametrize(
    "flags, env, source",
    [
        (["--timeout", "inf"], None, "timeout"),
        (["--timeout", "0"], None, "timeout"),
        (["--timeout", "nan"], None, "timeout"),
        ([], "nan", "BEAMQA_TIMEOUT"),
    ],
)
def test_bad_timeout_fails_before_any_post(monkeypatch, capsys, chat_server, flags, env, source):
    monkeypatch.setenv("BEAMQA_ENDPOINT", chat_server.url)
    if env is None:
        monkeypatch.delenv("BEAMQA_TIMEOUT", raising=False)
    else:
        monkeypatch.setenv("BEAMQA_TIMEOUT", env)
    code = main(["ask", "who?", "--evidence-mode", "generate_background"] + flags)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {source} must be a finite number of seconds above 0")
    assert "Traceback" not in captured.err
    assert (captured.out, chat_server.connections) == ("", 0)


def test_non_numeric_timeout_env_names_the_variable(monkeypatch, capsys, chat_server):
    monkeypatch.setenv("BEAMQA_ENDPOINT", chat_server.url)
    monkeypatch.setenv("BEAMQA_TIMEOUT", "abc")
    code = main(["ask", "who?", "--evidence-mode", "generate_background"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: BEAMQA_TIMEOUT must be a number of seconds, got 'abc'\n"
    assert (captured.out, chat_server.connections) == ("", 0)


@pytest.mark.parametrize(
    "endpoint", ["svc.test/v1/chat/completions", "ftp://svc.test/v1/chat/completions"]
)
def test_malformed_endpoint_fails_before_any_call(monkeypatch, capsys, no_search, endpoint):
    monkeypatch.delenv("BEAMQA_ENDPOINT", raising=False)
    code = main(["ask", "who?", "--evidence-mode", "generate_background", "--endpoint", endpoint])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        f"error: endpoint must be an http:// or https:// URL with a host, got {endpoint!r}\n"
    )
    assert captured.out == ""


def test_endpoint_with_a_control_character_fails_before_any_call(chat_server, monkeypatch, capsys):
    monkeypatch.delenv("BEAMQA_ENDPOINT", raising=False)
    endpoint = chat_server.url + "\n"
    code = main(["ask", "who?", "--evidence-mode", "generate_background", "--endpoint", endpoint])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: endpoint must not hold a control character, got {endpoint!r}\n"
    assert (captured.out, chat_server.connections) == ("", 0)


@pytest.fixture()
def embedded_templates_after():
    yield
    set_template_dir(None)


def test_ask_missing_template_dir_fails_before_any_call(
    harpers_cli, tmp_path, capsys, embedded_templates_after
):
    built, index_path, script_path = harpers_cli
    code = main(
        [
            "ask", built.question,
            "--provider", "scripted", "--script", str(script_path),
            "--index", str(index_path),
            "--template-dir", str(tmp_path / "nonexistent"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: template directory not found")
    assert "Traceback" not in captured.err
    assert captured.out == ""


BAD_TEMPLATES = [
    ("answer.txt", "{histroy}\n{question}", "unknown placeholder {histroy}"),
    ("summarize.txt", "{document} about {question", "expected '}' before end of string"),
    ("genread.txt", "", "renders a blank prompt when the history is empty"),
    ("answer.txt", "{history}\n", "renders a blank prompt when the history is empty"),
]
BAD_TEMPLATE_IDS = ["typo", "unclosed", "empty", "history-only"]


@pytest.mark.parametrize("name, text, reason", BAD_TEMPLATES, ids=BAD_TEMPLATE_IDS)
def test_ask_template_with_a_bad_placeholder_fails_before_any_call(
    harpers_cli, tmp_path, capsys, no_search, embedded_templates_after, name, text, reason
):
    built, index_path, script_path = harpers_cli
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / name).write_text(text, encoding="utf-8")
    code = main(
        [
            "ask", built.question,
            "--provider", "scripted", "--script", str(script_path),
            "--index", str(index_path),
            "--template-dir", str(templates),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: template {templates / name}: {reason}\n"
    assert captured.out == ""


def test_ask_template_that_is_not_utf8_fails_naming_it(
    tmp_path, capsys, no_search, embedded_templates_after
):
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "genread.txt").write_bytes(b"\xff{question}")
    script_path = tmp_path / "script.json"
    script_path.write_text('{"rules": []}', encoding="utf-8")
    code = main(
        [
            "ask", "who?",
            "--provider", "scripted", "--script", str(script_path),
            "--evidence-mode", "generate_background",
            "--template-dir", str(templates),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        f"error: template {templates / 'genread.txt'}: not UTF-8 (byte 0xff at offset 0)\n"
    )
    assert captured.out == ""


@pytest.fixture()
def no_search(monkeypatch):
    """Fail the test if the CLI starts a search, and so pays for a call."""

    def refuse(*args, **kwargs):
        pytest.fail("a search started")

    monkeypatch.setattr(beamqa.cli, "SearchRun", refuse)


@pytest.mark.parametrize("flag", ["--trace", "--output"])
def test_ask_into_a_missing_directory_fails_before_any_call(
    harpers_cli, tmp_path, capsys, no_search, flag
):
    built, index_path, script_path = harpers_cli
    target = tmp_path / "missing" / "out"
    code = main(
        [
            "ask", built.question,
            "--provider", "scripted", "--script", str(script_path),
            "--index", str(index_path),
            flag, str(target),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: cannot write {target}")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not target.parent.exists()


@pytest.mark.parametrize("case", ["index", "ask-trace", "ask-output", "eval-output"])
def test_output_path_that_is_a_directory_fails_before_any_call(
    tmp_path, monkeypatch, capsys, request, case
):
    target = tmp_path / "a-directory"
    target.mkdir()
    if case == "index":
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(corpus_path, fact_corpus(3, {0}))
        argv = ["index", "--corpus", str(corpus_path), "--out", str(target)]
    elif case.startswith("ask"):
        built, index_path, script_path = request.getfixturevalue("harpers_cli")
        argv = [
            "ask", built.question,
            "--provider", "scripted", "--script", str(script_path),
            "--index", str(index_path),
            "--" + case.removeprefix("ask-"), str(target),
        ]
    else:
        argv = eval_args(*eval_fixture(tmp_path), target)
    capsys.readouterr()

    def refuse(*args):
        pytest.fail("the index was built or a provider call was made")

    monkeypatch.setattr(beamqa.cli, "index_corpus", refuse)
    monkeypatch.setattr(ScriptedProvider, "complete", refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: cannot write {target}: it is a directory\n"
    assert captured.out == ""
    assert list(target.iterdir()) == []


@pytest.fixture()
def directory_made_during_the_run(tmp_path, monkeypatch):
    """A path that the first search of the run makes a directory, so that the
    check before the run passes and the write after it fails."""
    target = tmp_path / "a-directory"
    run_search = SearchRun.run_search

    def run_and_mkdir(self, question):
        target.mkdir(exist_ok=True)
        return run_search(self, question)

    monkeypatch.setattr(SearchRun, "run_search", run_and_mkdir)
    return target


@pytest.mark.parametrize("flag", ["--trace", "--output"])
def test_ask_write_that_fails_after_the_run_is_an_error(
    harpers_cli, capsys, directory_made_during_the_run, flag
):
    built, index_path, script_path = harpers_cli
    target = directory_made_during_the_run
    code = main(
        [
            "ask", built.question,
            "--provider", "scripted", "--script", str(script_path),
            "--index", str(index_path),
            flag, str(target),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: cannot write the result")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(target.iterdir()) == []


@pytest.mark.parametrize(
    "data, reason",
    [
        (b'{"rules": [', "invalid JSON (Expecting value: line 1 column 12 (char 11))"),
        (b"\xff\xfe{}", "not UTF-8 (byte 0xff at offset 0)"),
    ],
    ids=["not-json", "not-utf8"],
)
def test_ask_script_that_cannot_be_read_fails_naming_it(tmp_path, capsys, no_search, data, reason):
    script_path = tmp_path / "script.json"
    script_path.write_bytes(data)
    code = main(
        [
            "ask", "who?",
            "--provider", "scripted", "--script", str(script_path),
            "--evidence-mode", "generate_background",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: script file {script_path}: {reason}\n"
    assert captured.out == ""


def test_ask_script_with_a_bad_token_count_fails_before_any_call(tmp_path, capsys, no_search):
    script_path = tmp_path / "script.json"
    rule = {"response": "x", "prompt_tokens": -1, "completion_tokens": 1, "repeat": True}
    script_path.write_text(json.dumps({"rules": [rule]}), encoding="utf-8")
    code = main(
        [
            "ask", "who?",
            "--provider", "scripted", "--script", str(script_path),
            "--evidence-mode", "generate_background",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: rule prompt_tokens")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "matcher", [{"contains": 5}, {"exact": 5}, {"tag": "answer", "ordinal": True}]
)
def test_ask_script_with_a_mistyped_matcher_fails_before_any_call(
    tmp_path, capsys, no_search, matcher
):
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps({"rules": [{"response": "x", **matcher}]}), encoding="utf-8")
    code = main(
        [
            "ask", "who?",
            "--provider", "scripted", "--script", str(script_path),
            "--evidence-mode", "generate_background",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: rule ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_ask_script_with_a_string_repeat_fails_before_any_call(tmp_path, capsys, no_search):
    script_path = tmp_path / "script.json"
    rule = {"response": "x", "tag": "answer", "repeat": "false"}
    script_path.write_text(json.dumps({"rules": [rule]}), encoding="utf-8")
    code = main(
        [
            "ask", "who?",
            "--provider", "scripted", "--script", str(script_path),
            "--evidence-mode", "generate_background",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: rule repeat")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_ask_without_index_in_retrieval_mode_fails(harpers_cli, capsys):
    built, _, script_path = harpers_cli
    code = main(
        ["ask", built.question, "--provider", "scripted", "--script", str(script_path)]
    )
    assert code != 0
    assert "--index" in capsys.readouterr().err


def test_ask_with_an_index_that_shrinks_after_its_size_check_fails_cleanly(harpers_cli, monkeypatch, capsys):
    built, index_path, script_path = harpers_cli
    data = index_path.read_bytes()
    # The file loses half of what follows its header after its size is taken.
    header_end = data.index(b"\n") + 1
    index_path.write_bytes(data[: header_end + (len(data) - header_end) // 2])
    report_file_size(monkeypatch, len(data))
    code = main(
        ["ask", built.question, "--index", str(index_path), "--provider", "scripted", "--script", str(script_path)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "malformed index file" in err and "truncated" in err
    assert "Traceback" not in err


def test_ask_scripted_without_script_fails(capsys):
    code = main(["ask", "a question", "--provider", "scripted"])
    assert code != 0
    assert "--script" in capsys.readouterr().err


def test_ask_generate_background_needs_no_index(tmp_path, capsys):
    config = SearchConfig(evidence_mode="generate_background", max_depth=1, max_queries=1)
    built = ScriptBuilder(config).build(fact_plan(0, True, fact_gold(0)))
    script_path = tmp_path / "genread-script.json"
    save_script(built.rules, script_path)
    code = main(
        [
            "ask", built.question,
            "--provider", "scripted", "--script", str(script_path),
            "--evidence-mode", "generate_background",
            "-D", "1", "-K", "1",
        ]
    )
    assert code == 0
    assert fact_gold(0) in capsys.readouterr().out


# --- eval ----------------------------------------------------

FACT_HITS = {0, 2, 3}


FACT_ANSWERS = [fact_gold(0), "wrong thing", f"the {fact_gold(2)}", "secret token"]


def eval_fixture(tmp_path, failing=(), grounded_scores=None):
    """Index, script and dataset files for four fact questions. The grounded
    seed of each question in ``failing`` finds no scripted answer, so that
    question's search fails; ``grounded_scores`` overrides the grounded
    seeds' score completions by question."""
    n = 4
    config = SearchConfig(beam_size=1, max_depth=1, max_queries=1)
    corpus = fact_corpus(n, FACT_HITS)
    corpus_path = tmp_path / "facts.jsonl"
    write_corpus(corpus_path, corpus)
    index_path = tmp_path / "facts-index.json"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(index_path)]) == 0

    from beamqa.retrieval import index_corpus

    index = index_corpus(corpus)
    rules = []
    for i in range(n):
        plan = fact_plan(i, i in FACT_HITS, FACT_ANSWERS[i])
        if grounded_scores and i in grounded_scores:
            plan.grounded.score = grounded_scores[i]
        built = ScriptBuilder(config, index).build(plan)
        rules.extend(
            rule for rule in built.rules
            if not (i in failing and rule.tag == "answer" and rule.response == FACT_ANSWERS[i])
        )
    script_path = tmp_path / "facts-script.json"
    save_script(rules, script_path)

    dataset_path = tmp_path / "facts-data.jsonl"
    dataset_path.write_text(
        "\n".join(
            json.dumps({"question": fact_question(i), "answers": [fact_gold(i)]})
            for i in range(n)
        )
        + "\n",
        encoding="utf-8",
    )
    return index_path, script_path, dataset_path


def eval_args(index_path, script_path, dataset_path, output):
    return [
        "eval", "--dataset", str(dataset_path),
        "--provider", "scripted", "--script", str(script_path),
        "--index", str(index_path),
        "-B", "1", "-D", "1", "-K", "1",
        "--output", str(output),
    ]


def test_eval_report_matches_hand_scoring(tmp_path, capsys):
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    output = tmp_path / "report.json"
    code = main(eval_args(index_path, script_path, dataset_path, output))
    assert code == 0
    out = capsys.readouterr().out
    assert "em=0.5000" in out
    assert "Tokens Per Query" in out

    report = json.loads(output.read_text(encoding="utf-8"))
    assert report["summary"]["n_examples"] == 4
    assert report["summary"]["em_mean"] == pytest.approx(0.5)
    assert report["summary"]["f1_mean"] == pytest.approx((1.0 + 0.0 + 1.0 + 0.8) / 4)
    assert report["summary"]["hit_rate"] == pytest.approx(0.75)
    # 7 calls and 1 retrieval per question
    assert report["summary"]["cost"]["api_times"] == 28
    assert report["summary"]["cost"]["retrieval_times"] == 4
    questions = [row["question"] for row in report["questions"]]
    assert questions == [fact_question(i) for i in range(4)]
    assert report["questions"][0]["em"] == 1
    assert report["questions"][1]["em"] == 0
    assert report["questions"][3]["f1"] == pytest.approx(0.8)
    assert report["manifest"]["config"]["beam_size"] == 1
    assert report["manifest"]["provider"]["kind"] == "scripted"
    assert report["manifest"]["dataset_path"] == str(dataset_path)


def test_eval_per_question_cost_row(tmp_path, capsys):
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    output = tmp_path / "report.json"
    assert main(eval_args(index_path, script_path, dataset_path, output)) == 0
    summary = json.loads(output.read_text(encoding="utf-8"))["summary"]
    # 7 calls and 1 retrieval per question; tokens per call average all 28 calls.
    assert summary["cost"]["prompt_tokens"] + summary["cost"]["completion_tokens"] == 4201
    assert summary["cost_report_per_question"] == {
        "retrieval_times": 1,
        "api_times": 7,
        "tokens_per_api": 150,
        "tokens_per_query": 1050,
    }
    rows = capsys.readouterr().out.splitlines()
    assert "per-question | 1               | 7         | 150            | 7 x 150 = 1050  " in rows


def test_eval_is_byte_identical_across_invocations(tmp_path, capsys):
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    first = tmp_path / "report-1.json"
    second = tmp_path / "report-2.json"
    assert main(eval_args(index_path, script_path, dataset_path, first)) == 0
    assert main(eval_args(index_path, script_path, dataset_path, second)) == 0
    # Output path is not part of the report, so the bytes must match exactly.
    assert first.read_bytes() == second.read_bytes()


def test_eval_workers_flag_keeps_dataset_order(tmp_path, capsys):
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    serial = tmp_path / "serial.json"
    pooled = tmp_path / "pooled.json"
    assert main(eval_args(index_path, script_path, dataset_path, serial)) == 0
    assert main(eval_args(index_path, script_path, dataset_path, pooled) + ["--workers", "3"]) == 0
    a = json.loads(serial.read_text(encoding="utf-8"))
    b = json.loads(pooled.read_text(encoding="utf-8"))
    assert a["questions"] == b["questions"]
    assert a["summary"] == b["summary"]


def test_eval_missing_template_dir_fails_before_any_call(
    tmp_path, capsys, embedded_templates_after
):
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    output = tmp_path / "report.json"
    args = eval_args(index_path, script_path, dataset_path, output)
    code = main(args + ["--template-dir", str(tmp_path / "nonexistent")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: template directory not found")
    assert "Traceback" not in captured.err
    assert not output.exists()


def test_eval_output_into_a_missing_directory_fails_before_any_call(tmp_path, capsys, no_search):
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    capsys.readouterr()
    output = tmp_path / "missing" / "report.json"
    code = main(eval_args(index_path, script_path, dataset_path, output))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: cannot write {output}")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not output.parent.exists()


def test_eval_output_that_cannot_be_written_is_an_error(
    tmp_path, capsys, directory_made_during_the_run
):
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    capsys.readouterr()
    output = directory_made_during_the_run
    code = main(eval_args(index_path, script_path, dataset_path, output))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: cannot write the report")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(output.iterdir()) == []


def test_eval_template_dir_falls_back_to_embedded_templates(
    tmp_path, capsys, embedded_templates_after
):
    # Only genread.txt is overridden; the other four templates stay embedded,
    # so the scripted retrieve_summarize run matches the plain one.
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "genread.txt").write_text("CUSTOM {question}\n", encoding="utf-8")
    plain, custom = tmp_path / "plain.json", tmp_path / "custom.json"
    assert main(eval_args(index_path, script_path, dataset_path, plain)) == 0
    args = eval_args(index_path, script_path, dataset_path, custom)
    assert main(args + ["--template-dir", str(templates)]) == 0
    a = json.loads(plain.read_text(encoding="utf-8"))
    b = json.loads(custom.read_text(encoding="utf-8"))
    assert (a["summary"], a["questions"]) == (b["summary"], b["questions"])
    assert b["manifest"]["template_dir"] == str(templates)


@pytest.mark.parametrize("name, text, reason", BAD_TEMPLATES, ids=BAD_TEMPLATE_IDS)
def test_eval_template_with_a_bad_placeholder_fails_before_any_call(
    tmp_path, capsys, no_search, embedded_templates_after, name, text, reason
):
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    capsys.readouterr()
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / name).write_text(text, encoding="utf-8")
    output = tmp_path / "report.json"
    args = eval_args(index_path, script_path, dataset_path, output)
    code = main(args + ["--template-dir", str(templates)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: template {templates / name}: {reason}\n"
    assert captured.out == "" and not output.exists()


def test_eval_dataset_line_that_is_not_utf8_fails(tmp_path, capsys):
    dataset = tmp_path / "bad.jsonl"
    dataset.write_bytes(b'{"question": "q", "answers": ["a"]}\n{"question": "\xff", "answers": ["b"]}\n')
    code = main(["eval", "--dataset", str(dataset), "--provider", "scripted", "--script", "x"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {dataset}:2: not UTF-8 (byte 0xff at offset 14)\n"
    assert captured.out == ""


def test_index_corpus_line_that_is_not_utf8_fails_naming_it(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b'{"id": "a", "text": "ok"}\n\n{"id": "b", "text": "\xff"}\n')
    out = tmp_path / "i.idx"
    code = main(["index", "--corpus", str(corpus), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {corpus}:3: not UTF-8 (byte 0xff at offset 21)\n"
    assert not out.exists()


def test_eval_empty_dataset_fails(tmp_path, capsys):
    dataset = tmp_path / "empty.jsonl"
    dataset.write_text("", encoding="utf-8")
    code = main(["eval", "--dataset", str(dataset), "--provider", "scripted", "--script", "x"])
    assert code != 0
    assert "no examples" in capsys.readouterr().err


def test_eval_dataset_that_is_a_directory_fails(tmp_path, capsys):
    code = main(["eval", "--dataset", str(tmp_path), "--provider", "scripted", "--script", "x"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_eval_flag_overrides_land_in_manifest(tmp_path):
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    output = tmp_path / "report.json"
    args = eval_args(index_path, script_path, dataset_path, output)
    args[args.index("-K") + 1] = "1"
    code = main(args + ["--threshold", "0.9"])
    assert code == 0
    report = json.loads(output.read_text(encoding="utf-8"))
    assert report["manifest"]["config"]["score_threshold"] == 0.9
    assert report["manifest"]["config"]["max_queries"] == 1


def test_eval_malformed_dataset_reports_line(tmp_path, capsys):
    dataset = tmp_path / "bad.jsonl"
    dataset.write_text('{"question": "q", "answers": ["a"]}\n{"question": "x"}\n', encoding="utf-8")
    code = main(["eval", "--dataset", str(dataset), "--provider", "scripted", "--script", "x"])
    assert code != 0
    assert ":2:" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "3"])
def test_eval_keeps_going_when_a_question_fails(tmp_path, capsys, workers):
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main(eval_args(index_path, script_path, dataset_path, baseline)) == 0
    index_path, script_path, dataset_path = eval_fixture(tmp_path, failing={1})
    output = tmp_path / "report.json"
    capsys.readouterr()
    code = main(eval_args(index_path, script_path, dataset_path, output) + ["--workers", workers])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: question 2 failed: search aborted")
    assert "n=4 completed=3 failed=1 em=0.6667" in captured.out

    report = json.loads(output.read_text(encoding="utf-8"))
    summary, rows = report["summary"], report["questions"]
    assert (summary["n_examples"], summary["completed"], summary["failed"]) == (4, 3, 1)
    # Means over questions 0, 2 and 3 only.
    assert summary["em_mean"] == pytest.approx(2 / 3)
    assert summary["f1_mean"] == pytest.approx((1.0 + 1.0 + 0.8) / 3)
    assert summary["hit_rate"] == pytest.approx(1.0)
    # The completed questions' rows are those of a run where none failed.
    expected = json.loads(baseline.read_text(encoding="utf-8"))["questions"]
    assert [rows[i] for i in (0, 2, 3)] == [expected[i] for i in (0, 2, 3)]
    failed = rows[1]
    assert failed["question"] == fact_question(1) and failed["error"].startswith("search aborted")
    assert "answer" not in failed and "em" not in failed
    # The partial ledger counts the grounded seed's retrieval and summary,
    # and the totals count it too.
    assert failed["ledger"]["retrieval_times"] == 1 and failed["ledger"]["api_times"] >= 1
    for key, total in summary["cost"].items():
        assert total == sum(row["ledger"][key] for row in rows)


def test_eval_where_every_question_fails_reports_no_means(tmp_path, capsys):
    index_path, script_path, dataset_path = eval_fixture(tmp_path, failing={0, 1, 2, 3})
    output = tmp_path / "report.json"
    assert main(eval_args(index_path, script_path, dataset_path, output)) == 2
    assert "n=4 completed=0 failed=4 em=n/a f1=n/a hit_rate=n/a" in capsys.readouterr().out
    summary = json.loads(output.read_text(encoding="utf-8"))["summary"]
    assert (summary["completed"], summary["em_mean"], summary["hit_rate"]) == (0, None, None)


def test_eval_counts_clamped_scores(tmp_path, capsys):
    index_path, script_path, dataset_path = eval_fixture(tmp_path)
    plain = tmp_path / "plain.json"
    assert main(eval_args(index_path, script_path, dataset_path, plain)) == 0
    assert json.loads(plain.read_text(encoding="utf-8"))["summary"]["clamped_scores"] == 0
    index_path, script_path, dataset_path = eval_fixture(
        tmp_path, grounded_scores={0: "1.7", 2: "-0.5"}
    )
    output = tmp_path / "report.json"
    assert main(eval_args(index_path, script_path, dataset_path, output)) == 0
    summary = json.loads(output.read_text(encoding="utf-8"))["summary"]
    assert summary["clamped_scores"] == 2
    assert set(summary["cost"]) == {"retrieval_times", "api_times", "prompt_tokens", "completion_tokens"}


@pytest.mark.parametrize("case", ["index", "ask-trace", "ask-output", "eval-output"])
def test_write_that_fails_halfway_leaves_the_old_file_whole(
    tmp_path, monkeypatch, capsys, request, case
):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "file"
    if case == "index":
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(corpus_path, fact_corpus(3, {0}))
        argv = ["index", "--corpus", str(corpus_path), "--out", str(target)]
        message = f"error: cannot write the index {target}: "
    elif case.startswith("ask"):
        built, index_path, script_path = request.getfixturevalue("harpers_cli")
        argv = [
            "ask", built.question,
            "--provider", "scripted", "--script", str(script_path),
            "--index", str(index_path),
            "--" + case.removeprefix("ask-"), str(target),
        ]
        message = "error: cannot write the result: "
    else:
        argv = eval_args(*eval_fixture(tmp_path), target)
        message = "error: cannot write the report: "
    assert main(argv) == 0
    before = target.read_bytes()
    capsys.readouterr()

    # Each write puts half its bytes down and then fails, as on a full disk.
    if case == "index":
        save_index = beamqa.cli.save_index

        def half_then_fail(index, path):
            save_index(index, path)
            with open(path, "r+b") as handle:
                handle.truncate(len(before) // 2)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(beamqa.cli, "save_index", half_then_fail)
        write_corpus(corpus_path, fact_corpus(4, {1}))
    else:
        write_text = pathlib.Path.write_text

        def half_then_fail(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pathlib.Path, "write_text", half_then_fail)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert "No space left on device" in captured.err
    assert captured.out == ""
    assert target.read_bytes() == before
    assert list(out_dir.iterdir()) == [target]


def test_index_out_through_a_symlink_replaces_the_file_it_names(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus_path, fact_corpus(3, {0}))
    real, link = tmp_path / "real.idx", tmp_path / "link.idx"
    real.write_bytes(b"old")
    link.symlink_to(real.name)
    assert main(["index", "--corpus", str(corpus_path), "--out", str(link)]) == 0
    assert link.is_symlink()
    from beamqa.retrieval import load_index

    assert len(load_index(real)) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "link.idx", "real.idx"]


def test_index_replaces_the_old_file_and_leaves_no_temp_file(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    out = tmp_path / "i.idx"
    for n in (3, 4):
        write_corpus(corpus_path, fact_corpus(n, {0}))
        assert main(["index", "--corpus", str(corpus_path), "--out", str(out)]) == 0
    from beamqa.retrieval import load_index

    assert len(load_index(out)) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "i.idx"]
