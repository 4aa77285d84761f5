import json
import threading
from collections import Counter

import pytest
import requests

from beamqa.providers import (
    CompletionRequest,
    CompletionResponse,
    HttpChatProvider,
    ProviderError,
    ScriptError,
    ScriptRule,
    ScriptedProvider,
    TransportError,
    estimate_tokens,
    load_script,
    save_script,
)
from beamqa.search import (
    MAX_RETRY_AFTER_S,
    RETRY_BACKOFF_S,
    SearchConfig,
    SearchError,
    SearchRun,
    run_search,
)


def req(prompt="hello there", tag="answer"):
    return CompletionRequest(prompt=prompt, tag=tag)


# --- token estimation ----------------------------------------------------


def test_estimate_tokens_empty():
    assert estimate_tokens("") == 0


def test_estimate_tokens_exact_multiple():
    assert estimate_tokens("x" * 8) == 2


def test_estimate_tokens_rounds_up():
    assert estimate_tokens("x" * 9) == 3


# --- request validation ----------------------------------------------------


def test_empty_prompt_rejected():
    with pytest.raises(ValueError):
        CompletionRequest(prompt="", tag="answer")


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        CompletionRequest(prompt="x", tag="other")


def test_negative_token_counts_rejected():
    with pytest.raises(ValueError):
        CompletionResponse(text="x", prompt_tokens=-1, completion_tokens=0, usage_reported=False)


# --- scripted provider ----------------------------------------------------


def test_ordinal_rule_matches_nth_request_of_tag():
    provider = ScriptedProvider([ScriptRule(response="0.8", tag="score", ordinal=1)])
    assert provider.complete(req(tag="score")).text == "0.8"


def test_exact_and_contains_rules():
    provider = ScriptedProvider(
        [
            ScriptRule(response="exact hit", exact="the exact prompt"),
            ScriptRule(response="both hit", contains=("alpha", "beta")),
            ScriptRule(response="fallback", tag="answer"),
        ]
    )
    assert provider.complete(req(prompt="the exact prompt")).text == "exact hit"
    assert provider.complete(req(prompt="beta then alpha")).text == "both hit"
    assert provider.complete(req(prompt="nothing special")).text == "fallback"


def test_rules_consumed_once_unless_repeat():
    provider = ScriptedProvider(
        [
            ScriptRule(response="first", contains="ping"),
            ScriptRule(response="second", contains="ping"),
        ]
    )
    assert provider.complete(req(prompt="ping 1")).text == "first"
    assert provider.complete(req(prompt="ping 2")).text == "second"
    with pytest.raises(ScriptError):
        provider.complete(req(prompt="ping 3"))


def test_repeat_rule_serves_many():
    provider = ScriptedProvider([ScriptRule(response="again", contains="ping", repeat=True)])
    for _ in range(3):
        assert provider.complete(req(prompt="ping")).text == "again"


def test_unmatched_request_names_prompt_and_tag():
    provider = ScriptedProvider([])
    with pytest.raises(ScriptError) as err:
        provider.complete(req(prompt="mystery prompt", tag="ask"))
    assert "mystery prompt" in str(err.value)
    assert "ask" in str(err.value)


def test_token_fallback_estimates_and_flags():
    provider = ScriptedProvider([ScriptRule(response="x" * 40, tag="answer")])
    resp = provider.complete(req(prompt="p" * 8))
    assert resp.completion_tokens == 10
    assert resp.prompt_tokens == 2
    assert resp.usage_reported is False


def test_explicit_tokens_mark_usage_reported():
    provider = ScriptedProvider(
        [ScriptRule(response="ok", tag="answer", prompt_tokens=200, completion_tokens=90)]
    )
    resp = provider.complete(req())
    assert (resp.prompt_tokens, resp.completion_tokens, resp.usage_reported) == (200, 90, True)


def test_scripted_provider_is_pure():
    rules = [
        ScriptRule(response="a", tag="answer", ordinal=1),
        ScriptRule(response="b", tag="answer", ordinal=2),
    ]
    outs = []
    for _ in range(2):
        provider = ScriptedProvider([ScriptRule(**r.as_dict()) for r in rules])
        outs.append([provider.complete(req()).text, provider.complete(req()).text])
    assert outs[0] == outs[1] == ["a", "b"]


def test_scripted_provider_thread_safe_with_exact_rules():
    rules = [ScriptRule(response=f"r{i}", exact=f"prompt {i}") for i in range(32)]
    provider = ScriptedProvider(rules)
    results: dict[int, str] = {}

    def worker(i):
        results[i] = provider.complete(req(prompt=f"prompt {i}")).text

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {i: f"r{i}" for i in range(32)}


def test_unmatched_request_error_does_not_depend_on_arrival_order():
    # A search records the message in its trace, which must not change with
    # how many requests of the tag happened to arrive first.
    messages = []
    for earlier in (0, 3):
        provider = ScriptedProvider([ScriptRule(response="a", exact="known", repeat=True)])
        for _ in range(earlier):
            provider.complete(req(prompt="known"))
        with pytest.raises(ScriptError) as err:
            provider.complete(req(prompt="no rule for this"))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_script_file_round_trip(tmp_path):
    rules = [
        ScriptRule(response="0.8", tag="score", ordinal=1),
        ScriptRule(response="yes", exact="full prompt", prompt_tokens=5, completion_tokens=7),
    ]
    path = tmp_path / "script.json"
    save_script(rules, path)
    provider = load_script(path)
    assert provider.complete(req(prompt="full prompt")).text == "yes"
    assert provider.complete(req(tag="score")).text == "0.8"


def test_rule_dict_round_trips_every_field():
    rules = [
        ScriptRule(response="", tag="answer"),
        ScriptRule(response="a", tag="score", ordinal=2, repeat=True),
        ScriptRule(response="b", exact="full", contains=("x", "y"), prompt_tokens=0, completion_tokens=0),
    ]
    assert [ScriptRule.from_dict(r.as_dict()) for r in rules] == rules
    assert rules[0].as_dict() == {"response": "", "tag": "answer"}
    assert rules[2].as_dict()["contains"] == ["x", "y"]


def test_rule_dict_with_an_unknown_field_is_rejected():
    with pytest.raises(ValueError, match="unknown script rule fields"):
        ScriptRule.from_dict({"response": "a", "temperature": 0.0})


def test_script_file_rejects_bad_shape(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([1, 2]), encoding="utf-8")
    with pytest.raises(ValueError):
        load_script(path)


# --- HTTP provider ----------------------------------------------------


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (json.dumps(payload) if payload is not None else "")
        self.headers = requests.structures.CaseInsensitiveDict(headers or {})

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def chat_payload(text, usage=None):
    payload = {"choices": [{"message": {"content": text}}]}
    if usage is not None:
        payload["usage"] = usage
    return payload


def http_provider(outcomes, **kwargs):
    session = FakeSession(outcomes)
    provider = HttpChatProvider(
        endpoint="http://svc.test/v1/chat/completions",
        api_key="sk-test",
        session=session,
        **kwargs,
    )
    return provider, session


def test_http_success_with_usage():
    provider, session = http_provider(
        [FakeResponse(payload=chat_payload("hi", {"prompt_tokens": 12, "completion_tokens": 3}))]
    )
    resp = provider.complete(req(prompt="say hi"))
    assert (resp.text, resp.prompt_tokens, resp.completion_tokens, resp.usage_reported) == (
        "hi", 12, 3, True,
    )
    body = session.calls[0]["json"]
    assert body["messages"] == [{"role": "user", "content": "say hi"}]
    assert body["model"] == "gpt-3.5-turbo"
    assert (body["temperature"], body["max_tokens"]) == (0.0, 256)
    assert session.calls[0]["headers"]["Authorization"] == "Bearer sk-test"


def test_http_missing_usage_falls_back_to_estimate():
    provider, _ = http_provider([FakeResponse(payload=chat_payload("x" * 40))])
    resp = provider.complete(req(prompt="p" * 8))
    assert (resp.prompt_tokens, resp.completion_tokens, resp.usage_reported) == (2, 10, False)


@pytest.mark.parametrize(
    "usage",
    [
        ["x"],
        "n/a",
        {"prompt_tokens": -1, "completion_tokens": 3},
        {"prompt_tokens": True, "completion_tokens": 3},
    ],
    ids=["list", "string", "negative", "bool"],
)
def test_http_malformed_usage_falls_back_to_estimate(usage):
    provider, _ = http_provider([FakeResponse(payload=chat_payload("x" * 40, usage))])
    resp = provider.complete(req(prompt="p" * 8))
    assert (resp.prompt_tokens, resp.completion_tokens, resp.usage_reported) == (2, 10, False)


@pytest.mark.parametrize(
    "outcome",
    [
        FakeResponse(status_code=500),
        FakeResponse(status_code=503),
        FakeResponse(status_code=429),
        requests.ConnectionError("boom"),
        requests.Timeout("slow"),
        requests.exceptions.ChunkedEncodingError("cut off"),
        requests.exceptions.ContentDecodingError("garbled"),
    ],
    ids=["500", "503", "429", "connection", "timeout", "chunked", "decoding"],
)
def test_http_transient_failure_is_one_post_raising_transport_error(outcome):
    provider, session = http_provider([outcome, FakeResponse(payload=chat_payload("ok"))])
    with pytest.raises(TransportError):
        provider.complete(req())
    assert len(session.calls) == 1


def test_http_client_error_fails_fast():
    provider, session = http_provider([FakeResponse(status_code=400, text="bad request")])
    with pytest.raises(ProviderError) as err:
        provider.complete(req())
    assert not err.value.retryable
    assert len(session.calls) == 1


def test_http_malformed_payload_raises():
    provider, _ = http_provider([FakeResponse(payload={"weird": True})])
    with pytest.raises(ProviderError):
        provider.complete(req())


def test_http_requires_endpoint(monkeypatch):
    monkeypatch.delenv("BEAMQA_ENDPOINT", raising=False)
    with pytest.raises(ValueError):
        HttpChatProvider()


def test_http_reads_endpoint_from_env(monkeypatch):
    monkeypatch.setenv("BEAMQA_ENDPOINT", "http://env.test/chat")
    provider = HttpChatProvider()
    assert provider.endpoint == "http://env.test/chat"


def test_http_null_content_is_a_malformed_payload():
    provider, _ = http_provider([FakeResponse(payload=chat_payload(None))])
    with pytest.raises(ProviderError, match="malformed completion payload") as err:
        provider.complete(req())
    assert not err.value.retryable


def test_http_explicit_settings_win_over_the_environment(monkeypatch):
    monkeypatch.setenv("BEAMQA_MODEL", "env-model")
    monkeypatch.setenv("BEAMQA_TIMEOUT", "99")
    provider, _ = http_provider([], model="gpt-3.5-turbo", timeout=5.0)
    assert (provider.model, provider.timeout) == ("gpt-3.5-turbo", 5.0)


def test_http_environment_fills_unset_settings(monkeypatch):
    monkeypatch.setenv("BEAMQA_MODEL", "env-model")
    monkeypatch.setenv("BEAMQA_TIMEOUT", "99")
    provider, _ = http_provider([])
    assert (provider.model, provider.timeout) == ("env-model", 99.0)


def test_http_defaults_without_environment(monkeypatch):
    monkeypatch.delenv("BEAMQA_MODEL", raising=False)
    monkeypatch.delenv("BEAMQA_TIMEOUT", raising=False)
    provider, _ = http_provider([])
    assert (provider.model, provider.timeout) == ("gpt-3.5-turbo", 30.0)


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
def test_http_timeout_must_be_finite_and_positive(monkeypatch, timeout):
    monkeypatch.setenv("BEAMQA_TIMEOUT", "30")
    with pytest.raises(ValueError, match="^timeout must be a finite number of seconds above 0"):
        http_provider([], timeout=timeout)


@pytest.mark.parametrize("raw", ["0", "-1", "nan", "inf"])
def test_http_timeout_from_the_environment_must_be_finite_and_positive(monkeypatch, raw):
    monkeypatch.setenv("BEAMQA_TIMEOUT", raw)
    with pytest.raises(ValueError, match="^BEAMQA_TIMEOUT must be a finite number of seconds"):
        http_provider([])


# --- HTTP provider inside a search: the engine is the one retry layer ---------


def genread_search(provider):
    config = SearchConfig(evidence_mode="generate_background", max_depth=1, max_queries=1)
    return run_search("who?", config, provider)


def test_search_resends_a_5xx_once_and_counts_one_call(monkeypatch):
    # Every completion is "0.9": two seeds (2 + 3 calls) and two asks that
    # yield no query, so 7 calls; the first POST fails and is sent again.
    monkeypatch.setattr("time.sleep", lambda s: pytest.fail("the first retry must not wait"))
    ok = FakeResponse(payload=chat_payload("0.9"))
    provider, session = http_provider([FakeResponse(status_code=500)] + [ok] * 7)
    result = genread_search(provider)
    assert result.final_answer == "0.9"
    assert result.ledger.api_times == 7
    assert (len(session.calls), session.outcomes) == (8, [])


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize(
    "value, seconds",
    [
        ("7", 7.0), ("0", 0.0), (" 12 ", 12.0), ("Wed, 21 Oct 2015 07:28:00 GMT", None),
        ("1.5", None), ("-1", None), ("soon", None), ("", None), ("\u0663", None), (None, None),
    ],
    ids=["seconds", "zero", "padded", "http-date", "fraction", "negative", "word", "empty", "non-ascii-digit", "absent"],
)
def test_http_retry_after_seconds_ride_on_the_transport_error(status, value, seconds):
    headers = {} if value is None else {"retry-after": value}
    provider, _ = http_provider([FakeResponse(status_code=status, headers=headers)])
    with pytest.raises(TransportError) as err:
        provider.complete(req())
    assert err.value.retry_after == seconds


def test_http_retry_after_is_read_only_on_a_429_or_a_503():
    provider, _ = http_provider([FakeResponse(status_code=500, headers={"Retry-After": "7"})])
    with pytest.raises(TransportError) as err:
        provider.complete(req())
    assert err.value.retry_after is None


def test_search_waits_out_a_retry_after_before_the_retry(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    ok = FakeResponse(payload=chat_payload("0.9"))
    provider, session = http_provider([FakeResponse(status_code=429, headers={"Retry-After": "3"})] + [ok] * 7)
    result = genread_search(provider)
    assert sleeps == [3.0]
    assert result.ledger.api_times == 7
    assert (len(session.calls), session.outcomes) == (8, [])


def test_a_retry_waits_the_longer_of_its_backoff_and_a_capped_retry_after(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    failures = [
        FakeResponse(status_code=429, headers={"Retry-After": "2"}),  # retry 1: no backoff
        FakeResponse(status_code=503, headers={"Retry-After": "0"}),  # retry 2: 0.5 s backoff
        FakeResponse(status_code=429, headers={"Retry-After": "100000"}),
    ]
    provider, session = http_provider(failures + [FakeResponse(payload=chat_payload("0.9"))] * 7)
    config = SearchConfig(evidence_mode="generate_background", max_depth=1, max_queries=1)
    result = SearchRun(config, provider, retries=3).run_search("who?")
    assert sleeps == [2.0, RETRY_BACKOFF_S, MAX_RETRY_AFTER_S]
    assert (result.ledger.api_times, len(session.calls)) == (7, 10)


def test_default_search_posts_each_failing_request_twice(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    provider, session = http_provider([FakeResponse(status_code=503)] * 32)
    with pytest.raises(SearchError, match="HTTP 503"):
        genread_search(provider)
    # Both seeds send their first request, and nothing else is sent.
    posts = Counter(call["json"]["messages"][0]["content"] for call in session.calls)
    assert list(posts.values()) == [2, 2]


def test_script_rule_response_must_be_text():
    with pytest.raises(ValueError, match="response"):
        ScriptRule.from_dict({"response": 0.9})


@pytest.mark.parametrize("count", [-1, "5", True, 1.0])
@pytest.mark.parametrize("field", ["prompt_tokens", "completion_tokens"])
def test_script_rule_token_counts_must_be_ints_at_least_zero(field, count):
    counts = {"prompt_tokens": 1, "completion_tokens": 1, field: count}
    with pytest.raises(ValueError, match=field):
        ScriptRule(response="x", repeat=True, **counts)


@pytest.mark.parametrize(
    "matcher, message",
    [
        ({"contains": 5}, "rule contains"),
        ({"contains": ["alpha", 5]}, "rule contains"),
        ({"exact": 5}, "rule exact"),
        ({"exact": ["the prompt"]}, "rule exact"),
        ({"tag": "score", "ordinal": "1"}, "rule ordinal"),
        ({"tag": "score", "ordinal": 0}, "rule ordinal"),
        ({"tag": "score", "ordinal": 1.0}, "rule ordinal"),
        ({"tag": "score", "ordinal": True}, "rule ordinal"),
        # A truthy string would otherwise answer every request of its tag.
        ({"tag": "answer", "repeat": "false"}, "rule repeat"),
        ({"tag": "answer", "repeat": 1}, "rule repeat"),
    ],
)
def test_rule_with_a_mistyped_matcher_is_rejected_when_built(matcher, message):
    with pytest.raises(ValueError, match=message):
        ScriptRule.from_dict({"response": "x", **matcher})
