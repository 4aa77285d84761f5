import gzip
import json
import select
import socket
import sys
import threading
from collections import Counter

import pytest

from beamqa.providers import (
    CompletionRequest,
    CompletionResponse,
    HttpChatProvider,
    ProviderError,
    ScriptError,
    ScriptRule,
    ScriptedProvider,
    TransportError,
    _readable,
    estimate_tokens,
    load_script,
)
from beamqa.search import (
    MAX_RETRY_AFTER_S,
    RETRY_BACKOFF_S,
    SearchConfig,
    SearchError,
    SearchRun,
    run_search,
)

from support import DROP, STALL, Reply, chat_reply, harpers_script, rule_dict, save_script, unused_rules


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


def test_whitespace_only_prompt_rejected():
    with pytest.raises(ValueError, match="prompt must be non-empty"):
        CompletionRequest(prompt=" \n\t", tag="answer")


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        CompletionRequest(prompt="x", tag="other")


def test_negative_token_counts_rejected():
    with pytest.raises(ValueError):
        CompletionResponse(text="x", prompt_tokens=-1, completion_tokens=0, usage_reported=False)


def test_zero_token_counts_accepted():
    resp = CompletionResponse(text="x", prompt_tokens=0, completion_tokens=0, usage_reported=True)
    assert (resp.prompt_tokens, resp.completion_tokens) == (0, 0)


# --- scripted provider ----------------------------------------------------


def test_exact_and_contains_rules():
    provider = ScriptedProvider(
        [
            ScriptRule(response="exact hit", exact="the exact prompt"),
            ScriptRule(response="both hit", contains=("alpha", "beta")),
            ScriptRule(response="fallback", tag="answer", repeat=True),
        ]
    )
    assert provider.complete(req(prompt="the exact prompt")).text == "exact hit"
    assert provider.complete(req(prompt="alpha without the other")).text == "fallback"
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


def test_unused_rules_leave_out_repeat_rules():
    never_sent, repeat, sent = (
        ScriptRule(response="never", contains="pong"),
        ScriptRule(response="any time", contains="pang", repeat=True),
        ScriptRule(response="once", contains="ping"),
    )
    provider = ScriptedProvider([never_sent, repeat, sent])
    assert provider.complete(req(prompt="ping")).text == "once"
    assert unused_rules(provider) == [never_sent]


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


@pytest.mark.parametrize(
    "counts, expected",
    [({"prompt_tokens": 200}, (200, 10)), ({"completion_tokens": 90}, (2, 90))],
    ids=["prompt-only", "completion-only"],
)
def test_one_explicit_token_count_is_not_reported_usage(counts, expected):
    # The other count is estimated, so the usage is not what a service reported.
    provider = ScriptedProvider([ScriptRule(response="x" * 40, tag="answer", **counts)])
    resp = provider.complete(req(prompt="p" * 8))
    assert (resp.prompt_tokens, resp.completion_tokens, resp.usage_reported) == (*expected, False)


def test_scripted_provider_is_pure():
    rules = [
        ScriptRule(response="a", tag="answer"),
        ScriptRule(response="b", tag="answer"),
    ]
    outs = []
    for _ in range(2):
        provider = ScriptedProvider([ScriptRule(**rule_dict(r)) for r in rules])
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
        ScriptRule(response="0.8", tag="score"),
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
        ScriptRule(response="a", tag="score", repeat=True),
        ScriptRule(response="b", exact="full", contains=("x", "y"), prompt_tokens=0, completion_tokens=0),
    ]
    assert [ScriptRule.from_dict(rule_dict(r)) for r in rules] == rules
    assert rule_dict(rules[0]) == {"response": "", "tag": "answer"}
    assert rule_dict(rules[2])["contains"] == ["x", "y"]


def test_rule_dict_with_an_unknown_field_is_rejected():
    with pytest.raises(ValueError, match="unknown script rule fields"):
        ScriptRule.from_dict({"response": "a", "temperature": 0.0})


def test_script_file_rejects_bad_shape(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([1, 2]), encoding="utf-8")
    with pytest.raises(ValueError):
        load_script(path)


@pytest.mark.parametrize("rule", [1, "x", None, ["response", "x"]])
def test_script_file_rejects_a_rule_that_is_not_an_object(tmp_path, rule):
    path = tmp_path / "bad.json"
    good = {"response": "a"}
    path.write_text(json.dumps({"rules": [good, rule]}), encoding="utf-8")
    with pytest.raises(ValueError, match=r"rules\[1\] is not an object"):
        load_script(path)


# --- HTTP provider, against a loopback ChatServer ------------------------------


def unserved_provider(**kwargs):
    """A provider built, never called: its endpoint is never contacted."""
    return HttpChatProvider(endpoint="http://svc.test/v1/chat/completions", **kwargs)


def test_http_success_with_usage(chat_server):
    chat_server.replies = [chat_reply("hi", {"prompt_tokens": 12, "completion_tokens": 3})]
    resp = chat_server.provider().complete(req(prompt="say hi"))
    assert (resp.text, resp.prompt_tokens, resp.completion_tokens, resp.usage_reported) == (
        "hi", 12, 3, True,
    )
    [post] = chat_server.posts
    assert post.path == "/v1/chat/completions"
    assert post.json["messages"] == [{"role": "user", "content": "say hi"}]
    assert post.json["model"] == "gpt-3.5-turbo"
    assert (post.json["temperature"], post.json["max_tokens"]) == (0.0, 256)
    assert post.headers["authorization"] == "Bearer sk-test"
    assert post.headers["content-type"] == "application/json"
    # Only an uncompressed body is asked for, so none needs decoding.
    assert post.headers["accept-encoding"] == "identity"


def test_http_zero_usage_is_read_as_reported(chat_server):
    chat_server.replies = [chat_reply("x" * 40, {"prompt_tokens": 0, "completion_tokens": 0})]
    resp = chat_server.provider().complete(req(prompt="p" * 8))
    assert (resp.prompt_tokens, resp.completion_tokens, resp.usage_reported) == (0, 0, True)


def test_http_missing_usage_falls_back_to_estimate(chat_server):
    chat_server.replies = [chat_reply("x" * 40)]
    resp = chat_server.provider().complete(req(prompt="p" * 8))
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
def test_http_malformed_usage_falls_back_to_estimate(chat_server, usage):
    chat_server.replies = [chat_reply("x" * 40, usage)]
    resp = chat_server.provider().complete(req(prompt="p" * 8))
    assert (resp.prompt_tokens, resp.completion_tokens, resp.usage_reported) == (2, 10, False)


@pytest.mark.parametrize(
    "reply",
    [
        Reply(status=500),
        Reply(status=503),
        Reply(status=429),
        DROP,
        STALL,
        # Says 100 bytes, sends 13 and closes.
        Reply(body=b'{"choices": [', headers={"Content-Length": "100"}, close=True),
    ],
    ids=["500", "503", "429", "connection", "timeout", "chunked"],
)
def test_http_transient_failure_is_one_post_raising_transport_error(chat_server, reply):
    chat_server.replies = [reply, chat_reply("ok")]
    provider = chat_server.provider(timeout=0.2)
    with pytest.raises(TransportError):
        provider.complete(req())
    assert len(chat_server.posts) == 1


def test_http_refused_connection_is_a_transport_error(refused_port):
    provider = HttpChatProvider(endpoint=f"http://127.0.0.1:{refused_port}/v1")
    with pytest.raises(TransportError, match="^transport failure: .*refused"):
        provider.complete(req())


def test_http_unrequested_content_encoding_is_a_malformed_payload(chat_server):
    body = gzip.compress(json.dumps(chat_reply("hi").payload).encode())
    chat_server.replies = [Reply(body=body, headers={"Content-Encoding": "gzip"})]
    with pytest.raises(ProviderError, match="malformed completion payload") as err:
        chat_server.provider().complete(req())
    assert not err.value.retryable


def test_http_client_error_fails_fast(chat_server):
    chat_server.replies = [Reply(status=400, body=b"bad request \xc3\xa9\xff")]
    with pytest.raises(ProviderError) as err:
        chat_server.provider().complete(req())
    assert not err.value.retryable
    assert str(err.value) == "HTTP 400: bad request \u00e9\ufffd"
    assert len(chat_server.posts) == 1


def test_http_content_with_a_lone_surrogate_is_a_malformed_payload(chat_server):
    # The reply's JSON holds the escape "\ud800", which decodes to a lone
    # surrogate: text that no trace, output file or terminal can take.
    chat_server.replies = [chat_reply("a\ud800b")]
    with pytest.raises(ProviderError, match="^malformed completion payload: .*lone surrogate") as err:
        chat_server.provider().complete(req())
    assert not err.value.retryable
    assert len(chat_server.posts) == 1


def test_http_malformed_payload_raises(chat_server):
    chat_server.replies = [Reply(payload={"weird": True})]
    with pytest.raises(ProviderError):
        chat_server.provider().complete(req())


def test_http_requires_endpoint(monkeypatch):
    monkeypatch.delenv("BEAMQA_ENDPOINT", raising=False)
    with pytest.raises(ValueError):
        HttpChatProvider()


def test_http_repr_hides_the_api_key():
    provider = unserved_provider(api_key="sk-secret")
    assert provider.api_key == "sk-secret"
    assert "sk-secret" not in repr(provider)


def test_http_reads_endpoint_from_env(monkeypatch):
    monkeypatch.setenv("BEAMQA_ENDPOINT", "http://env.test/chat")
    provider = HttpChatProvider()
    assert provider.endpoint == "http://env.test/chat"


@pytest.mark.parametrize(
    "endpoint",
    ["svc.test/v1", "ftp://svc.test/v1", "http:///v1", "http://svc.test:http/v1", "http://[::1/v1"],
    ids=["no-scheme", "ftp", "no-host", "bad-port", "bad-ipv6"],
)
def test_http_endpoint_must_be_an_http_url_with_a_host(endpoint):
    with pytest.raises(ValueError) as err:
        HttpChatProvider(endpoint=endpoint)
    assert str(err.value) == f"endpoint must be an http:// or https:// URL with a host, got {endpoint!r}"


@pytest.mark.parametrize(
    "path, sent",
    [("/v1/ü", "/v1/%C3%BC"), ("/a b", "/a%20b"), ("/v1/chat?tag=ü b&x=%41", "/v1/chat?tag=%C3%BC%20b&x=%41")],
    ids=["non-ascii", "space", "query"],
)
def test_http_endpoint_path_is_sent_percent_encoded(chat_server, path, sent):
    chat_server.replies = [chat_reply("encoded")]
    provider = chat_server.provider(endpoint=f"http://127.0.0.1:{chat_server.server_port}{path}")
    assert provider.endpoint.endswith(path)
    assert provider.complete(req()).text == "encoded"
    assert [post.path for post in chat_server.posts] == [sent]


@pytest.mark.parametrize("char", ["\t", "\n", "\x00", "\x7f", "\x85"])
def test_http_endpoint_with_a_control_character_is_rejected(char):
    endpoint = f"http://svc.test/v1/{char}chat"
    with pytest.raises(ValueError) as err:
        HttpChatProvider(endpoint=endpoint)
    assert str(err.value) == f"endpoint must not hold a control character, got {endpoint!r}"


def test_http_endpoint_check_ends_at_the_c1_controls():
    # U+009F is the last C1 control; U+00A0, a no-break space, is a character
    # the path percent-encodes.
    with pytest.raises(ValueError, match="control character"):
        HttpChatProvider(endpoint="http://svc.test/v1/\x9fchat")
    assert HttpChatProvider(endpoint="http://svc.test/v1/\xa0chat").endpoint == "http://svc.test/v1/\xa0chat"


def test_http_null_content_is_a_malformed_payload(chat_server):
    chat_server.replies = [chat_reply(None)]
    with pytest.raises(ProviderError, match="malformed completion payload") as err:
        chat_server.provider().complete(req())
    assert not err.value.retryable


def test_http_explicit_settings_win_over_the_environment(monkeypatch):
    monkeypatch.setenv("BEAMQA_MODEL", "env-model")
    monkeypatch.setenv("BEAMQA_TIMEOUT", "99")
    provider = unserved_provider(model="gpt-3.5-turbo", timeout=5.0)
    assert (provider.model, provider.timeout) == ("gpt-3.5-turbo", 5.0)


def test_http_environment_fills_unset_settings(monkeypatch):
    monkeypatch.setenv("BEAMQA_MODEL", "env-model")
    monkeypatch.setenv("BEAMQA_TIMEOUT", "99")
    provider = unserved_provider()
    assert (provider.model, provider.timeout) == ("env-model", 99.0)


def test_http_defaults_without_environment(monkeypatch):
    monkeypatch.delenv("BEAMQA_MODEL", raising=False)
    monkeypatch.delenv("BEAMQA_TIMEOUT", raising=False)
    provider = unserved_provider()
    assert (provider.model, provider.timeout) == ("gpt-3.5-turbo", 30.0)


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
def test_http_timeout_must_be_finite_and_positive(monkeypatch, timeout):
    monkeypatch.setenv("BEAMQA_TIMEOUT", "30")
    with pytest.raises(ValueError, match="^timeout must be a finite number of seconds above 0"):
        unserved_provider(timeout=timeout)


@pytest.mark.parametrize("raw", ["0", "-1", "nan", "inf"])
def test_http_timeout_from_the_environment_must_be_finite_and_positive(monkeypatch, raw):
    monkeypatch.setenv("BEAMQA_TIMEOUT", raw)
    with pytest.raises(ValueError, match="^BEAMQA_TIMEOUT must be a finite number of seconds"):
        unserved_provider()


# --- HTTP connections: kept alive, shared, replaced, proxied -------------------


def test_http_calls_reuse_one_connection(chat_server):
    chat_server.replies = [chat_reply("one"), chat_reply("two")]
    provider = chat_server.provider()
    assert [provider.complete(req()).text for _ in range(2)] == ["one", "two"]
    assert (len(chat_server.posts), chat_server.connections) == (2, 1)


def test_http_connection_closed_while_idle_is_replaced_without_a_retry(chat_server):
    chat_server.replies = [chat_reply("one", close=True), chat_reply("two")]
    provider = chat_server.provider()
    assert provider.complete(req()).text == "one"
    assert chat_server.closed.acquire(timeout=5)
    # The provider itself never retries, so a stale connection would fail here.
    assert provider.complete(req()).text == "two"
    assert (len(chat_server.posts), chat_server.connections) == (2, 2)


def test_readable_falls_back_to_select_without_poll(monkeypatch):
    # Not every platform's select module has poll().
    monkeypatch.delattr(select, "poll")
    ours, theirs = socket.socketpair()
    with ours, theirs:
        assert not _readable(ours)
        theirs.sendall(b"x")
        assert _readable(ours)


def test_pooled_search_over_http_matches_serial_and_shares_connections(chat_server):
    built, index, config = harpers_script()
    script = ScriptedProvider(
        ScriptRule(**{**rule_dict(rule), "tag": None, "repeat": True}) for rule in built.rules
    )

    def respond(post):
        resp = script.complete(req(prompt=post.json["messages"][0]["content"]))
        usage = {"prompt_tokens": resp.prompt_tokens, "completion_tokens": resp.completion_tokens}
        return chat_reply(resp.text, usage if resp.usage_reported else None)

    chat_server.respond = respond
    serial = run_search(built.question, config, chat_server.provider(), index=index, workers=1)
    assert serial.final_answer == built.final_answer
    opened = chat_server.connections
    provider = chat_server.provider()
    for _ in range(2):
        pooled = run_search(built.question, config, provider, index=index, workers=4)
        assert pooled.trace_lines() == serial.trace_lines()
        assert pooled.ledger == serial.ledger
    assert chat_server.connections - opened <= 4


def test_http_threads_never_share_a_connection(chat_server):
    # Each reply echoes its prompt: two threads on one connection would read
    # each other's replies, or fail on an interleaved exchange.
    chat_server.respond = lambda post: chat_reply(post.json["messages"][0]["content"])
    provider = chat_server.provider()
    texts: dict[int, list[str]] = {}

    def worker(i):
        texts[i] = [provider.complete(req(prompt=f"thread {i} call {n}")).text for n in range(20)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert texts == {i: [f"thread {i} call {n}" for n in range(20)] for i in range(8)}
    assert chat_server.connections <= 8


def test_http_proxy_gets_the_request_in_absolute_form(chat_server, monkeypatch):
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{chat_server.server_port}")
    chat_server.replies = [chat_reply("proxied")]
    provider = chat_server.provider(endpoint="http://svc.test/v1/chat/completions?v=2")
    assert provider.complete(req()).text == "proxied"
    [post] = chat_server.posts
    assert (post.path, post.headers["host"]) == ("http://svc.test/v1/chat/completions?v=2", "svc.test")


def test_http_proxy_gets_the_percent_encoded_url(chat_server, monkeypatch):
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{chat_server.server_port}")
    chat_server.replies = [chat_reply("proxied")]
    provider = chat_server.provider(endpoint="http://svc.test/v1/ü b")
    assert provider.complete(req()).text == "proxied"
    assert [post.path for post in chat_server.posts] == ["http://svc.test/v1/%C3%BC%20b"]


def test_https_proxy_is_asked_for_a_tunnel(chat_server, monkeypatch):
    monkeypatch.setenv("HTTPS_PROXY", f"127.0.0.1:{chat_server.server_port}")
    provider = chat_server.provider(endpoint="https://svc.test/v1/chat/completions")
    with pytest.raises(TransportError, match="403"):
        provider.complete(req())
    assert (chat_server.tunnels, chat_server.posts) == (["svc.test:443"], [])


def test_http_proxy_that_is_not_an_http_url_fails_the_call(chat_server, monkeypatch):
    monkeypatch.setenv("HTTP_PROXY", f"socks5://127.0.0.1:{chat_server.server_port}")
    with pytest.raises(ProviderError, match="^http proxy 'socks5://.*' is not an http:// URL") as err:
        chat_server.provider().complete(req())
    assert not err.value.retryable
    assert chat_server.connections == 0


def test_http_proxy_without_a_port_is_dialled_on_port_80(monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", "http://proxy.test")
    # _connect builds the connection without opening it.
    conn, target = HttpChatProvider(endpoint="http://svc.test:8080/v1/chat")._connect()
    try:
        assert (conn.host, conn.port, target) == ("proxy.test", 80, "http://svc.test:8080/v1/chat")
    finally:
        conn.close()


def test_http_no_proxy_host_is_reached_directly(chat_server, monkeypatch, refused_port):
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{refused_port}")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    chat_server.replies = [chat_reply("direct")]
    assert chat_server.provider().complete(req()).text == "direct"
    assert chat_server.posts[0].path == "/v1/chat/completions"


# --- HTTP provider inside a search: the engine is the one retry layer ---------


def genread_search(provider):
    config = SearchConfig(evidence_mode="generate_background", max_depth=1, max_queries=1)
    return run_search("who?", config, provider)


def test_search_resends_a_5xx_once_and_counts_one_call(chat_server, monkeypatch):
    # Every completion is "0.9": two seeds (2 + 3 calls) and two asks that
    # yield no query, so 7 calls; the first POST fails and is sent again.
    monkeypatch.setattr("time.sleep", lambda s: pytest.fail("the first retry must not wait"))
    chat_server.replies = [Reply(status=500)] + [chat_reply("0.9")] * 7
    result = genread_search(chat_server.provider())
    assert result.final_answer == "0.9"
    assert result.ledger.api_times == 7
    assert (len(chat_server.posts), chat_server.replies) == (8, [])


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize(
    "value, seconds",
    [
        ("7", 7.0), ("0", 0.0), (" 12 ", 12.0), ("Wed, 21 Oct 2015 07:28:00 GMT", None),
        ("1.5", None), ("-1", None), ("soon", None), ("", None), ("\u0663", None), (None, None),
    ],
    ids=["seconds", "zero", "padded", "http-date", "fraction", "negative", "word", "empty", "non-ascii-digit", "absent"],
)
def test_http_retry_after_seconds_ride_on_the_transport_error(chat_server, status, value, seconds):
    headers = {} if value is None else {"retry-after": value}
    chat_server.replies = [Reply(status=status, headers=headers)]
    with pytest.raises(TransportError) as err:
        chat_server.provider().complete(req())
    assert err.value.retry_after == seconds


def test_http_retry_after_is_read_only_on_a_429_or_a_503(chat_server):
    chat_server.replies = [Reply(status=500, headers={"Retry-After": "7"})]
    with pytest.raises(TransportError) as err:
        chat_server.provider().complete(req())
    assert err.value.retry_after is None


def test_search_waits_out_a_retry_after_before_the_retry(chat_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    chat_server.replies = [Reply(status=429, headers={"Retry-After": "3"})] + [chat_reply("0.9")] * 7
    result = genread_search(chat_server.provider())
    assert sleeps == [3.0]
    assert result.ledger.api_times == 7
    assert (len(chat_server.posts), chat_server.replies) == (8, [])


def test_a_retry_waits_the_longer_of_its_backoff_and_a_capped_retry_after(chat_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    chat_server.replies = [
        Reply(status=429, headers={"Retry-After": "2"}),  # retry 1: no backoff
        Reply(status=503, headers={"Retry-After": "0"}),  # retry 2: 0.5 s backoff
        Reply(status=429, headers={"Retry-After": "100000"}),
    ] + [chat_reply("0.9")] * 7
    config = SearchConfig(evidence_mode="generate_background", max_depth=1, max_queries=1)
    result = SearchRun(config, chat_server.provider(), retries=3).run_search("who?")
    assert sleeps == [2.0, RETRY_BACKOFF_S, MAX_RETRY_AFTER_S]
    assert (result.ledger.api_times, len(chat_server.posts)) == (7, 10)


def test_default_search_posts_each_failing_request_twice(chat_server, monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    chat_server.respond = lambda post: Reply(status=503)
    with pytest.raises(SearchError, match="HTTP 503"):
        genread_search(chat_server.provider())
    # Both seeds send their first request, and nothing else is sent.
    posts = Counter(post.json["messages"][0]["content"] for post in chat_server.posts)
    assert list(posts.values()) == [2, 2]


def test_script_rule_response_must_be_text():
    with pytest.raises(ValueError, match="response"):
        ScriptRule.from_dict({"response": 0.9})
    with pytest.raises(ValueError, match="missing 'response'"):
        ScriptRule.from_dict({"tag": "answer"})
    with pytest.raises(ValueError, match="rule response holds a lone surrogate"):
        ScriptRule.from_dict({"response": "a\ud800b"})


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
        # A truthy string would otherwise answer every request of its tag.
        ({"tag": "answer", "repeat": "false"}, "rule repeat"),
        ({"tag": "answer", "repeat": 1}, "rule repeat"),
        ({"tag": "other"}, "unknown rule tag"),
    ],
)
def test_rule_with_a_mistyped_matcher_is_rejected_when_built(matcher, message):
    with pytest.raises(ValueError, match=message):
        ScriptRule.from_dict({"response": "x", **matcher})
