"""Completion providers: the request/response contract, a deterministic scripted
provider for tests and fixtures, and an HTTP chat-completion client."""

from __future__ import annotations

import json
import math
import os
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable
from urllib.parse import quote, urlsplit, urlunsplit

# Which engine function issued a request; every request carries one.
TAG_ANSWER = "answer"
TAG_ASK = "ask"
TAG_SUMMARIZE = "summarize"
TAG_GENREAD = "genread"
TAG_SCORE = "score"
REQUEST_TAGS = (TAG_ANSWER, TAG_ASK, TAG_SUMMARIZE, TAG_GENREAD, TAG_SCORE)

# Completion length cap of every HTTP request; requests are sent at temperature 0.
MAX_OUTPUT_TOKENS = 256

# What an endpoint's path and query keep as they are when percent-encoded:
# the URL delimiters and an escape already made (the set ``requests`` keeps).
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"


class ProviderError(Exception):
    """A completion could not be produced."""

    retryable = False
    # Seconds the service asked the caller to wait before sending it again.
    retry_after: float | None = None


class TransportError(ProviderError):
    """Transient transport failure (connection, timeout, 429/5xx); worth retrying."""

    retryable = True

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ScriptError(ProviderError):
    """A scripted provider received a request no rule matches."""


def valid_unicode(text: str) -> bool:
    """Whether ``text`` holds no lone surrogate, which a JSON ``\\ud800``
    escape decodes to and which cannot be written out as UTF-8."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def estimate_tokens(text: str) -> int:
    """Rough token count for services that report no usage: ceil(chars / 4)."""
    return math.ceil(len(text) / 4)


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    tag: str

    def __post_init__(self):
        if not self.prompt or not self.prompt.strip():
            raise ValueError("prompt must be non-empty")
        if self.tag not in REQUEST_TAGS:
            raise ValueError(f"unknown request tag {self.tag!r}")


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int
    usage_reported: bool

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be non-negative")


class CompletionProvider(ABC):
    """Contract every provider implements; must tolerate concurrent calls."""

    @abstractmethod
    def complete(self, request: CompletionRequest) -> CompletionResponse:
        """Produce the completion for one self-contained prompt."""

    def close(self) -> None:
        """Release what the provider holds open; the default holds nothing."""


@dataclass
class ScriptRule:
    """One (matcher, response) pair of a scripted provider.

    A rule applies when all set matchers agree: ``tag`` restricts to requests
    with that tag, ``exact`` requires the full prompt, ``contains`` requires
    every listed substring. Rules are consumed on first use unless ``repeat``
    is set, so rules that share matchers answer in list order. Explicit
    token counts, ints >= 0, mark the response as service-reported usage;
    otherwise usage falls back to the character estimate. A matcher or
    ``repeat`` of the wrong type, or a response holding a lone surrogate, is
    rejected when the rule is built, so a loaded script never holds a rule
    that cannot match, that repeats by accident or whose answer cannot be
    written out.
    """

    response: str
    tag: str | None = None
    exact: str | None = None
    contains: tuple[str, ...] | None = None
    repeat: bool = False
    prompt_tokens: int | None = None
    completion_tokens: int | None = None

    def __post_init__(self):
        if not isinstance(self.response, str):
            raise ValueError(f"rule response must be a string, got {self.response!r}")
        if not valid_unicode(self.response):
            raise ValueError(f"rule response holds a lone surrogate: {self.response[:80]!r}")
        if self.exact is not None and not isinstance(self.exact, str):
            raise ValueError(f"rule exact must be a string, got {self.exact!r}")
        contains = (self.contains,) if isinstance(self.contains, str) else self.contains
        if contains is not None:
            if not isinstance(contains, (list, tuple)) or not all(isinstance(s, str) for s in contains):
                raise ValueError(f"rule contains must be strings, got {self.contains!r}")
            self.contains = tuple(contains)
        if self.tag is not None and self.tag not in REQUEST_TAGS:
            raise ValueError(f"unknown rule tag {self.tag!r}")
        if type(self.repeat) is not bool:
            raise ValueError(f"rule repeat must be true or false, got {self.repeat!r}")
        for name in ("prompt_tokens", "completion_tokens"):
            count = getattr(self, name)
            if count is not None and not (type(count) is int and count >= 0):
                raise ValueError(f"rule {name} must be an int >= 0, got {count!r}")

    def matches(self, request: CompletionRequest) -> bool:
        if self.tag is not None and request.tag != self.tag:
            return False
        if self.exact is not None and request.prompt != self.exact:
            return False
        if self.contains is not None and not all(s in request.prompt for s in self.contains):
            return False
        return True

    @classmethod
    def from_dict(cls, raw: dict) -> "ScriptRule":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown script rule fields: {sorted(unknown)}")
        if "response" not in raw:
            raise ValueError("script rule is missing 'response'")
        return cls(**raw)


class ScriptedProvider(CompletionProvider):
    """Deterministic provider that answers from an ordered rule list.

    Each request takes the first unused rule whose matchers all agree, so
    rules that share matchers answer in list order. Matching is serialized
    so the provider stays deterministic under concurrent use whenever the
    rule set maps each request to exactly one rule (exact or content
    rules). A rule that several requests can match answers whichever
    arrives first, which only serial callers fix. Never retries.
    """

    def __init__(self, rules: Iterable[ScriptRule]):
        self._rules = list(rules)
        self._used = [False] * len(self._rules)
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        with self._lock:
            chosen = None
            for i, rule in enumerate(self._rules):
                if self._used[i] and not rule.repeat:
                    continue
                if rule.matches(request):
                    self._used[i] = True
                    chosen = rule
                    break
            if chosen is None:
                # Names only what the request carries, not which rules are
                # used up: that depends on arrival order, and the message
                # ends up in traces.
                raise ScriptError(
                    f"no scripted response for tag={request.tag!r}; "
                    f"prompt starts: {request.prompt[:160]!r}"
                )
        reported = chosen.prompt_tokens is not None and chosen.completion_tokens is not None
        pt = chosen.prompt_tokens if chosen.prompt_tokens is not None else estimate_tokens(request.prompt)
        ct = (
            chosen.completion_tokens
            if chosen.completion_tokens is not None
            else estimate_tokens(chosen.response)
        )
        return CompletionResponse(chosen.response, pt, ct, usage_reported=reported)


def load_script(path: str | Path) -> ScriptedProvider:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except OSError as err:
        # Quoted, so that an empty name (read as the directory ".") shows.
        raise OSError(f"script file {str(path)!r}: cannot be read ({err.strerror})") from err
    except UnicodeDecodeError as err:
        # read_text decodes the whole file at once, so err.start is its offset.
        raise ValueError(
            f"script file {path}: not UTF-8 (byte {err.object[err.start]:#04x} at offset {err.start})"
        ) from err
    except json.JSONDecodeError as err:
        raise ValueError(f"script file {path}: invalid JSON ({err})") from err
    if not isinstance(raw, dict) or not isinstance(raw.get("rules"), list):
        raise ValueError(f"script file {path} must contain an object with a 'rules' list")
    for position, rule in enumerate(raw["rules"]):
        if not isinstance(rule, dict):
            raise ValueError(f"script file {path}: rules[{position}] is not an object")
    return ScriptedProvider(ScriptRule.from_dict(r) for r in raw["rules"])


@dataclass
class HttpChatProvider(CompletionProvider):
    """JSON chat-completion client: one user message per request.

    Fields left unset fall back to the BEAMQA_ENDPOINT / BEAMQA_API_KEY /
    BEAMQA_MODEL / BEAMQA_TIMEOUT environment variables, then to the
    defaults; an explicit value always wins. The endpoint must be an
    ``http://`` or ``https://`` URL with a host and no control character;
    any other character of its path and query that a URL may not hold,
    such as a space or a non-ASCII letter, is percent-encoded as UTF-8
    (``/v1/ü`` is sent as ``/v1/%C3%BC``). Each call is one POST: a
    connection error, a timeout, a body cut off, a 429 or a 5xx status
    raises the retryable ``TransportError``, any other failure a plain
    ``ProviderError``. On a 429 or a 503 the error carries the
    ``Retry-After`` delay, when the service gives one in seconds. Retrying
    is the caller's decision (``SearchRun(retries=...)``).

    Connections are kept alive and shared by every calling thread: a call
    takes an idle one, or opens one, and puts it back once the whole
    response is read; any failure closes it. ``close()`` closes the idle
    ones. ``HTTP_PROXY``/``HTTPS_PROXY`` and ``NO_PROXY`` are honoured, and
    TLS verifies against the system's certificates (or ``SSL_CERT_FILE``).
    """

    endpoint: str | None = None
    api_key: str | None = field(default=None, repr=False)  # a secret: never in logs
    model: str | None = None
    timeout: float | None = None
    # The endpoint with its path and query percent-encoded, as it is sent.
    _url: str = field(default="", init=False, repr=False, compare=False)
    # Idle keep-alive connections, each with the request target it sends to.
    _idle: list = field(default_factory=list, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.endpoint = self.endpoint or os.environ.get("BEAMQA_ENDPOINT")
        self.api_key = self.api_key or os.environ.get("BEAMQA_API_KEY")
        if self.model is None:
            self.model = os.environ.get("BEAMQA_MODEL") or "gpt-3.5-turbo"
        source = "timeout"
        if self.timeout is None:
            source, raw = "BEAMQA_TIMEOUT", os.environ.get("BEAMQA_TIMEOUT") or "30"
            try:
                self.timeout = float(raw)
            except ValueError:
                raise ValueError(f"{source} must be a number of seconds, got {raw!r}") from None
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(
                f"{source} must be a finite number of seconds above 0, got {self.timeout!r}"
            )
        if not self.endpoint:
            raise ValueError("no endpoint configured (flag, constructor, or BEAMQA_ENDPOINT)")
        # C0, DEL and C1 controls; checked before parsing, which would drop
        # tabs and line breaks without a word.
        if any(ord(c) < 32 or 127 <= ord(c) < 160 for c in self.endpoint):
            raise ValueError(f"endpoint must not hold a control character, got {self.endpoint!r}")
        try:
            parts = urlsplit(self.endpoint)
            parts.port  # raises unless the port is a number from 0 to 65535
        except ValueError:
            parts = None
        if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(
                f"endpoint must be an http:// or https:// URL with a host, got {self.endpoint!r}"
            )
        self._url = urlunsplit(parts._replace(
            path=quote(parts.path, safe=_URL_SAFE), query=quote(parts.query, safe=_URL_SAFE)
        ))

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": 0.0,
            "max_tokens": MAX_OUTPUT_TOKENS,
        }
        status, retry_after, data = self._post(json.dumps(body).encode("utf-8"))
        if status in (429, 503):
            raise TransportError(f"HTTP {status}", _retry_after(retry_after))
        if status >= 500:
            raise TransportError(f"HTTP {status}")
        if status != 200:
            raise ProviderError(f"HTTP {status}: {data.decode('utf-8', errors='replace')[:200]}")
        return self._parse(request, data)

    def close(self) -> None:
        """Close every idle connection; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn, _ in idle:
            conn.close()

    def _post(self, body: bytes) -> tuple[int, str | None, bytes]:
        """Send one POST and read the whole response: its status, its
        ``Retry-After`` header and its body."""
        from http.client import HTTPException

        conn, target = self._idle_connection() or self._connect()
        keep = False
        try:
            conn.request("POST", target, body, self._headers())
            resp = conn.getresponse()
            data = resp.read()
            keep = not resp.will_close
        except (OSError, HTTPException) as err:
            # Refused, reset, timed out, DNS or TLS (all OSError), or a
            # response cut off or never sent (HTTPException).
            raise TransportError(f"transport failure: {err}") from err
        finally:
            if keep:
                with self._lock:
                    self._idle.append((conn, target))
            else:
                conn.close()
        return resp.status, resp.getheader("Retry-After"), data

    def _idle_connection(self):
        """An idle connection with its request target, or None. A socket
        that polls readable while idle was closed by the server (or holds
        bytes nobody asked for): that connection is closed, not reused, so
        a stale keep-alive never costs a retry."""
        while True:
            with self._lock:
                if not self._idle:
                    return None
                conn, target = self._idle.pop()
            if not _readable(conn.sock):
                return conn, target
            conn.close()

    def _connect(self):
        """A new connection to the endpoint, or to the proxy that
        ``HTTP_PROXY``/``HTTPS_PROXY`` names for its scheme unless
        ``NO_PROXY`` exempts its host, with the request target to send it.
        An ``http://`` endpoint is sent through its proxy in absolute form;
        an ``https://`` one is tunnelled with CONNECT."""
        # Imported here, not with the package, so that a process which never
        # opens a connection never loads the network stack.
        import http.client
        import ssl
        import urllib.request

        parts = urlsplit(self._url)
        host, port = parts.hostname, parts.port
        target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
        proxy = urllib.request.getproxies().get(parts.scheme)
        tunnel = None
        if proxy and not urllib.request.proxy_bypass(host):
            via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if via.scheme != "http" or not via.hostname:
                raise ProviderError(
                    f"{parts.scheme} proxy {proxy!r} is not an http:// URL with a host"
                )
            if parts.scheme == "https":
                tunnel = (host, port)
            else:
                target = urlunsplit(parts._replace(fragment=""))
            host, port = via.hostname, via.port or 80
        if parts.scheme == "https":
            conn = http.client.HTTPSConnection(
                host, port, timeout=self.timeout, context=ssl.create_default_context()
            )
        else:
            conn = http.client.HTTPConnection(host, port, timeout=self.timeout)
        if tunnel:
            conn.set_tunnel(*tunnel)
        return conn, target

    def _parse(self, request: CompletionRequest, data: bytes) -> CompletionResponse:
        try:
            payload = json.loads(data)
            text = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as err:
            raise ProviderError(f"malformed completion payload: {err}") from err
        if not isinstance(text, str):
            raise ProviderError(f"malformed completion payload: content is {text!r}, not text")
        if not valid_unicode(text):
            raise ProviderError("malformed completion payload: content holds a lone surrogate")
        # Usage counts only when both are non-negative ints (not bools); any
        # other shape is treated as unreported and estimated instead.
        usage = payload.get("usage")
        if isinstance(usage, dict):
            pt, ct = usage.get("prompt_tokens"), usage.get("completion_tokens")
            if type(pt) is int and type(ct) is int and pt >= 0 and ct >= 0:
                return CompletionResponse(text, pt, ct, usage_reported=True)
        return CompletionResponse(
            text,
            estimate_tokens(request.prompt),
            estimate_tokens(text),
            usage_reported=False,
        )


def _readable(sock) -> bool:
    """Whether ``sock`` has data or end-of-file waiting, without blocking."""
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _retry_after(value: str | None) -> float | None:
    """The seconds of a ``Retry-After`` header in its delay-seconds form, a
    run of ASCII digits (RFC 9110, section 10.2.3). The HTTP-date form and
    anything malformed give ``None``."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None
