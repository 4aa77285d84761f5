"""Completion providers: the request/response contract, a deterministic scripted
provider for tests and fixtures, and an HTTP chat-completion client."""

from __future__ import annotations

import json
import math
import os
import threading
from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import requests

# Which engine function issued a request; every request carries one.
TAG_ANSWER = "answer"
TAG_ASK = "ask"
TAG_SUMMARIZE = "summarize"
TAG_GENREAD = "genread"
TAG_SCORE = "score"
REQUEST_TAGS = (TAG_ANSWER, TAG_ASK, TAG_SUMMARIZE, TAG_GENREAD, TAG_SCORE)

# Completion length cap of every HTTP request; requests are sent at temperature 0.
MAX_OUTPUT_TOKENS = 256


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


def estimate_tokens(text: str) -> int:
    """Rough token count for services that report no usage: ceil(chars / 4)."""
    if not text:
        return 0
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


@dataclass
class ScriptRule:
    """One (matcher, response) pair of a scripted provider.

    A rule applies when all set matchers agree: ``tag`` restricts to requests
    with that tag, ``exact`` requires the full prompt, ``contains`` requires
    every listed substring, ``ordinal`` requires the request to be the n-th
    (1-based) carrying the rule's tag. Rules are consumed on first use unless
    ``repeat`` is set. Explicit token counts, ints >= 0, mark the response
    as service-reported usage; otherwise usage falls back to the character
    estimate. A matcher or ``repeat`` of the wrong type is rejected when
    the rule is built, so a loaded script never holds a rule that cannot
    match or that repeats by accident.
    """

    response: str
    tag: str | None = None
    exact: str | None = None
    contains: tuple[str, ...] | None = None
    ordinal: int | None = None
    repeat: bool = False
    prompt_tokens: int | None = None
    completion_tokens: int | None = None

    def __post_init__(self):
        if not isinstance(self.response, str):
            raise ValueError(f"rule response must be a string, got {self.response!r}")
        if self.exact is not None and not isinstance(self.exact, str):
            raise ValueError(f"rule exact must be a string, got {self.exact!r}")
        contains = (self.contains,) if isinstance(self.contains, str) else self.contains
        if contains is not None:
            if not isinstance(contains, (list, tuple)) or not all(isinstance(s, str) for s in contains):
                raise ValueError(f"rule contains must be strings, got {self.contains!r}")
            self.contains = tuple(contains)
        if self.ordinal is not None:
            if not (type(self.ordinal) is int and self.ordinal >= 1):
                raise ValueError(f"rule ordinal must be an int >= 1, got {self.ordinal!r}")
            if self.tag is None:
                raise ValueError("ordinal rules need a tag to count against")
        if self.tag is not None and self.tag not in REQUEST_TAGS:
            raise ValueError(f"unknown rule tag {self.tag!r}")
        if type(self.repeat) is not bool:
            raise ValueError(f"rule repeat must be true or false, got {self.repeat!r}")
        for name in ("prompt_tokens", "completion_tokens"):
            count = getattr(self, name)
            if count is not None and not (type(count) is int and count >= 0):
                raise ValueError(f"rule {name} must be an int >= 0, got {count!r}")

    def matches(self, request: CompletionRequest, tag_ordinal: int) -> bool:
        if self.tag is not None and request.tag != self.tag:
            return False
        if self.exact is not None and request.prompt != self.exact:
            return False
        if self.contains is not None and not all(s in request.prompt for s in self.contains):
            return False
        if self.ordinal is not None and tag_ordinal != self.ordinal:
            return False
        return True

    def as_dict(self) -> dict:
        """The set fields: unset (``None``) ones and ``repeat=False`` are left out."""
        out = {k: v for k, v in asdict(self).items() if v is not None and v is not False}
        if "contains" in out:
            out["contains"] = list(self.contains)
        return out

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

    Matching is serialized so the provider stays deterministic under
    concurrent use whenever the rule set maps each request to exactly one
    rule (exact or content rules). Ordinal rules depend on arrival order and
    are only deterministic for serial callers. Never retries.
    """

    def __init__(self, rules: Iterable[ScriptRule]):
        self._rules = list(rules)
        self._used = [False] * len(self._rules)
        self._tag_counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        with self._lock:
            self._tag_counts[request.tag] += 1
            ordinal = self._tag_counts[request.tag]
            chosen = None
            for i, rule in enumerate(self._rules):
                if self._used[i] and not rule.repeat:
                    continue
                if rule.matches(request, ordinal):
                    self._used[i] = True
                    chosen = rule
                    break
            if chosen is None:
                # Names only what the request carries: the ordinal depends on
                # arrival order, and the message ends up in traces.
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

    def unused_rules(self) -> list[ScriptRule]:
        """Rules never consumed; handy for asserting a fixture was exercised."""
        with self._lock:
            return [r for r, used in zip(self._rules, self._used) if not used and not r.repeat]


def save_script(rules: Sequence[ScriptRule], path: str | Path) -> None:
    payload = {"rules": [r.as_dict() for r in rules]}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_script(path: str | Path) -> ScriptedProvider:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
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
    defaults; an explicit value always wins. Each call is one POST: a
    connection error, a timeout, a 429 or a 5xx status raises the retryable
    ``TransportError``, any other failure a plain ``ProviderError``. On a 429
    or a 503 the error carries the ``Retry-After`` delay, when the service
    gives one in seconds. Retrying is the caller's decision
    (``SearchRun(retries=...)``).
    """

    endpoint: str | None = None
    api_key: str | None = None
    model: str | None = None
    timeout: float | None = None
    session: requests.Session | None = field(default=None, repr=False)

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
        if self.session is None:
            self.session = requests.Session()

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
        try:
            resp = self.session.post(
                self.endpoint, json=body, headers=self._headers(), timeout=self.timeout
            )
        except (
            requests.ConnectionError,
            requests.Timeout,
            # A body cut off mid-transfer, or one that fails to decompress.
            requests.exceptions.ChunkedEncodingError,
            requests.exceptions.ContentDecodingError,
        ) as err:
            raise TransportError(f"transport failure: {err}") from err
        if resp.status_code in (429, 503):
            raise TransportError(f"HTTP {resp.status_code}", _retry_after(resp.headers.get("Retry-After")))
        if resp.status_code >= 500:
            raise TransportError(f"HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise ProviderError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        return self._parse(request, resp)

    def _parse(self, request: CompletionRequest, resp: requests.Response) -> CompletionResponse:
        try:
            payload = resp.json()
            text = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as err:
            raise ProviderError(f"malformed completion payload: {err}") from err
        if not isinstance(text, str):
            raise ProviderError(f"malformed completion payload: content is {text!r}, not text")
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


def _retry_after(value: str | None) -> float | None:
    """The seconds of a ``Retry-After`` header in its delay-seconds form, a
    run of ASCII digits (RFC 9110, section 10.2.3). The HTTP-date form and
    anything malformed give ``None``."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None
