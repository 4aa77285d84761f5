"""Completion providers: the request/response contract, a deterministic scripted
provider for tests and fixtures, and an HTTP chat-completion client."""

from __future__ import annotations

import json
import math
import os
import threading
import time
from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass, field
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


class ProviderError(Exception):
    """A completion could not be produced."""

    retryable = False


class TransportError(ProviderError):
    """Transient transport failure (connection, timeout, 429/5xx) after retries."""

    retryable = True


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
    temperature: float = 0.0
    max_output_tokens: int = 256

    def __post_init__(self):
        if not self.prompt or not self.prompt.strip():
            raise ValueError("prompt must be non-empty")
        if self.tag not in REQUEST_TAGS:
            raise ValueError(f"unknown request tag {self.tag!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")


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
    ``repeat`` is set. Explicit token counts mark the response as
    service-reported usage; otherwise usage falls back to the character
    estimate.
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
        if isinstance(self.contains, str):
            self.contains = (self.contains,)
        elif self.contains is not None:
            self.contains = tuple(self.contains)
        if self.ordinal is not None and self.tag is None:
            raise ValueError("ordinal rules need a tag to count against")
        if self.tag is not None and self.tag not in REQUEST_TAGS:
            raise ValueError(f"unknown rule tag {self.tag!r}")

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
        out: dict = {"response": self.response}
        if self.tag is not None:
            out["tag"] = self.tag
        if self.exact is not None:
            out["exact"] = self.exact
        if self.contains is not None:
            out["contains"] = list(self.contains)
        if self.ordinal is not None:
            out["ordinal"] = self.ordinal
        if self.repeat:
            out["repeat"] = True
        if self.prompt_tokens is not None:
            out["prompt_tokens"] = self.prompt_tokens
        if self.completion_tokens is not None:
            out["completion_tokens"] = self.completion_tokens
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ScriptRule":
        known = {
            "response", "tag", "exact", "contains", "ordinal", "repeat",
            "prompt_tokens", "completion_tokens",
        }
        unknown = set(raw) - known
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
                raise ScriptError(
                    f"no scripted response for tag={request.tag!r} ordinal={ordinal}; "
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
    return ScriptedProvider(ScriptRule.from_dict(r) for r in raw["rules"])


@dataclass
class HttpChatProvider(CompletionProvider):
    """JSON chat-completion client: one user message per request.

    Fields left unset fall back to the BEAMQA_ENDPOINT / BEAMQA_API_KEY /
    BEAMQA_MODEL / BEAMQA_TIMEOUT environment variables, then to the
    defaults; an explicit value always wins. Transient transport failures
    (connection errors, timeouts, 429 and 5xx statuses) are retried with
    exponential backoff; other HTTP errors fail immediately.
    """

    endpoint: str | None = None
    api_key: str | None = None
    model: str | None = None
    timeout: float | None = None
    max_retries: int = 3
    backoff_base: float = 0.5
    session: requests.Session | None = field(default=None, repr=False)

    def __post_init__(self):
        self.endpoint = self.endpoint or os.environ.get("BEAMQA_ENDPOINT")
        self.api_key = self.api_key or os.environ.get("BEAMQA_API_KEY")
        if self.model is None:
            self.model = os.environ.get("BEAMQA_MODEL") or "gpt-3.5-turbo"
        if self.timeout is None:
            raw = os.environ.get("BEAMQA_TIMEOUT") or "30"
            try:
                self.timeout = float(raw)
            except ValueError:
                raise ValueError(f"BEAMQA_TIMEOUT must be a number of seconds, got {raw!r}") from None
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
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
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        last_error = "no attempt made"
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff_base * 2 ** (attempt - 1))
            try:
                resp = self.session.post(
                    self.endpoint, json=body, headers=self._headers(), timeout=self.timeout
                )
            except (requests.ConnectionError, requests.Timeout) as err:
                last_error = f"transport failure: {err}"
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}"
                continue
            if resp.status_code != 200:
                raise ProviderError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            return self._parse(request, resp)
        raise TransportError(f"gave up after {self.max_retries + 1} attempts ({last_error})")

    def _parse(self, request: CompletionRequest, resp: requests.Response) -> CompletionResponse:
        try:
            payload = resp.json()
            text = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as err:
            raise ProviderError(f"malformed completion payload: {err}") from err
        if not isinstance(text, str):
            raise ProviderError(f"malformed completion payload: content is {text!r}, not text")
        usage = payload.get("usage") or {}
        pt = usage.get("prompt_tokens")
        ct = usage.get("completion_tokens")
        if isinstance(pt, int) and isinstance(ct, int):
            return CompletionResponse(text, pt, ct, usage_reported=True)
        return CompletionResponse(
            text,
            estimate_tokens(request.prompt),
            estimate_tokens(text),
            usage_reported=False,
        )
