"""The five prompt templates and the parsers that turn raw completions into
typed values (ranked question lists, confidence scores)."""

from __future__ import annotations

import math
import re
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

# (query, evidence_text) pairs; the reasoning history a prompt is built over.
HistoryPairs = Sequence[tuple[str, str]]

# Each template's name and the placeholders it may use.
_TEMPLATE_FIELDS = {
    "answer": ("history", "question"),
    "ask": ("history", "k", "question"),
    "summarize": ("document", "question"),
    "genread": ("question",),
    "score": ("answer", "history", "question"),
}


class ScoreParseError(ValueError):
    """Raised when a completion contains no numeric confidence."""


def load_templates(directory: str | Path | None = None) -> Mapping[str, str]:
    """The five templates as a read-only name -> text mapping. A ``<name>.txt``
    in ``directory`` overrides that template, and a missing one keeps the
    embedded text. A bad directory or template raises ValueError."""
    if directory is not None and not Path(directory).is_dir():
        raise ValueError(f"template directory not found: {directory}")
    embedded = resources.files(__package__) / "templates"
    templates = {}
    for name, fields in _TEMPLATE_FIELDS.items():
        source = embedded / f"{name}.txt"
        if directory is not None and (Path(directory) / f"{name}.txt").exists():
            source = Path(directory) / f"{name}.txt"
        try:
            text = source.read_text(encoding="utf-8").rstrip("\n")
        except UnicodeDecodeError as err:
            # read_text decodes the whole file at once, so err.start is its offset.
            raise ValueError(
                f"template {source}: not UTF-8 (byte {err.object[err.start]:#04x} at offset {err.start})"
            ) from err
        # Render once, as a seed with an empty history, so that a bad
        # placeholder or brace or a blank prompt fails before any call.
        try:
            rendered = text.format(**{key: {"k": 1, "history": ""}.get(key, key) for key in fields})
        except KeyError as err:
            raise ValueError(f"template {source}: unknown placeholder {{{err.args[0]}}}") from err
        except (AttributeError, IndexError, TypeError, ValueError) as err:
            raise ValueError(f"template {source}: {err}") from err
        if not rendered.strip():
            raise ValueError(f"template {source}: renders a blank prompt when the history is empty")
        templates[name] = text
    return MappingProxyType(templates)


EMBEDDED_TEMPLATES = load_templates()


def serialize_history(history: HistoryPairs) -> str:
    """Fixed "Query:/Evidence:" block, one pair per two lines, insertion order.

    An empty history renders as the empty string so direct-answer prompts keep
    an empty pair block.
    """
    return "\n".join(f"Query: {q}\nEvidence: {e}" for q, e in history)


def _require_text(value: str, what: str) -> None:
    if not value or not value.strip():
        raise ValueError(f"{what} must be non-empty")


def render_answer_prompt(
    question: str, history: HistoryPairs, *, templates: Mapping[str, str] = EMBEDDED_TEMPLATES
) -> str:
    _require_text(question, "question")
    return templates["answer"].format(history=serialize_history(history), question=question)


def render_ask_prompt(
    question: str, history: HistoryPairs, k: int, *, templates: Mapping[str, str] = EMBEDDED_TEMPLATES
) -> str:
    _require_text(question, "question")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return templates["ask"].format(history=serialize_history(history), question=question, k=k)


def render_summarize_prompt(
    original_question: str, docs_text: str, *, templates: Mapping[str, str] = EMBEDDED_TEMPLATES
) -> str:
    _require_text(original_question, "question")
    _require_text(docs_text, "document block")
    return templates["summarize"].format(question=original_question, document=docs_text)


def render_genread_prompt(
    original_question: str, *, templates: Mapping[str, str] = EMBEDDED_TEMPLATES
) -> str:
    _require_text(original_question, "question")
    return templates["genread"].format(question=original_question)


def render_score_prompt(
    question: str, history: HistoryPairs, answer: str, *, templates: Mapping[str, str] = EMBEDDED_TEMPLATES
) -> str:
    _require_text(question, "question")
    _require_text(answer, "answer")
    return templates["score"].format(history=serialize_history(history), question=question, answer=answer)


_MARKER = re.compile(r"ranked\s+questions", re.IGNORECASE)
_NUMBERED_LINE = re.compile(r"^\s*\d+\s*(?:\.(?!\d)|\))\s*(.*?)\s*$")


def parse_questions(text: str, k: int) -> list[str]:
    """Extract up to ``k`` questions from a numbered list, in rank order.

    Looks for lines after a "Ranked Questions" marker; a bare numbered list
    without the marker is accepted too. List numbering and one layer of
    enclosing [brackets] are stripped; empty items are dropped. A number
    whose "." is directly followed by a digit (``0.9``) is a decimal, not
    a list item.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lines = text.splitlines()
    start = 0
    for i, line in enumerate(lines):
        if _MARKER.search(line):
            start = i + 1
            break
    out: list[str] = []
    for line in lines[start:]:
        m = _NUMBERED_LINE.match(line)
        if not m:
            continue
        item = m.group(1).strip()
        if len(item) >= 2 and item.startswith("[") and item.endswith("]"):
            item = item[1:-1].strip()
        if item:
            out.append(item)
        if len(out) == k:
            break
    return out


_NUMBER = r"[-+]?(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][-+]?\d+)?"
_SCORE = re.compile(
    rf"(?P<value>{_NUMBER})(?:\s*(?P<percent>%)|\s*(?:/|out\s+of)\s*(?P<scale>{_NUMBER}))?",
    re.IGNORECASE,
)


def clamp_score(value: float) -> float:
    """A parsed score clamped into [0, 1], as the paper's scorer does."""
    return min(1.0, max(0.0, value))


def parse_score(text: str) -> float:
    """First number in the text, scaled but not clamped: ``clamp_score``
    brings it into [0, 1].

    The scoring prompt asks for a bare number, so the first number wins over
    any later ones a chatty completion may add. A percentage ("85%") or a
    fraction ("8/10", "7 out of 10") is read as its scaled value first, and
    a number may carry an exponent ("5e-1"). A value or a scale that is not
    finite ("1e999" overflows, "8/1e999" would read as 0) raises
    ``ScoreParseError``, as does a scale of 0 or less.
    """
    m = _SCORE.search(text)
    if m is None:
        raise ScoreParseError(f"no numeric score in completion: {text[:80]!r}")
    value = float(m.group("value"))
    if m.group("percent"):
        value /= 100
    elif m.group("scale"):
        scale = float(m.group("scale"))
        if not (0 < scale < math.inf):
            raise ScoreParseError(
                f"non-positive or non-finite score scale in completion: {text[:80]!r}"
            )
        value /= scale
    if not math.isfinite(value):
        raise ScoreParseError(f"non-finite score in completion: {text[:80]!r}")
    return value
