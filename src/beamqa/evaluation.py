"""Answer normalization, EM/F1 scoring, evidence hit rate, and batch reports."""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .accounting import CostLedger

if TYPE_CHECKING:
    from .search import SearchResult

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT = set(string.punctuation)


class DatasetFormatError(ValueError):
    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.line_no = line_no


@dataclass(frozen=True)
class QAExample:
    question: str
    gold_answers: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "gold_answers", tuple(self.gold_answers))
        if not self.question or not self.question.strip():
            raise ValueError("question must be non-empty")
        if not self.gold_answers:
            raise ValueError("at least one gold answer is required")


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, drop whole-word articles, collapse spaces."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in _PUNCT)
    text = _ARTICLES.sub(" ", text)
    return " ".join(text.split())


def _tokens(text: str) -> list[str]:
    return normalize_answer(text).split()


def exact_match(pred: str, golds: Sequence[str]) -> int:
    """1 iff the normalized prediction matches some gold answer.

    Matching compares normalized token multisets, so reorderings of the same
    words ("January 1, 1904" vs "1 January 1904") count as a match.
    """
    if not golds:
        raise ValueError("gold answer list is empty")
    pred_bag = Counter(_tokens(pred))
    return int(any(pred_bag == Counter(_tokens(g)) for g in golds))


def _f1_single(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def f1_score(pred: str, golds: Sequence[str]) -> float:
    """Token-level F1 on normalized tokens (bag semantics), max over golds."""
    if not golds:
        raise ValueError("gold answer list is empty")
    pred_tokens = _tokens(pred)
    return max(_f1_single(pred_tokens, _tokens(g)) for g in golds)


def hit_rate(evidence_texts: Sequence[str], golds: Sequence[str]) -> int:
    """1 iff any evidence contains some normalized gold answer as a substring."""
    if not golds:
        raise ValueError("gold answer list is empty")
    norm_golds = [g for g in (normalize_answer(g) for g in golds) if g]
    if not norm_golds:
        return 0
    for evidence in evidence_texts:
        norm_evidence = normalize_answer(evidence)
        if any(g in norm_evidence for g in norm_golds):
            return 1
    return 0


@dataclass(frozen=True)
class EvalReport:
    n_examples: int
    em_mean: float
    f1_mean: float
    hit_rate: float | None
    cost: CostLedger

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate(results: Sequence["SearchResult"], examples: Sequence[QAExample]) -> EvalReport:
    """Aggregate EM/F1/hit-rate means and summed cost over aligned runs.

    The hit flag of each example is computed over the evidences accumulated in
    the winning state's history.
    """
    if len(results) != len(examples):
        raise ValueError(f"got {len(results)} results for {len(examples)} examples")
    if not examples:
        raise ValueError("nothing to evaluate")
    ems, f1s, hits = [], [], []
    for result, example in zip(results, examples):
        ems.append(exact_match(result.final_answer, example.gold_answers))
        f1s.append(f1_score(result.final_answer, example.gold_answers))
        evidence_texts = [e.text for e in result.final_state.evidences]
        hits.append(hit_rate(evidence_texts, example.gold_answers))
    n = len(examples)
    return EvalReport(
        n_examples=n,
        em_mean=sum(ems) / n,
        f1_mean=sum(f1s) / n,
        hit_rate=sum(hits) / n,
        cost=sum((r.ledger for r in results), CostLedger()),
    )


def load_dataset(path: str | Path) -> list[QAExample]:
    """Read a line-delimited dataset of {question, answers} records."""
    examples: list[QAExample] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as err:
                raise DatasetFormatError(path, line_no, f"invalid JSON ({err.msg})") from err
            if not isinstance(raw, dict):
                raise DatasetFormatError(path, line_no, "record is not an object")
            question = raw.get("question")
            answers = raw.get("answers")
            if not isinstance(question, str) or not question.strip():
                raise DatasetFormatError(path, line_no, "missing or empty 'question'")
            if (
                not isinstance(answers, list)
                or not answers
                or not all(isinstance(a, str) for a in answers)
            ):
                raise DatasetFormatError(path, line_no, "'answers' must be a non-empty string list")
            examples.append(QAExample(question=question, gold_answers=tuple(answers)))
    return examples
