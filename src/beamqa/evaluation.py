"""Answer normalization, EM/F1 scoring, evidence hit rate, and batch reports."""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .accounting import CostLedger
from .retrieval import LineFormatError, read_json_lines
from .search import SearchError, SearchResult

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT = set(string.punctuation)


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
    """One evaluation: question counts, EM/F1/hit-rate means over the
    completed questions (None when none completed), the clamped scores of
    every trace, the summed cost of every ledger, a failed question's partial
    one included, and one row per question as ``eval --output`` writes it."""

    n_examples: int
    completed: int
    failed: int
    em_mean: float | None
    f1_mean: float | None
    hit_rate: float | None
    clamped_scores: int
    cost: CostLedger
    rows: list[dict]


def _row(outcome: SearchResult | SearchError, example: QAExample) -> dict:
    """A question's record: its answer, score, EM, F1 and hit flag, or the
    error that stopped it, then its ledger and cost row. The hit flag is
    computed over the evidences in the winning state's history."""
    golds = example.gold_answers
    row: dict = {"question": example.question, "gold_answers": list(golds)}
    if isinstance(outcome, SearchError):
        row["error"] = str(outcome)
    else:
        answer = outcome.final_answer
        row.update(
            answer=answer,
            score=outcome.final_state.score,
            em=exact_match(answer, golds),
            f1=f1_score(answer, golds),
            hit=hit_rate([e.text for e in outcome.final_state.evidences], golds),
        )
    row["ledger"] = outcome.ledger.snapshot()
    row["cost_report"] = outcome.ledger.report().as_dict()
    return row


def evaluate(
    outcomes: Sequence[SearchResult | SearchError], examples: Sequence[QAExample]
) -> EvalReport:
    """Score each example's search, a ``SearchResult`` or the ``SearchError``
    that ended it, once, and sum the scores and costs over all of them."""
    if len(outcomes) != len(examples):
        raise ValueError(f"got {len(outcomes)} results for {len(examples)} examples")
    if not examples:
        raise ValueError("nothing to evaluate")
    rows = [_row(outcome, example) for outcome, example in zip(outcomes, examples)]
    done = [row for row in rows if "error" not in row]

    def mean(key: str) -> float | None:
        return sum(row[key] for row in done) / len(done) if done else None

    return EvalReport(
        n_examples=len(rows),
        completed=len(done),
        failed=len(rows) - len(done),
        em_mean=mean("em"),
        f1_mean=mean("f1"),
        hit_rate=mean("hit"),
        clamped_scores=sum(
            event.kind == "scored" and "clamped" in event.payload
            for outcome in outcomes
            for event in outcome.trace
        ),
        cost=sum((outcome.ledger for outcome in outcomes), CostLedger()),
        rows=rows,
    )


def load_dataset(path: str | Path) -> list[QAExample]:
    """Read a line-delimited dataset of {question, answers} records."""
    examples: list[QAExample] = []
    for line_no, raw in read_json_lines(path):
        question = raw.get("question")
        answers = raw.get("answers")
        if not isinstance(question, str) or not question.strip():
            raise LineFormatError(path, line_no, "missing or empty 'question'")
        if (
            not isinstance(answers, list)
            or not answers
            or not all(isinstance(a, str) for a in answers)
        ):
            raise LineFormatError(path, line_no, "'answers' must be a non-empty string list")
        examples.append(QAExample(question=question, gold_answers=tuple(answers)))
    return examples
